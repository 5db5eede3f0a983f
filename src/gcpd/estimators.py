"""Stochastic block-gradient estimators: full, fiber-sampled SGD, SAGA.

The block partial gradient of the mean elementwise loss decomposes over
mode-n fibers: with D(j, i) the loss derivative at fiber j, coordinate i, and
H the Khatri-Rao rows,

    per-fiber    g_j = D(j, :)^T H(j, :) / I_n          (I_n x R)
    full         (1/J_n) sum_j g_j
    sampled      (1/B)  sum_{j in F} g_j

so full and SGD with B = J_n coincide exactly.

SAGA keeps one stored gradient per fiber, initialized by one full pass at the
initial iterate. Each g_j is rank one, so the table stores its two factors,
row j holding D(j, :) then H(j, :) in one (J_n, I_n + R) array per mode:
memory O(J_n (I_n + R)) per mode against O(J_n I_n R) for the dense stack of
the g_j. The build's checked pass writes D and H straight into the table's
two halves (see below), so no copy of D or of the table is made. Every sum
over stored gradients is a product of the stored factors, so no per-fiber
(I_n, R) array is formed: the average at the table build and at each
re-sync (once per effective pass) is D^T H / (I_n J_n) of the whole table,
summed over a full pass's row blocks, and a step's change is
(D_new^T H_new - D_old^T H_old) / I_n over its B rows. The build's average
is the sum of the full pass that fills the table, so it and the first
estimate at the initial iterate equal the full gradient bit for bit. Tables
for inactive modes go stale when another block moves; no eager refresh is
done.

Every kind is one oracle, asked for one way: `estimate_gradient(state,
factors, mode, rows, fibers)` gives the state's estimate of the mode-`mode`
block gradient at `factors` over the fiber rows `rows`, whose data fibers are
`fibers`, and reads the loss from the state. It trusts its arguments, as the
solver builds them; any other caller uses `checked_gradient`, which
normalizes the rows, copies the factors, checks both against the state and
only then reads the fibers.

The data in a batch's fibers never change, so the solver reads them a group
of batches at a time: `fiber_groups` reads the fibers of the next g_n of a
mode's drawn batches in one checked `data_fibers` call, when the first of
them is needed, with g_n = max(1, 2^13 // (B_n I_n)) fixed by the state. The
`sgd` kind takes its fibers from there and still makes its per-step checked
`khatri_rao_rows` and `loss_deriv` calls, one of each for a batch of one row
block (B I_n <= 2^13, below); SAGA steps use them with the
Khatri-Rao rows of the per-mode `FiberPlan`s of their state, after the
checked full pass of the table build. The `full` kind reads no group: its
full passes read their own fibers.

A checked pass over a set of fibers (an `sgd` batch; all J_n fibers for the
`full` kind, the SAGA table build and the SAGA diagnostic) forms H with one
checked `khatri_rao_rows` call, then walks row blocks of
`tensors.BLOCK_ENTRIES` // I_n rows (about 2^13 entries, as the exact
objective's blocks): per block b it forms M_b = H_b A_n^T, the derivatives
D_b by one checked `loss_deriv` call, and adds D_b^T H_b into one (I_n, R)
sum, divided by I_n B at the end. A full pass reads each block's fibers by
one checked `data_fibers` call; an `sgd` batch slices them from the fibers
it was handed, and is one block when B I_n <= 2^13. So a pass holds H and a
few temporaries of one block, never a (B, I_n) array. The table build is
the same pass, given the table to write into: each H_b and D_b is copied
into its rows of the table's two halves. The SAGA diagnostic walks the same
blocks, comparing each block's H_b and D_b with the table's rows, and
holds no second table. Every D^T H product summed over
fibers (a pass, and the SAGA average at a re-sync) is added up over the
same row blocks in order, so the estimators' exact equalities hold bit for
bit, and a pass of one block equals the product in one piece. Over several
blocks the sum differs from the one-piece product by rounding, so the block
size moves the iterates of runs whose passes span more than one block.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ConfigError, LossDomainError, StateError
from .losses import LossSpec, deriv_kernel, loss_deriv
from .tensors import (BLOCK_ENTRIES, FiberPlan, KruskalModel, _check_rows, data_fibers,
                      khatri_rao_rows)

ESTIMATOR_KINDS = ("full", "sgd", "saga")


def _block_rows(i_n: int) -> int:
    """Rows in a row block of a pass over fibers of length `i_n`."""
    return max(1, BLOCK_ENTRIES // i_n)


def _batch_mean(d: np.ndarray, kr: np.ndarray) -> np.ndarray:
    """(1/B) sum_j g_j of a held D and H, summed over the row blocks a pass
    over the same fibers uses, in block order."""
    count, i_n = d.shape
    step = _block_rows(i_n)
    total = d[:step].T @ kr[:step]
    for lo in range(step, count, step):
        total += d[lo:lo + step].T @ kr[lo:lo + step]
    total /= i_n * count
    return total


def _halves(table: np.ndarray, i_n: int):
    """The stored D and H of a SAGA table (or of rows taken from it), as views."""
    return table[..., :i_n], table[..., i_n:]


def _blocks(factors, loss: LossSpec, mode: int, rows, read):
    """(lo, H_b, D_b) of each row block of a checked pass over the given
    fibers of `mode`, rows[lo:lo + len(H_b)] (see the module docstring).
    `read(lo, hi)` gives the data fibers of rows[lo:hi]."""
    kr = khatri_rao_rows(factors, mode, rows)
    a = factors[mode]
    count = kr.shape[0]
    step = _block_rows(a.shape[0])
    try:
        for lo in range(0, count, step):
            h = kr[lo:lo + step]
            yield lo, h, loss_deriv(loss, read(lo, lo + step), h @ a.T)
    except LossDomainError:
        # Name the fault as one check over all the rows does: data faults
        # before model faults, extremes over every fiber.
        loss_deriv(loss, read(0, count), kr @ a.T)
        raise


def _pass(factors, loss: LossSpec, mode: int, rows, read, out=None) -> np.ndarray:
    """(1/B) sum_j g_j over the given fibers of `mode`, through the checked
    functions, one row block at a time (see `_blocks`), the products added in
    block order. With `out`, a (B, I_n + R) array, each block's D and H are
    also written into its two halves, as a SAGA table stores them."""
    i_n = factors[mode].shape[0]
    for lo, h, d in _blocks(factors, loss, mode, rows, read):
        if out is not None:
            out_d, out_h = _halves(out[lo:lo + len(h)], i_n)
            out_d[...] = d
            out_h[...] = h
        if lo:
            total += d.T @ h
        else:
            total = d.T @ h
        del d   # before the next block's D is formed
    total /= i_n * rows.size
    return total


def _reader(tensor, mode: int, rows: np.ndarray):
    """`read` for a pass over `rows`: each block's fibers by one checked
    `data_fibers` call."""
    return lambda lo, hi: data_fibers(tensor, mode, rows[lo:hi])


def _read_pass(tensor, factors, loss: LossSpec, mode: int, rows, out=None) -> np.ndarray:
    """`_pass` with each block's fibers read from `tensor`."""
    rows = np.atleast_1d(np.asarray(rows))
    return _pass(factors, loss, mode, rows, _reader(tensor, mode, rows), out)


def _all_rows(tensor, mode: int) -> np.ndarray:
    return np.arange(tensor.shape.fiber_count(mode))


def batch_gradient(tensor, factors, loss: LossSpec, mode: int, rows) -> np.ndarray:
    """(1/B) sum over the given fibers of g_j, shape (I_n, R)."""
    if np.size(rows) == 0:
        raise ConfigError("empty fiber set")
    return _read_pass(tensor, factors, loss, mode, rows)


def full_gradient(tensor, factors, loss: LossSpec, mode: int) -> np.ndarray:
    """Exact block partial gradient over all J_n fibers (desk scale)."""
    return batch_gradient(tensor, factors, loss, mode, _all_rows(tensor, mode))


class EstimatorState:
    """Per-run estimator state; exclusively owned by one solver run.

    Per-mode constants are fixed here, once per run: J_n, the batch size B_n,
    the SAGA re-sync period, the number g_n of batches whose fibers one read
    covers (see `fiber_groups`), and a `FiberPlan` for the Khatri-Rao rows of
    each mode.
    """

    def __init__(self, kind: str, tensor, model: KruskalModel, loss: LossSpec,
                 batch: int):
        if kind not in ESTIMATOR_KINDS:
            raise ConfigError(f"unknown estimator {kind!r}; choose from {ESTIMATOR_KINDS}")
        self.kind = kind
        self.tensor = tensor
        self.loss = loss
        self.rank = model.rank
        shape = tensor.shape
        self.order = shape.order
        self.fiber_counts = [shape.fiber_count(n) for n in range(shape.order)]
        self.batches = [min(int(batch), j) for j in self.fiber_counts]
        if any(b < 1 for b in self.batches):
            raise ConfigError("batch size must be >= 1")
        # The incremental SAGA average drifts; re-sync once per effective pass.
        self.sync_every = [math.ceil(j / b) for j, b in zip(self.fiber_counts, self.batches)]
        # A group read holds at most one checked pass's row block of entries.
        self.groups = [max(1, BLOCK_ENTRIES // (b * i))
                       for b, i in zip(self.batches, shape.dims)]
        self.plans = [FiberPlan(tensor, n) for n in range(self.order)]
        self.deriv = deriv_kernel(loss)

        self.tables = None
        self.table_avg = None
        self._since_sync = None
        if kind == "saga":
            self.tables = []
            self.table_avg = []
            self._since_sync = [0] * self.order
            for n in range(self.order):
                table = np.empty((self.fiber_counts[n], shape.dims[n] + self.rank))
                self.tables.append(table)
                self.table_avg.append(
                    _read_pass(tensor, model.factors, loss, n, _all_rows(tensor, n), table))


def _full(state: EstimatorState, factors, n: int, rows, fibers) -> np.ndarray:
    return full_gradient(state.tensor, factors, state.loss, n)


def _sgd(state: EstimatorState, factors, n: int, rows, fibers) -> np.ndarray:
    """Plain fiber-sampled estimate; unbiased under uniform sampling."""
    return _pass(factors, state.loss, n, rows, lambda lo, hi: fibers[lo:hi])


def _saga(state: EstimatorState, factors, n: int, rows, fibers) -> np.ndarray:
    """SAGA estimate; replaces the touched table entries and updates the average.

    Runs on the mode's plan and the unchecked derivative kernel: the table
    build was a checked full pass over the data, and the rows are in range
    (the solver's draws, or rows that `checked_gradient` has checked)."""
    plan = state.plans[n]
    kr = plan.khatri_rao(factors, plan.digits(rows))
    d = state.deriv(fibers, kr @ factors[n].T)
    table = state.tables[n]
    i_n = d.shape[1]
    old_d, old_kr = _halves(table.take(rows, axis=0), i_n)
    table[rows] = np.concatenate((d, kr), axis=1)
    change = d.T @ kr   # C-ordered, as the estimate and the prox's anchor must be
    change -= old_d.T @ old_kr
    change /= i_n
    estimate = change / rows.size + state.table_avg[n]
    state.table_avg[n] = state.table_avg[n] + change / state.fiber_counts[n]
    state._since_sync[n] += 1
    if state._since_sync[n] >= state.sync_every[n]:
        state.table_avg[n] = _batch_mean(*_halves(table, i_n))
        state._since_sync[n] = 0
    return estimate


_ESTIMATES = {"full": _full, "sgd": _sgd, "saga": _saga}


def fiber_groups(state: EstimatorState, mode: int, rows: np.ndarray):
    """The data fibers of each batch in `rows`, an (m, B_mode) array of
    mode-`mode` batches, in order: a lazy iterator of (B_mode, I_mode) arrays.

    The batches are read g_mode at a time (`EstimatorState.groups`), each
    group by one checked `data_fibers` call made when its first batch is
    asked for, so one group of at most one row block of entries is held at a
    time. The full kind reads no fibers and gets None for each batch.
    """
    if state.kind == "full":
        yield from itertools.repeat(None, len(rows))
        return
    g = state.groups[mode]
    for lo in range(0, len(rows), g):
        group = rows[lo:lo + g]
        yield from data_fibers(state.tensor, mode, group.reshape(-1)).reshape(*group.shape, -1)


def estimate_gradient(state: EstimatorState, factors, mode: int,
                      rows: np.ndarray, fibers: np.ndarray | None) -> np.ndarray:
    """The state's estimate of the mode-`mode` block gradient at `factors`
    (the active block already replaced by the extrapolated gradient point).

    Trusts its arguments, as the solver builds them: factors of the state's
    shape and rank, `rows` a sorted, duplicate-free, non-empty int64 array
    in [0, J_mode), and `fibers` the data fibers at `rows` as
    :func:`fiber_groups` gives them. :func:`checked_gradient` checks the
    rows and factors, then reads the fibers.
    """
    return _ESTIMATES[state.kind](state, factors, mode, rows, fibers)


def checked_gradient(state: EstimatorState, factors, mode: int, rows) -> np.ndarray:
    """:func:`estimate_gradient` for any caller: rows, which must be
    integers in range, are sorted and de-duplicated, the factors are taken
    as float arrays, and the arguments are checked against the state before
    the fibers are read."""
    rows = np.unique(_check_rows(state.tensor.shape.dims, mode, rows))
    if rows.size == 0:
        raise ConfigError("empty fiber set")
    factors = [np.array(a, dtype=float) for a in factors]
    dims = state.tensor.shape.dims
    if [a.shape for a in factors] != [(d, state.rank) for d in dims]:
        raise StateError(
            f"estimator state built for factors {dims} x rank {state.rank}, "
            f"got {[a.shape for a in factors]}")
    if state.loss.nonnegative and min(a.min() for a in factors) < 0:
        raise LossDomainError(f"{state.loss.kind}: factors must be nonnegative")
    fibers = next(fiber_groups(state, mode, rows[None]))   # a group of one batch
    return estimate_gradient(state, factors, mode, rows, fibers)


def vr_diagnostics(state: EstimatorState, factors, mode: int, rows) -> float:
    """Realized variance-reduction diagnostic Gamma, a squared Frobenius norm.

    SAGA measures table staleness at `factors` over all fibers; SGD measures
    its estimate over `rows` against the exact gradient. Desk scale only
    (SAGA walks the whole table, one row block at a time).
    """
    if state.kind == "full":
        return 0.0
    if state.kind == "saga":
        # Per fiber, with d, h its terms at `factors` and t, u the stored ones,
        # I_n (g - stored g) = d h^T - t u^T = a h^T + t b^T for a = d - t,
        # b = h - u: its squared norm takes row dot products, and is 0 on a
        # fresh entry. Each row block of a checked full pass fills its rows'
        # terms into one (J_n,) array, summed once.
        i_n = state.tensor.shape.dims[mode]
        table = state.tables[mode]
        rows = _all_rows(state.tensor, mode)
        sq = np.empty(rows.size)

        def dot(x, y):
            return np.einsum("ji,ji->j", x, y)

        for lo, h, d in _blocks(factors, state.loss, mode, rows,
                                _reader(state.tensor, mode, rows)):
            t, u = _halves(table[lo:lo + len(h)], i_n)
            a, b = d - t, h - u
            sq[lo:lo + len(h)] = (dot(a, a) * dot(h, h) + 2.0 * dot(a, t) * dot(h, b)
                                  + dot(t, t) * dot(b, b))
        return float(np.sum(sq) / (i_n * i_n * state.batches[mode] * state.fiber_counts[mode]))
    err = (batch_gradient(state.tensor, factors, state.loss, mode, rows)   # sgd
           - full_gradient(state.tensor, factors, state.loss, mode))
    return float(np.sum(err * err))
