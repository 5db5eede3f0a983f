"""Stochastic block-gradient estimators: full, fiber-sampled SGD, SAGA, SARAH.

The block partial gradient of the mean elementwise loss decomposes over
mode-n fibers: with D(j, i) the loss derivative at fiber j, coordinate i, and
H the Khatri-Rao rows,

    per-fiber    g_j = D(j, :)^T H(j, :) / I_n          (I_n x R)
    full         (1/J_n) sum_j g_j
    sampled      (1/B)  sum_{j in F} g_j

so full, SGD with B = J_n, and SAGA with B = J_n coincide exactly.

SAGA stores per-fiber gradient matrices (memory O(J_n I_n R) per mode; desk
scale), initialized by one full pass at the initial iterate so the first
estimate is exact. SARAH keeps a per-mode running estimate and restarts from
the full gradient with probability 1/p. Tables for inactive modes go stale
when another block moves; no eager refresh is done.

The public gradient functions check their inputs through the checked tensor
and loss functions. SAGA and SARAH steps instead read fibers through the
per-mode `FiberPlan`s of their state, after their own checked full pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LossDomainError, StateError
from .losses import LossSpec, deriv_kernel, loss_deriv
from .tensors import FiberPlan, KruskalModel, data_fibers, khatri_rao_rows

ESTIMATOR_KINDS = ("full", "sgd", "saga", "sarah")


@dataclass(frozen=True)
class GradientRequest:
    """One stochastic-gradient evaluation: the factor snapshot has the active
    block already replaced by the extrapolated gradient point."""

    factors: list
    mode: int
    rows: np.ndarray
    loss: LossSpec

    def __post_init__(self):
        rows = np.unique(np.asarray(self.rows, dtype=np.int64))
        if rows.size == 0:
            raise ConfigError("empty fiber set")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def presorted(cls, factors: list, mode: int, rows: np.ndarray,
                  loss: LossSpec) -> "GradientRequest":
        """A request over rows that are already a sorted, duplicate-free,
        non-empty int64 array (the solver's own draws); skips normalization."""
        req = object.__new__(cls)
        for name, value in (("factors", factors), ("mode", mode), ("rows", rows),
                            ("loss", loss)):
            object.__setattr__(req, name, value)
        return req


def _stack(d: np.ndarray, kr: np.ndarray) -> np.ndarray:
    """Per-fiber gradients g_j = D(j, :)^T H(j, :) / I_n, stacked (B, I_n, R)."""
    return np.einsum("bi,br->bir", d, kr) / d.shape[1]


def _batch_mean(d: np.ndarray, kr: np.ndarray) -> np.ndarray:
    """(1/B) sum_j g_j, shape (I_n, R)."""
    return d.T @ kr / (d.shape[1] * d.shape[0])


def fiber_gradient_stack(tensor, factors, loss: LossSpec, mode: int, rows) -> np.ndarray:
    """Per-fiber gradient matrices g_j, stacked (B, I_n, R)."""
    kr = khatri_rao_rows(factors, mode, rows)
    m = kr @ factors[mode].T
    x = data_fibers(tensor, mode, rows)
    return _stack(loss_deriv(loss, x, m), kr)


def batch_gradient(tensor, factors, loss: LossSpec, mode: int, rows) -> np.ndarray:
    """(1/B) sum over the given fibers of g_j, shape (I_n, R)."""
    kr = khatri_rao_rows(factors, mode, rows)
    m = kr @ factors[mode].T
    x = data_fibers(tensor, mode, rows)
    return _batch_mean(loss_deriv(loss, x, m), kr)


def full_gradient(tensor, factors, loss: LossSpec, mode: int) -> np.ndarray:
    """Exact block partial gradient over all J_n fibers (desk scale)."""
    shape = tensor.shape
    return batch_gradient(tensor, factors, loss, mode, np.arange(shape.fiber_count(mode)))


class EstimatorState:
    """Per-run estimator state; exclusively owned by one solver run.

    Per-mode constants are fixed here, once per run: J_n, the batch size B_n,
    the SARAH restart period, the SAGA re-sync period, and a `FiberPlan` for
    the fiber reads of each mode.
    """

    def __init__(self, kind: str, tensor, model: KruskalModel, loss: LossSpec,
                 batch: int, p: int | None = None,
                 rng: np.random.Generator | None = None):
        if kind not in ESTIMATOR_KINDS:
            raise ConfigError(f"unknown estimator {kind!r}; choose from {ESTIMATOR_KINDS}")
        self.kind = kind
        self.tensor = tensor
        self.loss = loss
        self.rank = model.rank
        self.rng = rng if rng is not None else np.random.default_rng()
        shape = tensor.shape
        self.order = shape.order
        self.fiber_counts = [shape.fiber_count(n) for n in range(shape.order)]
        self.batches = [min(int(batch), j) for j in self.fiber_counts]
        if any(b < 1 for b in self.batches):
            raise ConfigError("batch size must be >= 1")
        # One expected restart per effective epoch unless overridden.
        self.p = [int(p) if p is not None else math.ceil(j / b)
                  for j, b in zip(self.fiber_counts, self.batches)]
        if any(q < 1 for q in self.p):
            raise ConfigError("sarah restart period p must be >= 1")
        # The incremental SAGA average drifts; re-sync once per effective pass.
        self.sync_every = [math.ceil(j / b) for j, b in zip(self.fiber_counts, self.batches)]
        self.plans = [FiberPlan(tensor, n) for n in range(self.order)]
        self.deriv = deriv_kernel(loss)

        self.tables = None
        self.table_avg = None
        self._since_sync = None
        self.estimates = None
        self.snapshots = None
        if kind == "saga":
            self.tables = []
            self.table_avg = []
            self._since_sync = [0] * self.order
            for n in range(self.order):
                stack = fiber_gradient_stack(
                    tensor, model.factors, loss, n, np.arange(self.fiber_counts[n]))
                self.tables.append(stack)
                self.table_avg.append(stack.mean(axis=0))
        elif kind == "sarah":
            self.estimates = [None] * self.order
            self.snapshots = [None] * self.order

    def _check_block(self, req: GradientRequest):
        """What the plan-based SAGA and SARAH steps trust about a request."""
        n = req.mode
        i_n = req.factors[n].shape[0]
        if req.factors[n].shape[1] != self.rank:
            raise StateError(
                f"estimator state built for rank {self.rank}, "
                f"got factor with {req.factors[n].shape[1]} columns")
        if self.tables is not None and self.tables[n].shape[1:] != (i_n, self.rank):
            raise StateError("saga table shape does not match the requested block")
        if req.rows[0] < 0 or req.rows[-1] >= self.fiber_counts[n]:   # rows are sorted
            raise IndexError(
                f"fiber row out of range [0, {self.fiber_counts[n]}) for mode {n}")
        if self.loss.nonnegative and min(a.min() for a in req.factors) < 0:
            raise LossDomainError(f"{self.loss.kind}: factors must be nonnegative")


def sgd_gradient(state: EstimatorState, req: GradientRequest) -> np.ndarray:
    """Plain fiber-sampled estimate; unbiased under uniform sampling."""
    return batch_gradient(state.tensor, req.factors, req.loss, req.mode, req.rows)


def _full(state: EstimatorState, req: GradientRequest) -> np.ndarray:
    return full_gradient(state.tensor, req.factors, req.loss, req.mode)


def _plan_terms(plan: FiberPlan, factors, x, digits, deriv):
    """Loss derivatives D at the planned fibers and the Khatri-Rao rows H."""
    kr = plan.khatri_rao(factors, digits)
    return deriv(x, kr @ factors[plan.mode].T), kr


# SAGA and SARAH steps run on the per-mode plans: each state has been through
# a checked full pass over the data first (the SAGA table build, the first
# SARAH restart), and the solver's rows are in range by construction.

def _saga(state: EstimatorState, req: GradientRequest) -> np.ndarray:
    n = req.mode
    rows = req.rows
    plan = state.plans[n]
    digits = plan.digits(rows)
    current = _stack(*_plan_terms(plan, req.factors, plan.fibers(rows, digits), digits,
                                  state.deriv))
    table = state.tables[n]
    diff = current - table.take(rows, axis=0)
    change = diff.sum(axis=0)
    estimate = change / rows.size + state.table_avg[n]
    table[rows] = current
    state.table_avg[n] = state.table_avg[n] + change / state.fiber_counts[n]
    state._since_sync[n] += 1
    if state._since_sync[n] >= state.sync_every[n]:
        state.table_avg[n] = table.mean(axis=0)
        state._since_sync[n] = 0
    return estimate


def _sarah(state: EstimatorState, req: GradientRequest) -> np.ndarray:
    n = req.mode
    restart = state.estimates[n] is None or state.rng.random() < 1.0 / state.p[n]
    if restart:
        estimate = full_gradient(state.tensor, req.factors, req.loss, n)
    else:
        plan = state.plans[n]
        digits = plan.digits(req.rows)
        x = plan.fibers(req.rows, digits)   # shared by both points
        g_cur = _batch_mean(*_plan_terms(plan, req.factors, x, digits, state.deriv))
        g_prev = _batch_mean(*_plan_terms(plan, state.snapshots[n], x, digits, state.deriv))
        estimate = g_cur - g_prev + state.estimates[n]
    state.estimates[n] = estimate
    # The solver never writes into a factor array, so the snapshot can share them.
    state.snapshots[n] = list(req.factors)
    return estimate


def saga_gradient(state: EstimatorState, req: GradientRequest) -> np.ndarray:
    """SAGA estimate; replaces the touched table entries and updates the average."""
    if state.tables is None:
        raise StateError("saga_gradient called on a non-saga estimator state")
    state._check_block(req)
    return _saga(state, req)


def sarah_gradient(state: EstimatorState, req: GradientRequest) -> np.ndarray:
    """SARAH recursive estimate with probability-1/p restarts."""
    if state.estimates is None:
        raise StateError("sarah_gradient called on a non-sarah estimator state")
    state._check_block(req)
    if state.estimates[req.mode] is not None and state.snapshots[req.mode] is None:
        raise StateError("sarah recursive branch without a previous snapshot")
    estimate = _sarah(state, req)
    # Callers may write into their arrays afterwards; keep a private snapshot.
    state.snapshots[req.mode] = [a.copy() for a in req.factors]
    return estimate


_ESTIMATES = {"full": _full, "sgd": sgd_gradient, "saga": _saga, "sarah": _sarah}


def estimate_gradient(state: EstimatorState, req: GradientRequest) -> np.ndarray:
    """The state's estimate for one request.

    Trusts the request to match the state it was built for (same rank and
    block sizes), as the solver's requests do by construction;
    :func:`saga_gradient` and :func:`sarah_gradient` check that first.
    """
    return _ESTIMATES[state.kind](state, req)


def vr_diagnostics(state: EstimatorState, req: GradientRequest,
                   exact: np.ndarray | None = None) -> tuple[float, float]:
    """Realized (Gamma, Upsilon) variance-reduction diagnostics, Frobenius norms.

    SAGA measures table staleness against the request point over all fibers;
    SARAH and SGD measure the current estimate against the exact gradient.
    Desk scale only (SAGA walks the whole table).
    """
    n = req.mode
    if state.kind == "full":
        return 0.0, 0.0
    if state.kind == "saga":
        j_n = state.fiber_counts[n]
        current = fiber_gradient_stack(
            state.tensor, req.factors, req.loss, n, np.arange(j_n))
        diff = current - state.tables[n]
        sq = np.sum(diff * diff, axis=(1, 2))
        b = state.batches[n]
        gamma = float(np.sum(sq) / (b * j_n))
        upsilon = float(np.sum(np.sqrt(sq)) / math.sqrt(b * j_n))
        return gamma, upsilon
    if exact is None:
        exact = full_gradient(state.tensor, req.factors, req.loss, n)
    if state.kind == "sarah":
        if state.estimates[n] is None:
            return 0.0, 0.0
        err = state.estimates[n] - exact
    else:  # sgd
        err = sgd_gradient(state, req) - exact
    sq = float(np.sum(err * err))
    return sq, math.sqrt(sq)
