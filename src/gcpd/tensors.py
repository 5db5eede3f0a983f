"""Tensor containers, Kruskal (CP) models, and mode-n fiber index algebra.

Conventions used everywhere in this package:

* Modes and fiber rows are 0-based in code. Only the ``.tns`` text format
  (see :mod:`gcpd.data`) is 1-based on disk.
* Dense entries are linearized mode-0-fastest, i.e. ``values.ravel(order="F")``
  is the canonical flat order.
* The mode-n unfolding ``X_(n)`` has shape ``(J_n, I_n)`` with
  ``J_n = prod(I_m, m != n)``. Within a fiber row index the smallest remaining
  mode varies fastest, which makes the stacked rows of
  :func:`khatri_rao_rows` agree with the Khatri-Rao product
  ``A_{N-1} (.) ... (.) A_{n+1} (.) A_{n-1} (.) ... (.) A_0``
  (rightmost factor fastest) by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError


# Entries per row block of the passes that walk a tensor in blocks: the
# checked gradient passes of `estimators` and the exact objective of
# `losses`. Smaller blocks pay more checked calls (2^10 more than doubles a
# dense-bernoulli-full fit); larger ones add per-block temporaries (at 2^15 a
# dense full pass peaks at 1.6x the tensor's bytes, against 1.2x here).
BLOCK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class TensorShape:
    """Mode sizes I_0..I_{N-1} of an order-N tensor (N >= 2)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) < 2:
            raise DataError(f"tensor order must be >= 2, got {len(dims)}")
        if any(d < 1 for d in dims):
            raise DataError(f"all mode sizes must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def fiber_count(self, mode: int) -> int:
        """J_n: the number of mode-`mode` fibers (= total / I_mode)."""
        self._check_mode(mode)
        return self.total // self.dims[mode]

    def _check_mode(self, mode: int):
        if not 0 <= mode < self.order:
            raise IndexError(f"mode {mode} out of range for order-{self.order} tensor")


class DenseTensor:
    """Dense order-N tensor; ``values`` is an N-d float64 array."""

    def __init__(self, values):
        values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if values.ndim < 2:
            raise DataError("dense tensor must have order >= 2")
        if not np.all(np.isfinite(values)):
            raise DataError("dense tensor contains non-finite entries")
        self.values = values
        self.shape = TensorShape(values.shape)
        self._plans = [None] * self.shape.order   # built by `fiber_rows` on first use

    @property
    def dims(self) -> tuple[int, ...]:
        return self.shape.dims

    def fiber_rows(self, mode: int, rows) -> np.ndarray:
        """Rows of the mode-`mode` unfolding at the given fiber indices, (B, I_mode)."""
        rows = _check_rows(self.shape.dims, mode, rows)
        plan = self._plans[mode]
        if plan is None:
            plan = self._plans[mode] = FiberPlan(self, mode)
        return plan.moved[plan.digits(rows)]


class SparseTensorCOO:
    """Sparse coordinate tensor with implicit-zero semantics.

    Entries are kept in linear order (mode-0 fastest). A mode's fiber index
    (fiber row -> slice of nonzeros) is built by the first read of that
    mode's fibers, so fiber extraction is O(nnz in fiber), not O(nnz total),
    and a tensor that is only densified never builds one. The entries are
    immutable after construction. Entries already in strictly rising linear
    order, as `data.write_tns` writes them, are kept as given when they are
    C-contiguous int64 and float64 arrays, so the caller hands those arrays
    over.
    """

    def __init__(self, shape, indices, values):
        self.shape = shape if isinstance(shape, TensorShape) else TensorShape(tuple(shape))
        indices = np.ascontiguousarray(indices, dtype=np.int64).reshape(-1, self.shape.order)
        values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        if indices.shape[0] != values.shape[0]:
            raise DataError("indices and values length mismatch")
        if values.size > self.shape.total:
            raise DataError("more stored entries than tensor positions")
        if values.size and not np.all(np.isfinite(values)):
            raise DataError("sparse tensor contains non-finite values")
        dims = np.array(self.shape.dims, dtype=np.int64)
        if values.size:
            if indices.min() < 0 or np.any(indices >= dims[None, :]):
                raise DataError("sparse index out of bounds")
        # Linear ids (mode-0 fastest) detect duplicates and support random reads.
        linear = np.ravel_multi_index(tuple(indices.T), self.shape.dims, order="F")
        if not np.all(linear[1:] > linear[:-1]):
            order = np.argsort(linear, kind="stable")
            linear = linear[order]
            repeated = np.flatnonzero(linear[1:] == linear[:-1])
            if repeated.size:
                dup = indices[order[repeated[0] + 1]]
                raise DataError(
                    f"duplicate coordinate {tuple(int(i) for i in dup)} in sparse input")
            indices = indices[order]
            values = values[order]
        self.indices = indices
        self.values = values
        self._linear = linear
        self._fibers = [None] * self.shape.order   # built by `fiber_index` on first use

    @property
    def dims(self) -> tuple[int, ...]:
        return self.shape.dims

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def fiber_index(self, mode: int) -> tuple[np.ndarray, np.ndarray]:
        """(order, starts) of mode `mode`, built on the first call: fiber f's
        entries are slots starts[f]:starts[f + 1] of order, by rising
        mode-`mode` index."""
        self.shape._check_mode(mode)
        index = self._fibers[mode]
        if index is None:
            # Within a fiber the entries differ only in the mode-`mode` index,
            # so sorting the unique key fid * I_mode + i_mode gives the stable
            # sort of fid over entries in linear order.
            dims = self.shape.dims
            others = [m for m in range(self.shape.order) if m != mode]
            fid = np.ravel_multi_index(tuple(self.indices[:, m] for m in others),
                                       [dims[m] for m in others], order="F")
            starts = np.zeros(self.shape.fiber_count(mode) + 1, dtype=np.int64)
            np.cumsum(np.bincount(fid, minlength=starts.size - 1), out=starts[1:])
            fid *= dims[mode]
            fid += self.indices[:, mode]
            index = self._fibers[mode] = (np.argsort(fid), starts)
        return index

    def fiber_rows(self, mode: int, rows) -> np.ndarray:
        """Rows of the mode-`mode` unfolding at the given fiber indices, (B, I_mode)."""
        rows = _check_rows(self.shape.dims, mode, rows)
        # One gather over the concatenated index slices of the requested fibers.
        order, starts = self.fiber_index(mode)
        first = starts.take(rows)
        counts = starts.take(rows + 1) - first
        # Slot t of fiber b's run lies at first[b] + (t - offset[b]).
        offsets = np.cumsum(counts) - counts
        slots = np.arange(counts.sum()) + np.repeat(first - offsets, counts)
        sel = order.take(slots)
        out = np.zeros((rows.size, self.shape.dims[mode]))
        out[np.repeat(np.arange(rows.size), counts), self.indices[sel, mode]] = \
            self.values.take(sel)
        return out

    def values_at_linear(self, linear_ids) -> np.ndarray:
        """Entries at the given mode-0-fastest linear positions (absent = 0)."""
        linear_ids = np.asarray(linear_ids, dtype=np.int64)
        out = np.zeros(linear_ids.shape)
        if self.nnz:
            # Rising keys keep the binary searches local; the hits are then
            # scattered back to the caller's order.
            order = np.argsort(linear_ids, axis=None)
            keys = linear_ids.reshape(-1)[order]
            pos = np.minimum(np.searchsorted(self._linear, keys), self.nnz - 1)
            hit = self._linear[pos] == keys
            out.reshape(-1)[order[hit]] = self.values[pos[hit]]
        return out

    def to_dense(self) -> DenseTensor:
        """The dense tensor, filled in place in C order: no copy of it is made."""
        values = np.zeros(self.shape.dims)
        values[tuple(self.indices.T)] = self.values
        return DenseTensor(values)


class KruskalModel:
    """Rank-R CP model: factor matrices A_n of shape (I_n, R)."""

    def __init__(self, factors):
        factors = [np.ascontiguousarray(np.asarray(a, dtype=np.float64)) for a in factors]
        if len(factors) < 2:
            raise DataError("a Kruskal model needs at least 2 factors")
        ranks = {a.shape[1] for a in factors if a.ndim == 2}
        if any(a.ndim != 2 for a in factors) or len(ranks) != 1:
            raise DataError("factors must be matrices sharing one column count")
        if any(not np.all(np.isfinite(a)) for a in factors):
            raise DataError("factor matrices contain non-finite entries")
        self.factors = factors
        self.rank = factors[0].shape[1]
        self.shape = TensorShape(tuple(a.shape[0] for a in factors))

    @property
    def order(self) -> int:
        return len(self.factors)

    def entries(self, indices) -> np.ndarray:
        """Model values at (S, N) multi-indices."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 2 or indices.shape[1] != self.order:
            raise DataError("multi-index array must be (S, N)")
        dims = np.array(self.shape.dims)
        if indices.size and (indices.min() < 0 or np.any(indices >= dims[None, :])):
            raise IndexError("multi-index out of bounds")
        prod = np.ones((indices.shape[0], self.rank))
        for n, a in enumerate(self.factors):
            prod *= a[indices[:, n], :]
        return prod.sum(axis=1)

    def slab(self, lo: int, hi: int) -> np.ndarray:
        """Model values at mode-0 indices [lo, hi), shape (hi - lo, I_1, ...):
        the reconstruction with A_0[lo:hi] in place of A_0. Each value is
        summed over r in the same order, so slabs equal the matching rows of
        the whole reconstruction bit for bit."""
        n = self.order
        args = [self.factors[0][lo:hi], [0, n]]
        for mode, a in enumerate(self.factors[1:], start=1):
            args.extend([a, [mode, n]])
        args.append(list(range(n)))
        return np.einsum(*args)

    def to_dense(self) -> DenseTensor:
        """Full dense reconstruction sum_r A_0(:,r) o ... o A_{N-1}(:,r)."""
        return DenseTensor(self.slab(0, self.shape.dims[0]))

    def replace(self, mode: int, factor) -> "KruskalModel":
        factors = list(self.factors)
        factors[mode] = factor
        return KruskalModel(factors)


def _check_rows(dims, mode: int, rows) -> np.ndarray:
    """Fiber rows as an int64 array; IndexError unless all lie in [0, J_mode)."""
    if not 0 <= mode < len(dims):
        raise IndexError(f"mode {mode} out of range for order-{len(dims)} tensor")
    rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
    j_n = math.prod(dims) // dims[mode]
    if rows.size and (rows.min() < 0 or rows.max() >= j_n):
        raise IndexError(f"fiber row out of range [0, {j_n}) for mode {mode}")
    return rows


def _khatri_rao(factors, others, digits) -> np.ndarray:
    # The product starts from the first gathered rows rather than from ones:
    # 1.0 * v == v exactly, so the values are those of the ones-based product.
    out = factors[others[0]].take(digits[0], axis=0)
    for m, idx in zip(others[1:], digits[1:]):
        out *= factors[m].take(idx, axis=0)
    return out


class FiberPlan:
    """Fiber index algebra along one mode of one tensor, set up once.

    Holds the sizes of the other modes, which split a fiber row into its
    multi-index, and for dense data `moved`, a view of the values with `mode`
    moved last (a view: no per-mode copy), which `DenseTensor.fiber_rows`
    indexes with the digits. A plan holds no reference to its tensor, so the
    plans a `DenseTensor` keeps form no reference cycle. The methods trust
    their rows to lie in [0, J_mode), as a run's own draws do, and skip the
    checks that :func:`khatri_rao_rows` makes.
    """

    def __init__(self, tensor, mode: int):
        tensor.shape._check_mode(mode)
        self.mode = mode
        self.others = tuple(m for m in range(tensor.shape.order) if m != mode)
        self.moduli = tuple(tensor.shape.dims[m] for m in self.others)
        self.moved = (tensor.values.transpose(self.others + (mode,))
                      if isinstance(tensor, DenseTensor) else None)

    def digits(self, rows: np.ndarray) -> tuple:
        """Per-mode indices of in-range fiber rows (the smallest remaining
        mode varies fastest)."""
        return np.unravel_index(rows, self.moduli, order="F")

    def khatri_rao(self, factors, digits) -> np.ndarray:
        """Rows of the Khatri-Rao product of the other factors, (B, R)."""
        return _khatri_rao(factors, self.others, digits)


def khatri_rao_rows(factors, mode: int, rows) -> np.ndarray:
    """Rows of the Khatri-Rao product of all factors except `mode`, shape (B, R).

    Row b for fiber row j is the elementwise product over m != mode of
    A_m[i_m, :] at the fiber's multi-index; never materializes the full product.
    """
    factors = list(factors)
    dims = [a.shape[0] for a in factors]
    rows = _check_rows(dims, mode, rows)
    others = [m for m in range(len(dims)) if m != mode]
    return _khatri_rao(factors, others,
                       np.unravel_index(rows, [dims[m] for m in others], order="F"))


def data_fibers(tensor, mode: int, rows) -> np.ndarray:
    """Rows X_(mode)[rows, :] of the data unfolding, (B, I_mode); sparse absent = 0."""
    return tensor.fiber_rows(mode, rows)
