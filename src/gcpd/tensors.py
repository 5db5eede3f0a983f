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


# Entries per block of every pass that walks a tensor in blocks: the checked
# gradient passes of `estimators`, the exact and sampled objectives and the
# data-domain check of `losses`, the sparse fiber-index build, the order
# check and index fold of a sparse build and its `to_dense` fill, the model
# reads of `KruskalModel.values_at_linear`, and the `.tns` reader's chunks
# and writer's blocks in `data`. Smaller
# blocks pay more checked calls (2^10 more than doubles a
# dense-bernoulli-full fit, and costs a sparse-poisson-sgd fit 3.5 % in its
# sampled objective); larger ones add per-block temporaries (at 2^15 a dense
# full pass peaks at 1.6x the tensor's bytes, against 1.2x here).
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
        if not _all_finite(values):
            raise DataError("dense tensor contains non-finite entries")
        self._keep(values)

    @classmethod
    def _of_finite(cls, values) -> "DenseTensor":
        """A tensor over `values`, a C-contiguous float64 array of order >= 2
        whose entries are known to be finite, kept without a check or a copy."""
        tensor = cls.__new__(cls)
        tensor._keep(values)
        return tensor

    def _keep(self, values):
        self.values = values
        self.shape = TensorShape(values.shape)
        self._plans = [None] * self.shape.order   # built by `fiber_rows` on first use

    @property
    def dims(self) -> tuple[int, ...]:
        return self.shape.dims

    def fiber_rows(self, mode: int, rows, *, check: bool = True) -> np.ndarray:
        """Rows of the mode-`mode` unfolding at the given fiber indices, (B, I_mode).

        `check=False` skips the mode and row range check (`_check_rows`):
        `rows` must then be a 1-d int64 array in [0, J_mode)."""
        if check:
            rows = _check_rows(self.shape.dims, mode, rows)
        plan = self._plans[mode]
        if plan is None:
            plan = self._plans[mode] = FiberPlan(self, mode)
        return plan.moved[plan.digits(rows)]

    def values_at_linear(self, linear_ids) -> np.ndarray:
        """Entries at the given mode-0-fastest linear positions, gathered
        from the C-ordered values without a reordered copy of the tensor;
        IndexError unless every id lies in [0, total)."""
        linear_ids = _check_ids(linear_ids, self.shape.total, "linear id")
        positions = _c_positions(linear_ids.reshape(-1), self.shape.dims)
        return self.values.reshape(-1)[positions].reshape(linear_ids.shape)


class SparseTensorCOO:
    """Sparse coordinate tensor with implicit-zero semantics.

    Each stored entry is held once, as its linear id (mode-0 fastest) and
    its value, in rising linear order; multi-indices are computed from the
    linear ids where they are needed. The ids are int32 when the shape has
    fewer than 2^31 positions and int64 otherwise (`_index_dtype` of the
    position count), so an entry takes 12 bytes below 2^31 positions. A
    mode's fiber index (fiber row -> slice of nonzeros) is built by the
    first read of that mode's fibers, so fiber extraction is O(nnz in
    fiber), not O(nnz total), and a tensor that is only densified never
    builds one. The entries are immutable after construction. `indices` is
    an integer (nnz, N) array of 0-based multi-indices or, with
    `linear=True`, an integer (nnz,) array of the linear ids themselves;
    ids of any other integer type are narrowed or widened to the tensor's
    once, after their range check. Multi-indices of any integer type are
    folded by `_fold_rows`, a block of entries at a time, straight into ids
    of the tensor's type, so beside the ids the fold holds temporaries of
    one block. Entries already in strictly rising linear order, as
    `data.write_tns` writes them, are kept as given when the ids are a
    C-contiguous array of the tensor's id type and the values a C-contiguous
    float64 array, so the caller hands those arrays over.
    """

    def __init__(self, shape, indices, values, *, linear: bool = False):
        self.shape = shape if isinstance(shape, TensorShape) else TensorShape(tuple(shape))
        dims = self.shape.dims
        if self.shape.total > np.iinfo(np.int64).max:
            raise DataError(f"shape {dims} has {self.shape.total} positions, more than "
                            "int64 linear ids can number")
        id_dtype = _index_dtype(self.shape.total)
        indices = np.asarray(indices)
        if indices.size == 0:
            indices = np.empty((0,) if linear else (0, len(dims)), dtype=id_dtype)
        if linear and indices.ndim != 1:
            raise DataError(f"linear ids must have shape (nnz,), got {indices.shape}")
        if not linear and (indices.ndim != 2 or indices.shape[1] != len(dims)):
            raise DataError(f"indices must have shape (nnz, {len(dims)}) for shape {dims}, "
                            f"got {indices.shape}")
        if indices.dtype.kind not in "iu":
            # A cast would truncate 0.5 or True to an index silently.
            raise DataError(f"indices must be integers, got {indices.dtype}")
        values = np.ascontiguousarray(values, dtype=np.float64).reshape(-1)
        if indices.shape[0] != values.shape[0]:
            raise DataError("indices and values length mismatch")
        if values.size > self.shape.total:
            raise DataError("more stored entries than tensor positions")
        if not _all_finite(values):
            raise DataError("sparse tensor contains non-finite values")
        if linear:
            # The range is checked in the ids' own type, before a narrowing
            # cast could wrap an id outside it onto a stored position.
            if indices.size and (indices.min() < 0 or indices.max() >= self.shape.total):
                raise DataError("sparse index out of bounds")
            ids = np.ascontiguousarray(indices, dtype=id_dtype)
        else:
            ids = np.empty(indices.shape[0], dtype=id_dtype)
            try:
                _fold_rows(indices, dims, ids)
            except ValueError:
                raise DataError("sparse index out of bounds") from None
        if not _rising(ids):
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            repeated = np.flatnonzero(ids[1:] == ids[:-1])
            if repeated.size:
                dup = np.unravel_index(ids[repeated[0]], dims, order="F")
                raise DataError(
                    f"duplicate coordinate {tuple(int(i) for i in dup)} in sparse input")
            values = values[order]
        self.values = values
        self._linear = ids
        self._fibers = [None] * self.shape.order   # built by `fiber_index` on first use

    @property
    def dims(self) -> tuple[int, ...]:
        return self.shape.dims

    @property
    def nnz(self) -> int:
        return int(self.values.size)

    def fiber_index(self, mode: int) -> tuple[np.ndarray | None, np.ndarray]:
        """(order, starts) of mode `mode`, built on the first call: fiber f's
        entries are slots starts[f]:starts[f + 1] of order, by rising
        mode-`mode` index. Mode 0 has no order (None): its fibers are runs of
        the linear order, so a slot is the entry's own position. Both arrays
        are int32 below 2^31 entries, and the build holds no other array of
        the entries' size."""
        self.shape._check_mode(mode)
        if self._fibers[mode] is None:
            self._fibers[mode] = self._build_fiber_index(mode)
        return self._fibers[mode]

    def _build_fiber_index(self, mode: int):
        """A counting sort of the entries by fiber id, a block at a time:
        beside the int32 order and starts it holds temporaries of one block
        and of J_n fiber counts. The linear order lists each fiber's
        entries by rising mode-`mode` index, so this stable sort by fiber id
        is the index (`verify.fiber_index_argsort` builds it in one piece)."""
        dims = self.shape.dims
        j_n = self.shape.fiber_count(mode)
        dtype = _index_dtype(self.nnz)
        starts = np.zeros(j_n + 1, dtype=dtype)
        if mode == 0:
            # Mode-0 fiber f holds the linear ids [f * I_0, (f + 1) * I_0).
            # The keys take the ids' type, or the search would widen the ids.
            keys = np.arange(1, starts.size, dtype=self._linear.dtype) * dims[0]
            starts[1:] = np.searchsorted(self._linear, keys)
            return None, starts
        # Linear id a + lo * (i + I * b), with a < lo = I_0 ... I_{mode-1} and
        # I = I_mode, lies at index i of fiber a + lo * b.
        lo, size = math.prod(dims[:mode]), dims[mode]

        def fibers(at, count):
            linear = self._linear[at:at + count]
            fid = linear // (lo * size)
            fid *= lo
            fid += linear % lo
            return fid

        # The prefix sum of the counts leaves fiber f's first slot in
        # starts[f]. Blocks of at least J_n entries make a block's J_n counts
        # cost no more than its entries.
        count_block = max(BLOCK_ENTRIES, j_n)
        for at in range(0, self.nnz, count_block):
            starts[1:] += np.bincount(fibers(at, count_block), minlength=j_n)
        np.cumsum(starts, out=starts)
        # starts[f] is then f's cursor. A stable argsort of a block's fiber
        # ids (a radix sort, on 16-bit keys) gathers each fiber's entries of
        # the block into one run, in linear order; the run's t-th entry takes
        # slot cursor + t.
        order = np.empty(self.nnz, dtype=dtype)
        for at in range(0, self.nnz, BLOCK_ENTRIES):
            keys = fibers(at, BLOCK_ENTRIES)
            if j_n <= 1 << 16:
                keys = keys.astype(np.uint16)
            sort = np.argsort(keys, kind="stable")
            keys = keys[sort]
            edge = np.empty(keys.size, dtype=bool)
            edge[0] = True
            np.not_equal(keys[1:], keys[:-1], out=edge[1:])
            first = np.flatnonzero(edge)
            fid, counts = keys[first].astype(np.int64), np.diff(first, append=keys.size)
            slots = np.repeat(starts[fid] - first, counts)
            slots += np.arange(keys.size)
            sort += at
            order[slots] = sort
            starts[fid] += counts
        # Each cursor has moved to its fiber's run end, kept one place on.
        starts[1:] = starts[:-1].copy()
        starts[0] = 0
        return order, starts

    def fiber_rows(self, mode: int, rows, *, check: bool = True) -> np.ndarray:
        """Rows of the mode-`mode` unfolding at the given fiber indices, (B, I_mode).

        `check=False` skips the row range check (`_check_rows`): `rows` must
        then be a 1-d int64 array in [0, J_mode)."""
        if check:
            rows = _check_rows(self.shape.dims, mode, rows)
        # One gather over the concatenated index slices of the requested
        # fibers. The index and the ids are read in their own types; only
        # the slots and output positions of the entries read are int64.
        order, starts = self.fiber_index(mode)
        first = starts.take(rows).astype(np.int64)
        counts = starts.take(rows + 1) - first
        # Slot t of fiber b's run lies at first[b] + (t - offset[b]).
        offsets = counts.cumsum() - counts
        slots = np.arange(counts.sum()) + (first - offsets).repeat(counts)
        sel = slots if order is None else order.take(slots)
        # Each entry's index along `mode` is a digit of its linear id.
        size = self.shape.dims[mode]
        at = self._linear.take(sel)
        if mode:
            at //= math.prod(self.shape.dims[:mode])
        at %= size
        # Entry (b, at) lies at b * size + at of the C-ordered output.
        at = np.arange(0, rows.size * size, size).repeat(counts) + at
        out = np.zeros((rows.size, size))
        out.reshape(-1)[at] = self.values.take(sel)
        return out

    def values_at_linear(self, linear_ids) -> np.ndarray:
        """Entries at the given mode-0-fastest linear positions (absent = 0);
        IndexError unless every id lies in [0, total)."""
        linear_ids = _check_ids(linear_ids, self.shape.total, "linear id")
        out = np.zeros(linear_ids.shape)
        if self.nnz:
            # Rising keys keep the binary searches local; the hits are then
            # scattered back to the caller's order. The keys, in range, take
            # the ids' type, or the search would widen the ids.
            order = np.argsort(linear_ids, axis=None)
            keys = linear_ids.reshape(-1)[order].astype(self._linear.dtype, copy=False)
            pos = np.minimum(np.searchsorted(self._linear, keys), self.nnz - 1)
            hit = self._linear[pos] == keys
            out.reshape(-1)[order[hit]] = self.values[pos[hit]]
        return out

    def to_dense(self) -> DenseTensor:
        """The dense tensor in C order. A fully stored tensor is one copy of
        its values; any other fills one zero array, a block of entries at a
        time, so no copy of the tensor and no (nnz, N) index array is made."""
        dims = self.shape.dims
        if self.nnz == self.shape.total:
            # Every position is stored, so the values are the tensor in F order.
            values = self.values.reshape(dims, order="F").copy(order="C")
        else:
            values = np.zeros(dims)
            flat = values.reshape(-1)
            for lo in range(0, self.nnz, BLOCK_ENTRIES):
                flat[_c_positions(self._linear[lo:lo + BLOCK_ENTRIES], dims)] = \
                    self.values[lo:lo + BLOCK_ENTRIES]
        # The values were checked finite when the tensor was built.
        return DenseTensor._of_finite(values)


def _index_dtype(n: int):
    """Integer type of indices to `n` slots or positions, such as a fiber
    index over n entries or the linear ids of n positions: int32 while 0..n
    fits in it, int64 beyond."""
    return np.int32 if n < 1 << 31 else np.int64


def _fold_rows(indices, dims, out):
    """Write the mode-0-fastest linear ids of `indices`, an integer (m, N)
    array of 0-based multi-indices, into `out`, one `np.ravel_multi_index`
    per `BLOCK_ENTRIES` rows. numpy's ValueError means an index outside
    `dims` (a uint64 one of 2^63 or more reads as negative), another mode
    count, or more positions than int64 ids can number."""
    for lo in range(0, len(indices), BLOCK_ENTRIES):
        block = indices[lo:lo + BLOCK_ENTRIES]
        out[lo:lo + len(block)] = np.ravel_multi_index(tuple(block.T), dims, order="F")


def _rising(ids) -> bool:
    """Whether `ids` rise strictly, compared a block of `BLOCK_ENTRIES` at a
    time, so the test holds no mask of every entry."""
    for lo in range(1, ids.size, BLOCK_ENTRIES):
        hi = min(lo + BLOCK_ENTRIES, ids.size)
        if not np.all(ids[lo:hi] > ids[lo - 1:hi - 1]):
            return False
    return True


def _all_finite(values) -> bool:
    """Whether no entry of `values` is NaN or infinite. The minimum and
    maximum are NaN when any entry is, so the test holds no per-entry mask."""
    return not values.size or (math.isfinite(values.min()) and math.isfinite(values.max()))


def _check_ids(ids, bound: int, name: str, mode: int | None = None) -> np.ndarray:
    """`ids` as an int64 array of its own shape; IndexError unless every one
    is an integer in [0, bound). A non-empty array of another kind than
    integers (float, bool, object) raises, as numpy does for such an index
    array, instead of being truncated. `name` (and `mode`) name the ids in
    the messages."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise IndexError(f"{name}s must be integers, got {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    # One argmax: a negative id wraps to at least 2^63 as uint64, so the
    # uint64 argmax is a negative id if there is one, else the largest id.
    if ids.size and not 0 <= ids.item(ids.view(np.uint64).argmax()) < bound:
        raise IndexError(f"{name} out of range [0, {bound})"
                         + ("" if mode is None else f" for mode {mode}"))
    return ids


def _c_positions(linear, dims) -> np.ndarray:
    """C-order (last mode fastest) positions of mode-0-fastest linear ids."""
    # Peel the digits i_0, i_1, ... off the linear ids and fold them in as
    # pos = ((i_0 * I_1 + i_1) * I_2 + i_2) ..., with two temporaries.
    quot = linear // dims[0]
    pos = quot * dims[0]
    np.subtract(linear, pos, out=pos)
    for d in dims[1:-1]:
        nxt = quot // d
        pos *= d
        pos += quot
        np.multiply(nxt, d, out=quot)
        pos -= quot
        quot = nxt
    pos *= dims[-1]
    pos += quot
    return pos


class KruskalModel:
    """Rank-R CP model: factor matrices A_n of shape (I_n, R)."""

    def __init__(self, factors):
        factors = [np.ascontiguousarray(np.asarray(a, dtype=np.float64)) for a in factors]
        if len(factors) < 2:
            raise DataError("a Kruskal model needs at least 2 factors")
        ranks = {a.shape[1] for a in factors if a.ndim == 2}
        if any(a.ndim != 2 for a in factors) or len(ranks) != 1:
            raise DataError("factors must be matrices sharing one column count")
        if not all(map(_all_finite, factors)):
            raise DataError("factor matrices contain non-finite entries")
        self.factors = factors
        self.rank = factors[0].shape[1]
        self.shape = TensorShape(tuple(a.shape[0] for a in factors))

    @property
    def order(self) -> int:
        return len(self.factors)

    def values_at_linear(self, linear_ids) -> np.ndarray:
        """Model values at mode-0-fastest linear ids; IndexError unless
        every id lies in [0, total). Each value is the row sum of the
        factors' rows at the id's digits, multiplied as `_khatri_rao`
        multiplies the rows of a Khatri-Rao product. The ids are read
        `BLOCK_ENTRIES // R` at a time, so a block's row product holds
        `BLOCK_ENTRIES` entries and a read of any length holds temporaries
        of one block beside the values."""
        linear_ids = _check_ids(linear_ids, self.shape.total, "linear id")
        out = np.empty(linear_ids.shape)
        ids, values = linear_ids.reshape(-1), out.reshape(-1)
        step = BLOCK_ENTRIES // max(self.rank, 1)
        for lo in range(0, ids.size, step):
            digits = np.unravel_index(ids[lo:lo + step], self.shape.dims, order="F")
            _khatri_rao(self.factors, range(self.order), digits).sum(
                axis=-1, out=values[lo:lo + step])
        return out

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
    """Fiber rows as an int64 array of at least one dimension; IndexError
    unless all are integers in [0, J_mode)."""
    if not 0 <= mode < len(dims):
        raise IndexError(f"mode {mode} out of range for order-{len(dims)} tensor")
    rows = _check_ids(rows, math.prod(dims) // dims[mode], "fiber row", mode)
    return rows if rows.ndim else rows.reshape(1)


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


def khatri_rao_rows(factors, mode: int, rows, *, check: bool = True) -> np.ndarray:
    """Rows of the Khatri-Rao product of all factors except `mode`, shape (B, R).

    Row b for fiber row j is the elementwise product over m != mode of
    A_m[i_m, :] at the fiber's multi-index; never materializes the full product.
    `check=False` skips the mode and row range check (`_check_rows`): `mode`
    must then be a mode of the factors and `rows` a 1-d int64 array in
    [0, J_mode), and the product is the same, bit for bit.
    """
    factors = list(factors)
    dims = list(map(len, factors))
    if check:
        rows = _check_rows(dims, mode, rows)
    others = [*range(mode), *range(mode + 1, len(dims))]
    return _khatri_rao(factors, others,
                       np.unravel_index(rows, dims[:mode] + dims[mode + 1:], order="F"))


def data_fibers(tensor, mode: int, rows, *, check: bool = True) -> np.ndarray:
    """Rows X_(mode)[rows, :] of the data unfolding, (B, I_mode); sparse absent = 0.

    `check=False` skips the row range check of the tensor's `fiber_rows`, as
    there: `rows` must then be a 1-d int64 array in [0, J_mode)."""
    return tensor.fiber_rows(mode, rows, check=check)
