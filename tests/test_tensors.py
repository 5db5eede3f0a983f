"""Tensor containers, fiber index algebra, and Khatri-Rao row products."""

import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcpd import tensors
from gcpd.errors import DataError
from gcpd.tensors import (DenseTensor, FiberPlan, KruskalModel, SparseTensorCOO,
                          TensorShape, data_fibers, khatri_rao_rows)
from gcpd.verify import (fiber_index_argsort, fiber_rows_loop, fiber_to_multi_index,
                         multi_index_to_fiber, unfold)


def brute_force_fibers(dims, mode):
    """Oracle: enumerate fiber multi-indices, smallest remaining mode fastest.

    itertools.product varies its last factor fastest, so feeding the remaining
    modes largest-first and reversing each tuple yields the declared order.
    """
    import itertools
    rest = [m for m in range(len(dims)) if m != mode]
    ranges = [range(dims[m]) for m in reversed(rest)]
    return [tuple(reversed(t)) for t in itertools.product(*ranges)]


def entry(model, index):
    """Model value at one multi-index, read through the batched `values_at_linear`."""
    return float(model.values_at_linear(
        [np.ravel_multi_index(index, model.shape.dims, order="F")])[0])


def materialize_khatri_rao(factors, mode):
    """Oracle: brute-force Khatri-Rao product, rightmost (smallest mode) fastest."""
    rest = [factors[m] for m in range(len(factors)) if m != mode]
    out = rest[0]
    for a in rest[1:]:
        out = (a[:, None, :] * out[None, :, :]).reshape(-1, out.shape[1])
    return out


class TestTensorShape:
    def test_basics(self):
        s = TensorShape((2, 3, 4))
        assert s.order == 3
        assert s.total == 24
        assert [s.fiber_count(n) for n in range(3)] == [12, 8, 6]

    def test_validation(self):
        with pytest.raises(DataError):
            TensorShape((5,))
        with pytest.raises(DataError):
            TensorShape((2, 0))


class TestFiberIndexing:
    def test_first_fiber_is_origin(self):
        # 1-based spec example: shape (2,3,4), n=2, j=1 -> (1,1)
        assert fiber_to_multi_index(TensorShape((2, 3, 4)), 1, 0) == (0, 0)

    def test_mode1_fastest_example(self):
        # 1-based spec example: shape (2,3,4), n=2, j=8 -> (2,4)
        assert fiber_to_multi_index(TensorShape((2, 3, 4)), 1, 7) == (1, 3)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            fiber_to_multi_index(TensorShape((2, 3, 4)), 1, 8)
        with pytest.raises(IndexError):
            fiber_to_multi_index(TensorShape((2, 3, 4)), 3, 0)

    def test_matches_brute_force_enumeration(self):
        shape = TensorShape((2, 3, 4))
        for mode in range(3):
            expected = brute_force_fibers(shape.dims, mode)
            got = [fiber_to_multi_index(shape, mode, j)
                   for j in range(shape.fiber_count(mode))]
            assert got == expected

    def test_round_trip_all_modes(self):
        for dims in [(2, 3), (2, 3, 4), (3, 2, 2, 2)]:
            shape = TensorShape(dims)
            for mode in range(len(dims)):
                for j in range(shape.fiber_count(mode)):
                    multi = fiber_to_multi_index(shape, mode, j)
                    assert multi_index_to_fiber(shape, mode, multi) == j


class TestKhatriRaoRows:
    def test_single_row_product(self):
        # N=3, n=2 (1-based): A1 row [1,2], A3 row [3,4] -> [3,8]
        factors = [np.array([[1.0, 2.0]]), np.array([[9.0, 9.0]]),
                   np.array([[3.0, 4.0]])]
        row = khatri_rao_rows(factors, 1, [0])
        assert np.array_equal(row, [[3.0, 8.0]])

    def test_all_ones(self):
        factors = [np.ones((2, 3)), np.ones((4, 3)), np.ones((2, 3))]
        rows = khatri_rao_rows(factors, 0, np.arange(8))
        assert np.array_equal(rows, np.ones((8, 3)))

    def test_matches_materialized_product(self):
        rng = np.random.default_rng(0)
        for dims in [(2, 2, 2), (3, 2, 4), (2, 2, 3, 2)]:
            factors = [rng.standard_normal((d, 2)) for d in dims]
            for mode in range(len(dims)):
                j_n = int(np.prod(dims)) // dims[mode]
                rows = khatri_rao_rows(factors, mode, np.arange(j_n))
                assert np.array_equal(rows, materialize_khatri_rao(factors, mode))


class TestKruskalModel:
    def test_all_ones_entry(self):
        model = KruskalModel([np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2))])
        assert entry(model, (0, 0, 0)) == 2.0

    def test_zeroed_column_contributes_nothing(self):
        rng = np.random.default_rng(1)
        factors = [rng.random((2, 2)) for _ in range(3)]
        zeroed = [f.copy() for f in factors]
        zeroed[0][:, 1] = 0.0
        m = KruskalModel(zeroed)
        rank1 = KruskalModel([f[:, :1] for f in zeroed])
        for idx in np.ndindex(2, 2, 2):
            assert entry(m, idx) == pytest.approx(entry(rank1, idx), abs=0)

    def test_matches_triple_loop_reconstruction(self):
        rng = np.random.default_rng(2)
        factors = [rng.standard_normal((2, 2)) for _ in range(3)]
        model = KruskalModel(factors)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    expected = sum(factors[0][i, r] * factors[1][j, r] * factors[2][k, r]
                                   for r in range(2))
                    assert entry(model, (i, j, k)) == pytest.approx(expected, rel=1e-15)

    def test_dense_reconstruction_close(self):
        rng = np.random.default_rng(3)
        model = KruskalModel([rng.random((4, 3)) for _ in range(3)])
        dense = model.to_dense().values
        for idx in [(0, 0, 0), (3, 2, 1), (1, 3, 2)]:
            assert abs(dense[idx] - entry(model, idx)) <= 1e-12

    def test_slabs_and_dense_equal_einsum_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            order = int(rng.integers(2, 5))
            rank = int(rng.integers(1, 6))
            factors = [rng.standard_normal((int(d), rank))
                       for d in rng.integers(1, 9, size=order)]
            model = KruskalModel(factors)
            args = [x for mode, a in enumerate(factors) for x in (a, [mode, order])]
            whole = np.einsum(*args, list(range(order)))
            assert model.to_dense().values.tobytes() == whole.tobytes()
            i_0 = factors[0].shape[0]
            for step in range(1, i_0 + 1):
                slabs = [model.slab(lo, lo + step) for lo in range(0, i_0, step)]
                assert np.concatenate(slabs).tobytes() == whole.tobytes()

    def test_scaling_indeterminacy(self):
        rng = np.random.default_rng(4)
        factors = [rng.random((3, 2)) + 0.1 for _ in range(3)]
        model = KruskalModel(factors)
        rescaled = [f.copy() for f in factors]
        c = 3.7
        rescaled[0][:, 1] *= c
        rescaled[2][:, 1] /= c
        other = KruskalModel(rescaled)
        for idx in np.ndindex(3, 3, 3):
            assert entry(other, idx) == pytest.approx(entry(model, idx), rel=1e-12)


class TestModelFibers:
    def test_all_ones_row_value_is_rank(self):
        model = KruskalModel([np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3))])
        rows = khatri_rao_rows(model.factors, 0, [0]) @ model.factors[0].T
        assert np.array_equal(rows, np.full((1, 2), 3.0))

    def test_values_at_linear_equal_a_product_from_ones_bit_for_bit(self):
        # 1.0 * v == v, so starting the product from the first factor's rows
        # changes no value; the ids are read in the caller's order.
        rng = np.random.default_rng(8)
        for dims in ((5, 4), (4, 3, 5), (3, 2, 4, 2)):
            model = KruskalModel([rng.random((d, 3)) for d in dims])
            lin = rng.permutation(math.prod(dims))
            prod = np.ones((lin.size, 3))
            for a, i in zip(model.factors, np.unravel_index(lin, dims, order="F")):
                prod *= a[i]
            got = model.values_at_linear(lin)
            assert got.tobytes() == prod.sum(axis=1).tobytes()
            assert np.allclose(got, model.to_dense().values.ravel(order="F")[lin], rtol=1e-14)

    def test_entries_match_model_entry(self):
        rng = np.random.default_rng(5)
        model = KruskalModel([rng.random((d, 2)) for d in (2, 3, 2)])
        shape = model.shape
        for mode in range(3):
            j_n = shape.fiber_count(mode)
            rows = (khatri_rao_rows(model.factors, mode, np.arange(j_n))
                    @ model.factors[mode].T)
            for j in range(j_n):
                multi = list(fiber_to_multi_index(shape, mode, j))
                for i in range(shape.dims[mode]):
                    full_idx = multi[:mode] + [i] + multi[mode:]
                    assert rows[j, i] == pytest.approx(entry(model, full_idx), rel=1e-12)

    def test_full_stack_equals_unfolded_reconstruction(self):
        rng = np.random.default_rng(6)
        model = KruskalModel([rng.random((d, 3)) for d in (4, 3, 4)])
        dense = model.to_dense()
        for mode in range(3):
            j_n = model.shape.fiber_count(mode)
            stacked = (khatri_rao_rows(model.factors, mode, np.arange(j_n))
                       @ model.factors[mode].T)
            assert np.max(np.abs(stacked - unfold(dense, mode))) <= 1e-12


class TestDataFibers:
    def test_dense_direct_indexing(self):
        values = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
        tensor = DenseTensor(values)
        for mode in range(3):
            j_n = tensor.shape.fiber_count(mode)
            rows = data_fibers(tensor, mode, np.arange(j_n))
            for j in range(j_n):
                multi = list(fiber_to_multi_index(tensor.shape, mode, j))
                for i in range(tensor.dims[mode]):
                    idx = tuple(multi[:mode] + [i] + multi[mode:])
                    assert rows[j, i] == values[idx]

    def test_empty_sparse_is_zero(self):
        sp = SparseTensorCOO((2, 3, 2), np.empty((0, 3)), [])
        assert np.array_equal(data_fibers(sp, 1, [0, 3]), np.zeros((2, 3)))

    def test_sparse_dense_round_trip(self):
        rng = np.random.default_rng(7)
        values = rng.random((3, 2, 4))
        values[values < 0.4] = 0.0
        dense = DenseTensor(values)
        nz = np.argwhere(values != 0)
        sp = SparseTensorCOO((3, 2, 4), nz, values[tuple(nz.T)])
        assert np.array_equal(sp.to_dense().values, values)
        for mode in range(3):
            j_n = dense.shape.fiber_count(mode)
            rows = np.arange(j_n)
            assert np.array_equal(data_fibers(sp, mode, rows),
                                  data_fibers(dense, mode, rows))


class TestSparseValidation:
    def test_duplicates_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            SparseTensorCOO((2, 2), [[0, 0], [0, 0]], [1.0, 2.0])

    def test_bounds_checked(self):
        with pytest.raises(DataError):
            SparseTensorCOO((2, 2), [[0, 2]], [1.0])

    def test_nnz_cannot_exceed_total(self):
        idx = [[i, j] for i in range(2) for j in range(2)] + [[0, 1]]
        with pytest.raises(DataError):
            SparseTensorCOO((2, 2), idx, np.ones(5))

    @pytest.mark.parametrize("idx,values", [
        ([[0, 0, 0], [1, 1, 1]], [1.0, 2.0, 3.0]),   # one flat run of 3 pairs
        ([[0, 0, 0]], [1.0]),
        ([0, 1], [1.0]),
        (np.zeros((1, 2, 2)), [1.0]),
    ])
    def test_indices_must_be_nnz_by_order(self, idx, values):
        with pytest.raises(DataError, match=r"shape \(nnz, 2\)"):
            SparseTensorCOO((2, 2), idx, values)

    @pytest.mark.parametrize("idx", [[], np.empty((0, 2)), np.empty((0, 5))])
    def test_empty_indices_of_any_shape_give_an_empty_tensor(self, idx):
        tensor = SparseTensorCOO((2, 2), idx, [])
        assert tensor.nnz == 0 and tensor._linear.shape == (0,)

    def test_shapes_beyond_int64_linear_ids_are_rejected(self):
        dims = (10_000_000,) * 3
        with pytest.raises(DataError, match=r"\(10000000, 10000000, 10000000\)"):
            SparseTensorCOO(dims, [[0, 0, 0]], [1.0])
        # 2^63 - 1 positions still number: ids reach 2^63 - 2.
        edge = SparseTensorCOO((7, 7, 73, 127, 337, 92737, 649657),
                               [[6, 6, 72, 126, 336, 92736, 649656]], [1.0])
        assert edge._linear.tolist() == [2 ** 63 - 2]
        with pytest.raises(DataError, match=r"\(10000000, 10000000, 10000000\)"):
            SparseTensorCOO(dims, [0], [1.0], linear=True)

    @pytest.mark.parametrize("idx", [[[0.5, 1.7]], [[0.0, 1.0]], [[False, True]],
                                     np.array([[0, 1]], dtype=object)])
    def test_non_integer_indices_are_rejected(self, idx):
        # A cast to int64 would truncate [[0.5, 1.7]] to the entry (0, 1).
        with pytest.raises(DataError, match="indices must be integers"):
            SparseTensorCOO((2, 2), idx, [1.0])

    @pytest.mark.parametrize("ids", [[1.0], [True], [0.5]])
    def test_non_integer_linear_ids_are_rejected(self, ids):
        with pytest.raises(DataError, match="indices must be integers"):
            SparseTensorCOO((2, 2), ids, [1.0], linear=True)

    def test_unsigned_and_narrow_integer_indices_are_taken(self):
        want = SparseTensorCOO((3, 4), [[2, 1], [0, 3]], [1.0, 2.0])
        for dtype in (np.uint8, np.int32, np.uint64):
            got = SparseTensorCOO((3, 4), np.array([[2, 1], [0, 3]], dtype=dtype), [1.0, 2.0])
            assert np.array_equal(got._linear, want._linear)
            assert np.array_equal(got.values, want.values)


class TestSparseFromLinearIds:
    def test_equals_the_tensor_from_multi_indices(self):
        rng = np.random.default_rng(11)
        dims = (6, 5, 4)
        linear = rng.choice(120, 40, replace=False)
        values = rng.standard_normal(40)
        idx = np.column_stack(np.unravel_index(linear, dims, order="F"))
        want = SparseTensorCOO(dims, idx, values)
        got = SparseTensorCOO(dims, linear, values, linear=True)
        assert all(np.array_equal(a, b) for a, b in zip(_coo_arrays(got), _coo_arrays(want)))

    def test_rising_int64_ids_and_values_are_kept_as_given(self):
        ids = np.array([0, 5, 7, 11])
        values = np.array([1.0, -2.0, 3.0, 0.5])
        tensor = SparseTensorCOO((3, 4), ids, values, linear=True)
        assert np.shares_memory(tensor._linear, ids) and np.shares_memory(tensor.values, values)

    def test_duplicates_rejected(self):
        with pytest.raises(DataError, match=r"duplicate coordinate \(1, 2\)"):
            SparseTensorCOO((3, 4), [7, 0, 7], [1.0, 2.0, 3.0], linear=True)

    @pytest.mark.parametrize("ids", [[-1], [12], [0, 12], [np.iinfo(np.int64).max]])
    def test_ids_outside_the_shape_rejected(self, ids):
        with pytest.raises(DataError, match="out of bounds"):
            SparseTensorCOO((3, 4), ids, np.ones(len(ids)), linear=True)

    @pytest.mark.parametrize("ids", [[[0, 1]], np.zeros((1, 1), dtype=np.int64)])
    def test_ids_must_be_one_dimensional(self, ids):
        with pytest.raises(DataError, match=r"linear ids must have shape \(nnz,\)"):
            SparseTensorCOO((3, 4), ids, [1.0] * np.size(ids), linear=True)

    def test_non_finite_values_and_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="non-finite"):
            SparseTensorCOO((3, 4), [0, 1], [1.0, np.nan], linear=True)
        with pytest.raises(DataError, match="length mismatch"):
            SparseTensorCOO((3, 4), [0, 1], [1.0], linear=True)

    @pytest.mark.parametrize("ids", [[], np.empty(0)])
    def test_no_ids_give_an_empty_tensor(self, ids):
        tensor = SparseTensorCOO((3, 4), ids, [], linear=True)
        assert tensor.nnz == 0 and tensor._linear.dtype == np.int64


def _coo_arrays(tensor):
    """Every array a SparseTensorCOO holds, its fiber index built first;
    mode 0 has no order."""
    arrays = [tensor._linear, tensor.values]
    for mode in range(tensor.shape.order):
        order, starts = tensor.fiber_index(mode)
        assert (order is None) == (mode == 0)
        arrays += [starts] if order is None else [order, starts]
    return arrays


class TestSparseLayout:
    @staticmethod
    def _entries(dims, nnz, seed):
        rng = np.random.default_rng(seed)
        linear = np.sort(rng.choice(int(np.prod(dims)), nnz, replace=False))
        idx = np.column_stack(np.unravel_index(linear, dims, order="F"))
        return idx, rng.standard_normal(nnz)

    @pytest.mark.parametrize("dims,nnz", [((6, 5, 4), 40), ((4, 3, 5, 2), 70),
                                          ((9, 1, 7), 63), ((3, 4), 0)])
    def test_shuffled_entries_give_the_sorted_tensor(self, dims, nnz):
        idx, values = self._entries(dims, nnz, seed=nnz)
        shuffle = np.random.default_rng(1).permutation(nnz)
        built = SparseTensorCOO(dims, idx, values)
        shuffled = SparseTensorCOO(dims, idx[shuffle], values[shuffle])
        for a, b in zip(_coo_arrays(built), _coo_arrays(shuffled), strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("dims,nnz", [((6, 5, 4), 40), ((4, 3, 5, 2), 70),
                                          ((1, 7, 3), 15), ((5, 1, 1), 3)])
    def test_fiber_index_is_the_stable_sort_of_fiber_ids(self, dims, nnz):
        # The reference: a stable argsort of each entry's fiber id, and each
        # fiber's first slot by binary search. Mode 0's stable sort is the
        # identity, so it keeps no order and a slot is the entry's position.
        idx, values = self._entries(dims, nnz, seed=3)
        tensor = SparseTensorCOO(dims, idx[::-1], values[::-1])
        held = np.column_stack(np.unravel_index(tensor._linear, dims, order="F"))
        assert np.array_equal(held, idx)
        for mode in range(len(dims)):
            others = [m for m in range(len(dims)) if m != mode]
            fid = np.ravel_multi_index(tuple(held[:, others].T),
                                       [dims[m] for m in others], order="F")
            order = np.argsort(fid, kind="stable")
            starts = np.searchsorted(fid[order],
                                     np.arange(tensor.shape.fiber_count(mode) + 1))
            got_order, got_starts = tensor.fiber_index(mode)
            if mode == 0:
                assert got_order is None
                assert np.array_equal(order, np.arange(nnz))
            else:
                assert got_order.dtype == np.int32
                assert np.array_equal(got_order, order)
            assert got_starts.dtype == np.int32
            assert np.array_equal(got_starts, starts)

    def test_index_type_is_int32_below_2_to_the_31_entries(self):
        # Every slot and run end, 0..nnz, must fit the type.
        assert tensors._index_dtype(0) is np.int32
        assert tensors._index_dtype(2 ** 31 - 1) is np.int32
        assert tensors._index_dtype(2 ** 31) is np.int64
        assert tensors._index_dtype(3 * 2 ** 32) is np.int64

    def test_holds_no_index_block(self):
        # Each entry is held once, as a linear id and a value.
        idx, values = self._entries((6, 5, 4), 40, seed=8)
        tensor = SparseTensorCOO((6, 5, 4), idx, values)
        held = [v for v in vars(tensor).values() if isinstance(v, np.ndarray)]
        assert [(a.shape, a.dtype) for a in held] == [((40,), np.float64),
                                                      ((40,), np.int64)]
        assert np.array_equal(tensor._linear, np.ravel_multi_index(
            tuple(idx.T), (6, 5, 4), order="F"))

    def test_fiber_index_is_built_by_the_first_read_of_its_mode(self):
        idx, values = self._entries((6, 5, 4), 40, seed=6)
        tensor = SparseTensorCOO((6, 5, 4), idx, values)
        dense = tensor.to_dense()
        assert tensor._fibers == [None, None, None]
        tensor.fiber_rows(1, [0, 3])
        built = tensor._fibers[1]
        assert built is not None
        assert tensor._fibers[0] is None and tensor._fibers[2] is None
        assert np.array_equal(tensor.fiber_rows(1, np.arange(24)),
                              data_fibers(dense, 1, np.arange(24)))
        assert tensor._fibers[1] is built
        with pytest.raises(IndexError):
            tensor.fiber_index(-1)

    @pytest.mark.parametrize("dims,nnz", [((60, 50, 40), 120_000), ((64, 50, 25), 20_000),
                                          ((64, 50, 25), 6000)])
    def test_to_dense_fills_one_array_in_place(self, dims, nnz):
        # Filling in Fortran order and copying to C order peaks at 2.1x. A
        # fully stored tensor is one copy of its values; the blocks of any
        # other add three int64 temporaries of `_FILL_BLOCK` entries.
        idx, values = self._entries(dims, nnz, seed=7)
        tensor = SparseTensorCOO(dims, idx, values)
        tensor.to_dense()
        tracemalloc.start()
        try:
            dense = tensor.to_dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1.01 if nnz == math.prod(dims) else 1.2) * dense.values.nbytes
        assert dense.values.flags.c_contiguous
        want = np.zeros(math.prod(dims))
        want[tensor._linear] = values
        assert np.array_equal(dense.values, want.reshape(dims, order="F"))

    @pytest.mark.parametrize("dims,nnz", [((7, 3), 21), ((1, 9), 9), ((9, 1), 9),
                                          ((4, 3, 5, 2), 120), ((4, 3, 5, 2), 50)])
    def test_to_dense_places_every_entry_in_a_new_array(self, dims, nnz):
        # A (1, 9) view in Fortran order is C-contiguous too: still copied.
        idx, values = self._entries(dims, nnz, seed=10)
        tensor = SparseTensorCOO(dims, idx, values)
        dense = tensor.to_dense()
        assert dense.values.flags.c_contiguous
        assert not np.shares_memory(dense.values, tensor.values)
        want = np.zeros(dims)
        want[tuple(idx.T)] = values
        assert np.array_equal(dense.values, want)

    def test_to_dense_checks_no_entry_again(self, monkeypatch):
        # The sparse constructor checked the values finite; densifying does
        # not pass over them again.
        idx, values = self._entries((6, 5, 4), 40, seed=9)
        tensor = SparseTensorCOO((6, 5, 4), idx, values)
        monkeypatch.setattr(tensors.np, "isfinite", None)
        dense = tensor.to_dense()
        monkeypatch.undo()
        want = np.zeros((6, 5, 4))
        want[tuple(idx.T)] = values
        assert np.array_equal(dense.values, want)
        assert dense.shape.dims == (6, 5, 4)
        assert np.array_equal(data_fibers(dense, 1, [0, 7]), unfold(dense, 1)[[0, 7]])

    def test_arrays_are_contiguous_whatever_the_input_layout(self):
        # Strided views, as fields of a structured array, and lists.
        idx, values = self._entries((6, 5, 4), 40, seed=2)
        block = np.zeros(40, dtype=[("i", np.int64, (3,)), ("v", np.float64)])
        block["i"], block["v"] = idx, values
        for args in ((block["i"], block["v"]), (idx[::-1], values[::-1]),
                     (idx.tolist(), values.tolist()), (np.asfortranarray(idx), values)):
            tensor = SparseTensorCOO((6, 5, 4), *args)
            assert all(a.flags.c_contiguous for a in _coo_arrays(tensor))
            assert np.array_equal(tensor.values, values)
            assert np.array_equal(tensor._linear, np.ravel_multi_index(
                tuple(idx.T), (6, 5, 4), order="F"))

    def test_values_at_linear_in_the_callers_order(self):
        idx, values = self._entries((6, 5, 4), 40, seed=4)
        tensor = SparseTensorCOO((6, 5, 4), idx, values)
        stored = dict(zip(tensor._linear.tolist(), tensor.values.tolist()))
        queries = np.random.default_rng(5).integers(0, 120, size=(7, 30))
        got = tensor.values_at_linear(queries)
        want = [[stored.get(q, 0.0) for q in row] for row in queries.tolist()]
        assert got.shape == queries.shape and np.array_equal(got, want)
        empty = SparseTensorCOO((6, 5, 4), np.empty((0, 3)), [])
        assert np.array_equal(empty.values_at_linear([3, 0]), [0.0, 0.0])


class TestVectorizedSparseFibers:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_per_fiber_loop(self, data):
        dims = tuple(data.draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
        shape = TensorShape(dims)
        total = shape.total
        # Few stored entries leave many fibers empty.
        nnz = data.draw(st.integers(0, min(total, 12)))
        linear = data.draw(st.lists(st.integers(0, total - 1), min_size=nnz,
                                    max_size=nnz, unique=True))
        idx = np.array(np.unravel_index(np.array(linear, dtype=np.int64), dims,
                                        order="F"), dtype=np.int64).T.reshape(-1, len(dims))
        values = np.arange(1.0, nnz + 1.0)
        tensor = SparseTensorCOO(dims, idx, values)
        mode = data.draw(st.integers(0, len(dims) - 1))
        j_n = shape.fiber_count(mode)
        rows = data.draw(st.lists(st.integers(0, j_n - 1), max_size=8))
        got = tensor.fiber_rows(mode, rows)
        assert np.array_equal(got, fiber_rows_loop(tensor, mode, rows))
        assert got.shape == (len(rows), dims[mode])
        # The reads come from the held layout: sorted linear ids, no order
        # for mode 0 and int32 orders for the others.
        assert np.array_equal(tensor._linear, np.sort(linear))
        order, starts = tensor.fiber_index(mode)
        assert (order is None) == (mode == 0) and starts.dtype == np.int32
        # Each stored entry lands at its own fiber row and index.
        want = np.zeros((j_n, dims[mode]))
        for at, v in zip(idx.tolist(), values):
            want[multi_index_to_fiber(shape, mode, at[:mode] + at[mode + 1:]), at[mode]] = v
        assert np.array_equal(got, want[rows])


def _traced_peak(call):
    """(result, tracemalloc peak in bytes) of `call()`."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFiberIndexBuild:
    """The block-wise counting sort gives the one-piece argsort's arrays."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_equals_the_one_piece_argsort(self, data):
        dims = tuple(data.draw(st.lists(st.integers(1, 7), min_size=2, max_size=4)))
        total = math.prod(dims)
        fill = data.draw(st.sampled_from(["empty", "full", "some"]))
        if fill == "some":
            # A few entries leave most fibers empty; many leave some.
            nnz = data.draw(st.integers(1, total))
            linear = np.sort(np.random.default_rng(nnz).choice(total, nnz, replace=False))
        else:
            linear = np.arange(total if fill == "full" else 0)
        tensor = SparseTensorCOO(dims, linear, np.arange(1.0, linear.size + 1.0), linear=True)
        # Small blocks make even these tensors span several of them.
        block = data.draw(st.sampled_from([1, 2, 5, 64, tensors.BLOCK_ENTRIES]))
        with mock.patch.object(tensors, "BLOCK_ENTRIES", block):
            for mode in range(len(dims)):
                (order, starts), (want_order, want_starts) = (
                    tensor.fiber_index(mode), fiber_index_argsort(tensor, mode))
                assert (order is None) == (want_order is None) == (mode == 0)
                for a, b in ((order, want_order), (starts, want_starts)):
                    if a is not None:
                        assert a.dtype == b.dtype == np.int32 and np.array_equal(a, b)
                rows = np.arange(tensor.shape.fiber_count(mode))
                assert np.array_equal(tensor.fiber_rows(mode, rows),
                                      fiber_rows_loop(tensor, mode, rows))

    def test_more_fibers_than_16_bit_keys_count(self):
        # J_1 = 90 000 fibers take int64 keys.
        dims = (300, 2, 300)
        rng = np.random.default_rng(4)
        linear = np.sort(rng.choice(math.prod(dims), 20_000, replace=False))
        tensor = SparseTensorCOO(dims, linear, rng.random(linear.size), linear=True)
        for mode in (1, 2):
            for a, b in zip(tensor.fiber_index(mode), fiber_index_argsort(tensor, mode)):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("mode", [1, 2])
    def test_build_holds_the_index_and_a_few_blocks(self, mode):
        # 100 000 entries in sparse-poisson-sgd's shape. Beside the int32
        # order and starts it keeps, a build holds a few int64 temporaries of
        # a block and of J_n fiber counts. The one-piece argsort holds an
        # int64 key, digit and order of every entry: 2.7x the kept bytes.
        dims = (256, 200, 100)
        rng = np.random.default_rng(5)
        linear = np.sort(rng.choice(math.prod(dims), 100_000, replace=False))
        tensor = SparseTensorCOO(dims, linear, rng.random(linear.size), linear=True)
        (order, starts), peak = _traced_peak(lambda: tensor.fiber_index(mode))
        assert np.array_equal(order, fiber_index_argsort(tensor, mode)[0])
        block = 8 * tensors.BLOCK_ENTRIES
        counts = 8 * tensor.shape.fiber_count(mode)
        assert peak <= order.nbytes + starts.nbytes + 6 * block + 3 * counts


class TestRowRangeGuards:
    @pytest.mark.parametrize("bad", [[-1], [12], [0, 12]])
    def test_public_fiber_reads_reject_rows_out_of_range(self, bad):
        dims = (2, 3, 4)            # J_1 = 8, J_0 = 12
        factors = [np.ones((d, 2)) for d in dims]
        dense = DenseTensor(np.ones(dims))
        sparse = SparseTensorCOO(dims, [[0, 0, 0]], [1.0])
        with pytest.raises(IndexError):
            khatri_rao_rows(factors, 0, bad)
        for tensor in (dense, sparse):
            with pytest.raises(IndexError):
                data_fibers(tensor, 0, bad)
        with pytest.raises(IndexError):
            sparse.fiber_rows(0, bad)

    @pytest.mark.parametrize("bad", [[0.9, 1.7], [True], np.array([1.0]),
                                     np.array([1], dtype=object)])
    def test_public_fiber_reads_reject_non_integer_rows(self, bad):
        # Casting would read rows 0 and 1 for [0.9, 1.7] and row 1 for [True].
        dims = (2, 3, 4)
        factors = [np.ones((d, 2)) for d in dims]
        with pytest.raises(IndexError, match="integers"):
            khatri_rao_rows(factors, 0, bad)
        for tensor in (DenseTensor(np.ones(dims)), SparseTensorCOO(dims, [[0, 0, 0]], [1.0])):
            with pytest.raises(IndexError, match="integers"):
                data_fibers(tensor, 0, bad)

    @pytest.mark.parametrize("rows", [[1, 0], np.array([1, 0], dtype=np.uint8),
                                      np.array([1, 0], dtype=np.int32), []])
    def test_integer_rows_of_any_width_are_taken(self, rows):
        dims = (2, 3, 4)
        values = np.arange(24.0).reshape(dims)
        want = data_fibers(DenseTensor(values), 0, np.array(rows, dtype=np.int64))
        assert np.array_equal(data_fibers(DenseTensor(values), 0, rows), want)

    @staticmethod
    def _one_piece_check_rows(dims, mode, rows):
        """The row guard as two reductions over the int64 rows (min < 0,
        max >= J_mode): the oracle for the one-argmax guard."""
        if not 0 <= mode < len(dims):
            raise IndexError(f"mode {mode} out of range for order-{len(dims)} tensor")
        rows = np.atleast_1d(np.asarray(rows))
        if rows.size and rows.dtype.kind not in "iu":
            raise IndexError(f"fiber rows must be integers, got {rows.dtype}")
        rows = rows.astype(np.int64, copy=False)
        j_n = math.prod(dims) // dims[mode]
        if rows.size and (rows.min() < 0 or rows.max() >= j_n):
            raise IndexError(f"fiber row out of range [0, {j_n}) for mode {mode}")
        return rows

    @pytest.mark.parametrize("rows", [
        [-1], [0, -1], [12], [11, 12], np.array([2 ** 64 - 1], dtype=np.uint64),
        np.array([3, 2 ** 63 + 5], dtype=np.uint64), np.array([], dtype=np.int64), [],
        np.int64(-1), np.int64(11), [0, 11], np.array([[0, 5], [11, 2]]),
        np.arange(24)[::-2], [13, -1], [-(2 ** 62), 5, 40], np.array([-1, 3], dtype=np.int32),
        np.array([200, 3], dtype=np.uint8)], ids=repr)
    def test_row_guard_matches_the_two_reduction_check(self, rows):
        # A negative row, one at J_0 = 12, a uint64 that wraps negative as
        # int64, no rows, a 0-d row, in-range rows (2-d and strided too),
        # rows too large and negative at once, and narrower integer types.
        dims = (2, 3, 4)
        try:
            want = self._one_piece_check_rows(dims, 0, rows)
        except IndexError as err:
            with pytest.raises(IndexError) as got:
                tensors._check_rows(dims, 0, rows)
            assert str(got.value) == str(err)
        else:
            got = tensors._check_rows(dims, 0, rows)
            assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_mode_out_of_range(self):
        with pytest.raises(IndexError):
            khatri_rao_rows([np.ones((2, 1)), np.ones((3, 1))], 2, [0])
        with pytest.raises(IndexError):
            data_fibers(DenseTensor(np.ones((2, 3))), -1, [0])


class TestFiberPlan:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_plan_reads_equal_public_reads(self, sparse):
        rng = np.random.default_rng(5)
        dims = (4, 3, 5, 2)
        values = rng.random(dims) * (rng.random(dims) < 0.5)
        dense = DenseTensor(values)
        idx = np.argwhere(values != 0)
        tensor = SparseTensorCOO(dims, idx, values[tuple(idx.T)]) if sparse else dense
        factors = [rng.random((d, 3)) for d in dims]
        for mode in range(len(dims)):
            plan = FiberPlan(tensor, mode)
            rows = np.sort(rng.choice(tensor.shape.fiber_count(mode), 5, replace=False))
            digits = plan.digits(rows)
            assert np.array_equal(plan.khatri_rao(factors, digits),
                                  khatri_rao_rows(factors, mode, rows))

    def test_dense_plan_is_a_view(self):
        tensor = DenseTensor(np.arange(24.0).reshape(2, 3, 4))
        assert np.shares_memory(FiberPlan(tensor, 1).moved, tensor.values)

    def test_dense_reads_build_one_plan_per_mode(self, monkeypatch):
        built = []

        class Counted(FiberPlan):
            def __init__(self, tensor, mode):
                built.append(mode)
                super().__init__(tensor, mode)

        monkeypatch.setattr(tensors, "FiberPlan", Counted)
        rng = np.random.default_rng(6)
        tensor = DenseTensor(rng.random((4, 3, 5)))
        for _ in range(3):
            for mode in range(3):
                rows = rng.choice(tensor.shape.fiber_count(mode), 4)
                assert np.array_equal(data_fibers(tensor, mode, rows),
                                      unfold(tensor, mode)[rows])
        assert sorted(built) == [0, 1, 2]
        # The kept plans hold views of the values, not the tensor: dropping
        # the last reference frees it at once, with no cycle left to collect.
        gone = weakref.ref(tensor)
        del tensor
        assert gone() is None
