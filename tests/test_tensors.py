"""Tensor containers, fiber index algebra, and Khatri-Rao row products."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcpd import tensors
from gcpd.errors import DataError
from gcpd.tensors import (DenseTensor, FiberPlan, KruskalModel, SparseTensorCOO,
                          TensorShape, data_fibers, khatri_rao_rows)
from gcpd.verify import (fiber_rows_loop, fiber_to_multi_index, multi_index_to_fiber,
                         unfold)


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
    """Model value at one multi-index, read through the batched `entries`."""
    return float(model.entries(np.asarray([index], dtype=np.int64))[0])


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


def _coo_arrays(tensor):
    """Every array a SparseTensorCOO holds, its fiber index built first."""
    return [tensor.indices, tensor.values, tensor._linear] + [
        a for mode in range(tensor.shape.order) for a in tensor.fiber_index(mode)]


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

    @pytest.mark.parametrize("dims,nnz", [((6, 5, 4), 40), ((4, 3, 5, 2), 70)])
    def test_fiber_index_is_the_stable_sort_of_fiber_ids(self, dims, nnz):
        # The reference: a stable argsort of each entry's fiber id, and each
        # fiber's first slot by binary search.
        idx, values = self._entries(dims, nnz, seed=3)
        tensor = SparseTensorCOO(dims, idx[::-1], values[::-1])
        for mode in range(len(dims)):
            others = [m for m in range(len(dims)) if m != mode]
            fid = np.ravel_multi_index(tuple(tensor.indices[:, others].T),
                                       [dims[m] for m in others], order="F")
            order = np.argsort(fid, kind="stable")
            starts = np.searchsorted(fid[order],
                                     np.arange(tensor.shape.fiber_count(mode) + 1))
            got_order, got_starts = tensor.fiber_index(mode)
            assert np.array_equal(got_order, order)
            assert np.array_equal(got_starts, starts)

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

    @pytest.mark.parametrize("dims,nnz", [((60, 50, 40), 120_000), ((64, 50, 25), 20_000)])
    def test_to_dense_fills_one_array_in_place(self, dims, nnz):
        # Filling in Fortran order and copying to C order peaks at 2.1x.
        idx, values = self._entries(dims, nnz, seed=7)
        tensor = SparseTensorCOO(dims, idx, values)
        tensor.to_dense()
        tracemalloc.start()
        try:
            dense = tensor.to_dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * dense.values.nbytes
        assert dense.values.flags.c_contiguous
        want = np.zeros(math.prod(dims))
        want[tensor._linear] = values
        assert np.array_equal(dense.values, want.reshape(dims, order="F"))

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
