"""Gradient estimators: exactness, unbiasedness, SAGA state, diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from gcpd import estimators
from gcpd.errors import ConfigError, LossDomainError, StateError
from gcpd.estimators import (ESTIMATOR_KINDS, EstimatorState, batch_gradient,
                             checked_gradient, estimate_gradient, full_gradient,
                             vr_diagnostics)
from gcpd.losses import KINDS, LossSpec, loss_deriv, objective
from gcpd.tensors import (DenseTensor, KruskalModel, SparseTensorCOO, data_fibers,
                          khatri_rao_rows)
from gcpd.verify import fiber_sum_gradient, unfold


def make_instance(kind="poisson-identity", dims=(4, 3, 4), rank=2, seed=0):
    rng = np.random.default_rng(seed)
    model = KruskalModel([0.2 + 0.8 * rng.random((d, rank)) for d in dims])
    m = model.to_dense().values
    if kind == "gaussian":
        x = m + 0.2 * rng.standard_normal(m.shape)
    elif kind == "gamma":
        x = rng.gamma(1.0, m)
    elif kind == "poisson-identity":
        x = rng.poisson(m).astype(float)
    else:
        x = (rng.random(m.shape) < m / (1 + m)).astype(float)
    return DenseTensor(x), model, LossSpec(kind)


def fd_gradient(spec, tensor, model, mode, rel_step=1e-6):
    a = model.factors[mode]
    g = np.zeros_like(a)
    for i in range(a.shape[0]):
        for r in range(a.shape[1]):
            h = rel_step * max(1.0, abs(a[i, r]))
            up, down = a.copy(), a.copy()
            up[i, r] += h
            down[i, r] -= h
            g[i, r] = (objective(spec, tensor, model.replace(mode, up)).value
                       - objective(spec, tensor, model.replace(mode, down)).value) / (2 * h)
    return g


class TestFullGradient:
    def test_gaussian_exact_fit_is_zero(self):
        rng = np.random.default_rng(1)
        model = KruskalModel([rng.random((3, 2)) for _ in range(3)])
        tensor = DenseTensor(model.to_dense().values)
        for mode in range(3):
            g = full_gradient(tensor, model.factors, LossSpec("gaussian"), mode)
            assert np.max(np.abs(g)) <= 1e-14

    def test_matches_finite_differences(self):
        tensor, model, spec = make_instance("poisson-identity")
        for mode in range(3):
            g = full_gradient(tensor, model.factors, spec, mode)
            fd = fd_gradient(spec, tensor, model, mode)
            scale = max(np.max(np.abs(g)), 1e-6)
            assert np.max(np.abs(fd - g)) / scale <= 1e-5

    def test_equals_sgd_with_all_fibers(self):
        tensor, model, spec = make_instance("gamma", seed=2)
        for mode in range(3):
            j_n = tensor.shape.fiber_count(mode)
            state = EstimatorState("sgd", tensor, model, spec, batch=j_n)
            full = full_gradient(tensor, model.factors, spec, mode)
            est = checked_gradient(state, model.factors, mode, np.arange(j_n))
            assert np.max(np.abs(est - full)) <= 1e-12


def as_sparse(tensor):
    nz = np.argwhere(tensor.values)
    return SparseTensorCOO(tensor.dims, nz, tensor.values[tuple(nz.T)])


def dense_table_rows(d, kr):
    """Stored SAGA gradients g_j = d_j (x) h_j / I_n of the given fibers, as a
    dense (B, I_n, R) stack."""
    out = np.einsum("bi,br->bir", d, kr)
    out /= d.shape[1]
    return out


def table_stack(state, mode):
    """A SAGA state's stored gradients for `mode`, rebuilt as a dense stack
    from the stored factors: per fiber, the row of D, then the row of H."""
    table = state.tables[mode]
    i_n = state.tensor.shape.dims[mode]
    assert table.shape == (state.fiber_counts[mode], i_n + state.rank)
    return dense_table_rows(table[:, :i_n], table[:, i_n:])


# At blocks of BLOCK_ENTRIES entries these dims span several row blocks in
# every mode, and the modes end in remainder blocks of 3, 1 and 3 rows.
BLOCK_ENTRIES = 1 << 13
BLOCKED_DIMS = (41, 30, 20)


def block_sum_gradient(spec, dense, factors, mode, rows):
    """(1/B) sum_j g_j over `rows`, written out one row block of
    BLOCK_ENTRIES // I_n rows at a time: each block's Khatri-Rao rows,
    derivatives and product D_b^T H_b on their own, the products added in
    block order. Also returns the blocks' D_b and H_b, stacked."""
    x = unfold(dense, mode)
    a = factors[mode]
    step = BLOCK_ENTRIES // a.shape[0]
    total, ds, hs = None, [], []
    for lo in range(0, len(rows), step):
        h = khatri_rao_rows(factors, mode, rows[lo:lo + step])
        d = loss_deriv(spec, x[rows[lo:lo + step]], h @ a.T)
        total = d.T @ h if total is None else total + d.T @ h
        ds.append(d)
        hs.append(h)
    return total / (a.shape[0] * len(rows)), np.concatenate(ds), np.concatenate(hs)


class TestBlockedPass:
    """A gradient pass does its work in row blocks and sums the blocks'
    products in order: it must equal that sum written out block by block, bit
    for bit, and the one-piece product to rounding. The block size is set
    here, so these dims keep their remainder blocks whatever the module's own
    size."""

    @pytest.fixture(autouse=True)
    def _block_size(self, monkeypatch):
        monkeypatch.setattr(estimators, "BLOCK_ENTRIES", BLOCK_ENTRIES)

    def test_dims_span_blocks_with_short_remainders(self):
        tails = set()
        for mode, i_n in enumerate(BLOCKED_DIMS):
            step = BLOCK_ENTRIES // i_n
            j_n = np.prod(BLOCKED_DIMS) // i_n
            assert j_n > 2 * step
            tails.add(int(j_n % step))
        assert tails == {1, 3}

    @pytest.mark.parametrize("kind", KINDS)
    def test_equals_block_sum(self, kind):
        dense, model, spec = make_instance(kind, dims=BLOCKED_DIMS, rank=3, seed=21)
        for tensor in (dense, as_sparse(dense)):
            for mode in range(3):
                got = full_gradient(tensor, model.factors, spec, mode)
                rows = np.arange(tensor.shape.fiber_count(mode))
                want, _, _ = block_sum_gradient(spec, dense, model.factors, mode, rows)
                assert np.array_equal(got, want)
                assert close(got, fiber_sum_gradient(spec, tensor, model.factors, mode,
                                                    loss_deriv))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_sampled_rows_over_several_blocks_equal_block_sum(self, sparse):
        dense, model, spec = make_instance("poisson-identity", dims=BLOCKED_DIMS,
                                           rank=3, seed=26)
        tensor = as_sparse(dense) if sparse else dense
        rng = np.random.default_rng(26)
        for mode in range(3):
            j_n = tensor.shape.fiber_count(mode)
            rows = np.sort(rng.choice(j_n, size=j_n // 2, replace=False))
            got = batch_gradient(tensor, model.factors, spec, mode, rows)
            want, _, _ = block_sum_gradient(spec, dense, model.factors, mode, rows)
            assert np.array_equal(got, want)
            kr = khatri_rao_rows(model.factors, mode, rows)
            d = loss_deriv(spec, unfold(dense, mode)[rows], kr @ model.factors[mode].T)
            assert close(got, d.T @ kr / (d.shape[1] * d.shape[0]))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_saga_tables_equal_block_stack(self, sparse):
        dense, model, spec = make_instance("gamma", dims=BLOCKED_DIMS, rank=2, seed=22)
        tensor = as_sparse(dense) if sparse else dense
        state = EstimatorState("saga", tensor, model, spec, batch=4)
        for mode in range(3):
            rows = np.arange(tensor.shape.fiber_count(mode))
            _, d, kr = block_sum_gradient(spec, dense, model.factors, mode, rows)
            stack = np.einsum("bi,br->bir", d, kr) / BLOCKED_DIMS[mode]
            assert np.array_equal(table_stack(state, mode), stack)
            whole = khatri_rao_rows(model.factors, mode, rows)
            one_piece = loss_deriv(spec, unfold(dense, mode), whole @ model.factors[mode].T)
            assert close(table_stack(state, mode), dense_table_rows(one_piece, whole))
            assert np.array_equal(state.table_avg[mode],
                                  full_gradient(tensor, model.factors, spec, mode))

    @pytest.mark.parametrize("kind,faults", [
        ("gamma", {-1: -0.5}),                       # in the last block only
        ("gamma", {0: -0.25, -1: -0.5}),             # the whole pass names the minimum
        ("bernoulli-odds", {-1: 0.5}),
        ("poisson-identity", {0: 0.5, -1: -1.0}),    # negatives before fractions
    ])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_data_faults_in_any_block_name_the_whole_pass_fault(self, kind, faults, sparse):
        dense, model, spec = make_instance(kind, dims=BLOCKED_DIMS, rank=2, seed=23)
        values = dense.values.copy()
        flat = values.reshape(-1)
        for at, value in faults.items():
            flat[at] = value   # entry (0, 0, 0) or (40, 29, 19): first or last fiber
        tensor = as_sparse(DenseTensor(values)) if sparse else DenseTensor(values)
        for mode in range(3):
            self._assert_same_fault(tensor, model.factors, spec, mode)

    def test_negative_factors_name_the_whole_pass_minimum(self):
        tensor, model, spec = make_instance("gamma", dims=BLOCKED_DIMS, rank=2, seed=24)
        factors = [a.copy() for a in model.factors]
        factors[0][3, 0] = -0.5
        factors[1][-1, 1] = -2.0
        for mode in range(3):
            self._assert_same_fault(tensor, factors, spec, mode)

    @staticmethod
    def _assert_same_fault(tensor, factors, spec, mode):
        with pytest.raises(LossDomainError) as whole:
            fiber_sum_gradient(spec, tensor, factors, mode, loss_deriv)
        with pytest.raises(LossDomainError) as blocked:
            full_gradient(tensor, factors, spec, mode)
        assert str(blocked.value) == str(whole.value)



class TestFullPassMemory:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_pass_holds_no_tensor_sized_temporaries(self, sparse):
        # A pass holds one mode's Khatri-Rao rows with their row and digit
        # arrays, 8 J_n (R + N) bytes, and one row block's temporaries: its
        # fibers, M_b and the derivative's intermediates, at most five arrays
        # of a block's entries. Forming the whole M = H A_n^T, as D's
        # storage, also holds a (J_n, I_n) array as large as the tensor.
        rng = np.random.default_rng(25)
        dims, rank = (80, 60, 50), 4
        model = KruskalModel([0.2 + 0.8 * rng.random((d, rank)) for d in dims])
        dense = DenseTensor((rng.random(dims) < 0.3).astype(float))
        tensor = as_sparse(dense) if sparse else dense
        spec = LossSpec("bernoulli-odds")
        blocks = 5 * 8 * estimators.BLOCK_ENTRIES
        for mode in range(3):
            kr_rows = 8 * tensor.shape.fiber_count(mode) * (rank + len(dims))
            full_gradient(tensor, model.factors, spec, mode)
            tracemalloc.start()
            try:
                full_gradient(tensor, model.factors, spec, mode)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= kr_rows + blocks < dense.values.nbytes / 3


class TestSagaTableMemory:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_table_is_stored_factored(self, sparse):
        # Each stored gradient is kept as its two factors, J_n (I_n + R)
        # values per mode, and the build forms no dense table: it peaks below
        # the factored tables plus one mode's (J_n, I_n, R) stack.
        dims, rank = (50, 40, 30), 3
        dense, model, spec = make_instance("poisson-identity", dims=dims, rank=rank,
                                           seed=28)
        tensor = as_sparse(dense) if sparse else dense
        counts = [tensor.shape.fiber_count(n) for n in range(3)]
        factored = 8 * sum(j * (i + rank) for j, i in zip(counts, dims))
        stack = 8 * min(j * i * rank for j, i in zip(counts, dims))
        EstimatorState("saga", tensor, model, spec, batch=6)
        tracemalloc.start()
        try:
            state = EstimatorState("saga", tensor, model, spec, batch=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(table.nbytes for table in state.tables) == factored
        assert peak < factored + stack

    @pytest.mark.parametrize("sparse", [False, True])
    def test_build_writes_each_table_in_place(self, sparse):
        # The checked pass writes each block's D, and H, straight into the
        # table's halves. Beside the tables the build holds one mode's
        # Khatri-Rao rows with their row and digit arrays, 8 J_n (R + N)
        # bytes, and one row block's temporaries, at most four arrays of a
        # block's entries.
        # Joining D and H into the table afterwards also holds the whole D
        # and a second copy of the table: 1.0 MiB above the tables here,
        # against 0.35-0.36 MiB.
        dims, rank = (60, 50, 40), 3
        dense, model, spec = make_instance("poisson-identity", dims=dims, rank=rank,
                                           seed=28)
        tensor = as_sparse(dense) if sparse else dense
        counts = [tensor.shape.fiber_count(n) for n in range(3)]
        factored = 8 * sum(j * (i + rank) for j, i in zip(counts, dims))
        kr_rows = 8 * max(counts) * (rank + len(dims))
        blocks = 4 * 8 * estimators.BLOCK_ENTRIES
        EstimatorState("saga", tensor, model, spec, batch=6)
        tracemalloc.start()
        try:
            state = EstimatorState("saga", tensor, model, spec, batch=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= factored + kr_rows + blocks
        for mode in range(3):
            assert state.table_avg[mode].tobytes() == full_gradient(
                tensor, model.factors, spec, mode).tobytes()


class TestSgd:
    def test_enumeration_mean_equals_full(self):
        for kind in ("gaussian", "gamma", "poisson-identity", "bernoulli-odds"):
            tensor, model, spec = make_instance(kind, dims=(4, 3, 2), seed=3)
            for mode in range(3):
                j_n = tensor.shape.fiber_count(mode)
                full = full_gradient(tensor, model.factors, spec, mode)
                acc = np.zeros_like(full)
                for j in range(j_n):
                    acc += batch_gradient(tensor, model.factors, spec, mode, [j])
                assert np.max(np.abs(acc / j_n - full)) <= 1e-10

    def test_value_independent_of_row_order(self):
        tensor, model, spec = make_instance(seed=4)
        a = batch_gradient(tensor, model.factors, spec, 0, [0, 3, 5])
        state = EstimatorState("sgd", tensor, model, spec, batch=3)
        b = checked_gradient(state, model.factors, 0, np.array([5, 0, 3]))
        assert np.array_equal(a, b)

    def test_empty_fiber_set_rejected(self):
        tensor, model, spec = make_instance(seed=5)
        state = EstimatorState("sgd", tensor, model, spec, batch=3)
        with pytest.raises(ConfigError):
            checked_gradient(state, model.factors, 0, np.array([], dtype=int))
        with pytest.raises(ConfigError):
            batch_gradient(tensor, model.factors, spec, 0, [])


class TestSaga:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_first_call_at_init_point_is_full(self, sparse):
        dense, model, spec = make_instance(seed=6)
        tensor = as_sparse(dense) if sparse else dense
        rows = np.array([0, 4, 7])
        for mode in range(3):
            state = EstimatorState("saga", tensor, model, spec, batch=3)
            full = full_gradient(tensor, model.factors, spec, mode)
            assert np.array_equal(checked_gradient(state, model.factors, mode, rows), full)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_resync_average_is_table_product(self, sparse):
        # After each re-sync the average is D^T H / (I_n J_n) of the stored
        # factors, whatever the running updates before it accumulated.
        dense, model, spec = make_instance("gamma", dims=(6, 5, 7), rank=3, seed=31)
        tensor = as_sparse(dense) if sparse else dense
        state = EstimatorState("saga", tensor, model, spec, batch=4)
        rng = np.random.default_rng(31)
        factors = list(model.factors)
        resyncs = [0] * 3
        for _ in range(120):
            mode = int(rng.integers(3))
            rows = np.sort(rng.choice(state.fiber_counts[mode], size=4, replace=False))
            factors = [np.abs(a * (1 + 0.02 * rng.standard_normal(a.shape))) for a in factors]
            checked_gradient(state, factors, mode, rows)
            if state._since_sync[mode] == 0:
                i_n = tensor.shape.dims[mode]
                table = state.tables[mode]
                want = table[:, :i_n].T @ table[:, i_n:] / (i_n * state.fiber_counts[mode])
                assert np.array_equal(state.table_avg[mode], want)
                resyncs[mode] += 1
        assert min(resyncs) >= 2

    def test_all_fibers_telescopes_to_full(self):
        tensor, model, spec = make_instance(seed=7)
        rng = np.random.default_rng(1)
        state = EstimatorState("saga", tensor, model, spec, batch=10)
        # Move the iterate so the table is stale, then request every fiber.
        moved = [a * (1.0 + 0.1 * rng.random(a.shape)) for a in model.factors]
        for mode in range(3):
            j_n = tensor.shape.fiber_count(mode)
            state.batches[mode] = j_n
            full = full_gradient(tensor, moved, spec, mode)
            est = checked_gradient(state, moved, mode, np.arange(j_n))
            assert np.max(np.abs(est - full)) <= 1e-12

    def test_cover_resyncs_estimator(self):
        tensor, model, spec = make_instance(seed=8)
        state = EstimatorState("saga", tensor, model, spec, batch=4)
        rng = np.random.default_rng(2)
        point = [a * (1.0 + 0.05 * rng.random(a.shape)) for a in model.factors]
        mode = 0
        j_n = tensor.shape.fiber_count(mode)
        # One full cover of the fibers at a fixed point.
        for start in range(0, j_n, 4):
            rows = np.arange(start, min(start + 4, j_n))
            checked_gradient(state, point, mode, rows)
        full = full_gradient(tensor, point, spec, mode)
        est = checked_gradient(state, point, mode, np.arange(4))
        assert np.max(np.abs(est - full)) <= 1e-10

    def test_average_drift_stays_small(self):
        tensor, model, spec = make_instance(seed=9)
        state = EstimatorState("saga", tensor, model, spec, batch=3)
        rng = np.random.default_rng(3)
        point = list(model.factors)
        for k in range(60):
            mode = int(rng.integers(3))
            j_n = tensor.shape.fiber_count(mode)
            rows = np.sort(rng.choice(j_n, size=3, replace=False))
            point = [a * (1 + 0.01 * rng.standard_normal(a.shape)) for a in point]
            point = [np.abs(a) + 1e-6 for a in point]
            checked_gradient(state, point, mode, rows)
            drift = np.max(np.abs(state.table_avg[mode]
                                  - table_stack(state, mode).mean(axis=0)))
            assert drift <= 1e-10

    def test_estimate_and_average_are_c_ordered(self):
        # The prox combines the estimate with a C-ordered anchor.
        tensor, model, spec = make_instance(seed=11, dims=(5, 4, 6))
        state = EstimatorState("saga", tensor, model, spec, batch=3)
        state.sync_every = [2, 2, 2]
        for k in range(4):   # steps before and after a re-sync
            rows = np.array([0, 2, 3]) + k % 2
            est = estimate_gradient(state, model.factors, 1, rows,
                                    data_fibers(tensor, 1, rows))
            assert est.shape == (4, 2) and est.flags.c_contiguous
            assert state.table_avg[1].flags.c_contiguous
        assert all(avg.flags.c_contiguous for avg in state.table_avg)

    def test_rank_change_rejected(self):
        tensor, model, spec = make_instance(seed=10)
        state = EstimatorState("saga", tensor, model, spec, batch=3)
        bad = [np.ones((d, 5)) for d in tensor.shape.dims]
        with pytest.raises(StateError):
            checked_gradient(state, bad, 0, np.array([0]))


def close(got, want):
    """Equal to within 1e-13 of the largest magnitude of `want`: a sum taken
    in another order, such as the dense table's sum of its entries against
    the products of the stored factors, or a one-piece product against a sum
    over row blocks."""
    return np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class DenseTableSaga:
    """SAGA with a dense (J_n, I_n, R) table per mode, written out: the
    table build, the step (replace the touched entries, update the running
    average, re-sync it once per effective pass) and the Gamma diagnostic."""

    def __init__(self, dense, factors, spec, batch):
        self.dense, self.spec = dense, spec
        self.counts = [dense.shape.fiber_count(n) for n in range(3)]
        self.batches = [min(batch, j) for j in self.counts]
        self.sync_every = [math.ceil(j / b) for j, b in zip(self.counts, self.batches)]
        self.since = [0] * 3
        self.resyncs = [0] * 3
        self.tables = [dense_table_rows(*self.terms(factors, n, np.arange(j)))
                       for n, j in enumerate(self.counts)]
        self.avg = [t.mean(axis=0) for t in self.tables]

    def terms(self, factors, mode, rows):
        kr = khatri_rao_rows(factors, mode, rows)
        x = unfold(self.dense, mode)[rows]
        return loss_deriv(self.spec, x, kr @ factors[mode].T), kr

    def step(self, factors, mode, rows):
        current = dense_table_rows(*self.terms(factors, mode, rows))
        change = (current - self.tables[mode][rows]).sum(axis=0)
        estimate = change / rows.size + self.avg[mode]
        self.tables[mode][rows] = current
        self.avg[mode] = self.avg[mode] + change / self.counts[mode]
        self.since[mode] += 1
        if self.since[mode] >= self.sync_every[mode]:
            self.avg[mode] = self.tables[mode].mean(axis=0)
            self.since[mode] = 0
            self.resyncs[mode] += 1
        return estimate

    def gamma(self, factors, mode):
        rows = np.arange(self.counts[mode])
        diff = dense_table_rows(*self.terms(factors, mode, rows)) - self.tables[mode]
        sq = np.sum(diff * diff, axis=(1, 2))
        return float(np.sum(sq) / (self.batches[mode] * self.counts[mode]))


class TestSagaTableReplay:
    """Pins the SAGA table's values, whatever its storage: 200 steps at
    moving points, at least one re-sync per mode, every estimate and running
    average equal to the dense-table formula to within rounding, and the
    diagnostic too."""

    @pytest.mark.parametrize("kind", ["gamma", "gaussian"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_replay_equals_dense_table(self, kind, sparse, monkeypatch):
        # Small row blocks, so the whole-table passes span several with a
        # remainder.
        monkeypatch.setattr(estimators, "BLOCK_ENTRIES", 70)
        dense, model, spec = make_instance(kind, dims=(6, 5, 7), rank=3, seed=27)
        factors = [a.copy() for a in model.factors]
        if kind == "gaussian":
            # A zero column, a negative row and data above the model: stored
            # factors of either sign and whole zero columns.
            factors[0][:, 1] = 0.0
            factors[1][0] = -factors[1][0]
            dense = DenseTensor(dense.values + 10.0)
        tensor = as_sparse(dense) if sparse else dense
        state = EstimatorState("saga", tensor, KruskalModel(factors), spec, batch=4)
        want = DenseTableSaga(dense, factors, spec, batch=4)
        for mode in range(3):
            assert close(state.table_avg[mode], want.avg[mode])
        rng = np.random.default_rng(27)
        for k in range(1, 201):
            mode = int(rng.integers(3))
            rows = np.sort(rng.choice(want.counts[mode], size=4, replace=False))
            factors = [a * (1 + 0.02 * rng.standard_normal(a.shape)) for a in factors]
            if spec.nonnegative:
                factors = [np.abs(a) for a in factors]
            got = checked_gradient(state, factors, mode, rows)
            assert close(got, want.step(factors, mode, rows))
            assert close(state.table_avg[mode], want.avg[mode])
            if k % 50 == 0:
                for n in range(3):
                    gamma = want.gamma(factors, n)
                    assert close(vr_diagnostics(state, factors, n, rows), gamma)
                    assert gamma > 0
        assert min(want.resyncs) >= 1


class TestDispatchAndDeterminism:
    def test_unknown_kind(self):
        tensor, model, spec = make_instance(seed=14)
        with pytest.raises(ConfigError):
            EstimatorState("adam", tensor, model, spec, batch=2)

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_same_seed_bit_identical(self, kind):
        tensor, model, spec = make_instance(seed=15)
        outs = []
        for _ in range(2):
            state = EstimatorState(kind, tensor, model, spec, batch=3)
            rng = np.random.default_rng(7)
            seq = []
            point = list(model.factors)
            for _ in range(20):
                mode = int(rng.integers(3))
                j_n = tensor.shape.fiber_count(mode)
                rows = np.sort(rng.choice(j_n, size=3, replace=False))
                point = [np.abs(a * (1 + 0.02 * rng.standard_normal(a.shape))) + 1e-9
                         for a in point]
                fibers = data_fibers(tensor, mode, rows)
                seq.append(estimate_gradient(state, point, mode, rows, fibers).copy())
            outs.append(seq)
        for a, b in zip(*outs):
            assert np.array_equal(a, b)


class TestDiagnostics:
    def test_full_estimator_zero(self):
        tensor, model, spec = make_instance(seed=16)
        state = EstimatorState("full", tensor, model, spec, batch=2)
        assert vr_diagnostics(state, model.factors, 0, np.array([0])) == 0.0

    def test_saga_fresh_table_zero(self):
        tensor, model, spec = make_instance(seed=17)
        state = EstimatorState("saga", tensor, model, spec, batch=2)
        gamma = vr_diagnostics(state, model.factors, 0, np.array([0]))
        assert gamma == 0.0

    def test_sgd_over_all_fibers_zero(self):
        tensor, model, spec = make_instance(seed=16)
        state = EstimatorState("sgd", tensor, model, spec, batch=2)
        rows = np.arange(tensor.shape.fiber_count(1))
        assert vr_diagnostics(state, model.factors, 1, rows) == 0.0

    def test_sgd_is_the_squared_error_of_the_batch_estimate(self):
        tensor, model, spec = make_instance("gamma", seed=16)
        state = EstimatorState("sgd", tensor, model, spec, batch=2)
        rows = np.array([1, 4])
        err = (batch_gradient(tensor, model.factors, spec, 2, rows)
               - full_gradient(tensor, model.factors, spec, 2))
        gamma = vr_diagnostics(state, model.factors, 2, rows)
        assert gamma > 0
        assert gamma == pytest.approx(float(np.sum(err * err)), rel=1e-12)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_saga_equals_the_dense_stack_after_moves(self, sparse):
        # Gamma = sum_j ||g_j(x) - stored g_j||^2 / (B J_n), with each stored
        # g_j the one of the last point at which fiber j was drawn.
        tensor, model, spec = make_instance("gamma", seed=17)
        if sparse:
            idx = np.argwhere(tensor.values != 0)
            tensor = SparseTensorCOO(tensor.shape.dims, idx, tensor.values[tuple(idx.T)])
        batch, mode = 2, 1
        state = EstimatorState("saga", tensor, model, spec, batch=batch)
        j_n = tensor.shape.fiber_count(mode)
        i_n = tensor.shape.dims[mode]
        stored = [None] * j_n

        def per_fiber(point, j):
            rows = np.array([j])
            d = loss_deriv(spec, data_fibers(tensor, mode, rows),
                           khatri_rao_rows(point, mode, rows) @ point[mode].T)
            return d.T @ khatri_rao_rows(point, mode, rows) / i_n

        for j in range(j_n):
            stored[j] = per_fiber(model.factors, j)
        rng = np.random.default_rng(3)
        point = list(model.factors)
        for _ in range(4):
            point = [a * (1 + 0.05 * rng.random(a.shape)) for a in point]
            rows = np.sort(rng.choice(j_n, size=batch, replace=False))
            checked_gradient(state, point, mode, rows)
            for j in rows:
                stored[j] = per_fiber(point, j)
        moved = [a * 1.03 for a in point]
        want = sum(float(np.sum((per_fiber(moved, j) - stored[j]) ** 2))
                   for j in range(j_n)) / (batch * j_n)
        gamma = vr_diagnostics(state, moved, mode, np.array([0]))
        assert want > 0
        assert gamma == pytest.approx(want, rel=1e-10)

    @staticmethod
    def _moved_saga(sparse):
        """A saga state over several row blocks per pass, some of its table
        entries refreshed at moved points, and a further moved point."""
        tensor, model, spec = make_instance("gamma", dims=(60, 50, 40), rank=3, seed=18)
        if sparse:
            tensor = as_sparse(tensor)
        state = EstimatorState("saga", tensor, model, spec, batch=6)
        rng = np.random.default_rng(4)
        point = list(model.factors)
        for k in range(6):
            point = [a * (1 + 0.05 * rng.random(a.shape)) for a in point]
            rows = rng.choice(state.fiber_counts[k % 3], size=6, replace=False)
            checked_gradient(state, point, k % 3, rows)
        return state, [a * 1.03 for a in point]

    @pytest.mark.parametrize("sparse", [False, True])
    def test_saga_equals_the_whole_table_sum_bit_for_bit(self, sparse):
        # The row terms of a fresh table that one checked pass fills, summed
        # once, as the diagnostic was formed before it went per row block.
        state, moved = self._moved_saga(sparse)
        for mode in range(3):
            table, i_n, j_n = state.tables[mode], state.tensor.shape.dims[mode], \
                state.fiber_counts[mode]
            assert j_n > estimators._block_rows(i_n)
            fresh = np.empty_like(table)
            estimators._read_pass(state.tensor, moved, state.loss, mode, np.arange(j_n), fresh)
            d, h, t, u = fresh[:, :i_n], fresh[:, i_n:], table[:, :i_n], table[:, i_n:]
            a, b = d - t, h - u

            def dot(x, y):
                return np.einsum("ji,ji->j", x, y)

            sq = dot(a, a) * dot(h, h) + 2.0 * dot(a, t) * dot(h, b) + dot(t, t) * dot(b, b)
            want = float(np.sum(sq) / (i_n * i_n * state.batches[mode] * j_n))
            assert want > 0
            assert vr_diagnostics(state, moved, mode, np.array([0])) == want

    @pytest.mark.parametrize("sparse", [False, True])
    def test_saga_holds_no_second_table(self, sparse):
        # The Khatri-Rao rows with their row and digit arrays, 8 J_n (R + N)
        # bytes, the (J_n,) row terms and a row block's temporaries (its
        # fibers, M_b, the derivative's intermediates, and the D_b and
        # D_b - T_b of the block before), at most nine arrays of a block's
        # entries: less than the fresh (J_n, I_n + R) table the whole-table
        # sum fills.
        state, moved = self._moved_saga(sparse)
        blocks = 9 * 8 * estimators.BLOCK_ENTRIES
        for mode in range(3):
            j_n = state.fiber_counts[mode]
            vr_diagnostics(state, moved, mode, np.array([0]))
            tracemalloc.start()
            try:
                vr_diagnostics(state, moved, mode, np.array([0]))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * j_n * (state.rank + 3 + 1) + blocks < state.tables[mode].nbytes

    def test_saga_leaves_the_table_unchanged(self):
        tensor, model, spec = make_instance(seed=17)
        state = EstimatorState("saga", tensor, model, spec, batch=2)
        tables = [t.copy() for t in state.tables]
        averages = [a.copy() for a in state.table_avg]
        moved = [a * 1.1 for a in model.factors]
        for mode in range(3):
            assert vr_diagnostics(state, moved, mode, np.array([0])) > 0
        assert all(np.array_equal(a, b) for a, b in zip(tables, state.tables))
        assert all(np.array_equal(a, b) for a, b in zip(averages, state.table_avg))


class TestPublicEstimatorGuards:
    """`checked_gradient` normalizes the rows and checks every argument
    against the state, for every estimator kind."""

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_rows_out_of_range_rejected(self, kind):
        tensor, model, spec = make_instance(seed=10)
        state = EstimatorState(kind, tensor, model, spec, batch=3)
        j_0 = tensor.shape.fiber_count(0)
        for bad in ([-1, 0], [0, j_0]):
            with pytest.raises(IndexError):
                checked_gradient(state, model.factors, 0, np.array(bad))

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_empty_fiber_set_rejected(self, kind):
        tensor, model, spec = make_instance(seed=10)
        state = EstimatorState(kind, tensor, model, spec, batch=3)
        with pytest.raises(ConfigError):
            checked_gradient(state, model.factors, 0, [])

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    @pytest.mark.parametrize("bad", [[0.5, 1.5], [True, False], np.array([2.0])])
    def test_non_integer_rows_rejected(self, kind, bad):
        # Casting would take [0.5, 1.5] as rows 0 and 1.
        tensor, model, spec = make_instance(seed=10)
        state = EstimatorState(kind, tensor, model, spec, batch=3)
        with pytest.raises(IndexError, match="integers"):
            checked_gradient(state, model.factors, 0, bad)
        with pytest.raises(IndexError, match="integers"):
            batch_gradient(tensor, model.factors, spec, 0, bad)

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_mode_out_of_range_rejected(self, kind):
        tensor, model, spec = make_instance(seed=10)
        state = EstimatorState(kind, tensor, model, spec, batch=3)
        for mode in (-1, 3):
            with pytest.raises(IndexError):
                checked_gradient(state, model.factors, mode, [0])

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_factor_shape_and_rank_checked(self, kind):
        tensor, model, spec = make_instance(seed=10)
        state = EstimatorState(kind, tensor, model, spec, batch=3)
        taller = list(model.factors)
        taller[2] = np.ones((5, 2))
        wider = [np.ones((d, 3)) for d in tensor.shape.dims]
        for bad in (taller, wider, model.factors[:2]):
            with pytest.raises(StateError):
                checked_gradient(state, bad, 0, [0])

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_negative_factors_rejected_under_nonnegative_loss(self, kind):
        tensor, model, spec = make_instance(seed=10)
        state = EstimatorState(kind, tensor, model, spec, batch=3)
        point = [a.copy() for a in model.factors]
        point[1][0, 0] = -0.5
        with pytest.raises(LossDomainError):
            checked_gradient(state, point, 0, np.array([0, 1]))

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_integer_factors_are_taken_as_floats(self, kind):
        tensor, model, spec = make_instance(seed=21)
        whole = [np.rint(1 + 2 * a).astype(np.int64) for a in model.factors]
        estimates = []
        for point in (whole, [a.astype(float) for a in whole]):
            state = EstimatorState(kind, tensor, model, spec, batch=3)
            estimates.append(checked_gradient(state, point, 2, [1, 3]))
        assert estimates[0].dtype == np.float64
        assert np.array_equal(*estimates)

    @pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
    def test_unsorted_duplicate_rows_give_the_sorted_unique_estimate(self, kind):
        tensor, model, spec = make_instance(seed=19)
        moved = [a * 1.1 for a in model.factors]
        estimates = []
        for rows in ([5, 0, 3, 0, 5], [0, 3, 5]):
            state = EstimatorState(kind, tensor, model, spec, batch=3)
            checked_gradient(state, model.factors, 1, [0])
            estimates.append(checked_gradient(state, moved, 1, rows))
        assert np.array_equal(*estimates)
