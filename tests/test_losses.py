"""Loss catalog: values, derivatives, domains, and the mean objective."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gcpd import losses
from gcpd.errors import ConfigError, LossDomainError
from gcpd.losses import KINDS, GUARDED_KINDS, LossSpec, loss_deriv, loss_value, objective
from gcpd.tensors import BLOCK_ENTRIES, DenseTensor, KruskalModel, SparseTensorCOO

# In-domain (x, m) sample grids per kind, away from kinks.
DOMAIN_GRIDS = {
    "gaussian": [(x, m) for x in (-1.5, 0.0, 2.0) for m in (-2.0, 0.3, 1.7)],
    "gamma": [(x, m) for x in (0.0, 0.5, 3.0) for m in (0.2, 1.0, 2.5)],
    "poisson-identity": [(x, m) for x in (0.0, 1.0, 4.0) for m in (0.2, 1.0, 3.0)],
    "poisson-log": [(x, m) for x in (0.0, 2.0, 5.0) for m in (-1.0, 0.0, 1.5)],
    "bernoulli-odds": [(x, m) for x in (0.0, 1.0) for m in (0.3, 1.0, 4.0)],
    "bernoulli-logit": [(x, m) for x in (0.0, 1.0) for m in (-3.0, 0.0, 2.0)],
}


class TestLossValues:
    def test_poisson_identity_at_zero_count(self):
        spec = LossSpec("poisson-identity", epsilon=1e-9)
        assert float(loss_value(spec, 0.0, 1.0)) == 1.0

    def test_gaussian_zero_residual(self):
        assert float(loss_value(LossSpec("gaussian"), 1.3, 1.3)) == 0.0

    def test_bernoulli_odds_frozen_value(self):
        spec = LossSpec("bernoulli-odds", epsilon=1e-9)
        assert float(loss_value(spec, 1.0, 1.0)) == pytest.approx(
            0.6931471795599452, abs=1e-15)

    def test_guarded_kinds_finite_at_zero(self):
        for kind in GUARDED_KINDS:
            spec = LossSpec(kind)
            x = 1.0 if kind != "poisson-identity" else 1.0
            assert np.isfinite(loss_value(spec, x, 0.0))
            assert np.isfinite(loss_deriv(spec, x, 0.0))

    def test_logit_value_stable_for_large_m(self):
        spec = LossSpec("bernoulli-logit")
        assert float(loss_value(spec, 1.0, 800.0)) == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(loss_value(spec, 0.0, 800.0))


class TestLossDerivs:
    def test_poisson_identity_matched(self):
        spec = LossSpec("poisson-identity", epsilon=1e-12)
        assert float(loss_deriv(spec, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_zero_at_fit(self):
        assert float(loss_deriv(LossSpec("gaussian"), 0.7, 0.7)) == 0.0

    def test_logit_deriv_at_origin(self):
        assert float(loss_deriv(LossSpec("bernoulli-logit"), 0.0, 0.0)) == 0.5

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_central_difference(self, kind):
        spec = LossSpec(kind)
        for x, m in DOMAIN_GRIDS[kind]:
            h = 1e-6 * max(1.0, abs(m))
            if spec.nonnegative and m - h < 0:
                continue
            fd = (float(loss_value(spec, x, m + h))
                  - float(loss_value(spec, x, m - h))) / (2 * h)
            d = float(loss_deriv(spec, x, m))
            assert fd == pytest.approx(d, rel=1e-6, abs=1e-6)


class TestMinimizerMatchesLink:
    """The loss is an NLL: its minimizer over m maps to the observed mean."""

    @pytest.mark.parametrize("kind,target,expected_m", [
        ("gaussian", 1.3, 1.3),
        ("gamma", 1.7, 1.7),
        ("poisson-identity", 2.0, 2.0),
        ("poisson-log", 2.0, math.log(2.0)),
    ])
    def test_single_observation(self, kind, target, expected_m):
        spec = LossSpec(kind, epsilon=1e-12)
        lo = 0.0 if spec.nonnegative else -5.0
        res = minimize_scalar(lambda m: float(loss_value(spec, target, m)),
                              bounds=(lo + 1e-9, 8.0), method="bounded",
                              options={"xatol": 1e-10})
        assert res.x == pytest.approx(expected_m, abs=1e-6)

    @pytest.mark.parametrize("kind,odds", [("bernoulli-odds", 0.25 / 0.75),
                                           ("bernoulli-logit", math.log(0.25 / 0.75))])
    def test_bernoulli_mixture(self, kind, odds):
        # Mean-p mixture of the two binary observations is minimized at the odds.
        spec = LossSpec(kind, epsilon=1e-12)
        p = 0.25

        def phi(m):
            return (p * float(loss_value(spec, 1.0, m))
                    + (1 - p) * float(loss_value(spec, 0.0, m)))

        lo = 1e-9 if spec.nonnegative else -6.0
        res = minimize_scalar(phi, bounds=(lo, 6.0), method="bounded",
                              options={"xatol": 1e-10})
        assert res.x == pytest.approx(odds, abs=1e-6)


class TestDomains:
    def test_gamma_rejects_negative_data(self):
        with pytest.raises(LossDomainError, match="gamma"):
            loss_value(LossSpec("gamma"), -1.0, 1.0)

    def test_poisson_rejects_fractional_count(self):
        with pytest.raises(LossDomainError, match="poisson-identity"):
            loss_value(LossSpec("poisson-identity"), 1.5, 1.0)

    def test_bernoulli_rejects_nonbinary(self):
        with pytest.raises(LossDomainError, match="bernoulli-odds"):
            loss_deriv(LossSpec("bernoulli-odds"), 2.0, 1.0)

    @staticmethod
    def _reduction_check(kind, x, m):
        """The domain guards as ufunc reductions (`min`, and `any` through the
        `np.any` wrapper): the oracle for the argmin and count_nonzero forms."""
        if kind in ("gamma",):
            if x.size and x.min() < 0:
                raise LossDomainError(f"{kind}: data value {x.min()} < 0")
        if kind in ("poisson-identity", "poisson-log"):
            if x.size and (x.min() < 0 or np.any(x != np.floor(x))):
                bad = x.min() if x.min() < 0 else x[x != np.floor(x)].flat[0]
                raise LossDomainError(f"{kind}: data value {bad} is not a nonnegative integer")
        if kind in ("bernoulli-odds", "bernoulli-logit"):
            if x.size and np.any((x != 0) & (x != 1)):
                bad = x[(x != 0) & (x != 1)].flat[0]
                raise LossDomainError(f"{kind}: data value {bad} is not binary")
        if kind in losses.NONNEGATIVE_KINDS:
            if m.size and m.min() < 0:
                raise LossDomainError(f"{kind}: model value {m.min()} < 0")

    def _assert_as_the_reductions(self, kind, x, m):
        try:
            self._reduction_check(kind, x, m)
        except LossDomainError as want:
            with pytest.raises(LossDomainError) as got:
                loss_deriv(LossSpec(kind), x, m)
            assert str(got.value) == str(want)
        else:
            with np.errstate(all="ignore"):
                assert loss_deriv(LossSpec(kind), x, m).shape == np.broadcast(x, m).shape

    @staticmethod
    def _placed(base, bad, where, earlier):
        """`bad` alone, as a 0-d array, first in `base`, or last in it after
        the `earlier` value."""
        if where == "alone":
            return np.array([bad])
        if where == "0-d":
            return np.array(bad)
        out = base.copy()
        if where == "first":
            out[0, 0] = bad
        else:
            out[-1, -1] = bad
            out[0, 1] = earlier
        return out

    @pytest.mark.parametrize("kind, bad", [
        ("gamma", -1.0), ("gamma", np.nan), ("gamma", -0.0), ("gamma", -np.inf),
        ("poisson-identity", -1.0), ("poisson-identity", 0.5), ("poisson-identity", np.nan),
        ("poisson-identity", -np.inf), ("poisson-identity", -2.5),
        ("poisson-identity", -0.0), ("poisson-identity", np.inf),
        ("poisson-log", -1.0), ("poisson-log", 0.5), ("poisson-log", np.nan),
        ("bernoulli-odds", 2.0), ("bernoulli-odds", 0.5), ("bernoulli-odds", np.nan),
        ("bernoulli-logit", 2.0), ("bernoulli-logit", 0.5), ("bernoulli-logit", np.nan),
        ("bernoulli-logit", -0.0)])
    @pytest.mark.parametrize("where", ["alone", "0-d", "first", "last"])
    def test_data_guards_match_the_reduction_form(self, kind, bad, where):
        # In "last" an earlier entry is off the domain too, unless bad is
        # NaN or -0.0, so which fault is named shows.
        earlier = {"gamma": -3.0, "poisson-identity": 0.25, "poisson-log": 0.25}.get(kind, 3.0)
        if np.isnan(bad) or bad == 0:
            earlier = 1.0
        x = self._placed(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]), bad, where, earlier)
        self._assert_as_the_reductions(kind, x, np.full(x.shape, 0.5))

    @pytest.mark.parametrize("kind", losses.NONNEGATIVE_KINDS)
    @pytest.mark.parametrize("bad", [-1.0, np.nan, -0.0, -np.inf, 0.0])
    @pytest.mark.parametrize("where", ["alone", "0-d", "first", "last"])
    def test_model_guard_matches_the_reduction_form(self, kind, bad, where):
        m = self._placed(np.full((2, 3), 0.5), bad, where, -2.0)
        self._assert_as_the_reductions(kind, np.ones(m.shape), m)

    @pytest.mark.parametrize("kind", ["poisson-identity", "poisson-log"])
    @pytest.mark.parametrize("values", [
        [-0.0], [np.inf], [0.0, 3.0, 2.0 ** 60], [], [[-0.0, 7.0], [np.inf, 1.0]]], ids=repr)
    def test_count_guard_passes_what_the_reduction_form_passes(self, kind, values):
        # -0.0 and +inf are counts to both forms: -0.0 < 0 and inf != floor(inf) are false.
        x = np.array(values)
        self._reduction_check(kind, x, np.full(x.shape, 0.5))
        self._assert_as_the_reductions(kind, x, np.full(x.shape, 0.5))

    def test_nonnegative_kinds_reject_negative_model(self):
        with pytest.raises(LossDomainError, match="model value"):
            loss_value(LossSpec("gamma"), 1.0, -0.5)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            LossSpec("hinge")

    def test_guarded_kind_requires_epsilon(self):
        with pytest.raises(ConfigError):
            LossSpec("gamma", epsilon=0.0)


class TestObjective:
    def test_gaussian_self_fit_is_zero(self):
        rng = np.random.default_rng(0)
        model = KruskalModel([rng.random((2, 2)) for _ in range(3)])
        tensor = DenseTensor(model.to_dense().values)
        out = objective(LossSpec("gaussian"), tensor, model)
        assert out.value == 0.0
        assert out.exact and out.n_terms == 8

    def test_poisson_all_ones_hand_value(self):
        model = KruskalModel([np.ones((2, 1)) for _ in range(3)])
        tensor = DenseTensor(np.ones((2, 2, 2)))
        out = objective(LossSpec("poisson-identity", epsilon=1e-9), tensor, model)
        assert out.value == pytest.approx(0.9999999989999999, abs=1e-12)

    def test_full_sample_equals_exact(self):
        rng = np.random.default_rng(1)
        model = KruskalModel([rng.random((3, 2)) + 0.1 for _ in range(3)])
        tensor = DenseTensor(rng.random((3, 3, 3)))
        spec = LossSpec("gaussian")
        exact = objective(spec, tensor, model)
        sampled = objective(spec, tensor, model, sample=27,
                            rng=np.random.default_rng(2))
        assert sampled.exact
        assert sampled.value == exact.value

    def test_sampled_is_flagged(self):
        rng = np.random.default_rng(3)
        model = KruskalModel([rng.random((3, 2)) + 0.1 for _ in range(3)])
        tensor = DenseTensor(rng.random((3, 3, 3)))
        out = objective(LossSpec("gaussian"), tensor, model, sample=9,
                        rng=np.random.default_rng(4))
        assert not out.exact and out.n_terms == 9

    def test_shape_mismatch(self):
        model = KruskalModel([np.ones((2, 1)) for _ in range(3)])
        tensor = DenseTensor(np.ones((2, 2, 3)))
        with pytest.raises(LossDomainError):
            objective(LossSpec("gaussian"), tensor, model)


def _in_domain(kind, dims, seed, rank=3):
    """A model and data tensor inside `kind`'s domains."""
    rng = np.random.default_rng(seed)
    model = KruskalModel([0.1 + rng.random((d, rank)) for d in dims])
    if kind in ("bernoulli-odds", "bernoulli-logit"):
        values = (rng.random(dims) < 0.5).astype(float)
    elif kind.startswith("poisson"):
        values = rng.poisson(1.5, size=dims).astype(float)
    elif kind == "gamma":
        values = rng.gamma(1.0, 1.0, size=dims)
    else:
        values = rng.standard_normal(dims)
    return DenseTensor(values), model


def _whole(spec, tensor, model):
    """The exact objective as one mean over every entry."""
    return float(np.mean(loss_value(spec, tensor.values, model.to_dense().values)))


# At the default block size a mode-0 slice of these dims holds 600 entries,
# so a block is 13 slices and mode 0 ends in a 2-slice remainder block.
MULTI_BLOCK_DIMS = (41, 30, 20)


class TestBlockedObjective:
    """The exact objective walks mode 0 in row blocks of the checked passes'
    size and must agree with one mean over the whole tensor."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """The entry counts of the `loss_value` calls the objective makes."""
        sizes = []
        real = losses.loss_value
        monkeypatch.setattr(losses, "loss_value",
                            lambda spec, x, m: sizes.append(np.size(m)) or real(spec, x, m))
        return sizes

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dims", [(6, 5, 4), (1, 90, 91), (9, 7), (3, 4, 2, 5)])
    def test_one_block_equals_the_whole_mean(self, kind, dims, blocks):
        tensor, model = _in_domain(kind, dims, seed=5)
        spec = LossSpec(kind)
        got = objective(spec, tensor, model).value
        assert blocks == [tensor.shape.total]
        assert got == _whole(spec, tensor, model)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("entries", [1, 700, BLOCK_ENTRIES])
    def test_many_blocks_agree_with_the_whole_mean(self, kind, entries, blocks, monkeypatch):
        monkeypatch.setattr(losses, "BLOCK_ENTRIES", entries)
        tensor, model = _in_domain(kind, MULTI_BLOCK_DIMS, seed=6)
        spec = LossSpec(kind)
        got = objective(spec, tensor, model)
        slice_entries = tensor.shape.total // MULTI_BLOCK_DIMS[0]
        step = max(1, entries // slice_entries)
        assert blocks == [min(step, MULTI_BLOCK_DIMS[0] - lo) * slice_entries
                          for lo in range(0, MULTI_BLOCK_DIMS[0], step)]
        assert len(blocks) > 1
        want = _whole(spec, tensor, model)
        assert got.exact and got.n_terms == tensor.shape.total
        assert abs(got.value - want) <= 1e-14 * abs(want)

    def test_sparse_tensor_at_full_sample_equals_dense(self):
        tensor, model = _in_domain("poisson-identity", MULTI_BLOCK_DIMS, seed=7)
        idx = np.argwhere(tensor.values != 0)
        sparse = SparseTensorCOO(tensor.shape, idx, tensor.values[tuple(idx.T)])
        spec = LossSpec("poisson-identity")
        assert objective(spec, sparse, model).value == objective(spec, tensor, model).value

    def _faulty(self):
        """A gamma instance of several blocks with a model fault in the first
        block and data faults in the second and last (the later one larger)."""
        tensor, model = _in_domain("gamma", MULTI_BLOCK_DIMS, seed=8)
        factors = [a.copy() for a in model.factors]
        factors[0][1] = -factors[0][1]
        values = tensor.values.copy()
        values[20, 3, 4] = -0.5
        values[40, 0, 0] = -2.0
        return LossSpec("gamma"), values, KruskalModel(factors)

    def _whole_error(self, spec, values, model):
        with pytest.raises(LossDomainError) as err:
            loss_value(spec, values, model.to_dense().values)
        return str(err.value)

    def test_data_fault_of_a_later_block_is_named_first(self):
        spec, values, model = self._faulty()
        want = self._whole_error(spec, values, model)
        assert want == "gamma: data value -2.0 < 0"
        with pytest.raises(LossDomainError) as err:
            objective(spec, DenseTensor(values), model)
        assert str(err.value) == want

    def test_model_fault_names_the_smallest_value_over_every_block(self):
        spec, values, model = self._faulty()
        values = np.abs(values)
        factors = [a.copy() for a in model.factors]
        factors[0][30] = -3.0 * factors[0][30]   # more negative values, in the third block
        model = KruskalModel(factors)
        lowest = model.to_dense().values.min()
        assert model.slab(30, 31).min() == lowest
        want = self._whole_error(spec, values, model)
        assert want == f"gamma: model value {lowest} < 0"
        with pytest.raises(LossDomainError) as err:
            objective(spec, DenseTensor(values), model)
        assert str(err.value) == want

    def test_peak_memory_is_a_small_share_of_the_tensor(self):
        # dense-bernoulli-full's shape; one evaluation over the whole model
        # and its loss temporaries peaks at about 4x the tensor's bytes.
        tensor, model = _in_domain("bernoulli-odds", (80, 60, 50), seed=9)
        spec = LossSpec("bernoulli-odds")
        objective(spec, tensor, model)
        tracemalloc.start()
        try:
            objective(spec, tensor, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tensor.values.nbytes / 4


def _traced_peak(call):
    """(result, tracemalloc peak in bytes) of `call()`."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _whole_error(spec, x, m):
    """The message of one domain check over all of `x` and `m`."""
    with pytest.raises(LossDomainError) as err:
        loss_value(spec, x, m)
    return str(err.value)


# Two data faults per kind with a data domain, a milder one and a worse one:
# a check of the first block alone would name the milder, a check over all
# values names the worse (or the first in C order, for the binary kinds).
DATA_FAULTS = {
    "gamma": (-0.5, -2.0),
    "poisson-identity": (0.5, -3.0),
    "poisson-log": (2.5, -1.0),
    "bernoulli-odds": (0.5, 2.0),
    "bernoulli-logit": (-1.0, 3.0),
}

# A block of int64 values, the unit of the memory bounds below.
BLOCK_BYTES = 8 * BLOCK_ENTRIES


def _plant(values, kind, where, first, last):
    """`values` with `kind`'s faults at flat positions `first` and `last`:
    the worse one at the first, the last or both (the milder one first)."""
    mild, worse = DATA_FAULTS[kind]
    flat = values.reshape(-1)
    if where == "both":
        flat[first], flat[last] = mild, worse
    else:
        flat[first if where == "first" else last] = worse
    return values


class TestBlockedDataCheck:
    """`check_data_domain` walks the values a block at a time and names a
    fault as one check over all of them does."""

    @pytest.mark.parametrize("kind", list(DATA_FAULTS))
    @pytest.mark.parametrize("where", ["first", "last", "both"])
    def test_names_the_whole_array_fault(self, kind, where):
        # 3 blocks and a remainder, as a 3-way tensor.
        values = _plant(np.ones((8, 7, 439)), kind, where, 3, -1)
        assert values.size > 3 * BLOCK_ENTRIES
        spec = LossSpec(kind)
        want = _whole_error(spec, values, 1.0)
        with pytest.raises(LossDomainError) as err:
            losses.check_data_domain(spec, values)
        assert str(err.value) == want
        if where == "both" and kind in ("gamma", "poisson-identity"):
            assert str(DATA_FAULTS[kind][1]) in want

    def test_in_domain_data_passes(self):
        for kind, values in (("gaussian", np.full(50_000, -7.5)),
                             ("poisson-log", np.arange(50_000.0)),
                             ("bernoulli-logit", np.arange(50_000.0) % 2)):
            losses.check_data_domain(LossSpec(kind), values)

    @pytest.mark.parametrize("kind", KINDS)
    def test_holds_at_most_two_blocks(self, kind):
        # 100 000 values; a check over all of them in one piece holds a
        # floor() copy and a bool mask of every value (14x a block).
        values = np.random.default_rng(2).poisson(1.0, 100_000).astype(float)
        if kind.startswith("bernoulli"):
            values = np.minimum(values, 1.0)
        spec = LossSpec(kind)
        losses.check_data_domain(spec, values)
        _, peak = _traced_peak(lambda: losses.check_data_domain(spec, values))
        assert peak <= 2 * BLOCK_BYTES


def _one_piece_sample(spec, tensor, model, sample, seed):
    """The sampled objective's ids, data and model values, read in one
    piece: the data from a mode-0-fastest copy of the dense values, the
    model values as a product of the factors' rows from ones, summed over r."""
    lin = np.random.default_rng(seed).choice(tensor.shape.total, size=sample, replace=False)
    dense = tensor.to_dense() if isinstance(tensor, SparseTensorCOO) else tensor
    x = dense.values.ravel(order="F")[lin]
    prod = np.ones((sample, model.rank))
    for a, i in zip(model.factors, np.unravel_index(lin, tensor.shape.dims, order="F")):
        prod *= a[i, :]
    return lin, x, prod.sum(axis=1)


def _as_sparse(tensor):
    idx = np.argwhere(tensor.values != 0)
    return SparseTensorCOO(tensor.shape, idx, tensor.values[tuple(idx.T)])


class TestSampledObjective:
    """The sampled objective fills its terms a block of samples at a time
    and takes one mean: the value of one mean over all samples, bit for bit."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("sample", [1, BLOCK_ENTRIES, 2 * BLOCK_ENTRIES + 3, 24_599])
    def test_blocks_equal_one_mean_bit_for_bit(self, kind, sparse, sample, monkeypatch):
        tensor, model = _in_domain(kind, MULTI_BLOCK_DIMS, seed=10)
        if sparse:
            tensor = _as_sparse(tensor)
        spec = LossSpec(kind)
        _, x, m = _one_piece_sample(spec, tensor, model, sample, seed=11)
        sizes = []
        real = losses.loss_value
        monkeypatch.setattr(losses, "loss_value",
                            lambda spec, x, m: sizes.append(np.size(m)) or real(spec, x, m))
        got = objective(spec, tensor, model, sample=sample, rng=np.random.default_rng(11))
        assert sizes == [min(BLOCK_ENTRIES, sample - lo)
                         for lo in range(0, sample, BLOCK_ENTRIES)]
        assert not got.exact and got.n_terms == sample
        assert got.value == float(np.mean(real(spec, x, m)))

    @pytest.mark.parametrize("kind", list(DATA_FAULTS))
    @pytest.mark.parametrize("where", ["first", "last", "both"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_data_fault_is_named_as_one_check_names_it(self, kind, where, sparse):
        # Faults at the first sample (first block) and the last (last block).
        tensor, model = _in_domain(kind, MULTI_BLOCK_DIMS, seed=12)
        spec, sample = LossSpec(kind), 2 * BLOCK_ENTRIES + 3
        lin, _, _ = _one_piece_sample(spec, tensor, model, sample, seed=13)
        values = tensor.values.copy()
        ids = np.ravel_multi_index(np.unravel_index(lin, values.shape, order="F"),
                                   values.shape)
        tensor = DenseTensor(_plant(values, kind, where, ids[0], ids[-1]))
        if sparse:
            tensor = _as_sparse(tensor)
        _, x, m = _one_piece_sample(spec, tensor, model, sample, seed=13)
        want = _whole_error(spec, x, m)
        with pytest.raises(LossDomainError) as err:
            objective(spec, tensor, model, sample=sample, rng=np.random.default_rng(13))
        assert str(err.value) == want

    @pytest.mark.parametrize("sparse", [False, True])
    def test_data_fault_of_a_later_block_is_named_before_a_model_fault(self, sparse):
        tensor, model = _in_domain("gamma", MULTI_BLOCK_DIMS, seed=14)
        spec, sample = LossSpec("gamma"), 2 * BLOCK_ENTRIES + 3
        lin, _, _ = _one_piece_sample(spec, tensor, model, sample, seed=15)
        first, last = (np.unravel_index(i, MULTI_BLOCK_DIMS, order="F") for i in lin[[0, -1]])
        factors = [a.copy() for a in model.factors]
        factors[0][first[0]] *= -1.0   # the model is negative at the first sample
        model = KruskalModel(factors)
        values = tensor.values.copy()
        values[last] = -1.0
        tensor = _as_sparse(DenseTensor(values)) if sparse else DenseTensor(values)
        _, x, m = _one_piece_sample(spec, tensor, model, sample, seed=15)
        want = _whole_error(spec, x, m)
        assert want == "gamma: data value -1.0 < 0"
        with pytest.raises(LossDomainError) as err:
            objective(spec, tensor, model, sample=sample, rng=np.random.default_rng(15))
        assert str(err.value) == want

    @pytest.mark.parametrize("sparse", [False, True])
    def test_holds_its_samples_and_a_few_blocks(self, sparse):
        # A block's temporaries are about 2 (N + R) int64 arrays of a block.
        # Read in one piece, a sample's model values hold ~200 bytes per
        # sample, and a dense tensor's data a mode-0-fastest copy of it.
        if sparse:
            dims, sample = (256, 200, 100), 60_000
            rng = np.random.default_rng(16)
            linear = np.sort(rng.choice(math.prod(dims), 100_000, replace=False))
            tensor = SparseTensorCOO(dims, linear, rng.poisson(2.0, linear.size) + 1.0,
                                     linear=True)
        else:
            dims, sample = (100, 80, 60), 9500
            tensor = DenseTensor(np.random.default_rng(16).poisson(2.0, dims) + 1.0)
        model = KruskalModel([0.1 + np.random.default_rng(17).random((d, 3)) for d in dims])
        spec = LossSpec("poisson-identity")

        def evaluate():
            return objective(spec, tensor, model, sample=sample, rng=np.random.default_rng(18))

        def draw():
            return np.random.default_rng(18).choice(math.prod(dims), size=sample, replace=False)

        evaluate()
        _, drawn = _traced_peak(draw)
        _, peak = _traced_peak(evaluate)
        assert peak <= drawn + 8 * sample + 2 * (len(dims) + model.rank) * BLOCK_BYTES
