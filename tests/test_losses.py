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
