"""Factor MSE matching, the objective trace value, and the Lyapunov record."""

import numpy as np
import pytest

from gcpd.bregman import GeneratorSpec, bregman_div
from gcpd.errors import ConfigError, DataError
from gcpd.losses import LossSpec, objective
from gcpd.metrics import _cost_matrix, lyapunov, match_columns, model_mse, mse
from gcpd.tensors import DenseTensor, KruskalModel
from gcpd.verify import exhaustive_match


class TestMse:
    def test_identical_factors(self):
        rng = np.random.default_rng(0)
        a = rng.random((5, 3)) + 0.1
        assert mse(a, a).value == 0.0

    def test_permuted_and_rescaled_is_zero(self):
        rng = np.random.default_rng(1)
        truth = rng.random((6, 4)) + 0.1
        est = truth[:, [2, 0, 3, 1]] * np.array([4.0, 0.5, 2.0, 8.0])
        report = mse(est, truth)
        # Power-of-two scales make the normalization exact in floating point.
        assert report.value == 0.0
        assert report.permutation == (2, 0, 3, 1)

    def test_rank_one_orthogonal_frozen(self):
        report = mse(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
        assert report.value == 2.0

    def test_scale_invariance_general(self):
        rng = np.random.default_rng(2)
        truth = rng.random((5, 3)) + 0.1
        est = rng.random((5, 3)) + 0.1
        base = mse(est, truth).value
        scaled = mse(est * np.array([1.7, 0.3, 9.1]), truth).value
        assert scaled == pytest.approx(base, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = rng.random((5, 3)) + 0.1
        b = rng.random((5, 3)) + 0.1
        assert mse(a, b).value == pytest.approx(mse(b, a).value, rel=1e-12)

    def test_zero_column_rejected(self):
        a = np.ones((3, 2))
        a[:, 1] = 0.0
        with pytest.raises(DataError, match="zero column"):
            mse(a, np.ones((3, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            mse(np.ones((3, 2)), np.ones((4, 2)))


class TestMatching:
    def test_exhaustive_equals_assignment(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = int(rng.integers(1, 8))
            cost = rng.random((r, r))
            _, c_ex = exhaustive_match(cost)
            _, c_as = match_columns(cost)
            assert c_ex == c_as

    @pytest.mark.parametrize("r", range(1, 8))
    def test_integer_costs_with_ties(self, r):
        # Values in {0, 1, 2} tie often; the permutation may differ from the
        # oracle's, but it must be a permutation of the same total.
        rng = np.random.default_rng(50 + r)
        for cost in [np.ones((r, r))] + [rng.integers(0, 3, (r, r)).astype(float)
                                         for _ in range(10)]:
            perm, total = match_columns(cost)
            assert sorted(perm) == list(range(r))
            assert total == sum(cost[i, j] for i, j in enumerate(perm))
            assert total == exhaustive_match(cost)[1]

    def test_cost_matrix_diagonal_zero_for_identical(self):
        rng = np.random.default_rng(5)
        a = rng.random((4, 3)) + 0.1
        cost = _cost_matrix(a, a)
        assert np.all(np.diag(cost) == 0.0)


class TestModelMse:
    def test_reports_all_modes_and_shared(self):
        rng = np.random.default_rng(6)
        truth = KruskalModel([rng.random((d, 3)) + 0.1 for d in (4, 3, 5)])
        perm = [2, 0, 1]
        est = KruskalModel([a[:, perm] * 2.0 for a in truth.factors])
        out = model_mse(est, truth)
        assert len(out["per_mode"]) == 3
        assert out["mean"] == pytest.approx(0.0, abs=1e-28)
        assert [r.permutation for r in out["per_mode"]] == [(2, 0, 1)] * 3


    def test_rank_nine_mean_is_mean_of_per_mode_mse(self):
        rng = np.random.default_rng(7)
        truth = KruskalModel([rng.random((d, 9)) + 0.1 for d in (10, 11, 12)])
        est = KruskalModel([rng.random((d, 9)) + 0.1 for d in (10, 11, 12)])
        out = model_mse(est, truth)
        per_mode = [mse(a, b).value for a, b in zip(est.factors, truth.factors)]
        assert [r.value for r in out["per_mode"]] == per_mode
        assert out["mean"] == float(np.mean(per_mode))


class TestNre:
    def test_exact_fit_zero(self):
        rng = np.random.default_rng(8)
        model = KruskalModel([rng.random((3, 2)) for _ in range(3)])
        tensor = DenseTensor(model.to_dense().values)
        assert objective(LossSpec("gaussian"), tensor, model).value == 0.0

    def test_sampled_within_three_standard_errors(self):
        rng = np.random.default_rng(9)
        model = KruskalModel([rng.random((10, 2)) + 0.1 for _ in range(3)])
        tensor = DenseTensor(rng.random((10, 10, 10)))
        spec = LossSpec("gaussian")
        exact = objective(spec, tensor, model).value
        sample = 200
        draws = [objective(spec, tensor, model, sample=sample,
                           rng=np.random.default_rng(1000 + k)).value
                 for k in range(200)]
        draws = np.asarray(draws)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - exact) <= 3 * se


class TestLyapunov:
    GEN = GeneratorSpec("squared-euclidean")

    def test_stationary_zero_objective_is_zero(self):
        a = [np.ones((3, 2)), np.ones((2, 2))]
        rec = lyapunov(self.GEN, a, a, a, phi=0.0, eta=0.1, gamma_k=0.0, eps_aux=0.1)
        assert rec.value == 0.0

    def test_reduces_to_scaled_objective(self):
        a = [np.ones((3, 2))]
        rec = lyapunov(self.GEN, a, a, a, phi=1.5, eta=0.25, gamma_k=0.3, eps_aux=0.1)
        assert rec.value == pytest.approx(0.25 * 1.5, rel=1e-15)
        assert rec.forward_bregman == 0.0 and rec.backward_bregman == 0.0

    def test_summands_match_the_formula(self):
        rng = np.random.default_rng(10)
        cur, prev, prev2 = ([rng.random((3, 2))] for _ in range(3))
        rec = lyapunov(self.GEN, cur, prev, prev2, phi=1.0, eta=0.1, gamma_k=0.2,
                       eps_aux=0.1)
        d_fwd = bregman_div(self.GEN, prev[0], cur[0])
        d_bwd = bregman_div(self.GEN, prev2[0], prev[0])
        assert d_fwd > 0 and d_bwd > 0
        assert rec.objective_gap == pytest.approx(0.1)
        assert rec.forward_bregman == pytest.approx((1 - 0.2 - 0.1 / 3) * d_fwd)
        assert rec.backward_bregman == pytest.approx(0.1 / 3 * d_bwd)
        assert rec.value == pytest.approx(0.1 + rec.forward_bregman + rec.backward_bregman)

    def test_negative_forward_coefficient_rejected(self):
        a = [np.ones((2, 2))]
        with pytest.raises(ConfigError, match="forward coefficient"):
            lyapunov(self.GEN, a, a, a, phi=0.0, eta=1.0, gamma_k=0.98, eps_aux=0.1)
