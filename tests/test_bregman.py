"""Generators, divergences, the three-point identity, and the prox closed forms."""

import numpy as np
import pytest

from gcpd.bregman import (FLOOR, GeneratorSpec, RegularizerSpec, bregman_div,
                          mirror_prox_step, regularizer_value)
from gcpd.errors import ConfigError, LossDomainError
from gcpd.verify import generator_grad, generator_value, three_point_check

EUCLID = GeneratorSpec("squared-euclidean")
ENTROPY = GeneratorSpec("negative-entropy")


def prox_objective(gen, reg, anchor, grad, eta, a):
    """The subproblem value at scalar a (oracle side)."""
    if gen.entropic:
        div = a * np.log(a / anchor) - a + anchor if a > 0 else anchor
    else:
        div = 0.5 * (a - anchor) ** 2
    h = 0.0
    if reg.kind == "squared-l2":
        h = 0.5 * reg.weight * a * a
    elif reg.kind == "l1":
        h = reg.weight * abs(a)
    if reg.enforces_nonnegative and a < 0:
        return np.inf
    return h + grad * (a - anchor) + div / eta


class TestGenerator:
    def test_entropy_at_one(self):
        assert generator_value(ENTROPY, np.array([1.0])) == 0.0
        assert generator_grad(ENTROPY, np.array([1.0]))[0] == 1.0

    def test_euclidean_at_zero(self):
        assert generator_value(EUCLID, np.array([0.0])) == 0.0
        assert generator_grad(EUCLID, np.array([0.0]))[0] == 0.0

    def test_entropy_at_e(self):
        assert generator_value(ENTROPY, np.array([np.e])) == pytest.approx(
            2.718281828459045, rel=1e-15)
        assert generator_grad(ENTROPY, np.array([np.e]))[0] == pytest.approx(2.0)

    def test_entropy_domain(self):
        with pytest.raises(LossDomainError):
            generator_grad(ENTROPY, np.array([0.0]))


class TestBregmanDiv:
    def test_zero_at_equal_points(self):
        x = np.array([[0.3, 1.2], [2.0, 0.5]])
        assert bregman_div(EUCLID, x, x) == 0.0
        assert bregman_div(ENTROPY, x, x) == 0.0

    def test_euclidean_scalar(self):
        assert bregman_div(EUCLID, np.array([2.0]), np.array([1.0])) == 0.5

    def test_entropy_frozen_value(self):
        got = bregman_div(ENTROPY, np.array([2.0]), np.array([1.0]))
        assert got == pytest.approx(0.3862943611198906, rel=1e-15)

    def test_lower_bound_euclidean(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.standard_normal((2, 4, 3))
            assert bregman_div(EUCLID, x, y) >= 0.5 * np.sum((x - y) ** 2) - 1e-15

    def test_lower_bound_entropy_on_unit_box(self):
        # sigma >= 1 holds on (0, 1]-bounded boxes.
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.random((3, 2)) * 0.999 + 1e-3
            y = rng.random((3, 2)) * 0.999 + 1e-3
            assert bregman_div(ENTROPY, x, y) >= 0.5 * np.sum((x - y) ** 2) - 1e-12

    def test_positive_when_separated(self):
        rng = np.random.default_rng(2)
        for gen in (EUCLID, ENTROPY):
            for _ in range(100):
                y = rng.random((2, 2)) + 0.1
                x = y + rng.standard_normal((2, 2)) * 1e-5
                x = np.abs(x) + 1e-9
                if np.linalg.norm(x - y) >= 1e-6:
                    assert bregman_div(gen, x, y) >= 1e-13

    def test_shape_mismatch(self):
        with pytest.raises(LossDomainError):
            bregman_div(EUCLID, np.zeros(2), np.zeros(3))


class TestThreePoint:
    def test_identity_entropy(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, y, z = rng.random((3, 2, 3)) + 0.05
            assert abs(three_point_check(ENTROPY, x, y, z)) <= 1e-10

    def test_identity_euclidean(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x, y, z = rng.standard_normal((3, 2, 3))
            assert abs(three_point_check(EUCLID, x, y, z)) <= 1e-12

    def test_x_equals_y(self):
        x = np.array([0.4, 1.1])
        z = np.array([0.9, 0.6])
        assert abs(three_point_check(ENTROPY, x, x, z)) <= 1e-14


class TestMirrorProx:
    def test_zero_gradient_fixed_point(self):
        anchor = np.array([[0.5, 1.5]])
        for gen in (EUCLID, ENTROPY):
            out = mirror_prox_step(gen, RegularizerSpec("zero"), anchor,
                                   np.zeros_like(anchor), 0.7)
            assert np.allclose(out, anchor, rtol=0, atol=0)

    def test_entropy_frozen_value(self):
        out = mirror_prox_step(ENTROPY, RegularizerSpec("nonnegative-indicator"),
                               np.array([1.0]), np.array([1.0]), 1.0)
        assert out[0] == pytest.approx(0.36787944117144233, rel=1e-15)

    def test_euclidean_projection(self):
        out = mirror_prox_step(EUCLID, RegularizerSpec("nonnegative-indicator"),
                               np.array([1.0]), np.array([2.0]), 1.0)
        assert out[0] == 0.0

    def test_unsupported_pair(self):
        with pytest.raises(ConfigError, match="supported pairs"):
            mirror_prox_step(ENTROPY, RegularizerSpec("squared-l2", weight=0.1),
                             np.array([1.0]), np.array([1.0]), 1.0)

    @pytest.mark.parametrize("gen", [EUCLID, ENTROPY])
    @pytest.mark.parametrize("reg", [
        RegularizerSpec("zero"),
        RegularizerSpec("nonnegative-indicator"),
        RegularizerSpec("l1", weight=0.4, nonnegative=True),
    ])
    def test_beats_random_candidates(self, gen, reg):
        rng = np.random.default_rng(5)
        for _ in range(30):
            anchor = 0.1 + 1.9 * rng.random()
            grad = -2.0 + 4.0 * rng.random()
            eta = 0.05 + 0.9 * rng.random()
            out = mirror_prox_step(gen, reg, np.array([anchor]), np.array([grad]), eta)[0]
            best = prox_objective(gen, reg, anchor, grad, eta, out)
            lo = FLOOR if gen.entropic else -4.0
            for a in np.concatenate([rng.uniform(lo, 4.0, size=1000), [out]]):
                assert best <= prox_objective(gen, reg, anchor, grad, eta, a) + 1e-10

    def test_squared_l2_closed_form(self):
        reg = RegularizerSpec("squared-l2", weight=0.5)
        out = mirror_prox_step(EUCLID, reg, np.array([2.0]), np.array([1.0]), 0.5)
        assert out[0] == pytest.approx((2.0 - 0.5) / (1 + 0.5 * 0.5), rel=1e-15)

    def test_l1_soft_threshold(self):
        reg = RegularizerSpec("l1", weight=1.0)
        out = mirror_prox_step(EUCLID, reg, np.array([1.0, -1.0, 0.2]),
                               np.array([0.0, 0.0, 0.0]), 0.5)
        assert np.allclose(out, [0.5, -0.5, 0.0], rtol=0, atol=1e-15)

    def test_entropy_floor_applied(self):
        out = mirror_prox_step(ENTROPY, RegularizerSpec("zero"),
                               np.array([1e-9]), np.array([50.0]), 1.0)
        assert out[0] == FLOOR


class TestRegularizerValue:
    def test_indicator(self):
        reg = RegularizerSpec("nonnegative-indicator")
        assert regularizer_value(reg, np.array([0.0, 1.0])) == 0.0
        assert regularizer_value(reg, np.array([-0.1])) == np.inf

    def test_weighted_kinds(self):
        a = np.array([1.0, -2.0])
        assert regularizer_value(RegularizerSpec("squared-l2", weight=2.0), a) == 5.0
        assert regularizer_value(RegularizerSpec("l1", weight=0.5), a) == 1.5

    def test_invalid_weight(self):
        for weight in (-1.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                RegularizerSpec("l1", weight=weight)
        with pytest.raises(ConfigError):
            RegularizerSpec("zero", weight=1.0)
