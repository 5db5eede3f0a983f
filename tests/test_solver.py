"""Solver loop: schedules, guards, stepsizes, stopping, determinism, descent."""

import dataclasses
import inspect
import itertools
import math
import os
import sys

import numpy as np
import pytest
from scipy.stats import chisquare

from gcpd.bregman import FLOOR, GeneratorSpec, RegularizerSpec
from gcpd.data import SyntheticSpec, generate
from gcpd.errors import ConfigError, DataError, DivergenceError, LossDomainError
from gcpd.losses import LossSpec
from gcpd import estimators, solver
from gcpd.solver import (SolverConfig, SolverRunState, inertial_coefficients,
                         initial_factors, run, step)
from gcpd.tensors import DenseTensor, KruskalModel, SparseTensorCOO, TensorShape, data_fibers
from gcpd.verify import gaussian_block_curvature


def gaussian_config(**kw):
    base = dict(rank=2, loss=LossSpec("gaussian"),
                generator=GeneratorSpec("squared-euclidean"),
                regularizer=RegularizerSpec("nonnegative-indicator"),
                estimator="full", eta=0.5, c1=0.0, c2=0.0, max_iters=50, seed=0)
    base.update(kw)
    return SolverConfig(**base)


def run_start(config, shape):
    """The start `run` takes: `initial_factors` drawn from stream 3 of the seed."""
    return initial_factors(config.resolved(shape), shape,
                           np.random.default_rng(solver._streams(config.seed)[3]))


def gamma_config(**kw):
    base = dict(rank=2, loss=LossSpec("gamma"),
                generator=GeneratorSpec("negative-entropy"),
                regularizer=RegularizerSpec("nonnegative-indicator"),
                estimator="saga", eta=0.1, max_iters=200, seed=0)
    base.update(kw)
    return SolverConfig(**base)


def small_gaussian_instance(seed=0, dims=(6, 5, 4), rank=2):
    tensor, model = generate(SyntheticSpec(shape=dims, rank=rank,
                                           distribution="gaussian",
                                           noise_sigma=0.05, seed=seed))
    return tensor, model


def as_sparse(tensor):
    """The nonzero entries of a dense tensor in COO form."""
    idx = np.argwhere(tensor.values != 0)
    return SparseTensorCOO(tensor.shape, idx, tensor.values[tuple(idx.T)])


class TestSchedules:
    def test_first_step_has_no_inertia(self):
        assert inertial_coefficients(0.6, 0.8, 1) == (0.0, 0.0)

    def test_schedule_values(self):
        alpha, beta = inertial_coefficients(0.6, 0.8, 5)
        assert alpha == pytest.approx(0.6 * 4 / 7)
        assert beta == pytest.approx(0.8 * 4 / 7)

    def test_coefficients_stay_below_one(self):
        for k in (1, 10, 1000, 10**6):
            alpha, beta = inertial_coefficients(1.0, 1.0, k)
            assert 0.0 <= alpha < 1.0 and 0.0 <= beta < 1.0

    @pytest.mark.parametrize("c1, c2", [(0.6, 0.8), (0.8, 0.6), (1.0, 0.0), (0.0, 1.0),
                                        (0.5, 0.5)])
    def test_gap_grows_to_the_validated_bound(self, c1, c2):
        # The Lyapunov check bounds |alpha_k - beta_k| over k <= max_iters by
        # s = r_m |c1 - c2|, r_m = (m-1)/(m+2): the gap never falls as k
        # grows, so the last iteration's gap is the largest.
        m = 500
        gaps = [abs(a - b) for a, b in (inertial_coefficients(c1, c2, k)
                                        for k in range(1, m + 1))]
        assert gaps[0] == 0.0
        assert all(g <= h for g, h in zip(gaps, gaps[1:]))
        ratio, _ = inertial_coefficients(1.0, 0.0, m)
        assert gaps[-1] == pytest.approx(ratio * abs(c1 - c2), rel=1e-15, abs=0.0)


SHAPE = TensorShape((6, 5, 4))


class TestConfigValidation:
    def test_c_range(self):
        with pytest.raises(ConfigError):
            gaussian_config(c1=1.5).resolved(SHAPE)

    def test_nonnegative_loss_needs_guarded_setup(self):
        cfg = SolverConfig(rank=2, loss=LossSpec("gamma"),
                           generator=GeneratorSpec("squared-euclidean"),
                           regularizer=RegularizerSpec("zero"))
        with pytest.raises(ConfigError, match="nonnegative"):
            cfg.resolved(SHAPE)

    def test_entropy_squared_l2_rejected(self):
        cfg = SolverConfig(rank=2, loss=LossSpec("gaussian"),
                           generator=GeneratorSpec("negative-entropy"),
                           regularizer=RegularizerSpec("squared-l2", weight=0.1))
        with pytest.raises(ConfigError, match="closed-form"):
            cfg.resolved(SHAPE)

    @pytest.mark.parametrize("field,value", [
        ("eval_every", 0), ("eval_every", -3), ("eval_samples", 0),
        ("init_max", 0.0), ("init_max", -1.0), ("init_max", np.inf), ("seed", -1),
        ("eta", np.inf), ("eta", np.nan), ("eta", 0.0)])
    def test_out_of_range_setting_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            gaussian_config(**{field: value}).resolved(SHAPE)

    @pytest.mark.parametrize("settings,match", [
        (dict(eta=np.inf), "eta"),
        # 1 - s - eps/3 < 0 with s = (99/102)*1 at k = max_iters = 100.
        (dict(lyapunov=True, c1=1.0, c2=0.0, max_iters=100), "Lyapunov forward coefficient"),
    ])
    def test_setting_rejected_before_the_run_starts(self, settings, match, monkeypatch):
        built = []
        real = solver.EstimatorState
        monkeypatch.setattr(solver, "EstimatorState",
                            lambda *a, **k: built.append(a) or real(*a, **k))
        tensor, _ = small_gaussian_instance()
        cfg = gaussian_config(**settings)
        with pytest.raises(ConfigError, match=match):
            cfg.resolved(tensor.shape)
        with pytest.raises(ConfigError, match=match):
            run(cfg, tensor)
        assert built == []

    @pytest.mark.parametrize("c1, c2, max_iters, accepted", [
        # c1 - c2 = +-1: 1 - s - eps/3 >= 0 with s = (m-1)/(m+2) iff m <= 88.
        (1.0, 0.0, 87, True), (1.0, 0.0, 89, False), (0.0, 1.0, 89, False),
        # c1 = c2: every alpha_k - beta_k is 0, so s = 0 at any budget.
        (1.0, 1.0, 10**6, True)])
    def test_lyapunov_bound_is_taken_at_the_last_iteration(self, c1, c2, max_iters,
                                                           accepted):
        cfg = gaussian_config(lyapunov=True, c1=c1, c2=c2, max_iters=max_iters)
        if accepted:
            assert cfg.resolved(SHAPE).max_iters == max_iters
        else:
            with pytest.raises(ConfigError, match="Lyapunov forward coefficient"):
                cfg.resolved(SHAPE)

    @pytest.mark.parametrize("estimator", estimators.ESTIMATOR_KINDS)
    def test_lyapunov_does_not_depend_on_diagnostics(self, estimator):
        tensor, _ = small_gaussian_instance()
        cfg = gaussian_config(estimator=estimator, lyapunov=True, eta=0.05, max_iters=20,
                              eval_every=5, record_timing=False)
        plain, _ = run(cfg, tensor)
        observed, _ = run(dataclasses.replace(cfg, diagnostics=True), tensor)
        assert all(r.lyapunov is not None for r in plain.records[1:])
        assert all(r.gamma is not None for r in observed.records)
        assert [r.lyapunov for r in observed.records] == [r.lyapunov for r in plain.records]

    def test_defaults_follow_the_loss(self):
        for kind, gen, reg, eta in (
                ("gaussian", "squared-euclidean", "zero", 0.1),
                ("gamma", "negative-entropy", "nonnegative-indicator", 0.1),
                ("poisson-log", "squared-euclidean", "zero", 0.2),
                ("bernoulli-odds", "negative-entropy", "nonnegative-indicator", 0.2)):
            cfg = SolverConfig(rank=2, loss=LossSpec(kind)).resolved(SHAPE)
            assert cfg.generator == GeneratorSpec(gen), kind
            assert cfg.regularizer == (RegularizerSpec(reg),) * 3, kind
            assert cfg.eta == eta, kind

    def test_nonnegative_loss_makes_penalties_nonnegative(self):
        regs = (RegularizerSpec("l1", weight=0.1), RegularizerSpec("squared-l2", weight=0.2),
                RegularizerSpec("nonnegative-indicator"))
        cfg = SolverConfig(rank=2, loss=LossSpec("gamma"),
                           generator=GeneratorSpec("squared-euclidean"), regularizer=regs)
        assert cfg.resolved(SHAPE).regularizer == (
            RegularizerSpec("l1", weight=0.1, nonnegative=True),
            RegularizerSpec("squared-l2", weight=0.2, nonnegative=True),
            RegularizerSpec("nonnegative-indicator"))
        gaussian = dataclasses.replace(cfg, loss=LossSpec("gaussian"))
        assert gaussian.resolved(SHAPE).regularizer == regs

    @pytest.mark.parametrize("edit,match", [
        (lambda d: d.pop("tol"), r"lacks fields \['tol'\]"),
        (lambda d: d.update(bogus=1), r"unknown fields \['bogus'\]"),
        (lambda d: d["loss"].pop("epsilon"), "LossSpec lacks"),
        (lambda d: d["regularizer"][1].update(scale=2), "RegularizerSpec"),
        (lambda d: d.update(generator="negative-entropy"), "GeneratorSpec is not an object"),
        (lambda d: d.update(sarah_p=5), r"unknown fields \['sarah_p'\]"),
    ])
    def test_from_dict_rejects_missing_or_unknown_fields(self, edit, match):
        saved = gaussian_config().resolved(SHAPE).to_dict()
        edit(saved)
        with pytest.raises(DataError, match=match):
            SolverConfig.from_dict(saved)

    @pytest.mark.parametrize("field,value", [
        ("rank", "2"), ("eta", "0.1"), ("seed", [1]), ("max_iters", True),
    ])
    def test_from_dict_rejects_values_of_the_wrong_type(self, field, value):
        saved = gaussian_config().resolved(SHAPE).to_dict()
        saved[field] = value
        with pytest.raises(DataError, match=f"field '{field}'"):
            SolverConfig.from_dict(saved)

    def test_from_dict_takes_an_int_for_a_float(self):
        saved = gaussian_config().resolved(SHAPE).to_dict()
        saved["eta"] = 1
        saved["loss"]["epsilon"] = 1
        config = SolverConfig.from_dict(saved)
        assert config.eta == 1 and config.loss.epsilon == 1

    def test_manifest_round_trip(self):
        tensor, _ = small_gaussian_instance()
        cfg = gaussian_config(batch=4).resolved(tensor.shape)
        rebuilt = SolverConfig.from_dict(cfg.to_dict())
        assert rebuilt.resolved(tensor.shape).to_dict() == cfg.to_dict()
        assert rebuilt.config_hash() == cfg.config_hash()


class TestTruthNeverEndsARun:
    def test_zero_estimate_column_records_no_mse(self):
        # The l1 prox zeroes an estimate column here; the truth only scores.
        tensor, truth = generate(SyntheticSpec(shape=(8, 7, 6), rank=2,
                                               distribution="gaussian"))
        cfg = SolverConfig(rank=2, loss=LossSpec("gaussian"),
                           regularizer=RegularizerSpec("l1", weight=50.0), max_iters=200)
        plain, _ = run(cfg, tensor)
        scored, _ = run(cfg, tensor, truth=truth)
        assert [(r.iteration, r.nre) for r in scored.records] == \
            [(r.iteration, r.nre) for r in plain.records]
        assert scored.records[-1].iteration < cfg.max_iters  # the tolerance stop
        assert scored.records[0].mse_mean is not None
        last = scored.records[-1]
        assert last.mse_mean is None and last.mse_modes is None


class TestStepMechanics:
    def test_single_block_update(self):
        tensor, _ = small_gaussian_instance()
        cfg = gaussian_config().resolved(tensor.shape)
        state = SolverRunState(cfg, tensor, initial_factors(
            cfg, tensor.shape, np.random.default_rng(1)))
        before = [a.copy() for a in state.factors]
        mode = step(state)
        changed = [n for n in range(3)
                   if not np.array_equal(before[n], state.factors[n])]
        assert changed == [mode]

    def test_history_buffers_lag_by_one(self):
        tensor, _ = small_gaussian_instance()
        cfg = gaussian_config().resolved(tensor.shape)
        state = SolverRunState(cfg, tensor, initial_factors(
            cfg, tensor.shape, np.random.default_rng(2)))
        snapshots = [list(state.factors)]
        for _ in range(4):
            step(state)
            snapshots.append(list(state.factors))
        for n in range(3):
            assert np.array_equal(state.prev[n], snapshots[-2][n])
            assert np.array_equal(state.prev2[n], snapshots[-3][n])

    def test_plain_equals_inertial_with_zero_coefficients(self):
        # "Plain" is c1 = c2 = 0: the step must not depend on A^{k-1} at all.
        tensor, _ = small_gaussian_instance(seed=3)
        cfg = gaussian_config(c1=0.0, c2=0.0, estimator="sgd", batch=3,
                              max_iters=40).resolved(tensor.shape)
        init = initial_factors(cfg, tensor.shape, np.random.default_rng(3))
        s1 = SolverRunState(cfg, tensor, [a.copy() for a in init])
        s2 = SolverRunState(cfg, tensor, [a.copy() for a in init])
        for _ in range(40):
            step(s1)
            s2.prev = list(s2.factors)   # discard the momentum direction
            step(s2)
            assert inertial_coefficients(cfg.c1, cfg.c2, s1.k) == (0.0, 0.0)
        for a, b in zip(s1.factors, s2.factors):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("setup", ["l1", "zero", "entropy", "nonnegative"])
    def test_unmoved_mode_steps_as_its_copy_does(self, setup):
        # A mode that did not move at the last step has A^{k-1}_n is A^k_n,
        # and the step skips the momentum arithmetic; a copy of the block
        # takes it. Both give the same bytes. Under the euclidean l1 and zero
        # penalties every factor's column 1 holds -0.0, so that column's
        # gradient is zero; the zero penalty's prox then keeps the sign of
        # the anchor's zeros, which a + c (a - a) makes +0.0.
        tensor, _ = small_gaussian_instance(seed=4)
        if setup in ("l1", "zero"):
            reg = RegularizerSpec("l1", weight=0.01) if setup == "l1" else RegularizerSpec("zero")
            cfg = gaussian_config(regularizer=reg,
                                  estimator="sgd", batch=3, c1=0.6, c2=0.8)
        elif setup == "entropy":
            tensor = DenseTensor(np.abs(tensor.values))
            cfg = gamma_config()
        else:
            cfg = gaussian_config(c1=0.6, c2=0.8)
        cfg = cfg.resolved(tensor.shape)
        init = initial_factors(cfg, tensor.shape, np.random.default_rng(4))
        states = [SolverRunState(cfg, tensor, [a.copy() for a in init]) for _ in range(2)]
        for _ in range(6):
            for state in states:
                step(state)
        for state, same in zip(states, (True, False)):
            state.factors = [a.copy() for a in state.factors]
            if setup in ("l1", "zero"):
                for a in state.factors:
                    a[:, 1] = -0.0
            state.prev = (list(state.factors) if same
                          else [a.copy() for a in state.factors])
            mode = step(state)
            alpha, beta = inertial_coefficients(cfg.c1, cfg.c2, state.k)
            assert alpha > 0 and beta > 0
        assert ([a.tobytes() for a in states[0].factors]
                == [a.tobytes() for a in states[1].factors])
        if setup == "zero":
            assert (states[0].factors[mode][:, 1] == 0.0).all()
            assert not np.signbit(states[0].factors[mode][:, 1]).any()

    def test_manifest_records_the_coefficients_that_ran(self):
        tensor, _ = small_gaussian_instance(seed=3)
        trace, _ = run(gaussian_config(c1=0.0, c2=0.0, max_iters=5), tensor)
        assert (trace.manifest["config"]["c1"], trace.manifest["config"]["c2"]) == (0.0, 0.0)
        assert "step" not in inspect.signature(run).parameters

    def test_projected_gradient_equivalence(self):
        # Full batch, no inertia, euclidean + nonneg: one step is exactly
        # max(0, A - eta * grad) on the sampled block (hand-rolled oracle).
        tensor, _ = small_gaussian_instance(seed=4)
        cfg = gaussian_config(eta=0.3, max_step=float("inf")).resolved(tensor.shape)
        init = initial_factors(cfg, tensor.shape, np.random.default_rng(4))
        state = SolverRunState(cfg, tensor, [a.copy() for a in init])
        from gcpd.estimators import full_gradient
        mode = step(state)
        expected = np.maximum(
            init[mode] - 0.3 * full_gradient(tensor, init, cfg.loss, mode), 0.0)
        assert np.allclose(state.factors[mode], expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("setup, floor", [
        ("entropy", FLOOR), ("nonnegative", 0.0), ("unconstrained", None)])
    def test_extrapolated_points_are_clamped_to_the_domain(self, setup, floor, monkeypatch):
        # Momentum from 1.0 down to 0.01 extrapolates both points below zero.
        # Entropy floors the anchor and the gradient point at FLOOR; a
        # nonnegative loss under the euclidean generator floors only the
        # gradient point at 0, and the prox projects the anchor's step.
        tensor, _ = small_gaussian_instance(seed=7)
        if setup == "entropy":
            tensor = DenseTensor(np.abs(tensor.values))
            cfg = gamma_config(c1=0.9, c2=0.7, estimator="sgd", batch=3)
        elif setup == "nonnegative":
            cfg = gaussian_config(loss=LossSpec("gamma"), c1=0.9, c2=0.7,
                                  estimator="sgd", batch=3)
        else:
            cfg = gaussian_config(regularizer=RegularizerSpec("zero"), c1=0.9, c2=0.7,
                                  estimator="sgd", batch=3)
        cfg = cfg.resolved(tensor.shape)
        state = SolverRunState(cfg, tensor, [np.full((d, 2), 0.01) for d in tensor.shape.dims])
        state.prev = [np.full((d, 2), 1.0) for d in tensor.shape.dims]
        state.k = 999
        seen = {}

        def gradient_spy(est_state, factors, mode, rows, fibers):
            seen["point"] = factors[mode]
            return np.zeros_like(factors[mode])

        def prox_spy(gen, reg, anchor, grad, eta):
            seen["anchor"] = anchor
            return np.abs(anchor)

        monkeypatch.setattr(solver, "estimate_gradient", gradient_spy)
        monkeypatch.setattr(solver, "mirror_prox_step", prox_spy)
        mode = step(state)
        alpha, beta = inertial_coefficients(cfg.c1, cfg.c2, 1000)
        anchor = 0.01 + alpha * (0.01 - 1.0) * np.ones((tensor.shape.dims[mode], 2))
        point = 0.01 + beta * (0.01 - 1.0) * np.ones_like(anchor)
        assert anchor.max() < 0 and point.max() < 0
        if floor is not None:
            point = np.maximum(point, floor)
        if setup == "entropy":
            anchor = np.maximum(anchor, floor)
        assert np.array_equal(seen["point"], point)
        assert np.array_equal(seen["anchor"], anchor)

    @pytest.mark.parametrize("bad", [
        {(-1, 0): np.nan}, {(-1, 0): np.inf}, {(0, 0): np.inf, (1, 1): np.nan},
        {(0, 1): np.nan, (2, 0): np.inf}, {(0, 0): 1e308, (1, 0): np.nan}], ids=repr)
    @pytest.mark.parametrize("moved", [False, True], ids=["unmoved", "moved"])
    def test_entropic_prox_output_off_the_floor_diverges(self, bad, moved, monkeypatch):
        # Under entropy the divergence test is one argmax over the prox
        # output, which is >= FLOOR unless it holds NaN or +inf.
        tensor, _ = generate(SyntheticSpec(shape=(6, 5, 4), rank=2,
                                           distribution="gamma", seed=5))
        cfg = gamma_config(estimator="sgd", batch=3).resolved(tensor.shape)
        state = SolverRunState(cfg, tensor, initial_factors(
            cfg, tensor.shape, np.random.default_rng(5)))
        for _ in range(3):
            step(state)
        state.prev = [a + 0.01 for a in state.factors] if moved else state.factors
        modes = []

        def prox(gen, reg, anchor, grad, eta):
            modes.append(tensor.shape.dims.index(anchor.shape[0]))   # dims are distinct
            out = np.maximum(anchor, FLOOR)
            for at, value in bad.items():
                out[at] = value
            return out

        monkeypatch.setattr(solver, "mirror_prox_step", prox)
        with pytest.raises(DivergenceError) as err:
            step(state)
        assert err.value.iteration == 4
        assert f"after iteration 4 (mode {modes[0]})" in str(err.value)

    def test_feasibility_preserved(self):
        tensor, model = generate(SyntheticSpec(shape=(6, 5, 4), rank=2,
                                               distribution="gamma", seed=5))
        cfg = gamma_config(max_iters=150).resolved(tensor.shape)
        state = SolverRunState(cfg, tensor, initial_factors(
            cfg, tensor.shape, np.random.default_rng(5)))
        for _ in range(150):
            step(state)
            assert min(a.min() for a in state.factors) >= FLOOR


class TestWindowDraws:
    """Each step's mode and fiber rows come from draws made a window at a time."""

    @staticmethod
    def _state(dims, **kw):
        tensor = DenseTensor(np.ones(dims))
        cfg = gaussian_config(estimator="sgd", **kw).resolved(tensor.shape)
        return cfg, SolverRunState(cfg, tensor, initial_factors(
            cfg, tensor.shape, np.random.default_rng(0)))

    def test_modes_and_subsets_are_uniform(self):
        # Modes 0 and 1 of a 7 x 7 x 1 tensor have J_n = 7 fibers, so their
        # batches of 3 range over the 35 subsets of C(7, 3).
        _, state = self._state((7, 7, 1), batch=3, seed=17)
        draws = [d for _ in range(40) for d in solver._draw_window(state)]
        modes = np.array([n for n, _, _ in draws])
        assert chisquare(np.bincount(modes, minlength=3)).pvalue > 1e-3
        subsets = {c: i for i, c in enumerate(itertools.combinations(range(7), 3))}
        for mode in (0, 1):
            counts = np.zeros(len(subsets))
            for n, rows, _ in draws:
                if n == mode:
                    counts[subsets[tuple(rows.tolist())]] += 1
            assert counts.sum() > 3000
            assert chisquare(counts).pvalue > 1e-3

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("dims, batch", [
        ((6, 5, 4), 1), ((6, 5, 4), 3), ((6, 5, 4), 100),   # B = J_n on every mode
        ((9, 8, 10), 70), ((9, 8, 10), 1000),               # B near and at J_n
        ((30, 20, 16), 300)])                               # B I_n > 2^13: g_n = 1
    def test_every_handed_out_batch_is_sorted_unique_and_in_range(
            self, dims, batch, sparse, monkeypatch):
        tensor = DenseTensor(np.random.default_rng(1).standard_normal(dims))
        if sparse:
            tensor = as_sparse(DenseTensor(np.maximum(tensor.values, 0.0)))
        seen = []

        def spy(est_state, factors, mode, rows, fibers):
            # Checked here: holding every batch's fibers for the end would
            # take tens of MB at B = 300.
            assert np.array_equal(fibers, data_fibers(tensor, mode, rows))
            seen.append((mode, rows))
            return np.zeros_like(factors[mode])

        monkeypatch.setattr(solver, "estimate_gradient", spy)
        run(gaussian_config(estimator="sgd", batch=batch, max_iters=600, tol=0.0, seed=4),
            tensor)
        assert len(seen) == 600   # three windows
        for mode, rows in seen:
            j_n = tensor.shape.fiber_count(mode)
            assert rows.dtype == np.int64 and rows.shape == (min(batch, j_n),)
            assert np.all(np.diff(rows) > 0) and rows[0] >= 0 and rows[-1] < j_n

    def test_draws_come_from_stream_zero_in_window_order(self, monkeypatch):
        # Each window draws its _DRAW_WINDOW modes, then each mode's batches
        # in turn; the next window's modes follow those batches in stream 0.
        _, state = self._state((6, 5, 4), batch=2, seed=23)
        rng = np.random.default_rng(solver._streams(23)[0])
        want = []
        for _ in range(2):
            modes = rng.integers(3, size=solver._DRAW_WINDOW)
            rows = [iter(solver._batches(rng, state.estimator.fiber_counts[n], 2,
                                         int((modes == n).sum()))) for n in range(3)]
            want += [(n, next(rows[n]).tolist()) for n in modes.tolist()]
        seen = []
        real = solver.estimate_gradient

        def spy(est_state, factors, mode, rows, fibers):
            seen.append((mode, rows.tolist()))
            return real(est_state, factors, mode, rows, fibers)

        monkeypatch.setattr(solver, "estimate_gradient", spy)
        assert [step(state) for _ in range(len(want))] == [n for n, _ in want]
        assert seen == want

    def test_draws_depend_on_the_seed_and_k_alone(self):
        tensor, truth = generate(SyntheticSpec(shape=(8, 7, 6), rank=2,
                                               distribution="gamma", seed=21))
        cfg = gamma_config(tol=0.0, max_iters=300, eval_every=7, record_timing=False,
                           seed=9)
        init = run_start(cfg, tensor.shape)
        want = [a.tobytes() for a in run(cfg, tensor)[1].factors]

        def ends_as_want(config, truth=None):
            model = run(config, tensor, truth=truth)[1]
            return [a.tobytes() for a in model.factors] == want

        assert ends_as_want(dataclasses.replace(cfg, eval_every=50))
        assert ends_as_want(dataclasses.replace(cfg, diagnostics=True))
        assert ends_as_want(cfg, truth=truth)
        # A state built for a larger budget takes the same first 300 steps.
        longer = dataclasses.replace(cfg, max_iters=5000).resolved(tensor.shape)
        state = SolverRunState(longer, tensor, init)
        for _ in range(300):
            step(state)
        assert [a.tobytes() for a in state.factors] == want


class TestFiberGroups:
    """The step's fibers are read g_n batches at a time, and the group size
    never moves a run."""

    # B I_n = 480, 360, 240 entries: g_n = 17, 22 and 34 at the default
    # 2^13-entry block, so a window's ~85 batches of a mode take a few reads.
    DIMS, BATCH = (40, 30, 20), 12

    def _tensor(self, sparse):
        tensor, _ = generate(SyntheticSpec(shape=self.DIMS, rank=2, distribution="poisson",
                                           seed=31))
        return as_sparse(tensor) if sparse else tensor

    def _config(self, estimator):
        return SolverConfig(rank=2, loss=LossSpec("poisson-identity"), estimator=estimator,
                            batch=self.BATCH, max_iters=600, tol=0.0, eval_every=50,
                            record_timing=False, seed=5)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("estimator", ["sgd", "saga"])
    def test_group_size_never_moves_the_iterates(self, estimator, sparse, monkeypatch):
        tensor, cfg = self._tensor(sparse), self._config(estimator)

        def outcome():
            trace, model = run(cfg, tensor)
            return ([a.tobytes() for a in model.factors], [r.nre for r in trace.records],
                    trace.eta_history)

        want = outcome()
        init = estimators.EstimatorState.__init__
        for group in (1, 1 << 20):   # one batch per read; a whole window per read

            def with_group(est_state, *args, _group=group, **kwargs):
                init(est_state, *args, **kwargs)
                est_state.groups = [_group] * est_state.order

            monkeypatch.setattr(estimators.EstimatorState, "__init__", with_group)
            assert outcome() == want

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_each_group_is_read_once(self, sparse, monkeypatch):
        tensor = self._tensor(sparse)
        modes, groups, reads = [], [], []
        estimate, read = solver.estimate_gradient, estimators.data_fibers

        def spy_estimate(est_state, factors, mode, rows, fibers):
            modes.append(mode)
            groups[:] = est_state.groups
            return estimate(est_state, factors, mode, rows, fibers)

        def spy_read(*args):
            reads.append(args[1])
            return read(*args)

        monkeypatch.setattr(solver, "estimate_gradient", spy_estimate)
        monkeypatch.setattr(estimators, "data_fibers", spy_read)
        run(self._config("sgd"), tensor)
        assert len(modes) == 600 and groups == [17, 22, 34]
        window = solver._DRAW_WINDOW
        bound = sum(math.ceil(modes[lo:lo + window].count(n) / groups[n])
                    for lo in range(0, len(modes), window) for n in range(3))
        assert len(reads) <= bound < 40

    def test_a_full_run_reads_no_group(self, monkeypatch):
        handed = []
        estimate = solver.estimate_gradient

        def spy(est_state, factors, mode, rows, fibers):
            handed.append(fibers)
            return estimate(est_state, factors, mode, rows, fibers)

        monkeypatch.setattr(solver, "estimate_gradient", spy)
        run(dataclasses.replace(self._config("full"), max_iters=30), self._tensor(False))
        assert len(handed) == 30 and all(f is None for f in handed)


class TestRun:
    def test_zero_iteration_budget(self):
        tensor, _ = small_gaussian_instance(seed=6)
        trace, model = run(gaussian_config(max_iters=0), tensor)
        assert len(trace.records) == 1
        assert trace.records[0].iteration == 0

    def test_deterministic_replay(self):
        tensor, truth = small_gaussian_instance(seed=7)
        cfg = gaussian_config(estimator="sgd", batch=3, max_iters=120,
                              record_timing=False, seed=11)
        t1, m1 = run(cfg, tensor, truth=truth)
        t2, m2 = run(cfg, tensor, truth=truth)
        for a, b in zip(m1.factors, m2.factors):
            assert np.array_equal(a, b)
        assert [r.nre for r in t1.records] == [r.nre for r in t2.records]
        assert [r.seconds for r in t1.records] == [r.seconds for r in t2.records]
        assert [r.mse_mean for r in t1.records] == [r.mse_mean for r in t2.records]

    def test_full_batch_gaussian_monotone(self):
        tensor, _ = small_gaussian_instance(seed=8)
        cfg = gaussian_config(max_iters=300, eval_every=1)
        init = run_start(cfg, tensor.shape)   # the start does not depend on eta
        curvature = max(gaussian_block_curvature(KruskalModel(init), n)
                        for n in range(3))
        trace, _ = run(dataclasses.replace(cfg, eta=0.5 / curvature), tensor)
        nres = [r.nre for r in trace.records]
        for a, b in zip(nres, nres[1:]):
            assert b <= a + 1e-12

    def test_eta_history_is_the_constant_stepsize(self):
        tensor, _ = small_gaussian_instance(seed=9)
        trace, _ = run(gaussian_config(eta=0.3, max_iters=60, tol=1e-4, eval_every=5),
                       tensor)
        assert trace.eta_history == [0.3] * trace.records[-1].iteration

    def test_divergence_guard_raises(self):
        tensor, _ = small_gaussian_instance(seed=10)
        cfg = gaussian_config(eta=1e9, max_iters=200, eval_every=5,
                              regularizer=RegularizerSpec("zero"))
        with pytest.raises(DivergenceError):
            run(cfg, tensor)

    def test_non_finite_block_guard(self):
        # The evaluations come too late to see the blow-up first.
        tensor, _ = small_gaussian_instance(seed=10)
        cfg = gaussian_config(eta=1e9, max_iters=200, eval_every=1000,
                              regularizer=RegularizerSpec("zero"))
        # The blow-up overflows on its way to inf; that warning is part of the case.
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(DivergenceError, match="non-finite factor entries after iteration"):
            run(cfg, tensor)

    def test_factor_magnitude_guard(self):
        # One capped step moves entries by up to 1e85, finite but above the
        # order-3 bound 10^(250/3), before the objective is evaluated.
        tensor, _ = small_gaussian_instance(seed=10)
        cfg = gaussian_config(eta=1e90, max_step=1e85, max_iters=5, eval_every=1,
                              regularizer=RegularizerSpec("zero"))
        with pytest.raises(DivergenceError, match="factor magnitude .* overflow bound") as err:
            run(cfg, tensor)
        assert err.value.iteration == 1 and err.value.value > 10.0 ** (250 / 3)

    def test_objective_guard(self):
        tensor, _ = small_gaussian_instance(seed=10)
        cfg = gaussian_config(eta=1e9, max_iters=5, eval_every=1,
                              regularizer=RegularizerSpec("zero"))
        nre0 = run(dataclasses.replace(cfg, max_iters=0), tensor)[0].records[0].nre
        with pytest.raises(DivergenceError, match="exceeded the divergence guard") as err:
            run(cfg, tensor)
        assert err.value.iteration == 1
        assert np.isfinite(err.value.value) and err.value.value > 1e6 * max(1.0, abs(nre0))

    def test_stopping_rule_two_consecutive(self):
        tensor, _ = small_gaussian_instance(seed=11)
        cfg = gaussian_config(max_iters=5000, tol=1e-4, eval_every=10)
        trace, _ = run(cfg, tensor)
        assert trace.records[-1].iteration < 5000

    def test_lyapunov_recorded_when_enabled(self):
        tensor, _ = small_gaussian_instance(seed=12)
        cfg = gaussian_config(max_iters=30, eval_every=1, lyapunov=True, eta=0.05)
        trace, _ = run(cfg, tensor)
        values = [r.lyapunov for r in trace.records[1:]]
        assert all(v is not None for v in values)

    @pytest.mark.parametrize("c1, c2", [(0.6, 0.8), (0.8, 0.3)])
    def test_lyapunov_column_uses_the_schedule_gap(self, c1, c2, monkeypatch):
        gaps = []
        real = solver.lyapunov

        def spy(*args, gamma_k):
            gaps.append(gamma_k)
            return real(*args, gamma_k=gamma_k)

        monkeypatch.setattr(solver, "lyapunov", spy)
        tensor, _ = small_gaussian_instance(seed=12)
        cfg = gaussian_config(max_iters=12, eval_every=1, lyapunov=True, eta=0.05,
                              c1=c1, c2=c2, tol=0.0)
        trace, _ = run(cfg, tensor)
        assert [r.iteration for r in trace.records[1:]] == list(range(1, 13))
        assert gaps == [abs(a - b) for a, b in (inertial_coefficients(c1, c2, k)
                                                for k in range(1, 13))]
        assert gaps[-1] > 0

    @pytest.mark.parametrize("estimator", estimators.ESTIMATOR_KINDS)
    def test_every_estimator_reduces_the_objective(self, estimator):
        tensor, _ = small_gaussian_instance(seed=13)
        cfg = gaussian_config(estimator=estimator, batch=3, max_iters=200)
        trace, _ = run(cfg, tensor)
        assert trace.manifest["config"]["estimator"] == estimator
        assert trace.records[-1].nre < trace.records[0].nre

    def test_manifest_states_each_setting_once(self):
        tensor, _ = small_gaussian_instance(seed=13)
        cfg = gaussian_config(max_iters=0, seed=4, max_step=0.05)
        trace, _ = run(cfg, tensor)
        assert sorted(trace.manifest) == ["config", "config_hash"]
        assert trace.manifest["config"]["seed"] == 4
        assert trace.manifest["config"]["max_step"] == 0.05

    @pytest.mark.parametrize("dims", [(8, 6), (4, 3, 2, 3)])
    def test_order_generality(self, dims):
        # Matrices (order 2) and order-4 tensors go through the same machinery.
        rng = np.random.default_rng(0)
        truth = KruskalModel([0.2 + 0.8 * rng.random((d, 2)) for d in dims])
        tensor = DenseTensor(rng.poisson(truth.to_dense().values).astype(float))
        cfg = SolverConfig(rank=2, loss=LossSpec("poisson-identity"),
                           generator=GeneratorSpec("negative-entropy"),
                           regularizer=RegularizerSpec("nonnegative-indicator"),
                           estimator="saga", eta=0.2, max_iters=400, seed=3)
        trace, _ = run(cfg, tensor)
        assert trace.records[-1].nre < 0.5 * trace.records[0].nre

    def test_above_desk_scale_sparse_needs_sampled_objective(self):
        # 5.76M entries: stays sparse, exact objectives are refused, and the
        # solver runs against the per-fiber sparse index with sampled NRE.
        from gcpd.errors import ConfigError as CE
        from gcpd.losses import objective
        from gcpd.tensors import SparseTensorCOO
        rng = np.random.default_rng(0)
        dims = (200, 180, 160)
        total = int(np.prod(dims))
        lin = rng.choice(total, size=5000, replace=False)
        idx = np.empty((5000, 3), dtype=np.int64)
        r = lin.copy()
        for n, d in enumerate(dims):
            idx[:, n] = r % d
            r //= d
        sp = SparseTensorCOO(dims, idx, rng.poisson(3.0, size=5000) + 1.0)
        cfg = SolverConfig(rank=2, loss=LossSpec("poisson-identity"),
                           generator=GeneratorSpec("negative-entropy"),
                           regularizer=RegularizerSpec("nonnegative-indicator"),
                           estimator="sgd", eta=0.2, max_iters=100,
                           eval_samples=5000, eval_every=50, seed=1)
        with pytest.raises(CE, match="sample"):
            objective(cfg.loss, sp, KruskalModel(
                [np.full((d, 2), 0.1) for d in dims]))
        trace, model = run(cfg, sp)
        assert len(trace.records) >= 3
        assert all(np.isfinite(r.nre) for r in trace.records)


class TestRunBoundaryGuards:
    def test_off_domain_data_rejected_without_prior_check(self):
        # One non-integer count in a sparse tensor: a small sampled objective
        # would rarely see it, so only the run's own check can catch it.
        dims = (30, 20, 20)
        idx = [[0, 0, 0], [5, 3, 2], [29, 19, 19]]
        tensor = SparseTensorCOO(dims, idx, [1.0, 2.5, 3.0])
        cfg = SolverConfig(rank=2, loss=LossSpec("poisson-identity"),
                           generator=GeneratorSpec("negative-entropy"),
                           estimator="sgd", max_iters=0, eval_samples=10)
        with pytest.raises(LossDomainError, match="not a nonnegative integer"):
            run(cfg, tensor)


class TestStreams:
    """Each consumer of randomness keeps its child of the run seed; child 1
    is spawned and read by nothing."""

    @pytest.mark.parametrize("attr,index", [("rng", 0), ("eval_rng", 2), ("diag_rng", 4)])
    def test_run_state_stream_keeps_its_index(self, attr, index):
        tensor, _ = small_gaussian_instance()
        cfg = gaussian_config(seed=31).resolved(tensor.shape)
        state = SolverRunState(cfg, tensor, initial_factors(
            cfg, tensor.shape, np.random.default_rng(0)))
        seq = getattr(state, attr).bit_generator.seed_seq
        assert (seq.entropy, seq.spawn_key) == (31, (index,))

    def test_initial_factors_come_from_stream_three(self):
        tensor, _ = small_gaussian_instance()
        cfg = gaussian_config(seed=31, max_iters=0)
        _, model = run(cfg, tensor)
        want = initial_factors(cfg.resolved(tensor.shape), tensor.shape,
                               np.random.default_rng(np.random.SeedSequence(31).spawn(5)[3]))
        assert [a.tobytes() for a in model.factors] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("kw", [dict(estimator="saga", c1=0.6, c2=0.8),
                                    dict(estimator="sgd", batch=3, c1=0.6, c2=0.8),
                                    dict(estimator="full")], ids=["saga", "sgd", "full"])
    def test_hand_driven_steps_from_the_start_end_as_run(self, kw):
        # run is SolverRunState at the stream-3 start plus `step` per iteration.
        tensor, _ = small_gaussian_instance(seed=6)
        cfg = gaussian_config(seed=13, max_iters=90, tol=0.0, **kw)
        _, model = run(cfg, tensor)
        resolved = cfg.resolved(tensor.shape)
        state = SolverRunState(resolved, tensor, run_start(cfg, tensor.shape))
        for _ in range(90):
            step(state)
        assert [a.tobytes() for a in state.factors] == [a.tobytes() for a in model.factors]


class TestRunStateConfig:
    def test_state_resolves_its_config(self):
        tensor, _ = small_gaussian_instance()
        cfg = SolverConfig(rank=2, loss=LossSpec("gaussian"))
        state = SolverRunState(cfg, tensor, run_start(cfg, tensor.shape))
        resolved = cfg.resolved(tensor.shape)
        assert state.config == resolved
        assert resolved.resolved(tensor.shape) == resolved   # idempotent
        assert state.estimator.batches == [4, 4, 4]            # batch 2 * rank

    @pytest.mark.parametrize("estimator", estimators.ESTIMATOR_KINDS)
    def test_unresolved_and_resolved_configs_step_alike(self, estimator):
        tensor, _ = generate(SyntheticSpec(shape=(6, 5, 4), rank=2,
                                           distribution="gamma", seed=8))
        cfg = SolverConfig(rank=2, loss=LossSpec("gamma"), estimator=estimator, seed=8)
        start = run_start(cfg, tensor.shape)
        states = [SolverRunState(c, tensor, [a.copy() for a in start])
                  for c in (cfg, cfg.resolved(tensor.shape))]
        for _ in range(40):
            modes = [step(state) for state in states]
            assert modes[0] == modes[1]
            assert ([a.tobytes() for a in states[0].factors]
                    == [a.tobytes() for a in states[1].factors])


class TestStepCallCount:
    """Python calls into gcpd per step: a count that host speed cannot move.

    The bounds are today's counts over the first 256 steps (one draw
    window, group reads included) of small entropic gamma runs whose passes
    are one row block: 20.5, 13.6 and 34.4 calls per step for sgd, saga and
    full. A change that adds a call to every step fails.
    """

    BOUNDS = {"sgd": 5246, "saga": 3469, "full": 8815}

    @staticmethod
    def _state(estimator):
        tensor, _ = generate(SyntheticSpec(shape=(8, 7, 6), rank=2,
                                           distribution="gamma", seed=5))
        cfg = gamma_config(estimator=estimator, batch=3).resolved(tensor.shape)
        return SolverRunState(cfg, tensor, run_start(cfg, tensor.shape))

    @pytest.mark.parametrize("estimator", estimators.ESTIMATOR_KINDS)
    def test_calls_per_step_stay_at_most_the_checked_step(self, estimator):
        state = self._state(estimator)
        root = os.path.dirname(solver.__file__) + os.sep
        calls = 0

        def profile(frame, event, arg):   # a generator resume counts as a call
            nonlocal calls
            if event == "call" and frame.f_code.co_filename.startswith(root):
                calls += 1

        sys.setprofile(profile)
        try:
            for _ in range(256):
                step(state)
        finally:
            sys.setprofile(None)
        assert 0 < calls <= self.BOUNDS[estimator]

    def test_sgd_step_makes_one_checked_call_per_layer(self, monkeypatch):
        # The layer pin: a one-block sgd pass is one checked Khatri-Rao call
        # and one checked derivative call, made through the estimators
        # module's names, as a tracer that wraps those names sees them.
        state = self._state("sgd")
        counts = {}
        for name in ("khatri_rao_rows", "loss_deriv"):
            def counted(*args, _fn=getattr(estimators, name), _name=name):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(estimators, name, counted)
        for _ in range(64):
            counts.update(khatri_rao_rows=0, loss_deriv=0)
            step(state)
            assert counts == {"khatri_rao_rows": 1, "loss_deriv": 1}


class TestObservationDoesNotPerturb:
    def test_diagnostics_keep_the_sampled_trace(self):
        tensor, _ = generate(SyntheticSpec(shape=(8, 7, 6), rank=2,
                                           distribution="gamma", seed=12))
        cfg = gamma_config(eval_samples=60, eval_every=5, tol=5e-2, max_iters=400,
                           record_timing=False, seed=3)
        plain, _ = run(cfg, tensor)
        observed, _ = run(dataclasses.replace(cfg, diagnostics=True), tensor)
        assert observed.records[-1].gamma is not None
        assert [(r.iteration, r.nre) for r in observed.records] == \
            [(r.iteration, r.nre) for r in plain.records]
        assert observed.eta_history == plain.eta_history
        # The tolerance stop fired: the stopping iteration is part of the trace.
        assert plain.records[-1].iteration < cfg.max_iters
