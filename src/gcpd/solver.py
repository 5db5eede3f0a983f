"""Inertial block-randomized stochastic mirror descent for generalized CP fitting.

Each iteration takes one mode n and a batch of mode-n fibers, forms two
extrapolated points from the one-step momentum direction A^k - A^{k-1}
(`anchor` for the proximal term with coefficient alpha_k, the gradient point
with coefficient beta_k), estimates the block gradient at the gradient point,
and applies one mirror-prox step to the anchor. All other blocks are copied.
The schedules are alpha_k = c1 (k-1)/(k+2), beta_k = c2 (k-1)/(k+2), so the
first step has no inertia, and A^{-1} := A^0 at the start. There is one step
function, :func:`step`; the no-inertia baseline is the config c1 = c2 = 0.

The momentum buffers hold the global previous iterates, so the momentum
direction for mode n is nonzero only when mode n also moved at the previous
iteration; this is the literal block-randomized update rule.

The modes and fiber batches are drawn from stream 0 a window of
`_DRAW_WINDOW` steps at a time: one call draws the window's modes (uniform
and independent), then each mode's batches in the window are drawn at once,
each a uniform B_n-subset of its J_n fibers, independent of the others
(Floyd's algorithm, vectorized over the batches; see `_batches`). The window
length is fixed, so the draws of step k are a function of the seed and k
alone: the evaluation cadence, diagnostics, the truth and the iteration
budget never move the iterates.
The data fibers of a mode's batches in the window are read a group of
batches at a time, when the first batch of a group is needed
(`estimators.fiber_groups`), and handed to the estimator with the rows.

:func:`run` validates its inputs once, at the run boundary: the config
(`SolverConfig.resolved`), and, when `SolverRunState` builds the estimator
state, the data against the loss domain and the start against the tensor's
shape and, under a nonnegative loss, for negative entries. It draws the
initial factors from stream 3, so a run is a function of its config, tensor
and truth. The steps then trust what the run builds: fiber rows drawn
without replacement and sorted are in range and unique, the estimator state
matches the factors by construction, and each step keeps the factors in the
loss domain (it floors the anchor and the gradient point, and the prox keeps
its output nonnegative where the loss needs it). So a step calls its traced
layers with `check=False`: the estimator's `khatri_rao_rows`, `data_fibers`,
`loss_deriv` and `full_gradient` calls, and `mirror_prox_step`, whose eta,
shape and anchor-domain tests the resolved config and the floors already
pass. Guards that can still fire (non-finite factors, the divergence and
overflow bounds) stay in the loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bregman import (FLOOR, GeneratorSpec, RegularizerSpec, mirror_prox_step,
                      regularizer_value)
from .errors import ConfigError, DataError, DivergenceError
from .estimators import (ESTIMATOR_KINDS, EstimatorState, estimate_gradient, fiber_groups,
                         vr_diagnostics)
from .losses import LossSpec, objective
from .metrics import EPS_AUX, lyapunov, model_mse
from .tensors import KruskalModel, TensorShape


# Steps whose modes and fiber batches are drawn at once (see the module
# docstring). Fixed, so the draws never depend on the run's settings.
_DRAW_WINDOW = 256

# Stepsizes of the reference experiments, per loss family.
_DEFAULT_ETA = {"gaussian": 0.1, "gamma": 0.1, "poisson-identity": 0.2, "poisson-log": 0.2,
                "bernoulli-odds": 0.2, "bernoulli-logit": 0.2}


@dataclass(frozen=True)
class SolverConfig:
    """All solver hyperparameters; `resolved` fills the defaults and checks them."""

    rank: int
    loss: LossSpec
    generator: GeneratorSpec | None = None              # default by loss, see resolved
    regularizer: RegularizerSpec | tuple | None = None  # default by loss, see resolved
    estimator: str = "saga"
    batch: int | None = None          # default 2 * rank
    eta: float | None = None          # constant stepsize; default _DEFAULT_ETA[loss]
    c1: float = 0.6
    c2: float = 0.8
    max_iters: int = 5000
    tol: float = 1e-10
    eval_every: int | None = None     # default: one effective epoch
    eval_samples: int | None = None   # None = exact objective (desk scale)
    seed: int = 0
    init_max: float = 0.5
    max_step: float | None = None     # per-coordinate cap on |eta * gradient|;
                                      # None resolves to 0.02 under entropy
                                      # (log-ratio trust region), inf otherwise
    diagnostics: bool = False         # per-mode Gamma tracking at eval points
    lyapunov: bool = False            # composite potential at eval points
    record_timing: bool = True

    def _validate(self):
        if self.rank < 1:
            raise ConfigError("rank must be >= 1")
        if not (0.0 <= self.c1 <= 1.0 and 0.0 <= self.c2 <= 1.0):
            raise ConfigError("inertial coefficients c1, c2 must lie in [0, 1]")
        if not 0 < self.eta < math.inf:
            raise ConfigError("eta must be positive and finite")
        if self.estimator not in ESTIMATOR_KINDS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.max_iters < 0:
            raise ConfigError("max_iters must be >= 0")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        if self.eval_samples is not None and self.eval_samples < 1:
            raise ConfigError("eval_samples must be >= 1")
        if not 0 < self.init_max < math.inf:
            raise ConfigError("init_max must be positive and finite")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.loss.nonnegative and not (self.generator.entropic or all(
                r.enforces_nonnegative for r in self.regularizer)):
            raise ConfigError(
                f"loss {self.loss.kind!r} needs a nonnegative model: use the "
                "negative-entropy generator or nonnegative regularizers")
        if self.generator.entropic and any(r.kind == "squared-l2" for r in self.regularizer):
            raise ConfigError("no closed-form prox for (negative-entropy, squared-l2)")
        if self.lyapunov:
            # s bounds |alpha_k - beta_k| for k <= max_iters.
            ratio, _ = inertial_coefficients(1.0, 0.0, max(self.max_iters, 1))
            s = ratio * abs(self.c1 - self.c2)
            coeff = 1.0 - s - EPS_AUX / 3.0
            if coeff < 0:
                raise ConfigError("Lyapunov forward coefficient negative at configuration: "
                                  f"1 - s - eps/3 = {coeff:.3g} (s = {s:.3g})")

    def resolved(self, shape: TensorShape) -> "SolverConfig":
        """Fill every default and check every setting against the tensor shape.
        A nonnegative loss defaults to negative-entropy with the nonnegative
        indicator and makes every l1 or squared-l2 regularizer nonnegative;
        the other losses default to squared-euclidean with zero."""
        nonnegative = self.loss.nonnegative
        batch = self.batch if self.batch is not None else 2 * self.rank
        if batch < 1:
            raise ConfigError("batch must be >= 1")
        eval_every = self.eval_every
        if eval_every is None:
            mean_j = sum(shape.fiber_count(n) for n in range(shape.order)) / shape.order
            eval_every = max(1, math.ceil(mean_j / batch))
        regs = self.regularizer
        if regs is None:
            regs = RegularizerSpec("nonnegative-indicator" if nonnegative else "zero")
        if isinstance(regs, RegularizerSpec):
            regs = (regs,) * shape.order
        if len(regs) != shape.order:
            raise ConfigError(f"need {shape.order} per-mode regularizers, got {len(regs)}")
        regs = tuple(dataclasses.replace(r, nonnegative=True)
                     if nonnegative and r.kind in ("l1", "squared-l2") else r for r in regs)
        generator = self.generator or GeneratorSpec(
            "negative-entropy" if nonnegative else "squared-euclidean")
        max_step = self.max_step
        if max_step is None:
            # Entropy updates are multiplicative: cap the per-step log change so
            # barrier-zone derivative spikes (~1/eps^2 scale) cannot compound
            # into overflow. Additive euclidean steps are left uncapped.
            max_step = 0.02 if generator.entropic else float("inf")
        if not max_step > 0:
            raise ConfigError("max_step must be positive")
        eta = self.eta if self.eta is not None else _DEFAULT_ETA[self.loss.kind]
        out = dataclasses.replace(self, generator=generator, regularizer=regs, eta=eta,
                                  batch=int(batch), eval_every=int(eval_every),
                                  max_step=float(max_step))
        out._validate()
        return out

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SolverConfig":
        """Rebuild a config saved by `to_dict`; DataError unless each saved
        object names exactly the fields of its dataclass."""
        d = _saved_fields(cls, d)
        d["loss"] = LossSpec(**_saved_fields(LossSpec, d["loss"]))
        if d["generator"] is not None:
            d["generator"] = GeneratorSpec(**_saved_fields(GeneratorSpec, d["generator"]))
        regs = d["regularizer"]
        if regs is not None:  # one spec for every mode, or a list of per-mode specs
            one = not isinstance(regs, (list, tuple))
            specs = tuple(RegularizerSpec(**_saved_fields(RegularizerSpec, r))
                          for r in ([regs] if one else regs))
            d["regularizer"] = specs[0] if one else specs
        return cls(**d)

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


# The JSON values a saved field of each scalar type may hold (an int stands
# for a float). Fields holding specs are checked as from_dict rebuilds them.
_SAVED_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,),
                "None": (type(None),)}


def _saved_fields(cls, saved) -> dict:
    """A copy of `saved`, an object that must name exactly the fields of `cls`,
    each scalar one holding a value its type admits."""
    if not isinstance(saved, dict):
        raise DataError(f"saved {cls.__name__} is not an object")
    names = {f.name for f in dataclasses.fields(cls)}
    if saved.keys() != names:
        raise DataError(f"saved {cls.__name__} lacks fields {sorted(names - saved.keys())} "
                        f"and has unknown fields {sorted(saved.keys() - names)}")
    for f in dataclasses.fields(cls):
        types = f.type.split(" | ")
        if all(t in _SAVED_TYPES for t in types):
            value = saved[f.name]
            admits = tuple(k for t in types for k in _SAVED_TYPES[t])
            if not isinstance(value, admits) or (isinstance(value, bool) and bool not in admits):
                raise DataError(f"saved {cls.__name__} field {f.name!r} is {value!r}, "
                                f"not {f.type}")
    return dict(saved)


@dataclass
class TraceRecord:
    iteration: int
    seconds: float
    nre: float
    mse_mean: float | None = None
    mse_modes: tuple | None = None
    lyapunov: float | None = None
    gamma: float | None = None
    gamma_modes: tuple | None = None


@dataclass
class IterationTrace:
    records: list = field(default_factory=list)
    manifest: dict = field(default_factory=dict)
    eta_history: list = field(default_factory=list)


def _streams(seed: int) -> list:
    """Independent child seeds of one run: 0 mode and fiber draws, 2 sampled
    evaluation, 3 initial factors, 4 diagnostics. Stream 1 is unused; it stays
    spawned so that the others keep their indices, and so their seeds."""
    return np.random.SeedSequence(seed).spawn(5)


class SolverRunState:
    """The resolved config of one run, its factors plus the one/two-step
    history, RNG streams and pending (mode, rows, fibers) draws. The config
    is resolved against the tensor's shape here (resolving is idempotent),
    and the estimator state it builds checks the data and the factors
    (`EstimatorState`), so a bad start raises before any step."""

    def __init__(self, config: SolverConfig, tensor, factors):
        config = self.config = config.resolved(tensor.shape)
        self.tensor = tensor
        self.factors = list(factors)
        self.prev = list(factors)      # A^{-1} := A^0
        self.prev2 = list(factors)
        self.k = 0
        streams = _streams(config.seed)
        self.rng = np.random.default_rng(streams[0])
        self.draws = iter(())   # refilled by `_draw_window` when used up
        self.eval_rng = np.random.default_rng(streams[2])
        # Diagnostics draw from their own stream so that turning them on
        # cannot move the sampled objective trace.
        self.diag_rng = np.random.default_rng(streams[4])
        self.estimator = EstimatorState(
            config.estimator, tensor, KruskalModel(self.factors), config.loss,
            batch=config.batch)


def _batches(rng: np.random.Generator, j: int, b: int, m: int) -> np.ndarray:
    """m independent uniform b-subsets of range(j), one sorted int64 row each.

    Floyd's algorithm for all m batches at once: column t draws from
    [0, j - b + t] and takes j - b + t instead where it repeats an earlier
    column of its row, so each row is a uniform subset without any redraw,
    b = j included. The duplicate checks cost O(b^2) per batch."""
    tops = np.arange(j - b, j)
    out = rng.integers(0, tops + 1, size=(m, b))
    for t in range(1, b):
        out[(out[:, :t] == out[:, t, None]).any(axis=1), t] = tops[t]
    out.sort(axis=1)
    return out


def _draw_window(state: SolverRunState) -> list:
    """The (mode, rows, fibers) draws of steps k + 1 ... k + _DRAW_WINDOW, from
    stream 0: the modes first, then the batches of each mode in turn.

    `fibers` is the mode's `fiber_groups` iterator over its batches in the
    window, shared by all of its draws: the step that takes a draw takes the
    next fibers from it, so the steps must take the draws in order."""
    order = state.estimator.order
    modes = state.rng.integers(order, size=_DRAW_WINDOW)
    draws = [None] * _DRAW_WINDOW
    for n in range(order):
        steps = np.flatnonzero(modes == n)
        rows = _batches(state.rng, state.estimator.fiber_counts[n],
                        state.estimator.batches[n], steps.size)
        fibers = fiber_groups(state.estimator, n, rows)
        for i, r in zip(steps.tolist(), rows):
            draws[i] = (n, r, fibers)
    return draws


def inertial_coefficients(c1: float, c2: float, k: int) -> tuple[float, float]:
    """alpha_k = c1 (k-1)/(k+2) and beta_k = c2 (k-1)/(k+2); zero at k = 1."""
    ratio = (k - 1) / (k + 2)
    return c1 * ratio, c2 * ratio


def step(state: SolverRunState) -> int:
    """One Algorithm step; exactly one mode is updated. Returns that mode.

    The step's settings are the state's resolved config. Its mode and fiber
    rows come from the state's pending draws, which are refilled a window at a
    time (`_draw_window`) when used up, and the rows' data fibers from the
    mode's group reads in that window.
    """
    config = state.config
    k = state.k + 1
    draw = next(state.draws, None)
    if draw is None:
        state.draws = iter(_draw_window(state))
        draw = next(state.draws)
    n, rows, fibers = draw

    a_cur = state.factors[n]
    a_prev = state.prev[n]
    entropic = config.generator.entropic

    if a_prev is a_cur:
        # The mode did not move at the last step: a + c (a - a) is a + 0.0,
        # signed zeros included (c >= 0), for both points; under entropy the
        # floor takes -0.0 and 0.0 alike, so both points are one clamp of a.
        anchor = point = np.maximum(a_cur, FLOOR) if entropic else a_cur + 0.0
    else:
        alpha_k, beta_k = inertial_coefficients(config.c1, config.c2, k)
        momentum = a_cur - a_prev
        anchor = a_cur + alpha_k * momentum
        point = a_cur + beta_k * momentum
        if entropic:
            anchor = np.maximum(anchor, FLOOR)
            point = np.maximum(point, FLOOR)
    if not entropic and config.loss.nonnegative:
        point = np.maximum(point, 0.0)

    request_factors = list(state.factors)
    request_factors[n] = point
    grad = estimate_gradient(state.estimator, request_factors, n, rows, next(fibers))

    # Trust region: cap |eta * grad| per coordinate. Loss barriers (x/(m+eps)
    # near m = 0) produce ~1/eps^2-scale derivatives that would otherwise turn
    # one update into an overflow. The cap also binds on high-variance
    # estimates away from the barriers (a few percent of SAGA's coordinates).
    if config.max_step < math.inf:
        bound = config.max_step / config.eta
        grad = np.minimum(np.maximum(grad, -bound), bound)  # np.clip, minus its dispatch

    new_block = mirror_prox_step(config.generator, config.regularizer[n], anchor, grad,
                                 config.eta, check=False)
    # The entropic prox output is >= FLOOR unless it holds NaN or +inf, and
    # its argmax entry (the first NaN, if any) is then NaN or +inf.
    if not (new_block.item(new_block.argmax()) < math.inf if entropic
            else np.isfinite(new_block).all()):
        raise DivergenceError(
            f"non-finite factor entries after iteration {k} (mode {n}); "
            "reduce eta or tighten max_step", iteration=k)

    # Factor arrays are never written in place, so the histories share them.
    state.prev2 = state.prev
    state.prev = state.factors
    state.factors = list(state.factors)
    state.factors[n] = new_block
    state.k = k
    return n


def initial_factors(config: SolverConfig, shape: TensorShape,
                    rng: np.random.Generator) -> list:
    """I.i.d. uniform entries on (0, init_max]; strictly positive so entropy
    generators start inside their domain."""
    return [config.init_max * (1.0 - rng.random((d, config.rank)))
            for d in shape.dims]


def _gamma_diagnostics(state: SolverRunState) -> tuple:
    gammas = []
    for n in range(state.tensor.shape.order):
        b = state.estimator.batches[n]
        j_n = state.tensor.shape.fiber_count(n)
        rows = np.sort(state.diag_rng.choice(j_n, size=b, replace=False))
        gammas.append(vr_diagnostics(state.estimator, state.factors, n, rows))
    return tuple(gammas)


def _evaluate(state: SolverRunState, truth, t0) -> TraceRecord:
    config = state.config
    model = KruskalModel(state.factors)
    nre_val = objective(config.loss, state.tensor, model,
                        sample=config.eval_samples, rng=state.eval_rng).value
    seconds = (time.perf_counter() - t0) if config.record_timing else 0.0
    rec = TraceRecord(iteration=state.k, seconds=seconds, nre=nre_val)
    # A zero estimate column (an l1 prox can zero one) leaves the column
    # matching undefined: that evaluation records no MSE, and the run goes on.
    if truth is not None and all(np.linalg.norm(a, axis=0).all() for a in model.factors):
        report = model_mse(model, truth)
        rec.mse_mean = report["mean"]
        rec.mse_modes = tuple(r.value for r in report["per_mode"])
    if config.diagnostics:
        rec.gamma_modes = _gamma_diagnostics(state)
        rec.gamma = float(sum(rec.gamma_modes))
    if config.lyapunov and state.k >= 1:
        phi = nre_val + sum(regularizer_value(r, a)
                            for r, a in zip(config.regularizer, state.factors))
        alpha, beta = inertial_coefficients(config.c1, config.c2, state.k)
        rec.lyapunov = lyapunov(config.generator, state.factors, state.prev, state.prev2,
                                phi, config.eta, gamma_k=abs(alpha - beta)).value
    return rec


def run(config: SolverConfig, tensor, truth: KruskalModel | None = None):
    """Run the solver to the stopping rule; returns (IterationTrace, KruskalModel).

    Stops when the relative objective change is below `tol` at two consecutive
    evaluations, at `max_iters`, or with DivergenceError past the guard.
    Deterministic for a given (config, tensor, truth) triple: the start is
    `initial_factors` drawn from stream 3 of the seed. Raises LossDomainError
    for data outside the loss domain, from the run state's build.
    """
    config = config.resolved(tensor.shape)
    init_rng = np.random.default_rng(_streams(config.seed)[3])
    state = SolverRunState(config, tensor, initial_factors(config, tensor.shape, init_rng))

    trace = IterationTrace(manifest={
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
    })
    t0 = time.perf_counter()
    first = _evaluate(state, truth, t0)
    trace.records.append(first)
    nre0 = first.nre
    prev_nre = first.nre
    consecutive_small = 0
    guard = 1e6 * max(1.0, abs(nre0))

    # Reconstructions involve order-N products; factors past this bound would
    # overflow inside the objective before the nre guard could see it.
    magnitude_bound = 10.0 ** (250.0 / tensor.shape.order)

    for k in range(1, config.max_iters + 1):
        step(state)
        if k % config.eval_every == 0 or k == config.max_iters:
            biggest = max(np.max(np.abs(a)) for a in state.factors)
            if not np.isfinite(biggest) or biggest > magnitude_bound:
                raise DivergenceError(
                    f"factor magnitude {biggest:.3g} exceeded the overflow bound "
                    f"at iteration {k}", iteration=k, value=float(biggest))
            rec = _evaluate(state, truth, t0)
            trace.records.append(rec)
            if not np.isfinite(rec.nre) or rec.nre > guard:
                raise DivergenceError(
                    f"objective {rec.nre} exceeded the divergence guard "
                    f"({guard:.3g}) at iteration {k}", iteration=k, value=rec.nre)
            rel = abs(rec.nre - prev_nre) / max(1.0, abs(prev_nre))
            consecutive_small = consecutive_small + 1 if rel < config.tol else 0
            prev_nre = rec.nre
            if consecutive_small >= 2:
                break
    trace.eta_history = [config.eta] * state.k
    return trace, KruskalModel(state.factors)
