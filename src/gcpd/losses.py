"""Elementwise generalized loss catalog: one table of values and derivatives in
m, the data-domain checks, and the mean objective over a tensor.

The exact objective walks mode 0 in row blocks of about 2^13 entries (at
least one mode-0 slice; `tensors.BLOCK_ENTRIES`, the size the checked
gradient passes use): each block's model values come from
`KruskalModel.slab`, go through the checked `loss_value` with that block's
data, and are summed, so no temporary of an evaluation is larger than a
block and the whole model is never formed. A tensor of one block gets the
value of one `np.mean` over every entry bit for bit; more blocks agree with
it to rounding.

The sampled objective and `check_data_domain` walk their entries in blocks
of `BLOCK_ENTRIES` too. The sampled objective reads the data and model
values of one block of sampled ids at a time and fills their terms into one
(S,) array; one `np.mean` of it gives the value of one mean over every
sample, bit for bit. When a block of any of these passes is outside the loss
domain, the pass re-runs the check over everything it covers, so the fault
is named as one check names it.

Six kinds are shipped. For the three kinds whose formulas contain log(m) or a
division by m (gamma, poisson-identity, bernoulli-odds) every such occurrence
is evaluated at m + epsilon so values and derivatives stay finite at m = 0.
The last column is the mean of x under the model value m.

kind              loss f(x, m)                 dom x        dom m   E[x]
----------------  ---------------------------  -----------  ------  -----------------
gaussian          (1/2)(x - m)^2               reals        reals   m
gamma             x/(m+e) + log(m+e)           x >= 0       m >= 0  m
poisson-identity  m - x log(m+e)               ints >= 0    m >= 0  m
poisson-log       exp(m) - x m                 ints >= 0    reals   exp(m)
bernoulli-odds    log(m+1) - x log(m+e)        {0, 1}       m >= 0  m/(1+m)
bernoulli-logit   log(1+exp(m)) - x m          {0, 1}       reals   exp(m)/(1+exp(m))
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LossDomainError
from .tensors import BLOCK_ENTRIES, KruskalModel, SparseTensorCOO


def _sigmoid(m):
    pos = m >= 0
    em = np.exp(np.where(pos, -m, m))  # exponent always <= 0, cannot overflow
    return np.where(pos, 1.0 / (1.0 + em), em / (1.0 + em))


def _softplus(m):
    # Stable log(1 + exp(m)); the naive form overflows for m > ~700.
    return np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))


def _gamma_deriv(x, m, eps):
    shifted = m + eps
    return -x / shifted ** 2 + 1.0 / shifted


# Per-kind (f, df/dm), each a function of (x, m, epsilon) on float arrays.
_FORMULAS = {
    "gaussian": (lambda x, m, eps: 0.5 * (x - m) ** 2,
                 lambda x, m, eps: m - x),
    "gamma": (lambda x, m, eps: x / (m + eps) + np.log(m + eps),
              _gamma_deriv),
    "poisson-identity": (lambda x, m, eps: m - x * np.log(m + eps),
                         lambda x, m, eps: 1.0 - x / (m + eps)),
    "poisson-log": (lambda x, m, eps: np.exp(m) - x * m,
                    lambda x, m, eps: np.exp(m) - x),
    "bernoulli-odds": (lambda x, m, eps: np.log(m + 1.0) - x * np.log(m + eps),
                       lambda x, m, eps: 1.0 / (m + 1.0) - x / (m + eps)),
    "bernoulli-logit": (lambda x, m, eps: _softplus(m) - x * m,
                        lambda x, m, eps: _sigmoid(m) - x),
}

KINDS = tuple(_FORMULAS)

# Kinds whose formulas are guarded by m -> m + epsilon.
GUARDED_KINDS = ("gamma", "poisson-identity", "bernoulli-odds")

# Kinds whose model parameter must stay nonnegative (Table of constraints).
NONNEGATIVE_KINDS = ("gamma", "poisson-identity", "bernoulli-odds")


@dataclass(frozen=True)
class LossSpec:
    """One loss kind plus its epsilon guard."""

    kind: str
    epsilon: float = 1e-9

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown loss kind {self.kind!r}; choose from {KINDS}")
        if self.kind in GUARDED_KINDS and not self.epsilon > 0:
            raise ConfigError(f"loss kind {self.kind!r} requires epsilon > 0")

    @property
    def nonnegative(self) -> bool:
        """True when the model parameter is constrained to m >= 0."""
        return self.kind in NONNEGATIVE_KINDS


def _check_domain(spec: LossSpec, x, m):
    # The min tests read the argmin entry (the first NaN if any, as min gives
    # NaN) and the others count with count_nonzero: on a step's small arrays
    # both skip the ufunc reduction's set-up. A fault is named as before.
    kind = spec.kind
    if kind in ("gamma",):
        if x.size and x.item(x.argmin()) < 0:
            raise LossDomainError(f"{kind}: data value {x.min()} < 0")
    if kind in ("poisson-identity", "poisson-log"):
        if x.size and (x.item(x.argmin()) < 0 or np.count_nonzero(x != np.floor(x))):
            bad = x.min() if x.min() < 0 else x[x != np.floor(x)].flat[0]
            raise LossDomainError(f"{kind}: data value {bad} is not a nonnegative integer")
    if kind in ("bernoulli-odds", "bernoulli-logit"):
        if np.count_nonzero((x != 0) & (x != 1)):
            bad = x[(x != 0) & (x != 1)].flat[0]
            raise LossDomainError(f"{kind}: data value {bad} is not binary")
    if kind in NONNEGATIVE_KINDS:
        if m.size and m.item(m.argmin()) < 0:
            raise LossDomainError(f"{kind}: model value {m.min()} < 0")


def deriv_kernel(spec: LossSpec):
    """df/dm as a function of (x, m) that skips the domain checks of
    :func:`loss_deriv`; only for values already known to lie in the domain."""
    return functools.partial(_FORMULAS[spec.kind][1], eps=spec.epsilon)


def loss_value(spec: LossSpec, x, m):
    """f(x, m), elementwise over broadcastable arrays."""
    x = np.asarray(x, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    _check_domain(spec, x, m)
    return _FORMULAS[spec.kind][0](x, m, spec.epsilon)


def loss_deriv(spec: LossSpec, x, m):
    """df/dm with the same epsilon substitution as :func:`loss_value`."""
    x = np.asarray(x, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    _check_domain(spec, x, m)
    return _FORMULAS[spec.kind][1](x, m, spec.epsilon)


def check_data_domain(spec: LossSpec, values):
    """Reject data outside the kind's x-domain; ingestion aborts, never clamps.

    Checks `BLOCK_ENTRIES` values at a time, in C order, so that contiguous
    data costs a few block-sized temporaries. A block outside the domain
    names the fault as one check over all the values does."""
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    flat, one = values.reshape(-1), np.ones(1)
    try:
        for lo in range(0, flat.size, BLOCK_ENTRIES):
            _check_domain(spec, flat[lo:lo + BLOCK_ENTRIES], one)
    except LossDomainError:
        _check_domain(spec, values, one)
        raise


@dataclass(frozen=True)
class ObjectiveValue:
    """Mean elementwise loss over the tensor; `exact` is False for sampled estimates."""

    value: float
    exact: bool
    n_terms: int


# Desk scale: tensors this small get exact objectives and are densified at load.
DESK_SCALE = 1 << 22


def objective(spec: LossSpec, tensor, model: KruskalModel, sample: int | None = None,
              rng: np.random.Generator | None = None) -> ObjectiveValue:
    """(1/prod I_n) sum_i f(x_i, m_i), exact or sampled without replacement.

    With `sample` >= the entry count (or None at desk scale) the value is
    exact, summed over mode-0 row blocks (see the module docstring) and
    divided by the entry count once. Otherwise `sample` distinct entries are
    drawn from `rng` and their terms are formed a block of samples at a
    time. A block outside the loss domain raises the error one check over
    the whole tensor and model (or over every sample) raises.
    """
    if tensor.shape.dims != model.shape.dims:
        raise LossDomainError(
            f"tensor shape {tensor.shape.dims} != model shape {model.shape.dims}")
    total = tensor.shape.total
    if sample is None or sample >= total:
        if total > DESK_SCALE and sample is None:
            raise ConfigError(
                f"tensor has {total} entries; pass sample= for an estimated objective")
        x = (tensor.to_dense() if isinstance(tensor, SparseTensorCOO) else tensor).values
        step = max(1, BLOCK_ENTRIES // (total // x.shape[0]))
        value = 0.0
        try:
            for lo in range(0, x.shape[0], step):
                value += np.sum(loss_value(spec, x[lo:lo + step], model.slab(lo, lo + step)))
        except LossDomainError:
            # Name the fault as one check over every entry does: data faults
            # before model faults, extremes over the whole tensor.
            _check_domain(spec, x, model.to_dense().values)
            raise
        return ObjectiveValue(value=float(value / total), exact=True, n_terms=total)
    if rng is None:
        raise ConfigError("sampled objective needs an rng")
    lin = rng.choice(total, size=int(sample), replace=False)
    terms = np.empty(lin.size)
    try:
        for lo in range(0, lin.size, BLOCK_ENTRIES):
            terms[lo:lo + BLOCK_ENTRIES] = loss_value(
                spec, *_sampled(tensor, model, lin[lo:lo + BLOCK_ENTRIES]))
    except LossDomainError:
        _check_domain(spec, *_sampled(tensor, model, lin))
        raise
    return ObjectiveValue(value=float(np.mean(terms)), exact=False, n_terms=int(lin.size))


def _sampled(tensor, model: KruskalModel, lin) -> tuple[np.ndarray, np.ndarray]:
    """Data and model values at the given mode-0-fastest linear ids."""
    return tensor.values_at_linear(lin), model.values_at_linear(lin)
