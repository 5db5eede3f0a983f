"""Bregman generators, divergences, and the closed-form mirror-prox step.

Two coordinate-wise generators are shipped:

* ``squared-euclidean``: psi(a) = a^2/2, so D(x, y) = ||x - y||^2/2.
* ``negative-entropy``: psi(a) = a log a on a > 0, so
  D(x, y) = sum x log(x/y) - x + y (generalized KL).

The prox step solves  argmin_A  h(A) + <g, A - anchor> + D(A, anchor)/eta
coordinate-wise in closed form for each supported (generator, regularizer)
pair; no generic inner solver ships. Entropy iterates are floored at `FLOOR`
so they stay strictly inside the generator's domain and the gradient of psi
stays Lipschitz on the iterate box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LossDomainError

GENERATOR_KINDS = ("squared-euclidean", "negative-entropy")
REGULARIZER_KINDS = ("zero", "nonnegative-indicator", "squared-l2", "l1")

# Keeps exp() finite in the multiplicative update; the divergence guard in the
# solver handles genuinely runaway steps.
_MAX_EXPONENT = 700.0

# Positivity floor of entropy iterates (anchors, gradient points, prox output).
FLOOR = 1e-12


@dataclass(frozen=True)
class GeneratorSpec:
    """Bregman generator kind."""

    kind: str = "squared-euclidean"

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(f"unknown generator {self.kind!r}; choose from {GENERATOR_KINDS}")

    @property
    def entropic(self) -> bool:
        return self.kind == "negative-entropy"


@dataclass(frozen=True)
class RegularizerSpec:
    """Per-block regularizer h_n. `nonnegative` composes with squared-l2 / l1."""

    kind: str = "zero"
    weight: float = 0.0
    nonnegative: bool = False

    def __post_init__(self):
        if self.kind not in REGULARIZER_KINDS:
            raise ConfigError(
                f"unknown regularizer {self.kind!r}; choose from {REGULARIZER_KINDS}")
        if self.kind in ("squared-l2", "l1") and not 0 <= self.weight < np.inf:
            raise ConfigError("regularizer weight must be finite and >= 0")
        if self.kind in ("zero", "nonnegative-indicator") and self.weight != 0.0:
            raise ConfigError(f"regularizer {self.kind!r} carries no weight")

    @property
    def enforces_nonnegative(self) -> bool:
        return self.kind == "nonnegative-indicator" or self.nonnegative


def _check_entropy_domain(a, name, strict):
    # The argmin entry is the min, or the first NaN where min gives NaN, read
    # without the ufunc reduction's set-up; a fault is named by the min.
    if a.size == 0:
        return
    low = a.item(a.argmin())
    if strict and low <= 0:
        raise LossDomainError(f"negative-entropy: {name} has entry {a.min()} <= 0")
    if not strict and low < 0:
        raise LossDomainError(f"negative-entropy: {name} has entry {a.min()} < 0")


def bregman_div(spec: GeneratorSpec, x, y) -> float:
    """D_psi(x, y) = psi(x) - psi(y) - <grad psi(y), x - y> summed over entries."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise LossDomainError(f"bregman_div shape mismatch {x.shape} vs {y.shape}")
    if spec.entropic:
        _check_entropy_domain(x, "first argument", strict=False)
        _check_entropy_domain(y, "second argument", strict=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            xlog = np.where(x > 0, x * np.log(x / y), 0.0)
        return float(np.sum(xlog - x + y))
    d = x - y
    return float(0.5 * np.sum(d * d))


def regularizer_value(spec: RegularizerSpec, a) -> float:
    """h(a); +inf when an indicator constraint is violated."""
    a = np.asarray(a, dtype=np.float64)
    if spec.enforces_nonnegative and a.size and a.min() < 0:
        return float("inf")
    if spec.kind == "squared-l2":
        return float(0.5 * spec.weight * np.sum(a * a))
    if spec.kind == "l1":
        return float(spec.weight * np.sum(np.abs(a)))
    return 0.0


def mirror_prox_step(gen: GeneratorSpec, reg: RegularizerSpec, anchor, grad,
                     eta: float, *, check: bool = True) -> np.ndarray:
    """Solve argmin_A h(A) + <grad, A - anchor> + D_psi(A, anchor)/eta in closed form.

    `check=False` skips the argument checks (eta > 0, matching shapes, and
    under entropy an anchor > 0): only for arguments known to pass them,
    which then give the same step, bit for bit."""
    if check and not eta > 0:
        raise ConfigError(f"stepsize must be positive, got {eta}")
    anchor = np.asarray(anchor, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if check and anchor.shape != grad.shape:
        raise LossDomainError(f"anchor shape {anchor.shape} != gradient shape {grad.shape}")

    if gen.entropic:
        if check:
            _check_entropy_domain(anchor, "anchor", strict=True)
        if reg.kind in ("zero", "nonnegative-indicator"):
            shift = grad
        elif reg.kind == "l1":
            # Entropy iterates are positive, so |A| contributes weight linearly.
            shift = grad + reg.weight
        else:
            raise ConfigError(
                "no closed form for (negative-entropy, squared-l2); supported pairs: "
                "entropy with {zero, nonnegative-indicator, l1}, "
                "squared-euclidean with {zero, nonnegative-indicator, squared-l2, l1}")
        out = anchor * np.exp(np.minimum(-eta * shift, _MAX_EXPONENT))
        return np.maximum(out, FLOOR)

    z = anchor - eta * grad
    if reg.kind == "zero":
        return z
    if reg.kind == "nonnegative-indicator":
        return np.maximum(z, 0.0)
    if reg.kind == "squared-l2":
        out = z / (1.0 + eta * reg.weight)
        return np.maximum(out, 0.0) if reg.nonnegative else out
    t = eta * reg.weight   # l1, the one kind left
    if reg.nonnegative:
        return np.maximum(z - t, 0.0)
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
