"""Evaluation quantities: factor MSE with column matching and the composite
Lyapunov diagnostic.

MSE between an estimated and a planted factor normalizes every column to unit
2-norm, matches columns by a minimum-cost assignment, and averages the matched
squared residuals; it is invariant to column order and positive column
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .bregman import GeneratorSpec, bregman_div
from .errors import ConfigError, DataError
from .tensors import KruskalModel


@dataclass(frozen=True)
class MseReport:
    """Matched mean squared error for one factor pair."""

    value: float
    permutation: tuple[int, ...]


@dataclass(frozen=True)
class LyapunovRecord:
    """Composite potential value and its four summands."""

    value: float
    objective_gap: float
    forward_bregman: float
    backward_bregman: float
    gamma_term: float


def _normalized_columns(a: np.ndarray, name: str) -> np.ndarray:
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0):
        raise DataError(f"{name} has a zero column; MSE matching is degenerate")
    return a / norms


def _cost_matrix(estimate: np.ndarray, truth: np.ndarray) -> np.ndarray:
    e = _normalized_columns(estimate, "estimate")
    t = _normalized_columns(truth, "truth")
    r = e.shape[1]
    cost = np.empty((r, r))
    for i in range(r):
        d = e[:, i][:, None] - t
        cost[i, :] = np.sum(d * d, axis=0)
    return cost


def match_columns(cost: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Minimum-cost column matching; returns (permutation, total cost).

    permutation[i] is the truth column matched to estimate column i. The total
    is summed in estimate-column order, as the exhaustive oracle
    (`verify.exhaustive_match`) sums it, so the two agree bit for bit when
    they pick the same permutation.
    """
    _, cols = linear_sum_assignment(cost)  # rows come back as 0..r-1
    perm = tuple(int(j) for j in cols)
    return perm, float(sum(cost[i, j] for i, j in enumerate(perm)))


def mse(estimate, truth) -> MseReport:
    """Permutation- and positive-scale-invariant factor MSE."""
    estimate = np.asarray(estimate, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if estimate.shape != truth.shape:
        raise DataError(f"factor shapes differ: {estimate.shape} vs {truth.shape}")
    cost = _cost_matrix(estimate, truth)
    perm, total = match_columns(cost)
    return MseReport(value=total / cost.shape[0], permutation=perm)


def model_mse(estimate: KruskalModel, truth: KruskalModel) -> dict:
    """Per-mode MSE reports, each matched independently, and their mean."""
    if estimate.shape.dims != truth.shape.dims or estimate.rank != truth.rank:
        raise DataError("estimate and truth models are not the same shape/rank")
    reports = [mse(a, b) for a, b in zip(estimate.factors, truth.factors)]
    return {"per_mode": reports, "mean": float(np.mean([r.value for r in reports]))}


def lyapunov(gen: GeneratorSpec, current, previous, previous2, phi: float,
             gamma: float, eta: float, *, v0: float = 0.0, alpha_weak: float = 0.0,
             gamma_bar: float = 0.0, gamma_k: float = 0.0, eps_aux: float = 0.1,
             tau: float = 1.0) -> LyapunovRecord:
    """Composite potential at one iteration from the last three factor lists.

    current/previous/previous2 are the factor lists A^{k+1}, A^k, A^{k-1};
    `phi` is the full objective at `current`, `gamma` the estimator diagnostic,
    `gamma_k` the |alpha_k - beta_k| * M2 surrogate. Requires a constant
    stepsize run; the forward coefficient must be nonnegative.
    """
    coeff_fwd = 1.0 - eta * alpha_weak - eta * gamma_bar - gamma_k - eps_aux / 3.0
    if coeff_fwd < 0:
        raise ConfigError(
            "Lyapunov forward coefficient is negative; lower eta, gamma_bar or eps_aux")
    d_fwd = sum(bregman_div(gen, b, a) for a, b in zip(current, previous))
    d_bwd = sum(bregman_div(gen, b, a) for a, b in zip(previous, previous2))
    objective_gap = eta * (phi - v0)
    forward = coeff_fwd * d_fwd
    backward = (eta * gamma_bar / 2.0 + eps_aux / 3.0) * d_bwd
    if gamma_bar > 0:
        gamma_term = eta / (2.0 * tau * gamma_bar) * gamma
    elif gamma == 0.0:
        gamma_term = 0.0
    else:
        raise ConfigError("nonzero Gamma diagnostic requires gamma_bar > 0")
    value = objective_gap + forward + backward + gamma_term
    return LyapunovRecord(value=value, objective_gap=objective_gap,
                          forward_bregman=forward, backward_bregman=backward,
                          gamma_term=gamma_term)
