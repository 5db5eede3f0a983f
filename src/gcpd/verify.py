"""Self-check suites behind `gcpd verify`: independent oracles for the gradient,
prox step, estimator unbiasedness, Khatri-Rao row products, and MSE matching.

Every check pins its tolerance here. The oracles are deliberately independent
of the fast paths they test: finite differences of the objective, a bounded
scalar minimizer for the prox subproblem, brute-force Khatri-Rao
materialization, exhaustive permutation matching, and a per-fiber loop for
sparse fiber reads. Scalar fiber-index conversions, the full dense unfolding,
the exact gaussian block curvature, and the generator psi with its gradient
and the three-point identity are kept here as oracles for tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bregman import (GeneratorSpec, RegularizerSpec, _check_entropy_domain, bregman_div,
                      mirror_prox_step)
from .data import sample_tensor
from .estimators import batch_gradient, full_gradient
from .losses import KINDS, LossSpec, objective
from .metrics import _cost_matrix, match_columns, mse
from .tensors import (DenseTensor, KruskalModel, SparseTensorCOO, TensorShape,
                      data_fibers, khatri_rao_rows)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name}: measured {self.measured:.3e} "
                f"(tolerance {self.tolerance:.1e}) {self.detail}")


def fd_block_gradient(spec: LossSpec, tensor, model: KruskalModel, mode: int,
                      rel_step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the exact objective in one factor block."""
    a = model.factors[mode]
    g = np.zeros_like(a)
    for i in range(a.shape[0]):
        for r in range(a.shape[1]):
            h = rel_step * max(1.0, abs(a[i, r]))
            up = a.copy()
            up[i, r] += h
            down = a.copy()
            down[i, r] -= h
            fp = objective(spec, tensor, model.replace(mode, up)).value
            fm = objective(spec, tensor, model.replace(mode, down)).value
            g[i, r] = (fp - fm) / (2.0 * h)
    return g


def _planted_instance(kind: str, shape, rank: int, seed: int):
    """A small in-domain (tensor, model) pair for the given loss kind."""
    rng = np.random.default_rng(seed)
    model = KruskalModel([0.2 + 0.8 * rng.random((d, rank)) for d in shape])
    distribution = ("bernoulli-odds" if kind.startswith("bernoulli")
                    else kind.split("-")[0])
    return sample_tensor(model, distribution, rng, noise_sigma=0.3), model


def fiber_sum_gradient(spec: LossSpec, tensor, factors, mode: int, deriv) -> np.ndarray:
    """Exact block gradient (1/J_n) sum_j D(j, :)^T H(j, :) / I_n with the loss
    derivative passed in explicitly; the arithmetic of `full_gradient` in one
    piece over the whole unfolding, where `full_gradient` works in row blocks."""
    rows = np.arange(tensor.shape.fiber_count(mode))
    kr = khatri_rao_rows(factors, mode, rows)
    d = deriv(spec, data_fibers(tensor, mode, rows), kr @ factors[mode].T)
    return d.T @ kr / (factors[mode].shape[0] * rows.size)


def check_gradient_fd(kinds=KINDS, shape=(4, 3, 4), rank: int = 2, seed: int = 11,
                      tol: float = 1e-5, deriv_fn=None) -> CheckResult:
    """full_gradient vs central finite differences of the objective.

    Per-entry error is measured relative to the gradient's max magnitude.
    `deriv_fn(spec, x, m)`, when given, replaces the loss derivative: the
    gradient under test is then :func:`fiber_sum_gradient` with it (used by
    mutation tests).
    """
    worst = 0.0
    for kind in kinds:
        spec = LossSpec(kind)
        tensor, model = _planted_instance(kind, shape, rank, seed)
        for mode in range(len(shape)):
            if deriv_fn is None:
                g = full_gradient(tensor, model.factors, spec, mode)
            else:
                g = fiber_sum_gradient(spec, tensor, model.factors, mode, deriv_fn)
            fd = fd_block_gradient(spec, tensor, model, mode)
            scale = max(float(np.max(np.abs(g))), 1e-6)
            worst = max(worst, float(np.max(np.abs(fd - g))) / scale)
    return CheckResult("gradient-finite-difference", worst <= tol, worst, tol,
                       f"kinds={','.join(kinds)} shape={shape}")


def prox_subproblem_argmin(gen: GeneratorSpec, reg: RegularizerSpec, anchor: float,
                           grad: float, eta: float, lo: float = 1e-8,
                           hi: float = 50.0) -> float:
    """Numeric per-coordinate minimizer of the prox subproblem (oracle path).

    The subproblem is strictly convex on (0, hi) for the shipped pairs, so its
    minimizer is the root of the derivative; 200 bisection steps reach machine
    precision. (A value-comparison minimizer stalls near sqrt(machine eps) and
    cannot certify 1e-8.) Each derivative term below comes from differentiating
    the subproblem definition, not from the shipped closed form.
    """

    def dphi(a):
        if gen.entropic:
            div_term = (np.log(a) - np.log(anchor)) / eta
        else:
            div_term = (a - anchor) / eta
        h_term = 0.0
        if reg.kind == "squared-l2":
            h_term = reg.weight * a
        elif reg.kind == "l1":
            h_term = reg.weight  # nonnegative branch: |a| = a
        return grad + h_term + div_term

    if dphi(lo) >= 0:
        return lo
    if dphi(hi) <= 0:
        return hi
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if dphi(mid) > 0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def check_prox_oracle(trials: int = 1000, seed: int = 5, tol: float = 1e-8) -> CheckResult:
    """Entropy mirror-prox step vs numeric minimization over random triples."""
    rng = np.random.default_rng(seed)
    gen = GeneratorSpec("negative-entropy")
    regs = [RegularizerSpec("zero"), RegularizerSpec("nonnegative-indicator"),
            RegularizerSpec("l1", weight=0.3, nonnegative=True)]
    worst = 0.0
    for t in range(trials):
        anchor = 0.1 + 1.9 * rng.random()
        grad = -2.0 + 4.0 * rng.random()
        eta = 0.01 + 0.99 * rng.random()
        reg = regs[t % len(regs)]
        closed = mirror_prox_step(gen, reg, np.array([anchor]), np.array([grad]), eta)[0]
        numeric = prox_subproblem_argmin(gen, reg, anchor, grad, eta)
        worst = max(worst, abs(closed - numeric))
    return CheckResult("prox-oracle", worst <= tol, worst, tol,
                       f"{trials} random (anchor, grad, eta) triples")


def check_estimator_unbiasedness(shape=(3, 4, 2), rank: int = 2, seed: int = 3,
                                 tol: float = 1e-10) -> CheckResult:
    """Mean of all single-fiber estimates equals the full gradient, every mode."""
    worst = 0.0
    for kind in ("gaussian", "poisson-identity"):
        spec = LossSpec(kind)
        tensor, model = _planted_instance(kind, shape, rank, seed)
        for mode in range(len(shape)):
            j_n = tensor.shape.fiber_count(mode)
            full = full_gradient(tensor, model.factors, spec, mode)
            acc = np.zeros_like(full)
            for j in range(j_n):
                acc += batch_gradient(tensor, model.factors, spec, mode, [j])
            worst = max(worst, float(np.max(np.abs(acc / j_n - full))))
    return CheckResult("estimator-unbiasedness", worst <= tol, worst, tol,
                       f"fiber enumeration, shape={shape}")


def materialize_khatri_rao(factors, mode: int) -> np.ndarray:
    """Brute-force Khatri-Rao product of all factors except `mode` (oracle)."""
    rest = [factors[m] for m in range(len(factors)) if m != mode]
    out = rest[0]
    for a in rest[1:]:
        out = (a[:, None, :] * out[None, :, :]).reshape(-1, out.shape[1])
    return out


def check_khatri_rao(seed: int = 7) -> CheckResult:
    """Row products stacked over all fibers equal the materialized product exactly."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dims in [(2, 2, 2), (3, 2, 4), (2, 3, 2, 2)]:
        factors = [rng.standard_normal((d, 3)) for d in dims]
        for mode in range(len(dims)):
            j_n = int(np.prod(dims)) // dims[mode]
            rows = khatri_rao_rows(factors, mode, np.arange(j_n))
            mat = materialize_khatri_rao(factors, mode)
            worst = max(worst, float(np.max(np.abs(rows - mat))))
    return CheckResult("khatri-rao-materialization", worst == 0.0, worst, 0.0,
                       "exact equality on small shapes")


def fiber_rows_loop(tensor: SparseTensorCOO, mode: int, rows) -> np.ndarray:
    """Sparse unfolding rows read one fiber at a time from the per-mode fiber
    index (oracle for the vectorized `SparseTensorCOO.fiber_rows`)."""
    rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
    out = np.zeros((rows.size, tensor.shape.dims[mode]))
    order, starts = tensor.fiber_index(mode)
    for b, j in enumerate(rows):
        sel = order[starts[j]:starts[j + 1]]
        out[b, tensor.indices[sel, mode]] = tensor.values[sel]
    return out


def fiber_to_multi_index(shape: TensorShape, mode: int, row: int) -> tuple[int, ...]:
    """Multi-index over modes != mode for one fiber row (smallest mode fastest)."""
    shape._check_mode(mode)
    j_n = shape.fiber_count(mode)
    row = int(row)
    if not 0 <= row < j_n:
        raise IndexError(f"fiber row {row} out of range [0, {j_n}) for mode {mode}")
    out = []
    r = row
    for m, d in enumerate(shape.dims):
        if m == mode:
            continue
        out.append(r % d)
        r //= d
    return tuple(out)


def multi_index_to_fiber(shape: TensorShape, mode: int, multi) -> int:
    """Inverse of :func:`fiber_to_multi_index`."""
    shape._check_mode(mode)
    multi = tuple(int(i) for i in multi)
    others = [m for m in range(shape.order) if m != mode]
    if len(multi) != len(others):
        raise IndexError("multi-index length must be order - 1")
    row = 0
    stride = 1
    for i, m in zip(multi, others):
        if not 0 <= i < shape.dims[m]:
            raise IndexError(f"index {i} out of range for mode {m}")
        row += i * stride
        stride *= shape.dims[m]
    return row


def unfold(tensor: DenseTensor, mode: int) -> np.ndarray:
    """Full mode-n unfolding X_(n) of a dense tensor, shape (J_n, I_n)."""
    tensor.shape._check_mode(mode)
    i_n = tensor.dims[mode]
    return np.reshape(np.moveaxis(tensor.values, mode, 0), (i_n, -1), order="F").T


def gaussian_block_curvature(model: KruskalModel, mode: int) -> float:
    """Exact Lipschitz constant of the mode-`mode` block gradient under the
    gaussian loss: lambda_max of the Hadamard product of the other factor
    Gram matrices, divided by the entry count."""
    g = np.ones((model.rank, model.rank))
    for m, a in enumerate(model.factors):
        if m == mode:
            continue
        g *= a.T @ a
    lam = float(np.linalg.eigvalsh(g)[-1])
    return lam / model.shape.total


def generator_value(spec: GeneratorSpec, a) -> float:
    """sum of psi over the entries of a."""
    a = np.asarray(a, dtype=np.float64)
    if spec.entropic:
        _check_entropy_domain(spec, a, "argument", strict=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = a * np.log(a)
        return float(np.sum(np.where(a > 0, raw, 0.0)))
    return float(0.5 * np.sum(a * a))


def generator_grad(spec: GeneratorSpec, a) -> np.ndarray:
    """Elementwise gradient of psi."""
    a = np.asarray(a, dtype=np.float64)
    if spec.entropic:
        _check_entropy_domain(spec, a, "argument", strict=True)
        return 1.0 + np.log(a)
    return a.copy()


def three_point_check(spec: GeneratorSpec, x, y, z) -> float:
    """Residual of the three-point identity; ~0 up to roundoff for valid inputs."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    lhs = bregman_div(spec, x, z)
    rhs = bregman_div(spec, x, y) + bregman_div(spec, y, z) + float(
        np.sum((generator_grad(spec, y) - generator_grad(spec, z)) * (x - y)))
    return lhs - rhs


def exhaustive_match(cost: np.ndarray) -> tuple[tuple[int, ...], float]:
    """Minimum-cost column matching by trying every permutation (oracle for
    :func:`metrics.match_columns`); the first minimum found wins, and the
    total is summed in estimate-column order."""
    r = cost.shape[0]
    best_perm = None
    best_cost = np.inf
    for perm in itertools.permutations(range(r)):
        c = sum(cost[i, perm[i]] for i in range(r))
        if c < best_cost:
            best_cost = c
            best_perm = perm
    return tuple(best_perm), float(best_cost)


def check_mse_matching(pairs: int = 50, seed: int = 13) -> CheckResult:
    """Optimal assignment equals the exhaustive oracle exactly; scale/permutation
    invariance."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(pairs):
        r = int(rng.integers(1, 7))
        rows = int(rng.integers(2, 9))
        a = rng.standard_normal((rows, r))
        b = rng.standard_normal((rows, r))
        cost = _cost_matrix(a, b)
        _, c_ex = exhaustive_match(cost)
        _, c_as = match_columns(cost)
        worst = max(worst, abs(c_ex - c_as))
        ok = ok and (c_ex == c_as)
        perm = rng.permutation(r)
        scales = 0.5 + rng.random(r)
        shuffled = b[:, perm] * scales
        ok = ok and mse(shuffled, b).value < 1e-24
    return CheckResult("mse-matching", ok and worst == 0.0, worst, 0.0,
                       f"{pairs} random pairs, rank <= 6")


def run_all(quick: bool = False) -> list[CheckResult]:
    prox_trials = 200 if quick else 1000
    mse_pairs = 20 if quick else 50
    return [
        check_gradient_fd(),
        check_prox_oracle(trials=prox_trials),
        check_estimator_unbiasedness(),
        check_khatri_rao(),
        check_mse_matching(pairs=mse_pairs),
    ]
