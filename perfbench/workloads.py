"""The three planted workloads, their solver settings, and what each must use.

Every workload is rank 3 with batch 2R, the CLI's per-loss defaults
(c1 = 0.6, c2 = 0.8, negative-entropy geometry with the nonnegative indicator
for the nonnegative losses) and the default evaluation cadence. One seed
drives both the planted data and `SolverConfig.seed`. Every fit gets the
planted factors as `truth`, as `gcpd decompose --truth` does, so the solver
records factor MSE at each evaluation. Budgets are fixed here so that both
commits of a comparison run exactly the same fits.
"""

from __future__ import annotations

from dataclasses import dataclass

from gcpd.bregman import GeneratorSpec, RegularizerSpec
from gcpd.losses import LossSpec
from gcpd.solver import SolverConfig

RANK = 3

# Span names every workload's fit and set-up must record at least one call to.
_COMMON_LAYERS = (
    "data.read_tns", "tensors.sparse_build", "losses.check_data_domain",
    "estimators.init", "estimators.gradient", "tensors.khatri_rao_rows",
    "tensors.data_fibers", "losses.loss_deriv", "losses.objective",
    "bregman.mirror_prox_step", "metrics.model_mse",
)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: tuple
    distribution: str       # gcpd.data.SyntheticSpec distribution
    loss: str
    estimator: str
    eta: float
    budget: int             # solver iterations per fit
    eval_samples: int | None = None
    extra_layers: tuple = ()

    def config(self, seed: int, budget: int | None = None) -> SolverConfig:
        return SolverConfig(
            rank=RANK,
            loss=LossSpec(self.loss),
            generator=GeneratorSpec("negative-entropy"),
            regularizer=RegularizerSpec("nonnegative-indicator"),
            estimator=self.estimator,
            eta=self.eta,
            c1=0.6,
            c2=0.8,
            max_iters=self.budget if budget is None else budget,
            eval_samples=self.eval_samples,
            seed=seed,
        )

    @property
    def expected_layers(self) -> tuple:
        return _COMMON_LAYERS + self.extra_layers


WORKLOADS = {w.name: w for w in (
    Workload(
        name="dense-gamma-saga",
        shape=(60, 50, 40), distribution="gamma", loss="gamma",
        estimator="saga", eta=0.1, budget=2000,
        extra_layers=("tensors.to_dense",),
    ),
    Workload(
        name="sparse-poisson-sgd",
        shape=(256, 200, 100), distribution="poisson", loss="poisson-identity",
        estimator="sgd", eta=0.2, budget=1500, eval_samples=20_000,
    ),
    Workload(
        name="dense-bernoulli-full",
        shape=(80, 60, 50), distribution="bernoulli-odds", loss="bernoulli-odds",
        estimator="full", eta=0.2, budget=30,
        extra_layers=("tensors.to_dense", "estimators.full_gradient"),
    ),
)}
