"""Generalized CP tensor decomposition under non-Euclidean losses, fit by
inertial block-randomized stochastic mirror descent with variance-reduced
gradient estimators."""

from .bregman import GeneratorSpec, RegularizerSpec, bregman_div, mirror_prox_step
from .data import SyntheticSpec, generate, read_tns, write_tns
from .errors import (ConfigError, DataError, DivergenceError, GcpdError,
                     LossDomainError, ParseError, StateError)
from .estimators import (EstimatorState, batch_gradient, checked_gradient,
                         estimate_gradient, full_gradient, vr_diagnostics)
from .losses import LossSpec, loss_deriv, loss_value, objective
from .metrics import LyapunovRecord, MseReport, lyapunov, model_mse, mse
from .solver import IterationTrace, SolverConfig, TraceRecord, run, step
from .tensors import (DenseTensor, KruskalModel, SparseTensorCOO, TensorShape,
                      data_fibers, khatri_rao_rows)

__version__ = "0.1.0"
