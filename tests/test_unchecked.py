"""`check=False` on the layer functions skips their guards and nothing else:
on arguments that pass the checks, each returns the checked call's bytes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcpd.bregman import GeneratorSpec, RegularizerSpec, mirror_prox_step
from gcpd.errors import ConfigError
from gcpd.estimators import full_gradient
from gcpd.losses import KINDS, LossSpec, loss_deriv
from gcpd.solver import SolverConfig
from gcpd.tensors import DenseTensor, SparseTensorCOO, TensorShape, data_fibers, khatri_rao_rows

EXAMPLES = settings(derandomize=True, max_examples=60, deadline=None)

REGULARIZERS = (RegularizerSpec("zero"), RegularizerSpec("nonnegative-indicator"),
                RegularizerSpec("squared-l2", weight=0.3),
                RegularizerSpec("squared-l2", weight=0.3, nonnegative=True),
                RegularizerSpec("l1", weight=0.2), RegularizerSpec("l1", weight=0.2, nonnegative=True))


def _accepted(gen: GeneratorSpec, reg: RegularizerSpec) -> bool:
    try:
        SolverConfig(rank=1, loss=LossSpec("gaussian"), generator=gen,
                     regularizer=reg).resolved(TensorShape((2, 2)))
    except ConfigError:
        return False
    return True


PROX_PAIRS = [(gen, reg) for gen in map(GeneratorSpec, ("squared-euclidean", "negative-entropy"))
              for reg in REGULARIZERS if _accepted(gen, reg)]


def same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def in_domain(kind: str, rng, shape) -> np.ndarray:
    """Data values drawn from the x-domain of `kind`."""
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "gamma":
        return rng.gamma(1.0, 0.5, size=shape)
    if kind.startswith("poisson"):
        return rng.poisson(1.2, size=shape).astype(float)
    return (rng.random(shape) < 0.6).astype(float)


def instance(data):
    """(dims, rng, kind) of a random order-2-4 instance with sizes 1-5."""
    order = data.draw(st.integers(2, 4))
    dims = tuple(data.draw(st.lists(st.integers(1, 5), min_size=order, max_size=order)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    return dims, rng, data.draw(st.sampled_from(KINDS))


def stored(values, sparse: bool):
    if not sparse:
        return DenseTensor(values)
    idx = np.argwhere(values != 0)
    return SparseTensorCOO(values.shape, idx, values[tuple(idx.T)])


def draw_rows(data, rng, dims, mode):
    j_n = int(np.prod(dims)) // dims[mode]
    return rng.integers(0, j_n, size=data.draw(st.integers(1, 6)))


@pytest.mark.parametrize("kind", KINDS)
@EXAMPLES
@given(data=st.data())
def test_loss_deriv(kind, data):
    spec = LossSpec(kind)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    shape = data.draw(st.tuples(st.integers(0, 4), st.integers(1, 4)))
    m = rng.standard_normal(shape)
    if spec.nonnegative:
        m = np.abs(m)
        m[rng.random(shape) < 0.2] = 0.0
    x = in_domain(kind, rng, shape)
    assert same_bytes(loss_deriv(spec, x, m, check=False), loss_deriv(spec, x, m))


@EXAMPLES
@given(data=st.data(), sparse=st.booleans())
def test_data_fibers(data, sparse):
    dims, rng, kind = instance(data)
    values = in_domain(kind, rng, dims)
    values[rng.random(dims) < 0.5] = 0.0
    tensor = stored(values, sparse)
    mode = data.draw(st.integers(0, len(dims) - 1))
    rows = draw_rows(data, rng, dims, mode)
    assert same_bytes(data_fibers(tensor, mode, rows, check=False),
                      data_fibers(tensor, mode, rows))


@EXAMPLES
@given(data=st.data())
def test_khatri_rao_rows(data):
    dims, rng, _ = instance(data)
    rank = data.draw(st.integers(1, 3))
    factors = [rng.standard_normal((d, rank)) for d in dims]
    mode = data.draw(st.integers(0, len(dims) - 1))
    rows = draw_rows(data, rng, dims, mode)
    assert same_bytes(khatri_rao_rows(factors, mode, rows, check=False),
                      khatri_rao_rows(factors, mode, rows))


@EXAMPLES
@given(data=st.data(), sparse=st.booleans())
def test_full_gradient(data, sparse):
    dims, rng, kind = instance(data)
    spec = LossSpec(kind)
    values = in_domain(kind, rng, dims)
    values[rng.random(dims) < 0.3] = 0.0
    tensor = stored(values, sparse)
    rank = data.draw(st.integers(1, 3))
    factors = [rng.random((d, rank)) if spec.nonnegative else rng.standard_normal((d, rank))
               for d in dims]
    mode = data.draw(st.integers(0, len(dims) - 1))
    assert same_bytes(full_gradient(tensor, factors, spec, mode, check=False),
                      full_gradient(tensor, factors, spec, mode))


def test_every_supported_prox_pair_is_tested():
    # Entropy has no closed form with squared-l2; every other pair is supported.
    assert len(PROX_PAIRS) == 10


@pytest.mark.parametrize("gen, reg", PROX_PAIRS, ids=[
    f"{gen.kind}-{reg.kind}{'-nonnegative' if reg.nonnegative else ''}" for gen, reg in PROX_PAIRS])
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_mirror_prox_step(gen, reg, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
    shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 3)))
    anchor = rng.standard_normal(shape)
    if gen.entropic:
        anchor = np.abs(anchor) + 1e-12
    grad = 3.0 * rng.standard_normal(shape)
    eta = data.draw(st.floats(1e-3, 2.0))
    assert same_bytes(mirror_prox_step(gen, reg, anchor, grad, eta, check=False),
                      mirror_prox_step(gen, reg, anchor, grad, eta))
