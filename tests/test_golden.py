"""Golden traces: solver runs must reproduce recorded results bit for bit.

Every estimator (full, sgd, saga) runs on a dense and a sparse input
under both geometries (negative-entropy with a poisson loss, squared-euclidean
with a gaussian loss), SAGA runs once per remaining loss kind, and a few runs
exercise the optional solver branches. The objective trace, the stepsize history and the bytes of the
final factors must equal the values in ``golden_traces.json`` exactly.

Regenerate the file only for a change that is meant to alter the arithmetic:

    PYTHONPATH=src python tests/test_golden.py            # every entry
    PYTHONPATH=src python tests/test_golden.py saga-      # names starting "saga-"

Given name prefixes, only the entries whose names start with one of them are
rerun; every other entry keeps its recorded value. Either way, an entry whose
case no longer exists is dropped, and its name is printed.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gcpd.bregman import RegularizerSpec
from gcpd.losses import LossSpec
from gcpd.solver import SolverConfig, run
from gcpd.tensors import DenseTensor, SparseTensorCOO

GOLDEN = Path(__file__).with_name("golden_traces.json")
DIMS = (7, 5, 6)


def _instance(kind: str, storage: str):
    rng = np.random.default_rng(2024)
    if kind == "gaussian":
        values = rng.standard_normal(DIMS)
    elif kind == "gamma":
        values = rng.gamma(1.0, 0.5, size=DIMS)
    elif kind.startswith("poisson"):
        values = rng.poisson(1.2, size=DIMS).astype(float)
    else:  # bernoulli kinds
        values = (rng.random(DIMS) < 0.6).astype(float)
    values[rng.random(DIMS) < 0.4] = 0.0
    if storage == "dense":
        return DenseTensor(values)
    idx = np.argwhere(values != 0)
    return SparseTensorCOO(DIMS, idx, values[tuple(idx.T)])


def _config(kind: str, estimator: str, storage: str) -> SolverConfig:
    """The loss's default geometry and regularizer, at one stepsize for all kinds."""
    return SolverConfig(rank=2, loss=LossSpec(kind),
                        estimator=estimator, eta=0.2, max_iters=60, eval_every=10,
                        eval_samples=150 if storage == "sparse" else None,
                        seed=5, record_timing=False)


def _cases() -> dict:
    """name -> (loss kind, storage, config)."""
    cases = {}
    for estimator in ("full", "sgd", "saga"):
        for storage in ("dense", "sparse"):
            for geometry, kind in (("entropy", "poisson-identity"),
                                   ("euclidean", "gaussian")):
                cases[f"{estimator}-{storage}-{geometry}"] = (
                    kind, storage, _config(kind, estimator, storage))
    # The other loss kinds, each on the default estimator.
    for kind in ("gamma", "bernoulli-odds", "poisson-log", "bernoulli-logit"):
        cases[f"saga-dense-{kind}"] = (kind, "dense", _config(kind, "saga", "dense"))
    base = _config("poisson-identity", "saga", "dense")
    cases["saga-dense-entropy-backtrack"] = ("poisson-identity", "dense", dataclasses.replace(
        base, extrapolation_check="backtrack", l_lower=0.5, delta=0.3, eps_aux=0.25))
    cases["sgd-dense-euclidean-cyclic"] = ("gaussian", "dense", dataclasses.replace(
        _config("gaussian", "sgd", "dense"), block_order="cyclic"))
    cases["sgd-dense-euclidean-l1-plain"] = ("gaussian", "dense", dataclasses.replace(
        _config("gaussian", "sgd", "dense"), c1=0.0, c2=0.0,
        regularizer=RegularizerSpec("l1", weight=0.05), max_step=0.05))
    cases["saga-dense-entropy-lyapunov"] = ("poisson-identity", "dense", dataclasses.replace(
        base, lyapunov=True, c1=0.6, c2=0.6))
    return cases


def _fingerprint(kind: str, storage: str, config: SolverConfig) -> dict:
    trace, model = run(config, _instance(kind, storage))
    digest = hashlib.sha256()
    for a in model.factors:
        digest.update(np.ascontiguousarray(a).tobytes())
    return {
        "trace": [[r.iteration, r.nre, r.lyapunov] for r in trace.records],
        "eta_history": trace.eta_history,
        "factors_sha256": digest.hexdigest(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(_cases())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_run_reproduces_golden_trace(name, golden):
    kind, storage, config = _cases()[name]
    got = _fingerprint(kind, storage, config)
    want = golden[name]
    assert got["trace"] == want["trace"]
    assert got["eta_history"] == want["eta_history"]
    assert got["factors_sha256"] == want["factors_sha256"]


def _refresh(recorded: dict, cases: dict, prefixes: tuple, fingerprint=_fingerprint):
    """`recorded` with the entries of every case whose name starts with one of
    `prefixes` (all of them when there are none) rerun, and the entries of
    cases that no longer exist dropped; returns (entries, rerun, dropped)."""
    out = {name: value for name, value in recorded.items() if name in cases}
    dropped = sorted(recorded.keys() - cases.keys())
    rerun = [name for name in cases if name.startswith(prefixes or "")]
    for name in rerun:
        out[name] = fingerprint(*cases[name])
    return out, rerun, dropped


def test_refresh_drops_entries_of_removed_cases():
    cases = {"sgd-a": ("k", "dense", None), "saga-b": ("k", "dense", None)}
    recorded = {"sgd-a": "old a", "saga-b": "old b", "sarah-c": "old c"}
    out, rerun, dropped = _refresh(recorded, cases, ("saga-",), lambda *case: "new")
    assert out == {"sgd-a": "old a", "saga-b": "new"}
    assert (rerun, dropped) == (["saga-b"], ["sarah-c"])


def test_refresh_without_prefixes_reruns_every_case():
    cases = {"sgd-a": ("k", "dense", None), "saga-b": ("k", "sparse", None)}
    out, rerun, dropped = _refresh({"sgd-a": "old a"}, cases, (),
                                   lambda kind, storage, config: storage)
    assert out == {"sgd-a": "dense", "saga-b": "sparse"}
    assert (rerun, dropped) == (["sgd-a", "saga-b"], [])


if __name__ == "__main__":
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    out, names, dropped = _refresh(recorded, _cases(), tuple(sys.argv[1:]))
    for name in dropped:
        print(f"dropped {name}: no such case")
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(names)} of {len(out)} golden traces to {GOLDEN}")
