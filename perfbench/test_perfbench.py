"""Self-test of the benchmark: every workload at a tiny budget.

    PYTHONPATH=src python -m pytest -q perfbench

Checks that each run reports every metric BENCHMARK.json names, with its
unit, and that the correctness checks run and can fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spans  # noqa: E402
from gcpd import solver  # noqa: E402
from gcpd.tensors import KruskalModel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_BUDGET = {"dense-gamma-saga": 40, "sparse-poisson-sgd": 40, "dense-bernoulli-full": 2}


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench-cache")


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(TINY_BUDGET) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, cache):
    result = harness.run_untraced(WORKLOADS[name], 1, 0.0, cache, budget=TINY_BUDGET[name])
    assert result.correct, result.tally.problems
    assert result.tally.failed == 0
    # first fit, MIN_FITS timed fits and the memory pass, each checked; with
    # no window, the set-ups still due run after the last fit
    assert result.tally.attempted == harness.MIN_FITS + 2
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result.metrics.items()} == expected
    assert all(v["value"] > 0 for v in result.metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, cache):
    result = harness.run_traced(WORKLOADS[name], 1, 0.0, cache, budget=TINY_BUDGET[name])
    assert result.correct, result.tally.problems
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result.metrics.items()} == expected
    assert not [n for n in result.notes if n.startswith("FLAG")], result.notes
    assert result.metrics["solver.iterations"]["value"] == TINY_BUDGET[name]


def test_tracer_restores_every_name():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans._TARGETS]
    with spans.Tracer():
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_checks_reject_a_changed_trace_and_negative_factors():
    config = WORKLOADS["dense-gamma-saga"].config(seed=1)
    reference = solver.IterationTrace(records=[solver.TraceRecord(0, 0.0, -1.0)],
                                      eta_history=[0.1])
    trace = solver.IterationTrace(records=[solver.TraceRecord(0, 0.0, -1.5)],
                                  eta_history=[0.1])
    model = KruskalModel([[[1.0]], [[-1.0]], [[1.0]]])
    problems = harness.check_fit(config, trace, model, reference)
    assert len(problems) == 2
    assert harness.check_fit(config, reference, KruskalModel([[[1.0]]] * 3), reference) == []


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-gamma-saga",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
