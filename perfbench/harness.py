"""Measure one workload end to end (untraced) or layer by layer (traced).

The program is driven only through its public entry points: `data.generate`,
`write_tns` and `read_tns`; `losses.check_data_domain` and `objective`;
`SolverConfig` and `solver.run`; and `metrics.model_mse`.

Load model: one client, one fit at a time, in one process (a closed loop).
Each fit counts as one operation; a fit that raises or fails a check counts as
failed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gcpd import data as gdata
from gcpd import losses, metrics, solver
from gcpd.errors import GcpdError
from gcpd.tensors import KruskalModel

from reference import REFERENCE_S, ReferenceLoop
from spans import Tracer
from workloads import RANK, Workload

# `gcpd decompose` densifies inputs with at most this many entries at load.
DENSIFY_LIMIT = 1 << 22

# Set-ups and passes of the reference loop each take this share of the
# measuring window, interleaved with the fits, and at least MIN_SETUPS and
# MIN_REFERENCE of them run; cheap set-ups thus get many samples.
SETUP_SHARE = 1 / 4
REFERENCE_SHARE = 1 / 4
MIN_SETUPS = 5
MIN_REFERENCE = 5
MIN_FITS = 3


@dataclass
class Tally:
    """Fits attempted and failed, with the reasons of the first few failures."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.extend(problems)


def prepare(w: Workload, seed: int, cache_dir: Path) -> tuple[Path, KruskalModel]:
    """Untimed preparation: the planted tensor as a .tns file plus its factors.

    Cached per (workload, seed); the factor file is written last and marks a
    complete entry.
    """
    entry = cache_dir / f"{w.name}-seed{seed}"
    tns = entry / "tensor.tns"
    if not (entry / "truth.npz").exists():
        entry.mkdir(parents=True, exist_ok=True)
        tensor, truth = gdata.generate(gdata.SyntheticSpec(
            shape=w.shape, rank=RANK, distribution=w.distribution, seed=seed))
        gdata.write_tns(tensor, entry / "tensor.tns.part")
        os.replace(entry / "tensor.tns.part", tns)
        with open(entry / "truth.npz.part", "wb") as fh:
            np.savez(fh, *truth.factors)
        os.replace(entry / "truth.npz.part", entry / "truth.npz")
    return tns, read_truth(tns)


def read_truth(tns: Path) -> KruskalModel:
    """The planted factors stored beside a prepared .tns file."""
    with np.load(tns.with_name("truth.npz")) as saved:
        return KruskalModel([saved[f"arr_{n}"] for n in range(len(saved.files))])


def load(w: Workload, seed: int, tns: Path, budget: int | None = None):
    """Set-up as `gcpd decompose` does it: .tns on disk to a ready tensor."""
    tensor = gdata.read_tns(tns)
    if tensor.shape.total <= DENSIFY_LIMIT:
        tensor = tensor.to_dense()
    config = w.config(seed, budget).resolved(tensor.shape)
    losses.check_data_domain(config.loss, tensor.values)
    return tensor, config


def fit(config, tensor, truth):
    return solver.run(config, tensor, truth=truth)


def objective_trace(trace) -> list:
    return [(r.iteration, r.nre) for r in trace.records]


def check_fit(config, trace, model, reference) -> list:
    """Problems with one fit; empty when it is correct."""
    problems = []
    if reference is not None and (objective_trace(trace) != objective_trace(reference)
                                  or trace.eta_history != reference.eta_history):
        problems.append("objective trace differs from the first fit with this seed")
    for n, a in enumerate(model.factors):
        if not np.all(np.isfinite(a)):
            problems.append(f"factor {n} has non-finite entries")
        elif config.loss.nonnegative and a.min() < 0:
            problems.append(f"factor {n} has negative entries under a nonnegative loss")
    return problems


def attempt_fit(config, tensor, truth, reference, tally: Tally, span=None):
    """One checked fit; (seconds, trace, model), or None when it failed.

    `span`, when given, is a context entered around the fit alone, so the
    checks stay outside it as they stay outside the timing.
    """
    t0 = time.perf_counter()
    try:
        with span or nullcontext():
            trace, model = fit(config, tensor, truth)
    except GcpdError as exc:
        tally.record([f"fit raised {type(exc).__name__}: {exc}"])
        return None
    seconds = time.perf_counter() - t0
    problems = check_fit(config, trace, model, reference)
    tally.record(problems)
    return None if problems else (seconds, trace, model)


def time_setup(w, seed, tns, budget) -> float:
    t0 = time.perf_counter()
    load(w, seed, tns, budget)
    return time.perf_counter() - t0


def peak_mib(w, seed, tns, budget, reference, tally: Tally) -> float | None:
    """Peak resident-set growth over set-up plus one fit, in MiB.

    Measured in a fresh process of its own (see memory_pass.py), so the peak
    excludes this process's earlier allocations and the pass shares no
    timings with the others. None when the pass failed.
    """
    cmd = [sys.executable, str(Path(__file__).with_name("memory_pass.py")),
           w.name, str(seed), str(tns), str(budget)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        tally.record([f"memory pass exited with {proc.returncode}: {last}"])
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    same = [tuple(r) for r in out["trace"]] == objective_trace(reference)
    tally.record([] if same else ["memory-pass objective trace differs from the first fit"])
    return out["growth_kib"] / 1024


def quality(config, tensor, model, truth) -> tuple[float, float]:
    """Exact mean loss and planted-factor MSE of a returned model.

    Computed outside every timed and traced region, from the model alone, so
    the values do not depend on the solver's own evaluation sample stream.
    """
    value = losses.objective(config.loss, tensor, model, sample=tensor.shape.total).value
    return value, metrics.model_mse(model, truth)["mean"]


def trace_summary(trace) -> dict:
    """Best and final objective of the solver's own trace."""
    best = min(trace.records, key=lambda r: r.nre)
    last = trace.records[-1]
    return {"first": trace.records[0].nre, "best": best.nre,
            "best_iteration": best.iteration, "final": last.nre,
            "final_iteration": last.iteration}


@dataclass
class Result:
    metrics: dict
    tally: Tally
    notes: list
    correct: bool


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def first_fit(w: Workload, seed: int, cache_dir: Path, budget, tally: Tally):
    """Prepare, set up and fit once, untimed.

    The warm-up fills caches and finishes lazy imports, and its fit is the
    reference every later fit of the run must reproduce. Returns (tns, truth,
    tensor, config, reference trace, model), or None when the fit failed.
    """
    tns, truth = prepare(w, seed, cache_dir)
    tensor, config = load(w, seed, tns, budget)
    done = attempt_fit(config, tensor, truth, None, tally)
    if done is None:
        return None
    return tns, truth, tensor, config, done[1], done[2]


def run_untraced(w: Workload, seed: int, seconds: float, cache_dir: Path,
                 budget: int | None = None) -> Result:
    """End-to-end metrics: interleaved set-ups, fits and reference passes for
    `seconds`, then the memory pass and the quality of the returned model.

    Times are scaled by the host's speed during the window: the median fit
    and set-up times are multiplied by REFERENCE_S over the median time of
    the reference loop (see reference.py), which runs between them.
    """
    tally = Tally()
    reference_loop = ReferenceLoop()
    reference_loop.run()
    first = first_fit(w, seed, cache_dir, budget, tally)
    if first is None:
        return Result({}, tally, ["the first fit failed; nothing to measure"], False)
    tns, truth, tensor, config, reference, model = first

    # A reference pass runs whenever the passes have had less than their share
    # of the time so far, a set-up likewise, and a fit otherwise, so all three
    # sample the same host conditions. Samples still missing at the end of
    # the window run after it.
    setup_times, fit_times, reference_times = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        over = elapsed >= seconds and len(fit_times) >= MIN_FITS
        if over and len(setup_times) >= MIN_SETUPS and len(reference_times) >= MIN_REFERENCE:
            break
        if sum(reference_times) < REFERENCE_SHARE * elapsed or (
                over and len(reference_times) < MIN_REFERENCE):
            reference_times.append(reference_loop.run())
            continue
        if over or sum(setup_times) < SETUP_SHARE * elapsed:
            setup_times.append(time_setup(w, seed, tns, budget))
            continue
        done = attempt_fit(config, tensor, truth, reference, tally)
        if done is not None:
            fit_times.append(done[0])
        if tally.attempted > 4 * MIN_FITS and not fit_times:
            return Result({}, tally, ["every timed fit failed"], False)

    peak = peak_mib(w, seed, tns, config.max_iters, reference, tally)
    if peak is None:
        return Result({}, tally, ["the memory pass failed"], False)
    final_objective, final_mse = quality(config, tensor, model, truth)
    checks_ok = bool(np.isfinite(final_objective) and np.isfinite(final_mse))
    rise = trace_summary(reference)
    scale = REFERENCE_S / statistics.median(reference_times)

    def summary(label, times):
        return (f"{label} wall time, median of {len(times)}: min {min(times):.4f}  "
                f"median {statistics.median(times):.4f}  max {max(times):.4f} s")

    notes = [
        summary("setup", setup_times),
        summary("fit", fit_times),
        summary("reference loop", reference_times),
        f"host speed {scale:.3f} of the reference host: times below are wall "
        f"times multiplied by it",
        f"final_objective {final_objective:.6g} loss (exact mean loss; not gated)",
        f"final_mse {final_mse:.6g} mse (planted-factor MSE; not gated)",
        f"objective trace: {rise['first']:.4f} at 0, best {rise['best']:.4f} at "
        f"{rise['best_iteration']}, final {rise['final']:.4f} at {rise['final_iteration']}",
    ]
    values = {
        "setup_s": _metric(scale * statistics.median(setup_times), "s"),
        "fit_s": _metric(scale * statistics.median(fit_times), "s"),
        "peak_mib": _metric(peak, "MiB"),
    }
    return Result(values, tally, notes, checks_ok and tally.failed == 0)


def layer_metrics(spans, trace) -> dict:
    """Per-layer metrics of one traced pass (set-up plus one fit)."""
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def self_s(name):
        return sum(s.self_s for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    (run,) = by_name["solver.run"]
    iterations = trace.records[-1].iteration
    stepping = (run.seconds - busy("estimators.init") - busy("losses.objective")
                - busy("metrics.model_mse"))
    cells = count("tensors.data_fibers", "cells")
    out = {
        "solver.self_s": (run.self_s, "s"),
        "solver.step_us": (1e6 * stepping / iterations, "us"),
        "solver.iterations": (iterations, "count"),
        "solver.evaluations": (len(trace.records), "count"),
        "estimators.init_s": (busy("estimators.init"), "s"),
        "estimators.gradient.self_s": (
            self_s("estimators.gradient") + self_s("estimators.full_gradient"), "s"),
        "estimators.gradient.calls": (calls("estimators.gradient"), "count"),
        "estimators.full_passes": (count("tensors.data_fibers", "whole"), "count"),
        "tensors.sparse_build_s": (busy("tensors.sparse_build"), "s"),
        "tensors.to_dense_s": (busy("tensors.to_dense"), "s"),
        "data.read_tns_s": (self_s("data.read_tns"), "s"),
        "data.read_tns.entries": (count("data.read_tns", "entries"), "count"),
        "losses.check_data_domain_s": (busy("losses.check_data_domain"), "s"),
        "tensors.data_fibers.fill": (
            count("tensors.data_fibers", "stored") / cells if cells else 0.0, "ratio"),
    }
    for name, extra in (("tensors.khatri_rao_rows", "rows"),
                        ("tensors.data_fibers", "rows"),
                        ("losses.loss_deriv", "entries"),
                        ("losses.objective", "terms"),
                        ("bregman.mirror_prox_step", None),
                        ("metrics.model_mse", None)):
        out[f"{name}.busy_s"] = (busy(name), "s")
        out[f"{name}.calls"] = (calls(name), "count")
        if extra:
            out[f"{name}.{extra}"] = (count(name, extra), "count")
    return out


def run_traced(w: Workload, seed: int, seconds: float, cache_dir: Path,
               budget: int | None = None) -> Result:
    """Alternate untraced and traced passes; report per-layer medians.

    Every traced fit must reproduce the untraced reference's objective trace
    and eta history bit for bit: observation must not perturb the run.
    """
    tally = Tally()
    first = first_fit(w, seed, cache_dir, budget, tally)
    if first is None:
        return Result({}, tally, ["the first fit failed; nothing to trace"], False)
    tns, truth, tensor, config, reference, model = first

    plain_times, traced_times, passes, called = [], [], [], set()
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        done = attempt_fit(config, tensor, truth, reference, tally)
        if done is not None:
            plain_times.append(done[0])
        tracer = Tracer()
        with tracer:
            with tracer.span("setup"):
                t_tensor, t_config = load(w, seed, tns, budget)
            done = attempt_fit(t_config, t_tensor, truth, reference, tally,
                               span=tracer.span("solver.run"))
        if done is None:
            break
        traced_times.append(done[0])
        passes.append(layer_metrics(tracer.spans, done[1]))
        called.update(s.name for s in tracer.spans)

    if not passes or not plain_times:
        return Result({}, tally, ["no traced pass completed"], False)
    final_objective, final_mse = quality(config, tensor, model, truth)
    values = {name: _metric(statistics.median(p[name][0] for p in passes), unit)
              for name, (_, unit) in passes[0].items()}
    values["trace.overhead"] = _metric(
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0, "ratio")
    values["final_objective"] = _metric(final_objective, "loss")
    values["final_mse"] = _metric(final_mse, "mse")

    notes = [f"{len(passes)} traced and {len(plain_times)} untraced fits"]
    # A later change may route around a public name; its time then shows up
    # in the caller's self time, so say which expected layer went quiet.
    notes += [f"FLAG: layer {layer} recorded zero calls on {w.name}"
              for layer in w.expected_layers if layer not in called]
    checks_ok = bool(np.isfinite(final_objective) and np.isfinite(final_mse))
    return Result(values, tally, notes, checks_ok and tally.failed == 0)
