"""Outside-in tracing: wrap the module-level names gcpd calls through.

A `Tracer` replaces each traced name with a wrapper that records one span
(name, start, end, parent) plus a few counts, all in memory, and restores
every name on exit. Nothing inside `src/gcpd` changes: the wrappers sit at the
module boundaries the solver already looks names up through, so a traced run
executes the same arithmetic in the same order as an untraced one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from gcpd import data as gdata
from gcpd import estimators, losses, solver
from gcpd.tensors import SparseTensorCOO


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part covered by child spans."""
        return self.seconds - self.child_s


def _rows(rows) -> int:
    return int(np.size(rows))


def _fiber_counts(args, out):
    tensor, mode, rows = args[0], args[1], args[2]
    stored = (np.count_nonzero(out) if isinstance(tensor, SparseTensorCOO)
              else out.size)
    return {"rows": _rows(rows), "cells": out.size, "stored": int(stored),
            "whole": int(_rows(rows) == tensor.shape.fiber_count(mode))}


# (module, attribute, span name, counts(args, result) -> dict or None)
_TARGETS = (
    (solver, "EstimatorState", "estimators.init", None),
    (solver, "estimate_gradient", "estimators.gradient", None),
    (solver, "mirror_prox_step", "bregman.mirror_prox_step", None),
    (solver, "objective", "losses.objective", lambda a, out: {"terms": out.n_terms}),
    (solver, "model_mse", "metrics.model_mse", None),
    (estimators, "full_gradient", "estimators.full_gradient", None),
    (estimators, "khatri_rao_rows", "tensors.khatri_rao_rows",
     lambda a, out: {"rows": _rows(a[2])}),
    (estimators, "data_fibers", "tensors.data_fibers", _fiber_counts),
    (estimators, "loss_deriv", "losses.loss_deriv",
     lambda a, out: {"entries": int(np.size(out))}),
    (gdata, "read_tns", "data.read_tns", lambda a, out: {"entries": out.nnz}),
    (gdata, "SparseTensorCOO", "tensors.sparse_build", None),
    (SparseTensorCOO, "to_dense", "tensors.to_dense", None),
    (losses, "check_data_domain", "losses.check_data_domain", None),
)


class Tracer:
    """Context manager that records spans for every call through the targets.

    Spans nest by call order on one thread: a span's parent is the span open
    when it started. `span()` opens a span from benchmark code (the fit and
    set-up roots).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._open: Span | None = None
        self._saved: list = []

    @contextmanager
    def span(self, name: str):
        s = self._begin(name)
        try:
            yield s
        finally:
            self._finish(s)

    def _begin(self, name: str) -> Span:
        s = Span(name, time.perf_counter(), parent=self._open)
        self._open = s
        return s

    def _finish(self, s: Span):
        s.end = time.perf_counter()
        self._open = s.parent
        if s.parent is not None:
            s.parent.child_s += s.seconds
        self.spans.append(s)

    def _wrap(self, fn, name, counts):
        tracer = self

        def traced(*args, **kwargs):
            s = tracer._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._finish(s)
            if counts is not None:
                s.counts = counts(args, out)
            return out

        return traced

    def __enter__(self):
        for owner, attr, name, counts in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counts))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
