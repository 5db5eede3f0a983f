"""A fixed reference loop that measures how fast the host runs at the moment.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes. The loop below does not touch gcpd: it mixes the kinds of work a fit
does (small-array calls through the interpreter, scattered row reads and
writes in a table larger than L2, whole-array kernels, and a stream through
memory larger than L3), so the host slows it down about as much as it slows a
fit. Timings are divided by the loop's median time in the same run, taken
interleaved with them, and scaled back to seconds on a host where the loop
takes REFERENCE_S.
"""

from __future__ import annotations

import time

import numpy as np

# Typical median time of one `ReferenceLoop.run` on the 2-vCPU Xeon host
# (2 MiB of L2 per core, 105 MiB of L3, numpy 2.4) the benchmark was defined
# on; fixed, so that reported times read as seconds on that host.
REFERENCE_S = 0.04


class ReferenceLoop:
    def __init__(self):
        rng = np.random.default_rng(20240224)
        self.small = np.linspace(0.1, 1.0, 18)
        self.picks = rng.integers(0, len(self.small), (2500, 6))
        self.table = np.ones((4096, 512))            # 16 MiB
        self.rows = rng.integers(0, len(self.table), (800, 6))
        self.bulk = np.linspace(0.1, 1.0, 250_000)   # 2 MB
        self.stream = np.ones(8_000_000)             # 64 MB, and as much again
        self.sink = np.empty_like(self.stream)

    def run(self) -> float:
        """Seconds one pass of the loop took."""
        t0 = time.perf_counter()
        acc = 0.0
        for picks in self.picks:
            acc += float(np.exp(self.small[picks]).sum())
        for rows in self.rows:
            self.table[rows] = self.table[rows] * 0.5 + 0.5
        for _ in range(3):
            acc += float(np.log(np.exp(self.bulk) + 1.0).sum())
        np.multiply(self.stream, 1.0, out=self.sink)
        return time.perf_counter() - t0
