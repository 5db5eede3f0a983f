"""Benchmark entry point.

    python3 perfbench/run.py --workload dense-gamma-saga --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
With `--trace 0` the last stdout line is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
separate traced run. Earlier lines are a human-readable report. Exits 2
without a result when the checkout has no `src/gcpd` or the workload is
unknown, and 1 when no fit completes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".perfbench_cache"

# One BLAS thread: the benchmark is the single-threaded baseline, and the
# variables must be set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> str:
    import numpy
    import scipy
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)
    return (f"numpy {numpy.__version__}  scipy {scipy.__version__}  "
            f"python {sys.version.split()[0]}  nproc {os.cpu_count()}  {threads}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "gcpd" / "__init__.py").is_file():
        print(f"error: no gcpd sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    runner = harness.run_traced if args.trace else harness.run_untraced
    result = runner(w, args.seed, args.seconds, CACHE_DIR)
    if not result.metrics:
        for line in result.notes + result.tally.problems:
            print(line, file=sys.stderr)
        return 1

    print(f"workload {w.name}  seed {args.seed}  budget {w.budget} iterations  "
          f"trace {args.trace}")
    print(environment())
    for note in result.notes:
        print(note)
    for problem in result.tally.problems:
        print(f"FAILED CHECK: {problem}")
    for name, m in result.metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "metrics": result.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
