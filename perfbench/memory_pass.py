"""Peak memory of set-up plus one fit, measured in a fresh process.

    python3 perfbench/memory_pass.py WORKLOAD SEED TNS_PATH BUDGET

Prints one JSON line: how far the process's peak resident set (VmHWM) rose
over set-up and fit above its resident set just before set-up, in KiB, and
the fit's objective trace so the caller can check it against its own fits.
The peak is reset to the resident set at that point (`clear_refs` 5), so
allocations freed earlier, during imports, do not count. A fresh process
keeps the peak free of whatever the caller allocated before, and costs the
fit no tracing overhead. `getrusage` is no use here: Linux
carries ru_maxrss over from the parent across fork and exec.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def status_kib(field: str) -> int:
    """One memory field of /proc/self/status, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def main(argv) -> int:
    name, seed, tns, budget = argv[0], int(argv[1]), Path(argv[2]), int(argv[3])
    w = WORKLOADS[name]
    truth = harness.read_truth(tns)
    # Reset the peak to the current resident set, so that transient
    # allocations of imports and read_truth do not count.
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")
    before = status_kib("VmRSS")
    tensor, config = harness.load(w, seed, tns, budget)
    trace, _ = harness.fit(config, tensor, truth)
    after = status_kib("VmHWM")
    print(json.dumps({"growth_kib": after - before,
                      "trace": harness.objective_trace(trace)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
