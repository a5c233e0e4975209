"""Time one set-up: import tera_tc and build a workload's inputs.

Run from the root of a checkout as
`python3 perfbench/setup_probe.py <workload> <seed> <workdir>`;
prints the seconds taken. `run.py` starts it several times per run and
reports the median as `setup_s`.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, "src")
import tera_tc  # noqa: E402,F401

import workloads  # noqa: E402

name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads.Workload(name, seed, ".", workdir, reference=None)
print(time.perf_counter() - t0)
