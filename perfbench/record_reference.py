#!/usr/bin/env python3
"""Record the reference outputs the benchmark compares against.

Run from the root of a checkout, at the commit whose outputs become the
reference:

    python3 perfbench/record_reference.py --seeds 0-63 --extra 1009 --jobs 2

It writes perfbench/reference/reference.json (per workload and seed: the
proposed TC at K=1000, the 17 power-sweep TCs with null for a solve that
raised, and the CDF experiment's summed TC and sum rate per strategy and
radius) and perfbench/reference/default_sweep_summary.csv.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import tera_tc.experiments  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

SEEDED = ("proposed_k1000", "power_sweep_hi", "cdf_mc")


def record(task):
    name, seed = task
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        w = workloads.PARTS[name](seed, ROOT, workdir, reference=None)
        if name == "proposed_k1000":
            s = w.pass_solve().solves[0]
            value = s.tc if s.ok else None
        elif name == "power_sweep_hi":
            value = [s.tc if s.ok else None for s in w.pass_sweep().solves]
        else:
            rows, _ = tera_tc.experiments.run_cdf_fixed_distance(w.scenario, w.spec, workers=1)
            value = workloads.group_sums(rows)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return name, seed, value


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description="record the benchmark's reference outputs")
    p.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    p.add_argument("--extra", type=int, nargs="*", default=[1009], help="further seeds")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = p.parse_args()
    seeds = seed_range(args.seeds) + list(args.extra)
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)

    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        sweep = workloads.DefaultSweep(0, ROOT, workdir, reference=None)
        sweep.pass_cli()
        os.makedirs(os.path.dirname(checks.REFERENCE_SUMMARY), exist_ok=True)
        shutil.copyfile(os.path.join(sweep.out_dir, "summary.csv"), checks.REFERENCE_SUMMARY)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tasks = [(name, seed) for name in SEEDED for seed in seeds]
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(record, tasks))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    doc = {"commit": commit, "rel_tol": checks.REL_TOL}
    for name, seed, value in results:
        doc.setdefault(name, {})[str(seed)] = value
    with open(checks.REFERENCE_JSON, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {checks.REFERENCE_JSON} ({len(seeds)} seeds) and {checks.REFERENCE_SUMMARY}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
