#!/usr/bin/env python3
"""tera-tc benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The package is imported from ./src. With --trace 0 the run repeats the
workload's rounds and prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds and prints the per-layer metrics
(spans go to .perfbench_out/). Every pass's outputs are checked; the last
line of standard output is one JSON object, and the exit code is 1 when a
check failed.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy loads, here and in the
# pool workers and set-up probes that inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SETUP_REPS = 5
#: Percentile reported as solve_ms_tail.
TAIL_PERCENTILE = 90


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(workload) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = out.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "pool_workers": workload.workers,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(name: str, seed: int, workdir: str) -> list[float]:
    """Median-able set-up times, each from a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), name, str(seed), workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_rounds(workload, seconds: float, trace: bool) -> list:
    """Run rounds until the next one would end past `seconds`. A traced
    run alternates untraced and traced rounds; at least one of each kind
    runs."""
    import tracer as tracing

    rounds, last = [], {}
    t_start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        elapsed = time.perf_counter() - t_start
        if traced in last and elapsed + last[traced] > seconds:
            break
        t0 = time.perf_counter()
        rounds.append(workload.run_round(tracing.Tracer() if traced else None))
        last[traced] = time.perf_counter() - t0
    return rounds


def percentile(values, q) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def _rounded(values) -> list[float]:
    return [round(v, 3) for v in values]


def _step_medians(workload, rounds) -> str:
    return ", ".join(
        f"{step.part} {step.kind} "
        f"{statistics.median(r.passes[i][1].wall_s for r in rounds):.3f} s"
        for i, step in enumerate(workload.steps)
    )


def end_to_end(workload, rounds, setup) -> tuple[dict, list[str]]:
    walls = [r.seconds(lambda s: s.wall) for r in rounds]
    serial = [r.seconds(lambda s: s.serial) for r in rounds]
    solves = [s for r in rounds for _, p in r.passes for s in p.solves]
    ok = sum(s.ok for s in solves)
    totals = [sum(s.tc for step, p in r.passes if step.wall for s in p.solves if s.ok)
              for r in rounds]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "serial_wall_s": (statistics.median(serial), "s"),
        "solved_frac": (ok / len(solves), "ratio"),
        "tc_total_m_bps": (totals[0], "m.bps"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Per-solve times: printed, not bounded (see perfbench/README.md).
    ms = [s.ms for s in solves if s.ms is not None]
    tail = percentile(ms, TAIL_PERCENTILE)
    beyond = sum(m > tail for m in ms)
    wall_steps = "+".join(f"{s.part} {s.kind}" for s in workload.steps if s.wall)
    serial_steps = "+".join(f"{s.part} {s.kind}" for s in workload.steps if s.serial)
    notes = [
        f"wall_s: median of {len(walls)} rounds of {wall_steps} {_rounded(walls)}",
        f"serial_wall_s: median of {len(serial)} rounds of {serial_steps} {_rounded(serial)}",
        f"median pass times: {_step_medians(workload, rounds)}",
        f"solved_frac: {ok} of {len(solves)} solves returned an allocation; "
        f"failed_frac {1 - ok / len(solves):.6g}",
        f"setup_s: median of {len(setup)} fresh-interpreter set-ups {_rounded(setup)}",
        f"solve_ms_p50 {statistics.median(ms):.6g} ms: median of {len(ms)} timed solves",
        f"solve_ms_tail {tail:.6g} ms: p{TAIL_PERCENTILE} of {len(ms)} timed solves, "
        f"{beyond} beyond it" + ("" if beyond >= 10 else " (fewer than 10 beyond)"),
    ]
    if len({round(t, 6) for t in totals}) > 1:
        notes.append(f"tc_total_m_bps differs between rounds: {sorted(set(totals))}")
    return metrics, notes


def per_layer(workload, rounds, out_path) -> tuple[dict, list[str]]:
    import tracer as tracing

    traced = [r for r in rounds if r.tracer is not None]
    plain = [r for r in rounds if r.tracer is None]
    rows = []
    for r in traced:
        row = {}
        for name, agg in r.tracer.layer_totals().items():
            row[f"{name}.calls"] = (agg["calls"], "count")
            row[f"{name}.total_s"] = (agg["total_s"], "s")
            row[f"{name}.self_s"] = (agg["self_s"], "s")
        units = dict(tracing.COUNTERS)
        for name, value in r.tracer.derived().items():
            row[name] = (value, units[name])
        rows.append(row)
    traced[0].tracer.write_spans(out_path)
    metrics = {name: (statistics.median(r[name][0] for r in rows), unit)
               for name, (_, unit) in rows[0].items()}
    traced_wall = statistics.median(r.seconds(lambda s: s.traced) for r in traced)
    plain_wall = statistics.median(r.seconds(lambda s: s.traced) for r in plain)
    metrics["experiments.job_bytes"] = (workload.job_bytes(), "B")
    if workload.workers > 1:
        # The steps only serial_wall_s counts against those only wall_s counts:
        # on assign_mc the CDF experiment with workers = 1 and with the pool.
        serial = statistics.median(r.seconds(lambda s: s.serial and not s.wall) for r in plain)
        pooled = statistics.median(r.seconds(lambda s: s.wall and not s.serial) for r in plain)
        efficiency = serial / (workload.workers * pooled)
    else:
        efficiency = 1.0
    metrics["experiments.parallel_efficiency"] = (efficiency, "ratio")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    selfs = sorted(((v, n[: -len(".self_s")]) for n, (v, _) in metrics.items()
                    if n.endswith(".self_s")), reverse=True)
    traced_steps = "+".join(f"{s.part} {s.kind}" for s in workload.steps if s.traced)
    notes = [
        f"{len(traced)} traced and {len(plain)} untraced rounds; {traced_steps} took "
        f"{traced_wall:.4f} s traced, {plain_wall:.4f} s untraced (medians)",
        "largest self times: " + ", ".join(
            f"{n} {v:.3f} s ({v / traced_wall:.0%})" for v, n in selfs[:5]),
        f"spans of the first traced round: {out_path}",
    ]
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tera_tc", "__init__.py")):
        print("perfbench: ./src/tera_tc not found; run from the root of a tera-tc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tera_tc

    if not os.path.abspath(tera_tc.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perfbench: imported tera_tc from {tera_tc.__file__}, not ./src", file=sys.stderr)
        return 2
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = measure_setup(args.workload, args.seed, workdir)
        reference = checks.load_reference()
        workload = workloads.Workload(args.workload, args.seed, ROOT, workdir, reference)
        env = environment(workload)
        rounds = run_rounds(workload, args.seconds, bool(args.trace))
        if args.trace:
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            out_path = os.path.join(out_dir, f"trace_{args.workload}_seed{args.seed}.jsonl")
            metrics, notes = per_layer(workload, rounds, out_path)
        else:
            metrics, notes = end_to_end(workload, rounds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    passes = [p for r in rounds for _, p in r.passes]
    solves = [s for p in passes for s in p.solves]
    problems = [msg for p in passes for msg in p.problems]
    failed = [s for s in solves if not s.ok]
    missing = workload.unreferenced()
    ref_note = ("compared with the reference" if not missing else
                f"no reference recorded for seed {args.seed} ({', '.join(missing)}); audits only")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(rounds)} rounds")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    errors = sorted({s.error.split(":")[0] for s in failed})
    print(f"  # checks: {len(problems)} problems; {len(failed)} failed solves {errors}; {ref_note}")
    for msg in problems[:20]:
        print(f"  ! {msg}")
    result = {
        "correct": not problems,
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
