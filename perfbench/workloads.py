"""The benchmark workloads.

A workload is a fixed list of steps, each one pass of a *part*: one of
the four scenarios below (`default_sweep`, `proposed_k1000`,
`power_sweep_hi`, `cdf_mc`). Running every step once is a round; a run
repeats rounds until its time is up.

Constructing a workload builds its parts' inputs from the seed (this is
what `setup_s` times, together with the package import). A pass runs the
timed calls into the package, then checks what they returned outside the
timed region.

The tracer, when one is given, is installed only around the timed calls of
the steps marked `traced`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import pickle
import time
from dataclasses import dataclass, field, replace

import numpy as np

import tera_tc.cli
import tera_tc.experiments
import tera_tc.strategies
from tera_tc.channel import bundled_absorption_table
from tera_tc.scenario import load_scenario, uniform_band
from tera_tc.strategies import Allocation, DeviceSpec, Scenario
from tera_tc.units import dbm_to_watts

import checks


@dataclass
class Solve:
    """One strategy call: whether it returned, its TC, and its time when
    the benchmark made the call itself."""

    key: tuple
    ok: bool
    tc: float = 0.0
    ms: float | None = None
    error: str = ""


@dataclass
class Pass:
    wall_s: float
    solves: list[Solve]
    problems: list[str] = field(default_factory=list)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Part:
    """One scenario: its inputs, built from the seed, and its pass kinds."""

    name = ""
    #: Whether reference.json holds this part's outputs per seed.
    seeded = True
    workers = 1

    def __init__(self, seed: int, root: str, workdir: str, reference: dict | None):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.spec_path = os.path.join(root, "src", "tera_tc", "data", "default_scenario.json")
        self.tracer = None

    def run(self, kind: str) -> Pass:
        return getattr(self, "pass_" + kind)()

    def job_bytes(self) -> int:
        return 0

    def _traced(self):
        return self.tracer if self.tracer is not None else contextlib.nullcontext()

    def reference_for_seed(self):
        """This workload's reference for this seed, or None when none was
        recorded (the audits still run)."""
        if self.reference is None:
            return None
        return self.reference.get(self.name, {}).get(str(self.seed))

    def _solve_each(self, jobs) -> tuple[float, list[Solve], list]:
        """Call each (key, strategy name, scenario) job and time it."""
        solves, allocs = [], []
        table = tera_tc.strategies.STRATEGIES
        t_pass = time.perf_counter()
        with self._traced():
            for key, name, scenario in jobs:
                t0 = time.perf_counter()
                try:
                    alloc = table[name](scenario)
                except Exception as exc:  # a failed solve is counted, not fatal
                    ms = (time.perf_counter() - t0) * 1e3
                    solves.append(Solve(key, False, ms=ms, error=_error(exc)))
                    allocs.append(None)
                    continue
                ms = (time.perf_counter() - t0) * 1e3
                solves.append(Solve(key, True, alloc.tc, ms))
                allocs.append((alloc, scenario))
        return time.perf_counter() - t_pass, solves, allocs

    @staticmethod
    def _audit_all(allocs, label) -> list[str]:
        problems = []
        for item in allocs:
            if item is not None:
                alloc, scenario = item
                problems += checks.audit(alloc, scenario, label)
        return problems


class DefaultSweep(Part):
    name = "default_sweep"
    seeded = False

    def __init__(self, seed, root, workdir, reference):
        super().__init__(seed, root, workdir, reference)
        self.scenario, self.spec = load_scenario(self.spec_path)
        self.out_dir = os.path.join(workdir, "default_sweep")

    def _jobs(self):
        """The sweep's solves, built as `run_tc_vs_power` builds them."""
        for p_dbm in self.spec.grid:
            params = replace(self.scenario.params, p_total=float(dbm_to_watts(p_dbm)))
            sc = replace(self.scenario, params=params)
            for name in self.spec.strategies:
                yield (name, p_dbm), name, sc

    def pass_cli(self) -> Pass:
        argv = ["run", "--spec", self.spec_path, "--out", self.out_dir]
        with contextlib.redirect_stdout(io.StringIO()), self._traced():
            t0 = time.perf_counter()
            rc = tera_tc.cli.main(argv)
            wall = time.perf_counter() - t0
        problems = [] if rc == 0 else [f"default_sweep: cli exited with {rc}"]
        rows = checks.read_csv(os.path.join(self.out_dir, "summary.csv"))
        solves = [
            Solve((r["strategy"], float(r["sweep_value"])), not r["error"],
                  0.0 if r["error"] else float(r["tc_m_bps"]), error=r["error"])
            for r in rows
        ]
        if self.reference is not None:
            ref_rows = checks.read_csv(checks.REFERENCE_SUMMARY)
            problems += checks.compare_summary(rows, ref_rows, "default_sweep summary.csv")
        problems += self._audit_devices()
        return Pass(wall, solves, problems)

    def _audit_devices(self) -> list[str]:
        """Rebuild each allocation from devices.csv and re-audit it."""
        rows = checks.read_csv(os.path.join(self.out_dir, "devices.csv"))
        groups: dict[tuple, list[dict]] = {}
        for r in rows:
            groups.setdefault((r["strategy"], float(r["sweep_value"])), []).append(r)
        scenarios = {key: sc for key, _, sc in self._jobs()}
        problems = []
        for key, group in groups.items():
            group.sort(key=lambda r: int(r["device"]))
            col = lambda c, t=float: np.array([t(r[c]) for r in group])  # noqa: E731
            alloc = Allocation(
                strategy=key[0],
                subwindows=col("subwindow", int),
                powers=col("power_w"),
                distances=col("distance_m"),
                rates=col("rate_bps"),
                regimes=[r["regime"] for r in group],
            )
            problems += checks.audit(alloc, scenarios[key], f"default_sweep {key}")
        return problems


class ProposedK1000(Part):
    name = "proposed_k1000"
    K = 1000

    def __init__(self, seed, root, workdir, reference):
        super().__init__(seed, root, workdir, reference)
        base, _ = load_scenario(self.spec_path)
        band = uniform_band(500e9, 600e9, self.K, bundled_absorption_table())
        rng = np.random.default_rng(seed)
        reqs = rng.choice([1.0, 4.0], size=self.K) * band.bandwidth
        devices = tuple(DeviceSpec(rate_req=float(r)) for r in reqs)
        self.scenario = Scenario(band=band, params=base.params, devices=devices, config=base.config)

    def pass_solve(self) -> Pass:
        wall, solves, allocs = self._solve_each([(("proposed",), "proposed", self.scenario)])
        problems = self._audit_all(allocs, "proposed_k1000")
        ref = self.reference_for_seed()
        if ref is not None and solves[0].ok and not checks.close(solves[0].tc, ref):
            problems.append(f"proposed_k1000: tc {solves[0].tc!r}, reference {ref!r}")
        return Pass(wall, solves, problems)


class PowerSweepHi(Part):
    name = "power_sweep_hi"
    GRID_DBM = tuple(20.0 + 2.5 * i for i in range(17))

    def __init__(self, seed, root, workdir, reference):
        super().__init__(seed, root, workdir, reference)
        base, _ = load_scenario(self.spec_path)
        rng = np.random.default_rng(seed)
        reqs = rng.uniform(0.5, 1.5, size=base.n_devices) * base.band.bandwidth
        devices = tuple(DeviceSpec(rate_req=float(r)) for r in reqs)
        self.scenarios = [
            replace(base, devices=devices,
                    params=replace(base.params, p_total=float(dbm_to_watts(p))))
            for p in self.GRID_DBM
        ]

    def pass_sweep(self) -> Pass:
        jobs = [((p,), "proposed", sc) for p, sc in zip(self.GRID_DBM, self.scenarios)]
        wall, solves, allocs = self._solve_each(jobs)
        problems = self._audit_all(allocs, "power_sweep_hi")
        ref = self.reference_for_seed()
        if ref is not None:
            for s, r in zip(solves, ref):
                if s.ok and r is not None and not checks.close(s.tc, r):
                    problems.append(f"power_sweep_hi {s.key}: tc {s.tc!r}, reference {r!r}")
        return Pass(wall, solves, problems)


class CdfMc(Part):
    name = "cdf_mc"
    RADII = (5.0, 10.0, 20.0, 40.0)
    TRIALS = 150
    #: The direct pass times one trial in DIRECT_STRIDE, rotating.
    DIRECT_STRIDE = 4

    def __init__(self, seed, root, workdir, reference):
        super().__init__(seed, root, workdir, reference)
        self.scenario, spec = load_scenario(self.spec_path)
        self.spec = replace(spec, kind="cdf_fixed_distance", grid=self.RADII,
                            trials=self.TRIALS, seed=seed, strategies=("tc_fixed", "sum_rate"))
        self.workers = nproc()
        self._first_pass: dict | None = None
        self._direct_round = 0

    def _jobs(self):
        """The pool's jobs, in the order `run_cdf_fixed_distance` builds them."""
        spec = self.spec
        return [
            (spec.kind, strategy, radius, trial, self.scenario, spec.seed, radius_index)
            for radius_index, radius in enumerate(spec.grid)
            for strategy in spec.strategies
            for trial in range(spec.trials)
        ]

    def job_bytes(self) -> int:
        """Pickled bytes of the jobs sent to the pool (computed)."""
        return sum(len(pickle.dumps(job)) for job in self._jobs())

    def _experiment(self, kind: str, workers: int) -> Pass:
        out = os.path.join(self.workdir, f"cdf_{kind}")
        with self._traced():
            t0 = time.perf_counter()
            tera_tc.experiments.run_experiment(self.scenario, self.spec, out, workers=workers)
            wall = time.perf_counter() - t0
        rows = checks.read_csv(os.path.join(out, "summary.csv"))
        solves = [
            Solve((r["strategy"], float(r["sweep_value"]), int(r["trial"])), not r["error"],
                  0.0 if r["error"] else float(r["tc_m_bps"]), error=r["error"])
            for r in rows
        ]
        problems = []
        ref = self.reference_for_seed()
        if ref is not None:
            sums = group_sums(rows)
            if set(sums) != set(ref):
                problems.append(f"cdf_mc {kind}: groups {sorted(sums)} differ from the reference")
            for g, (tc, rate) in sums.items():
                r = ref.get(g)
                if r is not None and not (checks.close(tc, r[0]) and checks.close(rate, r[1])):
                    problems.append(f"cdf_mc {kind} {g}: sums {tc!r}, {rate!r}; reference {r}")
        digests = {name: _sha256(os.path.join(out, name)) for name in ("summary.csv", "cdf.csv")}
        if self._first_pass is None:
            self._first_pass = {"digests": digests, "tc": {s.key: s.tc for s in solves}}
        elif digests != self._first_pass["digests"]:
            problems.append(f"cdf_mc {kind}: output files differ from the first pass's")
        return Pass(wall, solves, problems)

    def pass_serial(self) -> Pass:
        return self._experiment("serial", 1)

    def pass_parallel(self) -> Pass:
        return self._experiment("parallel", self.workers)

    def pass_direct(self) -> Pass:
        """A rotating quarter of the trials, solved one by one as `_cdf_job`
        builds them, for per-solve times."""
        phase = self._direct_round % self.DIRECT_STRIDE
        self._direct_round += 1
        d_min, n_dev = self.scenario.config.d_min, self.scenario.n_devices
        jobs = []
        for radius_index, radius in enumerate(self.spec.grid):
            for trial in range(phase, self.spec.trials, self.DIRECT_STRIDE):
                rng = np.random.default_rng([self.spec.seed, radius_index, trial])
                d = tera_tc.experiments.sample_disk_distances(rng, n_dev, radius, d_min)
                devices = tuple(
                    replace(dev, fixed_distance=float(di))
                    for dev, di in zip(self.scenario.devices, d)
                )
                sc = replace(self.scenario, devices=devices)
                for name in self.spec.strategies:
                    jobs.append(((name, radius, trial), name, sc))
        wall, solves, allocs = self._solve_each(jobs)
        problems = self._audit_all(allocs, "cdf_mc direct")
        if self._first_pass is not None:
            for s in solves:
                want = self._first_pass["tc"].get(s.key)
                if s.ok and want is not None and not checks.close(s.tc, want, 1e-12):
                    problems.append(f"cdf_mc direct {s.key}: tc {s.tc!r}, experiment gave {want!r}")
        return Pass(wall, solves, problems)


def group_sums(rows) -> dict[str, list[float]]:
    """Summed (tc, sum rate) per strategy and radius over the rows that
    solved."""
    out: dict[str, list[float]] = {}
    for r in rows:
        if r["error"]:
            continue
        g = out.setdefault(f"{r['strategy']}@{float(r['sweep_value']):g}", [0.0, 0.0])
        g[0] += float(r["tc_m_bps"])
        g[1] += float(r["sum_rate_bps"])
    return out


PARTS = {p.name: p for p in (DefaultSweep, ProposedK1000, PowerSweepHi, CdfMc)}


@dataclass(frozen=True)
class Step:
    """One pass of a part in each round, and what its time counts in."""

    part: str
    kind: str
    #: Counts in wall_s.
    wall: bool = False
    #: Counts in serial_wall_s (the round with no process pool).
    serial: bool = False
    #: Runs under the tracer in a traced round.
    traced: bool = False


WORKLOADS = {
    "sweeps": (
        Step("default_sweep", "cli", wall=True, serial=True, traced=True),
        Step("power_sweep_hi", "sweep", wall=True, serial=True, traced=True),
    ),
    "assign_mc": (
        Step("proposed_k1000", "solve", wall=True, serial=True, traced=True),
        Step("cdf_mc", "serial", serial=True, traced=True),
        Step("cdf_mc", "parallel", wall=True),
        Step("cdf_mc", "direct"),
    ),
}


@dataclass
class Round:
    """Each step's pass in one round, and the tracer of a traced round."""

    passes: list[tuple[Step, Pass]]
    tracer: object = None

    def seconds(self, counts) -> float:
        """Summed pass time of the steps for which `counts(step)` holds."""
        return sum(p.wall_s for step, p in self.passes if counts(step))


class Workload:
    """A benchmark workload: its parts, built from one seed, and its steps."""

    def __init__(self, name: str, seed: int, root: str, workdir: str, reference: dict | None):
        self.name = name
        self.steps = WORKLOADS[name]
        self.parts = {}
        for step in self.steps:
            if step.part not in self.parts:
                self.parts[step.part] = PARTS[step.part](seed, root, workdir, reference)
        self.workers = max(p.workers for p in self.parts.values())

    def run_round(self, tracer=None) -> Round:
        passes = []
        for step in self.steps:
            part = self.parts[step.part]
            part.tracer = tracer if step.traced else None
            try:
                passes.append((step, part.run(step.kind)))
            finally:
                part.tracer = None
        return Round(passes, tracer)

    def job_bytes(self) -> int:
        return sum(p.job_bytes() for p in self.parts.values())

    def unreferenced(self) -> list[str]:
        """Seeded parts with no reference recorded for this seed."""
        return [p.name for p in self.parts.values() if p.seeded and p.reference_for_seed() is None]
