"""Experiment drivers: parameter sweeps, Monte Carlo CDFs, and CSV output.

`RUNNERS` has a runner for each kind of `scenario.KINDS`. Each returns
plain row dictionaries, to be written as CSV (`write_results`) or
inspected in memory, and each that solves an allocation runs every
strategy of the spec, in list order. Every call of a strategy in
`STRATEGIES` goes through `_solve`, which turns an exception into the
error column of its summary row, so one failing strategy does not stop an
experiment; the CDF's stacked fixed-distance kernels record theirs the
same way in `_solve_stack`. `run_experiment` names the detail file from
`scenario.KINDS` and writes every file through `write_results` except
`cdf.csv`, which it writes straight from the sorted per-(radius,
strategy) rate arrays (`_write_cdf`) with the same bytes and no row
dictionaries. Sweep points, and blocks of Monte Carlo trials that
share a (radius, strategy), are independent jobs; the fixed-distance
strategies solve a whole block in one stacked pass. With `workers > 1`
the jobs run in a process pool, in `_CHUNKS_PER_WORKER` chunks per
worker, and are merged back in deterministic (sweep, trial) order. Each
trial draws its own device positions, so output files are byte-identical
for any worker count.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
import os
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__
from .channel import absorption_loss, log_inverse_gain, shannon_rate, spreading_loss
from .distance_power import optimal_distance_pair
from .scenario import KINDS, ExperimentSpec, Scenario, scenario_to_dict
from .strategies import FIXED_DISTANCE_STACKS, STRATEGIES, Allocation, DeviceSpec
from .strategies import audit_allocation  # noqa: F401 -- perfbench/tracer.py patches this name here
from .units import dbm_to_watts


def _summary_row(experiment: str, strategy: str, sweep_value, trial: int, outcome: Allocation | Exception):
    """The summary row of one solve from its allocation or the exception it raised."""
    row = {
        "experiment": experiment,
        "strategy": strategy,
        "sweep_value": sweep_value,
        "trial": trial,
        "tc_m_bps": "",
        "sum_rate_bps": "",
        "power_used_w": "",
        "iterations": "",
        "error": "",
    }
    if isinstance(outcome, Exception):
        row["error"] = f"{type(outcome).__name__}: {outcome}"
    else:
        row.update(
            tc_m_bps=outcome.tc,
            sum_rate_bps=outcome.sum_rate,
            power_used_w=outcome.power_used,
            iterations=outcome.iterations,
        )
    return row


def _device_rows(experiment: str, strategy: str, sweep_value, trial: int, scenario: Scenario, alloc: Allocation):
    band = scenario.band
    rows = []
    for k in range(len(alloc.subwindows)):
        n = int(alloc.subwindows[k])
        rows.append(
            {
                "experiment": experiment,
                "strategy": strategy,
                "sweep_value": sweep_value,
                "trial": trial,
                "device": k,
                "subwindow": n,
                "frequency_hz": band.frequencies[n],
                "k_abs_per_m": band.k_abs[n],
                "distance_m": alloc.distances[k],
                "power_w": alloc.powers[k],
                "rate_bps": alloc.rates[k],
                "rate_req_bps": scenario.devices[k].rate_req,
                "regime": alloc.regimes[k],
            }
        )
    return rows


def _solve(strategy: str, scenario: Scenario):
    """`STRATEGIES[strategy]` on the scenario: its allocation, or the
    exception it raised, which is recorded per row while the experiment
    continues. Every strategy audits its own allocation."""
    try:
        return STRATEGIES[strategy](scenario)
    except Exception as exc:
        return exc


def _run_strategy_job(job):
    """One (strategy, scenario) work item; top-level so it pickles."""
    experiment, strategy, sweep_value, trial, scenario = job
    outcome = _solve(strategy, scenario)
    row = _summary_row(experiment, strategy, sweep_value, trial, outcome)
    if isinstance(outcome, Exception):
        return row, []
    return row, _device_rows(experiment, strategy, sweep_value, trial, scenario, outcome)


#: Pool chunks per worker in `_map_jobs` (304 CDF blocks of up to 4 trials
#: on 2 workers: chunks of 10). A chunk costs one queue round trip, under a
#: millisecond; a worker idles at the end of the map for at most about one
#: chunk's run time.
_CHUNKS_PER_WORKER = 16


def _map_jobs(fn, jobs, workers: int):
    """fn over jobs in order, in a process pool when workers > 1.

    Jobs go to the workers in about `_CHUNKS_PER_WORKER` chunks per worker.
    A `Scenario` shared by many jobs is pickled once per chunk rather than
    once per job, and the chunks are small enough that the slow jobs at
    the end of a list (the widest CDF radius) spread over every worker.
    """
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial runs never import multiprocessing

        chunksize = max(1, math.ceil(len(jobs) / (_CHUNKS_PER_WORKER * workers)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs, chunksize=chunksize))
    return [fn(job) for job in jobs]


def _run_sweep(spec: ExperimentSpec, scenarios, workers: int):
    """Every strategy of `spec` on each (sweep value, scenario) pair, as
    (summary rows, device rows)."""
    jobs = [(spec.kind, s, value, 0, sc) for value, sc in scenarios for s in spec.strategies]
    results = _map_jobs(_run_strategy_job, jobs, workers)
    summary = [r[0] for r in results]
    devices = [row for r in results for row in r[1]]
    return summary, devices


def run_tc_vs_power(scenario: Scenario, spec: ExperimentSpec, workers: int = 1):
    """TC of the selected strategies over a total-power grid (dBm)."""
    scenarios = [
        (p_dbm, replace(scenario, params=replace(scenario.params, p_total=float(dbm_to_watts(p_dbm)))))
        for p_dbm in spec.grid
    ]
    return _run_sweep(spec, scenarios, workers)


def fig8_rate_tiers(n_devices: int, bandwidth: float) -> tuple[DeviceSpec, ...]:
    """Rate floors of 1/2/3/4 bps/Hz for device blocks of 25."""
    return tuple(
        DeviceSpec(rate_req=(1 + min(k // 25, 3)) * bandwidth) for k in range(n_devices)
    )


def run_tc_vs_devices(scenario: Scenario, spec: ExperimentSpec, workers: int = 1):
    """TC over the number of devices, with tiered rate floors."""
    scenarios = [
        (k_count, replace(scenario, devices=fig8_rate_tiers(int(k_count), scenario.band.bandwidth)))
        for k_count in spec.grid
    ]
    return _run_sweep(spec, scenarios, workers)


def sample_disk_distances(rng: np.random.Generator, n: int, radius: float, d_min: float) -> np.ndarray:
    """Radial distances of n points uniform over a disk of the given radius."""
    return np.maximum(radius * np.sqrt(rng.random(n)), d_min)


#: Most elements of one T x K x N float array of a CDF block (320 kB). A
#: block holds T = max(1, _BLOCK_ELEMS // (K N)) trials, 4 at K = N = 100.
#: Larger blocks are no faster and fragment the heap more: with 6-trial
#: blocks the peak RSS of a process repeating the CDF experiment grew
#: about twice as fast per repetition.
_BLOCK_ELEMS = 40_000


def _solve_stack(solve, scenario: Scenario, d: np.ndarray) -> list:
    """`solve` on the T x K distance stack, each trial's allocation or
    exception. A block that raises is solved again one trial at a time,
    so that only the trials at fault record an error."""
    try:
        return solve(scenario, d)
    except Exception as exc:
        if len(d) == 1:
            return [exc]
    return [_solve_stack(solve, scenario, row[None])[0] for row in d]


def _solve_each(strategy: str, scenario: Scenario, d: np.ndarray) -> list:
    """`_solve` on one scenario per row of distances."""
    rows = (tuple(DeviceSpec(dev.rate_req, di) for dev, di in zip(scenario.devices, row)) for row in d.tolist())
    return [_solve(strategy, replace(scenario, devices=devices)) for devices in rows]


def _cdf_job(job):
    """One block of trials of one (radius, strategy): their summary rows
    and the rates of the trials that solved, in trial order. Each trial's
    distances come from its own generator, so blocks and workers do not
    change them."""
    experiment, strategy, radius, trials, scenario, seed, radius_index = job
    n_dev, d_min = scenario.n_devices, scenario.config.d_min
    d = np.array([
        sample_disk_distances(np.random.default_rng([seed, radius_index, trial]), n_dev, radius, d_min)
        for trial in trials
    ])
    stack = FIXED_DISTANCE_STACKS.get(strategy)
    if stack is not None:
        outcomes = _solve_stack(stack, scenario, d)
    else:
        outcomes = _solve_each(strategy, scenario, d)
    summary, rates = [], []
    for trial, outcome in zip(trials, outcomes):
        summary.append(_summary_row(experiment, strategy, radius, trial, outcome))
        if not isinstance(outcome, Exception):
            rates.append(outcome.rates)
    return summary, np.concatenate(rates) if rates else np.empty(0)


def _cdf_groups(scenario: Scenario, spec: ExperimentSpec, workers: int):
    """The CDF experiment's summary rows and its pooled rates: one
    ((radius, strategy), sorted rates) pair per group, in sorted order.

    One job solves a block of trials of one (radius, strategy); the
    fixed-distance strategies solve a block in one stacked pass.
    """
    block = max(1, _BLOCK_ELEMS // (scenario.n_devices * scenario.band.n))
    jobs = []
    for radius_index, radius in enumerate(spec.grid):
        for strategy in spec.strategies:
            for start in range(0, spec.trials, block):
                trials = range(start, min(start + block, spec.trials))
                jobs.append(
                    (spec.kind, strategy, radius, trials, scenario, spec.seed, radius_index)
                )
    results = _map_jobs(_cdf_job, jobs, workers)
    summary = [row for rows, _ in results for row in rows]
    pooled: dict[tuple[float, str], list[np.ndarray]] = {}
    for job, (_, rates) in zip(jobs, results):
        pooled.setdefault((job[2], job[1]), []).append(rates)
    return summary, [(key, np.sort(np.concatenate(rates))) for key, rates in sorted(pooled.items())]


#: Columns of `cdf.csv`, the keys of `run_cdf_fixed_distance`'s CDF rows.
_CDF_COLUMNS = ("experiment", "strategy", "radius_m", "rate_bps", "cdf")


def _cdf_levels(m: int) -> list[float]:
    """The empirical CDF of m sorted samples: (i + 1) / m."""
    return (np.arange(1, m + 1) / m).tolist()


def run_cdf_fixed_distance(scenario: Scenario, spec: ExperimentSpec, workers: int = 1):
    """Monte Carlo fixed-distance experiment: device locations are drawn
    uniformly over a disk per trial, rates are pooled over devices and
    trials jointly, and empirical CDF points are emitted per (radius,
    strategy).

    Returns (summary_rows, cdf_rows); `run_experiment` writes the same
    rows to `cdf.csv` from the sorted rates without building them.
    """
    summary, groups = _cdf_groups(scenario, spec, workers)
    cdf_rows = [
        dict(zip(_CDF_COLUMNS, (spec.kind, strategy, radius, r, c)))
        for (radius, strategy), rates in groups
        for r, c in zip(rates.tolist(), _cdf_levels(len(rates)))
    ]
    return summary, cdf_rows


#: Rows formatted at a time by `_write_cdf`. A 256-row block's text
#: (~20 kB) reuses the heap memory of the block before; 4096-row blocks
#: (300 kB strings) fragmented the heap, and the peak RSS of a process that
#: repeats a CDF experiment grew ~2 MB with each repetition.
_WRITE_BLOCK = 256


def _write_cdf(kind: str, groups, path) -> None:
    """`write_results` of `run_cdf_fixed_distance`'s CDF rows, byte for
    byte, from the sorted rates of each group.

    A group's `experiment,strategy,radius_m,` prefix is formatted once by
    `csv.writer`, each rate by `float.__repr__` (the `str` that
    `csv.writer` writes for a float), and the CDF column once per distinct
    group size. An empty group writes no row.
    """
    levels: dict[int, list[str]] = {}
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(_CDF_COLUMNS)
        for (radius, strategy), rates in groups:
            m = len(rates)
            if m not in levels:
                levels[m] = [f",{c!r}\n" for c in _cdf_levels(m)]
            head = io.StringIO()
            csv.writer(head, lineterminator="\n").writerow((kind, strategy, radius))
            prefix = head.getvalue()[:-1] + ","
            lines = map(operator.add, map(float.__repr__, rates.tolist()), levels[m])
            while block := list(itertools.islice(lines, _WRITE_BLOCK)):
                fh.write(prefix + prefix.join(block))


#: Device-row columns that lead each subwindow row, in its column order.
_SUBWINDOW_KEYS = ("experiment", "strategy", "subwindow", "frequency_hz", "k_abs_per_m", "device", "distance_m")


def run_loss_distance_vs_frequency(scenario: Scenario, spec: ExperimentSpec, workers: int = 1):
    """Per-subwindow losses and the distance allocated by each strategy of
    the spec: one block of rows per strategy that solved, in list order,
    each in subwindow order. The path loss column excludes antenna gains."""
    summary, devices = _run_sweep(spec, [(0.0, scenario)], workers)
    n = scenario.n_devices  # the device rows of each strategy that solved
    by_subwindow = operator.itemgetter("subwindow")
    blocks = (sorted(devices[i:i + n], key=by_subwindow) for i in range(0, len(devices), n))
    rows = []
    for dev in itertools.chain.from_iterable(blocks):
        d = dev["distance_m"]
        spread = float(spreading_loss(dev["frequency_hz"], d, scenario.params.c))
        absorb = float(absorption_loss(dev["k_abs_per_m"], d))
        rows.append(
            {
                **{key: dev[key] for key in _SUBWINDOW_KEYS},
                "spreading_loss_db": -10.0 * math.log10(spread),
                "absorption_loss_db": -10.0 * math.log10(absorb),
                "path_loss_db": -10.0 * math.log10(spread * absorb),
                "rate_bps": dev["rate_bps"],
            }
        )
    return summary, rows


#: Device-row columns of the rate-distance scatter, in its column order.
_SCATTER_KEYS = ("experiment", "strategy", "device", "rate_req_bps", "distance_m", "rate_bps")


def run_rate_distance_tradeoff(scenario: Scenario, spec: ExperimentSpec, workers: int = 1):
    """(distance, rate) scatter per strategy for the rate-distance trade-off."""
    summary, devices = _run_sweep(spec, [(0.0, scenario)], workers)
    return summary, [{key: dev[key] for key in _SCATTER_KEYS} for dev in devices]


def run_single_link_curve(scenario: Scenario, spec: ExperimentSpec, workers: int = 1):
    """Transport capacity of one full-power link versus distance, plus the
    stationary optimum, for the first subwindow of the band."""
    band = scenario.band
    params = scenario.params
    sub = band.subwindows[0]
    rows = link_curve(sub.frequency, sub.k_abs, band.bandwidth, params, np.asarray(spec.grid))
    return [], rows


def link_curve(frequency: float, k_abs: float, bandwidth: float, params, distances) -> list[dict]:
    """T(d) = d * W * log2(1 + SNR(d)) rows at full power over a distance grid."""
    d = np.asarray(distances, dtype=float)
    snr = np.exp(
        math.log(params.p_total) - log_inverse_gain(frequency, k_abs, d, bandwidth, params)
    )
    rate = shannon_rate(snr, bandwidth)
    d_opt, xi_opt = optimal_distance_pair(params.p_total, frequency, k_abs, bandwidth, params)
    rate_opt = float(shannon_rate(xi_opt, bandwidth))
    rows = [
        {
            "frequency_hz": frequency,
            "k_abs_per_m": k_abs,
            "distance_m": float(di),
            "rate_bps": float(ri),
            "tc_m_bps": float(di * ri),
            "is_optimum": 0,
        }
        for di, ri in zip(d, rate)
    ]
    rows.append(
        {
            "frequency_hz": frequency,
            "k_abs_per_m": k_abs,
            "distance_m": d_opt,
            "rate_bps": rate_opt,
            "tc_m_bps": d_opt * rate_opt,
            "is_optimum": 1,
        }
    )
    return rows


RUNNERS = {
    "tc_vs_power": run_tc_vs_power,
    "tc_vs_devices": run_tc_vs_devices,
    "cdf_fixed_distance": run_cdf_fixed_distance,
    "loss_distance_vs_frequency": run_loss_distance_vs_frequency,
    "rate_distance_tradeoff": run_rate_distance_tradeoff,
    "exhaustive_validation": run_tc_vs_power,
    "single_link_curve": run_single_link_curve,
}


def write_results(rows, path) -> None:
    """Write row dictionaries as CSV, columns in the first row's key order.

    `run_experiment` writes every file through it except `cdf.csv`, which
    `_write_cdf` formats from arrays with the same bytes.

    Every row must have exactly the first row's keys; `ValueError` names
    the first that does not, before the file is opened. An empty `rows`
    writes an empty file. The bytes are those of `csv.writer` (minimal
    quoting, "\n" line ends).
    """
    rows = list(rows)
    fieldnames = list(rows[0]) if rows else []
    for i, row in enumerate(rows):
        if row.keys() != rows[0].keys():
            raise ValueError(f"row {i} has keys {list(row)}, the header {fieldnames}")
    with open(path, "w", newline="") as fh:
        if rows:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(fieldnames)
            writer.writerows([row[key] for key in fieldnames] for row in rows)


def run_experiment(scenario: Scenario, spec: ExperimentSpec, out_dir, workers: int = 1) -> dict:
    """Dispatch on the experiment kind and write summary/detail CSVs plus a
    metadata JSON into `out_dir`. Returns {filename: path}."""
    os.makedirs(out_dir, exist_ok=True)
    if spec.kind == "cdf_fixed_distance":
        # cdf.csv straight from the sorted rates, with no row dicts.
        summary, groups = _cdf_groups(scenario, spec, workers)
        write_detail = partial(_write_cdf, spec.kind, groups) if any(len(r) for _, r in groups) else None
    else:
        summary, detail = RUNNERS[spec.kind](scenario, spec, workers)
        write_detail = partial(write_results, detail) if detail else None
    written = {}
    if summary:
        path = os.path.join(out_dir, "summary.csv")
        write_results(summary, path)
        written["summary.csv"] = path
    detail_name = KINDS[spec.kind][1]
    if write_detail is not None:
        path = os.path.join(out_dir, detail_name)
        write_detail(path)
        written[detail_name] = path
    meta = {
        "version": __version__,
        "kind": spec.kind,
        "seed": spec.seed,
        "trials": spec.trials,
        "strategies": list(spec.strategies),
        "cdf_pooling": "devices and trials pooled jointly",
        "scenario": scenario_to_dict(scenario, spec),
    }
    meta_path = os.path.join(out_dir, "meta.json")
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written["meta.json"] = meta_path
    return written
