"""Output checks: re-audit, rate consistency and reference comparison.

Every check returns a list of problem strings; an empty list means the
output passed. A solve that raised is not a problem here: it is counted
as failed by the caller. A problem is a returned output that is wrong.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import tera_tc.strategies as strategies
from tera_tc.assignment import AssignmentError
from tera_tc.distance_power import InfeasibleError

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_JSON = os.path.join(HERE, "reference", "reference.json")
REFERENCE_SUMMARY = os.path.join(HERE, "reference", "default_sweep_summary.csv")

#: Relative tolerance of every comparison with the recorded reference.
REL_TOL = 1e-6
#: Relative tolerance between a reported rate and the rate recomputed
#: from the reported subwindow, power and distance.
RATE_REL_TOL = 1e-6

#: Strategies whose allocations must meet every rate floor.
FLOOR_STRATEGIES = {"proposed", "distmax", "nonadaptive"}
#: Columns of summary.csv compared value by value with the reference.
#: `iterations` is a work count that optimisations are expected to change.
SUMMARY_VALUES = ("tc_m_bps", "sum_rate_bps", "power_used_w")


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def load_reference() -> dict:
    with open(REFERENCE_JSON) as fh:
        return json.load(fh)


def audit(alloc, scenario, label: str) -> list[str]:
    """`audit_allocation` with floors checked for the floor strategies,
    plus the rate recomputation below."""
    try:
        strategies.audit_allocation(
            alloc, scenario, check_rate_floors=alloc.strategy in FLOOR_STRATEGIES
        )
    except (InfeasibleError, AssignmentError) as exc:
        return [f"{label}: audit failed: {exc}"]
    return rate_consistency(alloc, scenario, label)


def rate_consistency(alloc, scenario, label: str) -> list[str]:
    """Recompute each rate from the link budget, independently of the
    package: W log2(1 + p GtGr / (n0 W e^{k d} (4 pi f d / c)^2))."""
    band, prm = scenario.band, scenario.params
    n = np.asarray(alloc.subwindows)
    f, k = band.frequencies[n], band.k_abs[n]
    d, p, w = np.asarray(alloc.distances), np.asarray(alloc.powers), band.bandwidth
    log_ginv = (
        math.log(prm.n0 * w / (prm.gt_linear * prm.gr_linear))
        + k * d
        + 2.0 * np.log(4.0 * math.pi * f * d / prm.c)
    )
    with np.errstate(over="ignore", divide="ignore"):
        snr = np.where(p > 0, np.exp(np.log(np.maximum(p, 1e-300)) - log_ginv), 0.0)
    rates = w * np.log1p(snr) / math.log(2.0)
    bad = np.abs(rates - alloc.rates) > RATE_REL_TOL * np.maximum(np.abs(rates), w * 1e-9)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [
            f"{label}: {int(bad.sum())} rates disagree with the link budget "
            f"(device {i}: reported {alloc.rates[i]:.9e}, recomputed {rates[i]:.9e})"
        ]
    return []


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _row_key(row: dict) -> tuple:
    return (row["experiment"], row["strategy"], float(row["sweep_value"]), int(row["trial"]))


def compare_summary(rows: list[dict], ref_rows: list[dict], label: str) -> list[str]:
    """summary.csv against the reference, value by value.

    Rows are matched by (experiment, strategy, sweep value, trial). A row
    that failed in the reference is not compared; a row that fails now is
    counted as a failed solve by the caller.
    """
    cur = {_row_key(r): r for r in rows}
    ref = {_row_key(r): r for r in ref_rows}
    if set(cur) != set(ref):
        return [f"{label}: summary rows differ from the reference: "
                f"{sorted(set(cur) ^ set(ref))[:3]}"]
    problems = []
    for key, r in ref.items():
        c = cur[key]
        if r["error"] or c["error"]:
            continue
        for col in SUMMARY_VALUES:
            if not close(float(c[col]), float(r[col])):
                problems.append(f"{label}: {key} {col} = {c[col]}, reference {r[col]}")
    return problems
