"""Command-line driver.

Subcommands:
  run        execute the experiment described by a scenario file
  validate   parse and sanity-check a scenario file
  link-curve emit the single-link transport capacity versus distance
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .channel import BandPlan, DomainError, LinkParams, Subwindow
from .experiments import link_curve, run_experiment, write_results
from .scenario import ScenarioError, check_strategies, load_scenario
from .units import db_to_linear, dbm_to_watts


def _cmd_run(args) -> int:
    cpus = os.cpu_count() or 1
    if not 1 <= args.parallel <= cpus:
        raise ScenarioError(f"--parallel: must be between 1 and {cpus}, got {args.parallel}")
    if args.seed is not None and args.seed < 0:
        raise ScenarioError(f"--seed: must be >= 0, got {args.seed}")
    scenario, spec = load_scenario(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.strategies is not None:
        names = tuple(args.strategies.split(",")) if args.strategies else ()
        check_strategies(names, "--strategies")
        spec = replace(spec, strategies=names)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"--out: {args.out}: {exc.strerror or exc}") from exc
    written = run_experiment(scenario, spec, args.out, workers=args.parallel)
    for name, path in sorted(written.items()):
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    scenario, spec = load_scenario(args.spec)
    print(
        f"ok: {scenario.n_devices} devices, {scenario.band.n} subwindows "
        f"({scenario.band.frequencies[0] / 1e9:.1f}-"
        f"{scenario.band.frequencies[-1] / 1e9:.1f} GHz, "
        f"W={scenario.band.bandwidth / 1e9:g} GHz), "
        f"P_T={scenario.params.p_total:g} W, experiment={spec.kind}"
    )
    return 0


#: The link-curve flag behind each `DomainError.field`.
_LINK_CURVE_FLAGS = {
    "frequency": "--f", "bandwidth": "--bandwidth", "k_abs": "--kabs", "p_total": "--power",
    "gt_linear": "--gain-dbi", "gr_linear": "--gain-dbi", "n0": "--noise-dbm-per-hz",
}


def _cmd_link_curve(args) -> int:
    if not 0 < args.d_min < math.inf:
        raise ScenarioError(f"--d-min must be finite and > 0, got {args.d_min:g}")
    if not args.d_min < args.d_max < math.inf:
        raise ScenarioError(f"--d-max must be finite and > --d-min, got {args.d_max:g}")
    if args.points < 2:
        raise ScenarioError(f"--points: need at least 2 grid points, got {args.points}")
    try:
        (sub,) = BandPlan((Subwindow(args.f, args.bandwidth, args.kabs),)).subwindows
        params = LinkParams(
            gt_linear=float(db_to_linear(args.gain_dbi)),
            gr_linear=float(db_to_linear(args.gain_dbi)),
            n0=float(dbm_to_watts(args.noise_dbm_per_hz)),
            p_total=float(dbm_to_watts(args.power)),
        )
    except DomainError as exc:
        raise ScenarioError(f"{_LINK_CURVE_FLAGS[exc.field]}: {exc}") from exc
    d = np.logspace(np.log10(args.d_min), np.log10(args.d_max), args.points)
    rows = link_curve(sub.frequency, sub.k_abs, sub.bandwidth, params, d)
    try:
        write_results(rows, args.out)
    except OSError as exc:
        raise ScenarioError(f"--out: {args.out}: {exc.strerror or exc}") from exc
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tera-tc")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment in a scenario file")
    p_run.add_argument("--spec", required=True, help="scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    p_run.add_argument(
        "--strategies", default=None, help="comma-separated strategy names to run"
    )
    p_run.add_argument("--parallel", type=int, default=1, help="worker processes")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--spec", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_curve = sub.add_parser("link-curve", help="single-link TC vs distance")
    p_curve.add_argument("--f", type=float, required=True, help="carrier frequency, Hz")
    p_curve.add_argument("--kabs", type=float, required=True, help="absorption coefficient, 1/m")
    p_curve.add_argument("--power", type=float, required=True, help="transmit power, dBm")
    p_curve.add_argument("--bandwidth", type=float, default=1e9, help="subwindow bandwidth, Hz")
    p_curve.add_argument("--gain-dbi", type=float, default=15.0, help="antenna gain per side, dBi")
    p_curve.add_argument(
        "--noise-dbm-per-hz", type=float, default=-168.0, help="noise PSD, dBm/Hz"
    )
    p_curve.add_argument("--d-min", type=float, default=0.1, help="smallest distance, m")
    p_curve.add_argument("--d-max", type=float, default=100.0, help="largest distance, m")
    p_curve.add_argument("--points", type=int, default=500)
    p_curve.add_argument("--out", default="link_curve.csv", help="output CSV path")
    p_curve.set_defaults(func=_cmd_link_curve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
