"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line (visible with `pytest -s` or on failure).

The heavy Monte Carlo criteria use fixed seeds so the gate is
deterministic run to run.
"""

import dataclasses
import filecmp
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from tera_tc.assignment import assignment_payoff, exhaustive_assign, hungarian_assign
from tera_tc.channel import bundled_absorption_table, inverse_gain
from tera_tc.distance_power import (
    iterate_power_distance,
    solve_stationarity_snr,
    stationarity_lhs,
)
from tera_tc.experiments import run_cdf_fixed_distance, run_experiment, run_loss_distance_vs_frequency
from tera_tc.scenario import ExperimentSpec, default_scenario, uniform_band
from tera_tc.strategies import (
    DeviceSpec,
    Scenario,
    distance_max_benchmark,
    exhaustive_tc_max,
    non_adaptive_benchmark,
    proposed_tc_max,
)
from tera_tc.units import dbm_to_watts
from tera_tc.waterfill import waterfill
from radio_params import make_params

LN2 = math.log(2.0)

# Independent bisection oracle on ln(1+xi)(1+xi) = 2 xi (mpmath, 40 digits).
XI_STATIONARY_0 = 3.921553634567505

POWER_GRID_DBM = (20.0, 25.0, 30.0, 35.0, 40.0)


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def single_link_tc(d, power, f, k_abs, bandwidth, params):
    gain = (
        params.gt_linear
        * params.gr_linear
        * np.exp(-k_abs * d)
        * (params.c / (4.0 * np.pi * f * d)) ** 2
    )
    return d * bandwidth * np.log1p(power * gain / (params.n0 * bandwidth)) / LN2


def uniform_rate_scenario(rate_per_hz: float, p_dbm: float) -> Scenario:
    scenario, _ = default_scenario()
    w = scenario.band.bandwidth
    return dataclasses.replace(
        scenario,
        params=dataclasses.replace(
            scenario.params, p_total=float(dbm_to_watts(p_dbm))
        ),
        devices=tuple(DeviceSpec(rate_req=rate_per_hz * w) for _ in range(100)),
    )


def test_criterion_01_single_link_optimality():
    t0 = time.monotonic()
    params = make_params(10.0)
    worst = 0.0
    for k_abs in (0.0, 0.2, 0.4, 0.6):
        state = iterate_power_distance(
            np.array([5e11]), np.array([k_abs]), np.array([0.0]), 1e9, params
        )
        grid = np.logspace(-2, 2, 100_000)
        best = single_link_tc(grid, params.p_total, 5e11, k_abs, 1e9, params).max()
        worst = max(worst, abs(state.tc - best) / best)
    elapsed = time.monotonic() - t0
    report(
        1,
        "single-link optimality vs dense grid",
        worst < 5e-3 and elapsed < 5.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_stationarity_oracle():
    xi = solve_stationarity_snr(0.0)
    residual = abs(stationarity_lhs(xi) - 2.0)
    rel = abs(xi - XI_STATIONARY_0) / XI_STATIONARY_0
    report(
        2,
        "stationary SNR oracle",
        residual < 1e-10 and rel < 1e-9,
        f"residual {residual:.1e}, oracle gap {rel:.1e}",
    )


def test_criterion_03_assignment_optimality():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    for _ in range(500):
        n_dev = int(rng.integers(1, 7))
        n_sub = int(rng.integers(n_dev, 7))
        payoff = rng.random((n_dev, n_sub)) * 100.0
        hung = assignment_payoff(payoff, hungarian_assign(payoff))
        exact = assignment_payoff(payoff, exhaustive_assign(payoff))
        assert hung == exact
    elapsed = time.monotonic() - t0
    report(3, "Hungarian equals exhaustive on 500 instances", elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_04_waterfill_kkt():
    rng = np.random.default_rng(7)
    worst_budget = worst_level = worst_tc = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        w = rng.uniform(0.5, 40.0, n)
        g = 10.0 ** rng.uniform(-6, 1, n)
        p_total = 10.0 ** rng.uniform(-2, 1)
        p = waterfill(w, g, p_total)
        worst_budget = max(worst_budget, abs(p.sum() - p_total) / p_total)
        levels = w / (g + p)
        active = p > 0
        lam = levels[active].mean()
        if active.sum() > 1:
            worst_level = max(
                worst_level, float(np.abs(levels[active] - lam).max() / lam)
            )
        tc = float((w * np.log1p(p / g)).sum())
        # 1e6-sample random-simplex search as the independent maximizer.
        best = -np.inf
        for _ in range(4):
            x = rng.dirichlet(np.ones(n), size=250_000) * p_total
            best = max(best, float((w * np.log1p(x / g)).sum(axis=1).max()))
        worst_tc = max(worst_tc, (best - tc) / abs(tc))
    report(
        4,
        "water-filling KKT and simplex dominance",
        worst_budget < 1e-9 and worst_level < 1e-8 and worst_tc < 1e-6,
        f"budget {worst_budget:.1e}, levels {worst_level:.1e}, tc gap {worst_tc:.1e}",
    )


def test_criterion_05_proposed_vs_exhaustive_small():
    t0 = time.monotonic()
    band = uniform_band(5e11, 6e11, 5, bundled_absorption_table())
    w = band.bandwidth
    worst = 0.0
    for p_dbm in POWER_GRID_DBM:
        sc = Scenario(
            band=band,
            params=make_params(p_dbm),
            devices=tuple(DeviceSpec(rate_req=k * w) for k in range(1, 6)),
        )
        tp = proposed_tc_max(sc).tc
        te = exhaustive_tc_max(sc).tc
        worst = max(worst, abs(te - tp) / te)
    elapsed = time.monotonic() - t0
    report(
        5,
        "proposed within 1% of exhaustive (K=N=5)",
        worst < 0.01 and elapsed < 120.0,
        f"max rel gap {worst:.2e}, {elapsed:.0f}s",
    )


def test_criterion_06_benchmark_ordering():
    t0 = time.monotonic()
    ordering_ok = True
    detail = []
    # (a) uniform 1 bps/Hz: proposed dominates both benchmarks everywhere.
    for p_dbm in POWER_GRID_DBM:
        sc = uniform_rate_scenario(1.0, p_dbm)
        tp = proposed_tc_max(sc).tc
        td = distance_max_benchmark(sc).tc
        tn = non_adaptive_benchmark(sc).tc
        ordering_ok &= tp >= td and tp >= tn
    # (b) uniform 4 bps/Hz: proposed and distance-max nearly coincide.
    gap4 = 0.0
    gaps4 = {}
    for p_dbm in POWER_GRID_DBM:
        sc = uniform_rate_scenario(4.0, p_dbm)
        tp = proposed_tc_max(sc).tc
        td = distance_max_benchmark(sc).tc
        gaps4[p_dbm] = (tp - td) / td
        gap4 = max(gap4, abs(gaps4[p_dbm]))
    # (c) heterogeneous floors (half 4 bps/Hz, half 1 bps/Hz) reopen the gap.
    sc = uniform_rate_scenario(1.0, 40.0)
    w = sc.band.bandwidth
    sc = dataclasses.replace(
        sc,
        devices=tuple(
            DeviceSpec(rate_req=(4.0 if k < 50 else 1.0) * w) for k in range(100)
        ),
    )
    gap_het = (proposed_tc_max(sc).tc - distance_max_benchmark(sc).tc) / distance_max_benchmark(sc).tc
    elapsed = time.monotonic() - t0
    detail = f"uniform-4 gap {gap4:.2e}, heterogeneous gap {gap_het:.2f}, {elapsed:.0f}s"
    report(
        6,
        "benchmark ordering across the power sweep",
        ordering_ok and gap4 <= 0.05 and gap_het > gaps4[40.0] and elapsed < 600.0,
        detail,
    )


def test_criterion_07_distance_max_rate_pinning():
    sc = uniform_rate_scenario(1.0, 30.0)
    alloc = distance_max_benchmark(sc)
    band = sc.band
    ginv = inverse_gain(
        band.frequencies[alloc.subwindows],
        band.k_abs[alloc.subwindows],
        alloc.distances,
        band.bandwidth,
        sc.params,
    )
    achieved = band.bandwidth * np.log1p(alloc.powers / ginv) / LN2
    worst = float(np.abs(achieved - sc.rate_reqs).max() / sc.rate_reqs.min())
    report(7, "distance-max rates pinned to floors", worst < 1e-9, f"max rel dev {worst:.1e}")


def test_criterion_08_cdf_zero_rate_fractions():
    t0 = time.monotonic()
    scenario, _ = default_scenario()
    spec = ExperimentSpec(
        kind="cdf_fixed_distance",
        grid=(5.0, 15.0, 35.0),
        trials=100,
        seed=0,
        strategies=("tc_fixed", "sum_rate"),
    )
    _, cdf = run_cdf_fixed_distance(scenario, spec, workers=4)
    frac = {}
    for radius in spec.grid:
        for strategy in spec.strategies:
            rates = np.array(
                [
                    r["rate_bps"]
                    for r in cdf
                    if r["radius_m"] == radius and r["strategy"] == strategy
                ]
            )
            assert rates.size == 100 * 100
            frac[radius, strategy] = float((rates == 0.0).mean())
    elapsed = time.monotonic() - t0
    ok = (
        frac[5.0, "tc_fixed"] == 0.0
        and frac[15.0, "tc_fixed"] == 0.0
        and frac[35.0, "tc_fixed"] < frac[35.0, "sum_rate"]
        and elapsed < 600.0
    )
    report(
        8,
        "zero-rate fractions in the fixed-distance CDFs",
        ok,
        f"tc@5={frac[5.0, 'tc_fixed']:.3f} tc@15={frac[15.0, 'tc_fixed']:.3f} "
        f"tc@35={frac[35.0, 'tc_fixed']:.3f} < sum@35={frac[35.0, 'sum_rate']:.3f}, {elapsed:.0f}s",
    )


def test_criterion_09_distance_tracks_absorption():
    scenario, _ = default_scenario()
    spec = ExperimentSpec(
        kind="loss_distance_vs_frequency", grid=(0.0,), strategies=("proposed",)
    )
    _, rows = run_loss_distance_vs_frequency(scenario, spec)
    k_abs = np.array([r["k_abs_per_m"] for r in rows])
    d = np.array([r["distance_m"] for r in rows])
    # Two subwindows tie for the maximum coefficient (symmetric about the
    # peak); the minimum distance must fall on one of them.
    at_peak_min = d[k_abs == k_abs.max()].min() == d.min()
    rho = float(spearmanr(k_abs, d).statistic)
    report(
        9,
        "allocated distance shrinks with absorption",
        at_peak_min and rho < 0.0,
        f"spearman {rho:.2f}",
    )


def test_criterion_10_quasiconcavity_sweep():
    rng = np.random.default_rng(11)
    params = make_params(10.0)
    d = np.logspace(-3, 3, 10_000)
    n_bad = 0
    for _ in range(1000):
        f = 10.0 ** rng.uniform(11.0, 12.0)
        k_abs = rng.uniform(0.0, 2.0)
        power = 10.0 ** rng.uniform(-3.0, 1.0)
        t = single_link_tc(d, power, f, k_abs, 1e9, params)
        diff = np.diff(t)
        tol = 1e-12 * t.max()
        sign = np.sign(np.where(np.abs(diff) <= tol, 0.0, diff))
        sign = sign[sign != 0.0]
        # Plateau-tolerant unimodality: the sign sequence may fall from +
        # to - at most once and never rise again.
        falls = int(np.sum((sign[:-1] > 0) & (sign[1:] < 0)))
        rises = int(np.sum((sign[:-1] < 0) & (sign[1:] > 0)))
        if falls > 1 or rises > 0:
            n_bad += 1
    report(10, "per-device TC unimodal in distance", n_bad == 0, f"{n_bad}/1000 violations")


def test_criterion_11_determinism(tmp_path):
    scenario, _ = default_scenario()
    spec = ExperimentSpec(
        kind="cdf_fixed_distance",
        grid=(15.0,),
        trials=5,
        seed=3,
        strategies=("tc_fixed", "sum_rate"),
    )
    out_a = run_experiment(scenario, spec, tmp_path / "a", workers=1)
    out_b = run_experiment(scenario, spec, tmp_path / "b", workers=1)
    out_c = run_experiment(scenario, spec, tmp_path / "c", workers=4)
    same = True
    for name in out_a:
        same &= filecmp.cmp(out_a[name], out_b[name], shallow=False)
        same &= filecmp.cmp(out_a[name], out_c[name], shallow=False)
    report(11, "byte-identical result files for identical spec+seed", same)
