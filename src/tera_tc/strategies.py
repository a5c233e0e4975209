"""End-to-end allocation strategies. Each pairs devices with subwindows,
takes powers and distances from the `distance_power` and `waterfill`
kernels and audits its allocation: two-stage fixed-distance TC
maximization and its sum-rate comparator, the proposed iterative TC
maximization, the distance-maximization and non-adaptive benchmarks, and
an exhaustive assignment oracle for small instances.

The fixed-distance pipeline is written once, for a stack of T trials
sharing a scenario (`FIXED_DISTANCE_STACKS`); `fixed_distance_tc_max` and
`sum_rate_max` are its T = 1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .assignment import check_assignment, hungarian_assign, injections
from .channel import LN2, BandPlan, LinkParams, exp_inverse_gain, floor_snr, log_inverse_gain, shannon_rate
from .distance_power import (
    InfeasibleError,
    IterState,
    Regime,
    SolverConfig,
    classify_regime,
    iterate_power_distance,
    max_sum_distance,
)
from .waterfill import waterfill


@dataclass(frozen=True)
class DeviceSpec:
    """Per-device requirement: minimum rate (bps) and, for the fixed-distance
    strategies, the given transmitter-device distance (m)."""

    rate_req: float = 0.0
    fixed_distance: float | None = None

    def __post_init__(self):
        if not 0 <= self.rate_req < math.inf:
            raise ValueError("rate_req must be finite and >= 0")
        if self.fixed_distance is not None and not 0 < self.fixed_distance < math.inf:
            raise ValueError("fixed_distance must be finite and > 0")


@dataclass(frozen=True)
class Scenario:
    band: BandPlan
    params: LinkParams
    devices: tuple[DeviceSpec, ...]
    config: SolverConfig = SolverConfig()

    def __post_init__(self):
        if not self.devices:
            raise ValueError("scenario needs at least one device")
        if len(self.devices) > self.band.n:
            raise ValueError(
                f"{len(self.devices)} devices exceed {self.band.n} subwindows"
            )
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(~np.isfinite(floor_snr(self.rate_reqs, self.band.bandwidth)))
        if bad.size:
            r = self.devices[bad[0]].rate_req / self.band.bandwidth
            raise ValueError(f"device {bad[0]}: rate_req of {r:g} bps/Hz overflows its floor SNR 2^(r/W) - 1")

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    @property
    def rate_reqs(self) -> np.ndarray:
        return np.array([dev.rate_req for dev in self.devices])

    @property
    def fixed_distances(self) -> np.ndarray:
        if any(dev.fixed_distance is None for dev in self.devices):
            raise ValueError("every device needs a fixed distance for this strategy")
        return np.array([dev.fixed_distance for dev in self.devices])


@dataclass
class Allocation:
    """Solver output: per-device subwindow/power/distance/rate plus totals."""

    strategy: str
    subwindows: np.ndarray
    powers: np.ndarray
    distances: np.ndarray
    rates: np.ndarray
    regimes: list[str]
    iterations: int = 0

    @property
    def tc_per_device(self) -> np.ndarray:
        return self.distances * self.rates

    @property
    def tc(self) -> float:
        return float(self.tc_per_device.sum())

    @property
    def sum_rate(self) -> float:
        return float(self.rates.sum())

    @property
    def power_used(self) -> float:
        return float(self.powers.sum())


def audit_allocation(
    alloc: Allocation, scenario: Scenario, check_rate_floors: bool
) -> None:
    """Feasibility audit: assignment validity, finite values, power budget,
    distances of at least `scenario.config.d_min`, rate floors."""
    check_assignment(alloc.subwindows, scenario.band.n)
    finite = np.isfinite(alloc.powers) & np.isfinite(alloc.distances) & np.isfinite(alloc.rates)
    if not finite.all():
        raise InfeasibleError("non-finite power, distance or rate", np.flatnonzero(~finite))
    p_total = scenario.params.p_total
    if alloc.power_used > p_total * (1.0 + 1e-9):
        raise InfeasibleError(
            f"power budget violated: {alloc.power_used:.6e} > {p_total:.6e}"
        )
    if np.any(alloc.powers < 0) or np.any(alloc.distances <= 0):
        raise InfeasibleError("negative power or non-positive distance in allocation")
    d_min = scenario.config.d_min
    short = np.flatnonzero(alloc.distances < d_min * (1.0 - 1e-9))
    if short.size:
        raise InfeasibleError(f"distances below d_min = {d_min:g} m", short)
    if check_rate_floors:
        floors = scenario.rate_reqs
        bad = np.flatnonzero(alloc.rates < floors * (1.0 - 1e-9))
        if bad.size:
            raise InfeasibleError("rate floors violated", bad)


def _rate_matrix(scenario: Scenario, distances, powers) -> np.ndarray:
    """Per-(device, subwindow) rates (bps) at the given distances/powers."""
    d = np.asarray(distances, dtype=float)
    log_ginv = _log_gain_matrix(scenario, d[:, None])
    return _rates_at(scenario, log_ginv, powers, out=log_ginv)


def _log_gain_matrix(scenario: Scenario, d: np.ndarray) -> np.ndarray:
    """`log_inverse_gain` of every device on every subwindow: a K x N array
    for K x 1 distances, T x K x N for T x K x 1."""
    band = scenario.band
    return log_inverse_gain(band.frequencies, band.k_abs, d, band.bandwidth, scenario.params)


def _rates_at(scenario: Scenario, log_ginv: np.ndarray, powers, out=None) -> np.ndarray:
    """Rates (bps) at per-device powers from a (stack of) K x N log inverse
    gain.

    Every step (the SNR, zero where p <= 0, then `channel.shannon_rate`'s
    operations) runs in one array: a fresh one by default, which leaves
    `log_ginv` unchanged, or `out`, which may be `log_ginv` itself to turn
    the link budget into the rates with no second array of its shape. The
    bits are those of the plain expressions either way.
    """
    p = np.asarray(powers, dtype=float)[:, None]
    out = np.subtract(np.log(np.maximum(p, 1e-300)), log_ginv, out=out)
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    np.copyto(out, 0.0, where=~(p > 0))
    np.log1p(out, out=out)
    out *= scenario.band.bandwidth
    out /= LN2
    return out


def _fixed_distance_stack(
    scenario: Scenario, distances: np.ndarray, weighted: bool, name: str
) -> list[Allocation]:
    """Both fixed-distance strategies for T trials at once, one per row of
    a T x K `distances` array (the devices' `fixed_distance` is not read).

    One T x K x N link budget gives the equal-power payoffs, the assigned
    inverse gains and the final rates; the assignment and the
    water-filling each take the whole stack. Every trial gets exactly the
    allocation it gets alone and is audited on its own; an error in any
    trial is raised for the block. The allocations' arrays are rows of
    the stacked results, so `distances` must not be changed afterwards.
    """
    n_trials, n_dev = distances.shape
    p_total = scenario.params.p_total
    log_ginv = _log_gain_matrix(scenario, distances[:, :, None])
    payoff = _rates_at(scenario, log_ginv, np.full(n_dev, p_total / n_dev))
    if weighted:
        payoff *= distances[:, :, None]
    n_of_k = hungarian_assign(payoff, overwrite_payoff=True)
    ginv = exp_inverse_gain(log_ginv[np.arange(n_trials)[:, None], np.arange(n_dev), n_of_k])
    p = waterfill(distances if weighted else np.ones(distances.shape), ginv, p_total)
    snr = np.where(np.isfinite(ginv), p / ginv, 0.0)
    rates = shannon_rate(snr, scenario.band.bandwidth)
    allocs = [
        Allocation(strategy=name, subwindows=n, powers=pw, distances=d, rates=r,
                   regimes=["fixed"] * n_dev)
        for n, pw, d, r in zip(n_of_k, p, distances, rates)
    ]
    for alloc in allocs:
        audit_allocation(alloc, scenario, check_rate_floors=False)
    return allocs


def fixed_distance_tc_max(scenario: Scenario) -> Allocation:
    """Two-stage TC maximization for given distances: Hungarian assignment
    on the rate-distance payoff at equal power, then distance-weighted
    water-filling."""
    d = scenario.fixed_distances[None, :]
    return _fixed_distance_stack(scenario, d, weighted=True, name="tc_fixed")[0]


def sum_rate_max(scenario: Scenario) -> Allocation:
    """Fixed-distance comparator: the same two-stage pipeline with unit
    weights, maximizing the stage-wise sum rate instead of the TC."""
    d = scenario.fixed_distances[None, :]
    return _fixed_distance_stack(scenario, d, weighted=False, name="sum_rate")[0]


def _alloc_from_state(name: str, n_of_k: np.ndarray, state: IterState, iterations: int) -> Allocation:
    """The allocation of an inner solve on an assignment. It holds the
    state's arrays, not copies: no later solve writes to them."""
    return Allocation(
        strategy=name,
        subwindows=n_of_k,
        powers=state.powers,
        distances=state.distances,
        rates=state.rates,
        regimes=[r.value for r in state.regimes],
        iterations=iterations,
    )


def _inner_solve(scenario: Scenario, n_of_k: np.ndarray, d0=None) -> IterState:
    """`iterate_power_distance` on the subwindows of an assignment."""
    band = scenario.band
    return iterate_power_distance(
        band.frequencies[n_of_k], band.k_abs[n_of_k], scenario.rate_reqs, band.bandwidth,
        scenario.params, scenario.config, d0=d0,
    )


def proposed_tc_max(scenario: Scenario) -> Allocation:
    """Iterative TC maximization with variable distances.

    Outer loop: rebuild the payoff at the current distance/power iterates and
    re-run the Hungarian assignment; inner loop: the smoothed distance-power
    fixed point. The best-TC iterate over all outer rounds is returned; its
    `Allocation` is built once, after the last round. No round writes to an
    earlier round's arrays (`iterate_power_distance` copies `d0`, and
    `_rate_matrix` only reads), so the best round's are kept as they are.
    """
    cfg = scenario.config
    n_dev = scenario.n_devices
    d = np.full(n_dev, cfg.d_init)
    p = np.full(n_dev, scenario.params.p_total / n_dev)
    best_round: tuple[np.ndarray, IterState] | None = None
    total_inner = 0
    for _ in range(cfg.m_out):
        payoff = _rate_matrix(scenario, d, p)
        payoff *= d[:, None]
        n_of_k = hungarian_assign(payoff, overwrite_payoff=True)
        del payoff  # freed before the next round builds its link budget
        state = _inner_solve(scenario, n_of_k, d0=d)
        total_inner += state.iterations
        if best_round is None or state.tc > best_round[1].tc:
            best_round = n_of_k, state
        d, p = state.distances, state.powers
    best = _alloc_from_state("proposed", *best_round, total_inner)
    audit_allocation(best, scenario, check_rate_floors=True)
    return best


def _greedy_min_pairing(rate_reqs, k_abs) -> np.ndarray:
    """Repeatedly match the smallest remaining rate floor with the smallest
    remaining absorption coefficient (ties toward the lowest index)."""
    dev_order = np.argsort(rate_reqs, kind="stable")
    sub_order = np.argsort(k_abs, kind="stable")
    n_of_k = np.empty(len(dev_order), dtype=int)
    n_of_k[dev_order] = sub_order[: len(dev_order)]
    return n_of_k


def distance_max_benchmark(scenario: Scenario) -> Allocation:
    """Sum-distance benchmark: `_greedy_min_pairing`, then `max_sum_distance`
    with every rate on its floor; `iterations` counts its dual evaluations."""
    reqs = scenario.rate_reqs
    if np.any(reqs <= 0):
        raise ValueError("distance_max_benchmark requires rate_req > 0 for all devices")
    band = scenario.band
    n_of_k = _greedy_min_pairing(reqs, band.k_abs)
    d, p, evaluations = max_sum_distance(
        reqs, band.frequencies[n_of_k], band.k_abs[n_of_k], band.bandwidth, scenario.params)
    alloc = Allocation(strategy="distmax", subwindows=n_of_k, powers=p, distances=d, rates=reqs.astype(float),
                       regimes=[Regime.DISTANCE_MAXIMIZED.value] * len(d), iterations=evaluations)
    audit_allocation(alloc, scenario, check_rate_floors=True)
    return alloc


def non_adaptive_benchmark(scenario: Scenario) -> Allocation:
    """Non-adaptive benchmark: devices sorted by descending rate floor take
    subwindows in band order, power is split equally, and each distance is
    the per-device TC optimum (or the floor-meeting maximum when the
    optimum violates the floor), all from one array `classify_regime`."""
    reqs = scenario.rate_reqs
    band = scenario.band
    params = scenario.params
    n_dev = scenario.n_devices
    order = np.argsort(-reqs, kind="stable")
    n_of_k = np.empty(n_dev, dtype=int)
    n_of_k[order] = np.arange(n_dev)
    p_eq = np.full(n_dev, params.p_total / n_dev)
    try:
        res = classify_regime(
            p_eq,
            reqs,
            band.frequencies[n_of_k],
            band.k_abs[n_of_k],
            band.bandwidth,
            params,
            scenario.config.d_min,
        )
    except InfeasibleError as exc:
        raise InfeasibleError(
            "equal power split cannot meet rate floors", exc.devices
        ) from exc
    pinned = np.array(res.regime) == Regime.DISTANCE_MAXIMIZED
    alloc = Allocation(
        strategy="nonadaptive",
        subwindows=n_of_k,
        powers=p_eq,
        distances=res.d_opt,
        rates=np.where(pinned, reqs, band.bandwidth * res.spectral_eff_opt),
        regimes=[r.value for r in res.regime],
        iterations=1,
    )
    audit_allocation(alloc, scenario, check_rate_floors=True)
    return alloc


def exhaustive_tc_max(scenario: Scenario) -> Allocation:
    """Oracle strategy: run the inner power-distance solver on every
    assignment (`injections`) and keep the best TC, the lexicographically
    first on ties. Its `Allocation` is built once, from the best solve.
    The limit is `scenario.config.enum_cap`: EnumerationCapError is raised,
    before any solve, when N!/(N-K)! assignments exceed it."""
    n_of_ks = injections(scenario.band.n, scenario.n_devices, scenario.config.enum_cap)
    solves = ((n_of_k, _inner_solve(scenario, n_of_k)) for n_of_k in map(np.array, n_of_ks))
    n_of_k, state = max(solves, key=lambda solve: solve[1].tc)
    best = _alloc_from_state("exhaustive", n_of_k, state, state.iterations)
    audit_allocation(best, scenario, check_rate_floors=True)
    return best


#: The fixed-distance strategies by name, in their stacked form:
#: (scenario, T x K distances) -> T audited allocations.
FIXED_DISTANCE_STACKS = {
    "tc_fixed": partial(_fixed_distance_stack, weighted=True, name="tc_fixed"),
    "sum_rate": partial(_fixed_distance_stack, weighted=False, name="sum_rate"),
}

STRATEGIES = {
    "tc_fixed": fixed_distance_tc_max,
    "sum_rate": sum_rate_max,
    "proposed": proposed_tc_max,
    "distmax": distance_max_benchmark,
    "nonadaptive": non_adaptive_benchmark,
    "exhaustive": exhaustive_tc_max,
}
