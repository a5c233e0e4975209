"""Each candidate is solved once: one injection enumerator for both
exhaustive oracles, one `Allocation` per solve, and one solve per CDF block
for a strategy that never reads fixed distances."""

import itertools
import math

import numpy as np
import pytest

from tera_tc import experiments
from tera_tc.assignment import EnumerationCapError, exhaustive_assign, injections
from tera_tc.channel import bundled_absorption_table
from tera_tc.distance_power import ConvergenceError, InfeasibleError, SolverConfig, iterate_power_distance
from tera_tc.experiments import run_cdf_fixed_distance
from tera_tc.scenario import ExperimentSpec, uniform_band
from tera_tc.strategies import STRATEGIES, DeviceSpec, Scenario, exhaustive_tc_max
from radio_params import make_params


def _scenario(n_sub, reqs, p_dbm=25.0, f_start=5e11, f_stop=6e11, enum_cap=None):
    band = uniform_band(f_start, f_stop, n_sub, bundled_absorption_table())
    config = SolverConfig() if enum_cap is None else SolverConfig(enum_cap=enum_cap)
    devices = tuple(DeviceSpec(rate_req=r * band.bandwidth) for r in reqs)
    return Scenario(band=band, params=make_params(p_dbm), devices=devices, config=config)


@pytest.mark.parametrize("n_sub, n_dev", [(1, 1), (3, 0), (3, 2), (4, 3), (5, 5)])
def test_injections_are_lexicographic_and_counted(n_sub, n_dev):
    got = list(injections(n_sub, n_dev))
    assert len(got) == math.perm(n_sub, n_dev)
    assert got == sorted(got)
    assert all(len(set(t)) == n_dev and all(0 <= n < n_sub for n in t) for t in got)
    if n_dev == 0:
        assert got == [()]


def test_injections_raise_before_making_a_tuple():
    # 20!/10! injections: a lazy check would still raise, but only after
    # the caller asked for the first one.
    with pytest.raises(EnumerationCapError, match="injections exceed the cap of 10$"):
        injections(20, 10, cap=10)


@pytest.mark.parametrize("n_sub, n_dev", [(3, 2), (4, 2), (5, 1)])
@pytest.mark.parametrize("over", [True, False])
def test_both_oracles_raise_at_the_same_cap(n_sub, n_dev, over):
    cap = math.perm(n_sub, n_dev) - over
    payoff = np.random.default_rng(n_sub * 10 + n_dev).random((n_dev, n_sub))
    sc = _scenario(n_sub, [1.0] * n_dev, enum_cap=cap)
    if over:
        with pytest.raises(EnumerationCapError) as by_assign:
            exhaustive_assign(payoff, cap=cap)
        with pytest.raises(EnumerationCapError) as by_strategy:
            exhaustive_tc_max(sc)
        assert str(by_assign.value) == str(by_strategy.value)
    else:
        exhaustive_assign(payoff, cap=cap)
        exhaustive_tc_max(sc)


def _plain_exhaustive(sc):
    """A plain loop over every assignment keeping the first strict maximum
    of the inner solve's TC."""
    band = sc.band
    best = None
    for perm in itertools.permutations(range(band.n), sc.n_devices):
        n_of_k = np.array(perm, dtype=int)
        state = iterate_power_distance(
            band.frequencies[n_of_k], band.k_abs[n_of_k], sc.rate_reqs, band.bandwidth, sc.params, sc.config
        )
        if best is None or state.tc > best[1].tc:
            best = n_of_k, state
    return best


@pytest.mark.parametrize("seed", range(6))
def test_exhaustive_matches_a_plain_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    n_sub = int(rng.integers(1, 5))
    n_dev = int(rng.integers(1, min(3, n_sub) + 1))
    f_start = rng.uniform(500e9, 590e9)
    sc = _scenario(
        n_sub,
        rng.choice([0.0, 0.1, 1.0, 3.0], n_dev) * rng.uniform(0.5, 1.5, n_dev),
        p_dbm=rng.uniform(20.0, 40.0),
        f_start=f_start,
        f_stop=rng.uniform(f_start + 1e9, 600e9),
    )
    try:
        n_of_k, state = _plain_exhaustive(sc)
    except (ConvergenceError, InfeasibleError) as exc:
        with pytest.raises(type(exc)):
            exhaustive_tc_max(sc)
        return
    alloc = exhaustive_tc_max(sc)
    assert alloc.subwindows.tolist() == n_of_k.tolist()
    for got, want in [(alloc.powers, state.powers), (alloc.distances, state.distances), (alloc.rates, state.rates)]:
        assert got.tobytes() == want.tobytes()
    assert alloc.regimes == [r.value for r in state.regimes]
    assert alloc.iterations == state.iterations
    assert alloc.tc == state.tc


@pytest.mark.parametrize("name", ["proposed", "distmax", "nonadaptive", "exhaustive"])
def test_distance_blind_strategy_is_solved_once_per_cdf_block(monkeypatch, name):
    sc = _scenario(4, [1.0, 0.5, 2.0, 1.0], p_dbm=30.0)
    spec = ExperimentSpec(kind="cdf_fixed_distance", grid=(5.0, 40.0), trials=5, strategies=(name,))
    monkeypatch.setattr(experiments, "_BLOCK_ELEMS", 2 * sc.n_devices * sc.band.n)  # blocks of 2 trials
    solve = STRATEGIES[name]
    calls = []

    def counting(scenario):
        calls.append(scenario)
        return solve(scenario)

    monkeypatch.setitem(experiments.STRATEGIES, name, counting)
    summary, _ = run_cdf_fixed_distance(sc, spec)
    assert len(calls) == len(spec.grid) * math.ceil(spec.trials / 2)
    direct = solve(sc)
    assert [row["trial"] for row in summary] == list(range(spec.trials)) * len(spec.grid)
    for row in summary:
        assert row["error"] == ""
        assert (row["tc_m_bps"], row["sum_rate_bps"], row["power_used_w"], row["iterations"]) == (
            direct.tc, direct.sum_rate, direct.power_used, direct.iterations)


def test_cdf_with_a_distance_blind_strategy_is_the_same_in_a_pool():
    band = uniform_band(5e11, 6e11, 4, bundled_absorption_table())
    devices = tuple(DeviceSpec(rate_req=band.bandwidth, fixed_distance=1.0) for _ in range(4))
    sc = Scenario(band=band, params=make_params(30.0), devices=devices)
    spec = ExperimentSpec(kind="cdf_fixed_distance", grid=(5.0, 40.0), trials=5, seed=7,
                          strategies=("nonadaptive", "tc_fixed"))
    assert run_cdf_fixed_distance(sc, spec, workers=1) == run_cdf_fixed_distance(sc, spec, workers=2)
