"""The inner loop's early stop on a period-2 TC cycle, and the rate-floor
repair when every pinned power has underflowed to 0."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tera_tc import distance_power as dp
from tera_tc.channel import bundled_absorption_table
from tera_tc.distance_power import ConvergenceError, InfeasibleError, SolverConfig, iterate_power_distance
from tera_tc.scenario import default_scenario, uniform_band
from tera_tc.strategies import DeviceSpec, Scenario, audit_allocation, proposed_tc_max
from tera_tc.units import dbm_to_watts
from radio_params import make_params


def _default_at(p_dbm: float) -> Scenario:
    scenario, _ = default_scenario()
    return replace(scenario, params=replace(scenario.params, p_total=float(dbm_to_watts(p_dbm))))


def _feed(history, tol: float, max_inner: int = 500):
    """Run `_period2_run` over a synthetic TC history as the loop does, from
    the third entry on: the iteration at which it raises, or None."""
    run = 0
    for t in range(3, len(history) + 1):
        try:
            run = dp._period2_run(history[:t], run, tol, max_inner)
        except ConvergenceError as exc:
            assert exc.iterations == t
            return t
    return None


class TestPeriod2Rule:
    def test_constant_alternation_stops_after_five_iterations(self):
        history = [1.0e12 + (5.0e9 if t % 2 else -5.0e9) for t in range(1, 40)]
        # Iterations 3 to 7 alternate about the same level: the fifth is the stop.
        assert _feed(history, tol=1e6) == 7

    def test_alternation_shrinking_one_percent_per_iteration_runs_on(self):
        history = [1.0e12 + (-1) ** t * 5.0e9 * 0.99**t for t in range(1, 500)]
        assert _feed(history, tol=1e6) is None

    def test_monotone_convergence_never_counts(self):
        history = [1.0e12 * (1.0 - 0.5**t) for t in range(1, 60)]
        assert _feed(history, tol=1e-30) is None

    def test_stops_only_when_the_tolerance_is_out_of_reach(self):
        history = [1.0 + (1e-3 if t % 2 else -1e-3) for t in range(1, 40)]
        # A step of 2e-3 shrinking by at most 1.001 per step needs ~51 steps
        # to reach 1.9e-3: with 493 left to the cap the cycle may still end ...
        assert _feed(history, tol=1.9e-3, max_inner=500) is None
        # ... with 43 left it cannot.
        assert _feed(history, tol=1.9e-3, max_inner=50) == 7

    def test_zero_tolerance_is_unreachable(self):
        history = [1.0 + (1e-3 if t % 2 else -1e-3) for t in range(1, 20)]
        assert _feed(history, tol=0.0) == 7

    def test_huge_cap_does_not_overflow(self):
        history = [1.0 + (1e-3 if t % 2 else -1e-3) for t in range(1, 20)]
        assert _feed(history, tol=1e-6, max_inner=10**400) is None
        assert _feed(history, tol=0.0, max_inner=10**400) == 7

    def test_nan_history_never_counts(self):
        assert _feed([1.0, 2.0] + [math.nan] * 20, tol=1e-6) is None

    def test_error_carries_the_cap_and_the_cycle(self):
        with pytest.raises(ConvergenceError, match=r"^no convergence within 500 inner iterations: .*period-2"):
            dp._period2_run([1.0, 2.0, 1.0], dp._CYCLE_RUN - 1, 1e-6, 500)


class TestProposedStopsEarly:
    @pytest.mark.parametrize("p_dbm, most", [(57.5, 150), (60.0, 60)])
    def test_cycle_raises_early(self, p_dbm, most):
        with pytest.raises(ConvergenceError, match=r"^no convergence within 500 inner iterations") as info:
            proposed_tc_max(_default_at(p_dbm))
        assert info.value.iterations is not None and info.value.iterations <= most
        assert "period-2" in str(info.value)

    def test_55_dbm_still_converges(self):
        scenario = _default_at(55.0)
        alloc = proposed_tc_max(scenario)
        audit_allocation(alloc, scenario, check_rate_floors=True)
        assert alloc.iterations == 340


class TestInnerLoopEdges:
    F, K, REQ = np.array([5e11]), np.array([0.2]), np.array([0.0])

    def test_inner_cap_error_carries_its_iterations(self, params):
        with pytest.raises(ConvergenceError, match="^no convergence within 2 inner iterations$") as info:
            iterate_power_distance(self.F, self.K, self.REQ, 1e9, params,
                                   SolverConfig(max_inner=2, eps=0.0, eps_relative=False))
        assert info.value.iterations == 2

    def test_zero_absolute_tolerance_stops_the_cycle(self):
        scenario = _default_at(60.0)
        scenario = replace(scenario, config=replace(scenario.config, eps=0.0, eps_relative=False))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="period-2") as info:
                proposed_tc_max(scenario)
        assert info.value.iterations <= 60

    def test_huge_cap_converges_as_with_the_default(self, params):
        state = iterate_power_distance(self.F, self.K, self.REQ, 1e9, params, SolverConfig(max_inner=10**9))
        default = iterate_power_distance(self.F, self.K, self.REQ, 1e9, params)
        assert state.tc_history == default.tc_history
        assert np.array_equal(state.distances, default.distances)


def test_convergence_error_iterations_default_to_none():
    assert ConvergenceError("budget dual").iterations is None


def test_rate_floor_repair_with_every_pinned_power_underflowed():
    """Band 532.475-537.967 GHz, N = 11, 89.07 dBm, floors (0, 0, 2.95)
    bps/Hz: the pinned device's power underflows to 0 in the loop. Under
    warnings as errors, `proposed` returns an audited allocation or raises
    InfeasibleError; it once divided by the zero power sum."""
    band = uniform_band(532.475e9, 537.967e9, 11, bundled_absorption_table())
    scenario = Scenario(
        band=band,
        params=make_params(89.07),
        devices=tuple(DeviceSpec(rate_req=r * band.bandwidth) for r in (0.0, 0.0, 2.95)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            alloc = proposed_tc_max(scenario)
        except InfeasibleError as exc:
            assert len(exc.devices) >= 1
            return
    audit_allocation(alloc, scenario, check_rate_floors=True)
    assert np.all(alloc.rates >= scenario.rate_reqs * (1.0 - 1e-12))


def test_repair_splits_the_budget_equally_when_pinned_powers_are_zero(params):
    """Two pinned devices whose powers are exactly 0 share what the free one
    leaves of the budget equally, and sit on their floors."""
    f = np.array([5.0e11, 5.1e11, 5.2e11])
    k = np.array([0.01, 0.01, 0.01])
    req = np.array([0.0, 1e9, 1e9])
    d = np.array([5.0, 5.0, 5.0])
    p = np.array([params.p_total / 2.0, 0.0, 0.0])
    snrs = np.ones(3)
    rates = np.array([1e9, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d, p, snrs, rates, pinned = dp._enforce_rate_floors(d, p, snrs, rates, f, k, req, 1e9, params, 1e-3)
    assert pinned.tolist() == [False, True, True]
    assert p[1] == p[2] == params.p_total / 4.0
    assert np.array_equal(rates[pinned], req[pinned])
