"""Variable-distance core: stationarity solve, regimes, fixed-point loop."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq as scipy_brentq
from scipy.special import lambertw, wrightomega

from tera_tc.channel import LinkParams, bundled_absorption_table, log_inverse_gain
from tera_tc.distance_power import (
    ConvergenceError,
    InfeasibleError,
    Regime,
    SolverConfig,
    classify_regime,
    iterate_power_distance,
    max_distance,
    optimal_distance_pair,
    solve_stationarity_snr,
    stationarity_lhs,
    thm1_distance_update,
)
from tera_tc import distance_power as dp
from tera_tc.scenario import uniform_band
from tera_tc.units import dbm_to_watts
from conftest import make_params

LN2 = math.log(2.0)

# Bisection oracle on ln(1+xi)(1+xi) = 2 xi, mpmath at 40 digits.
XI_STATIONARY_0 = 3.921553634567505

# Closed form (c/4 pi f) sqrt(P G^2 / (sigma^2 xi)) at f=500 GHz, W=1 GHz,
# 15 dBi gains, 10 dBm, no absorption; mpmath at 40 digits.
D_OPT_10DBM_NOABS = 19.139151516182319


def tc_curve(d, power, f, k_abs, bandwidth, params):
    gain = (
        params.gt_linear
        * params.gr_linear
        * np.exp(-k_abs * d)
        * (params.c / (4.0 * np.pi * f * d)) ** 2
    )
    snr = power * gain / (params.n0 * bandwidth)
    return d * bandwidth * np.log1p(snr) / LN2


class TestStationarity:
    def test_lhs_increasing_with_unit_infimum(self):
        xi = np.logspace(-8, 8, 200)
        lhs = stationarity_lhs(xi)
        assert np.all(np.diff(lhs) > 0)
        assert abs(lhs[0] - 1.0) < 1e-6

    def test_zero_exponent(self):
        xi = solve_stationarity_snr(0.0)
        assert abs(stationarity_lhs(xi) - 2.0) < 1e-10
        assert xi == pytest.approx(XI_STATIONARY_0, rel=1e-9)

    def test_residual_identity(self):
        xi = solve_stationarity_snr(2.0)
        assert stationarity_lhs(xi) == pytest.approx(4.0, abs=1e-10)

    def test_monotone_in_exponent(self):
        exps = np.linspace(0.0, 50.0, 40)
        xi = solve_stationarity_snr(exps)
        assert np.all(np.diff(xi) > 0)

    def test_vectorized_matches_scalar(self):
        exps = np.array([0.0, 1.0, 5.0])
        vec = solve_stationarity_snr(exps)
        for e, x in zip(exps, vec):
            assert x == pytest.approx(solve_stationarity_snr(float(e)), rel=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            solve_stationarity_snr(-0.1)


class TestOptimalDistancePair:
    def test_closed_form_no_absorption(self, params):
        d, xi = optimal_distance_pair(params.p_total, 5e11, 0.0, 1e9, params)
        assert xi == pytest.approx(XI_STATIONARY_0, rel=1e-8)
        assert d == pytest.approx(D_OPT_10DBM_NOABS, rel=1e-8)

    def test_power_scale_symmetry(self, params):
        d1, _ = optimal_distance_pair(0.01, 5e11, 0.0, 1e9, params)
        d4, _ = optimal_distance_pair(0.04, 5e11, 0.0, 1e9, params)
        assert d4 == pytest.approx(2.0 * d1, rel=1e-10)
        # Optima near 6e-11 m and 2e11 m, far outside any fixed search bracket.
        for p in (1e-25, 1e18):
            d, xi = optimal_distance_pair(p, 5e11, 0.0, 1e9, params)
            assert d == pytest.approx(d1 * math.sqrt(p / 0.01), rel=1e-10)
            assert xi == pytest.approx(XI_STATIONARY_0, rel=1e-8)

    def test_matches_dense_grid(self, params):
        d_opt, _ = optimal_distance_pair(params.p_total, 5e11, 0.2, 1e9, params)
        grid = np.logspace(-2, 2, 100_000)
        t = tc_curve(grid, params.p_total, 5e11, 0.2, 1e9, params)
        d_grid = grid[int(np.argmax(t))]
        assert d_opt == pytest.approx(d_grid, rel=1e-3)

    def test_rejects_nonpositive_power(self, params):
        with pytest.raises(ValueError):
            optimal_distance_pair(0.0, 5e11, 0.2, 1e9, params)


class TestMaxDistance:
    def test_closed_form_no_absorption(self, params):
        req = 4.0e9
        xi_req = 2.0 ** (req / 1e9) - 1.0
        sigma2 = params.n0 * 1e9
        expected = (params.c / (4.0 * math.pi * 5e11)) * math.sqrt(
            params.p_total * params.gt_linear * params.gr_linear / (sigma2 * xi_req)
        )
        d = max_distance(params.p_total, req, 5e11, 0.0, 1e9, params)
        assert d == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_rate_req(self, params):
        d1 = max_distance(params.p_total, 2e9, 5e11, 0.2, 1e9, params)
        d2 = max_distance(params.p_total, 4e9, 5e11, 0.2, 1e9, params)
        assert d2 < d1

    def test_rate_residual(self, params):
        req = 4.0e9
        d = max_distance(params.p_total, req, 5e11, 0.2, 1e9, params)
        gain = (
            params.gt_linear
            * params.gr_linear
            * math.exp(-0.2 * d)
            * (params.c / (4.0 * math.pi * 5e11 * d)) ** 2
        )
        rate = 1e9 * math.log1p(params.p_total * gain / (params.n0 * 1e9)) / LN2
        assert abs(rate - req) / req < 1e-9

    def test_infeasible(self, params):
        with pytest.raises(InfeasibleError):
            max_distance(1e-12, 500e9, 5e11, 0.2, 1e9, params)


class TestClassifyRegime:
    def test_tiny_floor_is_tc_maximized(self, params):
        res = classify_regime(params.p_total, 1.0, 5e11, 0.2, 1e9, params)
        assert res.regime is Regime.TC_MAXIMIZED
        assert res.spectral_eff_opt == pytest.approx(
            math.log1p(res.snr_opt) / LN2, rel=1e-12
        )

    def test_steep_floor_is_distance_maximized(self, params):
        # The unconstrained optimum at this power runs at ~4.19 bps/Hz;
        # a 5 bps/Hz floor must bind.
        res = classify_regime(params.p_total, 5.0e9, 5e11, 0.2, 1e9, params)
        assert res.regime is Regime.DISTANCE_MAXIMIZED
        assert res.spectral_eff_opt == pytest.approx(5.0, rel=1e-12)

    def test_boundary_consistency(self, params):
        d_o, xi_o = optimal_distance_pair(params.p_total, 5e11, 0.2, 1e9, params)
        req = 1e9 * math.log1p(xi_o) / LN2
        d_max = max_distance(params.p_total, req, 5e11, 0.2, 1e9, params)
        assert d_max == pytest.approx(d_o, rel=1e-9)


class TestThm1Update:
    def test_single_device_closed_form(self, params):
        d_hat, _nu = thm1_distance_update(
            np.array([5.0]),
            np.array([XI_STATIONARY_0]),
            np.array([5e11]),
            np.array([0.0]),
            1e9,
            params,
        )
        assert d_hat[0] == pytest.approx(D_OPT_10DBM_NOABS, rel=1e-6)

    def test_symmetric_devices(self, params):
        n = 4
        d_hat, _nu = thm1_distance_update(
            np.full(n, 7.0),
            np.full(n, 10.0),
            np.full(n, 5e11),
            np.full(n, 0.3),
            1e9,
            params,
        )
        assert np.allclose(d_hat, d_hat[0], rtol=1e-12)

    def test_inverse_linear_in_nu(self, params):
        args = (
            np.array([3.0, 8.0]),
            np.array([5.0, 12.0]),
            np.array([5e11, 5.5e11]),
            np.array([0.1, 0.4]),
            1e9,
            params,
        )
        d1, nu = thm1_distance_update(*args)
        d2, _ = thm1_distance_update(*args, nu=2.0 * nu)
        assert np.allclose(d2, d1 / 2.0, rtol=1e-12)

    def test_budget_met_exactly(self, params):
        d = np.array([3.0, 8.0, 15.0])
        xi = np.array([5.0, 12.0, 2.0])
        f = np.array([5e11, 5.2e11, 5.9e11])
        k = np.array([0.1, 0.4, 0.05])
        d_hat, nu = thm1_distance_update(d, xi, f, k, 1e9, params)
        sigma2 = params.n0 * 1e9
        c_coef = (
            xi
            * sigma2
            / (params.gt_linear * params.gr_linear)
            * (4.0 * np.pi * f / params.c) ** 2
            * np.exp(k * d)
        )
        assert (c_coef * d_hat**2).sum() == pytest.approx(params.p_total, rel=1e-10)

    @pytest.mark.parametrize(
        "f, k_abs, overrides",
        [(5e11, 100.0, {}), (1e3, 0.0, {"gt_linear": 1e8, "gr_linear": 1e8, "n0": 1e-300})],
        ids=["sum_underflows", "sum_overflows"],
    )
    def test_budget_dual_in_log_space(self, f, k_abs, overrides):
        # Deep in absorption (k d = 800) every term of the dual sum underflows
        # to 0; at a 1 kHz carrier with a 1e-307 noise-to-gain ratio every
        # term overflows. Either way nu is finite and > 0 and the implied
        # powers still sum to the budget.
        params = make_params(30.0, **overrides)
        d = np.full(3, 8.0)
        xi = np.array([1.0, 3.0, 10.0])
        f = np.full(3, f)
        k = np.full(3, k_abs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d_hat, nu = thm1_distance_update(d, xi, f, k, 1e9, params)
            again, _ = thm1_distance_update(d, xi, f, k, 1e9, params, nu=nu)
        assert 0.0 < nu < math.inf
        assert np.all(np.isfinite(d_hat)) and np.all(d_hat > 0)
        np.testing.assert_allclose(again, d_hat, rtol=1e-12)
        log_c = np.log(xi) + log_inverse_gain(f, k, d, 1e9, params) - 2.0 * np.log(d)
        log_p = log_c + 2.0 * np.log(d_hat)
        top = log_p.max()
        assert top + math.log(np.exp(log_p - top).sum()) == pytest.approx(math.log(params.p_total), rel=1e-12)

class TestIteratePowerDistance:
    def test_symmetric_devices_identical(self, params):
        n = 4
        state = iterate_power_distance(
            np.full(n, 5e11), np.full(n, 0.2), np.zeros(n), 1e9, params
        )
        assert np.allclose(state.distances, state.distances[0], rtol=1e-10)
        assert np.allclose(state.powers, state.powers[0], rtol=1e-10)

    def test_budget_and_floors(self, params):
        f = np.array([5e11, 5.3e11, 5.8e11])
        k = np.array([0.05, 0.3, 0.08])
        req = np.array([1e9, 2e9, 4e9])
        state = iterate_power_distance(f, k, req, 1e9, params)
        assert state.powers.sum() == pytest.approx(params.p_total, rel=1e-6)
        assert np.all(state.rates >= req * (1 - 1e-9))
        assert state.tc == pytest.approx(float((state.distances * state.rates).sum()))

    def test_stationarity_residual_when_floors_slack(self, params):
        cfg = SolverConfig(eps=1e-10)
        state = iterate_power_distance(
            np.array([5e11]), np.array([0.2]), np.array([0.0]), 1e9, params, cfg
        )
        lhs = stationarity_lhs(state.snrs[0])
        target = 2.0 + 0.2 * state.distances[0]
        assert abs(lhs - target) < 1e-3
        assert state.regimes[0] is Regime.TC_MAXIMIZED

    def test_pinned_device_rate_exact(self, params):
        # A floor above the stationary spectral efficiency binds exactly.
        state = iterate_power_distance(
            np.array([5e11]), np.array([0.2]), np.array([5e9]), 1e9, params
        )
        assert state.rates[0] == pytest.approx(5e9, rel=1e-12)
        assert state.regimes[0] is Regime.DISTANCE_MAXIMIZED

    def test_matches_grid_search(self, params):
        for k_abs in (0.0, 0.4):
            state = iterate_power_distance(
                np.array([5e11]), np.array([k_abs]), np.array([0.0]), 1e9, params
            )
            grid = np.logspace(-2, 2, 100_000)
            t_best = tc_curve(grid, params.p_total, 5e11, k_abs, 1e9, params).max()
            assert state.tc == pytest.approx(t_best, rel=5e-3)

    def test_inner_iteration_cap(self, params):
        cfg = SolverConfig(max_inner=2, eps=0.0, eps_relative=False)
        with pytest.raises(ConvergenceError):
            iterate_power_distance(
                np.array([5e11]), np.array([0.2]), np.array([0.0]), 1e9, params, cfg
            )

    def test_infeasible_floor(self):
        params = make_params(p_total_dbm=-20.0)
        with pytest.raises(InfeasibleError) as err:
            iterate_power_distance(
                np.array([5e11]), np.array([0.2]), np.array([200e9]), 1e9, params
            )
        assert 0 in err.value.devices

    def test_floor_unreachable_at_d_min(self):
        # At -20 dBm a 40 Gbps floor is met only ~1e-6 m from the transmitter.
        params = make_params(p_total_dbm=-20.0)
        with pytest.raises(InfeasibleError, match="d_min") as err:
            iterate_power_distance(
                np.array([5e11]), np.array([0.2]), np.array([40e9]), 1e9, params
            )
        assert err.value.devices == (0,)

    def test_infeasible_devices_are_plain_ints(self):
        params = make_params(p_total_dbm=-20.0)
        with pytest.raises(InfeasibleError, match="d_min") as err:
            iterate_power_distance(
                np.array([5e11]), np.array([0.2]), np.array([40e9]), 1e9, params
            )
        assert type(err.value.devices[0]) is int
        assert repr(err.value.devices) == "(0,)"

    def test_negative_rate_req_rejected(self, params):
        with pytest.raises(ValueError):
            iterate_power_distance(
                np.array([5e11]), np.array([0.2]), np.array([-1.0]), 1e9, params
            )

    def test_tc_history_recorded(self, params):
        state = iterate_power_distance(
            np.array([5e11]), np.array([0.2]), np.array([0.0]), 1e9, params
        )
        assert len(state.tc_history) == state.iterations
        assert state.tc_history[-1] > 0

    def test_one_link_budget_per_iterate(self, params, monkeypatch):
        # One budget at d0, one per iteration at its new distances, and the
        # rate-floor repair reuses the last one when no floor binds.
        calls = []

        def counting(*args):
            calls.append(args)
            return log_inverse_gain(*args)

        monkeypatch.setattr(dp, "log_inverse_gain", counting)
        f = np.array([5e11, 5.3e11, 5.8e11])
        state = iterate_power_distance(f, np.array([0.05, 0.3, 0.08]), np.zeros(3), 1e9, params)
        assert state.iterations > 1
        assert all(r is Regime.TC_MAXIMIZED for r in state.regimes)
        assert len(calls) == state.iterations + 1


class TestClosedForms:
    """Ranges the Lambert W / Wright omega closed forms must cover."""

    @pytest.mark.parametrize("exponent", [0.0, 1e-9, 0.5, 2.0, 10.0, 100.0, 500.0, 686.0])
    def test_stationarity_residual(self, exponent):
        b = 2.0 + exponent
        xi = solve_stationarity_snr(exponent)
        assert abs(stationarity_lhs(xi) - b) < 1e-10 * b

    @pytest.mark.parametrize("top", [10.0, 700.0, 1e4])
    def test_stationarity_monotone_and_finite(self, top):
        exps = np.linspace(0.0, top, 20_001)
        xi = solve_stationarity_snr(exps)
        assert np.all(np.isfinite(xi))
        assert np.all(np.diff(xi) >= 0)

    def test_stationarity_clamp_is_a_finite_ceiling(self):
        xi = solve_stationarity_snr(np.array([688.0, 700.0, 1e3, 1e4]))
        assert np.all(xi == xi[-1])
        assert 1e299 < xi[-1] < np.inf

    @pytest.mark.parametrize("k_abs", [0.0, 0.2, 5.0, 50.0])
    def test_max_distance_rate_residual(self, params, k_abs):
        req = 2.0e9
        d = max_distance(params.p_total, req, 5e11, k_abs, 1e9, params)
        assert d > 1e-3
        rate = tc_curve(d, params.p_total, 5e11, k_abs, 1e9, params) / d
        assert abs(rate - req) / req < 1e-9


class TestSolverConfigRanges:
    @pytest.mark.parametrize(
        "fields",
        [
            {"m_out": 0},
            {"max_inner": 0},
            {"alpha": 1.0},
            {"alpha": -0.1},
            {"alpha": math.nan},
            {"d_init": 0.0},
            {"d_init": math.inf},
            {"enum_cap": 0},
        ],
        ids=["m_out", "max_inner", "alpha_one", "alpha_negative", "alpha_nan", "d_init_zero", "d_init_inf",
             "enum_cap_zero"],
    )
    def test_rejected(self, fields):
        with pytest.raises(ValueError):
            SolverConfig(**fields)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-250.0, 250.0),  # power, dBm
    st.floats(1e11, 1e13),  # frequency, Hz
    st.one_of(st.just(0.0), st.floats(1e-6, 100.0)),  # k_abs, 1/m
)
@example(113.0, 1e11, 29.0)  # k d ~ 4e8 at t0: the slope must not overflow
def test_optimal_distance_descends_from_the_absorption_free_root(p_dbm, f, k_abs):
    """The optimum never lies beyond the closed-form root without absorption
    and meets the stationarity condition."""
    params = make_params()
    p = float(dbm_to_watts(p_dbm))
    d, xi = optimal_distance_pair(p, f, k_abs, 1e9, params)
    t0 = 0.5 * (math.log(p) - math.log(XI_STATIONARY_0) - log_inverse_gain(f, 0.0, 1.0, 1e9, params))
    assert math.log(d) <= t0 + 1e-12 * max(1.0, abs(t0))
    assert abs(stationarity_lhs(xi) - (2.0 + k_abs * d)) <= 1e-9


BAND_20 = uniform_band(500e9, 600e9, 20, bundled_absorption_table())


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, BAND_20.n - 1), st.floats(0.0, 6.0)),  # subwindow, bps/Hz
        min_size=1,
        max_size=BAND_20.n,
        unique_by=lambda dev: dev[0],
    ),
    st.floats(0.0, 40.0),
)
def test_rate_floor_repair_properties(devices, p_dbm):
    """After the repair every floor holds, pinned rates sit on their floors,
    the budget holds (exactly once a device is pinned) and no distance is
    below d_min; or InfeasibleError names a device."""
    idx, floors = (np.array(c) for c in zip(*devices))
    f, k, w = BAND_20.frequencies[idx], BAND_20.k_abs[idx], BAND_20.bandwidth
    req = floors * w
    params = make_params(p_dbm)
    config = SolverConfig()
    try:
        state = iterate_power_distance(f, k, req, w, params, config)
    except InfeasibleError as exc:
        assert len(exc.devices) >= 1
        return
    pinned = np.array([r is Regime.DISTANCE_MAXIMIZED for r in state.regimes])
    assert np.all(state.rates >= req * (1.0 - 1e-12))
    assert np.array_equal(state.rates[pinned], req[pinned])
    assert state.powers.sum() <= params.p_total * (1.0 + 1e-12)
    if pinned.any():
        assert state.powers.sum() == pytest.approx(params.p_total, rel=1e-12)
    assert np.all(state.distances >= config.d_min)
    snr = np.exp(np.log(state.powers) - log_inverse_gain(f, k, state.distances, w, params))
    assert np.allclose(w * np.log1p(snr) / LN2, state.rates, rtol=1e-9, atol=0.0)


class TestSumDistanceKKT:
    """`max_sum_distance` and its budget-dual root `_budget_dual`."""

    def test_zero_absorption_closed_form(self):
        """Without absorption each distance is e^(-base_k)/(2 nu) with
        nu = sqrt(sum e^(-base_k) / P_T)/2, and every rate sits on its floor."""
        band = uniform_band(500e9, 600e9, 6, bundled_absorption_table())
        f, w = band.frequencies, band.bandwidth
        req = np.array([0.5, 1.0, 2.0, 3.0, 4.0, 6.0]) * w
        params = make_params(20.0)
        d, p, _ = dp.max_sum_distance(req, f, np.zeros(6), w, params)
        base = np.log(np.expm1(req / w * LN2)) + log_inverse_gain(f, 0.0, 1.0, w, params)
        nu = 0.5 * math.sqrt(np.exp(-base).sum() / params.p_total)
        np.testing.assert_allclose(d, np.exp(-base) / (2.0 * nu), rtol=1e-12, atol=0.0)
        assert p.sum() == pytest.approx(params.p_total, rel=1e-12)
        snr = p * np.exp(-log_inverse_gain(f, 0.0, d, w, params))
        np.testing.assert_allclose(w * np.log1p(snr) / LN2, req, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("log_nu_star", [50.0, -50.0])
    def test_budget_dual_walks_to_a_far_root(self, log_nu_star, monkeypatch):
        """A toy family p_k = c_k d_k^2, d_k = 1/(2 nu c_k) with its root at
        ln nu* = +-50: the bracket walk evaluates the gap once at 0 on each
        side plus once per ln 256 step, and the final distances cost one more
        evaluation after `brentq`."""
        log_c = np.log([1.0, 2.0, 4.0])
        p_total = np.exp(-log_c).sum() / 4.0 * math.exp(-2.0 * log_nu_star)
        calls = {"distances_for": 0, "brentq": 0}

        def distances_for(log_nu):
            calls["distances_for"] += 1
            return np.exp(-log_nu - math.log(2.0) - log_c)

        real_brentq = dp.brentq

        def counting_brentq(fun, lo, hi, **kwargs):
            assert kwargs == {"xtol": 1e-15, "rtol": 8.9e-16, "maxiter": 200}

            def counted(log_nu):
                calls["brentq"] += 1
                return fun(log_nu)

            return real_brentq(counted, lo, hi, **kwargs)

        monkeypatch.setattr(dp, "brentq", counting_brentq)
        d, evaluations = dp._budget_dual(distances_for, lambda d: log_c + 2.0 * np.log(d), p_total)
        walk = 2 + math.ceil(abs(log_nu_star) / math.log(256.0))
        assert walk == 12
        assert evaluations == walk + calls["brentq"] + 1 == calls["distances_for"]
        np.testing.assert_allclose(d, np.exp(-log_nu_star - math.log(2.0) - log_c), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("floors", [[0.0, 1e9], [1e9, -1.0], [math.nan, 1e9]], ids=["zero", "negative", "nan"])
    def test_non_positive_floor_is_value_error(self, floors):
        """Checked before any numpy work: no RuntimeWarning, no
        ConvergenceError, the same ValueError type `max_distance` raises."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rate_req > 0"):
                dp.max_sum_distance(floors, [5.0e11, 5.5e11], [0.1, 0.2], 1e9, make_params(20.0))

    def test_budget_dual_out_of_steps_is_convergence_error(self, monkeypatch):
        """With `maxiter` capped at 2 the Brent solve stops after its two
        bracket ends and two steps, with a ConvergenceError naming the budget
        dual, which `except RuntimeError` callers still catch."""
        real_brentq = dp.brentq
        calls = []

        def capped_brentq(fun, lo, hi, **kwargs):
            def counted(log_nu):
                calls.append(log_nu)
                return fun(log_nu)

            return real_brentq(counted, lo, hi, **{**kwargs, "maxiter": 2})

        monkeypatch.setattr(dp, "brentq", capped_brentq)
        with pytest.raises(ConvergenceError, match="budget dual") as info:
            dp.max_sum_distance([1e9, 2e9], [5.0e11, 5.5e11], [0.1, 0.2], 1e9, make_params(20.0))
        assert isinstance(info.value, RuntimeError)
        assert len(calls) == 4


#: Monotone shapes g(t), t = (x - root) / scale, for the Brent comparison.
#: "tiny" drives the divided differences of the extrapolation step to
#: underflow, so its denominator is zero. The last three hold flat
#: stretches: a clipped ramp, a staircase that is never zero, and a dead
#: zone that is zero on a whole interval.
BRENT_SHAPES = {
    "linear": lambda t: t,
    "cubic": lambda t: t**3,
    "tiny": lambda t: 1e-170 * t**3,
    "exp": lambda t: math.expm1(3.0 * min(t, 200.0)),
    "clipped": lambda t: min(max(t, -0.5), 0.25),
    "stairs": lambda t: math.floor(4.0 * t) + 0.5,
    "dead_zone": lambda t: min(t + 0.5, 0.0) + max(t - 0.25, 0.0),
}


@st.composite
def _brent_cases(draw):
    ends = st.floats(-100.0, 100.0, allow_subnormal=False)
    a, b = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    root = draw(st.one_of(st.just(a), st.just(b), st.floats(a, b), st.floats(-150.0, 150.0)))
    shape = draw(st.sampled_from(sorted(BRENT_SHAPES)))
    scale = draw(st.floats(1e-3, 10.0))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        a, b = b, a
    kwargs = dict(
        xtol=draw(st.sampled_from([1e-15, 2e-12, 1e-6, 1e-2])),
        rtol=draw(st.sampled_from([8.9e-16, 1e-10, 1e-4])),
        maxiter=draw(st.sampled_from([1, 2, 5, 50, 200])),
    )
    return shape, root, scale, sign, a, b, kwargs


def _brent_outcome(solver, f, a, b, kwargs):
    """(the root's bits, or the error's kind and message; the points f was
    called at)."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    try:
        return solver(counted, a, b, **kwargs).hex(), calls
    except ValueError as exc:
        return f"ValueError: {exc}", calls
    except RuntimeError:
        return "no convergence", calls


@settings(max_examples=400, deadline=None)
@given(_brent_cases())
@example(("linear", 1.0, 1.0, 1.0, 1.0, 3.0, dict(xtol=1e-15, rtol=8.9e-16, maxiter=200)))  # root at a
@example(("linear", 3.0, 1.0, -1.0, 1.0, 3.0, dict(xtol=1e-15, rtol=8.9e-16, maxiter=200)))  # root at b
@example(("dead_zone", 0.0, 1.0, 1.0, -90.0, 80.0, dict(xtol=1e-15, rtol=8.9e-16, maxiter=200)))
@example(("stairs", 0.3, 1.0, 1.0, -5.0, 5.0, dict(xtol=1e-15, rtol=8.9e-16, maxiter=200)))
@example(("tiny", 0.3, 1.0, 1.0, -100.0, 100.0, dict(xtol=1e-15, rtol=8.9e-16, maxiter=200)))
def test_brentq_matches_scipy_bit_for_bit(case):
    """`distance_power.brentq` calls f at the same points as scipy's
    `brentq` and returns the same root bits, or fails the same way."""
    shape, root, scale, sign, a, b, kwargs = case
    g = BRENT_SHAPES[shape]

    def f(x):
        return sign * g((x - root) / scale)

    assert _brent_outcome(dp.brentq, f, a, b, kwargs) == _brent_outcome(scipy_brentq, f, a, b, kwargs)


def _scipy_stationarity_snr(exponent: float) -> float:
    """The closed form through scipy's `lambertw`, clamped at u = 690; +inf,
    where -b e^(-b) is inf * 0, is the clamp value."""
    if exponent == math.inf:
        return math.expm1(690.0)
    b = 2.0 + exponent
    return math.expm1(min(b + lambertw(-b * math.exp(-b)).real, 690.0))


#: Every exponent k d a caller can pass: tiny, the physical range, the
#: clamp's neighbourhood, huge and +inf.
STATIONARITY_EXPONENTS = st.one_of(
    st.floats(0.0, 1e-6),
    st.floats(0.0, 50.0),
    st.floats(600.0, 800.0),
    st.floats(0.0, math.inf),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(STATIONARITY_EXPONENTS, min_size=1, max_size=16))
@example([0.0, 686.0, 700.0, 1e300, math.inf])
@example([5e-324, 688.5, 689.0, 690.0, 691.0])
def test_stationarity_kernel_matches_scipy_lambertw(exponents):
    """Scalar and array calls stay within 2e-15 of scipy's W0 closed form."""
    want = np.array([_scipy_stationarity_snr(a) for a in exponents])
    got = solve_stationarity_snr(np.array(exponents))
    assert np.all(np.abs(got - want) <= 2e-15 * want)
    for a, w in zip(exponents, want):
        assert abs(solve_stationarity_snr(a) - w) <= 2e-15 * w


def test_w0_table_nodes_solve_w_exp_w():
    """Every node of the start table has w e^w within one ulp of its z, on
    the whole interval [-2 e^-2, 0] the stationarity condition reaches."""
    z, w = dp._W0_Z, dp._W0_W
    assert z[0] == -2.0 * math.exp(-2.0) and z[-1] == 0.0
    assert np.all(np.diff(z) > 0) and np.all(np.diff(w) > 0)
    assert np.all(np.abs(w * np.exp(w) - z) <= np.spacing(np.abs(z)))


#: The Wright omega arguments ln(k/2) + C/2 of `max_distance`, from k = 0
#: (-inf) up to 1e20, with the kernel's interval ends.
OMEGA_ARGS = st.one_of(st.floats(-60.0, 60.0), st.floats(max_value=1e20, allow_nan=False))


@settings(max_examples=500, deadline=None)
@given(OMEGA_ARGS)
@example(-math.inf)
@example(-50.0)
@example(math.nextafter(-50.0, -math.inf))
@example(-2.0)
@example(1.0)
@example(1e20)
@example(-745.5)  # e^x underflows to 0
def test_wright_omega_kernel_matches_scipy_bit_for_bit(x):
    assert dp._wright_omega(x).hex() == float(wrightomega(x)).hex()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-30.0, 40.0),  # power, dBm
            st.floats(0.1, 30.0),  # floor, bps/Hz
            st.floats(5e11, 6e11),
            st.one_of(st.just(0.0), st.floats(1e-6, 50.0)),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_max_distance_bit_identical_to_scipy_wrightomega(devices):
    """`max_distance` with the kernel gives the bits it gives with scipy's
    `wrightomega` in its place, k = 0 included."""
    params = make_params()
    p_dbm, eta, f, k = (np.array(c) for c in zip(*devices))
    args = (dbm_to_watts(p_dbm), eta * 1e9, f, k, 1e9, params, 1e-300)
    got = max_distance(*args)
    with mock.patch.object(dp, "_wright_omega", lambda x: float(wrightomega(x))):
        want = max_distance(*args)
    assert got.tobytes() == want.tobytes()


def test_stationarity_inf_is_the_clamp_and_nan_is_rejected():
    """+inf gives the clamp value expm1(690) as 1e300 does, NaN the negative
    exponent's ValueError; neither prints a numpy warning."""
    clamp = math.expm1(690.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_stationarity_snr(math.inf) == clamp == solve_stationarity_snr(1e300)
        got = solve_stationarity_snr(np.array([math.inf, 1e300, 0.0]))
        assert np.array_equal(got, [clamp, clamp, solve_stationarity_snr(0.0)])
        for bad in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="absorption exponent"):
                solve_stationarity_snr(bad)
