"""End-to-end allocation strategies and their cross-checks."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tera_tc.assignment import EnumerationCapError
from tera_tc.channel import (
    BandPlan,
    Link,
    Subwindow,
    bundled_absorption_table,
    inverse_gain,
    rate,
)
from tera_tc.distance_power import ConvergenceError, InfeasibleError, SolverConfig, iterate_power_distance
from tera_tc.scenario import default_scenario, uniform_band
from tera_tc.strategies import (
    FIXED_DISTANCE_STACKS,
    STRATEGIES,
    Allocation,
    DeviceSpec,
    Scenario,
    audit_allocation,
    distance_max_benchmark,
    exhaustive_tc_max,
    fixed_distance_tc_max,
    non_adaptive_benchmark,
    proposed_tc_max,
    sum_rate_max,
)
from tera_tc import strategies
from tera_tc.units import dbm_to_watts
from radio_params import make_params

LN2 = math.log(2.0)


def small_band(k_abs_list, f0=5e11, w=1e9, spacing=1e9):
    return BandPlan(
        tuple(
            Subwindow(f0 + i * spacing, w, ka) for i, ka in enumerate(k_abs_list)
        )
    )


def fixed_scenario(distances, k_abs_list, p_total_dbm=10.0):
    return Scenario(
        band=small_band(k_abs_list),
        params=make_params(p_total_dbm),
        devices=tuple(DeviceSpec(fixed_distance=float(d)) for d in distances),
    )


class TestFixedDistance:
    def test_single_device_best_subwindow(self):
        sc = fixed_scenario([10.0], [0.4, 0.05, 0.2])
        alloc = fixed_distance_tc_max(sc)
        # One device: it must take the lowest-loss subwindow and the full budget.
        assert alloc.subwindows[0] == 1
        assert alloc.powers[0] == pytest.approx(sc.params.p_total, rel=1e-9)

    def test_tc_dominates_sum_rate_objective(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            sc = fixed_scenario(
                rng.uniform(1.0, 30.0, n), rng.uniform(0.0, 0.8, n + 1)
            )
            tc_alloc = fixed_distance_tc_max(sc)
            sr_alloc = sum_rate_max(sc)
            assert tc_alloc.tc >= sr_alloc.tc * (1 - 1e-9)
            # And symmetrically the sum-rate pipeline wins on its own objective.
            assert sr_alloc.sum_rate >= tc_alloc.sum_rate * (1 - 1e-9)

    def test_equidistant_same_assignment(self):
        sc = fixed_scenario([7.0, 7.0, 7.0], [0.3, 0.05, 0.6, 0.1])
        a = fixed_distance_tc_max(sc)
        b = sum_rate_max(sc)
        assert np.array_equal(np.sort(a.subwindows), np.sort(b.subwindows))

    def test_far_device_avoids_absorption(self):
        sc = fixed_scenario([1.0, 10.0], [0.05, 2.0])
        alloc = fixed_distance_tc_max(sc)
        assert alloc.subwindows[1] == 0  # far device takes the clean subwindow
        assert alloc.subwindows[0] == 1

    @pytest.mark.parametrize("strategy", [fixed_distance_tc_max, sum_rate_max])
    def test_rates_match_the_link_budget(self, strategy):
        # 550-560 GHz straddles the 555 GHz absorption peak (k up to 0.73/m);
        # at 2000 m the exponent k d is past the overflow guard of 700.
        band = uniform_band(550e9, 560e9, 6, bundled_absorption_table())
        sc = Scenario(
            band=band,
            params=make_params(30.0),
            devices=tuple(
                DeviceSpec(fixed_distance=d) for d in (1.0, 2.0, 3.0, 4.0, 6.0, 2000.0)
            ),
        )
        alloc = strategy(sc)
        n = alloc.subwindows
        f, k = band.frequencies[n], band.k_abs[n]
        want = [
            rate(Link(f[i], k[i], alloc.distances[i], alloc.powers[i], band.bandwidth), sc.params)
            for i in range(sc.n_devices)
        ]
        np.testing.assert_allclose(alloc.rates, want, rtol=1e-12, atol=0.0)
        assert k[-1] > 0.7 and k[-1] * alloc.distances[-1] > 700.0
        assert alloc.rates[-1] == 0.0
        in_peak = (k > 0.7) & (alloc.powers > 0)
        assert np.any(in_peak) and np.all(alloc.rates[in_peak] > 0)

    def test_requires_fixed_distances(self):
        sc = Scenario(
            band=small_band([0.1, 0.2]),
            params=make_params(),
            devices=(DeviceSpec(rate_req=1e9),),
        )
        with pytest.raises(ValueError):
            fixed_distance_tc_max(sc)


_BANDS = {}


def _band_of(n):
    """n subwindows over 550-560 GHz, across the 555 GHz absorption peak."""
    if n not in _BANDS:
        _BANDS[n] = uniform_band(550e9, 560e9, n, bundled_absorption_table())
    return _BANDS[n]


@st.composite
def _fixed_distance_stacks(draw):
    """A band, a power and a T x K stack of distances: drops within 40 m,
    and devices far enough (10-60 km) that their inverse gain overflows to
    inf on every subwindow."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    t = draw(st.integers(1, 9))
    near = st.floats(1e-3, 40.0)
    far = st.floats(1e4, 6e4)
    d = draw(arrays(float, (t, k), elements=near | far))
    return _band_of(n), draw(st.floats(-10.0, 40.0)), d


@settings(max_examples=80, deadline=None)
@given(_fixed_distance_stacks(), st.sampled_from(["tc_fixed", "sum_rate"]))
def test_stacked_trials_match_single_scenario_calls(case, name):
    band, p_dbm, d = case
    base = Scenario(band=band, params=make_params(p_dbm), devices=(DeviceSpec(),) * d.shape[1])
    single = []
    for row in d:
        sc = dataclasses.replace(base, devices=tuple(DeviceSpec(fixed_distance=x) for x in row.tolist()))
        try:
            single.append(STRATEGIES[name](sc))
        except Exception as exc:  # an all-far trial: every channel killed
            single.append(exc)
    if any(isinstance(a, Exception) for a in single):
        with pytest.raises(Exception):
            FIXED_DISTANCE_STACKS[name](base, d.copy())
        return
    stacked = FIXED_DISTANCE_STACKS[name](base, d.copy())
    assert len(stacked) == len(single)
    for a, b in zip(stacked, single):
        assert a.strategy == b.strategy and a.regimes == b.regimes
        assert np.array_equal(a.subwindows, b.subwindows)
        for field in ("powers", "distances", "rates"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


class TestProposed:
    def test_monotone_in_power(self):
        band = uniform_band(5e11, 6e11, 5, bundled_absorption_table())
        tcs = []
        for p_dbm in (20.0, 30.0, 40.0):
            sc = Scenario(
                band=band,
                params=make_params(p_dbm),
                devices=tuple(DeviceSpec(rate_req=1.0 * band.bandwidth) for _ in range(5)),
            )
            tcs.append(proposed_tc_max(sc).tc)
        assert tcs[0] < tcs[1] < tcs[2]

    def test_deterministic(self):
        band = uniform_band(5e11, 6e11, 4, bundled_absorption_table())
        sc = Scenario(
            band=band,
            params=make_params(30.0),
            devices=tuple(DeviceSpec(rate_req=2.0 * band.bandwidth) for _ in range(4)),
        )
        a = proposed_tc_max(sc)
        b = proposed_tc_max(sc)
        assert np.array_equal(a.subwindows, b.subwindows)
        assert np.array_equal(a.distances, b.distances)
        assert np.array_equal(a.powers, b.powers)

    def test_respects_floors_and_budget(self):
        band = uniform_band(5e11, 6e11, 6, bundled_absorption_table())
        reqs = np.array([1.0, 1.0, 2.0, 2.0, 4.0, 4.0]) * band.bandwidth
        sc = Scenario(
            band=band,
            params=make_params(30.0),
            devices=tuple(DeviceSpec(rate_req=float(r)) for r in reqs),
        )
        alloc = proposed_tc_max(sc)
        assert np.all(alloc.rates >= reqs * (1 - 1e-9))
        assert alloc.power_used <= sc.params.p_total * (1 + 1e-9)


class TestDistanceMax:
    def scenario(self, p_dbm=20.0):
        band = uniform_band(5e11, 6e11, 8, bundled_absorption_table())
        reqs = (1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0)
        return Scenario(
            band=band,
            params=make_params(p_dbm),
            devices=tuple(DeviceSpec(rate_req=r * band.bandwidth) for r in reqs),
        )

    def test_rates_pinned_to_floors(self):
        sc = self.scenario()
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
        assert np.allclose(achieved, sc.rate_reqs, rtol=1e-9)

    def test_budget_exact(self):
        alloc = distance_max_benchmark(self.scenario())
        assert alloc.power_used == pytest.approx(
            float(dbm_to_watts(20.0)), rel=1e-12
        )

    def test_greedy_pairing(self):
        # Smallest floor takes the smallest absorption coefficient, and so on.
        band = small_band([0.3, 0.05, 0.6, 0.1])
        sc = Scenario(
            band=band,
            params=make_params(20.0),
            devices=tuple(
                DeviceSpec(rate_req=r * 1e9) for r in (2.0, 1.0, 3.0)
            ),
        )
        alloc = distance_max_benchmark(sc)
        assert list(alloc.subwindows) == [3, 1, 0]

    def test_no_absorption_closed_form_ratio(self):
        # With k_abs=0 the distances satisfy d_i ~ G c^2/(2 nu xi_i sigma^2
        # (4 pi f_i)^2); the shared dual cancels in the ratio.
        band = small_band([0.0, 0.0], f0=5e11, spacing=5e10)
        reqs = np.array([1.0e9, 3.0e9])
        sc = Scenario(
            band=band,
            params=make_params(20.0),
            devices=tuple(DeviceSpec(rate_req=float(r)) for r in reqs),
        )
        alloc = distance_max_benchmark(sc)
        xi = 2.0 ** (reqs / 1e9) - 1.0
        f = band.frequencies[alloc.subwindows]
        expected_ratio = (xi[1] * f[1] ** 2) / (xi[0] * f[0] ** 2)
        assert alloc.distances[0] / alloc.distances[1] == pytest.approx(
            expected_ratio, rel=1e-9
        )

    def test_rejects_zero_floor(self):
        sc = Scenario(
            band=small_band([0.1, 0.2]),
            params=make_params(),
            devices=(DeviceSpec(rate_req=0.0), DeviceSpec(rate_req=1e9)),
        )
        with pytest.raises(ValueError):
            distance_max_benchmark(sc)


class TestNonAdaptive:
    def test_equal_power_and_band_order(self):
        band = uniform_band(5e11, 6e11, 4, bundled_absorption_table())
        reqs = (1.0, 4.0, 2.0, 3.0)
        sc = Scenario(
            band=band,
            params=make_params(20.0),
            devices=tuple(DeviceSpec(rate_req=r * band.bandwidth) for r in reqs),
        )
        alloc = non_adaptive_benchmark(sc)
        assert np.allclose(alloc.powers, sc.params.p_total / 4)
        # Descending floors take subwindows in band order.
        assert list(alloc.subwindows) == [3, 0, 2, 1]

    def test_single_device_matches_proposed(self):
        band = uniform_band(5e11, 5.01e11, 1, bundled_absorption_table())
        sc = Scenario(
            band=band,
            params=make_params(),
            devices=(DeviceSpec(rate_req=1.0 * band.bandwidth),),
        )
        pa = proposed_tc_max(sc)
        na = non_adaptive_benchmark(sc)
        assert pa.tc == pytest.approx(na.tc, rel=1e-6)


class TestExhaustive:
    def test_single_cell_matches_inner_solver(self):
        band = small_band([0.2])
        sc = Scenario(
            band=band, params=make_params(), devices=(DeviceSpec(rate_req=1e9),)
        )
        alloc = exhaustive_tc_max(sc)
        state = iterate_power_distance(
            band.frequencies, band.k_abs, np.array([1e9]), 1e9, sc.params
        )
        assert alloc.tc == pytest.approx(state.tc, rel=1e-12)

    def test_symmetric_matches_proposed(self):
        band = small_band([0.2, 0.2])
        sc = Scenario(
            band=band,
            params=make_params(),
            devices=(DeviceSpec(rate_req=1e9), DeviceSpec(rate_req=1e9)),
        )
        # The two searches take different iteration paths to the same
        # symmetric optimum; agreement is solver-tolerance limited.
        assert exhaustive_tc_max(sc).tc == pytest.approx(
            proposed_tc_max(sc).tc, rel=1e-5
        )

    def test_dominates_proposed(self):
        band = uniform_band(5e11, 6e11, 4, bundled_absorption_table())
        sc = Scenario(
            band=band,
            params=make_params(25.0),
            devices=tuple(
                DeviceSpec(rate_req=r * band.bandwidth) for r in (1.0, 2.0, 3.0, 4.0)
            ),
        )
        assert exhaustive_tc_max(sc).tc >= proposed_tc_max(sc).tc * (1 - 1e-9)

    def test_enumeration_cap(self):
        band = uniform_band(5e11, 6e11, 8, bundled_absorption_table())
        sc = Scenario(
            band=band,
            params=make_params(),
            devices=tuple(DeviceSpec(rate_req=1e9) for _ in range(8)),
            config=SolverConfig(enum_cap=10),
        )
        with pytest.raises(EnumerationCapError):
            exhaustive_tc_max(sc)


class TestSumRatePeakAvoidance:
    def test_peak_subwindow_unassigned_when_devices_are_scarce(self, rng):
        # With fewer devices than subwindows the sum-rate pipeline leaves
        # the worst absorption subwindow unused.
        band = uniform_band(5e11, 6e11, 100, bundled_absorption_table())
        d = np.maximum(35.0 * np.sqrt(rng.random(80)), 1e-3)
        sc = Scenario(
            band=band,
            params=make_params(40.0),
            devices=tuple(DeviceSpec(fixed_distance=float(x)) for x in d),
        )
        alloc = sum_rate_max(sc)
        peak = int(np.argmax(band.k_abs))
        assert peak not in set(int(n) for n in alloc.subwindows)


class TestScenarioAndAudit:
    def test_too_many_devices_rejected(self):
        with pytest.raises(ValueError):
            Scenario(
                band=small_band([0.1]),
                params=make_params(),
                devices=(DeviceSpec(), DeviceSpec()),
            )

    def test_device_spec_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec(rate_req=-1.0)
        with pytest.raises(ValueError):
            DeviceSpec(fixed_distance=0.0)

    def test_audit_catches_budget_violation(self):
        sc = fixed_scenario([5.0, 9.0], [0.1, 0.2])
        alloc = fixed_distance_tc_max(sc)
        bad = Allocation(
            strategy=alloc.strategy,
            subwindows=alloc.subwindows,
            powers=alloc.powers * 10.0,
            distances=alloc.distances,
            rates=alloc.rates,
            regimes=alloc.regimes,
        )
        with pytest.raises(Exception, match="budget"):
            audit_allocation(bad, sc, check_rate_floors=False)

    def test_audit_names_devices_below_d_min(self):
        sc = fixed_scenario([5.0, 9.0, 7.0], [0.1, 0.2, 0.3])
        alloc = fixed_distance_tc_max(sc)
        bad = dataclasses.replace(alloc, distances=np.array([5.0, 1e-13, 1e-4]))
        with pytest.raises(InfeasibleError, match="d_min") as info:
            audit_allocation(bad, sc, check_rate_floors=False)
        assert list(info.value.devices) == [1, 2]

    @pytest.mark.parametrize("field", ["powers", "distances", "rates"])
    def test_audit_names_devices_with_non_finite_values(self, field):
        # NaN fails every < and > test, so it needs its own check.
        sc = fixed_scenario([5.0, 9.0, 7.0], [0.1, 0.2, 0.3])
        alloc = fixed_distance_tc_max(sc)
        values = getattr(alloc, field).copy()
        values[[0, 2]] = [math.nan, math.inf]
        with pytest.raises(InfeasibleError, match="non-finite") as info:
            audit_allocation(dataclasses.replace(alloc, **{field: values}), sc, check_rate_floors=False)
        assert info.value.devices == (0, 2)

    @pytest.mark.parametrize("strategy", [distance_max_benchmark, proposed_tc_max])
    def test_floors_out_of_reach_raise_below_d_min(self, strategy):
        # Floors of 1-45 bps/Hz at -10 dBm: both strategies used to return
        # distances of 1e-13 to 1e-11 m for the top floors and pass the audit.
        sc, _ = default_scenario()
        w = sc.band.bandwidth
        sc = dataclasses.replace(
            sc,
            params=dataclasses.replace(sc.params, p_total=float(dbm_to_watts(-10.0))),
            devices=tuple(
                DeviceSpec(rate_req=float(r) * w) for r in np.linspace(1.0, 45.0, sc.n_devices)
            ),
        )
        with pytest.raises(InfeasibleError, match="d_min") as info:
            strategy(sc)
        assert sc.n_devices - 1 in info.value.devices

    def test_audit_catches_floor_violation(self):
        band = small_band([0.1, 0.2])
        sc = Scenario(
            band=band,
            params=make_params(),
            devices=(DeviceSpec(rate_req=1e9), DeviceSpec(rate_req=1e9)),
        )
        alloc = proposed_tc_max(sc)
        bad = dataclasses.replace(alloc, rates=alloc.rates * 1e-3)
        with pytest.raises(Exception, match="floor"):
            audit_allocation(bad, sc, check_rate_floors=True)


@pytest.mark.parametrize(
    "fields",
    [
        {"rate_req": math.nan},
        {"rate_req": math.inf},
        {"fixed_distance": math.nan},
        {"fixed_distance": math.inf},
    ],
    ids=["nan_floor", "inf_floor", "nan_distance", "inf_distance"],
)
def test_device_spec_rejects_non_finite(fields):
    with pytest.raises(ValueError, match="finite"):
        DeviceSpec(**fields)


@pytest.mark.parametrize("p_dbm", [90.0, 100.0, 110.0])
@pytest.mark.parametrize("name, n", [("proposed", 100), ("exhaustive", 4)])
def test_extreme_budget_is_typed_or_audited(name, n, p_dbm):
    # Up here the smoothed loop's power sum overflows, its dual sum
    # underflows and pinned powers underflow to 0: none of that may surface
    # as a numpy warning or a math domain error.
    sc, _ = default_scenario()
    sc = Scenario(
        band=BandPlan(sc.band.subwindows[:n]),
        params=dataclasses.replace(sc.params, p_total=float(dbm_to_watts(p_dbm))),
        devices=sc.devices[:n],
        config=sc.config,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            alloc = STRATEGIES[name](sc)
        except (ConvergenceError, InfeasibleError):
            return
        audit_allocation(alloc, sc, check_rate_floors=True)


def _plain_rates_at(log_ginv, powers, bandwidth):
    """`strategies._rates_at` as the out-of-place expressions it replaces:
    the reference its in-place form must match bit for bit."""
    p = np.asarray(powers, dtype=float)[:, None]
    with np.errstate(over="ignore"):
        snr = np.where(p > 0, np.exp(np.log(np.maximum(p, 1e-300)) - log_ginv), 0.0)
    return bandwidth * np.log1p(snr) / LN2


@pytest.mark.parametrize("stacked", [False, True], ids=["KxN", "TxKxN"])
def test_rates_at_bit_identical_to_plain_expressions(stacked):
    sc, _ = default_scenario()
    rng = np.random.default_rng(7)
    n_dev = 6
    d = rng.uniform(1.0, 40.0, (3, n_dev, 1) if stacked else (n_dev, 1))
    band = sc.band
    log_ginv = np.array(strategies._log_gain_matrix(sc, d))
    log_ginv[..., 0, 3] = -800.0  # exp(ln p + 800) overflows to inf
    log_ginv.flags.writeable = False
    before = log_ginv.copy()
    powers = np.array([1e-3, 0.0, 2e-2, 5e-4, 0.0, 1e-1])  # two p = 0 rows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = strategies._rates_at(sc, log_ginv, powers)
    want = _plain_rates_at(log_ginv, powers, band.bandwidth)
    assert got.shape == want.shape == log_ginv.shape
    assert np.array_equal(got, want)
    assert np.isinf(got[..., 0, 3]).all() and (got[..., [1, 4], :] == 0.0).all()
    assert np.array_equal(log_ginv, before)


def test_proposed_round_holds_two_link_budget_arrays():
    """Each round of `proposed` builds its K x N link budget, rates and
    payoff in place, so the traced peak stays near two K x N float arrays
    (the hungarian cost beside the payoff)."""
    k = 300
    sc, _ = default_scenario()
    band = uniform_band(500e9, 600e9, k, bundled_absorption_table())
    reqs = np.random.default_rng(0).choice([1.0, 4.0], size=k) * band.bandwidth
    sc = Scenario(band=band, params=sc.params, devices=tuple(DeviceSpec(rate_req=float(r)) for r in reqs),
                  config=sc.config)
    band.frequencies, band.k_abs  # built once, outside the trace
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        proposed_tc_max(sc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 2.5 * k * k * 8


@pytest.mark.parametrize("stacked", [False, True], ids=["KxN", "TxKxN"])
def test_rates_at_into_the_link_budget_bit_identical_to_default(stacked):
    sc, _ = default_scenario()
    rng = np.random.default_rng(11)
    n_dev = 6
    d = rng.uniform(1.0, 40.0, (3, n_dev, 1) if stacked else (n_dev, 1))
    log_ginv = np.array(strategies._log_gain_matrix(sc, d))
    log_ginv[..., 0, 3] = -800.0  # exp(ln p + 800) overflows to inf
    powers = np.array([1e-3, 0.0, 2e-2, 5e-4, 0.0, 1e-1])
    want = strategies._rates_at(sc, log_ginv, powers)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = strategies._rates_at(sc, log_ginv, powers, out=log_ginv)
    assert got is log_ginv
    assert np.array_equal(got, want)


def _traced_peak(fn, *args) -> int:
    """Bytes `fn(*args)` allocates at its peak, under tracemalloc."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_proposed_round_holds_one_link_budget_array():
    """The link budget's buffer becomes the rates, the payoff and scipy's
    cost, and the absorption term is added in blocks, so a round's traced
    peak stays near one K x N float array (1.59 of them at K = N = 300;
    the hungarian cost beside the payoff read 2.22)."""
    k = 300
    sc, _ = default_scenario()
    band = uniform_band(500e9, 600e9, k, bundled_absorption_table())
    reqs = np.random.default_rng(0).choice([1.0, 4.0], size=k) * band.bandwidth
    sc = Scenario(band=band, params=sc.params, devices=tuple(DeviceSpec(rate_req=float(r)) for r in reqs),
                  config=sc.config)
    band.frequencies, band.k_abs  # built once, outside the trace
    assert _traced_peak(proposed_tc_max, sc) <= 1.75 * k * k * 8


@pytest.mark.parametrize("weighted", [True, False], ids=["tc_fixed", "sum_rate"])
def test_fixed_distance_block_holds_two_link_budget_arrays(weighted):
    """A T x K x N trial block keeps its link budget for the gather after
    the assignment, and scipy's cost is written into the payoff: two such
    arrays at the peak (2.25 of them), where a separate cost made 3.24."""
    sc, _ = default_scenario()
    t, k, n = 4, sc.n_devices, sc.band.n
    d = np.random.default_rng(0).uniform(1.0, 40.0, (t, k))
    sc.band.frequencies, sc.band.k_abs  # built once, outside the trace
    peak = _traced_peak(strategies._fixed_distance_stack, sc, d, weighted, "x")
    assert peak <= 2.5 * t * k * n * 8


def test_rate_floor_whose_snr_overflows_is_rejected():
    """2^(r/W) - 1 overflows a float past r/W = 1024 bps/Hz; the scenario
    names the first device whose floor does, with no numpy warning."""
    band = uniform_band(5e11, 5.1e11, 4, bundled_absorption_table())
    w = band.bandwidth
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Scenario(band=band, params=make_params(), devices=(DeviceSpec(rate_req=1023 * w),)).n_devices == 1
        message = r"^device 1: rate_req of \S+ bps/Hz overflows its floor SNR 2\^\(r/W\) - 1$"
        for r in (1024.001, 1100, 1e290):
            devices = (DeviceSpec(rate_req=w), DeviceSpec(rate_req=r * w), DeviceSpec(rate_req=2 * r * w))
            with pytest.raises(ValueError, match=message):
                Scenario(band=band, params=make_params(), devices=devices)
