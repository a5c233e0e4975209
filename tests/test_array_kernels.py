"""Array forms of the single-device kernels and the two benchmark strategies.

Property tests (hypothesis): the array forms of `optimal_distance_pair`,
`max_distance` and `classify_regime` agree with elementwise scalar calls,
distmax satisfies its KKT conditions, and nonadaptive names exactly the
devices whose floors an equal power split cannot meet.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tera_tc.channel import bundled_absorption_table, log_inverse_gain
from tera_tc.distance_power import (
    InfeasibleError,
    Regime,
    classify_regime,
    max_distance,
    optimal_distance_pair,
)
from tera_tc.scenario import uniform_band
from tera_tc.strategies import (
    DeviceSpec,
    Scenario,
    distance_max_benchmark,
    non_adaptive_benchmark,
)
from tera_tc.units import dbm_to_watts
from radio_params import make_params

LN2 = math.log(2.0)
W = 1e9
REL = 1e-12
PARAMS = make_params()

_device = st.tuples(
    st.floats(-40.0, 40.0),  # power, dBm
    st.floats(1e11, 1e12),  # frequency, Hz
    st.one_of(st.just(0.0), st.floats(1e-4, 5.0)),  # k_abs, 1/m
    st.floats(0.05, 12.0),  # rate floor, bps/Hz
)
_devices = st.lists(_device, min_size=1, max_size=8)


def _columns(devices):
    p_dbm, f, k, eta = (np.array(c) for c in zip(*devices))
    return dbm_to_watts(p_dbm), f, k, eta * W


def _close(a, b):
    return np.allclose(a, b, rtol=REL, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(_devices)
def test_optimal_distance_pair_array_matches_scalar(devices):
    p, f, k, _ = _columns(devices)
    d, xi = optimal_distance_pair(p, f, k, W, PARAMS)
    pairs = [optimal_distance_pair(*args, W, PARAMS) for args in zip(p, f, k)]
    assert all(isinstance(v, float) for pair in pairs for v in pair)
    assert _close(d, [pair[0] for pair in pairs])
    assert _close(xi, [pair[1] for pair in pairs])


def _scalar_or_error(fn, *args):
    try:
        return fn(*args)
    except InfeasibleError:
        return None


@settings(max_examples=40, deadline=None)
@given(_devices)
def test_max_distance_array_matches_scalar(devices):
    p, f, k, req = _columns(devices)
    scalar = [_scalar_or_error(max_distance, *args, W, PARAMS) for args in zip(p, req, f, k)]
    infeasible = [i for i, v in enumerate(scalar) if v is None]
    if infeasible:
        with pytest.raises(InfeasibleError) as err:
            max_distance(p, req, f, k, W, PARAMS)
        assert list(err.value.devices) == infeasible
    else:
        assert _close(max_distance(p, req, f, k, W, PARAMS), scalar)


@settings(max_examples=40, deadline=None)
@given(_devices)
def test_classify_regime_array_matches_scalar(devices):
    p, f, k, req = _columns(devices)
    scalar = [_scalar_or_error(classify_regime, *args, W, PARAMS) for args in zip(p, req, f, k)]
    infeasible = [i for i, v in enumerate(scalar) if v is None]
    if infeasible:
        with pytest.raises(InfeasibleError) as err:
            classify_regime(p, req, f, k, W, PARAMS)
        assert list(err.value.devices) == infeasible
        return
    res = classify_regime(p, req, f, k, W, PARAMS)
    assert res.regime == tuple(r.regime for r in scalar)
    assert all(isinstance(r.regime, Regime) and isinstance(r.d_opt, float) for r in scalar)
    for name in ("d_opt", "snr_opt", "spectral_eff_opt"):
        assert _close(getattr(res, name), [getattr(r, name) for r in scalar])


def _band_scenario(floors_bps_per_hz, p_dbm, n_sub):
    band = uniform_band(5e11, 6e11, n_sub, bundled_absorption_table())
    return Scenario(
        band=band,
        params=make_params(p_dbm),
        devices=tuple(DeviceSpec(rate_req=r * band.bandwidth) for r in floors_bps_per_hz),
    )


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(0.1, 8.0), min_size=1, max_size=12),
    st.floats(0.0, 60.0),
)
def test_distmax_kkt(floors, p_dbm):
    sc = _band_scenario(floors, p_dbm, 12)
    alloc = distance_max_benchmark(sc)
    band, d, p = sc.band, alloc.distances, alloc.powers
    f, k = band.frequencies[alloc.subwindows], band.k_abs[alloc.subwindows]
    # p_k(d) = e^{base_k} d^2 e^{k d}, so p_k'(d) = p_k (2 + k d) / d: one
    # shared dual means the same marginal power for every device.
    marginal = p * (2.0 + k * d) / d
    assert marginal.max() / marginal.min() - 1.0 < 1e-9
    assert p.sum() == pytest.approx(sc.params.p_total, rel=1e-12)
    snr = np.exp(np.log(p) - log_inverse_gain(f, k, d, band.bandwidth, sc.params))
    rates = band.bandwidth * np.log1p(snr) / LN2
    assert np.allclose(rates, sc.rate_reqs, rtol=1e-9, atol=0.0)
    assert np.array_equal(alloc.rates, sc.rate_reqs)


def test_distmax_reports_dual_evaluations():
    alloc = distance_max_benchmark(_band_scenario([1.0, 2.0, 3.0], 20.0, 4))
    assert 2 <= alloc.iterations < 80


def test_nonadaptive_names_infeasible_devices():
    # 60 bps/Hz needs an SNR of ~1e18, out of reach even at d_min with 2 mW;
    # the 1-2 bps/Hz floors are easy.
    sc = _band_scenario([1.0, 60.0, 2.0, 60.0, 1.5], 10.0, 5)
    with pytest.raises(InfeasibleError, match="equal power split") as err:
        non_adaptive_benchmark(sc)
    assert err.value.devices == (1, 3)


def test_nonadaptive_matches_per_device_classification():
    sc = _band_scenario([0.5, 4.0, 1.0, 6.0, 2.0, 5.0], 20.0, 6)
    alloc = non_adaptive_benchmark(sc)
    band = sc.band
    p_eq = sc.params.p_total / sc.n_devices
    for i, n in enumerate(alloc.subwindows):
        res = classify_regime(
            p_eq, sc.rate_reqs[i], band.frequencies[n], band.k_abs[n], band.bandwidth, sc.params
        )
        assert alloc.regimes[i] == res.regime.value
        assert alloc.distances[i] == pytest.approx(res.d_opt, rel=REL)
