"""The inner iteration's kernels keep their semantics in their lean form:
`log_inverse_gain`'s 1-D path and domain checks, `solve_stationarity_snr`
on edge shapes, one stationary solve per iterate, the plain loop's bits, the
bundled absorption table parsed once, and a package import that loads
neither scipy's package nor `multiprocessing`."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tera_tc import assignment
from tera_tc import distance_power as dp
from tera_tc.channel import (
    AbsorptionTable,
    DomainError,
    bundled_absorption_table,
    floor_snr,
    log_inverse_gain,
    shannon_rate,
)
from tera_tc.distance_power import (
    Regime,
    SolverConfig,
    iterate_power_distance,
    solve_stationarity_snr,
    thm1_distance_update,
)
from tera_tc.scenario import uniform_band
from radio_params import make_params


def _read_only_copy(x):
    out = np.array(x, dtype=float)
    out.flags.writeable = False
    return out


def _device_triples():
    """(f, k, d) arrays of one length from 1 to 40; any element may be NaN."""

    def column(size, lo, hi):
        return arrays(np.float64, size, elements=st.floats(lo, hi) | st.just(math.nan))

    return st.integers(1, 40).flatmap(
        lambda size: st.tuples(column(size, 1e9, 1e13), column(size, 0.0, 50.0), column(size, 1e-3, 1e3))
    )


@settings(max_examples=80, deadline=None)
@given(_device_triples(), st.floats(1e6, 1e10))
def test_log_inverse_gain_1d_path_matches_broadcast_path(fkd, bandwidth):
    """Equal-shape 1-D inputs skip the broadcast; they give the bits of
    row 0 of the same values passed as 1 x K arrays, NaN where an input
    is NaN, and leave read-only inputs unchanged."""
    params = make_params(20.0)
    inputs = [_read_only_copy(x) for x in fkd]
    got = log_inverse_gain(*inputs, bandwidth, params)
    want = log_inverse_gain(*(x[None] for x in inputs), bandwidth, params)[0]
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.isnan(got), np.any(np.isnan(fkd), axis=0))
    for x, x0 in zip(inputs, fkd):
        assert np.array_equal(x, x0, equal_nan=True)


@pytest.mark.parametrize(
    "f, k, d",
    [
        ([5e11, 0.0], [0.1, 0.1], [1.0, 1.0]),
        ([math.nan, -5e11], [0.1, 0.1], [1.0, 1.0]),
        ([5e11, 5e11], [0.1, 0.1], [math.nan, 0.0]),
        ([5e11, 5e11], [0.1, 0.1], [1.0, -0.0]),
        ([5e11, 5e11], [0.1, 0.1], [-2.0, math.nan]),
        ([5e11, 5e11], [math.nan, -1e-9], [1.0, 1.0]),
        (5e11, -0.5, 1.0),
        (5e11, 0.1, [[1.0], [0.0]]),
    ],
    ids=["f_zero", "f_negative_after_nan", "d_zero_after_nan", "d_negative_zero",
         "d_negative", "k_negative_after_nan", "k_negative_scalar", "d_zero_column"],
)
def test_log_inverse_gain_rejects_out_of_domain(f, k, d):
    """f <= 0, d <= 0 and k_abs < 0 raise DomainError, a NaN elsewhere in
    the same input notwithstanding."""
    with pytest.raises(DomainError, match="log_inverse_gain requires"):
        log_inverse_gain(f, k, d, 1e9, make_params(20.0))


def test_log_inverse_gain_nan_passes_through():
    params = make_params(20.0)
    got = log_inverse_gain([math.nan, 5e11, 5e11], [0.1, math.nan, 0.1], [1.0, 1.0, math.nan], 1e9, params)
    assert got.shape == (3,) and np.isnan(got).all()
    assert math.isnan(log_inverse_gain(math.nan, 0.1, 1.0, 1e9, params))


@pytest.mark.parametrize(
    "f, k, d, shape",
    [
        (np.empty(0), np.empty(0), np.empty(0), (0,)),
        (np.empty(0), 0.1, 1.0, (0,)),
        (5e11, 0.1, np.empty((0, 1)), (0, 1)),
        (np.full(3, 5e11), 0.1, np.empty((0, 1)), (0, 3)),
    ],
    ids=["all_empty", "f_empty", "d_empty_column", "kxn_no_devices"],
)
def test_log_inverse_gain_empty_inputs(f, k, d, shape):
    got = log_inverse_gain(f, k, d, 1e9, make_params(20.0))
    assert isinstance(got, np.ndarray) and got.shape == shape and got.dtype == float


def test_log_inverse_gain_0d_inputs_give_float64():
    params = make_params(20.0)
    got = log_inverse_gain(np.asarray(5e11), np.asarray(0.1), np.asarray(2.0), 1e9, params)
    assert type(got) is np.float64
    assert got == log_inverse_gain(np.array([5e11]), np.array([0.1]), np.array([2.0]), 1e9, params)[0]


@pytest.mark.parametrize("shape", [(0,), (0, 3)])
def test_stationarity_snr_empty_array(shape):
    got = solve_stationarity_snr(np.empty(shape))
    assert isinstance(got, np.ndarray) and got.shape == shape and got.dtype == float


def test_one_stationary_solve_per_iterate(monkeypatch):
    """Through the module global: one stationary solve per iteration plus
    the rate-floor repair's, with a floor that binds from the start."""
    calls = []
    real = dp.solve_stationarity_snr

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dp, "solve_stationarity_snr", counting)
    f = np.array([5e11, 5.3e11, 5.8e11])
    state = iterate_power_distance(f, np.array([0.05, 0.3, 0.08]), np.array([0.0, 6e9, 0.0]), 1e9,
                                   make_params(10.0))
    assert state.iterations > 1
    assert state.regimes[1] is Regime.DISTANCE_MAXIMIZED
    assert state.rates[1] == 6e9
    assert len(calls) == state.iterations + 1


def _plain_iterate(f, k, req, bandwidth, params, config, d0):
    """The inner loop as plain out-of-place expressions, every selection
    taken and log2(1+xi) taken wherever a formula uses it: the reference
    the lean loop must match bit for bit. No case below reaches the
    overflow fallbacks, which it leaves out."""
    d = np.array(d0, dtype=float)
    xi_req = np.exp(np.where(req > 0, np.log(floor_snr(np.maximum(req, 1e-300), bandwidth)), -np.inf))
    log_g = log_inverse_gain(f, k, d, bandwidth, params)
    history = []
    for it in range(1, config.max_inner + 1):
        xi_tilde = solve_stationarity_snr(k * d)
        xi = np.where(req > bandwidth * shannon_rate(xi_tilde, 1.0), xi_req, xi_tilde)
        log_c = np.log(xi) + log_g - 2.0 * np.log(d)
        log_num = np.log(shannon_rate(xi, 1.0)) - math.log(2.0)
        nu = math.sqrt(np.exp(2.0 * log_num - log_c).sum() / params.p_total)
        d = config.alpha * d + (1.0 - config.alpha) * np.exp(log_num - log_c - math.log(nu))
        log_p = log_c + 2.0 * np.log(d)
        total = np.exp(log_p).sum()
        if total > params.p_total:
            log_p += math.log(params.p_total / total)
        log_g = log_inverse_gain(f, k, d, bandwidth, params)
        snrs = np.exp(log_p - log_g)
        rates = shannon_rate(snrs, bandwidth)
        history.append(float((d * rates).sum()))
        if it > 1 and abs(history[-1] - history[-2]) <= config.eps * max(1.0, abs(history[-1])):
            break
    d, p, snrs, rates, pinned = dp._enforce_rate_floors(
        d, np.exp(log_p), snrs, rates, f, k, req, bandwidth, params, config.d_min
    )
    return d, p, snrs, rates, pinned, it, history


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("floors_bps_per_hz", [(0.0, 0.0), (0.5, 1.5), (1.5, 4.5)], ids=["none", "low", "binding"])
def test_iterate_power_distance_matches_plain_loop(seed, floors_bps_per_hz):
    """Every output bit of the lean loop is the plain loop's, with no floor,
    low floors and floors that bind during the iterations."""
    rng = np.random.default_rng(seed)
    band = uniform_band(5e11, 6e11, 40, bundled_absorption_table())
    n = 30
    sub = rng.permutation(band.n)[:n]
    f, k = band.frequencies[sub], band.k_abs[sub]
    req = rng.uniform(*floors_bps_per_hz, n) * band.bandwidth
    params = make_params(float(rng.uniform(20.0, 40.0)))
    d0 = rng.uniform(1.0, 30.0, n)
    config = SolverConfig()
    state = iterate_power_distance(f, k, req, band.bandwidth, params, config, d0=d0)
    d, p, snrs, rates, pinned, it, history = _plain_iterate(f, k, req, band.bandwidth, params, config, d0)
    for got, want in ((state.distances, d), (state.powers, p), (state.snrs, snrs), (state.rates, rates)):
        assert np.array_equal(got, want)
    assert state.iterations == it and state.tc_history == history
    assert state.regimes == [Regime.DISTANCE_MAXIMIZED if x else Regime.TC_MAXIMIZED for x in pinned]
    if floors_bps_per_hz[0] == 1.5:
        assert pinned.any()


def test_thm1_distances_scale_with_spectral_efficiency(params):
    """d_hat_k = log2(1+xi_k) / (2 nu c_k): the same nu for every device."""
    d = np.array([3.0, 8.0, 15.0])
    xi = np.array([5.0, 12.0, 2.0])
    f = np.array([5e11, 5.2e11, 5.9e11])
    k = np.array([0.1, 0.4, 0.05])
    d_hat, nu = thm1_distance_update(d, xi, f, k, 1e9, params)
    c_coef = np.exp(np.log(xi) + log_inverse_gain(f, k, d, 1e9, params) - 2.0 * np.log(d))
    np.testing.assert_allclose(d_hat * 2.0 * nu * c_coef, np.log2(1.0 + xi), rtol=1e-12)
    d_hat_2, _ = thm1_distance_update(d, xi, f, k, 1e9, params, nu=1.0)
    np.testing.assert_allclose(d_hat_2 * 2.0 * c_coef, np.log2(1.0 + xi), rtol=1e-12)


def test_bundled_table_parsed_once_and_read_only():
    table = bundled_absorption_table()
    assert bundled_absorption_table() is table
    for values in (table.frequencies, table.k_abs):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0


def test_table_from_user_arrays_leaves_them_writeable():
    f, k = np.array([5e11, 6e11]), np.array([0.1, 0.2])
    table = AbsorptionTable(f, k)
    assert f.flags.writeable and k.flags.writeable
    assert table.lookup(5.5e11) == pytest.approx(0.15)


def test_uniform_band_lookup_matches_per_subwindow_lookup():
    """One vectorized lookup gives each subwindow the bits of its own."""
    table = bundled_absorption_table()
    band = uniform_band(4.96e11, 6.04e11, 1000, table)
    assert np.array_equal(band.k_abs, [table.lookup(f) for f in band.frequencies.tolist()])


def test_import_loads_no_scipy_package_or_multiprocessing():
    """With scipy's LSAP extension found as a file, a fresh interpreter
    importing the package, its CLI and its experiment drivers runs neither
    `scipy/__init__.py` nor imports `multiprocessing`: the process pool is
    imported only when an experiment asks for workers."""
    assert assignment._lsap_file() is not None
    src = os.path.dirname(os.path.dirname(assignment.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, tera_tc, tera_tc.cli, tera_tc.experiments; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing') "
        "or m == 'concurrent.futures.process'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
