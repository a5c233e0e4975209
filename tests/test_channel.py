"""Link-budget primitives: losses, SNR, rate, and the absorption table."""

import math
import pickle

import numpy as np
import pytest

from tera_tc import channel
from tera_tc.channel import (
    AbsorptionTable,
    BandPlan,
    DomainError,
    Link,
    LinkParams,
    Subwindow,
    absorption_loss,
    bundled_absorption_table,
    channel_gain,
    floor_snr,
    inverse_gain,
    log_inverse_gain,
    noise_power,
    path_loss_db,
    rate,
    rate_distance_product,
    shannon_rate,
    snr,
    spreading_loss,
)
from conftest import make_params

C = 2.998e8

# Independent high-precision evaluations (mpmath, 40 digits) at c=2.998e8.
SPREADING_500GHZ_1M = 2.2766880096551661e-09
FIG3_SNR_10M = 1.9440818983493853  # f=500 GHz, W=1 GHz, 15 dBi, k=0.2, 10 dBm


class TestSpreadingLoss:
    def test_identity_frequency(self):
        # Choose f so that c/(4 pi f) = 1 m; the gain at 1 m is then 1.
        f = C / (4.0 * math.pi)
        assert spreading_loss(f, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_reference_value(self):
        assert spreading_loss(5e11, 1.0) == pytest.approx(SPREADING_500GHZ_1M, rel=1e-12)

    def test_inverse_square(self):
        assert spreading_loss(5e11, 10.0) == pytest.approx(
            spreading_loss(5e11, 1.0) / 100.0, rel=1e-12
        )

    def test_decreasing_in_f_and_d(self):
        assert spreading_loss(6e11, 1.0) < spreading_loss(5e11, 1.0)
        assert spreading_loss(5e11, 2.0) < spreading_loss(5e11, 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            spreading_loss(0.0, 1.0)
        with pytest.raises(DomainError):
            spreading_loss(5e11, 0.0)


class TestAbsorptionLoss:
    def test_zero_distance(self):
        assert absorption_loss(0.7, 0.0) == 1.0

    def test_exponential(self):
        assert absorption_loss(0.2, 10.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_absorption_free(self):
        assert absorption_loss(0.0, 35.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            absorption_loss(-0.1, 1.0)
        with pytest.raises(DomainError):
            absorption_loss(0.1, -1.0)


class TestChannelGain:
    def test_unit_gains_no_absorption(self):
        params = make_params(gt_linear=1.0, gr_linear=1.0)
        link = Link(frequency=5e11, k_abs=0.0, distance=3.0, power=1.0, bandwidth=1e9)
        assert channel_gain(link, params) == pytest.approx(
            float(spreading_loss(5e11, 3.0)), rel=1e-12
        )

    def test_composition(self, params):
        link = Link(frequency=5e11, k_abs=0.2, distance=1.0, power=1.0, bandwidth=1e9)
        expected = SPREADING_500GHZ_1M * math.exp(-0.2) * 1e3
        assert channel_gain(link, params) == pytest.approx(expected, rel=1e-12)

    def test_double_distance(self, params):
        near = Link(frequency=5e11, k_abs=0.0, distance=2.0, power=1.0, bandwidth=1e9)
        far = Link(frequency=5e11, k_abs=0.0, distance=4.0, power=1.0, bandwidth=1e9)
        assert channel_gain(far, params) == pytest.approx(
            channel_gain(near, params) / 4.0, rel=1e-12
        )


class TestPathLoss:
    def test_zero_db(self):
        params = make_params(gt_linear=1.0, gr_linear=1.0)
        f = C / (4.0 * math.pi)
        link = Link(frequency=f, k_abs=0.0, distance=1.0, power=1.0, bandwidth=1e9)
        assert path_loss_db(link, params) == pytest.approx(0.0, abs=1e-9)

    def test_log_identity(self, params):
        # channel_gain = 1e-9 corresponds to exactly 90 dB loss.
        assert -10.0 * np.log10(1e-9) == pytest.approx(90.0, abs=1e-12)
        link = Link(frequency=5e11, k_abs=0.2, distance=1.0, power=1.0, bandwidth=1e9)
        g = channel_gain(link, params)
        assert path_loss_db(link, params) == pytest.approx(-10.0 * math.log10(g), rel=1e-12)

    def test_absorption_peak_dominates(self, params):
        table = bundled_absorption_table()
        peak = Link(5.55e11, table.lookup(5.55e11), 10.0, 1.0, 1e9)
        off = Link(5.0e11, table.lookup(5.0e11), 10.0, 1.0, 1e9)
        assert path_loss_db(peak, params) > path_loss_db(off, params)


class TestSnrRate:
    def test_zero_power(self, params):
        link = Link(5e11, 0.2, 10.0, 0.0, 1e9)
        assert snr(link, params) == 0.0
        assert rate(link, params) == 0.0

    def test_linearity_in_power(self, params):
        one = Link(5e11, 0.2, 10.0, 0.005, 1e9)
        two = Link(5e11, 0.2, 10.0, 0.010, 1e9)
        assert snr(two, params) == pytest.approx(2.0 * snr(one, params), rel=1e-12)

    def test_reference_snr(self, params):
        link = Link(5e11, 0.2, 10.0, params.p_total, 1e9)
        assert snr(link, params) == pytest.approx(FIG3_SNR_10M, rel=1e-12)

    def test_rate_values(self, params):
        # snr=3 at W=1 GHz gives 2 Gbps; snr=1 at W=20 GHz gives 20 Gbps.
        link = Link(5e11, 0.0, 1.0, 1.0, 1e9)
        g = channel_gain(link, params)
        p3 = 3.0 * noise_power(1e9, params) / g
        assert rate(Link(5e11, 0.0, 1.0, p3, 1e9), params) == pytest.approx(2e9, rel=1e-9)
        g20 = channel_gain(Link(5e11, 0.0, 1.0, 1.0, 20e9), params)
        p1 = noise_power(20e9, params) / g20
        assert rate(Link(5e11, 0.0, 1.0, p1, 20e9), params) == pytest.approx(20e9, rel=1e-9)

    def test_rate_monotone_in_d_and_kabs(self, params):
        d = np.linspace(1.0, 30.0, 50)
        r = rate(Link(5e11, 0.2, d, 0.01, 1e9), params)
        assert np.all(np.diff(r) < 0)
        k = np.linspace(0.0, 1.0, 50)
        r = rate(Link(5e11, k, 10.0, 0.01, 1e9), params)
        assert np.all(np.diff(r) < 0)

    def test_rate_scales_with_bandwidth_at_fixed_snr(self, params):
        # Hold SNR fixed by scaling power with W: rate is then linear in W.
        g = channel_gain(Link(5e11, 0.2, 10.0, 1.0, 1e9), params)
        p = 2.0 * noise_power(1e9, params) / g
        r1 = rate(Link(5e11, 0.2, 10.0, p, 1e9), params)
        r2 = rate(Link(5e11, 0.2, 10.0, 2.0 * p, 2e9), params)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


class TestRateFormulas:
    """`shannon_rate` and `floor_snr` are the only copies of W log2(1 + snr)
    and 2^(r/W) - 1; each must give the bits of the expression it replaced."""

    LN2 = math.log(2.0)

    @pytest.mark.parametrize("bandwidth", [1.0, 1e9, 3.7e10])
    def test_bitwise_equal_to_inline_expressions(self, rng, bandwidth):
        snr_ = 10.0 ** rng.uniform(-12, 12, 10_000)
        assert np.array_equal(shannon_rate(snr_, bandwidth), bandwidth * np.log1p(snr_) / self.LN2)
        r = rng.uniform(1e-6, 40.0, 10_000) * bandwidth
        assert np.array_equal(floor_snr(r, bandwidth), np.expm1(r / bandwidth * self.LN2))

    def test_spectral_efficiency_sites_keep_their_bits(self, rng):
        xi = 10.0 ** rng.uniform(-12, 12, 10_000)
        assert np.array_equal(shannon_rate(xi, 1.0), np.log1p(xi) / self.LN2)

    def test_round_trip(self, rng):
        bandwidth = 1e9
        r = rng.uniform(1e-3, 40.0, 1000) * bandwidth
        assert np.allclose(shannon_rate(floor_snr(r, bandwidth), bandwidth), r, rtol=1e-12, atol=0)
        snr_ = 10.0 ** rng.uniform(-6, 6, 1000)
        assert np.allclose(floor_snr(shannon_rate(snr_, bandwidth), bandwidth), snr_, rtol=1e-9, atol=0)

    def test_rate_uses_shannon_rate(self, params):
        link = Link(5e11, 0.2, 10.0, 0.01, 1e9)
        assert rate(link, params) == shannon_rate(snr(link, params), 1e9)


class TestRateDistanceProduct:
    def test_zero_rate(self, params):
        assert rate_distance_product(Link(5e11, 0.2, 10.0, 0.0, 1e9), params) == 0.0

    def test_product_definition(self, params):
        link = Link(5e11, 0.2, 2.0, 0.01, 1e9)
        assert rate_distance_product(link, params) == pytest.approx(
            2.0 * rate(link, params), rel=1e-12
        )

    def test_unimodal_on_grid(self, params):
        d = np.logspace(-2, 3, 2000)
        t = rate_distance_product(Link(5e11, 0.2, d, params.p_total, 1e9), params)
        peak = int(np.argmax(t))
        assert 0 < peak < len(d) - 1
        assert np.all(np.diff(t[: peak + 1]) > 0)
        # Decreasing past the peak, up to float jitter near underflow.
        tail = np.diff(t[peak:])
        assert np.all(tail <= 1e-12 * t[peak])
        assert np.all(tail[t[peak:-1] > 1e-6 * t[peak]] < 0)


class TestInverseGain:
    def test_matches_direct_computation(self, params):
        link = Link(5e11, 0.2, 10.0, 1.0, 1e9)
        expected = noise_power(1e9, params) / channel_gain(link, params)
        got = inverse_gain(5e11, 0.2, 10.0, 1e9, params)
        assert got == pytest.approx(float(expected), rel=1e-12)

    def test_overflow_becomes_inf(self, params):
        # k_abs * d in the thousands: the linear value overflows, the log
        # form stays finite and the inverse gain reports +inf.
        assert np.isinf(inverse_gain(5.55e11, 2.0, 500.0, 1e9, params))
        assert np.isfinite(log_inverse_gain(5.55e11, 2.0, 500.0, 1e9, params))


class TestValidation:
    def test_link_params_positive(self):
        with pytest.raises(DomainError):
            LinkParams(gt_linear=0.0, gr_linear=1.0, n0=1e-21, p_total=1.0)
        with pytest.raises(DomainError):
            LinkParams(gt_linear=1.0, gr_linear=1.0, n0=1e-21, p_total=0.0)

    @pytest.mark.parametrize("name", ["gt_linear", "gr_linear", "n0", "p_total", "c"])
    def test_link_params_infinite_rejected(self, name):
        fields = dict(gt_linear=1.0, gr_linear=1.0, n0=1e-21, p_total=1.0, c=3e8)
        fields[name] = math.inf
        with pytest.raises(DomainError, match=f"LinkParams.{name} must be finite") as err:
            LinkParams(**fields)
        assert err.value.field == name

    def test_band_plan_ordering(self):
        with pytest.raises(DomainError):
            BandPlan((Subwindow(6e11, 1e9, 0.1), Subwindow(5e11, 1e9, 0.1)))
        with pytest.raises(DomainError):
            BandPlan((Subwindow(5e11, 1e9, 0.1), Subwindow(6e11, 2e9, 0.1)))
        with pytest.raises(DomainError):
            BandPlan((Subwindow(5e11, 1e9, -0.1),))
        with pytest.raises(DomainError):
            BandPlan(())

    def test_band_plan_properties(self):
        band = BandPlan((Subwindow(5e11, 1e9, 0.1), Subwindow(5.01e11, 1e9, 0.2)))
        assert band.n == 2
        assert band.bandwidth == 1e9
        assert np.array_equal(band.k_abs, [0.1, 0.2])

    @pytest.mark.parametrize("name", ["frequencies", "k_abs"])
    def test_band_plan_arrays_built_once_and_read_only(self, name):
        band = BandPlan((Subwindow(5e11, 1e9, 0.1), Subwindow(5.01e11, 1e9, 0.2)))
        first = getattr(band, name)
        assert getattr(band, name) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        copy = pickle.loads(pickle.dumps(band))
        assert copy == band
        assert not getattr(copy, name).flags.writeable


class TestAbsorptionTable:
    def test_interpolation(self):
        table = AbsorptionTable(np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.3, 0.5]))
        assert table.lookup(1.5) == pytest.approx(0.2, rel=1e-12)
        assert table.lookup(3.0) == pytest.approx(0.5, rel=1e-12)

    def test_out_of_range_rejected(self):
        table = AbsorptionTable(np.array([1.0, 2.0]), np.array([0.1, 0.3]))
        with pytest.raises(DomainError):
            table.lookup(0.5)
        with pytest.raises(DomainError):
            table.lookup(2.5)

    def test_from_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("frequency_hz,k_abs_per_m\n1e9,0.1\n2e9,0.2\n")
        table = AbsorptionTable.from_csv(path)
        assert table.lookup(1.5e9) == pytest.approx(0.15, rel=1e-12)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("freq,k\n1e9,0.1\n2e9,0.2\n")
        with pytest.raises(DomainError, match="header"):
            AbsorptionTable.from_csv(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("frequency_hz,k_abs_per_m\n1e9,0.1\n2e9,oops\n")
        with pytest.raises(DomainError, match=":3"):
            AbsorptionTable.from_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("frequency_hz,k_abs_per_m\n1e9,0.1,9\n")
        with pytest.raises(DomainError, match="2 columns"):
            AbsorptionTable.from_csv(path)

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            AbsorptionTable(np.array([2.0, 1.0]), np.array([0.1, 0.3]))

    @pytest.mark.parametrize(
        "freqs, ks",
        [
            ([4.9e11, math.nan, 6.1e11], [0.1, 0.2, 0.3]),
            ([4.9e11, 5.5e11, 6.1e11], [0.1, math.nan, 0.3]),
            ([4.9e11, 5.5e11, math.inf], [0.1, 0.2, 0.3]),
            ([4.9e11, 5.5e11, 6.1e11], [0.1, math.inf, 0.3]),
        ],
        ids=["nan_frequency", "nan_k_abs", "inf_frequency", "inf_k_abs"],
    )
    def test_non_finite_values_rejected(self, freqs, ks):
        with pytest.raises(DomainError, match="finite"):
            AbsorptionTable(np.array(freqs), np.array(ks))

    @pytest.mark.parametrize("row", ["5.5e11,nan", "nan,0.2", "inf,0.2"])
    def test_from_csv_rejects_non_finite_values(self, tmp_path, row):
        path = tmp_path / "table.csv"
        path.write_text(f"frequency_hz,k_abs_per_m\n4.9e11,0.1\n{row}\n6.1e11,0.3\n")
        with pytest.raises(DomainError, match="finite"):
            AbsorptionTable.from_csv(path)

    def test_bundled_table_shape(self):
        table = bundled_absorption_table()
        assert table.frequencies[0] <= 5.0e11
        assert table.frequencies[-1] >= 6.0e11
        # Gaussian peak at 555 GHz over a flat baseline.
        peak_f = table.frequencies[int(np.argmax(table.k_abs))]
        assert abs(peak_f - 5.55e11) < 1e9
        assert table.k_abs.max() > 5 * np.median(table.k_abs)


@pytest.mark.parametrize(
    "sub",
    [
        (math.nan, 1e9, 0.1),
        (5e11, 1e9, math.nan),
        (5e11, math.inf, 0.1),
        (5e11, 1e9, math.inf),
    ],
    ids=["nan_frequency", "nan_k_abs", "inf_bandwidth", "inf_k_abs"],
)
def test_band_plan_rejects_non_finite(sub):
    with pytest.raises(DomainError, match="finite"):
        BandPlan((Subwindow(*sub),))


def _plain_log_inverse_gain(frequency, k_abs, distance, bandwidth, params):
    """`log_inverse_gain` as one out-of-place expression: the reference its
    in-place form must match bit for bit."""
    frequency = np.asarray(frequency, dtype=float)
    distance = np.asarray(distance, dtype=float)
    k_abs = np.asarray(k_abs, dtype=float)
    sigma2 = params.n0 * np.asarray(bandwidth, dtype=float)
    return (
        np.log(sigma2 / (params.gt_linear * params.gr_linear))
        + k_abs * distance
        + 2.0 * np.log(4.0 * np.pi * frequency * distance / params.c)
    )


def _read_only_copy(x):
    out = np.array(x, dtype=float)
    out.flags.writeable = False
    return out


_RNG = np.random.default_rng(2024)
_F_BAND = np.linspace(5.005e11, 5.995e11, 37)
_K_BAND = np.concatenate([_RNG.uniform(0.0, 3.0, 36), [0.0]])


@pytest.mark.parametrize(
    "f, k, d",
    [
        (_F_BAND, _K_BAND, _RNG.uniform(1e-3, 400.0, (29, 1))),
        (_F_BAND, _K_BAND, _RNG.uniform(1e-3, 400.0, (4, 29, 1))),
        (_F_BAND[:29], _K_BAND[:29], _RNG.uniform(1e-3, 400.0, 29)),
        (_F_BAND[:29], 0.0, 1.0),
        (5.55e11, 0.7, 12.5),
        (5.55e11, 0.0, 3.0),
        (5.55e11, _K_BAND, 250.0),
    ],
    ids=["NxK1", "TxKx1", "K", "k0_scalar", "scalar", "k0_all_scalar", "k_only_array"],
)
def test_log_inverse_gain_bit_identical_to_plain_expression(f, k, d):
    """Same bits, shape and type (np.float64 for scalars) as the plain
    expression, from plain and from read-only inputs, which stay unchanged."""
    params = make_params(20.0)
    plain = log_inverse_gain(f, k, d, 1e9, params)
    inputs = [_read_only_copy(x) for x in (f, k, d)]
    before = [x.copy() for x in inputs]
    got = log_inverse_gain(*inputs, 1e9, params)
    want = _plain_log_inverse_gain(f, k, d, 1e9, params)
    for out in (got, plain):
        assert type(out) is type(want)
        assert np.shape(out) == np.shape(want)
        assert np.array_equal(out, want)
    for x, x0 in zip(inputs, before):
        assert np.array_equal(x, x0)



@pytest.mark.parametrize(
    "block, f, k, d",
    [
        (100, _F_BAND, _K_BAND, _RNG.uniform(1e-3, 400.0, (29, 1))),
        (100, _F_BAND, _K_BAND, _RNG.uniform(1e-3, 400.0, (4, 29, 1))),
        (10, _F_BAND, _K_BAND, _RNG.uniform(1e-3, 400.0, (29, 1))),
        (100, _F_BAND, _RNG.uniform(0.0, 3.0, (3, 1, 37)), _RNG.uniform(1e-3, 400.0, (3, 29, 1))),
        (100, _F_BAND, 0.0, _RNG.uniform(1e-3, 400.0, (29, 1))),
    ],
    ids=["KxN", "TxKxN", "row_per_block", "k_per_trial", "k0"],
)
def test_log_inverse_gain_blocks_bit_identical_to_plain_expression(monkeypatch, block, f, k, d):
    """The absorption term is added in blocks of rows. A block of 100
    elements holds two rows of 37 subwindows, so 29 devices span 15 blocks
    and end on a ragged one; a block of 10 holds one row. Every case still
    gives the plain expression's bits."""
    monkeypatch.setattr(channel, "_BLOCK", block)
    params = make_params(20.0)
    inputs = [_read_only_copy(x) for x in (f, k, d)]
    got = log_inverse_gain(*inputs, 1e9, params)
    want = _plain_log_inverse_gain(f, k, d, 1e9, params)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    for x, x0 in zip(inputs, (f, k, d)):
        assert np.array_equal(x, x0)
