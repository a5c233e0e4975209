"""THz line-of-sight link budget.

Pure functions for the long-term channel power gain (spreading loss times
molecular absorption), SNR, the per-device rate-distance product that the
allocation strategies maximize, and the only copies of the Shannon rate
W log2(1 + SNR) and of its inverse, the SNR a rate floor needs
(`shannon_rate`, `floor_snr`; W = 1 for spectral efficiencies).

All quantities are linear (W, W/Hz, dimensionless gains); convert dB inputs
with :mod:`tera_tc.units` before constructing these types.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources

import numpy as np

#: Default propagation speed in free space, m/s.
C_VACUUM = 2.998e8

#: Distances below this are treated as invalid for loss/rate evaluation;
#: the spreading loss diverges as d -> 0, so callers clamp to this floor.
D_MIN = 1e-3

#: ln 2, the factor between natural-log and log2 rates.
LN2 = math.log(2.0)

#: Guard for exp() overflow when building inverse channel gains; beyond
#: this absorption exponent the gain is treated as exactly zero.
_LOG_HUGE = 700.0

#: Elements per block in which `log_inverse_gain` adds the absorption term
#: of a 2-D or larger link budget (128 kB of float64).
_BLOCK = 16_384


class DomainError(ValueError):
    """An input is outside the physical domain of a channel function;
    `field` names the offending attribute where there is one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class LinkParams:
    """Shared radio constants for all links in a network.

    gt_linear/gr_linear: antenna gains (dimensionless, not dBi)
    n0: noise power spectral density in W/Hz
    p_total: total transmit power budget in W
    c: propagation speed in m/s
    """

    gt_linear: float
    gr_linear: float
    n0: float
    p_total: float
    c: float = C_VACUUM

    def __post_init__(self):
        for name in ("gt_linear", "gr_linear", "n0", "p_total", "c"):
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"LinkParams.{name} must be finite and > 0", name)


@dataclass(frozen=True)
class Subwindow:
    """One OFDM subwindow: center frequency (Hz), bandwidth (Hz),
    molecular absorption coefficient (1/m)."""

    frequency: float
    bandwidth: float
    k_abs: float

    def __post_init__(self):
        for name in ("frequency", "bandwidth", "k_abs"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"subwindow {name} must be finite", name)


def _read_only(values) -> np.ndarray:
    out = np.array(values)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class BandPlan:
    """Ordered subwindows with strictly increasing center frequencies and a
    common bandwidth; each `Subwindow` has already rejected non-finite values.

    `frequencies` and `k_abs` are built once and returned read-only.
    """

    subwindows: tuple[Subwindow, ...]

    def __post_init__(self):
        if not self.subwindows:
            raise DomainError("BandPlan needs at least one subwindow")
        f = self.frequencies
        w = np.array([s.bandwidth for s in self.subwindows])
        k = self.k_abs
        if np.any(f <= 0) or np.any(np.diff(f) <= 0):
            raise DomainError("subwindow frequencies must be positive and strictly increasing", "frequency")
        if np.any(w <= 0) or not np.allclose(w, w[0], rtol=1e-12, atol=0.0):
            raise DomainError("subwindow bandwidths must be positive and identical", "bandwidth")
        if np.any(k < 0):
            raise DomainError("absorption coefficients must be >= 0", "k_abs")

    @property
    def n(self) -> int:
        return len(self.subwindows)

    @cached_property
    def frequencies(self) -> np.ndarray:
        return _read_only([s.frequency for s in self.subwindows])

    @cached_property
    def k_abs(self) -> np.ndarray:
        return _read_only([s.k_abs for s in self.subwindows])

    def __getstate__(self):
        # Unpickled arrays are writeable, so the cached ones stay behind
        # and are rebuilt on first use.
        return {"subwindows": self.subwindows}

    @property
    def bandwidth(self) -> float:
        return self.subwindows[0].bandwidth


@dataclass(frozen=True)
class Link:
    """A single transmitter-device link on one subwindow."""

    frequency: float
    k_abs: float
    distance: float
    power: float
    bandwidth: float


def spreading_loss(frequency, distance, c: float = C_VACUUM):
    """Free-space spreading gain (c / (4 pi f d))^2, in (0, 1] for far-field d."""
    frequency = np.asarray(frequency, dtype=float)
    distance = np.asarray(distance, dtype=float)
    if np.any(frequency <= 0) or np.any(distance <= 0):
        raise DomainError("spreading_loss requires frequency > 0 and distance > 0")
    return (c / (4.0 * np.pi * frequency * distance)) ** 2


def absorption_loss(k_abs, distance):
    """Molecular absorption gain exp(-k_abs * d), in (0, 1]."""
    k_abs = np.asarray(k_abs, dtype=float)
    distance = np.asarray(distance, dtype=float)
    if np.any(k_abs < 0) or np.any(distance < 0):
        raise DomainError("absorption_loss requires k_abs >= 0 and distance >= 0")
    return np.exp(-k_abs * distance)


def channel_gain(link: Link, params: LinkParams):
    """Long-term channel power gain Gt*Gr*spreading*absorption."""
    return (
        params.gt_linear
        * params.gr_linear
        * spreading_loss(link.frequency, link.distance, params.c)
        * absorption_loss(link.k_abs, link.distance)
    )


def path_loss_db(link: Link, params: LinkParams):
    """Path loss in dB, -10*log10 of the channel power gain."""
    return -10.0 * np.log10(channel_gain(link, params))


def noise_power(bandwidth, params: LinkParams):
    """Noise power per subwindow, sigma^2 = N0 * W, in W."""
    return params.n0 * np.asarray(bandwidth, dtype=float)


def snr(link: Link, params: LinkParams):
    """Received SNR p * |h|^2 / (N0 * W), dimensionless."""
    if np.any(np.asarray(link.power) < 0):
        raise DomainError("snr requires power >= 0")
    return link.power * channel_gain(link, params) / noise_power(link.bandwidth, params)


def shannon_rate(snr, bandwidth):
    """Shannon rate W log2(1 + snr), in bps for W in Hz; W = 1 gives the
    spectral efficiency in bps/Hz."""
    return bandwidth * np.log1p(snr) / LN2


def floor_snr(rate, bandwidth):
    """The SNR 2^(rate/W) - 1 at which `shannon_rate` equals `rate`."""
    return np.expm1(rate / bandwidth * LN2)


def rate(link: Link, params: LinkParams):
    """Shannon rate W * log2(1 + SNR) of the link, in bps."""
    return shannon_rate(snr(link, params), link.bandwidth)


def rate_distance_product(link: Link, params: LinkParams):
    """Per-device transport-capacity contribution d * rate, in m*bps."""
    return link.distance * rate(link, params)


def _nanmin(x: np.ndarray) -> float:
    """The smallest non-NaN element of x; +inf when there is none, so that
    `_nanmin(x) <= 0` is exactly `(x <= 0).any()`."""
    return np.fmin.reduce(x, axis=None, initial=math.inf)


def log_inverse_gain(frequency, k_abs, distance, bandwidth, params: LinkParams):
    """Natural log of the effective inverse gain
    sigma^2 * e^{k_abs d} * (4 pi f d / c)^2 / (Gt Gr), in log-W.

    Computed in log space so that devices deep inside an absorption peak
    (k_abs * d of hundreds) do not overflow.

    The value is (ln(sigma^2/(Gt Gr)) + k_abs d) + 2 ln(4 pi f d / c). One
    array of the broadcast shape (K x N for K x 1 distances) is allocated
    and the spreading term is built in it. For a 2-D or larger shape the
    absorption term is then added in blocks of rows of about `_BLOCK`
    elements, so one array of the broadcast shape plus one block is alive
    at once; 0-d and 1-D shapes take the term whole. IEEE + and * commute,
    so the in-place form gives the same bits as the plain expression; the
    terms keep their grouping. The inputs are never written to; 0-d inputs
    give an np.float64.

    Nothing is kept between calls, and `distance_power.iterate_power_distance`
    calls it once per inner iteration with the same f and k_abs, so each
    call is lean: each input's domain check is one NaN-ignoring reduction
    (NaN passes, as it always has), and 1-D inputs of one shape, that
    loop's case, skip the broadcast and build the spreading term in the
    array of 4 pi f.
    """
    frequency = np.asarray(frequency, dtype=float)
    distance = np.asarray(distance, dtype=float)
    k_abs = np.asarray(k_abs, dtype=float)
    if _nanmin(frequency) <= 0 or _nanmin(distance) <= 0 or _nanmin(k_abs) < 0:
        raise DomainError("log_inverse_gain requires f > 0, d > 0, k_abs >= 0")
    sigma2 = noise_power(bandwidth, params)
    if frequency.ndim == 1 and frequency.shape == distance.shape == k_abs.shape:
        log_g = 4.0 * np.pi * frequency
        log_g *= distance
    else:
        shape = np.broadcast(frequency, k_abs, distance).shape
        log_g = np.multiply(4.0 * np.pi * frequency, distance, out=np.empty(shape))
    log_g /= params.c
    np.log(log_g, out=log_g)
    log_g *= 2.0
    log_c = np.log(sigma2 / (params.gt_linear * params.gr_linear))
    if log_g.ndim < 2:
        absorption = np.multiply(k_abs, distance)
        absorption += log_c
        log_g += absorption
        return log_g if log_g.ndim else log_g[()]
    k_abs, distance = np.broadcast_to(k_abs, shape), np.broadcast_to(distance, shape)
    rows = max(1, _BLOCK // shape[-1])
    for lead in np.ndindex(shape[:-2]):
        for r in range(0, shape[-2], rows):
            block = lead + (slice(r, r + rows),)
            absorption = np.multiply(k_abs[block], distance[block])
            absorption += log_c
            log_g[block] += absorption
    return log_g


def inverse_gain(frequency, k_abs, distance, bandwidth, params: LinkParams):
    """Effective inverse gain sigma^2 / |h|^2 in W; +inf where it overflows."""
    return exp_inverse_gain(log_inverse_gain(frequency, k_abs, distance, bandwidth, params))


def exp_inverse_gain(log_g):
    """The inverse gain in W from `log_inverse_gain`'s value; +inf where
    that value exceeds `_LOG_HUGE`."""
    return np.where(log_g > _LOG_HUGE, np.inf, np.exp(np.minimum(log_g, _LOG_HUGE)))


@dataclass(frozen=True)
class AbsorptionTable:
    """Molecular absorption coefficients K_abs(f) sampled on a frequency grid.

    Lookups use linear interpolation between bracketing rows and reject
    frequencies outside the table's range.
    """

    frequencies: np.ndarray
    k_abs: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        k = np.asarray(self.k_abs, dtype=float)
        if f.ndim != 1 or f.size < 2 or f.shape != k.shape:
            raise DomainError("absorption table needs matching 1-D frequency/k_abs columns")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(k))):
            raise DomainError("absorption table values must be finite")
        if np.any(f <= 0) or np.any(np.diff(f) <= 0):
            raise DomainError("absorption table frequencies must be positive and ascending")
        if np.any(k < 0):
            raise DomainError("absorption coefficients must be >= 0")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "k_abs", k)

    @classmethod
    def from_csv(cls, path) -> "AbsorptionTable":
        """Load a `frequency_hz,k_abs_per_m` CSV sorted ascending by frequency."""
        freqs, ks = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["frequency_hz", "k_abs_per_m"]:
                raise DomainError(f"{path}: expected header 'frequency_hz,k_abs_per_m'")
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise DomainError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
                try:
                    freqs.append(float(row[0]))
                    ks.append(float(row[1]))
                except ValueError as exc:
                    raise DomainError(f"{path}:{lineno}: non-numeric value: {exc}") from exc
        if len(freqs) < 2:
            raise DomainError(f"{path}: table needs at least 2 rows")
        return cls(np.array(freqs), np.array(ks))

    def lookup(self, frequency):
        """K_abs at the given frequency/frequencies (Hz), 1/m."""
        f = np.asarray(frequency, dtype=float)
        if np.any(f < self.frequencies[0]) or np.any(f > self.frequencies[-1]):
            raise DomainError(
                f"frequency outside table range "
                f"[{self.frequencies[0]:g}, {self.frequencies[-1]:g}] Hz"
            )
        out = np.interp(f, self.frequencies, self.k_abs)
        return float(out) if np.isscalar(frequency) else out


def bundled_absorption_table() -> AbsorptionTable:
    """The synthetic 495-605 GHz table shipped with the package.

    A flat ~0.05/m baseline with a Gaussian peak at 555 GHz; a stand-in for
    measured coefficients so that tests and demos are self-contained. The
    CSV is parsed once; every call returns that table, whose arrays are
    read-only so that no caller can change another's.
    """
    return _parse_bundled_table()


@cache
def _parse_bundled_table() -> AbsorptionTable:
    path = resources.files("tera_tc").joinpath("data/absorption_495_605ghz.csv")
    with resources.as_file(path) as p:
        table = AbsorptionTable.from_csv(p)
    return AbsorptionTable(_read_only(table.frequencies), _read_only(table.k_abs))
