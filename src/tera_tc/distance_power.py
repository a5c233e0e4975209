"""Joint power-distance optimization for variable-distance devices.

Implements the single-device optimality condition ln(1+xi)(1+xi)/xi =
2 + d*k_abs, the two operating regimes (rate floor slack vs. binding), the
maximum feasible distance for a given rate floor, the smoothed
distance-power fixed point of the proposed strategy (one link budget per
iterate), and the sum-distance KKT solve (`max_sum_distance`) with its
budget-dual root (`_budget_dual`), found by `brentq`, Brent's method
written out as scipy's `brentq.c` does it.

The stationary SNR and the maximum distance have closed forms in the
principal Lambert W and the Wright omega function (Corless et al., "On the
Lambert W function", Adv. Comput. Math. 5, 1996), evaluated by two private
kernels rather than `scipy.special`. `_lambert_w0` interpolates a start
value in a table of W0 over the only interval the stationarity condition
reaches, [-2 e^-2, 0], and takes one real Halley step; `_wright_omega`
transcribes the real path of Lawrence, Corless and Jeffrey's iteration
(ACM TOMS 917, 2012) as scipy's `wrightomega` takes it. Every link budget goes
through `channel.log_inverse_gain`, every rate through
`channel.shannon_rate` and every rate floor's SNR through
`channel.floor_snr`. `optimal_distance_pair`, `max_distance` and
`classify_regime` take a scalar or an array per device argument: scalars
give floats, arrays solve every device at once and give arrays.

Per-device arithmetic is done in log space where absorption exponents
could overflow; devices deep inside an absorption peak get very short
distances instead of NaNs.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .assignment import ENUM_CAP
from .channel import D_MIN, LN2, LinkParams, floor_snr, log_inverse_gain, shannon_rate


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance; `iterations` is the
    number of inner iterations that ran, where the inner loop raised it."""

    def __init__(self, message: str, iterations: int | None = None):
        super().__init__(message)
        self.iterations = iterations


class InfeasibleError(RuntimeError):
    """Rate requirements cannot be met; `devices` lists the offenders."""

    def __init__(self, message: str, devices=()):
        super().__init__(message)
        self.devices = tuple(int(i) for i in devices)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls for the fixed-point solver.

    eps is the stop tolerance on the change of total transport capacity per
    inner iteration; with eps_relative=True it is scaled by max(1, TC), since
    an absolute 1e-6 m*bps would never trigger at realistic TC magnitudes.
    Needs m_out, max_inner and enum_cap >= 1, 0 <= alpha < 1, finite
    d_init > 0, finite d_min > 0 and finite eps >= 0.

    Operating range: 20-60 dBm total power, 0.5-4 bps/Hz floors, K = N <=
    1000 over the default 500-600 GHz band. `proposed` does not converge
    over all of it yet: it raises `ConvergenceError` from about 55 dBm up
    (from 55.4 dBm with random floors at K = 100, and at 55 dBm at
    K = 1000), where the inner loop locks into a period-2 cycle.

    The inner loop stops such a cycle early. Once TC has alternated about
    a fixed level, |TC_t - TC_(t-2)| <= 1e-3 |TC_t - TC_(t-1)|, on 5
    iterations in a row, its step can shrink by at most a factor 1.001 per
    iteration; if the step exceeds the tolerance times 1.001^(max_inner -
    t), it cannot reach it before the cap, and `ConvergenceError` is raised
    at iteration t instead of at max_inner.
    """

    alpha: float = 0.7
    eps: float = 1e-6
    eps_relative: bool = True
    m_out: int = 5
    d_init: float = 10.0
    max_inner: int = 500
    d_min: float = D_MIN
    enum_cap: int = ENUM_CAP

    def __post_init__(self):
        if self.m_out < 1 or self.max_inner < 1 or self.enum_cap < 1:
            raise ValueError("m_out, max_inner and enum_cap must be >= 1")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must be in [0, 1)")
        for name in ("d_init", "d_min"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError("eps must be finite and >= 0")


class Regime(enum.Enum):
    TC_MAXIMIZED = "tc_maximized"
    DISTANCE_MAXIMIZED = "distance_maximized"


def _regimes(pinned) -> list[Regime]:
    return [Regime.DISTANCE_MAXIMIZED if flag else Regime.TC_MAXIMIZED for flag in pinned]


@dataclass(frozen=True)
class RegimeResult:
    """Per-device regime and operating point: floats for one device, arrays
    (and a tuple of `Regime`) for several."""

    regime: Regime | tuple[Regime, ...]
    d_opt: float | np.ndarray
    snr_opt: float | np.ndarray
    spectral_eff_opt: float | np.ndarray


def stationarity_lhs(xi):
    """ln(1+xi)(1+xi)/xi: strictly increasing on (0, inf), -> 1 as xi -> 0."""
    xi = np.asarray(xi, dtype=float)
    return np.log1p(xi) * (1.0 + xi) / xi


def _halley_w0_step(w, z):
    """The real Halley step for w e^w = z at w > -1 (Corless et al. 1996,
    section 5): f / (e^w (w+1) - (w+2) f / (2w+2)), f = w e^w - z.

    w + 1 is taken once (2w + 2 = 2 (w + 1) bit for bit, as doubling is
    exact) and the operations run in place on the step's own temporaries;
    augmented assignment rebinds where w is a numpy scalar."""
    ew = np.exp(w)
    f = w * ew
    f -= z
    wp1 = w + 1.0
    ew *= wp1
    correction = w + 2.0
    correction *= f
    correction /= 2.0 * wp1
    ew -= correction
    f /= ew
    return f


def _w0_table():
    """(z, W0(z)) at 2049 even steps over [-2 e^-2, 0]. Halley runs from
    ln(1+z), which lies below W0 there, for eight steps, more than it needs
    to reach rounding noise; then each node keeps whichever of w and its two
    neighbouring floats has the smallest residual |w e^w - z|."""
    z = np.linspace(-2.0 * math.exp(-2.0), 0.0, 2049)
    w = np.log1p(z)
    for _ in range(8):
        w -= _halley_w0_step(w, z)
    near = np.stack([np.nextafter(w, -np.inf), w, np.nextafter(w, np.inf)])
    best = np.abs(near * np.exp(near) - z).argmin(axis=0)
    return z, near[best, np.arange(z.size)]


_W0_Z, _W0_W = _w0_table()


def _lambert_w0(z):
    """Principal Lambert W for z in [-2 e^-2, 0], the arguments the
    stationarity condition gives, well away from the branch point -1/e.
    The start value, linear in the `_W0_Z`/`_W0_W` table, is within 4e-8;
    one Halley step, cubically convergent, leaves rounding error only."""
    w = np.interp(z, _W0_Z, _W0_W)
    w -= _halley_w0_step(w, z)
    return w


_EPS = sys.float_info.epsilon


def _wright_omega(x: float) -> float:
    """Wright omega of a real x: the w with w + ln w = x (w e^w = e^x).

    The real path of Lawrence, Corless and Jeffrey, "Algorithm 917: Complex
    double-precision evaluation of the Wright omega function", ACM TOMS
    38(3), 2012, operation for operation as scipy's `wrightomega` takes it,
    so it gives the same bits: omega(-inf) = 0, e^x below -50, x above 1e20,
    else one Fritsch-Shafer-Crowley step from a start value per interval
    and a second one where the condition estimate asks for it.
    """
    if math.isinf(x):
        return x if x > 0 else 0.0
    if x < -50.0:
        return math.exp(x)
    if x > 1e20:
        return x
    if x < -2.0:
        w = math.exp(x)
    elif x < 1.0:
        w = math.exp(2.0 * (x - 1.0) / 3.0)
    else:
        w = math.log(x)
        w = x - w + w / x
    for _ in range(2):
        r = x - w - math.log(w)
        wp1 = w + 1.0
        q = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
        w *= 1.0 + r / wp1 * (q - r) / (q - 2.0 * r)
        if not abs((2.0 * w * w - 8.0 * w - 1.0) * abs(r) ** 4.0) >= _EPS * 72.0 * abs(wp1) ** 6.0:
            break
    return w


def solve_stationarity_snr(absorption_exponent):
    """The unique xi > 0 with ln(1+xi)(1+xi)/xi = b, b = 2 + absorption_exponent.

    With u = ln(1+xi) the condition reads (u - b) e^(u - b) = -b e^(-b), so
    u = b + W0(-b e^(-b)) on the principal Lambert W branch (the other
    branch gives the spurious root u = 0); `_lambert_w0` evaluates it. u is
    clamped at 690, which keeps xi finite and the solution monotone for
    physically absurd exponents: W0 >= -0.41 here, so every b >= 691 is
    clamped, and b is capped at 691 first, which also takes +inf with no
    inf * 0. Accepts a scalar or an array of nonnegative exponents d*k_abs;
    ValueError for a negative or NaN one (an empty array passes). -b is
    taken once, and W0 and the sum b + W0 share one array.
    """
    a = np.asarray(absorption_exponent, dtype=float)
    if a.size and not a.min() >= 0:  # NaN fails too
        raise ValueError("absorption exponent must be >= 0")
    b = np.minimum(2.0 + a, 691.0)
    neg_b = -b
    z = np.exp(neg_b)
    z *= neg_b
    u = _lambert_w0(z)
    u += b
    xi = np.expm1(np.minimum(u, 690.0))
    # Only a 0-d input can be a scalar; ndim spares arrays np.isscalar's ABC check.
    return float(xi) if a.ndim == 0 and np.isscalar(absorption_exponent) else xi


_XI_STAT_0 = solve_stationarity_snr(0.0)


def _log_snr(log_power, frequency, k_abs, distance, bandwidth, params):
    return log_power - log_inverse_gain(frequency, k_abs, distance, bandwidth, params)


def _device_arrays(*values):
    """(scalar, arrays): the values broadcast to a common 1-D float shape,
    and whether every one of them was a scalar."""
    scalar = all(np.ndim(v) == 0 for v in values)
    arrays = (np.atleast_1d(np.asarray(v, dtype=float)) for v in values)
    return scalar, np.broadcast_arrays(*arrays)


def _finite_positive(x) -> bool:
    """Whether every element of x is finite and > 0 (NaN is not)."""
    return bool(np.all((x > 0) & (x < math.inf)))


def _newton_descent(fun, t0, what: str) -> np.ndarray:
    """Array Newton t <- t - g/g' from t0, with (g, g') = fun(t), until every
    |step| <= 1e-13 max(1, |t|); ConvergenceError naming `what` after 200
    steps. No bracket: callers pass a monotone, convex or concave g and a t0
    on the side from which Newton descends onto every root."""
    t = np.array(t0, dtype=float)
    for _ in range(200):
        g, slope = fun(t)
        step = g / slope
        t -= step
        if np.all(np.abs(step) <= 1e-13 * np.maximum(1.0, np.abs(t))):
            return t
    raise ConvergenceError(f"{what} Newton iteration did not converge")


def optimal_distance_pair(power, frequency, k_abs, bandwidth: float, params: LinkParams):
    """Distance and SNR jointly satisfying the stationarity condition and
    the SNR definition at the given power (the unconstrained per-device
    transport-capacity optimum).

    In t = ln d the gap g = ln SNR(d) - ln xi_stat(k d) is decreasing and
    concave: with x = k d and h = ln xi_stat (h' = xi/(xi - ln(1+xi))),
    g' = -(2 + x + x h'), g'' = -x (1 + h' + x h'') and
    1 + h' + x h'' >= 1.93 for all x >= 0. Absorption only lowers g, so the
    closed-form root t0 without absorption has g(t0) <= 0 and
    `_newton_descent` from t0 descends onto every root. Scalars give a
    (d, xi) pair of floats, arrays a pair of arrays.
    """
    scalar, (p, f, k) = _device_arrays(power, frequency, k_abs)
    if not _finite_positive(p):
        raise ValueError("power must be finite and > 0")
    log_p = np.log(p)

    def gap(t):
        d = np.exp(t)
        x = k * d
        xi = solve_stationarity_snr(x)
        g = _log_snr(log_p, f, k, d, bandwidth, params) - np.log(xi)
        return g, -(2.0 + x) - x / (1.0 - np.log1p(xi) / xi)  # no x * xi overflow

    t0 = 0.5 * (log_p - math.log(_XI_STAT_0) - log_inverse_gain(f, 0.0, 1.0, bandwidth, params))
    d = np.exp(_newton_descent(gap, t0, "optimal distance"))
    xi = np.exp(_log_snr(log_p, f, k, d, bandwidth, params))
    residual = np.abs(stationarity_lhs(xi) - (2.0 + k * d)).max()
    if not residual <= 1e-6:  # NaN fails too
        raise ConvergenceError(f"stationarity residual {residual:.3e} above tolerance")
    return (float(d[0]), float(xi[0])) if scalar else (d, xi)


def max_distance(
    power,
    rate_req,
    frequency,
    k_abs,
    bandwidth: float,
    params: LinkParams,
    d_min: float = D_MIN,
):
    """Largest distance at which the link still meets its rate floor.

    SNR(d) = 2^(rate_req/W) - 1 reduces to k d + 2 ln d = C, whose root is
    ln d = C/2 - omega(ln(k/2) + C/2) with omega the Wright omega function
    (omega e^omega = e^z); k = 0 gives omega(-inf) = 0. Scalars give a
    float, arrays an array; InfeasibleError lists the elements whose floor
    fails even at d_min.
    """
    scalar, (p, req, f, k) = _device_arrays(power, rate_req, frequency, k_abs)
    if not (_finite_positive(p) and _finite_positive(req)):
        raise ValueError("power and rate_req must be finite and > 0")
    log_xi_req = np.log(floor_snr(req, bandwidth))
    log_p = np.log(p)
    bad = np.flatnonzero(_log_snr(log_p, f, k, d_min, bandwidth, params) < log_xi_req)
    if bad.size:
        raise InfeasibleError(
            f"rate floor {req[bad[0]]:.3e} bps unreachable even at d_min={d_min:g} m", bad
        )
    c = log_p - log_xi_req - log_inverse_gain(f, 0.0, 1.0, bandwidth, params)
    with np.errstate(divide="ignore"):
        z = np.where(k > 0, np.log(k / 2.0) + c / 2.0, -np.inf)
    d = np.exp(c / 2.0 - np.array([_wright_omega(x) for x in z.tolist()]))
    return float(d[0]) if scalar else d


def _pin_to_floor(mask, p, req, f, k, bandwidth, params, d_min):
    """(distances, SNRs) at which the masked devices meet their rate floors
    exactly at their powers; InfeasibleError names devices by their index in
    the unmasked arrays."""
    try:
        d = max_distance(p[mask], req[mask], f[mask], k[mask], bandwidth, params, d_min)
    except InfeasibleError as exc:
        raise InfeasibleError(str(exc), np.flatnonzero(mask)[list(exc.devices)]) from exc
    return d, floor_snr(req[mask], bandwidth)


def classify_regime(
    power,
    rate_req,
    frequency,
    k_abs,
    bandwidth: float,
    params: LinkParams,
    d_min: float = D_MIN,
) -> RegimeResult:
    """Pick the operating regime for each device at a fixed power.

    Rate floor below the spectral efficiency of the unconstrained optimum:
    use the optimum distance. Otherwise push the distance out to the largest
    value that meets the floor exactly; `max_distance` is called for those
    devices only. Scalars give a `RegimeResult` of floats, arrays one of
    arrays with `regime` a tuple.
    """
    scalar, (p, req, f, k) = _device_arrays(power, rate_req, frequency, k_abs)
    if not np.all((req >= 0) & (req < math.inf)):  # NaN fails too
        raise ValueError("rate_req must be finite and >= 0")
    d, xi = optimal_distance_pair(p, f, k, bandwidth, params)
    eta = shannon_rate(xi, 1.0)
    pinned = req > bandwidth * eta
    if pinned.any():
        d[pinned], xi[pinned] = _pin_to_floor(pinned, p, req, f, k, bandwidth, params, d_min)
        eta[pinned] = req[pinned] / bandwidth
    regimes = tuple(_regimes(pinned))
    if scalar:
        return RegimeResult(regimes[0], float(d[0]), float(xi[0]), float(eta[0]))
    return RegimeResult(regimes, d, xi, eta)


def thm1_distance_update(
    distances,
    xi,
    frequencies,
    k_abs,
    bandwidth: float,
    params: LinkParams,
    nu: float | None = None,
) -> tuple[np.ndarray, float]:
    """Optimal next distances for frozen absorption losses and SNR targets.

    d_hat_k = log2(1+xi_k) / (2 nu c_k) with p_k = c_k d_k^2; when `nu` is
    None it is set so the implied total power meets the budget exactly
    (total power scales as 1/nu^2, so the dual has a closed form).
    """
    d, xi, f, k = (np.asarray(a, dtype=float) for a in (distances, xi, frequencies, k_abs))
    log_c = np.log(xi) + log_inverse_gain(f, k, d, bandwidth, params) - 2.0 * np.log(d)
    with np.errstate(over="ignore"):
        return _dual_step(log_c, shannon_rate(xi, 1.0), params.p_total, nu)


def _log_sum_exp(x) -> float:
    """ln(sum(exp(x))) without underflow or overflow."""
    top = x.max()
    return top + math.log(np.exp(x - top).sum())


def brentq(f, a: float, b: float, *, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f between a and b, where f changes sign: Brent's zeroin
    (Brent, "Algorithms for Minimization without Derivatives", 1973, ch. 4)
    step for step as scipy's `brentq.c` takes it, so each call of f and the
    root are the same bits as `scipy.optimize.brentq(f, a, b, xtol=xtol,
    rtol=rtol, maxiter=maxiter)`. It stops where half the bracket is below
    delta = (xtol + rtol |x|) / 2. ValueError, with scipy's messages, for a
    NaN value of f or f(a), f(b) of one sign; ConvergenceError naming the
    budget dual, whose root it finds, after maxiter steps.
    """

    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless a short enough step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic through the three points
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C divides to +-inf or NaN: bisect
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise ConvergenceError(f"budget dual: no root within {maxiter} Brent steps, last ln nu {xcur!r}")


def _budget_dual(distances_for, log_powers, p_total: float):
    """(d, evaluations): d = distances_for(ln nu) at the dual nu where the
    total power sum(exp(log_powers(d))) is P_T; it must fall as nu grows.
    ln nu is bracketed in steps of ln 256 from 0, then found by `brentq`;
    `evaluations` counts the calls of `distances_for`."""
    evaluations = 0

    def log_power_gap(log_nu: float) -> float:
        nonlocal evaluations
        evaluations += 1
        return _log_sum_exp(log_powers(distances_for(log_nu))) - math.log(p_total)

    lo = hi = 0.0
    while log_power_gap(lo) < 0:
        lo -= math.log(256.0)
    while log_power_gap(hi) > 0:
        hi += math.log(256.0)
    log_nu = brentq(log_power_gap, lo, hi, xtol=1e-15, rtol=8.9e-16, maxiter=200)
    return distances_for(log_nu), evaluations + 1


def max_sum_distance(rate_reqs, frequencies, k_abs, bandwidth: float, params: LinkParams):
    """Sum-distance KKT solve on assigned subwindows, every floor > 0:
    (distances, powers, evaluations).

    Every rate sits at its floor, so p_k(d) = e^{base_k} d^2 e^{k d}, base_k
    being the log power that meets the floor at 1 m without absorption. For
    a common dual nu each distance solves p_k'(d) = 1/nu, i.e. in t = ln d

        g(t) = base_k + t + ln(2 + k e^t) + k e^t = -ln nu.

    g is increasing and convex, so `_newton_descent` from the k = 0 root (an
    upper bound) descends monotonically onto every device's root. Total
    power falls in nu, so `_budget_dual` finds nu with `evaluations` array
    Newton solves. Powers are scaled onto P_T. A floor that is not finite
    and > 0 raises ValueError, as in `max_distance`.
    """
    req, f, k = (np.asarray(a, dtype=float) for a in (rate_reqs, frequencies, k_abs))
    if not _finite_positive(req):
        raise ValueError("max_sum_distance requires finite rate_req > 0 for all devices")
    log_xi_req = np.log(floor_snr(req, bandwidth))
    base = log_xi_req + log_inverse_gain(f, 0.0, 1.0, bandwidth, params)

    def log_powers(d):
        return log_xi_req + log_inverse_gain(f, k, d, bandwidth, params)

    def distances_for(log_nu):
        def g(t):
            x = k * np.exp(t)
            return base + t + np.log(2.0 + x) + x + log_nu, (2.0 + 2.0 * x) / (2.0 + x) + x

        t0 = -log_nu - base - math.log(2.0)
        return np.exp(_newton_descent(g, t0, "distance-maximization"))

    d, evaluations = _budget_dual(distances_for, log_powers, params.p_total)
    p = np.exp(log_powers(d))
    return d, p * (params.p_total / p.sum()), evaluations


def _dual_step(log_c, spectral_eff, p_total: float, nu: float | None = None):
    """`thm1_distance_update` from ln(c_k) and the spectral efficiencies
    log2(1+xi_k) of the SNR targets: (d_hat, nu)."""
    log_num = np.log(spectral_eff)
    log_num -= LN2  # ln(log2(1+xi)/2)
    if nu is None:
        # sum_k c_k (log2(1+xi_k)/(2 nu c_k))^2 = P_T  =>  nu^2 = sum/(P_T)
        log_terms = 2.0 * log_num
        log_terms -= log_c
        nu_sq = np.exp(log_terms).sum() / p_total
        if nu_sq == 0.0 or math.isinf(nu_sq):  # the plain sum under- or overflowed
            log_nu = 0.5 * (_log_sum_exp(log_terms) - math.log(p_total))
            return np.exp(log_num - log_c - log_nu), math.exp(log_nu)
        nu = math.sqrt(nu_sq)
    log_num -= log_c
    log_num -= math.log(nu)
    return np.exp(log_num), nu


#: A TC step t with |TC_t - TC_(t-2)| <= _CYCLE_DELTA |TC_t - TC_(t-1)|
#: alternates about a fixed level; _CYCLE_RUN such steps in a row make a
#: period-2 cycle.
_CYCLE_DELTA = 1e-3
_CYCLE_RUN = 5
_LOG1P_CYCLE_DELTA = math.log1p(_CYCLE_DELTA)


def _period2_run(tc_history, run: int, tol: float, max_inner: int) -> int:
    """The count of consecutive iterations, ending at the last of at least
    three in `tc_history`, on which TC alternates about a fixed level, given
    `run` for the iterations before it. On such a step the TC step shrinks
    by at most a factor 1 + _CYCLE_DELTA: |TC_(t-1) - TC_(t-2)| <= (1 +
    _CYCLE_DELTA) |TC_t - TC_(t-1)|. So once the run reaches _CYCLE_RUN and
    the step exceeds tol (1 + _CYCLE_DELTA)^(max_inner - t), taken in logs,
    a cycle that persists cannot converge by max_inner: ConvergenceError. A
    tol of 0 is never reached."""
    t = len(tc_history)
    step = abs(tc_history[-1] - tc_history[-2])
    if not abs(tc_history[-1] - tc_history[-3]) <= _CYCLE_DELTA * step:
        return 0
    run += 1
    if run < _CYCLE_RUN:
        return run
    # The steps the cycle needs to shrink onto tol, against the steps left.
    if tol > 0.0 and (math.log(step) - math.log(tol)) / _LOG1P_CYCLE_DELTA <= max_inner - t:
        return run
    raise ConvergenceError(
        f"no convergence within {max_inner} inner iterations: TC is in a period-2 cycle "
        f"(step {step:.3e} against tolerance {tol:.3e}), stopped at iteration {t}",
        iterations=t,
    )


@dataclass
class IterState:
    """Converged output of the inner power-distance loop."""

    distances: np.ndarray
    powers: np.ndarray
    snrs: np.ndarray
    rates: np.ndarray
    regimes: list[Regime]
    tc: float
    iterations: int
    tc_history: list[float] = field(default_factory=list)


def _pin_masks(distances, k_abs, rate_reqs, bandwidth):
    """(pinned, xi_tilde, eta_tilde): the devices whose rate floor (an
    array) exceeds the stationary spectral efficiency eta_tilde =
    log2(1 + xi_tilde), with the stationary SNRs xi_tilde."""
    xi_tilde = solve_stationarity_snr(k_abs * distances)
    eta_tilde = shannon_rate(xi_tilde, 1.0)
    return rate_reqs > bandwidth * eta_tilde, xi_tilde, eta_tilde


def _enforce_rate_floors(d, p, snrs, rates, f, k, req, bandwidth, params, d_min):
    """Final feasibility repair in one pass over the last iterate's distances,
    powers, SNRs and rates: pin every device whose floor binds at its distance
    (`_pin_masks`) or whose rate misses it by more than 1e-12 relative. Free
    devices keep their distance and power; the pinned ones split what the free
    ones leave of the budget in proportion to their powers (equally if every
    one of those has underflowed to 0) and move out to `max_distance` (never
    below d_min), so their rates are the floors.

    Returns (distances, powers, snrs, rates, pinned mask); `p`, `snrs` and
    `rates` are updated in place.
    """
    pinned = _pin_masks(d, k, req, bandwidth)[0]
    pinned |= rates < req * (1.0 - 1e-12)
    if pinned.any():
        budget_pin = params.p_total - p[~pinned].sum()
        if budget_pin <= 0:
            raise InfeasibleError("rate floors leave no power budget", np.flatnonzero(pinned))
        pinned_sum = p[pinned].sum()
        if pinned_sum > 0.0:
            p[pinned] *= budget_pin / pinned_sum
        else:  # every pinned power underflowed: split the budget equally
            p[pinned] = budget_pin / np.count_nonzero(pinned)
        starved = np.flatnonzero(pinned & (p == 0.0))  # powers that underflowed
        if starved.size:
            raise InfeasibleError(
                f"rate floor {req[starved[0]]:.3e} bps unreachable with a power that underflows to 0", starved
            )
        d = d.copy()
        d[pinned], snrs[pinned] = _pin_to_floor(pinned, p, req, f, k, bandwidth, params, d_min)
        rates[pinned] = req[pinned]
    return d, p, snrs, rates, pinned


def iterate_power_distance(
    frequencies,
    k_abs,
    rate_reqs,
    bandwidth: float,
    params: LinkParams,
    config: SolverConfig = SolverConfig(),
    d0=None,
) -> IterState:
    """Run the smoothed distance-power fixed point to convergence.

    One link budget per iterate: `log_inverse_gain` at the iterate's
    distances gives its SNRs and rates and the next iteration's power
    coefficients, and the rate-floor repair reuses the last one. Per
    iteration: freeze the absorption loss at the current distances, pick
    each device's SNR target (stationary value, or the rate floor's SNR when
    the floor binds), solve the budget dual for the proposed distances,
    smooth, and recompute powers. Stops when the total transport capacity
    changes by at most eps (relative by default), and raises
    ConvergenceError at max_inner, or earlier once `_period2_run` finds a
    period-2 cycle whose step cannot shrink to eps by then. On termination
    `_enforce_rate_floors` pins the devices whose floors bind or fail: they
    split what the free devices leave of the budget in proportion to their
    powers and sit at `max_distance` (at least `config.d_min`), on their floors.

    Once per solve: the inputs are checked (1-D arrays of one length >= 1;
    finite frequencies and k_abs, finite floors >= 0 and a finite d0 > 0,
    else ValueError), and the floors' SNRs xi_req, their spectral
    efficiencies log2(1+xi_req), alpha, 1 - alpha and ln P_T are built.
    Once per iteration: the stationary SNRs and their spectral efficiency
    log2(1+xi~), which serves both the floor mask and the dual step; the
    pinned devices' targets are selected only when a device is pinned.
    Each step's temporaries are fresh arrays, updated in place.
    """
    f, k, req = (np.asarray(a, dtype=float) for a in (frequencies, k_abs, rate_reqs))
    d = np.full(f.shape, float(config.d_init)) if d0 is None else np.array(d0, dtype=float)
    if not (f.ndim == 1 and f.size and f.shape == k.shape == req.shape == d.shape):
        raise ValueError("frequencies, k_abs, rate_reqs and d0 must be 1-D arrays of one length >= 1")
    if not (np.isfinite(f).all() and np.isfinite(k).all()):
        raise ValueError("frequencies and k_abs must be finite")
    if not np.all((req >= 0) & (req < math.inf)):  # NaN fails too
        raise ValueError("rate requirements must be finite and >= 0")
    if not _finite_positive(d):
        raise ValueError("d0 must be finite and > 0")

    log_xi_req = np.where(req > 0, np.log(floor_snr(np.maximum(req, 1e-300), bandwidth)), -np.inf)
    xi_req = np.exp(log_xi_req)
    eta_req = shannon_rate(xi_req, 1.0)
    alpha, beta = config.alpha, 1.0 - config.alpha
    p_total = params.p_total
    log_p_total = math.log(p_total)
    log_g = log_inverse_gain(f, k, d, bandwidth, params)
    two_log_d = 2.0 * np.log(d)
    tc_history: list[float] = []
    cycle_run = 0
    # No overflow warnings: at an extreme budget a sum of powers that
    # overflows, like a dual sum that under- or overflows, is taken again in
    # log space, and every finite sum is used as before.
    with np.errstate(over="ignore"):
        for it in range(1, config.max_inner + 1):
            pinned, xi, eta = _pin_masks(d, k, req, bandwidth)
            if pinned.any():
                xi = np.where(pinned, xi_req, xi)
                eta = np.where(pinned, eta_req, eta)
            log_c = np.log(xi)  # p_k = c_k d_k^2 at frozen absorption
            log_c += log_g
            log_c -= two_log_d
            d_hat, _nu = _dual_step(log_c, eta, p_total)
            d_hat *= beta
            d_hat += alpha * d
            d = d_hat
            two_log_d = np.log(d)
            two_log_d *= 2.0
            log_p = log_c
            log_p += two_log_d
            # Smoothing can transiently overshoot the budget the dual enforced
            # for d_hat; scale the reported powers back onto it. The distance
            # dynamics are unaffected and restore equality at the fixed point.
            total = np.exp(log_p).sum()
            if math.isinf(total):
                log_p += log_p_total - _log_sum_exp(log_p)
            elif total > p_total:
                log_p += math.log(p_total / total)
            # The new iterate's one link budget: its SNRs and rates here, and
            # the next iteration's power coefficients.
            log_g = log_inverse_gain(f, k, d, bandwidth, params)
            snrs = np.subtract(log_p, log_g)
            np.exp(snrs, out=snrs)
            rates = shannon_rate(snrs, bandwidth)
            tc_history.append(float((d * rates).sum()))
            tol = config.eps * max(1.0, abs(tc_history[-1])) if config.eps_relative else config.eps
            if it > 1 and abs(tc_history[-1] - tc_history[-2]) <= tol:
                break
            if it > 2:
                cycle_run = _period2_run(tc_history, cycle_run, tol, config.max_inner)
        else:
            raise ConvergenceError(
                f"no convergence within {config.max_inner} inner iterations", iterations=config.max_inner
            )

    d, p, snrs, rates, pinned = _enforce_rate_floors(
        d, np.exp(log_p), snrs, rates, f, k, req, bandwidth, params, config.d_min
    )
    return IterState(
        distances=d,
        powers=p,
        snrs=snrs,
        rates=rates,
        regimes=_regimes(pinned),
        tc=float((d * rates).sum()),
        iterations=it,
        tc_history=tc_history,
    )
