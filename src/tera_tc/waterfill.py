"""Weighted-sum-rate power allocation by multilevel water-filling.

Each device receives p_k = [w_k / lam - g_k]^+ where w_k is its weight
(the transmission distance for transport-capacity maximization, 1 for plain
sum-rate), g_k its effective inverse channel gain sigma^2/|h_k|^2, and the
water-level dual lam is chosen so the budget is met with equality.

The active devices are a prefix of the order by descending w_k/g_k, so the
water level is found exactly by one sort and a cumulative sum (Palomar and
Fonollosa, "Practical algorithms for a family of waterfilling solutions",
IEEE Trans. Signal Process. 53(2), 2005).
"""

from __future__ import annotations

import numpy as np


class WaterfillError(ValueError):
    """Invalid water-filling input."""


def waterfill(weights, inverse_gains, p_total: float) -> np.ndarray:
    """Powers (W) maximizing sum_k w_k log2(1 + p_k / g_k) s.t. sum p = p_total.

    `inverse_gains` may contain +inf for channels killed by absorption;
    those devices get exactly zero power. With the usable devices sorted by
    descending w/g, the prefix water levels are lam_m = sum_{i<=m} w_i /
    (p_total + sum_{i<=m} g_i); the active set is the longest prefix with
    w_m/g_m > lam_m, and its lam_m is the exact water level.
    """
    w = np.asarray(weights, dtype=float)
    g = np.asarray(inverse_gains, dtype=float)
    if w.shape != g.shape or w.ndim != 1:
        raise WaterfillError("weights and inverse_gains must be matching 1-D arrays")
    if np.any(w <= 0) or np.any(g <= 0):
        raise WaterfillError("weights and inverse gains must be > 0")
    if not p_total > 0:
        raise WaterfillError("p_total must be > 0")

    usable = np.isfinite(g)
    if not usable.any():
        raise WaterfillError("every channel has zero gain; no feasible allocation")
    wu, gu = w[usable], g[usable]

    order = np.argsort(-wu / gu, kind="stable")
    levels = np.cumsum(wu[order]) / (p_total + np.cumsum(gu[order]))
    above = wu[order] / gu[order] > levels  # True for m = 0 since p_total > 0
    n_active = above.size if above.all() else int(np.argmin(above))
    lam = levels[n_active - 1]
    p_u = np.maximum(0.0, wu / lam - gu)
    p_u *= p_total / p_u.sum()

    p = np.zeros_like(w)
    p[usable] = p_u
    return p
