"""Weighted-sum-rate power allocation by multilevel water-filling.

Each device receives p_k = [w_k / lam - g_k]^+ where w_k is its weight
(the transmission distance for transport-capacity maximization, 1 for plain
sum-rate), g_k its effective inverse channel gain sigma^2/|h_k|^2, and the
water-level dual lam is chosen so the budget is met with equality.

The active devices are a prefix of the order by descending w_k/g_k, so the
water level is found exactly by one sort and a cumulative sum (Palomar and
Fonollosa, "Practical algorithms for a family of waterfilling solutions",
IEEE Trans. Signal Process. 53(2), 2005). A T x K stack of independent
problems with one budget is solved row by row in the same array pass.
"""

from __future__ import annotations

import numpy as np


class WaterfillError(ValueError):
    """Invalid water-filling input."""


def waterfill(weights, inverse_gains, p_total: float) -> np.ndarray:
    """Powers (W) maximizing sum_k w_k log2(1 + p_k / g_k) s.t. sum p = p_total.

    `weights` and `inverse_gains` are matching 1-D arrays, or T x K stacks
    whose rows are separate problems, each with the budget `p_total`.
    `inverse_gains` may contain +inf for channels killed by absorption;
    those devices get exactly zero power. With the usable devices sorted by
    descending w/g, the prefix water levels are lam_m = sum_{i<=m} w_i /
    (p_total + sum_{i<=m} g_i); the active set is the longest prefix with
    w_m/g_m > lam_m, and its lam_m is the exact water level. A row whose
    powers all round to 0 gives the budget to its first device in w/g order.
    """
    w = np.asarray(weights, dtype=float)
    g = np.asarray(inverse_gains, dtype=float)
    if w.shape != g.shape or w.ndim not in (1, 2):
        raise WaterfillError("weights and inverse_gains must be matching 1-D arrays or 2-D stacks")
    if (w <= 0).any() or (g <= 0).any():
        raise WaterfillError("weights and inverse gains must be > 0")
    if not p_total > 0:
        raise WaterfillError("p_total must be > 0")

    usable = np.isfinite(g)
    if not usable.any(axis=-1).all():
        raise WaterfillError("every channel has zero gain; no feasible allocation")
    shape = w.shape
    w, g, usable = (a.reshape(-1, shape[-1]) for a in (w, g, usable))
    t = np.arange(len(w))[:, None]

    # Killed channels sort last; the usable ones keep their relative order.
    order = np.where(usable, -(w / g), np.inf).argsort(axis=-1, kind="stable")
    ws, gs = w[t, order], g[t, order]
    levels = ws.cumsum(axis=-1) / (p_total + gs.cumsum(axis=-1))
    above = ws / gs > levels  # False past the usable prefix
    above[:, 0] = True  # exact since p_total > 0, but p_total + g can round to g
    n_active = np.where(above.all(axis=-1), above.shape[-1], above.argmin(axis=-1))
    lam = levels[t, n_active[:, None] - 1]
    p = np.maximum(0.0, w / lam - g)  # exactly 0 where g is inf
    total = p.sum(axis=-1)
    flat = np.flatnonzero(total == 0)  # every p_total + g rounded to g
    p[flat, order[flat, 0]] = total[flat] = p_total
    p *= (p_total / total)[:, None]
    return p.reshape(shape)
