"""Multilevel water-filling: budget, KKT structure, and oracle comparisons."""

import warnings

import numpy as np
import pytest

from tera_tc.waterfill import WaterfillError, waterfill


def weighted_sum_rate(w, g, p):
    return float(np.sum(w * np.log1p(p / g)))


def test_single_device_takes_budget():
    p = waterfill([2.0], [1e-3], 0.5)
    assert p[0] == pytest.approx(0.5, rel=1e-12)


def test_symmetric_equal_split():
    p = waterfill([3.0, 3.0, 3.0], [1e-3, 1e-3, 1e-3], 0.9)
    assert np.allclose(p, 0.3, rtol=1e-10)


def test_budget_equality_and_nonnegativity(rng):
    for _ in range(50):
        n = int(rng.integers(1, 21))
        w = rng.uniform(0.5, 40.0, n)
        g = 10.0 ** rng.uniform(-6, 1, n)
        p_total = 10.0 ** rng.uniform(-2, 1)
        p = waterfill(w, g, p_total)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(p_total, rel=1e-9)


def test_water_levels(rng):
    w = rng.uniform(1.0, 30.0, 12)
    g = 10.0 ** rng.uniform(-5, 0, 12)
    p = waterfill(w, g, 0.5)
    levels = w / (g + p)
    active = p > 0
    lam = levels[active].mean()
    assert np.allclose(levels[active], lam, rtol=1e-8)
    # Inactive devices sit below the common water level.
    assert np.all(w[~active] / g[~active] <= lam * (1 + 1e-8))


def test_pairwise_transfer_never_improves(rng):
    w = rng.uniform(1.0, 20.0, 6)
    g = 10.0 ** rng.uniform(-4, -1, 6)
    p_total = 1.0
    p = waterfill(w, g, p_total)
    base = weighted_sum_rate(w, g, p)
    delta = 1e-6 * p_total
    active = np.flatnonzero(p > delta)
    for i in active:
        for j in active:
            if i == j:
                continue
            q = p.copy()
            q[i] -= delta
            q[j] += delta
            assert weighted_sum_rate(w, g, q) <= base + 1e-12 * abs(base)


def test_monotone_in_budget(rng):
    w = rng.uniform(1.0, 20.0, 8)
    g = 10.0 ** rng.uniform(-4, -1, 8)
    p_small = waterfill(w, g, 0.1)
    p_large = waterfill(w, g, 1.0)
    assert np.all(p_large >= p_small - 1e-12)


def test_dead_channel_gets_zero():
    p = waterfill([1.0, 5.0], [1e-3, np.inf], 0.2)
    assert p[1] == 0.0
    assert p[0] == pytest.approx(0.2, rel=1e-12)


@pytest.mark.parametrize(
    "w, g",
    [
        ([1.0], [1e176]),
        ([1.0, 2.0], [1e176, 3e176]),
        ([[1.0, 2.0], [1.0, 1.0], [3.0, 1.0]], [[1e176, np.inf], [1.0, 2.0], [2e176, 1e175]]),
    ],
)
def test_inverse_gains_that_dwarf_the_budget(w, g):
    # p_total + g rounds to g: the budget still goes out, with no NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = waterfill(w, g, 1.0)
    assert np.all(np.isfinite(p)) and np.all(p >= 0)
    assert np.allclose(np.sum(p, axis=-1), 1.0, rtol=1e-15, atol=0)


def test_three_device_simplex_oracle(rng):
    # Dense barycentric grid over the 2-simplex as an independent maximizer.
    w = np.array([1.0, 7.0, 20.0])
    g = np.array([2e-3, 5e-2, 4e-1])
    p_total = 1.0
    steps = 400
    i, j = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
    mask = i + j <= steps
    a = i[mask] / steps
    b = j[mask] / steps
    grid = np.stack([a, b, 1.0 - a - b], axis=1) * p_total
    tc_grid = (w * np.log1p(grid / g)).sum(axis=1).max()
    p = waterfill(w, g, p_total)
    tc = weighted_sum_rate(w, g, p)
    assert tc >= tc_grid * (1 - 1e-6)


def test_input_validation():
    with pytest.raises(WaterfillError):
        waterfill([1.0, -1.0], [1e-3, 1e-3], 1.0)
    with pytest.raises(WaterfillError):
        waterfill([1.0], [0.0], 1.0)
    with pytest.raises(WaterfillError):
        waterfill([1.0], [1e-3], 0.0)
    with pytest.raises(WaterfillError):
        waterfill([1.0, 1.0], [1e-3], 1.0)
    with pytest.raises(WaterfillError):
        waterfill([1.0, 1.0], [np.inf, np.inf], 1.0)


def brute_force_waterfill(w, g, p_total, candidate_sets):
    """Best allocation over the given active sets: each set's water level
    from the budget, sets that would need negative power skipped."""
    best, best_val = None, -np.inf
    for active in candidate_sets:
        active = np.asarray(active)
        lam = w[active].sum() / (p_total + g[active].sum())
        p = np.zeros_like(w)
        p[active] = w[active] / lam - g[active]
        if np.any(p < -1e-12 * p_total):
            continue
        p = np.maximum(p, 0.0)
        val = weighted_sum_rate(w, g, p)
        if val > best_val:
            best, best_val = p, val
    return best


def all_subsets(n):
    return [np.flatnonzero([(mask >> i) & 1 for i in range(n)]) for mask in range(1, 2**n)]


@pytest.mark.parametrize(
    "w, g, p_total",
    [
        ([3.0] * 6, [1e-3] * 6, 0.6),  # every level tied
        ([1.0, 2.0, 4.0, 3.0], [1e-3, 2e-3, 4e-3, 9e-3], 0.01),  # three tied levels
        ([10.0, 1.0, 1.0, 1.0], [1e-3, 1.0, 1.0, 1.0], 0.5),  # tied group left dry
        ([10.0, 1.0, 1.0, 1.0], [1e-3, 1.0, 1.0, 1.0], 50.0),  # tied group all wet
        ([5.0, 5.0, 2.0, 2.0, 1.0, 8.0, 8.0], [1e-2, 1e-2, 1e-3, 1e-3, 4e-1, 2.0, 2.0], 0.3),
    ],
    ids=["all_tied", "tied_levels", "tied_dry", "tied_wet", "mixed_ties"],
)
def test_matches_subset_enumeration_on_ties(w, g, p_total):
    w, g = np.array(w), np.array(g)
    expected = brute_force_waterfill(w, g, p_total, all_subsets(len(w)))
    assert np.allclose(waterfill(w, g, p_total), expected, rtol=1e-9, atol=1e-12 * p_total)


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_matches_enumeration_large(rng, tied):
    # n = 500 rules out subset enumeration; every "best m levels" set is
    # tried instead, and the best-objective feasible one wins.
    n = 500
    w = rng.uniform(0.5, 40.0, n)
    g = 10.0 ** rng.uniform(-6, 1, n)
    if tied:
        w, g = np.repeat(w[:50], 10), np.repeat(g[:50], 10)
    p_total = 5.0
    by_level = np.argsort(-w / g, kind="stable")
    candidates = [by_level[:m] for m in range(1, n + 1)]
    expected = brute_force_waterfill(w, g, p_total, candidates)
    p = waterfill(w, g, p_total)
    assert np.allclose(p, expected, rtol=1e-9, atol=1e-12 * p_total)
    assert 0 < np.count_nonzero(p) < n  # the water level cuts the population
