"""One-to-one subwindow assignment maximizing a total payoff.

`hungarian_assign` is the production path (Hungarian method, O(K^3), via
scipy's linear_sum_assignment on the max-entry-minus-payoff cost matrix);
`exhaustive_assign` enumerates every injection of devices into subwindows
and serves as the optimality oracle for small instances.

THz payoffs are close to rank one: every device ranks the subwindows in
nearly the same order (the f^2 spreading ladder plus the absorption lines).
That is the slow case for scipy's shortest-augmenting-path search, which
starts from zero dual prices (Crouse, IEEE TAES 2016). So for a square
payoff `hungarian_assign` first subtracts estimated column prices v from
the cost (Jonker & Volgenant, Computing 38, 1987, start from good prices
too). The shift is exact: every complete assignment uses every column
once, so it lowers every total by the same sum(v) and the optimum does not
change; only the length of the search does. The result can differ from the
plain call only where two assignments tie to rounding in the cost matrix
scipy is given: swapping two devices whose payoffs are tiny can change
the total by less than the rounding of payoff.max() - payoff.

Two cases keep the plain call:

- rectangular K < N payoffs, where a column shift would change which
  subwindows stay unused;
- payoffs with equal rows (round 0 of `proposed_tc_max` builds every row
  from the same uniform distance and power). Every permutation is then
  optimal and scipy's own tie-break picks the one returned.

`hungarian_assign` and `check_assignment` also take a stack of T
independent problems (a T x K x N payoff, a T x K assignment). The
prelude before scipy (cost, equal-row test, potentials, shift) runs once
over the whole stack, scipy once per problem; each problem gets exactly
the answer it gets alone. A single 2-D payoff is the stack of one, a view
with no extra copy.

`linear_sum_assignment` is the built-in function of scipy's compiled
`scipy/optimize/_lsap` extension, loaded from its file: importing
`scipy.optimize` would also load `scipy.linalg`, `scipy.sparse` and every
optimiser, some 260 more modules, for this one function.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys

import numpy as np

#: Default cap on the number of injections exhaustive_assign may enumerate.
ENUM_CAP = 10_000_000


def _lsap_file() -> str | None:
    """Path of scipy's compiled `scipy.optimize._lsap` extension, or None.
    scipy's directory comes from its import spec, so `scipy/__init__.py`
    does not run."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    directory = os.path.join(spec.submodule_search_locations[0], "optimize")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, "_lsap" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _load_linear_sum_assignment():
    """scipy's `linear_sum_assignment`: the extension's file is loaded
    without running `scipy/optimize/__init__.py`, or, when it is not found,
    the package is imported. Either way it is the same C function.

    A single-phase extension such as this one registers itself in
    `sys.modules` as it initialises; a new entry is taken out again, so
    `scipy.optimize._lsap` is not listed without its package.
    """
    name = "scipy.optimize._lsap"
    path = _lsap_file()
    if path is None:
        from scipy.optimize import linear_sum_assignment

        return linear_sum_assignment
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    registered = name in sys.modules
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    if not registered:
        sys.modules.pop(name, None)
    return module.linear_sum_assignment


linear_sum_assignment = _load_linear_sum_assignment()


class AssignmentError(ValueError):
    """The payoff matrix cannot be assigned (shape or value problem)."""


class EnumerationCapError(RuntimeError):
    """Exhaustive enumeration would exceed the configured cap."""


def _check_payoff(payoff, stacked: bool = False) -> np.ndarray:
    payoff = np.asarray(payoff, dtype=float)
    if payoff.ndim != 2 and not (stacked and payoff.ndim == 3):
        raise AssignmentError(
            "payoff must be a 2-D (devices x subwindows) matrix or a 3-D stack of them"
            if stacked
            else "payoff matrix must be 2-D (devices x subwindows)"
        )
    n_dev, n_sub = payoff.shape[-2:]
    if n_dev > n_sub:
        raise AssignmentError(f"more devices ({n_dev}) than subwindows ({n_sub})")
    # min and max propagate NaN and reach +-inf, with no K x N temporary.
    if payoff.size and not (np.isfinite(payoff.min()) and np.isfinite(payoff.max())):
        raise AssignmentError("payoff matrix contains NaN/inf entries")
    return payoff


def assignment_payoff(payoff, n_of_k) -> float:
    """Total payoff of an assignment (device k -> subwindow n_of_k[k])."""
    payoff = np.asarray(payoff, dtype=float)
    n_of_k = np.asarray(n_of_k)
    return float(payoff[np.arange(len(n_of_k)), n_of_k].sum())


def check_assignment(n_of_k, n_subwindows: int) -> None:
    """Raise unless the assignment (or each row of a stack of them) is
    total and injective: one sort, then the ends and the neighbours."""
    s = np.sort(n_of_k, axis=-1)
    if (s[..., :1] < 0).any() or (s[..., -1:] >= n_subwindows).any():
        raise AssignmentError("subwindow index out of range")
    if (s[..., 1:] == s[..., :-1]).any():
        raise AssignmentError("a subwindow is assigned to more than one device")


def _may_have_equal_rows(cost: np.ndarray) -> np.ndarray:
    """Whether two rows of each nonnegative cost matrix in a T x n x n
    stack may be equal, as a length-T bool array.

    Each row is projected on a fixed positive vector. BLAS may sum two
    equal rows in different orders, so their projections can differ by
    rounding, at most 2n eps times their value since every term is
    nonnegative; projections that close count as equal. A false alarm only
    costs speed.
    """
    n = cost.shape[-1]
    h = np.sort(cost @ np.linspace(1.0, 2.0, n), axis=-1)
    return (h[:, 1:] - h[:, :-1] <= 4.0 * n * np.finfo(float).eps * h[:, 1:]).any(axis=-1)


def _column_potentials(scale: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Sorted-chain estimate of the column duals of each square cost
    matrix in a T x n x n stack, as a T x n array.

    Columns are scored by their summed row-normalised cost (each row
    divided by its `scale`, the largest |payoff| in the row), rows by their
    slope against that score; one power-iteration step re-scores the
    columns by the rows' slopes, and the rows' slopes are taken again. The
    steepest row is paired with the lowest-scored column, and so on down
    both rankings. For two neighbours on this chain, (r0, c0) and (r1, c1), dual
    feasibility bounds v[c1] - v[c0] from above by cost[r0, c1] -
    cost[r0, c0] and from below by cost[r1, c1] - cost[r1, c0]; the
    midpoints telescope along the chain. O(n^2) work per matrix, no n x n
    temporary. Every product is one BLAS matrix-vector call per matrix.
    """
    n = cost.shape[-1]
    w = np.divide(1.0, scale, out=np.zeros_like(scale), where=scale > 0)

    def centred(x):
        return x - x.sum(axis=-1, keepdims=True) / n

    score = (w[:, None, :] @ cost)[:, 0]
    slope = w * (cost @ centred(score)[:, :, None])[:, :, 0]
    score = (centred(slope)[:, None, :] @ cost)[:, 0]
    slope = w * (cost @ centred(score)[:, :, None])[:, :, 0]
    rows = (-slope).argsort(axis=-1, kind="stable")
    cols = score.argsort(axis=-1, kind="stable")
    r0, r1, c0, c1 = rows[:, :-1], rows[:, 1:], cols[:, :-1], cols[:, 1:]
    t = np.arange(len(cost))[:, None]
    step = 0.5 * ((cost[t, r0, c1] - cost[t, r0, c0]) + (cost[t, r1, c1] - cost[t, r1, c0]))
    v = np.empty_like(scale)
    v[t, cols[:, :1]] = 0.0
    v[t, c1] = step.cumsum(axis=-1)
    return v


def _shift_columns(scale: np.ndarray, cost: np.ndarray) -> None:
    """Subtract `_column_potentials` in place from each square cost matrix
    of a T x n x n stack, except where two rows may be equal or the
    shifted cost could overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        shift = ~_may_have_equal_rows(cost)
        if not shift.any():
            return
        v = _column_potentials(scale, cost)
        # cost >= 0, so |cost - v| stays below this bound.
        shift &= np.isfinite(cost.max(axis=(1, 2)) + np.abs(v).max(axis=-1))
        if shift.any():
            cost -= np.where(shift[:, None], v, 0.0)[:, None, :]


def hungarian_assign(payoff, *, overwrite_payoff: bool = False) -> np.ndarray:
    """Assignment maximizing the total payoff, one subwindow per device.

    Returns an int array `n_of_k` of length K, or T x K for a T x K x N
    stack of payoffs, each row solved on its own. Rectangular K < N
    matrices are handled directly (unassigned subwindows are simply
    unused). A square payoff with pairwise distinct rows is solved on the
    cost shifted by `_column_potentials` (see the module docstring).

    The payoff is left unchanged by default. With `overwrite_payoff=True`
    (scipy.linalg's `overwrite_a` convention) the cost max - payoff is
    written into a writeable float payoff's own buffer, so no second array
    of its shape is allocated; its contents are then undefined. The bits
    scipy is given, and so the assignment, are the same either way.
    A payoff with no devices gets an empty assignment, as from
    `exhaustive_assign`.
    """
    payoff = _check_payoff(payoff, stacked=True)
    if payoff.size == 0:  # no devices (or no problems): nothing to assign
        return np.empty(payoff.shape[:-1], dtype=int)
    stack = payoff.reshape((-1,) + payoff.shape[-2:])
    n_dev, n_sub = stack.shape[1:]
    if n_dev == n_sub:  # read before the cost may overwrite the payoff
        scale = np.maximum(stack.max(axis=-1), -stack.min(axis=-1))
    out = stack if overwrite_payoff and stack.flags.writeable else None
    cost = np.subtract(stack.max(axis=(1, 2), keepdims=True), stack, out=out)
    if n_dev == n_sub:
        _shift_columns(scale, cost)
    n_of_k = np.empty(stack.shape[:2], dtype=int)
    for assigned, c in zip(n_of_k, cost):
        rows, cols = linear_sum_assignment(c)
        assigned[rows] = cols
    check_assignment(n_of_k, n_sub)
    return n_of_k.reshape(payoff.shape[:-1])


def exhaustive_assign(payoff, cap: int = ENUM_CAP) -> np.ndarray:
    """Globally optimal assignment by enumerating all N!/(N-K)! injections.

    Ties are broken toward the lexicographically smallest assignment tuple.
    """
    payoff = _check_payoff(payoff)
    n_dev, n_sub = payoff.shape
    count = math.perm(n_sub, n_dev)
    if count > cap:
        raise EnumerationCapError(f"{count} injections exceed the cap of {cap}")
    best_total = -np.inf
    best = None
    dev_idx = np.arange(n_dev)
    for perm in itertools.permutations(range(n_sub), n_dev):
        total = payoff[dev_idx, perm].sum()
        if total > best_total:
            best_total = total
            best = perm
    n_of_k = np.array(best, dtype=int)
    check_assignment(n_of_k, n_sub)
    return n_of_k
