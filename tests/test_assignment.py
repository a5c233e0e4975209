"""One-to-one assignment: Hungarian production path vs. exhaustive oracle.

The property tests (hypothesis) compare the column-shifted Hungarian call
with the plain `linear_sum_assignment(payoff.max() - payoff)` call and
with the exhaustive oracle.
"""

import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from tera_tc import assignment
from tera_tc.assignment import (
    AssignmentError,
    EnumerationCapError,
    assignment_payoff,
    check_assignment,
    exhaustive_assign,
    hungarian_assign,
)
from tera_tc.channel import bundled_absorption_table
from tera_tc.scenario import uniform_band
from tera_tc.strategies import DeviceSpec, Scenario, _rate_matrix
from tera_tc.units import dbm_to_watts
from conftest import make_params


def test_single_entry():
    assert list(hungarian_assign([[7.0]])) == [0]
    assert list(exhaustive_assign([[7.0]])) == [0]


def test_two_by_two():
    payoff = [[5.0, 1.0], [2.0, 3.0]]
    n_of_k = hungarian_assign(payoff)
    assert list(n_of_k) == [0, 1]
    assert assignment_payoff(payoff, n_of_k) == 8.0


def test_diagonal_dominant_identity():
    payoff = np.eye(4) * 10.0 + 0.1
    assert list(exhaustive_assign(payoff)) == [0, 1, 2, 3]
    assert list(hungarian_assign(payoff)) == [0, 1, 2, 3]


def test_matches_oracle_on_random_instances(rng):
    for _ in range(100):
        n_dev = int(rng.integers(1, 7))
        n_sub = int(rng.integers(n_dev, 7))
        payoff = rng.random((n_dev, n_sub)) * 100.0
        hung = hungarian_assign(payoff)
        exact = exhaustive_assign(payoff)
        assert assignment_payoff(payoff, hung) == pytest.approx(
            assignment_payoff(payoff, exact), abs=0.0
        )


def test_rectangular_leaves_subwindows_unused(rng):
    payoff = rng.random((3, 6))
    n_of_k = hungarian_assign(payoff)
    assert len(n_of_k) == 3
    assert len(set(n_of_k.tolist())) == 3


def test_row_permutation_equivariance(rng):
    payoff = rng.random((4, 4))
    base = exhaustive_assign(payoff)
    perm = np.array([2, 0, 3, 1])
    permuted = exhaustive_assign(payoff[perm])
    assert np.array_equal(permuted, base[perm])


def test_tie_break_lexicographic():
    # All assignments are equally good; the smallest tuple must win.
    payoff = np.ones((3, 3))
    assert list(exhaustive_assign(payoff)) == [0, 1, 2]


def test_more_devices_than_subwindows_rejected():
    with pytest.raises(AssignmentError):
        hungarian_assign(np.ones((3, 2)))
    with pytest.raises(AssignmentError):
        exhaustive_assign(np.ones((3, 2)))


def test_nan_rejected():
    payoff = np.ones((2, 2))
    payoff[0, 1] = np.nan
    with pytest.raises(AssignmentError):
        hungarian_assign(payoff)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError):
        exhaustive_assign(np.ones((5, 9)), cap=100)


def test_check_assignment():
    check_assignment([0, 2, 1], 3)
    with pytest.raises(AssignmentError):
        check_assignment([0, 0], 3)
    with pytest.raises(AssignmentError):
        check_assignment([0, 3], 3)
    # A stack of assignments: every row is checked on its own.
    check_assignment([[0, 2, 1], [2, 1, 0]], 3)
    check_assignment(np.empty((2, 0), dtype=int), 3)
    with pytest.raises(AssignmentError, match="more than one device"):
        check_assignment([[0, 2, 1], [1, 2, 1]], 3)
    with pytest.raises(AssignmentError, match="out of range"):
        check_assignment([[0, 2, 1], [0, 1, 3]], 3)
    with pytest.raises(AssignmentError, match="out of range"):
        check_assignment([[0, 1], [-1, 1]], 3)


def _plain_assign(payoff) -> np.ndarray:
    payoff = np.asarray(payoff, dtype=float)
    rows, cols = linear_sum_assignment(payoff.max() - payoff)
    n_of_k = np.empty(payoff.shape[0], dtype=int)
    n_of_k[rows] = cols
    return n_of_k


def _assign_recording_cost(payoff):
    """hungarian_assign(payoff) and the cost matrix it handed to scipy."""
    with mock.patch.object(
        assignment, "linear_sum_assignment", wraps=linear_sum_assignment
    ) as lsap:
        n_of_k = hungarian_assign(payoff)
    (cost,), _ = lsap.call_args
    return n_of_k, cost


def _thz_payoff(k: int, d, p_dbm, weighted: bool) -> np.ndarray:
    """The payoff `proposed_tc_max` (weighted) or `sum_rate_max` builds."""
    band = uniform_band(5e11, 6e11, k, bundled_absorption_table())
    sc = Scenario(band=band, params=make_params(), devices=(DeviceSpec(),) * k)
    rates = _rate_matrix(sc, d, dbm_to_watts(np.asarray(p_dbm)))
    return np.asarray(d)[:, None] * rates if weighted else rates


@st.composite
def _thz_payoffs(draw):
    k = draw(st.integers(2, 80))
    d = draw(arrays(float, k, elements=st.floats(0.05, 40.0), unique=True))
    p_dbm = draw(arrays(float, k, elements=st.floats(-20.0, 30.0), unique=True))
    return _thz_payoff(k, d, p_dbm, draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(_thz_payoffs())
def test_thz_payoff_matches_plain_call(payoff):
    got = hungarian_assign(payoff)
    plain = _plain_assign(payoff)
    if not np.array_equal(got, plain):
        # Only where scipy's input holds a tie: swapping two far devices on
        # absorption lines can change the total by less than the rounding
        # of payoff.max() - payoff.
        plain_cost = payoff.max() - payoff
        assert assignment_payoff(plain_cost, got) == pytest.approx(
            assignment_payoff(plain_cost, plain), rel=1e-12, abs=0.0
        )


def test_thz_payoff_near_devices_shifted_and_identical():
    rng = np.random.default_rng(7)
    for k in (2, 17, 80):
        d = rng.uniform(0.05, 10.0, k)
        for weighted in (True, False):
            payoff = _thz_payoff(k, d, rng.uniform(-20.0, 30.0, k), weighted)
            got, cost = _assign_recording_cost(payoff)
            assert not np.array_equal(cost, payoff.max() - payoff)  # the shift is applied
            assert np.array_equal(got, _plain_assign(payoff))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(lambda k: arrays(float, (k, k), elements=st.integers(0, 9))))
def test_integer_payoff_total_matches_plain_call(payoff):
    got = hungarian_assign(payoff)
    assert assignment_payoff(payoff, got) == assignment_payoff(payoff, _plain_assign(payoff))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 30).flatmap(
        lambda k: st.tuples(
            arrays(float, (k, k), elements=st.floats(0.0, 1e6)),
            arrays(int, k, elements=st.integers(0, k - 1)).filter(
                lambda idx: len(np.unique(idx)) < k
            ),
        )
    )
)
def test_duplicate_rows_keep_plain_call(case):
    rows, idx = case
    payoff = rows[idx]  # at least two equal rows
    got, cost = _assign_recording_cost(payoff)
    assert np.array_equal(cost, payoff.max() - payoff)
    assert np.array_equal(got, _plain_assign(payoff))


def test_identical_rows_keep_scipy_tie_break():
    # Round 0 of proposed_tc_max: every device at the same distance and power.
    k = 60
    payoff = _thz_payoff(k, np.full(k, 10.0), np.full(k, 20.0), weighted=True)
    got, cost = _assign_recording_cost(payoff)
    assert np.array_equal(cost, payoff.max() - payoff)
    assert np.array_equal(got, _plain_assign(payoff))


def test_shift_that_could_overflow_keeps_plain_call():
    # Costs near the float maximum: cost - v could overflow to inf.
    payoff = np.random.default_rng(0).random((6, 6)) * 1.7e308
    got, cost = _assign_recording_cost(payoff)
    assert np.array_equal(cost, payoff.max() - payoff)
    assert np.array_equal(got, _plain_assign(payoff))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda k: st.integers(k + 1, 16).flatmap(
            lambda n: arrays(float, (k, n), elements=st.floats(0.0, 1e6))
        )
    )
)
def test_rectangular_payoff_keeps_plain_call(payoff):
    got, cost = _assign_recording_cost(payoff)
    assert np.array_equal(cost, payoff.max() - payoff)
    assert np.array_equal(got, _plain_assign(payoff))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda k: arrays(float, (k, k), elements=st.floats(-1e3, 1e3))
    )
)
def test_small_payoff_agrees_with_exhaustive(payoff):
    got = hungarian_assign(payoff)
    best = assignment_payoff(payoff, exhaustive_assign(payoff))
    assert assignment_payoff(payoff, got) == pytest.approx(best, rel=1e-12, abs=1e-9)


def _assign_recording_costs(payoff, **kwargs):
    """hungarian_assign(payoff, **kwargs) and copies of the cost matrices
    it handed to scipy, one per problem of the stack."""
    with mock.patch.object(
        assignment, "linear_sum_assignment", wraps=linear_sum_assignment
    ) as lsap:
        n_of_k = hungarian_assign(payoff, **kwargs)
    return n_of_k, [np.array(c) for (c,), _ in lsap.call_args_list]


def _overwrite_cases():
    rng = np.random.default_rng(5)
    k = 40
    d = rng.uniform(0.05, 10.0, k)
    yield "square", _thz_payoff(k, d, rng.uniform(-20.0, 30.0, k), weighted=True)
    yield "K<N", _thz_payoff(k, d, rng.uniform(-20.0, 30.0, k), weighted=False)[: k // 2]
    yield "stacked", np.stack(
        [_thz_payoff(k, rng.uniform(0.05, 10.0, k), rng.uniform(-20.0, 30.0, k), weighted=True)
         for _ in range(3)]
    )
    yield "equal_rows", _thz_payoff(k, np.full(k, 10.0), np.full(k, 20.0), weighted=True)


@pytest.mark.parametrize("case", list(_overwrite_cases()), ids=lambda c: c[0])
def test_overwrite_payoff_gives_scipy_the_same_cost(case):
    _, payoff = case
    kept = payoff.copy()
    want, want_costs = _assign_recording_costs(payoff)
    assert np.array_equal(payoff, kept)  # the default call leaves the payoff alone
    buffer = payoff.copy()
    got, got_costs = _assign_recording_costs(buffer, overwrite_payoff=True)
    assert np.array_equal(got, want)
    assert len(got_costs) == len(want_costs) == (len(buffer) if buffer.ndim == 3 else 1)
    for c_got, c_want in zip(got_costs, want_costs):
        assert np.array_equal(c_got, c_want)
    # The cost was written into the payoff's own buffer.
    assert np.array_equal(buffer.reshape(-1, *buffer.shape[-2:]), np.stack(want_costs))


def test_overwrite_payoff_leaves_read_only_and_integer_payoffs_alone():
    payoff = np.arange(9.0).reshape(3, 3) ** 2
    payoff.flags.writeable = False
    ints = (np.arange(9).reshape(3, 3) ** 2).copy()
    for p in (payoff, ints):
        kept = p.copy()
        assert np.array_equal(hungarian_assign(p, overwrite_payoff=True), hungarian_assign(kept))
        assert np.array_equal(p, kept)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(3, 4), (2, 3, 3)], ids=["2-D", "stacked"])
def test_non_finite_payoff_rejected(bad, shape):
    payoff = np.random.default_rng(1).random(shape)
    payoff[(-1,) * (len(shape) - 1) + (1,)] = bad
    with pytest.raises(AssignmentError, match="^payoff matrix contains NaN/inf entries$"):
        hungarian_assign(payoff)
    if len(shape) == 2:
        with pytest.raises(AssignmentError, match="NaN/inf"):
            exhaustive_assign(payoff)


@pytest.mark.parametrize("shape", [(0, 3), (0, 0), (2, 0, 0)])
def test_no_devices_gives_an_empty_assignment(shape):
    n_of_k = hungarian_assign(np.zeros(shape))
    assert n_of_k.shape == shape[:-1]
    assert n_of_k.dtype == int
    if len(shape) == 2:
        assert list(exhaustive_assign(np.zeros(shape))) == list(n_of_k) == []


def _lsap_costs():
    rng = np.random.default_rng(11)
    yield "square", rng.random((7, 7))
    yield "rectangular", rng.random((4, 9))
    yield "identical_rows", np.tile(rng.random(6), (6, 1))


@pytest.mark.parametrize("file_found", [True, False], ids=["extension_file", "fallback"])
@pytest.mark.parametrize("case", list(_lsap_costs()), ids=lambda c: c[0])
def test_lsap_loader_gives_scipy_assignments(case, file_found):
    """Loaded from the extension's file or, with the file finder patched to
    miss, imported from `scipy.optimize`: the same assignments as scipy's
    own function, and `sys.modules` left as it was."""
    _, cost = case
    registered = sys.modules.get("scipy.optimize._lsap")
    if file_found:
        assert assignment._lsap_file() is not None
        lsap = assignment._load_linear_sum_assignment()
    else:
        with mock.patch.object(assignment, "_lsap_file", return_value=None):
            lsap = assignment._load_linear_sum_assignment()
    assert sys.modules.get("scipy.optimize._lsap") is registered
    for got, want in zip(lsap(cost), linear_sum_assignment(cost)):
        assert np.array_equal(got, want)


def test_import_loads_no_scipy_optimize():
    """A fresh interpreter importing the package, its CLI and its
    experiment drivers loads scipy's LSAP kernel but not `scipy.optimize`."""
    src = os.path.dirname(os.path.dirname(assignment.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, tera_tc, tera_tc.cli, tera_tc.experiments; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_scipy_special():
    """The same fresh import loads no `scipy.special` module: the Lambert W0
    and Wright omega kernels are the package's own."""
    src = os.path.dirname(os.path.dirname(assignment.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, tera_tc, tera_tc.cli, tera_tc.experiments; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'special']))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
