"""The `distance_power` kernels reject non-finite and malformed inputs with
their ValueError, before any numpy work: no RuntimeWarning, no silent NaN
result, no error from deep inside numpy."""

import math
import warnings

import numpy as np
import pytest

from tera_tc import distance_power as dp
from radio_params import make_params

PARAMS = make_params(20.0)
F, K = 5.2e11, 0.1


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("power", [math.inf, np.array([1e-2, math.inf]), math.nan])
def test_optimal_distance_pair_power(power):
    with pytest.raises(ValueError, match="power must be finite and > 0"):
        dp.optimal_distance_pair(power, F, K, 1e9, PARAMS)


@pytest.mark.parametrize(
    "power, req",
    [(math.inf, 1e9), (1e-2, math.inf), (1e-2, math.nan), (np.array([1e-2, math.inf]), 1e9)],
    ids=["inf_power", "inf_floor", "nan_floor", "inf_power_element"],
)
def test_max_distance_power_and_floor(power, req):
    with pytest.raises(ValueError, match="finite and > 0"):
        dp.max_distance(power, req, F, K, 1e9, PARAMS)


@pytest.mark.parametrize(
    "power, req, match",
    [(math.inf, 1e9, "power must be finite"), (1e-2, math.nan, "rate_req must be finite"),
     (1e-2, math.inf, "rate_req must be finite"), (1e-2, -1.0, "rate_req must be finite")],
    ids=["inf_power", "nan_floor", "inf_floor", "negative_floor"],
)
def test_classify_regime(power, req, match):
    with pytest.raises(ValueError, match=match):
        dp.classify_regime(power, req, F, K, 1e9, PARAMS)


@pytest.mark.parametrize("floor", [math.inf, -math.inf])
def test_max_sum_distance_infinite_floor(floor):
    with pytest.raises(ValueError, match="finite rate_req > 0"):
        dp.max_sum_distance([1e9, floor], [5.0e11, 5.5e11], [0.1, 0.2], 1e9, PARAMS)


def _iterate(f=(5e11, 5.3e11), k=(0.05, 0.3), req=(0.0, 1e9), d0=None):
    return dp.iterate_power_distance(np.array(f), np.array(k), np.array(req), 1e9, PARAMS, d0=d0)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"req": (0.0, math.inf)}, "rate requirements must be finite and >= 0"),
        ({"req": (math.nan, 1e9)}, "rate requirements must be finite and >= 0"),
        ({"req": (-1.0, 1e9)}, "rate requirements must be finite and >= 0"),
        ({"d0": (math.nan, 5.0)}, "d0 must be finite and > 0"),
        ({"d0": (0.0, 5.0)}, "d0 must be finite and > 0"),
        ({"d0": (-1.0, 5.0)}, "d0 must be finite and > 0"),
        ({"d0": (math.inf, 5.0)}, "d0 must be finite and > 0"),
        ({"f": (5e11, math.inf)}, "frequencies and k_abs must be finite"),
        ({"k": (math.nan, 0.3)}, "frequencies and k_abs must be finite"),
        ({"req": (0.0, 1e9, 0.0)}, "1-D arrays of one length"),
        ({"d0": (5.0,)}, "1-D arrays of one length"),
        ({"f": (), "k": (), "req": ()}, "1-D arrays of one length"),
        ({"f": 5e11, "k": 0.1, "req": 0.0}, "1-D arrays of one length"),
    ],
    ids=["inf_floor", "nan_floor", "negative_floor", "nan_d0", "zero_d0", "negative_d0", "inf_d0",
         "inf_frequency", "nan_k_abs", "floor_length", "d0_length", "empty", "scalars"],
)
def test_iterate_power_distance_inputs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        _iterate(**kwargs)


def test_iterate_power_distance_finite_inputs_still_solve():
    state = _iterate(d0=(5.0, 20.0))
    assert state.iterations >= 1 and np.isfinite(state.tc)
