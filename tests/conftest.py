"""Shared fixtures: the desk-scale radio constants used across the suite."""

import numpy as np
import pytest

from radio_params import make_params


@pytest.fixture
def params():
    """Single-link reference setup: 15 dBi gains, -168 dBm/Hz, 10 dBm."""
    return make_params()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
