"""dB/dBm/dBi conversions used at the ingestion boundary.

The core API works in linear units only (W, W/Hz, dimensionless gains);
logarithmic quantities are converted exactly once, on load.
"""

import numpy as np


def db_to_linear(x_db):
    """dB (or dBi) -> dimensionless linear ratio; +inf past the float range,
    for the caller's finiteness check to report."""
    with np.errstate(over="ignore"):
        return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def linear_to_db(x):
    """Dimensionless linear ratio -> dB."""
    return 10.0 * np.log10(x)


def dbm_to_watts(p_dbm):
    """dBm -> W. Also handles dBm/Hz -> W/Hz for spectral densities; +inf
    past the float range, like `db_to_linear`."""
    with np.errstate(over="ignore"):
        return 10.0 ** ((np.asarray(p_dbm, dtype=float) - 30.0) / 10.0)


def watts_to_dbm(p_w):
    """W -> dBm."""
    return 10.0 * np.log10(p_w) + 30.0
