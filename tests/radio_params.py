"""The desk-scale radio constants used across the suite, in a module of its
own name so that test modules can import them when `tests` and `perfbench`
are collected in one run (each has a `conftest`)."""

from tera_tc.channel import LinkParams
from tera_tc.units import dbm_to_watts

#: 15 dBi per side as a linear gain.
GAIN_15DBI = 10.0**1.5

#: -168 dBm/Hz noise density in W/Hz.
N0 = float(dbm_to_watts(-168.0))


def make_params(p_total_dbm: float = 10.0, **overrides) -> LinkParams:
    fields = dict(
        gt_linear=GAIN_15DBI,
        gr_linear=GAIN_15DBI,
        n0=N0,
        p_total=float(dbm_to_watts(p_total_dbm)),
    )
    fields.update(overrides)
    return LinkParams(**fields)
