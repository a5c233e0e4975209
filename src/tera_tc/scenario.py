"""Scenario file loading/saving and band construction.

The scenario JSON has sections `band`, `link_params`, `devices`, `solver`,
and `experiment`. Logarithmic inputs (dBi gains, dBm powers, dBm/Hz noise
density) are accepted and converted to linear units on load; saving always
emits the canonical linear form, so a save/load round trip is bit-exact.
Every value is read through `_typed`, which checks its JSON type, so a
mistyped value fails as a ScenarioError naming its section and key.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from .channel import AbsorptionTable, BandPlan, LinkParams, Subwindow, bundled_absorption_table
from .distance_power import SolverConfig
from .strategies import STRATEGIES, DeviceSpec, Scenario
from .units import db_to_linear, dbm_to_watts


class ScenarioError(ValueError):
    """Malformed scenario file; the message names the offending field."""


#: Each experiment kind: what its `grid` holds and the test each point must
#: pass (None where the grid is a placeholder that is not read), and the
#: name of its detail CSV. `experiments.RUNNERS` has the same keys.
_DBM_POWERS = ("total powers in dBm, finite and > 0 in W", lambda x: 0 < dbm_to_watts(x) < math.inf)
KINDS = {
    "tc_vs_power": (_DBM_POWERS, "devices.csv"),
    "tc_vs_devices": (("whole device counts >= 1", lambda x: x >= 1 and x % 1 == 0), "devices.csv"),
    "cdf_fixed_distance": (("cell radii in m, > 0", lambda x: x > 0), "cdf.csv"),
    "loss_distance_vs_frequency": (None, "subwindows.csv"),
    "rate_distance_tradeoff": (None, "scatter.csv"),
    "exhaustive_validation": (_DBM_POWERS, "devices.csv"),
    "single_link_curve": (("distances in m, > 0", lambda x: x > 0), "curve.csv"),
}


@dataclass(frozen=True)
class ExperimentSpec:
    """What to sweep and how often.

    `KINDS` says what `grid` holds for each kind and checks its points;
    kinds without a sweep take one placeholder point. Every kind that
    solves an allocation runs every strategy in `strategies`, in list
    order; the list must not be empty or name a strategy twice.
    """

    kind: str
    grid: tuple[float, ...]
    trials: int = 1
    seed: int = 0
    strategies: tuple[str, ...] = ("proposed",)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ScenarioError(f"experiment.kind: unknown kind {self.kind!r}")
        grid = list(self.grid)
        if not grid or not np.all(np.isfinite(grid)) or grid != sorted(grid):
            raise ScenarioError("experiment.grid: must be non-empty, finite and sorted")
        points = KINDS[self.kind][0]
        if points is not None:
            what, ok = points
            bad = [x for x in grid if not ok(x)]
            if bad:
                raise ScenarioError(f"experiment.grid: {self.kind} takes {what}, got {bad[0]!r}")
        if self.trials < 1:
            raise ScenarioError("experiment.trials: must be >= 1")
        if self.seed < 0:
            raise ScenarioError(f"experiment.seed: must be >= 0, got {self.seed}")
        check_strategies(self.strategies, "experiment.strategies")


def check_strategies(names, field: str) -> None:
    """Raise a ScenarioError naming `field` unless `names` lists at least
    one strategy and every name is a known strategy listed once."""
    if not names:
        raise ScenarioError(f"{field}: must name at least one strategy")
    for i, s in enumerate(names):
        if s not in STRATEGIES:
            raise ScenarioError(f"{field}: unknown strategy {s!r}")
        if s in names[:i]:
            raise ScenarioError(f"{field}: {s!r} listed twice")


def uniform_band(
    f_start: float, f_stop: float, n_subwindows: int, table: AbsorptionTable
) -> BandPlan:
    """N equal subwindows spanning [f_start, f_stop] with center-frequency
    absorption coefficients sampled from the table."""
    if n_subwindows < 1:
        raise ValueError(f"n_subwindows must be >= 1, got {n_subwindows}")
    if not math.isfinite(f_stop - f_start):
        raise ValueError(f"f_start_hz {f_start!r} and f_stop_hz {f_stop!r} must span a finite width")
    edges = np.linspace(f_start, f_stop, n_subwindows + 1)
    centers = 0.5 * edges[:-1] + 0.5 * edges[1:]  # exact halves (of normal floats); no sum to overflow
    w = (f_stop - f_start) / n_subwindows
    k_abs = table.lookup(centers)
    return BandPlan(tuple(Subwindow(float(f), float(w), float(k)) for f, k in zip(centers, k_abs)))


_MISSING = object()

#: The JSON key of each dataclass field that carries a unit. Every other
#: field is read and written under its own name.
_KEYS = {
    "frequency": "frequency_hz", "bandwidth": "bandwidth_hz", "k_abs": "k_abs_per_m",  # Subwindow
    "n0": "n0_w_per_hz", "p_total": "p_total_w", "c": "c_m_per_s",  # LinkParams
    "rate_req": "rate_req_bps", "fixed_distance": "fixed_distance_m",  # DeviceSpec
    "d_init": "d_init_m", "d_min": "d_min_m",  # SolverConfig
}


def _typed(value, kind: type, key: str):
    """The JSON `value` of `key` read as a `kind`, the one way a raw value
    becomes a field value; ValueError naming `key` unless its JSON type fits.
    A float is any JSON number in float range (`1e400` reads as inf, for the
    dataclasses' finiteness checks to name), an int a number with no
    fraction, a bool or str only itself, and a tuple a list of numbers."""
    if kind is tuple:
        if type(value) is not list:
            raise ValueError(f"{key} must be a list of numbers, got {value!r}")
        return tuple(_typed(x, float, f"{key}[{i}]") for i, x in enumerate(value))
    if kind is bool or kind is str:
        if type(value) is not kind:
            raise ValueError(f"{key} must be {'true or false' if kind is bool else 'a string'}, got {value!r}")
        return value
    if type(value) is int and abs(value) > sys.float_info.max:
        raise ValueError(f"{key} must be within float range, got a {len(str(abs(value)))}-digit integer")
    if type(value) not in (int, float) or kind is int and value % 1:
        raise ValueError(f"{key} must be {'a whole number' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def _object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{context}: must be an object")
    return value


def _get(section: dict, context: str, key: str, kind: type, default=_MISSING):
    """`section[key]` read as a `kind` (see `_typed`), else `default`."""
    if key in _object(section, context):
        return _typed(section[key], kind, key)
    if default is _MISSING:
        raise ScenarioError(f"{context}: missing required field {key!r}")
    return default


#: A generated band's subwindow cap, 1000x the operating range (N <= 1000),
#: checked before `uniform_band` allocates anything.
_MAX_SUBWINDOWS = 1_000_000


def _parse_band(section: dict) -> BandPlan:
    if "subwindows" in section:
        if not isinstance(section["subwindows"], list):
            raise ScenarioError("band.subwindows: must be a list")
        subs = []
        keys = [_KEYS.get(f.name, f.name) for f in fields(Subwindow)]
        for i, row in enumerate(section["subwindows"]):
            subs.append(Subwindow(*(_get(row, f"band.subwindows[{i}]", key, float) for key in keys)))
        return BandPlan(tuple(subs))
    f_start = _get(section, "band", "f_start_hz", float)
    f_stop = _get(section, "band", "f_stop_hz", float)
    n_subwindows = _get(section, "band", "n_subwindows", int)
    if n_subwindows > _MAX_SUBWINDOWS:
        raise ValueError(f"n_subwindows must be <= {_MAX_SUBWINDOWS:,}, got {n_subwindows:,}")
    table_ref = _get(section, "band", "absorption_table", str, "bundled")
    try:
        table = bundled_absorption_table() if table_ref == "bundled" else AbsorptionTable.from_csv(table_ref)
    except OSError as exc:
        raise ScenarioError(f"band: absorption_table {table_ref!r}: {exc.strerror or exc}") from exc
    return uniform_band(f_start, f_stop, n_subwindows, table)


def _parse_link_params(section: dict) -> LinkParams:
    ctx = "link_params"
    if "gt_linear" in section:
        gt, gr = (_get(section, ctx, key, float) for key in ("gt_linear", "gr_linear"))
    else:
        gt, gr = (float(db_to_linear(_get(section, ctx, key, float))) for key in ("gain_tx_dbi", "gain_rx_dbi"))
    n0, p_total = (
        _get(section, ctx, key, float) if key in section else float(dbm_to_watts(_get(section, ctx, dbm, float)))
        for key, dbm in ((_KEYS["n0"], "noise_psd_dbm_per_hz"), (_KEYS["p_total"], "p_total_dbm"))
    )
    c = _get(section, ctx, _KEYS["c"], float, LinkParams.c)
    return LinkParams(gt_linear=gt, gr_linear=gr, n0=n0, p_total=p_total, c=c)


def _parse_devices(entries, bandwidth: float, n_subwindows: int) -> tuple[DeviceSpec, ...]:
    """The device list, expanded by each entry's `count`; the running total
    is checked against the subwindows before any entry is expanded."""
    if not entries or not isinstance(entries, list):
        raise ScenarioError("devices: must be a non-empty list")
    devices = []
    for i, row in enumerate(entries):
        ctx = f"devices[{i}]"
        count = _get(row, ctx, "count", int, 1)
        if count < 1:
            raise ScenarioError(f"{ctx}.count: must be >= 1")
        if len(devices) + count > n_subwindows:
            raise ScenarioError(
                f"{ctx}.count: {len(devices) + count} devices exceed {n_subwindows} subwindows"
            )
        if _KEYS["rate_req"] in row:
            req = _get(row, ctx, _KEYS["rate_req"], float)
        elif "rate_req_bps_per_hz" in row:
            req = _get(row, ctx, "rate_req_bps_per_hz", float) * bandwidth
        else:
            req = DeviceSpec.rate_req
        key = _KEYS["fixed_distance"]
        dist = None if row.get(key) is None else _get(row, ctx, key, float)
        try:
            dev = DeviceSpec(rate_req=req, fixed_distance=dist)
        except ValueError as exc:
            raise ScenarioError(f"{ctx}: {exc}") from exc
        devices.extend([dev] * count)
    return tuple(devices)


def _parse_solver(section: dict) -> SolverConfig:
    """Unknown keys are ignored, so older files that still carry the retired
    `seed` and `bisect_rel_tol` keys load unchanged."""
    return SolverConfig(**{
        f.name: _get(section, "solver", _KEYS.get(f.name, f.name), type(f.default), f.default)
        for f in fields(SolverConfig)
    })


def _parse_experiment(section: dict) -> ExperimentSpec:
    strategies = section.get("strategies", list(ExperimentSpec.strategies))
    if not isinstance(strategies, list) or not all(isinstance(s, str) for s in strategies):
        raise ScenarioError(f"experiment.strategies: must be a list of strategy names, got {strategies!r}")
    return ExperimentSpec(
        kind=_get(section, "experiment", "kind", str),
        grid=_get(section, "experiment", "grid", tuple),
        trials=_get(section, "experiment", "trials", int, ExperimentSpec.trials),
        seed=_get(section, "experiment", "seed", int, ExperimentSpec.seed),
        strategies=tuple(strategies),
    )


def scenario_from_dict(doc: dict) -> tuple[Scenario, ExperimentSpec]:
    """Parse a scenario document; ScenarioError names the malformed section or field."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"the scenario must be a JSON object, got {type(doc).__name__}")
    for key in ("band", "link_params", "devices"):
        if key not in doc:
            raise ScenarioError(f"missing top-level section {key!r}")
    for key in ("band", "link_params", "solver", "experiment"):
        _object(doc.get(key, {}), key)
    section = "band"
    try:
        band = _parse_band(doc["band"])
        section = "link_params"
        params = _parse_link_params(doc["link_params"])
        section = "solver"
        config = _parse_solver(doc.get("solver", {}))
        section = "devices"
        devices = _parse_devices(doc["devices"], band.bandwidth, band.n)
        scenario = Scenario(band=band, params=params, devices=devices, config=config)
        section = "experiment"
        experiment = _parse_experiment(doc.get("experiment", {"kind": "tc_vs_power", "grid": [30.0]}))
        if experiment.kind == "tc_vs_devices" and experiment.grid[-1] > band.n:
            raise ScenarioError(f"experiment.grid: {experiment.grid[-1]:g} devices exceed {band.n} subwindows")
    except ScenarioError:
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        raise ScenarioError(f"{section}: {exc}") from exc
    return scenario, experiment


def load_scenario(path) -> tuple[Scenario, ExperimentSpec]:
    """Parse a scenario JSON file; ScenarioError names a path it cannot read."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not a text file: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an int literal past `int`'s digit limit, which json.load does not wrap
        raise ScenarioError(f"{path}: invalid JSON: {str(exc).partition(';')[0]}") from exc
    return scenario_from_dict(doc)


def _rows(cls, objs) -> list[dict]:
    """Each `cls` instance in `objs` as a JSON object under the `_KEYS`
    names, tuples as lists."""
    keys = [(f.name, _KEYS.get(f.name, f.name)) for f in fields(cls)]
    return [{key: list(v) if type(v := getattr(obj, name)) is tuple else v for name, key in keys} for obj in objs]


def scenario_to_dict(scenario: Scenario, experiment: ExperimentSpec) -> dict:
    """Canonical (linear-unit) form; round-trips exactly through JSON."""
    return {
        "band": {"subwindows": _rows(Subwindow, scenario.band.subwindows)},
        "link_params": _rows(LinkParams, [scenario.params])[0],
        "devices": _rows(DeviceSpec, scenario.devices),
        "solver": _rows(SolverConfig, [scenario.config])[0],
        "experiment": _rows(ExperimentSpec, [experiment])[0],
    }


def save_scenario(scenario: Scenario, experiment: ExperimentSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(scenario, experiment), fh, indent=2)
        fh.write("\n")


def default_scenario() -> tuple[Scenario, ExperimentSpec]:
    """The checked-in desk-scale default: 100 x 1 GHz subwindows over
    500-600 GHz, -168 dBm/Hz noise density, 15 dBi antennas."""
    path = resources.files("tera_tc").joinpath("data/default_scenario.json")
    with resources.as_file(path) as p:
        return load_scenario(p)
