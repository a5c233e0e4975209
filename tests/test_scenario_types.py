"""The scenario loader's typed boundary: each JSON value must have its
field's type, or the load fails naming the section and key; every value of
the right type reads to the same bits as a plain `float(value)` or
`int(value)` would give."""

import copy
import json
import math
import os
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tera_tc.scenario as scenario_module
from tera_tc.channel import AbsorptionTable, bundled_absorption_table
from tera_tc.cli import main
from tera_tc.scenario import ScenarioError, scenario_from_dict, uniform_band
from tera_tc.units import db_to_linear, dbm_to_watts

BIG = 10**400  # a JSON int past the float range

#: A small scenario in the logarithmic input form: generated band, dB link
#: parameters, a per-Hz rate floor and a device count.
LOG = {
    "band": {"f_start_hz": 5e11, "f_stop_hz": 5.1e11, "n_subwindows": 10, "absorption_table": "bundled"},
    "link_params": {"gain_tx_dbi": 15.0, "gain_rx_dbi": 15.0, "noise_psd_dbm_per_hz": -168.0, "p_total_dbm": 30.0},
    "devices": [{"count": 4, "rate_req_bps_per_hz": 1.0}],
    "solver": {"alpha": 0.7, "eps": 1e-6, "m_out": 5, "d_init_m": 10.0},
    "experiment": {"kind": "tc_vs_power", "grid": [20.0, 30.0], "trials": 1, "seed": 0, "strategies": ["proposed"]},
}

#: The same kind of scenario in the canonical linear form, with every field
#: spelled out.
CANONICAL = {
    "band": {"subwindows": [{"frequency_hz": 5e11, "bandwidth_hz": 1e9, "k_abs_per_m": 0.1}]},
    "link_params": {
        "gt_linear": 31.6, "gr_linear": 31.6, "n0_w_per_hz": 1.6e-21, "p_total_w": 10.0, "c_m_per_s": 299792458.0,
    },
    "devices": [{"rate_req_bps": 1e9, "fixed_distance_m": 5.0}],
    "solver": {
        "alpha": 0.7, "eps": 1e-6, "eps_relative": True, "m_out": 5,
        "d_init_m": 10.0, "max_inner": 500, "d_min_m": 1e-3, "enum_cap": 100,
    },
    "experiment": {"kind": "tc_vs_power", "grid": [20.0], "trials": 1, "seed": 0, "strategies": ["proposed"]},
}

FORMS = {"log": LOG, "canonical": CANONICAL}


def _target(doc, section):
    """The object in `section` whose keys the tests change: the section
    itself, or the first device or subwindow."""
    if section == "devices":
        return doc["devices"][0]
    if section == "band" and "subwindows" in doc["band"]:
        return doc["band"]["subwindows"][0]
    return doc[section]


def _with(form, section, key, value):
    doc = copy.deepcopy(FORMS[form])
    _target(doc, section)[key] = value
    return doc


def _default_doc():
    path = resources.files("tera_tc").joinpath("data/default_scenario.json")
    return json.loads(path.read_text())


#: Each wrong-typed value the loader once let through, or failed on without
#: naming the field, in the default scenario: (section, key, value).
DEFECTS = [
    ("band", "absorption_table", 2),
    ("band", "absorption_table", 0),
    ("band", "absorption_table", True),
    ("link_params", "p_total_dbm", "40"),
    ("solver", "alpha", "0.5"),
    ("link_params", "p_total_dbm", True),
    ("devices", "rate_req_bps_per_hz", True),
    ("experiment", "grid", "123"),
    ("experiment", "grid", [True, 2]),
    ("link_params", "p_total_w", BIG),
    ("experiment", "trials", BIG),
    ("band", "f_start_hz", BIG),
    ("link_params", "gain_tx_dbi", BIG),
    ("solver", "alpha", BIG),
    ("experiment", "kind", ["tc_vs_power"]),
    ("band", "n_subwindows", 1_000_001),  # past the generated band's cap
]
DEFECT_IDS = [f"{s}.{k}={'BIG' if v is BIG else json.dumps(v)}" for s, k, v in DEFECTS]


def _default_with(section, key, value):
    doc = _default_doc()
    _target(doc, section)[key] = value
    return doc


@pytest.mark.parametrize("section, key, value", DEFECTS, ids=DEFECT_IDS)
def test_defect_names_its_section_and_key(section, key, value):
    with pytest.raises(ScenarioError, match=f"^{section}: {key}"):
        scenario_from_dict(_default_with(section, key, value))


@pytest.mark.parametrize("section, key, value", DEFECTS, ids=DEFECT_IDS)
def test_defect_exits_2_in_validate_and_run(tmp_path, capsys, section, key, value):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(_default_with(section, key, value)))
    out = tmp_path / "out"
    assert main(["validate", "--spec", str(spec)]) == 2
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"error: {section}: {key}") == 2 and "Traceback" not in err
    assert not out.exists()


def _numeric_fields():
    for form, doc in FORMS.items():
        for section in doc:
            for key, value in _target(doc, section).items():
                if type(value) in (int, float):
                    yield form, section, key


@pytest.mark.parametrize("form, section, key", list(_numeric_fields()))
@pytest.mark.parametrize("value", ["40", True, BIG], ids=["string", "true", "400_digits"])
def test_every_numeric_field_rejects_a_non_number(form, section, key, value):
    with pytest.raises(ScenarioError, match=f"^{section}: {key} must be "):
        scenario_from_dict(_with(form, section, key, value))


@pytest.mark.parametrize(
    "form, section, key, value, pattern",
    [
        ("canonical", "solver", "eps_relative", "false", "true or false"),
        ("canonical", "solver", "eps_relative", 0, "true or false"),
        ("canonical", "solver", "eps_relative", BIG, "true or false"),
        ("log", "band", "absorption_table", 1, "a string"),
        ("log", "experiment", "kind", 5, "a string"),
        ("log", "experiment", "grid", ["20"], "a number"),
        ("log", "experiment", "grid", [20, BIG], "within float range"),
        ("log", "experiment", "grid", {"a": 20}, "a list of numbers"),
        ("canonical", "devices", "fixed_distance_m", "5", "a number"),
    ],
)
def test_non_numeric_fields_take_only_their_type(form, section, key, value, pattern):
    with pytest.raises(ScenarioError, match=f"^{section}: {key}.* must be {pattern}"):
        scenario_from_dict(_with(form, section, key, value))


def test_null_fixed_distance_reads_as_none():
    scenario, _ = scenario_from_dict(_with("canonical", "devices", "fixed_distance_m", None))
    assert scenario.devices[0].fixed_distance is None


def test_overflowing_noise_density_keeps_the_finiteness_message():
    text = json.dumps(CANONICAL).replace('"n0_w_per_hz": 1.6e-21', '"n0_w_per_hz": 1e400')
    with pytest.raises(ScenarioError, match="^link_params: LinkParams.n0 must be finite"):
        scenario_from_dict(json.loads(text))


def test_subwindow_cap_is_checked_before_the_band_is_built(monkeypatch):
    def fail(*args):
        raise AssertionError("uniform_band called")

    monkeypatch.setattr(scenario_module, "uniform_band", fail)
    with pytest.raises(ScenarioError, match=r"^band: n_subwindows must be <= 1,000,000, got 1,000,001$"):
        scenario_from_dict(_with("log", "band", "n_subwindows", 1_000_001))


@pytest.mark.parametrize("value", [0, 1, 2, True])
def test_non_string_absorption_table_opens_no_file(monkeypatch, value):
    """0, 1 and 2 are the standard streams' descriptors, which `open`
    would take as files."""

    def fail(*args):
        raise AssertionError("absorption table read")

    monkeypatch.setattr(AbsorptionTable, "from_csv", fail)
    with pytest.raises(ScenarioError, match="^band: absorption_table must be a string"):
        scenario_from_dict(_with("log", "band", "absorption_table", value))


def test_validate_reports_an_integer_absorption_table_on_stderr(tmp_path):
    """With `2` as the table, the error still reaches stderr (descriptor 2)."""
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(_default_with("band", "absorption_table", 2)))
    src = os.path.dirname(os.path.dirname(scenario_module.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "tera_tc.cli", "validate", "--spec", str(spec)],
        env=env, capture_output=True, text=True, stdin=subprocess.DEVNULL,
    )
    assert out.returncode == 2
    assert out.stderr == "error: band: absorption_table must be a string, got 2\n"


def _numbers(lo, hi):
    """JSON ints and floats in [lo, hi]."""
    return st.one_of(st.integers(math.ceil(lo), math.floor(hi)), st.floats(lo, hi))


def _whole(lo, hi):
    """JSON ints in [lo, hi], and the same values written as floats."""
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi).map(float))


FLOAT_MAX = sys.float_info.max
INT_MAX = int(FLOAT_MAX)

#: (form, section, key, values, what the key reads to, what it must equal):
#: the expectation is the plain conversion that the loader applied to every
#: accepted number before its types were checked.
NUMBER_FIELDS = [
    ("log", "band", "f_start_hz", _numbers(4.95e11, 5.05e11), lambda s, e: s.band.subwindows[0].frequency,
     lambda v: uniform_band(float(v), 5.1e11, 10, bundled_absorption_table()).subwindows[0].frequency),
    ("log", "band", "f_stop_hz", _numbers(5.05e11, 6.05e11), lambda s, e: s.band.subwindows[-1].frequency,
     lambda v: uniform_band(5e11, float(v), 10, bundled_absorption_table()).subwindows[-1].frequency),
    ("log", "link_params", "gain_tx_dbi", _numbers(-300, 300), lambda s, e: s.params.gt_linear,
     lambda v: float(db_to_linear(v))),
    ("log", "link_params", "gain_rx_dbi", _numbers(-300, 300), lambda s, e: s.params.gr_linear,
     lambda v: float(db_to_linear(v))),
    ("log", "link_params", "noise_psd_dbm_per_hz", _numbers(-300, 300), lambda s, e: s.params.n0,
     lambda v: float(dbm_to_watts(v))),
    ("log", "link_params", "p_total_dbm", _numbers(-300, 300), lambda s, e: s.params.p_total,
     lambda v: float(dbm_to_watts(v))),
    ("log", "devices", "rate_req_bps_per_hz", _numbers(0, 1000), lambda s, e: s.devices[0].rate_req,
     lambda v: float(v) * 1e9),
    ("canonical", "band", "frequency_hz", _numbers(1e-300, FLOAT_MAX), lambda s, e: s.band.subwindows[0].frequency, float),
    ("canonical", "band", "bandwidth_hz", _numbers(1e7, FLOAT_MAX), lambda s, e: s.band.bandwidth, float),
    ("canonical", "band", "k_abs_per_m", _numbers(0, FLOAT_MAX), lambda s, e: s.band.subwindows[0].k_abs, float),
    ("canonical", "link_params", "gt_linear", _numbers(1e-300, FLOAT_MAX), lambda s, e: s.params.gt_linear, float),
    ("canonical", "link_params", "gr_linear", _numbers(1e-300, FLOAT_MAX), lambda s, e: s.params.gr_linear, float),
    ("canonical", "link_params", "n0_w_per_hz", _numbers(1e-300, FLOAT_MAX), lambda s, e: s.params.n0, float),
    ("canonical", "link_params", "p_total_w", _numbers(1e-300, FLOAT_MAX), lambda s, e: s.params.p_total, float),
    ("canonical", "link_params", "c_m_per_s", _numbers(1e-300, FLOAT_MAX), lambda s, e: s.params.c, float),
    ("canonical", "devices", "rate_req_bps", _numbers(0, 1e11), lambda s, e: s.devices[0].rate_req, float),
    ("canonical", "devices", "fixed_distance_m", _numbers(1e-300, FLOAT_MAX),
     lambda s, e: s.devices[0].fixed_distance, float),
    ("canonical", "solver", "alpha", _numbers(0, 0.999), lambda s, e: s.config.alpha, float),
    ("canonical", "solver", "eps", _numbers(0, FLOAT_MAX), lambda s, e: s.config.eps, float),
    ("canonical", "solver", "d_init_m", _numbers(1e-300, FLOAT_MAX), lambda s, e: s.config.d_init, float),
    ("canonical", "solver", "d_min_m", _numbers(1e-300, FLOAT_MAX), lambda s, e: s.config.d_min, float),
    ("canonical", "experiment", "grid", _numbers(-300, 300).map(lambda v: [v]), lambda s, e: e.grid[0],
     lambda v: float(v[0])),
]

WHOLE_FIELDS = [
    ("log", "band", "n_subwindows", _whole(4, 40), lambda s, e: s.band.n),
    ("log", "devices", "count", _whole(1, 10), lambda s, e: s.n_devices),
    ("canonical", "solver", "m_out", _whole(1, INT_MAX), lambda s, e: s.config.m_out),
    ("canonical", "solver", "max_inner", _whole(1, INT_MAX), lambda s, e: s.config.max_inner),
    ("canonical", "solver", "enum_cap", _whole(1, INT_MAX), lambda s, e: s.config.enum_cap),
    ("canonical", "experiment", "trials", _whole(1, INT_MAX), lambda s, e: e.trials),
    ("canonical", "experiment", "seed", _whole(0, INT_MAX), lambda s, e: e.seed),
]


@pytest.mark.parametrize(
    "form, section, key, values, read, expected", NUMBER_FIELDS, ids=[f"{f[1]}.{f[2]}" for f in NUMBER_FIELDS]
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_number_fields_read_to_the_plain_float_bits(data, form, section, key, values, read, expected):
    value = data.draw(values)
    got = read(*scenario_from_dict(_with(form, section, key, value)))
    want = expected(value)
    assert type(got) is float and got.hex() == want.hex()


@pytest.mark.parametrize(
    "form, section, key, values, read", WHOLE_FIELDS, ids=[f"{f[1]}.{f[2]}" for f in WHOLE_FIELDS]
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_whole_number_fields_read_to_the_plain_int(data, form, section, key, values, read):
    value = data.draw(values)
    got = read(*scenario_from_dict(_with(form, section, key, value)))
    assert type(got) is int and got == int(value)



def test_int_literal_past_the_digit_limit_exits_2(tmp_path, capsys):
    """`json.load` raises a bare ValueError, not a JSONDecodeError, for an
    int literal longer than `int` converts."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("this interpreter has no int digit limit")
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(_default_doc()).replace('"trials": 1', '"trials": ' + "1" * (limit + 1)))
    assert main(["validate", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {spec}: invalid JSON: ")
