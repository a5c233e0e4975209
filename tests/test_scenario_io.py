"""Scenario file parsing, canonical round trips, and validation errors."""

import json
import math
import warnings

import numpy as np
import pytest

from tera_tc.channel import bundled_absorption_table
from tera_tc.distance_power import SolverConfig
from tera_tc.scenario import (
    KINDS,
    ExperimentSpec,
    ScenarioError,
    default_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    uniform_band,
)


def minimal_doc(**overrides):
    doc = {
        "band": {
            "f_start_hz": 5e11,
            "f_stop_hz": 5.1e11,
            "n_subwindows": 10,
            "absorption_table": "bundled",
        },
        "link_params": {
            "gain_tx_dbi": 15.0,
            "gain_rx_dbi": 15.0,
            "noise_psd_dbm_per_hz": -168.0,
            "p_total_dbm": 30.0,
        },
        "devices": [{"count": 4, "rate_req_bps_per_hz": 1.0}],
        "experiment": {"kind": "tc_vs_power", "grid": [20.0, 30.0]},
    }
    doc.update(overrides)
    return doc


def test_default_scenario():
    scenario, spec = default_scenario()
    assert scenario.n_devices == 100
    assert scenario.band.n == 100
    assert scenario.band.bandwidth == 1e9
    assert scenario.params.p_total == pytest.approx(10.0)  # 40 dBm
    assert scenario.config.alpha == 0.7
    assert scenario.config.m_out == 5
    assert spec.kind == "tc_vs_power"
    assert spec.strategies == ("proposed", "distmax", "nonadaptive")


def test_uniform_band_centers():
    band = uniform_band(5e11, 5.1e11, 10, bundled_absorption_table())
    assert band.n == 10
    assert band.bandwidth == pytest.approx(1e9)
    assert band.frequencies[0] == pytest.approx(5.005e11)
    assert band.frequencies[-1] == pytest.approx(5.095e11)


def test_db_inputs_converted():
    scenario, _ = scenario_from_dict(minimal_doc())
    assert scenario.params.gt_linear == pytest.approx(10.0**1.5)
    assert scenario.params.n0 == pytest.approx(10.0 ** ((-168.0 - 30.0) / 10.0))
    assert scenario.params.p_total == pytest.approx(1.0)
    # rate_req in bps/Hz scales by the subwindow bandwidth.
    assert scenario.devices[0].rate_req == pytest.approx(1e9)


def test_round_trip_bit_exact(tmp_path):
    scenario, spec = scenario_from_dict(minimal_doc())
    path = tmp_path / "scenario.json"
    save_scenario(scenario, spec, path)
    loaded, loaded_spec = load_scenario(path)
    assert loaded == scenario
    assert loaded_spec == spec
    assert scenario_to_dict(loaded, loaded_spec) == scenario_to_dict(scenario, spec)


def test_explicit_subwindows():
    doc = minimal_doc(
        band={
            "subwindows": [
                {"frequency_hz": 5e11, "bandwidth_hz": 1e9, "k_abs_per_m": 0.1},
                {"frequency_hz": 5.01e11, "bandwidth_hz": 1e9, "k_abs_per_m": 0.2},
            ]
        },
        devices=[{"rate_req_bps": 1e9}, {"fixed_distance_m": 5.0}],
    )
    scenario, _ = scenario_from_dict(doc)
    assert scenario.band.n == 2
    assert scenario.devices[1].fixed_distance == 5.0


def test_empty_devices_rejected():
    with pytest.raises(ScenarioError, match="devices"):
        scenario_from_dict(minimal_doc(devices=[]))


def test_missing_section_rejected():
    doc = minimal_doc()
    del doc["band"]
    with pytest.raises(ScenarioError, match="band"):
        scenario_from_dict(doc)


def test_missing_field_rejected():
    doc = minimal_doc()
    del doc["band"]["f_stop_hz"]
    with pytest.raises(ScenarioError, match="f_stop_hz"):
        scenario_from_dict(doc)


def test_unknown_experiment_kind():
    with pytest.raises(ScenarioError, match="kind"):
        ExperimentSpec(kind="nope", grid=(1.0,))


def test_unknown_strategy():
    with pytest.raises(ScenarioError, match="strategy"):
        ExperimentSpec(kind="tc_vs_power", grid=(1.0,), strategies=("bogus",))


def test_unsorted_grid_rejected():
    with pytest.raises(ScenarioError, match="grid"):
        ExperimentSpec(kind="tc_vs_power", grid=(30.0, 20.0))


def test_bad_trials_rejected():
    with pytest.raises(ScenarioError, match="trials"):
        ExperimentSpec(kind="tc_vs_power", grid=(20.0,), trials=0)


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "band": [,\n}\n')
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)


def test_too_many_devices_rejected():
    doc = minimal_doc(devices=[{"count": 11, "rate_req_bps_per_hz": 1.0}])
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_custom_absorption_table(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("frequency_hz,k_abs_per_m\n4.9e11,0.1\n5.2e11,0.1\n")
    doc = minimal_doc()
    doc["band"]["absorption_table"] = str(table)
    scenario, _ = scenario_from_dict(doc)
    assert np.allclose(scenario.band.k_abs, 0.1)


def test_retired_solver_keys_still_load():
    doc = minimal_doc(solver={"alpha": 0.6, "seed": 7, "bisect_rel_tol": 1e-8})
    scenario, spec = scenario_from_dict(doc)
    assert scenario.config.alpha == 0.6
    solver = scenario_to_dict(scenario, spec)["solver"]
    assert "seed" not in solver and "bisect_rel_tol" not in solver


def test_band_domain_error_names_band():
    doc = minimal_doc(
        band={"subwindows": [{"frequency_hz": 5e11, "bandwidth_hz": 1e9, "k_abs_per_m": -0.1}]},
        devices=[{"rate_req_bps": 1e9}],
    )
    with pytest.raises(ScenarioError, match="^band: "):
        scenario_from_dict(doc)


def test_bad_solver_range_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="solver.*m_out"):
        scenario_from_dict(minimal_doc(solver={"m_out": 0}))


def test_link_params_domain_error_names_link_params():
    doc = minimal_doc()
    doc["link_params"]["p_total_w"] = -1.0
    with pytest.raises(ScenarioError, match="^link_params: "):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "fields, name",
    [
        ({"p_total_dbm": 1e4}, "p_total"),
        ({"p_total_w": math.inf}, "p_total"),
        ({"gain_tx_dbi": 1e4}, "gt_linear"),
        ({"gain_rx_dbi": 1e4}, "gr_linear"),
        ({"gt_linear": math.inf, "gr_linear": 1.0}, "gt_linear"),
        ({"gt_linear": 1.0, "gr_linear": math.inf}, "gr_linear"),
        ({"noise_psd_dbm_per_hz": 1e4}, "n0"),
        ({"n0_w_per_hz": 1e400}, "n0"),
        ({"c_m_per_s": math.inf}, "c"),
    ],
)
def test_infinite_link_params_rejected(fields, name):
    doc = minimal_doc()
    doc["link_params"].update(fields)
    with pytest.raises(ScenarioError, match=f"^link_params: LinkParams.{name} must be finite"):
        scenario_from_dict(doc)


@pytest.mark.parametrize(
    "key, value, name",
    [
        ("d_min_m", math.nan, "d_min"),
        ("d_min_m", 0.0, "d_min"),
        ("d_min_m", -1.0, "d_min"),
        ("d_min_m", math.inf, "d_min"),
        ("eps", math.nan, "eps"),
        ("eps", -1.0, "eps"),
        ("eps", math.inf, "eps"),
    ],
)
def test_solver_d_min_and_eps_ranges(key, value, name):
    with pytest.raises(ScenarioError, match=f"^solver: {name} must be finite"):
        scenario_from_dict(minimal_doc(solver={key: value}))


def test_device_count_bounded_before_expansion():
    with pytest.raises(ScenarioError, match=r"^devices\[0\]\.count: 11 devices exceed 10"):
        scenario_from_dict(minimal_doc(devices=[{"count": 11}]))
    with pytest.raises(ScenarioError, match=r"^devices\[1\]\.count: 11 devices exceed 10"):
        scenario_from_dict(minimal_doc(devices=[{"count": 6}, {"count": 5}]))


@pytest.mark.parametrize(
    "section, fields, pattern",
    [
        ("experiment", {"grid": ["abc"]}, "^experiment: "),
        ("experiment", {"grid": 30}, "^experiment: "),
        ("experiment", {"grid": [math.nan]}, r"^experiment\.grid: "),
        ("experiment", {"trials": "x"}, "^experiment: trials "),
        ("devices", {"rate_req_bps_per_hz": "abc"}, "^devices: "),
        ("devices", {"count": 1.7}, "^devices: count "),
        (None, {"devices": {"a": 1}}, "^devices: "),
        ("link_params", {"p_total_dbm": "abc"}, "^link_params: "),
        ("band", {"f_start_hz": None}, "^band: "),
        ("band", {"n_subwindows": 0}, "^band: n_subwindows "),
        ("solver", {"m_out": 2.7}, "^solver: m_out "),
        ("solver", {"eps_relative": "false"}, "^solver: eps_relative "),
        ("experiment", {"strategies": "proposed"}, r"^experiment\.strategies: must be a list"),
        ("experiment", {"strategies": ["proposed", 1]}, r"^experiment\.strategies: must be a list"),
        (None, {"devices": [1]}, r"^devices\[0\]: must be an object$"),
        (None, {"devices": [{"count": 2}, "x"]}, r"^devices\[1\]: must be an object$"),
        ("experiment", {"seed": -3}, r"^experiment\.seed: "),
        ("link_params", {"gt_linear": 31.6}, r"^link_params: missing required field 'gr_linear'$"),
        (None, {"band": 5}, r"^band: must be an object$"),
        (None, {"link_params": 5}, r"^link_params: must be an object$"),
        (None, {"solver": [1]}, r"^solver: must be an object$"),
        (None, {"experiment": 3}, r"^experiment: must be an object$"),
        ("band", {"subwindows": 3}, r"^band\.subwindows: must be a list$"),
        ("band", {"subwindows": [1]}, r"^band\.subwindows\[0\]: must be an object$"),
        ("solver", {"enum_cap": 0}, r"^solver: .*enum_cap"),
        ("experiment", {"strategies": []}, r"^experiment\.strategies: "),
    ],
)
def test_wrong_typed_field_names_its_section(section, fields, pattern):
    doc = minimal_doc(solver={})
    target = doc if section is None else doc["devices"][0] if section == "devices" else doc[section]
    target.update(fields)
    with pytest.raises(ScenarioError, match=pattern):
        scenario_from_dict(doc)


@pytest.mark.parametrize("kind", KINDS)
def test_empty_strategy_list_rejected_for_every_kind(kind):
    with pytest.raises(ScenarioError, match=r"^experiment\.strategies: "):
        ExperimentSpec(kind=kind, grid=(1.0,), strategies=())


def test_missing_strategies_default_to_the_spec_default():
    doc = minimal_doc()
    assert "strategies" not in doc["experiment"]
    assert scenario_from_dict(doc)[1].strategies == ExperimentSpec.strategies


@pytest.mark.parametrize("kind", KINDS)
def test_strategy_listed_twice_rejected_for_every_kind(kind):
    with pytest.raises(ScenarioError, match=r"^experiment\.strategies: 'distmax' listed twice$"):
        ExperimentSpec(kind=kind, grid=(1.0,), strategies=("distmax", "distmax"))


def test_scenario_to_dict_key_names_and_order():
    """The canonical file's keys, in order, at every level; tuples are
    written as lists."""
    scenario, spec = default_scenario()
    doc = scenario_to_dict(scenario, spec)
    assert list(doc) == ["band", "link_params", "devices", "solver", "experiment"]
    assert list(doc["band"]) == ["subwindows"]
    assert len(doc["band"]["subwindows"]) == 100
    for row in doc["band"]["subwindows"]:
        assert list(row) == ["frequency_hz", "bandwidth_hz", "k_abs_per_m"]
    assert list(doc["link_params"]) == ["gt_linear", "gr_linear", "n0_w_per_hz", "p_total_w", "c_m_per_s"]
    assert len(doc["devices"]) == 100
    for row in doc["devices"]:
        assert list(row) == ["rate_req_bps", "fixed_distance_m"]
    assert list(doc["solver"]) == [
        "alpha", "eps", "eps_relative", "m_out", "d_init_m", "max_inner", "d_min_m", "enum_cap"
    ]
    assert list(doc["experiment"]) == ["kind", "grid", "trials", "seed", "strategies"]
    assert doc["experiment"]["grid"] == [20.0, 25.0, 30.0, 35.0, 40.0]
    assert doc["experiment"]["strategies"] == ["proposed", "distmax", "nonadaptive"]


def test_omitted_solver_and_experiment_fields_take_the_dataclass_defaults():
    doc = minimal_doc()
    doc["experiment"] = {"kind": "tc_vs_power", "grid": [30.0]}
    scenario, spec = scenario_from_dict(doc)
    assert scenario.config == SolverConfig()
    assert spec == ExperimentSpec(kind="tc_vs_power", grid=(30.0,))


def test_rate_floor_whose_snr_overflows_names_devices():
    doc = minimal_doc(devices=[{"count": 2, "rate_req_bps_per_hz": 1.0}, {"rate_req_bps_per_hz": 1100.0}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match=r"^devices: device 2: rate_req of 1100 bps/Hz "):
            scenario_from_dict(doc)
        doc["devices"][1]["rate_req_bps_per_hz"] = 1023.0
        assert scenario_from_dict(doc)[0].n_devices == 3
