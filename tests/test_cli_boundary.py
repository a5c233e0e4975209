"""The CLI and scenario loader turn bad inputs into exit code 2 with a message."""

import csv
import json
import os
import warnings
from importlib import resources

import pytest

from tera_tc.cli import main
from tera_tc.scenario import ScenarioError, scenario_from_dict

LINK_CURVE = ["link-curve", "--f", "5e11", "--kabs", "0.1", "--power", "10"]


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--d-min", "0"], "--d-min"),
        (["--d-min", "-1"], "--d-min"),
        (["--d-min", "nan"], "--d-min"),
        (["--d-min", "5", "--d-max", "5"], "--d-max"),
        (["--d-min", "5", "--d-max", "1"], "--d-max"),
        (["--d-max", "inf"], "--d-max"),
    ],
)
def test_link_curve_rejects_bad_distance_range(tmp_path, capsys, extra, flag):
    out = tmp_path / "curve.csv"
    assert main(LINK_CURVE + extra + ["--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--power", "nan"], "--power"),
        (["--power", "1e4"], "--power"),
        (["--f", "nan"], "--f"),
        (["--kabs", "-1"], "--kabs"),
        (["--bandwidth", "0"], "--bandwidth"),
        (["--gain-dbi", "1e4"], "--gain-dbi"),
        (["--noise-dbm-per-hz", "1e4"], "--noise-dbm-per-hz"),
    ],
)
def test_link_curve_rejects_bad_link_flags(tmp_path, capsys, extra, flag):
    out = tmp_path / "curve.csv"
    assert main(LINK_CURVE + extra + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()


@pytest.mark.parametrize("points", ["-1", "0", "1"])
def test_link_curve_rejects_too_few_points(tmp_path, capsys, points):
    out = tmp_path / "curve.csv"
    assert main(LINK_CURVE + ["--points", points, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --points: ")
    assert not out.exists()


def test_huge_db_inputs_fail_without_a_numpy_warning(tmp_path, capsys):
    spec = tmp_path / "scenario.json"
    doc = json.dumps(_doc_with_table("bundled"))
    spec.write_text(doc.replace('"p_total_dbm": 30.0', '"p_total_dbm": 1e4'))
    out = tmp_path / "curve.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(LINK_CURVE[:-1] + ["1e4", "--out", str(out)]) == 2
        assert main(["validate", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "error: --power: " in err and "p_total" in err.split("\n")[1]


def test_validate_exits_2_on_infinite_noise_density(tmp_path, capsys):
    spec = tmp_path / "scenario.json"
    doc = json.dumps(_doc_with_table("bundled"))
    spec.write_text(doc.replace('"noise_psd_dbm_per_hz": -168.0', '"n0_w_per_hz": 1e400'))
    assert main(["validate", "--spec", str(spec)]) == 2
    assert "LinkParams.n0" in capsys.readouterr().err


def test_link_curve_default_range_still_writes(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(LINK_CURVE + ["--points", "5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 5 + 1  # header, grid, optimum


def test_link_curve_optimum_below_a_nanometre(tmp_path):
    """At -220 dBm without absorption the optimum sits near 6e-11 m."""
    out = tmp_path / "curve.csv"
    argv = ["link-curve", "--f", "5e11", "--kabs", "0", "--power", "-220"]
    assert main(argv + ["--points", "5", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        optimum = list(csv.DictReader(fh))[-1]
    assert optimum["is_optimum"] == "1"
    assert 0.0 < float(optimum["distance_m"]) < 1e-8


@pytest.mark.parametrize("workers", ["0", "-1", str((os.cpu_count() or 1) + 1), "1000000"])
def test_run_rejects_parallel_outside_cpu_count(tmp_path, capsys, workers):
    # Rejected before the scenario loads, so no pool of that size is ever started.
    out = tmp_path / "out"
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(_doc_with_table("bundled")))
    assert main(["run", "--spec", str(spec), "--out", str(out), "--parallel", workers]) == 2
    assert capsys.readouterr().err.startswith("error: --parallel: ")
    assert not out.exists()


def test_run_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "out"
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(_doc_with_table("bundled")))
    assert main(["run", "--spec", str(spec), "--out", str(out), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: --seed: ")
    assert not out.exists()


def _doc_with_table(path):
    return {
        "band": {
            "f_start_hz": 5e11,
            "f_stop_hz": 5.1e11,
            "n_subwindows": 4,
            "absorption_table": str(path),
        },
        "link_params": {
            "gain_tx_dbi": 15.0,
            "gain_rx_dbi": 15.0,
            "noise_psd_dbm_per_hz": -168.0,
            "p_total_dbm": 30.0,
        },
        "devices": [{"count": 2, "rate_req_bps_per_hz": 1.0}],
    }


def test_missing_absorption_table_names_band_and_path(tmp_path):
    missing = tmp_path / "no_such_table.csv"
    with pytest.raises(ScenarioError, match="^band: ") as err:
        scenario_from_dict(_doc_with_table(missing))
    assert str(missing) in str(err.value)


def test_validate_exits_2_on_missing_absorption_table(tmp_path, capsys):
    missing = tmp_path / "no_such_table.csv"
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(_doc_with_table(missing)))
    assert main(["validate", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert "band" in err and str(missing) in err


def _default_doc():
    path = resources.files("tera_tc").joinpath("data/default_scenario.json")
    return json.loads(path.read_text())


@pytest.mark.parametrize(
    "kind, grid",
    [
        ("tc_vs_devices", [150]),  # more devices than the 100 subwindows
        ("tc_vs_devices", [0]),
        ("tc_vs_devices", [2.5]),
        ("single_link_curve", [-1, 1]),
        ("cdf_fixed_distance", [-5]),
        ("tc_vs_power", [20, 1e4]),  # 1e4 dBm is past the float range in W
    ],
    ids=["count_over_band", "count_0", "count_2.5", "distance_-1", "radius_-5", "dbm_1e4"],
)
def test_bad_experiment_grid_exits_2_in_validate_and_run(tmp_path, capsys, kind, grid):
    doc = _default_doc()
    doc["experiment"].update(kind=kind, grid=grid)
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["validate", "--spec", str(spec)]) == 2
    assert "experiment.grid" in capsys.readouterr().err
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
    assert "experiment.grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, kind", [(5, "int"), (None, "NoneType"), ([1, 2], "list"), ("band", "str")]
)
def test_validate_exits_2_when_the_document_is_not_an_object(tmp_path, capsys, doc, kind):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(doc))
    assert main(["validate", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == f"error: the scenario must be a JSON object, got {kind}\n"


def test_validate_exits_2_on_a_non_finite_absorption_table(tmp_path, capsys):
    table = tmp_path / "table.csv"
    # The NaN row lies past the band (500-510 GHz), so no lookup reads it.
    table.write_text("frequency_hz,k_abs_per_m\n4.9e11,0.1\n5.2e11,0.1\n6e11,nan\n")
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(_doc_with_table(table)))
    assert main(["validate", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == "error: band: absorption table values must be finite\n"


@pytest.mark.parametrize("kind", ["tc_vs_power", "cdf_fixed_distance", "loss_distance_vs_frequency"])
def test_empty_strategy_list_exits_2_in_validate_and_run(tmp_path, capsys, kind):
    doc = _default_doc()
    doc["experiment"].update(kind=kind, grid=[5.0], strategies=[])
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["validate", "--spec", str(spec)]) == 2
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("error: experiment.strategies: ") == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("what", ["missing", "directory", "binary"])
def test_unreadable_spec_exits_2_naming_the_path(tmp_path, capsys, command, what):
    spec = tmp_path / "scenario.json"
    if what == "directory":
        spec.mkdir()
    elif what == "binary":
        spec.write_bytes(b"\xff\xfe{}")
    argv = [command, "--spec", str(spec)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {spec}: ")
    assert not (tmp_path / "out").exists()


def test_run_out_below_a_file_exits_2(tmp_path, capsys):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(_doc_with_table("bundled")))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "--spec", str(spec), "--out", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out: {blocker / 'sub'}: ")


def test_link_curve_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "curve.csv"
    assert main(LINK_CURVE + ["--points", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --out: {out}: ")


@pytest.mark.parametrize(
    "names, message",
    [
        ("", "must name at least one strategy"),
        ("distmax,", "unknown strategy ''"),
        (",", "unknown strategy ''"),
        ("bogus", "unknown strategy 'bogus'"),
        ("distmax,distmax", "'distmax' listed twice"),
    ],
    ids=["empty", "trailing_comma", "comma_only", "unknown", "twice"],
)
def test_run_rejects_a_bad_strategies_flag_naming_it(tmp_path, capsys, names, message):
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(_doc_with_table("bundled")))
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out), "--strategies", names]) == 2
    assert capsys.readouterr().err == f"error: --strategies: {message}\n"
    assert not out.exists()


def test_run_strategies_flag_replaces_the_file_list(tmp_path, capsys):
    doc = _doc_with_table("bundled")
    doc["experiment"] = {"kind": "tc_vs_power", "grid": [30.0], "strategies": ["proposed"]}
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", "--spec", str(spec), "--out", str(out), "--strategies", "distmax,nonadaptive"]) == 0
    with open(out / "summary.csv", newline="") as fh:
        assert [r["strategy"] for r in csv.DictReader(fh)] == ["distmax", "nonadaptive"]


@pytest.mark.parametrize("kind", ["tc_vs_power", "cdf_fixed_distance", "loss_distance_vs_frequency"])
def test_strategy_listed_twice_exits_2_in_validate_and_run(tmp_path, capsys, kind):
    doc = _default_doc()
    doc["experiment"].update(kind=kind, grid=[5.0], strategies=["distmax", "proposed", "distmax"])
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["validate", "--spec", str(spec)]) == 2
    assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
    want = "error: experiment.strategies: 'distmax' listed twice\n"
    assert capsys.readouterr().err == want * 2
    assert not out.exists()


def test_rate_floor_whose_snr_overflows_exits_2_in_validate_and_run(tmp_path, capsys):
    doc = _default_doc()
    doc["devices"][0]["rate_req_bps_per_hz"] = 1100.0
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["validate", "--spec", str(spec)]) == 2
        assert main(["run", "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("error: devices: device 0: ") == 2
    assert not out.exists()
