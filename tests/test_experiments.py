"""Experiment runners, CSV/JSON emission, and the CLI driver."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tera_tc import experiments
from tera_tc.channel import bundled_absorption_table
from tera_tc.cli import main
from tera_tc.experiments import (
    fig8_rate_tiers,
    link_curve,
    run_cdf_fixed_distance,
    run_experiment,
    run_loss_distance_vs_frequency,
    run_rate_distance_tradeoff,
    run_tc_vs_devices,
    run_tc_vs_power,
    sample_disk_distances,
    write_results,
)
from tera_tc.scenario import KINDS, ExperimentSpec, save_scenario, uniform_band
from tera_tc.strategies import STRATEGIES, DeviceSpec, Scenario, proposed_tc_max
from tera_tc.units import dbm_to_watts
from conftest import make_params


def small_scenario(n=4, p_dbm=30.0, reqs=None, fixed=None):
    band = uniform_band(5e11, 6e11, n, bundled_absorption_table())
    if fixed is not None:
        devices = tuple(DeviceSpec(fixed_distance=float(d)) for d in fixed)
    else:
        reqs = reqs if reqs is not None else [1.0] * n
        devices = tuple(DeviceSpec(rate_req=r * band.bandwidth) for r in reqs)
    return Scenario(band=band, params=make_params(p_dbm), devices=devices)


class TestTcVsPower:
    def test_single_point_matches_direct_call(self):
        sc = small_scenario()
        spec = ExperimentSpec(kind="tc_vs_power", grid=(30.0,), strategies=("proposed",))
        summary, devices = run_tc_vs_power(sc, spec)
        assert len(summary) == 1
        direct = proposed_tc_max(sc)
        assert summary[0]["tc_m_bps"] == pytest.approx(direct.tc, rel=1e-12)
        assert len(devices) == sc.n_devices
        assert summary[0]["error"] == ""

    def test_power_override_applied(self):
        sc = small_scenario()
        spec = ExperimentSpec(
            kind="tc_vs_power", grid=(20.0, 40.0), strategies=("proposed",)
        )
        summary, _ = run_tc_vs_power(sc, spec)
        assert summary[0]["tc_m_bps"] < summary[1]["tc_m_bps"]

    def test_solver_error_recorded_not_fatal(self):
        # An absurd rate floor makes the sweep infeasible; the row records it.
        sc = small_scenario(reqs=[500.0] * 4, p_dbm=0.0)
        spec = ExperimentSpec(kind="tc_vs_power", grid=(0.0,), strategies=("proposed",))
        summary, devices = run_tc_vs_power(sc, spec)
        assert summary[0]["tc_m_bps"] == ""
        assert "InfeasibleError" in summary[0]["error"]
        assert devices == []


class TestTcVsDevices:
    def test_rate_tiers(self):
        tiers = fig8_rate_tiers(100, 1e9)
        reqs = np.array([d.rate_req for d in tiers]) / 1e9
        assert list(reqs[:25]) == [1.0] * 25
        assert list(reqs[25:50]) == [2.0] * 25
        assert list(reqs[50:75]) == [3.0] * 25
        assert list(reqs[75:]) == [4.0] * 25

    def test_grid_of_device_counts(self):
        sc = small_scenario(n=8)
        spec = ExperimentSpec(
            kind="tc_vs_devices", grid=(2.0, 4.0), strategies=("nonadaptive",)
        )
        summary, devices = run_tc_vs_devices(sc, spec)
        assert [row["sweep_value"] for row in summary] == [2.0, 4.0]
        assert len([r for r in devices if r["sweep_value"] == 4.0]) == 4


class TestCdf:
    def test_disk_sampling_within_radius(self, rng):
        d = sample_disk_distances(rng, 1000, 15.0, 1e-3)
        assert np.all(d > 0)
        assert np.all(d <= 15.0)
        # Uniform over the area: mean radial distance is 2R/3.
        assert abs(d.mean() - 10.0) < 0.5

    def test_single_device_single_trial_is_step(self):
        sc = small_scenario(n=4, fixed=[1.0] * 4)
        sc = dataclasses.replace(sc, devices=sc.devices[:1])
        spec = ExperimentSpec(
            kind="cdf_fixed_distance",
            grid=(5.0,),
            trials=1,
            strategies=("tc_fixed",),
        )
        _, cdf = run_cdf_fixed_distance(sc, spec)
        assert len(cdf) == 1
        assert cdf[0]["cdf"] == 1.0

    def test_cdf_is_distribution(self):
        sc = small_scenario(n=6, fixed=[1.0] * 6)
        spec = ExperimentSpec(
            kind="cdf_fixed_distance",
            grid=(5.0, 15.0),
            trials=3,
            strategies=("tc_fixed", "sum_rate"),
        )
        _, cdf = run_cdf_fixed_distance(sc, spec)
        for radius in (5.0, 15.0):
            for strategy in ("tc_fixed", "sum_rate"):
                rows = [
                    r
                    for r in cdf
                    if r["radius_m"] == radius and r["strategy"] == strategy
                ]
                values = [r["cdf"] for r in rows]
                rates = [r["rate_bps"] for r in rows]
                assert values == sorted(values)
                assert rates == sorted(rates)
                assert 0 < values[0] <= 1
                assert values[-1] == 1.0

    def test_failing_trial_fails_alone_in_its_block(self):
        # One device on four subwindows, so all 12 trials form one block.
        # Drops past ~14 km kill the device's every channel (k d > 700),
        # so those trials raise WaterfillError.
        sc = small_scenario(n=4, fixed=[1.0])
        sc = dataclasses.replace(sc, devices=sc.devices[:1])
        spec = ExperimentSpec(
            kind="cdf_fixed_distance", grid=(3e4,), trials=12, seed=5, strategies=("tc_fixed",)
        )
        summary, cdf = run_cdf_fixed_distance(sc, spec)
        expected = []
        for trial in range(spec.trials):
            rng = np.random.default_rng([spec.seed, 0, trial])
            d = sample_disk_distances(rng, 1, 3e4, sc.config.d_min)
            try:
                alloc = STRATEGIES["tc_fixed"](
                    dataclasses.replace(sc, devices=(DeviceSpec(fixed_distance=float(d[0])),))
                )
            except Exception as exc:
                expected.append(("", f"{type(exc).__name__}: {exc}"))
            else:
                expected.append((str(alloc.tc), ""))
        errors = [e for _, e in expected if e]
        assert 0 < len(errors) < spec.trials  # both kinds share the block
        assert all(e.startswith("WaterfillError: every channel has zero gain") for e in errors)
        # str() compares the TCs exactly, and a NaN one equal to itself.
        assert [(str(r["tc_m_bps"]), r["error"]) for r in summary] == expected
        assert len(cdf) == spec.trials - len(errors)

    def test_serial_parallel_identical(self):
        sc = small_scenario(n=6, fixed=[1.0] * 6)
        spec = ExperimentSpec(
            kind="cdf_fixed_distance",
            grid=(15.0,),
            trials=4,
            strategies=("tc_fixed",),
        )
        serial = run_cdf_fixed_distance(sc, spec, workers=1)
        parallel = run_cdf_fixed_distance(sc, spec, workers=3)
        assert serial == parallel


class TestLossDistance:
    def test_flat_table_distance_monotone_in_frequency(self, tmp_path):
        # Without an absorption peak only the spreading loss varies, so the
        # allocated distances decrease with frequency.
        flat = tmp_path / "flat.csv"
        flat.write_text("frequency_hz,k_abs_per_m\n4.9e11,0.05\n6.1e11,0.05\n")
        from tera_tc.channel import AbsorptionTable

        band = uniform_band(5e11, 6e11, 6, AbsorptionTable.from_csv(flat))
        sc = Scenario(
            band=band,
            params=make_params(30.0),
            devices=tuple(DeviceSpec(rate_req=band.bandwidth) for _ in range(6)),
        )
        spec = ExperimentSpec(
            kind="loss_distance_vs_frequency", grid=(0.0,), strategies=("proposed",)
        )
        _, rows = run_loss_distance_vs_frequency(sc, spec)
        d = [r["distance_m"] for r in rows]
        f = [r["frequency_hz"] for r in rows]
        assert f == sorted(f)
        assert all(a > b for a, b in zip(d, d[1:]))

    def test_loss_columns_consistent(self):
        sc = small_scenario(n=4)
        spec = ExperimentSpec(
            kind="loss_distance_vs_frequency", grid=(0.0,), strategies=("proposed",)
        )
        _, rows = run_loss_distance_vs_frequency(sc, spec)
        for r in rows:
            assert r["path_loss_db"] == pytest.approx(
                r["spreading_loss_db"] + r["absorption_loss_db"], rel=1e-9
            )


class TestRateDistanceTradeoff:
    def test_distmax_points_on_floors(self):
        sc = small_scenario(n=6, reqs=[1.04 + 0.04 * k for k in range(6)], p_dbm=20.0)
        spec = ExperimentSpec(
            kind="rate_distance_tradeoff",
            grid=(0.0,),
            strategies=("proposed", "distmax"),
        )
        _, scatter = run_rate_distance_tradeoff(sc, spec)
        for row in scatter:
            if row["strategy"] == "distmax":
                assert row["rate_bps"] == pytest.approx(row["rate_req_bps"], rel=1e-9)
            else:
                assert row["rate_bps"] >= row["rate_req_bps"] * (1 - 1e-9)


class TestSolvePathOfSingleScenarioKinds:
    """`rate_distance_tradeoff` and `loss_distance_vs_frequency` solve
    through `_run_sweep`: a failing strategy leaves an error row and no
    detail rows, and a pool gives the serial rows."""

    DISTMAX_ERROR = "ValueError: distance_max_benchmark requires rate_req > 0"

    def test_tradeoff_records_a_failing_strategy(self, tmp_path):
        sc = small_scenario(reqs=[0.0] * 4)  # distmax needs floors > 0
        spec = ExperimentSpec(
            kind="rate_distance_tradeoff", grid=(0.0,), strategies=("nonadaptive", "distmax")
        )
        summary, scatter = run_rate_distance_tradeoff(sc, spec)
        assert [r["strategy"] for r in summary] == ["nonadaptive", "distmax"]
        assert summary[0]["error"] == "" and summary[0]["tc_m_bps"] != ""
        assert summary[1]["error"].startswith(self.DISTMAX_ERROR)
        assert summary[1]["tc_m_bps"] == ""
        assert [r["strategy"] for r in scatter] == ["nonadaptive"] * sc.n_devices
        written = run_experiment(sc, spec, tmp_path / "out")
        assert set(written) == {"summary.csv", "scatter.csv", "meta.json"}
        assert "distmax" not in (tmp_path / "out" / "scatter.csv").read_text()

    def test_loss_records_a_failing_strategy(self, tmp_path):
        sc = small_scenario(reqs=[0.0] * 4)
        spec = ExperimentSpec(
            kind="loss_distance_vs_frequency", grid=(0.0,), strategies=("distmax",)
        )
        summary, rows = run_loss_distance_vs_frequency(sc, spec)
        assert len(summary) == 1
        assert summary[0]["strategy"] == "distmax"
        assert summary[0]["error"].startswith(self.DISTMAX_ERROR)
        assert rows == []
        written = run_experiment(sc, spec, tmp_path / "out")
        assert set(written) == {"summary.csv", "meta.json"}
        assert not (tmp_path / "out" / "subwindows.csv").exists()

    @pytest.mark.parametrize(
        "kind, strategies",
        [
            ("rate_distance_tradeoff", ("proposed", "distmax", "nonadaptive")),
            ("loss_distance_vs_frequency", ("proposed",)),
            ("loss_distance_vs_frequency", ("distmax", "proposed")),
        ],
    )
    def test_serial_parallel_identical(self, kind, strategies):
        sc = small_scenario(n=6, reqs=[1.0 + 0.1 * k for k in range(6)])
        spec = ExperimentSpec(kind=kind, grid=(0.0,), strategies=strategies)
        runner = experiments.RUNNERS[kind]
        assert runner(sc, spec, workers=2) == runner(sc, spec, workers=1)

    def test_loss_writes_a_block_per_strategy_in_subwindow_order(self):
        sc = small_scenario(n=6, reqs=[1.0 + 0.1 * k for k in range(6)])
        spec = ExperimentSpec(kind="loss_distance_vs_frequency", grid=(0.0,), strategies=("distmax", "proposed"))
        summary, rows = run_loss_distance_vs_frequency(sc, spec)
        assert [r["strategy"] for r in summary] == ["distmax", "proposed"]
        assert [r["error"] for r in summary] == ["", ""]
        assert [r["strategy"] for r in rows] == ["distmax"] * 6 + ["proposed"] * 6
        for block in (rows[:6], rows[6:]):
            assert [r["subwindow"] for r in block] == list(range(6))
        for strategy, block in (("distmax", rows[:6]), ("proposed", rows[6:])):
            alone = run_loss_distance_vs_frequency(sc, dataclasses.replace(spec, strategies=(strategy,)))[1]
            assert block == alone


def test_runners_cover_exactly_the_scenario_kinds():
    assert set(experiments.RUNNERS) == set(KINDS)


class TestLinkCurve:
    def test_optimum_row_dominates_grid(self, params):
        rows = link_curve(5e11, 0.2, 1e9, params, np.logspace(-1, 2, 200))
        opt = [r for r in rows if r["is_optimum"] == 1]
        assert len(opt) == 1
        grid_best = max(r["tc_m_bps"] for r in rows if r["is_optimum"] == 0)
        assert opt[0]["tc_m_bps"] >= grid_best * (1 - 1e-9)


class _Text(str):
    """A str subclass whose str() is not its characters."""

    def __str__(self):
        return "other"


_CSV_SPECIALS = st.text(alphabet=',"\r\n ab', max_size=4)
#: Value strategies for one CSV column: plain columns take the
#: column-by-column path, the others fall back to csv.writer.
_CSV_COLUMNS = st.sampled_from([
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([1, 1.0, True]),
    st.integers(-(10**20), 10**20),
    st.text(alphabet="ab .-", max_size=3),
    st.just(""),
    _CSV_SPECIALS,
    st.sampled_from(["x", "a\nb", "a\rb", "a,b", 'say "hi"', ""]),
    st.none() | st.floats(),
    st.floats().map(np.float64) | st.integers(-5, 5).map(np.int64) | st.booleans().map(np.bool_),
    st.text(alphabet="ab", max_size=2).map(_Text) | st.text(alphabet="ab", max_size=2),
    st.one_of(st.floats(), st.integers(), st.booleans(), st.none(), _CSV_SPECIALS),
])


class TestWriteAndRun:
    def test_write_results_stable(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = tmp_path / "out.csv"
        write_results(rows, path)
        assert path.read_text() == "a,b\n1,x\n2,y\n"

    @staticmethod
    def dict_writer_text(rows):
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue()

    def test_write_results_matches_dict_writer(self, tmp_path):
        sc = small_scenario(reqs=[1.0, 2.0, 1.0, 3.0])
        spec = ExperimentSpec(kind="tc_vs_power", grid=(20.0, 30.0), strategies=("proposed",))
        summary, devices = run_tc_vs_power(sc, spec)
        summary.append(dict(summary[0], tc_m_bps="", error='InfeasibleError: floors "x", y'))
        cdf_spec = ExperimentSpec(kind="cdf_fixed_distance", grid=(5.0,), trials=2)
        _, cdf = run_cdf_fixed_distance(small_scenario(fixed=[1.0] * 4), cdf_spec)
        for rows in (summary, devices, cdf):
            path = tmp_path / "out.csv"
            write_results(rows, path)
            with open(path, newline="") as fh:
                assert fh.read() == self.dict_writer_text(rows)
        assert '"InfeasibleError: floors ""x"", y"' in self.dict_writer_text(summary)

    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_write_results_rejects_rows_with_other_keys(self, tmp_path, change):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 3, "b": "z"}]
        if change == "extra":
            rows[2]["c"] = 0
        else:
            del rows[2]["b"]
        with pytest.raises(ValueError, match="^row 2 "):
            write_results(rows, tmp_path / "out.csv")

    def test_write_results_rejected_rows_leave_no_file(self, tmp_path):
        # Every row is checked before the file is opened.
        rows = [{"a": 1, "b": "x"}] * 300 + [{"a": 2, "c": "y"}]
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="^row 300 "):
            write_results(rows, path)
        assert not path.exists()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_write_results_matches_dict_writer_in_every_block(self, tmp_path_factory, data):
        # Blocks of 3 rows: a file mixes blocks written column by column
        # and blocks that need csv.writer's own rules.
        columns = data.draw(st.lists(_CSV_COLUMNS, min_size=1, max_size=4))
        n_rows = data.draw(st.integers(1, 12))
        rows = [
            {f"c{j}": data.draw(column) for j, column in enumerate(columns)}
            for _ in range(n_rows)
        ]
        path = tmp_path_factory.mktemp("csv") / "out.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_WRITE_BLOCK", 3)
            write_results(rows, path)
        with open(path, newline="") as fh:
            assert fh.read() == self.dict_writer_text(rows)

    def test_write_results_single_column(self, tmp_path):
        path = tmp_path / "out.csv"
        write_results([{"a": "x,y"}, {"a": 2}], path)
        assert path.read_text() == 'a\n"x,y"\n2\n'

    def test_cdf_files_identical_serial_and_pooled(self, tmp_path):
        sc = small_scenario(n=6, fixed=[1.0] * 6)
        spec = ExperimentSpec(
            kind="cdf_fixed_distance", grid=(5.0, 40.0), trials=5, seed=3
        )
        serial = run_experiment(sc, spec, tmp_path / "serial", workers=1)
        pooled = run_experiment(sc, spec, tmp_path / "pooled", workers=2)
        for name in ("summary.csv", "cdf.csv"):
            with open(serial[name], "rb") as a, open(pooled[name], "rb") as b:
                assert a.read() == b.read()

    def test_run_experiment_writes_files(self, tmp_path):
        sc = small_scenario()
        spec = ExperimentSpec(kind="tc_vs_power", grid=(30.0,), strategies=("proposed",))
        written = run_experiment(sc, spec, tmp_path / "out")
        assert set(written) == {"summary.csv", "devices.csv", "meta.json"}
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert meta["kind"] == "tc_vs_power"
        assert meta["scenario"]["experiment"]["grid"] == [30.0]


class TestCli:
    def write_spec(self, tmp_path, kind="tc_vs_power", grid=(30.0,), strategies=("proposed",)):
        sc = small_scenario()
        spec = ExperimentSpec(kind=kind, grid=tuple(grid), strategies=tuple(strategies))
        path = tmp_path / "scenario.json"
        save_scenario(sc, spec, path)
        return path

    def test_validate(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        assert main(["validate", "--spec", str(path)]) == 0
        assert "4 devices" in capsys.readouterr().out

    def test_validate_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["validate", "--spec", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_validate_negative_k_abs_exits_2(self, tmp_path, capsys):
        doc = json.loads(self.write_spec(tmp_path).read_text())
        doc["band"]["subwindows"][0]["k_abs_per_m"] = -0.1
        path = tmp_path / "negative_k.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--spec", str(path)]) == 2
        assert "error: band:" in capsys.readouterr().err

    def test_run(self, tmp_path, capsys):
        path = self.write_spec(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--spec", str(path), "--out", str(out)]) == 0
        assert (out / "summary.csv").exists()
        assert (out / "devices.csv").exists()

    def test_run_strategy_override(self, tmp_path):
        path = self.write_spec(tmp_path)
        out = tmp_path / "results"
        assert (
            main(
                [
                    "run",
                    "--spec",
                    str(path),
                    "--out",
                    str(out),
                    "--strategies",
                    "nonadaptive",
                ]
            )
            == 0
        )
        text = (out / "summary.csv").read_text()
        assert "nonadaptive" in text
        assert "proposed" not in text

    def test_link_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(
            [
                "link-curve",
                "--f",
                "5e11",
                "--kabs",
                "0.2",
                "--power",
                "10",
                "--points",
                "50",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("frequency_hz")
        assert len(lines) == 52  # header + 50 grid rows + optimum row


class TestCdfFile:
    """`run_experiment` writes `cdf.csv` from the sorted rates; its bytes
    are `csv.DictWriter`'s over `run_cdf_fixed_distance`'s rows."""

    @staticmethod
    def run_both(sc, spec, out):
        _, rows = run_cdf_fixed_distance(sc, spec)
        written = run_experiment(sc, spec, out)
        return rows, written

    def assert_same_bytes(self, rows, written):
        with open(written["cdf.csv"], newline="") as fh:
            assert fh.read() == TestWriteAndRun.dict_writer_text(rows)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_file_matches_dict_writer_over_rows(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, n))
        block = data.draw(st.integers(1, 4))
        radii = sorted(data.draw(st.lists(
            st.integers(1, 60) | st.floats(0.5, 60.0), min_size=1, max_size=3
        )))
        spec = ExperimentSpec(
            kind="cdf_fixed_distance",
            grid=tuple(radii),
            trials=data.draw(st.integers(1, 9)),
            seed=data.draw(st.integers(0, 2**16)),
            strategies=data.draw(st.sampled_from([("tc_fixed",), ("sum_rate",), ("tc_fixed", "sum_rate")])),
        )
        sc = small_scenario(n=n, fixed=[1.0] * k)
        with pytest.MonkeyPatch.context() as mp:
            # Blocks of 1-4 trials, so that the last block is often partial.
            mp.setattr(experiments, "_BLOCK_ELEMS", block * k * n)
            rows, written = self.run_both(sc, spec, tmp_path_factory.mktemp("cdf"))
        assert rows
        self.assert_same_bytes(rows, written)

    @pytest.mark.parametrize("k, trials", [(1, 1), (3, 1), (1, 4), (2, 2), (4, 2), (3, 5)])
    def test_file_matches_dict_writer_past_a_groups_first_block(self, tmp_path, k, trials):
        # Blocks of 3 rates: groups of 1, 3, 4, 8 and 15 rates end inside,
        # at the end of, just past and well past their first block.
        sc = small_scenario(n=4, fixed=[1.0] * k)
        spec = ExperimentSpec(
            kind="cdf_fixed_distance", grid=(5.0, 20.0), trials=trials, seed=7, strategies=("tc_fixed", "sum_rate")
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_WRITE_BLOCK", 3)
            rows, written = self.run_both(sc, spec, tmp_path)
        groups = [(row["radius_m"], row["strategy"]) for row in rows]
        assert {groups.count(g) for g in groups} == {k * trials}
        assert len(set(groups)) == 4
        self.assert_same_bytes(rows, written)

    def test_group_whose_every_trial_fails_writes_no_rows(self, tmp_path):
        # One device on four subwindows: a drop past ~14 km kills its every
        # channel. At 1000 km every trial fails, at 30 km some do.
        sc = small_scenario(n=4, fixed=[1.0])
        spec = ExperimentSpec(
            kind="cdf_fixed_distance", grid=(5.0, 3e4, 1e6), trials=12, seed=5, strategies=("tc_fixed",)
        )
        rows, written = self.run_both(sc, spec, tmp_path)
        self.assert_same_bytes(rows, written)
        sizes = {r: sum(row["radius_m"] == r for row in rows) for r in spec.grid}
        assert sizes[5.0] == 12
        assert 0 < sizes[3e4] < 12
        assert sizes[1e6] == 0

    def test_no_rows_writes_no_file(self, tmp_path):
        sc = small_scenario(n=4, fixed=[1.0])
        spec = ExperimentSpec(
            kind="cdf_fixed_distance", grid=(1e6,), trials=3, strategies=("tc_fixed",)
        )
        rows, written = self.run_both(sc, spec, tmp_path)
        assert rows == []
        assert set(written) == {"summary.csv", "meta.json"}
        assert not (tmp_path / "cdf.csv").exists()

    def test_int_radius_is_written_as_str_does(self, tmp_path):
        sc = small_scenario(n=4, fixed=[1.0] * 4)
        spec = ExperimentSpec(kind="cdf_fixed_distance", grid=(5,), trials=2, strategies=("tc_fixed",))
        rows, written = self.run_both(sc, spec, tmp_path)
        self.assert_same_bytes(rows, written)
        lines = (tmp_path / "cdf.csv").read_text().splitlines()
        assert lines[0] == "experiment,strategy,radius_m,rate_bps,cdf"
        assert all(line.startswith("cdf_fixed_distance,tc_fixed,5,") for line in lines[1:])
        assert len(lines) == 1 + len(rows) == 9
