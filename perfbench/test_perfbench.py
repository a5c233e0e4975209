"""Tests of the benchmark itself: tracing leaves no name patched, the
span arithmetic, and the output checks. Run with `python -m pytest perfbench`."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import tracer
import workloads
import tera_tc.cli
import tera_tc.strategies as strategies
from tera_tc.scenario import default_scenario
from tera_tc.strategies import DeviceSpec, Scenario

HERE = os.path.dirname(os.path.abspath(__file__))


def _untouched():
    for owner, key, original in tracer.targets():
        current = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        assert current is original, key
        assert not hasattr(current, "__wrapped__"), key


def _small_scenario(n=4):
    sc, _ = default_scenario()
    band = type(sc.band)(sc.band.subwindows[:n])
    return Scenario(band=band, params=sc.params,
                    devices=tuple(DeviceSpec(rate_req=band.bandwidth) for _ in range(n)),
                    config=sc.config)


def test_targets_cover_every_traced_function_and_strategy_entry():
    slots = {(getattr(o, "__name__", "STRATEGIES"), k) for o, k, _ in tracer.targets()}
    assert ("tera_tc.strategies", "hungarian_assign") in slots
    assert ("tera_tc.distance_power", "solve_stationarity_snr") in slots
    assert ("STRATEGIES", "proposed") in slots and ("STRATEGIES", "tc_fixed") in slots
    _untouched()


def test_traced_cli_run_records_spans_and_restores_every_name(tmp_path):
    sc = _small_scenario()
    spec_path = tmp_path / "spec.json"
    from tera_tc.scenario import ExperimentSpec, save_scenario
    save_scenario(sc, ExperimentSpec(kind="tc_vs_power", grid=(30.0,),
                                     strategies=("proposed", "distmax")), spec_path)
    t = tracer.Tracer()
    with t:
        assert strategies.hungarian_assign is not tracer._MODULES["assignment"].hungarian_assign
        rc = tera_tc.cli.main(["run", "--spec", str(spec_path), "--out", str(tmp_path / "out")])
    assert rc == 0
    _untouched()
    totals = t.layer_totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["strategies.proposed_tc_max"]["calls"] == 1
    assert totals["experiments.write_results"]["calls"] == 2
    assert totals["assignment.hungarian_assign"]["calls"] == sc.config.m_out
    derived = t.derived()
    assert derived["distance_power.inner_iters"] > 0
    assert derived["experiments.bytes_written"] > 0
    assert 0.0 <= derived["assignment.changed_rounds_ratio"] <= 1.0
    assert 0.0 < derived["strategies.proposed.improving_rounds_ratio"] <= 1.0
    # Every span under a strategy carries that solve's id; cli.main has none.
    by_name = {}
    for name, _, _, parent, solve in t.spans:
        by_name.setdefault(name, set()).add(solve)
    assert by_name["cli.main"] == {0}
    assert by_name["distance_power.iterate_power_distance"] == {1}
    t.write_spans(tmp_path / "spans.jsonl")
    first = json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[0])
    assert set(first) == {"id", "name", "start", "end", "parent", "solve"}


def test_names_are_restored_when_the_traced_call_raises():
    sc = _small_scenario()
    sc = Scenario(band=sc.band, params=sc.params,
                  devices=tuple(DeviceSpec(rate_req=0.0) for _ in sc.devices))
    t = tracer.Tracer()
    with pytest.raises(ValueError, match="rate_req > 0"):
        with t:
            strategies.distance_max_benchmark(sc)
    _untouched()
    assert t.layer_totals()["strategies.distance_max_benchmark"]["calls"] == 1


def test_self_time_subtracts_child_spans():
    t = tracer.Tracer()
    t.spans = [
        ["strategies.proposed_tc_max", 0.0, 10.0, -1, 1],
        ["assignment.hungarian_assign", 1.0, 4.0, 0, 1],
        ["distance_power.iterate_power_distance", 5.0, 9.0, 0, 1],
        ["distance_power.solve_stationarity_snr", 6.0, 7.5, 2, 1],
    ]
    totals = t.layer_totals()
    assert totals["strategies.proposed_tc_max"]["self_s"] == pytest.approx(3.0)
    assert totals["distance_power.iterate_power_distance"]["self_s"] == pytest.approx(2.5)
    assert totals["distance_power.solve_stationarity_snr"]["self_s"] == pytest.approx(1.5)
    assert totals["waterfill.waterfill"] == {"calls": 0, "total_s": 0.0, "self_s": 0.0}


def test_rate_check_catches_rates_the_link_budget_does_not_give():
    sc = _small_scenario()
    alloc = strategies.proposed_tc_max(sc)
    assert checks.audit(alloc, sc, "ok") == []
    alloc.rates = alloc.rates * (1.0 + 1e-4)
    assert checks.audit(alloc, sc, "bad")


def test_summary_compare_is_by_value():
    ref = checks.read_csv(checks.REFERENCE_SUMMARY)
    last_digit = [dict(r, tc_m_bps=repr(float(r["tc_m_bps"]) * (1 + 1e-12))) for r in ref]
    assert checks.compare_summary(last_digit, ref, "s") == []
    changed = [dict(r) for r in ref]
    changed[0]["tc_m_bps"] = repr(float(ref[0]["tc_m_bps"]) * 1.001)
    assert len(checks.compare_summary(changed, ref, "s")) == 1


def test_every_step_names_a_part_and_pass_and_every_part_runs():
    used = set()
    for steps in workloads.WORKLOADS.values():
        assert any(s.wall for s in steps) and any(s.serial for s in steps)
        assert any(s.traced for s in steps)
        for step in steps:
            assert hasattr(workloads.PARTS[step.part], "pass_" + step.kind), step
            used.add(step.part)
    assert used == set(workloads.PARTS)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        names = {w["name"] for w in json.load(fh)["workloads"]}
    assert names == set(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "assign_mc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_reference_covers_the_held_out_seed():
    ref = checks.load_reference()
    for name in ("proposed_k1000", "power_sweep_hi", "cdf_mc"):
        assert "1009" in ref[name] and "0" in ref[name]
    # The non-convergence defect is part of the reference at seed 0.
    assert ref["power_sweep_hi"]["0"][-2:] == [None, None]
    assert all(np.isfinite(v) for v in ref["power_sweep_hi"]["0"][:-2])
