"""A band edge near the float limit is a typed scenario error, with no
numpy warning on the way."""

import json
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

from tera_tc.channel import bundled_absorption_table
from tera_tc.cli import main
from tera_tc.scenario import ScenarioError, default_scenario, scenario_from_dict, uniform_band

MAX = sys.float_info.max
# JSON text of each bad edge: 1e400 reads as inf.
EDGE_CASES = [
    {key: text} for key in ("f_start_hz", "f_stop_hz") for text in ("1e308", repr(MAX), "1e400", "-1e308")
] + [{"f_start_hz": repr(-MAX), "f_stop_hz": repr(MAX)}]


def _band_doc(edges):
    doc = json.loads(resources.files("tera_tc").joinpath("data/default_scenario.json").read_text())
    doc["band"].update({key: json.loads(text) for key, text in edges.items()})
    return doc


@pytest.mark.parametrize("edges", EDGE_CASES, ids=lambda e: ",".join(f"{k}={v}" for k, v in e.items()))
def test_band_edge_near_the_float_limit_is_a_scenario_error(tmp_path, capsys, edges):
    doc = _band_doc(edges)
    spec = tmp_path / "scenario.json"
    spec.write_text(json.dumps(doc).replace("Infinity", "1e400"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScenarioError, match="^band: "):
            scenario_from_dict(doc)
        assert main(["validate", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: band: ") and "RuntimeWarning" not in err


@pytest.mark.parametrize("n", [100, 300, 1000])
def test_band_centres_keep_the_bits_of_the_summed_edges(n):
    edges = np.linspace(500e9, 600e9, n + 1)
    old = 0.5 * (edges[:-1] + edges[1:])
    band = default_scenario()[0].band if n == 100 else uniform_band(500e9, 600e9, n, bundled_absorption_table())
    assert band.frequencies.tobytes() == old.tobytes()
