"""Strict scenario file parsing: defaults, overrides, aggregated errors."""

import json
from pathlib import Path

import numpy as np
import pytest

from duplexnet.scenario_io import ParseError, load_scenario


def minimal_doc():
    return {
        "graph": {
            "nodes": ["a", "b", "c"],
            "edges": [["a", "b"], ["b", "c"]],
        },
        "spectrum": {"bands": 3, "seed": 1},
        "channel": {},
        "power": {"budget": 1.0},
        "sessions": [{"origin": "a", "dest": "c", "demand": 0.5}],
    }


def write(tmp_path, doc, name="scen.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def test_minimal_file_defaults(tmp_path):
    loaded = load_scenario(write(tmp_path, minimal_doc()))
    scen = loaded.scenario
    assert scen.graph.n == 3
    assert scen.allocation.band_count == 3
    # flat default gain and scalar noise fan out
    off_diag = scen.gains[0][~np.eye(3, dtype=bool)]
    assert np.all(off_diag == 0.01)
    assert np.all(np.diagonal(scen.gains, axis1=1, axis2=2) == 0.0)
    assert np.all(scen.noise == 1e-3)
    assert np.all(scen.power_budget == 1.0)
    assert scen.sessions[0].utility.kind == "log"
    assert scen.cost.bandwidth == 1.0 and scen.cost.gain_factor == 50.0
    assert loaded.optimizer == {}


def test_positions_drive_pathloss(tmp_path):
    doc = minimal_doc()
    doc["graph"]["positions"] = {"a": [0.0, 0.0], "b": [1.0, 0.0], "c": [3.0, 0.0]}
    doc["channel"] = {"gains": {"a->c": 0.25}, "band_scale": [1.0, 2.0, 1.0]}
    scen = load_scenario(write(tmp_path, doc)).scenario
    idx = {v: i for i, v in enumerate(scen.graph.nodes)}
    a, b, c = idx["a"], idx["b"], idx["c"]
    assert scen.gains[0, a, b] == pytest.approx(1.0)
    assert scen.gains[0, b, c] == pytest.approx(2.0**-3.5)
    assert scen.gains[0, c, a] == pytest.approx(3.0**-3.5)
    assert scen.gains[0, a, c] == 0.25  # explicit override wins
    assert np.allclose(scen.gains[1], 2.0 * scen.gains[0])


def test_per_node_mappings(tmp_path):
    doc = minimal_doc()
    doc["channel"] = {"noise": {"a": 0.001, "b": 0.002, "c": 0.003}}
    doc["power"] = {"budget": {"a": 1.0, "b": 2.0, "c": 3.0}}
    scen = load_scenario(write(tmp_path, doc)).scenario
    idx = {v: i for i, v in enumerate(scen.graph.nodes)}
    assert scen.noise[0, idx["b"]] == 0.002
    assert scen.power_budget[idx["c"]] == 3.0


def test_explicit_outgoing_sets(tmp_path):
    doc = minimal_doc()
    doc["spectrum"] = {"bands": 2, "outgoing": {"a": [0], "b": [1], "c": [0]}}
    scen = load_scenario(write(tmp_path, doc)).scenario
    assert scen.allocation.outgoing_bands("a") == (0,)
    assert scen.allocation.outgoing_bands("b") == (1,)
    assert scen.allocation.band_count == 2


def test_optimizer_section_round_trip(tmp_path):
    doc = minimal_doc()
    doc["optimizer"] = {"max_sweeps": 50, "tol": 1e-5, "order": "random", "seed": 3,
                        "power": 0.8, "overflow": 0.2}
    loaded = load_scenario(write(tmp_path, doc))
    assert loaded.optimizer == {"max_sweeps": 50, "tol": 1e-5, "order": "random",
                                "seed": 3, "power": 0.8, "overflow": 0.2}


def test_problems_are_aggregated(tmp_path):
    doc = minimal_doc()
    doc["power"] = {"budget": -1.0}
    doc["sessions"] = [
        {"origin": "a", "dest": "z", "demand": 0.5},
        {"origin": "a", "dest": "c", "demand": -2.0},
        {"origin": "a", "dest": "c", "demand": 0.1, "utility": {"kind": "cubic"}},
    ]
    doc["cost"] = {"bandwidth": 0}
    with pytest.raises(ParseError) as info:
        load_scenario(write(tmp_path, doc))
    msg = str(info.value)
    assert len(info.value.problems) >= 4
    assert "power.budget" in msg
    assert "unknown node 'z'" in msg
    assert "demand" in msg
    assert "cubic" in msg
    assert "cost.bandwidth" in msg


def test_unknown_keys_rejected(tmp_path):
    doc = minimal_doc()
    doc["extra"] = {}
    with pytest.raises(ParseError, match="unknown top-level section"):
        load_scenario(write(tmp_path, doc))
    doc = minimal_doc()
    doc["channel"]["fading"] = True
    with pytest.raises(ParseError, match="unknown key 'fading'"):
        load_scenario(write(tmp_path, doc))
    doc = minimal_doc()
    doc["sessions"][0]["priority"] = 2
    with pytest.raises(ParseError, match="unknown key 'priority'"):
        load_scenario(write(tmp_path, doc))


def test_missing_sections_reported_together(tmp_path):
    with pytest.raises(ParseError) as info:
        load_scenario(write(tmp_path, {"graph": minimal_doc()["graph"]}))
    missing = [p for p in info.value.problems if "missing required section" in p]
    assert len(missing) == 4


def test_graph_validation(tmp_path):
    doc = minimal_doc()
    doc["graph"]["edges"] = [["a", "b"], ["b", "q"]]
    with pytest.raises(ParseError, match="unknown node 'q'"):
        load_scenario(write(tmp_path, doc))
    doc = minimal_doc()
    doc["graph"]["nodes"] = ["a", "b", "c", "d"]
    with pytest.raises(ParseError, match="no edges"):
        load_scenario(write(tmp_path, doc))


def test_invalid_json_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"graph": }')
    with pytest.raises(ParseError, match="invalid JSON at line 1"):
        load_scenario(p)


def test_missing_file(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        load_scenario(tmp_path / "nope.json")


def test_bundled_examples_parse():
    root = Path(__file__).resolve().parent.parent / "scenarios"
    files = sorted(root.glob("*.json"))
    assert files, "sample scenarios should ship with the repo"
    for f in files:
        loaded = load_scenario(f)
        assert loaded.scenario.graph.n >= 2


def with_value(path, value):
    """The minimal document as JSON text, with the value at path replaced."""
    doc = minimal_doc()
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return json.dumps(doc)


NAN, INF = float("nan"), float("inf")
MALFORMED = [
    pytest.param(with_value(("graph", "nodes"), [["a"], ["b"], ["c"]]), "graph.nodes", id="list node names"),
    pytest.param(with_value(("graph",), {"nodes": [None, "b", "c"], "edges": [[None, "b"], ["b", "c"]]}),
                 "graph.nodes", id="null node name"),
    pytest.param(with_value(("graph",), {"nodes": ["a", 1, "c"], "edges": [["a", 1], [1, "c"]]}),
                 "graph.nodes", id="mixed node names"),
    pytest.param(with_value(("sessions", 0, "demand"), NAN), "sessions[0].demand", id="NaN demand"),
    pytest.param(with_value(("sessions", 0, "demand"), INF), "sessions[0].demand", id="Infinity demand"),
    pytest.param(with_value(("power", "budget"), INF), "power.budget", id="Infinity budget"),
    pytest.param(with_value(("power", "budget"), {"a": 1.0, "b": NAN, "c": 1.0}), "power.budget['b']", id="NaN budget"),
    pytest.param(with_value(("channel", "noise"), NAN), "channel.noise", id="NaN noise"),
    pytest.param(with_value(("graph", "positions"), {"a": [0.0, 0.0], "b": [NAN, 0.0], "c": [2.0, 0.0]}),
                 "graph.positions['b']", id="NaN position"),
    pytest.param(with_value(("graph", "positions"), {"a": [0.0, 0.0], "b": [1.0, INF], "c": [2.0, 0.0]}),
                 "graph.positions['b']", id="Infinity position"),
    pytest.param(with_value(("channel", "gains"), {"a->b": INF}), "channel.gains['a->b']", id="Infinity gain"),
    pytest.param(with_value(("channel", "gains"), {"b->c": NAN}), "channel.gains['b->c']", id="NaN gain"),
    pytest.param(with_value(("optimizer",), {"tol": 1e-4}).replace('"tol": 0.0001', '"tol": 0.0001, "tol": 0.01'),
                 "'tol'", id="duplicate key"),
    pytest.param(json.dumps([]), "top level", id="top level not an object"),
    pytest.param(with_value(("graph",), ["a", "b"]), "graph: expected an object", id="graph not an object"),
    pytest.param(with_value(("channel",), []), "channel: expected an object", id="channel not an object"),
    pytest.param(with_value(("sessions", 0, "utility"), "log"), "sessions[0].utility: expected an object",
                 id="utility not an object"),
    pytest.param(with_value(("cost",), 2.0), "cost: expected an object", id="cost not an object"),
    pytest.param(with_value(("optimizer",), [1]), "optimizer: expected an object", id="optimizer not an object"),
    pytest.param(with_value(("optimizer",), {"power": 1.5}), "optimizer.power", id="power above 1"),
    pytest.param(with_value(("optimizer",), {"order": "sideways"}), "optimizer.order", id="unknown order"),
    pytest.param(with_value(("channel", "gains"), [1]), "channel.gains: expected a mapping", id="gains not a mapping"),
    pytest.param(with_value(("graph", "positions"), [[0.0, 0.0]]), "graph.positions: expected a mapping",
                 id="positions not a mapping"),
    pytest.param(with_value(("power", "budget"), {"a": 1.0, "c": 1.0}), "power.budget: missing nodes ['b']",
                 id="per-node mapping missing a node"),
    pytest.param(with_value(("graph", "nodes"), ["a", "b", "c", "b"]), "graph.nodes: duplicate", id="duplicate node"),
    pytest.param(with_value(("graph", "edges"), [["a", "b", "c"]]), "graph.edges", id="edge not a pair"),
    pytest.param(with_value(("graph", "edges"), [["a", "b"], ["b", "c"], ["c", "c"]]), "graph: self loop",
                 id="self-loop"),
    pytest.param(with_value(("spectrum", "bands"), 0), "spectrum.bands", id="no bands"),
    pytest.param(with_value(("spectrum",), {"seed": 1}), "spectrum: missing required key 'bands'",
                 id="bands missing"),
    pytest.param(with_value(("spectrum",), {"bands": 2, "outgoing": {"a": [0], "b": [2], "c": [0]}}),
                 "spectrum.outgoing['b']", id="outgoing band out of range"),
    pytest.param(with_value(("channel", "band_scale"), [1.0, 2.0]), "channel.band_scale", id="band_scale too short"),
    pytest.param(with_value(("sessions",), []), "sessions: expected a nonempty list", id="no sessions"),
    pytest.param(with_value(("sessions", 0), {"origin": "a", "dest": "c"}),
                 "sessions[0]: missing required key 'demand'", id="session without demand"),
    pytest.param(with_value(("sessions", 0, "dest"), "a"), "sessions[0]: session origin equals destination",
                 id="origin is dest"),
]


@pytest.mark.parametrize("text, field", MALFORMED)
def test_malformed_values_are_parse_errors_naming_the_field(tmp_path, text, field):
    p = tmp_path / "bad.json"
    p.write_text(text)
    with pytest.raises(ParseError) as info:
        load_scenario(p)
    assert any(field in problem for problem in info.value.problems), info.value.problems
