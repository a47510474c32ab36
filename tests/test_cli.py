"""Command line surface: output shapes, exit codes, trace files."""

import io
import json
from pathlib import Path

import pytest

from duplexnet.cli import _start, main
from duplexnet.optimizer import solve
from duplexnet.scenario_io import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def test_spectrum_line3():
    code, text = run(["spectrum", "--scenario", str(SCENARIOS / "line3.json")])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "bands: 3"
    assert lines[1] == "interference-graph bound 3 vs protocol bound 3"
    assert "node a: bands 2" in lines
    assert "link b->c: bands 1" in lines
    assert lines[-1] == "duplexing check: ok"


def test_spectrum_ring8_bound_comparison():
    code, text = run(["spectrum", "--scenario", str(SCENARIOS / "ring8.json")])
    assert code == 0
    # the ring needs 4 bands under a per-link coloring but only 3 under
    # the set-family protocol
    assert "interference-graph bound 4 vs protocol bound 3" in text
    assert "duplexing check: ok" in text


def test_spectrum_out_file(tmp_path):
    target = tmp_path / "alloc.txt"
    code, text = run(["spectrum", "--scenario", str(SCENARIOS / "line3.json"),
                      "--out", str(target)])
    assert code == 0
    assert target.read_text() == text


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["spectrum", "--out"], "--out"),
        (["optimize", "--trace"], "--trace"),
    ],
)
def test_an_unwritable_output_file_is_an_input_error_before_the_work(tmp_path, argv, flag):
    target = tmp_path / "missing" / "out.txt"
    code, text = run([argv[0], "--scenario", str(SCENARIOS / "line3.json"), argv[1], str(target)])
    assert code == 2
    assert text.startswith(f"{flag}: cannot write {target}")
    # the message is all that was printed: no plan, no solve
    assert len(text.splitlines()) == 1
    assert not target.parent.exists()


def test_spectrum_seed_override():
    _, default = run(["spectrum", "--scenario", str(SCENARIOS / "line3.json")])
    code, seeded = run(["spectrum", "--scenario", str(SCENARIOS / "line3.json"),
                        "--seed", "3"])
    assert code == 0
    _, seeded_again = run(["spectrum", "--scenario", str(SCENARIOS / "line3.json"),
                           "--seed", "3"])
    assert seeded == seeded_again
    assert seeded.splitlines()[-1] == "duplexing check: ok"
    assert default.splitlines()[0] == seeded.splitlines()[0]


def test_optimize_line3_converges():
    code, text = run(["optimize", "--scenario", str(SCENARIOS / "line3.json")])
    assert code == 0
    assert text.startswith("initial cost: 0.2078075233281507")
    assert "final cost: 0.096901306640537421" in text
    assert "converged: yes" in text


def test_optimize_trace_is_reproducible(tmp_path):
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for t in (t1, t2):
        code, _ = run(["optimize", "--scenario", str(SCENARIOS / "line3.json"),
                       "--order", "random", "--seed", "11", "--trace", str(t)])
        assert code == 0
    assert t1.read_bytes() == t2.read_bytes()
    header, *rows = t1.read_text().splitlines()
    assert header == "sweep,cost,residual,max_step,evaluations,visited"
    # the start's evaluation is counted in no row; every sweep evaluates
    evaluations = [int(row.split(",")[4]) for row in rows]
    assert evaluations[0] == 0 and min(evaluations[1:]) > 0
    # the visited column is the library solve's, from the same start
    loaded = load_scenario(SCENARIOS / "line3.json")
    res = solve(loaded.scenario, _start(loaded), max_sweeps=400, tol=1e-4, order="random", seed=11)
    assert [int(row.split(",")[5]) for row in rows] == [row.visited for row in res.trace]
    assert res.trace[0].visited == 0 and min(row.visited for row in res.trace[1:]) > 0


def test_optimize_budget_exhaustion_exit_code():
    code, text = run(["optimize", "--scenario", str(SCENARIOS / "ring8.json"),
                      "--max-sweeps", "1", "--tol", "1e-12"])
    assert code == 1
    assert "converged: no" in text


def test_optimize_rejects_unparseable(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"graph": {"nodes": ["a"], "edges": []}}))
    code, text = run(["optimize", "--scenario", str(bad)])
    assert code == 2
    assert "missing required section" in text


@pytest.mark.parametrize(
    "command, failure",
    [
        ("optimize", "cannot start solver"),
        ("oracle", "cannot start solver: solve needs a finite-cost initial state"),
        ("check", "gradient check: FAIL (finite differences need a finite-cost state)"),
    ],
    ids=("optimize", "oracle", "check"),
)
def test_optimize_unstartable_scenario(tmp_path, command, failure):
    # demand far beyond any capacity makes the even-split start infinite:
    # each command that starts from it says so and exits 1
    doc = json.loads((SCENARIOS / "line3.json").read_text())
    doc["sessions"][0]["demand"] = 1e6
    doc["optimizer"]["overflow"] = 0.0
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    code, text = run([command, "--scenario", str(p)])
    assert code == 1
    assert failure in text


def test_check_line3_reports_honest_curvature_failure():
    # gradients agree with finite differences, but the congestion cost
    # family is not jointly convex, so the curvature scan must fail and
    # the exit code must say so
    code, text = run(["check", "--scenario", str(SCENARIOS / "line3.json")])
    assert code == 1
    assert "gradient check: pass" in text
    assert "curvature check: FAIL" in text
    assert "NOT PSD" in text


def test_check_rejects_an_empty_grid():
    # a scan over no points proves nothing: bad input, exit code 2
    for grid in ("0", "-3"):
        code, text = run(["check", "--scenario", str(SCENARIOS / "line3.json"), "--grid", grid])
        assert code == 2
        assert text == f"command line: 1 problem(s)\n  - --grid: expected an integer in [1, inf], got {grid}\n"


def test_oracle_line3_agreement():
    code, text = run(["oracle", "--scenario", str(SCENARIOS / "line3.json")])
    assert code == 0
    assert "solver cost: 0.096901306640537421" in text
    assert "best of 5 restarts" in text
    gap = float(text.split("relative gap: ")[1].split()[0])
    assert gap <= 1e-6
    assert "converged: yes" in text


def test_oracle_unconverged_solver_exit_code():
    code, text = run(["oracle", "--scenario", str(SCENARIOS / "line3.json"),
                      "--max-sweeps", "1"])
    assert code == 1
    assert "converged: no" in text


@pytest.mark.parametrize("argv, flag", [
    (["optimize", "--tol", "-1"], "--tol"),
    (["optimize", "--tol", "nan"], "--tol"),
    (["optimize", "--max-sweeps", "-2"], "--max-sweeps"),
    (["oracle", "--tol", "-1"], "--tol"),
])
def test_solve_flags_the_file_would_reject_are_input_errors(argv, flag):
    # the file's optimizer section rejects these values, so the flags are bad input too
    code, text = run(argv + ["--scenario", str(SCENARIOS / "line3.json")])
    assert code == 2
    assert f"{flag}:" in text


@pytest.mark.parametrize("argv, flag", [
    (["check", "--grad-tol", "nan"], "--grad-tol"),
    (["check", "--grad-tol", "-1"], "--grad-tol"),
    (["oracle", "--restarts", "0"], "--restarts"),
    (["oracle", "--sweeps", "-1"], "--sweeps"),
    (["oracle", "--seed", "-1"], "--seed"),
    (["spectrum", "--seed", "-1"], "--seed"),
])
def test_other_flags_the_file_would_reject_are_input_errors(argv, flag):
    # a gradient tolerance is a positive number, restarts and sweeps are
    # integers from 1, and seeds integers from 0, as the file reads them
    code, text = run(argv + ["--scenario", str(SCENARIOS / "line3.json")])
    assert code == 2
    assert f"{flag}:" in text


def test_oracle_too_large_is_input_error():
    code, text = run(["oracle", "--scenario", str(SCENARIOS / "ring8.json")])
    assert code == 2
    assert "too large" in text


def test_parse_errors_list_every_problem(tmp_path):
    doc = json.loads((SCENARIOS / "line3.json").read_text())
    doc["power"] = {"budget": -2.0}
    doc["sessions"][0]["demand"] = -1.0
    p = tmp_path / "multi.json"
    p.write_text(json.dumps(doc))
    code, text = run(["spectrum", "--scenario", str(p)])
    assert code == 2
    assert "2 problem(s)" in text
    assert "power.budget" in text
    assert "demand" in text
