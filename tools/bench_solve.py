"""Where a solve's time goes, per block kind, on fixed seeded workloads.

Give each tree to compare a label and the directory holding its duplexnet
package:

    python3 tools/bench_solve.py before=OTHER/src after=src

The trees take turns repeat by repeat, first in the order given and then
reversed, so that they share the machine's state; each repeat runs in a
fresh interpreter, which imports duplexnet from its tree, runs every
workload once untimed (so that what a scenario caches is built) and then
once measured.  Each label's figures are stored under it in
BENCH_solve.json at the root of this tree, keeping the other labels
already there.  The scenarios come from tests/helpers.py of this tree:

* grids: 2-sweep descents from the even split on jittered grids, six of
  4x4, four of 5x5, two of 8x8 and one of 10x10, with 2 and 3 sessions in turn
  (`grid_scenario`, `default_rng(401)`);
* to_tolerance: solves to `tol=1e-4`, at most 400 sweeps, from the even
  split on twenty random small scenarios (`random_scenario`,
  `default_rng(402)`);
* reference: the seeded `reference_solve_small` runs whose outputs
  tools/fingerprint.py digests (`reference_cases`).

Per workload it records counts that do not depend on the machine (sweeps,
converged solves, block updates, those that did not move and those that
reached `_block_move` at all, `derive`, `evaluate_physical` and
`evaluate_flows` calls per block update, the final costs and the sessions
rejected outright at the end) and the wall seconds per sweep of the
updates and of `_block_move`, per block kind, of `optimality_residuals`
and of the whole solve, the seconds per block update of `_block_move` and
of the solver's `derive` calls, and the share of solve time spent in
updates that moved nothing.  Block updates, and those that did not move, are counted
block by block in `_update_run`, which updates one block or a run of
separable ones; every update of a solve passes through it, so the count
equals the sum of the trace's `visited` column, and it holds as well for
a tree from before that column and for a solve that stalls.  An update's
time is that of the call: a run's time goes to its kind as a whole, and
counts as unmoved only when none of its blocks moved.
For the reference runs it records the evaluations and final cost of each
run, which do not depend on the machine either, and the wall seconds of
each run and of all of them; next to them, the solver's sweeps, block
updates, converged count and final cost from the even split on the same
scenarios (at most 400 sweeps to `tol=1e-4`), and the seconds of those
solves.  Each tree runs REPEATS times; its counts must repeat
exactly, and the counts that differ between trees are printed.  Each
timing is stored as its median over the repeats (median_timings) next to
its least and greatest (min_timings, max_timings), so that a before/after
gap can be read against the spread of one tree's repeats.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# one BLAS thread, as in perfbench/run.py: the arrays are small
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
from fingerprint import reference_cases  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_solve.json"
REPEATS = 5
KINDS = ("mu", "eta", "rho", "phi", "phi_w")


def _workloads(dn, helpers):
    """{name: [(scenario, start, solve kwargs)]}, in a fixed order."""
    rng = np.random.default_rng(401)
    grids = []
    for k, side in enumerate((4,) * 6 + (5,) * 4 + (8,) * 2 + (10,)):
        scen = helpers.grid_scenario(rng, side, 2 + k % 2)
        grids.append((scen, dn.uniform_state(scen, 0.9, 0.1), dict(max_sweeps=2, tol=1e-4)))
    rng = np.random.default_rng(402)
    full = []
    for _ in range(20):
        scen = helpers.random_scenario(rng)
        full.append((scen, dn.uniform_state(scen, 0.9, 0.1), dict(max_sweeps=400, tol=1e-4)))
    return {"grids": grids, "to_tolerance": full}


class _Counters:
    """Counts and times the package's calls by rebinding module attributes."""

    def __init__(self, dn):
        self.calls = dict.fromkeys(("derive", "evaluate_physical", "evaluate_flows"), 0)
        self.call_s = dict.fromkeys(self.calls, 0.0)
        self.move_s = dict.fromkeys(KINDS, 0.0)
        self.update_s = dict.fromkeys(KINDS, 0.0)
        self.updates = 0
        self.moves = 0
        self.residuals_s = 0.0
        self.unmoved = 0
        self.unmoved_s = 0.0
        self._undo = []
        opt, scen = dn.optimizer, dn.scenario
        for mod, name in ((opt, "derive"), (scen, "evaluate_physical"), (scen, "evaluate_flows")):
            self._patch(mod, name, self._counting(name, getattr(mod, name)))
        self._patch(opt, "_update_run", self._running(opt._update_run))
        self._patch(opt, "_block_move", self._timing(opt._block_move))
        self._patch(opt, "optimality_residuals", self._residuals(opt.optimality_residuals))

    def _patch(self, mod, name, fn):
        self._undo.append((mod, name, getattr(mod, name)))
        setattr(mod, name, fn)

    def _counting(self, name, fn):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.call_s[name] += time.perf_counter() - t0
            return out

        return wrapper

    def _record(self, kind, moved, seconds):
        """One update call of `kind` that took `seconds`; moved[k] tells
        whether its block k moved."""
        self.updates += len(moved)
        self.unmoved += len(moved) - sum(moved)
        self.update_s[kind] += seconds
        if not any(moved):
            self.unmoved_s += seconds

    def _running(self, fn):
        def wrapper(scenario, state, run, *args):
            t0 = time.perf_counter()
            out = fn(scenario, state, run, *args)
            self._record(run[0].kind, [move.moved for move in out[2]], time.perf_counter() - t0)
            return out

        return wrapper

    def _timing(self, fn):
        def wrapper(scenario, state, block, derived):
            t0 = time.perf_counter()
            out = fn(scenario, state, block, derived)
            self.move_s[block.kind] += time.perf_counter() - t0
            self.moves += 1
            return out

        return wrapper

    def _residuals(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.residuals_s += time.perf_counter() - t0
            return out

        return wrapper

    def close(self):
        for mod, name, fn in reversed(self._undo):
            setattr(mod, name, fn)


# a session whose overflow fraction ends this close to 1 is rejected outright
REJECTED = 1.0 - 1e-6


def _solve_all(dn, cases):
    """Solve each case under a fresh _Counters: ({sweeps, converged and
    stalled solves, final costs (None where a solve stalled), the sessions
    rejected outright}, the counters, the wall seconds)."""
    out = dict(sweeps=0, converged=0, stalled=0, costs=[], rejected_sessions=0)
    counters = _Counters(dn)
    t0 = time.perf_counter()
    try:
        for scen, start, kwargs in cases:
            try:
                res = dn.solve(scen, start, **kwargs)
            except dn.StalledStepError:
                out["stalled"] += 1
                out["costs"].append(None)
                continue
            out["sweeps"] += res.sweeps
            out["converged"] += res.converged
            out["costs"].append(res.cost)
            out["rejected_sessions"] += int((res.state.phi_w >= REJECTED).sum())
    finally:
        wall = time.perf_counter() - t0
        counters.close()
    return out, counters, wall


def _run(dn, cases):
    """One pass over a workload: (counts, timings)."""
    solved, counters, wall = _solve_all(dn, cases)
    sweeps = solved["sweeps"]
    updates = counters.updates
    counts = {
        "solves": len(cases),
        "converged": solved["converged"],
        "stalled": solved["stalled"],
        "sweeps": sweeps,
        "rejected_sessions": solved["rejected_sessions"],
        "final_costs": solved["costs"],
        "block_updates": updates,
        "unmoved_updates": counters.unmoved,
        "block_moves": counters.moves,
        "derive_calls": counters.calls["derive"],
        "evaluate_physical_calls": counters.calls["evaluate_physical"],
        "evaluate_flows_calls": counters.calls["evaluate_flows"],
    }
    for name in ("derive", "evaluate_physical", "evaluate_flows"):
        counts[f"{name}_per_update"] = round(counters.calls[name] / max(1, updates), 4)
    timings = {f"block_move_{k}_s_per_sweep": counters.move_s[k] / max(1, sweeps) for k in KINDS}
    timings.update({f"update_{k}_s_per_sweep": counters.update_s[k] / max(1, sweeps) for k in KINDS})
    timings["block_move_s_per_sweep"] = sum(counters.move_s.values()) / max(1, sweeps)
    timings["block_move_s_per_update"] = sum(counters.move_s.values()) / max(1, updates)
    timings["derive_s_per_update"] = counters.call_s["derive"] / max(1, updates)
    timings["residuals_s_per_sweep"] = counters.residuals_s / max(1, sweeps)
    timings["solve_s_per_sweep"] = wall / max(1, sweeps)
    timings["solve_s"] = wall
    timings["unmoved_update_share"] = counters.unmoved_s / wall
    return counts, timings


def _run_reference(dn, cases):
    """One pass over the reference runs, and the solver's on the same
    scenarios: (counts, timings)."""
    counts = {"solves": len(cases), "evaluations": {}, "final_costs": {}}
    timings = {}
    for label, scen, kwargs in cases:
        t0 = time.perf_counter()
        ref = dn.reference_solve_small(scen, **kwargs)
        timings[f"{label} s"] = time.perf_counter() - t0
        counts["evaluations"][label] = ref.evaluations
        counts["final_costs"][label] = ref.cost
    counts["evaluations_total"] = sum(counts["evaluations"].values())
    timings["solve_s"] = sum(timings.values())
    solves = [(scen, dn.uniform_state(scen, 0.9, 0.1), dict(max_sweeps=400, tol=1e-4)) for _, scen, _ in cases]
    solved, counters, timings["solver_s"] = _solve_all(dn, solves)
    counts["solver"] = {
        "converged": solved["converged"],
        "stalled": solved["stalled"],
        "sweeps": solved["sweeps"],
        "block_updates": counters.updates,
        "rejected_sessions": solved["rejected_sessions"],
        "final_costs": dict(zip(counts["final_costs"], solved["costs"])),
    }
    return counts, timings


def _measure(src):
    """One repeat of every workload on the duplexnet package in `src`,
    each after an untimed pass: {workload: (counts, timings)}."""
    sys.path[:0] = [src, str(ROOT / "tests")]
    import duplexnet as dn
    import helpers

    workloads = {name: (_run, cases) for name, cases in _workloads(dn, helpers).items()}
    workloads["reference"] = (_run_reference, list(reference_cases(helpers)))
    out = {}
    for name, (run, cases) in workloads.items():
        run(dn, cases)
        out[name] = run(dn, cases)
    return out


def _tree(arg):
    label, sep, src = arg.partition("=")
    if not (label and sep and src):
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC, got {arg!r}")
    return label, str(Path(src).resolve())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "trees",
        nargs="+",
        type=_tree,
        metavar="LABEL=SRC",
        help="a key in BENCH_solve.json and the directory holding that tree's duplexnet package",
    )
    trees = dict(ap.parse_args(argv).trees)
    runs = {label: [] for label in trees}
    # one worker, replaced after every task: each repeat gets a fresh interpreter
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(1, mp_context=spawn, max_tasks_per_child=1) as pool:
        for rep in range(REPEATS):
            order = list(trees) if rep % 2 == 0 else list(reversed(trees))
            for label in order:
                runs[label].append(pool.submit(_measure, trees[label]).result())
                print(f"repeat {rep + 1}/{REPEATS}: {label}", flush=True)
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data["about"] = (
        "tools/bench_solve.py: fixed-seed solver workloads; counts are machine-independent, "
        f"timings are wall-clock medians over {REPEATS} repeats, with their min and max; "
        "the trees of one invocation alternate repeat by repeat, each repeat in a fresh interpreter"
    )
    machine = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "processor": platform.processor() or platform.machine(),
    }
    for label, reps in runs.items():
        result = {}
        for name in reps[0]:
            counts = reps[0][name][0]
            if any(rep[name][0] != counts for rep in reps):
                raise RuntimeError(f"{label} {name}: counts differ between repeats: {[rep[name][0] for rep in reps]}")
            result[name] = {"counts": counts}
            timings = [rep[name][1] for rep in reps]
            for stat, fn in (("median", statistics.median), ("min", min), ("max", max)):
                result[name][f"{stat}_timings"] = {k: round(fn(t[k] for t in timings), 6) for k in timings[0]}
            print(f"{label} {name}: {json.dumps(result[name])}")
        data.setdefault("runs", {})[label] = {"machine": machine, "workloads": result}
    labels = list(runs)
    for name in runs[labels[0]][0]:
        counts = [runs[label][0][name][0] for label in labels]
        differ = sorted(k for k in counts[0] if any(c.get(k) != counts[0][k] for c in counts[1:]))
        if len(labels) > 1:
            print(f"{name}: counts that differ between {', '.join(labels)}: {', '.join(differ) or 'none'}")
    OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT.name} [{', '.join(labels)}]")


if __name__ == "__main__":
    main()
