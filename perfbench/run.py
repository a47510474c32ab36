"""duplexnet benchmark: spectrum planning, grid descents, small-instance checks.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload spectrum_rgg --seed 1 --seconds 30 --trace 0

The package is imported from ./src.  Inputs are generated from --seed; the
run then repeats whole rounds of the same operations until --seconds have
passed (at least one round).  Each output is checked right after its
operation, outside the timed region, against the independent checkers in
checks.py.  The last line printed is one JSON object: with --trace 0 it
holds the end-to-end metrics; with --trace 1 it holds per-layer metrics
from spans recorded around the package's public functions in every other
round, and the tracing overhead against the untraced rounds between them.

The speed of a shared host swings by up to 2x within seconds, and the
program's speed swings with it.  So every timed call is bracketed by a
short fixed probe that calls nothing of the package (each workload's probe
resembles its kind of work), and times are reported in "scaled seconds":
wall time multiplied by PROBE_REF_S over the probe's mean time around the
call, i.e. the time the call would take on a machine where the probe takes
PROBE_REF_S.  Raw wall times and the machine's speed factor are printed
above the result line.
"""

from __future__ import annotations

import os

# one BLAS thread: the program's arrays are small, and a second spinning
# thread on a 2-vCPU host only adds noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SPAN_DIR = ".bench_spans"
TOL = 1e-4  # solver residual target
PROBE_ITERS = 500
PROBE_SET_ITERS = 1800  # as long as PROBE_ITERS of the array probe, within 5%
PROBE_REF_S = 0.0035  # nominal probe time, about its median on a 2-vCPU Xeon VM


@dataclass
class Op:
    """One timed operation and what came of it."""

    kind: str
    seconds: float  # scaled seconds; see the module docstring
    outcome: str = "ok"
    failed: bool = False
    reason: str = ""
    detail: dict = field(default_factory=dict)


_PROBE_ROWS = None
_PROBE_SETS = None
WALL: list = []  # (wall seconds, speed factor) of every timed call


def _probe_arrays() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array work,
    like the solver's; it calls nothing of the package."""
    t0 = time.perf_counter()
    v, s, d = _PROBE_ROWS[0], 0.0, {}
    for i in range(PROBE_ITERS):
        row = _PROBE_ROWS[i % 30]
        s += float(row @ v) + float(np.minimum(row, 0.5).sum())
        d[i % 64] = s
    return time.perf_counter() - t0


def _probe_sets() -> float:
    """Seconds taken by set intersections spread over a few megabytes of
    small sets, like spectrum planning's; it calls nothing of the package.
    Spectrum code responds less to the host's speed swings than the array
    probe does, so that probe overcorrects it."""
    global _PROBE_SETS
    if _PROBE_SETS is None:
        _PROBE_SETS = [{(k * 7919 + j * 104729 + j * j * 31) % 5000 for j in range(10)} for k in range(5000)]
    t0 = time.perf_counter()
    n = 0
    for i in range(PROBE_SET_ITERS):
        k = (i * 2654435761) % 5000
        n += len(_PROBE_SETS[k] & _PROBE_SETS[k * 7 % 5000])
    return time.perf_counter() - t0


_probe = _probe_arrays  # the workload's probe; main() sets it


def _timed(call):
    """Run `call`; return its output and its time in scaled seconds."""
    before = _probe()
    t0 = time.perf_counter()
    out = call()
    wall = time.perf_counter() - t0
    speed = 0.5 * (before + _probe()) / PROBE_REF_S
    WALL.append((wall, speed))
    return out, wall / speed


# ---------------------------------------------------------------------------
# workloads: each builds its inputs from the seed in __init__ (the set-up)
# and runs one round of operations in round(rec), passing every operation
# and the problems found in its output to rec


class SpectrumRgg:
    """Plan a random geometric graph at the tight band count, then apply a
    sequence of joins and leaves to the plan, one event at a time."""

    NODES = 1000
    EVENTS = 100
    PROBE = staticmethod(_probe_sets)

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.topo = inputs.random_geometric(rng, self.NODES)
        self.graph = inputs.graph_of(self.topo)
        self.bands = checks.min_band_count(self.topo.max_degree() + 1)
        self.plan_seed = int(rng.integers(2**31))
        self.events = inputs.churn_events(rng, self.topo, self.EVENTS)
        self.event_seeds = [int(s) for s in rng.integers(2**31, size=self.EVENTS)]

    def round(self, rec):
        g = self.graph

        def plan():
            a = dn.allocate_subbands(g, self.bands, seed=self.plan_seed)
            return a, dn.check_allocation(g, a)

        (alloc, report), sec = _timed(plan)
        bad = [f"plan: {p}" for p in checks.check_spectrum(self.topo, alloc, tight=True)]
        if not report.ok:
            bad.append("plan: the package's own check rejects its plan")
        rec(Op("plan", sec), bad)
        topo = self.topo.copy()
        for k, (ev, seed) in enumerate(zip(self.events, self.event_seeds)):
            res, sec = _timed(lambda: dn.apply_topology_change(g, alloc, ev, seed=seed))
            topo.apply(ev)
            what = f"event {k} ({type(ev).__name__} {ev.node})"
            bad = [f"{what}: {p}" for p in checks.check_spectrum(topo, res.allocation, tight=False)]
            bad += [f"{what}: {p}" for p in checks.check_untouched(alloc, res.allocation, topo, ev.node)]
            if res.disconnected or set(res.graph.links) != set(topo.directed_links()):
                bad.append(f"{what}: resulting graph differs from the expected topology")
            rec(Op(type(ev).__name__.lower(), sec), bad)
            g, alloc = res.graph, res.allocation


def _descend(kind, scen, start, sweeps, order="round_robin", seed=None):
    """Solve for at most `sweeps` sweeps; check and record the outcome.

    Reaching the sweep budget is the expected end of a budgeted descent;
    a StalledStepError is a failed operation.
    """
    try:
        res, sec = _timed(lambda: dn.solve(scen, start, max_sweeps=sweeps, tol=TOL, order=order, seed=seed))
    except dn.StalledStepError as exc:
        return Op(kind, math.nan, "stalled", True, str(exc)), None, []
    what = f"{kind} on {scen.layout.n} nodes"
    bad = (
        checks.check_descent(res.trace, what)
        + checks.check_feasible(scen, res.state, what)
        + checks.check_price(scen, res.state, res.cost, what)
    )
    outcome = "converged" if res.converged else "budget"
    detail = {
        "sweeps": res.sweeps,
        "residual": res.residual,
        "cost": res.cost,
        "sum_error": checks.sum_error(scen, res.state),
    }
    return Op(kind, sec, outcome, detail=detail), res, bad


def _warm_up(scens, starts):
    """First evaluations on every scenario, so rounds start warm."""
    for scen, st in zip(scens, starts):
        dn.optimality_residuals(scen, st, dn.derive(scen, st))


class SolveGrid:
    """Budgeted descents from the even split on jittered grids of 16 and 25
    nodes; a full solve costs 13-184 s here, more than a run may take."""

    GRIDS = ((4, 24), (5, 8))  # (side, how many)
    SWEEPS = 2

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        # 2 and 3 sessions alternate, so the amount of work varies less
        # from seed to seed than with a drawn session count
        self.scens = [
            inputs.jittered_grid(rng, side, 2 + k % 2)
            for side, count in self.GRIDS
            for k in range(count)
        ]
        self.starts = [inputs.even_split(s) for s in self.scens]
        _warm_up(self.scens, self.starts)

    def round(self, rec):
        for scen, st in zip(self.scens, self.starts):
            op, _, bad = _descend("descent", scen, st, self.SWEEPS)
            rec(op, bad)


class VerifySmall:
    """Tiny scenarios: budgeted descents from the even split and from random
    interior starts in both sweep orders; reference solves and finite-
    difference checks on the reference-sized ones; and the fixed three-node
    line, on which a full solve and the reference search must agree."""

    # (nodes, bands, sessions) per scenario; the first ones are reference-sized.
    # Each shape is drawn several times: the work of one draw varies widely,
    # and the round's total varies less from seed to seed with more draws
    SHAPES = ((4, 3, 2), (4, 2, 1), (4, 3, 1), (4, 2, 2)) * 4 + (
        (5, 2, 1), (5, 3, 3), (5, 3, 2), (6, 3, 2), (6, 2, 3), (6, 3, 1),
        (7, 3, 1), (7, 2, 2), (7, 3, 3), (8, 3, 3), (8, 2, 1), (8, 3, 2),
    ) * 2
    REFERENCE_SIZED = 16
    SWEEPS = 4
    FD_STATES = 2
    # a short reference search: its full 60 sweeps cost 20-40x more on one
    # draw in fifteen, which would swamp every other operation
    REF_RESTARTS = 1
    REF_SWEEPS = 8

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.scens = [inputs.small_scenario(rng, n, q, w) for n, q, w in self.SHAPES]
        self.starts = [inputs.even_split(s) for s in self.scens]
        self.interior = [inputs.interior_state(s, rng) for s in self.scens]
        self.fd_states = [
            [inputs.interior_state(s, rng) for _ in range(self.FD_STATES)]
            for s in self.scens[: self.REFERENCE_SIZED]
        ]
        self.ref_seeds = [int(x) for x in rng.integers(2**31, size=self.REFERENCE_SIZED)]
        self.line = inputs.line3()
        self.line_start = inputs.even_split(self.line)
        self.gaps = {}
        _warm_up(self.scens + [self.line], self.starts + [self.line_start])

    def _reference(self, name, scen, converged, **kw):
        """Reference search on `scen`; records the gap to a converged solve."""
        ref, sec = _timed(lambda: dn.reference_solve_small(scen, **kw))
        bad = checks.check_feasible(scen, ref.state, name) + checks.check_price(scen, ref.state, ref.cost, name)
        gap = None if converged is None else (converged.cost - ref.cost) / ref.cost
        if gap is not None:
            self.gaps[name] = gap
        return Op("reference", sec, detail={"evals": ref.evaluations, "cost": ref.cost}), bad, gap

    def round(self, rec):
        for k, scen in enumerate(self.scens):
            op, even, bad = _descend("descent", scen, self.starts[k], self.SWEEPS)
            rec(op, bad)
            for order in ("round_robin", "random"):
                op, _, bad = _descend("descent", scen, self.interior[k], self.SWEEPS, order, seed=k)
                rec(op, bad)
            if k < self.REFERENCE_SIZED:
                converged = even if even is not None and even.converged else None
                op, bad, _ = self._reference(
                    f"scenario {k}", scen, converged,
                    seed=self.ref_seeds[k], restarts=self.REF_RESTARTS, sweeps=self.REF_SWEEPS,
                )
                rec(op, bad)
                for st in self.fd_states[k]:
                    rep, sec = _timed(lambda: dn.finite_diff_check(scen, st))
                    bad = [f"scenario {k}: gradient error {rep.worst:.3g}"] if rep.worst > 1e-5 else []
                    rec(Op("gradcheck", sec, detail={"coords": rep.total_checked}), bad)
        op, line, bad = _descend("line3 solve", self.line, self.line_start, 400)
        if op.outcome == "budget":
            op.outcome, op.failed, op.reason = "capped", True, "400 sweeps without reaching the tolerance"
        rec(op, bad)
        op, bad, gap = self._reference("line3", self.line, line)
        if gap is None or abs(gap) > 1e-3:
            bad.append(f"line3: solver and reference disagree (relative gap {gap})")
        rec(op, bad)

    def notes(self):
        return [
            "solver minus reference cost, relative, where the even-split descent converged: "
            + ", ".join(f"{k} {g:+.2e}" for k, g in self.gaps.items())
        ]


WORKLOADS = {"spectrum_rgg": SpectrumRgg, "solve_grid": SolveGrid, "verify_small": VerifySmall}


# ---------------------------------------------------------------------------
# run loop


def _import_package():
    """Import duplexnet from ./src of the checkout, or exit with code 2."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "duplexnet", "__init__.py")):
        print(f"error: no duplexnet sources under {src}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    global np, dn, checks, inputs, tracing, _PROBE_ROWS
    import numpy as np
    import duplexnet as dn

    _PROBE_ROWS = np.arange(900.0).reshape(30, 30) / 900.0

    if not os.path.abspath(dn.__file__).startswith(src + os.sep):
        print(f"error: duplexnet imported from {dn.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    import checks
    import inputs
    import tracing


def _fresh_import() -> float:
    """Seconds a fresh interpreter takes to import numpy and duplexnet from
    ./src, as the child measures it; the child is waited for."""
    code = "import time; t0 = time.perf_counter(); import numpy, duplexnet; print(time.perf_counter() - t0)"
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    global _probe
    _probe = getattr(WORKLOADS[args.workload], "PROBE", _probe_arrays)
    _probe()  # first call warms the probe
    imports = []
    for _ in range(IMPORT_REPEATS):
        sec, _ = _timed(_fresh_import)
        imports.append(sec / WALL[-1][1])  # the child's own time, scaled like the call
    import_s = statistics.median(imports)
    setups, work = [], None
    for _ in range(SETUP_REPEATS):
        work = None
        gc.collect()
        work, sec = _timed(lambda: WORKLOADS[args.workload](args.seed))
        setups.append(sec)

    tracer = tracing.Tracer() if args.trace else None
    rounds, problems = [], []  # rounds: (traced, ops)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        ops = []

        def rec(op, bad=()):
            ops.append(op)
            problems.extend(bad)
            if traced:
                tracer.current_op = len(rounds) * 10000 + len(ops)

        if traced:
            tracer.current_op = len(rounds) * 10000
            tracer.install()
        try:
            work.round(rec)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append((traced, ops))
        enough = time.perf_counter() - start >= args.seconds
        if enough and (tracer is None or len(rounds) >= 2):
            break

    all_ops = [op for _, ops in rounds for op in ops]
    print(
        "set-up, scaled s: imports " + " ".join(f"{x:.4f}" for x in imports)
        + "; set-ups " + " ".join(f"{x:.4f}" for x in setups)
    )
    _report(args.workload, work, rounds, problems)
    if tracer is None:
        metrics = {
            "setup_s": (import_s + statistics.median(setups), "s"),
            "round_scaled_s": (_typical_round([ops for _, ops in rounds]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        with_spans = [ops for t, ops in rounds if t]
        plain = [ops for t, ops in rounds if not t]
        sweeps = sum(op.detail.get("sweeps", 0) for ops in with_spans for op in ops)
        layer = tracing.layer_metrics(tracer, len(with_spans), sweeps)
        layer["trace.overhead_pct"] = 100.0 * (_typical_round(with_spans) / _typical_round(plain) - 1.0)
        metrics = {k: (v, _unit(k)) for k, v in layer.items()}
        os.makedirs(SPAN_DIR, exist_ok=True)
        tracer.write(os.path.join(SPAN_DIR, f"{args.workload}-seed{args.seed}.tsv.gz"))
    result = {
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": sum(op.failed for op in all_ops),
        "metrics": {k: {"value": v if isinstance(v, int) else float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _round_seconds(ops) -> float:
    return sum(op.seconds for op in ops if not op.failed)


def _typical_round(rounds) -> float:
    """Sum over a round's operations of each one's median over the rounds,
    failed operations excluded; every round runs the same operations."""
    return sum(
        statistics.median(op.seconds for op in same)
        for same in zip(*rounds)
        if not any(op.failed for op in same)
    )


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or name == "gradients.s":
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio") or name.endswith("_per_update"):
        return "ratio"
    return "count"


def _report(workload, work, rounds, problems):
    """Per-kind figures, failure reasons and problems, before the result line."""
    first = rounds[0][1]
    print(f"workload {workload}: {len(rounds)} rounds of {len(first)} operations")
    speeds = sorted(sp for _, sp in WALL)
    print(
        f"  machine speed factor (probe time over {PROBE_REF_S} s): median {statistics.median(speeds):.3f}, "
        f"range {speeds[0]:.3f}-{speeds[-1]:.3f}; wall seconds of all timed calls {sum(w for w, _ in WALL):.3f}"
    )
    print("  round scaled seconds: " + " ".join(f"{'T' if t else ''}{_round_seconds(ops):.3f}" for t, ops in rounds))
    for kind in dict.fromkeys(op.kind for op in first):
        ops = [op for _, r in rounds for op in r if op.kind == kind]
        ok = [op.seconds for op in ops if not op.failed]
        per_round = statistics.median(_round_seconds([op for op in r if op.kind == kind]) for _, r in rounds)
        outcomes = {}
        for op in ops:
            outcomes[op.outcome] = outcomes.get(op.outcome, 0) + 1
        median_ms = statistics.median(ok) * 1e3 if ok else math.nan
        print(
            f"  {kind}: {len(ops)} attempted, {len(ops) - len(ok)} failed, {per_round:.4f} s per round, "
            f"median {median_ms:.3f} ms per operation, outcomes {outcomes}"
        )
    print("  first round, per operation:")
    for k, op in enumerate(first):
        if op.failed or op.detail:
            fields = ", ".join(f"{key} {val:.6g}" for key, val in op.detail.items())
            print(f"    {k} {op.kind}: {op.outcome}{': ' + op.reason if op.failed else ''}; {fields}")
    errs = [op.detail["sum_error"] for _, r in rounds for op in r if "sum_error" in op.detail]
    if errs:
        print(f"  worst simplex-sum error of a descent's final state: {max(errs):.3g}")
    for note in work.notes() if hasattr(work, "notes") else ():
        print(f"  {note}")
    for p in problems[:20]:
        print(f"  PROBLEM {p}")
    if len(problems) > 20:
        print(f"  ... {len(problems) - 20} more problems")


if __name__ == "__main__":
    sys.exit(main())
