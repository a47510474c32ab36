"""SHA-256 digests over the outputs of fixed, seeded solves and spectrum plans.

A refactor that should change no number can be checked by running this on
both trees and comparing the digests:

    python3 tools/fingerprint.py                      # this tree's src/
    python3 tools/fingerprint.py --src OTHER/src      # another checkout

The scenarios come from tests/helpers.py of this tree: line3 and line5 to
tolerance, line3 from near rejection, the multistable square, budgeted
descents on random small scenarios (even split, a random interior start,
and random block order) and on jittered 4x4 and 5x5 grids.  The digest
covers the per-family residuals of each start, and each final state, its
cost, the whole trace, its per-family residuals and the blocked-link mask
of its routing marginals.  `--each` also prints one
short digest per solve, to locate a difference, and next to each
reference search's digest its cost and evaluation count, to size one.

A second digest covers the spectrum half: two seeded 300-node random
geometric graphs (tests/helpers.py), one planned with seed None and one
with an integer seed, then a 40-event join/leave churn on each.  It covers
each plan's band sets and link bands and its check report, and after every
event the resulting allocation, graph nodes and links, components and
disconnection flag.  The allocation's dicts are hashed sorted by key: their
order is not part of the allocation.

A third digest covers the reference search (`reference_solve_small`) on
the seeded runs of `reference_cases`: line3 at its defaults and with
frozen power, the square at 10 restarts, and six reference-sized random
scenarios at 2 restarts and 12 sweeps.  It covers each run's cost,
restart costs, evaluation count and all five arrays of its state.

A fourth digest covers the scenario files: `load_scenario` of the bundled
scenarios/*.json and of `scenario_documents`, valid documents that use
every section option, integer node names included.  It covers each
scenario's nodes, links, outgoing band sets, link bands, the bytes of its
gains, noise and budgets, its sessions and cost, and the optimizer dict.

A fifth digest, "wide blocks", covers solves as the first does, on
scenarios whose eta and phi blocks hold 8 or more coordinates, the size
from which `group_sums` sums a group with np.sum (its wide branch) instead
of bincount: a hub with 9 leaves and fans of 9, 10 and 11 relays between
two ends (tests/helpers.py), each descended for at most 4 sweeps from the
even split, from a random interior start and in random block order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _solves(dn, helpers):
    """(label, scenario, start, solve kwargs), in a fixed order."""
    line3 = helpers.line3_scenario()
    even = dn.uniform_state(line3, 0.9, 0.1)
    yield "line3 tol 1e-4", line3, even, dict(max_sweeps=400, tol=1e-4)
    line5 = helpers.line5_scenario()
    yield "line5 tol 1e-6", line5, dn.uniform_state(line5, 0.9, 0.1), dict(max_sweeps=400, tol=1e-6)
    yield "line3 near rejection", line3, dn.uniform_state(line3, 0.05, 1.0), dict(max_sweeps=400, tol=1e-4)
    square = helpers.square_scenario()
    yield "square", square, dn.uniform_state(square, 0.9, 0.1), dict(max_sweeps=400, tol=1e-4)
    rng = np.random.default_rng(301)
    for k in range(12):
        scen = helpers.random_scenario(rng)
        start = dn.uniform_state(scen, 0.9, 0.1)
        yield f"random {k} even", scen, start, dict(max_sweeps=4, tol=1e-4)
        yield f"random {k} interior", scen, helpers.random_interior_state(scen, rng), dict(max_sweeps=4, tol=1e-4)
        yield f"random {k} random order", scen, start, dict(max_sweeps=4, tol=1e-4, order="random", seed=k)
    rng = np.random.default_rng(302)
    for k, side in enumerate((4, 4, 4, 5, 5)):
        scen = helpers.grid_scenario(rng, side, 2 + k % 2)
        yield f"grid {k} {side}x{side}", scen, dn.uniform_state(scen, 0.9, 0.1), dict(max_sweeps=2, tol=1e-4)


def _wide_solves(dn, helpers):
    """(label, scenario, start, solve kwargs) on scenarios whose eta and phi
    blocks hold 8 or more coordinates, in a fixed order."""
    rng = np.random.default_rng(306)
    scens = [("hub 9", helpers.hub_scenario(9))]
    scens += [(f"fan {relays}", helpers.fan_scenario(rng, relays)) for relays in (9, 10, 11)]
    for name, scen in scens:
        start = dn.uniform_state(scen, 0.9, 0.1)
        yield f"{name} even", scen, start, dict(max_sweeps=4, tol=1e-4)
        yield f"{name} interior", scen, helpers.random_interior_state(scen, rng), dict(max_sweeps=4, tol=1e-4)
        yield f"{name} random order", scen, start, dict(max_sweeps=4, tol=1e-4, order="random", seed=7)


def _feed(h, *values):
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(str(v.dtype).encode() + str(v.shape).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (bool, int, np.integer)):
            h.update(struct.pack("<q", int(v)))
        elif isinstance(v, (float, np.floating)):
            h.update(struct.pack("<d", float(v)))
        else:
            h.update(str(v).encode())


def _digest_solve(dn, scen, start, kwargs):
    h = hashlib.sha256()
    r = dn.optimality_residuals(scen, start)
    _feed(h, r.eta, r.rho, r.mu, r.phi, r.overflow)
    try:
        res = dn.solve(scen, start, **kwargs)
    except dn.StalledStepError as err:
        _feed(h, "stalled", err.residual)
        return h
    st = res.state
    _feed(h, st.rho, st.eta, st.phi, st.phi_w, st.mu)
    _feed(h, res.cost, res.residual, res.sweeps, res.converged)
    for row in res.trace:
        _feed(h, row.sweep, row.cost, row.residual, row.max_step)
    r = dn.optimality_residuals(scen, st)
    _feed(h, r.eta, r.rho, r.mu, r.phi, r.overflow)
    _feed(h, dn.routing_marginals(scen, st, dn.derive(scen, st)).blocked)
    return h


def _solves_digest(dn, cases, each):
    """One digest over the solve digests of `cases`, and their number."""
    total = hashlib.sha256()
    count = 0
    for label, scen, start, kwargs in cases:
        h = _digest_solve(dn, scen, start, kwargs)
        total.update(h.digest())
        count += 1
        if each:
            print(f"{h.hexdigest()[:16]}  {label}")
    return total, count


def reference_cases(helpers):
    """(label, scenario, reference_solve_small kwargs), in a fixed order."""
    line3 = helpers.line3_scenario()
    yield "line3", line3, {}
    yield "line3 frozen power", line3, dict(freeze_power=True)
    yield "square", helpers.square_scenario(), dict(restarts=10)
    rng = np.random.default_rng(305)
    for k, (q, w) in enumerate(((3, 2), (2, 1), (3, 1), (2, 2), (3, 2), (2, 2))):
        scen = helpers.random_scenario(rng, 4, q, w)
        yield f"random {k} ({q} bands, {w} sessions)", scen, dict(seed=k, restarts=2, sweeps=12)


def _digest_reference(dn, scen, kwargs):
    h = hashlib.sha256()
    ref = dn.reference_solve_small(scen, **kwargs)
    st = ref.state
    _feed(h, ref.cost, len(ref.restart_costs), *ref.restart_costs, ref.evaluations)
    _feed(h, st.rho, st.eta, st.phi, st.phi_w, st.mu)
    return h, ref


def _spectrum_digest(dn, helpers):
    h = hashlib.sha256()
    rng = np.random.default_rng(303)
    events = 0
    for plan_seed in (None, 304):
        g, pos, radius = helpers.random_geometric_graph(rng)
        q = dn.min_subband_count(g.max_degree() + 1)
        alloc = dn.allocate_subbands(g, q, seed=plan_seed)
        _feed(h, sorted(alloc.outgoing.items()), sorted(alloc.link_bands.items()), dn.check_allocation(g, alloc))
        for _, _, change, res in helpers.churn(rng, g, alloc, pos, radius, 40):
            a, out = res.allocation, res.graph
            _feed(h, change, sorted(a.outgoing.items()), sorted(a.link_bands.items()))
            _feed(h, None if out is None else (out.nodes, out.links), [sorted(c) for c in res.components])
            _feed(h, res.disconnected)
            events += 1
    return h, events


def scenario_documents():
    """(label, document): valid scenario files that together use every section option."""
    line = {"nodes": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}
    yield "defaults", {
        "graph": line,
        "spectrum": {"bands": 3, "seed": 1},
        "channel": {},
        "power": {"budget": 1.0},
        "sessions": [{"origin": "a", "dest": "c", "demand": 0.5}],
    }
    yield "every option, string names", {
        "graph": {**line, "positions": {"a": [0.0, 0.0], "b": [1.2, 0.3], "c": [2, -1]}},
        "spectrum": {"bands": 3, "seed": 5, "first_node": "b"},
        "channel": {"path_loss_exponent": 3, "default_gain": 0.02, "noise": {"a": 0.001, "b": 0.002, "c": 3e-3},
                    "gains": {"a->c": 0.25, "c->b": 0}, "band_scale": [1, 2.5, 0.75]},
        "power": {"budget": {"a": 1, "b": 2.5, "c": 0.5}},
        "sessions": [{"origin": "a", "dest": "c", "demand": 0.4, "utility": {"kind": "linear", "weight": 2}},
                     {"origin": "c", "dest": "b", "demand": 1, "utility": {"weight": 0.5}},
                     {"origin": "b", "dest": "a", "demand": 0.2, "utility": {"kind": "log"}}],
        "cost": {"bandwidth": 2, "gain_factor": 40.5},
        "optimizer": {"max_sweeps": 50, "tol": 1e-5, "order": "random", "seed": 3, "power": 0.8, "overflow": 0},
    }
    ring = {"nodes": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    yield "integer names, explicit band sets", {
        "graph": {**ring, "positions": {"0": [0, 0], "1": [1, 0], "2": [1, 1], "3": [0, 1]}},
        "spectrum": {"bands": 2, "seed": None, "outgoing": {"0": [0], "1": [1], "2": [0], "3": [1]}},
        "channel": {"noise": 0.002, "gains": {"0->2": 0.001}},
        "power": {"budget": {"0": 1, "1": 2, "2": 1.5, "3": 1}},
        "sessions": [{"origin": 0, "dest": 2, "demand": 0.3}, {"origin": "3", "dest": "1", "demand": 0.1}],
        "cost": {},
        "optimizer": {"tol": 1e-3},
    }
    yield "integer names, protocol", {
        "graph": {"nodes": [30, 10, 20], "edges": [[30, 10], [10, 20]]},
        "spectrum": {"bands": 3, "first_node": 20},
        "channel": {"default_gain": 0.05, "band_scale": [1.0, 1.0, 0.5]},
        "power": {"budget": 2},
        "sessions": [{"origin": 30, "dest": 20, "demand": 0.25}],
        "optimizer": {},
    }


def _scenario_digest(dn):
    h = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = sorted((ROOT / "scenarios").glob("*.json"))
        for k, (_, doc) in enumerate(scenario_documents()):
            paths.append(Path(tmp) / f"doc{k}.json")
            paths[-1].write_text(json.dumps(doc))
        for path in paths:
            loaded = dn.scenario_io.load_scenario(path)
            scen, alloc = loaded.scenario, loaded.scenario.allocation
            _feed(h, scen.graph.nodes, scen.graph.links, sorted(alloc.outgoing.items()))
            _feed(h, sorted(alloc.link_bands.items()), scen.gains, scen.noise, scen.power_budget)
            _feed(h, scen.sessions, scen.cost, sorted(loaded.optimizer.items()))
            count += 1
    return h, count


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the duplexnet package")
    ap.add_argument("--each", action="store_true", help="print a short digest per solve")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests")]
    import duplexnet as dn
    import duplexnet.scenario_io
    import helpers

    total, count = _solves_digest(dn, _solves(dn, helpers), args.each)
    print(f"{total.hexdigest()}  ({count} solves, duplexnet from {Path(dn.__file__).parent})")
    h, events = _spectrum_digest(dn, helpers)
    print(f"{h.hexdigest()}  (spectrum: 2 plans, {events} join/leave events)")
    total = hashlib.sha256()
    count = 0
    for label, scen, kwargs in reference_cases(helpers):
        h, ref = _digest_reference(dn, scen, kwargs)
        total.update(h.digest())
        count += 1
        if args.each:
            print(f"{h.hexdigest()[:16]}  reference {label}: cost {ref.cost:.17g}, {ref.evaluations} evaluations")
    print(f"{total.hexdigest()}  ({count} reference solves)")
    h, count = _scenario_digest(dn)
    print(f"{h.hexdigest()}  (scenario files: {count} loaded)")
    total, count = _solves_digest(dn, _wide_solves(dn, helpers), args.each)
    print(f"{total.hexdigest()}  (wide blocks: {count} solves)")


if __name__ == "__main__":
    main()
