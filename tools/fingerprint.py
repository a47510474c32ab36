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
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the duplexnet package")
    ap.add_argument("--each", action="store_true", help="print a short digest per solve")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests")]
    import duplexnet as dn
    import helpers

    total = hashlib.sha256()
    count = 0
    for label, scen, start, kwargs in _solves(dn, helpers):
        h = _digest_solve(dn, scen, start, kwargs)
        total.update(h.digest())
        count += 1
        if args.each:
            print(f"{h.hexdigest()[:16]}  {label}")
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


if __name__ == "__main__":
    main()
