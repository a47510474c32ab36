"""Where the spectrum half's time goes: a plan, its check, joins and leaves.

Give each tree to compare a label and the directory holding its duplexnet
package:

    python3 tools/bench_spectrum.py before=OTHER/src after=src

The trees take turns repeat by repeat as in tools/bench_solve.py, whose
loop this reuses: first in the order given and then reversed, each repeat
in a fresh interpreter, which imports duplexnet from its tree and runs
every workload once untimed and then once measured.  So drift of the
machine falls on both trees alike.  Each label's figures are stored under
it in BENCH_spectrum.json at the root of this tree, keeping the other
labels already there.  The inputs come from perfbench/inputs.py of this
tree, as the spectrum_rgg workload draws them:
a random geometric graph of mean degree 10 (`random_geometric`), planned
at the tight band count with a seed, then alternating joins and leaves of
non-cut vertices (`churn_events`), applied one after another:

* rgg_1000: 1000 nodes, 100 events (`default_rng(701)`);
* rgg_10000: 10000 nodes, 40 events (`default_rng(702)`).

Per workload it records counts that do not depend on the machine (nodes,
links, joins, leaves, the plan's selection fallbacks, that is its swap
repairs and subset enumerations, full connected-component searches per
event, and a digest of every event's allocation, its dicts sorted by key,
graph and components, which must match between trees that give the same
outputs) and the wall milliseconds
of `allocate_subbands`, of `check_allocation` on the plan, and of
`apply_topology_change` per join and per leave: the mean, the median and
the largest, so that a one-off cost, such as the first event copying the
plan's dicts, shows as one.  Each tree runs REPEATS times; its counts must
repeat exactly, and between trees the counts that differ are printed.
Each timing is stored as its median over the repeats (median_timings) next
to its least and greatest (min_timings, max_timings), so that a
before/after gap can be read against the spread of one tree's repeats.
Each label also stores how much every median timing grows from rgg_1000 to
rgg_10000 (`growth_10000_over_1000`, a ratio), which is 1 for work that
does not depend on the network's size and about 10 for work linear in it.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from bench_solve import alternate, differing, machine, parse_trees, timing_stats

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_spectrum.json"
REPEATS = 5
WORKLOADS = {"rgg_1000": (701, 1000, 100), "rgg_10000": (702, 10000, 40)}


def _inputs(dn, inputs, seed, nodes, events):
    """(graph, band count, plan seed, events, event seeds) for one workload."""
    rng = np.random.default_rng(seed)
    topo = inputs.random_geometric(rng, nodes)
    g = inputs.graph_of(topo)
    plan_seed = int(rng.integers(2**31))
    evs = inputs.churn_events(rng, topo, events)
    event_seeds = [int(s) for s in rng.integers(2**31, size=events)]
    return g, dn.min_subband_count(g.max_degree() + 1), plan_seed, evs, event_seeds


def _count_searches(graph_cls, counter):
    """Count the full connected-component searches of graph_cls; returns an
    undo callable."""
    fn = graph_cls._search_components

    def counting(self):
        counter[0] += 1
        return fn(self)

    graph_cls._search_components = counting
    return lambda: setattr(graph_cls, "_search_components", fn)


def _run(dn, g, bands, plan_seed, events, event_seeds):
    """One pass: (counts, timings)."""
    t0 = time.perf_counter()
    alloc = dn.allocate_subbands(g, bands, seed=plan_seed)
    t1 = time.perf_counter()
    report = dn.check_allocation(g, alloc)
    t2 = time.perf_counter()
    if not report.ok:
        raise RuntimeError("the plan fails its own check")
    plan_fallbacks = alloc.fallbacks
    digest = hashlib.sha256()
    spent = {"Join": [], "Leave": []}
    searches = [0]
    undo = _count_searches(dn.ConnectivityGraph, searches)
    try:
        for ev, seed in zip(events, event_seeds):
            s0 = time.perf_counter()
            res = dn.apply_topology_change(g, alloc, ev, seed=seed)
            spent[type(ev).__name__].append(1e3 * (time.perf_counter() - s0))
            g, alloc = res.graph, res.allocation
            digest.update(repr((ev, sorted(alloc.outgoing.items()), sorted(alloc.link_bands.items()))).encode())
            digest.update(repr((g.nodes, g.links, [sorted(c) for c in res.components], res.disconnected)).encode())
    finally:
        undo()
    counts = {
        "nodes": g.n,
        "links": len(g.links),
        "bands": bands,
        "joins": len(spent["Join"]),
        "leaves": len(spent["Leave"]),
        "plan_fallbacks": dict(zip(("swaps", "enumerations"), plan_fallbacks)),
        "component_searches_per_event": round(searches[0] / len(events), 4),
        "events_digest": digest.hexdigest()[:16],
    }
    timings = {
        "plan_ms": 1e3 * (t1 - t0),
        "check_ms": 1e3 * (t2 - t1),
    }
    for kind, ms in spent.items():
        name = kind.lower()
        timings[f"{name}_ms_per_event"] = statistics.mean(ms)
        timings[f"{name}_ms_median"] = statistics.median(ms)
        timings[f"{name}_ms_max"] = max(ms)
    return counts, timings


def _measure(src):
    """One repeat of every workload on the duplexnet package in `src`,
    each after an untimed pass: {workload: (counts, timings)}."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import duplexnet as dn
    import inputs

    out = {}
    for name, (seed, nodes, events) in WORKLOADS.items():
        case = _inputs(dn, inputs, seed, nodes, events)
        _run(dn, *case)
        out[name] = _run(dn, *case)
    return out


def main(argv=None):
    trees = parse_trees(argv, __doc__.splitlines()[0], OUT.name)
    runs = alternate(_measure, trees, REPEATS)
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data["about"] = (
        "tools/bench_spectrum.py: fixed-seed plans and join/leave churn on perfbench's random geometric "
        f"graphs; counts are machine-independent, timings are wall-clock medians over {REPEATS} repeats, "
        "with their min and max; the trees of one invocation alternate repeat by repeat, each repeat in a "
        "fresh interpreter"
    )
    for label, reps in runs.items():
        result = {}
        for name in WORKLOADS:
            counts = reps[0][name][0]
            if any(rep[name][0] != counts for rep in reps):
                raise RuntimeError(f"{label} {name}: counts differ between repeats: {[rep[name][0] for rep in reps]}")
            result[name] = {"counts": counts, **timing_stats([rep[name][1] for rep in reps], 4)}
            print(f"{label} {name}: {json.dumps(result[name])}")
        small, large = (result[name]["median_timings"] for name in WORKLOADS)
        growth = {k: round(large[k] / small[k], 2) for k in small}
        print(f"{label} growth from rgg_1000 to rgg_10000: {json.dumps(growth)}")
        run = {"machine": machine(), "workloads": result, "growth_10000_over_1000": growth}
        data.setdefault("runs", {})[label] = run
    if len(runs) > 1:
        for name in WORKLOADS:
            differ = differing([reps[0][name][0] for reps in runs.values()])
            print(f"{name}: counts that differ between {', '.join(runs)}: {', '.join(differ) or 'none'}")
    OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT.name} [{', '.join(runs)}]")


if __name__ == "__main__":
    main()
