"""Where the spectrum half's time goes: a plan, its check, joins and leaves.

Run it once on each tree to compare, under two labels:

    python3 tools/bench_spectrum.py --src OTHER/src --label before
    python3 tools/bench_spectrum.py --label after        # this tree's src/

Each run imports duplexnet from --src (default: this tree's src/) and
stores its figures under --label in BENCH_spectrum.json at the root of this
tree, keeping the other labels already there.  The inputs come from
perfbench/inputs.py of this tree, as the spectrum_rgg workload draws them:
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
plan's dicts, shows as one.  Each workload runs REPEATS times; the counts
must repeat exactly and the timings are the medians over the repeats.
Each run also stores how much every timing grows from rgg_1000 to
rgg_10000 (`growth_10000_over_1000`, a ratio), which is 1 for work that
does not depend on the network's size and about 10 for work linear in it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the duplexnet package")
    ap.add_argument("--label", required=True, help="key of this run in BENCH_spectrum.json, e.g. before or after")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "perfbench")]
    import duplexnet as dn
    import inputs

    result = {}
    for name, (seed, nodes, events) in WORKLOADS.items():
        case = _inputs(dn, inputs, seed, nodes, events)
        runs = [_run(dn, *case) for _ in range(REPEATS)]
        counts = runs[0][0]
        if any(c != counts for c, _ in runs):
            raise RuntimeError(f"{name}: counts differ between repeats: {[c for c, _ in runs]}")
        timings = {k: round(statistics.median(t[k] for _, t in runs), 4) for k in runs[0][1]}
        result[name] = {"counts": counts, "median_timings": timings}
        print(f"{args.label} {name}: {json.dumps(result[name])}")
    small, large = (result[name]["median_timings"] for name in WORKLOADS)
    growth = {k: round(large[k] / small[k], 2) for k in small}
    print(f"{args.label} growth from rgg_1000 to rgg_10000: {json.dumps(growth)}")
    data = json.loads(OUT.read_text()) if OUT.exists() else {}
    data["about"] = (
        "tools/bench_spectrum.py: fixed-seed plans and join/leave churn on perfbench's random geometric "
        f"graphs; counts are machine-independent, timings are wall-clock medians over {REPEATS} repeats"
    )
    data.setdefault("runs", {})[args.label] = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "processor": platform.processor() or platform.machine(),
        },
        "workloads": result,
        "growth_10000_over_1000": growth,
    }
    OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT.name} [{args.label}]")


if __name__ == "__main__":
    main()
