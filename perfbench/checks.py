"""Correctness checks that share no code with the package's own checkers.

The spectrum checker works from the benchmark's own model of the topology
with set operations linear in the number of links.  The objective
evaluator prices a control state from the scenario's raw data: SINR by an
explicit sum over interferers, session throughputs by a fixed-point
iteration instead of a topological sweep, then capacity r*ln(K*x), link
cost F/(C-F) and the log-utility overflow cost.  Every check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

PRICE_RTOL = 1e-9
# Simplex sums may miss 1 by more than rounding: project_scaled bisects on
# a multiplier whose float spacing, divided by block weights as small as
# 2e-6, moves the sum by 1e-6 and more.  The sum check catches breakage
# well above that; the worst deviation is reported with every descent.
SUM_TOL = 1e-4


def min_band_count(clique: int) -> int:
    """Smallest Q with C(Q, floor(Q/2)) >= clique."""
    q = 1
    while math.comb(q, q // 2) < clique:
        q += 1
    return q


# ---------------------------------------------------------------------------
# spectrum


def check_spectrum(topo, alloc, *, tight: bool) -> list:
    """Coverage, duplexing and set sizes of `alloc` on the model `topo`.

    With tight=True the band count must also be the smallest Q that the
    subset bound allows for the model's maximum degree.
    """
    bad = []
    q = alloc.band_count
    half = q // 2
    links = topo.directed_links()
    if set(alloc.link_bands) != set(links):
        bad.append("link band table does not match the topology's links")
    tx, rx = defaultdict(int), defaultdict(int)
    for i, j in links:
        m = alloc.link_bands.get((i, j), 0)
        if not m:
            bad.append(f"link {(i, j)} has no band")
        tx[i] |= m
        rx[j] |= m
    for v in topo.adj:
        if tx[v] & rx[v]:
            bad.append(f"node {v} sends and receives on bands {tx[v] & rx[v]:#b}")
        oc = alloc.outgoing.get(v)
        if oc is None or oc.bit_count() != half:
            bad.append(f"node {v} outgoing set {oc} does not hold {half} bands")
    if set(alloc.outgoing) != set(topo.adj):
        bad.append("outgoing sets do not match the topology's nodes")
    if tight and q != min_band_count(topo.max_degree() + 1):
        bad.append(f"band count {q} is not the tight count for max degree {topo.max_degree()}")
    return bad


def check_untouched(before, after, topo, node) -> list:
    """Every band set the event at `node` did not touch is bit-identical."""
    bad = []
    for v in topo.adj:
        if v != node and after.outgoing[v] != before.outgoing[v]:
            bad.append(f"outgoing set of untouched node {v} changed")
    for i, j in topo.directed_links():
        if node not in (i, j) and after.link_bands[(i, j)] != before.link_bands[(i, j)]:
            bad.append(f"band set of untouched link {(i, j)} changed")
    return bad


# ---------------------------------------------------------------------------
# objective


def _throughputs(scen, state, w: int) -> np.ndarray:
    """Session-w traffic through each node, t = b + A t iterated n times.

    A[j, i] = phi[w, (i, j)] is nilpotent for acyclic routing, so n
    iterations reach the exact fixed point; zero stays exactly zero.
    """
    lay = scen.layout
    n = lay.n
    dest = scen.graph.index(scen.sessions[w].dest)
    a = np.zeros((n, n))
    for li, (i, j) in enumerate(lay.links):
        if i != dest:
            a[j, i] = state.phi[w, li]
    b = np.zeros(n)
    sess = scen.sessions[w]
    b[scen.graph.index(sess.origin)] = sess.demand * (1.0 - state.phi_w[w])
    t = b.copy()
    for _ in range(n):
        t = b + a @ t
    return t


def entry_terms(scen, state):
    """Per-entry SINR and band flow, and per-session overflow cost."""
    lay = scen.layout
    g = scen.gains
    node_power = scen.power_budget[:, None] * state.rho
    group = defaultdict(float)
    for e in range(lay.n_entries):
        group[(lay.ent_tx[e], lay.ent_band[e])] += state.eta[e]
    sinr = np.empty(lay.n_entries)
    for e in range(lay.n_entries):
        i, j, q = int(lay.ent_tx[e]), int(lay.ent_rx[e]), int(lay.ent_band[e])
        own = g[q, i, j] * node_power[i, q]
        terms = [scen.noise[q, j], own * (group[(i, q)] - state.eta[e])]
        terms += [g[q, m, j] * node_power[m, q] for m in range(lay.n) if m != i]
        sinr[e] = own * state.eta[e] / math.fsum(terms)
    link_flow = np.zeros(lay.n_links)
    overflow = []
    for w, sess in enumerate(scen.sessions):
        t = _throughputs(scen, state, w)
        for li, (i, _) in enumerate(lay.links):
            link_flow[li] += t[i] * state.phi[w, li]
        rejected = sess.demand * state.phi_w[w]
        u = sess.utility
        if u.kind == "log":
            overflow.append(-u.weight * math.log1p(-rejected / (1.0 + sess.demand)))
        else:
            overflow.append(u.weight * rejected)
    band_flow = state.mu * link_flow[lay.ent_link]
    return sinr, band_flow, overflow


def price(scen, state) -> float:
    """Total cost: sum of F/(C-F) over loaded entries plus overflow costs."""
    sinr, flow, overflow = entry_terms(scen, state)
    r, k = scen.cost.bandwidth, scen.cost.gain_factor
    parts = list(overflow)
    for x, f in zip(sinr, flow):
        if f == 0.0:
            continue
        cap = r * math.log(k * x) if x > 0 else -math.inf
        if cap <= 0 or f >= cap:
            return math.inf
        parts.append(f / (cap - f))
    return math.fsum(parts)


def check_price(scen, state, reported: float, what: str) -> list:
    mine = price(scen, state)
    if not math.isfinite(mine) or abs(mine - reported) > PRICE_RTOL * abs(mine):
        return [f"{what}: reported cost {reported!r}, re-priced {mine!r}"]
    return []


def sum_error(scen, state) -> float:
    """Worst deviation of a share or routing group from its sum, or of a
    node's power split above its budget."""
    lay = scen.layout
    g = scen.graph
    sums = defaultdict(float)
    for e in range(lay.n_entries):
        i, j, q = int(lay.ent_tx[e]), int(lay.ent_rx[e]), int(lay.ent_band[e])
        sums[("eta", i, q)] += state.eta[e]
        sums[("mu", i, j)] += state.mu[e]
    want = dict.fromkeys(sums, 1.0)
    for w, sess in enumerate(scen.sessions):
        dest = g.index(sess.dest)
        for li, (i, _) in enumerate(lay.links):
            sums[("phi", w, i)] += state.phi[w, li]
            want[("phi", w, i)] = 0.0 if i == dest else 1.0
    worst = max(abs(s - want[k]) for k, s in sums.items())
    return max(worst, float(np.max(state.rho.sum(axis=1))) - 1.0)


def check_feasible(scen, state, what: str) -> list:
    """Signs, band supports, group sums and acyclic routing of a state."""
    lay = scen.layout
    g = scen.graph
    bad = []
    for arr, name in ((state.rho, "rho"), (state.eta, "eta"), (state.mu, "mu"), (state.phi, "phi")):
        if np.any(arr < -1e-12):
            bad.append(f"negative {name}")
    if np.any((state.phi_w < 0.0) | (state.phi_w > 1.0)):
        bad.append("overflow fraction outside [0, 1]")
    for v in g.nodes:
        oc = scen.allocation.outgoing[v]
        for q in range(lay.band_count):
            if not oc >> q & 1 and state.rho[g.index(v), q] != 0.0:
                bad.append(f"rho of node {v} on band {q} outside its band set")
    for e in range(lay.n_entries):
        i, j, q = int(lay.ent_tx[e]), int(lay.ent_rx[e]), int(lay.ent_band[e])
        if not scen.allocation.link_bands[(g.nodes[i], g.nodes[j])] >> q & 1:
            bad.append(f"entry {e} on band {q} outside its link's band set")
    err = sum_error(scen, state)
    if err > SUM_TOL:
        bad.append(f"a share, routing or power group misses its sum by {err:.3g}")
    for w, sess in enumerate(scen.sessions):
        dest = g.index(sess.dest)
        succ = defaultdict(list)
        for li, (i, j) in enumerate(lay.links):
            if state.phi[w, li] > 0.0 and i != dest:
                succ[i].append(j)
        indeg = [0] * lay.n
        for i in succ:
            for j in succ[i]:
                indeg[j] += 1
        ready = [v for v in range(lay.n) if indeg[v] == 0]
        seen = 0
        while ready:
            v = ready.pop()
            seen += 1
            for u in succ[v]:
                indeg[u] -= 1
                if indeg[u] == 0:
                    ready.append(u)
        if seen < lay.n:
            bad.append(f"session {w} routing has a cycle")
    return [f"{what}: {b}" for b in bad]


def check_descent(trace, what: str) -> list:
    costs = [row.cost for row in trace]
    ups = [k for k in range(1, len(costs)) if costs[k] > costs[k - 1]]
    return [f"{what}: cost rose at sweep {k}" for k in ups[:1]]
