"""Seeded input generators for the three workloads.

Everything here draws from a numpy Generator the caller seeds, so the same
seed gives the same graphs, events, scenarios and start states.  The
program only ever sees the generated objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import duplexnet as dn
from duplexnet.graph import greedy_coloring
from duplexnet.coloring import family_from_coloring

from checks import entry_terms, min_band_count, price


# ---------------------------------------------------------------------------
# spectrum_rgg: random geometric graphs and a join/leave sequence


@dataclass
class Topology:
    """The benchmark's own model of a graph: positions and neighbor sets."""

    pos: dict
    adj: dict
    radius: float

    def copy(self) -> "Topology":
        return Topology(dict(self.pos), {v: set(a) for v, a in self.adj.items()}, self.radius)

    def directed_links(self):
        return [(i, j) for i, nb in self.adj.items() for j in nb]

    def max_degree(self) -> int:
        return max(len(a) for a in self.adj.values())

    def apply(self, ev, pos=None):
        """Apply a duplexnet Join or Leave to the model."""
        if isinstance(ev, dn.Join):
            self.adj[ev.node] = set(ev.neighbors)
            for v in ev.neighbors:
                self.adj[v].add(ev.node)
            self.pos[ev.node] = pos
        else:
            for v in self.adj.pop(ev.node):
                self.adj[v].discard(ev.node)
            del self.pos[ev.node]


def _connected(adj: dict) -> bool:
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(adj)


def _close_pairs(pts: np.ndarray, reach: float):
    """Pairs i < j closer than `reach`, with squared distances, row block by
    row block so memory stays linear in the number of points."""
    out_i, out_j, out_d = [], [], []
    n = len(pts)
    for lo in range(0, n, 100):
        blk = pts[lo : lo + 100]
        d2 = np.square(blk[:, None, 0] - pts[None, :, 0]) + np.square(blk[:, None, 1] - pts[None, :, 1])
        i, j = np.nonzero(d2 < reach * reach)
        keep = lo + i < j
        out_i.append(lo + i[keep])
        out_j.append(j[keep])
        out_d.append(d2[i[keep], j[keep]])
    return np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_d)


def random_geometric(rng, n: int, mean_degree: int = 10) -> Topology:
    """Uniform points in the unit square, linked within a common radius.

    The radius is the distance of the (n * mean_degree / 2)-th closest
    pair, so every draw has exactly that many links and the given mean
    degree; disconnected draws are discarded and drawn again.
    """
    k = n * mean_degree // 2
    while True:
        pts = rng.random((n, 2))
        reach = 2.0 * math.sqrt(mean_degree / (math.pi * n))
        while True:
            i, j, d2 = _close_pairs(pts, reach)
            if len(d2) >= k:
                break
            reach *= 2.0
        order = np.argsort(d2, kind="stable")[:k]
        adj = {v: set() for v in range(n)}
        for a, b in zip(i[order].tolist(), j[order].tolist()):
            adj[a].add(b)
            adj[b].add(a)
        if all(adj.values()) and _connected(adj):
            radius = math.sqrt(float(d2[order[-1]]))
            return Topology({v: (float(x), float(y)) for v, (x, y) in enumerate(pts)}, adj, radius)


def _articulation_points(adj: dict) -> set:
    """Cut vertices by iterative Tarjan low-link search."""
    disc, low, cut = {}, {}, set()
    counter = 0
    root = next(iter(adj))
    disc[root] = low[root] = counter
    root_children = 0
    stack = [(root, None, iter(adj[root]))]
    while stack:
        v, parent, it = stack[-1]
        advanced = False
        for u in it:
            if u == parent:
                continue
            if u in disc:
                low[v] = min(low[v], disc[u])
                continue
            counter += 1
            disc[u] = low[u] = counter
            stack.append((u, v, iter(adj[u])))
            advanced = True
            break
        if advanced:
            continue
        stack.pop()
        if parent is None:
            continue
        low[parent] = min(low[parent], low[v])
        if parent == root:
            root_children += 1
        elif low[v] >= disc[parent]:
            cut.add(parent)
    if root_children > 1:
        cut.add(root)
    return cut


def churn_events(rng, topo: Topology, count: int):
    """Alternating joins and leaves, starting from `topo` (left unchanged).

    A joining node lands uniformly in the square; its neighbors are the
    nodes within radio range, nearest first, capped at the planned graph's
    maximum degree (and at the current one, which a join may not exceed).
    A leave removes a node that is not a cut vertex, so the graph stays
    connected.  Returns the events as duplexnet Join/Leave objects.
    """
    cap0 = topo.max_degree()
    cur = topo.copy()
    next_id = max(cur.adj) + 1
    events = []
    for k in range(count):
        if k % 2 == 0:
            while True:
                x, y = (float(c) for c in rng.random(2))
                dist = sorted(
                    (math.hypot(x - px, y - py), v)
                    for v, (px, py) in cur.pos.items()
                    if math.hypot(x - px, y - py) <= cur.radius
                )
                if dist:
                    break
            ev = dn.Join(next_id, tuple(v for _, v in dist[: min(cap0, cur.max_degree())]))
            next_id += 1
            cur.apply(ev, (x, y))
        else:
            cut = _articulation_points(cur.adj)
            cand = sorted(v for v in cur.adj if v not in cut)
            ev = dn.Leave(cand[int(rng.integers(len(cand)))])
            cur.apply(ev)
        events.append(ev)
    return events


def graph_of(topo: Topology):
    return dn.build_graph(topo.directed_links())


# ---------------------------------------------------------------------------
# solver scenarios


def _distances(pos: np.ndarray) -> np.ndarray:
    return np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=-1))


def pathloss_gains(pos: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """gains[q, tx, rx] = scale[q] * distance^-3.5, zero on the diagonal."""
    base = np.maximum(_distances(pos), 1e-3) ** -3.5
    np.fill_diagonal(base, 0.0)
    return scale[:, None, None] * base[None, :, :]


def _sessions(rng, n: int, count: int, demand, weight):
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    idx = rng.choice(len(pairs), size=count, replace=False)
    return tuple(
        dn.Session(
            pairs[k][0],
            pairs[k][1],
            float(rng.uniform(*demand)),
            dn.Utility("log", float(rng.uniform(*weight))),
        )
        for k in idx
    )


def jittered_grid(rng, side: int, sessions: int) -> "dn.NetworkScenario":
    """side x side grid with unit spacing, positions jittered by up to 0.15.

    Links join grid neighbors; bands are planned by the protocol at the
    tight band count; sessions connect random node pairs with log
    utilities weighted 2 to 3 (at weight 1 larger grids reject all demand
    within one sweep).  Draws whose even-split start has infinite cost are
    drawn again.
    """
    n = side * side
    und = [(k, k + 1) for k in range(n) if (k + 1) % side]
    und += [(k, k + side) for k in range(n - side)]
    g = dn.build_graph(und + [(b, a) for a, b in und])
    q = min_band_count(g.max_degree() + 1)
    lattice = np.array([[x, y] for y in range(side) for x in range(side)], dtype=float)
    for _ in range(100):
        pos = lattice + rng.uniform(-0.15, 0.15, lattice.shape)
        scen = dn.NetworkScenario(
            graph=g,
            allocation=dn.allocate_subbands(g, q, seed=int(rng.integers(2**31))),
            gains=pathloss_gains(pos, rng.uniform(0.8, 1.25, q)),
            noise=np.full((q, n), 1e-3),
            power_budget=np.ones(n),
            sessions=_sessions(rng, n, sessions, (0.2, 0.4), (2.0, 3.0)),
            cost=dn.CostParams(),
        )
        if math.isfinite(price(scen, even_split(scen))):
            return scen
    raise RuntimeError("no finite-cost grid in 100 draws")


def _mst_edges(pos: np.ndarray):
    """Prim's tree over euclidean distances."""
    n = len(pos)
    d = _distances(pos)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = d[0].copy()
    parent = np.zeros(n, dtype=int)
    edges = []
    for _ in range(n - 1):
        cand = np.where(in_tree, np.inf, best)
        b = int(np.argmin(cand))
        edges.append((int(parent[b]), b))
        in_tree[b] = True
        closer = d[b] < best
        best = np.where(closer, d[b], best)
        parent = np.where(closer, b, parent)
    return edges


def small_scenario(rng, n: int, bands: int, sessions: int):
    """Geometric instance shaped like the solver acceptance corpus.

    MST links plus a few short chords on 3-band draws, bands from a greedy
    coloring, path-loss gains with per-band jitter and light log-utility
    sessions.  Draws whose coloring needs more bands than drawn, or whose
    even-split start has infinite cost, are drawn again.
    """
    for _ in range(100):
        pos = rng.uniform(0.0, 1.2 * math.sqrt(n), (n, 2))
        und = _mst_edges(pos)
        if bands == 3:
            tree = {frozenset(e) for e in und}
            cand = sorted(
                (float(np.hypot(*(pos[a] - pos[b]))), a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if frozenset((a, b)) not in tree
            )
            und += [(a, b) for _, a, b in cand[: max(1, n // 2)] if rng.random() < 0.5]
        g = dn.build_graph(und + [(b, a) for a, b in und])
        coloring = greedy_coloring(g)
        if min_band_count(max(coloring) + 1) > bands:
            continue
        alloc = dn.allocation_from_family(g, family_from_coloring(g, coloring, universe_size=bands))
        scen = dn.NetworkScenario(
            graph=g,
            allocation=alloc,
            gains=pathloss_gains(pos, rng.uniform(0.8, 1.25, bands)),
            noise=np.full((bands, n), 1e-3),
            power_budget=np.ones(n),
            sessions=_sessions(rng, n, sessions, (0.15, 0.45), (0.8, 1.5)),
            cost=dn.CostParams(),
        )
        if math.isfinite(price(scen, even_split(scen))):
            return scen
    raise RuntimeError("no finite-cost scenario in 100 draws")


def line3():
    """Three nodes in a row, one session end to end: the fixed instance on
    which the block solver and the reference search must agree."""
    g = dn.build_graph([(0, 1), (1, 0), (1, 2), (2, 1)])
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    return dn.NetworkScenario(
        graph=g,
        allocation=dn.allocate_subbands(g, 3, seed=1),
        gains=pathloss_gains(pos, np.ones(3)),
        noise=np.full((3, 3), 1e-3),
        power_budget=np.ones(3),
        sessions=(dn.Session(0, 2, 0.5, dn.Utility("log", 1.0)),),
        cost=dn.CostParams(),
    )


def even_split(scen):
    return dn.uniform_state(scen, power=0.9, overflow=0.1)


def _loaded_within(scen, state, frac: float) -> bool:
    lay = scen.layout
    x, f, _ = entry_terms(scen, state)
    r, k = scen.cost.bandwidth, scen.cost.gain_factor
    for e in range(lay.n_entries):
        if f[e] > 0 and (x[e] <= 0 or f[e] > frac * r * math.log(k * x[e])):
            return False
    return True


def interior_state(scen, rng, tries: int = 40):
    """Strictly feasible random state with every loaded entry at most 60%
    of its capacity, so finite differences have room on both sides."""
    lay = scen.layout
    for _ in range(tries):
        st = dn.uniform_state(scen, power=0.5, overflow=0.5)
        for i in range(lay.n):
            bands = np.flatnonzero(lay.rho_mask[i])
            if bands.size:
                st.rho[i, bands] = rng.uniform(0.4, 0.8) * rng.dirichlet(np.ones(bands.size))
        for entries in lay.node_band_entries.values():
            st.eta[entries] = rng.dirichlet(np.ones(entries.size))
        for sl in lay.link_slices:
            st.mu[sl] = rng.dirichlet(np.ones(sl.stop - sl.start))
        for w in range(len(scen.sessions)):
            st.phi_w[w] = rng.uniform(0.25, 0.75)
            for i in range(lay.n):
                idx = [li for li in lay.out_links[i] if st.phi[w, li] > 0]
                if len(idx) > 1:
                    st.phi[w, idx] = rng.dirichlet(np.ones(len(idx)))
        for _ in range(5):
            if _loaded_within(scen, st, 0.6):
                return st
            st.phi_w = 1.0 - (1.0 - st.phi_w) * 0.5
    raise RuntimeError("no interior state found")
