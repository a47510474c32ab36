"""Shared builders: small fixed scenarios and seeded random instances.

Everything here is deterministic given the rng passed in, so tests can
freeze expected values against specific seeds.
"""

import math

import numpy as np

from duplexnet import (
    ConnectivityGraph,
    CostParams,
    Join,
    Leave,
    NetworkScenario,
    NotConnectedError,
    Session,
    Utility,
    allocate_subbands,
    apply_topology_change,
    build_graph,
    total_cost,
    uniform_state,
)
from duplexnet.coloring import family_from_coloring, min_subband_count
from duplexnet.graph import greedy_coloring
from duplexnet.scenario import derive
from duplexnet.subband import allocation_from_family


def path_graph(n):
    und = [(k, k + 1) for k in range(n - 1)]
    return build_graph(und + [(b, a) for a, b in und])


def cycle_graph(n):
    und = [(k, (k + 1) % n) for k in range(n)]
    return build_graph(und + [(b, a) for a, b in und])


def complete_graph(n):
    return build_graph([(a, b) for a in range(n) for b in range(n) if a != b])


def star_graph(leaves):
    und = [(0, k) for k in range(1, leaves + 1)]
    return build_graph(und + [(b, a) for a, b in und])


def random_connected_graph(rng, n=None, extra=None):
    """Random spanning tree plus a fraction of the remaining pairs."""
    n = int(rng.integers(2, 21)) if n is None else n
    und = {(int(rng.integers(0, k)), k) for k in range(1, n)}
    p = float(rng.uniform(0.0, 0.3)) if extra is None else extra
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in und and rng.random() < p:
                und.add((a, b))
    edges = [(a, b) for a, b in und] + [(b, a) for a, b in und]
    return build_graph(edges)


def random_geometric_graph(rng, n=300, mean_degree=10):
    """Uniform points in the unit square, linked within a common radius.

    Node ids are a sorted random sample of range(10 n), so joins can take
    ids between existing ones.  Disconnected draws are drawn again.
    Returns (graph, {id: position}, radius).
    """
    radius = math.sqrt(mean_degree / (math.pi * n))
    for _ in range(100):
        ids = [int(v) for v in np.sort(rng.choice(10 * n, size=n, replace=False))]
        pts = rng.random((n, 2))
        close = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1)) < radius
        np.fill_diagonal(close, False)
        edges = [(ids[a], ids[b]) for a, b in zip(*np.nonzero(close))]
        try:
            g = build_graph(edges)
        except NotConnectedError:
            continue
        if g.n == n:
            return g, dict(zip(ids, map(tuple, pts))), radius
    raise RuntimeError("no connected geometric graph in 100 draws")


def churn(rng, g, alloc, pos, radius, events):
    """Apply `events` random joins and leaves; yield (graph, allocation,
    event, result) for each, the first two as they were before it.

    A join takes a fresh id at a uniform point and links it to the nodes
    within `radius`, nearest first and at most max_degree of them (the
    nearest node alone when none is that close).  A leave takes a uniform
    node.  After a leave that disconnects the graph the churn goes on from
    the graph before it.
    """
    pos = dict(pos)
    for _ in range(events):
        present = set(g.nodes)
        if rng.random() < 0.5:
            node = int(rng.integers(10 * len(pos)))
            while node in present:
                node = int(rng.integers(10 * len(pos)))
            at = tuple(rng.random(2))
            dist = sorted((math.dist(at, pos[v]), v) for v in g.nodes)
            near = [v for d, v in dist if d < radius][: g.max_degree()] or [dist[0][1]]
            event = Join(node, tuple(near))
        else:
            event = Leave(g.nodes[int(rng.integers(g.n))])
        res = apply_topology_change(g, alloc, event, seed=int(rng.integers(2**31)))
        yield g, alloc, event, res
        if not res.disconnected:
            if isinstance(event, Join):
                pos[event.node] = at
            g, alloc = res.graph, res.allocation


def count_searches(monkeypatch):
    """The graphs on which a full connected-component search runs, from
    now on; tools/bench_spectrum.py counts them through the same hook."""
    searched = []
    search = ConnectivityGraph._search_components

    def counting(self):
        searched.append(self)
        return search(self)

    monkeypatch.setattr(ConnectivityGraph, "_search_components", counting)
    return searched


def _pathloss_gains(pos, band_count, scale=None):
    """Gains distance ** -3.5 between distinct nodes (distances floored at
    1e-3), zero on the diagonal, times scale[q] on band q."""
    pos = np.asarray(pos, dtype=float)
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.maximum(np.hypot(diff[..., 0], diff[..., 1]), 1e-3)
    # the power is taken per float as ** takes it: numpy's vectorized power
    # may differ from it in the last bit, which would change every draw
    base = np.array([d**-3.5 for d in dist.ravel().tolist()]).reshape(dist.shape)
    np.fill_diagonal(base, 0.0)
    if scale is None:
        scale = np.ones(band_count)
    return np.asarray(scale)[:, None, None] * base[None, :, :]


def pair_scenario(demand=0.3, budget=1.0, gain=0.5, noise=1e-3, weight=1.0):
    """Two nodes, one session across the single link."""
    g = build_graph([(0, 1), (1, 0)])
    alloc = allocate_subbands(g, 2)
    gains = np.full((2, 2, 2), gain)
    for q in range(2):
        np.fill_diagonal(gains[q], 0.0)
    return NetworkScenario(
        graph=g,
        allocation=alloc,
        gains=gains,
        noise=np.full((2, 2), noise),
        power_budget=np.full(2, budget),
        sessions=(Session(0, 1, demand, Utility("log", weight)),),
        cost=CostParams(),
    )


def line3_scenario():
    """Three nodes in a row, one session end to end.

    The block solver and the reference search agree on this instance to
    full printed precision, so it anchors the solver-vs-oracle tests.
    """
    return three_node_scenario(path_graph(3), 3, 0.5)


def three_node_scenario(g, band_count, demand):
    """Nodes 0, 1 and 2 at unit spacing in a row, linked as in `g`, with
    one session from node 0 to node 2."""
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    return NetworkScenario(
        graph=g,
        allocation=allocate_subbands(g, band_count, seed=1),
        gains=_pathloss_gains(pos, band_count),
        noise=np.full((band_count, 3), 1e-3),
        power_budget=np.ones(3),
        sessions=(Session(0, 2, demand, Utility("log", 1.0)),),
        cost=CostParams(),
    )


def line5_scenario():
    """Five nodes in a row; one node past the reference solver's cap."""
    g = path_graph(5)
    alloc = allocate_subbands(g, 3, seed=1)
    pos = np.array([[float(k), 0.0] for k in range(5)])
    return NetworkScenario(
        graph=g,
        allocation=alloc,
        gains=_pathloss_gains(pos, 3),
        noise=np.full((3, 5), 1e-3),
        power_budget=np.ones(5),
        sessions=(Session(0, 4, 0.4, Utility("log", 1.0)),),
        cost=CostParams(),
    )


def square_scenario():
    """Four nodes on a tight square with two crossing sessions.

    Known multistable instance: from the even-split start the block solver
    settles in a corner that rejects one session entirely, while a better
    first-order point carries both sessions.  Used to document that
    behavior, not as an agreement benchmark.
    """
    g = cycle_graph(4)
    alloc = allocate_subbands(g, 3, seed=7)
    pos = np.array([[0.1, 0.2], [0.9, 0.15], [0.85, 0.9], [0.2, 0.8]])
    return NetworkScenario(
        graph=g,
        allocation=alloc,
        gains=_pathloss_gains(pos, 3, np.array([1.0, 0.85, 1.15])),
        noise=np.full((3, 4), 1e-3),
        power_budget=np.ones(4),
        sessions=(
            Session(0, 2, 0.4, Utility("log", 1.0)),
            Session(3, 1, 0.3, Utility("log", 0.8)),
        ),
        cost=CostParams(),
    )


def hub_scenario(leaves=9):
    """A hub with one light session to each of its leaves on 5 bands.

    Each of the hub's (node, band) power-share groups holds more than 8
    loaded entries, the size from which np.sum adds pairwise instead of
    in order.
    """
    g = star_graph(leaves)
    ang = np.linspace(0.0, 2.0 * np.pi, leaves, endpoint=False)
    ring = np.c_[np.cos(ang), np.sin(ang)] * (1.0 + 0.1 * np.arange(leaves))[:, None]
    pos = np.vstack([[0.0, 0.0], ring])
    return NetworkScenario(
        graph=g,
        allocation=allocate_subbands(g, 5, seed=3),
        gains=_pathloss_gains(pos, 5, np.linspace(0.9, 1.1, 5)),
        noise=np.full((5, leaves + 1), 1e-3),
        power_budget=np.ones(leaves + 1),
        sessions=tuple(Session(0, k, 0.05) for k in range(1, leaves + 1)),
        cost=CostParams(),
    )


def fan_scenario(rng, relays=9):
    """A source (node 0) and a destination (the last node) joined through
    `relays` relays, with a session each way.

    The two ends route over all their out-links, so their routing rows
    and (node, band) power-share groups hold 8 or more coordinates at 9
    relays, the size from which np.sum adds pairwise.  Relay positions are
    jittered, bands are planned at the tight count, and draws whose start
    uniform_state(0.9, 0.1) has infinite cost are drawn again.
    """
    dest = relays + 1
    und = [(0, k) for k in range(1, dest)] + [(k, dest) for k in range(1, dest)]
    g = build_graph(und + [(b, a) for a, b in und])
    q = min_subband_count(g.max_degree() + 1)
    for _ in range(50):
        pos = np.vstack([[0.0, 0.0], np.c_[np.ones(relays), np.linspace(-1.0, 1.0, relays)], [2.0, 0.0]])
        pos[1:dest] += rng.uniform(-0.1, 0.1, (relays, 2))
        sessions = tuple(
            Session(a, b, float(rng.uniform(0.1, 0.2)), Utility("log", float(rng.uniform(2.0, 3.0))))
            for a, b in ((0, dest), (dest, 0))
        )
        scen = NetworkScenario(
            graph=g,
            allocation=allocate_subbands(g, q, seed=int(rng.integers(2**31))),
            gains=_pathloss_gains(pos, q, rng.uniform(0.8, 1.25, q)),
            noise=np.full((q, dest + 1), 1e-3),
            power_budget=np.ones(dest + 1),
            sessions=sessions,
            cost=CostParams(),
        )
        if math.isfinite(total_cost(scen, uniform_state(scen, power=0.9, overflow=0.1))):
            return scen
    raise RuntimeError("could not draw a fan scenario")


def _mst_edges(pos):
    """Prim's tree over euclidean distances."""
    n = len(pos)
    in_tree = [0]
    out = set(range(1, n))
    edges = []
    while out:
        best = None
        for a in in_tree:
            for b in out:
                d = float(np.hypot(*(pos[a] - pos[b])))
                if best is None or d < best[0]:
                    best = (d, a, b)
        _, a, b = best
        edges.append((a, b))
        in_tree.append(b)
        out.discard(b)
    return edges


def random_scenario(rng, n_nodes=None, band_count=None, n_sessions=None):
    """Geometric instance: MST links plus a few short chords on 3-band
    draws, path-loss gains with per-band jitter, light random sessions.

    Draws are screened so the greedy coloring fits the band count and the
    standard start uniform_state(0.9, 0.1) has finite cost.
    """
    for _ in range(50):
        n = int(n_nodes if n_nodes is not None else rng.integers(4, 9))
        q = int(band_count if band_count is not None else rng.integers(2, 4))
        side = 1.2 * math.sqrt(n)
        pos = rng.uniform(0.0, side, (n, 2))
        und = _mst_edges(pos)
        if q == 3:
            # sprinkle a few short extra edges on top of the tree
            tree = {frozenset(e) for e in und}
            cand = sorted(
                (float(np.hypot(*(pos[a] - pos[b]))), a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if frozenset((a, b)) not in tree
            )
            extra = [e for e in cand[: max(1, n // 2)] if rng.random() < 0.5]
            und += [(a, b) for _, a, b in extra]
        edges = [(a, b) for a, b in und] + [(b, a) for a, b in und]
        g = build_graph(edges)
        coloring = greedy_coloring(g)
        classes = max(coloring) + 1
        if min_subband_count(classes) > q:
            continue
        fam = family_from_coloring(g, coloring, universe_size=q)
        alloc = allocation_from_family(g, fam)
        scale = rng.uniform(0.8, 1.25, q)
        gains = scale[:, None, None] * _pathloss_gains(pos, 1)[0][None, :, :]
        noise = np.full((q, n), 1e-3)
        w = int(n_sessions if n_sessions is not None else rng.integers(1, 4))
        idx = rng.choice(n * (n - 1), size=w, replace=False)
        sessions = tuple(
            Session(
                *_ordered_pair(int(k), n),
                float(rng.uniform(0.15, 0.45)),
                Utility("log", float(rng.uniform(0.8, 1.5))),
            )
            for k in idx
        )
        scen = NetworkScenario(
            graph=g,
            allocation=alloc,
            gains=gains,
            noise=noise,
            power_budget=np.ones(n),
            sessions=sessions,
            cost=CostParams(),
        )
        if not math.isfinite(total_cost(scen, uniform_state(scen, power=0.9, overflow=0.1))):
            continue
        return scen
    raise RuntimeError("could not draw a scenario")


def _ordered_pair(k, n):
    """The k-th of the n * (n - 1) ordered pairs (a, b) of distinct nodes,
    listed by a, then by b."""
    a, r = divmod(k, n - 1)
    return a, r + (r >= a)


def grid_scenario(rng, side=4, n_sessions=2):
    """side x side grid with unit spacing, positions jittered by up to 0.15.

    Bands are planned by the protocol at the tight band count; sessions
    join random node pairs with log utilities weighted 2 to 3.  Draws whose
    start uniform_state(0.9, 0.1) has infinite cost are drawn again.
    """
    n = side * side
    und = [(k, k + 1) for k in range(n) if (k + 1) % side]
    und += [(k, k + side) for k in range(n - side)]
    g = build_graph(und + [(b, a) for a, b in und])
    q = min_subband_count(g.max_degree() + 1)
    lattice = np.array([[x, y] for y in range(side) for x in range(side)], dtype=float)
    for _ in range(50):
        pos = lattice + rng.uniform(-0.15, 0.15, lattice.shape)
        idx = rng.choice(n * (n - 1), size=n_sessions, replace=False)
        sessions = tuple(
            Session(
                *_ordered_pair(int(k), n),
                float(rng.uniform(0.2, 0.4)),
                Utility("log", float(rng.uniform(2.0, 3.0))),
            )
            for k in idx
        )
        scen = NetworkScenario(
            graph=g,
            allocation=allocate_subbands(g, q, seed=int(rng.integers(2**31))),
            gains=_pathloss_gains(pos, q, rng.uniform(0.8, 1.25, q)),
            noise=np.full((q, n), 1e-3),
            power_budget=np.ones(n),
            sessions=sessions,
            cost=CostParams(),
        )
        if math.isfinite(total_cost(scen, uniform_state(scen, power=0.9, overflow=0.1))):
            return scen
    raise RuntimeError("could not draw a grid scenario")


def _headroom_ok(scenario, state, frac=0.6):
    der = derive(scenario, state)
    if not math.isfinite(der.total):
        return False
    x = der.physical.sinr
    f = der.flows.band_flow
    r = scenario.cost.bandwidth
    k = scenario.cost.gain_factor
    for e in range(f.shape[0]):
        if f[e] <= 0:
            continue
        if x[e] <= 0 or f[e] > frac * r * math.log(k * x[e]):
            return False
    return True


def random_interior_state(scenario, rng, max_tries=40):
    """Strictly feasible random state with every loaded entry well under
    capacity, so central differences are trustworthy at the point.

    Every split is a Dirichlet draw.  After max_tries failed draws, the
    draws go on with the Dirichlet concentration doubling every
    max_tries // 4 draws, which pulls the splits toward even: on grids most
    uneven draws leave some loaded band without headroom.  The first
    max_tries draws are those of a plain retry loop, so every state found
    within them stays what it was.
    """
    lay = scenario.layout
    for attempt in range(3 * max_tries):
        late = attempt - max_tries
        alpha = 1.0 if late < 0 else 2.0 ** (1 + late // (max_tries // 4))
        state = uniform_state(scenario, power=0.5, overflow=0.5)
        for i in range(lay.n):
            bands = np.flatnonzero(lay.rho_mask[i])
            if bands.size:
                state.rho[i, bands] = rng.uniform(0.4, 0.8) * rng.dirichlet(np.full(bands.size, alpha))
        for entries in lay.node_band_entries.values():
            state.eta[entries] = rng.dirichlet(np.full(entries.size, alpha))
        for sl in lay.link_slices:
            state.mu[sl] = rng.dirichlet(np.full(sl.stop - sl.start, alpha))
        for w in range(len(scenario.sessions)):
            state.phi_w[w] = rng.uniform(0.25, 0.75)
            for i in range(lay.n):
                idx = [li for li in lay.out_links[i] if state.phi[w, li] > 0]
                if len(idx) > 1:
                    state.phi[w, idx] = rng.dirichlet(np.full(len(idx), alpha))
        if _headroom_ok(scenario, state):
            return state
        # admitted flow too aggressive for the sampled split; reject more
        for _ in range(4):
            state.phi_w = 1.0 - (1.0 - state.phi_w) * 0.5
            if _headroom_ok(scenario, state):
                return state
    raise RuntimeError("no interior state found")
