"""Distributed sub-band allocation protocol and topology changes."""

import random

import numpy as np
import pytest

from duplexnet.coloring import ColorSetFamily, assign_link_colors, mask_from_colors, min_subband_count
from duplexnet.graph import ConnectivityGraph, NotConnectedError, build_graph
from duplexnet.subband import (
    DegreeBudgetExceededError,
    InsufficientBandsError,
    Join,
    Leave,
    SpectrumAllocation,
    _choose_set,
    _occurrence_counts,
    allocate_subbands,
    apply_topology_change,
    check_allocation,
)

from helpers import churn, complete_graph, path_graph, random_connected_graph, random_geometric_graph


def test_path3_deterministic_trace():
    # seedless run is deterministic: lowest node seeds with the first
    # half-subset, then nodes settle in ascending order
    g = path_graph(3)
    alloc = allocate_subbands(g, 3)
    assert alloc.band_count == 3
    assert alloc.outgoing == {0: 0b001, 1: 0b010, 2: 0b001}
    assert alloc.link_bands == {(0, 1): 0b001, (1, 0): 0b010, (1, 2): 0b010, (2, 1): 0b001}
    assert alloc.outgoing_bands(0) == (0,)
    assert alloc.bands_of(1, 2) == (1,)
    assert check_allocation(g, alloc).ok


def test_complete4_deterministic_trace():
    # K4 needs all 4 bands; node 2 cannot use the two greedy picks left
    # by nodes 0 and 1 and must go through the swap repair
    g = complete_graph(4)
    alloc = allocate_subbands(g, 4)
    assert alloc.outgoing == {0: 0b0011, 1: 0b1100, 2: 0b0101, 3: 0b1010}
    assert check_allocation(g, alloc).ok
    # node 2 is the one swap repair; the counts stay out of equality
    assert alloc.fallbacks == (1, 0)
    assert alloc == SpectrumAllocation(alloc.band_count, alloc.outgoing, alloc.link_bands)


def test_seeded_runs_reproduce():
    rng = np.random.default_rng(51)
    for trial in range(10):
        g = random_connected_graph(rng)
        q = min_subband_count(g.max_degree() + 1)
        s = int(rng.integers(0, 1000))
        a = allocate_subbands(g, q, seed=s)
        b = allocate_subbands(g, q, seed=s)
        assert a.outgoing == b.outgoing
        assert a.link_bands == b.link_bands


def test_protocol_feasible_at_minimum_band_count():
    rng = np.random.default_rng(52)
    for trial in range(15):
        g = random_connected_graph(rng)
        q = min_subband_count(g.max_degree() + 1)
        for s in range(3):
            alloc = allocate_subbands(g, q, seed=s)
            rep = check_allocation(g, alloc)
            assert rep.ok, f"trial {trial} seed {s}: {rep}"


def test_insufficient_bands():
    with pytest.raises(InsufficientBandsError):
        allocate_subbands(complete_graph(4), 3)
    with pytest.raises(InsufficientBandsError):
        allocate_subbands(path_graph(3), 0)


def test_band_count_cap():
    with pytest.raises(ValueError, match="64"):
        allocate_subbands(path_graph(3), 65)


def test_first_node_override():
    g = path_graph(3)
    alloc = allocate_subbands(g, 3, first_node=2)
    assert alloc.outgoing[2] == 0b001
    assert check_allocation(g, alloc).ok


def test_check_allocation_detects_duplexing_conflict():
    # link_bands say every link transmits on band 1, so each node both
    # sends and receives on it regardless of the outgoing sets
    g = path_graph(3)
    bad = SpectrumAllocation(
        band_count=2,
        outgoing={0: 0b01, 1: 0b10, 2: 0b01},
        link_bands={(0, 1): 0b10, (1, 0): 0b10, (1, 2): 0b10, (2, 1): 0b10},
    )
    rep = check_allocation(g, bad)
    assert not rep.ok
    assert rep.duplexing_violations == ((0, 1), (1, 1), (2, 1))
    assert rep.coverage_violations == ()


def test_check_allocation_detects_uncovered_link():
    g = path_graph(3)
    bad = SpectrumAllocation(
        band_count=2,
        outgoing={0: 0b01, 1: 0b10, 2: 0b01},
        link_bands={(0, 1): 0b01, (1, 0): 0b10, (1, 2): 0b10, (2, 1): 0},
    )
    rep = check_allocation(g, bad)
    assert not rep.ok
    assert rep.coverage_violations == ((2, 1),)


def _per_band_check(g, alloc):
    """check_allocation as first written: per-band sender and receiver sets."""
    links = set(g.links)
    coverage = tuple(lk for lk in g.links if not alloc.link_bands.get(lk, 0))
    transmit, receive = {}, {}
    for (i, j), m in alloc.link_bands.items():
        if (i, j) in links:
            for b in range(alloc.band_count):
                if m >> b & 1:
                    transmit.setdefault(b, set()).add(i)
                    receive.setdefault(b, set()).add(j)
    duplexing = tuple(
        (node, b) for b in sorted(transmit) for node in sorted(transmit[b] & receive.get(b, set()))
    )
    return coverage, duplexing


def test_check_allocation_matches_per_band_sets():
    rng = np.random.default_rng(55)
    for _ in range(20):
        g = random_connected_graph(rng)
        q = int(rng.integers(2, 6))
        # random masks, some empty, and a key that is not a link
        bands = {lk: int(rng.integers(1 << q)) for lk in g.links if rng.random() < 0.9}
        bands[(g.nodes[0], max(g.nodes) + 1)] = (1 << q) - 1
        alloc = SpectrumAllocation(q, {v: 0 for v in g.nodes}, bands)
        rep = check_allocation(g, alloc)
        assert (rep.coverage_violations, rep.duplexing_violations) == _per_band_check(g, alloc)


def test_leave_keeps_survivors_untouched():
    g = complete_graph(4)
    alloc = allocate_subbands(g, 4)
    res = apply_topology_change(g, alloc, Leave(3))
    assert not res.disconnected
    assert set(res.graph.nodes) == {0, 1, 2}
    for v in (0, 1, 2):
        assert res.allocation.outgoing[v] == alloc.outgoing[v]
    assert 3 not in res.allocation.outgoing
    assert check_allocation(res.graph, res.allocation).ok


def test_leave_reports_disconnection():
    g = path_graph(3)
    alloc = allocate_subbands(g, 3)
    res = apply_topology_change(g, alloc, Leave(1))
    assert res.graph is None
    assert res.disconnected
    assert set(res.components) == {frozenset({0}), frozenset({2})}
    assert res.allocation.outgoing == {0: 0b001, 2: 0b001}


def test_join_within_degree_budget():
    g = path_graph(3)
    alloc = allocate_subbands(g, 3)
    res = apply_topology_change(g, alloc, Join(3, (0,)), seed=0)
    assert set(res.graph.nodes) == {0, 1, 2, 3}
    assert (3, 0) in res.graph.links and (0, 3) in res.graph.links
    assert check_allocation(res.graph, res.allocation).ok
    # the settled nodes never move
    for v in (0, 1, 2):
        assert res.allocation.outgoing[v] == alloc.outgoing[v]


def test_join_rejects_degree_budget_violation():
    # P3 has max degree 2; a third neighbor would need more bands
    g = path_graph(3)
    alloc = allocate_subbands(g, 3)
    with pytest.raises(DegreeBudgetExceededError):
        apply_topology_change(g, alloc, Join(3, (0, 1, 2)))


def test_join_argument_validation():
    g = path_graph(3)
    alloc = allocate_subbands(g, 3)
    with pytest.raises(ValueError):
        apply_topology_change(g, alloc, Join(1, (0,)))  # already present
    with pytest.raises(ValueError):
        apply_topology_change(g, alloc, Join(3, (9,)))  # unknown neighbor
    with pytest.raises(ValueError):
        apply_topology_change(g, alloc, Join(3, (0, 0)))  # duplicate
    with pytest.raises(ValueError):
        apply_topology_change(g, alloc, Join(3, ()))  # isolated


def test_choose_set_greedy_and_swap():
    # greedy pick and its one swap both collide, so enumeration finds band 2
    assert _choose_set(3, [0, 0, 0], [0b001, 0b010], None) == (0b100, "enumerate")
    # occurrence counts steer toward the least used band
    assert _choose_set(3, [5, 0, 2], [], None) == (0b010, "greedy")
    # swap repair: the favored pair {0, 1} is taken, one band is swapped
    assert _choose_set(4, [0, 0, 5, 5], [0b0011], None) == (0b0101, "swap")


def test_choose_set_exhaustion():
    with pytest.raises(RuntimeError, match="no feasible band subset"):
        _choose_set(3, [0, 0, 0], [0b001, 0b010, 0b100], None)


def _rescan_allocate(g, band_count, seed=None, first_node=None):
    """The protocol as first written: every step rescans all nodes for the
    eligible ones.  Returns the outgoing masks in settling order."""
    rng = random.Random(seed) if seed is not None else None
    if first_node is None:
        first = g.nodes[0] if rng is None else rng.choice(g.nodes)
    else:
        first = first_node
    half = band_count // 2
    outgoing = {}
    if rng is None:
        outgoing[first] = (1 << half) - 1
    else:
        outgoing[first] = mask_from_colors(rng.sample(range(band_count), half))
    while len(outgoing) < g.n:
        eligible = sorted(
            v
            for v in g.nodes
            if v not in outgoing and any(u in outgoing for u in g.neighbors(v))
        )
        v = eligible[0] if rng is None else rng.choice(eligible)
        done = [outgoing[u] for u in g.neighbors(v) if u in outgoing]
        counts = _occurrence_counts(band_count, done)
        outgoing[v] = _choose_set(band_count, counts, done, rng)[0]
    return outgoing


@pytest.mark.parametrize("graph_seed", [61, 62])
def test_frontier_matches_rescan_reference(graph_seed):
    rng = np.random.default_rng(graph_seed)
    g, _, _ = random_geometric_graph(rng)
    q = min_subband_count(g.max_degree() + 1)
    middle = g.nodes[g.n // 2]
    for kwargs in ({}, {"seed": 7}, {"seed": 2**31 - 1}, {"first_node": middle}, {"seed": 3, "first_node": middle}):
        alloc = allocate_subbands(g, q, **kwargs)
        ref = _rescan_allocate(g, q, **kwargs)
        # same sets, settled in the same order
        assert list(alloc.outgoing.items()) == list(ref.items()), kwargs
        masks = assign_link_colors(g, ColorSetFamily(q, ref))
        assert list(alloc.link_bands.items()) == list(masks.items()), kwargs


@pytest.mark.parametrize("seed", [None, 5])
def test_allocate_on_disconnected_graph_raises(seed):
    g = build_graph([(0, 1), (1, 0), (1, 2), (2, 1), (7, 8), (8, 7)], require_connected=False)
    with pytest.raises(NotConnectedError, match="2 components"):
        allocate_subbands(g, 3, seed=seed)
    with pytest.raises(NotConnectedError):
        allocate_subbands(g, 3, seed=seed, first_node=8)


def _rebuilt(g, change):
    """The graph after `change` as build_graph makes it from the edge list."""
    if isinstance(change, Leave):
        edges = [lk for lk in g.links if change.node not in lk]
        return build_graph(edges, require_connected=False) if edges else None
    new = [(change.node, u) for u in change.neighbors]
    return build_graph(list(g.links) + new + [(u, v) for v, u in new], require_connected=False)


def _assert_matches_rebuild(g, change, res):
    ref = _rebuilt(g, change)
    if ref is None:
        assert res.graph is None
        return
    assert res.graph.nodes == ref.nodes
    assert res.graph.links == ref.links
    assert [res.graph.adjacency(i) for i in range(ref.n)] == [ref.adjacency(i) for i in range(ref.n)]
    assert [res.graph.index(v) for v in ref.nodes] == list(range(ref.n))
    assert res.graph.components() == ref.components()
    if isinstance(change, Leave):
        survivors = [v for v in g.nodes if v != change.node]
        comps = ref.components() + [frozenset((v,)) for v in survivors if v not in set(ref.nodes)]
        assert res.components == tuple(comps)
        assert res.disconnected == (len(comps) > 1)
        # a leave deletes in place: the keys match, in whatever order
        assert set(res.allocation.link_bands) == set(ref.links)
        assert set(res.allocation.outgoing) == set(survivors)


@pytest.mark.parametrize("graph_seed", [63, 64])
def test_churn_graphs_match_rebuild(graph_seed):
    rng = np.random.default_rng(graph_seed)
    g, pos, radius = random_geometric_graph(rng)
    alloc = allocate_subbands(g, min_subband_count(g.max_degree() + 1), seed=graph_seed)
    kinds = set()
    for before, _, change, res in churn(rng, g, alloc, pos, radius, 40):
        # first, so that the rebuild check's components() call fills no cache
        if res.graph is not None:
            assert res.graph.connected() == _rebuilt(before, change).connected()
        _assert_matches_rebuild(before, change, res)
        kinds.add(type(change))
    assert kinds == {Join, Leave}


def _lollipop():
    # triangle 0-1-2 with node 3 hanging off node 2
    und = [(0, 1), (1, 2), (0, 2), (2, 3)]
    return build_graph(und + [(b, a) for a, b in und])


def test_leave_isolating_a_neighbor_matches_rebuild():
    g = _lollipop()
    alloc = allocate_subbands(g, 4)
    res = apply_topology_change(g, alloc, Leave(2))
    _assert_matches_rebuild(g, Leave(2), res)
    assert res.graph.nodes == (0, 1)
    assert res.components == (frozenset({0, 1}), frozenset({3}))
    assert res.disconnected


def test_leave_disconnecting_then_join_raises():
    und = [(10, 20), (20, 30), (30, 40), (40, 50), (50, 60)]
    g = build_graph(und + [(b, a) for a, b in und])
    alloc = allocate_subbands(g, 3)
    res = apply_topology_change(g, alloc, Leave(30))
    _assert_matches_rebuild(g, Leave(30), res)
    assert res.components == (frozenset({10, 20}), frozenset({40, 50, 60}))
    # a join that bridges nothing leaves the graph in two parts
    with pytest.raises(NotConnectedError, match="2 components"):
        apply_topology_change(res.graph, res.allocation, Join(15, (10,)))
    # one that links both parts is accepted, at an id between existing ones
    joined = apply_topology_change(res.graph, res.allocation, Join(35, (20, 40)), seed=1)
    _assert_matches_rebuild(res.graph, Join(35, (20, 40)), joined)
    assert not joined.disconnected
    assert joined.graph.connected()
    assert joined.components == (frozenset({10, 20, 35, 40, 50, 60}),)


def _count_searches(monkeypatch):
    """The graphs on which a full connected-component search runs."""
    searched = []
    search = ConnectivityGraph._search_components

    def counting(self):
        searched.append(self)
        return search(self)

    monkeypatch.setattr(ConnectivityGraph, "_search_components", counting)
    return searched


def test_local_events_search_no_components(monkeypatch):
    # ring 0..5: build_graph proves it connected, before the count starts
    und = [(k, (k + 1) % 6) for k in range(6)]
    g = build_graph(und + [(b, a) for a, b in und])
    alloc = allocate_subbands(g, 3)
    searched = _count_searches(monkeypatch)
    joined = apply_topology_change(g, alloc, Join(10, (0, 3)), seed=1)
    assert joined.components == (frozenset({0, 1, 2, 3, 4, 5, 10}),)
    # node 1 is no cut vertex: its neighbors 0 and 2 still meet through 5, 4, 3
    left = apply_topology_change(joined.graph, joined.allocation, Leave(1))
    assert left.components == (frozenset({0, 2, 3, 4, 5, 10}),)
    assert not left.disconnected and left.graph.connected()
    assert searched == []
    _assert_matches_rebuild(g, Join(10, (0, 3)), joined)
    _assert_matches_rebuild(joined.graph, Leave(1), left)


def test_leave_builds_no_link_list():
    # a leave deletes the leaver's entries in place, so the new graph's
    # link list, a pass over every link, stays unbuilt; also after a join
    g = complete_graph(5)
    alloc = allocate_subbands(g, 4)
    joined = apply_topology_change(g, alloc, Join(7, (0, 2)), seed=3)
    for before, before_alloc in ((g, alloc), (joined.graph, joined.allocation)):
        res = apply_topology_change(before, before_alloc, Leave(0))
        assert "links" not in vars(res.graph)
        assert check_allocation(res.graph, res.allocation).ok
        _assert_matches_rebuild(before, Leave(0), res)


def test_cut_vertex_leave_searches_once(monkeypatch):
    g = path_graph(5)
    alloc = allocate_subbands(g, 3)
    searched = _count_searches(monkeypatch)
    res = apply_topology_change(g, alloc, Leave(2))
    assert res.components == (frozenset({0, 1}), frozenset({3, 4}))
    assert res.disconnected and not res.graph.connected()
    assert searched == [res.graph]
