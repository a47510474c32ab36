"""Connectivity graph construction, coloring, and interference statistics."""

from itertools import product

import numpy as np
import pytest

from duplexnet.graph import (
    GraphValidationError,
    NotSymmetricError,
    SelfLoopError,
    build_graph,
    chromatic_number,
    greedy_coloring,
    interference_stats,
)

from helpers import complete_graph, cycle_graph, path_graph, random_connected_graph, star_graph


def test_build_graph_rejects_missing_reverse():
    with pytest.raises(NotSymmetricError):
        build_graph([(0, 1)])


def test_build_graph_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph([(0, 0), (0, 0)])


def test_build_graph_rejects_empty():
    with pytest.raises(GraphValidationError):
        build_graph([])


def test_build_graph_keeps_labels():
    g = build_graph([("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")])
    assert set(g.nodes) == {"a", "b", "c"}
    assert ("a", "b") in g.links and ("b", "a") in g.links
    assert g.max_degree() == 2


def test_components_returns_a_fresh_list():
    g = build_graph([(0, 1), (1, 0), (7, 8), (8, 7)], require_connected=False)
    comps = g.components()
    comps.append(frozenset({99}))
    assert g.components() == [frozenset({0, 1}), frozenset({7, 8})]
    assert not g.connected()


def test_duplicate_edges_collapse():
    g = build_graph([(0, 1), (1, 0), (0, 1), (1, 0)])
    assert g.n == 2
    assert len(g.links) == 2


def chi_exhaustive(g):
    """Smallest k admitting a proper coloring, by brute enumeration."""
    index = {v: i for i, v in enumerate(g.nodes)}
    pairs = [(index[i], index[j]) for i, j in g.links if index[i] < index[j]]
    for k in range(1, g.n + 1):
        for assign in product(range(k), repeat=g.n):
            if all(assign[i] != assign[j] for i, j in pairs):
                return k
    return g.n


def test_chromatic_number_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    for trial in range(30):
        g = random_connected_graph(rng, n=int(rng.integers(2, 8)))
        chi, exact = chromatic_number(g)
        assert exact, f"trial {trial}: expected an exact answer on {g.n} nodes"
        assert chi == chi_exhaustive(g), f"trial {trial}"


def test_exact_search_improves_on_the_dsatur_bound():
    # DSATUR colours this graph (a seeded random_connected_graph draw) with
    # four colours, but three suffice: the branch and bound must find them
    # rather than return the greedy bound it starts from
    und = [(0, 1), (0, 2), (0, 4), (0, 5), (2, 3), (2, 6), (2, 7), (3, 6), (3, 7), (4, 5), (4, 7), (5, 6)]
    g = build_graph(und + [(b, a) for a, b in und])
    assert max(greedy_coloring(g)) + 1 == 4
    assert chromatic_number(g) == (chi_exhaustive(g), True) == (3, True)


def test_chromatic_number_known_families():
    assert chromatic_number(complete_graph(5)) == (5, True)
    assert chromatic_number(cycle_graph(6)) == (2, True)
    assert chromatic_number(cycle_graph(7)) == (3, True)
    assert chromatic_number(path_graph(9)) == (2, True)
    assert chromatic_number(star_graph(6)) == (2, True)


def test_chromatic_number_relabel_invariant():
    rng = np.random.default_rng(12)
    for trial in range(10):
        g = random_connected_graph(rng, n=int(rng.integers(3, 9)))
        perm = rng.permutation(g.n)
        relabeled = build_graph([(int(perm[i]), int(perm[j])) for i, j in g.links])
        assert chromatic_number(g)[0] == chromatic_number(relabeled)[0]


def test_chromatic_number_above_exact_limit_is_flagged():
    # 20 nodes exceeds the default exhaustive limit; the bound must still
    # be a proper-coloring count, so 2 <= value <= max_degree + 1
    g = path_graph(20)
    chi, exact = chromatic_number(g)
    assert not exact
    assert 2 <= chi <= g.max_degree() + 1


def test_greedy_coloring_proper_and_bounded():
    rng = np.random.default_rng(13)
    for trial in range(25):
        g = random_connected_graph(rng)
        col = greedy_coloring(g)
        index = {v: i for i, v in enumerate(g.nodes)}
        assert all(col[index[i]] != col[index[j]] for i, j in g.links)
        assert max(col) + 1 <= g.max_degree() + 1


def conflict(l1, l2):
    # two directed links interfere when one's receiver transmits the other,
    # i.e. head of one is tail of the other
    (i, j), (a, b) = l1, l2
    return l1 != l2 and (j == a or i == b)


def test_interference_stats_against_conflict_predicate():
    rng = np.random.default_rng(14)
    for trial in range(25):
        g = random_connected_graph(rng)
        stats = interference_stats(g)
        links = sorted(set(g.links))
        assert stats.vertex_count == len(links)
        worst = 0
        for lk in links:
            deg = sum(conflict(lk, other) for other in links)
            assert stats.degrees[lk] == deg, f"trial {trial} link {lk}"
            worst = max(worst, deg)
        assert stats.max_degree == worst


def test_interference_degree_exceeds_node_degree():
    # a directed link (i, j) conflicts with deg(i) + deg(j) - 1 links in a
    # simple graph, which is at least max over endpoints
    rng = np.random.default_rng(15)
    for trial in range(15):
        g = random_connected_graph(rng)
        stats = interference_stats(g)
        deg = {v: 0 for v in g.nodes}
        for i, _ in g.links:
            deg[i] += 1
        for (i, j), d in stats.degrees.items():
            assert d == deg[i] + deg[j] - 1
        assert stats.max_degree >= g.max_degree()
