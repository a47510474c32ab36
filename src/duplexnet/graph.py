"""Connectivity graphs and their coloring/interference statistics.

A connectivity graph is directed and link-symmetric: (i, j) is a link iff
(j, i) is.  Links model one-hop radio reachability, so self-loops are
rejected and the graph must be connected (an isolated radio belongs to no
network).  Node ids may be arbitrary integers; they are remapped to dense
internal indices 0..n-1.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphValidationError(ValueError):
    """Raised when an edge list does not describe a valid connectivity graph."""


class SelfLoopError(GraphValidationError):
    pass


class NotSymmetricError(GraphValidationError):
    pass


class NotConnectedError(GraphValidationError):
    pass


class ConnectivityGraph:
    """Immutable link-symmetric directed graph with dense internal indices.

    Nodes are held in ascending id order and each adjacency row ascending,
    as build_graph makes them; the protocol's draw order relies on it.
    """

    __slots__ = ("nodes", "links", "_index", "_adj")

    def __init__(self, nodes: tuple[int, ...], adj: tuple[tuple[int, ...], ...]):
        self.nodes = nodes
        self._index = {v: i for i, v in enumerate(nodes)}
        self._adj = adj
        self.links = tuple(
            (nodes[i], nodes[j]) for i in range(len(nodes)) for j in adj[i]
        )

    @property
    def n(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: int) -> bool:
        return node in self._index

    def index(self, node: int) -> int:
        return self._index[node]

    def neighbors(self, node: int) -> tuple[int, ...]:
        return tuple(self.nodes[j] for j in self._adj[self.index(node)])

    def adjacency(self, i: int) -> tuple[int, ...]:
        """Internal-index neighbor list of internal node i."""
        return self._adj[i]

    def degree(self, node: int) -> int:
        return len(self._adj[self.index(node)])

    def degrees(self) -> list[int]:
        return [len(a) for a in self._adj]

    def max_degree(self) -> int:
        return max(len(a) for a in self._adj)

    def internal_links(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            for j in self._adj[i]:
                yield (i, j)

    def connected(self) -> bool:
        return len(self.components()) == 1

    def components(self) -> list[frozenset[int]]:
        """Connected components as sets of external node ids."""
        seen: set[int] = set()
        comps = []
        for s in range(self.n):
            if s in seen:
                continue
            stack, comp = [s], {s}
            seen.add(s)
            while stack:
                u = stack.pop()
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        comp.add(v)
                        stack.append(v)
            comps.append(frozenset(self.nodes[i] for i in comp))
        return comps

    def __repr__(self) -> str:
        return f"ConnectivityGraph(n={self.n}, links={len(self.links)})"


def build_graph(edges: Iterable[tuple[int, int]], *, require_connected: bool = True) -> ConnectivityGraph:
    """Validate an edge list and build a ConnectivityGraph.

    Accepts directed pairs; every pair must appear with its reverse.  Raises
    SelfLoopError, NotSymmetricError, or NotConnectedError.
    """
    edge_set = set()
    node_set = set()
    for i, j in edges:
        if i == j:
            raise SelfLoopError(f"self loop at node {i}")
        edge_set.add((i, j))
        node_set.update((i, j))
    missing = [(i, j) for (i, j) in edge_set if (j, i) not in edge_set]
    if missing:
        raise NotSymmetricError(f"links without a reverse: {sorted(missing)}")
    if not node_set:
        raise GraphValidationError("empty edge list")
    nodes = tuple(sorted(node_set))
    index = {v: i for i, v in enumerate(nodes)}
    adj_sets: list[set[int]] = [set() for _ in nodes]
    for i, j in edge_set:
        adj_sets[index[i]].add(index[j])
    adj = tuple(tuple(sorted(s)) for s in adj_sets)
    g = ConnectivityGraph(nodes, adj)
    if require_connected and not g.connected():
        raise NotConnectedError(f"graph has {len(g.components())} components")
    return g


def _without_node(g: ConnectivityGraph, node: int) -> ConnectivityGraph | None:
    """The graph left when `node` goes, without the nodes it leaves linkless.

    Equal to build_graph of the surviving links with require_connected=False,
    or None when no link survives.  Indices above each dropped row move down.
    """
    r = g.index(node)
    rows = list(g._adj)
    for u in rows[r]:
        rows[u] = tuple(j for j in rows[u] if j != r)
    rows[r] = ()
    remap = []
    kept = 0
    for row in rows:
        remap.append(kept if row else -1)
        kept += bool(row)
    if not kept:
        return None
    low = remap.index(-1)  # rows below the first dropped one keep their indices
    nodes = tuple(v for v, k in zip(g.nodes, remap) if k >= 0)
    adj = tuple(
        row if row[-1] < low else tuple(remap[j] for j in row) for row in rows if row
    )
    return ConnectivityGraph(nodes, adj)


def _with_node(g: ConnectivityGraph, node: int, neighbors: Iterable[int]) -> ConnectivityGraph:
    """The graph with `node` linked both ways to each of `neighbors`.

    The caller checks that `node` is new and the neighbors exist; the result
    equals build_graph of the extended link list, minus its connectivity
    check.  Indices at or after the new node's sorted position move up.
    """
    p = bisect_left(g.nodes, node)
    nodes = g.nodes[:p] + (node,) + g.nodes[p:]

    def shifted(row: tuple[int, ...], extra: tuple[int, ...] = ()) -> tuple[int, ...]:
        k = bisect_left(row, p)
        return row[:k] + extra + tuple(j + 1 for j in row[k:])

    old = sorted(map(g.index, neighbors))
    rows = [shifted(row) for row in g._adj]
    for k in old:
        rows[k] = shifted(g._adj[k], (p,))
    rows.insert(p, tuple(k + (k >= p) for k in old))
    return ConnectivityGraph(nodes, tuple(rows))


def greedy_coloring(g: ConnectivityGraph) -> list[int]:
    """Proper coloring by DSATUR order; uses at most max_degree + 1 colors.

    Returns a color index per internal node.
    """
    n = g.n
    colors = [-1] * n
    saturation: list[set[int]] = [set() for _ in range(n)]
    degrees = g.degrees()
    for _ in range(n):
        # pick uncolored vertex with max saturation, ties by degree then index
        best = -1
        for v in range(n):
            if colors[v] >= 0:
                continue
            if best < 0 or (len(saturation[v]), degrees[v], -v) > (
                len(saturation[best]), degrees[best], -best
            ):
                best = v
        c = 0
        while c in saturation[best]:
            c += 1
        colors[best] = c
        for u in g.adjacency(best):
            saturation[u].add(c)
    return colors


def _exact_chromatic(g: ConnectivityGraph, upper: int) -> int:
    """Branch-and-bound exact chromatic number, DSATUR vertex selection."""
    n = g.n
    adj = [g.adjacency(i) for i in range(n)]
    best_k = upper
    colors = [-1] * n

    def choose_vertex() -> int:
        best, best_key = -1, None
        for v in range(n):
            if colors[v] >= 0:
                continue
            sat = {colors[u] for u in adj[v] if colors[u] >= 0}
            key = (len(sat), len(adj[v]), -v)
            if best < 0 or key > best_key:
                best, best_key = v, key
        return best

    def backtrack(colored: int, used: int) -> None:
        nonlocal best_k
        if used >= best_k:
            return
        if colored == n:
            best_k = used
            return
        v = choose_vertex()
        forbidden = {colors[u] for u in adj[v] if colors[u] >= 0}
        # existing colors first, then a single fresh color (symmetry pruning)
        for c in range(min(used + 1, best_k - 1)):
            if c in forbidden:
                continue
            colors[v] = c
            backtrack(colored + 1, max(used, c + 1))
            colors[v] = -1

    backtrack(0, 0)
    return best_k


def chromatic_number(g: ConnectivityGraph, *, exact_limit: int = 16) -> tuple[int, bool]:
    """Chromatic number of the graph.

    Returns (value, exact).  For graphs with at most exact_limit nodes the
    value is exact (branch and bound seeded by the DSATUR bound); beyond
    that it is the greedy upper bound, at most max_degree + 1, with
    exact=False.
    """
    greedy = max(greedy_coloring(g)) + 1
    if g.n <= exact_limit:
        return _exact_chromatic(g, greedy), True
    return greedy, False


@dataclass(frozen=True)
class InterferenceStats:
    """Degree statistics of the induced interference graph.

    Vertices of the interference graph are the directed links; two links
    conflict when sharing a band would force some node to transmit and
    receive at once.  Link (i, j) conflicts with every link leaving j and
    every link entering i, and (j, i) falls in both groups, so its degree is
    deg(i) + deg(j) - 1.
    """

    vertex_count: int
    max_degree: int
    degrees: dict[tuple[int, int], int]


def interference_stats(g: ConnectivityGraph) -> InterferenceStats:
    degrees = {}
    for i, j in g.links:
        degrees[(i, j)] = g.degree(i) + g.degree(j) - 1
    return InterferenceStats(
        vertex_count=len(g.links),
        max_degree=max(degrees.values()),
        degrees=degrees,
    )
