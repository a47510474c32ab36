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
from functools import cached_property
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Iterator

from .persistent import DELETE, PersistentMap


class GraphValidationError(ValueError):
    """Raised when an edge list does not describe a valid connectivity graph."""


class SelfLoopError(GraphValidationError):
    pass


class NotSymmetricError(GraphValidationError):
    pass


class NotConnectedError(GraphValidationError):
    pass


_first, _second = itemgetter(0), itemgetter(1)


class ConnectivityGraph:
    """Immutable link-symmetric directed graph with dense internal indices.

    Each node's row holds its outgoing links (node, neighbor), keyed by node
    id and ascending by neighbor, in a PersistentMap: the graphs of a
    join/leave sequence share one dict of rows, and an event writes only the
    rows of its node and that node's neighbors.  An event so costs O(degree)
    and leaves the graph it came from reading as before; an older graph
    pays for a copy of the rows when it is read again.  Nodes are held in
    ascending id order, so internal indices, `links` and `adjacency` come
    out as build_graph makes them; the protocol's draw order relies on it.
    `nodes` and the internal-index views are built on first use.  The
    maximum degree comes from a count of nodes per degree, which an event
    adjusts.  Connectivity is cached once known: build_graph proves it, and
    an event keeps it where it can tell locally.
    """

    def __init__(self, rows: PersistentMap):
        self._rows = rows
        self._connected: bool | None = None
        self._comps: list[frozenset[int]] | None = None

    @cached_property
    def nodes(self) -> tuple:
        return tuple(sorted(self._rows))

    @cached_property
    def links(self) -> tuple[tuple[int, int], ...]:
        return tuple(chain.from_iterable(map(self._rows.read().__getitem__, self.nodes)))

    @cached_property
    def _index(self) -> dict[int, int]:
        return dict(zip(self.nodes, range(len(self.nodes))))

    @cached_property
    def _adj(self) -> tuple[tuple[int, ...], ...]:
        index, rows = self._index.__getitem__, self._rows.read()
        return tuple(tuple(map(index, map(_second, rows[v]))) for v in self.nodes)

    @cached_property
    def _degree_counts(self) -> list[int]:
        """How many nodes have each degree, up to the maximum degree."""
        degrees = list(map(len, self._rows.values()))
        counts = [0] * (max(degrees) + 1)
        for d in degrees:
            counts[d] += 1
        return counts

    @property
    def n(self) -> int:
        return len(self._rows)

    def __contains__(self, node: int) -> bool:
        return node in self._rows

    def index(self, node: int) -> int:
        return self._index[node]

    def neighbors(self, node: int) -> tuple[int, ...]:
        return tuple(map(_second, self._rows[node]))

    def adjacency(self, i: int) -> tuple[int, ...]:
        """Internal-index neighbor list of internal node i."""
        return self._adj[i]

    def degree(self, node: int) -> int:
        return len(self._rows[node])

    def degrees(self) -> list[int]:
        return list(map(len, map(self._rows.read().__getitem__, self.nodes)))

    def max_degree(self) -> int:
        return len(self._degree_counts) - 1

    def internal_links(self) -> Iterator[tuple[int, int]]:
        for i in range(self.n):
            for j in self._adj[i]:
                yield (i, j)

    def connected(self) -> bool:
        if self._connected is None:
            self.components()
        return self._connected

    def components(self) -> list[frozenset[int]]:
        """Connected components as sets of external node ids, in the order
        of their lowest id; a fresh list on every call."""
        if self._comps is None:
            self._comps = [frozenset(self._rows)] if self._connected else self._search_components()
            self._connected = len(self._comps) == 1
        return list(self._comps)

    def _search_components(self) -> list[frozenset[int]]:
        """Connected components by a search over the whole graph."""
        rows = self._rows.read()
        seen: set[int] = set()
        comps = []
        for s in self.nodes:
            if s in seen:
                continue
            stack, comp = [s], {s}
            seen.add(s)
            while stack:
                for _, v in rows[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        comp.add(v)
                        stack.append(v)
            comps.append(frozenset(comp))
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
    # ascending pairs are the links in node order, each row ascending.  The
    # pairs hold the id objects of `nodes`: a caller may pass a fresh int per
    # occurrence, and scattered objects slow every later pass over the links
    one = dict(zip(nodes, nodes))
    links = tuple([(one[i], one[j]) for i, j in sorted(edge_set)])
    g = ConnectivityGraph(PersistentMap({v: tuple(row) for v, row in groupby(links, _first)}))
    g.nodes, g.links = nodes, links
    if require_connected and not g.connected():
        raise NotConnectedError(f"graph has {len(g.components())} components")
    return g


def _drop(items: tuple, item) -> tuple:
    """`items`, ascending, without `item`."""
    k = bisect_left(items, item)
    return items[:k] + items[k + 1 :]


def _insert(items: tuple, item) -> tuple:
    """`items`, ascending, with `item` at its place."""
    k = bisect_left(items, item)
    return items[:k] + (item,) + items[k:]


def _reaches_all(rows: dict, targets: list[int]) -> bool:
    """Whether a breadth-first search from targets[0] finds all the others;
    it stops as soon as it has."""
    start, *rest = targets
    left = set(rest)
    seen = {start}
    queue = [start]
    for v in queue:  # the loop also visits what it appends
        if not left:
            return True
        for _, u in rows[v]:
            if u not in seen:
                seen.add(u)
                left.discard(u)
                queue.append(u)
    return not left


def _edited(g: ConnectivityGraph, changes: list) -> ConnectivityGraph:
    """`g` with `changes`, (node, row or DELETE) pairs, written to its rows;
    its degree counts move with them."""
    rows = g._rows.read()
    counts = g._degree_counts.copy()
    for node, row in changes:
        old, new = len(rows.get(node, ())), 0 if row is DELETE else len(row)
        if old:
            counts[old] -= 1
        if new:
            counts.extend([0] * (new + 1 - len(counts)))
            counts[new] += 1
    while not counts[-1]:
        counts.pop()
    out = ConnectivityGraph(g._rows.updated(changes))
    out._degree_counts = counts
    return out


def _without_node(g: ConnectivityGraph, node: int) -> ConnectivityGraph | None:
    """The graph left when `node` goes, without the nodes it leaves linkless.

    Equal to build_graph of the surviving links with require_connected=False,
    or None when no link survives.  Only the rows of `node` and its
    neighbors change.  A connected graph stays so when the neighbors that
    keep a link still reach one another: every path through `node` ran
    between two of them.
    """
    rows = g._rows.read()
    changes, kept = [(node, DELETE)], []
    for _, u in rows[node]:
        row = _drop(rows[u], (u, node))
        changes.append((u, row or DELETE))
        if row:
            kept.append(u)
    if len(changes) - len(kept) == len(rows):  # every row goes
        return None
    out = _edited(g, changes)
    if g._connected:
        out._connected = _reaches_all(out._rows.read(), kept)
    return out


def _with_node(g: ConnectivityGraph, node: int, neighbors: Iterable[int]) -> ConnectivityGraph:
    """The graph with `node` linked both ways to each of `neighbors`.

    The caller checks that `node` is new and the neighbors exist; the result
    equals build_graph of the extended link list, minus its connectivity
    check.  Only the rows of `node` and its neighbors change, and a
    connected graph stays connected.
    """
    rows = g._rows.read()
    new = sorted(neighbors)
    changes = [(node, tuple((node, u) for u in new))]
    changes += [(u, _insert(rows[u], (u, node))) for u in new]
    out = _edited(g, changes)
    if g._connected:
        out._connected = True
    return out


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


EXACT_LIMIT = 16


def chromatic_number(g: ConnectivityGraph) -> tuple[int, bool]:
    """Chromatic number of the graph.

    Returns (value, exact).  For graphs with at most EXACT_LIMIT nodes the
    value is exact (branch and bound seeded by the DSATUR bound); beyond
    that it is the greedy upper bound, at most max_degree + 1, with
    exact=False.
    """
    greedy = max(greedy_coloring(g)) + 1
    if g.n <= EXACT_LIMIT:
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
