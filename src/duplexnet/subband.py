"""Distributed sub-band allocation and incremental topology changes.

Nodes pick their outgoing band sets one at a time: a seed node picks an
arbitrary floor(Q/2)-subset, every later node picks a floor(Q/2)-subset
distinct from all already-processed neighbors, preferring bands that occur
least among those neighbors' sets.  Directed link (i, j) then transmits on
OC_i \\ OC_j.  With Q >= min_subband_count(max_degree + 1) a valid choice
always exists regardless of processing order, so the protocol needs no
coordination beyond one-hop gossip.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .coloring import (
    ColorSetFamily,
    assign_link_colors,
    colors_from_mask,
    mask_from_colors,
    min_subband_count,
)
from .graph import ConnectivityGraph, NotConnectedError, _with_node, _without_node
from .persistent import DELETE, PersistentMap


class InsufficientBandsError(ValueError):
    """Band count below the guaranteed-feasible threshold."""


class DegreeBudgetExceededError(ValueError):
    """A joining node asked for more neighbors than the old maximum degree."""


@dataclass(frozen=True)
class SpectrumAllocation:
    """Outgoing band sets per node and band masks per directed link.

    A plan holds dicts; the allocations after join/leave events hold
    versions of one PersistentMap, which read as dicts do.
    """

    band_count: int
    outgoing: Mapping[int, int]
    link_bands: Mapping[tuple[int, int], int]
    # (swap repairs, subset enumerations) among the selections behind this
    # allocation: a plan's own, plus one per join since; not part of equality
    fallbacks: tuple[int, int] = field(default=(0, 0), compare=False)

    def bands_of(self, i: int, j: int) -> tuple[int, ...]:
        return colors_from_mask(self.link_bands[(i, j)])

    def outgoing_bands(self, i: int) -> tuple[int, ...]:
        return colors_from_mask(self.outgoing[i])


@dataclass(frozen=True)
class AllocationCheck:
    coverage_violations: tuple[tuple[int, int], ...]
    duplexing_violations: tuple[tuple[int, int], ...]  # (node, band)

    @property
    def ok(self) -> bool:
        return not self.coverage_violations and not self.duplexing_violations


@dataclass(frozen=True)
class Leave:
    node: int


@dataclass(frozen=True)
class Join:
    node: int
    neighbors: tuple[int, ...]


@dataclass(frozen=True)
class TopologyResult:
    graph: ConnectivityGraph | None
    allocation: SpectrumAllocation
    disconnected: bool
    # the leaver's neighbors that kept no link, each a component of its own
    isolated: tuple[int, ...] = ()

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """The graph's components, in the order of their lowest id, then
        the isolated nodes; computed on first access."""
        comps = [] if self.graph is None else self.graph.components()
        return tuple(comps + [frozenset((v,)) for v in self.isolated])


def _band_preference(
    band_count: int, counts: Sequence[int], rng: random.Random | None
) -> list[int]:
    """Bands by ascending occurrence count; ties by index, or shuffled when seeded."""
    tie = list(range(band_count))
    if rng is not None:
        rng.shuffle(tie)
    # tie values lie in range(band_count), so these keys order as the pairs
    # (counts[b], tie[b]) do
    keys = [c * band_count + t for c, t in zip(counts, tie)]
    return sorted(range(band_count), key=keys.__getitem__)


def _choose_set(
    band_count: int,
    counts: Sequence[int],
    neighbor_masks: Iterable[int],
    rng: random.Random | None,
) -> tuple[int, str]:
    """Pick a floor(Q/2)-subset distinct from every neighbor mask.

    Greedy lowest-occurrence choice first; on collision swap the
    highest-occurrence chosen band for the lowest-occurrence unchosen one,
    and if the swap sequence is exhausted fall back to enumerating subsets
    in preference order (each neighbor blocks at most one candidate, so at
    most deg+1 candidates are inspected).  Returns the mask and the path
    that found it: "greedy", "swap" or "enumerate".
    """
    half = band_count // 2
    taken = set(neighbor_masks)
    pref = _band_preference(band_count, counts, rng)
    chosen = pref[:half]
    mask = mask_from_colors(chosen)
    if mask not in taken:
        return mask, "greedy"
    outs = list(reversed(chosen))
    ins = pref[half:]
    cur = set(chosen)
    for k in range(min(len(outs), len(ins))):
        cur.discard(outs[k])
        cur.add(ins[k])
        mask = mask_from_colors(cur)
        if mask not in taken:
            return mask, "swap"
    for combo in combinations(pref, half):
        mask = mask_from_colors(combo)
        if mask not in taken:
            return mask, "enumerate"
    raise RuntimeError(
        "no feasible band subset exists; the band count violates the protocol guarantee"
    )


def _tally(fallbacks: tuple[int, int], path: str) -> tuple[int, int]:
    swaps, enumerations = fallbacks
    return swaps + (path == "swap"), enumerations + (path == "enumerate")


class _BandsOf(dict):
    """The bands of each mask looked up, each worked out on its first lookup."""

    def __missing__(self, mask: int) -> tuple[int, ...]:
        bands = self[mask] = colors_from_mask(mask)
        return bands


def _occurrence_counts(band_count: int, masks: Iterable[int], bands_of: _BandsOf) -> list[int]:
    counts = [0] * band_count
    for m in masks:
        for b in bands_of[m]:
            counts[b] += 1
    return counts


def allocate_subbands(
    g: ConnectivityGraph,
    band_count: int,
    *,
    seed: int | None = None,
    first_node: int | None = None,
) -> SpectrumAllocation:
    """Run the distributed allocation over a seed-randomized sequential order.

    With seed=None the run is fully deterministic: the lowest node id seeds,
    eligible nodes are processed in ascending id order, and band ties break
    by ascending index.  A seeded run draws each next node uniformly from
    the eligible ones in ascending id order.  Raises InsufficientBandsError
    when band_count is below min_subband_count(max_degree + 1), and
    NotConnectedError when some node cannot be reached from the first.

    A selection reads its settled neighbors' masks from a list by internal
    index along the dense adjacency, and each distinct mask's bands are
    worked out once per call; the link bands come from assign_link_colors'
    single pass.  A seeded run draws, in this order, the first node (unless
    given), its set, and then per selection the next node and its band ties.
    """
    need = min_subband_count(g.max_degree() + 1)
    if band_count < need:
        raise InsufficientBandsError(
            f"{band_count} bands < {need} required for max degree {g.max_degree()}"
        )
    if band_count > 64:
        raise ValueError("band counts above 64 are not supported")
    rng = random.Random(seed) if seed is not None else None
    if first_node is None:
        first = g.nodes[0] if rng is None else rng.choice(g.nodes)
    else:
        if first_node not in g:
            raise ValueError(f"unknown first node {first_node}")
        first = first_node
    half = band_count // 2
    outgoing: dict[int, int] = {}
    if rng is None:
        outgoing[first] = (1 << half) - 1
    else:
        outgoing[first] = mask_from_colors(rng.sample(range(band_count), half))
    nodes, adj = g.nodes, g._adj
    # the frontier holds, ascending, the internal indices of the unsettled
    # nodes next to a settled one; `seen` marks settled and frontier nodes,
    # and `settled` holds the settled masks by internal index, None elsewhere
    frontier: list[int] = []
    seen = [False] * g.n
    settled: list[int | None] = [None] * g.n
    bands_of = _BandsOf()
    fallbacks = (0, 0)
    i = g.index(first)
    seen[i] = True
    settled[i] = outgoing[first]
    while True:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                insort(frontier, j)
        if len(outgoing) == g.n:
            break
        if not frontier:
            raise NotConnectedError(
                f"graph has {len(g.components())} components; the protocol settles "
                f"only the {len(outgoing)} nodes reachable from node {first}"
            )
        i = frontier[0] if rng is None else rng.choice(frontier)
        del frontier[bisect_left(frontier, i)]
        done = [m for m in map(settled.__getitem__, adj[i]) if m is not None]
        counts = _occurrence_counts(band_count, done, bands_of)
        settled[i], path = _choose_set(band_count, counts, done, rng)
        outgoing[nodes[i]] = settled[i]
        if path != "greedy":
            fallbacks = _tally(fallbacks, path)
    link_bands = assign_link_colors(g, ColorSetFamily(band_count, outgoing))
    return SpectrumAllocation(band_count, outgoing, link_bands, fallbacks)


def allocation_from_family(g: ConnectivityGraph, family: ColorSetFamily) -> SpectrumAllocation:
    """Allocation induced by any feasible color-set family."""
    return SpectrumAllocation(family.universe_size, dict(family.masks), assign_link_colors(g, family))


def check_allocation(g: ConnectivityGraph, alloc: SpectrumAllocation) -> AllocationCheck:
    """Verify coverage (every link has a band) and the duplexing constraint.

    Only the graph's links count; other `link_bands` keys are ignored.
    Uncovered links come in `g.links` order and clashes sorted by band,
    then node.  One pass over the dense adjacency, which lists each node's
    neighbors in `g.links` order, ORs the transmit and receive masks into
    lists by internal index.
    """
    bands = alloc.link_bands
    coverage = []
    transmit = []
    receive = [0] * g.n
    links = iter(g.links)
    for row in g._adj:
        sent = 0
        # zip takes from `row` first, so it leaves the next row's links
        for j, lk in zip(row, links):
            m = bands.get(lk, 0)
            if not m:
                coverage.append(lk)
            sent |= m
            receive[j] |= m
        transmit.append(sent)
    duplexing = [
        (node, b)
        for node, sent, got in zip(g.nodes, transmit, receive)
        if sent & got
        for b in colors_from_mask(sent & got)
    ]
    duplexing.sort(key=itemgetter(1, 0))
    return AllocationCheck(tuple(coverage), tuple(duplexing))


def apply_topology_change(
    g: ConnectivityGraph,
    alloc: SpectrumAllocation,
    change: Leave | Join,
    *,
    seed: int | None = None,
) -> TopologyResult:
    """Apply a node leave or join, touching no unrelated allocation entry.

    Leaving restricts the allocation to the surviving links; it stays
    feasible and a disconnection is reported, not raised.  Joining runs the
    protocol's selection step for the new node against its already-settled
    neighbors; it requires at most max_degree(old graph) neighbors.

    `g` and `alloc` read as before.  The result shares their rows and band
    maps (see PersistentMap) and writes only the node's row and outgoing
    set, its neighbors' rows and its 2·deg links, so an event on the newest
    graph and allocation costs O(degree) whatever the network's size.  An
    event on older ones, or on a plan's dicts, first copies them once.
    """
    if isinstance(change, Leave):
        if change.node not in g:
            raise ValueError(f"unknown node {change.node}")
        node, neighbors = change.node, g.neighbors(change.node)
        new_g = _without_node(g, node)
        outgoing = PersistentMap.of(alloc.outgoing).updated([(node, DELETE)])
        link_bands = PersistentMap.of(alloc.link_bands).updated(
            entry for u in neighbors for entry in (((node, u), DELETE), ((u, node), DELETE))
        )
        new_alloc = SpectrumAllocation(alloc.band_count, outgoing, link_bands, alloc.fallbacks)
        if new_g is None:
            return TopologyResult(None, new_alloc, len(neighbors) > 1, neighbors)
        isolated = tuple(v for v in neighbors if v not in new_g)
        return TopologyResult(new_g, new_alloc, bool(isolated) or not new_g.connected(), isolated)

    if isinstance(change, Join):
        node, neighbors = change.node, tuple(change.neighbors)
        if node in g:
            raise ValueError(f"node {node} already present")
        if not neighbors:
            raise ValueError("a joining node needs at least one neighbor")
        if len(set(neighbors)) != len(neighbors):
            raise ValueError("duplicate neighbors")
        unknown = [u for u in neighbors if u not in g]
        if unknown:
            raise ValueError(f"unknown neighbors {unknown}")
        if len(neighbors) > g.max_degree():
            raise DegreeBudgetExceededError(
                f"{len(neighbors)} neighbors exceeds the old maximum degree {g.max_degree()}"
            )
        new_g = _with_node(g, node, neighbors)
        if not new_g.connected():
            raise NotConnectedError(f"graph has {len(new_g.components())} components")
        rng = random.Random(seed) if seed is not None else None
        done = [alloc.outgoing[u] for u in neighbors]
        counts = _occurrence_counts(alloc.band_count, done, _BandsOf())
        oc, path = _choose_set(alloc.band_count, counts, done, rng)
        outgoing = PersistentMap.of(alloc.outgoing).updated([(node, oc)])
        link_bands = PersistentMap.of(alloc.link_bands).updated(
            entry for u, m in zip(neighbors, done) for entry in (((node, u), oc & ~m), ((u, node), m & ~oc))
        )
        new_alloc = SpectrumAllocation(
            alloc.band_count, outgoing, link_bands, _tally(alloc.fallbacks, path)
        )
        return TopologyResult(new_g, new_alloc, False)

    raise TypeError(f"unsupported change {change!r}")
