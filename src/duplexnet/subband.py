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
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Sequence

from .coloring import (
    ColorSetFamily,
    assign_link_colors,
    colors_from_mask,
    mask_from_colors,
    min_subband_count,
)
from .graph import ConnectivityGraph, NotConnectedError, _with_node, _without_node


class InsufficientBandsError(ValueError):
    """Band count below the guaranteed-feasible threshold."""


class DegreeBudgetExceededError(ValueError):
    """A joining node asked for more neighbors than the old maximum degree."""


@dataclass(frozen=True)
class SpectrumAllocation:
    """Outgoing band sets per node and band masks per directed link."""

    band_count: int
    outgoing: dict[int, int]
    link_bands: dict[tuple[int, int], int]
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
    components: tuple[frozenset[int], ...]


def _band_preference(
    band_count: int, counts: Sequence[int], rng: random.Random | None
) -> list[int]:
    """Bands by ascending occurrence count; ties by index, or shuffled when seeded."""
    tie = list(range(band_count))
    if rng is not None:
        rng.shuffle(tie)
    return sorted(range(band_count), key=lambda b: (counts[b], tie[b]))


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


def _occurrence_counts(band_count: int, masks: Iterable[int]) -> list[int]:
    counts = [0] * band_count
    for m in masks:
        for b in colors_from_mask(m):
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
    nodes = g.nodes
    # the frontier holds, ascending, the internal indices of the unsettled
    # nodes next to a settled one; `seen` marks settled and frontier nodes
    frontier: list[int] = []
    seen = [False] * g.n
    fallbacks = (0, 0)
    i = g.index(first)
    seen[i] = True
    while True:
        for j in g.adjacency(i):
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
        done = [outgoing[nodes[j]] for j in g.adjacency(i) if nodes[j] in outgoing]
        counts = _occurrence_counts(band_count, done)
        outgoing[nodes[i]], path = _choose_set(band_count, counts, done, rng)
        fallbacks = _tally(fallbacks, path)
    link_bands = assign_link_colors(g, ColorSetFamily(band_count, outgoing))
    return SpectrumAllocation(band_count, outgoing, link_bands, fallbacks)


def allocation_from_family(g: ConnectivityGraph, family: ColorSetFamily) -> SpectrumAllocation:
    """Allocation induced by any feasible color-set family."""
    return SpectrumAllocation(family.universe_size, dict(family.masks), assign_link_colors(g, family))


def check_allocation(g: ConnectivityGraph, alloc: SpectrumAllocation) -> AllocationCheck:
    """Verify coverage (every link has a band) and the duplexing constraint.

    Only the graph's links count; other `link_bands` keys are ignored.
    """
    bands = alloc.link_bands
    coverage = []
    transmit = dict.fromkeys(g.nodes, 0)
    receive = dict.fromkeys(g.nodes, 0)
    for lk in g.links:
        m = bands.get(lk, 0)
        if not m:
            coverage.append(lk)
        i, j = lk
        transmit[i] |= m
        receive[j] |= m
    duplexing = []
    for node, m in transmit.items():
        for b in colors_from_mask(m & receive[node]):
            duplexing.append((node, b))
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
    """
    if isinstance(change, Leave):
        if change.node not in g:
            raise ValueError(f"unknown node {change.node}")
        node, neighbors = change.node, g.neighbors(change.node)
        new_g = _without_node(g, node)
        # delete in place; dict.copy, unlike dict(), still clones the table
        # of a dict that has had a few deletions
        outgoing = alloc.outgoing.copy()
        del outgoing[node]
        link_bands = alloc.link_bands.copy()
        for u in neighbors:
            del link_bands[(node, u)], link_bands[(u, node)]
        new_alloc = SpectrumAllocation(alloc.band_count, outgoing, link_bands, alloc.fallbacks)
        if new_g is None:
            comps = tuple(frozenset((v,)) for v in g.nodes if v != node)
            return TopologyResult(None, new_alloc, len(comps) > 1, comps)
        comps = new_g.components()
        comps += [frozenset((v,)) for v in neighbors if v not in new_g]
        return TopologyResult(new_g, new_alloc, len(comps) > 1, tuple(comps))

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
        rng = random.Random(seed) if seed is not None else None
        done = [alloc.outgoing[u] for u in neighbors]
        counts = _occurrence_counts(alloc.band_count, done)
        oc, path = _choose_set(alloc.band_count, counts, done, rng)
        outgoing = alloc.outgoing.copy()
        outgoing[node] = oc
        link_bands = alloc.link_bands.copy()
        for u in neighbors:
            link_bands[(node, u)] = oc & ~alloc.outgoing[u]
            link_bands[(u, node)] = alloc.outgoing[u] & ~oc
        new_g = _with_node(g, node, neighbors)
        comps = new_g.components()
        if len(comps) > 1:
            raise NotConnectedError(f"graph has {len(comps)} components")
        new_alloc = SpectrumAllocation(
            alloc.band_count, outgoing, link_bands, _tally(alloc.fallbacks, path)
        )
        return TopologyResult(new_g, new_alloc, False, tuple(comps))

    raise TypeError(f"unsupported change {change!r}")
