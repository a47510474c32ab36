"""Sub-band set assignment theory.

Every node gets a set of outgoing sub-bands OC_i; link (i, j) may only use
OC_i \\ OC_j so that j never receives on a band it transmits on.  A family
of sets is feasible when

  (i)  OC_i \\ OC_j is nonempty for every link (i, j), and
  (ii) the union of OC_i \\ OC_j over neighbors j covers all of OC_i,
       equivalently no color of OC_i lies in every neighbor's set.

Antichain counting gives the fundamental lower bound: with q colors at most
binom(q, floor(q/2)) sets can be pairwise mutually non-containing, so
feasibility for N mutually adjacent nodes needs min_subband_count(N) colors.

Sets are bit masks (int) over colors 0..universe_size-1; universe sizes are
capped at 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .graph import ConnectivityGraph

MAX_UNIVERSE = 64


class InfeasibleFamilyError(ValueError):
    """The color-set family violates a feasibility condition."""


class TooLargeError(ValueError):
    """Instance exceeds the size cap of an exhaustive routine."""


def mask_from_colors(colors: Iterable[int]) -> int:
    m = 0
    for c in colors:
        m |= 1 << c
    return m


def colors_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    c = 0
    while mask:
        if mask & 1:
            out.append(c)
        mask >>= 1
        c += 1
    return tuple(out)


def min_subband_count(n: int) -> int:
    """Smallest q >= 1 with binom(q, floor(q/2)) >= n."""
    if n < 1:
        raise ValueError("need at least one mutually adjacent node")
    q = 1
    while math.comb(q, q // 2) < n:
        q += 1
    return q


@dataclass(frozen=True)
class ColorSetFamily:
    """Per-node color sets over a fixed universe, stored as bit masks."""

    universe_size: int
    masks: dict[int, int]

    @classmethod
    def from_sets(cls, universe_size: int, sets: Mapping[int, Iterable[int]]) -> "ColorSetFamily":
        masks = {node: mask_from_colors(cs) for node, cs in sets.items()}
        fam = cls(universe_size, masks)
        fam.validate()
        return fam

    def validate(self) -> None:
        if not 1 <= self.universe_size <= MAX_UNIVERSE:
            raise ValueError(f"universe size must be in 1..{MAX_UNIVERSE}")
        full = (1 << self.universe_size) - 1
        for node, m in self.masks.items():
            if m & ~full:
                raise ValueError(f"node {node} uses colors outside the universe")


@dataclass(frozen=True)
class FamilyCheck:
    """Feasibility report for a color-set family on a graph."""

    feasible: bool
    missing_difference: tuple[tuple[int, int], ...]  # links with OC_i \ OC_j empty
    uncovered: dict[int, tuple[int, ...]]  # node -> colors of OC_i in every neighbor set


def _checked_bands(g: ConnectivityGraph, family: ColorSetFamily) -> tuple[FamilyCheck, list[int]]:
    """The feasibility report and OC_i \\ OC_j for every link, in `g.links` order.

    One pass over the dense adjacency, which lists each node's neighbors in
    `g.links` order, with the masks in a list by internal index: a row's
    differences give condition (i) and its running AND condition (ii).
    """
    family.validate()
    nodes = g.nodes
    masks = list(map(family.masks.get, nodes))
    if None in masks:
        raise ValueError(f"family does not cover node {nodes[masks.index(None)]}")
    bands: list[int] = []
    uncovered = {}
    for node, m, row in zip(nodes, masks, g._adj):
        common = m
        for j in row:
            other = masks[j]
            bands.append(m & ~other)
            common &= other
        if common:
            uncovered[node] = colors_from_mask(common)
    missing = () if all(bands) else tuple(lk for lk, b in zip(g.links, bands) if not b)
    check = FamilyCheck(feasible=not missing and not uncovered, missing_difference=missing, uncovered=uncovered)
    return check, bands


def check_color_sets(g: ConnectivityGraph, family: ColorSetFamily) -> FamilyCheck:
    """Check feasibility conditions (i) and (ii) and report every violation.

    Violations of (i) come in `g.links` order and uncovered nodes in
    `g.nodes` order; a ValueError names the first node of `g.nodes` that
    the family leaves out.  One pass over the dense adjacency.
    """
    return _checked_bands(g, family)[0]


def assign_link_colors(g: ConnectivityGraph, family: ColorSetFamily) -> dict[tuple[int, int], int]:
    """Color every directed link with OC_i \\ OC_j, as a mask per link, in
    `g.links` order.

    Raises InfeasibleFamilyError when the family fails either feasibility
    condition; the masks come from the same pass over the dense adjacency
    as the check.
    """
    check, bands = _checked_bands(g, family)
    if not check.feasible:
        raise InfeasibleFamilyError(
            f"family infeasible: empty differences {check.missing_difference}, "
            f"uncovered {check.uncovered}"
        )
    return dict(zip(g.links, bands))


def _repair_condition_two(g: ConnectivityGraph, masks: dict[int, int]) -> dict[int, int]:
    """Drop colors held by every neighbor, repeated to a fixpoint.

    Preserves condition (i) whenever it held: colors witnessing a difference
    are absent from some neighbor, hence never dropped.
    """
    masks = dict(masks)
    changed = True
    while changed:
        changed = False
        for i in g.nodes:
            common = masks[i]
            for j in g.neighbors(i):
                common &= masks[j]
            if common:
                masks[i] &= ~common
                changed = True
    return masks


def family_from_coloring(
    g: ConnectivityGraph,
    coloring: Sequence[int],
    universe_size: int | None = None,
) -> ColorSetFamily:
    """Feasible family from a proper node coloring.

    Each color class receives a distinct floor(q/2)-subset of a q-color
    universe, q defaulting to min_subband_count(#classes); the condition-(ii)
    repair then prunes redundant colors.  Always succeeds for a proper
    coloring.
    """
    classes = max(coloring) + 1
    q = min_subband_count(classes) if universe_size is None else universe_size
    if q < min_subband_count(classes):
        raise ValueError(f"{q} colors cannot support {classes} classes")
    subsets = []
    for combo in combinations(range(q), q // 2):
        subsets.append(mask_from_colors(combo))
        if len(subsets) == classes:
            break
    masks = {node: subsets[coloring[g.index(node)]] for node in g.nodes}
    for i, j in g.links:
        if masks[i] & ~masks[j] == 0:
            raise ValueError("coloring is not proper")
    repaired = _repair_condition_two(g, masks)
    fam = ColorSetFamily(q, repaired)
    assert check_color_sets(g, fam).feasible
    return fam


BRUTE_FORCE_MAX_NODES = 6


def brute_force_min_colors(g: ConnectivityGraph) -> int:
    """Exhaustive minimum universe size admitting a feasible family.

    Enumerates nonempty per-node masks in canonical first-use color order
    (color permutations explored once), prunes on condition (i) against
    assigned neighbors, and applies the condition-(ii) repair at the leaves.
    Exact but exponential; rejects graphs above BRUTE_FORCE_MAX_NODES.
    """
    if g.n > BRUTE_FORCE_MAX_NODES:
        raise TooLargeError(f"{g.n} nodes exceeds the exhaustive cap of {BRUTE_FORCE_MAX_NODES}")
    n = g.n
    adj = [g.adjacency(i) for i in range(n)]
    cap = min_subband_count(g.max_degree() + 1)

    def feasible_with(q: int) -> bool:
        assigned = [0] * n

        def leaf_ok() -> bool:
            masks = {g.nodes[i]: assigned[i] for i in range(n)}
            repaired = _repair_condition_two(g, masks)
            fam = ColorSetFamily(q, repaired)
            return check_color_sets(g, fam).feasible

        def extend(v: int, used: int) -> bool:
            if v == n:
                return leaf_ok()
            for old_part in range(1 << used):
                remaining = q - used
                for fresh in range(remaining + 1):
                    mask = old_part | (((1 << fresh) - 1) << used)
                    if mask == 0:
                        continue
                    ok = True
                    for u in adj[v]:
                        if u < v:
                            if assigned[u] & ~mask == 0 or mask & ~assigned[u] == 0:
                                ok = False
                                break
                    if ok:
                        assigned[v] = mask
                        if extend(v + 1, used + fresh):
                            return True
                        assigned[v] = 0
            return False

        return extend(0, 0)

    for q in range(1, cap + 1):
        if feasible_with(q):
            return q
    raise RuntimeError("no feasible family within the guaranteed bound")
