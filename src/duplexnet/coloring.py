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


class MatchingNotFoundError(RuntimeError):
    """A layer matching guaranteed to exist could not be found (a bug)."""


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
class LinkColoring:
    """Per-link color masks (bands each directed link may use)."""

    universe_size: int
    masks: dict[tuple[int, int], int]


@dataclass(frozen=True)
class FamilyCheck:
    """Feasibility report for a color-set family on a graph."""

    feasible: bool
    missing_difference: tuple[tuple[int, int], ...]  # links with OC_i \ OC_j empty
    uncovered: dict[int, tuple[int, ...]]  # node -> colors of OC_i in every neighbor set


def check_color_sets(g: ConnectivityGraph, family: ColorSetFamily) -> FamilyCheck:
    """Check feasibility conditions (i) and (ii) and report every violation."""
    family.validate()
    for node in g.nodes:
        if node not in family.masks:
            raise ValueError(f"family does not cover node {node}")
    missing = []
    uncovered = {}
    for i, j in g.links:
        if family.masks[i] & ~family.masks[j] == 0:
            missing.append((i, j))
    for i in g.nodes:
        common = family.masks[i]
        for j in g.neighbors(i):
            common &= family.masks[j]
        if common:
            uncovered[i] = colors_from_mask(common)
    return FamilyCheck(
        feasible=not missing and not uncovered,
        missing_difference=tuple(missing),
        uncovered=uncovered,
    )


def assign_link_colors(g: ConnectivityGraph, family: ColorSetFamily) -> LinkColoring:
    """Color every directed link with OC_i \\ OC_j.

    Raises InfeasibleFamilyError when the family fails either feasibility
    condition.
    """
    check = check_color_sets(g, family)
    if not check.feasible:
        raise InfeasibleFamilyError(
            f"family infeasible: empty differences {check.missing_difference}, "
            f"uncovered {check.uncovered}"
        )
    masks = {(i, j): family.masks[i] & ~family.masks[j] for i, j in g.links}
    return LinkColoring(family.universe_size, masks)


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


def _match_layer(values: list[int], universe_size: int, grow: bool) -> dict[int, int]:
    """Injectively map each distinct mask to a superset (grow) or subset one
    size away.  Existence is guaranteed inside the central layers; a failure
    raises MatchingNotFoundError.
    """
    candidates: list[list[int]] = []
    index: dict[int, int] = {}
    by_index: list[int] = []
    for m in values:
        opts = []
        if grow:
            for c in range(universe_size):
                if not m & (1 << c):
                    opts.append(m | (1 << c))
        else:
            for c in colors_from_mask(m):
                opts.append(m & ~(1 << c))
        candidates.append(opts)
        for o in opts:
            if o not in index:
                index[o] = len(index)
                by_index.append(o)
    matched_of: list[int] = [-1] * len(index)

    def augment(v: int, seen: list[bool]) -> bool:
        for o in candidates[v]:
            k = index[o]
            if seen[k]:
                continue
            seen[k] = True
            if matched_of[k] < 0 or augment(matched_of[k], seen):
                matched_of[k] = v
                return True
        return False

    for v in range(len(values)):
        if not augment(v, [False] * len(index)):
            raise MatchingNotFoundError(
                f"no complete layer matching for {len(values)} sets over {universe_size} colors"
            )
    return {values[v]: by_index[k] for k, v in enumerate(matched_of) if v >= 0}


def equalize_family(
    masks: Sequence[int],
    universe_size: int,
    links: Iterable[tuple[int, int]],
) -> list[int]:
    """Equalize all set cardinalities to floor(universe_size/2).

    masks is node-indexed; links are index pairs that must keep mutual
    non-containment.  Each round replaces every set of extreme cardinality
    by a matched set one step closer to the central layer, keeping equal
    sets equal and distinct sets distinct, and never leaving the universe.
    """
    links = list(links)
    out = list(masks)
    half = universe_size // 2
    for a, b in links:
        if out[a] & ~out[b] == 0 or out[b] & ~out[a] == 0:
            raise ValueError(f"input sets at link ({a}, {b}) are not mutually non-containing")
    while True:
        sizes = [m.bit_count() for m in out]
        lo, hi = min(sizes), max(sizes)
        if lo == hi == half:
            break
        if hi > half:
            layer = sorted({m for m in out if m.bit_count() == hi})
            replace = _match_layer(layer, universe_size, grow=False)
        else:
            layer = sorted({m for m in out if m.bit_count() == lo})
            replace = _match_layer(layer, universe_size, grow=True)
        out = [replace.get(m, m) for m in out]
    for a, b in links:
        assert out[a] & ~out[b] and out[b] & ~out[a]
    return out


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
