"""Set-family link coloring: minimum counts, feasibility checks, repairs.

The minimum sub-band count table is pinned against a direct enumeration
of half-size subsets, and the exhaustive link-color search is checked on
every graph family small enough to afford it.
"""

from itertools import combinations

import numpy as np
import pytest

from duplexnet.coloring import (
    ColorSetFamily,
    InfeasibleFamilyError,
    TooLargeError,
    assign_link_colors,
    brute_force_min_colors,
    check_color_sets,
    colors_from_mask,
    family_from_coloring,
    mask_from_colors,
    min_subband_count,
)
from duplexnet.graph import greedy_coloring

from helpers import complete_graph, cycle_graph, path_graph, random_connected_graph, star_graph


# number of distinct half-size subsets of q bands, counted directly
def half_subset_count(q):
    return sum(1 for _ in combinations(range(q), q // 2))


def test_min_subband_count_table():
    expected = [1, 2, 3, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6]
    assert [min_subband_count(n) for n in range(1, 21)] == expected


def test_min_subband_count_matches_direct_enumeration():
    for n in range(1, 40):
        q = min_subband_count(n)
        assert half_subset_count(q) >= n
        assert q == 1 or half_subset_count(q - 1) < n


def test_min_subband_count_key_values():
    assert min_subband_count(4) == 4
    assert min_subband_count(7) == 5
    assert min_subband_count(20) == 6


def test_min_subband_count_monotone():
    vals = [min_subband_count(n) for n in range(1, 60)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_min_subband_count_rejects_bad_input():
    with pytest.raises(ValueError):
        min_subband_count(0)


def test_mask_roundtrip():
    assert mask_from_colors([0, 3, 5]) == 0x29
    assert colors_from_mask(0x29) == (0, 3, 5)
    rng = np.random.default_rng(41)
    for trial in range(50):
        u = int(rng.integers(1, 64))
        k = int(rng.integers(0, u + 1))
        colors = sorted(int(c) for c in rng.choice(u, size=k, replace=False))
        assert list(colors_from_mask(mask_from_colors(colors))) == colors


def test_family_validation():
    with pytest.raises(ValueError):
        ColorSetFamily.from_sets(0, {})
    with pytest.raises(ValueError):
        ColorSetFamily.from_sets(65, {})
    with pytest.raises(ValueError, match="outside the universe"):
        ColorSetFamily.from_sets(2, {0: [0, 2]})


def test_check_color_sets_feasible_family():
    g = path_graph(3)
    fam = family_from_coloring(g, [0, 1, 0])
    assert fam.universe_size == 2
    assert fam.masks == {0: 0b01, 1: 0b10, 2: 0b01}
    chk = check_color_sets(g, fam)
    assert chk.feasible
    assert chk.missing_difference == ()
    assert chk.uncovered == {}


def test_check_color_sets_containment_violation():
    # OC_0 inside OC_1 leaves link (0, 1) with no private color
    g = path_graph(2)
    fam = ColorSetFamily.from_sets(2, {0: [0], 1: [0, 1]})
    chk = check_color_sets(g, fam)
    assert not chk.feasible
    assert (0, 1) in chk.missing_difference


def test_check_color_sets_cover_violation():
    # color 2 sits in every neighbor set of every node, so no node can
    # ever receive on it: condition (ii) fails everywhere
    g = path_graph(3)
    fam = ColorSetFamily.from_sets(3, {0: [0, 2], 1: [1, 2], 2: [0, 2]})
    chk = check_color_sets(g, fam)
    assert not chk.feasible
    assert chk.missing_difference == ()
    assert chk.uncovered == {0: (2,), 1: (2,), 2: (2,)}


def test_family_from_coloring_rejects_improper():
    g = path_graph(3)
    with pytest.raises(ValueError, match="not proper"):
        family_from_coloring(g, [0, 0, 1])


def test_family_from_coloring_rejects_small_universe():
    g = path_graph(3)
    with pytest.raises(ValueError, match="cannot support"):
        family_from_coloring(g, [0, 1, 0], universe_size=1)


def test_family_from_coloring_feasible_on_random_graphs():
    rng = np.random.default_rng(42)
    for trial in range(25):
        g = random_connected_graph(rng)
        col = greedy_coloring(g)
        fam = family_from_coloring(g, col)
        assert fam.universe_size == min_subband_count(max(col) + 1)
        chk = check_color_sets(g, fam)
        assert chk.feasible, f"trial {trial}: {chk}"
        # the post-assignment repair may shrink masks inside a color class,
        # but adjacent nodes must still differ in both directions
        for i, j in g.links:
            assert fam.masks[i] & ~fam.masks[j], f"trial {trial}: {i}->{j}"


def test_assign_link_colors_on_path():
    g = path_graph(3)
    fam = family_from_coloring(g, [0, 1, 0])
    assert assign_link_colors(g, fam) == {(0, 1): 0b01, (1, 0): 0b10, (1, 2): 0b10, (2, 1): 0b01}


def test_assign_link_colors_properties():
    rng = np.random.default_rng(43)
    for trial in range(20):
        g = random_connected_graph(rng)
        fam = family_from_coloring(g, greedy_coloring(g))
        lc = assign_link_colors(g, fam)
        for (i, j), mask in lc.items():
            assert mask == fam.masks[i] & ~fam.masks[j]
            assert mask != 0
            assert not mask & fam.masks[j], "colors must avoid the head set"
        # interfering links (one's receiver is the other's transmitter)
        # get fully disjoint color sets
        for l1, m1 in lc.items():
            for l2, m2 in lc.items():
                if l1 != l2 and (l1[1] == l2[0] or l1[0] == l2[1]):
                    assert m1 & m2 == 0, f"trial {trial}: {l1} vs {l2}"


def test_assign_link_colors_infeasible_family():
    g = path_graph(3)
    fam = ColorSetFamily.from_sets(3, {0: [0, 2], 1: [1, 2], 2: [0, 2]})
    with pytest.raises(InfeasibleFamilyError):
        assign_link_colors(g, fam)


def test_brute_force_min_colors_known_values():
    assert brute_force_min_colors(complete_graph(2)) == 2
    assert brute_force_min_colors(path_graph(3)) == 2
    assert brute_force_min_colors(complete_graph(4)) == 4
    assert brute_force_min_colors(cycle_graph(5)) == 3
    assert brute_force_min_colors(star_graph(4)) == 2


def test_brute_force_min_colors_size_cap():
    with pytest.raises(TooLargeError):
        brute_force_min_colors(path_graph(7))
