"""Scenario model: cost derivatives, curvature scan, flows, validation.

The five analytic derivatives of the congestion cost, as the kernels
compute them, are checked two ways: once against hand-derived closed
forms at a point chosen to make them rational multiples of e, and once
against symbolic differentiation at random interior points.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from duplexnet import kernels
from duplexnet.scenario import (
    CAPACITY_SPAN,
    FAMILIES,
    FLOW_FRACTION_MAX,
    ControlState,
    CostParams,
    CycleDetectedError,
    NetworkScenario,
    Session,
    Utility,
    check_m_psd,
    derive,
    evaluate_flows,
    evaluate_physical,
    total_cost,
    uniform_state,
    validate_state,
)
from duplexnet.subband import allocate_subbands

from helpers import (
    fan_scenario,
    grid_scenario,
    hub_scenario,
    line3_scenario,
    path_graph,
    random_interior_state,
    random_scenario,
    square_scenario,
)


def test_utility_validation():
    with pytest.raises(ValueError, match="kind"):
        Utility(kind="quadratic")
    with pytest.raises(ValueError, match="weight"):
        Utility(weight=0.0)
    assert Utility("linear", 2.0).weight == 2.0


@pytest.mark.parametrize("weight", [math.nan, math.inf])
def test_utility_weight_must_be_finite(weight):
    with pytest.raises(ValueError, match="weight"):
        Utility("log", weight)


def test_utility_overflow_cost_forms():
    # rejecting r of demand d forgoes utility between rates d - r and d:
    # log gives w * (ln(1 + d) - ln(1 + d - r)), linear gives w * r
    log = Utility("log", 2.0)
    lin = Utility("linear", 0.5)
    d, r = 0.8, 0.3
    assert log.overflow_cost(r, d) == pytest.approx(2.0 * (math.log(1.8) - math.log(1.5)))
    assert lin.overflow_cost(r, d) == pytest.approx(0.5 * 0.3)
    assert log.overflow_cost(0.0, d) == 0.0
    h = 1e-7
    fd = (log.overflow_cost(r + h, d) - log.overflow_cost(r - h, d)) / (2 * h)
    assert log.overflow_derivative(r, d) == pytest.approx(fd, rel=1e-6)


def test_session_validation():
    with pytest.raises(ValueError, match="demand"):
        Session(0, 1, 0.0)
    with pytest.raises(ValueError, match="origin equals destination"):
        Session(0, 0, 0.5)


@pytest.mark.parametrize("demand", [math.nan, math.inf])
def test_session_demand_must_be_finite(demand):
    with pytest.raises(ValueError, match="demand"):
        Session(0, 2, demand)


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(bandwidth=-1.0)
    cost = CostParams(bandwidth=2.0, gain_factor=10.0)
    cap = kernels.capacity(np.array([0.0, 1.0]), cost.bandwidth, cost.gain_factor)
    assert cap[0] == -math.inf
    assert cap[1] == pytest.approx(2.0 * math.log(10.0))


@pytest.mark.parametrize(
    "bandwidth, gain_factor", [(math.nan, 50.0), (1.0, math.nan), (math.inf, 50.0), (1.0, math.inf)]
)
def test_cost_params_must_be_finite(bandwidth, gain_factor):
    with pytest.raises(ValueError, match="finite"):
        CostParams(bandwidth, gain_factor)


def _derivatives(x, f, cost):
    """The five kernel derivatives (d_x, d_f, d_xx, d_ff, d_xf) of F/(C - F)."""
    r, k = cost.bandwidth, cost.gain_factor
    return (*kernels.link_cost_derivatives(x, f, r, k), kernels.link_cost_cross(x, f, r, k))


def test_cost_derivatives_closed_form_point():
    # at x = e, f = 1, R = 1, K = e the capacity is 2 and every derivative
    # reduces to a short rational expression in e
    e = math.e
    d_x, d_f, d_xx, d_ff, d_xf = _derivatives(np.array([e]), np.array([1.0]), CostParams(1.0, e))
    assert d_x[0] == pytest.approx(-1.0 / e, rel=1e-14)
    assert d_f[0] == pytest.approx(2.0, rel=1e-14)
    assert d_xx[0] == pytest.approx(3.0 / e**2, rel=1e-14)
    assert d_ff[0] == pytest.approx(4.0, rel=1e-14)
    assert d_xf[0] == pytest.approx(-3.0 / e, rel=1e-14)


def test_cost_derivatives_against_sympy():
    x_s, f_s, r_s, k_s = sp.symbols("x f r k", positive=True)
    expr = f_s / (r_s * sp.log(k_s * x_s) - f_s)
    fns = {
        "d_x": sp.lambdify((x_s, f_s, r_s, k_s), sp.diff(expr, x_s), "math"),
        "d_f": sp.lambdify((x_s, f_s, r_s, k_s), sp.diff(expr, f_s), "math"),
        "d_xx": sp.lambdify((x_s, f_s, r_s, k_s), sp.diff(expr, x_s, 2), "math"),
        "d_ff": sp.lambdify((x_s, f_s, r_s, k_s), sp.diff(expr, f_s, 2), "math"),
        "d_xf": sp.lambdify((x_s, f_s, r_s, k_s), sp.diff(expr, x_s, f_s), "math"),
    }
    # the 30 trials' interior points in one array call; each point has its
    # own r and k, which line up because every point passes the kernels'
    # masks (C > 0, 0 < F < C)
    rng = np.random.default_rng(31)
    pts = []
    for _ in range(30):
        r = float(rng.uniform(0.5, 2.0))
        k = float(rng.uniform(5.0, 100.0))
        x = float(rng.uniform(0.5, 20.0))
        cap = r * math.log(k * x)
        if cap <= 0.05:
            continue
        pts.append((x, float(rng.uniform(0.05, 0.9)) * cap, r, k))
    x, f, r, k = (np.array(col) for col in zip(*pts))
    got = dict(zip(fns, (*kernels.link_cost_derivatives(x, f, r, k), kernels.link_cost_cross(x, f, r, k))))
    for e, pt in enumerate(pts):
        for name in fns:
            ref = fns[name](*pt)
            err = abs(got[name][e] - ref) / max(abs(ref), 1e-12)
            assert err <= 1e-10, f"point {e} {name}: {err:.3e}"


def test_cost_derivatives_domain_guard():
    # at capacity (f == C) and with no signal (x = 0) the barrier blows up:
    # the flow marginal is infinite and the undefined cross term reads 0
    x, f = np.array([math.e, 0.0]), np.array([2.0, 0.1])
    _, d_f, _, _, d_xf = _derivatives(x, f, CostParams(bandwidth=1.0, gain_factor=math.e))
    assert list(d_f) == [math.inf, math.inf]
    assert list(d_xf) == [0.0, 0.0]


def test_curvature_matrix_matches_hessian():
    """The PSD scan works on the Hessian of (u, f) -> D(e^u, f)."""

    def g(u, f, cost):
        c = cost.bandwidth * math.log(cost.gain_factor * math.exp(u))
        return f / (c - f)

    rng = np.random.default_rng(32)
    h = 1e-5
    for trial in range(15):
        cost = CostParams(bandwidth=float(rng.uniform(0.5, 2.0)), gain_factor=float(rng.uniform(5, 80)))
        x = float(rng.uniform(0.5, 10.0))
        cap = cost.bandwidth * math.log(cost.gain_factor * x)
        if cap <= 0.1:
            continue
        f = float(rng.uniform(0.1, 0.8)) * cap
        d_x, _, d_xx, d_ff, d_xf = (float(d[0]) for d in _derivatives(np.array([x]), np.array([f]), cost))
        u = math.log(x)
        a_fd = (g(u + h, f, cost) - 2 * g(u, f, cost) + g(u - h, f, cost)) / h**2
        c_fd = (g(u, f + h, cost) - 2 * g(u, f, cost) + g(u, f - h, cost)) / h**2
        b_fd = (
            g(u + h, f + h, cost) - g(u + h, f - h, cost) - g(u - h, f + h, cost) + g(u - h, f - h, cost)
        ) / (4 * h**2)
        assert d_xx * x * x + d_x * x == pytest.approx(a_fd, rel=1e-3, abs=1e-6)
        assert d_xf * x == pytest.approx(b_fd, rel=1e-3, abs=1e-6)
        assert d_ff == pytest.approx(c_fd, rel=1e-3, abs=1e-6)


def test_default_cost_curvature_is_indefinite():
    # the congestion cost family fails the PSD scan on its whole domain;
    # this is a real property of the cost, not a tolerance artifact
    rep = check_m_psd()
    assert not rep.psd
    assert rep.min_eigenvalue < -1.0
    assert "NOT PSD" in str(rep)


def test_squared_slack_cost_is_psd():
    # (f - ln x)^2 composed with u = ln x is jointly convex, so its scan
    # passes; this pins the checker itself against a known-good family
    def derivs(x, f):
        r = f - np.log(x)
        return (-2 * r / x, 2 * r, (2 + 2 * r) / x / x, 2.0, -2.0 / x)

    rep = check_m_psd(derivs=derivs)
    assert rep.psd
    assert rep.min_eigenvalue >= -1e-10


def test_curvature_scan_matches_a_point_by_point_scan():
    # the one array evaluation finds the same least eigenvalue, at the same
    # first point reaching it, as visiting the grid one point at a time
    for cost in (CostParams(), CostParams(bandwidth=0.7, gain_factor=80.0)):
        r, k = cost.bandwidth, cost.gain_factor
        best, at = math.inf, None
        for cap in np.linspace(CAPACITY_SPAN[0] * r, CAPACITY_SPAN[1] * r, 13):
            x = np.exp(cap / r) / k
            for frac in np.linspace(0.0, FLOW_FRACTION_MAX, 13):
                f = frac * cap
                d_x, _, d_xx, d_ff, d_xf = (float(d[0]) for d in _derivatives(np.array([x]), np.array([f]), cost))
                a, b, c = d_xx * x * x + d_x * x, d_xf * x, d_ff
                lo = (a + c) / 2.0 - np.hypot((a - c) / 2.0, b)
                if lo < best:
                    best, at = lo, (x, f)
        rep = check_m_psd(cost, grid=13)
        assert (rep.min_eigenvalue, rep.at_sinr, rep.at_flow, rep.points) == (best, *at, 169)


def test_curvature_scan_rejects_an_empty_grid():
    # no scanned point must not read as PSD
    for grid in (0, -3):
        with pytest.raises(ValueError, match="grid"):
            check_m_psd(grid=grid)
    assert check_m_psd(grid=1).points == 1


def test_saddle_cost_fails_psd():
    # D = -x * f has Hessian [[0, -x], [-x, 0]]: a definite saddle
    rep = check_m_psd(derivs=lambda x, f: (-f, -x, 0.0, 0.0, -1.0))
    assert not rep.psd
    assert rep.min_eigenvalue < -1.0


def test_scenario_shape_validation():
    g = path_graph(3)
    alloc = allocate_subbands(g, 3)
    base = dict(
        gains=np.full((3, 3, 3), 0.5),
        noise=np.full((3, 3), 1e-3),
        power_budget=np.ones(3),
        sessions=(Session(0, 2, 0.3),),
        cost=CostParams(),
    )
    NetworkScenario(graph=g, allocation=alloc, **base)  # sanity
    bad = dict(base, gains=np.ones((2, 3, 3)))
    with pytest.raises(ValueError, match="gains"):
        NetworkScenario(graph=g, allocation=alloc, **bad)
    bad = dict(base, noise=-np.ones((3, 3)))
    with pytest.raises(ValueError, match="noise"):
        NetworkScenario(graph=g, allocation=alloc, **bad)
    bad = dict(base, power_budget=np.ones(2))
    with pytest.raises(ValueError, match="power_budget"):
        NetworkScenario(graph=g, allocation=alloc, **bad)
    bad = dict(base, sessions=(Session(0, 5, 0.3),))
    with pytest.raises(ValueError, match="not in graph"):
        NetworkScenario(graph=g, allocation=alloc, **bad)


@pytest.mark.parametrize("field", ["gains", "noise", "power_budget"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_scenario_values_must_be_finite(field, value):
    g = path_graph(3)
    arrays = dict(gains=np.full((3, 3, 3), 0.5), noise=np.full((3, 3), 1e-3), power_budget=np.ones(3))
    arrays[field].flat[1] = value
    with pytest.raises(ValueError, match="finite"):
        NetworkScenario(graph=g, allocation=allocate_subbands(g, 3), sessions=(Session(0, 2, 0.3),), **arrays)


def test_layout_invariants():
    rng = np.random.default_rng(33)
    for trial in range(10):
        scen = random_scenario(rng)
        lay = scen.layout
        alloc = scen.allocation
        # every entry is a (link, band) pair the allocation permits
        for e in range(lay.n_entries):
            i, j = lay.links[lay.ent_link[e]]
            assert lay.ent_tx[e] == i and lay.ent_rx[e] == j
            assert lay.ent_band[e] in alloc.bands_of(i, j)
        # rho_mask marks exactly the outgoing bands
        for i in range(lay.n):
            assert set(np.flatnonzero(lay.rho_mask[i])) == set(alloc.outgoing_bands(i))
        # link slices tile the entry range
        seen = []
        for li in range(lay.n_links):
            seen.extend(range(lay.link_slices[li].start, lay.link_slices[li].stop))
        assert sorted(seen) == list(range(lay.n_entries))


def test_uniform_state_is_valid():
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 0.1)
    assert validate_state(line3, st) == []
    assert st.phi_w[0] == pytest.approx(0.1)
    # rho mass sits only on allowed bands and sums to the power setting
    for i in range(line3.layout.n):
        assert st.rho[i].sum() == pytest.approx(0.9)
        assert np.all(st.rho[i][~line3.layout.rho_mask[i]] == 0.0)


def _loop_even_split(scenario, power):
    """rho, eta and mu of the even split, one node, group and link at a
    time: the reference for uniform_state's array form."""
    lay = scenario.layout
    rho = np.zeros((lay.n, lay.band_count))
    for i in range(lay.n):
        bands = np.flatnonzero(lay.rho_mask[i])
        if bands.size:
            rho[i, bands] = power / bands.size
    eta = np.zeros(lay.n_entries)
    for entries in lay.node_band_entries.values():
        eta[entries] = 1.0 / entries.size
    mu = np.zeros(lay.n_entries)
    for sl in lay.link_slices:
        width = sl.stop - sl.start
        if width:
            mu[sl] = 1.0 / width
    return rho, eta, mu


def test_even_split_equals_the_per_group_loops_bit_for_bit():
    rng = np.random.default_rng(75)
    scenarios = [line3_scenario(), hub_scenario(), square_scenario()]
    scenarios += [random_scenario(rng) for _ in range(6)] + [grid_scenario(rng, 4, 2), grid_scenario(rng, 5, 3)]
    for k, scen in enumerate(scenarios):
        for power in (0.0, 0.05, 0.9, 1.0):
            st = uniform_state(scen, power, 0.1)
            for name, want in zip(("rho", "eta", "mu"), _loop_even_split(scen, power)):
                got = getattr(st, name)
                assert got.dtype == want.dtype and got.shape == want.shape, f"scenario {k}, {name}"
                assert got.tobytes() == want.tobytes(), f"scenario {k}, power {power}, {name}"


def test_validate_state_reports_violations():
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 0.1)

    bad = st.copy()
    bad.rho[0, :] = 2.0
    msgs = validate_state(line3, bad)
    assert any("outside the band set" in m for m in msgs)

    bad = st.copy()
    q = line3.allocation.outgoing_bands(0)[0]
    bad.rho[0, q] = 1.5
    assert any("sum" in m for m in validate_state(line3, bad))

    bad = st.copy()
    bad.phi_w[0] = 1.5
    assert validate_state(line3, bad) == ["phi_w outside [0, 1]"]

    bad = st.copy()
    bad.eta[:] = -0.1
    assert any("eta" in m for m in validate_state(line3, bad))


def _violating_states():
    """(label, scenario, state): a 3x3 grid at the even split with one kind
    of constraint violation each, then with all of them at once, and a fan
    of 9 relays whose routing row and power-share group of 8 or more
    coordinates miss 1 by a relative 1e-7."""
    grid = grid_scenario(np.random.default_rng(61), 3, 2)
    lay = grid.layout
    even = uniform_state(grid, 0.9, 0.1)
    groups = [e for e in lay.node_band_entries.values() if e.size > 1]
    links = [np.arange(sl.start, sl.start + 2) for sl in lay.link_slices if sl.stop - sl.start > 1]
    # two nodes, neither a destination, each routing on some of its links
    # and linked to each other
    node, peer = next(
        (i, j)
        for i, j in lay.links
        if len(lay.out_links[i]) > 1 and len(lay.out_links[j]) > 1 and {i, j}.isdisjoint(lay.dest.tolist())
    )
    out_links = list(lay.out_links[node])
    there = lay.links.index((node, peer))
    back = lay.links.index((peer, node))
    idle = next(li for li in out_links if even.phi[0, li] == 0.0)
    used = next(li for li in out_links if even.phi[0, li] > 0.0)
    other = next(i for i in range(lay.n) if i not in (node, peer, *lay.dest.tolist()))
    off = tuple(np.argwhere(~lay.rho_mask)[0])
    # the first band of four other nodes' power rows
    rows = [(i, int(np.flatnonzero(lay.rho_mask[i])[0])) for i in range(lay.n) if i != off[0]][:4]
    # (array, index, value) writes, on distinct groups
    edits = {
        "rho off its bands": [("rho", off, 0.3)],
        "negative rho": [("rho", rows[0], -0.01)],
        "power row above 1": [("rho", rows[1][0], even.rho[rows[1][0]] * 1.5)],
        "eta sum": [("eta", groups[0][0], even.eta[groups[0][0]] + 0.2)],
        "negative eta": [("eta", groups[1][:2], [-0.1, even.eta[groups[1][:2]].sum() + 0.1])],
        "mu sum": [("mu", links[0], 0.7)],
        "negative mu": [("mu", links[1], [-0.2, even.mu[links[1]].sum() + 0.2])],
        "negative phi": [("phi", (0, [idle, used]), [-0.1, even.phi[0, used] + 0.1])],
        "phi_w outside": [("phi_w", slice(None), [-0.1, 1.2])],
        "routes out of its destination": [("phi", (0, lay.out_links[lay.dest[0]][0]), 0.5)],
        "routing row sum": [("phi", (1, list(lay.out_links[other])), even.phi[1, list(lay.out_links[other])] * 0.5)],
        "cycle": [
            ("phi", (1, out_links), 0.0),
            ("phi", (1, there), 1.0),
            ("phi", (1, list(lay.out_links[peer])), 0.0),
            ("phi", (1, back), 1.0),
        ],
        "non-finite": [("rho", rows[2], np.nan)],
    }
    out = []
    for label, writes in [*edits.items(), ("all at once", [w for ws in edits.values() for w in ws])]:
        st = even.copy()
        for name, index, value in writes:
            getattr(st, name)[index] = value
        out.append((label, grid, st))
    fan = fan_scenario(np.random.default_rng(62))
    st = uniform_state(fan, 0.9, 0.1)
    st.phi[0, list(fan.layout.out_links[0])] *= 1.0 + 1e-7
    st.eta[next(e for e in fan.layout.node_band_entries.values() if e.size >= 8)] *= 1.0 - 1e-7
    out.append(("fan, wide rows", fan, st))
    return out


# the messages validate_state gave when it summed each group on its own
VIOLATIONS = {
    "rho off its bands": ["rho[0, band 1] nonzero outside the band set", "node 0 power fractions sum to 1.2 > 1"],
    "negative rho": ["negative rho entry"],
    "power row above 1": ["node 2 power fractions sum to 1.35 > 1"],
    "eta sum": ["eta over node 0 band 0 sums to 1.2 != 1"],
    "negative eta": ["negative eta entry"],
    "mu sum": ["mu over link (0, 1) sums to 1.4 != 1"],
    "negative mu": ["negative mu entry"],
    "negative phi": ["negative phi entry"],
    "phi_w outside": ["phi_w outside [0, 1]"],
    "routes out of its destination": ["session 0 routes out of its destination"],
    "routing row sum": ["session 1 fractions at node 3 sum to 0.5 != 1"],
    "cycle": ["routing cycle in session 1 among nodes [0, 1]"],
    "non-finite": ["non-finite rho entry"],
    "all at once": [
        "non-finite rho entry",
        "rho[0, band 1] nonzero outside the band set",
        "negative rho entry",
        "node 0 power fractions sum to 1.2 > 1",
        "node 2 power fractions sum to 1.35 > 1",
        "eta over node 0 band 0 sums to 1.2 != 1",
        "negative eta entry",
        "mu over link (0, 1) sums to 1.4 != 1",
        "negative mu entry",
        "negative phi entry",
        "phi_w outside [0, 1]",
        "session 0 routes out of its destination",
        "session 1 fractions at node 3 sum to 0.5 != 1",
        "routing cycle in session 1 among nodes [0, 1]",
    ],
    "fan, wide rows": ["eta over node 0 band 2 sums to 1 != 1", "session 0 fractions at node 0 sum to 1 != 1"],
}


def test_validate_state_reports_each_kind_of_violation_in_order():
    states = _violating_states()
    assert [label for label, _, _ in states] == list(VIOLATIONS)
    for label, scen, st in states:
        assert validate_state(scen, st) == VIOLATIONS[label], label


@pytest.mark.parametrize("phi_w", [[0.1, 0.2], []])
def test_validate_state_reports_a_wrong_phi_w_shape(phi_w):
    # line3 has one session, so phi_w holds exactly one entry
    line3 = line3_scenario()
    bad = uniform_state(line3, 0.9, 0.1)
    bad.phi_w = np.array(phi_w)
    assert validate_state(line3, bad) == [f"phi_w shape {(len(phi_w),)} != (1,)"]


@pytest.mark.parametrize("name", ["rho", "eta", "phi", "phi_w", "mu"])
def test_validate_state_reports_non_finite_entries(name):
    # every bound and sum test is false for NaN, so NaN needs its own check
    line3 = line3_scenario()
    bad = uniform_state(line3, 0.9, 0.1)
    getattr(bad, name)[...] = np.nan
    assert f"non-finite {name} entry" in validate_state(line3, bad)


def test_flow_conservation():
    rng = np.random.default_rng(34)
    for trial in range(8):
        scen = random_scenario(rng)
        st = random_interior_state(scen, rng)
        flows = evaluate_flows(scen, st)
        lay = scen.layout
        for w, sess in enumerate(scen.sessions):
            admitted = (1.0 - st.phi_w[w]) * sess.demand
            dest = lay.dest[w]
            assert flows.inflow[w, dest] == pytest.approx(admitted, rel=1e-12)


def test_link_flow_adds_the_sessions_in_order():
    # one addition per session and link, in session order: the same bits
    # as summing a sessions x links matrix of per-session flows over axis 0
    rng = np.random.default_rng(35)
    order_matters = 0
    for trial in range(4):
        scen = grid_scenario(rng, 4, 10)
        lay = scen.layout
        tails = lay.link_ends[0]
        for st in (uniform_state(scen), random_interior_state(scen, rng)):
            flows = evaluate_flows(scen, st)
            per_session = np.where(st.phi > 0.0, flows.inflow[:, tails] * st.phi, 0.0)
            per_session[tails[None, :] == lay.dest[:, None]] = 0.0
            want = per_session.sum(axis=0)
            assert flows.link_flow.tobytes() == want.tobytes(), f"trial {trial}"
            order_matters += not np.array_equal(per_session[::-1].sum(axis=0), want)
    # the draws are ones where adding the sessions in reverse changes bits
    assert order_matters > 0


def test_moved_copies_and_leaves_the_source_untouched():
    # moved writes flat positions: k of a 2-D array is (k // columns, k % columns)
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 0.1)
    bands, links = st.rho.shape[1], st.phi.shape[1]
    w = st.phi.shape[0] - 1
    before = {name: getattr(st, name).copy() for name in ("rho", "eta", "phi", "phi_w", "mu")}
    arrays = {name: getattr(st, name) for name in before}
    moved = st.moved("rho", [(0, 0.25), (np.array([0]), 0.5), (bands + np.arange(bands), 0.0)])
    routed = st.moved("phi", [(w * links + np.array([links - 1, 0]), np.array([0.75, 0.125]))])
    for name, want in before.items():
        # the source keeps its own arrays, unchanged
        assert getattr(st, name) is arrays[name] and np.array_equal(getattr(st, name), want), name
        for copy, array in ((moved, "rho"), (routed, "phi")):
            if name == array:
                # the written array is a fresh copy
                assert not np.shares_memory(getattr(copy, name), arrays[name]), name
            else:
                # the other four are the source's own objects
                assert getattr(copy, name) is arrays[name], name
    want = before["rho"].copy()
    want[0, 0] = 0.5  # the moves apply in order, the later one last
    want[1, :] = 0.0
    assert np.array_equal(moved.rho, want)
    want = before["phi"].copy()
    want[w, [links - 1, 0]] = [0.75, 0.125]
    assert np.array_equal(routed.phi, want)
    unmoved = st.moved("mu", [])
    assert np.array_equal(unmoved.mu, st.mu) and unmoved.mu is not st.mu


def test_the_family_table_has_one_row_per_control_array():
    assert list(FAMILIES) == [f.name for f in fields(ControlState)]


def test_segments_lay_the_block_keys_end_to_end():
    # one layout of every block in table order: each coordinate addresses the
    # concatenation of the raveled arrays of the kinds that have blocks
    rng = np.random.default_rng(83)
    for scen in [line3_scenario(), square_scenario(), random_scenario(rng), grid_scenario(rng, 4, 2)]:
        lay = scen.layout
        seg = lay.segments
        table = lay.blocks
        assert seg.kinds == tuple(kind for kind in FAMILIES if any(b.kind == kind for b in table))
        assert [seg.kinds[f] for f in seg.family.tolist()] == [b.kind for b in table]
        start = uniform_state(scen)
        derived = derive(scen, start)
        arrays = [getattr(start, kind) for kind in seg.kinds]
        offsets = dict(zip(seg.kinds, np.cumsum([0] + [a.size for a in arrays])[:-1].tolist()))
        assert np.array_equal(seg.index, np.concatenate([offsets[b.kind] + b.key for b in table]))
        assert np.array_equal(seg.starts, np.cumsum([0] + [b.key.size for b in table])[:-1])
        assert np.array_equal(seg.rows, np.concatenate([[k] * b.key.size for k, b in enumerate(table)]))
        assert seg.index.dtype == seg.starts.dtype == seg.rows.dtype == np.int64
        values = np.concatenate([a.ravel() for a in arrays])
        for k, b in enumerate(table):
            stop = seg.starts[k + 1] if k + 1 < len(table) else seg.index.size
            assert np.array_equal(values[seg.index[seg.starts[k]:stop]], getattr(start, b.kind).ravel()[b.key]), b
        wide = [k for k, b in enumerate(table) if b.key.size >= 8]
        assert [g for g, _ in seg.wide] == wide
        # a group id addresses the group's cell of the family's load, or of
        # the array's rows for a family without one (rho, phi_w), in the
        # concatenation of those cells over the kinds in order
        shapes = {}
        for kind in seg.kinds:
            load = FAMILIES[kind].load
            shapes[kind] = getattr(start, kind).shape[:1] if load is None else load(derived).shape
        cells = dict(zip(seg.kinds, np.cumsum([0] + [math.prod(s) for s in shapes.values()])[:-1].tolist()))
        want = [cells[b.kind] + np.arange(math.prod(shapes[b.kind])).reshape(shapes[b.kind])[b.group] for b in table]
        assert np.array_equal(seg.group_ids, want)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    seed=hs.integers(0, 2**32 - 1),
    grid=hs.booleans(),
    kind=hs.sampled_from(list(FAMILIES)),
    data=hs.data(),
)
def test_a_moved_block_derived_from_its_parent_equals_a_fresh_derive(seed, grid, kind, data):
    # derive(parent=..., changed=kind) recomputes only what the family's row
    # says the array feeds; the rest must be what a fresh evaluation finds.
    # Only grids hold links on several bands, and so mu blocks
    rng = np.random.default_rng(seed)
    scen = grid_scenario(rng, 3, 2) if grid else random_scenario(rng)
    state = random_interior_state(scen, rng)
    table = [b for b in scen.layout.blocks if b.kind == kind]
    assume(table)
    block = table[data.draw(hs.integers(0, len(table) - 1))]
    values = data.draw(hs.lists(hs.floats(0.0, 1.0), min_size=block.key.size, max_size=block.key.size))
    # new values on the block's support only, so that no routing cycle appears
    cur = getattr(state, kind).ravel()[block.key]
    moved = state.moved(kind, [(block.key, np.where(cur > 0.0, values, 0.0))])
    reused = derive(scen, moved, parent=derive(scen, state), changed=kind)
    fresh = derive(scen, moved)
    for terms in ("physical", "flows"):
        for f in fields(getattr(fresh, terms)):
            got, want = getattr(getattr(reused, terms), f.name), getattr(getattr(fresh, terms), f.name)
            assert got == want if f.name in ("orders", "adjacency") else _same_bits(got, want), f"{terms}.{f.name}"
    for name in ("link_cost", "overflow_cost", "total"):
        assert _same_bits(getattr(reused, name), getattr(fresh, name)), name


def _same_flows(got, want):
    """The FlowTerms fields that differ between `got` and `want`."""
    differ = []
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if not (a == b if f.name in ("orders", "adjacency") else _same_bits(a, b)):
            differ.append(f.name)
    return differ


def _closing_link(derived, w):
    """A zero-fraction link of session w whose raising closes a routing cycle, or None."""
    closing = np.flatnonzero(derived.cycle_mask[w])
    return int(closing[0]) if closing.size else None


def test_flows_reroute_only_the_changed_sessions_bit_for_bit():
    # derive(parent, changed="phi"|"phi_w") routes again only the sessions
    # whose rows differ from the parent's state and takes the others from
    # the parent; every FlowTerms field must still be a fresh evaluation's
    rng = np.random.default_rng(36)
    cases = dict.fromkeys(("two phi rows", "phi_w", "no move", "cycle"), 0)
    for trial in range(6):
        scen = grid_scenario(rng, 3 + trial % 2, 3)
        state = random_interior_state(scen, rng)
        parent = derive(scen, state)
        links = scen.layout.n_links
        rows = sorted(rng.choice(3, size=2, replace=False).tolist())
        # new fractions on the rows' support only, so that no cycle appears
        scale = np.where(state.phi[rows] > 0.0, rng.uniform(0.5, 1.5, (2, links)), 0.0)
        keys = np.concatenate([w * links + np.arange(links) for w in rows])
        moves = {
            "two phi rows": ("phi", state.moved("phi", [(keys, (state.phi[rows] * scale).ravel())])),
            "phi_w": ("phi_w", state.moved("phi_w", [(np.array([rows[1]]), rng.uniform(0.0, 1.0))])),
            "no move": ("phi", state.moved("phi", [])),
        }
        for label, (kind, moved) in moves.items():
            reused = derive(scen, moved, parent=parent, changed=kind)
            fresh = derive(scen, moved)
            assert not _same_flows(reused.flows, fresh.flows), (trial, label, _same_flows(reused.flows, fresh.flows))
            for name in ("link_cost", "overflow_cost", "total"):
                assert _same_bits(getattr(reused, name), getattr(fresh, name)), (trial, label, name)
            cases[label] += 1
        # close a cycle in every session that has a link to close one: a
        # fresh evaluation names the first, and so must the reuse
        closing = [(w, _closing_link(parent, w)) for w in range(3)]
        closing = [(w, li) for w, li in closing if li is not None]
        if not closing:
            continue
        cyclic = state.moved("phi", [(np.array([w * links + li]), 0.5) for w, li in closing])
        with pytest.raises(CycleDetectedError) as fresh_error:
            derive(scen, cyclic)
        with pytest.raises(CycleDetectedError) as reused_error:
            derive(scen, cyclic, parent=parent, changed="phi")
        assert fresh_error.value.session == closing[0][0]
        assert reused_error.value.session == fresh_error.value.session
        assert reused_error.value.nodes == fresh_error.value.nodes
        cases["cycle"] += 1
    assert all(cases.values()), cases


def test_routing_cycle_detection():
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 0.1)
    lay = line3.layout
    st.phi[0, :] = 0.0
    st.phi[0, lay.links.index((0, 1))] = 1.0
    st.phi[0, lay.links.index((1, 0))] = 1.0
    with pytest.raises(CycleDetectedError, match="session 0"):
        evaluate_flows(line3, st)


def test_barrier_precedence():
    # a band with no capacity costs nothing while idle but is infeasible
    # the moment it carries flow
    from duplexnet.kernels import capacity, link_cost_terms
    from duplexnet.scenario import summed_cost

    sinr = np.array([1e-3, 1e-3, 10.0, 10.0])
    flow = np.array([0.0, 0.2, 0.0, 5.0])
    cost = link_cost_terms(capacity(sinr, 1.0, 50.0), flow)
    total = summed_cost(cost, flow, np.zeros(0))
    assert cost[0] == 0.0
    assert cost[1] == math.inf
    assert cost[2] == 0.0
    assert cost[3] == pytest.approx(5.0 / (math.log(500.0) - 5.0))
    assert total == math.inf


def test_total_cost_matches_derive():
    rng = np.random.default_rng(35)
    for trial in range(5):
        scen = random_scenario(rng)
        st = random_interior_state(scen, rng)
        der = derive(scen, st)
        assert total_cost(scen, st) == der.total
        assert der.total == pytest.approx(
            der.link_cost.sum() + der.overflow_cost.sum(), rel=1e-12
        )


def test_multistable_square_has_two_stationary_corners():
    """The four-node ring admits distinct block-stationary optima.

    From the even split with the second session rejected outright, the
    solver stays in a basin that rejects it; from the even split routed
    as the reference search routes, it reaches the cheaper point the
    reference finds, carrying both sessions.  Both points pass the
    first-order residual check, so this is a genuine landscape property
    of the nonconvex cost, and the gap documents how far apart the basins
    sit.
    """
    from duplexnet.optimizer import optimality_residuals, solve
    from duplexnet.oracle import reference_solve_small

    sq = square_scenario()
    ref = reference_solve_small(sq, seed=0, restarts=10)
    assert ref.cost == pytest.approx(0.2440263874, abs=1e-8)
    assert ref.state.phi_w[1] == pytest.approx(0.0, abs=1e-6)  # carried
    rejecting = uniform_state(sq, 0.9, 0.1)
    rejecting.phi_w[1] = 1.0
    carrying = uniform_state(sq, 0.9, 0.1)
    carrying.phi = ref.state.phi.copy()
    rejects = solve(sq, rejecting, max_sweeps=400, tol=1e-4)
    carries = solve(sq, carrying, max_sweeps=400, tol=1e-4)
    assert rejects.converged and carries.converged
    assert rejects.cost == pytest.approx(0.2769047745, abs=1e-8)
    assert rejects.state.phi_w[1] == pytest.approx(1.0)  # session 1 rejected
    assert carries.cost == pytest.approx(ref.cost, rel=1e-3)
    assert carries.state.phi_w[1] == pytest.approx(0.0, abs=1e-6)  # carried
    gap = (rejects.cost - carries.cost) / carries.cost
    assert gap > 0.10
    assert optimality_residuals(sq, rejects.state).worst <= 1e-6
    assert optimality_residuals(sq, carries.state).worst <= 1e-4
    assert optimality_residuals(sq, ref.state).worst <= 1e-4
