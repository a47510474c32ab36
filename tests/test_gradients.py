"""Analytic gradients against finite differences and hand recursions."""

import dataclasses

import numpy as np
import pytest

from duplexnet.gradients import (
    delta_mu,
    delta_rho,
    gradient_bundle,
    power_messages,
    routing_marginals,
)
from duplexnet.oracle import delta_rho_direct, finite_diff_check
from duplexnet.scenario import Utility, derive, uniform_state

from helpers import hub_scenario, line3_scenario, random_interior_state


@pytest.mark.parametrize("utility", ["log", "linear"])
def test_finite_differences_on_interior_states(utility):
    # the overflow cost's slope and curvature have one branch per utility
    # kind; phi_w, the one array they feed, is checked on every draw
    line3 = line3_scenario()
    sessions = [dataclasses.replace(s, utility=Utility(utility, s.utility.weight)) for s in line3.sessions]
    line3 = dataclasses.replace(line3, sessions=sessions)
    rng = np.random.default_rng(61)
    for trial in range(10):
        st = random_interior_state(line3, rng)
        rep = finite_diff_check(line3, st)
        assert rep.worst <= 1e-5, f"trial {trial}: worst {rep.worst:.3e}"
        assert rep.total_checked > 0
        assert set(rep.families) == {"rho", "eta", "mu", "phi", "phi_w"}
        assert rep.families["phi_w"].checked == len(sessions)
        # phi_w's curvature is the slope of its overflow marginal
        curvature = derive(line3, st).curvature("phi_w")
        for w, sess in enumerate(sessions):
            up, down = (sess.demand * sess.utility.overflow_derivative((st.phi_w[w] + h) * sess.demand, sess.demand)
                        for h in (1e-6, -1e-6))
            assert curvature[w] == pytest.approx((up - down) / 2e-6, rel=1e-6, abs=1e-9)


def test_delta_rho_forms_agree():
    # the constraint-set shortcut and the unconditional form must match
    # wherever the state actually lives on the constraint set
    line3 = line3_scenario()
    rng = np.random.default_rng(62)
    for trial in range(15):
        st = random_interior_state(line3, rng)
        der = derive(line3, st)
        a = delta_rho(line3, st, der)
        b = delta_rho_direct(line3, st, der)
        assert float(np.max(np.abs(a - b))) <= 1e-10


def test_routing_marginal_recursion():
    """Cost-to-go composes backward from the destination."""
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 0.1)
    der = derive(line3, st)
    rm = routing_marginals(line3, st, der)
    lay = line3.layout
    w, sess = 0, line3.sessions[0]
    dest = lay.dest[w]
    assert rm.node_marginal[w, dest] == 0.0
    # delta_phi stacks the link marginal on the downstream node marginal
    for li, (i, j) in enumerate(lay.links):
        if i == dest:
            continue
        assert rm.delta_phi[w, li] == pytest.approx(
            rm.link_marginal[li] + rm.node_marginal[w, j], rel=1e-12
        )
    # interior node marginals average delta_phi over the routing split
    for i in range(lay.n):
        if i == dest:
            continue
        acc = sum(
            st.phi[w, li] * rm.delta_phi[w, li]
            for li, (a, _) in enumerate(lay.links)
            if a == i and st.phi[w, li] > 0
        )
        assert rm.node_marginal[w, i] == pytest.approx(acc, rel=1e-12)
    # rejecting a unit of demand trades overflow slope against the
    # origin's cost-to-go
    expected = (
        sess.utility.overflow_derivative(st.phi_w[w] * sess.demand, sess.demand)
        - rm.node_marginal[w, lay.origin[w]]
    ) * sess.demand
    assert rm.overflow_grad[w] == pytest.approx(expected, rel=1e-12)


def test_routing_blocked_pattern_on_path():
    # session 0 -> 2 on a path: the backward link would revisit its own
    # upstream, and leaving the destination is never allowed
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 0.1)
    rm = routing_marginals(line3, st, derive(line3, st))
    lay = line3.layout
    blocked = {lay.links[li]: bool(rm.blocked[0, li]) for li in range(lay.n_links)}
    assert blocked == {(0, 1): False, (1, 0): True, (1, 2): False, (2, 1): True}


def test_power_messages_zero_when_unloaded():
    # with no flow anywhere the congestion slopes vanish, so no entry
    # radiates a power price
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 1.0)  # everything rejected
    der = derive(line3, st)
    msg = power_messages(line3, der)
    assert np.all(msg == 0.0)
    assert np.all(delta_mu(line3, st, der) == 0.0)


def test_gradient_bundle_rejects_infinite_state():
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 0.1)
    st.rho[:, :] = 0.0  # no power, positive flow: infinite cost
    with pytest.raises(ValueError):
        gradient_bundle(line3, st, derive(line3, st))


def test_group_sums_add_as_per_group_loops():
    # the hub's power-share groups hold more than 8 loaded entries, where
    # np.sum adds pairwise; the stored arrays must equal per-group loops
    hub = hub_scenario()
    lay = hub.layout
    assert max(e.size for e in lay.node_band_entries.values()) > 8
    st = uniform_state(hub, 0.9, 0.1)
    der = derive(hub, st)
    d_x, d_xx = der.signal_derivatives
    g = hub.gains[lay.ent_band, lay.ent_tx, lay.ent_rx]
    inn = der.physical.interference
    eta_grad = np.zeros(lay.n_entries)
    rho_curv = np.zeros((lay.n, lay.band_count))
    for (i, q), e in lay.node_band_entries.items():
        psi = d_x[e] * g[e] * der.physical.sinr[e] / inn[e]
        base = der.physical.node_band_power[i, q]
        if base != 0.0:
            eta_grad[e] = base * (der.eta_delta[e] - psi.sum())
        rho_curv[i, q] = np.sum(d_xx[e] * (g[e] * hub.power_budget[i] * st.eta[e] / inn[e]) ** 2)
    assert np.any(eta_grad != 0.0)
    assert eta_grad.tobytes() == der.gradient("eta").tobytes()
    assert rho_curv.tobytes() == der.curvature("rho").tobytes()
