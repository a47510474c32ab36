"""Marginal-cost computations for every control block.

All formulas differentiate the total cost produced by
:func:`duplexnet.scenario.derive` and are meant to be evaluated at states
with finite cost.  Two of them exist in a message-passing form that a
distributed implementation would exchange between nodes:

* ``power_messages``: per (receiver, band) marginal cost of one unit of
  extra interference power, accumulated from the receiver's entries.
* ``delta_rho``: combines those messages with the transmitter's own-entry
  terms.  This form is exact when each node-band power-share group sums
  to one (the constraint set), which is all the optimizer needs; the
  unconditional derivative is ``delta_rho_direct`` and the two agree on
  the constraint set to rounding error.

Per-entry power shares (eta), per-link band shares (mu), and routing
fractions (phi) have unconditionally exact gradients.  Routing marginals
follow the recursion: a node's marginal equals the fraction-weighted sum,
over its positive outgoing fractions, of the link's marginal band cost
plus the downstream node's marginal; destinations anchor at zero.  The
recursion is evaluated in reverse topological order of the positive
subgraph, so it is exact on any acyclic routing pattern.

The terms these formulas share belong to one evaluation: the
:class:`~duplexnet.scenario.DerivedState` computes its per-entry link-cost
derivatives, link marginals, power messages and each session's node
marginals on first use and keeps them, so every block and residual that
reads one evaluation slices the same arrays.

Infinite marginals are possible at boundary states (an unloaded entry
whose capacity is nonpositive has an infinite flow derivative); products
with an exactly zero fraction or flow are taken to be zero so that such
coordinates stay inert instead of poisoning the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ControlState, DerivedState, NetworkScenario, derive


def power_messages(scenario: NetworkScenario, derived: DerivedState) -> np.ndarray:
    """Marginal cost of unit interference power, per (node, band); see
    :attr:`DerivedState.power_messages`."""
    return derived.power_messages


def delta_eta(scenario: NetworkScenario, state: ControlState, derived: DerivedState):
    """Per-entry message delta and exact gradient for power shares.

    Returns (delta, grad): delta[e] = d_x * g * (1 + x) / interference is
    the per-entry marginal that optimality conditions compare within a
    (node, band) group; grad[e] is the exact partial derivative of total
    cost, namely node_band_power * (delta[e] - sum over the group of
    d_x * g * x / interference).
    """
    lay = scenario.layout
    d_x = derived.derivatives[0]
    g = scenario.gains[lay.ent_band, lay.ent_tx, lay.ent_rx]
    inn = derived.physical.interference
    x = derived.physical.sinr
    delta = d_x * g * (1.0 + x) / inn
    psi = d_x * g * x / inn
    grad = np.zeros_like(delta)
    npow = derived.physical.node_band_power
    for (i, q), entries in lay.node_band_entries.items():
        base = npow[i, q]
        if base == 0.0:
            continue
        grad[entries] = base * (delta[entries] - psi[entries].sum())
    return delta, grad


def delta_rho(scenario: NetworkScenario, state: ControlState, derived: DerivedState) -> np.ndarray:
    """Message-passing power-split gradient, per (node, band).

    delta_rho[i, q] = budget_i * (sum_n gains[q, i, n] * msg[n, q]
    + sum over i's band-q entries of delta_eta * eta).  Exact on the
    constraint set where each node-band share group sums to one.
    """
    lay = scenario.layout
    cross = np.einsum("qin,nq->iq", scenario.gains, derived.power_messages)
    delta, _ = delta_eta(scenario, state, derived)
    own = np.zeros((lay.n, lay.band_count))
    contrib = delta * state.eta
    np.add.at(own, (lay.ent_tx, lay.ent_band), contrib)
    return scenario.power_budget[:, None] * (cross + own)


def delta_rho_direct(
    scenario: NetworkScenario, state: ControlState, derived: DerivedState
) -> np.ndarray:
    """Unconditional partial derivative of total cost in rho.

    Differentiates the interference model directly without assuming the
    share groups are normalized; used to cross-check delta_rho.
    """
    lay = scenario.layout
    d_x = derived.derivatives[0]
    g_e = scenario.gains[lay.ent_band, lay.ent_tx, lay.ent_rx]
    inn = derived.physical.interference
    x = derived.physical.sinr
    npow = derived.physical.node_band_power
    s = np.zeros((lay.n, lay.band_count))
    np.add.at(s, (lay.ent_tx, lay.ent_band), state.eta)
    out = np.zeros((lay.n, lay.band_count))
    cross_term = d_x * (-x) / inn
    for q in range(lay.band_count):
        on_band = np.flatnonzero(lay.ent_band == q)
        if on_band.size == 0:
            continue
        rx = lay.ent_rx[on_band]
        tx = lay.ent_tx[on_band]
        t = cross_term[on_band]
        # all-pairs accumulation, then remove each entry's own transmitter
        out[:, q] += scenario.gains[q][:, rx] @ t
        np.subtract.at(out[:, q], tx, scenario.gains[q, tx, rx] * t)
        own_num = inn[on_band] - g_e[on_band] * npow[tx, q] * (s[tx, q] - state.eta[on_band])
        own = d_x[on_band] * g_e[on_band] * state.eta[on_band] * own_num / inn[on_band] ** 2
        np.add.at(out[:, q], tx, own)
    return scenario.power_budget[:, None] * out


@dataclass(frozen=True)
class RoutingMarginals:
    """Session-indexed routing derivatives and admissibility sets."""

    node_marginal: np.ndarray
    delta_phi: np.ndarray
    overflow_grad: np.ndarray
    blocked: np.ndarray
    link_marginal: np.ndarray


def routing_marginals(
    scenario: NetworkScenario, state: ControlState, derived: DerivedState
) -> RoutingMarginals:
    """Marginals of total cost in the routing fractions.

    node_marginal[w, i] is the cost of one extra unit of session-w traffic
    at node i; delta_phi[w, l] = link_marginal[l] + node_marginal[w, rx(l)]
    is defined for every link, loaded or not; overflow_grad[w] is the
    demand-scaled gap between the overflow marginal and the origin
    marginal.  blocked[w, l] is True when raising phi[w, l] from zero
    would close a routing cycle (the link's head reaches its tail through
    positive fractions) or when the link leaves the destination.
    """
    lay = scenario.layout
    link_marginal = derived.link_marginals
    n_sessions = len(scenario.sessions)
    node_marginal = np.zeros((n_sessions, lay.n))
    delta_phi = np.empty((n_sessions, lay.n_links))
    overflow_grad = np.empty(n_sessions)
    blocked = np.zeros((n_sessions, lay.n_links), dtype=bool)
    for w in range(n_sessions):
        d = int(lay.dest[w])
        marg, parents = derived.session_marginals(w)
        node_marginal[w] = marg
        for li, (i, j) in enumerate(lay.links):
            delta_phi[w, li] = link_marginal[li] + marg[j]
        overflow_grad[w] = _overflow_gradient(scenario, derived, marg, w)
        upstream = {}
        for li, (i, j) in enumerate(lay.links):
            if i == d:
                blocked[w, li] = True
            elif state.phi[w, li] == 0.0:
                if i not in upstream:
                    upstream[i] = _upstream_nodes(parents, i)
                blocked[w, li] = j in upstream[i]
    return RoutingMarginals(
        node_marginal=node_marginal,
        delta_phi=delta_phi,
        overflow_grad=overflow_grad,
        blocked=blocked,
        link_marginal=link_marginal,
    )


def _overflow_gradient(
    scenario: NetworkScenario, derived: DerivedState, marg: np.ndarray, w: int
) -> float:
    """Demand-scaled overflow marginal of session w minus its origin marginal."""
    sess = scenario.sessions[w]
    return sess.demand * (
        sess.utility.overflow_derivative(derived.flows.overflow[w], sess.demand)
        - marg[int(scenario.layout.origin[w])]
    )


def _upstream_nodes(parents, node: int) -> set:
    """Nodes from which `node` is reachable along positive fractions, itself
    included; `parents` is the reverse adjacency of
    :meth:`DerivedState.session_marginals`."""
    seen = {node}
    stack = [node]
    while stack:
        for p in parents[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def delta_mu(scenario: NetworkScenario, state: ControlState, derived: DerivedState) -> np.ndarray:
    """Exact gradient in the per-link band shares: link flow times d_f."""
    lay = scenario.layout
    d_f = derived.derivatives[1]
    flow = derived.flows.link_flow[lay.ent_link]
    grad = np.zeros(lay.n_entries)
    loaded = flow > 0
    grad[loaded] = flow[loaded] * d_f[loaded]
    return grad


@dataclass(frozen=True)
class GradientBundle:
    messages: np.ndarray
    eta_delta: np.ndarray
    eta_grad: np.ndarray
    rho_grad: np.ndarray
    routing: RoutingMarginals
    mu_grad: np.ndarray
    d_x: np.ndarray
    d_f: np.ndarray


def gradient_bundle(
    scenario: NetworkScenario, state: ControlState, derived: DerivedState = None
) -> GradientBundle:
    """All block gradients at one state, sharing intermediate terms."""
    if derived is None:
        derived = derive(scenario, state)
    if not math.isfinite(derived.total):
        raise ValueError("gradients need a finite-cost state")
    d_x, d_f, _, _ = derived.derivatives
    msg = derived.power_messages
    eta_d, eta_g = delta_eta(scenario, state, derived)
    rho_g = delta_rho(scenario, state, derived)
    routing = routing_marginals(scenario, state, derived)
    mu_g = delta_mu(scenario, state, derived)
    return GradientBundle(
        messages=msg,
        eta_delta=eta_d,
        eta_grad=eta_g,
        rho_grad=rho_g,
        routing=routing,
        mu_grad=mu_g,
        d_x=d_x,
        d_f=d_f,
    )
