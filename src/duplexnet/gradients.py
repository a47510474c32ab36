"""Marginal-cost views of one evaluation, under their message-passing names.

Every gradient is defined once, on the evaluation: the
:class:`~duplexnet.scenario.DerivedState` computes on first use, and
keeps, the whole-network partial derivative of total cost in each
ControlState array, the marginals the optimality conditions compare, and
the terms they share.  The functions here return those stored arrays
under the names a distributed implementation would exchange between
nodes; nothing in the package calls them, and the one array they build
is the routing ``blocked`` mask, the evaluation's cycle mask with the
destination's out-links added:

* ``power_messages``: per (receiver, band) marginal cost of one unit of
  extra interference power, accumulated from the receiver's entries.
* ``delta_rho``: combines those messages with the transmitter's own-entry
  terms.  This form is exact when each node-band power-share group sums
  to one (the constraint set), which is all the optimizer needs; the
  unconditional derivative is :func:`duplexnet.oracle.delta_rho_direct`,
  an independent reference computed from the interference model, and the
  two agree on the constraint set to rounding error.

Per-entry power shares (eta), per-link band shares (mu), and routing
fractions (phi) have unconditionally exact gradients.  Routing marginals
follow the recursion: a node's marginal equals the fraction-weighted sum,
over its positive outgoing fractions, of the link's marginal band cost
plus the downstream node's marginal; destinations anchor at zero.  The
recursion is evaluated in reverse topological order of the positive
subgraph, so it is exact on any acyclic routing pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import ControlState, DerivedState, NetworkScenario


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
    return derived.eta_delta, derived.gradient("eta")


def delta_rho(scenario: NetworkScenario, state: ControlState, derived: DerivedState) -> np.ndarray:
    """Message-passing power-split gradient, per (node, band).

    delta_rho[i, q] = budget_i * (sum_n gains[q, i, n] * msg[n, q]
    + sum over i's band-q entries of delta_eta * eta).  Exact on the
    constraint set where each node-band share group sums to one.
    """
    return derived.gradient("rho")


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
    return RoutingMarginals(
        node_marginal=derived.node_marginals,
        delta_phi=derived.delta_phi,
        overflow_grad=derived.gradient("phi_w"),
        blocked=derived.cycle_mask | (lay.link_ends[0] == lay.dest[:, None]),
        link_marginal=derived.link_marginals,
    )


def delta_mu(scenario: NetworkScenario, state: ControlState, derived: DerivedState) -> np.ndarray:
    """Exact gradient in the per-link band shares: link flow times d_f."""
    return derived.gradient("mu")


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


def gradient_bundle(scenario: NetworkScenario, state: ControlState, derived: DerivedState) -> GradientBundle:
    """All block gradients at one state, sharing intermediate terms."""
    if not math.isfinite(derived.total):
        raise ValueError("gradients need a finite-cost state")
    eta_d, eta_g = delta_eta(scenario, state, derived)
    return GradientBundle(
        messages=power_messages(scenario, derived),
        eta_delta=eta_d,
        eta_grad=eta_g,
        rho_grad=delta_rho(scenario, state, derived),
        routing=routing_marginals(scenario, state, derived),
        mu_grad=delta_mu(scenario, state, derived),
        d_x=derived.signal_derivatives[0],
        d_f=derived.flow_derivatives[0],
    )
