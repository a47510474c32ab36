"""Numeric kernels: the interference model and the one link-cost model.

The flattened SINR/interference/cost evaluation below is the inner loop of
everything numeric: backtracking line searches and finite-difference
gradient checks call it thousands of times.  The link cost F/(C - F), its
capacity C and every derivative, the cross term d_xf of the curvature
scan included, are defined here and nowhere else; the scan evaluates its
whole grid in one call.  Only the oracle's reference solver prices links
with its own independent formula.

Conventions: ``gains[q, m, j]`` is the power gain from transmitter m to
receiver j on band q, ``noise[q, j]`` the receiver noise power, ``rho[i, q]``
the fraction of node i's budget spent on band q, and entry arrays flatten
the active (link, band) pairs.  The interference seen by entry e excludes
its own received power but includes the transmitter's other entries on the
band; cross-node interference uses the per-node band power ``pbar * rho``.
"""

from __future__ import annotations

import numpy as np


def physical_terms(gains, noise, pbar, rho, ent_tx, ent_rx, ent_band, eta):
    n, nq = rho.shape
    npow = pbar[:, None] * rho
    s = np.zeros((n, nq))
    np.add.at(s, (ent_tx, ent_band), eta)
    total_rx = np.einsum("qmj,mq->qj", gains, npow)
    g = gains[ent_band, ent_tx, ent_rx]
    base = npow[ent_tx, ent_band]
    interference = (
        g * base * (s[ent_tx, ent_band] - eta)
        + (total_rx[ent_band, ent_rx] - g * base)
        + noise[ent_band, ent_rx]
    )
    power = base * eta
    sinr = g * power / interference
    return npow, power, interference, sinr


def capacity(sinr, bandwidth, gain_factor):
    """Per-entry capacity bandwidth * ln(gain_factor * sinr), -inf where sinr <= 0."""
    cap = np.full_like(sinr, -np.inf)
    powered = sinr > 0
    cap[powered] = bandwidth * np.log(gain_factor * sinr[powered])
    return cap


def link_cost_terms(sinr, band_flow, bandwidth, gain_factor):
    """Per-entry cost F/(C - F).

    An unloaded entry costs zero whatever its SINR; a loaded one with
    C <= 0 or F >= C costs +inf.
    """
    cost = np.zeros_like(sinr)
    loaded = band_flow != 0.0
    cap = capacity(sinr[loaded], bandwidth, gain_factor)
    f = band_flow[loaded]
    with np.errstate(divide="ignore"):
        cost[loaded] = np.where((cap <= 0.0) | (f >= cap), np.inf, f / (cap - f))
    return cost


def link_cost_derivatives(sinr, flow, bandwidth, gain_factor):
    """Per-entry (d_x, d_f, d_xx, d_ff) of F/(C - F) with boundary conventions.

    An unloaded entry has d_x = 0 (cost is identically zero in a
    neighborhood of F = 0) and d_f equal to the one-sided marginal 1/C,
    or +inf when the entry cannot carry any flow (C <= 0 or no power).
    The second derivatives are zero wherever they are undefined, and d_xx
    is zero on unloaded entries.
    """
    x, f, r = sinr, flow, bandwidth
    d_x = np.zeros_like(x)
    d_xx = np.zeros_like(x)
    d_ff = np.zeros_like(x)
    cap = capacity(x, r, gain_factor)
    ok = (cap > 0) & (cap > f)
    with np.errstate(divide="ignore", invalid="ignore"):
        slack2 = np.where(ok, (cap - f) ** 2, 1.0)
        d_f = np.where(ok, cap / slack2, np.inf)
    slack = cap[ok] - f[ok]
    d_ff[ok] = 2.0 * cap[ok] / slack**3
    sel = ok & (f > 0)
    sl = cap[sel] - f[sel]
    d_x[sel] = -f[sel] * r / (x[sel] * sl**2)
    d_xx[sel] = f[sel] * r / x[sel] ** 2 * (1.0 / sl**2 + 2.0 * r / sl**3)
    return d_x, d_f, d_xx, d_ff


def link_cost_cross(sinr, flow, bandwidth, gain_factor):
    """Per-entry cross derivative d_xf of F/(C - F), zero where C <= 0 or F >= C."""
    x, f, r = sinr, flow, bandwidth
    cap = capacity(x, r, gain_factor)
    ok = (cap > 0) & (cap > f)
    d_xf = np.zeros_like(x)
    d_xf[ok] = -(r / x[ok]) * (cap[ok] + f[ok]) / (cap[ok] - f[ok]) ** 3
    return d_xf
