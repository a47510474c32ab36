"""Numeric kernels: the interference model and the one link-cost model.

The flattened SINR/interference/cost evaluation below is the inner loop of
everything numeric: backtracking line searches and finite-difference
gradient checks call it thousands of times.  The link cost F/(C - F), its
capacity C and every derivative, the cross term d_xf of the curvature
scan included, are defined here and nowhere else; the scan evaluates its
whole grid in one call.  Only the oracle's reference solver prices links
with its own independent formula.

The capacity is the one log: :func:`capacity` takes it, the scenario's
evaluation keeps it with the SINR, and the cost and the derivatives read
it.  The derivatives come in two halves by who reads them:
:func:`signal_derivatives` (d_x, d_xx, for the power and share blocks)
and :func:`flow_derivatives` (d_f, d_ff, for the flow and routing blocks).
:func:`link_cost_derivatives` composes them into the four-tuple from the
SINR.

Conventions: ``gains[q, m, j]`` is the power gain from transmitter m to
receiver j on band q, ``noise[q, j]`` the receiver noise power, ``rho[i, q]``
the fraction of node i's budget spent on band q, and entry arrays flatten
the active (link, band) pairs.  The interference seen by entry e excludes
its own received power but includes the transmitter's other entries on the
band; cross-node interference uses the per-node band power ``pbar * rho``.

The arrays hold tens to hundreds of entries, so a kernel's time goes to
numpy calls, not arithmetic.  Each kernel is therefore a fixed, small
number of whole-array calls:

* :func:`physical_terms` reads the per-entry gain and noise and two flat
  index maps that the scenario's layout builds once: an entry's (tx, band)
  cell of an n x Q array and its (band, rx) cell of a Q x n one.  Gathers
  go through these maps, the per-(node, band) sum of power shares is
  one ``np.bincount``, which adds in entry order from 0.0 exactly as
  ``np.add.at`` on a zero array does, and an entry's own received power
  per unit share, gain times its (tx, band) power, is formed once.
* The cost and its derivatives evaluate every formula on the whole entry
  array and pick each output with one ``np.where``, under one
  ``np.errstate`` per kernel that silences the log of a nonpositive SINR
  and the divisions by zero in the entries the ``np.where`` discards.

Every element is the same operation, in the same order, as on the masked
subset it was once computed on, so every output is bit for bit the same.
"""

from __future__ import annotations

import numpy as np


def physical_terms(gains, pbar, rho, eta, gain, noise, tx_cell, heard_cell):
    """(node band power, per-entry power, interference, SINR).

    `gain` and `noise` are per entry: the entry's own link gain and its
    receiver's noise on its band.  tx_cell[e] is entry e's (tx, band)
    position in a raveled n x Q array, heard_cell[e] its (band, rx)
    position in a raveled Q x n one.
    """
    npow = pbar[:, None] * rho
    s = np.bincount(tx_cell, weights=eta, minlength=npow.size)
    total_rx = np.einsum("qmj,mq->qj", gains, npow)
    base = npow.ravel()[tx_cell]
    own = gain * base
    interference = own * (s[tx_cell] - eta) + (total_rx.ravel()[heard_cell] - own) + noise
    power = base * eta
    sinr = gain * power / interference
    return npow, power, interference, sinr


def capacity(sinr, bandwidth, gain_factor):
    """Per-entry capacity bandwidth * ln(gain_factor * sinr), -inf where sinr <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(sinr > 0, bandwidth * np.log(gain_factor * sinr), -np.inf)


def link_cost_terms(cap, band_flow):
    """Per-entry cost F/(C - F) of capacity `cap` (see :func:`capacity`).

    An unloaded entry costs zero whatever its capacity; a loaded one with
    C <= 0 or F >= C costs +inf.
    """
    f = band_flow
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(f != 0.0, np.where((cap <= 0.0) | (f >= cap), np.inf, f / (cap - f)), 0.0)


def signal_derivatives(sinr, flow, cap, bandwidth):
    """Per-entry (d_x, d_xx) of F/(C - F) in the SINR, at capacity `cap`.

    Both are zero on unloaded entries (the cost is identically zero in a
    neighborhood of F = 0) and wherever C <= 0 or F >= C.
    """
    x, f, r = sinr, flow, bandwidth
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # cap > f > 0 holds only where cap > 0 holds too
        sel = (cap > f) & (f > 0)
        slack = cap - f
        slack2 = slack**2
        d_x = np.where(sel, -f * r / (x * slack2), 0.0)
        d_xx = np.where(sel, f * r / x**2 * (1.0 / slack2 + 2.0 * r / slack**3), 0.0)
    return d_x, d_xx


def flow_derivatives(flow, cap):
    """Per-entry (d_f, d_ff) of F/(C - F) in the flow, at capacity `cap`.

    An unloaded entry has d_f equal to the one-sided marginal 1/C; d_f is
    +inf and d_ff zero where the entry cannot carry its flow (C <= 0,
    which includes no power, or F >= C).
    """
    f = flow
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ok = (cap > 0) & (cap > f)
        slack = cap - f
        d_f = np.where(ok, cap / slack**2, np.inf)
        d_ff = np.where(ok, 2.0 * cap / slack**3, 0.0)
    return d_f, d_ff


def link_cost_derivatives(sinr, flow, bandwidth, gain_factor):
    """Per-entry (d_x, d_f, d_xx, d_ff) of F/(C - F) with boundary conventions:
    the two pairs of :func:`signal_derivatives` and :func:`flow_derivatives`
    at the capacity of `sinr`."""
    cap = capacity(sinr, bandwidth, gain_factor)
    d_x, d_xx = signal_derivatives(sinr, flow, cap, bandwidth)
    d_f, d_ff = flow_derivatives(flow, cap)
    return d_x, d_f, d_xx, d_ff


def link_cost_cross(sinr, flow, bandwidth, gain_factor):
    """Per-entry cross derivative d_xf of F/(C - F), zero where C <= 0 or F >= C."""
    x, f, r = sinr, flow, bandwidth
    cap = capacity(x, r, gain_factor)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ok = (cap > 0) & (cap > f)
        return np.where(ok, -(r / x) * (cap + f) / (cap - f) ** 3, 0.0)
