"""Numeric kernels: interference model and link-cost derivatives."""

import math

import numpy as np

from duplexnet import kernels

from helpers import random_interior_state, random_scenario


def test_interference_includes_noise():
    rng = np.random.default_rng(24)
    for trial in range(5):
        scen = random_scenario(rng)
        st = random_interior_state(scen, rng)
        lay = scen.layout
        _, _, interference, sinr = kernels.physical_terms(
            scen.gains, scen.noise, scen.power_budget, st.rho,
            lay.ent_tx, lay.ent_rx, lay.ent_band, st.eta)
        noise_at_rx = scen.noise[lay.ent_band, lay.ent_rx]
        assert np.all(interference >= noise_at_rx - 1e-15)
        assert np.all(sinr >= 0)


def test_link_cost_derivatives_boundary_conventions():
    r, k = 1.0, 50.0
    cap = kernels.capacity(np.array([10.0]), r, k)[0]
    assert math.isclose(cap, math.log(500.0), rel_tol=1e-15)
    sinr = np.array([10.0, 0.0, -1.0, 1e-3, 0.0, 1e-3, 10.0, 10.0])
    flow = np.array([0.0, 0.0, 0.0, 0.0, 0.2, 0.2, cap, 9.0])
    d_x, d_f, d_xx, d_ff = kernels.link_cost_derivatives(sinr, flow, r, k)
    d_xf = kernels.link_cost_cross(sinr, flow, r, k)

    # unloaded and usable: flat in sinr, one-sided flow marginal 1/C
    assert d_x[0] == 0.0 and d_xx[0] == 0.0
    assert math.isclose(d_f[0], 1.0 / cap, rel_tol=1e-15)
    assert math.isclose(d_ff[0], 2.0 / cap**2, rel_tol=1e-15)
    assert math.isclose(d_xf[0], -r / 10.0 / cap**2, rel_tol=1e-15)
    # no power (sinr <= 0) or no capacity (C <= 0): no flow can be carried
    for e in range(1, 6):
        assert d_f[e] == math.inf, e
    # loaded at or past capacity: infinite marginal, zero second derivatives
    for e in (6, 7):
        assert d_f[e] == math.inf, e
    for e in range(1, 8):
        assert d_x[e] == 0.0 and d_xx[e] == 0.0 and d_ff[e] == 0.0 and d_xf[e] == 0.0, e
