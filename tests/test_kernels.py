"""Numeric kernels: interference model and link-cost derivatives."""

import math

import numpy as np

from duplexnet import derive, kernels, uniform_state

from helpers import grid_scenario, random_interior_state, random_scenario


def test_interference_includes_noise():
    rng = np.random.default_rng(24)
    for trial in range(5):
        scen = random_scenario(rng)
        st = random_interior_state(scen, rng)
        lay = scen.layout
        _, _, interference, sinr = kernels.physical_terms(
            scen.gains, scen.power_budget, st.rho, st.eta, lay.ent_gain, lay.ent_noise, lay.tx_cell, lay.heard_cell
        )
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


# The masked forms the whole-array kernels replaced, kept verbatim as the
# reference: each computes an output only on the entries that need it.


def _masked_physical_terms(gains, noise, pbar, rho, ent_tx, ent_rx, ent_band, eta):
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


def _masked_capacity(sinr, bandwidth, gain_factor):
    cap = np.full_like(sinr, -np.inf)
    powered = sinr > 0
    cap[powered] = bandwidth * np.log(gain_factor * sinr[powered])
    return cap


def _masked_link_cost_terms(sinr, band_flow, bandwidth, gain_factor):
    cost = np.zeros_like(sinr)
    loaded = band_flow != 0.0
    cap = _masked_capacity(sinr[loaded], bandwidth, gain_factor)
    f = band_flow[loaded]
    with np.errstate(divide="ignore"):
        cost[loaded] = np.where((cap <= 0.0) | (f >= cap), np.inf, f / (cap - f))
    return cost


def _masked_link_cost_derivatives(sinr, flow, bandwidth, gain_factor):
    x, f, r = sinr, flow, bandwidth
    d_x = np.zeros_like(x)
    d_xx = np.zeros_like(x)
    d_ff = np.zeros_like(x)
    cap = _masked_capacity(x, r, gain_factor)
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


def _masked_link_cost_cross(sinr, flow, bandwidth, gain_factor):
    x, f, r = sinr, flow, bandwidth
    cap = _masked_capacity(x, r, gain_factor)
    ok = (cap > 0) & (cap > f)
    d_xf = np.zeros_like(x)
    d_xf[ok] = -(r / x[ok]) * (cap[ok] + f[ok]) / (cap[ok] - f[ok]) ** 3
    return d_xf


def _assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def _link_cost_outputs(sinr, flow, r, k, masked):
    if masked:
        return (
            _masked_capacity(sinr, r, k),
            _masked_link_cost_terms(sinr, flow, r, k),
            *_masked_link_cost_derivatives(sinr, flow, r, k),
            _masked_link_cost_cross(sinr, flow, r, k),
        )
    return (
        kernels.capacity(sinr, r, k),
        kernels.link_cost_terms(sinr, flow, r, k),
        *kernels.link_cost_derivatives(sinr, flow, r, k),
        kernels.link_cost_cross(sinr, flow, r, k),
    )


OUTPUTS = ("capacity", "cost", "d_x", "d_f", "d_xx", "d_ff", "d_xf")


def _edge_entries(r, k):
    """Entries that reach every branch: SINR <= 0, tiny, at C = 0 and just
    past it, and ordinary; per SINR, flow zero, tiny, inside capacity, at
    capacity, just past it and far above it."""
    one = 1.0 / k
    sinrs = [-1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-3, one, np.nextafter(one, 0.0), np.nextafter(one, 1.0)]
    sinrs += [0.03, 1.0, 10.0, 1e6]
    x, f = [], []
    for s in sinrs:
        cap = float(_masked_capacity(np.array([s]), r, k)[0])
        flows = [0.0, 1e-300, 0.3, 2.0, 1e3]
        if math.isfinite(cap) and cap > 0:
            flows += [0.5 * cap, cap, np.nextafter(cap, 0.0), np.nextafter(cap, math.inf), 1.5 * cap]
        x += [s] * len(flows)
        f += flows
    return np.array(x), np.array(f)


def test_whole_array_kernels_equal_the_masked_forms_bit_for_bit():
    # every element is the operation the masked form ran on its subset;
    # warnings are errors in this suite, so any log(0) or division by zero
    # outside an errstate fails here too
    for r, k in ((1.0, 50.0), (2.5, 3.0), (0.7, 1e4)):
        x, f = _edge_entries(r, k)
        got = _link_cost_outputs(x, f, r, k, masked=False)
        want = _link_cost_outputs(x, f, r, k, masked=True)
        for name, a, b in zip(OUTPUTS, got, want):
            _assert_same_bits(a, b, f"edge entries, r={r}, k={k}: {name}")
        empty = np.zeros(0)
        for name, a, b in zip(OUTPUTS, *(_link_cost_outputs(empty, empty, r, k, m) for m in (False, True))):
            _assert_same_bits(a, b, f"no entries: {name}")
    # the SINRs and flows the solver meets, and shuffled pairings of them
    rng = np.random.default_rng(91)
    scenarios = [random_scenario(rng) for _ in range(6)] + [grid_scenario(rng, 4, 2), grid_scenario(rng, 5, 3)]
    for n, scen in enumerate(scenarios):
        lay = scen.layout
        cost = scen.cost
        for start in (uniform_state(scen, 0.9, 0.1), random_interior_state(scen, rng)):
            got = kernels.physical_terms(
                scen.gains, scen.power_budget, start.rho, start.eta,
                lay.ent_gain, lay.ent_noise, lay.tx_cell, lay.heard_cell,
            )
            want = _masked_physical_terms(
                scen.gains, scen.noise, scen.power_budget, start.rho, lay.ent_tx, lay.ent_rx, lay.ent_band, start.eta
            )
            for name, a, b in zip(("node_band_power", "power", "interference", "sinr"), got, want):
                _assert_same_bits(a, b, f"scenario {n}: {name}")
            der = derive(scen, start)
            x = der.physical.sinr
            f = der.flows.band_flow
            cases = {"as evaluated": (x, f), "shuffled": (x, rng.permutation(f)), "scaled": (x, f * 40.0)}
            for label, (xs, fs) in cases.items():
                got = _link_cost_outputs(xs, fs, cost.bandwidth, cost.gain_factor, masked=False)
                want = _link_cost_outputs(xs, fs, cost.bandwidth, cost.gain_factor, masked=True)
                for name, a, b in zip(OUTPUTS, got, want):
                    _assert_same_bits(a, b, f"scenario {n}, {label}: {name}")


def test_bincount_equals_add_at_on_the_layout_scatters():
    # np.bincount adds each cell's values in entry order from 0.0, as
    # np.add.at does on a zero array, so the per-cell sums agree bit for bit
    rng = np.random.default_rng(92)
    scenarios = [random_scenario(rng) for _ in range(6)] + [grid_scenario(rng, 4, 2), grid_scenario(rng, 5, 3)]
    for n, scen in enumerate(scenarios):
        lay = scen.layout
        shape = (lay.n, lay.band_count)
        values = rng.normal(size=lay.n_entries) * 10.0 ** rng.uniform(-12, 12, lay.n_entries)
        values[rng.random(lay.n_entries) < 0.2] = 0.0
        values[rng.random(lay.n_entries) < 0.05] = np.inf
        scatters = {
            "(tx, band)": (lay.tx_cell, (lay.ent_tx, lay.ent_band), shape),
            "(rx, band)": (lay.rx_cell, (lay.ent_rx, lay.ent_band), shape),
            "link": (lay.ent_link, lay.ent_link, (lay.n_links,)),
        }
        for name, (cells, index, out_shape) in scatters.items():
            want = np.zeros(out_shape)
            np.add.at(want, index, values)
            got = np.bincount(cells, weights=values, minlength=want.size).reshape(out_shape)
            _assert_same_bits(got, want, f"scenario {n}: {name}")
        # the index maps address the same cells as the index pairs
        assert np.array_equal(lay.heard_cell, np.ravel_multi_index((lay.ent_band, lay.ent_rx), shape[::-1]))
        _assert_same_bits(lay.ent_gain, scen.gains[lay.ent_band, lay.ent_tx, lay.ent_rx], f"scenario {n}: gain")
        _assert_same_bits(lay.ent_noise, scen.noise[lay.ent_band, lay.ent_rx], f"scenario {n}: noise")
