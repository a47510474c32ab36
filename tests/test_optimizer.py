"""Projection, block updates, and the round-robin solver.

The weighted projection is checked against an exact reference that
enumerates active sets, with SLSQP as a cross-check on the enumeration;
the solver is pinned to frozen costs on the three-node line and checked
for the monotonicity the backtracking step promises.
"""

import math
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import minimize

from duplexnet import kernels, optimizer
from duplexnet.gradients import gradient_bundle
from duplexnet.optimizer import (
    SLACK_TOL,
    SUPPORT_TOL,
    Residuals,
    StalledStepError,
    optimality_residuals,
    project_scaled,
    solve,
    update_block,
)
from duplexnet.scenario import FAMILIES, ControlState, derive, total_cost, uniform_state, validate_state

from helpers import (
    complete_graph,
    grid_scenario,
    hub_scenario,
    line3_scenario,
    path_graph,
    random_interior_state,
    random_scenario,
    square_scenario,
    three_node_scenario,
)


SEPARABLE = [kind for kind, family in FAMILIES.items() if family.separable]


def test_project_scaled_hand_cases():
    z = project_scaled(np.array([0.8, 0.8]), np.array([1.0, 1.0]), "sum_to_one")
    assert z == pytest.approx([0.5, 0.5])
    z = project_scaled(np.array([1.5, -0.5]), np.array([1.0, 1.0]), "sum_to_one")
    assert z == pytest.approx([1.0, 0.0])
    z = project_scaled(np.array([1.7, -0.3, 0.4]), np.array([1.0, 1.0, 1.0]), "box")
    assert z == pytest.approx([1.0, 0.0, 0.4])
    # inside the simplex, sum_at_most_one is the identity
    z = project_scaled(np.array([0.2, 0.3]), np.array([1.0, 2.0]), "sum_at_most_one")
    assert z == pytest.approx([0.2, 0.3])


def test_project_scaled_fixed_coordinates_pin_to_zero():
    z = project_scaled(np.array([0.9, 0.8]), np.array([1.0, 1.0]), "sum_to_one",
                       fixed=np.array([True, False]))
    assert z == pytest.approx([0.0, 1.0])
    z = project_scaled(np.array([0.9, 0.8]), np.array([1.0, 1.0]), "sum_at_most_one",
                       fixed=np.array([True, True]))
    assert z == pytest.approx([0.0, 0.0])


def test_project_scaled_input_validation():
    with pytest.raises(ValueError, match="positive"):
        project_scaled(np.array([0.5]), np.array([0.0]), "sum_to_one")
    with pytest.raises(ValueError, match="unknown constraint"):
        project_scaled(np.array([0.5]), np.array([1.0]), "simplex")
    with pytest.raises(ValueError, match="all coordinates fixed"):
        project_scaled(np.array([0.5]), np.array([1.0]), "sum_to_one", fixed=np.array([True]))


def exact_projection(y, w, constraint):
    """Weighted projection by enumerating supports (small n only).

    On a support S with the sum constraint active, stationarity gives
    z_S = y_S - lam / w_S with lam fixed by sum z_S = 1; with it inactive
    (sum_at_most_one only), z_S = y_S.  The optimum is one of these
    candidates, so the feasible candidate of lowest objective is it.
    """
    if constraint == "box":
        return np.clip(y, 0.0, 1.0)
    n = y.size
    best, best_obj = None, np.inf
    for size in range(n + 1):
        for support in combinations(range(n), size):
            s = list(support)
            cands = []
            if s:
                lam = (y[s].sum() - 1.0) / np.sum(1.0 / w[s])
                cands.append(y[s] - lam / w[s])
            if constraint == "sum_at_most_one" and y[s].sum() <= 1.0:
                cands.append(y[s])
            for zs in cands:
                if np.any(zs < 0.0):
                    continue
                z = np.zeros(n)
                z[s] = zs
                obj = float(np.dot(w, (z - y) ** 2))
                if obj < best_obj:
                    best, best_obj = z, obj
    return best


def test_project_scaled_against_slsqp():
    rng = np.random.default_rng(23)
    for trial in range(30):
        n = int(rng.integers(2, 7))
        y = rng.normal(0, 1, n)
        w = rng.uniform(0.2, 3.0, n)
        kind = ["sum_to_one", "sum_at_most_one", "box"][trial % 3]
        z = project_scaled(y, w, kind)
        exact = exact_projection(y, w, kind)
        assert float(np.max(np.abs(z - exact))) <= 1e-10, f"trial {trial} {kind}"
        # SLSQP cross-checks the enumeration; its success flag is not
        # asserted, since it can stop with status 8 at an optimal point
        cons = []
        if kind == "sum_to_one":
            cons = [{"type": "eq", "fun": lambda v: np.sum(v) - 1.0}]
        elif kind == "sum_at_most_one":
            cons = [{"type": "ineq", "fun": lambda v: 1.0 - np.sum(v)}]
        ref = minimize(
            lambda v: np.dot(w, (v - y) ** 2),
            np.full(n, 1.0 / n),
            method="SLSQP",
            bounds=[(0.0, 1.0 if kind == "box" else None)] * n,
            constraints=cons,
            options={"ftol": 1e-14, "maxiter": 300},
        )
        assert float(np.max(np.abs(ref.x - exact))) <= 1e-6, f"trial {trial} {kind}"


def test_project_scaled_stays_on_simplex_across_weight_decades():
    # block weights in a solve span 2e-6..5e9; there y - lam / w cancels
    # catastrophically, and both a bisection on lam and the closed form
    # without its spreading pass leave these sums off by about 8e-9
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        w = np.exp(rng.uniform(np.log(2e-6), np.log(5e9), n))
        cur = rng.dirichlet(np.ones(n))
        g = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-4.0, 3.0, n)
        z = project_scaled(cur - g / w, w, "sum_to_one")
        assert np.all(z >= 0.0)
        worst = max(worst, abs(float(z.sum()) - 1.0))
    assert worst <= 1e-12


def numpy_projection(target, weights, constraint="sum_to_one", fixed=None):
    """project_scaled as it was written on numpy arrays, kept as the
    reference that the float version must equal bit for bit."""
    y = np.asarray(target, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("projection weights must be positive")
    if constraint == "box":
        return np.clip(y, 0.0, 1.0)
    z = np.zeros_like(y)
    free = np.ones(y.shape, dtype=bool) if fixed is None else ~np.asarray(fixed, dtype=bool)
    yf = y[free]
    wf = w[free]
    if yf.size == 0:
        if constraint == "sum_to_one":
            raise ValueError("cannot satisfy sum_to_one with all coordinates fixed")
        return z
    plain = np.maximum(0.0, yf)
    if constraint == "sum_at_most_one" and plain.sum() <= 1.0:
        z[free] = plain
        return z
    brk = yf * wf
    order = np.argsort(-brk, kind="stable")
    lams = (np.cumsum(yf[order]) - 1.0) / np.cumsum(1.0 / wf[order])
    lam = lams[np.flatnonzero(brk[order] > lams)[-1]]
    zf = np.maximum(0.0, yf - lam / wf)
    support = zf > 0.0
    inv = 1.0 / wf[support]
    zf[support] = np.maximum(0.0, zf[support] + (1.0 - zf.sum()) * inv / inv.sum())
    z[free] = zf
    return z


def _outcome(project, *args, **kwargs):
    """The array `project` returns, as its bytes with NaNs marked, or the
    type of the error it raises."""
    try:
        z = project(*args, **kwargs)
    except (ValueError, IndexError) as exc:
        return type(exc)
    nan = np.isnan(z)
    return z.dtype, z.shape, nan.tobytes(), np.where(nan, 0.0, z).tobytes()


def _random_block(rng, n):
    """A solver-like block: a point on the simplex, a gradient over seven
    decades and weights spanning 2e-6..5e9, as (target, weights)."""
    w = np.exp(rng.uniform(np.log(2e-6), np.log(5e9), n))
    cur = rng.dirichlet(np.ones(n))
    g = rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-4.0, 3.0, n)
    return cur - rng.choice([1.0, 0.5, 2.0 ** -10]) * g / w, w


def test_project_scaled_equals_the_array_projection_bit_for_bit():
    rng = np.random.default_rng(43)
    for trial in range(2400):
        n = int(rng.integers(1, 41)) if trial % 2 else int(rng.integers(1, 6))
        y, w = _random_block(rng, n)
        if trial % 7 == 3:
            # ties among targets and breakpoints
            y, w = np.round(rng.normal(0.3, 0.5, n), 1), np.round(rng.uniform(0.5, 3.0, n))
        constraint = ("sum_to_one", "sum_at_most_one", "box")[trial % 3]
        fixed = rng.random(n) < 0.3 if trial % 4 >= 2 else None
        want = _outcome(numpy_projection, y, w, constraint, fixed=fixed)
        assert _outcome(project_scaled, y, w, constraint, fixed=fixed) == want, f"trial {trial}"
        # the solver passes lists of floats
        lists = None if fixed is None else fixed.tolist()
        assert _outcome(project_scaled, y.tolist(), w.tolist(), constraint, fixed=lists) == want, f"trial {trial}"


def test_project_scaled_rejects_non_finite_input_and_matches_the_array_code_on_finite_extremes():
    # a NaN or infinite target or weight is an error; signed zeros and
    # finite extremes give the array projection's result, or its error
    rng = np.random.default_rng(44)
    errors = set()
    for trial in range(1200):
        n = int(rng.integers(1, 12))
        y, w = _random_block(rng, n)
        specials = [np.nan, np.inf, -np.inf] if trial % 2 else [-0.0, 0.0, 1e308, -1e308, 5e-324]
        for _ in range(int(rng.integers(1, 3))):
            (y if rng.random() < 0.5 else w)[rng.integers(n)] = specials[rng.integers(len(specials))]
        constraint = ("sum_to_one", "sum_at_most_one", "box")[trial % 3]
        fixed = rng.random(n) < 0.3 if trial % 4 >= 2 else None
        got = _outcome(project_scaled, y, w, constraint, fixed=fixed)
        if trial % 2:
            assert got is ValueError, f"trial {trial}"
            continue
        with np.errstate(all="ignore"):
            want = _outcome(numpy_projection, y, w, constraint, fixed=fixed)
        assert got == want, f"trial {trial}"
        if isinstance(want, type):
            errors.add(want)
    assert errors == {ValueError, IndexError}
    with pytest.raises(ValueError, match="finite"):
        project_scaled([0.5, 0.5], [math.nan, 1.0])
    with pytest.raises(ValueError, match="positive"):
        project_scaled([2.0, 0.5], [math.inf, 1.0])


def test_block_sums_add_in_numpy_order():
    # sequential below 8 terms, 8 accumulators to 128, halves above: equal
    # to np.sum bit for bit, where a plain running sum is not
    rng = np.random.default_rng(45)
    for n in range(1, 301):
        for _ in range(4):
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
            assert optimizer._sum(x.tolist()) == np.sum(x), f"{n} terms"
        assert math.copysign(1.0, optimizer._sum([-0.0] * n)) == math.copysign(1.0, np.sum(np.full(n, -0.0)))


def _reachability_blocked(scenario, state):
    """blocked[w, l] by an all-pairs forward search over positive fractions.

    A link leaving the destination is blocked; so is a link (i, j) at
    zero fraction when i is reachable from j, since raising it would
    close a cycle.
    """
    lay = scenario.layout
    blocked = np.zeros((len(scenario.sessions), lay.n_links), dtype=bool)
    for w in range(len(scenario.sessions)):
        d = int(lay.dest[w])
        succ = [[] for _ in range(lay.n)]
        for li, (i, j) in enumerate(lay.links):
            if i != d and state.phi[w, li] > 0:
                succ[i].append(j)
        reach = []
        for start in range(lay.n):
            seen, stack = {start}, [start]
            while stack:
                for u in succ[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            reach.append(seen)
        for li, (i, j) in enumerate(lay.links):
            blocked[w, li] = i == d or (state.phi[w, li] == 0.0 and i in reach[j])
    return blocked


def test_routing_blocked_matches_reachability():
    # the cycle mask of every routing row, as routing_marginals and the
    # block updates read it, against an all-pairs forward search
    rng = np.random.default_rng(71)
    scenarios = [line3_scenario()] + [random_scenario(rng) for _ in range(4)] + [grid_scenario(rng, 4, 2)]
    for k, scen in enumerate(scenarios):
        start = uniform_state(scen, 0.9, 0.1)
        states = {
            "uniform": start,
            "interior": random_interior_state(scen, rng),
            "two sweeps": solve(scen, start, max_sweeps=2, tol=0.0).state,
        }
        for name, st in states.items():
            der = derive(scen, st)
            want = _reachability_blocked(scen, st)
            assert np.array_equal(gradient_bundle(scen, st, der).routing.blocked, want), f"scenario {k}, {name} state"
            for block in scen.layout.blocks:
                _, _, fixed = optimizer._block_move(scen, st, block, der)
                if block.kind == "phi":
                    assert np.array_equal(fixed, want.ravel()[block.key]), f"scenario {k}, {name} state, {block}"
                else:
                    assert fixed is None


def _trial(state, block, rng):
    """`state` with `block` moved inside its feasible set, its support kept
    (so no routing cycle appears), or None when the block cannot move so."""
    cur = getattr(state, block.kind).ravel()[block.key]
    if block.kind == "phi_w":
        z = 0.9 * cur + 0.05
    else:
        used = cur > 0
        if used.sum() < 2:
            return None
        z = 0.8 * cur
        z[used] += 0.2 * cur.sum() * rng.dirichlet(np.ones(used.sum()))
    return state.moved(block.kind, [(block.key, z)])


def _assert_bitwise(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def test_trial_evaluation_reuses_terms_bit_for_bit():
    # the scenarios and states of the test above; trials draw from `pick`
    rng = np.random.default_rng(71)
    pick = np.random.default_rng(72)
    scenarios = [line3_scenario()] + [random_scenario(rng) for _ in range(4)] + [grid_scenario(rng, 4, 2)]
    tried = dict.fromkeys(FAMILIES, 0)
    loaded_mu = 0
    for k, scen in enumerate(scenarios):
        cost = scen.cost
        start = uniform_state(scen, 0.9, 0.1)
        states = {
            "uniform": start,
            "interior": random_interior_state(scen, rng),
            "two sweeps": solve(scen, start, max_sweeps=2, tol=0.0).state,
        }
        for name, st in states.items():
            parent = derive(scen, st)
            for kind in FAMILIES:
                # one trial per kind, on a loaded block where there is one
                movable = [b for b in scen.layout.blocks if b.kind == kind and _trial(st, b, pick) is not None]
                load = FAMILIES[kind].load
                loaded = [b for b in movable if load is None or load(parent)[b.group] > 0]
                pool = loaded or movable
                if not pool:
                    continue
                block = pool[int(pick.integers(len(pool)))]
                trial = _trial(st, block, pick)
                reused = derive(scen, trial, parent=parent, changed=kind)
                fresh = derive(scen, trial)
                what = f"scenario {k}, {name} state, {block}"
                for terms in ("physical", "flows"):
                    for f in fields(getattr(fresh, terms)):
                        got = getattr(getattr(reused, terms), f.name)
                        want = getattr(getattr(fresh, terms), f.name)
                        if f.name in ("orders", "adjacency"):
                            assert got == want, what
                        else:
                            _assert_bitwise(got, want, f"{what}: {terms}.{f.name}")
                _assert_bitwise(reused.link_cost, fresh.link_cost, what)
                _assert_bitwise(reused.overflow_cost, fresh.overflow_cost, what)
                _assert_bitwise(reused.total, fresh.total, what)
                tried[kind] += 1
                loaded_mu += kind == "mu" and bool(loaded)
                if not np.isfinite(fresh.total):
                    continue
                # every array the trial's evaluation keeps, against a fresh one's
                want = kernels.link_cost_derivatives(
                    fresh.physical.sinr, fresh.flows.band_flow, cost.bandwidth, cost.gain_factor
                )
                for got, ref in zip(reused.derivatives, want):
                    _assert_bitwise(got, ref, f"{what}: derivatives")
                for name in ("power_messages", "link_marginals", "eta_delta", "delta_phi"):
                    _assert_bitwise(getattr(reused, name), getattr(fresh, name), f"{what}: {name}")
                for array in FAMILIES:
                    _assert_bitwise(reused.gradient(array), fresh.gradient(array), f"{what}: {array} gradient")
                    _assert_bitwise(reused.curvature(array), fresh.curvature(array), f"{what}: {array} curvature")
                _assert_bitwise(reused.node_marginals, fresh.node_marginals, f"{what}: node marginals")
                assert reused.parents == fresh.parents, f"{what}: parents"
                blocked = gradient_bundle(scen, trial, reused).routing.blocked
                assert np.array_equal(blocked, _reachability_blocked(scen, trial)), what
    assert all(tried.values()), tried
    assert loaded_mu > 0


def _expected_cover(scenario):
    """Per ControlState array, the coordinates some block must own."""
    lay = scenario.layout
    state = uniform_state(scenario)
    want = {kind: np.zeros(getattr(state, kind).shape, dtype=bool) for kind in ("mu", "eta", "rho", "phi", "phi_w")}
    for sl in lay.link_slices:
        if sl.stop - sl.start >= 2:
            want["mu"][sl] = True
    for entries in lay.node_band_entries.values():
        if entries.size >= 2:
            want["eta"][entries] = True
    want["rho"][:] = lay.rho_mask
    for w in range(len(scenario.sessions)):
        for i in range(lay.n):
            if i != int(lay.dest[w]) and len(lay.out_links[i]) >= 2:
                want["phi"][w, lay.out_links[i]] = True
    want["phi_w"][:] = True
    return want


def test_blocks_partition_the_coordinates():
    rng = np.random.default_rng(83)
    scenarios = [line3_scenario()] + [random_scenario(rng) for _ in range(4)] + [grid_scenario(rng, 4, 2)]
    for k, scen in enumerate(scenarios):
        lay = scen.layout
        want = _expected_cover(scen)
        owners = {kind: np.zeros(mask.shape, dtype=int) for kind, mask in want.items()}
        for block in scen.layout.blocks:
            np.add.at(owners[block.kind].ravel(), block.key, 1)
            # the group names the coordinates the key selects, as flat positions
            if block.kind == "mu":
                assert np.all(lay.ent_link[block.key] == block.group)
            elif block.kind == "eta":
                assert np.array_equal(block.key, lay.node_band_entries[block.group])
            elif block.kind == "rho":
                assert np.all(block.key // lay.band_count == block.group)
            elif block.kind == "phi":
                w, i = block.group
                assert np.array_equal(block.key, w * lay.n_links + np.array(lay.out_links[i]))
            else:
                assert np.array_equal(block.key, [block.group])
        for kind, mask in want.items():
            assert owners[kind].max(initial=0) <= 1, f"scenario {k}: {kind} blocks overlap"
            assert np.array_equal(owners[kind] == 1, mask), f"scenario {k}: {kind} cover"


def _count_derive(monkeypatch):
    calls = []
    real = optimizer.derive

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimizer, "derive", counting)
    return calls


def test_solve_evaluates_once_per_trial(monkeypatch):
    # every evaluation is the start's, a trial's or a run's closing one, and
    # each comes with one copy of a state: solve copies its start, and a
    # run copies the state it prices; the trace counts all but the start's
    copies = []
    real_copy = ControlState.copy

    def counting_copy(state):
        copies.append(1)
        return real_copy(state)

    monkeypatch.setattr(ControlState, "copy", counting_copy)
    calls = _count_derive(monkeypatch)
    grid = grid_scenario(np.random.default_rng(5), 4, 2)
    for scen, kwargs in ((line3_scenario(), dict(max_sweeps=400, tol=1e-4)), (grid, dict(max_sweeps=3, tol=0.0))):
        copies.clear()
        calls.clear()
        res = solve(scen, uniform_state(scen, 0.9, 0.1), **kwargs)
        assert res.converged or res.sweeps == kwargs["max_sweeps"]
        assert len(copies) > 1
        assert len(calls) == len(copies) == 1 + sum(row.evaluations for row in res.trace)


def test_update_block_at_optimal_vertex_does_not_evaluate(monkeypatch):
    # node 1's band-1 group holds an unloaded entry (link 1->0) and a
    # loaded one (link 1->2); all power on the loaded one is optimal, so
    # the projected step lands back on the vertex
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 0.1)
    st.eta[line3.layout.node_band_entries[(1, 1)]] = [0.0, 1.0]
    der = derive(line3, st)
    block = next(b for b in line3.layout.blocks if b.kind == "eta" and b.group == (1, 1))
    calls = _count_derive(monkeypatch)
    out = update_block(line3, st, block, derived=der)
    assert not out.moved
    assert out.halvings == 0
    assert out.derived is der
    assert calls == []


def test_update_block_never_increases_cost():
    line3 = line3_scenario()
    rng = np.random.default_rng(63)
    for trial in range(5):
        st = random_interior_state(line3, rng)
        cost0 = total_cost(line3, st)
        for block in line3.layout.blocks:
            out = update_block(line3, st, block)
            assert out.cost <= cost0 + 1e-12, f"trial {trial} block {block}"
            assert validate_state(line3, out.state) == []
            st = out.state
            cost0 = out.cost


def test_solve_line_converges_to_frozen_cost():
    line3 = line3_scenario()
    res = solve(line3, uniform_state(line3, 0.9, 0.1), max_sweeps=400, tol=1e-4)
    assert res.converged
    assert res.cost == pytest.approx(0.0969013066, abs=1e-9)
    assert res.residual <= 1e-4
    costs = [row.cost for row in res.trace]
    assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))
    assert validate_state(line3, res.state) == []


def test_solve_recovers_from_near_rejection():
    # an all-rejected state with literally zero power is a fixed point of
    # every block, so start with a sliver of power and full rejection;
    # the solver must walk back to admitting the whole session
    line3 = line3_scenario()
    st = uniform_state(line3, power=0.05, overflow=1.0)
    res = solve(line3, st, max_sweeps=400, tol=1e-4)
    assert res.converged
    assert res.state.phi_w[0] == pytest.approx(0.0, abs=1e-9)
    assert res.cost == pytest.approx(0.0969013066, abs=1e-8)


def test_solve_random_order_matches_round_robin_cost():
    line3 = line3_scenario()
    a = solve(line3, uniform_state(line3, 0.9, 0.1), order="random", seed=5)
    b = solve(line3, uniform_state(line3, 0.9, 0.1), order="round_robin")
    assert a.converged and b.converged
    assert a.cost == pytest.approx(b.cost, rel=1e-6)


def test_solve_rejects_infinite_start():
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 0.1)
    st.rho[:, :] = 0.0
    with pytest.raises(ValueError, match="finite-cost initial state"):
        solve(line3, st)


def test_solve_from_an_integer_start_matches_its_float_equal():
    # trials must not be truncated into the start's integer arrays
    sq = square_scenario()
    ints, floats = uniform_state(sq, 0.9, 0.1), uniform_state(sq, 0.9, 0.1)
    ints.phi_w = np.zeros(2, dtype=int)
    floats.phi_w = np.zeros(2)
    a, b = solve(sq, ints), solve(sq, floats)
    assert a.converged and b.converged
    assert (a.cost, a.sweeps) == (b.cost, b.sweeps)
    for name in FAMILIES:
        assert getattr(a.state, name).dtype == np.float64
        assert np.array_equal(getattr(a.state, name), getattr(b.state, name)), name


@pytest.mark.parametrize(
    "array, factor, problem",
    [
        # every node's power fractions sum to 1.8
        ("rho", 2.0, "power fractions sum to 1.8 > 1"),
        # half of each routing row's traffic is gone
        ("phi", 0.5, "fractions at node .* sum to 0.5 != 1"),
    ],
)
def test_solve_rejects_a_start_outside_the_constraint_set(array, factor, problem):
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 0.1)
    getattr(st, array)[...] *= factor
    assert math.isfinite(total_cost(line3, st))
    with pytest.raises(ValueError, match=f"constraint set: .*{problem}") as info:
        solve(line3, st)
    assert str(info.value).endswith(validate_state(line3, st)[0])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_sweeps=-3),
        dict(max_sweeps=True),
        dict(max_sweeps=2.0),
        dict(tol=math.nan),
        dict(tol=math.inf),
        dict(tol=-1e-9),
    ],
    ids=["negative-sweeps", "bool-sweeps", "float-sweeps", "nan-tol", "inf-tol", "negative-tol"],
)
def test_solve_rejects_a_bad_sweep_budget_or_tolerance(kwargs):
    line3 = line3_scenario()
    with pytest.raises(ValueError, match="max_sweeps" if "max_sweeps" in kwargs else "tol"):
        solve(line3, uniform_state(line3, 0.9, 0.1), **kwargs)


def test_solve_takes_no_sweep_or_a_zero_tolerance():
    line3 = line3_scenario()
    start = uniform_state(line3, 0.9, 0.1)
    res = solve(line3, start, max_sweeps=0)
    assert res.sweeps == 0 and len(res.trace) == 1
    assert res.cost == total_cost(line3, start)
    res = solve(line3, start, max_sweeps=np.int64(2), tol=0.0)
    assert res.sweeps == 2 and res.converged == (res.residual == 0.0)


def test_solve_rejects_unknown_order():
    line3 = line3_scenario()
    with pytest.raises(ValueError, match="unknown order"):
        solve(line3, uniform_state(line3, 0.9, 0.1), order="sorted")


def test_stall_raises_instead_of_spinning(monkeypatch):
    # an unattainable sufficient-decrease bar makes every block fail its
    # line search, which must surface as an explicit stall
    line3 = line3_scenario()
    monkeypatch.setattr(optimizer, "ARMIJO", 1e6)
    with pytest.raises(StalledStepError) as info:
        solve(line3, uniform_state(line3, 0.9, 0.1), max_sweeps=5)
    assert info.value.residual > info.value.tol
    assert "no block can make progress" in str(info.value)


def test_residuals_vanish_at_optimum():
    line3 = line3_scenario()
    res = solve(line3, uniform_state(line3, 0.9, 0.1), max_sweeps=400, tol=1e-6)
    r = optimality_residuals(line3, res.state)
    assert r.worst <= 1e-6
    st = uniform_state(line3, 0.9, 0.1)
    assert optimality_residuals(line3, st).worst > 1e-2


def test_residuals_reject_infinite_state():
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 0.1)
    st.rho[:, :] = 0.0
    with pytest.raises(ValueError):
        optimality_residuals(line3, st)


@pytest.fixture(scope="module")
def sweep_states():
    """(label, scenario, state): line3, the square, the hub, four random
    draws and a 4x4 and a 5x5 grid, each at the even split, at a random
    interior state and after two sweeps."""
    rng = np.random.default_rng(91)
    scenarios = {"line3": line3_scenario(), "square": square_scenario(), "hub": hub_scenario()}
    for k in range(4):
        scenarios[f"random {k}"] = random_scenario(rng)
    scenarios["grid 4x4"] = grid_scenario(rng, 4, 2)
    scenarios["grid 5x5"] = grid_scenario(rng, 5, 3)
    out = []
    for name, scen in scenarios.items():
        even = uniform_state(scen, 0.9, 0.1)
        out.append((f"{name}, even split", scen, even))
        out.append((f"{name}, interior", scen, random_interior_state(scen, rng)))
        out.append((f"{name}, two sweeps", scen, solve(scen, even, max_sweeps=2, tol=0.0).state))
    return out


def test_unloaded_blocks_are_skipped_without_computing(sweep_states, monkeypatch):
    # the premise of the skip: a group without load has an all-zero
    # gradient, so update_block may return before slicing anything
    moves = []
    real_move = optimizer._block_move

    def counting_move(*args):
        moves.append(1)
        return real_move(*args)

    monkeypatch.setattr(optimizer, "_block_move", counting_move)
    calls = _count_derive(monkeypatch)
    skipped = dict.fromkeys(("mu", "eta", "phi"), 0)
    for label, scen, st in sweep_states:
        der = derive(scen, st)
        for block in scen.layout.blocks:
            load = FAMILIES[block.kind].load
            if load is None or load(der)[block.group] > 0:
                continue
            what = f"{label}, {block}"
            assert not np.any(der.gradient(block.kind).ravel()[block.key]), what
            out = update_block(scen, st, block, step=0.25, derived=der)
            assert (out.moved, out.halvings, out.step, out.cost) == (False, 0, 0.25, der.total), what
            assert out.state is st and out.derived is der, what
            skipped[block.kind] += 1
    assert moves == [] and calls == []
    assert all(skipped.values()), skipped


def _sweep_block_by_block(scenario, state, visits):
    """The per-block sweep loop: update_block on every block of each visit
    order in turn, steps carried as solve carries them.  Returns the state
    and evaluation after each sweep and (block, cost, moved, halvings,
    step) per update."""
    table = scenario.layout.blocks
    steps = [1.0] * len(table)
    derived = derive(scenario, state)
    ends, log = [], []
    for visit in visits:
        for k in visit:
            out = update_block(scenario, state, table[k], step=steps[k], derived=derived)
            state, derived = out.state, out.derived
            log.append((k, out.cost, out.moved, out.halvings, out.step))
            if out.moved:
                steps[k] = optimizer._next_step(out.step)
        ends.append((state, derived))
    return ends, log


def _sweep_by_runs(scenario, state, visits, runs_seen):
    """The same sweeps by solve's own sweep, each visit order cut into runs
    as solve cuts it; runs_seen[kind] counts the runs of more than one
    block."""
    table = scenario.layout.blocks
    steps = [1.0] * len(table)
    derived = derive(scenario, state)
    ends, log = [], []
    for visit in visits:
        runs = optimizer._runs(table, visit)
        for run in runs:
            if len(run) > 1:
                runs_seen[table[run[0]].kind] += 1
        state, derived, visited, _ = optimizer._sweep(scenario, state, derived, table, runs, steps)
        log.extend((k, move.cost, move.moved, move.halvings, move.step) for k, move in visited)
        ends.append((state, derived))
    return ends, log


def _visits(scenario, order, sweeps=2):
    count = len(scenario.layout.blocks)
    rng = np.random.default_rng(17)
    out = []
    for _ in range(sweeps):
        visit = list(range(count))
        if order == "random":
            rng.shuffle(visit)
        out.append(visit)
    return out


def _assert_same_sweeps(scenario, state, order, what, runs_seen, sweeps=2):
    visits = _visits(scenario, order, sweeps)
    want_ends, want_log = _sweep_block_by_block(scenario, state, visits)
    got_ends, got_log = _sweep_by_runs(scenario, state, visits, runs_seen)
    assert len(got_log) == len(want_log), what
    for got, want in zip(got_log, want_log):
        assert got[0] == want[0] and got[2:4] == want[2:4], f"{what}, block {want[0]}"
        for a, b in ((got[1], want[1]), (got[4], want[4])):
            assert float(a).hex() == float(b).hex(), f"{what}, block {want[0]}"
    for sweep, ((st, der), (want_st, want_der)) in enumerate(zip(got_ends, want_ends)):
        for kind in FAMILIES:
            _assert_bitwise(getattr(st, kind), getattr(want_st, kind), f"{what}, sweep {sweep}: {kind}")
            _assert_bitwise(getattr(der.state, kind), getattr(st, kind), f"{what}, sweep {sweep}: {kind}")
        _assert_bitwise(der.link_cost, want_der.link_cost, f"{what}, sweep {sweep}: link cost")
        _assert_bitwise(der.total, want_der.total, f"{what}, sweep {sweep}: total")
    return got_log, [state] + [st for st, _ in got_ends]


@pytest.fixture(scope="module")
def run_states(sweep_states):
    """sweep_states without the random interior states of the small
    scenarios, and an 8x8 grid at the even split, a random interior state
    and after two sweeps."""
    out = [(label, scen, st) for label, scen, st in sweep_states if "grid" in label or "interior" not in label]
    rng = np.random.default_rng(92)
    grid = grid_scenario(rng, 8, 2)
    even = uniform_state(grid, 0.9, 0.1)
    out.append(("grid 8x8, even split", grid, even))
    out.append(("grid 8x8, interior", grid, random_interior_state(grid, rng)))
    out.append(("grid 8x8, two sweeps", grid, solve(grid, even, max_sweeps=2, tol=0.0).state))
    return out


def test_separable_runs_match_the_block_by_block_sweep(run_states):
    # a mu or eta block changes the link cost of its own entries only, so a
    # run of them priced by one evaluation and replayed in block order is,
    # bit for bit, the sequential update of its blocks
    runs_seen = dict.fromkeys(SEPARABLE, 0)
    moved_in_runs = solved = 0
    for label, scen, st in run_states:
        for order in ("round_robin", "random"):
            what = f"{label}, {order}"
            log, states = _assert_same_sweeps(scen, st, order, what, runs_seen)
            moved_in_runs += sum(entry[2] for entry in log if scen.layout.blocks[entry[0]].kind in SEPARABLE)
            # solve cuts its visit orders (seeded as _visits seeds them) the
            # same way; it stops early where the residual reaches zero
            res = solve(scen, st, max_sweeps=2, tol=0.0, order=order, seed=17)
            for kind in FAMILIES:
                _assert_bitwise(getattr(res.state, kind), getattr(states[res.sweeps], kind), f"{what}: solve's {kind}")
            solved += res.sweeps == 2
    assert all(runs_seen.values()), runs_seen
    assert moved_in_runs > 0 and solved > 0


def test_step_cap_is_read_where_solve_and_the_block_by_block_sweep_read_it(run_states, monkeypatch):
    # the step rule has one home: raising its cap changes solve's steps and
    # the reference loop's alike, so they still end in the same state
    label, scen, st = next(case for case in run_states if case[0] == "square, even split")
    capped = solve(scen, st, max_sweeps=2, tol=0.0)
    monkeypatch.setattr(optimizer, "MAX_STEP", 16.0)
    res = solve(scen, st, max_sweeps=2, tol=0.0)
    ends, log = _sweep_block_by_block(scen, st, _visits(scen, "round_robin"))
    assert res.sweeps == 2 and max(entry[4] for entry in log if entry[2]) > 1.0
    assert any(not np.array_equal(getattr(res.state, kind), getattr(capped.state, kind)) for kind in FAMILIES)
    for kind in FAMILIES:
        _assert_bitwise(getattr(res.state, kind), getattr(ends[-1][0], kind), f"{label}, cap 16: {kind}")


def test_rejections_inside_a_run_match_the_block_by_block_sweep(run_states, monkeypatch):
    # with a tenth of the curvature scaling, first steps overshoot: trials
    # are rejected, some priced infinite, and blocks halve inside runs
    monkeypatch.setattr(optimizer, "SAFETY", 0.2)
    totals = []
    real_summed = optimizer.summed_cost

    def recording(*args):
        totals.append(real_summed(*args))
        return totals[-1]

    monkeypatch.setattr(optimizer, "summed_cost", recording)
    runs_seen = dict.fromkeys(SEPARABLE, 0)
    halved = 0
    for label, scen, st in run_states:
        if "two sweeps" in label:
            continue
        table = scen.layout.blocks
        log, _ = _assert_same_sweeps(scen, st, "round_robin", label, runs_seen)
        halved += sum(1 for k, _, _, halvings, _ in log if halvings and table[k].kind in SEPARABLE)
    assert halved > 0
    assert any(math.isinf(t) for t in totals)
    # a bar above the linear prediction: only blocks along which the cost
    # is concave pass, so blocks that give up sit in runs next to blocks
    # that move; an unattainable bar rejects every trial until the step no
    # longer moves the block or the halvings run out
    ends = set()
    mixed = 0
    for armijo in (1.5, 1e6):
        monkeypatch.setattr(optimizer, "ARMIJO", armijo)
        for label, scen, st in run_states:
            if label in ("line3, even split", "grid 4x4, even split", "grid 5x5, interior"):
                table = scen.layout.blocks
                what = f"{label}, ARMIJO {armijo}"
                log, _ = _assert_same_sweeps(scen, st, "round_robin", what, runs_seen, sweeps=1)
                log = [entry for entry in log if table[entry[0]].kind in SEPARABLE]
                ends |= {halvings for _, _, moved, halvings, _ in log if not moved}
                gave_up = [i for i, (_, _, moved, halvings, _) in enumerate(log) if not moved and halvings]
                mixed += bool(gave_up) and any(moved for _, _, moved, _, _ in log[gave_up[0] :])
    assert optimizer.MAX_HALVINGS in ends and len(ends - {0, optimizer.MAX_HALVINGS}) > 0, ends
    assert mixed > 0


def _gap(a: float, b: float) -> float:
    """a - b with equal infinities treated as a zero gap."""
    if a == b:
        return 0.0
    return a - b


def _simplex_residual(vals, used, excluded=None):
    keep = np.ones(len(vals), dtype=bool) if excluded is None else ~np.asarray(excluded, dtype=bool)
    used = np.asarray(used, dtype=bool) & keep
    unused = ~np.asarray(used, dtype=bool) & keep
    if not np.any(used):
        return 0.0
    u = vals[used]
    witness = float(np.min(u))
    spread = _gap(float(np.max(u)), witness)
    viol = 0.0
    if np.any(unused):
        viol = max(0.0, _gap(witness, float(np.min(vals[unused]))))
    return max(spread, viol)


def _loop_residuals(scenario, state, derived):
    """optimality_residuals block by block: the reference for its array form."""
    marginal = {
        "eta": derived.eta_delta,
        "rho": derived.gradient("rho"),
        "mu": derived.gradient("mu"),
        "phi": derived.delta_phi,
        "phi_w": derived.gradient("phi_w"),
    }
    load = {
        "eta": derived.physical.node_band_power,
        "mu": derived.flows.link_flow,
        "phi": derived.flows.inflow,
    }
    worst = dict.fromkeys(FAMILIES, 0.0)
    for block in scenario.layout.blocks:
        kind, key = block.kind, block.key
        if kind in load and load[kind][block.group] <= 0:
            continue
        vals = marginal[kind].ravel()[key]
        cur = getattr(state, kind).ravel()[key]
        used = cur > SUPPORT_TOL
        constraint = FAMILIES[kind].constraint
        if constraint == "sum_to_one":
            res = _simplex_residual(vals, used, excluded=derived.blocked(*block.group) if kind == "phi" else None)
        elif constraint == "sum_at_most_one":
            tight = float(cur.sum()) >= 1.0 - SLACK_TOL
            witness = 0.0
            res = 0.0
            if np.any(used):
                low = float(np.min(vals[used]))
                witness = min(0.0, low) if tight else 0.0
                res = max(_gap(float(np.max(vals[used])), witness), _gap(witness, low), 0.0)
            if np.any(~used):
                res = max(res, _gap(witness, float(np.min(vals[~used]))))
        else:
            g = vals[0]
            if cur[0] <= SUPPORT_TOL:
                res = max(0.0, -g)
            elif cur[0] >= 1.0 - SUPPORT_TOL:
                res = max(0.0, g)
            else:
                res = abs(g)
        worst[kind] = max(worst[kind], res)
    return Residuals(eta=worst["eta"], rho=worst["rho"], mu=worst["mu"], phi=worst["phi"], overflow=worst["phi_w"])


def _link(scenario, tail, head):
    return scenario.layout.links.index((tail, head))


def _edge_states():
    """(label, scenario, state) at the edges of the residual rules, each
    checked to hold the case it names."""
    out = []
    line3 = line3_scenario()
    # phi_w on its bounds; near rejection node 1 still has inflow
    out.append(("line3, nothing rejected", line3, uniform_state(line3, 0.9, 0.0)))
    out.append(("line3, all rejected", line3, uniform_state(line3, 0.05, 1.0)))
    # an unloaded group with unequal marginals: node 1 of a triangle routes
    # back to node 0, which sends nothing to it; the link 0->1 it would
    # close a cycle with is blocked and undercuts node 0's used link 0->2
    tri = three_node_scenario(complete_graph(3), 3, 2.0)
    st = uniform_state(tri, 0.9, 0.0)
    st.phi[0] = 0.0
    st.phi[0, _link(tri, 0, 2)] = 1.0
    st.phi[0, [_link(tri, 1, 0), _link(tri, 1, 2)]] = [0.1, 0.9]
    der = derive(tri, st)
    assert der.flows.inflow[0, 1] == 0.0 and der.blocked(0, 0).tolist() == [True, False]
    marg = der.delta_phi[0]
    assert marg[_link(tri, 1, 0)] != marg[_link(tri, 1, 2)]
    assert marg[_link(tri, 0, 1)] < marg[_link(tri, 0, 2)]
    out.append(("triangle, blocked link", tri, st))
    # tight and slack power rows whose in-order float sums land on either
    # side of the tightness bound, each opposite to its exact sum, and a
    # tight row whose used marginals are all positive
    six = three_node_scenario(path_graph(3), 6, 0.5)
    st = uniform_state(six, 1.0, 0.1)
    rows = {
        0: [0.386160245011157, 0.3396348050659725, 0.2742049489228705],
        1: [0.5148939199254647, 0.3236119562060325, 0.16149412286850276],
        2: [0.2, 0.5, 0.3],
    }
    for i, row in rows.items():
        st.rho[i, six.layout.rho_mask[i]] = row
    bound = 1.0 - SLACK_TOL
    sums = [float(st.rho[i, six.layout.rho_mask[i]].sum()) for i in rows]
    assert sums[0] >= bound > math.fsum(rows[0]) and sums[1] < bound <= math.fsum(rows[1]) and sums[2] >= bound
    assert np.all(derive(six, st).gradient("rho")[2, six.layout.rho_mask[2]] > 0.0)
    out.append(("line3 on six bands, tight and slack rows", six, st))
    # an infinite marginal: node 1 puts no power on one band of the loaded
    # link 1->2 and no flow on it, so that band's d_f is infinite
    st = uniform_state(six, 0.9, 0.1)
    sl = six.layout.link_slices[_link(six, 1, 2)]
    st.rho[1, six.layout.ent_band[sl.start]] = 0.0
    st.mu[sl] = [0.0, 0.5, 0.5]
    der = derive(six, st)
    assert math.isfinite(der.total) and np.isinf(der.gradient("mu")[sl.start])
    out.append(("line3 on six bands, infinite marginal", six, st))
    # off the feasible set: the loaded link 0->1 splits no flow over its
    # bands, so its share group has no used coordinate
    st = uniform_state(six, 0.9, 0.1)
    st.mu[six.layout.link_slices[_link(six, 0, 1)]] = 0.0
    assert math.isfinite(derive(six, st).total)
    out.append(("line3 on six bands, a loaded group with nothing used", six, st))
    return out


def test_residuals_equal_the_per_block_loop(sweep_states):
    families = [f.name for f in fields(Residuals)]
    for label, scen, st in sweep_states + _edge_states():
        der = derive(scen, st)
        got = optimality_residuals(scen, st, der)
        want = _loop_residuals(scen, st, der)
        for name in families:
            assert getattr(got, name) == getattr(want, name), f"{label}: {name}"
            assert float(getattr(got, name)).hex() == float(getattr(want, name)).hex(), f"{label}: {name}"
