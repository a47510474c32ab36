"""Independent reference solver and the finite-difference harness.

The reference search knows nothing about the analytic gradients, so
agreement with the block solver on small instances is evidence for both.
A deliberate fault injection makes sure the agreement test would catch a
biased evaluator rather than silently passing.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from duplexnet import oracle as oracle_mod
from duplexnet.oracle import (
    BoundaryTooCloseError,
    TooLargeError,
    finite_diff_check,
    reference_solve_small,
)
from duplexnet.optimizer import solve
from duplexnet.scenario import (
    CostParams,
    DerivedState,
    NetworkScenario,
    Session,
    evaluate_physical,
    total_cost,
    uniform_state,
)
from duplexnet.subband import SpectrumAllocation, allocate_subbands

import helpers
from helpers import (
    line3_scenario,
    line5_scenario,
    pair_scenario,
    path_graph,
    random_interior_state,
    random_scenario,
    square_scenario,
)

ROOT = Path(__file__).resolve().parent.parent


def _reference_cases():
    """The seeded reference runs that tools/fingerprint.py digests."""
    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "tools" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.reference_cases(helpers))


def test_reference_matches_solver_on_line():
    line3 = line3_scenario()
    res = solve(line3, uniform_state(line3, 0.9, 0.1), max_sweeps=400, tol=1e-4)
    ref = reference_solve_small(line3, seed=0, restarts=5)
    assert abs(res.cost - ref.cost) / ref.cost <= 1e-6
    # every restart lands in the same basin on this instance
    spread = max(ref.restart_costs) - min(ref.restart_costs)
    assert spread / ref.cost <= 1e-6
    assert ref.evaluations > 0


def test_reference_reports_true_cost_of_returned_state():
    line3 = line3_scenario()
    ref = reference_solve_small(line3, seed=0, restarts=3)
    assert total_cost(line3, ref.state) == pytest.approx(ref.cost, rel=1e-9)


def test_reference_is_deterministic():
    line3 = line3_scenario()
    a = reference_solve_small(line3, seed=4, restarts=3)
    b = reference_solve_small(line3, seed=4, restarts=3)
    assert a.cost == b.cost
    assert a.restart_costs == b.restart_costs
    for name in ("rho", "eta", "mu", "phi", "phi_w"):
        assert getattr(a.state, name).tobytes() == getattr(b.state, name).tobytes(), name
    assert a.evaluations == b.evaluations


def _two_band_line3():
    """line3 with its middle node sending on two of the three bands, so
    that a transfer between its entries moves power across bands."""
    line3 = line3_scenario()
    alloc = SpectrumAllocation(
        3,
        {0: 0b100, 1: 0b011, 2: 0b100},
        {(0, 1): 0b100, (2, 1): 0b100, (1, 0): 0b011, (1, 2): 0b011},
    )
    return NetworkScenario(
        graph=line3.graph,
        allocation=alloc,
        gains=line3.gains,
        noise=line3.noise,
        power_budget=line3.power_budget,
        sessions=line3.sessions,
        cost=line3.cost,
    )


def _point_inside(problem, rng):
    """A random point of the constraint set: each node's powers and each
    session's path flows scaled under their budget and demand, each link's
    shares over their sum."""
    scen = problem.scenario
    vec = rng.uniform(0.05, 0.4, 2 * problem.n_power + problem.n_flow)
    p, flows, shares = problem.split(vec)
    for idx, budget in zip(problem.node_entries, scen.power_budget):
        p[idx] *= rng.uniform(0.3, 0.95) * budget / p[idx].sum()
    for ks, sess in zip(problem.session_flows, scen.sessions):
        flows[ks.start : ks.stop] *= rng.uniform(0.3, 0.95) * sess.demand / flows[ks.start : ks.stop].sum()
    for sl in scen.layout.link_slices:
        shares[sl] /= shares[sl].sum()
    return vec


def _assert_inside(problem, vec):
    scen = problem.scenario
    p, flows, shares = problem.split(vec)
    assert p.min() >= 0.0 and flows.min() >= 0.0 and shares.min() > 0.0
    for idx, budget in zip(problem.node_entries, scen.power_budget):
        assert p[idx].sum() <= budget
    for ks, sess in zip(problem.session_flows, scen.sessions):
        assert flows[ks.start : ks.stop].sum() <= sess.demand
    for sl in scen.layout.link_slices:
        assert abs(math.fsum(shares[sl]) - 1.0) <= 4 * np.finfo(float).eps, shares[sl]


def test_every_section_equals_evaluate_of_the_moved_vector():
    # a section prices again only what its move changes; at every point
    # it must give exactly evaluate of the vector minimize_coord would set
    rng = np.random.default_rng(71)
    scens = [line3_scenario(), _two_band_line3(), square_scenario()]
    scens += [random_scenario(rng, 4, q, w) for q, w in ((3, 2), (2, 1), (3, 1), (2, 2))]
    kinds = set()
    checked = infinite = 0
    for scen in scens:
        problem = oracle_mod._OracleProblem(scen)
        for _ in range(2):
            # a random point: a power and a band share per entry, a flow per path
            vec = _point_inside(problem, rng)
            search = oracle_mod._Search(problem, vec)
            for c in search.coords:
                built = search._section(c)
                if built is None:
                    continue
                kinds.add(c.kind)
                fun, lo, hi, cur = built
                for x in (lo, cur, hi, lo + 0.3 * (hi - lo), lo + 0.8 * (hi - lo)):
                    moved = vec.copy()
                    arr = dict(zip("pfs", problem.split(moved)))[c.kind[0]]
                    if c.kind in ("p", "f"):
                        arr[c.a] = x
                    else:
                        arr[c.a] = max(0.0, arr[c.a] + x)
                        arr[c.b] = max(0.0, arr[c.b] - x)
                    want = problem.evaluate(moved)
                    got = fun(x)
                    assert got == want, (c, x, got, want)
                    checked += 1
                    infinite += got == math.inf
    assert kinds == {"p", "pt", "f", "ft", "st"}, kinds
    # at lo, a loaded entry keeps no power, so some sections are infinite
    assert checked > 800 and infinite > 0, (checked, infinite)


def test_agreement_test_catches_biased_evaluator(monkeypatch):
    # bias the oracle's one pricing by a flow-dependent term, 0.05 times
    # each session's routed flow; the reported optimum must then disagree
    # with the true cost function, which is exactly what the
    # solver-vs-reference comparison relies on
    line3 = line3_scenario()
    orig = oracle_mod._OracleProblem.overflow

    def biased(self, w, fl):
        return orig(self, w, fl) + 0.05 * self.routed(w, fl)

    monkeypatch.setattr(oracle_mod._OracleProblem, "overflow", biased)
    bad = reference_solve_small(line3, seed=0, restarts=3)
    monkeypatch.undo()
    assert abs(bad.cost - total_cost(line3, bad.state)) > 1e-3


def test_reference_prices_each_start_and_each_accepted_move_once(monkeypatch):
    # a move is accepted at its section value, so the one full pricing of
    # a point is the refresh that keeps its pieces; every start (a search
    # begun at a random point) and every accepted move is priced once
    calls = dict.fromkeys(("price", "start", "accepted"), 0)
    real_price = oracle_mod._OracleProblem.price
    real_init = oracle_mod._Search.__init__
    real_minimize = oracle_mod._Search.minimize_coord

    def price(self, *args):
        calls["price"] += 1
        return real_price(self, *args)

    def init(self, problem, vec):
        calls["start"] += 1
        real_init(self, problem, vec)

    def minimize_coord(self, c):
        moved = real_minimize(self, c)
        calls["accepted"] += moved
        return moved

    monkeypatch.setattr(oracle_mod._OracleProblem, "price", price)
    monkeypatch.setattr(oracle_mod._Search, "__init__", init)
    monkeypatch.setattr(oracle_mod._Search, "minimize_coord", minimize_coord)
    ref = reference_solve_small(square_scenario(), seed=0, restarts=3, sweeps=8)
    assert calls["start"] == 3 and calls["accepted"] > 0, calls
    assert calls["price"] == calls["start"] + calls["accepted"], calls
    assert ref.evaluations > calls["price"]


def test_every_start_the_search_draws_lies_in_the_constraint_set(monkeypatch):
    # the search has no projection: each restart draws its powers under
    # the budgets, its path flows under the demands and its shares over
    # their sums, and the shrink loop only scales flows down; a start is
    # every point priced before the sweeps begin
    starts = []
    real_refresh = oracle_mod._Search.refresh
    real_run = oracle_mod._Search.run

    def refresh(self):
        if not getattr(self, "running", False):
            starts.append((self.problem, self.vec.copy()))
        real_refresh(self)

    def run(self, *args):
        self.running = True
        real_run(self, *args)

    monkeypatch.setattr(oracle_mod._Search, "refresh", refresh)
    monkeypatch.setattr(oracle_mod._Search, "run", run)
    runs = [(scen, kwargs) for _, scen, kwargs in _reference_cases()]
    runs.append((_two_band_line3(), dict(restarts=4, sweeps=4)))
    rng = np.random.default_rng(72)
    for k in range(6):
        runs.append((random_scenario(rng, 4, 2 + k % 2, 1 + k % 2), dict(seed=k, restarts=3, sweeps=4)))
    for scen, kwargs in runs:
        reference_solve_small(scen, **kwargs)
    assert len(starts) >= sum(kwargs.get("restarts", 5) for _, kwargs in runs)
    for problem, vec in starts:
        _assert_inside(problem, vec)


def test_freeze_power_reduces_to_scalar_problem():
    """With frozen power the two-node case is a one-dimensional search.

    The session rides a single (link, band) entry, so the optimum over
    flow f is min f / (cap - f) + w * (ln(1 + d) - ln(1 + f)) on [0, d],
    solvable independently with a bounded scalar minimizer.
    """
    pair = pair_scenario()
    ref = reference_solve_small(pair, seed=0, restarts=5, freeze_power=True)
    phys = evaluate_physical(pair, ref.state)
    lay = pair.layout
    loaded = [e for e in range(lay.n_entries) if lay.ent_tx[e] == lay.origin[0]]
    cap = max(
        pair.cost.bandwidth * math.log(pair.cost.gain_factor * phys.sinr[e]) for e in loaded
    )
    d = pair.sessions[0].demand
    w = pair.sessions[0].utility.weight

    def scalar_cost(f):
        return f / (cap - f) + w * (math.log(1.0 + d) - math.log(1.0 + f))

    r = minimize_scalar(scalar_cost, bounds=(0.0, d), method="bounded",
                        options={"xatol": 1e-12})
    assert ref.cost <= r.fun + 1e-9, "reference must not lose to the scalar search"
    assert abs(ref.cost - r.fun) <= 1e-6


def test_size_guards():
    with pytest.raises(TooLargeError, match="nodes"):
        reference_solve_small(line5_scenario())
    line3 = line3_scenario()
    many = NetworkScenario(
        graph=line3.graph,
        allocation=line3.allocation,
        gains=line3.gains,
        noise=line3.noise,
        power_budget=line3.power_budget,
        sessions=(Session(0, 2, 0.2), Session(2, 0, 0.2), Session(0, 1, 0.1)),
        cost=line3.cost,
    )
    with pytest.raises(TooLargeError, match="sessions"):
        reference_solve_small(many)
    g = path_graph(3)
    wide = NetworkScenario(
        graph=g,
        allocation=allocate_subbands(g, 4),
        gains=np.tile(line3.gains[:1], (4, 1, 1)),
        noise=np.tile(line3.noise[:1], (4, 1)),
        power_budget=line3.power_budget,
        sessions=line3.sessions,
        cost=CostParams(),
    )
    with pytest.raises(TooLargeError, match="bands"):
        reference_solve_small(wide)


@pytest.mark.parametrize("kwargs", [dict(restarts=0), dict(restarts=-2), dict(sweeps=0), dict(sweeps=-1)])
def test_reference_rejects_fewer_than_one_restart_or_sweep(kwargs):
    # a search of no restarts or no sweeps is bad input, not one of each
    with pytest.raises(ValueError, match="at least 1"):
        reference_solve_small(line3_scenario(), **kwargs)


def test_finite_diff_check_rejects_boundary_states():
    # at full power the single loaded entry has capacity ln(50 * 500),
    # about 10.13; a demand of 9.8 parks the flow inside the headroom
    # band where central differences would straddle the barrier
    pair = pair_scenario(demand=9.8)
    st = uniform_state(pair, 1.0, 0.0)
    with pytest.raises(BoundaryTooCloseError):
        finite_diff_check(pair, st)


def test_finite_diff_check_rejects_infinite_state():
    line3 = line3_scenario()
    st = uniform_state(line3, 0.9, 0.1)
    st.rho[:, :] = 0.0
    with pytest.raises(ValueError, match="finite"):
        finite_diff_check(line3, st)


def test_finite_diff_check_is_accurate_where_one_small_step_is_not():
    # one central difference at h = 1e-6 misses an eta partial of this
    # state by 1.5e-5; the miss falls 4x per halving of h, so it is
    # truncation error, not rounding
    rng = np.random.default_rng(63)
    scen = random_scenario(rng)
    st = [random_interior_state(scen, rng) for _ in range(3)][-1]
    rep = finite_diff_check(scen, st)
    assert rep.families["eta"].checked > 0
    assert rep.worst <= 1e-5, rep


def test_finite_diff_check_flags_a_scaled_gradient(monkeypatch):
    # every stored gradient 1e-4 too large: on each state of gate 6, each
    # family with a checked coordinate must fail the 1e-5 gate
    real = DerivedState.gradient
    monkeypatch.setattr(DerivedState, "gradient", lambda self, kind: real(self, kind) * (1.0 + 1e-4))
    rng = np.random.default_rng(6)
    checked = 0
    for _ in range(10):
        scen = random_scenario(rng)
        for _ in range(20):
            rep = finite_diff_check(scen, random_interior_state(scen, rng))
            for kind, fam in rep.families.items():
                assert fam.checked == 0 or fam.max_rel_err > 1e-5, (kind, fam)
                checked += fam.checked > 0
    assert checked == 1000
