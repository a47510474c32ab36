"""Release acceptance gates.

One test per numbered gate. Each gathers its evidence, prints a single
"criterion N: PASS/FAIL" line through the conftest fixture, then asserts,
so the verdict line appears even when a gate fails. Gate 7 is expected to
fail on its first clause: the bundled link cost family really does have an
indefinite curvature matrix over the whole finite-cost domain, and the
checker reports that instead of being loosened to hide it.
"""

import time
from math import comb

import numpy as np
import pytest

from duplexnet import (
    Join,
    Leave,
    TooLargeError,
    allocate_subbands,
    apply_topology_change,
    brute_force_min_colors,
    check_allocation,
    check_m_psd,
    chromatic_number,
    finite_diff_check,
    interference_stats,
    min_subband_count,
    reference_solve_small,
    solve,
    uniform_state,
)
from helpers import (
    complete_graph,
    cycle_graph,
    line3_scenario,
    path_graph,
    random_connected_graph,
    random_interior_state,
    random_scenario,
    star_graph,
)


@pytest.fixture(scope="module")
def protocol_corpus():
    # 100 random connected link-symmetric graphs, each with 10 protocol
    # seeds; gates 3 and 4 must run on the same draw
    rng = np.random.default_rng(3)
    corpus = []
    for _ in range(100):
        g = random_connected_graph(rng)
        seeds = [int(rng.integers(0, 10**6)) for _ in range(10)]
        corpus.append((g, seeds))
    return corpus


@pytest.fixture(scope="module")
def solver_corpus():
    # 10 random allocation scenarios; the first four are forced down to
    # reference-solver size so gate 8 can compare against it
    rng = np.random.default_rng(0)
    corpus = []
    for k in range(10):
        if k < 4:
            bands = int(rng.integers(2, 4))
            sessions = int(rng.integers(1, 3))
            corpus.append(
                random_scenario(rng, n_nodes=4, band_count=bands, n_sessions=sessions)
            )
        else:
            corpus.append(random_scenario(rng))
    return corpus


def test_criterion_1_brute_force_matches_subband_bound(criterion):
    families = [
        ("K2", complete_graph(2), 2),
        ("K3", complete_graph(3), 3),
        ("K4", complete_graph(4), 4),
        ("K5", complete_graph(5), 4),
        ("P3", path_graph(3), 2),
        ("P4", path_graph(4), 2),
        ("C4", cycle_graph(4), 2),
        ("C5", cycle_graph(5), 3),
        ("star-4", star_graph(4), 2),
    ]
    t0 = time.perf_counter()
    mismatches = []
    for name, g, expected in families:
        chi, exact = chromatic_number(g)
        bound = min_subband_count(chi)
        brute = brute_force_min_colors(g)
        if not (exact and brute == bound == expected):
            mismatches.append(f"{name}: brute={brute} bound={bound} expected={expected}")
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0
    criterion(
        f"criterion 1: {'PASS' if ok else 'FAIL'} "
        f"(exhaustive minimum equals the subband bound on all "
        f"{len(families)} graph families, {elapsed:.2f}s)"
    )
    assert not mismatches, mismatches
    assert elapsed < 60.0


def test_criterion_2_subband_table_matches_enumeration(criterion):
    def enumerated(n):
        # smallest q whose half-size subsets can host n distinct sets
        q = 1
        while comb(q, q // 2) < n:
            q += 1
        return q

    table = [min_subband_count(n) for n in range(1, 21)]
    oracle = [enumerated(n) for n in range(1, 21)]
    key = (min_subband_count(4), min_subband_count(7), min_subband_count(20))
    ok = table == oracle and key == (4, 5, 6)
    criterion(
        f"criterion 2: {'PASS' if ok else 'FAIL'} "
        f"(band requirement table for 1..20 colors matches direct "
        f"enumeration; 4->4, 7->5, 20->6)"
    )
    assert table == oracle
    assert key == (4, 5, 6)


def test_criterion_3_protocol_never_violates(criterion, protocol_corpus):
    t0 = time.perf_counter()
    violations = 0
    runs = 0
    swaps = enumerations = 0
    for g, seeds in protocol_corpus:
        q = min_subband_count(max(g.degrees()) + 1)
        for s in seeds:
            alloc = allocate_subbands(g, q, seed=s)
            if not check_allocation(g, alloc).ok:
                violations += 1
            runs += 1
            swaps += alloc.fallbacks[0]
            enumerations += alloc.fallbacks[1]
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    criterion(
        f"criterion 3: {'PASS' if ok else 'FAIL'} "
        f"({runs} protocol runs at the tight band count, {violations} "
        f"duplexing/coverage violations, {swaps} selections by swap repair "
        f"and {enumerations} by subset enumeration, {elapsed:.1f}s)"
    )
    assert violations == 0
    assert elapsed < 30.0


def test_criterion_4_interference_graph_bound_dominates(criterion, protocol_corpus):
    bound_failures = 0
    degree_failures = 0
    for g, _ in protocol_corpus:
        delta = max(g.degrees())
        stats = interference_stats(g)
        if stats.max_degree + 1 < min_subband_count(delta + 1):
            bound_failures += 1
        if stats.max_degree < delta:
            degree_failures += 1
    ok = bound_failures == 0 and degree_failures == 0
    criterion(
        f"criterion 4: {'PASS' if ok else 'FAIL'} "
        f"(link-conflict coloring bound dominates the duplexing-aware bound "
        f"on {len(protocol_corpus)}/{len(protocol_corpus)} graphs)"
    )
    assert bound_failures == 0
    assert degree_failures == 0


def test_criterion_5_leave_join_robustness(criterion):
    rng = np.random.default_rng(5)
    leave_bad = 0
    for _ in range(100):
        g = random_connected_graph(rng)
        q = min_subband_count(max(g.degrees()) + 1)
        alloc = allocate_subbands(g, q, seed=int(rng.integers(0, 10**6)))
        victim = int(rng.choice(sorted(g.nodes)))
        res = apply_topology_change(g, alloc, Leave(victim))
        for v, mask in res.allocation.outgoing.items():
            if mask != alloc.outgoing[v]:
                leave_bad += 1
        if res.graph is not None and not res.disconnected:
            if not check_allocation(res.graph, res.allocation).ok:
                leave_bad += 1
    join_bad = 0
    for _ in range(100):
        g = random_connected_graph(rng)
        delta = max(g.degrees())
        q = min_subband_count(delta + 1)
        alloc = allocate_subbands(g, q, seed=int(rng.integers(0, 10**6)))
        deg = int(rng.integers(1, delta + 1))
        nbrs = tuple(int(v) for v in rng.choice(sorted(g.nodes), size=deg, replace=False))
        res = apply_topology_change(
            g, alloc, Join(max(g.nodes) + 1, nbrs), seed=int(rng.integers(0, 10**6))
        )
        for v, mask in alloc.outgoing.items():
            if v not in nbrs and res.allocation.outgoing[v] != mask:
                join_bad += 1
        if not check_allocation(res.graph, res.allocation).ok:
            join_bad += 1
    ok = leave_bad == 0 and join_bad == 0
    criterion(
        f"criterion 5: {'PASS' if ok else 'FAIL'} "
        f"(100 leaves and 100 joins: feasibility preserved, untouched "
        f"band sets bit-identical; {leave_bad + join_bad} deviations)"
    )
    assert leave_bad == 0
    assert join_bad == 0


def test_criterion_6_analytic_gradients_match_finite_differences(criterion):
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    worst = 0.0
    states = 0
    for _ in range(10):
        scen = random_scenario(rng)
        for _ in range(20):
            st = random_interior_state(scen, rng)
            rep = finite_diff_check(scen, st)
            assert set(rep.families) == {"rho", "eta", "mu", "phi", "phi_w"}
            worst = max(worst, rep.worst)
            states += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 120.0
    criterion(
        f"criterion 6: {'PASS' if ok else 'FAIL'} "
        f"(all analytic partials on {states} interior states, worst "
        f"relative error {worst:.2e} <= 1e-5, {elapsed:.1f}s)"
    )
    assert worst <= 1e-5
    assert elapsed < 120.0


def test_criterion_7_curvature_scan(criterion):
    # the checker itself must reject a definite saddle before its verdict
    # on the bundled family means anything
    saddle = check_m_psd(derivs=lambda x, f: (-f, -x, 0.0, 0.0, -1.0))
    assert not saddle.psd
    rep = check_m_psd(grid=50)
    ok = rep.psd and rep.min_eigenvalue >= -1e-10
    criterion(
        f"criterion 7: {'PASS' if ok else 'FAIL'} "
        f"(bundled cost family min curvature eigenvalue "
        f"{rep.min_eigenvalue:.4f} on a 50x50 grid; saddle counterexample "
        f"rejected: yes). The family is genuinely indefinite; see README."
    )
    assert rep.min_eigenvalue >= -1e-10, (
        "the bundled cost family fails the positive-semidefinite scan "
        "everywhere on its finite-cost domain; this gate documents that "
        "honestly instead of loosening the check"
    )


def test_criterion_8_descent_and_reference_agreement(criterion, solver_corpus):
    t0 = time.perf_counter()
    monotone_breaks = 0
    worst_residual = 0.0
    unconverged = 0
    gaps = []
    for scen in solver_corpus:
        res = solve(scen, uniform_state(scen, 0.9, 0.1), max_sweeps=400, tol=1e-4)
        costs = [row.cost for row in res.trace]
        monotone_breaks += sum(1 for a, b in zip(costs, costs[1:]) if b > a + 1e-12)
        worst_residual = max(worst_residual, res.residual)
        if not res.converged:
            unconverged += 1
        try:
            ref = reference_solve_small(scen, seed=0, restarts=10)
        except TooLargeError:
            continue
        gaps.append(abs(res.cost - ref.cost) / ref.cost)
    elapsed = time.perf_counter() - t0
    ok = (
        monotone_breaks == 0
        and unconverged == 0
        and worst_residual <= 1e-4
        and gaps
        and max(gaps) <= 1e-3
        and elapsed < 300.0
    )
    criterion(
        f"criterion 8: {'PASS' if ok else 'FAIL'} "
        f"(10 solves: nonincreasing traces, worst residual "
        f"{worst_residual:.2e}, reference gap <= {max(gaps):.2e} on "
        f"{len(gaps)} reference-sized scenarios, {elapsed:.1f}s)"
    )
    assert monotone_breaks == 0
    assert unconverged == 0
    assert worst_residual <= 1e-4
    assert gaps and max(gaps) <= 1e-3
    assert elapsed < 300.0


# Gate 9's final costs, run by run (5 starts per scenario, each in both
# orders), with MAX_STEP 16 and the skip rule.  At MAX_STEP 1, visiting
# every block, 16 runs ended higher, 14 of them stopped at the 400-sweep
# cap: run 85 at 0.270088, run 58 at 0.597787 and the other 14 by 2e-5 to
# 2.6e-4.  A change that moves a run to another stationary point fails
# the gate and names the run.
GATE9_FINALS = (
    0.049241529, 0.049241529, 0.049241529, 0.049241529, 0.049241529,
    0.049241529, 0.049241529, 0.049241529, 0.049241529, 0.049241529,
    0.0510054815, 0.0510054815, 0.0510054815, 0.0510054815, 0.0510054815,
    0.0510054815, 0.0510054815, 0.0510054815, 0.0510054815, 0.0510054815,
    0.0411210165, 0.0411210165, 0.0515926232, 0.0515926232, 0.0515926232,
    0.0515926232, 0.0411210165, 0.0411210165, 0.0515926232, 0.0515926232,
    0.333023295, 0.333023295, 0.25841759, 0.25841759, 0.25841759,
    0.25841759, 0.333023295, 0.333023295, 0.25841759, 0.25841759,
    0.0159072084, 0.0159072084, 0.0159072084, 0.0159072084, 0.0159072084,
    0.0159072084, 0.0159072084, 0.0159072084, 0.0159072084, 0.0159072084,
    0.597777145, 0.597777144, 0.583316774, 0.725640781, 0.597777143,
    0.597777143, 0.597777143, 0.597777143, 0.583316774, 0.597777144,
    0.56903575, 0.569035783, 0.720081787, 0.793377436, 0.661158646,
    0.661158583, 0.661158607, 0.661158628, 0.720427299, 0.720427299,
    0.813599219, 0.813599219, 0.813599219, 0.813599219, 0.813599219,
    0.813599219, 0.813599219, 0.813599219, 0.813599219, 0.813599219,
    0.270088314, 0.270088307, 0.205308166, 0.270088308, 0.270088299,
    0.205308261, 0.205308202, 0.205308168, 0.205308202, 0.205308225,
    0.0697283068, 0.0697283068, 0.0697283068, 0.444956694, 0.0697283068,
    0.0697283068, 0.0697283068, 0.0697283068, 0.0697283068, 0.0697283068,
)


def test_criterion_9_init_and_order_independence(criterion, solver_corpus):
    rng = np.random.default_rng(9)
    spreads = []
    curvature_clean = []
    runs = converged = 0
    every_final = []
    for k, scen in enumerate(solver_corpus):
        finals = []
        for i in range(5):
            st0 = random_interior_state(scen, rng)
            for order in ("round_robin", "random"):
                res = solve(
                    scen,
                    st0.copy(),
                    max_sweeps=400,
                    tol=1e-4,
                    order=order,
                    seed=100 * k + i,
                )
                finals.append(res.cost)
                runs += 1
                converged += res.converged
        every_final.extend(finals)
        spreads.append((max(finals) - min(finals)) / min(finals))
        curvature_clean.append(check_m_psd(scen.cost, grid=50).psd)
    gated = [s for s, clean in zip(spreads, curvature_clean) if clean]
    ok = all(s <= 1e-3 for s in gated)
    capped = runs - converged
    # each clause states only what these runs measured
    vacuous = "" if gated else "; vacuous here because the bundled family is indefinite"
    included = ", capped runs included," if capped else ""
    criterion(
        f"criterion 9: {'PASS' if ok else 'FAIL'} "
        f"(spread <= 0.1% asserted on the {len(gated)}/{len(spreads)} "
        f"scenarios with a curvature-clean cost family{vacuous}. {converged}/{runs} runs "
        f"converged, {capped} stopped at the 400-sweep cap. Raw "
        f"spreads {min(spreads):.1e}..{max(spreads):.1e}{included} "
        f"show distinct basins, as expected without joint convexity.)"
    )
    for s in gated:
        assert s <= 1e-3
    # the runs themselves must stay usable evidence: every final cost is
    # finite and positive even when basins differ
    assert all(np.isfinite(s) for s in spreads)
    moved = [run for run, (cost, pinned) in enumerate(zip(every_final, GATE9_FINALS, strict=True))
             if abs(cost - pinned) > 1e-6 * pinned]
    assert not moved, f"runs ending away from their pinned basin: {moved}"


def test_criterion_10_determinism(criterion, solver_corpus):
    scen = solver_corpus[0]
    runs = []
    for _ in range(2):
        res = solve(
            scen,
            uniform_state(scen, 0.9, 0.1),
            max_sweeps=400,
            tol=1e-4,
            order="random",
            seed=17,
        )
        trace_blob = b"".join(
            f"{r.sweep},{r.cost!r},{r.residual!r},{r.max_step!r}\n".encode()
            for r in res.trace
        )
        state_blob = b"".join(
            arr.tobytes()
            for arr in (res.state.rho, res.state.eta, res.state.phi,
                        res.state.phi_w, res.state.mu)
        )
        runs.append((trace_blob, state_blob, res.cost))
    solver_same = runs[0] == runs[1]

    rng = np.random.default_rng(10)
    g = random_connected_graph(rng)
    q = min_subband_count(max(g.degrees()) + 1)
    a1 = allocate_subbands(g, q, seed=99)
    a2 = allocate_subbands(g, q, seed=99)
    protocol_same = a1.outgoing == a2.outgoing and a1.link_bands == a2.link_bands

    line3 = line3_scenario()
    r1 = reference_solve_small(line3, seed=4)
    r2 = reference_solve_small(line3, seed=4)
    reference_same = (
        r1.cost == r2.cost
        and r1.restart_costs == r2.restart_costs
        and r1.state.rho.tobytes() == r2.state.rho.tobytes()
        and r1.state.phi.tobytes() == r2.state.phi.tobytes()
    )

    ok = solver_same and protocol_same and reference_same
    criterion(
        f"criterion 10: {'PASS' if ok else 'FAIL'} "
        f"(byte-identical traces and states from repeated seeded solver, "
        f"protocol, and reference runs)"
    )
    assert solver_same
    assert protocol_same
    assert reference_same
