"""Block-coordinate scaled gradient projection over the control state.

The cost is minimized one constraint group at a time: each per-link band
split, each (node, band) power-share group, each node's power budget row,
each session's routing row at a node, and each session's overflow scalar
form separate blocks whose feasible sets are simplexes, capped simplexes,
or boxes.  A block update takes a diagonally scaled gradient step, projects
back onto the block's feasible set, and backtracks until the new cost
satisfies a sufficient-decrease test; total cost therefore never increases.
The blocks are built once per scenario
(:attr:`~duplexnet.scenario.Layout.blocks`): each names a ControlState
array and its coordinates' flat positions in it.  The updates walk them;
the residuals reduce over the same blocks laid end to end
(:attr:`~duplexnet.scenario.Layout.segments`), one array pass per block
family.  Every rule that depends on the family (its feasible set, whether
its blocks move as runs, its load, its marginal, its fixed coordinates)
is read from its row of :data:`~duplexnet.scenario.FAMILIES`; no code
here tests which family a block belongs to.  A block whose group carries
no load has a gradient of exactly zero, so an update leaves it untouched
without computing anything, and its residual is zero.

Separable blocks move as one run.  A band-split (mu) move on a link
changes only the band flows of that link's entries, and a power-share
(eta) move on a (node, band) only the SINR of that group's entries, since
the node's band power, and so every receiver's total received power, stays
the same.  So within a run, a maximal stretch of consecutive mu blocks or
of consecutive eta blocks in the visit order, every block's gradient,
curvature and load at the run's starting evaluation are exactly those the
blocks before it leave, and the only link costs a block's move changes
are its own entries'.  A run takes every block's first trial point from
its starting evaluation and prices all of them with one evaluation; the
sufficient-decrease tests are then replayed in block order, each against
the total the one-by-one update would price, which is the starting
per-entry link costs with the accepted moves before the block and its own
trial patched in, summed as :func:`~duplexnet.scenario.derive` sums them
(:func:`~duplexnet.scenario.summed_cost`).  A rejected trial halves its
step and prices the state the blocks before it left, as a lone block
does.  For separable blocks the simultaneous (Jacobi) and one-by-one
(Gauss-Seidel) updates coincide (Bertsekas & Tsitsiklis 1989), so every
decision, step, cost and state is bit for bit that of updating the blocks
one after another.  rho, phi and phi_w blocks are coupled through the
interference and the flows and update one at a time.  :func:`_sweep` walks
one visit order run by run; a moved block's next step comes from the one
step rule, :func:`_next_step`.

This module holds no gradient or curvature formula: a block's gradient
and diagonal curvature are slices of the whole-network arrays that the
evaluation (:class:`~duplexnet.scenario.DerivedState`) keeps, and the
residuals read the same arrays.  The scaling is that curvature times a
safety factor, with a floor so weights stay positive; the backtracking
line search makes convergence independent of estimate quality.

A block step runs in Python floats.  A block has a handful of
coordinates, so :func:`_search` reads its point, gradient and curvature
once as lists, and the scaled step, the projection and the move are
plain float arithmetic instead of dozens of numpy calls on tiny arrays.
The projection's sums are exactly rounded (math.fsum), so no summation
order enters them, and its running sums add one after another.  The
slope is one np.dot.  The step's domain is finite: :func:`project_scaled`
rejects a NaN or infinite target or weight, so a bad curvature fails
loudly.

Stationarity is measured by :func:`optimality_residuals`: within every
active group the marginals of used coordinates must agree, unused
coordinates must not undercut them, and power rows must respect the sign
conventions of a budget inequality.  Each block gets its residual, zero
exactly where it is stationary; the solve's residual is the worst of
them.

A sweep visits only the blocks that can move: those whose residual at the
sweep's start exceeds REST * tol (REST = 0.1), in the visit order, cut
into runs as before.  A block at rest would take a step at rounding level
or none, so skipping it saves its whole update.  This is the greedy
(Gauss-Southwell) choice of blocks, which beats cyclic order (Nutini et
al. 2015) and keeps block-coordinate descent convergent (Tseng & Yun
2009).  When the visited blocks move nothing, the same sweep goes on to
the blocks it skipped, and only a sweep that has tried every block and
moved none stalls the solve.  A moved block's next step doubles, up to
MAX_STEP = 16, when its first trial was accepted; after a halving it
keeps the accepted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .scenario import (
    FAMILIES, Block, ControlState, DerivedState, NetworkScenario, derive, group_sums, summed_cost, validate_state
)


class StalledStepError(RuntimeError):
    """A full sweep produced no progress while the residual stayed above tol."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(
            f"no block can make progress: residual {residual:.3g} above tolerance {tol:.3g}"
        )


def project_scaled(target, weights, constraint: str = "sum_to_one", fixed=None):
    """Project onto the block's feasible set in the weighted norm.

    Minimizes sum_k weights[k] * (z[k] - target[k])^2 subject to the
    constraint: "sum_to_one" (z >= 0, sum z = 1), "sum_at_most_one"
    (z >= 0, sum z <= 1), or "box" (0 <= z <= 1, uncoupled).
    Coordinates marked in `fixed` are pinned to zero and excluded.

    The coupled cases are solved exactly (Held, Wolfe & Crowder 1974;
    Condat 2016): z = max(0, y - lam / w), where the sum is piecewise
    linear in lam with breakpoints y * w, so lam comes in closed form from
    the segment where the sum crosses one.  With weights spanning many
    decades, y - lam / w cancels and leaves the sum off by far more than
    rounding; one pass spreads that leftover over the support in
    proportion to 1 / w, the direction the multiplier itself moves it.

    The domain is finite: a NaN or infinite target or weight, or a weight
    <= 0, raises ValueError.  The work runs in Python floats (see the
    module docstring): max(0, v) keeps -0.0 and NaN as np.maximum does,
    the sort is stable, and the three sums (the clipped target's, the
    projected point's and the support's 1 / w) are math.fsum's exactly
    rounded ones.  Extreme finite inputs such as +-1e308 can still fail:
    IndexError when they overflow the breakpoints, OverflowError when
    one of the sums overflows.  `target` and `weights` may be arrays or
    lists of floats; the result is an array.
    """
    y, w = _as_list(target), _as_list(weights)
    if len(w) != len(y) or fixed is not None and len(fixed) != len(y):
        raise ValueError("target, weights and fixed must have one entry per coordinate")
    if not all(map(math.isfinite, y)) or not all(0.0 < v < math.inf for v in w):
        raise ValueError("projection targets must be finite and weights positive and finite")
    if constraint == "box":
        return np.array([0.0 if v < 0.0 else 1.0 if v > 1.0 else v for v in y], dtype=float)
    if constraint not in ("sum_to_one", "sum_at_most_one"):
        raise ValueError(f"unknown constraint {constraint!r}")
    free = range(len(y)) if fixed is None else [k for k, pinned in enumerate(_as_list(fixed, bool)) if not pinned]
    yf = [y[k] for k in free]
    wf = [w[k] for k in free]
    if not yf:
        if constraint == "sum_to_one":
            raise ValueError("cannot satisfy sum_to_one with all coordinates fixed")
        return np.zeros(len(y))
    plain = [0.0 if v < 0.0 else v for v in yf]
    if constraint == "sum_at_most_one" and math.fsum(plain) <= 1.0:
        return _placed(plain, free, len(y))
    brk = [a * b for a, b in zip(yf, wf)]
    # lam_k keeps the k largest breakpoints active; the last k whose own
    # breakpoint still lies above lam_k is the crossing segment
    lam = None
    head = inv_head = 0.0
    for k in sorted(range(len(brk)), key=brk.__getitem__, reverse=True):
        head += yf[k]
        inv_head += 1.0 / wf[k]
        lam_k = (head - 1.0) / inv_head
        if brk[k] > lam_k:
            lam = lam_k
    if lam is None:
        raise IndexError("no breakpoint lies above its segment's multiplier")
    zf = [0.0 if v < 0.0 else v for v in (a - lam / b for a, b in zip(yf, wf))]
    support = [k for k, v in enumerate(zf) if v > 0.0]
    inv = [1.0 / wf[k] for k in support]
    leftover, inv_total = 1.0 - math.fsum(zf), math.fsum(inv)
    for k, v in zip(support, inv):
        moved = zf[k] + leftover * v / inv_total
        zf[k] = 0.0 if moved < 0.0 else moved
    return _placed(zf, free, len(y))


def _as_list(values, dtype=float) -> list:
    """`values` as a list of `dtype` values; a list is taken as one already."""
    return values if type(values) is list else np.asarray(values, dtype=dtype).ravel().tolist()


def _placed(values, free, n):
    """An array of n zeros with `values` at the indices `free`."""
    if type(free) is range:
        return np.array(values, dtype=float)
    z = [0.0] * n
    for k, v in zip(free, values):
        z[k] = v
    return np.array(z, dtype=float)


# the diagonal scaling is SAFETY times the curvature estimate, floored at
# FLOOR; a trial is accepted when it beats the linear prediction times
# ARMIJO, else the step shrinks by SHRINK, at most MAX_HALVINGS times.  A
# block moved by its first trial next tries its step times GROW, capped at
# MAX_STEP; one moved after a halving keeps its step (:func:`_next_step`).
SAFETY = 2.0
FLOOR = 1e-6
ARMIJO = 1e-4
SHRINK = 0.5
MAX_HALVINGS = 50
GROW = 2.0
MAX_STEP = 16.0
# a sweep visits the blocks whose residual at its start exceeds REST * tol
REST = 0.1

def _block_move(scenario, state, block, derived):
    """Gradient, curvature and fixed mask of one block.

    The gradient, curvature and fixed mask are slices of the whole-network
    arrays the evaluation keeps; a family without a fixed mask gives None.
    """
    fixed = FAMILIES[block.kind].fixed
    fixed = None if fixed is None else fixed(derived).ravel()[block.key]
    return derived.gradient(block.kind).ravel()[block.key], derived.curvature(block.kind).ravel()[block.key], fixed


def _search(scenario, state, block, derived):
    """(current point, gradient, weights, fixed mask) of one block at
    `derived`, or None when the block cannot move: its group carries no
    load, its gradient is zero, or all its coordinates are fixed."""
    load = FAMILIES[block.kind].load
    if load is not None and load(derived)[block.group] <= 0:
        return None
    grad, curv, fixed = _block_move(scenario, state, block, derived)
    grad = grad.tolist()
    fixed = None if fixed is None else fixed.tolist()
    if not all(map(math.isfinite, grad)):
        fixed = [not math.isfinite(g) or fixed is not None and fixed[k] for k, g in enumerate(grad)]
        grad = [g if math.isfinite(g) else 0.0 for g in grad]
    if fixed is not None and all(fixed) or not any(grad):
        return None
    weights = [SAFETY * (FLOOR if c < FLOOR else c) for c in curv.tolist()]
    return getattr(state, block.kind).ravel()[block.key].tolist(), grad, weights, fixed


def _trial_point(search, constraint, step):
    """The scaled step of length `step` projected back onto the block's
    feasible set, and its slope; None when it is no descent direction."""
    cur, grad, weights, fixed = search
    z = project_scaled([c - step * g / w for c, g, w in zip(cur, grad, weights)], weights, constraint, fixed=fixed)
    delta = [a - b for a, b in zip(z.tolist(), cur)]
    slope = float(np.dot(grad, delta))
    if slope >= 0.0 or all(abs(d) <= 1e-16 for d in delta):
        return None
    return z, slope


def _accepts(total, cost0, slope):
    """The sufficient-decrease test of a trial priced at `total`."""
    return math.isfinite(total) and total <= cost0 + ARMIJO * slope


class _Move(NamedTuple):
    """One block's part of a run: the cost after it, whether it moved, its
    halvings and its last step."""

    cost: float
    moved: bool
    halvings: int
    step: float


def _update_run(scenario, state, run, steps, derived):
    """Update the blocks of `run` one after another, block k from steps[k].

    `run` is one block, or several blocks of one separable family (see the
    module docstring); `derived` is the evaluation of `state`.
    Returns the final state, its evaluation, one _Move per block and the
    number of evaluations made.  Every block's first trial point comes from
    `derived`, and one evaluation prices them all.  The sufficient-decrease
    tests are then replayed in block order: with several trials, block k's
    total is the link-cost vector of the moves accepted before it with its
    own trial patched in, summed by :func:`summed_cost` as `derive` sums
    it.  A rejected trial halves the step and is priced on its own, on the
    state the blocks before it left.
    """
    kind = run[0].kind
    constraint = FAMILIES[kind].constraint
    searches, points = [], []
    for block, step in zip(run, steps):
        search = _search(scenario, state, block, derived)
        searches.append(search)
        points.append(None if search is None else _trial_point(search, constraint, step))
    proposed = len(points) - points.count(None)
    if not proposed:
        return state, derived, [_Move(derived.total, False, 0, step) for step in steps], 0
    joint = state.moved(kind, [(block.key, point[0]) for block, point in zip(run, points) if point is not None])
    priced = derive(scenario, joint, parent=derived, changed=kind)
    evaluations = 1
    if proposed > 1:
        link_cost = derived.link_cost.copy()
        band_flow = derived.flows.band_flow.copy()
    cost = derived.total
    taken = []  # (key, point) of the moves accepted so far
    latest = state, derived  # the state they make and its evaluation, while one is at hand
    first_tries = True
    moves = []
    for block, search, point, step in zip(run, searches, points, steps):
        if point is None:
            moves.append(_Move(cost, False, 0, step))
            continue
        z, slope = point
        total = priced.total
        if proposed > 1:
            key = block.key
            before = link_cost[key], band_flow[key]
            link_cost[key] = priced.link_cost[key]
            band_flow[key] = priced.flows.band_flow[key]
            total = summed_cost(link_cost, band_flow, derived.overflow_cost)
        if _accepts(total, cost, slope):
            taken.append((block.key, z))
            cost, latest = total, None
            moves.append(_Move(cost, True, 0, step))
            continue
        first_tries = False
        if proposed > 1:
            link_cost[key], band_flow[key] = before
        for halving in range(1, MAX_HALVINGS + 1):
            step *= SHRINK
            point = _trial_point(search, constraint, step)
            if point is None:
                moves.append(_Move(cost, False, halving, step))
                break
            z, slope = point
            trial = state.moved(kind, [*taken, (block.key, z)])
            evaluated = derive(scenario, trial, parent=derived, changed=kind)
            evaluations += 1
            if _accepts(evaluated.total, cost, slope):
                taken.append((block.key, z))
                cost, latest = evaluated.total, (trial, evaluated)
                if proposed > 1:
                    link_cost[block.key] = evaluated.link_cost[block.key]
                    band_flow[block.key] = evaluated.flows.band_flow[block.key]
                moves.append(_Move(cost, True, halving, step))
                break
        else:
            moves.append(_Move(cost, False, MAX_HALVINGS, step * SHRINK))
    if first_tries:
        return joint, priced, moves, evaluations
    if latest is None:
        final = state.moved(kind, taken)
        latest = final, derive(scenario, final, parent=derived, changed=kind)
        evaluations += 1
    return *latest, moves, evaluations


@dataclass
class UpdateOutcome:
    state: ControlState
    cost: float
    moved: bool
    halvings: int
    step: float
    derived: DerivedState
    evaluations: int


def update_block(
    scenario: NetworkScenario,
    state: ControlState,
    block: Block,
    step: float = 1.0,
    derived: DerivedState = None,
) -> UpdateOutcome:
    """One scaled projected step on a single block, with backtracking.

    Returns the (possibly unchanged) state, its cost, its evaluation and
    the number of evaluations made.  The cost never increases: a trial
    point is accepted only when finite and satisfying the
    sufficient-decrease test; otherwise the step is halved, and after
    MAX_HALVINGS the block is left untouched.  A block whose group carries
    no load (its family's `load`, the rule the residuals share) has a zero
    gradient and is left untouched before anything is computed; so is one
    whose projected step is not a descent direction.  A `derived` passed in
    must be the evaluation of `state`; it saves the one evaluation that is
    not a trial.  Each trial differs from `state` only in the block's
    array, so its evaluation recomputes only the terms that array feeds and
    takes the rest from `derived`.

    This is the one-block case of a run (see the module docstring):
    :func:`solve` moves a stretch of consecutive mu blocks, or of
    consecutive eta blocks, with one trial evaluation for all of them, and
    every block's outcome is bit for bit what this function returns for it
    when the blocks are updated one after another.
    """
    evaluations = 0
    if derived is None:
        derived = derive(scenario, state)
        evaluations = 1
    state, derived, (move,), made = _update_run(scenario, state, (block,), (step,), derived)
    return UpdateOutcome(
        state=state,
        cost=move.cost,
        moved=move.moved,
        halvings=move.halvings,
        step=move.step,
        derived=derived,
        evaluations=evaluations + made,
    )


def _gaps(a, b):
    """a - b elementwise, with equal infinities giving a zero gap; the
    caller silences the invalid and overflowing differences."""
    return np.where(a == b, 0.0, a - b)


def _segment_min(values, mask, starts):
    """Per segment, the least of `values` where `mask` holds; inf where it never does."""
    return np.minimum.reduceat(np.where(mask, values, np.inf), starts)


def _segment_max(values, mask, starts):
    """Per segment, the greatest of `values` where `mask` holds; -inf where it never does."""
    return np.maximum.reduceat(np.where(mask, values, -np.inf), starts)


@dataclass(frozen=True)
class Residuals:
    """The worst residual of each block family, and `blocks`: every
    block's residual, in :attr:`~duplexnet.scenario.Layout.blocks` order."""

    eta: float
    rho: float
    mu: float
    phi: float
    overflow: float
    blocks: np.ndarray = field(compare=False, repr=False)

    @property
    def worst(self) -> float:
        return max(self.eta, self.rho, self.mu, self.phi, self.overflow)


# a coordinate above SUPPORT_TOL is used (a box scalar within it of 1 sits
# on its upper bound), and a power row within SLACK_TOL of 1 is tight
SUPPORT_TOL = 1e-12
SLACK_TOL = 1e-9


def optimality_residuals(scenario: NetworkScenario, state: ControlState, derived=None) -> Residuals:
    """Stationarity violations per block family; all terms are >= 0.

    Share groups (eta, mu, phi): used coordinates must share the minimal
    group marginal and no unused coordinate may fall below it; blocked
    routing links are exempt.  Power rows: with a slack budget the used
    marginals must vanish and unused ones must be nonnegative; with a
    tight budget the used marginals must agree on a common nonpositive
    value that no unused one undercuts.  Overflow scalars follow box
    sign conditions.  Groups that carry no load (the family's `load`: an
    unloaded link, an unpowered share group, a node without session
    traffic) cannot affect the cost and count zero.  Each family is one
    pass of segment reductions over its blocks laid end to end, which
    leaves one residual per block; a family's residual is their maximum.
    A routing row's blocked links come from the evaluation's cycle mask.
    """
    if derived is None:
        derived = derive(scenario, state)
    if not math.isfinite(derived.total):
        raise ValueError("residuals need a finite-cost state")
    worst = dict.fromkeys(FAMILIES, 0.0)
    per_block = np.zeros(len(scenario.layout.blocks))
    segments = scenario.layout.segments
    # the marginals first, so that the errstate below silences only the
    # reductions' differences of infinities, not a marginal's own warnings
    marginals = {kind: FAMILIES[kind].marginal(derived).ravel()[seg.index] for kind, seg in segments.items()}
    with np.errstate(invalid="ignore", over="ignore"):
        for kind, seg in segments.items():
            family = FAMILIES[kind]
            vals = marginals[kind]
            cur = getattr(state, kind).ravel()[seg.index]
            used = cur > SUPPORT_TOL
            if family.constraint == "sum_to_one":
                unloaded = family.load(derived).ravel()[seg.group_ids] <= 0
                unused = ~used
                if family.fixed is not None:
                    unused &= ~family.fixed(derived).ravel()[seg.index]
                witness = _segment_min(vals, used, seg.starts)
                spread = _gaps(_segment_max(vals, used, seg.starts), witness)
                viol = np.maximum(0.0, _gaps(witness, _segment_min(vals, unused, seg.starts)))
                res = np.maximum(spread, viol)
                res[unloaded | ~np.logical_or.reduceat(used, seg.starts)] = 0.0
            elif family.constraint == "sum_at_most_one":
                tight = group_sums(cur, seg.rows, seg.starts.size) >= 1.0 - SLACK_TOL
                low = _segment_min(vals, used, seg.starts)
                high = _segment_max(vals, used, seg.starts)
                # without a used coordinate, low = inf and high = -inf leave 0
                witness = np.where(tight, np.minimum(0.0, low), 0.0)
                res = np.maximum(np.maximum(_gaps(high, witness), _gaps(witness, low)), 0.0)
                res = np.maximum(res, _gaps(witness, _segment_min(vals, ~used, seg.starts)))
            else:
                res = np.where(
                    cur <= SUPPORT_TOL,
                    np.maximum(0.0, -vals),
                    np.where(cur >= 1.0 - SUPPORT_TOL, np.maximum(0.0, vals), np.abs(vals)),
                )
                res = np.maximum.reduceat(res, seg.starts)
            per_block[seg.positions] = res
            worst[kind] = max(0.0, float(res.max()))
    return Residuals(
        eta=worst["eta"], rho=worst["rho"], mu=worst["mu"], phi=worst["phi"], overflow=worst["phi_w"], blocks=per_block
    )


@dataclass(frozen=True)
class TraceRow:
    """One sweep of a solve: its end cost, worst residual, largest accepted
    step, the evaluations (`derive` calls) it made and the blocks it handed
    to an update (`visited`, a block counted once per pass).  Row 0 is the
    start, whose one evaluation no row counts."""

    sweep: int
    cost: float
    residual: float
    max_step: float
    evaluations: int
    visited: int


@dataclass
class SolveResult:
    state: ControlState
    cost: float
    residual: float
    sweeps: int
    converged: bool
    trace: list = field(default_factory=list)


def _runs(table, visit) -> list:
    """The visit order cut into runs: maximal stretches of consecutive
    blocks of one separable family, and every other block alone."""
    runs = []
    for k in visit:
        kind = table[k].kind
        if runs and FAMILIES[kind].separable and table[runs[-1][-1]].kind == kind:
            runs[-1].append(k)
        else:
            runs.append([k])
    return runs


def _next_step(step: float, halvings: int) -> float:
    """The step a block tries next after moving with `step`, reached
    after `halvings` rejected trials: it grows only when the first trial
    was accepted, so a step that was just rejected is not tried again."""
    return step if halvings else min(MAX_STEP, step * GROW)


def _sweep(scenario, state, derived, table, runs, steps):
    """One sweep over `runs` (index lists into `table`) from `state` and its
    evaluation `derived`; block k starts from steps[k], which a move
    replaces by :func:`_next_step`.  Returns the end state, its evaluation,
    (block index, move) per visited block and the evaluations made."""
    visited = []
    evaluations = 0
    for run in runs:
        if len(run) == 1:
            out = update_block(scenario, state, table[run[0]], step=steps[run[0]], derived=derived)
            # keep the move, not the outcome: it holds a state and its evaluation
            state, derived, made = out.state, out.derived, out.evaluations
            moves = (_Move(out.cost, out.moved, out.halvings, out.step),)
        else:
            state, derived, moves, made = _update_run(
                scenario, state, [table[k] for k in run], [steps[k] for k in run], derived
            )
        evaluations += made
        for k, move in zip(run, moves):
            visited.append((k, move))
            if move.moved:
                steps[k] = _next_step(move.step, move.halvings)
    return state, derived, visited, evaluations


def solve(
    scenario: NetworkScenario,
    state: ControlState,
    max_sweeps: int = 200,
    tol: float = 1e-4,
    order: str = "round_robin",
    seed: int = None,
) -> SolveResult:
    """Run block sweeps until the worst residual drops below tol.

    A sweep visits the blocks whose residual at its start exceeds
    REST * tol, in the canonical order ("round_robin") or reshuffled each
    sweep with the given seed ("random"; the whole order is shuffled and
    then filtered).  When those blocks move nothing, the same sweep goes on
    to the blocks it skipped.  Cost is nonincreasing across every block
    update.  Raises StalledStepError if those move nothing either while
    the residual is still above tol; returns converged=False when the
    sweep budget runs out first.  max_sweeps must be an integer >= 0 and
    tol a finite number >= 0.  The start must lie in the constraint set
    (:func:`validate_state` finds no problem, whose first one the
    ValueError names) and have a finite cost.
    """
    if isinstance(max_sweeps, bool) or not isinstance(max_sweeps, (int, np.integer)) or max_sweeps < 0:
        raise ValueError(f"max_sweeps must be an integer >= 0, got {max_sweeps!r}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if order not in ("round_robin", "random"):
        raise ValueError(f"unknown order {order!r}")
    problems = validate_state(scenario, state)
    if problems:
        raise ValueError(f"solve needs a start inside the constraint set: {problems[0]}")
    # only the shuffle draws from the generator, so a round-robin solve
    # builds none
    rng = np.random.default_rng(seed) if order == "random" else None
    table = scenario.layout.blocks
    steps = [1.0] * len(table)
    state = state.copy()
    derived = derive(scenario, state)
    if not math.isfinite(derived.total):
        raise ValueError("solve needs a finite-cost initial state")
    trace, visited, evaluations = [], [], 0
    for sweep in range(max_sweeps + 1):  # sweep 0 is the start
        if sweep:
            visit = list(range(len(table)))
            if order == "random":
                rng.shuffle(visit)
            moving = (res.blocks > REST * tol).tolist()
            active = [k for k in visit if moving[k]]
            state, derived, visited, evaluations = _sweep(scenario, state, derived, table, _runs(table, active), steps)
            skipped = [k for k in visit if not moving[k]]
            if skipped and not any(move.moved for _, move in visited):
                state, derived, more, made = _sweep(scenario, state, derived, table, _runs(table, skipped), steps)
                visited, evaluations = visited + more, evaluations + made
        res = optimality_residuals(scenario, state, derived)
        taken = [move.step for _, move in visited if move.moved]
        trace.append(TraceRow(sweep, derived.total, res.worst, max(taken, default=0.0), evaluations, len(visited)))
        if res.worst <= tol:
            break
        if sweep and not taken:
            raise StalledStepError(res.worst, tol)
    return SolveResult(
        state=state, cost=derived.total, residual=res.worst, sweeps=sweep, converged=res.worst <= tol, trace=trace
    )
