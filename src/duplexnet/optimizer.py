"""Block-coordinate scaled gradient projection over the control state.

The cost is minimized one constraint group at a time: each per-link band
split, each (node, band) power-share group, each node's power budget row,
each session's routing row at a node, and each session's overflow scalar
form separate blocks whose feasible sets are simplexes, capped simplexes,
or boxes.  A block update takes a diagonally scaled gradient step, projects
back onto the block's feasible set, and backtracks until the new cost
satisfies a sufficient-decrease test; total cost therefore never increases.
The blocks are the rows of one table, :func:`blocks`, built once per
scenario: each names a ControlState array and an index into it.  The
updates walk that table; the residuals reduce over the same blocks laid
end to end (:attr:`~duplexnet.scenario.Layout.segments`), one array pass
per block family.

One load rule, :func:`group_load`, serves both: a link without flow (mu),
a (node, band) without power (eta) and a node without inflow of the
session (phi) carry no load.  Such a block's gradient is exactly zero, so
an update leaves it untouched without computing anything, and its
residual is zero.

This module holds no gradient or curvature formula: a block's gradient
and diagonal curvature are slices of the whole-network arrays that the
evaluation (:class:`~duplexnet.scenario.DerivedState`) keeps, and the
residuals read the same arrays.  The scaling is that curvature times a
safety factor, with a floor so weights stay positive; the backtracking
line search makes convergence independent of estimate quality.

Stationarity is measured by :func:`optimality_residuals`: within every
active group the marginals of used coordinates must agree, unused
coordinates must not undercut them, and power rows must respect the sign
conventions of a budget inequality.  The residual is the worst violation
over all groups, zero exactly at a blockwise-stationary point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import Block, ControlState, DerivedState, NetworkScenario, derive, group_sums


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
    """
    y = np.asarray(target, dtype=float)
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("projection weights must be positive")
    if constraint == "box":
        return np.clip(y, 0.0, 1.0)
    if constraint not in ("sum_to_one", "sum_at_most_one"):
        raise ValueError(f"unknown constraint {constraint!r}")
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
    # lam_k keeps the k largest breakpoints active; the last k whose own
    # breakpoint still lies above lam_k is the crossing segment
    lams = (np.cumsum(yf[order]) - 1.0) / np.cumsum(1.0 / wf[order])
    lam = lams[np.flatnonzero(brk[order] > lams)[-1]]
    zf = np.maximum(0.0, yf - lam / wf)
    support = zf > 0.0
    inv = 1.0 / wf[support]
    zf[support] = np.maximum(0.0, zf[support] + (1.0 - zf.sum()) * inv / inv.sum())
    z[free] = zf
    return z


# the diagonal scaling is SAFETY times the curvature estimate, floored at
# FLOOR; a trial is accepted when it beats the linear prediction times
# ARMIJO, else the step shrinks by SHRINK, at most MAX_HALVINGS times.  A
# block's next step is its accepted step times GROW, capped at 1.
SAFETY = 2.0
FLOOR = 1e-6
ARMIJO = 1e-4
SHRINK = 0.5
MAX_HALVINGS = 50
GROW = 2.0

CONSTRAINT = {
    "mu": "sum_to_one",
    "eta": "sum_to_one",
    "rho": "sum_at_most_one",
    "phi": "sum_to_one",
    "phi_w": "box",
}


def blocks(scenario: NetworkScenario) -> tuple:
    """Every block of the sweep, in the canonical order; see :attr:`Layout.blocks`,
    which builds the table once per scenario."""
    return scenario.layout.blocks


def group_load(derived: DerivedState, kind: str):
    """The load each group of block kind `kind` carries, as an array that a
    block's `group` indexes: link flow (mu), (node, band) power (eta) and
    session inflow at a node (phi); None for rho and phi_w, whose blocks
    always count.  A group whose load is <= 0 carries none: its block's
    gradient slice is exactly zero, so the block cannot move."""
    if kind == "mu":
        return derived.flows.link_flow
    if kind == "eta":
        return derived.physical.node_band_power
    if kind == "phi":
        return derived.flows.inflow
    return None


def _block_move(scenario, state, block, derived):
    """Gradient, curvature and fixed mask of one block.

    The gradient and curvature are slices of the whole-network arrays the
    evaluation keeps; a routing row's fixed mask marks the links whose
    raise from zero would close a cycle.
    """
    fixed = derived.blocked(*block.group) if block.kind == "phi" else None
    return derived.gradient(block.kind)[block.key], derived.curvature(block.kind)[block.key], fixed


@dataclass
class UpdateOutcome:
    state: ControlState
    cost: float
    moved: bool
    halvings: int
    step: float
    derived: DerivedState


def update_block(
    scenario: NetworkScenario,
    state: ControlState,
    block: Block,
    step: float = 1.0,
    derived: DerivedState = None,
) -> UpdateOutcome:
    """One scaled projected step on a single block, with backtracking.

    Returns the (possibly unchanged) state, its cost and its evaluation.
    The cost never increases: a trial point is accepted only when finite
    and satisfying the sufficient-decrease test; otherwise the step is
    halved, and after MAX_HALVINGS the block is left untouched.  A block
    whose group carries no load (:func:`group_load`, the rule the
    residuals share) has a zero gradient and is left untouched before
    anything is computed; so is one whose projected step is not a descent
    direction.  A `derived` passed in must be the evaluation of `state`; it
    saves the one evaluation that is not a trial.  Each trial differs from
    `state` only in the block's array, so its evaluation recomputes only
    the terms that array feeds and takes the rest from `derived`.
    """
    if derived is None:
        derived = derive(scenario, state)
    cost0 = derived.total

    def unmoved(halvings):
        return UpdateOutcome(state=state, cost=cost0, moved=False, halvings=halvings, step=step, derived=derived)

    load = group_load(derived, block.kind)
    if load is not None and load[block.group] <= 0:
        return unmoved(0)
    cur = getattr(state, block.kind)[block.key]
    grad, curv, fixed = _block_move(scenario, state, block, derived)
    constraint = CONSTRAINT[block.kind]
    finite = np.isfinite(grad)
    if not np.all(finite):
        fixed = ~finite if fixed is None else fixed | ~finite
        grad = np.where(finite, grad, 0.0)
    if fixed is not None and np.all(fixed) or not np.any(grad):
        return unmoved(0)
    weights = SAFETY * np.maximum(curv, FLOOR)
    for halving in range(MAX_HALVINGS + 1):
        y = cur - step * grad / weights
        z = project_scaled(y, weights, constraint, fixed=fixed)
        delta = z - cur
        slope = float(np.dot(grad, delta))
        if slope >= 0.0 or float(np.max(np.abs(delta))) <= 1e-16:
            return unmoved(halving)
        trial = state.copy()
        getattr(trial, block.kind)[block.key] = z
        evaluated = derive(scenario, trial, parent=derived, changed=block.kind)
        if math.isfinite(evaluated.total) and evaluated.total <= cost0 + ARMIJO * slope:
            return UpdateOutcome(
                state=trial, cost=evaluated.total, moved=True, halvings=halving, step=step, derived=evaluated
            )
        step *= SHRINK
    return unmoved(MAX_HALVINGS)


def _gaps(a, b):
    """a - b elementwise, with equal infinities giving a zero gap."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.where(a == b, 0.0, a - b)


def _segment_min(values, mask, starts):
    """Per segment, the least of `values` where `mask` holds; inf where it never does."""
    return np.minimum.reduceat(np.where(mask, values, np.inf), starts)


def _segment_max(values, mask, starts):
    """Per segment, the greatest of `values` where `mask` holds; -inf where it never does."""
    return np.maximum.reduceat(np.where(mask, values, -np.inf), starts)


@dataclass(frozen=True)
class Residuals:
    eta: float
    rho: float
    mu: float
    phi: float
    overflow: float

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
    sign conditions.  Groups that carry no load (:func:`group_load`: an
    unloaded link, an unpowered share group, a node without session
    traffic) cannot affect the cost and count zero.  Each family is one
    pass of segment reductions over its blocks laid end to end.
    """
    if derived is None:
        derived = derive(scenario, state)
    if not math.isfinite(derived.total):
        raise ValueError("residuals need a finite-cost state")
    marginal = {
        "eta": derived.eta_delta,
        "rho": derived.gradient("rho"),
        "mu": derived.gradient("mu"),
        "phi": derived.delta_phi,
        "phi_w": derived.gradient("phi_w"),
    }
    worst = dict.fromkeys(CONSTRAINT, 0.0)
    for kind, seg in scenario.layout.segments.items():
        vals = marginal[kind].ravel()[seg.index]
        cur = getattr(state, kind).ravel()[seg.index]
        used = cur > SUPPORT_TOL
        constraint = CONSTRAINT[kind]
        if constraint == "sum_to_one":
            unloaded = group_load(derived, kind)[tuple(seg.groups.T)] <= 0
            unused = ~used
            if kind == "phi":
                bounds = np.append(seg.starts, seg.index.size)
                for k in np.flatnonzero(~unloaded):
                    unused[bounds[k] : bounds[k + 1]] &= ~derived.blocked(*seg.groups[k].tolist())
            witness = _segment_min(vals, used, seg.starts)
            spread = _gaps(_segment_max(vals, used, seg.starts), witness)
            viol = np.maximum(0.0, _gaps(witness, _segment_min(vals, unused, seg.starts)))
            res = np.maximum(spread, viol)
            res[unloaded | ~np.logical_or.reduceat(used, seg.starts)] = 0.0
        elif constraint == "sum_at_most_one":
            row = np.repeat(np.arange(seg.starts.size), np.diff(seg.starts, append=seg.index.size))
            tight = group_sums(cur, row, seg.starts.size) >= 1.0 - SLACK_TOL
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
        worst[kind] = max(0.0, float(res.max()))
    return Residuals(eta=worst["eta"], rho=worst["rho"], mu=worst["mu"], phi=worst["phi"], overflow=worst["phi_w"])


@dataclass(frozen=True)
class TraceRow:
    sweep: int
    cost: float
    residual: float
    max_step: float


@dataclass
class SolveResult:
    state: ControlState
    cost: float
    residual: float
    sweeps: int
    converged: bool
    trace: list = field(default_factory=list)


def solve(
    scenario: NetworkScenario,
    state: ControlState,
    max_sweeps: int = 200,
    tol: float = 1e-4,
    order: str = "round_robin",
    seed: int = None,
) -> SolveResult:
    """Run block sweeps until the worst residual drops below tol.

    order "round_robin" visits blocks in the canonical order every sweep;
    "random" reshuffles them each sweep with the given seed.  Cost is
    nonincreasing across every block update.  Raises StalledStepError if
    a whole sweep moves nothing while the residual is still above tol;
    returns converged=False when the sweep budget runs out first.
    """
    if order not in ("round_robin", "random"):
        raise ValueError(f"unknown order {order!r}")
    rng = np.random.default_rng(seed)
    table = blocks(scenario)
    steps = [1.0] * len(table)
    state = state.copy()
    derived = derive(scenario, state)
    if not math.isfinite(derived.total):
        raise ValueError("solve needs a finite-cost initial state")
    res = optimality_residuals(scenario, state, derived)
    trace = [TraceRow(sweep=0, cost=derived.total, residual=res.worst, max_step=0.0)]
    if res.worst <= tol:
        return SolveResult(
            state=state, cost=derived.total, residual=res.worst, sweeps=0, converged=True, trace=trace
        )
    for sweep in range(1, max_sweeps + 1):
        visit = list(range(len(table)))
        if order == "random":
            rng.shuffle(visit)
        moved_any = False
        max_step = 0.0
        for k in visit:
            out = update_block(scenario, state, table[k], step=steps[k], derived=derived)
            derived = out.derived
            if out.moved:
                state = out.state
                moved_any = True
                max_step = max(max_step, out.step)
                steps[k] = min(1.0, out.step * GROW)
        res = optimality_residuals(scenario, state, derived)
        trace.append(TraceRow(sweep=sweep, cost=derived.total, residual=res.worst, max_step=max_step))
        if res.worst <= tol:
            return SolveResult(
                state=state,
                cost=derived.total,
                residual=res.worst,
                sweeps=sweep,
                converged=True,
                trace=trace,
            )
        if not moved_any:
            raise StalledStepError(res.worst, tol)
    return SolveResult(
        state=state, cost=derived.total, residual=res.worst, sweeps=max_sweeps, converged=False, trace=trace
    )
