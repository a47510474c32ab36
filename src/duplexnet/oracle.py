"""Independent checks for the analytic gradients and the solver.

``finite_diff_check`` differentiates the total cost numerically, by
Richardson extrapolation of central differences with a step chosen per
coordinate, and compares against the gradient the evaluation keeps for
each ControlState array.
It refuses to run when the state is too close to a cost barrier for the
differences to be trustworthy, and it skips coordinates lying within a
margin of a constraint boundary (one-sided conventions apply there).

``delta_rho_direct`` differentiates the cost in rho straight from the
interference model, off the constraint set too.

``reference_solve_small`` minimizes the same objective with none of the
package's analytic machinery: it parameterizes by raw per-entry transmit
powers, per-session simple-path flows, and per-link band shares, prices
links with its own scalar code instead of :mod:`duplexnet.kernels`, and
runs a derivative-free cyclic coordinate search: each scalar coordinate
(one power, one path flow, or a pairwise transfer inside a budget/simplex
group) is minimized by a grid scan plus golden-section refinement on raw
cost values, restarted from several random points.  Each start is drawn
inside the constraint set and every move keeps to it, so the search has
no projection.  Deliberately brute force and only for tiny instances; it
reads no gradient, so it checks the solver by cost values alone.

There is one pricing.  ``_OracleProblem.price`` works on plain Python
floats with every sum in one fixed order: each band's node powers, each
link's flow (its paths' flows in path order), and per entry its band
flow, capacity (``_capacity``) and term (``_term``), plus each session's
overflow cost.  ``evaluate`` adds the terms in entry order, then the
overflows in session order.  A section of the search keeps those lists
from the accepted point and prices again only what its move changes: the
loaded entries on the moved bands for a power, the entries on the moved
links (and the moved session's overflow) for a path flow or a share.  It
then adds every term in the same order, so each section value is exactly
``evaluate`` of the moved vector, and a move is accepted at that value:
each start and each accepted point is priced in full once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coloring import TooLargeError
from .scenario import ControlState, DerivedState, NetworkScenario, derive, uniform_state


class BoundaryTooCloseError(RuntimeError):
    """State too close to a cost barrier for finite differences."""


@dataclass(frozen=True)
class FamilyReport:
    max_rel_err: float
    checked: int
    skipped: int


@dataclass(frozen=True)
class CheckReport:
    families: dict

    @property
    def worst(self) -> float:
        errs = [f.max_rel_err for f in self.families.values() if f.checked]
        return max(errs) if errs else 0.0

    @property
    def total_checked(self) -> int:
        return sum(f.checked for f in self.families.values())


def _require_headroom(derived):
    f = derived.flows.band_flow
    cap = derived.physical.capacity
    for e in range(f.shape[0]):
        # a loaded entry needs headroom; an infinite cost was refused before
        if f[e] > 0 and not f[e] <= (1.0 - HEADROOM) * cap[e]:
            raise BoundaryTooCloseError(
                f"entry {e}: flow {f[e]:.6g} within {HEADROOM:.0%} of capacity {cap[e]:.6g}"
            )


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-4)


# _extrapolated starts at step H0 and halves it at most LEVELS - 1 times.
# It stops once its error estimate is within SETTLED of the derivative
# (relative, floored as in _rel_err), or, once within CLOSE, when rounding
# makes the extrapolation drift.  On verify_small's states (seeds 300-399
# and 600-799) the worst error is 2.8e-6 at about two central differences
# per coordinate; one central difference at h = 1e-6 reaches 1.7e-4, and
# CLOSE = 1e-2 stops too early on the sharpest eta partial (1.1e-4).
H0 = 6.4e-5
LEVELS = 10
SETTLED = 1e-7
CLOSE = 1e-4


def _extrapolated(cost_at, v: float, h: float) -> float:
    """Derivative of `cost_at` at `v` by Ridders' extrapolation.

    Central differences at steps h, h/2, h/4, ... are extrapolated to a
    zero step in a Neville tableau (Richardson extrapolation in h^2), and
    the entry whose neighbours agree best is returned.  The step stops
    shrinking once that entry is settled, or once it is close and the
    tableau's diagonal moves by more than twice its estimated error,
    where rounding in the cost starts to dominate; so each coordinate
    ends at its own step (Ridders 1982; Press et al., Numerical Recipes,
    "dfridr").  Far from the derivative, a large first step is outside the
    range where the error shrinks as h^2, and drift there means nothing.
    """

    def central(step):
        return (cost_at(v + step) - cost_at(v - step)) / (2.0 * step)

    row = [central(h)]
    best, err = row[0], math.inf
    for _ in range(1, LEVELS):
        h /= 2.0
        new = [central(h)]
        fac = 4.0
        for j, prev in enumerate(row):
            new.append((fac * new[j] - prev) / (fac - 1.0))
            fac *= 4.0
            e = max(abs(new[j + 1] - new[j]), abs(new[j + 1] - prev))
            if e <= err:
                best, err = new[j + 1], e
        scale = max(abs(best), 1e-4)
        if err <= SETTLED * scale or err <= CLOSE * scale and abs(new[-1] - row[-1]) >= 2.0 * err:
            break
        row = new
    return best


MARGIN = 1e-4
HEADROOM = 0.05


def finite_diff_check(scenario: NetworkScenario, state: ControlState) -> CheckReport:
    """Compare every analytic partial derivative with finite differences.

    Each partial is estimated by :func:`_extrapolated` from central
    differences that start at step H0.  Coordinates closer than MARGIN
    to a bound are skipped (their analytic values are one-sided
    conventions); the whole check raises BoundaryTooCloseError when any
    loaded entry sits within HEADROOM of its capacity, since differences
    would straddle the barrier.
    """
    derived = derive(scenario, state)
    if not math.isfinite(derived.total):
        raise ValueError("finite differences need a finite-cost state")
    _require_headroom(derived)
    lay = scenario.layout
    # the coordinates of each array that have a partial of their own:
    # rho only on outgoing bands, phi only off the destination's links
    candidates = {
        "rho": lay.rho_mask,
        "eta": np.ones(lay.n_entries, dtype=bool),
        "mu": np.ones(lay.n_entries, dtype=bool),
        "phi": lay.link_ends[0][None, :] != lay.dest[:, None],
        "phi_w": np.ones(len(scenario.sessions), dtype=bool),
    }
    families = {}
    for kind, mask in candidates.items():
        values = getattr(state, kind).ravel()
        analytic = derived.gradient(kind).ravel()
        worst = 0.0
        checked = skipped = 0
        for idx in np.flatnonzero(mask).tolist():
            v = values[idx]
            # phi_w is the one array with an upper bound, 1
            if v < MARGIN or (kind == "phi_w" and v > 1.0 - MARGIN):
                skipped += 1
                continue

            def cost_at(value, kind=kind, idx=idx):
                return derive(scenario, state.moved(kind, [(idx, value)]), parent=derived, changed=kind).total

            # the first step stays within a quarter of the distance to zero;
            # an estimate that is not finite fails the check
            fd = _extrapolated(cost_at, v, min(H0, v / 4.0))
            worst = max(worst, _rel_err(fd, analytic[idx]) if math.isfinite(fd) else math.inf)
            checked += 1
        families[kind] = FamilyReport(worst, checked, skipped)
    return CheckReport(families=families)


def delta_rho_direct(scenario: NetworkScenario, state: ControlState, derived: DerivedState) -> np.ndarray:
    """Unconditional partial derivative of total cost in rho.

    Differentiates the interference model directly, without assuming that
    the (node, band) share groups sum to one; it cross-checks the
    message-passing form that ``DerivedState.gradient("rho")`` keeps,
    which is exact on the constraint set only.
    """
    lay = scenario.layout
    d_x = derived.signal_derivatives[0]
    g_e = lay.ent_gain
    inn = derived.physical.interference
    x = derived.physical.sinr
    npow = derived.physical.node_band_power
    s = np.zeros((lay.n, lay.band_count))
    np.add.at(s, (lay.ent_tx, lay.ent_band), state.eta)
    out = np.zeros((lay.n, lay.band_count))
    cross_term = d_x * (-x) / inn
    for q in range(lay.band_count):
        on_band = np.flatnonzero(lay.ent_band == q)
        if on_band.size == 0:
            continue
        rx = lay.ent_rx[on_band]
        tx = lay.ent_tx[on_band]
        t = cross_term[on_band]
        # all-pairs accumulation, then remove each entry's own transmitter
        out[:, q] += scenario.gains[q][:, rx] @ t
        np.subtract.at(out[:, q], tx, scenario.gains[q, tx, rx] * t)
        own_num = inn[on_band] - g_e[on_band] * npow[tx, q] * (s[tx, q] - state.eta[on_band])
        own = d_x[on_band] * g_e[on_band] * state.eta[on_band] * own_num / inn[on_band] ** 2
        np.add.at(out[:, q], tx, own)
    return scenario.power_budget[:, None] * out


# ---------------------------------------------------------------------------
# reference solver
#
# reference_solve_small takes at most MAX_NODES nodes, MAX_SESSIONS sessions
# and MAX_BANDS bands, and at most MAX_PATHS simple paths per session.  A
# coordinate's section is scanned at GRID points, then refined by at most
# REFINE golden-section steps; a restart stops after two sweeps in a row
# that each gain at most STALL_TOL times the cost (floored at 1).
MAX_NODES = 4
MAX_SESSIONS = 2
MAX_BANDS = 3
MAX_PATHS = 64
GRID = 9
REFINE = 36
STALL_TOL = 1e-12


def _node_power(prob, p):
    """npow[q][m]: node m's total power on band q, summed in entry order."""
    npow = [[0.0] * prob.n for _ in range(prob.band_count)]
    for i, q, pe in zip(prob.ent_tx, prob.ent_band, p):
        npow[q][i] += pe
    return npow


def _capacity(prob, e, npow_q, pe):
    """Capacity of entry e at power pe, -inf with no signal; npow_q holds
    every node's power on the entry's band."""
    rx_total = 0.0
    for gm, pm in zip(prob.ent_col[e], npow_q):
        rx_total += gm * pm
    g = prob.ent_gain[e]
    inn = rx_total - g * pe + prob.ent_noise[e]
    sig = g * pe
    if sig <= 0.0:
        return -math.inf
    return prob.bandwidth * math.log(prob.gain_factor * sig / inn)


def _term(cap, f):
    """f / (cap - f) of an entry carrying f: 0 when it is unloaded, inf at
    or past its barrier."""
    if f <= 0.0:
        return 0.0
    if f >= cap:
        return math.inf
    return f / (cap - f)


def _total(values):
    """Sum from left to right: every cost adds its pieces in this one order."""
    total = 0.0
    for v in values:
        total += v
    return total


def _simple_paths(lay, origin, dest):
    """All simple origin->dest paths as tuples of link indices."""
    out = []
    path = []
    seen = {origin}

    def walk(v):
        if v == dest:
            out.append(tuple(path))
            if len(out) > MAX_PATHS:
                raise TooLargeError(f"more than {MAX_PATHS} simple paths")
            return
        for li in lay.out_links[v]:
            u = lay.links[li][1]
            if u not in seen:
                seen.add(u)
                path.append(li)
                walk(u)
                path.pop()
                seen.remove(u)

    walk(origin)
    return out


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _line_min(fun, lo, hi, cur, f_cur):
    """Minimize fun on [lo, hi] given the known point (cur, f_cur).

    Coarse grid scan picks a bracket, golden-section refines it.  The best
    point ever evaluated is tracked, so a non-unimodal section can only
    cost accuracy, never return something worse than the starting point.
    Returns (best_x, best_f, evaluations).
    """
    if not hi - lo > 0.0:
        return cur, f_cur, 0
    points = [(float(cur), f_cur)]
    evals = 0
    for x in np.linspace(lo, hi, GRID):
        x = float(x)
        if x == cur:
            continue
        points.append((x, fun(x)))
        evals += 1
    points.sort(key=lambda t: t[0])
    b = min(range(len(points)), key=lambda k: points[k][1])
    best_x, best_f = points[b]
    a = points[b - 1][0] if b > 0 else points[0][0]
    z = points[b + 1][0] if b + 1 < len(points) else points[-1][0]
    if not z - a > 0.0:
        return best_x, best_f, evals
    c = z - _INVPHI * (z - a)
    d = a + _INVPHI * (z - a)
    fc = fun(c)
    fd = fun(d)
    evals += 2
    if fc < best_f:
        best_x, best_f = c, fc
    if fd < best_f:
        best_x, best_f = d, fd
    for _ in range(REFINE):
        if fc <= fd:
            z, d, fd = d, c, fc
            c = z - _INVPHI * (z - a)
            fc = fun(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (z - a)
            fd = fun(d)
            if fd < best_f:
                best_x, best_f = d, fd
        evals += 1
        if z - a <= 1e-14 * max(1.0, abs(a), abs(z)):
            break
    return best_x, best_f, evals


class _OracleProblem:
    """The oracle's parameterization of one scenario: per-entry powers,
    per-session simple-path flows and per-entry band shares, in one vector."""

    def __init__(self, scenario: NetworkScenario):
        self.scenario = scen = scenario
        lay = scen.layout
        self.paths = [
            _simple_paths(lay, int(lay.origin[w]), int(lay.dest[w])) for w in range(len(scen.sessions))
        ]
        self.n_power = lay.n_entries
        self.n_flow = sum(len(ps) for ps in self.paths)
        # the pricing reads plain Python numbers: scalar arithmetic on them
        # gives the same doubles as on numpy scalars, at less cost per step
        gains = scen.gains.tolist()
        noise = scen.noise.tolist()
        self.n = lay.n
        self.band_count = lay.band_count
        self.bandwidth = scen.cost.bandwidth
        self.gain_factor = scen.cost.gain_factor
        self.ent_tx = lay.ent_tx.tolist()
        self.ent_band = lay.ent_band.tolist()
        ends = list(zip(self.ent_tx, lay.ent_rx.tolist(), self.ent_band))
        # per entry: the gains from every node to its receiver on its band,
        # its own link's gain and its receiver's noise
        self.ent_col = [[row[j] for row in gains[q]] for _, j, q in ends]
        self.ent_gain = [gains[q][i][j] for i, j, q in ends]
        self.ent_noise = [noise[q][j] for _, j, q in ends]
        self.node_band_entries = {k: v.tolist() for k, v in lay.node_band_entries.items()}
        self.ent_link = lay.ent_link.tolist()
        self.link_entries = [range(sl.start, sl.stop) for sl in lay.link_slices]
        # the entries each node sends on, in node order
        self.node_entries = [np.flatnonzero(lay.ent_tx == i) for i in range(lay.n)]
        # flows are numbered session by session, path by path
        self.flow_paths = [path for ps in self.paths for path in ps]
        self.session_flows = []
        pos = 0
        for ps in self.paths:
            self.session_flows.append(range(pos, pos + len(ps)))
            pos += len(ps)
        self.link_paths = [[] for _ in range(lay.n_links)]
        for k, path in enumerate(self.flow_paths):
            for li in path:
                self.link_paths[li].append(k)

    def split(self, vec):
        a = self.n_power
        b = a + self.n_flow
        return vec[:a], vec[a:b], vec[b:]

    def link_flow(self, li, fl):
        """Flow on link li: its paths' flows from the list fl, in path order."""
        return _total(fl[k] for k in self.link_paths[li])

    def routed(self, w, fl):
        return _total(fl[k] for k in self.session_flows[w])

    def overflow(self, w, fl):
        """Session w's overflow cost, inf where it routes past its demand."""
        sess = self.scenario.sessions[w]
        rejected = sess.demand - self.routed(w, fl)
        if rejected < -1e-12:
            return math.inf
        return sess.utility.overflow_cost(max(0.0, rejected), sess.demand)

    def price(self, pl, fl, sh):
        """Every piece of the cost at the powers, path flows and shares pl,
        fl, sh (lists of floats): each band's node powers, the link flows,
        and per entry its band flow, capacity and term, then per session its
        overflow cost."""
        npow = _node_power(self, pl)
        lflow = [self.link_flow(li, fl) for li in range(len(self.link_paths))]
        bflow = [s * lflow[li] for s, li in zip(sh, self.ent_link)]
        caps = [_capacity(self, e, npow[q], pe) for e, (q, pe) in enumerate(zip(self.ent_band, pl))]
        terms = [_term(c, f) for c, f in zip(caps, bflow)]
        overs = [self.overflow(w, fl) for w in range(len(self.paths))]
        return npow, lflow, bflow, caps, terms, overs

    def evaluate(self, vec) -> float:
        *_, terms, overs = self.price(*(part.tolist() for part in self.split(vec)))
        return _total(terms) + _total(overs)


@dataclass(frozen=True)
class OracleResult:
    cost: float
    state: ControlState
    restart_costs: tuple
    evaluations: int


def _to_control_state(problem: _OracleProblem, vec) -> ControlState:
    scen = problem.scenario
    lay = scen.layout
    p, flows, shares = problem.split(vec)
    rho = np.zeros((lay.n, lay.band_count))
    eta = np.zeros(lay.n_entries)
    for (i, q), entries in lay.node_band_entries.items():
        group = p[entries]
        tot = float(group.sum())
        rho[i, q] = tot / scen.power_budget[i]
        eta[entries] = group / tot if tot > 0 else 1.0 / entries.size
    mu = shares.copy()
    # a node that routes nothing keeps the even split's shortest-hop rows
    phi = uniform_state(scen).phi
    phi_w = np.zeros(len(scen.sessions))
    for w, (sess, ks) in enumerate(zip(scen.sessions, problem.session_flows)):
        routed = float(flows[ks.start : ks.stop].sum())
        phi_w[w] = max(0.0, min(1.0, 1.0 - routed / sess.demand))
        outflow = np.zeros(lay.n_links)
        for k in ks:
            outflow[list(problem.flow_paths[k])] += flows[k]
        # no path leaves the destination, so its rows stay zero
        for out in lay.out_links:
            idx = list(out)
            loads = outflow[idx]
            tot = loads.sum()
            if tot > 0:
                phi[w, idx] = loads / tot
    return ControlState(rho=rho, eta=eta, phi=phi, phi_w=phi_w, mu=mu)


@dataclass(frozen=True)
class _Coord:
    kind: str  # "p" power, "f" path flow, "pt"/"ft"/"st" pairwise transfers
    a: int
    b: int = -1
    session: int = -1


def _ring_pairs(kind, idx, session=-1):
    """Consecutive transfer pairs covering a group; a closing pair for k > 2.

    Transfers along consecutive pairs span the whole tangent space of the
    group's sum constraint, which is what lets single-coordinate moves keep
    improving when the group total is pinned.
    """
    k = len(idx)
    if k < 2:
        return []
    out = [_Coord(kind, int(idx[t]), int(idx[t + 1]), session) for t in range(k - 1)]
    if k > 2:
        out.append(_Coord(kind, int(idx[-1]), int(idx[0]), session))
    return out


class _Search:
    """Cyclic coordinate search over the oracle parameterization.

    Each coordinate is a 1-D section of the cost: one entry power, one
    path flow, or a pairwise transfer inside a budget/simplex group (power
    within a node, flow within a session, shares within a link).  Sections
    are minimized on raw cost values only, no gradients anywhere.

    ``refresh`` is the one full pricing of the start and of each accepted
    point: it keeps what ``_OracleProblem.price`` returns there and sets
    ``cost``.  A section's ``fun`` moves a copy of one list the way
    ``minimize_coord`` moves the vector, and ``_cost`` prices again only
    the terms that move changes, then adds every term in order; so each
    section value is exactly ``evaluate`` of the moved vector, and a move
    is accepted at its section value.
    """

    def __init__(self, problem: _OracleProblem, vec):
        self.problem = problem
        self.vec = vec
        self.evals = 0
        self.coords = self._build_coords()
        self.refresh()

    def _build_coords(self):
        prob = self.problem
        coords = [_Coord("p", e) for e in range(prob.n_power)]
        for idx in prob.node_entries:
            coords.extend(_ring_pairs("pt", idx))
        for w, ks in enumerate(prob.session_flows):
            coords.extend(_Coord("f", k, session=w) for k in ks)
            coords.extend(_ring_pairs("ft", ks, session=w))
        for ents in prob.link_entries:
            coords.extend(_ring_pairs("st", ents))
        return coords

    def refresh(self):
        """Price the point `vec`, one evaluation, keeping every piece as a list."""
        prob = self.problem
        self.pl, self.fl, self.sh = (part.tolist() for part in prob.split(self.vec))
        self.npow, self.lflow, self.bflow, self.caps, self.terms, self.overs = prob.price(
            self.pl, self.fl, self.sh
        )
        self.cost = _total(self.terms) + _total(self.overs)
        self.evals += 1
        # the loaded entries of each band: those a power move prices again
        self.on_band = [[] for _ in range(prob.band_count)]
        for e, f in enumerate(self.bflow):
            if f > 0.0:
                self.on_band[prob.ent_band[e]].append(e)

    def _cost(self, pl, fl, sh, cells=(), links=(), sessions=()):
        """Cost at the lists pl, fl, sh, which differ from the refreshed ones
        only in the node powers of the (node, band) `cells`, the flows or
        shares on `links` and the routed flow of `sessions`."""
        prob = self.problem
        terms = self.terms.copy()
        for i, q in cells:
            npow_q = self.npow[q].copy()
            npow_q[i] = _total(pl[e] for e in prob.node_band_entries[(i, q)])
            for e in self.on_band[q]:
                terms[e] = _term(_capacity(prob, e, npow_q, pl[e]), self.bflow[e])
        for li in links:
            lf = prob.link_flow(li, fl)
            for e in prob.link_entries[li]:
                terms[e] = _term(self.caps[e], sh[e] * lf)
        overs = self.overs.copy()
        for w in sessions:
            overs[w] = prob.overflow(w, fl)
        return _total(terms) + _total(overs)

    def _section(self, c):
        """Build (fun, lo, hi, cur) for one coordinate, or None to skip it."""
        prob = self.problem
        a, b = c.a, c.b
        ends = (a,) if c.kind in ("p", "f") else (a, b)
        pl, fl, sh = self.pl, self.fl, self.sh
        if c.kind in ("p", "pt"):
            cells = {(prob.ent_tx[e], prob.ent_band[e]) for e in ends}
            # a power move prices again only the loaded entries of its bands
            if not any(self.on_band[q] for _, q in cells):
                return None
            pl = arr = pl.copy()
            scope = {"cells": cells}
        elif c.kind in ("f", "ft"):
            fl = arr = fl.copy()
            scope = {"links": {li for k in ends for li in prob.flow_paths[k]}, "sessions": (c.session,)}
        else:
            li = prob.ent_link[a]
            if self.lflow[li] <= 0.0:
                return None
            sh = arr = sh.copy()
            scope = {"links": (li,)}
        cost = self._cost
        if len(ends) == 1:
            cur = arr[a]
            if c.kind == "p":
                node = prob.ent_tx[a]
                # powers lead the vector, so these are the node's powers
                slack = float(prob.scenario.power_budget[node]) - float(self.vec[prob.node_entries[node]].sum())
            else:
                slack = prob.scenario.sessions[c.session].demand - prob.routed(c.session, self.fl)

            def fun(x):
                arr[a] = x
                return cost(pl, fl, sh, **scope)

            return fun, 0.0, cur + max(0.0, slack), cur
        va, vb = arr[a], arr[b]

        def fun(d):
            arr[a] = max(0.0, va + d)
            arr[b] = max(0.0, vb - d)
            return cost(pl, fl, sh, **scope)

        return fun, -va, vb, 0.0

    def _array_for(self, kind):
        return dict(zip("pfs", self.problem.split(self.vec)))[kind[0]]

    def minimize_coord(self, c):
        built = self._section(c)
        if built is None:
            return False
        fun, lo, hi, cur = built
        best_x, best_f, ev = _line_min(fun, lo, hi, cur, self.cost)
        self.evals += ev
        if best_x == cur or not best_f < self.cost:
            return False
        arr = self._array_for(c.kind)
        if c.kind in ("p", "f"):
            arr[c.a] = best_x
        else:
            arr[c.a] = max(0.0, arr[c.a] + best_x)
            arr[c.b] = max(0.0, arr[c.b] - best_x)
        self.refresh()
        return True

    def run(self, rng, sweeps, freeze_power):
        coords = self.coords
        if freeze_power:
            coords = [c for c in coords if c.kind not in ("p", "pt")]
        stall = 0
        for _ in range(sweeps):
            before = self.cost
            for ci in rng.permutation(len(coords)):
                self.minimize_coord(coords[ci])
            if before - self.cost <= STALL_TOL * max(1.0, abs(self.cost)):
                stall += 1
                if stall >= 2:
                    break
            else:
                stall = 0


def reference_solve_small(
    scenario: NetworkScenario,
    seed: int = 0,
    restarts: int = 5,
    sweeps: int = 60,
    freeze_power: bool = False,
) -> OracleResult:
    """Numeric-only coordinate search over tiny instances, best of restarts.

    Raises TooLargeError beyond MAX_NODES, MAX_SESSIONS or MAX_BANDS;
    those caps keep the simple-path enumeration and the per-sweep work
    affordable.  freeze_power keeps transmit powers at their initial value
    so closed-form toy problems in flow variables can be checked in
    isolation.  Raises ValueError when restarts or sweeps is below 1.

    Each restart draws its start inside the constraint set (a node spends
    under 0.95 of its budget, a session routes at most 0.3 of its demand)
    and shrinks its path flows while the start's cost is infinite.
    """
    if restarts < 1 or sweeps < 1:
        raise ValueError(f"restarts and sweeps must be at least 1, got {restarts} and {sweeps}")
    lay = scenario.layout
    if lay.n > MAX_NODES:
        raise TooLargeError(f"{lay.n} nodes > {MAX_NODES}")
    if len(scenario.sessions) > MAX_SESSIONS:
        raise TooLargeError(f"{len(scenario.sessions)} sessions > {MAX_SESSIONS}")
    if lay.band_count > MAX_BANDS:
        raise TooLargeError(f"{lay.band_count} bands > {MAX_BANDS}")
    problem = _OracleProblem(scenario)
    rng = np.random.default_rng(seed)
    best_vec = None
    best_cost = math.inf
    restart_costs = []
    evals = 0
    for _ in range(restarts):
        p0 = np.empty(lay.n_entries)
        for i, idx in enumerate(problem.node_entries):
            raw = rng.uniform(0.2, 1.0, idx.size)
            p0[idx] = scenario.power_budget[i] * rng.uniform(0.3, 0.95) * raw / raw.sum()
        f0 = np.concatenate(
            [
                np.full(len(ps), 0.3 * scenario.sessions[w].demand / len(ps))
                * rng.uniform(0.5, 1.0, len(ps))
                for w, ps in enumerate(problem.paths)
            ]
        )
        s0 = np.empty(lay.n_entries)
        for sl in lay.link_slices:
            raw = rng.uniform(0.5, 1.0, sl.stop - sl.start)
            s0[sl.start : sl.stop] = raw / raw.sum()
        search = _Search(problem, np.concatenate([p0, f0, s0]))
        shrinks = 0
        while not math.isfinite(search.cost) and shrinks < 10:
            # admitted flow too aggressive for the sampled powers; back off
            f0 = f0 * 0.2 if shrinks < 9 else np.zeros_like(f0)
            search.vec = np.concatenate([p0, f0, s0])
            search.refresh()
            shrinks += 1
        search.run(rng, sweeps, freeze_power)
        vec = search.vec
        cost = search.cost
        evals += search.evals
        restart_costs.append(cost)
        if best_vec is None or cost < best_cost:
            best_cost = cost
            best_vec = vec.copy()
    state = _to_control_state(problem, best_vec)
    return OracleResult(
        cost=best_cost,
        state=state,
        restart_costs=tuple(restart_costs),
        evaluations=evals,
    )
