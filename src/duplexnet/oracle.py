"""Independent checks for the analytic gradients and the solver.

``finite_diff_check`` differentiates the total cost numerically, by
Richardson extrapolation of central differences with a step chosen per
coordinate, and compares against the gradient the evaluation keeps for
each ControlState array.
It refuses to run when the state is too close to a cost barrier for the
differences to be trustworthy, and it skips coordinates lying within a
margin of a constraint boundary (one-sided conventions apply there).

``reference_solve_small`` minimizes the same objective with none of the
package's analytic machinery: it parameterizes by raw per-entry transmit
powers, per-session simple-path flows, and per-link band shares, evaluates
SINR through its own kernel written in a different algebraic arrangement,
and runs a derivative-free cyclic coordinate search: each scalar
coordinate (one power, one path flow, or a pairwise transfer inside a
budget/simplex group) is minimized by a grid scan plus golden-section
refinement on raw cost values, restarted from several random interior
points.  Deliberately brute force and only for tiny instances; its value
is having no formula in common with :mod:`duplexnet.gradients` or
:mod:`duplexnet.optimizer` beyond the problem statement itself.

The pricing runs on plain Python floats, with every sum and product in
one fixed order, so each cost is the same double wherever it is computed.
A section over one power (or a transfer between two powers of a node)
changes the node's total power on the moved entries' bands only, so it
prices again only the loaded entries on those bands and adds every
entry's term in entry order: the same total as pricing all entries.
This speeds the search without sharing any formula with the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .coloring import TooLargeError
from .scenario import ControlState, NetworkScenario, _hop_distances, derive


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


def _require_headroom(scenario, derived):
    x = derived.physical.sinr
    f = derived.flows.band_flow
    cap = kernels.capacity(x, scenario.cost.bandwidth, scenario.cost.gain_factor)
    for e in range(f.shape[0]):
        if f[e] <= 0:
            continue
        if x[e] <= 0:
            raise BoundaryTooCloseError(f"entry {e} carries flow with no sinr")
        if not f[e] <= (1.0 - HEADROOM) * cap[e]:
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
    _require_headroom(scenario, derived)
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
        values = getattr(state, kind)
        analytic = derived.gradient(kind)
        worst = 0.0
        checked = skipped = 0
        for idx in zip(*np.nonzero(mask)):
            v = values[idx]
            # phi_w is the one array with an upper bound, 1
            if v < MARGIN or (kind == "phi_w" and v > 1.0 - MARGIN):
                skipped += 1
                continue

            def cost_at(value, kind=kind, idx=idx):
                moved = state.copy()
                getattr(moved, kind)[idx] = value
                return derive(scenario, moved, parent=derived, changed=kind).total

            # the first step stays within a quarter of the distance to zero;
            # an estimate that is not finite fails the check
            fd = _extrapolated(cost_at, v, min(H0, v / 4.0))
            worst = max(worst, _rel_err(fd, analytic[idx]) if math.isfinite(fd) else math.inf)
            checked += 1
        families[kind] = FamilyReport(worst, checked, skipped)
    return CheckReport(families=families)


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


def _price(prob, e, npow_q, pe, f):
    """f / (cap - f) of loaded entry e at power pe, inf past its barrier;
    npow_q holds every node's power on the entry's band."""
    rx_total = 0.0
    for gm, pm in zip(prob.ent_col[e], npow_q):
        rx_total += gm * pm
    g = prob.ent_gain[e]
    inn = rx_total - g * pe + prob.ent_noise[e]
    sig = g * pe
    if sig <= 0.0:
        return math.inf
    cap = prob.bandwidth * math.log(prob.gain_factor * sig / inn)
    if cap <= 0.0 or f >= cap:
        return math.inf
    return f / (cap - f)


def _oracle_cost(prob, p, band_flow):
    """Sum of f / (cap - f) over the loaded entries, inf past any barrier;
    p and band_flow are lists of floats, one per entry."""
    npow = _node_power(prob, p)
    total = 0.0
    for e, f in enumerate(band_flow):
        if f == 0.0:
            continue
        term = _price(prob, e, npow[prob.ent_band[e]], p[e], f)
        if term == math.inf:
            return math.inf
        total += term
    return total


def _oracle_sinr(prob, p):
    npow = _node_power(prob, p)
    out = np.empty(len(p))
    for e, pe in enumerate(p):
        rx_total = 0.0
        for gm, pm in zip(prob.ent_col[e], npow[prob.ent_band[e]]):
            rx_total += gm * pm
        g = prob.ent_gain[e]
        inn = rx_total - g * pe + prob.ent_noise[e]
        sig = g * pe
        # -1 marks "no usable signal"; callers map it to a -inf capacity
        out[e] = sig / inn if (sig > 0.0 and inn > 0.0) else -1.0
    return out


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


def _project_budget(p, budget):
    """Project onto {p >= 0, sum p <= budget} (euclidean)."""
    q = np.maximum(0.0, p)
    if q.sum() <= budget:
        return q
    # the projection then lies on the face sum p = budget
    return budget * _project_simplex(p / budget)


def _project_simplex(v):
    """Project onto {v >= 0, sum v = 1} (euclidean)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho_idx = np.nonzero(u * np.arange(1, len(v) + 1) > (css - 1.0))[0][-1]
    theta = (css[rho_idx] - 1.0) / (rho_idx + 1.0)
    return np.maximum(0.0, v - theta)


def _subset_cost(cap, flow):
    """Sum of f/(cap - f) over loaded entries, inf when any is at capacity.

    cap must already be -inf wherever the entry has no usable signal, so a
    single comparison covers the whole barrier precedence: an unloaded
    entry is free, a loaded one needs 0 < f < cap.
    """
    loaded = flow > 0.0
    if not loaded.any():
        return 0.0
    f = flow[loaded]
    c = cap[loaded]
    if (c <= f).any():
        return math.inf
    return float((f / (c - f)).sum())


def _one_cost(cap, f):
    if f <= 0.0:
        return 0.0
    if cap <= f:
        return math.inf
    return f / (cap - f)


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
        if any(not ps for ps in self.paths):
            raise ValueError("a session has no path to its destination")
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

    def split(self, vec):
        a = self.n_power
        b = a + self.n_flow
        return vec[:a], vec[a:b], vec[b:]

    def evaluate(self, vec) -> float:
        scen = self.scenario
        lay = scen.layout
        p, flows, shares = self.split(vec)
        link_flow = np.zeros(lay.n_links)
        pos = 0
        over_total = 0.0
        for w, sess in enumerate(scen.sessions):
            ps = self.paths[w]
            f = flows[pos : pos + len(ps)]
            pos += len(ps)
            routed = float(f.sum())
            rejected = sess.demand - routed
            if rejected < -1e-12:
                return math.inf
            for k, path in enumerate(ps):
                for li in path:
                    link_flow[li] += f[k]
            over_total += sess.utility.overflow_cost(max(0.0, rejected), sess.demand)
        band_flow = shares * link_flow[lay.ent_link]
        link_total = _oracle_cost(self, p.tolist(), band_flow.tolist())
        return float(link_total + over_total)

    def project(self, vec):
        scen = self.scenario
        lay = scen.layout
        p, flows, shares = self.split(vec)
        p = p.copy()
        for i in range(lay.n):
            idx = np.nonzero(lay.ent_tx == i)[0]
            if idx.size:
                p[idx] = _project_budget(p[idx], scen.power_budget[i])
        flows = flows.copy()
        pos = 0
        for w, sess in enumerate(scen.sessions):
            k = len(self.paths[w])
            seg = flows[pos : pos + k]
            flows[pos : pos + k] = _project_budget(seg, sess.demand)
            pos += k
        shares = shares.copy()
        for sl in lay.link_slices:
            if sl.stop - sl.start == 1:
                shares[sl.start] = 1.0
            elif sl.stop > sl.start:
                shares[sl.start : sl.stop] = _project_simplex(shares[sl.start : sl.stop])
        return np.concatenate([p, flows, shares])


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
    phi = np.zeros((len(scen.sessions), lay.n_links))
    phi_w = np.zeros(len(scen.sessions))
    pos = 0
    for w, sess in enumerate(scen.sessions):
        ps = problem.paths[w]
        f = flows[pos : pos + len(ps)]
        pos += len(ps)
        routed = float(f.sum())
        phi_w[w] = max(0.0, min(1.0, 1.0 - routed / sess.demand))
        outflow = np.zeros(lay.n_links)
        for k, path in enumerate(ps):
            for li in path:
                outflow[li] += f[k]
        d = int(lay.dest[w])
        dist = _hop_distances(scen.graph, d)
        for i in range(lay.n):
            if i == d:
                continue
            idx = list(lay.out_links[i])
            loads = outflow[idx]
            tot = loads.sum()
            if tot > 0:
                phi[w, idx] = loads / tot
            else:
                forward = [li for li in idx if dist[lay.links[li][1]] < dist[i]]
                for li in forward:
                    phi[w, li] = 1.0 / len(forward)
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
    are minimized on raw cost values only, no gradients anywhere.  Every
    candidate move is re-priced with the full independent evaluation before
    being accepted, so the incremental bookkeeping can only ever miss an
    improvement, never accept a spurious one.

    ``refresh`` keeps each loaded entry's term at the accepted point; a
    power section prices in floats the terms on the bands its move changes
    (one for a power, at most two for a transfer) and sums all terms in
    entry order, which gives exactly the whole-entry price.
    """

    def __init__(self, problem: _OracleProblem, vec, cost):
        self.problem = problem
        self.vec = vec
        self.cost = float(cost)
        self.evals = 0
        scen = problem.scenario
        lay = scen.layout
        self.node_entries = {
            i: np.flatnonzero(lay.ent_tx == i)
            for i in range(lay.n)
            if np.any(lay.ent_tx == i)
        }
        self.flow_session = np.empty(problem.n_flow, dtype=np.int64)
        self.flow_inc = np.zeros((problem.n_flow, lay.n_links))
        self.flow_entries = []
        pos = 0
        for w, ps in enumerate(problem.paths):
            for path in ps:
                self.flow_session[pos] = w
                for li in path:
                    self.flow_inc[pos, li] = 1.0
                on_path = np.isin(lay.ent_link, np.asarray(path, dtype=np.int64))
                self.flow_entries.append(np.flatnonzero(on_path))
                pos += 1
        self.coords = self._build_coords()
        self.refresh()

    def _build_coords(self):
        lay = self.problem.scenario.layout
        coords = [_Coord("p", e) for e in range(lay.n_entries)]
        for idx in self.node_entries.values():
            coords.extend(_ring_pairs("pt", idx))
        pos = 0
        for w, ps in enumerate(self.problem.paths):
            k = len(ps)
            coords.extend(_Coord("f", pos + t, session=w) for t in range(k))
            coords.extend(_ring_pairs("ft", range(pos, pos + k), session=w))
            pos += k
        for sl in lay.link_slices:
            if sl.stop - sl.start >= 2:
                coords.extend(_ring_pairs("st", range(sl.start, sl.stop)))
        return coords

    def refresh(self):
        """Rebuild the cached pieces the fast 1-D sections read from."""
        prob = self.problem
        scen = prob.scenario
        lay = scen.layout
        self.p, self.flows, self.shares = prob.split(self.vec)
        self.link_flow = self.flows @ self.flow_inc
        self.band_flow = self.shares * self.link_flow[lay.ent_link]
        pl = self.p.tolist()
        bf = self.band_flow.tolist()
        sinr = _oracle_sinr(prob, pl)
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = prob.bandwidth * np.log(prob.gain_factor * np.maximum(sinr, 1e-300))
        self.cap = np.where(sinr > 0.0, raw, -math.inf)
        self.routed = np.zeros(len(scen.sessions))
        np.add.at(self.routed, self.flow_session, self.flows)
        self.over = np.array(
            [
                s.utility.overflow_cost(max(0.0, s.demand - self.routed[w]), s.demand)
                for w, s in enumerate(scen.sessions)
            ]
        )
        self.over_total = float(self.over.sum())
        self.link_cost = _subset_cost(self.cap, self.band_flow)
        # what the power sections start from: the powers and flows as
        # floats, every band's node powers, and each loaded entry's term
        # in entry order, with the (slot, entry) pairs of each band
        self._pl, self._bf = pl, bf
        self._npow = _node_power(prob, pl)
        loaded = [e for e, f in enumerate(bf) if f != 0.0]
        self._terms = [_price(prob, e, self._npow[prob.ent_band[e]], pl[e], bf[e]) for e in loaded]
        self._on_band = [[] for _ in range(prob.band_count)]
        for slot, e in enumerate(loaded):
            self._on_band[prob.ent_band[e]].append((slot, e))

    def _power_total(self, pl, cells):
        """Link cost at powers pl, which differ from the refreshed ones only
        at the (node, band) cells given: only the terms of loaded entries
        on those bands are priced again, and all are summed in entry order."""
        prob = self.problem
        bf = self._bf
        terms = self._terms.copy()
        for i, q in cells:
            npow_q = self._npow[q].copy()
            tot = 0.0
            for e in prob.node_band_entries[(i, q)]:
                tot += pl[e]
            npow_q[i] = tot
            for slot, e in self._on_band[q]:
                terms[slot] = _price(prob, e, npow_q, pl[e], bf[e])
        total = 0.0
        for t in terms:
            total += t
        return total

    def _section(self, c):
        """Build (fun, lo, hi, cur) for one coordinate, or None to skip it."""
        scen = self.problem.scenario
        lay = scen.layout
        if c.kind in ("p", "pt"):
            prob = self.problem
            pl = self._pl.copy()
            ot = self.over_total
            power_total = self._power_total
            if c.kind == "p":
                e = c.a
                node = prob.ent_tx[e]
                cells = ((node, prob.ent_band[e]),)
                slack = float(scen.power_budget[node]) - float(self.p[self.node_entries[node]].sum())
                cur = pl[e]
                hi = cur + max(0.0, slack)

                def fun(x):
                    pl[e] = x
                    return power_total(pl, cells) + ot

                return fun, 0.0, hi, cur
            a, b = c.a, c.b
            pa, pb = pl[a], pl[b]
            node = prob.ent_tx[a]
            cells = {(node, prob.ent_band[a]), (node, prob.ent_band[b])}

            def fun(d):
                pl[a] = max(0.0, pa + d)
                pl[b] = max(0.0, pb - d)
                return power_total(pl, cells) + ot

            return fun, -pa, pb, 0.0
        if c.kind == "f":
            fi = c.a
            sess = scen.sessions[c.session]
            pe = self.flow_entries[fi]
            cap_pe = self.cap[pe]
            bf_pe = self.band_flow[pe]
            sh_pe = self.shares[pe]
            rest = self.link_cost - _subset_cost(cap_pe, bf_pe)
            over_rest = self.over_total - float(self.over[c.session])
            cur = float(self.flows[fi])
            routed_others = float(self.routed[c.session]) - cur
            hi = cur + max(0.0, sess.demand - float(self.routed[c.session]))
            util, demand = sess.utility, sess.demand

            def fun(x):
                f_sub = bf_pe + sh_pe * (x - cur)
                over_w = util.overflow_cost(max(0.0, demand - (routed_others + x)), demand)
                return rest + _subset_cost(cap_pe, f_sub) + over_rest + over_w

            return fun, 0.0, hi, cur
        if c.kind == "ft":
            a, b = c.a, c.b
            pe = np.union1d(self.flow_entries[a], self.flow_entries[b])
            inc_a = np.isin(pe, self.flow_entries[a]).astype(float)
            inc_b = np.isin(pe, self.flow_entries[b]).astype(float)
            dvec = self.shares[pe] * (inc_a - inc_b)
            cap_pe = self.cap[pe]
            bf_pe = self.band_flow[pe]
            base = self.over_total + self.link_cost - _subset_cost(cap_pe, bf_pe)

            def fun(d):
                return base + _subset_cost(cap_pe, bf_pe + d * dvec)

            return fun, -float(self.flows[a]), float(self.flows[b]), 0.0
        a, b = c.a, c.b
        lflow = float(self.link_flow[lay.ent_link[a]])
        if lflow <= 0.0:
            return None
        ca, cb = float(self.cap[a]), float(self.cap[b])
        fa0, fb0 = float(self.band_flow[a]), float(self.band_flow[b])
        base = self.link_cost - _one_cost(ca, fa0) - _one_cost(cb, fb0) + self.over_total

        def fun(d):
            return base + _one_cost(ca, fa0 + d * lflow) + _one_cost(cb, fb0 - d * lflow)

        return fun, -float(self.shares[a]), float(self.shares[b]), 0.0

    def _array_for(self, kind):
        if kind in ("p", "pt"):
            return self.p
        if kind in ("f", "ft"):
            return self.flows
        return self.shares

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
            olds = (float(arr[c.a]),)
            arr[c.a] = best_x
        else:
            olds = (float(arr[c.a]), float(arr[c.b]))
            arr[c.a] = max(0.0, olds[0] + best_x)
            arr[c.b] = max(0.0, olds[1] - best_x)
        new_cost = self.problem.evaluate(self.vec)
        self.evals += 1
        if new_cost < self.cost:
            self.cost = float(new_cost)
            self.refresh()
            return True
        arr[c.a] = olds[0]
        if len(olds) == 2:
            arr[c.b] = olds[1]
        return False

    def run(self, rng, sweeps, freeze_power):
        coords = self.coords
        if freeze_power:
            coords = [c for c in coords if c.kind not in ("p", "pt")]
        if not coords:
            return
        stall = 0
        for _ in range(max(1, sweeps)):
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
    isolation.
    """
    lay = scenario.layout
    if lay.n > MAX_NODES:
        raise TooLargeError(f"{lay.n} nodes > {MAX_NODES}")
    if len(scenario.sessions) > MAX_SESSIONS:
        raise TooLargeError(f"{len(scenario.sessions)} sessions > {MAX_SESSIONS}")
    if lay.band_count > MAX_BANDS:
        raise TooLargeError(f"{lay.band_count} bands > {MAX_BANDS}")
    problem = _OracleProblem(scenario)
    paths = problem.paths
    rng = np.random.default_rng(seed)
    best_vec = None
    best_cost = math.inf
    restart_costs = []
    evals = 0
    for _ in range(max(1, restarts)):
        p0 = np.empty(lay.n_entries)
        for i in range(lay.n):
            idx = np.nonzero(lay.ent_tx == i)[0]
            if idx.size == 0:
                continue
            raw = rng.uniform(0.2, 1.0, idx.size)
            p0[idx] = scenario.power_budget[i] * rng.uniform(0.3, 0.95) * raw / raw.sum()
        f0 = np.concatenate(
            [
                np.full(len(ps), 0.3 * scenario.sessions[w].demand / max(1, len(ps)))
                * rng.uniform(0.5, 1.0, len(ps))
                for w, ps in enumerate(paths)
            ]
        )
        s0 = np.empty(lay.n_entries)
        for sl in lay.link_slices:
            raw = rng.uniform(0.5, 1.0, sl.stop - sl.start)
            s0[sl.start : sl.stop] = raw / raw.sum()
        vec = problem.project(np.concatenate([p0, f0, s0]))
        cost = problem.evaluate(vec)
        evals += 1
        shrinks = 0
        while not math.isfinite(cost) and shrinks < 10:
            # admitted flow too aggressive for the sampled powers; back off
            f0 = f0 * 0.2 if shrinks < 9 else np.zeros_like(f0)
            vec = problem.project(np.concatenate([p0, f0, s0]))
            cost = problem.evaluate(vec)
            evals += 1
            shrinks += 1
        search = _Search(problem, vec, cost)
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
