"""Network model: scenario data, control variables, and the cost evaluator.

A scenario fixes the physical side of the problem: the connectivity graph,
a duplexing-feasible sub-band allocation, per-band channel gains and noise,
per-node power budgets, traffic sessions, and the queueing-cost family.
The control state holds everything the optimizer moves: per-node power
splits across bands (rho), per-entry power splits across a node's links on
a band (eta), per-session routing fractions (phi) plus an overflow fraction
(phi_w), and per-link flow splits across bands (mu).

Evaluation proceeds in two independent halves.  The physical half turns
(rho, eta) into per-entry SINR through the interference model in
:mod:`duplexnet.kernels`.  The flow half turns (phi, phi_w, mu) into
per-entry flows by routing each session's admitted traffic through the
positive-fraction subgraph, which must be acyclic.  The two meet in the
link cost F/(C - F) with capacity C = bandwidth * ln(gain_factor * sinr),
plus a per-session overflow cost from the utility forgone on rejected
traffic.  A zero-flow entry costs zero no matter how bad its SINR; a
loaded entry with F >= C or C <= 0 costs +inf.

Because the halves are independent, a state that differs from an
evaluated one in a single array is evaluated by recomputing only the half
that array feeds (only the per-entry band flows, for mu, and only the
sessions whose routing rows changed, for phi and phi_w); :func:`derive`
takes the rest from the earlier evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import kernels
from .graph import ConnectivityGraph
from .subband import SpectrumAllocation, check_allocation


class CycleDetectedError(ValueError):
    """The positive routing fractions of some session contain a cycle."""

    def __init__(self, session: int, nodes=()):
        self.session = session
        self.nodes = tuple(nodes)
        msg = f"routing cycle in session {session}"
        if self.nodes:
            msg += f" among nodes {sorted(self.nodes)}"
        super().__init__(msg)


@dataclass(frozen=True)
class Utility:
    """Concave session utility; overflow cost is the utility forgone.

    kind "log" is weight * ln(1 + rate); kind "linear" is weight * rate.
    """

    kind: str = "log"
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in ("log", "linear"):
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if not 0 < self.weight < math.inf:
            raise ValueError("utility weight must be positive and finite")

    def value(self, rate: float) -> float:
        if self.kind == "log":
            return self.weight * math.log1p(rate)
        return self.weight * rate

    def overflow_cost(self, rejected: float, demand: float) -> float:
        return self.value(demand) - self.value(demand - rejected)

    def overflow_derivative(self, rejected: float, demand: float) -> float:
        if self.kind == "log":
            return self.weight / (1.0 + demand - rejected)
        return self.weight

    def overflow_curvature(self, rejected: float, demand: float) -> float:
        """Second derivative of the overflow cost in the overflow fraction."""
        if self.kind == "log":
            return demand**2 * self.weight / (1.0 + demand - rejected) ** 2
        return 0.0


@dataclass(frozen=True)
class Session:
    origin: object
    dest: object
    demand: float
    utility: Utility = field(default_factory=Utility)

    def __post_init__(self):
        if self.origin == self.dest:
            raise ValueError("session origin equals destination")
        if not 0 < self.demand < math.inf:
            raise ValueError("session demand must be positive and finite")


@dataclass(frozen=True)
class CostParams:
    """Capacity model C(x) = bandwidth * ln(gain_factor * x)."""

    bandwidth: float = 1.0
    gain_factor: float = 50.0

    def __post_init__(self):
        if not (0 < self.bandwidth < math.inf and 0 < self.gain_factor < math.inf):
            raise ValueError("bandwidth and gain_factor must be positive and finite")


@dataclass(frozen=True)
class Layout:
    """Flattened index arrays for one scenario, shared by all evaluations.

    Entries are the active (link, band) pairs, grouped by link and ordered
    by band within a link, so a link's entries form one contiguous slice.
    tx_cell[e] and rx_cell[e] are entry e's (tx, band) and (rx, band)
    positions in a raveled [n, bands] array, heard_cell[e] its (band, rx)
    position in a raveled [bands, n] one; ent_gain and ent_noise are each
    entry's own link gain and its receiver's noise on its band, and
    ent_gain_budget is ent_gain times the transmitter's power budget.
    """

    links: tuple
    ent_tx: np.ndarray
    ent_rx: np.ndarray
    ent_band: np.ndarray
    ent_link: np.ndarray
    tx_cell: np.ndarray
    rx_cell: np.ndarray
    heard_cell: np.ndarray
    ent_gain: np.ndarray
    ent_noise: np.ndarray
    ent_gain_budget: np.ndarray
    link_slices: tuple
    out_links: tuple
    node_band_entries: dict
    rho_mask: np.ndarray
    origin: np.ndarray
    dest: np.ndarray

    @property
    def n(self) -> int:
        return self.rho_mask.shape[0]

    @property
    def band_count(self) -> int:
        return self.rho_mask.shape[1]

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def n_entries(self) -> int:
        return self.ent_tx.shape[0]

    @cached_property
    def wide_tx_cells(self) -> tuple:
        """The (tx, band) cells of 8 or more entries, as :func:`wide_groups`
        gives them for tx_cell."""
        return wide_groups(self.tx_cell, self.n * self.band_count)

    @cached_property
    def wide_links(self) -> tuple:
        """The links of 8 or more entries, as :func:`wide_groups` gives them
        for ent_link."""
        return wide_groups(self.ent_link, self.n_links)

    @cached_property
    def link_ends(self):
        """Tail and head index arrays of the links."""
        ends = np.array(self.links, dtype=np.int64).reshape(-1, 2)
        return ends[:, 0], ends[:, 1]

    @cached_property
    def blocks(self) -> tuple:
        """Every block of a sweep, in the canonical order."""
        out = []
        for li, sl in enumerate(self.link_slices):
            if sl.stop - sl.start > 1:
                out.append(Block("mu", np.arange(sl.start, sl.stop), li))
        for (i, q), entries in sorted(self.node_band_entries.items()):
            if entries.size > 1:
                out.append(Block("eta", entries, (i, q)))
        for i in range(self.n):
            if np.any(self.rho_mask[i]):
                out.append(Block("rho", i * self.band_count + np.flatnonzero(self.rho_mask[i]), i))
        for w, d in enumerate(self.dest.tolist()):
            for i in range(self.n):
                if i != d and len(self.out_links[i]) > 1:
                    out.append(Block("phi", w * self.n_links + np.array(self.out_links[i], dtype=np.int64), (w, i)))
            out.append(Block("phi_w", np.array([w]), w))
        return tuple(out)

    @cached_property
    def segments(self) -> Segments:
        """Every block of :attr:`blocks` laid end to end, in table order;
        see :class:`Segments`."""
        table = self.blocks
        sessions = self.dest.size
        # per kind: the size of its array, and the shape its groups index,
        # its family's load or for rho and phi_w (no load) the array's rows
        shapes = {
            "rho": (self.n * self.band_count, (self.n,)),
            "eta": (self.n_entries, (self.n, self.band_count)),
            "phi": (sessions * self.n_links, (sessions, self.n)),
            "phi_w": (sessions, (sessions,)),
            "mu": (self.n_entries, (self.n_links,)),
        }
        present = {b.kind for b in table}
        kinds = tuple(kind for kind in FAMILIES if kind in present)
        position = {kind: f for f, kind in enumerate(kinds)}
        family = np.array([position[b.kind] for b in table], dtype=np.int64)
        offsets = np.cumsum([0] + [shapes[kind][0] for kind in kinds])
        cell_offsets = np.cumsum([0] + [math.prod(shapes[kind][1]) for kind in kinds])
        group_ids = np.empty(len(table), dtype=np.int64)
        for f, kind in enumerate(kinds):
            mine = np.flatnonzero(family == f)
            groups = np.array([table[k].group for k in mine.tolist()], dtype=np.int64).reshape(mine.size, -1)
            group_ids[mine] = cell_offsets[f] + np.ravel_multi_index(tuple(groups.T), shapes[kind][1])
        lengths = np.array([b.key.size for b in table], dtype=np.int64)
        rows = np.repeat(np.arange(len(table)), lengths)
        return Segments(
            kinds=kinds,
            family=family,
            index=np.concatenate([b.key for b in table]) + np.repeat(offsets[family], lengths),
            starts=np.cumsum(lengths) - lengths,
            rows=rows,
            wide=wide_groups(rows, len(table)),
            group_ids=group_ids,
        )


class Segments(NamedTuple):
    """Every block laid end to end in table order, for reductions over all
    of them at once.

    `kinds` are the block kinds that have blocks, in
    :data:`FAMILIES` order, and family[k] is block k's kind as a position
    in it.  `index` holds the blocks' keys one after another, block k's
    starting at starts[k], each coordinate as its position in the
    concatenation of the raveled ControlState arrays of `kinds`, in that
    order; rows[c] is the block that coordinate c of `index` belongs to,
    and `wide` the blocks of 8 or more coordinates, as :func:`wide_groups`
    gives them for `rows`.  group_ids[k] is block k's group as a position
    in the concatenation, in the same order, of each kind's group cells:
    the cells of its family's load, raveled, or for a family without one
    the rows of its array.
    """

    kinds: tuple
    family: np.ndarray
    index: np.ndarray
    starts: np.ndarray
    rows: np.ndarray
    wide: tuple
    group_ids: np.ndarray


class Block(NamedTuple):
    """One constraint group: `key` holds its coordinates as flat positions
    in the raveled ControlState array `kind`.

    `group` names the group: the link (mu), (node, band) (eta), the node
    (rho), (session, node) (phi) or the session (phi_w).
    """

    kind: str
    key: np.ndarray
    group: object


def _sliced(derived, block) -> tuple:
    """A block's gradient, curvature and fixed mask (None for a family
    without one) as slices of the evaluation's whole-network arrays."""
    fixed = FAMILIES[block.kind].fixed
    return (
        derived.gradient(block.kind).ravel()[block.key],
        derived.curvature(block.kind).ravel()[block.key],
        None if fixed is None else fixed(derived).ravel()[block.key],
    )


class Family(NamedTuple):
    """The rules the blocks of one ControlState array share.

    `constraint` is the feasible set :func:`duplexnet.optimizer.project_scaled`
    projects a block onto.  `feeds` is what a state that differs only in
    this array needs recomputed (:func:`derive`): the physical terms, the
    per-entry band flows alone, or the flows.  `separable` blocks change the
    link cost of their own entries only, so consecutive ones move as one
    run.  `load(derived)`, when given, is the load a block's group indexes:
    a group whose load is <= 0 carries none, its block's gradient is
    exactly zero and its residual is zero.  `marginal(derived)` is what the
    optimality conditions compare, shaped like the array.  `fixed(derived)`,
    when given, masks the coordinates pinned at zero, shaped like the array.
    `terms(derived, block)` is the block's gradient, curvature and fixed
    mask: by default slices of the whole-network arrays; a routing or
    admission block reads only its own session's rows, so that it builds
    no other session's terms.  Either way they equal, bit for bit, the
    block's slices of :meth:`DerivedState.gradient`,
    :meth:`DerivedState.curvature` and `fixed`.
    """

    constraint: str
    feeds: str
    separable: bool
    load: object
    marginal: object
    fixed: object
    terms: object = _sliced


# one row per ControlState array, in its field order: a link without flow
# (mu), a (node, band) without power (eta) and a node without inflow of the
# session (phi) carry no load; a routing row fixes the links closing a cycle
FAMILIES = {
    "rho": Family("sum_at_most_one", "physical", False, None, lambda d: d.gradient("rho"), None),
    "eta": Family("sum_to_one", "physical", True, lambda d: d.physical.node_band_power, lambda d: d.eta_delta, None),
    "phi": Family(
        "sum_to_one",
        "flows",
        False,
        lambda d: d.flows.inflow,
        lambda d: d.delta_phi,
        lambda d: d.cycle_mask,
        lambda d, block: d.routing_terms(block),
    ),
    "phi_w": Family(
        "box", "flows", False, None, lambda d: d.gradient("phi_w"), None, lambda d, block: d.overflow_terms(block)
    ),
    "mu": Family("sum_to_one", "band_flow", True, lambda d: d.flows.link_flow, lambda d: d.gradient("mu"), None),
}


@dataclass(eq=False)
class NetworkScenario:
    """Immutable-by-convention bundle of everything but the control state.

    gains has shape [bands, n, n] indexed [band, tx, rx]; noise has shape
    [bands, n]; power_budget has shape [n].  Node order follows graph.nodes.
    """

    graph: ConnectivityGraph
    allocation: SpectrumAllocation
    gains: np.ndarray
    noise: np.ndarray
    power_budget: np.ndarray
    sessions: tuple
    cost: CostParams = field(default_factory=CostParams)

    def __post_init__(self):
        g = self.graph
        n = g.n
        q = self.allocation.band_count
        self.gains = np.ascontiguousarray(self.gains, dtype=np.float64)
        self.noise = np.ascontiguousarray(self.noise, dtype=np.float64)
        self.power_budget = np.ascontiguousarray(self.power_budget, dtype=np.float64)
        self.sessions = tuple(self.sessions)
        if self.gains.shape != (q, n, n):
            raise ValueError(f"gains must have shape {(q, n, n)}, got {self.gains.shape}")
        if self.noise.shape != (q, n):
            raise ValueError(f"noise must have shape {(q, n)}, got {self.noise.shape}")
        if self.power_budget.shape != (n,):
            raise ValueError(f"power_budget must have shape {(n,)}")
        if not np.all((0 <= self.gains) & (self.gains < np.inf)):
            raise ValueError("gains must be nonnegative and finite")
        if not np.all((0 < self.noise) & (self.noise < np.inf)):
            raise ValueError("noise must be positive and finite")
        if not np.all((0 < self.power_budget) & (self.power_budget < np.inf)):
            raise ValueError("power budgets must be positive and finite")
        if not g.connected():
            raise ValueError("scenario graph must be connected")
        report = check_allocation(g, self.allocation)
        if not report.ok:
            raise ValueError(f"allocation is not duplexing-feasible: {report}")
        for w, sess in enumerate(self.sessions):
            for label, node in (("origin", sess.origin), ("dest", sess.dest)):
                if node not in g:
                    raise ValueError(f"session {w} {label} {node!r} not in graph")

    @cached_property
    def layout(self) -> Layout:
        g = self.graph
        links = tuple(sorted(g.internal_links()))
        ent_tx, ent_rx, ent_band, ent_link = [], [], [], []
        link_slices = []
        for li, (i, j) in enumerate(links):
            ext = (g.nodes[i], g.nodes[j])
            mask = self.allocation.link_bands[ext]
            start = len(ent_tx)
            for q in range(self.allocation.band_count):
                if mask >> q & 1:
                    ent_tx.append(i)
                    ent_rx.append(j)
                    ent_band.append(q)
                    ent_link.append(li)
            link_slices.append(slice(start, len(ent_tx)))
        out_links = [[] for _ in range(g.n)]
        for li, (i, _) in enumerate(links):
            out_links[i].append(li)
        node_band_entries = {}
        for e, (i, q) in enumerate(zip(ent_tx, ent_band)):
            node_band_entries.setdefault((i, q), []).append(e)
        node_band_entries = {k: np.array(v, dtype=np.int64) for k, v in node_band_entries.items()}
        rho_mask = np.zeros((g.n, self.allocation.band_count), dtype=bool)
        for node, oc in self.allocation.outgoing.items():
            i = g.index(node)
            for q in range(self.allocation.band_count):
                if oc >> q & 1:
                    rho_mask[i, q] = True
        origin = np.array([g.index(s.origin) for s in self.sessions], dtype=np.int64)
        dest = np.array([g.index(s.dest) for s in self.sessions], dtype=np.int64)
        ent_tx, ent_rx, ent_band = (np.array(v, dtype=np.int64) for v in (ent_tx, ent_rx, ent_band))
        bands = self.allocation.band_count
        heard_cell = ent_band * g.n + ent_rx
        ent_gain = self.gains[ent_band, ent_tx, ent_rx]
        return Layout(
            links=links,
            ent_tx=ent_tx,
            ent_rx=ent_rx,
            ent_band=ent_band,
            ent_link=np.array(ent_link, dtype=np.int64),
            tx_cell=ent_tx * bands + ent_band,
            rx_cell=ent_rx * bands + ent_band,
            heard_cell=heard_cell,
            ent_gain=ent_gain,
            ent_noise=self.noise.ravel()[heard_cell],
            ent_gain_budget=ent_gain * self.power_budget[ent_tx],
            link_slices=tuple(link_slices),
            out_links=tuple(map(tuple, out_links)),
            node_band_entries=node_band_entries,
            rho_mask=rho_mask,
            origin=origin,
            dest=dest,
        )


@dataclass
class ControlState:
    """All optimizer-controlled variables, as dense arrays.

    rho[i, q]: node i's power fraction on band q (support inside its
    outgoing band set, sums to at most 1 per node).  eta[e]: entry e's
    share of its (node, band) power (sums to 1 over each node-band group).
    phi[w, l]: session w's routing fraction on link l (sums to 1 over the
    outgoing links of every non-destination node).  phi_w[w]: rejected
    fraction of session w's demand.  mu[e]: entry e's share of its link's
    flow (sums to 1 over each link's entries).
    """

    rho: np.ndarray
    eta: np.ndarray
    phi: np.ndarray
    phi_w: np.ndarray
    mu: np.ndarray

    def copy(self) -> "ControlState":
        """A float64 copy, so a start held in integers moves by fractions."""
        return ControlState(**{name: getattr(self, name).astype(np.float64, order="C") for name in FAMILIES})

    def moved(self, kind: str, moves) -> "ControlState":
        """A state with `value` written at the flat positions `key` of a
        float64 copy of its array `kind` for each (key, value) of `moves`,
        in order; this state stays as it is.

        Only the array `kind` is copied: the new state shares the other four
        with this one.  No code writes a state's array once the state is
        built (an evaluation relies on that as well), so sharing is safe;
        :meth:`copy` gives a state whose arrays may be written."""
        array = getattr(self, kind).astype(np.float64, order="C")
        # the copy is C-contiguous, so ravel() is a view of it
        flat = array.ravel()
        for key, value in moves:
            flat[key] = value
        return ControlState(**{**vars(self), kind: array})


def uniform_state(scenario: NetworkScenario, power: float = 1.0, overflow: float = 0.0) -> ControlState:
    """Even splits everywhere; routing follows shortest-hop DAGs.

    Each node spends `power` of its budget split evenly across its bands,
    every node-band group splits evenly across its entries, every link
    splits its flow evenly across its bands, and each session rejects the
    `overflow` fraction and splits the rest evenly across outgoing links
    that strictly reduce hop distance to the destination.
    """
    if not 0 <= power <= 1 or not 0 <= overflow <= 1:
        raise ValueError("power and overflow must lie in [0, 1]")
    lay = scenario.layout
    g = scenario.graph
    rho = lay.rho_mask * (power / np.maximum(lay.rho_mask.sum(axis=1, keepdims=True), 1))
    eta = 1.0 / np.bincount(lay.tx_cell, minlength=lay.n * lay.band_count)[lay.tx_cell]
    mu = 1.0 / np.bincount(lay.ent_link, minlength=lay.n_links)[lay.ent_link]
    phi = np.zeros((len(scenario.sessions), lay.n_links))
    for w in range(len(scenario.sessions)):
        d = int(lay.dest[w])
        dist = _hop_distances(g, d)
        for i in range(lay.n):
            if i == d:
                continue
            # on a connected graph, BFS layering gives every node a hop-decreasing link
            forward = [li for li in lay.out_links[i] if dist[lay.links[li][1]] < dist[i]]
            for li in forward:
                phi[w, li] = 1.0 / len(forward)
    phi_w = np.full(len(scenario.sessions), float(overflow))
    return ControlState(rho=rho, eta=eta, phi=phi, phi_w=phi_w, mu=mu)


def _hop_distances(g: ConnectivityGraph, dest: int):
    dist = [math.inf] * g.n
    dist[dest] = 0
    frontier = [dest]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.adjacency(v):
                if dist[u] == math.inf:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


# validate_state's slack on a bound; a group's sum may miss 1 by 10 ATOL
ATOL = 1e-9


def validate_state(scenario: NetworkScenario, state: ControlState) -> list:
    """Constraint violations as human-readable strings; empty means valid.

    Every group's sum (power rows, power-share groups, band splits and
    routing rows) comes from one :func:`group_sums` pass per array.
    """
    lay = scenario.layout
    g = scenario.graph
    bad = []
    if state.rho.shape != (lay.n, lay.band_count):
        return [f"rho shape {state.rho.shape} != {(lay.n, lay.band_count)}"]
    if state.eta.shape != (lay.n_entries,) or state.mu.shape != (lay.n_entries,):
        return ["eta/mu shape mismatch"]
    if state.phi.shape != (len(scenario.sessions), lay.n_links):
        return [f"phi shape {state.phi.shape} != {(len(scenario.sessions), lay.n_links)}"]
    if state.phi_w.shape != (len(scenario.sessions),):
        return [f"phi_w shape {state.phi_w.shape} != {(len(scenario.sessions),)}"]
    for name in FAMILIES:
        if not np.all(np.isfinite(getattr(state, name))):
            bad.append(f"non-finite {name} entry")
    off = ~lay.rho_mask & (np.abs(state.rho) > ATOL)
    for i, q in zip(*np.nonzero(off)):
        bad.append(f"rho[{g.nodes[i]}, band {q}] nonzero outside the band set")
    if np.any(state.rho < -ATOL):
        bad.append("negative rho entry")
    bands = lay.band_count
    tot = group_sums(state.rho.ravel(), np.repeat(np.arange(lay.n), bands), lay.n).tolist()
    for i in range(lay.n):
        if tot[i] > 1 + ATOL:
            bad.append(f"node {g.nodes[i]} power fractions sum to {tot[i]:.6g} > 1")
    # a (node, band) group's number, its tx_cell, is node * bands + band,
    # so numbers ascend in the sorted order of node_band_entries
    tot = group_sums(state.eta, lay.tx_cell, lay.n * bands, lay.wide_tx_cells)
    size = np.bincount(lay.tx_cell, minlength=lay.n * bands)
    for k in np.flatnonzero((size > 0) & (np.abs(tot - 1) > ATOL * np.maximum(10, size))).tolist():
        bad.append(f"eta over node {g.nodes[k // bands]} band {k % bands} sums to {tot[k]:.6g} != 1")
    if np.any(state.eta < -ATOL):
        bad.append("negative eta entry")
    tot = group_sums(state.mu, lay.ent_link, lay.n_links, lay.wide_links)
    for li in np.flatnonzero(np.abs(tot - 1) > ATOL * 10).tolist():
        i, j = lay.links[li]
        bad.append(f"mu over link ({g.nodes[i]}, {g.nodes[j]}) sums to {tot[li]:.6g} != 1")
    if np.any(state.mu < -ATOL):
        bad.append("negative mu entry")
    if np.any(state.phi < -ATOL):
        bad.append("negative phi entry")
    if np.any((state.phi_w < -ATOL) | (state.phi_w > 1 + ATOL)):
        bad.append("phi_w outside [0, 1]")
    sessions = len(scenario.sessions)
    rows = (np.arange(sessions)[:, None] * lay.n + lay.link_ends[0]).ravel()
    row_sums = group_sums(state.phi.ravel(), rows, sessions * lay.n).reshape(sessions, lay.n).tolist()
    for w in range(sessions):
        d = int(lay.dest[w])
        for i, tot in enumerate(row_sums[w]):
            if i == d:
                if tot > ATOL:
                    bad.append(f"session {w} routes out of its destination")
            elif abs(tot - 1) > ATOL * 10:
                bad.append(f"session {w} fractions at node {g.nodes[i]} sum to {tot:.6g} != 1")
        try:
            _session_topo_order(lay, state.phi[w], d, w)
        except CycleDetectedError as exc:
            bad.append(str(exc))
    return bad


@dataclass(frozen=True)
class PhysicalTerms:
    """The per-(node, band) power and the per-entry power, interference,
    SINR and capacity bandwidth * ln(gain_factor * SINR) of one power
    allocation; the capacity is -inf where the SINR is <= 0
    (:func:`kernels.capacity`).  The link cost and its derivatives all read
    this capacity, so an evaluation takes the log once, and a trial that
    leaves the physical terms to its parent takes none."""

    node_band_power: np.ndarray
    power: np.ndarray
    interference: np.ndarray
    sinr: np.ndarray
    capacity: np.ndarray


@dataclass(frozen=True)
class FlowTerms:
    """Per-session inflows and flows and per-link and per-entry flows of one
    routing pattern.

    session_flow[w, l] is session w's flow on link l, 0.0 where the session
    puts none; each session routes on a link at most once, so link_flow,
    their sum in session order from 0.0, equals adding each session's flow
    straight onto the link.  orders[w] and adjacency[w] are session w's
    topological order and its positive-fraction adjacency, as
    :func:`_session_topo_order` returns them.  A session's row of inflow
    and session_flow, its order and its adjacency depend on its own row of
    phi and phi_w alone, so :func:`evaluate_flows` takes them from an
    earlier evaluation for every session whose rows did not change.
    """

    inflow: np.ndarray
    session_flow: np.ndarray
    link_flow: np.ndarray
    band_flow: np.ndarray
    overflow: np.ndarray
    orders: tuple
    adjacency: tuple


class _lazy:
    """A property computed on first read and kept in the instance's
    __dict__, where later reads find it without calling the descriptor.
    functools.cached_property does the same but, before Python 3.12, takes
    a lock on every first read; an evaluation is used by one thread."""

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True, eq=False)
class DerivedState:
    """The evaluation of `state` on `scenario`: its terms, costs and gradients.

    Everything below the costs is computed on first use and kept, each
    from the terms it reads: the SINR pair of link-cost derivatives
    (:attr:`signal_derivatives`, which the power messages, eta and rho
    read) and the flow pair (:attr:`flow_derivatives`, which the link
    marginals, mu and routing read), the per-link marginals, the power
    messages, and for every ControlState array its whole-network gradient
    (:meth:`gradient`) and, apart from it, its diagonal curvature
    (:meth:`curvature`), shaped like the array.  So a block builds its own
    family's terms only, and the residuals, which read marginals, build no
    curvature.

    The routing terms are per session.  A session's row of node marginals
    (:meth:`node_marginal_row`) and of the cycle mask (:meth:`cycle_row`)
    are each built on first use and kept; a routing or admission block
    computes its delta, gradient and curvature on its own links from them
    (:meth:`routing_terms`, :meth:`overflow_terms`), so a block builds no
    other session's rows.  The whole-network arrays that the residuals and
    checks read (:attr:`node_marginals`, :attr:`cycle_mask`,
    :attr:`delta_phi`, and the phi and phi_w gradients and curvatures) are
    those rows stacked in session order, from the same formulas.

    A zero fraction or flow times an infinite marginal (an unloaded entry
    with nonpositive capacity has an infinite d_f) is taken to be zero, so
    such coordinates stay inert.  The evaluation holds `state` itself, not
    a copy, so the state must not change while the evaluation is in use.
    """

    scenario: NetworkScenario = field(repr=False)
    state: ControlState = field(repr=False)
    physical: PhysicalTerms
    flows: FlowTerms
    link_cost: np.ndarray
    overflow_cost: np.ndarray
    total: float

    @_lazy
    def signal_derivatives(self):
        """Per-entry (d_x, d_xx); see :func:`kernels.signal_derivatives`."""
        return kernels.signal_derivatives(
            self.physical.sinr, self.flows.band_flow, self.physical.capacity, self.scenario.cost.bandwidth
        )

    @_lazy
    def flow_derivatives(self):
        """Per-entry (d_f, d_ff); see :func:`kernels.flow_derivatives`."""
        return kernels.flow_derivatives(self.flows.band_flow, self.physical.capacity)

    @_lazy
    def link_marginals(self) -> np.ndarray:
        """Per-link marginal cost of flow: the mu-weighted d_f of its entries."""
        lay = self.scenario.layout
        mu = self.state.mu
        used = np.flatnonzero(mu != 0.0)
        # entries accumulate in index order; zero shares are skipped so an
        # infinite d_f on an unused band stays inert
        d_f = self.flow_derivatives[0]
        return np.bincount(lay.ent_link[used], weights=mu[used] * d_f[used], minlength=lay.n_links)

    @_lazy
    def power_messages(self) -> np.ndarray:
        """Marginal cost of unit interference power, per (node, band).

        Entry e contributes d_x[e] * (-x_e^2 / (g_e * p_e)) to its receiver's
        message on its band; unloaded or unpowered entries contribute zero.
        """
        lay = self.scenario.layout
        d_x = self.signal_derivatives[0]
        p = self.physical.power
        x = self.physical.sinr
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where((p > 0) & (d_x != 0), d_x * -(x**2) / (lay.ent_gain * p), 0.0)
        size = lay.n * lay.band_count
        return np.bincount(lay.rx_cell, weights=term, minlength=size).reshape(lay.n, lay.band_count)

    def _stacked(self, row, width: int, dtype=np.float64) -> np.ndarray:
        """The sessions' rows `row(w)`, each `width` long, stacked in session order."""
        sessions = len(self.scenario.sessions)
        return np.array([row(w) for w in range(sessions)], dtype=dtype).reshape(sessions, width)

    @_lazy
    def _node_marginal_rows(self) -> list:
        """Per session, its row of :meth:`node_marginal_row` once built, else None."""
        return [None] * len(self.scenario.sessions)

    def node_marginal_row(self, w: int) -> np.ndarray:
        """Per node: the cost of one more unit of session w's traffic at the
        node, the fraction-weighted sum over the node's positive outgoing
        links of the link marginal plus the head's marginal, in reverse
        topological order; 0 at the destination.  Built on first use."""
        rows = self._node_marginal_rows
        if rows[w] is None:
            lay = self.scenario.layout
            d = int(lay.dest[w])
            adj = self.flows.adjacency[w]
            # Python floats: the same operations as on numpy scalars, bit for bit
            link_marginal = self.link_marginals.tolist()
            phi = self.state.phi[w].tolist()
            row = [0.0] * lay.n
            for v in reversed(self.flows.orders[w]):
                if v == d:
                    continue
                acc = 0.0
                for u, li in adj[v]:
                    acc += phi[li] * (link_marginal[li] + row[u])
                row[v] = acc
            rows[w] = np.array(row, dtype=np.float64)
        return rows[w]

    @_lazy
    def node_marginals(self) -> np.ndarray:
        """Per (session, node): :meth:`node_marginal_row` stacked."""
        return self._stacked(self.node_marginal_row, self.scenario.layout.n)

    @_lazy
    def _cycle_rows(self) -> list:
        """Per session, its row of :meth:`cycle_row` once built, else None."""
        return [None] * len(self.scenario.sessions)

    def cycle_row(self, w: int) -> np.ndarray:
        """Per link: True where phi[w, l] is zero and raising it would close
        a routing cycle, since the link's tail is reachable from its head
        through positive fractions.  Built on first use.

        If the row has a zero fraction, one pass in reverse topological
        order gives each node the set of nodes it reaches (itself included)
        as a Python-int bitset: its own bit or'ed with the sets of its
        positive out-links' heads.
        """
        rows = self._cycle_rows
        if rows[w] is None:
            lay = self.scenario.layout
            mask = np.zeros(lay.n_links, dtype=bool)
            zero = np.flatnonzero(self.state.phi[w] == 0.0).tolist()
            if zero:
                adj = self.flows.adjacency[w]
                reach = [0] * lay.n
                for v in reversed(self.flows.orders[w]):
                    bits = 1 << v
                    for u, _ in adj[v]:
                        bits |= reach[u]
                    reach[v] = bits
                ends = [lay.links[li] for li in zero]
                mask[zero] = [reach[j] >> i & 1 for i, j in ends]
            rows[w] = mask
        return rows[w]

    @_lazy
    def cycle_mask(self) -> np.ndarray:
        """Per (session, link): :meth:`cycle_row` stacked."""
        return self._stacked(self.cycle_row, self.scenario.layout.n_links, dtype=bool)

    def gradient(self, kind: str) -> np.ndarray:
        """Partial derivatives of total cost in the ControlState array `kind`."""
        return getattr(self, f"_{kind}_gradient")

    def curvature(self, kind: str) -> np.ndarray:
        """Diagonal curvature estimates in the ControlState array `kind`, which
        scale its block steps: second derivatives of the link and overflow
        costs, without cross-interference terms."""
        return getattr(self, f"_{kind}_curvature")

    @_lazy
    def _mu_gradient(self):
        """Link flow times d_f, zero on unloaded links."""
        lay = self.scenario.layout
        flow = self.flows.link_flow[lay.ent_link]
        grad = np.zeros(lay.n_entries)
        loaded = flow > 0
        grad[loaded] = flow[loaded] * self.flow_derivatives[0][loaded]
        return grad

    @_lazy
    def _mu_curvature(self):
        """d_ff times link flow squared."""
        flow = self.flows.link_flow[self.scenario.layout.ent_link]
        return self.flow_derivatives[1] * flow * flow

    @_lazy
    def eta_delta(self) -> np.ndarray:
        """Per-entry marginal d_x * g * (1 + x) / interference, which the
        optimality conditions compare within a (node, band) group."""
        x = self.physical.sinr
        return self.signal_derivatives[0] * self.scenario.layout.ent_gain * (1.0 + x) / self.physical.interference

    @_lazy
    def _eta_gradient(self):
        """node_band_power * (eta_delta minus the (node, band) group's sum of
        d_x * g * x / interference), zero in unpowered groups."""
        lay = self.scenario.layout
        psi = self.signal_derivatives[0] * lay.ent_gain * self.physical.sinr / self.physical.interference
        cell = lay.tx_cell
        group = group_sums(psi, cell, lay.n * lay.band_count, lay.wide_tx_cells)[cell]
        base = self.physical.node_band_power.ravel()[cell]
        grad = np.zeros(lay.n_entries)
        on = base != 0.0
        grad[on] = base[on] * (self.eta_delta[on] - group[on])
        return grad

    @_lazy
    def _eta_curvature(self):
        """d_xx times (g * node_band_power / interference) squared."""
        lay = self.scenario.layout
        base = self.physical.node_band_power.ravel()[lay.tx_cell]
        return self.signal_derivatives[1] * (lay.ent_gain * base / self.physical.interference) ** 2

    @_lazy
    def _rho_gradient(self):
        """budget_i * (sum_n gains[q, i, n] * msg[n, q] + sum over i's band-q
        entries of eta_delta * eta), per (node, band).

        The message-passing form is exact where each (node, band) share
        group sums to one, the constraint set; off it,
        :func:`duplexnet.oracle.delta_rho_direct` is the derivative.
        """
        lay = self.scenario.layout
        cross = np.einsum("qin,nq->iq", self.scenario.gains, self.power_messages)
        own = np.bincount(lay.tx_cell, weights=self.eta_delta * self.state.eta, minlength=lay.n * lay.band_count)
        return self.scenario.power_budget[:, None] * (cross + own.reshape(lay.n, lay.band_count))

    @_lazy
    def _rho_curvature(self):
        """The (node, band) group's sum of d_xx times
        (g * budget * eta / interference) squared."""
        lay = self.scenario.layout
        share = self.signal_derivatives[1] * (lay.ent_gain_budget * self.state.eta / self.physical.interference) ** 2
        return group_sums(share, lay.tx_cell, lay.n * lay.band_count, lay.wide_tx_cells).reshape(
            lay.n, lay.band_count
        )

    def _delta_phi_on(self, w: int, links) -> np.ndarray:
        """Session w's delta_phi on `links` (link indices, or a slice): the
        link's marginal plus the session's node marginal at the link's head,
        defined for every link."""
        return self.link_marginals[links] + self.node_marginal_row(w)[self.scenario.layout.link_ends[1][links]]

    def _phi_gradient_on(self, w: int, links) -> np.ndarray:
        """Session w's phi gradient on `links`: inflow t at the link's tail
        times delta_phi, zero without inflow or out of the destination even
        where delta_phi is infinite."""
        lay = self.scenario.layout
        tails = lay.link_ends[0][links]
        t = self.flows.inflow[w, tails]
        grad = np.zeros(t.size)
        live = (t > 0.0) & (tails != lay.dest[w])
        grad[live] = t[live] * self._delta_phi_on(w, links)[live]
        return grad

    def _phi_curvature_on(self, w: int, links) -> np.ndarray:
        """Session w's phi curvature on `links`: inflow at the link's tail
        squared times the link's sum of mu squared times d_ff."""
        t = self.flows.inflow[w, self.scenario.layout.link_ends[0][links]]
        return t * t * self._link_flow_curvature[links]

    @_lazy
    def _link_flow_curvature(self) -> np.ndarray:
        """Per link, the sum over its entries of mu squared times d_ff."""
        lay = self.scenario.layout
        mu = self.state.mu
        return group_sums(mu * mu * self.flow_derivatives[1], lay.ent_link, lay.n_links, lay.wide_links)

    def routing_terms(self, block) -> tuple:
        """A routing block's gradient, curvature and fixed mask, computed on
        its own links from its session's rows alone."""
        w = block.group[0]
        links = block.key - w * self.state.phi.shape[1]
        return self._phi_gradient_on(w, links), self._phi_curvature_on(w, links), self.cycle_row(w)[links]

    @_lazy
    def delta_phi(self) -> np.ndarray:
        """Per (session, link): :meth:`_delta_phi_on` of every link, stacked."""
        return self._stacked(lambda w: self._delta_phi_on(w, slice(None)), self.scenario.layout.n_links)

    @_lazy
    def _phi_gradient(self):
        """Per (session, link): :meth:`_phi_gradient_on` of every link, stacked."""
        return self._stacked(lambda w: self._phi_gradient_on(w, slice(None)), self.scenario.layout.n_links)

    @_lazy
    def _phi_curvature(self):
        """Per (session, link): :meth:`_phi_curvature_on` of every link, stacked."""
        return self._stacked(lambda w: self._phi_curvature_on(w, slice(None)), self.scenario.layout.n_links)

    def _overflow_gradient_of(self, w: int) -> float:
        """Session w's demand-scaled overflow marginal minus its origin's node marginal."""
        sess = self.scenario.sessions[w]
        slope = sess.utility.overflow_derivative(self.flows.overflow[w], sess.demand)
        return sess.demand * (slope - self.node_marginal_row(w)[self.scenario.layout.origin[w]])

    def _overflow_curvature_of(self, w: int) -> float:
        """Session w's overflow cost's second derivative."""
        sess = self.scenario.sessions[w]
        return sess.utility.overflow_curvature(self.flows.overflow[w], sess.demand)

    def overflow_terms(self, block) -> tuple:
        """An admission block's gradient and curvature, from its session's
        rows alone, and no fixed mask."""
        w = block.group
        return np.array([self._overflow_gradient_of(w)]), np.array([self._overflow_curvature_of(w)]), None

    @_lazy
    def _phi_w_gradient(self):
        """Per session: :meth:`_overflow_gradient_of`."""
        return np.array([self._overflow_gradient_of(w) for w in range(len(self.scenario.sessions))], dtype=np.float64)

    @_lazy
    def _phi_w_curvature(self):
        """Per session: :meth:`_overflow_curvature_of`."""
        return np.array([self._overflow_curvature_of(w) for w in range(len(self.scenario.sessions))], dtype=np.float64)


def group_sums(values: np.ndarray, groups: np.ndarray, count: int, wide=None) -> np.ndarray:
    """Per-group sums of `values`, each equal to np.sum over the group's
    values in index order.  bincount adds in order, as np.sum does below 8
    terms; from 8 terms on np.sum adds pairwise, so it sums those groups.
    `wide` may give those groups, as :func:`wide_groups` finds them for
    `groups`, to save finding them again."""
    out = np.bincount(groups, weights=values, minlength=count)
    for g, members in wide_groups(groups, count) if wide is None else wide:
        out[g] = np.sum(values[members])
    return out


def wide_groups(groups: np.ndarray, count: int) -> tuple:
    """(group, its positions in `groups`) for every group of 8 or more."""
    sizes = np.bincount(groups, minlength=count)
    return tuple((g, np.flatnonzero(groups == g)) for g in np.flatnonzero(sizes >= 8).tolist())


def evaluate_physical(scenario: NetworkScenario, state: ControlState) -> PhysicalTerms:
    lay = scenario.layout
    npow, power, interference, sinr = kernels.physical_terms(
        scenario.gains,
        scenario.power_budget,
        np.ascontiguousarray(state.rho),
        np.ascontiguousarray(state.eta),
        lay.ent_gain,
        lay.ent_noise,
        lay.tx_cell,
        lay.heard_cell,
    )
    cap = kernels.capacity(sinr, scenario.cost.bandwidth, scenario.cost.gain_factor)
    return PhysicalTerms(node_band_power=npow, power=power, interference=interference, sinr=sinr, capacity=cap)


def _session_topo_order(lay: Layout, phi_row: np.ndarray, dest: int, session: int):
    """Topological order of nodes under positive fractions, or a cycle error.

    Also returns the positive-fraction adjacency: adj[i] lists (head, link)
    for i's positive outgoing links, in link order.
    """
    n = lay.n
    adj = [[] for _ in range(n)]
    indeg = [0] * n
    for li in np.flatnonzero(phi_row > 0).tolist():
        i, j = lay.links[li]
        if i != dest:
            adj[i].append((j, li))
            indeg[j] += 1
    stack = [v for v in range(n) if indeg[v] == 0]
    order = []
    while stack:
        v = stack.pop()
        order.append(v)
        for u, _ in adj[v]:
            indeg[u] -= 1
            if indeg[u] == 0:
                stack.append(u)
    if len(order) < n:
        leftover = [v for v in range(n) if indeg[v] > 0]
        raise CycleDetectedError(session, leftover)
    return order, adj


def evaluate_flows(scenario: NetworkScenario, state: ControlState, parent: DerivedState = None) -> FlowTerms:
    """Route every session's admitted traffic through its positive fractions.

    Given `parent`, the evaluation of a state with other routing rows,
    only the sessions whose row of phi or phi_w differs from its state's
    are routed again, and a session whose phi row is the same keeps its
    order and adjacency; the rest comes from `parent.flows`.  The sessions
    are found by comparing the rows, so any number may differ, and one
    whose fractions close a cycle raises as a fresh evaluation would.
    """
    lay = scenario.layout
    sessions = len(scenario.sessions)
    if parent is None:
        reordered = rerouted = range(sessions)
        inflow, session_flow = [None] * sessions, [None] * sessions
        orders, adjacency = [None] * sessions, [None] * sessions
    else:
        old = parent.flows
        phi_moved = (state.phi != parent.state.phi).any(axis=1)
        reordered = set(np.flatnonzero(phi_moved).tolist())
        rerouted = np.flatnonzero(phi_moved | (state.phi_w != parent.state.phi_w)).tolist()
        inflow, session_flow = list(old.inflow), list(old.session_flow)
        orders, adjacency = list(old.orders), list(old.adjacency)
    # Python floats: the same operations as on numpy scalars, bit for bit
    phi_w = state.phi_w.tolist()
    demand = [sess.demand for sess in scenario.sessions]
    dest, origin = lay.dest.tolist(), lay.origin.tolist()
    for w in rerouted:
        if w in reordered:
            orders[w], adjacency[w] = _session_topo_order(lay, state.phi[w], dest[w], w)
        phi = state.phi[w].tolist()
        adj = adjacency[w]
        t = [0.0] * lay.n
        t[origin[w]] = demand[w] * (1.0 - phi_w[w])
        flow = [0.0] * lay.n_links
        for v in orders[w]:
            ti = t[v]
            if ti == 0.0:
                continue
            for u, li in adj[v]:
                f = flow[li] = ti * phi[li]
                t[u] += f
        inflow[w], session_flow[w] = t, flow
    session_flow = np.array(session_flow, dtype=np.float64).reshape(sessions, lay.n_links)
    # x + 0.0 is x (and the sum starts from 0.0, so it is never -0.0): the
    # links a session puts no flow on are added unchanged
    link_flow = np.zeros(lay.n_links)
    for row in session_flow:
        link_flow += row
    return FlowTerms(
        inflow=np.array(inflow, dtype=np.float64).reshape(sessions, lay.n),
        session_flow=session_flow,
        link_flow=link_flow,
        band_flow=_band_flow(lay, state.mu, link_flow),
        overflow=np.array([d * r for d, r in zip(demand, phi_w)], dtype=np.float64),
        orders=tuple(orders),
        adjacency=tuple(adjacency),
    )


def _band_flow(lay: Layout, mu: np.ndarray, link_flow: np.ndarray) -> np.ndarray:
    return mu * link_flow[lay.ent_link]


def derive(
    scenario: NetworkScenario,
    state: ControlState,
    *,
    parent: DerivedState = None,
    changed: str = None,
) -> DerivedState:
    """Evaluate `state`: physical terms, flows, and link and overflow costs.

    `parent` may be the evaluation of a state that differs from `state`
    only in the ControlState array named `changed`; the terms that array
    does not feed are then taken from `parent` instead of recomputed, and
    of the flows only the sessions whose routing rows changed are routed
    again (:func:`evaluate_flows`).  Either way every array of the result
    is, bit for bit, that of a fresh evaluation.
    """
    if parent is None:
        feeds = None
    elif changed in FAMILIES:
        feeds = FAMILIES[changed].feeds
    else:
        raise ValueError(f"unknown ControlState array {changed!r}")
    phys = parent.physical if feeds in ("band_flow", "flows") else evaluate_physical(scenario, state)
    if feeds == "physical":
        flows = parent.flows
    elif feeds == "band_flow":
        old = parent.flows
        flows = FlowTerms(
            old.inflow,
            old.session_flow,
            old.link_flow,
            _band_flow(scenario.layout, state.mu, old.link_flow),
            old.overflow,
            old.orders,
            old.adjacency,
        )
    else:
        flows = evaluate_flows(scenario, state, parent)
    link_cost = kernels.link_cost_terms(phys.capacity, flows.band_flow)
    if parent is not None and flows.overflow.tobytes() == parent.flows.overflow.tobytes():
        over = parent.overflow_cost
    else:
        rejected = flows.overflow.tolist()
        over = np.array([sess.utility.overflow_cost(r, sess.demand) for sess, r in zip(scenario.sessions, rejected)])
    return DerivedState(
        scenario=scenario,
        state=state,
        physical=phys,
        flows=flows,
        link_cost=link_cost,
        overflow_cost=over,
        total=summed_cost(link_cost, flows.band_flow, over),
    )


def summed_cost(link_cost: np.ndarray, band_flow: np.ndarray, overflow_cost: np.ndarray) -> float:
    """Total cost: the link costs of the loaded entries, summed in entry
    order by ndarray.sum (np.sum's own reduction), plus the overflow costs.
    :func:`derive` and the optimizer's replay of a run of separable blocks
    both total with it, so equal per-entry terms give bit-identical totals."""
    return float(link_cost[band_flow != 0.0].sum() + overflow_cost.sum())


def total_cost(scenario: NetworkScenario, state: ControlState) -> float:
    return derive(scenario, state).total


@dataclass(frozen=True)
class MPsdReport:
    psd: bool
    min_eigenvalue: float
    at_sinr: float
    at_flow: float
    points: int

    def __str__(self):
        verdict = "PSD" if self.psd else "NOT PSD"
        return (
            f"{verdict}: min eigenvalue {self.min_eigenvalue:.6g} at "
            f"sinr={self.at_sinr:.6g}, flow={self.at_flow:.6g} over {self.points} points"
        )


CAPACITY_SPAN = (0.25, 8.0)
FLOW_FRACTION_MAX = 0.95
PSD_TOL = 1e-10


def check_m_psd(cost: CostParams = CostParams(), derivs=None, grid: int = 50) -> MPsdReport:
    """Scan the curvature matrix of the link cost over its finite domain.

    The matrix pairs the log-SINR direction with the flow direction:

        [[d_xx * x^2 + d_x * x,  d_xf * x],
         [d_xf * x,              d_ff    ]]

    Positive semidefiniteness of this matrix everywhere is what a
    convexity-based convergence argument would need.  `derivs(x, f)` may
    supply the five derivatives of an alternative cost family; it is called
    once, elementwise on arrays, and a scalar output broadcasts.  The grid
    covers capacities in CAPACITY_SPAN (units of bandwidth) and flows up to
    FLOW_FRACTION_MAX of capacity, `grid` points per axis; a least
    eigenvalue down to -PSD_TOL counts as PSD.
    """
    if grid < 1:
        raise ValueError(f"grid must be at least 1, got {grid}")
    r, k = cost.bandwidth, cost.gain_factor
    if derivs is None:
        def derivs(x, f):
            return (*kernels.link_cost_derivatives(x, f, r, k), kernels.link_cost_cross(x, f, r, k))

    caps = np.linspace(CAPACITY_SPAN[0] * r, CAPACITY_SPAN[1] * r, grid)
    fracs = np.linspace(0.0, FLOW_FRACTION_MAX, grid)
    x = np.repeat(np.exp(caps / r) / k, grid)
    f = np.outer(caps, fracs).ravel()
    d_x, _, d_xx, d_ff, d_xf = derivs(x, f)
    a, b, c = d_xx * x * x + d_x * x, d_xf * x, d_ff
    lo = np.broadcast_to((a + c) / 2.0 - np.hypot((a - c) / 2.0, b), x.shape)
    at = int(np.argmin(lo))
    best = float(lo[at])
    return MPsdReport(
        psd=best >= -PSD_TOL, min_eigenvalue=best, at_sinr=float(x[at]), at_flow=float(f[at]), points=x.size
    )
