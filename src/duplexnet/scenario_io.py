"""Strict JSON scenario files.

A scenario file has sections ``graph``, ``spectrum``, ``channel``,
``power``, ``sessions``, and optionally ``cost`` and ``optimizer``.
Unknown keys and duplicate keys are errors, node names are all strings or
all numbers, and every number must be finite (no ``NaN`` or ``Infinity``).
All problems found in one file are reported together.
:func:`read_optimizer` applies the optimizer section's rules to solve
options from elsewhere, such as the command line, and :func:`read_values`
the file's rule for a number or an integer to any other value.

Channel gains come from node positions when given (power-law path loss
``distance ** -path_loss_exponent``), from a flat ``default_gain``
otherwise, and individual directed pairs can be overridden via entries
like ``"a->b": 0.25``.  A ``band_scale`` list makes gains differ across
bands.  Noise and power budgets accept either a scalar or a per-node
mapping.  The spectrum section either runs the allocation protocol
(``bands`` plus optional ``seed``/``first_node``) or takes explicit
per-node band lists under ``outgoing``.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .coloring import MAX_UNIVERSE, ColorSetFamily
from .graph import build_graph
from .scenario import CostParams, NetworkScenario, Session, Utility
from .subband import allocate_subbands, allocation_from_family


class ParseError(ValueError):
    """Invalid scenario file; carries every problem found."""

    def __init__(self, source, problems):
        self.source = str(source)
        self.problems = list(problems)
        lines = "\n".join(f"  - {p}" for p in self.problems)
        super().__init__(f"{source}: {len(self.problems)} problem(s)\n{lines}")


@dataclass
class LoadedScenario:
    scenario: NetworkScenario
    optimizer: dict = field(default_factory=dict)
    source: str = ""


_SECTIONS = ("graph", "spectrum", "channel", "power", "sessions")
_TOP_KEYS = {*_SECTIONS, "cost", "optimizer"}
_GRAPH_KEYS = {"nodes", "edges", "positions"}
_SPECTRUM_KEYS = {"bands", "seed", "first_node", "outgoing"}
_CHANNEL_KEYS = {"path_loss_exponent", "default_gain", "noise", "gains", "band_scale"}
_SESSION_KEYS = {"origin", "dest", "demand", "utility"}
_UTILITY_KEYS = {"kind", "weight"}
_COST_DEFAULTS = {"bandwidth": 1.0, "gain_factor": 50.0}


def _is_finite(val) -> bool:
    """A number that is not a bool, NaN, an infinity or an int beyond float range."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= sys.float_info.max


class _Reader:
    """The problems found so far, and one reader per kind of value.

    Each reader returns the value it read, or None after recording a problem
    that names the field.  ``names`` maps each node's name, as written in a
    mapping key, to the node; the graph reader fills it.
    """

    def __init__(self):
        self.problems = []
        self.names = {}

    def fail(self, problem):
        """Record a problem; returns None, a reader's value after a problem."""
        self.problems.append(problem)

    def raise_if_any(self, source):
        if self.problems:
            raise ParseError(source, self.problems)

    def keys(self, sec, allowed, required, where) -> bool:
        """Whether sec is an object that holds every required key; unknown keys are problems."""
        if not isinstance(sec, dict):
            self.fail(f"{where}: expected an object, got {type(sec).__name__}")
            return False
        self.problems += [f"{where}: unknown key {k!r} (allowed: {sorted(allowed)})" for k in sec if k not in allowed]
        missing = [f"{where}: missing required key {k!r}" for k in sorted(required) if k not in sec]
        self.problems += missing
        return not missing

    def number(self, val, where, low=-math.inf, high=math.inf):
        if not _is_finite(val):
            return self.fail(f"{where}: expected a finite number, got {val!r}")
        if not low <= val <= high:
            return self.fail(f"{where}: expected a value in [{low:g}, {high:g}], got {val!r}")
        return float(val)

    def positive(self, val, where):
        num = self.number(val, where)
        if num is not None and not num > 0:
            return self.fail(f"{where}: must be positive, got {val!r}")
        return num

    def count(self, val, where, least=0, most=math.inf):
        if type(val) is not int or not least <= val <= most:
            return self.fail(f"{where}: expected an integer in [{least}, {most}], got {val!r}")
        return val

    def choice(self, val, where, options):
        if val not in options:
            return self.fail(f"{where}: expected one of {', '.join(options)}, got {val!r}")
        return val

    def node(self, val, where):
        node = self.names.get(str(val))
        if node is None:
            self.fail(f"{where}: unknown node {val!r}")
        return node

    def point(self, val, where):
        if not isinstance(val, list) or len(val) != 2 or not all(map(_is_finite, val)):
            return self.fail(f"{where}: expected [x, y] of finite numbers, got {val!r}")
        return (float(val[0]), float(val[1]))

    def link(self, key, where):
        """The (tx, rx) nodes of a key like "a->b"."""
        tx, _, rx = key.partition("->")
        ends = self.node(tx, where), self.node(rx, where)
        return None if None in ends else ends

    def mapping(self, val, where, read_key, read):
        """{read_key(key): read(value)} over an object's entries that pass both readers."""
        if not isinstance(val, dict):
            return self.fail(f"{where}: expected a mapping, got {type(val).__name__}")
        got = [(read_key(key, where), read(item, f"{where}[{key!r}]")) for key, item in val.items()]
        return {k: v for k, v in got if k is not None and v is not None}

    def per_node(self, val, where, read, scalar=False):
        """{node: read(value)} over every node, from a mapping keyed by node name or, if scalar, one value."""
        if scalar and not isinstance(val, dict):
            one = read(val, where)
            return None if one is None else dict.fromkeys(self.names.values(), one)
        out = self.mapping(val, where, self.node, read)
        if out is None:
            return None
        missing = [key for key in self.names if key not in val]
        if missing:
            self.fail(f"{where}: missing nodes {missing}")
        return out if len(out) == len(self.names) else None


def _read_document(source):
    """The file's top-level object, with its sections checked for presence."""
    try:
        text = source.read_text()
    except OSError as exc:
        raise ParseError(source, [f"cannot read: {exc}"]) from exc

    def unique_keys(pairs):
        repeated = [key for key, n in Counter(key for key, _ in pairs).items() if n > 1]
        if repeated:
            raise ParseError(source, [f"duplicate key {key!r}" for key in repeated])
        return dict(pairs)

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(source, [f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"]) from exc
    if not isinstance(doc, dict):
        raise ParseError(source, ["top level must be an object"])
    problems = [f"unknown top-level section {k!r} (allowed: {sorted(_TOP_KEYS)})" for k in doc if k not in _TOP_KEYS]
    problems += [f"missing required section {k!r}" for k in _SECTIONS if k not in doc]
    if problems:
        raise ParseError(source, problems)
    return doc


def _read_graph(r, sec):
    """The connectivity graph and the node positions (or None); fills r.names."""
    if not r.keys(sec, _GRAPH_KEYS, {"nodes", "edges"}, "graph"):
        return None, None
    nodes, edges = sec["nodes"], sec["edges"]
    one_kind = isinstance(nodes, list) and (all(isinstance(v, str) for v in nodes) or all(map(_is_finite, nodes)))
    if not one_kind or not nodes:
        r.fail(f"graph.nodes: expected a nonempty list of all strings or all finite numbers, got {nodes!r}")
    elif not len(set(map(str, nodes))) == len(set(nodes)) == len(nodes):
        r.fail("graph.nodes: duplicate node names")
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        r.fail(f"graph.edges: expected a list of pairs, got {edges!r}")
    if r.problems:
        return None, None
    r.names = {str(v): v for v in nodes}
    pairs = [tuple(r.node(v, f"graph.edges[{k}]") for v in edge) for k, edge in enumerate(edges)]
    if r.problems:
        return None, None
    try:
        g = build_graph(pairs + [(b, a) for a, b in pairs])
    except ValueError as exc:
        r.fail(f"graph: {exc}")
        return None, None
    if len(g.nodes) < len(nodes):
        r.fail(f"graph: nodes with no edges: {sorted(map(str, set(nodes) - set(g.nodes)))}")
        return None, None
    positions = r.per_node(sec["positions"], "graph.positions", r.point) if "positions" in sec else None
    return g, positions


def _read_spectrum(r, sec, g):
    """The band count and a call that builds the allocation, or Nones after a problem."""
    if not r.keys(sec, _SPECTRUM_KEYS, {"bands"}, "spectrum"):
        return None, None
    bands = r.count(sec["bands"], "spectrum.bands", least=1, most=MAX_UNIVERSE)
    seed = None if sec.get("seed") is None else r.count(sec["seed"], "spectrum.seed")
    first = r.node(sec["first_node"], "spectrum.first_node") if "first_node" in sec else None
    if bands is None:
        return None, None
    if "outgoing" not in sec:
        return bands, partial(allocate_subbands, g, bands, seed=seed, first_node=first)

    def band_list(val, where):
        if isinstance(val, list) and all(type(b) is int and 0 <= b < bands for b in val):
            return val
        return r.fail(f"{where}: expected a list of band indices below {bands}, got {val!r}")

    masks = r.per_node(sec["outgoing"], "spectrum.outgoing", band_list)
    return bands, partial(_explicit_allocation, g, bands, masks)


def _explicit_allocation(g, bands, masks):
    return allocation_from_family(g, ColorSetFamily.from_sets(bands, masks))


def _read_channel(r, sec, g, positions, bands):
    """Gains [bands, n, n] and noise [bands, n], or Nones after a problem."""
    if not r.keys(sec, _CHANNEL_KEYS, set(), "channel"):
        return None, None
    alpha = r.positive(sec.get("path_loss_exponent", 3.5), "channel.path_loss_exponent")
    default_gain = r.positive(sec.get("default_gain", 0.01), "channel.default_gain")
    noise = r.per_node(sec.get("noise", 1e-3), "channel.noise", r.positive, scalar=True)
    overrides = r.mapping(sec.get("gains", {}), "channel.gains", r.link, partial(r.number, low=0.0))
    scale = sec.get("band_scale", [1.0] * (bands or 0))
    if not isinstance(scale, list) or (bands is not None and len(scale) != bands):
        r.fail(f"channel.band_scale: expected a list of one positive number per band, got {scale!r}")
    else:
        scale = [r.positive(s, f"channel.band_scale[{k}]") for k, s in enumerate(scale)]
    if r.problems:
        return None, None
    base = np.full((g.n, g.n), default_gain)
    if positions is not None:
        for a in range(g.n):
            pa = positions[g.nodes[a]]
            for b in range(g.n):
                if a == b:
                    continue
                pb = positions[g.nodes[b]]
                d = max(math.dist(pa, pb), 1e-3)
                base[a, b] = d**-alpha
    np.fill_diagonal(base, 0.0)
    for (a, b), gain in overrides.items():
        base[g.index(a), g.index(b)] = gain
    return np.stack([s * base for s in scale]), np.tile(np.array([noise[v] for v in g.nodes]), (bands, 1))


def _read_sessions(r, sec):
    if not isinstance(sec, list) or not sec:
        return r.fail("sessions: expected a nonempty list")
    sessions = []
    for k, item in enumerate(sec):
        where = f"sessions[{k}]"
        if not r.keys(item, _SESSION_KEYS, {"origin", "dest", "demand"}, where):
            continue
        origin = r.node(item["origin"], f"{where}.origin")
        dest = r.node(item["dest"], f"{where}.dest")
        demand = r.positive(item["demand"], f"{where}.demand")
        utility = _read_utility(r, item.get("utility", {}), f"{where}.utility")
        if None in (origin, dest, demand, utility):
            continue
        try:
            sessions.append(Session(origin=origin, dest=dest, demand=demand, utility=utility))
        except ValueError as exc:
            r.fail(f"{where}: {exc}")
    return sessions


def _read_utility(r, sec, where):
    if not r.keys(sec, _UTILITY_KEYS, set(), where):
        return None
    weight = r.positive(sec.get("weight", 1.0), f"{where}.weight")
    try:
        return Utility(kind=sec.get("kind", "log"), weight=1.0 if weight is None else weight)
    except ValueError as exc:
        return r.fail(f"{where}: {exc}")


def _read_cost(r, sec):
    if not r.keys(sec, _COST_DEFAULTS, set(), "cost"):
        return None
    values = {key: r.positive(sec.get(key, default), f"cost.{key}") for key, default in _COST_DEFAULTS.items()}
    return None if None in values.values() else CostParams(**values)


def _read_optimizer(r, sec, label):
    """The optimizer options that pass their rules; label(key) names a key in problems."""
    fraction = partial(r.number, low=0.0, high=1.0)
    readers = {"max_sweeps": r.count, "seed": r.count, "tol": r.positive, "power": fraction, "overflow": fraction,
               "order": partial(r.choice, options=("round_robin", "random"))}
    if not r.keys(sec, readers, set(), "optimizer"):
        return {}
    values = {key: readers[key](val, label(key)) for key, val in sec.items() if key in readers}
    return {key: val for key, val in values.items() if val is not None}


def read_optimizer(options: dict, source, label) -> dict:
    """Solve options checked as the optimizer section is; a ParseError names each bad one as label(key)."""
    r = _Reader()
    out = _read_optimizer(r, options, label)
    r.raise_if_any(source)
    return out


def read_values(values: dict, rules: dict, source, label) -> dict:
    """Values from elsewhere checked by the rules the file reads its own
    values with: rules[key] is (reader, bounds), the reader "number",
    "positive" or "count" and bounds its keyword bounds, such as
    {"least": 1}.  A ParseError names each bad value as label(key)."""
    r = _Reader()
    out = {}
    for key, val in values.items():
        reader, bounds = rules[key]
        out[key] = getattr(r, reader)(val, label(key), **bounds)
    r.raise_if_any(source)
    return out


def load_scenario(path) -> LoadedScenario:
    """Parse and validate a scenario file, reporting all problems at once."""
    source = Path(path)
    doc = _read_document(source)
    r = _Reader()
    g, positions = _read_graph(r, doc["graph"])
    r.raise_if_any(source)
    bands, allocate = _read_spectrum(r, doc["spectrum"], g)
    gains, noise = _read_channel(r, doc["channel"], g, positions, bands)
    budget = None
    if r.keys(doc["power"], {"budget"}, {"budget"}, "power"):
        budget = r.per_node(doc["power"]["budget"], "power.budget", r.positive, scalar=True)
    sessions = _read_sessions(r, doc["sessions"])
    cost = _read_cost(r, doc.get("cost", {}))
    optimizer = _read_optimizer(r, doc.get("optimizer", {}), "optimizer.{}".format)
    r.raise_if_any(source)
    budget = np.array([budget[v] for v in g.nodes])
    scenario = NetworkScenario(g, allocate(), gains, noise, budget, tuple(sessions), cost)
    return LoadedScenario(scenario=scenario, optimizer=optimizer, source=str(source))
