"""Spans around the package's public functions, for the traced run only.

`Tracer.install` replaces each function listed in LAYERS with a wrapper in
every duplexnet module that holds it, so calls through an imported name
(for example `optimizer.derive` or `scenario.check_allocation`) are
recorded too.  A span is (name, start, end, parent span, operation id);
spans are kept in compact arrays in memory and written out once, when the
run ends.  A span's self time is its duration minus that of its children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "graph": ("build_graph",),
    "coloring": ("check_color_sets", "assign_link_colors", "family_from_coloring"),
    "subband": ("allocate_subbands", "check_allocation", "apply_topology_change", "allocation_from_family"),
    "scenario": ("derive", "evaluate_physical", "evaluate_flows", "total_cost", "uniform_state"),
    "kernels": ("physical_terms", "link_cost_terms"),
    "gradients": ("delta_eta", "delta_mu", "delta_rho", "routing_marginals", "gradient_bundle", "power_messages"),
    "optimizer": ("solve", "update_block", "project_scaled", "optimality_residuals"),
    "oracle": ("finite_diff_check", "reference_solve_small"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = [-1]
        self.current_op = -1
        # outcomes the spans cannot show, keyed by counter name
        self.counts: dict[str, int] = {}
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        nid = self._name_id.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        observe = _OBSERVERS.get(qualname)
        clock = time.perf_counter
        tr = self

        def wrapper(*args, **kwargs):
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr._stack[-1])
            tr.op.append(tr.current_op)
            tr.end.append(0.0)
            tr._stack.append(idx)
            tr.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end[idx] = clock()
                tr._stack.pop()
            if observe is not None:
                observe(tr.counts, out, kwargs)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        mods = [m for name, m in sys.modules.items() if name == "duplexnet" or name.startswith("duplexnet.")]
        for layer, funcs in LAYERS.items():
            home = sys.modules[f"duplexnet.{layer}"]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig in reversed(self._undo):
            setattr(m, attr, orig)
        self._undo.clear()

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return name, parent, dur, dur - child

    def write(self, path):
        """Write every span as one tab-separated line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for k in range(len(self.start)):
                fh.write(
                    f"{self.op[k]}\t{self.names[self.name[k]]}\t{self.start[k]:.9f}\t"
                    f"{self.end[k]:.9f}\t{self.parent[k]}\n"
                )


def _observe_update(counts, out, kwargs):
    counts["updates_moved"] = counts.get("updates_moved", 0) + bool(out.moved)
    policy = kwargs.get("policy")
    max_halvings = 50 if policy is None else policy.max_halvings
    if not out.moved and out.halvings == max_halvings:
        counts["updates_exhausted"] = counts.get("updates_exhausted", 0) + 1


def _observe_reference(counts, out, kwargs):
    counts["reference_evals"] = counts.get("reference_evals", 0) + out.evaluations


def _observe_fd(counts, out, kwargs):
    counts["fd_coords"] = counts.get("fd_coords", 0) + out.total_checked


_OBSERVERS = {
    "optimizer.update_block": _observe_update,
    "oracle.reference_solve_small": _observe_reference,
    "oracle.finite_diff_check": _observe_fd,
}


def layer_metrics(tr: Tracer, rounds: int, sweeps: int) -> dict:
    """Per-layer metrics per traced round, from the recorded spans.

    Times are totals per round in seconds unless the name ends in _ms,
    which marks a mean per call.  Counts are per round.
    """
    name, parent, dur, self_t = tr.arrays()
    ids = {n: k for k, n in enumerate(tr.names)}
    none = np.zeros(len(dur), dtype=bool)

    def sel(qual):
        return name == ids[qual] if qual in ids else none

    def under(mask_parent):
        """Spans whose parent is selected by mask_parent."""
        out = np.zeros(len(dur), dtype=bool)
        has = parent >= 0
        out[has] = mask_parent[parent[has]]
        return out

    grad = np.zeros(len(dur), dtype=bool)
    for f in LAYERS["gradients"]:
        grad |= sel(f"gradients.{f}")
    grad_top = grad & ~under(grad)
    derive = sel("scenario.derive")
    update = sel("optimizer.update_block")
    solve = sel("optimizer.solve")
    in_update = under(update)
    # derive calls per update, beyond the first one of each update
    per_update = np.bincount(parent[derive & in_update], minlength=len(dur))[update]
    trials = int(np.maximum(per_update - 1, 0).sum())
    in_solve = np.zeros(len(dur), dtype=bool)
    in_solve[solve] = True
    for k in range(len(dur)):  # spans are stored parent-first
        if parent[k] >= 0 and in_solve[parent[k]]:
            in_solve[k] = True
    updates = int(update.sum())
    moved = tr.counts.get("updates_moved", 0)
    topo = sel("subband.apply_topology_change")
    fd = sel("oracle.finite_diff_check")

    def per_call_ms(mask, values):
        return float(values[mask].sum()) / max(1, int(mask.sum())) * 1e3

    m = {
        "graph.build_s": self_t[sel("graph.build_graph")].sum(),
        "coloring.check_color_sets_s": self_t[sel("coloring.check_color_sets")].sum(),
        "coloring.assign_link_colors_s": self_t[sel("coloring.assign_link_colors")].sum(),
        "subband.allocate_self_s": self_t[sel("subband.allocate_subbands")].sum(),
        "subband.check_allocation_s": dur[sel("subband.check_allocation")].sum(),
        "subband.topology_change_self_ms": per_call_ms(topo, self_t),
        "scenario.derive_calls": int(derive.sum()),
        "scenario.derive_s": dur[derive].sum(),
        "scenario.physical_s": dur[sel("scenario.evaluate_physical")].sum(),
        "scenario.flows_s": dur[sel("scenario.evaluate_flows")].sum(),
        "kernels.physical_s": dur[sel("kernels.physical_terms")].sum(),
        "kernels.link_cost_s": dur[sel("kernels.link_cost_terms")].sum(),
        "gradients.calls": int(grad_top.sum()),
        "gradients.s": dur[grad_top].sum(),
        "gradients.routing_s": dur[sel("gradients.routing_marginals")].sum(),
        "optimizer.block_updates": updates,
        "optimizer.sweeps": sweeps,
        "optimizer.trials": trials,
        "optimizer.trials_per_update": trials / max(1, updates),
        "optimizer.derive_per_update": int((derive & in_solve).sum()) / max(1, updates),
        "optimizer.exhausted_updates": tr.counts.get("updates_exhausted", 0),
        "optimizer.moved_ratio": moved / max(1, updates),
        "optimizer.update_self_s": self_t[update].sum(),
        "optimizer.project_calls": int(sel("optimizer.project_scaled").sum()),
        "optimizer.project_s": dur[sel("optimizer.project_scaled")].sum(),
        "optimizer.residuals_s": dur[sel("optimizer.optimality_residuals")].sum(),
        "oracle.reference_evals": tr.counts.get("reference_evals", 0),
        "oracle.reference_self_s": self_t[sel("oracle.reference_solve_small")].sum(),
        "oracle.fd_coords": tr.counts.get("fd_coords", 0),
        "oracle.fd_check_ms": per_call_ms(fd, dur),
        "trace.spans": len(dur),
    }
    # everything but the per-call and ratio metrics is a per-round total
    per_call = {"subband.topology_change_self_ms", "oracle.fd_check_ms",
                "optimizer.trials_per_update", "optimizer.derive_per_update", "optimizer.moved_ratio"}
    out = {}
    for k, v in m.items():
        if k not in per_call:
            v = v / rounds
        out[k] = int(v) if isinstance(m[k], int) and v == int(v) else float(v)
    return out
