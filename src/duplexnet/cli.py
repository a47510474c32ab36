"""Command line interface.

Subcommands:

* ``spectrum``: run the sub-band allocation on a scenario's graph and
  print the per-node and per-link band assignment, the bound comparison,
  and the duplexing check.
* ``optimize``: minimize total cost from the even-split starting state,
  printing a per-sweep trace (optionally to CSV) and the final summary.
* ``check``: verify analytic gradients against finite differences at an
  interior state, and scan the link-cost curvature matrix for positive
  semidefiniteness; exits nonzero when a sub-check fails.
* ``oracle``: on a small scenario, compare the block solver against the
  independent numeric reference solver, and say whether the solver
  converged.

Exit codes: 0 success, 1 a check or convergence failure, 2 bad input.
An ``--out`` or ``--trace`` file is opened before the work starts, and is
bad input when it cannot be opened for writing.  The solve flags are bad
input when the scenario file's optimizer section would reject the same
values, and the other number flags when the file
would reject the same value in a field of its kind (``_FLAG_RULES``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .coloring import min_subband_count
from .graph import interference_stats
from .oracle import TooLargeError, finite_diff_check, reference_solve_small
from .optimizer import StalledStepError, solve
from .scenario import check_m_psd, derive, uniform_state
from .scenario_io import ParseError, load_scenario, read_optimizer, read_values
from .subband import allocate_subbands, check_allocation


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _start(loaded):
    """The even-split start state, with the scenario file's power and overflow."""
    opts = loaded.optimizer
    return uniform_state(loaded.scenario, power=opts.get("power", 0.9), overflow=opts.get("overflow", 0.1))


def _flag(key):
    return "--" + key.replace("_", "-")


# the flags outside the optimizer section, each with the rule the scenario
# file reads a value of its kind by (see scenario_io.read_values)
_FLAG_RULES = {
    "grad_tol": ("positive", {}),
    "grid": ("count", {"least": 1}),
    "restarts": ("count", {"least": 1}),
    "sweeps": ("count", {"least": 1}),
    "seed": ("count", {}),
}


def _given(args, keys):
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _load(args, out, flags=(), checked=()):
    """The scenario file, its optimizer section updated by the given solve
    flags, after the `checked` flags pass their rules; None after printing
    why not."""
    try:
        loaded = load_scenario(args.scenario)
        loaded.optimizer.update(read_optimizer(_given(args, flags), "command line", _flag))
        read_values(_given(args, checked), _FLAG_RULES, "command line", _flag)
    except ParseError as exc:
        print(exc, file=out)
        return None
    except ValueError as exc:
        print(f"{args.scenario}: {exc}", file=out)
        return None
    return loaded


def _output(args, key, out):
    """A context giving the file the flag `key` names, opened for writing, or
    None without one; None after printing why the file cannot be opened."""
    path = getattr(args, key)
    try:
        return open(path, "w") if path else contextlib.nullcontext()
    except OSError as exc:
        print(f"{_flag(key)}: cannot write {path}: {exc.strerror or exc}", file=out)
        return None


def _cmd_spectrum(args, out) -> int:
    loaded = _load(args, out, checked=("seed",))
    sink = None if loaded is None else _output(args, "out", out)
    if sink is None:
        return 2
    with sink as fh:
        scen = loaded.scenario
        g = scen.graph
        alloc = scen.allocation
        if args.seed is not None:
            # rerun the protocol with the override instead of the file's allocation
            alloc = allocate_subbands(g, alloc.band_count, seed=args.seed)
        stats = interference_stats(g)
        protocol_bound = min_subband_count(g.max_degree() + 1)
        lines = []
        lines.append(f"bands: {alloc.band_count}")
        lines.append(
            f"interference-graph bound {stats.max_degree + 1} vs protocol bound {protocol_bound}"
        )
        for node in g.nodes:
            bands = ",".join(str(b) for b in alloc.outgoing_bands(node))
            lines.append(f"node {node}: bands {bands}")
        for i, j in sorted(g.links, key=lambda lk: (str(lk[0]), str(lk[1]))):
            bands = ",".join(str(b) for b in alloc.bands_of(i, j))
            lines.append(f"link {i}->{j}: bands {bands}")
        report = check_allocation(g, alloc)
        lines.append(f"duplexing check: {'ok' if report.ok else 'FAILED'}")
        if not report.ok:
            for lk in report.coverage_violations:
                lines.append(f"  uncovered link {lk[0]}->{lk[1]}")
            for node, band in report.duplexing_violations:
                lines.append(f"  node {node} transmits and receives on band {band}")
        text = "\n".join(lines) + "\n"
        out.write(text)
        if fh is not None:
            fh.write(text)
    return 0 if report.ok else 1


def _cmd_optimize(args, out) -> int:
    loaded = _load(args, out, ("max_sweeps", "tol", "order", "seed"))
    sink = None if loaded is None else _output(args, "trace", out)
    if sink is None:
        return 2
    scen = loaded.scenario
    opts = loaded.optimizer
    state = _start(loaded)
    start = derive(scen, state).total
    print(f"initial cost: {_fmt(start)}", file=out)
    with sink as fh:
        try:
            result = solve(scen, state, max_sweeps=opts.get("max_sweeps", 200), tol=opts.get("tol", 1e-4),
                           order=opts.get("order", "round_robin"), seed=opts.get("seed"))
        except StalledStepError as exc:
            print(f"stalled: {exc}", file=out)
            return 1
        except ValueError as exc:
            print(f"cannot start solver: {exc}", file=out)
            return 1
        if fh is not None:
            fh.write("sweep,cost,residual,max_step,evaluations\n")
            for row in result.trace:
                fh.write(
                    f"{row.sweep},{_fmt(row.cost)},{_fmt(row.residual)},{_fmt(row.max_step)},{row.evaluations}\n"
                )
    print(f"final cost: {_fmt(result.cost)}", file=out)
    print(f"residual: {_fmt(result.residual)}", file=out)
    print(f"sweeps: {result.sweeps}", file=out)
    print(f"converged: {'yes' if result.converged else 'no'}", file=out)
    return 0 if result.converged else 1


def _cmd_check(args, out) -> int:
    loaded = _load(args, out, checked=("grad_tol", "grid"))
    if loaded is None:
        return 2
    scen = loaded.scenario
    state = _start(loaded)
    failures = 0
    try:
        report = finite_diff_check(scen, state)
        ok = report.worst <= args.grad_tol
        print(
            f"gradient check: {'pass' if ok else 'FAIL'} "
            f"(worst relative error {report.worst:.3g} over {report.total_checked} coordinates)",
            file=out,
        )
        failures += 0 if ok else 1
    except (ValueError, RuntimeError) as exc:
        print(f"gradient check: FAIL ({exc})", file=out)
        failures += 1
    psd = check_m_psd(scen.cost, grid=args.grid)
    print(
        f"curvature check: {'pass' if psd.psd else 'FAIL'} ({psd})",
        file=out,
    )
    failures += 0 if psd.psd else 1
    return 1 if failures else 0


def _cmd_oracle(args, out) -> int:
    loaded = _load(args, out, ("max_sweeps", "tol"), ("restarts", "sweeps", "seed"))
    if loaded is None:
        return 2
    scen = loaded.scenario
    state = _start(loaded)
    try:
        ref = reference_solve_small(scen, seed=args.seed, restarts=args.restarts, sweeps=args.sweeps)
    except TooLargeError as exc:
        print(f"scenario too large for the reference solver: {exc}", file=out)
        return 2
    try:
        result = solve(scen, state, max_sweeps=loaded.optimizer["max_sweeps"], tol=loaded.optimizer["tol"])
    except StalledStepError as exc:
        print(f"solver stalled: {exc}", file=out)
        return 1
    except ValueError as exc:
        print(f"cannot start solver: {exc}", file=out)
        return 1
    print(f"solver cost: {_fmt(result.cost)}", file=out)
    print(f"reference cost: {_fmt(ref.cost)} (best of {len(ref.restart_costs)} restarts)", file=out)
    gap = abs(result.cost - ref.cost) / max(abs(ref.cost), 1e-12)
    print(f"relative gap: {gap:.3e}", file=out)
    print(f"converged: {'yes' if result.converged else 'no'}", file=out)
    return 0 if result.converged else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duplexnet",
        description="Duplexing-aware sub-band allocation and network cost optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="allocate sub-bands on the scenario graph")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", help="also write the allocation text to this file")
    p.add_argument("--seed", type=int, default=None, help="rerun the protocol with this seed")

    p = sub.add_parser("optimize", help="minimize total cost from the even-split state")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--max-sweeps", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--order", choices=("round_robin", "random"), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", help="write the per-sweep trace to this CSV file")

    p = sub.add_parser("check", help="finite-difference gradient check and curvature scan")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--grad-tol", type=float, default=1e-5)
    p.add_argument("--grid", type=int, default=50, help="curvature scan points per axis")

    p = sub.add_parser("oracle", help="compare the solver against the numeric reference")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--sweeps", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-sweeps", type=int, default=400)
    p.add_argument("--tol", type=float, default=1e-5)
    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "spectrum": _cmd_spectrum,
        "optimize": _cmd_optimize,
        "check": _cmd_check,
        "oracle": _cmd_oracle,
    }
    return handlers[args.command](args, out)


if __name__ == "__main__":
    sys.exit(main())
