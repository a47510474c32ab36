"""The package names that the benchmark's tracer and the tools/ benchmarks rebind.

A traced benchmark run wraps every function that perfbench/tracing.py lists
in LAYERS, and tools/bench_solve.py rebinds a few private solver functions
to count and time them; either raises at start when a name is gone.
tools/bench_spectrum.py counts full component searches by rebinding
`ConnectivityGraph._search_components`, and would count 0 if the searches
went elsewhere.  These tests catch a rename here instead.  They only read
perfbench/.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from duplexnet import build_graph, optimizer, scenario
from duplexnet.scenario import derive

from helpers import count_searches, line3_scenario

ROOT = Path(__file__).resolve().parent.parent


def _tracing_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_resolves_in_the_package():
    layers = _tracing_layers()
    assert layers
    for layer, names in layers.items():
        home = importlib.import_module(f"duplexnet.{layer}")
        for name in names:
            assert callable(getattr(home, name, None)), f"duplexnet.{layer}.{name}"


def test_the_hooks_bench_solve_patches_keep_their_shape():
    # bench_solve's wrappers call _update_run(scenario, state, run, *rest)
    # and read each block's `moved` from the third output, call
    # _block_move(scenario, state, block, derived), and time
    # optimality_residuals; it also counts derive in the optimizer and the
    # two halves of an evaluation in the scenario module
    for module, name in ((optimizer, "derive"), (scenario, "evaluate_physical"), (scenario, "evaluate_flows")):
        assert callable(getattr(module, name, None)), name
    assert callable(optimizer.optimality_residuals)
    assert list(inspect.signature(optimizer._update_run).parameters)[:3] == ["scenario", "state", "run"]
    assert list(inspect.signature(optimizer._block_move).parameters) == ["scenario", "state", "block", "derived"]
    scen = line3_scenario()
    state = scenario.uniform_state(scen, 0.9, 0.1)
    der = derive(scen, state)
    block = scen.layout.blocks[0]
    out = optimizer._update_run(scen, state, [block], [1.0], der)
    assert [type(move.moved) for move in out[2]] == [bool]
    assert len(optimizer._block_move(scen, state, block, der)) == 3


def test_components_searches_through_the_hook_bench_spectrum_patches(monkeypatch):
    searched = count_searches(monkeypatch)
    # connectivity unknown: build_graph proves it only when asked to
    g = build_graph([(0, 1), (1, 0), (2, 3), (3, 2)], require_connected=False)
    assert g.components() == [frozenset({0, 1}), frozenset({2, 3})]
    assert searched == [g]
