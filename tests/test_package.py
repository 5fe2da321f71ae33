"""The package's export list is the union of its modules' export lists, and
every exported name is used by code outside the test suite."""

import ast
import importlib
import tomllib
from pathlib import Path

import numpy as np

import hullstop
import hullstop.cli
import hullstop.errors
from hullstop.consensus import _run_windows
from hullstop.termination import _RULES

_MODULES = ("graph", "geometry", "consensus", "hull", "termination", "applications", "harness")
_ROOT = Path(__file__).resolve().parent.parent

_EXPORTS = [
    "BoxWindow", "DiGraph", "ErrorBound", "ExperimentConfig",
    "HullNodeState", "HullWindow", "InvariantViolation", "LseBounds", "MinMaxEnvelope",
    "PointSet", "RadiusWindow", "RatioState", "RunResult", "StochasticMatrix", "StopTrace",
    "bandwidth_accounting", "bit_step", "canonicalize_points", "compare_criteria",
    "consensus_limit", "decode_extreme_set", "encode_extreme_set", "extreme_points",
    "funccalc_error", "funccalc_init", "generate_digraph", "graph_to_json", "hull_diameter",
    "hull_round", "is_convex_decreasing", "lse_batch", "lse_consensus_estimate",
    "lse_error_bound", "lse_error_bounds", "lse_gram", "lse_payload_states",
    "make_ratio_state", "make_weights", "minmax_envelope", "operator_norm",
    "pairwise_spread", "perron_left", "polynomial_basis", "radius_step", "ratio_step",
    "read_state_csv", "registered_function", "run_box_stopping", "run_consensus",
    "run_experiment", "run_hull_consensus", "run_hull_stopping", "run_radius_stopping",
    "scalar_vector_equivalence_check", "unflatten_payload", "vector_norm",
    "verify_states_file", "windowed_radius_trace", "write_state_csv",
    "write_termination_csv",
]


def test_package_exports_the_union_of_the_module_export_lists():
    modules = [importlib.import_module(f"hullstop.{name}") for name in _MODULES]
    union = {"InvariantViolation"}.union(*(module.__all__ for module in modules))
    # sorted on both sides, so a name listed twice fails too
    assert sorted(hullstop.__all__) == sorted(union)
    assert {"RadiusWindow", "BoxWindow", "HullWindow"} <= union
    for module in modules:
        for name in module.__all__:
            assert getattr(hullstop, name) is getattr(module, name)
    assert hullstop.InvariantViolation is hullstop.errors.InvariantViolation


def test_package_exports_are_pinned():
    assert sorted(hullstop.__all__) == sorted(_EXPORTS)


def test_every_run_returns_one_record_type(tmp_path):
    g = hullstop.generate_digraph(5, "erdos_renyi", 3, 0.5)
    W = hullstop.make_weights(g, "column")
    x0 = np.random.default_rng(3).random((5, 2))
    tr = hullstop.run_consensus(W, x0, 4)
    traces = [tr, hullstop.windowed_radius_trace(g, W, x0, max_windows=2)]
    for run in (hullstop.run_radius_stopping, hullstop.run_box_stopping,
                hullstop.run_hull_stopping):
        traces.append(run(g, W, x0, 1e-2))
    # the fourth stopping run: no rule, as the harness streams it
    none = _run_windows(_RULES["none"](g, None, 2.0), W, x0, None, 3)
    traces.append(none)
    hullstop.write_state_csv(tr, tmp_path / "s.csv")
    back = hullstop.read_state_csv(tmp_path / "s.csv")
    traces.append(back)
    assert all(type(t) is hullstop.StopTrace for t in traces)
    # a run with no rule records no window and does not halt; its window
    # length and norm read as every run's, and only a read-back lacks them
    for run in (tr, none):
        assert (run.halted, run.halt_t, run.windows, run.n_windows) == (False, None, [], 0)
        assert (run.Dbound, run.p) == (max(1, g.diameter), 2.0)
    assert back.Dbound is back.p is None


def test_one_step_loop_in_the_module_of_the_engine():
    # every run steps the engine in consensus._run_windows: an engine step
    # is the one argument-free .step() call, and consensus, which that loop
    # needs, depends on no module that runs it
    sites = []
    for path in sorted((_ROOT / "src" / "hullstop").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "step" and not node.args and not node.keywords):
                    sites.append((path.stem, getattr(top, "name", None)))
    assert sites == [("consensus", "_run_windows")]
    imported = set()
    for node in ast.walk(ast.parse((_ROOT / "src" / "hullstop" / "consensus.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rpartition(".")[2])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
    assert imported.isdisjoint({"termination", "hull", "harness", "cli"})


def _references(path, imports: bool, strings: bool):
    """The names path refers to, each outside the top-level definition of
    that name: ast.Name ids and ast.Attribute attrs, plus imported names
    when imports is set and string constants when strings is set."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif imports and isinstance(node, ast.alias):
                name = node.name
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_export_is_reached_outside_the_tests():
    # the library itself (not through its imports), the demos, the
    # acceptance gate (through its imports too), and the bench, whose
    # tracing targets name functions by string
    used = set()
    for path in sorted((_ROOT / "src" / "hullstop").glob("*.py")):
        if path.name != "__init__.py":
            used |= _references(path, imports=False, strings=False)
    for path in [*sorted((_ROOT / "demos").glob("*.py")), _ROOT / "tests" / "test_acceptance.py"]:
        used |= _references(path, imports=True, strings=False)
    for path in sorted((_ROOT / "bench").glob("*.py")):
        used |= _references(path, imports=True, strings=True)
    assert sorted(set(hullstop.__all__) - used) == []


def test_console_script_is_the_cli_entry_point():
    # README installs the package and runs its `hullstop` command
    with open(_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hullstop"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is hullstop.cli.main
