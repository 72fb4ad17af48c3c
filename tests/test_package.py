"""Layout guard: the library ships what a run, the benchmark or a script
calls, plus the invariants a run can check; the lemma checks, oracle audits,
instances and wrappers that only tests call live in ``tests/``; the library
takes no option that no caller sets; and each decision lives in the module
that owns it (polytope kinds in ``polytope``, Reduction 2 in ``run_dmcg``)."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import submax
from submax import dmcg, fixtures, mcg, oracle, pipage, polytope
from submax.multilinear import Estimator, MultilinearEvaluator
from submax.setfn import (
    SetFunction,
    coverage_function,
    graph_cut_function,
    hardness_instance,
    hypergraph_cut_function,
    restrict_function,
)
from submax.twosided import run_two_sided

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(submax.__file__).resolve().parent

RUN_TIME_INVARIANTS = {
    "check_feasibility_invariants",
    "check_y_properties",
    "check_max_y",
    "check_loss_gain",
}
# public names no run calls yet: the run-time invariants, the per-step
# trace writers and the check serializer, kept for the run to report and write
AWAITING_A_CALLER = RUN_TIME_INVARIANTS | {"trajectory_csv", "trace_csv", "CheckReport.to_json"}
TEST_ONLY = {"box_vertex_values", "box_vertex_max", "sample_set", "cut_eval", "random_assign",
             "audit_submodularity", "audit_nonnegativity", "audit_symmetry", "restrict_by_embedding",
             "tight_instance"}
# a set function is built straight from its rows and a point is a float
# array: no instance record or point type wraps them
NO_WRAPPERS = {"GraphCutInstance", "HypergraphCutInstance", "CoverageInstance", "Point"}


def test_library_defines_only_the_run_time_checks():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("submax.selfcheck")
    defined = {}
    for info in pkgutil.iter_modules(submax.__path__, "submax."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) == module.__name__:
                defined[name] = module.__name__
                for attr in vars(obj) if inspect.isclass(obj) else ():
                    defined[attr] = f"{module.__name__}.{name}"
    checks = {name for name in defined if name.startswith("check_")}
    assert checks == RUN_TIME_INVARIANTS
    assert not TEST_ONLY & defined.keys(), {name: defined[name] for name in TEST_ONLY & defined.keys()}
    assert not NO_WRAPPERS & defined.keys(), {name: defined[name] for name in NO_WRAPPERS & defined.keys()}


def _methods(stmt: ast.stmt) -> set[str]:
    """``Class.method`` for each public method or property of a public class."""
    if not isinstance(stmt, ast.ClassDef) or stmt.name.startswith("_"):
        return set()
    return {f"{stmt.name}.{item.name}" for item in stmt.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_")}


def _defines(stmt: ast.stmt) -> set[str]:
    """The names a module-level statement binds: a def, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _reads(stmt: ast.stmt) -> set[str]:
    """The names and attributes a statement reads in code (not in strings)."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_library_name_has_a_caller_outside_the_tests():
    # module-level names, and the public methods and properties of public
    # classes, which a caller reads as an attribute
    defined = {}
    for path in PACKAGE.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            public = {name for name in _defines(stmt) if not name.startswith("_")} | _methods(stmt)
            defined.update((name, path.stem) for name in public)
    used = set()
    for path in [p for top in ("src", "bench", "scripts") for p in (ROOT / top).rglob("*.py")]:
        for stmt in ast.parse(path.read_text()).body:
            used |= _reads(stmt) - _defines(stmt)  # a recursive call is no caller
    unused = {name: module for name, module in defined.items() if name.rpartition(".")[2] not in used}
    assert unused.keys() == AWAITING_A_CALLER, unused


# every parameter of these; an option that only tests set, or that the code
# can derive from its inputs, is a constant or a derived value instead
PARAMETERS = {
    SetFunction: ["n", "eval_many_masks", "symmetric", "monotone", "kind", "multilinear"],
    graph_cut_function: ["n", "edges"],
    hypergraph_cut_function: ["n", "hyperedges"],
    coverage_function: ["n", "universe_weights", "membership"],
    hardness_instance: ["p", "q"],
    restrict_function: ["f", "kept"],
    run_two_sided: ["f"],
    MultilinearEvaluator: ["f", "est"],
    pipage.pipage_round: ["ev", "x", "P"],
    mcg.ascend: ["ev", "cfg", "starts", "choose", "cleanup", "P"],
    mcg.run_mcg: ["ev", "P", "cfg"],
    dmcg.run_dmcg: ["ev", "k", "cfg", "variant"],
    mcg.check_feasibility_invariants: ["traj", "P"],
    dmcg.check_y_properties: ["traj", "k"],
    dmcg.check_max_y: ["traj"],
    fixtures.random_graph_cut: ["n", "seed", "edge_prob"],
    fixtures.random_hypergraph_cut: ["n", "seed"],
}


def test_library_takes_only_the_options_its_callers_set():
    # F is exact when samples is None: no second field says so
    assert [field.name for field in dataclasses.fields(Estimator)] == ["samples", "seed"]
    # the estimator is the evaluator's, which the caller builds once per run
    assert [field.name for field in dataclasses.fields(mcg.AscentConfig)] == ["T", "steps"]
    for fn, names in PARAMETERS.items():
        assert list(inspect.signature(fn).parameters) == names, fn.__name__


def test_only_the_polytope_module_knows_the_polytope_kinds():
    kinds = {name for name, obj in vars(polytope).items()
             if inspect.isclass(obj) and issubclass(obj, polytope.Polytope) and obj is not polytope.Polytope}
    assert kinds == {"CardinalityPolytope", "PartitionPolytope", "KnapsackPolytope"}
    for module in (oracle, pipage):
        assert not kinds & vars(module).keys(), module.__name__
    # the benchmark tracer wraps each kind's own linear_maximize
    for name in kinds:
        assert "linear_maximize" in vars(getattr(polytope, name)), name


def test_run_dmcg_alone_applies_reduction_2():
    assert not hasattr(dmcg, "reduction2") and not hasattr(submax, "reduction2")
