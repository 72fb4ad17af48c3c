"""Layout guard: the library ships the solvers and the invariants a run can
check; the lemma checks and oracle audits that only tests call live in
``tests/lemmas.py``; the library takes no option that no caller sets; and
each decision lives in the module that owns it (polytope kinds in
``polytope``, Reduction 2 in ``run_dmcg``)."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import submax
from submax import dmcg, fixtures, oracle, pipage, polytope
from submax.multilinear import Estimator
from submax.setfn import audit_symmetry, restrict_function, sum_functions

RUN_TIME_INVARIANTS = {
    "check_feasibility_invariants",
    "check_y_properties",
    "check_max_y",
    "check_concave_segment",
    "check_loss_gain",
}
TEST_ONLY = {"box_vertex_values", "box_vertex_max", "sample_set", "cut_eval", "random_assign",
             "audit_submodularity", "audit_nonnegativity"}


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


# every parameter of these; an option that only tests set, or that the code
# can derive from its inputs, is a constant or a derived value instead
PARAMETERS = {
    audit_symmetry: ["f"],
    restrict_function: ["f", "kept"],
    sum_functions: ["fs"],
    fixtures.single_edge_cut: ["n"],
    fixtures.random_graph_cut: ["n", "seed", "edge_prob"],
    fixtures.random_hypergraph_cut: ["n", "seed"],
    fixtures.random_coverage: ["n", "seed"],
}


def test_library_takes_only_the_options_its_callers_set():
    # F is exact when samples is None: no second field says so
    assert [field.name for field in dataclasses.fields(Estimator)] == ["samples", "seed"]
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
