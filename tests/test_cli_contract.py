"""The CLI contract, fuzzed: ``submax run`` on generated instance files and
flag sets, most of them valid, exits 0-3 and never with a traceback, and a
run that exits 0 reports a point inside its polytope, a feasible set, that
set's true value, and a ratio a polytope with parts can bound."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from submax.cli import ALGORITHMS, main
from submax.polytope import CardinalityPolytope, KnapsackPolytope, PartitionPolytope

WEIGHTS = st.one_of(st.floats(0.1, 10.0), st.sampled_from([0.0, 1.0, 1e-300, 1e300]))
ASCENTS = ("mcg", "dmcg-symmetric", "dmcg-general")


@st.composite
def functions(draw, n):
    """A function object of the instance format over n elements."""
    kind = draw(st.sampled_from(["graph_cut", "hypergraph_cut", "coverage"]))
    elements = range(n)
    if kind == "coverage":
        items = draw(st.integers(1, 4))
        membership = [sorted(draw(st.sets(st.integers(0, items - 1)))) for _ in elements]
        return {"type": kind, "n": n, "universe_weights": [draw(WEIGHTS) for _ in range(items)],
                "membership": membership}
    if n < 2:
        return {"type": "graph_cut", "n": n, "edges": []}
    size = 2 if kind == "graph_cut" else draw(st.integers(2, min(n, 4)))
    rows = draw(st.lists(st.lists(st.sampled_from(elements), min_size=size, max_size=size, unique=True),
                         max_size=8))
    if kind == "graph_cut":
        return {"type": kind, "n": n, "edges": [[u, v, draw(WEIGHTS)] for u, v in rows]}
    return {"type": kind, "n": n, "hyperedges": [[row, draw(WEIGHTS)] for row in rows]}


@st.composite
def polytopes(draw, n):
    """A polytope object over n >= 1 elements; a knapsack with a small
    capacity may admit no singleton, so that Reduction 1 keeps nothing."""
    kind = draw(st.sampled_from(["cardinality", "partition", "knapsack"]))
    if kind == "cardinality":
        return {"type": kind, "k": draw(st.integers(0, n))}
    if kind == "knapsack":
        a = [draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 5.0])) for _ in range(n)]
        a[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.5, 1.0, 5.0]))
        return {"type": kind, "a": a, "b": draw(st.sampled_from([0.0, 0.25, 1.0, 3.0]))}
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) if n > 1 else []
    parts = [list(order[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, n])]
    return {"type": kind, "parts": parts, "bounds": [draw(st.integers(0, len(part))) for part in parts]}


@st.composite
def runs(draw):
    """(instance object, flags): three times in four flags a run of the
    file's kind can take, else any algorithm with flags from a wider range."""
    n = draw(st.one_of(st.integers(1, 7), st.sampled_from([0, 24])))
    f = draw(functions(n))
    shape = draw(st.sampled_from(["function", "function", "problem", "welfare"]))
    if shape == "problem" and n:
        instance = {"type": "problem", "function": f, "polytope": draw(polytopes(n))}
        fits = ["mcg", "brute-polytope"]
    elif shape == "welfare" and 0 < n <= 5:
        instance = {"type": "welfare", "k": draw(st.integers(1, 3)), "utility": f}
        fits = ["welfare-random"]
    else:
        instance = f
        # dmcg-symmetric needs a symmetric f, which coverage is not
        fits = [a for a in ALGORITHMS if a != "welfare-random" and (a, f["type"]) != ("dmcg-symmetric", "coverage")]
    if draw(st.sampled_from([True, True, True, False])):
        algorithm = draw(st.sampled_from(fits))
        k = draw(st.integers(1 if algorithm.startswith("dmcg-") else 0, max(n, 1)))
        needs_k = algorithm.startswith(("dmcg-", "brute-cardinality-")) or (algorithm in ASCENTS + ("brute-polytope",)
                                                                             and f is instance)
        flags = {"k": k if needs_k else None,
                 "T": draw(st.sampled_from([None, None, 1.0, 1.5])) if algorithm in ASCENTS else None,
                 "steps": draw(st.integers(1, 12)) if algorithm in ASCENTS else None,
                 "samples": draw(st.sampled_from([None, 4, 32])) if algorithm in ASCENTS else None}
        if algorithm == "welfare-random":
            flags["samples"] = draw(st.integers(1, 200))
    else:
        algorithm = draw(st.sampled_from(ALGORITHMS))
        flags = {"k": draw(st.sampled_from([None, -1, 0, 1, 2, n, n + 1])),
                 "T": draw(st.sampled_from([None, -1.0, 0.5, 1.0, 3.0])),
                 "steps": draw(st.sampled_from([0, 1, 5])),
                 "samples": draw(st.sampled_from([None, 0, 8]))}
    argv = ["--algorithm", algorithm, "--seed", str(draw(st.integers(0, 3)))]
    for name, value in flags.items():
        argv += [] if value is None else [f"--{name}", str(value)]
    if draw(st.booleans()):
        argv.append("--require-oracle")
    return instance, argv


def _value(obj: dict, chosen: list[int]) -> float:
    """f(S) summed straight from the rows of the function object obj."""
    S = set(chosen)
    if obj["type"] == "graph_cut":
        return sum(w for u, v, w in obj["edges"] if (u in S) != (v in S))
    if obj["type"] == "hypergraph_cut":
        return sum(w for verts, w in obj["hyperedges"] if 0 < len(S & set(verts)) < len(verts))
    covered = {j for u in S for j in obj["membership"][u]}
    return sum(obj["universe_weights"][j] for j in covered)


def _polytope(obj: dict, n: int):
    if obj["type"] == "cardinality":
        return CardinalityPolytope(n, obj["k"])
    if obj["type"] == "partition":
        return PartitionPolytope(obj["parts"], obj["bounds"])
    return KnapsackPolytope(obj["a"], obj["b"])


def _check_report(instance: dict, argv: list[str], report: dict) -> None:
    algorithm = argv[1]
    if instance["type"] == "welfare":
        return
    problem = instance["type"] == "problem"
    f = instance["function"] if problem else instance
    n = f["n"]
    k = int(argv[argv.index("--k") + 1]) if "--k" in argv else None
    if problem:
        P = _polytope(instance["polytope"], n)
    elif algorithm in ("mcg", "brute-polytope", "brute-cardinality-le") or algorithm.startswith("dmcg-"):
        P = CardinalityPolytope(n, k)  # a dmcg point of mass k lies in it too
    else:
        P = None  # |S| = k, or no constraint
    if "fractional_point" in report:
        assert P.membership(np.array(report["fractional_point"]))
    if "achieved_set" in report:
        chosen = report["achieved_set"]
        x = np.zeros(n)
        x[chosen] = 1.0
        if algorithm.startswith(("dmcg-", "brute-cardinality-eq")):
            assert len(chosen) == k
        if P is not None:
            assert P.membership(x)
        assert math.isclose(report["achieved_value"], _value(f, chosen), rel_tol=1e-9)
    ratio = report.get("achieved_ratio")
    if ratio is not None and (P is None or P.parts is not None):
        # F(y) <= OPT over a matroid polytope; a knapsack point may beat it
        assert ratio <= 1.0 + 1e-9


@pytest.mark.filterwarnings("ignore:objective not flagged symmetric")
@settings(max_examples=1500, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(run=runs())
def test_every_run_exits_0_to_3_and_a_success_reports_what_it_found(run):
    instance, argv = run
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "instance.json"), Path(tmp, "report.json")
        path.write_text(json.dumps(instance))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["--instance", str(path), *argv, "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code == 0:
            _check_report(instance, argv, json.loads(out.read_text())["report"])
