import json
import math
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest

from conftest import distinct_lookups, record_lookups
from submax import cli, multilinear
from submax.cli import main
from submax.polytope import CardinalityPolytope, KnapsackPolytope, PartitionPolytope, horizon
from submax.rng import substream
from submax.setfn import graph_cut_function, restrict_function
from submax.welfare import WelfareInstance


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(
        json.dumps({"type": "graph_cut", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]})
    )
    return str(path)


@pytest.fixture
def welfare_file(tmp_path):
    utility = {
        "type": "graph_cut",
        "n": 3,
        "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]],
    }
    path = tmp_path / "welfare.json"
    path.write_text(json.dumps({"type": "welfare", "k": 3, "utility": utility}))
    return str(path)


def _read_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_run_mcg_triangle(triangle_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "run",
            "--instance", triangle_file,
            "--algorithm", "mcg",
            "--k", "1",
            "--seed", "7",
            "--steps", "2000",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = _read_report(out)
    report = payload["report"]
    assert report["achieved_ratio"] >= 0.432
    assert report["oracle_opt"] == 2.0
    T = report["config"]["T"]
    assert report["theoretical_ratio"] == pytest.approx(0.5 * (1 - math.exp(-2 * T)), abs=1e-12)
    assert "timestamp" in payload["metadata"]


def test_run_dmcg_symmetric(triangle_file, tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["--instance", triangle_file, "--algorithm", "dmcg-symmetric", "--k", "2",
         "--steps", "1500", "--out", str(out)]
    )
    assert code == 0
    report = _read_report(out)["report"]
    # k = 2 > n/2 is normalized to k' = 1; curve uses min(k, n-k)
    curve = 0.5 * (1 - (1 - 1 / 3) ** 6)
    assert report["theoretical_ratio"] == pytest.approx(curve, abs=1e-12)
    assert abs(report["fractional_mass"] - 2.0) <= 1e-9
    assert report["achieved_ratio"] >= curve - 0.02
    assert len(report["achieved_set"]) == 2


def test_run_two_sided_symmetric_ratio(triangle_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["--instance", triangle_file, "--algorithm", "two-sided", "--out", str(out)]) == 0
    report = _read_report(out)["report"]
    assert report["achieved_ratio"] >= 0.5
    assert report["theoretical_ratio"] == 0.5


def test_run_welfare_random(welfare_file, tmp_path):
    out = tmp_path / "r.json"
    code = main(
        ["--instance", welfare_file, "--algorithm", "welfare-random", "--samples", "30000",
         "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    report = _read_report(out)["report"]
    ratio = 1 - (1 - 1 / 3) ** 2
    assert report["theoretical_ratio"] == pytest.approx(ratio, abs=1e-12)
    assert report["achieved_ratio"] >= ratio - 4 * report["achieved_sigma"] / report["oracle_opt"]
    # 3 x 30000 bundles but only 2^3 subsets: the simulation and the search
    # read one table of the utility, one query per subset of the n = 3 items
    assert report["oracle_calls"] == 2**3


def test_run_brute_algorithms(triangle_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["--instance", triangle_file, "--algorithm", "brute-unconstrained", "--out", str(out)]) == 0
    assert _read_report(out)["report"]["oracle_opt"] == 2.0
    assert main(
        ["--instance", triangle_file, "--algorithm", "brute-cardinality-eq", "--k", "1", "--out", str(out)]
    ) == 0
    assert _read_report(out)["report"]["achieved_value"] == 2.0


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--instance", str(bad), "--algorithm", "two-sided"]) == 1
    strange = tmp_path / "strange.json"
    strange.write_text(json.dumps({"type": "graph_cut", "n": 2, "edges": [], "x": 1}))
    assert main(["--instance", str(strange), "--algorithm", "two-sided"]) == 1
    # a constraint over 2 of the instance's 3 elements
    short = tmp_path / "short.json"
    tri = {"type": "graph_cut", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]}
    polytope = {"type": "partition", "parts": [[0, 1]], "bounds": [1]}
    short.write_text(json.dumps({"type": "problem", "function": tri, "polytope": polytope}))
    assert main(["--instance", str(short), "--algorithm", "brute-polytope"]) == 1


TRIANGLE = {"type": "graph_cut", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]}


def _load(obj, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    return cli._load_instance(str(path))


def _problem(polytope, function=TRIANGLE):
    return {"type": "problem", "function": function, "polytope": polytope}


# a valid instance file, the field holding the object under test (None: the
# file's own object), and one of that object's required fields
LOADERS = {
    "set_function": (TRIANGLE, None, "edges"),
    "polytope": (_problem({"type": "partition", "parts": [[0, 1, 2]], "bounds": [1]}), "polytope", "bounds"),
    "welfare": ({"type": "welfare", "k": 2, "utility": TRIANGLE}, None, "utility"),
    "problem": (_problem({"type": "cardinality", "k": 1}), None, "polytope"),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_json_loaders_name_missing_and_unknown_fields(loader, tmp_path):
    obj, field, required = LOADERS[loader]
    _load(obj, tmp_path)
    part = obj if field is None else obj[field]

    def with_part(changed):
        return changed if field is None else {**obj, field: changed}

    with pytest.raises(cli.ParseError, match=r"unknown fields \['extra'\]"):
        _load(with_part({**part, "extra": 1}), tmp_path)
    short = {key: value for key, value in part.items() if key != required}
    with pytest.raises(cli.ParseError, match=rf"missing fields \['{required}'\]"):
        _load(with_part(short), tmp_path)


def test_loader_builds_every_type(tmp_path):
    f, P, welfare = _load({"type": "graph_cut", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]]}, tmp_path)
    assert (P, welfare) == (None, None)
    assert f.eval([1]) == 3.0 and f.symmetric
    f, _, _ = _load({"type": "hardness", "p": 1, "q": 2}, tmp_path)
    assert f.eval([0]) == 1.0
    coverage = {"type": "coverage", "n": 2, "universe_weights": [1.0, 0.5], "membership": [[0], [0, 1]]}
    f, _, _ = _load(coverage, tmp_path)
    assert (f.eval([0]), f.eval([1])) == (1.0, 1.5)
    hypergraph = {"type": "hypergraph_cut", "n": 3, "hyperedges": [[[0, 1, 2], 0.5]]}
    f, _, _ = _load(hypergraph, tmp_path)
    assert (f.eval([0]), f.eval([0, 1, 2])) == (0.5, 0.0)
    f, P, welfare = _load({"type": "welfare", "k": 2, "utility": {**TRIANGLE, "n": 4}}, tmp_path)
    assert f is None and P is None
    assert isinstance(welfare, WelfareInstance) and welfare.k == 2 and welfare.utility.n == 4
    _, P, _ = _load(_problem({"type": "cardinality", "k": 2}, {**TRIANGLE, "n": 5}), tmp_path)
    assert isinstance(P, CardinalityPolytope) and (P.n, P.k) == (5, 2)
    _, P, _ = _load(_problem({"type": "partition", "parts": [[0, 1], [2]], "bounds": [1, 1]}), tmp_path)
    assert isinstance(P, PartitionPolytope) and P.bounds == [1, 1]
    _, P, _ = _load(_problem({"type": "knapsack", "a": [1, 2, 1], "b": 2}), tmp_path)
    assert isinstance(P, KnapsackPolytope) and P.b == 2.0


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"type": "mystery", "n": 2}, "got type 'mystery'"),
        ([1, 2], "got type None"),
        ({"type": "welfare", "k": 2, "utility": {"type": "welfare", "k": 2, "utility": TRIANGLE}}, "'welfare'"),
        (_problem({"type": "simplex"}), "got type 'simplex'"),
        (_problem({"type": "graph_cut", "n": 3, "edges": []}), "got type 'graph_cut'"),
        (_problem(TRIANGLE, {"type": "cardinality", "k": 1}), "got type 'cardinality'"),
        # a constraint over fewer or more elements than the instance
        (_problem({"type": "partition", "parts": [[0, 1]], "bounds": [1]}), "instance has 3"),
        (_problem({"type": "knapsack", "a": [1, 2, 1, 1], "b": 2}), "instance has 3"),
        (_problem({"type": "cardinality", "k": 4}), "0 <= k <= n"),
    ],
    ids=["unknown", "not-an-object", "nested-welfare", "unknown-polytope", "function-as-polytope",
         "polytope-as-function", "partition-short", "knapsack-long", "k-above-n"],
)
def test_loader_rejects_objects_out_of_place(obj, message, tmp_path):
    with pytest.raises(cli.ParseError, match=message):
        _load(obj, tmp_path)


@pytest.mark.parametrize(
    "obj, field",
    [
        ({**TRIANGLE, "n": 3.7}, "n"),
        ({**TRIANGLE, "n": True}, "n"),
        ({"type": "graph_cut", "n": 3, "edges": [[1, 2.9, 1.0]]}, "edges"),
        ({"type": "graph_cut", "n": 3, "edges": [[False, 1, 1.0]]}, "edges"),
        ({"type": "hypergraph_cut", "n": 3, "hyperedges": [[[0, 1.5], 1.0]]}, "hyperedges"),
        ({"type": "coverage", "n": 1, "universe_weights": [1.0], "membership": [[0.5]]}, "membership"),
        ({"type": "hardness", "p": 1, "q": 2.5}, "q"),
        ({"type": "hardness", "p": True, "q": 2}, "p"),
        ({"type": "welfare", "k": 2.5, "utility": TRIANGLE}, "k"),
        (_problem({"type": "cardinality", "k": 1.9}), "k"),
        (_problem({"type": "cardinality", "k": True}), "k"),
        (_problem({"type": "partition", "parts": [[0, 1, 2.5]], "bounds": [1]}), "parts"),
        (_problem({"type": "partition", "parts": [[0, 1, 2]], "bounds": [1.5]}), "bounds"),
    ],
)
def test_integer_fields_reject_bools_and_fractions(obj, field, tmp_path):
    # int() would truncate 3.7 to 3 and read true as 1
    with pytest.raises(cli.ParseError, match=f"^field '{field}': expected an integer"):
        _load(obj, tmp_path)


def test_integral_floats_still_load(tmp_path):
    f, P, _ = _load(_problem({"type": "cardinality", "k": 2.0}, {**TRIANGLE, "n": 3.0}), tmp_path)
    assert (f.n, P.k) == (3, 2) and isinstance(P.k, int)
    f, _, _ = _load({"type": "graph_cut", "n": 2, "edges": [[0.0, 1.0, 2]]}, tmp_path)
    assert f.eval([0]) == 2.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make, field",
    [
        (lambda w: {"type": "graph_cut", "n": 2, "edges": [[0, 1, w]]}, "edges"),
        (lambda w: {"type": "hypergraph_cut", "n": 3, "hyperedges": [[[0, 1], w]]}, "hyperedges"),
        (lambda w: {"type": "coverage", "n": 1, "universe_weights": [w], "membership": [[0]]}, "universe_weights"),
        (lambda w: _problem({"type": "knapsack", "a": [1, w, 1], "b": 2}), "a"),
        (lambda w: _problem({"type": "knapsack", "a": [1, 1, 1], "b": w}), "b"),
    ],
    ids=["edge", "hyperedge", "universe", "knapsack-a", "knapsack-b"],
)
def test_weights_and_capacities_must_be_finite(make, field, bad, tmp_path):
    # Python's json reads NaN and Infinity, and the runs then report NaN or crash
    with pytest.raises(cli.ParseError, match=f"^field '{field}': expected a finite number"):
        _load(make(bad), tmp_path)


@pytest.mark.parametrize(
    "text, flags",
    [
        ('{"type": "graph_cut", "n": 3.7, "edges": [[1, 2.9, 1.0]]}', ["brute-polytope", "--k", "1"]),
        ('{"type": "graph_cut", "n": 2, "edges": [[0, 1, NaN]]}', ["two-sided"]),
        ('{"type": "graph_cut", "n": 2, "edges": [[0, 1, Infinity]]}', ["dmcg-symmetric", "--k", "1", "--steps", "20"]),
        ('{"type": "graph_cut", "n": 2, "edges": [[0, 1, 1e400]]}', ["two-sided"]),
        ('{"type": "graph_cut", "n": 2, "edges": [[0, 1, 1%s]]}' % ("0" * 400), ["two-sided"]),
    ],
    ids=["fractional-n", "nan-weight", "infinite-weight", "overflowing-weight", "overflowing-integer-weight"],
)
def test_non_integral_or_non_finite_fields_exit_1(text, flags, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(text)
    assert main(["--instance", str(path), "--algorithm", *flags]) == 1
    assert "instance parse error" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm", ["two-sided", "brute-unconstrained"])
@pytest.mark.parametrize(
    "obj",
    [
        {"type": "graph_cut", "n": -1, "edges": []},
        {"type": "hypergraph_cut", "n": -2, "hyperedges": []},
        {"type": "coverage", "n": -1, "universe_weights": [], "membership": []},
    ],
    ids=["graph_cut", "hypergraph_cut", "coverage"],
)
def test_a_negative_ground_set_size_is_a_parse_error(obj, algorithm, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    assert main(["--instance", str(path), "--algorithm", algorithm]) == 1
    assert "must be non-negative" in capsys.readouterr().err


def test_a_hyperedge_is_its_set_of_vertices(tmp_path, capsys):
    # a vertex listed twice counts once: [0, 0, 1] is the hyperedge {0, 1},
    # and [0, 0] is a one-vertex hyperedge, which no cut can split
    f, _, _ = _load({"type": "hypergraph_cut", "n": 3, "hyperedges": [[[0, 0, 1], 0.5]]}, tmp_path)
    assert (f.eval([0]), f.eval([0, 1]), f.eval([2])) == (0.5, 0.0, 0.0)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"type": "hypergraph_cut", "n": 3, "hyperedges": [[[0, 0], 0.5]]}))
    assert main(["--instance", str(path), "--algorithm", "two-sided"]) == 1
    assert "at least 2" in capsys.readouterr().err


# the algorithms that take no polytope, with the flags each needs on the triangle
NO_POLYTOPE = [
    ("two-sided", []),
    ("brute-unconstrained", []),
    ("brute-cardinality-eq", ["--k", "1"]),
    ("brute-cardinality-le", ["--k", "1"]),
    ("dmcg-symmetric", ["--k", "1"]),
    ("dmcg-general", ["--k", "1"]),
]


@pytest.mark.parametrize(
    "polytope",
    [{"type": "bogus"}, {"type": "cardinality", "k": 4}, {"type": "knapsack", "a": [1, 1, 1]}],
    ids=["bogus", "k-above-n", "knapsack-no-b"],
)
@pytest.mark.parametrize("algorithm, flags", [*NO_POLYTOPE, ("mcg", []), ("brute-polytope", [])])
def test_a_bad_polytope_is_a_parse_error_under_every_algorithm(polytope, algorithm, flags, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_problem(polytope)))
    assert main(["--instance", str(path), "--algorithm", algorithm, *flags]) == 1


@pytest.mark.parametrize("algorithm, flags", [*NO_POLYTOPE, ("welfare-random", [])])
def test_a_problem_file_needs_an_algorithm_that_takes_its_polytope(algorithm, flags, tmp_path, capsys):
    # running without the constraint would report a set that may violate it,
    # measured against the unconstrained optimum
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_problem({"type": "cardinality", "k": 1})))
    out = tmp_path / "r.json"
    assert main(["--instance", str(path), "--algorithm", algorithm, *flags, "--out", str(out)]) == 2
    assert "inconsistent flags" in capsys.readouterr().err
    assert not out.exists()


EXAMPLE_RUNS = {
    "triangle.json": ["--algorithm", "two-sided"],
    "hypergraph.json": ["--algorithm", "dmcg-symmetric", "--k", "2", "--steps", "50"],
    "coverage.json": ["--algorithm", "dmcg-general", "--k", "2", "--steps", "50"],
    "hardness.json": ["--algorithm", "brute-cardinality-eq", "--k", "2"],
    "welfare_triangle3.json": ["--algorithm", "welfare-random", "--samples", "500"],
    "knapsack_problem.json": ["--algorithm", "mcg", "--steps", "50"],
}


def test_generated_examples_run(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "generate_instances.py"
    subprocess.run([sys.executable, str(script), "--dir", str(tmp_path)], check=True, capture_output=True)
    assert sorted(p.name for p in tmp_path.glob("*.json")) == sorted(EXAMPLE_RUNS)
    out = tmp_path / "r.out"
    for name, flags in EXAMPLE_RUNS.items():
        assert main(["--instance", str(tmp_path / name), *flags, "--out", str(out)]) == 0, name
        assert "oracle_opt" in _read_report(out)["report"]


def test_brute_force_on_the_coverage_example_descends_from_the_full_set(tmp_path):
    # coverage is monotone: the optimum check asks for f(N) and then drops
    # each element in turn, 5 sets instead of 16; {0, 2} and {1, 3} both
    # cover everything, and the smaller mask is reported
    script = Path(__file__).resolve().parents[1] / "scripts" / "generate_instances.py"
    subprocess.run([sys.executable, str(script), "--dir", str(tmp_path)], check=True, capture_output=True)
    instance = {"n": 4, "symmetric": False, "type": "coverage"}
    expected = {
        "two-sided": {"achieved_ratio": 1.0, "achieved_set": [0, 1, 2, 3], "achieved_value": 5.0,
                      "algorithm": "two-sided", "instance": instance, "oracle_calls": 16, "oracle_opt": 5.0,
                      "oracle_opt_set": [0, 2], "seed": 0, "theoretical_ratio": 1 / 3, "theoretical_regime": True},
        "brute-unconstrained": {"achieved_ratio": 1.0, "achieved_set": [0, 2], "achieved_value": 5.0,
                                "algorithm": "brute-unconstrained", "instance": instance, "oracle_calls": 5,
                                "oracle_opt": 5.0, "seed": 0, "theoretical_ratio": 1.0, "theoretical_regime": True},
    }
    out = tmp_path / "r.json"
    for algorithm, report in expected.items():
        assert main(["--instance", str(tmp_path / "coverage.json"), "--algorithm", algorithm, "--out", str(out)]) == 0
        assert _read_report(out)["report"] == report


def _chain_file(tmp_path, n, welfare_k=None):
    chain = {"type": "graph_cut", "n": n, "edges": [[u, u + 1, 1.0] for u in range(n - 1)]}
    obj = chain if welfare_k is None else {"type": "welfare", "k": welfare_k, "utility": chain}
    path = tmp_path / f"chain{n}-{welfare_k}.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_exit_code_inconsistent_flags(triangle_file, welfare_file, tmp_path):
    assert main(["--instance", triangle_file, "--algorithm", "dmcg-general"]) == 2  # --k missing
    assert main(["--instance", triangle_file, "--algorithm", "two-sided", "--k", "1"]) == 2
    assert main(["--instance", triangle_file, "--algorithm", "welfare-random"]) == 2
    assert main(["--instance", triangle_file, "--algorithm", "brute-unconstrained", "--k", "2"]) == 2
    # an ascent needs a positive horizon and at least one step, whatever the
    # algorithm, k, or whether reduction leaves anything to run
    for algorithm, k in (("mcg", "1"), ("mcg", "0"), ("dmcg-symmetric", "1"), ("dmcg-symmetric", "3"),
                         ("dmcg-general", "1")):
        for flags in (["--steps", "0"], ["--steps", "-3"], ["--T", "0"], ["--T", "-1"]):
            argv = ["--instance", triangle_file, "--algorithm", algorithm, "--k", k, *flags]
            assert main(argv) == 2, argv
    # every flag is checked before any work starts: none of these may end in
    # a traceback, or (welfare with no trials) in a NaN report
    chain64, welfare64 = _chain_file(tmp_path, 64), _chain_file(tmp_path, 64, welfare_k=2)
    for argv in (
        [triangle_file, "mcg", "--k", "1", "--samples", "0"],
        [triangle_file, "dmcg-symmetric", "--k", "1", "--samples", "0"],
        [triangle_file, "dmcg-general", "--k", "1", "--samples", "-2"],
        [welfare_file, "welfare-random", "--samples", "0"],
        [welfare_file, "welfare-random", "--samples", "-1"],
        [triangle_file, "brute-cardinality-eq", "--k", "4"],
        [triangle_file, "brute-cardinality-le", "--k", "-1"],
        [chain64, "mcg", "--k", "2", "--steps", "2", "--samples", "10"],
        [chain64, "dmcg-general", "--k", "2", "--steps", "2", "--samples", "10"],
        [welfare64, "welfare-random", "--samples", "10"],
        [welfare_file, "welfare-random", "--seed", "-1"],
    ):
        instance, algorithm, *flags = argv
        assert main(["--instance", instance, "--algorithm", algorithm, *flags]) == 2, argv


@pytest.mark.parametrize(
    "flags",
    [
        ["mcg", "--k", "1", "--T", "1.5", "--steps", "1"],
        ["dmcg-general", "--k", "1", "--T", "5", "--steps", "2"],
        ["dmcg-symmetric", "--k", "1", "--T", "1.2", "--steps", "1"],
        ["dmcg-symmetric", "--k", "1", "--T", "100", "--steps", "10"],
        ["dmcg-symmetric", "--k", "3", "--T", "2", "--steps", "1"],
    ],
)
def test_a_step_wider_than_1_is_a_flag_error(flags, triangle_file, capsys):
    # y + delta d (1 - s - y) leaves the cube for delta = T/steps > 1
    assert main(["--instance", triangle_file, "--algorithm", *flags]) == 2
    assert "exceeds 1" in capsys.readouterr().err


def test_a_step_of_width_1_runs(triangle_file, tmp_path):
    out = tmp_path / "r.json"
    argv = ["--instance", triangle_file, "--algorithm", "mcg", "--k", "1", "--T", "1", "--steps", "1"]
    assert main([*argv, "--out", str(out)]) == 0
    assert _read_report(out)["report"]["config"] == {"T": 1.0, "steps": 1, "estimator": "closed_form"}
    # when Reduction 1 keeps no element no step runs, and the report keeps the given T
    argv = ["--instance", triangle_file, "--algorithm", "mcg", "--k", "0", "--T", "5"]
    assert main([*argv, "--out", str(out)]) == 0
    assert _read_report(out)["report"]["config"] == {"T": 5.0, "steps": 1, "estimator": "closed_form"}


FOUR_CYCLE = {"type": "graph_cut", "n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, 1.0], [0, 3, 1.0]]}


@pytest.mark.parametrize(
    "instance, flags",
    [
        # past the horizon the knapsack point left P: exit 0 with a ratio above 1
        (_problem({"type": "knapsack", "a": [0.3] * 4, "b": 0.3}, FOUR_CYCLE), ["mcg", "--T", "5"]),
        # ... and the partition point could not be rounded: a ValueError traceback
        (_problem({"type": "partition", "parts": [[0, 2], [1, 3]], "bounds": [1, 1]}, FOUR_CYCLE), ["mcg", "--T", "5"]),
        # the pair overshot |S| = 1: an ArithmeticError traceback
        (TRIANGLE, ["dmcg-symmetric", "--k", "1", "--T", "3"]),
        # the pair for k = 2 runs under |S| <= n - k = 1
        (TRIANGLE, ["dmcg-symmetric", "--k", "2", "--T", "3"]),
        # the general pair overshot too: an ArithmeticError traceback (exit 1)
        (TRIANGLE, ["dmcg-general", "--k", "1", "--T", "3", "--steps", "100"]),
        # ... and under |S| <= n - k = 1 for k = 2
        (TRIANGLE, ["dmcg-general", "--k", "2", "--T", "1.5", "--steps", "100"]),
    ],
    ids=["mcg-knapsack", "mcg-partition", "symmetric-k1", "symmetric-k2", "general-k1", "general-k2"],
)
def test_a_T_beyond_the_horizon_is_a_flag_error(instance, flags, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert main(["--instance", str(path), "--algorithm", *flags]) == 2
    assert "exceeds max(1, horizon)" in capsys.readouterr().err


def test_a_T_at_the_horizon_runs(triangle_file, tmp_path):
    # T = 1 is allowed where the horizon is shorter; a T up to the horizon runs
    steps = 300
    T_s = horizon(CardinalityPolytope(3, 1), steps)
    assert T_s > 1.0
    runs = [("dmcg-symmetric", 1.0), ("dmcg-symmetric", T_s), ("mcg", T_s), ("dmcg-general", 1.0), ("dmcg-general", T_s)]
    for algorithm, T in runs:
        argv = ["--instance", triangle_file, "--algorithm", algorithm, "--k", "1", "--T", repr(T), "--steps", str(steps)]
        assert main([*argv, "--out", str(tmp_path / "r.json")]) == 0, argv


def test_a_knapsack_reduced_to_zero_coefficients_runs_on_the_cube(tmp_path):
    # Reduction 1 drops item 1 (a = 5 > b) and keeps item 0 (a = 0), which no
    # constraint binds
    path = tmp_path / "problem.json"
    function = {"type": "graph_cut", "n": 2, "edges": [[0, 1, 1.0]]}
    path.write_text(json.dumps(_problem({"type": "knapsack", "a": [0, 5], "b": 1}, function)))
    out = tmp_path / "r.json"
    assert main(["--instance", str(path), "--algorithm", "mcg", "--out", str(out)]) == 0
    report = _read_report(out)["report"]
    assert report["fractional_point"][1] == 0.0 and report["achieved_set"] == [0]
    assert report["achieved_value"] == report["oracle_opt"] == 1.0


def test_the_pipage_audit_is_relative_to_the_scale_of_f(tmp_path):
    # a submodular coverage whose weights span 1e-300 to 1e300: rounding error
    # in F dwarfs an absolute tolerance of 1e-9
    path = tmp_path / "coverage.json"
    path.write_text(json.dumps({"type": "coverage", "n": 3, "universe_weights": [1, 0.5, 1e-300, 1e300],
                                "membership": [[2], [2, 1], [3, 2, 0]]}))
    out = tmp_path / "r.json"
    assert main(["--instance", str(path), "--algorithm", "dmcg-general", "--k", "2", "--out", str(out)]) == 0
    report = _read_report(out)["report"]
    assert len(report["achieved_set"]) == 2 and report["achieved_value"] == report["oracle_opt"] == 1e300


@pytest.mark.parametrize("samples", [None, "16"])
def test_dmcg_symmetric_at_k_equal_n_takes_everything_in_no_step(samples, triangle_file, tmp_path):
    out = tmp_path / "r.json"
    argv = ["--instance", triangle_file, "--algorithm", "dmcg-symmetric", "--k", "3"]
    assert main([*argv, *(["--samples", samples] if samples else []), "--out", str(out)]) == 0
    report = _read_report(out)["report"]
    assert report["config"]["T"] == 0.0 and report["config"]["steps"] == 0 and report["theoretical_regime"]
    assert report["fractional_point"] == [1.0, 1.0, 1.0] and report["achieved_set"] == [0, 1, 2]
    assert report["fractional_value"] == report["achieved_value"] == 0.0


def test_exit_code_oracle_unavailable(tmp_path):
    # n = 24 runs fine but exceeds the brute-force oracle limit
    edges = [[u, u + 1, 1.0] for u in range(23)]
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"type": "graph_cut", "n": 24, "edges": edges}))
    assert main(["--instance", str(path), "--algorithm", "two-sided", "--require-oracle"]) == 3
    # the brute-force algorithms are the oracle, so they stop before any work
    assert main(["--instance", str(path), "--algorithm", "brute-unconstrained"]) == 3
    assert main(["--instance", str(path), "--algorithm", "brute-cardinality-le", "--k", "2"]) == 3
    # without the flag the run succeeds, just without a ratio
    out = tmp_path / "r.json"
    assert main(["--instance", str(path), "--algorithm", "two-sided", "--out", str(out)]) == 0
    assert "oracle_opt" not in _read_report(out)["report"]


def test_monotone_unconstrained_jobs_are_verified_beyond_the_brute_force_limit(tmp_path):
    # on a coverage f the unconstrained optimum is the descent from N, n + 1
    # oracle calls at any n; constrained searches keep the limit
    n = 30
    membership = [[u % 7, 7 + (3 * u) % 11] for u in range(n)]
    path = tmp_path / "coverage.json"
    path.write_text(json.dumps({"type": "coverage", "n": n, "universe_weights": [1.0] * 18, "membership": membership}))
    out = tmp_path / "r.json"
    assert main(["--instance", str(path), "--algorithm", "two-sided", "--require-oracle", "--out", str(out)]) == 0
    report = _read_report(out)["report"]
    assert report["oracle_opt"] == 18.0 and report["achieved_ratio"] == report["achieved_value"] / 18.0
    assert main(["--instance", str(path), "--algorithm", "brute-unconstrained", "--out", str(out)]) == 0
    report = _read_report(out)["report"]
    assert report["achieved_value"] == report["oracle_opt"] == 18.0 and report["oracle_calls"] == n + 1
    assert main(["--instance", str(path), "--algorithm", "brute-cardinality-eq", "--k", "2"]) == 3


ASCENT_KEYS = {"config", "fractional_value", "fractional_point", "theoretical_ratio", "theoretical_regime"}
VERIFIED_KEYS = {"algorithm", "seed", "instance", "achieved_value", "oracle_opt", "achieved_ratio", "oracle_calls"}
REPORT_KEYS = {
    "mcg": ASCENT_KEYS | {"achieved_set"},
    "dmcg-symmetric": ASCENT_KEYS | {"achieved_set", "fractional_mass"},
    "dmcg-general": ASCENT_KEYS | {"achieved_set", "fractional_mass"},
    "two-sided": {"achieved_set", "oracle_opt_set", "theoretical_ratio", "theoretical_regime"},
    "welfare-random": {"trials", "achieved_sigma", "theoretical_ratio", "theoretical_regime"},
    "brute-unconstrained": {"achieved_set", "theoretical_ratio", "theoretical_regime"},
    "brute-cardinality-eq": {"achieved_set", "theoretical_ratio", "theoretical_regime"},
    "brute-cardinality-le": {"achieved_set", "theoretical_ratio", "theoretical_regime"},
    "brute-polytope": {"achieved_set", "theoretical_ratio", "theoretical_regime"},
}


@pytest.mark.parametrize("algorithm", cli.ALGORITHMS)
def test_report_key_set_per_algorithm(algorithm, triangle_file, welfare_file, tmp_path):
    flags = {
        "mcg": ["--k", "1", "--steps", "50"],
        "dmcg-symmetric": ["--k", "2", "--steps", "50"],
        "dmcg-general": ["--k", "1", "--steps", "50"],
        "welfare-random": ["--samples", "500"],
        "brute-cardinality-eq": ["--k", "1"],
        "brute-cardinality-le": ["--k", "1"],
        "brute-polytope": ["--k", "2"],
    }.get(algorithm, [])
    instance = welfare_file if algorithm == "welfare-random" else triangle_file
    out = tmp_path / "r.json"
    assert main(["--instance", instance, "--algorithm", algorithm, *flags, "--out", str(out)]) == 0
    assert set(_read_report(out)["report"]) == VERIFIED_KEYS | REPORT_KEYS[algorithm]


def test_report_determinism(triangle_file, tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["--instance", triangle_file, "--algorithm", "dmcg-general", "--k", "1",
            "--steps", "400", "--seed", "13"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    ra, rb = _read_report(out_a), _read_report(out_b)
    assert json.dumps(ra["report"], sort_keys=True) == json.dumps(rb["report"], sort_keys=True)
    assert ra["metadata"]["determinism_hash"] == rb["metadata"]["determinism_hash"]


def test_csv_format(triangle_file, tmp_path):
    out = tmp_path / "r.csv"
    assert main(
        ["--instance", triangle_file, "--algorithm", "two-sided", "--format", "csv", "--out", str(out)]
    ) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    assert "achieved_value" in header and "theoretical_ratio" in header


def test_problem_composite_instance(tmp_path):
    obj = {
        "type": "problem",
        "function": {"type": "graph_cut", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]]},
        "polytope": {"type": "knapsack", "a": [1.0, 1.0, 3.0], "b": 2.0},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "r.json"
    assert main(["--instance", str(path), "--algorithm", "brute-polytope", "--out", str(out)]) == 0
    assert _read_report(out)["report"]["oracle_opt"] == 2.0
    # mcg over the embedded polytope cannot also take --k
    assert main(["--instance", str(path), "--algorithm", "mcg", "--k", "1"]) == 2
    out2 = tmp_path / "r2.json"
    assert main(["--instance", str(path), "--algorithm", "mcg", "--steps", "300", "--out", str(out2)]) == 0


def test_knapsack_singleton_within_the_tolerance_is_kept(tmp_path):
    # a_0 exceeds b by one ulp: membership and the brute-force search admit {0}
    # (tolerance 1e-9), so reduction 1 must keep element 0 as well
    polytope = {"type": "knapsack", "a": [0.30000000000000004, 0.3, 0.3], "b": 0.3}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_problem(polytope, {"type": "graph_cut", "n": 3, "edges": [[0, 1, 1.0], [0, 2, 1.0]]})))
    opts = []
    for flags in (["brute-polytope"], ["mcg", "--steps", "200"]):
        out = tmp_path / "r.json"
        assert main(["--instance", str(path), "--algorithm", *flags, "--out", str(out)]) == 0
        opts.append(_read_report(out)["report"]["oracle_opt"])
    assert opts == [2.0, 2.0]


REDUCED_PROBLEMS = {
    # a zero-bound part drops elements 0-2 of a symmetric f
    "cut": ({"type": "graph_cut", "n": 6, "edges": [[u, v, 1.0 + 0.1 * u] for u in range(6) for v in range(u + 1, 6)]},
            {"type": "partition", "parts": [[0, 1, 2], [3, 4, 5]], "bounds": [0, 2]}, 8),
    # a knapsack coefficient above the capacity drops elements 1 and 4
    "coverage": ({"type": "coverage", "n": 6, "universe_weights": [1.0, 2.0, 0.5, 1.5],
                  "membership": [[0], [0, 1], [1, 2], [3], [2, 3], [0, 3]]},
                 {"type": "knapsack", "a": [1, 5, 1, 1, 5, 1], "b": 2}, 11),
}


@pytest.mark.parametrize("name", sorted(REDUCED_PROBLEMS))
def test_oracle_calls_count_f_and_its_restriction(name, monkeypatch, tmp_path):
    # mcg runs on the restriction g of f to the elements Reduction 1 keeps:
    # the report counts f's queries and g's, and no 2^|kept| table of a
    # symmetry audit (the cut once counted 16 = 8 + 2^3)
    function, polytope, calls = REDUCED_PROBLEMS[name]
    made = []

    def restrict(f, kept):
        made.append((f, restrict_function(f, kept)))
        return made[-1][1]

    monkeypatch.setattr(cli, "restrict_function", restrict)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_problem(polytope, function)))
    out = tmp_path / "r.json"
    assert main(["--instance", str(path), "--algorithm", "mcg", "--steps", "100", "--out", str(out)]) == 0
    ((f, g),) = made
    assert 0 < g.n < f.n and g.query_count > 0
    assert _read_report(out)["report"]["oracle_calls"] == f.query_count + g.query_count == calls


def test_mcg_embeds_the_reduced_point_and_set(tmp_path):
    # a zero-bound part drops elements 0-2 in reduction 1; the reduced run's
    # point and rounded set come back on the instance's own indices
    edges = [[u, v, 1.0 + 0.1 * u] for u in range(6) for v in range(u + 1, 6)]
    polytope = {"type": "partition", "parts": [[0, 1, 2], [3, 4, 5]], "bounds": [0, 2]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"type": "problem", "function": {"type": "graph_cut", "n": 6, "edges": edges},
                                "polytope": polytope}))
    out = tmp_path / "r.json"
    assert main(["--instance", str(path), "--algorithm", "mcg", "--steps", "100", "--out", str(out)]) == 0
    report = _read_report(out)["report"]
    assert report["fractional_point"][:3] == [0.0, 0.0, 0.0]
    assert 0.0 < sum(report["fractional_point"][3:]) <= 2.0 + 1e-9
    achieved = report["achieved_set"]
    assert len(achieved) == 2 and set(achieved) <= {3, 4, 5}
    f = graph_cut_function(6, edges)
    assert report["achieved_value"] == f.eval(achieved)


def test_sweep_basic_run(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "4", "--kn", "1/4", "--steps", "0", "--out", str(out)]) == 2
    assert main(["sweep", "--n", "1", "--kn", "1/4", "--out", str(out)]) == 2
    assert main(["sweep", "--kn", "1/4,1/2", "--n", "6", "--count", "1", "--steps", "150", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "family,n,instance,kn,k,ratio,curve,margin"
    assert [line.split(",")[3:5] for line in lines[1:]] == [["1/4", "2"], ["1/2", "3"]]
    for line in lines[1:]:
        fields = line.split(",")
        ratio, curve = float(fields[5]), float(fields[6])
        assert ratio >= curve - 0.02


@pytest.mark.parametrize("entry", ["0", "3/4"])
def test_sweep_rejects_a_kn_entry_outside_the_k_range(entry, tmp_path, capsys):
    # at n = 8, kn = 0 would give k = 0 and kn = 3/4 would give k = 6 > n // 2
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "8", "--kn", f"1/4,{entry}", "--count", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"--kn entry {entry} gives k" in err and "[1, 4]" in err
    assert not out.exists()


def test_sweep_seeds_option_is_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--n", "6", "--kn", "1/4", "--seeds", "0,1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--kn", "abc"], ["--kn", "1/0"]])
def test_sweep_rejects_unparsable_lists_as_flag_errors(flags, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "4", *flags, "--out", str(out)]) == 2
    assert "inconsistent flags: --" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--kn", "1e400"],  # k = round(kn * n) would overflow a float
        ["--kn", "3/2"],
        ["--kn=-1/4"],
        ["--kn", ""],
        ["--kn", "1/4", "--count", "0"],
    ],
    ids=["kn-huge", "kn-above-1", "kn-negative", "kn-empty", "count-0"],
)
def test_sweep_rejects_out_of_range_flags_before_any_work(flags, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "4", *flags, "--out", str(out)]) == 2
    assert "inconsistent flags: --" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--self-check"], ["--trials", "4000"]])
def test_removed_self_check_options_are_rejected(flags, triangle_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--instance", triangle_file, "--algorithm", "two-sided", *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_report_names_the_estimator_backend(triangle_file, tmp_path, monkeypatch):
    coverage = tmp_path / "coverage.json"
    coverage.write_text(
        json.dumps(
            {"type": "coverage", "n": 4, "universe_weights": [1.0, 0.5, 2.0],
             "membership": [[0], [0, 1], [2], [1, 2]]}
        )
    )
    jobs = [
        (triangle_file, ["--algorithm", "mcg", "--k", "1", "--steps", "200"], "closed_form"),
        (str(coverage), ["--algorithm", "dmcg-general", "--k", "2", "--steps", "200"], "closed_form"),
        (triangle_file, ["--algorithm", "dmcg-symmetric", "--k", "1", "--steps", "50", "--samples", "64"], "sampled"),
    ]
    out = tmp_path / "r.json"
    lookups = record_lookups(monkeypatch)  # only the sampled job looks sets up
    for instance, flags, expected in jobs:
        assert main(["--instance", instance, *flags, "--out", str(out)]) == 0
        report = _read_report(out)["report"]
        assert report["config"]["estimator"] == expected
        if expected == "closed_form":
            # no 2^n table: the oracle is queried only for verification and
            # the final set (at most 2^n masks from the brute-force check)
            assert report["oracle_calls"] <= 2 * 2 ** report["instance"]["n"]
        else:
            # 2 sides x (1 + 50 steps) gradients (at the start and after each
            # update) plus 1 after the one reset the cleanup makes, then
            # pipage rounding's 4 values, all looked up in the run's one
            # evaluator, whose memo asks once for each set it looks up: all 8
            # sets of the triangle.  Outside it, the brute-force check asks for the 3 sets of
            # size 1 and the report for the achieved set; the fractional
            # value is exact
            (asked,) = lookups.values()
            assert len(asked) == 2 * (1 + 50) + 1 + 4
            assert report["oracle_calls"] == distinct_lookups(lookups) + 3 + 1 == 12


@pytest.mark.parametrize("algorithm", ["mcg", "dmcg-symmetric", "dmcg-general"])
def test_consumers_of_the_run_seed_draw_disjoint_streams(algorithm, triangle_file, tmp_path, monkeypatch):
    # the ascent and pipage rounding each lead their substream paths with
    # their own element, so neither reads the other's draws, also in runs of
    # 1,000 steps and more; the reported fractional value draws nothing
    drawn = defaultdict(list)

    def recording(seed, *path):
        frame = sys._getframe(1)
        while frame.f_globals["__name__"] == "submax.multilinear":
            frame = frame.f_back
        drawn[frame.f_globals["__name__"]].append(path)
        return substream(seed, *path)

    monkeypatch.setattr(multilinear, "substream", recording)
    flags = ["--algorithm", algorithm, "--k", "1", "--steps", "1000", "--samples", "4"]
    assert main(["--instance", triangle_file, *flags, "--out", str(tmp_path / "r.json")]) == 0
    assert set(drawn) == {"submax.mcg", "submax.pipage"}
    leads = {consumer: {path[0] for path in paths} for consumer, paths in drawn.items()}
    assert all(len(lead) == 1 for lead in leads.values())
    assert len(set().union(*leads.values())) == len(leads)
    assert max(Counter(drawn["submax.mcg"]).values()) == 1  # the ascent draws each stream once


@pytest.mark.parametrize("algorithm", ["mcg", "dmcg-symmetric", "dmcg-general"])
def test_a_sampled_run_reports_the_exact_fractional_value(algorithm, tmp_path):
    # the ascent samples F, but the reported F(y) is the closed form at the
    # reported point, so the achieved ratio carries no estimator noise
    edges = [[u, v, 0.25 + (3 * u + v) % 5 / 4] for u in range(8) for v in range(u + 1, 8) if (u + v) % 3]
    path = tmp_path / "cut.json"
    path.write_text(json.dumps({"type": "graph_cut", "n": 8, "edges": edges}))
    out = tmp_path / "r.json"
    argv = ["--instance", str(path), "--algorithm", algorithm, "--k", "3", "--steps", "40", "--samples", "16"]
    assert main([*argv, "--out", str(out)]) == 0
    report = _read_report(out)["report"]
    assert report["config"]["estimator"] == "sampled"
    point = np.array(report["fractional_point"])
    assert np.minimum(point, 1.0 - point).max() > 0.0  # an interior point, where sampling would differ
    f = graph_cut_function(8, edges)
    assert report["fractional_value"] == f.multilinear(point)[0]
    assert report["achieved_ratio"] == report["fractional_value"] / report["oracle_opt"]


def test_closed_form_runs_exact_beyond_the_table_limit(tmp_path):
    # n = 24 > 16: no value table, but the cut's closed form keeps mcg exact
    edges = [[u, (u + 1) % 24, 1.0] for u in range(24)] + [[u, u + 12, 0.5] for u in range(12)]
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"type": "graph_cut", "n": 24, "edges": edges}))
    out = tmp_path / "r.json"
    assert main(["--instance", str(path), "--algorithm", "mcg", "--k", "6", "--steps", "100",
                 "--out", str(out)]) == 0
    report = _read_report(out)["report"]
    assert report["config"]["estimator"] == "closed_form"
    assert len(report["achieved_set"]) == 6
    assert report["achieved_value"] >= report["fractional_value"] - 1e-9  # exact pipage never loses value
    assert report["oracle_calls"] == 1


def _large_cut_file(tmp_path, family, n=70):
    rng = np.random.default_rng(n)
    if family == "graph_cut":
        edges = [[u, v, 1.0] for u in range(n) for v in range(u + 1, n) if rng.random() < 0.08]
        obj = {"type": "graph_cut", "n": n, "edges": edges}
    else:
        hyperedges = [[sorted(rng.choice(n, size=3, replace=False).tolist()), 1.0] for _ in range(2 * n)]
        obj = {"type": "hypergraph_cut", "n": n, "hyperedges": hyperedges}
    path = tmp_path / f"{family}{n}.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("family", ["graph_cut", "hypergraph_cut"])
@pytest.mark.parametrize("algorithm", ["mcg", "dmcg-symmetric", "dmcg-general"])
def test_ascents_round_sets_beyond_62_elements(algorithm, family, tmp_path):
    # 70 elements do not fit an int64 mask; pipage packs the set as a Python int
    out = tmp_path / "r.json"
    argv = ["--instance", _large_cut_file(tmp_path, family), "--algorithm", algorithm, "--k", "17", "--steps", "20"]
    assert main([*argv, "--out", str(out)]) == 0
    report = _read_report(out)["report"]
    assert report["config"]["estimator"] == "closed_form" and "oracle_opt" not in report
    # the dmcg variants round onto |S| = k, mcg onto |S| <= k
    size = len(report["achieved_set"])
    assert size == 17 if algorithm.startswith("dmcg-") else 1 <= size <= 17
    assert report["achieved_value"] >= report["fractional_value"] - 1e-9  # exact pipage never loses value


@pytest.mark.parametrize("algorithm", ["mcg", "dmcg-symmetric"])
def test_coarse_ascent_on_the_64_vertex_path_stays_feasible(algorithm, tmp_path):
    # at the continuous horizon, 20 steps overshot |S| <= 4: mcg's point left
    # the polytope and dmcg-symmetric's y1 passed k
    out = tmp_path / "r.json"
    argv = ["--instance", _chain_file(tmp_path, 64), "--algorithm", algorithm, "--k", "4", "--steps", "20"]
    assert main([*argv, "--out", str(out)]) == 0
    report = _read_report(out)["report"]
    assert report["config"]["T"] == max(1.0, horizon(CardinalityPolytope(64, 4), 20))
    assert sum(report["fractional_point"]) <= 4 + 1e-9
    assert len(report["achieved_set"]) == 4
