import json
import math

import numpy as np
import pytest

from submax import cli
from submax.cli import main
from submax.polytope import CardinalityPolytope, horizon, polytope_from_json
from submax.setfn import set_function_from_json
from submax.welfare import welfare_from_json


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


def _load_problem_file(obj, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(obj))
    return cli._load_instance(str(path))


# loader(obj, tmp_path), a valid object, and one of its required fields
LOADERS = {
    "set_function": (lambda obj, _: set_function_from_json(obj), TRIANGLE, "edges"),
    "polytope": (
        lambda obj, _: polytope_from_json(obj, 3),
        {"type": "partition", "parts": [[0, 1, 2]], "bounds": [1]},
        "bounds",
    ),
    "welfare": (lambda obj, _: welfare_from_json(obj), {"type": "welfare", "k": 2, "utility": TRIANGLE}, "utility"),
    "problem": (
        _load_problem_file,
        {"type": "problem", "function": TRIANGLE, "polytope": {"type": "cardinality", "k": 1}},
        "polytope",
    ),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_json_loaders_name_missing_and_unknown_fields(loader, tmp_path):
    load, obj, required = LOADERS[loader]
    load(obj, tmp_path)
    extra = {**obj, "extra": 1}
    with pytest.raises((ValueError, cli.ParseError), match=r"unknown fields \['extra'\]"):
        load(extra, tmp_path)
    short = {key: value for key, value in obj.items() if key != required}
    with pytest.raises((ValueError, cli.ParseError), match=rf"missing fields \['{required}'\]"):
        load(short, tmp_path)


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
    f = set_function_from_json({"type": "graph_cut", "n": 6, "edges": edges})
    assert report["achieved_value"] == f.eval(achieved)


def test_sweep_empty_grid_and_basic_run(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--kn", "", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1  # header only
    assert main(["sweep", "--n", "4", "--kn", "1/4", "--steps", "0", "--out", str(out)]) == 2
    assert main(["sweep", "--n", "1", "--kn", "1/4", "--out", str(out)]) == 2
    assert main(
        ["sweep", "--kn", "1/4,1/2", "--n", "6", "--count", "1", "--seeds", "0",
         "--steps", "150", "--out", str(out)]
    ) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("family,")
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        ratio, curve = float(fields[6]), float(fields[7])
        assert ratio >= curve - 0.02


def test_self_check_flag():
    assert main(["--self-check", "--trials", "4000"]) == 0


def test_report_names_the_estimator_backend(triangle_file, tmp_path):
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
    for instance, flags, expected in jobs:
        assert main(["--instance", instance, *flags, "--out", str(out)]) == 0
        report = _read_report(out)["report"]
        assert report["config"]["estimator"] == expected
        if expected == "closed_form":
            # no 2^n table: the oracle is queried only for verification and
            # the final set (at most 2^n masks from the brute-force check)
            assert report["oracle_calls"] <= 2 * 2 ** report["instance"]["n"]


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
