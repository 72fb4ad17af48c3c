"""Acceptance suite: every guarantee of the toolkit checked at desk scale
against brute-force ground truth, one criterion per test, one printed
pass/fail line each (run with -s or -rA to see them)."""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from conftest import (
    RecordingEvaluator,
    brute_direction_value,
    random_coverage,
    random_offset_cut,
    random_symmetric_instance,
    single_edge_cut,
    tight_instance,
    triangle_cut,
)
from lemmas import (
    check_concave_segment,
    check_disjoint_unions,
    check_feasibility_invariants,
    check_lemma_general_properties,
    check_linearization_bound,
    check_loss_gain,
    check_max_y,
    check_repeated_subsample_union,
    check_union_bound_symmetric,
    check_y_properties,
)
from submax.cli import main as cli_main
from submax.dmcg import run_dmcg, solve_direction
from submax.fixtures import random_graph_cut
from submax.mcg import AscentConfig, run_mcg
from submax.multilinear import Estimator, MultilinearEvaluator
from submax.oracle import brute_cardinality, brute_polytope_integral, brute_unconstrained
from submax.pipage import pipage_round
from submax.polytope import CardinalityPolytope, PartitionPolytope, horizon
from submax.rng import substream
from submax.setfn import hardness_instance
from submax.subsets import popcount_array
from submax.twosided import run_two_sided
from submax.welfare import (
    WelfareInstance,
    brute_force_welfare,
    simulate_random_assign,
    welfare_ratio,
)

EXACT_TOL = 1e-9


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS - {description}")


def _symmetric_pool(count, max_n=12, start_seed=100):
    pool = []
    for i in range(count):
        n = 2 + (i % (max_n - 1))
        pool.append(random_symmetric_instance(n, start_seed + i))
    return pool


# ---------------------------------------------------------------------------
# 1 + 2: two-sided greedy guarantee and its per-iteration ledger
# ---------------------------------------------------------------------------


def test_criterion_1_two_sided_half_guarantee():
    with criterion(1, "two-sided greedy: f(out) >= OPT/2 on 200 symmetric instances, < 10 s"):
        pool = _symmetric_pool(200)
        start = time.perf_counter()
        for f in pool:
            out = run_two_sided(f)
            _, opt = brute_unconstrained(f)
            assert f.eval(out) >= 0.5 * opt - EXACT_TOL
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_loss_gain_ledger():
    with criterion(2, "loss-gain ledger holds at every iteration on 200 symmetric instances"):
        for f in _symmetric_pool(200):
            opt_mask, _ = brute_unconstrained(f)
            rep = check_loss_gain(f, run_two_sided(f), opt_mask)
            assert rep.passed, rep.details
            assert rep.details["tolerance"] <= 1e-9  # no looser than the absolute 1e-9 it replaces


# ---------------------------------------------------------------------------
# 3: measured continuous greedy ratio + feasibility
# ---------------------------------------------------------------------------


def _mcg_polytopes(n, i):
    if i % 3 == 2 and n >= 4:
        half = n // 2
        parts = [list(range(half)), list(range(half, n))]
        bounds = [max(1, half // 2), max(1, (n - half) // 2)]
        return PartitionPolytope(parts, bounds)
    k = 1 + i % max(1, n - 1)
    return CardinalityPolytope(n, k)


def test_criterion_3_mcg_ratio_and_feasibility():
    with criterion(3, "continuous greedy: F(y) >= (0.5(1-e^-2T) - 0.02) OPT and per-step feasibility, < 2 min"):
        start = time.perf_counter()
        for i in range(50):
            n = 4 + (i % 7)
            f = random_symmetric_instance(n, 300 + i)
            P = _mcg_polytopes(n, i)
            T = min(1.0, horizon(P))
            ev = RecordingEvaluator(f)
            y, traj = run_mcg(ev, P, AscentConfig(T=T, steps=2000))
            _, opt = brute_polytope_integral(f, P)
            value = ev.value(y)
            bound = (0.5 * (1.0 - math.exp(-2.0 * T)) - 0.02) * opt
            assert value >= bound - EXACT_TOL, (i, value, bound)
            rep = check_feasibility_invariants(traj, ev.steps, P)
            assert rep.passed, (i, rep.details)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4: double greedy, symmetric variant + pipage
# ---------------------------------------------------------------------------


def test_criterion_4_dmcg_symmetric():
    with criterion(4, "equality-k double greedy (symmetric): mass, ratio curve, and lossless rounding"):
        for i in range(50):
            n = 4 + (i % 7)
            k = 1 + i % max(1, n // 2)
            f = random_symmetric_instance(n, 400 + i)
            ev = MultilinearEvaluator(f)
            y, _ = run_dmcg(ev, k, AscentConfig(steps=2000), "symmetric")
            assert abs(y.sum() - k) <= EXACT_TOL, (i, y.sum(), k)
            value = ev.value(y)
            _, opt = brute_cardinality(f, k)
            curve = 0.5 * (1.0 - (1.0 - k / n) ** (2 * n / k))
            assert value >= (curve - 0.02) * opt - EXACT_TOL, (i, value, curve * opt)
            mask = pipage_round(ev, y, CardinalityPolytope(n, k))
            assert int(popcount_array(np.array([mask]))[0]) == k
            assert f.eval(mask) >= value - EXACT_TOL


# ---------------------------------------------------------------------------
# 5: double greedy, general variant
# ---------------------------------------------------------------------------


def test_criterion_5_dmcg_general():
    with criterion(5, "equality-k double greedy (general): F(y) >= (1/e - 0.02) OPT with |y| = k"):
        for i in range(50):
            n = 4 + (i % 7)
            k = 1 + i % (n - 1)
            f = random_coverage(n, 500 + i) if i % 2 == 0 else random_offset_cut(n, 500 + i)
            ev = MultilinearEvaluator(f)
            y, _ = run_dmcg(ev, k, AscentConfig(steps=2000), "general")
            assert abs(y.sum() - k) <= EXACT_TOL, (i, y.sum(), k)
            value = ev.value(y)
            _, opt = brute_cardinality(f, k)
            assert value >= (math.exp(-1.0) - 0.02) * opt - EXACT_TOL, (i, value / opt)


# ---------------------------------------------------------------------------
# 6: direction-solver exactness
# ---------------------------------------------------------------------------


def test_criterion_6_direction_solver_exactness():
    with criterion(6, "max-min direction solver matches exhaustive vertex+mix enumeration (1000 cases)"):
        rng = substream(606, 0)
        for case in range(1000):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(0, n + 1))
            w1 = rng.uniform(-3, 3, size=n)
            w2 = rng.uniform(-3, 3, size=n)
            c1, c2 = rng.uniform(0, 3, size=2)
            coeff = 2.0 if case % 2 == 0 else 1.0
            _, _, info = solve_direction(w1, w2, c1, c2, k, coeff)
            expected = brute_direction_value(w1, w2, c1, c2, k, coeff)
            assert abs(info.objective - expected) <= EXACT_TOL, (case, info.objective, expected)


# ---------------------------------------------------------------------------
# 7: welfare ratios
# ---------------------------------------------------------------------------


def test_criterion_7_welfare_ratio():
    with criterion(7, "random assignment: tight-instance means for k=2..5 and ratio floor on 50 instances"):
        for k in (2, 3, 4, 5):
            inst = tight_instance(k)
            totals = simulate_random_assign(inst, 100_000, seed=700 + k)
            sigma = float(totals.std(ddof=1) / math.sqrt(totals.size))
            expect = k * welfare_ratio(k)
            assert abs(float(totals.mean()) - expect) <= 4 * sigma, (k, totals.mean(), expect)
        for i in range(50):
            n = 4 + (i % 3)
            k = 2 + (i % 2)
            f = random_symmetric_instance(n, 750 + i)
            inst = WelfareInstance(k, f)
            _, opt = brute_force_welfare(inst)
            totals = simulate_random_assign(inst, 20_000, seed=i)
            sigma = float(totals.std(ddof=1) / math.sqrt(totals.size))
            assert float(totals.mean()) >= welfare_ratio(k) * opt - 4 * sigma, (i, k, n)


# ---------------------------------------------------------------------------
# 8: lemma suite
# ---------------------------------------------------------------------------


def test_criterion_8_lemma_suite():
    with criterion(8, "lemma suite: union bound, extension identities, linearization, dual-state, concavity, caps, sampling bounds"):
        # union bound with the vertex-checked precondition (Lemma 1 shape)
        edge = single_edge_cut()
        assert check_union_bound_symmetric(edge, np.array([0.5, 0.0]), [0]).passed
        tri = triangle_cut()
        opt_mask, _ = brute_unconstrained(tri)
        y_mid, _ = run_mcg(MultilinearEvaluator(tri), CardinalityPolytope(3, 1), AscentConfig(T=0.6, steps=500))
        rep = check_union_bound_symmetric(tri, y_mid, opt_mask)
        assert rep.passed and rep.status == "ok", rep.details
        for seed in range(4):
            f = random_graph_cut(7, seed=810 + seed)
            P = CardinalityPolytope(7, 3)
            y, _ = run_mcg(MultilinearEvaluator(f), P, AscentConfig(T=1.0, steps=600))
            om, _ = brute_polytope_integral(f, P)
            rep = check_union_bound_symmetric(f, y, om)
            assert rep.passed and rep.status == "ok", rep.details

        # complement/shift identities (Lemma 2 a-c)
        for f in (tri, random_graph_cut(8, seed=801), random_coverage(7, seed=802)):
            rep = check_lemma_general_properties(f, trials=40, seed=8)
            assert rep.passed, rep.details

        # first-order linearization bound (Lemma 3 shape)
        for f in (random_graph_cut(8, seed=803), random_coverage(8, seed=804)):
            rep = check_linearization_bound(f, trials=60, delta=1e-3, c=1.0, seed=9)
            assert rep.passed, rep.details

        # dual-state invariants, segment concavity, coordinate caps
        for seed in range(3):
            f = random_graph_cut(8, seed=820 + seed)
            ev = RecordingEvaluator(f)
            _, traj = run_dmcg(ev, 2 + seed, AscentConfig(steps=1200), "symmetric")
            rep = check_y_properties(traj, ev.steps, 2 + seed)
            assert rep.passed, rep.details
            assert check_concave_segment(f, *traj.ys).passed
        for seed in range(3):
            f = random_offset_cut(7, seed=830 + seed)
            ev = RecordingEvaluator(f)
            _, traj = run_dmcg(ev, 3, AscentConfig(steps=1200), "general")
            assert check_max_y(traj, ev.steps).passed

        # statistical sampling bounds at 1e5 trials / 4 sigma
        f = random_graph_cut(10, seed=840)
        rep = check_disjoint_unions(f, [0b11, 0b1100, 0b110000, 0b11000000], trials=100_000, seed=84)
        assert rep.passed, rep.details
        for p in (0.25, 0.5):
            rep = check_repeated_subsample_union(
                f, [0b1111, 0b111100, 0b1111000000], p, trials=100_000, seed=85
            )
            assert rep.passed, rep.details


# ---------------------------------------------------------------------------
# 9: hardness fixture sanity
# ---------------------------------------------------------------------------


def test_criterion_9_hardness_fixture():
    with criterion(9, "symmetry-gap fixture: eq-2 optimum is 1, symmetry-fixed extension capped at 1/2"):
        f = hardness_instance(1, 2)
        _, opt = brute_cardinality(f, 2)
        assert opt == 1.0
        ev = MultilinearEvaluator(f)
        rng = substream(909, 0)
        for z in np.linspace(0.0, 1.0, 101):
            x = rng.random(4)
            x[0] = x[3] = z
            value = ev.value(x)
            assert value <= 0.5 + EXACT_TOL
            assert abs(value - 2 * z * (1 - z)) <= EXACT_TOL


# ---------------------------------------------------------------------------
# 10: determinism
# ---------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "seeded pipelines re-run to byte-identical reports (metadata excluded)"):
        inst = {
            "type": "graph_cut",
            "n": 6,
            "edges": [[u, v, 0.3 + 0.1 * (u + v)] for u in range(6) for v in range(u + 1, 6) if (u + v) % 2],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst))
        for algo, extra in (
            ("mcg", ["--k", "2", "--steps", "500"]),
            ("dmcg-symmetric", ["--k", "2", "--steps", "500"]),
            ("two-sided", []),
            ("mcg", ["--k", "2", "--steps", "200", "--samples", "400"]),  # sampled estimator
        ):
            out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
            args = ["--instance", str(path), "--algorithm", algo, "--seed", "17", *extra]
            assert cli_main(args + ["--out", str(out_a)]) == 0
            assert cli_main(args + ["--out", str(out_b)]) == 0
            rep_a = json.loads(out_a.read_text())
            rep_b = json.loads(out_b.read_text())
            assert json.dumps(rep_a["report"], sort_keys=True) == json.dumps(rep_b["report"], sort_keys=True)
            assert rep_a["metadata"]["determinism_hash"] == rep_b["metadata"]["determinism_hash"]

        # direct API double-run with the sampled estimator
        f = random_graph_cut(6, seed=1001)
        est = Estimator(samples=300, seed=99)
        cfg = AscentConfig(steps=80)
        eva, evb = RecordingEvaluator(f, est), RecordingEvaluator(f, est)
        ya, _ = run_dmcg(eva, 2, cfg, "symmetric")
        yb, _ = run_dmcg(evb, 2, cfg, "symmetric")
        assert np.array_equal(ya, yb)
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(eva.steps, evb.steps, strict=True))
