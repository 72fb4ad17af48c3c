import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bisect_direction,
    brute_direction_value,
    distinct_lookups,
    random_coverage,
    random_offset_cut,
    record_lookups,
    single_edge_cut,
)
from lemmas import check_concave_segment
from submax.dmcg import (
    check_max_y,
    check_y_properties,
    run_dmcg,
    solve_direction,
)
from submax.fixtures import random_graph_cut
from submax.mcg import AscentConfig, trajectory_csv
from submax.multilinear import Estimator, MultilinearEvaluator
from submax.oracle import brute_cardinality
from submax.rng import substream
from submax.setfn import hardness_instance


# ---------------------------------------------------------------------------
# direction solver
# ---------------------------------------------------------------------------


def test_solve_direction_constant_objectives():
    w = np.zeros(3)
    i1, i2, info = solve_direction(w, w, 1.5, 0.5, 2, coeff=2.0)
    assert info.objective == pytest.approx(min(3.0, 1.0))
    assert i1.sum() == pytest.approx(2.0)
    assert np.allclose(i1 + i2, 1.0)


def test_solve_direction_two_element_example():
    i1, _, info = solve_direction(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.0, 0.0, 1)
    assert np.allclose(i1, [1.0, 0.0])
    assert info.objective == pytest.approx(1.0)


def test_solve_direction_three_element_example():
    i1, _, info = solve_direction(np.array([2.0, 0.0, 0.0]), np.array([0.0, 1.0, 1.0]), 0.0, 0.0, 1)
    assert np.allclose(i1, [1.0, 0.0, 0.0])
    assert info.objective == pytest.approx(2.0)


def test_solve_direction_rejects_k_above_n():
    with pytest.raises(ValueError):
        solve_direction(np.zeros(2), np.zeros(2), 0.0, 0.0, 3)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_solve_direction_matches_enumeration(seed):
    rng = substream(seed, 3)
    n = int(rng.integers(1, 7))
    k = int(rng.integers(0, n + 1))
    w1 = rng.uniform(-2, 2, size=n)
    w2 = rng.uniform(-2, 2, size=n)
    c1, c2 = rng.uniform(0, 2, size=2)
    coeff = 2.0 if seed % 2 == 0 else 1.0
    i1, i2, info = solve_direction(w1, w2, c1, c2, k, coeff)
    assert abs(i1.sum() - k) <= 1e-9
    assert np.allclose(i1 + i2, 1.0)
    assert i1.min() >= -1e-12 and i1.max() <= 1 + 1e-12
    expected = brute_direction_value(w1, w2, c1, c2, k, coeff)
    assert info.objective == pytest.approx(expected, abs=1e-9)
    # the returned point attains its reported objective
    a = coeff * c1 + float(w1 @ i1)
    b = coeff * c2 + float(w2 @ i2)
    assert min(a, b) == pytest.approx(info.objective, abs=1e-9)


# weights drawn as floats or as small integers, so that breakpoints of the
# dual envelope coincide and vertices tie
_WEIGHTS = st.one_of(st.floats(-2.0, 2.0, allow_nan=False), st.integers(-3, 3).map(float))


@st.composite
def _direction_problems(draw):
    """(w1, w2, c1, c2, k, coeff) with ties: coordinates repeat a few
    (w1_u, w2_u) pairs, and w1 == w2 in about half the cases."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    pool = draw(st.lists(st.tuples(_WEIGHTS, _WEIGHTS), min_size=1, max_size=n))
    pairs = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    w1 = np.array([p[0] for p in pairs])
    w2 = w1.copy() if draw(st.booleans()) else np.array([p[1] for p in pairs])
    return w1, w2, draw(_WEIGHTS), draw(_WEIGHTS), k, draw(st.sampled_from([1.0, 2.0]))


@settings(max_examples=400, deadline=None)
@given(problem=_direction_problems())
def test_solve_direction_matches_bisection_and_enumeration(problem):
    w1, w2, c1, c2, k, coeff = problem
    i1, i2, info = solve_direction(w1, w2, c1, c2, k, coeff)
    assert abs(info.objective - bisect_direction(w1, w2, c1, c2, k, coeff)[1]) <= 1e-12
    assert abs(info.objective - brute_direction_value(w1, w2, c1, c2, k, coeff)) <= 1e-12
    assert abs(i1.sum() - k) <= 1e-12
    assert i1.min() >= -1e-12 and i1.max() <= 1.0 + 1e-12
    assert np.array_equal(i2, 1.0 - i1)


def test_solve_direction_mixes_the_vertices_left_and_right_of_an_all_way_tie():
    # w1 = w2 and c1 = c2: every dual line passes through lam = 1/2, where a
    # stable argsort alone picks the first k indices; the tie rule mixes the
    # bottom-2 vertex {1, 2} of w (d = -7.5) with the top-2 vertex {0, 4}
    # (d = 3.5), so that A = B = sum(w) / 2
    w = np.array([3.0, 1.0, 0.5, 2.0, 4.0])
    i1, _, info = solve_direction(w, w, 0.0, 0.0, 2)
    theta = 7.5 / 11.0
    assert info.lam == 0.5
    assert np.allclose(i1, [theta, 1 - theta, 1 - theta, 0.0, theta], rtol=0.0, atol=1e-15)
    assert info.objective == pytest.approx(w.sum() / 2, abs=1e-12)


# ---------------------------------------------------------------------------
# the coupled runs
# ---------------------------------------------------------------------------


def test_symmetric_single_edge_guarantee():
    f = single_edge_cut()
    y, traj = run_dmcg(MultilinearEvaluator(f), 1, AscentConfig(steps=2000), "symmetric")
    assert abs(y.sum() - 1.0) <= 1e-9
    value = MultilinearEvaluator(f).value(y)
    assert value >= 0.5 * (1 - 0.5**4) - 0.01  # OPT = 1, k/n = 1/2 curve


def test_general_hardness_guarantee():
    f = hardness_instance(1, 2)
    y, traj = run_dmcg(MultilinearEvaluator(f), 2, AscentConfig(steps=2000), "general")
    assert abs(y.sum() - 2.0) <= 1e-9
    value = MultilinearEvaluator(f).value(y)
    assert value >= math.exp(-1) - 0.01  # OPT = 1


def test_general_full_cardinality_returns_everything():
    f = random_coverage(4, seed=3)
    y, _ = run_dmcg(MultilinearEvaluator(f), 4, AscentConfig(steps=500), "general")
    assert np.allclose(y, 1.0)
    assert MultilinearEvaluator(f).value(y) == pytest.approx(f.eval([0, 1, 2, 3]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), sampled=st.booleans())
def test_symmetric_variant_complements_the_run_for_n_minus_k(seed, sampled):
    # Reduction 2: a symmetric f has the same optimum at k and n - k, so for
    # 2k > n the pair runs for n - k and the point is complemented
    rng = substream(seed, 0x2ED)
    n = int(rng.integers(3, 13))
    k = int(rng.integers(n // 2 + 1, n))
    cfg, est = AscentConfig(steps=int(rng.integers(1, 60))), Estimator(32 if sampled else None, seed)
    f = random_graph_cut(n, seed, edge_prob=0.4)
    y, traj = run_dmcg(MultilinearEvaluator(f, est), k, cfg)
    y_low, traj_low = run_dmcg(MultilinearEvaluator(f, est), n - k, cfg)
    assert (1.0 - y_low).tobytes() == y.tobytes()
    assert (traj.T, len(traj.steps)) == (traj_low.T, len(traj_low.steps))
    assert all(a.ys[0].tobytes() == b.ys[0].tobytes() for a, b in zip(traj.steps, traj_low.steps))
    assert y.sum() == pytest.approx(k, abs=1e-9)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_symmetric_variant_at_k_equal_n_takes_everything_in_no_step(n):
    f = random_graph_cut(n, seed=n)
    y, traj = run_dmcg(MultilinearEvaluator(f), n, AscentConfig(steps=40))
    assert y.tolist() == [1.0] * n
    assert traj.steps == [] and traj.T == 0.0 and traj.theoretical_regime
    assert check_y_properties(traj, 0).passed
    with pytest.raises(ValueError):  # the schedule is checked all the same
        run_dmcg(MultilinearEvaluator(f), n, AscentConfig(T=3.0, steps=2))


@pytest.mark.parametrize("variant", ["symmetric", "general"])
@pytest.mark.parametrize("k", [0, 5, -1])
def test_run_rejects_k_outside_1_to_n(variant, k):
    with pytest.raises(ValueError, match="1 <= k <= n"):
        run_dmcg(MultilinearEvaluator(random_graph_cut(4, seed=0)), k, AscentConfig(steps=10), variant)


def test_symmetric_variant_requires_symmetric_objective():
    f = random_coverage(4, seed=4)
    with pytest.raises(ValueError):
        run_dmcg(MultilinearEvaluator(f), 2, AscentConfig(steps=10), "symmetric")


def test_run_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        run_dmcg(MultilinearEvaluator(random_graph_cut(4, seed=4)), 2, AscentConfig(steps=10), "asymmetric")


@pytest.mark.parametrize("variant", ["symmetric", "general"])
@pytest.mark.parametrize("steps, T", [(0, None), (-3, None), (10, 0.0), (10, -1.0)])
def test_run_rejects_empty_schedule(variant, steps, T):
    f = random_graph_cut(4, seed=4)
    with pytest.raises(ValueError):
        run_dmcg(MultilinearEvaluator(f), 2, AscentConfig(T=T, steps=steps), variant)


@pytest.mark.parametrize("variant", ["symmetric", "general"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_coarse_steps_bracket_k(variant, seed):
    # the default T is the discrete horizon of the step count, so even a
    # handful of steps ends with |y1| <= k <= |y2| and a point of mass k
    rng = substream(seed, 0xB4C)
    n = int(rng.integers(4, 41))
    k = int(rng.integers(1, n // 2 + 1))
    steps = int(rng.integers(1, 31))
    y, traj = run_dmcg(MultilinearEvaluator(random_graph_cut(n, seed, edge_prob=0.3)), k, AscentConfig(steps=steps), variant)
    assert check_y_properties(traj, k).passed, check_y_properties(traj, k).details
    assert y.sum() == pytest.approx(k, abs=1e-9)


@pytest.mark.parametrize("n, k, steps", [(40, 10, 4), (300, 75, 50)])
def test_symmetric_variant_brackets_k_where_the_continuous_horizon_overshot(n, k, steps):
    y, traj = run_dmcg(MultilinearEvaluator(random_graph_cut(n, seed=0)), k, AscentConfig(steps=steps))
    assert check_y_properties(traj, k).passed and y.sum() == pytest.approx(k, abs=1e-9)


def test_y_properties_hold_per_step():
    for seed in range(4):
        f = random_graph_cut(7, seed=seed)
        k = 1 + seed % 3
        _, traj = run_dmcg(MultilinearEvaluator(f), k, AscentConfig(steps=800), "symmetric")
        assert check_y_properties(traj, k).passed, check_y_properties(traj, k).details


def test_y_properties_flag_swapped_sides():
    f = random_graph_cut(6, seed=3)
    _, traj = run_dmcg(MultilinearEvaluator(f), 2, AscentConfig(steps=50), "symmetric")
    assert check_y_properties(traj, 2).passed
    step = traj.steps[4]
    traj.steps[4] = replace(step, ys=step.ys[::-1])
    rep = check_y_properties(traj, 2)
    assert rep.passed is False
    assert rep.details["ordering_violated_t"] == step.t_end


def test_max_y_flags_a_coordinate_past_the_growth_cap():
    f = random_offset_cut(6, seed=5)
    _, traj = run_dmcg(MultilinearEvaluator(f), 3, AscentConfig(steps=50), "general")
    assert check_max_y(traj).passed
    traj.steps[0].ys[0][1] = 0.5  # the cap after one step is delta = 1/50
    rep = check_max_y(traj)
    assert rep.passed is False
    assert rep.details["worst_excess"] > 0


def test_max_y_cap_general_variant():
    f = random_offset_cut(6, seed=5)
    _, traj = run_dmcg(MultilinearEvaluator(f), 3, AscentConfig(steps=600), "general")
    rep = check_max_y(traj)
    assert rep.passed, rep.details


def test_step_bound_symmetric_variant():
    # per-step progress of each side against f(OPT) - 2 F(side), allowing the
    # n^3 delta^2 second-order budget (c = 1)
    f = random_graph_cut(6, seed=6)
    k = 2
    cfg = AscentConfig(steps=400)
    _, traj = run_dmcg(MultilinearEvaluator(f), k, cfg, "symmetric")
    _, opt = brute_cardinality(f, k)
    budget = 6**3 * traj.delta**2 * opt + 1e-9
    prev1 = prev2 = None
    for step in traj.steps:
        if prev1 is not None:
            assert step.values[0] - prev1 >= traj.delta * (opt - 2 * prev1) - budget
            assert step.values[1] - prev2 >= traj.delta * (opt - 2 * prev2) - budget
        prev1, prev2 = step.values[0], step.values[1]


def test_concave_segment_checks():
    f = single_edge_cut()
    # r(x) = F(x, x) = 2x(1-x) from the origin to the full vector
    rep = check_concave_segment(f, np.zeros(2), np.ones(2))
    assert rep.passed
    # constant segment
    rep = check_concave_segment(f, np.full(2, 0.3), np.full(2, 0.3))
    assert rep.passed
    with pytest.raises(ValueError):
        check_concave_segment(f, np.ones(2), np.zeros(2))


def test_concave_segment_on_terminal_states():
    for seed in range(3):
        f = random_graph_cut(6, seed=20 + seed)
        _, traj = run_dmcg(MultilinearEvaluator(f), 2, AscentConfig(steps=500), "symmetric")
        last = traj.steps[-1]
        rep = check_concave_segment(f, last.ys[0], last.ys[1])
        assert rep.passed, rep.details


def test_determinism():
    f = random_graph_cut(6, seed=8)
    cfg = AscentConfig(steps=120)
    ya, ta = run_dmcg(MultilinearEvaluator(f), 2, cfg, "symmetric")
    yb, tb = run_dmcg(MultilinearEvaluator(f), 2, cfg, "symmetric")
    assert np.array_equal(ya, yb)
    for a, b in zip(ta.steps, tb.steps):
        assert a.note.lam == b.note.lam and a.note.objective == b.note.objective


def test_sampled_general_variant_spends_one_gradient_per_side_and_step(monkeypatch):
    # each side draws one gradient at the start and after every update but
    # the last, which the next step reads; after the last update only F,
    # since no cleanup reads a gradient.  A gradient looks up its draws and
    # their one-element flips, (n + 1) x samples sets, in the memo and F its
    # draws; the oracle is asked once for each set looked up, so the start,
    # where every draw is the empty set, costs n + 1 calls per side
    n, steps, samples = 6, 5, 32
    f = random_graph_cut(n, seed=1)
    lookups = record_lookups(monkeypatch)
    est = Estimator(samples=samples, seed=3)
    run_dmcg(MultilinearEvaluator(f, est), 2, AscentConfig(steps=steps), "general")
    (asked,) = lookups.values()
    grads = [masks for masks in asked if masks.ndim == 2]
    values = [masks for masks in asked if masks.ndim == 1]
    assert len(grads) == 2 * steps and len(values) == 2 and len(asked) == 2 * steps + 2
    assert all(masks.shape == (n + 1, samples) for masks in grads)
    assert all(masks.shape == (samples,) for masks in values)
    assert all(np.unique(masks[0]).size == 1 for masks in grads[:2])
    assert f.query_count == distinct_lookups(lookups) == 58


def test_dual_trajectory_csv():
    f = single_edge_cut()
    _, traj = run_dmcg(MultilinearEvaluator(f), 1, AscentConfig(steps=4), "symmetric")
    lines = trajectory_csv(traj).strip().split("\n")
    assert lines[0] == "t,mass0,mass1,F0,F1,zeroed,lam,objective"
    assert len(lines) == 6  # header + t=0 row + 4 steps
