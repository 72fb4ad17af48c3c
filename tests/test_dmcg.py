import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_direction_value
from submax.dmcg import (
    DmcgConfig,
    check_concave_segment,
    check_max_y,
    check_y_properties,
    dual_trajectory_csv,
    reduction2,
    run_dmcg,
    solve_direction,
)
from submax.fixtures import (
    random_coverage,
    random_graph_cut,
    random_offset_cut,
    single_edge_cut,
)
from submax.multilinear import MultilinearEvaluator
from submax.oracle import brute_cardinality
from submax.rng import substream
from submax.setfn import hardness_instance


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def test_reduction2_cases():
    f = random_graph_cut(6, seed=0)
    assert reduction2(2, 6, f) == (2, f)
    k2, f2 = reduction2(5, 6, f)
    assert k2 == 1 and f2 is f  # symmetric objectives keep their oracle
    cov = random_coverage(4, seed=1)
    k3, f3 = reduction2(3, 4, cov)
    assert k3 == 1 and f3 is not cov
    assert f3.eval([0]) == cov.eval([1, 2, 3])


def test_reduction2_validates_k():
    f = random_graph_cut(4, seed=0)
    with pytest.raises(ValueError):
        reduction2(0, 4, f)
    with pytest.raises(ValueError):
        reduction2(5, 4, f)


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


# ---------------------------------------------------------------------------
# the coupled runs
# ---------------------------------------------------------------------------


def test_symmetric_single_edge_guarantee():
    f = single_edge_cut()
    y, traj = run_dmcg(f, 1, DmcgConfig(variant="symmetric", steps=2000))
    assert abs(y.mass() - 1.0) <= 1e-9
    value = MultilinearEvaluator(f).value(y)
    assert value >= 0.5 * (1 - 0.5**4) - 0.01  # OPT = 1, k/n = 1/2 curve


def test_general_hardness_guarantee():
    f = hardness_instance(1, 2)
    y, traj = run_dmcg(f, 2, DmcgConfig(variant="general", steps=2000))
    assert abs(y.mass() - 2.0) <= 1e-9
    value = MultilinearEvaluator(f).value(y)
    assert value >= math.exp(-1) - 0.01  # OPT = 1


def test_general_full_cardinality_returns_everything():
    f = random_coverage(4, seed=3)
    y, _ = run_dmcg(f, 4, DmcgConfig(variant="general", steps=500))
    assert np.allclose(y.coords, 1.0)
    assert MultilinearEvaluator(f).value(y) == pytest.approx(f.eval([0, 1, 2, 3]))


def test_symmetric_variant_requires_reduced_k():
    f = random_graph_cut(4, seed=4)
    with pytest.raises(ValueError):
        run_dmcg(f, 3, DmcgConfig(variant="symmetric", steps=10))


def test_symmetric_variant_requires_symmetric_objective():
    f = random_coverage(4, seed=4)
    with pytest.raises(ValueError):
        run_dmcg(f, 2, DmcgConfig(variant="symmetric", steps=10))


@pytest.mark.parametrize("variant", ["symmetric", "general"])
@pytest.mark.parametrize("steps, T", [(0, None), (-3, None), (10, 0.0), (10, -1.0)])
def test_run_rejects_empty_schedule(variant, steps, T):
    f = random_graph_cut(4, seed=4)
    with pytest.raises(ValueError):
        run_dmcg(f, 2, DmcgConfig(variant=variant, steps=steps, T=T))


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
    y, traj = run_dmcg(random_graph_cut(n, seed, edge_prob=0.3), k, DmcgConfig(variant=variant, steps=steps))
    assert check_y_properties(traj).passed, check_y_properties(traj).details
    assert y.mass() == pytest.approx(k, abs=1e-9)


@pytest.mark.parametrize("n, k, steps", [(40, 10, 4), (300, 75, 50)])
def test_symmetric_variant_brackets_k_where_the_continuous_horizon_overshot(n, k, steps):
    y, traj = run_dmcg(random_graph_cut(n, seed=0), k, DmcgConfig(steps=steps))
    assert check_y_properties(traj).passed and y.mass() == pytest.approx(k, abs=1e-9)


def test_y_properties_hold_per_step():
    for seed in range(4):
        f = random_graph_cut(7, seed=seed)
        k = 1 + seed % 3
        _, traj = run_dmcg(f, k, DmcgConfig(variant="symmetric", steps=800))
        assert check_y_properties(traj).passed, check_y_properties(traj).details


def test_max_y_cap_general_variant():
    f = random_offset_cut(6, seed=5)
    _, traj = run_dmcg(f, 3, DmcgConfig(variant="general", steps=600))
    rep = check_max_y(traj)
    assert rep.passed, rep.details


def test_step_bound_symmetric_variant():
    # per-step progress of each side against f(OPT) - 2 F(side), allowing the
    # n^3 delta^2 second-order budget (c = 1)
    f = random_graph_cut(6, seed=6)
    k = 2
    cfg = DmcgConfig(variant="symmetric", steps=400)
    _, traj = run_dmcg(f, k, cfg)
    _, opt = brute_cardinality(f, 6, k, "eq")
    budget = 6**3 * traj.delta**2 * opt + 1e-9
    prev1 = prev2 = None
    for step in traj.steps:
        if prev1 is not None:
            assert step.value1_end - prev1 >= traj.delta * (opt - 2 * prev1) - budget
            assert step.value2_end - prev2 >= traj.delta * (opt - 2 * prev2) - budget
        prev1, prev2 = step.value1_end, step.value2_end


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
        _, traj = run_dmcg(f, 2, DmcgConfig(variant="symmetric", steps=500))
        last = traj.steps[-1]
        rep = check_concave_segment(f, last.y1_end, last.y2_end)
        assert rep.passed, rep.details


def test_determinism():
    f = random_graph_cut(6, seed=8)
    cfg = DmcgConfig(variant="symmetric", steps=120)
    ya, ta = run_dmcg(f, 2, cfg)
    yb, tb = run_dmcg(f, 2, cfg)
    assert np.array_equal(ya.coords, yb.coords)
    for a, b in zip(ta.steps, tb.steps):
        assert a.lam == b.lam and a.direction_objective == b.direction_objective


def test_dual_trajectory_csv():
    f = single_edge_cut()
    _, traj = run_dmcg(f, 1, DmcgConfig(variant="symmetric", steps=4))
    lines = dual_trajectory_csv(traj).strip().split("\n")
    assert lines[0] == "t,mass1,mass2,F1,F2,lambda,direction_objective"
    assert len(lines) == 5
