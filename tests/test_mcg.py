import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    POLYTOPE_KINDS,
    RecordingEvaluator,
    distinct_lookups,
    indicator,
    random_coverage,
    random_polytope,
    record_lookups,
    single_edge_cut,
    triangle_cut,
)
from lemmas import box_vertex_max, check_feasibility_invariants
from submax.fixtures import random_graph_cut
from submax.mcg import AscentConfig, run_mcg
from submax.multilinear import Estimator, MultilinearEvaluator
from submax.oracle import brute_polytope_integral
from submax.polytope import CardinalityPolytope, KnapsackPolytope, PartitionPolytope, horizon, preprocess_reduction1
from submax.rng import substream
from submax.setfn import restrict_function


def test_zero_budget_returns_origin():
    f = single_edge_cut()
    y, traj = run_mcg(MultilinearEvaluator(f), CardinalityPolytope(2, 0), AscentConfig(T=1.0, steps=50))
    assert np.allclose(y, 0.0)
    assert traj.steps[-1].values[0] == f.eval(0)


def test_single_edge_guarantee():
    f = single_edge_cut()
    P = CardinalityPolytope(2, 1)
    y, traj = run_mcg(MultilinearEvaluator(f), P, AscentConfig(T=1.0, steps=2000))
    value = MultilinearEvaluator(f).value(y)
    assert value >= 0.432 * 1.0  # OPT = 1 by brute force
    assert P.membership(y)


def test_triangle_at_horizon():
    f = triangle_cut()
    P = CardinalityPolytope(3, 1)
    y, traj = run_mcg(MultilinearEvaluator(f), P, AscentConfig(T=horizon(P), steps=5000))
    value = MultilinearEvaluator(f).value(y)
    _, opt = brute_polytope_integral(f, P)
    assert opt == 2.0
    assert value >= 0.432 * opt
    assert P.membership(y)


def test_feasibility_invariants_across_polytopes():
    f = random_graph_cut(6, seed=2)
    for P in (
        CardinalityPolytope(6, 2),
        PartitionPolytope([[0, 1, 2], [3, 4, 5]], [1, 2]),
    ):
        ev = RecordingEvaluator(f)
        _, traj = run_mcg(ev, P, AscentConfig(T=min(1.0, horizon(P)), steps=400))
        assert check_feasibility_invariants(traj, ev.steps, P).passed


def test_feasibility_check_flags_a_point_outside_the_polytope():
    P = CardinalityPolytope(3, 1)
    ev = RecordingEvaluator(triangle_cut())
    _, traj = run_mcg(ev, P, AscentConfig(T=1.0, steps=20))
    ys = ev.steps
    assert check_feasibility_invariants(traj, ys, P).passed
    ys[2][0][:] = 1.0  # mass 3 under |S| <= 1, well inside the horizon
    rep = check_feasibility_invariants(traj, ys, P)
    assert rep.passed is False
    assert rep.details["membership_t"] == traj.steps[2].t_end


@pytest.mark.parametrize("kind", POLYTOPE_KINDS)
@pytest.mark.filterwarnings("ignore:objective not flagged symmetric")  # a restricted cut may be asymmetric
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
@example(seed=352)  # knapsack: two items lighter than 0.5 in all
@example(seed=386)
def test_default_horizon_keeps_coarse_runs_inside_the_polytope(kind, seed):
    # at the continuous horizon, 1 to 16 steps overshot P (a coordinate could
    # even pass 1); the discrete horizon keeps every step count inside
    rng = substream(seed, 0xFEA5)
    n = int(rng.integers(2, 11))
    red = preprocess_reduction1(random_polytope(n, rng, kind))
    if not red.kept:
        return
    f = restrict_function(random_graph_cut(n, seed), list(red.kept))
    ev = RecordingEvaluator(f)
    y, traj = run_mcg(ev, red.polytope, AscentConfig(steps=int(rng.integers(1, 17))))
    assert red.polytope.membership(y)
    assert check_feasibility_invariants(traj, ev.steps, red.polytope).passed


def test_scaled_membership_holds_beyond_horizon():
    # with T > T_P only y/T in P is promised; check it at every step
    f = random_graph_cut(5, seed=3)
    P = CardinalityPolytope(5, 2)
    T = horizon(P) * 1.5
    ev = RecordingEvaluator(f)
    _, traj = run_mcg(ev, P, AscentConfig(T=T, steps=500))
    for step, (y,) in zip(traj.steps, ev.steps, strict=True):
        assert P.membership(y / step.t_end)


def test_single_step_trajectory():
    f = single_edge_cut()
    P = CardinalityPolytope(2, 1)
    ev = RecordingEvaluator(f)
    y, traj = run_mcg(ev, P, AscentConfig(T=1.0, steps=1))
    assert len(traj.steps) == 1
    step = traj.steps[0]
    # one step of width delta = T: y = delta * I(0) unless cleanup zeroed it
    if step.zeroed == 0:
        assert P.membership(ev.steps[0][0] / step.t_end)


def test_step_improvement_bound():
    # per-step progress of the recorded run must respect the first-order bound
    # against F(y v 1_OPT), up to the n^3 delta^2 second-order term (c = 1)
    f = random_graph_cut(7, seed=5)
    P = CardinalityPolytope(7, 3)
    cfg = AscentConfig(T=1.0, steps=300)
    rec = RecordingEvaluator(f)
    _, traj = run_mcg(rec, P, cfg)
    opt_mask, opt_val = brute_polytope_integral(f, P)
    ev = MultilinearEvaluator(f)
    opt_vec = indicator(opt_mask, 7)
    budget = 7**3 * traj.delta**2 * opt_val
    (prev_y,) = rec.start
    prev_val = ev.value(prev_y)
    for step, (y,) in zip(traj.steps, rec.steps, strict=True):
        target = ev.value(np.maximum(prev_y, opt_vec)) - prev_val
        gain = step.values[0] - prev_val
        assert gain >= traj.delta * target - budget - 1e-9
        prev_y, prev_val = y, step.values[0]


def test_downward_box_property_along_trajectory():
    # cleanup keeps y dominant over its whole down-box at every recorded step
    f = random_graph_cut(6, seed=7)
    P = CardinalityPolytope(6, 3)
    ev = RecordingEvaluator(f)
    _, traj = run_mcg(ev, P, AscentConfig(T=1.0, steps=300))
    for step, (y,) in list(zip(traj.steps, ev.steps, strict=True))[::10]:
        assert box_vertex_max(f, y) <= step.values[0] + 1e-9


def test_coordinates_stay_in_cube():
    f = random_graph_cut(6, seed=11)
    P = CardinalityPolytope(6, 3)
    ev = RecordingEvaluator(f)
    _, traj = run_mcg(ev, P, AscentConfig(T=2.0, steps=400))
    assert len(ev.steps) == len(traj.steps)
    for (y,) in ev.steps:
        assert y.min() >= 0.0 and y.max() <= 1.0


def test_determinism_exact_and_sampled():
    f = random_graph_cut(5, seed=13)
    P = CardinalityPolytope(5, 2)
    for est in (Estimator(), Estimator(samples=300, seed=42)):
        cfg = AscentConfig(T=1.0, steps=60)
        ev1, ev2 = RecordingEvaluator(f, est), RecordingEvaluator(f, est)
        y1, t1 = run_mcg(ev1, P, cfg)
        y2, t2 = run_mcg(ev2, P, cfg)
        assert np.array_equal(y1, y2)
        for a, b in zip(ev1.steps, ev2.steps, strict=True):
            assert np.array_equal(a[0], b[0])
        for a, b in zip(t1.steps, t2.steps):
            assert a.values[0] == b.values[0]


def test_sampled_cleanup_run_spends_one_gradient_per_step_and_reset(monkeypatch):
    # one gradient at the start, one after each update and one after each of
    # the cleanup's resets; each step's direction reads the last of them
    # instead of drawing its own.  A gradient looks up its draws and their
    # one-element flips, (n + 1) x samples sets, in the memo, and the oracle
    # is asked once for each set looked up
    n, steps, samples = 8, 40, 64
    f = random_graph_cut(n, seed=5)
    lookups = record_lookups(monkeypatch)
    ev = MultilinearEvaluator(f, Estimator(samples=samples, seed=5))
    _, traj = run_mcg(ev, CardinalityPolytope(n, 4), AscentConfig(T=2.0, steps=steps))
    resets = sum(s.zeroed for s in traj.steps)
    assert resets == 4
    (grads,) = lookups.values()
    assert len(grads) == 1 + steps + resets
    assert all(masks.shape == (n + 1, samples) for masks in grads)
    assert f.query_count == distinct_lookups(lookups) == 172


def test_nonsymmetric_objective_warns():
    f = random_coverage(4, seed=1)
    with pytest.warns(UserWarning):
        run_mcg(MultilinearEvaluator(f), CardinalityPolytope(4, 2), AscentConfig(T=1.0, steps=20))


def test_theoretical_regime_flag():
    f = single_edge_cut()
    P = CardinalityPolytope(2, 1)
    _, coarse = run_mcg(MultilinearEvaluator(f), P, AscentConfig(T=1.0, steps=8))
    assert not coarse.theoretical_regime  # delta = 1/8 > n^-5 = 1/32
    _, fine = run_mcg(MultilinearEvaluator(f), P, AscentConfig(T=1.0, steps=64))
    assert fine.theoretical_regime  # delta = 1/64 <= 1/32


def test_reduction_pipeline_with_knapsack():
    # an oversized item is dropped before the run; the surviving problem is
    # the plain single edge
    f = single_edge_cut(n=3)  # edge (0,1); element 2 ['irrelevant'] too heavy
    from submax.polytope import preprocess_reduction1

    P = KnapsackPolytope([1.0, 1.0, 9.0], 2.0)
    red = preprocess_reduction1(P)
    assert red.kept == (0, 1)
    g = restrict_function(f, list(red.kept))
    y, traj = run_mcg(MultilinearEvaluator(g), red.polytope, AscentConfig(T=1.0, steps=400))
    assert MultilinearEvaluator(g).value(y) >= 0.432


def test_trajectory_timestamps_strictly_increase_to_T():
    f = random_graph_cut(5, seed=17)
    T = 1.3
    _, traj = run_mcg(MultilinearEvaluator(f), CardinalityPolytope(5, 2), AscentConfig(T=T, steps=130))
    times = [0.0] + [s.t_end for s in traj.steps]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert times[-1] == pytest.approx(T, abs=1e-12)

