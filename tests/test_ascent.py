"""Seeded outputs of the measured ascent.  The exact cases are pinned to the
values that the two separate step loops of run_mcg and run_dmcg produced
before they became drivers of one kernel (mcg.ascend); the symmetric one is
pinned to the exact direction solver instead: its first step, where w1 = w2
and every vertex ties, mixes the bottom-2 and the top-2 vertices (see the
tie rule of dmcg.solve_direction).  The sampled cases are pinned to the
kernel that reads the gradient drawn after each step's update and cleanup
in the next step, on the ascent's own streams.  Every case runs 40 steps;
the cleanup fires in the mcg and symmetric cases: in the sampled mcg case
it resets four coordinates, and in the sampled symmetric case one
coordinate of y1 and three of y2.  Each case fixes its T, so the pins hold
the step loop, not the default horizon."""

import math

import numpy as np
import pytest

from submax.dmcg import run_dmcg
from conftest import RecordingEvaluator, random_coverage
from submax.fixtures import random_graph_cut
from submax.mcg import run_mcg, schedule
from submax.multilinear import MultilinearEvaluator
from submax.polytope import CardinalityPolytope, horizon

SAMPLED = dict(samples=64, seed=5)
ESTIMATORS = {"exact": {}, "sampled": SAMPLED}

# the symmetric cases run to the continuous horizon of |S| <= 2 over 7 elements
SYMMETRIC_T = -(7 / 2) * math.log(1.0 - 2 / 7 + 7**-4.0)

# (final point, final values, steps, coordinates the cleanup reset)
PINNED = {
    ("mcg", "exact"): (
        [0.0, 0.0, 0.8714878434348967, 0.0, 0.0, 0.8714878434348967, 0.0, 0.8714878434348967],
        (6.6928418703700405,), 40, 3,
    ),
    ("mcg", "sampled"): (
        [0.0, 0.0, 0.8714878434348967, 0.0, 0.0, 0.8714878434348967, 0.0, 0.8714878434348967],
        (6.866134719160343,), 40, 4,
    ),
    ("symmetric", "exact"): (
        [0.05618843889809341, 0.055829591173467925, 0.05618843889809341, 0.5091573540021395,
         0.055829591173467925, 0.7524860294756475, 0.5143205563790905],
        (2.407733727872871, 2.561285258951286), 40, 2,
    ),
    ("symmetric", "sampled"): (
        [0.06166114338397295, 0.05525857503097801, 0.05528196596209686, 0.5374926882721726,
         0.05525857503097801, 0.7505037393581394, 0.4845433129616621],
        (2.6571457498290827, 2.53131525622451), 40, 4,
    ),
    ("general", "exact"): (
        [0.7890790787396528, 0.15231151862753342, 0.15231151862753342, 0.15231151862753342,
         0.7890790787396528, 0.5626854114057347, 0.40222187523235964],
        (3.075535812658567, 4.607407167493986), 40, 0,
    ),
    ("general", "sampled"): (
        [0.7897720818463316, 0.15300452173421228, 0.15300452173421228, 0.15300452173421228,
         0.7897720818463316, 0.6339872233527184, 0.3274550477519814],
        (3.389329018011658, 4.598312420936674), 40, 0,
    ),
}


def _run(solver: str, mode: str, evaluator=MultilinearEvaluator):
    """(final point, final values, trajectory) of one pinned case, whose F
    is read through an ``evaluator`` of f."""
    est = ESTIMATORS[mode]
    if solver == "mcg":
        y, traj = run_mcg(evaluator(random_graph_cut(8, seed=5), **est), CardinalityPolytope(8, 4), T=2.0, steps=40)
        return y, (traj.steps[-1].values[0],), traj
    f, k = (random_graph_cut(7, seed=7), 2) if solver == "symmetric" else (random_coverage(7, seed=3), 3)
    T = SYMMETRIC_T if solver == "symmetric" else 1.0
    y, traj = run_dmcg(evaluator(f, **est), k, solver, T=T, steps=40)
    last = traj.steps[-1]
    return y, (last.values[0], last.values[1]), traj


@pytest.mark.parametrize("solver, mode", sorted(PINNED))
def test_seeded_ascent_matches_pinned_outputs(solver, mode):
    point, values, steps, resets = PINNED[(solver, mode)]
    y, got_values, traj = _run(solver, mode)
    assert np.allclose(y, point, rtol=0.0, atol=1e-12)
    assert np.allclose(got_values, values, rtol=0.0, atol=1e-12)
    assert len(traj.steps) == steps
    assert sum(s.zeroed for s in traj.steps) == resets


@pytest.mark.parametrize("solver", ["mcg", "symmetric", "general"])
def test_F_at_the_recorded_points_is_what_the_trajectory_records(solver):
    # F at every point a RecordingEvaluator kept is the F the trajectory
    # records for that step and side, bit for bit, also where the cleanup
    # reset coordinates; side j starts at the constant vector j; and the
    # last points are the run's final points
    recorders = []

    def recording(f, **est):
        recorders.append(RecordingEvaluator(f, **est))
        return recorders[-1]

    _, _, traj = _run(solver, "exact", recording)
    (rec,) = recorders
    ev = MultilinearEvaluator(rec.f)
    assert [y.tolist() for y in rec.start] == [[float(side)] * rec.n for side in range(len(rec.start))]
    assert len(rec.steps) == len(traj.steps) == 40
    for step, ys in zip(traj.steps, rec.steps):
        assert [ev.value(y) for y in ys] == list(step.values)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(rec.steps[-1], traj.ys, strict=True))
    assert (sum(s.zeroed for s in traj.steps) > 0) == (solver != "general")


@pytest.mark.parametrize("solver", ["mcg", "symmetric", "general"])
def test_an_exact_ascent_reads_the_closed_form_once_per_step_and_per_reset(solver):
    # all m sides at the start and after each update, as one stack of m
    # points, and one side after each reset
    heights = []

    def counting(f, **est):
        hook = f.multilinear

        def multilinear(X):
            heights.append(len(X))
            return hook(X)

        f.multilinear = multilinear
        return MultilinearEvaluator(f, **est)

    _, _, traj = _run(solver, "exact", counting)
    m = len(traj.ys)
    resets = sum(s.zeroed for s in traj.steps)
    assert (resets > 0) == (solver != "general")
    assert sorted(heights) == sorted([m] * (1 + len(traj.steps)) + [1] * resets)


@pytest.mark.parametrize("T, steps", [(0.0, None), (-1.0, None), (float("nan"), None), (float("inf"), None),
                                      (1.0, 0), (1.0, -3)])
def test_schedule_rejects_empty_or_degenerate_runs(T, steps):
    with pytest.raises(ValueError):
        schedule(4, T, steps, CardinalityPolytope(4, 2))


@pytest.mark.parametrize("T, steps", [(1.5, 1), (5.0, 2), (100.0, 10), (1.0 + 1e-12, 1), (401.0, None)])
def test_schedule_rejects_a_step_wider_than_1(T, steps):
    # y + delta d (1 - s - y) stays in [0, 1] exactly when delta = T/steps <= 1
    with pytest.raises(ValueError, match="exceeds 1"):
        schedule(4, T, steps, CardinalityPolytope(4, 2))


def test_a_step_of_width_1_stays_in_the_cube():
    assert schedule(4, 1.0, 1) == (1.0, 1, 1.0, False)
    assert schedule(4, 400.0, None) == (400.0, 400, 1.0, False)
    assert schedule(0, 5.0, None) == (5.0, 1, 5.0, True)  # no element, so no update can leave the cube
    ev = RecordingEvaluator(random_graph_cut(4, seed=2))
    y, traj = run_dmcg(ev, 1, "general", T=2.0, steps=2)
    assert len(ev.steps) == len(traj.steps) == 2
    assert all(0.0 <= side.min() and side.max() <= 1.0 for step in ev.steps for side in step)


def test_schedule_defaults():
    P = CardinalityPolytope(4, 3)
    T_s = horizon(P, 400)
    assert 1.0 < T_s < horizon(P)
    assert schedule(4, None, None, P) == (T_s, 400, T_s / 400, False)
    assert horizon(P, 1) < 1.0 and schedule(4, None, 1, P) == (1.0, 1, 1.0, False)  # never below 1
    assert schedule(4, None, None) == (1.0, 400, 1.0 / 400, False)
    assert schedule(2, 1.0, 64) == (1.0, 64, 1.0 / 64, True)  # 1/64 <= 2^-5
    assert schedule(0, None, None) == (1.0, 1, 1.0, True)
