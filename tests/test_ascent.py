"""Seeded outputs of the measured ascent, pinned to the values that the two
separate step loops of run_mcg and run_dmcg produced before they became
drivers of one kernel (mcg.ascend).  Every case runs 40 steps; the cleanup
fires in the mcg and symmetric cases, and in the sampled symmetric case it
resets one coordinate of y1 and three of y2.  Each case fixes its T, so the
pins hold the step loop, not the default horizon."""

import math

import numpy as np
import pytest

from submax.dmcg import DmcgConfig, run_dmcg
from submax.fixtures import random_coverage, random_graph_cut
from submax.mcg import McgConfig, run_mcg, schedule
from submax.multilinear import Estimator
from submax.polytope import CardinalityPolytope, horizon

SAMPLED = Estimator(mode="sampled", samples=64, seed=5)
ESTIMATORS = {"exact": Estimator(), "sampled": SAMPLED}

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
        (6.700698872297796,), 40, 4,
    ),
    ("symmetric", "exact"): (
        [0.056323972810363714, 0.055903036064962795, 0.055873331549575966, 0.5091263546975405,
         0.055873331549575966, 0.7525029886054609, 0.5143969847225199],
        (2.4076442178569555, 2.561137332452519), 40, 3,
    ),
    ("symmetric", "sampled"): (
        [0.20693408351788406, 0.050429133916989805, 0.05040233800231639, 0.5674372804022929,
         0.05040233800231639, 0.7405262169202058, 0.3338686092379945],
        (2.347289023374978, 2.3394309472144954), 40, 4,
    ),
    ("general", "exact"): (
        [0.7890790787396528, 0.15231151862753342, 0.15231151862753342, 0.15231151862753342,
         0.7890790787396528, 0.5626854114057347, 0.40222187523235964],
        (3.075535812658567, 4.607407167493986), 40, 0,
    ),
    ("general", "sampled"): (
        [0.7891448532828919, 0.15237729317077253, 0.15237729317077253, 0.15237729317077253,
         0.7891448532828919, 0.5714414781059844, 0.3931369358159141],
        (2.79273701620881, 4.576210654836784), 40, 0,
    ),
}


def _run(solver: str, mode: str):
    """(final point, final values, trajectory) of one pinned case."""
    est = ESTIMATORS[mode]
    if solver == "mcg":
        y, traj = run_mcg(random_graph_cut(8, seed=5), CardinalityPolytope(8, 4),
                          McgConfig(T=2.0, steps=40, estimator=est))
        return y, (traj.final_value(),), traj
    f, k = (random_graph_cut(7, seed=7), 2) if solver == "symmetric" else (random_coverage(7, seed=3), 3)
    T = SYMMETRIC_T if solver == "symmetric" else 1.0
    y, traj = run_dmcg(f, k, DmcgConfig(variant=solver, steps=40, estimator=est, T=T))
    last = traj.steps[-1]
    return y, (last.value1_end, last.value2_end), traj


@pytest.mark.parametrize("solver, mode", sorted(PINNED))
def test_seeded_ascent_matches_pinned_outputs(solver, mode):
    point, values, steps, resets = PINNED[(solver, mode)]
    y, got_values, traj = _run(solver, mode)
    assert np.allclose(y.coords, point, rtol=0.0, atol=1e-12)
    assert np.allclose(got_values, values, rtol=0.0, atol=1e-12)
    assert len(traj.steps) == steps
    assert sum(s.zeroed for s in traj.steps) == resets


@pytest.mark.parametrize("T, steps", [(0.0, None), (-1.0, None), (float("nan"), None), (float("inf"), None),
                                      (1.0, 0), (1.0, -3)])
def test_schedule_rejects_empty_or_degenerate_runs(T, steps):
    with pytest.raises(ValueError):
        schedule(4, T, steps, CardinalityPolytope(4, 2))


def test_schedule_defaults():
    P = CardinalityPolytope(4, 3)
    T_s = horizon(P, 400)
    assert 1.0 < T_s < horizon(P)
    assert schedule(4, None, None, P) == (T_s, 400, T_s / 400, False)
    assert horizon(P, 1) < 1.0 and schedule(4, None, 1, P) == (1.0, 1, 1.0, False)  # never below 1
    assert schedule(4, None, None) == (1.0, 400, 1.0 / 400, False)
    assert schedule(2, 1.0, 64) == (1.0, 64, 1.0 / 64, True)  # 1/64 <= 2^-5
    assert schedule(0, None, None) == (1.0, 1, 1.0, True)
