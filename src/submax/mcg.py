"""Measured continuous greedy: the ascent kernel of both continuous solvers,
and its one-sided driver for down-monotone polytopes.

:func:`ascend` moves *sides*: a side starts at the constant vector s in
{0, 1} and moves toward 1 - s.  Each step of width delta weighs coordinate u
by (1 - s - y_u) dF/dy_u, the gain of moving y_u all the way to 1 - s; takes
one direction per side from the driver's rule; applies the measured update
y + delta d (1 - s - y); and optionally resets to s every coordinate whose
signed derivative (1 - 2s) dF/dy_u has turned negative.  A reset can only
increase F and restores the "nothing below y is better" condition the
symmetric value analysis leans on.  The gradient a step weighs is the one
evaluated after the previous step's update and cleanup, at the point the
step moves from, so an ascent pays one evaluation of all its sides per
step, as one stack of points, plus one of one side per reset (see
:func:`ascend` for the sampled streams).  Every ascent reads F through
the ``MultilinearEvaluator`` its caller built, takes T and steps from one
:class:`AscentConfig`, and records one :class:`Trajectory`: scalars per step
(:class:`AscentStep`: t, one F per side, resets) and every side's final
point, so its memory is O(n + steps) whatever the step count.  The points
in between are not kept; they are the ones the ascent reads F at, on the
streams :func:`ascend` names.  :func:`run_mcg` is one side from 0 along the
best vertex of P, with cleanup; ``dmcg.run_dmcg`` is the coupled pair.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .multilinear import MultilinearEvaluator
from .polytope import Polytope, horizon
from .rng import ASCENT_STREAM

# strict-negativity margin for the cleanup test when F is exact; the sampled
# backend compares against -2 sigma of the derivative estimate instead, so
# that noise alone cannot reset a coordinate
EXACT_NEGATIVE_MARGIN = 1e-12


def schedule(n: int, T: float | None, steps: int | None, P: Polytope | None = None):
    """(T, steps, delta, theoretical_regime) of an ascent over n elements.

    steps defaults to 100 n (at least 1).  T defaults to the discrete horizon
    ``horizon(P, steps)`` of the polytope the output must stay in, but never
    below 1 (up to T = 1 every ascent stays inside P: y(t) / t is in P), and
    to 1 without a polytope or without elements.  A given T must be positive
    and finite, steps at least 1, and delta = T/steps at most 1 if there is
    an element: only then does every update y + delta d (1 - s - y) stay in
    the cube.  The
    theoretical step size T/ceil(n^5 T) is infeasible beyond tiny n, so the
    regime records whether delta <= n^-5 held."""
    if T is not None and not 0.0 < T < math.inf:
        raise ValueError(f"time horizon T must be positive and finite, got {T!r}")
    steps = max(1, 100 * n) if steps is None else steps
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if T is None:
        T = 1.0 if P is None or n == 0 else max(1.0, horizon(P, steps))
    delta = float(T) / steps
    if delta > 1.0 and n:
        raise ValueError(f"step width T/steps = {delta!r} exceeds 1: the ascent would leave the cube")
    return float(T), steps, delta, n == 0 or delta <= n ** -5.0


@dataclass(frozen=True)
class AscentConfig:
    """T defaults to the discrete horizon of the run's polytope but never
    below 1 (the value bound needs T >= 1); steps defaults to 100 n.  See
    :func:`schedule`."""

    T: float | None = None
    steps: int | None = None


@dataclass(frozen=True)
class AscentStep:
    """Every side's F after one step's update and cleanup at t_end, and how
    many coordinates the cleanup reset."""

    t_end: float
    values: tuple[float, ...]
    zeroed: int = 0


@dataclass
class Trajectory:
    """One ascent: its resolved schedule, the record of every step, and
    every side's final point ``ys``."""

    T: float
    delta: float
    theoretical_regime: bool
    ys: tuple[np.ndarray, ...]
    steps: list[AscentStep] = field(default_factory=list)


def ascend(ev: MultilinearEvaluator, cfg: AscentConfig, starts: tuple[int, ...], choose: Callable, cleanup: bool,
           P: Polytope | None = None) -> Trajectory:
    """Run the sides that start at ``starts`` on the schedule of ``cfg`` over
    P (see :func:`schedule`), reading F through ``ev``.
    ``choose(weights, values)`` gets the weights as an (m, n) array, row j
    side j's, and one F(y) per side, and returns one direction per side, as
    an (m, n) array or a sequence of m arrays.
    The m sides are held as one (m, n) array, so a step weighs, updates and
    evaluates all of them at once.  The final points are new arrays.

    The sides' F and gradients are evaluated at once at the start and after
    each update, as one stack, and one side's after each of its resets, on
    every backend, and the next step's direction reads the latest of them:
    the gradient after a step's update and cleanup is the one at the point
    the next step moves from.  Only after the last update of a run without
    cleanup is F evaluated alone, since nothing reads that gradient.  The
    cleanup resets a side's coordinates in index order, each with the
    gradient after the resets before it.  Sampled, side j of m draws
    stream (``ASCENT_STREAM``, 0, j) at its start, (``ASCENT_STREAM``,
    i + 1, j) after step i's update (row j of the stacks evaluated on
    (``ASCENT_STREAM``, 0) and (``ASCENT_STREAM``, i + 1)) and
    (``ASCENT_STREAM``, i + 1, m + j, u) after resetting coordinate u in
    step i.  A sampled gradient looks up
    each draw and its n one-element flips, (n + 1) samples sets, and F each
    draw, and the evaluator's memo asks the oracle only for the distinct
    sets it does not hold, so a cleanup run costs at most (1 + steps + resets)
    (n + 1) samples oracle queries per side, and a run without cleanup at
    most steps (n + 1) samples + samples; up to n = 16 a run asks for no set
    twice, so also at most 2^n.  Raises ``ValueError`` for T <= 0, steps < 1
    or T/steps > 1."""
    T, steps, delta, regime = schedule(ev.n, cfg.T, cfg.steps, P)
    m = len(starts)
    s = np.array(starts, dtype=float)[:, None]
    target, sign = 1.0 - s, 1.0 - 2.0 * s

    def resettable(start, sign, y, grad, sigma):
        """y_u has moved off its start, and moving it further loses value."""
        noise = EXACT_NEGATIVE_MARGIN if sigma is None else 2.0 * sigma
        return (sign * (y - start) > 0.0) & (sign * grad < -noise)

    ys = np.repeat(s, ev.n, axis=1)
    values, grads, sigma = ev.value_and_partials(ys, stream=(ASCENT_STREAM, 0))
    F = values.tolist()
    record = []
    for i in range(steps):
        gap = target - ys
        directions = choose(gap * grads, F)
        ys = ys + delta * np.asarray(directions) * gap
        # the next step or the cleanup reads this gradient; after the last update without cleanup, nothing does
        if not cleanup and i == steps - 1:
            values = ev.value(ys, stream=(ASCENT_STREAM, i + 1))
        else:
            values, grads, sigma = ev.value_and_partials(ys, stream=(ASCENT_STREAM, i + 1))
        resets = 0
        if cleanup and resettable(s, sign, ys, grads, sigma).any():
            for j in range(m):
                # a reset at u moves y, so the coordinates after u are tested on fresh derivatives
                u = -1
                while (hit := resettable(s[j], sign[j], ys[j, u + 1 :], grads[j, u + 1 :],
                                         None if sigma is None else sigma[j, u + 1 :])).any():
                    u += 1 + int(hit.argmax())
                    ys[j, u] = s[j, 0]
                    resets += 1
                    values[j], grads[j], sigma_j = ev.value_and_partials(ys[j], stream=(ASCENT_STREAM, i + 1, m + j, u))
                    if sigma is not None:
                        sigma[j] = sigma_j
        F = values.tolist()
        record.append(AscentStep(delta * (i + 1), tuple(F), resets))
    return Trajectory(T, delta, regime, tuple(ys), record)


def run_mcg(ev: MultilinearEvaluator, P: Polytope, cfg: AscentConfig | None = None) -> tuple[np.ndarray, Trajectory]:
    """Run the ascent on F of ``ev.f`` and return (y(T), trajectory); y(T)
    is a new float array, clipped to [0,1] against rounding.

    Expects the singleton-feasibility reduction to have been applied (drop
    every u with 1_u not in P) -- see ``preprocess_reduction1``.  A
    non-symmetric objective only voids the value guarantee, so it warns and
    proceeds.  Raises ``ValueError`` for T <= 0, steps < 1 or T/steps > 1.
    """
    if not ev.f.symmetric:
        warnings.warn("objective not flagged symmetric: the value guarantee is void", stacklevel=2)

    def best_vertex(weights, _values):
        return P.linear_maximize(weights[0])[None]

    traj = ascend(ev, cfg or AscentConfig(), (0,), best_vertex, True, P)
    return np.clip(traj.ys[0], 0.0, 1.0), traj

