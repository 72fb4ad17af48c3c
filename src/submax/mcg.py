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
step moves from, so a side pays one gradient per step plus one per reset
(see :func:`ascend` for the sampled streams).  Every ascent reads F through
the ``MultilinearEvaluator`` its caller built, takes T and steps from one
:class:`AscentConfig`, and records one :class:`Trajectory` of
:class:`AscentStep` (one point and one F per side), which
:func:`trajectory_csv` writes.  :func:`run_mcg` is one side from 0
along the best vertex of P, with cleanup; ``dmcg.run_dmcg`` is the coupled
pair.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .multilinear import MultilinearEvaluator
from .polytope import Polytope, horizon
from .reports import CheckReport
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
    """Every side's point and F after one step's update and cleanup at t_end,
    how many coordinates the cleanup reset, and the direction rule's note
    (None at the start and for MCG)."""

    t_end: float
    ys: tuple[np.ndarray, ...]
    values: tuple[float, ...]
    zeroed: int = 0
    note: object = None


@dataclass
class Trajectory:
    """One ascent: its resolved schedule, the start at t = 0, and the record
    of every step."""

    T: float
    delta: float
    theoretical_regime: bool
    start: AscentStep
    steps: list[AscentStep] = field(default_factory=list)

    @property
    def last(self) -> AscentStep:
        return self.steps[-1] if self.steps else self.start


def ascend(ev: MultilinearEvaluator, cfg: AscentConfig, starts: tuple[int, ...], choose: Callable, cleanup: bool,
           P: Polytope | None = None) -> Trajectory:
    """Run the sides that start at ``starts`` on the schedule of ``cfg`` over
    P (see :func:`schedule`), reading F through ``ev``.
    ``choose(weights, values)`` gets one weight vector and one F(y) per side
    and returns one direction per side plus a note.  Recorded arrays are
    never written again.

    Every side evaluates F and its gradient once at its start, once after
    each update and once after each reset, on every backend, and the next
    step's direction reads the latest of them: the gradient after a step's
    update and cleanup is the one at the point the next step moves from.
    Only after the last update of a run without cleanup is F evaluated
    alone, since nothing reads that gradient.  Sampled, side j of m draws
    stream (``ASCENT_STREAM``, 0, j) at its start, (``ASCENT_STREAM``,
    i + 1, j) after step i's update and (``ASCENT_STREAM``, i + 1, m + j, u)
    after resetting coordinate u in step i.  A sampled gradient looks up
    each draw and its n one-element flips, (n + 1) samples sets, and F each
    draw, and the evaluator's memo asks the oracle only for the distinct
    sets it does not hold, so a cleanup run costs at most (1 + steps + resets)
    (n + 1) samples oracle queries per side, and a run without cleanup at
    most steps (n + 1) samples + samples; up to n = 16 a run asks for no set
    twice, so also at most 2^n.  Raises ``ValueError`` for T <= 0, steps < 1
    or T/steps > 1."""
    T, steps, delta, regime = schedule(ev.n, cfg.T, cfg.steps, P)
    m = len(starts)
    ys = [np.full(ev.n, float(s)) for s in starts]
    evals = [ev.value_and_partials(y, stream=(ASCENT_STREAM, 0, j)) for j, y in enumerate(ys)]
    traj = Trajectory(T, delta, regime, AscentStep(0.0, tuple(ys), tuple(e[0] for e in evals)))
    for i in range(steps):
        weights = [(1.0 - s - y) * e[1] for s, y, e in zip(starts, ys, evals)]
        directions, note = choose(weights, [e[0] for e in evals])
        ys = [y + delta * d * (1.0 - s - y) for s, y, d in zip(starts, ys, directions)]
        # the next step or the cleanup reads this gradient; after the last update without cleanup, nothing does
        value_only = not cleanup and i == steps - 1
        evals = [(ev.value(y, stream=(ASCENT_STREAM, i + 1, j)),) if value_only
                 else ev.value_and_partials(y, stream=(ASCENT_STREAM, i + 1, j)) for j, y in enumerate(ys)]
        resets = 0
        for j in range(m if cleanup else 0):
            s, y, sign = starts[j], ys[j], 1.0 - 2.0 * starts[j]
            _, grad, sigma = evals[j]
            for u, y_u in enumerate(y.tolist()):  # a reset at u changes no later y_u
                noise = EXACT_NEGATIVE_MARGIN if sigma is None else 2.0 * sigma[u]
                # y_u has moved off s, and moving it further loses value
                if sign * (y_u - s) > 0.0 and sign * grad[u] < -noise:
                    y[u] = s
                    resets += 1
                    # the reset moves y, so later coordinates and the next step see fresh derivatives
                    _, grad, sigma = evals[j] = ev.value_and_partials(y, stream=(ASCENT_STREAM, i + 1, m + j, u))
        traj.steps.append(AscentStep(delta * (i + 1), tuple(ys), tuple(e[0] for e in evals), resets, note))
    return traj


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
        return (P.linear_maximize(weights[0]),), None

    traj = ascend(ev, cfg or AscentConfig(), (0,), best_vertex, True, P)
    return np.clip(traj.last.ys[0], 0.0, 1.0), traj


def check_feasibility_invariants(traj: Trajectory, P: Polytope) -> CheckReport:
    """Scaled membership y(t)/t in P at every recorded step, plus plain
    membership y(t) in P after step i whenever t <= horizon(P, i), the
    discrete horizon of i steps (steps of width delta <= horizon(P, i) / i
    keep y inside P)."""
    bad: dict[str, float] = {}
    for i, step in enumerate(traj.steps, start=1):
        t = step.t_end
        if not P.membership(step.ys[0] / t):
            bad.setdefault("scaled_membership_t", t)
        if t <= horizon(P, i) + 1e-15 and not P.membership(step.ys[0]):
            bad.setdefault("membership_t", t)
    return CheckReport(
        "trajectory feasibility",
        not bad,
        details={"horizon": horizon(P, len(traj.steps)), "T": traj.T, **bad},
    )


def trajectory_csv(traj: Trajectory) -> str:
    """One row per recorded point, the start first: t, each side's mass and
    F, how many coordinates the cleanup reset, and the numeric fields of the
    direction rule's note (empty at t = 0)."""
    sides = range(len(traj.start.ys))
    notes = [f.name for f in fields(traj.last.note)] if is_dataclass(traj.last.note) else []
    rows = [",".join(["t", *(f"mass{j}" for j in sides), *(f"F{j}" for j in sides), "zeroed", *notes])]
    for s in (traj.start, *traj.steps):
        cells = [repr(float(v)) for v in (s.t_end, *(y.sum() for y in s.ys), *s.values)]
        cells.append(str(s.zeroed))
        cells += ["" if s.note is None else repr(float(getattr(s.note, name))) for name in notes]
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"
