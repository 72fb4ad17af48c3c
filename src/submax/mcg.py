"""Measured continuous greedy: the ascent kernel of both continuous solvers,
and its one-sided driver for down-monotone polytopes.

:func:`ascend` moves *sides*: a side starts at the constant vector s in
{0, 1} and moves toward 1 - s.  Each step of width delta weighs coordinate u
by (1 - s - y_u) dF/dy_u, the gain of moving y_u all the way to 1 - s; takes
one direction per side from the driver's rule; applies the measured update
y + delta d (1 - s - y); and optionally resets to s every coordinate whose
signed derivative (1 - 2s) dF/dy_u has turned negative.  A reset can only
increase F and restores the "nothing below y is better" condition the
symmetric value analysis leans on.  :func:`run_mcg` is one side from 0 along
the best vertex of P, with cleanup; ``dmcg.run_dmcg`` is the coupled pair.
"""

from __future__ import annotations

import io
import math
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .multilinear import Estimator, MultilinearEvaluator, Point
from .polytope import Polytope, horizon
from .reports import CheckReport
from .setfn import SetFunction

# strict-negativity margin for the cleanup test in exact mode; sampled mode
# compares against -2 sigma of the derivative estimate instead, so that noise
# alone cannot reset a coordinate
EXACT_NEGATIVE_MARGIN = 1e-12


def schedule(n: int, T: float | None, steps: int | None, P: Polytope | None = None):
    """(T, steps, delta, theoretical_regime) of an ascent over n elements.

    steps defaults to 100 n (at least 1).  T defaults to the discrete horizon
    ``horizon(P, steps)`` of the polytope the output must stay in, but never
    below 1 (up to T = 1 every ascent stays inside P: y(t) / t is in P), and
    to 1 without a polytope.  A given T must be positive and finite, and
    steps at least 1.  The theoretical step size T/ceil(n^5 T) is infeasible
    beyond tiny n, so the regime records whether delta = T/steps <= n^-5
    held."""
    if T is not None and not 0.0 < T < math.inf:
        raise ValueError(f"time horizon T must be positive and finite, got {T!r}")
    steps = max(1, 100 * n) if steps is None else steps
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    if T is None:
        T = 1.0 if P is None else max(1.0, horizon(P, steps))
    delta = float(T) / steps
    return float(T), steps, delta, n == 0 or delta <= n ** -5.0


def ascend(ev: MultilinearEvaluator, starts: tuple[int, ...], choose: Callable, steps: int, delta: float,
           cleanup: bool) -> Iterator[tuple[list[np.ndarray], list[float], int, object]]:
    """Run the sides that start at ``starts``.  ``choose(weights, values)``
    gets one weight vector and one F(y) per side and returns one direction
    per side plus a note.  Yields (points, values, resets, note) once for
    the start (0 resets, note None), then after every step; yielded arrays
    are never written again.  Side j of m samples from stream (i, j) before
    step i, (i, m + j) after its update and (i, 2m + j, u) after resetting
    coordinate u."""
    m = len(starts)
    ys = [np.full(ev.n, float(s)) for s in starts]
    evals = [ev.value_and_partials(y, stream=(0, j)) for j, y in enumerate(ys)]
    yield ys, [e[0] for e in evals], 0, None
    for i in range(steps):
        if i > 0 and ev.backend == "sampled":
            evals = [ev.value_and_partials(y, stream=(i, j)) for j, y in enumerate(ys)]
        weights = [(1.0 - s - y) * e[1] for s, y, e in zip(starts, ys, evals)]
        directions, note = choose(weights, [e[0] for e in evals])
        ys = [y + delta * d * (1.0 - s - y) for s, y, d in zip(starts, ys, directions)]
        evals = [ev.value_and_partials(y, stream=(i, m + j)) for j, y in enumerate(ys)]
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
                    # the reset moves y, so later coordinates see fresh derivatives
                    _, grad, sigma = evals[j] = ev.value_and_partials(y, stream=(i, 2 * m + j, u))
        yield ys, [e[0] for e in evals], resets, note


@dataclass(frozen=True)
class McgConfig:
    """T defaults to the discrete horizon of P but never below 1 (the value
    bound needs T >= 1); steps defaults to 100 n.  See :func:`schedule`."""

    T: float | None = None
    steps: int | None = None
    estimator: Estimator = field(default_factory=Estimator)

    def resolve(self, n: int, P: Polytope) -> tuple[float, int, float, bool]:
        return schedule(n, self.T, self.steps, P if n else None)


@dataclass(frozen=True)
class TrajectoryStep:
    """The point and value after one step's update and cleanup at t_end,
    and how many coordinates the cleanup zeroed."""

    t_end: float
    y_end: np.ndarray
    value_end: float
    zeroed: int


@dataclass
class Trajectory:
    T: float
    delta: float
    theoretical_regime: bool
    y_start: np.ndarray
    value_start: float
    steps: list[TrajectoryStep] = field(default_factory=list)

    def final_value(self) -> float:
        return self.steps[-1].value_end if self.steps else self.value_start


def run_mcg(f: SetFunction, P: Polytope, cfg: McgConfig | None = None) -> tuple[Point, Trajectory]:
    """Run the ascent and return (y(T), trajectory).

    Expects the singleton-feasibility reduction to have been applied (drop
    every u with 1_u not in P) -- see ``preprocess_reduction1``.  A
    non-symmetric objective only voids the value guarantee, so it warns and
    proceeds.  Raises ``ValueError`` for T <= 0 or steps < 1.
    """
    cfg = cfg or McgConfig()
    T, steps, delta, regime = cfg.resolve(f.n, P)
    if not f.symmetric:
        warnings.warn("objective not flagged symmetric: the value guarantee is void", stacklevel=2)

    def best_vertex(weights, _values):
        return (P.linear_maximize(weights[0]),), None

    run = ascend(MultilinearEvaluator(f, cfg.estimator), (0,), best_vertex, steps, delta, cleanup=True)
    (y,), (value,), _, _ = next(run)
    traj = Trajectory(T, delta, regime, y, value)
    for i, ((y,), (value,), zeroed, _) in enumerate(run, start=1):
        traj.steps.append(TrajectoryStep(delta * i, y, value, zeroed))
    return Point(y), traj


def check_feasibility_invariants(
    traj: Trajectory, P: Polytope, T: float | None = None, tol: float = 1e-9
) -> CheckReport:
    """Scaled membership y(t)/t in P at every recorded step, plus plain
    membership y(t) in P after step i whenever t <= horizon(P, i), the
    discrete horizon of i steps (steps of width delta <= horizon(P, i) / i
    keep y inside P)."""
    bad: dict[str, float] = {}
    for i, step in enumerate(traj.steps, start=1):
        t = step.t_end
        if not P.membership(step.y_end / t, tol):
            bad.setdefault("scaled_membership_t", t)
        if t <= horizon(P, i) + 1e-15 and not P.membership(step.y_end, tol):
            bad.setdefault("membership_t", t)
    return CheckReport(
        "trajectory feasibility",
        not bad,
        details={"horizon": horizon(P, len(traj.steps)), "T": T if T is not None else traj.T, **bad},
    )


def trajectory_csv(traj: Trajectory) -> str:
    """Columns: t, |y|, F_estimate, zeroed_coordinate_count."""
    buf = io.StringIO()
    buf.write("t,mass,F_estimate,zeroed_coordinate_count\n")
    buf.write(f"{0.0!r},{traj.y_start.sum()!r},{traj.value_start!r},0\n")
    for s in traj.steps:
        buf.write(f"{s.t_end!r},{s.y_end.sum()!r},{s.value_end!r},{s.zeroed}\n")
    return buf.getvalue()
