"""Double measured continuous greedy for the equality constraint |S| = k.

:func:`run_dmcg` drives the measured-ascent kernel ``mcg.ascend`` with two
coupled sides in lockstep: y1 grows from the empty set under sum(x) <= k, y2
shrinks from the full set under sum(1 - x) <= n - k, and the shared direction
pair (I1, I2 = 1 - I1) protects whichever side is currently worse off: it
solves a max-min LP over the hypersimplex, which :func:`solve_direction`
answers exactly by cutting planes on the dual lines.  The symmetric variant
turns on the kernel's derivative cleanup on both sides and runs to the
cardinality horizon; the general variant runs to T = 1 with no cleanup.  The run is recorded as an
``mcg.Trajectory`` whose sides are (y1, y2).  The final point is y1, y2, or
the unique convex combination of the two with mass exactly k.  For 2k > n
the symmetric variant runs the pair for n - k and complements its point
(Reduction 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mcg import AscentConfig, Trajectory, ascend, schedule
from .multilinear import MultilinearEvaluator
from .polytope import CardinalityPolytope


@dataclass(frozen=True)
class DirectionInfo:
    """The direction solver's lambda and max-min objective."""

    lam: float
    objective: float


def solve_direction(
    w1: np.ndarray,
    w2: np.ndarray,
    c1: float,
    c2: float,
    k: int,
    coeff: float = 2.0,
) -> tuple[np.ndarray, np.ndarray, DirectionInfo]:
    """Maximize min(A, B), A = w1 . I1 + coeff*c1 and B = w2 . I2 + coeff*c2,
    over I1 in [0,1]^n with |I1| = k and I2 = 1 - I1.

    Solved exactly through the dual parametric form, by cutting planes
    (Eisner & Severance 1976).  A vertex I of the hypersimplex has the dual
    line B + lam*(A - B), which at lam exceeds a constant by s(lam) . I, with
    scores s(lam) = lam*w1 - (1-lam)*w2; so the best vertex at lam takes the
    k largest scores (ties to the lowest index), and the upper envelope of
    the lines is convex piecewise-linear with minimum the max-min.  If the
    vertex at lam = 0 already has d = A - B >= 0, or the one at lam = 1 has
    d <= 0, it is the answer.  Otherwise the search keeps a bracket of
    vertices I_lo (d < 0) and I_hi (d > 0) and cuts where their lines cross,
    at lam_x, with the vertex I there:
    - if I does not rise above the line of either end (s(lam_x) . I is no
      larger), or its d is not strictly between d_lo and d_hi (which in exact
      arithmetic follows from a rise), lam_x is the envelope's minimum, and
      I1 mixes I_lo and I_hi with weight theta = -d_lo/(d_hi - d_lo) on I_hi,
      which makes A = B;
    - else if its d is exactly 0, I is the answer;
    - else I replaces the bracket end whose d has its sign.
    Each cut raises d_lo or lowers d_hi, so the search ends after at most one
    cut per breakpoint of the envelope.  ``DirectionInfo.lam`` is the lam of
    the answer: 0, 1 or the last lam_x.

    Ties: a vertex that only ties with the bracket lines at lam_x never
    replaces an end.  So when several vertices are optimal at the minimum,
    I1 mixes the last ends the search found on either side of it; these are
    the vertices optimal just left and just right of it, unless a cut landed
    exactly on it.  On the first step of a symmetric run (w1 = w2, every
    vertex ties at lam = 1/2) that is the mix of the bottom-k and the top-k
    vertices of w1.
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    n = w1.size
    if k > n:
        raise ValueError("requires k <= n")
    if k < 0:
        raise ValueError("requires k >= 0")
    base1 = coeff * c1
    base2 = coeff * c2 + float(w2.sum())

    def lowest(keys: np.ndarray) -> np.ndarray:
        """The vertex of the k lowest keys, ties to the lowest index."""
        out = np.zeros(n)
        out[np.argsort(keys, kind="stable")[:k]] = 1.0
        return out

    def objectives(I: np.ndarray) -> tuple[float, float]:
        return base1 + float(w1 @ I), base2 - float(w2 @ I)

    def line(I: np.ndarray) -> tuple[float, float, float]:
        """The dual line B + lam*(A - B) of I, as (B, A - B), and min(A, B)."""
        a, b = objectives(I)
        return b, a - b, min(a, b)

    def finish(I: np.ndarray, lam: float, objective: float) -> tuple[np.ndarray, np.ndarray, DirectionInfo]:
        return I, 1.0 - I, DirectionInfo(lam, objective)

    I_lo = lowest(w2)
    b_lo, d_lo, objective = line(I_lo)
    if d_lo >= 0.0:
        # the best-for-side-2 vertex already favors side 1
        return finish(I_lo, 0.0, objective)
    I_hi = lowest(-w1)
    b_hi, d_hi, objective = line(I_hi)
    if d_hi <= 0.0:
        return finish(I_hi, 1.0, objective)

    while True:
        lam = (b_lo - b_hi) / (d_hi - d_lo)
        scores = lam * w1 - (1.0 - lam) * w2
        I = lowest(-scores)
        b, d, objective = line(I)
        rise = min(scores @ (I - I_lo), scores @ (I - I_hi))
        if rise <= 0.0 or not d_lo < d < d_hi:
            break
        if d == 0.0:
            return finish(I, lam, objective)
        if d < 0.0:
            I_lo, b_lo, d_lo = I, b, d
        else:
            I_hi, b_hi, d_hi = I, b, d

    theta = -d_lo / (d_hi - d_lo)
    I = theta * I_hi + (1.0 - theta) * I_lo
    return finish(I, lam, min(objectives(I)))


def run_dmcg(ev: MultilinearEvaluator, k: int, cfg: AscentConfig | None = None,
             variant: str = "symmetric") -> tuple[np.ndarray, Trajectory]:
    """Run the coupled ascent/descent pair on F of ``ev.f`` and return
    (y, trajectory) with |y| = k, for any 1 <= k <= n; y is a new float
    array, clipped to [0,1] against rounding.  Side 0 is y1, side 1 is y2.

    Variant "symmetric" runs Algorithm-2 style (coeff 2, cleanup, T the
    discrete horizon of |S| <= k) for 2k <= n.  For 2k > n it applies
    Reduction 2: a symmetric f has the same optimum at k and at n - k, so it
    runs the pair for n - k on the same ``ev`` and returns 1 - y with that
    run's trajectory; at k = n that is 1_N with a trajectory of no steps
    (T = 0).
    Variant "general" runs the general-objective twin (coeff 1, no cleanup,
    T = 1).  Raises ``ValueError`` for an unknown variant, a k outside
    [1, n], a symmetric variant on an f not flagged symmetric, and a bad
    schedule (see ``mcg.schedule``).
    """
    if variant not in ("symmetric", "general"):
        raise ValueError("variant must be 'symmetric' or 'general'")
    f, n = ev.f, ev.n
    if not 1 <= k <= n:
        raise ValueError("requires 1 <= k <= n")
    symmetric = variant == "symmetric"
    if symmetric and not f.symmetric:
        raise ValueError("symmetric variant requires an objective flagged symmetric")
    if symmetric and 2 * k > n:
        if k < n:
            y, traj = run_dmcg(ev, n - k, cfg, variant)
        else:  # the empty set is the one set of size n - k = 0: no step runs
            cfg = cfg or AscentConfig()
            schedule(n, cfg.T, cfg.steps)  # a bad schedule raises all the same
            y, traj = np.zeros(n), Trajectory(0.0, 0.0, True, (np.zeros(n), np.ones(n)))
        return np.clip(1.0 - y, 0.0, 1.0), traj
    coeff = 2.0 if symmetric else 1.0

    def max_min(weights, values):
        return solve_direction(weights[0], weights[1], values[0], values[1], k, coeff)[:2]

    bound = CardinalityPolytope(n, k) if symmetric else None
    traj = ascend(ev, cfg or AscentConfig(), (0, 1), max_min, symmetric, bound)
    y1, y2 = traj.ys
    m1 = float(y1.sum())
    m2 = float(y2.sum())
    if abs(m2 - m1) <= 1e-12:
        if abs(m1 - k) > 1e-6:
            raise ArithmeticError(
                f"degenerate finish: |y1| = |y2| = {m1!r} but k = {k}; invariants violated"
            )
        return np.clip(y1, 0.0, 1.0), traj
    alpha = (m2 - k) / (m2 - m1)
    beta = (k - m1) / (m2 - m1)
    if alpha < -1e-9 or beta < -1e-9:
        raise ArithmeticError(
            f"mass invariant violated: |y1| = {m1!r}, |y2| = {m2!r} do not bracket k = {k}"
        )
    return np.clip(alpha * y1 + beta * y2, 0.0, 1.0), traj
