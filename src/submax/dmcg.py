"""Double measured continuous greedy for the equality constraint |S| = k.

:func:`run_dmcg` drives the measured-ascent kernel ``mcg.ascend`` with two
coupled sides in lockstep: y1 grows from the empty set under sum(x) <= k, y2
shrinks from the full set under sum(1 - x) <= n - k, and the shared direction
pair (I1, I2 = 1 - I1) from :func:`solve_direction` protects whichever side is
currently worse off.  The symmetric variant turns on the kernel's derivative
cleanup on both sides and runs to the cardinality horizon; the general
variant runs to T = 1 with no cleanup.  The run is recorded as an
``mcg.Trajectory`` whose sides are (y1, y2) and whose step notes are the
solver's :class:`DirectionInfo`.  The final point is y1, y2, or the unique
convex combination of the two with mass exactly k.  For 2k > n the symmetric
variant runs the pair for n - k and complements its point (Reduction 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mcg import AscentConfig, AscentStep, Trajectory, ascend, schedule
from .multilinear import MultilinearEvaluator, Point
from .polytope import CardinalityPolytope
from .reports import CheckReport
from .setfn import SetFunction
from .subsets import full_mask

_BISECT_GAP = 1e-12


@dataclass(frozen=True)
class DirectionInfo:
    """The direction solver's lambda and max-min objective: the note of
    every DMCG step."""

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
    """Maximize min(w1 . I1 + coeff*c1, w2 . I2 + coeff*c2) over I1 in [0,1]^n
    with |I1| = k and I2 = 1 - I1.

    Solved through the dual parametric form: for lam in [0,1] the best vertex
    takes the k largest scores lam*w1_u - (1-lam)*w2_u (ties to the lowest
    index); the vertex objective is convex piecewise-linear in lam with
    subgradient A - B, so the equalizing lam is located by bisection and the
    two bracketing vertices are mixed to balance the two objectives exactly.
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

    def vertex(lam: float) -> np.ndarray:
        scores = lam * w1 - (1.0 - lam) * w2
        order = np.argsort(-scores, kind="stable")
        out = np.zeros(n)
        out[order[:k]] = 1.0
        return out

    def objectives(I: np.ndarray) -> tuple[float, float]:
        return base1 + float(w1 @ I), base2 - float(w2 @ I)

    def finish(I: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray, DirectionInfo]:
        a, b = objectives(I)
        return I, 1.0 - I, DirectionInfo(lam, min(a, b))

    lo, hi = 0.0, 1.0
    I_lo = vertex(lo)
    a, b = objectives(I_lo)
    d_lo = a - b
    if d_lo >= 0.0:
        # the best-for-side-2 vertex already favors side 1
        return finish(I_lo, lo)
    I_hi = vertex(hi)
    a, b = objectives(I_hi)
    d_hi = a - b
    if d_hi <= 0.0:
        return finish(I_hi, hi)

    while hi - lo > _BISECT_GAP:
        mid = 0.5 * (lo + hi)
        I_mid = vertex(mid)
        a, b = objectives(I_mid)
        d_mid = a - b
        if d_mid == 0.0:
            return finish(I_mid, mid)
        if d_mid < 0.0:
            lo, I_lo, d_lo = mid, I_mid, d_mid
        else:
            hi, I_hi, d_hi = mid, I_mid, d_mid

    theta = -d_lo / (d_hi - d_lo)
    I = theta * I_hi + (1.0 - theta) * I_lo
    a, b = objectives(I)
    lam = 0.5 * (lo + hi)
    return I, 1.0 - I, DirectionInfo(lam, min(a, b))


def run_dmcg(f: SetFunction, k: int, cfg: AscentConfig | None = None,
             variant: str = "symmetric") -> tuple[Point, Trajectory]:
    """Run the coupled ascent/descent pair and return (y, trajectory) with
    |y| = k, for any 1 <= k <= n; side 0 is y1, side 1 is y2, and each
    step's note is the direction solver's :class:`DirectionInfo`.

    Variant "symmetric" runs Algorithm-2 style (coeff 2, cleanup, T the
    discrete horizon of |S| <= k) for 2k <= n.  For 2k > n it applies
    Reduction 2: a symmetric f has the same optimum at k and at n - k, so it
    runs the pair for n - k and returns 1 - y with that run's trajectory; at
    k = n that is 1_N with a trajectory of no steps (T = 0).
    Variant "general" runs the general-objective twin (coeff 1, no cleanup,
    T = 1).  Raises ``ValueError`` for an unknown variant, a k outside
    [1, n], a symmetric variant on an f not flagged symmetric, and a bad
    schedule (see ``mcg.schedule``).
    """
    if variant not in ("symmetric", "general"):
        raise ValueError("variant must be 'symmetric' or 'general'")
    n = f.n
    if not 1 <= k <= n:
        raise ValueError("requires 1 <= k <= n")
    symmetric = variant == "symmetric"
    if symmetric and not f.symmetric:
        raise ValueError("symmetric variant requires an objective flagged symmetric")
    if symmetric and 2 * k > n:
        if k < n:
            y, traj = run_dmcg(f, n - k, cfg, variant)
        else:  # the empty set is the one set of size n - k = 0: no step runs
            cfg = cfg or AscentConfig()
            schedule(n, cfg.T, cfg.steps)  # a bad schedule raises all the same
            F = f.eval(full_mask(n))  # = f(empty set), as f is symmetric
            start = AscentStep(0.0, (np.zeros(n), np.ones(n)), (F, F))
            y, traj = Point.zeros(n), Trajectory(0.0, 0.0, True, start)
        return Point(1.0 - y.coords), traj
    coeff = 2.0 if symmetric else 1.0

    def max_min(weights, values):
        i1, i2, info = solve_direction(weights[0], weights[1], values[0], values[1], k, coeff)
        return (i1, i2), info

    bound = CardinalityPolytope(n, k) if symmetric else None
    traj = ascend(f, cfg or AscentConfig(), (0, 1), max_min, symmetric, bound)
    y1, y2 = traj.last.ys
    m1 = float(y1.sum())
    m2 = float(y2.sum())
    if abs(m2 - m1) <= 1e-12:
        if abs(m1 - k) > 1e-6:
            raise ArithmeticError(
                f"degenerate finish: |y1| = |y2| = {m1!r} but k = {k}; invariants violated"
            )
        return Point(y1), traj
    alpha = (m2 - k) / (m2 - m1)
    beta = (k - m1) / (m2 - m1)
    if alpha < -1e-9 or beta < -1e-9:
        raise ArithmeticError(
            f"mass invariant violated: |y1| = {m1!r}, |y2| = {m2!r} do not bracket k = {k}"
        )
    return Point(alpha * y1 + beta * y2), traj


# ---------------------------------------------------------------------------
# executable checks
# ---------------------------------------------------------------------------


def check_concave_segment(
    f: SetFunction, y1, y2, grid: int = 101, tol: float = 1e-9
) -> CheckReport:
    """Samples r(x) = F(y1 + x (y2 - y1)) on a grid: r must be concave
    (second differences <= tol) and everywhere >= min(r(0), r(1)) - tol."""
    a = np.asarray(y1 if not isinstance(y1, Point) else y1.coords, dtype=float)
    b = np.asarray(y2 if not isinstance(y2, Point) else y2.coords, dtype=float)
    if (a > b + 1e-12).any():
        raise ValueError("requires y1 <= y2 coordinate-wise")
    ev = MultilinearEvaluator(f)
    ts = np.linspace(0.0, 1.0, grid)
    r = np.array([ev.value(a + t * (b - a)) for t in ts])
    second = r[:-2] - 2.0 * r[1:-1] + r[2:]
    concave_ok = bool((second <= tol).all()) if grid >= 3 else True
    floor = min(r[0], r[-1])
    floor_ok = bool((r >= floor - tol).all())
    return CheckReport(
        "segment concavity",
        concave_ok and floor_ok,
        details={
            "max_second_difference": float(second.max()) if grid >= 3 else 0.0,
            "min_vs_endpoints": float((r - floor).min()),
        },
    )


def check_y_properties(traj: Trajectory, k: int, tol: float = 1e-9) -> CheckReport:
    """Coupled-state invariants of a :func:`run_dmcg` trajectory: both points
    stay in the cube, y1 <= y2 at every step, and at t = T the masses
    bracket k."""
    bad: dict[str, float] = {}
    for step in traj.steps:
        y1, y2 = step.ys
        if y1.min() < -tol or y1.max() > 1 + tol:
            bad.setdefault("y1_outside_cube_t", step.t_end)
        if y2.min() < -tol or y2.max() > 1 + tol:
            bad.setdefault("y2_outside_cube_t", step.t_end)
        if (y1 > y2 + tol).any():
            bad.setdefault("ordering_violated_t", step.t_end)
    y1, y2 = traj.last.ys
    m1, m2 = float(y1.sum()), float(y2.sum())
    if m1 > k + tol:
        bad["final_mass1"] = m1
    if m2 < k - tol:
        bad["final_mass2"] = m2
    return CheckReport("dual state invariants", not bad, details=bad)


def check_max_y(traj: Trajectory, tol: float = 1e-9) -> CheckReport:
    """Per-coordinate cap max(y1_u, 1 - y2_u) <= 1 - (1 - delta)^(t/delta)."""
    worst = -math.inf
    for idx, step in enumerate(traj.steps, start=1):
        cap = 1.0 - (1.0 - traj.delta) ** idx
        y1, y2 = step.ys
        reach = max(float(y1.max()), float(1.0 - y2.min()))
        worst = max(worst, reach - cap)
    return CheckReport("coordinate growth cap", worst <= tol, details={"worst_excess": worst})
