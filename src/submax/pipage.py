"""Pipage rounding: turn a fractional point of a cardinality or partition
polytope into an integral set without losing multilinear value.

Along the direction 1_u - 1_v the multilinear extension is a quadratic whose
curvature is -2 d2F/du dv >= 0 by submodularity, so one of the two endpoint
moves cannot decrease F.  The curvature is not assumed here: in exact mode
every move audits it from three evaluations and fails loudly on
non-submodular inputs.
"""

from __future__ import annotations

import numpy as np

from .multilinear import Estimator, MultilinearEvaluator, Point
from .polytope import CardinalityPolytope, PartitionPolytope, Polytope
from .setfn import SetFunction
from .subsets import masks_from_bits

_FRAC_TOL = 1e-9


def _groups(P: Polytope) -> list[list[int]]:
    if isinstance(P, CardinalityPolytope):
        return [list(range(P.n))]
    if isinstance(P, PartitionPolytope):
        return [list(part) for part in P.parts]
    raise ValueError(f"pipage rounding supports cardinality and partition polytopes, not {P.kind!r}")


def _fractional(y: np.ndarray, group: list[int]) -> list[int]:
    return [u for u in group if _FRAC_TOL < y[u] < 1.0 - _FRAC_TOL]


def pipage_round(
    f: SetFunction,
    x: Point,
    P: Polytope,
    est: Estimator | None = None,
) -> int:
    """Round x in P to a set S with f(S) >= F(x) (exact mode); returns a bitmask.

    Repeatedly takes the two lowest-indexed fractional coordinates sharing a
    constraint and pushes their sum-preserving direction to the better
    endpoint.  When a single fractional coordinate is left in a group (the
    group's constraint is slack), it is rounded to the better feasible bound.
    In sampled mode endpoint comparisons share one threshold stream per move
    (common random numbers) drawn from the estimator's seed."""
    est = est or Estimator()
    groups = _groups(P)
    if not P.membership(x.coords):
        raise ValueError("point is not inside the polytope")
    ev = MultilinearEvaluator(f, est)
    exact = est.mode == "exact"
    y = x.coords.copy()
    move = 0

    for group in groups:
        while True:
            frac = _fractional(y, group)
            if len(frac) < 2:
                break
            u, v = frac[0], frac[1]
            up = y.copy()  # push u toward 1, v toward 0
            if 1.0 - y[u] <= y[v]:
                up[u] = 1.0
                up[v] = y[v] - (1.0 - y[u])
            else:
                up[v] = 0.0
                up[u] = y[u] + y[v]
            down = y.copy()  # push u toward 0, v toward 1
            if y[u] <= 1.0 - y[v]:
                down[u] = 0.0
                down[v] = y[v] + y[u]
            else:
                down[v] = 1.0
                down[u] = y[u] - (1.0 - y[v])
            f_up = ev.value(up, stream=(move, 0))
            f_down = ev.value(down, stream=(move, 0))
            if exact:
                # direction-convexity audit: F at the interior point must not
                # exceed the chord between the two endpoints
                eps_up = up[u] - y[u]
                eps_down = y[u] - down[u]
                chord = (f_up * eps_down + f_down * eps_up) / (eps_up + eps_down)
                if ev.value(y) > chord + 1e-9:
                    raise ArithmeticError(
                        f"direction ({u},{v}) is concave: the objective is not submodular"
                    )
            y = up if f_up >= f_down else down
            move += 1
        frac = _fractional(y, group)
        if frac:
            (u,) = frac
            up = y.copy()
            up[u] = 1.0
            down = y.copy()
            down[u] = 0.0
            candidates = [down]  # rounding down is always feasible (down-monotone)
            if P.membership(up):
                candidates.append(up)
            vals = [ev.value(c, stream=(move, 0)) for c in candidates]
            y = candidates[int(np.argmax(vals))]
            move += 1

    off = np.minimum(y, 1.0 - y)
    if off.max() > _FRAC_TOL:
        raise ArithmeticError("rounding left a fractional coordinate")
    mask = int(masks_from_bits(y > 0.5))
    if not P.membership(Point.indicator(mask, f.n).coords):
        raise ArithmeticError("rounded set left the polytope")
    return mask
