"""Pipage rounding: turn a fractional point, a float array in a matroid
polytope (one with ``parts``: cardinality or partition), into an integral
set without losing multilinear value.

Along the direction 1_u - 1_v the multilinear extension is a quadratic whose
curvature is -2 d2F/du dv >= 0 by submodularity, so one of the two endpoint
moves cannot decrease F.  The curvature is not assumed here: when F is
exact every move audits it from F at both endpoints and at the point it
moves from, which the previous move carries, and fails loudly on
non-submodular inputs.
"""

from __future__ import annotations

import numpy as np

from .multilinear import MultilinearEvaluator
from .polytope import Polytope
from .rng import PIPAGE_STREAM
from .subsets import masks_from_bits

_FRAC_TOL = 1e-9
_AUDIT_RTOL = 1e-9  # of the curvature audit, relative to the scale of F


def _is_fractional(t: float) -> bool:
    return _FRAC_TOL < t < 1.0 - _FRAC_TOL


def _push(y: np.ndarray, gain: int, lose: int) -> np.ndarray:
    """y moved along 1_gain - 1_lose, keeping y_gain + y_lose, until gain
    reaches 1 or lose reaches 0, whichever comes first (a new array)."""
    out = y.copy()
    if 1.0 - y[gain] <= y[lose]:
        out[gain] = 1.0
        out[lose] = y[lose] - (1.0 - y[gain])
    else:
        out[lose] = 0.0
        out[gain] = y[gain] + y[lose]
    return out


def pipage_round(ev: MultilinearEvaluator, x: np.ndarray, P: Polytope) -> int:
    """Round a point x of P (a float array) to a set S with f(S) >= F(x)
    (F exact), reading F of f = ``ev.f`` through ``ev``, the evaluator of the
    run that found x; returns a bitmask.  A point outside P is a ValueError.

    Walks each part of ``P.parts`` once, in index order, carrying its one
    fractional coordinate u: each next fractional v is paired with u, their
    sum-preserving direction is pushed to the better endpoint (one of the two
    becomes integral), and the one still fractional is carried on.  A
    coordinate left over at the end of a part (the part's constraint is
    slack) is rounded to the better feasible bound.  On the exact backend a
    rounding with m pair moves asks F 2m + 1 times, plus once or twice per
    leftover: F at the point a move starts from is the chosen endpoint's of
    the move before.  On the sampled backend endpoint comparisons share one
    threshold stream per move (common random numbers), (``PIPAGE_STREAM``,
    move) of the estimator's seed, and the curvature audit is skipped;
    ``ev``'s memo answers the sets the run already asked for."""
    if P.parts is None:
        raise ValueError(f"pipage rounding needs a polytope with parts (cardinality, partition), not {P.kind!r}")
    if not P.membership(x):
        raise ValueError("point is not inside the polytope")
    exact = ev.backend != "sampled"
    y = np.array(x, dtype=float)
    f_y = None  # F(y), once the audit has asked for it
    move = 0

    for part in P.parts:
        u = None  # the one fractional coordinate of the part walked so far
        for v in part:
            if not _is_fractional(y[v]):
                continue
            if u is None:
                u = v
                continue
            up, down = _push(y, u, v), _push(y, v, u)
            f_up = ev.value(up, stream=(PIPAGE_STREAM, move))
            f_down = ev.value(down, stream=(PIPAGE_STREAM, move))
            if exact:
                # direction-convexity audit: F at the interior point must not
                # exceed the chord between the two endpoints, up to rounding
                # relative to the largest |F| of the three points
                f_y = ev.value(y) if f_y is None else f_y
                eps_up = up[u] - y[u]
                eps_down = y[u] - down[u]
                chord = (f_up * eps_down + f_down * eps_up) / (eps_up + eps_down)
                if f_y > chord + _AUDIT_RTOL * max(abs(f_up), abs(f_down), abs(f_y)):
                    raise ArithmeticError(
                        f"direction ({u},{v}) is concave: the objective is not submodular"
                    )
            y, f_y = (up, f_up) if f_up >= f_down else (down, f_down)
            u = u if _is_fractional(y[u]) else v if _is_fractional(y[v]) else None
            move += 1
        if u is not None:
            up, down = y.copy(), y.copy()
            up[u], down[u] = 1.0, 0.0
            candidates = [down]  # rounding down is always feasible (down-monotone)
            if P.membership(up):
                candidates.append(up)
            vals = [ev.value(c, stream=(PIPAGE_STREAM, move)) for c in candidates]
            best = int(np.argmax(vals))
            y, f_y = candidates[best], vals[best]
            move += 1

    if (np.minimum(y, 1.0 - y) > _FRAC_TOL).any():
        raise ArithmeticError("rounding left a fractional coordinate")
    chosen = y > 0.5
    if not P.membership(chosen):
        raise ArithmeticError("rounded set left the polytope")
    return int(masks_from_bits(chosen))
