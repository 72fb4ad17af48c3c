"""Pipage rounding: turn a fractional point, a float array in a matroid
polytope (one with ``parts``: cardinality or partition), into an integral
set without losing multilinear value.

Along the direction 1_u - 1_v the multilinear extension is a quadratic whose
curvature is -2 d2F/du dv >= 0 by submodularity, so one of the two endpoint
moves cannot decrease F.  The curvature is not assumed here: when F is
exact every move audits it from three evaluations and fails loudly on
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


def _fractional(y: np.ndarray, part: list[int]) -> list[int]:
    return [u for u in part if _FRAC_TOL < y[u] < 1.0 - _FRAC_TOL]


def pipage_round(ev: MultilinearEvaluator, x: np.ndarray, P: Polytope) -> int:
    """Round a point x of P (a float array) to a set S with f(S) >= F(x)
    (F exact), reading F of f = ``ev.f`` through ``ev``, the evaluator of the
    run that found x; returns a bitmask.  A point outside P is a ValueError.

    Repeatedly takes the two lowest-indexed fractional coordinates sharing a
    part of ``P.parts`` and pushes their sum-preserving direction to the better
    endpoint.  When a single fractional coordinate is left in a part (the
    part's constraint is slack), it is rounded to the better feasible bound.
    On the sampled backend endpoint comparisons share one threshold stream
    per move (common random numbers), (``PIPAGE_STREAM``, move) of the
    estimator's seed, and the curvature audit is skipped; ``ev``'s memo
    answers the sets the run already asked for."""
    if P.parts is None:
        raise ValueError(f"pipage rounding needs a polytope with parts (cardinality, partition), not {P.kind!r}")
    if not P.membership(x):
        raise ValueError("point is not inside the polytope")
    exact = ev.backend != "sampled"
    y = np.array(x, dtype=float)
    move = 0

    for part in P.parts:
        while True:
            frac = _fractional(y, part)
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
            f_up = ev.value(up, stream=(PIPAGE_STREAM, move))
            f_down = ev.value(down, stream=(PIPAGE_STREAM, move))
            if exact:
                # direction-convexity audit: F at the interior point must not
                # exceed the chord between the two endpoints, up to rounding
                # relative to the largest |F| of the three points
                eps_up = up[u] - y[u]
                eps_down = y[u] - down[u]
                chord = (f_up * eps_down + f_down * eps_up) / (eps_up + eps_down)
                f_y = ev.value(y)
                if f_y > chord + _AUDIT_RTOL * max(abs(f_up), abs(f_down), abs(f_y)):
                    raise ArithmeticError(
                        f"direction ({u},{v}) is concave: the objective is not submodular"
                    )
            y = up if f_up >= f_down else down
            move += 1
        frac = _fractional(y, part)
        if frac:
            (u,) = frac
            up = y.copy()
            up[u] = 1.0
            down = y.copy()
            down[u] = 0.0
            candidates = [down]  # rounding down is always feasible (down-monotone)
            if P.membership(up):
                candidates.append(up)
            vals = [ev.value(c, stream=(PIPAGE_STREAM, move)) for c in candidates]
            y = candidates[int(np.argmax(vals))]
            move += 1

    off = np.minimum(y, 1.0 - y)
    if off.max() > _FRAC_TOL:
        raise ArithmeticError("rounding left a fractional coordinate")
    chosen = y > 0.5
    if not P.membership(chosen):
        raise ArithmeticError("rounded set left the polytope")
    return int(masks_from_bits(chosen))
