"""Brute-force exact solvers: the ground truth behind every approximation-ratio
test.  All of them walk the bitmasks of [0, 2^n) (n <= 22) in ascending blocks
of ``MASK_BLOCK``, drop the infeasible masks of each block, evaluate the rest
in one batch, and break value ties toward the smallest mask.  Memory stays at
one block whatever n is.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .polytope import CardinalityPolytope, KnapsackPolytope, PartitionPolytope, Polytope
from .setfn import SetFunction
from .subsets import MASK_BLOCK, as_mask, bits_from_masks, popcount_array

MAX_BRUTE_N = 22


def _ground_size(f: SetFunction, n: int | None) -> int:
    """f.n, after checking that a given n names the same ground set and that
    the search space is small enough."""
    if n is not None and int(n) != f.n:
        raise ValueError(f"n = {n} does not match the ground set of f (n = {f.n})")
    if f.n > MAX_BRUTE_N:
        raise ValueError(f"brute force limited to n <= {MAX_BRUTE_N}, got {f.n}")
    return f.n


def _argmax_blocks(
    f: SetFunction, n: int, feasible: Callable[[np.ndarray], np.ndarray] | None = None
) -> tuple[int, float]:
    """(mask, value) maximizing f over the masks of [0, 2^n) that ``feasible``
    admits.  Blocks ascend and a later block wins only on a strictly larger
    value, so a tie goes to the smallest mask."""
    best: tuple[int, float] | None = None
    for start in range(0, 1 << n, MASK_BLOCK):
        masks = np.arange(start, min(start + MASK_BLOCK, 1 << n), dtype=np.int64)
        if feasible is not None:
            masks = masks[feasible(masks)]
        if masks.size == 0:
            continue
        values = f.eval_many(masks)
        i = int(np.argmax(values))
        if best is None or values[i] > best[1]:
            best = int(masks[i]), float(values[i])
    if best is None:
        raise ValueError("no feasible subset")
    return best


def brute_unconstrained(f: SetFunction, n: int | None = None) -> tuple[int, float]:
    """argmax of f over all 2^n subsets."""
    return _argmax_blocks(f, _ground_size(f, n))


def brute_cardinality(f: SetFunction, n: int | None, k: int, mode: str = "eq") -> tuple[int, float]:
    """argmax of f over subsets with |S| = k ("eq") or |S| <= k ("le")."""
    if mode not in ("eq", "le"):
        raise ValueError("mode must be 'eq' or 'le'")
    n = _ground_size(f, n)
    if not 0 <= k <= n:
        raise ValueError("requires 0 <= k <= n")
    if mode == "eq":
        return _argmax_blocks(f, n, lambda masks: popcount_array(masks) == k)
    return _argmax_blocks(f, n, lambda masks: popcount_array(masks) <= k)


def _integral_members(P: Polytope, masks: np.ndarray, n: int) -> np.ndarray:
    if isinstance(P, CardinalityPolytope):
        return popcount_array(masks) <= P.k
    if isinstance(P, PartitionPolytope):
        ok = np.ones(masks.size, dtype=bool)
        for part, b in zip(P.parts, P.bounds):
            ok &= popcount_array(masks & as_mask(part, n)) <= b
        return ok
    if isinstance(P, KnapsackPolytope):
        return bits_from_masks(masks, n) @ P.a <= P.b + 1e-9
    # generic fallback through the membership oracle
    return np.array([P.membership(x) for x in bits_from_masks(masks, n).astype(float)], dtype=bool)


def brute_polytope_integral(f: SetFunction, P: Polytope, n: int | None = None) -> tuple[int, float]:
    """argmax of f over the integral points of P, i.e. {S : 1_S in P}."""
    n = _ground_size(f, n)
    if P.n != n:
        raise ValueError(f"polytope dimension {P.n} does not match the ground set of f (n = {n})")
    return _argmax_blocks(f, n, lambda masks: _integral_members(P, masks, n))
