"""Brute-force exact solvers: the ground truth behind every approximation-ratio
test.  All of them walk the bitmasks of [0, 2^n) (n <= 22) in ascending blocks
of ``MASK_BLOCK``, drop the infeasible masks of each block, evaluate the rest
in one batch, and break value ties toward the smallest mask.  Memory stays at
one block whatever n is.  A search over sets of a bounded size (|S| = k, or
at most a matroid polytope's rank) builds each block from its high bits and
a table of the low bits of each size, so it makes no mask of another size,
and when the size alone decides feasibility it runs no membership filter.

A symmetric f (``f.symmetric``) is searched over the masks without element
n - 1 only, half the cube.  Its maximizers are closed under complement, and
of S and N \\ S the one without element n - 1 is the smaller mask, so the
smallest maximizer lies in that half.  The search trusts the flag, which the
shipped families set when they are built and a restriction sets from its
relabelled rows.  The cut kernels give S and N \\ S bit-identical values (an edge
crosses S exactly when it crosses N \\ S), so the half search returns the
full search's set and value exactly.

A monotone f (``f.monotone``, trusted likewise) is not scanned: its maximizers,
the sets of value f(N), are closed upward, so a descent from N that drops
u = n - 1, ..., 0 while f(N) stays ends at the smallest in n + 1 oracle calls.
That descent has no size limit.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .polytope import Polytope
from .setfn import SetFunction
from .subsets import MASK_BLOCK, full_mask, popcount_array

MAX_BRUTE_N = 22


def _ground_size(f: SetFunction) -> int:
    """f.n, after checking that the search space is small enough."""
    if f.n > MAX_BRUTE_N:
        raise ValueError(f"brute force limited to n <= {MAX_BRUTE_N}, got {f.n}")
    return f.n


def _argmax_blocks(
    f: SetFunction,
    n: int,
    feasible: Callable[[np.ndarray], np.ndarray] | None = None,
    sizes: tuple[int, int] | None = None,
) -> tuple[int, float]:
    """(mask, value) maximizing f over the masks of [0, 2^n) with a number of
    elements in ``sizes`` (all of them when None) that ``feasible`` admits.
    Block h holds the masks whose bits above the lowest log2(MASK_BLOCK) are
    h.  It is built from h and the ascending low bits that bring its size
    into range, one table per range, so no mask of another size is made.
    Blocks ascend and a later block wins only on a strictly larger value, so
    a tie goes to the smallest mask."""
    low, high = sizes or (0, n)
    width = min(n, MASK_BLOCK.bit_length() - 1)
    lows = np.arange(1 << width, dtype=np.int64)
    lows_size = popcount_array(lows)
    tables: dict[tuple[int, int], np.ndarray] = {}
    best: tuple[int, float] | None = None
    for h in range(1 << (n - width)):
        taken = h.bit_count()
        key = max(low - taken, 0), min(high - taken, width)
        if key not in tables:
            tables[key] = lows[(lows_size >= key[0]) & (lows_size <= key[1])]
        masks = h << width | tables[key]
        if masks.size and feasible is not None:
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


def brute_unconstrained(f: SetFunction) -> tuple[int, float]:
    """argmax of f over all 2^n subsets: 2^n oracle calls, 2^(n-1) when f is
    flagged symmetric and n + 1 when it is flagged monotone (see the module
    docstring; the flags are trusted, not checked).  The scans keep
    n <= MAX_BRUTE_N; the descent runs at any n, on Python-int masks above
    62 elements."""
    if not f.monotone:
        n = _ground_size(f)
        return _argmax_blocks(f, max(n - 1, 0) if f.symmetric else n)
    n = f.n
    mask, best = full_mask(n), f.eval(full_mask(n))
    for u in reversed(range(n)):
        if f.eval(mask ^ 1 << u) == best:
            mask ^= 1 << u
    return mask, best


def brute_cardinality(f: SetFunction, k: int) -> tuple[int, float]:
    """argmax of f over the C(n, k) subsets with |S| = k; |S| <= k is the
    integral points of ``CardinalityPolytope(n, k)``
    (:func:`brute_polytope_integral`)."""
    n = _ground_size(f)
    if not 0 <= k <= n:
        raise ValueError("requires 0 <= k <= n")
    return _argmax_blocks(f, n, sizes=(k, k))


def brute_polytope_integral(f: SetFunction, P: Polytope) -> tuple[int, float]:
    """argmax of f over the integral points of P, i.e. {S : 1_S in P}: the
    sets of at most ``P.size_limit()`` elements, of which ``P.integral``
    picks the feasible ones unless their size alone decides."""
    n = _ground_size(f)
    if P.n != n:
        raise ValueError(f"polytope dimension {P.n} does not match the ground set of f (n = {n})")
    rank, exact = P.size_limit()
    return _argmax_blocks(f, n, None if exact else P.integral, (0, rank))
