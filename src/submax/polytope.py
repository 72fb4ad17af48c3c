"""Down-monotone solvable polytopes: membership, a linear-maximization oracle,
and the density that governs how long the continuous ascent may run.

Three kinds ship: the partition matroid, cardinality (its one-part case) and
the single knapsack.  A kind plugs in through :class:`Polytope`: ``n``,
``kind``, ``density``, ``membership``, ``linear_maximize``, and for
Reduction 1 ``singleton_feasible`` and ``restrict``; ``size_limit`` and
``integral`` (the brute force's size range and filter) and ``parts``
(pipage's) have defaults.  All tie-breaking is by lowest element index so
trajectories are deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .subsets import as_mask, bits_from_masks, popcount_array

SLACK = 1e-9  # of every feasibility test: membership, a knapsack's singletons and its integral points, the trajectory checks


class Polytope:
    """Interface shared by the shipped kinds; immutable after construction."""

    kind: str = "abstract"
    n: int
    parts: list[list[int]] | None = None  # a matroid kind's parts, the only sets pipage rounds within

    @property
    def density(self) -> float:
        raise NotImplementedError

    def membership(self, x, tol: float = SLACK) -> bool:
        raise NotImplementedError

    def linear_maximize(self, w) -> np.ndarray:
        """A point of P maximizing w . x (vertex for matroid kinds)."""
        raise NotImplementedError

    def singleton_feasible(self, u: int) -> bool:
        raise NotImplementedError

    def restrict(self, kept: list[int]) -> "Polytope":
        """The polytope over the kept elements (indices remapped in order)."""
        raise NotImplementedError

    def size_limit(self) -> tuple[int, bool]:
        """(r, exact): no integral point of P has more than r elements, and
        when ``exact`` every set of at most r elements is one, so the size
        alone decides.  The default bounds nothing: (n, False)."""
        return self.n, False

    def integral(self, masks: np.ndarray) -> np.ndarray:
        """Which int64 bitmasks S have 1_S in P, by one membership test each."""
        return np.array([self.membership(x) for x in bits_from_masks(masks, self.n).astype(float)], dtype=bool)

    def _box_ok(self, x: np.ndarray, tol: float) -> bool:
        return bool((x >= -tol).all() and (x <= 1.0 + tol).all())


class PartitionPolytope(Polytope):
    """Partition matroid: per-part sums bounded, sum_{u in part_i} x_u <= b_i."""

    kind = "partition"

    def __init__(self, parts: list[list[int]], bounds: list[int]):
        if len(parts) != len(bounds):
            raise ValueError("one bound per part")
        seen: set[int] = set()
        for part in parts:
            if not part:
                raise ValueError("parts must be non-empty")
            for u in part:
                if u in seen:
                    raise ValueError("parts must be disjoint")
                seen.add(u)
        if seen != set(range(len(seen))):
            raise ValueError("parts must cover 0..n-1")
        if any(b < 0 for b in bounds):
            raise ValueError("bounds must be non-negative")
        self.parts = [sorted(int(u) for u in part) for part in parts]
        self.bounds = [int(b) for b in bounds]
        self.n = len(seen)

    @property
    def density(self) -> float:
        return min((b / len(part) for part, b in zip(self.parts, self.bounds)), default=0.0)

    def membership(self, x, tol: float = SLACK) -> bool:
        xa = np.asarray(x, dtype=float)
        if not self._box_ok(xa, tol):
            return False
        return all(float(xa[part].sum()) <= b + tol for part, b in zip(self.parts, self.bounds))

    def linear_maximize(self, w) -> np.ndarray:
        wa = np.asarray(w, dtype=float)
        out = np.zeros(self.n)
        for part, b in zip(self.parts, self.bounds):
            part_arr = np.array(part)
            order = np.argsort(-wa[part_arr], kind="stable")
            take = [part_arr[i] for i in order[:b] if wa[part_arr[i]] > 0.0]
            out[take] = 1.0
        return out

    def singleton_feasible(self, u: int) -> bool:
        for part, b in zip(self.parts, self.bounds):
            if u in part:
                return b >= 1
        raise ValueError(f"element {u} not covered by any part")

    def restrict(self, kept: list[int]) -> "PartitionPolytope":
        remap = {u: i for i, u in enumerate(kept)}
        parts, bounds = [], []
        for part, b in zip(self.parts, self.bounds):
            new_part = [remap[u] for u in part if u in remap]
            if new_part:
                parts.append(new_part)
                bounds.append(b)
        return PartitionPolytope(parts, bounds)

    def size_limit(self) -> tuple[int, bool]:
        """The rank sum_i min(b_i, |part_i|); it decides membership when no
        part bounds a set of that size, as with one part or no binding bound."""
        rank = sum(min(b, len(part)) for part, b in zip(self.parts, self.bounds))
        return rank, all(min(rank, len(part)) <= b for part, b in zip(self.parts, self.bounds))

    def integral(self, masks: np.ndarray) -> np.ndarray:
        ok = np.ones(masks.size, dtype=bool)
        for part, b in zip(self.parts, self.bounds):
            ok &= popcount_array(masks & as_mask(part, self.n)) <= b
        return ok

    def __repr__(self):
        return f"PartitionPolytope(parts={self.parts}, bounds={self.bounds})"


class CardinalityPolytope(PartitionPolytope):
    """{x in [0,1]^n : sum x_u <= k}: the partition matroid of the one part
    range(n) with bound k (no part when n = 0); density k/n."""

    kind = "cardinality"

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise ValueError("requires 0 <= k <= n")
        super().__init__([list(range(n))] if n else [], [k] if n else [])
        self.k = int(k)

    def linear_maximize(self, w) -> np.ndarray:
        wa = np.asarray(w, dtype=float)
        out = np.zeros(self.n)
        order = np.argsort(-wa, kind="stable")
        take = [u for u in order[: self.k] if wa[u] > 0.0]
        out[take] = 1.0
        return out

    def __repr__(self):
        return f"CardinalityPolytope(n={self.n}, k={self.k})"


class KnapsackPolytope(Polytope):
    """Single knapsack {x in [0,1]^n : a . x <= b} with a >= 0."""

    kind = "knapsack"

    def __init__(self, a, b: float):
        self.a = np.asarray(a, dtype=float)
        if (self.a < 0).any():
            raise ValueError("knapsack coefficients must be non-negative")
        if self.a.sum() <= 0:
            raise ValueError("at least one coefficient must be positive")
        self.b = float(b)
        if self.b < 0:
            raise ValueError("capacity must be non-negative")
        self.n = self.a.size

    @property
    def density(self) -> float:
        return self.b / float(self.a.sum())

    def membership(self, x, tol: float = SLACK) -> bool:
        xa = np.asarray(x, dtype=float)
        return self._box_ok(xa, tol) and float(self.a @ xa) <= self.b + tol

    def linear_maximize(self, w) -> np.ndarray:
        # fractional-knapsack optimum of the LP relaxation: zero-cost items
        # with positive weight first, then by weight density, one fractional.
        wa = np.asarray(w, dtype=float)
        out = np.zeros(self.n)
        free = [u for u in range(self.n) if self.a[u] == 0.0 and wa[u] > 0.0]
        out[free] = 1.0
        remaining = self.b
        density = np.where(self.a > 0, wa / np.where(self.a > 0, self.a, 1.0), -np.inf)
        for u in np.argsort(-density, kind="stable"):
            if wa[u] <= 0.0 or self.a[u] == 0.0:
                continue
            if remaining <= 0.0:
                break
            take = min(1.0, remaining / self.a[u])
            out[u] = take
            remaining -= take * self.a[u]
        return out

    def singleton_feasible(self, u: int) -> bool:
        return self.a[u] <= self.b + SLACK

    def restrict(self, kept: list[int]) -> Polytope:
        """The knapsack over the kept items; if all their coefficients are 0
        they face no constraint, and the result is the cube (density 1)."""
        a = self.a[list(kept)]
        return KnapsackPolytope(a, self.b) if a.sum() > 0 else CardinalityPolytope(a.size, a.size)

    def integral(self, masks: np.ndarray) -> np.ndarray:
        """a(S) <= b + SLACK, with a(S) summed from one table per byte of the
        mask: 3 lookups per mask at the brute force's n <= 22."""
        load = np.zeros(masks.shape)
        for byte, table in enumerate(self._byte_loads):
            load += table[(masks >> 8 * byte) & 255]
        return load <= self.b + SLACK

    @functools.cached_property
    def _byte_loads(self) -> list[np.ndarray]:
        """Table per byte of a mask: entry v is a(S) for the elements v's
        bits name in that byte."""
        bits = bits_from_masks(np.arange(256), 8).astype(float)
        return [bits[:, : len(chunk)] @ chunk for chunk in (self.a[i : i + 8] for i in range(0, self.n, 8))]

    def __repr__(self):
        return f"KnapsackPolytope(a={self.a.tolist()}, b={self.b})"


def horizon(P: Polytope, steps: int | None = None) -> float:
    """How long the measured ascent may run and keep its output inside P.

    The continuous flow (steps None) may run to T_P = -ln(1 - d + n^-4) / d,
    d = d(P).  The discrete updates y + delta v (1 - y) grow mass faster, so
    s steps may run only to T_s = s (1 - (1 - d + n^-4)^(1/(d s))): by
    1 - delta d <= (1 - delta)^d, the output then stays inside P.  T_s tends
    to T_P as s grows and always keeps delta = T_s / s below 1.  A density
    above 1 (a constraint the whole cube satisfies) counts as 1."""
    d = min(P.density, 1.0)
    if d <= 0:
        raise ValueError("horizon requires positive density")
    log_slack = math.log(1.0 - d + P.n ** -4.0)
    return -log_slack / d if steps is None else -steps * math.expm1(log_slack / (d * steps))


@dataclass(frozen=True)
class Reduction1Result:
    polytope: Polytope
    kept: tuple[int, ...]
    warning: str | None = None


def preprocess_reduction1(P: Polytope) -> Reduction1Result:
    """Drop every element whose singleton is infeasible: such elements appear
    in no integral solution, and removing them can only raise the density."""
    kept = tuple(u for u in range(P.n) if P.singleton_feasible(u))
    if len(kept) == P.n:
        return Reduction1Result(P, kept)
    if not kept:
        empty = CardinalityPolytope(0, 0)
        return Reduction1Result(empty, kept, "all singletons infeasible; ground set is empty")
    return Reduction1Result(P.restrict(list(kept)), kept, None)
