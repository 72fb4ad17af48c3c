"""Down-monotone solvable polytopes: membership, a linear-maximization oracle,
and the density that governs how long the continuous ascent may run.

Three kinds ship (cardinality, partition matroid, single knapsack); anything
exposing the (membership, linear_maximize, density) triple plugs in the same
way.  All tie-breaking is by lowest element index so trajectories are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .setfn import GroundSet, _check_fields


class Polytope:
    """Interface shared by the shipped kinds; immutable after construction."""

    kind: str = "abstract"
    n: int

    @property
    def density(self) -> float:
        raise NotImplementedError

    def membership(self, x, tol: float = 1e-9) -> bool:
        raise NotImplementedError

    def linear_maximize(self, w) -> np.ndarray:
        """A point of P maximizing w . x (vertex for matroid kinds)."""
        raise NotImplementedError

    def singleton_feasible(self, u: int) -> bool:
        raise NotImplementedError

    def restrict(self, kept: list[int]) -> "Polytope":
        """The polytope over the kept elements (indices remapped in order)."""
        raise NotImplementedError

    def _box_ok(self, x: np.ndarray, tol: float) -> bool:
        return bool((x >= -tol).all() and (x <= 1.0 + tol).all())


class CardinalityPolytope(Polytope):
    """{x in [0,1]^n : sum x_u <= k}; density k/n."""

    kind = "cardinality"

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise ValueError("requires 0 <= k <= n")
        self.n = int(n)
        self.k = int(k)

    @property
    def density(self) -> float:
        return self.k / self.n if self.n else 0.0

    def membership(self, x, tol: float = 1e-9) -> bool:
        xa = np.asarray(x, dtype=float)
        return self._box_ok(xa, tol) and float(xa.sum()) <= self.k + tol

    def linear_maximize(self, w) -> np.ndarray:
        wa = np.asarray(w, dtype=float)
        out = np.zeros(self.n)
        order = np.argsort(-wa, kind="stable")
        take = [u for u in order[: self.k] if wa[u] > 0.0]
        out[take] = 1.0
        return out

    def singleton_feasible(self, u: int) -> bool:
        return self.k >= 1

    def restrict(self, kept: list[int]) -> "CardinalityPolytope":
        return CardinalityPolytope(len(kept), min(self.k, len(kept)))

    def __repr__(self):
        return f"CardinalityPolytope(n={self.n}, k={self.k})"


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
        return min(b / len(part) for part, b in zip(self.parts, self.bounds))

    def membership(self, x, tol: float = 1e-9) -> bool:
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

    def __repr__(self):
        return f"PartitionPolytope(parts={self.parts}, bounds={self.bounds})"


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

    def membership(self, x, tol: float = 1e-9) -> bool:
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
        return self.a[u] <= self.b

    def restrict(self, kept: list[int]) -> "KnapsackPolytope":
        return KnapsackPolytope(self.a[list(kept)], self.b)

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
    ground_set: GroundSet
    kept: tuple[int, ...]
    warning: str | None = None


def preprocess_reduction1(P: Polytope, gs: GroundSet) -> Reduction1Result:
    """Drop every element whose singleton is infeasible: such elements appear
    in no integral solution, and removing them can only raise the density."""
    kept = tuple(u for u in range(gs.n) if P.singleton_feasible(u))
    if len(kept) == gs.n:
        return Reduction1Result(P, gs, kept)
    labels = tuple(gs.labels[u] for u in kept) if gs.labels else None
    if not kept:
        empty = CardinalityPolytope(0, 0)
        return Reduction1Result(empty, GroundSet(0), kept, "all singletons infeasible; ground set is empty")
    return Reduction1Result(P.restrict(list(kept)), GroundSet(len(kept), labels), kept, None)


# ---------------------------------------------------------------------------
# JSON constraint files
# ---------------------------------------------------------------------------

_SCHEMAS = {
    "cardinality": {"type", "k"},
    "partition": {"type", "parts", "bounds"},
    "knapsack": {"type", "a", "b"},
}


def polytope_from_json(obj: dict, n: int) -> Polytope:
    """Build a polytope from a parsed constraint object (strict field names);
    n is the ground-set size of the instance it constrains."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("constraint object must be a dict with a 'type' field")
    kind = obj["type"]
    if kind not in _SCHEMAS:
        raise ValueError(f"unknown polytope type {kind!r}")
    _check_fields(obj, _SCHEMAS[kind], f"{kind} constraint")
    if kind == "cardinality":
        return CardinalityPolytope(n, int(obj["k"]))
    if kind == "partition":
        P = PartitionPolytope([list(map(int, p)) for p in obj["parts"]], [int(b) for b in obj["bounds"]])
    else:
        P = KnapsackPolytope([float(v) for v in obj["a"]], float(obj["b"]))
    if P.n != n:
        raise ValueError(f"{kind} constraint covers {P.n} elements, the instance has {n}")
    return P
