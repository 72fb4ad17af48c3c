"""Submodular welfare with k identical utilities: the random-assignment
algorithm behind the 1 - (1 - 1/k)^(k-1) guarantee, its tight instance, and
an exhaustive solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import substream
from .setfn import GroundSet, SetFunction, _check_fields, set_function_from_json
from .subsets import MASK_BLOCK, full_mask, masks_from_bits, popcount_array

MAX_WELFARE_SEARCH = 10_000_000


def welfare_ratio(k: int) -> float:
    """Guaranteed fraction of opt for random assignment to k players."""
    return 1.0 - (1.0 - 1.0 / k) ** (k - 1)


@dataclass(frozen=True)
class WelfareInstance:
    items: GroundSet
    k: int
    utility: SetFunction

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("at least one player required")
        if self.utility.n != self.items.n:
            raise ValueError("utility ground set must match the item set")


@dataclass(frozen=True)
class Allocation:
    """Disjoint player bundles covering all items (bitmasks, one per player)."""

    parts: tuple[int, ...]
    instance: WelfareInstance

    def __post_init__(self):
        union = 0
        for part in self.parts:
            if union & part:
                raise ValueError("player bundles must be disjoint")
            union |= part
        if union != full_mask(self.instance.items.n):
            raise ValueError("player bundles must cover every item")

    @property
    def total(self) -> float:
        """Sum of utilities, recomputed from the oracle on access."""
        return float(sum(self.instance.utility.eval(p) for p in self.parts))


def simulate_random_assign(inst: WelfareInstance, trials: int, seed: int = 0) -> np.ndarray:
    """Totals of ``trials`` independent runs of random assignment (each item to
    a uniformly random player), vectorized through the batch oracle; row t of
    the seeded (trials, n) player draw is trial t's assignment."""
    n = inst.items.n
    rng = substream(seed, 0x5A)
    choice = rng.integers(0, inst.k, size=(trials, n))
    totals = np.zeros(trials)
    for player in range(inst.k):
        totals += inst.utility.eval_many(masks_from_bits(choice == player))
    return totals


def tight_instance(k: int) -> WelfareInstance:
    """The k-item instance on which random assignment is exactly tight:
    utility 1 - (|S| - 1)/(k - 1) for non-empty S, 0 for the empty set."""
    if k < 2:
        raise ValueError("requires k >= 2")

    def value_of_size(sizes):
        sizes = np.asarray(sizes, dtype=float)
        return np.where(sizes > 0, 1.0 - (sizes - 1.0) / (k - 1.0), 0.0)

    utility = SetFunction(
        k,
        symmetric=False,
        eval_many_masks=lambda masks: value_of_size(popcount_array(masks)),
        kind="welfare_tight",
        source={"k": k},
    )
    return WelfareInstance(GroundSet(k), k, utility)


def brute_force_welfare(inst: WelfareInstance) -> tuple[Allocation, float]:
    """Exhaustive search over all k^n assignments; ties go to the smallest
    assignment code (player index per item, item 0 least significant)."""
    n, k = inst.items.n, inst.k
    if k**n > MAX_WELFARE_SEARCH:
        raise ValueError(f"search space k^n = {k**n} exceeds {MAX_WELFARE_SEARCH}")
    best_total = -math.inf
    best_digits = np.zeros(n, dtype=np.int64)
    for start in range(0, k**n, MASK_BLOCK):
        codes = np.arange(start, min(start + MASK_BLOCK, k**n), dtype=np.int64)
        digits = (codes[:, None] // k ** np.arange(n, dtype=np.int64)) % k
        totals = np.zeros(codes.size)
        for player in range(k):
            totals += inst.utility.eval_many(masks_from_bits(digits == player))
        i = int(np.argmax(totals))
        if totals[i] > best_total:
            best_total = float(totals[i])
            best_digits = digits[i]
    bundles = masks_from_bits(best_digits == np.arange(k)[:, None])
    return Allocation(tuple(int(m) for m in bundles), inst), best_total


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def welfare_from_json(obj: dict) -> WelfareInstance:
    if not isinstance(obj, dict) or obj.get("type") != "welfare":
        raise ValueError("welfare instance object must have type 'welfare'")
    _check_fields(obj, {"type", "k", "utility"}, "welfare")
    utility = set_function_from_json(obj["utility"])
    return WelfareInstance(GroundSet(utility.n), int(obj["k"]), utility)
