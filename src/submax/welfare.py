"""Submodular welfare with k identical utilities: the random-assignment
algorithm, its tight instance, an exhaustive solver, and the statistical
bounds behind the 1 - (1 - 1/k)^(k-1) guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reports import CheckReport, mean_and_sigma
from .rng import substream
from .setfn import GroundSet, SetFunction, _check_fields, set_function_from_json
from .subsets import MASK_BLOCK, full_mask, popcount_array

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


def random_assign(inst: WelfareInstance, seed: int = 0) -> Allocation:
    """Assign every item to a uniformly random player (n draws, k oracle
    calls when the total is read)."""
    n = inst.items.n
    rng = substream(seed, 0x5A)
    choice = rng.integers(0, inst.k, size=n)
    parts = [0] * inst.k
    for u in range(n):
        parts[int(choice[u])] |= 1 << u
    return Allocation(tuple(parts), inst)


def simulate_random_assign(inst: WelfareInstance, trials: int, seed: int = 0) -> np.ndarray:
    """Totals of ``trials`` independent seeded runs, vectorized through the
    batch oracle; trial t equals random_assign(inst, seed) redrawn."""
    n = inst.items.n
    rng = substream(seed, 0x5A)
    choice = rng.integers(0, inst.k, size=(trials, n))
    shifts = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
    totals = np.zeros(trials)
    for player in range(inst.k):
        masks = ((choice == player) * shifts).sum(axis=1)
        totals += inst.utility.eval_many(masks)
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
    best_code = 0
    shifts = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
    for start in range(0, k**n, MASK_BLOCK):
        codes = np.arange(start, min(start + MASK_BLOCK, k**n), dtype=np.int64)
        digits = (codes[:, None] // k ** np.arange(n, dtype=np.int64)) % k
        totals = np.zeros(codes.size)
        for player in range(k):
            masks = ((digits == player) * shifts).sum(axis=1)
            totals += inst.utility.eval_many(masks)
        i = int(np.argmax(totals))
        if totals[i] > best_total:
            best_total = float(totals[i])
            best_code = int(codes[i])
    parts = [0] * k
    code = best_code
    for u in range(n):
        parts[code % k] |= 1 << u
        code //= k
    return Allocation(tuple(parts), inst), best_total


# ---------------------------------------------------------------------------
# statistical checks
# ---------------------------------------------------------------------------


def check_partial_union_bounds(
    inst: WelfareInstance,
    optimal: Allocation,
    trials: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """Monte-Carlo audit of the subsampled prefix-union bound: with T_i the
    union of i optimal bundles in random order, each prefix subsampled at
    rate 1/k satisfies E[f(T_i(1/k))] >= [(k^2-i)/(k(k-1)) - (1-1/k)^(i-1)]
    * opt/k, for every 0 <= i <= k, within 4 sigma."""
    n, k = inst.items.n, inst.k
    if k < 2:
        raise ValueError("requires k >= 2")
    opt_value = optimal.total
    # player owning each item under the optimal allocation
    owner = np.zeros(n, dtype=np.int64)
    for player, part in enumerate(optimal.parts):
        for u in range(n):
            if (part >> u) & 1:
                owner[u] = player
    rng = substream(seed, 0x9C)
    ranks = np.argsort(rng.random((trials, k)), axis=1).argsort(axis=1)  # rank of each player
    keep = rng.random((trials, n)) < (1.0 / k)
    shifts = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
    item_rank = ranks[:, owner]  # (trials, n)

    results = {}
    passed = True
    for i in range(k + 1):
        masks = (((item_rank < i) & keep) * shifts).sum(axis=1)
        est, sigma = mean_and_sigma(inst.utility.eval_many(masks))
        bound = ((k**2 - i) / (k * (k - 1)) - (1.0 - 1.0 / k) ** (i - 1)) * opt_value / k
        ok = est >= bound - 4.0 * sigma - 1e-12
        passed = passed and ok
        results[f"i={i}"] = {"estimate": est, "bound": bound, "sigma": sigma, "ok": ok}
    return CheckReport("prefix-union subsampling bounds", passed, details=results)


def check_disjoint_unions(
    f: SetFunction,
    family: list[int],
    trials: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """For disjoint A_1..A_l and each 1 <= h <= l, the union of h sets drawn
    without replacement obeys E[f(union)] >= (1 - (h-1)/(l-1)) * avg f(A_i)
    within 4 sigma."""
    ell = len(family)
    if ell < 2:
        raise ValueError("requires at least 2 disjoint sets")
    union = 0
    for mask in family:
        if union & mask:
            raise ValueError("family must be disjoint")
        union |= mask
    avg = float(np.mean([f.eval(m) for m in family]))
    fam = np.array(family, dtype=np.int64)
    rng = substream(seed, 0xD15)
    picks = np.argsort(rng.random((trials, ell)), axis=1)  # random order of the family
    results = {}
    passed = True
    for h in range(1, ell + 1):
        masks = np.zeros(trials, dtype=np.int64)
        for j in range(h):
            masks |= fam[picks[:, j]]
        est, sigma = mean_and_sigma(f.eval_many(masks))
        bound = (1.0 - (h - 1) / (ell - 1)) * avg
        ok = est >= bound - 4.0 * sigma - 1e-12
        passed = passed and ok
        results[f"h={h}"] = {"estimate": est, "bound": bound, "sigma": sigma, "ok": ok}
    return CheckReport("disjoint-union sampling bound", passed, details=results)


def check_repeated_subsample_union(
    f: SetFunction,
    family: list[int],
    p: float,
    trials: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """For arbitrary (possibly overlapping) A_1..A_l, independently keeping
    each set's elements with probability p satisfies
    E[f(union A_i(p))] >= sum_{I subseteq [l]} p^|I| (1-p)^(l-|I|) f(union_{i in I} A_i)
    within 4 sigma; the right side is computed exactly."""
    ell = len(family)
    n = f.n
    rng = substream(seed, 0x4E9)
    members = [np.array([u for u in range(n) if (m >> u) & 1], dtype=np.int64) for m in family]
    masks = np.zeros(trials, dtype=np.int64)
    for mem in members:
        if mem.size == 0:
            continue
        keep = rng.random((trials, mem.size)) < p
        masks |= (keep * np.left_shift(np.int64(1), mem)).sum(axis=1)
    est, sigma = mean_and_sigma(f.eval_many(masks))
    bound = 0.0
    for idx in range(1 << ell):
        union = 0
        for i in range(ell):
            if (idx >> i) & 1:
                union |= family[i]
        size = bin(idx).count("1")
        bound += p**size * (1.0 - p) ** (ell - size) * f.eval(union)
    return CheckReport(
        "independent-subsample union bound",
        est >= bound - 4.0 * sigma - 1e-12,
        details={"estimate": est, "bound": bound, "sigma": sigma, "p": p, "l": ell},
    )


def check_sampled_union_bounds(f: SetFunction, trials: int = 100_000, seed: int = 0) -> CheckReport:
    """Both union-sampling bounds on randomly drawn families over f's ground
    set: (a) the disjoint-union draw bound for every draw count h, and
    (b) the independent-subsample union bound at p in {0.25, 0.5} for a
    possibly-overlapping family (right sides computed exactly)."""
    n = f.n
    if n < 4:
        raise ValueError("needs at least 4 elements to build a 2-part family")
    rng = substream(seed, 0xAC)
    ell = int(rng.integers(2, min(4, n // 2) + 1))
    perm = rng.permutation(n)
    chunks = np.array_split(perm[: 2 * (n // 2)], ell)
    disjoint = [int(sum(1 << int(u) for u in chunk)) for chunk in chunks if len(chunk)]
    overlapping = [int(rng.integers(1, 1 << n)) for _ in range(int(rng.integers(2, 4)))]
    parts = [check_disjoint_unions(f, disjoint, trials, seed + 1)]
    for i, p in enumerate((0.25, 0.5)):
        parts.append(check_repeated_subsample_union(f, overlapping, p, trials, seed + 2 + i))
    return CheckReport(
        "union sampling bounds",
        all(r.passed for r in parts),
        details={r.name + (f" p={r.details['p']}" if "p" in r.details else ""): r.details for r in parts},
    )


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def welfare_from_json(obj: dict) -> WelfareInstance:
    if not isinstance(obj, dict) or obj.get("type") != "welfare":
        raise ValueError("welfare instance object must have type 'welfare'")
    _check_fields(obj, {"type", "k", "utility"}, "welfare")
    utility = set_function_from_json(obj["utility"])
    return WelfareInstance(GroundSet(utility.n), int(obj["k"]), utility)
