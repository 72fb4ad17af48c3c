"""Submodular welfare with k identical utilities: the random-assignment
algorithm behind the 1 - (1 - 1/k)^(k-1) guarantee and an exhaustive
solver, which returns the best bundles as plain masks.  Identical utilities
make every bundle one of the 2^n subsets, whose values the utility
tabulates once (``SetFunction.table``:
2^n oracle calls, 8 * 2^n bytes).  The solver walks the k^n assignments as
lookups in that table, ties going to the smallest assignment code; the
simulation looks its k * trials bundles up in it too whenever there are
more of them than subsets, so a simulation and a search on one utility ask
the oracle for each subset once between them.  The simulation walks its
trials in blocks of ``MASK_BLOCK``, so besides the table it holds only its
totals and one block.  The n items are the ground set of the shared
utility; ``cli`` reads an instance from a ``welfare`` instance file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import WELFARE_STREAM, substream
from .setfn import TABLE_LIMIT, SetFunction
from .subsets import MASK_BLOCK, full_mask, masks_from_bits

MAX_WELFARE_SEARCH = 10_000_000


def welfare_ratio(k: int) -> float:
    """Guaranteed fraction of opt for random assignment to k players."""
    return 1.0 - (1.0 - 1.0 / k) ** (k - 1)


@dataclass(frozen=True)
class WelfareInstance:
    """k players sharing one utility over its ground set, the items."""

    k: int
    utility: SetFunction

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("at least one player required")


def simulate_random_assign(inst: WelfareInstance, trials: int, seed: int = 0) -> np.ndarray:
    """Totals of ``trials`` independent runs of random assignment (each item to
    a uniformly random player); row t of the seeded (trials, n) player draw
    is trial t's assignment, and a total sums its bundles in player order.

    The trials are walked in consecutive blocks of ``MASK_BLOCK``: a block
    draws its rows of the player draw (consecutive draws from one generator
    are the one-shot draw), packs the k bundles of each of its trials into
    masks in one pass and adds their values into its totals.  So memory is
    the totals plus one block, plus the value table when it is read.  The
    bundles are valued by lookups in the utility's table when 2^n < k * trials
    and n <= ``TABLE_LIMIT`` (2^n oracle calls, once per utility; the table
    is then smaller than the bundles), and else through the batch oracle
    (k * trials calls).  A set has one value whichever way it is read, so
    the totals are the same bit for bit either way."""
    n, k, f = inst.utility.n, inst.k, inst.utility
    rng = substream(seed, WELFARE_STREAM)
    value = f.table().__getitem__ if n <= TABLE_LIMIT and (1 << n) < k * trials else f.eval_many
    players = np.arange(k)
    totals = np.zeros(trials)
    for start in range(0, trials, MASK_BLOCK):
        block = totals[start : start + MASK_BLOCK]
        choice = rng.integers(0, k, size=(block.size, n))
        bundles = value(masks_from_bits(choice[:, None, :] == players[None, :, None]))  # (block, k)
        for player in range(k):
            block += bundles[:, player]
    return totals


def brute_force_welfare(inst: WelfareInstance) -> tuple[tuple[int, ...], float]:
    """Exhaustive search over all k^n assignments: the best one's k disjoint
    bundles covering the items (bitmasks, in player order) and its total.
    Ties go to the smallest assignment code (player index per item, item 0
    least significant).

    Every bundle is one of the 2^n subsets, so for k >= 2 the search reads
    the utility's value table (``SetFunction.table``): 2^n oracle calls,
    none if a simulation or an earlier search already built it, and 8 * 2^n
    bytes kept as long as the utility (64 MB at the largest admitted case,
    k = 2, n = 23; it is built one block of masks at a time).
    The k^n codes are then walked in ascending blocks of table lookups,
    which is the search's time.  A code's total is the sum of its bundles'
    values in player order, and a later block wins only on a strictly larger
    total.  ``MAX_WELFARE_SEARCH`` bounds k^n.  k = 1 has one allocation: f(N) is
    asked once and no table is built, at any n.
    """
    n, k, f = inst.utility.n, inst.k, inst.utility
    if k == 1:
        everything = full_mask(n)
        return (everything,), 0.0 + f.eval(everything)  # summed from 0.0, as below
    if k**n > MAX_WELFARE_SEARCH:
        raise ValueError(f"search space k^n = {k**n} exceeds {MAX_WELFARE_SEARCH}")
    table = f.table()
    # code = high * k^low_n + low: the low items' bundles are precomputed once
    low_n = 0
    while low_n < n and k ** (low_n + 1) <= MASK_BLOCK:
        low_n += 1
    low, high = _bundle_masks(k, low_n, 0), _bundle_masks(k, n - low_n, low_n)
    width = k**low_n
    rows = max(1, MASK_BLOCK // width)
    best_total, best_code = -math.inf, 0
    for start in range(0, high.shape[1], rows):
        totals = np.zeros(min(rows, high.shape[1] - start) * width)
        for player in range(k):
            totals += table[high[player, start : start + rows, None] | low[player, None, :]].ravel()
        i = int(np.argmax(totals))
        if totals[i] > best_total:
            best_total, best_code = float(totals[i]), start * width + i
    hi, lo = divmod(best_code, width)
    return tuple(int(high[p, hi] | low[p, lo]) for p in range(k)), best_total


def _bundle_masks(k: int, items: int, shift: int) -> np.ndarray:
    """(k, k^items) masks: entry [p, c] holds the items among
    shift..shift+items-1 that code c's base-k digits give to player p."""
    codes = np.arange(k**items, dtype=np.int64)
    digits = (codes[:, None] // k ** np.arange(items, dtype=np.int64)) % k
    return masks_from_bits(digits[None] == np.arange(k)[:, None, None]) << shift
