"""Counter-derived random substreams for bit-reproducible experiments.

Every stochastic component draws from a generator identified by a root seed
plus an integer path (step index, purpose tag, ...).  Streams depend only on
those identifiers, never on draw order, so a parallel fan-out produces the
same numbers as a sequential run.  Each consumer of a run's seed leads its
paths with its own tag below, so no two consumers ever draw the same stream.
"""

from __future__ import annotations

import numpy as np

# leading path elements of the consumers of a run's seed
ASCENT_STREAM = 0xA5C  # mcg.ascend: (tag, step, side) and (tag, step, m + side, u)
PIPAGE_STREAM = 0x919  # pipage_round: (tag, move), shared by a move's two endpoints
WELFARE_STREAM = 0x5A  # simulate_random_assign: (tag,)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent Philox generator for the given (seed, path) identifier."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
