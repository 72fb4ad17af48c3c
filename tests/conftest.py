"""Shared helpers for the test suites."""

from itertools import combinations

import numpy as np

from submax.polytope import CardinalityPolytope, KnapsackPolytope, PartitionPolytope

POLYTOPE_KINDS = ("cardinality", "partition", "knapsack")


def brute_direction_value(w1, w2, c1, c2, k, coeff):
    """Exhaustive max-min direction oracle: best of min(A, B) over every
    hypersimplex vertex and every pairwise equalizing mix of two vertices."""
    n = len(w1)
    base1 = coeff * c1
    base2 = coeff * c2 + float(np.sum(w2))
    verts = []
    for comb in combinations(range(n), k):
        I = np.zeros(n)
        I[list(comb)] = 1.0
        a = base1 + float(np.dot(w1, I))
        b = base2 - float(np.dot(w2, I))
        verts.append((a, b))
    best = max(min(a, b) for a, b in verts)
    for (a1, b1), (a2, b2) in combinations(verts, 2):
        d1, d2 = a1 - b1, a2 - b2
        if d1 == d2:
            continue
        theta = d1 / (d1 - d2)
        if 0.0 <= theta <= 1.0:
            best = max(best, (1 - theta) * a1 + theta * a2)
    return best


def random_polytope(n, rng, kind=None):
    """A random cardinality, partition (up to three parts) or knapsack
    polytope over n >= 2 elements; the kind is drawn from rng unless given."""
    kind = POLYTOPE_KINDS[rng.integers(0, 3)] if kind is None else kind
    if kind == "cardinality":
        return CardinalityPolytope(n, int(rng.integers(1, n + 1)))
    if kind == "partition":
        cuts = sorted(rng.choice(np.arange(1, n), size=min(2, n - 1), replace=False).tolist())
        edges = [0, *cuts, n]
        parts = [list(range(edges[i], edges[i + 1])) for i in range(len(edges) - 1)]
        bounds = [int(rng.integers(1, len(p) + 1)) for p in parts]
        return PartitionPolytope(parts, bounds)
    a = rng.uniform(0.2, 1.5, size=n)
    return KnapsackPolytope(a, float(rng.uniform(0.5, a.sum())))
