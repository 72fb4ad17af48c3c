"""Seeded instance generator for the benchmark, independent of ``submax``.

Instances are plain JSON objects in the ``submax run --instance`` file format.
Every draw comes from a ``random.Random`` keyed by (workload seed, job name),
so the same seed gives the same files whatever the library does, and one job's
instance does not change when another job is added or removed.

Sizes are fixed per job (edge, hyperedge and universe counts do not depend on
the seed), so the oracle work of a job is the same for every seed and only the
data-dependent parts of the solvers (cleanup, bisection, rounding moves) vary.
"""

from __future__ import annotations

import random
from itertools import combinations


def job_rng(seed: int, job: str) -> random.Random:
    # str seeds are hashed with SHA-512 by random.Random: stable across runs
    return random.Random(f"submax-bench:{seed}:{job}")


def _weight(rng: random.Random) -> float:
    return round(rng.uniform(0.1, 1.0), 6)


def graph_cut(rng: random.Random, n: int, m: int) -> dict:
    """Weighted graph with exactly ``m`` distinct edges."""
    pairs = rng.sample(list(combinations(range(n), 2)), m)
    return {"type": "graph_cut", "n": n, "edges": [[u, v, _weight(rng)] for u, v in sorted(pairs)]}


def hypergraph_cut(rng: random.Random, n: int, m: int, max_arity: int = 4) -> dict:
    """``m`` hyperedges of arity 2..max_arity."""
    hyperedges = []
    for _ in range(m):
        verts = sorted(rng.sample(range(n), rng.randint(2, max_arity)))
        hyperedges.append([verts, _weight(rng)])
    return {"type": "hypergraph_cut", "n": n, "hyperedges": hyperedges}


def coverage(rng: random.Random, n: int, universe: int) -> dict:
    """Weighted coverage: element i covers between 1 and universe/2 items."""
    weights = [_weight(rng) for _ in range(universe)]
    membership = [sorted(rng.sample(range(universe), rng.randint(1, universe // 2))) for _ in range(n)]
    return {"type": "coverage", "n": n, "universe_weights": weights, "membership": membership}


def partition_problem(function: dict, bounds: tuple[int, int]) -> dict:
    """``function`` under a two-part partition matroid: low half, high half."""
    n = function["n"]
    parts = [list(range(n // 2)), list(range(n // 2, n))]
    return {
        "type": "problem",
        "function": function,
        "polytope": {"type": "partition", "parts": parts, "bounds": list(bounds)},
    }


def welfare(utility: dict, k: int) -> dict:
    return {"type": "welfare", "k": k, "utility": utility}


def value(obj: dict, subset: list[int]) -> float:
    """f(subset) computed from the instance object alone (reference check)."""
    if obj["type"] == "problem":
        return value(obj["function"], subset)
    s = set(subset)
    if obj["type"] == "graph_cut":
        return sum(w for u, v, w in obj["edges"] if (u in s) != (v in s))
    if obj["type"] == "hypergraph_cut":
        return sum(w for verts, w in obj["hyperedges"] if 0 < len(s.intersection(verts)) < len(verts))
    if obj["type"] == "coverage":
        covered = set()
        for u in s:
            covered.update(obj["membership"][u])
        return sum(obj["universe_weights"][j] for j in covered)
    raise ValueError(f"no reference value for instance type {obj['type']!r}")


def feasible(obj: dict, subset: list[int], algorithm: str, k: int | None) -> bool:
    """Whether ``subset`` satisfies the constraint the job was run under."""
    if obj["type"] == "problem":
        poly = obj["polytope"]
        if poly["type"] != "partition":
            raise ValueError(f"no feasibility check for polytope type {poly['type']!r}")
        return all(len(set(part).intersection(subset)) <= b for part, b in zip(poly["parts"], poly["bounds"]))
    if algorithm == "mcg":
        return len(subset) <= k
    if algorithm.startswith("dmcg"):
        return len(subset) == k
    return True
