"""Built-in and randomly generated desk-scale instances used by the test
suites and the sweep runner."""

from __future__ import annotations

from .rng import substream
from .setfn import (
    CoverageInstance,
    GraphCutInstance,
    HypergraphCutInstance,
    SetFunction,
    coverage_function,
    graph_cut_function,
    hypergraph_cut_function,
    modular_function,
    sum_functions,
)


def single_edge_cut(n: int = 2) -> SetFunction:
    return graph_cut_function(GraphCutInstance(n=n, edges=((0, 1, 1.0),)))


def triangle_cut() -> SetFunction:
    edges = ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))
    return graph_cut_function(GraphCutInstance(n=3, edges=edges))


def random_graph_cut(n: int, seed: int, edge_prob: float = 0.6) -> SetFunction:
    """Random weighted graph with at least one edge (so OPT > 0)."""
    if n < 2:
        raise ValueError(f"random_graph_cut needs n >= 2 for an edge, got n = {n}")
    rng = substream(seed, 0x6C)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v, float(rng.uniform(0.1, 1.0))))
    if not edges:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.append((u, v, float(rng.uniform(0.1, 1.0))))
    return graph_cut_function(GraphCutInstance(n=n, edges=tuple(edges)))


def random_hypergraph_cut(n: int, seed: int) -> SetFunction:
    if n < 2:
        raise ValueError(f"random_hypergraph_cut needs n >= 2 for a hyperedge, got n = {n}")
    rng = substream(seed, 0x47)
    hyperedges = []
    for _ in range(max(2, n)):
        arity = int(rng.integers(2, min(4, n) + 1))
        verts = frozenset(int(v) for v in rng.choice(n, size=arity, replace=False))
        hyperedges.append((verts, float(rng.uniform(0.1, 1.0))))
    return hypergraph_cut_function(HypergraphCutInstance(n=n, hyperedges=tuple(hyperedges)))


def random_symmetric_instance(n: int, seed: int) -> SetFunction:
    """Mix of graph and hypergraph cuts, all symmetric submodular."""
    if seed % 3 == 2 and n >= 3:
        return random_hypergraph_cut(n, seed)
    return random_graph_cut(n, seed)


def random_coverage(n: int, seed: int) -> SetFunction:
    rng = substream(seed, 0xC07)
    universe = 2 * n
    weights = tuple(float(w) for w in rng.uniform(0.1, 1.0, size=universe))
    membership = []
    for _ in range(n):
        size = int(rng.integers(1, max(2, universe // 2)))
        membership.append(tuple(int(j) for j in rng.choice(universe, size=size, replace=False)))
    return coverage_function(
        CoverageInstance(n=n, universe_weights=weights, membership=tuple(membership))
    )


def random_offset_cut(n: int, seed: int) -> SetFunction:
    """Graph cut plus a non-negative additive term: still non-negative
    submodular, no longer symmetric."""
    cut = random_graph_cut(n, seed)
    rng = substream(seed, 0x0FF)
    offset = modular_function(n, rng.uniform(0.05, 0.6, size=n))
    return sum_functions([cut, offset])
