"""The random instance families of ``submax sweep``: seeded graph and
hypergraph cuts."""

from __future__ import annotations

from .rng import substream
from .setfn import SetFunction, graph_cut_function, hypergraph_cut_function


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
    return graph_cut_function(n, edges)


def random_hypergraph_cut(n: int, seed: int) -> SetFunction:
    if n < 2:
        raise ValueError(f"random_hypergraph_cut needs n >= 2 for a hyperedge, got n = {n}")
    rng = substream(seed, 0x47)
    hyperedges = []
    for _ in range(max(2, n)):
        arity = int(rng.integers(2, min(4, n) + 1))
        verts = rng.choice(n, size=arity, replace=False).tolist()
        hyperedges.append((verts, float(rng.uniform(0.1, 1.0))))
    return hypergraph_cut_function(n, hyperedges)
