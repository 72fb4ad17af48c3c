#!/usr/bin/env python3
"""Write example instance JSON files for the CLI into a directory.

Usage: python scripts/generate_instances.py [--dir instances]
"""

import argparse
import json
import os
import sys

EXAMPLES = {
    "triangle.json": {
        "type": "graph_cut",
        "n": 3,
        "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]],
    },
    "hypergraph.json": {
        "type": "hypergraph_cut",
        "n": 5,
        "hyperedges": [[[0, 1, 2], 1.0], [[2, 3, 4], 0.5], [[0, 4], 2.0]],
    },
    "coverage.json": {
        "type": "coverage",
        "n": 4,
        "universe_weights": [1.0, 2.0, 0.5, 1.5],
        "membership": [[0, 1], [1, 2], [2, 3], [0, 3]],
    },
    "hardness.json": {"type": "hardness", "p": 1, "q": 2},
    "welfare_triangle3.json": {
        "type": "welfare",
        "k": 3,
        "utility": {
            "type": "graph_cut",
            "n": 3,
            "edges": [[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]],
        },
    },
    "knapsack_problem.json": {
        "type": "problem",
        "function": {
            "type": "graph_cut",
            "n": 4,
            "edges": [[0, 1, 1.0], [1, 2, 2.0], [2, 3, 1.0], [0, 3, 1.0]],
        },
        "polytope": {"type": "knapsack", "a": [1.0, 1.0, 2.0, 1.0], "b": 3.0},
    },
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", default="instances")
    args = ap.parse_args()
    os.makedirs(args.dir, exist_ok=True)
    for name, obj in EXAMPLES.items():
        path = os.path.join(args.dir, name)
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
