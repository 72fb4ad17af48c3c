#!/usr/bin/env python3
"""Achieved ratio against ascent step count (informational, not gated).

Runs ``mcg`` and ``dmcg-symmetric`` with the exact estimator on seeded graph
cuts at n in {12, 16}, k = n/4, with steps in {n, 5n, 25n, 100n} (100n is the
CLI default), and prints one JSON line per run: ratio, guarantee, oracle
calls and wall time.  It shows how many of the default steps the ratio needs.

    python3 bench/curve.py --seed 1
"""

from __future__ import annotations

from bootstrap import ROOT  # noqa: F401  (first: pins BLAS threads and finds src/)

import argparse
import json
import sys

import harness
import instances as gen
from workloads import Job

NS = (12, 16)
STEP_MULTIPLIERS = (1, 5, 25, 100)
ALGORITHMS = ("mcg", "dmcg-symmetric")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    failed = 0
    with harness.Workdir() as workdir:
        for n in NS:
            name = f"curve-cut-n{n}"
            instance = gen.graph_cut(gen.job_rng(args.seed, name), n, 3 * n)
            for algorithm in ALGORITHMS:
                for mult in STEP_MULTIPLIERS:
                    job = Job(f"{name}-{algorithm}-steps{mult * n}", algorithm, instance,
                              ("--steps", str(mult * n)), max(1, n // 4))
                    (prepared,) = harness.prepare([job], workdir)
                    result = harness.run_job(prepared, args.seed)
                    report = result.report or {}
                    failed += result.failed
                    print(json.dumps({
                        "algorithm": algorithm,
                        "n": n,
                        "steps": mult * n,
                        "achieved_ratio": report.get("achieved_ratio"),
                        "theoretical_ratio": report.get("theoretical_ratio"),
                        "oracle_calls": report.get("oracle_calls"),
                        "seconds": result.seconds,
                        "failed": result.reasons,
                    }), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
