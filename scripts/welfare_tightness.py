#!/usr/bin/env python3
"""Empirical tightness of random assignment on its worst-case instance.

For each player count k, simulates the uniform random assignment on the
k-item tight instance and compares the mean welfare against the exact value
k [1 - (1 - 1/k)^(k-1)]; on this instance the guarantee holds with equality,
so the estimate should land within a few standard errors of the formula.

Usage: python scripts/welfare_tightness.py [--kmax 8] [--trials 100000]
"""

import argparse
import sys

from submax.reports import mean_and_sigma
from submax.welfare import simulate_random_assign, tight_instance, welfare_ratio


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--kmax", type=int, default=8)
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'k':>3} {'mean welfare':>13} {'k*ratio':>9} {'sigma':>8} {'z':>6} {'ratio':>7}")
    worst_z = 0.0
    for k in range(2, args.kmax + 1):
        inst = tight_instance(k)
        mean, sigma = mean_and_sigma(simulate_random_assign(inst, args.trials, seed=args.seed + k))
        expect = k * welfare_ratio(k)
        z = (mean - expect) / sigma if sigma else 0.0
        worst_z = max(worst_z, abs(z))
        print(f"{k:3d} {mean:13.5f} {expect:9.5f} {sigma:8.5f} {z:+6.2f} {welfare_ratio(k):7.4f}")
    print(f"worst |z| = {worst_z:.2f} (expected O(1); the bound is tight on this instance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
