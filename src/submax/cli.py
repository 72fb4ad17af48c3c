"""Experiment runner: load an instance, run an algorithm, compare against the
brute-force oracle, and emit a reproducible report.

Every algorithm takes one path: :func:`_check` validates all flags before any
work starts and binds the algorithm's solver, the solver runs, and
:func:`_run_algorithm` verifies the result against the brute-force optimum.

Reports are JSON with a deterministic ``report`` block (hashed) and a
``metadata`` block (timestamp, wall time, host) excluded from determinism;
``--format csv`` writes a flat projection of the report block.  Exit codes:
0 success, 1 instance parse error, 2 inconsistent flags, 3 oracle required
(by --require-oracle, or by a brute-force algorithm) but unavailable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import partial

import numpy as np

from . import selfcheck
from .dmcg import DmcgConfig, reduction2, run_dmcg
from .fixtures import random_graph_cut, random_hypergraph_cut
from .mcg import McgConfig, run_mcg
from .multilinear import EXACT_TABLE_LIMIT, Estimator, MultilinearEvaluator, Point, backend
from .oracle import MAX_BRUTE_N, brute_cardinality, brute_polytope_integral, brute_unconstrained
from .pipage import pipage_round
from .polytope import CardinalityPolytope, polytope_from_json, preprocess_reduction1
from .setfn import SetFunction, _check_fields, restrict_function, set_function_from_json
from .subsets import MAX_MASK_BITS, as_mask, full_mask, indices
from .twosided import run_two_sided
from .welfare import (
    MAX_WELFARE_SEARCH,
    brute_force_welfare,
    simulate_random_assign,
    welfare_from_json,
    welfare_ratio,
)

ALGORITHMS = (
    "mcg",
    "dmcg-symmetric",
    "dmcg-general",
    "two-sided",
    "welfare-random",
    "brute-unconstrained",
    "brute-cardinality-eq",
    "brute-cardinality-le",
    "brute-polytope",
)


class FlagError(Exception):
    """Inconsistent flags for the chosen algorithm (exit code 2)."""


class ParseError(Exception):
    """Instance file failed to parse or validate (exit code 1)."""


class OracleUnavailable(Exception):
    """--require-oracle was set but the brute-force oracle cannot run."""


def _load_instance(path: str):
    """Returns (set_function | None, polytope_json | None, welfare | None)."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read instance file: {exc}") from exc
    try:
        if not isinstance(obj, dict) or "type" not in obj:
            raise ValueError("instance object must carry a 'type' field")
        kind = obj["type"]
        if kind == "welfare":
            return None, None, welfare_from_json(obj)
        if kind == "problem":
            _check_fields(obj, {"type", "function", "polytope"}, "problem")
            f = set_function_from_json(obj["function"])
            return f, obj["polytope"], None
        return set_function_from_json(obj), None, None
    except (ValueError, TypeError, KeyError) as exc:
        raise ParseError(str(exc)) from exc


def _estimator(f: SetFunction, samples: int | None, seed: int) -> Estimator:
    """Sampled if --samples is given; otherwise exact whenever F has a closed
    form or the value table fits, and sampled beyond that."""
    if samples is not None:
        return Estimator(mode="sampled", samples=samples, seed=seed)
    if f.multilinear is not None or f.n <= EXACT_TABLE_LIMIT:
        return Estimator(mode="exact")
    return Estimator(mode="sampled", seed=seed)


def _fractional_value(f: SetFunction, y: Point, est: Estimator) -> float:
    return MultilinearEvaluator(f, est).value(y, stream=(999, 0))


def _theoretical_curve(k: int, n: int) -> float:
    kk = min(k, n - k)
    if kk == 0:
        return 1.0
    return 0.5 * (1.0 - (1.0 - kk / n) ** (2 * n / kk))


def _schedule(cfg, n: int, bound) -> tuple[float, int, float, bool]:
    """The ascent's resolved (T, steps, delta, theoretical_regime); a bad
    --T or --steps is a flag error."""
    try:
        return cfg.resolve(n, bound)
    except ValueError as exc:
        raise FlagError(str(exc)) from exc


# A solver returns its report fields, the value its ratio is measured on, and
# a thunk that returns the brute-force oracle's fields, "oracle_opt" among them.
Solved = tuple[dict, float, Callable[[], dict]]


@dataclass(frozen=True)
class _Job:
    """A run whose flags all checked out; ``unverifiable`` says why the
    brute-force oracle is out of reach, and is None when it is not."""

    instance: dict
    oracle: SetFunction  # its query count is the report's oracle_calls
    unverifiable: str | None
    solve: Callable[[], Solved]


def _check(args, f, polytope_obj, welfare_inst) -> _Job:
    """Validate every flag against the algorithm and the instance before any
    work starts (FlagError; ParseError for a bad embedded polytope) and bind
    the algorithm's solver."""
    algorithm, k, samples, seed = args.algorithm, args.k, args.samples, args.seed
    welfare = algorithm == "welfare-random"
    ascent = algorithm in ("mcg", "dmcg-symmetric", "dmcg-general")
    takes_polytope = algorithm in ("mcg", "brute-polytope")
    # --k is required where it sets the constraint, and meaningless elsewhere
    needs_k = algorithm.startswith(("dmcg-", "brute-cardinality-")) or (takes_polytope and polytope_obj is None)
    used = {"k": needs_k, "T": ascent, "steps": ascent, "samples": ascent or welfare}
    for name, use in used.items():
        if not use and getattr(args, name) is not None:
            raise FlagError(f"--{name} is not meaningful for algorithm {algorithm!r}")
    if seed < 0:
        raise FlagError(f"--seed must be non-negative, got {seed}")
    if samples is not None and samples < 1:
        raise FlagError(f"--samples must be at least 1, got {samples}")
    if welfare and welfare_inst is None:
        raise FlagError("welfare-random needs a welfare instance file")
    if not welfare and welfare_inst is not None:
        raise FlagError(f"algorithm {algorithm!r} cannot run on a welfare instance")
    n = welfare_inst.items.n if welfare else f.n
    if n > MAX_MASK_BITS and (welfare or samples is not None):
        what = "welfare-random" if welfare else "--samples"
        raise FlagError(f"{what} packs sets into int64 masks of at most {MAX_MASK_BITS} elements, got n = {n}")
    if needs_k:
        if k is None:
            also = " or an instance with an embedded polytope" if takes_polytope else ""
            raise FlagError(f"{algorithm} requires --k{also}")
        low = 1 if algorithm.startswith("dmcg-") else 0
        if not low <= k <= n:
            raise FlagError(f"--k must be between {low} and n = {n}")
    unverifiable = None if n <= MAX_BRUTE_N else f"n = {n} exceeds the brute-force limit {MAX_BRUTE_N}"

    if welfare:
        k = welfare_inst.k
        if unverifiable is None and k**n > MAX_WELFARE_SEARCH:
            unverifiable = f"welfare search space k^n = {k**n} exceeds {MAX_WELFARE_SEARCH}"
        solve = partial(_solve_welfare, welfare_inst, 100_000 if samples is None else samples, seed)
        return _Job({"type": "welfare", "n": n, "k": k}, welfare_inst.utility, unverifiable, solve)

    P = _polytope(polytope_obj, n, k) if takes_polytope else None
    if algorithm == "two-sided":
        solve = partial(_solve_two_sided, f)
    elif algorithm == "brute-unconstrained":
        solve = partial(_solve_brute, brute_unconstrained, f)
    elif algorithm.startswith("brute-cardinality-"):
        solve = partial(_solve_brute, brute_cardinality, f, n, k, algorithm[-2:])
    elif algorithm == "brute-polytope":
        solve = partial(_solve_brute, brute_polytope_integral, f, P, n)
    elif algorithm == "mcg":
        red = preprocess_reduction1(P, f.ground_set)
        f_run = f if len(red.kept) == n else restrict_function(f, list(red.kept))
        cfg = McgConfig(T=args.T, steps=args.steps, estimator=_estimator(f_run, samples, seed))
        solve = partial(_solve_mcg, f, P, red, f_run, cfg, _schedule(cfg, f_run.n, red.polytope))
    else:
        symmetric = algorithm == "dmcg-symmetric"
        if symmetric and not f.symmetric:
            raise FlagError("dmcg-symmetric requires a symmetric instance")
        cfg = DmcgConfig(variant=algorithm[5:], steps=args.steps, estimator=_estimator(f, samples, seed), T=args.T)
        k_run, f_run = reduction2(k, n, f) if symmetric else (k, f)
        # k_run = 0 (symmetric, k = n) runs no ascent; --T and --steps are checked at k all the same
        solve = partial(_solve_dmcg, f, k, f_run, k_run, cfg, _schedule(cfg, n, k_run or k))
    return _Job({"type": f.kind, "n": n, "symmetric": f.symmetric}, f, unverifiable, solve)


def _polytope(polytope_obj, n: int, k: int | None):
    """The instance's embedded polytope, else |S| <= k."""
    if polytope_obj is None:
        return CardinalityPolytope(n, k)
    try:
        return polytope_from_json(polytope_obj, n)
    except (ValueError, TypeError) as exc:
        raise ParseError(str(exc)) from exc


def _solve_welfare(inst, trials: int, seed: int) -> Solved:
    totals = simulate_random_assign(inst, trials, seed=seed)
    mean = float(totals.mean())
    sigma = float(totals.std(ddof=1) / math.sqrt(totals.size)) if totals.size > 1 else 0.0
    fields = {
        "trials": trials,
        "achieved_value": mean,
        "achieved_sigma": sigma,
        "theoretical_ratio": welfare_ratio(inst.k),
        "theoretical_regime": True,
    }
    return fields, mean, lambda: {"oracle_opt": brute_force_welfare(inst)[1]}


def _solve_two_sided(f: SetFunction) -> Solved:
    out, _ = run_two_sided(f)
    value = f.eval(out)
    fields = {
        "achieved_value": value,
        "achieved_set": indices(out),
        "theoretical_ratio": 0.5 if f.symmetric else 1.0 / 3.0,
        "theoretical_regime": True,
    }

    def optimum() -> dict:
        mask, opt = brute_unconstrained(f)
        return {"oracle_opt": opt, "oracle_opt_set": indices(mask)}

    return fields, value, optimum


def _solve_brute(search: Callable[..., tuple[int, float]], *args) -> Solved:
    """The search is the oracle: its optimum is the achieved set."""
    mask, opt = search(*args)
    fields = {"achieved_value": opt, "achieved_set": indices(mask), "theoretical_ratio": 1.0, "theoretical_regime": True}
    return fields, opt, lambda: {"oracle_opt": opt}


def _solve_mcg(f, P, red, f_run, cfg: McgConfig, schedule) -> Solved:
    """MCG on the reduced problem; the point and the rounded set are embedded
    back into f's ground set."""
    T, steps, _, regime = schedule
    fields = {"reduction1_warning": red.warning} if red.warning else {}
    kept = np.array(red.kept, dtype=np.int64)
    y = np.zeros(f.n)
    if kept.size == 0:
        frac = achieved = f.eval(0)
    else:
        y_run, _ = run_mcg(f_run, red.polytope, cfg)
        y[kept] = y_run.coords
        frac = achieved = _fractional_value(f_run, y_run, cfg.estimator)
        if red.polytope.kind in ("cardinality", "partition"):
            local = pipage_round(f_run, y_run, red.polytope, cfg.estimator)
            mask = as_mask(kept[indices(local)], f.n)
            achieved = f.eval(mask)
            fields["achieved_set"] = indices(mask)
    fields.update(
        {
            "config": {"T": T, "steps": steps, "estimator": backend(f_run, cfg.estimator)},
            "fractional_value": frac,
            "fractional_point": y.tolist(),
            "theoretical_ratio": 0.5 * (1.0 - math.exp(-2.0 * T)),
            "theoretical_regime": regime,
            "achieved_value": achieved,
        }
    )
    f_opt, P_opt = (f_run, red.polytope) if kept.size else (f, P)
    return fields, frac, lambda: {"oracle_opt": brute_polytope_integral(f_opt, P_opt, None)[1]}


def _solve_dmcg(f, k: int, f_run, k_run: int, cfg: DmcgConfig, schedule) -> Solved:
    """DMCG on the reduction2 problem (k_run <= n/2 for the symmetric
    variant), complemented back to |y| = k, then rounded."""
    n, est = f.n, cfg.estimator
    T, steps, _, regime = schedule
    if k_run == 0:  # only one feasible set; nothing to optimize, so no ascent runs
        T, regime = 0.0, True
        y, frac = Point.ones(n), f.eval(full_mask(n))
    else:
        y, _ = run_dmcg(f_run, k_run, cfg)
        if k_run != k:
            y = Point(1.0 - y.coords)  # complement: same value for symmetric f
        frac = _fractional_value(f, y, est)
    mask = pipage_round(f, y, CardinalityPolytope(n, k), est)
    fields = {
        "config": {"k": k, "T": T, "steps": steps, "estimator": backend(f, est)},
        "fractional_value": frac,
        "fractional_mass": y.mass(),
        "fractional_point": y.coords.tolist(),
        "theoretical_ratio": _theoretical_curve(k, n) if cfg.variant == "symmetric" else math.exp(-1.0),
        "theoretical_regime": regime,
        "achieved_value": f.eval(mask),
        "achieved_set": indices(mask),
    }
    return fields, frac, lambda: {"oracle_opt": brute_cardinality(f, n, k, "eq")[1]}


def _run_algorithm(args, f, polytope_obj, welfare_inst) -> dict:
    """Check every flag, solve, then verify once against the brute-force
    optimum.  The brute-force algorithms are the oracle, so beyond its reach
    they fail as if --require-oracle were set."""
    job = _check(args, f, polytope_obj, welfare_inst)
    if job.unverifiable and (args.require_oracle or args.algorithm.startswith("brute-")):
        raise OracleUnavailable(job.unverifiable)
    fields, measured, optimum = job.solve()
    report = {"algorithm": args.algorithm, "seed": args.seed, "instance": job.instance, **fields}
    if job.unverifiable is None:
        report.update(optimum())
        opt = report["oracle_opt"]
        report["achieved_ratio"] = measured / opt if opt > 0 else None
    report["oracle_calls"] = job.oracle.query_count
    return report


def _flatten(obj, prefix: str = "") -> dict[str, str]:
    flat: dict[str, str] = {}
    for key, value in obj.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, list):
            flat[name] = ";".join(str(v) for v in value)
        else:
            flat[name] = "" if value is None else str(value)
    return flat


def _emit(report: dict, out: str | None, fmt: str, wall_time: float) -> None:
    canonical = json.dumps(report, sort_keys=True, indent=2)
    metadata = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": wall_time,
        "host": platform.node(),
        "determinism_hash": hashlib.sha256(canonical.encode()).hexdigest(),
    }
    if fmt == "json":
        payload = json.dumps({"report": report, "metadata": metadata}, sort_keys=True, indent=2) + "\n"
    else:
        flat = _flatten(report)
        header = ",".join(flat.keys())
        row = ",".join(flat.values())
        payload = header + "\n" + row + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _build_run_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="submax run", description="run one algorithm on one instance")
    p.add_argument("--instance", help="path to an instance JSON file")
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--T", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--require-oracle", action="store_true", default=False)
    p.add_argument("--self-check", action="store_true", default=False)
    p.add_argument("--trials", type=int, default=20_000, help="trial count for --self-check")
    return p


def _parse_kn(text: str) -> list[Fraction]:
    if not text.strip():
        return []
    return [Fraction(part.strip()) for part in text.split(",")]


def _run_sweep(argv: list[str]) -> int:
    p = argparse.ArgumentParser(
        prog="submax sweep",
        description="equality-cardinality ratio sweep over a k/n grid (paired with the exact oracle)",
    )
    p.add_argument("--family", choices=("cut", "hypergraph"), default="cut")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--count", type=int, default=3, help="instances per grid point")
    p.add_argument("--kn", default="", help="comma-separated k/n fractions, e.g. 1/4,1/2")
    p.add_argument("--seeds", default="0", help="comma-separated run seeds")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    args = p.parse_args(argv)

    if not 2 <= args.n <= MAX_BRUTE_N:
        print(f"sweep ratio columns need 2 <= n <= {MAX_BRUTE_N}", file=sys.stderr)
        return 2
    grid = _parse_kn(args.kn)
    ks = [min(max(1, round(float(kn) * args.n)), args.n // 2) for kn in grid]
    try:
        for k in ks:
            _schedule(DmcgConfig(steps=args.steps), args.n, k)
    except FlagError as exc:
        print(f"inconsistent flags: {exc}", file=sys.stderr)
        return 2
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()] or [0]
    rows = []
    for kn, k in zip(grid, ks):
        curve = _theoretical_curve(k, args.n)
        for idx in range(args.count):
            make = random_graph_cut if args.family == "cut" else random_hypergraph_cut
            f = make(args.n, seed=1000 + idx)
            _, opt = brute_cardinality(f, args.n, k, "eq")
            for seed in seeds:
                est = _estimator(f, None, seed)
                y, _ = run_dmcg(f, k, DmcgConfig(variant="symmetric", steps=args.steps, estimator=est))
                ratio = MultilinearEvaluator(f, est).value(y) / opt if opt > 0 else float("nan")
                rows.append(
                    {
                        "family": args.family,
                        "n": args.n,
                        "instance": idx,
                        "kn": str(kn),
                        "k": k,
                        "seed": seed,
                        "ratio": ratio,
                        "curve": curve,
                        "margin": ratio - curve,
                    }
                )
    header = ["family", "n", "instance", "kn", "k", "seed", "ratio", "curve", "margin"]
    if args.format == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(str(row[h]) for h in header))
        payload = "\n".join(lines) + "\n"
    else:
        payload = json.dumps(rows, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        return _run_sweep(argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    parser = _build_run_parser()
    args = parser.parse_args(argv)

    if args.self_check:
        return 0 if selfcheck.main(trials=args.trials, seed=args.seed) else 1

    if not args.instance or not args.algorithm:
        print("--instance and --algorithm are required (or use --self-check)", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        f, polytope_obj, welfare_inst = _load_instance(args.instance)
        report = _run_algorithm(args, f, polytope_obj, welfare_inst)
    except ParseError as exc:
        print(f"instance parse error: {exc}", file=sys.stderr)
        return 1
    except FlagError as exc:
        print(f"inconsistent flags: {exc}", file=sys.stderr)
        return 2
    except OracleUnavailable as exc:
        print(f"oracle unavailable: {exc}", file=sys.stderr)
        return 3
    _emit(report, args.out, args.format, time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
