"""Experiment runner: load an instance, run an algorithm, compare against the
brute-force oracle, and emit a reproducible report.

Reports are JSON with a deterministic ``report`` block (hashed) and a
``metadata`` block (timestamp, wall time, host) excluded from determinism;
``--format csv`` writes a flat projection of the report block.  Exit codes:
0 success, 1 instance parse error, 2 inconsistent flags, 3 oracle required
but unavailable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import selfcheck
from .dmcg import DmcgConfig, reduction2, run_dmcg
from .fixtures import random_graph_cut, random_hypergraph_cut
from .mcg import McgConfig, run_mcg
from .multilinear import Estimator, MultilinearEvaluator, Point, backend
from .oracle import MAX_BRUTE_N, brute_cardinality, brute_polytope_integral, brute_unconstrained
from .pipage import pipage_round
from .polytope import CardinalityPolytope, polytope_from_json, preprocess_reduction1
from .setfn import SetFunction, _check_fields, restrict_function, set_function_from_json
from .subsets import indices
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


def _forbid(args, names: list[str]) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_")) is not None:
            raise FlagError(f"--{name} is not meaningful for algorithm {args.algorithm!r}")


def _estimator(f: SetFunction, samples: int | None, seed: int) -> Estimator:
    """Sampled if --samples is given; otherwise exact whenever F has a closed
    form or the value table fits, and sampled beyond that."""
    if samples is not None:
        return Estimator(mode="sampled", samples=samples, seed=seed)
    if f.multilinear is not None or f.n <= Estimator.exact_limit:
        return Estimator(mode="exact")
    return Estimator(mode="sampled", seed=seed)


def _fractional_value(f: SetFunction, y: Point, est: Estimator) -> float:
    return MultilinearEvaluator(f, est).value(y, stream=(999, 0))


def _theoretical_curve(k: int, n: int) -> float:
    kk = min(k, n - k)
    if kk == 0:
        return 1.0
    return 0.5 * (1.0 - (1.0 - kk / n) ** (2 * n / kk))


def _run_algorithm(args, f, polytope_obj, welfare_inst) -> dict:
    report: dict = {"algorithm": args.algorithm, "seed": args.seed}
    require = bool(args.require_oracle)

    if args.algorithm == "welfare-random":
        _forbid(args, ["k", "T", "steps"])
        if welfare_inst is None:
            raise FlagError("welfare-random needs a welfare instance file")
        inst = welfare_inst
        trials = args.samples if args.samples is not None else 100_000
        totals = simulate_random_assign(inst, trials, seed=args.seed)
        mean = float(totals.mean())
        sigma = float(totals.std(ddof=1) / math.sqrt(totals.size)) if totals.size > 1 else 0.0
        report.update(
            {
                "instance": {"type": "welfare", "n": inst.items.n, "k": inst.k},
                "trials": trials,
                "achieved_value": mean,
                "achieved_sigma": sigma,
                "theoretical_ratio": welfare_ratio(inst.k),
                "theoretical_regime": True,
            }
        )
        if inst.k**inst.items.n <= MAX_WELFARE_SEARCH and inst.items.n <= MAX_BRUTE_N:
            _, opt = brute_force_welfare(inst)
            report["oracle_opt"] = opt
            report["achieved_ratio"] = mean / opt if opt > 0 else None
        elif require:
            raise OracleUnavailable("welfare search space too large for the exact oracle")
        report["oracle_calls"] = inst.utility.query_count
        return report

    if welfare_inst is not None:
        raise FlagError(f"algorithm {args.algorithm!r} cannot run on a welfare instance")
    assert f is not None
    n = f.n
    report["instance"] = {"type": f.kind, "n": n, "symmetric": f.symmetric}

    if args.algorithm == "two-sided":
        _forbid(args, ["k", "T", "steps", "samples"])
        out, _ = run_two_sided(f)
        value = f.eval(out)
        report.update(
            {
                "achieved_value": value,
                "achieved_set": indices(out),
                "theoretical_ratio": 0.5 if f.symmetric else 1.0 / 3.0,
                "theoretical_regime": True,
            }
        )
        if n <= MAX_BRUTE_N:
            opt_mask, opt = brute_unconstrained(f)
            report["oracle_opt"] = opt
            report["oracle_opt_set"] = indices(opt_mask)
            report["achieved_ratio"] = value / opt if opt > 0 else None
        elif require:
            raise OracleUnavailable(f"n = {n} exceeds the brute-force limit {MAX_BRUTE_N}")
        report["oracle_calls"] = f.query_count
        return report

    if args.algorithm.startswith("brute-"):
        _forbid(args, ["T", "steps", "samples"])
        if args.algorithm == "brute-unconstrained":
            _forbid(args, ["k"])
            mask, opt = brute_unconstrained(f)
        elif args.algorithm in ("brute-cardinality-eq", "brute-cardinality-le"):
            if args.k is None:
                raise FlagError(f"{args.algorithm} requires --k")
            mode = "eq" if args.algorithm.endswith("eq") else "le"
            mask, opt = brute_cardinality(f, n, args.k, mode)
        else:  # brute-polytope
            P = _materialize_polytope(args, polytope_obj, n)
            mask, opt = brute_polytope_integral(f, P, n)
        report.update(
            {
                "achieved_value": opt,
                "achieved_set": indices(mask),
                "oracle_opt": opt,
                "achieved_ratio": 1.0 if opt > 0 else None,
                "theoretical_ratio": 1.0,
                "theoretical_regime": True,
                "oracle_calls": f.query_count,
            }
        )
        return report

    if args.algorithm == "mcg":
        P = _materialize_polytope(args, polytope_obj, n)
        red = preprocess_reduction1(P, f.ground_set)
        if red.warning:
            report["reduction1_warning"] = red.warning
        f_run = f if len(red.kept) == n else restrict_function(f, list(red.kept))
        P_run = red.polytope
        n_run = f_run.n
        est = _estimator(f_run, args.samples, args.seed)
        cfg = McgConfig(T=args.T, steps=args.steps, estimator=est)
        T, steps, _, regime = _schedule(cfg, n_run, P_run)
        if n_run == 0:
            y_embedded = Point.zeros(n)
            frac = f.eval(0)
        else:
            y, _ = run_mcg(f_run, P_run, cfg)
            frac = _fractional_value(f_run, y, est)
            arr = np.zeros(n)
            for i, u in enumerate(red.kept):
                arr[u] = y.coords[i]
            y_embedded = Point(arr)
        report.update(
            {
                "config": {"T": T, "steps": steps, "estimator": backend(f_run, est)},
                "fractional_value": frac,
                "fractional_point": [float(v) for v in y_embedded.coords],
                "theoretical_ratio": 0.5 * (1.0 - math.exp(-2.0 * T)),
                "theoretical_regime": regime,
            }
        )
        achieved = frac
        if n_run and P_run.kind in ("cardinality", "partition"):
            mask_local = pipage_round(f_run, Point(y_embedded.coords[list(red.kept)]), P_run, est, seed=args.seed)
            mask = 0
            for i, u in enumerate(red.kept):
                if (mask_local >> i) & 1:
                    mask |= 1 << u
            achieved = f.eval(mask)
            report["achieved_set"] = indices(mask)
        report["achieved_value"] = achieved
        if n <= MAX_BRUTE_N:
            _, opt = brute_polytope_integral(f_run if n_run else f, P_run if n_run else P, None)
            report["oracle_opt"] = opt
            report["achieved_ratio"] = frac / opt if opt > 0 else None
        elif require:
            raise OracleUnavailable(f"n = {n} exceeds the brute-force limit {MAX_BRUTE_N}")
        report["oracle_calls"] = f.query_count
        return report

    # dmcg variants
    if args.k is None:
        raise FlagError(f"{args.algorithm} requires --k")
    k = args.k
    if not 1 <= k <= n:
        raise FlagError(f"--k must be between 1 and n = {n}")
    symmetric = args.algorithm == "dmcg-symmetric"
    if symmetric and not f.symmetric:
        raise FlagError("dmcg-symmetric requires a symmetric instance")
    est = _estimator(f, args.samples, args.seed)
    cfg = DmcgConfig(
        variant="symmetric" if symmetric else "general",
        steps=args.steps,
        estimator=est,
        T=args.T,
    )
    if symmetric and k == n:
        # only one feasible set; nothing to optimize, so no ascent runs
        _, steps, _, _ = _schedule(cfg, n, k)
        y_final = Point.ones(n)
        frac = f.eval((1 << n) - 1)
        theoretical_regime = True
        T = 0.0
    else:
        k_run, f_run = reduction2(k, n, f) if symmetric else (k, f)
        T, steps, _, theoretical_regime = _schedule(cfg, n, k_run)
        y, _ = run_dmcg(f_run, k_run, cfg)
        if symmetric and k_run != k:
            y_final = Point(1.0 - y.coords)  # complement: same value for symmetric f
        else:
            y_final = y
        frac = _fractional_value(f, y_final, est)
    report.update(
        {
            "config": {"k": k, "T": T, "steps": steps, "estimator": backend(f, est)},
            "fractional_value": frac,
            "fractional_mass": y_final.mass(),
            "fractional_point": [float(v) for v in y_final.coords],
            "theoretical_ratio": _theoretical_curve(k, n) if symmetric else math.exp(-1.0),
            "theoretical_regime": theoretical_regime,
        }
    )
    mask = pipage_round(f, y_final, CardinalityPolytope(n, k), est, seed=args.seed)
    report["achieved_value"] = f.eval(mask)
    report["achieved_set"] = indices(mask)
    if n <= MAX_BRUTE_N:
        _, opt = brute_cardinality(f, n, k, "eq")
        report["oracle_opt"] = opt
        report["achieved_ratio"] = frac / opt if opt > 0 else None
    elif require:
        raise OracleUnavailable(f"n = {n} exceeds the brute-force limit {MAX_BRUTE_N}")
    report["oracle_calls"] = f.query_count
    return report


def _schedule(cfg, n: int, bound) -> tuple[float, int, float, bool]:
    """The ascent's resolved (T, steps, delta, theoretical_regime); a bad
    --T or --steps is a flag error."""
    try:
        return cfg.resolve(n, bound)
    except ValueError as exc:
        raise FlagError(str(exc)) from exc


def _materialize_polytope(args, polytope_obj, n: int):
    if polytope_obj is not None:
        _forbid(args, ["k"])
        try:
            return polytope_from_json(polytope_obj, n)
        except (ValueError, TypeError) as exc:
            raise ParseError(str(exc)) from exc
    if args.k is None:
        raise FlagError(f"{args.algorithm} needs --k or an instance with an embedded polytope")
    if not 0 <= args.k <= n:
        raise FlagError(f"--k must be between 0 and n = {n}")
    return CardinalityPolytope(n, args.k)


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

    if args.n > MAX_BRUTE_N:
        print(f"sweep ratio columns need n <= {MAX_BRUTE_N}", file=sys.stderr)
        return 2
    grid = _parse_kn(args.kn)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()] or [0]
    rows = []
    for kn in grid:
        k = max(1, round(float(kn) * args.n))
        k = min(k, args.n // 2)
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
