"""Experiment runner: load an instance, run an algorithm, compare against the
brute-force oracle, and emit a reproducible report.

The instance-file format lives here alone: ``_FORMAT`` maps each JSON
``type`` to its fields and its builder, and :func:`_load_instance` parses a
whole file before any flag is checked.  Every algorithm then takes one path:
:func:`_check` validates all flags before any work starts and binds the
algorithm's solver, and :func:`_report` runs it and verifies the result
against the brute-force optimum.  Each ``submax sweep`` row is one
``dmcg-symmetric`` job on that path.  An ascent's solver builds one
``MultilinearEvaluator`` from the flags, which the ascent and the rounding
share; its report gives F(y) exactly, whichever backend that evaluator used:
every family an instance file names has a closed form, so the achieved ratio
carries no sampling noise.

Reports are JSON with a deterministic ``report`` block (hashed) and a
``metadata`` block (timestamp, wall time, host) excluded from determinism;
``--format csv`` writes a flat projection of the report block.  Exit codes:
0 success, 1 instance parse error, 2 inconsistent flags (a welfare or problem
file under an algorithm that cannot take it among them), 3 oracle required (by
--require-oracle, or by a brute-force algorithm) but unavailable, 4 a crash:
an uncaught exception, whose traceback goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from functools import partial

import numpy as np

from . import mcg
from .dmcg import run_dmcg
from .fixtures import random_graph_cut, random_hypergraph_cut
from .mcg import run_mcg
from .multilinear import MultilinearEvaluator
from .oracle import MAX_BRUTE_N, brute_cardinality, brute_polytope_integral, brute_unconstrained
from .pipage import pipage_round
from .polytope import CardinalityPolytope, KnapsackPolytope, PartitionPolytope, Polytope, horizon, preprocess_reduction1
from .reports import mean_and_sigma
from .setfn import (
    SetFunction,
    coverage_function,
    graph_cut_function,
    hardness_instance,
    hypergraph_cut_function,
    restrict_function,
)
from .subsets import MAX_MASK_BITS, as_mask, indices
from .twosided import run_two_sided
from .welfare import (
    MAX_WELFARE_SEARCH,
    WelfareInstance,
    brute_force_welfare,
    simulate_random_assign,
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


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

_FUNCTIONS = ("graph_cut", "hypergraph_cut", "coverage", "hardness")
_POLYTOPES = ("cardinality", "partition", "knapsack")


def _int(value, field: str) -> int:
    """A count or index.  int() would read true as 1 and 3.7 as 3, so a bool
    or a fractional number is an error naming the field."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"field {field!r}: expected an integer, got {value!r}")
    return int(value)


def _real(value, field: str) -> float:
    """A weight or capacity.  Python's json reads NaN, Infinity and 1e400, so
    these are an error naming the field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"field {field!r}: expected a finite number, got {value!r}")
    return float(value)


def _graph_cut(obj: dict, _) -> SetFunction:
    edges = [(_int(u, "edges"), _int(v, "edges"), _real(w, "edges")) for u, v, w in obj["edges"]]
    return graph_cut_function(_int(obj["n"], "n"), edges)


def _hypergraph_cut(obj: dict, _) -> SetFunction:
    """A hyperedge is its set of vertices: one listed twice counts once."""
    hes = [({_int(v, "hyperedges") for v in verts}, _real(w, "hyperedges")) for verts, w in obj["hyperedges"]]
    return hypergraph_cut_function(_int(obj["n"], "n"), hes)


def _coverage(obj: dict, _) -> SetFunction:
    return coverage_function(
        _int(obj["n"], "n"),
        [_real(w, "universe_weights") for w in obj["universe_weights"]],
        [[_int(j, "membership") for j in row] for row in obj["membership"]],
    )


def _partition(obj: dict, _) -> PartitionPolytope:
    parts = [[_int(u, "parts") for u in part] for part in obj["parts"]]
    return PartitionPolytope(parts, [_int(b, "bounds") for b in obj["bounds"]])


def _problem(obj: dict, _) -> tuple[SetFunction, Polytope]:
    f = _parse(obj["function"], _FUNCTIONS)
    P = _parse(obj["polytope"], _POLYTOPES, f.n)
    if P.n != f.n:
        raise ValueError(f"{P.kind} constraint covers {P.n} elements, the instance has {f.n}")
    return f, P


# type -> (its fields besides "type", its builder (obj, n)); n is the size of
# the ground set a polytope constrains, and None elsewhere
_FORMAT: dict[str, tuple[tuple[str, ...], Callable]] = {
    "graph_cut": (("n", "edges"), _graph_cut),
    "hypergraph_cut": (("n", "hyperedges"), _hypergraph_cut),
    "coverage": (("n", "universe_weights", "membership"), _coverage),
    "hardness": (("p", "q"), lambda obj, _: hardness_instance(_int(obj["p"], "p"), _int(obj["q"], "q"))),
    "cardinality": (("k",), lambda obj, n: CardinalityPolytope(n, _int(obj["k"], "k"))),
    "partition": (("parts", "bounds"), _partition),
    "knapsack": (("a", "b"), lambda obj, _: KnapsackPolytope([_real(v, "a") for v in obj["a"]], _real(obj["b"], "b"))),
    "welfare": (
        ("k", "utility"),
        lambda obj, _: WelfareInstance(_int(obj["k"], "k"), _parse(obj["utility"], _FUNCTIONS)),
    ),
    "problem": (("function", "polytope"), _problem),
}


def _parse(obj, kinds: tuple[str, ...], n: int | None = None):
    """Build what a JSON object of one of the types ``kinds`` describes.
    Field names are strict: a ValueError names every missing and every
    unknown field."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    if kind not in kinds:
        raise ValueError(f"expected an object with a 'type' among {', '.join(kinds)}, got type {kind!r}")
    fields, build = _FORMAT[kind]
    expected = {"type", *fields}
    parts = []
    if expected - obj.keys():
        parts.append(f"missing fields {sorted(expected - obj.keys())}")
    if obj.keys() - expected:
        parts.append(f"unknown fields {sorted(obj.keys() - expected)}")
    if parts:
        raise ValueError(f"bad {kind} object: {'; '.join(parts)}")
    return build(obj, n)


def _load_instance(path: str) -> tuple[SetFunction | None, Polytope | None, WelfareInstance | None]:
    """(f, P, welfare) from a whole instance file, every object in it parsed
    and checked: f and P are None for a welfare file, and P is the polytope
    of a problem file."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read instance file: {exc}") from exc
    try:
        inst = _parse(obj, (*_FUNCTIONS, "welfare", "problem"))
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ParseError(str(exc)) from exc
    if isinstance(inst, WelfareInstance):
        return None, None, inst
    if isinstance(inst, SetFunction):
        return inst, None, None
    return (*inst, None)


def _theoretical_curve(k: int, n: int) -> float:
    kk = min(k, n - k)
    if kk == 0:
        return 1.0
    return 0.5 * (1.0 - (1.0 - kk / n) ** (2 * n / kk))


def _check_schedule(T: float | None, steps: int | None, n: int, P: Polytope | None = None) -> None:
    """A --T or --steps that ``mcg.schedule`` rejects is a flag error, and so
    is a --T beyond max(1, horizon(P, steps)) over the n elements of the
    polytope P the ascent must stay in: past that T its point may leave P."""
    try:
        T, steps, _, _ = mcg.schedule(n, T, steps, P)
        limit = max(1.0, horizon(P, steps)) if P is not None and n else math.inf
    except ValueError as exc:
        raise FlagError(str(exc)) from exc
    if T > limit:
        raise FlagError(f"--T {T!r} exceeds max(1, horizon) = {limit!r} of {steps} steps over the {P.kind} "
                        "polytope: the point would leave it")


# A solver returns its report fields, the value its ratio is measured on, and
# a thunk that returns the brute-force oracle's fields, "oracle_opt" among them.
Solved = tuple[dict, float, Callable[[], dict]]


@dataclass(frozen=True)
class _Job:
    """A run whose flags all checked out; ``unverifiable`` says why the
    brute-force oracle is out of reach, and is None when it is not."""

    instance: dict
    oracles: tuple[SetFunction, ...]  # their query counts sum to the report's oracle_calls
    unverifiable: str | None
    solve: Callable[[], Solved]


def _check(args, f, P, welfare_inst) -> _Job:
    """Validate every flag against the algorithm and the parsed instance
    before any work starts (FlagError) and bind the algorithm's solver.  Only
    ``mcg`` and ``brute-polytope`` take a problem file's polytope P; any
    other algorithm would drop its constraint, so it may not run on one.
    --T and --steps are checked on every ascent, for ``dmcg-symmetric`` at
    k = n too, where no step runs."""
    algorithm, k, samples, seed = args.algorithm, args.k, args.samples, args.seed
    welfare = algorithm == "welfare-random"
    ascent = algorithm in ("mcg", "dmcg-symmetric", "dmcg-general")
    takes_polytope = algorithm in ("mcg", "brute-polytope")
    # --k is required where it sets the constraint, and meaningless elsewhere
    needs_k = algorithm.startswith(("dmcg-", "brute-cardinality-")) or (takes_polytope and P is None)
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
    if P is not None and not takes_polytope:
        raise FlagError(f"algorithm {algorithm!r} takes no polytope, so it cannot run on a problem file")
    n = welfare_inst.utility.n if welfare else f.n
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
    # the descent on a monotone f has no size limit (oracle.brute_unconstrained)
    descent = algorithm in ("two-sided", "brute-unconstrained") and f.monotone
    unverifiable = None if n <= MAX_BRUTE_N or descent else f"n = {n} exceeds the brute-force limit {MAX_BRUTE_N}"

    if welfare:
        k = welfare_inst.k
        if unverifiable is None and k**n > MAX_WELFARE_SEARCH:
            unverifiable = f"welfare search space k^n = {k**n} exceeds {MAX_WELFARE_SEARCH}"
        solve = partial(_solve_welfare, welfare_inst, 100_000 if samples is None else samples, seed)
        return _Job({"type": "welfare", "n": n, "k": k}, (welfare_inst.utility,), unverifiable, solve)

    oracles = (f,)
    if algorithm == "brute-cardinality-le" or (takes_polytope and P is None):
        P = CardinalityPolytope(n, k)
    if algorithm == "two-sided":
        solve = partial(_solve_two_sided, f)
    elif algorithm == "brute-unconstrained":
        solve = partial(_solve_brute, brute_unconstrained, f)
    elif algorithm == "brute-cardinality-eq":
        solve = partial(_solve_brute, brute_cardinality, f, k)
    elif algorithm.startswith("brute-"):  # brute-polytope, brute-cardinality-le
        solve = partial(_solve_brute, brute_polytope_integral, f, P)
    elif algorithm == "mcg":
        P_run, kept = preprocess_reduction1(P)
        f_run = f if len(kept) == n else restrict_function(f, list(kept))
        oracles = (f,) if f_run is f else (f, f_run)
        _check_schedule(args.T, args.steps, f_run.n, P_run)
        solve = partial(_solve_mcg, f, P_run, kept, f_run, args.T, args.steps, MultilinearEvaluator(f_run, samples, seed))
    else:
        if algorithm == "dmcg-symmetric" and not f.symmetric:
            raise FlagError("dmcg-symmetric requires a symmetric instance")
        # the symmetric pair runs under |S| <= min(k, n - k) (Reduction 2), and
        # the general pair keeps y1 under |S| <= k and 1 - y2 under
        # |S| <= n - k, the tighter of which is min(k, n - k); at k = n no limit applies
        low = min(k, n - k)
        _check_schedule(args.T, args.steps, n, CardinalityPolytope(n, low) if low else None)
        solve = partial(_solve_dmcg, f, k, args.T, args.steps, MultilinearEvaluator(f, samples, seed), algorithm[5:])
    return _Job({"type": f.kind, "n": n, "symmetric": f.symmetric}, oracles, unverifiable, solve)


def _solve_welfare(inst, trials: int, seed: int) -> Solved:
    mean, sigma = mean_and_sigma(simulate_random_assign(inst, trials, seed=seed))
    fields = {
        "trials": trials,
        "achieved_value": mean,
        "achieved_sigma": sigma,
        "theoretical_ratio": welfare_ratio(inst.k),
        "theoretical_regime": True,
    }
    return fields, mean, lambda: {"oracle_opt": brute_force_welfare(inst)[1]}


def _solve_two_sided(f: SetFunction) -> Solved:
    out = run_two_sided(f)
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


def _solve_mcg(f, P_run, kept, f_run, T, steps, ev: MultilinearEvaluator) -> Solved:
    """MCG on the Reduction 1 problem (P_run over the kept elements), with
    one evaluator ``ev`` of f_run for the ascent and the rounding; the point
    and the rounded set (on a polytope with parts) are embedded back into
    f's ground set.  T, steps and the regime are the trajectory's.  With no
    element kept, both run on the empty ground set."""
    fields = {"reduction1_warning": "all singletons infeasible; ground set is empty"} if f.n and not kept else {}
    kept = np.array(kept, dtype=np.int64)
    y_run, traj = run_mcg(ev, P_run, T=T, steps=steps)
    y = np.zeros(f.n)
    y[kept] = y_run
    # an exact evaluator of its own: a sampled ev would only estimate F(y)
    frac = achieved = MultilinearEvaluator(f_run).value(y_run)
    if P_run.parts is not None:
        local = pipage_round(ev, y_run, P_run)
        mask = as_mask(kept[indices(local)], f.n)
        achieved = f.eval(mask)
        fields["achieved_set"] = indices(mask)
    fields.update(
        {
            "config": {"T": traj.T, "steps": len(traj.steps), "estimator": ev.backend},
            "fractional_value": frac,
            "fractional_point": y.tolist(),
            "theoretical_ratio": 0.5 * (1.0 - math.exp(-2.0 * traj.T)),
            "theoretical_regime": traj.theoretical_regime,
            "achieved_value": achieved,
        }
    )
    return fields, frac, lambda: {"oracle_opt": brute_polytope_integral(f_run, P_run)[1]}


def _solve_dmcg(f, k: int, T, steps, ev: MultilinearEvaluator, variant: str) -> Solved:
    """DMCG's point of mass k (``run_dmcg`` applies Reduction 2), rounded
    onto |S| = k with the ascent's evaluator ``ev``; T, steps and the regime
    are its trajectory's."""
    n = f.n
    y, traj = run_dmcg(ev, k, variant, T=T, steps=steps)
    # an exact evaluator of its own: a sampled ev would only estimate F(y)
    frac = MultilinearEvaluator(f).value(y)
    mask = pipage_round(ev, y, CardinalityPolytope(n, k))
    fields = {
        "config": {"k": k, "T": traj.T, "steps": len(traj.steps), "estimator": ev.backend},
        "fractional_value": frac,
        "fractional_mass": float(y.sum()),
        "fractional_point": y.tolist(),
        "theoretical_ratio": _theoretical_curve(k, n) if variant == "symmetric" else math.exp(-1.0),
        "theoretical_regime": traj.theoretical_regime,
        "achieved_value": f.eval(mask),
        "achieved_set": indices(mask),
    }
    return fields, frac, lambda: {"oracle_opt": brute_cardinality(f, k)[1]}


def _run_algorithm(args, f, P, welfare_inst) -> dict:
    """Check every flag, solve, then verify once against the brute-force
    optimum.  The brute-force algorithms are the oracle, so beyond its reach
    they fail as if --require-oracle were set."""
    job = _check(args, f, P, welfare_inst)
    if job.unverifiable and (args.require_oracle or args.algorithm.startswith("brute-")):
        raise OracleUnavailable(job.unverifiable)
    return _report(args, job)


def _report(args, job: _Job) -> dict:
    """Run a checked job, then verify it against the brute-force optimum
    where that can run."""
    fields, measured, optimum = job.solve()
    report = {"algorithm": args.algorithm, "seed": args.seed, "instance": job.instance, **fields}
    if job.unverifiable is None:
        report.update(optimum())
        opt = report["oracle_opt"]
        report["achieved_ratio"] = measured / opt if opt > 0 else None
    report["oracle_calls"] = sum(g.query_count for g in job.oracles)
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


def _csv(rows: list[dict]) -> str:
    """A header line of the first row's keys, then one line of values per row."""
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(str(value) for value in row.values()))
    return "\n".join(lines) + "\n"


def _write(payload: str, out: str | None) -> None:
    """Write to the file --out names, else to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit(report: dict, out: str | None, fmt: str, wall_time: float) -> None:
    canonical = json.dumps(report, sort_keys=True, indent=2)
    metadata = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": wall_time,
        "host": platform.node(),
        "determinism_hash": hashlib.sha256(canonical.encode()).hexdigest(),
    }
    if fmt == "json":
        _write(json.dumps({"report": report, "metadata": metadata}, sort_keys=True, indent=2) + "\n", out)
    else:
        _write(_csv([_flatten(report)]), out)


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
    return p


def _parse_list(flag: str, text: str, parse: Callable) -> list:
    """The comma-separated values of a sweep flag; a bad entry is a FlagError."""
    try:
        return [parse(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise FlagError(f"--{flag} {text!r}: {exc}") from exc


def _run_sweep(argv: list[str]) -> int:
    p = argparse.ArgumentParser(
        prog="submax sweep",
        description="equality-cardinality ratio sweep over a k/n grid (paired with the exact oracle)",
    )
    p.add_argument("--family", choices=("cut", "hypergraph"), default="cut")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--count", type=int, default=3, help="instances per grid point")
    p.add_argument("--kn", default="", help="comma-separated k/n fractions, e.g. 1/4,1/2; 1 <= round(kn * n) <= n // 2")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    args = p.parse_args(argv)

    make = random_graph_cut if args.family == "cut" else random_hypergraph_cut
    try:
        if not 2 <= args.n <= MAX_BRUTE_N:
            raise FlagError(f"sweep ratio columns need 2 <= n <= {MAX_BRUTE_N}, got --n {args.n}")
        if args.count < 1:
            raise FlagError(f"--count must be at least 1, got {args.count}")
        grid = _parse_list("kn", args.kn, Fraction)
        if not grid:
            raise FlagError("--kn names no k/n fraction")
        if not all(0 <= kn <= 1 for kn in grid):
            raise FlagError(f"--kn entries must lie in [0, 1], got {args.kn!r}")
        runs = []
        for kn in grid:
            k = round(kn * args.n)
            if not 1 <= k <= args.n // 2:
                raise FlagError(f"--kn entry {kn} gives k = {k} at n = {args.n}; k must lie in [1, {args.n // 2}]")
            run_args = argparse.Namespace(
                algorithm="dmcg-symmetric", k=k, T=None, steps=args.steps, samples=None, seed=0
            )
            for idx in range(args.count):
                runs.append((kn, idx, run_args, _check(run_args, make(args.n, seed=1000 + idx), None, None)))
    except FlagError as exc:
        print(f"inconsistent flags: {exc}", file=sys.stderr)
        return 2
    rows = []
    for kn, idx, run_args, job in runs:
        report = _report(run_args, job)
        # the fixtures carry an edge, so OPT > 0 and the ratio is set
        ratio, curve = report["achieved_ratio"], report["theoretical_ratio"]
        rows.append(
            {
                "family": args.family,
                "n": args.n,
                "instance": idx,
                "kn": str(kn),
                "k": run_args.k,
                "ratio": ratio,
                "curve": curve,
                "margin": ratio - curve,
            }
        )
    _write(_csv(rows) if args.format == "csv" else json.dumps(rows, indent=2) + "\n", args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(list(sys.argv[1:] if argv is None else argv))
    except Exception:  # a crash, not a bad file: exit 1 is the parse error's
        traceback.print_exc()
        return 4


def _main(argv: list[str]) -> int:
    if argv and argv[0] == "sweep":
        return _run_sweep(argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    parser = _build_run_parser()
    args = parser.parse_args(argv)

    if not args.instance or not args.algorithm:
        print("--instance and --algorithm are required", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        f, P, welfare_inst = _load_instance(args.instance)
        report = _run_algorithm(args, f, P, welfare_inst)
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
