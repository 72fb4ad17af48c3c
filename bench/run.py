#!/usr/bin/env python3
"""submax benchmark: seeded ``submax run`` workloads, checked and timed.

Usage (from the root of a checkout):

    python3 bench/run.py --workload exact-ascent --seed 1 --seconds 30 --trace 0

The run generates its instances from ``--seed``, sets up (imports, instance
files, one warm-up job), then repeats the workload's fixed job list in passes
until the next pass would end after ``--seconds`` (at least two passes, so
every job's report is compared with a repeat).  Every job's output goes
through the correctness gate in ``harness.py``.  ``setup_s`` is the median of
seven set-up probes: fresh interpreters, started between the passes, that set
up the same way and say when the first job could run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and reports the per-layer metrics of ``tracer.PER_LAYER``
(medians over traced passes) and writes the spans of the last traced pass to
``.bench/spans-<workload>-<seed>.tsv``.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` and ``failed`` count job runs; ``failed / attempted`` is the
failed fraction.  Lines before it record the environment and a digest of all
report blocks.
"""

from __future__ import annotations

from bootstrap import ROOT  # first: pins BLAS threads and finds src/

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import tracer
from workloads import SCALES, WORKLOADS, jobs

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120


def _setup(workload: str, seed: int, scale: str, workdir: harness.Workdir) -> list[harness.Prepared]:
    prepared = harness.prepare(jobs(workload, seed, scale), workdir)
    warm = harness.run_job(prepared[0], seed)
    if warm.failed:
        raise RuntimeError(f"warm-up job {warm.name} failed: {'; '.join(warm.reasons)}")
    return prepared


def _probe_setup(args) -> None:
    """Set-up in a fresh process; prints ``ready`` once the first job could run."""
    with harness.Workdir() as workdir:
        _setup(args.workload, args.seed, args.scale, workdir)
        print("ready", flush=True)


def _probe_seconds(args) -> float:
    """Wall time from spawning a fresh interpreter to its ``ready`` line."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", args.workload,
            "--seed", str(args.seed), "--scale", args.scale]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _run_pass(prepared, seed: int, first: dict[str, str], trace: tracer.Tracer | None):
    results = []
    for job_id, p in enumerate(prepared):
        if trace is not None:
            trace.job = job_id
        result = harness.run_job(p, seed, first.get(p.job.name))
        if result.digest is not None:
            first.setdefault(p.job.name, result.digest)
        results.append(result)
    return results


def _measure(args, prepared):
    """Repeat the job list until the next pass would overrun ``--seconds``.

    Returns (passes, last tracer, set-up probe times).  A pass is (traced,
    seconds, results, layer metrics or None); with tracing on, plain and
    traced passes alternate, starting plain.  Without tracing, one set-up
    probe runs before each pass (the rest after the last one), so that the
    probes sample the machine over the whole run, as the passes do."""
    first: dict[str, str] = {}
    passes = []
    probes = [] if not args.trace else None
    trace = None
    start = time.perf_counter()
    while True:
        if probes is not None and len(probes) < SETUP_PROBES:
            probes.append(_probe_seconds(args))
        if args.trace and len(passes) % 2 == 1:
            trace = tracer.Tracer()
            t0 = time.perf_counter()
            with trace.installed():
                results = _run_pass(prepared, args.seed, first, trace)
            seconds = time.perf_counter() - t0
            passes.append((True, seconds, results, tracer.layer_metrics(trace.spans)))
        else:
            t0 = time.perf_counter()
            results = _run_pass(prepared, args.seed, first, None)
            passes.append((False, time.perf_counter() - t0, results, None))
        elapsed = time.perf_counter() - start
        typical = statistics.median(seconds for _, seconds, _, _ in passes)
        if len(passes) >= 2 and elapsed + typical > args.seconds:
            break
    while probes is not None and len(probes) < SETUP_PROBES:
        probes.append(_probe_seconds(args))
    return passes, trace, probes


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=SCALES, default="full", help="tiny: seconds-long smoke sizes")
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.probe_setup:
        _probe_setup(args)
        return 0

    with harness.Workdir() as workdir:
        prepared = _setup(args.workload, args.seed, args.scale, workdir)
        passes, last_trace, setup_times = _measure(args, prepared)

    all_results = [r for _, _, results, _ in passes for r in results]
    attempted, failed = harness.tally(all_results)
    first_pass = passes[0][2]
    env = harness.environment(args.workload, args.seed, args.scale)
    print("env " + json.dumps(env, sort_keys=True))
    print("outputs " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(first_pass),
        "reports_sha256": harness.outputs_digest(first_pass),
    }))
    print(f"failed_frac {failed / attempted!r} ({failed} of {attempted} job runs)")
    for r in all_results:
        if r.failed:
            print(f"FAILED {r.name}: {'; '.join(r.reasons)}")

    plain = [seconds for traced, seconds, _, _ in passes if not traced]
    print("passes " + json.dumps({
        "plain_s": plain,
        "traced_s": [seconds for traced, seconds, _, _ in passes if traced],
        "setup_probes_s": setup_times,
    }))
    if args.trace:
        traced = [(seconds, layers) for was_traced, seconds, _, layers in passes if was_traced]
        overhead = statistics.median(s for s, _ in traced) / statistics.median(plain) - 1.0
        spans_path = ROOT / ".bench" / f"spans-{args.workload}-{args.seed}.tsv"
        last_trace.write(str(spans_path))
        print(f"spans {spans_path.relative_to(ROOT)}")
        metrics = {}
        for name, unit, _ in tracer.PER_LAYER:
            if name == "trace.overhead_frac":
                metrics[name] = _metric(overhead, unit)
            else:
                metrics[name] = _metric(statistics.median(layers[name] for _, layers in traced), unit)
    else:
        q = harness.quality(first_pass)
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "wall_s": _metric(statistics.median(plain), "s"),
            "oracle_calls": _metric(q["oracle_calls"], "count"),
            "ratio_mean": _metric(q["ratio_mean"], "1"),
            "margin_min": _metric(q["margin_min"], "1"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
