"""Job execution, the per-job correctness gate, and the run record.

Jobs run in process through ``submax.cli.main(["run", ...])`` with the
instance and report files in a private work directory inside the checkout.
A job fails the gate when any of these holds:

* its exit code is not 0, or it raised;
* its report breaks the guarantee: ``achieved_ratio`` below
  ``theoretical_ratio - RATIO_SLACK`` where ``oracle_opt`` is known, or, for
  welfare jobs, the mean below ``ratio * opt - 4 sigma``;
* its ``achieved_set`` is infeasible, or ``achieved_value`` differs from the
  value the benchmark computes for that set from the instance itself;
* the SHA-256 of its ``report`` block differs from that of the job's first
  run within the same benchmark run.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from bootstrap import ROOT  # first: pins BLAS threads and finds src/

import numpy as np
from submax import cli

import instances as gen
from workloads import Job

# the acceptance suite's slack between achieved and guaranteed ratio
RATIO_SLACK = 0.02
VALUE_TOL = 1e-9


@dataclass
class JobResult:
    name: str
    seconds: float
    report: dict | None
    digest: str | None
    reasons: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


@dataclass(frozen=True)
class Prepared:
    job: Job
    instance_path: str
    out_path: str


def report_digest(report: dict) -> str:
    """SHA-256 of the canonical report block (the CLI's determinism hash)."""
    return hashlib.sha256(json.dumps(report, sort_keys=True, indent=2).encode()).hexdigest()


def check(job: Job, exit_code: int, report: dict | None) -> list[str]:
    """Reasons the job's output is wrong; empty when it passes the gate."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    if report is None:
        return ["no report"]
    reasons = []
    ratio, floor = report.get("achieved_ratio"), report.get("theoretical_ratio")
    if "oracle_opt" in report and (ratio is None or ratio < floor - RATIO_SLACK):
        reasons.append(f"achieved_ratio {ratio} below theoretical_ratio {floor} - {RATIO_SLACK}")
    if job.algorithm == "welfare-random":
        if "oracle_opt" in report:
            bound = floor * report["oracle_opt"] - 4.0 * report["achieved_sigma"]
            if report["achieved_value"] < bound:
                reasons.append(f"welfare mean {report['achieved_value']} below ratio*opt - 4 sigma = {bound}")
        return reasons
    subset = report.get("achieved_set")
    if subset is None:
        return reasons + ["report has no achieved_set"]
    if not gen.feasible(job.instance, subset, job.algorithm, job.k):
        reasons.append(f"achieved_set {subset} is infeasible")
    expected = gen.value(job.instance, subset)
    if abs(report["achieved_value"] - expected) > VALUE_TOL * max(1.0, abs(expected)):
        reasons.append(f"achieved_value {report['achieved_value']} but f(achieved_set) = {expected}")
    return reasons


class Workdir:
    """``.bench/work-<pid>`` in the checkout; removed when the run ends."""

    def __init__(self):
        self.path = ROOT / ".bench" / f"work-{os.getpid()}"

    def __enter__(self) -> "Workdir":
        self.path.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def prepare(jobs: list[Job], workdir: Workdir) -> list[Prepared]:
    """Write every instance file; the report of job i goes to ``i.out.json``."""
    prepared = []
    for i, job in enumerate(jobs):
        instance_path = workdir.path / f"{i:02d}-{job.name}.json"
        with open(instance_path, "w") as fh:
            json.dump(job.instance, fh)
        prepared.append(Prepared(job, str(instance_path), str(workdir.path / f"{i:02d}.out.json")))
    return prepared


def run_job(p: Prepared, seed: int, first_digest: str | None = None) -> JobResult:
    """Run one job through the CLI entry point, then read and check its report."""
    start = time.perf_counter()
    report = None
    try:
        if os.path.exists(p.out_path):
            os.remove(p.out_path)
        exit_code = cli.main(p.job.argv(p.instance_path, p.out_path, seed))
        if exit_code == 0:
            with open(p.out_path) as fh:
                report = json.load(fh)["report"]
        reasons = check(p.job, exit_code, report)
    except (Exception, SystemExit) as exc:  # a job that raises is a failed job
        reasons = [f"raised {type(exc).__name__}: {exc}"]
    digest = report_digest(report) if report is not None else None
    if digest is not None and first_digest is not None and digest != first_digest:
        reasons.append("report block differs from the first run of this job")
    return JobResult(p.job.name, time.perf_counter() - start, report, digest, reasons)


def tally(results: list[JobResult]) -> tuple[int, int]:
    """(job runs attempted, job runs that failed the gate)."""
    return len(results), sum(r.failed for r in results)


def quality(results: list[JobResult]) -> dict[str, float]:
    """Summed oracle calls, mean ratio and smallest margin over one pass."""
    reports = [r.report for r in results if r.report is not None]
    known = [r for r in reports if "oracle_opt" in r and r.get("achieved_ratio") is not None]
    return {
        "oracle_calls": sum(int(r["oracle_calls"]) for r in reports),
        "ratio_mean": sum(r["achieved_ratio"] for r in known) / len(known) if known else math.nan,
        "margin_min": min((r["achieved_ratio"] - r["theoretical_ratio"] for r in known), default=math.nan),
    }


def outputs_digest(results: list[JobResult]) -> str:
    """One SHA-256 over the report digests of a pass, in job order."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.name}:{r.digest}\n".encode())
    return h.hexdigest()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# the thread-count query of OpenBLAS under its scipy-openblas, ILP64 and plain names
_OPENBLAS_THREADS_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas() -> tuple[str, int | None]:
    """OpenBLAS version string and the thread count it runs with, if known."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        version = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in _OPENBLAS_THREADS_SYMBOLS:
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.restype = ctypes.c_int
                return version, int(fn())
    return version, None


def environment(workload: str, seed: int, scale: str) -> dict:
    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "scale": scale,
    }
