"""Self-test of the benchmark harness.

    python3 -m pytest bench -q

A seconds-long smoke run of every workload at ``--scale tiny`` (plain and
traced) checks that every metric of BENCHMARK.json is printed with its unit;
synthetic reports check that the correctness gate counts broken guarantees,
wrong values and non-repeating reports as failed job runs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest
from bootstrap import ROOT

import harness
import tracer
from submax import cli
from workloads import WORKLOADS, Job

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_spec_names_the_harness_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracer.PER_LAYER)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


CUT = {"type": "graph_cut", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}
MCG = Job("synthetic-mcg", "mcg", CUT, k=1)
WELFARE = Job("synthetic-welfare", "welfare-random", {"type": "welfare", "k": 3, "utility": CUT})


def _mcg_report(**changes) -> dict:
    report = {"achieved_ratio": 0.9, "theoretical_ratio": 0.432, "oracle_opt": 2.0,
              "achieved_set": [1], "achieved_value": 2.0, "oracle_calls": 8}
    return {**report, **changes}


def _welfare_report(**changes) -> dict:
    report = {"achieved_ratio": 0.9, "theoretical_ratio": 0.556, "oracle_opt": 2.0,
              "achieved_value": 1.8, "achieved_sigma": 0.01, "oracle_calls": 8}
    return {**report, **changes}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "ROOT", tmp_path)
    with harness.Workdir() as wd:
        yield wd


def _result(monkeypatch, workdir, job: Job, report: dict, first_digest=None) -> harness.JobResult:
    def fake_main(argv):
        with open(argv[argv.index("--out") + 1], "w") as fh:
            json.dump({"report": report, "metadata": {}}, fh)
        return 0

    monkeypatch.setattr(cli, "main", fake_main)
    (prepared,) = harness.prepare([job], workdir)
    return harness.run_job(prepared, seed=0, first_digest=first_digest)


def test_gate_passes_reports_that_keep_their_guarantee(monkeypatch, workdir):
    assert not _result(monkeypatch, workdir, MCG, _mcg_report()).failed
    assert not _result(monkeypatch, workdir, WELFARE, _welfare_report()).failed


@pytest.mark.parametrize(
    "job, report",
    [
        (MCG, _mcg_report(achieved_ratio=0.40)),  # below 0.432 - 0.02
        (MCG, _mcg_report(achieved_value=1.5)),  # f({1}) is 2.0
        (MCG, _mcg_report(achieved_set=[0, 1], achieved_value=1.0)),  # |S| > k
        (WELFARE, _welfare_report(achieved_value=1.0)),  # below 0.556 * 2.0 - 4 sigma
    ],
)
def test_broken_report_counts_in_failed_frac(monkeypatch, workdir, job, report):
    results = [_result(monkeypatch, workdir, MCG, _mcg_report()), _result(monkeypatch, workdir, job, report)]
    assert harness.tally(results) == (2, 1)


def test_report_that_differs_between_repeats_fails(monkeypatch, workdir):
    first = _result(monkeypatch, workdir, MCG, _mcg_report())
    again = _result(monkeypatch, workdir, MCG, _mcg_report(oracle_calls=9), first.digest)
    assert again.failed and "differs" in again.reasons[0]


def test_job_that_exits_nonzero_or_raises_fails(monkeypatch, workdir):
    (prepared,) = harness.prepare([MCG], workdir)
    monkeypatch.setattr(cli, "main", lambda argv: 3)
    assert harness.run_job(prepared, seed=0).failed

    def boom(argv):
        raise ArithmeticError("invariant violated")

    monkeypatch.setattr(cli, "main", boom)
    assert harness.run_job(prepared, seed=0).failed
