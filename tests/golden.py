"""Golden report digests: the seeded ``submax run`` report of every golden
job, kept in ``golden_reports.json`` next to this file.

The jobs are:

* the bench's ``--scale tiny`` job lists (``bench/workloads.py``) at seeds 1-3;
* every ``scripts/generate_instances.py`` example under every algorithm, the
  ascents also sampled; an algorithm that refuses the file records its exit
  code alone;
* ``two-sided`` and a short ``mcg`` on a 100-vertex cut, past the int64 mask
  limit.

Each entry holds the exit code and, for a run that exits 0, the SHA-256 of
the report block (the CLI's determinism hash), ``oracle_calls`` and
``achieved_value``.  A change that is meant to change outputs regenerates
the file with

    PYTHONPATH=src python tests/golden.py

and names every changed entry in CHANGES.md.  The file records the Python
and numpy versions it was made with; ``test_golden.py`` compares digests
only under those versions (see there).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
import tempfile
import warnings
from collections.abc import Callable
from functools import partial
from pathlib import Path

import numpy as np

from submax import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
SEEDS = (1, 2, 3)
COMMAND = "PYTHONPATH=src python tests/golden.py"

sys.path.insert(0, str(ROOT / "bench"))
import instances as bench_instances  # noqa: E402
import workloads  # noqa: E402

sys.path.remove(str(ROOT / "bench"))

# the algorithms that take --k unless the file embeds its constraint
_NEEDS_K = ("mcg", "dmcg-symmetric", "dmcg-general", "brute-cardinality-eq", "brute-cardinality-le", "brute-polytope")
_SAMPLED = ("--samples", "16", "--steps", "20")


def _examples() -> dict[str, dict]:
    spec = importlib.util.spec_from_file_location("generate_instances", ROOT / "scripts" / "generate_instances.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EXAMPLES


def _run(flags: list[str]):
    """The argv of a ``submax run`` with these flags, given the instance and
    report paths."""
    return lambda instance, out: ["run", "--instance", instance, *flags, "--out", out]


def jobs() -> dict[str, tuple[dict, Callable[[str, str], list[str]]]]:
    """Every golden job: name -> (instance object, argv given the instance
    and report paths)."""
    out = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for job in workloads.jobs(workload, seed, "tiny"):
                out[f"bench/{workload}/{job.name}/seed{seed}"] = (job.instance, partial(job.argv, seed=seed))
    for file, obj in _examples().items():
        k = [] if obj["type"] in ("problem", "welfare") else ["--k", "2"]
        for algorithm in cli.ALGORITHMS:
            flags = ["--algorithm", algorithm, *(k if algorithm in _NEEDS_K else []), "--seed", "1"]
            out[f"example/{file}/{algorithm}"] = (obj, _run(flags))
            if algorithm.startswith(("mcg", "dmcg-")):
                out[f"example/{file}/{algorithm}/sampled"] = (obj, _run([*flags, *_SAMPLED]))
    cut = bench_instances.graph_cut(bench_instances.job_rng(0, "golden-cut-n100"), 100, 300)
    out["large/two-sided-cut-n100"] = (cut, _run(["--algorithm", "two-sided"]))
    out["large/mcg-cut-n100"] = (cut, _run(["--algorithm", "mcg", "--k", "25", "--steps", "20"]))
    return out


def entry(obj: dict, argv: Callable[[str, str], list[str]], workdir: Path) -> dict:
    """Run one job through ``cli.main`` and summarise its report."""
    instance, report_path = workdir / "instance.json", workdir / "report.json"
    instance.write_text(json.dumps(obj))
    report_path.unlink(missing_ok=True)
    with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("ignore")  # mcg on a non-symmetric file warns; refusals print their reason
        code = cli.main(argv(str(instance), str(report_path)))
    if code != 0:
        return {"exit_code": code}
    report = json.loads(report_path.read_text())["report"]
    return {
        "exit_code": 0,
        "report_sha256": hashlib.sha256(json.dumps(report, sort_keys=True, indent=2).encode()).hexdigest(),
        "oracle_calls": report["oracle_calls"],
        "achieved_value": report["achieved_value"],
    }


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def compute() -> dict[str, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: entry(obj, argv, Path(tmp)) for name, (obj, argv) in jobs().items()}


def main() -> int:
    golden = {**environment(), "command": COMMAND, "entries": compute()}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden['entries'])} entries to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
