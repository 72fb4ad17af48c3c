"""The benchmark's workloads: fixed job lists of ``submax run`` invocations.

Each workload is a closed loop: one client runs its jobs one at a time, in
list order, in one process with no worker threads.  Instances come from
``instances`` keyed by the workload seed; the sizes below are part of the
benchmark definition and do not depend on the seed.

``scale="tiny"`` shrinks every job to seconds in total; the self-test uses it
to exercise the whole harness quickly.  Figures are only comparable at
``scale="full"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import instances as gen

WORKLOADS = ("exact-ascent", "sampled-ascent", "discrete-verify")
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Job:
    """One ``submax run``: the instance object and the CLI flags after it."""

    name: str
    algorithm: str
    instance: dict
    flags: tuple[str, ...] = field(default_factory=tuple)
    k: int | None = None

    def argv(self, instance_path: str, out_path: str, seed: int) -> list[str]:
        args = ["run", "--instance", instance_path, "--algorithm", self.algorithm]
        if self.k is not None:
            args += ["--k", str(self.k)]
        return args + ["--seed", str(seed), "--out", out_path, *self.flags]


def _ascent_jobs(
    seed: int, prefix: str, ns: tuple[int, ...], flags: tuple[str, ...], general: str
) -> list[Job]:
    """mcg (cardinality, graph cut), mcg (two-part partition, hypergraph cut),
    dmcg-symmetric (graph cut) and dmcg-general (on ``general``: "coverage"
    or "hyper") at each n, all with k = n/4."""
    jobs = []
    for n in ns:
        k = max(1, n // 4)
        edges = n * (n - 1) // 4  # half of all pairs: dense cuts keep the ratios steady across seeds
        name = f"{prefix}-mcg-card-cut-n{n}"
        jobs.append(Job(name, "mcg", gen.graph_cut(gen.job_rng(seed, name), n, edges), flags, k))
        name = f"{prefix}-mcg-partition-hyper-n{n}"
        hyper = gen.hypergraph_cut(gen.job_rng(seed, name), n, 4 * n)
        jobs.append(Job(name, "mcg", gen.partition_problem(hyper, (k // 2 + 1, k // 2 + 1)), flags))
        name = f"{prefix}-dmcg-sym-cut-n{n}"
        jobs.append(Job(name, "dmcg-symmetric", gen.graph_cut(gen.job_rng(seed, name), n, edges), flags, k))
        name = f"{prefix}-dmcg-gen-{general}-n{n}"
        rng = gen.job_rng(seed, name)
        instance = gen.coverage(rng, n, 2 * n) if general == "coverage" else gen.hypergraph_cut(rng, n, 4 * n)
        jobs.append(Job(name, "dmcg-general", instance, flags, k))
    return jobs


def _discrete_jobs(seed: int, ns: tuple[int, ...], welfare_ns: tuple[int, ...], trials: int) -> list[Job]:
    """two-sided on graph cut, hypergraph cut and coverage at each n, then
    3-player welfare on coverage and hypergraph-cut utilities.  Sparse (2n)
    instances keep the 2^20-mask brute-force temporaries under 1 GB; the
    welfare hypergraph has 4n hyperedges so its ratio varies less by seed."""
    jobs = []
    for n in ns:
        for family, make in (
            ("cut", lambda rng: gen.graph_cut(rng, n, 2 * n)),
            ("hyper", lambda rng: gen.hypergraph_cut(rng, n, 2 * n)),
            ("coverage", lambda rng: gen.coverage(rng, n, 2 * n)),
        ):
            name = f"two-sided-{family}-n{n}"
            jobs.append(Job(name, "two-sided", make(gen.job_rng(seed, name))))
    for n in welfare_ns:
        for family, make in (
            ("coverage", lambda rng: gen.coverage(rng, n, 2 * n)),
            ("hyper", lambda rng: gen.hypergraph_cut(rng, n, 4 * n)),
        ):
            name = f"welfare-{family}-n{n}"
            utility = make(gen.job_rng(seed, name))
            jobs.append(Job(name, "welfare-random", gen.welfare(utility, 3), ("--samples", str(trials))))
    return jobs


def jobs(workload: str, seed: int, scale: str = "full") -> list[Job]:
    """The fixed job list of ``workload`` for ``seed``; the first job is the
    warm-up job that set-up runs once."""
    tiny = scale == "tiny"
    if workload == "exact-ascent":
        # default steps (100 n), exact estimator: n <= 16
        return _ascent_jobs(seed, "exact", (8, 10) if tiny else (12, 14, 16), (), "coverage")
    if workload == "sampled-ascent":
        flags = ("--samples", "32", "--steps", "30") if tiny else ("--samples", "256", "--steps", "30")
        return _ascent_jobs(seed, "sampled", (8,) if tiny else (18, 20), flags, "hyper")
    if workload == "discrete-verify":
        if tiny:
            return _discrete_jobs(seed, (8, 10), (6,), 2_000)
        return _discrete_jobs(seed, (16, 18, 20), (12,), 100_000)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
