"""Built-in fixture suite behind the CLI --self-check flag: runs every
executable lemma/property check at reduced trial counts and reports one line
per check."""

from __future__ import annotations

from .dmcg import check_concave_segment, check_max_y, check_y_properties, run_dmcg
from .fixtures import random_coverage, random_graph_cut, single_edge_cut, triangle_cut
from .mcg import AscentConfig, check_feasibility_invariants, run_mcg
from .multilinear import (
    Point,
    check_correlated_marginals_bound,
    check_lemma_general_properties,
    check_linearization_bound,
    check_random_subset_bound,
    check_union_bound_symmetric,
)
from .oracle import brute_unconstrained
from .polytope import CardinalityPolytope
from .reports import CheckReport, mean_and_sigma
from .twosided import check_loss_gain, run_two_sided
from .welfare import (
    brute_force_welfare,
    check_disjoint_unions,
    check_partial_union_bounds,
    check_repeated_subsample_union,
    simulate_random_assign,
    tight_instance,
    welfare_ratio,
)


def run_all(trials: int = 20_000, seed: int = 0) -> list[CheckReport]:
    reports: list[CheckReport] = []
    tri = triangle_cut()
    edge = single_edge_cut()
    cut8 = random_graph_cut(8, seed=seed + 11)
    cov6 = random_coverage(6, seed=seed + 12)

    reports.append(check_lemma_general_properties(tri, trials=20, seed=seed))
    reports.append(check_lemma_general_properties(cov6, trials=20, seed=seed + 1))

    reports.append(check_union_bound_symmetric(edge, Point([0.5, 0.0]), [0]))
    y_mid, _ = run_mcg(tri, CardinalityPolytope(3, 1), AscentConfig(T=0.5, steps=200))
    opt_mask, _ = brute_unconstrained(tri)
    reports.append(check_union_bound_symmetric(tri, y_mid, opt_mask))

    reports.append(check_linearization_bound(cut8, trials=30, seed=seed))

    _, traj = run_mcg(tri, CardinalityPolytope(3, 1), AscentConfig(T=1.0, steps=400))
    reports.append(check_feasibility_invariants(traj, CardinalityPolytope(3, 1)))

    cut6 = random_graph_cut(6, seed=seed + 13)
    _, dual = run_dmcg(cut6, 2, AscentConfig(steps=600))
    reports.append(check_y_properties(dual, 2))
    reports.append(check_concave_segment(cut6, *dual.last.ys))
    _, dual_g = run_dmcg(cov6, 3, AscentConfig(steps=600), "general")
    reports.append(check_max_y(dual_g))

    _, trace = run_two_sided(cut8)
    opt8, _ = brute_unconstrained(cut8)
    reports.append(check_loss_gain(cut8, trace, opt8))

    inst = tight_instance(3)
    expect = 3 * welfare_ratio(3)
    mean, sigma = mean_and_sigma(simulate_random_assign(inst, trials, seed=seed))
    reports.append(
        CheckReport(
            "tight-instance expected welfare",
            abs(mean - expect) <= 4.0 * sigma,
            details={"mean": mean, "expected": expect, "sigma": sigma},
        )
    )
    alloc, _ = brute_force_welfare(inst)
    reports.append(check_partial_union_bounds(inst, alloc, trials=trials, seed=seed))

    reports.append(check_disjoint_unions(cut8, [0b00000011, 0b00011100, 0b11100000], trials=trials, seed=seed))
    reports.append(check_repeated_subsample_union(cut8, [0b00001111, 0b00111100], 0.5, trials=trials, seed=seed))
    reports.append(check_random_subset_bound(cut8, trials=trials, seed=seed))
    reports.append(check_correlated_marginals_bound(cut8, trials=trials, seed=seed))
    return reports


def main(trials: int = 20_000, seed: int = 0) -> bool:
    reports = run_all(trials=trials, seed=seed)
    for rep in reports:
        print(rep.summary())
    ok = all(r.passed for r in reports)
    print(f"self-check: {sum(r.passed for r in reports)}/{len(reports)} checks passed")
    return ok
