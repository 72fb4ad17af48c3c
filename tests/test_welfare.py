import math

import numpy as np
import pytest

from conftest import (
    modular_function,
    peak_traced_bytes,
    random_coverage,
    simulate_by_draws,
    simulate_in_one_draw,
    single_edge_cut,
    tight_instance,
)
from lemmas import (
    allocation_total,
    audit_nonnegativity,
    audit_submodularity,
    check_disjoint_unions,
    check_partial_union_bounds,
    check_repeated_subsample_union,
    check_sampled_union_bounds,
)
from submax.fixtures import random_graph_cut, random_hypergraph_cut
from submax.multilinear import MultilinearEvaluator
from submax.rng import WELFARE_STREAM, substream
from submax.subsets import MASK_BLOCK
from submax import welfare
from submax.welfare import (
    WelfareInstance,
    brute_force_welfare,
    simulate_random_assign,
    welfare_ratio,
)


def test_single_player_gets_everything():
    f = modular_function(2, [1.0, 2.0])  # f(N) = 3 is the value of no other set
    inst = WelfareInstance(1, f)
    totals = simulate_random_assign(inst, 100, seed=0)
    assert (totals == f.eval([0, 1])).all()


def test_tight_instance_values():
    inst = tight_instance(3)
    f = inst.utility
    assert f.eval([0]) == 1.0
    assert f.eval([0, 1]) == 0.5
    assert f.eval([0, 1, 2]) == 0.0
    assert f.eval([]) == 0.0
    assert audit_nonnegativity(f)
    assert audit_submodularity(f)
    with pytest.raises(ValueError):
        tight_instance(1)


def test_tight_instance_optimum_is_one_item_per_player():
    inst = tight_instance(3)
    parts, opt = brute_force_welfare(inst)
    assert opt == 3.0
    assert sorted(parts) == [0b001, 0b010, 0b100]


def test_tight_instance_expected_total_k2():
    inst = tight_instance(2)
    totals = simulate_random_assign(inst, 100_000, seed=5)
    sigma = totals.std(ddof=1) / math.sqrt(totals.size)
    assert abs(totals.mean() - 1.0) <= 4 * sigma  # 2 E[f(N(1/2))] = 1


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tight_instance_matches_ratio_curve(k):
    inst = tight_instance(k)
    totals = simulate_random_assign(inst, 60_000, seed=k)
    sigma = totals.std(ddof=1) / math.sqrt(totals.size)
    expect = k * welfare_ratio(k)
    assert abs(totals.mean() - expect) <= 4 * sigma


@pytest.mark.parametrize("k", range(2, 17))
def test_tight_instance_meets_the_ratio_exactly(k):
    # random assignment gives each player a bundle distributed as R((1/k) 1),
    # so its expected total is k F((1/k) 1); on this instance OPT = k and the
    # guarantee holds with equality
    inst = tight_instance(k)
    ev = MultilinearEvaluator(inst.utility)  # the table fold of tests/lemmas.py
    assert ev.backend == "closed_form"
    assert k * ev.value(np.full(k, 1.0 / k)) == pytest.approx(k * welfare_ratio(k), rel=1e-12, abs=0.0)


def test_two_player_equivalence_with_unconstrained():
    # k = 2 random assignment has expected total 2 E[f(N(1/2))]
    f = random_graph_cut(6, seed=3)
    inst = WelfareInstance(2, f)
    totals = simulate_random_assign(inst, 60_000, seed=9)
    sigma = totals.std(ddof=1) / math.sqrt(totals.size)
    expect = 2 * MultilinearEvaluator(f).value(np.full(6, 0.5))
    assert abs(totals.mean() - expect) <= 4 * sigma


def test_brute_force_welfare_examples():
    assert brute_force_welfare(tight_instance(2))[1] == 2.0
    f = single_edge_cut()
    inst = WelfareInstance(1, f)
    assert brute_force_welfare(inst)[1] == f.eval([0, 1])
    inst2 = WelfareInstance(2, f)
    assert brute_force_welfare(inst2)[1] == 2.0  # split the edge
    big = WelfareInstance(5, random_graph_cut(20, seed=0))
    with pytest.raises(ValueError):
        brute_force_welfare(big)


def test_random_assignment_ratio_floor():
    for seed in range(5):
        n = 4 + seed % 3
        k = 2 + seed % 2
        f = random_graph_cut(n, seed=seed)
        inst = WelfareInstance(k, f)
        _, opt = brute_force_welfare(inst)
        totals = simulate_random_assign(inst, 30_000, seed=seed)
        sigma = totals.std(ddof=1) / math.sqrt(totals.size)
        assert totals.mean() / opt >= welfare_ratio(k) - 4 * sigma / opt


FAMILIES = {"cut": random_graph_cut, "hypergraph": random_hypergraph_cut, "coverage": random_coverage}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("k, n, trials", [(1, 2, 100), (3, 3, 50), (2, 6, 5000), (4, 8, 100), (3, 12, 2000)])
def test_simulation_reads_the_table_bit_for_bit(family, k, n, trials):
    assert 2**n < k * trials
    f = FAMILIES[family](n, seed=n)
    totals = simulate_random_assign(WelfareInstance(k, f), trials, seed=k)
    assert f.query_count == 2**n  # one query per subset, not one per bundle
    reference = simulate_by_draws(WelfareInstance(k, FAMILIES[family](n, seed=n)), trials, seed=k)
    assert totals.tobytes() == reference.tobytes()
    # the search reads the same table (k = 1 asks for f(N) alone instead)
    brute_force_welfare(WelfareInstance(k, f))
    assert f.query_count == 2**n + (k == 1)


@pytest.mark.parametrize("k, n, trials", [(2, 10, 512), (3, 12, 40), (5, 8, 3)])
def test_simulation_draws_when_the_table_is_not_smaller(k, n, trials):
    assert 2**n >= k * trials
    f = random_hypergraph_cut(n, seed=1)
    totals = simulate_random_assign(WelfareInstance(k, f), trials, seed=2)
    assert f.query_count == k * trials
    reference = simulate_by_draws(WelfareInstance(k, random_hypergraph_cut(n, seed=1)), trials, seed=2)
    assert totals.tobytes() == reference.tobytes()
    f.table()  # no table was built on the way
    assert f.query_count == k * trials + 2**n


def test_simulation_draws_above_the_table_limit(monkeypatch):
    monkeypatch.setattr(welfare, "TABLE_LIMIT", 3)
    f = random_hypergraph_cut(4, seed=1)
    totals = simulate_random_assign(WelfareInstance(2, f), 100, seed=2)
    assert f.query_count == 2 * 100
    reference = simulate_by_draws(WelfareInstance(2, random_hypergraph_cut(4, seed=1)), 100, seed=2)
    assert totals.tobytes() == reference.tobytes()


@pytest.mark.parametrize("n", [12, 30, 62])
@pytest.mark.parametrize("k", range(1, 6))
@pytest.mark.parametrize("trials", [1, MASK_BLOCK - 1, MASK_BLOCK, MASK_BLOCK + 1, 3 * MASK_BLOCK + 5])
def test_the_block_walk_equals_the_whole_draw(n, k, trials):
    # n = 12 reads the table once 2^12 < k * trials; n = 30 and n = 62 always ask the batch oracle
    f, g = random_hypergraph_cut(n, seed=n), random_hypergraph_cut(n, seed=n)
    totals = simulate_random_assign(WelfareInstance(k, f), trials, seed=k)
    reference = simulate_in_one_draw(WelfareInstance(k, g), trials, seed=k)
    assert totals.tobytes() == reference.tobytes()
    assert f.query_count == g.query_count == (2**n if n == 12 and 2**n < k * trials else k * trials)


@pytest.mark.parametrize("block", [1, 37, 100])
def test_small_blocks_equal_the_whole_draw(monkeypatch, block):
    monkeypatch.setattr(welfare, "MASK_BLOCK", block)
    for k, n, trials in [(3, 13, 1000), (5, 7, 1001), (2, 13, 999)]:
        totals = simulate_random_assign(WelfareInstance(k, random_coverage(n, seed=k)), trials, seed=4)
        reference = simulate_in_one_draw(WelfareInstance(k, random_coverage(n, seed=k)), trials, seed=4)
        assert totals.tobytes() == reference.tobytes()


@pytest.mark.parametrize("trials, n, k, block", [(100_000, 12, 3, 4096), (1001, 7, 5, 100), (999, 13, 2, 37),
                                                 (1000, 13, 3, 1)])
def test_consecutive_draws_are_the_one_shot_draw(trials, n, k, block):
    whole = substream(9, WELFARE_STREAM).integers(0, k, size=(trials, n))
    rng = substream(9, WELFARE_STREAM)
    blocks = [rng.integers(0, k, size=(min(block, trials - start), n)) for start in range(0, trials, block)]
    assert np.array_equal(np.concatenate(blocks), whole)


def test_simulation_memory_stays_at_one_block():
    # the whole (100000, 40) draw alone is 32 MB, and each packing pass copies
    # it; 40 hyperedges keep the kernel's own (block, rows) temporaries small
    f = random_hypergraph_cut(40, seed=2)
    assert peak_traced_bytes(lambda: simulate_random_assign(WelfareInstance(3, f), 100_000, seed=1)) < 12 * 2**20


def test_a_second_table_makes_no_query():
    f = random_coverage(9, seed=4)
    table = f.table()
    assert f.query_count == 2**9
    assert f.table() is table and not table.flags.writeable
    MultilinearEvaluator(f).table()
    assert f.query_count == 2**9
    assert table.tobytes() == np.array([f.eval(m) for m in range(2**9)]).tobytes()


@pytest.mark.parametrize("k, n", [(1, 5), (2, 9), (3, 7), (4, 5)])
def test_brute_force_welfare_parts_partition_the_items(k, n):
    for seed in range(3):
        f = random_graph_cut(n, seed=60 + seed)
        parts, opt = brute_force_welfare(WelfareInstance(k, f))
        assert len(parts) == k
        union = 0
        for part in parts:
            assert not union & part  # disjoint
            union |= part
        assert union == (1 << n) - 1  # every item goes to a player
        assert allocation_total(f, parts) == opt


def test_random_assign_is_seed_deterministic():
    inst = tight_instance(4)
    a = simulate_random_assign(inst, 50, seed=11)
    b = simulate_random_assign(inst, 50, seed=11)
    c = simulate_random_assign(inst, 50, seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)  # another seed draws other assignments


def test_partial_union_bounds_tight_instance():
    inst = tight_instance(3)
    parts, opt = brute_force_welfare(inst)
    rep = check_partial_union_bounds(inst, parts, trials=40_000, seed=2)
    assert rep.passed, rep.details
    assert rep.details["i=0"]["bound"] == pytest.approx(0.0)  # vanishing bracket
    # the i = k bound equals the welfare guarantee over k
    expect = welfare_ratio(3) * opt / 3
    assert rep.details["i=3"]["bound"] == pytest.approx(expect)


def test_partial_union_bounds_cut_instance():
    f = random_graph_cut(6, seed=4)
    inst = WelfareInstance(3, f)
    parts, _ = brute_force_welfare(inst)
    rep = check_partial_union_bounds(inst, parts, trials=40_000, seed=3)
    assert rep.passed, rep.details


def test_disjoint_union_bound():
    f = random_graph_cut(9, seed=7)
    rep = check_disjoint_unions(f, [0b000000111, 0b000111000, 0b111000000], trials=40_000, seed=1)
    assert rep.passed, rep.details
    # h = 1: the estimate is the plain average (equality of means)
    d = rep.details["h=1"]
    assert abs(d["estimate"] - d["bound"]) <= 5 * d["sigma"]
    # h = l: the bound degenerates to 0, satisfied by non-negativity
    assert rep.details["h=3"]["bound"] == pytest.approx(0.0)
    with pytest.raises(ValueError):
        check_disjoint_unions(f, [0b1], trials=10)
    with pytest.raises(ValueError):
        check_disjoint_unions(f, [0b11, 0b110], trials=10)


def test_repeated_subsample_union_bound():
    f = random_graph_cut(8, seed=8)
    for p in (0.25, 0.5):
        rep = check_repeated_subsample_union(f, [0b00001111, 0b00111100], p, trials=40_000, seed=2)
        assert rep.passed, rep.details


def test_combined_union_bounds_on_random_families():
    for seed in range(3):
        f = random_graph_cut(8, seed=30 + seed)
        rep = check_sampled_union_bounds(f, trials=20_000, seed=seed)
        assert rep.passed, rep.details
    with pytest.raises(ValueError):
        check_sampled_union_bounds(random_graph_cut(3, seed=0), trials=10)


def test_check_reports_serialize_to_json():
    import json

    inst = tight_instance(3)
    parts, _ = brute_force_welfare(inst)
    rep = check_partial_union_bounds(inst, parts, trials=5000, seed=0)
    decoded = json.loads(rep.to_json())
    assert decoded["passed"] is True
    assert "estimate" in decoded["details"]["i=1"]
    assert "sigma" in decoded["details"]["i=1"]
