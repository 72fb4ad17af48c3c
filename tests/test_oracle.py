import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complement_function,
    coverage_instances,
    peak_traced_bytes,
    per_mask,
    random_coverage,
    ring_cut_20,
    sum_functions,
    triangle_cut,
)
from submax.fixtures import random_graph_cut, random_hypergraph_cut
from submax.oracle import brute_cardinality, brute_polytope_integral, brute_unconstrained
from submax.polytope import CardinalityPolytope, KnapsackPolytope, PartitionPolytope, Polytope
from submax.rng import substream
from submax.setfn import (
    SetFunction,
    coverage_function,
    graph_cut_function,
    hardness_instance,
    hypergraph_cut_function,
    restrict_function,
)
from submax.subsets import MASK_BLOCK, full_mask, indices
from submax.welfare import WelfareInstance, brute_force_welfare


def zero_function(n):
    return SetFunction(n, per_mask(lambda m: 0.0))


def test_brute_unconstrained_examples():
    mask, value = brute_unconstrained(triangle_cut())
    assert value == 2.0
    mask, value = brute_unconstrained(zero_function(4))
    assert (mask, value) == (0, 0.0)  # ties go to the smallest bitmask
    f = hardness_instance(1, 2)
    mask, value = brute_unconstrained(f)
    assert value == 1.0 and mask == 0b0001


def test_brute_cardinality_examples():
    assert brute_cardinality(triangle_cut(), 1)[1] == 2.0
    mask, value = brute_cardinality(triangle_cut(), 0)
    assert (mask, value) == (0, 0.0)
    assert brute_cardinality(hardness_instance(1, 2), 2)[1] == 1.0


def test_brute_polytope_examples():
    tri = triangle_cut()
    P = KnapsackPolytope([1.0, 1.0, 3.0], 2.0)
    mask, value = brute_polytope_integral(tri, P)
    assert value == 2.0
    # a polytope admitting every subset reproduces the unconstrained optimum
    P_all = CardinalityPolytope(3, 3)
    assert brute_polytope_integral(tri, P_all) == brute_unconstrained(tri)
    # and |S| <= 1 on the triangle peaks at the |S| = 1 optimum
    P_k = CardinalityPolytope(3, 1)
    assert brute_polytope_integral(tri, P_k) == brute_cardinality(tri, 1)


@pytest.mark.parametrize("e", [-30, -40])
def test_brute_knapsack_optimum_is_feasible_at_every_scale(e):
    # a and b times 2^e pose the same problem, exactly in floating point; an
    # absolute slack of 1e-9 made the optimum of 19 of these 20 knapsacks an
    # infeasible set, using up to 1.56 (e = -30) and 2.23 (e = -40) times b
    for seed in range(20):
        rng = substream(seed, 0x5CA1E)
        f = random_graph_cut(10, seed)
        a = rng.uniform(0.1, 1.0, size=10)
        b = 0.3 * float(a.sum())
        mask, value = brute_polytope_integral(f, KnapsackPolytope(a, b))
        a_e, b_e = np.ldexp(a, e), math.ldexp(b, e)
        assert brute_polytope_integral(f, KnapsackPolytope(a_e, b_e)) == (mask, value)
        assert sum(Fraction(a_e[u]) for u in indices(mask)) <= Fraction(b_e)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=9), seed=st.integers(min_value=0, max_value=500))
def test_oracle_ordering_chain(n, seed):
    f = random_graph_cut(n, seed)
    k = max(1, n // 2)
    eq = brute_cardinality(f, k)[1]
    le = brute_polytope_integral(f, CardinalityPolytope(n, k))[1]
    un = brute_unconstrained(f)[1]
    assert eq <= le + 1e-12 <= un + 1e-12


def test_oracle_rejects_oversized_ground_sets():
    f = SetFunction(23, per_mask(lambda m: 0.0))
    with pytest.raises(ValueError):
        brute_unconstrained(f)
    with pytest.raises(ValueError):
        brute_cardinality(f, 2)
    with pytest.raises(ValueError):
        brute_polytope_integral(f, CardinalityPolytope(23, 2))


def test_oracle_determinism():
    f = random_graph_cut(8, seed=9)
    assert brute_unconstrained(f) == brute_unconstrained(f)


def test_brute_cardinality_respects_mode():
    # value at |S| = 3 on the triangle is 0 (full set), |S| <= 3 keeps the max
    tri = triangle_cut()
    assert brute_cardinality(tri, 3)[1] == 0.0
    assert brute_polytope_integral(tri, CardinalityPolytope(3, 3))[1] == 2.0


def test_oracles_reject_a_ground_set_other_than_f():
    tri = triangle_cut()
    # a 5-element polytope on a 3-element cut would search masks outside its ground set
    with pytest.raises(ValueError, match="ground set"):
        brute_polytope_integral(tri, CardinalityPolytope(5, 2))
    with pytest.raises(ValueError, match="ground set"):
        brute_polytope_integral(tri, KnapsackPolytope([1.0, 1.0], 1.0))
    assert brute_polytope_integral(tri, CardinalityPolytope(3, 1)) == (1, 2.0)


# ---------------------------------------------------------------------------
# streamed enumeration: block boundaries against a single-pass reference
# ---------------------------------------------------------------------------


class BudgetPolytope(Polytope):
    """A kind the brute force knows only through its membership oracle."""

    kind = "budget"

    def __init__(self, costs, budget):
        self.costs = np.asarray(costs, dtype=float)
        self.budget = float(budget)
        self.n = self.costs.size

    def membership(self, x) -> bool:
        return bool(np.asarray(x, dtype=float) @ self.costs <= self.budget + 1e-9)


def integer_cut(n, seed):
    """Cut with small integer weights: sums are exact in any order, and
    S and N \\ S tie, usually in different mask blocks."""
    rng = substream(seed, 0xB10C)
    edges = [(u, v, float(rng.integers(1, 4))) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    return graph_cut_function(n, edges)


def reference_argmax(table, feasible):
    """Scan every mask once in ascending order: the first maximizer wins."""
    masks = np.array([m for m in range(table.size) if feasible(m)], dtype=np.int64)
    i = int(np.argmax(table[masks]))
    return int(masks[i]), float(table[masks[i]])


def size(m):
    return bin(m).count("1")


@pytest.mark.parametrize("n", [13, 14])
def test_streamed_brute_force_matches_a_single_pass(n):
    assert (1 << n) >= 2 * MASK_BLOCK
    f = integer_cut(n, seed=n)
    table = np.array([f.eval(m) for m in range(1 << n)])
    assert brute_unconstrained(f) == reference_argmax(table, lambda m: True)
    for k in (0, 1, n // 2, n - 1, n):
        assert brute_cardinality(f, k) == reference_argmax(table, lambda m: size(m) == k)
        le = brute_polytope_integral(f, CardinalityPolytope(n, k))
        assert le == reference_argmax(table, lambda m: size(m) <= k)
    # k = 0 and k = n leave one feasible mask: every other block filters to nothing
    assert brute_cardinality(f, 0) == (0, 0.0)
    assert brute_cardinality(f, n) == ((1 << n) - 1, 0.0)

    a = np.arange(1, n + 1, dtype=float)
    polytopes = [
        (CardinalityPolytope(n, 3), lambda m: size(m) <= 3),
        (PartitionPolytope([list(range(0, n, 2)), list(range(1, n, 2))], [2, 1]),
         lambda m: size(m & 0x5555) <= 2 and size(m & 0x2AAA) <= 1),
        (KnapsackPolytope(a, 12.0), lambda m: sum(a[u] for u in indices(m)) <= 12.0),
        (BudgetPolytope(a[::-1], 15.0), lambda m: sum(a[::-1][u] for u in indices(m)) <= 15.0),
    ]
    for P, feasible in polytopes:
        assert brute_polytope_integral(f, P) == reference_argmax(table, feasible)


def integer_hypergraph_cut(n, seed):
    """Hypergraph cut with small integer weights on 2-4 vertices per edge."""
    rng = substream(seed, 0x4E7)
    hyperedges = []
    for _ in range(n if n >= 2 else 0):
        verts = rng.choice(n, size=int(rng.integers(2, min(4, n) + 1)), replace=False)
        hyperedges.append((frozenset(int(v) for v in verts), float(rng.integers(1, 4))))
    return hypergraph_cut_function(n, hyperedges)


SYMMETRIC_FAMILIES = {
    "cut": integer_cut,
    "hypergraph": integer_hypergraph_cut,
    "sum": lambda n, seed: sum_functions([integer_cut(n, seed), integer_hypergraph_cut(n, seed + 1)]),
    "complement": lambda n, seed: complement_function(integer_hypergraph_cut(n, seed)),
    "restriction": lambda n, seed: restrict_function(
        integer_cut(n, seed), substream(seed, 0x9E4).permutation(n).tolist()
    ),
}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=14),
    seed=st.integers(min_value=0, max_value=10_000),
    family=st.sampled_from(sorted(SYMMETRIC_FAMILIES)),
)
def test_symmetric_search_scans_half_the_cube_and_matches_a_full_pass(n, seed, family):
    f = SYMMETRIC_FAMILIES[family](n, seed)
    assert f.symmetric
    got = brute_unconstrained(f)
    assert f.query_count == 1 << max(n - 1, 0)
    table = f.eval_many(np.arange(1 << n, dtype=np.int64))
    assert got == reference_argmax(table, lambda m: True)
    # the same oracle without the flag reads the whole cube to the same answer
    plain = SetFunction(n, eval_many_masks=f._values)
    assert brute_unconstrained(plain) == got
    assert plain.query_count == 1 << n


@pytest.mark.parametrize("n", range(15))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_monotone_search_descends_from_the_full_set_and_matches_a_full_pass(n, data):
    f = data.draw(coverage_instances(n))
    assert f.monotone
    got = brute_unconstrained(f)
    assert f.query_count == n + 1
    table = f.eval_many(np.arange(1 << n, dtype=np.int64))
    assert got == reference_argmax(table, lambda m: True)
    # the same oracle without the flag reads the whole cube to the same answer
    plain = SetFunction(n, eval_many_masks=f._values)
    assert brute_unconstrained(plain) == got
    assert plain.query_count == 1 << n


def test_monotone_search_leaves_out_what_adds_nothing():
    # elements 3 and 4, the top bits, cover nothing, and of elements 0 and 2
    # (both cover item 0) the smaller mask keeps 0
    f = coverage_function(5, [1.0, 2.0, 0.5], [[0], [1, 2], [0, 2], [], []])
    g = restrict_function(f, [4, 0, 1, 2, 3])  # element 0 of g covers nothing
    zero = coverage_function(4, [0.0, 0.0], [[0], [1], [0, 1], []])
    for h, expected in ((f, (0b00011, 3.5)), (g, (0b00110, 3.5)), (zero, (0, 0.0))):
        assert brute_unconstrained(h) == expected
        assert h.query_count == h.n + 1
        assert brute_unconstrained(SetFunction(h.n, eval_many_masks=h._values)) == expected


def test_monotone_descent_runs_beyond_the_brute_force_limit():
    # 70 elements: a mask above bit 62 is a Python int, and only the descent
    # runs; items of weight 0 and elements that cover nothing are left out,
    # and element 69 alone covers the last item
    n, items = 70, 40
    rng = substream(70, 0xDE5)
    weights = [float(w) for w in rng.integers(0, 3, size=items)] + [1.0]
    membership = [rng.choice(items, size=int(rng.integers(0, 4)), replace=False).tolist() for _ in range(n - 1)]
    membership.append([items])
    f = coverage_function(n, weights, membership)
    got = brute_unconstrained(f)
    assert f.query_count == n + 1
    # the descent's definition on the sets: drop u = n - 1, ..., 0 while the
    # rest still covers every item of positive weight that N covers
    needed = {j for cover in membership for j in cover if weights[j] > 0}
    kept = set(range(n))
    for u in reversed(range(n)):
        if needed <= {j for v in kept - {u} for j in membership[v]}:
            kept.discard(u)
    assert got == (sum(1 << u for u in kept), f.eval(full_mask(n)))
    assert got[0] >> 69 == 1
    with pytest.raises(ValueError, match="limited"):
        brute_cardinality(f, 2)


def test_only_coverage_and_its_restrictions_are_flagged_monotone():
    cover = random_coverage(6, seed=1)
    assert cover.monotone
    assert restrict_function(cover, [4, 0, 2]).monotone and restrict_function(cover, list(range(6))).monotone
    cut = random_graph_cut(6, seed=1)
    assert not any(f.monotone for f in (
        cut, restrict_function(cut, [0, 1]), random_hypergraph_cut(6, seed=2), hardness_instance(1, 2),
        SetFunction(3, per_mask(float)),  # monotone values, but no claim
    ))


def test_streamed_brute_force_ties_go_to_the_smallest_mask():
    n = 14
    top = {4103: 1.0, 8195: 1.0, 12289: 1.0}  # equal maxima in blocks 1, 2 and 3

    def many(masks):
        return np.array([top.get(int(m), 0.5) for m in masks.ravel()]).reshape(masks.shape)

    f = SetFunction(n, many)
    assert brute_unconstrained(f) == (4103, 1.0)
    # 4103 has 4 elements, 8195 and 12289 have 3
    assert brute_cardinality(f, 3) == (8195, 1.0)
    assert brute_polytope_integral(f, CardinalityPolytope(n, 3)) == (8195, 1.0)
    assert brute_polytope_integral(f, CardinalityPolytope(n, 4)) == (4103, 1.0)
    assert brute_polytope_integral(f, KnapsackPolytope(np.ones(n), 3.0)) == (8195, 1.0)


# ---------------------------------------------------------------------------
# size-bounded walk: a constrained search builds only sets of a size it admits
# ---------------------------------------------------------------------------


@st.composite
def dyadic_functions(draw, n):
    """f on n elements whose values are sums of powers of two (a coverage) or
    quarters (a drawn table): every sum is exact, so ties are common and
    each must go to the smallest mask."""
    rng = substream(draw(st.integers(min_value=0, max_value=10_000)), 0xD7AD)
    if draw(st.booleans()):
        table = rng.integers(0, 4, size=1 << n) / 4.0
        return SetFunction(n, lambda masks: table[masks])
    weights = [2.0 ** int(e) for e in rng.integers(-2, 2, size=n + 1)]
    membership = [rng.choice(n + 1, size=int(rng.integers(0, 3)), replace=False).tolist() for _ in range(n)]
    return coverage_function(n, weights, membership)


@st.composite
def partitions(draw, n):
    """Up to three parts of range(n), each bounded by 0, below, at or above its size."""
    labels = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    parts = [part for part in ([u for u in range(n) if labels[u] == p] for p in range(3)) if part]
    return parts, [len(part) + draw(st.sampled_from([-len(part), -1, 0, 1])) for part in parts]


def spy_integral(P):
    """Record every mask batch that P's brute-force filter is asked about."""
    seen = []
    integral = P.integral

    def recording(masks):
        seen.append(np.array(masks))
        return integral(masks)

    P.integral = recording
    return seen


@pytest.mark.parametrize("n", range(15))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_size_bounded_walk_matches_a_full_filtered_scan(n, data):
    f = data.draw(dyadic_functions(n))
    table = f.eval_many(np.arange(1 << n, dtype=np.int64))
    rows = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    size = rows.sum(axis=1)

    def check(search, admissible):
        # a full ascending scan of the admissible masks; the walk asks for
        # each admissible set once and for no other
        masks = np.flatnonzero(admissible)
        i = int(np.argmax(table[masks]))
        before = f.query_count
        assert search() == (int(masks[i]), float(table[masks[i]]))
        assert f.query_count - before == masks.size

    for k in range(n + 1):
        check(lambda: brute_cardinality(f, k), size == k)
        P = CardinalityPolytope(n, k)
        filtered = spy_integral(P)
        check(lambda: brute_polytope_integral(f, P), size <= k)
        assert P.size_limit() == (k, True) and filtered == []  # the size decides
    parts, bounds = data.draw(partitions(n))
    P = PartitionPolytope(parts, bounds)
    admissible = np.ones(1 << n, dtype=bool)
    for part, b in zip(parts, bounds):
        admissible &= rows[:, part].sum(axis=1) <= b
    rank, exact = P.size_limit()
    assert rank == size[admissible].max() and exact == np.array_equal(admissible, size <= rank)
    filtered = spy_integral(P)
    check(lambda: brute_polytope_integral(f, P), admissible)
    assert all((rows[masks].sum(axis=1) <= rank).all() for masks in filtered)
    assert not (exact and filtered)
    if n:
        rng = substream(n, 0x4A9)
        a = 2.0 ** rng.integers(-1, 3, size=n)
        b = float(2.0 ** rng.integers(0, 4))
        P = KnapsackPolytope(a, b)
        assert P.size_limit() == (n, False)  # a knapsack bounds no size
        check(lambda: brute_polytope_integral(f, P), rows @ a <= b + 1e-9)


@pytest.mark.parametrize("k, n", [(2, 13), (3, 9), (4, 7), (5, 6)])
def test_streamed_welfare_search_matches_a_single_pass(k, n):
    f = integer_cut(n, seed=3)
    inst = WelfareInstance(k, f)
    value = functools.cache(f.eval)
    best, best_code = -np.inf, None
    for code in range(k**n):
        digits = [(code // k**u) % k for u in range(n)]
        total = sum(value(sum(1 << u for u in range(n) if digits[u] == p)) for p in range(k))
        if total > best:
            best, best_code = total, code
    parts, opt = brute_force_welfare(inst)
    assert k**n > MASK_BLOCK
    assert np.float64(opt).tobytes() == np.float64(best).tobytes()
    assert parts == tuple(
        sum(1 << u for u in range(n) if (best_code // k**u) % k == p) for p in range(k)
    )


@pytest.mark.parametrize("k, n", [(2, 10), (3, 7), (5, 4), (1, 12), (1, 40)])
def test_welfare_search_queries_each_set_once(k, n):
    # k = 1 asks for f(N) alone, so n = 40 builds no 2^40 table
    f = integer_cut(n, seed=5)
    parts, _ = brute_force_welfare(WelfareInstance(k, f))
    assert f.query_count == (1 if k == 1 else 2**n)
    if k == 1:
        assert parts == ((1 << n) - 1,)


def test_brute_unconstrained_memory_stays_at_one_block():
    f = ring_cut_20()
    assert peak_traced_bytes(lambda: brute_unconstrained(f)) < 16 * 2**20


@pytest.mark.parametrize(
    "search",
    [
        lambda f: brute_cardinality(f, 5),
        lambda f: brute_polytope_integral(f, CardinalityPolytope(20, 5)),
        lambda f: brute_polytope_integral(f, PartitionPolytope([list(range(0, 20, 2)), list(range(1, 20, 2))], [3, 2])),
    ],
    ids=["cardinality", "cardinality-polytope", "partition"],
)
def test_constrained_brute_force_memory_stays_at_one_block(search):
    f = ring_cut_20()
    assert peak_traced_bytes(lambda: search(f)) < 16 * 2**20
