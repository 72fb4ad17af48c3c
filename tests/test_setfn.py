import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    complement_function,
    coverage_instances,
    embed_by_bit_rows,
    modular_function,
    peak_traced_bytes,
    per_mask,
    reference_kernel,
    restrict_by_embedding,
    ring_cut_20,
    single_edge_cut,
    sum_functions,
    tight_instance,
    triangle_cut,
)
from lemmas import audit_nonnegativity, audit_submodularity, audit_symmetry
from submax.fixtures import random_graph_cut, random_hypergraph_cut
from submax.mcg import AscentConfig, run_mcg
from submax.multilinear import Estimator, MultilinearEvaluator
from submax.polytope import CardinalityPolytope
from submax.rng import substream
from submax.setfn import (
    TABLE_LIMIT,
    SetFunction,
    coverage_function,
    graph_cut_function,
    hardness_instance,
    hypergraph_cut_function,
    restrict_function,
)
from submax.subsets import (
    MASK_BLOCK,
    MAX_MASK_BITS,
    as_mask,
    bits_from_masks,
    full_mask,
    indices,
    mask_array,
    masks_from_bits,
    popcount_array,
    word,
)


def square_cardinality(n):
    """f(S) = |S|^2: supermodular, used as a negative control."""
    return SetFunction(n, per_mask(lambda m: float(bin(m).count("1") ** 2)))


# ---------------------------------------------------------------------------
# graph cut values
# ---------------------------------------------------------------------------


def test_cut_eval_triangle():
    f = graph_cut_function(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert f.eval([]) == 0.0
    assert f.eval([0]) == 2.0


def test_cut_eval_single_edge_all_subsets():
    f = graph_cut_function(2, [(0, 1, 1.0)])
    values = {0b00: 0.0, 0b01: 1.0, 0b10: 1.0, 0b11: 0.0}
    for mask, expected in values.items():
        assert f.eval(mask) == expected


@pytest.mark.parametrize(
    "build, args, message",
    [
        (graph_cut_function, (-1, []), "n must be non-negative"),
        (graph_cut_function, (2, [(0, 2, 1.0)]), r"row 0 is \(0, 2\): .* range\(2\)"),
        (graph_cut_function, (2, [(0, 1, 1.0), (-1, 1, 1.0)]), r"row 1 is \(-1, 1\)"),
        (graph_cut_function, (2, [(0, 2**70, 1.0)]), r"row 0 is \(0, 1180591620717411303424\)"),
        (graph_cut_function, (2, [(0, 1, 1.0), (1, 1, 1.0)]), r"row 1 is \(1, 1\): .* distinct"),
        (graph_cut_function, (2, [(0, 1, -0.5)]), "weight -0.5"),
        (hypergraph_cut_function, (-1, []), "n must be non-negative"),
        (hypergraph_cut_function, (3, [((0, 3), 1.0)]), r"row 0 is \(0, 3\)"),
        (hypergraph_cut_function, (3, [((0, 1), 1.0), ([2, 0, 0], 1.0)]), r"row 1 is \(0, 0, 2\)"),
        (hypergraph_cut_function, (3, [({1}, 1.0)]), r"row 0 is \(1,\): .* at least 2"),
        (hypergraph_cut_function, (3, [((0, 1), -1.0)]), "weight -1.0"),
        (coverage_function, (-1, [], []), "n must be non-negative"),
        (coverage_function, (2, [1.0], [[0]]), "each of the n = 2 elements, got 1"),
        (coverage_function, (2, [1.0], [[0], [0], [0]]), r"row 0 is \(0, 1, 2\)"),
        (coverage_function, (2, [1.0], [[0], [1]]), "covers item 1, outside the 1 universe items"),
        (coverage_function, (1, [-2.0], [[0]]), "weight -2.0"),
        (hardness_instance, (0, 1), "positive"),
        (hardness_instance, (2, 2), "p < q"),
    ],
    ids=["cut-negative-n", "cut-out-of-range", "cut-negative-element", "cut-beyond-int64", "cut-repeated",
         "cut-negative-weight", "hyper-negative-n", "hyper-out-of-range", "hyper-repeated", "hyper-one-vertex", "hyper-negative-weight",
         "cover-negative-n", "cover-short-membership", "cover-long-membership", "cover-item-out-of-range",
         "cover-negative-weight", "hardness-p-0", "hardness-p-equals-q"],
)
def test_builders_reject_malformed_rows(build, args, message):
    with pytest.raises(ValueError, match=message):
        build(*args)


def test_builders_take_an_empty_ground_set_and_coverage_reads_items_as_sets():
    assert graph_cut_function(0, []).n == hypergraph_cut_function(0, []).n == coverage_function(0, [], []).n == 0
    once, twice = coverage_function(2, [1.0, 2.0], [[0], [1]]), coverage_function(2, [1.0, 2.0], [[0, 0], [1]])
    assert np.array_equal(once.table(), twice.table())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "build, args",
    [
        (graph_cut_function, lambda w: (2, [(0, 1, w)])),
        (hypergraph_cut_function, lambda w: (3, [((0, 1, 2), w)])),
        (coverage_function, lambda w: (1, [w], [[0]])),
    ],
    ids=["graph_cut", "hypergraph_cut", "coverage"],
)
def test_builders_reject_non_finite_weights(build, args, bad):
    # a NaN weight would make every value NaN, and an infinite one f(empty) = 0 * inf = NaN
    with pytest.raises(ValueError, match=f"row 0 has weight {bad!r}: weights must be finite"):
        build(*args(bad))


# ---------------------------------------------------------------------------
# complement wrapper
# ---------------------------------------------------------------------------


def test_complement_agrees_with_symmetric_function():
    f = triangle_cut()
    fbar = complement_function(f)
    for mask in range(8):
        assert fbar.eval(mask) == f.eval(mask)
    assert fbar.symmetric


def test_complement_of_coverage():
    f = coverage_function(3, [1.0, 2.0], [[0], [1], [0, 1]])
    fbar = complement_function(f)
    assert fbar.eval([0]) == f.eval([1, 2])
    assert not fbar.symmetric


@given(mask=st.integers(min_value=0, max_value=15))
def test_complement_is_an_involution(mask):
    f = random_graph_cut(4, seed=3)
    fbarbar = complement_function(complement_function(f))
    assert fbarbar.eval(mask) == f.eval(mask)


# ---------------------------------------------------------------------------
# hardness fixture
# ---------------------------------------------------------------------------


def test_hardness_instance_values():
    f = hardness_instance(1, 2)
    assert f.n == 4
    assert f.eval([0]) == 1.0  # first endpoint in, last out
    assert f.eval([0, 3]) == 0.0  # both endpoints in
    assert f.eval([0, 1]) == 1.0  # a size-2p set of value 1
    assert f.symmetric


def test_hardness_instance_rejects_bad_params():
    with pytest.raises(ValueError):
        hardness_instance(2, 2)
    with pytest.raises(ValueError):
        hardness_instance(3, 2)
    with pytest.raises(ValueError):
        hardness_instance(0, 2)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def test_audit_submodularity_examples():
    assert audit_submodularity(triangle_cut())
    assert not audit_submodularity(square_cardinality(2))  # 1 + 1 < 4 + 0
    assert audit_submodularity(hardness_instance(1, 2))


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=50))
def test_random_cut_instances_are_symmetric_submodular_nonnegative(n, seed):
    f = random_graph_cut(n, seed)
    assert audit_symmetry(f)
    assert audit_submodularity(f)
    assert audit_nonnegativity(f)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=3, max_value=8), seed=st.integers(min_value=0, max_value=50))
def test_random_hypergraph_instances_are_symmetric_submodular(n, seed):
    f = random_hypergraph_cut(n, seed)
    assert audit_symmetry(f)
    assert audit_submodularity(f)


@pytest.mark.parametrize("make", [random_graph_cut, random_hypergraph_cut])
@pytest.mark.parametrize("n", [0, 1])
def test_random_cut_fixtures_reject_fewer_than_two_vertices(make, n):
    with pytest.raises(ValueError, match="n >= 2"):
        make(n, seed=0)
    assert make(2, seed=0).n == 2  # the smallest ground set with an edge


def test_audit_sampled_mode_used_beyond_exhaustive_limit():
    f = random_graph_cut(16, seed=1)
    assert audit_submodularity(f, exhaustive_limit=10, trials=200)
    with pytest.raises(ValueError, match="n must be <= 14"):
        audit_symmetry(f)  # the symmetry audit is exhaustive only


def test_audits_take_the_ground_set_from_f():
    # a ground set of another size than f's gives wrong answers or misleading
    # errors, so the audits accept none
    f = random_graph_cut(5, seed=3)
    for audit, size in ((audit_submodularity, 5), (audit_symmetry, 3), (audit_nonnegativity, 40)):
        with pytest.raises(TypeError):
            audit(f, size)


# ---------------------------------------------------------------------------
# oracle bookkeeping
# ---------------------------------------------------------------------------


def test_query_count_increments_once_per_eval():
    f = triangle_cut()
    before = f.query_count
    f.eval([0])
    f.eval([0, 1])
    assert f.query_count == before + 2
    f.eval_many(np.arange(8, dtype=np.int64))
    assert f.query_count == before + 10


def test_query_count_is_thread_safe():
    import threading

    f = triangle_cut()

    def worker():
        for _ in range(500):
            f.eval(0b101)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert f.query_count == 2000


def test_eval_accepts_masks_and_index_iterables():
    f = triangle_cut()
    assert f.eval(0b101) == f.eval([0, 2]) == f.eval((2, 0))
    with pytest.raises(ValueError):
        f.eval([3])
    with pytest.raises(ValueError):
        f.eval(1 << 3)


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------


def test_restriction_embeds_subsets():
    f = triangle_cut()
    g = restrict_function(f, [0, 2])
    assert g.n == 2
    assert g.eval([0]) == f.eval([0])
    assert g.eval([1]) == f.eval([2])
    assert g.eval([0, 1]) == f.eval([0, 2])


@pytest.mark.parametrize("kept, entry", [([0, 0], "entry 1 is 0"), ([0, 5], "entry 1 is 5"),
                                         ([-1, 1], "entry 0 is -1"), ([0, 1.0], "entry 1 is 1.0")])
def test_a_restriction_keeps_distinct_elements_of_the_ground_set(kept, entry):
    # a repeated element once gave an oracle whose mean over the 4 sets at
    # x = (1/2, 1/2) was 3.25 while its closed form said 2.5; an element out
    # of range raised an IndexError or a "negative shift count"
    with pytest.raises(ValueError, match=f"kept {entry}: kept lists distinct elements of range\\(3\\)"):
        restrict_function(triangle_cut(), kept)


def test_only_a_row_family_restricts():
    with pytest.raises(TypeError, match="row family"):
        restrict_function(modular_function(3, np.ones(3)), [0, 1])


@pytest.mark.parametrize("n", [1, 2, 5, 8, 9, 12, 20, 33, 62])
def test_the_embedding_reference_hands_f_the_bit_row_masks(n):
    # the reference restriction gives f exactly the masks of the bit-row
    # embedding: every mask of up to 12 kept elements, random ones (and the
    # extremes) above, with kept sets at the low end, the high end and both
    # ends of f's ground set
    rng = substream(n, 0xE3B)
    seen = []

    def capture(masks):
        seen.append(masks.copy())
        return np.zeros(masks.shape)

    f = SetFunction(n, eval_many_masks=capture)
    half = (n + 1) // 2
    both = sorted({0, n - 1, *(int(u) for u in rng.choice(n, int(rng.integers(0, n + 1)), replace=False))})
    for kept in ([], list(range(half)), list(range(n - half, n)), both, list(range(n))):
        m = len(kept)
        if m <= 12:
            masks = np.arange(1 << m, dtype=np.int64)
        else:
            masks = rng.integers(0, 1 << m, size=MASK_BLOCK + 5, dtype=np.int64)
            masks[:3] = [0, full_mask(m), 1 << (m - 1)]
        seen.clear()
        restrict_by_embedding(f, kept).eval_many(masks)
        assert np.array_equal(np.concatenate(seen), embed_by_bit_rows(masks, kept, n)), kept


def test_restriction_flags_symmetry_from_its_rows():
    f = single_edge_cut(n=3)  # edge (0,1) plus isolated node 2
    g = restrict_function(f, [0, 1])  # restriction is the pure single edge
    assert g.symmetric
    h = restrict_function(f, [0, 2])  # edge endpoint + isolated: not symmetric
    assert not h.symmetric
    assert restrict_function(f, []).symmetric and restrict_function(f, [2]).symmetric  # f = 0


def test_the_table_is_built_one_block_at_a_time():
    f = ring_cut_20()
    assert peak_traced_bytes(f.table) < 12 * 2**20  # the table itself is 8 MiB
    assert f.query_count == 2**20
    assert f.table().tobytes() == f.eval_many(np.arange(2**20)).tobytes()


def test_the_table_refuses_a_ground_set_above_its_limit():
    f = SetFunction(TABLE_LIMIT + 1, eval_many_masks=lambda masks: np.zeros(masks.shape))
    with pytest.raises(ValueError, match=f"n must be <= {TABLE_LIMIT}"):
        f.table()
    assert f.query_count == 0


def test_sum_is_flagged_symmetric_iff_every_summand_is():
    cut, hyper = random_graph_cut(6, seed=1), random_hypergraph_cut(6, seed=2)
    both = sum_functions([cut, hyper])
    assert both.symmetric and audit_symmetry(both) and both.kind == "sum"
    offset = sum_functions([cut, hyper, modular_function(6, np.ones(6))])  # f(S) = |S| is not symmetric
    assert not offset.symmetric and not audit_symmetry(offset)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=0, max_value=14))
def test_coverage_and_its_restrictions_are_monotone_bit_for_bit(data, n):
    # the brute-force descent trusts the flag: adding an element never lowers
    # a value, also where weights of 1e-300 and 1e300 round in one sum
    f = data.draw(coverage_instances(n))
    assert f.monotone and f.n == n
    masks = np.arange(1 << n, dtype=np.int64)
    values = f.eval_many(masks)
    for u in range(n):
        assert (values <= f.eval_many(masks | 1 << u)).all(), u


# ---------------------------------------------------------------------------
# subset helpers
# ---------------------------------------------------------------------------


def test_mask_helpers():
    assert as_mask([0, 2], 3) == 0b101
    assert as_mask(0b011, 3) == 3
    assert indices(0b1010) == [1, 3]
    assert full_mask(3) == 7


def test_popcount_counts_all_63_bits():
    rng = substream(4, 0x9C)
    masks = np.concatenate(
        [
            rng.integers(0, 1 << 62, size=2000, dtype=np.int64),
            np.array([0, 1, (1 << 44) - 1, 1 << 44, (1 << 50) - 1, (1 << 61) | 1, (1 << 62) - 1], dtype=np.int64),
        ]
    )
    expected = np.array([bin(int(m)).count("1") for m in masks])
    assert np.array_equal(popcount_array(masks), expected)


@pytest.mark.parametrize("top", [0, 1, 11, 12, 22, 23, 62])
def test_popcount_reads_every_chunk_up_to_the_largest_mask(top):
    # the batch's largest mask has bit length top; the chunks above it are skipped
    rng = substream(top, 0x9C)
    masks = rng.integers(0, 1 << top, size=(40, 5), dtype=np.int64)
    if top:
        masks[0, :3] = ((1 << top) - 1, 1 << (top - 1), (1 << top) - 1 - (1 << (top - 1)))
    assert int(masks.max()).bit_length() == top
    count = popcount_array(masks)
    assert count.dtype == np.int64 and count.shape == masks.shape
    assert count.tolist() == [[bin(int(m)).count("1") for m in row] for row in masks]


def test_popcount_of_empty_and_zero_batches():
    for masks in (np.array([], dtype=np.int64), np.zeros((2, 3), dtype=np.int64), np.zeros((0, 4), dtype=np.int64)):
        count = popcount_array(masks)
        assert count.dtype == np.int64 and count.shape == masks.shape and not count.any()


def test_word_is_the_narrowest_type_that_holds_n_bits():
    widths = {0: np.uint8, 8: np.uint8, 9: np.uint16, 16: np.uint16, 17: np.uint32, 32: np.uint32}
    widths.update({33: np.int64, 62: np.int64})
    for n, dtype in widths.items():
        assert word(n) == np.dtype(dtype), n


@pytest.mark.parametrize("n", [1, 62, 63, 100])
def test_bit_rows_round_trip_through_masks(n):
    rng = substream(n, 0xB175)
    bits = rng.random((3, 5, n)) < 0.5
    bits[0, 0], bits[0, 1] = False, True
    masks = masks_from_bits(bits)
    assert masks.shape == (3, 5) and masks.dtype == (np.int64 if n <= MAX_MASK_BITS else object)
    assert np.array_equal(bits_from_masks(masks, n), bits)
    assert [int(m) for m in masks.ravel()] == [as_mask(np.flatnonzero(row), n) for row in bits.reshape(-1, n)]
    assert int(masks[0, 1]) == full_mask(n)
    # one row packs to one mask, and one mask unpacks to one row
    assert int(masks_from_bits(bits[2, 3])) == int(masks[2, 3])
    assert np.array_equal(bits_from_masks(int(masks[2, 3]), n), bits[2, 3])


def test_batch_matches_scalar_above_bit_44():
    # masks with bits 44-49 used to be miscounted by the batch oracle
    f = tight_instance(50).utility
    full = (1 << 50) - 1
    assert f.eval_many(np.array([full]))[0] == f.eval(full) == 0.0
    rng = substream(5, 0x44)
    masks = rng.integers(0, 1 << 50, size=500, dtype=np.int64) | (np.int64(1) << rng.integers(44, 50, size=500))
    assert np.array_equal(f.eval_many(masks), [f.eval(int(m)) for m in masks])


def test_batches_reject_ground_sets_beyond_int64_masks():
    n = 70
    cut = graph_cut_function(n, [(0, 69, 1.0), (3, 64, 2.0), (5, 6, 0.5)])
    hyper = hypergraph_cut_function(n, [((1, 63, 68), 1.5)])
    cover = coverage_function(n, [1.0, 2.0], [[0]] + [[1]] * (n - 1))
    for f in (cut, hyper, cover):
        with pytest.raises(ValueError, match="62"):
            f.eval_many(np.array([0, 1]))
    # single-set evaluation and the closed form still work
    assert cut.eval({0, 64}) == 3.0
    assert hyper.eval({63}) == 1.5 and hyper.eval({1, 63, 68}) == 0.0
    assert cover.eval({69}) == 2.0 and cover.eval({0, 69}) == 3.0
    value, grad = cut.multilinear(np.full(n, 0.5))
    assert value == pytest.approx(1.75, abs=1e-12) and grad.shape == (n,)
    # so do the wrappers and the other families, through the same kernels
    modular = modular_function(n, np.arange(n) / 4.0)
    assert modular.eval({1, 64, 69}) == 33.5
    assert sum_functions([cut, modular]).eval({0, 64}) == 19.0
    complement = complement_function(cover)
    assert complement.eval(set(range(1, n))) == 1.0 and complement.eval({0}) == 2.0
    assert complement.eval(set()) == 3.0
    small = restrict_function(cut, [0, 3, 64, 69])  # 4 elements embedded beyond bit 62
    assert small.eval({1}) == 2.0 and small.eval({0, 3}) == 0.0 and small.eval({0, 2}) == 3.0
    wide = restrict_function(hyper, list(range(2, n)))
    assert wide.n == 68 and wide.eval({61}) == 1.5 and wide.eval({61, 66}) == 1.5
    for f in (modular, complement, small):
        assert f.query_count > 0
    # the size oracle of the tight welfare instance counts int64 masks
    with pytest.raises(ValueError, match="62"):
        tight_instance(n)
    with pytest.raises(ValueError, match="62"):
        wide.eval_many(np.array([0]))


# ---------------------------------------------------------------------------
# batch oracle == scalar oracle, across MASK_BLOCK boundaries
# ---------------------------------------------------------------------------


def dyadic(rng, size):
    """Weights in eighths: sums are exact in any order."""
    return rng.integers(1, 33, size=size) / 8.0


def uniform(rng, size):
    """Non-dyadic weights: sums round, so batch and scalar values agree bit
    for bit only when both come from the same kernel."""
    return rng.uniform(0.1, 4.0, size=size)


def extremes(rng, size):
    """Weights of 0, 1e-300, 1 and 1e300: rows that never pay, and sums in
    which a small weight vanishes beside a large one."""
    return rng.choice([0.0, 1e-300, 1.0, 1e300], size=size)


WEIGHTS = {"dyadic": dyadic, "uniform": uniform, "extremes": extremes}


ROW_BUILDERS = {"graph_cut": graph_cut_function, "hypergraph_cut": hypergraph_cut_function,
                "coverage": coverage_function}


def family_fields(family, n, rng, weights="dyadic"):
    """Random fields of a graph cut, hypergraph cut or coverage function over
    n elements: the arguments its builder takes after n."""
    draw = WEIGHTS[weights]
    if family == "graph_cut":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = rng.choice(len(pairs), size=min(len(pairs), 16), replace=False)
        return ([(*pairs[i], float(w)) for i, w in zip(picks, draw(rng, picks.size))],)
    if family == "hypergraph_cut":
        weights = draw(rng, int(rng.integers(1, 12)))
        arities = rng.integers(2, min(n, 6) + 1, size=weights.size)
        verts = [rng.choice(n, size=a, replace=False).tolist() for a in arities]
        return (list(zip(verts, map(float, weights))),)
    items = int(rng.integers(1, 12))
    sizes = rng.integers(0, min(items, 2) + 1, size=n)
    membership = [rng.choice(items, size=int(s), replace=False).tolist() for s in sizes]
    return list(map(float, draw(rng, items))), membership


def family_function(family, n, rng, weights="dyadic"):
    if family in ROW_BUILDERS:
        return ROW_BUILDERS[family](n, *family_fields(family, n, rng, weights))
    if family == "modular":
        return modular_function(n, WEIGHTS[weights](rng, n))
    if family == "tight":
        return tight_instance(n).utility
    if family == "sum":
        parts = [family_function("graph_cut", n, rng, weights), family_function("modular", n, rng, weights)]
        return sum_functions(parts)
    if family == "complement":
        return complement_function(family_function("coverage", n, rng, weights))
    if family.startswith("restrict("):
        base = family_function(family[9:-1], n, rng, weights)
        return restrict_function(base, rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist())
    raise AssertionError(family)


FAMILIES = ("graph_cut", "hypergraph_cut", "coverage", "modular", "tight", "sum", "complement",
            *(f"restrict({family})" for family in ROW_BUILDERS))


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=4, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=62),
    seed=st.integers(min_value=0, max_value=2**16),
    rows=st.sampled_from([1, 2, 5]),
    weights=st.sampled_from(sorted(WEIGHTS)),
)
@example(n=62, seed=1, rows=1, weights="dyadic")
@example(n=61, seed=2, rows=5, weights="dyadic")
@example(n=62, seed=3, rows=1, weights="uniform")
@example(n=14, seed=4, rows=2, weights="uniform")
@example(n=17, seed=5, rows=2, weights="uniform")
@example(n=32, seed=6, rows=1, weights="uniform")
@example(n=33, seed=7, rows=5, weights="uniform")
def test_batch_matches_scalar_for_every_family(family, n, seed, rows, weights):
    rng = substream(seed, 0xBA7C)
    f = family_function(family, n, rng, weights)
    cols = -(-(3 * MASK_BLOCK + int(rng.integers(1, MASK_BLOCK))) // rows)
    masks = rng.integers(0, 1 << f.n, size=(rows, cols) if rows > 1 else cols, dtype=np.int64)
    masks.flat[:2] = (0, (1 << f.n) - 1)
    before = f.query_count
    batch = f.eval_many(masks)
    assert f.query_count - before == masks.size
    assert batch.shape == masks.shape
    scalar = np.array([f.eval(int(m)) for m in masks.ravel()]).reshape(masks.shape)
    assert np.array_equal(batch, scalar)


@pytest.mark.parametrize("family", (*FAMILIES, "scalar"))
@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from([6, 17, 24]),  # both memo regimes: a slot per set up to 16 elements, hashed above
    seed=st.integers(min_value=0, max_value=2**16),
    samples=st.sampled_from([1, 5, 40]),
    calls=st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 2)), min_size=1, max_size=10),
)
def test_sampled_memo_gives_the_estimates_of_a_fresh_evaluator(family, n, seed, samples, calls):
    # a sampled evaluator remembers the sets it has asked for, and one built
    # for each call has nothing to remember: F, the gradient and sigma must
    # agree bit for bit over any sequence of calls, points and streams
    rng = substream(seed, 0x3E30)
    f = family_function("hypergraph_cut" if family == "scalar" else family, n, rng, "uniform")
    if family == "scalar":  # the oracle asked one set at a time
        f = SetFunction(f.n, per_mask(f.eval))
    m = f.n
    pinned = np.where(rng.random(m) < 0.7, rng.integers(0, 2, size=m), rng.random(m))
    points = [rng.integers(0, 2, size=m).astype(float), pinned, 0.2 * rng.random(m), rng.random(m)]
    est = Estimator(samples=samples, seed=seed)
    memo = MultilinearEvaluator(f, est)
    for gradient, point, stream in calls:
        x, fresh = points[point], MultilinearEvaluator(f, est)
        if gradient:
            (value, grad, sigma), want = memo.value_and_partials(x, (stream,)), fresh.value_and_partials(x, (stream,))
            assert value == want[0] and np.array_equal(grad, want[1]) and np.array_equal(sigma, want[2])
        else:
            assert memo.value(x, (stream,)) == fresh.value(x, (stream,))


def definition_value(family, fields, mask):
    """f(mask) from the definition of the family, one edge or item at a time,
    on the fields its builder took: the reference the batch kernels are
    checked against."""
    if family == "graph_cut":
        (edges,) = fields
        return sum(w for u, v, w in edges if ((mask >> u) ^ (mask >> v)) & 1)
    if family == "hypergraph_cut":
        (hyperedges,) = fields
        return sum(w for verts, w in hyperedges if 0 < sum((mask >> v) & 1 for v in verts) < len(verts))
    universe_weights, membership = fields
    covered = {j for i, items in enumerate(membership) if (mask >> i) & 1 for j in items}
    return sum(w for j, w in enumerate(universe_weights) if j in covered)


@pytest.mark.parametrize("n", [8, 9, 12, 16, 17, 32, 33, 62, 70])
def test_family_kernels_match_their_definitions(n):
    rng = substream(n, 0xDEF)
    masks = [0, (1 << n) - 1] + [sum(1 << u for u in range(n) if rng.random() < 0.5) for _ in range(200)]
    coeffs = uniform(rng, n)
    modular = modular_function(n, coeffs)
    for family, build in ROW_BUILDERS.items():
        fields = family_fields(family, n, rng, "uniform")
        f = build(n, *fields)
        for mask in masks:
            assert f.eval(mask) == pytest.approx(definition_value(family, fields, mask), rel=1e-12, abs=1e-12)
    for mask in masks:
        assert modular.eval(mask) == pytest.approx(sum(coeffs[u] for u in indices(mask)), rel=1e-12)
    if n <= MAX_MASK_BITS:  # the tight utility counts int64 masks (k <= 62)
        tight = tight_instance(n).utility
        for mask in masks:
            size = bin(mask).count("1")
            assert tight.eval(mask) == (1.0 - (size - 1) / (n - 1) if size else 0.0)


def boundary_functions(n, rng):
    """Graph cut, hypergraph cut and coverage over n elements with uniform
    weights, each with an edge or a covering set on the top element n - 1 (so
    a mask word too narrow for n changes a value), and their int64 reference
    kernels."""
    top = n - 1
    pairs, verts = [], []
    if n > 1:
        pairs = [(0, top)] + [tuple(int(u) for u in rng.choice(n, 2, replace=False)) for _ in range(23)]
        arities = rng.integers(2, min(n, 6) + 1, size=11)
        verts = [[0, top]] + [rng.choice(n, a, replace=False).tolist() for a in arities]
    fields = {
        "graph_cut": ([(u, v, float(w)) for (u, v), w in zip(pairs, uniform(rng, len(pairs)))],),
        "hypergraph_cut": (list(zip(verts, map(float, uniform(rng, len(verts))))),),
    }
    membership = [rng.choice(10, int(rng.integers(0, 3)), replace=False).tolist() for _ in range(n)]
    membership[top] = sorted({0, *membership[top]})
    fields["coverage"] = (list(map(float, uniform(rng, 10))), membership)
    return {family: (ROW_BUILDERS[family](n, *args), reference_kernel(family, n, *args))
            for family, args in fields.items()}


def boundary_wrappers(n, rng, kernels):
    """The sum and complement wrappers and the restrictions of the row
    families over ``boundary_functions``, with the reference kernels
    composed the same way (a restriction's through the bit-row embedding)."""
    (cut, cut_ref), (hyper, hyper_ref), (cover, cover_ref) = kernels.values()
    kept = sorted({0, n - 1, *(int(u) for u in rng.choice(n, int(rng.integers(0, n + 1)), replace=False))})

    def restricted(ref):
        return lambda masks: ref(embed_by_bit_rows(masks, kept, n))

    return {
        "sum": (sum_functions([cut, hyper, cover]), lambda masks: cut_ref(masks) + hyper_ref(masks) + cover_ref(masks)),
        "complement": (complement_function(cover), lambda masks: cover_ref(masks ^ full_mask(n))),
        **{f"restrict({family})": (restrict_function(f, kept), restricted(ref)) for family, (f, ref) in kernels.items()},
    }


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32, 33, 62, 63, 70])
def test_word_sized_kernels_equal_the_int64_reference(n):
    # == on non-dyadic weights: narrowing the masks may not move a single bit
    # of any value, at each width's boundary; above 62 elements through eval
    rng = substream(n, 0x30D)
    kernels = boundary_functions(n, rng)
    kernels.update(boundary_wrappers(n, rng, kernels))
    for name, (f, ref) in kernels.items():
        special = [0, full_mask(f.n), 1 << (f.n - 1), full_mask(f.n) >> 1]
        if f.n > MAX_MASK_BITS:
            masks = special + [sum(1 << u for u in range(f.n) if rng.random() < 0.5) for _ in range(60)]
            for m in masks:
                assert f.eval(m) == ref(mask_array([m], f.n))[0], (name, m)
            continue
        masks = rng.integers(0, 1 << f.n, size=2 * MASK_BLOCK + 7, dtype=np.int64)
        masks[: len(special)] = special
        assert np.array_equal(f.eval_many(masks), ref(masks)), name
        assert [f.eval(int(m)) for m in masks[:20]] == ref(masks[:20]).tolist(), name


def ragged_rows(n, rule, rng, weights):
    """A row-family instance over n elements with rows of several lengths, so
    the incidence matrix is padded: hyperedges of 2 to 6 vertices under the
    cut rule, items with 0 to 3 coverers under the meets rule."""
    draw = WEIGHTS[weights]
    if rule == "cut":
        arities = rng.integers(2, min(n, 6) + 1, size=int(rng.integers(1, 16)))
        verts = [rng.choice(n, size=a, replace=False).tolist() for a in arities]
        return hypergraph_cut_function(n, list(zip(verts, map(float, draw(rng, len(verts))))))
    items = int(rng.integers(1, 16))
    coverers = [rng.choice(n, size=int(rng.integers(0, min(n, 3) + 1)), replace=False) for _ in range(items)]
    membership = [[j for j in range(items) if u in coverers[j]] for u in range(n)]
    return coverage_function(n, list(map(float, draw(rng, items))), membership)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=62),
    seed=st.integers(min_value=0, max_value=2**16),
    rule=st.sampled_from(["cut", "meets"]),
    weights=st.sampled_from(sorted(WEIGHTS)),
)
def test_python_int_masks_take_a_path_equal_to_the_batch_kernel(n, seed, rule, weights):
    # sets above 62 elements come as Python ints and are counted per row from
    # their bit vector; at n <= 62 that path must equal the word-sized batch
    # kernel bit for bit, on either row rule
    rng = substream(seed, 0x1D7)
    f = ragged_rows(n, rule, rng, weights)
    masks = rng.integers(0, 1 << n, size=40, dtype=np.int64)
    masks[:4] = (0, full_mask(n), 1 << (n - 1), full_mask(n) >> 1)
    as_ints = np.array([int(m) for m in masks], dtype=object)
    assert f._values(as_ints).tobytes() == f.eval_many(masks).tobytes()


def test_eval_many_feeds_the_kernel_one_block_at_a_time():
    seen = []

    def many(masks):
        seen.append(masks.size)
        return masks.astype(float)

    f = SetFunction(20, many)
    masks = np.arange(3 * MASK_BLOCK + 5, dtype=np.int64).reshape(-1, 1)
    assert np.array_equal(f.eval_many(masks), masks)
    assert seen == [MASK_BLOCK] * 3 + [5]
    seen.clear()
    f.eval_many(np.arange(MASK_BLOCK, dtype=np.int64))
    assert seen == [MASK_BLOCK]


# ---------------------------------------------------------------------------
# restriction: relabelled rows against the embedding reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 32, 33, 62, 63, 70])
def test_a_restriction_equals_the_embedding_reference_bit_for_bit(n):
    # the relabelled rows against f's kernel on embedded masks and f's closed
    # form on the zero-padded point: == on non-dyadic weights, on kept sets
    # that are empty, whole, reversed and random of each word size, so the
    # batch kernel runs at each word boundary, the Python-int path on
    # restrictions wider than 62 and on kept elements above bit 62, and the
    # closed form on width-2 rows (graph cut) and wider ones
    rng = substream(n, 0xD1F)
    sizes = [m for m in (1, 8, 9, 16, 17, 32, 33, 62, 63, n - 1) if 0 < m < n]
    kepts = [[], list(range(n)), list(range(n))[::-1]] + [rng.permutation(n)[:m].tolist() for m in sizes]
    for family, (f, _) in boundary_functions(n, rng).items():
        for kept in kepts:
            g, ref = restrict_function(f, kept), restrict_by_embedding(f, kept)
            m = len(kept)
            assert g.n == m and g.monotone == f.monotone and g.kind == f"restrict({family})"
            special = [0, full_mask(m), full_mask(m) >> 1, full_mask(m) ^ (full_mask(m) >> 1)]
            if m <= MAX_MASK_BITS:
                count = 2 * MASK_BLOCK + 7 if n <= MAX_MASK_BITS else 60  # f's kernel counts Python ints above
                masks = rng.integers(0, 1 << m, size=count, dtype=np.int64)
                masks[: len(special)] = special
                values = ref.eval_many(masks)
                assert g.eval_many(masks).tobytes() == values.tobytes(), (family, kept)
                masks, values = masks[:40], values[:40]
            else:
                masks = special + [sum(1 << u for u in range(m) if rng.random() < 0.5) for _ in range(36)]
                values = ref._values(mask_array(masks, m))
            as_ints = np.array([int(mask) for mask in masks], dtype=object)
            assert g._values(as_ints).tobytes() == values.tobytes(), (family, kept)
            for x in (rng.random(m), (rng.random(m) < 0.5).astype(float), np.full(m, 0.5)):
                value, grad = g.multilinear(x)
                ref_value, ref_grad = ref.multilinear(x)
                assert value == ref_value and grad.tobytes() == ref_grad.tobytes(), (family, kept)


def test_restricting_twice_restricts_f_to_the_composed_elements():
    # an absent member stays absent when a restriction is restricted again
    f = random_hypergraph_cut(12, seed=3)
    outer, inner = [11, 0, 5, 3, 7, 2, 9], [6, 1, 3, 0]
    twice, once = restrict_function(restrict_function(f, outer), inner), restrict_function(f, [outer[i] for i in inner])
    assert twice.eval_many(np.arange(16)).tobytes() == once.eval_many(np.arange(16)).tobytes()
    x = substream(12, 0x2E5).random(4)
    value, grad = twice.multilinear(x)
    assert value == once.multilinear(x)[0] and grad.tobytes() == once.multilinear(x)[1].tobytes()
    assert twice.symmetric == once.symmetric == audit_symmetry(once)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=14),
    seed=st.integers(min_value=0, max_value=2**16),
    family=st.sampled_from(sorted(ROW_BUILDERS)),
)
def test_a_restriction_is_flagged_symmetric_exactly_when_it_is(n, seed, family):
    # the flag equals the exhaustive audit on restrictions of up to 12 kept
    # elements (every one at n <= 6) of instances with zero weights among
    # theirs; a coverage function is never flagged
    rng = substream(seed, 0x5E3)
    f = ROW_BUILDERS[family](n, *family_fields(family, n, rng, "extremes"))
    if n <= 6:
        kepts = [indices(mask) for mask in range(1 << n)]
    else:
        kepts = [rng.permutation(n)[: int(rng.integers(0, 13))].tolist() for _ in range(8)]
    for kept in kepts:
        g = restrict_function(f, kept)
        assert g.symmetric == (f.symmetric and audit_symmetry(g)), kept


def test_a_wide_restriction_is_flagged_symmetric_when_it_is():
    # 40 vertices: positive edges among 0-29, zero-weight edges from 30-34
    # into them, 35-39 isolated; keeping 0-29 (in another order) drops only
    # isolated vertices and members of zero-weight rows
    rng = substream(40, 0x5E4)
    edges = [(u, v, float(rng.uniform(0.5, 2.0))) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.2]
    edges += [(30 + i, int(rng.integers(0, 30)), 0.0) for i in range(5)]
    f = graph_cut_function(40, edges)
    kept = rng.permutation(30).tolist()
    g = restrict_function(f, kept)
    assert g.symmetric and g.n == 30
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_mcg(MultilinearEvaluator(g), CardinalityPolytope(30, 5), AscentConfig(steps=20))
    # dropping vertex 29 splits its positive edges: the restriction pays on
    # the kept set, and not on the empty one
    split = restrict_function(f, [u for u in kept if u != 29])
    assert not split.symmetric and split.eval(full_mask(29)) > split.eval(0) == 0.0
