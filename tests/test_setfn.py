import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from submax.fixtures import random_graph_cut, random_hypergraph_cut, single_edge_cut, triangle_cut
from submax.rng import substream
from submax.setfn import (
    CoverageInstance,
    GraphCutInstance,
    GroundSet,
    HypergraphCutInstance,
    SetFunction,
    audit_nonnegativity,
    audit_submodularity,
    audit_symmetry,
    complement_function,
    coverage_function,
    cut_eval,
    graph_cut_function,
    hardness_instance,
    hypergraph_cut_function,
    modular_function,
    restrict_function,
    set_function_from_json,
    sum_functions,
)
from submax.subsets import (
    MASK_BLOCK,
    MAX_MASK_BITS,
    as_mask,
    bits_from_masks,
    full_mask,
    indices,
    masks_from_bits,
    popcount_array,
)
from submax.welfare import tight_instance


def square_cardinality(n):
    """f(S) = |S|^2: supermodular, used as a negative control."""
    return SetFunction(n, lambda m: float(bin(m).count("1") ** 2))


# ---------------------------------------------------------------------------
# cut_eval
# ---------------------------------------------------------------------------


def test_cut_eval_triangle():
    inst = GraphCutInstance(n=3, edges=((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
    assert cut_eval(inst, []) == 0.0
    assert cut_eval(inst, [0]) == 2.0


def test_cut_eval_single_edge_all_subsets():
    inst = GraphCutInstance(n=2, edges=((0, 1, 1.0),))
    values = {0b00: 0.0, 0b01: 1.0, 0b10: 1.0, 0b11: 0.0}
    for mask, expected in values.items():
        assert cut_eval(inst, mask) == expected


def test_graph_cut_rejects_bad_edges():
    with pytest.raises(ValueError):
        GraphCutInstance(n=2, edges=((0, 0, 1.0),))
    with pytest.raises(ValueError):
        GraphCutInstance(n=2, edges=((0, 1, -0.5),))
    with pytest.raises(ValueError):
        GraphCutInstance(n=2, edges=((0, 2, 1.0),))


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
    inst = CoverageInstance(n=3, universe_weights=(1.0, 2.0), membership=((0,), (1,), (0, 1)))
    f = coverage_function(inst)
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


def test_audit_sampled_mode_used_beyond_exhaustive_limit():
    f = random_graph_cut(16, seed=1)
    assert audit_submodularity(f, exhaustive_limit=10, trials=200)
    assert audit_symmetry(f, exhaustive_limit=10, trials=200)


def test_audits_take_the_ground_set_from_f():
    # a ground set of another size than f's gives wrong answers or misleading
    # errors, so the audits accept none
    f = random_graph_cut(5, seed=3)
    for audit, size in ((audit_submodularity, 5), (audit_symmetry, 3), (audit_nonnegativity, 40)):
        with pytest.raises(TypeError):
            audit(f, GroundSet(size))


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


def test_restriction_reaudits_symmetry():
    f = single_edge_cut(n=3)  # edge (0,1) plus isolated node 2
    g = restrict_function(f, [0, 1])  # restriction is the pure single edge
    assert g.symmetric
    h = restrict_function(f, [0, 2])  # edge endpoint + isolated: not symmetric
    assert not h.symmetric


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_json_graph_cut_roundtrip():
    obj = {"type": "graph_cut", "n": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]]}
    f = set_function_from_json(obj)
    assert f.eval([1]) == 3.0
    assert f.symmetric


def test_json_rejects_unknown_fields_and_types():
    with pytest.raises(ValueError):
        set_function_from_json({"type": "graph_cut", "n": 2, "edges": [], "extra": 1})
    with pytest.raises(ValueError):
        set_function_from_json({"type": "graph_cut", "n": 2})
    with pytest.raises(ValueError):
        set_function_from_json({"type": "mystery", "n": 2})


def test_json_hardness_and_coverage():
    f = set_function_from_json({"type": "hardness", "p": 1, "q": 2})
    assert f.eval([0]) == 1.0
    g = set_function_from_json(
        {"type": "coverage", "n": 2, "universe_weights": [1.0, 0.5], "membership": [[0], [0, 1]]}
    )
    assert g.eval([0]) == 1.0
    assert g.eval([1]) == 1.5


# ---------------------------------------------------------------------------
# subset helpers
# ---------------------------------------------------------------------------


def test_mask_helpers():
    assert as_mask([0, 2], 3) == 0b101
    assert as_mask(0b011, 3) == 3
    assert indices(0b1010) == [1, 3]
    assert full_mask(3) == 7


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(3, labels=("a",))
    gs = GroundSet(2, labels=("u", "v"))
    assert gs.n == 2


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
    cut = graph_cut_function(GraphCutInstance(n=n, edges=((0, 69, 1.0), (3, 64, 2.0), (5, 6, 0.5))))
    hyper = hypergraph_cut_function(HypergraphCutInstance(n=n, hyperedges=((frozenset({1, 63, 68}), 1.5),)))
    membership = ((0,),) + ((1,),) * (n - 1)
    cover = coverage_function(CoverageInstance(n=n, universe_weights=(1.0, 2.0), membership=membership))
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
    tight = tight_instance(n).utility
    assert tight.eval(set()) == 0.0 and tight.eval({67}) == 1.0
    assert tight.eval(set(range(n))) == 0.0 and tight.eval({0, 68}) == pytest.approx(1 - 1 / 69, abs=1e-15)
    for f in (modular, complement, small, tight):
        assert f.query_count > 0
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


WEIGHTS = {"dyadic": dyadic, "uniform": uniform}


def family_function(family, n, rng, weights="dyadic"):
    draw = WEIGHTS[weights]
    if family == "graph_cut":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picks = rng.choice(len(pairs), size=min(len(pairs), 16), replace=False)
        edges = tuple((*pairs[i], float(w)) for i, w in zip(picks, draw(rng, picks.size)))
        return graph_cut_function(GraphCutInstance(n=n, edges=edges))
    if family == "hypergraph_cut":
        weights = draw(rng, int(rng.integers(1, 12)))
        arities = rng.integers(2, min(n, 6) + 1, size=weights.size)
        verts = [frozenset(int(v) for v in rng.choice(n, size=a, replace=False)) for a in arities]
        hes = tuple((vs, float(w)) for vs, w in zip(verts, weights))
        return hypergraph_cut_function(HypergraphCutInstance(n=n, hyperedges=hes))
    if family == "coverage":
        items = int(rng.integers(1, 12))
        sizes = rng.integers(0, min(items, 2) + 1, size=n)
        membership = tuple(tuple(int(j) for j in rng.choice(items, size=int(s), replace=False)) for s in sizes)
        weights = tuple(float(w) for w in draw(rng, items))
        return coverage_function(CoverageInstance(n=n, universe_weights=weights, membership=membership))
    if family == "modular":
        return modular_function(n, draw(rng, n))
    if family == "tight":
        return tight_instance(n).utility
    if family == "sum":
        parts = [family_function("graph_cut", n, rng, weights), family_function("modular", n, rng, weights)]
        return sum_functions(parts)
    if family == "complement":
        return complement_function(family_function("coverage", n, rng, weights))
    if family == "restrict":
        base = family_function("hypergraph_cut", n, rng, weights)
        kept = sorted(int(u) for u in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        return restrict_function(base, kept, audit_symmetry_limit=0)
    raise AssertionError(family)


FAMILIES = ("graph_cut", "hypergraph_cut", "coverage", "modular", "tight", "sum", "complement", "restrict")


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=4, deadline=None)
@given(
    n=st.one_of(st.integers(min_value=2, max_value=16), st.integers(min_value=56, max_value=62)),
    seed=st.integers(min_value=0, max_value=2**16),
    rows=st.sampled_from([1, 2, 5]),
    weights=st.sampled_from(sorted(WEIGHTS)),
)
@example(n=62, seed=1, rows=1, weights="dyadic")
@example(n=61, seed=2, rows=5, weights="dyadic")
@example(n=62, seed=3, rows=1, weights="uniform")
@example(n=14, seed=4, rows=2, weights="uniform")
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


def definition_value(f, mask):
    """f(mask) from the instance definition, one edge or item at a time: the
    reference the batch kernels are checked against."""
    inst = f.source
    if f.kind == "graph_cut":
        return sum(w for u, v, w in inst.edges if ((mask >> u) ^ (mask >> v)) & 1)
    if f.kind == "hypergraph_cut":
        return sum(w for verts, w in inst.hyperedges if 0 < sum((mask >> v) & 1 for v in verts) < len(verts))
    covered = {j for i in range(inst.n) if (mask >> i) & 1 for j in inst.membership[i]}
    return sum(w for j, w in enumerate(inst.universe_weights) if j in covered)


@pytest.mark.parametrize("n", [12, 70])
def test_family_kernels_match_their_definitions(n):
    rng = substream(n, 0xDEF)
    masks = [0, (1 << n) - 1] + [sum(1 << u for u in range(n) if rng.random() < 0.5) for _ in range(200)]
    coeffs = uniform(rng, n)
    modular = modular_function(n, coeffs)
    tight = tight_instance(n).utility
    for family in ("graph_cut", "hypergraph_cut", "coverage"):
        f = family_function(family, n, rng, "uniform")
        for mask in masks:
            assert f.eval(mask) == pytest.approx(definition_value(f, mask), rel=1e-12, abs=1e-12)
    for mask in masks:
        assert modular.eval(mask) == pytest.approx(sum(coeffs[u] for u in indices(mask)), rel=1e-12)
        size = bin(mask).count("1")
        assert tight.eval(mask) == (1.0 - (size - 1) / (n - 1) if size else 0.0)


def test_eval_many_feeds_the_kernel_one_block_at_a_time():
    seen = []

    def many(masks):
        seen.append(masks.size)
        return masks.astype(float)

    f = SetFunction(20, float, eval_many_masks=many)
    masks = np.arange(3 * MASK_BLOCK + 5, dtype=np.int64).reshape(-1, 1)
    assert np.array_equal(f.eval_many(masks), masks)
    assert seen == [MASK_BLOCK] * 3 + [5]
    seen.clear()
    f.eval_many(np.arange(MASK_BLOCK, dtype=np.int64))
    assert seen == [MASK_BLOCK]
