"""Shared helpers for the test suites: small and random instances beyond
the sweep's two families, the oracle wrappers that build them (modular
terms, sums, complements), and reference solvers the library must match."""

import tracemalloc
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from submax.fixtures import random_graph_cut, random_hypergraph_cut
from submax.multilinear import MultilinearEvaluator
from submax.polytope import CardinalityPolytope, KnapsackPolytope, PartitionPolytope
from submax.rng import WELFARE_STREAM, substream
from submax.setfn import TABLE_LIMIT, SetFunction, coverage_function, graph_cut_function, restrict_function
from submax.subsets import MAX_MASK_BITS, as_mask, bits_from_masks, full_mask, mask_array, masks_from_bits, popcount_array
from submax.welfare import WelfareInstance

POLYTOPE_KINDS = ("cardinality", "partition", "knapsack")


# ---------------------------------------------------------------------------
# oracles and wrappers
# ---------------------------------------------------------------------------


def per_mask(value):
    """Batch kernel of a scalar oracle (bitmask -> float), called once per mask."""

    def many(masks):
        return np.array([value(int(m)) for m in masks.ravel()], dtype=float).reshape(masks.shape)

    return many


def record_batches(f):
    """Wrap f's ``eval_many`` so that each batch it is asked for is appended
    to the returned list."""
    batches = []
    ask = f.eval_many

    def recording(masks):
        batches.append(np.array(masks))
        return ask(masks)

    f.eval_many = recording
    return batches


def record_lookups(monkeypatch):
    """Record, per sampled evaluator, every mask array it looks up in its
    memo; ``distinct_lookups`` counts the sets each evaluator looked up."""
    lookups = {}
    ask = MultilinearEvaluator._ask

    def recording(ev, masks):
        lookups.setdefault(ev, []).append(np.array(masks))
        return ask(ev, masks)

    monkeypatch.setattr(MultilinearEvaluator, "_ask", recording)
    return lookups


def distinct_lookups(lookups):
    """The sets the recorded evaluators looked up, each counted once per
    evaluator: the oracle calls of memos that never evict (n <= 16)."""
    return sum(np.unique(np.concatenate([m.ravel() for m in masks])).size for masks in lookups.values())


def indicator(subset, n):
    """The point 1_S of [0,1]^n of a set S (bitmask or iterable of indices)."""
    return bits_from_masks(as_mask(subset, n), n).astype(float)


def modular_function(n, coeffs):
    """Additive f(S) = sum of coeffs over S."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (n,):
        raise ValueError("coeffs must have length n")
    return SetFunction(
        n,
        lambda masks: np.einsum("...j,j->...", bits_from_masks(masks, n), c),
        kind="modular",
        multilinear=lambda x: (float(c @ x), c.copy()),
    )


def sum_functions(fs):
    """Pointwise sum of oracles, of kind "sum".  Submodularity and symmetry
    are closed under addition, so the sum is flagged symmetric when every
    summand is."""
    n = fs[0].n
    if any(g.n != n for g in fs):
        raise ValueError("summands must share a ground set")

    def multilinear(x):
        parts = [g.multilinear(x) for g in fs]
        return sum(v for v, _ in parts), np.sum([grad for _, grad in parts], axis=0)

    return SetFunction(
        n,
        lambda masks: sum(g._values(masks) for g in fs),
        symmetric=all(g.symmetric for g in fs),
        kind="sum",
        multilinear=multilinear if all(g.multilinear is not None for g in fs) else None,
    )


def complement_function(f):
    """Oracle for S -> f(N \\ S); preserves submodularity and the symmetry flag."""
    fm = full_mask(f.n)

    def multilinear(x):
        value, grad = f.multilinear(1.0 - x)
        return value, -grad

    return SetFunction(
        f.n,
        lambda masks: f._values(masks ^ fm),
        symmetric=f.symmetric,
        kind=f"complement({f.kind})",
        multilinear=multilinear if f.multilinear is not None else None,
    )


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def single_edge_cut(n=2):
    return graph_cut_function(n, [(0, 1, 1.0)])


def triangle_cut():
    return graph_cut_function(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def random_symmetric_instance(n, seed):
    """Mix of graph and hypergraph cuts, all symmetric submodular."""
    if seed % 3 == 2 and n >= 3:
        return random_hypergraph_cut(n, seed)
    return random_graph_cut(n, seed)


def random_coverage(n, seed):
    rng = substream(seed, 0xC07)
    universe = 2 * n
    weights = tuple(float(w) for w in rng.uniform(0.1, 1.0, size=universe))
    membership = []
    for _ in range(n):
        size = int(rng.integers(1, max(2, universe // 2)))
        membership.append(tuple(int(j) for j in rng.choice(universe, size=size, replace=False)))
    return coverage_function(n, weights, membership)


# coverage weights at the ends of the float range as well as in between: a
# weight of 1e-300 vanishes beside 1e300, so sets of unequal cover tie
EXTREME_WEIGHTS = st.one_of(st.sampled_from([0.0, 1e-300, 1.0, 1e300]),
                            st.floats(min_value=0.0, max_value=1e300))


@st.composite
def coverage_instances(draw, n):
    """A coverage function on n elements, or a restriction of one on up to
    three more to n of them, with extreme weights and elements that cover
    nothing."""
    extra = draw(st.integers(min_value=0, max_value=3)) if draw(st.booleans()) else None
    size = n + (extra or 0)
    items = draw(st.integers(min_value=0, max_value=2 * size + 2))
    weights = draw(st.lists(EXTREME_WEIGHTS, min_size=items, max_size=items))
    covers = st.lists(st.integers(min_value=0, max_value=max(items - 1, 0)), max_size=min(items, 4), unique=True)
    f = coverage_function(size, weights, [draw(covers) for _ in range(size)])
    if extra is None:
        return f
    return restrict_function(f, draw(st.permutations(range(size)))[:n])


def random_offset_cut(n, seed):
    """Graph cut plus a non-negative additive term: still non-negative
    submodular, no longer symmetric."""
    cut = random_graph_cut(n, seed)
    rng = substream(seed, 0x0FF)
    offset = modular_function(n, rng.uniform(0.05, 0.6, size=n))
    return sum_functions([cut, offset])


def tight_instance(k):
    """The k-item welfare instance on which random assignment is exactly
    tight: utility 1 - (|S| - 1)/(k - 1) for non-empty S, 0 for the empty
    set.  The utility counts int64 masks, so k <= ``MAX_MASK_BITS``; it has
    no closed form, so its exact F is the table fold (k <= ``TABLE_LIMIT``)."""
    from lemmas import table_fold  # lemmas imports this module

    if not 2 <= k <= MAX_MASK_BITS:
        raise ValueError(f"requires 2 <= k <= {MAX_MASK_BITS}, got {k}")

    def value_of_size(sizes):
        sizes = np.asarray(sizes, dtype=float)
        return np.where(sizes > 0, 1.0 - (sizes - 1.0) / (k - 1.0), 0.0)

    utility = SetFunction(k, lambda masks: value_of_size(popcount_array(masks)), kind="welfare_tight")
    utility.multilinear = table_fold(utility)
    return WelfareInstance(k, utility)


# ---------------------------------------------------------------------------
# reference solvers
# ---------------------------------------------------------------------------


def brute_direction_value(w1, w2, c1, c2, k, coeff):
    """Exhaustive max-min direction oracle: best of min(A, B) over every
    hypersimplex vertex and every pairwise equalizing mix of two vertices."""
    n = len(w1)
    base1 = coeff * c1
    base2 = coeff * c2 + float(np.sum(w2))
    verts = []
    for comb in combinations(range(n), k):
        I = np.zeros(n)
        I[list(comb)] = 1.0
        a = base1 + float(np.dot(w1, I))
        b = base2 - float(np.dot(w2, I))
        verts.append((a, b))
    best = max(min(a, b) for a, b in verts)
    for (a1, b1), (a2, b2) in combinations(verts, 2):
        d1, d2 = a1 - b1, a2 - b2
        if d1 == d2:
            continue
        theta = d1 / (d1 - d2)
        if 0.0 <= theta <= 1.0:
            best = max(best, (1 - theta) * a1 + theta * a2)
    return best


def bisect_direction(w1, w2, c1, c2, k, coeff=2.0):
    """Reference max-min direction solver: bisects the dual parameter lam to
    a gap of 1e-12 and mixes the two bracketing vertices so that A = B.
    Returns (I1, objective); ``dmcg.solve_direction`` must match its
    objective."""
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    n = w1.size
    base1 = coeff * c1
    base2 = coeff * c2 + float(w2.sum())

    def vertex(lam):
        scores = lam * w1 - (1.0 - lam) * w2
        out = np.zeros(n)
        out[np.argsort(-scores, kind="stable")[:k]] = 1.0
        return out

    def gap(I):
        a, b = base1 + float(w1 @ I), base2 - float(w2 @ I)
        return a - b, min(a, b)

    lo, hi = 0.0, 1.0
    I_lo = vertex(lo)
    d_lo, obj = gap(I_lo)
    if d_lo >= 0.0:
        return I_lo, obj
    I_hi = vertex(hi)
    d_hi, obj = gap(I_hi)
    if d_hi <= 0.0:
        return I_hi, obj
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        I_mid = vertex(mid)
        d_mid, obj_mid = gap(I_mid)
        if d_mid == 0.0:
            return I_mid, obj_mid
        if d_mid < 0.0:
            lo, I_lo, d_lo = mid, I_mid, d_mid
        else:
            hi, I_hi, d_hi = mid, I_mid, d_mid
    theta = -d_lo / (d_hi - d_lo)
    I = theta * I_hi + (1.0 - theta) * I_lo
    return I, gap(I)[1]


def reference_kernel(family, n, *fields):
    """Reference batch oracle of the graph cut, hypergraph cut or coverage
    function over n elements whose builder takes ``fields`` after n: the
    kernel expression on int64 masks (Python ints above 62 elements) with no
    narrowing, summed over the last axis in the same einsum.  The shipped
    kernels must equal it bit for bit."""
    if family == "coverage":
        universe_weights, membership = fields
        rows = [{i for i in range(n) if j in membership[i]} for j in range(len(universe_weights))]
        coverers = mask_array([as_mask(row, n) for row in rows], n)
        weights = np.asarray(universe_weights, dtype=float)
        return lambda masks: np.einsum("...j,j->...", (masks[..., None] & coverers) != 0, weights)
    (edges,) = fields
    if family == "graph_cut":
        edges = [((u, v), w) for u, v, w in edges]
    edge_masks = mask_array([as_mask(verts, n) for verts, _ in edges], n)
    weights = np.array([w for _, w in edges], dtype=float)

    def many(masks):
        inter = masks[..., None] & edge_masks
        return np.einsum("...j,j->...", (inter != 0) & (inter != edge_masks), weights)

    return many


def embed_by_bit_rows(masks, kept, n):
    """Reference embedding of masks over len(kept) elements into masks over
    n: unpack each mask into a bit row, move column i to column kept[i] and
    pack the row again.  ``restrict_by_embedding`` must hand f exactly these
    masks."""
    bits = np.zeros((*masks.shape, n), dtype=np.int64)
    bits[..., list(kept)] = bits_from_masks(masks, len(kept))
    return masks_from_bits(bits)


def restrict_by_embedding(f, kept):
    """Reference restriction of any f to the elements ``kept`` (element i
    being kept[i] of f), by composition: each mask is embedded into f's
    ground set through per-byte tables and handed to f's kernel, counted on
    f, and the closed form is f's on the zero-padded point.  The flags are
    not set.  ``restrict_function``'s relabelled rows must give its values
    bit for bit."""
    kept = [int(u) for u in kept]
    kept_arr = np.array(kept, dtype=np.int64)
    # table b maps byte b of a mask to the embedded mask of the elements it holds
    byte_bits = bits_from_masks(np.arange(256), 8)
    tables = [byte_bits[:, : len(chunk)] @ mask_array([1 << u for u in chunk], f.n)
              for chunk in (kept[b : b + 8] for b in range(0, len(kept), 8))]
    dtype = mask_array([], f.n).dtype

    def many(masks):
        embedded = np.zeros(masks.shape, dtype=dtype)
        for b, table in enumerate(tables):
            embedded |= table[((masks >> 8 * b) & 255).astype(np.intp, copy=False)]
        return f._values(embedded)

    def multilinear(x):
        full = np.zeros(f.n)
        full[kept_arr] = x
        value, grad = f.multilinear(full)
        return value, grad[kept_arr]

    return SetFunction(len(kept), many, kind=f"embed({f.kind})",
                       multilinear=multilinear if f.multilinear is not None else None)


def simulate_by_draws(inst, trials, seed, value=None):
    """Reference random assignment: the seeded (trials, n) player draw of
    ``simulate_random_assign`` drawn at once, with every bundle of every
    trial valued by ``value`` (a mask array to its values), the batch oracle
    (k * trials queries) unless given, in one packing pass per player.
    ``simulate_random_assign`` must return these totals bit for bit, whether
    it reads the table or not."""
    choice = substream(seed, WELFARE_STREAM).integers(0, inst.k, size=(trials, inst.utility.n))
    value = inst.utility.eval_many if value is None else value
    totals = np.zeros(trials)
    for player in range(inst.k):
        totals += value(masks_from_bits(choice == player))
    return totals


def simulate_in_one_draw(inst, trials, seed):
    """:func:`simulate_by_draws` reading the utility's table by the rule of
    ``simulate_random_assign`` (2^n < k * trials and n <= ``TABLE_LIMIT``):
    the whole-draw simulation the blockwise one must equal in its totals,
    bit for bit, and in the sets it asks the oracle for."""
    f = inst.utility
    reads_table = f.n <= TABLE_LIMIT and (1 << f.n) < inst.k * trials
    return simulate_by_draws(inst, trials, seed, f.table().__getitem__ if reads_table else None)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def ring_cut_20():
    """20 vertices, 40 edges: evaluated in one 2^20-mask batch, the kernel's
    (2^20, 40) int64 temporaries alone would take hundreds of MB."""
    edges = tuple((u, (u + d) % 20, 1.0 + (u % 3)) for d in (1, 7) for u in range(20))
    return graph_cut_function(20, edges)


def peak_traced_bytes(run):
    """Peak bytes ``tracemalloc`` traces while ``run()`` runs (numpy's
    arrays included)."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_polytope(n, rng, kind=None):
    """A random cardinality, partition (up to three parts) or knapsack
    polytope over n >= 2 elements; the kind is drawn from rng unless given."""
    kind = POLYTOPE_KINDS[rng.integers(0, 3)] if kind is None else kind
    if kind == "cardinality":
        return CardinalityPolytope(n, int(rng.integers(1, n + 1)))
    if kind == "partition":
        cuts = sorted(rng.choice(np.arange(1, n), size=min(2, n - 1), replace=False).tolist())
        edges = [0, *cuts, n]
        parts = [list(range(edges[i], edges[i + 1])) for i in range(len(edges) - 1)]
        bounds = [int(rng.integers(1, len(p) + 1)) for p in parts]
        return PartitionPolytope(parts, bounds)
    a = rng.uniform(0.2, 1.5, size=n)
    # two light items can weigh less than 0.5 in all; the capacity then
    # admits both
    return KnapsackPolytope(a, float(rng.uniform(min(0.5, a.sum()), a.sum())))
