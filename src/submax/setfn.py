"""Set-function value oracles and the shipped instance families.

Every objective is wrapped in a :class:`SetFunction`: a value oracle over
bitmask subsets with a declared (audited, not enforced) symmetry flag and a
thread-safe query counter.  Every set function has exactly one oracle, a
batch kernel over mask arrays.  ``eval`` is that kernel on a one-mask batch,
so a set has one value whether an algorithm, a value table or a brute-force
search asks for it.  Masks are int64 up to 62 elements at the API; above
that only ``eval`` works, on Python-int masks.  The cut and coverage kernels
narrow each batch to ``subsets.word(n)`` (uint8, uint16 or uint32 up to 32
elements) with one expression for every width, so their temporaries are
word-sized.  The shipped families also carry a closed-form
multilinear extension (``multilinear``), which ``restrict_function`` passes
on by composition.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .subsets import MASK_BLOCK, MAX_MASK_BITS, as_mask, bits_from_masks, full_mask, mask_array, word

# x -> (F(x), grad F(x)) for x in [0,1]^n
Multilinear = Callable[[np.ndarray], tuple[float, np.ndarray]]

# largest n whose value table SetFunction.table builds: 2^23 float64 values,
# 64 MB, the welfare search's largest case (k = 2 players, k^n <= 10^7)
TABLE_LIMIT = 23
# largest n whose 2^n sets the symmetry audit evaluates
SYMMETRY_AUDIT_LIMIT = 14
# largest restricted ground set whose symmetry flag restrict_function re-audits
RESTRICT_AUDIT_LIMIT = 12


class _Counter:
    """Thread-safe monotone counter (oracle calls may come from workers)."""

    def __init__(self):
        self._value = 0
        self._lock = threading.Lock()

    def add(self, k: int) -> None:
        with self._lock:
            self._value += k

    @property
    def value(self) -> int:
        return self._value


class SetFunction:
    """Value oracle f: 2^N -> R with a symmetry claim and a query counter.

    The oracle is one batch kernel, ``eval_many_masks`` (mask array -> float
    array of the same shape), the one argument every set function needs.
    ``eval`` runs it on a one-mask array and ``eval_many`` on a whole batch,
    handing it at most ``MASK_BLOCK`` masks per call, so a set has the same
    value whichever entry point asks.  Masks are int64 for n <= 62 and
    Python ints (an ``object`` array) above that; only ``eval`` accepts the
    latter.  A kernel may narrow them internally (the shipped ones cast to
    ``subsets.word(n)``).  The counter increases by exactly one per evaluated
    set.  ``table`` holds f's value on every set once it has been asked for:
    the exact table fold, the welfare search, the welfare simulation and the
    symmetry audit all read that one array.  An optional
    ``multilinear`` hook returns the exact extension and its gradient,
    ``(F(x), grad F(x))``, without querying the oracle.
    """

    def __init__(
        self,
        n: int,
        eval_many_masks: Callable[[np.ndarray], np.ndarray],
        *,
        symmetric: bool = False,
        kind: str = "custom",
        source=None,
        multilinear: Multilinear | None = None,
    ):
        self.n = int(n)
        self.symmetric = bool(symmetric)
        self._eval_many = eval_many_masks
        self.kind = kind
        self.source = source
        self.multilinear = multilinear
        self._queries = _Counter()
        self._table: np.ndarray | None = None

    @property
    def query_count(self) -> int:
        return self._queries.value

    def eval(self, subset: int | Iterable[int]) -> float:
        """Oracle value of one subset (bitmask or iterable of indices): the
        batch kernel on a one-mask array, at any n."""
        return float(self._values(mask_array([as_mask(subset, self.n)], self.n))[0])

    def eval_many(self, masks: np.ndarray) -> np.ndarray:
        """Oracle values of a batch of int64 bitmasks (any shape); counts one
        query per mask."""
        if self.n > MAX_MASK_BITS:
            raise ValueError(
                f"batch queries pack sets into int64 masks: n must be <= {MAX_MASK_BITS}, got {self.n}"
            )
        return self._values(np.asarray(masks, dtype=np.int64))

    def table(self) -> np.ndarray:
        """f on every set, entry m the value of mask m: the first call asks
        the oracle for all 2^n sets in one ``eval_many`` batch, later calls
        return the same read-only array and ask for nothing.  The table is
        kept for f's lifetime (8 * 2^n bytes, so n <= ``TABLE_LIMIT``).
        Entries are the values ``eval`` and ``eval_many`` give, bit for bit."""
        if self.n > TABLE_LIMIT:
            raise ValueError(f"the value table holds all 2^n sets: n must be <= {TABLE_LIMIT}, got {self.n}")
        if self._table is None:
            table = self.eval_many(np.arange(1 << self.n, dtype=np.int64))
            table.flags.writeable = False
            self._table = table
        return self._table

    def _values(self, masks: np.ndarray) -> np.ndarray:
        """Counted kernel values of a mask array (int64, or Python ints above
        62 bits).  A batch of more than ``MASK_BLOCK`` masks is evaluated in
        consecutive blocks of that many, so its temporaries stay cache-sized
        however large the batch; each mask's value does not depend on the
        others."""
        self._queries.add(int(masks.size))
        if masks.size <= MASK_BLOCK:
            return np.asarray(self._eval_many(masks), dtype=float)
        flat = masks.ravel()
        out = np.empty(flat.size)
        for start in range(0, flat.size, MASK_BLOCK):
            out[start : start + MASK_BLOCK] = self._eval_many(flat[start : start + MASK_BLOCK])
        return out.reshape(masks.shape)


def _weighted_count(hits: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j hits[..., j] * weights[j] over the last axis.  Each row is summed
    in an order fixed by its length alone (a BLAS matrix-vector product
    rounds a row differently with the batch size), so one mask has the same
    value in every batch."""
    return np.einsum("...j,j->...", hits, weights)


def _cut_kernel(edge_masks: np.ndarray, weights: np.ndarray, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Batch oracle of a graph or hypergraph cut over n elements: the weight
    of the edges (vertex bitmasks) with a vertex on each side of each mask.
    Masks are cast to ``word(n)``, which keeps the n bits the AND sees."""
    w = word(n)
    edge_masks = edge_masks.astype(w)

    def many(masks: np.ndarray) -> np.ndarray:
        inter = masks.astype(w, copy=False)[..., None] & edge_masks
        hits = inter != 0
        hits &= inter != edge_masks
        return _weighted_count(hits, weights)

    return many


# ---------------------------------------------------------------------------
# closed-form helpers: products over the rows of a padded incidence matrix
# ---------------------------------------------------------------------------


def _padded_incidence(rows: list[list[int]], n: int) -> np.ndarray:
    """(len(rows), max arity) index matrix; short rows are padded with n, the
    index of the neutral factor 1 appended to the coordinate vector."""
    width = max([1, *(len(r) for r in rows)])
    out = np.full((len(rows), width), n, dtype=np.int64)
    for e, row in enumerate(rows):
        out[e, : len(row)] = row
    return out


def _leave_one_out(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row products, and for each entry the product of the other entries of
    its row, from prefix and suffix products (no division: entries may be 0)."""
    rows, width = vals.shape
    prefix = np.ones((rows, width + 1))
    np.cumprod(vals, axis=1, out=prefix[:, 1:])
    suffix = np.ones((rows, width + 1))
    np.cumprod(vals[:, ::-1], axis=1, out=suffix[:, -2::-1])
    return prefix[:, -1], prefix[:, :-1] * suffix[:, 1:]


def _scatter(incidence: np.ndarray, contrib: np.ndarray, n: int) -> np.ndarray:
    """Sum each entry's contribution into its element; padding is dropped."""
    return np.bincount(incidence.ravel(), contrib.ravel(), n + 1)[:n]


# ---------------------------------------------------------------------------
# instance families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphCutInstance:
    """Weighted undirected graph; f(S) = total weight of edges crossing S."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"the ground set size n must be non-negative, got {self.n}")
        for u, v, w in self.edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range")
            if w < 0:
                raise ValueError("edge weights must be non-negative")


def graph_cut_function(instance: GraphCutInstance) -> SetFunction:
    eu = np.array([e[0] for e in instance.edges], dtype=np.int64)
    ev = np.array([e[1] for e in instance.edges], dtype=np.int64)
    ew = np.array([e[2] for e in instance.edges], dtype=float)
    edge_masks = mask_array([as_mask((u, v), instance.n) for u, v, _ in instance.edges], instance.n)

    def multilinear(x: np.ndarray) -> tuple[float, np.ndarray]:
        # Pr[edge uv is cut] = x_u + x_v - 2 x_u x_v
        xu, xv = x[eu], x[ev]
        value = float(ew @ (xu + xv - 2.0 * xu * xv))
        grad = np.bincount(eu, ew * (1.0 - 2.0 * xv), instance.n)
        grad += np.bincount(ev, ew * (1.0 - 2.0 * xu), instance.n)
        return value, grad

    return SetFunction(
        instance.n,
        symmetric=True,
        eval_many_masks=_cut_kernel(edge_masks, ew, instance.n),
        kind="graph_cut",
        source=instance,
        multilinear=multilinear,
    )


@dataclass(frozen=True)
class HypergraphCutInstance:
    """f(S) = total weight of hyperedges with a vertex on each side of (S, N\\S)."""

    n: int
    hyperedges: tuple[tuple[frozenset[int], float], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"the ground set size n must be non-negative, got {self.n}")
        for verts, w in self.hyperedges:
            if len(verts) < 2:
                raise ValueError("hyperedges need at least 2 distinct vertices")
            if any(not 0 <= v < self.n for v in verts):
                raise ValueError("hyperedge vertex out of range")
            if w < 0:
                raise ValueError("hyperedge weights must be non-negative")


def hypergraph_cut_function(instance: HypergraphCutInstance) -> SetFunction:
    he_masks = mask_array([as_mask(verts, instance.n) for verts, _ in instance.hyperedges], instance.n)
    he_w = np.array([w for _, w in instance.hyperedges], dtype=float)

    incidence = _padded_incidence([sorted(verts) for verts, _ in instance.hyperedges], instance.n)

    def multilinear(x: np.ndarray) -> tuple[float, np.ndarray]:
        # Pr[e is cut] = 1 - prod_e x - prod_e (1 - x)
        inside, inside_others = _leave_one_out(np.append(x, 1.0)[incidence])
        outside, outside_others = _leave_one_out(np.append(1.0 - x, 1.0)[incidence])
        value = float(he_w @ (1.0 - inside - outside))
        return value, _scatter(incidence, he_w[:, None] * (outside_others - inside_others), instance.n)

    return SetFunction(
        instance.n,
        symmetric=True,
        eval_many_masks=_cut_kernel(he_masks, he_w, instance.n),
        kind="hypergraph_cut",
        source=instance,
        multilinear=multilinear,
    )


@dataclass(frozen=True)
class CoverageInstance:
    """Weighted coverage: f(S) = weight of universe items covered by the sets in S.

    ``membership[i]`` lists the universe items covered by ground element i.
    Monotone submodular and (generically) non-symmetric.
    """

    n: int
    universe_weights: tuple[float, ...]
    membership: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"the ground set size n must be non-negative, got {self.n}")
        if len(self.membership) != self.n:
            raise ValueError("membership must list covered items for each of the n sets")
        m = len(self.universe_weights)
        if any(w < 0 for w in self.universe_weights):
            raise ValueError("universe weights must be non-negative")
        for covered in self.membership:
            if any(not 0 <= j < m for j in covered):
                raise ValueError("universe item index out of range")


def coverage_function(instance: CoverageInstance) -> SetFunction:
    m = len(instance.universe_weights)
    # rows[j] = the ground elements covering universe item j
    rows: list[set[int]] = [set() for _ in range(m)]
    for i, covered in enumerate(instance.membership):
        for j in covered:
            rows[j].add(i)
    w = word(instance.n)
    coverers = mask_array([as_mask(row, instance.n) for row in rows], instance.n).astype(w)
    weights = np.asarray(instance.universe_weights, dtype=float)

    def many(masks: np.ndarray) -> np.ndarray:
        return _weighted_count((masks.astype(w, copy=False)[..., None] & coverers) != 0, weights)

    incidence = _padded_incidence([sorted(row) for row in rows], instance.n)

    def multilinear(x: np.ndarray) -> tuple[float, np.ndarray]:
        # Pr[item j is covered] = 1 - prod_{i covers j} (1 - x_i)
        missed, missed_others = _leave_one_out(np.append(1.0 - x, 1.0)[incidence])
        value = float(weights @ (1.0 - missed))
        return value, _scatter(incidence, weights[:, None] * missed_others, instance.n)

    return SetFunction(
        instance.n,
        symmetric=False,
        eval_many_masks=many,
        kind="coverage",
        source=instance,
        multilinear=multilinear,
    )


def hardness_instance(p: int, q: int) -> SetFunction:
    """Symmetry-gap fixture on 2q elements: value 1 iff exactly one of the two
    cut endpoints (elements 0 and 2q-1) is in the set.

    The parameter p < q fixes the target cardinality 2p of a unit-value set.
    """
    p, q = int(p), int(q)
    if p < 1 or q < 1:
        raise ValueError("p and q must be positive")
    if p >= q:
        raise ValueError("requires p < q")
    n = 2 * q
    inst = GraphCutInstance(n=n, edges=((0, n - 1, 1.0),))
    f = graph_cut_function(inst)
    f.kind = "hardness"
    f.source = {"p": p, "q": q, "instance": inst}
    return f


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------


def restrict_function(f: SetFunction, kept: list[int]) -> SetFunction:
    """Restriction of f to a sub-ground-set (subsets embed into the original N).

    Restriction preserves submodularity but generally breaks symmetry, so the
    flag of a symmetric f is re-audited exhaustively when at most
    ``RESTRICT_AUDIT_LIMIT`` elements are kept, and dropped otherwise.
    """
    kept = [int(u) for u in kept]
    n_new = len(kept)
    kept_arr = np.array(kept, dtype=np.int64)
    # bit i of a mask moves to bit kept[i] of a mask over f's ground set: table
    # b maps byte b of a mask to the embedded mask of the elements it holds
    byte_bits = bits_from_masks(np.arange(256), 8)
    tables = [byte_bits[:, : len(chunk)] @ mask_array([1 << u for u in chunk], f.n)
              for chunk in (kept[b : b + 8] for b in range(0, n_new, 8))]
    dtype = mask_array([], f.n).dtype

    def many(masks: np.ndarray) -> np.ndarray:
        embedded = np.zeros(masks.shape, dtype=dtype)
        for b, table in enumerate(tables):
            embedded |= table[((masks >> 8 * b) & 255).astype(np.intp, copy=False)]
        return f._values(embedded)

    def multilinear(x: np.ndarray) -> tuple[float, np.ndarray]:
        full = np.zeros(f.n)
        full[kept_arr] = x
        value, grad = f.multilinear(full)
        return value, grad[kept_arr]

    g = SetFunction(
        n_new,
        symmetric=False,
        eval_many_masks=many,
        kind=f"restrict({f.kind})",
        source=f,
        multilinear=multilinear if f.multilinear is not None else None,
    )
    if n_new == f.n:
        g.symmetric = f.symmetric
    elif f.symmetric and 1 <= n_new <= RESTRICT_AUDIT_LIMIT:
        g.symmetric = audit_symmetry(g)
    return g


# ---------------------------------------------------------------------------
# symmetry audit
# ---------------------------------------------------------------------------


def audit_symmetry(f: SetFunction) -> bool:
    """True iff f(S) = f(N\\S) exactly on every set S: it reads f's value
    table (``SetFunction.table``), so n <= ``SYMMETRY_AUDIT_LIMIT``."""
    n = f.n
    if n > SYMMETRY_AUDIT_LIMIT:
        raise ValueError(f"the symmetry audit reads all 2^n sets: n must be <= {SYMMETRY_AUDIT_LIMIT}, got {n}")
    table = f.table()
    return bool(np.array_equal(table, table[np.arange(1 << n, dtype=np.int64) ^ np.int64(full_mask(n))]))
