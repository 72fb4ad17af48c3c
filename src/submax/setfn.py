"""Ground sets, set-function value oracles, and the shipped instance families.

Every objective is wrapped in a :class:`SetFunction`: a value oracle over
bitmask subsets with a declared (audited, not enforced) symmetry flag and a
thread-safe query counter.  Each shipped family and wrapper has exactly one
oracle, a batch kernel over mask arrays.  ``eval`` is that kernel on a
one-mask batch, so a set has one value whether an algorithm, a value table or
a brute-force search asks for it.  Masks are int64 up to 62 elements; above
that only ``eval`` works, on Python-int masks, and the kernels run unchanged
on them.  The shipped families also carry a closed-form multilinear extension
(``multilinear``), which the wrappers pass on by composition.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .rng import substream
from .subsets import MASK_BLOCK, MAX_MASK_BITS, as_mask, bits_from_masks, full_mask, mask_array, masks_from_bits

# x -> (F(x), grad F(x)) for x in [0,1]^n
Multilinear = Callable[[np.ndarray], tuple[float, np.ndarray]]


@dataclass(frozen=True)
class GroundSet:
    """Elements are the indices 0..n-1; labels are display-only."""

    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("ground set size must be non-negative")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValueError("labels length must equal n")


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
    array of the same shape).  ``eval`` runs it on a one-mask array and
    ``eval_many`` on a whole batch, handing it at most ``MASK_BLOCK`` masks
    per call, so a set has the same value whichever entry point asks.  Masks
    are int64 for n <= 62 and Python ints (an ``object`` array) above that;
    only ``eval`` accepts the latter.  A user-defined scalar oracle
    ``eval_mask`` (bitmask -> float) stands in for a missing kernel and is
    called once per mask.  The counter increases by exactly one per
    evaluated set.  An optional ``multilinear`` hook returns the exact
    extension and its gradient, ``(F(x), grad F(x))``, without querying the
    oracle.
    """

    def __init__(
        self,
        n: int,
        eval_mask: Callable[[int], float] | None = None,
        *,
        symmetric: bool = False,
        eval_many_masks: Callable[[np.ndarray], np.ndarray] | None = None,
        kind: str = "custom",
        source=None,
        multilinear: Multilinear | None = None,
    ):
        if eval_mask is None and eval_many_masks is None:
            raise ValueError("a set function needs an oracle: eval_many_masks or eval_mask")
        self.n = int(n)
        self._eval_mask = eval_mask
        self.symmetric = bool(symmetric)
        self._eval_many = eval_many_masks
        self.kind = kind
        self.source = source
        self.multilinear = multilinear
        self._queries = _Counter()

    @property
    def query_count(self) -> int:
        return self._queries.value

    @property
    def ground_set(self) -> GroundSet:
        return GroundSet(self.n)

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

    def _values(self, masks: np.ndarray) -> np.ndarray:
        """Counted kernel values of a mask array (int64, or Python ints above
        62 bits).  A batch of more than ``MASK_BLOCK`` masks is evaluated in
        consecutive blocks of that many, so its temporaries stay cache-sized
        however large the batch; each mask's value does not depend on the
        others."""
        self._queries.add(int(masks.size))
        if masks.size <= MASK_BLOCK:
            return self._eval_block(masks)
        flat = masks.ravel()
        out = np.empty(flat.size)
        for start in range(0, flat.size, MASK_BLOCK):
            out[start : start + MASK_BLOCK] = self._eval_block(flat[start : start + MASK_BLOCK])
        return out.reshape(masks.shape)

    def _eval_block(self, masks: np.ndarray) -> np.ndarray:
        if self._eval_many is not None:
            return np.asarray(self._eval_many(masks), dtype=float)
        return np.array([self._eval_mask(int(m)) for m in masks.ravel()], dtype=float).reshape(masks.shape)

    def __call__(self, subset: int | Iterable[int]) -> float:
        return self.eval(subset)


def _weighted_count(hits: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j hits[..., j] * weights[j] over the last axis.  Each row is summed
    in an order fixed by its length alone (a BLAS matrix-vector product
    rounds a row differently with the batch size), so one mask has the same
    value in every batch."""
    return np.einsum("...j,j->...", hits, weights)


def _cut_kernel(edge_masks: np.ndarray, weights: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Batch oracle of a graph or hypergraph cut: the weight of the edges
    (vertex bitmasks) with a vertex on each side of each mask."""

    def many(masks: np.ndarray) -> np.ndarray:
        inter = masks[..., None] & edge_masks
        return _weighted_count((inter != 0) & (inter != edge_masks), weights)

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
        for u, v, w in self.edges:
            if u == v:
                raise ValueError("self-loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError("edge endpoint out of range")
            if w < 0:
                raise ValueError("edge weights must be non-negative")


def cut_eval(instance: GraphCutInstance, subset: int | Iterable[int]) -> float:
    """Total weight of edges with exactly one endpoint in the subset."""
    return graph_cut_function(instance).eval(subset)


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
        eval_many_masks=_cut_kernel(edge_masks, ew),
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
        eval_many_masks=_cut_kernel(he_masks, he_w),
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
    coverers = mask_array([as_mask(row, instance.n) for row in rows], instance.n)
    weights = np.asarray(instance.universe_weights, dtype=float)

    def many(masks: np.ndarray) -> np.ndarray:
        return _weighted_count((masks[..., None] & coverers) != 0, weights)

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


def modular_function(n: int, coeffs) -> SetFunction:
    """Additive f(S) = sum of coeffs over S (plumbing for offset instances)."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (n,):
        raise ValueError("coeffs must have length n")

    def many(masks: np.ndarray) -> np.ndarray:
        return _weighted_count(bits_from_masks(masks, n), c)

    return SetFunction(
        n,
        symmetric=False,
        eval_many_masks=many,
        kind="modular",
        multilinear=lambda x: (float(c @ x), c.copy()),
    )


def sum_functions(fs: list[SetFunction], *, symmetric: bool = False, kind: str = "sum") -> SetFunction:
    """Pointwise sum of oracles; submodularity is closed under addition."""
    n = fs[0].n
    if any(g.n != n for g in fs):
        raise ValueError("summands must share a ground set")

    def many(masks: np.ndarray) -> np.ndarray:
        return sum(g._values(masks) for g in fs)

    def multilinear(x: np.ndarray) -> tuple[float, np.ndarray]:
        parts = [g.multilinear(x) for g in fs]
        return sum(v for v, _ in parts), np.sum([grad for _, grad in parts], axis=0)

    return SetFunction(
        n,
        symmetric=symmetric,
        eval_many_masks=many,
        kind=kind,
        multilinear=multilinear if all(g.multilinear is not None for g in fs) else None,
    )


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def complement_function(f: SetFunction) -> SetFunction:
    """Oracle for S -> f(N \\ S); preserves submodularity and the symmetry flag."""
    fm = full_mask(f.n)

    def multilinear(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = f.multilinear(1.0 - x)
        return value, -grad

    return SetFunction(
        f.n,
        symmetric=f.symmetric,
        eval_many_masks=lambda masks: f._values(masks ^ fm),
        kind=f"complement({f.kind})",
        source=f,
        multilinear=multilinear if f.multilinear is not None else None,
    )


def restrict_function(f: SetFunction, kept: list[int], *, audit_symmetry_limit: int = 12) -> SetFunction:
    """Restriction of f to a sub-ground-set (subsets embed into the original N).

    Restriction preserves submodularity but generally breaks symmetry, so the
    flag is re-audited exhaustively when the restricted ground set is small
    enough, and dropped otherwise.
    """
    kept = [int(u) for u in kept]
    n_new = len(kept)
    kept_arr = np.array(kept, dtype=np.int64)

    def many(masks: np.ndarray) -> np.ndarray:
        # bit i of a mask moves to bit kept[i] of a mask over f's ground set
        bits = np.zeros((*masks.shape, f.n), dtype=np.int64)
        bits[..., kept_arr] = bits_from_masks(masks, n_new)
        return f._values(masks_from_bits(bits))

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
    elif f.symmetric and 1 <= n_new <= audit_symmetry_limit:
        g.symmetric = audit_symmetry(g)
    return g


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------


def _value_table(f: SetFunction) -> np.ndarray:
    return f.eval_many(np.arange(1 << f.n, dtype=np.int64))


def audit_submodularity(
    f: SetFunction,
    *,
    exhaustive_limit: int = 14,
    trials: int = 2000,
    seed: int = 0,
    tol: float = 1e-9,
) -> bool:
    """True iff f(A) + f(B) >= f(A|B) + f(A&B) on all audited pairs.

    At n <= exhaustive_limit this checks the equivalent diminishing-returns
    condition f(S+u) + f(S+v) >= f(S+u+v) + f(S) for every S and pair u != v,
    which implies the inequality for all (A, B).  Larger n samples random
    (A, B) pairs.
    """
    n = f.n
    if n <= exhaustive_limit:
        table = _value_table(f)
        all_masks = np.arange(1 << n, dtype=np.int64)
        for u, v in combinations(range(n), 2):
            bu, bv = 1 << u, 1 << v
            base = all_masks[(all_masks & (bu | bv)) == 0]
            lhs = table[base | bu] + table[base | bv]
            rhs = table[base | bu | bv] + table[base]
            if (lhs + tol < rhs).any():
                return False
        return True
    rng = substream(seed, 0xA0D17)
    for _ in range(trials):
        a = int(rng.integers(0, 1 << n))
        b = int(rng.integers(0, 1 << n))
        if f.eval(a) + f.eval(b) + tol < f.eval(a | b) + f.eval(a & b):
            return False
    return True


def audit_symmetry(
    f: SetFunction,
    *,
    exhaustive_limit: int = 14,
    trials: int = 2000,
    seed: int = 0,
    tol: float = 0.0,
) -> bool:
    """True iff f(S) = f(N\\S) on all audited sets (exact by default)."""
    n = f.n
    fm = full_mask(n)
    if n <= exhaustive_limit:
        table = _value_table(f)
        comp = table[np.bitwise_xor(np.arange(1 << n, dtype=np.int64), np.int64(fm))]
        return bool(np.max(np.abs(table - comp)) <= tol)
    rng = substream(seed, 0x5D33)
    for _ in range(trials):
        m = int(rng.integers(0, 1 << n))
        if abs(f.eval(m) - f.eval(fm ^ m)) > tol:
            return False
    return True


def audit_nonnegativity(
    f: SetFunction,
    *,
    exhaustive_limit: int = 14,
    trials: int = 2000,
    seed: int = 0,
    tol: float = 1e-9,
) -> bool:
    n = f.n
    if n <= exhaustive_limit:
        return bool(_value_table(f).min() >= -tol)
    rng = substream(seed, 0x2B3F)
    return all(f.eval(int(rng.integers(0, 1 << n))) >= -tol for _ in range(trials))


# ---------------------------------------------------------------------------
# JSON instance files
# ---------------------------------------------------------------------------

_SCHEMAS = {
    "graph_cut": {"type", "n", "edges"},
    "hypergraph_cut": {"type", "n", "hyperedges"},
    "coverage": {"type", "n", "universe_weights", "membership"},
    "hardness": {"type", "p", "q"},
}


def _check_fields(obj: dict, expected: set[str], what: str = "instance") -> None:
    """Strict JSON fields: raise ValueError naming every missing and every
    unknown field of ``obj``."""
    got = set(obj.keys())
    if got != expected:
        missing = expected - got
        unknown = got - expected
        parts = []
        if missing:
            parts.append(f"missing fields {sorted(missing)}")
        if unknown:
            parts.append(f"unknown fields {sorted(unknown)}")
        raise ValueError(f"bad {what} object: {'; '.join(parts)}")


def set_function_from_json(obj: dict) -> SetFunction:
    """Build a SetFunction from a parsed instance object (strict field names)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("instance object must be a dict with a 'type' field")
    kind = obj["type"]
    if kind not in _SCHEMAS:
        raise ValueError(f"unknown instance type {kind!r}")
    _check_fields(obj, _SCHEMAS[kind])
    if kind == "graph_cut":
        edges = tuple((int(u), int(v), float(w)) for u, v, w in obj["edges"])
        return graph_cut_function(GraphCutInstance(n=int(obj["n"]), edges=edges))
    if kind == "hypergraph_cut":
        hes = tuple((frozenset(int(v) for v in verts), float(w)) for verts, w in obj["hyperedges"])
        return hypergraph_cut_function(HypergraphCutInstance(n=int(obj["n"]), hyperedges=hes))
    if kind == "coverage":
        inst = CoverageInstance(
            n=int(obj["n"]),
            universe_weights=tuple(float(w) for w in obj["universe_weights"]),
            membership=tuple(tuple(int(j) for j in row) for row in obj["membership"]),
        )
        return coverage_function(inst)
    return hardness_instance(int(obj["p"]), int(obj["q"]))
