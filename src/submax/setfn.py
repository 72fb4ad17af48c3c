"""Set-function value oracles and the shipped instance families.

Every objective is wrapped in a :class:`SetFunction`: a value oracle over
bitmask subsets with declared (not enforced) symmetry and monotonicity flags
and a thread-safe query counter.  Every set function has exactly one oracle, a
batch kernel over mask arrays.  ``eval`` is that kernel on a one-mask batch,
so a set has one value whether an algorithm, a value table or a brute-force
search asks for it.  Masks are int64 up to 62 elements at the API; above
that only ``eval`` works, on Python-int masks.

The shipped families are one row family: weighted rows over the elements,
each row paying its weight when the set meets it (coverage, a row per
universe item) or meets it without containing it (graph and hypergraph
cuts, a row per edge, and the one-edge hardness fixture).  Each family's
builder takes its fields as plain sequences, as the instance files list
them, and turns them into rows.  One builder checks every family's rows and
weights and gives them one kernel, which narrows int64 masks to
``subsets.word(n)`` and counts the members of each row of a Python-int mask
(a set above 62 elements) from its bit vector, and one closed-form
multilinear extension (``multilinear``).  A restriction of a row family to
some of its elements (``restrict_function``) is a row family again, of f's
rows relabelled.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable

import numpy as np

from .subsets import MASK_BLOCK, MAX_MASK_BITS, as_mask, mask_array, word

# x -> (F(x), grad F(x)) for x in [0,1]^n
Multilinear = Callable[[np.ndarray], tuple[float, np.ndarray]]

# largest n whose value table SetFunction.table builds: 2^23 float64 values,
# 64 MB, the welfare search's largest case (k = 2 players, k^n <= 10^7)
TABLE_LIMIT = 23


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
    """Value oracle f: 2^N -> R with symmetry and monotone claims and a query counter.

    The oracle is one batch kernel, ``eval_many_masks`` (mask array -> float
    array of the same shape), the one argument every set function needs.
    ``eval`` runs it on a one-mask array and ``eval_many`` on a whole batch,
    handing it at most ``MASK_BLOCK`` masks per call, so a set has the same
    value whichever entry point asks.  Masks are int64 for n <= 62 and
    Python ints (an ``object`` array) above that; only ``eval`` accepts the
    latter.  A kernel may narrow int64 masks internally (the row family
    casts them to ``subsets.word(n)``).  The counter increases by exactly
    one per evaluated set.  ``table`` holds f's value on every set once it has been asked for:
    the exact table fold, the welfare search and the welfare simulation all
    read that one array.  An optional
    ``multilinear`` hook returns the exact extension and its gradient,
    ``(F(x), grad F(x))``, without querying the oracle.
    ``symmetric`` (f(S) = f(N\\S)) and ``monotone`` (f(S) <= f(S + u)) are
    exact claims the brute force trusts: the row family sets them by its row
    rule and a restriction from its relabelled rows, other oracles default
    to neither.
    """

    def __init__(
        self,
        n: int,
        eval_many_masks: Callable[[np.ndarray], np.ndarray],
        *,
        symmetric: bool = False,
        monotone: bool = False,
        kind: str = "custom",
        multilinear: Multilinear | None = None,
    ):
        self.n = int(n)
        self.symmetric = bool(symmetric)
        self.monotone = bool(monotone)
        self._eval_many = eval_many_masks
        self.kind = kind
        self.multilinear = multilinear
        self._queries = _Counter()
        self._table: np.ndarray | None = None
        self._rows: tuple[np.ndarray, np.ndarray, bool] | None = None  # a row family's (incidence, weights, cut)

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
        the oracle for all 2^n sets, one ``eval_many`` batch of ``MASK_BLOCK``
        consecutive masks at a time, so building it holds the table and one
        block of masks; later calls return the same read-only array and ask
        for nothing.  The table is kept for f's lifetime (8 * 2^n bytes, so
        n <= ``TABLE_LIMIT``).  Entries are the values ``eval`` and
        ``eval_many`` give, bit for bit."""
        if self.n > TABLE_LIMIT:
            raise ValueError(f"the value table holds all 2^n sets: n must be <= {TABLE_LIMIT}, got {self.n}")
        if self._table is None:
            table = np.empty(1 << self.n)
            for start in range(0, table.size, MASK_BLOCK):
                stop = min(start + MASK_BLOCK, table.size)
                table[start:stop] = self.eval_many(np.arange(start, stop, dtype=np.int64))
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


# ---------------------------------------------------------------------------
# the row family: weighted rows over the elements
# ---------------------------------------------------------------------------


def _leave_one_out(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products over the last axis, and for each entry the product of the others
    along it, from prefix and suffix products (no division: entries may be 0)."""
    shape = (*vals.shape[:-1], vals.shape[-1] + 1)
    prefix = np.ones(shape)
    np.cumprod(vals, axis=-1, out=prefix[..., 1:])
    suffix = np.ones(shape)
    np.cumprod(vals[..., ::-1], axis=-1, out=suffix[..., -2::-1])
    return prefix[..., -1], prefix[..., :-1] * suffix[..., 1:]


def _row_family(n: int, rows: list, weights, *, cut: bool, kind: str) -> SetFunction:
    """f(S) = total weight of the rows S meets, and under the cut rule
    (``cut``) does not contain.  Cut rows make f symmetric, the others
    monotone (bit for bit: the kernel sums non-negative terms in a fixed
    order).  This is the one
    check of every family's input: n >= 0, each row lists distinct elements
    of range(n), a cut row at least 2, and each weight is finite and
    non-negative.  The rows are held as an incidence matrix as wide as the
    longest row but at least 2, short rows padded with n."""
    if n < 0:
        raise ValueError(f"the ground set size n must be non-negative, got {n}")
    weights = np.asarray(weights, dtype=float)
    bad = ~np.isfinite(weights) | (weights < 0.0)
    if bad.any():
        e = int(np.argmax(bad))
        raise ValueError(f"{kind} row {e} has weight {float(weights[e])!r}: weights must be finite and non-negative")

    def malformed(e: int) -> ValueError:
        return ValueError(f"{kind} row {e} is {tuple(rows[e])!r}: a row lists distinct elements of range({n})"
                          + (", at least 2 of them" if cut else ""))

    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    width = max(2, int(lengths.max(initial=0)))
    incidence = np.full((len(rows), width), n, dtype=np.int64)
    for e, row in enumerate(rows):
        try:
            incidence[e, : len(row)] = row
        except OverflowError:  # an element beyond int64 is out of range too
            raise malformed(e) from None
    sizes = (incidence < n).sum(axis=1)  # an element >= n is not counted, as padding is not
    ordered = np.sort(incidence, axis=1)
    bad = (sizes != lengths) | (ordered[:, 0] < 0) | (lengths < (2 if cut else 0))
    bad |= ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] < n)).any(axis=1)
    if bad.any():
        raise malformed(int(np.argmax(bad)))
    return _row_oracle(n, incidence, weights, cut, kind)


def _row_oracle(n: int, incidence: np.ndarray, weights: np.ndarray, cut: bool, kind: str) -> SetFunction:
    """The set function of checked rows, kept on it as ``f._rows``:
    ``incidence`` lists each row's members (elements of range(n)), padded
    with n, and with n + 1 for an absent member, one no set holds (a
    restriction dropped it).  An absent member counts towards its row's size
    but never towards its hits, so that row is never contained: a cut row
    that has one pays when S meets it, as a meets row does.  So f(empty) = 0
    and f(N) is the weight of such rows, and a cut family is flagged
    symmetric exactly when none of them has a positive weight and a member.
    Meets rows are flagged monotone.

    The oracle is one kernel: int64 masks are narrowed to ``word(n)`` and
    ANDed with the row masks, and a Python-int mask (a set above 62
    elements) is unpacked to a bit vector whose members are counted per
    row, one gather per incidence column.  Both sum the same hits in
    ``_weighted_count``, so they agree bit for bit.  The closed form is
    ``x_u + x_v - c x_u x_v`` (c = 2 cut, 1 meets; padding and absent
    members read x = 0) when rows hold at most two entries, and else
    1 - prod(1 - x), less prod(x) for a cut, with leave-one-out products
    for the gradient."""
    width = incidence.shape[1]
    sizes = (incidence != n).sum(axis=1)  # an absent member counts, so its row is never contained
    lost = (incidence > n).any(axis=1)
    symmetric = cut and not (lost & (incidence < n).any(axis=1) & (weights > 0)).any()
    columns = list(incidence.T.copy())  # contiguous columns gather faster
    if n <= MAX_MASK_BITS:  # the only ground sets whose masks come as int64 arrays
        bit = np.where(incidence < n, np.int64(1) << incidence, 0)
        row_masks = np.bitwise_or.reduce(bit, axis=1).astype(word(n))
        # a set contains its row when the AND gives the row's mask; a row with
        # an absent member is compared with 0, which a set that meets it is not
        whole = np.where(lost, 0, row_masks).astype(row_masks.dtype)
    count_type = np.min_scalar_type(width)

    def value_of_int(mask: int) -> float:
        member = np.zeros(n + 2, dtype=count_type)  # member[n] = member[n + 1] = 0 reads padding and absence
        member[:n] = np.unpackbits(np.frombuffer(mask.to_bytes(-(-n // 8), "little"), np.uint8), count=n,
                                   bitorder="little")
        count = member[columns[0]]
        for column in columns[1:]:
            count += member[column]
        hits = count != 0
        if cut:
            hits &= count != sizes
        return _weighted_count(hits, weights)

    def many(masks: np.ndarray) -> np.ndarray:
        if masks.dtype == object:
            return np.array([value_of_int(int(m)) for m in masks.ravel()]).reshape(masks.shape)
        inter = masks.astype(row_masks.dtype, copy=False)[..., None] & row_masks
        hits = inter != 0
        if cut:
            hits &= inter != whole
        return _weighted_count(hits, weights)

    c = 2.0 if cut else 1.0

    def multilinear(x: np.ndarray) -> tuple[float, np.ndarray]:
        if width == 2:
            # Pr[row uv pays] = x_u + x_v - c x_u x_v
            u, v = columns
            xp = np.zeros(n + 2)
            xp[:n] = x
            xu, xv = xp[u], xp[v]
            grad = np.bincount(u, weights * (1.0 - c * xv), n + 2)
            grad += np.bincount(v, weights * (1.0 - c * xu), n + 2)
            return float(weights @ (xu + xv - c * xu * xv)), grad[:n]
        # Pr[row pays] = 1 - prod (1 - x) [- prod x under the cut rule], in one
        # pass; padding reads 1 in both products, an absent member x = 0
        sides = np.ones((1 + cut, n + 2))
        sides[0, :n], sides[1:, :n], sides[1:, n + 1] = 1.0 - x, x, 0.0
        products, others = _leave_one_out(sides[:, incidence])
        if cut:
            pays, others = 1.0 - products[1] - products[0], others[0] - others[1]
        else:
            pays, others = 1.0 - products[0], others[0]
        grad = np.bincount(incidence.ravel(), (weights[:, None] * others).ravel(), n + 2)
        return float(weights @ pays), grad[:n]

    f = SetFunction(n, many, symmetric=symmetric, monotone=not cut, kind=kind, multilinear=multilinear)
    f._rows = (incidence, weights, cut)
    return f


# ---------------------------------------------------------------------------
# instance families
# ---------------------------------------------------------------------------


def graph_cut_function(n: int, edges) -> SetFunction:
    """Weighted undirected graph given as ``(u, v, w)`` edges; f(S) = total
    weight of the edges crossing S."""
    return _row_family(n, [(u, v) for u, v, _ in edges], [w for _, _, w in edges], cut=True, kind="graph_cut")


def hypergraph_cut_function(n: int, hyperedges) -> SetFunction:
    """Hyperedges given as ``(vertices, w)``; f(S) = total weight of the
    hyperedges with a vertex on each side of (S, N\\S)."""
    rows = [sorted(verts) for verts, _ in hyperedges]
    return _row_family(n, rows, [w for _, w in hyperedges], cut=True, kind="hypergraph_cut")


def coverage_function(n: int, universe_weights, membership) -> SetFunction:
    """Weighted coverage: f(S) = weight of the universe items covered by the
    elements of S, where ``membership[i]`` lists the items element i covers.
    Monotone submodular and (generically) non-symmetric."""
    rows: list[set[int]] = [set() for _ in universe_weights]  # rows[j] = the elements covering item j
    for i, covered in enumerate(membership):
        for j in covered:
            if not 0 <= j < len(rows):
                raise ValueError(f"element {i} covers item {j!r}, outside the {len(rows)} universe items")
            rows[j].add(i)
    f = _row_family(n, [sorted(row) for row in rows], universe_weights, cut=False, kind="coverage")
    if len(membership) != n:  # checked after n >= 0, so a negative n is named as such
        raise ValueError(f"membership must list the covered items of each of the n = {n} elements, "
                         f"got {len(membership)} lists")
    return f


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
    return _row_family(2 * q, [(0, 2 * q - 1)], [1.0], cut=True, kind="hardness")


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------


def restrict_function(f: SetFunction, kept: list[int]) -> SetFunction:
    """The row family f on its distinct elements ``kept``, element i of
    the restriction being kept[i] of f: f's rows relabelled.  Each row keeps
    its place and its width: a kept member takes its new index, padding
    stays padding, and a dropped member becomes absent (``_row_oracle``), so
    values, F and grad F are f's at the embedded set and the zero-padded
    point, bit for bit, and the symmetric flag is exact at every size.
    """
    if f._rows is None:
        raise TypeError(f"restrict_function relabels the rows of a row family; a {f.kind} function has none")
    m = len(kept)
    label = np.full(f.n + 2, m + 1, dtype=np.int64)  # a dropped element is absent, as an absent one stays
    label[f.n] = m  # padding stays padding
    for i, u in enumerate(kept):
        if not isinstance(u, (int, np.integer)) or not 0 <= u < f.n or label[u] != m + 1:
            raise ValueError(f"kept entry {i} is {u!r}: kept lists distinct elements of range({f.n})")
        label[u] = i
    incidence, weights, cut = f._rows
    return _row_oracle(m, label[incidence], weights, cut, f"restrict({f.kind})")
