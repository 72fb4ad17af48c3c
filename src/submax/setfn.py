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
multilinear extension (``multilinear``), which reads F and grad F at a
stack of points in one call.  A restriction of a row family to
some of its elements (``restrict_function``) is a row family again, of f's
rows relabelled.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable

import numpy as np

from .subsets import MASK_BLOCK, MAX_MASK_BITS, as_mask, mask_array, word

# a stack X of s points of [0,1]^n, shape (s, n) -> (F of each point, shape
# (s,); grad F of each point, shape (s, n))
Multilinear = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

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
    ``multilinear`` hook returns the exact extension and its gradient
    without querying the oracle, for a stack of points at once: given X of
    shape (s, n) it returns (F of each row, shape (s,); grad F of each row,
    shape (s, n)), and row j's F and gradient are the same bit for bit
    whatever else the stack holds.
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
    ``_weighted_count``, so they agree bit for bit.  The closed form takes a
    stack of s points: it is ``x_u + x_v - c x_u x_v`` (c = 2 cut, 1 meets;
    padding and absent members read x = 0) when rows hold at most two
    entries, and else 1 - prod(1 - x), less prod(x) for a cut, whose
    gradient takes each member's product of the others, a prefix product
    times a suffix product.  Every point's sides are read in one gather,
    of each row's members forward and reversed after a padding index that
    reads 1, and the running products along them hold the prefix and suffix
    products, the last one the row's product.  The gradient is one
    ``bincount`` into per-point bins, F one dot product per point, so each
    point's F and gradient are what a stack of that point alone gives, bit
    for bit.  The gather indices and the padded sides are built once per
    stack height."""
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
    # point j of a stack owns entries j (n + 2) to j (n + 2) + n + 1 of each
    # padded side and of the gradient, so one gather reads every point and one
    # bincount sums each point's gradient in bins of its own, each in row order
    if width > 2:
        # the members of each row forward and reversed, each after a leading
        # padding index: their running products are the prefix and the suffix
        # products, both starting from 1
        ends = np.empty((width + 1, 2, len(incidence)), dtype=np.int64)
        ends[0] = n
        ends[1:, 0] = incidence.T
        ends[1:, 1] = incidence.T[::-1]
    plans = {}  # stack height -> (padded sides, gather index, gradient bins, row weights of every point)

    def plan(s: int) -> tuple:
        if width == 2:
            at = (np.array(columns)[:, None, :] + (n + 2) * np.arange(s)[:, None]).reshape(2, -1)  # u and v
            return np.zeros((s, n + 2)), at, tuple(at), np.tile(weights, (2, s))
        # sides 0..s-1 read 1 - x, sides s..2s-1 (a cut's) x; padding reads 1
        # on both and an absent member x = 0
        sides = np.ones(((1 + cut) * s, n + 2))
        sides[s:, n + 1] = 0.0
        at = ends[:, :, None, :] + (n + 2) * np.arange(len(sides))[:, None]  # (width + 1, 2, sides, rows)
        bins = (incidence + (n + 2) * np.arange(s)[:, None, None]).ravel()  # (points, rows, width)
        return sides, at, bins, weights

    def multilinear(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = len(X)
        sides, at, bins, row_weights = plans.get(s) or plans.setdefault(s, plan(s))
        sides = sides.copy()
        # the arithmetic works in place where it can: at n = 1,000 a fresh
        # temporary of a few hundred kB costs more in page faults than in flops
        if width == 2:
            # Pr[row uv pays] = x_u + x_v - c x_u x_v, and d/dx_u = w (1 - c x_v)
            sides[:, :n] = X
            xu, xv = read = sides.ravel()[at]
            pays, uv = xu + xv, c * xu
            uv *= xv
            pays -= uv
            pays = pays.reshape(s, len(weights))
            terms = np.multiply(read, c, out=read)
            np.subtract(1.0, terms, out=terms)
            terms *= row_weights
            (bins_u, bins_v), (terms_u, terms_v) = bins, terms
            grad = np.bincount(bins_u, terms_v, s * (n + 2))
            grad += np.bincount(bins_v, terms_u, s * (n + 2))
        else:
            # Pr[row pays] = 1 - prod (1 - x) [- prod x under the cut rule], and
            # d/dx_u from the product of the others, prefix times suffix
            np.subtract(1.0, X, out=sides[:s, :n])
            if cut:
                sides[s:, :n] = X
            run = sides.ravel()[at]
            # running products in place, a slab of all sides and rows per step:
            # np.cumprod's products in its order, several times faster at n = 1,000
            for i in range(2, width + 1):
                np.multiply(run[i], run[i - 1], out=run[i])
            products, others = run[width, 0], run[:width, 0] * run[width - 1 :: -1, 1]
            if cut:
                pays = 1.0 - products[s:] - products[:s]
                others = np.subtract(others[:, :s], others[:, s:], out=others[:, :s])
            else:
                pays = 1.0 - products
            # written as (points, rows, width), the order of the bins, so each
            # bin sums its terms in row order
            terms = np.empty((s, len(weights), width))
            np.multiply(others, row_weights, out=terms.transpose(2, 0, 1))
            grad = np.bincount(bins, terms.ravel(), s * (n + 2))
        # one dot product per point: a matrix-vector product rounds each differently
        return np.fromiter(map(weights.dot, pays), float, s), grad.reshape(s, n + 2)[:, :n]

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
