"""Multilinear extension F(x) = E[f(R(x))]: exact evaluation, seeded sampling,
partial derivatives, and the executable lemma checks built on them.

R(x) includes each element u independently with probability x_u.
:class:`MultilinearEvaluator` is the one entry point: ``value`` for F and
``value_and_partials`` for F with its gradient.  Both come from one of three
backends, picked by :func:`backend` in this order:

* ``"sampled"`` when the estimator asks for it: f is averaged over seeded
  draws, with common random numbers for coupled queries;
* ``"closed_form"`` in exact mode when f carries a ``multilinear`` hook (graph
  and hypergraph cuts, coverage, modular functions, and their sums,
  complements and restrictions): exact F and gradient in time polynomial in
  the instance size, with no oracle queries;
* ``"table"`` otherwise in exact mode: all 2^n values are tabulated once
  (2^n oracle calls, so n <= ``EXACT_TABLE_LIMIT``) and folded one
  coordinate at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .reports import CheckReport, mean_and_sigma
from .rng import substream
from .setfn import SetFunction, complement_function
from .subsets import as_mask, bits_from_masks, full_mask, masks_from_bits

_CLAMP_TOL = 1e-12

# largest n whose 2^n value table the exact backend builds
EXACT_TABLE_LIMIT = 16


class Point:
    """A fractional point in [0,1]^n (coordinates clamped within 1e-12) with
    its mass |x|."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.array(coords, dtype=float)
        if arr.ndim != 1:
            raise ValueError("a point is a flat coordinate vector")
        if arr.size and (arr.min() < -_CLAMP_TOL or arr.max() > 1 + _CLAMP_TOL):
            raise ValueError("coordinates must lie in [0,1] (tolerance 1e-12)")
        np.clip(arr, 0.0, 1.0, out=arr)
        self.coords = arr

    # -- constructors -------------------------------------------------------
    @classmethod
    def zeros(cls, n: int) -> "Point":
        return cls(np.zeros(n))

    @classmethod
    def ones(cls, n: int) -> "Point":
        return cls(np.ones(n))

    @classmethod
    def indicator(cls, subset, n: int) -> "Point":
        return cls(bits_from_masks(as_mask(subset, n), n))

    @property
    def n(self) -> int:
        return self.coords.size

    def mass(self) -> float:
        """|x| = sum of coordinates."""
        return float(self.coords.sum())

    def __repr__(self) -> str:
        return f"Point({np.array2string(self.coords, precision=6, separator=', ')})"


@dataclass(frozen=True)
class Estimator:
    """How to evaluate F: exactly (closed form, or a value table for
    n <= EXACT_TABLE_LIMIT) or by seeded sampling.

    ``samples`` defaults to 10*n^2 per evaluation; the paper leaves the
    sample schedule open, so this is a toolkit default, not a mandate.
    """

    mode: str = "exact"
    samples: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "sampled"):
            raise ValueError("mode must be 'exact' or 'sampled'")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be at least 1")

    def resolved_samples(self, n: int) -> int:
        return self.samples if self.samples is not None else max(1, 10 * n * n)


def _as_array(x) -> np.ndarray:
    if isinstance(x, Point):
        return x.coords
    return np.asarray(x, dtype=float)


def backend(f: SetFunction, est: Estimator) -> str:
    """The backend that evaluates F for f under est: "sampled" if est asks
    for sampling, else "closed_form" if f has a multilinear hook, else
    "table" (the 2^n value-table fold)."""
    if est.mode == "sampled":
        return "sampled"
    return "closed_form" if f.multilinear is not None else "table"


class MultilinearEvaluator:
    """Evaluates F, its gradient, and coupled quantities for one set function.

    ``backend`` names how (see :func:`backend`).  The closed form queries no
    oracle, so a run on a family that has one counts no 2^n table in its
    oracle calls.  The table backend caches the full value table (2^n oracle
    calls, paid once, only when first needed) and computes F(x) in O(2^n)
    arithmetic by folding one coordinate at a time; the gradient comes from
    one extra backward sweep.  ``box_vertex_values`` always uses the table.
    Sampled mode derives all draws from counter-indexed substreams of the
    estimator seed.
    """

    def __init__(self, f: SetFunction, est: Estimator | None = None):
        self.f = f
        self.est = est or Estimator()
        self.n = f.n
        self.backend = backend(f, self.est)
        if self.backend == "table":
            self._check_table_size()
        self._table: np.ndarray | None = None

    # -- exact kernels ------------------------------------------------------
    def _check_table_size(self) -> None:
        if self.n > EXACT_TABLE_LIMIT:
            raise ValueError(f"the exact value table supports n <= {EXACT_TABLE_LIMIT}, got n={self.n}")

    def table(self) -> np.ndarray:
        if self._table is None:
            self._check_table_size()
            self._table = self.f.eval_many(np.arange(1 << self.n, dtype=np.int64))
        return self._table

    def _value_exact(self, x: np.ndarray) -> float:
        t = self.table()
        for xu in x:
            t2 = t.reshape(-1, 2)
            t = t2[:, 0] * (1.0 - xu) + t2[:, 1] * xu
        return float(t[0])

    def _value_and_grad_exact(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if self.backend == "closed_form":
            return self.f.multilinear(x)
        # forward fold keeps each intermediate table, backward pass is the
        # adjoint of the fold; together they give F and the full gradient in
        # O(2^n) arithmetic.
        stages = []
        t = self.table()
        for xu in x:
            stages.append(t)
            t2 = t.reshape(-1, 2)
            t = t2[:, 0] * (1.0 - xu) + t2[:, 1] * xu
        value = float(t[0])
        grad = np.empty(self.n)
        adj = np.ones(1)
        for u in range(self.n - 1, -1, -1):
            tu = stages[u].reshape(-1, 2)
            grad[u] = float(adj @ (tu[:, 1] - tu[:, 0]))
            nxt = np.empty((adj.size, 2))
            nxt[:, 0] = adj * (1.0 - x[u])
            nxt[:, 1] = adj * x[u]
            adj = nxt.reshape(-1)
        return value, grad

    def box_vertex_values(self, x) -> np.ndarray:
        """F at every vertex of the box {y : y <= x}; entry S is F(x * 1_S).

        Exact mode only.  The transform consumes one mask bit and emits one
        choice bit per coordinate, so the table stays at 2^n entries.
        """
        if self.est.mode != "exact":
            raise ValueError("box vertex enumeration requires the exact estimator")
        xa = _as_array(x)
        t = self.table()
        for u in range(self.n):
            low = 1 << u
            t3 = t.reshape(-1, 2, low)
            active = t3[:, 0, :] * (1.0 - xa[u]) + t3[:, 1, :] * xa[u]
            t = np.stack([t3[:, 0, :], active], axis=1).reshape(-1)
        return t

    def box_vertex_max(self, x) -> float:
        return float(self.box_vertex_values(x).max())

    # -- sampled kernels ----------------------------------------------------
    def _thresholds(self, stream: tuple[int, ...], samples: int) -> np.ndarray:
        return substream(self.est.seed, *stream).random((samples, self.n))

    def _sample_masks(self, x: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        return masks_from_bits(thresholds < x[None, :])

    def _value_sampled(self, x: np.ndarray, stream: tuple[int, ...]) -> float:
        if np.all(np.minimum(x, 1.0 - x) <= _CLAMP_TOL):
            # integral point: F(1_S) = f(S), no sampling needed
            return self.f.eval(int(masks_from_bits(x > 0.5)))
        samples = self.est.resolved_samples(self.n)
        masks = self._sample_masks(x, self._thresholds(stream, samples))
        return float(self.f.eval_many(masks).mean())

    def _grad_sampled(self, x: np.ndarray, stream: tuple[int, ...]) -> tuple[float, np.ndarray, np.ndarray]:
        """F from the sampled sets R, and dF/dx_u from f(R + u) - f(R - u),
        all evaluated as one (2n + 1, samples) oracle batch."""
        n, samples = self.n, self.est.resolved_samples(self.n)
        base = self._sample_masks(x, self._thresholds(stream, samples))
        unit = masks_from_bits(np.eye(n, dtype=bool))[:, None]  # row u is the set {u}
        vals = self.f.eval_many(np.concatenate([base[None, :], base | unit, base & ~unit]))
        diffs = vals[1 : n + 1] - vals[n + 1 :]
        sigma = diffs.std(axis=1, ddof=1) / math.sqrt(samples) if samples > 1 else np.zeros(n)
        return float(vals[0].mean()), diffs.mean(axis=1), sigma

    # -- public -------------------------------------------------------------
    def value(self, x, stream: tuple[int, ...] = ()) -> float:
        xa = _as_array(x)
        if self.backend == "sampled":
            return self._value_sampled(xa, stream)
        if self.backend == "closed_form":
            return self.f.multilinear(xa)[0]
        return self._value_exact(xa)

    def value_and_partials(self, x, stream: tuple[int, ...] = ()):
        """(F(x), gradient, sigma) where sigma is None in exact mode and the
        per-coordinate standard error of the gradient estimate otherwise."""
        xa = _as_array(x)
        if self.backend == "sampled":
            return self._grad_sampled(xa, stream)
        value, grad = self._value_and_grad_exact(xa)
        return value, grad, None


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def sample_set(x, rng: np.random.Generator) -> int:
    """One draw of R(x): each element included independently with prob x_u."""
    xa = _as_array(x)
    return int(masks_from_bits(rng.random(xa.size) < xa))


# ---------------------------------------------------------------------------
# executable lemma checks (exact mode, desk scale)
# ---------------------------------------------------------------------------


def check_lemma_general_properties(
    f: SetFunction, trials: int = 25, seed: int = 0, tol: float = 1e-9
) -> CheckReport:
    """Complement/multilinear identities on random points:

    (a) the extension of the complement oracle equals F(1_N - x);
    (b) for symmetric f, F(x) = F(1_N - x);
    (c) for z <= y <= x, F(x) - F(y) <= F(x-z) - F(y-z).
    """
    n = f.n
    ev = MultilinearEvaluator(f)
    ev_bar = MultilinearEvaluator(complement_function(f))
    rng = substream(seed, 0x1E44)
    worst = {"complement": 0.0, "symmetry": 0.0, "shift": 0.0}
    for _ in range(trials):
        x = rng.random(n)
        worst["complement"] = max(worst["complement"], abs(ev_bar.value(x) - ev.value(1.0 - x)))
        if f.symmetric:
            worst["symmetry"] = max(worst["symmetry"], abs(ev.value(x) - ev.value(1.0 - x)))
        trio = np.sort(rng.random((3, n)), axis=0)
        z, y, xx = trio[0], trio[1], trio[2]
        gap = (ev.value(xx) - ev.value(y)) - (ev.value(xx - z) - ev.value(y - z))
        worst["shift"] = max(worst["shift"], gap)
    passed = worst["complement"] <= tol and worst["symmetry"] <= tol and worst["shift"] <= tol
    details = dict(worst)
    details["symmetry_checked"] = f.symmetric
    return CheckReport("complement/shift identities", passed, details=details)


def check_union_bound_symmetric(f: SetFunction, x, S, tol: float = 1e-9) -> CheckReport:
    """F(1_S v x) >= f(S) - F(x), asserted only when x dominates its down-box:
    the precondition F(y) <= F(x) for all y <= x is verified at the box
    vertices, where a multilinear function attains its box extrema."""
    if not f.symmetric:
        raise ValueError("the union bound is stated for symmetric objectives")
    ev = MultilinearEvaluator(f)
    fx = ev.value(x)
    if ev.box_vertex_max(x) > fx + tol:
        return CheckReport(
            "symmetric union bound",
            True,
            status="precondition_unmet",
            details={"F(x)": fx, "box_max": ev.box_vertex_max(x)},
        )
    mask = as_mask(S, f.n)
    lhs = ev.value(np.maximum(_as_array(x), Point.indicator(mask, f.n).coords))
    rhs = f.eval(mask) - fx
    return CheckReport(
        "symmetric union bound",
        lhs >= rhs - tol,
        details={"lhs": lhs, "rhs": rhs, "slack": lhs - rhs},
    )


def check_linearization_bound(
    f: SetFunction,
    trials: int = 50,
    delta: float = 1e-3,
    c: float = 1.0,
    seed: int = 0,
) -> CheckReport:
    """First-order bound for nearby points |x_u - x'_u| <= delta:
    F(x') - F(x) >= grad(x) . (x' - x) - c n^3 delta^2 max_u f({u})."""
    n = f.n
    ev = MultilinearEvaluator(f)
    max_singleton = max(f.eval(1 << u) for u in range(n))
    budget = c * n**3 * delta**2 * max_singleton
    rng = substream(seed, 0x713)
    worst = -math.inf
    for _ in range(trials):
        x = rng.random(n)
        xp = np.clip(x + rng.uniform(-delta, delta, size=n), 0.0, 1.0)
        fx, grad, _ = ev.value_and_partials(x)
        deficit = grad @ (xp - x) - (ev.value(xp) - fx)  # must stay below budget
        worst = max(worst, deficit)
    return CheckReport(
        "linearization bound",
        worst <= budget + 1e-12,
        details={"worst_deficit": worst, "budget": budget, "delta": delta},
    )


def check_random_subset_bound(
    f: SetFunction,
    A=None,
    p: float = 0.5,
    trials: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """E[f(A(p))] >= (1-p) f(empty) + p f(A) within 4 sigma, where A(p) keeps
    each element of A independently with probability p."""
    n = f.n
    mask = full_mask(n) if A is None else as_mask(A, n)
    members = np.flatnonzero(bits_from_masks(mask, n))
    keep = np.zeros((trials, n), dtype=bool)
    keep[:, members] = substream(seed, 0xE0).random((trials, members.size)) < p
    masks = masks_from_bits(keep)
    est, sigma = mean_and_sigma(f.eval_many(masks))
    bound = (1.0 - p) * f.eval(0) + p * f.eval(mask)
    return CheckReport(
        "random subset value bound",
        est >= bound - 4.0 * sigma - 1e-12,
        details={"estimate": est, "bound": bound, "sigma": sigma, "p": p},
    )


def check_correlated_marginals_bound(
    f: SetFunction,
    p: float = 0.5,
    trials: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """E[f(R)] >= (1-p) f(empty) within 4 sigma for R with per-element
    marginals <= p.  R is built maximally correlated on purpose: one shared
    uniform threshold activates every element whose marginal exceeds it."""
    n = f.n
    rng = substream(seed, 0xC0 + 1)
    marginals = rng.random(n) * p  # each <= p
    shared = rng.random((trials, 1))
    masks = masks_from_bits(shared < marginals[None, :])
    est, sigma = mean_and_sigma(f.eval_many(masks))
    bound = (1.0 - p) * f.eval(0)
    return CheckReport(
        "correlated marginals bound",
        est >= bound - 4.0 * sigma - 1e-12,
        details={"estimate": est, "bound": bound, "sigma": sigma, "p": p},
    )
