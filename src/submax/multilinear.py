"""Multilinear extension F(x) = E[f(R(x))]: seeded sampling, the closed form
and partial derivatives.

R(x) includes each element u independently with probability x_u; a point x
is a plain float array of length n.  :class:`MultilinearEvaluator` is the
one object through which a run reads F: the caller builds it once from f
and an :class:`Estimator` and hands it to the ascent and to pipage
rounding.  ``value`` gives F and ``value_and_partials`` F with its gradient,
both from one of two backends, which the constructor picks:

* ``"sampled"`` when the estimator sets ``samples``: f is averaged over that
  many seeded draws R, with common random numbers for coupled queries.  F
  looks up the draws, and a gradient the draws and each R with one element
  flipped, an (n + 1, samples) lookup.  Every lookup goes through the
  evaluator's memo, a direct-mapped table of 2^min(n, 16) slots (at most
  1 MB whatever the run's length): the oracle is asked only for the sets
  whose slot holds another, each once per lookup.  Up to n = 16 the slot is
  the mask itself, so an evaluator never asks for a set twice; above, it is
  the top 16 bits of a Fibonacci hash and a colliding set evicts the older
  one.  A set has one value in any lookup, so every F, gradient and spread
  is the one over all the draws, bit for bit, and only the oracle call count
  depends on the memo.  Each query names its stream, a path under the
  estimator's seed that each caller leads with its own tag from ``rng``.
  The ascent evaluates one gradient per side at the start, after each
  step's update and after each reset, and the next step reads the latest
  (see ``mcg.ascend``);
* ``"closed_form"`` when F is exact (``samples`` is None): f's
  ``multilinear`` hook (graph and hypergraph cuts, coverage, and their
  restrictions) gives exact F and gradient in time polynomial in the
  instance size, with no oracle queries.  An f without the hook has no
  exact backend and needs ``samples``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .reports import mean_and_sigma
from .rng import substream
from .setfn import SetFunction
from .subsets import MAX_MASK_BITS, masks_from_bits

# a point whose every coordinate lies this close to 0 or 1 is a set
_INTEGRAL_TOL = 1e-12

# a sampled evaluator's memo has 2^min(n, _MEMO_BITS) slots: at most 1 MB of
# keys and values, whatever the number of steps
_MEMO_BITS = 16
# Fibonacci hashing: above _MEMO_BITS elements a mask's slot is the top bits
# of mask * 2^64 / golden ratio (mod 2^64), which spreads nearby masks apart
_FIB = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class Estimator:
    """How to evaluate F: exactly when ``samples`` is None (f's closed form),
    else as the mean of f over ``samples`` draws seeded by ``seed``.  The
    paper leaves the sample schedule open, so the caller sets it."""

    samples: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be at least 1")


class MultilinearEvaluator:
    """Evaluates F, its gradient, and coupled quantities for one set function.

    ``backend`` names how (see the module docstring).  The closed form
    queries no oracle.  The sampled backend derives all draws from
    counter-indexed substreams of the estimator seed, on the path the caller
    passes as ``stream``, and asks the oracle through the evaluator's memo,
    so it needs int64 masks: n <= MAX_MASK_BITS.  An f with no
    ``multilinear`` hook and no ``samples`` is a ValueError.
    """

    def __init__(self, f: SetFunction, est: Estimator | None = None):
        self.f = f
        self.est = est or Estimator()
        self.n = f.n
        if self.est.samples is None:
            if f.multilinear is None:
                raise ValueError(f"F of this {f.kind} function has no exact backend: give f a multilinear hook "
                                 "(closed-form F and gradient), or sample F with Estimator(samples=...)")
            self.backend = "closed_form"
            return
        self.backend = "sampled"
        if self.n > MAX_MASK_BITS:
            raise ValueError(f"sampled estimates pack sets into int64 masks: n must be <= {MAX_MASK_BITS}, got {self.n}")
        slots = 1 << min(self.n, _MEMO_BITS)
        self._keys = np.full(slots, -1, dtype=np.int64)  # -1: empty
        self._vals = np.empty(slots)
        self._flips = masks_from_bits(np.eye(self.n, dtype=bool))[:, None]  # row u is the set {u}

    def table(self) -> np.ndarray:
        """f's value table (``SetFunction.table``)."""
        return self.f.table()

    # -- sampled kernels ----------------------------------------------------
    def _sample(self, x: np.ndarray, stream: tuple[int, ...]) -> np.ndarray:
        """The ``samples`` draws R(x) on ``stream``, as int64 masks."""
        return masks_from_bits(substream(self.est.seed, *stream).random((self.est.samples, self.n)) < x)

    def _slots(self, masks: np.ndarray) -> np.ndarray:
        if self.n <= _MEMO_BITS:
            return masks
        return ((masks.astype(np.uint64) * _FIB) >> np.uint64(64 - _MEMO_BITS)).astype(np.intp)

    def _ask(self, masks: np.ndarray) -> np.ndarray:
        """f on an int64 mask array of any shape, through the memo: the sets
        whose slot holds another go to the oracle in one ascending batch, each
        once, and then take their slots (of colliding new sets, one keeps the
        slot)."""
        slots = self._slots(masks)
        out = self._vals[slots]
        miss = self._keys[slots] != masks
        if miss.any():
            new, where = np.unique(masks[miss], return_inverse=True)
            vals = self.f.eval_many(new)
            out[miss] = vals[where]
            at = self._slots(new)
            self._keys[at] = new
            kept = self._keys[at] == new
            self._vals[at[kept]] = vals[kept]
        return out

    def _value_sampled(self, x: np.ndarray, stream: tuple[int, ...]) -> float:
        if np.all(np.minimum(x, 1.0 - x) <= _INTEGRAL_TOL):
            # integral point: F(1_S) = f(S), no sampling needed
            return float(self._ask(np.array([masks_from_bits(x > 0.5)]))[0])
        return float(self._ask(self._sample(x, stream)).mean())

    def _grad_sampled(self, x: np.ndarray, stream: tuple[int, ...]) -> tuple[float, np.ndarray, np.ndarray]:
        """F and dF/dx_u = mean f(R + u) - f(R - u) over the sampled sets R; one of
        the two is R, so one (n + 1, samples) lookup holds each draw R and, in
        row u, R with u flipped.  The memo asks the oracle for the sets of it
        that it does not hold, each once: at most (n + 1) x samples queries,
        and none for a lookup it holds whole."""
        draws = self._sample(x, stream)
        vals = self._ask(np.concatenate([draws[None, :], draws ^ self._flips]))
        diffs = np.where((draws & self._flips) != 0, vals[0] - vals[1:], vals[1:] - vals[0])  # R is R + u or R - u
        return float(vals[0].mean()), *mean_and_sigma(diffs)

    # -- public -------------------------------------------------------------
    def value(self, x, stream: tuple[int, ...] = ()) -> float:
        """F(x) at a point x of [0,1]^n (an array or a sequence)."""
        x = np.asarray(x, dtype=float)
        if self.backend == "sampled":
            return self._value_sampled(x, stream)
        return self.f.multilinear(x)[0]

    def value_and_partials(self, x, stream: tuple[int, ...] = ()):
        """(F(x), gradient, sigma) where sigma is None when F is exact and the
        per-coordinate standard error of the gradient estimate otherwise."""
        x = np.asarray(x, dtype=float)
        if self.backend == "sampled":
            return self._grad_sampled(x, stream)
        return *self.f.multilinear(x), None
