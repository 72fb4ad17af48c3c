"""Executable lemma checks for the test suites: the structural and statistical
facts the guarantees rest on, each returning a :class:`CheckReport`.

* multilinear extension: the 2^n table fold (:func:`table_fold`), the
  reference hook that the closed forms are checked against and that
  test-only oracles without a closed form evaluate F with; the row
  family's closed form one point at a time
  (:func:`point_by_point_closed_form`), the reference of its stacked reads;
  the scaled spread of a sample (:func:`scaled_mean_and_sigma`); complement and
  shift identities, the symmetric
  union bound (with its down-box precondition checked at the box vertices),
  the first-order linearization bound, the random-subset sampling bounds, and
  the concavity of F along a nonnegative direction (the segment between the
  two points of a DMCG run);
* two-sided greedy: the per-step loss-gain ledger behind its 1/2
  guarantee and its decision rule, replayed from the output set
  (:func:`check_loss_gain`);
* ascent trajectories: feasibility under P, the coupled state of a DMCG
  run and its coordinate growth cap, read post hoc from the points a
  ``RecordingEvaluator`` kept (a run keeps only its final points); they are
  the reference for online checks a run may one day make;
* welfare: the subsampled prefix-union bounds and the union-sampling bounds;
* oracle audits: submodularity, non-negativity and symmetry, exhaustive at
  desk scale.

None of these runs at run time: a run reads none of them, so the library
ships none.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import combinations
from typing import Any

import numpy as np

from conftest import complement_function, indicator
from submax.mcg import Trajectory
from submax.multilinear import MultilinearEvaluator
from submax.polytope import SLACK, Polytope, horizon
from submax.reports import mean_and_sigma
from submax.rng import substream
from submax.setfn import SetFunction
from submax.subsets import as_mask, bits_from_masks, full_mask, masks_from_bits
from submax.twosided import TIE_TOL
from submax.welfare import Allocation, WelfareInstance

# largest n whose 2^n sets the symmetry audit evaluates
SYMMETRY_AUDIT_LIMIT = 14
# the loss-gain ledger's tolerance, relative to the largest |f| it reads
LEDGER_TOL = 1e-12


@dataclass
class CheckReport:
    """Outcome of one executable check.

    ``status`` is "ok" for a completed check, or a short tag such as
    "precondition_unmet" when the check could not be asserted.
    """

    name: str
    passed: bool
    status: str = "ok"
    details: dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, default=float)


# ---------------------------------------------------------------------------
# the table fold: exact F from the value table
# ---------------------------------------------------------------------------


def table_fold(f: SetFunction):
    """A ``multilinear`` hook for f read off its value table
    (``SetFunction.table``: 2^n oracle calls once, so n <= ``TABLE_LIMIT``):
    F(x) folds the table one coordinate at a time, and the gradient is one
    backward sweep, the adjoint of the fold, in O(2^n) arithmetic, at each
    point of the stack the hook is given.  Attach it with
    ``f.multilinear = table_fold(f)``."""

    def multilinear(X):
        folds = [fold(x) for x in np.asarray(X, dtype=float)]
        return np.array([value for value, _ in folds]), np.array([grad for _, grad in folds]).reshape(len(X), f.n)

    def fold(x):
        stages = []  # the table before each coordinate's fold
        t = f.table()
        for xu in x:
            stages.append(t)
            t2 = t.reshape(-1, 2)
            t = t2[:, 0] * (1.0 - xu) + t2[:, 1] * xu
        grad = np.empty(f.n)
        adj = np.ones(1)
        for u in range(f.n - 1, -1, -1):
            tu = stages[u].reshape(-1, 2)
            grad[u] = float(adj @ (tu[:, 1] - tu[:, 0]))
            nxt = np.empty((adj.size, 2))
            nxt[:, 0] = adj * (1.0 - x[u])
            nxt[:, 1] = adj * x[u]
            adj = nxt.reshape(-1)
        return float(t[0]), grad

    return multilinear


def point_by_point_closed_form(f: SetFunction):
    """A ``multilinear`` hook for a row family f that reads one point at a
    time with leave-one-out products, a prefix and a suffix ``cumprod`` per
    point: the closed form before it read stacks.  f's own hook must give
    each point's F and gradient bit for bit."""
    incidence, weights, cut = f._rows
    n, c = f.n, 2.0 if cut else 1.0

    def leave_one_out(vals):
        shape = (*vals.shape[:-1], vals.shape[-1] + 1)
        prefix = np.ones(shape)
        np.cumprod(vals, axis=-1, out=prefix[..., 1:])
        suffix = np.ones(shape)
        np.cumprod(vals[..., ::-1], axis=-1, out=suffix[..., -2::-1])
        return prefix[..., -1], prefix[..., :-1] * suffix[..., 1:]

    def point(x):
        if incidence.shape[1] == 2:
            u, v = incidence.T.copy()
            xp = np.zeros(n + 2)
            xp[:n] = x
            xu, xv = xp[u], xp[v]
            grad = np.bincount(u, weights * (1.0 - c * xv), n + 2)
            grad += np.bincount(v, weights * (1.0 - c * xu), n + 2)
            return float(weights @ (xu + xv - c * xu * xv)), grad[:n]
        sides = np.ones((1 + cut, n + 2))
        sides[0, :n], sides[1:, :n], sides[1:, n + 1] = 1.0 - x, x, 0.0
        products, others = leave_one_out(sides[:, incidence])
        if cut:
            pays, others = 1.0 - products[1] - products[0], others[0] - others[1]
        else:
            pays, others = 1.0 - products[0], others[0]
        grad = np.bincount(incidence.ravel(), (weights[:, None] * others).ravel(), n + 2)
        return float(weights @ pays), grad[:n]

    def multilinear(X):
        points = [point(x) for x in np.asarray(X, dtype=float)]
        return np.array([value for value, _ in points]), np.array([grad for _, grad in points]).reshape(len(X), n)

    return multilinear


def scaled_mean_and_sigma(samples):
    """Reference ``reports.mean_and_sigma``: every row's deviations are
    divided by the power of two 2^(e - 1) <= m < 2^e of its largest |x| = m
    before they are squared, and the standard deviation is multiplied back.
    The shipped one takes the plain formula where that gives the same bits
    and must equal this one everywhere."""
    arr = np.asarray(samples, dtype=float)
    size = arr.shape[-1]
    mean = arr.mean(axis=-1)
    if size > 1:
        scale = np.ldexp(1.0, np.frexp(np.maximum(arr.max(axis=-1), -arr.min(axis=-1)))[1] - 1)
        dev = arr - mean[..., None]
        dev /= scale[..., None]
        sigma = np.sqrt(np.square(dev, out=dev).sum(axis=-1) / (size - 1)) / math.sqrt(size) * scale
    else:
        sigma = np.zeros_like(mean)
    return (float(mean), float(sigma)) if arr.ndim == 1 else (mean, sigma)


# ---------------------------------------------------------------------------
# box vertices of the multilinear extension
# ---------------------------------------------------------------------------


def box_vertex_values(f: SetFunction, x) -> np.ndarray:
    """F at every vertex of the box {y : y <= x}; entry S is F(x * 1_S).

    Built from the exact value table of f (so n <= TABLE_LIMIT).  The
    transform consumes one mask bit and emits one choice bit per coordinate,
    so the table stays at 2^n entries.
    """
    xa = np.asarray(x, dtype=float)
    t = f.table()
    for u in range(f.n):
        low = 1 << u
        t3 = t.reshape(-1, 2, low)
        active = t3[:, 0, :] * (1.0 - xa[u]) + t3[:, 1, :] * xa[u]
        t = np.stack([t3[:, 0, :], active], axis=1).reshape(-1)
    return t


def box_vertex_max(f: SetFunction, x) -> float:
    return float(box_vertex_values(f, x).max())


# ---------------------------------------------------------------------------
# multilinear-extension lemmas (exact mode, desk scale)
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
    box_max = box_vertex_max(f, x)
    if box_max > fx + tol:
        return CheckReport(
            "symmetric union bound",
            True,
            status="precondition_unmet",
            details={"F(x)": fx, "box_max": box_max},
        )
    mask = as_mask(S, f.n)
    lhs = ev.value(np.maximum(np.asarray(x, dtype=float), indicator(mask, f.n)))
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


def check_concave_segment(f: SetFunction, y1, y2, grid: int = 101, tol: float = 1e-9) -> CheckReport:
    """Samples r(x) = F(y1 + x (y2 - y1)) on a grid: r must be concave
    (second differences <= tol) and everywhere >= min(r(0), r(1)) - tol."""
    a, b = np.asarray(y1, dtype=float), np.asarray(y2, dtype=float)
    if (a > b + 1e-12).any():
        raise ValueError("requires y1 <= y2 coordinate-wise")
    ev = MultilinearEvaluator(f)
    ts = np.linspace(0.0, 1.0, grid)
    r = np.array([ev.value(a + t * (b - a)) for t in ts])
    second = r[:-2] - 2.0 * r[1:-1] + r[2:]
    concave_ok = bool((second <= tol).all()) if grid >= 3 else True
    floor = min(r[0], r[-1])
    floor_ok = bool((r >= floor - tol).all())
    return CheckReport(
        "segment concavity",
        concave_ok and floor_ok,
        details={
            "max_second_difference": float(second.max()) if grid >= 3 else 0.0,
            "min_vs_endpoints": float((r - floor).min()),
        },
    )


# ---------------------------------------------------------------------------
# two-sided greedy
# ---------------------------------------------------------------------------


def check_loss_gain(f: SetFunction, out: int, opt) -> CheckReport:
    """Per-step ledger behind two-sided greedy's 1/2 guarantee, replayed
    from its output ``out`` = X_n: u_i took the X branch exactly when it is
    in X_n, so X_i is X_n's share of the first i elements and Y_i is X_i
    plus every element after them.  With OPT_i = (OPT | X_i) & Y_i and the
    complement analogue, the loss [f(OPT_{i-1}) - f(OPT_i)] +
    [f(cOPT_{i-1}) - f(cOPT_i)] never exceeds the gain [f(X_i) - f(X_{i-1})]
    + [f(Y_i) - f(Y_{i-1})], within ``LEDGER_TOL`` times the largest |f| the
    check read (``details["tolerance"]``), so scaling f keeps the verdict.
    Also pins the endpoint OPT_n = cOPT_n = X_n = Y_n = out (OPT_0 = OPT, as
    OPT lies in N), and the decision rule: u_i is in out exactly when
    a_i >= b_i - TIE_TOL times the largest of the four values they come
    from, where a_i = f(X_{i-1} + u_i) - f(X_{i-1}) and
    b_i = f(Y_{i-1} - u_i) - f(Y_{i-1}).  ``details["steps"]`` lists every
    (a_i, b_i)."""
    n = f.n
    fm = full_mask(n)
    opt_mask = as_mask(opt, n)
    copt_mask = fm ^ opt_mask
    x, y = 0, fm
    fx, fy, f_opt, f_copt = (f.eval(m) for m in (x, y, opt_mask, copt_mask))
    largest = max(abs(fx), abs(fy), abs(f_opt), abs(f_copt))
    worst = -math.inf
    steps, rule_ok = [], True
    for u in range(n):
        bit = 1 << u
        fxu, fyu = f.eval(x | bit), f.eval(y & ~bit)
        a, b = fxu - fx, fyu - fy
        steps.append((a, b))
        took_x = bool(out & bit)
        rule_ok &= took_x == (a >= b - TIE_TOL * max(abs(fx), abs(fy), abs(fxu), abs(fyu)))
        if took_x:
            x, fx = x | bit, fxu
        else:
            y, fy = y & ~bit, fyu
        f_opt_cur, f_copt_cur = f.eval((opt_mask | x) & y), f.eval((copt_mask | x) & y)
        loss = (f_opt - f_opt_cur) + (f_copt - f_copt_cur)
        worst = max(worst, loss - (a if took_x else b))  # one side moved, so the gain is a or b
        f_opt, f_copt = f_opt_cur, f_copt_cur
        largest = max(largest, abs(fxu), abs(fyu), abs(f_opt), abs(f_copt))
    endpoints_ok = x == y == out and (opt_mask | x) & y == (copt_mask | x) & y == x
    tolerance = LEDGER_TOL * largest
    return CheckReport(
        "loss-gain ledger",
        bool(worst <= tolerance) and endpoints_ok and rule_ok,
        details={
            "worst_loss_minus_gain": float(worst),
            "tolerance": tolerance,
            "endpoints_ok": endpoints_ok,
            "rule_ok": rule_ok,
            "steps": steps,
        },
    )


# ---------------------------------------------------------------------------
# trajectory invariants
# ---------------------------------------------------------------------------


def _with_points(traj: Trajectory, ys: list) -> zip:
    """The steps of ``traj`` paired with ``ys``, every side's point after
    each step (``RecordingEvaluator.steps``), one entry per step."""
    if len(ys) != len(traj.steps):
        raise ValueError(f"{len(ys)} recorded points for {len(traj.steps)} steps")
    return zip(traj.steps, ys)


def check_feasibility_invariants(traj: Trajectory, ys: list, P: Polytope) -> CheckReport:
    """Scaled membership y(t)/t in P at every step, plus plain membership
    y(t) in P after step i whenever t <= horizon(P, i), the discrete horizon
    of i steps (steps of width delta <= horizon(P, i) / i keep y inside P)."""
    bad: dict[str, float] = {}
    for i, (step, (y,)) in enumerate(_with_points(traj, ys), start=1):
        t = step.t_end
        if not P.membership(y / t):
            bad.setdefault("scaled_membership_t", t)
        if t <= horizon(P, i) + 1e-15 and not P.membership(y):
            bad.setdefault("membership_t", t)
    return CheckReport(
        "trajectory feasibility",
        not bad,
        details={"horizon": horizon(P, len(traj.steps)), "T": traj.T, **bad},
    )


def check_y_properties(traj: Trajectory, ys: list, k: int) -> CheckReport:
    """Coupled-state invariants of a ``run_dmcg`` trajectory: both points
    stay in the cube, y1 <= y2 at every step, and at t = T the masses of the
    final points bracket k, each within SLACK."""
    bad: dict[str, float] = {}
    for step, (y1, y2) in _with_points(traj, ys):
        if y1.min() < -SLACK or y1.max() > 1 + SLACK:
            bad.setdefault("y1_outside_cube_t", step.t_end)
        if y2.min() < -SLACK or y2.max() > 1 + SLACK:
            bad.setdefault("y2_outside_cube_t", step.t_end)
        if (y1 > y2 + SLACK).any():
            bad.setdefault("ordering_violated_t", step.t_end)
    y1, y2 = traj.ys
    m1, m2 = float(y1.sum()), float(y2.sum())
    if m1 > k + SLACK:
        bad["final_mass1"] = m1
    if m2 < k - SLACK:
        bad["final_mass2"] = m2
    return CheckReport("dual state invariants", not bad, details=bad)


def check_max_y(traj: Trajectory, ys: list) -> CheckReport:
    """Per-coordinate cap max(y1_u, 1 - y2_u) <= 1 - (1 - delta)^(t/delta),
    within SLACK."""
    worst = -math.inf
    for idx, (_, (y1, y2)) in enumerate(_with_points(traj, ys), start=1):
        cap = 1.0 - (1.0 - traj.delta) ** idx
        reach = max(float(y1.max()), float(1.0 - y2.min()))
        worst = max(worst, reach - cap)
    return CheckReport("coordinate growth cap", worst <= SLACK, details={"worst_excess": worst})


# ---------------------------------------------------------------------------
# welfare sampling lemmas
# ---------------------------------------------------------------------------


def allocation_total(allocation: Allocation) -> float:
    """Sum of the players' utilities, one oracle call per bundle."""
    return float(sum(allocation.instance.utility.eval(p) for p in allocation.parts))


def check_partial_union_bounds(
    inst: WelfareInstance,
    optimal: Allocation,
    trials: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """Monte-Carlo audit of the subsampled prefix-union bound: with T_i the
    union of i optimal bundles in random order, each prefix subsampled at
    rate 1/k satisfies E[f(T_i(1/k))] >= [(k^2-i)/(k(k-1)) - (1-1/k)^(i-1)]
    * opt/k, for every 0 <= i <= k, within 4 sigma."""
    n, k = inst.utility.n, inst.k
    if k < 2:
        raise ValueError("requires k >= 2")
    opt_value = allocation_total(optimal)
    # player owning each item under the optimal allocation
    owner = np.argmax(bits_from_masks(optimal.parts, n), axis=0)
    rng = substream(seed, 0x9C)
    ranks = np.argsort(rng.random((trials, k)), axis=1).argsort(axis=1)  # rank of each player
    keep = rng.random((trials, n)) < (1.0 / k)
    item_rank = ranks[:, owner]  # (trials, n)

    results = {}
    passed = True
    for i in range(k + 1):
        masks = masks_from_bits((item_rank < i) & keep)
        est, sigma = mean_and_sigma(inst.utility.eval_many(masks))
        bound = ((k**2 - i) / (k * (k - 1)) - (1.0 - 1.0 / k) ** (i - 1)) * opt_value / k
        ok = est >= bound - 4.0 * sigma - 1e-12
        passed = passed and ok
        results[f"i={i}"] = {"estimate": est, "bound": bound, "sigma": sigma, "ok": ok}
    return CheckReport("prefix-union subsampling bounds", passed, details=results)


def check_disjoint_unions(
    f: SetFunction,
    family: list[int],
    trials: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """For disjoint A_1..A_l and each 1 <= h <= l, the union of h sets drawn
    without replacement obeys E[f(union)] >= (1 - (h-1)/(l-1)) * avg f(A_i)
    within 4 sigma."""
    ell = len(family)
    if ell < 2:
        raise ValueError("requires at least 2 disjoint sets")
    union = 0
    for mask in family:
        if union & mask:
            raise ValueError("family must be disjoint")
        union |= mask
    avg = float(np.mean([f.eval(m) for m in family]))
    fam = np.array(family, dtype=np.int64)
    rng = substream(seed, 0xD15)
    picks = np.argsort(rng.random((trials, ell)), axis=1)  # random order of the family
    results = {}
    passed = True
    for h in range(1, ell + 1):
        masks = np.zeros(trials, dtype=np.int64)
        for j in range(h):
            masks |= fam[picks[:, j]]
        est, sigma = mean_and_sigma(f.eval_many(masks))
        bound = (1.0 - (h - 1) / (ell - 1)) * avg
        ok = est >= bound - 4.0 * sigma - 1e-12
        passed = passed and ok
        results[f"h={h}"] = {"estimate": est, "bound": bound, "sigma": sigma, "ok": ok}
    return CheckReport("disjoint-union sampling bound", passed, details=results)


def check_repeated_subsample_union(
    f: SetFunction,
    family: list[int],
    p: float,
    trials: int = 100_000,
    seed: int = 0,
) -> CheckReport:
    """For arbitrary (possibly overlapping) A_1..A_l, independently keeping
    each set's elements with probability p satisfies
    E[f(union A_i(p))] >= sum_{I subseteq [l]} p^|I| (1-p)^(l-|I|) f(union_{i in I} A_i)
    within 4 sigma; the right side is computed exactly."""
    ell = len(family)
    n = f.n
    rng = substream(seed, 0x4E9)
    members = bits_from_masks(family, n).astype(bool)
    kept = np.zeros((trials, n), dtype=bool)
    for row in members:
        kept[:, row] |= rng.random((trials, int(row.sum()))) < p
    est, sigma = mean_and_sigma(f.eval_many(masks_from_bits(kept)))
    bound = 0.0
    for chosen in bits_from_masks(np.arange(1 << ell), ell).astype(bool):
        size = int(chosen.sum())
        union = masks_from_bits(members[chosen].any(axis=0))
        bound += p**size * (1.0 - p) ** (ell - size) * f.eval(int(union))
    return CheckReport(
        "independent-subsample union bound",
        est >= bound - 4.0 * sigma - 1e-12,
        details={"estimate": est, "bound": bound, "sigma": sigma, "p": p, "l": ell},
    )


def check_sampled_union_bounds(f: SetFunction, trials: int = 100_000, seed: int = 0) -> CheckReport:
    """Both union-sampling bounds on randomly drawn families over f's ground
    set: (a) the disjoint-union draw bound for every draw count h, and
    (b) the independent-subsample union bound at p in {0.25, 0.5} for a
    possibly-overlapping family (right sides computed exactly)."""
    n = f.n
    if n < 4:
        raise ValueError("needs at least 4 elements to build a 2-part family")
    rng = substream(seed, 0xAC)
    ell = int(rng.integers(2, min(4, n // 2) + 1))
    perm = rng.permutation(n)
    chunks = np.array_split(perm[: 2 * (n // 2)], ell)
    disjoint = [as_mask(chunk, n) for chunk in chunks if len(chunk)]
    overlapping = [int(rng.integers(1, 1 << n)) for _ in range(int(rng.integers(2, 4)))]
    parts = [check_disjoint_unions(f, disjoint, trials, seed + 1)]
    for i, p in enumerate((0.25, 0.5)):
        parts.append(check_repeated_subsample_union(f, overlapping, p, trials, seed + 2 + i))
    return CheckReport(
        "union sampling bounds",
        all(r.passed for r in parts),
        details={r.name + (f" p={r.details['p']}" if "p" in r.details else ""): r.details for r in parts},
    )


# ---------------------------------------------------------------------------
# oracle audits
# ---------------------------------------------------------------------------


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
        table = f.table()
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


def audit_symmetry(f: SetFunction) -> bool:
    """True iff f(S) = f(N\\S) exactly on every set S: it reads f's value
    table (``SetFunction.table``), so n <= ``SYMMETRY_AUDIT_LIMIT``."""
    n = f.n
    if n > SYMMETRY_AUDIT_LIMIT:
        raise ValueError(f"the symmetry audit reads all 2^n sets: n must be <= {SYMMETRY_AUDIT_LIMIT}, got {n}")
    table = f.table()
    return bool(np.array_equal(table, table[np.arange(1 << n, dtype=np.int64) ^ np.int64(full_mask(n))]))


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
        return bool(f.table().min() >= -tol)
    rng = substream(seed, 0x2B3F)
    return all(f.eval(int(rng.integers(0, 1 << n))) >= -tol for _ in range(trials))
