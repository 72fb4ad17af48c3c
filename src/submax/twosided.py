"""Deterministic two-sided greedy for unconstrained maximization.

One pass over the elements maintains a growing set X and a shrinking set Y
(X_i subseteq Y_i throughout).  Element u_i joins X when its add-marginal
a_i is at least its remove-marginal b_i from Y, otherwise it leaves Y.  The
two tie when they differ by at most TIE_TOL times the largest of the four
values they come from, and ties go to the X branch, so the last bits of how
an oracle sums its weights cannot decide the branch.  Two fresh oracle
marginals per element, so the whole run costs 2n + 2 oracle calls.  For
symmetric objectives the output is a 1/2-approximation; for general
non-negative submodular objectives it is 1/3.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .reports import CheckReport
from .setfn import SetFunction
from .subsets import as_mask, full_mask

# relative width of the a == b band that counts as a tie
TIE_TOL = 1e-12


@dataclass(frozen=True)
class GreedyStep:
    i: int  # the step's element is i - 1
    a: float
    b: float
    branch: str  # "X": u_i joined X; "Y": it left Y


@dataclass
class GreedyTrace:
    n: int
    steps: list[GreedyStep] = field(default_factory=list)


def run_two_sided(f: SetFunction) -> tuple[int, GreedyTrace]:
    """Run the greedy over the elements 0, ..., n-1 of f's ground set;
    returns (X_n bitmask, trace).  To walk a row family in another order,
    relabel its rows first (``restrict_function(f, order)`` keeping all n
    elements)."""
    n = f.n
    x_mask = 0
    y_mask = full_mask(n)
    fx = f.eval(x_mask)
    fy = f.eval(y_mask)
    trace = GreedyTrace(n)
    for u in range(n):
        bit = 1 << u
        fxu = f.eval(x_mask | bit)
        fyu = f.eval(y_mask & ~bit)
        a = fxu - fx
        b = fyu - fy
        tie_band = TIE_TOL * max(abs(fx), abs(fy), abs(fxu), abs(fyu))
        if a >= b - tie_band:
            x_mask |= bit
            fx = fxu
            branch = "X"
        else:
            y_mask &= ~bit
            fy = fyu
            branch = "Y"
        trace.steps.append(GreedyStep(u + 1, a, b, branch))
    return x_mask, trace


def check_loss_gain(f: SetFunction, trace: GreedyTrace, opt) -> CheckReport:
    """Per-iteration ledger behind the 1/2 guarantee: with
    OPT_i = (OPT | X_i) & Y_i and the complement analogue, the loss
    [f(OPT_{i-1}) - f(OPT_i)] + [f(cOPT_{i-1}) - f(cOPT_i)] never exceeds the
    gain [f(X_i) - f(X_{i-1})] + [f(Y_i) - f(Y_{i-1})].  X_i and Y_i are
    rebuilt from the trace's branches.  Also pins the endpoints OPT_0 = OPT
    and OPT_n = X_n."""
    n = trace.n
    fm = full_mask(n)
    opt_mask = as_mask(opt, n)
    copt_mask = fm ^ opt_mask

    x_prev, y_prev = 0, fm
    opt_prev = (opt_mask | x_prev) & y_prev
    copt_prev = (copt_mask | x_prev) & y_prev
    endpoint_start = opt_prev == opt_mask and copt_prev == copt_mask

    worst = -np.inf
    fx_prev, fy_prev = f.eval(x_prev), f.eval(y_prev)
    f_opt_prev, f_copt_prev = f.eval(opt_prev), f.eval(copt_prev)
    for step in trace.steps:
        bit = 1 << (step.i - 1)
        x_cur, y_cur = (x_prev | bit, y_prev) if step.branch == "X" else (x_prev, y_prev & ~bit)
        opt_cur = (opt_mask | x_cur) & y_cur
        copt_cur = (copt_mask | x_cur) & y_cur
        fx_cur, fy_cur = f.eval(x_cur), f.eval(y_cur)
        f_opt_cur, f_copt_cur = f.eval(opt_cur), f.eval(copt_cur)
        loss = (f_opt_prev - f_opt_cur) + (f_copt_prev - f_copt_cur)
        gain = (fx_cur - fx_prev) + (fy_cur - fy_prev)
        worst = max(worst, loss - gain)
        x_prev, y_prev = x_cur, y_cur
        fx_prev, fy_prev = fx_cur, fy_cur
        f_opt_prev, f_copt_prev = f_opt_cur, f_copt_cur
        opt_prev, copt_prev = opt_cur, copt_cur
    endpoint_final = opt_prev == x_prev and copt_prev == x_prev and x_prev == y_prev
    passed = bool(worst <= 1e-9) and endpoint_start and endpoint_final
    return CheckReport(
        "loss-gain ledger",
        passed,
        details={
            "worst_loss_minus_gain": float(worst),
            "endpoints_ok": endpoint_start and endpoint_final,
        },
    )


def trace_csv(trace: GreedyTrace) -> str:
    """Columns: i, a_i, b_i, branch."""
    buf = io.StringIO()
    buf.write("i,a,b,branch\n")
    for s in trace.steps:
        buf.write(f"{s.i},{s.a!r},{s.b!r},{s.branch}\n")
    return buf.getvalue()
