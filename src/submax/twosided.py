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

The output says every step's branch: X only grows and Y only shrinks, so
u_i took the X branch exactly when it is in X_n.  X_i is X_n's share of
the first i elements, and Y_i is X_i plus every element after them.
"""

from __future__ import annotations

from .setfn import SetFunction
from .subsets import full_mask

# relative width of the a == b band that counts as a tie
TIE_TOL = 1e-12


def run_two_sided(f: SetFunction) -> int:
    """Run the greedy over the elements 0, ..., n-1 of f's ground set;
    returns the bitmask of X_n.  To walk a row family in another order,
    relabel its rows first (``restrict_function(f, order)`` keeping all n
    elements)."""
    n = f.n
    x_mask = 0
    y_mask = full_mask(n)
    fx = f.eval(x_mask)
    fy = f.eval(y_mask)
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
        else:
            y_mask &= ~bit
            fy = fyu
    return x_mask
