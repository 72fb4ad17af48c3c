"""submax: maximization of non-negative (symmetric) submodular set functions.

Fractional maximization over down-monotone polytopes via measured continuous
greedy, equality-cardinality maximization via a coupled double ascent,
deterministic unconstrained two-sided greedy, random-assignment submodular
welfare, multilinear-extension machinery, pipage rounding, and brute-force
oracles that make every guarantee checkable at desk scale.
"""

from .dmcg import run_dmcg, solve_direction
from .mcg import Trajectory, run_mcg
from .multilinear import MultilinearEvaluator
from .oracle import brute_cardinality, brute_polytope_integral, brute_unconstrained
from .pipage import pipage_round
from .polytope import (
    CardinalityPolytope,
    KnapsackPolytope,
    PartitionPolytope,
    Polytope,
    horizon,
    preprocess_reduction1,
)
from .setfn import (
    SetFunction,
    graph_cut_function,
    hardness_instance,
    restrict_function,
)
from .twosided import run_two_sided
from .welfare import (
    WelfareInstance,
    brute_force_welfare,
    simulate_random_assign,
    welfare_ratio,
)

__version__ = "0.1.0"
