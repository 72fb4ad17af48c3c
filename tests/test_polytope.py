import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polytope
from submax.polytope import (
    CardinalityPolytope,
    KnapsackPolytope,
    PartitionPolytope,
    horizon,
    polytope_from_json,
    preprocess_reduction1,
)
from submax.rng import substream
from submax.setfn import GroundSet


# ---------------------------------------------------------------------------
# linear maximization
# ---------------------------------------------------------------------------


def test_linear_maximize_cardinality_top_k():
    P = CardinalityPolytope(3, 2)
    I = P.linear_maximize([3.0, 1.0, 2.0])
    assert np.allclose(I, [1, 0, 1])
    assert np.dot(I, [3, 1, 2]) == 5.0


def test_linear_maximize_nonpositive_weights_returns_origin():
    for P in (CardinalityPolytope(3, 2), KnapsackPolytope([1.0, 2.0, 1.0], 2.0)):
        assert np.allclose(P.linear_maximize([-1.0, 0.0, -2.0]), 0.0)


def test_linear_maximize_tie_breaks_to_lowest_index():
    P = CardinalityPolytope(2, 1)
    assert np.allclose(P.linear_maximize([1.0, 1.0]), [1, 0])


def test_linear_maximize_partition():
    P = PartitionPolytope([[0, 1], [2, 3]], [1, 1])
    I = P.linear_maximize([0.5, 2.0, -1.0, 3.0])
    assert np.allclose(I, [0, 1, 0, 1])


def test_linear_maximize_knapsack_fractional():
    P = KnapsackPolytope([1.0, 2.0], 2.0)
    # densities 3 and 1: take item 0 fully, then half of item 1
    I = P.linear_maximize([3.0, 2.0])
    assert np.allclose(I, [1.0, 0.5])
    assert P.membership(I)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_cardinality():
    P = CardinalityPolytope(3, 2)
    assert P.membership([1.0, 1.0, 0.0])
    assert not P.membership([1.0, 1.0, 0.1])


def test_membership_knapsack_boundary():
    P = KnapsackPolytope([1.0, 2.0], 2.0)
    assert P.membership([0.5, 0.75])  # 0.5 + 1.5 = 2 exactly
    assert not P.membership([0.5, 0.80])


def test_membership_rejects_out_of_box():
    P = CardinalityPolytope(2, 2)
    assert not P.membership([1.2, 0.0])
    assert not P.membership([-0.1, 0.0])


# ---------------------------------------------------------------------------
# density / horizon
# ---------------------------------------------------------------------------


def test_densities():
    assert CardinalityPolytope(4, 1).density == 0.25
    assert PartitionPolytope([[0, 1, 2], [3]], [1, 1]).density == pytest.approx(1 / 3)
    assert KnapsackPolytope([1.0, 5.0], 2.0).density == pytest.approx(2 / 6)


def test_horizon_formula():
    P = CardinalityPolytope(2, 1)  # d = 1/2, n = 2
    assert horizon(P) == pytest.approx(-2 * math.log(0.5 + 2 ** -4.0), abs=1e-12)
    P = CardinalityPolytope(4, 1)  # d = 1/4, n = 4
    assert horizon(P) == pytest.approx(-4 * math.log(0.75 + 4 ** -4.0), abs=1e-12)
    P = CardinalityPolytope(5, 5)  # d = 1
    assert horizon(P) == pytest.approx(4 * math.log(5), abs=1e-12)


def test_discrete_horizon_grows_to_the_continuous_one():
    P = CardinalityPolytope(4, 3)  # d = 3/4, n = 4
    assert horizon(P, 1) == pytest.approx(1.0 - (0.25 + 4**-4.0) ** (4 / 3), abs=1e-12)
    T = [horizon(P, s) for s in (1, 2, 5, 40, 1000, 10**6)]
    assert all(a < b for a, b in zip(T, T[1:])) and T[-1] < horizon(P)
    assert T[-1] == pytest.approx(horizon(P), rel=1e-5)
    # s steps of width T_s / s end exactly at the slack the continuous flow ends at
    for s, T_s in zip((1, 2, 5, 40), T):
        assert T_s / s < 1.0
        assert (1.0 - T_s / s) ** (0.75 * s) == pytest.approx(0.25 + 4**-4.0, rel=1e-12)


def test_slack_constraints_get_the_horizon_of_the_cube():
    # b >= sum(a): density 5/2, but no point of the cube leaves P
    P = KnapsackPolytope([0.5, 0.5, 0.5, 0.5], 5.0)
    assert horizon(P) == horizon(CardinalityPolytope(4, 4)) == pytest.approx(4 * math.log(4), abs=1e-12)
    assert horizon(P, 7) == horizon(CardinalityPolytope(4, 4), 7)
    assert horizon(PartitionPolytope([[0, 1], [2]], [3, 1])) == horizon(CardinalityPolytope(3, 3))


def test_horizon_requires_positive_density():
    with pytest.raises(ValueError):
        horizon(CardinalityPolytope(3, 0))


# ---------------------------------------------------------------------------
# singleton reduction
# ---------------------------------------------------------------------------


def test_reduction1_identity_for_cardinality():
    P = CardinalityPolytope(4, 2)
    red = preprocess_reduction1(P, GroundSet(4))
    assert red.kept == (0, 1, 2, 3)
    assert red.polytope is P
    assert red.warning is None


def test_reduction1_drops_oversized_knapsack_items():
    P = KnapsackPolytope([1.0, 5.0], 2.0)
    red = preprocess_reduction1(P, GroundSet(2))
    assert red.kept == (0,)
    assert red.ground_set.n == 1
    assert red.polytope.membership([1.0])


def test_reduction1_degenerate_empty():
    P = KnapsackPolytope([5.0, 7.0], 2.0)
    red = preprocess_reduction1(P, GroundSet(2))
    assert red.kept == ()
    assert red.warning is not None
    assert red.ground_set.n == 0


# ---------------------------------------------------------------------------
# optimality and down-monotonicity properties
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_linear_maximize_beats_every_integral_point(seed):
    rng = substream(seed, 0)
    n = int(rng.integers(2, 8))
    P = random_polytope(n, rng)
    w = rng.uniform(-1, 2, size=n)
    I = P.linear_maximize(w)
    assert P.membership(I)
    best = float(np.dot(I, w))
    for mask in range(1 << n):
        x = np.array([(mask >> u) & 1 for u in range(n)], dtype=float)
        if P.membership(x):
            assert best >= float(np.dot(x, w)) - 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_down_monotonicity(seed):
    rng = substream(seed, 1)
    n = int(rng.integers(2, 8))
    P = random_polytope(n, rng)
    x = P.linear_maximize(rng.uniform(0, 1, size=n)) * rng.uniform(0, 1, size=n)
    assert P.membership(x)
    y = x * rng.uniform(0, 1, size=n)
    assert P.membership(y)


# ---------------------------------------------------------------------------
# k = 0 degenerate cardinality polytope
# ---------------------------------------------------------------------------


def test_zero_budget_polytope():
    P = CardinalityPolytope(3, 0)
    assert P.membership([0.0, 0.0, 0.0])
    assert not P.membership([0.1, 0.0, 0.0])
    assert np.allclose(P.linear_maximize([5.0, 1.0, 1.0]), 0.0)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_polytope_json():
    P = polytope_from_json({"type": "cardinality", "k": 2}, n=5)
    assert isinstance(P, CardinalityPolytope) and P.k == 2 and P.n == 5
    P = polytope_from_json({"type": "partition", "parts": [[0, 1], [2]], "bounds": [1, 1]}, n=3)
    assert isinstance(P, PartitionPolytope)
    P = polytope_from_json({"type": "knapsack", "a": [1, 2], "b": 2}, n=2)
    assert isinstance(P, KnapsackPolytope)
    with pytest.raises(ValueError):
        polytope_from_json({"type": "cardinality", "k": 2, "junk": 0}, n=5)
    with pytest.raises(ValueError):
        polytope_from_json({"type": "simplex"}, n=3)
    # a constraint over fewer or more elements than the instance is rejected
    with pytest.raises(ValueError, match="instance has 3"):
        polytope_from_json({"type": "partition", "parts": [[0, 1]], "bounds": [1]}, n=3)
    with pytest.raises(ValueError, match="instance has 3"):
        polytope_from_json({"type": "knapsack", "a": [1, 2, 1, 1], "b": 2}, n=3)


def test_partition_validation():
    with pytest.raises(ValueError):
        PartitionPolytope([[0, 1], [1, 2]], [1, 1])  # overlap
    with pytest.raises(ValueError):
        PartitionPolytope([[0, 2]], [1])  # gap
    with pytest.raises(ValueError):
        PartitionPolytope([[0], []], [1, 1])  # empty part
