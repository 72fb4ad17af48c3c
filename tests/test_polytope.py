import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import POLYTOPE_KINDS, random_polytope
from submax.polytope import (
    CardinalityPolytope,
    KnapsackPolytope,
    PartitionPolytope,
    horizon,
    preprocess_reduction1,
)
from submax.rng import substream
from submax.subsets import bits_from_masks


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
    red = preprocess_reduction1(P)
    assert red.kept == (0, 1, 2, 3)
    assert red.polytope is P
    assert red.warning is None


def test_reduction1_drops_oversized_knapsack_items():
    P = KnapsackPolytope([1.0, 5.0], 2.0)
    red = preprocess_reduction1(P)
    assert red.kept == (0,)
    assert red.polytope.n == 1
    assert red.polytope.membership([1.0])


@pytest.mark.parametrize("a, b", [([0.0, 5.0], 1.0), ([0.0, 1.0, 0.0], 0.0)])
def test_reduction1_to_zero_coefficients_leaves_the_cube(a, b):
    red = preprocess_reduction1(KnapsackPolytope(a, b))
    kept = [u for u, a_u in enumerate(a) if a_u == 0.0]
    assert red.kept == tuple(kept)
    assert red.polytope.density == 1.0 and red.polytope.membership(np.ones(len(kept)))
    assert red.polytope.linear_maximize(np.ones(len(kept))).tolist() == [1.0] * len(kept)


def test_reduction1_degenerate_empty():
    P = KnapsackPolytope([5.0, 7.0], 2.0)
    red = preprocess_reduction1(P)
    assert red.kept == ()
    assert red.warning is not None
    assert red.polytope.n == 0


# ---------------------------------------------------------------------------
# optimality and down-monotonicity properties
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
@example(seed=5995)  # a knapsack over two items lighter than 0.5 in all
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
@example(seed=2618)  # a knapsack over two items lighter than 0.5 in all
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


def test_partition_validation():
    with pytest.raises(ValueError):
        PartitionPolytope([[0, 1], [1, 2]], [1, 1])  # overlap
    with pytest.raises(ValueError):
        PartitionPolytope([[0, 2]], [1])  # gap
    with pytest.raises(ValueError):
        PartitionPolytope([[0], []], [1, 1])  # empty part


# ---------------------------------------------------------------------------
# cardinality is the partition matroid of one part
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=10), seed=st.integers(min_value=0, max_value=10_000))
def test_cardinality_agrees_with_the_one_part_partition(n, seed):
    rng = substream(seed, 0xCA7)
    k = int(rng.integers(0, n + 1))
    card, part = CardinalityPolytope(n, k), PartitionPolytope([list(range(n))], [k])
    assert card.parts == part.parts and card.density == part.density
    masks = np.arange(1 << n, dtype=np.int64)
    assert np.array_equal(card.integral(masks), part.integral(masks))
    assert [card.singleton_feasible(u) for u in range(n)] == [part.singleton_feasible(u) for u in range(n)]
    for _ in range(5):
        w = rng.uniform(-1, 2, size=n)
        w[rng.integers(0, n)] = w[0]  # a tie, broken toward the lowest index by both
        assert np.array_equal(card.linear_maximize(w), part.linear_maximize(w))
        x = rng.uniform(0, 1, size=n) * rng.uniform(0, 2 * k / n if k else 0.01)
        assert card.membership(x) == part.membership(x)


def test_empty_cardinality_polytope_has_no_part():
    P = CardinalityPolytope(0, 0)
    assert P.parts == [] and P.n == 0 and P.density == 0.0
    assert P.integral(np.zeros(1, dtype=np.int64)).tolist() == [True]


@pytest.mark.parametrize("kind", POLYTOPE_KINDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_integral_agrees_with_membership_of_every_indicator(kind, seed):
    rng = substream(seed, 0x1D7)
    n = int(rng.integers(2, 13))
    P = random_polytope(n, rng, kind)
    masks = np.arange(1 << n, dtype=np.int64)
    expected = [P.membership(x) for x in bits_from_masks(masks, n).astype(float)]
    assert P.integral(masks).tolist() == expected


def test_knapsack_integral_and_singletons_share_the_membership_slack():
    # 0.1 + 0.2 exceeds 0.3 by 5.6e-17, well inside the slack
    P = KnapsackPolytope([0.1, 0.2, 0.30000000000000004], 0.3)
    assert P.integral(np.array([0b011, 0b100, 0b101], dtype=np.int64)).tolist() == [True, True, False]
    assert P.singleton_feasible(2) and P.membership([0.0, 0.0, 1.0]) and P.membership([1.0, 1.0, 0.0])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=22), whole=st.booleans())
def test_knapsack_integral_equals_the_bit_matrix_product(data, n, whole):
    # the byte tables sum a(S) in another order than the product does: equal
    # on integer coefficients, and on fractional ones away from the threshold;
    # from b = 2^24 on, b + SLACK rounds to b, so an attained b is the threshold
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    if whole:
        a = np.array(data.draw(st.lists(st.integers(0, 2**30), min_size=n, max_size=n)), dtype=float)
    else:
        a = np.array(data.draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)))
    if a.sum() <= 0:
        a[data.draw(st.integers(0, n - 1))] = 1.0
    attained = data.draw(masks)
    b = float(bits_from_masks(attained, n) @ a) + data.draw(st.sampled_from([0.0, 0.0, -1.0, 1.0, 0.5]))
    P = KnapsackPolytope(a, max(b, 0.0))
    drawn = np.array(data.draw(st.lists(masks, max_size=300)) + [attained, 0, (1 << n) - 1], dtype=np.int64)
    load = bits_from_masks(drawn, n) @ a
    expected = load <= P.b + 1e-9
    near = np.abs(load - (P.b + 1e-9)) <= 1e-12 * a.sum()
    got = P.integral(drawn)
    assert got.dtype == bool and got.shape == drawn.shape
    assert (got == expected)[~near | whole].all()
