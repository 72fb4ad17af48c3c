import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submax.fixtures import random_coverage, random_graph_cut, single_edge_cut, triangle_cut
from submax.multilinear import Estimator, MultilinearEvaluator, Point
from submax.pipage import pipage_round
from submax.polytope import CardinalityPolytope, KnapsackPolytope, PartitionPolytope
from submax.rng import substream
from submax.setfn import SetFunction
from submax.subsets import popcount_array


def test_integral_input_is_returned_unchanged():
    f = triangle_cut()
    P = CardinalityPolytope(3, 2)
    mask = pipage_round(f, Point.indicator([0, 2], 3), P)
    assert mask == 0b101


def test_single_edge_half_half():
    f = single_edge_cut()
    mask = pipage_round(f, Point([0.5, 0.5]), CardinalityPolytope(2, 1))
    assert mask in (0b01, 0b10)
    assert f.eval(mask) == 1.0  # 1 >= F(x) = 0.5


def test_triangle_two_thirds():
    f = triangle_cut()
    mask = pipage_round(f, Point([2 / 3, 2 / 3, 2 / 3]), CardinalityPolytope(3, 2))
    assert bin(mask).count("1") == 2
    assert f.eval(mask) == 2.0
    assert f.eval(mask) >= MultilinearEvaluator(f).value([2 / 3] * 3)


def _random_point_in_cardinality(rng, n, k):
    # a random fractional point of mass exactly k
    x = rng.random(n)
    x = x / x.sum() * k
    while x.max() > 1.0:
        # clip and redistribute to keep mass k inside the cube
        over = x - np.minimum(x, 1.0)
        x = np.minimum(x, 1.0)
        room = (1.0 - x) / max((1.0 - x).sum(), 1e-12)
        x = x + over.sum() * room
    return x


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_rounding_never_loses_value_and_keeps_cardinality(seed):
    rng = substream(seed, 4)
    n = int(rng.integers(3, 9))
    k = int(rng.integers(1, n))
    f = random_graph_cut(n, seed) if seed % 2 == 0 else random_coverage(n, seed)
    x = _random_point_in_cardinality(rng, n, k)
    P = CardinalityPolytope(n, k)
    point = Point(x)
    mask = pipage_round(f, point, P)
    assert int(popcount_array(np.array([mask]))[0]) == k
    assert P.membership(Point.indicator(mask, n).coords)
    assert f.eval(mask) >= MultilinearEvaluator(f).value(point) - 1e-9


def test_partition_polytope_rounding():
    f = random_graph_cut(6, seed=9)
    P = PartitionPolytope([[0, 1, 2], [3, 4, 5]], [1, 2])
    x = Point([0.4, 0.3, 0.3, 0.9, 0.6, 0.5])
    mask = pipage_round(f, x, P)
    assert P.membership(Point.indicator(mask, 6).coords)
    assert f.eval(mask) >= MultilinearEvaluator(f).value(x) - 1e-9


def test_slack_constraint_leftover_coordinate():
    # mass 0.5 < k = 2: a single fractional coordinate survives the pairing
    # within its part and is rounded to the better feasible bound
    f = single_edge_cut()
    P = CardinalityPolytope(2, 2)
    mask = pipage_round(f, Point([0.5, 0.0]), P)
    assert mask in (0b00, 0b01)
    assert f.eval(mask) >= 0.5 - 1e-9  # F(x) = 0.5, rounding up reaches 1


def test_rejects_point_outside_polytope():
    f = triangle_cut()
    with pytest.raises(ValueError):
        pipage_round(f, Point([1.0, 1.0, 0.5]), CardinalityPolytope(3, 2))


def test_rejects_unsupported_polytope_kind():
    f = single_edge_cut()
    with pytest.raises(ValueError):
        pipage_round(f, Point([0.5, 0.5]), KnapsackPolytope([1.0, 1.0], 1.0))


def test_non_submodular_input_fails_loudly():
    f = SetFunction(3, lambda m: float(bin(m).count("1") ** 2))  # supermodular
    with pytest.raises(ArithmeticError):
        pipage_round(f, Point([0.5, 0.5, 0.0]), CardinalityPolytope(3, 1))


def test_sampled_mode_rounds_with_common_random_numbers():
    f = random_graph_cut(6, seed=10)
    P = CardinalityPolytope(6, 3)
    rng = substream(1, 5)
    x = Point(_random_point_in_cardinality(rng, 6, 3))
    est = Estimator(mode="sampled", samples=4000, seed=7)
    mask_a = pipage_round(f, x, P, est)
    mask_b = pipage_round(f, x, P, est)
    assert mask_a == mask_b  # deterministic given the seed
    assert int(popcount_array(np.array([mask_a]))[0]) == 3
