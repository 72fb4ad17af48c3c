import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import indicator, per_mask, random_coverage, record_batches, single_edge_cut, triangle_cut
from lemmas import table_fold
from submax.dmcg import run_dmcg
from submax.fixtures import random_graph_cut
from submax.mcg import run_mcg
from submax.multilinear import MultilinearEvaluator
from submax.pipage import pipage_round
from submax.polytope import CardinalityPolytope, KnapsackPolytope, PartitionPolytope
from submax.rng import PIPAGE_STREAM, substream
from submax.setfn import SetFunction, graph_cut_function, restrict_function
from submax.subsets import popcount_array


def test_integral_input_is_returned_unchanged():
    f = triangle_cut()
    P = CardinalityPolytope(3, 2)
    mask = pipage_round(MultilinearEvaluator(f), indicator([0, 2], 3), P)
    assert mask == 0b101


def test_single_edge_half_half():
    f = single_edge_cut()
    mask = pipage_round(MultilinearEvaluator(f), np.array([0.5, 0.5]), CardinalityPolytope(2, 1))
    assert mask in (0b01, 0b10)
    assert f.eval(mask) == 1.0  # 1 >= F(x) = 0.5


def test_triangle_two_thirds():
    f = triangle_cut()
    mask = pipage_round(MultilinearEvaluator(f), np.array([2 / 3, 2 / 3, 2 / 3]), CardinalityPolytope(3, 2))
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
    point = np.array(x)
    mask = pipage_round(MultilinearEvaluator(f), point, P)
    assert int(popcount_array(np.array([mask]))[0]) == k
    assert P.membership(indicator(mask, n))
    assert f.eval(mask) >= MultilinearEvaluator(f).value(point) - 1e-9


def test_partition_polytope_rounding():
    f = random_graph_cut(6, seed=9)
    P = PartitionPolytope([[0, 1, 2], [3, 4, 5]], [1, 2])
    x = np.array([0.4, 0.3, 0.3, 0.9, 0.6, 0.5])
    mask = pipage_round(MultilinearEvaluator(f), x, P)
    assert P.membership(indicator(mask, 6))
    assert f.eval(mask) >= MultilinearEvaluator(f).value(x) - 1e-9


def test_slack_constraint_leftover_coordinate():
    # mass 0.5 < k = 2: a single fractional coordinate survives the pairing
    # within its part and is rounded to the better feasible bound
    f = single_edge_cut()
    P = CardinalityPolytope(2, 2)
    mask = pipage_round(MultilinearEvaluator(f), np.array([0.5, 0.0]), P)
    assert mask in (0b00, 0b01)
    assert f.eval(mask) >= 0.5 - 1e-9  # F(x) = 0.5, rounding up reaches 1


def test_rejects_point_outside_polytope():
    f = triangle_cut()
    with pytest.raises(ValueError):
        pipage_round(MultilinearEvaluator(f), np.array([1.0, 1.0, 0.5]), CardinalityPolytope(3, 2))


def test_rejects_unsupported_polytope_kind():
    f = single_edge_cut()
    with pytest.raises(ValueError):
        pipage_round(MultilinearEvaluator(f), np.array([0.5, 0.5]), KnapsackPolytope([1.0, 1.0], 1.0))


@pytest.mark.parametrize("scale", [1.0, 1e-20, 1e300])
def test_non_submodular_input_fails_loudly(scale):
    # the audit's tolerance is relative, so it flags the curvature at any scale
    f = SetFunction(3, per_mask(lambda m: scale * float(bin(m).count("1") ** 2)))  # supermodular
    f.multilinear = table_fold(f)
    with pytest.raises(ArithmeticError, match="not submodular"):
        pipage_round(MultilinearEvaluator(f), np.array([0.5, 0.5, 0.0]), CardinalityPolytope(3, 1))


def test_sampled_mode_rounds_with_common_random_numbers():
    f = random_graph_cut(6, seed=10)
    P = CardinalityPolytope(6, 3)
    rng = substream(1, 5)
    x = np.array(_random_point_in_cardinality(rng, 6, 3))
    est = dict(samples=4000, seed=7)
    mask_a = pipage_round(MultilinearEvaluator(f, **est), x, P)
    mask_b = pipage_round(MultilinearEvaluator(f, **est), x, P)
    assert mask_a == mask_b  # deterministic given the seed
    assert int(popcount_array(np.array([mask_a]))[0]) == 3


def _sampled_run(solver: str, ev: MultilinearEvaluator):
    """A short sampled ascent on ev (n = 10) and the polytope its point is
    rounded in."""
    if solver == "mcg":
        P = PartitionPolytope([[0, 1, 2, 3], [4, 5, 6, 7, 8, 9]], [2, 3])
        y, _ = run_mcg(ev, P, T=1.0, steps=20)
    else:
        P = CardinalityPolytope(10, 4)
        y, _ = run_dmcg(ev, 4, solver, steps=20)
    assert ((y > 1e-9) & (y < 1.0 - 1e-9)).any()  # the rounding has moves to make
    return y, P


@pytest.mark.parametrize("solver", ["mcg", "symmetric", "general"])
def test_rounding_on_the_runs_evaluator_asks_for_no_set_twice(solver):
    # up to n = 16 the memo has a slot for every set, so the rounding asks
    # the oracle only for sets the ascent never looked up
    f = random_graph_cut(10, seed=31)
    batches = record_batches(f)
    ev = MultilinearEvaluator(f, samples=64, seed=4)
    y, P = _sampled_run(solver, ev)
    pipage_round(ev, y, P)
    asked = np.concatenate([masks.ravel() for masks in batches])
    assert np.unique(asked).size == asked.size == f.query_count


@pytest.mark.parametrize("solver", ["mcg", "symmetric", "general"])
def test_rounding_on_the_runs_evaluator_matches_a_fresh_one(solver):
    # the memo changes what the oracle is asked, never a value, so the
    # rounding takes the same moves on either evaluator
    f = random_graph_cut(10, seed=31)
    est = dict(samples=64, seed=4)
    ev = MultilinearEvaluator(f, **est)
    y, P = _sampled_run(solver, ev)
    before = f.query_count
    fresh = pipage_round(MultilinearEvaluator(f, **est), y, P)
    fresh_calls, before = f.query_count - before, f.query_count
    assert pipage_round(ev, y, P) == fresh
    assert f.query_count - before < fresh_calls  # the run's memo answered some of the rounding's sets


@pytest.mark.parametrize("samples", [None, 8], ids=["exact", "sampled"])
def test_an_empty_ground_set_rounds_to_the_empty_set(samples):
    # what Reduction 1 leaves when it keeps no element
    f = restrict_function(triangle_cut(), [])
    assert pipage_round(MultilinearEvaluator(f, samples), np.zeros(0), CardinalityPolytope(0, 0)) == 0


def _recording(ev: MultilinearEvaluator) -> list:
    """Record (stream, point) of every ``ev.value`` call in the returned list."""
    calls = []
    ask = ev.value

    def value(x, stream=()):
        calls.append((stream, np.array(x, dtype=float)))
        return ask(x, stream)

    ev.value = value
    return calls


@pytest.mark.parametrize(
    "f, x, P, moves, leftover_calls",
    [
        # mass exactly k: each move makes one coordinate integral, and the
        # last makes both, so no coordinate is left over
        (random_graph_cut(5, seed=2), [0.3, 0.5, 0.4, 0.6, 0.2], CardinalityPolytope(5, 2), 4, 0),
        # each part keeps one coordinate of value 0.9, which may round up
        (random_graph_cut(6, seed=9), [0.4, 0.3, 0.2, 0.9, 0.6, 0.4],
         PartitionPolytope([[0, 1, 2], [3, 4, 5]], [1, 2]), 4, 2 + 2),
    ],
    ids=["cardinality", "partition"],
)
def test_exact_rounding_asks_F_twice_per_move_and_once_at_the_start(f, x, P, moves, leftover_calls):
    # both endpoints per move; F at the point a move starts from is the
    # chosen endpoint of the move before, so only the first move asks for it
    ev = MultilinearEvaluator(f)
    calls = _recording(ev)
    pipage_round(ev, np.array(x), P)
    assert len(calls) == 2 * moves + 1 + leftover_calls
    assert [stream for stream, _ in calls].count(()) == 1  # the one audit point


def test_a_1000_element_rounding_walks_the_part_once():
    # 999 pair moves over 1,000 fractional coordinates of mass 250
    rng = substream(0, 1000)
    n, k = 1000, 250
    f = graph_cut_function(n, [(int(u), int(v), 1.0) for u, v in rng.integers(0, n, (3000, 2)) if u != v])
    x = rng.uniform(0.05, 0.45, n)
    x *= k / x.sum()
    ev = MultilinearEvaluator(f)
    calls = _recording(ev)
    mask = pipage_round(ev, x, CardinalityPolytope(n, k))
    streams = [stream for stream, _ in calls]
    assert len(streams) == 2 * (n - 1) + 1
    assert streams[2] == ()  # the audit point, at the first move
    assert [s for s in streams if s] == [(PIPAGE_STREAM, move) for move in range(n - 1) for _ in range(2)]
    assert mask.bit_count() == k


EIGHT = graph_cut_function(
    8, [(u, v, float(1 + (3 * u + v) % 4)) for u in range(8) for v in range(u + 1, 8) if (u * v + u + v) % 3]
)


def test_sampled_rounding_asks_the_pinned_sequence_of_points():
    # every (stream, point) the sampled rounding asks F for, in order: the
    # memo's evictions follow these lookups, so a change in the moves, their
    # order or their streams changes a sampled run's oracle calls
    digest = hashlib.sha256()
    masks = []
    for P, x in [
        (CardinalityPolytope(8, 3), [0.375, 0.5, 0.25, 0.625, 0.125, 0.75, 0.25, 0.125]),
        (PartitionPolytope([[0, 1, 2, 3], [4, 5, 6, 7]], [2, 1]), [0.5, 0.25, 0.625, 0.375, 0.25, 0.125, 0.375, 0.0]),
    ]:
        ev = MultilinearEvaluator(EIGHT, samples=64, seed=3)
        calls = _recording(ev)
        masks.append(pipage_round(ev, np.array(x), P))
        for stream, point in calls:
            digest.update(repr(stream).encode() + point.tobytes())
    assert masks == [97, 76]
    assert digest.hexdigest() == "a8b0df9a02a76fa7b55b92c7163080196bd413a66b183deb076d928278baf040"
