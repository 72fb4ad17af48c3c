import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    complement_function,
    indicator,
    per_mask,
    random_coverage,
    record_batches,
    record_lookups,
    single_edge_cut,
    triangle_cut,
)
from lemmas import (
    box_vertex_values,
    check_correlated_marginals_bound,
    check_lemma_general_properties,
    check_linearization_bound,
    check_random_subset_bound,
    check_union_bound_symmetric,
)
from submax.dmcg import run_dmcg
from submax.fixtures import random_graph_cut, random_hypergraph_cut
from submax.mcg import AscentConfig
from submax.multilinear import Estimator, MultilinearEvaluator
from submax.rng import substream
from submax.setfn import SetFunction, hardness_instance
from submax.subsets import popcount_array


# ---------------------------------------------------------------------------
# sampled sets R(x)
# ---------------------------------------------------------------------------


def _sampled_sets(x, samples, seed):
    ev = MultilinearEvaluator(single_edge_cut(len(x)), Estimator(samples, seed))
    return ev._sample(np.asarray(x, dtype=float), ())


def test_sample_set_degenerate_points():
    assert (_sampled_sets(np.ones(4), 100, seed=0) == 0b1111).all()
    assert (_sampled_sets(np.zeros(4), 100, seed=0) == 0).all()


def test_sample_set_binomial_mean():
    sizes = popcount_array(_sampled_sets([0.5] * 4, 100_000, seed=7))
    sigma = 1.0 / math.sqrt(sizes.size)  # std of |R| is 1 at p=1/2, n=4
    assert abs(np.mean(sizes) - 2.0) <= 3 * sigma


# ---------------------------------------------------------------------------
# F(x): MultilinearEvaluator.value
# ---------------------------------------------------------------------------


def test_eval_exact_single_edge():
    f = single_edge_cut()
    assert MultilinearEvaluator(f).value([0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)


@given(mask=st.integers(min_value=0, max_value=7))
def test_eval_exact_agrees_on_vertices(mask):
    f = triangle_cut()
    x = indicator(mask, 3)
    assert MultilinearEvaluator(f).value(x) == pytest.approx(f.eval(mask), abs=1e-12)


def test_eval_exact_hardness_closed_form():
    f = hardness_instance(1, 2)
    ev = MultilinearEvaluator(f)
    rng = substream(3, 0)
    for z in np.linspace(0, 1, 11):
        x = rng.random(4)
        x[0] = x[3] = z
        assert ev.value(x) == pytest.approx(2 * z * (1 - z), abs=1e-12)


def test_evaluate_sampled_close_to_exact():
    f = single_edge_cut()
    est = Estimator(samples=1_000_000, seed=11)
    got = MultilinearEvaluator(f, est).value(np.array([0.5, 0.5]))
    assert abs(got - 0.5) <= 0.002  # 4 sigma at sigma = 0.5/sqrt(samples)


def test_evaluate_integral_points_short_circuit():
    f = triangle_cut()
    est = Estimator(samples=1000, seed=0)
    before = f.query_count
    got = MultilinearEvaluator(f, est).value(indicator([0], 3))
    assert got == f.eval([0])
    assert f.query_count == before + 2  # one short-circuit call + the reference eval


def test_sampled_estimates_match_exact_within_4_sigma():
    for f in (triangle_cut(), random_graph_cut(8, seed=4), random_coverage(6, seed=5)):
        rng = substream(9, f.n)
        x = rng.random(f.n)
        exact = MultilinearEvaluator(f).value(x)
        samples = 100_000
        est = Estimator(samples=samples, seed=21)
        ev = MultilinearEvaluator(f, est)
        got = ev.value(x, stream=(0,))
        # bound the deviation by 4 sigma of the empirical draw
        masks = ev._sample(np.asarray(x, dtype=float), (0,))
        sigma = float(f.eval_many(masks).std(ddof=1)) / math.sqrt(samples)
        assert abs(got - exact) <= 4 * sigma + 1e-12


# ---------------------------------------------------------------------------
# partial derivatives: MultilinearEvaluator.value_and_partials
# ---------------------------------------------------------------------------


def partial(f, x, u, est=None, stream=()):
    return MultilinearEvaluator(f, est).value_and_partials(x, stream)[1][u]


def test_partial_derivative_single_edge():
    f = single_edge_cut()
    assert partial(f, [0.3, 0.5], 0) == pytest.approx(0.0, abs=1e-12)
    assert partial(f, [0.3, 0.0], 0) == pytest.approx(1.0, abs=1e-12)


@given(mask=st.integers(min_value=0, max_value=7), u=st.integers(min_value=0, max_value=2))
def test_partial_derivative_vertex_marginals(mask, u):
    f = triangle_cut()
    x = indicator(mask, 3)
    expected = f.eval(mask | (1 << u)) - f.eval(mask & ~(1 << u))
    assert partial(f, x, u) == pytest.approx(expected, abs=1e-12)


def test_partial_derivative_matches_finite_difference():
    f = random_graph_cut(6, seed=8)
    rng = substream(5, 1)
    x = rng.random(6) * 0.9  # keep room for +h
    h = 1e-6
    ev = MultilinearEvaluator(f)
    grad = ev.value_and_partials(x)[1]
    for u in range(6):
        xp = x.copy()
        xp[u] += h
        fd = (ev.value(xp) - ev.value(x)) / h
        assert grad[u] == pytest.approx(fd, abs=1e-7)


def test_finite_difference_exactness_on_unit_scale_fixture():
    # F is linear in each coordinate, so at unit value scale the quotient
    # agrees with the partial to float precision
    f = single_edge_cut()
    ev = MultilinearEvaluator(f)
    x = np.array([0.3, 0.4])
    grad = ev.value_and_partials(x)[1]
    h = 1e-6
    for u in range(2):
        xp = x.copy()
        xp[u] += h
        fd = (ev.value(xp) - ev.value(x)) / h
        assert grad[u] == pytest.approx(fd, abs=1e-9)


def test_value_and_partials_consistent_with_partial():
    f = random_coverage(6, seed=2)
    rng = substream(6, 2)
    x = rng.random(6)
    ev = MultilinearEvaluator(f)
    value, grad, sigma = ev.value_and_partials(x)
    assert sigma is None
    assert value == pytest.approx(ev.value(x), abs=1e-12)
    # F is affine in each coordinate: dF/dx_u = F(x, x_u = 1) - F(x, x_u = 0)
    for u in range(6):
        up, down = x.copy(), x.copy()
        up[u], down[u] = 1.0, 0.0
        assert grad[u] == pytest.approx(ev.value(up) - ev.value(down), abs=1e-9)


def _scalar_oracle(n: int) -> SetFunction:
    weights = substream(2, n).uniform(0.5, 2.0, size=n)
    return SetFunction(n, per_mask(lambda mask: math.sqrt(sum(w for u, w in enumerate(weights) if mask >> u & 1))))


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_graph_cut(7, seed=3),
        lambda: random_hypergraph_cut(7, seed=4),
        lambda: random_coverage(7, seed=5),
        lambda: complement_function(random_coverage(7, seed=6)),
        lambda: _scalar_oracle(7),
    ],
    ids=["cut", "hypergraph", "coverage", "complement", "scalar"],
)
@pytest.mark.parametrize("pinned", [False, True], ids=["interior", "pinned"])
@pytest.mark.parametrize("samples", [1, 64, 600])  # 8 x 600 masks span two eval_many blocks
def test_sampled_gradient_matches_plus_minus_reference_bit_for_bit(make, pinned, samples):
    f = make()
    n = f.n
    x = substream(11, n).random(n)
    if pinned:
        x[[0, 3]], x[[1, 5]] = 0.0, 1.0
    ev = MultilinearEvaluator(f, Estimator(samples=samples, seed=17))
    stream = (4, 1)
    base = ev._sample(x, stream)
    unit = (np.int64(1) << np.arange(n, dtype=np.int64))[:, None]
    diffs = f.eval_many(base | unit) - f.eval_many(base & ~unit)
    sigma = diffs.std(axis=1, ddof=1) / math.sqrt(samples) if samples > 1 else np.zeros(n)
    reference = float(f.eval_many(base).mean()), diffs.mean(axis=1), sigma
    before = f.query_count
    value, grad, got_sigma = ev.value_and_partials(x, stream=stream)
    assert f.query_count - before == np.union1d(base | unit, base & ~unit).size  # each distinct set once
    assert value == reference[0]
    assert np.array_equal(grad, reference[1])
    assert np.array_equal(got_sigma, reference[2])


@pytest.mark.parametrize("corner", [0.0, 1.0])
def test_sampled_gradient_at_a_vertex_of_the_cube_asks_n_plus_one_sets(corner):
    # every draw at x = 0 is the empty set and every draw at x = 1 is N, so
    # the batch holds that one set and its n flips, however many samples
    f = random_graph_cut(7, seed=3)
    ev = MultilinearEvaluator(f, Estimator(samples=500, seed=2))
    ev.value_and_partials(np.full(7, corner), stream=(1,))
    assert f.query_count == 7 + 1


@pytest.mark.parametrize("samples", [1, 64, 600])
def test_no_sampled_batch_asks_for_a_draw_twice(samples, monkeypatch):
    # F looks up the draws R and the gradient those and, in row u, each of
    # them with u flipped; the memo sends the oracle the distinct sets of a
    # lookup it does not hold, ascending, so F's batch is the distinct draws
    # and the gradient's the sets of its layout that F's batch did not hold
    f = random_coverage(6, seed=9)
    batches = record_batches(f)
    lookups = record_lookups(monkeypatch)
    ev = MultilinearEvaluator(f, Estimator(samples=samples, seed=5))
    x = substream(12, 6).random(6)
    x[[0, 2]] = 0.0
    ev.value(x, stream=(2,))
    ev.value_and_partials(x, stream=(2,))
    draws = ev._sample(x, (2,))
    layout = np.concatenate([draws[None, :], draws ^ ev._flips])
    (value_lookup, grad_lookup), = lookups.values()
    assert np.array_equal(value_lookup, draws) and draws.shape == (samples,)
    assert np.array_equal(grad_lookup, layout) and layout.shape == (6 + 1, samples)
    value_batch, grad_batch = batches
    assert np.array_equal(value_batch, np.unique(draws))
    assert np.array_equal(grad_batch, np.setdiff1d(layout, value_batch))
    for batch in batches:
        assert np.unique(batch).size == batch.size


def test_a_sampled_ascent_asks_for_no_set_twice():
    # up to n = 16 the memo has a slot for every set, so across the whole
    # run, both sides and every reset, the oracle sees each set once
    f = random_graph_cut(8, seed=5)
    batches = record_batches(f)
    run_dmcg(MultilinearEvaluator(f, Estimator(samples=64, seed=5)), 2, AscentConfig(steps=40), "symmetric")
    asked = np.concatenate([masks.ravel() for masks in batches])
    assert np.unique(asked).size == asked.size == f.query_count


def _colliding_sets(n: int) -> tuple[int, int]:
    """Two masks over n > 16 elements that share a memo slot: the top 16 bits
    of mask * 0x9E3779B97F4A7C15 mod 2^64."""
    seen = {}
    for mask in substream(3, n).integers(0, 1 << n, size=4096).tolist():
        slot = (mask * 0x9E3779B97F4A7C15) % 2**64 >> 48
        if seen.setdefault(slot, mask) != mask:
            return seen[slot], mask
    raise AssertionError("no two masks share a slot")


def test_colliding_sets_keep_their_own_values():
    n = 40
    f = random_hypergraph_cut(n, seed=2)
    a, b = _colliding_sets(n)
    truth = {m: f.eval(m) for m in (a, b)}
    ev = MultilinearEvaluator(f, Estimator(samples=8, seed=1))
    assert ev._slots(np.array([a])) == ev._slots(np.array([b]))
    for m, asks in ((a, 1), (b, 1), (a, 1), (a, 0)):  # b evicts a, and a evicts b
        before = f.query_count
        assert ev.value(indicator(m, n)) == truth[m]
        assert f.query_count - before == asks
    # both new in one batch: each is asked once, and one of them keeps the slot
    ev = MultilinearEvaluator(f, Estimator(samples=8, seed=1))
    before = f.query_count
    assert ev._ask(np.array([a, b, a])).tolist() == [truth[a], truth[b], truth[a]]
    assert f.query_count - before == 2
    held = int(ev._keys[ev._slots(np.array([a]))[0]])
    for m, asks in ((held, 0), (a + b - held, 1)):
        before = f.query_count
        assert ev.value(indicator(m, n)) == truth[m]
        assert f.query_count - before == asks


def test_sampled_evaluator_needs_int64_masks():
    with pytest.raises(ValueError, match="n must be <= 62"):
        MultilinearEvaluator(single_edge_cut(63), Estimator(samples=4))


def test_sampled_partial_uses_common_random_numbers():
    # with CRN the u-derivative of the single edge is exactly 1 - 2 b1 per
    # draw; the estimate must land within 4 sigma of 1 - 2 x1
    f = single_edge_cut()
    est = Estimator(samples=40_000, seed=3)
    got = partial(f, [0.2, 0.3], 0, est)
    sigma = 1.0 / math.sqrt(40_000)
    assert abs(got - 0.4) <= 4 * sigma


# ---------------------------------------------------------------------------
# box vertices
# ---------------------------------------------------------------------------


def test_box_vertex_values_enumerates_scaled_indicators():
    f = triangle_cut()
    ev = MultilinearEvaluator(f)
    x = np.array([0.3, 0.6, 0.9])
    values = box_vertex_values(f, x)
    for mask in range(8):
        scaled = np.array([x[u] if (mask >> u) & 1 else 0.0 for u in range(3)])
        assert values[mask] == pytest.approx(ev.value(scaled), abs=1e-12)


# ---------------------------------------------------------------------------
# lemma checks
# ---------------------------------------------------------------------------


def test_general_properties_on_symmetric_fixture():
    rep = check_lemma_general_properties(triangle_cut(), trials=30, seed=0)
    assert rep.passed and rep.details["symmetry_checked"]


def test_general_properties_on_coverage_skips_symmetry():
    rep = check_lemma_general_properties(random_coverage(5, seed=1), trials=30, seed=0)
    assert rep.passed and not rep.details["symmetry_checked"]


def test_shift_inequality_trivial_at_origin():
    f = triangle_cut()
    ev = MultilinearEvaluator(f)
    zero = np.zeros(3)
    lhs = ev.value(zero) - ev.value(zero)
    rhs = ev.value(zero) - ev.value(zero)
    assert lhs <= rhs + 1e-12


def test_union_bound_examples():
    f = single_edge_cut()
    rep = check_union_bound_symmetric(f, np.array([0.5, 0.0]), [0])
    assert rep.passed and rep.status == "ok"
    # x = 0 reduces to f(S) >= f(S) - f(empty)
    rep0 = check_union_bound_symmetric(triangle_cut(), np.zeros(3), [0, 1])
    assert rep0.passed and rep0.status == "ok"


def test_union_bound_reports_unmet_precondition():
    # x = (0.5, 1): the vertex (0, 1) of its box has F = 1 > F(x) = 0.5
    f = single_edge_cut()
    rep = check_union_bound_symmetric(f, np.array([0.5, 1.0]), [0])
    assert rep.status == "precondition_unmet"
    assert rep.passed  # unmet precondition is not a failure


def test_union_bound_requires_symmetric_flag():
    with pytest.raises(ValueError):
        check_union_bound_symmetric(random_coverage(4, seed=0), np.zeros(4), [0])


def test_linearization_bound_on_fixtures():
    for f in (triangle_cut(), random_graph_cut(8, seed=3), random_coverage(6, seed=4)):
        rep = check_linearization_bound(f, trials=40, seed=1)
        assert rep.passed, rep.details


def test_statistical_subset_bounds():
    f = random_graph_cut(8, seed=6)
    assert check_random_subset_bound(f, p=0.5, trials=50_000, seed=2).passed
    assert check_random_subset_bound(f, A=[0, 1, 2], p=0.25, trials=50_000, seed=3).passed
    assert check_correlated_marginals_bound(f, p=0.5, trials=50_000, seed=4).passed


def test_estimator_validation():
    with pytest.raises(ValueError):
        Estimator(samples=0)
