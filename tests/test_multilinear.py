import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complement_function,
    indicator,
    per_mask,
    plain_mean_and_sigma,
    random_coverage,
    record_batches,
    record_lookups,
    single_edge_cut,
    triangle_cut,
)
from lemmas import (
    box_vertex_values,
    scaled_mean_and_sigma,
    check_correlated_marginals_bound,
    check_lemma_general_properties,
    check_linearization_bound,
    check_random_subset_bound,
    check_union_bound_symmetric,
)
from submax.dmcg import run_dmcg
from submax.fixtures import random_graph_cut, random_hypergraph_cut
from submax.multilinear import MultilinearEvaluator
from submax.reports import mean_and_sigma
from submax.rng import substream
from submax.setfn import SetFunction, graph_cut_function, hardness_instance
from submax.subsets import popcount_array


# ---------------------------------------------------------------------------
# sampled sets R(x)
# ---------------------------------------------------------------------------


def _sampled_sets(x, samples, seed):
    ev = MultilinearEvaluator(single_edge_cut(len(x)), samples, seed)
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
    got = MultilinearEvaluator(f, samples=1_000_000, seed=11).value(np.array([0.5, 0.5]))
    assert abs(got - 0.5) <= 0.002  # 4 sigma at sigma = 0.5/sqrt(samples)


def test_evaluate_integral_points_short_circuit():
    f = triangle_cut()
    before = f.query_count
    got = MultilinearEvaluator(f, samples=1000, seed=0).value(indicator([0], 3))
    assert got == f.eval([0])
    assert f.query_count == before + 2  # one short-circuit call + the reference eval


def test_sampled_estimates_match_exact_within_4_sigma():
    for f in (triangle_cut(), random_graph_cut(8, seed=4), random_coverage(6, seed=5)):
        rng = substream(9, f.n)
        x = rng.random(f.n)
        exact = MultilinearEvaluator(f).value(x)
        samples = 100_000
        ev = MultilinearEvaluator(f, samples=samples, seed=21)
        got = ev.value(x, stream=(0,))
        # bound the deviation by 4 sigma of the empirical draw
        masks = ev._sample(np.asarray(x, dtype=float), (0,))
        sigma = float(f.eval_many(masks).std(ddof=1)) / math.sqrt(samples)
        assert abs(got - exact) <= 4 * sigma + 1e-12


# ---------------------------------------------------------------------------
# partial derivatives: MultilinearEvaluator.value_and_partials
# ---------------------------------------------------------------------------


def partial(f, x, u, samples=None, stream=()):
    return MultilinearEvaluator(f, samples, seed=3).value_and_partials(x, stream)[1][u]


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
    ev = MultilinearEvaluator(f, samples=samples, seed=17)
    stream = (4, 1)
    base = ev._sample(x, stream)
    unit = (np.int64(1) << np.arange(n, dtype=np.int64))[:, None]
    diffs = f.eval_many(base | unit) - f.eval_many(base & ~unit)
    reference = float(f.eval_many(base).mean()), *plain_mean_and_sigma(diffs)
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
    ev = MultilinearEvaluator(f, samples=500, seed=2)
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
    ev = MultilinearEvaluator(f, samples=samples, seed=5)
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
    run_dmcg(MultilinearEvaluator(f, samples=64, seed=5), 2, "symmetric", steps=40)
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
    ev = MultilinearEvaluator(f, samples=8, seed=1)
    assert ev._slots(np.array([a])) == ev._slots(np.array([b]))
    for m, asks in ((a, 1), (b, 1), (a, 1), (a, 0)):  # b evicts a, and a evicts b
        before = f.query_count
        assert ev.value(indicator(m, n)) == truth[m]
        assert f.query_count - before == asks
    # both new in one batch: each is asked once, and one of them keeps the slot
    ev = MultilinearEvaluator(f, samples=8, seed=1)
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
        MultilinearEvaluator(single_edge_cut(63), samples=4)


def test_sampled_partial_uses_common_random_numbers():
    # with CRN the u-derivative of the single edge is exactly 1 - 2 b1 per
    # draw; the estimate must land within 4 sigma of 1 - 2 x1
    f = single_edge_cut()
    got = partial(f, [0.2, 0.3], 0, samples=40_000)
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
    with pytest.raises(ValueError, match="samples must be at least 1, got 0"):
        MultilinearEvaluator(single_edge_cut(), samples=0)


@pytest.mark.parametrize("samples", [None, 8])
def test_a_negative_seed_fails_when_the_evaluator_is_built(samples):
    # accepted, a sampled evaluator raised numpy's "expected non-negative
    # integer" at its first draw, deep inside a run
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        MultilinearEvaluator(single_edge_cut(), samples, seed=-1)


# ---------------------------------------------------------------------------
# the spread of a sampled estimate
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("error")
def test_sampled_sigma_stays_finite_at_weights_near_1e300():
    # squaring the deviations overflowed: sigma read inf, and the cleanup's
    # -2 sigma margin could never fire
    f = graph_cut_function(4, [(0, 1, 1e300), (1, 2, 1e300), (2, 3, 1.0)])
    _, _, sigma = MultilinearEvaluator(f, 64, 1).value_and_partials(np.full(4, 0.5), stream=(0,))
    assert np.isfinite(sigma).all()
    assert sigma[:3].min() > 1e299 and 0.0 < sigma[3] < 1.0


# samples whose squared deviations neither overflow nor underflow: 0, or
# magnitudes from 1e-100 to 1e100 of either sign
_SAMPLE = st.one_of(st.just(0.0), st.floats(min_value=1e-100, max_value=1e100),
                    st.floats(min_value=-1e100, max_value=-1e-100))


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(min_value=0, max_value=4), size=st.integers(min_value=1, max_value=40), data=st.data())
def test_mean_and_sigma_match_the_plain_formula(rows, size, data):
    # scaling by a power of two is exact, so away from overflow the scaled
    # spread is the plain one bit for bit
    shape = (rows, size) if rows else (size,)
    samples = np.array(data.draw(st.lists(_SAMPLE, min_size=rows * size or size, max_size=rows * size or size)))
    samples = samples.reshape(shape)
    mean, sigma = mean_and_sigma(samples)
    ref_mean, ref_sigma = plain_mean_and_sigma(samples)
    assert np.asarray(mean).tobytes() == np.asarray(ref_mean).tobytes()
    assert np.asarray(sigma).tobytes() == np.asarray(ref_sigma).tobytes()


# samples across the float range: 0, the extremes 1e-300 and 1e300 that
# weights can reach, and magnitudes in between of either sign
_WIDE_SAMPLE = st.one_of(st.just(0.0), st.sampled_from([1e-300, -1e-300, 1e300, -1e300]),
                         st.floats(min_value=1e-300, max_value=1e300), st.floats(min_value=-1e300, max_value=-1e-300))


@st.composite
def _wide_samples(draw, count):
    """``count`` samples, spread across the float range or clustered a few
    ulps around one value, whose deviations from the mean are tiny."""
    if draw(st.booleans()):
        return draw(st.lists(_WIDE_SAMPLE, min_size=count, max_size=count))
    center = draw(_WIDE_SAMPLE)
    steps = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=count, max_size=count))
    return [center * (1.0 + k * 2.0**-52) for k in steps]


@settings(max_examples=400, deadline=None)
@given(rows=st.integers(min_value=0, max_value=4), size=st.integers(min_value=1, max_value=40), data=st.data())
def test_mean_and_sigma_match_the_scaled_reference_bit_for_bit(rows, size, data):
    # the plain formula where it gives the same bits, the scaled one elsewhere
    shape = (rows, size) if rows else (size,)
    samples = np.array(data.draw(_wide_samples(rows * size or size))).reshape(shape)
    mean, sigma = mean_and_sigma(samples)
    ref_mean, ref_sigma = scaled_mean_and_sigma(samples)
    assert type(mean) is type(ref_mean) and type(sigma) is type(ref_sigma)
    assert np.asarray(mean).tobytes() == np.asarray(ref_mean).tobytes()
    assert np.asarray(sigma).tobytes() == np.asarray(ref_sigma).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("samples", [
    [1e300, -1e300, 1e300, 0.0],  # squares overflow: scaled
    [1e-300, 3e-300, 2e-300],  # squares underflow: scaled
    [1.0, -1.0, 1e-300, 1e-300],  # the mean cancels to nearly 0: scaled
    [0.25, 0.5, 4.0],  # plain
    [7.0],  # one sample: sigma 0
    [[1e300, 1e300, -1e300], [0.5, 0.75, 1.0], [0.0, 0.0, 0.0], [1e-300, 0.0, -1e-300]],
])
def test_mean_and_sigma_at_the_ends_of_the_float_range(samples):
    mean, sigma = mean_and_sigma(samples)
    ref_mean, ref_sigma = scaled_mean_and_sigma(samples)
    assert np.asarray(mean).tobytes() == np.asarray(ref_mean).tobytes()
    assert np.asarray(sigma).tobytes() == np.asarray(ref_sigma).tobytes()
    assert np.isfinite(sigma).all()
