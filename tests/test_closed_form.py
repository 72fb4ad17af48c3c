"""Differential tests of the closed-form multilinear backend.

The closed form of every family and wrapper must match the 2^n table fold
(``lemmas.table_fold``) within 1e-12 (value and gradient), and the seeded
sampled estimator within 4 sigma at a size the table cannot reach.  A stack
of points must give each point's F and gradient bit for bit as a stack of
that point alone, and as the closed form that read one point at a time
(``lemmas.point_by_point_closed_form``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import complement_function, modular_function, random_coverage, random_offset_cut, sum_functions
from lemmas import point_by_point_closed_form, table_fold
from submax.fixtures import random_graph_cut, random_hypergraph_cut
from submax.multilinear import MultilinearEvaluator
from submax.rng import substream
from submax.setfn import (
    TABLE_LIMIT,
    SetFunction,
    coverage_function,
    graph_cut_function,
    hardness_instance,
    hypergraph_cut_function,
    restrict_function,
)

TOL = 1e-12


def _hookless(f: SetFunction) -> SetFunction:
    """The same oracle with no multilinear hook."""
    return SetFunction(f.n, f.eval_many, symmetric=f.symmetric)


def _table_reference(f: SetFunction) -> SetFunction:
    """The same oracle whose exact F folds its value table."""
    ref = _hookless(f)
    ref.multilinear = table_fold(ref)
    return ref


def _all_arities(n: int, seed: int) -> SetFunction:
    """Hypergraph cut with hyperedges of every arity from 2 up to n."""
    rng = substream(seed, 0xA7)
    hyperedges = []
    for arity in range(2, n + 1):
        verts = frozenset(int(v) for v in rng.choice(n, size=arity, replace=False))
        hyperedges.append((verts, float(rng.uniform(0.1, 1.0))))
    return hypergraph_cut_function(n, hyperedges)


def _all_pairs(n: int, seed: int) -> SetFunction:
    """Hypergraph cut whose hyperedges are all the pairs: rows of width 2."""
    rng = substream(seed, 0xA2)
    pairs = [frozenset({u, v}) for u in range(n) for v in range(u + 1, n)]
    weights = map(float, rng.uniform(0.1, 1.0, len(pairs)))
    return hypergraph_cut_function(n, list(zip(pairs, weights)))


def _narrow_coverage(n: int, width: int, seed: int) -> SetFunction:
    """Coverage in which each of 2n items has at most ``width`` coverers (and
    some have none)."""
    rng = substream(seed, 0xC2)
    coverers = [rng.choice(n, size=int(rng.integers(0, width + 1)), replace=False) for _ in range(2 * n)]
    membership = tuple(tuple(j for j, row in enumerate(coverers) if u in row) for u in range(n))
    weights = tuple(map(float, rng.uniform(0.1, 1.0, 2 * n)))
    return coverage_function(n, weights, membership)


def _ragged_coverage() -> SetFunction:
    """Coverage whose universe has items no element covers (5, 6) and whose
    membership lists repeat entries."""
    membership = ((0, 0, 1), (1, 2, 2, 2), (), (3,), (0, 3, 3), (4, 1, 4), (2,), (0, 1, 2, 3, 4))
    weights = (0.5, 1.0, 0.25, 2.0, 0.75, 3.0, 1.5)
    return coverage_function(8, weights, membership)


def _families() -> dict[str, SetFunction]:
    cut = random_graph_cut(10, seed=1)
    hyper = _all_arities(9, seed=2)
    coverage = random_coverage(10, seed=3)
    modular = modular_function(7, np.linspace(-0.5, 1.5, 7))
    return {
        "graph_cut": cut,
        "hypergraph_cut_all_arities": hyper,
        "random_hypergraph_cut": random_hypergraph_cut(11, seed=5),
        "hypergraph_cut_all_pairs": _all_pairs(7, seed=9),
        "coverage": coverage,
        "coverage_width_1": _narrow_coverage(9, 1, seed=10),
        "coverage_width_2": _narrow_coverage(10, 2, seed=11),
        "ragged_coverage": _ragged_coverage(),
        "hardness": hardness_instance(2, 5),
        "modular": modular,
        "sum": random_offset_cut(9, seed=4),
        "sum_of_three": sum_functions(
            [random_coverage(8, seed=6), random_graph_cut(8, seed=7), modular_function(8, np.ones(8))]
        ),
        "complement_cut": complement_function(cut),
        "complement_coverage": complement_function(coverage),
        "complement_hyper": complement_function(hyper),
        "restrict_cut": restrict_function(cut, [0, 2, 3, 7, 9]),
        "restrict_hyper": restrict_function(hyper, [1, 2, 4, 5, 8]),
        "restrict_coverage": restrict_function(coverage, [9, 1, 4, 6]),
        "complement_of_restrict": complement_function(restrict_function(coverage, [0, 3, 5, 6, 8])),
    }


def _points(n: int, seed: int) -> list[np.ndarray]:
    """Interior points, cube vertices, and points with some coordinates at 0 or 1."""
    rng = substream(seed, n)
    points = [rng.random(n) for _ in range(4)]
    points += [np.zeros(n), np.ones(n)]
    points += [((m >> np.arange(n)) & 1).astype(float) for m in rng.integers(0, 1 << n, size=6)]
    for _ in range(4):
        x = rng.random(n)
        pinned = rng.random(n) < 0.4
        x[pinned] = rng.integers(0, 2, size=int(pinned.sum()))
        points.append(x)
    return points


@pytest.mark.parametrize("name", sorted(_families()))
def test_closed_form_matches_table_fold(name):
    f = _families()[name]
    assert f.n <= 12 and f.multilinear is not None
    closed = MultilinearEvaluator(f)
    table = MultilinearEvaluator(_table_reference(f))
    assert closed.backend == table.backend == "closed_form"
    for x in _points(f.n, seed=len(name)):
        value, grad, sigma = closed.value_and_partials(x)
        ref_value, ref_grad, _ = table.value_and_partials(x)
        assert sigma is None
        assert abs(value - ref_value) <= TOL
        assert np.max(np.abs(grad - ref_grad)) <= TOL
        assert abs(closed.value(x) - ref_value) <= TOL


def test_closed_form_queries_no_oracle():
    f = random_coverage(12, seed=8)
    ev = MultilinearEvaluator(f)
    ev.value_and_partials(np.full(12, 0.3))
    ev.value(np.full(12, 0.7))
    assert f.query_count == 0


def test_backend_choice():
    cut = random_graph_cut(6, seed=0)
    no_hook = _hookless(cut)
    assert MultilinearEvaluator(cut).backend == "closed_form"
    assert MultilinearEvaluator(cut, samples=1).backend == "sampled"
    assert MultilinearEvaluator(no_hook, samples=1).backend == "sampled"
    # a sum keeps the closed form only when every summand has one
    assert sum_functions([cut, no_hook]).multilinear is None


@pytest.mark.parametrize("n", [3, 20])
def test_hookless_exact_evaluator_names_both_remedies(n):
    f = _hookless(random_graph_cut(n, seed=n))
    with pytest.raises(ValueError, match="multilinear hook.*samples="):
        MultilinearEvaluator(f)
    assert f.query_count == 0


def test_table_limit_binds_only_the_table():
    f = random_graph_cut(20, seed=9)
    ev = MultilinearEvaluator(f)  # closed form: no table, so F and its gradient need no 2^n sets
    value, grad, _ = ev.value_and_partials(np.full(20, 0.5))
    # F(1/2) = half the total weight, and the singleton cuts count each edge twice
    assert value == pytest.approx(0.25 * sum(f.eval([u]) for u in range(20)), abs=1e-12)
    assert np.allclose(grad, 0.0)
    with pytest.raises(ValueError, match=f"n must be <= {TABLE_LIMIT}"):
        MultilinearEvaluator(random_graph_cut(TABLE_LIMIT + 1, seed=9)).table()
    with pytest.raises(ValueError):
        MultilinearEvaluator(_hookless(f))


@pytest.mark.parametrize(
    "f",
    [random_graph_cut(30, seed=21), random_hypergraph_cut(30, seed=22), random_coverage(30, seed=23)],
    ids=["graph_cut", "hypergraph_cut", "coverage"],
)
def test_closed_form_within_4_sigma_of_sampled(f):
    # moderate coordinates keep every marginal's events frequent, so each
    # sample sigma is a real estimate (a never-seen event would give sigma 0);
    # sigma is exactly 0 only for an element no edge or item touches
    x = substream(24, f.n).uniform(0.05, 0.35, size=f.n)
    _, grad, _ = MultilinearEvaluator(f).value_and_partials(x)
    sampled = MultilinearEvaluator(f, samples=2000, seed=25)
    _, est, sigma = sampled.value_and_partials(x)
    assert np.all(np.abs(est - grad) <= 4.0 * sigma + TOL)


# row families for the stacked reads: width-2 cut rows, wider cut rows,
# coverage and ragged coverage rows, restrictions with absent members, the
# hardness fixture, no rows, and no elements
_STACKED = {
    "graph_cut": random_graph_cut(9, seed=31),
    "hypergraph_cut": _all_arities(8, seed=32),
    "coverage": random_coverage(9, seed=33),
    "ragged_coverage": _ragged_coverage(),
    "restrict_cut": restrict_function(random_graph_cut(9, seed=34), [8, 0, 3, 5]),
    "restrict_hyper": restrict_function(_all_arities(8, seed=35), [1, 2, 6]),
    "restrict_coverage": restrict_function(random_coverage(9, seed=36), [4, 7, 0, 2, 8]),
    "hardness": hardness_instance(2, 4),
    "no_rows": graph_cut_function(5, []),
    "no_elements": coverage_function(0, [0.5, 1.5], []),
}
_COORDINATE = st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(_STACKED)), s=st.integers(min_value=1, max_value=3), data=st.data())
def test_a_stacked_read_gives_each_point_what_a_read_of_it_alone_gives(name, s, data):
    f = _STACKED[name]
    X = np.array(data.draw(st.lists(_COORDINATE, min_size=s * f.n, max_size=s * f.n)), dtype=float).reshape(s, f.n)
    values, grads = f.multilinear(X)
    assert values.shape == (s,) and grads.shape == (s, f.n)
    ref_values, ref_grads = point_by_point_closed_form(f)(X)
    assert values.tobytes() == ref_values.tobytes() and grads.tobytes() == ref_grads.tobytes()
    ev = MultilinearEvaluator(f)
    stacked_values, stacked_grads, sigma = ev.value_and_partials(X)
    assert sigma is None and stacked_values.tobytes() == values.tobytes() and stacked_grads.tobytes() == grads.tobytes()
    assert ev.value(X).tobytes() == values.tobytes()
    for j, x in enumerate(X):
        alone_values, alone_grads = f.multilinear(X[j : j + 1])
        assert alone_values.tobytes() == values[j : j + 1].tobytes()
        assert alone_grads.tobytes() == grads[j : j + 1].tobytes()
        value, grad, _ = ev.value_and_partials(x)
        assert value == ev.value(x) == values[j] and grad.tobytes() == grads[j].tobytes()


@pytest.mark.parametrize("s", [1, 2, 3])
def test_a_sampled_stack_reads_row_j_on_its_own_stream(s):
    # row j of a stack is the point alone on stream (*stream, j), bit for bit
    f = random_hypergraph_cut(10, seed=37)
    X = substream(38, s).random((s, f.n))
    X[:, 0] = 1.0
    est = dict(samples=48, seed=39)
    values, grads, sigmas = MultilinearEvaluator(f, **est).value_and_partials(X, stream=(4, 7))
    stacked = MultilinearEvaluator(f, **est).value(X, stream=(4, 7))
    alone = MultilinearEvaluator(f, **est)
    for j, x in enumerate(X):
        value, grad, sigma = alone.value_and_partials(x, stream=(4, 7, j))
        assert value == values[j] and grad.tobytes() == grads[j].tobytes() and sigma.tobytes() == sigmas[j].tobytes()
        assert alone.value(x, stream=(4, 7, j)) == stacked[j]
