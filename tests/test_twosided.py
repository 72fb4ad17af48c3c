import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import per_mask, random_coverage, single_edge_cut, triangle_cut
from lemmas import check_loss_gain
from submax.fixtures import random_graph_cut
from submax.oracle import brute_unconstrained
from submax.rng import substream
from submax.setfn import SetFunction, graph_cut_function, restrict_function
from submax.subsets import indices
from submax.twosided import run_two_sided


def zero_function(n):
    return SetFunction(n, per_mask(lambda m: 0.0))


def test_single_edge_hand_trace():
    # element 0 ties (a = b = 1) and takes the X branch; element 1 leaves Y
    f = single_edge_cut()
    out = run_two_sided(f)
    assert out == 0b01 and f.eval(out) == 1.0
    rep = check_loss_gain(f, out, out)
    assert rep.details["steps"] == [(1.0, 1.0), (-1.0, 1.0)]
    assert rep.details["rule_ok"] and rep.passed


def test_zero_function_takes_all_x_branches():
    f = zero_function(5)
    out = run_two_sided(f)
    assert out == 0b11111
    assert f.eval(out) == 0.0


def test_triangle_reaches_optimum():
    f = triangle_cut()
    out = run_two_sided(f)
    assert f.eval(out) == 2.0


def test_oracle_call_budget():
    f = random_graph_cut(10, seed=1)
    before = f.query_count
    run_two_sided(f)
    used = f.query_count - before
    assert used == 2 * 10 + 2  # two fresh marginal evals per element
    assert used <= 4 * 10 + 2


def test_ground_set_comes_from_f():
    # a ground set of 3 would run the greedy over 3 of f's 5 elements (mask 3
    # instead of 19), so run_two_sided accepts none
    f = random_graph_cut(5, seed=3)
    with pytest.raises(TypeError):
        run_two_sided(f, 3)
    assert run_two_sided(f) == 19


def test_trace_nesting_invariants():
    # the trace is the oracle's query log: f(X_0), f(Y_0), then f(X_{i-1} + u_i)
    # and f(Y_{i-1} - u_i) for each i, where X_{i-1} is X_n's share of the
    # elements before u_i and Y_{i-1} is X_{i-1} plus u_i and every element
    # after it, so X_{i-1} subseteq Y_{i-1}
    n, full = 8, 255
    for seed in range(20):
        f = random_graph_cut(n, seed)
        asked = []

        def logged(masks, f=f, asked=asked):
            asked.extend(masks.ravel().tolist())
            return f.eval_many(masks)

        out = run_two_sided(SetFunction(n, logged, symmetric=True))
        assert out == run_two_sided(f)
        assert asked[:2] == [0, full] and len(asked) == 2 * n + 2
        for u in range(n):
            before = (1 << u) - 1
            x = out & before
            y = x | full ^ before
            assert asked[2 + 2 * u : 4 + 2 * u] == [x | 1 << u, y & ~(1 << u)]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=10), seed=st.integers(min_value=0, max_value=1000))
def test_symmetric_half_guarantee(n, seed):
    f = random_graph_cut(n, seed)
    out = run_two_sided(f)
    _, opt = brute_unconstrained(f)
    assert f.eval(out) >= 0.5 * opt - 1e-9


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=500))
def test_general_third_guarantee(n, seed):
    f = random_coverage(n, seed)
    out = run_two_sided(f)
    _, opt = brute_unconstrained(f)
    assert f.eval(out) >= opt / 3.0 - 1e-9


def test_branches_invariant_under_positive_scaling():
    # the output names every branch
    f = random_graph_cut(8, seed=3)
    scaled = SetFunction(8, per_mask(lambda m: 7.5 * f.eval(m)), symmetric=True)
    assert run_two_sided(f) == run_two_sided(scaled)


def test_edge_order_cannot_decide_a_tie():
    # at element 1 (X = {0}, Y = N) both marginals are exactly 0.4, the
    # weight of its edges to 2 and 4; summed in these two edge orders they
    # differ in the last bit, which decided the branch before ties got a band
    edges = [[0, 4, 0.7], [0, 5, 0.3], [2, 5, 0.2], [2, 4, 0.7], [1, 4, 0.2], [0, 3, 0.3], [1, 2, 0.2]]
    outs = set()
    for listed in (edges, edges[::-1]):
        f = graph_cut_function(6, listed)
        out = run_two_sided(f)
        assert out & 0b10  # element 1 took the X branch
        a, b = check_loss_gain(f, out, out).details["steps"][1]
        assert abs(a - b) <= 1e-15
        outs.add(out)
    assert outs == {0b0011}


def test_custom_order_changes_output_not_guarantee():
    # keeping all n elements in another order relabels f: the greedy on the
    # relabelled f walks f's elements in that order
    f = random_graph_cut(7, seed=4)
    _, opt = brute_unconstrained(f)
    for order in ([6, 5, 4, 3, 2, 1, 0], [3, 0, 6, 2, 5, 1, 4]):
        g = restrict_function(f, order)
        assert g.symmetric
        out = run_two_sided(g)
        value = f.eval({order[i] for i in indices(out)})
        assert value == g.eval(out)
        assert value >= 0.5 * opt - 1e-9


def test_loss_gain_ledger_examples():
    f = zero_function(4)
    rep = check_loss_gain(f, run_two_sided(f), 0b0101)
    assert rep.passed and rep.details["worst_loss_minus_gain"] == rep.details["tolerance"] == 0.0  # all sides 0

    edge = single_edge_cut()
    assert check_loss_gain(edge, run_two_sided(edge), [0]).passed


def test_loss_gain_ledger_checks_the_output_it_is_given():
    # an output the greedy did not make breaks the decision rule at the
    # first element where it differs: it is no replay of a run
    f = random_graph_cut(8, seed=2)
    out = run_two_sided(f)
    assert check_loss_gain(f, out, out).passed
    for wrong in (out ^ 1, out ^ 1 << 7, ~out & 0xFF):
        assert not check_loss_gain(f, wrong, out).details["rule_ok"]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=9), seed=st.integers(min_value=0, max_value=500))
def test_loss_gain_ledger_random_instances(n, seed):
    f = random_graph_cut(n, seed)
    opt_mask, _ = brute_unconstrained(f)
    rep = check_loss_gain(f, run_two_sided(f), opt_mask)
    assert rep.passed, rep.details
    assert rep.details["tolerance"] <= 1e-9  # no looser than the absolute 1e-9 it replaces


def test_loss_gain_ledger_holds_at_large_weights():
    # every weight times 2^40 scales each f value, and each rounding error,
    # by 2^40: a tolerance relative to |f| keeps the verdict, where an
    # absolute 1e-9 failed falsely on 7 of these 60 cuts
    for seed in range(60):
        rng = substream(seed, 0x1ED6)
        n = int(rng.integers(2, 11))
        edges = [(u, v, float(rng.uniform(0.1, 1.0)) * 2.0**40)
                 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6] or [(0, 1, 2.0**40)]
        f = graph_cut_function(n, edges)
        opt_mask, _ = brute_unconstrained(f)
        rep = check_loss_gain(f, run_two_sided(f), opt_mask)
        assert rep.passed, (seed, rep.details)

