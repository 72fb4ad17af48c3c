import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import per_mask, random_coverage, single_edge_cut, triangle_cut
from submax.fixtures import random_graph_cut
from submax.oracle import brute_unconstrained
from submax.setfn import SetFunction, graph_cut_function, restrict_function
from submax.subsets import indices
from submax.twosided import check_loss_gain, run_two_sided


def zero_function(n):
    return SetFunction(n, per_mask(lambda m: 0.0))


def test_single_edge_hand_trace():
    f = single_edge_cut()
    out, trace = run_two_sided(f)
    assert out == 0b01 and f.eval(out) == 1.0
    s1, s2 = trace.steps
    assert (s1.a, s1.b, s1.branch) == (1.0, 1.0, "X")  # tie takes the X branch
    assert (s2.a, s2.b, s2.branch) == (-1.0, 1.0, "Y")


def test_zero_function_takes_all_x_branches():
    f = zero_function(5)
    out, trace = run_two_sided(f)
    assert out == 0b11111
    assert all(s.branch == "X" for s in trace.steps)
    assert f.eval(out) == 0.0


def test_triangle_reaches_optimum():
    f = triangle_cut()
    out, _ = run_two_sided(f)
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
    assert run_two_sided(f)[0] == 19


def test_trace_nesting_invariants():
    # the trace keeps each step's branch, not its sets: rebuilding X_i and Y_i
    # from the branches keeps X_i subseteq Y_i and ends at X_n = Y_n = output
    f = random_graph_cut(8, seed=2)
    out, trace = run_two_sided(f)
    assert [s.i for s in trace.steps] == list(range(1, 9))
    x, y = 0, (1 << 8) - 1
    for s in trace.steps:
        bit = 1 << (s.i - 1)
        x, y = (x | bit, y) if s.branch == "X" else (x, y & ~bit)
        assert x & ~y == 0  # X_i subseteq Y_i
    assert x == y == out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=10), seed=st.integers(min_value=0, max_value=1000))
def test_symmetric_half_guarantee(n, seed):
    f = random_graph_cut(n, seed)
    out, _ = run_two_sided(f)
    _, opt = brute_unconstrained(f)
    assert f.eval(out) >= 0.5 * opt - 1e-9


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=500))
def test_general_third_guarantee(n, seed):
    f = random_coverage(n, seed)
    out, _ = run_two_sided(f)
    _, opt = brute_unconstrained(f)
    assert f.eval(out) >= opt / 3.0 - 1e-9


def test_branches_invariant_under_positive_scaling():
    f = random_graph_cut(8, seed=3)
    scaled = SetFunction(8, per_mask(lambda m: 7.5 * f.eval(m)), symmetric=True)
    _, trace = run_two_sided(f)
    _, trace_scaled = run_two_sided(scaled)
    assert [s.branch for s in trace.steps] == [s.branch for s in trace_scaled.steps]


def test_edge_order_cannot_decide_a_tie():
    # at element 1 (X = {0}, Y = N) both marginals are exactly 0.4, the
    # weight of its edges to 2 and 4; summed in these two edge orders they
    # differ in the last bit, which decided the branch before ties got a band
    edges = [[0, 4, 0.7], [0, 5, 0.3], [2, 5, 0.2], [2, 4, 0.7], [1, 4, 0.2], [0, 3, 0.3], [1, 2, 0.2]]
    outs = set()
    for listed in (edges, edges[::-1]):
        out, trace = run_two_sided(graph_cut_function(6, listed))
        assert trace.steps[1].branch == "X"
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
        out, _ = run_two_sided(g)
        value = f.eval({order[i] for i in indices(out)})
        assert value == g.eval(out)
        assert value >= 0.5 * opt - 1e-9


def test_loss_gain_ledger_examples():
    f = zero_function(4)
    _, trace = run_two_sided(f)
    assert check_loss_gain(f, trace, 0b0101).passed  # all sides 0, equality

    edge = single_edge_cut()
    _, trace = run_two_sided(edge)
    assert check_loss_gain(edge, trace, [0]).passed


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=9), seed=st.integers(min_value=0, max_value=500))
def test_loss_gain_ledger_random_instances(n, seed):
    f = random_graph_cut(n, seed)
    _, trace = run_two_sided(f)
    opt_mask, _ = brute_unconstrained(f)
    rep = check_loss_gain(f, trace, opt_mask)
    assert rep.passed, rep.details

