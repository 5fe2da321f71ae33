"""The two in-layouts behind every per-step sum and max (graph._InLayout):
which graphs get the (K, n) sender table, what the table holds, and that
both layouts give the references' bytes."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hullstop import (
    DiGraph,
    RatioState,
    RowState,
    bit_step,
    generate_digraph,
    make_weights,
    radius_step,
    ratio_step,
    row_step,
)
from hullstop.termination import _BoxRule
from oracles import (
    bit_step_reference,
    dense_weights,
    envelope_step_reference,
    in_sum_reference,
    radius_step_reference,
)
from test_consensus import _random_weights, _same_bytes


def _tabled(g):
    return g.in_layout.starts is None


def complete_minus(n, drop, seed):
    """The complete graph on n nodes without drop random off-diagonal edges.
    With 1 <= drop <= n - 2 it stays strongly connected (its edge
    connectivity is n - 1) and its in-degrees are unequal: some receiver
    keeps all n senders and some does not."""
    full = np.argwhere(np.ones((n, n), dtype=bool))
    off = np.flatnonzero(full[:, 0] != full[:, 1])
    gone = np.random.default_rng(seed).choice(off, size=drop, replace=False)
    return DiGraph(n, np.delete(full, gone, axis=0))


def circulant(n, offsets):
    """Node i hears i - o (mod n) for each offset o, 0 included: every
    in-degree is len(offsets), and the senders of i are not in offset order."""
    i = np.arange(n)
    return DiGraph(n, [(a, (a - o) % n) for o in offsets for a in i.tolist()])


@st.composite
def graphs(draw):
    """A ring, a complete graph or a circulant, which get the table, or a
    complete-minus-a-few graph or a sparse ER graph, which keep the edges."""
    family = draw(st.sampled_from(["ring", "complete", "circulant", "ragged", "er"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if family == "ring":
        g = generate_digraph(draw(st.integers(min_value=1, max_value=12)), "ring")
    elif family == "complete":
        g = generate_digraph(draw(st.integers(min_value=1, max_value=7)), "complete")
    elif family == "circulant":
        g = circulant(draw(st.integers(min_value=5, max_value=12)), (0, 1, 3))
    elif family == "ragged":
        n = draw(st.integers(min_value=3, max_value=8))
        g = complete_minus(n, draw(st.integers(min_value=1, max_value=n - 2)), seed)
    else:
        g = generate_digraph(draw(st.integers(min_value=12, max_value=18)), "erdos_renyi",
                             seed=seed, edge_prob=0.25)
    if family != "er":
        assert _tabled(g) == (family not in ("ragged", "er"))
    return g


def test_regular_graphs_get_the_table_others_keep_the_edges():
    assert _tabled(generate_digraph(60, "ring"))
    assert _tabled(generate_digraph(25, "complete"))
    assert _tabled(circulant(9, (0, 2, 5)))
    assert not _tabled(complete_minus(7, 5, seed=1))
    n = 1000
    er = generate_digraph(n, "erdos_renyi", seed=0, edge_prob=4 * math.log(n) / n)
    assert not _tabled(er)
    assert _same_bytes(er.in_layout.recv, er.edge_arrays[0])
    assert _same_bytes(er.in_layout.send, er.edge_arrays[1])
    W = make_weights(er, "column")
    assert W.slot_weights is W.edge_weights


@pytest.mark.parametrize("kind", ["column", "row"])
def test_table_holds_each_receivers_senders_and_weights(kind):
    g = circulant(9, (0, 2, 5))
    table = g.in_layout.send
    assert table.shape == (3, g.n)
    assert _same_bytes(g.in_layout.recv, np.arange(g.n)[None, :])
    W = make_weights(g, kind)
    for i, senders in enumerate(g.in_adj):
        assert table[:, i].tolist() == list(senders)
        assert _same_bytes(np.ascontiguousarray(W.slot_weights[:, i]), dense_weights(W)[i, table[:, i]])


def test_tables_are_read_only():
    g = generate_digraph(5, "ring")
    W = make_weights(g, "column")
    for table in (g.in_layout.send, g.in_layout.recv, W.slot_weights):
        with pytest.raises(ValueError):
            table[0, 0] = 1


def test_table_step_makes_one_in_sum(spy_calls):
    import hullstop.consensus as consensus
    g = generate_digraph(6, "ring")
    x0 = np.random.default_rng(3).random((6, 3))
    calls = spy_calls(consensus, "_in_sum")
    ratio_step(RatioState(x0, np.ones(6), x0, 0), make_weights(g, "column"))
    row_step(RowState(x0), make_weights(g, "row"))
    assert len(calls) == 2


@given(graphs(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000), st.data())
@settings(max_examples=60, deadline=None)
def test_both_layouts_sum_like_in_sum_reference_byte_for_byte(g, d, seed, data):
    n = g.n
    rng = np.random.default_rng(seed)
    values = st.floats(min_value=-1e3, max_value=1e3) | st.just(-0.0)
    drawn = data.draw(hnp.arrays(np.float64, (n, d), elements=values))
    y = data.draw(hnp.arrays(np.float64, n, elements=st.floats(min_value=0.01, max_value=10.0)))
    for x in (drawn, np.full((n, d), -0.0)):
        W = _random_weights(g, "column", rng)
        nxt = ratio_step(RatioState(x, y, x / y[:, None], 0), W)
        x_ref, y_ref = in_sum_reference(W, x), in_sum_reference(W, y)
        assert _same_bytes(nxt.x, x_ref)
        assert _same_bytes(nxt.y, y_ref)
        assert _same_bytes(nxt.r, x_ref / y_ref[:, None])
        A = _random_weights(g, "row", rng)
        assert _same_bytes(row_step(RowState(x), A).z, in_sum_reference(A, x))


@given(graphs(), st.integers(min_value=1, max_value=3), st.sampled_from([1.0, 2.0, np.inf]),
       st.data())
@settings(max_examples=80, deadline=None)
def test_both_layouts_reduce_like_reduceat_reference(g, d, p, data):
    # few distinct values, so maxima repeat and +0.0 ties -0.0
    n = g.n
    ties = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
    r_new, r_old, M, m = (data.draw(hnp.arrays(np.float64, (n, d), elements=ties))
                          for _ in range(4))
    R_old = data.draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 0.5, 1.0])))
    b = data.draw(hnp.arrays(np.uint8, n, elements=st.sampled_from([0, 1])))
    assert _same_bytes(radius_step(g, r_new, r_old, R_old, p),
                       radius_step_reference(g, r_new, r_old, R_old, p))
    assert _same_bytes(bit_step(g, b), bit_step_reference(g, b))
    rule = _BoxRule(g, 1.0, 2.0)
    rule.M, rule.m = M, m
    rule.step(None, None)
    M_ref, m_ref = envelope_step_reference(g, M, m)
    assert _same_bytes(rule.M, M_ref)
    assert _same_bytes(rule.m, m_ref)


@given(graphs(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000), st.data())
@settings(max_examples=60, deadline=None)
def test_both_layouts_sum_non_finite_and_overflowing_states_like_the_reference(g, d, seed, data):
    # the steps take any float state: an inf, or near-max values whose sum
    # overflows, must come out as the reference's inf (or nan), never as a
    # nan of the layout's own making
    n = g.n
    rng = np.random.default_rng(seed)
    values = st.sampled_from([np.inf, -np.inf, 1.7e308, -1.7e308, 1.0, 0.0, -0.0])
    x = data.draw(hnp.arrays(np.float64, (n, d), elements=values))
    W, A = _random_weights(g, "column", rng), _random_weights(g, "row", rng)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _same_bytes(ratio_step(RatioState(x, np.ones(n), x, 0), W).x,
                           in_sum_reference(W, x))
        assert _same_bytes(row_step(RowState(x), A).z, in_sum_reference(A, x))


@pytest.mark.parametrize("g", [generate_digraph(9, "ring"), complete_minus(7, 5, seed=1)],
                         ids=["table", "edges"])
@pytest.mark.parametrize("bit", [0, 1])
def test_bit_step_of_equal_bits_is_a_fresh_copy_of_the_reference(g, bit):
    b = np.full(g.n, bit, dtype=np.uint8)
    out = bit_step(g, b)
    assert _same_bytes(out, bit_step_reference(g, b))
    assert out.dtype == np.uint8
    assert out is not b and not np.shares_memory(out, b)


def test_radius_step_peak_memory_on_the_edge_layout():
    # the receiver-side gather r_new[recv] must stay a temporary numpy can
    # reuse in place: bound to a name, it keeps one more (E, d) array alive
    # and the peak reaches about 3.25 (E, d) float arrays, against 2.25
    n, d = 1000, 4
    g = generate_digraph(n, "erdos_renyi", seed=0, edge_prob=4 * math.log(n) / n)
    E = len(g.edges)
    assert not _tabled(g) and E == 28_538
    rng = np.random.default_rng(0)
    r_new, r_old, R_old = rng.random((n, d)), rng.random((n, d)), rng.random(n)
    radius_step(g, r_new, r_old, R_old)
    tracemalloc.start()
    try:
        radius_step(g, r_new, r_old, R_old)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * E * d * 8
