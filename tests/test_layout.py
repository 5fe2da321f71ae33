"""The slot-major in-layout behind every per-step sum and max
(graph._InLayout): what its slots and the groups of its cuts hold, which
graphs keep the identity ranking, that it gives the references' bytes on
regular and ragged graphs alike, with its slots gathered in one group or in
many, and that a step's memory is bounded by the byte budget of its groups,
not by the edge count."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hullstop import (
    DiGraph,
    RatioState,
    bit_step,
    generate_digraph,
    make_ratio_state,
    make_weights,
    radius_step,
    ratio_step,
    vector_norm,
)
from hullstop import graph
from hullstop.consensus import _Engine
from hullstop.graph import _in_sum
from hullstop.termination import _BoxRule
from oracles import (
    bit_step_reference,
    dense_weights,
    envelope_step_reference,
    in_sum_reference,
    radius_step_reference,
)
from test_consensus import _random_weights, _same_bytes


def _ranked(g):
    return g.in_layout.rank is not None


def _groups(g, width):
    """The groups of g's layout cut for gathers of width bytes a row."""
    return g.in_layout.cut(np.empty((g.n, width), dtype=np.uint8)).groups


def _full_slots(g):
    return all(m == g.n for _, m in g.in_layout.blocks)


def _check_groups(g, width):
    """The groups of g's layout cut for rows of width bytes are runs of
    whole consecutive slots that tile the slot rows in order, each within
    the layout's byte budget or a single slot, cut only where the next slot
    would not fit."""
    layout = g.in_layout
    groups = _groups(g, width)
    cap = layout.budget // width
    starts, ms = zip(*layout.blocks)
    assert list(starts) == np.cumsum((0,) + ms[:-1]).tolist()
    assert tuple((gr.rows.start + s, m) for gr in groups for s, m in gr.slots) == layout.blocks
    assert groups[0].rows.start == 0 and groups[-1].rows.stop == len(layout.send)
    for gr, nxt in zip(groups, groups[1:] + (None,)):
        s, m = gr.slots[-1]
        assert gr.rows.stop == gr.rows.start + s + m
        assert (gr.rows.stop - gr.rows.start) * width <= layout.budget or len(gr.slots) == 1
        assert gr.send.tolist() == layout.send[gr.rows].tolist()
        if nxt is not None:
            assert nxt.rows.start == gr.rows.stop
            assert nxt.rows.start + nxt.slots[0][1] > gr.rows.start + cap


def at_floor(g):
    """g rebuilt with the byte budget at its floor, one byte, so that every
    group of every cut is a single slot."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_BYTES", 1)
        floor = DiGraph(g.n, np.column_stack(g.edge_arrays), seed=g.seed, model=g.model)
    assert floor.in_layout.budget == 1 and floor.in_layout.blocks == g.in_layout.blocks
    for width in (1, 8, 96):
        _check_groups(floor, width)
        assert len(_groups(floor, width)) == len(g.in_layout.blocks)
    assert (len(_groups(floor, 1)) > 1) == (len(g.edges) > g.n)
    return floor


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
    """A ring, a complete graph or a circulant, whose slots are all full and
    whose ranking is the identity, or a complete-minus-a-few graph or a
    sparse ER graph, whose in-degrees differ; any of them with its slots in
    one group or, built with the gather budget at its floor, in many."""
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
        assert _full_slots(g) == (family != "ragged")
        assert _ranked(g) <= (family == "ragged")
    # one group for the widest rows the tests below gather: 12 floats
    assert len(_groups(g, 96)) == 1
    return at_floor(g) if draw(st.booleans()) else g


def test_equal_in_degrees_give_the_identity_ranking():
    for g in (generate_digraph(60, "ring"), generate_digraph(25, "complete"),
              circulant(9, (0, 2, 5))):
        layout = g.in_layout
        assert layout.ranked is None and layout.rank is None
        K = len(g.edges) // g.n
        assert layout.blocks == tuple((k * g.n, g.n) for k in range(K))
    n = 1000
    for g in (complete_minus(7, 5, seed=1),
              generate_digraph(n, "erdos_renyi", seed=0, edge_prob=4 * math.log(n) / n)):
        layout = g.in_layout
        deg = np.array([len(s) for s in g.in_adj])
        assert layout.ranked.tolist() == np.argsort(-deg, kind="stable").tolist()
        assert layout.rank[layout.ranked].tolist() == list(range(g.n))
        # the blocks tile the slots, and block k is the prefix of the
        # ranking with more than k senders
        starts, ms = zip(*layout.blocks)
        assert list(starts) == np.cumsum((0,) + ms[:-1]).tolist()
        assert sum(ms) == len(g.edges) == len(layout.send)
        for k, m in enumerate(ms):
            assert (deg[layout.ranked[:m]] > k).all() and (deg[layout.ranked[m:]] <= k).all()
        for width in (1, 40, 88, 1000):
            _check_groups(g, width)


@pytest.mark.parametrize("kind", ["column", "row"])
def test_table_holds_each_receivers_senders_and_weights(kind):
    for g in (circulant(9, (0, 2, 5)), complete_minus(7, 5, seed=1),
              generate_digraph(200, "erdos_renyi", seed=3, edge_prob=0.1)):
        layout = g.in_layout
        W = make_weights(g, kind)
        w = dense_weights(W)
        assert W.slot_weights.shape == layout.send.shape
        for i, senders in enumerate(g.in_adj):
            rank = i if layout.rank is None else layout.rank[i]
            slots = [start + rank for start, _ in layout.blocks[:len(senders)]]
            assert layout.send[slots].tolist() == list(senders)
            assert _same_bytes(W.slot_weights[slots], w[i, list(senders)])


def test_tables_are_read_only():
    ragged = complete_minus(7, 5, seed=1)
    assert _ranked(ragged)
    for g in (generate_digraph(5, "ring"), ragged):
        W = make_weights(g, "column")
        for table in (g.in_layout.send, g.in_layout.ranked, g.in_layout.rank, W.slot_weights):
            if table is None:
                continue
            with pytest.raises(ValueError):
                table[0] = 1


@pytest.mark.parametrize("g", [generate_digraph(9, "ring"),
                               generate_digraph(40, "erdos_renyi", seed=2, edge_prob=0.2)],
                         ids=["ring", "er"])
def test_engine_states_are_c_ordered(g):
    # the stopping rules gather state rows with ndarray.take, which first
    # copies a source that is not C-contiguous
    x0 = np.random.default_rng(1).random((g.n, 3))
    assert ratio_step(make_ratio_state(x0), make_weights(g, "column")).r.flags.c_contiguous
    for start in (x0, np.asfortranarray(x0)):
        eng = _Engine(make_weights(g, "row"), start)
        eng.step()
        assert eng.cur.flags.c_contiguous


def test_table_step_makes_one_in_sum(spy_calls):
    import hullstop.consensus as consensus
    g = generate_digraph(6, "ring")
    x0 = np.random.default_rng(3).random((6, 3))
    calls = spy_calls(consensus, "_in_sum")
    ratio_step(RatioState(x0, np.ones(6), x0, 0), make_weights(g, "column"))
    _Engine(make_weights(g, "row"), x0).step()
    assert len(calls) == 2


@given(graphs(), st.integers(min_value=1, max_value=3) | st.sampled_from([8, 11]),
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
        assert _same_bytes(_in_sum(A, x, g.in_layout.cut(x)), in_sum_reference(A, x))


@given(graphs(), st.integers(min_value=1, max_value=3), st.sampled_from([1.0, 2.0, np.inf]),
       st.data())
@settings(max_examples=80, deadline=None)
def test_both_layouts_reduce_like_the_sender_fold_reference(g, d, p, data):
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
    rule.begin(M)
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
        assert _same_bytes(_in_sum(A, x, g.in_layout.cut(x)), in_sum_reference(A, x))


@pytest.mark.parametrize("g", [generate_digraph(9, "ring"), complete_minus(7, 5, seed=1)],
                         ids=["table", "edges"])
@pytest.mark.parametrize("bit", [0, 1])
def test_bit_step_of_equal_bits_is_a_fresh_copy_of_the_reference(g, bit):
    b = np.full(g.n, bit, dtype=np.uint8)
    out = bit_step(g, b)
    assert _same_bytes(out, bit_step_reference(g, b))
    assert out.dtype == np.uint8
    assert out is not b and not np.shares_memory(out, b)


def test_radius_step_peak_memory_on_the_edge_layout(traced_peak):
    # radius_step fills each group's gathered (rows, d) difference in place
    # and folds it into (rows,) columns, one group of at most the byte
    # budget's rows at a time (10 groups of the 28.5k slot rows here):
    # about 0.24 (E, d) float arrays at the peak. One (E, d) gather of
    # every slot, filled in place, reached about 1.5, and a receiver-side
    # (E, d) gather bound to a name about 3.25
    n, d = 1000, 4
    g = generate_digraph(n, "erdos_renyi", seed=0, edge_prob=4 * math.log(n) / n)
    E = len(g.edges)
    assert _ranked(g) and E == 28_538
    rng = np.random.default_rng(0)
    r_new, r_old, R_old = rng.random((n, d)), rng.random((n, d)), rng.random(n)
    assert traced_peak(lambda: radius_step(g, r_new, r_old, R_old)) < 2.75 * E * d * 8


def test_radius_step_norms_its_gaps_in_place_from_eight_columns(traced_peak):
    # from d = 8 the norm reduces the gathered difference with
    # ufunc.reduce. Built with a budget that holds its 791 edges' gathered
    # rows, the graph gathers them as one group, so squaring that (E, d)
    # array in place holds one (E, d) array at the peak (about 1.13 with
    # the group's (E,) columns), where squares into a second one reached
    # about 2.02
    n, d = 50, 50
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_BLOCK_BYTES", 1 << 20)
        g = generate_digraph(n, "erdos_renyi", seed=0, edge_prob=0.3)
    E = len(g.edges)
    rng = np.random.default_rng(1)
    r_new, r_old, R_old = rng.random((n, d)), rng.random((n, d)), rng.random(n)
    assert len(g.in_layout.cut(r_old, R_old).groups) == 1
    assert traced_peak(lambda: radius_step(g, r_new, r_old, R_old)) < 1.25 * E * d * 8


@pytest.mark.parametrize("d", [4, 8, 50])
def test_radius_step_and_vector_norm_leave_their_inputs_unwritten(d):
    g = generate_digraph(30, "erdos_renyi", seed=2, edge_prob=0.3)
    rng = np.random.default_rng(d)
    for order in ("C", "F"):
        r_new, r_old = (np.asarray(rng.normal(size=(g.n, d)), order=order) for _ in range(2))
        R_old = rng.random(g.n)
        before = [a.tobytes() for a in (r_new, r_old, R_old)]
        for p in (1.0, 2.0, np.inf):
            radius_step(g, r_new, r_old, R_old, p)
            for a in (r_new, r_old):
                vector_norm(a, p)
                vector_norm(a, p, axis=0)
            assert [a.tobytes() for a in (r_new, r_old, R_old)] == before


def test_box_step_peak_memory_on_the_edge_layout(traced_peak):
    # the envelopes start from the engine's own state, and ndarray.take
    # copies a source that is not C-contiguous whole before it gathers, so
    # ratio_step must hand out r in C order. One step holds a group's
    # (rows, d) slot gather, the intp copy take makes of the group's
    # read-only senders and the (n, d) envelopes, about 0.22 MB at the
    # peak here against the 1.17 of one (E, d) gather of every slot, which
    # this bound was set for; a copied source adds one more (n, d) array
    n, d = 1000, 4
    g = generate_digraph(n, "erdos_renyi", seed=0, edge_prob=4 * math.log(n) / n)
    E = len(g.edges)
    assert _ranked(g) and E == 28_538
    W = make_weights(g, "column")
    r = ratio_step(make_ratio_state(np.random.default_rng(0).random((n, d))), W).r
    rule = _BoxRule(g, 1.0, 2.0)

    def box_step():
        rule.begin(r)
        rule.step(None, None)

    assert traced_peak(box_step) < E * d * 8 + E * 8 + n * d * 8 + n * d * 8 // 2


def test_step_memory_is_bounded_by_the_gather_groups_not_the_edge_count(traced_peak):
    # complete(300) has E = 90,000 slot rows; a ratio step gathers them in
    # 75 groups of 4 slots (1,200 rows of d + 1 floats) within the byte
    # budget, a box step in 60 groups of 5. A ratio step, a radius step and
    # a box step each peak at one group's gather plus their own (n, d + 1)
    # arrays, 1.0 to 1.75 budgets; one gather of every slot reached about
    # 60 budgets
    n, d = 300, 10
    g = generate_digraph(n, "complete")
    unit = graph._BLOCK_BYTES
    W = make_weights(g, "column")
    s0 = make_ratio_state(np.random.default_rng(0).random((n, d)))
    s1 = ratio_step(s0, W)
    R = np.random.default_rng(1).random(n)
    assert len(g.edges) == n * n and len(g.in_layout.cut(s1.r, R).groups) == 75
    rule = _BoxRule(g, 1.0, 2.0)

    def box_step():
        rule.begin(s1.r)
        rule.step(None, None)

    for step in (lambda: ratio_step(s1, W), lambda: radius_step(g, s1.r, s0.r, R), box_step):
        assert traced_peak(step) < 2 * unit


@pytest.mark.parametrize("d", [1, 4, 7, 8, 10, 50])
@pytest.mark.parametrize("g", [circulant(11, (0, 1, 4)), complete_minus(8, 4, seed=2),
                               generate_digraph(16, "erdos_renyi", seed=5, edge_prob=0.25),
                               generate_digraph(200, "erdos_renyi", seed=1, edge_prob=0.1),
                               at_floor(circulant(11, (0, 1, 4))),
                               at_floor(generate_digraph(200, "erdos_renyi", seed=1,
                                                         edge_prob=0.1))],
                         ids=["table", "ragged", "er", "wide", "table-floor", "wide-floor"])
def test_engine_states_reduce_like_the_references_in_either_memory_order(g, d):
    # the states the stopping rules really get: make_ratio_state's r (with
    # -0.0 entries, so maxima and minima tie +0.0 against -0.0) and then
    # ratio_step's r in its own memory order; the public radius_step must
    # give the same bytes for C- and F-ordered copies of them. From d = 8
    # numpy sums a row pairwise, so a sum that took the terms in another
    # order would change the bytes
    rng = np.random.default_rng(d)
    ties = np.array([0.0, -0.0, 1.0, -1.0, 0.5])
    for x0 in (ties[rng.integers(0, len(ties), (g.n, d))], np.full((g.n, d), -0.0)):
        for W in (make_weights(g, "column"), _random_weights(g, "column", rng)):
            states = [make_ratio_state(x0)]
            for _ in range(3):
                states.append(ratio_step(states[-1], W))
                assert _same_bytes(states[-1].x, in_sum_reference(W, states[-2].x))
            rs = [s.r for s in states]
            rule = _BoxRule(g, 1.0, 2.0)
            rule.begin(rs[0])
            M = m = rs[0]
            R = np.zeros(g.n)
            for r_old, r_new in zip(rs, rs[1:]):
                for p in (1.0, 2.0, np.inf):
                    ref = radius_step_reference(g, r_new, r_old, R, p)
                    for order in ("C", "F"):
                        out = radius_step(g, np.asarray(r_new, order=order),
                                          np.asarray(r_old, order=order), R, p)
                        assert _same_bytes(out, ref)
                R = radius_step(g, r_new, r_old, R)
                rule.step(r_old, r_new)
                M, m = envelope_step_reference(g, M, m)
                assert _same_bytes(rule.M, M)
                assert _same_bytes(rule.m, m)
