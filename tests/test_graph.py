import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullstop import (
    DiGraph,
    StochasticMatrix,
    consensus_limit,
    generate_digraph,
    graph_to_json,
    make_weights,
)
import hullstop.graph as graph
from oracles import (dense_weights, er_draw_reference, floyd_warshall_diameter,
                     generate_er_reference, m_hop_senders, out_adjacency, reach_set)


def ring(n):
    edges = [(i, i) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    return DiGraph(n=n, edges=tuple(sorted(edges)))


def test_edges_sorted_and_deduped():
    g = DiGraph(n=2, edges=((1, 0), (0, 0), (1, 1), (0, 1), (0, 0)))
    assert g.edges == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_self_loops_required():
    with pytest.raises(ValueError):
        DiGraph(n=2, edges=((0, 0), (1, 0), (0, 1)))


def test_strong_connectivity_required():
    # 2 -> 1 -> 0 with no path back up
    edges = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2))
    with pytest.raises(ValueError):
        DiGraph(n=3, edges=edges)


def test_edge_endpoints_validated():
    with pytest.raises(ValueError):
        DiGraph(n=2, edges=((0, 0), (1, 1), (2, 0)))


def test_out_of_range_message_names_the_edge():
    loops = ((0, 0), (1, 1))
    with pytest.raises(ValueError, match=r"edge \(2, 0\) out of range for n=2"):
        DiGraph(n=2, edges=loops + ((2, 0), (1, 0)))
    with pytest.raises(ValueError, match=r"edge \(0, -1\) out of range for n=2"):
        DiGraph(n=2, edges=loops + ((1, 5), (0, -1)))


def test_self_loop_message_names_the_node():
    with pytest.raises(ValueError, match="node 2 is missing its self-loop"):
        DiGraph(n=4, edges=((0, 0), (1, 1), (3, 3), (3, 2)))


# 0 -> 1 and 0 -> 2 reach everyone from node 0, but only 1 -> 0 leads back
_ONE_WAY = ((0, 0), (1, 1), (2, 2), (1, 0), (2, 0), (0, 1))


@pytest.mark.parametrize("edges", [
    _ONE_WAY,
    tuple((j, i) for i, j in _ONE_WAY),
], ids=["node 2 cannot reach 0", "0 cannot reach node 2"])
def test_strong_connectivity_needs_both_directions(edges):
    with pytest.raises(ValueError, match="not strongly connected"):
        DiGraph(n=3, edges=edges)


def test_unsorted_duplicated_input_matches_generated_graph():
    g = generate_digraph(40, "erdos_renyi", seed=6, edge_prob=0.15)
    rng = np.random.default_rng(0)
    shuffled = [g.edges[k] for k in rng.permutation(len(g.edges))]
    messy = DiGraph(n=g.n, edges=tuple(shuffled + shuffled[::3]))
    assert messy.edges == g.edges
    assert [type(v) for e in messy.edges[:3] for v in e] == [int] * 6
    dst, src = messy.edge_arrays
    assert list(zip(dst.tolist(), src.tolist())) == list(g.edges)
    for v in range(g.n):
        assert messy.in_adj[v] == tuple(j for i, j in g.edges if i == v)


def test_in_out_adjacency():
    g = ring(4)
    # edge (i, j) carries information j -> i
    assert g.in_adj[1] == (0, 1)
    assert out_adjacency(g)[0] == (0, 1)


def test_ring_diameter():
    assert ring(7).diameter == 6
    assert generate_digraph(5, "complete", seed=0).diameter == 1
    assert generate_digraph(1, "ring", seed=0).diameter == 0


@pytest.mark.parametrize("seed", range(8))
def test_diameter_against_floyd_warshall(seed):
    g = generate_digraph(9, "erdos_renyi", seed=seed, edge_prob=0.3)
    assert g.diameter == floyd_warshall_diameter(g.n, g.edges)


def _path_with_back_edge(n):
    """0 -> 1 -> ... -> n-1 plus the single back edge n-1 -> 0."""
    edges = [(i, i) for i in range(n)] + [(i + 1, i) for i in range(n - 1)]
    return DiGraph(n=n, edges=tuple(edges + [(0, n - 1)]))


def _bidirected_path(n):
    edges = [(i, i) for i in range(n)] + [(i + 1, i) for i in range(n - 1)]
    return DiGraph(n=n, edges=tuple(edges + [(i, i + 1) for i in range(n - 1)]))


# sizes on both sides of the 8-bit byte boundaries of the packed rows
@pytest.mark.parametrize("n", [2, 7, 8, 9, 16, 17, 25])
@pytest.mark.parametrize("build", [ring, _path_with_back_edge, _bidirected_path])
def test_long_diameters_against_floyd_warshall(build, n):
    g = build(n)
    assert g.diameter == floyd_warshall_diameter(g.n, g.edges) == n - 1


@pytest.mark.parametrize("n", [5, 12, 20, 30])
@pytest.mark.parametrize("seed", range(3))
def test_sparse_diameter_against_floyd_warshall(n, seed):
    g = generate_digraph(n, "erdos_renyi", seed=seed, edge_prob=2.5 / n)
    assert g.diameter == floyd_warshall_diameter(g.n, g.edges)


@pytest.mark.parametrize("seed", range(6))
def test_generated_graphs_strongly_connected(seed):
    g = generate_digraph(12, "erdos_renyi", seed=seed, edge_prob=0.25)
    out = dict(enumerate(out_adjacency(g)))
    inc = {i: [s for s in g.in_adj[i]] for i in range(g.n)}
    for v in range(g.n):
        assert reach_set(out, v) == set(range(g.n))
        assert reach_set(inc, v) == set(range(g.n))


def test_generation_deterministic_in_seed():
    a = generate_digraph(10, "erdos_renyi", seed=3, edge_prob=0.4)
    b = generate_digraph(10, "erdos_renyi", seed=3, edge_prob=0.4)
    assert a.edges == b.edges


def test_accepted_draw_checks_connectivity_once(spy_calls):
    # construction decides strong connectivity by the diameter's flood and
    # keeps the result: reading g.diameter floods nothing more
    calls = spy_calls(graph, "_flood")
    g = generate_digraph(8, "erdos_renyi", seed=0, edge_prob=0.5)
    # the first draw was accepted: the graph holds exactly its edges
    mask = np.random.default_rng(0).random((8, 8)) < 0.5
    np.fill_diagonal(mask, True)
    assert g.edges == tuple(map(tuple, np.argwhere(mask.T).tolist()))
    assert len(calls) == 1
    assert g.diameter == floyd_warshall_diameter(g.n, g.edges)
    assert len(calls) == 1


def test_rejection_budget_exhausted():
    with pytest.raises(RuntimeError):
        generate_digraph(30, "erdos_renyi", seed=0, edge_prob=1e-9)


def test_edge_prob_validated():
    with pytest.raises(ValueError):
        generate_digraph(5, "erdos_renyi", seed=0, edge_prob=0.0)
    with pytest.raises(ValueError):
        generate_digraph(5, "erdos_renyi", seed=0, edge_prob=1.5)


def test_unknown_model():
    with pytest.raises(ValueError):
        generate_digraph(4, "torus", seed=0)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_m_in_neighborhood_matches_bfs_depth(n, m):
    # the diameter is the BFS depth at which the m-hop sender sets saturate:
    # below it some node still misses a sender, from it on none does
    g = generate_digraph(max(n, 2), "erdos_renyi", seed=n * 7 + m, edge_prob=0.3)
    full = frozenset(range(g.n))
    saturated = all(m_hop_senders(g, i, m) == full for i in range(g.n))
    assert saturated == (m >= g.diameter)


def test_m_neighborhood_saturates_at_diameter():
    g = generate_digraph(8, "erdos_renyi", seed=1, edge_prob=0.3)
    d = g.diameter
    full = frozenset(range(g.n))
    for i in range(g.n):
        assert m_hop_senders(g, i, d) == full
    assert any(m_hop_senders(g, i, d - 1) != full for i in range(g.n))


# --- weights ---


def test_column_weights_equal_splitting():
    g = ring(3)
    W = make_weights(g, "column")
    w = dense_weights(W)
    # sender j splits equally over its out-neighborhood
    assert w.sum(axis=0) == pytest.approx(np.ones(3))
    out_adj = out_adjacency(g)
    for r, s in g.edges:
        assert w[r, s] == pytest.approx(1.0 / len(out_adj[s]))
    assert W.kind == "column"


def test_row_weights_equal_splitting():
    g = generate_digraph(6, "erdos_renyi", seed=2, edge_prob=0.4)
    w = dense_weights(make_weights(g, "row"))
    assert w.sum(axis=1) == pytest.approx(np.ones(6))
    for r, s in g.edges:
        assert w[r, s] == pytest.approx(1.0 / len(g.in_adj[r]))


def test_weight_sparsity_matches_edges():
    g = generate_digraph(7, "erdos_renyi", seed=5, edge_prob=0.35)
    for kind in ("column", "row"):
        W = make_weights(g, kind)
        nz = {(int(r), int(s)) for r, s in zip(*np.nonzero(dense_weights(W)))}
        assert nz == set(g.edges)


def test_stochastic_matrix_rejects_bad_sums():
    g = ring(3)
    ew = make_weights(g, "column").edge_weights.copy()
    ew[g.edges.index((0, 0))] += 0.5
    with pytest.raises(ValueError, match="sums deviate"):
        StochasticMatrix(graph=g, edge_weights=ew, kind="column")


@pytest.mark.parametrize("kind", ["column", "row"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("cell", [(1, 0), (0, 0)], ids=["on_edge", "self_loop"])
def test_stochastic_matrix_rejects_non_finite_weights(kind, bad, cell):
    g = ring(4)
    ew = make_weights(g, kind).edge_weights.copy()
    ew[g.edges.index(cell)] = bad
    with pytest.raises(ValueError, match="finite"):
        StochasticMatrix(graph=g, edge_weights=ew, kind=kind)


@pytest.mark.parametrize("kind", ["column", "row"])
@pytest.mark.parametrize("cell", [(1, 0), (0, 0)], ids=["on_edge", "self_loop"])
@pytest.mark.parametrize("bad", [0.0, -0.25])
def test_stochastic_matrix_rejects_nonpositive_edge_weights(kind, cell, bad):
    # a weight per edge leaves a zero weight as the only way to drop an
    # edge; on the self-loop it would be a zero diagonal entry
    g = ring(4)
    ew = make_weights(g, kind).edge_weights.copy()
    ew[g.edges.index(cell)] = bad
    with pytest.raises(ValueError, match="strictly positive"):
        StochasticMatrix(graph=g, edge_weights=ew, kind=kind)


@pytest.mark.parametrize("shape", [(0,), (7,), (9,), (4, 4)],
                         ids=["none", "one_short", "one_extra", "dense"])
def test_stochastic_matrix_rejects_wrong_weight_count(shape):
    g = ring(4)  # 8 edges
    with pytest.raises(ValueError, match="does not match the 8 edges"):
        StochasticMatrix(graph=g, edge_weights=np.full(shape, 0.25), kind="column")


def test_stochastic_matrix_rejects_unknown_kind():
    g = ring(3)
    with pytest.raises(ValueError, match="kind"):
        StochasticMatrix(graph=g, edge_weights=make_weights(g, "row").edge_weights, kind="rows")
    with pytest.raises(ValueError, match="kind"):
        make_weights(g, "rows")


def test_make_weights_allocates_no_dense_matrix(traced_peak):
    # n^2 floats would be 32 MB here; the per-edge arrays are about 0.5 MB.
    # consensus_limit on the row weights runs the Perron iteration per edge
    n = 2000
    g = generate_digraph(n, "erdos_renyi", seed=0, edge_prob=4 * np.log(n) / n)
    x0 = np.random.default_rng(0).random((n, 2))
    for kind in ("column", "row"):
        made = []
        peak = traced_peak(lambda: made.append(make_weights(g, kind)), warm_up=False)
        W, = made
        limit_peak = traced_peak(lambda: consensus_limit(x0, W), warm_up=False)
        assert peak < 4 * 2**20, (kind, peak)
        assert limit_peak < 4 * 2**20, (kind, limit_peak)
        assert not hasattr(W, "w")


def test_generation_allocates_no_n_by_n_array(traced_peak):
    # the whole (n, n) float draw alone is 32 MB here, and the set-up had
    # peaked at 36 MB with it and the (n, n) identity of the diameter's
    # flood. Drawn in row blocks of the byte budget and flooded from a
    # packed identity, it peaks at about 5 MB, most of it edge arrays and
    # the flood's packed bits
    n = 2000
    assert traced_peak(lambda: generate_digraph(n, "erdos_renyi", 0, 4 * math.log(n) / n)) < 8e6


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 300, 1000])
def test_row_block_draw_is_the_whole_draw(n):
    # the draw is made in row blocks of the byte budget (a 1000-node draw in
    # 63 of them): each must give the whole draw's edges and leave the
    # generator where the whole draw does. At edge probability ln(n) / n
    # (0.3 for one node) draws are rejected, and each rejected draw must
    # have used the same numbers too
    p = max(math.log(n), 0.3) / n
    draws = 0
    for seed in range(3):
        blocks, whole = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = graph._er_draw(blocks, n, p)
        assert sorted(pairs.tolist()) == er_draw_reference(whole, n, p).tolist()
        assert blocks.random() == whole.random()
        edges, tries = generate_er_reference(n, seed, p)
        assert generate_digraph(n, "erdos_renyi", seed, p).edges == edges
        draws += tries
    assert draws > 3 or n == 1


def test_graph_keeps_its_edges_as_arrays():
    # a tuple of Python int pairs costs about 67 bytes an edge; the graph
    # holds (dst, src) and the in-layout's senders, 24 bytes an edge, and
    # builds the tuple only when g.edges is read
    n = 300
    generate_digraph(20, "erdos_renyi", seed=0, edge_prob=0.3)
    tracemalloc.start()
    try:
        g = generate_digraph(n, "erdos_renyi", seed=0, edge_prob=4 * math.log(n) / n)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    E = len(g.edge_arrays[0])
    assert E == 7120
    assert held < 32 * E, held
    dst, src = g.edge_arrays
    assert g.edges == tuple(zip(dst.tolist(), src.tolist()))


def test_graph_equality_hash_and_repr_are_those_of_its_record():
    g = DiGraph(n=2, edges=((1, 0), (0, 0), (1, 1), (0, 1)), seed=4, model="hand")
    record = (2, ((0, 0), (0, 1), (1, 0), (1, 1)), 4, "hand")
    assert hash(g) == hash(record)
    assert repr(g) == ("DiGraph(n=2, edges=((0, 0), (0, 1), (1, 0), (1, 1)), "
                       "seed=4, model='hand')")
    assert g == DiGraph(2, np.array(record[1])[::-1], seed=4, model="hand")
    assert g != DiGraph(2, record[1], seed=5, model="hand")
    assert g != record
    with pytest.raises(AttributeError):
        g.n = 3
    with pytest.raises(AttributeError):
        g.edges = ()


def test_edge_weights_align_with_edge_arrays():
    g = generate_digraph(5, "erdos_renyi", seed=4, edge_prob=0.5)
    W = make_weights(g, "column")
    dst, src = g.edge_arrays
    assert np.array_equal(W.edge_weights, dense_weights(W)[dst, src])


# --- serialization ---


def test_graph_json_round_trip(tmp_path):
    g = generate_digraph(8, "erdos_renyi", seed=11, edge_prob=0.3)
    path = tmp_path / "g.json"
    path.write_text(graph_to_json(g))
    g2 = DiGraph(**json.loads(path.read_text()))
    assert g2 == g
    assert g2.seed == g.seed and g2.model == g.model


def test_graph_json_shape():
    g = ring(3)
    doc = json.loads(graph_to_json(g))
    assert set(doc) == {"n", "edges", "seed", "model"}
    assert doc["edges"] == [list(e) for e in g.edges]
