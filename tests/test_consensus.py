import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from hullstop import (
    StopTrace,
    DiGraph,
    InvariantViolation,
    RatioState,
    StochasticMatrix,
    consensus_limit,
    generate_digraph,
    make_ratio_state,
    make_weights,
    pairwise_spread,
    perron_left,
    ratio_step,
    read_state_csv,
    run_consensus,
    scalar_vector_equivalence_check,
    write_state_csv,
)
from hullstop import graph
from hullstop.consensus import _Engine
from hullstop.graph import _in_sum
from oracles import (dense_weights, in_sum_reference, m_hop_senders,
                     perron_left_dense_reference, write_state_csv_rows_reference)


def ring(n):
    edges = [(i, i) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    return DiGraph(n=n, edges=tuple(sorted(edges)))


def test_two_node_average_in_one_step():
    g = generate_digraph(2, "complete", seed=0)
    W = make_weights(g, "column")
    st0 = make_ratio_state([[0.0], [2.0]])
    st1 = ratio_step(st0, W)
    assert np.array_equal(st1.r, [[1.0], [1.0]])
    assert st1.k == 1


def test_ring_step_by_hand():
    # receiver i hears itself and i-1, each sender splits mass in half
    g = ring(3)
    W = make_weights(g, "column")
    st1 = ratio_step(make_ratio_state([[0.0], [3.0], [6.0]]), W)
    assert np.array_equal(st1.x, [[3.0], [1.5], [4.5]])
    assert np.array_equal(st1.y, [1.0, 1.0, 1.0])
    assert st1.x.sum() == 9.0


def test_row_sum_by_hand():
    g = ring(3)
    A = make_weights(g, "row")
    z = np.array([[0.0], [3.0], [6.0]])
    z1 = _in_sum(A, z, g.in_layout.cut(z))
    assert np.array_equal(z1, [[3.0], [1.5], [4.5]])
    assert _same_bytes(z1, in_sum_reference(A, z))


def _random_weights(g, kind, rng):
    """Unequal positive weights normalized to 1 per sender (column kind) or
    per receiver (row kind)."""
    dst, src = g.edge_arrays
    end = src if kind == "column" else dst
    ew = rng.random(len(end)) + 0.1
    return StochasticMatrix(kind, ew / np.bincount(end, ew)[end], g)


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=10_000), st.data())
@settings(max_examples=40, deadline=None)
def test_steps_match_in_sum_reference_byte_for_byte(n, d, seed, data):
    # the determinism contract: every per-node sum adds w[i, j] * value[j]
    # over ascending senders j from 0.0, whatever kernel computes it
    g = generate_digraph(n, "erdos_renyi", seed=seed, edge_prob=0.4)
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


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=50))
@settings(max_examples=40, deadline=None)
def test_mass_conservation(n, d, seed):
    g = generate_digraph(n, "erdos_renyi", seed=seed, edge_prob=0.4)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(seed).normal(size=(n, d)) * 10
    tr = run_consensus(W, x0, 12)
    for k in range(13):
        assert tr.xs[k].sum(axis=0) == pytest.approx(x0.sum(axis=0), abs=1e-9)
        assert tr.ys[k].sum() == pytest.approx(float(n), abs=1e-12)
        assert tr.ys[k].min() > 0.0


def test_ratio_limit_is_plain_average():
    g = generate_digraph(7, "erdos_renyi", seed=3, edge_prob=0.4)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(1).normal(size=(7, 3))
    lim = consensus_limit(x0, W)
    assert np.allclose(lim, x0.mean(axis=0))
    tr = run_consensus(W, x0, 2000)
    assert np.abs(tr.rs[-1] - lim).max() < 1e-10


def test_row_limit_matches_perron_and_long_run():
    g = generate_digraph(2, "complete", seed=0)
    w = np.array([[0.5, 0.5], [0.25, 0.75]])
    A = StochasticMatrix(graph=g, edge_weights=w[g.edge_arrays], kind="row")
    pi = perron_left(A)
    assert pi == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-11)
    x0 = np.array([[1.0, 0.0], [4.0, -6.0]])
    lim = consensus_limit(x0, A)
    assert lim == pytest.approx(pi @ x0)
    tr = run_consensus(A, x0, 500)
    assert np.abs(tr.rs[-1] - lim).max() < 1e-12


def test_perron_uniform_on_complete_graph():
    g = generate_digraph(5, "complete", seed=0)
    A = make_weights(g, "row")
    assert perron_left(A) == pytest.approx(np.full(5, 0.2), abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 60, 300])
@pytest.mark.parametrize("model", ["erdos_renyi", "ring", "complete"])
def test_perron_per_edge_matches_dense_reference(model, n):
    # the per-edge sums run in another order than a dense mat-vec, so only
    # the last bits may differ
    g = generate_digraph(n, model, seed=n, edge_prob=min(1.0, 4 * np.log(max(n, 2)) / n))
    A = make_weights(g, "row")
    pi = perron_left(A)
    assert np.abs(pi - perron_left_dense_reference(dense_weights(A))).max() <= 1e-15
    x0 = np.random.default_rng(n).normal(size=(n, 3))
    assert np.array_equal(consensus_limit(x0, A), pi @ x0)


def test_spread_never_increases_and_vanishes():
    g = generate_digraph(6, "erdos_renyi", seed=8, edge_prob=0.4)
    for kind in ("column", "row"):
        W = make_weights(g, kind)
        x0 = np.random.default_rng(5).normal(size=(6, 2))
        tr = run_consensus(W, x0, 800)
        spreads = [pairwise_spread(s) for s in tr.rs]
        for a, b in zip(spreads, spreads[1:]):
            assert b <= a + 1e-12
        assert spreads[-1] < 1e-8


def test_scalar_runs_bit_identical_to_vector_run():
    for seed in (0, 1, 2):
        g = generate_digraph(8, "erdos_renyi", seed=seed, edge_prob=0.35)
        x0 = np.random.default_rng(seed).normal(size=(8, 3))
        for kind in ("column", "row"):
            W = make_weights(g, kind)
            assert scalar_vector_equivalence_check(x0, W, 30)


@pytest.mark.parametrize("fault", ["perturbed", "doubled"])
def test_equivalence_check_fails_when_the_vector_run_differs(monkeypatch, fault):
    # only the vector run's edge sums (x's 3 columns and y) are changed. A
    # perturbed sum changes its states; doubled x and y change x and y
    # but leave every r = x / y the same bit for bit
    import hullstop.consensus as consensus
    real = consensus._in_sum

    def faulty(W, values, cut):
        out = real(W, values, cut)
        if values.shape[1] > 2:
            if fault == "perturbed":
                out[0, 0] += 1e-3
            else:
                out *= 2.0
        return out

    monkeypatch.setattr(consensus, "_in_sum", faulty)
    g = generate_digraph(8, "erdos_renyi", seed=0, edge_prob=0.35)
    x0 = np.random.default_rng(0).normal(size=(8, 3))
    assert not scalar_vector_equivalence_check(x0, make_weights(g, "column"), 5)


def test_information_respects_graph_distance():
    # perturbing a node outside the m-step in-neighborhood of i cannot
    # change r_i within m steps; one more step it must arrive
    g = ring(6)
    W = make_weights(g, "column")
    rng = np.random.default_rng(2)
    x0 = rng.random((6, 2))
    i, j = 0, 3  # dist(j -> i) on the ring is 3
    L = 3
    assert j not in m_hop_senders(g, i, L - 1)
    assert j in m_hop_senders(g, i, L)
    x1 = x0.copy()
    x1[j] += 1.0
    ta = run_consensus(W, x0, L)
    tb = run_consensus(W, x1, L)
    for k in range(L):
        assert np.array_equal(ta.rs[k, i], tb.rs[k, i])
    assert not np.array_equal(ta.rs[L, i], tb.rs[L, i])


def test_scalar_states_stay_in_initial_interval():
    g = generate_digraph(9, "erdos_renyi", seed=12, edge_prob=0.3)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(3).normal(size=(9, 1))
    tr = run_consensus(W, x0, 100)
    lo, hi = x0.min(), x0.max()
    assert tr.rs.min() >= lo - 1e-12
    assert tr.rs.max() <= hi + 1e-12


def test_state_csv_round_trip_exact():
    g = generate_digraph(5, "erdos_renyi", seed=6, edge_prob=0.45)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(4).normal(size=(5, 3)) * 1e3
    tr = run_consensus(W, x0, 7)
    import io
    import tempfile
    with tempfile.NamedTemporaryFile("r", suffix=".csv", delete=False) as fh:
        path = fh.name
    write_state_csv(tr, path)
    back = read_state_csv(path)
    assert np.array_equal(back.rs, tr.rs)
    assert np.array_equal(back.xs, tr.xs)
    assert np.array_equal(back.ys, tr.ys)


def test_state_csv_row_engine(tmp_path):
    g = ring(4)
    A = make_weights(g, "row")
    tr = run_consensus(A, np.random.default_rng(9).random((4, 2)), 5)
    path = tmp_path / "s.csv"
    write_state_csv(tr, path)
    back = read_state_csv(path)
    assert np.array_equal(back.rs, tr.rs)
    assert np.all(back.ys == 1.0)


def _odd_states(rng, shape):
    """Normal draws salted with -0.0, 1e-300, subnormals, exact integers and
    values at the ends of the float range."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    odd = np.array([-0.0, 0.0, 1e-300, -1e-300, 5e-324, 2.5e-310, -3e-320, 3.0, -7.0,
                    2.0 ** 53, 1e300, -1.7976931348623157e308, 0.1, 1.0 / 3.0])
    flat = v.reshape(-1)
    pick = rng.random(flat.size) < 0.5
    flat[pick] = odd[rng.integers(0, odd.size, int(pick.sum()))]
    return v


# (engine, T, n, d): d = 1 and d > 1, and blocks of one step shorter than,
# equal to and longer than one row chunk
STATE_TRACES = [("ratio", 3, 4, 1), ("row", 3, 4, 1), ("ratio", 4, 5, 3), ("row", 4, 5, 3),
                ("ratio", 2, 300, 1), ("row", 2, 64, 4), ("ratio", 2, 37, 9), ("row", 2, 37, 9)]


@pytest.mark.parametrize("engine, T, n, d", STATE_TRACES)
def test_state_csv_matches_row_format_reference_bytes(tmp_path, engine, T, n, d):
    rng = np.random.default_rng([T, n, d])
    if engine == "ratio":
        tr = StopTrace("ratio", *(_odd_states(rng, s) for s in [(T, n, d), (T, n, d), (T, n)]))
    else:
        tr = StopTrace("row", _odd_states(rng, (T, n, d)))
    write_state_csv(tr, tmp_path / "s.csv")
    write_state_csv_rows_reference(tr, tmp_path / "ref.csv")
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _state_csv_lines(tmp_path):
    g = generate_digraph(5, "erdos_renyi", seed=6, edge_prob=0.45)
    tr = run_consensus(make_weights(g, "column"), np.random.default_rng(4).random((5, 3)), 6)
    write_state_csv(tr, tmp_path / "s.csv")
    return (tmp_path / "s.csv").read_text().splitlines(keepends=True)


def test_read_state_csv_rejects_missing_rows(tmp_path):
    lines = _state_csv_lines(tmp_path)
    del lines[40:43]
    (tmp_path / "cut.csv").write_text("".join(lines))
    with pytest.raises(ValueError):
        read_state_csv(tmp_path / "cut.csv")


def test_read_state_csv_rejects_duplicated_row(tmp_path):
    lines = _state_csv_lines(tmp_path)
    lines[41] = lines[40]
    (tmp_path / "dup.csv").write_text("".join(lines))
    with pytest.raises(ValueError):
        read_state_csv(tmp_path / "dup.csv")


def test_read_state_csv_rejects_rows_out_of_step_major_order(tmp_path):
    lines = _state_csv_lines(tmp_path)
    lines[40], lines[41] = lines[41], lines[40]
    path = tmp_path / "swapped.csv"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="does not hold each"):
        read_state_csv(path)


# (T, n, d): many steps of a tiny n * d in few reader blocks, a step longer
# than one block's bytes, steps of one block each that end the file at a
# block's end, and a single step
@pytest.mark.filterwarnings("error")  # numpy's empty-input UserWarning included
@pytest.mark.parametrize("T, n, d", [(3001, 2, 1), (3, 1100, 4), (5, 2048, 1), (1, 3, 2)])
def test_state_csv_reads_back_in_blocks_of_whole_steps(tmp_path, monkeypatch, T, n, d):
    rng = np.random.default_rng([T, n, d])
    tr = StopTrace("ratio", *(rng.normal(size=s) for s in [(T, n, d), (T, n, d), (T, n)]))
    write_state_csv(tr, tmp_path / "s.csv")
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kw):
        calls.append(kw["max_rows"])
        return loadtxt(*args, **kw)

    monkeypatch.setattr(np, "loadtxt", counted)
    back = read_state_csv(tmp_path / "s.csv")
    for got, want in zip((back.rs, back.xs, back.ys), (tr.rs, tr.xs, tr.ys)):
        assert np.array_equal(got, want)
    # a parsed row is 48 bytes: k, node and coord as int64, x, y and r
    size = n * d
    per_block = max(1, graph._BLOCK_BYTES // (48 * size))
    assert calls == [per_block * size] * -(-T // per_block)


def test_read_state_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        read_state_csv(path)


def test_engine_kind_mismatch_rejected():
    Ar = make_weights(ring(3), "row")
    with pytest.raises(ValueError):
        ratio_step(make_ratio_state(np.zeros((3, 1))), Ar)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_make_ratio_state_rejects_non_finite(bad):
    x0 = np.zeros((3, 2))
    x0[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        make_ratio_state(x0)


def test_row_consensus_rejects_non_finite():
    x0 = np.zeros((3, 2))
    x0[2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        run_consensus(make_weights(ring(3), "row"), x0, 5)


def test_shape_validation():
    g = ring(3)
    W = make_weights(g, "column")
    with pytest.raises(ValueError):
        make_ratio_state(np.zeros(3))
    with pytest.raises(ValueError):
        ratio_step(make_ratio_state(np.zeros((4, 2))), W)
    with pytest.raises(ValueError):
        run_consensus(W, np.zeros((3, 1)), -1)


@pytest.mark.parametrize("kind", ["column", "row"])
@pytest.mark.parametrize("steps", [0, 1])
def test_run_consensus_rejects_wrong_node_count(kind, steps):
    W = make_weights(ring(5), kind)
    with pytest.raises(ValueError, match=r"initial states must be \(5, d\)"):
        run_consensus(W, np.zeros((7, 2)), steps)


def test_each_step_makes_one_edge_sum(spy_calls):
    # push-sum sends x and y along the same weights, so one edge sum
    # carries both
    import hullstop.consensus as consensus
    g = generate_digraph(7, "erdos_renyi", seed=2, edge_prob=0.4)
    x0 = np.random.default_rng(3).random((7, 3))
    calls = spy_calls(consensus, "_in_sum")
    ratio_step(make_ratio_state(x0), make_weights(g, "column"))
    assert len(calls) == 1
    _Engine(make_weights(g, "row"), x0).step()
    assert len(calls) == 2


def test_ratio_run_checks_initial_states_once(spy_calls):
    import hullstop.consensus as consensus
    calls = spy_calls(consensus, "_finite_states")
    run_consensus(make_weights(ring(4), "column"), np.ones((4, 2)), 3)
    assert len(calls) == 1


def test_nonpositive_denominator_flagged():
    g = generate_digraph(2, "complete", seed=0)
    W = make_weights(g, "column")
    bad = RatioState(np.ones((2, 1)), np.zeros(2), np.ones((2, 1)), 0)
    with pytest.raises(InvariantViolation):
        ratio_step(bad, W)


def test_zero_steps_trace():
    g = ring(3)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(0).random((3, 2))
    tr = run_consensus(W, x0, 0)
    assert tr.steps == 0
    assert np.array_equal(tr.rs[0], x0)
