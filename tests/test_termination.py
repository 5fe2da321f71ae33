
import numpy as np
import pytest

import hullstop.graph as graph
from hullstop import (
    DiGraph,
    InvariantViolation,
    bandwidth_accounting,
    bit_step,
    consensus_limit,
    extreme_points,
    generate_digraph,
    hull_diameter,
    make_weights,
    minmax_envelope,
    pairwise_spread,
    radius_step,
    read_state_csv,
    run_box_stopping,
    run_consensus,
    run_hull_stopping,
    run_radius_stopping,
    vector_norm,
    windowed_radius_trace,
    write_state_csv,
    write_termination_csv,
)
from hullstop.consensus import _run_windows
from hullstop.termination import _RULES, _BoxRule, _RadiusRule

from oracles import bit_step_reference, in_sum_reference, m_hop_senders, radius_step_reference


def ring(n):
    edges = [(i, i) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    return DiGraph(n=n, edges=tuple(sorted(edges)))


def er(n, seed, p=0.35):
    return generate_digraph(n, "erdos_renyi", seed=seed, edge_prob=p)


def test_radius_step_by_hand():
    g = generate_digraph(2, "complete", seed=0)
    r_new = np.array([[0.0], [1.0]])
    r_old = np.array([[2.0], [5.0]])
    R_old = np.array([0.5, 0.0])
    R = radius_step(g, r_new, r_old, R_old)
    # node 0: max(|0-2| + 0.5, |0-5| + 0.0) = 5.0
    # node 1: max(|1-2| + 0.5, |1-5| + 0.0) = 4.0
    assert np.array_equal(R, [5.0, 4.0])


def test_radius_step_shape_checks():
    g = ring(3)
    with pytest.raises(ValueError):
        radius_step(g, np.zeros((2, 1)), np.zeros((3, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        radius_step(g, np.zeros((3, 1)), np.zeros((3, 1)), np.zeros(2))


def test_bit_flood_travels_one_hop_per_round():
    g = ring(5)
    b = np.array([1, 0, 0, 0, 0], dtype=np.uint8)
    for rounds in range(1, 5):
        b = bit_step(g, b)
        for i in range(5):
            expect = 0 in m_hop_senders(g, i, rounds)
            assert bool(b[i]) == expect


def test_bit_flood_saturates_in_diameter_rounds():
    g = er(9, seed=31)
    b = np.zeros(9, dtype=np.uint8)
    b[4] = 1
    for _ in range(g.diameter):
        b = bit_step(g, b)
    assert b.all()


def test_envelope():
    states = np.array([[0.0, 3.0], [1.0, 1.0], [0.5, 2.0]])
    env = minmax_envelope(states)
    assert np.array_equal(env.M, [1.0, 3.0])
    assert np.array_equal(env.m, [0.0, 1.0])


def test_envelope_of_states_is_monotone_along_run():
    from hullstop import run_consensus
    g = er(7, seed=44)
    W = make_weights(g, "column")
    tr = run_consensus(W, np.random.default_rng(0).random((7, 3)), 60)
    Ms = tr.rs.max(axis=1)
    ms = tr.rs.min(axis=1)
    assert np.all(Ms[1:] <= Ms[:-1] + 1e-12)
    assert np.all(ms[1:] >= ms[:-1] - 1e-12)


# --- radius stopping ---


def test_radius_halt_is_simultaneous_and_certified():
    for seed in (0, 1, 2):
        g = er(8, seed=seed)
        W = make_weights(g, "column")
        x0 = np.random.default_rng(seed).random((8, 2))
        tr = run_radius_stopping(g, W, x0, rho=1e-3)
        assert tr.halted
        # halt lands on a window boundary, strictly after the first update
        assert tr.halt_t > 1 and (tr.halt_t - 1) % tr.Dbound == 0
        # every node carries the halt bit at the stop iteration
        assert tr.bs[tr.halt_t].all()
        # guarantee: all states within a 2*rho ball of each other
        assert pairwise_spread(tr.rs[tr.halt_t], tr.p) <= 2 * tr.rho + 1e-12
        # and within 2*rho of the true limit
        lim = x0.mean(axis=0)
        dev = vector_norm(tr.rs[tr.halt_t] - lim, tr.p, axis=-1)
        assert dev.max() <= 2 * tr.rho + 1e-12


def test_radius_windows_contain_past_states():
    g = er(7, seed=5)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(7).random((7, 3))
    tr = run_radius_stopping(g, W, x0, rho=1e-4, history=True)
    assert tr.windows
    for w in tr.windows:
        dists = vector_norm(
            tr.rs[w.record_t][:, None, :] - tr.rs[w.start_t][None, :, :],
            tr.p, axis=-1)
        assert np.all(dists <= w.rbar[:, None] + 1e-9)


def test_radius_window_schedule():
    g = ring(4)  # diameter 3
    W = make_weights(g, "column")
    x0 = np.random.default_rng(1).random((4, 2))
    tr = run_radius_stopping(g, W, x0, rho=1e-6, k_max=2000, history=True)
    assert tr.Dbound == 3
    # first window records at t = D + 1, later ones D apart
    assert [w.record_t for w in tr.windows] == [
        3 * l + 4 for l in range(len(tr.windows))]
    for a, b in zip(tr.windows, tr.windows[1:]):
        assert b.start_t == a.record_t


def test_radius_detection_resets_only_undetected():
    g = er(6, seed=9)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(3).random((6, 2)) * 5
    tr = run_radius_stopping(g, W, x0, rho=2e-3, history=True)
    assert tr.halted
    last = tr.windows[-1]
    assert last.detected.all()
    # bits at the recording boundary equal the detection vector
    assert np.array_equal(tr.bs[last.record_t].astype(bool), last.detected)
    # undetected windows reset the accumulator to zero
    for w in tr.windows:
        stored = tr.Rs[w.record_t]
        assert np.array_equal(stored[~w.detected], np.zeros((~w.detected).sum()))
        assert np.array_equal(stored[w.detected], w.rbar[w.detected])


def test_radius_boundary_raises_when_halt_flags_disagree():
    # a bit set at one boundary has flooded every node by the next, so a
    # boundary that sees some bits set and others not has lost a message
    g = ring(5)
    rule = _RadiusRule(g, 0.1, 2.0)
    rule.bs = np.ones(g.n, dtype=np.uint8)
    assert rule.boundary(1, 5, 10) == (None, True)
    rule.bs[3] = 0
    with pytest.raises(InvariantViolation, match="^halt flags disagree at boundary t=10$"):
        rule.boundary(1, 5, 10)


def test_radius_single_node_graph():
    g = generate_digraph(1, "ring", seed=0)
    W = make_weights(g, "column")
    tr = run_radius_stopping(g, W, np.array([[2.5]]), rho=0.1)
    assert tr.halted and tr.halt_t == 3
    assert tr.Dbound == 1


def test_radius_non_halt_reported_not_raised():
    g = er(6, seed=2)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(2).random((6, 2))
    tr = run_radius_stopping(g, W, x0, rho=1e-15, k_max=40, history=True)
    assert not tr.halted and tr.halt_t is None
    assert tr.rs.shape[0] == 41


def test_radius_parameter_validation():
    g = ring(4)
    W = make_weights(g, "column")
    x0 = np.zeros((4, 1))
    with pytest.raises(ValueError):
        run_radius_stopping(g, W, x0, rho=0.0)
    with pytest.raises(ValueError):
        run_radius_stopping(g, W, x0, rho=0.1, Dbound=2)  # below diameter 3
    tr = run_radius_stopping(g, W, x0, rho=0.1, Dbound=5)
    assert tr.Dbound == 5


@pytest.mark.parametrize("run", [run_radius_stopping, run_box_stopping, run_hull_stopping])
def test_stopping_rejects_nan_rho(run):
    g = ring(4)
    W = make_weights(g, "column")
    with pytest.raises(ValueError):
        run(g, W, np.zeros((4, 1)), rho=float("nan"), k_max=50)


@pytest.mark.parametrize("kind", ["column", "row"])
@pytest.mark.parametrize("run", [run_radius_stopping, run_box_stopping, run_hull_stopping])
def test_stopping_rejects_non_finite_x0(run, kind):
    g = ring(4)
    x0 = np.zeros((4, 2))
    x0[3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        run(g, make_weights(g, kind), x0, rho=0.1, k_max=50)


@pytest.mark.parametrize("run, kw, match", [
    (windowed_radius_trace, {"eps": float("nan")}, "eps"),
    (windowed_radius_trace, {"eps": -1.0}, "eps"),
    (windowed_radius_trace, {"eps": 0.0}, "eps"),
    (windowed_radius_trace, {"max_windows": 0}, "max_windows"),
    (windowed_radius_trace, {"max_windows": -3}, "max_windows"),
    (windowed_radius_trace, {"k_max": -1}, "k_max"),
    (run_radius_stopping, {"rho": 0.1, "k_max": -5}, "k_max"),
    (windowed_radius_trace, {"p": 3}, "norm order"),
    (run_radius_stopping, {"rho": 0.1, "p": 3}, "norm order"),
    (run_box_stopping, {"rho": 0.1, "p": 3}, "norm order"),
    (run_hull_stopping, {"rho": 0.1, "p": 3}, "norm order"),
], ids=["eps_nan", "eps_negative", "eps_zero", "max_windows_zero", "max_windows_negative",
        "windowed_k_max_negative", "radius_k_max_negative", "windowed_p3", "radius_p3",
        "box_p3", "hull_p3"])
def test_stopping_rejects_bad_input_at_entry(run, kw, match):
    # k_max=0 runs no step, so only a check at entry can raise; each of these
    # inputs would otherwise spend the whole step budget or record a window
    g = ring(8)
    with pytest.raises(ValueError, match=match):
        run(g, make_weights(g, "column"), np.zeros((8, 2)), **{"k_max": 0, **kw})


def test_box_criterion_rejects_nan_rho():
    # the streamed box rule, which the harness and the CLI run, rejects a
    # NaN rho before step 0 reaches the sink
    g = ring(4)
    rows = []
    with pytest.raises(ValueError, match="rho must be positive"):
        _run_windows(_RULES["box"](g, float("nan"), np.inf), make_weights(g, "column"),
                     np.zeros((4, 2)), None, 50, sink=lambda *row: rows.append(row))
    assert rows == []


def test_radius_row_engine_halts():
    g = er(7, seed=21)
    A = make_weights(g, "row")
    x0 = np.random.default_rng(4).random((7, 2))
    tr = run_radius_stopping(g, A, x0, rho=1e-3)
    assert tr.halted and tr.engine == "row"
    assert pairwise_spread(tr.rs[tr.halt_t], tr.p) <= 2e-3 + 1e-12


# --- plain windowed recursion ---


def test_windowed_schedule_and_envelope_bound():
    g = er(8, seed=14)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(11).random((8, 3)) * 4
    wt = windowed_radius_trace(g, W, x0, max_windows=12, history=True)
    D = wt.Dbound
    for w in wt.windows:
        assert w.start_t == w.index * D
        assert w.record_t == w.start_t + D
        env = minmax_envelope(wt.rs[w.start_t])
        bound = D * vector_norm(env.M - env.m, wt.p) + 1e-9
        assert w.rbar.max() <= bound
        dists = vector_norm(
            wt.rs[w.record_t][:, None, :] - wt.rs[w.start_t][None, :, :],
            wt.p, axis=-1)
        assert np.all(dists <= w.rbar[:, None] + 1e-9)


def test_windowed_radius_vanishes():
    g = er(10, seed=15)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(12).random((10, 2))
    wt = windowed_radius_trace(g, W, x0, eps=1e-6)
    assert wt.windows[-1].rbar.max() < 1e-6


# --- box stopping ---


def test_box_halts_with_exact_global_envelope():
    g = er(7, seed=23)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(13).random((7, 3))
    tr = run_box_stopping(g, W, x0, rho=1e-3, history=True)
    assert tr.halted and tr.halt_t % tr.Dbound == 0
    for w in tr.windows:
        env = minmax_envelope(tr.rs[w.start_t])
        # flooding reproduces the central envelope bit for bit
        assert w.spread == float(vector_norm(env.M - env.m, tr.p))
    assert tr.windows[-1].spread < tr.rho
    assert pairwise_spread(tr.rs[tr.halt_t], tr.p) <= tr.windows[-1].spread + 1e-12


def test_box_non_halt_and_validation():
    g = ring(3)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(14).random((3, 2))
    tr = run_box_stopping(g, W, x0, rho=1e-15, k_max=30)
    assert not tr.halted
    with pytest.raises(ValueError):
        run_box_stopping(g, W, x0, rho=-1.0)


def test_box_boundary_raises_when_envelopes_disagree():
    # after a window every node holds the global envelope, so their spreads
    # must be equal bit for bit
    g = ring(4)
    rule = _BoxRule(g, 0.1, 2.0)
    rule.M, rule.m = np.ones((g.n, 2)), np.zeros((g.n, 2))
    window, end = rule.boundary(0, 0, 4)
    assert window.spread == np.sqrt(2.0) and not end
    rule.m[2, 1] = 0.5
    with pytest.raises(InvariantViolation, match="^envelope disagreement at boundary t=4$"):
        rule.boundary(0, 0, 4)


# --- hull stopping ---


def test_hull_stop_matches_centralized_extremes():
    g = er(6, seed=25)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(15).random((6, 2)) * 3
    tr = run_hull_stopping(g, W, x0, rho=5e-3, history=True)
    assert tr.halted and tr.halt_t % tr.Dbound == 0
    assert tr.max_points >= 1
    for w in tr.windows:
        truth = extreme_points(tr.rs[w.start_t])
        assert w.diam == hull_diameter(truth, tr.p)
    assert tr.windows[-1].diam < tr.rho
    assert pairwise_spread(tr.rs[tr.halt_t], tr.p) <= tr.windows[-1].diam + 1e-12


def test_box_and_hull_agree_in_one_dimension():
    # an interval's hull diameter equals its envelope spread, so both
    # criteria trip at the same boundary
    g = er(6, seed=27)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(16).random((6, 1)) * 2
    a = run_box_stopping(g, W, x0, rho=1e-3, history=True)
    b = run_hull_stopping(g, W, x0, rho=1e-3, history=True)
    assert a.halted and b.halted and a.halt_t == b.halt_t
    for wa, wb in zip(a.windows, b.windows):
        assert wa.spread == pytest.approx(wb.diam, abs=1e-15)


def test_hull_tighter_or_equal_to_box():
    # the extreme-set diameter never exceeds the bounding box diagonal
    g = er(6, seed=28)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(17).random((6, 3))
    a = run_box_stopping(g, W, x0, rho=1e-4, k_max=3000, history=True)
    b = run_hull_stopping(g, W, x0, rho=1e-4, k_max=3000, history=True)
    assert b.halt_t <= a.halt_t
    for wb in b.windows:
        wa = next((w for w in a.windows if w.start_t == wb.start_t), None)
        if wa is not None:
            assert wb.diam <= wa.spread + 1e-12


# --- bandwidth ---


def test_bandwidth_values():
    assert bandwidth_accounting("radius", B=32) == 33
    assert bandwidth_accounting("box", B=32, d=10) == 640
    assert bandwidth_accounting("hull", B=32, d=2, hull_size=7) == 448
    assert bandwidth_accounting("box", B=32, d=10) / bandwidth_accounting("radius", B=32) > 19


def test_bandwidth_validation():
    with pytest.raises(ValueError):
        bandwidth_accounting("box", B=32)
    with pytest.raises(ValueError):
        bandwidth_accounting("hull", B=32, d=3)
    with pytest.raises(ValueError):
        bandwidth_accounting("laser", B=32, d=3)
    with pytest.raises(ValueError):
        bandwidth_accounting("radius", B=0)


# --- csv ---


def test_termination_csv_layout(tmp_path):
    g = er(5, seed=29)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(18).random((5, 2))
    tr = run_radius_stopping(g, W, x0, rho=1e-3, history=True)
    path = tmp_path / "t.csv"
    write_termination_csv(tr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,node,R,b,window_l,halt_flag"
    assert len(lines) == 1 + tr.Rs.shape[0] * 5
    # exactly one iteration flagged as the halt, all five nodes on it
    flagged = {int(l.split(",")[0]) for l in lines[1:] if l.split(",")[5] == "1"}
    assert flagged == {tr.halt_t}
    # R column round-trips exactly
    row = lines[1 + tr.halt_t * 5].split(",")
    assert float(row[2]) == tr.Rs[tr.halt_t, 0]


def test_writers_need_a_trace_with_history(tmp_path):
    g = er(5, seed=29)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(18).random((5, 2))
    tr = run_radius_stopping(g, W, x0, rho=1e-3)
    with pytest.raises(ValueError, match="history=True"):
        write_termination_csv(tr, tmp_path / "t.csv")
    with pytest.raises(ValueError, match="history=True"):
        write_state_csv(tr, tmp_path / "s.csv")
    with pytest.raises(ValueError, match="radius"):
        write_termination_csv(run_box_stopping(g, W, x0, rho=1e-3, history=True),
                              tmp_path / "b.csv")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("run, kind", [(run_radius_stopping, "column"),
                                       (run_radius_stopping, "row"),
                                       (run_box_stopping, "column")],
                         ids=["radius_ratio", "radius_row", "box_ratio"])
def test_state_csv_takes_a_stopping_trace_with_history(tmp_path, run, kind):
    g = er(5, seed=29)
    x0 = np.random.default_rng(18).random((5, 2))
    tr = run(g, make_weights(g, kind), x0, rho=1e-3, history=True)
    write_state_csv(tr, tmp_path / "s.csv")
    back = read_state_csv(tmp_path / "s.csv")
    assert _bits(back.rs) == _bits(tr.rs)
    if tr.xs is not None:
        assert _bits(back.xs) == _bits(tr.xs) and _bits(back.ys) == _bits(tr.ys)


# --- history ---


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("run, kind, kw", [
    (run_radius_stopping, "column", {"rho": 1e-3}),
    (run_radius_stopping, "row", {"rho": 1e-3}),
    (run_radius_stopping, "column", {"rho": 1e-15, "k_max": 11}),
    (run_box_stopping, "column", {"rho": 1e-3}),
    (run_box_stopping, "row", {"rho": 1e-3}),
    (run_hull_stopping, "column", {"rho": 1e-2}),
    (run_hull_stopping, "row", {"rho": 1e-2}),
    (windowed_radius_trace, "column", {"eps": 1e-4}),
    (windowed_radius_trace, "column", {"max_windows": 5}),
], ids=["radius_ratio", "radius_row", "radius_no_halt", "box_ratio", "box_row",
        "hull_ratio", "hull_row", "windowed_eps", "windowed_max"])
def test_bounded_trace_equals_full_at_kept_steps(run, kind, kw):
    g = er(7, seed=41)
    W = make_weights(g, kind)
    x0 = np.random.default_rng(41).random((7, 2))
    ends = run(g, W, x0, history=False, **kw)
    full = run(g, W, x0, history=True, **kw)
    T = full.rs.shape[0] - 1
    assert (ends.halt_t, ends.max_points) == (full.halt_t, full.max_points)
    # without history a run keeps the window count and the last window
    assert full.windows and ends.n_windows == full.n_windows == len(full.windows)
    kept, = ends.windows
    for name, x, y in zip(kept._fields, kept, full.windows[-1]):
        if isinstance(y, np.ndarray):
            assert _bits(x) == _bits(y), name
        else:
            assert x == y, name
    for name in ("rs", "xs", "ys", "Rs", "bs"):
        a, b = getattr(ends, name), getattr(full, name)
        if b is None:
            assert a is None, name
            continue
        assert sorted(a) == [0, T], name
        for k in (0, T):
            assert _bits(a[k]) == _bits(b[k]), (name, k)


@pytest.mark.parametrize("kind", ["column", "row"])
def test_stopping_history_equals_run_consensus(kind):
    # the stopping driver and run_consensus step the same engine
    g = er(9, seed=5)
    W = make_weights(g, kind)
    x0 = np.random.default_rng(12).random((9, 3))
    tr = run_radius_stopping(g, W, x0, rho=1e-3, history=True)
    ref = run_consensus(W, x0, tr.halt_t)
    assert tr.halted and tr.engine == ref.engine
    assert _bits(tr.rs) == _bits(ref.rs)
    if kind == "column":
        assert _bits(tr.xs) == _bits(ref.xs) and _bits(tr.ys) == _bits(ref.ys)
    else:
        assert tr.xs is tr.ys is ref.xs is ref.ys is None
    box = run_box_stopping(g, W, x0, rho=1e-3, history=True)
    assert box.halted
    assert _bits(box.rs) == _bits(run_consensus(W, x0, box.halt_t).rs)


@pytest.mark.parametrize("kind", ["column", "row"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_consensus_equals_the_stopping_loop_without_a_rule(kind, seed):
    # run_consensus records the loop's history; the harness and the CLI
    # stream the same run with no rule through a sink and keep only its
    # ends. Both must give the same record, step by step and field by field
    g = er(8, seed=seed)
    W = make_weights(g, kind)
    x0 = np.random.default_rng(seed).random((8, 3))
    T = 30
    ref = run_consensus(W, x0, T)
    rows = []
    tr = _run_windows(_RULES["none"](g, None, 2.0), W, x0, None, T,
                      sink=lambda k, row, halt: rows.append((k, row, halt)))
    assert tr.engine == ref.engine and tr.steps == ref.steps == T
    assert [k for k, _, _ in rows] == list(range(T + 1))
    assert not any(halt for _, _, halt in rows)
    for name in ("rs", "xs", "ys"):
        b = getattr(ref, name)
        if kind == "row" and name != "rs":
            assert b is None and all(name not in row for _, row, _ in rows), name
            continue
        assert _bits(np.stack([row[name] for _, row, _ in rows])) == _bits(b), name
        assert _bits(np.stack([getattr(tr, name)[k] for k in (0, T)])) == _bits(b[[0, T]]), name
    for run in (tr, ref):
        assert (run.halted, run.halt_t, run.windows, run.n_windows) == (False, None, [], 0)


@pytest.mark.parametrize("run", [run_radius_stopping, run_box_stopping], ids=["radius", "box"])
def test_rule_graph_must_be_the_weights_graph(run):
    # a ring's window (its diameter, 11) on weights over an ER graph of
    # diameter 4 ran silently and halted more than 10 steps late
    g = er(12, seed=0)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(0).random((12, 2))
    with pytest.raises(ValueError, match="not the weights' graph"):
        run(ring(12), W, x0, 1e-3)
    # the same graph built a second time is the same graph
    again = er(12, seed=0)
    assert again is not g
    ref, tr = run(g, W, x0, 1e-3, history=True), run(again, W, x0, 1e-3, history=True)
    assert ref.halted and (tr.halt_t, tr.n_windows, tr.Dbound) == (ref.halt_t, ref.n_windows,
                                                                   ref.Dbound)
    for name in ("rs", "xs", "ys", "Rs", "bs"):
        a, b = getattr(tr, name), getattr(ref, name)
        if b is None:
            assert a is None, name
        else:
            assert _bits(a) == _bits(b), name
    for mine, theirs in zip(tr.windows, ref.windows, strict=True):
        assert [_bits(np.asarray(v)) for v in mine] == [_bits(np.asarray(v)) for v in theirs]


@pytest.mark.parametrize("run", [run_radius_stopping, run_box_stopping], ids=["radius", "box"])
def test_rule_graph_check_compares_the_in_layouts(run, monkeypatch):
    # the check reads the two in-layouts, never rebuilt edge arrays: an
    # equal but distinct graph passes it, and the reversed ring, with the
    # ring's node count, edge count and slot blocks, is another graph
    def unread(self):
        raise AssertionError("edge arrays were rebuilt")

    g = ring(12)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(1).random((12, 2))
    ref = run(g, W, x0, 1e-3, history=True)
    reversed_ring = DiGraph(12, [(i, j) for i in range(12) for j in (i, (i + 1) % 12)])
    assert reversed_ring.in_layout.blocks == g.in_layout.blocks
    assert len(reversed_ring.in_layout.send) == len(g.in_layout.send)
    monkeypatch.setattr(DiGraph, "edge_arrays", property(unread))
    tr = run(ring(12), W, x0, 1e-3, history=True)
    assert ref.halted and (tr.halt_t, tr.n_windows) == (ref.halt_t, ref.n_windows)
    assert _bits(tr.rs) == _bits(ref.rs)
    with pytest.raises(ValueError, match="not the weights' graph"):
        run(reversed_ring, W, x0, 1e-3)


def test_non_halting_run_keeps_memory_bounded(traced_peak):
    # keeping every step of this run took about 700 MB, and keeping its
    # 3999 window records about 3.4 MB
    g = er(50, seed=0, p=0.1)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(0).random((50, 20))
    runs = []
    peak = traced_peak(lambda: runs.append(run_radius_stopping(g, W, x0, rho=1e-300,
                                                               k_max=20_000)), warm_up=False)
    tr, = runs
    assert not tr.halted and sorted(tr.rs) == [0, 20_000]
    assert peak < 4 * graph._BLOCK_BYTES


def _reference_radius_run(g, W, x0, rho, p, D, k_max):
    """run_radius_stopping spelled out on the edge-list references: the
    ratio engine's step is in_sum_reference over the stacked [x | y], then
    r = x / y, the row engine's is in_sum_reference over z; then
    radius_step_reference and bit_step_reference, with _RadiusRule's
    boundary bookkeeping. Returns the halt step and every step's records."""
    ratio = W.kind == "column"
    x = np.array(x0, dtype=float)
    xy = np.column_stack((x, np.ones(g.n)))
    r = x
    R, b = np.zeros(g.n), np.zeros(g.n, dtype=np.uint8)

    def record():
        rows["rs"].append(r)
        rows["Rs"].append(R)
        rows["bs"].append(b)
        if ratio:
            rows["xs"].append(xy[:, :-1])
            rows["ys"].append(xy[:, -1])

    rows = {name: [] for name in ("rs", "Rs", "bs") + (("xs", "ys") if ratio else ())}
    record()
    halt_t = None
    for t in range(1, k_max + 1):
        prev = r
        if ratio:
            xy = in_sum_reference(W, xy)
            r = xy[:, :-1] / xy[:, -1][:, None]
        else:
            r = in_sum_reference(W, r)
        R = radius_step_reference(g, r, prev, R, p)
        b = bit_step_reference(g, b)
        if t > 1 and (t - 1) % D == 0:
            if b.any():
                assert b.all()
                halt_t = t
            else:
                det = R < rho
                b = det.astype(np.uint8)
                R = np.where(det, R, 0.0)
        record()
        if halt_t is not None:
            break
    return halt_t, {name: np.stack(v) for name, v in rows.items()}


@pytest.mark.parametrize("kind", ["column", "row"])
@pytest.mark.parametrize("g", [generate_digraph(9, "ring"), er(12, seed=3, p=0.3)],
                         ids=["ring", "ragged"])
@pytest.mark.parametrize("p", [1.0, 2.0, np.inf], ids=["p1", "p2", "pinf"])
def test_edge_list_references_reproduce_the_radius_run_byte_for_byte(g, kind, p):
    # the stopping loop runs the slot-major kernels; the references, one
    # edge at a time in ascending sender order, must give the same bytes,
    # under the identity ranking (ring) and a ranked one (ragged in-degrees)
    assert (g.in_layout.rank is None) == (g.model == "ring")
    W = make_weights(g, kind)
    x0 = np.random.default_rng(g.n).normal(size=(g.n, 3))
    x0[0, 0] = -0.0
    tr = run_radius_stopping(g, W, x0, 1e-6, p=p, history=True)
    assert tr.halted
    halt_t, rows = _reference_radius_run(g, W, x0, 1e-6, p, tr.Dbound, tr.halt_t)
    assert halt_t == tr.halt_t
    assert sorted(rows) == sorted(n for n in ("rs", "xs", "ys", "Rs", "bs")
                                  if getattr(tr, n) is not None)
    for name, want in rows.items():
        got = getattr(tr, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def _sweep_config(seed):
    """One seeded stopping config: model, n, d, weight kind, norm, states
    (scale 1e-3 to 1e3, sometimes a common offset) and rho."""
    rng = np.random.default_rng([seed, 99])
    model = ("erdos_renyi", "ring", "complete")[rng.integers(3)]
    n, d = int(rng.integers(2, 16)), int(rng.integers(1, 6))
    kind = ("column", "row")[rng.integers(2)]
    p = (1.0, 2.0, np.inf)[rng.integers(3)]
    scale = 10.0 ** rng.uniform(-3, 3)
    x0 = scale * rng.normal(size=(n, d))
    if rng.random() < 0.5:
        x0 += scale * rng.uniform(-10, 10)
    rho = scale * 10.0 ** rng.uniform(-10, -1)
    g = generate_digraph(n, model, seed, 0.5)
    return g, make_weights(g, kind), x0, rho, p


def _sweep_id(seed):
    g, W, x0, rho, p = _sweep_config(seed)
    return (f"s{seed}-{g.model}-n{g.n}-d{x0.shape[1]}-{W.kind}-p{p:g}"
            f"-scale{np.abs(x0).max():.0e}-rho{rho:.0e}")


_SWEEP_SEEDS = list(range(0, 100)) + list(range(1000, 1100))


@pytest.mark.parametrize("run", [run_radius_stopping, run_box_stopping],
                         ids=["radius", "box"])
@pytest.mark.parametrize("seed", _SWEEP_SEEDS, ids=map(_sweep_id, _SWEEP_SEEDS))
def test_seeded_sweep_halts_within_2rho_of_the_limit(seed, run):
    # the halting contract over models, sizes, engines, norms and scales:
    # every node halts in the same step within 2 rho of consensus_limit,
    # with a rounding allowance of 64 eps times the largest initial entry,
    # at the step that the run with history reports too: one window after
    # the first detection (radius), or the first boundary whose window-start
    # states span less than rho (box)
    g, W, x0, rho, p = _sweep_config(seed)
    tr = run(g, W, x0, rho, p=p)
    assert tr.halted
    dev = vector_norm(tr.rs[tr.halt_t] - consensus_limit(x0, W), p, axis=-1)
    assert dev.max() <= 2 * rho + 64 * np.finfo(float).eps * np.abs(x0).max()
    full = run(g, W, x0, rho, p=p, history=True)
    assert full.halt_t == tr.halt_t
    assert np.array_equal(full.rs[tr.halt_t], tr.rs[tr.halt_t])
    D = full.Dbound
    if run is run_radius_stopping:
        first = next(w for w in full.windows if (w.rbar < rho).any())
        assert full.halt_t == first.record_t + D
    else:
        assert full.halt_t == next((t for t in range(D, len(full.rs) + D, D)
                                    if vector_norm(np.ptp(full.rs[t - D], axis=0), p) < rho),
                                   None)
