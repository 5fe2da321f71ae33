import numpy as np
import pytest

from hullstop import (
    DiGraph,
    HullNodeState,
    PointSet,
    decode_extreme_set,
    encode_extreme_set,
    extreme_points,
    generate_digraph,
    hull_diameter,
    hull_round,
    make_weights,
    run_consensus,
    run_hull_consensus,
)

from oracles import m_hop_senders


def ring(n):
    edges = [(i, i) for i in range(n)] + [((i + 1) % n, i) for i in range(n)]
    return DiGraph(n=n, edges=tuple(sorted(edges)))


def corner_sets():
    return [
        np.array([[0.0, 0.0]]),
        np.array([[4.0, 0.0]]),
        np.array([[0.0, 4.0]]),
    ]


def test_ring_propagates_one_hop_per_round():
    g = ring(3)
    final, hist = run_hull_consensus(corner_sets(), g, return_history=True)
    # round 0: own points only
    assert [len(s) for s in hist[0]] == [1, 1, 1]
    # round 1: self plus predecessor
    assert [len(s) for s in hist[1]] == [2, 2, 2]
    assert hist[1][1] == PointSet(np.array([[0.0, 0.0], [4.0, 0.0]]))
    # round 2 = diameter: everyone holds the full triangle
    tri = PointSet(np.vstack(corner_sets()))
    assert all(s == tri for s in final)


def test_agreement_in_diameter_rounds_matches_centralized():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        d = int(rng.integers(1, 4))
        g = generate_digraph(n, "erdos_renyi", seed=seed + 40, edge_prob=0.35)
        sets = [rng.normal(size=(int(rng.integers(2, 5)), d)) for _ in range(n)]
        final = run_hull_consensus(sets, g)
        truth = extreme_points(np.vstack(sets))
        assert all(s == truth for s in final)


def test_per_round_states_match_neighborhood_unions():
    # node state after round t must equal the extreme set of the union of
    # all inputs within t hops, computed centrally
    rng = np.random.default_rng(17)
    g = generate_digraph(7, "erdos_renyi", seed=90, edge_prob=0.3)
    sets = [rng.normal(size=(3, 2)) for _ in range(7)]
    _, hist = run_hull_consensus(sets, g, return_history=True)
    for t in range(len(hist)):
        for i in range(7):
            grp = m_hop_senders(g, i, t)
            truth = extreme_points(np.vstack([sets[j] for j in sorted(grp)]))
            assert hist[t][i] == truth


def test_fixed_point_after_agreement():
    g = ring(4)
    sets = [np.random.default_rng(s).random((3, 2)) for s in range(4)]
    states = [HullNodeState(extreme_points(s)) for s in sets]
    for _ in range(g.diameter + 3):
        states = hull_round(states, g)
    truth = extreme_points(np.vstack(sets))
    assert all(s.ext == truth for s in states)
    # one more round changes nothing
    nxt = hull_round(states, g)
    assert all(a.ext == b.ext for a, b in zip(nxt, states))


def test_zero_rounds_returns_own_extremes():
    # round 0 of the history is each node's own extreme set
    g = ring(3)
    sets = corner_sets()
    _, hist = run_hull_consensus(sets, g, return_history=True)
    assert hist[0] == [extreme_points(s) for s in sets]


def test_input_validation():
    g = ring(3)
    with pytest.raises(ValueError):
        run_hull_consensus(corner_sets()[:2], g)
    mixed = [HullNodeState(PointSet(np.zeros((1, 2)))),
             HullNodeState(PointSet(np.zeros((1, 3)))),
             HullNodeState(PointSet(np.zeros((1, 2))))]
    with pytest.raises(ValueError):
        hull_round(mixed, g)


def test_wire_round_trip():
    ps = extreme_points(np.random.default_rng(5).normal(size=(9, 3)))
    msg = encode_extreme_set(ps)
    assert msg[0] == 3.0 and msg[1] == float(len(ps))
    assert decode_extreme_set(msg) == ps
    with pytest.raises(ValueError):
        decode_extreme_set(msg[:-1])
    with pytest.raises(ValueError):
        decode_extreme_set([2.0])


def test_distance_bound_from_known_extreme_set():
    # consensus states never leave the initial hull, so any later state is
    # within diam(E_0) of the limit
    g = generate_digraph(6, "erdos_renyi", seed=13, edge_prob=0.4)
    W = make_weights(g, "column")
    x0 = np.random.default_rng(6).random((6, 2)) * 3
    tr = run_consensus(W, x0, 60)
    bound = hull_diameter(extreme_points(x0)) + 1e-9  # slack for rounding
    limit = x0.mean(axis=0)
    assert np.linalg.norm(tr.rs - limit, axis=-1).max() <= bound
    # a deliberately far point violates it
    assert np.linalg.norm(tr.rs[-1] + 100.0 - limit, axis=-1).max() > bound


def test_hull_round_memo_shares_one_extreme_set_per_union(spy_calls):
    # on a complete graph every node unions the same senders, so each round
    # computes one extreme set; round 3 repeats round 2's union and, keeping
    # nothing between rounds, computes it again
    import hullstop.hull as hull
    g = generate_digraph(5, "complete", seed=0)
    rng = np.random.default_rng(31)
    sets = [rng.random((4, 2)) for _ in range(5)]
    states = [HullNodeState(extreme_points(s)) for s in sets]
    calls = spy_calls(hull, "extreme_points")
    sizes = []
    for _ in range(3):
        states = hull_round(states, g)
        assert all(s.ext is states[0].ext for s in states)
        sizes.append(len(calls))
    assert sizes == [1, 2, 3]
    assert calls[2][0][0] == calls[1][0][0]
    assert states[0].ext == extreme_points(np.vstack(sets))


def test_hull_round_asks_no_membership_query_twice(spy_calls):
    # in the bench's hull command, round 2 at seed 7 repeated 469 (rest, p)
    # queries across nodes before verdicts were shared within a round
    import hullstop.geometry as geometry
    g = generate_digraph(20, "erdos_renyi", 7, float(f"{4 * np.log(20) / 20:.6g}"))
    rng = np.random.default_rng([7, 2])
    states = [HullNodeState(extreme_points(rng.random((5, 3)))) for _ in range(g.n)]
    states = hull_round(states, g)
    calls = spy_calls(geometry, "_member")
    hull_round(states, g)
    keys = [(rest.shape, rest.tobytes(), p.tobytes()) for (rest, p), _ in calls]
    assert len(keys) > 100 and len(set(keys)) == len(keys)


@pytest.mark.parametrize("header", [[2.5, 1.0], [2.0, 0.5], [np.nan, 1.0], [2.0, np.inf],
                                    [-np.inf, 1.0]])
def test_decode_rejects_a_header_that_is_not_an_integer(header):
    with pytest.raises(ValueError, match="^message header d and m must be integers, got "):
        decode_extreme_set(header + [0.1, 0.2])


@pytest.mark.parametrize("seed", [0, 7])
def test_interior_certificate_settles_most_hull_command_queries(spy_calls, seed):
    # the bench's hull command (20 nodes, 5 points each in d=3, edge
    # probability 4 ln n / n): the memo and the coordinate and direction
    # certificates alone leave 1155 queries at seed 0 and 1081 at seed 7,
    # the interior certificate 127 and 248
    import hullstop.geometry as geometry
    g = generate_digraph(20, "erdos_renyi", seed, float(f"{4 * np.log(20) / 20:.6g}"))
    rng = np.random.default_rng([seed, 2])
    sets = [rng.random((5, 3)) for _ in range(g.n)]
    calls = spy_calls(geometry, "_member")
    final = run_hull_consensus(sets, g)
    central = extreme_points(np.vstack(sets))
    assert len(calls) <= 400
    assert all(e == central for e in final)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compare_command_builds_no_interior_certificate(spy_calls, tmp_path, seed, capsys):
    # the bench's compare command (25 nodes, d=10): no query of its hull
    # rule answers inside, so no call builds the certificate
    import hullstop.cli as cli
    import hullstop.geometry as geometry
    calls = spy_calls(geometry, "_inner_marks")
    argv = ["compare", "--nodes", "25", "--dim", "10", "--rho", "0.01",
            "--edge-prob", f"{4 * np.log(25) / 25:.6g}", "--seed", str(seed),
            "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert calls == []


def test_hull_command_memory_stays_below_a_cli_op(traced_peak, tmp_path, capsys):
    # the certificate's planes go in blocks of at most graph._BLOCK_BYTES,
    # and the command peaks at 0.30 MB (0.22-0.24 MB without it); taken all
    # at once they peaked at 0.52-2.1 MB at seeds 0, 3 and 7, above
    # funccalc's 0.42 MB, which sets the peak of a cli op
    import hullstop.cli as cli

    def hull_command(out):
        return lambda: cli.main(["hull", "--nodes", "20", "--dim", "3", "--points", "5",
                                 "--edge-prob", f"{4 * np.log(20) / 20:.6g}", "--seed", "0",
                                 "--out-dir", str(tmp_path / out)])

    assert traced_peak(hull_command("traced"), warm_up=hull_command("warm")) < 0.40e6
