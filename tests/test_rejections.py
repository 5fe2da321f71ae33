"""Every entry point rejects bad input with its own ValueError message,
before any step runs: non-finite initial states, a rho that is not
positive, weights that are not a stochastic matrix on the graph's edges,
damaged state files, and a size or index that is not an integer."""

import json
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullstop import (DiGraph, ExperimentConfig, HullNodeState, PointSet,
                      StochasticMatrix, bandwidth_accounting, bit_step, canonicalize_points,
                      consensus_limit, funccalc_init,
                      generate_digraph, hull_round, is_convex_decreasing,
                      make_weights, minmax_envelope, pairwise_spread,
                      read_state_csv, registered_function, run_box_stopping,
                      run_consensus, run_hull_stopping,
                      run_radius_stopping, unflatten_payload,
                      windowed_radius_trace, write_state_csv)
from hullstop import cli, graph_to_json, run_experiment

_STOPPING = [run_radius_stopping, run_box_stopping, run_hull_stopping]
_graphs = st.builds(lambda n, seed: generate_digraph(n, "erdos_renyi", seed, 0.6),
                    st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=99))
_kinds = st.sampled_from(["column", "row"])


def _states_with_one_bad_entry(data, n):
    d = data.draw(st.integers(min_value=1, max_value=3))
    x0 = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=99))).random((n, d))
    x0[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, d - 1))] = \
        data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return x0


@given(_graphs, _kinds, st.data())
@settings(max_examples=25, deadline=None)
def test_non_finite_initial_states_are_rejected_by_every_run(g, kind, data):
    W = make_weights(g, kind)
    x0 = _states_with_one_bad_entry(data, g.n)
    with pytest.raises(ValueError, match="^initial states must be finite$"):
        run_consensus(W, x0, data.draw(st.integers(min_value=0, max_value=3)))
    with pytest.raises(ValueError, match="^initial states must be finite$"):
        windowed_radius_trace(g, W, x0)
    for run in _STOPPING:
        with pytest.raises(ValueError, match="^initial states must be finite$"):
            run(g, W, x0, 0.01)


@given(_graphs, _kinds, st.sampled_from(_STOPPING),
       st.sampled_from([np.nan, 0.0, -0.0, -np.inf]) | st.floats(max_value=-1e-300))
@settings(max_examples=25, deadline=None)
def test_rho_that_is_not_positive_is_rejected(g, kind, run, rho):
    W = make_weights(g, kind)
    with pytest.raises(ValueError, match=f"^{re.escape(f'rho must be positive, got {rho}')}$"):
        run(g, W, np.zeros((g.n, 2)), rho)


@given(_graphs, _kinds, st.data())
@settings(max_examples=25, deadline=None)
def test_weights_off_the_edges_or_not_stochastic_are_rejected(g, kind, data):
    ew = make_weights(g, kind).edge_weights.copy()
    E = ew.size
    e = data.draw(st.integers(0, E - 1))
    fault = data.draw(st.sampled_from(["non-finite", "nonpositive", "count", "sum"]))
    if fault == "non-finite":
        ew[e] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        message = "weights must be finite"
    elif fault == "nonpositive":
        ew[e] = data.draw(st.sampled_from([0.0, -0.0]) | st.floats(max_value=-1e-300,
                                                                    min_value=-10.0))
        message = "edge weights must be strictly positive"
    elif fault == "count":
        ew = np.append(ew, ew[:1]) if data.draw(st.booleans()) else ew[:-1]
        message = f"weight shape ({ew.size},) does not match the {E} edges"
    else:
        ew[e] *= data.draw(st.floats(min_value=1e-3, max_value=0.999) |
                           st.floats(min_value=1.001, max_value=10.0))
        message = f"{kind} sums deviate from 1 by "
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        StochasticMatrix(kind, ew, g)


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=4),
       st.integers(min_value=1, max_value=3), st.sampled_from(["drop", "duplicate", "negative"]),
       st.data())
@settings(max_examples=25, deadline=None)
def test_damaged_state_files_are_rejected(tmp_path_factory, n, T, d, damage, data):
    g = generate_digraph(n, "ring", 0)
    trace = run_consensus(make_weights(g, "column"), np.arange(n * d, dtype=float).reshape(n, d),
                          T - 1)
    path = tmp_path_factory.mktemp("csv") / "states.csv"
    write_state_csv(trace, path)
    header, *rows = path.read_text().splitlines()
    j = data.draw(st.integers(0, len(rows) - 1))
    if damage == "drop":
        del rows[j]
    elif damage == "duplicate":
        rows.insert(data.draw(st.integers(0, len(rows))), rows[j])
    else:
        cells = rows[j].split(",")
        cells[data.draw(st.integers(0, 2))] = "-1"  # k, node or coord
        rows[j] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n")
    message = f"state csv {path} does not hold each (k, node, coord) exactly once"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_state_csv(path)


_RING = generate_digraph(8, "ring")
_RING_W = make_weights(_RING, "column")
_RING_X0 = np.zeros((8, 2))
# each size or index by name, with every entry point that takes it
_INTEGER_ENTRIES = {
    "n": [lambda v: DiGraph(v, [(0, 0)]), lambda v: generate_digraph(v, "ring"),
          lambda v: ExperimentConfig(n=v).validate()],
    "dim": [lambda v: ExperimentConfig(dim=v).validate()],
    "dbound": [lambda v: ExperimentConfig(dbound=v).validate()],
    "Dbound": [lambda v, run=run: run(_RING, _RING_W, _RING_X0, 0.01, Dbound=v)
               for run in _STOPPING] + [lambda v: windowed_radius_trace(_RING, _RING_W, _RING_X0,
                                                                         Dbound=v)],
    "k_max": [lambda v, run=run: run(_RING, _RING_W, _RING_X0, 0.01, k_max=v)
              for run in _STOPPING] + [lambda v: ExperimentConfig(k_max=v).validate()],
    "steps": [lambda v: run_consensus(_RING_W, _RING_X0, v)],
    "max_windows": [lambda v: windowed_radius_trace(_RING, _RING_W, _RING_X0, max_windows=v)],
    "B": [lambda v: bandwidth_accounting("radius", B=v),
          lambda v: bandwidth_accounting("box", B=v, d=2)],
    "d": [lambda v: bandwidth_accounting("box", d=v),
          lambda v: bandwidth_accounting("hull", d=v, hull_size=3)],
    "hull_size": [lambda v: bandwidth_accounting("hull", d=2, hull_size=v)],
}


@given(st.sampled_from(sorted(_INTEGER_ENTRIES)), st.data(),
       st.floats() | st.sampled_from([np.float64(3.0), "3", Decimal(3), 2 + 0j]))
@settings(max_examples=60, deadline=None)
def test_sizes_that_are_not_integers_are_rejected(name, data, value):
    # unchecked, Dbound=5.9 ran with D=5, ExperimentConfig(dbound=2.5)
    # validated, DiGraph(2.5, ...) named a missing self-loop of node 2.0 and
    # bandwidth_accounting("radius", B=2.5) counted 3.5 bits
    entry = data.draw(st.sampled_from(_INTEGER_ENTRIES[name]))
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(value)


@pytest.mark.parametrize("name, low, entry", [
    ("Dbound", 1, lambda v: run_radius_stopping(_RING, _RING_W, _RING_X0, 0.01, Dbound=v)),
    ("k_max", 0, lambda v: run_box_stopping(_RING, _RING_W, _RING_X0, 0.01, k_max=v)),
    ("steps", 0, lambda v: run_consensus(_RING_W, _RING_X0, v)),
    ("max_windows", 1, lambda v: windowed_radius_trace(_RING, _RING_W, _RING_X0, max_windows=v)),
    ("dbound", 1, lambda v: ExperimentConfig(dbound=v).validate()),
    ("k_max", 1, lambda v: ExperimentConfig(k_max=v).validate()),
    ("B", 1, lambda v: bandwidth_accounting("radius", B=v)),
    ("d", 1, lambda v: bandwidth_accounting("box", d=v)),
    ("hull_size", 1, lambda v: bandwidth_accounting("hull", d=2, hull_size=v)),
], ids=["Dbound", "k_max", "steps", "max_windows", "dbound", "config_k_max", "B", "d",
        "hull_size"])
def test_sizes_below_their_floor_are_rejected_by_name(name, low, entry):
    for value in (low - 1, np.int64(low - 3)):
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {int(value)}$"):
            entry(value)


def test_sizes_accept_what_operator_index_accepts():
    bits = bandwidth_accounting("hull", B=np.int64(32), d=np.uint8(2), hull_size=np.int16(7))
    assert bits == 448 and type(bits) is int
    assert generate_digraph(np.int32(3), "ring").n == 3
    assert ExperimentConfig(n=np.int64(4), dbound=np.int16(3)).validate().n == 4
    trace = run_radius_stopping(_RING, _RING_W, _RING_X0, 0.01, Dbound=np.int64(8),
                                k_max=np.int64(20))
    assert trace.Dbound == 8 and type(trace.Dbound) is int


def test_validated_sizes_are_stored_as_ints(tmp_path):
    # validate used to keep numpy integers, and run_experiment then failed
    # writing config.json: "Object of type int64 is not JSON serializable"
    names = ("n", "dim", "seed", "dbound", "k_max")
    cfg = ExperimentConfig(n=np.int64(5), dim=np.int32(2), seed=np.int64(3),
                           dbound=np.int64(5), k_max=np.int64(10_000),
                           out_dir=str(tmp_path / "run"))
    run_experiment(cfg)
    assert [type(getattr(cfg, name)) for name in names] == [int] * 5
    saved = json.loads((tmp_path / "run" / "config.json").read_text())
    assert [saved[name] for name in names] == [5, 2, 3, 5, 10_000]


_SEED_ENTRIES = [lambda v: generate_digraph(5, "ring", seed=v),
                 lambda v: generate_digraph(6, "erdos_renyi", seed=v),
                 lambda v: ExperimentConfig(seed=v).validate()]


@pytest.mark.parametrize("entry", _SEED_ENTRIES, ids=["ring", "erdos_renyi", "config"])
def test_seeds_that_are_not_nonnegative_integers_are_rejected_by_name(entry):
    # unchecked, ExperimentConfig(seed=2.5) validated and then failed inside
    # numpy, and a ring recorded "seed": 2.5 in graph.json
    for value in (2.5, np.float64(3.0), "3", None):
        message = f"seed must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry(value)
    for value in (-1, np.int64(-4)):
        with pytest.raises(ValueError, match=f"^seed must be >= 0, got {int(value)}$"):
            entry(value)


def test_graphs_record_the_seed_as_an_int_and_hand_built_ones_may_have_none():
    g = generate_digraph(5, "ring", seed=np.int64(3))
    assert type(g.seed) is int and g.seed == 3
    assert DiGraph(**json.loads(graph_to_json(g))) == g
    hand = DiGraph(2, [(0, 0), (1, 1), (0, 1), (1, 0)])
    assert hand.seed is None and DiGraph(**json.loads(graph_to_json(hand))).seed is None


@pytest.mark.parametrize("argv", [
    ["run"], ["compare", "--rho", "0.01"], ["hull"], ["lse"], ["funccalc"],
], ids=lambda argv: argv[0])
def test_cli_rejects_a_negative_seed_by_flag(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert cli.main(argv + ["--nodes", "4", "--seed", "-1", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "configuration error: --seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, low", [
    (["funccalc", "--k-max", "0"], 1),
    (["funccalc", "--k-max", "-3"], 1),
    (["lse", "--k-max", "-1"], 0),
], ids=["funccalc-0", "funccalc-neg", "lse-neg"])
def test_cli_rejects_a_step_budget_below_its_floor_by_flag(tmp_path, capsys, argv, low):
    # funccalc ran no step and exited 2 (no halt); lse failed in
    # run_consensus with "steps must be >= 0", naming no flag
    out = tmp_path / "o"
    assert cli.main(argv + ["--nodes", "4", "--out-dir", str(out)]) == 1
    message = f"configuration error: --k-max must be >= {low}, got {argv[2]}\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


_SQUARE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
_RING5 = generate_digraph(5, "ring")
_HULL_STATE = HullNodeState(PointSet(_SQUARE))


@pytest.mark.parametrize("entry, message", [
    (lambda: unflatten_payload(np.zeros(5), 2), "payload length 5 is not 2*2 + 2"),
    (lambda: funccalc_init([]), "need at least one node value"),
    (lambda: registered_function("max", 0), "need N >= 1, got 0"),
    (lambda: is_convex_decreasing(_SQUARE, [[0.5, 0.5, 0.5]]), "dimension mismatch: 2 vs 3"),
    (lambda: is_convex_decreasing(_SQUARE, [[0.5, np.nan]]), "points must be finite"),
    (lambda: is_convex_decreasing(_SQUARE, [[np.inf, 0.5]]), "points must be finite"),
    (lambda: pairwise_spread(np.zeros(3)), "expected (n, d) states, got shape (3,)"),
    (lambda: canonicalize_points(np.zeros((0, 2))),
     "expected a nonempty (m, d) point array, got shape (0, 2)"),
    (lambda: minmax_envelope(np.zeros((2, 2, 2))), "expected (n, d) states, got shape (2, 2, 2)"),
    (lambda: generate_digraph(0, "ring"), "need at least one node, got n=0"),
    (lambda: DiGraph(0, []), "need at least one node, got n=0"),
    (lambda: ExperimentConfig(edge_prob=0).validate(), "edge_prob must be in (0, 1], got 0"),
    (lambda: ExperimentConfig(edge_prob=1.5).validate(), "edge_prob must be in (0, 1], got 1.5"),
    (lambda: bit_step(_RING, np.zeros(7)), "bit vector shape (7,) does not match n=8"),
    (lambda: run_consensus(make_weights(_RING, "row"), np.zeros((7, 2)), 1),
     "initial states must be (8, d), got (7, 2)"),
    (lambda: run_consensus(make_weights(_RING, "row"), np.zeros(8), 1),
     "initial states must be (n, d), got shape (8,)"),
    (lambda: hull_round([_HULL_STATE] * 3, _RING5), "got 3 hull states for 5 nodes"),
    (lambda: hull_round([_HULL_STATE] * 7, _RING5), "got 7 hull states for 5 nodes"),
    (lambda: consensus_limit(np.ones((7, 2)), make_weights(_RING5, "column")),
     "initial states must be (5, d), got (7, 2)"),
    (lambda: consensus_limit(np.ones(5), make_weights(_RING5, "column")),
     "initial states must be (n, d), got shape (5,)"),
    (lambda: consensus_limit(np.ones((7, 2)), make_weights(_RING5, "row")),
     "initial states must be (5, d), got (7, 2)"),
], ids=["unflatten_payload", "funccalc_init", "registered_function",
        "is_convex_decreasing", "is_convex_decreasing-nan",
        "is_convex_decreasing-inf", "pairwise_spread",
        "canonicalize_points", "minmax_envelope", "generate_digraph", "DiGraph",
        "edge_prob-0", "edge_prob-1.5", "bit_step",
        "row_engine-n", "row_engine-ndim",
        "hull_round-few", "hull_round-many",
        "consensus_limit-n", "consensus_limit-ndim", "consensus_limit-row"])
def test_entry_points_reject_mismatched_input_with_their_message(entry, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry()


@pytest.mark.parametrize("argv, message", [
    (["compare"], "compare requires --rho"),
    (["hull", "--points", "0"], "--points must be >= 1, got 0"),
    (["lse", "--degree", "-1"], "--degree must be >= 0, got -1"),
], ids=["compare-rho", "hull-points", "lse-degree"])
def test_cli_rejects_a_missing_or_out_of_range_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert cli.main(argv + ["--nodes", "4", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "x,y\n", "x,y\n\n\n"], ids=["empty", "header", "blank"])
def test_cli_lse_rejects_a_dataset_without_rows(tmp_path, capsys, text):
    data = tmp_path / "data.csv"
    data.write_text(text)
    out = tmp_path / "o"
    assert cli.main(["lse", "--data", str(data), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == "configuration error: dataset is empty\n"
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "x,y\n0.5\n1.0\n",
    "x,y\n0.5,1.0,2.0\n1.0,2.0,3.0\n",
    "x,y\n0.5,1.0\n1.0,2.0,3.0\n",
    "x,y\n0.5,1.0\n1.0,two\n",
    "x,y\n# a comment\n0.5,1.0\n",
    "\nx,y\n0.5,1.0\n",
], ids=["one-column", "three-columns", "ragged", "non-numeric", "comment", "late-header"])
def test_cli_lse_rejects_a_malformed_dataset(tmp_path, capsys, text):
    data = tmp_path / "data.csv"
    data.write_text(text)
    out = tmp_path / "o"
    assert cli.main(["lse", "--data", str(data), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


@pytest.mark.parametrize("row", ["nan,2", "inf,2", "0.5,-inf", " NaN , 2 "],
                         ids=["nan-x", "inf-x", "inf-y", "padded-nan"])
def test_cli_lse_rejects_a_non_finite_row_by_file_and_line(tmp_path, capsys, row):
    # before any step runs: a non-finite x used to surface only in the
    # solve, as "SVD did not converge"
    data = tmp_path / "data.csv"
    data.write_text(f"x,y\n0.5,1.0\n\n{row}\n1.0,2.0\n")
    out = tmp_path / "o"
    assert cli.main(["lse", "--data", str(data), "--degree", "1", "--k-max", "5",
                     "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: {data} line 4: x and y must be finite, got {row.strip()!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--nodes", "0", "--rho", "nan", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["compare", "--nodes", "0", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["hull", "--points", "0", "--dim", "0", "--nodes", "0", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["lse", "--degree", "-1", "--nodes", "0", "--k-max", "-1", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["funccalc", "--rho", "nan", "--k-max", "0", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["hull", "--points", "0", "--dim", "0"], "--points must be >= 1, got 0"),
    (["lse", "--degree", "-1", "--nodes", "0", "--k-max", "-1"], "--degree must be >= 0, got -1"),
    (["lse", "--nodes", "0", "--k-max", "-1"], "--nodes must be >= 1, got 0"),
    (["funccalc", "--rho", "nan", "--k-max", "0"], "funccalc needs --rho > 0, got nan"),
], ids=["run-seed", "compare-seed", "hull-seed", "lse-seed", "funccalc-seed", "hull-points",
        "lse-degree", "lse-nodes", "funccalc-rho"])
def test_cli_names_the_first_bad_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert cli.main(argv + ["--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()
