"""Every entry point rejects bad input with its own ValueError message,
before any step runs: non-finite initial states, a rho that is not
positive, weights that are not a stochastic matrix on the graph's edges,
damaged state files, a geometry tolerance that is not a finite
nonnegative number, and a size or index that is not an integer."""

import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullstop import (DiGraph, ExperimentConfig, StochasticMatrix, extreme_points,
                      generate_digraph, hull_membership, is_convex_decreasing,
                      m_in_neighborhood, make_weights, read_state_csv, run_box_stopping,
                      run_consensus, run_hull_consensus, run_hull_stopping,
                      run_radius_stopping, windowed_radius_trace, write_state_csv)

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


@given(st.sampled_from([np.nan, np.inf, -np.inf]) | st.floats(max_value=-1e-300),
       st.integers(min_value=0, max_value=99))
@settings(max_examples=25, deadline=None)
def test_tolerance_that_is_not_finite_and_nonnegative_is_rejected(tol, seed):
    # at tol=inf a point far outside the unit square read as a member, and
    # at NaN or a negative tol every point of a cloud read as extreme
    square = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    cloud = np.random.default_rng(seed).random((6, 2))
    message = f"^{re.escape(f'tol must be finite and >= 0, got {tol}')}$"
    with pytest.raises(ValueError, match=message):
        hull_membership([5.0, 5.0], square, tol=tol)
    with pytest.raises(ValueError, match=message):
        extreme_points(cloud, tol=tol)
    with pytest.raises(ValueError, match=message):
        is_convex_decreasing(square, cloud, tol=tol)


_RING = generate_digraph(8, "ring")
_RING_W = make_weights(_RING, "column")
_RING_X0 = np.zeros((8, 2))
# each size or index by name, with every entry point that takes it
_INTEGER_ENTRIES = {
    "n": [lambda v: DiGraph(v, [(0, 0)]), lambda v: generate_digraph(v, "ring"),
          lambda v: ExperimentConfig(n=v).validate()],
    "i": [lambda v: m_in_neighborhood(_RING, v, 1)],
    "m": [lambda v: m_in_neighborhood(_RING, 0, v)],
    "dim": [lambda v: ExperimentConfig(dim=v).validate()],
    "dbound": [lambda v: ExperimentConfig(dbound=v).validate()],
    "Dbound": [lambda v, run=run: run(_RING, _RING_W, _RING_X0, 0.01, Dbound=v)
               for run in _STOPPING] + [lambda v: windowed_radius_trace(_RING, _RING_W, _RING_X0,
                                                                         Dbound=v)],
    "k_max": [lambda v, run=run: run(_RING, _RING_W, _RING_X0, 0.01, k_max=v)
              for run in _STOPPING] + [lambda v: ExperimentConfig(k_max=v).validate()],
    "steps": [lambda v: run_consensus(_RING_W, _RING_X0, v)],
    "max_windows": [lambda v: windowed_radius_trace(_RING, _RING_W, _RING_X0, max_windows=v)],
    "rounds": [lambda v: run_hull_consensus([[[0.0]]] * 8, _RING, v)],
}


@given(st.sampled_from(sorted(_INTEGER_ENTRIES)), st.data(),
       st.floats() | st.sampled_from([np.float64(3.0), "3", Decimal(3), 2 + 0j]))
@settings(max_examples=60, deadline=None)
def test_sizes_that_are_not_integers_are_rejected(name, data, value):
    # unchecked, m=1.5 flooded to every node, Dbound=5.9 ran with D=5,
    # ExperimentConfig(dbound=2.5) validated and DiGraph(2.5, ...) named a
    # missing self-loop of node 2.0
    entry = data.draw(st.sampled_from(_INTEGER_ENTRIES[name]))
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(value)


@pytest.mark.parametrize("name, low, entry", [
    ("m", 0, lambda v: m_in_neighborhood(_RING, 0, v)),
    ("Dbound", 1, lambda v: run_radius_stopping(_RING, _RING_W, _RING_X0, 0.01, Dbound=v)),
    ("k_max", 0, lambda v: run_box_stopping(_RING, _RING_W, _RING_X0, 0.01, k_max=v)),
    ("steps", 0, lambda v: run_consensus(_RING_W, _RING_X0, v)),
    ("max_windows", 1, lambda v: windowed_radius_trace(_RING, _RING_W, _RING_X0, max_windows=v)),
    ("rounds", 0, lambda v: run_hull_consensus([[[0.0]]] * 8, _RING, v)),
    ("dbound", 1, lambda v: ExperimentConfig(dbound=v).validate()),
    ("k_max", 1, lambda v: ExperimentConfig(k_max=v).validate()),
], ids=["m", "Dbound", "k_max", "steps", "max_windows", "rounds", "dbound", "config_k_max"])
def test_sizes_below_their_floor_are_rejected_by_name(name, low, entry):
    for value in (low - 1, np.int64(low - 3)):
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {int(value)}$"):
            entry(value)


def test_sizes_accept_what_operator_index_accepts():
    assert m_in_neighborhood(_RING, np.int64(0), np.uint8(1)) == frozenset({0, 7})
    assert generate_digraph(np.int32(3), "ring").n == 3
    assert ExperimentConfig(n=np.int64(4), dbound=np.int16(3)).validate().n == 4
    trace = run_radius_stopping(_RING, _RING_W, _RING_X0, 0.01, Dbound=np.int64(8),
                                k_max=np.int64(20))
    assert trace.Dbound == 8 and type(trace.Dbound) is int
