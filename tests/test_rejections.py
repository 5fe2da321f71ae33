"""Every entry point rejects bad input with its own ValueError message,
before any step runs: non-finite initial states, a rho that is not
positive, weights that are not a stochastic matrix on the graph's edges,
damaged state files, and a geometry tolerance that is not a finite
nonnegative number."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hullstop import (StochasticMatrix, extreme_points, generate_digraph, hull_membership,
                      is_convex_decreasing, make_weights, read_state_csv, run_box_stopping,
                      run_consensus, run_hull_stopping, run_radius_stopping,
                      windowed_radius_trace, write_state_csv)

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
