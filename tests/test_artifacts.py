"""Pins the artifact bytes.

The library writers must match the per-cell reference writers in
oracles.py byte for byte, and every CLI subcommand must reproduce the
recorded sha256 digests of its artifact directory.
"""

import hashlib
import os

import numpy as np
import pytest

import hullstop.cli as cli
from hullstop import (generate_digraph, make_weights, run_radius_stopping, write_state_csv,
                      write_termination_csv)
from hullstop.consensus import _CHUNK_ROWS, _csv_table
from oracles import (write_bound_reference, write_hull_rounds_reference,
                     write_state_csv_reference, write_termination_csv_reference)


def _radius_trace(kind, n, x0, rho, k_max=100_000, seed=3):
    g = generate_digraph(n, "erdos_renyi", seed, 0.4)
    return run_radius_stopping(g, make_weights(g, kind), x0, rho, k_max=k_max, history=True)


@pytest.fixture(scope="module")
def traces():
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(6, 3))
    x0[1, 0] = -0.0
    x0[4, 2] = -0.0
    signed_zero = np.array([[-0.0, 1.0], [-0.0, -2.5], [-0.0, 1e-300]])
    return {
        "ratio_halted": _radius_trace("column", 6, x0, 1e-3),
        "row_halted": _radius_trace("row", 6, x0, 1e-3),
        "ratio_no_halt": _radius_trace("column", 6, x0, 1e-15, k_max=9),
        "row_no_halt": _radius_trace("row", 6, x0, 1e-15, k_max=9),
        "one_node": _radius_trace("column", 1, x0[:1], 1e-2),
        "signed_zero": _radius_trace("row", 3, signed_zero, 1e-2),
    }


@pytest.mark.parametrize("name", ["ratio_halted", "row_halted", "ratio_no_halt",
                                  "row_no_halt", "one_node", "signed_zero"])
def test_writers_match_reference_bytes(tmp_path, traces, name):
    trace = traces[name]
    write_state_csv(trace, tmp_path / "s.csv")
    write_state_csv_reference(trace, tmp_path / "s_ref.csv")
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s_ref.csv").read_bytes()
    write_termination_csv(trace, tmp_path / "t.csv")
    write_termination_csv_reference(trace, tmp_path / "t_ref.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t_ref.csv").read_bytes()


# per-step blocks longer than one row chunk: (n, d, engine) giving n*d state
# rows with a partial last chunk, an exact multiple of the chunk, and n > chunk
# termination rows
CHUNKED = {"partial_chunk": (40, 13, "column"), "whole_chunks": (32, 16, "row"),
           "many_nodes": (300, 2, "column")}


@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_writers_match_reference_bytes_across_chunks(tmp_path, name):
    n, d, kind = CHUNKED[name]
    assert n * d > _CHUNK_ROWS
    trace = _radius_trace(kind, n, np.random.default_rng(n).normal(size=(n, d)), 1e-2, k_max=12)
    write_state_csv(trace, tmp_path / "s.csv")
    write_state_csv_reference(trace, tmp_path / "s_ref.csv")
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "s_ref.csv").read_bytes()
    write_termination_csv(trace, tmp_path / "t.csv")
    write_termination_csv_reference(trace, tmp_path / "t_ref.csv")
    assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "t_ref.csv").read_bytes()


def _odd_floats(rng, size):
    v = rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size)
    pick = rng.random(size)
    v[pick < 0.2] = np.nan
    v[(pick >= 0.2) & (pick < 0.3)] = np.inf
    v[(pick >= 0.3) & (pick < 0.4)] = -0.0
    return v


def test_text_tables_match_reference_bytes(tmp_path):
    """bound.csv and hull_rounds.csv in the cli's formats, with blocks longer
    than one row chunk."""
    rng = np.random.default_rng(16)
    n = 2 * _CHUNK_ROWS + 7
    blocks = []
    with _csv_table(tmp_path / "b.csv", "n,node,lhs,bound,holds", "%d,%d,%.17g,%.17g,%s") as write:
        for k in range(3):
            lhs, bound = _odd_floats(rng, n), _odd_floats(rng, n)
            holds = [None if h == 2 else h for h in rng.integers(0, 3, n).tolist()]
            write(k, np.arange(n), lhs, bound, ["na" if h is None else h for h in holds])
            blocks += zip([k] * n, range(n), lhs.tolist(), bound.tolist(), holds)
    write_bound_reference(blocks, tmp_path / "b_ref.csv")
    assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "b_ref.csv").read_bytes()

    rounds = [[";".join(f"{v:.17g}" for v in _odd_floats(rng, m)) for m in rng.integers(0, 9, n)]
              for _ in range(3)]
    with _csv_table(tmp_path / "h.csv", "round,node,message", "%d,%d,%s") as write:
        for t, messages in enumerate(rounds):
            write(t, np.arange(n), np.array(messages, dtype=object))
    write_hull_rounds_reference(rounds, tmp_path / "h_ref.csv")
    assert (tmp_path / "h.csv").read_bytes() == (tmp_path / "h_ref.csv").read_bytes()


def test_signed_zero_trace_writes_negative_zero(tmp_path, traces):
    trace = traces["signed_zero"]
    write_state_csv(trace, tmp_path / "s.csv")
    assert "\n0,0,0,-0,1,-0\n" in (tmp_path / "s.csv").read_text()


def _dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(path, name), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# digests of the artifact directories these commands wrote when the format
# was first pinned; --out-dir is relative because config.json records it
GOLDEN = {
    "run_radius": (["run", "--nodes", "6", "--dim", "3", "--seed", "3",
                    "--rho", "0.001", "--stopping", "radius"],
        "abc22f6a122eb14b72f109f68c52f658fc2a86837267a89680b1ce81074b897e"),
    "run_box": (["run", "--nodes", "6", "--dim", "2", "--seed", "4", "--rho", "0.001",
                 "--stopping", "box", "--engine", "row", "--norm", "inf"],
        "667519b55f25945cec34250e3e69a67982462218bdce235674cd469b7e31a2b3"),
    "run_none": (["run", "--nodes", "5", "--dim", "2", "--seed", "5",
                  "--stopping", "none", "--k-max", "12", "--norm", "1"],
        "96c8be9e3119b3ef1504f64a72642f622ad2143f8f3ae8805dab66e3226dc996"),
    "compare": (["compare", "--nodes", "6", "--dim", "2", "--seed", "2",
                 "--rho", "0.001"],
        "97b49b230793d16f921d6ea9049463d22a07b35cbc4cc3e8ce859cc094b68e66"),
    "hull": (["hull", "--nodes", "5", "--dim", "2", "--seed", "4", "--points", "3"],
        "c6641b560fafcb5c10a70a9a797822c72475a81c7ec62a2ebb5ea38de533c160"),
    "lse": (["lse", "--nodes", "6", "--degree", "2", "--seed", "1", "--k-max", "40"],
        "ea8e3f46f41e726a11019e864c71e64e9ddaea0f742b27f224312e2ec6b5e8c9"),
    "funccalc": (["funccalc", "--nodes", "5", "--function", "max", "--seed", "6"],
        "9505f1fbd9971c2210025b0fabf25887abeb59156882a77ee19faf2d2ed28410"),
    # recorded when perron_left moved to the edge list, whose sums moved the
    # last bit of this run's relative rho in summary.json
    "run_row_relative": (["run", "--engine", "row", "--rho-relative", "--rho", "0.01",
                          "--seed", "0"],
        "4cdca21fc56d07a9610f5075ff489c85981ce58c4175c7de9c2521e528c348ea"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_directory_digest(tmp_path, monkeypatch, name):
    argv, digest = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--out-dir", name]) == 0
    assert _dir_digest(name) == digest, sorted(os.listdir(name))
