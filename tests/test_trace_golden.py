"""Pins the bytes of stopping and consensus traces.

Each case records one sha256 digest over the trace's rs, xs, ys, Rs and bs
arrays (dtype, shape and raw bytes; a missing array hashes as absent), its
halt_t, its max_points and every field of every window record. The digests
were recorded before the stopping rules shared one step loop and the engines
one edge-reduction kernel, and any rewrite of those must reproduce them
exactly: sums over the senders of a node run in ascending sender order.
"""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hullstop import graph
from hullstop import (generate_digraph, make_weights, run_box_stopping,
                      run_consensus, run_hull_stopping, run_radius_stopping,
                      windowed_radius_trace)

_ARRAYS = ("rs", "states", "xs", "ys", "Rs", "bs")


def _update(h, value):
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(value, float):
        h.update(value.hex().encode())
    else:
        h.update(repr(value).encode())
    h.update(b"\0")


def trace_digest(tr) -> str:
    h = hashlib.sha256()
    for name in _ARRAYS:
        h.update(name.encode())
        _update(h, getattr(tr, name, None))
    for name in ("halt_t", "max_points"):
        h.update(name.encode())
        _update(h, getattr(tr, name, None))
    for w in getattr(tr, "windows", ()):
        for name, value in zip(w._fields, w):
            h.update(name.encode())
            _update(h, value)
    return h.hexdigest()


def _er(n, seed, p=0.4):
    return generate_digraph(n, "erdos_renyi", seed, p)


def _x0(n, d, seed):
    return np.random.default_rng([seed, 1]).random((n, d))


def _stop(run, kind, n=8, d=2, seed=0, rho=1e-3, **kw):
    g = _er(n, seed)
    return run(g, make_weights(g, kind), _x0(n, d, seed), rho, history=True, **kw)


def _windowed(**kw):
    g = _er(8, 1)
    return windowed_radius_trace(g, make_weights(g, "column"), _x0(8, 3, 1), history=True, **kw)


def _consensus(kind):
    # recorded when run_consensus returned its own record, with the states
    # in a field named states: hashed in that slot, the digests still match
    g = _er(7, 2)
    tr = run_consensus(make_weights(g, kind), _x0(7, 3, 2), 25)
    return SimpleNamespace(states=tr.rs, xs=tr.xs, ys=tr.ys)


def _signed_zero(run, kind):
    g = _er(3, 3)
    x0 = np.array([[-0.0, 1.0], [-0.0, -2.5], [-0.0, 1e-300]])
    return run(g, make_weights(g, kind), x0, 1e-2, history=True)


def _er1000(run):
    g = generate_digraph(1000, "erdos_renyi", 0, 4.0 * math.log(1000) / 1000)
    return run(g, make_weights(g, "column"), _x0(1000, 4, 0), 1e-8, history=True)


def _ring60(run, kind):
    g = generate_digraph(60, "ring", 0)
    return run(g, make_weights(g, kind), _x0(60, 10, 0), 1e-3, k_max=300, history=True)


CASES = {
    "radius_ratio": lambda: _stop(run_radius_stopping, "column"),
    "radius_row": lambda: _stop(run_radius_stopping, "row"),
    "radius_ratio_inf": lambda: _stop(run_radius_stopping, "column", seed=4, p=np.inf),
    "box_ratio": lambda: _stop(run_box_stopping, "column"),
    "box_row": lambda: _stop(run_box_stopping, "row"),
    "box_row_l1": lambda: _stop(run_box_stopping, "row", seed=5, p=1.0),
    "hull_ratio": lambda: _stop(run_hull_stopping, "column", n=6, seed=1, rho=1e-2),
    "hull_row": lambda: _stop(run_hull_stopping, "row", n=6, seed=1, rho=1e-2),
    "windowed_max": lambda: _windowed(max_windows=5),
    "windowed_eps": lambda: _windowed(eps=1e-4),
    "radius_no_halt": lambda: _stop(run_radius_stopping, "column", rho=1e-15, k_max=11),
    "box_no_halt": lambda: _stop(run_box_stopping, "row", rho=1e-15, k_max=11),
    "consensus_ratio": lambda: _consensus("column"),
    "consensus_row": lambda: _consensus("row"),
    "signed_zero_radius": lambda: _signed_zero(run_radius_stopping, "row"),
    "signed_zero_box": lambda: _signed_zero(run_box_stopping, "column"),
    "er1000_radius": lambda: _er1000(run_radius_stopping),
    "er1000_box": lambda: _er1000(run_box_stopping),
    "ring60_radius": lambda: _ring60(run_radius_stopping, "column"),
    "ring60_box": lambda: _ring60(run_box_stopping, "row"),
}

GOLDEN = {
    "box_no_halt":
        "07830d773c96110267dbfcf33d29fceddca0ec76e187923fa0c6218017d80c3f",
    "box_ratio":
        "604ba0f2cc5e5b84f647aa8f853c8b41981c6463504c912f99dd1426d0d19911",
    "box_row":
        "60fa6704063334001b05539438c9cccfd707ff8d62a663c1f0daa2c8cd851a4b",
    "box_row_l1":
        "a3d33241915ecc40161cd47fbd6d5c12e32ad27a31d2da205f661943182f6ca2",
    "consensus_ratio":
        "64a20da5d2604d416a47d107eb9cc0234faf8f425e43eb6cef2976e427b936c6",
    "consensus_row":
        "a87c3f5944bd50ea19d994029e1fb721b8ba67e2201f3a2b976c6f118a3f6096",
    "er1000_box":
        "1fb9fbb569fb6075834dbf6dfc27c29fd95238fb6be30501fa294d88429e20ac",
    "er1000_radius":
        "6f3b95907b6b5412be74d6e48010bf5edfc6cadf0f81a2b35e4d77d591e3dc90",
    "hull_ratio":
        "98644f09f706dd8386b48c761a31967fba3b45545cbdf6105e30cdf9fece94e4",
    "hull_row":
        "edeb9c9a7a104a8f68f8cd146ff552856e214f8be21f854993289e97ae77fa17",
    "radius_no_halt":
        "dad63a0a91032d59153635e312c84b6ad3b9950a71055b12c29a0e10bc28219a",
    "radius_ratio":
        "b2b7c952f5060f03de217517d1a3fb6e29d70bac5fd26eda942fa7db3f240e5f",
    "radius_ratio_inf":
        "45319faf1e6ac9f4c9be4c9ddaed16bbeeff40f1f2613e93143a3a37b55f9e32",
    "radius_row":
        "43374998f44a19bf9f27d779cd801f0ec68b8cc311ac85281c9c20b7ec12382f",
    "ring60_box":
        "23fcc9a1fcb7a53f4352d1ee8bd3f6fce3ddfa9d738d9c11a01c287c9b4e519b",
    "ring60_radius":
        "b13fc47d88f800177d7db47b26ada1cbe3149e7965640626c66f1c04832468bc",
    "signed_zero_box":
        "3e76271b08a2a3bb7fd56a3bee7e273236f648ab2eaf654c6a84c736abaf4c3d",
    "signed_zero_radius":
        "8533b02d57429895feb23c4b386418d68e17c141f406fc2d0148f5806f822419",
    "windowed_eps":
        "acd02f540e7a9a55c85b218f1fe240244a0150e90c8f84cf668317e1730153dc",
    "windowed_max":
        "6473b99292d6fae1bd76f34539c366dc9a81efeefee6df5f98c97eb21df86eaa",
}


# each case as it runs, and the ER1000 radius run again on graphs built with
# the byte budget at its floor (graph._BLOCK_BYTES = 1): the layout's slots
# then gather one slot per group, 45 groups where the budget gives the run's
# sums and radius steps 10, and the bytes must not move
@pytest.mark.parametrize("name, budget",
                         [pytest.param(name, None, id=name) for name in sorted(CASES)]
                         + [pytest.param("er1000_radius", 1, id="er1000_radius-gather_floor")])
def test_trace_digest(name, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(graph, "_BLOCK_BYTES", budget)
    assert trace_digest(CASES[name]()) == GOLDEN[name]
