"""Pins the bytes of Wolfe's minimum-norm-point certificate.

`_min_norm_member` and its corral step call numpy's ufuncs and LAPACK
gufunc directly; `oracles.min_norm_member_reference` is the same loop
through numpy's wrappers. Both must return the same verdict and the same
lower bound, bit for bit, and the corral step must still raise where
np.linalg.lstsq raises.
"""

import numpy as np
import pytest

import hullstop.geometry as geometry
from oracles import min_norm_member_reference


def _assert_same_certificate(pts, p, margin):
    got = geometry._min_norm_member(pts, p, margin)
    ref = min_norm_member_reference(pts, p, geometry._TOL, margin)
    assert got[0] == ref[0], (pts, p, margin)
    assert np.float64(got[1]).tobytes() == np.float64(ref[1]).tobytes(), (pts, p, margin)


def _member_margin(pts, p):
    """The margin `_member` hands Wolfe, in its original numpy form."""
    s = max(float(np.abs(pts - p).max()), geometry._TOL)
    return geometry._margin(s, pts.shape[1])


def _cloud(rng, kind, d):
    """Random, flat (axes spanning eight orders of magnitude), collapsed (a
    1e-6 spread at offset 10), random with repeated rows, or sub-tol (a
    1e-11 spread, below the 1e-9 tolerance)."""
    m = int(rng.integers(2, 3 * d + 12))
    pts = rng.normal(size=(m, d))
    if kind == "flat":
        pts *= np.logspace(0, -8, d)
    elif kind == "collapsed":
        pts = 10.0 + 1e-6 * pts
    elif kind == "duplicate":
        pts[rng.integers(0, m, size=m // 2)] = pts[rng.integers(0, m, size=m // 2)]
    elif kind == "subtol":
        pts = 1.0 + 1e-11 * pts
    return pts


def _queries(rng, pts):
    """Points inside (convex combinations), on a vertex, just past a vertex
    and well outside."""
    m, d = pts.shape
    c = pts.mean(axis=0)
    yield rng.dirichlet(np.ones(m)) @ pts
    yield rng.dirichlet(0.2 * np.ones(m)) @ pts
    v = pts[int(rng.integers(m))]
    yield v
    yield c + (1.0 + 1e-9) * (v - c)
    yield c + 3.0 * (v - c) + rng.normal(size=d) * float(np.ptp(pts, axis=0).max())


@pytest.mark.parametrize("kind", ["random", "flat", "collapsed", "duplicate", "subtol"])
def test_min_norm_member_matches_reference_bytes(kind):
    rng = np.random.default_rng(["random", "flat", "collapsed", "duplicate", "subtol"].index(kind))
    for d in range(1, 9):
        for _ in range(12):
            pts = _cloud(rng, kind, d)
            for p in _queries(rng, pts):
                for margin in (geometry._TOL, _member_margin(pts, p), np.inf):
                    _assert_same_certificate(pts, p, margin)


@pytest.mark.parametrize("seed", [7, 0])
def test_min_norm_member_matches_reference_on_hull_command_queries(monkeypatch, seed):
    # every _member query of the bench's hull command (20 nodes, 5 points
    # each in d=3, edge probability 4 ln n / n): the consensus rounds and
    # the centralised extreme set it is checked against
    from hullstop import extreme_points, generate_digraph, run_hull_consensus
    queries = []
    real = geometry._member

    def spy(pts, p):
        queries.append((pts, p))
        return real(pts, p)

    monkeypatch.setattr(geometry, "_member", spy)
    g = generate_digraph(20, "erdos_renyi", seed, float(f"{4 * np.log(20) / 20:.6g}"))
    rng = np.random.default_rng([seed, 2])
    sets = [rng.random((5, 3)) for _ in range(g.n)]
    run_hull_consensus(sets, g)
    extreme_points(np.vstack(sets))
    assert len(queries) > 500
    for pts, p in queries:
        _assert_same_certificate(pts, p, _member_margin(pts, p))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_affine_minimizer_raises_on_nonfinite_entry(bad):
    # np.linalg.lstsq raises LinAlgError here; the direct gufunc call keeps
    # its errstate, so the corral step raises too instead of returning NaN
    A = np.random.default_rng(3).normal(size=(3, 4))
    A[1, 2] = bad
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(A[:, :-1] - A[:, 1:], -(A @ np.full(4, 0.25)), rcond=None)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        geometry._affine_minimizer(A)
