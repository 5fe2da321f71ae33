import numpy as np

from hullstop.geometry import _affine_minimizer
from oracles import affine_minimizer_reference


def _corral_matrix(rng, kind):
    """A d x k matrix whose columns are corral points: random, flat (axes
    spanning eight orders of magnitude), collapsed (a 1e-6 spread at offset
    10) or random with repeated columns."""
    d = int(rng.integers(1, 12))
    k = int(rng.integers(2, d + 4))
    A = rng.normal(size=(d, k))
    if kind == "flat":
        A *= np.logspace(0, -8, d)[:, None]
    elif kind == "collapsed":
        A = 10.0 + 1e-6 * A
    elif kind == "duplicate":
        src = rng.integers(0, k, size=int(rng.integers(1, k)))
        dst = rng.integers(0, k, size=src.size)
        A[:, dst] = A[:, src]
    return A


def test_affine_minimizer_bytes_match_null_space_reference():
    rng = np.random.default_rng(2024)
    kinds = ("random", "flat", "collapsed", "duplicate")
    for i in range(6000):
        A = _corral_matrix(rng, kinds[i % len(kinds)])
        got = _affine_minimizer(A)
        ref = affine_minimizer_reference(A)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes(), (i, A)


def test_affine_minimizer_single_column_and_constraint():
    assert _affine_minimizer(np.array([[3.0], [4.0]])).tolist() == [1.0]
    A = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 2.0]])
    a = _affine_minimizer(A)
    assert abs(a.sum() - 1.0) < 1e-12
    assert np.linalg.norm(A @ a) < 1e-12
