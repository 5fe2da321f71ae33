import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from hullstop import (
    PointSet,
    canonicalize_points,
    extreme_points,
    hull_diameter,
    is_convex_decreasing,
    pairwise_spread,
    vector_norm,
)
import hullstop.geometry as geometry
import hullstop.graph as graph
from oracles import extreme_points_reference, member_reference, monotone_chain, support_function


def hull_membership_set(S, q):
    """Whether q lies in the hull of S within _TOL: the library's one
    membership decider, on S canonicalized as extreme_points takes it."""
    return geometry._member(geometry._as_points(S), np.asarray(q, dtype=float))


finite = st.floats(min_value=-50, max_value=50, allow_nan=False, width=64)


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=2),
       st.integers(min_value=1, max_value=12), st.sampled_from([1.0, 2.0, np.inf]),
       st.sampled_from("CF"), st.data())
@settings(max_examples=300, deadline=None)
def test_vector_norm_matches_numpys_reduce_in_either_memory_order(lead, d, p, order, data):
    # below 8 columns vector_norm folds column by column; numpy's reduce
    # over the last axis is a left-to-right sum there in either memory
    # order, and pairwise from 8 on, where vector_norm keeps it
    entries = (st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e-200])
               | st.floats(min_value=-1e3, max_value=1e3))
    a = np.asarray(data.draw(hnp.arrays(np.float64, (*lead, d), elements=entries)), order=order)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if p == 2.0:
            ref = np.sqrt(np.add.reduce(a * a, axis=-1))
        else:
            ref = (np.add if p == 1.0 else np.maximum).reduce(np.abs(a), axis=-1)
        out = vector_norm(a, p)
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d", range(1, 8))
@pytest.mark.parametrize("p", [1.0, 2.0, np.inf])
@pytest.mark.parametrize("lead", [(40,), (5, 6)])
def test_norm_in_scratch_gives_the_bytes_of_the_copying_norm(lead, d, p):
    # scratch=True squares (or takes the abs of) its block in place in one
    # call and then folds the columns; without it each column is squared
    # into its own array. A single column keeps the copying path, so no
    # result views the scratch
    rng = np.random.default_rng(d)
    entries = np.array([0.0, -0.0, np.inf, -np.inf, 1.5, -2.25, 1e200, -1e-200])
    a = np.where(rng.random((*lead, d)) < 0.5, entries[rng.integers(0, 8, (*lead, d))],
                 rng.normal(size=(*lead, d)))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ref = geometry._norm(a, p)
        scratch = a.copy()
        out = geometry._norm(scratch, p, scratch=True)
    assert out.shape == lead and out.tobytes() == ref.tobytes()
    assert not np.shares_memory(out, scratch)


def test_canonicalize_sorts_lexicographically():
    pts = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 1.0]])
    out = canonicalize_points(pts)
    assert np.array_equal(out, [[0.0, 1.0], [0.0, 2.0], [1.0, 0.0]])


def test_canonicalize_dedupes_and_fixes_negative_zero():
    pts = np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
    out = canonicalize_points(pts)
    assert out.shape == (1, 2)
    # -0.0 and 0.0 collapse to the same representative
    assert np.signbit(out[0, 0]) == False  # noqa: E712


def test_canonicalize_promotes_1d():
    out = canonicalize_points(np.array([3.0, 1.0, 2.0]))
    assert out.shape == (3, 1)
    assert np.array_equal(out.ravel(), [1.0, 2.0, 3.0])


def test_canonicalize_rejects_nonfinite():
    with pytest.raises(ValueError):
        canonicalize_points(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        canonicalize_points(np.array([[np.inf, 0.0]]))


@given(st.lists(st.tuples(finite, finite), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_canonicalize_idempotent_and_order_free(pts):
    a = np.asarray(pts, dtype=float)
    c1 = canonicalize_points(a)
    assert np.array_equal(canonicalize_points(c1), c1)
    rng = np.random.default_rng(0)
    c2 = canonicalize_points(a[rng.permutation(len(a))])
    assert np.array_equal(c1, c2)


def test_pointset_equality_and_hash():
    a = PointSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
    b = PointSet(np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]))
    assert a == b and hash(a) == hash(b)
    c = PointSet(np.array([[0.0, 0.0]]))
    assert a != c


def test_vector_norms():
    v = np.array([3.0, -4.0])
    assert vector_norm(v, 2) == 5.0
    assert vector_norm(v, 1) == 7.0
    assert vector_norm(v, np.inf) == 4.0
    with pytest.raises(ValueError):
        vector_norm(v, 3)


def test_support_function_square():
    # the extreme set of the unit square is its four corners, and it keeps
    # the square's support values
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ext = extreme_points(sq).points
    assert {tuple(v) for v in ext} == {tuple(v) for v in sq}
    assert support_function(ext, np.array([1.0, 0.0])) == 1.0
    assert support_function(ext, np.array([-1.0, -1.0])) == 0.0
    assert support_function(ext, np.array([1.0, 1.0])) == 2.0


def test_support_function_ignores_interior_points():
    # an interior point leaves the extreme set, and no support value moves
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with_mid = np.vstack([sq, [[0.5, 0.5]]])
    ext = extreme_points(with_mid).points
    assert {tuple(v) for v in ext} == {tuple(v) for v in sq}
    for theta in np.linspace(0, 2 * np.pi, 17):
        d = np.array([np.cos(theta), np.sin(theta)])
        assert support_function(ext, d) == support_function(with_mid, d)


# --- membership ---


def _membership_oracle(pts, q):
    """Feasibility of q = pts^T lam, lam >= 0, sum lam = 1 via scipy."""
    m, d = pts.shape
    A_eq = np.vstack([pts.T, np.ones(m)])
    b_eq = np.append(q, 1.0)
    res = linprog(np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * m,
                  method="highs")
    return res.status == 0


def test_membership_examples():
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert hull_membership_set(tri, np.array([0.5, 0.5]))
    assert hull_membership_set(tri, np.array([1.0, 1.0]))  # on the edge
    assert not hull_membership_set(tri, np.array([1.1, 1.1]))
    assert not hull_membership_set(tri, np.array([-0.1, 0.0]))
    # vertices are members
    for q in tri:
        assert hull_membership_set(tri, q)


def test_membership_single_point():
    p = np.array([[2.0, 3.0]])
    assert hull_membership_set(p, np.array([2.0, 3.0]))
    assert not hull_membership_set(p, np.array([2.0, 3.1]))


def test_membership_degenerate_segment_in_3d():
    seg = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    assert hull_membership_set(seg, np.array([0.5, 0.5, 0.5]))
    assert not hull_membership_set(seg, np.array([0.5, 0.5, 0.6]))


@pytest.mark.parametrize("seed", range(12))
def test_membership_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    m, d = int(rng.integers(3, 16)), int(rng.integers(1, 5))
    pts = rng.normal(size=(m, d))
    for _ in range(12):
        if rng.random() < 0.5:
            lam = rng.random(m)
            q = (lam / lam.sum()) @ pts  # inside by construction
        else:
            q = rng.normal(size=d) * 1.5
        assert hull_membership_set(pts, q) == _membership_oracle(pts, q)


def test_membership_tiny_cloud_contains_itself():
    # spread near float resolution must not misclassify its own points
    base = np.array([0.3712, -1.529, 0.07])
    pts = base + 1e-10 * np.random.default_rng(7).normal(size=(6, 3))
    for q in pts:
        assert hull_membership_set(pts, q)


# --- extreme points ---


def test_extreme_points_drops_interior_mix():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.25, 0.25]])
    ext = extreme_points(pts)
    assert np.array_equal(ext.points, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


def test_extreme_points_1d_interval():
    ext = extreme_points(np.array([0.0, 0.5, 1.0]))
    assert np.array_equal(ext.points, [[0.0], [1.0]])


def test_extreme_points_collinear_midpoint_dropped():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert np.array_equal(extreme_points(pts).points, [[0.0, 0.0], [2.0, 2.0]])


def test_extreme_points_octagon_all_kept():
    th = 2 * np.pi * np.arange(8) / 8
    pts = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert len(extreme_points(pts)) == 8


def test_extreme_points_idempotent():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(30, 3))
    ext = extreme_points(pts)
    assert extreme_points(ext) == ext


def test_extreme_points_match_monotone_chain():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(40, 2))
        assert np.array_equal(extreme_points(pts).points, monotone_chain(pts))


def test_extreme_points_large_cloud_monotone_chain():
    pts = np.random.default_rng(42).normal(size=(1000, 2))
    assert np.array_equal(extreme_points(pts).points, monotone_chain(pts))


def test_extreme_points_preserve_hull():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(25, 3))
    ext = extreme_points(pts)
    # every original point is in the hull of the extreme set
    for q in pts:
        assert hull_membership_set(ext, q)
    # support function unchanged in sampled directions
    for _ in range(20):
        d = rng.normal(size=3)
        assert support_function(ext.points, d) == pytest.approx(support_function(pts, d))


def test_extreme_points_exact_duplicates():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(extreme_points(pts).points, [[0.0, 0.0], [1.0, 0.0]])


def test_extreme_points_single_point():
    # a lone point is the unique extreme of every coordinate, so it is kept
    for pts in ([[0.5, -1.0, 2.0]], [[3.0]], [[1.0, 2.0], [1.0, 2.0]]):
        want = np.unique(pts, axis=0)
        assert np.array_equal(extreme_points(pts).points, want)
        assert np.array_equal(extreme_points(pts, verdicts=geometry._Verdicts()).points, want)


# --- diameter / nesting ---


def test_hull_diameter_examples():
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert hull_diameter(sq, 2) == pytest.approx(np.sqrt(2))
    assert hull_diameter(sq, 1) == pytest.approx(2.0)
    assert hull_diameter(sq, np.inf) == pytest.approx(1.0)
    assert hull_diameter(np.array([[5.0, 5.0]]), 2) == 0.0


def test_hull_diameter_brute_force():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(15, 3))
    for p in (1, 2, np.inf):
        best = max(
            vector_norm(a - b, p) for a in pts for b in pts
        )
        assert hull_diameter(pts, p) == pytest.approx(best)



@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_pairwise_spread_matches_full_broadcast(p):
    # sizes that take one row block, several, and several with a 1-row last block
    rng = np.random.default_rng(14)
    for n, d in [(20, 3), (300, 10), (97, 7), (700, 3)]:
        pts = rng.normal(size=(n, d))
        full = vector_norm(pts[:, None, :] - pts[None, :, :], p, axis=-1).max()
        assert pairwise_spread(pts, p) == full


def test_pairwise_spread_memory_is_bounded(traced_peak):
    # the (n, n, d) broadcast alone would take 32 MB, 256 budgets, here.
    # Each row block's differences keep within the byte budget; the peak,
    # about 2 budgets, is one block and the column fold's (rows, n) norms
    pts = np.random.default_rng(15).normal(size=(1000, 4))
    assert traced_peak(lambda: pairwise_spread(pts)) < 3 * graph._BLOCK_BYTES

def test_is_convex_decreasing():
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    inner = np.array([[0.5, 0.5], [1.0, 0.0], [0.1, 1.5]])
    assert is_convex_decreasing(tri, inner)
    assert is_convex_decreasing(tri, tri)
    assert not is_convex_decreasing(inner, tri)
    # a point just outside fails, within tolerance passes
    eps_in = np.array([[2.0 + 5e-10, 0.0]])
    assert is_convex_decreasing(tri, eps_in)
    far_out = np.array([[2.1, 0.0]])
    assert not is_convex_decreasing(tri, far_out)


def test_nesting_cross_checked_by_support_functions():
    rng = np.random.default_rng(21)
    outer = rng.normal(size=(12, 3))
    lam = rng.random((6, 12))
    inner = (lam / lam.sum(axis=1, keepdims=True)) @ outer
    assert is_convex_decreasing(outer, inner)
    for _ in range(25):
        d = rng.normal(size=3)
        assert support_function(inner, d) <= support_function(outer, d) + 1e-9


def test_membership_of_convex_combinations_in_flat_clouds(monkeypatch):
    # clouds whose axes span eight orders of magnitude: Wolfe's method
    # alone calls about half of these interior points outside, so the
    # membership decision needs the tableau as well
    tableau = geometry._phase_one_feasible
    calls = []

    def counted(*args):
        calls.append(1)
        return tableau(*args)

    monkeypatch.setattr(geometry, "_phase_one_feasible", counted)
    for seed in range(300):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(3, 11))
        m = int(rng.integers(10, 40))
        pts = rng.normal(size=(m, d)) * np.logspace(0, -8, d)
        w = rng.dirichlet(np.ones(m))
        assert hull_membership_set(pts, w @ pts), (seed, m, d)
    assert len(calls) >= 1


def _wolfe_lower_bound(pts, q):
    """Best certified lower bound on the distance from q to the hull."""
    return geometry._min_norm_member(pts, q, np.inf)[1]


@pytest.mark.parametrize("seed, vertex", [(153, 28), (119, 34)])
def test_tableau_false_positive_on_flat_cloud_is_outside(seed, vertex):
    # a vertex pushed out from the centroid by a factor 1 + 1e-9: the
    # tableau accepts it, yet Wolfe's lower bound (checked in exact rational
    # arithmetic on its direction) puts it further than tol from the hull
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 11))
    m = int(rng.integers(10, 40))
    scale = 10.0 ** rng.uniform(0, 4)
    pts = canonicalize_points(rng.normal(size=(m, d)) * np.logspace(0, -8, d) * scale)
    c = pts.mean(axis=0)
    q = c + (1.0 + 1e-9) * (pts[vertex] - c)
    tol = geometry._TOL
    assert member_reference(pts, q, tol)
    assert not hull_membership_set(pts, q)
    assert _wolfe_lower_bound(pts, q) > tol


def _stress_cloud(rng, kind, scale):
    d = int(rng.integers(1, 11))
    m = int(rng.integers(d + 1, 3 * d + 12))
    pts = rng.normal(size=(m, d))
    if kind == "flat":
        pts *= np.logspace(0, -8, d)
    elif kind == "collapsed":
        pts = 1e-6 * pts + 10.0 * rng.normal(size=d)
    return canonicalize_points(pts * scale)


def _stress_queries(rng, pts, tol):
    m, d = pts.shape
    c = pts.mean(axis=0)
    yield from rng.dirichlet(np.ones(m), size=3) @ pts
    yield c
    for v in pts[rng.choice(m, size=min(m, 3), replace=False)]:
        yield v
        for rel in (1e-12, 1e-10, 1e-9, 1e-6, 1e-3, 0.5):
            yield c + (1.0 + rel) * (v - c)
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        for k in (0.5, 0.99, 1.01, 2.0, 10.0):
            yield v + k * tol * u


def test_membership_matches_reference_order_or_certifies_outside():
    # random, flat and collapsed clouds at scales 1e-8 to 1e6, d 1 to 10;
    # the certificate-first verdict equals the old box/tableau/Wolfe order,
    # or is "outside" with a certified distance above tol (the tableau's
    # false positives)
    tol = geometry._TOL
    queries = flipped = 0
    for seed in range(150):
        rng = np.random.default_rng(seed)
        kind = ("random", "flat", "collapsed")[seed % 3]
        pts = _stress_cloud(rng, kind, 10.0 ** rng.uniform(-8, 6))
        for q in _stress_queries(rng, pts, tol):
            queries += 1
            new = hull_membership_set(pts, q)
            if new != member_reference(pts, q, tol):
                flipped += 1
                assert not new and _wolfe_lower_bound(pts, q) > tol, (seed, kind, q)
    assert queries > 5000 and flipped <= queries // 1000


def _guard_cloud(rng, kind, d):
    """Random, flat (axes spanning eight orders of magnitude), collapsed (a
    1e-6 spread at offset 10) or random with repeated rows."""
    m = int(rng.integers(2, 3 * d + 12))
    pts = rng.normal(size=(m, d))
    if kind == "flat":
        pts *= np.logspace(0, -8, d)
    elif kind == "collapsed":
        pts = 10.0 + 1e-6 * pts
    elif kind == "duplicate":
        pts[rng.integers(0, m, size=m // 2)] = pts[rng.integers(0, m, size=m // 2)]
    return pts


def _assert_reference_bytes(got, pts):
    ref = extreme_points_reference(pts)
    assert got.points.shape == ref.points.shape and got.points.tobytes() == ref.points.tobytes()


def test_extreme_points_keep_the_reference_loops_verdicts():
    # certificates and memo may skip queries, never change an answer: the
    # extreme set is that of querying every other point in turn
    rng = np.random.default_rng(2016)
    for d in range(1, 9):
        for kind in ("random", "flat", "collapsed", "duplicate"):
            for _ in range(6):
                pts = _guard_cloud(rng, kind, d)
                _assert_reference_bytes(extreme_points(pts), pts)
                _assert_reference_bytes(extreme_points(pts, verdicts=geometry._Verdicts()), pts)


def test_unique_coordinate_skip_keeps_a_point_within_tol_of_the_hull():
    # the skip is exact, not tolerant: the point 1e-12 above the segment is
    # the unique maximum of y, kept though a query calls it a member; the
    # result is the reference loop's, not that of querying every point
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-12]]
    assert hull_membership_set(pts[:2], pts[2])
    got = extreme_points(pts)
    assert len(got.points) == 3
    _assert_reference_bytes(got, pts)
    _assert_reference_bytes(extreme_points(pts, verdicts=geometry._Verdicts()), pts)


@pytest.mark.parametrize("seed", [7, 0])
def test_hull_consensus_probes_keep_the_reference_loops_verdicts(monkeypatch, seed):
    # every probe of the bench's hull command (20 nodes, 5 points each in
    # d=3, edge probability 4 ln n / n), with the round's shared memo too
    import hullstop.hull as hull
    from hullstop import generate_digraph, run_hull_consensus
    calls = []
    real = hull.extreme_points

    def spy(S, *args, **kw):
        calls.append((S, real(S, *args, **kw)))
        return calls[-1][1]

    monkeypatch.setattr(hull, "extreme_points", spy)
    g = generate_digraph(20, "erdos_renyi", seed, float(f"{4 * np.log(20) / 20:.6g}"))
    rng = np.random.default_rng([seed, 2])
    run_hull_consensus([rng.random((5, 3)) for _ in range(g.n)], g)
    assert len(calls) > g.n
    for probe, got in calls:
        _assert_reference_bytes(got, probe)
        _assert_reference_bytes(extreme_points(probe), probe)
        _assert_reference_bytes(extreme_points(probe, verdicts=geometry._Verdicts()), probe)
