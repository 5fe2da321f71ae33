"""Finite point sets in R^d and exact convex geometry primitives.

Hull membership and extreme point queries reduce to small dense linear
feasibility problems: p lies in the hull of points q_1..q_m exactly when
some t >= 0 with sum(t) = 1 satisfies sum(t_k q_k) = p. Sound distance
certificates decide first: a bounding-box reject and Wolfe's
minimum-norm-point iteration, whose iterates give an upper and a lower bound
on the distance from p to the hull. Only a query those bounds leave between
the tolerance and the simplex's own reach goes to a phase-one simplex with
Bland's rule, which needs no general position assumption and always
terminates. Every query uses the one absolute tolerance `_TOL`: p is a
member when it lies within 1e-9 of the hull.

Extreme-point queries are cut. A unique coordinate extreme is kept with no
query, exactly but blind to `_TOL`; so is a point ahead of every other along
one of 256 fixed unit directions by more than the margin past which a query
answers outside anyway (Dula and Helgason: frame points maximize linear
functions), which changes no verdict. Within one hull round, a `_Verdicts`
memo answers a repeated (point, ground set) query from the first answer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graph import _BLOCK_BYTES

__all__ = [
    "PointSet",
    "canonicalize_points",
    "vector_norm",
    "extreme_points",
    "pairwise_spread",
    "hull_diameter",
    "is_convex_decreasing",
]


def canonicalize_points(points) -> np.ndarray:
    """Sort rows lexicographically and drop exact duplicates.

    Accepts an (m, d) array or a 1-d sequence of scalars (treated as m
    points on the line). -0.0 is folded into +0.0 first so ordering and
    duplicate detection cannot distinguish the two zeros.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"expected a nonempty (m, d) point array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("points must be finite")
    arr = arr + 0.0
    arr = arr[np.lexsort(arr.T[::-1])]
    if len(arr) > 1:
        dup = np.all(arr[1:] == arr[:-1], axis=1)
        arr = arr[np.concatenate(([True], ~dup))]
    return arr


@dataclass(frozen=True, eq=False)
class PointSet:
    """Canonically ordered point set; exact duplicates removed."""

    points: np.ndarray

    def __post_init__(self):
        pts = canonicalize_points(self.points)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            np.all(self.points == other.points))

    def __hash__(self):
        return hash((self.points.shape, self.points.tobytes()))


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, PointSet):
        return obj.points
    return canonicalize_points(obj)


def _norm_order(p) -> float:
    """p as a float; a ValueError unless it is 1, 2 or inf."""
    p = float(p)
    if p not in (1.0, 2.0, np.inf):
        raise ValueError(f"unsupported norm order {p}, expected 1, 2 or inf")
    return p


def vector_norm(a, p: float = 2.0, axis: int = -1):
    """p-norm along an axis for p in {1, 2, inf}. A last axis of 1 to 7
    entries is folded column by column: below 8 terms numpy's pairwise sum
    adds left to right, so this gives ufunc.reduce's bytes in either memory
    order without its per-row cost. Other cases keep ufunc.reduce. a is
    never written."""
    return _norm(np.asarray(a, dtype=float), _norm_order(p), axis)


def _norm(a, p, axis=-1, scratch=False):
    """vector_norm on a float array a and a checked order p. scratch=True
    hands a over to be overwritten: a is squared (or its abs taken) in place
    in one call instead of into a second array of a's size, or of each
    column's, which gives the same bytes. A single column keeps the
    per-column path, so the result never views a."""
    term = np.square if p == 2.0 else np.abs
    ufunc = np.maximum if p == np.inf else np.add
    if a.ndim > 1 and axis in (-1, a.ndim - 1) and 0 < a.shape[-1] < 8:
        if scratch and a.shape[-1] > 1:
            term(a, out=a)
            acc = ufunc(a[..., 0], a[..., 1])
            for c in range(2, a.shape[-1]):
                ufunc(acc, a[..., c], out=acc)
        else:
            acc = term(a[..., 0])
            for c in range(1, a.shape[-1]):
                ufunc(acc, term(a[..., c]), out=acc)
    else:
        acc = ufunc.reduce(term(a, out=a) if scratch else term(a), axis=axis)
    return np.sqrt(acc) if p == 2.0 else acc


_EPS = np.finfo(float).eps
# the membership tolerance of every query: an absolute distance to the hull
_TOL = 1e-9


def _rhs_perturbation(d: int) -> np.ndarray:
    """The distinct epsilons that replace the tableau's d zero right-hand sides."""
    return 2.0 ** -40 + np.arange(d) * 2.0 ** -44


@functools.cache
def _rhs_sum(d: int) -> float:
    """sum(_rhs_perturbation(d)), summed once per d."""
    return float(_rhs_perturbation(d).sum())


def _tableau_threshold(s: float, d: int) -> float:
    """Largest phase-one optimum the tableau accepts as feasible, in units
    of the span s. 64 eps floors it at what float64 pivoting can resolve;
    the perturbations land in the optimum, so they are added back on top."""
    return max(_TOL / s, 64.0 * _EPS) + _rhs_sum(d)


def _margin(s: float, d: int) -> float:
    """Distance beyond which no point is one the tableau could accept, for a
    query of span s (see `_member`). It grows with s, so the margin of a
    larger span is a conservative stand-in."""
    return 2.0 * s * (_tableau_threshold(s, d) + _rhs_sum(d))


def _phase_one_feasible(pts: np.ndarray, p: np.ndarray) -> bool:
    """Decide feasibility of {t >= 0, sum t = 1, pts.T t = p}.

    Shifting by p turns the system into A t = b with b = (0,...,0,1) >= 0,
    the form a phase-one simplex needs. Three measures keep the tableau
    well behaved on the collapsed, highly anisotropic clouds consensus
    produces. The coordinate rows are divided by the cloud span, so entries
    are O(1) at any spread and the feasibility threshold divided by the
    same span keeps _TOL an absolute distance (clouds smaller than _TOL
    pass automatically through the span floor). The zero right-hand sides
    are perturbed by distinct epsilons well below the threshold: every ratio
    test is then strict, which both rules out degenerate cycling and steers
    the pivot away from near-parallel rows where a tiny pivot would wreck
    conditioning. Entering column is by largest reduced cost, falling back
    to lowest-index (Bland) if an unusually long run suggests stalling;
    the iteration cap only guards against numerical pathology and raising
    on it is deliberate.

    A feasible verdict is not a proof: the pivot and reduced-cost cutoffs
    can end phase one on an objective below the threshold for a point
    certifiably further than _TOL from the hull. On flat clouds (axes
    spanning eight orders of magnitude) such false positives occur, which
    is why `_member` lets a certified distance overrule it.
    """
    m, d = pts.shape
    nrows = d + 1
    A = np.empty((nrows, m))
    A[:d] = (pts - p).T
    A[d] = 1.0
    s = max(float(np.abs(A[:d]).max()), _TOL)
    A[:d] /= s
    b = np.empty(nrows)
    b[:d] = _rhs_perturbation(d)
    b[d] = 1.0
    ncols = m + nrows
    T = np.empty((nrows, ncols + 1))
    T[:, :m] = A
    T[:, m:ncols] = np.eye(nrows)
    T[:, ncols] = b
    basis = np.arange(m, ncols)
    obj = T.sum(axis=0)
    obj[m:ncols] = 0.0
    piv_tol = 1e-11
    cap = 300 * ncols
    bland_after = 100 * ncols
    for it in range(cap):
        cand = np.nonzero(obj[:ncols] > piv_tol)[0]
        if cand.size == 0:
            break
        j = cand[0] if it >= bland_after else cand[np.argmax(obj[cand])]
        col = T[:, j]
        pos = col > piv_tol
        if not pos.any():
            break
        ratios = np.full(nrows, np.inf)
        ratios[pos] = T[pos, ncols] / col[pos]
        rmin = ratios.min()
        # absolute + relative slack: roundoff can push a ratio slightly negative
        ties = np.nonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))[0]
        i = ties[np.argmin(basis[ties])]
        T[i] /= T[i, j]
        fac = T[:, j].copy()
        fac[i] = 0.0
        T -= np.outer(fac, T[i])
        obj -= obj[j] * T[i]
        basis[i] = j
    else:
        raise RuntimeError("phase-one simplex did not terminate, numerically degenerate input")
    return float(obj[ncols]) <= _tableau_threshold(s, d)


# np.linalg.lstsq's own gufunc, resolved at import so that a numpy without
# it (before 2.0 it was split in two) fails here rather than in a hull round
try:
    from numpy.linalg._umath_linalg import lstsq as _lstsq_gufunc
except ImportError as exc:
    raise ImportError("hullstop needs numpy>=2.4: numpy.linalg._umath_linalg.lstsq "
                      f"is missing from numpy {np.__version__}") from exc
if "ddd->ddid" not in _lstsq_gufunc.types:
    raise ImportError(f"numpy {np.__version__}: the lstsq gufunc has no float64 loop")


def _raise_lstsq_error(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


@functools.cache
def _uniform(k: int) -> np.ndarray:
    """The read-only barycentre np.full(k, 1/k), built once per k."""
    a0 = np.full(k, 1.0 / k)
    a0.setflags(write=False)
    return a0


_ZERO = np.zeros(1)
_ZERO.setflags(write=False)


def _affine_minimizer(A: np.ndarray):
    """Least-norm point of the affine hull of the columns of A.

    Solves min ||A a|| subject to sum a = 1 by eliminating the constraint:
    a = a0 + N b, where column i of N is e_i - e_(i+1), so A N is the
    consecutive column differences and N b is b minus b shifted by one.
    The reduced problem, which may be rank deficient, goes straight to the
    LAPACK gufunc (xGELSD) that np.linalg.lstsq wraps, with what the
    wrapper passes for rcond=None: rcond = eps * max of A N's shape, the
    'ddd->ddid' loop, and its errstate, so that non-convergence still
    raises LinAlgError. The bytes are therefore lstsq's, without its checks
    and casts, which on these 3 to 40 entry systems cost more than the
    solve. Returns the barycentric coordinates a.
    """
    k = A.shape[1]
    if k == 1:
        return np.ones(1)
    a0 = _uniform(k)
    B = A[:, :-1] - A[:, 1:]
    rhs = -(A @ a0)
    with np.errstate(call=_raise_lstsq_error, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        beta = _lstsq_gufunc(B, rhs[:, None], _EPS * max(B.shape),
                             signature="ddd->ddid")[0][:, 0]
    step = np.zeros(k)
    step[:-1] = beta
    step[1:] -= beta
    return a0 + step


def _min_norm_member(pts: np.ndarray, p: np.ndarray, margin: float):
    """Wolfe's distance certificate: (inside, best lower bound).

    Runs the minimum-norm-point iteration of Wolfe on the shifted cloud
    pts - p. The iterate y stays a convex combination of the inputs, so
    ||y|| is always a sound upper bound on the distance from p to the
    hull, and for any nonzero y the support value min_j <y, v_j> / ||y||
    is a sound lower bound. The loop exits as soon as ||y|| <= _TOL (inside)
    or a lower bound exceeds margin (outside, past anything the tableau
    could accept); inner least-squares error can therefore delay the
    decision but not corrupt it. On convergence or a stall it returns
    inside = ||y|| <= _TOL and the best lower bound seen, and the caller
    decides what a bound between _TOL and margin means.

    Reductions on the 3 to 40 entry arrays here call the ufunc's reduce
    (np.minimum.reduce for .min()) and argmin methods directly: the same
    arithmetic without numpy's Python-level wrappers, which cost more than
    it does. The bytes are pinned against the wrapper form in the tests.
    """
    V = pts - p
    m, _ = V.shape
    norms2 = np.einsum("ij,ij->i", V, V)
    scale = math.sqrt(float(np.maximum.reduce(norms2)))
    j0 = int(norms2.argmin())
    corral = [j0]
    lam = np.ones(1)
    y = V[j0].copy()
    best = np.inf
    best_lb = -np.inf
    stall = 0
    for _ in range(64 * (m + V.shape[1] + 2)):
        ny = math.sqrt(float(y @ y))
        if ny <= _TOL:
            break
        dots = V @ y
        j = int(dots.argmin())
        lb = float(dots[j]) / ny
        best_lb = max(best_lb, lb)
        if lb > margin:
            break
        if j in corral or lb >= ny - 1e-12 * scale:
            break
        if ny >= best - 1e-15 * scale:
            stall += 1
            if stall > 32:
                break
        else:
            best = ny
            stall = 0
        corral.append(j)
        lam = np.concatenate((lam, _ZERO))
        while True:
            A = V[corral].T
            alpha = _affine_minimizer(A)
            if np.minimum.reduce(alpha) > 1e-12:
                lam = alpha
                y = A @ alpha
                break
            neg = alpha <= 1e-12
            denom = lam - alpha
            ok = neg & (denom > 0)
            if not ok.any():
                alpha = np.clip(alpha, 0.0, None)
                lam = alpha / np.add.reduce(alpha)
                y = A @ lam
                break
            theta = float(np.minimum.reduce(lam[ok] / denom[ok]))
            lam = lam + theta * (alpha - lam)
            lam[lam < 1e-14] = 0.0
            if not (lam == 0.0).any():
                lam[int(lam.argmin())] = 0.0
            keep = lam > 0.0
            corral = [c for c, k_ in zip(corral, keep) if k_]
            lam = lam[keep]
            lam /= np.add.reduce(lam)
    else:
        ny = math.sqrt(float(y @ y))
    return ny <= _TOL, best_lb


def _member(pts: np.ndarray, p: np.ndarray) -> bool:
    """Membership of p in the hull of pts within the module's fixed _TOL
    (written tol below): sound certificates first, the tableau last.

    1. Bounding-box reject: the hull lies inside the box, widened by tol.
    2. Wolfe (`_min_norm_member`): ||y|| <= tol is a certified inside;
       a lower bound above margin is a certified outside. Its first iterate
       is the nearest input point v_j, j = argmin_j ||v_j - p|| (not the
       nearest point of the hull), so the direction u = v_j - p is tested
       there.
    3. Otherwise the phase-one tableau decides.

    The margin keeps each verdict that of the tableau-first order (box,
    tableau, then Wolfe on every infeasible verdict). The tableau answers
    feasible when its optimum, the L1 residual of t >= 0 in units of the
    span s = max(max|v_j - p|, tol), is at most theta = max(tol/s, 64 eps)
    + sum(b[:d]), b the right-hand-side perturbations. Then
    ||sum t_k (v_k - p)|| <= s (theta + sum b[:d]) and |1 - sum t| <= theta,
    so the hull point sum t_k v_k / sum t lies within
    s (theta + sum b[:d]) / (1 - theta) of p, at most
    margin = 2 s (theta + sum b[:d]) for theta <= 1/2. A certified distance
    above margin is therefore a point the tableau rejects too, and that
    order then asked Wolfe, who says outside. Wolfe's "inside" agrees with
    it because a distance <= tol never yields a lower bound above tol, the
    only exit the tableau-first order takes earlier on the same iterates.
    The verdicts differ only where the tableau accepted a point
    certifiably beyond its own reach: its false positives on flat clouds,
    and clouds within about 2 tol of p (theta > 1/2), where it accepts any
    point the box lets through. Those now read outside, as they should.
    """
    if ((p < np.minimum.reduce(pts) - _TOL) | (p > np.maximum.reduce(pts) + _TOL)).any():
        return False
    s = max(float(np.maximum.reduce(np.abs(pts - p), axis=None)), _TOL)
    margin = _margin(s, pts.shape[1])
    inside, lower = _min_norm_member(pts, p, margin)
    if inside:
        return True
    if lower > margin:
        return False
    return _phase_one_feasible(pts, p)


_N_DIRECTIONS = 256
_DIRECTION_BLOCK = 64


@functools.cache
def _directions(d: int) -> np.ndarray:
    """A fixed (d, 256) read-only array of unit directions, one draw per d."""
    U = np.random.default_rng([d, 20_160_301]).normal(size=(d, _N_DIRECTIONS))
    U /= np.sqrt((U * U).sum(axis=0))
    U.setflags(write=False)
    return U


def _direction_extremes(pts: np.ndarray) -> np.ndarray:
    """Points certified extreme by a fixed direction, with no query.

    A point that is the unique argmax of <x, u> for a unit u, ahead of the
    runner-up by more than the margin, lies further than the margin from
    the hull of the others, which all lie behind a hyperplane normal to u,
    so `_member` would answer outside. The margin is taken at the span of
    the whole set, which bounds the span of every query `extreme_points`
    could make, so it is conservative.
    Scores are taken from the lower corner of the box, which keeps their
    rounding a few eps of the span, far below the margin.
    """
    m, d = pts.shape
    lo = pts.min(axis=0)
    span = float((pts.max(axis=0) - lo).max())
    margin = _margin(max(span, _TOL), d)
    X = pts - lo
    U = _directions(d)
    found = np.zeros(m, dtype=bool)
    for b in range(0, _N_DIRECTIONS, _DIRECTION_BLOCK):
        scores = X @ U[:, b:b + _DIRECTION_BLOCK]
        cols = np.arange(scores.shape[1])
        top = scores.argmax(axis=0)
        best = scores[top, cols]
        scores[top, cols] = -np.inf
        found[top[best - scores.max(axis=0) > margin]] = True
    return found


class _Verdicts:
    """Membership verdicts shared by the `extreme_points` calls of one hull
    round. A query is keyed by the id of its point and the bitmask of the
    ids of its ground set, each id numbering a distinct row (by its bytes)
    in order of first sight. An equal key means the same point and, rows
    being in canonical order, the same ground-set array, so the stored
    verdict is the one `_member` would return again."""

    def __init__(self):
        self._ids: dict = {}
        self._seen: dict = {}

    def ids(self, pts: np.ndarray) -> list:
        ids = self._ids
        return [ids.setdefault(row.tobytes(), len(ids)) for row in pts]

    def member(self, rest: np.ndarray, p: np.ndarray, key) -> bool:
        verdict = self._seen.get(key)
        if verdict is None:
            verdict = self._seen[key] = _member(rest, p)
        return verdict


def extreme_points(S, verdicts: _Verdicts | None = None) -> PointSet:
    """Points of S not representable as convex combinations of the others.

    Each candidate is tested against the rest of the set; a point found
    interior is removed from the ground set immediately, which is sound
    because removing a non-extreme point leaves the hull unchanged. Two
    certificates settle points with no query: a unique coordinate extreme,
    and a point ahead of all others along one of 256 fixed directions by
    more than the margin past which `_member` answers outside anyway
    (`_direction_extremes`). Given verdicts, a hull round's `_Verdicts`,
    a (point, ground set) query already answered in that round is not
    asked again. The direction certificate and the memo change no verdict;
    the coordinate skip, exact but blind to `_TOL`, can keep a point a
    query would call a member. The result is tests/oracles.py's
    `extreme_points_reference`: the skip, then one query per other point.
    """
    pts = _as_points(S)
    m = pts.shape[0]
    # unique coordinate extremes can never be convex combinations of others
    lo, hi = pts == pts.min(axis=0), pts == pts.max(axis=0)
    definite = ((lo & (lo.sum(axis=0) == 1)) | (hi & (hi.sum(axis=0) == 1))).any(axis=1)
    if not definite.all():
        definite |= _direction_extremes(pts)
    if verdicts is None:
        verdicts = _Verdicts()
    bits = [1 << i for i in verdicts.ids(pts)]
    kept = sum(bits)
    keep = np.ones(m, dtype=bool)
    for idx in range(m):
        if definite[idx]:
            continue
        keep[idx] = False
        rest = pts[keep]
        key = (bits[idx], kept & ~bits[idx])
        if rest.shape[0] == 0 or not verdicts.member(rest, pts[idx], key):
            keep[idx] = True
        else:
            kept &= ~bits[idx]
    return PointSet(pts[keep])


def pairwise_spread(states, p: float = 2.0) -> float:
    """Largest pairwise p-norm distance among the rows of an (n, d) array,
    n >= 1, in row blocks whose (rows, n, d) differences keep within
    graph._BLOCK_BYTES, and at least one row: memory stays flat in n, and
    each pair's arithmetic, so the result, is that of one (n, n, d)
    broadcast."""
    arr = np.asarray(states, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected (n, d) states, got shape {arr.shape}")
    n, d = arr.shape
    if n == 0:
        raise ValueError(f"expected (n, d) states with n >= 1, got shape {arr.shape}")
    p = _norm_order(p)
    rows = max(1, _BLOCK_BYTES // max(1, n * d * arr.itemsize))
    # each block difference is its own array, so its norm may overwrite it
    return max(float(_norm(arr[s:s + rows, None, :] - arr, p, scratch=True).max())
               for s in range(0, n, rows))


def hull_diameter(E, p: float = 2.0) -> float:
    """Largest pairwise p-norm distance; on an extreme set this equals the
    diameter of the full hull."""
    return pairwise_spread(_as_points(E), p)


def is_convex_decreasing(prev, nxt) -> bool:
    """True when every point of nxt lies in the convex hull of prev within
    _TOL."""
    prev_pts = _as_points(prev)
    nxt_pts = _as_points(nxt)
    if prev_pts.shape[1] != nxt_pts.shape[1]:
        raise ValueError(
            f"dimension mismatch: {prev_pts.shape[1]} vs {nxt_pts.shape[1]}")
    return all(_member(prev_pts, q) for q in nxt_pts)
