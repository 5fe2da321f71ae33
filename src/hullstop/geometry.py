"""Finite point sets in R^d and exact convex geometry primitives.

Hull membership and extreme point queries reduce to small dense linear
feasibility problems: p lies in the hull of points q_1..q_m exactly when
some t >= 0 with sum(t) = 1 satisfies sum(t_k q_k) = p. That system is
decided by a phase-one simplex with Bland's rule, so no general position
assumption is needed and termination is guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PointSet",
    "canonicalize_points",
    "vector_norm",
    "support_function",
    "hull_membership",
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

    def union(self, other: "PointSet") -> "PointSet":
        return PointSet(np.vstack([self.points, other.points]))


def _as_points(obj) -> np.ndarray:
    if isinstance(obj, PointSet):
        return obj.points
    return canonicalize_points(obj)


def vector_norm(a, p: float = 2.0, axis: int = -1):
    """p-norm along an axis for p in {1, 2, inf}."""
    a = np.asarray(a, dtype=float)
    p = float(p)
    if p == 1.0:
        return np.abs(a).sum(axis=axis)
    if p == 2.0:
        return np.sqrt((a * a).sum(axis=axis))
    if np.isinf(p):
        return np.abs(a).max(axis=axis)
    raise ValueError(f"unsupported norm order {p}, expected 1, 2 or inf")


def support_function(S, u) -> float:
    """max over points of <x, u>; identical for a set and its convex hull."""
    pts = _as_points(S)
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != pts.shape[1]:
        raise ValueError(f"direction has dim {u.shape[0]}, points have dim {pts.shape[1]}")
    return float(np.max(pts @ u))


def _phase_one_feasible(pts: np.ndarray, p: np.ndarray, tol: float) -> bool:
    """Decide feasibility of {t >= 0, sum t = 1, pts.T t = p}.

    Shifting by p turns the system into A t = b with b = (0,...,0,1) >= 0,
    the form a phase-one simplex needs. Three measures keep the tableau
    well behaved on the collapsed, highly anisotropic clouds consensus
    produces. The coordinate rows are divided by the cloud span, so entries
    are O(1) at any spread and the feasibility threshold divided by the
    same span keeps tol an absolute distance (clouds smaller than tol pass
    automatically through the span floor). The zero right-hand sides are
    perturbed by distinct epsilons well below the threshold: every ratio
    test is then strict, which both rules out degenerate cycling and steers
    the pivot away from near-parallel rows where a tiny pivot would wreck
    conditioning. Entering column is by largest reduced cost, falling back
    to lowest-index (Bland) if an unusually long run suggests stalling;
    the iteration cap only guards against numerical pathology and raising
    on it is deliberate.
    """
    m, d = pts.shape
    nrows = d + 1
    A = np.empty((nrows, m))
    A[:d] = (pts - p).T
    A[d] = 1.0
    span = float(np.abs(A[:d]).max())
    s = max(span, tol)
    A[:d] /= s
    eps = np.finfo(float).eps
    b = np.full(nrows, 2.0 ** -40)
    b[:] += np.arange(nrows) * 2.0 ** -44
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
    # 64 eps floors the threshold at what float64 pivoting can resolve; the
    # perturbations land in the optimum, so they are added back on top
    threshold = max(tol / s, 64.0 * eps) + float(b[:d].sum())
    return float(obj[ncols]) <= threshold


def _affine_minimizer(A: np.ndarray):
    """Least-norm point of the affine hull of the columns of A.

    Solves min ||A a|| subject to sum a = 1 by eliminating the constraint
    (a = a0 + N b with N spanning the sum-zero directions) and handing the
    reduced problem to lstsq, which tolerates rank deficiency. Returns the
    barycentric coordinates a.
    """
    k = A.shape[1]
    if k == 1:
        return np.ones(1)
    a0 = np.full(k, 1.0 / k)
    N = np.zeros((k, k - 1))
    idx = np.arange(k - 1)
    N[idx, idx] = 1.0
    N[idx + 1, idx] = -1.0
    beta = np.linalg.lstsq(A @ N, -(A @ a0), rcond=None)[0]
    return a0 + N @ beta


def _min_norm_member(pts: np.ndarray, p: np.ndarray, tol: float) -> bool:
    """Distance certificate for the cases the tableau cannot settle.

    Runs the minimum-norm-point iteration of Wolfe on the shifted cloud
    pts - p. The iterate y stays a convex combination of the inputs, so
    ||y|| is always a sound upper bound on the distance from p to the
    hull, and for any nonzero y the support value min_j <y, v_j> / ||y||
    is a sound lower bound. The loop exits on whichever certificate
    settles the comparison with tol first; inner least-squares error can
    therefore delay the decision but not corrupt it. Stalls fall back to
    the upper bound, the honest call at the precision available.
    """
    V = pts - p
    m, _ = V.shape
    norms2 = np.einsum("ij,ij->i", V, V)
    scale = float(np.sqrt(norms2.max()))
    j0 = int(np.argmin(norms2))
    corral = [j0]
    lam = np.ones(1)
    y = V[j0].copy()
    best = np.inf
    stall = 0
    for _ in range(64 * (m + V.shape[1] + 2)):
        ny = float(np.sqrt(y @ y))
        if ny <= tol:
            return True
        dots = V @ y
        lb = float(dots.min()) / ny
        if lb > tol:
            return False
        j = int(np.argmin(dots))
        if j in corral or lb >= ny - 1e-12 * scale:
            return ny <= tol
        if ny >= best - 1e-15 * scale:
            stall += 1
            if stall > 32:
                return ny <= tol
        else:
            best = ny
            stall = 0
        corral.append(j)
        lam = np.append(lam, 0.0)
        while True:
            A = V[corral].T
            alpha = _affine_minimizer(A)
            if alpha.min() > 1e-12:
                lam = alpha
                y = A @ alpha
                break
            neg = alpha <= 1e-12
            denom = lam - alpha
            ok = neg & (denom > 0)
            if not ok.any():
                alpha = np.clip(alpha, 0.0, None)
                lam = alpha / alpha.sum()
                y = A @ lam
                break
            steps = lam[ok] / denom[ok]
            theta = float(steps.min())
            lam = lam + theta * (alpha - lam)
            lam[lam < 1e-14] = 0.0
            if not (lam == 0.0).any():
                lam[int(np.argmin(lam))] = 0.0
            keep = lam > 0.0
            corral = [c for c, k_ in zip(corral, keep) if k_]
            lam = lam[keep]
            lam /= lam.sum()
    ny = float(np.sqrt(y @ y))
    return ny <= tol


def _member(pts: np.ndarray, p: np.ndarray, tol: float) -> bool:
    """Membership decision: cheap reject, fast tableau, then certificate.

    The bounding-box reject is sound because the hull lies inside the box.
    A feasible tableau verdict is kept as is; an infeasible one is checked
    against the distance certificate, because collapsed nearly affine
    clouds can stall the tableau into a false negative but cannot produce
    a spurious feasibility.
    """
    if ((p < pts.min(axis=0) - tol) | (p > pts.max(axis=0) + tol)).any():
        return False
    if _phase_one_feasible(pts, p, tol):
        return True
    return _min_norm_member(pts, p, tol)


def hull_membership(p, S, tol: float = 1e-9) -> bool:
    """True when p lies in the convex hull of S within tol."""
    pts = _as_points(S)
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.shape[0] != pts.shape[1]:
        raise ValueError(f"point has dim {p.shape[0]}, set has dim {pts.shape[1]}")
    if not np.isfinite(p).all():
        raise ValueError("query point must be finite")
    return _member(pts, p, tol)


def extreme_points(S, tol: float = 1e-9) -> PointSet:
    """Points of S not representable as convex combinations of the others.

    Each candidate is tested against the rest of the set; a point found
    interior is removed from the ground set immediately, which is sound
    because removing a non-extreme point leaves the hull unchanged.
    """
    pts = _as_points(S)
    m, d = pts.shape
    if m == 1:
        return PointSet(pts)
    # unique coordinate extremes can never be convex combinations of others
    definite = np.zeros(m, dtype=bool)
    for c in range(d):
        col = pts[:, c]
        for val in (col.min(), col.max()):
            hits = np.nonzero(col == val)[0]
            if hits.size == 1:
                definite[hits[0]] = True
    keep = np.ones(m, dtype=bool)
    for idx in range(m):
        if definite[idx]:
            continue
        keep[idx] = False
        rest = pts[keep]
        if rest.shape[0] == 0 or not _member(rest, pts[idx], tol):
            keep[idx] = True
    return PointSet(pts[keep])


def pairwise_spread(states, p: float = 2.0) -> float:
    """Largest pairwise p-norm distance among the rows of an (n, d) array."""
    arr = np.asarray(states, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected (n, d) states, got shape {arr.shape}")
    if arr.shape[0] == 1:
        return 0.0
    diffs = arr[:, None, :] - arr[None, :, :]
    return float(vector_norm(diffs, p, axis=-1).max())


def hull_diameter(E, p: float = 2.0) -> float:
    """Largest pairwise p-norm distance; on an extreme set this equals the
    diameter of the full hull."""
    return pairwise_spread(_as_points(E), p)


def is_convex_decreasing(prev, nxt, tol: float = 1e-9) -> bool:
    """True when every point of nxt lies in the convex hull of prev."""
    prev_pts = _as_points(prev)
    nxt_pts = _as_points(nxt)
    if prev_pts.shape[1] != nxt_pts.shape[1]:
        raise ValueError(
            f"dimension mismatch: {prev_pts.shape[1]} vs {nxt_pts.shape[1]}")
    return all(_member(prev_pts, q, tol) for q in nxt_pts)
