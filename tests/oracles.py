"""Independent reference implementations used only by the tests.

Deliberately written with different algorithms than the library: reachability
by set saturation, m-hop senders by m rounds of it, out-adjacency by one pass
over the edge pairs, diameter by Floyd-Warshall, Erdos-Renyi graphs by one
(n, n) draw per attempt judged by set saturation, planar hulls by the monotone
chain construction, support values by one matrix product, a sample's
least-squares payload by np.outer, in-neighbour sums by a plain loop over the
dense weight view, in-neighbour maxima and minima by a fold one edge at a
time, so agreement is meaningful. The in-layout's edge-length slot
permutation, the writers, the membership decider, Wolfe's loop
and its corral step, the per-item least-squares bound and the extreme-point
loop are the earlier forms of library code, kept to show that a faster form
gives the same result. The dense n x n weight view lives only here, with the
dense Perron power iteration that the per-edge perron_left replaced.
"""

import math

import numpy as np

from hullstop.applications import ErrorBound
from hullstop.consensus import _PERRON_MAX_ITER, _PERRON_TOL
from hullstop.geometry import (PointSet, _as_points, _member, _min_norm_member,
                               _phase_one_feasible, vector_norm)


def reach_set(adj, start):
    """Transitive closure from start by repeated expansion."""
    seen = {start}
    frontier = {start}
    while frontier:
        nxt = set()
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
    return seen


def er_draw_reference(rng, n, edge_prob):
    """One Erdos-Renyi draw made whole: a sends to b when entry [a, b] of
    rng.random((n, n)) is below edge_prob, self-loops included, as the
    sorted (receiver, sender) pairs."""
    mask = rng.random((n, n)) < edge_prob
    np.fill_diagonal(mask, True)
    return np.argwhere(mask.T)


def generate_er_reference(n, seed, edge_prob):
    """generate_digraph's Erdos-Renyi model from whole draws: the sorted
    edge pairs of the first strongly connected draw, node 0 reaching every
    node and every node reaching it, and the number of draws made."""
    rng = np.random.default_rng(seed)
    draws = 0
    while True:
        pairs = er_draw_reference(rng, n, edge_prob).tolist()
        draws += 1
        out, into = [[] for _ in range(n)], [[] for _ in range(n)]
        for recv, snd in pairs:
            out[snd].append(recv)
            into[recv].append(snd)
        if len(reach_set(out, 0)) == len(reach_set(into, 0)) == n:
            return tuple(map(tuple, pairs)), draws


def m_hop_senders(g, i, m):
    """The nodes that reach node i in at most m hops, i included: m rounds
    of expansion over g.in_adj from {i}."""
    seen = {i}
    frontier = {i}
    for _ in range(m):
        frontier = {j for v in frontier for j in g.in_adj[v]} - seen
        seen |= frontier
    return frozenset(seen)


def out_adjacency(g):
    """out_adj[j]: the receivers i of the edges (i, j) of g, ascending."""
    out = [[] for _ in range(g.n)]
    for i, j in sorted(g.edges):
        out[j].append(i)
    return tuple(map(tuple, out))


def support_function(points, u):
    """max over the points x of <x, u>."""
    return float(np.max(np.asarray(points, dtype=float) @ np.asarray(u, dtype=float)))


def lse_local_payload(x, y, basis):
    """One sample's least-squares payload (g g^T, g y), g the basis at x."""
    g = np.array([f(x) for f in basis], dtype=float)
    return np.outer(g, g), g * y


def dense_weights(W):
    """The dense (n, n) view of W's per-edge weights, w[i, j] the weight j
    gives i, read-only."""
    w = np.zeros((W.graph.n, W.graph.n))
    w[W.graph.edge_arrays] = W.edge_weights
    w.setflags(write=False)
    return w


def perron_left_dense_reference(A):
    """perron_left's earlier dense form: power iteration with the dense
    transpose of a row-stochastic (n, n) array A."""
    n = A.shape[0]
    v = np.full(n, 1.0 / n)
    At = np.ascontiguousarray(A.T)
    for _ in range(_PERRON_MAX_ITER):
        w = At @ v
        w = w / w.sum()
        if np.abs(w - v).sum() <= _PERRON_TOL:
            return w
        v = w
    raise RuntimeError("power iteration did not converge; matrix may not be primitive")


def in_sum_reference(W, values):
    """The determinism contract written out: for each receiver i and each
    coordinate, acc = 0.0, then acc += w[i, j] * values[j] over the
    senders j of i in ascending order, one float64 addition at a time,
    w = dense_weights(W). values is (n,) or (n, d)."""
    values = np.asarray(values, dtype=float)
    cols = values.reshape(len(values), -1)
    out = np.empty_like(cols)
    w = dense_weights(W)
    for i, senders in enumerate(W.graph.in_adj):
        for c in range(cols.shape[1]):
            acc = 0.0
            for j in senders:
                acc += w[i, j] * cols[j, c]
            out[i, c] = acc
    return out.reshape(values.shape)


def slot_order_reference(n, recv):
    """For receiver-sorted edge receivers recv that include every self-loop:
    the edge at each slot of the in-layout, the ranked receivers, each
    receiver's rank (both None for the identity) and the (start, m) blocks."""
    deg = np.bincount(recv, minlength=n)
    ranked = np.argsort(-deg, kind="stable")
    rank = np.empty(n, dtype=np.intp)
    rank[ranked] = np.arange(n)
    # m[k]: the receivers with more than k senders, the first m[k] ranked
    m = n - np.cumsum(np.bincount(deg))[:-1]
    starts = np.cumsum(m) - m
    pos = np.arange(len(recv)) - (np.cumsum(deg) - deg)[recv]
    order = np.empty(len(recv), dtype=np.intp)
    order[starts[pos] + rank[recv]] = np.arange(len(recv))
    for a in (ranked, rank):
        a.setflags(write=False)
    if (deg[1:] <= deg[:-1]).all():
        ranked = rank = None
    return order, ranked, rank, tuple(zip(starts.tolist(), m.tolist()))


def _fold_senders(g, ufunc, per_edge):
    """ufunc over each receiver's per-edge values, the edges sorted by
    (receiver, sender), folded one sender at a time from the first:
    acc = ufunc(acc, next). ufunc.reduceat is no reference here: on a
    (28, 4) segment of +-0.0 ties its np.minimum picked -0.0 in a column
    where this fold and ufunc.reduce(axis=0) pick +0.0."""
    bounds = np.searchsorted(g.edge_arrays[0], np.arange(g.n + 1)).tolist()
    out = []
    for a, b in zip(bounds, bounds[1:]):
        acc = per_edge[a:a + 1].copy()
        for e in range(a + 1, b):
            ufunc(acc, per_edge[e:e + 1], out=acc)
        out.append(acc)
    return np.concatenate(out)


def radius_step_reference(g, r_new, r_old, R_old, p):
    """radius_step over the edge list: one candidate per edge, then
    np.maximum folded over each receiver's senders."""
    dst, src = g.edge_arrays
    cand = vector_norm(r_new[dst] - r_old[src], p, axis=-1) + R_old[src]
    return _fold_senders(g, np.maximum, cand)


def bit_step_reference(g, b):
    """bit_step over the edge list."""
    return _fold_senders(g, np.maximum, b[g.edge_arrays[1]])


def envelope_step_reference(g, M, m):
    """One box-rule flood round over the edge list: the coordinatewise
    max of the senders' M and min of their m."""
    src = g.edge_arrays[1]
    return _fold_senders(g, np.maximum, M[src]), _fold_senders(g, np.minimum, m[src])


def floyd_warshall_diameter(n, edges):
    """All-pairs shortest paths on the sender -> receiver digraph."""
    INF = float("inf")
    dist = [[INF] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
    for recv, snd in edges:
        if recv != snd:
            dist[snd][recv] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return int(max(max(row) for row in dist))


def monotone_chain(points):
    """Strict planar hull vertices (collinear edge points excluded),
    returned in lexicographic order."""
    pts = sorted(set(map(tuple, np.asarray(points, dtype=float))))
    if len(pts) == 1:
        return np.asarray(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = set(lower[:-1] + upper[:-1])
    return np.asarray(sorted(hull))


def write_state_csv_reference(trace, path):
    """The per-cell f-string writer that defined the states.csv bytes."""
    states = trace.rs
    T, n, d = states.shape
    xs = trace.xs if trace.xs is not None else states
    with open(path, "w", newline="") as fh:
        fh.write("k,node,coord,x,y,r\n")
        for k in range(T):
            for i in range(n):
                y = trace.ys[k, i] if trace.ys is not None else 1.0
                for c in range(d):
                    fh.write(f"{k},{i},{c},{xs[k, i, c]:.17g},{y:.17g},{states[k, i, c]:.17g}\n")


def write_state_csv_rows_reference(trace, path):
    """The one-format-per-row writer that formatted every cell of a row,
    repeated y and shared x = r included, with one %-format."""
    states = trace.rs
    T, n, d = states.shape
    xs = trace.xs if trace.xs is not None else states
    with open(path, "w", newline="") as fh:
        fh.write("k,node,coord,x,y,r\n")
        for k in range(T):
            for i in range(n):
                y = float(trace.ys[k, i]) if trace.ys is not None else 1.0
                for c in range(d):
                    fh.write("%d,%d,%d,%.17g,%.17g,%.17g\n"
                             % (k, i, c, float(xs[k, i, c]), y, float(states[k, i, c])))


def write_termination_csv_reference(trace, path):
    """The per-cell f-string writer that defined the termination.csv bytes."""
    T, n = trace.Rs.shape
    D = trace.Dbound
    with open(path, "w", newline="") as fh:
        fh.write("k,node,R,b,window_l,halt_flag\n")
        for k in range(T):
            wl = 0 if k == 0 else (k - 1) // D + 1
            hf = 1 if (trace.halted and k == trace.halt_t) else 0
            for i in range(n):
                fh.write(f"{k},{i},{trace.Rs[k, i]:.17g},{int(trace.bs[k, i])},{wl},{hf}\n")


def write_hull_rounds_reference(rounds, path):
    """The per-row f-string writer that defined the hull_rounds.csv bytes;
    rounds[t][i] is node i's message after round t."""
    with open(path, "w") as fh:
        fh.write("round,node,message\n")
        for t, messages in enumerate(rounds):
            for i, msg in enumerate(messages):
                fh.write(f"{t},{i},{msg}\n")


def write_bound_reference(rows, path):
    """The per-row f-string writer that defined the lse bound.csv bytes;
    rows are (n, node, lhs, bound, holds) with holds None where the bound
    does not apply."""
    with open(path, "w") as fh:
        fh.write("n,node,lhs,bound,holds\n")
        for k, i, lhs, bound, holds in rows:
            fh.write(f"{k},{i},{lhs:.17g},{bound:.17g},{'na' if holds is None else int(holds)}\n")


def member_reference(pts, p, tol):
    """The membership order before certificates went first: bounding-box
    reject, then the tableau, then Wolfe's method on every infeasible
    verdict, stopping at the first lower bound above tol."""
    if ((p < pts.min(axis=0) - tol) | (p > pts.max(axis=0) + tol)).any():
        return False
    if _phase_one_feasible(pts, p):
        return True
    return _min_norm_member(pts, p, tol)[0]


def extreme_points_reference(S):
    """The extreme-point loop before the direction pre-pass and the verdict
    memo: the unique-coordinate skip, then one `_member` query per other
    point against the points kept so far."""
    pts = _as_points(S)
    m = pts.shape[0]
    if m == 1:
        return PointSet(pts)
    # unique coordinate extremes can never be convex combinations of others
    lo, hi = pts == pts.min(axis=0), pts == pts.max(axis=0)
    definite = ((lo & (lo.sum(axis=0) == 1)) | (hi & (hi.sum(axis=0) == 1))).any(axis=1)
    keep = np.ones(m, dtype=bool)
    for idx in range(m):
        if definite[idx]:
            continue
        keep[idx] = False
        rest = pts[keep]
        if rest.shape[0] == 0 or not _member(rest, pts[idx]):
            keep[idx] = True
    return PointSet(pts[keep])


def affine_minimizer_reference(A):
    """The corral step as first written, with the k x (k-1) null-space
    matrix N spelled out: a = a0 + N b, N[i, i] = 1, N[i + 1, i] = -1, and
    lstsq on A N."""
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


def min_norm_member_reference(pts, p, tol, margin):
    """Wolfe's minimum-norm-point loop as it stood with numpy's wrappers
    (np.argmin, np.append, ndarray.min and .sum), its corral step the
    null-space form above."""
    V = pts - p
    m, _ = V.shape
    norms2 = np.einsum("ij,ij->i", V, V)
    scale = math.sqrt(float(norms2.max()))
    j0 = int(np.argmin(norms2))
    corral = [j0]
    lam = np.ones(1)
    y = V[j0].copy()
    best = np.inf
    best_lb = -np.inf
    stall = 0
    for _ in range(64 * (m + V.shape[1] + 2)):
        ny = math.sqrt(float(y @ y))
        if ny <= tol:
            break
        dots = V @ y
        j = int(np.argmin(dots))
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
        lam = np.append(lam, 0.0)
        while True:
            A = V[corral].T
            alpha = affine_minimizer_reference(A)
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
    else:
        ny = math.sqrt(float(y @ y))
    return ny <= tol, best_lb


def lse_error_bound_reference(M_i, z_i, M_true, z_true):
    """The least-squares bound as one call per (step, node) computed it,
    before the stacked kernel: each spectral norm one LAPACK SVD, theta_hat
    re-solved on every call, LinAlgError on a singular M_i."""
    def operator_norm(A):
        return float(np.linalg.svd(A, compute_uv=False)[0])

    M_i = np.asarray(M_i, dtype=float)
    z_i = np.asarray(z_i, dtype=float)
    M_true = np.asarray(M_true, dtype=float)
    z_true = np.asarray(z_true, dtype=float)
    m = operator_norm(np.linalg.inv(M_i))
    dM = operator_norm(M_i - M_true)
    dz = float(vector_norm(z_i - z_true, 2.0))
    denom = 1.0 - m * dM
    if denom <= 0.0:
        return ErrorBound(m, np.inf, np.inf, None, False)
    C = m * m * (float(vector_norm(z_i, 2.0)) + dz) / denom
    bound = m * dz + C * dM
    theta_i = np.linalg.solve(M_i, z_i)
    theta_hat = np.linalg.solve(M_true, z_true)
    lhs = float(vector_norm(theta_i - theta_hat, 2.0))
    return ErrorBound(m, C, bound, bool(lhs <= bound + 1e-9), True, lhs)
