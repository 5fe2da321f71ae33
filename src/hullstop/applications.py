"""Worked applications of the consensus machinery.

Least squares: every node holds one sample (x_j, y_j) and a shared basis
g_1..g_M. Averaging the per-node Gram matrix g g^T and moment vector g y
via push-sum lets each node form theta_i = M_i^{-1} z_i, which converges to
the centralized estimate, with a locally computable error bound driven by a
matrix-inverse perturbation argument.

Function calculation: node i injects N * u_i at coordinate i of an R^N
payload, so the consensus limit is the full vector (u_1, ..., u_N) and any
Holder continuous f of it can be evaluated everywhere with a known error.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .consensus import RatioState, make_ratio_state
from .geometry import vector_norm

__all__ = [
    "polynomial_basis",
    "lse_gram",
    "lse_batch",
    "unflatten_payload",
    "lse_payload_states",
    "lse_consensus_estimate",
    "ErrorBound",
    "lse_error_bound",
    "LseBounds",
    "lse_error_bounds",
    "operator_norm",
    "funccalc_init",
    "registered_function",
    "funccalc_error",
]


def polynomial_basis(degree: int):
    """Monomial basis 1, x, ..., x^degree."""
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    return [(lambda x, m=m: x ** m) for m in range(degree + 1)]


def _dataset(xs, ys):
    """The samples as equal-length 1-D float arrays; an empty set is rejected."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    if xs.shape != ys.shape or xs.size == 0:
        raise ValueError(f"dataset shapes {xs.shape} and {ys.shape} are unusable")
    return xs, ys


def _design(xs, basis) -> np.ndarray:
    """The (n, M) design matrix, row j = (g_1(x_j), ..., g_M(x_j)).

    Each entry is one scalar call g(x_j): numpy's vectorized power can round
    differently in the last bit (x ** 3 on 1.6k of 60k random samples, numpy
    2.4 on an AVX-512 host), which would move every artifact built from the
    payloads."""
    return np.array([[g(x) for g in basis] for x in xs], dtype=float)


def _payloads(design: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """One flattened (g g^T, g y) payload row per sample, in sample order."""
    n, M = design.shape
    return np.concatenate([(design[:, :, None] * design[:, None, :]).reshape(n, M * M),
                           design * ys[:, None]], axis=1)


def lse_gram(xs, ys, basis):
    """Averaged Gram matrix and moment vector over the whole dataset."""
    xs, ys = _dataset(xs, ys)
    return unflatten_payload(_payloads(_design(xs, basis), ys).mean(axis=0), len(basis))


def lse_batch(xs, ys, basis) -> np.ndarray:
    """Centralized least squares estimate from the averaged normal equations."""
    return _solve_gram(*lse_gram(xs, ys, basis))


def _solve_gram(G: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Solve the normal equations G theta = z by LAPACK's LU factorization,
    i.e. Gaussian elimination with partial pivoting. Gram matrices with
    condition number above 1e12 are rejected: at that point the solution is
    numerically meaningless.
    """
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(f"Gram matrix condition number {cond:.3e} exceeds 1e12")
    return np.linalg.solve(G, z)


def unflatten_payload(v: np.ndarray, M: int):
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != M * M + M:
        raise ValueError(f"payload length {v.shape[0]} is not {M}*{M} + {M}")
    return v[:M * M].reshape(M, M), v[M * M:]


def lse_payload_states(xs, ys, basis) -> RatioState:
    """Initial ratio-consensus state whose average is (Gram, moment)."""
    xs, ys = _dataset(xs, ys)
    return make_ratio_state(_payloads(_design(xs, basis), ys))


def lse_consensus_estimate(M_i: np.ndarray, z_i: np.ndarray) -> np.ndarray:
    """theta_i = M_i^{-1} z_i; raises numpy.linalg.LinAlgError while M_i is
    still singular, which is legal early in a run."""
    return np.linalg.solve(M_i, z_i)


class ErrorBound(NamedTuple):
    m: float
    C: float
    bound: float
    holds: bool | None
    applicable: bool
    lhs: float | None = None


class LseBounds(NamedTuple):
    """lse_error_bounds' per-item arrays, the terms of lse_error_bound.

    A singular item (its M_i, or M_true where the bound applies, could not
    be factored) holds NaN in m, C, bound and lhs. An inapplicable one
    (m * dM >= 1) holds inf in C and bound and NaN in lhs. holds is False
    wherever the bound does not apply."""
    m: np.ndarray
    C: np.ndarray
    bound: np.ndarray
    lhs: np.ndarray
    holds: np.ndarray
    applicable: np.ndarray
    singular: np.ndarray


def _stacked_bounds(Ms, zs, M_true, z_true, theta_hat) -> LseBounds:
    """The bound for every item at once; raises LinAlgError if any item is
    singular. Stacked inv, svd and solve run LAPACK once per item, so each
    item's numbers equal those of its own call bit for bit."""
    m = operator_norm(np.linalg.inv(Ms))
    dM = operator_norm(Ms - M_true)
    with np.errstate(all="ignore"):
        dz = vector_norm(zs - z_true, 2.0)
        denom = 1.0 - m * dM
        applicable = ~(denom <= 0.0)
        C = np.where(applicable, m * m * (vector_norm(zs, 2.0) + dz) / denom, np.inf)
        bound = np.where(applicable, m * dz + C * dM, np.inf)
    lhs = np.full(len(Ms), np.nan)
    if applicable.any():
        if theta_hat is None:
            raise np.linalg.LinAlgError("Singular matrix")
        theta = np.linalg.solve(Ms, zs[:, :, None])[:, :, 0]
        lhs[applicable] = vector_norm(theta - theta_hat, 2.0)[applicable]
    holds = applicable & (lhs <= bound + 1e-9)
    return LseBounds(m, C, bound, lhs, holds, applicable, np.zeros(len(Ms), dtype=bool))


def lse_error_bounds(Ms, zs, M_true, z_true) -> LseBounds:
    """lse_error_bound for a stack of B items: Ms is (B, M, M), zs (B, M).

    theta_hat = M_true^{-1} z_true is solved once. A singular item fails the
    whole stack, which is then split in halves down to the failing items;
    callers keep B bounded so that this stays cheap (cli's lse hands it
    whole steps gathered until they reach consensus._CHUNK_ROWS rows, or
    one longer step, a call)."""
    Ms = np.asarray(Ms, dtype=float)
    zs = np.asarray(zs, dtype=float)
    M_true = np.asarray(M_true, dtype=float)
    z_true = np.asarray(z_true, dtype=float)
    B, M = zs.shape if zs.ndim == 2 else (-1, 0)
    if M < 1 or Ms.shape != (B, M, M) or M_true.shape != (M, M) or z_true.shape != (M,):
        raise ValueError(f"need (B, M, M), (B, M), (M, M) and (M,) arrays with M >= 1, got "
                         f"{Ms.shape}, {zs.shape}, {M_true.shape} and {z_true.shape}")
    try:
        theta_hat = np.linalg.solve(M_true, z_true)
    except np.linalg.LinAlgError:
        theta_hat = None  # only items where the bound applies need it
    return _split_bounds(Ms, zs, M_true, z_true, theta_hat)


def _split_bounds(Ms, zs, M_true, z_true, theta_hat) -> LseBounds:
    """_stacked_bounds, halving a stack that fails until each failing item
    stands alone and is flagged singular."""
    try:
        return _stacked_bounds(Ms, zs, M_true, z_true, theta_hat)
    except np.linalg.LinAlgError:
        if len(Ms) == 1:
            nan, no = np.full(1, np.nan), np.zeros(1, dtype=bool)
            return LseBounds(nan, nan, nan, nan, no, no, ~no)
    h = len(Ms) // 2
    parts = (_split_bounds(Ms[:h], zs[:h], M_true, z_true, theta_hat),
             _split_bounds(Ms[h:], zs[h:], M_true, z_true, theta_hat))
    return LseBounds(*(np.concatenate(field) for field in zip(*parts)))


def lse_error_bound(M_i, z_i, M_true, z_true) -> ErrorBound:
    """Locally computable bound on ||theta_i - theta_hat||.

    With m = ||M_i^{-1}||, dM = ||M_i - M_true|| (operator norms) and
    dz = ||z_i - z_true||, whenever m * dM < 1:

        ||theta_i - theta_hat|| <= m * dz + C * dM,
        C = m^2 (||z_i|| + dz) / (1 - m * dM).

    Where the bound applies, lhs is the measured ||theta_i - theta_hat||.
    Outside that region the bound is undefined and applicable=False is
    returned with infinite C and bound, holds=None and lhs=None. A singular
    M_i raises numpy.linalg.LinAlgError. This is lse_error_bounds on one item.
    """
    eb = lse_error_bounds(np.asarray(M_i, dtype=float)[None], np.asarray(z_i, dtype=float)[None],
                          M_true, z_true)
    if eb.singular[0]:
        raise np.linalg.LinAlgError("Singular matrix")
    m = float(eb.m[0])
    if not eb.applicable[0]:
        return ErrorBound(m, np.inf, np.inf, None, False)
    return ErrorBound(m, float(eb.C[0]), float(eb.bound[0]), bool(eb.holds[0]), True,
                      float(eb.lhs[0]))


def operator_norm(A: np.ndarray) -> float | np.ndarray:
    """Largest singular value of A (the spectral norm), from LAPACK's SVD: a
    float for one matrix, an array of them for a (..., M, N) stack, each as
    its own call gives it."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or 0 in A.shape[-2:]:
        raise ValueError(f"need nonempty matrices, got shape {A.shape}")
    s = np.linalg.svd(A, compute_uv=False)[..., 0]
    return float(s) if A.ndim == 2 else s


def funccalc_init(u) -> RatioState:
    """Payload for distributed function evaluation: node i starts with
    N * u_i at its own coordinate and zero elsewhere, so the average over
    nodes is exactly (u_1, ..., u_N)."""
    u = np.asarray(u, dtype=float).reshape(-1)
    N = u.shape[0]
    if N < 1:
        raise ValueError("need at least one node value")
    x0 = np.zeros((N, N))
    x0[np.arange(N), np.arange(N)] = N * u
    return make_ratio_state(x0)


def _by_row(reduce):
    """reduce over the last axis: a float for one vector, an array of one
    value per row for a stack of them. A C-ordered row is reduced as numpy
    reduces a 1-D array (pairwise for a sum), so each value is that row's
    own call bit for bit."""
    def f(v):
        out = reduce(v, axis=-1)
        return float(out) if np.ndim(out) == 0 else out
    return f


def registered_function(name: str, N: int):
    """Built-in target functions with Holder constants under the 2-norm.

    max: largest coordinate, C=1, alpha=1. mean: C=N^-1/2. sum: C=N^1/2,
    both by Cauchy-Schwarz. Returns (f, C, alpha); f takes one vector, or
    a stack of them whose rows it maps (see funccalc_error).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    table = {
        "max": (_by_row(np.max), 1.0, 1.0),
        "mean": (_by_row(np.mean), 1.0 / np.sqrt(N), 1.0),
        "sum": (_by_row(np.sum), float(np.sqrt(N)), 1.0),
    }
    if name not in table:
        raise ValueError(f"unknown function {name!r}, expected one of {sorted(table)}")
    return table[name]


def funccalc_error(f, C: float, alpha: float, r_i, r_bar):
    """Holder error check: returns (lhs, rhs, holds) for
    |f(r_i) - f(r_bar)| <= C ||r_i - r_bar||_2^alpha.

    r_i is one state, giving floats and a bool, or an (n, N) stack of them,
    giving (n,) arrays equal to the per-row calls bit for bit; f must then
    map the rows, as registered_function's do. The power is Python's scalar
    one per row: numpy's vectorised power can round differently."""
    if C < 0:
        raise ValueError(f"C must be >= 0, got {C}")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    r_i = np.ascontiguousarray(r_i, dtype=float)
    r_bar = np.asarray(r_bar, dtype=float)
    lhs = np.abs(np.asarray(f(r_i), dtype=float) - float(f(r_bar)))
    dist = np.atleast_1d(vector_norm(r_i - r_bar, 2.0)).tolist()
    rhs = np.array([C * v ** alpha for v in dist])
    holds = lhs <= rhs + 1e-12
    if r_i.ndim < 2:
        return float(lhs), float(rhs[0]), bool(holds[0])
    return lhs, rhs, holds
