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
    "lse_local_payload",
    "lse_gram",
    "lse_batch",
    "flatten_payload",
    "unflatten_payload",
    "lse_payload_states",
    "lse_consensus_estimate",
    "ErrorBound",
    "lse_error_bound",
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


def _design_row(x, basis) -> np.ndarray:
    return np.array([g(x) for g in basis], dtype=float)


def lse_local_payload(x_j, y_j, basis):
    """One node's contribution: (g g^T, g y) for its sample."""
    g = _design_row(x_j, basis)
    return np.outer(g, g), g * float(y_j)


def _payloads(xs, ys, basis) -> np.ndarray:
    """One flattened (g g^T, g y) payload row per sample, in sample order."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    if xs.shape != ys.shape or xs.size == 0:
        raise ValueError(f"dataset shapes {xs.shape} and {ys.shape} are unusable")
    return np.stack([flatten_payload(*lse_local_payload(x, y, basis))
                     for x, y in zip(xs, ys)])


def lse_gram(xs, ys, basis):
    """Averaged Gram matrix and moment vector over the whole dataset."""
    return unflatten_payload(_payloads(xs, ys, basis).mean(axis=0), len(basis))


def lse_batch(xs, ys, basis) -> np.ndarray:
    """Centralized least squares estimate from the averaged normal equations.

    Solved by LAPACK's LU factorization, i.e. Gaussian elimination with
    partial pivoting. Gram matrices with condition number above 1e12 are
    rejected: at that point the solution is numerically meaningless.
    """
    G, z = lse_gram(xs, ys, basis)
    cond = np.linalg.cond(G)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(f"Gram matrix condition number {cond:.3e} exceeds 1e12")
    return np.linalg.solve(G, z)


def flatten_payload(Mj: np.ndarray, zj: np.ndarray) -> np.ndarray:
    """Pack (M, z) into one consensus payload of dimension M*M + M."""
    M = zj.shape[0]
    if Mj.shape != (M, M):
        raise ValueError(f"matrix shape {Mj.shape} does not match vector length {M}")
    return np.concatenate([Mj.ravel(), zj])


def unflatten_payload(v: np.ndarray, M: int):
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape[0] != M * M + M:
        raise ValueError(f"payload length {v.shape[0]} is not {M}*{M} + {M}")
    return v[:M * M].reshape(M, M), v[M * M:]


def lse_payload_states(xs, ys, basis) -> RatioState:
    """Initial ratio-consensus state whose average is (Gram, moment)."""
    return make_ratio_state(_payloads(xs, ys, basis))


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


def lse_error_bound(M_i, z_i, M_true, z_true) -> ErrorBound:
    """Locally computable bound on ||theta_i - theta_hat||.

    With m = ||M_i^{-1}||, dM = ||M_i - M_true|| (operator norms) and
    dz = ||z_i - z_true||, whenever m * dM < 1:

        ||theta_i - theta_hat|| <= m * dz + C * dM,
        C = m^2 (||z_i|| + dz) / (1 - m * dM).

    Where the bound applies, lhs is the measured ||theta_i - theta_hat||.
    Outside that region the bound is undefined and applicable=False is
    returned with infinite C and bound, holds=None and lhs=None.
    """
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


def operator_norm(A: np.ndarray) -> float:
    """Largest singular value of A (the spectral norm), from LAPACK's SVD."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.size == 0:
        raise ValueError(f"need a nonempty matrix, got shape {A.shape}")
    return float(np.linalg.svd(A, compute_uv=False)[0])


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


def registered_function(name: str, N: int):
    """Built-in target functions with Holder constants under the 2-norm.

    max: largest coordinate, C=1, alpha=1. mean: C=N^-1/2. sum: C=N^1/2,
    both by Cauchy-Schwarz. Returns (f, C, alpha).
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    table = {
        "max": (lambda v: float(np.max(v)), 1.0, 1.0),
        "mean": (lambda v: float(np.mean(v)), 1.0 / np.sqrt(N), 1.0),
        "sum": (lambda v: float(np.sum(v)), float(np.sqrt(N)), 1.0),
    }
    if name not in table:
        raise ValueError(f"unknown function {name!r}, expected one of {sorted(table)}")
    return table[name]


def funccalc_error(f, C: float, alpha: float, r_i, r_bar):
    """Holder error check: returns (lhs, rhs, holds) for
    |f(r_i) - f(r_bar)| <= C ||r_i - r_bar||_2^alpha."""
    if C < 0:
        raise ValueError(f"C must be >= 0, got {C}")
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    r_i = np.asarray(r_i, dtype=float)
    r_bar = np.asarray(r_bar, dtype=float)
    lhs = abs(float(f(r_i)) - float(f(r_bar)))
    rhs = C * float(vector_norm(r_i - r_bar, 2.0)) ** alpha
    return lhs, rhs, bool(lhs <= rhs + 1e-12)
