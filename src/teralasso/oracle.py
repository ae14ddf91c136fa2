"""Small-scale brute-force references used only by tests and the self-check:
dense objective, basis least-squares projection, a dense projected proximal
solver, and the block rearrangement operator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ksum import (
    Dims,
    FactorSet,
    dense_limit,
    kron_sum_dense,
    proj_ksum_dense,
)
from .solver import shrink_offdiag

__all__ = [
    "DenseProblem",
    "dense_objective",
    "basis_projection",
    "dense_solver",
    "rearrange_rk",
]

ORACLE_P_LIMIT = 64
ORACLE_SOLVER_P_LIMIT = 36
# dense_solver halves a step at most this often before it takes the safe step
_MAX_HALVINGS = 30


def _check_oracle(p: int, limit: int = ORACLE_P_LIMIT) -> None:
    lim = min(limit, dense_limit())
    if p > lim:
        raise ValueError(f"oracle path limited to p <= {lim}, got p={p}")


@dataclass(frozen=True)
class DenseProblem:
    dims: Dims
    s_hat: np.ndarray
    rho: np.ndarray

    def __init__(self, dims: Dims, s_hat, rho):
        s_hat = np.asarray(s_hat, dtype=float)
        rho = np.asarray(rho, dtype=float)
        p = dims.p
        if s_hat.shape != (p, p):
            raise ValueError(f"s_hat must be {p}x{p}")
        if np.abs(s_hat - s_hat.T).max() > 1e-10 * max(np.abs(s_hat).max(), 1.0):
            raise ValueError("s_hat must be symmetric")
        w = np.linalg.eigvalsh(0.5 * (s_hat + s_hat.T))
        if w.min() < -1e-10 * max(abs(w).max(), 1.0):
            raise ValueError("s_hat must be positive semidefinite")
        if rho.shape != (dims.K,):
            raise ValueError(f"rho must have length {dims.K}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "s_hat", s_hat)
        object.__setattr__(self, "rho", rho)


def dense_objective(omega: np.ndarray, problem: DenseProblem) -> float:
    """-log det + <S_hat, Omega> + penalty, all computed densely.

    Omega must be PD and lie in the Kronecker-sum subspace."""
    p = problem.dims.p
    _check_oracle(p)
    omega = np.asarray(omega, dtype=float)
    f = proj_ksum_dense(omega, problem.dims)
    if np.abs(kron_sum_dense(f) - omega).max() > 1e-8 * max(np.abs(omega).max(), 1.0):
        raise ValueError("omega is not in the Kronecker-sum subspace")
    # the eigenvalues, not the slogdet sign: that sign is +1 for an even
    # number of negative eigenvalues
    w = np.linalg.eigvalsh(omega)
    if w.min() <= 0:
        raise ValueError("omega is not positive definite")
    penalty = 0.0
    for k, psi in enumerate(f.psi):
        off = np.abs(psi).sum() - np.abs(np.diag(psi)).sum()
        penalty += problem.rho[k] * problem.dims.m(k) * off
    return _dense_smooth(omega, w, problem) + penalty


def _dense_smooth(omega: np.ndarray, w: np.ndarray, problem: DenseProblem) -> float:
    """-log det Omega + <S_hat, Omega>, given the eigenvalues ``w`` of Omega."""
    return float(-np.log(w).sum() + np.sum(problem.s_hat * omega))


def _ksum_basis(dims: Dims):
    """Orthonormal basis of the symmetric Kronecker-sum subspace.

    Yields (vectorized dense basis element, factor-level reconstruction fn).
    Directions: the identity, per-factor trace-zero diagonals, and per-factor
    symmetric off-diagonal pairs.
    """
    p = dims.p
    elems = []

    def embed(k, mat):
        fs = [np.zeros((dk, dk)) for dk in dims.d]
        fs[k] = mat
        return kron_sum_dense(FactorSet(dims, fs))

    ident = np.eye(p) / math.sqrt(p)

    def ident_add(c, factors):
        for k in range(dims.K):
            factors[k] += c / math.sqrt(p) / dims.K * np.eye(dims.d[k])

    elems.append((ident.ravel(), ident_add))
    for k in range(dims.K):
        dk = dims.d[k]
        mk = dims.m(k)
        # trace-zero diagonal directions: diff of consecutive diagonal units
        for i in range(dk - 1):
            mat = np.zeros((dk, dk))
            mat[i, i] = 1.0
            mat[i + 1, i + 1] = -1.0
            mat /= math.sqrt(2 * mk)
            dense = embed(k, mat)

            def add(c, factors, k=k, mat=mat):
                factors[k] += c * mat

            elems.append((dense.ravel(), add))
        for i in range(dk):
            for j in range(i + 1, dk):
                mat = np.zeros((dk, dk))
                mat[i, j] = mat[j, i] = 1.0 / math.sqrt(2 * mk)
                dense = embed(k, mat)

                def add(c, factors, k=k, mat=mat):
                    factors[k] += c * mat

                elems.append((dense.ravel(), add))
    return elems


def basis_projection(A: np.ndarray, dims: Dims) -> FactorSet:
    """Least-squares projection onto the subspace over an explicit basis.

    Independent reference for :func:`teralasso.ksum.proj_ksum_dense`."""
    p = dims.p
    _check_oracle(p)
    A = np.asarray(A, dtype=float).ravel()
    elems = _ksum_basis(dims)
    B = np.stack([vec for vec, _ in elems], axis=1)
    coef, *_ = np.linalg.lstsq(B, A, rcond=None)
    factors = [np.zeros((dk, dk)) for dk in dims.d]
    for c, (_, add) in zip(coef, elems):
        add(float(c), factors)
    return FactorSet(dims, factors)


def dense_solver(problem: DenseProblem, max_iter: int = 100_000, tol: float = 1e-8):
    """Dense proximal gradient with Barzilai-Borwein steps and backtracking.

    Each step starts from the BB stepsize <D, D> / <D, dG> of the last two
    iterates' dense differences (the previous stepsize on nonpositive
    curvature) and is halved until the candidate is positive definite by its
    smallest eigenvalue and its smooth objective lies under the quadratic
    model.  After ``_MAX_HALVINGS`` rejections the conservative step
    0.5 * lambda_min(Omega)^2 is taken unconditionally.

    Returns (omega, converged flag).  Reference optimum for the fast solver."""
    dims = problem.dims
    p = dims.p
    _check_oracle(p, ORACLE_SOLVER_P_LIMIT)
    omega = np.eye(p)
    f = proj_ksum_dense(omega, dims)
    w = np.ones(p)
    smooth = _dense_smooth(omega, w, problem)
    dense_grad = problem.s_hat - np.eye(p)  # S_hat - Omega^{-1}
    grad = proj_ksum_dense(dense_grad, dims)
    zeta = 0.5 * w.min() ** 2
    for _ in range(max_iter):
        for _ in range(_MAX_HALVINGS):
            new_f, new_omega, new_w = _prox_step(f, grad, zeta, problem)
            if new_w.min() > 0:
                new_smooth = _dense_smooth(new_omega, new_w, problem)
                d = new_omega - omega
                q = smooth + np.sum(dense_grad * d) + np.sum(d * d) / (2 * zeta)
                if new_smooth <= q + 1e-12 * (abs(q) + 1.0):
                    break
            zeta *= 0.5
        else:
            zeta = 0.5 * w.min() ** 2
            new_f, new_omega, new_w = _prox_step(f, grad, zeta, problem)
            new_smooth = _dense_smooth(new_omega, new_w, problem)
        # one inverse per iterate serves its KKT test and its gradient
        new_dense_grad = problem.s_hat - np.linalg.inv(new_omega)
        new_grad = proj_ksum_dense(new_dense_grad, dims)
        if _dense_kkt(new_omega, problem, new_grad) < tol:
            return new_omega, True
        d = new_omega - omega
        curvature = np.sum(d * (new_dense_grad - dense_grad))
        if curvature > 0:
            zeta = np.sum(d * d) / curvature
        f, omega, w, smooth = new_f, new_omega, new_w, new_smooth
        dense_grad, grad = new_dense_grad, new_grad
    return omega, _dense_kkt(omega, problem) < tol


def _prox_step(f: FactorSet, grad: FactorSet, zeta: float, problem: DenseProblem):
    """Proximal gradient candidate at stepsize ``zeta``: its factors, its
    dense matrix and that matrix's eigenvalues."""
    psi = [
        shrink_offdiag(f.psi[k] - zeta * grad.psi[k], zeta * problem.rho[k])
        for k in range(problem.dims.K)
    ]
    new_f = FactorSet(problem.dims, psi)
    omega = kron_sum_dense(new_f)
    return new_f, omega, np.linalg.eigvalsh(omega)


def _dense_kkt(omega: np.ndarray, problem: DenseProblem, grad: FactorSet | None = None) -> float:
    """KKT residual at ``omega``; ``grad`` is proj(S_hat - Omega^{-1}) if known."""
    dims = problem.dims
    if grad is None:
        grad = proj_ksum_dense(problem.s_hat - np.linalg.inv(omega), dims)
    f = proj_ksum_dense(omega, dims)
    resid = 0.0
    for k in range(dims.K):
        G, P = grad.psi[k], f.psi[k]
        off = ~np.eye(dims.d[k], dtype=bool)
        nz = off & (np.abs(P) > 1e-12)
        z = off & ~nz
        if nz.any():
            resid = max(resid, float(np.abs(G[nz] + problem.rho[k] * np.sign(P[nz])).max()))
        if z.any():
            resid = max(resid, max(0.0, float(np.abs(G[z]).max()) - problem.rho[k]))
    diag_grad = np.diag(kron_sum_dense(grad))
    resid = max(resid, float(np.abs(diag_grad).max()))
    return resid


def rearrange_rk(A: np.ndarray, dims: Dims, k: int) -> np.ndarray:
    """Block rearrangement: column (i*m_k + j) is vec of the (i, j) mode-k
    subblock of A.  Satisfies vec(S_k) = (1/m_k) R_k(S_hat) vec(I_{m_k})."""
    p = dims.p
    _check_oracle(p)
    A = np.asarray(A, dtype=float)
    if A.shape != (p, p):
        raise ValueError(f"expected {p}x{p} matrix")
    K = dims.K
    dk, mk = dims.d[k], dims.m(k)
    T = np.moveaxis(A.reshape(dims.d + dims.d), (k, K + k), (0, 1))
    blocks = T.reshape(dk, dk, mk, mk)
    out = np.empty((dk * dk, mk * mk))
    for i in range(mk):
        for j in range(mk):
            out[:, i * mk + j] = blocks[:, :, i, j].ravel(order="F")
    return out
