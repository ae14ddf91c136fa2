"""Small-scale brute-force references used only by tests and the self-check:
dense objective, basis least-squares projection, a dense projected proximal
solver, and the block rearrangement operator."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ksum import Dims, FactorSet, _check_dense, kron_sum_dense, proj_ksum_dense
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
    _check_dense(p, ORACLE_P_LIMIT)
    omega = np.asarray(omega, dtype=float)
    f = proj_ksum_dense(omega, problem.dims)
    if np.abs(kron_sum_dense(f) - omega).max() > 1e-8 * max(np.abs(omega).max(), 1.0):
        raise ValueError("omega is not in the Kronecker-sum subspace")
    # the eigenvalues, not the slogdet sign: that sign is +1 for an even
    # number of negative eigenvalues
    w = np.linalg.eigvalsh(omega)
    if not w.min() > 0:  # a NaN fails too
        raise ValueError("omega is not positive definite")
    penalty = 0.0
    for k, psi in enumerate(f.psi):
        off = np.abs(psi).sum() - np.abs(np.diag(psi)).sum()
        penalty += problem.rho[k] * problem.dims.m(k) * off
    return _dense_smooth(omega, w, problem) + penalty


def _dense_smooth(omega: np.ndarray, w: np.ndarray, problem: DenseProblem) -> float:
    """-log det Omega + <S_hat, Omega>, given the eigenvalues ``w`` of Omega."""
    return float(-np.log(w).sum() + np.sum(problem.s_hat * omega))


def _ksum_basis(dims: Dims) -> list[FactorSet]:
    """A basis of the symmetric Kronecker-sum subspace, as factor sets.

    Directions: the identity, each factor I/(K sqrt(p)); then per factor k the
    consecutive diagonal differences and the symmetric off-diagonal pairs,
    scaled by 1/sqrt(2 m_k), with zero factors elsewhere.  The set is not
    orthonormal, since consecutive differences overlap, but least squares
    needs only a basis."""
    zeros = [np.zeros((dk, dk)) for dk in dims.d]
    basis = [FactorSet(dims, [np.eye(dk) / (dims.K * math.sqrt(dims.p)) for dk in dims.d])]
    for k, dk in enumerate(dims.d):
        e = np.eye(dk)
        upper = [np.outer(e[i], e[j]) for i in range(dk) for j in range(i + 1, dk)]
        mats = [np.diag(e[i] - e[i + 1]) for i in range(dk - 1)] + [m + m.T for m in upper]
        scale = 1.0 / math.sqrt(2 * dims.m(k))
        basis += [FactorSet(dims, zeros[:k] + [scale * mat] + zeros[k + 1 :]) for mat in mats]
    return basis


def basis_projection(A: np.ndarray, dims: Dims) -> FactorSet:
    """Least-squares projection onto the subspace over an explicit basis.

    Independent reference for :func:`teralasso.ksum.proj_ksum_dense`."""
    _check_dense(dims.p, ORACLE_P_LIMIT)
    basis = _ksum_basis(dims)
    B = np.stack([kron_sum_dense(b).ravel() for b in basis], axis=1)
    coef, *_ = np.linalg.lstsq(B, np.asarray(A, dtype=float).ravel(), rcond=None)
    return FactorSet(dims, [sum(c * b.psi[k] for c, b in zip(coef, basis)) for k in range(dims.K)])


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
    _check_dense(p, ORACLE_SOLVER_P_LIMIT)
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
    return omega, _dense_kkt(omega, problem, grad) < tol


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


def _dense_kkt(omega: np.ndarray, problem: DenseProblem, grad: FactorSet) -> float:
    """KKT residual at ``omega``, whose gradient proj(S_hat - Omega^{-1}) is ``grad``."""
    dims = problem.dims
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
    _check_dense(p, ORACLE_P_LIMIT)
    A = np.array(A, dtype=float)  # a copy: for d_k = 1 the result is a view of it
    if A.shape != (p, p):
        raise ValueError(f"expected {p}x{p} matrix")
    K = dims.K
    dk, mk = dims.d[k], dims.m(k)
    T = np.moveaxis(A.reshape(dims.d + dims.d), (k, K + k), (0, 1))
    return T.reshape(dk, dk, mk, mk).transpose(1, 0, 2, 3).reshape(dk * dk, mk * mk)
