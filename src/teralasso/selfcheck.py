"""Cross-check battery between the factor-level fast paths and the dense
oracles, runnable from the CLI.  Small p only."""

from __future__ import annotations

import zlib

import numpy as np

from .data import DataTensorSet, check_seed, gram_factors, sample_ksum_gaussian
from .ksum import Dims, FactorSet, kron_sum_dense, proj_ksum_dense
from .oracle import DenseProblem, basis_projection, dense_objective, rearrange_rk
from .solver import objective, subspace_gradient

__all__ = ["run_selfcheck"]


def _random_pd_factors(dims: Dims, rng) -> FactorSet:
    psi = []
    for dk in dims.d:
        M = rng.standard_normal((dk, dk))
        psi.append(M @ M.T / dk + 0.5 * np.eye(dk))
    return FactorSet(dims, psi)


def check_projection(rng) -> float:
    dims = Dims([3, 4, 3])
    A = rng.standard_normal((dims.p, dims.p))
    A = 0.5 * (A + A.T)
    fast = proj_ksum_dense(A, dims)
    ref = basis_projection(A, dims)
    return float(np.abs(kron_sum_dense(fast) - kron_sum_dense(ref)).max())


def check_gradient(rng) -> float:
    dims = Dims([3, 3, 4])
    f = _random_pd_factors(dims, rng)
    data = sample_ksum_gaussian(f, 4, int(rng.integers(2**31)))
    g = gram_factors(data)
    grad = subspace_gradient(f, g)
    s_hat = data.values.T @ data.values / data.n
    omega = kron_sum_dense(f)
    dense_grad = proj_ksum_dense(s_hat - np.linalg.inv(omega), dims)
    err = max(
        float(np.abs(a - b).max()) for a, b in zip(grad.psi, dense_grad.psi)
    )
    return err


def check_objective(rng) -> float:
    dims = Dims([4, 4])
    f = _random_pd_factors(dims, rng)
    data = sample_ksum_gaussian(f, 3, int(rng.integers(2**31)))
    g = gram_factors(data)
    rho = np.array([0.05, 0.1])
    s_hat = data.values.T @ data.values / data.n
    dense = dense_objective(kron_sum_dense(f), DenseProblem(dims, s_hat, rho))
    return abs(objective(f, g, rho) - dense)


def check_gram_identity(rng) -> float:
    dims = Dims([2, 3, 4])
    data = DataTensorSet(dims, rng.standard_normal((3, dims.p)))
    g = gram_factors(data)
    a = _random_pd_factors(dims, rng)
    s_hat = data.values.T @ data.values / data.n
    lhs = float(np.sum(s_hat * kron_sum_dense(a)))
    rhs = sum(dims.m(k) * float(np.sum(g.s[k] * a.psi[k])) for k in range(dims.K))
    return abs(lhs - rhs)


def check_sampler_moments(rng) -> float:
    dims = Dims([2, 3])
    f = _random_pd_factors(dims, rng)
    data = sample_ksum_gaussian(f, 20000, int(rng.integers(2**31)))
    emp = data.values.T @ data.values / data.n
    cov = np.linalg.inv(kron_sum_dense(f))
    return float(np.linalg.norm(emp - cov) / np.linalg.norm(cov))


def check_rearrangement(rng) -> float:
    dims = Dims([2, 3, 2])
    data = DataTensorSet(dims, rng.standard_normal((2, dims.p)))
    g = gram_factors(data)
    s_hat = data.values.T @ data.values / data.n
    worst = 0.0
    for k in range(dims.K):
        mk = dims.m(k)
        rk = rearrange_rk(s_hat, dims, k)
        sk = (rk @ np.eye(mk).ravel(order="F")) / mk
        worst = max(worst, float(np.abs(sk - g.s[k].ravel(order="F")).max()))
    return worst


CHECKS = [
    ("projection-vs-basis", check_projection, 1e-9),
    ("gradient-vs-dense", check_gradient, 1e-9),
    ("objective-vs-dense", check_objective, 1e-7),
    ("gram-inner-product-identity", check_gram_identity, 1e-8),
    ("sampler-moments", check_sampler_moments, 0.1),
    ("rearrangement-gram-identity", check_rearrangement, 1e-9),
]


def run_selfcheck(seed: int = 0) -> list[tuple[str, float, float, bool]]:
    """Run every named check; returns (name, value, tolerance, passed) rows."""
    seed = check_seed(seed)
    results = []
    for name, fn, tol in CHECKS:
        rng = np.random.Generator(np.random.Philox(key=[seed, zlib.crc32(name.encode())]))
        value = fn(rng)
        results.append((name, value, tol, value <= tol))
    return results
