"""Tensor data handling: matricization, Gram sufficient statistics, random
graph factor generators, and Kronecker-sum Gaussian sampling.

Linearization convention: a tensor entry with zero-based multi-index
(i_1, ..., i_K) sits at flat position i_1*(d_2...d_K) + ... + i_K, i.e. a
C-order reshape of shape (d_1, ..., d_K) with mode 1 slowest.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .ksum import (
    Dims,
    FactorSet,
    NotPositiveDefiniteError,
    eigsum_grid,
    ksum_eigensystem,
)

__all__ = [
    "DataTensorSet",
    "GramSet",
    "matricize",
    "tensorize",
    "gram_factors",
    "center_gram",
    "check_seed",
    "sample_ksum_gaussian",
    "er_factor",
    "grid_factor",
    "ar1_factor",
    "write_ktns",
    "read_ktns",
]


@dataclass(frozen=True)
class DataTensorSet:
    """n replicate tensors stored as an (n, p) array in linearization order."""

    dims: Dims
    values: np.ndarray

    def __init__(self, dims: Dims, values):
        values = np.ascontiguousarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != dims.p:
            raise ValueError(f"values must be (n, {dims.p}), got {values.shape}")
        if values.shape[0] < 1:
            raise ValueError("need at least one replicate")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class GramSet:
    """Mode-k Gram matrices S_k and the shared trace mean tr(S_hat)/p."""

    dims: Dims
    n: int
    s: tuple[np.ndarray, ...]
    trace_mean: float


def matricize(x: np.ndarray, dims: Dims, k: int) -> np.ndarray:
    """Mode-k unfolding (0-based k) of one flattened tensor block.

    Row r holds all entries with mode-k index r; columns run over the
    remaining modes in original order, slowest-first.
    """
    if not 0 <= k < dims.K:
        raise IndexError(f"mode {k} out of range for K={dims.K}")
    t = np.asarray(x, dtype=float).reshape(dims.d)
    return np.moveaxis(t, k, 0).reshape(dims.d[k], dims.m(k))


def tensorize(mat: np.ndarray, dims: Dims, k: int) -> np.ndarray:
    """Inverse of :func:`matricize`: fold a mode-k unfolding back to a flat block."""
    if not 0 <= k < dims.K:
        raise IndexError(f"mode {k} out of range for K={dims.K}")
    shape = (dims.d[k],) + tuple(d for i, d in enumerate(dims.d) if i != k)
    return np.moveaxis(mat.reshape(shape), 0, k).reshape(dims.p)


def gram_factors(data: DataTensorSet) -> GramSet:
    """S_k = (1/(n m_k)) sum_i X_{i,(k)} X_{i,(k)}'."""
    dims = data.dims
    s = []
    for k in range(dims.K):
        acc = np.zeros((dims.d[k], dims.d[k]))
        for i in range(data.n):
            Xk = matricize(data.values[i], dims, k)
            acc += Xk @ Xk.T
        acc /= data.n * dims.m(k)
        s.append(0.5 * (acc + acc.T))
    trace_mean = float(np.sum(data.values**2)) / (data.n * dims.p)
    return GramSet(dims, data.n, tuple(s), trace_mean)


def center_gram(g: GramSet) -> FactorSet:
    """Trace-corrected Gram factors; their Kronecker sum is Proj(S_hat)."""
    K = g.dims.K
    out = []
    for k in range(K):
        dk = g.dims.d[k]
        out.append(g.s[k] - (K - 1) / K * (np.trace(g.s[k]) / dk) * np.eye(dk))
    return FactorSet(g.dims, out)


# entries per block of replicates in the sampler: bounds its scratch memory
# to a few blocks beside the output
_SAMPLE_BLOCK = 1 << 16


def check_seed(seed: int) -> int:
    """Return ``seed`` as an int if it is a signed 64-bit integer, else raise.

    Philox takes its key from the seed; larger seeds overflow, or round
    through float64 so that neighbouring seeds draw the same data.
    """
    seed = int(seed)
    if not -(2**63) <= seed < 2**63:
        raise ValueError(f"seed {seed} is outside the signed 64-bit range")
    return seed


def sample_ksum_gaussian(f: FactorSet, n: int, seed: int) -> DataTensorSet:
    """Draw n tensors with precision matrix Omega = (+)_k Psi_k.

    Works in the Kronecker eigenbasis: scale white noise by lambda^{-1/2}
    on the eigenvalue-sum grid, then apply each U_k by mode-k multiplication.
    Never forms the p x p matrix.

    Replicate i draws its p normals from Philox keyed ``[seed, i]`` at counter
    0, so it does not depend on n and is bit-identical to drawing each
    replicate alone.  The mode products run on blocks of replicates at once,
    one batched matmul per mode and block, which gives the same bits as one
    product per replicate.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    bitgen = np.random.Philox(key=[check_seed(seed), 0])
    spec = ksum_eigensystem(f)
    grid = eigsum_grid(spec.eigvals)
    mn = float(grid.min())
    if mn <= 0.0:
        raise NotPositiveDefiniteError(mn)
    scale = 1.0 / np.sqrt(grid.reshape(-1))
    dims = f.dims
    rng = np.random.Generator(bitgen)
    # a snapshot of the fresh generator (counter 0, empty buffer); setting it
    # back with key word 1 = i re-keys the one Philox to [seed, i]
    state = bitgen.state
    out = np.empty((n, dims.p))
    block = max(1, _SAMPLE_BLOCK // dims.p)
    for start in range(0, n, block):
        x = out[start : start + block]
        m = x.shape[0]
        for j in range(m):
            state["state"]["key"][1] = start + j
            bitgen.state = state
            rng.standard_normal(dims.p, out=x[j])
        x *= scale
        for k in range(dims.K):
            t = np.moveaxis(x.reshape((m,) + dims.d), k + 1, 1)
            t = np.matmul(spec.eigvecs[k], t.reshape(m, dims.d[k], dims.m(k))).reshape(t.shape)
            x = np.moveaxis(t, 1, k + 1).reshape(m, dims.p)
        out[start : start + m] = x
    return DataTensorSet(dims, out)


def _edge_weight_update(psi: np.ndarray, i: int, j: int, a: float) -> None:
    psi[i, j] -= a
    psi[j, i] -= a
    psi[i, i] += a
    psi[j, j] += a


def _pick_edges(pairs: list[tuple[int, int]], q: int, rng: np.random.Generator):
    # partial Fisher-Yates over the pair index: unbiased, seed-stable
    pool = list(range(len(pairs)))
    for t in range(q):
        j = t + int(rng.integers(len(pool) - t))
        pool[t], pool[j] = pool[j], pool[t]
    return [pairs[pool[t]] for t in range(q)]


def er_factor(d: int, q_edges: int, seed: int) -> np.ndarray:
    """Random Erdos-Renyi precision factor: 0.25 I plus q weighted edges.

    Each edge (i, j) gets weight a ~ U[0.2, 0.4], subtracted off-diagonal and
    added to both diagonals, preserving diagonal dominance.
    """
    max_q = d * (d - 1) // 2
    if q_edges > max_q:
        raise ValueError(f"q_edges={q_edges} exceeds {max_q} possible edges")
    rng = np.random.Generator(np.random.Philox(key=[int(seed), 0x45520000]))
    psi = 0.25 * np.eye(d)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    for i, j in _pick_edges(pairs, q_edges, rng):
        _edge_weight_update(psi, i, j, float(rng.uniform(0.2, 0.4)))
    return psi


def grid_factor(d: int, q_edges: int, seed: int) -> np.ndarray:
    """Like :func:`er_factor` but edges restricted to 4-neighbor square-grid adjacency."""
    side = int(round(d**0.5))
    if side * side != d:
        raise ValueError(f"grid factor needs a perfect-square d, got {d}")
    pairs = []
    for r in range(side):
        for c in range(side):
            u = r * side + c
            if c + 1 < side:
                pairs.append((u, u + 1))
            if r + 1 < side:
                pairs.append((u, u + side))
    if q_edges > len(pairs):
        raise ValueError(f"q_edges={q_edges} exceeds {len(pairs)} grid edges")
    rng = np.random.Generator(np.random.Philox(key=[int(seed), 0x47524944]))
    psi = 0.25 * np.eye(d)
    for i, j in _pick_edges(pairs, q_edges, rng):
        _edge_weight_update(psi, i, j, float(rng.uniform(0.2, 0.4)))
    return psi


def ar1_factor(d: int, coeff: float) -> np.ndarray:
    """Exact stationary AR(1) inverse covariance with unit process variance.

    Diagonal (1, 1+c^2, ..., 1+c^2, 1)/(1-c^2), off-diagonal -c/(1-c^2).
    """
    c = float(coeff)
    if not abs(c) < 1:
        raise ValueError(f"AR coefficient must satisfy |c| < 1, got {c}")
    denom = 1.0 - c * c
    psi = np.eye(d) / denom
    if d > 1:
        idx = np.arange(1, d - 1)
        psi[idx, idx] = (1.0 + c * c) / denom
        off = np.arange(d - 1)
        psi[off, off + 1] = -c / denom
        psi[off + 1, off] = -c / denom
    return psi


KTNS_ORDER = "mode1-slowest"


def write_ktns(path, data: DataTensorSet) -> None:
    """Write the '.ktns' format: one JSON header line, then little-endian f64 payload."""
    header = {
        "dims": list(data.dims.d),
        "n": data.n,
        "dtype": "f64",
        "order": KTNS_ORDER,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(data.values.astype("<f8").tobytes())


def read_ktns(path) -> DataTensorSet:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if header.get("dtype") != "f64" or header.get("order") != KTNS_ORDER:
            raise ValueError(f"unsupported .ktns header: {header}")
        dims = Dims(header["dims"])
        n = int(header["n"])
        payload = fh.read()
    expected = n * dims.p * struct.calcsize("<d")
    if len(payload) != expected:
        raise ValueError(f"truncated .ktns payload: {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(n, dims.p)
    if not np.isfinite(values).all():
        raise ValueError(".ktns payload holds non-finite values")
    return DataTensorSet(dims, values.copy())
