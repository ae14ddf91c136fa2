"""Tensor data handling: matricization, Gram sufficient statistics, random
graph factor generators, and Kronecker-sum Gaussian sampling.

Linearization convention: a tensor entry with zero-based multi-index
(i_1, ..., i_K) sits at flat position i_1*(d_2...d_K) + ... + i_K, i.e. a
C-order reshape of shape (d_1, ..., d_K) with mode 1 slowest.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ksum import Dims, FactorSet, _check_pd, _index, eigsum_grid

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
    """Mode-k Gram matrices S_k; each tr(S_k)/d_k is the trace mean tr(S_hat)/p."""

    dims: Dims
    n: int
    s: tuple[np.ndarray, ...]

    @cached_property
    def centered(self) -> FactorSet:
        """``center_gram(self)``, built on first use."""
        return center_gram(self)


def matricize(x: np.ndarray, dims: Dims, k: int) -> np.ndarray:
    """Mode-k unfolding (0-based k) of flattened tensors: (..., p) -> (..., d_k, m_k).

    Row r holds all entries with mode-k index r; columns run over the
    remaining modes in original order, slowest-first.  Leading axes index
    replicates and pass through.
    """
    if not 0 <= k < dims.K:
        raise IndexError(f"mode {k} out of range for K={dims.K}")
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    t = np.moveaxis(x.reshape(lead + dims.d), k - dims.K, -dims.K)
    return t.reshape(lead + (dims.d[k], dims.m(k)))


def tensorize(mat: np.ndarray, dims: Dims, k: int) -> np.ndarray:
    """Inverse of :func:`matricize`: (..., d_k, m_k) -> (..., p)."""
    if not 0 <= k < dims.K:
        raise IndexError(f"mode {k} out of range for K={dims.K}")
    lead = mat.shape[:-2]
    shape = lead + (dims.d[k],) + tuple(d for i, d in enumerate(dims.d) if i != k)
    return np.moveaxis(mat.reshape(shape), -dims.K, k - dims.K).reshape(lead + (dims.p,))


# entries per block of replicates in the sampler and the Gram: bounds their
# scratch memory to a few blocks beside the data
_SAMPLE_BLOCK = 1 << 16


def gram_factors(data: DataTensorSet) -> GramSet:
    """S_k = (1/(n m_k)) sum_i X_{i,(k)} X_{i,(k)}'.

    The per-replicate products run on blocks of replicates at once, one
    batched matmul per mode and block, and are summed in replicate order:
    the same bits as one product per replicate.
    """
    dims = data.dims
    acc = [np.zeros((dk, dk)) for dk in dims.d]
    block = max(1, _SAMPLE_BLOCK // dims.p)
    for start in range(0, data.n, block):
        x = data.values[start : start + block]
        for k in range(dims.K):
            t = matricize(x, dims, k)
            for prod in np.matmul(t, t.transpose(0, 2, 1)):
                acc[k] += prod
    s = []
    for k, a in enumerate(acc):
        a /= data.n * dims.m(k)
        s.append(0.5 * (a + a.T))
    return GramSet(dims, data.n, tuple(s))


def center_gram(g: GramSet) -> FactorSet:
    """Trace-corrected Gram factors; their Kronecker sum is Proj(S_hat)."""
    K = g.dims.K
    out = []
    for k in range(K):
        dk = g.dims.d[k]
        out.append(g.s[k] - (K - 1) / K * (np.trace(g.s[k]) / dk) * np.eye(dk))
    return FactorSet(g.dims, out)


def check_seed(seed: int) -> int:
    """Return ``seed`` as an int if it is a signed 64-bit integer, else raise.

    Philox takes its key from the seed; larger seeds overflow, or round
    through float64 so that neighbouring seeds draw the same data.  A seed is
    read by the integer rule of ``Dims``: 1.7, "22" and True are not seeds.
    """
    try:
        seed = _index(seed)
    except TypeError:
        raise ValueError(f"seed {seed!r} is not an integer") from None
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
    spec = f.spectrum
    _check_pd(spec)
    scale = 1.0 / np.sqrt(eigsum_grid(spec.eigvals).reshape(-1))
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
            x = tensorize(np.matmul(spec.eigvecs[k], matricize(x, dims, k)), dims, k)
        out[start : start + m] = x
    return DataTensorSet(dims, out)


def _edge_factor(d: int, pairs: np.ndarray, q: int, seed: int, tag: int) -> np.ndarray:
    """The edge factor of :func:`er_factor` with edges drawn from the rows of ``pairs``.

    Philox keyed [seed, tag] picks q rows by a partial Fisher-Yates (unbiased
    and seed-stable), which shuffles ``pairs`` in place, then draws their
    weights in the order picked.
    """
    if not 0 <= q <= len(pairs):
        raise ValueError(f"q_edges={q} is not between 0 and the {len(pairs)} possible edges")
    rng = np.random.Generator(np.random.Philox(key=[check_seed(seed), tag]))
    for t in range(q):
        j = t + int(rng.integers(len(pairs) - t))
        pairs[[t, j]] = pairs[[j, t]]
    psi = 0.25 * np.eye(d)
    for i, j in pairs[:q].tolist():
        a = float(rng.uniform(0.2, 0.4))
        psi[i, j] = psi[j, i] = -a
        psi[i, i] += a
        psi[j, j] += a
    return psi


def er_factor(d: int, q_edges: int, seed: int) -> np.ndarray:
    """Random Erdos-Renyi precision factor: 0.25 I plus q weighted edges.

    Each edge (i, j) gets weight a ~ U[0.2, 0.4], subtracted off-diagonal and
    added to both diagonals, preserving diagonal dominance.
    """
    return _edge_factor(d, np.column_stack(np.triu_indices(d, 1)), q_edges, seed, 0x45520000)


def grid_factor(d: int, q_edges: int, seed: int) -> np.ndarray:
    """Like :func:`er_factor` but edges restricted to 4-neighbor square-grid adjacency."""
    side = int(round(d**0.5))
    if side * side != d:
        raise ValueError(f"grid factor needs a perfect-square d, got {d}")
    # cell by cell in row-major order: the edge to its right, then the one below
    cell = np.repeat(np.arange(d), 2)
    step = np.tile([1, side], d)
    keep = np.where(step == 1, cell % side < side - 1, cell < d - side)
    pairs = np.column_stack((cell, cell + step))[keep]
    return _edge_factor(d, pairs, q_edges, seed, 0x47524944)


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
        # the array's own buffer: no copy unless it is not C-contiguous <f8
        fh.write(np.ascontiguousarray(data.values, dtype="<f8").data)


def read_ktns(path) -> DataTensorSet:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if not isinstance(header, dict) or "dims" not in header or "n" not in header:
            raise ValueError(".ktns header must be a JSON object with the keys 'dims' and 'n'")
        if header.get("dtype") != "f64" or header.get("order") != KTNS_ORDER:
            raise ValueError(f"unsupported .ktns header: {header}")
        dims, n = Dims(header["dims"]), header["n"]
        if type(n) is not int or n < 1:
            raise ValueError(f".ktns header n must be a positive integer, got {n!r}")
        size, expected = os.fstat(fh.fileno()).st_size - fh.tell(), n * dims.p * 8
        if size != expected:
            raise ValueError(f"truncated .ktns payload: {size} bytes, expected {expected}")
        values = np.empty((n, dims.p), dtype="<f8")
        if fh.readinto(values.data) != expected:
            raise ValueError("truncated .ktns payload: the file shrank while it was read")
    if not np.isfinite(values).all():
        raise ValueError(".ktns payload holds non-finite values")
    return DataTensorSet(dims, values)
