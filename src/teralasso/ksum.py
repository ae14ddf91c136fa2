"""Kronecker-sum subspace algebra.

A K-way Kronecker sum of square factors Psi_1, ..., Psi_K is

    Omega = sum_k I x ... x Psi_k x ... x I     (p x p, p = prod d_k)

with mode 1 slowest-varying in the linearization.  Everything here works on
the small factors only; the dense p x p matrix is materialized solely by
:func:`kron_sum_dense` for oracle/test use.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

__all__ = [
    "Dims",
    "FactorSet",
    "SpectrumSet",
    "DenseLimitError",
    "NotPositiveDefiniteError",
    "kron_sum_dense",
    "ksum_eigensystem",
    "eigsum_grid",
    "eigsum_absmax",
    "ksum_logdet",
    "proj_ksum_dense",
    "proj_inverse_spectrum",
    "ksum_inner",
    "ksum_frobenius",
    "offdiag_l1",
]

# largest p that kron_sum_dense and proj_ksum_dense accept
_DENSE_LIMIT = 4096
# entries per slab of the grid walk in SpectrumSet.grid_sums: its two 512 KB
# slab buffers fit in a core's L2 cache.  A grid of at most one slab is held
# whole instead, as it costs no more than the slab buffers.
_SLAB = 2**16
# a factor entry beyond it could overflow M - M.T or M + M.T in _symmetrize
_HALF_MAX = np.finfo(float).max / 2


class DenseLimitError(ValueError):
    """Raised when a dense p x p code path is requested for too large a p."""


class NotPositiveDefiniteError(ValueError):
    """Raised when a Kronecker sum has a nonpositive eigenvalue.

    Attributes
    ----------
    min_sum : float
        The smallest eigenvalue sum encountered.
    """

    def __init__(self, min_sum: float):
        super().__init__(f"Kronecker sum is not positive definite (min eigenvalue {min_sum:g})")
        self.min_sum = float(min_sum)


def _check_dense(p: int, limit: int = _DENSE_LIMIT) -> None:
    if p > limit:
        raise DenseLimitError(f"dense path limited to p <= {limit}, got p={p}")


def _index(x) -> int:
    """A true integer as an int; a float, string or bool is a TypeError,
    where int() would truncate 2.7, read "22" as (2, 2) and True as 1."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a bool, not an integer")
    return operator.index(x)


@dataclass(frozen=True)
class Dims:
    """Mode dimensions (d_1, ..., d_K) of a tensor-valued variable."""

    d: tuple[int, ...]
    p: int = field(init=False, repr=False, compare=False)

    def __init__(self, d):
        try:
            d = tuple(_index(x) for x in d)
        except TypeError as e:
            raise ValueError(f"invalid mode dimensions {d!r}: {e}") from None
        if len(d) < 1 or any(x < 1 for x in d):
            raise ValueError(f"invalid mode dimensions {d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "p", math.prod(d))

    @property
    def K(self) -> int:
        return len(self.d)

    def m(self, k: int) -> int:
        """Product of all mode dimensions except mode k (0-based)."""
        return self.p // self.d[k]

    @property
    def ms(self) -> tuple[int, ...]:
        return tuple(self.p // dk for dk in self.d)


def _symmetrize(M: np.ndarray, k: int) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"factor {k} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():  # before M - M.T, which warns on an Inf
        raise ValueError(f"factor {k} has non-finite entries")
    scale = np.abs(M).max() if M.size else 0.0
    if scale > _HALF_MAX:
        raise ValueError(f"factor {k} has entries beyond half the largest float")
    if scale and np.abs(M - M.T).max() > 1e-8 * max(scale, 1.0):
        raise ValueError(f"factor {k} is not symmetric within tolerance")
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class FactorSet:
    """The K factor matrices of a Kronecker sum, the compressed form of Omega."""

    dims: Dims
    psi: tuple[np.ndarray, ...]

    def __init__(self, dims: Dims, psi):
        psi = tuple(_symmetrize(m, k) for k, m in enumerate(psi))
        if len(psi) != dims.K:
            raise ValueError(f"expected {dims.K} factors, got {len(psi)}")
        for k, m in enumerate(psi):
            if m.shape != (dims.d[k], dims.d[k]):
                raise ValueError(f"factor {k} has shape {m.shape}, expected {(dims.d[k],) * 2}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "psi", psi)

    @classmethod
    def _trusted(cls, dims: Dims, psi) -> "FactorSet":
        """Skip validation: every factor is already an exactly symmetric
        (d_k, d_k) float array, as sums, differences and scalings of
        validated factors are."""
        out = object.__new__(cls)
        object.__setattr__(out, "dims", dims)
        object.__setattr__(out, "psi", tuple(psi))
        return out

    def __add__(self, other: "FactorSet") -> "FactorSet":
        _check_same_dims(self, other)
        return FactorSet._trusted(self.dims, [a + b for a, b in zip(self.psi, other.psi)])

    def __sub__(self, other: "FactorSet") -> "FactorSet":
        _check_same_dims(self, other)
        return FactorSet._trusted(self.dims, [a - b for a, b in zip(self.psi, other.psi)])

    @cached_property
    def spectrum(self) -> SpectrumSet:
        """The factors' eigensystem: one :func:`ksum_eigensystem` call per factor set."""
        return ksum_eigensystem(self)

    @staticmethod
    def identity(dims: Dims) -> "FactorSet":
        """Factors I_{d_k}/K, whose Kronecker sum is I_p."""
        return FactorSet(dims, [np.eye(dk) / dims.K for dk in dims.d])

    def to_json(self) -> str:
        return json.dumps(
            {"dims": list(self.dims.d), "factors": [m.ravel().tolist() for m in self.psi]}
        )

    @staticmethod
    def from_json(text: str) -> "FactorSet":
        obj = json.loads(text)
        if not isinstance(obj, dict) or "dims" not in obj or "factors" not in obj:
            raise ValueError("factor JSON needs the keys 'dims' and 'factors'")
        dims, factors = Dims(obj["dims"]), obj["factors"]
        if not isinstance(factors, list) or len(factors) != dims.K:
            raise ValueError(f"factor JSON needs {dims.K} factors for dims {list(dims.d)}")
        psi = []
        for k, (flat, dk) in enumerate(zip(factors, dims.d)):
            try:  # JSON numbers, by type, as Dims takes JSON integers: "1" or true is not 1.0
                if not isinstance(flat, list) or any(type(x) not in (int, float) for x in flat):
                    raise TypeError("entries must be JSON numbers in a flat list")
                a = np.asarray(flat, dtype=float)
            except (TypeError, OverflowError) as e:  # an int beyond the largest float
                raise ValueError(f"factor {k}: {e}") from None
            if a.shape != (dk * dk,):
                raise ValueError(f"factor {k} has {a.size} entries, expected {dk * dk}")
            psi.append(a.reshape(dk, dk))
        return FactorSet(dims, psi)


def _check_same_dims(a, b) -> None:
    if a.dims.d != b.dims.d:
        raise ValueError(f"dimension mismatch: {a.dims.d} vs {b.dims.d}")


@dataclass(frozen=True)
class SpectrumSet:
    """Per-factor eigenvalues and orthonormal eigenbases of a FactorSet."""

    dims: Dims
    eigvals: tuple[np.ndarray, ...]
    eigvecs: tuple[np.ndarray, ...]

    @cached_property
    def min_sum(self) -> float:
        # equals eigsum_grid(eigvals).min() exactly: rounding is monotone
        return float(sum(v.min() for v in self.eigvals))

    @cached_property
    def grid_sums(self) -> tuple[float, tuple[np.ndarray, ...], float]:
        """(sum log lambda, the K per-mode marginals of 1/lambda, sum 1/lambda)
        over the p eigenvalue sums lambda, from one call of :func:`_slab_sums`,
        the only reader of the grid.  Raises NotPositiveDefiniteError first."""
        _check_pd(self)
        sums = _slab_sums(self.eigvals)
        for m in sums[1]:
            m.flags.writeable = False  # every reader shares them
        return sums


def kron_sum_dense(f: FactorSet) -> np.ndarray:
    """Materialize the dense p x p Kronecker sum.  Oracle/test use only."""
    dims = f.dims
    _check_dense(dims.p)
    out = np.zeros((dims.p, dims.p))
    for k, (dk, psi) in enumerate(zip(dims.d, f.psi)):
        pre, post = math.prod(dims.d[:k]), math.prod(dims.d[k + 1 :])
        # I_pre x Psi_k x I_post is Psi_k on the block diagonal, zero elsewhere:
        # add Psi_k in place through the writable view (a,i,b,j) -> (a,i,b,a,j,b)
        view = np.einsum("aibajb->aibj", out.reshape(pre, dk, post, pre, dk, post))
        view += psi[:, None, :]
    return out


def ksum_eigensystem(f: FactorSet) -> SpectrumSet:
    """Eigendecompose each factor; the full spectrum is all K-tuple sums."""
    vals, vecs = [], []
    for psi in f.psi:
        w, u = np.linalg.eigh(psi)
        vals.append(w)
        vecs.append(u)
    return SpectrumSet(f.dims, tuple(vals), tuple(vecs))


def eigsum_grid(eigvals) -> np.ndarray:
    """All eigenvalue sums as a tensor of shape (d_1, ..., d_K)."""
    return reduce(np.add.outer, eigvals)


def _marginals(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """The sums of ``a`` over all axes but one, for each axis."""
    return tuple(
        a.sum(axis=tuple(b for b in range(a.ndim) if b != k)) for k in range(a.ndim)
    )


def _slab_sums(vals) -> tuple[float, tuple[np.ndarray, ...], float]:
    """:attr:`SpectrumSet.grid_sums` of ``eigsum_grid(vals)``.

    A grid of one mode or of at most ``_SLAB`` entries is held whole.  A
    larger one is walked once, in slabs: it splits after the first mode j
    whose trailing modes span at most ``_SLAB`` entries (after mode K-1 if
    none does).  A slab is some rows of the head grid of modes 1..j (+) modes
    j+1..K, added in ``eigsum_grid``'s order, so every entry is the grid's to
    the bit.  It is laid out (mode K, head rows, modes j+1..K-1), so the final
    add runs along rows of about ``_SLAB`` / d_K entries, in a buffer of at
    most ``_SLAB`` entries (one head row, if that is longer) beside a second
    one for its logs.
    """
    d, K = [len(v) for v in vals], len(vals)
    if K == 1 or math.prod(d) <= _SLAB:
        grid = eigsum_grid(vals)
        inv = 1.0 / grid
        return float(np.sum(np.log(grid))), _marginals(inv), float(inv.sum())
    j = next((j for j in range(1, K) if math.prod(d[j:]) <= _SLAB), K - 1)
    head = eigsum_grid(vals[:j]).ravel()
    *mid, last = vals[j:]
    cols = math.prod(len(v) for v in mid)
    rows = max(1, _SLAB // (cols * len(last)))
    buf = np.empty((2, len(last), min(rows, head.size) * cols))
    logdet = 0.0
    head_sums = np.empty(head.size)
    mid_sums = np.zeros(cols)
    last_sums = np.zeros(len(last))
    # the slab's sums as matrix-vector products, faster here than sum(axis=)
    ones_k, ones_row = np.ones(len(last)), np.ones(buf.shape[2])
    for i in range(0, head.size, rows):
        r = min(rows, head.size - i)
        slab, work = buf[:, :, : r * cols]
        part = reduce(np.add.outer, mid, head[i : i + r])
        # part + v_K, as a broadcast copy and an in-place add: faster than
        # np.add.outer along rows of a few hundred entries
        np.copyto(slab, part.ravel())
        slab += last[:, None]
        logdet += float(np.log(slab, out=work).sum())
        np.divide(1.0, slab, out=slab)
        sums = (ones_k @ slab).reshape(r, cols)
        sums.sum(axis=1, out=head_sums[i : i + r])
        mid_sums += sums.sum(axis=0)
        last_sums += slab @ ones_row[: r * cols]
    marginals = _marginals(head_sums.reshape(d[:j]))
    marginals += _marginals(mid_sums.reshape(d[j:-1])) + (last_sums,)
    return logdet, marginals, float(last_sums.sum())


def eigsum_absmax(vals) -> float:
    """Largest |entry| of ``eigsum_grid(vals)`` in O(sum d_k), never forming it.

    Rounding is monotone, so the grid's extremes are the sums of the
    per-factor extremes, added in the grid's order, exactly.
    """
    hi = sum(float(v.max()) for v in vals)
    lo = sum(float(v.min()) for v in vals)
    return max(hi, -lo)


def _check_pd(s: SpectrumSet) -> None:
    if not s.min_sum > 0.0:  # a NaN fails too
        raise NotPositiveDefiniteError(s.min_sum)


def ksum_logdet(s: SpectrumSet) -> float:
    """log|Omega| from the factor spectra, never forming Omega: the pass of
    :attr:`SpectrumSet.grid_sums`, which the projection reads too."""
    return s.grid_sums[0]


def proj_ksum_dense(A: np.ndarray, dims: Dims) -> FactorSet:
    """Frobenius-orthogonal projection of a dense matrix onto the subspace.

    Returns factors A_k - ((K-1)/K) (tr(A)/p) I where A_k averages the m_k
    mode-k diagonal subblocks of A.
    """
    A = np.asarray(A, dtype=float)
    p = dims.p
    if A.shape != (p, p):
        raise ValueError(f"expected {p}x{p} matrix, got {A.shape}")
    _check_dense(p)
    # NaN fails it too; under this bound no sum below overflows, so the
    # factors are finite and within FactorSet's range
    bound = _HALF_MAX / p
    if not np.abs(A).max() <= bound:
        raise ValueError(f"matrix to project has non-finite entries or entries beyond {bound:.3g}")
    K = dims.K
    shift = (K - 1) / K * (np.trace(A) / p)
    factors = []
    for k, dk in enumerate(dims.d):
        # average over matched complement indices (a, b) of the (d_k, d_k) blocks
        pre, post = math.prod(dims.d[:k]), math.prod(dims.d[k + 1 :])
        Ak = np.einsum("aibajb->ij", A.reshape(pre, dk, post, pre, dk, post)) / (pre * post)
        Ak = 0.5 * (Ak + Ak.T)
        Ak.flat[:: dk + 1] -= shift
        factors.append(Ak)
    # exactly symmetric by construction, so nothing left to validate
    return FactorSet._trusted(dims, factors)


def proj_inverse_spectrum(s: SpectrumSet) -> FactorSet:
    """Projection of Omega^{-1} onto the subspace, from factor spectra alone.

    G_k = U_k diag(g_k) U_k' with
    g_k[i] = (1/m_k) sum_{tuples, i_k = i} 1/lambda  -  ((K-1)/K) (sum 1/lambda)/p,
    from :attr:`SpectrumSet.grid_sums`.
    """
    _, marginals, total = s.grid_sums
    dims = s.dims
    K = dims.K
    shift = (K - 1) / K * total / dims.p
    factors = []
    for k in range(K):
        g = marginals[k] / dims.m(k) - shift
        U = s.eigvecs[k]
        G = (U * g) @ U.T  # not exactly symmetric in floating point
        factors.append(0.5 * (G + G.T))
    return FactorSet._trusted(dims, factors)


def ksum_inner(a: FactorSet, b: FactorSet) -> float:
    """Trace inner product <A, B> of the two Kronecker sums, factor-wise.

    Same-mode terms give m_k <A_k, B_k>; modes k != l meet only through their
    traces, p tr(A_k) tr(B_l) / (d_k d_l), so with t_k = tr(A_k)/d_k and
    u_k = tr(B_k)/d_k the cross terms are p (sum t)(sum u) - p sum t u.
    """
    _check_same_dims(a, b)
    dims = a.dims
    out = ta = tb = cross = 0.0
    for k, (x, y) in enumerate(zip(a.psi, b.psi)):
        t, u = x.trace() / dims.d[k], y.trace() / dims.d[k]
        out += dims.m(k) * float(np.vdot(x, y))
        ta, tb, cross = ta + t, tb + u, cross + t * u
    return out + dims.p * float(ta * tb - cross)


def ksum_frobenius(f: FactorSet) -> float:
    return math.sqrt(max(ksum_inner(f, f), 0.0))


def offdiag_l1(f: FactorSet, rho) -> float:
    """Weighted off-diagonal l1 penalty sum_k rho_k m_k |offd(Psi_k)|_1."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (f.dims.K,):
        raise ValueError(f"rho must have length {f.dims.K}")
    if np.any(rho < 0):
        raise ValueError("rho must be nonnegative")
    out = 0.0
    for k, psi in enumerate(f.psi):
        # zeroing the diagonal, not subtracting its sum, makes a diagonal factor cost exactly 0
        a = np.abs(psi)
        np.fill_diagonal(a, 0.0)
        out += rho[k] * f.dims.m(k) * a.sum()
    return float(out)
