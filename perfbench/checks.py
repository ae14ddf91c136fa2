"""Correctness checks written apart from the program.

Nothing here imports ``teralasso``: every check recomputes what it needs
from plain arrays with numpy, so a fault in the program's own algebra cannot
hide a fault in its output.  Each check returns a list of failure messages,
empty when the output passes.
"""

from __future__ import annotations

import json
import math
from functools import reduce

import numpy as np

# Same support threshold the paper's experiments use: an off-diagonal entry
# counts as an edge when its magnitude exceeds it.
EDGE_EPS = 1e-8
# First-order optimality tolerance.  The solver stops at a KKT residual of
# 1e-6 in its own scaling; this check scales the diagonal condition per
# factor, which differs by at most a factor K, so it allows ten times more.
OPT_TOL = 1e-5


def rho_for(rho_bar: float, dims, n: int) -> np.ndarray:
    """Per-factor penalties rho_k = rho_bar * sqrt(log p / (n m_k))."""
    p = math.prod(dims)
    logp = math.log(p) if p > 1 else 1.0
    return np.array([rho_bar * math.sqrt(logp / (n * (p // d))) for d in dims])


def mode_grams(values: np.ndarray, dims) -> list[np.ndarray]:
    """S_k = (1/(n m_k)) sum_i X_i(k) X_i(k)' from an (n, p) sample array."""
    n = values.shape[0]
    p = math.prod(dims)
    x = values.reshape((n,) + tuple(dims))
    out = []
    for k, d in enumerate(dims):
        # columns of the mode-k unfoldings of all n samples side by side
        xk = np.moveaxis(x, k + 1, 0).reshape(d, n * (p // d))
        s = xk @ xk.T / (n * (p // d))
        out.append(0.5 * (s + s.T))
    return out


def optimality(psi, grams, rho) -> list[str]:
    """First-order optimality of the penalized Kronecker-sum likelihood.

    The objective is -log|Omega| + sum_k m_k <S_k, Psi_k> + sum_k rho_k m_k
    |offdiag Psi_k|_1 with Omega the Kronecker sum of the factors.  Its
    partial derivative in Psi_k, divided by m_k, is S_k - A_k where A_k is
    the average mode-k diagonal block of Omega^{-1}; from the factor spectra
    A_k = U_k diag(h_k / m_k) U_k' with h_k[i] the sum of 1/lambda over all
    eigenvalue sums whose mode-k index is i.  At the optimum the diagonal of
    S_k - A_k vanishes and its off-diagonal meets the l1 subgradient bounds.
    """
    dims = tuple(m.shape[0] for m in psi)
    p = math.prod(dims)
    mins = [float(np.linalg.eigvalsh(m)[0]) for m in psi]
    if sum(mins) <= 0.0:
        return [f"Kronecker sum not positive definite (min eigenvalue sum {sum(mins):.3e})"]
    vals, vecs = zip(*(np.linalg.eigh(m) for m in psi))
    inv = 1.0 / reduce(np.add.outer, vals)
    worst = 0.0
    for k, d in enumerate(dims):
        h = inv.sum(axis=tuple(a for a in range(len(dims)) if a != k))
        a_k = (vecs[k] * (h / (p // d))) @ vecs[k].T
        grad = grams[k] - a_k
        off = ~np.eye(d, dtype=bool)
        nz = off & (np.abs(psi[k]) > 0.0)
        zero = off & ~nz
        worst = max(worst, float(np.abs(np.diag(grad)).max()))
        if nz.any():
            worst = max(worst, float(np.abs(grad[nz] + rho[k] * np.sign(psi[k][nz])).max()))
        if zero.any():
            worst = max(worst, float(np.abs(grad[zero]).max()) - rho[k])
    if not worst <= OPT_TOL:
        return [f"first-order optimality residual {worst:.3e} > {OPT_TOL:g}"]
    return []


def confusion(truth, est, eps: float = EDGE_EPS) -> np.ndarray:
    """(tp, tn, fp, fn) of the off-diagonal supports, pooled over factors."""
    counts = np.zeros(4, dtype=np.int64)
    for t, e in zip(truth, est):
        upper = np.triu(np.ones(t.shape, dtype=bool), 1)
        te = (np.abs(t) > eps)[upper]
        ee = (np.abs(e) > eps)[upper]
        counts += [np.sum(te & ee), np.sum(~te & ~ee), np.sum(~te & ee), np.sum(te & ~ee)]
    return counts


def mcc_of(counts) -> float:
    """Matthews correlation of pooled (tp, tn, fp, fn) counts; 0 when degenerate."""
    tp, tn, fp, fn = (int(c) for c in counts)
    denom = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return (tp * tn - fp * fn) / denom if denom else 0.0


def read_factors(path) -> list[np.ndarray]:
    """Factor matrices from a factor JSON file ({"dims": [...], "factors": [...]})."""
    with open(path) as fh:
        obj = json.load(fh)
    return [np.asarray(f, dtype=float).reshape(d, d) for f, d in zip(obj["factors"], obj["dims"])]


def read_ktns(path, dims, n: int) -> tuple[np.ndarray, list[str]]:
    """Parse a .ktns file: one JSON header line, then n*p little-endian f64."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head, sep, payload = raw.partition(b"\n")
    problems = []
    header = json.loads(head) if sep else {}
    want = {"dims": list(dims), "n": n, "dtype": "f64", "order": "mode1-slowest"}
    if header != want:
        problems.append(f"ktns header {header} != {want}")
    p = math.prod(dims)
    if len(raw) != len(head) + 1 + n * p * 8:
        problems.append(f"ktns size {len(raw)} != header {len(head) + 1} + n*p*8 = {n * p * 8}")
        return np.zeros((0, p)), problems
    values = np.frombuffer(payload, dtype="<f8").reshape(n, p)
    if not np.isfinite(values).all():
        problems.append("ktns payload holds non-finite values")
    return values, problems


def support_property(rows) -> list[str]:
    """The paper's support-recovery property on a support sweep's rows:
    MCC at n = 100 is at least 0.8 and above MCC at n = 1."""
    by_n = {int(r["n"]): float(r["mcc"]) for r in rows}
    if 1 not in by_n or 100 not in by_n:
        return [f"sweep rows hold n = {sorted(by_n)}, expected 1 and 100"]
    if not (by_n[100] >= 0.8 and by_n[100] > by_n[1]):
        return [f"support recovery fails: mcc(n=100)={by_n[100]:.3f}, mcc(n=1)={by_n[1]:.3f}"]
    return []


def kron_sum(psi) -> np.ndarray:
    """Dense Kronecker sum, mode 1 slowest.  Small p only."""
    dims = [m.shape[0] for m in psi]
    out = 0.0
    for k, m in enumerate(psi):
        pre, post = math.prod(dims[:k]), math.prod(dims[k + 1 :])
        out = out + np.kron(np.kron(np.eye(pre), m), np.eye(post))
    return out


def dense_objective(omega: np.ndarray, s_hat: np.ndarray, dims, rho) -> float:
    """-log|Omega| + <S_hat, Omega> + sum_k rho_k m_k |offdiag Psi_k|_1.

    The off-diagonal of Psi_k is read straight off Omega: entry (i, j) of
    mode k sits where every other mode index is zero.
    """
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0:
        return math.inf
    K, p = len(dims), math.prod(dims)
    t = omega.reshape(tuple(dims) * 2)
    pen = 0.0
    for k, d in enumerate(dims):
        index = [0] * (2 * K)
        index[k], index[K + k] = slice(None), slice(None)
        block = t[tuple(index)]
        pen += rho[k] * (p // d) * float(np.abs(block - np.diag(np.diag(block))).sum())
    return float(-logdet + np.sum(s_hat * omega) + pen)
