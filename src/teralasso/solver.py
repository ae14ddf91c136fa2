"""Subspace iterative soft-thresholding solver for the Kronecker-sum
penalized log-determinant objective.

The smooth part is -log|Omega| + sum_k m_k <S_k, Psi_k>; the penalty is the
weighted off-diagonal l1 of the factors.  All iterations work on the small
factor matrices and their spectra, never materializing the p x p matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .data import GramSet
from .ksum import (
    Dims,
    FactorSet,
    eigsum_absmax,
    ksum_inner,
    ksum_logdet,
    offdiag_l1,
    proj_inverse_spectrum,
)

__all__ = [
    "SolverConfig",
    "SolverReport",
    "resolve_rho",
    "objective",
    "smooth_objective",
    "shrink_offdiag",
    "subspace_gradient",
    "ista_step",
    "line_search",
    "bb_stepsize",
    "kkt_residual",
    "solve",
]


@dataclass(frozen=True)
class SolverConfig:
    rho_bar: float | tuple[float, ...] = 0.0
    max_iter: int = 1000
    tol_kkt: float = 1e-6
    # backtracks before the line search tries its safe step; not a field
    max_backtracks: ClassVar[int] = 40

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not 0 < self.tol_kkt < math.inf:  # an infinite one would call any iterate converged
            raise ValueError(f"tol_kkt must be finite and positive, got {self.tol_kkt}")
        rho_bar = np.asarray(self.rho_bar, dtype=float)  # an int of any size too
        if not np.all(np.isfinite(rho_bar) & (rho_bar >= 0)):
            raise ValueError(f"rho_bar must be finite and nonnegative, got {self.rho_bar}")


@dataclass
class SolverReport:
    objective_trace: list[float] = field(default_factory=list)
    stepsize_trace: list[float] = field(default_factory=list)
    backtrack_counts: list[int] = field(default_factory=list)
    final_kkt: float = math.nan
    iterations: int = 0
    termination: str = "max-iter"

    def to_json(self) -> str:
        return json.dumps(
            {
                "objective": self.objective_trace,
                "stepsize": self.stepsize_trace,
                "backtracks": self.backtrack_counts,
                "final_kkt": self.final_kkt,
                "iterations": self.iterations,
                "termination": self.termination,
            }
        )


def resolve_rho(config: SolverConfig, dims: Dims, n: int) -> np.ndarray:
    """Per-factor penalties rho_k = rho_bar_k * sqrt(log p / (n m_k)).

    A scalar ``rho_bar`` serves every factor; a tuple gives one per factor.
    A penalty whose weight rho_k m_k in the objective overflows is rejected."""
    rho_bar = config.rho_bar
    if np.ndim(rho_bar) == 0:
        rho_bar = (rho_bar,) * dims.K
    elif len(rho_bar) != dims.K:
        raise ValueError(f"rho_bar must be a scalar or {dims.K} values, got {len(rho_bar)}")
    logp = math.log(dims.p) if dims.p > 1 else 1.0
    rho = [rb * math.sqrt(logp / (n * dims.m(k))) for k, rb in enumerate(rho_bar)]
    if not all(math.isfinite(r * m) for r, m in zip(rho, dims.ms)):
        raise ValueError(f"rho_bar {config.rho_bar} gives a penalty rho_k m_k that is not finite")
    return np.array(rho)


def smooth_objective(f: FactorSet, g: GramSet) -> float:
    """-log|Omega| + sum_k m_k <S_k, Psi_k>, from factors only."""
    trace_term = sum(
        f.dims.m(k) * float(np.sum(g.s[k] * f.psi[k])) for k in range(f.dims.K)
    )
    return -ksum_logdet(f.spectrum) + trace_term


def objective(f: FactorSet, g: GramSet, rho) -> float:
    """The composite objective F: smooth part plus off-diagonal penalty."""
    return smooth_objective(f, g) + offdiag_l1(f, rho)


def shrink_offdiag(M: np.ndarray, thresh: float) -> np.ndarray:
    """Soft-threshold off-diagonal entries; the diagonal passes through."""
    if thresh < 0:
        raise ValueError("threshold must be nonnegative")
    diag = np.diag(M).copy()
    out = np.sign(M) * np.maximum(np.abs(M) - thresh, 0.0)
    np.fill_diagonal(out, diag)
    return out


def subspace_gradient(f: FactorSet, g: GramSet) -> FactorSet:
    """Gradient blocks of the smooth objective restricted to the subspace:
    S_tilde_k - G_k, with G the spectral projection of Omega^{-1}."""
    return g.centered - proj_inverse_spectrum(f.spectrum)


def ista_step(f: FactorSet, grad: FactorSet, rho, zeta: float) -> FactorSet:
    """One proximal gradient step, independently per factor."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    rho = np.asarray(rho, dtype=float)
    return FactorSet._trusted(
        f.dims,
        [
            shrink_offdiag(f.psi[k] - zeta * grad.psi[k], zeta * rho[k])
            for k in range(f.dims.K)
        ],
    )


# fraction of the decrease <delta, delta> / (2 zeta) that every step which
# passes the quadratic model achieves; an accepted step must reach it
_SIGMA = 1e-4
# backtracking factor, and the trial stepsize of a solve's first iteration
_BACKTRACK_C = 0.5
_ZETA0 = 1e-2
# relative objective change under which a KKT-converged solve is labelled
# "objective-tol" rather than "kkt-tol"; the stop itself is gated on KKT
_TOL_OBJ = 1e-9
# nonmonotone memory: a step is measured against the largest of the last
# _MEMORY accepted objectives
_MEMORY = 5
# the short BB step replaces the long one when their ratio falls below this
_ABB_RATIO = 0.5


def line_search(
    f: FactorSet,
    g: GramSet,
    grad: FactorSet,
    rho,
    zeta_start: float,
    ref_total: float,
) -> tuple[FactorSet, float, FactorSet, float, int, float]:
    """Backtracking search for the largest acceptable stepsize c^j * zeta_start.

    A step is accepted when the candidate is positive definite and the
    composite objective F (smooth part plus penalty) decreases sufficiently
    against the reference ``ref_total``:
    F(cand) <= ref_total - sigma / (2 zeta) <delta, delta>, delta = cand - f,
    with sigma = 1e-4.  This is SpaRSA's nonmonotone acceptance: ``solve``
    passes the largest of the last M = 5 accepted objectives, and
    ``ref_total`` = F(f) gives the monotone rule.  Every PD candidate under the
    quadratic model F_s(f) + <delta, grad> + <delta, delta> / (2 zeta) of the
    smooth part F_s satisfies it with sigma = 1 and any ref_total >= F(f), so it
    accepts every step that test accepts.  The last of the search's
    ``SolverConfig.max_backtracks`` + 1 trials is the safe step
    min(a^2, (min eigenvalue of Omega_t)^2), with a the lower bound
    1 / sum_k (||S_k||_2 + d_k rho_k) on the eigenvalues of every iterate, and
    only its rejection raises.  Each candidate carries its own spectrum, so a
    rejected one's is dropped with it and the accepted one's lives on the iterate.

    Returns (candidate, candidate objective F, candidate gradient, accepted
    zeta, number of backtracks, <delta, delta> of the accepted step).
    """
    if zeta_start <= 0:
        raise ValueError("zeta_start must be positive")
    slack = 1e-12 * (abs(ref_total) + 1.0)  # rounding in the two objectives
    zeta = zeta_start
    for backtracks in range(SolverConfig.max_backtracks + 1):
        if backtracks == SolverConfig.max_backtracks:  # the last trial is the safe step
            # S_k is PSD, so its spectral norm is its largest eigenvalue
            bound = sum(np.linalg.eigvalsh(s)[-1] + d * r for s, d, r in zip(g.s, g.dims.d, rho))
            a = 1.0 / bound if bound > 0 else math.inf
            zeta = min(a, f.spectrum.min_sum) ** 2
        cand = ista_step(f, grad, rho, zeta)
        if cand.spectrum.min_sum > 0:  # a NaN spectrum fails
            cand_total = objective(cand, g, rho)
            delta = cand - f
            dd = ksum_inner(delta, delta)
            if cand_total <= ref_total - _SIGMA / (2.0 * zeta) * dd + slack:
                return cand, cand_total, subspace_gradient(cand, g), zeta, backtracks, dd
        zeta = _BACKTRACK_C * zeta
    raise RuntimeError("line search failed even at the safe step; iterate is corrupted")


def bb_stepsize(
    delta_omega: FactorSet, delta_grad: FactorSet, fallback: float, dd: float
) -> float:
    """Adaptive Barzilai-Borwein stepsize (ABB), from Kronecker-sum inner products.

    With s = <dOmega, dGrad>, the long step BB1 = <dOmega, dOmega> / s and the
    short step BB2 = s / <dGrad, dGrad> (never longer than BB1), ABB takes BB2
    when BB2 < BB1 / 2 and BB1 otherwise.  ``dd`` is <dOmega, dOmega>, which
    the line search already computed; a <dGrad, dGrad> that rounds to <= 0
    leaves BB1.  Returns ``fallback`` on nonpositive curvature."""
    denom = ksum_inner(delta_omega, delta_grad)
    if denom <= 0 or not math.isfinite(denom):
        return fallback
    zeta = dd / denom
    if not math.isfinite(zeta) or zeta <= 0:
        return fallback
    gg = ksum_inner(delta_grad, delta_grad)
    short = denom / gg if gg > 0 else math.inf
    return short if 0 < short < _ABB_RATIO * zeta else zeta


def kkt_residual(f: FactorSet, rho, grad: FactorSet) -> float:
    """Maximal first-order optimality violation at ``f``, whose gradient is ``grad``.

    Off-diagonals use the l1 subgradient conditions per factor; diagonals use
    the diagonal of the Kronecker-sum gradient, which is invariant to the
    non-identifiable trace shifts between factors.
    """
    rho = np.asarray(rho, dtype=float)
    resid = 0.0
    for k, (G, P) in enumerate(zip(grad.psi, f.psi)):
        r = np.where(P != 0, np.abs(G + rho[k] * np.sign(P)), np.abs(G) - rho[k])
        np.fill_diagonal(r, 0.0)
        resid = max(resid, float(r.max()))
    resid = max(resid, eigsum_absmax([np.diag(m) for m in grad.psi]))
    return resid


def solve(
    g: GramSet,
    n: int | None = None,
    config: SolverConfig | None = None,
    init: FactorSet | None = None,
) -> tuple[FactorSet, SolverReport]:
    """Run the iterative soft-thresholding loop to convergence.

    Starts at Omega = I (factors I/K) unless ``init`` is given.  The stepsize
    is initialized by the adaptive Barzilai-Borwein rule and validated by a
    nonmonotone backtracking search against the largest of the last five
    objectives.
    """
    config = config or SolverConfig()
    dims = g.dims
    n = g.n if n is None else n
    rho = resolve_rho(config, dims, n)

    f = init if init is not None else FactorSet.identity(dims)
    grad = subspace_gradient(f, g)  # a non-PD init raises NotPositiveDefiniteError
    total = objective(f, g, rho)
    if not math.isfinite(total):
        raise RuntimeError("non-finite objective at initialization")

    report = SolverReport()
    report.objective_trace.append(total)
    zeta_next = _ZETA0

    for it in range(1, config.max_iter + 1):
        cand, cand_total, cand_grad, zeta, bts, dd = line_search(
            f, g, grad, rho, zeta_next, max(report.objective_trace[-_MEMORY:])
        )
        if not math.isfinite(cand_total):
            raise RuntimeError("non-finite objective during iteration")

        # -log det is strictly convex, so only delta = 0 gives nonpositive
        # curvature; the next trial is then the step just accepted
        zeta_next = bb_stepsize(cand - f, cand_grad - grad, zeta, dd)
        f, grad, total = cand, cand_grad, cand_total
        report.objective_trace.append(total)
        report.stepsize_trace.append(zeta)
        report.backtrack_counts.append(bts)
        report.iterations = it

        kkt = kkt_residual(f, rho, grad)
        # tolerance stop is KKT-gated: objective stagnation alone can trigger
        # well before first-order optimality holds
        if it >= 3 and kkt < config.tol_kkt:
            prev_total = report.objective_trace[-2]
            rel_change = abs(prev_total - total) / max(abs(prev_total), 1.0)
            report.termination = "objective-tol" if rel_change < _TOL_OBJ else "kkt-tol"
            break
    report.final_kkt = kkt
    return f, report
