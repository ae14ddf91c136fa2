"""Support-recovery and estimation-error metrics, plus scripted synthetic
experiment suites (rate verification, support recovery, tuning sweeps)."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .data import ar1_factor, check_seed, er_factor, grid_factor, gram_factors, sample_ksum_gaussian
from .ksum import Dims, FactorSet, _check_same_dims, eigsum_absmax, ksum_frobenius
from .solver import SolverConfig, resolve_rho, solve

__all__ = [
    "MODELS",
    "SUPPORT_EPS",
    "EdgeSupport",
    "ExperimentSpec",
    "edge_support",
    "mcc",
    "precision_recall",
    "estimation_errors",
    "effective_sample_size",
    "make_truth",
    "run_rate_experiment",
    "run_support_experiment",
    "tuning_sweep",
    "write_table",
]

SUPPORT_EPS = 1e-8
MODELS = ("er", "grid", "ar1")  # the truth models of make_truth


@dataclass(frozen=True)
class EdgeSupport:
    """Per-factor (d_k, d_k) boolean edge masks, set only above the diagonal."""

    dims: Dims
    edges: tuple[np.ndarray, ...]


def edge_support(f: FactorSet, eps: float = SUPPORT_EPS) -> EdgeSupport:
    return EdgeSupport(f.dims, tuple(np.triu(np.abs(psi) > eps, 1) for psi in f.psi))


def _confusion(truth: EdgeSupport, est: EdgeSupport):
    _check_same_dims(truth, est)
    tp = tn = fp = fn = 0
    for t, e, dk in zip(truth.edges, est.edges, truth.dims.d):
        hit, pos, sel = (int(np.count_nonzero(m)) for m in (t & e, t, e))
        tp += hit
        fp += sel - hit
        fn += pos - hit
        tn += dk * (dk - 1) // 2 - pos - sel + hit
    return tp, tn, fp, fn


def mcc(truth: EdgeSupport, est: EdgeSupport) -> float:
    """Matthews correlation coefficient pooled over factors; 0 when degenerate."""
    tp, tn, fp, fn = _confusion(truth, est)
    denom = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / denom


def precision_recall(truth: EdgeSupport, est: EdgeSupport) -> tuple[float, float]:
    """Edge-detection precision and recall; empty selections count as precision 1."""
    tp, _, fp, fn = _confusion(truth, est)
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / (tp + fn) if tp + fn > 0 else 1.0
    return precision, recall


def estimation_errors(truth: FactorSet, est: FactorSet) -> dict:
    """Errors of the Kronecker sums, invariant to factor trace shifts."""
    dims = truth.dims
    delta = est - truth  # checks the dims
    frob_full = ksum_frobenius(delta)
    truth_frob = ksum_frobenius(truth)
    spectral = eigsum_absmax(delta.spectrum.eigvals)
    factorwise = []
    for k in range(dims.K):
        off = delta.psi[k] - np.diag(np.diag(delta.psi[k]))
        factorwise.append(float(np.linalg.norm(off)))
    # the diagonal of the Kronecker sum is the Kronecker sum of the diagonals
    diag_err = ksum_frobenius(FactorSet(dims, [np.diag(np.diag(m)) for m in delta.psi]))
    # tr(Delta) / p, the common diagonal mass no factor trace shift changes
    tau = float(sum(np.trace(m) / dk for m, dk in zip(delta.psi, dims.d)))
    return {
        "frob_full": frob_full,
        "frob_rel": frob_full / truth_frob if truth_frob > 0 else frob_full,
        "spectral": spectral,
        "factorwise": factorwise,
        "diag_err": diag_err,
        "tau_err": abs(tau),
    }


def effective_sample_size(dims: Dims, n: int) -> float:
    """n * min_k m_k / log p (natural log)."""
    if dims.p < 2:
        raise ValueError("effective sample size needs p > 1")
    return n * min(dims.ms) / math.log(dims.p)


@dataclass(frozen=True)
class ExperimentSpec:
    model: str  # one of MODELS
    dims: Dims
    edges: tuple[int, ...] = ()
    ar_coeff: float = 0.5
    n_list: tuple[int, ...] = (10,)
    rho_grid: tuple[float, ...] = tuple(np.logspace(-3, 1, 7).tolist())
    rho_ratios: tuple[float, ...] = (1.0,)  # each scales the rho_bar of factors 2..K
    trials: int = 10
    seed: int = 0
    max_iter: int = 400
    cells: tuple = field(init=False, repr=False, compare=False)  # (rho_bar, ratio, config)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.trials < 1 or any(n < 1 for n in self.n_list):
            raise ValueError("counts must be positive")
        for name in ("n_list", "rho_grid", "rho_ratios"):  # a sweep of no cells
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must not be empty")
        if self.edges and len(self.edges) != self.dims.K:
            raise ValueError(f"edges needs one count per factor ({self.dims.K}), got {self.edges}")
        if not 0 <= check_seed(self.seed) < 2**31:  # where _trial_seed's mod 2^31 is injective
            raise ValueError(f"seed {self.seed} is outside [0, 2**31)")
        # the other rules through their owners, before any data set is drawn: the
        # generators' (AR coefficient, edge counts, grid side) and the solver's at every n
        _truth_factors(self, 0)
        tail, cap = self.dims.K - 1, self.max_iter
        cells = tuple((rb, r, SolverConfig(rho_bar=(rb,) + (rb * r,) * tail, max_iter=cap))
                      for rb in self.rho_grid for r in self.rho_ratios)
        for *_, config in cells:
            for n in self.n_list:
                resolve_rho(config, self.dims, n)
        object.__setattr__(self, "cells", cells)


def _truth_factors(spec: ExperimentSpec, trial_seed: int) -> list[np.ndarray]:
    dims = spec.dims
    if spec.model == "ar1":
        return [ar1_factor(dk, spec.ar_coeff) for dk in dims.d]
    gen = er_factor if spec.model == "er" else grid_factor
    edges = spec.edges or dims.d
    return [gen(dk, q, trial_seed + 1000 * k) for k, (dk, q) in enumerate(zip(dims.d, edges))]


def make_truth(spec: ExperimentSpec, trial_seed: int) -> FactorSet:
    """Truth factors; random ones key factor k's generator with seed + 1000 k."""
    return FactorSet(spec.dims, _truth_factors(spec, trial_seed))


def _trial_seed(spec: ExperimentSpec, *indices: int) -> int:
    s = spec.seed
    for ix in indices:
        s = (s * 1_000_003 + ix + 1) % (2**31)
    return s


# the trial-mean scores of every sweep cell, in the order _grid computes them
_SCORES = ("mcc", "precision", "recall", "frob_rel", "spectral")


def _grid(spec: ExperimentSpec, n: int) -> list[dict]:
    """Solve and score every (rho_bar, ratio) cell on each trial's data set.

    Each trial's data set is drawn once and shared by every cell of
    ``spec.cells``.  Returns one dict per cell, in (rho_bar, ratio) order, with
    the trial means of ``_SCORES`` and the trial spread ``std_frob_rel``.
    """
    scores = [[] for _ in spec.cells]
    for t in range(spec.trials):
        seed = _trial_seed(spec, n, t)
        truth = make_truth(spec, seed)
        gram = gram_factors(sample_ksum_gaussian(truth, n, seed))
        ts = edge_support(truth)
        for trial_scores, (_, _, config) in zip(scores, spec.cells):
            est, _ = solve(gram, config=config)
            es = edge_support(est)
            errs = estimation_errors(truth, est)
            trial_scores.append(
                (mcc(ts, es), *precision_recall(ts, es), errs["frob_rel"], errs["spectral"])
            )
    out = []
    for (rb, ratio, _), trial_scores in zip(spec.cells, scores):
        cols = dict(zip(_SCORES, zip(*trial_scores)))
        means = {name: float(np.mean(col)) for name, col in cols.items()}
        spread = float(np.std(cols["frob_rel"]))
        out.append({"rho_bar": rb, "ratio": ratio, **means, "std_frob_rel": spread})
    return out


def run_rate_experiment(spec: ExperimentSpec) -> list[dict]:
    """Mean relative Frobenius error per n-cell, with oracle-tuned rho_bar.

    For each cell the rho_bar grid is swept and the best mean error kept,
    standing in for cross-validation at desk scale.
    """
    rows = []
    for n in spec.n_list:
        n_eff = effective_sample_size(spec.dims, n)  # rejects p = 1 before any solve
        best = min(_grid(spec, n), key=lambda cell: cell["frob_rel"])
        rows.append(
            {
                "n": n,
                "n_eff": n_eff,
                "rho_bar": best["rho_bar"],
                "mean_frob_rel": best["frob_rel"],
                "std_frob_rel": best["std_frob_rel"],
            }
        )
    return rows


def run_support_experiment(spec: ExperimentSpec) -> list[dict]:
    """Support recovery at the best rho_bar on the grid, per sample size."""
    rows = []
    for n in spec.n_list:
        # max keeps the first of equal cells
        best = max(_grid(spec, n), key=lambda cell: cell["mcc"])
        rows.append(
            {
                "p": spec.dims.p,
                "K": spec.dims.K,
                "n": n,
                **{k: best[k] for k in ("rho_bar", "precision", "recall", "mcc")},
            }
        )
    return rows


def tuning_sweep(spec: ExperimentSpec) -> list[dict]:
    """Every cell of ``spec.cells``: each rho_bar at each of ``spec.rho_ratios``.

    Ratios other than 1 scale the penalty of every factor after the first,
    reproducing the near-optimality check of the single-parameter rule.
    """
    return [
        {"n": n, **{k: cell[k] for k in ("rho_bar", "ratio", "mcc", "frob_rel", "spectral")}}
        for n in spec.n_list
        for cell in _grid(spec, n)
    ]


def write_table(rows: list[dict], csv_path) -> None:
    """CSV with a header row; floats, numpy's too, are written exactly by ``repr``."""
    with open(csv_path, "w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow(
                    {k: (repr(float(v)) if isinstance(v, (float, np.floating)) else v)
                     for k, v in row.items()}
                )
