"""End-to-end acceptance battery.

Each test is one numbered criterion and prints its own PASS/FAIL line so the
suite output doubles as a checklist.
"""

import math
import resource
import time

import numpy as np
import pytest

import teralasso.metrics
from teralasso.cli import main as cli_main
from teralasso.data import gram_factors, sample_ksum_gaussian
from teralasso.ksum import (
    Dims,
    FactorSet,
    kron_sum_dense,
    ksum_frobenius,
    ksum_inner,
    proj_ksum_dense,
)
from teralasso.metrics import ExperimentSpec, run_rate_experiment, run_support_experiment
from teralasso.oracle import DenseProblem, basis_projection, dense_objective, dense_solver
from teralasso.solver import (
    SolverConfig,
    ista_step,
    resolve_rho,
    smooth_objective,
    solve,
    subspace_gradient,
)

from helpers import scaled


_reporter = None


@pytest.fixture(autouse=True)
def _live_output(request):
    # route the per-criterion PASS/FAIL lines past output capture so they
    # appear in the terminal even when the test passes
    global _reporter
    _reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    if _reporter is not None:
        _reporter.write_line("")
        _reporter.write_line(line)
    else:
        print(line)
    assert ok, f"{name}: {detail}"


def random_pd(dims, rng, ridge=0.5):
    psi = []
    for dk in dims.d:
        M = rng.standard_normal((dk, dk))
        psi.append(M @ M.T / dk + ridge * np.eye(dk))
    return FactorSet(dims, psi)


def test_criterion_01_projection_oracle_equivalence():
    rng = np.random.default_rng(101)
    shapes = [[3, 4], [4, 6], [6, 6], [2, 2, 3], [2, 3, 4], [3, 3, 4]]
    worst = 0.0
    for trial in range(20):
        dims = Dims(shapes[trial % len(shapes)])
        A = rng.standard_normal((dims.p, dims.p))
        A = 0.5 * (A + A.T)
        fast = kron_sum_dense(proj_ksum_dense(A, dims))
        ref = kron_sum_dense(basis_projection(A, dims))
        worst = max(worst, float(np.linalg.norm(fast - ref)))
    report("criterion-1 projection-oracle", worst < 1e-10, f"worst frob {worst:.3e}")


def test_criterion_02_gradient_finite_differences():
    rng = np.random.default_rng(102)
    h = 1e-5
    worst = 0.0
    for shape in ([3, 4, 3], [4, 6], [6, 6], [2, 3, 4], [5, 7]):
        dims = Dims(shape)
        truth = random_pd(dims, rng)
        g = gram_factors(sample_ksum_gaussian(truth, 4, int(rng.integers(2**31))))
        grad = subspace_gradient(truth, g)
        for _ in range(10):
            direction = FactorSet(
                dims,
                [0.5 * (M + M.T) for M in (rng.standard_normal((d, d)) for d in dims.d)],
            )
            direction = scaled(direction, 1.0 / ksum_frobenius(direction))
            fd = (
                smooth_objective(truth + scaled(direction, h), g)
                - smooth_objective(truth - scaled(direction, h), g)
            ) / (2 * h)
            an = ksum_inner(grad, direction)
            worst = max(worst, abs(fd - an) / max(abs(an), 1.0))
    report("criterion-2 gradient-fd", worst < 1e-5, f"worst rel err {worst:.3e}")


def test_criterion_03_gram_inner_product_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        dims = Dims([2, 3, 4])
        truth = random_pd(dims, rng)
        data = sample_ksum_gaussian(truth, 3, int(rng.integers(2**31)))
        g = gram_factors(data)
        a = FactorSet(
            dims,
            [0.5 * (M + M.T) for M in (rng.standard_normal((d, d)) for d in dims.d)],
        )
        s_hat = data.values.T @ data.values / data.n
        lhs = float(np.sum(s_hat * kron_sum_dense(a)))
        rhs = sum(dims.m(k) * float(np.sum(g.s[k] * a.psi[k])) for k in range(dims.K))
        worst = max(worst, abs(lhs - rhs))
    report("criterion-3 gram-identity", worst < 1e-9, f"worst abs err {worst:.3e}")


def test_criterion_04_solver_matches_dense_optimum():
    rng = np.random.default_rng(104)
    worst_gap = 0.0
    worst_kkt = 0.0
    cases = [(Dims([6, 6]), rb) for rb in (0.0, 0.1) for _ in range(3)]
    cases += [(Dims([3, 3, 4]), rb) for rb in (0.0, 0.1) for _ in range(2)]
    for dims, rho_bar in cases:
        truth = random_pd(dims, rng)
        data = sample_ksum_gaussian(truth, 6, int(rng.integers(2**31)))
        g = gram_factors(data)
        s_hat = data.values.T @ data.values / data.n
        cfg = SolverConfig(rho_bar=rho_bar)
        rho = resolve_rho(cfg, dims, data.n)
        prob = DenseProblem(dims, s_hat, rho)
        omega_ref, converged = dense_solver(prob, tol=1e-8)
        assert converged
        est, rep = solve(g, n=data.n, config=cfg)
        gap = dense_objective(kron_sum_dense(est), prob) - dense_objective(
            omega_ref, prob
        )
        worst_gap = max(worst_gap, gap)
        worst_kkt = max(worst_kkt, rep.final_kkt)
    ok = worst_gap <= 1e-6 and worst_kkt < 1e-6
    report(
        "criterion-4 solver-optimality",
        ok,
        f"worst gap {worst_gap:.3e}, worst kkt {worst_kkt:.3e}",
    )


def contraction_bound(a: float, b: float) -> tuple[float, float]:
    """Optimal worst-case per-step contraction for iterates in [a, b] spectra.

    Returns (s, zeta_opt) with s = 1 - 2/(1 + b^2/a^2), zeta = 2/(a^-2 + b^-2).
    """
    if not 0 < a <= b:
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    s = 1.0 - 2.0 / (1.0 + (b / a) ** 2)
    zeta = 2.0 / (a**-2 + b**-2)
    return s, zeta


class TestContractionBound:
    def test_formulas(self):
        s, zeta = contraction_bound(1.0, 3.0)
        assert s == pytest.approx(1 - 2 / (1 + 9))
        assert zeta == pytest.approx(2 / (1 + 1 / 9))

    def test_equal_bounds(self):
        s, zeta = contraction_bound(2.0, 2.0)
        assert s == pytest.approx(0.0)
        assert zeta == pytest.approx(4.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            contraction_bound(3.0, 1.0)
        with pytest.raises(ValueError):
            contraction_bound(0.0, 1.0)


def test_criterion_05_geometric_convergence():
    from teralasso.data import er_factor

    dims = Dims([16, 16])
    truth = FactorSet(dims, [er_factor(16, 16, seed=500 + k) for k in range(2)])
    data = sample_ksum_gaussian(truth, 20, seed=505)
    g = gram_factors(data)
    cfg = SolverConfig(rho_bar=0.1)
    rho = resolve_rho(cfg, dims, data.n)
    # theoretical lower iterate eigenvalue bound gives a provably safe
    # constant stepsize a^2
    a_theory = 1.0 / sum(
        float(np.linalg.norm(g.s[k], 2)) + dims.d[k] * rho[k] for k in range(dims.K)
    )
    zeta = a_theory**2

    f = FactorSet.identity(dims)
    iterates = []
    lo, hi = math.inf, -math.inf
    for _ in range(400):
        spec = f.spectrum
        lo = min(lo, spec.min_sum)
        hi = max(hi, float(sum(v.max() for v in spec.eigvals)))
        grad = subspace_gradient(f, g)
        f = ista_step(f, grad, rho, zeta)
        iterates.append(f)
    star = iterates[-1]
    dists = [ksum_frobenius(it - star) for it in iterates[:-1]]
    ratios = [
        dists[t + 1] / dists[t]
        for t in range(len(dists) - 21, len(dists) - 1)
        if dists[t] > 1e-13
    ]
    s_bound, _ = contraction_bound(lo, hi)
    worst = max(ratios)
    ok = worst <= s_bound + 0.05
    report(
        "criterion-5 geometric-convergence",
        ok,
        f"max contraction {worst:.4f} vs bound {s_bound:.4f}+0.05",
    )


def test_criterion_06_statistical_rate():
    spec = ExperimentSpec(
        model="ar1",
        dims=Dims([16, 16]),
        ar_coeff=0.5,
        n_list=(4, 16, 64),
        rho_grid=tuple(np.logspace(-2, 0.5, 6).tolist()),
        trials=10,
        seed=600,
        max_iter=400,
    )
    rows = run_rate_experiment(spec)
    x = np.log([r["n_eff"] for r in rows])
    y = np.log([r["mean_frob_rel"] for r in rows])
    slope = float(np.polyfit(x, y, 1)[0])
    ok = -0.65 <= slope <= -0.35
    report("criterion-6 statistical-rate", ok, f"slope {slope:.3f} in [-0.65, -0.35]")


# Criterion 7's 70 solves took 20,571 iterations plus line-search attempts
# when this ceiling was set; it allows 2 % more, a slack fixed before the
# first count.  Monotone acceptance (solver._MEMORY = 1) reads 21,298.
CRITERION_07_WORK = 20_571 + 411


def test_criterion_07_support_recovery(monkeypatch):
    work = []  # iterations + attempts of each solve

    def counted(*args, **kwargs):
        est, rep = solve(*args, **kwargs)
        work.append(2 * rep.iterations + sum(rep.backtrack_counts))
        return est, rep

    monkeypatch.setattr(teralasso.metrics, "solve", counted)
    base = dict(
        model="er",
        dims=Dims([32, 32]),
        edges=(16, 16),
        rho_grid=tuple(np.logspace(-2, 1, 7).tolist()),
        trials=5,
        seed=700,
        max_iter=400,
    )
    rows = run_support_experiment(ExperimentSpec(n_list=(1, 100), **base))
    mcc_by_n = {r["n"]: r["mcc"] for r in rows}
    ok = mcc_by_n[100] >= 0.8 and mcc_by_n[100] > mcc_by_n[1]
    report(
        "criterion-7 support-recovery",
        ok,
        f"mcc(n=100)={mcc_by_n[100]:.3f} >= 0.8 and > mcc(n=1)={mcc_by_n[1]:.3f}",
    )
    assert sum(work) <= CRITERION_07_WORK, f"iterations + attempts {sum(work)}"


def test_criterion_08_sampler_covariance():
    rng = np.random.default_rng(108)
    dims = Dims([4, 4])
    truth = random_pd(dims, rng)
    data = sample_ksum_gaussian(truth, 50000, seed=808)
    emp = data.values.T @ data.values / data.n
    cov = np.linalg.inv(kron_sum_dense(truth))
    err = float(np.linalg.norm(emp - cov) / np.linalg.norm(cov))
    report("criterion-8 sampler-covariance", err < 0.05, f"rel frob err {err:.4f}")


def test_criterion_09_scalability_smoke():
    dims = Dims([50, 50, 50])
    truth = FactorSet(
        dims, [np.diag(np.linspace(0.5, 1.5, 50)) for _ in range(3)]
    )
    data = sample_ksum_gaussian(truth, 10, seed=909)
    g = gram_factors(data)
    start = time.perf_counter()
    est, rep = solve(g, config=SolverConfig(rho_bar=0.1))
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = (
        rep.termination == "objective-tol"
        and elapsed < 120
        and peak_mb < 1024
    )
    report(
        "criterion-9 scalability",
        ok,
        f"p={dims.p}, {elapsed:.2f}s, peak {peak_mb:.0f} MB, "
        f"termination={rep.termination}",
    )


def test_criterion_10_determinism(tmp_path):
    def pipeline(root, threads):
        gen = root / "gen"
        fit = root / "fit"
        sweep = root / "sweep"
        assert cli_main(
            ["generate", "--model", "er", "--dims", "8,8", "--edges", "4,4",
             "--n", "20", "--seed", "10", "--out", str(gen)]
        ) == 0
        assert cli_main(
            ["estimate", "--data", str(gen / "samples.ktns"), "--rho-bar", "0.2",
             "--out", str(fit)]
        ) == 0
        assert cli_main(
            ["sweep", "--kind", "support", "--model", "er", "--dims", "6,6",
             "--edges", "3,3", "--n", "20", "--rho-grid", "0.1,0.5",
             "--trials", "2", "--seed", "3", "--max-iter", "100",
             "--threads", threads, "--out", str(sweep)]
        ) == 0
        return {
            rel: (root / rel).read_bytes()
            for rel in (
                "gen/truth.json", "gen/samples.ktns", "gen/manifest.json",
                "fit/estimate.json", "fit/report.json",
                "sweep/support.csv", "sweep/manifest.json",
            )
        }

    runs = [
        pipeline(tmp_path / "serial-a", "1"),
        pipeline(tmp_path / "serial-b", "1"),
        pipeline(tmp_path / "threaded", "4"),
    ]
    mismatched = [
        rel for rel in runs[0]
        if not (runs[0][rel] == runs[1][rel] == runs[2][rel])
    ]
    report(
        "criterion-10 determinism",
        not mismatched,
        "byte-identical across reruns and thread counts"
        if not mismatched
        else f"mismatch in {mismatched}",
    )


def test_criterion_11_one_sample_as_the_tensor_grows():
    # a single tensor sample gives factor k m_k rows, so at n = 1 the error
    # falls as the dims grow, like sqrt(log p / m_k)
    rows = []
    for d in (8, 12, 16, 24):
        spec = ExperimentSpec(
            model="ar1",
            dims=Dims([d, d, d]),
            ar_coeff=0.5,
            n_list=(1,),
            rho_grid=tuple(np.logspace(-2, 0.5, 6).tolist()),
            trials=3,
            seed=1100,
            max_iter=400,
        )
        rows += run_rate_experiment(spec)
    x = np.log([r["n_eff"] for r in rows])
    errs = [r["mean_frob_rel"] for r in rows]
    slope = float(np.polyfit(x, np.log(errs), 1)[0])
    ok = slope <= -0.25 and errs[-1] < errs[0]
    report(
        "criterion-11 one-sample-scaling",
        ok,
        f"slope {slope:.3f} <= -0.25, err [24,24,24] {errs[-1]:.4f} < [8,8,8] {errs[0]:.4f}",
    )
