import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teralasso.ksum
import teralasso.solver
from teralasso.data import DataTensorSet, GramSet, gram_factors, sample_ksum_gaussian
from teralasso.ksum import (
    Dims,
    FactorSet,
    eigsum_grid,
    kron_sum_dense,
    ksum_eigensystem,
    ksum_frobenius,
    ksum_inner,
    offdiag_l1,
)
from teralasso.solver import (
    SolverConfig,
    bb_stepsize,
    ista_step,
    kkt_residual,
    line_search,
    objective,
    resolve_rho,
    shrink_offdiag,
    smooth_objective,
    solve,
    subspace_gradient,
)

from helpers import scaled


def identity_gram(dims, n=10):
    """GramSet with every S_k = I, whose solution is Omega = I for rho = 0."""
    return GramSet(dims, n, tuple(np.eye(d) for d in dims.d))


def quad_model(candidate, base, grad, zeta, base_smooth):
    """Quadratic upper model of the smooth objective around the base point:
    the acceptance test that the line search's composite decrease implies."""
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    delta = candidate - base
    return (
        base_smooth
        + ksum_inner(delta, grad)
        + ksum_inner(delta, delta) / (2.0 * zeta)
    )


def eig_bound(g, rho):
    """The paper's lower bound a = 1 / sum_k (||S_k||_2 + d_k rho_k) on the
    eigenvalues of every iterate: the reference for the safe step min(a, .)^2."""
    return 1.0 / sum(
        float(np.linalg.norm(s, 2)) + d * r for s, d, r in zip(g.s, g.dims.d, rho)
    )


def random_truth(dims, seed, pd_scale=0.5):
    rng = np.random.default_rng(seed)
    psi = []
    for dk in dims.d:
        M = rng.standard_normal((dk, dk))
        psi.append(M @ M.T / dk + pd_scale * np.eye(dk))
    return FactorSet(dims, psi)


def random_problem(dims, n, seed, pd_scale=0.5):
    truth = random_truth(dims, seed, pd_scale)
    return truth, gram_factors(sample_ksum_gaussian(truth, n, seed))


class TestConfig:
    def test_defaults_valid(self):
        SolverConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol_kkt": -1.0},
            {"rho_bar": -0.5},
            {"max_iter": 0},
            {"max_iter": -3},
            {"rho_bar": (0.3, -0.1)},
            {"rho_bar": float("nan")},
            {"rho_bar": (0.3, float("inf"))},
            {"tol_kkt": float("nan")},
            {"tol_kkt": float("inf")},
        ],
    )
    def test_invalid(self, kwargs):
        # rejected by name, before any solve
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolverConfig(**kwargs)

    def test_backtrack_cap_is_a_constant(self):
        # the cap is a class constant, read by the line search at call time
        assert SolverConfig().max_backtracks == SolverConfig.max_backtracks == 40
        with pytest.raises(TypeError):
            SolverConfig(max_backtracks=0)


class TestResolveRho:
    def test_formula(self):
        dims = Dims([4, 8])
        rho = resolve_rho(SolverConfig(rho_bar=2.0), dims, n=5)
        logp = np.log(32)
        np.testing.assert_allclose(
            rho, [2.0 * np.sqrt(logp / (5 * 8)), 2.0 * np.sqrt(logp / (5 * 4))]
        )

    def test_per_factor_rho_bar(self):
        # each factor applies the rule with its own rho_bar
        dims = Dims([4, 8])
        rho = resolve_rho(SolverConfig(rho_bar=(2.0, 0.5)), dims, n=5)
        logp = np.log(32)
        np.testing.assert_allclose(
            rho, [2.0 * np.sqrt(logp / (5 * 8)), 0.5 * np.sqrt(logp / (5 * 4))]
        )

    def test_p_one_reads_log_p_as_one(self):
        # log 1 = 0 would zero the penalty; the rule reads log p as 1 there
        rho = resolve_rho(SolverConfig(rho_bar=1.0), Dims([1]), n=4)
        np.testing.assert_array_equal(rho, [0.5])

    @pytest.mark.parametrize("rho_bar", [(0.3,), (0.3, 0.7, 0.1)], ids=["1-tuple", "3-tuple"])
    def test_per_factor_length_checked(self, rho_bar):
        # a tuple of the wrong length, a 1-tuple included, never broadcasts
        with pytest.raises(ValueError, match="rho_bar"):
            resolve_rho(SolverConfig(rho_bar=rho_bar), Dims([4, 8]), n=5)


class TestShrink:
    def test_basic(self):
        M = np.array([[5.0, 0.3, -0.05], [0.3, -2.0, 1.0], [-0.05, 1.0, 0.1]])
        out = shrink_offdiag(M, 0.2)
        np.testing.assert_allclose(np.diag(out), [5.0, -2.0, 0.1])
        assert out[0, 1] == pytest.approx(0.1)
        assert out[0, 2] == 0.0
        assert out[1, 2] == pytest.approx(0.8)

    def test_zero_threshold_is_identity(self):
        M = np.random.default_rng(0).standard_normal((4, 4))
        np.testing.assert_array_equal(shrink_offdiag(M, 0.0), M)

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            shrink_offdiag(np.eye(2), -0.1)


class TestObjectiveAndGradient:
    def test_identity_gram_objective(self):
        # Omega = I: -log det I + sum_k m_k tr(I)/... = 0 + K*p contributions
        dims = Dims([2, 2])
        f = FactorSet.identity(dims)  # factors I/K, Omega = I
        g = identity_gram(dims)
        smooth = smooth_objective(f, g)
        # -log|I| + sum_k m_k <I, I/K> = 0 + K * (p/K) = p
        assert smooth == pytest.approx(dims.p)

    def test_penalty_split(self):
        dims = Dims([2, 2])
        f = FactorSet(
            dims, [np.array([[1.0, 0.5], [0.5, 1.0]]), np.eye(2)]
        )
        g, rho = identity_gram(dims), [0.1, 0.1]
        pen = offdiag_l1(f, rho)
        assert pen == pytest.approx(0.1 * 2 * 2 * 0.5)
        assert objective(f, g, rho) == smooth_objective(f, g) + pen

    def test_gradient_zero_at_identity_solution(self):
        dims = Dims([3, 2])
        f = FactorSet.identity(dims)
        grad = subspace_gradient(f, identity_gram(dims))
        assert ksum_frobenius(grad) == pytest.approx(0.0, abs=1e-12)

    def test_gradient_finite_difference(self):
        dims = Dims([3, 4, 3])
        truth, g = random_problem(dims, n=4, seed=12)
        f = truth
        grad = subspace_gradient(f, g)
        rng = np.random.default_rng(99)
        h = 1e-5
        from teralasso.ksum import ksum_inner

        worst = 0.0
        for _ in range(10):
            direction = FactorSet(
                dims,
                [0.5 * (M + M.T) for M in (rng.standard_normal((d, d)) for d in dims.d)],
            )
            direction = scaled(direction, 1.0 / ksum_frobenius(direction))
            plus = smooth_objective(f + scaled(direction, h), g)
            minus = smooth_objective(f - scaled(direction, h), g)
            fd = (plus - minus) / (2 * h)
            an = ksum_inner(grad, direction)
            worst = max(worst, abs(fd - an) / max(abs(an), 1.0))
        assert worst < 1e-5

    def test_gradient_vs_dense(self):
        dims = Dims([3, 3])
        truth, g = random_problem(dims, n=5, seed=3)
        grad = subspace_gradient(truth, g)
        from teralasso.ksum import proj_ksum_dense

        data = sample_ksum_gaussian(truth, 5, 3)
        s_hat = data.values.T @ data.values / 5
        dense = proj_ksum_dense(
            s_hat - np.linalg.inv(kron_sum_dense(truth)), dims
        )
        for a, b in zip(grad.psi, dense.psi):
            np.testing.assert_allclose(a, b, atol=1e-9)


class TestStepAndLineSearch:
    def test_ista_fixed_point(self):
        dims = Dims([2, 2])
        f = FactorSet.identity(dims)
        grad = subspace_gradient(f, identity_gram(dims))
        new = ista_step(f, grad, [0.0, 0.0], 0.5)
        np.testing.assert_allclose(
            kron_sum_dense(new), kron_sum_dense(f), atol=1e-12
        )

    @pytest.mark.parametrize("zeta", [0.0, -0.5])
    def test_nonpositive_stepsize_rejected(self, zeta):
        dims = Dims([2, 2])
        g = identity_gram(dims)
        f = scaled(FactorSet.identity(dims), 0.5)
        grad = subspace_gradient(f, g)
        with pytest.raises(ValueError, match="zeta must be positive"):
            ista_step(f, grad, [0.0, 0.0], zeta)
        with pytest.raises(ValueError, match="zeta_start must be positive"):
            line_search(f, g, grad, [0.0, 0.0], zeta, objective(f, g, [0.0, 0.0]))

    def test_quad_model_at_base(self):
        dims = Dims([2, 3])
        truth, g = random_problem(dims, n=4, seed=5)
        grad = subspace_gradient(truth, g)
        base_smooth = smooth_objective(truth, g)
        assert quad_model(truth, truth, grad, 0.1, base_smooth) == pytest.approx(
            base_smooth
        )

    def test_line_search_returns_pd_and_descent(self):
        dims = Dims([3, 4])
        truth, g = random_problem(dims, n=4, seed=6)
        f = FactorSet.identity(dims)
        grad = subspace_gradient(f, g)
        rho = [0.05, 0.05]
        base_total = objective(f, g, rho)
        cand, cand_total, cand_grad, zeta, bts, dd = line_search(
            f, g, grad, rho, 10.0, base_total
        )
        assert ksum_eigensystem(cand).min_sum > 0
        assert zeta <= 10.0
        delta = cand - f
        assert cand_total <= base_total - 1e-4 / (2 * zeta) * ksum_inner(delta, delta) + 1e-9
        assert dd == ksum_inner(delta, delta)

    def test_nonmonotone_reference_accepts_a_rise(self):
        # from Omega = I / 2 with optimum I, a long PD step overshoots and
        # raises F: it is rejected against F(f) and accepted, untouched,
        # against a reference as high as the candidate's objective
        dims = Dims([2, 3])
        g = identity_gram(dims)
        f = scaled(FactorSet.identity(dims), 0.5)
        grad = subspace_gradient(f, g)
        rho = [0.0, 0.0]
        base_total = objective(f, g, rho)
        for zeta in np.logspace(-2, 2, 41):
            cand = ista_step(f, grad, rho, zeta)
            if ksum_eigensystem(cand).min_sum > 0 and objective(cand, g, rho) > base_total:
                break
        else:
            pytest.fail("no PD step raises the objective")
        cand_total = objective(cand, g, rho)
        assert line_search(f, g, grad, rho, zeta, base_total)[4] > 0
        delta = cand - f
        ref_total = cand_total + 1e-4 / (2 * zeta) * ksum_inner(delta, delta)
        got, got_total, _, got_zeta, bts, _ = line_search(f, g, grad, rho, zeta, ref_total)
        assert (got_zeta, bts) == (zeta, 0)
        assert got_total == pytest.approx(cand_total, rel=1e-12) and got_total > base_total

    def test_sufficient_decrease_rejects_a_bare_reference(self, monkeypatch):
        # a reference above F(cand) by half the required decrease
        # sigma / (2 zeta) <delta, delta>: the first attempt falls short at
        # sigma = 1e-4 and passes at sigma = 0
        dims = Dims([2, 3])
        g = identity_gram(dims)
        f = scaled(FactorSet.identity(dims), 0.5)
        grad = subspace_gradient(f, g)
        rho, zeta = [0.0, 0.0], 0.1
        cand = ista_step(f, grad, rho, zeta)
        delta = cand - f
        decrease = 1e-4 / (2 * zeta) * ksum_inner(delta, delta)
        ref_total = objective(cand, g, rho) + 0.5 * decrease
        assert 0.5 * decrease > 1e3 * 1e-12 * (abs(ref_total) + 1.0)  # far above the slack
        assert line_search(f, g, grad, rho, zeta, ref_total)[4] > 0
        monkeypatch.setattr(teralasso.solver, "_SIGMA", 0.0)
        assert line_search(f, g, grad, rho, zeta, ref_total)[4] == 0

    def test_safe_step_fallback(self, monkeypatch):
        # zero backtracks forces an immediate fall-through to the safe step
        # min(a, min eig of the iterate)^2, which must always be accepted
        monkeypatch.setattr(SolverConfig, "max_backtracks", 0)
        dims = Dims([2, 2])
        g = identity_gram(dims)
        f = FactorSet.identity(dims)
        grad = subspace_gradient(f, g)
        base_total = objective(f, g, [0.0, 0.0])
        a = eig_bound(g, [0.0, 0.0])
        _, _, _, zeta, bts, _ = line_search(f, g, grad, [0.0, 0.0], 1e8, base_total)
        assert zeta == pytest.approx(min(a, ksum_eigensystem(f).min_sum) ** 2)
        assert bts == 0

    def test_safe_step_reuses_the_iterate_spectrum(self, monkeypatch):
        # the iterate's spectrum, read by its gradient and objective, also
        # gives the safe step: the only new eigensystem is the candidate's
        monkeypatch.setattr(SolverConfig, "max_backtracks", 0)
        dims = Dims([3, 4])
        _, g = random_problem(dims, n=2, seed=21)
        f = FactorSet.identity(dims)
        rho = [0.1, 0.1]
        grad = subspace_gradient(f, g)
        base_total = objective(f, g, rho)
        calls = []
        eigensystem = teralasso.ksum.ksum_eigensystem

        def counting_eigensystem(fs):
            calls.append(fs)
            return eigensystem(fs)

        monkeypatch.setattr(teralasso.ksum, "ksum_eigensystem", counting_eigensystem)
        cand = line_search(f, g, grad, rho, 1e8, base_total)[0]
        assert len(calls) == 1 and calls[0] is cand

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_safe_step_below_eigenvalue_bound(self, n, monkeypatch):
        # from I with a huge first trial, (min eig of the iterate)^2 = 1 is not
        # an acceptable step on these problems; min(a, min eig)^2 is
        monkeypatch.setattr(SolverConfig, "max_backtracks", 0)
        dims = Dims([5])
        _, g = random_problem(dims, n=n, seed=14)
        f = FactorSet.identity(dims)
        grad = subspace_gradient(f, g)
        rho = resolve_rho(SolverConfig(rho_bar=0.3), dims, g.n)
        base_total = objective(f, g, rho)
        a = eig_bound(g, rho)
        cand, cand_total, _, zeta, bts, dd = line_search(
            f, g, grad, rho, 1e8, base_total
        )
        assert zeta == pytest.approx(a**2, rel=1e-12)
        assert a**2 < ksum_eigensystem(f).min_sum ** 2
        assert bts == 0
        assert ksum_eigensystem(cand).min_sum > 0
        assert cand_total <= base_total - 1e-4 / (2 * zeta) * dd + 1e-9

    def test_model_acceptance_implies_decrease(self, monkeypatch):
        # with sigma = 1 the composite-decrease rule accepts every PD candidate
        # under the quadratic model, the safe step min(a, min eig)^2 among them
        monkeypatch.setattr(teralasso.solver, "_SIGMA", 1.0)
        rng = np.random.default_rng(20)
        under_model = safe_steps = 0
        for trial in range(30):
            dims = Dims(rng.integers(1, 7, size=rng.integers(1, 4)))
            truth, g = random_problem(dims, n=int(rng.integers(1, 6)), seed=trial)
            f = truth if trial % 2 else FactorSet.identity(dims)
            grad = subspace_gradient(f, g)
            rho = resolve_rho(SolverConfig(rho_bar=float(rng.uniform(0, 2))), dims, g.n)
            base_smooth = smooth_objective(f, g)
            base_total = objective(f, g, rho)
            a = eig_bound(g, rho)
            safe = min(a, f.spectrum.min_sum) ** 2
            for zeta in [*np.logspace(-4, 2, 13), safe]:
                cand = ista_step(f, grad, rho, zeta)
                if ksum_eigensystem(cand).min_sum <= 0:
                    continue
                if smooth_objective(cand, g) > quad_model(cand, f, grad, zeta, base_smooth):
                    continue
                under_model += 1
                monkeypatch.setattr(SolverConfig, "max_backtracks", 1)
                got = line_search(f, g, grad, rho, zeta, base_total)
                assert got[3] == zeta and got[4] == 0
                if zeta == safe:
                    # the fallback after max_backtracks rejections takes it too
                    safe_steps += 1
                    monkeypatch.setattr(SolverConfig, "max_backtracks", 0)
                    got = line_search(f, g, grad, rho, 1e8, base_total)
                    assert got[3] == pytest.approx(safe, rel=1e-12) and got[4] == 0
        assert under_model > 100 and safe_steps > 10

    def test_bb_stepsize(self):
        dims = Dims([2, 2])
        d_omega = FactorSet(dims, [np.eye(2), np.eye(2)])
        d_grad = FactorSet(dims, [2 * np.eye(2), 2 * np.eye(2)])
        # <dO, dG> = 2 <dO, dO> so zeta = 1/2
        dd = ksum_inner(d_omega, d_omega)
        assert bb_stepsize(d_omega, d_grad, 0.123, dd) == pytest.approx(0.5)

    @pytest.mark.parametrize("c, short", [(2.0, True), (0.5, False)])
    def test_bb_adaptive_choice(self, c, short):
        # traceless blocks: BB1 = 1 and BB2 = 1 / (1 + c^2), so the short step
        # is taken exactly when it is below half the long one
        dims = Dims([2, 2])
        swap, flip = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
        d_omega = FactorSet(dims, [swap, np.zeros((2, 2))])
        d_grad = FactorSet(dims, [swap, c * flip])
        dd = ksum_inner(d_omega, d_omega)
        bb1 = dd / ksum_inner(d_omega, d_grad)
        bb2 = ksum_inner(d_omega, d_grad) / ksum_inner(d_grad, d_grad)
        assert bb1 == pytest.approx(1.0) and bb2 == pytest.approx(1 / (1 + c**2))
        assert bb_stepsize(d_omega, d_grad, 0.123, dd) == (bb2 if short else bb1)

    def test_bb_long_step_when_grad_norm_rounds_to_zero(self):
        # dGrad is almost a pure trace shift between the factors, whose
        # Kronecker sum is zero: the closed form's <dGrad, dGrad> cancels to <= 0
        dims = Dims([2, 2])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        d_omega = FactorSet(dims, [swap, np.zeros((2, 2))])
        d_grad = FactorSet(dims, [np.eye(2) + 1e-9 * swap, -np.eye(2)])
        assert ksum_inner(d_grad, d_grad) <= 0 < ksum_inner(d_omega, d_grad)
        dd = ksum_inner(d_omega, d_omega)
        assert bb_stepsize(d_omega, d_grad, 0.123, dd) == dd / ksum_inner(d_omega, d_grad)

    def test_bb_fallback_on_negative_curvature(self):
        dims = Dims([2, 2])
        d_omega = FactorSet(dims, [np.eye(2), np.eye(2)])
        d_grad = scaled(d_omega, -1.0)
        dd = ksum_inner(d_omega, d_omega)
        assert bb_stepsize(d_omega, d_grad, 0.123, dd) == 0.123


class TestKkt:
    def test_zero_at_unpenalized_optimum(self):
        dims = Dims([3, 2])
        f = FactorSet.identity(dims)
        grad = subspace_gradient(f, identity_gram(dims))
        assert kkt_residual(f, [0.0, 0.0], grad) == pytest.approx(0.0, abs=1e-12)

    def test_trace_shift_invariant(self):
        dims = Dims([3, 3])
        truth, g = random_problem(dims, n=4, seed=8)
        shifted = FactorSet(
            dims, [truth.psi[0] + 0.3 * np.eye(3), truth.psi[1] - 0.3 * np.eye(3)]
        )
        rho = [0.05, 0.08]
        assert kkt_residual(truth, rho, subspace_gradient(truth, g)) == pytest.approx(
            kkt_residual(shifted, rho, subspace_gradient(shifted, g)), abs=1e-9
        )

    def test_positive_away_from_optimum(self):
        dims = Dims([3, 2])
        f = FactorSet(dims, [np.eye(3), np.eye(2)])  # Omega = 2I, not optimal
        assert kkt_residual(f, [0.0, 0.0], subspace_gradient(f, identity_gram(dims))) > 0.1


class TestSolve:
    def test_trivial_identity_fixed_point(self):
        # with every S_k = I and no penalty, Omega = I is optimal from the
        # start; the KKT stop is gated to run from the third iteration on
        dims = Dims([2, 3])
        est, report = solve(identity_gram(dims), config=SolverConfig(rho_bar=0.0))
        np.testing.assert_allclose(kron_sum_dense(est), np.eye(dims.p), atol=1e-8)
        assert report.termination in ("objective-tol", "kkt-tol")
        assert report.final_kkt < 1e-6
        assert report.iterations == 3

    def test_nonmonotone_descent(self):
        # each objective stays under the largest of the last five accepted, so
        # that running maximum never rises, and the solve ends below its start
        dims = Dims([4, 5])
        truth, g = random_problem(dims, n=6, seed=9)
        _, report = solve(g, config=SolverConfig(rho_bar=0.1, max_iter=200))
        trace = np.array(report.objective_trace)
        window = np.array([trace[max(t - 4, 0) : t + 1].max() for t in range(len(trace) - 1)])
        tol = 1e-10 * np.maximum(np.abs(trace[1:]), 1.0)
        assert np.all(trace[1:] <= window + tol)
        assert np.all(np.diff(window) <= tol[1:])
        assert trace[-1] < trace[0]

    def test_rejection_budget(self):
        # n = 1 on [5, 6]: the monotone long-step search rejected 154 of its
        # 322 attempts here; the bound was fixed before the first run
        truth, g = random_problem(Dims([5, 6]), n=1, seed=17)
        _, report = solve(g, config=SolverConfig(rho_bar=0.3, max_iter=200))
        assert sum(report.backtrack_counts) <= 50

    def test_kkt_at_termination(self):
        dims = Dims([4, 4])
        truth, g = random_problem(dims, n=6, seed=10)
        est, report = solve(g, config=SolverConfig(rho_bar=0.1))
        assert report.termination != "max-iter"
        assert report.final_kkt < 1e-6
        spec = ksum_eigensystem(est)
        assert spec.min_sum > 0

    def test_unique_solution_from_different_inits(self):
        dims = Dims([3, 4])
        truth, g = random_problem(dims, n=6, seed=11)
        cfg = SolverConfig(rho_bar=0.2)
        a, _ = solve(g, config=cfg)
        b, _ = solve(g, config=cfg, init=scaled(FactorSet.identity(dims), 2.0))
        np.testing.assert_allclose(
            kron_sum_dense(a), kron_sum_dense(b), atol=1e-5
        )

    def test_large_rho_gives_diagonal(self):
        dims = Dims([3, 3])
        truth, g = random_problem(dims, n=6, seed=12)
        est, _ = solve(g, config=SolverConfig(rho_bar=100.0))
        for psi in est.psi:
            off = psi - np.diag(np.diag(psi))
            np.testing.assert_allclose(off, 0.0, atol=1e-12)

    def test_max_iter_termination(self):
        dims = Dims([4, 4])
        truth, g = random_problem(dims, n=6, seed=13)
        _, report = solve(g, config=SolverConfig(rho_bar=0.1, max_iter=3))
        assert report.termination == "max-iter"
        assert report.iterations == 3

    def test_rejects_indefinite_init(self):
        dims = Dims([2, 2])
        g = identity_gram(dims)
        bad = FactorSet(dims, [np.diag([-3.0, 1.0]), np.eye(2)])
        with pytest.raises(ValueError):
            solve(g, init=bad)

    def test_report_json(self):
        dims = Dims([2, 3])
        _, report = solve(identity_gram(dims))
        blob = json.loads(report.to_json())
        assert blob["termination"] in ("objective-tol", "kkt-tol")
        assert blob["iterations"] == len(blob["stepsize"])
        assert len(blob["objective"]) == blob["iterations"] + 1

    def test_deterministic(self):
        dims = Dims([3, 4])
        truth, g = random_problem(dims, n=6, seed=15)
        cfg = SolverConfig(rho_bar=0.1)
        a, ra = solve(g, config=cfg)
        b, rb = solve(g, config=cfg)
        for x, y in zip(a.psi, b.psi):
            np.testing.assert_array_equal(x, y)
        assert ra.objective_trace == rb.objective_trace

    def test_final_kkt_is_fresh_kkt(self):
        # the report reuses the carried gradient; a fresh one gives the same bits
        dims = Dims([4, 5])
        truth, g = random_problem(dims, n=6, seed=16)
        cfg = SolverConfig(rho_bar=0.1, max_iter=40)
        est, report = solve(g, config=cfg)
        fresh = subspace_gradient(est, g)
        assert report.final_kkt == kkt_residual(est, resolve_rho(cfg, dims, g.n), fresh)

    def test_one_grid_per_pd_attempt(self, monkeypatch):
        # every eigenvalue-sum grid of a solve belongs to the start point or to
        # one line-search attempt whose candidate passed the PD check
        grids, pd_spectra = [], []
        eigensystem = teralasso.ksum.ksum_eigensystem

        def counting_grid(vals):
            grids.append(1)
            return eigsum_grid(vals)

        def counting_eigensystem(f):
            s = eigensystem(f)
            pd_spectra.append(s.min_sum > 0)
            return s

        truth, g = random_problem(Dims([5, 6]), n=3, seed=17)
        monkeypatch.setattr(teralasso.ksum, "eigsum_grid", counting_grid)
        monkeypatch.setattr(teralasso.ksum, "ksum_eigensystem", counting_eigensystem)
        monkeypatch.setattr(teralasso.solver, "_ZETA0", 50.0)
        _, report = solve(g, config=SolverConfig(rho_bar=0.1, max_iter=60))
        attempts = report.iterations + sum(report.backtrack_counts)
        assert len(pd_spectra) == attempts + 1
        assert sum(report.backtrack_counts) > 0
        assert 0 < len(grids) <= sum(pd_spectra)

    @pytest.mark.parametrize("d", [[6], [1, 5]], ids=["K=1", "d_k=1"])
    def test_degenerate_shapes_converge(self, d):
        dims = Dims(d)
        truth, g = random_problem(dims, n=8, seed=18)
        cfg = SolverConfig(rho_bar=0.2)
        est, report = solve(g, config=cfg)
        assert report.termination != "max-iter"
        assert report.final_kkt < cfg.tol_kkt
        rho = resolve_rho(cfg, dims, g.n)
        assert kkt_residual(est, rho, subspace_gradient(est, g)) < cfg.tol_kkt

    def test_solve_holds_no_grid(self):
        # the log-det and gradient walk the eigenvalue-sum grid in slabs, so a
        # p = 10^6 solve peaks under half of one p-float grid
        dims = Dims([100, 100, 100])
        off = [0.1 * np.diag(np.ones(d - 1), 1) for d in dims.d]
        truth = FactorSet(dims, [np.eye(d) + a + a.T for d, a in zip(dims.d, off)])
        g = gram_factors(sample_ksum_gaussian(truth, 2, 19))
        tracemalloc.start()
        try:
            solve(g, config=SolverConfig(rho_bar=0.5, max_iter=30))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * dims.p / 2


# the metamorphic properties solve to this KKT tolerance, and the two
# estimates each compares may differ by this multiple of it, as a Kronecker
# sum relative to the first: ksum_frobenius(a - b) <= 100 tol_kkt ||a||
_META_TOL_KKT = 1e-9
_META_BOUND = 100 * _META_TOL_KKT


@st.composite
def meta_problems(draw):
    """Samples of a random Kronecker-sum model with K <= 4, and a penalty.

    Each factor sees n m_k >= 4 d_k sample rows, so every solve is well
    conditioned and converges; the few-sample solves that reach the iteration
    cap are a convergence question, not an equivariance one.
    """
    dims = Dims(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    n = max(draw(st.integers(3, 10)), *(-(-4 * d // m) for d, m in zip(dims.d, dims.ms)))
    seed = draw(st.integers(0, 2**16))
    data = sample_ksum_gaussian(random_truth(dims, seed), n, seed)
    return data, draw(st.sampled_from([0.05, 0.3, 1.0]))


class TestMetamorphic:
    """Exact equivariances of the estimator, which need no dense oracle and
    so reach every shape: they guard the mode order and index order of the
    Gram's batched unfoldings and of the solver's factor-wise steps."""

    @staticmethod
    def fit(data, rho_bar, init=None):
        cfg = SolverConfig(rho_bar=rho_bar, tol_kkt=_META_TOL_KKT)
        est, report = solve(gram_factors(data), config=cfg, init=init)
        assert report.termination != "max-iter"
        return est

    @staticmethod
    def assert_close(a, b):
        assert ksum_frobenius(a - b) <= _META_BOUND * ksum_frobenius(a)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(meta_problems(), st.data())
    def test_mode_permutation_permutes_estimate(self, problem, draw):
        data, rho_bar = problem
        dims = data.dims
        perm = draw.draw(st.permutations(range(dims.K)))
        moved = data.values.reshape((data.n,) + dims.d).transpose([0] + [1 + j for j in perm])
        pdims = Dims([dims.d[j] for j in perm])
        est = self.fit(data, rho_bar)
        got = self.fit(DataTensorSet(pdims, moved.reshape(data.n, dims.p)), rho_bar)
        self.assert_close(FactorSet(pdims, [est.psi[j] for j in perm]), got)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(meta_problems(), st.data())
    def test_index_permutation_conjugates_factor(self, problem, draw):
        data, rho_bar = problem
        dims = data.dims
        k = draw.draw(st.integers(0, dims.K - 1))
        sigma = draw.draw(st.permutations(range(dims.d[k])))
        moved = np.take(data.values.reshape((data.n,) + dims.d), sigma, axis=k + 1)
        est = self.fit(data, rho_bar)
        got = self.fit(DataTensorSet(dims, moved.reshape(data.n, dims.p)), rho_bar)
        want = list(est.psi)
        want[k] = want[k][np.ix_(sigma, sigma)]
        self.assert_close(FactorSet(dims, want), got)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(meta_problems(), st.data())
    def test_trace_shifted_init_reaches_same_sum(self, problem, draw):
        # Psi_k + c_k I with sum_k c_k = 0 has the Kronecker sum of Psi
        data, rho_bar = problem
        dims = data.dims
        c = draw.draw(st.lists(st.floats(-0.3, 0.3), min_size=dims.K - 1, max_size=dims.K - 1))
        c.append(-sum(c))
        start = FactorSet.identity(dims)
        init = FactorSet(dims, [m + ck * np.eye(len(m)) for m, ck in zip(start.psi, c)])
        self.assert_close(self.fit(data, rho_bar), self.fit(data, rho_bar, init))
