import numpy as np
import pytest

from teralasso.data import gram_factors, sample_ksum_gaussian
from teralasso.ksum import Dims, FactorSet, kron_sum_dense, proj_ksum_dense
from teralasso.oracle import (
    DenseProblem,
    basis_projection,
    dense_objective,
    dense_solver,
    rearrange_rk,
)
from teralasso.solver import SolverConfig, objective, resolve_rho, solve


def pd_factors(dims, rng):
    psi = []
    for dk in dims.d:
        M = rng.standard_normal((dk, dk))
        psi.append(M @ M.T / dk + 0.5 * np.eye(dk))
    return FactorSet(dims, psi)


class TestDenseProblem:
    def test_validation(self):
        dims = Dims([2, 2])
        with pytest.raises(ValueError, match="symmetric"):
            DenseProblem(dims, np.arange(16.0).reshape(4, 4), np.zeros(2))
        with pytest.raises(ValueError, match="semidefinite"):
            DenseProblem(dims, -np.eye(4), np.zeros(2))
        with pytest.raises(ValueError, match="length"):
            DenseProblem(dims, np.eye(4), np.zeros(3))

    def test_size_limit(self):
        dims = Dims([32, 32])
        with pytest.raises(ValueError, match="limited"):
            dense_objective(np.eye(dims.p), DenseProblem(dims, np.eye(dims.p), np.zeros(2)))


class TestDenseObjective:
    def test_identity(self):
        dims = Dims([2, 2])
        prob = DenseProblem(dims, np.eye(4), np.zeros(2))
        # -log det I + tr(I) = 4
        assert dense_objective(np.eye(4), prob) == pytest.approx(4.0)

    def test_agrees_with_factor_objective(self):
        rng = np.random.default_rng(0)
        dims = Dims([3, 3])
        truth = pd_factors(dims, rng)
        data = sample_ksum_gaussian(truth, 4, 0)
        g = gram_factors(data)
        s_hat = data.values.T @ data.values / data.n
        rho = np.array([0.05, 0.1])
        prob = DenseProblem(dims, s_hat, rho)
        _, _, total = objective(truth, g, rho)
        assert dense_objective(kron_sum_dense(truth), prob) == pytest.approx(
            total, abs=1e-8
        )

    def test_rejects_indefinite(self):
        # eigenvalues (-1.5, -1.5, 2.5, 2.5): an even number of negative
        # ones, so the slogdet sign alone would read +1
        dims = Dims([2, 2])
        prob = DenseProblem(dims, np.eye(4), np.zeros(2))
        omega = kron_sum_dense(FactorSet(dims, [np.diag([-2.0, 2.0]), 0.5 * np.eye(2)]))
        with pytest.raises(ValueError, match="positive definite"):
            dense_objective(omega, prob)

    def test_rejects_off_subspace(self):
        dims = Dims([2, 2])
        prob = DenseProblem(dims, np.eye(4), np.zeros(2))
        M = np.eye(4)
        M[0, 3] = M[3, 0] = 0.5  # not expressible as a Kronecker sum
        with pytest.raises(ValueError, match="subspace"):
            dense_objective(M, prob)


class TestBasisProjection:
    def test_matches_fast_projection(self):
        rng = np.random.default_rng(1)
        for d in ([2, 3], [3, 3], [2, 2, 3]):
            dims = Dims(d)
            A = rng.standard_normal((dims.p, dims.p))
            A = 0.5 * (A + A.T)
            ref = kron_sum_dense(basis_projection(A, dims))
            fast = kron_sum_dense(proj_ksum_dense(A, dims))
            np.testing.assert_allclose(fast, ref, atol=1e-9)

    def test_exact_on_subspace(self):
        rng = np.random.default_rng(2)
        dims = Dims([3, 2])
        f = pd_factors(dims, rng)
        back = basis_projection(kron_sum_dense(f), dims)
        np.testing.assert_allclose(
            kron_sum_dense(back), kron_sum_dense(f), atol=1e-9
        )


def criterion4_problems():
    """The dense problems of acceptance criterion 4, drawn the same way."""
    rng = np.random.default_rng(104)
    cases = [(Dims([6, 6]), rb) for rb in (0.0, 0.1) for _ in range(3)]
    cases += [(Dims([3, 3, 4]), rb) for rb in (0.0, 0.1) for _ in range(2)]
    for dims, rho_bar in cases:
        truth = pd_factors(dims, rng)
        data = sample_ksum_gaussian(truth, 6, int(rng.integers(2**31)))
        s_hat = data.values.T @ data.values / data.n
        rho = resolve_rho(SolverConfig(rho_bar=rho_bar), dims, data.n)
        yield DenseProblem(dims, s_hat, rho)


def small_problem(rho_bar):
    """The [3,3], n = 5 problem of ``test_fast_solver_matches_dense``."""
    rng = np.random.default_rng(3)
    dims = Dims([3, 3])
    truth = pd_factors(dims, rng)
    data = sample_ksum_gaussian(truth, 5, 3)
    s_hat = data.values.T @ data.values / data.n
    cfg = SolverConfig(rho_bar=rho_bar)
    rho = resolve_rho(cfg, dims, data.n)
    return data, cfg, DenseProblem(dims, s_hat, rho)


class TestDenseSolver:
    @pytest.mark.parametrize("rho_bar", [0.0, 0.1])
    def test_fast_solver_matches_dense(self, rho_bar):
        data, cfg, prob = small_problem(rho_bar)
        omega_ref, converged = dense_solver(prob, tol=1e-8)
        assert converged
        est, report = solve(gram_factors(data), n=data.n, config=cfg)
        gap = dense_objective(kron_sum_dense(est), prob) - dense_objective(
            omega_ref, prob
        )
        assert abs(gap) < 1e-6
        assert report.final_kkt < 1e-6

    def test_converges_in_few_iterations(self):
        # BB steps with backtracking; the fixed 0.5 * lambda_min^2 step needed
        # thousands of iterations on these problems
        problems = list(criterion4_problems())
        problems += [small_problem(rb)[2] for rb in (0.0, 0.1)]
        for prob in problems:
            omega, converged = dense_solver(prob, max_iter=500)
            assert converged
            assert np.linalg.eigvalsh(omega).min() > 0


class TestRearrangement:
    def test_gram_identity(self):
        # vec(S_k) = (1/m_k) R_k(S_hat) vec(I)
        rng = np.random.default_rng(4)
        dims = Dims([2, 3, 2])
        data = sample_ksum_gaussian(pd_factors(dims, rng), 3, 4)
        g = gram_factors(data)
        s_hat = data.values.T @ data.values / data.n
        for k in range(dims.K):
            mk = dims.m(k)
            rk = rearrange_rk(s_hat, dims, k)
            sk = rk @ np.eye(mk).ravel(order="F") / mk
            np.testing.assert_allclose(sk, g.s[k].ravel(order="F"), atol=1e-9)

    def test_rank_one_on_kron_product(self):
        # the rearrangement of kron(I, M) factors as an outer product
        rng = np.random.default_rng(5)
        dims = Dims([2, 3])
        M = rng.standard_normal((2, 2))
        M = 0.5 * (M + M.T)
        A = np.kron(M, np.eye(3))
        rk = rearrange_rk(A, dims, 0)
        expected = np.outer(M.ravel(order="F"), np.eye(3).ravel(order="F"))
        np.testing.assert_allclose(rk, expected, atol=1e-12)

    def test_shape_check(self):
        with pytest.raises(ValueError):
            rearrange_rk(np.eye(5), Dims([2, 3]), 0)


class TestSelfcheck:
    def test_all_pass(self):
        from teralasso.selfcheck import run_selfcheck

        results = run_selfcheck(seed=0)
        assert len(results) == 6
        for name, value, tol, ok in results:
            assert ok, f"{name}: {value} > {tol}"

    def test_deterministic(self):
        from teralasso.selfcheck import run_selfcheck

        a = run_selfcheck(seed=1)
        b = run_selfcheck(seed=1)
        assert a == b

    def test_fault_injection_detected(self, monkeypatch):
        from teralasso.selfcheck import run_selfcheck

        monkeypatch.setenv("TERALASSO_FAULT_INJECT", "projection")
        results = {name: ok for name, _, _, ok in run_selfcheck(seed=0)}
        assert not results["projection-vs-basis"]
        assert results["gradient-vs-dense"]
