import functools

import numpy as np
import pytest

import teralasso.oracle
from teralasso.data import gram_factors, sample_ksum_gaussian
from teralasso.ksum import DenseLimitError, Dims, FactorSet, kron_sum_dense, proj_ksum_dense
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
        with pytest.raises(ValueError, match="s_hat must be 4x4"):
            DenseProblem(dims, np.eye(3), np.zeros(2))

    def test_size_limit(self):
        dims = Dims([32, 32])
        with pytest.raises(ValueError, match="limited"):
            dense_objective(np.eye(dims.p), DenseProblem(dims, np.eye(dims.p), np.zeros(2)))

    @pytest.mark.parametrize(
        "run, d, limit",
        [
            (lambda prob: dense_objective(np.eye(prob.dims.p), prob), [8, 9], 64),
            (lambda prob: basis_projection(prob.s_hat, prob.dims), [8, 9], 64),
            (lambda prob: rearrange_rk(prob.s_hat, prob.dims, 0), [8, 9], 64),
            (lambda prob: dense_solver(prob), [7, 7], 36),
        ],
        ids=["objective", "basis-projection", "rearrangement", "solver"],
    )
    def test_one_dense_guard(self, run, d, limit):
        # every dense path raises the one DenseLimitError, each at its own limit
        dims = Dims(d)
        prob = DenseProblem(dims, np.eye(dims.p), np.zeros(2))
        with pytest.raises(DenseLimitError, match=f"limited to p <= {limit}, got p={dims.p}"):
            run(prob)


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
        assert dense_objective(kron_sum_dense(truth), prob) == pytest.approx(
            objective(truth, g, rho), abs=1e-8
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

    def test_capped_solve_is_not_converged(self):
        prob = small_problem(0.1)[2]
        omega, converged = dense_solver(prob, max_iter=2)
        assert not converged
        assert np.linalg.eigvalsh(omega).min() > 0

    def test_safe_step_fallback_converges(self, monkeypatch):
        # with no halvings every step is the safe 0.5 * lambda_min^2 one; a
        # well-conditioned S_hat keeps those steps long
        rng = np.random.default_rng(0)
        M = rng.standard_normal((9, 27))
        prob = DenseProblem(Dims([3, 3]), M @ M.T / 27, np.full(2, 0.1))
        ref, _ = dense_solver(prob)
        monkeypatch.setattr(teralasso.oracle, "_MAX_HALVINGS", 0)
        omega, converged = dense_solver(prob)
        assert converged
        assert np.linalg.eigvalsh(omega).min() > 0
        np.testing.assert_allclose(omega, ref, atol=1e-6)


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

    @pytest.mark.parametrize(
        "d, k", [([2, 3], 0), ([2, 3], 1), ([3, 2, 2], 1)], ids=["2x3-k0", "2x3-k1", "3x2x2-k1"]
    )
    def test_rank_one_on_kron_product(self, d, k):
        # the rearrangement of a Kronecker product factors as an outer product;
        # non-symmetric factors tell row-major from column-major block order
        rng = np.random.default_rng(5)
        factors = [rng.standard_normal((dk, dk)) for dk in d]
        M = factors[k]
        N = functools.reduce(np.kron, factors[:k] + factors[k + 1 :])
        rk = rearrange_rk(functools.reduce(np.kron, factors), Dims(d), k)
        np.testing.assert_allclose(rk, np.outer(M.ravel(order="F"), N.ravel()), atol=1e-12)

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
        import teralasso.selfcheck
        from teralasso.selfcheck import run_selfcheck

        # the reference is off by 1e-3 I per factor; gradient-vs-dense never reads it
        reference = teralasso.selfcheck.basis_projection
        monkeypatch.setattr(
            teralasso.selfcheck,
            "basis_projection",
            lambda A, dims: FactorSet(
                dims, [m + 1e-3 * np.eye(len(m)) for m in reference(A, dims).psi]
            ),
        )
        results = {name: ok for name, _, _, ok in run_selfcheck(seed=0)}
        assert not results["projection-vs-basis"]
        assert results["gradient-vs-dense"]
