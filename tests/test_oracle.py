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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_s_hat(self, bad):
        # a NaN passes every comparison and an Inf overflows the symmetry test
        s_hat = np.eye(4)
        s_hat[1, 2] = s_hat[2, 1] = bad
        with pytest.raises(ValueError, match="s_hat has non-finite entries"):
            DenseProblem(Dims([2, 2]), s_hat, np.zeros(2))

    @pytest.mark.parametrize("scale", [1e200, 1e308, 1.000001e6])
    def test_rejects_s_hat_beyond_the_solver_range(self, scale):
        # 1e200 I was accepted and overflowed dense_solver; 1e308 I overflowed
        # the symmetry test
        with pytest.raises(ValueError, match=r"or entries beyond 1e\+06"):
            DenseProblem(Dims([2, 2]), scale * np.eye(4), np.zeros(2))

    def test_solves_at_the_s_hat_bound(self):
        omega, converged = dense_solver(DenseProblem(Dims([2, 2]), 1e6 * np.eye(4), np.zeros(2)))
        assert converged
        np.testing.assert_allclose(omega, 1e-6 * np.eye(4), rtol=1e-6)

    @pytest.mark.parametrize("rho", [[np.nan, 0.1], [0.1, -1.0], [np.inf, 0.1], [np.nan, -1.0]])
    def test_rejects_bad_rho(self, rho):
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            DenseProblem(Dims([2, 2]), np.eye(4), rho)

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

    def test_converges_in_few_iterations(self, monkeypatch):
        # BB steps with backtracking; the fixed 0.5 * lambda_min^2 step needed
        # thousands of iterations on these problems.  Each accepted iterate
        # runs one KKT test: 1,600 in all, and the ceiling allows 2 % more
        iterates = record_calls(monkeypatch, "_dense_kkt")
        problems = list(criterion4_problems())
        problems += [small_problem(rb)[2] for rb in (0.0, 0.1)]
        for prob in problems:
            omega, converged = dense_solver(prob, max_iter=500)
            assert converged
            assert np.linalg.eigvalsh(omega).min() > 0
        assert len(iterates) <= 1632

    def test_capped_solve_is_not_converged(self):
        prob = small_problem(0.1)[2]
        omega, converged = dense_solver(prob, max_iter=2)
        assert not converged
        assert np.linalg.eigvalsh(omega).min() > 0

    @pytest.mark.parametrize("d", [[5], [1, 3], [3, 3, 4], [6, 6], [2, 2, 2, 2]])
    def test_kkt_diagonal_is_dense_diagonal(self, d):
        # the KKT test reads the gradient's diagonal from its factors, bit for
        # bit the diagonal of its dense Kronecker sum
        dims = Dims(d)
        rng = np.random.default_rng(len(d))
        A = rng.standard_normal((dims.p, dims.p))
        grad = proj_ksum_dense(A + A.T, dims)
        assert np.array_equal(teralasso.oracle._kron_sum_diag(grad), np.diag(kron_sum_dense(grad)))

    def test_kkt_reads_iterate_factors(self, monkeypatch):
        # the residual on the iterate's own factors is the one read from the
        # projection of its dense matrix, bit for bit
        iterates = record_calls(monkeypatch, "_dense_kkt")
        problems = list(criterion4_problems())
        for prob in problems:
            dense_solver(prob)
        kkt = teralasso.oracle._dense_kkt.__wrapped__
        for (f, prob, grad), value in iterates:
            assert value == kkt(proj_ksum_dense(kron_sum_dense(f), f.dims), prob, grad)
        assert len(iterates) > len(problems)

    @pytest.mark.parametrize("max_iter", [2, 5])
    def test_large_s_hat_keeps_omega_pd(self, max_iter):
        # built past DenseProblem's 1e6 bound, where the optimum is 1e-9 I and the
        # absolute tol is out of reach: every accepted iterate still passed the PD test
        prob = object.__new__(DenseProblem)
        for name, value in (("dims", Dims([2, 2])), ("s_hat", 1e9 * np.eye(4)),
                            ("rho", np.full(2, 0.1))):
            object.__setattr__(prob, name, value)
        omega, converged = dense_solver(prob, max_iter=max_iter)
        assert not converged
        assert np.linalg.eigvalsh(omega).min() > 0


class TestCholeskyStep:
    """The line search's PD test and log-det: one Cholesky factor per candidate."""

    @staticmethod
    def candidate(psi):
        # zero gradient and penalty: the candidate's factors are ``psi``
        dims = Dims([len(m) for m in psi])
        f = FactorSet._trusted(dims, psi)
        zero = FactorSet._trusted(dims, [np.zeros_like(m) for m in psi])
        prob = DenseProblem(dims, np.eye(dims.p), np.zeros(dims.K))
        _, omega, logdet = teralasso.oracle._prox_step(f, zero, 0.5, prob)
        return omega, logdet, prob

    def test_rejects_even_number_of_negative_eigenvalues(self):
        # eigenvalues (-1.5, -1.5, 2.5, 2.5): det > 0, yet not PD
        omega, logdet, prob = self.candidate([np.diag([-2.0, 2.0]), 0.5 * np.eye(2)])
        assert np.linalg.det(omega) > 0
        assert np.isnan(logdet)
        # a NaN smooth objective fails the line search's model test
        assert np.isnan(teralasso.oracle._dense_smooth(omega, logdet, prob))

    def test_rejects_nan_candidate(self):
        omega, logdet, prob = self.candidate([np.diag([np.nan, 2.0]), np.eye(2)])
        assert np.isnan(logdet)
        # a NaN smooth objective fails the line search's model test
        assert np.isnan(teralasso.oracle._dense_smooth(omega, logdet, prob))

    def test_logdet_matches_eigenvalues(self, monkeypatch):
        candidates = record_calls(monkeypatch, "_prox_step")
        for prob in criterion4_problems():
            dense_solver(prob)
        checked = 0
        for _, (_, omega, logdet) in candidates:
            if np.isnan(logdet):
                continue
            ref = np.log(np.linalg.eigvalsh(omega)).sum()
            assert abs(logdet - ref) <= 1e-12 * abs(ref)
            checked += 1
        assert checked > 100


def record_calls(monkeypatch, name):
    """Wrap ``teralasso.oracle.<name>`` so each call appends (args, result)
    to the returned list; the original stays reachable as ``__wrapped__``."""
    calls = []
    original = getattr(teralasso.oracle, name)

    @functools.wraps(original)
    def wrapper(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(teralasso.oracle, name, wrapper)
    return calls


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

    @pytest.mark.parametrize("seed, match", [(1.7, "not an integer"), (True, "not an integer"),
                                             (2**64, "signed 64-bit")])
    def test_rejects_non_seeds(self, seed, match):
        # the battery's seed follows the integer rule of every seed, checked before any draw
        from teralasso.selfcheck import run_selfcheck

        with pytest.raises(ValueError, match=match):
            run_selfcheck(seed=seed)

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
