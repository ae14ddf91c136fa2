import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teralasso.ksum import (
    DenseLimitError,
    Dims,
    FactorSet,
    NotPositiveDefiniteError,
    eigsum_absmax,
    eigsum_grid,
    identifiable_decompose,
    kron_sum_dense,
    ksum_eigensystem,
    ksum_frobenius,
    ksum_inner,
    ksum_logdet,
    ksum_spectral_norm,
    offdiag_l1,
    proj_inverse_spectrum,
    proj_ksum_dense,
)


def random_factors(dims, rng, pd=False):
    psi = []
    for dk in dims.d:
        M = rng.standard_normal((dk, dk))
        M = 0.5 * (M + M.T)
        if pd:
            M = M @ M.T / dk + 0.5 * np.eye(dk)
        psi.append(M)
    return FactorSet(dims, psi)


class TestDims:
    def test_products(self):
        dims = Dims([2, 3, 4])
        assert dims.p == 24
        assert dims.ms == (12, 8, 6)
        assert all(dims.m(k) * dims.d[k] == dims.p for k in range(3))

    def test_invalid(self):
        with pytest.raises(ValueError):
            Dims([])
        with pytest.raises(ValueError):
            Dims([2, 0])


class TestKronSumDense:
    def test_scalar_factors(self):
        f = FactorSet(Dims([1, 1]), [np.array([[2.0]]), np.array([[3.0]])])
        assert kron_sum_dense(f) == pytest.approx(np.array([[5.0]]))

    def test_identity_factors(self):
        f = FactorSet(Dims([2, 3]), [np.eye(2), np.eye(3)])
        np.testing.assert_allclose(kron_sum_dense(f), 2 * np.eye(6))

    def test_diagonal_factors(self):
        f = FactorSet(Dims([2, 2]), [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        np.testing.assert_allclose(kron_sum_dense(f), np.diag([4.0, 5.0, 5.0, 6.0]))

    def test_dense_limit(self):
        f = FactorSet(Dims([3, 3]), [np.eye(3), np.eye(3)])
        with pytest.raises(DenseLimitError):
            kron_sum_dense(f, limit=4)

    def test_dense_limit_env_var(self, monkeypatch):
        monkeypatch.setenv("TERALASSO_DENSE_LIMIT", "4")
        f = FactorSet(Dims([3, 3]), [np.eye(3), np.eye(3)])
        with pytest.raises(DenseLimitError):
            kron_sum_dense(f)

    def test_mode1_slowest(self):
        # entry (i1, i2) of the sum sits at flat index i1*d2 + i2
        A = np.diag([10.0, 20.0])
        B = np.diag([1.0, 2.0, 3.0])
        D = kron_sum_dense(FactorSet(Dims([2, 3]), [A, B]))
        np.testing.assert_allclose(np.diag(D), [11, 12, 13, 21, 22, 23])


class TestEigensystem:
    def test_diagonal_factors(self):
        f = FactorSet(Dims([2, 2]), [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        s = ksum_eigensystem(f)
        sums = sorted(a + b for a in s.eigvals[0] for b in s.eigvals[1])
        assert sums == pytest.approx([4, 5, 5, 6])

    def test_identity(self):
        f = FactorSet(Dims([3, 4]), [np.eye(3), np.eye(4)])
        s = ksum_eigensystem(f)
        assert s.min_sum == pytest.approx(2.0)
        assert s.max_sum == pytest.approx(2.0)

    def test_additivity_vs_dense(self):
        rng = np.random.default_rng(0)
        f = random_factors(Dims([3, 4]), rng)
        s = ksum_eigensystem(f)
        sums = np.sort(np.add.outer(s.eigvals[0], s.eigvals[1]).ravel())
        dense = np.sort(np.linalg.eigvalsh(kron_sum_dense(f)))
        np.testing.assert_allclose(sums, dense, atol=1e-9)

    def test_orthonormal_bases(self):
        rng = np.random.default_rng(1)
        f = random_factors(Dims([4, 5]), rng)
        s = ksum_eigensystem(f)
        for U, psi, w in zip(s.eigvecs, f.psi, s.eigvals):
            np.testing.assert_allclose(U.T @ U, np.eye(U.shape[0]), atol=1e-10)
            np.testing.assert_allclose((U * w) @ U.T, psi, atol=1e-10)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            FactorSet(Dims([2, 2]), [np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])


class TestLogdet:
    def test_identity(self):
        f = FactorSet(Dims([2, 2]), [np.eye(2), np.eye(2)])
        assert ksum_logdet(ksum_eigensystem(f)) == pytest.approx(4 * np.log(2))

    def test_diagonal(self):
        f = FactorSet(Dims([2, 2]), [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        expected = np.log(4) + 2 * np.log(5) + np.log(6)
        assert ksum_logdet(ksum_eigensystem(f)) == pytest.approx(expected)

    def test_vs_dense_cholesky(self):
        rng = np.random.default_rng(2)
        f = random_factors(Dims([4, 6]), rng, pd=True)
        L = np.linalg.cholesky(kron_sum_dense(f))
        expected = 2 * np.sum(np.log(np.diag(L)))
        assert ksum_logdet(ksum_eigensystem(f)) == pytest.approx(expected, abs=1e-9)

    def test_not_pd(self):
        f = FactorSet(Dims([2, 2]), [np.diag([1.0, -3.0]), np.diag([1.0, 2.0])])
        with pytest.raises(NotPositiveDefiniteError) as exc:
            ksum_logdet(ksum_eigensystem(f))
        assert exc.value.min_sum == pytest.approx(-2.0)


class TestProjection:
    def test_idempotent_on_subspace(self):
        rng = np.random.default_rng(3)
        f = random_factors(Dims([3, 4]), rng)
        A = kron_sum_dense(f)
        back = kron_sum_dense(proj_ksum_dense(A, f.dims))
        np.testing.assert_allclose(back, A, atol=1e-10)

    def test_identity_input(self):
        dims = Dims([2, 3])
        f = proj_ksum_dense(np.eye(6), dims)
        for psi, dk in zip(f.psi, dims.d):
            np.testing.assert_allclose(psi, 0.5 * np.eye(dk), atol=1e-12)

    def test_all_ones_vs_basis_lstsq(self):
        from teralasso.oracle import basis_projection

        dims = Dims([2, 2])
        A = np.ones((4, 4))
        fast = kron_sum_dense(proj_ksum_dense(A, dims))
        ref = kron_sum_dense(basis_projection(A, dims))
        np.testing.assert_allclose(fast, ref, atol=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        dims = Dims([2, 3, 2])
        A = rng.standard_normal((12, 12))
        B = rng.standard_normal((12, 12))
        A, B = 0.5 * (A + A.T), 0.5 * (B + B.T)
        lhs = kron_sum_dense(proj_ksum_dense(2.0 * A - 3.0 * B, dims))
        rhs = 2.0 * kron_sum_dense(proj_ksum_dense(A, dims)) - 3.0 * kron_sum_dense(
            proj_ksum_dense(B, dims)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_optimality(self):
        # projection beats any other subspace element, residual is orthogonal
        rng = np.random.default_rng(5)
        dims = Dims([3, 3])
        A = rng.standard_normal((9, 9))
        A = 0.5 * (A + A.T)
        P = kron_sum_dense(proj_ksum_dense(A, dims))
        for _ in range(10):
            C = kron_sum_dense(random_factors(dims, rng))
            assert np.linalg.norm(A - P) <= np.linalg.norm(A - C) + 1e-10
            assert abs(np.sum((A - P) * C)) <= 1e-8 * np.linalg.norm(A) * np.linalg.norm(C)

    def test_psd_preserved(self):
        rng = np.random.default_rng(6)
        dims = Dims([3, 4])
        M = rng.standard_normal((12, 12))
        A = M @ M.T
        w = np.linalg.eigvalsh(kron_sum_dense(proj_ksum_dense(A, dims)))
        assert w.min() >= -1e-8 * np.linalg.norm(A, 2)


class TestProjInverseSpectrum:
    def test_scaled_identity(self):
        f = FactorSet(Dims([2, 2]), [np.eye(2), np.eye(2)])
        g = proj_inverse_spectrum(ksum_eigensystem(f))
        for psi in g.psi:
            np.testing.assert_allclose(psi, 0.25 * np.eye(2), atol=1e-12)

    def test_diagonal_vs_dense(self):
        dims = Dims([2, 2])
        f = FactorSet(dims, [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        g = proj_inverse_spectrum(ksum_eigensystem(f))
        ref = proj_ksum_dense(np.linalg.inv(kron_sum_dense(f)), dims)
        for a, b in zip(g.psi, ref.psi):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_random_vs_dense(self):
        rng = np.random.default_rng(7)
        dims = Dims([6, 6])
        f = random_factors(dims, rng, pd=True)
        g = proj_inverse_spectrum(ksum_eigensystem(f))
        ref = proj_ksum_dense(np.linalg.inv(kron_sum_dense(f)), dims)
        for a, b in zip(g.psi, ref.psi):
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_not_pd(self):
        f = FactorSet(Dims([2, 2]), [np.diag([-1.0, 1.0]), np.diag([0.5, 1.0])])
        with pytest.raises(NotPositiveDefiniteError):
            proj_inverse_spectrum(ksum_eigensystem(f))


class TestIdentifiableForm:
    def test_identity_factors(self):
        f = FactorSet(Dims([2, 2]), [np.eye(2), np.eye(2)])
        form = identifiable_decompose(f)
        assert form.tau == pytest.approx(2.0)
        for t in form.tilde:
            np.testing.assert_allclose(t, 0, atol=1e-12)

    def test_trace_arithmetic(self):
        f = FactorSet(Dims([2, 2]), [np.diag([1.0, -1.0]), np.diag([2.0, 0.0])])
        form = identifiable_decompose(f)
        assert form.tau == pytest.approx(1.0)
        np.testing.assert_allclose(form.tilde[0], np.diag([1.0, -1.0]), atol=1e-12)
        np.testing.assert_allclose(form.tilde[1], np.diag([1.0, -1.0]), atol=1e-12)

    @pytest.mark.parametrize("c", [-2.0, 0.7, 13.5])
    def test_trace_shift_invariance(self, c):
        rng = np.random.default_rng(8)
        dims = Dims([3, 4])
        f = random_factors(dims, rng, pd=True)
        shifted = FactorSet(
            dims, [f.psi[0] + c * np.eye(3), f.psi[1] - c * np.eye(4)]
        )
        a, b = identifiable_decompose(f), identifiable_decompose(shifted)
        assert a.tau == pytest.approx(b.tau, abs=1e-10)
        for x, y in zip(a.tilde, b.tilde):
            np.testing.assert_allclose(x, y, atol=1e-10)
        np.testing.assert_allclose(
            kron_sum_dense(f), kron_sum_dense(shifted), atol=1e-10
        )
        assert ksum_frobenius(f) == pytest.approx(ksum_frobenius(shifted), abs=1e-10)
        # both PD for small c only; logdet check with safe shift
        if abs(c) < 1:
            assert ksum_logdet(ksum_eigensystem(f)) == pytest.approx(
                ksum_logdet(ksum_eigensystem(shifted)), abs=1e-10
            )

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        f = random_factors(Dims([3, 3]), rng)
        back = identifiable_decompose(f).to_factors()
        np.testing.assert_allclose(
            kron_sum_dense(back), kron_sum_dense(f), atol=1e-12
        )


class TestInnerProductsAndNorms:
    def test_identity_inner(self):
        f = FactorSet(Dims([2, 2]), [np.eye(2), np.eye(2)])
        assert ksum_inner(f, f) == pytest.approx(16.0)
        assert ksum_frobenius(f) == pytest.approx(4.0)

    def test_cross_mode_orthogonality(self):
        dims = Dims([2, 2])
        t1 = np.diag([1.0, -1.0])
        a = FactorSet(dims, [t1, np.zeros((2, 2))])
        b = FactorSet(dims, [np.zeros((2, 2)), t1])
        assert ksum_inner(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_random_vs_dense_trace(self):
        rng = np.random.default_rng(10)
        dims = Dims([4, 6])
        a = random_factors(dims, rng)
        b = random_factors(dims, rng)
        dense = float(np.sum(kron_sum_dense(a) * kron_sum_dense(b)))
        assert ksum_inner(a, b) == pytest.approx(dense, abs=1e-9 * max(abs(dense), 1))

    def test_zero_factors(self):
        f = FactorSet(Dims([2, 3]), [np.zeros((2, 2)), np.zeros((3, 3))])
        assert ksum_frobenius(f) == 0.0

    def test_frobenius_vs_dense(self):
        rng = np.random.default_rng(11)
        f = random_factors(Dims([6, 6]), rng)
        assert ksum_frobenius(f) == pytest.approx(
            np.linalg.norm(kron_sum_dense(f)), abs=1e-9
        )

    def test_dims_mismatch(self):
        a = FactorSet(Dims([2, 2]), [np.eye(2), np.eye(2)])
        b = FactorSet(Dims([2, 3]), [np.eye(2), np.eye(3)])
        with pytest.raises(ValueError):
            ksum_inner(a, b)


class TestSpectralNorm:
    def test_diagonal(self):
        f = FactorSet(Dims([2, 2]), [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        assert ksum_spectral_norm(ksum_eigensystem(f)) == pytest.approx(6.0)

    def test_negative_side(self):
        f = FactorSet(Dims([2, 2]), [np.diag([-5.0, 1.0]), np.diag([1.0, 2.0])])
        assert ksum_spectral_norm(ksum_eigensystem(f)) == pytest.approx(4.0)

    def test_random_vs_dense(self):
        rng = np.random.default_rng(12)
        f = random_factors(Dims([4, 6]), rng)
        assert ksum_spectral_norm(ksum_eigensystem(f)) == pytest.approx(
            np.linalg.norm(kron_sum_dense(f), 2), abs=1e-9
        )

    def test_frobenius_geometry_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            dims = Dims([3, 4])
            f = random_factors(dims, rng)
            s2 = ksum_spectral_norm(ksum_eigensystem(f))
            bound = np.sqrt((dims.K + 1) / min(dims.ms)) * ksum_frobenius(f)
            assert s2 <= bound + 1e-10


class TestOffdiagL1:
    def test_diagonal_factors(self):
        f = FactorSet(Dims([2, 2]), [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        assert offdiag_l1(f, [1.0, 7.0]) == 0.0

    def test_single_offdiag(self):
        f = FactorSet(
            Dims([2, 2]), [np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2))]
        )
        assert offdiag_l1(f, [1.0, 1.0]) == pytest.approx(4.0)

    def test_equal_rho_vs_dense(self):
        # off-diagonal supports of the embedded factors are disjoint
        rng = np.random.default_rng(14)
        f = random_factors(Dims([3, 4]), rng)
        D = kron_sum_dense(f)
        dense = np.abs(D).sum() - np.abs(np.diag(D)).sum()
        assert offdiag_l1(f, [0.7, 0.7]) == pytest.approx(0.7 * dense, abs=1e-9)

    def test_negative_rho(self):
        f = FactorSet(Dims([2, 2]), [np.eye(2), np.eye(2)])
        with pytest.raises(ValueError):
            offdiag_l1(f, [-1.0, 1.0])


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(15)
        f = random_factors(Dims([3, 2]), rng)
        back = FactorSet.from_json(f.to_json())
        assert back.dims.d == f.dims.d
        for a, b in zip(back.psi, f.psi):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "blob, needle",
        [
            ({"factors": [[1.0], [1.0]]}, "needs the keys"),
            ({"dims": [1, 1]}, "needs the keys"),
            ({"dims": [2, 2], "factors": [[1, 0, 0, 1]] * 3}, "needs 2 factors"),
            ({"dims": [2, 2], "factors": [[1, 0, 0, 1]]}, "needs 2 factors"),
            ({"dims": [2, 2], "factors": [[1, 0, 0, 1], [1, 0, 0]]}, "factor 1 has 3 entries"),
            ({"dims": [2], "factors": [[1, 0, 0, 1, 0]]}, "factor 0 has 5 entries"),
            ({"dims": [2], "factors": [[1, float("nan"), float("nan"), 1]]}, "non-finite"),
            ({"dims": [1, 1], "factors": [[1.0], [float("inf")]]}, "non-finite"),
            ([1, 2], "needs the keys"),
        ],
        ids=["no-dims", "no-factors", "extra-factor", "missing-factor", "short-factor",
             "long-factor", "nan", "inf", "not-object"],
    )
    def test_from_json_rejects(self, blob, needle):
        with pytest.raises(ValueError, match=needle):
            FactorSet.from_json(json.dumps(blob))


# Random small Kronecker-sum problems, including K = 1 and d_k = 1.
small_dims = st.lists(st.integers(1, 4), min_size=1, max_size=4).map(Dims)


@st.composite
def factor_sets(draw, pd=False):
    dims = draw(small_dims)
    seed = draw(st.integers(0, 2**32 - 1))
    return random_factors(dims, np.random.default_rng(seed), pd=pd)


class TestGridClosedForms:
    """The solver's grid-free shortcuts equal the grid computations exactly."""

    @settings(max_examples=150, deadline=None)
    @given(factor_sets())
    def test_absmax_of_diagonal_grid(self, f):
        diags = [np.diag(m) for m in f.psi]
        assert eigsum_absmax(diags) == float(np.abs(eigsum_grid(diags)).max())

    @settings(max_examples=150, deadline=None)
    @given(factor_sets(pd=True))
    def test_logdet_with_prebuilt_grid(self, f):
        s = ksum_eigensystem(f)
        grid = eigsum_grid(s.eigvals)
        assert s.min_sum == float(grid.min())
        assert ksum_logdet(s, grid) == ksum_logdet(s)
        a, b = proj_inverse_spectrum(s, grid), proj_inverse_spectrum(s)
        for x, y in zip(a.psi, b.psi):
            np.testing.assert_array_equal(x, y)

    @settings(max_examples=150, deadline=None)
    @given(factor_sets())
    def test_identifiable_decompose_subtracts_tau(self, f):
        form = identifiable_decompose(f)
        for psi, tilde, dk in zip(f.psi, form.tilde, f.dims.d):
            tau = np.trace(psi) / dk
            np.testing.assert_array_equal(tilde, psi - tau * np.eye(dk))


@st.composite
def factor_pairs(draw):
    dims = draw(small_dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_factors(dims, rng), random_factors(dims, rng)


class TestDenseProperties:
    """Factor-level algebra against the materialized Kronecker sum."""

    @settings(max_examples=150, deadline=None)
    @given(factor_pairs())
    def test_inner_matches_dense(self, pair):
        a, b = pair
        dense = np.sum(kron_sum_dense(a) * kron_sum_dense(b))
        assert ksum_inner(a, b) == pytest.approx(dense, rel=1e-10, abs=1e-10)

    @settings(max_examples=150, deadline=None)
    @given(factor_sets())
    def test_projection_idempotent_on_kronecker_sums(self, f):
        A = kron_sum_dense(f)
        once = kron_sum_dense(proj_ksum_dense(A, f.dims))
        twice = kron_sum_dense(proj_ksum_dense(once, f.dims))
        np.testing.assert_allclose(once, A, atol=1e-12)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(factor_sets(pd=True))
    def test_logdet_matches_dense_eigenvalues(self, f):
        dense = float(np.log(np.linalg.eigvalsh(kron_sum_dense(f))).sum())
        assert ksum_logdet(ksum_eigensystem(f)) == pytest.approx(dense, rel=1e-10, abs=1e-10)
