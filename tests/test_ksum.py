import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teralasso.ksum
from teralasso.ksum import (
    DenseLimitError,
    Dims,
    FactorSet,
    NotPositiveDefiniteError,
    SpectrumSet,
    eigsum_absmax,
    eigsum_grid,
    kron_sum_dense,
    ksum_eigensystem,
    ksum_frobenius,
    ksum_inner,
    ksum_logdet,
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
        # p = 4,225 is past the limit; the check runs before any allocation
        f = FactorSet.identity(Dims([65, 65]))
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
        assert eigsum_absmax(s.eigvals) == pytest.approx(2.0)

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

    @pytest.mark.parametrize(
        "psi, needle",
        [
            ([np.eye(2)], "expected 2 factors"),
            ([np.eye(2)] * 3, "expected 2 factors"),
            ([np.eye(2), np.eye(3)], r"factor 1 has shape \(3, 3\)"),
            ([np.eye(2), np.ones((2, 3))], "factor 1 must be square"),
            ([np.ones(4), np.eye(2)], "factor 0 must be square"),
            ([np.eye(2), np.diag([1.0, np.nan])], "factor 1 has non-finite entries"),
            # rejected before M - M.T, which warns on an Inf
            ([np.diag([np.inf, 1.0]), np.eye(2)], "factor 0 has non-finite entries"),
            ([np.array([[1.0, -np.inf], [-np.inf, 1.0]]), np.eye(2)], "factor 0 has non-finite"),
        ],
        ids=["too-few", "too-many", "wrong-shape", "non-square", "one-dim", "nan-entry",
             "inf-entry", "inf-offdiag"],
    )
    def test_factor_set_rejects(self, psi, needle):
        with pytest.raises(ValueError, match=needle):
            FactorSet(Dims([2, 2]), psi)


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

    def test_nan_spectrum_is_not_pd(self):
        # NaN fails every comparison, so the PD test must ask min_sum > 0
        vals, vecs = (np.array([np.nan, 1.0]), np.ones(1)), (np.eye(2), np.eye(1))
        s = SpectrumSet(Dims([2, 1]), vals, vecs)
        with pytest.raises(NotPositiveDefiniteError, match="nan"):
            ksum_logdet(s)
        with pytest.raises(NotPositiveDefiniteError):
            proj_inverse_spectrum(s)


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

    @pytest.mark.parametrize("shape", [(5, 5), (6, 5), (36,)])
    def test_shape_check(self, shape):
        with pytest.raises(ValueError, match=r"expected 6x6 matrix"):
            proj_ksum_dense(np.ones(shape), Dims([2, 3]))


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

    @pytest.mark.parametrize("c", [-2.0, 0.7, 13.5])
    def test_trace_shift_invariance(self, c):
        rng = np.random.default_rng(8)
        dims = Dims([3, 4])
        f = random_factors(dims, rng, pd=True)
        shifted = FactorSet(
            dims, [f.psi[0] + c * np.eye(3), f.psi[1] - c * np.eye(4)]
        )
        np.testing.assert_allclose(
            kron_sum_dense(f), kron_sum_dense(shifted), atol=1e-10
        )
        assert ksum_frobenius(f) == pytest.approx(ksum_frobenius(shifted), abs=1e-10)
        # both PD for small c only; logdet check with safe shift
        if abs(c) < 1:
            assert ksum_logdet(ksum_eigensystem(f)) == pytest.approx(
                ksum_logdet(ksum_eigensystem(shifted)), abs=1e-10
            )


class TestSpectralNorm:
    def test_diagonal(self):
        f = FactorSet(Dims([2, 2]), [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        assert eigsum_absmax(ksum_eigensystem(f).eigvals) == pytest.approx(6.0)

    def test_negative_side(self):
        f = FactorSet(Dims([2, 2]), [np.diag([-5.0, 1.0]), np.diag([1.0, 2.0])])
        assert eigsum_absmax(ksum_eigensystem(f).eigvals) == pytest.approx(4.0)

    def test_random_vs_dense(self):
        rng = np.random.default_rng(12)
        f = random_factors(Dims([4, 6]), rng)
        assert eigsum_absmax(ksum_eigensystem(f).eigvals) == pytest.approx(
            np.linalg.norm(kron_sum_dense(f), 2), abs=1e-9
        )

    def test_frobenius_geometry_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            dims = Dims([3, 4])
            f = random_factors(dims, rng)
            s2 = eigsum_absmax(ksum_eigensystem(f).eigvals)
            bound = np.sqrt((dims.K + 1) / min(dims.ms)) * ksum_frobenius(f)
            assert s2 <= bound + 1e-10


class TestOffdiagL1:
    def test_diagonal_factors(self):
        f = FactorSet(Dims([2, 2]), [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        assert offdiag_l1(f, [1.0, 7.0]) == 0.0

    def test_random_diagonal_factors_cost_exactly_zero(self):
        # subtracting the diagonal's sum from the whole sum left rounding
        # noise of about 1e-15 on a third of these
        rng = np.random.default_rng(15)
        for _ in range(30):
            f = FactorSet(Dims([10]), [np.diag(rng.uniform(0.1, 10.0, size=10))])
            assert offdiag_l1(f, [1.0]) == 0.0

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

    @pytest.mark.parametrize("rho", [[1.0], [1.0, 1.0, 1.0], 1.0])
    def test_rho_length(self, rho):
        f = FactorSet(Dims([2, 2]), [np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="length 2"):
            offdiag_l1(f, rho)


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


def whole_grid_projection(s):
    """The factors of proj_inverse_spectrum(s) from the whole grid's 1/lambda."""
    inv = 1.0 / eigsum_grid(s.eigvals)
    K = s.dims.K
    shift = (K - 1) / K * float(inv.sum()) / s.dims.p
    factors = []
    for k in range(K):
        g = inv.sum(axis=tuple(b for b in range(K) if b != k)) / s.dims.m(k) - shift
        G = (s.eigvecs[k] * g) @ s.eigvecs[k].T
        factors.append(0.5 * (G + G.T))
    return factors


@st.composite
def factor_sets(draw, pd=False):
    dims = draw(small_dims)
    seed = draw(st.integers(0, 2**32 - 1))
    return random_factors(dims, np.random.default_rng(seed), pd=pd)


class TestGridClosedForms:
    """The grid-free shortcuts equal the grid computations, and a spectrum
    makes one pass over the grid for every computation that needs it."""

    @settings(max_examples=150, deadline=None)
    @given(factor_sets())
    def test_absmax_of_diagonal_grid(self, f):
        diags = [np.diag(m) for m in f.psi]
        assert eigsum_absmax(diags) == float(np.abs(eigsum_grid(diags)).max())

    @pytest.mark.parametrize("slab", [2**16, 64, 7, 1])
    @settings(max_examples=150, deadline=None)
    @given(factor_sets(pd=True))
    def test_spectrum_makes_one_pass(self, slab, f):
        # log-det and projection share one pass over the grid, which builds one
        # grid: the whole one if it fits in a slab, else the head modes' only
        s = ksum_eigensystem(f)
        sizes = []

        def sized_grid(vals):
            out = eigsum_grid(vals)
            sizes.append(out.size)
            return out

        dims = f.dims
        with mock.patch.object(teralasso.ksum, "_SLAB", slab), mock.patch.object(
            teralasso.ksum, "eigsum_grid", sized_grid
        ):
            logdet = ksum_logdet(s)
            proj = proj_inverse_spectrum(s)
            assert ksum_logdet(s) == logdet
            proj_inverse_spectrum(s)
        assert len(sizes) == 1
        if dims.p > slab and dims.K > 1:
            assert sizes[0] * dims.d[-1] <= dims.p
        assert s.min_sum == float(eigsum_grid(s.eigvals).min())
        if dims.p <= slab:
            # a grid of one slab gives the whole-grid expressions' bits
            assert logdet == float(np.sum(np.log(eigsum_grid(s.eigvals))))
            for a, b in zip(proj.psi, whole_grid_projection(s)):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("slab", [2**16, 2, 1])
    def test_pd_check_covers_every_sum(self, slab):
        # the pass adds eigenvalues in the grid's order, so min_sum, which the
        # PD check tests, is the least value that log and 1/x read; added in
        # another order, 1 + (-1 + 1e-17) would be 0.  One check serves both
        # readers of the pass.
        f = FactorSet(Dims([2, 1, 1]), [np.diag([1.0, 2.0]), -np.eye(1), 1e-17 * np.eye(1)])
        s = ksum_eigensystem(f)
        check = mock.Mock(wraps=teralasso.ksum._check_pd)
        with mock.patch.object(teralasso.ksum, "_SLAB", slab), mock.patch.object(
            teralasso.ksum, "_check_pd", check
        ), np.errstate(all="raise"):
            assert ksum_logdet(s) == np.log(1e-17)
            g = proj_inverse_spectrum(s)
        assert all(np.isfinite(m).all() for m in g.psi)
        check.assert_called_once_with(s)

    @pytest.mark.parametrize(
        "d", [[1, 1000, 1000], [2, 700, 700], [100, 100, 100], [1000, 1000, 1]]
    )
    def test_pass_holds_no_grid(self, d):
        # whatever the shape, the pass holds slab-sized buffers and sub-grids
        # only: under half of one p-float grid
        dims = Dims(d)
        rng = np.random.default_rng(5)
        vals = tuple(rng.uniform(0.5, 2.0, dk) for dk in d)
        s = teralasso.ksum.SpectrumSet(dims, vals, tuple(np.eye(dk) for dk in d))
        tracemalloc.start()
        try:
            s.grid_sums
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * dims.p / 2

    @pytest.mark.parametrize("slab", [1, 3, 7])
    @settings(max_examples=60, deadline=None)
    @given(factor_sets(pd=True))
    def test_slab_pass_matches_grid(self, slab, f):
        # slabs far smaller than the grid: several of them, the last ragged
        s = ksum_eigensystem(f)
        with mock.patch.object(teralasso.ksum, "_SLAB", slab):
            logdet, marginals, total = s.grid_sums
        logs = np.log(eigsum_grid(s.eigvals))
        inv = 1.0 / eigsum_grid(s.eigvals)
        K = f.dims.K
        assert abs(logdet - logs.sum()) <= 1e-12 * np.abs(logs).sum()
        assert total == pytest.approx(inv.sum(), rel=1e-12)
        assert len(marginals) == K
        for k in range(K):
            ref = inv.sum(axis=tuple(a for a in range(K) if a != k))
            np.testing.assert_allclose(marginals[k], ref, rtol=1e-12)


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
