import tracemalloc

import numpy as np
import pytest

from teralasso.data import (
    DataTensorSet,
    ar1_factor,
    center_gram,
    er_factor,
    gram_factors,
    grid_factor,
    matricize,
    read_ktns,
    sample_ksum_gaussian,
    tensorize,
    write_ktns,
)
from teralasso.ksum import (
    Dims,
    FactorSet,
    NotPositiveDefiniteError,
    kron_sum_dense,
    ksum_eigensystem,
    proj_ksum_dense,
)


def random_pd_factors(dims, seed):
    rng = np.random.default_rng(seed)
    factors = []
    for dk in dims.d:
        m = rng.standard_normal((dk, dk))
        factors.append(m @ m.T / dk + 0.5 * np.eye(dk))
    return FactorSet(dims, factors)


class TestDataTensorSet:
    @pytest.mark.parametrize(
        "shape, needle",
        [((3, 5), r"values must be \(n, 4\)"), ((4,), "values must be"),
         ((1, 2, 2), "values must be"), ((0, 4), "at least one replicate")],
        ids=["wrong-p", "one-dim", "three-dim", "no-replicate"],
    )
    def test_rejects(self, shape, needle):
        with pytest.raises(ValueError, match=needle):
            DataTensorSet(Dims([2, 2]), np.zeros(shape))


class TestMatricize:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        dims = Dims([2, 3, 4])
        x = rng.standard_normal(dims.p)
        for k in range(dims.K):
            np.testing.assert_array_equal(
                tensorize(matricize(x, dims, k), dims, k), x
            )

    def test_batch_round_trip(self):
        # leading axes are replicates: each row unfolds as it would alone
        rng = np.random.default_rng(9)
        dims = Dims([2, 3, 4])
        x = rng.standard_normal((5, dims.p))
        for k in range(dims.K):
            mat = matricize(x, dims, k)
            assert mat.shape == (5, dims.d[k], dims.m(k))
            for i in range(5):
                np.testing.assert_array_equal(mat[i], matricize(x[i], dims, k))
            np.testing.assert_array_equal(tensorize(mat, dims, k), x)

    def test_mode0_rows(self):
        # mode-1 index is slowest in the flat layout, so mode-0 rows are
        # contiguous chunks
        dims = Dims([2, 3])
        x = np.arange(6.0)
        np.testing.assert_array_equal(matricize(x, dims, 0), [[0, 1, 2], [3, 4, 5]])
        np.testing.assert_array_equal(
            matricize(x, dims, 1), [[0, 3], [1, 4], [2, 5]]
        )

    def test_bad_mode(self):
        with pytest.raises(IndexError):
            matricize(np.zeros(6), Dims([2, 3]), 2)
        with pytest.raises(IndexError):
            tensorize(np.zeros((3, 2)), Dims([2, 3]), -1)

    def test_multiplication_matches_kron(self):
        # mode-k multiplication implements (I (x) M (x) I) on the flat vector
        rng = np.random.default_rng(1)
        dims = Dims([3, 4])
        x = rng.standard_normal(dims.p)
        M = rng.standard_normal((4, 4))
        got = tensorize(M @ matricize(x, dims, 1), dims, 1)
        np.testing.assert_allclose(got, np.kron(np.eye(3), M) @ x, atol=1e-12)


class TestGramFactors:
    def test_single_tensor_identity_layout(self):
        dims = Dims([2, 2])
        x = np.array([1.0, 0.0, 0.0, 0.0])
        g = gram_factors(DataTensorSet(dims, x[None, :]))
        np.testing.assert_allclose(g.s[0], [[0.5, 0.0], [0.0, 0.0]])
        np.testing.assert_allclose(g.s[1], [[0.5, 0.0], [0.0, 0.0]])
        # tr(S_k)/d_k is the trace mean tr(S_hat)/p = 1/4 for every k
        for k in range(dims.K):
            assert np.trace(g.s[k]) / dims.d[k] == pytest.approx(0.25)

    def test_traces_agree_across_modes(self):
        rng = np.random.default_rng(2)
        dims = Dims([3, 4, 2])
        data = DataTensorSet(dims, rng.standard_normal((5, dims.p)))
        g = gram_factors(data)
        trace_mean = float(np.sum(data.values**2)) / (data.n * dims.p)  # tr(S_hat)/p
        for k in range(dims.K):
            assert dims.m(k) * np.trace(g.s[k]) == pytest.approx(
                dims.p * trace_mean, abs=1e-10
            )

    def test_block_average_of_dense_gram(self):
        rng = np.random.default_rng(3)
        dims = Dims([3, 4])
        data = DataTensorSet(dims, rng.standard_normal((4, dims.p)))
        g = gram_factors(data)
        s_hat = data.values.T @ data.values / data.n
        # S_k equals the average of the mode-k diagonal subblocks of S_hat
        T = s_hat.reshape(dims.d + dims.d)
        s0 = np.einsum("ajbj->ab", T) / dims.m(0)
        s1 = np.einsum("iaib->ab", T) / dims.m(1)
        np.testing.assert_allclose(g.s[0], s0, atol=1e-12)
        np.testing.assert_allclose(g.s[1], s1, atol=1e-12)

    def test_gram_inner_product_identity(self):
        rng = np.random.default_rng(4)
        dims = Dims([2, 3, 2])
        data = DataTensorSet(dims, rng.standard_normal((3, dims.p)))
        g = gram_factors(data)
        f = FactorSet(
            dims,
            [0.5 * (M + M.T) for M in (rng.standard_normal((d, d)) for d in dims.d)],
        )
        s_hat = data.values.T @ data.values / data.n
        lhs = float(np.sum(s_hat * kron_sum_dense(f)))
        rhs = sum(dims.m(k) * float(np.sum(g.s[k] * f.psi[k])) for k in range(dims.K))
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @staticmethod
    def per_replicate_reference(data):
        """One unfolding and one product per replicate and mode."""
        dims = data.dims
        s = []
        for k in range(dims.K):
            acc = np.zeros((dims.d[k], dims.d[k]))
            for i in range(data.n):
                Xk = matricize(data.values[i], dims, k)
                acc += Xk @ Xk.T
            acc /= data.n * dims.m(k)
            s.append(0.5 * (acc + acc.T))
        return s, float(np.sum(data.values**2)) / (data.n * dims.p)

    @pytest.mark.parametrize(
        "d, n",
        [([2, 3], 20000), ([1], 7), ([1, 5], 7), ([3, 3, 4], 7), ([20, 20, 20, 20], 3)],
    )
    def test_matches_per_replicate_reference(self, d, n):
        # blocks of replicates give the bits of one product per replicate,
        # across block edges (10922 replicates per block on [2,3])
        data = sample_ksum_gaussian(random_pd_factors(Dims(d), seed=n), n, seed=4)
        g = gram_factors(data)
        s, trace_mean = self.per_replicate_reference(data)
        assert all(np.array_equal(a, b) for a, b in zip(g.s, s))
        # the field that equalled trace_mean bit for bit is gone; tr(S_k)/d_k
        # sums in another order, so it agrees to rounding
        for k in range(data.dims.K):
            assert np.trace(g.s[k]) / data.dims.d[k] == pytest.approx(trace_mean, rel=1e-14)

    def test_center_gram_is_projection(self):
        rng = np.random.default_rng(5)
        dims = Dims([3, 3])
        data = DataTensorSet(dims, rng.standard_normal((4, dims.p)))
        g = gram_factors(data)
        s_hat = data.values.T @ data.values / data.n
        ref = proj_ksum_dense(s_hat, dims)
        got = center_gram(g)
        np.testing.assert_allclose(
            kron_sum_dense(got), kron_sum_dense(ref), atol=1e-10
        )


class TestSampler:
    def test_deterministic(self):
        dims = Dims([2, 3])
        f = FactorSet(dims, [np.eye(2), np.eye(3)])
        a = sample_ksum_gaussian(f, 5, seed=7)
        b = sample_ksum_gaussian(f, 5, seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_seed_changes_draw(self):
        dims = Dims([2, 3])
        f = FactorSet(dims, [np.eye(2), np.eye(3)])
        a = sample_ksum_gaussian(f, 5, seed=7)
        b = sample_ksum_gaussian(f, 5, seed=8)
        assert np.abs(a.values - b.values).max() > 1e-6

    def test_replicate_prefix_stable(self):
        # replicate i is identical whether n=3 or n=10 replicates are drawn
        dims = Dims([2, 2])
        f = FactorSet(dims, [np.eye(2), np.eye(2)])
        small = sample_ksum_gaussian(f, 3, seed=1)
        big = sample_ksum_gaussian(f, 10, seed=1)
        np.testing.assert_array_equal(big.values[:3], small.values)

    def test_covariance_moments(self):
        rng = np.random.default_rng(6)
        dims = Dims([2, 3])
        M1, M2 = rng.standard_normal((2, 2)), rng.standard_normal((3, 3))
        f = FactorSet(
            dims, [M1 @ M1.T / 2 + 0.5 * np.eye(2), M2 @ M2.T / 3 + 0.5 * np.eye(3)]
        )
        data = sample_ksum_gaussian(f, 20000, seed=0)
        emp = data.values.T @ data.values / data.n
        cov = np.linalg.inv(kron_sum_dense(f))
        assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.1

    def test_rejects_indefinite(self):
        f = FactorSet(Dims([2, 2]), [np.diag([-2.0, 1.0]), np.eye(2)])
        with pytest.raises(NotPositiveDefiniteError):
            sample_ksum_gaussian(f, 1, seed=0)

    @pytest.mark.parametrize(
        "n, seed, match",
        [(-2, 0, "n must be"), (0, 0, "n must be"), (1, 2**64, "seed 18446744073709551616"),
         (1, 2**63, "seed"), (1, -(2**63) - 1, "seed")],
    )
    def test_rejects_bad_count_and_seed(self, n, seed, match):
        f = FactorSet(Dims([2, 2]), [np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match=match):
            sample_ksum_gaussian(f, n, seed)

    @staticmethod
    def per_replicate_reference(f, n, seed):
        """One Philox and K unfold-multiply-fold round trips per replicate."""
        spec = ksum_eigensystem(f)
        dims = f.dims
        grid = spec.eigvals[0]
        for lam in spec.eigvals[1:]:
            grid = np.add.outer(grid, lam)
        scale = 1.0 / np.sqrt(grid.reshape(-1))
        out = np.empty((n, dims.p))
        for i in range(n):
            rng = np.random.Generator(np.random.Philox(key=[seed, i]))
            x = rng.standard_normal(dims.p) * scale
            for k in range(dims.K):
                x = tensorize(spec.eigvecs[k] @ matricize(x, dims, k), dims, k)
            out[i] = x
        return out

    @pytest.mark.parametrize(
        "d, n, seed",
        [([2, 3], 20000, 0), ([2, 3], 10923, 5), ([1], 7, 3), ([6], 7, 3), ([1, 5], 7, 3),
         ([3, 3, 4], 7, 3), ([4, 5, 6], 7, 3), ([20, 20, 20, 20], 3, 3), ([3, 3, 4], 50, -1)],
    )
    def test_matches_per_replicate_reference(self, d, n, seed):
        # blocks of replicates give the bits of one replicate at a time,
        # across block edges (n = 20000 and 10923 at 10922 per block on [2,3])
        f = random_pd_factors(Dims(d), seed=len(d) + n)
        got = sample_ksum_gaussian(f, n, seed).values
        assert np.array_equal(got, self.per_replicate_reference(f, n, seed))

    def test_peak_memory_bounded(self):
        # scratch stays a small share of the output, which sets the CLI's peak RSS
        f = random_pd_factors(Dims([20, 20, 20, 20]), seed=8)
        tracemalloc.start()
        try:
            data = sample_ksum_gaussian(f, 8, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * data.values.nbytes


def pair_list_edge_factor(d, pairs, q, seed, tag):
    """The edge draw as a Python pair list and index pool: the reference for
    the array draw, which must make the same generator calls."""
    rng = np.random.Generator(np.random.Philox(key=[int(seed), tag]))
    pool = list(range(len(pairs)))
    for t in range(q):
        j = t + int(rng.integers(len(pool) - t))
        pool[t], pool[j] = pool[j], pool[t]
    psi = 0.25 * np.eye(d)
    for i, j in [pairs[pool[t]] for t in range(q)]:
        a = float(rng.uniform(0.2, 0.4))
        psi[i, j] -= a
        psi[j, i] -= a
        psi[i, i] += a
        psi[j, j] += a
    return psi


def grid_pairs(side):
    pairs = []
    for r in range(side):
        for c in range(side):
            u = r * side + c
            if c + 1 < side:
                pairs.append((u, u + 1))
            if r + 1 < side:
                pairs.append((u, u + side))
    return pairs


class TestGenerators:
    @pytest.mark.parametrize("d", [1, 2, 5, 32, 100])
    @pytest.mark.parametrize("seed", [0, 7, -3, 2**62])
    def test_matches_pair_list_reference(self, d, seed):
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        for q in sorted({0, 1, d, len(pairs)}):
            if q <= len(pairs):
                ref = pair_list_edge_factor(d, pairs, q, seed, 0x45520000)
                assert np.array_equal(er_factor(d, q, seed), ref), q
        side = int(round(d**0.5))
        if side * side == d:
            pairs = grid_pairs(side)
            for q in sorted({0, 1, d, len(pairs)}):
                if q <= len(pairs):
                    ref = pair_list_edge_factor(d, pairs, q, seed, 0x47524944)
                    assert np.array_equal(grid_factor(d, q, seed), ref), q

    def test_er_peak_memory_bounded(self):
        # the d(d-1)/2 candidate pairs are one integer array, not Python tuples
        tracemalloc.start()
        try:
            psi = er_factor(1000, 1000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * psi.nbytes

    @pytest.mark.parametrize("gen", [er_factor, grid_factor])
    def test_rejects_seed_out_of_range(self, gen):
        with pytest.raises(ValueError, match=f"seed {2**63}"):
            gen(4, 1, 2**63)

    def test_er_shape_and_pd(self):
        psi = er_factor(10, 8, seed=3)
        assert psi.shape == (10, 10)
        np.testing.assert_allclose(psi, psi.T)
        assert np.linalg.eigvalsh(psi).min() >= 0.25 - 1e-10

    def test_er_edge_count_and_weights(self):
        psi = er_factor(12, 7, seed=5)
        off = psi[~np.eye(12, dtype=bool)]
        nz = off[off != 0]
        assert len(nz) == 2 * 7
        assert np.all((-nz >= 0.2) & (-nz <= 0.4))
        # each edge weight lands on both diagonals on top of the 0.25 base
        assert np.trace(psi) == pytest.approx(12 * 0.25 - off.sum(), abs=1e-9)

    def test_er_deterministic(self):
        np.testing.assert_array_equal(er_factor(8, 5, seed=11), er_factor(8, 5, seed=11))
        assert np.abs(er_factor(8, 5, seed=11) - er_factor(8, 5, seed=12)).max() > 0

    def test_er_too_many_edges(self):
        with pytest.raises(ValueError):
            er_factor(4, 7, seed=0)

    @pytest.mark.parametrize("gen", [er_factor, grid_factor])
    def test_rejects_negative_edge_count(self, gen):
        # a negative q once took all but |q| of the candidate pairs
        with pytest.raises(ValueError, match="q_edges=-1"):
            gen(4, -1, 0)

    def test_grid_adjacency(self):
        d = 16
        psi = grid_factor(d, 24, seed=2)  # all edges of the 4x4 grid
        side = 4
        for i in range(d):
            for j in range(i + 1, d):
                ri, ci = divmod(i, side)
                rj, cj = divmod(j, side)
                adjacent = abs(ri - rj) + abs(ci - cj) == 1
                if not adjacent:
                    assert psi[i, j] == 0.0

    def test_grid_requires_square(self):
        with pytest.raises(ValueError):
            grid_factor(6, 3, seed=0)

    def test_grid_pd(self):
        psi = grid_factor(9, 10, seed=4)
        assert np.linalg.eigvalsh(psi).min() >= 0.25 - 1e-10

    def test_ar1_small_cases(self):
        c = 0.5
        denom = 1 - c * c
        np.testing.assert_allclose(
            ar1_factor(2, c), np.array([[1, -c], [-c, 1]]) / denom
        )
        np.testing.assert_allclose(
            ar1_factor(3, c),
            np.array([[1, -c, 0], [-c, 1 + c * c, -c], [0, -c, 1]]) / denom,
        )

    def test_ar1_inverts_autocovariance(self):
        # stationary AR(1) with unit marginal variance: cov[i, j] = c^|i-j|
        c, d = 0.7, 6
        idx = np.arange(d)
        cov = c ** np.abs(idx[:, None] - idx[None, :])
        np.testing.assert_allclose(ar1_factor(d, c), np.linalg.inv(cov), atol=1e-10)

    def test_ar1_bad_coeff(self):
        with pytest.raises(ValueError):
            ar1_factor(4, 1.0)


class TestKtnsFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        dims = Dims([2, 3])
        data = DataTensorSet(dims, rng.standard_normal((4, dims.p)))
        path = tmp_path / "x.ktns"
        write_ktns(path, data)
        back = read_ktns(path)
        assert back.dims.d == dims.d
        np.testing.assert_array_equal(back.values, data.values)

    def test_header_is_json_line(self, tmp_path):
        import json

        data = DataTensorSet(Dims([2, 2]), np.zeros((1, 4)))
        path = tmp_path / "x.ktns"
        write_ktns(path, data)
        with open(path, "rb") as fh:
            header = json.loads(fh.readline().decode())
        assert header == {
            "dims": [2, 2],
            "n": 1,
            "dtype": "f64",
            "order": "mode1-slowest",
        }

    def test_truncated_payload(self, tmp_path):
        data = DataTensorSet(Dims([2, 2]), np.zeros((2, 4)))
        path = tmp_path / "x.ktns"
        write_ktns(path, data)
        raw = path.read_bytes()
        for bad in (raw[:-8], raw + bytes(8)):  # short and over-long payloads
            path.write_bytes(bad)
            with pytest.raises(ValueError, match="truncated"):
                read_ktns(path)

    @pytest.mark.parametrize(
        "header, match",
        [
            (b"[2, 2]", "JSON object"),
            (b'{"n": 1, "dtype": "f64", "order": "mode1-slowest"}', "'dims'"),
            (b'{"dims": [2, 2], "dtype": "f64", "order": "mode1-slowest"}', "'n'"),
            (b'{"dims": [2, 2], "n": 0, "dtype": "f64", "order": "mode1-slowest"}', "n must"),
            (b'{"dims": [2, 2], "n": "1", "dtype": "f64", "order": "mode1-slowest"}', "n must"),
            (b'{"dims": 4, "n": 1, "dtype": "f64", "order": "mode1-slowest"}', "dimensions"),
        ],
        ids=["not-object", "no-dims", "no-n", "n-zero", "n-string", "dims-scalar"],
    )
    def test_malformed_header(self, tmp_path, header, match):
        # rejected by name, as FactorSet.from_json rejects a malformed factor file
        path = tmp_path / "x.ktns"
        path.write_bytes(header + b"\n" + bytes(32))
        with pytest.raises(ValueError, match=match):
            read_ktns(path)

    def test_io_copies_no_payload(self, tmp_path):
        # the writer sends the array's own buffer; the reader fills one array
        data = DataTensorSet(Dims([50, 40]), np.ones((100, 2000)))
        path = tmp_path / "x.ktns"
        peaks = []
        for step in (lambda: write_ktns(path, data), lambda: read_ktns(path)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.1 * data.values.nbytes
        assert peaks[1] < 1.5 * data.values.nbytes

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.ktns"
        path.write_bytes(b'{"dims": [2], "n": 1, "dtype": "f32", "order": "mode1-slowest"}\n')
        with pytest.raises(ValueError, match="unsupported"):
            read_ktns(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload(self, tmp_path, bad):
        values = np.zeros((2, 4))
        values[1, 2] = bad
        path = tmp_path / "x.ktns"
        write_ktns(path, DataTensorSet(Dims([2, 2]), values))
        with pytest.raises(ValueError, match="non-finite"):
            read_ktns(path)

    def test_byte_identical_rewrite(self, tmp_path):
        rng = np.random.default_rng(8)
        data = DataTensorSet(Dims([3, 2]), rng.standard_normal((3, 6)))
        p1, p2 = tmp_path / "a.ktns", tmp_path / "b.ktns"
        write_ktns(p1, data)
        write_ktns(p2, read_ktns(p1))
        assert p1.read_bytes() == p2.read_bytes()
