import math

import numpy as np
import pytest

from teralasso import metrics
from teralasso.data import sample_ksum_gaussian
from teralasso.ksum import Dims, FactorSet, kron_sum_dense
from teralasso.metrics import (
    EdgeSupport,
    ExperimentSpec,
    edge_support,
    effective_sample_size,
    estimation_errors,
    make_truth,
    mcc,
    precision_recall,
    run_rate_experiment,
    run_support_experiment,
    tuning_sweep,
    write_table,
)
from teralasso.solver import solve


def support(dims, *edge_sets):
    """Edge masks with the given (i, j), i < j, pairs set, one set per factor."""
    masks = []
    for dk, pairs in zip(dims.d, edge_sets):
        mask = np.zeros((dk, dk), dtype=bool)
        for i, j in pairs:
            mask[i, j] = True
        masks.append(mask)
    return EdgeSupport(dims, tuple(masks))


def pairs(mask):
    return {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))}


DIMS3 = Dims([4, 4])


class TestEdgeSupport:
    def test_extraction(self):
        f = FactorSet(
            Dims([3, 2]),
            [
                np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                np.array([[1.0, -0.2], [-0.2, 1.0]]),
            ],
        )
        s = edge_support(f)
        assert pairs(s.edges[0]) == {(0, 1)}
        assert pairs(s.edges[1]) == {(0, 1)}

    def test_threshold(self):
        f = FactorSet(
            Dims([2, 2]),
            [np.array([[1.0, 1e-12], [1e-12, 1.0]]), np.eye(2)],
        )
        assert pairs(edge_support(f).edges[0]) == set()
        assert pairs(edge_support(f, eps=1e-13).edges[0]) == {(0, 1)}

    def test_default_threshold_boundary(self):
        # an edge is |psi_ij| > 1e-8, strictly, in either sign
        above = np.nextafter(1e-8, 1.0)
        psi = np.eye(3)
        psi[0, 1] = psi[1, 0] = 1e-8
        psi[0, 2] = psi[2, 0] = -above
        psi[1, 2] = psi[2, 1] = -1e-8
        f = FactorSet(Dims([3, 2]), [psi, np.eye(2)])
        assert pairs(edge_support(f).edges[0]) == {(0, 2)}


class TestMcc:
    def test_perfect(self):
        t = support(DIMS3, {(0, 1), (2, 3)}, {(1, 2)})
        assert mcc(t, t) == pytest.approx(1.0)

    def test_inverted(self):
        dims = Dims([3, 3])
        universe = {(0, 1), (0, 2), (1, 2)}
        t = support(dims, {(0, 1)}, {(1, 2)})
        e = support(dims, universe - {(0, 1)}, universe - {(1, 2)})
        assert mcc(t, e) == pytest.approx(-1.0)

    def test_worked_confusion(self):
        # tp=1, fp=1, fn=1, tn=9 over 2 factors of 4 nodes (12 pairs)
        t = support(DIMS3, {(0, 1), (2, 3)}, set())
        e = support(DIMS3, {(0, 1), (0, 2)}, set())
        expected = (1 * 9 - 1 * 1) / math.sqrt(2 * 2 * 10 * 10)
        assert mcc(t, e) == pytest.approx(expected)

    def test_degenerate_zero(self):
        t = support(DIMS3, set(), set())
        e = support(DIMS3, set(), set())
        assert mcc(t, e) == 0.0

    def test_symmetric_under_class_swap(self):
        # MCC is invariant to complementing both supports
        dims = Dims([4, 4])
        universe = {(i, j) for i in range(4) for j in range(i + 1, 4)}
        t_sets = ({(0, 1), (1, 2)}, {(2, 3)})
        e_sets = ({(0, 1)}, {(2, 3), (0, 3)})
        t, e = support(dims, *t_sets), support(dims, *e_sets)
        tc = support(dims, *(universe - s for s in t_sets))
        ec = support(dims, *(universe - s for s in e_sets))
        assert mcc(t, e) == pytest.approx(mcc(tc, ec))

    def test_dims_mismatch(self):
        with pytest.raises(ValueError):
            mcc(support(Dims([3, 3]), set(), set()), support(DIMS3, set(), set()))

    def test_counts_match_pair_set_reference(self):
        # the masks give the confusion counts of sets of (i < j) index pairs
        rng = np.random.default_rng(4)

        def sparse_factors(dims):
            psi = []
            for d in dims.d:
                M = rng.standard_normal((d, d)) * (rng.random((d, d)) < 0.4)
                psi.append(M + M.T)
            return FactorSet(dims, psi)

        for _ in range(30):
            dims = Dims(rng.integers(1, 8, size=rng.integers(1, 4)))
            truth, est = sparse_factors(dims), sparse_factors(dims)
            ref = [0, 0, 0, 0]
            for a, b in zip(truth.psi, est.psi):
                d = a.shape[0]
                every = {(i, j) for i in range(d) for j in range(i + 1, d)}
                t = {ij for ij in every if abs(a[ij]) > metrics.SUPPORT_EPS}
                e = {ij for ij in every if abs(b[ij]) > metrics.SUPPORT_EPS}
                for i, n in enumerate((len(t & e), len(every - t - e), len(e - t), len(t - e))):
                    ref[i] += n
            got = metrics._confusion(edge_support(truth), edge_support(est))
            assert got == tuple(ref)


class TestPrecisionRecall:
    def test_basic(self):
        t = support(DIMS3, {(0, 1), (2, 3)}, {(1, 2)})
        e = support(DIMS3, {(0, 1), (0, 2)}, {(1, 2)})
        prec, rec = precision_recall(t, e)
        assert prec == pytest.approx(2 / 3)
        assert rec == pytest.approx(2 / 3)

    def test_empty_selection_precision_one(self):
        t = support(DIMS3, {(0, 1)}, set())
        e = support(DIMS3, set(), set())
        prec, rec = precision_recall(t, e)
        assert prec == 1.0
        assert rec == 0.0


class TestEstimationErrors:
    def test_zero_for_equal(self):
        f = FactorSet(Dims([3, 3]), [np.eye(3), 2 * np.eye(3)])
        errs = estimation_errors(f, f)
        assert errs["frob_full"] == pytest.approx(0.0, abs=1e-12)
        assert errs["frob_rel"] == pytest.approx(0.0, abs=1e-12)
        assert errs["spectral"] == pytest.approx(0.0, abs=1e-12)

    def test_trace_shift_invariant(self):
        rng = np.random.default_rng(0)
        dims = Dims([3, 3])
        psi = [0.5 * (M + M.T) + 2 * np.eye(3) for M in rng.standard_normal((2, 3, 3))]
        truth = FactorSet(dims, psi)
        est = FactorSet(dims, [psi[0] + 0.7 * np.eye(3), psi[1] + 0.1 * np.eye(3)])
        shifted = FactorSet(
            dims, [est.psi[0] + 1.3 * np.eye(3), est.psi[1] - 1.3 * np.eye(3)]
        )
        a, b = estimation_errors(truth, est), estimation_errors(truth, shifted)
        for key in ("frob_full", "frob_rel", "spectral", "diag_err", "tau_err"):
            assert a[key] == pytest.approx(b[key], abs=1e-9)

    def test_frobenius_matches_dense(self):
        rng = np.random.default_rng(1)
        dims = Dims([3, 4])
        mk = lambda: [
            0.5 * (M + M.T) for M in (rng.standard_normal((d, d)) for d in dims.d)
        ]
        truth, est = FactorSet(dims, mk()), FactorSet(dims, mk())
        errs = estimation_errors(truth, est)
        dense = np.linalg.norm(kron_sum_dense(est) - kron_sum_dense(truth))
        assert errs["frob_full"] == pytest.approx(dense, abs=1e-9)
        dense_spec = np.linalg.norm(kron_sum_dense(est) - kron_sum_dense(truth), 2)
        assert errs["spectral"] == pytest.approx(dense_spec, abs=1e-9)


    def test_diagonal_and_trace_errors_match_dense(self):
        rng = np.random.default_rng(2)
        dims = Dims([1, 3, 4])
        mk = lambda: [
            0.5 * (M + M.T) for M in (rng.standard_normal((d, d)) for d in dims.d)
        ]
        truth, est = FactorSet(dims, mk()), FactorSet(dims, mk())
        errs = estimation_errors(truth, est)
        dense = kron_sum_dense(est) - kron_sum_dense(truth)
        assert errs["diag_err"] == pytest.approx(np.linalg.norm(np.diag(dense)), abs=1e-9)
        assert errs["tau_err"] == pytest.approx(abs(np.trace(dense)) / dims.p, abs=1e-12)


class TestEffectiveSampleSize:
    def test_formula(self):
        dims = Dims([4, 8])
        assert effective_sample_size(dims, 10) == pytest.approx(
            10 * 4 / math.log(32)
        )

    def test_grows_with_n(self):
        dims = Dims([5, 5])
        assert effective_sample_size(dims, 20) == pytest.approx(
            2 * effective_sample_size(dims, 10)
        )

    @pytest.mark.parametrize("d", [[1], [1, 1]])
    def test_rejects_p_one(self, d):
        with pytest.raises(ValueError, match="needs p > 1"):
            effective_sample_size(Dims(d), 1)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(model="nope", dims=Dims([4, 4]))
        with pytest.raises(ValueError):
            ExperimentSpec(model="er", dims=Dims([4, 4]), trials=0)
        for cap in (0, -3):
            with pytest.raises(ValueError, match="max_iter"):
                ExperimentSpec(model="er", dims=Dims([4, 4]), max_iter=cap)
        for edges in ((3,), (3, 3, 3)):  # one count per factor, never truncated
            with pytest.raises(ValueError, match="edges"):
                ExperimentSpec(model="er", dims=Dims([4, 4]), edges=edges)
        # trial seeds are taken mod 2**31, so seeds 2**31 apart would draw the same data
        for seed in (-1, 2**31, -(2**70)):
            with pytest.raises(ValueError, match=r"outside \[0, 2\*\*31\)|signed 64-bit"):
                ExperimentSpec(model="er", dims=Dims([4, 4]), seed=seed)
        for seed in (1.7, True, "3"):
            with pytest.raises(ValueError, match="not an integer"):
                ExperimentSpec(model="er", dims=Dims([4, 4]), seed=seed)
        assert ExperimentSpec(model="er", dims=Dims([4, 4]), seed=2**31 - 1).seed == 2**31 - 1

    def test_empty_lists_rejected_by_name(self):
        # a sweep with no n, no rho_bar or no ratio has no cells to run
        for name in ("n_list", "rho_grid", "rho_ratios"):
            with pytest.raises(ValueError, match=f"{name} must not be empty"):
                ExperimentSpec(model="er", dims=Dims([4, 4]), **{name: ()})

    def test_cells_built_once_from_its_ratios(self):
        # a ratio scales the rho_bar of every factor after the first, in (rho_bar, ratio) order
        spec = ExperimentSpec(model="er", dims=Dims([3, 3, 3]), n_list=(2, 5),
                              rho_grid=(0.1, 0.3), rho_ratios=(0.5, 2.0), max_iter=7)
        assert [(rb, r, c.rho_bar, c.max_iter) for rb, r, c in spec.cells] == [
            (rb, r, (rb, rb * r, rb * r), 7) for rb in (0.1, 0.3) for r in (0.5, 2.0)]
        assert ExperimentSpec(model="er", dims=Dims([3, 3])).rho_ratios == (1.0,)
        # every cell's penalties, at every n: 1e308 * m_k overflows in resolve_rho
        for ratios in ((1.0, -2.0), (math.nan,), (1e308,)):
            with pytest.raises(ValueError, match="rho"):
                ExperimentSpec(model="er", dims=Dims([30, 30]), n_list=(1, 1000),
                               rho_grid=(1.0,), rho_ratios=ratios)

    def test_make_truth_models(self):
        dims = Dims([9, 9])
        for model in ("er", "grid", "ar1"):
            spec = ExperimentSpec(model=model, dims=dims, edges=(4, 4))
            f = make_truth(spec, 3)
            assert f.dims.d == (9, 9)
            for psi in f.psi:
                assert np.linalg.eigvalsh(psi).min() > 0

    def test_make_truth_deterministic(self):
        spec = ExperimentSpec(model="er", dims=Dims([8, 8]), edges=(5, 5))
        a, b = make_truth(spec, 7), make_truth(spec, 7)
        for x, y in zip(a.psi, b.psi):
            np.testing.assert_array_equal(x, y)


class TestExperiments:
    def test_support_experiment_smoke(self):
        spec = ExperimentSpec(
            model="er",
            dims=Dims([8, 8]),
            edges=(4, 4),
            n_list=(50,),
            rho_grid=(0.1, 0.3),
            trials=2,
            seed=0,
            max_iter=200,
        )
        rows = run_support_experiment(spec)
        assert len(rows) == 1
        assert set(rows[0]) == {"p", "K", "n", "rho_bar", "precision", "recall", "mcc"}
        assert -1.0 <= rows[0]["mcc"] <= 1.0

    @pytest.mark.parametrize("rho_grid", [(1e3, 1e4), (1e4, 1e3)])
    def test_support_keeps_the_first_of_tied_cells(self, rho_grid):
        # both penalties leave every estimate diagonal, so the cells tie on MCC
        spec = ExperimentSpec(model="er", dims=Dims([3, 3]), edges=(2, 2), n_list=(5,),
                              rho_grid=rho_grid, trials=1, seed=3, max_iter=20)
        (row,) = run_support_experiment(spec)
        assert row["mcc"] == 0.0 and row["rho_bar"] == rho_grid[0]

    def test_each_trial_draws_data_once(self, monkeypatch):
        # one sample per (n, trial), shared by every solve of the rho grid
        spec = ExperimentSpec(
            model="er",
            dims=Dims([6, 6]),
            edges=(3, 3),
            n_list=(10, 20),
            rho_grid=(0.1, 0.3, 0.5),
            trials=3,
            seed=1,
            max_iter=50,
        )

        def counted(fn, calls):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)

            return wrapper

        for sweep in (run_rate_experiment, run_support_experiment, tuning_sweep):
            samples, solves = [], []
            with monkeypatch.context() as m:
                m.setattr(metrics, "sample_ksum_gaussian", counted(sample_ksum_gaussian, samples))
                m.setattr(metrics, "solve", counted(solve, solves))
                sweep(spec)
            assert len(samples) == len(spec.n_list) * spec.trials
            assert len(solves) == len(spec.n_list) * len(spec.rho_grid) * spec.trials

    def test_kinds_share_one_grid(self):
        # the support and rate rows are projections of the tuning sweep's cells
        spec = ExperimentSpec(
            model="er",
            dims=Dims([6, 6]),
            edges=(3, 3),
            n_list=(15,),
            rho_grid=(0.05, 0.2, 0.8),
            trials=2,
            seed=4,
            max_iter=100,
        )
        cells = tuning_sweep(spec)
        best = max(cells, key=lambda row: row["mcc"])
        (support,) = run_support_experiment(spec)
        assert {k: support[k] for k in ("n", "rho_bar", "mcc")} == {
            k: best[k] for k in ("n", "rho_bar", "mcc")
        }
        (rate,) = run_rate_experiment(spec)
        assert rate["mean_frob_rel"] == min(row["frob_rel"] for row in cells)

    def test_tuning_sweep_shape(self):
        spec = ExperimentSpec(
            model="ar1",
            dims=Dims([6, 6]),
            n_list=(10,),
            rho_grid=(0.1,),
            rho_ratios=(0.5, 1.0, 2.0),
            trials=2,
            seed=2,
            max_iter=100,
        )
        rows = tuning_sweep(spec)
        assert len(rows) == 3
        assert [r["ratio"] for r in rows] == [0.5, 1.0, 2.0]


class TestWriteTable:
    def test_round_trip_exact_floats(self, tmp_path):
        # a numpy float, as a rho grid from np.logspace holds, is written as a float
        rows = [{"n": 4, "x": 0.1 + 0.2}, {"n": 8, "x": 1.0 / 3.0}, {"n": 2, "x": np.float64(0.7)}]
        path = tmp_path / "t.csv"
        write_table(rows, path)
        import csv

        with open(path) as fh:
            back = list(csv.DictReader(fh))
        assert float(back[0]["x"]) == 0.1 + 0.2
        assert float(back[1]["x"]) == 1.0 / 3.0
        assert back[2]["x"] == "0.7"

    def test_byte_identical_rewrites(self, tmp_path):
        rows = [{"a": 1, "b": math.pi}]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_table(rows, p1)
        write_table(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()
