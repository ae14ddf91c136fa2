"""Each benchmark check passes a correct output and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import teralasso as tl  # noqa: E402
import teralasso.oracle  # noqa: E402,F401
from teralasso.data import er_factor  # noqa: E402

DIMS = (5, 6, 4)
RHO_BAR = 0.5
N = 20


@pytest.fixture(scope="module")
def fitted():
    dims = tl.Dims(DIMS)
    truth = tl.FactorSet(dims, [er_factor(d, d // 2, 31 + k) for k, d in enumerate(DIMS)])
    data = tl.sample_ksum_gaussian(truth, N, 7)
    est, report = tl.solve(tl.gram_factors(data), config=tl.SolverConfig(rho_bar=RHO_BAR))
    assert report.termination != "max-iter"
    return truth, data, est


def _perturbed(psi, k, i, j, delta):
    out = [m.copy() for m in psi]
    out[k][i, j] += delta
    if i != j:
        out[k][j, i] += delta
    return out


def test_mode_grams_match_explicit_sum(fitted):
    _, data, _ = fitted
    p = math.prod(DIMS)
    grams = checks.mode_grams(data.values, DIMS)
    for k, d in enumerate(DIMS):
        ref = np.zeros((d, d))
        for x in data.values:
            xk = np.moveaxis(x.reshape(DIMS), k, 0).reshape(d, p // d)
            ref += xk @ xk.T
        assert np.allclose(grams[k], ref / (N * (p // d)), atol=1e-13)


def test_optimality_accepts_the_solution(fitted):
    _, data, est = fitted
    grams = checks.mode_grams(data.values, DIMS)
    assert checks.optimality(est.psi, grams, checks.rho_for(RHO_BAR, DIMS, N)) == []


@pytest.mark.parametrize("k,i,j", [(0, 0, 1), (1, 2, 2), (2, 0, 3)])
def test_optimality_rejects_a_perturbed_factor(fitted, k, i, j):
    _, data, est = fitted
    grams = checks.mode_grams(data.values, DIMS)
    bad = _perturbed(est.psi, k, i, j, 1e-3)
    assert checks.optimality(bad, grams, checks.rho_for(RHO_BAR, DIMS, N))


def test_optimality_rejects_the_wrong_penalty(fitted):
    _, data, est = fitted
    grams = checks.mode_grams(data.values, DIMS)
    assert checks.optimality(est.psi, grams, checks.rho_for(2 * RHO_BAR, DIMS, N))


def test_optimality_rejects_an_indefinite_sum(fitted):
    _, data, est = fitted
    grams = checks.mode_grams(data.values, DIMS)
    bad = [m - 10.0 * np.eye(m.shape[0]) for m in est.psi]
    assert "positive definite" in checks.optimality(bad, grams, checks.rho_for(RHO_BAR, DIMS, N))[0]


def test_mcc_matches_the_program_and_drops_on_a_flipped_edge(fitted):
    truth, _, est = fitted
    counts = checks.confusion(truth.psi, est.psi)
    lib = tl.mcc(tl.edge_support(truth), tl.edge_support(est))
    assert checks.mcc_of(counts) == pytest.approx(lib, abs=1e-12)
    assert checks.mcc_of(checks.confusion(truth.psi, truth.psi)) == 1.0
    i, j = np.argwhere(np.triu(truth.psi[0] != 0, 1))[0]
    flipped = _perturbed(truth.psi, 0, i, j, -truth.psi[0][i, j])
    assert checks.mcc_of(checks.confusion(truth.psi, flipped)) < 1.0


def test_ktns_parse_checks_header_and_size(tmp_path, fitted):
    _, data, _ = fitted
    path = tmp_path / "samples.ktns"
    tl.write_ktns(path, data)
    values, problems = checks.read_ktns(path, DIMS, N)
    assert problems == [] and np.array_equal(values, data.values)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    assert checks.read_ktns(path, DIMS, N)[1]
    head, _, payload = raw.partition(b"\n")
    header = json.loads(head)
    header["n"] = N - 1
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    assert checks.read_ktns(path, DIMS, N)[1]
    assert checks.read_ktns(tmp_path / "samples.ktns", DIMS, N - 1)[1]


def test_support_property():
    assert checks.support_property([{"n": "1", "mcc": "0.3"}, {"n": "100", "mcc": "0.9"}]) == []
    assert checks.support_property([{"n": "1", "mcc": "0.3"}, {"n": "100", "mcc": "0.79"}])
    assert checks.support_property([{"n": "1", "mcc": "0.95"}, {"n": "100", "mcc": "0.9"}])
    assert checks.support_property([{"n": "100", "mcc": "0.9"}])


def test_dense_objective_matches_oracle_and_rejects_a_perturbed_factor():
    dims = tl.Dims([3, 4])
    truth = tl.FactorSet(dims, [er_factor(3, 1, 5), er_factor(4, 2, 6)])
    data = tl.sample_ksum_gaussian(truth, 50, 3)
    s_hat = data.values.T @ data.values / data.n
    rho = checks.rho_for(RHO_BAR, dims.d, data.n)
    problem = tl.oracle.DenseProblem(dims, s_hat, rho)
    omega_ref, converged = tl.oracle.dense_solver(problem, tol=1e-8)
    assert converged
    ref = checks.dense_objective(omega_ref, s_hat, dims.d, rho)
    assert ref == pytest.approx(tl.oracle.dense_objective(omega_ref, problem), abs=1e-9)
    est, _ = tl.solve(tl.gram_factors(data), config=tl.SolverConfig(rho_bar=RHO_BAR))
    fast = checks.dense_objective(checks.kron_sum(est.psi), s_hat, dims.d, rho)
    assert abs(fast - ref) <= 1e-6
    bad = checks.kron_sum(_perturbed(est.psi, 1, 0, 1, 1e-2))
    assert checks.dense_objective(bad, s_hat, dims.d, rho) - ref > 1e-6
    assert np.allclose(checks.kron_sum(est.psi), tl.kron_sum_dense(est))
