"""The benchmark's tracer still fits the program's API.

Untraced benchmark runs never install ``perfbench/tracer.py``, so a renamed
function or parameter could break ``perfbench/run.py --trace 1`` unnoticed.
This runs one solve and one tiny sweep under the tracer and checks that the
per-layer metrics it derives from them are live.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np

import teralasso
import teralasso.cli
import teralasso.oracle
import teralasso.selfcheck
from teralasso import Dims, FactorSet, SolverConfig, ar1_factor, gram_factors, sample_ksum_gaussian

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402


def test_tracer_sees_solver_layers(tmp_path):
    dims = Dims([4, 5])
    truth = FactorSet(dims, [ar1_factor(d, 0.5) for d in dims.d])
    gram = gram_factors(sample_ksum_gaussian(truth, 10, 3))
    original = teralasso.solver.solve
    tracer = Tracer(teralasso)
    tracer.install()
    try:
        assert teralasso.solver.solve is not original
        teralasso.solve(gram, config=SolverConfig(rho_bar=0.3))
        with contextlib.redirect_stdout(io.StringIO()):
            code = teralasso.cli.main(
                ["sweep", "--kind", "support", "--model", "er", "--dims", "4,4",
                 "--edges", "2,2", "--n", "5", "--rho-grid", "0.1", "--trials", "1",
                 "--max-iter", "50", "--out", str(tmp_path)]
            )
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.metrics(rounds=1, startup_ms=0.0)
    for name in (
        "ksum.grid.calls",
        "ksum.logdet.ms",
        "ksum.proj_inverse.ms",
        "ksum.eigensystem.calls",
        "solver.gradient.ms",
        "solver.line_search.ms",
        "solver.kkt.calls",
        "metrics.cells",
        "metrics.evaluate.ms",
        "metrics.sweep.self_ms",
    ):
        assert np.isfinite(metrics[name]) and metrics[name] > 0, name
    # the one-trial sweep's one truth: no check before --out draws another
    assert metrics["metrics.cells"] == 1
    assert teralasso.solver.solve is original
    assert teralasso.solve is original and teralasso.metrics.solve is original


def test_tracer_sees_cli_commands(tmp_path):
    # main looks each command up when it runs, so the tracer's cli.cmd_* wrappers time it
    tracer = Tracer(teralasso)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [teralasso.cli.main(argv) for argv in (
                ["generate", "--dims", "4,4", "--n", "6", "--out", str(tmp_path)],
                ["estimate", "--data", str(tmp_path / "samples.ktns"), "--out", str(tmp_path)],
                ["evaluate", "--truth", str(tmp_path / "truth.json"),
                 "--estimate", str(tmp_path / "estimate.json"), "--out", str(tmp_path)],
            )]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    metrics = tracer.metrics(rounds=1, startup_ms=0.0)
    for name in ("cli.generate.ms", "cli.estimate.ms", "cli.evaluate.ms"):
        assert metrics[name] > 0, name
