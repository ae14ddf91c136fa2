import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teralasso
from teralasso.cli import main
from teralasso.data import read_ktns, write_ktns
from teralasso.ksum import FactorSet


def run(argv):
    return main(argv)


def run_subprocess(argv):
    """Run the CLI in a fresh interpreter, as a user's shell would."""
    path = [str(Path(teralasso.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run(
        [sys.executable, "-m", "teralasso.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestGenerate:
    def test_writes_outputs(self, tmp_path):
        code = run(
            [
                "generate", "--model", "er", "--dims", "8,8", "--edges", "4,4",
                "--n", "5", "--seed", "3", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "truth.json").exists()
        assert (tmp_path / "samples.ktns").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["config"]["seed"] == 3
        data = read_ktns(tmp_path / "samples.ktns")
        assert data.n == 5 and data.dims.p == 64

    def test_missing_required(self, tmp_path, capsys):
        code = run(["generate", "--model", "er", "--out", str(tmp_path)])
        assert code == 1
        assert "dims" in capsys.readouterr().err

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                ["generate", "--dims", "6,6", "--n", "4", "--seed", "9",
                 "--out", str(out)]
            ) == 0
        assert (a / "samples.ktns").read_bytes() == (b / "samples.ktns").read_bytes()
        assert (a / "truth.json").read_bytes() == (b / "truth.json").read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [6, 6], "n": 3, "seed": 1}))
        out = tmp_path / "out"
        assert run(
            ["generate", "--config", str(cfg), "--seed", "2", "--out", str(out)]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 2  # flag wins over config file
        assert manifest["config"]["n"] == 3


class TestEstimate:
    @pytest.fixture
    def dataset(self, tmp_path):
        out = tmp_path / "gen"
        run(
            ["generate", "--model", "er", "--dims", "8,8", "--edges", "4,4",
             "--n", "40", "--seed", "5", "--out", str(out)]
        )
        return out

    def test_fit_and_outputs(self, dataset, tmp_path):
        out = tmp_path / "fit"
        code = run(
            ["estimate", "--data", str(dataset / "samples.ktns"),
             "--rho-bar", "0.2", "--out", str(out)]
        )
        assert code == 0
        est = FactorSet.from_json((out / "estimate.json").read_text())
        assert est.dims.p == 64
        report = json.loads((out / "report.json").read_text())
        assert report["termination"] in ("objective-tol", "kkt-tol")
        assert report["final_kkt"] < 1e-6

    def test_max_iter_exit_code(self, dataset, tmp_path):
        code = run(
            ["estimate", "--data", str(dataset / "samples.ktns"),
             "--rho-bar", "0.2", "--max-iter", "2", "--out", str(tmp_path / "f")]
        )
        assert code == 2

    def test_missing_data_file(self, tmp_path, capsys):
        code = run(
            ["estimate", "--data", str(tmp_path / "nope.ktns"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "cannot read" in capsys.readouterr().err


class TestEvaluate:
    def test_pipeline(self, tmp_path):
        gen, fit, ev = tmp_path / "g", tmp_path / "f", tmp_path / "e"
        run(
            ["generate", "--model", "er", "--dims", "8,8", "--edges", "4,4",
             "--n", "60", "--seed", "6", "--out", str(gen)]
        )
        run(
            ["estimate", "--data", str(gen / "samples.ktns"), "--rho-bar", "0.3",
             "--out", str(fit)]
        )
        code = run(
            ["evaluate", "--truth", str(gen / "truth.json"),
             "--estimate", str(fit / "estimate.json"), "--out", str(ev)]
        )
        assert code == 0
        metrics = json.loads((ev / "metrics.json").read_text())
        assert {"frob_full", "frob_rel", "spectral", "mcc"} <= set(metrics)
        assert metrics["frob_rel"] < 1.0

    def test_dimension_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["generate", "--dims", "6,6", "--n", "2", "--seed", "1", "--out", str(a)])
        run(["generate", "--dims", "4,4", "--n", "2", "--seed", "1", "--out", str(b)])
        code = run(
            ["evaluate", "--truth", str(a / "truth.json"),
             "--estimate", str(b / "truth.json"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "mismatch" in capsys.readouterr().err


class TestSweep:
    def test_support_sweep(self, tmp_path):
        code = run(
            ["sweep", "--kind", "support", "--model", "er", "--dims", "6,6",
             "--edges", "3,3", "--n", "30", "--rho-grid", "0.1,0.5",
             "--trials", "2", "--seed", "0", "--max-iter", "100",
             "--out", str(tmp_path)]
        )
        assert code == 0
        csv_text = (tmp_path / "support.csv").read_text()
        assert csv_text.splitlines()[0] == "p,K,n,rho_bar,precision,recall,mcc"
        assert (tmp_path / "support.manifest.json").exists()

    def test_threads_byte_identical(self, tmp_path):
        outs = []
        for label, threads in (("t1", "1"), ("t4", "4")):
            out = tmp_path / label
            assert run(
                ["sweep", "--kind", "rate", "--model", "ar1", "--dims", "6,6",
                 "--n", "10,20", "--rho-grid", "0.1,0.3", "--trials", "2",
                 "--seed", "2", "--max-iter", "100", "--threads", threads,
                 "--out", str(out)]
            ) == 0
            outs.append((out / "rate.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_kind_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["sweep", "--kind", "nope", "--dims", "4,4", "--out", str(tmp_path)])

    def test_unknown_kind_via_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dims": [4, 4], "kind": "bogus"}))
        code = run(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert "unknown sweep kind" in capsys.readouterr().err


class TestBadInput:
    """Bad input exits 1 with one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--dims", "0,3", "--n", "2"],
            ["generate", "--dims", "4,4", "--edges", "100,1", "--n", "2"],
            ["generate", "--dims", "4,4", "--n", "2", "--seed", "18446744073709551616"],
            ["selfcheck", "--seed", "-9223372036854775809"],
            ["estimate", "--data", "{good}", "--rho-bar", "-1"],
            ["estimate", "--data", "{nan}"],
            ["sweep", "--kind", "rate", "--model", "ar1", "--dims", "1", "--n", "2",
             "--rho-grid", "0.1", "--trials", "1"],
            ["evaluate", "--truth", "{extra}", "--estimate", "{truth}"],
            ["evaluate", "--truth", "{truth}", "--estimate", "{short}"],
            ["evaluate", "--truth", "{truth}", "--estimate", "{nanjson}"],
            ["evaluate", "--truth", "{nokey}", "--estimate", "{truth}"],
        ],
        ids=["zero-dim", "too-many-edges", "huge-seed", "selfcheck-seed-range",
             "negative-rho", "nan-sample", "p-equals-1",
             "extra-factor", "short-factor", "nan-factor", "missing-key"],
    )
    def test_one_line_error(self, tmp_path, argv):
        assert run(["generate", "--dims", "4,4", "--n", "3", "--out", str(tmp_path)]) == 0
        data = read_ktns(tmp_path / "samples.ktns")
        data.values[0, 0] = np.nan
        write_ktns(tmp_path / "nan.ktns", data)
        truth = json.loads((tmp_path / "truth.json").read_text())
        bad_factor_files = {
            "extra": {**truth, "factors": truth["factors"] * 2},
            "short": {**truth, "factors": [truth["factors"][0], truth["factors"][1][:-1]]},
            "nanjson": {**truth, "factors": [[float("nan")] * 16, truth["factors"][1]]},
            "nokey": {"dims": truth["dims"]},
        }
        files = {"good": tmp_path / "samples.ktns", "nan": tmp_path / "nan.ktns",
                 "truth": tmp_path / "truth.json"}
        for name, blob in bad_factor_files.items():
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(blob))
        argv = [a.format(**files) for a in argv] + ["--out", str(tmp_path / "out")]
        proc = run_subprocess(argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestUsageErrors:
    """argparse usage errors exit 1, not argparse's 2, which means an
    iteration-capped solve."""

    @pytest.mark.parametrize(
        "argv",
        [["generate", "--bogus", "1"], ["generate", "--dims", "x"],
         ["generate", "--threads", "2", "--dims", "4,4", "--n", "2"]],
        ids=["unknown-flag", "bad-value", "threads-off-sweep"],
    )
    def test_exit_one(self, tmp_path, argv):
        proc = run_subprocess(argv + ["--out", str(tmp_path)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error: " in proc.stderr


class TestSelfcheck:
    def test_passes(self, capsys):
        code = run(["selfcheck", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 6
        assert "selfcheck passed" in out

    def test_fault_injection_exit_code(self, monkeypatch, capsys):
        monkeypatch.setenv("TERALASSO_FAULT_INJECT", "projection")
        code = run(["selfcheck", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAIL  projection-vs-basis" in out
