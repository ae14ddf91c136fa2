import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import teralasso
import teralasso.selfcheck
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
        assert manifest["config"] == {"model": "er", "dims": [8, 8], "edges": [4, 4], "n": 5,
                                      "seed": 3}
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
        # defaults the run read are recorded; edges, which dims gives, is not
        assert manifest["config"]["model"] == "er" and "edges" not in manifest["config"]

    def test_manifest_records_ar_coeff(self, tmp_path):
        assert run(["generate", "--model", "ar1", "--dims", "3,3", "--n", "2",
                    "--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config == {"model": "ar1", "dims": [3, 3], "ar-coeff": 0.5, "n": 2, "seed": 0}


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
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config == {"data": str(dataset / "samples.ktns"), "rho-bar": 0.2,
                          "max-iter": 1000, "tol-kkt": 1e-6}
        report = json.loads((out / "report.json").read_text())
        assert report["termination"] in ("objective-tol", "kkt-tol")
        assert report["final_kkt"] < 1e-6

    def test_max_iter_exit_code(self, dataset, tmp_path):
        code = run(
            ["estimate", "--data", str(dataset / "samples.ktns"),
             "--rho-bar", "0.2", "--max-iter", "2", "--out", str(tmp_path / "f")]
        )
        assert code == 2

    def test_config_key_not_read(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho_bar": 5.0, "seed": 7}))
        out = tmp_path / "f"
        code = run(
            ["estimate", "--data", str(dataset / "samples.ktns"), "--config", str(cfg),
             "--out", str(out)]
        )
        assert code == 1
        assert "'rho_bar', 'seed'" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_rho_bar_beyond_int64(self, dataset, tmp_path, capsys):
        # a config integer of any size is a float penalty, as its flag reads it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho-bar": 2**70}))
        code = run(
            ["estimate", "--data", str(dataset / "samples.ktns"), "--config", str(cfg),
             "--max-iter", "3", "--out", str(tmp_path / "f")]
        )
        assert code in (0, 2)
        assert capsys.readouterr().err == ""

    def test_huge_penalty_converges(self, tmp_path):
        # a penalty this large leaves the diagonal start optimal; it converges
        # once the penalty of a diagonal factor is exactly 0, not rounding
        # noise times 1e21
        assert run(["generate", "--dims", "4,4", "--n", "3", "--out", str(tmp_path / "g")]) == 0
        out = tmp_path / "f"
        code = run(
            ["estimate", "--data", str(tmp_path / "g" / "samples.ktns"), "--rho-bar", "1e21",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["termination"] in ("objective-tol", "kkt-tol")

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
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config == {"kind": "support", "model": "er", "dims": [6, 6], "edges": [3, 3],
                          "n": [30], "rho-grid": [0.1, 0.5], "trials": 2, "seed": 0,
                          "max-iter": 100}

    def test_manifest_records_defaults(self, tmp_path):
        assert run(["sweep", "--kind", "tuning", "--dims", "3,3", "--n", "5",
                    "--rho-grid", "0.3", "--trials", "1", "--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        assert config == {"kind": "tuning", "model": "er", "dims": [3, 3], "n": [5],
                          "rho-grid": [0.3], "rho-ratios": [1.0], "trials": 1, "seed": 0,
                          "max-iter": 400}

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
            ["generate", "--model", "er", "--dims", "4,4", "--edges", "2,2", "--n", "2",
             "--seed", "9223372036854775807"],
            ["estimate", "--data", "{good}", "--config", "{rhobar}"],
            ["estimate", "--data", "{good}", "--config", "{seed}"],
            ["estimate", "--data", "{good}", "--max-iter", "0"],
            ["sweep", "--kind", "support", "--model", "er", "--dims", "4,4", "--edges", "2,2",
             "--n", "2", "--rho-grid", "0.1", "--trials", "1", "--max-iter", "-3"],
            ["generate", "--dims", "4,4", "--config", "{nlist}"],
            ["generate", "--dims", "4,4", "--n", "2", "--config", "{seedfloat}"],
            ["generate", "--dims", "4,4", "--n", "2", "--config", "{edgesint}"],
            ["estimate", "--data", "{good}", "--config", "{rhobarlist}"],
            ["estimate", "--data", "{good}", "--config", "{maxiterfloat}"],
            ["estimate", "--config", "{datanumber}"],
            ["selfcheck", "--config", "{seedlist}"],
            ["estimate", "--data", "{hdrlist}"],
            ["estimate", "--data", "{hdrnodims}"],
            ["estimate", "--data", "{hdrnzero}"],
            ["estimate", "--data", "{good}", "--rho-bar", "nan"],
            ["estimate", "--data", "{good}", "--rho-bar", "1e308"],
            ["sweep", "--kind", "support", "--model", "er", "--dims", "4,4", "--edges", "2,2",
             "--n", "2", "--trials", "1", "--config", "{rhogridhuge}"],
            ["estimate", "--data", "{hdrnbool}"],
            ["estimate", "--data", "{hdrdimsfloat}"],
            ["evaluate", "--truth", "{truthdimsfloat}", "--estimate", "{truth}"],
            ["generate", "--dims", "6,6", "--edges=-1,-3", "--n", "2"],
            ["sweep", "--kind", "support", "--model", "er", "--dims", "4,4", "--edges", "2,2",
             "--n", "2", "--rho-grid", "0.1", "--trials", "1", "--config", "{rhoratios}"],
            ["generate", "--model", "ar1", "--dims", "4,4", "--edges", "2,2", "--n", "2"],
            ["generate", "--model", "er", "--dims", "4,4", "--ar-coeff", "0.9", "--n", "2"],
            ["generate", "--dims", "4,4", "--n", "2", "--config", "{missing}"],
            ["generate", "--dims", "4,4", "--n", "2", "--config", "{malformed}"],
            ["generate", "--dims", "4,4", "--n", "2", "--config", "{configlist}"],
        ],
        ids=["zero-dim", "too-many-edges", "huge-seed", "selfcheck-seed-range",
             "negative-rho", "nan-sample", "p-equals-1",
             "extra-factor", "short-factor", "nan-factor", "missing-key",
             "factor-seed-range", "config-rho_bar", "config-seed",
             "estimate-max-iter-zero", "sweep-max-iter-negative",
             "config-n-list", "config-seed-float", "config-edges-scalar", "config-rho-bar-list",
             "config-max-iter-float", "config-data-number", "config-selfcheck-seed-list",
             "header-not-object", "header-no-dims", "header-n-zero", "nan-rho",
             "overflow-rho", "config-rho-grid-overflow", "header-n-bool", "header-dims-float",
             "truth-dims-float", "negative-edges", "rho-ratios-off-tuning", "ar1-edges",
             "er-ar-coeff", "config-missing", "config-malformed", "config-not-object"],
    )
    def test_one_line_error(self, tmp_path, argv):
        assert run(["generate", "--dims", "4,4", "--n", "3", "--out", str(tmp_path)]) == 0
        data = read_ktns(tmp_path / "samples.ktns")
        data.values[0, 0] = np.nan
        write_ktns(tmp_path / "nan.ktns", data)
        truth = json.loads((tmp_path / "truth.json").read_text())
        json_files = {
            "extra": {**truth, "factors": truth["factors"] * 2},
            "short": {**truth, "factors": [truth["factors"][0], truth["factors"][1][:-1]]},
            "nanjson": {**truth, "factors": [[float("nan")] * 16, truth["factors"][1]]},
            "nokey": {"dims": truth["dims"]},
            # config keys estimate does not read: rho-bar is its spelling, seed not its input
            "rhobar": {"rho_bar": 5.0},
            "seed": {"seed": 7},
            # config values read as their flag's text: one value per scalar key
            "nlist": {"n": [2, 3]},
            "seedfloat": {"seed": 1.7},
            "edgesint": {"edges": 3},
            "rhobarlist": {"rho-bar": [1, 2]},
            "maxiterfloat": {"max-iter": 2.5},
            "datanumber": {"data": 5},
            "seedlist": {"seed": [1]},
            "rhogridhuge": {"rho-grid": [1e308]},
            # int() would read 4.5 as 4, a matching shape
            "truthdimsfloat": {**truth, "dims": [4.5, 4]},
            # a parameter the sweep kind would not read
            "rhoratios": {"rho-ratios": [2.0]},
            "configlist": [1, 2],  # not a JSON object
        }
        files = {"good": tmp_path / "samples.ktns", "nan": tmp_path / "nan.ktns",
                 "truth": tmp_path / "truth.json", "missing": tmp_path / "missing.json",
                 "malformed": tmp_path / "malformed.json"}
        files["malformed"].write_text('{"dims": [4, 4],')
        for name, blob in json_files.items():
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps(blob))
        ktns_headers = {
            "hdrlist": b"[4, 4]",
            "hdrnodims": b'{"n": 1, "dtype": "f64", "order": "mode1-slowest"}',
            "hdrnzero": b'{"dims": [4, 4], "n": 0, "dtype": "f64", "order": "mode1-slowest"}',
            # both fit the 128-byte payload if read as n = 1 and dims (4, 4)
            "hdrnbool": b'{"dims": [4, 4], "n": true, "dtype": "f64", "order": "mode1-slowest"}',
            "hdrdimsfloat": b'{"dims": [4.5, 4], "n": 1, "dtype": "f64", "order": "mode1-slowest"}',
        }
        for name, header in ktns_headers.items():
            files[name] = tmp_path / f"{name}.ktns"
            files[name].write_bytes(header + b"\n" + bytes(128))
        argv = [a.format(**files) for a in argv]
        if argv[0] != "selfcheck":  # selfcheck writes no files and takes no --out
            argv += ["--out", str(tmp_path / "out")]
        proc = run_subprocess(argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "text, needle",
        [(None, "cannot read config"), ('{"dims": [4, 4],', "cannot read config"),
         ("[1, 2]", "is not a JSON object")],
        ids=["missing", "malformed", "not-object"],
    )
    def test_config_file_error_names_the_file(self, tmp_path, capsys, text, needle):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        code = run(["generate", "--dims", "4,4", "--n", "2", "--config", str(cfg),
                    "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1 and f"config {cfg}" in err and needle in err


class TestUsageErrors:
    """argparse usage errors exit 1, not argparse's 2, which means an
    iteration-capped solve."""

    @pytest.mark.parametrize(
        "argv",
        [["generate", "--bogus", "1"], ["generate", "--dims", "x"],
         ["generate", "--threads", "2", "--dims", "4,4", "--n", "2"],
         ["estimate", "--seed", "1"], ["evaluate", "--seed", "1"],
         ["sweep", "--rho-ratios", "1", "--dims", "4,4"]],
        ids=["unknown-flag", "bad-value", "threads-off-sweep", "estimate-seed",
             "evaluate-seed", "rho-ratios-config-only"],
    )
    def test_exit_one(self, tmp_path, argv):
        proc = run_subprocess(argv + ["--out", str(tmp_path)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error: " in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [["estimate", "--data", "x.ktns", "--tol-obj", "1e-9"], ["selfcheck", "--out", "x"]],
        ids=["estimate-tol-obj", "selfcheck-out"],
    )
    def test_removed_flag(self, argv, capsys):
        # the objective tolerance is a fixed constant, and selfcheck writes no files
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSelfcheck:
    def test_passes(self, capsys):
        code = run(["selfcheck", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 6
        assert "selfcheck passed" in out

    def test_fault_injection_exit_code(self, monkeypatch, capsys):
        # the projection reference is off by 1e-3 I per factor
        reference = teralasso.selfcheck.basis_projection
        monkeypatch.setattr(
            teralasso.selfcheck,
            "basis_projection",
            lambda A, dims: FactorSet(
                dims, [m + 1e-3 * np.eye(len(m)) for m in reference(A, dims).psi]
            ),
        )
        code = run(["selfcheck", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert "FAIL  projection-vs-basis" in out
        assert "PASS  gradient-vs-dense" in out
