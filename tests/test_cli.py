import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teralasso
import teralasso.cli
import teralasso.metrics
import teralasso.selfcheck
from teralasso.cli import main
from teralasso.data import DataTensorSet, read_ktns, write_ktns
from teralasso.ksum import Dims, FactorSet
from teralasso.solver import resolve_rho


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

    def test_capped_run_writes_its_manifest(self, dataset, tmp_path):
        out = tmp_path / "f"
        code = run(["estimate", "--data", str(dataset / "samples.ktns"), "--rho-bar", "0.2",
                    "--max-iter", "2", "--out", str(out)])
        assert code == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest == {"command": "estimate",
                            "config": {"data": str(dataset / "samples.ktns"), "rho-bar": 0.2,
                                       "max-iter": 2, "tol-kkt": 1e-6}}

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

    def test_tuning_cells_resolved_once(self, tmp_path, monkeypatch):
        # the spec checks each (rho_bar, ratio) cell's penalties once per n, and the
        # sweep reads the cells it built
        calls = []

        def counted(*args):
            calls.append(args)
            return resolve_rho(*args)

        monkeypatch.setattr(teralasso.metrics, "resolve_rho", counted)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rho-ratios": [0.5, 2.0]}))
        assert run(["sweep", "--kind", "tuning", "--dims", "3,3", "--n", "2,4",
                    "--rho-grid", "0.1,0.3", "--trials", "1", "--max-iter", "20",
                    "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 2 * 2 * 2
        rows = (tmp_path / "out" / "tuning.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == ["0.5", "2.0"] * 4

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

    def test_unusable_out_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        # the output directory is made before the work, so a path under a
        # file fails at once, not after the whole sweep has run
        def no_sweep(spec):
            raise AssertionError("the sweep ran before its --out was checked")

        monkeypatch.setattr(teralasso.cli, "run_support_experiment", no_sweep)
        blocker = tmp_path / "F"
        blocker.write_text("")
        code = run(["sweep", "--kind", "support", "--dims", "4,4", "--n", "2",
                    "--rho-grid", "0.1", "--trials", "1", "--out", str(blocker / "sub")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

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
            ["evaluate", "--truth", "{truth}", "--estimate", "{otherdims}"],
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
            # an output path that cannot be a directory
            ["generate", "--dims", "3,3", "--n", "2", "--out", "{truth}/sub"],
            ["generate", "--dims", "3,3", "--n", "2", "--out", "{truth}"],
            ["evaluate", "--truth", "{truth}", "--estimate", "{strfactor}"],
            ["evaluate", "--truth", "{truth}", "--estimate", "{boolfactor}"],
            ["evaluate", "--truth", "{truth}", "--estimate", "{nestedfactor}"],
            ["evaluate", "--truth", "{bigintfactor}", "--estimate", "{truth}"],
        ],
        ids=["zero-dim", "too-many-edges", "huge-seed", "selfcheck-seed-range",
             "negative-rho", "nan-sample", "p-equals-1",
             "extra-factor", "short-factor", "nan-factor", "missing-key", "dims-mismatch",
             "factor-seed-range", "config-rho_bar", "config-seed",
             "estimate-max-iter-zero", "sweep-max-iter-negative",
             "config-n-list", "config-seed-float", "config-edges-scalar", "config-rho-bar-list",
             "config-max-iter-float", "config-data-number", "config-selfcheck-seed-list",
             "header-not-object", "header-no-dims", "header-n-zero", "nan-rho",
             "overflow-rho", "config-rho-grid-overflow", "header-n-bool", "header-dims-float",
             "truth-dims-float", "negative-edges", "rho-ratios-off-tuning", "ar1-edges",
             "er-ar-coeff", "config-missing", "config-malformed", "config-not-object",
             "out-under-file", "out-is-file", "factor-strings", "factor-bools",
             "factor-nested", "factor-int-beyond-float"],
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
            "otherdims": {"dims": [2, 2], "factors": [[1.0, 0.0, 0.0, 1.0]] * 2},
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
            # factor entries must be JSON numbers in a flat list: "1" and true are not 1.0
            "strfactor": {**truth, "factors": [[str(x) for x in psi] for psi in truth["factors"]]},
            "boolfactor": {**truth, "factors": [[x != 0 for x in psi] for psi in truth["factors"]]},
            "nestedfactor": {**truth, "factors": [np.reshape(psi, (4, 4)).tolist()
                                                  for psi in truth["factors"]]},
            "bigintfactor": {**truth, "factors": [[10**400] * 16, truth["factors"][1]]},
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
        # selfcheck writes no files and takes no --out
        if argv[0] != "selfcheck" and "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        proc = run_subprocess(argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        # every parameter and input-file error is found before --out is made
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--model", "ar1", "--ar-coeff", "1", "--dims", "4,4", "--n", "2"],
            ["generate", "--dims", "4,4", "--edges", "100,1", "--n", "2"],
            ["sweep", "--model", "grid", "--dims", "5,5"],
            ["sweep", "--dims", "4,4", "--rho-grid", "nan"],
            ["sweep", "--dims", "4,4", "--rho-grid=-1"],
            ["sweep", "--kind", "rate", "--dims", "1"],
            ["sweep", "--kind", "tuning", "--dims", "4,4", "--config", "{ratios}"],
            ["estimate", "--data", "{missing}"],
            ["evaluate", "--truth", "{missing}", "--estimate", "{missing}"],
            # a solve stopped by an infinite tolerance would report convergence it never reached
            ["estimate", "--data", "{data}", "--tol-kkt", "inf"],
            # trial seeds are taken mod 2**31: 2**31 would rerun seed 0's sweep
            ["sweep", "--kind", "tuning", "--dims", "4,4", "--n", "3", "--rho-grid", "0.1",
             "--trials", "2", "--max-iter", "50", "--seed", "2147483648"],
            ["sweep", "--kind", "tuning", "--dims", "4,4", "--n", "3", "--rho-grid", "0.1",
             "--trials", "2", "--max-iter", "50", "--seed=-1180591620717411303424"],
        ],
        ids=["ar-coeff-one", "too-many-edges", "grid-side", "rho-grid-nan", "rho-grid-negative",
             "rate-p-equals-1", "negative-ratio", "missing-data", "missing-truth",
             "tol-kkt-inf", "sweep-seed-2-31", "sweep-seed-negative"],
    )
    def test_fails_before_out(self, tmp_path, monkeypatch, capsys, argv):
        # each rule is checked before --out is made, and a sweep's before any data set is drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("a data set was drawn before the parameters were checked")

        monkeypatch.setattr(teralasso.metrics, "sample_ksum_gaussian", no_draw)
        ratios = tmp_path / "ratios.json"
        ratios.write_text(json.dumps({"rho-ratios": [-2.0]}))
        files = {"ratios": ratios, "missing": tmp_path / "missing.json",
                 "data": tmp_path / "data.ktns"}
        write_ktns(files["data"], DataTensorSet(Dims([3, 3]), np.eye(3, 9)))
        out = tmp_path / "out"
        code = run([a.format(**files) for a in argv] + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "command, config, key",
        [("evaluate", {"truth": 5, "estimate": "5"}, "truth"),
         ("estimate", {"data": None}, "data"),
         ("estimate", {"data": 0.5}, "data"),
         ("evaluate", {"truth": "5", "estimate": None}, "estimate")],
        ids=["truth-number", "data-null", "data-float", "estimate-null"],
    )
    def test_path_key_takes_a_string(self, tmp_path, monkeypatch, capsys, command, config, key):
        # a valid factor file named 5 is there to read: the number is not its name
        assert run(["generate", "--dims", "3,3", "--n", "2", "--out", str(tmp_path)]) == 0
        (tmp_path / "truth.json").rename(tmp_path / "5")
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        capsys.readouterr()
        code = run([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and f"for config key '{key}'" in err
        assert not (tmp_path / "out").exists()


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


class TestRunRecord:
    """``main`` writes each run's manifest once the command returns."""

    def test_none_after_a_raise(self, tmp_path, monkeypatch, capsys):
        # the sweep raises after --out exists: no record of a run that did not finish
        def failing_sweep(spec):
            raise ValueError("sweep failed")

        monkeypatch.setattr(teralasso.cli, "run_support_experiment", failing_sweep)
        out = tmp_path / "out"
        code = run(["sweep", "--kind", "support", "--dims", "4,4", "--n", "2",
                    "--rho-grid", "0.1", "--trials", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: sweep failed\n"
        assert out.is_dir() and not (out / "manifest.json").exists()

    def test_none_for_selfcheck(self, tmp_path, monkeypatch, capsys):
        # selfcheck takes no --out, so it leaves no manifest in the working directory
        monkeypatch.setattr(teralasso.selfcheck, "run_selfcheck", lambda seed: [])
        monkeypatch.chdir(tmp_path)
        assert run(["selfcheck"]) == 0
        assert "selfcheck passed" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


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


# Every value a config file can hold that no parameter should take on trust.
# Large counts (trials, n, max-iter) and large dims such as {"dims": [3000]}
# are kept out on purpose: they are valid, only slow, and this test bounds no
# run time.
_HOSTILE = [None, True, False, {}, [], [[1]], [[], []], "", "x", "1", 0, 1, -1, -2**70,
            1e308, 0.5]
_BAD_ITEMS = [None, True, {}, [1], "x", 0, -1, -2**70, 1e308, 0.5]
# small flags for the keys not under test: one trial, one rho_bar, n = 2, dims 3,3
_BASE = {
    "generate": {"dims": "3,3", "n": "2"},
    "estimate": {"data": "{data}", "max-iter": "20"},
    "evaluate": {"truth": "{truth}", "estimate": "{truth}"},
    "sweep": {"dims": "3,3", "n": "2", "trials": "1", "rho-grid": "0.1", "max-iter": "20"},
    "selfcheck": {},
}


def test_fuzz_config_values(tmp_path, monkeypatch):
    """Each (command, key) of ``cli.COMMANDS`` set through a config file to a
    hostile value exits 0, 1 or 2, an exit 1 with one ``error:`` line, and no
    exception leaves ``main``."""
    assert run(["generate", "--dims", "3,3", "--n", "2", "--out", str(tmp_path)]) == 0
    files = {"data": tmp_path / "samples.ktns", "truth": tmp_path / "truth.json"}
    # relative path values name no file; the battery itself is not under test
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(teralasso.selfcheck, "run_selfcheck", lambda seed: [])
    pairs = [(command, key) for command, (_, _, params) in teralasso.cli.COMMANDS.items()
             for key in params]
    assert {command for command, _ in pairs} == _BASE.keys()
    values = st.sampled_from(_HOSTILE) | st.lists(st.sampled_from(_BAD_ITEMS), min_size=1,
                                                    max_size=3)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(pairs), values, st.sampled_from(teralasso.metrics.MODELS),
           st.sampled_from(("rate", "support", "tuning")))
    def check(pair, value, model, kind):
        command, key = pair
        params = teralasso.cli.COMMANDS[command][2]
        flags = {**_BASE[command], "model": model, "kind": kind}
        argv = [command, "--config", str(tmp_path / "cfg.json")]
        for flag, text in flags.items():
            if flag in params and flag != key:
                argv += [f"--{flag}", text.format(**files)]
        if command != "selfcheck":
            argv += ["--out", str(tmp_path / "out")]
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, value)
        if code == 1:
            text = err.getvalue()
            assert text.startswith("error: ") and text.count("\n") == 1, (argv, value, text)

    check()
