"""Command-line front end.

Commands: generate | estimate | evaluate | sweep | selfcheck.  ``main``
writes each run's manifest, its command and configuration, which reruns it
bit-identically, into ``--out``; selfcheck has none.  Exit codes: 0 ok, 1
usage or I/O error, 2 solver hit the iteration cap, 3 self-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .data import gram_factors, read_ktns, sample_ksum_gaussian, write_ktns
from .ksum import Dims, FactorSet
from .metrics import (
    MODELS,
    ExperimentSpec,
    edge_support,
    effective_sample_size,
    estimation_errors,
    make_truth,
    mcc,
    run_rate_experiment,
    run_support_experiment,
    tuning_sweep,
    write_table,
)
from .solver import SolverConfig, resolve_rho, solve


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}")
    if not isinstance(config, dict):
        raise ValueError(f"config {path} is not a JSON object")
    return config


def _resolve(args):
    """Merge the ``--config`` file's values and CLI flags; flags win.

    A config value is read as its flag's text would be (a list as
    comma-separated items) and kept as written when it equals that reading,
    so ``1`` stays ``1`` in manifests and CSVs.  A config key the command
    does not read is an error, and so is a required key that neither gives.
    """
    for key, val in vars(args).items():
        if val == []:  # --key=--, which argparse hands on unconverted
            raise ValueError(f"{args.command}: --{key.replace('_', '-')} was given no value")
    config = _load_config(args.config)
    _, required, params = COMMANDS[args.command]
    unknown = sorted(set(config) - set(params))
    if unknown:
        raise ValueError(f"{args.command}: unknown config key {', '.join(map(repr, unknown))}")
    out = {}
    for key, conv in params.items():
        val = getattr(args, key.replace("-", "_"), None)
        if val is None and key in config:
            val = _read_config_value(args.command, key, conv, config[key])
        if val is not None:
            out[key] = val
    for key in required:
        if key not in out:
            raise ValueError(f"{args.command}: missing required parameter '{key}'")
    return out


def _read_config_value(command, key, conv, value):
    if isinstance(conv, tuple):
        if value not in conv:
            raise ValueError(f"unknown {command} {key} {value!r}; choose from {', '.join(conv)}")
        return value
    invalid = ValueError(f"{command}: invalid value {json.dumps(value)} for config key {key!r}")
    if isinstance(value, list) and conv not in (_int_list, _float_list):
        raise invalid  # one value per single-value key
    if conv is str and not isinstance(value, str):
        raise invalid  # a path is a JSON string: null is no file named 'null'
    items = value if isinstance(value, list) else [value]
    try:
        read = conv(",".join(v if isinstance(v, str) else json.dumps(v) for v in items))
    except ValueError:
        raise invalid from None
    return value if read == value else read


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> Path:
    """The run's output directory, made once the run is built and before its
    work, so an unusable path fails at once."""
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build(cls, command: str, resolved: dict, **given):
    """``cls`` from ``given`` and each resolved key of ``command`` that names a field
    (``n`` names ``n_list``); a key the run does not read (``_READ_WHEN``) is an error.
    Records in ``resolved`` the default of each field the run read, but ``edges``,
    which ``dims`` gives."""
    unread = set()
    for key, (by, readers) in _READ_WHEN.items():
        if by in resolved and resolved[by] not in readers:
            if key in resolved:
                raise ValueError(f"{command}: {by} {resolved[by]} does not read '{key}'")
            unread.add(key)
    keys = {"n_list" if key == "n" else key.replace("-", "_"): key
            for key in COMMANDS[command][2] if key not in unread}
    names = (keys.keys() & {f.name for f in fields(cls)}) - given.keys()
    for name in (n for n in names if keys[n] in resolved):
        val = resolved[keys[name]]  # generate's n is one int
        given[name] = tuple(val) if isinstance(val, list) else (val,) if name == "n_list" else val
    obj = cls(**given)
    for name in names - {"edges"}:
        val = getattr(obj, name)
        resolved.setdefault(keys[name], list(val) if isinstance(val, tuple) else val)
    return obj


def cmd_generate(args, resolved) -> int:
    resolved.setdefault("model", "er")
    spec = _build(ExperimentSpec, "generate", resolved, dims=Dims(resolved["dims"]))
    n = resolved["n"]
    truth = make_truth(spec, spec.seed)
    out = _out_dir(args)
    data = sample_ksum_gaussian(truth, n, spec.seed)
    with open(out / "truth.json", "w") as fh:
        fh.write(truth.to_json() + "\n")
    write_ktns(out / "samples.ktns", data)
    print(f"generated p={spec.dims.p} n={n} seed={spec.seed} model={spec.model}")
    return 0


def cmd_estimate(args, resolved) -> int:
    resolved.setdefault("rho-bar", 0.01)
    cfg = _build(SolverConfig, "estimate", resolved)
    try:
        data = read_ktns(resolved["data"])
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read data file: {exc}")
    resolve_rho(cfg, data.dims, data.n)  # a penalty that overflows fails before --out
    out = _out_dir(args)
    est, report = solve(gram_factors(data), config=cfg)
    with open(out / "estimate.json", "w") as fh:
        fh.write(est.to_json() + "\n")
    with open(out / "report.json", "w") as fh:
        fh.write(report.to_json() + "\n")
    print(
        f"estimated p={data.dims.p} iterations={report.iterations} "
        f"termination={report.termination}"
    )
    return 2 if report.termination == "max-iter" else 0


def cmd_evaluate(args, resolved) -> int:
    try:
        truth, est = (FactorSet.from_json(Path(resolved[key]).read_text())
                      for key in ("truth", "estimate"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read factor file: {exc}")
    errs = estimation_errors(truth, est)  # before --out: files of other dims fail here
    errs["mcc"] = mcc(edge_support(truth), edge_support(est))
    _write_json(_out_dir(args) / "metrics.json", errs)
    print(json.dumps(errs, sort_keys=True))
    return 0


def cmd_sweep(args, resolved) -> int:
    kind = resolved.setdefault("kind", "rate")
    # --threads is accepted for compatibility and ignored; keep it out of the
    # reproducibility manifest so manifests match whatever value is passed
    resolved.pop("threads", None)
    resolved.setdefault("model", "er")
    # checks the truth model, the cap and every (rho_bar, ratio) cell's penalties
    spec = _build(ExperimentSpec, "sweep", resolved, dims=Dims(resolved["dims"]))
    if kind == "rate":
        effective_sample_size(spec.dims, 1)  # a rate needs p > 1
    out = _out_dir(args)
    rows = {"rate": run_rate_experiment, "support": run_support_experiment,
            "tuning": tuning_sweep}[kind](spec)
    write_table(rows, out / f"{kind}.csv")
    print(f"sweep kind={kind} rows={len(rows)}")
    return 0


def cmd_selfcheck(args, resolved) -> int:
    # imported here, so the other commands do not pay for the oracles
    from .selfcheck import run_selfcheck

    results = run_selfcheck(seed=resolved.get("seed", 0))
    failed = [name for name, _, _, ok in results if not ok]
    for name, value, tol, ok in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} (tol {tol:g})")
    if failed:
        print(f"selfcheck failed: {', '.join(failed)}")
        return 3
    print("selfcheck passed")
    return 0


def _int_list(text):
    return [int(x) for x in text.split(",")]


def _float_list(text):
    return [float(x) for x in text.split(",")]


_TRUTH_MODEL = {"model": MODELS, "dims": _int_list, "edges": _int_list, "ar-coeff": float}

# Each command's help line, its required keys and its parameters, spelled as
# config keys (``rho-bar``), with the converter that reads the flag
# ``--rho-bar`` and the config value alike, or the tuple of allowed values.
# ``rho-ratios`` is read from config files only.  ``main`` runs ``cmd_<name>``.
COMMANDS = {
    "generate": ("generate truth factors and samples", ("dims", "n"),
                 {"seed": int, **_TRUTH_MODEL, "n": int}),
    "estimate": ("fit factors to a .ktns data file", ("data",),
                 {"data": str, "rho-bar": float, "max-iter": int, "tol-kkt": float}),
    "evaluate": ("compare truth and estimated factors", ("truth", "estimate"),
                 {"truth": str, "estimate": str}),
    "sweep": ("run an experiment sweep to CSV", ("dims",),
              {"seed": int, "kind": ("rate", "support", "tuning"), **_TRUTH_MODEL, "n": _int_list,
               "rho-grid": _float_list, "rho-ratios": _float_list, "trials": int,
               "max-iter": int, "threads": int}),  # --threads: accepted and ignored
    "selfcheck": ("run the oracle cross-check battery", (), {"seed": int}),
}
_CONFIG_ONLY = ("rho-ratios",)
# a key only some runs read: the key that decides, and its values that read it
_READ_WHEN = {"edges": ("model", ("er", "grid")), "ar-coeff": ("model", ("ar1",)),
              "rho-ratios": ("kind", ("tuning",))}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as documented; argparse's own code 2 means an
    iteration-capped solve here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="teralasso")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, params) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        if command != "selfcheck":
            p.add_argument("--out", help="output directory (default: cwd)")
        for key, conv in params.items():
            if key not in _CONFIG_ONLY:
                kind = "choices" if isinstance(conv, tuple) else "type"
                p.add_argument(f"--{key}", **{kind: conv})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolved = _resolve(args)
        # looked up when it runs, so a rebound cmd_<name> is the one that runs
        code = globals()[f"cmd_{args.command}"](args, resolved)
        # the run's record, for every command with an --out, on exit 2 too
        if "out" in vars(args):
            _write_json(_out_dir(args) / "manifest.json",
                        {"command": args.command, "config": resolved})
        return code
    except (OSError, ValueError) as exc:
        # bad input, found by the CLI or below it (invalid dims, too many
        # edges, negative rho, a non-PD truth), or an unusable path: one line
        # and exit 1, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
