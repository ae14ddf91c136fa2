"""Command-line front end.

Commands: generate | estimate | evaluate | sweep | selfcheck.  Every run
writes a manifest with its command and configuration, which reruns it
bit-identically.  Exit codes: 0 ok, 1 usage or I/O error, 2 solver hit the
iteration cap, 3 self-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .data import check_seed, gram_factors, read_ktns, sample_ksum_gaussian, write_ktns
from .ksum import Dims, FactorSet
from .metrics import (
    MODELS,
    ExperimentSpec,
    edge_support,
    estimation_errors,
    make_truth,
    mcc,
    run_rate_experiment,
    run_support_experiment,
    tuning_sweep,
    write_table,
)
from .solver import SolverConfig, solve


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


def _resolve(args, config):
    """Merge config-file values and CLI flags; flags win.

    A config value is read as its flag's text would be (a list as
    comma-separated items) and kept as written when it equals that reading,
    so ``1`` stays ``1`` in manifests and CSVs.  A config key the command
    does not read is an error.
    """
    params = COMMANDS[args.command][2]
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
    return out


def _read_config_value(command, key, conv, value):
    if isinstance(conv, tuple):
        if value not in conv:
            raise ValueError(f"unknown {command} {key} {value!r}; choose from {', '.join(conv)}")
        return value
    invalid = ValueError(f"{command}: invalid value {json.dumps(value)} for config key {key!r}")
    if isinstance(value, list) and conv not in (_int_list, _float_list):
        raise invalid  # one value per single-value key
    items = value if isinstance(value, list) else [value]
    try:
        read = conv(",".join(v if isinstance(v, str) else json.dumps(v) for v in items))
    except ValueError:
        raise invalid from None
    return value if read == value else read


def _write_manifest(out_dir: Path, command: str, resolved: dict):
    manifest = {"command": command, "config": resolved}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _spec_from(command: str, resolved: dict) -> ExperimentSpec:
    """The run's experiment; ``edges`` with ar1 and ``ar-coeff`` with another model are
    errors.  Records in ``resolved`` the spec's default of each field the command takes and
    the model reads, but ``edges``, which ``dims`` gives."""
    model = resolved.get("model", "er")
    ignored = "edges" if model == "ar1" else "ar-coeff"
    if ignored in resolved:
        raise ValueError(f"{command}: the {model} model does not read '{ignored}'")
    keys = {"n_list" if key == "n" else key.replace("-", "_"): key for key in COMMANDS[command][2]}
    names = keys.keys() & {f.name for f in fields(ExperimentSpec)}
    kwargs = {"model": model}
    for name in (n for n in names if keys[n] in resolved):
        val = resolved[keys[name]]
        if name == "n_list" and not isinstance(val, list):
            val = [val]  # generate draws one n
        kwargs[name] = tuple(val) if isinstance(val, list) else val
    spec = ExperimentSpec(**{**kwargs, "dims": Dims(resolved["dims"])})
    for name in names - {"edges", ignored.replace("-", "_")}:
        val = getattr(spec, name)
        resolved.setdefault(keys[name], list(val) if isinstance(val, tuple) else val)
    return spec


def _require(command, resolved, *keys):
    for key in keys:
        if key not in resolved:
            raise ValueError(f"{command}: missing required parameter '{key}'")


def cmd_generate(args) -> int:
    resolved = _resolve(args, _load_config(args.config))
    _require("generate", resolved, "dims", "n")
    spec = _spec_from("generate", resolved)
    seed = check_seed(spec.seed)
    n = resolved["n"]
    truth = make_truth(spec, seed)
    data = sample_ksum_gaussian(truth, n, seed)
    out = _out_dir(args)
    with open(out / "truth.json", "w") as fh:
        fh.write(truth.to_json() + "\n")
    write_ktns(out / "samples.ktns", data)
    _write_manifest(out, "generate", resolved)
    print(f"generated p={spec.dims.p} n={n} seed={seed} model={spec.model}")
    return 0


def cmd_estimate(args) -> int:
    resolved = _resolve(args, _load_config(args.config))
    _require("estimate", resolved, "data")
    resolved.setdefault("rho-bar", 0.01)
    cfg = SolverConfig(**{k.replace("-", "_"): v for k, v in resolved.items() if k != "data"})
    for f in fields(cfg):
        resolved.setdefault(f.name.replace("_", "-"), getattr(cfg, f.name))
    try:
        data = read_ktns(resolved["data"])
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read data file: {exc}")
    est, report = solve(gram_factors(data), n=data.n, config=cfg)
    out = _out_dir(args)
    with open(out / "estimate.json", "w") as fh:
        fh.write(est.to_json() + "\n")
    with open(out / "report.json", "w") as fh:
        fh.write(report.to_json() + "\n")
    _write_manifest(out, "estimate", resolved)
    print(
        f"estimated p={data.dims.p} iterations={report.iterations} "
        f"termination={report.termination}"
    )
    return 2 if report.termination == "max-iter" else 0


def cmd_evaluate(args) -> int:
    resolved = _resolve(args, _load_config(args.config))
    _require("evaluate", resolved, "truth", "estimate")
    try:
        truth, est = (FactorSet.from_json(Path(resolved[key]).read_text())
                      for key in ("truth", "estimate"))
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read factor file: {exc}")
    errs = estimation_errors(truth, est)
    errs["mcc"] = mcc(edge_support(truth), edge_support(est))
    out = _out_dir(args)
    with open(out / "metrics.json", "w") as fh:
        json.dump(errs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "evaluate", resolved)
    print(json.dumps(errs, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    resolved = _resolve(args, _load_config(args.config))
    _require("sweep", resolved, "dims")
    kind = resolved.setdefault("kind", "rate")
    if kind != "tuning" and "rho-ratios" in resolved:
        raise ValueError(f"sweep: kind {kind} does not read 'rho-ratios'; kind tuning does")
    # --threads is accepted for compatibility and ignored; keep it out of the
    # reproducibility manifest so manifests match whatever value is passed
    resolved.pop("threads", None)
    spec = _spec_from("sweep", resolved)
    if kind == "rate":
        rows = run_rate_experiment(spec)
    elif kind == "support":
        rows = run_support_experiment(spec)
    else:
        rows = tuning_sweep(spec, rho_ratios=tuple(resolved.setdefault("rho-ratios", [1.0])))
    out = _out_dir(args)
    write_table(rows, out / f"{kind}.csv")
    _write_manifest(out, "sweep", resolved)
    print(f"sweep kind={kind} rows={len(rows)}")
    return 0


def cmd_selfcheck(args) -> int:
    # imported here, so the other commands do not pay for the oracles
    from .selfcheck import run_selfcheck

    resolved = _resolve(args, _load_config(args.config))
    results = run_selfcheck(seed=check_seed(resolved.get("seed", 0)))
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

# Each command's parameters, spelled as config keys (``rho-bar``), with the
# converter that reads the flag ``--rho-bar`` and the config value alike, or
# the tuple of allowed values.  ``rho-ratios`` is read from config files only.
COMMANDS = {
    "generate": (cmd_generate, "generate truth factors and samples",
                 {"seed": int, **_TRUTH_MODEL, "n": int}),
    "estimate": (cmd_estimate, "fit factors to a .ktns data file",
                 {"data": str, "rho-bar": float, "max-iter": int, "tol-kkt": float}),
    "evaluate": (cmd_evaluate, "compare truth and estimated factors",
                 {"truth": str, "estimate": str}),
    "sweep": (cmd_sweep, "run an experiment sweep to CSV",
              {"seed": int, "kind": ("rate", "support", "tuning"), **_TRUTH_MODEL, "n": _int_list,
               "rho-grid": _float_list, "rho-ratios": _float_list, "trials": int,
               "max-iter": int, "threads": int}),  # --threads: accepted and ignored
    "selfcheck": (cmd_selfcheck, "run the oracle cross-check battery", {"seed": int}),
}
_CONFIG_ONLY = ("rho-ratios",)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as documented; argparse's own code 2 means an
    iteration-capped solve here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="teralasso")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (fn, help_text, params) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        if command != "selfcheck":
            p.add_argument("--out", help="output directory (default: cwd)")
        for key, conv in params.items():
            if key not in _CONFIG_ONLY:
                kind = "choices" if isinstance(conv, tuple) else "type"
                p.add_argument(f"--{key}", **{kind: conv})
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # bad input, found by the CLI or below it (invalid dims, too many
        # edges, negative rho, a non-PD truth): one line and exit 1, never a
        # traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
