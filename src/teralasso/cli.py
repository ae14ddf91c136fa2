"""Command-line front end.

Commands: generate | estimate | evaluate | sweep | selfcheck.  Every run
writes a manifest with the fully resolved configuration so it can be rerun
bit-identically.  Exit codes: 0 ok, 1 usage or I/O error, 2 solver hit the
iteration cap, 3 self-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data import check_seed, read_ktns, sample_ksum_gaussian, write_ktns
from .ksum import Dims, FactorSet
from .metrics import (
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
from .selfcheck import run_selfcheck
from .solver import SolverConfig, solve


class CliError(Exception):
    def __init__(self, message, code=1):
        super().__init__(message)
        self.code = code


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}")


def _resolve(args, keys, config):
    """Merge config-file values and CLI flags; flags win."""
    out = dict(config)
    for key in keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            out[key.replace("_", "-")] = val
    return out


def _write_manifest(out_dir: Path, command: str, resolved: dict):
    manifest = {"command": command, "config": resolved}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _spec_from(resolved: dict) -> ExperimentSpec:
    dims = Dims(resolved["dims"])
    kwargs = dict(model=resolved.get("model", "er"), dims=dims)
    if "edges" in resolved:
        kwargs["edges"] = tuple(resolved["edges"])
    if "ar-coeff" in resolved:
        kwargs["ar_coeff"] = float(resolved["ar-coeff"])
    if "n" in resolved:
        nval = resolved["n"]
        kwargs["n_list"] = tuple(nval) if isinstance(nval, list) else (int(nval),)
    if "rho-grid" in resolved:
        kwargs["rho_grid"] = tuple(resolved["rho-grid"])
    if "trials" in resolved:
        kwargs["trials"] = int(resolved["trials"])
    if "seed" in resolved:
        kwargs["seed"] = int(resolved["seed"])
    if "max-iter" in resolved:
        kwargs["max_iter"] = int(resolved["max-iter"])
    return ExperimentSpec(**kwargs)


def cmd_generate(args) -> int:
    resolved = _resolve(
        args, ["model", "dims", "edges", "ar_coeff", "n", "seed"], _load_config(args.config)
    )
    for req in ("dims", "n"):
        if req not in resolved:
            raise CliError(f"generate: missing required parameter '{req}'")
    resolved.setdefault("model", "er")
    resolved.setdefault("seed", 0)
    seed = check_seed(resolved["seed"])
    spec = _spec_from(resolved)
    out = _out_dir(args)
    n = int(resolved["n"]) if not isinstance(resolved["n"], list) else int(resolved["n"][0])
    truth = make_truth(spec, seed)
    data = sample_ksum_gaussian(truth, n, seed)
    with open(out / "truth.json", "w") as fh:
        fh.write(truth.to_json() + "\n")
    write_ktns(out / "samples.ktns", data)
    _write_manifest(out, "generate", resolved)
    print(f"generated p={spec.dims.p} n={n} seed={seed} model={spec.model}")
    return 0


def cmd_estimate(args) -> int:
    resolved = _resolve(
        args,
        ["data", "rho_bar", "max_iter", "tol_obj", "tol_kkt", "seed"],
        _load_config(args.config),
    )
    if "data" not in resolved:
        raise CliError("estimate: missing required parameter 'data'")
    try:
        data = read_ktns(resolved["data"])
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read data file: {exc}")
    resolved.setdefault("rho-bar", 0.01)
    cfg = SolverConfig(
        rho_bar=float(resolved["rho-bar"]),
        max_iter=int(resolved.get("max-iter", 1000)),
        tol_obj=float(resolved.get("tol-obj", 1e-9)),
        tol_kkt=float(resolved.get("tol-kkt", 1e-6)),
    )
    from .data import gram_factors

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
    resolved = _resolve(args, ["truth", "estimate"], _load_config(args.config))
    for req in ("truth", "estimate"):
        if req not in resolved:
            raise CliError(f"evaluate: missing required parameter '{req}'")
    try:
        with open(resolved["truth"]) as fh:
            truth = FactorSet.from_json(fh.read())
        with open(resolved["estimate"]) as fh:
            est = FactorSet.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read factor file: {exc}")
    if truth.dims.d != est.dims.d:
        raise CliError(f"dimension mismatch: {truth.dims.d} vs {est.dims.d}")
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
    resolved = _resolve(
        args,
        ["kind", "model", "dims", "edges", "ar_coeff", "n", "rho_grid", "trials",
         "seed", "max_iter", "threads"],
        _load_config(args.config),
    )
    if "dims" not in resolved:
        raise CliError("sweep: missing required parameter 'dims'")
    kind = resolved.setdefault("kind", "rate")
    # --threads is accepted for compatibility and ignored; keep it out of the
    # reproducibility manifest so manifests match whatever value is passed
    resolved.pop("threads", None)
    spec = _spec_from(resolved)
    if kind == "rate":
        rows = run_rate_experiment(spec)
    elif kind == "support":
        rows = run_support_experiment(spec)
    elif kind == "tuning":
        rows = tuning_sweep(spec, rho_ratios=tuple(resolved.get("rho-ratios", [1.0])))
    else:
        raise CliError(f"unknown sweep kind {kind!r}")
    out = _out_dir(args)
    write_table(rows, out / f"{kind}.csv", manifest={"command": "sweep", "config": resolved})
    _write_manifest(out, "sweep", resolved)
    print(f"sweep kind={kind} rows={len(rows)}")
    return 0


def cmd_selfcheck(args) -> int:
    results = run_selfcheck(seed=check_seed(args.seed or 0))
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as documented; argparse's own code 2 means an
    iteration-capped solve here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="teralasso")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory (default: cwd)")

    g = sub.add_parser("generate", help="generate truth factors and samples")
    common(g)
    g.add_argument("--model", choices=["er", "grid", "ar1"])
    g.add_argument("--dims", type=_int_list)
    g.add_argument("--edges", type=_int_list)
    g.add_argument("--ar-coeff", type=float)
    g.add_argument("--n", type=int)
    g.set_defaults(fn=cmd_generate)

    e = sub.add_parser("estimate", help="fit factors to a .ktns data file")
    common(e)
    e.add_argument("--data")
    e.add_argument("--rho-bar", type=float)
    e.add_argument("--max-iter", type=int)
    e.add_argument("--tol-obj", type=float)
    e.add_argument("--tol-kkt", type=float)
    e.set_defaults(fn=cmd_estimate)

    v = sub.add_parser("evaluate", help="compare truth and estimated factors")
    common(v)
    v.add_argument("--truth")
    v.add_argument("--estimate")
    v.set_defaults(fn=cmd_evaluate)

    s = sub.add_parser("sweep", help="run an experiment sweep to CSV")
    common(s)
    s.add_argument("--kind", choices=["rate", "support", "tuning"])
    s.add_argument("--model", choices=["er", "grid", "ar1"])
    s.add_argument("--dims", type=_int_list)
    s.add_argument("--edges", type=_int_list)
    s.add_argument("--ar-coeff", type=float)
    s.add_argument("--n", type=_int_list)
    s.add_argument("--rho-grid", type=_float_list)
    s.add_argument("--trials", type=int)
    s.add_argument("--max-iter", type=int)
    s.add_argument("--threads", type=int, help="accepted for compatibility; ignored")
    s.set_defaults(fn=cmd_sweep)

    c = sub.add_parser("selfcheck", help="run the oracle cross-check battery")
    common(c)
    c.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        # bad input found below the CLI (invalid dims, too many edges, negative
        # rho, a non-PD truth): one line and exit 1, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
