"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Builds the workload's inputs from the seed, runs whole
rounds of it for about S seconds, checks every output, and prints one JSON
object as the last line: the end-to-end metrics with ``--trace 0``, or the
per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread in this process and every child, so the only parallelism
# is the sweep's own thread pool; set before numpy loads
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 9
BUILD_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "fit_ms_p50": "ms",
    "iterations": "count",
    "attempts": "count",
    "peak_rss_mb": "MB",
    "mcc": "coef",
}


def import_program():
    if not (SRC / "teralasso" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'teralasso'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import teralasso
    import teralasso.cli
    import teralasso.oracle
    import teralasso.selfcheck

    if Path(teralasso.__file__).resolve().parent != SRC / "teralasso":
        sys.exit(f"error: imported teralasso from {teralasso.__file__}, not {SRC}")
    return teralasso


def startup_s(env) -> float:
    """Wall time of a fresh interpreter importing the program."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import teralasso.cli"], env=env, check=True)
    return time.perf_counter() - t


def main(argv=None) -> int:
    import numpy as np

    from tracer import PER_LAYER, Tracer
    from workloads import WORKLOADS, Context

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep-threads", type=int, default=2,
                    help="sweep-support's --threads; 1 gives the single-threaded baseline")
    args = ap.parse_args(argv)

    tl = import_program()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_root = ROOT / ".perfbench_out"
    out = out_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload]
    WORKLOADS["sweep-support"].threads = args.sweep_threads
    ctx = Context(tl=tl, seed=args.seed, out=out, env=env, traced=bool(args.trace))
    try:
        # set-up = a fresh interpreter importing the program + building the
        # inputs, each repeated and taken at its median
        startups = [startup_s(env) for _ in range(IMPORT_REPEATS)]
        builds = []
        for _ in range(BUILD_REPEATS):
            inputs = None
            t = time.perf_counter()
            inputs = wl.build(ctx)
            builds.append(time.perf_counter() - t)
        setup = statistics.median(startups) + statistics.median(builds)

        tracer = Tracer(tl) if args.trace else None
        if tracer:
            tracer.install()
        rounds, walls = [], []
        start = time.perf_counter()
        try:
            while True:
                t = time.perf_counter()
                rounds.append(wl.round(ctx, inputs))
                walls.append(time.perf_counter() - t)
                if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(out, ignore_errors=True)

    attempted = sum(r.ops for r in rounds)
    failures = [msg for r in rounds for msg in r.failures]
    first = rounds[0]
    for i, r in enumerate(rounds[1:], 2):
        same = (r.iterations, r.attempts, r.mcc, r.confusion.tolist()) == (
            first.iterations, first.attempts, first.mcc, first.confusion.tolist())
        if not same and not r.failures:
            failures.append(f"round {i} differs from round 1 on the same inputs")
    for msg in failures[:10]:
        print(f"FAILED: {msg}", file=sys.stderr)

    run_s = statistics.median(r.work_s for r in rounds)
    print(
        f"# workload={args.workload} seed={args.seed} rounds={len(rounds)} "
        f"round_s={[round(r.work_s, 3) for r in rounds]} run_s={run_s:.4f} "
        f"fits/round={len(first.fit_ms)} nproc={os.cpu_count()} numpy={np.__version__} "
        f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']} traced={args.trace}"
    )
    if tracer:
        values = tracer.metrics(len(rounds), 1e3 * statistics.median(startups))
        out_root.mkdir(exist_ok=True)
        tracer.dump(out_root / f"trace-{args.workload}-seed{args.seed}.json", values)
        metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
    else:
        usage = resource.RUSAGE_CHILDREN if wl.rss == "children" else resource.RUSAGE_SELF
        from checks import mcc_of

        values = {
            "setup_s": setup,
            "run_s": run_s,
            "fit_ms_p50": statistics.median(ms for r in rounds for ms in r.fit_ms),
            "iterations": first.iterations,
            "attempts": first.attempts,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
            "mcc": first.mcc if first.mcc is not None else mcc_of(first.confusion),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    failed = min(len(failures), attempted)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
