"""Write a benchmark snapshot of one checkout: its work counters and its timing spread.

    python3 tools/bench_snapshot.py [--root DIR] [--workload NAME ...] [--runs N] [--seconds S]

For each workload, runs the checkout's ``perfbench/run.py`` once traced and N
times untraced at seed 1, each in its own process, and writes
``bench/BENCH_<label>.json`` in this checkout.  The label is the checkout's short git SHA,
with ``-dirty`` appended when ``src/`` or ``perfbench/`` differ from that
commit.  Per workload the snapshot holds:

- ``counters``: the end-to-end counts (``iterations``, ``attempts``, ``mcc``),
  which must repeat exactly across the untraced runs, and every traced
  per-layer metric that is not a time (call counts, ratios, megabytes).  The
  tracer divides those by the rounds run, so a count of work done once per
  run, such as a cached Gram centering, varies with the number of rounds;
- ``timings``: every other end-to-end metric, as the median, Q1 and Q3 of the
  untraced runs, with the runs themselves;
- ``traced_ms``: the per-layer times of the traced run (one run, so no spread);
- ``env``: the ``#`` line of the first untraced run (rounds, nproc, numpy, BLAS
  threads);
- ``traced_env``: the ``#`` line of the traced run, whose ``rounds`` the
  traced counters were divided by.

Two snapshots made on one machine compare counters exactly, and a count of
cached work only at equal traced ``rounds``; a timing delta inside the
parent's Q1-Q3 is unresolved.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fit-large", "sweep-support", "cli-k4", "oracle-check")
COUNTERS = ("iterations", "attempts", "mcc")
SEED = 1


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def commit_of(root: Path) -> tuple[str, bool]:
    """The checkout's short SHA, and whether its src/ or perfbench/ differ from it."""
    sha = git(root, "rev-parse", "--short", "HEAD")
    return sha, bool(git(root, "status", "--porcelain", "--", "src", "perfbench"))


def bench(root: Path, workload: str, seconds: float, trace: int) -> tuple[str, dict]:
    """One ``perfbench/run.py`` run: its ``#`` line and its metrics, by name,
    as ``{"value", "unit"}``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = [line for line in lines if line.startswith("#")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.exit(f"error: {' '.join(argv[1:])} printed no result:\n{proc.stderr.strip()}")
    if not result["correct"]:
        sys.exit(f"error: {workload} failed {result['failed']} of {result['attempted']} "
                 f"operations:\n{proc.stderr.strip()}")
    return env[-1], result["metrics"]


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def snapshot(root: Path, workload: str, seconds: float, runs: int) -> dict:
    traced_env, traced = bench(root, workload, seconds, trace=1)
    envs, results = zip(*(bench(root, workload, seconds, trace=0) for _ in range(runs)))
    counters = {}
    for name in COUNTERS:
        seen = {r[name]["value"] for r in results}
        if len(seen) != 1:
            sys.exit(f"error: {workload} {name} differs between runs: {sorted(seen)}")
        counters[name] = seen.pop()
    counters.update({k: m["value"] for k, m in traced.items() if m["unit"] != "ms"})
    return {
        "counters": counters,
        "timings": {k: {"unit": m["unit"], **spread([r[k]["value"] for r in results])}
                    for k, m in results[0].items() if k not in COUNTERS},
        "traced_ms": {k: m["value"] for k, m in traced.items() if m["unit"] == "ms"},
        "env": envs[0],
        "traced_env": traced_env,
    }


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=here,
                    help="checkout to measure (default: this one)")
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10, help="untraced runs per workload")
    ap.add_argument("--seconds", type=float, default=25.0, help="perfbench --seconds of each run")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    root = args.root.resolve()
    sha, dirty = commit_of(root)
    snap = {"sha": sha, "dirty": dirty, "seed": SEED, "seconds": args.seconds,
            "runs": args.runs, "python": sys.version.split()[0], "workloads": {}}
    for workload in args.workload:
        print(f"{workload} ...", file=sys.stderr)
        snap["workloads"][workload] = snapshot(root, workload, args.seconds, args.runs)
    out = here / "bench"
    out.mkdir(exist_ok=True)
    path = out / f"BENCH_{sha}{'-dirty' if dirty else ''}.json"
    path.write_text(json.dumps(snap, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
