"""The four benchmark workloads.

Each workload builds its inputs from the seed (``build``, timed as set-up)
and then runs whole rounds (``round``): the same operations on the same
inputs every round, so the counts of a round repeat exactly and the share of
failed operations is the same in every run.  A round times only the program's
work; the checks that follow it run outside the timed region.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks


@dataclass
class Round:
    work_s: float = 0.0
    fit_ms: list = field(default_factory=list)
    iterations: int = 0
    attempts: int = 0
    ops: int = 0
    failures: list = field(default_factory=list)  # one message per failed operation
    confusion: np.ndarray = field(default_factory=lambda: np.zeros(4, dtype=np.int64))
    mcc: float | None = None  # set when the program reports the MCC itself

    def add_report(self, report) -> None:
        self.iterations += report.iterations
        self.attempts += report.iterations + sum(report.backtrack_counts)


def instance_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0] >> 1)


def mcc_agrees(tl, truth, est, counts) -> list:
    """The program's metrics.mcc must equal the MCC of our own edge counts."""
    lib = tl.mcc(tl.edge_support(truth), tl.edge_support(est))
    own = checks.mcc_of(counts)
    return [] if abs(lib - own) <= 1e-12 else [f"metrics.mcc {lib!r} != {own!r}"]


@dataclass
class Context:
    tl: object  # the teralasso package
    seed: int
    out: Path  # scratch directory inside the checkout
    env: dict  # environment for child processes
    traced: bool


class FitLarge:
    """[100,100,100] (p = 10^6) ER truths; a fit is gram_factors + solve."""

    name = "fit-large"
    dims = (100, 100, 100)
    instances = 8
    n = 2
    rho_bar = 0.5
    rss = "self"

    def build(self, ctx):
        tl = ctx.tl
        dims = tl.Dims(self.dims)
        out = []
        for i in range(self.instances):
            s = instance_seed(ctx.seed, i)
            truth = tl.FactorSet(
                dims, [tl.er_factor(d, d, s + 1000 * k) for k, d in enumerate(self.dims)]
            )
            out.append((truth, tl.sample_ksum_gaussian(truth, self.n, s)))
        return out

    def round(self, ctx, inputs) -> Round:
        tl = ctx.tl
        r = Round(ops=len(inputs))
        fits = []
        for truth, data in inputs:
            t = time.perf_counter()
            try:
                est, report = tl.solve(
                    tl.gram_factors(data), config=tl.SolverConfig(rho_bar=self.rho_bar)
                )
            except Exception as exc:  # a program fault fails this operation only
                r.failures.append(f"solve raised {exc!r}")
                continue
            dt = time.perf_counter() - t
            r.work_s += dt
            r.fit_ms.append(1e3 * dt)
            fits.append((truth, data, est, report))
        for truth, data, est, report in fits:
            r.add_report(report)
            problems = [] if report.termination != "max-iter" else ["solve hit the iteration cap"]
            grams = checks.mode_grams(data.values, self.dims)
            rho = checks.rho_for(self.rho_bar, self.dims, data.n)
            problems += checks.optimality(est.psi, grams, rho)
            counts = checks.confusion(truth.psi, est.psi)
            problems += mcc_agrees(tl, truth, est, counts)
            r.confusion += counts
            if problems:
                r.failures.append("; ".join(problems))
        return r


class SweepSupport:
    """The paper's support-recovery sweep, run in process through the CLI."""

    name = "sweep-support"
    rho_grid = tuple(float(x) for x in np.logspace(-2, 1, 7))
    n_list = (1, 100)
    trials = 2
    threads = 2
    rss = "self"

    def build(self, ctx):
        out = ctx.out / "sweep"
        argv = [
            "sweep", "--kind", "support", "--model", "er",
            "--dims", "32,32", "--edges", "16,16",
            "--n", ",".join(map(str, self.n_list)),
            "--rho-grid", ",".join(repr(x) for x in self.rho_grid),
            "--trials", str(self.trials), "--seed", str(ctx.seed),
            "--max-iter", "400", "--threads", str(self.threads), "--out", str(out),
        ]
        return argv, out

    def round(self, ctx, inputs) -> Round:
        argv, out = inputs
        metrics = ctx.tl.metrics
        solve = metrics.solve
        solves, lock = [], threading.Lock()

        def timed_solve(*args, **kwargs):
            t = time.perf_counter()
            est, report = solve(*args, **kwargs)
            dt = time.perf_counter() - t
            with lock:
                solves.append((dt, report))
            return est, report

        expected = len(self.n_list) * len(self.rho_grid) * self.trials
        r = Round(ops=expected)
        metrics.solve = timed_solve
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t = time.perf_counter()
                code = ctx.tl.cli.main(argv)
                r.work_s = time.perf_counter() - t
        except Exception as exc:
            r.failures = [f"sweep raised {exc!r}"] * expected
            return r
        finally:
            metrics.solve = solve
        for dt, report in solves:
            r.fit_ms.append(1e3 * dt)
            r.add_report(report)
        problems = [] if code == 0 else [f"sweep exited {code}"]
        if len(solves) != expected:
            problems.append(f"{len(solves)} solves, expected {expected}")
        with open(out / "support.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        problems += checks.support_property(rows)
        r.mcc = next((float(row["mcc"]) for row in rows if int(row["n"]) == 100), 0.0)
        if problems:
            r.failures = ["; ".join(problems)] * expected
        return r


class CliK4:
    """generate -> estimate -> evaluate on [20,20,20,20] (p = 160,000)."""

    name = "cli-k4"
    dims = (20, 20, 20, 20)
    instances = 3
    ar_coeff = 0.5
    n = 50
    rho_bar = 0.5
    rss = "children"

    def build(self, ctx):
        runs = []
        for i in range(self.instances):
            s = instance_seed(ctx.seed, i)
            d = ctx.out / f"k4-{i}"
            runs.append((d, [
                ["generate", "--model", "ar1", "--ar-coeff", repr(self.ar_coeff),
                 "--dims", ",".join(map(str, self.dims)),
                 "--n", str(self.n), "--seed", str(s), "--out", str(d)],
                ["estimate", "--data", str(d / "samples.ktns"),
                 "--rho-bar", repr(self.rho_bar), "--out", str(d)],
                ["evaluate", "--truth", str(d / "truth.json"),
                 "--estimate", str(d / "estimate.json"), "--out", str(d)],
            ]))
        return runs

    def _command(self, ctx, argv) -> int:
        if ctx.traced:
            # in process, so the tracer sees the layers under each command
            with contextlib.redirect_stdout(io.StringIO()):
                return ctx.tl.cli.main(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "teralasso.cli", *argv],
            env=ctx.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        return proc.returncode

    def round(self, ctx, inputs) -> Round:
        r = Round(ops=len(inputs))
        for d, commands in inputs:
            codes, times = [], []
            for argv in commands:
                t = time.perf_counter()
                try:
                    codes.append(self._command(ctx, argv))
                except Exception as exc:
                    codes.append(repr(exc))
                times.append(time.perf_counter() - t)
            r.work_s += sum(times)
            r.fit_ms.append(1e3 * times[1])
            problems = [f"{argv[0]} exited {c}" for argv, c in zip(commands, codes) if c != 0]
            if not problems:
                problems = self._check(r, d)
            if problems:
                r.failures.append("; ".join(problems))
            shutil.rmtree(d, ignore_errors=True)
        return r

    def _check(self, r: Round, d: Path) -> list:
        values, problems = checks.read_ktns(d / "samples.ktns", self.dims, self.n)
        if problems:
            return problems
        truth = checks.read_factors(d / "truth.json")
        est = checks.read_factors(d / "estimate.json")
        with open(d / "report.json") as fh:
            report = json.load(fh)
        with open(d / "metrics.json") as fh:
            reported_mcc = json.load(fh)["mcc"]
        r.iterations += report["iterations"]
        r.attempts += report["iterations"] + sum(report["backtracks"])
        grams = checks.mode_grams(values, self.dims)
        problems += checks.optimality(est, grams, checks.rho_for(self.rho_bar, self.dims, self.n))
        counts = checks.confusion(truth, est)
        r.confusion += counts
        if abs(reported_mcc - checks.mcc_of(counts)) > 1e-12:
            problems.append(f"metrics.json mcc {reported_mcc!r} != {checks.mcc_of(counts)!r}")
        return problems


class OracleCheck:
    """The self-check battery plus dense reference solves at p = 36."""

    name = "oracle-check"
    # 32 of [3,3,4] and 4 of [6,6], so the median dense solve is a [3,3,4] one
    shapes = ((3, 3, 4),) * 32 + ((6, 6),) * 4
    n = 100
    ar_coeff = 0.5
    rho_bar = 0.5
    rss = "self"

    def build(self, ctx):
        # AR(1) truths: the dense solver's iteration count then varies only
        # with the samples, which keeps its timings steady across seeds
        tl = ctx.tl
        out = []
        for i, shape in enumerate(self.shapes):
            dims = tl.Dims(shape)
            truth = tl.FactorSet(dims, [tl.ar1_factor(d, self.ar_coeff) for d in shape])
            data = tl.sample_ksum_gaussian(truth, self.n, instance_seed(ctx.seed, i))
            s_hat = data.values.T @ data.values / self.n
            rho = checks.rho_for(self.rho_bar, shape, self.n)
            problem = tl.oracle.DenseProblem(dims, s_hat, rho)
            out.append((shape, truth, tl.gram_factors(data), s_hat, rho, problem))
        return out

    def round(self, ctx, inputs) -> Round:
        tl = ctx.tl
        r = Round(ops=len(inputs) + 1)
        t = time.perf_counter()
        try:
            rows = tl.selfcheck.run_selfcheck(seed=ctx.seed)
        except Exception as exc:
            rows = [("selfcheck", repr(exc), 0.0, False)]
        r.work_s += time.perf_counter() - t
        failed_rows = [f"{name}={value}" for name, value, _, ok in rows if not ok]
        if failed_rows:
            r.failures.append("selfcheck: " + ", ".join(failed_rows))
        solved = []
        for shape, truth, gram, s_hat, rho, problem in inputs:
            t = time.perf_counter()
            try:
                omega_ref, converged = tl.oracle.dense_solver(problem, tol=1e-8)
                t_dense = time.perf_counter() - t
                est, report = tl.solve(gram, n=self.n, config=tl.SolverConfig(rho_bar=self.rho_bar))
            except Exception as exc:
                r.failures.append(f"{shape} raised {exc!r}")
                continue
            r.work_s += time.perf_counter() - t
            r.fit_ms.append(1e3 * t_dense)
            solved.append((shape, truth, s_hat, rho, omega_ref, converged, est, report))
        for shape, truth, s_hat, rho, omega_ref, converged, est, report in solved:
            r.add_report(report)
            counts = checks.confusion(truth.psi, est.psi)
            r.confusion += counts
            problems = [] if converged else ["dense reference did not converge"]
            problems += mcc_agrees(tl, truth, est, counts)
            fast = checks.dense_objective(checks.kron_sum(est.psi), s_hat, shape, rho)
            ref = checks.dense_objective(omega_ref, s_hat, shape, rho)
            if not abs(fast - ref) <= 1e-6:
                problems.append(f"{shape}: fast objective {fast!r} vs dense optimum {ref!r}")
            if problems:
                r.failures.append("; ".join(problems))
        return r


WORKLOADS = {w.name: w for w in (FitLarge(), SweepSupport(), CliK4(), OracleCheck())}
