"""Spans and counts at the boundaries of the program's modules.

The program is not instrumented.  :class:`Tracer` replaces the public
functions of each ``teralasso`` module, in every module namespace that binds
them, with wrappers that record a span (name, start, end, parent, thread) and
the counts the per-layer metrics need.  Spans stay in memory until the run
ends.  Wrappers are thread-safe: the support sweep solves on two threads.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from collections import defaultdict

LAYERS = ("ksum", "data", "solver", "metrics", "oracle", "selfcheck", "cli")

# metrics-module functions that score an estimate against a truth
EVALUATORS = (
    "metrics.edge_support",
    "metrics.mcc",
    "metrics.precision_recall",
    "metrics.estimation_errors",
)
SWEEP = "metrics.run_support_experiment"

# Every per-layer metric, with its unit and better direction.  A layer that a
# workload does not call reads 0.
PER_LAYER = {
    "ksum.grid.calls": ("count", "lower"),
    "ksum.grid.mb": ("MB", "lower"),
    "ksum.logdet.ms": ("ms", "lower"),
    "ksum.proj_inverse.ms": ("ms", "lower"),
    "ksum.eigensystem.calls": ("count", "lower"),
    "ksum.eigensystem.ms": ("ms", "lower"),
    "ksum.inner.calls": ("count", "lower"),
    "ksum.inner.ms": ("ms", "lower"),
    "ksum.factorset.calls": ("count", "lower"),
    "ksum.factorset.ms": ("ms", "lower"),
    "solver.solve.ms": ("ms", "lower"),
    "solver.line_search.ms": ("ms", "lower"),
    "solver.gradient.ms": ("ms", "lower"),
    "solver.kkt.calls": ("count", "lower"),
    "solver.kkt.ms": ("ms", "lower"),
    "solver.backtracks": ("count", "lower"),
    "solver.safe_steps": ("count", "lower"),
    "solver.capped": ("count", "lower"),
    "solver.accept_ratio": ("ratio", "higher"),
    "data.sample.ms": ("ms", "lower"),
    "data.sample.replicates": ("count", "lower"),
    "data.gram.calls": ("count", "lower"),
    "data.gram.ms": ("ms", "lower"),
    "data.center_gram.calls": ("count", "lower"),
    "data.ktns_write.ms": ("ms", "lower"),
    "data.ktns_read.ms": ("ms", "lower"),
    "data.ktns.mb": ("MB", "lower"),
    "metrics.sweep.self_ms": ("ms", "lower"),
    "metrics.cells": ("count", "lower"),
    "metrics.sample_reuse": ("ratio", "higher"),
    "metrics.evaluate.ms": ("ms", "lower"),
    "oracle.dense_solver.ms": ("ms", "lower"),
    "oracle.dense_iters": ("count", "lower"),
    "oracle.basis_projection.ms": ("ms", "lower"),
    "selfcheck.run.ms": ("ms", "lower"),
    "selfcheck.sampler_moments.ms": ("ms", "lower"),
    "cli.startup.ms": ("ms", "lower"),
    "cli.generate.ms": ("ms", "lower"),
    "cli.estimate.ms": ("ms", "lower"),
    "cli.evaluate.ms": ("ms", "lower"),
}


class Tracer:
    """Records spans and counts while installed; restores the program on uninstall."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.spans = []  # (id, name, start, end, parent id, thread id)
        self.counts = defaultdict(float)
        self.sample_keys = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._next_id = 0
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        ksum, solver, selfcheck = self.modules["ksum"], self.modules["solver"], self.modules["selfcheck"]
        targets = {}
        for layer, mod in self.modules.items():
            names = list(getattr(mod, "__all__", ()))
            if layer == "cli":
                names += ["main", "cmd_generate", "cmd_estimate", "cmd_evaluate", "cmd_sweep", "cmd_selfcheck"]
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[fn] = self._wrap(fn, f"{layer}.{name}", self._hook(f"{layer}.{name}", fn))
        # rebind every namespace that imported a wrapped function by name
        spaces = [self.package] + list(self.modules.values())
        for space in spaces:
            for attr, val in list(vars(space).items()):
                if inspect.isfunction(val) and val in targets:
                    self._set(space, attr, targets[val])
        init = ksum.FactorSet.__init__
        self._set(ksum.FactorSet, "__init__", self._wrap(init, "ksum.FactorSet", None))
        checks = [
            (name, self._wrap(fn, f"selfcheck.{fn.__name__}", None), tol)
            for name, fn, tol in selfcheck.CHECKS
        ]
        self._set(selfcheck, "CHECKS", checks)
        self.max_backtracks = solver.SolverConfig().max_backtracks

    def uninstall(self) -> None:
        for obj, attr, old in reversed(self._undo):
            setattr(obj, attr, old)
        self._undo.clear()

    def _set(self, obj, attr, new) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    # -- spans ------------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's outermost call belongs to whatever the
                # main thread is running, such as the sweep that fanned it out
                parent = tracer._main_stack[-1] if tracer._main_stack else -1
            with tracer._lock:
                sid = tracer._next_id
                tracer._next_id += 1
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((sid, name, start, end, parent, threading.get_ident()))
            if hook is not None:
                hook(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _count(self, key, value=1.0) -> None:
        with self._lock:
            self.counts[key] += value

    def _hook(self, name, fn):
        """Counts taken from a call's arguments and result, or None."""
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            b = sig.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        if name == "ksum.eigsum_grid":
            def hook(args, kwargs, out):
                self._count("grid_bytes", out.nbytes)
            return hook
        if name == "data.sample_ksum_gaussian":
            def hook(args, kwargs, out):
                a = bound(args, kwargs)
                key = (int(a["n"]), int(a["seed"]), tuple(m.tobytes() for m in a["f"].psi))
                with self._lock:
                    self.counts["replicates"] += out.n
                    self.sample_keys.add(hash(key))
            return hook
        if name in ("data.write_ktns", "data.read_ktns"):
            def hook(args, kwargs, out):
                data = out if out is not None else bound(args, kwargs)["data"]
                self._count("ktns_bytes", data.values.nbytes)
            return hook
        if name == "solver.solve":
            def hook(args, kwargs, out):
                config = bound(args, kwargs)["config"]
                cap = config.max_backtracks if config is not None else self.max_backtracks
                report = out[1]
                with self._lock:
                    self.counts["iterations"] += report.iterations
                    self.counts["backtracks"] += sum(report.backtrack_counts)
                    self.counts["safe_steps"] += sum(b >= cap for b in report.backtrack_counts)
                    self.counts["capped"] += report.termination == "max-iter"
            return hook
        return None

    # -- derived metrics --------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span: its duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered, reach = 0.0, start
            for s, e in sorted(children.get(sid, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            out[sid] = (end - start) - covered
        return out

    def layer_self_ms(self) -> dict:
        own = self.self_times()
        out = defaultdict(float)
        for sid, name, *_ in self.spans:
            out[name.split(".")[0]] += 1e3 * own[sid]
        return {layer: out[layer] for layer in LAYERS}

    def metrics(self, rounds: int, startup_ms: float) -> dict:
        """Per-layer metrics per round of the workload, from the recorded spans."""
        parent_of = {sid: (name, parent) for sid, name, _, _, parent, _ in self.spans}

        def under(parent, names):
            # the nearest enclosing span whose name is in ``names``, or None
            while parent in parent_of:
                if parent_of[parent][0] in names:
                    return parent
                parent = parent_of[parent][1]
            return None

        calls = defaultdict(int)
        ms = defaultdict(float)  # inclusive time of the outermost span of each name
        evaluate = 0.0
        dense_calls = defaultdict(int)
        for sid, name, start, end, parent, _ in self.spans:
            calls[name] += 1
            if under(parent, (name,)) is None:
                ms[name] += 1e3 * (end - start)
            if name in EVALUATORS and under(parent, EVALUATORS) is None:
                evaluate += 1e3 * (end - start)
            if name == "ksum.kron_sum_dense":
                dense = under(parent, ("oracle.dense_solver",))
                if dense is not None:
                    dense_calls[dense] += 1
        # a dense iteration builds two dense Kronecker sums: the new iterate
        # and the gradient for its KKT test
        dense_iters = sum(n // 2 for n in dense_calls.values())
        own = self.self_times()
        sweep_self = 1e3 * sum(own[sid] for sid, name, *_ in self.spans if name == SWEEP)
        c = self.counts
        attempts = c["iterations"] + c["backtracks"]
        n_samples = calls["data.sample_ksum_gaussian"]
        r = float(rounds)
        values = {
            "ksum.grid.calls": calls["ksum.eigsum_grid"] / r,
            "ksum.grid.mb": c["grid_bytes"] / 1e6 / r,
            "ksum.logdet.ms": ms["ksum.ksum_logdet"] / r,
            "ksum.proj_inverse.ms": ms["ksum.proj_inverse_spectrum"] / r,
            "ksum.eigensystem.calls": calls["ksum.ksum_eigensystem"] / r,
            "ksum.eigensystem.ms": ms["ksum.ksum_eigensystem"] / r,
            "ksum.inner.calls": calls["ksum.ksum_inner"] / r,
            "ksum.inner.ms": ms["ksum.ksum_inner"] / r,
            "ksum.factorset.calls": calls["ksum.FactorSet"] / r,
            "ksum.factorset.ms": ms["ksum.FactorSet"] / r,
            "solver.solve.ms": ms["solver.solve"] / r,
            "solver.line_search.ms": ms["solver.line_search"] / r,
            "solver.gradient.ms": ms["solver.subspace_gradient"] / r,
            "solver.kkt.calls": calls["solver.kkt_residual"] / r,
            "solver.kkt.ms": ms["solver.kkt_residual"] / r,
            "solver.backtracks": c["backtracks"] / r,
            "solver.safe_steps": c["safe_steps"] / r,
            "solver.capped": c["capped"] / r,
            "solver.accept_ratio": c["iterations"] / attempts if attempts else 0.0,
            "data.sample.ms": ms["data.sample_ksum_gaussian"] / r,
            "data.sample.replicates": c["replicates"] / r,
            "data.gram.calls": calls["data.gram_factors"] / r,
            "data.gram.ms": ms["data.gram_factors"] / r,
            "data.center_gram.calls": calls["data.center_gram"] / r,
            "data.ktns_write.ms": ms["data.write_ktns"] / r,
            "data.ktns_read.ms": ms["data.read_ktns"] / r,
            "data.ktns.mb": c["ktns_bytes"] / 1e6 / r,
            "metrics.sweep.self_ms": sweep_self / r,
            "metrics.cells": calls["metrics.make_truth"] / r,
            # rounds repeat the same data sets, so compare with one round's calls
            "metrics.sample_reuse": len(self.sample_keys) * r / n_samples if n_samples else 0.0,
            "metrics.evaluate.ms": evaluate / r,
            "oracle.dense_solver.ms": ms["oracle.dense_solver"] / r,
            "oracle.dense_iters": dense_iters / r,
            "oracle.basis_projection.ms": ms["oracle.basis_projection"] / r,
            "selfcheck.run.ms": ms["selfcheck.run_selfcheck"] / r,
            "selfcheck.sampler_moments.ms": ms["selfcheck.check_sampler_moments"] / r,
            "cli.startup.ms": startup_ms,
            "cli.generate.ms": ms["cli.cmd_generate"] / r,
            "cli.estimate.ms": ms["cli.cmd_estimate"] / r,
            "cli.evaluate.ms": ms["cli.cmd_evaluate"] / r,
        }
        return values

    def dump(self, path, metrics: dict, limit: int = 200_000) -> None:
        """Write the per-layer metrics, self time per layer and the first spans."""
        base = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w") as fh:
            json.dump(
                {
                    "metrics": metrics,
                    "layer_self_ms": self.layer_self_ms(),
                    "span_count": len(self.spans),
                    "spans": [
                        [sid, name, round(s - base, 7), round(e - base, 7), parent, tid]
                        for sid, name, s, e, parent, tid in self.spans[:limit]
                    ],
                },
                fh,
            )
