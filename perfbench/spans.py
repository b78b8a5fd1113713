"""Spans around the public functions of every riskshare layer.

A `Tracer` rebinds each traced function at every module attribute that
holds it (functions imported by name into other modules included), and
refuses to start if any binding is left unwrapped: a missed binding would
make its layer look free.  Spans stay in memory until the run ends.  The
package source is not modified.
"""

import functools
import importlib
import math
import pkgutil
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, function) pairs, with every module expected to hold a binding
TRACED = {
    ("linprog", "solve"): ("linprog",),
    ("linprog", "null_space"): ("linprog",),
    ("regime", "rho"): ("regime", "market", "lawinv", "equilibrium",
                        "oracle", "splits", "cli"),
    ("regime", "base_risk"): ("regime", "lawinv"),
    ("regime", "conjugate"): ("regime", "equilibrium", "splits"),
    ("regime", "validate_regime"): ("regime", "cli"),
    ("market", "capital_requirement"): ("market", "cli"),
    ("market", "nsa_check"): ("market", "cli"),
    ("lawinv", "law_invariant_requirement"): ("lawinv",),
    ("lawinv", "law_invariant_sharing"): ("lawinv",),
    ("lawinv", "convolution_value"): ("lawinv",),
    ("lawinv", "convolution_split"): ("lawinv",),
    ("equilibrium", "build_equilibrium"): ("equilibrium",),
    ("equilibrium", "verify_equilibrium"): ("equilibrium",),
    ("equilibrium", "subgradient"): ("equilibrium",),
    ("splits", "split_optimize"): ("splits",),
    ("oracle", "verify_pareto"): ("oracle",),
    ("oracle", "brute_lambda"): ("oracle",),
    ("problemfile", "load_problem"): ("problemfile", "cli"),
    ("cli", "run"): ("cli",),
}


def _modules():
    import riskshare
    for info in pkgutil.iter_modules(riskshare.__path__):
        importlib.import_module(f"riskshare.{info.name}")
    return {name.split(".", 1)[1]: mod
            for name, mod in list(sys.modules.items())
            if name.startswith("riskshare.")}


def _oracle_rows(args, out):
    """Grid rows a Pareto sweep scanned: every row over the coordinates both
    agents can hold when it certifies; a witness stops it early."""
    s, grid = args[0], args[3]
    both = s.regimes[0].support.included & s.regimes[1].support.included
    rows = math.prod(c for c, free in zip(grid.counts, both) if free)
    return rows if out.pareto else 0


def _extras(key, args, out, counts):
    """Work counters read off the (positional) arguments and the result of
    one call."""
    if key == "linprog.solve":
        rows = args[0].rows
        counts["linprog.solve.cells"] += rows.shape[0] * rows.shape[1]
        if out is not None:
            counts["linprog.solve.pivots"] += out.iterations
            counts[f"linprog.solve.status.{out.status}"] += 1
    elif key == "regime.base_risk":
        counts[f"regime.base_risk.calls.{args[0]}"] += 1
    elif key == "splits.split_optimize" and out is not None:
        counts["splits.sweep_points"] += len(out.objectives)
    elif key == "oracle.brute_lambda" and out is not None:
        counts["oracle.rows"] += out.points
    elif key == "oracle.verify_pareto" and out is not None:
        counts["oracle.rows"] += _oracle_rows(args, out)


class Tracer:
    """Context manager: rebinds the traced functions on entry, restores
    them on exit.  Spans are (name, start, end, parent index, request id)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request = None
        self._stack = []
        self._restore = []

    def _wrap(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception:
                self.counts[f"{key}.failed"] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (key, start, end, parent, self.request)
                _extras(key, args, out, self.counts)
        return wrapper

    def __enter__(self):
        modules = _modules()
        for (mod_name, fn_name), holders in TRACED.items():
            key = f"{mod_name}.{fn_name}"
            original = getattr(modules[mod_name], fn_name)
            wrapper = self._wrap(key, original)
            bound = set()
            for name, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
                        bound.add(name)
            missing = set(holders) - bound
            if missing:
                self.__exit__(None, None, None)
                raise RuntimeError(
                    f"{key} is not bound in {sorted(missing)}; the traced "
                    "run would miss calls made through those modules")
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()
        return False

    def write(self, path):
        """All spans, one per line: name, start, end, parent, request."""
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                         f"{request}\n")

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds (duration
        minus the time covered by direct children); plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            st = stats[name]
            st[0] += 1
            st[1] += end - start
            st[2] += end - start - child[idx]
        return {"spans": dict(stats), "counts": dict(self.counts)}


def merge(summaries):
    """Sum several summaries (for instance, one per CLI child process)."""
    spans = defaultdict(lambda: [0, 0.0, 0.0])
    counts = Counter()
    for s in summaries:
        for name, (calls, total, own) in s["spans"].items():
            st = spans[name]
            st[0] += calls
            st[1] += total
            st[2] += own
        counts.update(s["counts"])
    return {"spans": dict(spans), "counts": dict(counts)}


def layer_calls(summary):
    calls = Counter()
    for name, (n, _, _) in summary["spans"].items():
        calls[name.split(".", 1)[0]] += n
    return calls


def per_layer_metrics(summary, wall, extra):
    """The per-layer metrics named in BENCHMARK.json, from the summary of a
    traced pass that took `wall` seconds and the measurements taken outside
    the spans (`extra`, name -> (value, unit)).  Self times are reported as
    shares of the pass, so a layer the workload bypasses reads 0 and no
    time metric is constant."""
    spans, counts = summary["spans"], summary["counts"]

    def calls(key):
        return spans.get(key, [0, 0.0, 0.0])[0]

    def total(key):
        return spans.get(key, [0, 0.0, 0.0])[1]

    def share(key):
        return (spans.get(key, [0, 0.0, 0.0])[2] / wall, "ratio")

    def count(key):
        return (counts.get(key, 0), "count")

    solves = calls("linprog.solve")
    oracle_s = total("oracle.verify_pareto") + total("oracle.brute_lambda")
    m = {
        "linprog.solve.calls": (solves, "count"),
        "linprog.solve.pivots": count("linprog.solve.pivots"),
        "linprog.solve.self_frac": share("linprog.solve"),
        "linprog.solve.us_per_call": (
            1e6 * total("linprog.solve") / solves if solves else 0.0, "us"),
        "linprog.solve.cells": count("linprog.solve.cells"),
        "linprog.solve.status.infeasible": count(
            "linprog.solve.status.infeasible"),
        "linprog.solve.status.unbounded": count(
            "linprog.solve.status.unbounded"),
        "linprog.solve.failed": count("linprog.solve.failed"),
        "linprog.null_space.calls": (calls("linprog.null_space"), "count"),
        "linprog.null_space.self_frac": share("linprog.null_space"),
        "regime.rho.calls": (calls("regime.rho"), "count"),
        "regime.rho.self_frac": share("regime.rho"),
        "regime.base_risk.calls.entropic": count(
            "regime.base_risk.calls.entropic"),
        "regime.base_risk.calls.avar": count("regime.base_risk.calls.avar"),
        "regime.base_risk.calls.expectation": count(
            "regime.base_risk.calls.expectation"),
        "regime.base_risk.self_frac": share("regime.base_risk"),
        "regime.conjugate.calls": (calls("regime.conjugate"), "count"),
        "regime.conjugate.self_frac": share("regime.conjugate"),
        "regime.validate_regime.self_frac": share("regime.validate_regime"),
        "market.capital_requirement.calls": (
            calls("market.capital_requirement"), "count"),
        "market.capital_requirement.self_frac": share(
            "market.capital_requirement"),
        "market.nsa_check.calls": (calls("market.nsa_check"), "count"),
        "market.nsa_check.self_frac": share("market.nsa_check"),
        "lawinv.law_invariant_requirement.calls": (
            calls("lawinv.law_invariant_requirement"), "count"),
        "lawinv.law_invariant_requirement.self_frac": share(
            "lawinv.law_invariant_requirement"),
        "lawinv.law_invariant_sharing.self_frac": share(
            "lawinv.law_invariant_sharing"),
        "lawinv.convolution_value.calls": (
            calls("lawinv.convolution_value"), "count"),
        "lawinv.convolution_value.self_frac": share(
            "lawinv.convolution_value"),
        "lawinv.convolution_split.calls": (
            calls("lawinv.convolution_split"), "count"),
        "equilibrium.build_equilibrium.self_frac": share(
            "equilibrium.build_equilibrium"),
        "equilibrium.verify_equilibrium.self_frac": share(
            "equilibrium.verify_equilibrium"),
        "equilibrium.subgradient.calls": (
            calls("equilibrium.subgradient"), "count"),
        "splits.split_optimize.self_frac": share("splits.split_optimize"),
        "splits.sweep_points": count("splits.sweep_points"),
        "oracle.rows": count("oracle.rows"),
        "oracle.rows_per_s": (
            counts.get("oracle.rows", 0) / oracle_s if oracle_s else 0.0,
            "1/s"),
        "oracle.verify_pareto.self_frac": share("oracle.verify_pareto"),
        "oracle.brute_lambda.self_frac": share("oracle.brute_lambda"),
        "problemfile.load_problem.calls": (
            calls("problemfile.load_problem"), "count"),
        "problemfile.load_problem.self_frac": share(
            "problemfile.load_problem"),
        "cli.run.self_frac": share("cli.run"),
    }
    m.update(extra)
    return m
