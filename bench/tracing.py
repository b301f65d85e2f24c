"""Timing and counting wrappers around hhverify's public functions.

The wrappers are installed from outside the program: each replaces the
original wherever a module of the package holds a reference to it, so a
caller that did ``from .core import corpus_by_id`` sees the wrapper too.
Spans and counters stay in memory; ``write`` puts the spans in one file at
the end.  Layers are named after the modules.  A function that a later
version of the program no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time

RHS = tuple(f"bounds.{t}_rhs" for t in
            ("da", "sso", "bop_m", "bop_am", "thm11", "thm211", "thm22"))
LAYERS = ("core.corpus_by_id", "convexity.check_alpha_m_convex",
          "quadrature.integrate", "quadrature.kernel_moment",
          "bounds.lemma21_residual", *RHS, "means.proposition_check",
          "cli.eval_row", "cli.parse_sweep_file", "cli.rows_to_csv",
          "cli.rows_to_json", "cli.run_sweep")


def unit_of(metric: str) -> str:
    if metric.endswith((".calls", ".evals", ".unconverged")):
        return "count"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric == "convexity.gate_reuse":
        return "rows/call"
    return "s"


def _children_cpu() -> float:
    t = resource.getrusage(resource.RUSAGE_CHILDREN)
    return t.ru_utime + t.ru_stime


class Tracer:
    def __init__(self):
        self.index = {name: i for i, name in enumerate(LAYERS)}
        n = len(LAYERS)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_s = [0.0] * n
        self.spans = []  # (layer index, start, end, parent span index or -1)
        self.stack = []  # [span index, time covered by child spans]
        self.counters = {"integrate.evals": 0, "integrate.unconverged": 0,
                         "eval_row.gated": 0, "rows_to_csv.bytes": 0,
                         "rows_to_json.bytes": 0, "run_sweep.wait_s": 0.0,
                         "run_sweep.worker_cpu_s": 0.0}

    def install(self, package) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for layer in LAYERS:
            mod_name, fn_name = layer.split(".")
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            original = getattr(mod, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(layer, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, layer: str, fn):
        idx = self.index[layer]
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        calls, total, self_s = self.calls, self.total, self.self_s
        after = getattr(self, "_after_" + layer.split(".")[1], None)
        sweep = layer == "cli.run_sweep"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            if sweep:
                cpu0, children0 = time.process_time(), _children_cpu()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[frame[0]] = (idx, t0, t1, parent[0] if parent else -1)
                calls[idx] += 1
                total[idx] += dur
                self_s[idx] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if sweep:
                    self.counters["run_sweep.wait_s"] += dur - (time.process_time() - cpu0)
                    self.counters["run_sweep.worker_cpu_s"] += _children_cpu() - children0
            if after is not None:
                after(result)
            return result

        return wrapper

    def _after_integrate(self, result) -> None:
        self.counters["integrate.evals"] += result.evaluations
        self.counters["integrate.unconverged"] += not result.converged

    def _after_eval_row(self, row) -> None:
        # eval_row fills gate_violation exactly when the row reached the gate
        self.counters["eval_row.gated"] += row.get("gate_violation") is not None

    def _after_rows_to_csv(self, text) -> None:
        self.counters["rows_to_csv.bytes"] += len(text.encode("utf-8"))

    def _after_rows_to_json(self, text) -> None:
        self.counters["rows_to_json.bytes"] += len(text.encode("utf-8"))

    def _get(self, layer: str, what: str) -> float:
        return getattr(self, what)[self.index[layer]]

    def self_times(self) -> dict:
        return {layer: self.self_s[i] for i, layer in enumerate(LAYERS)}

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the traced call, by name (see BENCHMARK.json)."""
        c, g = self.counters, self._get
        gate_calls = g("convexity.check_alpha_m_convex", "calls")
        out = {
            "core.corpus_by_id.calls": g("core.corpus_by_id", "calls"),
            "core.corpus_by_id.s": g("core.corpus_by_id", "total"),
            "convexity.check_alpha_m_convex.calls": gate_calls,
            "convexity.check_alpha_m_convex.s": g("convexity.check_alpha_m_convex", "total"),
            "convexity.gate_reuse": c["eval_row.gated"] / gate_calls if gate_calls else 0.0,
            "quadrature.integrate.calls": g("quadrature.integrate", "calls"),
            "quadrature.integrate.s": g("quadrature.integrate", "total"),
            "quadrature.integrate.evals": c["integrate.evals"],
            "quadrature.integrate.unconverged": c["integrate.unconverged"],
            "quadrature.kernel_moment.s": g("quadrature.kernel_moment", "total"),
            "bounds.lemma21_residual.s": g("bounds.lemma21_residual", "total"),
            "bounds.rhs.calls": sum(g(r, "calls") for r in RHS),
            "bounds.rhs.s": sum(g(r, "total") for r in RHS),
        }
        out.update({f"{r}.s": g(r, "total") for r in RHS})
        out.update({
            "means.proposition_check.s": g("means.proposition_check", "total"),
            "cli.eval_row.calls": g("cli.eval_row", "calls"),
            "cli.eval_row.self_s": g("cli.eval_row", "self_s"),
            "cli.parse_sweep_file.s": g("cli.parse_sweep_file", "total"),
            "cli.rows_to_csv.s": g("cli.rows_to_csv", "total"),
            "cli.rows_to_csv.bytes": c["rows_to_csv.bytes"],
            "cli.rows_to_json.s": g("cli.rows_to_json", "total"),
            "cli.rows_to_json.bytes": c["rows_to_json.bytes"],
            "cli.run_sweep.s": g("cli.run_sweep", "total"),
            "cli.run_sweep.wait_s": c["run_sweep.wait_s"],
            "cli.run_sweep.worker_cpu_s": c["run_sweep.worker_cpu_s"],
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - sum(self.self_s),
        })
        return out

    def write(self, path, workload: str, wall_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "wall_s": wall_s, "layers": list(LAYERS),
                       "span_fields": ["layer", "start", "end", "parent"],
                       "spans": self.spans}, fh)
