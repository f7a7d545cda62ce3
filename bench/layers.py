"""Layer tracing from outside the program.

The tracer replaces the public functions of each fragsurv module with
wrappers, by patching the names their callers look up (for example
`fragsurv.cli.fragility_index` and `fragsurv.survival.reg_lower_inc_gamma`).
Each wrapped call records a span (name, start, end, parent span, op id) and
bumps counters, all in memory; `write` dumps them when the run ends. A name
the program no longer has is skipped, so the benchmark keeps running as the
modules change; its counters then read 0.
"""

from __future__ import annotations

import importlib
import json
import math
import os
from collections import Counter
from pathlib import Path
from time import perf_counter

LOG10_2 = math.log10(2.0)

# span name -> the module attributes callers resolve it through
PATCHES = {
    "cli.main": ["fragsurv.cli.main"],
    "cli.build_parser": ["fragsurv.cli.build_parser"],
    "cli.ingest_csv": ["fragsurv.cli.ingest_csv"],
    "cli.write_csv": ["fragsurv.cli.write_csv"],
    "cli.build_report": ["fragsurv.cli.build_report"],
    "cli.render_json": ["fragsurv.cli.render_json"],
    "cli.render_text": ["fragsurv.cli.render_text"],
    "cli.render_km_svg": ["fragsurv.cli.render_km_svg"],
    "fragility.fragility_index": ["fragsurv.cli.fragility_index", "fragsurv.fragility.fragility_index",
                                  "fragsurv.sim.fragility_index"],
    "fragility.sensitivity_scan": ["fragsurv.cli.sensitivity_scan"],
    "fragility.calibrate": ["fragsurv.cli.calibrate"],
    "survival.posterior_update": ["fragsurv.fragility.posterior_update", "fragsurv.cli.posterior_update"],
    "specfun.reg_lower_inc_gamma": ["fragsurv.survival.reg_lower_inc_gamma",
                                    "fragsurv.fragility.reg_lower_inc_gamma"],
    "specfun.bisect_root": ["fragsurv.fragility.bisect_root"],
    "km.km_estimate": ["fragsurv.cli.km_estimate"],
    "km.km_to_plot_points": ["fragsurv.cli.km_to_plot_points"],
    "sim.simulate_trial": ["fragsurv.cli.simulate_trial", "fragsurv.sim.simulate_trial"],
    "sim.fi_distribution": ["fragsurv.cli.fi_distribution"],
}

# Per-layer metrics reported by the traced run, with units.
LAYER_METRICS = {
    "cli.main.self_s": "s",
    "cli.build_parser.calls": "count",
    "cli.build_parser.busy_s": "s",
    "cli.ingest_csv.calls": "count",
    "cli.ingest_csv.busy_s": "s",
    "cli.ingest_csv.rows": "count",
    "cli.ingest_csv.bytes_in": "bytes",
    "cli.write_csv.busy_s": "s",
    "cli.write_csv.bytes_out": "bytes",
    "cli.build_report.busy_s": "s",
    "cli.render_json.busy_s": "s",
    "cli.render_json.bytes_out": "bytes",
    "cli.render_text.busy_s": "s",
    "cli.render_text.bytes_out": "bytes",
    "cli.render_km_svg.busy_s": "s",
    "fragility.fragility_index.calls": "count",
    "fragility.fragility_index.busy_s": "s",
    "fragility.fragility_index.self_s": "s",
    "fragility.flips": "count",
    "fragility.saturated_points": "count",
    "fragility.sensitivity_scan.busy_s": "s",
    "fragility.sensitivity_scan.cells": "count",
    "fragility.calibrate.busy_s": "s",
    "survival.posterior_update.calls": "count",
    "survival.posterior_update.busy_s": "s",
    "survival.obs_scanned": "count",
    "survival.obs_per_flip": "count",
    "survival.datasets_built": "count",
    "specfun.reg_lower_inc_gamma.calls": "count",
    "specfun.reg_lower_inc_gamma.busy_s": "s",
    "specfun.series_calls": "count",
    "specfun.cf_calls": "count",
    "specfun.large_shape_calls": "count",
    "specfun.errors": "count",
    "specfun.bisect_root.calls": "count",
    "specfun.bisect_root.busy_s": "s",
    "km.km_estimate.calls": "count",
    "km.km_estimate.busy_s": "s",
    "km.steps": "count",
    "km.exact_digits": "digits",
    "km.km_to_plot_points.busy_s": "s",
    "sim.simulate_trial.calls": "count",
    "sim.simulate_trial.busy_s": "s",
    "sim.subjects": "count",
    "sim.fi_distribution.self_s": "s",
}


def _ingest(counts, args, result):
    counts["cli.ingest_csv.rows"] += result.n
    counts["cli.ingest_csv.bytes_in"] += os.path.getsize(args[0])


def _write_csv(counts, args, result):
    counts["cli.write_csv.bytes_out"] += os.path.getsize(args[1])


def _render(name):
    def hook(counts, args, result):
        counts[f"{name}.bytes_out"] += len(result.encode("utf-8"))
    return hook


def _fragility(counts, args, result):
    counts["fragility.flips"] += len(result.trajectory) - 1
    counts["fragility.saturated_points"] += sum(1 for _, p in result.trajectory if p == 1.0)


def _posterior(counts, args, result):
    counts["survival.obs_scanned"] += args[1].n


def _gamma(counts, args):
    a, x = args[0], args[1]
    if x > 0:
        counts["specfun.series_calls" if x < a + 1.0 else "specfun.cf_calls"] += 1
    if a > 500:
        counts["specfun.large_shape_calls"] += 1


def _km(counts, args, result):
    counts["km.steps"] += len(result.steps)
    bits = max((s.survival.denominator.bit_length() for s in result.steps), default=1)
    counts["km.exact_digits"] = max(counts["km.exact_digits"], int(bits * LOG10_2) + 1)


def _simulated(counts, args, result):
    counts["sim.subjects"] += result.n


def _cells(counts, args, result):
    counts["fragility.sensitivity_scan.cells"] += len(result.cells)


HOOKS = {
    "cli.ingest_csv": _ingest,
    "cli.write_csv": _write_csv,
    "cli.render_json": _render("cli.render_json"),
    "cli.render_text": _render("cli.render_text"),
    "fragility.fragility_index": _fragility,
    "fragility.sensitivity_scan": _cells,
    "survival.posterior_update": _posterior,
    "km.km_estimate": _km,
    "sim.simulate_trial": _simulated,
}

# Counted before the call, so that calls which raise are classified too.
PRE_HOOKS = {
    "specfun.reg_lower_inc_gamma": _gamma,
}


class Tracer:
    """Spans and counters for one traced run; `install` patches, `remove` restores."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook, pre_hook = HOOKS.get(name), PRE_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if pre_hook is not None:
                try:
                    pre_hook(counts, args)
                except (IndexError, TypeError):
                    counts["trace.hook_errors"] += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
            if hook is not None:
                try:
                    hook(counts, args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    counts["trace.hook_errors"] += 1  # the traced function changed shape
            return result

        return wrapper

    def _count_datasets(self, cls):
        counts = self.counts

        def build(*args, **kwargs):
            counts["survival.datasets_built"] += 1
            return cls(*args, **kwargs)

        return build

    def install(self) -> None:
        for name, targets in PATCHES.items():
            wrappers: dict = {}
            for target in targets:
                module_name, _, attr = target.rpartition(".")
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original)
                self._patch(module, attr, wrappers[id(original)])
        fragility = importlib.import_module("fragsurv.fragility")
        if hasattr(fragility, "SurvivalDataset"):
            self._patch(fragility, "SurvivalDataset", self._count_datasets(fragility.SurvivalDataset))

    def _patch(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def layer_metrics(self, sessions: int) -> dict[str, float]:
        """Per-layer metrics per traced session: calls, busy and self time, counters."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_time: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[index]
        values = dict(self.counts)
        for name in PATCHES:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.busy_s"] = busy[name]
            values[f"{name}.self_s"] = self_time[name]
        values["specfun.errors"] = (self.counts["specfun.reg_lower_inc_gamma.errors"]
                                    + self.counts["specfun.bisect_root.errors"])
        flips = self.counts["fragility.flips"]
        out = {}
        for metric in LAYER_METRICS:
            value = values.get(metric, 0)
            if metric == "survival.obs_per_flip":
                value = self.counts["survival.obs_scanned"] / flips if flips else 0.0
            elif metric != "km.exact_digits":
                value = value / sessions
            out[metric] = value
        return out

    def write(self, path: Path, metrics: dict) -> None:
        """A header line, one JSON array per span (seconds from the first span), then the metrics."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"span_fields": ["name", "start_s", "end_s", "parent", "op"]}) + "\n")
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, round(start - origin, 7), round(end - origin, 7), parent, op],
                                        separators=(",", ":")) + "\n")
            handle.write(json.dumps({"metrics": metrics}) + "\n")
