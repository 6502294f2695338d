"""Spans around calls into each `prism` module, for the traced run only.

The timed runs never import this module. A traced run wraps the public
functions listed in FUNCTIONS from here, without editing the package: each
wrapper is rebound in the defining module and in every `prism` module that
imported the name with `from .x import y`, so internal calls are captured
too. The thread pools the package creates are swapped for a subclass whose
tasks run inside a `<module>.pool_task` span linked to the span that
submitted them.

Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the part of it covered by its children; children
that ran in parallel on pool workers are counted once where they overlap.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

FUNCTIONS = {
    "graphs": ("laplacian", "connected_components", "is_connected", "symmetric_eig",
               "fiedler_vector", "graph_from_text", "graph_to_text", "matrix_from_text",
               "matrix_to_text"),
    "duality": ("validate_involution", "duality_defect", "commutant_projection",
                "operator_from_text", "operator_to_text"),
    "learn": ("fiedler_pairing", "pairing_operator", "alternate", "optimize_p_step",
              "snap_to_involution"),
    "benchmarks": ("generate_dual_network", "rewire", "flip_edges", "fiedler_bipartition",
                   "rmt_labels", "modularity", "noise_benchmark", "rewire_experiment"),
    "finance": ("load_prices", "log_returns", "correlation_graph", "rolling_defect",
                "event_study", "communities"),
    "reporting": ("csv_text", "json_text"),
    "fixtures": ("generate_universe_csv",),
}
ENTRY_POINTS = ("benchmarks.noise_benchmark", "benchmarks.rewire_experiment",
                "finance.rolling_defect", "finance.event_study", "finance.communities",
                "learn.alternate")
# Functions that run at set-up: reported per traced set-up, not per item.
SETUP_FUNCTIONS = ("fixtures.generate_universe_csv",)
POOLED_MODULES = ("benchmarks", "finance")
CLI_COMMANDS = ("defect", "project", "learn", "export-operator", "synth-rewire",
                "karate-noise", "finance-window", "finance-rolling", "finance-communities",
                "finance-events")

# Counters read from a traced call's return value.
EXTRACTORS = {
    "benchmarks.noise_benchmark": lambda r: {
        "trials": r.trials * len(r.rows), "resampled": sum(row[7] for row in r.rows),
    },
    "finance.rolling_defect": lambda r: {
        "windows": len(r.records) + len(r.skipped), "skipped": len(r.skipped),
    },
    "learn.alternate": lambda r: {
        "iterations": r.iterations,
        "improved": int(r.defect_trajectory[-1] < r.defect_trajectory[0]),
    },
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    item: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from every thread; one tracer per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.item: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "submitter", None)

    def wrap(self, name: str, fn):
        extract = EXTRACTORS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self.current()
            stack = self._stack()
            stack.append(span_id)
            attrs = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), self.item, attrs))
            if extract is not None:
                attrs.update(extract(result))
            return result

        return traced

    def pool_class(self, module: str):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitter = tracer.current()
                task = tracer.wrap(f"{module}.pool_task", fn)

                def run(*a, **k):
                    tracer._local.submitter = submitter
                    try:
                        return task(*a, **k)
                    finally:
                        tracer._local.submitter = None

                return super().submit(run, *args, **kwargs)

        return TracedPool

    def absorb(self, path, item: int) -> None:
        """Add the spans another process dumped to `path`, renumbered into this tracer."""
        with open(path, encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        ids = {s["id"]: next(self._ids) for s in spans}
        for s in spans:
            self.spans.append(Span(ids[s["id"]], s["name"], s["start"], s["end"],
                                   ids.get(s["parent"]), s["thread"], item, s["attrs"]))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), separators=(",", ":")) + "\n")


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every listed function and pool; returns what `uninstall` restores."""
    for short in (*FUNCTIONS, "cli"):
        importlib.import_module(f"prism.{short}")  # every rebinding site must exist first
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "prism" or name.startswith("prism."))]
    replaced = []

    def rebind(original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, attr, value))
                    setattr(module, attr, replacement)

    for short, names in FUNCTIONS.items():
        module = sys.modules[f"prism.{short}"]
        for fname in names:
            original = getattr(module, fname)
            rebind(original, tracer.wrap(f"{short}.{fname}", original))
    for short in POOLED_MODULES:
        module = sys.modules[f"prism.{short}"]
        replaced.append((module, "ThreadPoolExecutor", module.ThreadPoolExecutor))
        module.ThreadPoolExecutor = tracer.pool_class(short)
    return replaced


def uninstall(replaced) -> None:
    for module, attr, value in reversed(replaced):
        setattr(module, attr, value)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children, clipped to it."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children.get(span.id, ())]
        clipped = [(a, b) for a, b in clipped if b > a]
        result[span.id] = (span.end - span.start) - covered(clipped)
    return result


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for short, names in FUNCTIONS.items():
        for fname in names:
            per = "setup" if f"{short}.{fname}" in SETUP_FUNCTIONS else "item"
            units[f"{short}.{fname}.calls"] = f"calls/{per}"
            units[f"{short}.{fname}.self_s"] = f"s/{per}"
    for name in ENTRY_POINTS:
        units[f"{name}.total_s"] = "s/item"
    units.update({
        "benchmarks.flip_edges.useful_ratio": "ratio",
        "benchmarks.noise_benchmark.concurrency": "ratio",
        "finance.rolling_defect.concurrency": "ratio",
        "finance.rolling_defect.skipped_ratio": "ratio",
        "learn.alternate.improved_ratio": "ratio",
        "learn.alternate.iterations": "count/item",
        "cli.startup_s": "s",
    })
    for command in CLI_COMMANDS:
        units[f"cli.{command}.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[Span], items: int, setups: int,
                  cli_walls: dict[str, list[float]], startup: list[float],
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer values, per traced item (set-up functions: per traced set-up).

    Spans recorded outside any item (item None) belong to the traced set-up.
    A layer that did no work reads 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        if (span.item is None) == (span.name in SETUP_FUNCTIONS):
            by_name.setdefault(span.name, []).append(span)
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in named(name))

    def concurrency(name: str) -> float:
        group = named(name)
        return _ratio(sum(child_time.get(s.id, 0.0) for s in group),
                      sum(s.end - s.start for s in group))

    values = {}
    for short, names in FUNCTIONS.items():
        for fname in names:
            name = f"{short}.{fname}"
            group = named(name)
            per = setups if name in SETUP_FUNCTIONS else items
            values[f"{name}.calls"] = _ratio(len(group), per)
            values[f"{name}.self_s"] = _ratio(sum(own[s.id] for s in group), per)
    for name in ENTRY_POINTS:
        values[f"{name}.total_s"] = sum(s.end - s.start for s in named(name)) / items
    trials = attr_sum("benchmarks.noise_benchmark", "trials")
    values["benchmarks.flip_edges.useful_ratio"] = _ratio(
        trials, trials + attr_sum("benchmarks.noise_benchmark", "resampled"))
    values["benchmarks.noise_benchmark.concurrency"] = concurrency("benchmarks.noise_benchmark")
    values["finance.rolling_defect.concurrency"] = concurrency("finance.rolling_defect")
    values["finance.rolling_defect.skipped_ratio"] = _ratio(
        attr_sum("finance.rolling_defect", "skipped"),
        attr_sum("finance.rolling_defect", "windows"))
    values["learn.alternate.improved_ratio"] = _ratio(
        attr_sum("learn.alternate", "improved"), len(named("learn.alternate")))
    values["learn.alternate.iterations"] = attr_sum("learn.alternate", "iterations") / items
    values["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    for command in CLI_COMMANDS:
        walls = cli_walls.get(command)
        values[f"cli.{command}.wall_s"] = statistics.median(walls) if walls else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    return values
