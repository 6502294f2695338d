"""Closed-loop measurement, output checks, set-up probes and the environment stamp."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import blaspin
from workloads import HERE, ROOT

DIGESTS = HERE / "digests.json"
PROBE_TIMEOUT_S = 120


@dataclass
class Sample:
    index: int
    seconds: float
    problems: list[str] = field(default_factory=list)


def digests_of(outputs: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in sorted(outputs.items()) if name != "stderr"}


def stored_digests(workload, seed: int, tiny: bool) -> list[dict[str, str]] | None:
    """Digests recorded at the workload's canonical seed, by digest key."""
    if tiny or seed != workload.canonical_seed or not DIGESTS.exists():
        return None
    entry = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name)
    return entry["outputs"] if entry and entry["seed"] == seed else None


class OutputCheck:
    """Invariants on every item; equal bytes for equal inputs; stored digests."""

    def __init__(self, workload, state, stored: list[dict[str, str]] | None) -> None:
        self.workload = workload
        self.state = state
        self.stored = stored
        self.seen: dict[int, dict[str, str]] = {}

    def __call__(self, i: int, outputs: dict[str, str]) -> list[str]:
        try:
            problems = list(self.workload.check(self.state, i, outputs))
        except Exception as exc:  # noqa: BLE001 - an unreadable output is a failed item
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        digests = digests_of(outputs)
        key = self.workload.digest_key(i)
        if self.seen.setdefault(key, digests) != digests:
            problems.append(f"item {i}: output differs from an earlier item with the same input")
        if self.stored is not None and key < len(self.stored) and self.stored[key] != digests:
            names = sorted(n for n in digests if self.stored[key].get(n) != digests[n])
            problems.append(f"item {i}: digest mismatch against the canonical seed in {names}")
        return problems


def run_items(workload, state, seconds: float, check, first_index: int = 0,
              item_fn=None, probes=None) -> tuple[list[Sample], float]:
    """Closed loop with one client: run items until `seconds` have passed.

    Only whole rounds run, so every run of a workload whose items differ
    (the README commands) sees the same mix. `probes`, when given, is called
    before every item with the loop time used so far; the time it takes is
    left out of the loop. Returns the samples and the loop's wall time.
    """
    item_fn = item_fn or workload.item
    samples: list[Sample] = []
    start = time.perf_counter()
    paused = 0.0

    def used() -> float:
        return time.perf_counter() - start - paused

    i = first_index
    while not samples or (i - first_index) % workload.round_size or used() < seconds:
        if probes is not None:
            p0 = time.perf_counter()
            probes(used())
            paused += time.perf_counter() - p0
        t0 = time.perf_counter()
        try:
            outputs = item_fn(state, i)
        except Exception as exc:  # noqa: BLE001 - a raising item is a failed item
            outputs = None
            problems = [f"item {i} raised {type(exc).__name__}: {exc}"]
        seconds_taken = time.perf_counter() - t0
        if outputs is not None:
            problems = check(i, outputs)
        samples.append(Sample(i, seconds_taken, problems))
        i += 1
    return samples, used()


def fail_ratio(samples: list[Sample]) -> float:
    return sum(1 for s in samples if s.problems) / len(samples)


def tail(values: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile). With ten samples or fewer no value has ten
    beyond it, and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class SetupProbes:
    """`count` fresh set-ups of a workload, spread evenly over a run's loop.

    Each probe is the wall time from starting a fresh process to its
    workload being set up. Spreading them through the run lets their median
    see the same stretch of machine time as the items.
    """

    def __init__(self, name: str, seed: int, tiny: bool, workdir: Path, count: int,
                 seconds: float) -> None:
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
        self.tiny, self.workdir = tiny, workdir
        self.count, self.seconds = count, seconds
        self.times: list[float] = []

    def __call__(self, used: float) -> None:
        while (len(self.times) < self.count
               and used >= len(self.times) * self.seconds / self.count):
            self.times.append(self.probe())

    def finish(self) -> list[float]:
        """Run the probes the loop did not reach; return every probe's time."""
        while len(self.times) < self.count:
            self.times.append(self.probe())
        return self.times

    def probe(self) -> float:
        probe_dir = self.workdir / f"probe-{len(self.times)}"
        probe_dir.mkdir()
        argv = [*self.argv, str(probe_dir), "1" if self.tiny else "0"]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe {self.argv[2:]} failed with exit code {code}")
        return elapsed


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment_stamp() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **{var: os.environ.get(var, "unset") for var in blaspin.BLAS_VARS},
        "PRISM_THREADS": os.environ.get("PRISM_THREADS", "unset"),
        "PRISM_THREADS_removed": blaspin.removed_prism_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
    }
