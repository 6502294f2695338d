"""Prism benchmark: run one workload as a closed loop, or all four in turn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

A timed run (`--trace 0`) loads no wrappers and reports the end-to-end
metrics. A traced run (`--trace 1`) runs half its time untraced and half with
every listed `prism` function wrapped, and reports the per-layer metrics.
Either way every output is checked; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Any failed item
makes the exit code 1. `--tiny` shrinks every item, for the tests.
"""

from __future__ import annotations

import blaspin

blaspin.pin()

# Everything below may load numpy, so it comes after the pin.
import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import harness  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 9
CLI_STARTUP_RUNS = 3


def run_seconds() -> int:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's canonical seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every item (tests)")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = run_seconds()
    return args


def timed_run(workload, state, args, check, workdir):
    probes = harness.SetupProbes(workload.name, args.seed, args.tiny, workdir,
                                 1 if args.tiny else SETUP_PROBES, args.seconds)
    samples, loop_s = harness.run_items(workload, state, args.seconds, check, probes=probes)
    setups = probes.finish()
    # The probes are children too, so the README commands keep their own peak.
    peak_kb = state.peak_rss_kb if workload.in_children else resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    peak_mb = peak_kb / 1024.0
    times = [s.seconds for s in samples]
    done = sum(1 for s in samples if not s.problems)
    tail, percentile = harness.tail(times)
    metrics = {
        "items_per_s": (done / loop_s, "1/s", f"{done} items in {loop_s:.3f} s, one client"),
        "item_s_p50": (statistics.median(times), "s", f"n={len(times)}"),
        "item_s_tail": (tail, "s", f"p{percentile:.1f} of n={len(times)}"),
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh set-ups"),
        "peak_rss_mb": (peak_mb, "MB",
                        "largest child process" if workload.in_children else "this process"),
    }
    return metrics, samples


def cli_help_seconds(state) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "prism.cli", "--help"], cwd=ROOT, env=state.env,
                   capture_output=True, check=True, timeout=120)
    return time.perf_counter() - start


def traced_run(workload, state, args, check, workdir):
    import tracing

    half = args.seconds / 2
    untraced, _ = harness.run_items(workload, state, half, check)
    cli_walls: dict[str, list[float]] = {}
    startup: list[float] = []
    tracer = tracing.Tracer()
    if workload.in_children:
        for s in untraced:
            cli_walls.setdefault(workload.command(state, s.index).name, []).append(s.seconds)
        startup = [cli_help_seconds(state) for _ in range(CLI_STARTUP_RUNS)]
        state.span_dir = workdir / "spans"
        state.span_dir.mkdir()
        replaced, setups = [], 0
    else:
        replaced, setups = tracing.install(tracer), 1
        traced_setup = workdir / "traced-setup"
        traced_setup.mkdir()
        workload.setup(args.seed, traced_setup, args.tiny)  # outside any item

    def traced_item(state_, i):
        tracer.item = i
        try:
            return workload.item(state_, i)
        finally:
            spans = state_.span_dir / f"spans-{i}.jsonl" if workload.in_children else None
            if spans is not None and spans.exists():
                tracer.absorb(spans, i)

    try:
        traced, _ = harness.run_items(workload, state, half, check,
                                      first_index=len(untraced), item_fn=traced_item)
    finally:
        tracing.uninstall(replaced)
    tracer.dump(WORK / f"trace-{workload.name}-seed{args.seed}.jsonl")
    overhead = (statistics.fmean(s.seconds for s in traced)
                / statistics.fmean(s.seconds for s in untraced))
    values = tracing.layer_metrics(tracer.spans, len(traced), setups, cli_walls, startup,
                                   overhead)
    units = tracing.metric_units()
    return {name: (values[name], unit, "") for name, unit in units.items()}, untraced + traced


def run_one(args) -> int:
    problem = blaspin.pin_problem()
    if problem:
        print(f"refusing to report timings: {problem}", file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workload.canonical_seed
    workdir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        state = workload.setup(args.seed, workdir, args.tiny)
        check = harness.OutputCheck(workload, state,
                                    harness.stored_digests(workload, args.seed, args.tiny))
        run = traced_run if args.trace else timed_run
        metrics, samples = run(workload, state, args, check, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for s in samples if s.problems)
    for s in samples:
        for p in s.problems:
            print(f"FAILED {p}", file=sys.stderr)
    print(f"workload {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} tiny={args.tiny}")
    print("env " + json.dumps(harness.environment_stamp(), sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    print(f"fail_ratio = {harness.fail_ratio(samples)!r} ratio  "
          f"({failed} of {len(samples)} items)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 1 if failed else 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up and memory stay separate."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                             "exit": proc.returncode}
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
