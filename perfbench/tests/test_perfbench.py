"""The benchmark's own tests: tiny end-to-end runs, output checks, span arithmetic."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import harness  # noqa: E402
import steady  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_named_metric_with_its_unit(workload):
    for trace, declared in (("0", BENCH["end_to_end"]), ("1", BENCH["per_layer"])):
        proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", trace, "--tiny")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {m["name"]: m["unit"] for m in declared}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        for name, unit in units.items():
            assert any(line.startswith(f"{name} = ") and f" {unit}" in line for line in lines)
        assert any(line.startswith("fail_ratio = 0.0 ratio") for line in lines)
        assert any(line.startswith("env {") for line in lines)


CORRUPTION_CHECK = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    sys.path.insert(0, sys.argv[1])
    import blaspin
    blaspin.pin()
    import harness
    from workloads import WORKLOADS

    def flip_one_byte(outputs):
        name = sorted(outputs)[0]
        text = outputs[name]
        k = len(text) // 2
        outputs[name] = text[:k] + ("0" if text[k] != "0" else "1") + text[k + 1:]
        return outputs

    ratios = {}
    for name, seed, tiny in (("mirror-large", 7, False), ("finance-rolling", 1, True)):
        workload = WORKLOADS[name]
        workdir = Path(sys.argv[2]) / name
        workdir.mkdir()
        state = workload.setup(seed, workdir, tiny)
        check = harness.OutputCheck(workload, state, harness.stored_digests(workload, seed, tiny))
        clean, _ = harness.run_items(workload, state, 0.0, check)
        bad, _ = harness.run_items(workload, state, 0.0, check, first_index=len(clean),
                                   item_fn=lambda s, i: flip_one_byte(workload.item(s, i)))
        ratios[name] = [harness.fail_ratio(clean), harness.fail_ratio(bad)]
    print(json.dumps(ratios))
""")


def test_corrupted_output_byte_makes_fail_ratio_positive(tmp_path):
    # mirror-large at its canonical seed is caught by the stored digests;
    # finance-rolling at any seed by comparison with the run's first item.
    proc = subprocess.run([sys.executable, "-c", CORRUPTION_CHECK, str(PERFBENCH), str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    ratios = json.loads(proc.stdout.splitlines()[-1])
    for clean, bad in ratios.values():
        assert clean == 0.0
        assert bad > 0.0


def test_timings_are_refused_when_numpy_loads_before_the_pin():
    code = ("import numpy, runpy, sys; sys.argv = ['run.py', '--workload', 'mirror-large', "
            "'--seconds', '0', '--tiny']; sys.path.insert(0, 'perfbench'); "
            "runpy.run_path('perfbench/run.py', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 3
    assert "refusing to report timings" in proc.stderr
    assert proc.stdout == ""


def test_timed_run_loads_no_wrappers():
    code = ("import runpy, sys; sys.argv = ['run.py', '--workload', 'mirror-large', "
            "'--seed', '1', '--seconds', '0', '--tiny']; sys.path.insert(0, 'perfbench')\n"
            "try:\n    runpy.run_path('perfbench/run.py', run_name='__main__')\n"
            "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
            "print('tracing loaded:', 'tracing' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "tracing loaded: False"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "karate-noise", "--seed", "1", "--seconds", "0", "--tiny",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(30)]
    assert harness.tail(values) == (19.0, pytest.approx(100 * 20 / 30))
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_setup_probes_spread_over_the_loop_and_stay_out_of_its_time():
    class Counted(harness.SetupProbes):
        def probe(self):
            time.sleep(0.02)
            return float(len(self.times))

    class OneItem:
        round_size = 1

        def item(self, state, i):
            time.sleep(0.01)
            return {}

    probes = Counted("w", 1, True, Path("."), count=3, seconds=3.0)
    for used, expected in ((0.0, 1), (0.5, 1), (2.5, 3), (9.0, 3)):
        probes(used)
        assert len(probes.times) == expected
    late = Counted("w", 1, True, Path("."), count=4, seconds=0.0)
    samples, loop_s = harness.run_items(OneItem(), None, 0.0, lambda i, o: [], probes=late)
    assert len(samples) == 1 and len(late.times) == 4
    assert loop_s < 0.05  # the item's 0.01 s, not the probes' 0.08 s
    assert late.finish() == [0.0, 1.0, 2.0, 3.0]


def test_steadiness_fails_a_second_set_that_is_faster_or_slower():
    first = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert steady.judge([first, first], 0.25)["agree"]
    assert not steady.judge([first, [x * 0.6 for x in first]], 0.25)["agree"]
    assert not steady.judge([first, [x * 1.4 for x in first]], 0.25)["agree"]
    assert not steady.judge([first, [1.0, 0.5, 1.5, 1.0, 1.0]], 0.25)["agree"]  # spread 0.5


def test_self_time_of_a_nested_tree_with_pool_worker_children():
    spans = [
        Span(1, "benchmarks.noise_benchmark", 0.0, 10.0, None, 1, 0),
        Span(2, "graphs.laplacian", 1.0, 4.0, 1, 1, 0),
        Span(3, "graphs.symmetric_eig", 2.0, 3.0, 2, 1, 0),
        Span(4, "benchmarks.pool_task", 3.0, 8.0, 1, 2, 0),  # worker, overlaps span 2
        Span(5, "benchmarks.pool_task", 5.0, 9.0, 1, 3, 0),  # worker, overlaps span 4
        Span(6, "benchmarks.flip_edges", 6.0, 7.0, 5, 3, 0),
        Span(7, "graphs.laplacian", 9.5, 11.0, 1, 1, 0),  # outlives its parent
    ]
    own = tracing.self_times(spans)
    # Children of span 1 cover [1, 9] and [9.5, 10] once each: 8.5 of 10.
    assert own == {1: pytest.approx(1.5), 2: 2.0, 3: 1.0, 4: 5.0, 5: 3.0, 6: 1.0, 7: 1.5}
    values = tracing.layer_metrics(spans, items=1, setups=0, cli_walls={}, startup=[],
                                   overhead_ratio=1.0)
    assert values["graphs.laplacian.self_s"] == pytest.approx(3.5)
    assert values["graphs.laplacian.calls"] == 2
    assert values["benchmarks.noise_benchmark.total_s"] == 10.0
    # Child time 3 + 5 + 4 + 1.5 over a wall time of 10.
    assert values["benchmarks.noise_benchmark.concurrency"] == pytest.approx(1.35)


def test_pool_worker_spans_link_to_the_submitting_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("x.leaf", lambda v: v * 2)

    def outer():
        with tracer.pool_class("x")(max_workers=2) as pool:
            return list(pool.map(leaf, [1, 2, 3]))

    assert tracer.wrap("x.outer", outer)() == [2, 4, 6]
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["x.outer"]
    tasks = {s.id: s for s in by_name["x.pool_task"]}
    assert len(tasks) == 3 and all(t.parent == root.id for t in tasks.values())
    assert all(s.parent in tasks for s in by_name["x.leaf"])
