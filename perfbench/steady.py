"""Steadiness mode: sets of timed runs of the same code, judged by the stored bounds.

    python3 perfbench/steady.py [--workload NAME ...] [--seconds S] [--first-seed 1]

Two sets of five runs each. Every run is
`run.py --workload W --seed N --seconds S --trace 0` with a seed of its own.
For each workload and end-to-end metric this prints, per set, the median,
the quartiles and the spread (q3 - q1) / median, then the same over all
runs pooled. A metric agrees when each spread stays within its bound from
BENCHMARK.json and the second set's median differs from the first set's, in
either direction, by no more than the bound. The summary is also written to
.perfbench_work/steady-<time>.json. Exit code 1 when a metric disagrees or
a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 5  # runs per set
SETS = 2


def quartiles(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def judge(sets: list[list[float]], bound: float) -> dict:
    """Quartiles of each set, the pooled quartiles, the drift and the verdict.

    Drift is the change of the second set's median from the first set's, as
    a share of the first. The sets agree when every spread and the size of
    the drift stay within `bound`: a set that is faster disagrees as much
    as one that is slower.
    """
    stats = [quartiles(v) for v in sets]
    first, later = stats[0]["median"], stats[-1]["median"]
    drift = (later - first) / first
    agree = all(st["spread"] <= bound for st in stats) and abs(drift) <= bound
    return {"sets": stats, "pooled": quartiles([x for v in sets for x in v]),
            "drift": drift, "bound": bound, "agree": agree}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workload or names

    values = {w: [[] for _ in range(SETS)] for w in workloads}
    ok = True
    seed = args.first_seed
    for s in range(SETS):
        for w in workloads:
            for _ in range(RUNS):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True)
                try:
                    result = json.loads(proc.stdout.splitlines()[-1])
                except (IndexError, json.JSONDecodeError):
                    result = {}
                if proc.returncode != 0 or not result.get("correct"):
                    print(f"run failed: {w} seed {seed} exit {proc.returncode}\n{proc.stderr}",
                          file=sys.stderr)
                    ok = False
                else:
                    values[w][s].append({k: v["value"] for k, v in result["metrics"].items()})
                    print(f"set {s + 1} {w} seed {seed}: " + " ".join(
                        f"{k}={v:.4g}" for k, v in values[w][s][-1].items()), flush=True)
                seed += 1

    summary = {}
    for w in workloads:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[run[name] for run in runs] for runs in values[w]]
            if any(len(v) < 2 for v in sets):
                ok = False
                continue
            verdict = judge(sets, bound)
            ok = ok and verdict["agree"]
            summary[f"{w}/{name}"] = verdict
            print(f"{w:16} {name:12} bound {bound:.2f}  " + "  ".join(
                f"set{k + 1} med {st['median']:.4g} [{st['q1']:.4g}, {st['q3']:.4g}] "
                f"spread {st['spread']:.3f}" for k, st in enumerate(verdict["sets"]))
                + f"  pooled spread {verdict['pooled']['spread']:.3f}  "
                + f"drift {verdict['drift']:+.3f}  "
                + ("agree" if verdict["agree"] else "DISAGREE"))
    out = ROOT / ".perfbench_work" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
