"""Record sha256 digests of every output at each workload's canonical seed.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Writes perfbench/digests.json. Run it only on a commit whose outputs are
trusted: a timed run at a canonical seed fails every item whose bytes differ
from what this recorded. Items with the same digest key share one entry.
"""

from __future__ import annotations

import blaspin

blaspin.pin()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402

import harness  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

# Keys recorded per workload: more than a run at the default length reaches.
KEYS = {"karate-noise": 32, "finance-rolling": 1, "mirror-large": 64, "cli-readme": 10}


def record(name: str) -> dict:
    workload = WORKLOADS[name]
    workdir = ROOT / ".perfbench_work" / f"digests-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        state = workload.setup(workload.canonical_seed, workdir, False)
        outputs = []
        for i in range(KEYS[name]):
            produced = workload.item(state, i)
            problems = workload.check(state, i, produced)
            if problems:
                raise SystemExit(f"{name} item {i} fails its own checks: {problems}")
            outputs.append(harness.digests_of(produced))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"seed": workload.canonical_seed, "outputs": outputs}


def main(names: list[str]) -> None:
    doc = {}
    if harness.DIGESTS.exists():
        doc = json.loads(harness.DIGESTS.read_text(encoding="utf-8"))
    for name in names or list(WORKLOADS):
        doc[name] = record(name)
        print(f"{name}: {len(doc[name]['outputs'])} digest keys", flush=True)
    harness.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", nargs="*", help=f"any of {', '.join(WORKLOADS)} "
                        "(default: all)")
    names = parser.parse_args().workload
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    main(names)
