"""Set one workload up in a fresh process and say so.

Usage: python perfbench/setup_probe.py WORKLOAD SEED WORKDIR TINY(0|1)

The parent times this process from its start to the `ready` line: the same
`import prism` plus input building that a run pays before its first item.
"""

from __future__ import annotations

import sys
from pathlib import Path

import blaspin

blaspin.pin()

import workloads  # noqa: E402 - after the pin, like every entry script

if __name__ == "__main__":
    name, seed, workdir, tiny = sys.argv[1:]
    workloads.WORKLOADS[name].setup(int(seed), Path(workdir), tiny == "1")
    print("ready", flush=True)
