"""Run one `prism` command with tracing on, then write its spans as JSON lines.

Usage: python perfbench/cli_child.py SPANS_JSONL [prism arguments ...]

The traced run of the cli-readme workload starts this in place of
`python -m prism.cli`, so the command's calls into each module are timed in
the child and handed to the parent through SPANS_JSONL.
"""

from __future__ import annotations

import sys

import blaspin

blaspin.pin()

import tracing  # noqa: E402 - after the pin, like every entry script


def main(argv: list[str]) -> None:
    spans_path, args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from prism.cli import main as cli_main

    try:
        cli_main.main(args=args, prog_name="prism")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
