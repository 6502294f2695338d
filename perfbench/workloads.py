"""The four workloads: inputs built from a seed, one item, and its output checks.

Each workload is a closed loop with one client: the harness calls `item`
and starts the next one only when it returns. `setup` builds the inputs from
the workload seed, so the program under test only ever sees generated
inputs. `item` returns the item's rendered outputs by name, and `check`
returns the invariant violations found in them (an empty list when they
hold). Digests of the outputs are compared by the harness, keyed by
`digest_key`: items with the same key process the same input and must
render the same bytes.

`prism` is imported inside `setup`, never at module level, so that the
set-up time covers the import and nothing loads numpy before the BLAS pin.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
BUNDLED_PRICES = ROOT / "fixtures" / "synthetic_universe.csv"
UNIVERSE_CONFIG = ROOT / "fixtures" / "universe_config.json"
SRC = ROOT / "src"

# Measure the package in this checkout, never an installed copy.
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

KARATE_LEVELS = [0.0, 0.02, 0.05, 0.1, 0.15, 0.2]
NOISE_HEADER = (
    "noise", "baseline_mean", "baseline_std", "rmt_mean", "rmt_std",
    "prism_mean", "prism_std", "resampled",
)
NOISE_MEAN_COLUMNS = ("baseline_mean", "rmt_mean", "prism_mean")
CLI_TIMEOUT_S = 150


def table(text: str, header: tuple[str, ...]) -> list[dict[str, str]]:
    """Rows of the CSV table in `text` whose header line is `header`.

    A rendered report may hold several tables back to back; the table ends
    at the first line with another field count or a comment.
    """
    lines = text.splitlines()
    start = lines.index(",".join(header)) + 1
    rows = []
    for line in lines[start:]:
        cells = line.split(",")
        if line.startswith("#") or len(cells) != len(header):
            break
        rows.append(dict(zip(header, cells)))
    return rows


def key_values(text: str, sep: str) -> dict[str, str]:
    return dict(line.split(sep, 1) for line in text.splitlines() if sep in line)


def defect_problems(values, what: str) -> list[str]:
    return [f"{what} {v!r} outside [0, 2]" for v in values if not 0.0 <= float(v) <= 2.0]


def trajectory_problems(trajectory: list[float]) -> list[str]:
    problems = defect_problems(trajectory, "alternate defect")
    if any(b > a for a, b in zip(trajectory, trajectory[1:])):
        problems.append(f"alternate trajectory increases: {trajectory!r}")
    return problems


def noise_problems(text: str) -> list[str]:
    problems = []
    for row in table(text, NOISE_HEADER):
        for column in NOISE_MEAN_COLUMNS:
            if not 0.5 <= float(row[column]) <= 1.0:
                problems.append(f"{column} {row[column]} outside [0.5, 1]")
    return problems


def rolling_problems(text: str) -> list[str]:
    rows = table(text, ("window_end", "window_len", "mean_corr", "defect"))
    return defect_problems([row["defect"] for row in rows], "rolling defect")


def event_problems(text: str) -> list[str]:
    rows = table(text, ("event", "window_len", "offset", "defect", "mean_corr"))
    return defect_problems([row["defect"] for row in rows], "event defect")


class Workload:
    """Defaults shared by the workloads; each one overrides what differs."""

    name: str
    canonical_seed: int
    round_size = 1  # items per round; runs contain whole rounds only
    in_children = False  # True when items run as child processes

    def digest_key(self, i: int) -> int:
        return i


class KarateNoise(Workload):
    """Item: one noise_benchmark call with the CLI defaults, rendered to CSV.

    Item i uses noise seed `seed + i`, so item 0 of the canonical seed 123
    is exactly `prism karate-noise` with its defaults.
    """

    name = "karate-noise"
    canonical_seed = 123

    def setup(self, seed: int, workdir: Path, tiny: bool):
        from prism import benchmarks

        return SimpleNamespace(
            seed=seed,
            levels=[0.0, 0.05] if tiny else KARATE_LEVELS,
            trials=3 if tiny else 50,
            bench=benchmarks,
        )

    def item(self, state, i: int) -> dict[str, str]:
        report = state.bench.noise_benchmark(state.levels, state.trials, state.seed + i)
        return {"noise.csv": state.bench.noise_report_to_csv(report)}

    def check(self, state, i: int, outputs: dict[str, str]) -> list[str]:
        return noise_problems(outputs["noise.csv"])


class FinanceRolling(Workload):
    """Item: one analyst session on a 30-ticker, 600-day universe.

    Set-up renders the universe from `fixtures/universe_config.json` with its
    seed replaced by the workload seed; seed 93 reproduces the bundled
    fixture byte for byte. Every item runs the same session on it.
    """

    name = "finance-rolling"
    canonical_seed = 93

    def setup(self, seed: int, workdir: Path, tiny: bool):
        from prism import finance, fixtures

        config = fixtures.load_universe_config(UNIVERSE_CONFIG)
        config["seed"] = seed
        prices = workdir / "universe.csv"
        with open(prices, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(fixtures.generate_universe_csv(config))
        return SimpleNamespace(prices=prices, stride=30 if tiny else 1, fin=finance)

    def item(self, state, i: int) -> dict[str, str]:
        fin = state.fin
        returns = fin.log_returns(fin.load_prices(state.prices))
        rolling = fin.rolling_defect(returns, 60, state.stride)
        events = fin.event_study(returns, [("SPIKE", "2021-12-24")])
        communities = fin.communities(returns, "2021-10-01", 450, 6)
        return {
            "rolling.csv": fin.rolling_series_to_csv(rolling),
            "events.csv": fin.event_study_to_csv(events),
            "communities.csv": fin.community_report_to_csv(communities),
        }

    def check(self, state, i: int, outputs: dict[str, str]) -> list[str]:
        problems = rolling_problems(outputs["rolling.csv"])
        problems += event_problems(outputs["events.csv"])
        if "# fault_line=" not in outputs["communities.csv"]:
            problems.append("communities report has no fault line")
        return problems

    def digest_key(self, i: int) -> int:
        return 0


class MirrorLarge(Workload):
    """Item: one large mirror network, damaged slightly and measured.

    Item i builds the network from seed `seed + i`, rewires 2% of its edges,
    and measures the defect against the true, Fiedler and index-reversal
    operators, the projection onto the true operator's commutant, and the
    alternating learner started from the Fiedler operator.
    """

    name = "mirror-large"
    canonical_seed = 7
    fraction = 0.02

    def setup(self, seed: int, workdir: Path, tiny: bool):
        from prism import benchmarks, duality, graphs, learn, reporting

        return SimpleNamespace(
            seed=seed,
            group_size=20 if tiny else 250,
            bench=benchmarks, duality=duality, graphs=graphs, learn=learn,
            reporting=reporting,
        )

    def item(self, state, i: int) -> dict[str, str]:
        bench, duality, learn = state.bench, state.duality, state.learn
        seed = state.seed + i
        net = bench.generate_dual_network(state.group_size, 0.4, 0.1, seed)
        before = duality.duality_defect(state.graphs.laplacian(net.graph), net.true_operator)
        rewired = bench.rewire(net.graph, self.fraction, seed)
        lap = state.graphs.laplacian(rewired)
        fiedler = learn.fiedler_duality_operator(rewired)
        index = bench.index_reversal_operator(rewired.n)
        projection = duality.commutant_projection(lap, net.true_operator)
        learned = learn.alternate(lap, fiedler)
        rows = [
            ("defect_true_before_rewire", before),
            ("defect_true", duality.duality_defect(lap, net.true_operator)),
            ("defect_fiedler", duality.duality_defect(lap, fiedler)),
            ("defect_index_reversal", duality.duality_defect(lap, index)),
            ("projection_defect_before", projection.defect_before),
            ("projection_defect_after", projection.defect_after),
            ("projection_deformation", projection.deformation),
            ("alternate_iterations", learned.iterations),
            ("alternate_trajectory", ";".join(repr(d) for d in learned.defect_trajectory)),
        ]
        config = {"group_size": state.group_size, "fraction": self.fraction, "seed": seed}
        return {"mirror.csv": state.reporting.csv_text(config, ("quantity", "value"), rows)}

    def check(self, state, i: int, outputs: dict[str, str]) -> list[str]:
        values = {row["quantity"]: row["value"]
                  for row in table(outputs["mirror.csv"], ("quantity", "value"))}
        problems = []
        if float(values["defect_true_before_rewire"]) > 1e-10:
            problems.append("defect against the true operator exceeds 1e-10 before rewiring")
        problems += defect_problems(
            [values[k] for k in ("defect_true", "defect_fiedler", "defect_index_reversal",
                                 "projection_defect_before")],
            "mirror defect",
        )
        if float(values["projection_defect_after"]) > 1e-9:
            problems.append("projection defect_after exceeds 1e-9")
        trajectory = [float(x) for x in values["alternate_trajectory"].split(";")]
        return problems + trajectory_problems(trajectory)


@dataclass(frozen=True)
class Command:
    """One README command; `name` is used in `cli.<name>.wall_s`."""

    name: str
    args: tuple[str, ...]
    outs: tuple[str, ...] = ()


def _check_command(name: str, outputs: dict[str, str]) -> list[str]:
    stdout = outputs["stdout"]
    if name == "defect":
        return defect_problems([key_values(stdout, "=")["delta"]], "defect")
    if name == "project":
        summary = json.loads(stdout)
        problems = defect_problems([summary["defect_before"]], "defect_before")
        if summary["defect_after"] > 1e-9:
            problems.append("projection defect_after exceeds 1e-9")
        if not outputs["projected.txt"].startswith("#matrix n: "):
            problems.append("projected matrix file has no matrix header")
        return problems
    if name == "learn":
        return trajectory_problems(json.loads(stdout)["trajectory"])
    if name == "export-operator":
        ok = outputs["fiedler.txt"].startswith("#pairing n: ")
        return [] if ok else ["exported operator is not a pairing"]
    if name == "synth-rewire":
        rows = table(stdout, ("rewire_fraction", "defect_true", "defect_index", "modularity"))
        rows = [row for row in rows if row["rewire_fraction"] != "sensitivity"]
        return defect_problems(
            [row[c] for row in rows for c in ("defect_true", "defect_index")], "rewire defect"
        )
    if name == "karate-noise":
        return noise_problems(stdout)
    if name == "finance-window":
        return defect_problems([key_values(stdout, "=")["defect"]], "window defect")
    if name == "finance-rolling":
        return rolling_problems(outputs["rolling.csv"])
    if name == "finance-communities":
        return [] if "# fault_line=" in stdout else ["communities report has no fault line"]
    if name == "finance-events":
        return event_problems(stdout)
    raise KeyError(name)


def run_child(argv: list[str], state) -> tuple[int, str, str]:
    """Run one command to its end; return its exit code, stdout and stderr.

    The child is reaped with `os.wait4`, so its own peak resident memory is
    known and kept in `state.peak_rss_kb`, apart from other children.
    """
    out_path, err_path = state.workdir / "child.stdout", state.workdir / "child.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=state.env, stdout=out, stderr=err)
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    state.peak_rss_kb = max(state.peak_rss_kb, usage.ru_maxrss)
    return (proc.returncode, out_path.read_text(encoding="utf-8"),
            err_path.read_text(encoding="utf-8"))


class CliReadme(Workload):
    """Item: one README command, run as a fresh `python -m prism.cli` process.

    The graph and operator files are written at set-up from the seed: a
    mirror network with 5% of its edges rewired, and its true operator. The
    finance commands read the bundled fixture. Items cycle through the
    commands in a fixed order; one pass over them is a round.
    """

    name = "cli-readme"
    canonical_seed = 5
    round_size = 10  # the number of commands
    in_children = True
    expected_exit = 0  # the README: 0 success, 1 computation failed, 2 bad input

    def setup(self, seed: int, workdir: Path, tiny: bool):
        from prism import benchmarks, duality, graphs

        net = benchmarks.generate_dual_network(8 if tiny else 60, 0.4, 0.1, seed)
        attempt = 0
        rewired = benchmarks.rewire(net.graph, 0.05, benchmarks.child_seed(seed, attempt))
        while not graphs.is_connected(rewired):
            attempt += 1
            rewired = benchmarks.rewire(net.graph, 0.05, benchmarks.child_seed(seed, attempt))
        graph, operator = str(workdir / "graph.txt"), str(workdir / "operator.txt")
        graphs.save_graph(rewired, graph)
        duality.save_operator(net.true_operator, operator)
        prices = str(BUNDLED_PRICES)
        commands = [
            Command("defect", ("defect", graph, "--operator", operator)),
            Command("project", ("project", graph, "--operator", operator,
                                "--out-matrix", str(workdir / "projected.txt")),
                    ("projected.txt",)),
            Command("learn", ("learn", graph)),
            Command("export-operator", ("export-operator", graph,
                                        "--out", str(workdir / "fiedler.txt")),
                    ("fiedler.txt",)),
            Command("synth-rewire", ("synth-rewire", "--group-size", "8", "--fractions",
                                     "0,0.4,0.8", "--seeds", "1-2" if tiny else "1-5")),
            Command("karate-noise", ("karate-noise", "--levels", "0,0.05,0.1", "--trials",
                                     "3" if tiny else "50", "--seed", "123")),
            Command("finance-window", ("finance", "window", "--prices", prices,
                                       "--date", "2021-02-25")),
            Command("finance-rolling", ("finance", "rolling", "--prices", prices, "--window",
                                        "60", "--stride", "60" if tiny else "5",
                                        "--out", str(workdir / "rolling.csv")),
                    ("rolling.csv",)),
            Command("finance-communities", ("finance", "communities", "--prices", prices,
                                            "--date", "2021-10-01", "--window", "450",
                                            "--k", "6")),
            Command("finance-events", ("finance", "events", "--prices", prices,
                                       "--events", "SPIKE:2021-12-24")),
        ]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return SimpleNamespace(workdir=workdir, commands=commands, env=env, span_dir=None,
                               peak_rss_kb=0)

    def command(self, state, i: int) -> Command:
        return state.commands[i % len(state.commands)]

    def item(self, state, i: int) -> dict[str, str]:
        cmd = self.command(state, i)
        for out in cmd.outs:
            (state.workdir / out).unlink(missing_ok=True)
        if state.span_dir is None:
            argv = [sys.executable, "-m", "prism.cli", *cmd.args]
        else:
            spans = state.span_dir / f"spans-{i}.jsonl"
            argv = [sys.executable, str(HERE / "cli_child.py"), str(spans), *cmd.args]
        code, stdout, stderr = run_child(argv, state)
        outputs = {"exit": str(code), "stdout": stdout}
        for out in cmd.outs:
            path = state.workdir / out
            outputs[out] = path.read_text(encoding="utf-8") if path.exists() else ""
        if code != self.expected_exit:
            outputs["stderr"] = stderr
        return outputs

    def check(self, state, i: int, outputs: dict[str, str]) -> list[str]:
        cmd = self.command(state, i)
        if outputs["exit"] != str(self.expected_exit):
            return [f"{cmd.name} exited {outputs['exit']}, expected {self.expected_exit}: "
                    f"{outputs.get('stderr', '').strip()[-300:]}"]
        return _check_command(cmd.name, outputs)

    def digest_key(self, i: int) -> int:
        return i % self.round_size


WORKLOADS = {w.name: w for w in (KarateNoise(), FinanceRolling(), MirrorLarge(), CliReadme())}
