"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import REPO, UNIVERSE_CSV, child_env
from prism import benchmarks
from prism.benchmarks import generate_dual_network, rewire
from prism.cli import main
from prism.duality import save_operator, validate_involution
from prism.graphs import graph_from_edges, laplacian, load_matrix, save_graph, save_matrix


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def path3(tmp_path):
    g = graph_from_edges(["a", "b", "c"], [(0, 1), (1, 2)])
    path = tmp_path / "path3.txt"
    save_graph(g, path)
    return path


@pytest.fixture()
def swap01(tmp_path):
    op = validate_involution(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    path = tmp_path / "swap01.txt"
    save_operator(op, path)
    return path


def test_defect_reports_frozen_value(runner, path3, swap01):
    result = runner.invoke(main, ["defect", str(path3), "--operator", str(swap01)])
    assert result.exit_code == 0
    assert "delta=0.7745966692414833" in result.output
    assert "laplacian_norm=" in result.output and "commutator_norm=" in result.output


def test_defect_index_reversal_on_path_is_zero(runner, path3):
    result = runner.invoke(main, ["defect", str(path3), "--index-reversal"])
    assert result.exit_code == 0
    assert "delta=0.0\n" in result.output


def test_defect_identity_operator_literal(runner, path3):
    result = runner.invoke(main, ["defect", str(path3), "--operator", "identity"])
    assert result.exit_code == 0
    assert "delta=0.0\n" in result.output


def test_defect_matrix_input(runner, tmp_path, path3, swap01):
    matrix_path = tmp_path / "lap.txt"
    save_matrix(laplacian(graph_from_edges(["a", "b", "c"], [(0, 1), (1, 2)])), matrix_path)
    result = runner.invoke(
        main, ["defect", str(matrix_path), "--matrix", "--operator", str(swap01)]
    )
    assert result.exit_code == 0
    assert "delta=0.7745966692414833" in result.output
    # a bare matrix has no structure to derive a pairing from
    bare = runner.invoke(main, ["defect", str(matrix_path), "--matrix"])
    assert bare.exit_code == 2


def test_non_finite_matrix_input_exits_2(runner, tmp_path):
    matrix_path = tmp_path / "lap.txt"
    lap = laplacian(graph_from_edges(["a", "b", "c"], [(0, 1), (1, 2)]))
    lap[0, 0] = np.inf
    save_matrix(lap, matrix_path)
    for command in (["defect"], ["project", "--out-matrix", str(tmp_path / "out.txt")]):
        result = runner.invoke(main, [*command, str(matrix_path), "--matrix", "--index-reversal"])
        assert result.exit_code == 2
        assert "non-finite" in result.output


def test_defect_conflicting_operator_modes(runner, path3, swap01):
    result = runner.invoke(
        main, ["defect", str(path3), "--fiedler", "--operator", str(swap01)]
    )
    assert result.exit_code == 2


def test_defect_missing_file_exits_2(runner):
    result = runner.invoke(main, ["defect", "/nonexistent/graph.txt"])
    assert result.exit_code == 2


def test_defect_wrong_operator_dimension_exits_2(runner, tmp_path, path3):
    op = validate_involution(np.eye(5))
    op_path = tmp_path / "op5.txt"
    save_operator(op, op_path)
    result = runner.invoke(main, ["defect", str(path3), "--operator", str(op_path)])
    assert result.exit_code == 2


def test_project_writes_matrix_and_summary(runner, tmp_path, path3, swap01):
    out_matrix = tmp_path / "projected.txt"
    result = runner.invoke(
        main,
        ["project", str(path3), "--operator", str(swap01), "--out-matrix", str(out_matrix)],
    )
    assert result.exit_code == 0
    summary = json.loads(result.output)
    assert summary["defect_after"] <= 1e-9
    assert summary["defect_before"] == pytest.approx(0.7745966692414833, abs=1e-15)
    projected = load_matrix(out_matrix)
    expected = np.array([[1.5, -1.0, -0.5], [-1.0, 1.5, -0.5], [-0.5, -0.5, 1.0]])
    assert np.allclose(projected, expected, atol=1e-15)


def test_learn_exits_immediately_on_symmetric_input(runner, path3):
    result = runner.invoke(main, ["learn", str(path3), "--index-reversal"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["iterations"] == 0
    assert doc["converged"] is True
    assert doc["trajectory"] == [0.0]


def test_export_operator_writes_pairing(runner, tmp_path):
    g = graph_from_edges(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)])
    graph_path = tmp_path / "p4.txt"
    save_graph(g, graph_path)
    result = runner.invoke(main, ["export-operator", str(graph_path)])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "#pairing n: 4"
    assert set(lines[1:]) == {"0\t3", "1\t2"}


def test_synth_rewire_is_byte_deterministic(runner):
    args = ["synth-rewire", "--group-size", "6", "--intra", "0.5", "--cross", "0.1",
            "--fractions", "0,0.4", "--seeds", "1-3"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output


def test_synth_rewire_single_fraction_zero(runner):
    result = runner.invoke(
        main, ["synth-rewire", "--group-size", "6", "--fractions", "0", "--seeds", "1-5"]
    )
    assert result.exit_code == 0
    rows = [
        line for line in result.output.splitlines() if line and not line.startswith("#")
    ]
    assert len(rows) == 2  # header plus the single fraction, no slope footer
    assert float(rows[1].split(",")[1]) <= 1e-10


def test_karate_noise_single_clean_trial_is_perfect(runner):
    result = runner.invoke(
        main, ["karate-noise", "--levels", "0", "--trials", "1", "--format", "json"]
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["rows"][0]["prism_mean"] == 1.0
    assert doc["rows"][0]["baseline_mean"] == pytest.approx(32 / 34, abs=1e-12)


def test_karate_noise_ignores_prism_threads(runner):
    # the variable no longer selects anything, not even an error for a non-integer
    args = ["karate-noise", "--levels", "0,0.05", "--trials", "2", "--seed", "11"]
    unset = runner.invoke(main, args, env={"PRISM_THREADS": None})
    assert unset.exit_code == 0
    for value in ("many", "4"):
        result = runner.invoke(main, args, env={"PRISM_THREADS": value})
        assert result.exit_code == 0, result.output
        assert result.output == unset.output


def test_finance_window_golden_output(runner):
    result = runner.invoke(
        main,
        ["finance", "window", "--prices", str(UNIVERSE_CSV), "--date", "2021-02-25"],
    )
    assert result.exit_code == 0
    assert "mean_corr=0.4722035310672387" in result.output
    assert "defect=0.19648362047337645" in result.output
    assert "component_size=27" in result.output
    assert "dropped_nodes=0" in result.output


def test_finance_window_snaps_to_prior_trading_day(runner):
    # 2021-02-27 is a Saturday; the window snaps back to Friday the 26th
    result = runner.invoke(
        main,
        ["finance", "window", "--prices", str(UNIVERSE_CSV), "--date", "2021-02-27"],
    )
    assert result.exit_code == 0
    assert "window_end=2021-02-26" in result.output


def test_finance_window_failures(runner, tmp_path):
    missing = runner.invoke(
        main, ["finance", "window", "--prices", str(tmp_path / "no.csv"), "--date", "2021-02-25"]
    )
    assert missing.exit_code == 2
    early = runner.invoke(
        main, ["finance", "window", "--prices", str(UNIVERSE_CSV), "--date", "2020-01-10"]
    )
    assert early.exit_code == 1  # loads fine, but no 60-row window ends there
    bad = tmp_path / "bad.csv"
    bad.write_text("date,AAA\n2021-01-04,oops\n", encoding="utf-8")
    malformed = runner.invoke(
        main, ["finance", "window", "--prices", str(bad), "--date", "2021-01-04"]
    )
    assert malformed.exit_code == 2


EVENTS = ["finance", "events", "--prices", str(UNIVERSE_CSV), "--events", "SPIKE:2021-12-24"]
WINDOW = ["finance", "window", "--prices", str(UNIVERSE_CSV), "--date", "2021-02-25"]
ROLLING = ["finance", "rolling", "--prices", str(UNIVERSE_CSV)]
COMMUNITIES = ["finance", "communities", "--prices", str(UNIVERSE_CSV), "--date", "2021-10-01"]
LEARN = ["learn", "PATH3"]  # the test puts the path3 fixture's file in place of PATH3


@pytest.mark.parametrize("args, message", [
    (["karate-noise", "--levels", "0,x"], "error: bad float list"),
    (["synth-rewire", "--fractions", "0,x"], "error: bad float list"),
    (["synth-rewire", "--seeds", "1-x"], "error: bad seed"),
    ([*EVENTS, "--offsets", "-60,x"], "error: bad int list"),
    ([*EVENTS, "--window-lens", "60,x"], "error: bad int list"),
    (["finance", "communities", "--prices", str(UNIVERSE_CSV), "--date", "2021-10-01",
      "--k", "0"], "Invalid value for '--k'"),
    (WINDOW + ["--threshold", "-1"], "Invalid value for '--threshold'"),
    (ROLLING + ["--threshold", "-1"], "Invalid value for '--threshold'"),
    (COMMUNITIES + ["--threshold", "-0.5"], "Invalid value for '--threshold'"),
    ([*EVENTS, "--threshold", "-1"], "Invalid value for '--threshold'"),
    (WINDOW + ["--window", "1"], "Invalid value for '--window'"),
    (ROLLING + ["--window", "1"], "Invalid value for '--window'"),
    (COMMUNITIES + ["--window", "0"], "Invalid value for '--window'"),
    (ROLLING + ["--stride", "0"], "Invalid value for '--stride'"),
    (["karate-noise", "--trials", "0"], "Invalid value for '--trials'"),
    (["karate-noise", "--levels", "0,2"], "error: noise levels must lie in [0, 1]"),
    (["karate-noise", "--levels", "-0.1"], "error: noise levels must lie in [0, 1]"),
    (["synth-rewire", "--group-size", "1"], "Invalid value for '--group-size'"),
    (["synth-rewire", "--intra", "2"], "Invalid value for '--intra'"),
    (["synth-rewire", "--cross", "-0.5"], "Invalid value for '--cross'"),
    ([*EVENTS, "--window-lens", "60,1"], "error: window lengths must be at least 2"),
    (WINDOW + ["--threshold", "nan"], "Invalid value for '--threshold'"),
    (ROLLING + ["--threshold", "nan"], "Invalid value for '--threshold'"),
    (COMMUNITIES + ["--threshold", "nan"], "Invalid value for '--threshold'"),
    ([*EVENTS, "--threshold", "nan"], "Invalid value for '--threshold'"),
    (["synth-rewire", "--intra", "nan"], "Invalid value for '--intra'"),
    (["synth-rewire", "--cross", "nan"], "Invalid value for '--cross'"),
    (WINDOW + ["--min-coverage", "1.5"], "Invalid value for '--min-coverage'"),
    (WINDOW + ["--min-coverage", "nan"], "Invalid value for '--min-coverage'"),
    (ROLLING + ["--min-coverage", "-3"], "Invalid value for '--min-coverage'"),
    (COMMUNITIES + ["--min-coverage", "nan"], "Invalid value for '--min-coverage'"),
    ([*EVENTS, "--min-coverage", "1.01"], "Invalid value for '--min-coverage'"),
    (["synth-rewire", "--seeds", "-3", "--fractions", "0"],
     "error: seed must be nonnegative, got -3"),
    (["synth-rewire", "--seeds", "-2-4"], "error: seed must be nonnegative, got -2"),
    (["karate-noise", "--seed", "-1", "--levels", "0.05", "--trials", "2"],
     "Invalid value for '--seed'"),
    (["synth-rewire", "--fractions", "0,2"], "error: fraction 2.0 outside [0, 1]"),
    (["synth-rewire", "--fractions", "0,nan"], "error: fraction nan outside [0, 1]"),
    (["synth-rewire", "--fractions", "0.4,0.2"], "error: fractions must be ascending"),
    (["synth-rewire", "--fractions", ","], "error: fractions must be nonempty"),
    (["synth-rewire", "--seeds", ","], "error: seeds must be nonempty"),
    (LEARN + ["--defect-tolerance", "nan"], "error: tolerances and penalty weight must be positive"),
    (LEARN + ["--step-tolerance", "nan"], "error: tolerances and penalty weight must be positive"),
    (LEARN + ["--penalty", "nan"], "error: tolerances and penalty weight must be positive"),
    (["karate-noise", "--levels", ","], "error: noise levels must be nonempty"),
    (["karate-noise", "--levels", ""], "error: noise levels must be nonempty"),
])
def test_malformed_cli_arguments_exit_2_without_a_traceback(runner, path3, args, message):
    result = runner.invoke(main, [str(path3) if arg == "PATH3" else arg for arg in args])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert message in result.output


GRAPH_COMMANDS = {
    "defect": [],
    "project": ["--out-matrix", "projected.txt"],
    "learn": [],
    "export-operator": [],
}


@pytest.mark.parametrize("command", list(GRAPH_COMMANDS))
def test_graph_commands_exit_1_when_the_fiedler_operator_is_undefined(runner, tmp_path, command):
    graph_path = tmp_path / "two_edges.txt"
    save_graph(graph_from_edges(["a", "b", "c", "d"], [(0, 1), (2, 3)]), graph_path)
    extra = [str(tmp_path / arg) if arg.endswith(".txt") else arg
             for arg in GRAPH_COMMANDS[command]]
    result = runner.invoke(main, [command, str(graph_path), *extra])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "error: graph is disconnected" in result.output


@pytest.mark.parametrize("command", ["defect", "project", "learn"])
@pytest.mark.parametrize("operator_args, message", [
    (["--operator", "garbage.txt"], "error: expected '#pairing n: N' or '#dense n: N' header"),
    (["--fiedler", "--index-reversal"], "error: choose exactly one of"),
    (["--operator", "op5.txt"], "error: operator is 5x5 but graph has 4 nodes"),
])
def test_graph_commands_exit_2_on_a_bad_operator_before_the_fiedler_operator(
    runner, tmp_path, command, operator_args, message
):
    # the graph is disconnected too: the operator is resolved first, in the load phase
    graph_path = tmp_path / "two_edges.txt"
    save_graph(graph_from_edges(["a", "b", "c", "d"], [(0, 1), (2, 3)]), graph_path)
    (tmp_path / "garbage.txt").write_text("garbage\n", encoding="utf-8")
    save_operator(validate_involution(np.eye(5)), tmp_path / "op5.txt")
    extra = [str(tmp_path / arg) if arg.endswith(".txt") else arg
             for arg in [*operator_args, *GRAPH_COMMANDS[command]]]
    result = runner.invoke(main, [command, str(graph_path), *extra])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert message in result.output


def test_finance_boundary_option_values_are_accepted(runner):
    # the smallest values the option ranges let through still compute
    zero = runner.invoke(main, WINDOW + ["--threshold", "0", "--window", "2"])
    assert zero.exit_code == 0 and "window_len=2" in zero.output
    rolling = runner.invoke(main, ROLLING + ["--window", "2", "--stride", "1", "--threshold", "0"])
    assert rolling.exit_code == 0 and "# stride=1" in rolling.output
    events = runner.invoke(main, EVENTS + ["--window-lens", "2", "--offsets", "0"])
    assert events.exit_code == 0 and "SPIKE,2,0," in events.output


def test_benchmark_boundary_option_values_are_accepted(runner):
    noise = runner.invoke(main, ["karate-noise", "--levels", "0,1", "--trials", "1"])
    assert noise.exit_code == 0 and "\n1.0," in noise.output
    rewired = runner.invoke(main, ["synth-rewire", "--group-size", "2", "--intra", "0",
                                   "--cross", "1", "--fractions", "0", "--seeds", "1"])
    assert rewired.exit_code == 0, rewired.output


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_non_finite_numerics_in_the_noise_kernel_exit_1(runner, monkeypatch):
    # valid options, but a noisy graph whose degrees overflow: a compute failure
    original = benchmarks._flip_chunk

    def overflowing(weights, count, raws, lists):
        stack = original(weights, count, raws, lists)
        stack[:, 1, 2:4] = stack[:, 2:4, 1] = 1e308
        return stack

    monkeypatch.setattr(benchmarks, "_flip_chunk", overflowing)
    result = runner.invoke(main, ["karate-noise", "--levels", "0.05", "--trials", "2"])
    assert result.exit_code == 1
    assert "error: matrix contains non-finite entries" in result.output


def test_finance_rolling_formats_agree(runner):
    base = ["finance", "rolling", "--prices", str(UNIVERSE_CSV),
            "--window", "60", "--stride", "60"]
    csv_run = runner.invoke(main, base)
    assert csv_run.exit_code == 0
    json_run = runner.invoke(main, base + ["--format", "json"])
    doc = json.loads(json_run.output)
    csv_rows = [
        line for line in csv_run.output.splitlines() if line and not line.startswith("#")
    ][1:]
    assert len(csv_rows) == len(doc["records"])
    for line, rec in zip(csv_rows, doc["records"]):
        assert float(line.split(",")[3]) == rec["defect"]


def test_finance_communities_reports_fault_line(runner):
    result = runner.invoke(
        main,
        ["finance", "communities", "--prices", str(UNIVERSE_CSV),
         "--date", "2021-02-25", "--window", "120", "--k", "6"],
    )
    assert result.exit_code == 0
    assert "# fault_line=" in result.output
    assert "community,members,internal_coupling" in result.output
    assert "coupling_i,coupling_j,coupling" in result.output


def test_finance_events_release_signature(runner):
    result = runner.invoke(
        main,
        ["finance", "events", "--prices", str(UNIVERSE_CSV),
         "--events", "SPIKE:2021-12-24"],
    )
    assert result.exit_code == 0
    sections = result.output.split("event,window_len,delta_defect,delta_corr")
    delta_rows = [line for line in sections[1].splitlines() if line.startswith("SPIKE")]
    assert len(delta_rows) == 2
    for row in delta_rows:
        _, _, delta_defect, delta_corr = row.split(",")
        assert float(delta_defect) < 0.0
        assert float(delta_corr) > 0.0


def test_finance_events_out_of_range_is_flagged_not_fatal(runner):
    result = runner.invoke(
        main,
        ["finance", "events", "--prices", str(UNIVERSE_CSV), "--events", "X:2019-01-01"],
    )
    assert result.exit_code == 0
    assert "# flags=X:out_of_range" in result.output


def test_output_file_matches_stdout(runner, tmp_path):
    args = ["synth-rewire", "--group-size", "5", "--fractions", "0,0.5", "--seeds", "1-2"]
    piped = runner.invoke(main, args)
    out_path = tmp_path / "report.csv"
    written = runner.invoke(main, args + ["--out", str(out_path)])
    assert written.exit_code == 0
    assert out_path.read_text(encoding="utf-8") == piped.output


def test_installed_entry_point_responds():
    # The `prism` executable exists only after an install, so run the declared
    # console-script target in a fresh interpreter the way its wrapper does.
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))
    module, func = pyproject["project"]["scripts"]["prism"].split(":")
    code = f"import sys; from {module} import {func}; sys.argv[0] = 'prism'; sys.exit({func}())"
    proc = subprocess.run([sys.executable, "-c", code, "--help"], capture_output=True,
                          text=True, timeout=60, env=child_env())
    assert proc.returncode == 0
    assert "Structural-symmetry diagnostics" in proc.stdout


def test_fresh_interpreter_imports_the_cli_without_numpy_random():
    # numpy loads numpy.random on first use; the noise benchmark's generator is
    # made when a run starts, so start-up does not pay for the module
    code = "import sys\nimport prism.cli\nprint('numpy.random' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=REPO, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_fresh_interpreter_runs_learn_without_scipy(tmp_path):
    # A subprocess, because this test process has scipy loaded already (the
    # oracles import it). On a permutation operator the learner's P-step
    # returns before the one place that needs scipy.optimize, and the finance
    # window kernel's eigen work is numpy's alone.
    graph_path = tmp_path / "mirror.txt"
    out_path = tmp_path / "learn.json"
    rolling_path = tmp_path / "rolling.csv"
    save_graph(rewire(generate_dual_network(8, seed=2).graph, 0.1, seed=5), graph_path)
    code = (
        "import sys\n"
        "import prism\n"
        "import prism.cli\n"
        "for argv in (['learn', sys.argv[1], '--out', sys.argv[2]],\n"
        "             ['finance', 'rolling', '--prices', sys.argv[3], '--window', '60',\n"
        "              '--out', sys.argv[4]]):\n"
        "    try:\n"
        "        prism.cli.main(argv)\n"
        "    except SystemExit as stop:\n"
        "        assert stop.code == 0, stop.code\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(graph_path), str(out_path),
                           str(UNIVERSE_CSV), str(rolling_path)],
                          capture_output=True, text=True, timeout=60, cwd=REPO, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert json.loads(out_path.read_text(encoding="utf-8"))["iterations"] == 1
    rolling_lines = rolling_path.read_text(encoding="utf-8").splitlines()
    assert len(rolling_lines) == 6 + 108  # config and header lines, then 540 windows at stride 5
