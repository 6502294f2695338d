"""Command-line front end. Every command is seed-deterministic.

Exit codes: 0 success, 1 a computation could not produce a result
(disconnection, undefined quantities, non-finite numerics),
2 inputs failed to load or validate.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import click
import numpy as np

from . import benchmarks as bench
from . import finance as fin
from .duality import (
    DualityOperator,
    commutant_projection,
    commutator_norm,
    duality_defect,
    identity_operator,
    load_operator,
    operator_to_text,
)
from .errors import DimensionMismatch, ParseError, PrismError, ValidationError
from .graphs import Graph, laplacian, load_graph, load_matrix, save_matrix
from .learn import (
    AlternatingConfig,
    alternate,
    fiedler_duality_operator,
    learn_result_to_json,
)
from .reporting import fmt, json_text


@contextmanager
def _phase(exit_code: int):
    """Map failures to the exit code for the current phase (load=2, compute=1)."""
    try:
        yield
    except PrismError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exit_code)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _load_phase():
    return _phase(2)


def _compute_phase():
    return _phase(1)


def _parse_list(text: str, kind=float) -> list:
    """Comma list of numbers of one kind ('0,0.05' or '-90,0'); empty parts are skipped."""
    try:
        return [kind(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ParseError(f"bad {kind.__name__} list {text!r}") from None


def _parse_seed_list(text: str) -> list[int]:
    """Comma list with 'a-b' range support: '1-20' or '3,5,9'."""
    seeds: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if "-" in part[1:]:
                split_at = part.index("-", 1)
                lo, hi = int(part[:split_at]), int(part[split_at + 1 :])
                seeds.extend(range(lo, hi + 1))
            else:
                seeds.append(int(part))
        except ValueError:
            raise ParseError(f"bad seed {part!r} in {text!r}") from None
    return seeds


def _parse_events(text: str) -> list[tuple[str, str]]:
    """Comma list of dates or label:date pairs; a bare date is its own label."""
    events = []
    for part in text.split(","):
        part = part.strip()
        if part:
            label, colon, date = part.partition(":")
            events.append((label, date) if colon else (part, part))
    return events


def _resolve_operator(
    n: int,
    fiedler: bool,
    index_reversal: bool,
    operator_path: str | None,
    graph: Graph | None = None,
) -> DualityOperator | None:
    """P for n nodes from the selected mode, or None for the Fiedler pairing (the default).

    The flags and the operator file are inputs, resolved in the load phase.
    The Fiedler pairing is computed from the graph in the compute phase
    (_operator_or_fiedler), so a disconnected graph exits 1 in every command.
    """
    chosen = sum([fiedler, index_reversal, operator_path is not None])
    if chosen == 0:
        fiedler = True
    elif chosen > 1:
        raise DimensionMismatch("choose exactly one of --fiedler / --index-reversal / --operator")
    if fiedler:
        if graph is None:
            raise DimensionMismatch("--matrix input needs --operator or --index-reversal")
        return None
    if index_reversal:
        return bench.index_reversal_operator(n)
    if operator_path == "identity":
        return identity_operator(n)
    operator = load_operator(operator_path)
    if operator.n != n:
        raise DimensionMismatch(f"operator is {operator.n}x{operator.n} but graph has {n} nodes")
    return operator


def _operator_or_fiedler(operator: DualityOperator | None, graph: Graph) -> DualityOperator:
    return fiedler_duality_operator(graph) if operator is None else operator


def _load_input(
    path: str, as_matrix: bool, fiedler: bool, index_reversal: bool, operator_path: str | None
) -> tuple[np.ndarray, Graph | None, DualityOperator | None]:
    """The Laplacian (or the --matrix file as is), its graph and the resolved operator.

    A bare matrix has no graph to derive a Fiedler pairing from, so --fiedler
    is ignored there and an explicit operator is required.
    """
    if as_matrix:
        lap = load_matrix(path)
        return lap, None, _resolve_operator(lap.shape[0], False, index_reversal, operator_path)
    graph = load_graph(path)
    operator = _resolve_operator(graph.n, fiedler, index_reversal, operator_path, graph)
    return laplacian(graph), graph, operator


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


_operator_options = [
    click.option("--fiedler", is_flag=True, help="Derive P by Fiedler-rank pairing."),
    click.option("--index-reversal", is_flag=True, help="Use sigma(i) = n-1-i."),
    click.option("--operator", "operator_path", default=None,
                 help="Operator file, or the literal 'identity'."),
]


def _with_operator_options(command):
    for option in reversed(_operator_options):
        command = option(command)
    return command


class _FloatRange(click.FloatRange):
    """click.FloatRange that also rejects nan, which passes every comparison."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if np.isnan(number):
            self.fail(f"{number} is not in the range {self._describe_range()}.", param, ctx)
        return number


# Checked when the options are parsed, so a bad value exits 2 like bad input.
_NONNEGATIVE = _FloatRange(min=0.0)
_PROBABILITY = _FloatRange(0.0, 1.0)
_WINDOW_LEN = click.IntRange(min=2)


@click.group()
def main() -> None:
    """Structural-symmetry diagnostics for weighted graphs."""


@main.command()
@click.argument("graph_path")
@_with_operator_options
@click.option("--matrix", "as_matrix", is_flag=True,
              help="Interpret the input file as a dense symmetric matrix.")
def defect(graph_path, fiedler, index_reversal, operator_path, as_matrix) -> None:
    """Print the duality defect of a graph against an operator."""
    with _load_phase():
        lap, graph, operator = _load_input(graph_path, as_matrix, fiedler, index_reversal,
                                           operator_path)
    with _compute_phase():
        operator = _operator_or_fiedler(operator, graph)
        delta = duality_defect(lap, operator)
        commutator = commutator_norm(lap, operator)
    click.echo(f"delta={fmt(delta)}")
    click.echo(f"laplacian_norm={fmt(float(np.linalg.norm(lap)))}")
    click.echo(f"commutator_norm={fmt(commutator)}")


@main.command()
@click.argument("graph_path")
@_with_operator_options
@click.option("--matrix", "as_matrix", is_flag=True,
              help="Interpret the input file as a dense symmetric matrix.")
@click.option("--out-matrix", required=True, help="Where to write the projected matrix.")
@click.option("--out", default=None, help="Summary JSON path (default stdout).")
def project(graph_path, fiedler, index_reversal, operator_path, as_matrix,
            out_matrix, out) -> None:
    """Project the Laplacian onto the commutant of an operator."""
    with _load_phase():
        lap, graph, operator = _load_input(graph_path, as_matrix, fiedler, index_reversal,
                                           operator_path)
    with _compute_phase():
        result = commutant_projection(lap, _operator_or_fiedler(operator, graph))
    save_matrix(result.projected, out_matrix)
    summary = {
        "defect_before": result.defect_before,
        "defect_after": result.defect_after,
        "deformation": result.deformation,
    }
    _emit(json_text(summary), out)


@main.command()
@click.argument("graph_path")
@_with_operator_options
@click.option("--defect-tolerance", default=1e-4, show_default=True)
@click.option("--step-tolerance", default=1e-6, show_default=True)
@click.option("--max-outer", default=50, show_default=True)
@click.option("--penalty", default=10.0, show_default=True)
@click.option("--inner-steps", default=200, show_default=True)
@click.option("--out", default=None, help="Result JSON path (default stdout).")
def learn(graph_path, fiedler, index_reversal, operator_path, defect_tolerance,
          step_tolerance, max_outer, penalty, inner_steps, out) -> None:
    """Learn a duality operator by alternating projection and refinement."""
    with _load_phase():
        graph = load_graph(graph_path)
        config = AlternatingConfig(
            defect_tolerance=defect_tolerance,
            step_tolerance=step_tolerance,
            max_outer_iterations=max_outer,
            penalty_weight=penalty,
            inner_gradient_steps=inner_steps,
        )
        operator = _resolve_operator(graph.n, fiedler, index_reversal, operator_path, graph)
    with _compute_phase():
        initial = _operator_or_fiedler(operator, graph)
        result = alternate(laplacian(graph), initial, config)
    _emit(learn_result_to_json(result), out)


@main.command("synth-rewire")
@click.option("--group-size", default=20, show_default=True, type=click.IntRange(min=2))
@click.option("--intra", default=0.4, show_default=True, type=_PROBABILITY)
@click.option("--cross", default=0.1, show_default=True, type=_PROBABILITY)
@click.option("--fractions", default="0,0.2,0.4,0.6,0.8", show_default=True)
@click.option("--seeds", default="1-20", show_default=True,
              help="Comma list, 'a-b' ranges allowed.")
@click.option("--format", "out_format", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default=None)
def synth_rewire(group_size, intra, cross, fractions, seeds, out_format, out) -> None:
    """Defect and modularity versus rewiring fraction on mirror networks."""
    with _load_phase():
        fraction_list = _parse_list(fractions)
        seed_list = _parse_seed_list(seeds)
        bench._check_rewire_lists(fraction_list, seed_list)
    with _compute_phase():
        report = bench.rewire_experiment(group_size, (intra, cross), fraction_list, seed_list)
    text = (bench.rewire_report_to_csv(report) if out_format == "csv"
            else bench.rewire_report_to_json(report))
    _emit(text, out)


@main.command("karate-noise")
@click.option("--levels", default="0,0.02,0.05,0.1,0.15,0.2", show_default=True,
              help="Comma-separated noise levels, each the fraction of the n(n-1)/2 "
                   "node pairs flipped (5% is 28 of the club's 561 pairs).")
@click.option("--trials", default=50, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=123, show_default=True, type=click.IntRange(min=0))
@click.option("--format", "out_format", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default=None)
def karate_noise(levels, trials, seed, out_format, out) -> None:
    """Noisy two-faction recovery benchmark on the club graph."""
    with _load_phase():
        level_list = _parse_list(levels)
        bench._check_noise_levels(level_list)
    with _compute_phase():
        report = bench.noise_benchmark(level_list, trials, seed)
    text = (bench.noise_report_to_csv(report) if out_format == "csv"
            else bench.noise_report_to_json(report))
    _emit(text, out)


@main.group()
def finance() -> None:
    """Rolling correlation-network diagnostics from a price CSV."""


def _load_returns(prices_path: str, min_coverage: float) -> fin.ReturnPanel:
    panel = fin.load_prices(prices_path)
    return fin.log_returns(panel, min_coverage)


@finance.command()
@click.option("--prices", "prices_path", required=True)
@click.option("--date", "window_end", required=True)
@click.option("--window", "window_len", default=60, show_default=True, type=_WINDOW_LEN)
@click.option("--threshold", default=0.2, show_default=True, type=_NONNEGATIVE)
@click.option("--min-coverage", default=0.95, show_default=True, type=_PROBABILITY)
def window(prices_path, window_end, window_len, threshold, min_coverage) -> None:
    """Mean correlation and duality defect for one window."""
    with _load_phase():
        returns = _load_returns(prices_path, min_coverage)
    with _compute_phase():
        stats = fin.window_stats(returns, window_end, window_len, threshold)
    click.echo(f"window_end={stats.window_end}")
    click.echo(f"window_len={stats.window_len}")
    click.echo(f"mean_corr={fmt(stats.mean_correlation)}")
    click.echo(f"defect={fmt(stats.defect)}")
    click.echo(f"component_size={stats.component_size}")
    click.echo(f"dropped_nodes={stats.dropped_nodes}")


@finance.command()
@click.option("--prices", "prices_path", required=True)
@click.option("--window", "window_len", default=60, show_default=True, type=_WINDOW_LEN)
@click.option("--stride", default=5, show_default=True, type=click.IntRange(min=1))
@click.option("--threshold", default=0.2, show_default=True, type=_NONNEGATIVE)
@click.option("--min-coverage", default=0.95, show_default=True, type=_PROBABILITY)
@click.option("--format", "out_format", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default=None)
def rolling(prices_path, window_len, stride, threshold, min_coverage, out_format, out) -> None:
    """Rolling (mean correlation, defect) series with trend."""
    with _load_phase():
        returns = _load_returns(prices_path, min_coverage)
    with _compute_phase():
        series = fin.rolling_defect(returns, window_len, stride, threshold)
    text = (fin.rolling_series_to_csv(series) if out_format == "csv"
            else fin.rolling_series_to_json(series))
    _emit(text, out)


@finance.command()
@click.option("--prices", "prices_path", required=True)
@click.option("--date", "window_end", required=True)
@click.option("--window", "window_len", default=120, show_default=True, type=_WINDOW_LEN)
@click.option("--k", default=6, show_default=True, type=click.IntRange(min=1))
@click.option("--threshold", default=0.2, show_default=True, type=_NONNEGATIVE)
@click.option("--min-coverage", default=0.95, show_default=True, type=_PROBABILITY)
@click.option("--seed", default=0, show_default=True)
@click.option("--format", "out_format", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default=None)
def communities(prices_path, window_end, window_len, k, threshold, min_coverage,
                seed, out_format, out) -> None:
    """k risk communities from the projected window Laplacian."""
    with _load_phase():
        returns = _load_returns(prices_path, min_coverage)
    with _compute_phase():
        report = fin.communities(returns, window_end, window_len, k, threshold, seed)
    text = (fin.community_report_to_csv(report) if out_format == "csv"
            else fin.community_report_to_json(report))
    _emit(text, out)


@finance.command()
@click.option("--prices", "prices_path", required=True)
@click.option("--events", "events_text", required=True,
              help="Comma list of dates or label:date pairs.")
@click.option("--offsets", default="-90,-60,-30,-10,0", show_default=True)
@click.option("--window-lens", default="60,90", show_default=True)
@click.option("--threshold", default=0.2, show_default=True, type=_NONNEGATIVE)
@click.option("--min-coverage", default=0.95, show_default=True, type=_PROBABILITY)
@click.option("--format", "out_format", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--out", default=None)
def events(prices_path, events_text, offsets, window_lens, threshold, min_coverage,
           out_format, out) -> None:
    """Defect and correlation at fixed offsets before each event."""
    with _load_phase():
        returns = _load_returns(prices_path, min_coverage)
        event_list = _parse_events(events_text)
        offset_tuple = tuple(_parse_list(offsets, int))
        window_tuple = tuple(_parse_list(window_lens, int))
        if any(n < 2 for n in window_tuple):
            raise ValidationError(f"window lengths must be at least 2, got {window_lens!r}")
    with _compute_phase():
        study = fin.event_study(returns, event_list, offset_tuple, window_tuple, threshold)
    text = (fin.event_study_to_csv(study) if out_format == "csv"
            else fin.event_study_to_json(study))
    _emit(text, out)


@main.command("export-operator")
@click.argument("graph_path")
@click.option("--out", default=None)
def export_operator(graph_path, out) -> None:
    """Write the Fiedler-pairing operator of a graph."""
    with _load_phase():
        graph = load_graph(graph_path)
    with _compute_phase():
        operator = fiedler_duality_operator(graph)
    _emit(operator_to_text(operator), out)


if __name__ == "__main__":
    main()
