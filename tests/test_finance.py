"""Price parsing, correlation windows, rolling series, communities, events."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_window_stats, pair_loop_coupling, pearson
from prism import finance
from prism.duality import duality_defect
from prism.errors import (
    DegenerateWindow,
    DuplicateDate,
    EmptyPanel,
    InsufficientHistory,
    NonPositivePrice,
    ParseError,
    PrismError,
    TooFewNodes,
    ValidationError,
    ZeroMatrix,
)
from prism.finance import (
    ReturnPanel,
    communities,
    correlation_graph,
    event_study,
    event_study_to_csv,
    event_study_to_json,
    load_prices,
    log_returns,
    rolling_defect,
    rolling_series_to_csv,
    rolling_series_to_json,
    window_defect,
    window_stats,
)
from prism.fixtures import generate_returns, planted_sectors, trading_dates, universe_tickers
from prism.graphs import is_connected, laplacian
from prism.learn import fiedler_duality_operator

GOLDEN_END = "2021-02-25"
GOLDEN_MEAN_CORR = 0.4722035310672387
GOLDEN_DEFECT = 0.19648362047337645
GOLDEN_EDGES = 329


def write_prices(tmp_path, text):
    path = tmp_path / "prices.csv"
    path.write_text(text, encoding="utf-8")
    return path


def panel_from_returns(returns, start="2020-01-06"):
    """Wrap a raw return matrix in a ReturnPanel with synthetic weekday dates."""
    returns = np.asarray(returns, dtype=float)
    steps, n = returns.shape
    dates = tuple(trading_dates(start, steps + 1)[1:])
    tickers = tuple(f"T{i:02d}" for i in range(n))
    return ReturnPanel(dates=dates, tickers=tickers, returns=returns, dropped=())


def factor_panel(group_sizes, market, group_vol, idio, steps=240, seed=99):
    """Returns driven by one market factor plus one factor per group."""
    rng = np.random.default_rng(seed)
    n = sum(group_sizes)
    market_path = rng.standard_normal(steps)
    group_paths = rng.standard_normal((len(group_sizes), steps))
    idx = np.repeat(np.arange(len(group_sizes)), group_sizes)
    returns = (
        market * market_path[:, None]
        + group_vol * group_paths[idx, :].T
        + idio * rng.standard_normal((steps, n))
    )
    return panel_from_returns(returns), idx


def test_load_prices_happy_path(tmp_path):
    path = write_prices(
        tmp_path,
        "date,AAA,BBB\n2021-01-05,10.0,20.0\n2021-01-04,9.0,\n2021-01-06,11.0,21.0\n",
    )
    panel = load_prices(path)
    assert panel.tickers == ("AAA", "BBB")
    assert panel.dates == ("2021-01-04", "2021-01-05", "2021-01-06")  # sorted on load
    assert np.isnan(panel.prices[0, 1])
    assert panel.prices[1, 0] == 10.0


def test_load_prices_parse_errors(tmp_path):
    with pytest.raises(ParseError, match="line 1"):
        load_prices(write_prices(tmp_path, "time,AAA\n"))
    with pytest.raises(ParseError, match="no ticker"):
        load_prices(write_prices(tmp_path, "date\n"))
    with pytest.raises(ParseError, match="duplicate ticker"):
        load_prices(write_prices(tmp_path, "date,AAA,AAA\n"))
    with pytest.raises(ParseError, match="line 3"):
        load_prices(write_prices(tmp_path, "date,AAA\n2021-01-04,1.0\n2021-01-05,1.0,2.0\n"))
    with pytest.raises(ParseError, match="line 2, column 2"):
        load_prices(write_prices(tmp_path, "date,AAA\n2021-01-04,abc\n"))
    with pytest.raises(NonPositivePrice, match="line 2"):
        load_prices(write_prices(tmp_path, "date,AAA\n2021-01-04,-3.0\n"))
    with pytest.raises(DuplicateDate):
        load_prices(write_prices(tmp_path, "date,AAA\n2021-01-04,1.0\n2021-01-04,2.0\n"))
    with pytest.raises(ParseError, match="empty file"):
        load_prices(write_prices(tmp_path, ""))


def test_log_returns_matches_manual_computation(tmp_path):
    path = write_prices(
        tmp_path, "date,AAA\n2021-01-04,10.0\n2021-01-05,11.0\n2021-01-06,9.5\n"
    )
    panel = log_returns(load_prices(path))
    assert panel.dates == ("2021-01-05", "2021-01-06")
    assert panel.returns[0, 0] == pytest.approx(np.log(11.0 / 10.0), abs=1e-15)
    assert panel.returns[1, 0] == pytest.approx(np.log(9.5 / 11.0), abs=1e-15)


def test_log_returns_gap_produces_nan_on_both_sides(tmp_path):
    rows = "\n".join(
        f"2021-01-{4 + i:02d},{10.0 + i},{20.0 + i}" if i != 2 else f"2021-01-{4 + i:02d},{10.0 + i},"
        for i in range(5)
    )
    panel = log_returns(load_prices(write_prices(tmp_path, "date,AAA,BBB\n" + rows + "\n")), 0.5)
    col = panel.returns[:, 1]
    assert np.isnan(col[1]) and np.isnan(col[2])
    assert np.isfinite(col[0]) and np.isfinite(col[3])


def test_log_returns_drops_low_coverage_tickers(tmp_path):
    lines = ["date,AAA,BBB"]
    for i in range(20):
        bbb = "" if i < 2 else f"{20.0 + i}"
        lines.append(f"2021-02-{1 + i:02d},{10.0 + i},{bbb}")
    panel = log_returns(load_prices(write_prices(tmp_path, "\n".join(lines) + "\n")))
    assert panel.tickers == ("AAA",)
    assert panel.dropped == ("BBB",)


@pytest.mark.parametrize("min_coverage", [-0.1, 1.5, float("nan")])
def test_log_returns_rejects_coverage_outside_0_1(tmp_path, min_coverage):
    panel = load_prices(write_prices(tmp_path, "date,AAA\n2021-01-04,1.0\n2021-01-05,2.0\n"))
    with pytest.raises(ValidationError, match="outside"):
        log_returns(panel, min_coverage)
    assert log_returns(panel, 0.0).tickers == log_returns(panel, 1.0).tickers == ("AAA",)


def test_log_returns_needs_two_dates(tmp_path):
    with pytest.raises(EmptyPanel):
        log_returns(load_prices(write_prices(tmp_path, "date,AAA\n2021-01-04,1.0\n")))


def test_shipped_universe_survivors(universe_returns):
    assert len(universe_returns.tickers) == 27
    assert universe_returns.dropped == ("FIN05", "HLT05", "CNS05")
    assert len(universe_returns.dates) == 599
    assert universe_returns.dates[0] == "2020-01-03"
    assert universe_returns.dates[-1] == "2022-04-20"
    assert np.all(np.isfinite(universe_returns.returns))


def test_golden_window_against_independent_recomputation(universe_returns):
    graph, mean_corr = correlation_graph(universe_returns, GOLDEN_END, 60)
    pos = universe_returns.dates.index(GOLDEN_END)
    rows = universe_returns.returns[pos - 59 : pos + 1]
    n = rows.shape[1]
    corrs = [pearson(rows[:, i], rows[:, j]) for i in range(n) for j in range(i + 1, n)]
    assert mean_corr == pytest.approx(float(np.mean(corrs)), abs=1e-12)
    assert mean_corr == pytest.approx(GOLDEN_MEAN_CORR, abs=1e-13)
    assert graph.edge_count() == sum(1 for c in corrs if c >= 0.2) == GOLDEN_EDGES
    assert graph.n == 27 and is_connected(graph)
    assert window_defect(universe_returns, GOLDEN_END, 60) == pytest.approx(
        GOLDEN_DEFECT, abs=1e-12
    )


def test_mean_correlation_is_threshold_independent(universe_returns):
    _, loose = correlation_graph(universe_returns, GOLDEN_END, 60, threshold=0.2)
    _, tight = correlation_graph(universe_returns, GOLDEN_END, 60, threshold=0.6)
    assert loose == tight


def test_window_defect_is_scale_invariant(universe_returns):
    scaled = ReturnPanel(
        dates=universe_returns.dates,
        tickers=universe_returns.tickers,
        returns=np.asarray(universe_returns.returns) * 3.0,
        dropped=universe_returns.dropped,
    )
    assert window_defect(scaled, GOLDEN_END, 60) == pytest.approx(
        window_defect(universe_returns, GOLDEN_END, 60), abs=1e-12
    )


def test_window_edge_weights_come_from_correlations(universe_returns):
    graph, _ = correlation_graph(universe_returns, GOLDEN_END, 60, threshold=0.2)
    weights = graph.weights[np.triu_indices(graph.n, 1)]
    present = weights[weights > 0.0]
    assert np.all(present >= 0.2) and np.all(present <= 1.0)


def test_window_validation(universe_returns):
    with pytest.raises(ValidationError):
        correlation_graph(universe_returns, GOLDEN_END, 1)
    with pytest.raises(ValidationError):
        correlation_graph(universe_returns, GOLDEN_END, 60, threshold=-0.1)
    with pytest.raises(InsufficientHistory):
        correlation_graph(universe_returns, "2020-01-10", 60)
    with pytest.raises(InsufficientHistory):
        correlation_graph(universe_returns, "2019-12-31", 10)
    with pytest.raises(ValidationError, match="window_len"):
        rolling_defect(universe_returns, 1)


def test_degenerate_window_too_few_varying_tickers():
    returns = np.zeros((30, 3))
    returns[:, 0] = np.linspace(-0.01, 0.01, 30)  # only one column varies
    panel = panel_from_returns(returns)
    with pytest.raises(DegenerateWindow):
        correlation_graph(panel, panel.dates[-1], 30)


def test_flat_nonzero_ticker_is_dropped_from_the_window():
    # sixty returns of exactly 0.001: rows.std reads about 6.5e-19 for this
    # column rather than 0.0, and keeping it made the mean correlation NaN
    rng = np.random.default_rng(8)
    returns = 0.01 * (rng.standard_normal((60, 4)) + rng.standard_normal((60, 1)))
    returns[:, 2] = 0.001
    panel = panel_from_returns(returns)
    graph, mean_corr = correlation_graph(panel, panel.dates[-1], 60, 0.05)
    assert graph.labels == ("T00", "T01", "T03")
    assert math.isfinite(mean_corr)
    stats = window_stats(panel, panel.dates[-1], 60, 0.05)
    assert stats == loop_window_stats(panel, panel.dates[-1], 60, 0.05)
    assert stats.component_size + stats.dropped_nodes == 3
    assert math.isfinite(stats.mean_correlation) and math.isfinite(stats.defect)
    series = rolling_defect(panel, 60, threshold=0.05)
    assert all(math.isfinite(value) for record in series.records for value in record[2:])


def test_anticorrelated_pair_has_no_edges():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(40) * 0.01
    panel = panel_from_returns(np.column_stack([a, -a]))
    with pytest.raises(ZeroMatrix):
        window_defect(panel, panel.dates[-1], 40)


def test_two_identical_return_cliques_have_zero_defect():
    # two blocks of identical columns: within-block correlations are exactly
    # 1.0, the blocks are mutually independent, and an equal-weight clique
    # commutes with every pairing of its own nodes
    rng = np.random.default_rng(51)
    a = rng.standard_normal(120) * 0.01
    b = rng.standard_normal(120) * 0.01
    returns = np.column_stack([a, a, a, b, b, b])
    panel = panel_from_returns(returns)
    graph, _ = correlation_graph(panel, panel.dates[-1], 120)
    assert graph.edge_count() == 6  # two triangles, no cross edges
    assert window_defect(panel, panel.dates[-1], 120) <= 1e-9


def test_communities_recover_two_planted_groups():
    # market factor strong enough (~0.36 cross correlation) that cross-group
    # edges survive the threshold and the window graph stays connected
    panel, _ = factor_panel([4, 4], market=0.015, group_vol=0.02, idio=0.002)
    report = communities(panel, panel.dates[-1], 240, k=2)
    assert len(report.communities) == 2
    members = {cid: set(names) for cid, names, _ in report.communities}
    group_a = {f"T{i:02d}" for i in range(4)}
    group_b = {f"T{i:02d}" for i in range(4, 8)}
    assert {frozenset(members[0]), frozenset(members[1])} == {
        frozenset(group_a), frozenset(group_b)
    }
    assert report.fault_line == (0, 1)
    for cid, _, internal in report.communities:
        assert internal > report.coupling[0][1]


def test_communities_requires_enough_nodes():
    panel, _ = factor_panel([3, 3], market=0.010, group_vol=0.02, idio=0.002)
    with pytest.raises(TooFewNodes):
        communities(panel, panel.dates[-1], 240, k=10)
    with pytest.raises(TooFewNodes):
        communities(panel, panel.dates[-1], 240, k=1)
    for k in (0, -1):  # rejected before the window is read, even one that cannot exist
        with pytest.raises(ValidationError, match="k must be at least 1"):
            communities(panel, "1990-01-01", 240, k=k)


def test_community_coupling_matches_the_pair_loop(universe_returns):
    valid = 0
    for end in ("2020-12-31", "2021-02-25", "2021-06-30", "2021-10-01", "2022-03-01"):
        for window_len in (60, 120, 250, 450):
            for k in (2, 3, 6, 9):
                try:
                    report = communities(universe_returns, end, window_len, k=k)
                except (InsufficientHistory, TooFewNodes):
                    continue
                _, corr, graph, _ = finance._window_graph(universe_returns, end, window_len, 0.2)
                index = {label: i for i, label in enumerate(graph.labels)}
                members = [[index[label] for label in names] for _, names, _ in report.communities]
                assert report.coupling == pair_loop_coupling(corr, members)
                valid += 1
    assert valid == 68


def test_communities_config_echo(universe_returns):
    report = communities(universe_returns, GOLDEN_END, 120, k=6, seed=7)
    assert report.config["seed"] == 7
    assert report.config["window_len"] == 120
    assert len(report.communities) == 6
    assert len(report.coupling) == 6
    ids = [cid for cid, _, _ in report.communities]
    assert ids == list(range(6))  # relabeled by first appearance


def test_rolling_series_on_shipped_fixture(universe_returns):
    series = rolling_defect(universe_returns, 60, stride=5)
    assert len(series.records) == 108
    assert series.skipped == ()
    assert series.slope == pytest.approx(-0.0007477086048895827, abs=1e-12)
    ends = [rec[0] for rec in series.records]
    assert ends == sorted(ends)
    assert series.records[0][0] == universe_returns.dates[59]


def test_rolling_stride_picks_the_same_windows_as_stride_1(universe_returns):
    # the windows share chunks with other neighbours at stride 25, so equal
    # records show a window's numbers do not depend on its chunk
    every = rolling_defect(universe_returns, 60, stride=1)
    strided = rolling_defect(universe_returns, 60, stride=25)
    assert every.skipped == strided.skipped == ()
    assert repr(strided.records) == repr(every.records[::25])


def test_rolling_detects_structural_drift(universe_config):
    stationary_cfg = dict(universe_config, shocks=[])
    ramp_cfg = dict(
        universe_config,
        shocks=[{"type": "decorrelate_ramp", "sector": "TEC", "start": 59, "end": 599}],
    )
    dates = tuple(trading_dates(universe_config["start_date"], universe_config["days"])[1:])
    tickers = tuple(universe_tickers(universe_config))

    def series_for(cfg):
        panel = ReturnPanel(
            dates=dates, tickers=tickers, returns=generate_returns(cfg), dropped=()
        )
        return rolling_defect(panel, 60, stride=10)

    stationary = series_for(stationary_cfg)
    ramp = series_for(ramp_cfg)
    assert ramp.slope > stationary.slope
    assert ramp.slope > 0.0


def test_rolling_skips_failing_windows():
    rng = np.random.default_rng(2)
    a = rng.standard_normal(30) * 0.01
    panel = panel_from_returns(np.column_stack([a, -a]))
    series = rolling_defect(panel, 10, stride=5)
    assert series.records == ()
    assert series.slope is None
    assert all(reason == "ZeroMatrix" for _, reason in series.skipped)
    assert len(series.skipped) == 5


@pytest.mark.parametrize("failing_chunk", [1, 2])
def test_non_prism_window_errors_propagate(universe_returns, monkeypatch, failing_chunk):
    # only a PrismError may become a skipped window or a partial row; any
    # other exception is a bug and must surface, from the first chunk of a
    # run or from a later one after a good chunk
    original = finance._chunk_stats
    calls = []

    def broken(*args, **kwargs):
        calls.append(None)
        if len(calls) == failing_chunk:
            raise TypeError("broken window")
        return original(*args, **kwargs)

    monkeypatch.setattr(finance, "_chunk_stats", broken)
    # stride 10 gives 54 windows, more than one chunk
    assert len(range(59, len(universe_returns.dates), 10)) > finance.WINDOW_CHUNK
    with pytest.raises(TypeError, match="broken window"):
        rolling_defect(universe_returns, 60, stride=10)
    assert len(calls) == failing_chunk
    calls.clear()
    # the default study runs one kernel call per window length, two in all
    with pytest.raises(TypeError, match="broken window"):
        event_study(universe_returns, [("SPIKE", "2021-12-24")])
    assert len(calls) == failing_chunk


def test_rolling_stride_validation(universe_returns):
    with pytest.raises(ValidationError):
        rolling_defect(universe_returns, 60, stride=0)


def test_rolling_formats_agree(universe_returns):
    series = rolling_defect(universe_returns, 60, stride=120)
    csv_lines = [
        line for line in rolling_series_to_csv(series).splitlines()
        if line and not line.startswith("#")
    ]
    assert csv_lines[0] == "window_end,window_len,mean_corr,defect"
    import json

    doc = json.loads(rolling_series_to_json(series))
    assert doc["slope"] == series.slope
    for line, rec in zip(csv_lines[1:], doc["records"]):
        end, length, corr, defect = line.split(",")
        assert end == rec["window_end"]
        assert int(length) == rec["window_len"]
        assert float(corr) == rec["mean_corr"]
        assert float(defect) == rec["defect"]


def test_event_study_offset_zero_matches_single_window(universe_returns):
    study = event_study(universe_returns, [("SPIKE", "2021-12-24")])
    cell = next(
        row for row in study.grid if row[1] == 60 and row[2] == 0
    )
    assert cell[3] == window_defect(universe_returns, "2021-12-24", 60)


def test_event_study_spike_release_signature(universe_returns):
    study = event_study(universe_returns, [("SPIKE", "2021-12-24")])
    assert study.flags == ()
    by_len = {delta[1]: delta for delta in study.deltas}
    assert by_len[60][2] == pytest.approx(-0.129509303485554, abs=1e-12)
    assert by_len[60][3] == pytest.approx(0.37520488720470563, abs=1e-12)
    assert by_len[90][2] == pytest.approx(-0.1258813538440256, abs=1e-12)
    assert by_len[90][3] == pytest.approx(0.35691220466590906, abs=1e-12)


def test_event_study_flags_out_of_range(universe_returns):
    study = event_study(universe_returns, [("EARLY", "2019-06-01"), "2021-12-24"])
    assert ("EARLY", "out_of_range") in study.flags
    assert all(row[0] != "EARLY" for row in study.grid)
    labels = {delta[0] for delta in study.deltas}
    assert labels == {"2021-12-24"}


def test_event_study_flags_partial_windows(universe_returns):
    study = event_study(universe_returns, [("START", universe_returns.dates[10])])
    assert ("START", "partial") in study.flags
    for delta in study.deltas:
        assert delta[2] is None and delta[3] is None
    # an offset past the last return row is skipped like one before the first
    late = event_study(universe_returns, [("LATE", "2021-12-24")], offsets=(0, 10000))
    assert late.flags == (("LATE", "partial"),)
    assert [row[2] for row in late.grid] == [0, 0]


def test_event_study_formats_agree(universe_returns):
    study = event_study(universe_returns, ["2021-12-24"], offsets=(-60, 0), window_lens=(60,))
    text = event_study_to_csv(study)
    assert "event,window_len,offset,defect,mean_corr" in text
    assert "event,window_len,delta_defect,delta_corr" in text
    import json

    doc = json.loads(event_study_to_json(study))
    assert len(doc["grid"]) == len(study.grid)
    assert doc["deltas"][0]["delta_defect"] == study.deltas[0][2]


def test_fiedler_operator_pairs_sector_blocks(universe_returns, universe_config):
    graph, _ = correlation_graph(universe_returns, GOLDEN_END, 60)
    op = fiedler_duality_operator(graph)
    assert duality_defect(laplacian(graph), op) == pytest.approx(GOLDEN_DEFECT, abs=1e-12)
    # on a long window the learned mirror lines up with the planted sectors:
    # every couple swaps across sectors (27 nodes leave one fixed point) and
    # the couples concentrate on a handful of sector-to-sector matchings
    graph, _ = correlation_graph(universe_returns, "2021-10-01", 450)
    op = fiedler_duality_operator(graph)
    sectors = planted_sectors(universe_config)
    sigma = np.argmax(op.matrix, axis=1)
    fixed_points = 0
    mapped = {}
    for i, j in enumerate(sigma):
        if int(j) == i:
            fixed_points += 1
            continue
        pair = frozenset((sectors[graph.labels[i]], sectors[graph.labels[int(j)]]))
        mapped[pair] = mapped.get(pair, 0) + 1
    assert fixed_points == 1
    assert all(len(pair) == 2 for pair in mapped)  # never pairs within a sector
    assert len(mapped) <= 4


# The batched window kernel against loop_window_stats, the per-window path it
# replaced: the same WindowStats bits, or the same error type and message.


def outcome_key(outcome):
    """Comparable text of a window outcome; floats by repr, so equal text is equal bits."""
    if isinstance(outcome, PrismError):
        return (type(outcome).__name__, str(outcome))
    return repr(dataclasses.astuple(outcome))


def outcome_of(compute, *args):
    try:
        return compute(*args)
    except PrismError as exc:
        return exc


def assert_kernel_matches_loop(r, window_len, threshold, stride=1):
    """Compare every window of a rolling series with the loop; returns the outcomes."""
    positions = list(range(window_len - 1, len(r.dates), stride))
    expected = [outcome_of(loop_window_stats, r, r.dates[pos], window_len, threshold)
                for pos in positions]
    outcomes = finance._window_stats_at(r, positions, window_len, threshold)
    assert [outcome_key(o) for o in outcomes] == [outcome_key(e) for e in expected]
    series = rolling_defect(r, window_len, stride, threshold)
    assert repr(series.records) == repr(tuple(
        (e.window_end, window_len, e.mean_correlation, e.defect)
        for e in expected if not isinstance(e, PrismError)
    ))
    assert series.skipped == tuple(
        (r.dates[pos], type(e).__name__)
        for pos, e in zip(positions, expected) if isinstance(e, PrismError)
    )
    # window_stats is the kernel on one position; spot-check it, failures included
    for pos, e in zip(positions, expected):
        if isinstance(e, PrismError) or pos % 37 == 0:
            single = outcome_of(finance.window_stats, r, r.dates[pos], window_len, threshold)
            assert outcome_key(single) == outcome_key(e)
    return expected


@pytest.mark.parametrize("stride", [1, 2])
def test_window_kernel_matches_the_loop_across_chunks(universe_returns, stride):
    outcomes = assert_kernel_matches_loop(universe_returns, 60, 0.2, stride=stride)
    # 540 and 270 windows: many chunks, the last one short
    assert len(outcomes) == 540 // stride > 8 * finance.WINDOW_CHUNK
    assert len(outcomes) % finance.WINDOW_CHUNK != 0
    assert all(isinstance(o, finance.WindowStats) for o in outcomes)


def test_window_kernel_matches_the_loop_on_split_components(universe_returns):
    sizes = set()
    for threshold in (0.5, 0.6):
        outcomes = assert_kernel_matches_loop(universe_returns, 60, threshold, stride=2)
        sizes |= {o.component_size for o in outcomes}
    assert min(sizes) == 5 and max(sizes) == 27 and len(sizes) > 8


def test_window_kernel_matches_the_loop_with_gaps():
    rng = np.random.default_rng(17)
    returns = 0.01 * (rng.standard_normal((160, 10)) + rng.standard_normal((160, 1)))
    returns[rng.random(returns.shape) < 0.02] = np.nan
    returns[40:70, 2] = 0.0  # a ticker with no variation
    returns[100:130, 1:] = np.nan  # too few usable tickers
    panel = panel_from_returns(returns)
    graph_sizes = set()
    reasons = set()
    for threshold in (0.0, 0.3, 0.6, 0.9):
        for outcome in assert_kernel_matches_loop(panel, 12, threshold):
            if isinstance(outcome, PrismError):
                reasons.add(type(outcome).__name__)
            else:
                graph_sizes.add(outcome.component_size + outcome.dropped_nodes)
    assert len(graph_sizes) >= 4
    assert {"DegenerateWindow", "ZeroMatrix"} <= reasons


def test_window_kernel_matches_the_loop_on_failing_panels(universe_returns):
    rng = np.random.default_rng(2)
    a = rng.standard_normal(30) * 0.01
    anticorrelated = panel_from_returns(np.column_stack([a, -a]))
    outcomes = assert_kernel_matches_loop(anticorrelated, 10, 0.2, stride=5)
    assert {type(o) for o in outcomes} == {ZeroMatrix}
    flat = np.zeros((30, 3))
    flat[:, 0] = np.linspace(-0.01, 0.01, 30)
    outcomes = assert_kernel_matches_loop(panel_from_returns(flat), 8, 0.2)
    assert {type(o) for o in outcomes} == {DegenerateWindow}
    outcomes = assert_kernel_matches_loop(universe_returns, 60, -0.1, stride=60)
    assert {outcome_key(o) for o in outcomes} == {
        ("ValidationError", "threshold must be nonnegative (weights must be)")
    }
    for end in ("2019-12-31", "2020-02-03"):
        expected = outcome_of(loop_window_stats, universe_returns, end, 60, 0.2)
        assert isinstance(expected, InsufficientHistory)
        assert outcome_key(outcome_of(finance.window_stats, universe_returns, end, 60, 0.2)) \
            == outcome_key(expected)


def test_event_study_cells_match_the_loop(universe_returns):
    events = [("SPIKE", "2021-12-24"), ("EARLY", universe_returns.dates[70])]
    offsets, window_lens = (-90, -60, 0), (60, 1, 90)
    study = event_study(universe_returns, events, offsets, window_lens, threshold=0.6)
    expected = []
    for label, date in events:
        pos = universe_returns.dates.index(date)
        for window_len in window_lens:
            for offset in offsets:
                if pos + offset < window_len - 1:
                    continue
                stats = outcome_of(loop_window_stats, universe_returns,
                                   universe_returns.dates[pos + offset], window_len, 0.6)
                if not isinstance(stats, PrismError):
                    expected.append((label, window_len, offset, stats.defect,
                                     stats.mean_correlation))
    assert repr(study.grid) == repr(tuple(expected))
    assert study.flags == (("SPIKE", "partial"), ("EARLY", "partial"))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(3, 40),
    tickers=st.integers(1, 7),
    window_len=st.integers(2, 10),
    threshold=st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8, 1.0]),
    gaps=st.sampled_from([0.0, 0.05, 0.2]),
    levels=st.sampled_from([None, 2, 3]),
)
def test_window_kernel_matches_the_loop_on_random_panels(
    seed, steps, tickers, window_len, threshold, gaps, levels
):
    # few return levels make tied and exactly equal columns: correlations of
    # exactly 1, ties in the Fiedler order, constant columns and empty graphs
    rng = np.random.default_rng(seed)
    common = rng.standard_normal((steps, 1))
    returns = 0.01 * (rng.standard_normal((steps, tickers)) + rng.random() * common)
    if levels is not None:
        returns = 0.01 * rng.integers(0, levels, size=(steps, tickers))
    returns[rng.random(returns.shape) < gaps] = np.nan
    assert_kernel_matches_loop(panel_from_returns(returns), window_len, threshold)
