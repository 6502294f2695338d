"""Correlation-network pipeline: prices to returns to rolling defect diagnostics.

A window of log returns becomes a graph by thresholding the Pearson
correlation matrix (corr >= threshold keeps its value as edge weight,
anything below, including all negative correlations, carries no edge). The
window's duality defect is measured against the Fiedler-derived mirror
operator of its own largest connected component: low defect means the
correlation structure is nearly symmetric under its softest-cut mirror,
elevated defect means one side of the market is organized differently from
the other. window_stats is the one per-window path: rolling_defect,
event_study and the CLI's window command all go through it. communities
projects the same component onto the commutant of that operator directly and
clusters the projected Laplacian.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .duality import commutant_projection, duality_defect
from .errors import (
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
from .graphs import Graph, _as_readonly, connected_components, laplacian, symmetric_eig
from .learn import fiedler_duality_operator
from .benchmarks import resolve_threads
from .reporting import csv_text, json_text


@dataclass(frozen=True)
class PricePanel:
    """Date-by-ticker close prices; NaN marks an absent observation."""

    dates: tuple[str, ...]
    tickers: tuple[str, ...]
    prices: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "prices", _as_readonly(self.prices))
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValidationError("dates must be strictly ascending")
        present = ~np.isnan(self.prices)
        if np.any(self.prices[present] <= 0.0):
            raise NonPositivePrice("prices must be positive where present")


def load_prices(path) -> PricePanel:
    """Parse `date,TICKER1,...` CSV with ISO dates; empty cells are missing."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("line 1: empty file") from None
        if not header or header[0] != "date":
            raise ParseError("line 1, column 1: header must start with 'date'")
        tickers = tuple(header[1:])
        if len(tickers) == 0:
            raise ParseError("line 1: no ticker columns")
        if len(set(tickers)) != len(tickers):
            raise ParseError("line 1: duplicate ticker column")
        rows: list[tuple[str, list[float]]] = []
        seen_dates = set()
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(tickers) + 1:
                raise ParseError(
                    f"line {lineno}: expected {len(tickers) + 1} columns, got {len(row)}"
                )
            date = row[0]
            if date in seen_dates:
                raise DuplicateDate(f"line {lineno}: duplicate date {date}")
            seen_dates.add(date)
            values = []
            for col, cell in enumerate(row[1:], start=2):
                if cell == "":
                    values.append(np.nan)
                    continue
                try:
                    price = float(cell)
                except ValueError:
                    raise ParseError(
                        f"line {lineno}, column {col}: bad price {cell!r}"
                    ) from None
                if price <= 0.0:
                    raise NonPositivePrice(
                        f"line {lineno}, column {col}: non-positive price {price}"
                    )
                values.append(price)
            rows.append((date, values))
    rows.sort(key=lambda item: item[0])
    dates = tuple(date for date, _ in rows)
    prices = np.array([values for _, values in rows]) if rows else np.empty((0, len(tickers)))
    return PricePanel(dates=dates, tickers=tickers, prices=prices)


@dataclass(frozen=True)
class ReturnPanel:
    """Log returns between consecutive present prices; NaN at gaps.

    dropped lists tickers removed for insufficient coverage.
    """

    dates: tuple[str, ...]
    tickers: tuple[str, ...]
    returns: np.ndarray = field(repr=False)
    dropped: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "returns", _as_readonly(self.returns))


def log_returns(panel: PricePanel, min_coverage: float = 0.95) -> ReturnPanel:
    """r_t = ln(p_t / p_{t-1}) per ticker over consecutive present prices.

    Tickers whose price coverage falls below min_coverage are dropped and
    recorded, which is how a 30-name universe shrinks to the subset that is
    actually usable.
    """
    if len(panel.dates) < 2:
        raise EmptyPanel("need at least 2 dates to compute returns")
    present = ~np.isnan(panel.prices)
    coverage = present.mean(axis=0)
    keep = [i for i, cov in enumerate(coverage) if cov >= min_coverage]
    dropped = tuple(panel.tickers[i] for i, cov in enumerate(coverage) if cov < min_coverage)
    prices = panel.prices[:, keep]
    with np.errstate(invalid="ignore", divide="ignore"):
        returns = np.log(prices[1:] / prices[:-1])
    returns[~np.isfinite(returns)] = np.nan
    return ReturnPanel(
        dates=panel.dates[1:],
        tickers=tuple(panel.tickers[i] for i in keep),
        returns=returns,
        dropped=dropped,
    )


def _window_graph(
    r: ReturnPanel, window_end: str, window_len: int, threshold: float
) -> tuple[int, np.ndarray, Graph, float]:
    """(end position, correlation matrix, thresholded graph, mean correlation).

    The window is the window_len return rows ending at or before window_end.
    Tickers with a gap or no variation in it are left out; the graph's nodes
    are the kept tickers in order, so the correlation matrix and the graph
    index the same nodes.
    """
    if threshold < 0.0:
        raise ValidationError("threshold must be nonnegative (weights must be)")
    if window_len < 2:
        raise ValidationError(f"window_len must be at least 2, got {window_len}")
    pos = bisect_right(r.dates, window_end) - 1
    if pos < 0 or pos + 1 < window_len:
        raise InsufficientHistory(
            f"no {window_len}-row window ends at or before {window_end}"
        )
    rows = np.asarray(r.returns[pos - window_len + 1 : pos + 1])
    full = ~np.isnan(rows).any(axis=0)
    varying = rows.std(axis=0) > 0.0
    kept = [i for i in range(rows.shape[1]) if full[i] and varying[i]]
    if len(kept) < 2:
        raise DegenerateWindow(
            f"fewer than 2 usable tickers in the window ending {r.dates[pos]}"
        )
    corr = np.corrcoef(rows[:, kept].T)
    corr = (corr + corr.T) / 2.0  # BLAS output is not guaranteed bitwise-symmetric
    mean_corr = float(corr[~np.eye(len(kept), dtype=bool)].mean())
    weights = np.where(corr >= threshold, corr, 0.0)
    np.fill_diagonal(weights, 0.0)
    graph = Graph(labels=tuple(r.tickers[i] for i in kept), weights=weights)
    return pos, corr, graph, mean_corr


def _largest_component(graph: Graph) -> tuple[list[int], Graph]:
    """The node indices of the graph's largest component, and that subgraph."""
    largest = max(connected_components(graph), key=len)
    return largest, graph.subgraph(largest)


def correlation_graph(
    r: ReturnPanel, window_end: str, window_len: int, threshold: float = 0.2
) -> tuple[Graph, float]:
    """Thresholded-correlation graph plus the signed unthresholded mean.

    Edge weight is the correlation itself when it reaches the threshold;
    negative correlations never form edges. The mean is computed before
    thresholding, so it is threshold-independent.
    """
    _, _, graph, mean_corr = _window_graph(r, window_end, window_len, threshold)
    return graph, mean_corr


@dataclass(frozen=True)
class WindowStats:
    window_end: str
    window_len: int
    mean_correlation: float
    defect: float
    component_size: int
    dropped_nodes: int


def window_stats(
    r: ReturnPanel, window_end: str, window_len: int, threshold: float = 0.2
) -> WindowStats:
    """Mean correlation and defect of one window, with its component sizes.

    The defect is measured on the thresholded graph's largest connected
    component against that component's own Fiedler mirror operator.
    """
    pos, _, graph, mean_corr = _window_graph(r, window_end, window_len, threshold)
    if graph.edge_count() == 0:
        raise ZeroMatrix(f"window ending {r.dates[pos]} has no edges at threshold")
    _, component = _largest_component(graph)
    operator = fiedler_duality_operator(component)
    defect = duality_defect(laplacian(component), operator)
    return WindowStats(
        window_end=r.dates[pos],
        window_len=window_len,
        mean_correlation=mean_corr,
        defect=defect,
        component_size=component.n,
        dropped_nodes=graph.n - component.n,
    )


def window_defect(
    r: ReturnPanel, window_end: str, window_len: int, threshold: float = 0.2
) -> float:
    """Defect of the window's largest component against its own mirror operator."""
    return window_stats(r, window_end, window_len, threshold).defect


@dataclass(frozen=True)
class RollingSeries:
    """(window_end, window_len, mean correlation, defect) records plus a trend."""

    records: tuple[tuple[str, int, float, float], ...]
    slope: float | None
    skipped: tuple[tuple[str, str], ...]
    config: dict

    def __post_init__(self) -> None:
        ends = [rec[0] for rec in self.records]
        if any(b <= a for a, b in zip(ends, ends[1:])):
            raise ValidationError("window ends must be ascending")
        if any(rec[3] < 0.0 for rec in self.records):
            raise ValidationError("defects must be nonnegative")


def rolling_defect(
    r: ReturnPanel,
    window_len: int,
    stride: int = 1,
    threshold: float = 0.2,
    threads: int | None = None,
) -> RollingSeries:
    """Evaluate (mean correlation, defect) at window ends spaced by stride.

    Windows that fail with a PrismError (no edges, degenerate) are skipped
    and flagged; any other exception propagates. The slope is the
    least-squares trend of the defect per record step; None with fewer than
    two records.
    """
    if window_len < 2:
        raise ValidationError(f"window_len must be at least 2, got {window_len}")
    if stride < 1:
        raise ValidationError(f"stride must be at least 1, got {stride}")
    positions = list(range(window_len - 1, len(r.dates), stride))
    results: dict[int, WindowStats | PrismError] = {}

    def evaluate(pos: int) -> None:
        try:
            results[pos] = window_stats(r, r.dates[pos], window_len, threshold)
        except PrismError as exc:  # recorded per window, not fatal
            results[pos] = exc

    workers = resolve_threads(threads)
    if workers == 1 or len(positions) <= 1:
        for pos in positions:
            evaluate(pos)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(evaluate, positions))
    records = []
    skipped = []
    for pos in positions:
        outcome = results[pos]
        if isinstance(outcome, WindowStats):
            records.append(
                (outcome.window_end, window_len, outcome.mean_correlation, outcome.defect)
            )
        else:
            skipped.append((r.dates[pos], type(outcome).__name__))
    if len(records) >= 2:
        defects = [rec[3] for rec in records]
        slope = float(np.polyfit(np.arange(len(defects)), defects, 1)[0])
    else:
        slope = None
    return RollingSeries(
        records=tuple(records),
        slope=slope,
        skipped=tuple(skipped),
        config={
            "window_len": window_len,
            "stride": stride,
            "threshold": threshold,
        },
    )


ROLLING_CSV_HEADER = ("window_end", "window_len", "mean_corr", "defect")


def rolling_series_to_csv(series: RollingSeries) -> str:
    config = dict(series.config)
    config["slope"] = series.slope
    config["skipped"] = ";".join(f"{date}:{reason}" for date, reason in series.skipped)
    return csv_text(config, ROLLING_CSV_HEADER, series.records)


def rolling_series_to_json(series: RollingSeries) -> str:
    return json_text({
        "config": series.config,
        "slope": series.slope,
        "skipped": [{"window_end": d, "reason": reason} for d, reason in series.skipped],
        "records": [dict(zip(ROLLING_CSV_HEADER, rec)) for rec in series.records],
    })


def _farthest_point_kmeans(points: np.ndarray, k: int, rounds: int = 100) -> np.ndarray:
    """Deterministic k-means: greedy farthest-point seeding, Lloyd iterations.

    First center is the row of largest norm; each next center is the row
    farthest from all chosen centers. Ties always resolve to the lowest
    index, and empty clusters reseed with the worst-served row, so the
    assignment is a pure function of the input.
    """
    n = points.shape[0]
    centers = [int(np.argmax(np.linalg.norm(points, axis=1)))]
    nearest = np.linalg.norm(points - points[centers[0]], axis=1)
    while len(centers) < k:
        nxt = int(np.argmax(nearest))
        centers.append(nxt)
        nearest = np.minimum(nearest, np.linalg.norm(points - points[nxt], axis=1))
    centroids = points[centers].copy()
    assign = np.full(n, -1)
    for _ in range(rounds):
        dist = np.linalg.norm(points[:, None, :] - centroids[None, :, :], axis=2)
        new_assign = np.argmin(dist, axis=1)
        for c in range(k):
            if not np.any(new_assign == c):
                worst = int(np.argmax(dist[np.arange(n), new_assign]))
                new_assign[worst] = c
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return assign


@dataclass(frozen=True)
class CommunityReport:
    """k communities with internal/pairwise coupling from signed correlations."""

    communities: tuple[tuple[int, tuple[str, ...], float | None], ...]
    coupling: tuple[tuple[float | None, ...], ...]
    fault_line: tuple[int, int]
    config: dict


def communities(
    r: ReturnPanel,
    window_end: str,
    window_len: int,
    k: int = 6,
    threshold: float = 0.2,
    seed: int = 0,
) -> CommunityReport:
    """Unsupervised pipeline: Fiedler operator, projected, clustered.

    The window graph's largest component is projected onto the commutant of
    its Fiedler mirror operator; rows of the k lowest eigenvectors of the
    projected Laplacian are normalized and clustered by deterministic
    farthest-point k-means. Coupling numbers come from the signed unthresholded correlation
    matrix, not the graph. The seed is echoed for provenance; the clustering
    itself draws no randomness.
    """
    if k < 1:
        raise ValidationError(f"k must be at least 1, got {k}")
    _, corr, graph, _ = _window_graph(r, window_end, window_len, threshold)
    largest, component = _largest_component(graph)
    if len(largest) < k:
        raise TooFewNodes(f"largest component has {len(largest)} nodes, need {k}")
    operator = fiedler_duality_operator(component)
    decomp = symmetric_eig(commutant_projection(laplacian(component), operator).projected)
    embedding = np.array(decomp.eigenvectors[:, :k])
    norms = np.linalg.norm(embedding, axis=1)
    nonzero = norms > 0.0
    embedding[nonzero] = embedding[nonzero] / norms[nonzero, None]
    raw_assign = _farthest_point_kmeans(embedding, k).tolist()
    # Number communities by first appearance so ids are stable.
    relabel = {c: i for i, c in enumerate(dict.fromkeys(raw_assign))}
    assign = np.array([relabel[c] for c in raw_assign])
    members = [np.flatnonzero(assign == c) for c in range(k)]
    corr_local = corr[np.ix_(largest, largest)]  # kept-index space == graph node space

    def block_mean(a: int, b: int) -> float | None:
        """Mean correlation between communities a and b; within one, each pair once."""
        block = corr_local[np.ix_(members[a], members[b])]
        if a == b:
            block = block[np.triu_indices(len(members[a]), 1)]
        return float(block.mean()) if block.size else None

    coupling_rows = [tuple(block_mean(a, b) for b in range(k)) for a in range(k)]
    fault = None
    fault_value = None
    for a in range(k):
        for b in range(a + 1, k):
            value = coupling_rows[a][b]
            if value is not None and (fault_value is None or value < fault_value):
                fault_value = value
                fault = (a, b)
    if fault is None:
        raise TooFewNodes("no off-diagonal coupling available")
    report_communities = tuple(
        (
            c,
            tuple(component.labels[node] for node in members[c]),
            coupling_rows[c][c],
        )
        for c in range(k)
    )
    return CommunityReport(
        communities=report_communities,
        coupling=tuple(coupling_rows),
        fault_line=fault,
        config={
            "window_end": window_end,
            "window_len": window_len,
            "k": k,
            "threshold": threshold,
            "seed": seed,
        },
    )


def community_report_to_csv(report: CommunityReport) -> str:
    config = dict(report.config)
    config["fault_line"] = f"{report.fault_line[0]}-{report.fault_line[1]}"
    lines_main = [
        (c, ";".join(members), internal)
        for c, members, internal in report.communities
    ]
    coupling_rows = [
        (a, b, report.coupling[a][b])
        for a in range(len(report.coupling))
        for b in range(len(report.coupling))
    ]
    text = csv_text(config, ("community", "members", "internal_coupling"), lines_main)
    text += csv_text({}, ("coupling_i", "coupling_j", "coupling"), coupling_rows)
    return text


def community_report_to_json(report: CommunityReport) -> str:
    return json_text({
        "config": report.config,
        "communities": [
            {"id": c, "members": list(members), "internal_coupling": internal}
            for c, members, internal in report.communities
        ],
        "coupling": [list(row) for row in report.coupling],
        "fault_line": list(report.fault_line),
    })


DEFAULT_OFFSETS = (-90, -60, -30, -10, 0)
DEFAULT_EVENT_WINDOWS = (60, 90)


@dataclass(frozen=True)
class EventStudy:
    """Defect/correlation grid around events plus the -60 to 0 deltas."""

    grid: tuple[tuple[str, int, int, float, float], ...]  # label, window_len, offset, defect, rho
    deltas: tuple[tuple[str, int, float | None, float | None], ...]
    flags: tuple[tuple[str, str], ...]
    config: dict


def event_study(
    r: ReturnPanel,
    events: list[tuple[str, str]] | list[str],
    offsets: tuple[int, ...] = DEFAULT_OFFSETS,
    window_lens: tuple[int, ...] = DEFAULT_EVENT_WINDOWS,
    threshold: float = 0.2,
) -> EventStudy:
    """Evaluate (defect, mean correlation) at trading-day offsets per event.

    Offsets count rows of the return index relative to the event's position.
    Events outside history are flagged and skipped; offsets lacking a full
    window, or whose window fails with a PrismError, produce partial rows
    (flagged); any other exception propagates. Deltas are offset-0 minus
    offset-60-before values, when both exist.
    """
    normalized: list[tuple[str, str]] = []
    for event in events:
        if isinstance(event, str):
            normalized.append((event, event))
        else:
            label, date = event
            normalized.append((str(label), str(date)))
    grid = []
    deltas = []
    flags = []
    for label, date in normalized:
        if not r.dates or date < r.dates[0] or date > r.dates[-1]:
            flags.append((label, "out_of_range"))
            continue
        pos = bisect_right(r.dates, date) - 1
        partial = False
        cells: dict[tuple[int, int], tuple[float, float]] = {}
        for window_len in window_lens:
            for offset in offsets:
                target = pos + offset
                if target < window_len - 1 or target < 0 or target >= len(r.dates):
                    partial = True
                    continue
                try:
                    stats = window_stats(r, r.dates[target], window_len, threshold)
                except PrismError:  # this cell is absent, row flagged
                    partial = True
                    continue
                cells[(window_len, offset)] = (stats.defect, stats.mean_correlation)
                grid.append(
                    (label, window_len, offset, stats.defect, stats.mean_correlation)
                )
        for window_len in window_lens:
            at_event = cells.get((window_len, 0))
            before = cells.get((window_len, -60))
            if at_event is not None and before is not None:
                deltas.append(
                    (label, window_len, at_event[0] - before[0], at_event[1] - before[1])
                )
            else:
                deltas.append((label, window_len, None, None))
        if partial:
            flags.append((label, "partial"))
    return EventStudy(
        grid=tuple(grid),
        deltas=tuple(deltas),
        flags=tuple(flags),
        config={
            "events": ";".join(f"{label}:{date}" for label, date in normalized),
            "offsets": ";".join(str(o) for o in offsets),
            "window_lens": ";".join(str(w) for w in window_lens),
            "threshold": threshold,
        },
    )


EVENT_GRID_HEADER = ("event", "window_len", "offset", "defect", "mean_corr")
EVENT_DELTA_HEADER = ("event", "window_len", "delta_defect", "delta_corr")


def event_study_to_csv(study: EventStudy) -> str:
    config = dict(study.config)
    config["flags"] = ";".join(f"{label}:{flag}" for label, flag in study.flags)
    text = csv_text(config, EVENT_GRID_HEADER, study.grid)
    text += csv_text({}, EVENT_DELTA_HEADER, study.deltas)
    return text


def event_study_to_json(study: EventStudy) -> str:
    return json_text({
        "config": study.config,
        "grid": [dict(zip(EVENT_GRID_HEADER, row)) for row in study.grid],
        "deltas": [dict(zip(EVENT_DELTA_HEADER, row)) for row in study.deltas],
        "flags": [{"event": label, "flag": flag} for label, flag in study.flags],
    })
