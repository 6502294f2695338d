"""Correlation-network pipeline: prices to returns to rolling defect diagnostics.

A window of log returns becomes a graph by thresholding the Pearson
correlation matrix (corr >= threshold keeps its value as edge weight,
anything below, including all negative correlations, carries no edge). The
window's duality defect is measured against the Fiedler-derived mirror
operator of its own largest connected component: low defect means the
correlation structure is nearly symmetric under its softest-cut mirror,
elevated defect means one side of the market is organized differently from
the other.

One kernel (_window_stats_at) evaluates windows: window_stats is the kernel
on one position, and rolling_defect and event_study (one call per window
length) pass it all of theirs. It works through chunks of WINDOW_CHUNK
windows. A chunk takes one batched correlation per kept-ticker set
(_window_corrs, np.corrcoef's own steps on the stack), stacks the windows
of one graph size for the Graph checks, the edge count and the
connectivity walk, and the components of one size for the Laplacian and
the Fiedler rank pairing, then takes each window's commutator and norms on
its own. The pairing ranks the nodes by graphs._fiedler_rankings, the
package's one Fiedler-ranking kernel, on the whole stack: a vector from
eigvalsh and inverse iteration (below graphs.LANCZOS_CUTOFF nodes) or from a
Lanczos run and a Cholesky test (at or above it, one matrix at a time)
wherever its error bound proves eigh's Fiedler vector ranks them the same
way, and eigh's vector elsewhere.
fiedler_duality_operator runs the same kernel on a stack of one. Each other
step is the per-matrix API's own helper, so a window's numbers and first
failing check are those of the window computed alone. communities and
correlation_graph build the same window graph from the same correlation
helper (_window_graph); communities projects its largest component onto the
commutant of the Fiedler operator and clusters the projected Laplacian.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
# Unused: perfbench's tracer rebinds this name; delete it once the tracer skips missing names.
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .duality import _commutator, _defect_norm, commutant_projection
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
from .graphs import (
    Graph,
    _Adopted,
    _as_readonly,
    _fiedler_rankings,
    _laplacians,
    _reach,
    _screen_symmetric,
    _screen_weights,
    connected_components,
    laplacian,
    symmetric_eig,
)
from .learn import _rank_pairings, fiedler_duality_operator
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
    return PricePanel(dates=dates, tickers=tickers, prices=_Adopted(prices))


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
    actually usable. min_coverage must lie in [0, 1].
    """
    if not 0.0 <= min_coverage <= 1.0:  # also rejects nan
        raise ValidationError(f"min_coverage {min_coverage} outside [0, 1]")
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
        returns=_Adopted(returns),
        dropped=dropped,
    )


WINDOW_CHUNK = 16  # windows per kernel chunk: peak memory stays flat as windows grow


def _check_window_args(window_len: int, threshold: float) -> None:
    if not threshold >= 0.0:  # also rejects nan
        raise ValidationError("threshold must be nonnegative (weights must be)")
    if window_len < 2:
        raise ValidationError(f"window_len must be at least 2, got {window_len}")


def _window_position(r: ReturnPanel, window_end: str, window_len: int) -> int:
    """The return row of the last window_len-row window ending at or before window_end."""
    pos = bisect_right(r.dates, window_end) - 1
    if pos < 0 or pos + 1 < window_len:
        raise InsufficientHistory(
            f"no {window_len}-row window ends at or before {window_end}"
        )
    return pos


def _window_corrs(
    r: ReturnPanel, positions: list[int], window_len: int
) -> list[tuple[list[int], np.ndarray, float] | DegenerateWindow]:
    """(kept ticker indices, correlation matrix, mean correlation) of each window.

    Each window is the window_len return rows ending at a position. Tickers
    with a gap or no variation in it are left out; the matrix indexes the
    kept tickers in order. The mean is over the off-diagonal entries. A
    window with fewer than 2 kept tickers gets a DegenerateWindow instead.
    Variation means some return differs from the window's first: the
    standard deviation of a constant nonzero column can round to a tiny
    positive number, and its correlations would be NaN.

    The windows that keep the same tickers share one batched computation
    that takes np.corrcoef's own steps on the stack, each window viewed as
    (tickers, rows) in the memory layout of corrcoef's copy of the
    transpose, so each matrix has the bits np.corrcoef gives for its window
    alone. The mean is taken per window, as a stacked mean sums in another
    order.
    """
    outcomes: list = [None] * len(positions)
    rows = r.returns[np.asarray(positions)[:, None] + np.arange(1 - window_len, 1)]
    usable = ~np.isnan(rows).any(axis=1) & (rows != rows[:, :1]).any(axis=1)
    groups: dict[bytes, list[int]] = {}  # kept-ticker mask -> windows
    for b, pos in enumerate(positions):
        if np.count_nonzero(usable[b]) < 2:
            outcomes[b] = DegenerateWindow(
                f"fewer than 2 usable tickers in the window ending {r.dates[pos]}"
            )
        else:
            groups.setdefault(usable[b].tobytes(), []).append(b)
    for members in groups.values():
        kept = np.flatnonzero(usable[members[0]])
        x = rows[members][:, :, kept].transpose(0, 2, 1)
        x = x - x.mean(axis=2, keepdims=True)
        corr = np.matmul(x, x.transpose(0, 2, 1))
        corr *= 1.0 / (window_len - 1)
        diagonal = np.arange(len(kept))
        stddev = np.sqrt(corr[:, diagonal, diagonal])
        corr /= stddev[:, :, None]
        corr /= stddev[:, None, :]
        np.clip(corr, -1.0, 1.0, out=corr)
        corr = (corr + corr.transpose(0, 2, 1)) / 2.0  # BLAS output need not be bitwise-symmetric
        off_diagonal = corr[:, ~np.eye(len(kept), dtype=bool)]
        for b, matrix, off in zip(members, corr, off_diagonal):
            outcomes[b] = (kept.tolist(), matrix, float(off.sum() / off.size))  # off.mean()'s bits
    return outcomes


def _edge_weights(corr: np.ndarray, threshold: float) -> np.ndarray:
    """Correlations at or above threshold, 0 elsewhere and on the diagonal.

    corr is one square matrix or a stack of them.
    """
    weights = np.where(corr >= threshold, corr, 0.0)
    diagonal = np.arange(corr.shape[-1])
    weights[..., diagonal, diagonal] = 0.0
    return weights


def _window_graph(
    r: ReturnPanel, window_end: str, window_len: int, threshold: float
) -> tuple[int, np.ndarray, Graph, float]:
    """(end position, correlation matrix, thresholded graph, mean correlation).

    The graph's nodes are the kept tickers in order, so the correlation
    matrix and the graph index the same nodes.
    """
    _check_window_args(window_len, threshold)
    pos = _window_position(r, window_end, window_len)
    (outcome,) = _window_corrs(r, [pos], window_len)
    if isinstance(outcome, PrismError):
        raise outcome
    kept, corr, mean_corr = outcome
    graph = Graph(labels=tuple(r.tickers[i] for i in kept),
                  weights=_Adopted(_edge_weights(corr, threshold)))
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


def _chunk_stats(
    r: ReturnPanel, positions: list[int], window_len: int, threshold: float
) -> list[WindowStats | PrismError]:
    """The outcome of each window of one chunk; see _window_stats_at.

    The correlations are batched by kept-ticker set (_window_corrs). Windows
    are then stacked by graph size for the Graph checks, the edge count and
    the connectivity walk, then by component size for the Laplacian, its
    Fiedler ranking and the pairing.
    """
    outcomes: list = [None] * len(positions)
    means = [0.0] * len(positions)
    graph_sizes = [0] * len(positions)
    by_size: dict[int, list[tuple[int, list[int], np.ndarray]]] = {}
    for k, outcome in enumerate(_window_corrs(r, positions, window_len)):
        if isinstance(outcome, PrismError):
            outcomes[k] = outcome
            continue
        kept, corr, means[k] = outcome
        graph_sizes[k] = len(kept)
        by_size.setdefault(len(kept), []).append((k, kept, corr))

    components: dict[int, list[tuple[int, np.ndarray]]] = {}  # size -> (key, weights)
    for n, group in by_size.items():
        keys = [k for k, _, _ in group]
        weights = _edge_weights(np.stack([corr for _, _, corr in group]), threshold)
        keep = _screen_weights(weights, keys, outcomes)
        adjacent = weights != 0.0
        reach = _reach(adjacent, 0)  # is_connected's walk from node 0
        for b in np.flatnonzero(keep):
            k, kept, _ = group[b]
            if not adjacent[b].any():
                outcomes[k] = ZeroMatrix(
                    f"window ending {r.dates[positions[k]]} has no edges at threshold"
                )
                continue
            component = weights[b]
            if not reach[b].all():
                graph = Graph(labels=tuple(r.tickers[i] for i in kept), weights=component)
                component = _largest_component(graph)[1].weights
            components.setdefault(len(component), []).append((k, component))

    for m, group in components.items():
        keys = [k for k, _ in group]
        lap = _laplacians(np.stack([w for _, w in group]))
        keep = _screen_symmetric(lap, keys, outcomes)
        keys, lap = [k for k, ok in zip(keys, keep) if ok], lap[keep]
        sigma = _rank_pairings(_fiedler_rankings(lap))
        for b, k in enumerate(keys):
            try:
                norm = _defect_norm(lap[b])  # per matrix: a batched norm sums in another order
            except PrismError as exc:
                outcomes[k] = exc
                continue
            outcomes[k] = WindowStats(
                window_end=r.dates[positions[k]],
                window_len=window_len,
                mean_correlation=means[k],
                defect=float(np.linalg.norm(_commutator(lap[b], sigma[b]))) / norm,
                component_size=m,
                dropped_nodes=graph_sizes[k] - m,
            )
    return outcomes


def _window_stats_at(
    r: ReturnPanel, positions: list[int], window_len: int, threshold: float
) -> list[WindowStats | PrismError]:
    """WindowStats of the window ending at each return row, or its PrismError.

    Every position must have window_len rows up to it. Each window fails on
    the same first check, with the same error, as window_stats on its own:
    the arguments, too few usable tickers, the Graph checks, no edges, the
    eigendecomposition's checks and a zero Laplacian. Chunks of
    WINDOW_CHUNK positions are evaluated one after another; any exception
    other than a PrismError propagates.
    """
    try:
        _check_window_args(window_len, threshold)
    except ValidationError as exc:
        return [exc] * len(positions)
    return [
        outcome
        for i in range(0, len(positions), WINDOW_CHUNK)
        for outcome in _chunk_stats(r, positions[i : i + WINDOW_CHUNK], window_len, threshold)
    ]


def window_stats(
    r: ReturnPanel, window_end: str, window_len: int, threshold: float = 0.2
) -> WindowStats:
    """Mean correlation and defect of one window, with its component sizes.

    The defect is measured on the thresholded graph's largest connected
    component against that component's own Fiedler mirror operator.
    """
    _check_window_args(window_len, threshold)
    pos = _window_position(r, window_end, window_len)
    (outcome,) = _window_stats_at(r, [pos], window_len, threshold)
    if isinstance(outcome, PrismError):
        raise outcome
    return outcome


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
    outcomes = _window_stats_at(r, positions, window_len, threshold)
    records = []
    skipped = []
    for pos, outcome in zip(positions, outcomes):
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
    located = {}  # event index -> return row of the event, for events inside history
    for e, (_, date) in enumerate(normalized):
        if r.dates and r.dates[0] <= date <= r.dates[-1]:
            located[e] = bisect_right(r.dates, date) - 1
    stats = {}  # (window_len, end row) -> WindowStats or PrismError
    for window_len in dict.fromkeys(window_lens):
        first = max(window_len - 1, 0)  # the first row a full window can end on
        ends = sorted({pos + offset for pos in located.values() for offset in offsets
                       if first <= pos + offset < len(r.dates)})
        outcomes = _window_stats_at(r, ends, window_len, threshold)
        stats.update(zip([(window_len, end) for end in ends], outcomes))
    grid = []
    deltas = []
    flags = []
    for e, (label, _) in enumerate(normalized):
        if e not in located:
            flags.append((label, "out_of_range"))
            continue
        partial = False
        cells = {}
        for window_len in window_lens:
            for offset in offsets:
                outcome = stats.get((window_len, located[e] + offset))
                if not isinstance(outcome, WindowStats):  # no full window, or a PrismError
                    partial = True
                    continue
                cells[(window_len, offset)] = outcome
                grid.append((label, window_len, offset, outcome.defect,
                             outcome.mean_correlation))
        for window_len in window_lens:
            at_event = cells.get((window_len, 0))
            before = cells.get((window_len, -60))
            if at_event is not None and before is not None:
                deltas.append((label, window_len, at_event.defect - before.defect,
                               at_event.mean_correlation - before.mean_correlation))
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
