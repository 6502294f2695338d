"""Synthetic symmetric networks, rewiring sweeps, and the noisy-clustering benchmark.

Two experiment drivers live here. The rewiring sweep builds mirror-symmetric
random graphs, degrades them edge by edge, and tracks how the defect against
the true mirror operator rises compared to a deliberately wrong index-reversal
operator and to modularity. The noise benchmark flips node pairs of the
embedded 34-node club graph (a noise level is the fraction of its
n(n-1)/2 = 561 node pairs flipped) and compares three ways of recovering the
two factions: raw Fiedler bipartition, spectral denoising with a
Marchenko-Pastur cutoff, and Fiedler bipartition of the Laplacian projected
onto the commutant of the clean graph's mirror operator.

All randomness flows from integer seeds through one splitting rule
(child_seed), so results are identical across runs and chunkings.
The noise benchmark's kernel (_noise_chunk) takes one level's trials
NOISE_CHUNK at a time: the flips are drawn trial by trial, then the chunk
shares one stack of Graph checks and connectivity walks (redrawing only the
disconnected trials), one Laplacian stack, one eigh for the baseline and RMT
labels, commutant_projection's own gather and average on the whole stack,
and one eigh of the projections. Each step is the per-matrix API's own
helper, so each trial gets the bits and the first error of its own
per-matrix pipeline. The chunks run one after another, and all labels are
scored in one pass at the end (_accuracies, which accuracy runs on one row).
The flips (_flip_weights) read PCG64's raw words and apply Generator's own
conversions to them (_RawDraws), so they are those of the Generator calls;
the oracle tests call the Generator itself, so a numpy change to either
conversion fails them instead of silently changing the output.
"""

from __future__ import annotations

import bisect
import math
# Unused: perfbench's tracer rebinds this name; delete it once the tracer skips missing names.
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .duality import (
    DualityOperator,
    _commutant_average,
    _conjugate,
    duality_defect,
    permutation_operator,
)
from .errors import (
    DegenerateGraph,
    LengthMismatch,
    NonBinary,
    TooSmall,
    ValidationError,
    ZeroEdges,
)
from .graphs import (
    Graph,
    _laplacians,
    _reach,
    _screen_symmetric,
    _screen_weights,
    _signed_eigh,
    fiedler_vector,
    graph_from_edges,
    is_connected,
    laplacian,
    require_fiedler_graph,
    symmetric_eig,
)
from .learn import fiedler_duality_operator
from .reporting import csv_text, json_text

MAX_GENERATION_ATTEMPTS = 100


def child_seed(*path: int) -> int:
    """Deterministic child seed for a position in a seed tree."""
    return int(np.random.SeedSequence(tuple(path)).generate_state(1, np.uint64)[0])


# The 34-node, 78-edge club graph and its two-faction ground truth.
KARATE_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 10), (0, 11),
    (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31), (1, 2), (1, 3), (1, 7), (1, 13),
    (1, 17), (1, 19), (1, 21), (1, 30), (2, 3), (2, 7), (2, 8), (2, 9), (2, 13), (2, 27),
    (2, 28), (2, 32), (3, 7), (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16),
    (6, 16), (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32), (14, 33), (15, 32), (15, 33),
    (18, 32), (18, 33), (19, 33), (20, 32), (20, 33), (22, 32), (22, 33), (23, 25), (23, 27), (23, 29),
    (23, 32), (23, 33), (24, 25), (24, 27), (24, 31), (25, 31), (26, 29), (26, 33), (27, 33), (28, 31),
    (28, 33), (29, 32), (29, 33), (30, 32), (30, 33), (31, 32), (31, 33), (32, 33),
)

KARATE_FACTIONS: tuple[int, ...] = (
    0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1,
)


def karate_club() -> tuple[Graph, tuple[int, ...]]:
    """The standard 34-node club graph (unit weights) and faction labels."""
    labels = tuple(str(i) for i in range(34))
    return graph_from_edges(labels, KARATE_EDGES), KARATE_FACTIONS


@dataclass(frozen=True)
class SyntheticDualNetwork:
    """Random graph built to commute exactly with the group-swap operator."""

    graph: Graph
    true_operator: DualityOperator
    partition: tuple[int, ...]


def generate_dual_network(
    group_size: int,
    edge_prob_intra: float = 0.4,
    edge_prob_cross: float = 0.1,
    seed: int = 0,
) -> SyntheticDualNetwork:
    """Sample a 2m-node graph whose adjacency is invariant under i <-> i+m.

    Intra-group edges are drawn once on group A and mirrored into group B.
    Cross edges are drawn once per mirror orbit {(i, j+m), (j, i+m)} and both
    members inserted, so the swap invariance is exact by construction (integer
    mirroring, no floating error). Disconnected samples are redrawn up to 100
    times before failing.
    """
    m = group_size
    if m < 2:
        raise ValidationError(f"group_size must be at least 2, got {m}")
    for prob in (edge_prob_intra, edge_prob_cross):
        if not 0.0 <= prob <= 1.0:
            raise ValidationError(f"edge probability {prob} outside [0, 1]")
    n = 2 * m
    labels = tuple(f"A{i}" for i in range(m)) + tuple(f"B{i}" for i in range(m))
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        rng = np.random.default_rng((seed, attempt))
        intra_draws = rng.random((m, m))
        cross_draws = rng.random((m, m))
        intra = np.triu(intra_draws < edge_prob_intra, 1)
        cross = np.triu(cross_draws < edge_prob_cross)
        w = np.zeros((n, n))
        w[:m, :m] = w[m:, m:] = intra | intra.T
        w[:m, m:] = w[m:, :m] = cross | cross.T
        graph = Graph(labels=labels, weights=w)
        if not is_connected(graph):
            continue
        operator = permutation_operator(np.concatenate([np.arange(m, n), np.arange(m)]))
        defect = duality_defect(laplacian(graph), operator)
        if defect > 1e-10:
            raise DegenerateGraph(f"swap invariance violated: defect {defect:.3e}")
        return SyntheticDualNetwork(
            graph=graph, true_operator=operator, partition=(0,) * m + (1,) * m
        )
    raise DegenerateGraph(
        f"no connected sample in {MAX_GENERATION_ATTEMPTS} attempts (seed {seed})"
    )


def rewire(g: Graph, fraction: float, seed: int) -> Graph:
    """Delete floor(fraction * |E|) distinct edges and reinsert them elsewhere.

    Each deleted edge's weight moves to a uniformly drawn currently-empty
    slot (rejection sampling, no self-loops), so the edge count is preserved
    exactly. An empty slot always exists, because all chosen edges are
    deleted before the first one is reinserted.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError(f"fraction {fraction} outside [0, 1]")
    rows, cols = np.nonzero(np.triu(g.weights, 1))  # the order of g.edges()
    if len(rows) == 0:
        raise ValidationError("rewire requires at least one edge")
    count = math.floor(fraction * len(rows))
    if count == 0:
        return g
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(rows), size=count, replace=False)
    rows, cols = rows[chosen], cols[chosen]
    w = g.weights.copy()
    moved = w[rows, cols].tolist()
    w[rows, cols] = w[cols, rows] = 0.0
    n = g.n
    for weight in moved:
        while True:
            a = int(rng.integers(n))
            b = int(rng.integers(n))
            if a != b and w[a, b] == 0.0:
                w[a, b] = w[b, a] = weight
                break
    return Graph(labels=g.labels, weights=w)


_RAW_BLOCK = 64  # raw words fetched per refill; a 5% club draw uses about 42
_UINT32_RANGE = 1 << 32
_COIN_CUT = 1 << 63


class _RawDraws:
    """Generator draws rebuilt from raw PCG64 words, without a call per draw.

    coin() equals `rng.random() < 0.5` and below(k) equals `rng.integers(k)`
    for `rng = np.random.default_rng(seed)`, interleaved in any order:
    - random() is (word >> 11) * 2**-53, so it is below 0.5 exactly when the
      word is below 2**63; it consumes one whole word.
    - integers(k) takes nothing for k = 1. Otherwise it takes 32-bit values
      from PCG64's half-word buffer (the low half of a fresh word, then that
      word's high half at the next bounded draw; whole-word draws leave the
      buffer alone) and applies Lemire's multiply-shift with rejection.
    Words are read in blocks of _RAW_BLOCK, so memory does not grow with the
    number of draws.
    """

    __slots__ = ("_raw", "_words", "_high")

    def __init__(self, seed: int) -> None:
        self._raw = np.random.default_rng(seed).bit_generator.random_raw
        self._words = iter(())  # the unread rest of the current block
        self._high: int | None = None  # the buffered high half, if any

    def _word(self) -> int:
        word = next(self._words, None)
        if word is None:
            self._words = iter(self._raw(_RAW_BLOCK).tolist())
            word = next(self._words)
        return word

    def _uint32(self) -> int:
        high = self._high
        if high is not None:
            self._high = None
            return high
        word = self._word()
        self._high = word >> 32
        return word & 0xFFFFFFFF

    def coin(self) -> bool:
        return self._word() < _COIN_CUT

    def below(self, k: int) -> int:
        assert 1 <= k < _UINT32_RANGE
        if k == 1:
            return 0
        m = self._uint32() * k
        if m & 0xFFFFFFFF < k:  # k bounds the threshold; skip the modulo above it
            threshold = (_UINT32_RANGE - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = self._uint32() * k
        return m >> 32


def flip_edges(g: Graph, count: int, seed: int) -> Graph:
    """Apply `count` random single-edge flips.

    Each flip removes a uniformly chosen existing edge with probability 1/2,
    otherwise adds a unit-weight edge at a uniformly chosen empty slot.
    Degenerate draws (nothing to remove / nowhere to add) fall through to the
    other action. See _flip_weights for the draws.
    """
    return Graph(labels=g.labels, weights=_flip_weights(g.weights, count, seed))


def _flip_weights(weights: np.ndarray, count: int, seed: int) -> np.ndarray:
    """flip_edges on a weight matrix: a new matrix, unchecked.

    Both slot lists hold flat indices i*n + j of upper-triangle slots in
    ascending (row-major) order, so each draw indexes the same slot as a
    rebuild of the lists before every flip. The coin and index draws are
    `default_rng(seed)`'s random() < 0.5 and integers(k), converted from raw
    PCG64 words by _RawDraws the way Generator converts them. The oracle
    tests compare with a reference that calls the Generator, so a numpy
    change to either conversion fails them instead of changing the flips.
    """
    if count < 0:
        raise ValidationError(f"count must be nonnegative, got {count}")
    w = weights.copy()
    n = w.shape[0]
    slots = np.flatnonzero(~np.tri(n, dtype=bool))
    present = w.ravel()[slots] > 0.0
    edges = slots[present].tolist()
    empty = slots[~present].tolist()
    draws = _RawDraws(seed)
    for _ in range(count):
        remove = draws.coin()
        if remove and not edges:
            remove = False
        if not remove and not empty:
            remove = True
        if remove and not edges:
            break  # n < 2: no slots at all
        if remove:
            slot = edges.pop(draws.below(len(edges)))
            bisect.insort(empty, slot)
            weight = 0.0
        else:
            slot = empty.pop(draws.below(len(empty)))
            bisect.insort(edges, slot)
            weight = 1.0
        i, j = divmod(slot, n)
        w[i, j] = w[j, i] = weight
    return w


def index_reversal_operator(n: int) -> DualityOperator:
    """The deliberately structure-blind pairing sigma(i) = n-1-i."""
    if n < 1:
        raise ValidationError(f"n must be at least 1, got {n}")
    return permutation_operator(np.arange(n - 1, -1, -1))


def modularity(g: Graph, partition) -> float:
    """Newman-Girvan Q for a labeled partition, weighted form.

    Q = sum_c (e_cc - a_c^2) with e_cc the within-community fraction of edge
    weight and a_c the community's fraction of total degree.
    """
    if len(partition) != g.n:
        raise LengthMismatch(f"partition length {len(partition)} != node count {g.n}")
    total = float(g.weights.sum())  # equals 2W
    if total <= 0.0:
        raise ZeroEdges("modularity undefined for a graph with no edges")
    degrees = g.weights.sum(axis=1)
    labels = np.asarray(partition)
    q = 0.0
    for value in dict.fromkeys(partition):  # first-appearance order, deterministic
        idx = np.nonzero(labels == value)[0]
        e_cc = float(g.weights[np.ix_(idx, idx)].sum()) / total
        a_c = float(degrees[idx].sum()) / total
        q += e_cc - a_c * a_c
    return q


def fiedler_bipartition(l_or_g) -> np.ndarray:
    """Binary labels from the sign of the Fiedler vector (zero goes positive).

    Accepts a Graph (connectivity checked) or a bare symmetric matrix such as
    a projected Laplacian, for which the caller vouches.
    """
    if isinstance(l_or_g, Graph):
        v = fiedler_vector(l_or_g)
    else:
        m = np.asarray(l_or_g, dtype=float)
        if m.shape[0] < 2:
            raise TooSmall("bipartition needs at least 2 nodes")
        v = symmetric_eig(m).eigenvectors[:, 1]
    return (v >= 0.0).astype(int)


def _spectral_labels(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign-of-Fiedler labels and RMT labels from one connected Laplacian's spectrum.

    values and vectors are symmetric_eig's. The RMT labels come from the
    eigenvector of the smallest eigenvalue at or above the Marchenko-Pastur
    edge lambda_plus = sigma^2 (1 + sqrt(q))^2, with q = 1 and sigma^2 the
    mean eigenvalue. They fall back to the Fiedler labels when fewer than
    two eigenvalues reach it (the usual case for small graphs, where the
    mean-based edge sits above the whole spectrum).
    """
    fiedler = (vectors[:, 1] >= 0.0).astype(int)
    surviving = np.nonzero(values >= 4.0 * float(np.mean(values)))[0]
    if len(surviving) < 2:
        return fiedler, fiedler
    v = vectors[:, int(surviving[0])]
    return fiedler, (v >= 0.0).astype(int)


def rmt_labels(g: Graph) -> np.ndarray:
    """Cluster on the eigenvector of the smallest surviving component.

    Requires a connected graph of at least 2 nodes, like fiedler_bipartition,
    whose labels it returns when the cutoff leaves fewer than two eigenvalues.
    """
    require_fiedler_graph(g)
    decomp = symmetric_eig(laplacian(g))
    return _spectral_labels(decomp.eigenvalues, decomp.eigenvectors)[1]


def accuracy(predicted, truth) -> float:
    """Agreement under the best of the two binary label identifications."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise LengthMismatch(
            f"label lengths differ: {predicted.shape} vs {truth.shape}"
        )
    return float(_accuracies(predicted.ravel(), truth.ravel()))


def _accuracies(labels: np.ndarray, truth) -> np.ndarray:
    """The accuracy of every label vector along the last axis, in one pass.

    The agreement is an exact integer count divided by n. The shape and
    binary checks run once for the whole stack; accuracy is this on one row.
    """
    truth = np.asarray(truth)
    if labels.shape[-1:] != truth.shape:
        raise LengthMismatch(
            f"label lengths differ: {labels.shape[-1:]} vs {truth.shape}"
        )
    for values in (labels, truth):
        if not np.all((values == 0) | (values == 1)):
            raise NonBinary("labels must be 0/1")
    agree = np.count_nonzero(labels == truth, axis=-1) / truth.shape[0]
    return np.maximum(agree, 1.0 - agree)


@dataclass(frozen=True)
class RewireReport:
    """Seed-averaged defect and modularity per rewiring fraction, plus slopes."""

    rows: tuple[tuple[float, float, float, float], ...]
    sensitivity_true: float | None
    sensitivity_index: float | None
    sensitivity_modularity: float | None
    config: dict

    def __post_init__(self) -> None:
        fractions = [row[0] for row in self.rows]
        if any(b <= a for a, b in zip(fractions, fractions[1:])):
            raise ValidationError("fractions must be strictly increasing")
        for _, d_true, d_index, _ in self.rows:
            if not (0.0 <= d_true <= 2.0 and 0.0 <= d_index <= 2.0):
                raise ValidationError("defect outside [0, 2]")


def rewire_experiment(
    group_size: int,
    probs: tuple[float, float],
    fractions: list[float],
    seeds: list[int],
) -> RewireReport:
    """Average defect-vs-rewiring curves over seeds and fit their slopes.

    For each seed a fresh mirror-symmetric network is generated; each
    fraction rewires that same base network with a child seed derived from
    (seed, fraction index). Disconnected rewired graphs are kept: defect and
    modularity do not need a Fiedler vector.
    """
    if not fractions:
        raise ValidationError("fractions must be nonempty")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ValidationError("fractions must be ascending")
    if not seeds:
        raise ValidationError("seeds must be nonempty")
    intra, cross = probs
    networks = [generate_dual_network(group_size, intra, cross, s) for s in seeds]
    n = 2 * group_size
    index_op = index_reversal_operator(n)
    rows = []
    for f_idx, fraction in enumerate(fractions):
        d_true = []
        d_index = []
        q_values = []
        for s, net in zip(seeds, networks):
            rewired = rewire(net.graph, fraction, child_seed(s, f_idx))
            lap = laplacian(rewired)
            d_true.append(duality_defect(lap, net.true_operator))
            d_index.append(duality_defect(lap, index_op))
            q_values.append(modularity(rewired, net.partition))
        rows.append(
            (fraction, float(np.mean(d_true)), float(np.mean(d_index)), float(np.mean(q_values)))
        )
    if len(rows) >= 2:
        xs = np.array([row[0] for row in rows])

        def slope(column: int) -> float:
            return float(np.polyfit(xs, [row[column] for row in rows], 1)[0])

        sens_true, sens_index = slope(1), slope(2)
        sens_mod = abs(slope(3))  # reported as magnitude of decline
    else:
        sens_true = sens_index = sens_mod = None
    return RewireReport(
        rows=tuple(rows),
        sensitivity_true=sens_true,
        sensitivity_index=sens_index,
        sensitivity_modularity=sens_mod,
        config={
            "group_size": group_size,
            "edge_prob_intra": intra,
            "edge_prob_cross": cross,
            "fractions": ";".join(repr(float(f)) for f in fractions),
            "seeds": ";".join(str(s) for s in seeds),
        },
    )


REWIRE_CSV_HEADER = ("rewire_fraction", "defect_true", "defect_index", "modularity")


def rewire_report_to_csv(report: RewireReport) -> str:
    footer = []
    if report.sensitivity_true is not None:
        footer.append(
            ("sensitivity", report.sensitivity_true, report.sensitivity_index,
             report.sensitivity_modularity)
        )
    return csv_text(report.config, REWIRE_CSV_HEADER, report.rows, footer)


def rewire_report_to_json(report: RewireReport) -> str:
    return json_text({
        "config": report.config,
        "rows": [dict(zip(REWIRE_CSV_HEADER, row)) for row in report.rows],
        "sensitivity": {
            "defect_true": report.sensitivity_true,
            "defect_index": report.sensitivity_index,
            "modularity": report.sensitivity_modularity,
        },
    })


@dataclass(frozen=True)
class NoiseBenchmarkReport:
    """Per-level mean/std accuracy for the three recovery methods."""

    rows: tuple[tuple, ...]  # (level, base mean/std, rmt mean/std, prism mean/std, resampled)
    trials: int
    config: dict

    def __post_init__(self) -> None:
        for row in self.rows:
            for mean in (row[1], row[3], row[5]):
                if not 0.5 <= mean <= 1.0:
                    raise ValidationError(f"mean accuracy {mean} outside [0.5, 1.0]")


NOISE_CHUNK = 16  # trials per kernel chunk: one level's trials, stacked
MAX_NOISE_ATTEMPTS = 1000


def _noise_chunk(
    clean: Graph,
    operator: DualityOperator,
    count: int,
    seed: int,
    level_index: int,
    trials: range,
) -> tuple[np.ndarray, np.ndarray]:
    """Baseline, RMT and projected labels (B, 3, n) and resample counts (B,) of some trials.

    Each trial flips `count` pairs of the clean graph with its own child
    seed. The chunk's draws are stacked for the Graph checks and the walk
    from node 0, and only the disconnected ones are redrawn, with the next
    attempt's seed. The connected graphs then share one Laplacian stack,
    one checked eigh with the sign rule on every column (baseline and RMT
    labels), the projection (L + PLP) / 2 onto the commutant of the club's
    operator with commutant_projection's steps, and one checked eigh of the
    projections for their Fiedler labels. Every trial gets the bits of its
    own per-matrix pipeline; when trials fail, the lowest one's PrismError
    is raised, the error a trial-by-trial loop would meet first.
    """
    size, n = len(trials), clean.n
    errors: list = [None] * size
    weights = np.empty((size, n, n))
    attempts = np.zeros(size, dtype=int)
    pending = list(range(size))
    for attempt in range(MAX_NOISE_ATTEMPTS):
        for b in pending:
            weights[b] = _flip_weights(
                clean.weights, count, child_seed(seed, level_index, trials[b], attempt)
            )
        attempts[pending] = attempt
        drawn = weights[pending]
        keep = _screen_weights(drawn, pending, errors)
        connected = _reach(drawn != 0.0, 0).all(axis=1)
        pending = [b for b, ok, whole in zip(pending, keep, connected) if ok and not whole]
        if not pending:
            break
    for b in pending:
        errors[b] = DegenerateGraph(
            f"could not draw a connected noisy graph in {MAX_NOISE_ATTEMPTS} attempts"
        )

    good = [b for b in range(size) if errors[b] is None]
    lap = _laplacians(weights[good])
    keep = _screen_symmetric(lap, good, errors)
    good, lap = [b for b, ok in zip(good, keep) if ok], lap[keep]
    values, vectors = _signed_eigh(lap)
    projected = _commutant_average(lap, _conjugate(lap, operator))
    keep = _screen_symmetric(projected, good, errors)
    fiedler = _signed_eigh(projected[keep], slice(1, 2))[1][:, :, 0]
    failed = [error for error in errors if error is not None]
    if failed:
        raise failed[0]
    labels = np.empty((size, 3, n), dtype=np.int8)
    for b in range(size):
        labels[b, :2] = _spectral_labels(values[b], vectors[b])
    labels[:, 2] = fiedler >= 0.0
    return labels, attempts


def noise_benchmark(levels: list[float], trials: int, seed: int) -> NoiseBenchmarkReport:
    """Flip-edges benchmark on the club graph, three methods per trial.

    A noise level is the fraction of the n(n-1)/2 node pairs flipped: each
    trial applies floor(level * n(n-1)/2) flips (28 of the club's 561 pairs
    at 5%), not a fraction of its 78 existing edges.

    Trials whose noisy graph is disconnected are resampled (with an extended
    child seed) and the number of resamples reported per level. Each level's
    trials run in chunks of NOISE_CHUNK (_noise_chunk), one after another;
    every trial has its own seed, so the chunking does not change the result.
    A level with no flips is one computation, whatever the trial count.
    """
    if any(not 0.0 <= lv <= 1.0 for lv in levels):
        raise ValidationError("noise levels must lie in [0, 1]")
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    clean, truth = karate_club()
    operator = fiedler_duality_operator(clean)
    pairs = clean.n * (clean.n - 1) // 2
    counts = [math.floor(lv * pairs) for lv in levels]
    # With no flips every trial of a level sees the clean graph: its first trial
    # stands for all of them (same labels, same resample count).
    chunks = [(li, range(1)) for li in range(len(levels)) if counts[li] == 0]
    chunks += [
        (li, range(start, min(start + NOISE_CHUNK, trials)))
        for li in range(len(levels)) if counts[li] > 0
        for start in range(0, trials, NOISE_CHUNK)
    ]
    results = [_noise_chunk(clean, operator, counts[li], seed, li, span) for li, span in chunks]
    labels = np.zeros((len(levels), trials, 3, clean.n), dtype=np.int8)
    resamples = np.zeros((len(levels), trials), dtype=int)
    for (li, span), (chunk_labels, attempts) in zip(chunks, results):
        # a flip-free level's one trial fills all of them by broadcasting
        stop = span.stop if counts[li] > 0 else trials
        labels[li, span.start:stop] = chunk_labels
        resamples[li, span.start:stop] = attempts
    results = _accuracies(labels, truth)  # (levels, trials, 3)
    rows = []
    for li, level in enumerate(levels):
        block = results[li]
        rows.append((
            float(level),
            float(np.mean(block[:, 0])), float(np.std(block[:, 0])),
            float(np.mean(block[:, 1])), float(np.std(block[:, 1])),
            float(np.mean(block[:, 2])), float(np.std(block[:, 2])),
            int(resamples[li].sum()),
        ))
    return NoiseBenchmarkReport(
        rows=tuple(rows),
        trials=trials,
        config={
            "levels": ";".join(repr(float(lv)) for lv in levels),
            "trials": trials,
            "seed": seed,
        },
    )


NOISE_CSV_HEADER = (
    "noise", "baseline_mean", "baseline_std", "rmt_mean", "rmt_std",
    "prism_mean", "prism_std", "resampled",
)


def noise_report_to_csv(report: NoiseBenchmarkReport) -> str:
    return csv_text(report.config, NOISE_CSV_HEADER, report.rows)


def noise_report_to_json(report: NoiseBenchmarkReport) -> str:
    return json_text({
        "config": report.config,
        "trials": report.trials,
        "rows": [dict(zip(NOISE_CSV_HEADER, row)) for row in report.rows],
    })
