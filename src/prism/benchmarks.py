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
NOISE_CHUNK at a time: the chunk's flips are planned in one pass, then the
chunk shares one stack of Graph checks and connectivity walks (redrawing
only the disconnected trials), one Laplacian stack, commutant_projection's
own gather and average on the whole stack, and eigvalsh of the Laplacians
and of the projections' block form: L' = (L + PLP)/2 commutes with P, so
its spectrum is that of two half-size blocks (duality._commutant_blocks).
The sign labels come from one inverse-iteration solve per Laplacian and
per block holding the Fiedler value, wherever a Davis-Kahan bound proves
them those of eigh's vector (graphs._certified_signs); the other matrices,
and the trials the RMT screen keeps, run eigh. The chunks run one after
another, and all labels are scored in one pass at the end (_accuracies,
which accuracy runs on one row). The flips (_flip_chunk) read each trial's raw PCG64 words once
and apply Generator's own conversions to them for all its flips at once
(_flip_plans), so they are those of the Generator calls; the oracle tests
call the Generator itself, so a numpy change to either conversion fails
them instead of silently changing the output.
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
    _commutant_blocks,
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
    FIEDLER_BACKWARD_ERROR,
    _Adopted,
    _certified_signs,
    _inverse_iteration,
    _laplacians,
    _reach,
    _screen_symmetric,
    _screen_weights,
    _sign_rule,
    _upper_edges,
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
    mirroring, no floating error). Each attempt draws two m x m uniform
    blocks and keeps, by fixed triangle masks, the pairs i < j of the intra
    block and i <= j of the cross block. Disconnected samples are redrawn up
    to 100 times before failing.
    """
    m = group_size
    _check_seed(seed)
    if m < 2:
        raise ValidationError(f"group_size must be at least 2, got {m}")
    for prob in (edge_prob_intra, edge_prob_cross):
        if not 0.0 <= prob <= 1.0:
            raise ValidationError(f"edge probability {prob} outside [0, 1]")
    n = 2 * m
    labels = tuple(f"A{i}" for i in range(m)) + tuple(f"B{i}" for i in range(m))
    # the masks of np.triu(x, 1) and np.triu(x), built once
    above = ~np.tri(m, dtype=bool)
    on_or_above = ~np.tri(m, k=-1, dtype=bool)
    for attempt in range(MAX_GENERATION_ATTEMPTS):
        rng = np.random.default_rng((seed, attempt))
        intra_draws = rng.random((m, m))
        cross_draws = rng.random((m, m))
        intra = (intra_draws < edge_prob_intra) & above
        cross = (cross_draws < edge_prob_cross) & on_or_above
        w = np.zeros((n, n))
        w[:m, :m] = w[m:, m:] = intra | intra.T
        w[:m, m:] = w[m:, :m] = cross | cross.T
        graph = Graph(labels=labels, weights=_Adopted(w))
        if not is_connected(graph):
            continue
        operator = permutation_operator(np.concatenate([np.arange(m, n), np.arange(m)]))
        _check_swap_invariance(graph, operator)
        return SyntheticDualNetwork(
            graph=graph, true_operator=operator, partition=(0,) * m + (1,) * m
        )
    raise DegenerateGraph(
        f"no connected sample in {MAX_GENERATION_ATTEMPTS} attempts (seed {seed})"
    )


def _check_swap_invariance(graph: Graph, operator: DualityOperator) -> None:
    """Raise DegenerateGraph unless the weights are exactly invariant under i <-> i+m.

    Exact equality of the quarter blocks, w[:m, :m] with w[m:, m:] and
    w[:m, m:] with w[m:, :m], is stricter than a defect bound and needs no
    Laplacian; the defect is computed only for the message.
    """
    w, m = graph.weights, graph.n // 2
    if np.array_equal(w[:m, :m], w[m:, m:]) and np.array_equal(w[:m, m:], w[m:, :m]):
        return
    defect = duality_defect(laplacian(graph), operator)
    raise DegenerateGraph(f"swap invariance violated: defect {defect:.3e}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")


def _check_fraction(fraction: float) -> None:
    if not 0.0 <= fraction <= 1.0:
        raise ValidationError(f"fraction {fraction} outside [0, 1]")


def rewire(g: Graph, fraction: float, seed: int) -> Graph:
    """Delete floor(fraction * |E|) distinct edges and reinsert them elsewhere.

    Each deleted edge's weight moves to a uniformly drawn currently-empty
    slot (rejection sampling, no self-loops), so the edge count is preserved
    exactly. An empty slot always exists, because all chosen edges are
    deleted before the first one is reinserted. The endpoints are read in
    order from batches of rng.integers(n, size=k), the values of k scalar
    rng.integers(n) calls (for n below 2**32 both draw 32-bit words and
    keep PCG64's spare half between calls).

    Each batch is placed at once, with the rule of a one-draw-at-a-time
    loop: a candidate (a, b) is taken iff a != b, its slot is empty after
    the deletions and no earlier taken candidate holds the same unordered
    slot (moved weights are nonzero, so that slot is no longer empty). The
    weights go, in order, to the first taken candidates, and a further batch
    is drawn only while some are left.
    """
    _check_fraction(fraction)
    _check_seed(seed)
    rows, cols = _upper_edges(g.weights)  # the order of g.edges()
    if len(rows) == 0:
        raise ValidationError("rewire requires at least one edge")
    count = math.floor(fraction * len(rows))
    if count == 0:
        return g
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(rows), size=count, replace=False)
    rows, cols = rows[chosen], cols[chosen]
    w = g.weights.copy()
    moved = w[rows, cols]
    w[rows, cols] = w[cols, rows] = 0.0
    placed = 0
    while placed < count:
        draws = rng.integers(g.n, size=2 * count)
        a, b = draws[0::2], draws[1::2]
        open_slots = np.flatnonzero((a != b) & (w[a, b] == 0.0))
        slots = np.minimum(a, b)[open_slots] * g.n + np.maximum(a, b)[open_slots]
        first = np.unique(slots, return_index=True)[1]
        taken = open_slots[np.sort(first)][:count - placed]
        a, b = a[taken], b[taken]
        w[a, b] = w[b, a] = moved[placed:placed + len(taken)]
        placed += len(taken)
    return Graph(labels=g.labels, weights=_Adopted(w))


_COIN_CUT = 1 << 63
_LOW_HALF = 0xFFFFFFFF


def flip_edges(g: Graph, count: int, seed: int) -> Graph:
    """Apply `count` random single-edge flips.

    Each flip removes a uniformly chosen existing edge with probability 1/2,
    otherwise adds a unit-weight edge at a uniformly chosen empty slot.
    Degenerate draws (nothing to remove / nowhere to add) fall through to the
    other action. See _flip_chunk for the draws.
    """
    _check_seed(seed)
    return Graph(labels=g.labels, weights=_Adopted(_flip_chunk(g.weights, count, [seed])[0]))


def _flip_chunk(weights: np.ndarray, count: int, seeds: list[int]) -> np.ndarray:
    """flip_edges on a weight matrix once per seed: a new (len(seeds), n, n) stack, unchecked.

    Both slot lists hold flat indices i*n + j of upper-triangle slots in
    ascending (row-major) order, so each draw indexes the same slot as a
    rebuild of the lists before every flip. They are built once, and each
    trial applies its plan (_flip_plans) to copies of them; the planned
    draws are `default_rng(seed)`'s random() < 0.5 and integers(k). The
    oracle tests compare with a reference that calls the Generator, so a
    numpy change to either conversion fails them instead of changing the
    flips.
    """
    if count < 0:
        raise ValidationError(f"count must be nonnegative, got {count}")
    n = weights.shape[0]
    stack = np.repeat(weights[None], len(seeds), axis=0)
    if count == 0:
        return stack
    slots = np.flatnonzero(~np.tri(n, dtype=bool))
    present = weights.ravel()[slots] > 0.0
    empty, edges = slots[~present].tolist(), slots[present].tolist()
    raws = [np.random.PCG64(s).random_raw for s in seeds]
    insort = bisect.insort
    for w, (removes, picks) in zip(stack, _flip_plans(raws, count, len(edges), len(slots))):
        now_empty, now_edges = empty.copy(), edges.copy()
        pop_edge, pop_empty = now_edges.pop, now_empty.pop
        touched = []
        for remove, pick in zip(removes, picks):
            if remove:
                slot = pop_edge(pick)
                insort(now_empty, slot)
            else:
                slot = pop_empty(pick)
                insort(now_edges, slot)
            touched.append(slot)
        # a touched slot ends as an edge of weight 1.0 or as empty
        touched = np.array(touched, dtype=np.intp)
        added = np.zeros(n * n, dtype=bool)
        added[now_edges] = True
        flat = w.reshape(-1)
        flat[touched] = flat[touched % n * n + touched // n] = added[touched]
    return stack


def _flip_plans(raws: list, count: int, edges: int, slots: int) -> list[tuple[list, list]]:
    """Each trial's (remove flags, list positions), from its PCG64 random_raw.

    A flip's coin is Generator.random() < 0.5, which is a whole raw word
    below 2**63. Its list position is Generator.integers(size): for size 1
    it draws nothing; otherwise it takes a 32-bit half from PCG64's buffer
    (the low half of a fresh word, then that word's high half at the next
    bounded draw; coins leave the buffer alone) and applies Lemire's
    multiply-shift, redrawing while the product's low half is below
    (2**32 - size) % size. The list sizes follow from the coins, so every
    trial is planned for all its flips at once (_regular_flips), one
    stack for the whole chunk. A trial's plan stops at its first irregular
    flip: a list of size 0 (the draw falls through to the other list, or
    there are no slots and the flips stop), a list of size 1, or a product
    that may be redrawn. That flip, and any next one that takes the
    buffered high half, is read word by word; then the rest is planned again.
    """
    need = count + (count + 1) // 2  # the words of a trial without irregular flips
    words = np.stack([raw(need) for raw in raws])
    first = _regular_flips(words, 0, edges, slots, count)
    removes, picks, _, _, regular = first
    plans = list(zip(removes.tolist(), picks.tolist()))
    for b in np.flatnonzero(regular < count):
        plans[b] = _finish_plan(raws[b], words[b], first, b, count, slots)
    return plans


def _regular_flips(words: np.ndarray, start: int, edges: int, slots: int, flips: int) -> tuple:
    """Plan `flips` flips for each row of words (B, W) from word start, no half buffered.

    Flip k's coin is word start + k + ceil(k/2). Its half is the low half of
    the next word for even k, and for odd k the high half of the word before
    its coin (the previous flip's fresh word). Returns the remove flags, the
    list positions and the edge counts before each flip (B, flips), the coin
    words (flips,) and each row's number of flips before its first
    irregular one (B,).
    """
    k = np.arange(flips)
    even = k % 2 == 0
    coin_at = start + k + (k + 1) // 2
    removes = words[:, coin_at] < _COIN_CUT
    halves = words[:, coin_at + np.where(even, 1, -1)]
    halves = np.where(even, halves & _LOW_HALF, halves >> 32)
    steps = np.where(removes, -1, 1)
    before = edges + np.cumsum(steps, axis=1) - steps
    # past a row's first irregular flip the sizes are meaningless (and may wrap)
    sizes = np.where(removes, before, slots - before).astype(np.uint64)
    products = halves * sizes
    irregular = (sizes <= 1) | ((products & _LOW_HALF) < sizes)
    regular = np.where(irregular.any(axis=1), irregular.argmax(axis=1), flips)
    return removes, products >> 32, before, coin_at, regular


def _finish_plan(raw, words: np.ndarray, segment: tuple, row: int, count: int, slots: int):
    """One trial's plan, from the first irregular flip of its row of segment on; see _flip_plans.

    segment is _regular_flips' output for the whole chunk, raw and words are
    the trial's random_raw and the words already read from it.
    """
    removes: list = []
    picks: list = []

    def word(pos: int) -> int:
        nonlocal words
        if pos >= len(words):  # only Lemire redraws read past the planned words
            words = np.concatenate([words, raw(pos + 1 - len(words))])
        return int(words[pos])

    while True:
        seg_removes, seg_picks, before, coin_at, regular = segment
        done = int(regular[row])
        removes += seg_removes[row, :done].tolist()
        picks += seg_picks[row, :done].tolist()
        if len(removes) == count:
            return removes, picks
        pos = int(coin_at[done])
        high = word(pos - 1) >> 32 if done % 2 else None
        edges = int(before[row, done])
        while True:  # one flip, word by word
            remove = word(pos) < _COIN_CUT
            pos += 1
            if remove and edges == 0:
                remove = False
            if not remove and edges == slots:
                remove = True
            if remove and edges == 0:
                return removes, picks  # no slots at all
            size = edges if remove else slots - edges
            product = 0
            while size > 1:
                if high is None:
                    half, high = word(pos) & _LOW_HALF, word(pos) >> 32
                    pos += 1
                else:
                    half, high = high, None
                product = half * size
                if product & _LOW_HALF >= ((1 << 32) - size) % size:
                    break
            removes.append(remove)
            picks.append(product >> 32)
            edges += -1 if remove else 1
            if len(removes) == count:
                return removes, picks
            if high is None:
                break
        left = count - len(removes)
        word(pos + left + (left + 1) // 2 - 1)  # read ahead the segment's words
        segment = _regular_flips(words[None], pos, edges, slots, left)
        row = 0


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

    values and vectors are eigh's; the sign rule is applied here, to the
    two columns read (symmetric_eig's vectors have it already, and a second
    application leaves them as they are). The RMT labels come from the
    eigenvector of the smallest eigenvalue at or above the Marchenko-Pastur
    edge lambda_plus = sigma^2 (1 + sqrt(q))^2, with q = 1 and sigma^2 the
    mean eigenvalue. They fall back to the Fiedler labels when fewer than
    two eigenvalues reach it (the usual case for small graphs, where the
    mean-based edge sits above the whole spectrum).
    """
    fiedler = (_sign_rule(vectors[:, 1:2])[:, 0] >= 0.0).astype(int)
    surviving = np.nonzero(values >= 4.0 * float(np.mean(values)))[0]
    if len(surviving) < 2:
        return fiedler, fiedler
    k = int(surviving[0])
    return fiedler, (_sign_rule(vectors[:, k:k + 1])[:, 0] >= 0.0).astype(int)


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

    Agreements c score max(c, n - c) / n, the same bits for a complement.
    Shape and binary checks run once per stack; accuracy is this on one row.
    """
    truth = np.asarray(truth)
    if labels.shape[-1:] != truth.shape:
        raise LengthMismatch(
            f"label lengths differ: {labels.shape[-1:]} vs {truth.shape}"
        )
    for values in (labels, truth):
        if not np.all((values == 0) | (values == 1)):
            raise NonBinary("labels must be 0/1")
    agree = np.count_nonzero(labels == truth, axis=-1)
    return np.maximum(agree, truth.shape[0] - agree) / truth.shape[0]


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


def _check_rewire_lists(fractions: list[float], seeds: list[int]) -> None:
    """rewire_experiment's list checks, which the CLI also runs at load time."""
    if not fractions:
        raise ValidationError("fractions must be nonempty")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ValidationError("fractions must be ascending")
    if not seeds:
        raise ValidationError("seeds must be nonempty")
    for fraction in fractions:
        _check_fraction(fraction)
    for seed in seeds:
        _check_seed(seed)


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
    _check_rewire_lists(fractions, seeds)
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


NOISE_CHUNK = 25  # trials per kernel chunk: one level's trials, stacked
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
    the projection (L + PLP) / 2 onto the commutant of the club's operator
    with commutant_projection's steps and its checks, and one eigvalsh.
    When trials fail, the lowest one's PrismError is raised, the error a
    trial-by-trial loop would meet first.

    The baseline labels are the signs of one inverse-iteration solve per
    Laplacian (graphs._inverse_iteration), where graphs._certified_signs
    proves them those of the sign-fixed eigh vector. A trial whose signs the
    bound leaves unproved, or one with two eigenvalues at the RMT cutoff,
    runs eigh and takes both labels from _spectral_labels. The projected
    labels come from the block form (_projected_fiedler). The labels have
    the bits of each trial's per-matrix pipeline, and the projected labels
    those of a per-trial block form.
    """
    size, n = len(trials), clean.n
    errors: list = [None] * size
    weights = np.empty((size, n, n))
    attempts = np.zeros(size, dtype=int)
    pending = list(range(size))
    for attempt in range(MAX_NOISE_ATTEMPTS):
        drawn = _flip_chunk(
            clean.weights, count,
            [child_seed(seed, level_index, trials[b], attempt) for b in pending],
        )
        weights[pending] = drawn
        attempts[pending] = attempt
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
    del weights, drawn  # no weight stack is held through the spectral work
    keep = _screen_symmetric(lap, good, errors)
    good, lap = [b for b, ok in zip(good, keep) if ok], lap[keep]
    projected = _commutant_average(lap, _conjugate(lap, operator))
    _screen_symmetric(projected, good, errors)
    failed = [error for error in errors if error is not None]
    if failed:
        raise failed[0]
    values = np.linalg.eigvalsh(lap)
    x, certified = _certified_vectors(lap, values, 1)
    labels = np.empty((size, 3, n), dtype=np.int8)
    labels[:, 0] = labels[:, 1] = _sign_rule(x[:, :, None])[:, :, 0] >= 0.0
    # The RMT labels leave the Fiedler fallback only where two eigenvalues reach
    # the cutoff; the screen's cutoff sits 1e-9 low, so neither a last-bit
    # difference between the stacked and the per-trial mean nor one between
    # eigvalsh's and eigh's values can hide a trial from it.
    cutoff = 4.0 * values.mean(axis=1, keepdims=True) * (1.0 - 1e-9)
    redo = np.flatnonzero(~certified | (np.count_nonzero(values >= cutoff, axis=1) >= 2))
    if redo.size:
        full_values, vectors = np.linalg.eigh(lap[redo])
        for b, spectrum, columns in zip(redo, full_values, vectors):
            labels[b, :2] = _spectral_labels(spectrum, columns)
    labels[:, 2] = _projected_fiedler(projected, operator.sigma) >= 0.0
    return labels, attempts


def _certified_vectors(sym: np.ndarray, values: np.ndarray, k, weight=1.0) -> tuple:
    """One solve's vector for eigenvalue k of each matrix, and the rows whose signs are certified.

    x comes from one step of graphs._inverse_iteration. A certified row
    (graphs._certified_signs on x * weight) has the signs of eigh's vector,
    both given the sign rule. weight maps a block's rows to the nodes they
    lift to: see _projected_fiedler.
    """
    x, error, gap = _inverse_iteration(sym, values, k)
    with np.errstate(all="ignore"):
        return x, _certified_signs(x * weight, error, gap)


def _projected_fiedler(projected: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Vectors (B, n) with the signs of the sign-fixed Fiedler vectors of a stack in P's commutant.

    P = I[sigma]. The spectrum comes from the block form
    (_commutant_blocks): eigvalsh of every V+ and V- block. The Fiedler
    value is the second-smallest of their union, and an exact tie between
    the sectors goes to V+. Where a V+ value and a V- value among the three
    smallest lie within twice the blocks' eigh backward error of each other,
    eigh's V- values decide instead, as they did when every V- block ran
    eigh. The chosen block takes one certified solve (_certified_vectors),
    and eigh where the bound fails. The block vector is lifted back to the
    nodes and given symmetric_eig's sign rule.

    The bound holds for the lifted vector, as the lift is an isometry. The
    two nodes of a pair have equal magnitudes, so the sign rule's lead is
    always the pair's lower node, whose entry has its block row's sign. The
    certificate therefore tests the block rows, each scaled by its largest
    node scale (1/sqrt2 for a pair, 1 for a fixed point).
    """
    plus, minus, rows, scales = _commutant_blocks(projected, sigma)
    blocks = (plus, minus)
    values = [np.linalg.eigvalsh(block) for block in blocks]
    union = np.concatenate(values, axis=-1)
    order = np.argsort(union, axis=-1, kind="stable")  # V+ first on ties
    lowest = order[:, :3]
    eta = FIEDLER_BACKWARD_ERROR * max(plus.shape[-1], minus.shape[-1]) * np.finfo(float).eps
    margin = 2.0 * eta * np.abs(union).max(axis=-1, keepdims=True)
    crossing = np.diff(lowest >= plus.shape[-1], axis=-1)  # neighbours from both sectors
    close = np.diff(np.take_along_axis(union, lowest, axis=-1), axis=-1) <= margin
    tied = np.flatnonzero((crossing & close).any(axis=-1))
    if tied.size:
        values[1][tied] = np.linalg.eigh(minus[tied])[0]
        order[tied] = np.argsort(
            np.concatenate([values[0][tied], values[1][tied]], axis=-1), axis=-1, kind="stable")
    second = order[:, 1]
    fiedler = np.empty(projected.shape[:2])
    for sector, block in enumerate(blocks):
        chosen = np.flatnonzero((second >= plus.shape[-1]) == bool(sector))
        if not chosen.size:
            continue
        k = second[chosen] - sector * plus.shape[-1]
        part = block[chosen]
        weight = np.zeros(block.shape[-1])
        np.maximum.at(weight, rows[sector], np.abs(scales[sector]))
        vectors, certified = _certified_vectors(part, values[sector][chosen], k, weight)
        redo = np.flatnonzero(~certified)
        if redo.size:
            vectors[redo] = np.linalg.eigh(part[redo])[1][np.arange(redo.size), :, k[redo]]
        fiedler[chosen] = vectors[:, rows[sector]] * scales[sector]
    return _sign_rule(fiedler[:, :, None])[:, :, 0]


def _check_noise_levels(levels: list[float]) -> None:
    """noise_benchmark's level checks, which the CLI also runs at load time."""
    if not levels:
        raise ValidationError("noise levels must be nonempty")
    if any(not 0.0 <= lv <= 1.0 for lv in levels):
        raise ValidationError("noise levels must lie in [0, 1]")


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
    _check_noise_levels(levels)
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    _check_seed(seed)
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
