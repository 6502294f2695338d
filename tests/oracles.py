"""Independent reference implementations the tests check production code against.

Each oracle deliberately takes a different route than the library: projection
through the eigenbasis of P instead of the closed form, modularity as a direct
double sum instead of the per-community aggregation, correlation from the
textbook formula instead of np.corrcoef, label accuracy as the mean of the
match instead of a count, gradients from finite differences of
a from-scratch objective, the eigenvector sign rule one column at a time, the
noise benchmark one cell at a time with a separate decomposition per method,
the defect, projection and involution check with dense products and an
eigendecomposition instead of index gathers and a trace, rewiring from the
list of edge tuples, the mirror network filled one node pair at a time,
connected components by a stack walk that visits one node per step, the
Fiedler pairing one rank at a time, the projection's block form from loops
over the pairs of P and its Fiedler sector one matrix at a time, the flip
draws one Generator conversion at a time from raw PCG64 words, the
community coupling table from one list of node pairs per block, each
finance window through its own kept-ticker range test, np.corrcoef, Graph,
components walk, full eigendecomposition and operator instead of the
stacked per-chunk kernel, the Graph weight and symmetric_eig input
checks one matrix at a time instead of by stack masks, the projection
from dense products with written-out checks, building the commutator of
every projection, the alternating learner as it was before it stopped
running a permutation's P-step, and the
Fiedler-ranking kernel as it was when it took its callers' Laplacians and
symmetrised them. Agreement between the two routes is the test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from prism import finance, graphs
from prism.benchmarks import child_seed, karate_club
from prism.duality import (
    ZERO_NORM_TOL,
    DualityOperator,
    ProjectionResult,
    commutant_projection,
    duality_defect,
)
from prism.errors import (
    DegenerateWindow,
    DimensionMismatch,
    NonFinite,
    NotSymmetric,
    PrismError,
    ValidationError,
    ZeroMatrix,
)
from prism.graphs import SYMMETRY_RTOL, Graph, connected_components, is_connected, laplacian
from prism.learn import AlternatingConfig, LearnResult, fiedler_duality_operator, optimize_p_step


def eigenbasis_projection(l_matrix: np.ndarray, p_matrix: np.ndarray) -> np.ndarray:
    """Project L onto the commutant of P by masking cross-eigenspace blocks.

    In an eigenbasis of P (eigenvalues +-1) the matrices commuting with P are
    exactly the block-diagonal ones, so the nearest commuting matrix keeps the
    same-sign blocks of U^T L U and zeroes the rest.
    """
    values, vectors = np.linalg.eigh(np.asarray(p_matrix, dtype=float))
    signs = np.where(values >= 0.0, 1.0, -1.0)
    rotated = vectors.T @ l_matrix @ vectors
    same_sign = np.outer(signs, signs) > 0.0
    return vectors @ (rotated * same_sign) @ vectors.T


def central_fd_gradient(func, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Elementwise central finite differences of a scalar-valued function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros(x.size)
    flat = x.ravel().copy()
    for idx in range(flat.size):
        bumped = flat.copy()
        bumped[idx] += eps
        high = func(bumped.reshape(x.shape))
        bumped[idx] -= 2.0 * eps
        low = func(bumped.reshape(x.shape))
        grad[idx] = (high - low) / (2.0 * eps)
    return grad.reshape(x.shape)


def penalized_objective(p: np.ndarray, lp: np.ndarray, mu: float) -> float:
    """||Lp P - P Lp||_F^2 + mu ||P^2 - I||_F^2, restated from scratch."""
    commutator = lp @ p - p @ lp
    residual = p @ p - np.eye(p.shape[0])
    return float(np.sum(commutator * commutator) + mu * np.sum(residual * residual))


def double_sum_modularity(weights: np.ndarray, partition) -> float:
    """Q = (1/2W) sum_ij (w_ij - d_i d_j / 2W) [c_i = c_j] over all pairs."""
    labels = list(partition)
    two_w = float(weights.sum())
    degrees = weights.sum(axis=1)
    n = weights.shape[0]
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += weights[i, j] - degrees[i] * degrees[j] / two_w
    return q / two_w


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Sample Pearson correlation straight from the definition."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    da = a - a.mean()
    db = b - b.mean()
    return float(np.sum(da * db) / np.sqrt(np.sum(da * da) * np.sum(db * db)))


def mean_accuracy(predicted, truth) -> float:
    """Binary label agreement max(c, n - c) / n for c matches: the better identification."""
    agree = int(np.count_nonzero(np.asarray(predicted) == np.asarray(truth)))
    return max(agree, len(truth) - agree) / len(truth)


def best_match_count(truth_labels, predicted_labels) -> int:
    """Agreements under the best one-to-one identification of label classes."""
    truth_values = sorted(set(truth_labels))
    pred_values = sorted(set(predicted_labels))
    table = np.zeros((len(truth_values), len(pred_values)))
    for t, p in zip(truth_labels, predicted_labels):
        table[truth_values.index(t), pred_values.index(p)] += 1.0
    rows, cols = linear_sum_assignment(-table)
    return int(table[rows, cols].sum())


def random_involution(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    """Sample a symmetric involution: pairing permutation, reflection, or dense."""
    if kind == "pairing":
        order = rng.permutation(n)
        m = np.zeros((n, n))
        for a in range(0, n - 1, 2):
            i, j = int(order[a]), int(order[a + 1])
            m[i, j] = m[j, i] = 1.0
        if n % 2 == 1:
            k = int(order[-1])
            m[k, k] = 1.0
        return m
    if kind == "reflection":
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        return np.eye(n) - 2.0 * np.outer(v, v)
    # dense: conjugate a random signature by a random orthogonal basis
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    m = (q * signs) @ q.T
    return (m + m.T) / 2.0


def rebuild_flip_edges(weights: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Random single-edge flips, rebuilding both slot lists before every flip.

    The straightforward O(n^2)-per-flip form of flip_edges: same draws, same
    fall-through rules, but the existing-edge and empty-slot lists are read
    afresh from the weights each time instead of being updated in place. The
    draws are Generator.random() and Generator.integers() calls, where
    flip_edges converts raw PCG64 words itself: this is the check that numpy
    still converts them the same way.
    """
    w = np.array(weights, dtype=float).tolist()  # nested lists: fast scalar reads
    n = len(w)
    rng = np.random.default_rng(seed)
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(count):
        edges = [(i, j) for i, j in upper if w[i][j] > 0.0]
        empty = [(i, j) for i, j in upper if w[i][j] == 0.0]
        remove = rng.random() < 0.5
        if remove and not edges:
            remove = False
        if not remove and not empty:
            remove = True
        if remove and not edges:
            break
        if remove:
            i, j = edges[int(rng.integers(len(edges)))]
            w[i][j] = w[j][i] = 0.0
        else:
            i, j = empty[int(rng.integers(len(empty)))]
            w[i][j] = w[j][i] = 1.0
    return np.array(w, dtype=float).reshape(n, n)


RAW_BLOCK = 64  # raw words RawDraws fetches per refill


class RawDraws:
    """Generator draws rebuilt from raw PCG64 words, one call per draw.

    coin() equals `rng.random() < 0.5` and below(k) equals `rng.integers(k)`
    for `rng = np.random.default_rng(seed)`, interleaved in any order, when
    raw is `rng.bit_generator.random_raw` (or a fresh PCG64(seed)'s):
    - random() is (word >> 11) * 2**-53, so it is below 0.5 exactly when the
      word is below 2**63; it consumes one whole word.
    - integers(k) takes nothing for k = 1. Otherwise it takes 32-bit values
      from PCG64's half-word buffer (the low half of a fresh word, then that
      word's high half at the next bounded draw; whole-word draws leave the
      buffer alone) and applies Lemire's multiply-shift with rejection.
    Words are read from raw in blocks of RAW_BLOCK.
    """

    def __init__(self, raw) -> None:
        self._raw = raw
        self._words = iter(())  # the unread rest of the current block
        self._high: int | None = None  # the buffered high half, if any

    def _word(self) -> int:
        word = next(self._words, None)
        if word is None:
            self._words = iter(self._raw(RAW_BLOCK).tolist())
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
        return self._word() < 1 << 63

    def below(self, k: int) -> int:
        assert 1 <= k < 1 << 32
        if k == 1:
            return 0
        m = self._uint32() * k
        threshold = ((1 << 32) - k) % k
        while m & 0xFFFFFFFF < threshold:
            m = self._uint32() * k
        return m >> 32


def raw_draw_plan(raw, count: int, edges: int, slots: int) -> tuple[list, list]:
    """flip_edges' (remove flags, list positions), drawn flip by flip with RawDraws.

    edges and slots are the starting edge count and the number of node
    pairs; a flip that finds no slots at all ends the plan.
    """
    draws = RawDraws(raw)
    removes, picks = [], []
    for _ in range(count):
        remove = draws.coin()
        if remove and edges == 0:
            remove = False
        if not remove and edges == slots:
            remove = True
        if remove and edges == 0:
            break
        picks.append(draws.below(edges if remove else slots - edges))
        removes.append(remove)
        edges += -1 if remove else 1
    return removes, picks


def column_loop_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh with the sign rule applied one column at a time.

    Each eigenvector is negated when its first largest-magnitude entry is
    negative; the same rule symmetric_eig applies to all columns at once.
    """
    m = np.asarray(m, dtype=float)
    values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    vectors = vectors.copy()
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0.0:
            vectors[:, k] = -col
    return values, vectors


def reference_fiedler_labels(lap: np.ndarray) -> np.ndarray:
    """Sign of the second eigenvector of a Laplacian, zero going positive."""
    return (column_loop_eig(lap)[1][:, 1] >= 0.0).astype(int)


def reference_rmt_labels(lap: np.ndarray) -> np.ndarray:
    """Labels from the smallest eigenvalue at or above 4 x the mean eigenvalue.

    Decomposes on its own and, when fewer than two eigenvalues reach the
    cutoff, falls back to reference_fiedler_labels, which decomposes again.
    """
    values, vectors = column_loop_eig(lap)
    surviving = np.nonzero(values >= 4.0 * float(np.mean(values)))[0]
    if len(surviving) < 2:
        return reference_fiedler_labels(lap)
    return (vectors[:, int(surviving[0])] >= 0.0).astype(int)


def rounding_level(v: np.ndarray) -> np.ndarray:
    """Mask of the entries with |v_i| <= n * eps * ||v||_inf, whose sign rounding may decide."""
    v = np.asarray(v, dtype=float)
    size = np.max(np.abs(v), axis=-1, keepdims=True)
    return np.abs(v) <= v.shape[-1] * np.finfo(float).eps * size


def block_form_fiedler(projected: np.ndarray, sigma) -> np.ndarray:
    """Sign-fixed Fiedler vector of one matrix in the commutant of P = I[sigma], by blocks.

    The V+ and V- blocks are filled entry by entry from loops over the
    pairs (a, b), a < b = sigma[a] in order of a, and then the fixed points:
    plus = m[a, c] + m[a, d], minus = m[a, c] - m[a, d], sqrt2 * m[a, f]
    between a pair and a fixed point and m[f, g] between fixed points. The
    Fiedler value is the second-smallest of the two blocks' eigenvalues
    (eigvalsh of V+, eigh of V-), V+ first on an exact tie; its block
    column (eigh of V+ when it lies there) is lifted one node at a time and
    given the sign rule of column_loop_eig.
    """
    m = np.asarray(projected, dtype=float)
    sigma = [int(s) for s in sigma]
    pairs = [(a, b) for a, b in enumerate(sigma) if a < b]
    fixed = [f for f, s in enumerate(sigma) if f == s]
    root2 = math.sqrt(2.0)
    size = len(pairs) + len(fixed)
    plus = np.zeros((size, size))
    minus = np.zeros((len(pairs), len(pairs)))
    for p, (a, _) in enumerate(pairs):
        for q, (c, d) in enumerate(pairs):
            plus[p, q] = m[a, c] + m[a, d]
            minus[p, q] = m[a, c] - m[a, d]
        for g, f in enumerate(fixed):
            plus[p, len(pairs) + g] = root2 * m[a, f]
            plus[len(pairs) + g, p] = root2 * m[f, a]
    for g, f in enumerate(fixed):
        for h, e in enumerate(fixed):
            plus[len(pairs) + g, len(pairs) + h] = m[f, e]
    plus_values = np.linalg.eigvalsh(plus)
    minus_values, minus_vectors = np.linalg.eigh(minus)
    union = [(value, 0, k) for k, value in enumerate(plus_values)]
    union += [(value, 1, k) for k, value in enumerate(minus_values)]
    _, sector, column = sorted(union)[1]  # sorting (value, sector) puts V+ first on ties
    v = np.zeros(len(sigma))
    if sector == 0:
        y = np.linalg.eigh(plus)[1][:, column]
        for p, (a, b) in enumerate(pairs):
            v[a] = v[b] = y[p] * (1.0 / root2)
        for g, f in enumerate(fixed):
            v[f] = y[len(pairs) + g]
    else:
        y = minus_vectors[:, column]
        for p, (a, b) in enumerate(pairs):
            v[a] = y[p] * (1.0 / root2)
            v[b] = y[p] * (-1.0 / root2)
    lead = int(np.argmax(np.abs(v)))
    return -v if v[lead] < 0.0 else v


def per_trial_noise_cells(levels, trials: int, seed: int) -> list[list[tuple]]:
    """noise_benchmark's cells, one after another, each method on its own.

    Every cell redraws until the noisy club graph is connected, then runs the
    baseline, the RMT labels and the projected baseline as three separate
    pipelines, each with its own eigendecomposition; the projected labels
    come from the projection's block form (block_form_fiedler). Returns, per
    level, one ((baseline, rmt, prism) accuracies, resample count) pair per
    trial.
    """
    clean, truth = karate_club()
    operator = fiedler_duality_operator(clean)
    pairs = clean.n * (clean.n - 1) // 2
    cells = []
    for li, level in enumerate(levels):
        count = int(np.floor(level * pairs))
        level_cells = []
        for ti in range(trials):
            for attempt in range(1000):
                draw_seed = child_seed(seed, li, ti, attempt)
                weights = rebuild_flip_edges(clean.weights, count, draw_seed)
                noisy = Graph(labels=clean.labels, weights=weights)
                if is_connected(noisy):
                    break
            lap = laplacian(noisy)
            projected = commutant_projection(lap, operator).projected
            level_cells.append(((
                mean_accuracy(reference_fiedler_labels(lap), truth),
                mean_accuracy(reference_rmt_labels(lap), truth),
                mean_accuracy(block_form_fiedler(projected, operator.sigma) >= 0.0, truth),
            ), attempt))
        cells.append(level_cells)
    return cells


def noise_rows_from_cells(levels, cells, trials: int) -> tuple[tuple, ...]:
    """noise_benchmark's rows from the first `trials` cells of each level.

    A cell's seed depends only on its level and trial index, so these are
    the rows of a run with that many trials.
    """
    rows = []
    for level, level_cells in zip(levels, cells):
        block = np.array([scores for scores, _ in level_cells[:trials]])
        rows.append((
            float(level),
            float(np.mean(block[:, 0])), float(np.std(block[:, 0])),
            float(np.mean(block[:, 1])), float(np.std(block[:, 1])),
            float(np.mean(block[:, 2])), float(np.std(block[:, 2])),
            sum(attempt for _, attempt in level_cells[:trials]),
        ))
    return tuple(rows)


def per_trial_noise_rows(levels, trials: int, seed: int) -> tuple[tuple, ...]:
    """noise_benchmark's rows, one cell at a time (see per_trial_noise_cells)."""
    return noise_rows_from_cells(levels, per_trial_noise_cells(levels, trials, seed), trials)


def dense_defect(l_matrix: np.ndarray, p_matrix: np.ndarray) -> float:
    """||LP - PL||_F / ||L||_F with both products formed densely."""
    return float(np.linalg.norm(l_matrix @ p_matrix - p_matrix @ l_matrix)
                 / float(np.linalg.norm(l_matrix)))


def dense_projection(l_matrix: np.ndarray, p_matrix: np.ndarray) -> tuple:
    """(L + PLP)/2, symmetrized, with defect before and after and the deformation.

    Every product is a dense matmul; the zero-norm guards of
    commutant_projection are left out, the tests use nonzero matrices.
    """
    projected = (l_matrix + p_matrix @ l_matrix @ p_matrix) / 2.0
    projected = (projected + projected.T) / 2.0
    before = dense_defect(l_matrix, p_matrix)
    after = dense_defect(projected, p_matrix)
    deformation = float(np.linalg.norm(projected - l_matrix))
    return projected, before, after, deformation


def dense_involution_dims(p_matrix: np.ndarray) -> tuple[int, int]:
    """(dim V+, dim V-) from P @ P = I and a count of positive eigenvalues."""
    n = p_matrix.shape[0]
    assert np.linalg.norm(p_matrix @ p_matrix - np.eye(n)) <= 1e-9
    values = np.linalg.eigh((p_matrix + p_matrix.T) / 2.0)[0]
    dim_plus = int(np.count_nonzero(values > 0.0))
    return dim_plus, n - dim_plus


def reference_rewire(weights: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """rewire's weights, moving edges picked from the list of (i, j, weight) tuples.

    Deletes the chosen edges one by one and reinserts each weight at a
    rejection-sampled empty slot, asserting before every insertion that the
    graph is not saturated.
    """
    w = np.array(weights, dtype=float)
    n = w.shape[0]
    edges = [(i, j, float(w[i, j])) for i in range(n) for j in range(i + 1, n) if w[i, j] != 0.0]
    count = int(np.floor(fraction * len(edges)))
    if count == 0:
        return w
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(edges), size=count, replace=False)
    moved = []
    for idx in chosen:
        i, j, weight = edges[int(idx)]
        w[i, j] = w[j, i] = 0.0
        moved.append(weight)
    for weight in moved:
        assert np.count_nonzero(w) < n * n - n
        while True:
            a = int(rng.integers(n))
            b = int(rng.integers(n))
            if a != b and w[a, b] == 0.0:
                w[a, b] = w[b, a] = weight
                break
    return w


def loop_dual_network(m: int, p_intra: float, p_cross: float, seed: int) -> np.ndarray:
    """The weights of generate_dual_network's first attempt, filled pair by pair.

    Same draws, from default_rng((seed, 0)); a double loop over the node pairs
    sets each drawn edge and its mirror image one entry at a time.
    """
    n = 2 * m
    rng = np.random.default_rng((seed, 0))
    intra_draws = rng.random((m, m))
    cross_draws = rng.random((m, m))
    w = np.zeros((n, n))
    for i in range(m):
        for j in range(i + 1, m):
            if intra_draws[i, j] < p_intra:
                w[i, j] = w[j, i] = 1.0
                w[i + m, j + m] = w[j + m, i + m] = 1.0
        for j in range(i, m):
            if cross_draws[i, j] < p_cross:
                w[i, j + m] = w[j + m, i] = 1.0
                w[j, i + m] = w[i + m, j] = 1.0
    return w


def check_weights(w: np.ndarray) -> None:
    """Graph's weight checks, in order: finite, exactly symmetric, zero diagonal, nonnegative."""
    if not np.all(np.isfinite(w)):
        raise NonFinite("graph weights contain non-finite entries")
    if not np.array_equal(w, w.T):
        raise NotSymmetric("graph weights must be exactly symmetric")
    if np.any(np.diagonal(w) != 0.0):
        raise ValidationError("graph weights must have a zero diagonal")
    if np.any(w < 0.0):
        raise ValidationError("graph weights must be nonnegative")


def check_symmetric(m: np.ndarray) -> None:
    """symmetric_eig's input checks: square, finite, symmetric within SYMMETRY_RTOL."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains non-finite entries")
    norm = np.linalg.norm(m)
    if np.linalg.norm(m - m.T) > SYMMETRY_RTOL * max(1.0, norm):
        raise NotSymmetric("matrix is not symmetric within tolerance")


def two_pass_laplacians(weights: np.ndarray) -> np.ndarray:
    """D - A for a (B, n, n) weight stack: zeros, the degree diagonal, then A subtracted."""
    diagonal = np.arange(weights.shape[-1])
    lap = np.zeros_like(weights)
    lap[:, diagonal, diagonal] = weights.sum(axis=2)
    lap -= weights
    return lap


def stack_walk_components(weights: np.ndarray) -> list[list[int]]:
    """Connected components by a depth-first stack walk, one node per step.

    Starts from each unseen node in ascending order and pushes the nonzero
    neighbours of every popped node; each component is sorted at the end.
    """
    n = weights.shape[0]
    seen = [False] * n
    components = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in np.nonzero(weights[u])[0]:
                v = int(v)
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        components.append(sorted(comp))
    return components


def rank_loop_pairing(fiedler: np.ndarray) -> tuple[int, ...]:
    """Pair Fiedler rank k with rank n-1-k, one rank at a time."""
    n = len(fiedler)
    order = np.argsort(fiedler, kind="stable")
    sigma = [0] * n
    for k in range(n):
        sigma[int(order[k])] = int(order[n - 1 - k])
    return tuple(sigma)


def pair_loop_coupling(corr: np.ndarray, member_lists: list[list[int]]) -> tuple:
    """Mean correlation per pair of communities, from explicit lists of node pairs.

    Within a community each unordered pair counts once, in (i, j > i) order;
    an empty pair list gives None.
    """

    def pair_mean(nodes_a: list[int], nodes_b: list[int], internal: bool) -> float | None:
        if internal:
            pairs = [(x, y) for xi, x in enumerate(nodes_a) for y in nodes_a[xi + 1 :]]
        else:
            pairs = [(x, y) for x in nodes_a for y in nodes_b]
        if not pairs:
            return None
        return float(np.mean([corr[x, y] for x, y in pairs]))

    k = len(member_lists)
    return tuple(
        tuple(pair_mean(member_lists[a], member_lists[b], internal=a == b) for b in range(k))
        for a in range(k)
    )


def corrcoef_window(r, pos: int, window_len: int) -> tuple[list[int], np.ndarray, float]:
    """(kept tickers, correlation matrix, off-diagonal mean) of one window, by np.corrcoef.

    The reference for finance._window_corrs, which takes np.corrcoef's steps
    on a stack of windows: kept tickers have no gap and returns spanning a
    nonzero range, and the matrix is np.corrcoef's, symmetrised.
    """
    rows = np.asarray(r.returns[pos - window_len + 1 : pos + 1])
    kept = [i for i in range(rows.shape[1])
            if not np.isnan(rows[:, i]).any() and np.ptp(rows[:, i]) > 0.0]
    if len(kept) < 2:
        raise DegenerateWindow(f"fewer than 2 usable tickers in the window ending {r.dates[pos]}")
    corr = np.corrcoef(rows[:, kept].T)
    corr = (corr + corr.T) / 2.0
    return kept, corr, float(corr[~np.eye(len(kept), dtype=bool)].mean())


def loop_window_stats(r, window_end: str, window_len: int, threshold: float = 0.2):
    """finance.window_stats for one window on its own, the route the batched kernel must match.

    The window's kept tickers and their np.corrcoef matrix (corrcoef_window),
    its validated Graph, a components walk, a Graph for the largest
    component, its Fiedler operator (symmetric_eig, the rank pairing and
    permutation_operator) and duality_defect, each computed for this window
    alone.
    """
    finance._check_window_args(window_len, threshold)
    pos = finance._window_position(r, window_end, window_len)
    kept, corr, mean_corr = corrcoef_window(r, pos, window_len)
    graph = Graph(labels=tuple(r.tickers[i] for i in kept),
                  weights=finance._edge_weights(corr, threshold))
    if graph.edge_count() == 0:
        raise ZeroMatrix(f"window ending {r.dates[pos]} has no edges at threshold")
    largest = max(connected_components(graph), key=len)
    component = graph.subgraph(largest)
    operator = fiedler_duality_operator(component)
    defect = duality_defect(laplacian(component), operator)
    return finance.WindowStats(
        window_end=r.dates[pos],
        window_len=window_len,
        mean_correlation=mean_corr,
        defect=defect,
        component_size=component.n,
        dropped_nodes=graph.n - component.n,
    )


def loop_rolling_series(r, window_len: int, stride: int = 1, threshold: float = 0.2):
    """finance.rolling_defect with every window from loop_window_stats, one at a time."""
    records, skipped = [], []
    for pos in range(window_len - 1, len(r.dates), stride):
        try:
            stats = loop_window_stats(r, r.dates[pos], window_len, threshold)
        except PrismError as exc:
            skipped.append((r.dates[pos], type(exc).__name__))
            continue
        records.append((stats.window_end, window_len, stats.mean_correlation, stats.defect))
    defects = [rec[3] for rec in records]
    slope = None
    if len(defects) >= 2:
        slope = float(np.polyfit(np.arange(len(defects)), defects, 1)[0])
    return finance.RollingSeries(
        records=tuple(records),
        slope=slope,
        skipped=tuple(skipped),
        config={"window_len": window_len, "stride": stride, "threshold": threshold},
    )


def built_commutator_projection(l_matrix: np.ndarray, p: DualityOperator) -> ProjectionResult:
    """commutant_projection from dense products, building the commutator of L' for every operator.

    PLP, LP - PL and L'P - PL' are matmuls with p.matrix, and the checks are
    written out. The average (L + PLP)/2 is symmetrised only when it is not
    bitwise symmetric. Each mean is (a + b)/2, or a/2 + b/2 where a + b
    overflows, for every L. defect_after is always the computed ||L'P -
    PL'||_F / ||L'||_F, and the deformation is taken last, from a fresh L' - L.
    """
    l_matrix = np.asarray(l_matrix, dtype=float)
    if l_matrix.shape != (p.n, p.n):
        raise DimensionMismatch(
            f"matrix shape {l_matrix.shape} does not match operator shape {(p.n, p.n)}"
        )
    if not np.all(np.isfinite(l_matrix)):
        raise NonFinite("matrix contains non-finite entries")
    p_matrix = p.matrix

    def mean(a, b):
        total = a + b
        return np.where(np.isinf(total) & np.isfinite(a) & np.isfinite(b), a / 2.0 + b / 2.0,
                        total / 2.0)

    def defect(m):
        norm = float(np.linalg.norm(m))
        if norm <= ZERO_NORM_TOL:
            return 0.0
        return float(np.linalg.norm(m @ p_matrix - p_matrix @ m)) / norm

    projected = mean(l_matrix, p_matrix @ l_matrix @ p_matrix)
    if projected.tobytes() != projected.T.tobytes():
        projected = mean(projected, projected.T)
    deformation = float(np.linalg.norm(projected - l_matrix))
    return ProjectionResult(projected=projected, defect_before=defect(l_matrix),
                            defect_after=defect(projected), deformation=deformation)


def stepping_alternate(
    l_matrix: np.ndarray, p0: DualityOperator, cfg: AlternatingConfig | None = None
) -> LearnResult:
    """alternate that takes the P-step every iteration, for every operator.

    delta(L, P_0) comes from duality_defect, each iteration projects again
    (built_commutator_projection) and hands L' to optimize_p_step.
    """
    cfg = cfg or AlternatingConfig()
    l_matrix = np.asarray(l_matrix, dtype=float)
    p = p0
    trajectory = [duality_defect(l_matrix, p)]
    converged = trajectory[0] < cfg.defect_tolerance
    iterations = 0
    projection, projected_against = None, None
    while not converged and iterations < cfg.max_outer_iterations:
        projection, projected_against = built_commutator_projection(l_matrix, p), p
        p = optimize_p_step(projection.projected, p, cfg)
        iterations += 1
        trajectory.append(trajectory[-1] if p is projected_against else duality_defect(l_matrix, p))
        if trajectory[-1] < cfg.defect_tolerance:
            converged = True
        elif abs(trajectory[-1] - trajectory[-2]) < cfg.step_tolerance:
            converged = True
    if projected_against is not p:
        projection = built_commutator_projection(l_matrix, p)
    return LearnResult(operator=p, projected=projection.projected,
                       defect_trajectory=tuple(trajectory), converged=converged,
                       iterations=iterations)


def averaging_fiedler_rankings(lap: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The Fiedler-ranking kernel as it was when callers handed it their Laplacians.

    lap is _laplacians(weights), and this overwrites it. Below
    graphs.LANCZOS_CUTOFF nodes the inverse iteration runs on a fresh (L +
    L^T) / 2; at or above it each matrix is ranked in lap's own buffer and
    rebuilt from weights when it is rejected; eigh takes the rejected
    matrices' (L + L^T) / 2. The Lanczos run, the test and the row-block
    norm are the kernel's own helpers.
    """
    if lap.shape[-1] >= graphs.LANCZOS_CUTOFF:
        x = np.zeros(lap.shape[:2])
        separated = np.zeros(len(lap), dtype=bool)
        for b in range(len(lap)):
            ranking = _in_place_lanczos_ranking(lap[b])
            if ranking is not None:
                x[b], separated[b] = ranking, True
            else:
                lap[b] = graphs._laplacians(weights[b:b + 1])[0]
    else:
        iteration = _averaging_inverse_iteration(lap)
        if iteration is None:
            return _averaged_fiedler_columns(lap)
        x, separated = iteration
    if not separated.all():
        x[~separated] = _averaged_fiedler_columns(lap[~separated])
    return x


def _averaged_fiedler_columns(lap: np.ndarray) -> np.ndarray:
    vectors = np.linalg.eigh((lap + lap.transpose(0, 2, 1)) / 2.0)[1][:, :, 1:2]
    return graphs._sign_rule(vectors)[:, :, 0]


def _averaging_inverse_iteration(lap: np.ndarray):
    """One solve from sin(1..m) per matrix, a second from its x where the test fails."""
    m = lap.shape[-1]
    try:
        with np.errstate(all="ignore"):
            sym = lap + lap.transpose(0, 2, 1)
            sym /= 2.0
            values = np.linalg.eigvalsh(sym)
            scale = np.abs(values).max(axis=1)
            shift = values[:, 1] - graphs.FIEDLER_SHIFT * scale
            gap = values[:, 1] - values[:, 0]
            if m > 2:
                gap = np.minimum(gap, values[:, 2] - values[:, 1])
            eta = graphs.FIEDLER_BACKWARD_ERROR * m * np.finfo(float).eps * scale
            start = np.broadcast_to(np.sin(np.arange(1.0, m + 1.0)), lap.shape[:2])
            x, residual = _averaging_step(sym, shift, start)
            separated = graphs._separated(x, residual + eta, gap)
            for b in np.flatnonzero(~separated):
                y, again = _averaging_step(sym[b:b + 1], shift[b:b + 1], x[b:b + 1])
                x[b] = y[0]
                separated[b] = graphs._separated(y[0], again[0] + eta[b], gap[b])
    except np.linalg.LinAlgError:
        return None
    return x, separated


def _averaging_step(sym: np.ndarray, shift: np.ndarray, x: np.ndarray):
    """A solve on a fresh sym - shift I, normalised, and the residual against sym."""
    shifted = sym - shift[:, None, None] * np.eye(sym.shape[-1])
    x = np.linalg.solve(shifted, x[:, :, None])[:, :, 0]
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    image = np.matmul(sym, x[:, :, None])[:, :, 0]
    rho = (x * image).sum(axis=1)
    return x, np.linalg.norm(image - rho[:, None] * x, axis=1)


def _in_place_lanczos_ranking(sym: np.ndarray):
    m = len(sym)
    eps = np.finfo(float).eps
    rows = np.empty((min(graphs.LANCZOS_ROWS, m), m))
    with np.errstate(all="ignore"):
        scale = graphs._inf_norm(sym, rows)
        eta = graphs.FIEDLER_BACKWARD_ERROR * m * eps * scale
        u = np.full(m, 1.0 / np.sqrt(m))
        a = u @ (sym @ u)
        lanczos = graphs._lanczos(sym, u, a, eta)
        if lanczos is None:
            return None
        x, t = lanczos
        x = x / np.linalg.norm(x)
        image = sym @ x
        rho = x @ image
        error = np.linalg.norm(image - rho * x) + eta
        if not graphs._separated(x, error, np.minimum(rho - a, t - rho) - 2.0 * eta):
            return None
        d = np.arange(m)
        sym[d, d] -= t
        sym += scale / m
        scaled = scale * x
        for start in range(0, m, len(rows)):
            stop = start + len(rows)
            sym[start:stop] += np.multiply.outer(scaled[start:stop], x, out=rows[:m - start])
        try:
            factor = np.linalg.cholesky(sym)
        except np.linalg.LinAlgError:
            return None
        delta = graphs.CHOLESKY_ROUNDING * (m + 1) * eps * (
            np.vdot(factor, factor) + np.sqrt(m) * (scale + abs(t)) + 2.0 * scale)
    gap = np.minimum(rho - a, t - delta - rho) - 2.0 * eta
    return x if graphs._separated(x, error, gap) else None
