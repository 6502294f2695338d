"""Graph representation, Laplacians, and the shared eigendecomposition contract.

Everything downstream (defects, projections, pairings, benchmarks, finance)
builds on the two guarantees made here: Laplacians are exact row-sum-zero
symmetric matrices, and eigendecompositions are deterministic, including
eigenvector signs.

The batched kernels (the noise benchmark's trials, finance's windows) work
on (B, n, n) stacks through the private helpers here: the Graph weight
checks (_screen_weights), the connectivity walk (_reach), the Laplacian
(_laplacians), symmetric_eig's checks (_screen_symmetric) and its
decomposition with the sign rule (_signed_eigh). These helpers are the only
implementation of each step: Graph, laplacian, is_connected,
connected_components and symmetric_eig run them on a stack of one, so every
matrix of a stack gets the bits, and the first error, it would get alone.

Every Fiedler rank pairing (learn.fiedler_pairing and finance's window
kernel) ranks nodes by _fiedler_rankings, handed the graphs' weight stack:
a vector with an error bound that proves the ranking is that of eigh's
Fiedler vector, from eigvalsh and one inverse-iteration solve below
LANCZOS_CUTOFF nodes (a second solve for the matrices the first leaves
unproved) and from a short Lanczos run and one Cholesky inertia test at or
above it, with eigh itself where no bound holds (_fiedler_columns). The
kernel builds every Laplacian it works on itself. The same iteration and
bound give the noise benchmark's sign labels (_certified_signs), with eigh
where the bound fails. fiedler_vector, symmetric_eig and the per-matrix
labels built on them keep the full eigh.

Frozen results copy the arrays they are handed, except an array the package
has just built and wrapped in _Adopted, which they take over read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DisconnectedGraph,
    NonFinite,
    NotSymmetric,
    ParseError,
    TooSmall,
    ValidationError,
)

SYMMETRY_RTOL = 1e-9
RECONSTRUCTION_RTOL = 1e-8


class _Adopted:
    """An array the package has just built and keeps no other reference to.

    Passed in place of an array field (Graph(weights=_Adopted(w))), it is
    taken over read-only by _as_readonly instead of copied. Every other
    input is copied, so a caller's array never aliases a frozen result.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


def _as_readonly(a, dtype=float) -> np.ndarray:
    out = np.asarray(a.array, dtype=dtype) if isinstance(a, _Adopted) else np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph: node labels plus a symmetric weight matrix.

    weights[i][j] == weights[j][i] exactly, zero diagonal, nonnegative entries.
    Instances are immutable and safe to share across threads.
    """

    labels: tuple[str, ...]
    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        w = _as_readonly(self.weights)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        n = len(self.labels)
        if w.shape != (n, n):
            raise ValidationError(f"weight matrix {w.shape} does not match {n} labels")
        _raise_first(_screen_weights, w)

    @property
    def n(self) -> int:
        return len(self.labels)

    def edge_count(self) -> int:
        # the diagonal is zero and the weights exactly symmetric
        return int(np.count_nonzero(self.weights)) // 2

    def edges(self) -> list[tuple[int, int, float]]:
        """Each undirected edge once, (i, j, weight) with i < j, in row-major order."""
        rows, cols = _upper_edges(self.weights)
        return list(zip(rows.tolist(), cols.tolist(), self.weights[rows, cols].tolist()))

    def subgraph(self, nodes: Sequence[int]) -> "Graph":
        idx = list(nodes)
        return Graph(
            labels=tuple(self.labels[i] for i in idx),
            weights=_Adopted(self.weights[np.ix_(idx, idx)]),
        )


def _upper_edges(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the nonzero entries of w above the diagonal, in row-major order.

    One flat scan of the masked upper triangle, then the flat indices split
    into rows and columns: the indices of np.nonzero(np.triu(w != 0.0, 1))
    at a fraction of its cost.
    """
    n = w.shape[0]
    return np.divmod(np.flatnonzero((w != 0.0) & ~np.tri(n, dtype=bool)), n)


def _first_failures(checks, keys: list, outcomes: list) -> np.ndarray:
    """Keep mask of a (B, n, n) stack from (passed, error, message) checks in order.

    The first check a matrix fails becomes outcomes[keys[b]], a fresh
    error(message).
    """
    passed = np.array([mask for mask, _, _ in checks])
    keep = passed.all(axis=0)
    for b in np.flatnonzero(~keep):
        _, error, message = checks[np.argmin(passed[:, b])]  # the first failing check
        outcomes[keys[b]] = error(message)
    return keep


def _raise_first(screen, m: np.ndarray) -> None:
    """Run a stack screen on m alone and raise the error it records, if any."""
    outcome = [None]
    if not screen(m[None], [0], outcome)[0]:
        raise outcome[0]


def _screen_weights(w: np.ndarray, keys: list, outcomes: list) -> np.ndarray:
    """Graph's weight checks on each matrix of a (B, n, n) stack; see _first_failures.

    In order: finite, exactly symmetric, zero diagonal, nonnegative. Graph
    runs this, its only copy, on a stack of one.
    """
    diagonal = np.arange(w.shape[-1])
    return _first_failures([
        (np.isfinite(w).all(axis=(1, 2)), NonFinite, "graph weights contain non-finite entries"),
        ((w == w.transpose(0, 2, 1)).all(axis=(1, 2)), NotSymmetric,
         "graph weights must be exactly symmetric"),
        ((w[:, diagonal, diagonal] == 0.0).all(axis=1), ValidationError,
         "graph weights must have a zero diagonal"),
        ((w >= 0.0).all(axis=(1, 2)), ValidationError, "graph weights must be nonnegative"),
    ], keys, outcomes)


def graph_from_edges(
    labels: Sequence[str], edges: Iterable[tuple[int, int] | tuple[int, int, float]]
) -> Graph:
    """Build a Graph from (i, j) or (i, j, weight) index pairs."""
    n = len(labels)
    w = np.zeros((n, n))
    for edge in edges:
        if len(edge) == 2:
            i, j = edge  # type: ignore[misc]
            weight = 1.0
        else:
            i, j, weight = edge  # type: ignore[misc]
        if i == j:
            raise ValidationError(f"self-loop on node {i}")
        w[i, j] = weight
        w[j, i] = weight
    return Graph(labels=tuple(labels), weights=_Adopted(w))


def _laplacians(weights: np.ndarray) -> np.ndarray:
    """D - A for each matrix of a (B, n, n) weight stack, built in one pass.

    0 - w, then the degrees added to the diagonal: the bits of filling D
    and subtracting A, off-diagonal +0.0 included.
    """
    diagonal = np.arange(weights.shape[-1])
    lap = np.subtract(0.0, weights)
    lap[:, diagonal, diagonal] += weights.sum(axis=2)
    return lap


def laplacian(g: Graph) -> np.ndarray:
    """L = D - A with D the diagonal of weighted degrees. Rows sum to zero."""
    return _laplacians(g.weights[None])[0]


def _reach(adjacent: np.ndarray, start: int) -> np.ndarray:
    """(B, n) mask of the nodes reachable from start in each graph of a (B, n, n) adjacency stack.

    Every graph grows one frontier at a time until none of them changes.
    """
    reach = np.zeros(adjacent.shape[:2], dtype=bool)
    reach[:, start] = True
    frontier = reach.copy()
    while frontier.any():
        frontier = (adjacent & frontier[:, :, None]).any(axis=1) & ~reach
        reach |= frontier
    return reach


def connected_components(g: Graph) -> list[list[int]]:
    """Components over nonzero weights, ordered by smallest node, each sorted ascending."""
    adjacent = (g.weights != 0.0)[None]
    seen = np.zeros(g.n, dtype=bool)
    components = []
    while not seen.all():
        reach = _reach(adjacent, int(np.argmin(seen)))[0]  # the first node not yet seen
        seen |= reach
        components.append(np.flatnonzero(reach).tolist())
    return components


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return bool(_reach((g.weights != 0.0)[None], 0).all())


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues with orthonormal, sign-fixed eigenvector columns."""

    eigenvalues: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _as_readonly(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _as_readonly(self.eigenvectors))


def _screen_symmetric(m: np.ndarray, keys: list, outcomes: list) -> np.ndarray:
    """symmetric_eig's checks on each matrix of a (B, n, n) stack; see _first_failures.

    In order: at least one row, finite, symmetric within SYMMETRY_RTOL. An
    exactly symmetric matrix passes without computing its norms; the others
    take them per matrix, as a batched norm sums in another order.
    symmetric_eig runs this, its only copy, on a stack of one.
    """
    finite = np.isfinite(m).all(axis=(1, 2))
    symmetric = (m == m.transpose(0, 2, 1)).all(axis=(1, 2))
    for b in np.flatnonzero(finite & ~symmetric):
        symmetric[b] = not np.linalg.norm(m[b] - m[b].T) > SYMMETRY_RTOL * max(
            1.0, np.linalg.norm(m[b]))
    return _first_failures([
        (np.full(len(m), m.shape[-1] >= 1), ValidationError,
         f"expected a square matrix, got shape {m.shape[1:]}"),
        (finite, NonFinite, "matrix contains non-finite entries"),
        (symmetric, NotSymmetric, "matrix is not symmetric within tolerance"),
    ], keys, outcomes)


def _signed_eigh(m: np.ndarray, columns: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """symmetric_eig's decomposition of each matrix of a (..., n, n) stack, unchecked.

    Each matrix must be exactly symmetric, as a Laplacian that _laplacians
    builds is. Returns the ascending eigenvalues and the eigenvector columns
    picked by columns, with the sign rule (_sign_rule) applied.
    """
    values, vectors = np.linalg.eigh(m)
    return values, _sign_rule(vectors[..., columns])


def _sign_rule(vectors: np.ndarray) -> np.ndarray:
    """The columns of a (..., n, k) array, each flipped so its largest-magnitude entry is positive.

    Ties go to the lowest index, as np.argmax returns the first maximum.
    """
    lead = np.argmax(np.abs(vectors), axis=-2)
    flip = np.take_along_axis(vectors, lead[..., None, :], axis=-2) < 0.0
    return np.where(flip, -vectors, vectors)


def symmetric_eig(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix with a deterministic sign rule.

    Each eigenvector is flipped so its largest-magnitude entry is positive;
    ties go to the lowest index. Rejects asymmetric or non-finite input, and
    a finite one whose eigenvalues leave the float range (NonFinite, as for
    a non-finite entry). A matrix symmetric only within tolerance is
    decomposed as (m + m^T) / 2.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    _raise_first(_screen_symmetric, m)
    bits = m.view(np.uint64)
    # the average of a bitwise symmetric m is m itself, unless 2m overflows; -0.0
    # against 0.0 still averages
    if not np.array_equal(bits, bits.T):
        m = (m + m.T) / 2.0
    values, vectors = _signed_eigh(m)
    if not np.isfinite(values).all():
        raise NonFinite("matrix contains non-finite entries")
    return SpectralDecomposition(eigenvalues=_Adopted(values), eigenvectors=_Adopted(vectors))


def require_fiedler_graph(g: Graph) -> None:
    """Raise unless g has a well-defined Fiedler vector: 2+ nodes, connected."""
    if g.n < 2:
        raise TooSmall(f"Fiedler vector needs at least 2 nodes, got {g.n}")
    if not is_connected(g):
        raise DisconnectedGraph("graph is disconnected; Fiedler vector undefined")


def fiedler_vector(g: Graph) -> np.ndarray:
    """Unit eigenvector of the second-smallest Laplacian eigenvalue.

    Requires a connected graph: with a repeated zero eigenvalue the second
    eigenvector is an arbitrary basis choice, so we fail loudly instead.
    """
    require_fiedler_graph(g)
    decomp = symmetric_eig(laplacian(g))
    return np.array(decomp.eigenvectors[:, 1])


# Inverse iteration shifts by mu = lambda_2 - FIEDLER_SHIFT * max|lambda|,
# and allows eigh a backward error of FIEDLER_BACKWARD_ERROR * m * eps *
# max|lambda|. Over the 60-row windows of the finance fixture universe at
# four seeds (2160 windows), no vector after one solve was farther from
# eigh's than 47% of the resulting bound (1.4% after two).
FIEDLER_SHIFT = 1e-12
FIEDLER_BACKWARD_ERROR = 8.0

# Stacks of LANCZOS_CUTOFF or more nodes are ranked by _lanczos_ranking, in
# at most LANCZOS_STEPS Lanczos steps; smaller ones by _inverse_iteration,
# which is faster there (see _fiedler_rankings). CHOLESKY_ROUNDING * (m + 1)
# * eps is the Cholesky test's relative rounding margin: it bounds Higham's
# gamma_{m+1}, and the gamma_5 of forming the Cholesky input, with room.
LANCZOS_CUTOFF = 128
LANCZOS_STEPS = 40
CHOLESKY_ROUNDING = 2.0
LANCZOS_ROWS = 64  # rows of the Cholesky input reduced or updated at once: 256 KB at m = 500


def _fiedler_rankings(weights: np.ndarray) -> np.ndarray:
    """A vector per graph of a (B, m, m) weight stack, m >= 2, that ranks like its Fiedler vector.

    weights are Graph weights with finite degrees, and are never written.
    Each Laplacian the kernel works on, sym below, is its own build by
    _laplacians, so it is exactly symmetric.

    The rank pairing (learn._rank_pairings) of each row is the one of the
    sign-fixed Fiedler column of _signed_eigh, and a matrix without a proof
    of this takes eigh itself (_fiedler_columns, on a fresh build of the
    rejected matrices). Every proof has one form.
    Let x be a unit vector with rho = x^T sym x.
    eigh's vector v is an exact eigenvector, for the second eigenvalue,
    of sym + E with ||E|| <= eta = FIEDLER_BACKWARD_ERROR * m * eps * scale,
    scale >= ||sym||. Put error = ||sym x - rho x|| + eta, a bound on x's
    residual for sym + E, and let gap > 0 bound the distance from rho to
    every other eigenvalue of sym + E. Writing x over sym + E's
    eigenvectors, error^2 >= gap^2 sin^2 theta, theta the angle between x
    and v, so with the sign of v that makes x^T v >= 0, ||x - v|| <= sqrt(2)
    sin theta <= 1.5 error / gap. Where x's sorted entries are all more than
    4 * error / gap apart, no entry moves past a neighbour: v orders the
    nodes as x does or reversed (the sign rule may flip v), with no ties,
    and the pairing of rank k with rank m-1-k is the same either way. The
    test also rules out a repeated second eigenvalue: then every
    eigenvalue would be at least gap from rho, so error >= gap, while no
    spacing of a unit vector exceeds sqrt(2) / (m - 1) < 4.

    Below LANCZOS_CUTOFF nodes, x comes from eigvalsh and inverse iteration
    (_inverse_iteration) on one stack of Laplacians, with a second step for
    the rows the first leaves unproved, gap from eigvalsh's values as
    min(lambda_2 - lambda_1, lambda_3 - lambda_2), which stands in for the
    distance from rho up to a second-order term, and scale is max|lambda|.
    At or above it, x comes from a short Lanczos run and gap from a
    Cholesky inertia test (_lanczos_ranking), which builds its
    Cholesky input in the Laplacian's buffer; the Laplacians are built one
    at a time, so a stack never holds more than one Cholesky input.

    The cutoff is where the two paths crossed with two solves. Milliseconds
    per call on mirror networks (benchmarks.generate_dual_network(m / 2)
    with 2% of the edges rewired, one graph per call), minimum over 3 seeds
    and 7 repeats, BLAS on one thread, 2-CPU x86-64. With one solve the
    paths tie at 128 (three timings of each: 0.94-0.98 against 0.95-0.99
    ms), and Lanczos is faster from 136 up (and by 4% at 120), so no size
    from the cutoff up is faster on the solve path and the cutoff stays:

        m                      60   100   120   128   136   144   152   160   200
        eigvalsh + one solve  0.27  0.64  0.84  0.94  1.11  1.28  1.39  1.49  2.38
        Lanczos + Cholesky    0.61  0.92  0.81  0.96  0.88  1.06  1.06  1.36  1.41
    """
    if weights.shape[-1] >= LANCZOS_CUTOFF:
        x = np.zeros(weights.shape[:2])
        separated = np.zeros(len(weights), dtype=bool)
        for b in range(len(weights)):
            # held to the next build or the return: on mirror-large this measured fewer page
            # faults and a lower peak RSS than freeing it at once, though both move with
            # glibc's heap layout
            sym = _laplacians(weights[b:b + 1])[0]
            ranking = _lanczos_ranking(sym)
            if ranking is not None:
                x[b], separated[b] = ranking, True
    else:
        sym = _laplacians(weights)
        with np.errstate(all="ignore"):
            try:
                values = np.linalg.eigvalsh(sym)
            except np.linalg.LinAlgError:
                del sym  # freed before the eigh
                return _fiedler_columns(_laplacians(weights))
            x, error, gap = _inverse_iteration(sym, values, 1)
            separated = _separated(x, error, gap)
            # the rows that fail take a second step from their x, unless the first was not finite
            failed = ~separated & np.isfinite(error)
            if failed.any():
                x[failed], error, gap = _inverse_iteration(sym[failed], values[failed], 1, x[failed])
                separated[failed] = _separated(x[failed], error, gap)
        del sym  # freed before any eigh
    if not separated.all():
        rejected = weights[~separated] if separated.any() else weights  # no copy of the whole stack
        x[~separated] = _fiedler_columns(_laplacians(rejected))
    return x


def _separated(x: np.ndarray, error, gap) -> np.ndarray:
    """_fiedler_rankings' test on the rows of x: gap > 0 and every spacing > 4 * error / gap."""
    spacing = np.diff(np.sort(x, axis=-1), axis=-1)
    error, gap = np.asarray(error)[..., None], np.asarray(gap)[..., None]
    # kept as a product so a zero gap fails instead of dividing
    return ((gap > 0.0) & (spacing * gap > 4.0 * error)).all(axis=-1)


def _certified_signs(x: np.ndarray, error, gap) -> np.ndarray:
    """The rows of x whose sign labels, after _sign_rule, are those of eigh's vector.

    By _fiedler_rankings' bound every entry of x is within b = 1.5 * error
    / gap of eigh's v, signed so that x^T v >= 0. A row passes when gap > 0,
    every |x_i| > b, so v_i has x_i's sign, and every entry with |x_i| >=
    max|x| - 2b has the sign of x's lead entry. v's lead entry is among
    those, as |v_i| <= |x_i| + b, so the sign rule flips v as it flips x.
    """
    size = np.abs(x)
    error, gap = np.asarray(error)[..., None], np.asarray(gap)[..., None]
    bound = 1.5 * error  # b * gap: the tests are kept as products, so a zero gap fails
    lead = np.take_along_axis(x, np.argmax(size, axis=-1)[..., None], axis=-1)
    near_lead = size * gap >= size.max(axis=-1, keepdims=True) * gap - 2.0 * bound
    same_sign = (x > 0.0) == (lead > 0.0)
    return ((gap > 0.0) & (size * gap > bound) & (same_sign | ~near_lead)).all(axis=-1)


def _inverse_iteration(
    sym: np.ndarray, values: np.ndarray, k, x: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One inverse-iteration step toward eigenvalue k of each matrix: x, error and gap.

    sym is a (B, m, m) stack of exactly symmetric matrices, values their
    ascending eigvalsh (B, m), and k an eigen-index or one per matrix. One
    step (_inverse_step) on sym - mu I, mu = lambda_k - FIEDLER_SHIFT *
    max|lambda|, from x (the fixed start when None), gives a unit x. The
    solve multiplies the start's lambda_k component by 1 / (FIEDLER_SHIFT *
    max|lambda|) and every other by at most 1 / gap: for the Fiedler
    vector, one step passes _separated on every window of the finance
    fixture. error = ||sym x - rho x|| + eta, eta = FIEDLER_BACKWARD_ERROR *
    m * eps * max|lambda|, and gap = min(lambda_k - lambda_{k-1},
    lambda_{k+1} - lambda_k) over the neighbours that exist: the inputs of
    _fiedler_rankings' bound, which _separated (rankings) and
    _certified_signs (sign labels) test. Where solve raises LinAlgError, x
    and error are NaN, which fails both tests.
    """
    m = sym.shape[-1]
    rows = np.arange(len(sym))
    k = np.broadcast_to(k, rows.shape)
    with np.errstate(all="ignore"):
        scale = np.abs(values).max(axis=1)
        target = values[rows, k]
        shift = target - FIEDLER_SHIFT * scale
        below = np.where(k > 0, target - values[rows, np.maximum(k - 1, 0)], np.inf)
        above = np.where(k < m - 1, values[rows, np.minimum(k + 1, m - 1)] - target, np.inf)
        gap = np.minimum(below, above)
        eta = FIEDLER_BACKWARD_ERROR * m * np.finfo(float).eps * scale
        try:
            x, residual = _inverse_step(sym, shift, x)
        except np.linalg.LinAlgError:  # an exactly singular shifted matrix
            x, residual = np.full(sym.shape[:2], np.nan), np.full(len(sym), np.nan)
    return x, residual + eta, gap


def _inverse_step(
    sym: np.ndarray, shift: np.ndarray, x: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """One solve of (sym - shift I) y = x per matrix: y / ||y||, and its residual for sym.

    x is the first step's fixed, generic start sin(1..m) when None. The
    solve sees sym with the shift subtracted from its diagonal in place,
    the bits of sym - shift I (a Laplacian's off-diagonal zeros are +0.0),
    and the saved diagonal is put back before the residual, also when solve
    raises, so no other stack of matrices is made and sym keeps its bits.
    The residual is ||sym y - rho y||, rho = y^T sym y.
    """
    d = np.arange(sym.shape[-1])
    if x is None:
        x = np.broadcast_to(np.sin(np.arange(1.0, len(d) + 1.0)), sym.shape[:2])
    diagonal = sym[:, d, d]
    sym[:, d, d] = diagonal - shift[:, None]
    try:
        x = np.linalg.solve(sym, x[:, :, None])[:, :, 0]
    finally:
        sym[:, d, d] = diagonal
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    image = np.matmul(sym, x[:, :, None])[:, :, 0]
    rho = (x * image).sum(axis=1)
    return x, np.linalg.norm(image - rho[:, None] * x, axis=1)


def _lanczos_ranking(sym: np.ndarray) -> np.ndarray | None:
    """_fiedler_rankings' x for one m x m Laplacian at or above LANCZOS_CUTOFF, or None.

    sym, exactly symmetric, is the kernel's own and is overwritten. None
    when the test fails, _lanczos gives no vector or cholesky raises
    LinAlgError. scale and the rank-2 term are taken LANCZOS_ROWS rows at a
    time, so the Cholesky's own arrays are the only n x n ones made. x is
    the bottom Ritz vector of a Lanczos run (_lanczos), u = 1/sqrt(m), and
    scale = ||sym||_inf, the Gershgorin bound on every |lambda|. gap is
    min(rho - a, t - delta - rho) - 2 eta, where:

    - a = u^T sym u >= lambda_1 (Courant-Fischer).
    - t lies between the two lowest Ritz values (_lanczos), and delta is
      a rounding margin. Cholesky runs on A = sym - t I + c (u u^T +
      x x^T), c = scale, built in sym's own buffer once x's residual is
      taken. If it succeeds, R^T R = A + F + dA, with F the rounding of
      forming A, ||F|| <= ||F||_F <= gamma_5 (sqrt(m) (scale + |t|) +
      2 c), and ||dA|| <= gamma_{m+1} ||R||_F^2 (Higham, Accuracy and
      Stability of Numerical Algorithms, Theorem 10.3). R^T R is positive
      semidefinite, so lambda_1(A) >= -delta, delta = CHOLESKY_ROUNDING *
      (m + 1) * eps * (||R||_F^2 + sqrt(m) (scale + |t|) + 2 c). A is
      sym - t I plus a positive semidefinite matrix of rank 2, which moves
      each eigenvalue up by at most two places, so lambda_3(sym) - t >=
      lambda_1(A) >= -delta.
    - One eta moves the eigenvalues of sym to those of sym + E (Weyl); the
      other covers the rounding of a and rho, each within m eps scale.

    A vector that fails the test with delta = 0 fails it for every delta,
    so it returns None before the Cholesky. A t above lambda_3 leaves A a
    negative eigenvalue, so the Cholesky fails or delta covers it.
    """
    m = len(sym)
    eps = np.finfo(float).eps
    rows = np.empty((min(LANCZOS_ROWS, m), m))  # scratch for the row-block steps
    with np.errstate(all="ignore"):
        scale = _inf_norm(sym, rows)
        eta = FIEDLER_BACKWARD_ERROR * m * eps * scale
        u = np.full(m, 1.0 / np.sqrt(m))
        a = u @ (sym @ u)
        lanczos = _lanczos(sym, u, a, eta)
        if lanczos is None:
            return None
        x, t = lanczos
        x = x / np.linalg.norm(x)
        image = sym @ x
        rho = x @ image
        error = np.linalg.norm(image - rho * x) + eta
        if not _separated(x, error, np.minimum(rho - a, t - rho) - 2.0 * eta):
            return None
        d = np.arange(m)
        sym[d, d] -= t
        sym += scale / m
        scaled = scale * x
        for start in range(0, m, len(rows)):
            stop = start + len(rows)
            sym[start:stop] += np.multiply.outer(scaled[start:stop], x, out=rows[:m - start])
        del rows
        try:
            factor = np.linalg.cholesky(sym)
        except np.linalg.LinAlgError:  # A has a pivot <= 0: t may be above lambda_3
            return None
        delta = CHOLESKY_ROUNDING * (m + 1) * eps * (
            np.vdot(factor, factor) + np.sqrt(m) * (scale + abs(t)) + 2.0 * scale)
    return x if _separated(x, error, np.minimum(rho - a, t - delta - rho) - 2.0 * eta) else None


def _inf_norm(m: np.ndarray, rows: np.ndarray) -> float:
    """np.linalg.norm(m, np.inf) bit for bit, through the row-block scratch rows.

    Each row sum is the same reduction of the same row, and max is exact.
    """
    sums = np.empty(len(m))
    for start in range(0, len(m), len(rows)):
        block = m[start:start + len(rows)]
        sums[start:start + len(rows)] = np.abs(block, out=rows[:len(block)]).sum(axis=1)
    return float(sums.max())


def _lanczos(
    sym: np.ndarray, u: np.ndarray, a: float, eta: float
) -> tuple[np.ndarray, float] | None:
    """The bottom Ritz vector of sym on the complement of u, and a shift t below lambda_3.

    Lanczos with full reorthogonalisation (twice per step, against u too)
    from the fixed, generic start sin(1..m). t is the midpoint of the two
    lowest Ritz values theta_1 < theta_2; theta_2 is at least the second
    eigenvalue of sym on the complement of u (Cauchy), which is lambda_3
    for an exact Laplacian. Every second step it checks whether to stop,
    with residual estimates r_i = beta_k |y_ki|: once r_2 is under a
    quarter of theta_2 - theta_1, and the bottom pair passes _separated
    with twice the error r_1 + eta, taking gap as _lanczos_ranking does
    with delta = 0. It also stops when the Krylov space stops growing, or
    after LANCZOS_STEPS steps. None when fewer than two Ritz values exist
    or eigh raises LinAlgError on a non-finite run.
    """
    m = len(u)
    basis = np.empty((LANCZOS_STEPS + 2, m))  # row 0 is u, row k the k-th Lanczos vector
    basis[0] = u
    start = np.sin(np.arange(1.0, m + 1.0))
    start -= (u @ start) * u
    basis[1] = start / np.linalg.norm(start)
    tridiagonal = np.zeros((LANCZOS_STEPS + 1, LANCZOS_STEPS + 1))
    result = None
    for k in range(1, LANCZOS_STEPS + 1):
        w = sym @ basis[k]
        tridiagonal[k - 1, k - 1] = basis[k] @ w
        for _ in range(2):
            w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
        beta = np.linalg.norm(w)
        last = k == LANCZOS_STEPS or not beta > 0.0
        if k >= 2 and (k % 2 == 0 or last):
            try:
                theta, y = np.linalg.eigh(tridiagonal[:k, :k])
            except np.linalg.LinAlgError:  # a non-finite run
                return None
            residual = beta * np.abs(y[-1, :2])
            t = (theta[0] + theta[1]) / 2.0
            result = basis[1:k + 1].T @ y[:, 0], t
            if residual[1] <= (theta[1] - theta[0]) / 4.0 and _separated(
                    result[0], 2.0 * (residual[0] + eta),
                    np.minimum(theta[0] - a, t - theta[0]) - 2.0 * eta):
                break
        if last:
            break
        basis[k + 1] = w / beta
        tridiagonal[k - 1, k] = tridiagonal[k, k - 1] = beta
    return result


def _fiedler_columns(lap: np.ndarray) -> np.ndarray:
    """The sign-fixed Fiedler column of each Laplacian of a (B, m, m) stack, from full eigh."""
    return _signed_eigh(lap, slice(1, 2))[1][:, :, 0]


# Serialization. One header line fixing node order, then one line per edge:
#   #nodes: a,b,c
#   a<TAB>b<TAB>1.0
# Weights are written with repr() so parsing them back is exact.

def graph_to_text(g: Graph) -> str:
    for label in g.labels:
        if "," in label or "\t" in label or "\n" in label:
            raise ValidationError(f"label {label!r} contains a separator character")
    if len(set(g.labels)) != len(g.labels):
        raise ValidationError("duplicate node labels cannot be serialized")
    lines = ["#nodes: " + ",".join(g.labels)]
    for i, j, weight in g.edges():
        lines.append(f"{g.labels[i]}\t{g.labels[j]}\t{weight!r}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#nodes: "):
        raise ParseError("line 1: expected '#nodes: <comma-separated labels>' header")
    labels = lines[0][len("#nodes: "):].split(",")
    if any(not s for s in labels):
        raise ParseError("line 1: empty node label")
    if len(set(labels)) != len(labels):
        raise ParseError("line 1: duplicate node label")
    index = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    w = np.zeros((n, n))
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 'label\\tlabel\\tweight'")
        a, b, weight_text = parts
        if a not in index:
            raise ParseError(f"line {lineno}: unknown node label {a!r}")
        if b not in index:
            raise ParseError(f"line {lineno}: unknown node label {b!r}")
        try:
            weight = float(weight_text)
        except ValueError:
            raise ParseError(f"line {lineno}: bad weight {weight_text!r}") from None
        i, j = index[a], index[b]
        if i == j:
            raise ParseError(f"line {lineno}: self-loop on {a!r}")
        if w[i, j] != 0.0:
            raise ParseError(f"line {lineno}: duplicate edge {a!r}-{b!r}")
        w[i, j] = weight
        w[j, i] = weight
    return Graph(labels=tuple(labels), weights=_Adopted(w))


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(graph_to_text(g))


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_text(fh.read())


# Dense symmetric matrices (projected Laplacians and the like) use their own
# headered text form so they are not mistaken for graphs or operators.

def matrix_to_text(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=float)
    lines = [f"#matrix n: {m.shape[0]}"]
    for row in m:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _dense_rows(lines: list[str], n: int) -> np.ndarray:
    """The n rows of n floats that follow a dense header (matrix or operator file).

    lines are the non-blank lines after the header, numbered from line 2.
    """
    rows = []
    for lineno, line in enumerate(lines, start=2):
        try:
            row = [float(x) for x in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: bad matrix entry") from None
        if len(row) != n:
            raise ParseError(f"line {lineno}: expected {n} entries, got {len(row)}")
        rows.append(row)
    if len(rows) != n:
        raise ParseError(f"expected {n} matrix rows, got {len(rows)}")
    return np.array(rows)


def matrix_from_text(text: str) -> np.ndarray:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("#matrix n: "):
        raise ParseError("expected '#matrix n: N' header")
    try:
        n = int(lines[0][len("#matrix n: "):])
    except ValueError:
        raise ParseError("bad size in matrix header") from None
    m = _dense_rows(lines[1:], n)
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains non-finite entries")
    return m


def save_matrix(m: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(matrix_to_text(m))


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_text(fh.read())
