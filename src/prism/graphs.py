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
kernel) ranks nodes by _fiedler_rankings: eigvalsh, two inverse-iteration
solves and an error bound that proves the ranking is that of eigh's Fiedler
vector, with eigh itself where it cannot (_fiedler_columns). fiedler_vector,
symmetric_eig and the sign-based labels keep the full eigh.

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
        return int(np.count_nonzero(np.triu(self.weights, 1)))

    def edges(self) -> list[tuple[int, int, float]]:
        """Each undirected edge once, (i, j, weight) with i < j."""
        i_idx, j_idx = np.nonzero(np.triu(self.weights, 1))
        return [(int(i), int(j), float(self.weights[i, j])) for i, j in zip(i_idx, j_idx)]

    def subgraph(self, nodes: Sequence[int]) -> "Graph":
        idx = list(nodes)
        return Graph(
            labels=tuple(self.labels[i] for i in idx),
            weights=_Adopted(self.weights[np.ix_(idx, idx)]),
        )


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
    """D - A for each matrix of a (B, n, n) weight stack."""
    diagonal = np.arange(weights.shape[-1])
    lap = np.zeros_like(weights)
    lap[:, diagonal, diagonal] = weights.sum(axis=2)
    lap -= weights
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

    Returns the ascending eigenvalues and the eigenvector columns picked by
    columns, with the sign rule (_sign_rule) applied.
    """
    values, vectors = np.linalg.eigh((m + np.swapaxes(m, -1, -2)) / 2.0)
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
    ties go to the lowest index. Rejects asymmetric or non-finite input.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    _raise_first(_screen_symmetric, m)
    values, vectors = _signed_eigh(m)
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
# max|lambda|. Over the finance fixture universe at four seeds, no computed
# vector was farther from eigh's than 1.4% of the resulting bound.
FIEDLER_SHIFT = 1e-12
FIEDLER_BACKWARD_ERROR = 8.0


def _fiedler_rankings(lap: np.ndarray) -> np.ndarray:
    """A vector per Laplacian of a (B, m, m) stack, m >= 2, that ranks like its Fiedler vector.

    The rank pairing (learn._rank_pairings) of each row is the one of the
    sign-fixed Fiedler column of _signed_eigh. Two steps of inverse
    iteration on sym - mu I, with sym = (L + L^T) / 2 and mu just below
    eigvalsh's lambda_2, give a vector x. Its distance from eigh's vector,
    up to sign, is at most the residual ||sym x - rho x|| plus eigh's
    backward error, over the gap min(lambda_2 - lambda_1, lambda_3 -
    lambda_2) (Davis-Kahan). Where x's sorted entries are all more than 4
    times that bound apart, eigh's vector orders the nodes the same way or
    reversed, with no ties, and the pairing of rank k with rank m-1-k is the
    same either way. The other Laplacians, and a stack whose iteration
    fails, take eigh itself (_fiedler_columns).
    """
    iteration = _inverse_iteration(lap)  # its n x n temporaries are gone before any eigh
    if iteration is None:
        return _fiedler_columns(lap)
    x, values, residual = iteration
    m = lap.shape[-1]
    scale = np.abs(values).max(axis=1)
    gap = values[:, 1] - values[:, 0]
    if m > 2:
        gap = np.minimum(gap, values[:, 2] - values[:, 1])
    error = residual + FIEDLER_BACKWARD_ERROR * m * np.finfo(float).eps * scale
    spacing = np.diff(np.sort(x, axis=1), axis=1)
    # spacing > 4 * error / gap, kept as a product so a zero gap fails instead of dividing
    separated = (gap > 0.0) & (spacing * gap[:, None] > 4.0 * error[:, None]).all(axis=1)
    if not separated.any():
        return _fiedler_columns(lap)  # no boolean-index copy of the stack
    if not separated.all():
        x[~separated] = _fiedler_columns(lap[~separated])
    return x


def _inverse_iteration(lap: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """_fiedler_rankings' iteration: x, eigvalsh's values and the residuals, or None.

    None when eigvalsh or solve raises LinAlgError; a non-finite result is
    returned as it is and fails the caller's check. sym is the only n x n
    array it makes: the solves see sym with mu subtracted from its diagonal
    in place, the bits of sym - mu I (a Laplacian's off-diagonal zeros are
    +0.0), and the saved diagonal is put back before the residual.
    """
    m = lap.shape[-1]
    d = np.arange(m)
    x = np.broadcast_to(np.sin(np.arange(1.0, m + 1.0)), lap.shape[:2])  # fixed, generic start
    try:
        with np.errstate(all="ignore"):
            sym = lap + lap.transpose(0, 2, 1)
            sym /= 2.0
            values = np.linalg.eigvalsh(sym)
            diagonal = sym[:, d, d]
            sym[:, d, d] = diagonal - (
                values[:, 1] - FIEDLER_SHIFT * np.abs(values).max(axis=1))[:, None]
            for _ in range(2):
                x = np.linalg.solve(sym, x[:, :, None])[:, :, 0]
                x = x / np.linalg.norm(x, axis=1, keepdims=True)
            sym[:, d, d] = diagonal
            image = np.matmul(sym, x[:, :, None])[:, :, 0]
            rho = (x * image).sum(axis=1)
            residual = np.linalg.norm(image - rho[:, None] * x, axis=1)
    except np.linalg.LinAlgError:
        return None
    return x, values, residual


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
