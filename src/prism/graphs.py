"""Graph representation, Laplacians, and the shared eigendecomposition contract.

Everything downstream (defects, projections, pairings, benchmarks, finance)
builds on the two guarantees made here: Laplacians are exact row-sum-zero
symmetric matrices, and eigendecompositions are deterministic, including
eigenvector signs.

The batched kernels (the noise benchmark's trials, finance's windows) work
on (B, n, n) stacks through the private helpers here: the Graph weight
checks (_screen_weights), the connectivity walk (_reach), the Laplacian
(_laplacians), symmetric_eig's checks (_screen_symmetric) and its
decomposition with the sign rule (_signed_eigh). Each gives every matrix of
the stack the bits, and the first error, of the per-matrix function:
laplacian, is_connected, connected_components and symmetric_eig run the
same helpers on a stack of one.
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
    PrismError,
    TooSmall,
    ValidationError,
)

SYMMETRY_RTOL = 1e-9
RECONSTRUCTION_RTOL = 1e-8


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
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
        _check_weights(w)

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
            weights=self.weights[np.ix_(idx, idx)],
        )


def _check_weights(w: np.ndarray) -> None:
    """Graph's weight checks, in order: finite, exactly symmetric, zero diagonal, nonnegative."""
    if not np.all(np.isfinite(w)):
        raise NonFinite("graph weights contain non-finite entries")
    if not np.array_equal(w, w.T):
        raise NotSymmetric("graph weights must be exactly symmetric")
    if np.any(np.diagonal(w) != 0.0):
        raise ValidationError("graph weights must have a zero diagonal")
    if np.any(w < 0.0):
        raise ValidationError("graph weights must be nonnegative")


def _screen(stack: np.ndarray, passed: np.ndarray, check, keys: list, outcomes: list) -> np.ndarray:
    """Mask of the matrices of a stack that pass one per-matrix check.

    passed is the check run on the whole stack at once. A matrix it fails
    runs the per-matrix check, whose PrismError becomes outcomes[keys[b]], so
    every matrix fails with the same error and message as on its own.
    """
    keep = passed.copy()
    for b in np.flatnonzero(~passed):
        try:
            check(stack[b])
        except PrismError as exc:
            outcomes[keys[b]] = exc
        else:
            keep[b] = True
    return keep


def _screen_weights(w: np.ndarray, keys: list, outcomes: list) -> np.ndarray:
    """_check_weights on each matrix of a (B, n, n) stack; see _screen."""
    diagonal = np.arange(w.shape[-1])
    passed = (
        np.isfinite(w).all(axis=(1, 2))
        & (w == w.transpose(0, 2, 1)).all(axis=(1, 2))
        & (w[:, diagonal, diagonal] == 0.0).all(axis=1)
        & (w >= 0.0).all(axis=(1, 2))
    )
    return _screen(w, passed, _check_weights, keys, outcomes)


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
    return Graph(labels=tuple(labels), weights=w)


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


def _check_symmetric(m: np.ndarray) -> None:
    """symmetric_eig's input checks: square, finite, symmetric within SYMMETRY_RTOL."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix contains non-finite entries")
    norm = np.linalg.norm(m)
    if np.linalg.norm(m - m.T) > SYMMETRY_RTOL * max(1.0, norm):
        raise NotSymmetric("matrix is not symmetric within tolerance")


def _screen_symmetric(m: np.ndarray, keys: list, outcomes: list) -> np.ndarray:
    """_check_symmetric on each matrix of a (B, n, n) stack; see _screen.

    A finite, exactly symmetric matrix passes without computing its norms.
    """
    passed = (
        (m.shape[-1] >= 1)
        & np.isfinite(m).all(axis=(1, 2))
        & (m == m.transpose(0, 2, 1)).all(axis=(1, 2))
    )
    return _screen(m, passed, _check_symmetric, keys, outcomes)


def _signed_eigh(m: np.ndarray, columns: slice = slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """symmetric_eig's decomposition of each matrix of a (..., n, n) stack, unchecked.

    Returns the ascending eigenvalues and the eigenvector columns picked by
    columns, each flipped so its largest-magnitude entry is positive (ties
    go to the lowest index, as np.argmax returns the first maximum).
    """
    values, vectors = np.linalg.eigh((m + np.swapaxes(m, -1, -2)) / 2.0)
    vectors = vectors[..., columns]
    lead = np.argmax(np.abs(vectors), axis=-2)
    flip = np.take_along_axis(vectors, lead[..., None, :], axis=-2) < 0.0
    return values, np.where(flip, -vectors, vectors)


def symmetric_eig(m: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix with a deterministic sign rule.

    Each eigenvector is flipped so its largest-magnitude entry is positive;
    ties go to the lowest index. Rejects asymmetric or non-finite input.
    """
    m = np.asarray(m, dtype=float)
    _check_symmetric(m)
    values, vectors = _signed_eigh(m)
    return SpectralDecomposition(eigenvalues=values, eigenvectors=vectors)


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
    return Graph(labels=tuple(labels), weights=w)


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
