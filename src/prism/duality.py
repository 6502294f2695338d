"""Involution validation, duality defect, and closed-form commutant projection.

The defect delta(L, P) = ||LP - PL||_F / ||L||_F measures how far L is from
commuting with a symmetric involution P. Projection onto the commutant of P
has the closed form L' = (L + PLP)/2: conjugation by an involution is itself
an involution on matrices, and averaging with the conjugate kills exactly the
anti-commuting part.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFinite,
    NotInvolution,
    NotSymmetric,
    ParseError,
    ZeroMatrix,
)
from .graphs import _as_readonly, _dense_rows

INVOLUTION_TOL = 1e-9
ZERO_NORM_TOL = 1e-12


@dataclass(frozen=True)
class DualityOperator:
    """A validated symmetric involution with cached eigenspace dimensions.

    sigma is set when the operator is a permutation, P = I[sigma] (row i holds
    its 1 in column sigma[i]); the kernels then gather rows and columns of L
    instead of multiplying by P.
    """

    matrix: np.ndarray = field(repr=False)
    dim_plus: int
    dim_minus: int
    sigma: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _as_readonly(self.matrix))
        if self.sigma is not None:
            sigma = np.array(self.sigma, dtype=np.intp)
            sigma.setflags(write=False)
            object.__setattr__(self, "sigma", sigma)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def is_permutation(self) -> bool:
        return self.sigma is not None


def permutation_operator(sigma) -> DualityOperator:
    """The operator P = I[sigma] of an involutive permutation, checked in O(n).

    sigma must be a 1-D integer array of indices in range with sigma[sigma]
    the identity. dim V+ counts the fixed points plus one per swapped pair.
    """
    sigma = np.asarray(sigma)
    if sigma.ndim != 1 or (sigma.size and sigma.dtype.kind not in "iu"):
        raise NotInvolution(f"expected a 1-D integer index array, got {sigma.dtype} {sigma.shape}")
    n = sigma.shape[0]
    if np.any((sigma < 0) | (sigma >= n)):
        raise NotInvolution(f"permutation index out of range for n = {n}")
    identity = np.arange(n)
    if not np.array_equal(sigma[sigma], identity):
        raise NotInvolution("permutation is not an involution: sigma[sigma] != identity")
    pairs = int(np.count_nonzero(sigma != identity)) // 2
    matrix = np.zeros((n, n))
    matrix[identity, sigma] = 1.0
    return DualityOperator(matrix=matrix, dim_plus=n - pairs, dim_minus=pairs, sigma=sigma)


def _as_permutation(m: np.ndarray) -> np.ndarray | None:
    """sigma with m == I[sigma], or None unless m is exactly a 0/1 permutation matrix."""
    if not np.all((m == 0.0) | (m == 1.0)):
        return None
    if not (np.all(m.sum(axis=0) == 1.0) and np.all(m.sum(axis=1) == 1.0)):
        return None
    return np.argmax(m, axis=1)


def validate_involution(m: np.ndarray) -> DualityOperator:
    """Check P = P^T and P^2 = I within 1e-9 and cache dim V+ / dim V-.

    An exact 0/1 permutation matrix comes back as a permutation operator.
    Otherwise the eigenvalues are +-1 within tolerance, so dim V+ is
    (n + tr P) / 2 rounded.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFinite("operator contains non-finite entries")
    if np.linalg.norm(m - m.T) > INVOLUTION_TOL:
        raise NotSymmetric("operator is not symmetric: ||P - P^T||_F exceeds 1e-9")
    sigma = _as_permutation(m)
    if sigma is not None:
        return permutation_operator(sigma)  # symmetric, so sigma[sigma] = id
    n = m.shape[0]
    residual = float(np.linalg.norm(m @ m - np.eye(n)))
    if residual > INVOLUTION_TOL:
        raise NotInvolution(f"operator is not an involution: ||P^2 - I||_F = {residual:.3e}")
    dim_plus = round((n + float(np.trace(m))) / 2.0)
    return DualityOperator(matrix=m, dim_plus=dim_plus, dim_minus=n - dim_plus)


def identity_operator(n: int) -> DualityOperator:
    return permutation_operator(np.arange(n))


def _check_dims(l_matrix: np.ndarray, p: DualityOperator) -> np.ndarray:
    l_matrix = np.asarray(l_matrix, dtype=float)
    if l_matrix.shape != p.matrix.shape:
        raise DimensionMismatch(
            f"matrix shape {l_matrix.shape} does not match operator shape {p.matrix.shape}"
        )
    if not np.all(np.isfinite(l_matrix)):
        raise NonFinite("matrix contains non-finite entries")
    return l_matrix


# For a permutation, (LP)_ij = L[i, sigma_j], (PL)_ij = L[sigma_i, j] and
# (PLP)_ij = L[sigma_i, sigma_j]: the gathers are exact, and for finite L so is
# every product with a 0/1 matrix, so both routes give the same bits. The
# gathers build C-ordered arrays, because np.linalg.norm sums in memory order.
# The per-matrix API and the batched kernels share them: the kernels gather
# LP - PL one matrix at a time, and PLP on a whole stack sharing one operator.

def _commutator(l_matrix: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """LP - PL for P = I[sigma], as a new array."""
    commutator = np.take(l_matrix, sigma, axis=1)
    commutator -= l_matrix[sigma]
    return commutator


def _conjugate(l_matrix: np.ndarray, p: DualityOperator) -> np.ndarray:
    """PLP as a new array, for one matrix or a (..., n, n) stack sharing p."""
    if p.sigma is None:
        return p.matrix @ l_matrix @ p.matrix
    # a stack's gather comes out stack axis innermost, which slows every later step
    return np.ascontiguousarray(l_matrix[..., p.sigma[:, None], p.sigma])


def _commutant_average(l_matrix: np.ndarray, conjugate: np.ndarray) -> np.ndarray:
    """(L + PLP) / 2, symmetrised, from PLP; works on stacks too.

    Updated in place on conjugate: every extra n x n temporary adds to peak
    memory at large n.
    """
    conjugate += l_matrix
    conjugate /= 2.0
    projected = conjugate + np.swapaxes(conjugate, -1, -2)
    projected /= 2.0
    return projected


def commutator_norm(l_matrix: np.ndarray, p: DualityOperator) -> float:
    """||LP - PL||_F, the unnormalized numerator of the defect."""
    if p.sigma is None:
        return float(np.linalg.norm(l_matrix @ p.matrix - p.matrix @ l_matrix))
    return float(np.linalg.norm(_commutator(l_matrix, p.sigma)))


def duality_defect(l_matrix: np.ndarray, p: DualityOperator) -> float:
    """||LP - PL||_F / ||L||_F, in [0, 2]. Undefined (ZeroMatrix) for L = 0.

    Non-finite L raises NonFinite.
    """
    l_matrix = _check_dims(l_matrix, p)
    norm = _defect_norm(l_matrix)
    return commutator_norm(l_matrix, p) / norm


def _defect_norm(l_matrix: np.ndarray) -> float:
    """||L||_F, raising ZeroMatrix where the defect ratio is undefined."""
    norm = float(np.linalg.norm(l_matrix))
    if norm <= ZERO_NORM_TOL:
        raise ZeroMatrix("duality defect is undefined for a zero matrix")
    return norm


@dataclass(frozen=True)
class ProjectionResult:
    """Projected Laplacian plus the defect and deformation bookkeeping."""

    projected: np.ndarray = field(repr=False)
    defect_before: float
    defect_after: float
    deformation: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "projected", _as_readonly(self.projected))


def commutant_projection(l_matrix: np.ndarray, p: DualityOperator) -> ProjectionResult:
    """Nearest (Frobenius) matrix to L that commutes with P: L' = (L + PLP)/2.

    defect_after is 0.0 when the projection itself is numerically zero; a
    zero matrix commutes with everything, but the defect ratio is undefined.
    """
    l_matrix = _check_dims(l_matrix, p)
    projected = _commutant_average(l_matrix, _conjugate(l_matrix, p))
    norm = float(np.linalg.norm(l_matrix))
    if norm <= ZERO_NORM_TOL:
        defect_before = 0.0
    else:
        defect_before = commutator_norm(l_matrix, p) / norm
    projected_norm = float(np.linalg.norm(projected))
    if projected_norm <= ZERO_NORM_TOL:
        defect_after = 0.0
    else:
        defect_after = commutator_norm(projected, p) / projected_norm
    deformation = float(np.linalg.norm(projected - l_matrix))
    return ProjectionResult(
        projected=projected,
        defect_before=defect_before,
        defect_after=defect_after,
        deformation=deformation,
    )


# Serialization. Permutation involutions use a compact pairing list (each
# pair once, fixed points as i<TAB>i); anything else is a dense matrix. The
# first line disambiguates the two, since a small dense matrix would
# otherwise be indistinguishable from a pairing list.

def operator_to_text(p: DualityOperator) -> str:
    n = p.n
    if p.is_permutation():
        sigma = p.sigma
        lines = [f"#pairing n: {n}"]
        for i in range(n):
            j = int(sigma[i])
            if i <= j:
                lines.append(f"{i}\t{j}")
        return "\n".join(lines) + "\n"
    lines = [f"#dense n: {n}"]
    for row in p.matrix:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def operator_from_text(text: str) -> DualityOperator:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty operator file")
    header = lines[0]
    if header.startswith("#pairing n: "):
        try:
            n = int(header[len("#pairing n: "):])
        except ValueError:
            raise ParseError("bad node count in pairing header") from None
        sigma = [-1] * n
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'i\\tj'")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad index") from None
            if not (0 <= i < n and 0 <= j < n):
                raise ParseError(f"line {lineno}: index out of range")
            for k in (i, j):
                if sigma[k] not in (-1, (j if k == i else i)):
                    raise ParseError(f"line {lineno}: node {k} paired twice")
            sigma[i] = j
            sigma[j] = i
        if any(s < 0 for s in sigma):
            missing = next(k for k, s in enumerate(sigma) if s < 0)
            raise ParseError(f"pairing incomplete: node {missing} unassigned")
        return permutation_operator(sigma)
    if header.startswith("#dense n: "):
        try:
            n = int(header[len("#dense n: "):])
        except ValueError:
            raise ParseError("bad node count in dense header") from None
        return validate_involution(_dense_rows(lines[1:], n))
    raise ParseError("expected '#pairing n: N' or '#dense n: N' header")


def save_operator(p: DualityOperator, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(operator_to_text(p))


def load_operator(path) -> DualityOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return operator_from_text(fh.read())
