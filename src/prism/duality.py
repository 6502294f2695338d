"""Involution validation, duality defect, and closed-form commutant projection.

The defect delta(L, P) = ||LP - PL||_F / ||L||_F measures how far L is from
commuting with a symmetric involution P. Projection onto the commutant of P
has the closed form L' = (L + PLP)/2: conjugation by an involution is itself
an involution on matrices, and averaging with the conjugate kills exactly the
anti-commuting part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFinite,
    NotInvolution,
    NotSymmetric,
    ParseError,
    ZeroMatrix,
)
from .graphs import _Adopted, _as_readonly, _dense_rows

INVOLUTION_TOL = 1e-9
ZERO_NORM_TOL = 1e-12
COMMUTATOR_ROWS = 64  # rows per gather block (_commutator, _gather_columns): 256 KB at n = 500


@dataclass(frozen=True, kw_only=True, eq=False)
class DualityOperator:
    """A validated symmetric involution with cached eigenspace dimensions.

    A permutation stores sigma only, P = I[sigma] (row i holds its 1 in column
    sigma[i]), and the kernels gather rows and columns of L instead of
    multiplying by P; any other involution stores only its dense matrix.
    .matrix is P either way, read-only; a permutation builds it on first read.
    Two operators are equal when they are of the same kind and store the
    same sigma, or the same dense matrix.
    """

    dim_plus: int
    dim_minus: int
    sigma: np.ndarray | None = field(default=None, repr=False)
    dense: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if (self.sigma is None) == (self.dense is None):
            raise TypeError("a DualityOperator stores exactly one of sigma and dense")
        if self.sigma is None:
            object.__setattr__(self, "dense", _as_readonly(self.dense))
        else:
            object.__setattr__(self, "sigma", _as_readonly(self.sigma, np.intp))

    @property
    def n(self) -> int:
        return (self.dense if self.sigma is None else self.sigma).shape[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        if self.sigma is None:
            return self.dense
        matrix = (self.sigma[:, None] == np.arange(self.n)).astype(float)
        matrix.setflags(write=False)
        return matrix

    def is_permutation(self) -> bool:
        return self.sigma is not None

    def _key(self) -> tuple:
        if self.sigma is None:
            return ("dense", self.n, (self.dense + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0
        return ("sigma", self.sigma.tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DualityOperator):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


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
    return DualityOperator(dim_plus=n - pairs, dim_minus=pairs, sigma=sigma)


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
    return DualityOperator(dim_plus=dim_plus, dim_minus=n - dim_plus, dense=m)


def identity_operator(n: int) -> DualityOperator:
    return permutation_operator(np.arange(n))


def _check_dims(l_matrix: np.ndarray, p: DualityOperator) -> tuple[np.ndarray, float]:
    """L as a float array and ||L||_F, after the shape and finiteness checks.

    A finite norm proves every entry finite, so the isfinite scan runs only
    when the norm is not finite (an infinite or NaN entry, or an overflow).
    """
    l_matrix = np.asarray(l_matrix, dtype=float)
    if l_matrix.shape != (p.n, p.n):
        raise DimensionMismatch(
            f"matrix shape {l_matrix.shape} does not match operator shape {(p.n, p.n)}"
        )
    norm = float(np.linalg.norm(l_matrix))
    if not math.isfinite(norm) and not np.all(np.isfinite(l_matrix)):
        raise NonFinite("matrix contains non-finite entries")
    return l_matrix, norm


# For a permutation, (LP)_ij = L[i, sigma_j], (PL)_ij = L[sigma_i, j] and
# (PLP)_ij = L[sigma_i, sigma_j]: the gathers are exact, and for finite L so is
# every product with a 0/1 matrix, so both routes give the same bits. The
# gathers build C-ordered arrays, because np.linalg.norm sums in memory order.
# The per-matrix API and the batched kernels share them: the kernels gather
# LP - PL one matrix at a time, and PLP on a whole stack sharing one operator.

def _commutator(
    l_matrix: np.ndarray, sigma: np.ndarray, pl: np.ndarray | None = None
) -> np.ndarray:
    """LP - PL for P = I[sigma], as a new array, the only n x n one made.

    PL is read from pl when the caller has gathered it already; otherwise it
    is gathered and subtracted COMMUTATOR_ROWS rows at a time.
    """
    commutator = np.take(l_matrix, sigma, axis=1)
    if pl is not None:
        commutator -= pl
        return commutator
    for start in range(0, len(sigma), COMMUTATOR_ROWS):
        rows = slice(start, start + COMMUTATOR_ROWS)
        commutator[rows] -= l_matrix[sigma[rows]]
    return commutator


def _gather_columns(m: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """m[..., sigma] in m's own buffer, COMMUTATOR_ROWS rows (of a stack, matrices) at a time.

    Returns m.
    """
    for start in range(0, m.shape[0], COMMUTATOR_ROWS):
        block = m[start:start + COMMUTATOR_ROWS]
        block[...] = np.take(block, sigma, axis=-1)
    return m


def _conjugate(l_matrix: np.ndarray, p: DualityOperator) -> np.ndarray:
    """PLP as a new array, for one matrix or a (..., n, n) stack sharing p.

    A permutation gathers the rows (PL), then the columns in that buffer
    (_gather_columns), so the only n x n array made is the result.
    """
    if p.sigma is None:
        return p.matrix @ l_matrix @ p.matrix
    return _gather_columns(np.take(l_matrix, p.sigma, axis=-2), p.sigma)


def _commutant_average(
    l_matrix: np.ndarray, conjugate: np.ndarray, near_overflow: bool = False
) -> np.ndarray:
    """(L + PLP) / 2 from PLP, symmetrised unless it is bitwise symmetric; works on stacks too.

    The average is taken in place on conjugate, and returned as it is when
    it equals its transpose bit for bit, as it does for every exactly
    symmetric L: symmetrising it would give the same bits, or an infinity
    where twice an entry overflows. The check reads uint64 views, so -0.0
    against 0.0 still counts as asymmetric and averages to 0.0. Anything
    else, a non-symmetric L or one asymmetric matrix of a stack, is
    symmetrised as a whole into a new array.

    near_overflow is for an L whose ||L||_F is not finite (_mean): a finite
    norm bounds every entry by sqrt(DBL_MAX), so no sum can overflow.
    """
    average = _mean(conjugate, l_matrix, conjugate, near_overflow)
    bits = average.view(np.uint64)
    if np.array_equal(bits, np.swapaxes(bits, -1, -2)):
        return average
    return _mean(average, np.swapaxes(average, -1, -2), None, near_overflow)


def _mean(a: np.ndarray, b: np.ndarray, out: np.ndarray | None, near_overflow: bool) -> np.ndarray:
    """(a + b) / 2, into out if given; with near_overflow, a / 2 + b / 2 wherever a + b overflows.

    Terms whose sum overflows are too large for halving to round, so a / 2
    + b / 2 is then the rounded mean; elsewhere it could lose the last bit
    of a subnormal term, so the plain form stays.
    """
    if not near_overflow:
        mean = np.add(a, b, out=out)
        mean /= 2.0
        return mean
    halves = a / 2.0
    halves += b / 2.0
    with np.errstate(over="ignore"):
        mean = np.add(a, b, out=out)
    mean /= 2.0
    np.copyto(mean, halves, where=np.isinf(mean))
    return mean


def _commutant_blocks(
    m: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The V+ and V- blocks of a (..., n, n) stack in the commutant of P = I[sigma].

    P's +1 eigenspace V+ has the pair sums (e_a + e_b)/sqrt2 (a < b = sigma[a],
    in order of a) and then the fixed points e_f; V- has the pair differences
    (e_a - e_b)/sqrt2. A matrix with m[sigma_i, sigma_j] == m[i, j] is
    block-diagonal in that basis, so its blocks are gathers of m: for pairs
    (a, b) and (c, d), plus = m[a, c] + m[a, d] and minus = m[a, c] - m[a, d];
    between pair (a, b) and fixed point f plus is sqrt2 * m[a, f], and
    between fixed points m[f, g]. The average (L + PLP)/2 and its symmetrised
    form have that symmetry bit for bit (the swap permutes the terms of each
    sum), so both blocks come out exactly symmetric.

    Returns plus (..., p + f, p + f), minus (..., p, p) and the lift back:
    a block vector y of sector s (0 for V+, 1 for V-) is the node vector
    y[..., rows[s]] * scales[s], unit norm for unit y (V- is 0 on fixed points).
    """
    n = sigma.shape[0]
    nodes = np.arange(n)
    heads = np.flatnonzero(nodes < sigma)
    tails = sigma[heads]
    fixed = np.flatnonzero(nodes == sigma)
    pairs = heads.size
    root2 = math.sqrt(2.0)
    across = m[..., heads[:, None], tails]
    within = m[..., heads[:, None], heads]
    minus = within - across
    plus = np.empty(m.shape[:-2] + (n - pairs, n - pairs))
    plus[..., :pairs, :pairs] = within + across
    plus[..., :pairs, pairs:] = root2 * m[..., heads[:, None], fixed]
    plus[..., pairs:, :pairs] = root2 * m[..., fixed[:, None], heads]
    plus[..., pairs:, pairs:] = m[..., fixed[:, None], fixed]
    rows = np.zeros((2, n), dtype=np.intp)
    scales = np.zeros((2, n))
    rows[:, heads] = rows[:, tails] = np.arange(pairs)
    rows[0, fixed] = pairs + np.arange(fixed.size)
    scales[:, heads] = scales[0, tails] = 1.0 / root2
    scales[1, tails] = -1.0 / root2
    scales[0, fixed] = 1.0
    return plus, minus, rows, scales


def commutator_norm(l_matrix: np.ndarray, p: DualityOperator) -> float:
    """||LP - PL||_F, the unnormalized numerator of the defect."""
    if p.sigma is None:
        return float(np.linalg.norm(l_matrix @ p.matrix - p.matrix @ l_matrix))
    return float(np.linalg.norm(_commutator(l_matrix, p.sigma)))


def duality_defect(l_matrix: np.ndarray, p: DualityOperator) -> float:
    """||LP - PL||_F / ||L||_F, in [0, 2]. Undefined (ZeroMatrix) for L = 0.

    Non-finite L raises NonFinite.
    """
    l_matrix, norm = _check_dims(l_matrix, p)
    return commutator_norm(l_matrix, p) / _nonzero_norm(norm)


def _defect_norm(l_matrix: np.ndarray) -> float:
    """||L||_F, raising ZeroMatrix where the defect ratio is undefined."""
    return _nonzero_norm(float(np.linalg.norm(l_matrix)))


def _nonzero_norm(norm: float) -> float:
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
    For a permutation it is also exactly 0.0 whenever ||L'||_F is finite,
    without building the commutator: L' has L'[sigma_i, sigma_j] ==
    L'[i, j] bit for bit (_commutant_blocks), so every entry L'[i, sigma_j]
    - L'[sigma_i, j] of L'P - PL' is x - x = 0.0. An overflowed norm keeps
    the computed ratio, which is NaN where L' holds an infinity.

    A permutation's projection makes two n x n arrays: the first holds PL,
    then PLP, then L' (_commutant_average keeps a bitwise symmetric average
    in place); the second holds LP - PL for defect_before, then L' - L for
    the deformation. Each value keeps the arithmetic of its own definition.
    """
    l_matrix, norm = _check_dims(l_matrix, p)
    if p.sigma is None:
        conjugate = _conjugate(l_matrix, p)
        commutator = l_matrix @ p.matrix - p.matrix @ l_matrix
    else:
        conjugate = np.take(l_matrix, p.sigma, axis=0)  # PL, read by the commutator, then PLP
        commutator = _commutator(l_matrix, p.sigma, conjugate)
        _gather_columns(conjugate, p.sigma)
    defect_before = 0.0 if norm <= ZERO_NORM_TOL else float(np.linalg.norm(commutator)) / norm
    projected = _commutant_average(l_matrix, conjugate, not math.isfinite(norm))
    # L' - L in the commutator's buffer, the only other n x n array made
    deformation = float(np.linalg.norm(np.subtract(projected, l_matrix, out=commutator)))
    del commutator, conjugate
    projected_norm = float(np.linalg.norm(projected))
    if projected_norm <= ZERO_NORM_TOL or (p.sigma is not None and math.isfinite(projected_norm)):
        defect_after = 0.0
    else:
        defect_after = commutator_norm(projected, p) / projected_norm
    return ProjectionResult(
        projected=_Adopted(projected),
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
