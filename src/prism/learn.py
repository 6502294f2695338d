"""Learning the duality operator from the graph itself.

Initialization pairs nodes by Fiedler-vector rank (rank k with rank n-1-k,
zero-based), which mirrors the graph across its softest cut. Refinement
alternates closed-form commutant projection with a penalized quasi-Newton
step over P, snapping back to the involution manifold after each step.

scipy.optimize is imported inside optimize_p_step, after its early return
for a pair that already commutes. alternate hands that step the projected L,
which commutes exactly with a permutation operator, so only a dense operator
(or a direct call on a pair that does not commute) loads scipy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .duality import (
    DualityOperator,
    _check_dims,
    commutant_projection,
    commutator_norm,
    duality_defect,
    operator_to_text,
    permutation_operator,
    validate_involution,
)
from .errors import NonFinite, ValidationError
from .graphs import (
    Graph,
    _Adopted,
    _as_readonly,
    _fiedler_rankings,
    _raise_first,
    _screen_symmetric,
    laplacian,
    require_fiedler_graph,
    symmetric_eig,
)


@dataclass(frozen=True)
class FiedlerPairing:
    """Involutive permutation from Fiedler-rank mirroring."""

    permutation: tuple[int, ...]
    fixed_point: int | None

    def __post_init__(self) -> None:
        permutation_operator(self.permutation)  # raises NotInvolution


@dataclass(frozen=True)
class AlternatingConfig:
    defect_tolerance: float = 1e-4
    step_tolerance: float = 1e-6
    max_outer_iterations: int = 50
    penalty_weight: float = 10.0
    inner_gradient_steps: int = 200
    inner_step_tolerance: float = 1e-8

    def __post_init__(self) -> None:
        if not all(v > 0.0 for v in (self.defect_tolerance, self.step_tolerance,
                                     self.penalty_weight, self.inner_step_tolerance)):
            raise ValidationError("tolerances and penalty weight must be positive")
        if self.max_outer_iterations < 1 or self.inner_gradient_steps < 1:
            raise ValidationError("iteration counts must be at least 1")


@dataclass(frozen=True)
class LearnResult:
    operator: DualityOperator
    projected: np.ndarray = field(repr=False)
    defect_trajectory: tuple[float, ...]
    converged: bool
    iterations: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "projected", _as_readonly(self.projected))


def _rank_pairings(fiedler: np.ndarray) -> np.ndarray:
    """Pair Fiedler rank k with rank n-1-k along the last axis; ties rank by index.

    The pairing is an involution for any ranking, so it needs no check.
    """
    order = np.argsort(fiedler, axis=-1, kind="stable")
    sigma = np.empty_like(order)
    np.put_along_axis(sigma, order, order[..., ::-1], axis=-1)
    return sigma


def fiedler_pairing(g: Graph) -> FiedlerPairing:
    """Pair the node of Fiedler rank k with the node of rank n-1-k.

    Ranks sort the Fiedler values ascending with ties broken by node index;
    for odd n the median-ranked node is its own partner. The pairing is that
    of fiedler_vector(g), with the same errors; the ranking comes from
    graphs._fiedler_rankings, which runs eigh only where its inverse
    iteration or Lanczos vector cannot prove the ranking (exact ties, such
    as twin nodes). The kernel may build its Cholesky input in lap's buffer.
    """
    require_fiedler_graph(g)
    lap = laplacian(g)
    _raise_first(_screen_symmetric, lap)
    sigma = _rank_pairings(_fiedler_rankings(lap[None], g.weights[None])[0])
    fixed = np.flatnonzero(sigma == np.arange(g.n))
    return FiedlerPairing(permutation=tuple(sigma.tolist()),
                          fixed_point=int(fixed[0]) if fixed.size else None)


def pairing_operator(pairing: FiedlerPairing) -> DualityOperator:
    return permutation_operator(pairing.permutation)


def fiedler_duality_operator(g: Graph) -> DualityOperator:
    return pairing_operator(fiedler_pairing(g))


def snap_to_involution(m: np.ndarray) -> DualityOperator:
    """Nearest symmetric involution: symmetrize, then snap eigenvalues to +-1.

    Zero eigenvalues snap to +1 so the result is always well defined.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise NonFinite("cannot snap a matrix with non-finite entries")
    sym = (m + m.T) / 2.0
    decomp = symmetric_eig(sym)
    signs = np.where(decomp.eigenvalues < 0.0, -1.0, 1.0)
    vectors = decomp.eigenvectors
    snapped = (vectors * signs) @ vectors.T
    snapped = (snapped + snapped.T) / 2.0
    return validate_involution(snapped)


def _objective_and_gradient(
    flat_p: np.ndarray, lp: np.ndarray, mu: float, n: int
) -> tuple[float, np.ndarray]:
    """f(P) = ||[Lp, P]||_F^2 + mu ||P^2 - I||_F^2 and its exact gradient.

    The gradient is taken at a general (possibly asymmetric) P so it matches
    elementwise finite differences; the optimizer then symmetrizes it.
    """
    p = flat_p.reshape(n, n)
    c = lp @ p - p @ lp
    b = p @ p - np.eye(n)
    value = float(np.sum(c * c) + mu * np.sum(b * b))
    grad = 2.0 * (lp @ c - c @ lp) + 2.0 * mu * (b @ p.T + p.T @ b)
    return value, grad.ravel()


def optimize_p_step(
    lp: np.ndarray, p0: DualityOperator, cfg: AlternatingConfig | None = None
) -> DualityOperator:
    """One penalized quasi-Newton descent over P followed by a snap to +-1.

    The result is kept only if it does not increase ||[Lp, P]||_F beyond a
    1e-9 slack; otherwise p0 is returned unchanged (monotone safeguard).
    """
    cfg = cfg or AlternatingConfig()
    lp = _check_dims(lp, p0)
    n = lp.shape[0]
    baseline = commutator_norm(lp, p0)
    if baseline == 0.0:
        return p0
    from scipy import optimize as _sciopt  # deferred: it dominates process start-up

    def fun(flat_p: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = _objective_and_gradient(flat_p, lp, cfg.penalty_weight, n)
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            raise NonFinite("objective or gradient overflowed during optimization")
        grad_matrix = grad.reshape(n, n)
        grad_matrix = (grad_matrix + grad_matrix.T) / 2.0  # restrict to symmetric P
        return value, grad_matrix.ravel()

    result = _sciopt.minimize(
        fun,
        p0.matrix.ravel(),
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": cfg.inner_gradient_steps,
            "ftol": cfg.inner_step_tolerance,
            "gtol": cfg.inner_step_tolerance,
        },
    )
    candidate = snap_to_involution(result.x.reshape(n, n))
    if commutator_norm(lp, candidate) <= baseline + 1e-9:
        return candidate
    return p0


def alternate(
    l_matrix: np.ndarray, p0: DualityOperator, cfg: AlternatingConfig | None = None
) -> LearnResult:
    """Alternate commutant projection and operator refinement.

    Records delta(L, P_t) per outer iteration against the original L and
    stops when the defect drops below defect_tolerance, the defect change
    drops below step_tolerance, or max_outer_iterations is exhausted.
    """
    cfg = cfg or AlternatingConfig()
    l_matrix = np.asarray(l_matrix, dtype=float)
    p = p0
    trajectory = [duality_defect(l_matrix, p)]
    converged = trajectory[0] < cfg.defect_tolerance
    iterations = 0
    projection, projected_against = None, None
    while not converged and iterations < cfg.max_outer_iterations:
        projection, projected_against = commutant_projection(l_matrix, p), p
        p = optimize_p_step(projection.projected, p, cfg)
        iterations += 1
        # an unchanged operator has the defect just recorded
        trajectory.append(trajectory[-1] if p is projected_against else duality_defect(l_matrix, p))
        if trajectory[-1] < cfg.defect_tolerance:
            converged = True
        elif abs(trajectory[-1] - trajectory[-2]) < cfg.step_tolerance:
            converged = True
    if projected_against is not p:
        projection = commutant_projection(l_matrix, p)
    return LearnResult(
        operator=p,
        projected=_Adopted(projection.projected),  # read-only, and the projection is dropped
        defect_trajectory=tuple(trajectory),
        converged=converged,
        iterations=iterations,
    )


def learn_result_to_json(result: LearnResult) -> str:
    doc = {
        "operator": operator_to_text(result.operator).splitlines(),
        "trajectory": list(result.defect_trajectory),
        "converged": result.converged,
        "iterations": result.iterations,
    }
    return json.dumps(doc, indent=2) + "\n"
