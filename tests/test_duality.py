"""Involution validation, duality defect, and commutant projection."""

import math

import numpy as np
import pytest

from oracles import (
    dense_defect,
    dense_involution_dims,
    dense_projection,
    eigenbasis_projection,
    random_involution,
)
from prism.duality import (
    DualityOperator,
    _commutator,
    _conjugate,
    commutant_projection,
    duality_defect,
    identity_operator,
    load_operator,
    operator_from_text,
    operator_to_text,
    permutation_operator,
    save_operator,
    validate_involution,
)
from prism.errors import (
    DimensionMismatch,
    NonFinite,
    NotInvolution,
    NotSymmetric,
    ParseError,
    ZeroMatrix,
)
from prism.benchmarks import index_reversal_operator
from prism.graphs import Graph, graph_from_edges, laplacian

PATH3 = laplacian(graph_from_edges(["a", "b", "c"], [(0, 1), (1, 2)]))
SWAP01 = validate_involution(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))


def random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


def random_sigma(rng, n, fixed):
    """A random involutive permutation of n indices with `fixed` fixed points."""
    order = rng.permutation(n)
    sigma = np.arange(n)
    pairs = order[fixed:].reshape(-1, 2)
    sigma[pairs[:, 0]] = pairs[:, 1]
    sigma[pairs[:, 1]] = pairs[:, 0]
    return sigma


def test_validate_involution_accepts_pairing():
    op = SWAP01
    assert op.n == 3
    assert op.dim_plus == 2 and op.dim_minus == 1
    assert op.is_permutation()


def test_validate_involution_accepts_reflection():
    v = np.array([3.0, 4.0]) / 5.0
    op = validate_involution(np.eye(2) - 2.0 * np.outer(v, v))
    assert op.dim_plus == 1 and op.dim_minus == 1
    assert not op.is_permutation()


def test_validate_involution_rejections():
    with pytest.raises(NotSymmetric):
        validate_involution(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NotInvolution):
        validate_involution(0.5 * np.eye(3))
    with pytest.raises(DimensionMismatch):
        validate_involution(np.zeros((2, 3)))
    with pytest.raises(NonFinite):
        validate_involution(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_identity_operator_commutes_with_everything():
    op = identity_operator(3)
    assert op.dim_plus == 3 and op.dim_minus == 0
    assert duality_defect(PATH3, op) == 0.0


def test_defect_of_path_against_endpoint_swap():
    # ||LP - PL||_F^2 = 6 and ||L||_F^2 = 10 for the 3-path, by hand
    delta = duality_defect(PATH3, SWAP01)
    assert delta == pytest.approx(math.sqrt(0.6), abs=1e-15)
    assert delta == pytest.approx(0.7745966692414833, abs=1e-15)


def test_defect_zero_for_reversal_symmetric_path():
    reversal = validate_involution(np.fliplr(np.eye(3)))
    assert duality_defect(PATH3, reversal) == 0.0


def test_defect_bounds_and_scale_invariance():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        l_matrix = random_symmetric(rng, n)
        op = validate_involution(random_involution(rng, n, "pairing"))
        delta = duality_defect(l_matrix, op)
        assert 0.0 <= delta <= 2.0
        assert duality_defect(4.0 * l_matrix, op) == pytest.approx(delta, abs=1e-12)


def test_defect_rejects_zero_matrix_and_bad_shapes():
    with pytest.raises(ZeroMatrix):
        duality_defect(np.zeros((3, 3)), SWAP01)
    with pytest.raises(DimensionMismatch):
        duality_defect(np.eye(2), SWAP01)


def test_projection_of_path_against_endpoint_swap():
    expected = np.array([
        [1.5, -1.0, -0.5],
        [-1.0, 1.5, -0.5],
        [-0.5, -0.5, 1.0],
    ])
    result = commutant_projection(PATH3, SWAP01)
    assert np.allclose(result.projected, expected, atol=1e-15)
    assert result.deformation == pytest.approx(math.sqrt(1.5), abs=1e-15)
    assert result.deformation == pytest.approx(1.224744871391589, abs=1e-15)
    assert result.defect_before == pytest.approx(math.sqrt(0.6), abs=1e-15)
    assert result.defect_after <= 1e-12


def test_projection_matches_eigenbasis_oracle():
    rng = np.random.default_rng(7)
    kinds = ("pairing", "reflection", "dense")
    for trial in range(60):
        n = int(rng.integers(2, 16))
        l_matrix = random_symmetric(rng, n)
        op = validate_involution(random_involution(rng, n, kinds[trial % 3]))
        produced = commutant_projection(l_matrix, op).projected
        oracle = eigenbasis_projection(l_matrix, op.matrix)
        assert np.linalg.norm(produced - oracle) <= 1e-8


def test_projection_is_idempotent():
    rng = np.random.default_rng(13)
    l_matrix = random_symmetric(rng, 8)
    op = validate_involution(random_involution(rng, 8, "reflection"))
    once = commutant_projection(l_matrix, op)
    twice = commutant_projection(once.projected, op)
    assert np.allclose(twice.projected, once.projected, atol=1e-13)
    assert twice.deformation <= 1e-13


def test_projection_is_linear():
    rng = np.random.default_rng(17)
    a = random_symmetric(rng, 6)
    b = random_symmetric(rng, 6)
    op = validate_involution(random_involution(rng, 6, "pairing"))
    combined = commutant_projection(2.0 * a - 3.0 * b, op).projected
    separate = (
        2.0 * commutant_projection(a, op).projected
        - 3.0 * commutant_projection(b, op).projected
    )
    assert np.allclose(combined, separate, atol=1e-12)


def test_projection_pythagoras_and_commutator_identity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 16))
        l_matrix = random_symmetric(rng, n)
        op = validate_involution(random_involution(rng, n, "dense"))
        result = commutant_projection(l_matrix, op)
        norm_sq = np.linalg.norm(l_matrix) ** 2
        parts = np.linalg.norm(result.projected) ** 2 + result.deformation**2
        assert parts == pytest.approx(norm_sq, rel=1e-9)
        commutator = np.linalg.norm(l_matrix @ op.matrix - op.matrix @ l_matrix)
        assert commutator == pytest.approx(2.0 * result.deformation, abs=1e-9)


def test_projection_of_anticommuting_matrix_is_zero():
    op = validate_involution(np.diag([1.0, -1.0]))
    l_matrix = np.array([[0.0, 1.0], [1.0, 0.0]])  # P L P = -L exactly
    result = commutant_projection(l_matrix, op)
    assert np.array_equal(result.projected, np.zeros((2, 2)))
    assert result.defect_after == 0.0
    assert result.deformation == pytest.approx(np.linalg.norm(l_matrix), abs=1e-15)


def test_pairing_operator_text_round_trip():
    text = operator_to_text(SWAP01)
    assert text.startswith("#pairing n: 3")
    back = operator_from_text(text)
    assert np.array_equal(back.matrix, SWAP01.matrix)


def test_dense_operator_text_round_trip():
    rng = np.random.default_rng(29)
    op = validate_involution(random_involution(rng, 5, "reflection"))
    text = operator_to_text(op)
    assert text.startswith("#dense n: 5")
    back = operator_from_text(text)
    assert np.array_equal(back.matrix, op.matrix)  # repr round-trips floats exactly


def test_operator_text_parse_errors():
    with pytest.raises(ParseError, match="empty"):
        operator_from_text("\n")
    with pytest.raises(ParseError, match="header"):
        operator_from_text("0\t1\n")
    with pytest.raises(ParseError, match="unassigned"):
        operator_from_text("#pairing n: 3\n0\t1\n")
    with pytest.raises(ParseError, match="out of range"):
        operator_from_text("#pairing n: 2\n0\t5\n")
    with pytest.raises(ParseError, match="paired twice"):
        operator_from_text("#pairing n: 3\n0\t1\n0\t2\n")
    with pytest.raises(ParseError, match="expected 2 entries"):
        operator_from_text("#dense n: 2\n1.0\n0.0 1.0\n")
    with pytest.raises(NotInvolution):
        operator_from_text("#dense n: 2\n0.5 0.0\n0.0 0.5\n")


def test_save_load_operator(tmp_path):
    path = tmp_path / "op.txt"
    save_operator(SWAP01, path)
    assert np.array_equal(load_operator(path).matrix, SWAP01.matrix)


def test_operator_matrix_is_immutable():
    with pytest.raises(ValueError):
        SWAP01.matrix[0, 0] = 9.0


def test_operator_dataclass_does_not_revalidate():
    # the dataclass itself only freezes; validate_involution is the gate
    op = DualityOperator(matrix=np.eye(2), dim_plus=2, dim_minus=0)
    assert op.n == 2


@pytest.mark.parametrize("n", [1, 2, 3, 34, 501])
def test_permutation_kernels_match_the_dense_formulas_bitwise(n):
    rng = np.random.default_rng(1000 + n)
    weights = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.3), 1)
    candidates = [
        laplacian(Graph(labels=tuple(map(str, range(n))), weights=weights + weights.T)),
        random_symmetric(rng, n),
        rng.standard_normal((n, n)),  # asymmetric
    ]
    matrices = [m for m in candidates if np.linalg.norm(m) > 0.0]
    fixed_counts = {n % 2, n} | ({n % 2 + 2} if n >= 3 else set())
    for fixed in sorted(fixed_counts):
        sigma = random_sigma(rng, n, fixed)
        dense = np.zeros((n, n))
        dense[np.arange(n), sigma] = 1.0
        op = permutation_operator(sigma)
        assert np.array_equal(op.matrix, dense)
        assert (op.dim_plus, op.dim_minus) == dense_involution_dims(dense)
        validated = validate_involution(dense)
        assert np.array_equal(validated.sigma, sigma)
        assert (validated.dim_plus, validated.dim_minus) == (op.dim_plus, op.dim_minus)
        for l_matrix in matrices:
            assert duality_defect(l_matrix, op) == dense_defect(l_matrix, dense)
            result = commutant_projection(l_matrix, op)
            projected, before, after, deformation = dense_projection(l_matrix, dense)
            assert result.projected.tobytes() == projected.tobytes()
            assert result.defect_before == before
            assert result.defect_after == after
            assert result.deformation == deformation


@pytest.mark.parametrize("n", [1, 2, 5, 34])
def test_stacked_gathers_match_the_dense_products_bitwise(n):
    # each matrix with its own sigma, and one operator shared by the whole stack
    rng = np.random.default_rng(2000 + n)
    stack = np.stack([random_symmetric(rng, n) for _ in range(5)] + [rng.standard_normal((n, n))])
    sigmas = np.stack([random_sigma(rng, n, fixed) for fixed in (n % 2, n, n % 2) * 2])
    shared = permutation_operator(sigmas[0])
    shared_conjugates = _conjugate(stack, shared)
    assert shared_conjugates.shape == stack.shape and shared_conjugates.flags.c_contiguous
    for b, l_matrix in enumerate(stack):
        dense = np.zeros((n, n))
        dense[np.arange(n), sigmas[b]] = 1.0
        commutator = _commutator(l_matrix, sigmas[b])
        assert commutator.flags.c_contiguous
        assert commutator.tobytes() == (l_matrix @ dense - dense @ l_matrix).tobytes()
        conjugate = _conjugate(l_matrix, permutation_operator(sigmas[b]))
        assert conjugate.flags.c_contiguous
        assert conjugate.tobytes() == (dense @ l_matrix @ dense).tobytes()
        expected = shared.matrix @ l_matrix @ shared.matrix
        assert shared_conjugates[b].tobytes() == expected.tobytes()
    assert _conjugate(np.zeros((0, n, n)), shared).shape == (0, n, n)


def test_dense_involution_dims_match_the_eigenvalue_count():
    rng = np.random.default_rng(31)
    for trial in range(30):
        n = int(rng.integers(1, 40))
        m = random_involution(rng, n, ("reflection", "dense")[trial % 2])
        op = validate_involution(m)
        assert op.sigma is None
        assert (op.dim_plus, op.dim_minus) == dense_involution_dims(m)


def test_permutation_operator_rejections():
    for bad in ([1, 2, 0], [0, 3, 2], [0, -1, 2], [0, 0, 2], [[0, 1], [1, 0]], [0.0, 1.0]):
        with pytest.raises(NotInvolution):
            permutation_operator(np.array(bad))


def test_dense_permutation_file_serializes_as_pairing():
    text = "#dense n: 3\n0.0 1.0 0.0\n1.0 0.0 0.0\n0.0 0.0 1.0\n"
    op = operator_from_text(text)
    assert np.array_equal(op.sigma, [1, 0, 2])
    assert operator_to_text(op) == operator_to_text(SWAP01) == "#pairing n: 3\n0\t1\n2\t2\n"


def test_non_finite_matrix_raises():
    for value in (np.inf, -np.inf, np.nan):
        l_matrix = PATH3.copy()
        l_matrix[0, 0] = value
        for op in (index_reversal_operator(3), validate_involution(np.diag([1.0, -1.0, 1.0]))):
            with pytest.raises(NonFinite):
                duality_defect(l_matrix, op)
            with pytest.raises(NonFinite):
                commutant_projection(l_matrix, op)
