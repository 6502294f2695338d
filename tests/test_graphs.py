"""Graph type, Laplacian, deterministic eigendecomposition, and text formats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    check_symmetric,
    check_weights,
    column_loop_eig,
    stack_walk_components,
    two_pass_laplacians,
)
from prism import duality, graphs, learn
from prism.benchmarks import (
    fiedler_bipartition,
    flip_edges,
    generate_dual_network,
    karate_club,
    rewire,
    rmt_labels,
)
from prism.duality import (
    ProjectionResult,
    commutant_projection,
    operator_from_text,
    permutation_operator,
)
from prism.errors import (
    DisconnectedGraph,
    NonFinite,
    NotSymmetric,
    ParseError,
    TooSmall,
    ValidationError,
)
from prism.graphs import (
    SYMMETRY_RTOL,
    Graph,
    SpectralDecomposition,
    _laplacians,
    _reach,
    _screen_symmetric,
    _screen_weights,
    _signed_eigh,
    connected_components,
    fiedler_vector,
    graph_from_edges,
    graph_from_text,
    graph_to_text,
    is_connected,
    laplacian,
    load_graph,
    matrix_from_text,
    matrix_to_text,
    save_graph,
    symmetric_eig,
)
from prism.learn import LearnResult, alternate, fiedler_duality_operator


def path_graph(n):
    return graph_from_edges([f"n{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def random_graph(n, seed, density=0.5):
    rng = np.random.default_rng(seed)
    w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < density), 1)
    w = w + w.T
    return Graph(labels=tuple(f"n{i}" for i in range(n)), weights=w)


def test_graph_rejects_asymmetric_weights():
    w = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(NotSymmetric):
        Graph(labels=("a", "b"), weights=w)


def test_graph_rejects_negative_weight():
    w = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError):
        Graph(labels=("a", "b"), weights=w)


def test_graph_rejects_nonzero_diagonal():
    w = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValidationError):
        Graph(labels=("a", "b"), weights=w)


def test_graph_rejects_label_shape_mismatch():
    with pytest.raises(ValidationError):
        Graph(labels=("a", "b", "c"), weights=np.zeros((2, 2)))


def test_graph_rejects_nonfinite():
    w = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(NonFinite):
        Graph(labels=("a", "b"), weights=w)


def test_graph_weights_are_immutable():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.weights[0, 1] = 5.0


def test_graph_from_edges_builds_symmetric_weights():
    g = graph_from_edges(["a", "b", "c"], [(0, 1), (1, 2, 2.5)])
    assert g.weights[0, 1] == 1.0 and g.weights[1, 0] == 1.0
    assert g.weights[1, 2] == 2.5 and g.weights[2, 1] == 2.5
    assert g.edge_count() == 2
    assert g.edges() == [(0, 1, 1.0), (1, 2, 2.5)]


def test_graph_from_edges_rejects_self_loop():
    with pytest.raises(ValidationError):
        graph_from_edges(["a", "b"], [(1, 1)])


def test_subgraph_keeps_labels_and_weights():
    g = random_graph(6, seed=4)
    sub = g.subgraph([0, 2, 5])
    assert sub.labels == ("n0", "n2", "n5")
    assert sub.weights[0, 1] == g.weights[0, 2]
    assert sub.weights[1, 2] == g.weights[2, 5]


def test_laplacian_rows_sum_to_zero():
    g = random_graph(12, seed=7)
    lap = laplacian(g)
    # the diagonal accumulates each row in one order, the row sum in another,
    # so float weights leave a one-ulp residue; unit weights cancel exactly
    assert np.all(np.abs(lap.sum(axis=1)) <= 1e-12)
    assert np.array_equal(lap, lap.T)
    assert np.all(np.diag(lap) == g.weights.sum(axis=1))
    unit = graph_from_edges(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert np.all(laplacian(unit).sum(axis=1) == 0.0)


@pytest.mark.parametrize("n", [2, 5, 34, 500])
def test_laplacians_match_the_two_pass_build_bitwise(n):
    # signed zeros off and on the diagonal, an empty row of -0.0 and a nonzero diagonal
    # entry: 0 - w keeps the off-diagonal +0.0 of the two-pass build, and adding the
    # degree to -w_ii gives the bits of subtracting w_ii from it
    rng = np.random.default_rng(n)
    w = np.triu(rng.random((3, n, n)) * (rng.random((3, n, n)) < 0.3), 1)
    w = w + w.transpose(0, 2, 1)
    w[(w == 0.0) & (rng.random(w.shape) < 0.5)] = -0.0
    w[1, 1, 1] = 0.5
    w[2, 0, :] = w[2, :, 0] = -0.0
    produced, expected = _laplacians(w), two_pass_laplacians(w)
    assert produced.tobytes() == expected.tobytes()
    off_diagonal_zeros = (w == 0.0) & ~np.eye(n, dtype=bool)
    assert not np.signbit(produced[off_diagonal_zeros]).any()


def test_laplacian_of_the_mirror_graph_matches_the_two_pass_build_bitwise():
    mirror = rewire(generate_dual_network(250, 0.4, 0.1, 7).graph, 0.02, 7).weights[None]
    assert _laplacians(mirror).tobytes() == two_pass_laplacians(mirror).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3), n=st.integers(1, 12),
       exponent=st.integers(-300, 307), signed_zeros=st.booleans())
def test_a_laplacian_of_graph_weights_is_its_own_symmetrised_average(
        seed, count, n, exponent, signed_zeros):
    # why the Fiedler kernel and eigh may skip (L + L^T) / 2: it has L's bits
    rng = np.random.default_rng(seed)
    w = random_weight_stack(rng, count, n) * 10.0 ** exponent
    if signed_zeros:
        w[(w == 0.0) & (rng.random(w.shape) < 0.5)] = -0.0  # still exactly symmetric
    lap = _laplacians(w)
    with np.errstate(over="ignore"):
        average = (lap + lap.transpose(0, 2, 1)) / 2.0
        doubled_finite = np.isfinite(2.0 * lap).all()
    if doubled_finite:
        assert average.tobytes() == lap.tobytes()


def test_connected_components_two_triangles():
    g = graph_from_edges(
        [str(i) for i in range(6)], [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    assert connected_components(g) == [[0, 1, 2], [3, 4, 5]]
    assert not is_connected(g)
    assert is_connected(path_graph(5))


def _component_cases():
    yield "empty", Graph(labels=(), weights=np.zeros((0, 0)))
    yield "one node", path_graph(1)
    yield "two isolated", Graph(labels=("a", "b"), weights=np.zeros((2, 2)))
    yield "one edge", path_graph(2)
    isolated = np.zeros((7, 7))
    isolated[1, 5] = isolated[5, 1] = 0.5
    isolated[5, 3] = isolated[3, 5] = 2.0
    yield "isolated nodes", Graph(labels=tuple("abcdefg"), weights=isolated)
    for n in (3, 9, 17, 40):
        for density in (0.0, 0.03, 0.08, 0.2, 0.6):
            for seed in range(4):
                yield f"random n={n} d={density} s={seed}", random_graph(n, seed, density)
    yield "karate", karate_club()[0]
    mirror = generate_dual_network(250, seed=3).graph
    yield "rewired mirror", rewire(mirror, 0.05, seed=3)


def test_connected_components_match_the_stack_walk():
    """Same components, same order (by smallest node), same node order within each."""
    disconnected = 0
    for name, g in _component_cases():
        expected = stack_walk_components(np.asarray(g.weights))
        assert connected_components(g) == expected, name
        assert is_connected(g) == (g.n == 0 or len(expected[0]) == g.n), name
        disconnected += len(expected) > 1
    assert disconnected >= 20  # the random cases do reach several components


def test_symmetric_eig_reconstructs_and_orders():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((9, 9))
    m = (m + m.T) / 2.0
    decomp = symmetric_eig(m)
    values, vectors = decomp.eigenvalues, decomp.eigenvectors
    assert np.all(np.diff(values) >= 0.0)
    assert np.allclose(vectors.T @ vectors, np.eye(9), atol=1e-12)
    assert np.allclose((vectors * values) @ vectors.T, m, atol=1e-8)


def test_symmetric_eig_sign_convention():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((7, 7))
    m = (m + m.T) / 2.0
    vectors = symmetric_eig(m).eigenvectors
    for k in range(7):
        col = vectors[:, k]
        assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_symmetric_eig_tie_break_goes_to_first_index():
    # eigenvector of [[0,-1],[-1,0]] for eigenvalue +1 is +-(1,-1)/sqrt(2);
    # both entries tie in magnitude, so the first one must come out positive
    m = np.array([[0.0, -1.0], [-1.0, 0.0]])
    vectors = symmetric_eig(m).eigenvectors
    assert vectors[0, 1] > 0.0 and vectors[1, 1] < 0.0


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 34, 200])
def test_symmetric_eig_matches_the_column_loop_bitwise(n):
    rng = np.random.default_rng(n)
    for _ in range(3):
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2.0
        values, vectors = column_loop_eig(m)
        decomp = symmetric_eig(m)
        assert same_bits(decomp.eigenvalues, values)
        assert same_bits(decomp.eigenvectors, vectors)
    lap = laplacian(random_graph(n, seed=n))
    assert same_bits(symmetric_eig(lap).eigenvectors, column_loop_eig(lap)[1])


def test_symmetric_eig_sign_rule_on_exactly_tied_columns(monkeypatch):
    # LAPACK rarely returns exact ties, so hand symmetric_eig a basis that has
    # them: every entry of the first three columns has magnitude 1/2, and the
    # last column's first maximum (index 1) is negative
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    basis = hadamard * np.array([-1.0, 1.0, -1.0, 1.0])
    basis[:, 3] = [0.25, -0.5, 0.5, 0.0]
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (np.arange(4.0), basis.copy()))
    vectors = symmetric_eig(np.eye(4)).eigenvectors
    assert same_bits(vectors, column_loop_eig(np.eye(4))[1])
    assert np.all(vectors[0, :3] > 0.0)
    assert vectors[1, 3] == 0.5 and np.signbit(vectors[3, 3])  # 0.0 negates to -0.0


def test_symmetric_eig_decomposes_the_average_of_a_matrix_not_bitwise_symmetric():
    lap = laplacian(rewire(generate_dual_network(20, 0.4, 0.1, 7).graph, 0.1, 7))
    edge = np.flatnonzero(lap[0, 1:])[0] + 1
    gap = np.flatnonzero(lap[0, 1:] == 0.0)[0] + 1
    # an entry an ulp or 1e-12 off its mirror, or a -0.0 facing a +0.0, in either
    # triangle (eigh reads only the lower one)
    skews = ((edge, np.nextafter(lap[0, edge], 0.0)), (edge, lap[0, edge] * (1.0 + 1e-12)),
             (gap, -0.0))
    for column, value in skews:
        for entry in ((0, column), (column, 0)):
            skewed = lap.copy()
            skewed[entry] = value
            decomp = symmetric_eig(skewed)
            values, vectors = column_loop_eig(skewed)  # eigh of (m + m^T) / 2
            assert same_bits(decomp.eigenvalues, values)
            assert same_bits(decomp.eigenvectors, vectors)


def test_a_laplacian_whose_double_overflows_keeps_its_fiedler_vector():
    # a star whose centre has degree 9e307: (L + L^T) / 2 overflows, the spectrum
    # 0, 4.5e307, 1.35e308 does not
    g = graph_from_edges(list("abc"), [(0, 1, 4.5e307), (0, 2, 4.5e307)])
    with np.errstate(over="ignore", invalid="ignore"):
        v = fiedler_vector(g)
        pairing = learn.fiedler_pairing(g)
        labels = fiedler_bipartition(g), rmt_labels(g)
    assert np.allclose(np.abs(v), [0.0, math.sqrt(0.5), math.sqrt(0.5)], rtol=0.0, atol=1e-12)
    assert v[1] * v[2] < 0.0
    assert pairing.permutation == (0, 2, 1) and pairing.fixed_point == 0
    for label in labels:
        assert label[1] != label[2]
        assert label.tolist() == (v >= 0.0).astype(int).tolist()


def test_a_spectrum_beyond_the_float_range_raises_non_finite():
    # the path a-b-c with weights 6e307: L is finite, its lambda_3 = 1.8e308 is not,
    # and eigh returns it as inf
    g = graph_from_edges(list("abc"), [(0, 1, 6e307), (1, 2, 6e307)])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(np.linalg.eigvalsh(laplacian(g))).all()
        for compute in (symmetric_eig, lambda lap: fiedler_vector(g), lambda lap: rmt_labels(g),
                        lambda lap: fiedler_bipartition(g)):
            with pytest.raises(NonFinite, match="^matrix contains non-finite entries$"):
                compute(laplacian(g))
        # the ranking kernel reads no eigenvalue it cannot trust: eigh's vector ranks the path
        pairing = learn.fiedler_pairing(g)
    assert pairing.permutation == (2, 1, 0) and pairing.fixed_point == 1


def test_symmetric_eig_input_validation():
    with pytest.raises(NotSymmetric):
        symmetric_eig(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(NonFinite):
        symmetric_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        symmetric_eig(np.zeros((2, 3)))


# The stack helpers of the batched kernels against their per-matrix originals.


def random_weight_stack(rng, count, n):
    """count random symmetric weight matrices of n nodes, sparse, dense and empty."""
    stack = np.zeros((count, n, n))
    for b in range(count):
        density = (0.0, 0.1, 0.3, 0.8)[b % 4]
        w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < density), 1)
        stack[b] = w + w.T
    return stack


@pytest.mark.parametrize("n", [1, 2, 5, 9, 34])
def test_reach_walks_every_graph_of_a_stack_like_is_connected(n):
    rng = np.random.default_rng(n)
    stack = random_weight_stack(rng, 12, n)
    labels = tuple(str(i) for i in range(n))
    for start in {0, n // 2, n - 1}:
        reach = _reach(stack != 0.0, start)
        assert reach.shape == (12, n)
        for b, weights in enumerate(stack):
            component = next(c for c in stack_walk_components(weights) if start in c)
            assert np.flatnonzero(reach[b]).tolist() == component
    connected = _reach(stack != 0.0, 0).all(axis=1)
    assert connected.tolist() == [is_connected(Graph(labels, w)) for w in stack]
    assert _reach(np.zeros((0, n, n), dtype=bool), 0).shape == (0, n)


@pytest.mark.parametrize("n", [1, 2, 6, 34])
def test_signed_eigh_of_a_stack_matches_symmetric_eig_bitwise(n):
    rng = np.random.default_rng(100 + n)
    noise = rng.standard_normal((4, n, n))
    weights = random_weight_stack(rng, 8, n)  # empty and disconnected graphs too
    lap = np.stack([laplacian(Graph(tuple(map(str, range(n))), w)) for w in weights])
    for stack in ((noise + noise.transpose(0, 2, 1)) / 2.0, lap):
        values, vectors = _signed_eigh(stack)
        for b, m in enumerate(stack):
            decomp = symmetric_eig(m)
            assert same_bits(values[b], decomp.eigenvalues)
            assert same_bits(vectors[b], decomp.eigenvectors)
            assert same_bits(vectors[b], column_loop_eig(m)[1])
        if n >= 2:
            fiedler = _signed_eigh(stack, slice(1, 2))[1]
            assert same_bits(fiedler, vectors[:, :, 1:2])
    values, vectors = _signed_eigh(np.zeros((0, n, n)))
    assert values.shape == (0, n) and vectors.shape == (0, n, n)


def first_error(check, m):
    try:
        check(m)
    except (NonFinite, NotSymmetric, ValidationError) as exc:
        return type(exc), str(exc)
    return None


def assert_screen_matches(screen, check, stack):
    keys = list(range(10, 10 + len(stack)))
    outcomes = {}
    keep = screen(stack, keys, outcomes)
    expected = [first_error(check, m) for m in stack]
    assert keep.tolist() == [e is None for e in expected]
    assert {k: (type(e), str(e)) for k, e in outcomes.items()} == {
        k: e for k, e in zip(keys, expected) if e is not None
    }
    return expected


def test_screen_weights_gives_each_matrix_the_first_error_of_check_weights():
    rng = np.random.default_rng(4)
    stack = random_weight_stack(rng, 12, 4)
    stack[1, 0, 1] = np.nan  # non-finite and asymmetric: non-finite is checked first
    stack[2, 2, 3] = -1.0  # asymmetric and negative
    stack[3, 1, 1] = stack[3, 2, 0] = stack[3, 0, 2] = -0.5  # diagonal before sign
    stack[4, 3, 1] = stack[4, 1, 3] = -2.0
    stack[5, 0, 0] = np.inf
    expected = assert_screen_matches(_screen_weights, check_weights, stack)
    assert [e and e[1] for e in expected[:6]] == [
        None,
        "graph weights contain non-finite entries",
        "graph weights must be exactly symmetric",
        "graph weights must have a zero diagonal",
        "graph weights must be nonnegative",
        "graph weights contain non-finite entries",
    ]
    assert all(e is None for e in expected[6:])
    assert_screen_matches(_screen_weights, check_weights, np.zeros((0, 3, 3)))
    assert_screen_matches(_screen_weights, check_weights, np.zeros((2, 0, 0)))


def test_screen_symmetric_gives_each_matrix_the_first_error_of_check_symmetric():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((6, 5, 5))
    stack = (stack + stack.transpose(0, 2, 1)) / 2.0
    stack[1, 0, 1] += 1e-13  # not exactly symmetric, but within tolerance
    stack[2, 0, 1] += 1e-3
    stack[3, 4, 4] = np.nan
    stack[4, 2, 0] = np.inf
    expected = assert_screen_matches(_screen_symmetric, check_symmetric, stack)
    assert [e and e[0] for e in expected] == [None, None, NotSymmetric, NonFinite, NonFinite, None]
    expected = assert_screen_matches(_screen_symmetric, check_symmetric, np.zeros((2, 0, 0)))
    assert expected == [(ValidationError, "expected a square matrix, got shape (0, 0)")] * 2


# Faults injected into one matrix of a stack. The asymmetries land at, just
# inside, just outside and well outside SYMMETRY_RTOL: the perturbation e at
# (i, j) gives ||M - M^T||_F = e * sqrt(2) against SYMMETRY_RTOL * max(1, ||M||_F).
ASYMMETRY = {"asymmetric at": 1.0, "asymmetric inside": 1.0 - 1e-6,
             "asymmetric just outside": 1.0 + 1e-6, "asymmetric outside": 1e3}
FAULTS = ["nan", "inf", "-inf", "negative", "diagonal", *ASYMMETRY]


def inject(m, fault, rng):
    n = len(m)
    i, j = rng.choice(n, size=2, replace=False) if n >= 2 else (0, 0)
    if fault in ("nan", "inf", "-inf"):
        m[i, j] = float(fault)
    elif fault == "negative":
        m[i, j] = m[j, i] = -rng.random() - 0.5
    elif fault == "diagonal":
        m[i, i] = rng.random() + 0.5
    elif n >= 2 and np.isfinite(m).all():
        bound = SYMMETRY_RTOL * max(1.0, np.linalg.norm(m))
        m[i, j] += ASYMMETRY[fault] * bound / math.sqrt(2.0)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 5),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    faults=st.lists(st.lists(st.sampled_from(FAULTS), max_size=3), max_size=5),
)
def test_screens_give_every_matrix_the_first_error_of_the_reference_checks(
    seed, n, scale, faults
):
    rng = np.random.default_rng(seed)
    stack = scale * random_weight_stack(rng, len(faults), n)
    for m, matrix_faults in zip(stack, faults):
        if n >= 1:
            for fault in matrix_faults:
                inject(m, fault, rng)
    assert_screen_matches(_screen_weights, check_weights, stack)
    assert_screen_matches(_screen_symmetric, check_symmetric, stack)


def test_a_callers_array_never_changes_a_graph_or_a_result():
    w = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    g = Graph(labels=("a", "b", "c"), weights=w)
    lap = laplacian(g)
    op = permutation_operator([1, 0, 2])
    projection = commutant_projection(lap, op)
    direct = ProjectionResult(projected=lap, defect_before=0.0, defect_after=0.0,
                              deformation=0.0)
    learned = LearnResult(operator=op, projected=lap, defect_trajectory=(0.0,), converged=True,
                          iterations=0)
    values, vectors = np.array([0.0, 1.0, 3.0]), np.eye(3)
    decomp = SpectralDecomposition(eigenvalues=values, eigenvectors=vectors)
    before = [a.tobytes() for a in (g.weights, projection.projected, direct.projected,
                                    learned.projected, decomp.eigenvalues, decomp.eigenvectors)]
    for a in (w, lap, values, vectors):
        a += 7.0
    after = [a.tobytes() for a in (g.weights, projection.projected, direct.projected,
                                   learned.projected, decomp.eigenvalues, decomp.eigenvectors)]
    assert after == before


@pytest.fixture
def float_copies(monkeypatch):
    """The float arrays that Graph, SpectralDecomposition, ProjectionResult and LearnResult copy."""
    copied = []

    def spying(a, dtype=float):
        if dtype is float and not isinstance(a, graphs._Adopted):
            copied.append(a)
        return as_readonly(a, dtype)

    as_readonly = graphs._as_readonly
    for module in (graphs, duality, learn):
        monkeypatch.setattr(module, "_as_readonly", spying)
    return copied


def test_package_built_arrays_are_read_only_and_not_copied(float_copies, tmp_path):
    club = karate_club()[0]
    save_graph(club, tmp_path / "club.txt")
    net = generate_dual_network(6, seed=1)
    lap = laplacian(club)
    op = fiedler_duality_operator(club)
    arrays = [
        club.weights,
        load_graph(tmp_path / "club.txt").weights,
        club.subgraph(range(10)).weights,
        net.graph.weights,
        rewire(net.graph, 0.5, seed=2).weights,
        flip_edges(club, 5, seed=3).weights,
        *vars(symmetric_eig(lap)).values(),
        commutant_projection(lap, op).projected,
        alternate(lap, op).projected,
    ]
    assert float_copies == []
    assert not any(a.flags.writeable for a in arrays)
    w = np.zeros((2, 2))
    assert graphs._as_readonly(graphs._Adopted(w)) is w and not w.flags.writeable


def test_fiedler_vector_of_path():
    v = fiedler_vector(path_graph(3))
    expected = np.array([1.0, 0.0, -1.0]) / math.sqrt(2.0)
    assert np.allclose(v, expected, atol=1e-12)


def test_fiedler_vector_requires_connected_graph():
    g = Graph(labels=("a", "b"), weights=np.zeros((2, 2)))
    with pytest.raises(DisconnectedGraph):
        fiedler_vector(g)


def test_fiedler_vector_requires_two_nodes():
    g = Graph(labels=("a",), weights=np.zeros((1, 1)))
    with pytest.raises(TooSmall):
        fiedler_vector(g)


def test_graph_text_round_trip_is_exact():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 0.1 + 0.2  # not representable exactly in decimal
    w[1, 2] = w[2, 1] = math.pi
    g = Graph(labels=("a", "b", "c"), weights=w)
    back = graph_from_text(graph_to_text(g))
    assert back.labels == g.labels
    assert np.array_equal(back.weights, g.weights)


def test_graph_text_and_edges_follow_the_upper_triangle_scan():
    # the flat scan lists the edges of np.nonzero(np.triu(w, 1)), in its order
    mirror = rewire(generate_dual_network(250, seed=7).graph, 0.02, seed=7)
    for g in (karate_club()[0], mirror):
        rows, cols = np.nonzero(np.triu(g.weights, 1))
        lines = ["#nodes: " + ",".join(g.labels)]
        lines += [f"{g.labels[i]}\t{g.labels[j]}\t{float(g.weights[i, j])!r}"
                  for i, j in zip(rows, cols)]
        assert graph_to_text(g) == "\n".join(lines) + "\n"
        assert g.edge_count() == len(g.edges()) == len(rows)
        assert all(type(x) is int for x in g.edges()[0][:2])
        assert type(g.edges()[0][2]) is float


def test_graph_text_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        graph_from_text("a\tb\t1.0\n")
    with pytest.raises(ParseError, match="line 2"):
        graph_from_text("#nodes: a,b\na\tb\tnotanumber\n")
    with pytest.raises(ParseError, match="line 3"):
        graph_from_text("#nodes: a,b\na\tb\t1.0\na\tz\t1.0\n")
    with pytest.raises(ParseError, match="duplicate edge"):
        graph_from_text("#nodes: a,b\na\tb\t1.0\nb\ta\t2.0\n")
    with pytest.raises(ParseError, match="self-loop"):
        graph_from_text("#nodes: a,b\na\ta\t1.0\n")
    with pytest.raises(ParseError, match="duplicate node label"):
        graph_from_text("#nodes: a,a\n")


def test_graph_to_text_rejects_unserializable_labels():
    g = Graph(labels=("a,b", "c"), weights=np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        graph_to_text(g)
    g = Graph(labels=("x", "x"), weights=np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        graph_to_text(g)


def test_save_load_graph(tmp_path):
    g = random_graph(8, seed=21)
    path = tmp_path / "g.txt"
    save_graph(g, path)
    back = load_graph(path)
    assert back.labels == g.labels
    assert np.array_equal(back.weights, g.weights)


def test_matrix_text_round_trip_is_exact():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4))
    assert np.array_equal(matrix_from_text(matrix_to_text(m)), m)
    assert matrix_to_text(m).startswith("#matrix n: 4")


def test_matrix_text_parse_errors():
    with pytest.raises(ParseError, match="header"):
        matrix_from_text("1.0 2.0\n")
    # matrix files and dense operator files share one row parser
    for parse, header in ((matrix_from_text, "#matrix n:"), (operator_from_text, "#dense n:")):
        with pytest.raises(ParseError, match="expected 2 entries"):
            parse(f"{header} 2\n1.0 2.0 3.0\n")
        with pytest.raises(ParseError, match="rows"):
            parse(f"{header} 2\n1.0 2.0\n")
        with pytest.raises(ParseError, match="bad matrix entry"):
            parse(f"{header} 1\nx\n")
