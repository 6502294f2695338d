"""Fiedler pairing, involution snapping, and the alternating optimization."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    averaging_fiedler_rankings,
    central_fd_gradient,
    penalized_objective,
    random_involution,
    rank_loop_pairing,
    stepping_alternate,
)
from prism import duality, finance, graphs, learn
from prism.benchmarks import generate_dual_network, karate_club, rewire
from prism.duality import (
    commutant_projection,
    commutator_norm,
    duality_defect,
    identity_operator,
    operator_from_text,
    validate_involution,
)
from prism.errors import (
    DimensionMismatch,
    DisconnectedGraph,
    NonFinite,
    PrismError,
    TooSmall,
    ValidationError,
    ZeroMatrix,
)
from prism.graphs import Graph, fiedler_vector, graph_from_edges, laplacian
from prism.learn import (
    AlternatingConfig,
    FiedlerPairing,
    _objective_and_gradient,
    alternate,
    fiedler_duality_operator,
    fiedler_pairing,
    learn_result_to_json,
    optimize_p_step,
    pairing_operator,
    snap_to_involution,
)


def path_graph(n):
    return graph_from_edges([f"n{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def lollipop_graph():
    """A triangle with a 3-node tail: connected, visibly asymmetric."""
    return graph_from_edges(
        [str(i) for i in range(6)], [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]
    )


def test_fiedler_pairing_mirrors_even_path():
    pairing = fiedler_pairing(path_graph(4))
    assert pairing.permutation == (3, 2, 1, 0)
    assert pairing.fixed_point is None


def test_fiedler_pairing_mirrors_odd_path():
    pairing = fiedler_pairing(path_graph(5))
    assert pairing.permutation == (4, 3, 2, 1, 0)
    assert pairing.fixed_point == 2


def test_fiedler_pairing_is_involution_on_irregular_graph():
    pairing = fiedler_pairing(lollipop_graph())
    sigma = pairing.permutation
    assert sorted(sigma) == list(range(6))
    assert all(sigma[sigma[i]] == i for i in range(6))


def test_fiedler_pairing_matches_the_rank_loop():
    karate = karate_club()[0]
    mirror = generate_dual_network(20, seed=2).graph
    graphs = [karate, karate.subgraph(range(33)), mirror, rewire(mirror, 0.1, seed=2)]
    graphs += [lollipop_graph()]
    graphs += [path_graph(n) for n in (2, 3, 8, 11)]
    for g in graphs:
        sigma = fiedler_pairing(g).permutation
        assert sigma == rank_loop_pairing(fiedler_vector(g))
        assert sigma == tuple(fiedler_duality_operator(g).sigma)
        assert all(type(i) is int for i in sigma)


def eigh_pairing(g):
    """The oracle: the rank pairing of fiedler_vector, which always runs the full eigh."""
    return tuple(learn._rank_pairings(fiedler_vector(g)).tolist())


def test_fiedler_pairing_matches_eigh_on_finance_components(universe_returns):
    # the finance kernel's windows, one component at a time through the per-matrix path
    checked = 0
    for window_len in (20, 60, 250):
        for pos in range(window_len - 1, len(universe_returns.dates), 97):
            end = universe_returns.dates[pos]
            graph = finance._window_graph(universe_returns, end, window_len, 0.2)[2]
            if graph.edge_count() == 0:
                continue
            component = finance._largest_component(graph)[1]
            if component.n < 2:
                continue
            assert fiedler_pairing(component).permutation == eigh_pairing(component)
            checked += 1
    assert checked > 10


def mirror_graph(group_size, seed, fraction=0.02):
    """The benchmark's mirror network on 2 * group_size nodes, a fraction of its edges rewired."""
    return rewire(generate_dual_network(group_size, 0.4, 0.1, seed).graph, fraction, seed)


def twin_graph(group_size, seed):
    """mirror_graph with node 1 made a twin of node 0: the same neighbours, not adjacent."""
    w = np.array(mirror_graph(group_size, seed).weights)
    w[1, :] = w[0, :]
    w[:, 1] = w[:, 0]
    return Graph(labels=tuple(f"n{i}" for i in range(len(w))), weights=w)


@pytest.mark.parametrize("seed", [7, 30, 88, 121, 206])
def test_fiedler_pairing_matches_eigh_on_large_mirror_networks(seed, eigh_fallbacks):
    # the benchmark's n = 500 items: a mirror network with 2% of its edges rewired
    g = mirror_graph(250, seed)
    assert fiedler_pairing(g).permutation == eigh_pairing(g)
    assert eigh_fallbacks == []


@pytest.mark.parametrize("group_size", [64, 100, 180])
def test_lanczos_rankings_match_eigh_from_the_cutoff_up(group_size, eigh_fallbacks):
    assert 2 * 64 == graphs.LANCZOS_CUTOFF  # the smallest size here is the cutoff itself
    for seed in range(6):
        for fraction in (0.02, 0.05):
            g = mirror_graph(group_size, seed, fraction)
            assert fiedler_pairing(g).permutation == eigh_pairing(g)
    assert eigh_fallbacks == []


def test_a_graph_just_below_the_cutoff_ranks_the_same_on_both_paths(monkeypatch, eigh_fallbacks):
    lanczos_runs = []
    ranking = graphs._lanczos_ranking

    def counted(sym):
        lanczos_runs.append(len(sym))
        return ranking(sym)

    monkeypatch.setattr(graphs, "_lanczos_ranking", counted)
    m = graphs.LANCZOS_CUTOFF - 2
    for seed in range(4):
        g = mirror_graph(m // 2, seed)
        solved = fiedler_pairing(g).permutation
        with monkeypatch.context() as lowered:
            lowered.setattr(graphs, "LANCZOS_CUTOFF", m)
            assert fiedler_pairing(g).permutation == solved == eigh_pairing(g)
    assert lanczos_runs == [m] * 4
    assert eigh_fallbacks == []


def test_a_twin_pair_above_the_cutoff_takes_eigh(eigh_fallbacks):
    # twin nodes have equal Fiedler entries, so no Lanczos vector can prove their order
    g = twin_graph(250, 7)
    assert graphs._lanczos_ranking(laplacian(g)) is None
    assert fiedler_pairing(g).permutation == eigh_pairing(g)
    assert eigh_fallbacks == [1]


def test_a_lanczos_run_cut_short_is_rejected(monkeypatch, eigh_fallbacks):
    g = mirror_graph(250, 7)
    monkeypatch.setattr(graphs, "LANCZOS_STEPS", 4)
    assert graphs._lanczos_ranking(laplacian(g)) is None
    assert fiedler_pairing(g).permutation == eigh_pairing(g)
    assert eigh_fallbacks == [1]


def test_a_stack_of_large_laplacians_ranks_each_matrix_as_alone(eigh_fallbacks):
    stack = [mirror_graph(100, 3), twin_graph(100, 4), mirror_graph(100, 5)]
    weights = np.stack([g.weights for g in stack])
    kept = weights.copy()
    rankings = graphs._fiedler_rankings(weights)
    assert weights.tobytes() == kept.tobytes()  # the caller's array is never written
    assert eigh_fallbacks == [1]  # the twin graph alone
    for b, g in enumerate(stack):
        assert rankings[b].tobytes() == graphs._fiedler_rankings(weights[b:b + 1])[0].tobytes()
        assert tuple(learn._rank_pairings(rankings[b]).tolist()) == eigh_pairing(g)
    assert eigh_fallbacks == [1, 1]


def assert_averaging_kernel_bits(weights):
    expected = averaging_fiedler_rankings(graphs._laplacians(weights), weights)
    assert graphs._fiedler_rankings(weights).tobytes() == expected.tobytes()


@pytest.mark.parametrize("group_size", [64, 100, 180, 250])
def test_rankings_have_the_bits_of_the_averaging_kernel_on_mirror_networks(group_size):
    for seed in (7, 30):
        assert_averaging_kernel_bits(mirror_graph(group_size, seed).weights[None])
        assert_averaging_kernel_bits(twin_graph(group_size, seed).weights[None])
    assert_averaging_kernel_bits(np.stack([mirror_graph(group_size, 3).weights,
                                           twin_graph(group_size, 4).weights]))


def test_rankings_have_the_bits_of_the_averaging_kernel_on_the_club_and_finance_windows(
        universe_returns):
    assert_averaging_kernel_bits(karate_club()[0].weights[None])
    by_size = {}
    for window_len in (20, 60, 250):
        for pos in range(window_len - 1, len(universe_returns.dates), 23):
            graph = finance._window_graph(universe_returns, universe_returns.dates[pos],
                                          window_len, 0.2)[2]
            if graph.edge_count() > 0:
                component = finance._largest_component(graph)[1]
                by_size.setdefault(component.n, []).append(component.weights)
    for stack in by_size.values():
        if len(stack[0]) >= 2:
            assert_averaging_kernel_bits(np.stack(stack))
    assert sum(len(stack) for stack in by_size.values()) > 50


def connected_weights(rng, count, m, twins):
    """count random weighted graphs on m nodes, each with a path through every node.

    twins makes node 1 a copy of node 0, which is also joined to node 2, where m >= 3.
    """
    w = np.triu(rng.random((count, m, m)) * (rng.random((count, m, m)) < 0.3), 1)
    w[:, np.arange(m - 1), np.arange(1, m)] += 1.0 + rng.random((count, m - 1))
    w = w + w.transpose(0, 2, 1)
    if twins and m >= 3:
        w[:, 0, 2] = w[:, 2, 0] = 1.0
        w[:, 1, :] = w[:, 0, :]
        w[:, :, 1] = w[:, :, 0]
        w[:, 0, 1] = w[:, 1, 0] = 0.0
    return w


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 4),
       m=st.sampled_from([2, 3, 5, 12, 40, 128, 131]), twins=st.booleans())
def test_rankings_never_write_the_weights_and_rank_each_graph_as_alone(seed, count, m, twins):
    weights = connected_weights(np.random.default_rng(seed), count, m, twins)
    kept = weights.copy()
    rankings = graphs._fiedler_rankings(weights)
    assert weights.tobytes() == kept.tobytes()
    for b in range(count):
        assert rankings[b].tobytes() == graphs._fiedler_rankings(weights[b:b + 1])[0].tobytes()
        g = Graph(labels=tuple(map(str, range(m))), weights=weights[b])
        assert tuple(learn._rank_pairings(rankings[b]).tolist()) == eigh_pairing(g)


@pytest.mark.parametrize("g", [mirror_graph(30, 7), mirror_graph(250, 7)], ids=["60", "500"])
def test_fiedler_pairing_builds_its_laplacian_only_inside_the_kernel(g, monkeypatch,
                                                                     eigh_fallbacks):
    built = []
    laplacians = graphs._laplacians

    def counting_laplacians(weights):
        built.append(len(weights))
        return laplacians(weights)

    monkeypatch.setattr(graphs, "_laplacians", counting_laplacians)
    fiedler_pairing(g)
    assert built == [1] and eigh_fallbacks == []


def test_the_lanczos_test_builds_no_n_by_n_temporary(monkeypatch):
    # at the benchmark's n = 500: before the factorisation only the Lanczos
    # basis and the row-block scratch are live, and cholesky may add its copy and factor
    lap = laplacian(mirror_graph(250, 7))
    before = []
    cholesky = np.linalg.cholesky

    def measured_cholesky(a):
        before.append(tracemalloc.get_traced_memory()[1])
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", measured_cholesky)
    tracemalloc.start()
    try:
        assert graphs._lanczos_ranking(lap) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(before) == 1 and before[0] < lap.nbytes / 2
    assert peak < 2.5 * lap.nbytes


def test_the_row_block_infinity_norm_has_numpys_bits():
    rng = np.random.default_rng(5)
    for m in (1, 2, 63, 64, 65, 200):
        rows = np.empty((min(graphs.LANCZOS_ROWS, m), m))
        a = rng.standard_normal((m, m)) * 10.0 ** rng.integers(-300, 300, (m, 1))
        assert graphs._inf_norm(a, rows) == np.linalg.norm(a, np.inf)
        for value in (np.inf, np.nan, -0.0):
            b = a.copy()
            b[m // 2, 0] = value
            assert np.array_equal(graphs._inf_norm(b, rows), np.linalg.norm(b, np.inf),
                                  equal_nan=True)


def test_the_club_pairing_takes_the_eigh_fallback(eigh_fallbacks):
    # the club has twin nodes, whose Fiedler entries tie: only eigh's rounding orders them
    club = karate_club()[0]
    assert fiedler_pairing(club).permutation == eigh_pairing(club)
    assert eigh_fallbacks == [1]
    assert tuple(fiedler_duality_operator(club).sigma.tolist()) == eigh_pairing(club)
    assert eigh_fallbacks == [1, 1]


def test_fiedler_pairing_keeps_fiedler_vector_errors():
    with pytest.raises(TooSmall):
        fiedler_pairing(path_graph(1))
    with pytest.raises(DisconnectedGraph):
        fiedler_pairing(graph_from_edges(list("abcd"), [(0, 1), (2, 3)]))
    huge = graph_from_edges(list("abc"), [(0, 1, 1e308), (1, 2, 1e308)])  # degree overflows
    with np.errstate(over="ignore"):
        with pytest.raises(NonFinite):
            fiedler_vector(huge)
        with pytest.raises(NonFinite):
            fiedler_pairing(huge)


def assert_eigh_takes_over_within_memory(g, eigh_fallbacks):
    # while the fallback's eigh runs, the n x n arrays alive are the Laplacian, eigh's
    # symmetrised input and its vectors; one more held from the kernel fails the bound
    expected = eigh_pairing(g)
    tracemalloc.start()
    try:
        assert fiedler_pairing(g).permutation == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert eigh_fallbacks == [1]
    assert peak < 3.5 * g.weights.nbytes


def raise_singular(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


def return_nan(a, b):
    return np.full(b.shape, np.nan)


@pytest.mark.parametrize("failing_solve", [raise_singular, return_nan])
def test_a_failed_iteration_frees_its_arrays_before_eigh(monkeypatch, eigh_fallbacks,
                                                         failing_solve):
    # below the Lanczos cutoff, where the kernel runs inverse iteration
    g = mirror_graph(60, 7)
    assert g.n < graphs.LANCZOS_CUTOFF
    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    assert_eigh_takes_over_within_memory(g, eigh_fallbacks)


def return_start(a, b):
    return b.copy()


def test_a_vector_the_test_rejects_takes_a_second_solve_then_eigh(monkeypatch, eigh_fallbacks,
                                                                   second_solves):
    # a "solve" that hands back its start leaves sin(1..m) as x, far from any eigenvector
    g = mirror_graph(30, 7)
    expected = eigh_pairing(g)
    assert fiedler_pairing(g).permutation == expected
    assert second_solves == [] and eigh_fallbacks == []
    monkeypatch.setattr(np.linalg, "solve", return_start)
    assert fiedler_pairing(g).permutation == expected
    assert second_solves == [1] and eigh_fallbacks == [1]


def raise_not_definite(a):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


def factor_nan(a):
    return np.full(a.shape, np.nan)


@pytest.mark.parametrize("failing_cholesky", [raise_not_definite, factor_nan])
def test_a_failed_cholesky_frees_its_arrays_before_eigh(monkeypatch, eigh_fallbacks,
                                                        failing_cholesky):
    # at the benchmark's n = 500: the Lanczos basis, the Cholesky input and its factor
    # are gone before eigh runs
    g = mirror_graph(250, 7)
    monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
    assert_eigh_takes_over_within_memory(g, eigh_fallbacks)


def test_rank_pairings_match_the_rank_loop_row_by_row():
    rng = np.random.default_rng(17)
    for n in (1, 2, 7, 8, 33, 34):
        rows = [rng.standard_normal(n), np.zeros(n), np.arange(n)[::-1] % 3 * 0.5,
                rng.integers(0, 2, n) - 0.5]  # the last three tie exactly
        stack = np.array(rows)
        sigma = learn._rank_pairings(stack)
        assert sigma.shape == (4, n)
        for row, pairs in zip(stack, sigma):
            assert tuple(pairs.tolist()) == rank_loop_pairing(row)
            assert np.array_equal(pairs[pairs], np.arange(n))
    # ties keep index order: the zeros take ranks 0, 1, 2 and the ones ranks 3, 4
    assert learn._rank_pairings(np.array([0.0, 0.0, 0.0, 1.0, 1.0])).tolist() == [4, 3, 2, 1, 0]


def test_fiedler_pairing_rejects_non_involution():
    with pytest.raises(ValidationError):
        FiedlerPairing(permutation=(1, 2, 0), fixed_point=None)  # a 3-cycle


def test_pairing_operator_is_permutation_involution():
    op = pairing_operator(fiedler_pairing(path_graph(5)))
    assert op.is_permutation()
    assert np.array_equal(op.matrix @ op.matrix, np.eye(5))


def test_snap_fixes_exact_involutions():
    op = fiedler_duality_operator(path_graph(4))
    snapped = snap_to_involution(op.matrix)
    assert np.allclose(snapped.matrix, op.matrix, atol=1e-12)


def test_snap_zero_matrix_gives_identity():
    snapped = snap_to_involution(np.zeros((4, 4)))
    assert np.allclose(snapped.matrix, np.eye(4), atol=1e-12)


def test_snap_is_idempotent():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((6, 6))
    first = snap_to_involution(m)
    second = snap_to_involution(first.matrix)
    assert np.allclose(second.matrix, first.matrix, atol=1e-12)


def test_snap_rejects_nonfinite():
    with pytest.raises(NonFinite):
        snap_to_involution(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(37)
    mu = 10.0
    for _ in range(10):
        n = int(rng.integers(3, 7))
        lp = rng.standard_normal((n, n))
        lp = (lp + lp.T) / 2.0
        point = rng.standard_normal((n, n))
        _, grad = _objective_and_gradient(point.ravel(), lp, mu, n)
        fd = central_fd_gradient(lambda p: penalized_objective(p, lp, mu), point, eps=1e-6)
        assert np.linalg.norm(grad - fd.ravel()) <= 1e-5 * max(1.0, np.linalg.norm(fd))


def test_optimize_p_step_strictly_improves_path_swap():
    # the contract pins this case: starting from swap(0,1) on the 3-path,
    # the commutator norm must drop strictly below its initial sqrt(6)
    lap = laplacian(path_graph(3))
    p0 = validate_involution(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    before = commutator_norm(lap, p0)
    assert before == pytest.approx(math.sqrt(6.0), abs=1e-12)
    refined = optimize_p_step(lap, p0)
    assert commutator_norm(lap, refined) < before - 1.0


def test_optimize_p_step_returns_p0_when_already_commuting():
    lap = laplacian(path_graph(3))
    reversal = validate_involution(np.fliplr(np.eye(3)))
    assert optimize_p_step(lap, reversal) is reversal


def test_optimize_p_step_never_increases_commutator():
    rng = np.random.default_rng(41)
    for _ in range(5):
        n = 6
        lp = rng.standard_normal((n, n))
        lp = (lp + lp.T) / 2.0
        order = rng.permutation(n)
        m = np.zeros((n, n))
        for a in range(0, n, 2):
            i, j = int(order[a]), int(order[a + 1])
            m[i, j] = m[j, i] = 1.0
        p0 = validate_involution(m)
        refined = optimize_p_step(lp, p0)
        assert commutator_norm(lp, refined) <= commutator_norm(lp, p0) + 1e-9


def test_optimize_p_step_shape_mismatch():
    p0 = validate_involution(np.eye(2))
    with pytest.raises(DimensionMismatch, match=r"matrix shape \(3, 3\) does not match"):
        optimize_p_step(np.zeros((3, 3)), p0)


def test_optimize_p_step_rejects_non_finite_input_before_optimizing():
    p0 = validate_involution(np.eye(2))
    with pytest.raises(NonFinite, match="matrix contains non-finite entries"):
        optimize_p_step(np.array([[1.0, np.nan], [np.nan, 1.0]]), p0)


def test_alternate_exits_immediately_on_commuting_pair():
    lap = laplacian(path_graph(3))
    reversal = validate_involution(np.fliplr(np.eye(3)))
    result = alternate(lap, reversal)
    assert result.converged
    assert result.iterations == 0
    assert result.defect_trajectory == (0.0,)
    assert np.allclose(result.projected, lap, atol=1e-15)


def test_alternate_terminates_and_never_worsens():
    g = lollipop_graph()
    result = alternate(laplacian(g), fiedler_duality_operator(g))
    traj = result.defect_trajectory
    assert len(traj) == result.iterations + 1
    assert all(traj[i + 1] <= traj[i] + 1e-9 for i in range(len(traj) - 1))
    assert traj[-1] <= traj[0] + 1e-12
    cfg = AlternatingConfig()
    assert result.converged or result.iterations == cfg.max_outer_iterations
    if result.converged:
        assert traj[-1] < cfg.defect_tolerance or abs(traj[-1] - traj[-2]) < cfg.step_tolerance


def test_alternate_respects_iteration_cap():
    g = lollipop_graph()
    cfg = AlternatingConfig(max_outer_iterations=1)
    result = alternate(laplacian(g), fiedler_duality_operator(g), cfg)
    assert result.iterations <= 1
    if not result.converged:
        assert result.iterations == 1


def test_alternate_projects_once_when_the_step_keeps_p(monkeypatch):
    # the P-step hands back p0 for a permutation operator, so the loop's
    # projection is the one the result needs; an input that already commutes
    # never enters the loop and is projected once after it
    calls = []

    def counting_projection(l_matrix, p):
        calls.append(p)
        return commutant_projection(l_matrix, p)

    monkeypatch.setattr(learn, "commutant_projection", counting_projection)
    g = rewire(generate_dual_network(8, seed=2).graph, 0.1, seed=5)
    lap = laplacian(g)
    op = fiedler_duality_operator(g)
    result = alternate(lap, op)
    assert result.iterations == 1 and result.operator is op
    assert len(calls) == 1
    assert result.projected.tobytes() == commutant_projection(lap, op).projected.tobytes()

    calls.clear()
    reversal = validate_involution(np.fliplr(np.eye(3)))
    assert alternate(laplacian(path_graph(3)), reversal).iterations == 0
    assert len(calls) == 1


def test_alternate_returns_the_plain_projection_for_permutation_operators():
    # L' commutes exactly with a permutation, so the P-step keeps P and the
    # learner hands back commutant_projection(L, P): the finance communities
    # pipeline relies on this to project directly
    rng = np.random.default_rng(29)
    for n in range(2, 61):
        p = validate_involution(random_involution(rng, n, "pairing"))
        a = rng.standard_normal((n, n))
        l_matrix = a + a.T
        result = alternate(l_matrix, p)
        assert result.operator is p
        assert result.projected.tobytes() == commutant_projection(l_matrix, p).projected.tobytes()


def reflection_operator(n, seed):
    """A dense start operator: alternate runs its P-step, as for no permutation."""
    return validate_involution(random_involution(np.random.default_rng(seed), n, "reflection"))


def test_alternate_projects_again_when_the_step_changes_p(monkeypatch):
    g = lollipop_graph()
    lap = laplacian(g)
    identity = identity_operator(6)
    monkeypatch.setattr(learn, "optimize_p_step", lambda lp, p0, cfg: identity)
    result = alternate(lap, reflection_operator(6, 3), AlternatingConfig(max_outer_iterations=1))
    assert result.iterations == 1 and result.operator is identity
    assert result.projected.tobytes() == lap.tobytes()


def test_alternate_reuses_the_defect_when_the_step_keeps_p(monkeypatch):
    # an unchanged operator has the defect already recorded, bit for bit
    calls = []

    def counting_defect(l_matrix, p):
        calls.append(p)
        return duality_defect(l_matrix, p)

    monkeypatch.setattr(learn, "duality_defect", counting_defect)
    g = rewire(generate_dual_network(8, seed=2).graph, 0.1, seed=5)
    lap = laplacian(g)
    op = fiedler_duality_operator(g)
    result = alternate(lap, op)
    assert result.iterations == 1 and result.operator is op
    assert len(calls) == 0  # a permutation's defect is the projection's defect_before
    assert result.defect_trajectory == (duality_defect(lap, op),) * 2

    calls.clear()
    dense = reflection_operator(g.n, 3)
    identity = identity_operator(g.n)
    monkeypatch.setattr(learn, "optimize_p_step", lambda lp, p0, cfg: identity)
    result = alternate(lap, dense, AlternatingConfig(max_outer_iterations=1))
    assert calls == [dense, identity]
    assert result.defect_trajectory == (duality_defect(lap, dense), 0.0)


def learn_outcome(route, l_matrix, p0):
    """A LearnResult as comparable bits, or the type and message of the PrismError raised."""
    try:
        result = route(l_matrix, p0)
    except PrismError as error:
        return type(error), str(error)
    return (result.operator, result.projected.tobytes(),
            np.array(result.defect_trajectory).tobytes(), result.converged, result.iterations)


def test_alternate_keeps_the_bits_of_the_stepping_route():
    cases = []
    for group_size in (10, 60, 150, 250):
        net = generate_dual_network(group_size, seed=group_size)
        g = rewire(net.graph, 0.02, seed=group_size)
        cases += [(laplacian(g), op) for op in (fiedler_duality_operator(g), net.true_operator)]
    club_graph = karate_club()[0]
    club, club_op = laplacian(club_graph), fiedler_duality_operator(club_graph)
    cases += [
        (club, club_op),
        (np.zeros((34, 34)), club_op),  # ZeroMatrix
        (np.full((34, 34), np.nan), club_op),  # NonFinite
        (np.eye(5), club_op),  # DimensionMismatch
        (club * 1e306, club_op),  # ||L||_F overflows: a NaN trajectory to the iteration cap
        (1.5e308 * np.sign(np.random.default_rng(2).standard_normal((34, 34))), club_op),
    ]
    for g, seed in ((lollipop_graph(), 3), (path_graph(8), 4)):  # dense operators take the step
        cases.append((laplacian(g), reflection_operator(g.n, seed)))
    outcomes = set()
    with np.errstate(all="ignore"):
        for l_matrix, p0 in cases:
            expected = learn_outcome(stepping_alternate, l_matrix, p0)
            assert learn_outcome(alternate, l_matrix, p0) == expected
            outcomes.add(expected[0] if isinstance(expected[0], type) else expected[3:])
    assert {ZeroMatrix, NonFinite, DimensionMismatch, (False, 50)} <= outcomes


def test_alternate_checks_l_once_for_a_permutation(monkeypatch):
    checked = []
    check_dims = duality._check_dims

    def counting_check_dims(l_matrix, p):
        checked.append(p)
        return check_dims(l_matrix, p)

    monkeypatch.setattr(duality, "_check_dims", counting_check_dims)
    monkeypatch.setattr(learn, "_check_dims", counting_check_dims)
    g = mirror_graph(60, 4, 0.05)
    alternate(laplacian(g), fiedler_duality_operator(g))
    assert len(checked) == 1


def test_alternate_takes_the_norm_of_l_again_only_for_a_zero_defect(monkeypatch):
    # the projection's checks take ||L||_F; the ZeroMatrix check takes it again only
    # where defect_before is 0.0, the value a zero L gives
    counted = []
    defect_norm = learn._defect_norm

    def counting_defect_norm(l_matrix):
        counted.append(len(l_matrix))
        return defect_norm(l_matrix)

    monkeypatch.setattr(learn, "_defect_norm", counting_defect_norm)
    g = mirror_graph(60, 4, 0.05)
    alternate(laplacian(g), fiedler_duality_operator(g))
    assert counted == []
    reversal = validate_involution(np.fliplr(np.eye(3)))
    assert alternate(laplacian(path_graph(3)), reversal).defect_trajectory == (0.0,)
    assert counted == [3]


def test_alternate_builds_one_commutator_for_a_permutation(monkeypatch):
    calls = []
    commutator = duality._commutator

    def counting_commutator(l_matrix, sigma, pl=None):
        calls.append(sigma)
        return commutator(l_matrix, sigma, pl)

    monkeypatch.setattr(duality, "_commutator", counting_commutator)
    g = mirror_graph(60, 4, 0.05)
    for op in (fiedler_duality_operator(g), identity_operator(g.n)):  # one iteration, then none
        calls.clear()
        alternate(laplacian(g), op)
        assert len(calls) == 1


def test_alternating_config_validation():
    with pytest.raises(ValidationError):
        AlternatingConfig(defect_tolerance=0.0)
    with pytest.raises(ValidationError):
        AlternatingConfig(max_outer_iterations=0)
    with pytest.raises(ValidationError):
        AlternatingConfig(penalty_weight=-1.0)


def test_learn_result_json_shape():
    g = path_graph(4)
    result = alternate(laplacian(g), fiedler_duality_operator(g))
    doc = json.loads(learn_result_to_json(result))
    assert set(doc) == {"operator", "trajectory", "converged", "iterations"}
    assert doc["trajectory"] == list(result.defect_trajectory)
    restored = operator_from_text("\n".join(doc["operator"]) + "\n")
    assert np.array_equal(restored.matrix, result.operator.matrix)
