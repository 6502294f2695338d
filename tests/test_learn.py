"""Fiedler pairing, involution snapping, and the alternating optimization."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    central_fd_gradient,
    penalized_objective,
    random_involution,
    rank_loop_pairing,
)
from prism import finance, graphs, learn
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
    TooSmall,
    ValidationError,
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
    lap = graphs._laplacians(weights)
    rankings = graphs._fiedler_rankings(lap)
    assert eigh_fallbacks == [1]  # the twin graph alone
    # the same bits when the kernel may overwrite lap and rebuild it from the weights
    assert graphs._fiedler_rankings(lap.copy(), weights).tobytes() == rankings.tobytes()
    assert eigh_fallbacks == [1, 1]
    for b, g in enumerate(stack):
        assert rankings[b].tobytes() == graphs._fiedler_rankings(lap[b:b + 1])[0].tobytes()
        assert tuple(learn._rank_pairings(rankings[b]).tolist()) == eigh_pairing(g)
    assert eigh_fallbacks == [1, 1, 1]


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


def test_alternate_projects_again_when_the_step_changes_p(monkeypatch):
    g = lollipop_graph()
    lap = laplacian(g)
    identity = identity_operator(6)
    monkeypatch.setattr(learn, "optimize_p_step", lambda lp, p0, cfg: identity)
    result = alternate(lap, fiedler_duality_operator(g), AlternatingConfig(max_outer_iterations=1))
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
    assert len(calls) == 1
    assert result.defect_trajectory == (duality_defect(lap, op),) * 2

    calls.clear()
    identity = identity_operator(g.n)
    monkeypatch.setattr(learn, "optimize_p_step", lambda lp, p0, cfg: identity)
    result = alternate(lap, op, AlternatingConfig(max_outer_iterations=1))
    assert calls == [op, identity]
    assert result.defect_trajectory == (duality_defect(lap, op), 0.0)


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
