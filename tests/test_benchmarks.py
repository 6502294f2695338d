"""Synthetic dual networks, perturbations, club-graph benchmark, reports."""

import json

import numpy as np
import pytest

from oracles import (
    double_sum_modularity,
    loop_dual_network,
    per_trial_noise_rows,
    rebuild_flip_edges,
    reference_rewire,
    reference_rmt_labels,
)
from prism import benchmarks
from prism.benchmarks import (
    _RAW_BLOCK,
    KARATE_FACTIONS,
    NoiseBenchmarkReport,
    RewireReport,
    _accuracies,
    _RawDraws,
    accuracy,
    child_seed,
    fiedler_bipartition,
    flip_edges,
    generate_dual_network,
    index_reversal_operator,
    karate_club,
    modularity,
    noise_benchmark,
    noise_report_to_csv,
    noise_report_to_json,
    resolve_threads,
    rewire,
    rewire_experiment,
    rewire_report_to_csv,
    rewire_report_to_json,
    rmt_denoise,
    rmt_labels,
)
from prism.duality import duality_defect
from prism.errors import (
    DegenerateGraph,
    DisconnectedGraph,
    LengthMismatch,
    NonBinary,
    TooSmall,
    ValidationError,
    ZeroEdges,
)
from prism.graphs import Graph, graph_from_edges, is_connected, laplacian


def test_child_seed_is_deterministic_and_path_sensitive():
    assert child_seed(3, 1, 4) == child_seed(3, 1, 4)
    # every component matters: trial, level, and resample attempt all reseed
    assert child_seed(3, 1, 4) != child_seed(3, 1, 5)
    assert child_seed(3, 1, 4) != child_seed(3, 2, 4)
    assert child_seed(3, 1, 4) != child_seed(4, 1, 4)
    assert child_seed(123, 2, 7, 0) != child_seed(123, 2, 7, 1)


def test_resolve_threads_precedence(monkeypatch):
    monkeypatch.setenv("PRISM_THREADS", "3")
    assert resolve_threads() == 3
    assert resolve_threads(2) == 2  # explicit argument wins over env
    monkeypatch.setenv("PRISM_THREADS", "0")
    assert resolve_threads() == 1
    monkeypatch.delenv("PRISM_THREADS")
    assert resolve_threads() == 1
    monkeypatch.setenv("PRISM_THREADS", "many")
    with pytest.raises(ValidationError):
        resolve_threads()


def test_karate_club_shape():
    g, truth = karate_club()
    assert g.n == 34
    assert g.edge_count() == 78
    assert np.all((g.weights == 0.0) | (g.weights == 1.0))
    assert len(truth) == 34
    assert sum(truth) == 17
    assert is_connected(g)


def test_modularity_matches_double_sum_oracle():
    g, truth = karate_club()
    assert modularity(g, truth) == pytest.approx(
        double_sum_modularity(g.weights, truth), abs=1e-12
    )
    rng = np.random.default_rng(19)
    for _ in range(5):
        n = int(rng.integers(4, 12))
        w = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.6), 1)
        graph = Graph(labels=tuple(str(i) for i in range(n)), weights=w + w.T)
        if graph.edge_count() == 0:
            continue
        partition = rng.integers(0, 3, size=n).tolist()
        assert modularity(graph, partition) == pytest.approx(
            double_sum_modularity(graph.weights, partition), abs=1e-12
        )


def test_modularity_errors():
    g, truth = karate_club()
    with pytest.raises(LengthMismatch):
        modularity(g, truth[:-1])
    empty = Graph(labels=("a", "b"), weights=np.zeros((2, 2)))
    with pytest.raises(ZeroEdges):
        modularity(empty, (0, 1))


def test_accuracy_best_of_both_identifications():
    assert accuracy([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0  # swapped labels, same split
    assert accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5
    pred = np.array([0, 1, 1, 0, 1])
    truth = np.array([0, 1, 0, 0, 1])
    assert accuracy(pred, truth) == accuracy(1 - pred, truth)


def test_accuracies_match_accuracy_row_by_row():
    truth = np.array(KARATE_FACTIONS)
    rng = np.random.default_rng(3)
    rows = [
        truth, 1 - truth,  # exact and swapped
        np.zeros(34, dtype=int), np.ones(34, dtype=int),  # all equal
        np.where(np.arange(34) % 2 == 0, truth, 1 - truth),  # a 0.5 split
        # every agreement count: 1 - c/34 and (34 - c)/34 differ in the last
        # bit at c = 7, 10 and 12, so only the float complement matches
        *(np.where(np.arange(34) < c, truth, 1 - truth) for c in range(35)),
        *rng.integers(0, 2, size=(20, 34)),
    ]
    stack = np.array(rows, dtype=np.int8).reshape(3, 20, 34)
    scores = _accuracies(stack, truth)
    assert scores.shape == (3, 20)
    for index in np.ndindex(3, 20):
        assert scores[index] == accuracy(stack[index], truth)
    assert scores[0, 4] == 0.5
    with pytest.raises(LengthMismatch):
        _accuracies(stack[..., :-1], truth)
    with pytest.raises(NonBinary):
        _accuracies(stack + 1, truth)
    with pytest.raises(NonBinary):
        _accuracies(stack, 2 * truth)


def test_accuracy_errors():
    with pytest.raises(LengthMismatch):
        accuracy([0, 1], [0, 1, 1])
    with pytest.raises(NonBinary):
        accuracy([0, 2], [0, 1])


def test_generate_dual_network_invariance_is_exact():
    net = generate_dual_network(6, seed=3)
    g, op = net.graph, net.true_operator
    pm = op.matrix
    assert np.array_equal(pm @ g.weights @ pm, g.weights)
    assert duality_defect(laplacian(g), op) == 0.0
    assert g.labels[:6] == tuple(f"A{i}" for i in range(6))
    assert g.labels[6:] == tuple(f"B{i}" for i in range(6))
    assert net.partition == (0,) * 6 + (1,) * 6
    assert is_connected(g)


def test_generate_dual_network_validation():
    with pytest.raises(ValidationError):
        generate_dual_network(1)
    with pytest.raises(ValidationError):
        generate_dual_network(4, edge_prob_intra=1.5)
    # intra 1, cross 0 always yields two disconnected mirror halves
    with pytest.raises(DegenerateGraph):
        generate_dual_network(2, edge_prob_intra=1.0, edge_prob_cross=0.0, seed=0)


def test_generate_dual_network_matches_the_pair_loop(monkeypatch):
    # the connectivity check sees each sample first; stopping there compares
    # the first attempt even where every sample is disconnected or empty
    class FirstSample(Exception):
        pass

    samples = []

    def capture(g):
        samples.append(g.weights)
        raise FirstSample

    monkeypatch.setattr(benchmarks, "is_connected", capture)
    for p_intra, p_cross in ((0.4, 0.1), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5)):
        for m in (2, 3, 8, 17, 60, 250):
            for seed in range(5):
                with pytest.raises(FirstSample):
                    generate_dual_network(m, p_intra, p_cross, seed)
                expected = loop_dual_network(m, p_intra, p_cross, seed)
                assert samples[-1].tobytes() == expected.tobytes(), (p_intra, p_cross, m, seed)


def test_rewire_preserves_edge_count_and_weight_multiset():
    rng = np.random.default_rng(8)
    w = np.triu(rng.random((10, 10)) * (rng.random((10, 10)) < 0.4), 1)
    g = Graph(labels=tuple(str(i) for i in range(10)), weights=w + w.T)
    rewired = rewire(g, 0.5, seed=5)
    assert rewired.edge_count() == g.edge_count()
    original = sorted(weight for _, _, weight in g.edges())
    moved = sorted(weight for _, _, weight in rewired.edges())
    assert original == moved


def test_rewire_zero_fraction_is_identity():
    g, _ = karate_club()
    assert np.array_equal(rewire(g, 0.0, seed=1).weights, g.weights)


def test_rewire_is_seed_deterministic():
    g, _ = karate_club()
    assert np.array_equal(rewire(g, 0.3, seed=9).weights, rewire(g, 0.3, seed=9).weights)


def test_rewire_of_a_complete_graph_returns_it():
    complete = graph_from_edges([str(i) for i in range(6)],
                                [(i, j) for i in range(6) for j in range(i + 1, 6)])
    for seed in range(5):
        assert np.array_equal(rewire(complete, 1.0, seed).weights, complete.weights)


def test_rewire_matches_the_edge_list_reference():
    rng = np.random.default_rng(4)
    weighted = np.triu(rng.random((15, 15)) * (rng.random((15, 15)) < 0.5), 1)
    graphs = [
        karate_club()[0],
        generate_dual_network(10, 0.4, 0.1, seed=3).graph,
        Graph(labels=tuple(str(i) for i in range(15)), weights=weighted + weighted.T),
        graph_from_edges(["a", "b", "c", "d"], [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)]),
        graph_from_edges(["a", "b"], [(0, 1, 2.5)]),
    ]
    for g in graphs:
        for fraction in (0.0, 0.02, 0.3, 0.75, 1.0):
            for seed in range(4):
                produced = rewire(g, fraction, seed).weights
                assert produced.tobytes() == reference_rewire(g.weights, fraction, seed).tobytes()


def test_rewire_validation():
    g, _ = karate_club()
    with pytest.raises(ValidationError):
        rewire(g, 1.5, seed=0)
    empty = Graph(labels=("a", "b"), weights=np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        rewire(empty, 0.5, seed=0)


def test_flip_edges_changes_at_most_count_edges():
    g, _ = karate_club()
    noisy = flip_edges(g, 3, seed=2)
    assert abs(noisy.edge_count() - 78) <= 3
    changed = int(np.count_nonzero(np.triu(noisy.weights != g.weights, 1)))
    assert changed <= 3
    assert np.array_equal(noisy.weights, flip_edges(g, 3, seed=2).weights)
    assert np.array_equal(flip_edges(g, 0, seed=2).weights, g.weights)


def test_flip_edges_matches_the_rebuild_per_flip_reference():
    club, _ = karate_club()
    weighted = np.zeros((12, 12))
    rng = np.random.default_rng(4)
    for i in range(12):
        for j in range(i + 1, 12):
            if rng.random() < 0.3:
                weighted[i, j] = weighted[j, i] = float(rng.integers(1, 5)) / 2.0
    cases = [
        (club, (0, 1, 28, 600)),  # 600 exceeds the club's 561 slots
        (Graph(labels=tuple("abcdefghijkl"), weights=weighted), (0, 7, 66, 100)),
        (graph_from_edges(["a", "b"], [(0, 1)]), (0, 1, 2, 5)),
        (graph_from_edges(["a"], []), (0, 3)),  # no slots at all
    ]
    for g, counts in cases:
        for count in counts:
            for seed in range(6):
                expected = rebuild_flip_edges(g.weights, count, seed)
                assert np.array_equal(flip_edges(g, count, seed).weights, expected)


def test_raw_draws_match_the_generator_calls():
    # k near 2**31 rejects about half of Lemire's products, so the redraw
    # branch runs; the club's k <= 561 almost never reaches it
    fixed = (1, 2, 3, 561, 2**31 + 1, 2**32 - 1)
    for seed in range(60):
        script = np.random.default_rng(seed + 1000)
        rng = np.random.default_rng(seed)
        draws = _RawDraws(seed)
        steps = 8 * _RAW_BLOCK  # several block refills
        for _ in range(steps):
            if script.random() < 0.4:
                assert draws.coin() == (rng.random() < 0.5)
            else:
                if script.random() < 0.7:
                    k = fixed[int(script.integers(len(fixed)))]
                else:
                    k = int(script.integers(1, 2**32))
                assert draws.below(k) == int(rng.integers(k)), (seed, k)


def test_flip_edges_matches_the_reference_across_blocks_and_fall_throughs():
    rng = np.random.default_rng(9)
    weighted = np.zeros((12, 12))
    for i in range(12):
        for j in range(i + 1, 12):
            if rng.random() < 0.4:
                weighted[i, j] = weighted[j, i] = float(rng.integers(3, 9)) / 2.0
    twelve = Graph(labels=tuple("abcdefghijkl"), weights=weighted)
    empty_three = Graph(labels=("a", "b", "c"), weights=np.zeros((3, 3)))
    readded = 0
    for seed in range(20):
        # each flip takes a whole word for its coin, so this outruns one block
        expected = rebuild_flip_edges(twelve.weights, 3 * _RAW_BLOCK, seed)
        assert flip_edges(twelve, 3 * _RAW_BLOCK, seed).weights.tobytes() == expected.tobytes()
        for count in (2, 5, 9):
            produced = flip_edges(twelve, count, seed).weights
            assert produced.tobytes() == rebuild_flip_edges(twelve.weights, count, seed).tobytes()
            # a weighted edge removed and added back returns with weight 1.0
            readded += int(np.count_nonzero((weighted > 0.0) & (produced == 1.0)))
        # three slots fill within three flips; later flips fall through
        for count in (3, 4, 10):
            produced = flip_edges(empty_three, count, seed).weights
            assert produced.tobytes() == rebuild_flip_edges(empty_three.weights, count, seed).tobytes()
    assert readded > 0


def test_noise_level_counts_flips_against_node_pairs(monkeypatch):
    counts = []

    def recording_flip_edges(g, count, seed):
        counts.append(count)
        return flip_edges(g, count, seed)

    monkeypatch.setattr(benchmarks, "flip_edges", recording_flip_edges)
    noise_benchmark([0.0, 0.05, 0.2], trials=1, seed=123, threads=1)
    # 34 nodes give 561 pairs: 5% is 28 flips, 20% is 112
    assert sorted(set(counts)) == [0, 28, 112]


def test_flip_edges_rejects_negative_count():
    g, _ = karate_club()
    with pytest.raises(ValidationError):
        flip_edges(g, -1, seed=0)


def test_index_reversal_operator_shape():
    op = index_reversal_operator(4)
    assert np.array_equal(op.matrix, np.fliplr(np.eye(4)))
    assert op.is_permutation()
    with pytest.raises(ValidationError):
        index_reversal_operator(0)


def test_fiedler_bipartition_accepts_graph_or_matrix():
    g = graph_from_edges(
        [str(i) for i in range(6)],
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
    )
    labels = fiedler_bipartition(g)
    assert len(set(labels[:3])) == 1 and len(set(labels[3:])) == 1
    assert labels[0] != labels[3]
    assert np.array_equal(labels, fiedler_bipartition(laplacian(g)))
    with pytest.raises(TooSmall):
        fiedler_bipartition(np.zeros((1, 1)))


def test_rmt_fallback_engages_on_club_graph():
    # the mean-eigenvalue cutoff sits above the whole club spectrum, so the
    # denoiser keeps nothing and the labels fall back to the raw bipartition
    g, _ = karate_club()
    assert np.array_equal(rmt_labels(g), fiedler_bipartition(g))
    rebuilt = rmt_denoise(g)
    assert np.array_equal(rebuilt, rebuilt.T)
    assert np.linalg.norm(rebuilt) == 0.0


def test_rewire_experiment_small_run():
    report = rewire_experiment(6, (0.5, 0.1), [0.0, 0.4], [1, 2, 3])
    assert len(report.rows) == 2
    assert report.rows[0][0] == 0.0
    assert report.rows[0][1] <= 1e-10  # true operator commutes before rewiring
    assert report.rows[0][2] >= 0.0
    assert report.sensitivity_true is not None
    assert report.config["seeds"] == "1;2;3"


def test_rewire_experiment_validation():
    with pytest.raises(ValidationError):
        rewire_experiment(6, (0.5, 0.1), [], [1])
    with pytest.raises(ValidationError):
        rewire_experiment(6, (0.5, 0.1), [0.4, 0.2], [1])
    with pytest.raises(ValidationError):
        rewire_experiment(6, (0.5, 0.1), [0.2], [])


def test_rewire_report_validation():
    with pytest.raises(ValidationError):
        RewireReport(
            rows=((0.2, 0.1, 0.1, 0.0), (0.1, 0.1, 0.1, 0.0)),
            sensitivity_true=None, sensitivity_index=None,
            sensitivity_modularity=None, config={},
        )
    with pytest.raises(ValidationError):
        RewireReport(
            rows=((0.0, 3.0, 0.1, 0.0),),
            sensitivity_true=None, sensitivity_index=None,
            sensitivity_modularity=None, config={},
        )


def test_rewire_report_formats_agree():
    report = rewire_experiment(5, (0.6, 0.1), [0.0, 0.5], [1, 2])
    csv_lines = [
        line for line in rewire_report_to_csv(report).splitlines()
        if line and not line.startswith("#")
    ]
    assert csv_lines[0] == "rewire_fraction,defect_true,defect_index,modularity"
    doc = json.loads(rewire_report_to_json(report))
    for line, row in zip(csv_lines[1:], doc["rows"]):
        assert [float(x) for x in line.split(",")] == [
            row["rewire_fraction"], row["defect_true"], row["defect_index"], row["modularity"]
        ]
    assert csv_lines[-1].startswith("sensitivity,")
    assert doc["sensitivity"]["defect_true"] == report.sensitivity_true


def test_noise_benchmark_small_run_and_thread_independence():
    serial = noise_benchmark([0.0, 0.1], trials=4, seed=11, threads=1)
    threaded = noise_benchmark([0.0, 0.1], trials=4, seed=11, threads=3)
    assert serial.rows == threaded.rows
    level0 = serial.rows[0]
    assert level0[0] == 0.0
    assert level0[1] == level0[3]  # RMT fallback reproduces the baseline exactly
    assert all(0.5 <= row[k] <= 1.0 for row in serial.rows for k in (1, 3, 5))
    assert all(row[2] >= 0.0 and row[7] >= 0 for row in serial.rows)


@pytest.mark.parametrize("seed", [1, 123, 286])
def test_noise_benchmark_matches_the_per_trial_reference(seed):
    # one decomposition per noisy graph must give the same bits as decomposing
    # it separately for the baseline, the RMT labels and their fallback
    levels = [0.0, 0.05, 0.2]
    expected = per_trial_noise_rows(levels, trials=6, seed=seed)
    if seed == 286:
        # a 5% draw keeps two eigenvalues above the cutoff: RMT leaves the fallback
        assert expected[1][3] != expected[1][1]
    for threads in (1, 3):
        assert noise_benchmark(levels, trials=6, seed=seed, threads=threads).rows == expected


@pytest.mark.parametrize("threads", [1, 3])
def test_noise_levels_without_flips_compute_one_cell(monkeypatch, threads):
    # 0.001 of the club's 561 pairs also floors to 0 flips
    levels = [0.0, 0.05, 0.001]
    expected = per_trial_noise_rows(levels, trials=5, seed=7)
    calls = []
    original = benchmarks._noise_trial

    def counted(clean, operator, count, seed, level_index, trial_index):
        calls.append((level_index, trial_index))
        return original(clean, operator, count, seed, level_index, trial_index)

    monkeypatch.setattr(benchmarks, "_noise_trial", counted)
    report = noise_benchmark(levels, trials=5, seed=7, threads=threads)
    assert report.rows == expected
    assert sorted(calls) == [(0, 0)] + [(1, t) for t in range(5)] + [(2, 0)]
    assert report.rows[0][7] == report.rows[2][7] == 0


def double_star(m: int, bridged: bool) -> Graph:
    """Two m-leaf stars, hubs joined when bridged: two eigenvalues above the cutoff."""
    edges = [(0, k) for k in range(2, m + 2)] + [(1, k) for k in range(m + 2, 2 * m + 2)]
    if bridged:
        edges.append((0, 1))
    return graph_from_edges([str(i) for i in range(2 * m + 2)], edges)


def test_rmt_labels_without_fallback_match_the_reference():
    g = double_star(12, bridged=True)
    labels = rmt_labels(g)
    assert np.array_equal(labels, reference_rmt_labels(laplacian(g)))
    # the surviving component is not the Fiedler vector here
    assert not np.array_equal(labels, fiedler_bipartition(g))


def test_rmt_labels_require_a_connected_graph():
    with pytest.raises(DisconnectedGraph):
        rmt_labels(double_star(12, bridged=False))
    with pytest.raises(DisconnectedGraph):
        rmt_labels(Graph(labels=("a", "b"), weights=np.zeros((2, 2))))
    with pytest.raises(TooSmall):
        rmt_labels(Graph(labels=("a",), weights=np.zeros((1, 1))))


def test_noise_benchmark_validation():
    with pytest.raises(ValidationError):
        noise_benchmark([1.5], trials=1, seed=0)
    with pytest.raises(ValidationError):
        noise_benchmark([0.0], trials=0, seed=0)


def test_noise_report_validation():
    with pytest.raises(ValidationError):
        NoiseBenchmarkReport(
            rows=((0.0, 0.4, 0.0, 0.9, 0.0, 0.9, 0.0, 0),), trials=1, config={}
        )


def test_noise_report_formats_agree():
    report = noise_benchmark([0.0], trials=2, seed=5, threads=1)
    csv_lines = [
        line for line in noise_report_to_csv(report).splitlines()
        if line and not line.startswith("#")
    ]
    header = csv_lines[0].split(",")
    doc = json.loads(noise_report_to_json(report))
    values = [float(x) if "." in x else int(x) for x in csv_lines[1].split(",")]
    assert values == [doc["rows"][0][key] for key in header]


def test_karate_baseline_accuracy_is_32_of_34():
    g, truth = karate_club()
    assert accuracy(fiedler_bipartition(g), truth) == pytest.approx(32 / 34, abs=1e-12)


def test_table_one_row_zero_defects():
    # fraction 0 leaves the mirror exact; the blind index pairing stays high
    report = rewire_experiment(20, (0.4, 0.1), [0.0], [1, 2, 3])
    assert report.rows[0][1] <= 1e-10
    assert report.rows[0][2] >= 0.3
    assert report.sensitivity_true is None  # one row cannot support a slope
