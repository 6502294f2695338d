"""Synthetic dual networks, perturbations, club-graph benchmark, reports."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import (
    RAW_BLOCK,
    RawDraws,
    block_form_fiedler,
    column_loop_eig,
    double_sum_modularity,
    loop_dual_network,
    mean_accuracy,
    noise_rows_from_cells,
    per_trial_noise_cells,
    per_trial_noise_rows,
    raw_draw_plan,
    rebuild_flip_edges,
    reference_rewire,
    reference_rmt_labels,
    rounding_level,
)
from prism import benchmarks, graphs
from prism.benchmarks import (
    KARATE_FACTIONS,
    NoiseBenchmarkReport,
    RewireReport,
    _accuracies,
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
    rewire,
    rewire_experiment,
    rewire_report_to_csv,
    rewire_report_to_json,
    rmt_labels,
)
from prism.duality import duality_defect
from prism.errors import (
    DegenerateGraph,
    DisconnectedGraph,
    LengthMismatch,
    NonBinary,
    NonFinite,
    TooSmall,
    ValidationError,
    ZeroEdges,
)
from prism.duality import commutant_projection
from prism.graphs import Graph, fiedler_vector, graph_from_edges, is_connected, laplacian
from prism.learn import fiedler_duality_operator


def test_child_seed_is_deterministic_and_path_sensitive():
    assert child_seed(3, 1, 4) == child_seed(3, 1, 4)
    # every component matters: trial, level, and resample attempt all reseed
    assert child_seed(3, 1, 4) != child_seed(3, 1, 5)
    assert child_seed(3, 1, 4) != child_seed(3, 2, 4)
    assert child_seed(3, 1, 4) != child_seed(4, 1, 4)
    assert child_seed(123, 2, 7, 0) != child_seed(123, 2, 7, 1)


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


@pytest.mark.parametrize("n", [22, 24, 34])
def test_accuracy_scores_a_labelling_and_its_complement_the_same_bits(n):
    truth = np.arange(n) % 2
    for count in range(n + 1):
        labels = np.where(np.arange(n) < count, truth, 1 - truth)  # count agreements
        scores = _accuracies(np.array([labels, 1 - labels]), truth)
        assert scores[0] == scores[1] == max(count, n - count) / n


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 0/0 for empty labels
def test_accuracy_of_empty_0d_and_2d_labels():
    assert math.isnan(accuracy([], []))
    assert accuracy(np.array(1), np.array(0)) == 1.0
    assert accuracy([[0, 1], [1, 1]], [[0, 1], [0, 0]]) == 0.5
    with pytest.raises(LengthMismatch):
        accuracy([[0, 1]], [0, 1])


def test_accuracies_match_accuracy_row_by_row():
    truth = np.array(KARATE_FACTIONS)
    rng = np.random.default_rng(3)
    rows = [
        truth, 1 - truth,  # exact and swapped
        np.zeros(34, dtype=int), np.ones(34, dtype=int),  # all equal
        np.where(np.arange(34) % 2 == 0, truth, 1 - truth),  # a 0.5 split
        # every agreement count, c = 7, 10 and 12 among them, where the float
        # 1 - c/34 differs from (34 - c)/34 in the last bit
        *(np.where(np.arange(34) < c, truth, 1 - truth) for c in range(35)),
        *rng.integers(0, 2, size=(20, 34)),
    ]
    stack = np.array(rows, dtype=np.int8).reshape(3, 20, 34)
    scores = _accuracies(stack, truth)
    assert scores.shape == (3, 20)
    for index in np.ndindex(3, 20):
        assert scores[index] == accuracy(stack[index], truth) == mean_accuracy(stack[index], truth)
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


def test_generate_dual_network_builds_no_laplacian(monkeypatch):
    # swap invariance is checked on the weights' quarter blocks
    built = []
    laplacians = graphs._laplacians

    def counting_laplacians(weights):
        built.append(len(weights))
        return laplacians(weights)

    monkeypatch.setattr(graphs, "_laplacians", counting_laplacians)
    monkeypatch.setattr(benchmarks, "_laplacians", counting_laplacians)
    for m, seed in ((3, 0), (8, 2), (250, 7)):
        generate_dual_network(m, seed=seed)
    assert built == []


def test_a_broken_mirror_raises_degenerate_graph():
    net = generate_dual_network(8, seed=2)
    benchmarks._check_swap_invariance(net.graph, net.true_operator)
    w = np.array(net.graph.weights)
    for i, j in ((0, 1), (0, 9), (9, 10)):  # inside A, across, inside B
        broken = w.copy()
        broken[i, j] = broken[j, i] = 1.0 + (w[i, j] != 0.0)  # a new weight or a new edge
        g = Graph(labels=net.graph.labels, weights=broken)
        defect = duality_defect(laplacian(g), net.true_operator)
        assert defect > 0.0
        with pytest.raises(DegenerateGraph, match=f"defect {defect:.3e}"):
            benchmarks._check_swap_invariance(g, net.true_operator)


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


@pytest.mark.parametrize("group_size, fractions", [(250, (0.02, 0.05)),
                                                   (50, (0.02, 0.05, 0.4, 0.9))])
def test_rewire_matches_the_edge_list_reference_on_mirror_networks(group_size, fractions):
    # rejected draws use up each batch of endpoints, so every rewire draws more batches
    for seed in (7, 8):
        g = generate_dual_network(group_size, 0.4, 0.1, seed).graph
        for fraction in fractions:
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
        draws = RawDraws(np.random.PCG64(seed).random_raw)
        steps = 8 * RAW_BLOCK  # several block refills
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
        # long runs: 192 flips, planned from 288 raw words
        expected = rebuild_flip_edges(twelve.weights, 3 * RAW_BLOCK, seed)
        assert flip_edges(twelve, 3 * RAW_BLOCK, seed).weights.tobytes() == expected.tobytes()
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


def scripted_raw(prefix: list[int], seed: int):
    """PCG64(seed)'s random_raw with the words of prefix read first."""
    tail = np.random.PCG64(seed).random_raw
    pending = list(prefix)

    def raw(k: int) -> np.ndarray:
        head = pending[:k]
        del pending[:k]
        return np.array(head + tail(k - len(head)).tolist(), dtype=np.uint64)

    return raw


ADD, REMOVE = 1 << 63, 0  # coin words: random() < 0.5 fails and holds


@pytest.mark.parametrize("edges, slots, prefix, count", [
    # flip 0 adds at 483 empty slots; the low half 0 is rejected (below
    # 2**32 % 483 = 403) and the same word's high half 7 is drawn instead
    (78, 561, [ADD, 7 << 32], 40),
    # flip 1's buffered high half 0 is rejected and a fresh word's low half redrawn
    (78, 561, [REMOVE, 12345, REMOVE], 40),
    # a list of size 1 draws no half, then removing from no edges falls through
    (1, 10, [REMOVE, REMOVE, REMOVE], 12),
    (0, 3, [REMOVE], 10),
    (3, 3, [ADD, ADD], 10),
    (0, 0, [], 5),  # no slots: the plan ends at once
    # sizes near 2**30 reject about one Lemire product in four
    (2**30, 2**31 + 1, [], 300),
])
def test_flip_plans_match_the_raw_draws_on_scripted_words(edges, slots, prefix, count):
    seeds = range(6)
    plans = benchmarks._flip_plans([scripted_raw(prefix, s) for s in seeds], count, edges, slots)
    for seed, plan in zip(seeds, plans):
        assert plan == raw_draw_plan(scripted_raw(prefix, seed), count, edges, slots)


def test_noise_level_counts_flips_against_node_pairs(monkeypatch):
    counts = []
    original = benchmarks._flip_chunk

    def recording_flip_chunk(weights, count, seeds):
        counts.append(count)
        return original(weights, count, seeds)

    monkeypatch.setattr(benchmarks, "_flip_chunk", recording_flip_chunk)
    noise_benchmark([0.0, 0.05, 0.2], trials=1, seed=123)
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
    # the mean-eigenvalue cutoff sits above the whole club spectrum, so no
    # eigenvalue survives and the labels fall back to the raw bipartition
    g, _ = karate_club()
    assert np.array_equal(rmt_labels(g), fiedler_bipartition(g))


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


def test_noise_benchmark_small_run():
    report = noise_benchmark([0.0, 0.1], trials=4, seed=11)
    level0 = report.rows[0]
    assert level0[0] == 0.0
    assert level0[1] == level0[3]  # RMT fallback reproduces the baseline exactly
    assert all(0.5 <= row[k] <= 1.0 for row in report.rows for k in (1, 3, 5))
    assert all(row[2] >= 0.0 and row[7] >= 0 for row in report.rows)


@pytest.mark.parametrize("seed", [1, 123, 286])
def test_noise_benchmark_matches_the_per_trial_reference(seed):
    # one decomposition per noisy graph must give the same bits as decomposing
    # it separately for the baseline, the RMT labels and their fallback
    levels = [0.0, 0.05, 0.2]
    expected = per_trial_noise_rows(levels, trials=6, seed=seed)
    if seed == 286:
        # a 5% draw keeps two eigenvalues above the cutoff: RMT leaves the fallback
        assert expected[1][3] != expected[1][1]
    assert noise_benchmark(levels, trials=6, seed=seed).rows == expected


@pytest.mark.parametrize("chunk", [1, 3])
def test_noise_levels_without_flips_compute_one_cell(monkeypatch, chunk):
    # 0.001 of the club's 561 pairs also floors to 0 flips; chunks of 1 and 3
    # trials split the 5 trials of a level with flips into 5 and 2 chunks
    monkeypatch.setattr(benchmarks, "NOISE_CHUNK", chunk)
    levels = [0.0, 0.05, 0.001]
    expected = per_trial_noise_rows(levels, trials=5, seed=7)
    calls = []
    original = benchmarks._flip_chunk
    # a cell's first draw has the seed child_seed(7, level, trial, 0); a resample
    # redraws the same cell with a later attempt
    first_draws = {child_seed(7, li, ti, 0): (li, ti) for li in range(3) for ti in range(5)}

    def counted(weights, count, seeds):
        calls.extend(first_draws[seed] for seed in seeds if seed in first_draws)
        return original(weights, count, seeds)

    monkeypatch.setattr(benchmarks, "_flip_chunk", counted)
    report = noise_benchmark(levels, trials=5, seed=7)
    assert report.rows == expected
    assert sorted(calls) == [(0, 0)] + [(1, t) for t in range(5)] + [(2, 0)]
    assert report.rows[0][7] == report.rows[2][7] == 0


def test_noise_kernel_matches_the_per_trial_reference_across_chunks():
    # with C = NOISE_CHUNK, 1, C, C + 1 and 2C + 1 trials fill one chunk partly,
    # one chunk fully, one full chunk and a partial one, and three chunks; at 0.5
    # and 1.0 many draws are disconnected and resampled
    levels = [0.0, 0.001, 0.5, 1.0]
    chunk = benchmarks.NOISE_CHUNK
    cells = per_trial_noise_cells(levels, 2 * chunk + 1, seed=5)
    for trials in (1, chunk, chunk + 1, 2 * chunk + 1):
        expected = noise_rows_from_cells(levels, cells, trials)
        assert noise_benchmark(levels, trials, seed=5).rows == expected
    # the first chunk of level 0.5 redraws some of its trials but not all
    attempts = [attempt for _, attempt in cells[2][:chunk]]
    assert any(attempts) and 0 in attempts


def raise_singular(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


def return_nan(a, b):
    return np.full(b.shape, np.nan)


@pytest.mark.parametrize("failing_solve", [raise_singular, return_nan])
def test_noise_kernel_takes_eigh_where_every_solve_fails(monkeypatch, sign_fallbacks,
                                                         failing_solve):
    levels = [0.0, 0.05, 0.2]
    expected = per_trial_noise_rows(levels, trials=6, seed=123)
    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    assert noise_benchmark(levels, trials=6, seed=123).rows == expected
    # every Laplacian (one for the flip-free level) and every chosen block took eigh
    assert sorted(len(r) for r in sign_fallbacks if r.shape[-1] == 34) == [1, 6, 6]
    assert sum(len(r) for r in sign_fallbacks if r.shape[-1] == 17) == 13


def test_noise_benchmark_peak_memory_stays_within_two_chunks_a_level():
    # measured 0.82 MB at 25-trial chunks, 0.63 MB at 16 and 1.58 MB at 50
    levels = [0.0, 0.02, 0.05, 0.1, 0.15, 0.2]
    noise_benchmark(levels, 50, 123)  # leaves first-call allocations out of the peak
    tracemalloc.start()
    try:
        noise_benchmark(levels, 50, 123)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1e6


def test_noise_kernel_redraws_only_the_disconnected_trial(monkeypatch):
    # the first draw of trial 5 (inside the first chunk) and of trial 16 (the
    # last chunk, alone) is made disconnected; both routes must redraw these
    # trials and no other
    forced = {child_seed(9, 0, 5, 0), child_seed(9, 0, 16, 0)}

    def isolating(flip):
        def flipped(weights, count, seed):
            w = np.array(flip(weights, count, seed))
            if seed in forced:
                w[0, :] = w[:, 0] = 0.0
            return w
        return flipped

    draws = []
    original = benchmarks._flip_chunk

    def recorded(weights, count, seeds):
        draws.extend(seeds)
        return original(weights, count, seeds)

    def isolated(weights, count, seeds):
        stack = recorded(weights, count, seeds)
        for w, seed in zip(stack, seeds):
            if seed in forced:
                w[0, :] = w[:, 0] = 0.0
        return stack

    first = {child_seed(9, 0, t, 0) for t in range(17)}
    monkeypatch.setattr(benchmarks, "_flip_chunk", recorded)
    unforced = noise_benchmark([0.05], 17, seed=9).rows
    natural = set(draws) - first
    monkeypatch.setattr(oracles, "rebuild_flip_edges", isolating(oracles.rebuild_flip_edges))
    expected = per_trial_noise_rows([0.05], 17, seed=9)
    assert expected[0][7] == unforced[0][7] + 2
    monkeypatch.setattr(benchmarks, "_flip_chunk", isolated)
    draws.clear()
    assert noise_benchmark([0.05], 17, seed=9).rows == expected
    assert set(draws) - first == natural | {child_seed(9, 0, 5, 1), child_seed(9, 0, 16, 1)}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_noise_kernel_raises_the_first_failing_trials_error(monkeypatch):
    # trial 4's degrees overflow, which only the eigendecomposition's check
    # sees; trials 7 and 17 fail Graph's checks, an earlier stage of the kernel
    original = benchmarks._flip_chunk

    def corrupted(weights, count, seeds):
        stack = original(weights, count, seeds)
        for w, seed in zip(stack, seeds):
            if seed == child_seed(4, 0, 4, 0):
                w[1, 2:4] = w[2:4, 1] = 1e308
            elif seed == child_seed(4, 0, 7, 0):
                w[1, 2] = -1.0
            elif seed == child_seed(4, 0, 17, 0):
                w[1, 2] = w[2, 1] = np.nan
        return stack

    monkeypatch.setattr(benchmarks, "_flip_chunk", corrupted)
    with pytest.raises(NonFinite, match="^matrix contains non-finite entries$"):
        noise_benchmark([0.05], 20, seed=4)


def test_noise_kernel_gives_up_after_the_attempt_limit(monkeypatch):
    def empty(weights, count, seeds):
        return np.zeros((len(seeds),) + weights.shape)

    monkeypatch.setattr(benchmarks, "_flip_chunk", empty)
    with pytest.raises(DegenerateGraph, match="in 1000 attempts"):
        noise_benchmark([0.05], 2, seed=4)


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
    with pytest.raises(ValidationError, match="^noise levels must be nonempty$"):
        noise_benchmark([], trials=50, seed=123)


def test_noise_report_validation():
    with pytest.raises(ValidationError):
        NoiseBenchmarkReport(
            rows=((0.0, 0.4, 0.0, 0.9, 0.0, 0.9, 0.0, 0),), trials=1, config={}
        )


def test_noise_report_formats_agree():
    report = noise_benchmark([0.0], trials=2, seed=5)
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


@pytest.mark.parametrize("call", [
    lambda club: noise_benchmark([0.05], 2, -1),
    lambda club: flip_edges(club, 3, -1),
    lambda club: rewire(club, 0.1, -1),
    lambda club: generate_dual_network(4, seed=-1),
    lambda club: rewire_experiment(4, (0.5, 0.1), [0.0], [1, -1]),
], ids=["noise_benchmark", "flip_edges", "rewire", "generate_dual_network", "rewire_experiment"])
def test_negative_seeds_raise_validation_error(call):
    club, _ = karate_club()
    with pytest.raises(ValidationError, match="^seed must be nonnegative, got -1$"):
        call(club)


def test_club_fiedler_pairing_is_pinned_with_its_rounding_ordered_ties():
    # Inside each group the Fiedler entries are equal up to a few ulp, so
    # their ranks, and the pairing built from them, are decided by rounding
    # (node 14 is one ulp below the other four of its group). A numpy or
    # LAPACK change that reorders them fails here instead of silently
    # rewriting every karate-noise row.
    club, _ = karate_club()
    assert tuple(fiedler_duality_operator(club).sigma.tolist()) == (
        22, 33, 9, 32, 18, 29, 14, 27, 30, 2, 15, 20, 25, 31, 6, 10, 26, 24, 4, 28, 11, 23,
        0, 21, 17, 12, 16, 7, 19, 5, 8, 13, 3, 1,
    )
    v = fiedler_vector(club)
    for group in ((14, 15, 18, 20, 22), (17, 21), (4, 10), (5, 6)):
        entries = v[list(group)]
        assert np.ptp(entries) <= 1e-14 and len(set(entries.tolist())) > 1, group


AUDIT_LEVELS = (0.0, 0.02, 0.05, 0.1, 0.15, 0.2)


@pytest.fixture(scope="module")
def audit_set() -> tuple:
    """1000 connected noisy club graphs, the kernel's own draws at four seeds.

    Default levels 1-5 with 50 trials each, at seeds 123, 124, 5 and 7001.
    One ((seed, level index), Laplacians, projections) entry per level.
    """
    clean, _ = karate_club()
    operator = fiedler_duality_operator(clean)
    entries = []
    for seed in (123, 124, 5, 7001):
        for li in range(1, len(AUDIT_LEVELS)):
            laps = []
            for trial in range(50):
                for attempt in range(1000):
                    noisy = flip_edges(clean, math.floor(AUDIT_LEVELS[li] * 561),
                                       child_seed(seed, li, trial, attempt))
                    if is_connected(noisy):
                        break
                laps.append(laplacian(noisy))
            projected = [commutant_projection(lap, operator).projected for lap in laps]
            entries.append(((seed, li), np.array(laps), np.array(projected)))
    return tuple(entries)


def test_block_form_labels_match_full_eigh_labels_away_from_rounding_level_entries(audit_set):
    # The projection's Fiedler labels from the block form and from a full eigh
    # agree up to complement at every entry that is not at rounding level in
    # either vector, over the audit set.
    operator = fiedler_duality_operator(karate_club()[0])
    graphs, near_entries, differing = 0, 0, {}
    for (seed, li), _, projected in audit_set:
        block = benchmarks._projected_fiedler(projected, operator.sigma)
        for trial, (m, v_block) in enumerate(zip(projected, block)):
            v_full = column_loop_eig(m)[1][:, 1]
            near = rounding_level(v_full) | rounding_level(v_block)
            same = (v_full >= 0.0) == (v_block >= 0.0)
            assert same[~near].all() or not same[~near].any(), (seed, li, trial)
            graphs += 1
            near_entries += int(near.sum())
            if not (same.all() or not same.any()):
                differing[(seed, li, trial)] = int(near.sum())
    assert graphs == 1000
    # Two graphs have rounding-level entries, a V- pair each (the pair's
    # entries are zero in exact arithmetic), and their labels differ beyond
    # complement there. One is trial 20 of seed 123's 5% level: criterion 5's
    # projected mean there moved from 0.9429... to 0.9435... with the block form.
    assert near_entries == 4
    assert differing == {(123, 2, 20): 2, (5, 3, 6): 2}


TIED_SIGMA = np.array([3, 4, 5, 0, 1, 2])


def tied_sector_matrix(seed: int) -> np.ndarray:
    """A 6-node matrix in the commutant of the pairs (0, 3), (1, 4), (2, 5).

    Its V+ block has eigenvalues 0, 1, 3 and its V- block 1, 2, 5, each in a
    random basis, so the Fiedler value 1 is tied across the sectors in exact
    arithmetic and rounding decides the sector.
    """
    rng = np.random.default_rng(seed)
    basis = np.zeros((6, 6))
    for p, (a, b) in enumerate([(0, 3), (1, 4), (2, 5)]):
        basis[[a, b], p] = 1.0 / math.sqrt(2.0)
        basis[a, 3 + p], basis[b, 3 + p] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    blocks = np.zeros((6, 6))
    for rows, spectrum in ((slice(0, 3), [0.0, 1.0, 3.0]), (slice(3, 6), [1.0, 2.0, 5.0])):
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        blocks[rows, rows] = q @ np.diag(spectrum) @ q.T
    m = basis @ blocks @ basis.T
    m = (m + m.T) / 2.0
    return (m + m[TIED_SIGMA][:, TIED_SIGMA]) / 2.0  # exactly in the commutant


def test_a_near_tie_between_the_sectors_is_decided_by_eighs_values():
    # eigvalsh's and eigh's V- values order the tie differently at some seeds;
    # the block form must pick the sector as eigh's values do
    reordered = 0
    for seed in range(40):
        m = tied_sector_matrix(seed)
        plus, minus, _, _ = benchmarks._commutant_blocks(m, TIED_SIGMA)
        v_plus = np.linalg.eigvalsh(plus)[1]
        reordered += (v_plus <= np.linalg.eigvalsh(minus)[0]) != (
            v_plus <= np.linalg.eigh(minus)[0][0])
        block = benchmarks._projected_fiedler(m[None], TIED_SIGMA)[0]
        assert np.array_equal(block >= 0.0, block_form_fiedler(m, TIED_SIGMA) >= 0.0), seed
    assert reordered > 0


def test_certified_sign_labels_equal_eigh_labels_on_the_audit_set(audit_set, sign_fallbacks):
    # The kernel's baseline labels equal those of _signed_eigh's Fiedler column,
    # and its projected labels those of an eigh of the chosen block, on every
    # graph of the audit set. Only two blocks leave the certificate unproved,
    # the two whose exact vector has a zero pair (see the test above), and no
    # Laplacian does.
    clean, _ = karate_club()
    operator = fiedler_duality_operator(clean)
    rejected = []
    for (seed, li), laps, projected in audit_set:
        count = math.floor(AUDIT_LEVELS[li] * 561)
        sign_fallbacks.clear()
        labels, _ = benchmarks._noise_chunk(clean, operator, count, seed, li, range(50))
        eigh_labels = graphs._signed_eigh(laps, slice(1, 2))[1][:, :, 0] >= 0.0
        assert np.array_equal(labels[:, 0], eigh_labels), (seed, li)
        block_labels = [block_form_fiedler(m, operator.sigma) >= 0.0 for m in projected]
        assert np.array_equal(labels[:, 2], block_labels), (seed, li)
        assert all(len(r) == 0 for r in sign_fallbacks if r.shape[-1] == clean.n)
        plus, minus, _, _ = benchmarks._commutant_blocks(projected, operator.sigma)
        for r in sign_fallbacks:
            if r.shape[-1] == clean.n:
                continue
            for m in r:
                same = (plus == m).all(axis=(1, 2)) | (minus == m).all(axis=(1, 2))
                rejected += [(seed, li, int(trial)) for trial in np.flatnonzero(same)]
    assert rejected == [(123, 2, 20), (5, 3, 6)]
