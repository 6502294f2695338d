"""Top-level acceptance checks, one test per shipped guarantee.

Each test times itself against the budget it promises. The noise-robustness
test collects every violated clause before failing so the report shows the
full picture, not just the first miss.
"""

from __future__ import annotations

import time

import numpy as np
from click.testing import CliRunner

from conftest import UNIVERSE_CSV
from oracles import (
    best_match_count,
    central_fd_gradient,
    eigenbasis_projection,
    loop_rolling_series,
    penalized_objective,
    per_trial_noise_rows,
    random_involution,
)
from prism.benchmarks import (
    NoiseBenchmarkReport,
    generate_dual_network,
    karate_club,
    noise_benchmark,
    noise_report_to_csv,
    rewire_experiment,
)
from prism.cli import main
from prism.duality import (
    commutant_projection,
    duality_defect,
    save_operator,
    validate_involution,
)
from prism.finance import (
    communities,
    community_report_to_csv,
    event_study,
    event_study_to_csv,
    load_prices,
    log_returns,
    rolling_defect,
    rolling_series_to_csv,
    window_defect,
)
from prism.fixtures import generate_universe_csv
from prism.graphs import graph_from_edges, laplacian, save_graph
from prism.learn import (
    AlternatingConfig,
    _objective_and_gradient,
    alternate,
    fiedler_duality_operator,
)
from test_finance import panel_from_returns


def test_criterion_1_exact_symmetry_zero_defect():
    start = time.perf_counter()
    for seed in range(1, 11):
        net = generate_dual_network(20, seed=seed)
        defect = duality_defect(laplacian(net.graph), net.true_operator)
        assert defect <= 1e-10, f"seed {seed}: defect {defect}"
    assert time.perf_counter() - start < 1.0


def test_criterion_2_projection_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    kinds = ("pairing", "reflection", "dense")
    for trial in range(500):
        n = int(rng.integers(2, 33))
        a = rng.standard_normal((n, n))
        lap = (a + a.T) / 2.0
        operator = validate_involution(random_involution(rng, n, kinds[trial % 3]))
        result = commutant_projection(lap, operator)
        oracle = eigenbasis_projection(lap, operator.matrix)
        assert np.linalg.norm(result.projected - oracle) <= 1e-8
        assert result.defect_after <= 1e-9
        lap_sq = np.linalg.norm(lap) ** 2
        parts = np.linalg.norm(result.projected) ** 2 + np.linalg.norm(lap - result.projected) ** 2
        assert abs(lap_sq - parts) <= 1e-8 * lap_sq
        commutator = np.linalg.norm(lap @ operator.matrix - operator.matrix @ lap)
        residual = 2.0 * np.linalg.norm(lap - result.projected)
        assert abs(commutator - residual) <= 1e-8 * max(1.0, commutator)
    assert time.perf_counter() - start < 10.0


def test_criterion_3_sensitivity_separation():
    start = time.perf_counter()
    report = rewire_experiment(20, (0.4, 0.1), [0.0, 0.2, 0.4, 0.6, 0.8], list(range(1, 21)))
    assert report.sensitivity_true / report.sensitivity_index >= 2.0
    assert 0.35 <= report.sensitivity_true <= 0.85
    true_defects = [row[1] for row in report.rows]
    assert all(b >= a - 1e-12 for a, b in zip(true_defects, true_defects[1:]))
    assert report.rows[0][2] >= 0.3  # index-reversal defect on the unrewired graph
    assert time.perf_counter() - start < 10.0


def test_criterion_4_karate_clean_recovery():
    start = time.perf_counter()
    report = noise_benchmark([0.0], 1, 123)
    _, baseline_mean, _, _, _, prism_mean, _, _ = report.rows[0]
    assert abs(baseline_mean - 32 / 34) <= 1 / 34 + 1e-12
    assert prism_mean >= 33 / 34 - 1e-12
    again = noise_benchmark([0.0], 1, 123)
    assert noise_report_to_csv(again) == noise_report_to_csv(report)
    assert time.perf_counter() - start < 1.0


def test_criterion_5_noise_robustness():
    start = time.perf_counter()
    levels = [0.0, 0.02, 0.05, 0.1, 0.15, 0.2]
    report = noise_benchmark(levels, 50, 123)
    by_level = {row[0]: row for row in report.rows}
    violations = []
    _, base5, _, _, _, prism5, _, _ = by_level[0.05]
    if prism5 - base5 < 0.10:
        violations.append(
            f"at 5% noise the margin over the baseline is {prism5 - base5:+.4f}, below +0.10"
        )
    if not 0.85 <= prism5 <= 1.0:
        violations.append(f"at 5% noise mean accuracy {prism5:.4f} outside [0.85, 1.0]")
    for level, base_mean, _, rmt_mean, _, prism_mean, _, _ in report.rows:
        if prism_mean < base_mean - 1e-12:
            violations.append(f"at {level:.0%} projection underperforms baseline")
        if rmt_mean > base_mean + 1e-12:
            violations.append(f"at {level:.0%} spectral denoising beats baseline")
    assert not violations, "; ".join(violations)
    assert time.perf_counter() - start < 60.0


def test_criterion_6_alternating_optimization():
    start = time.perf_counter()
    clean, _ = karate_club()
    lap = laplacian(clean)
    config = AlternatingConfig()
    result = alternate(lap, fiedler_duality_operator(clean), config)
    trajectory = result.defect_trajectory
    assert all(b <= a + 1e-9 for a, b in zip(trajectory, trajectory[1:]))
    assert result.converged or result.iterations == config.max_outer_iterations
    assert trajectory[-1] <= trajectory[0] + 1e-12

    rng = np.random.default_rng(66)
    for _ in range(100):
        a = rng.standard_normal((6, 6))
        lp = (a + a.T) / 2.0
        p = rng.standard_normal((6, 6))
        _, grad = _objective_and_gradient(p.ravel(), lp, 10.0, 6)
        fd = central_fd_gradient(lambda m: penalized_objective(m, lp, 10.0), p).ravel()
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(fd))
    assert time.perf_counter() - start < 10.0


def test_criterion_7_finance_pipeline(tmp_path, universe_returns, universe_config):
    start = time.perf_counter()

    # (a) paired identical return streams commute exactly with their mirror
    rng = np.random.default_rng(51)
    a = rng.standard_normal(120) * 0.01
    b = rng.standard_normal(120) * 0.01
    mirror_panel = panel_from_returns(np.column_stack([a, a, a, b, b, b]))
    assert window_defect(mirror_panel, mirror_panel.dates[-1], 120) <= 1e-9

    # (b) injecting a one-sector decorrelation raises the defect strictly
    shipped_defect = window_defect(universe_returns, "2021-02-25", 60)
    variant = dict(
        universe_config,
        shocks=[{"type": "decorrelate_sector", "sector": "TEC", "start": 270, "end": 300}],
    )
    variant_path = tmp_path / "asymmetric_universe.csv"
    variant_path.write_text(generate_universe_csv(variant), encoding="utf-8")
    variant_defect = window_defect(log_returns(load_prices(variant_path)), "2021-02-25", 60)
    assert variant_defect > shipped_defect

    # (c) the correlation spike: correlation up, defect down, for every window
    study = event_study(universe_returns, [("SPIKE", "2021-12-24")])
    assert study.flags == ()
    assert len(study.deltas) == 2
    for _, _, delta_defect, delta_corr in study.deltas:
        assert delta_defect < 0.0
        assert delta_corr > 0.0

    # (d) six communities on a long window recover at least 80% of the sectors
    report = communities(universe_returns, "2021-10-01", 450, k=6)
    predicted = {}
    for cid, members, _ in report.communities:
        for name in members:
            predicted[name] = cid
    names = sorted(predicted)
    matched = best_match_count([name[:3] for name in names], [predicted[n] for n in names])
    assert matched >= 0.8 * len(names), f"only {matched}/{len(names)} sector-consistent"

    # (e) every report serializes to identical bytes when recomputed, and the
    # batched rolling records are bitwise those of each window computed alone
    rolling = rolling_defect(universe_returns, 60, 20)
    assert rolling_series_to_csv(rolling) == rolling_series_to_csv(
        rolling_defect(universe_returns, 60, 20)
    )
    reference = loop_rolling_series(universe_returns, 60, 20)
    assert repr(rolling.records) == repr(reference.records)
    assert community_report_to_csv(
        communities(universe_returns, "2021-10-01", 450, k=6)
    ) == community_report_to_csv(report)
    assert event_study_to_csv(
        event_study(universe_returns, [("SPIKE", "2021-12-24")])
    ) == event_study_to_csv(study)
    assert time.perf_counter() - start < 30.0


def test_criterion_8_cli_determinism(tmp_path):
    start = time.perf_counter()
    runner = CliRunner()

    graph_path = tmp_path / "path4.txt"
    save_graph(graph_from_edges(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)]), graph_path)
    swap = np.eye(4)[[1, 0, 2, 3]]
    operator_path = tmp_path / "swap.txt"
    save_operator(validate_involution(swap), operator_path)

    def run(args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, f"{args}: {result.output}"
        return result.output

    single_pass = [
        ["defect", str(graph_path), "--operator", str(operator_path)],
        ["learn", str(graph_path)],
        ["export-operator", str(graph_path)],
        ["synth-rewire", "--group-size", "6", "--fractions", "0,0.3", "--seeds", "1-4"],
        ["finance", "window", "--prices", str(UNIVERSE_CSV), "--date", "2021-02-25"],
        ["finance", "communities", "--prices", str(UNIVERSE_CSV),
         "--date", "2021-02-25", "--window", "120", "--k", "4"],
        ["finance", "events", "--prices", str(UNIVERSE_CSV), "--events", "SPIKE:2021-12-24",
         "--offsets", "-30,0", "--window-lens", "60"],
    ]
    for args in single_pass:
        assert run(args) == run(args), f"reran {args} and got different bytes"

    out_a, out_b = tmp_path / "proj_a.txt", tmp_path / "proj_b.txt"
    project = ["project", str(graph_path), "--operator", str(operator_path)]
    summary_a = run(project + ["--out-matrix", str(out_a)])
    summary_b = run(project + ["--out-matrix", str(out_b)])
    assert summary_a == summary_b
    assert out_a.read_bytes() == out_b.read_bytes()

    # the batched commands print the bytes of their one-at-a-time references
    noise = ["karate-noise", "--levels", "0,0.05", "--trials", "2", "--seed", "11"]
    noise_reference = NoiseBenchmarkReport(
        rows=per_trial_noise_rows([0.0, 0.05], trials=2, seed=11),
        trials=2,
        config={"levels": "0.0;0.05", "trials": 2, "seed": 11},
    )
    assert run(noise) == noise_report_to_csv(noise_reference)
    rolling = ["finance", "rolling", "--prices", str(UNIVERSE_CSV), "--window", "60",
               "--stride", "30"]
    rolling_reference = loop_rolling_series(log_returns(load_prices(UNIVERSE_CSV)), 60, 30)
    assert run(rolling) == rolling_series_to_csv(rolling_reference)
    assert time.perf_counter() - start < 30.0
