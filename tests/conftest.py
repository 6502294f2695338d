"""Shared paths, the fixture panel, the ranking kernel's counters and the verdict summary."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from prism import graphs
from prism.finance import load_prices, log_returns
from prism.fixtures import load_universe_config

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"
UNIVERSE_CSV = FIXTURES / "synthetic_universe.csv"
UNIVERSE_CONFIG = FIXTURES / "universe_config.json"


def child_env() -> dict[str, str]:
    """os.environ with this checkout's src first on PYTHONPATH, for a fresh interpreter."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


@pytest.fixture(scope="session")
def universe_returns():
    """Return panel of the shipped price fixture (30 tickers, 27 surviving)."""
    return log_returns(load_prices(UNIVERSE_CSV))


@pytest.fixture(scope="session")
def universe_config():
    return load_universe_config(UNIVERSE_CONFIG)


@pytest.fixture
def eigh_fallbacks(monkeypatch):
    """The number of matrices each call of the Fiedler-ranking kernel's eigh fallback decomposes."""
    counted = []
    fallback = graphs._fiedler_columns

    def counting(lap):
        counted.append(len(lap))
        return fallback(lap)

    monkeypatch.setattr(graphs, "_fiedler_columns", counting)
    return counted


@pytest.fixture
def second_solves(monkeypatch):
    """The number of matrices each second inverse-iteration solve of the ranking kernel takes."""
    counted = []
    step = graphs._inverse_step

    def counting(sym, shift, x=None):
        if x is not None:  # the first solve starts from the fixed vector
            counted.append(len(sym))
        return step(sym, shift, x)

    monkeypatch.setattr(graphs, "_inverse_step", counting)
    return counted


# One verdict line per acceptance criterion, printed after the run: pytest
# captures stdout of passing tests, so printing inside the tests would not
# surface anything.

_CRITERIA = {
    "test_criterion_1_exact_symmetry_zero_defect": "criterion 1 (exact-symmetry zero defect)",
    "test_criterion_2_projection_oracle_equivalence": "criterion 2 (projection oracle equivalence)",
    "test_criterion_3_sensitivity_separation": "criterion 3 (rewiring sensitivity separation)",
    "test_criterion_4_karate_clean_recovery": "criterion 4 (clean two-faction recovery)",
    "test_criterion_5_noise_robustness": "criterion 5 (noise robustness bands)",
    "test_criterion_6_alternating_optimization": "criterion 6 (alternating optimization + gradient)",
    "test_criterion_7_finance_pipeline": "criterion 7 (finance pipeline properties)",
    "test_criterion_8_cli_determinism": "criterion 8 (CLI determinism)",
}

_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    name = report.nodeid.split("::")[-1]
    if name not in _CRITERIA:
        return
    if report.when == "call" or report.outcome == "failed":
        _RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, label in _CRITERIA.items():
        outcome = _RESULTS.get(name)
        if outcome is None:
            continue
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{label}: {verdict}")
