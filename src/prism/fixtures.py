"""Seeded factor-model price universe for offline pipeline tests.

Returns follow a market + style + sector factor model:

    r[t, i] = drift + market_vol * M[t] + style_vol * load(sector(i)) * Y[t]
              + sector_vol * S[sector(i), t] + idio_vol * E[t, i]

with all factor draws standard normal. The style factor Y carries graded
per-sector loadings (think growth-to-value spectrum), which strings the
sectors along one axis: the softest cut of the resulting correlation graph
splits the two style wings, and mirror-pairing across that cut matches
sectors of equal size. Prices are exp-cumulated from a common base. Every
random draw (including the spare noise used by shocks) happens up front
from the config seed, so two configs differing only in their shock list
share the same underlying sample paths and behave as a paired experiment.

Tickers listed under late_start have no price before their first row
(blank CSV cells), which is how a universe advertised at one size shrinks
to the coverage-surviving subset downstream.

Shocks transform selected return rows (0-based return-row indices, end
exclusive; return row t sits between calendar rows t and t+1):

- decorrelate_sector: a sector's tickers become pure idiosyncratic noise at
  full combined volatility for the duration (breaks their correlations).
- correlation_spike: the market factor is scaled up for the duration (all
  correlations surge together).
- decorrelate_ramp: a sector blends linearly from its factor returns into
  pure noise across the duration (slow structural drift).
- anticorrelate_sectors: sector_b drops its own factor and loads negatively
  on sector_a's factor (strength times sector_vol) while keeping its market
  and style terms, making that pair's coupling negative while both stay
  positively tied to the rest.
"""

from __future__ import annotations

import datetime
import json

import numpy as np

from .errors import ValidationError

REQUIRED_KEYS = (
    "seed", "start_date", "days", "sectors", "base_price",
    "daily_drift", "market_vol", "sector_vol", "idio_vol", "shocks",
)


def load_universe_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    missing = [key for key in REQUIRED_KEYS if key not in config]
    if missing:
        raise ValidationError(f"universe config missing keys: {', '.join(missing)}")
    return config


def trading_dates(start_date: str, days: int) -> list[str]:
    """`days` consecutive weekdays starting at start_date (skipped to Monday)."""
    current = datetime.date.fromisoformat(start_date)
    out = []
    while len(out) < days:
        if current.weekday() < 5:
            out.append(current.isoformat())
        current += datetime.timedelta(days=1)
    return out


def universe_tickers(config: dict) -> list[str]:
    tickers = []
    for sector, count in config["sectors"]:
        tickers.extend(f"{sector}{i + 1:02d}" for i in range(count))
    return tickers


def planted_sectors(config: dict) -> dict[str, str]:
    """Ticker to sector-name map, the clustering ground truth."""
    mapping = {}
    for sector, count in config["sectors"]:
        for i in range(count):
            mapping[f"{sector}{i + 1:02d}"] = sector
    return mapping


def generate_returns(config: dict) -> np.ndarray:
    """(days-1) x tickers log-return matrix implied by the config."""
    sectors = config["sectors"]
    counts = [count for _, count in sectors]
    names = [name for name, _ in sectors]
    n = sum(counts)
    steps = config["days"] - 1
    if steps < 1:
        raise ValidationError("days must be at least 2")
    sector_index = np.repeat(np.arange(len(sectors)), counts)
    rng = np.random.default_rng(config["seed"])
    market = rng.standard_normal(steps)
    style = rng.standard_normal(steps)  # drawn even when unused, keeps paths paired
    sector_factors = rng.standard_normal((len(sectors), steps))
    idio = rng.standard_normal((steps, n))
    spare = rng.standard_normal((steps, n))  # consumed only by shocks

    drift = config["daily_drift"]
    mv, sv, iv = config["market_vol"], config["sector_vol"], config["idio_vol"]
    yv = config.get("style_vol", 0.0)
    loadings_cfg = config.get("style_loadings", {})
    unknown = set(loadings_cfg) - set(names)
    if unknown:
        raise ValidationError(f"style_loadings for unknown sectors: {sorted(unknown)}")
    loads = np.array([loadings_cfg.get(name, 0.0) for name in names])
    node_load = loads[sector_index]
    total_vol = np.sqrt(mv * mv + (yv * node_load) ** 2 + sv * sv + iv * iv)
    market_term = np.tile(market[:, None], (1, n))
    style_term = np.outer(style, node_load)
    sector_term = sector_factors[sector_index, :].T.copy()
    returns = drift + mv * market_term + yv * style_term + sv * sector_term + iv * idio

    for shock in config["shocks"]:
        kind = shock["type"]
        start, end = shock.get("start", 0), shock.get("end", steps)
        if not 0 <= start <= end <= steps:
            raise ValidationError(f"shock range [{start}, {end}) outside 0..{steps}")
        rows = np.arange(start, end)
        if kind == "decorrelate_sector":
            cols = np.nonzero(sector_index == names.index(shock["sector"]))[0]
            noise = drift + total_vol[cols] * spare[np.ix_(rows, cols)]
            returns[np.ix_(rows, cols)] = noise
        elif kind == "correlation_spike":
            scale = shock["scale"]
            returns[start:end] += (scale - 1.0) * mv * market_term[start:end]
        elif kind == "decorrelate_ramp":
            cols = np.nonzero(sector_index == names.index(shock["sector"]))[0]
            span = max(end - start, 1)
            alpha = ((rows - start) / span)[:, None]
            block = returns[np.ix_(rows, cols)]
            noise = drift + total_vol[cols] * spare[np.ix_(rows, cols)]
            returns[np.ix_(rows, cols)] = (1.0 - alpha) * block + alpha * noise
        elif kind == "anticorrelate_sectors":
            strength = shock.get("strength", 1.4)
            a = names.index(shock["sector_a"])
            cols = np.nonzero(sector_index == names.index(shock["sector_b"]))[0]
            base = (
                drift
                + mv * market_term[np.ix_(rows, cols)]
                + yv * style_term[np.ix_(rows, cols)]
                + iv * idio[np.ix_(rows, cols)]
            )
            anti = -strength * sv * sector_factors[a, start:end][:, None]
            returns[np.ix_(rows, cols)] = base + anti
        else:
            raise ValidationError(f"unknown shock type {kind!r}")
    return returns


def generate_universe_csv(config: dict) -> str:
    """Render the full price CSV; byte-identical for identical configs."""
    dates = trading_dates(config["start_date"], config["days"])
    tickers = universe_tickers(config)
    returns = generate_returns(config)
    prices = config["base_price"] * np.exp(
        np.vstack([np.zeros(len(tickers)), np.cumsum(returns, axis=0)])
    )
    first_row = {ticker: 0 for ticker in tickers}
    for ticker, start in config.get("late_start", []):
        if ticker not in first_row:
            raise ValidationError(f"late_start ticker {ticker!r} not in universe")
        if not 0 <= start < config["days"]:
            raise ValidationError(f"late_start row {start} outside 0..{config['days'] - 1}")
        first_row[ticker] = start
    starts = [first_row[ticker] for ticker in tickers]
    lines = ["date," + ",".join(tickers)]
    for row, date in enumerate(dates):
        cells = ",".join(
            f"{prices[row, col]:.6f}" if row >= starts[col] else ""
            for col in range(len(tickers))
        )
        lines.append(f"{date},{cells}")
    return "\n".join(lines) + "\n"

