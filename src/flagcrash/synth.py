"""Synthetic price panels with planted correlation-stress episodes.

Baseline daily returns are independent Gaussian with sigma 0.01.  During
a stress episode every stock's return becomes

    coupling * common_factor + (1 - coupling) * idiosyncratic

which drives pairwise correlations to coupling^2 / (coupling^2 +
(1-coupling)^2).  Prices are the exponential of cumulative returns from
1.0; the event file lists each episode's end date.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .errors import DataError
from .evaluation import Event, EventList
from .ingest import PriceTable

SIGMA = 0.01


@dataclass(frozen=True)
class Episode:
    start: int  # index into the return rows
    length: int
    coupling: float


def business_days(start: date, n: int) -> list[date]:
    days = []
    d = start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def make_synthetic(
    n_stocks: int,
    n_days: int,
    episodes: list[Episode],
    seed: int,
    start_date: date = date(2010, 1, 4),
) -> tuple[PriceTable, EventList]:
    """Price panel of `n_days` rows plus the episode-end event list."""
    if n_stocks < 2 or n_days < 3:
        raise DataError("need at least 2 stocks and 3 days")
    n_returns = n_days - 1
    spans = []
    for ep in episodes:
        if not 0.0 < ep.coupling <= 1.0:
            raise DataError(f"coupling must be in (0, 1], got {ep.coupling}")
        if ep.length < 1 or ep.start < 0 or ep.start + ep.length > n_returns:
            raise DataError(
                f"episode ({ep.start}, {ep.length}) outside {n_returns} return rows"
            )
        spans.append((ep.start, ep.start + ep.length))
    spans.sort()
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        if b0 < a1:
            raise DataError("overlapping stress episodes")

    rng = np.random.default_rng(seed)
    returns = rng.normal(0.0, SIGMA, size=(n_returns, n_stocks))
    for ep in episodes:
        rows = slice(ep.start, ep.start + ep.length)
        common = rng.normal(0.0, SIGMA, size=(ep.length, 1))
        idio = rng.normal(0.0, SIGMA, size=(ep.length, n_stocks))
        returns[rows] = ep.coupling * common + (1.0 - ep.coupling) * idio

    prices = np.ones((n_days, n_stocks))
    prices[1:] = np.exp(np.cumsum(returns, axis=0))
    dates = business_days(start_date, n_days)
    table = PriceTable(
        dates=dates,
        tickers=[f"S{j:02d}" for j in range(n_stocks)],
        prices=prices,
        missing=np.zeros((n_days, n_stocks), dtype=bool),
    )
    # return row r carries the date of price row r+1, so an episode ending
    # at return row e ends on calendar date dates[e + 1]
    events = EventList(
        [
            Event(dates[ep.start + ep.length].isoformat(), f"episode-{i + 1}")
            for i, ep in enumerate(sorted(episodes, key=lambda e: e.start))
        ]
    )
    return table, events


def parse_episode_spec(text: str) -> list[Episode]:
    """Parse 'start:length:coupling[,start:length:coupling...]'."""
    episodes = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            start, length, coupling = chunk.split(":")
            episodes.append(Episode(int(start), int(length), float(coupling)))
        except ValueError:
            raise DataError(f"bad episode spec {chunk!r}, want start:length:coupling") from None
    return episodes
