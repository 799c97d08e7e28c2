"""Price panel ingestion: CSV parsing, date-range alignment, log returns.

Input format is a wide CSV, `date,<ticker1>,<ticker2>,...`, one row per
trading day, adjusted close prices, read and written as every dated table
is (`tables`).  Empty, unparseable or non-finite cells are treated as
missing; non-positive prices are rejected outright.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import DataError
from .tables import cell_blocks, joined_rows, read_feature_csv, read_rows, write_rows


@dataclass
class PriceTable:
    """Complete or partially missing panel of adjusted close prices."""

    dates: list[date]
    tickers: list[str]
    prices: np.ndarray  # (T, N) float64, undefined where missing
    missing: np.ndarray  # (T, N) bool

    @property
    def shape(self) -> tuple[int, int]:
        return self.prices.shape


@dataclass
class ReturnMatrix:
    """Daily log returns; row t carries the date of the later price."""

    dates: list[date]
    tickers: list[str]
    returns: np.ndarray  # (T-1, N) float64


def _price(cell: str) -> float:
    """The cell's price, or NaN (missing) when it is empty, unparseable or not finite."""
    try:
        v = float(cell.strip())  # str.strip also drops the \x1c-\x1f that float keeps
    except ValueError:
        return np.nan
    return v if math.isfinite(v) else np.nan


def parse_price_csv(source) -> PriceTable:
    """Parse a price CSV from a string or text stream into a PriceTable.

    `tables.read_rows` checks the header, column counts and dates; on top
    of it, tickers must be named and distinct, dates must not repeat and
    prices must be positive.  Rows are sorted by date.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    name = getattr(source, "name", "price CSV")
    rows = read_rows(source, name)
    tickers = [t.strip() for t in next(rows)]
    seen: set[str] = set()
    for i, t in enumerate(tickers):
        if not t:
            raise DataError(f"{name} header column {i + 2} is empty")
        if t in seen:
            raise DataError(f"{name} header has duplicate ticker {t!r}")
        seen.add(t)

    parsed: list[tuple[date, list[float]]] = []
    seen_dates: set[date] = set()
    for lineno, d, cells in rows:
        if d in seen_dates:
            raise DataError(f"{name} line {lineno}: duplicate date {d.isoformat()}")
        seen_dates.add(d)
        vals = [_price(cell) for cell in cells]
        for ticker, v in zip(tickers, vals):
            if v <= 0.0:
                raise DataError(
                    f"{name} line {lineno}: non-positive price {v} at ({d.isoformat()}, {ticker})"
                )
        parsed.append((d, vals))

    parsed.sort(key=lambda r: r[0])
    dates = [r[0] for r in parsed]
    prices = np.array([r[1] for r in parsed], dtype=np.float64).reshape(len(parsed), len(tickers))
    return PriceTable(dates=dates, tickers=tickers, prices=prices, missing=np.isnan(prices))


def serialize_price_csv(table: PriceTable) -> str:
    """Inverse of parse_price_csv; floats use shortest round-trip repr."""
    out = io.StringIO()
    write_rows(out, table.tickers, [d.isoformat() for d in table.dates], _price_blocks(table))
    return out.getvalue()


def _price_blocks(table: PriceTable):
    """`write_rows`' blocks of the table's rows, a missing price an empty cell."""
    lo = 0
    for rows, cells in cell_blocks(table.prices):
        for i in np.flatnonzero(table.missing[lo : lo + rows]).tolist():
            cells[i] = ""
        lo += rows
        yield joined_rows(cells, rows)


def align_and_filter(
    table: PriceTable, start: date, end: date, min_coverage: float = 1.0
) -> PriceTable:
    """Restrict to [start, end], drop sparse tickers, forward-fill gaps.

    Tickers with coverage below `min_coverage` or with a missing first
    retained row (nothing to fill from) are dropped.  The result is a
    complete panel.
    """
    if start >= end:
        raise DataError(f"start {start} must precede end {end}")
    if not 0.0 < min_coverage <= 1.0:
        raise DataError(f"min_coverage must be in (0, 1], got {min_coverage}")
    if not table.dates:
        raise DataError("cannot align an empty price table")

    keep_rows = [i for i, d in enumerate(table.dates) if start <= d <= end]
    if not keep_rows:
        raise DataError(
            f"no trading days in [{start.isoformat()}, {end.isoformat()}]"
        )
    dates = [table.dates[i] for i in keep_rows]
    prices = table.prices[keep_rows]
    missing = table.missing[keep_rows]

    t_rows = len(dates)
    coverage = 1.0 - missing.sum(axis=0) / t_rows
    keep_cols = [
        j
        for j in range(len(table.tickers))
        if coverage[j] >= min_coverage and not missing[0, j]
    ]
    if not keep_cols:
        raise DataError(
            f"no ticker meets coverage {min_coverage} over the requested range"
        )

    tickers = [table.tickers[j] for j in keep_cols]
    missing = missing[:, keep_cols]
    # each cell takes the price of its column's last present row up to it
    last = np.where(missing, 0, np.arange(t_rows)[:, None])
    np.maximum.accumulate(last, axis=0, out=last)
    prices = prices[last, np.asarray(keep_cols)]
    return PriceTable(dates=dates, tickers=tickers, prices=prices, missing=np.zeros_like(missing))


def log_returns(table: PriceTable) -> ReturnMatrix:
    """First differences of log prices; requires a complete panel."""
    if table.missing.any():
        raise DataError("log_returns requires a complete panel (run align_and_filter)")
    if table.prices.shape[0] < 2:
        raise DataError("need at least two price rows to compute returns")
    if (table.prices <= 0.0).any():
        raise DataError("log_returns requires strictly positive prices")
    logs = np.log(table.prices)
    return ReturnMatrix(
        dates=table.dates[1:], tickers=list(table.tickers), returns=np.diff(logs, axis=0)
    )


def write_returns_csv(rm: ReturnMatrix, path) -> ReturnMatrix:
    """Write `date,<ticker...>` rows with 12 significant digits; returns the
    matrix the file holds, each value `float` of its cell, as
    `read_returns_csv` reads it back."""
    held = np.empty(rm.returns.shape)  # C order, as read_returns_csv gives it
    with open(path, "w", encoding="utf-8") as f:
        days = [d.isoformat() for d in rm.dates]
        write_rows(f, rm.tickers, days, _return_blocks(rm.returns, held))
    return ReturnMatrix(list(rm.dates), list(rm.tickers), held)


def _return_blocks(returns: np.ndarray, held: np.ndarray):
    """`write_rows`' blocks of `returns`, each cell's value stored in `held`."""
    flat, lo = held.reshape(-1), 0
    for rows, cells in cell_blocks(returns, "{:.12g}".format):
        flat[lo : lo + len(cells)] = list(map(float, cells))
        lo += len(cells)
        yield joined_rows(cells, rows)


def read_returns_csv(path) -> ReturnMatrix:
    """Read what `write_returns_csv` writes; the tickers are the value columns."""
    return ReturnMatrix(*read_feature_csv(path))
