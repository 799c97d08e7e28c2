"""Price panel ingestion: CSV parsing, date-range alignment, log returns.

Input format is a wide CSV, `date,<ticker1>,<ticker2>,...`, one row per
trading day, adjusted close prices.  Empty, unparseable or non-finite
cells are treated as missing; non-positive prices are rejected outright.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from datetime import date, datetime

import numpy as np

from .errors import DataError
from .tables import read_feature_csv


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


def _parse_date(text: str, context: str) -> date:
    try:
        return datetime.strptime(text.strip(), "%Y-%m-%d").date()
    except ValueError:
        raise DataError(f"{context}: cannot parse date {text!r} as YYYY-MM-DD") from None


def _price(cell: str) -> float:
    """The cell's price, or NaN (missing) when it is empty, unparseable or not finite."""
    try:
        v = float(cell.strip())  # str.strip also drops the \x1c-\x1f that float keeps
    except ValueError:
        return np.nan
    return v if math.isfinite(v) else np.nan


def parse_price_csv(source) -> PriceTable:
    """Parse a price CSV from a string or text stream into a PriceTable.

    Rows are sorted by date.  Raises DataError on a malformed header,
    duplicate dates, or any non-positive price.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = [ln.rstrip("\n").rstrip("\r") for ln in source]
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise DataError("price CSV is empty")

    header = lines[0].split(",")
    if header[0].strip().lower() != "date":
        raise DataError(f"price CSV header must start with 'date', got {header[0]!r}")
    tickers = [h.strip() for h in header[1:]]
    if not tickers:
        raise DataError("price CSV header has no ticker columns")
    for i, t in enumerate(tickers):
        if not t:
            raise DataError(f"price CSV header column {i + 2} is empty")
    seen: set[str] = set()
    for t in tickers:
        if t in seen:
            raise DataError(f"price CSV header has duplicate ticker {t!r}")
        seen.add(t)

    n = len(tickers)
    rows: list[tuple[date, list[float]]] = []
    seen_dates: set[date] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != n + 1:
            raise DataError(
                f"line {lineno}: expected {n + 1} columns, got {len(cells)}"
            )
        d = _parse_date(cells[0], f"line {lineno}")
        if d in seen_dates:
            raise DataError(f"duplicate date {d.isoformat()} in price CSV")
        seen_dates.add(d)
        vals = [_price(cell) for cell in cells[1:]]
        for ticker, v in zip(tickers, vals):
            if v <= 0.0:
                raise DataError(f"non-positive price {v} at ({d.isoformat()}, {ticker})")
        rows.append((d, vals))

    rows.sort(key=lambda r: r[0])
    dates = [r[0] for r in rows]
    prices = np.array([r[1] for r in rows], dtype=np.float64)
    return PriceTable(dates=dates, tickers=tickers, prices=prices, missing=np.isnan(prices))


def serialize_price_csv(table: PriceTable) -> str:
    """Inverse of parse_price_csv; floats use shortest round-trip repr."""
    out = ["date," + ",".join(table.tickers)]
    for i, d in enumerate(table.dates):
        cells = [d.isoformat()]
        for j in range(len(table.tickers)):
            cells.append("" if table.missing[i, j] else repr(float(table.prices[i, j])))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


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
    prices = table.prices[keep_rows].copy()
    missing = table.missing[keep_rows].copy()

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
    prices = prices[:, keep_cols]
    missing = missing[:, keep_cols]
    for t in range(1, t_rows):
        gap = missing[t]
        if gap.any():
            prices[t, gap] = prices[t - 1, gap]
            missing[t, gap] = False
    return PriceTable(dates=dates, tickers=tickers, prices=prices, missing=missing)


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


def write_returns_csv(rm: ReturnMatrix, path) -> None:
    """Write `date,<ticker...>` rows with 12 significant digits."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("date," + ",".join(rm.tickers) + "\n")
        for i, d in enumerate(rm.dates):
            cells = [d.isoformat()] + [f"{v:.12g}" for v in rm.returns[i]]
            f.write(",".join(cells) + "\n")


def read_returns_csv(path) -> ReturnMatrix:
    """Read what `write_returns_csv` writes; the tickers are the value columns."""
    return ReturnMatrix(*read_feature_csv(path))
