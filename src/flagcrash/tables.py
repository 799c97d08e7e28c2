"""The `date,<col...>` format of every dated table, and date text.

A price CSV and a returns table have one column per ticker, a feature
table one row per graph date, and a score table is `date,score`.
`read_rows` reads them all and names the file and the line in every
message; `write_rows` writes them all from formatted cells.  Feature
dates must strictly increase, and no non-finite value is written or read
back; feature and score cells are shortest round-trip repr, so reruns
hash identically.  `parse_day` reads every date the program is given:
table cells, config keys, flags, archive records and event lists.
"""

from __future__ import annotations

from contextlib import suppress
from datetime import date, datetime
from math import isqrt
from operator import itemgetter

import numpy as np

from .errors import DataError


def parse_day(text: str) -> date:
    """`text` as a date, read as `datetime.strptime(text, "%Y-%m-%d")` reads it."""
    with suppress(ValueError):  # canonical text, which both read alike, is read faster
        if (day := date.fromisoformat(text)).isoformat() == text:
            return day
    try:
        return datetime.strptime(text, "%Y-%m-%d").date()
    except ValueError:
        raise ValueError(f"bad date {text!r}, want YYYY-MM-DD") from None


def read_rows(lines, name):
    """Yield the header's value columns, then (line number, date, cells) of
    each row of the `date,<col...>` text `lines`; `name` starts every message."""
    rows = ((n, line.strip().split(",")) for n, line in enumerate(lines, start=1))
    rows = ((n, cells) for n, cells in rows if cells != [""])  # skips blank lines
    lineno, header = next(rows, (0, None))
    if header is None:
        raise DataError(f"{name} is empty")
    if header[0].strip().lower() != "date" or len(header) < 2:
        raise DataError(f"{name} line {lineno}: header must be date,<column...>")
    yield header[1:]
    for lineno, cells in rows:
        if len(cells) != len(header):
            raise DataError(f"{name} line {lineno}: column count {len(cells)}, want {len(header)}")
        try:
            day = parse_day(cells[0].strip())
        except ValueError as exc:
            raise DataError(f"{name} line {lineno}: {exc}") from None
        yield lineno, day, cells[1:]


def write_rows(f, columns: list[str], dates: list[date], rows) -> None:
    """Write the `date,<col...>` header to the text stream `f`, then one line
    per date holding that date's row of formatted cells."""
    f.write("date," + ",".join(columns) + "\n")
    for d, cells in zip(dates, rows):
        f.write(d.isoformat() + "," + ",".join(cells) + "\n")


def write_feature_csv(path, dates: list[date], columns: list[str], values) -> None:
    """Write one row of `values` per date.  When every row is a flattened
    square matrix equal to its transpose bit for bit, as a mirrored Pearson
    window is, each upper-triangle cell is formatted once and written twice."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape != (len(dates), len(columns)):
        raise DataError(
            f"feature table shape {values.shape} does not match "
            f"{len(dates)} dates x {len(columns)} columns"
        )
    if not np.isfinite(values).all():
        raise DataError(f"refusing to write {path}: the table has non-finite values")
    rows = (map(repr, row.tolist()) for row in values)
    n = isqrt(values.shape[1])
    bits = values.view(np.int64).reshape(-1, n, n) if n > 1 and n * n == values.shape[1] else None
    if bits is not None and np.array_equal(bits, bits.transpose(0, 2, 1)):
        i, j = np.triu_indices(n)
        index = np.empty((n, n), dtype=np.intp)
        index[i, j] = index[j, i] = np.arange(len(i))
        mirror, upper = itemgetter(*index.ravel().tolist()), values[:, i * n + j]
        rows = (mirror(list(map(repr, row.tolist()))) for row in upper)
    with open(path, "w", encoding="utf-8") as f:
        write_rows(f, columns, dates, rows)


def read_feature_csv(path) -> tuple[list[date], list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8-sig") as f:
        rows = read_rows(f, path)
        columns = next(rows)
        dates, values = [], []
        for lineno, day, cells in rows:
            if dates and day <= dates[-1]:
                raise DataError(
                    f"{path} line {lineno}: dates do not increase, {day} after {dates[-1]}"
                )
            dates.append(day)
            try:
                values.append([float(c) for c in cells])
            except ValueError as exc:
                raise DataError(f"{path} line {lineno}: {exc}") from None
    if not values:
        raise DataError(f"{path}: no data rows")
    values = np.array(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise DataError(f"{path} contains non-finite values")
    return dates, columns, values


def write_scores_csv(path, dates: list[date], scores) -> None:
    write_feature_csv(path, dates, ["score"], np.asarray(scores).reshape(-1, 1))


def read_scores_csv(path) -> tuple[list[date], np.ndarray]:
    dates, columns, values = read_feature_csv(path)
    if columns != ["score"]:
        raise DataError(f"{path}: expected a single 'score' column, got {columns}")
    return dates, values[:, 0]
