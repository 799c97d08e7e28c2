"""The `date,<col...>` format of every dated table, and date text.

A price CSV and a returns table have one column per ticker, a feature
table one row per graph date, and a score table is `date,score`.
`read_rows` reads them all and names the file and the line in every
message; `write_rows` writes them all from blocks of formatted rows, each
block the cells of one `tolist` of at most BLOCK_CELLS values
(`cell_blocks`).  Feature and score tables take their dates' texts from a
memo (`day_texts`); a price or returns table, written once from its
dates, formats them itself.  Feature dates must strictly increase, and
no non-finite value is written or read back; feature and score cells are
shortest round-trip repr, so reruns hash identically.  `parse_day` reads
every date the program is given: table cells, config keys, flags,
archive records and event lists.
"""

from __future__ import annotations

from contextlib import suppress
from datetime import date, datetime
from functools import lru_cache
from math import isqrt
from operator import itemgetter

import numpy as np

from .errors import DataError

BLOCK_CELLS = 1 << 10  # cells a writer formats from one `tolist`; bounds its temporaries


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


def day_texts(dates) -> list[str]:
    """Each date's `isoformat` text.  The texts of the last two date lists
    are kept, one string each, so that the feature and score tables of a
    run, which share the series' dates, format each date once."""
    return _joined_days(tuple(dates)).split("\n") if dates else []


@lru_cache(maxsize=2)
def _joined_days(dates: tuple) -> str:
    return "\n".join([d.isoformat() for d in dates])


def cell_blocks(values: np.ndarray, cell=repr, columns=None):
    """Yield (rows, cells) for blocks of at most BLOCK_CELLS cells of the 2-d
    `values`, or of its `columns` alone: the block's row count and `cell` of
    each of its values, row by row, from one `tolist` of the flat block, so
    that no list is made per row."""
    step = max(1, BLOCK_CELLS // max(1, values.shape[1]))
    for lo in range(0, len(values), step):
        block = values[lo : lo + step] if columns is None else values[lo : lo + step, columns]
        yield len(block), list(map(cell, block.ravel().tolist()))


def joined_rows(cells: list[str], rows: int, pick=None) -> list[str]:
    """`cells`, `rows` rows of equal width, as one text per row: its cells,
    or those `pick` takes from them, joined by commas."""
    width = len(cells) // rows
    if width == 1 and pick is None:
        return cells
    runs = (cells[i * width : (i + 1) * width] for i in range(rows))
    return list(map(",".join, runs if pick is None else map(pick, runs)))


def write_rows(f, columns: list[str], days: list[str], blocks) -> None:
    """Write the `date,<col...>` header to the text stream `f`, then one line
    per date text of `days`: it and its row of `blocks`, each block a list
    of rows' comma-joined cells."""
    f.write("date," + ",".join(columns) + "\n")
    days = iter(days)
    for block in blocks:  # zip takes no date past the block's last row
        f.writelines([day + "," + cells + "\n" for cells, day in zip(block, days)])


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
    blocks = (joined_rows(cells, rows) for rows, cells in cell_blocks(values))
    n = isqrt(values.shape[1])
    bits = values.view(np.int64).reshape(-1, n, n) if n > 1 and n * n == values.shape[1] else None
    if bits is not None and np.array_equal(bits, bits.transpose(0, 2, 1)):
        i, j = np.triu_indices(n)
        index = np.empty((n, n), dtype=np.intp)
        index[i, j] = index[j, i] = np.arange(len(i))
        mirror = itemgetter(*index.ravel().tolist())
        upper = cell_blocks(values, columns=i * n + j)
        blocks = (joined_rows(cells, rows, mirror) for rows, cells in upper)
    with open(path, "w", encoding="utf-8") as f:
        write_rows(f, columns, day_texts(dates), blocks)


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
