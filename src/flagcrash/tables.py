"""Small CSV readers/writers shared by the pipeline stages.

Every date-indexed table is `date,<col...>`: a returns table has one
column per ticker and one row per return date, a feature table one row
per graph date, and a score table is `date,score`; the reader rejects
dates that do not strictly increase, and reader and writer both refuse
non-finite values, so no table is written that cannot be read back.
Feature and score tables write floats with shortest round-trip repr so
reruns hash identically (`ingest.write_returns_csv` writes 12
significant digits).
"""

from __future__ import annotations

from datetime import date, datetime

import numpy as np

from .errors import DataError


def write_feature_csv(path, dates: list[date], columns: list[str], values) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape != (len(dates), len(columns)):
        raise DataError(
            f"feature table shape {values.shape} does not match "
            f"{len(dates)} dates x {len(columns)} columns"
        )
    if not np.isfinite(values).all():
        raise DataError(f"refusing to write {path}: the table has non-finite values")
    with open(path, "w", encoding="utf-8") as f:
        f.write("date," + ",".join(columns) + "\n")
        for d, row in zip(dates, values):
            f.write(d.isoformat() + "," + ",".join(map(repr, row.tolist())) + "\n")


def read_feature_csv(path) -> tuple[list[date], list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8") as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise DataError(f"{path} is empty")
    header = lines[0].split(",")
    if header[0].lower() != "date":
        raise DataError(f"{path}: first column must be 'date'")
    columns = header[1:]
    if not columns:
        raise DataError(f"{path}: no value columns")
    dates, rows = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(columns) + 1:
            raise DataError(f"{path} line {lineno}: column count mismatch")
        try:
            day = datetime.strptime(cells[0], "%Y-%m-%d").date()
        except ValueError:
            raise DataError(f"{path} line {lineno}: bad date {cells[0]!r}") from None
        if dates and day <= dates[-1]:
            raise DataError(f"{path} line {lineno}: dates do not increase, {day} after {dates[-1]}")
        dates.append(day)
        try:
            rows.append([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise DataError(f"{path} line {lineno}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    values = np.array(rows, dtype=np.float64)
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
