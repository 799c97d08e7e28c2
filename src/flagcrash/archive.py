"""Binary archive for weighted digraph sequences.

Layout (all little-endian):

    magic   4 bytes  b"FCGR"
    version u32      currently 1
    count   u64      number of records
    record, repeated `count` times:
        date        10 bytes ASCII  YYYY-MM-DD, exactly as `date.isoformat` writes it
        n_vertices  u32
        edge_count  u64
        edges       edge_count * (u32 src, u32 tgt, f64 weight)

A JSON sidecar at `<path>.json` carries the construction parameters
(window width, correlation kind, embedding settings, tickers).  Archives
are written from and read into a `WindowSeries` array, each record's
edges in row-major (source, target) order; `read_series` accepts any order.
"""

from __future__ import annotations

import json
import os
import struct
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataError
from .corrnet import EDGE_DTYPE, WindowSeries, load_edges, window_edges
from .tables import parse_day

MAGIC = b"FCGR"
VERSION = 1
_HEAD = struct.Struct("<4sIQ")
_REC_HEAD = struct.Struct("<10sIQ")


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def write_graphs(path, series: WindowSeries, params: dict) -> None:
    """Write an archive of `series`, one record per window, and its sidecar;
    nothing is written when the dates do not strictly increase or
    `params["tickers"]` does not name one ticker per vertex."""
    late = next((b for a, b in zip(series.dates, series.dates[1:]) if b <= a), None)
    if late is not None:
        raise DataError(f"cannot archive graphs whose dates do not increase, at {late}")
    _check_tickers(path, params, series.weights.shape[1])
    with open(path, "wb") as f:
        f.write(_HEAD.pack(MAGIC, VERSION, len(series)))
        for day, w in zip(series.dates, series.weights):
            e = window_edges(w)
            f.write(_REC_HEAD.pack(day.isoformat().encode("ascii"), len(w), len(e)))
            f.write(e)
    with open(sidecar_path(path), "w", encoding="utf-8") as f:
        json.dump(params, f, indent=2, sort_keys=True)
        f.write("\n")


def read_series(path) -> WindowSeries:
    """The window series of an archive: its kind and tickers come from the
    sidecar, when it lists them, and the kind defaults to "ccm".

    On top of `read_graphs`' checks, `corrnet.load_edges` checks every
    record's edges.  An archive without records raises DataError, as no
    stage can use it.
    """
    dates, n, edges, counts, params = read_graphs(path)
    if not dates:
        raise DataError(f"{path}: archive holds no graphs")
    return WindowSeries(
        weights=load_edges(n, edges, counts, dates, f"{path}: record"),
        dates=dates,
        kind=params.get("correlation", "ccm"),
        tickers=params.get("tickers"),
    )


def read_graphs(path) -> tuple[list[date], int, np.ndarray, list[int], dict]:
    """The records' dates, their vertex count (0 without records), their
    edges back to back in one `EDGE_DTYPE` array in stored order, each
    one's edge count, and the archive's construction parameters.

    Checked here: the layout, record dates written as `date.isoformat`
    writes them and strictly increasing across records, and one vertex
    count shared by every record and by the sidecar's tickers, when it
    lists them.  `read_series` also checks the edges.
    """
    path = Path(path)
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(_HEAD.size)
        if len(head) < _HEAD.size:
            raise DataError(f"{path}: truncated graph archive header")
        magic, version, count = _HEAD.unpack(head)
        if magic != MAGIC:
            raise DataError(f"{path}: not a graph archive (bad magic {magic!r})")
        if version != VERSION:
            raise DataError(f"{path}: unsupported archive version {version}")
        # no archive of this size holds more edges; pages never read into stay unmapped
        edges = np.empty((size - _HEAD.size) // EDGE_DTYPE.itemsize, dtype=EDGE_DTYPE)
        dates: list[date] = []
        counts: list[int] = []
        n = filled = 0
        for _ in range(count):
            rec = f.read(_REC_HEAD.size)
            if len(rec) < _REC_HEAD.size:
                raise DataError(f"{path}: truncated record header")
            date_bytes, n_rec, edge_count = _REC_HEAD.unpack(rec)
            try:
                as_of = parse_day(date_bytes.decode("ascii"))
                if as_of.isoformat().encode("ascii") != date_bytes:  # such as b"2020-01- 9"
                    raise ValueError
            except ValueError:
                raise DataError(f"{path}: bad record date {date_bytes!r}") from None
            if dates and as_of <= dates[-1]:
                raise DataError(f"{path}: record dates not increasing at {as_of}")
            if dates and n_rec != n:
                raise DataError(
                    f"{path}: record {as_of} has {n_rec} vertices, the first record has {n}"
                )
            if f.readinto(edges[filled : filled + edge_count]) < EDGE_DTYPE.itemsize * edge_count:
                raise DataError(f"{path}: truncated edge block")
            filled += edge_count
            dates.append(as_of)
            counts.append(edge_count)
            n = n_rec
    side = sidecar_path(path)
    params = {}
    if side.exists():
        try:
            params = json.loads(side.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise DataError(f"{side}: bad sidecar JSON: {exc}") from None
        if not isinstance(params, dict):
            raise DataError(f"{side}: sidecar is not a JSON object")
        if dates:
            _check_tickers(side, params, n)
    return dates, n, edges[:filled], counts, params


def _check_tickers(where, params: dict, n: int) -> None:
    tickers = params.get("tickers")
    if tickers is not None and (not isinstance(tickers, list) or len(tickers) != n):
        raise DataError(f"{where}: tickers are not a list of {n} names, one per graph vertex")

