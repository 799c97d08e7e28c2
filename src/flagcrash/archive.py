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
are written from a `WindowSeries` array, each record's edges in row-major
(source, target) order, and read straight back into one, in any edge order.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .corrnet import EDGE_DTYPE, WindowSeries, load_edges
from .tables import day_texts, parse_day

MAGIC = b"FCGR"
VERSION = 1
_HEAD = struct.Struct("<4sIQ")
_REC_HEAD = struct.Struct("<10sIQ")
_REC_DTYPE = np.dtype([("date", "S10"), ("n", "<u4"), ("count", "<u8")])  # _REC_HEAD's fields
BLOCK_RECORDS = 64  # records written, or read and checked, at once; bounds either's memory


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
        days = day_texts(series.dates)
        for lo in range(0, len(series), BLOCK_RECORDS):
            hi = lo + BLOCK_RECORDS
            f.write(_record_block(series.weights[lo:hi], days[lo:hi]))
    with open(sidecar_path(path), "w", encoding="utf-8") as f:
        json.dump(params, f, indent=2, sort_keys=True)
        f.write("\n")


def _record_block(w: np.ndarray, days: list[str]) -> bytes:
    """The records of the windows `w` (B, n, n) dated `days`, each
    window's edges in row-major (source, target) order: one `np.nonzero`
    over the block, one edge array, one header array, interleaved."""
    k, s, t = np.nonzero(w)
    edges = np.empty(len(k), EDGE_DTYPE)
    edges["s"], edges["t"], edges["w"] = s, t, w[k, s, t]
    heads = np.empty(len(w), _REC_DTYPE)
    heads["date"] = [day.encode("ascii") for day in days]
    heads["n"] = w.shape[1]
    heads["count"] = counts = np.bincount(k, minlength=len(w))
    head, edge = memoryview(heads.view(np.uint8)), memoryview(edges.view(np.uint8))
    ends = (np.cumsum(counts) * EDGE_DTYPE.itemsize).tolist()
    parts = []
    for i, (start, end) in enumerate(zip([0] + ends, ends)):
        parts += (head[i * _REC_HEAD.size : (i + 1) * _REC_HEAD.size], edge[start:end])
    return b"".join(parts)


def read_graphs(path) -> WindowSeries:
    """The window series of an archive, with the sidecar's tickers and kind
    ("ccm" unless it says "pearson").

    Every record header is checked before any edge: the layout, record
    dates written as `date.isoformat` writes them and strictly increasing,
    one vertex count shared by every record and the sidecar's tickers.  So
    are the sidecar's kind and that the archive holds records, as no stage
    can use one without.  Only then is the (T, n, n) array allocated and
    read into, `BLOCK_RECORDS` records at a time, by `corrnet.load_edges`.
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
        dates, counts, n = [], [], 0
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
            if EDGE_DTYPE.itemsize * edge_count > size - f.tell():
                raise DataError(f"{path}: truncated edge block")
            f.seek(EDGE_DTYPE.itemsize * edge_count, os.SEEK_CUR)
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
            if params.get("correlation", "ccm") not in ("pearson", "ccm"):
                raise DataError(f'{side}: correlation is {params["correlation"]!r}, '
                                'not "pearson" or "ccm"')
        if not dates:
            raise DataError(f"{path}: archive holds no graphs")
        f.seek(_HEAD.size)
        weights = load_edges(n, _edge_blocks(f, counts), dates, f"{path}: record")
    return WindowSeries(weights, dates, params.get("correlation", "ccm"), params.get("tickers"))


def _edge_blocks(f, counts: list[int]):
    """`load_edges`' blocks of the records from `f`'s position on, each read
    into one buffer that every block reuses."""
    starts = range(0, len(counts), BLOCK_RECORDS)
    buf = np.empty(max(sum(counts[lo : lo + BLOCK_RECORDS]) for lo in starts), EDGE_DTYPE)
    for lo in starts:
        filled = 0
        for edge_count in counts[lo : lo + BLOCK_RECORDS]:
            f.seek(_REC_HEAD.size, os.SEEK_CUR)
            block = buf[filled : filled + edge_count]
            if f.readinto(block) < block.nbytes:  # the file shrank since its headers were read
                raise DataError(f"{f.name}: truncated edge block")
            filled += edge_count
        yield buf[:filled], counts[lo : lo + BLOCK_RECORDS]


def _check_tickers(where, params: dict, n: int) -> None:
    tickers = params.get("tickers")
    if tickers is not None and (not isinstance(tickers, list) or len(tickers) != n):
        raise DataError(f"{where}: tickers are not a list of {n} names, one per graph vertex")

