"""Binary archive for weighted digraph sequences.

Layout (all little-endian):

    magic   4 bytes  b"FCGR"
    version u32      currently 1
    count   u64      number of records
    record, repeated `count` times:
        date        10 bytes ASCII  YYYY-MM-DD
        n_vertices  u32
        edge_count  u64
        edges       edge_count * (u32 src, u32 tgt, f64 weight)

A JSON sidecar at `<path>.json` carries the construction parameters
(window width, correlation kind, embedding settings, tickers).  Archives
written from a `WindowSeries` list each record's edges in row-major
(source, target) order; `read_series` accepts any order.
"""

from __future__ import annotations

import json
import os
import struct
from datetime import date
from pathlib import Path

import numpy as np

from .errors import DataError
from .corrnet import EDGE_DTYPE, WeightedDigraph, WindowSeries, matrix_from_digraph

MAGIC = b"FCGR"
VERSION = 1
_HEAD = struct.Struct("<4sIQ")
_REC_HEAD = struct.Struct("<10sIQ")


def sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def write_graphs(path, graphs: list[WeightedDigraph], params: dict) -> None:
    """Write an archive and its sidecar; nothing is written when a graph has
    no date, the dates do not strictly increase, the vertex counts differ,
    or `params["tickers"]` does not name one ticker per vertex."""
    path = Path(path)
    if any(g.as_of_date is None for g in graphs):
        raise DataError("cannot archive a graph without a date")
    late = next((b for a, b in zip(graphs, graphs[1:]) if b.as_of_date <= a.as_of_date), None)
    if late is not None:
        raise DataError(f"cannot archive graphs whose dates do not increase, at {late.as_of_date}")
    if graphs:
        n = graphs[0].n_vertices
        odd = next((g for g in graphs if g.n_vertices != n), None)
        if odd is not None:
            raise DataError(
                f"cannot archive graphs of different vertex counts: {odd.as_of_date} "
                f"has {odd.n_vertices}, the first graph has {n}"
            )
        _check_tickers(path, params, n)
    with open(path, "wb") as f:
        f.write(_HEAD.pack(MAGIC, VERSION, len(graphs)))
        for g in graphs:
            f.write(
                _REC_HEAD.pack(
                    g.as_of_date.isoformat().encode("ascii"),
                    g.n_vertices,
                    len(g.edges),
                )
            )
            f.write(np.asarray(g.edges, dtype=EDGE_DTYPE).tobytes())
    with open(sidecar_path(path), "w", encoding="utf-8") as f:
        json.dump(params, f, indent=2, sort_keys=True)
        f.write("\n")


def read_series(path) -> WindowSeries:
    """The window series of an archive: its kind and tickers come from the
    sidecar, when it lists them, and the kind defaults to "ccm".

    On top of `read_graphs`' checks, every record's edges are checked:
    vertex indices below its vertex count, no self-loops or duplicate
    edges, finite positive weights.  An archive without records raises
    DataError, as no stage can use it.
    """
    graphs, params = read_graphs(path)
    if not graphs:
        raise DataError(f"{path}: archive holds no graphs")
    return WindowSeries(
        weights=matrix_from_digraph(graphs, f"{path}: record"),
        dates=[g.as_of_date for g in graphs],
        kind=params.get("correlation", "ccm"),
        tickers=params.get("tickers"),
    )


def read_graphs(path) -> tuple[list[WeightedDigraph], dict]:
    """The records of an archive, each one's edges an `EDGE_DTYPE` array in
    stored order, and its construction parameters.

    Checked here: the layout, dates strictly increasing across records,
    and one vertex count shared by every record and by the sidecar's
    tickers, when it lists them.  `read_series` also checks the edges.
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
        graphs: list[WeightedDigraph] = []
        for _ in range(count):
            rec = f.read(_REC_HEAD.size)
            if len(rec) < _REC_HEAD.size:
                raise DataError(f"{path}: truncated record header")
            date_bytes, n, edge_count = _REC_HEAD.unpack(rec)
            try:
                as_of = date.fromisoformat(date_bytes.decode("ascii"))
            except ValueError:
                raise DataError(f"{path}: bad record date {date_bytes!r}") from None
            if graphs and as_of <= graphs[-1].as_of_date:
                raise DataError(f"{path}: record dates not increasing at {as_of}")
            if graphs and n != graphs[0].n_vertices:
                raise DataError(
                    f"{path}: record {as_of} has {n} vertices, "
                    f"the first record has {graphs[0].n_vertices}"
                )
            if EDGE_DTYPE.itemsize * edge_count > size - f.tell():
                raise DataError(f"{path}: truncated edge block")
            block = np.frombuffer(f.read(EDGE_DTYPE.itemsize * edge_count), dtype=EDGE_DTYPE)
            graphs.append(WeightedDigraph(n_vertices=n, edges=block, as_of_date=as_of))
    side = sidecar_path(path)
    params = {}
    if side.exists():
        with open(side, "r", encoding="utf-8") as f:
            try:
                params = json.load(f)
            except ValueError as exc:
                raise DataError(f"{side}: bad sidecar JSON: {exc}") from None
        if not isinstance(params, dict):
            raise DataError(f"{side}: sidecar is not a JSON object")
        if graphs:
            _check_tickers(side, params, graphs[0].n_vertices)
    return graphs, params


def _check_tickers(where, params: dict, n: int) -> None:
    tickers = params.get("tickers")
    if tickers is not None and (not isinstance(tickers, list) or len(tickers) != n):
        raise DataError(f"{where}: tickers are not a list of {n} names, one per graph vertex")

