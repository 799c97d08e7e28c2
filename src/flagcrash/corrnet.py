"""Per-window correlation matrices and the window series built from them.

Two correlation kinds are supported: plain Pearson on the windowed return
slices, one matrix product for a batch of windows, and cross-map skill from
delay embeddings (the nonlinear coupling measure of convergent cross
mapping), computed for every ticker's shadow manifold of a window at once
and mapped over the windows, in worker processes when asked.  Negative
entries are clipped to zero before graph construction, and the diagonal
is always zero.  A run holds its graphs as one `WindowSeries` array,
which graph archives are written from and read into; `WeightedDigraph`
edge lists are the form hand-built graphs take.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import date
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .ingest import ReturnMatrix


@dataclass(frozen=True)
class CcmParams:
    """Delay-embedding parameters for the cross-map correlation."""

    embedding_dim: int = 2
    lag: int = 1

    def validate(self, width: int) -> None:
        if self.embedding_dim < 2:
            raise DataError(f"embedding dim must be >= 2, got {self.embedding_dim}")
        if self.lag < 1:
            raise DataError(f"lag must be >= 1, got {self.lag}")
        n_shadow = width - (self.embedding_dim - 1) * self.lag
        if n_shadow < self.embedding_dim + 2:
            raise DataError(
                f"window of width {width} too short for embedding "
                f"(E={self.embedding_dim}, tau={self.lag}): "
                f"{n_shadow} shadow points, need {self.embedding_dim + 2}"
            )


@dataclass
class WindowSeries:
    """The directed adjacency of every sliding window, in date order.

    `weights[i, s, t]` is the weight of edge s -> t in window i: entries
    above 0 are edges and every other entry is +0.0.  A Pearson window
    keeps one edge s -> t with s < t per correlated pair, so its lower
    triangle is zero; a cross-map window keeps both directions.
    """

    weights: np.ndarray  # (T, n, n) float64
    dates: list[date]
    kind: str  # "pearson" | "ccm"
    tickers: list[str] | None = None

    def __len__(self) -> int:
        return len(self.dates)


EDGE_DTYPE = np.dtype([("s", "<u4"), ("t", "<u4"), ("w", "<f8")])
"""One directed weighted edge (source, target, weight), as graph archives store it."""
_PEARSON_BATCH = 256  # Pearson windows computed in one product; bounds its temporaries


@dataclass
class WeightedDigraph:
    """Directed graph with weights in (0, 1]; zero entries are absent edges.

    `edges` is a list of (source, target, weight) tuples or, as
    `graph_series` returns it, an `EDGE_DTYPE` array of the same edges.
    """

    n_vertices: int
    edges: list[tuple[int, int, float]] = field(default_factory=list)
    as_of_date: date | None = None


def load_edges(n: int, blocks, dates: list[date], where: str) -> np.ndarray:
    """The (T, n, n) `WindowSeries.weights` of the T windows of `dates`, from
    (edges, counts) `blocks` in window order, each holding the `EDGE_DTYPE`
    edges of len(counts) windows back to back, counts[i] of them window i's.

    Each block is checked, then scattered.  Raises DataError, naming `where`
    and the date of the first window at fault, on a vertex index out of range,
    a self-loop, an edge given twice, a weight that is not finite and positive,
    or an array too large to allocate, found before any block is read."""
    try:
        out = np.zeros((len(dates), n, n))
    except (MemoryError, ValueError):
        raise DataError(f"{where}: {len(dates)} graphs of {n} vertices are too large") from None
    lo = 0
    for e, counts in blocks:
        window = np.repeat(np.arange(lo, lo + len(counts)), counts)
        lo += len(counts)
        s, t, w = e["s"], e["t"], e["w"]
        inside = (s < n) & (t < n)
        # an edge out of range faults its window before any duplicate could
        key = np.sort(((window * n + s) * n + t)[inside])
        faults = [
            (f"vertex index out of range for {n} vertices", window[~inside]),
            ("self-loop", window[s == t]),
            ("duplicate edge", key[1:][key[1:] == key[:-1]] // (n * n)),
            ("non-finite or non-positive edge weight", window[~(np.isfinite(w) & (w > 0.0))]),
        ]
        found = [(int(at.min()), i) for i, (_, at) in enumerate(faults) if at.size]
        if found:
            first, i = min(found)
            raise DataError(f"{where} {dates[first]}: {faults[i][0]}")
        out[window, s, t] = w
    return out


def pearson_corr(blocks: np.ndarray) -> np.ndarray:
    """(..., N, N) sample Pearson correlation of each pair of columns of
    (..., width, N) blocks of return rows.

    Zero-variance columns correlate 0 with everything; the diagonal is 0.
    """
    centered = blocks - blocks.mean(axis=-2, keepdims=True)
    norms = np.sqrt((centered**2).sum(axis=-2))
    degenerate = norms == 0.0
    unit = centered / np.where(degenerate, 1.0, norms)[..., None, :]
    corr = np.clip(np.swapaxes(unit, -1, -2) @ unit, -1.0, 1.0)
    corr[degenerate[..., :, None] | degenerate[..., None, :]] = 0.0
    corr[..., np.eye(norms.shape[-1], dtype=bool)] = 0.0
    return corr


def ccm_corr(block: np.ndarray, params: CcmParams = CcmParams()) -> np.ndarray:
    """(N, N) cross-map skill matrix of a (width, N) block of return rows:
    entry [i][j] reconstructs column j from the delay embedding of column i.

    For each shadow point of series i, the E+1 nearest shadow neighbors
    (excluding itself) vote with exponentially decaying weights, or
    uniformly over the zero-distance neighbors when the nearest distance
    is zero; the skill is the Pearson correlation between those cross-map
    estimates of series j and series j itself.  Non-finite skills clamp
    to 0.  `params` must pass `params.validate(width)`.

    The neighbors come from E+1 argmin passes over the (N, m, m) distances,
    not a sort of every row; equal distances are taken in column order, as
    a stable sort orders them.
    """
    e_dim, tau = params.embedding_dim, params.lag
    first = (e_dim - 1) * tau
    targets = block[first:]  # (m, N): y values aligned with shadow rows
    m = len(targets)
    # (N, m, E): row k of series i is (x[first+k], x[first+k-tau], ..., x[k])
    shadow = sliding_window_view(block.T, first + 1, axis=1)[..., ::-tau]
    # in C order, so that each point's distances are one contiguous row
    dists = np.empty((block.shape[1], m, m))
    np.sqrt(((shadow[:, :, None] - shadow[:, None]) ** 2).sum(axis=3), out=dists)
    dists[:, np.eye(m, dtype=bool)] = np.inf
    # the E+1 nearest by as many argmin passes, each masking what it found;
    # argmin returns the first of equal values, so ties keep a stable sort's order
    flat = dists.reshape(-1)  # a view, through which each pass reads and masks
    row_starts = np.arange(0, dists.size, m).reshape(dists.shape[:2])
    order = np.empty(dists.shape[:2] + (e_dim + 1,), np.intp)
    d = np.empty(order.shape)  # (N, m, E+1)
    for k in range(e_dim + 1):
        nearest = dists.argmin(axis=2)
        order[..., k] = nearest
        nearest += row_starts
        d[..., k] = flat[nearest]
        flat[nearest] = np.inf
    d1 = d[..., :1]
    zero = d == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.exp(-d / d1)
        weights = np.where(
            d1 == 0.0, zero / zero.sum(axis=2, keepdims=True), u / u.sum(axis=2, keepdims=True)
        )
        preds = np.einsum("ikl,iklj->ikj", weights, targets[order])  # (N, m, N)
        pc = preds - preds.mean(axis=1, keepdims=True)
        tc = targets - targets.mean(axis=0)
        skill = (pc * tc).sum(axis=1) / np.sqrt((pc**2).sum(axis=1) * (tc**2).sum(axis=0))
    skill[~np.isfinite(skill)] = 0.0
    skill = np.clip(skill, -1.0, 1.0)
    np.fill_diagonal(skill, 0.0)
    return skill


def correlation_series(
    returns: ReturnMatrix,
    width: int,
    kind: str = "ccm",
    ccm_params: CcmParams = CcmParams(),
    jobs: int = 1,
) -> WindowSeries:
    """The thresholded correlation digraph of every stride-1 window of
    `width` return rows, dated by its last row."""
    if kind not in ("pearson", "ccm"):
        raise DataError(f"unknown correlation kind {kind!r}")
    if width < 3:
        raise DataError(f"window width must be >= 3, got {width}")
    rows = returns.returns.shape[0]
    if rows < width:
        raise DataError(f"{rows} return rows cannot hold a window of width {width}")
    if kind == "ccm":
        ccm_params.validate(width)
    # block i is the (width, N) view returns[i : i + width]
    blocks = sliding_window_view(returns.returns, width, axis=0).transpose(0, 2, 1)
    if kind == "pearson":
        weights = np.empty((len(blocks), blocks.shape[2], blocks.shape[2]))
        for lo in range(0, len(blocks), _PEARSON_BATCH):
            weights[lo : lo + _PEARSON_BATCH] = pearson_corr(blocks[lo : lo + _PEARSON_BATCH])
    else:
        weights = np.stack(parallel_map(partial(ccm_corr, params=ccm_params), blocks, jobs))
    weights[~(weights > 0.0)] = 0.0
    if kind == "pearson":
        weights[:, np.tri(weights.shape[1], dtype=bool)] = 0.0
    return WindowSeries(weights, returns.dates[width - 1 :], kind, list(returns.tickers))


def parallel_map(fn, items, jobs: int) -> list:
    """`[fn(x) for x in items]`, fanned out over at most `jobs` worker processes.

    `items` is a list, or an array whose rows are the items.  The pool has
    no more workers than items or CPUs, since it starts every worker at
    once; with one worker the map runs in this process.  Otherwise `fn`
    and every item must pickle; results keep the order of `items`.  Each
    worker gets about eight chunks, so uneven items still balance while
    per-chunk pickling stays small.
    """
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor  # only parallel runs pay its import

    chunksize = max(1, -(-len(items) // (8 * workers)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def window_edges(w: np.ndarray) -> np.ndarray:
    """The edges of an (n, n) window as an `EDGE_DTYPE` array in row-major
    (source, target) order, the order graph archives store."""
    s, t = np.nonzero(w)
    e = np.empty(len(s), dtype=EDGE_DTYPE)
    e["s"], e["t"], e["w"] = s, t, w[s, t]
    return e


def graph_series(series: WindowSeries) -> list[WeightedDigraph]:
    """Each window as a digraph whose edges are its `window_edges`."""
    windows = zip(series.dates, series.weights)
    return [WeightedDigraph(len(w), window_edges(w), day) for day, w in windows]


def matrix_from_digraph(graphs: list[WeightedDigraph]) -> np.ndarray:
    """The (T, n, n) adjacency of digraphs that share `graphs[0]`'s vertex
    count n, checked as an archive's records are, a graph at a time."""
    edges = (np.asarray(g.edges, dtype=EDGE_DTYPE).reshape(-1) for g in graphs)
    n = graphs[0].n_vertices if graphs else 0
    return load_edges(n, ((e, [len(e)]) for e in edges), [g.as_of_date for g in graphs], "graph")
