"""Per-window correlation matrices and the window series built from them.

Two correlation kinds are supported: plain Pearson on the windowed return
slices, and cross-map skill from delay embeddings (the nonlinear coupling
measure).  Negative entries are clipped to zero before graph construction,
and the diagonal is always zero.  A run holds its graphs as one
`WindowSeries` array; `WeightedDigraph` edge lists are the form graphs
take at the archive boundary and in hand-built inputs.
"""

from __future__ import annotations

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
_CHECK_GRAPHS = 256  # graphs whose edges are checked in one pass; bounds its memory


@dataclass
class WeightedDigraph:
    """Directed graph with weights in (0, 1]; zero entries are absent edges.

    `edges` is a list of (source, target, weight) tuples or, as
    `graph_series` and `archive.read_graphs` return it, an `EDGE_DTYPE`
    array of the same edges.
    """

    n_vertices: int
    edges: list[tuple[int, int, float]] = field(default_factory=list)
    as_of_date: date | None = None


def stack_edges(graphs: list[WeightedDigraph], where: str) -> tuple[np.ndarray, np.ndarray]:
    """The edges of `graphs` as one `EDGE_DTYPE` array, and each edge's graph index.

    `graphs` is not empty and every graph has `graphs[0].n_vertices`
    vertices.  Raises DataError, naming `where` and the date of the first
    graph at fault, on a vertex index out of range, a self-loop, an edge
    given twice, or a weight that is not finite and positive.
    """
    blocks = [np.asarray(g.edges, dtype=EDGE_DTYPE).reshape(-1) for g in graphs]
    # joining raw bytes is much faster than np.concatenate of structured arrays
    e = np.frombuffer(b"".join([b.tobytes() for b in blocks]), dtype=EDGE_DTYPE)
    window = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    s, t, w = e["s"], e["t"], e["w"]
    n = graphs[0].n_vertices
    key = np.stack([window, s, t])[:, np.lexsort((t, s, window))]
    repeated = (key[:, 1:] == key[:, :-1]).all(axis=0)
    faults = [
        (f"vertex index out of range for {n} vertices", window[(s >= n) | (t >= n)]),
        ("self-loop", window[s == t]),
        ("duplicate edge", key[0, 1:][repeated]),
        ("non-finite or non-positive edge weight", window[~(np.isfinite(w) & (w > 0.0))]),
    ]
    found = [(int(at.min()), i) for i, (_, at) in enumerate(faults) if at.size]
    if found:
        first, i = min(found)
        raise DataError(f"{where} {graphs[first].as_of_date}: {faults[i][0]}")
    return e, window


def pearson_corr(block: np.ndarray) -> np.ndarray:
    """(N, N) sample Pearson correlation of each pair of columns of a
    (width, N) block of return rows.

    Zero-variance columns correlate 0 with everything; the diagonal is 0.
    """
    centered = block - block.mean(axis=0)
    norms = np.sqrt((centered**2).sum(axis=0))
    degenerate = norms == 0.0
    safe = np.where(degenerate, 1.0, norms)
    unit = centered / safe
    corr = unit.T @ unit
    corr = np.clip(corr, -1.0, 1.0)
    corr[degenerate, :] = 0.0
    corr[:, degenerate] = 0.0
    np.fill_diagonal(corr, 0.0)
    return corr


def _shadow_points(x: np.ndarray, e_dim: int, tau: int) -> np.ndarray:
    """Delay embedding: row k is (x[k], x[k-tau], ..., x[k-(E-1)tau])."""
    w = x.shape[0]
    first = (e_dim - 1) * tau
    idx = np.arange(first, w)
    cols = [x[idx - j * tau] for j in range(e_dim)]
    return np.stack(cols, axis=1)


def _neighbor_weights(shadow: np.ndarray, n_neighbors: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbor indices and exponential simplex weights per point.

    Self-matches are excluded.  When the nearest distance is zero the
    weight collapses uniformly onto the zero-distance neighbors.
    """
    m = shadow.shape[0]
    diff = shadow[:, None, :] - shadow[None, :, :]
    dists = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    order = np.argsort(dists, axis=1, kind="stable")[:, :n_neighbors]
    d = np.take_along_axis(dists, order, axis=1)
    d1 = d[:, 0]
    weights = np.empty_like(d)
    zero_first = d1 == 0.0
    if zero_first.any():
        zmask = d[zero_first] == 0.0
        weights[zero_first] = zmask / zmask.sum(axis=1, keepdims=True)
    reg = ~zero_first
    if reg.any():
        u = np.exp(-d[reg] / d1[reg, None])
        weights[reg] = u / u.sum(axis=1, keepdims=True)
    assert weights.shape == (m, n_neighbors)
    return order, weights


def _pearson_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Pearson correlation of two equal-shape matrices."""
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    num = (ac * bc).sum(axis=0)
    den = np.sqrt((ac**2).sum(axis=0) * (bc**2).sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = num / den
    r[~np.isfinite(r)] = 0.0
    return np.clip(r, -1.0, 1.0)


def ccm_corr(block: np.ndarray, params: CcmParams = CcmParams()) -> np.ndarray:
    """(N, N) cross-map skill matrix of a (width, N) block of return rows:
    entry [i][j] reconstructs column j from the delay embedding of column i.

    For each shadow point of series i, the E+1 nearest shadow neighbors
    (excluding itself) vote with exponentially decaying weights; the skill
    is the Pearson correlation between those cross-map estimates of series
    j and series j itself.  Non-finite skills clamp to 0.  `params` must
    pass `params.validate(width)`.
    """
    n = block.shape[1]
    e_dim, tau = params.embedding_dim, params.lag
    first = (e_dim - 1) * tau
    targets = block[first:, :]  # y values aligned with shadow rows
    values = np.zeros((n, n))
    for i in range(n):
        shadow = _shadow_points(block[:, i], e_dim, tau)
        order, weights = _neighbor_weights(shadow, e_dim + 1)
        # predictions for every candidate target series at once: (m, N)
        preds = np.einsum("kl,klj->kj", weights, targets[order])
        values[i, :] = _pearson_columns(preds, targets)
    np.fill_diagonal(values, 0.0)
    return values


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
    corr = pearson_corr if kind == "pearson" else partial(ccm_corr, params=ccm_params)
    # block i is the (width, N) view returns[i : i + width]
    blocks = sliding_window_view(returns.returns, width, axis=0).transpose(0, 2, 1)
    weights = np.stack(parallel_map(corr, blocks, jobs))
    weights[~(weights > 0.0)] = 0.0
    if kind == "pearson":
        weights[:, np.tri(weights.shape[1], dtype=bool)] = 0.0
    return WindowSeries(weights, returns.dates[width - 1 :], kind, list(returns.tickers))


def parallel_map(fn, items, jobs: int) -> list:
    """`[fn(x) for x in items]`, fanned out over `jobs` worker processes.

    `items` is a list, or an array whose rows are the items.  With more
    than one job, `fn` and every item must pickle; results keep the order
    of `items`.  Each worker gets about eight chunks, so uneven items
    still balance while per-chunk pickling stays small.
    """
    if jobs <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ProcessPoolExecutor  # only parallel runs pay its import

    chunksize = max(1, -(-len(items) // (8 * jobs)))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


def graph_series(series: WindowSeries) -> list[WeightedDigraph]:
    """Each window as a digraph whose edges are an `EDGE_DTYPE` array in
    row-major (source, target) order, the order graph archives store."""
    out = []
    for day, w in zip(series.dates, series.weights):
        s, t = np.nonzero(w)
        e = np.empty(len(s), dtype=EDGE_DTYPE)
        e["s"], e["t"], e["w"] = s, t, w[s, t]
        out.append(WeightedDigraph(len(w), e, day))
    return out


def matrix_from_digraph(graphs: list[WeightedDigraph], where: str = "graph") -> np.ndarray:
    """The (T, n, n) adjacency of digraphs that share `graphs[0]`'s vertex
    count n, as `WindowSeries.weights` holds it.

    `stack_edges` checks every chunk of graphs, naming `where`, before its
    edges are scattered; an array too large to allocate raises DataError.
    """
    n = graphs[0].n_vertices if graphs else 0
    try:
        out = np.zeros((len(graphs), n, n))
    except (MemoryError, ValueError):
        raise DataError(f"{where}: {len(graphs)} graphs of {n} vertices are too large") from None
    for lo in range(0, len(graphs), _CHECK_GRAPHS):
        e, window = stack_edges(graphs[lo : lo + _CHECK_GRAPHS], where)
        out[lo + window, e["s"], e["t"]] = e["w"]
    return out
