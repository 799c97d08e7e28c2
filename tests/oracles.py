"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles (explicit rank
computations, literal formulas, exhaustive loops) without touching the
library's reduction/score code paths.  `traced_peak` and
`run_at_blas_threads`, at the end, are the allocation probe and the
subprocess runner that the memory and bit tests share.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import Counter
from datetime import date, datetime, timedelta
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

import flagcrash
from flagcrash import autodiff as ad
from flagcrash import gnn
from flagcrash.checkpoint import MAGIC, VERSION
from flagcrash.corrnet import CcmParams, WeightedDigraph, WindowSeries, matrix_from_digraph
from flagcrash.errors import DataError
from flagcrash.evaluation import EventList
from flagcrash.ingest import PriceTable
from flagcrash.ph import PersistenceDiagram


# ---------------------------------------------------------------------------
# GF(2) linear algebra on columns encoded as python ints (bit i = row i)


class Gf2Eliminator:
    """Incremental column echelonization over GF(2)."""

    def __init__(self):
        self.pivots: dict[int, int] = {}

    def add(self, col: int) -> bool:
        """Insert a column; returns True if the rank increased."""
        while col:
            p = col.bit_length() - 1
            if p in self.pivots:
                col ^= self.pivots[p]
            else:
                self.pivots[p] = col
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def clone(self) -> "Gf2Eliminator":
        out = Gf2Eliminator()
        out.pivots = dict(self.pivots)
        return out


# ---------------------------------------------------------------------------
# Brute-force persistent diagram from persistent Betti numbers


def _enumerate_simplices(g: WeightedDigraph):
    """Vertices, directed edges, and ordered directed triangles with values,
    found by exhaustive loops over vertex tuples."""
    w = {(s, t): wt for s, t, wt in g.edges}
    verts = [((v,), 0.0) for v in range(g.n_vertices)]
    edges = [((s, t), wt) for (s, t), wt in w.items()]
    tris = []
    for a in range(g.n_vertices):
        for b in range(g.n_vertices):
            for c in range(g.n_vertices):
                if len({a, b, c}) < 3:
                    continue
                if (a, b) in w and (a, c) in w and (b, c) in w:
                    tris.append(((a, b, c), max(w[(a, b)], w[(a, c)], w[(b, c)])))
    return verts, edges, tris


def brute_force_diagram(g: WeightedDigraph):
    """Finite-bar and essential-bar multisets for dims 0 and 1.

    Computed from persistent Betti numbers: for each pair of filtration
    levels s <= t,

        beta_p(s, t) = rank [ d_{p+1}(K_t) | P(K_s) ] - rank d_p(K_s)
                       - rank d_{p+1}(K_t)

    where P(K_s) selects the coordinate columns of p-simplices present in
    K_s.  Bar multiplicities follow by inclusion-exclusion over levels.
    Returns (finite Counter of (birth, death, dim), essential Counter of
    (birth, dim)).
    """
    verts, edges, tris = _enumerate_simplices(g)
    levels = sorted({0.0} | {v for _, v in edges})
    m = len(levels)
    level_of = {v: i for i, v in enumerate(levels)}

    by_dim = {0: verts, 1: edges, 2: tris}
    for d in by_dim:
        by_dim[d] = sorted(by_dim[d], key=lambda s: (s[1], s[0]))
    row_index = {d: {tup: i for i, (tup, _) in enumerate(by_dim[d])} for d in by_dim}

    def counts_by_level(simps):
        out = [0] * m
        for _, v in simps:
            out[level_of[v]] += 1
        return np.cumsum(out).tolist()

    n_at = {d: counts_by_level(by_dim[d]) for d in by_dim}

    def boundary_col(dim, tup):
        col = 0
        for drop in range(dim + 1):
            face = tup[:drop] + tup[drop + 1 :]
            col |= 1 << row_index[dim - 1][face]
        return col

    def boundary_ranks_by_level(dim):
        """rank d_dim(K_t) for every level t (d_0 = 0)."""
        ranks = [0] * m
        if dim == 0:
            return ranks
        elim = Gf2Eliminator()
        cols = [(v, boundary_col(dim, tup)) for tup, v in by_dim[dim]]
        ci = 0
        for t, lv in enumerate(levels):
            while ci < len(cols) and cols[ci][0] <= lv:
                elim.add(cols[ci][1])
                ci += 1
            ranks[t] = elim.rank
        return ranks

    finite: Counter = Counter()
    essential: Counter = Counter()
    for p in (0, 1):
        rank_dp = boundary_ranks_by_level(p)
        rank_dp1 = boundary_ranks_by_level(p + 1)

        # beta[s][t] for s <= t
        beta = [[0] * m for _ in range(m)]
        bcols = [(v, boundary_col(p + 1, tup)) for tup, v in by_dim[p + 1]]
        bcols.sort(key=lambda cv: cv[0])
        pcols = [(v, 1 << row_index[p][tup]) for tup, v in by_dim[p]]
        pcols.sort(key=lambda cv: cv[0])
        boundary_elim = Gf2Eliminator()
        bi = 0
        for t, lv_t in enumerate(levels):
            while bi < len(bcols) and bcols[bi][0] <= lv_t:
                boundary_elim.add(bcols[bi][1])
                bi += 1
            joint = boundary_elim.clone()
            pi = 0
            for s in range(t + 1):
                while pi < len(pcols) and pcols[pi][0] <= levels[s]:
                    joint.add(pcols[pi][1])
                    pi += 1
                beta[s][t] = joint.rank - rank_dp[s] - rank_dp1[t]

        def b(s, t):
            return beta[s][t] if s >= 0 else 0

        for s in range(m):
            for t in range(s + 1, m):
                mult = (b(s, t - 1) - b(s, t)) - (b(s - 1, t - 1) - b(s - 1, t))
                if mult:
                    finite[(levels[s], levels[t], p)] += mult
            ess = b(s, m - 1) - b(s - 1, m - 1)
            if ess:
                essential[(levels[s], p)] += ess
    return finite, essential


# ---------------------------------------------------------------------------
# The simplex-list boundary reducer that the cohomology engine replaced


def reference_persistence(g: WeightedDigraph) -> PersistenceDiagram:
    """GF(2) boundary reduction of the whole 2-skeleton, one column at a time.

    Simplices are sorted by (value, dimension, vertex tuple); triangle
    columns over edge rows are reduced first, and an edge that becomes a
    triangle column's pivot is cleared from the edge block.  Bars come out
    in the order the reduction finds them: H1 by death, then H0 by edge.
    """
    weights: dict[tuple[int, int], float] = {}
    succ: dict[int, set[int]] = {v: set() for v in range(g.n_vertices)}
    for s, t, w in g.edges:
        weights[(s, t)] = w
        succ[s].add(t)
    simplices = [((v,), 0, 0.0) for v in range(g.n_vertices)]
    for (a, b), w_ab in weights.items():
        simplices.append(((a, b), 1, w_ab))
        for c in succ[a] & succ[b]:
            simplices.append(((a, b, c), 2, max(w_ab, weights[(a, c)], weights[(b, c)])))
    simplices.sort(key=lambda s: (s[2], s[1], s[0]))

    index = {tup: i for i, (tup, _, _) in enumerate(simplices)}
    values = [value for _, _, value in simplices]

    def reduce(col: set[int], pivot_of: dict[int, frozenset[int]]) -> int | None:
        while col:
            piv = max(col)
            ruling = pivot_of.get(piv)
            if ruling is None:
                pivot_of[piv] = frozenset(col)
                return piv
            col ^= ruling
        return None

    finite: list[tuple[float, float, int]] = []
    cleared: set[int] = set()
    edge_pivots: dict[int, frozenset[int]] = {}
    for j, (tup, dim, _) in enumerate(simplices):
        if dim == 2:
            a, b, c = tup
            piv = reduce({index[(b, c)], index[(a, c)], index[(a, b)]}, edge_pivots)
            if piv is not None:
                cleared.add(piv)
                if values[piv] != values[j]:
                    finite.append((values[piv], values[j], 1))
    h1_births: list[float] = []
    vertex_pivots: dict[int, frozenset[int]] = {}
    for j, (tup, dim, _) in enumerate(simplices):
        if dim == 1 and j not in cleared:
            piv = reduce({index[(tup[0],)], index[(tup[1],)]}, vertex_pivots)
            if piv is None:
                h1_births.append(values[j])
            elif values[piv] != values[j]:
                finite.append((values[piv], values[j], 0))
    essential = [(0.0, 0) for v in range(g.n_vertices) if index[(v,)] not in vertex_pivots]
    essential.extend((b, 1) for b in h1_births)
    return PersistenceDiagram(
        finite=finite, essential=essential, max_filtration=max(values, default=0.0)
    )


# ---------------------------------------------------------------------------
# Union-find oracle for H0 deaths


def union_find_merge_weights(g: WeightedDigraph):
    """Multiset of weights at which components merge (ascending Kruskal)
    and the number of final components."""
    parent = list(range(g.n_vertices))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = []
    for s, t, w in sorted(g.edges, key=lambda e: e[2]):
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
            merges.append(w)
    components = len({find(v) for v in range(g.n_vertices)})
    return Counter(merges), components


def reference_kruskal(f) -> np.ndarray:
    """Whether each edge of a chunk's `ph.Filtration` joins two components
    when edges enter in filtration order: union-find by component labels,
    every window in lockstep, step r taking each window's r-th edge until
    the window is connected."""
    counts = np.diff(f.edge_start)
    comp = np.tile(np.arange(f.n_vertices), (len(counts), 1))
    joins_left = np.full(len(counts), f.n_vertices - 1)
    tree = np.zeros(len(f.edges), dtype=bool)
    for r in range(counts.max(initial=0)):
        live = np.flatnonzero((counts > r) & (joins_left > 0))
        if not live.size:
            break
        idx = f.edge_start[live] + r
        u = comp[live, f.edges[idx, 0]]
        v = comp[live, f.edges[idx, 1]]
        join = u != v
        tree[idx[join]] = True
        live, u, v = live[join], u[join], v[join]
        joins_left[live] -= 1
        rows = comp[live]
        comp[live] = np.where(rows == v[:, None], u[:, None], rows)
    return tree


# ---------------------------------------------------------------------------
# Cross-map skill one ticker at a time (the reference for `corrnet.ccm_corr`)


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


def reference_pearson_corr(block: np.ndarray) -> np.ndarray:
    """(N, N) sample Pearson correlation of each pair of columns of one
    (width, N) block of return rows, one window at a time.

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


def reference_ccm_corr(block: np.ndarray, params: CcmParams = CcmParams()) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Random graph generators


def random_digraph(rng: np.random.Generator, max_vertices: int) -> WeightedDigraph:
    n = int(rng.integers(1, max_vertices + 1))
    density = float(rng.uniform(0.05, 0.7))
    quantize = rng.random() < 0.3  # force weight ties sometimes
    edges = []
    for s in range(n):
        for t in range(n):
            if s != t and rng.random() < density:
                w = float(rng.uniform(0.05, 1.0))
                if quantize:
                    w = round(w, 1) or 0.1
                edges.append((s, t, w))
    return WeightedDigraph(
        n_vertices=n, edges=edges, as_of_date=date(2020, 1, 1)
    )


def series_of(graphs: list[WeightedDigraph], kind: str = "ccm") -> WindowSeries:
    """The window series of dated digraphs that share one vertex count."""
    return WindowSeries(matrix_from_digraph(graphs), [g.as_of_date for g in graphs], kind)


# one bad edge list of a 3-vertex graph per fault of the edge check, and the
# words of its message: every digraph a caller hands in must be rejected so
BAD_EDGES = {
    "self-loop": ([(1, 1, 0.5)], "self-loop"),
    "duplicate": ([(0, 1, 0.5), (0, 1, 0.25)], "duplicate"),
    "zero": ([(0, 1, 0.0)], "non-positive"),
    "negative": ([(0, 1, -0.5)], "non-positive"),
    "nan": ([(0, 1, float("nan"))], "non-positive"),
    "vertex-index": ([(0, 3, 0.5)], "out of range"),
}


def random_graph_sequence(seed: int, count: int, max_vertices: int):
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        g = random_digraph(rng, max_vertices)
        g.as_of_date = date(2018, 1, 1) + timedelta(days=i)
        graphs.append(g)
    return graphs


# ---------------------------------------------------------------------------
# The graph archive through per-window digraphs: the writer and reader that
# the array-native `archive.write_graphs` and `archive.read_graphs` replaced,
# the references for their bytes, arrays and error messages

_EDGE = np.dtype([("s", "<u4"), ("t", "<u4"), ("w", "<f8")])
_ARCHIVE_HEAD = struct.Struct("<4sIQ")
_RECORD_HEAD = struct.Struct("<10sIQ")


def reference_write_graphs(path, series: WindowSeries, params: dict) -> None:
    """`graph_series` then the list writer: one record per digraph."""
    path = Path(path)
    graphs = []
    for day, w in zip(series.dates, series.weights):
        s, t = np.nonzero(w)
        e = np.empty(len(s), dtype=_EDGE)
        e["s"], e["t"], e["w"] = s, t, w[s, t]
        graphs.append(WeightedDigraph(len(w), e, day))
    late = next((b for a, b in zip(graphs, graphs[1:]) if b.as_of_date <= a.as_of_date), None)
    if late is not None:
        raise DataError(f"cannot archive graphs whose dates do not increase, at {late.as_of_date}")
    tickers = params.get("tickers")
    if graphs and tickers is not None and (
        not isinstance(tickers, list) or len(tickers) != graphs[0].n_vertices
    ):
        raise DataError(f"{path}: tickers are not a list of {graphs[0].n_vertices} names, "
                        "one per graph vertex")
    with open(path, "wb") as f:
        f.write(_ARCHIVE_HEAD.pack(b"FCGR", 1, len(graphs)))
        for g in graphs:
            f.write(_RECORD_HEAD.pack(g.as_of_date.isoformat().encode("ascii"), g.n_vertices,
                                      len(g.edges)))
            f.write(np.asarray(g.edges, dtype=_EDGE).tobytes())
    with open(str(path) + ".json", "w", encoding="utf-8") as f:
        json.dump(params, f, indent=2, sort_keys=True)
        f.write("\n")


def _reference_read_graphs(path) -> tuple[list[WeightedDigraph], dict]:
    path = Path(path)
    size = path.stat().st_size
    with open(path, "rb") as f:
        head = f.read(_ARCHIVE_HEAD.size)
        if len(head) < _ARCHIVE_HEAD.size:
            raise DataError(f"{path}: truncated graph archive header")
        magic, version, count = _ARCHIVE_HEAD.unpack(head)
        if magic != b"FCGR":
            raise DataError(f"{path}: not a graph archive (bad magic {magic!r})")
        if version != 1:
            raise DataError(f"{path}: unsupported archive version {version}")
        graphs: list[WeightedDigraph] = []
        for _ in range(count):
            rec = f.read(_RECORD_HEAD.size)
            if len(rec) < _RECORD_HEAD.size:
                raise DataError(f"{path}: truncated record header")
            date_bytes, n, edge_count = _RECORD_HEAD.unpack(rec)
            try:
                as_of = date.fromisoformat(date_bytes.decode("ascii"))
                # fromisoformat also reads b"2020-W02-4" and b"20200109  "
                if as_of.isoformat().encode("ascii") != date_bytes:
                    raise ValueError
            except ValueError:
                raise DataError(f"{path}: bad record date {date_bytes!r}") from None
            if graphs and as_of <= graphs[-1].as_of_date:
                raise DataError(f"{path}: record dates not increasing at {as_of}")
            if graphs and n != graphs[0].n_vertices:
                raise DataError(f"{path}: record {as_of} has {n} vertices, "
                                f"the first record has {graphs[0].n_vertices}")
            if _EDGE.itemsize * edge_count > size - f.tell():
                raise DataError(f"{path}: truncated edge block")
            block = np.frombuffer(f.read(_EDGE.itemsize * edge_count), dtype=_EDGE)
            graphs.append(WeightedDigraph(n_vertices=n, edges=block, as_of_date=as_of))
    side = Path(str(path) + ".json")
    params = {}
    if side.exists():
        try:
            params = json.loads(side.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise DataError(f"{side}: bad sidecar JSON: {exc}") from None
        if not isinstance(params, dict):
            raise DataError(f"{side}: sidecar is not a JSON object")
        tickers = params.get("tickers")
        n = graphs[0].n_vertices if graphs else None
        if graphs and tickers is not None and (not isinstance(tickers, list) or len(tickers) != n):
            raise DataError(f"{side}: tickers are not a list of {n} names, one per graph vertex")
        kind = params.get("correlation", "ccm")
        if kind not in ("pearson", "ccm"):
            raise DataError(f'{side}: correlation is {kind!r}, not "pearson" or "ccm"')
    return graphs, params


def _reference_stack_edges(graphs: list[WeightedDigraph], where: str):
    """Every edge of `graphs` and its graph index, checked by one lexsort."""
    e = np.concatenate([np.asarray(g.edges, dtype=_EDGE).reshape(-1) for g in graphs])
    window = np.repeat(np.arange(len(graphs)), [len(g.edges) for g in graphs])
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


def reference_read_series(path) -> WindowSeries:
    """The list reader, then each chunk of 256 digraphs checked and scattered."""
    graphs, params = _reference_read_graphs(path)
    if not graphs:
        raise DataError(f"{path}: archive holds no graphs")
    n = graphs[0].n_vertices
    where = f"{path}: record"
    try:
        weights = np.zeros((len(graphs), n, n))
    except (MemoryError, ValueError):
        raise DataError(f"{where}: {len(graphs)} graphs of {n} vertices are too large") from None
    for lo in range(0, len(graphs), 256):
        e, window = _reference_stack_edges(graphs[lo : lo + 256], where)
        weights[lo + window, e["s"], e["t"]] = e["w"]
    return WindowSeries(weights, [g.as_of_date for g in graphs],
                        params.get("correlation", "ccm"), params.get("tickers"))


# ---------------------------------------------------------------------------
# Literal LOF reference (O(T^2), straight from the definitions)


def brute_force_lof(points: np.ndarray, k: int) -> np.ndarray:
    t = points.shape[0]
    dist = np.zeros((t, t))
    for a in range(t):
        for b in range(t):
            dist[a, b] = float(np.sqrt(np.sum((points[a] - points[b]) ** 2)))

    kdist = np.zeros(t)
    neighborhoods = []
    for a in range(t):
        others = sorted(dist[a, b] for b in range(t) if b != a)
        kdist[a] = others[k - 1]
        neighborhoods.append(
            [b for b in range(t) if b != a and dist[a, b] <= kdist[a]]
        )

    lrd = np.zeros(t)
    for a in range(t):
        reach = [max(kdist[b], dist[a, b]) for b in neighborhoods[a]]
        lrd[a] = 1.0 / (sum(reach) / len(reach) + 1e-10)

    lof = np.zeros(t)
    for a in range(t):
        lof[a] = sum(lrd[b] for b in neighborhoods[a]) / len(neighborhoods[a]) / lrd[a]
    return lof


# ---------------------------------------------------------------------------
# Single-k LOF over the whole distance matrix at once: the production
# arithmetic before distances and k-distances were shared across k and the
# reductions ran in row blocks.  Production scores must equal it bit for bit.


def reference_lof(points: np.ndarray, k: int) -> np.ndarray:
    dist = cdist(points, points, metric="euclidean")
    np.fill_diagonal(dist, np.inf)

    kdist = np.partition(dist, k - 1, axis=1)[:, k - 1]
    neighbor_mask = dist <= kdist[:, None]  # excludes self via inf diagonal
    counts = neighbor_mask.sum(axis=1)

    reach = np.maximum(kdist[None, :], dist)  # reach[a, b] = reach dist of b from a
    mean_reach = np.where(neighbor_mask, reach, 0.0).sum(axis=1) / counts
    lrd = 1.0 / (mean_reach + 1e-10)
    return np.where(neighbor_mask, lrd[None, :], 0.0).sum(axis=1) / counts / lrd


# ---------------------------------------------------------------------------
# LOF for several k over the square distance matrix in blocks of 128 rows:
# the production arithmetic before it worked from condensed distances.  Each
# k-distance comes from one partition of a block at every kth, and each row
# sum from the dense masked (rows, T) block, as in `reference_lof`.


def reference_lof_blocks(points: np.ndarray, ks, block_rows: int = 128) -> list[np.ndarray]:
    t_rows = len(points)
    dist = cdist(points, points, metric="euclidean")
    np.fill_diagonal(dist, np.inf)
    blocks = [slice(lo, lo + block_rows) for lo in range(0, t_rows, block_rows)]

    kths = sorted({k - 1 for k in ks})
    kdists = np.empty((len(kths), t_rows))
    for rows in blocks:
        kdists[:, rows] = np.partition(dist[rows], kths, axis=1)[:, kths].T

    scores = {}
    for k in dict.fromkeys(ks):
        kdist = kdists[kths.index(k - 1)]
        counts = np.empty(t_rows, dtype=np.intp)
        mean_reach = np.empty(t_rows)
        for rows in blocks:
            neighbor_mask = dist[rows] <= kdist[rows, None]
            counts[rows] = neighbor_mask.sum(axis=1)
            reach = np.maximum(kdist[None, :], dist[rows])
            reach_sum = np.where(neighbor_mask, reach, 0.0).sum(axis=1)
            mean_reach[rows] = reach_sum / counts[rows]
        lrd = 1.0 / (mean_reach + 1e-10)
        lof = np.empty(t_rows)
        for rows in blocks:
            neighbor_mask = dist[rows] <= kdist[rows, None]
            lrd_sum = np.where(neighbor_mask, lrd[None, :], 0.0).sum(axis=1)
            lof[rows] = lrd_sum / counts[rows] / lrd[rows]
        scores[k] = lof
    return [scores[k].copy() for k in ks]


# ---------------------------------------------------------------------------
# Mahalanobis through the d x d ridged covariance at every shape, unscaled:
# the production arithmetic before the T x T Gram path and the power-of-two
# scaling.  Production scores must equal it bit for bit when T > d.


def reference_mahalanobis(vectors: np.ndarray, ridge_eps: float = 1e-6) -> np.ndarray:
    x = np.ascontiguousarray(vectors, dtype=np.float64)
    t_rows, dim = x.shape
    mean = x.mean(axis=0)
    centered = x - mean
    cov = (centered.T @ centered) / (t_rows - 1)
    trace = float(np.trace(cov))
    if trace == 0.0:
        scores = np.zeros(t_rows)
    else:
        ridged = cov + (ridge_eps * trace / dim) * np.eye(dim)
        solved = np.linalg.solve(ridged, centered.T)  # (d, T)
        scores = np.sqrt(np.einsum("td,dt->t", centered, solved))
    return scores


# ---------------------------------------------------------------------------
# Batched GINE before the fused aggregation op: the batch layout built by a
# stable argsort of the messages and a CSC-to-CSR conversion of the scatter
# matrix, and the aggregation as five tape nodes.  The batches of
# `gnn._Layout` must give the same matrices and bitwise the same features,
# and `gnn._aggregate` the same values and gradients to rounding.


def reference_batch(graphs, idx) -> SimpleNamespace:
    """sizes, offsets, x and y tensors, and gather (2E x N), scatter
    (N x 2E) and pool (B x N) CSR matrices of the graphs `idx`."""
    b = SimpleNamespace()
    if isinstance(graphs, np.ndarray):
        adjacency = graphs[idx]
        graph, s, t = np.nonzero(adjacency)
        n = adjacency.shape[1]
        edges = np.stack([graph * n + s, graph * n + t], axis=1)
        y = adjacency[graph, s, t].reshape(-1, 1)
        x = gnn._node_features(len(adjacency) * n, edges, y)
        b.sizes = np.full(len(adjacency), n)
    else:
        chosen = [graphs[i] for i in idx]
        b.sizes = np.array([g.n for g in chosen], dtype=np.intp)
        starts = np.cumsum(b.sizes) - b.sizes
        parts = [np.reshape(g.edges, (-1, 2)) + lo for g, lo in zip(chosen, starts)]
        edges = np.concatenate(parts)
        graph = np.repeat(np.arange(len(chosen)), [len(e) for e in parts])
        x, y = (np.concatenate([getattr(g, k) for g in chosen]) for k in ("x", "y"))
    b.offsets = np.concatenate([[0], np.cumsum(b.sizes)])
    n_nodes = int(b.offsets[-1])
    n_msgs = 2 * len(edges)
    b.x = ad.Tensor(x)
    b.has_edges = n_msgs > 0
    if b.has_edges:
        # each graph's edges deliver s -> t as its first messages, then t -> s
        order = np.argsort(np.concatenate([graph, graph]), kind="stable")
        src, tgt = np.concatenate([edges, edges[:, ::-1]])[order].T
        ones, one_per_row = np.ones(n_msgs), np.arange(n_msgs + 1)
        b.gather = sp.csr_matrix((ones, src, one_per_row), shape=(n_msgs, n_nodes))
        by_target = sp.csr_matrix((ones, tgt, one_per_row), shape=(n_msgs, n_nodes))
        b.scatter = by_target.T.tocsr()
        b.y = ad.Tensor(np.concatenate([y, y])[order])
    b.pool = sp.csr_matrix(
        (np.repeat(1.0 / b.sizes, b.sizes), np.arange(n_nodes), b.offsets),
        shape=(len(b.sizes), n_nodes),
    )
    return b


def reference_gine_aggregate(h, epsilon, edge_proj, y, gather, scatter) -> ad.Tensor:
    """(1 + eps) * h + scatter @ relu(gather @ h + y @ edge_proj) on the tape."""
    combined = ad.add(h, ad.scalar_mul(epsilon, h))
    if len(y):
        messages = ad.relu(
            ad.add(ad.sparse_matmul(gather, h), ad.matmul(ad.Tensor(y), edge_proj))
        )
        combined = ad.add(combined, ad.sparse_matmul(scatter, messages))
    return combined


class ReferenceLayout:
    """`gnn._Layout`'s interface over `reference_batch`: every batch is built
    afresh from the graphs, in the form `gnn._forward` reads (a plain y, a
    CSC scatter, empty one-hot matrices for an edgeless batch, and a fresh
    relu mask for every aggregation).  Substituted for `gnn._Layout`, it gives
    the training and scoring runs that the layout's must equal bit for bit."""

    def __init__(self, graphs, batch_size):
        self.graphs, self.batch_size = graphs, batch_size
        if isinstance(graphs, np.ndarray):
            self.sizes = np.full(len(graphs), graphs.shape[-1], dtype=np.intp)
        else:
            self.sizes = np.array([g.n for g in graphs], dtype=np.intp)

    def batch(self, idx):
        b = reference_batch(self.graphs, idx)
        n_nodes = int(b.offsets[-1])
        if b.has_edges:
            b.y, b.scatter = b.y.data, b.scatter.tocsc()
        else:
            b.y = np.zeros((0, 1))
            b.gather, b.scatter = sp.csr_matrix((0, n_nodes)), sp.csc_matrix((n_nodes, 0))
        b.mask = lambda layer, width: np.empty((len(b.y), width), bool)
        return b


# ---------------------------------------------------------------------------
# Per-graph GINE: one tape per graph over dense one-hot (2E x n) gather and
# scatter matrices, and the training loop that summed per-graph loss terms.
# This was the production path before graphs were batched; batched forwards,
# scores and loss curves must match it to rounding.


class OneHotGraph:
    """Constant per-graph matrices shared by every forward pass."""

    def __init__(self, g):
        self.n = g.n
        self.x = ad.Tensor(g.x)
        n_deliveries = 2 * len(g.edges)
        self.has_edges = n_deliveries > 0
        if self.has_edges:
            src = np.zeros((n_deliveries, g.n))
            tgt_t = np.zeros((g.n, n_deliveries))
            for i, (s, t) in enumerate(g.edges):
                src[i, s] = 1.0
                tgt_t[t, i] = 1.0
                src[i + len(g.edges), t] = 1.0
                tgt_t[s, i + len(g.edges)] = 1.0
            self.gather = ad.Tensor(src)
            self.scatter = ad.Tensor(tgt_t)
            self.y_both = ad.Tensor(np.vstack([g.y, g.y]))


def mean_rows(x: ad.Tensor) -> ad.Tensor:
    """Mean over rows: (n, m) -> (m,); 1-d input averages to a scalar."""
    n = x.data.shape[0]
    out_data = x.data.mean(axis=0)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(np.broadcast_to(g / n, x.data.shape).copy())

    return ad._wrap(out_data, (x,), backward)


def onehot_forward(model, gt: OneHotGraph):
    """Per-layer (n, h) node tensors and the (L*h,) graph embedding."""
    h = gt.x
    per_layer = []
    for layer in model.layers:
        combined = ad.add(h, ad.scalar_mul(layer.epsilon, h))
        if gt.has_edges:
            messages = ad.relu(
                ad.add(ad.matmul(gt.gather, h), ad.matmul(gt.y_both, layer.edge_proj))
            )
            combined = ad.add(combined, ad.matmul(gt.scatter, messages))
        h = ad.matmul(ad.relu(ad.matmul(combined, layer.w1)), layer.w2)
        per_layer.append(h)
    return per_layer, ad.concat_cols([mean_rows(h) for h in per_layer])


def _reference_fit(params, term, rng, n, config, weight_decay):
    state = ad.AdamState(params)
    losses = []
    for _ in range(config.epochs):
        epoch_loss = 0.0
        perm = rng.permutation(n)
        for batch in [perm[i : i + config.batch_size] for i in range(0, n, config.batch_size)]:
            for p in params:
                p.zero_grad()
            terms = [term(i) for i in batch]
            loss = terms[0]
            for t in terms[1:]:
                loss = ad.add(loss, t)
            loss = ad.scalar_mul(1.0 / len(batch), loss)
            loss.backward()
            ad.adam_step(params, state, lr=config.lr, weight_decay=weight_decay)
            epoch_loss += float(loss.data) * len(batch)
        losses.append(epoch_loss / n)
        if len(losses) > config.patience and min(
            losses[-config.patience :]
        ) > min(losses[: -config.patience]) - config.min_delta:
            break
    return losses


def reference_ocgin_train(graphs, config):
    rng = np.random.default_rng(config.seed)
    model = gnn.init_gine(rng, hidden=config.hidden, n_layers=config.layers)
    prepped = [OneHotGraph(g) for g in graphs]
    center = np.mean([onehot_forward(model, gt)[1].data for gt in prepped], axis=0)
    c_tensor = ad.Tensor(center)

    def term(i):
        return ad.squared_norm(ad.sub(onehot_forward(model, prepped[i])[1], c_tensor))

    losses = _reference_fit(
        model.parameters(), term, rng, len(graphs), config, config.weight_decay
    )
    return gnn.OcginState(model=model, center=center, loss_curve=losses)


def reference_ocgin_scores(state, graphs):
    diffs = [onehot_forward(state.model, OneHotGraph(g))[1].data - state.center for g in graphs]
    return np.array([float(d @ d) for d in diffs])


def reference_glocalkd_train(graphs, config):
    rng = np.random.default_rng(config.seed)
    teacher = gnn.init_gine(rng, hidden=config.hidden, n_layers=config.layers)
    for t in teacher.parameters():
        t.requires_grad = False
    student = gnn.init_gine(rng, hidden=config.hidden, n_layers=config.layers)
    prepped = [OneHotGraph(g) for g in graphs]
    teacher_out = []
    for gt in prepped:
        per_layer, emb = onehot_forward(teacher, gt)
        teacher_out.append((per_layer[-1].data.copy(), emb.data.copy()))

    def term(i):
        nodes, emb = teacher_out[i]
        per_layer, s_emb = onehot_forward(student, prepped[i])
        node_term = ad.scalar_mul(
            config.lam / prepped[i].n,
            ad.squared_norm(ad.sub(per_layer[-1], ad.Tensor(nodes))),
        )
        return ad.add(node_term, ad.squared_norm(ad.sub(s_emb, ad.Tensor(emb))))

    losses = _reference_fit(student.parameters(), term, rng, len(graphs), config, 0.0)
    return gnn.GlocalState(
        teacher=teacher, student=student, lam=config.lam, loss_curve=losses
    )


def reference_glocalkd_score(state, g) -> float:
    """lambda * final-layer node mimicry error / n + graph embedding error."""
    gt = OneHotGraph(g)
    teacher_layers, teacher_emb = onehot_forward(state.teacher, gt)
    student_layers, student_emb = onehot_forward(state.student, gt)
    node_err = float(
        np.sum((student_layers[-1].data - teacher_layers[-1].data) ** 2)
    ) / g.n
    graph_err = float(np.sum((student_emb.data - teacher_emb.data) ** 2))
    return state.lam * node_err + graph_err


def reference_glocalkd_scores(state, graphs):
    return np.array([reference_glocalkd_score(state, g) for g in graphs])


# ---------------------------------------------------------------------------
# No-grad GINE passes as four chunk loops, one per use: the one-class
# center, the one-class scores, the teacher's targets and the distillation
# scores, each over batches of `size` consecutive graphs, and the scorer
# building one batch per chunk for teacher and student.  `gnn._no_grad_pass`
# serves all four; centers, scores, targets, trained parameters and loss
# curves must stay bitwise equal to these.


def chunked_batches(graphs, size):
    """Batches of at most `size` consecutive graphs, in graph order."""
    layout = ReferenceLayout(graphs, size)
    return (
        layout.batch(range(lo, min(lo + size, len(graphs))))
        for lo in range(0, len(graphs), size)
    )


def chunked_embeddings(model, graphs, size) -> np.ndarray:
    """(T, L*h) graph embeddings, computed `size` graphs at a time."""
    with ad.no_grad():
        parts = [gnn._forward(model, b)[1].data for b in chunked_batches(graphs, size)]
    return np.concatenate([np.zeros((0, model.embedding_dim)), *parts])


def chunked_center(model, graphs, size) -> np.ndarray:
    return np.mean(chunked_embeddings(model, graphs, size), axis=0)


def chunked_ocgin_scores(state, graphs, size) -> np.ndarray:
    diffs = chunked_embeddings(state.model, graphs, size) - state.center
    return np.sum(diffs * diffs, axis=1)


def chunked_teacher_targets(teacher, graphs, size):
    """Per-graph final-layer node embeddings and the (T, L*h) embeddings."""
    teacher_nodes, teacher_embs = [], []
    with ad.no_grad():
        for batch in chunked_batches(graphs, size):
            per_layer, emb = gnn._forward(teacher, batch)
            teacher_nodes.extend(np.split(per_layer[-1].data, batch.offsets[1:-1]))
            teacher_embs.append(emb.data)
    return teacher_nodes, np.concatenate(teacher_embs)


def chunked_glocalkd_train(graphs, config):
    """`gnn.glocalkd_train` with its teacher targets from the chunk loop."""
    rng = np.random.default_rng(config.seed)
    teacher = gnn.init_gine(rng, hidden=config.hidden, n_layers=config.layers)
    for t in teacher.parameters():
        t.requires_grad = False
    student = gnn.init_gine(rng, hidden=config.hidden, n_layers=config.layers)
    teacher_nodes, teacher_emb = chunked_teacher_targets(teacher, graphs, config.batch_size)

    layout = ReferenceLayout(graphs, config.batch_size)

    def batch_loss(idx):
        batch = layout.batch(idx)
        per_layer, emb = gnn._forward(student, batch)
        target = np.concatenate([teacher_nodes[i] for i in idx])
        node_diff = ad.sub(per_layer[-1], ad.Tensor(target))
        root = np.repeat(np.sqrt(config.lam / batch.sizes), batch.sizes)
        scale = sp.diags(root, format="csr")
        node_term = ad.squared_norm(ad.sparse_matmul(scale, node_diff))
        graph_term = ad.squared_norm(ad.sub(emb, ad.Tensor(teacher_emb[idx])))
        return ad.add(node_term, graph_term)

    losses = gnn._fit(student.parameters(), batch_loss, rng, len(graphs), config, 0.0)
    return gnn.GlocalState(
        teacher=teacher, student=student, lam=config.lam, loss_curve=losses
    )


def chunked_glocalkd_scores(state, graphs, size) -> np.ndarray:
    scores = [np.zeros(0)]
    for batch in chunked_batches(graphs, size):
        with ad.no_grad():
            teacher_layers, teacher_emb = gnn._forward(state.teacher, batch)
            student_layers, student_emb = gnn._forward(state.student, batch)
        node_sq = np.sum((student_layers[-1].data - teacher_layers[-1].data) ** 2, axis=1)
        node_err = np.add.reduceat(node_sq, batch.offsets[:-1]) / batch.sizes
        graph_err = np.sum((student_emb.data - teacher_emb.data) ** 2, axis=1)
        scores.append(state.lam * node_err + graph_err)
    return np.concatenate(scores)


def model_checksum(model) -> float:
    """Sum of every parameter entry and its square: equal models, equal sums."""
    return float(sum(np.sum(t.data) + np.sum(t.data**2) for t in model.parameters()))


# ---------------------------------------------------------------------------
# Reference reader of the model checkpoint format that
# `flagcrash.checkpoint.save_checkpoint` writes (layout in its docstring)

_CHECKPOINT_HEAD = struct.Struct("<4sIQ")  # magic, version, array count


def _model_arrays(model) -> list[np.ndarray]:
    return [t.data for layer in model.layers for t in layer.tensors()]


def reference_save_checkpoint(state, path) -> None:
    """The checkpoint writer with one metadata dict and one array list per
    model kind; `save_checkpoint` must write the same bytes."""
    path = Path(path)
    if isinstance(state, gnn.OcginState):
        meta = {
            "kind": "ocgin",
            "layers": state.model.n_layers,
            "node_dim": state.model.node_dim,
            "edge_dim": state.model.edge_dim,
            "hidden": state.model.hidden,
        }
        arrays = _model_arrays(state.model) + [state.center]
    else:
        meta = {
            "kind": "glocalkd",
            "layers": state.teacher.n_layers,
            "node_dim": state.teacher.node_dim,
            "edge_dim": state.teacher.edge_dim,
            "hidden": state.teacher.hidden,
            "lambda": state.lam,
        }
        arrays = _model_arrays(state.teacher) + _model_arrays(state.student)
    with open(path, "wb") as f:
        f.write(_CHECKPOINT_HEAD.pack(MAGIC, VERSION, len(arrays)))
        for arr in arrays:
            arr = np.asarray(arr, dtype="<f8")
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
            f.write(arr.tobytes(order="C"))
    with open(str(path) + ".json", "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def _read_arrays(f, path) -> list[np.ndarray]:
    head = f.read(_CHECKPOINT_HEAD.size)
    if len(head) < _CHECKPOINT_HEAD.size:
        raise DataError(f"{path}: truncated checkpoint header")
    magic, version, count = _CHECKPOINT_HEAD.unpack(head)
    if magic != MAGIC:
        raise DataError(f"{path}: not a model checkpoint (bad magic {magic!r})")
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    arrays = []
    for _ in range(count):
        (ndim,) = struct.unpack("<I", f.read(4))
        shape = struct.unpack(f"<{ndim}Q", f.read(8 * ndim)) if ndim else ()
        n = int(np.prod(shape)) if shape else 1
        raw = f.read(8 * n)
        if len(raw) < 8 * n:
            raise DataError(f"{path}: truncated array block")
        arrays.append(np.frombuffer(raw, dtype="<f8").reshape(shape).copy())
    return arrays


def _rebuild_model(meta: dict, arrays: list[np.ndarray]) -> gnn.GineModel:
    layers = []
    for i in range(meta["layers"]):
        eps, proj, w1, w2 = arrays[4 * i : 4 * i + 4]
        layers.append(
            gnn.GineLayer(
                epsilon=ad.Tensor(eps, requires_grad=True),
                edge_proj=ad.Tensor(proj, requires_grad=True),
                w1=ad.Tensor(w1, requires_grad=True),
                w2=ad.Tensor(w2, requires_grad=True),
            )
        )
    return gnn.GineModel(
        layers=layers,
        node_dim=meta["node_dim"],
        edge_dim=meta["edge_dim"],
        hidden=meta["hidden"],
    )


def load_checkpoint(path) -> gnn.OcginState | gnn.GlocalState:
    path = Path(path)
    side = Path(str(path) + ".json")
    if not side.exists():
        raise DataError(f"checkpoint sidecar {side} is missing")
    with open(side, "r", encoding="utf-8") as f:
        meta = json.load(f)
    with open(path, "rb") as f:
        arrays = _read_arrays(f, path)
    per_model = 4 * meta["layers"]
    if meta["kind"] == "ocgin":
        if len(arrays) != per_model + 1:
            raise DataError(f"{path}: expected {per_model + 1} arrays, got {len(arrays)}")
        return gnn.OcginState(
            model=_rebuild_model(meta, arrays[:per_model]), center=arrays[-1]
        )
    if meta["kind"] == "glocalkd":
        if len(arrays) != 2 * per_model:
            raise DataError(f"{path}: expected {2 * per_model} arrays, got {len(arrays)}")
        teacher = _rebuild_model(meta, arrays[:per_model])
        for t in teacher.parameters():
            t.requires_grad = False
        return gnn.GlocalState(
            teacher=teacher,
            student=_rebuild_model(meta, arrays[per_model:]),
            lam=meta["lambda"],
        )
    raise DataError(f"{path}: unknown checkpoint kind {meta['kind']!r}")


# ---------------------------------------------------------------------------
# price parsing and event matching as first written


def _parse_date(text: str, context: str) -> date:
    """The price parser's own date reader, kept for `reference_parse_price_csv`."""
    try:
        return datetime.strptime(text.strip(), "%Y-%m-%d").date()
    except ValueError:
        raise DataError(f"{context}: cannot parse date {text!r} as YYYY-MM-DD") from None


def reference_forward_fill(prices: np.ndarray, missing: np.ndarray) -> np.ndarray:
    """A copy of `prices` whose missing cells take the row above's price,
    row by row from the top; the first row must be complete."""
    prices, missing = prices.copy(), missing.copy()
    for t in range(1, len(prices)):
        gap = missing[t]
        if gap.any():
            prices[t, gap] = prices[t - 1, gap]
            missing[t, gap] = False
    return prices


def reference_parse_price_csv(source) -> PriceTable:
    """`ingest.parse_price_csv` with its per-cell loop: three branches mark a
    cell missing (empty, unparseable, non-finite), one rejects a price <= 0.

    Rows are sorted by date.  Raises DataError on a malformed header,
    duplicate dates, or any non-positive price.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    numbered = [(i, ln.rstrip("\n").rstrip("\r")) for i, ln in enumerate(source, start=1)]
    numbered = [(i, ln) for i, ln in numbered if ln.strip()]
    if not numbered:
        raise DataError("price CSV is empty")

    header = numbered[0][1].split(",")
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
    rows: list[tuple[date, list[float], list[bool]]] = []
    seen_dates: set[date] = set()
    for lineno, line in numbered[1:]:
        cells = line.split(",")
        if len(cells) != n + 1:
            raise DataError(
                f"line {lineno}: expected {n + 1} columns, got {len(cells)}"
            )
        d = _parse_date(cells[0], f"line {lineno}")
        if d in seen_dates:
            raise DataError(f"price CSV line {lineno}: duplicate date {d.isoformat()}")
        seen_dates.add(d)
        vals = []
        miss = []
        for ticker, cell in zip(tickers, cells[1:]):
            cell = cell.strip()
            if not cell:
                vals.append(np.nan)
                miss.append(True)
                continue
            try:
                v = float(cell)
            except ValueError:
                vals.append(np.nan)
                miss.append(True)
                continue
            if not math.isfinite(v):
                vals.append(np.nan)
                miss.append(True)
                continue
            if v <= 0.0:
                raise DataError(
                    f"price CSV line {lineno}: non-positive price {v} "
                    f"at ({d.isoformat()}, {ticker})"
                )
            vals.append(v)
            miss.append(False)
        rows.append((d, vals, miss))

    rows.sort(key=lambda r: r[0])
    dates = [r[0] for r in rows]
    prices = np.array([r[1] for r in rows], dtype=np.float64).reshape(len(rows), n)
    missing = np.array([r[2] for r in rows], dtype=bool).reshape(len(rows), n)
    return PriceTable(dates=dates, tickers=tickers, prices=prices, missing=missing)


def _reference_anchor_index(trading_days: list[date], event_date: date) -> int | None:
    """Index of the last trading day <= event_date, or None if before all."""
    pos = bisect_right(trading_days, event_date)
    return pos - 1 if pos > 0 else None


def reference_signal_events(
    flags: list[date],
    trading_days: list[date],
    events: EventList,
    lookback: int,
) -> tuple[list[dict], list[bool]]:
    """`evaluation.signal_events` by bisection over the sorted flag indices,
    then a scan of every event window for each flag.

    Flag dates must appear in `trading_days`.  An event dated before the
    first trading day is reported unsignalable (and not signaled).
    """
    if lookback < 1:
        raise DataError(f"lookback must be >= 1, got {lookback}")
    if any(b < a for a, b in zip(trading_days, trading_days[1:])):
        raise DataError("trading days must be sorted")
    day_index = {d: i for i, d in enumerate(trading_days)}
    flag_indices = []
    for f in flags:
        if f not in day_index:
            raise DataError(f"flag date {f.isoformat()} is not a trading day")
        flag_indices.append(day_index[f])
    flag_indices.sort()

    per_event = []
    windows = []
    for event in events.events:
        resolved = event.resolved_date()
        anchor = _reference_anchor_index(trading_days, resolved)
        if anchor is None:
            per_event.append(
                {
                    "label": event.label,
                    "date": event.date_spec,
                    "signaled": False,
                    "unsignalable": True,
                }
            )
            continue
        lo = anchor - (lookback - 1)
        hit = bisect_left(flag_indices, lo) < bisect_right(flag_indices, anchor)
        windows.append((lo, anchor))
        per_event.append(
            {
                "label": event.label,
                "date": event.date_spec,
                "signaled": bool(hit),
                "unsignalable": False,
            }
        )
    attributed = [
        any(lo <= day_index[f] <= hi for lo, hi in windows) for f in flags
    ]
    return per_event, attributed


def traced_peak(fn) -> int:
    """Peak bytes of the Python and numpy allocations made during fn(),
    above those live when it starts."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def run_at_blas_threads(code: str, threads: int = 1) -> str:
    """stdout of `python -c code` in a process of `threads` BLAS threads,
    which imports flagcrash and the test modules as this one does."""
    path = [str(Path(flagcrash.__file__).parents[1]), str(Path(__file__).parent)]
    path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout
