"""Unsupervised anomaly scores over feature-vector series.

Both detectors are transductive: scores are computed in-sample over the
whole series, matching the percentile-over-observed-distribution protocol
used downstream.  LOF scores every configured neighbor count k in one
pass over blocks of LOF_BLOCK_ROWS rows, which computes each pairwise
distance of a feature table once and finds every k-distance, and two
passes that sum over the neighborhoods.  It holds neither the T x T
matrix nor the T (T-1) / 2 condensed distances: beyond a few
(LOF_BLOCK_ROWS, T) buffers it keeps, per row, its few nearest earlier
rows, each as one complex (distance, column) value, and its widest
neighborhood, and its scores have the bits of the dense computation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import DataError

RIDGE_EPS = 1e-6
LRD_EPS = 1e-10  # keeps densities finite around duplicate points
LOF_BLOCK_ROWS = 128  # LOF computes and sums (128 x T) blocks, never the (T x T) matrix


@dataclass
class AnomalySeries:
    dates: list[date]
    scores: np.ndarray  # higher = more anomalous
    method_tag: str

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if len(self.dates) != len(self.scores):
            raise DataError("AnomalySeries dates/scores length mismatch")
        if not np.isfinite(self.scores).all():
            raise DataError("AnomalySeries scores must be finite")


def mahalanobis_scores(
    dates: list[date], vectors: np.ndarray, method_tag: str = "mahalanobis"
) -> AnomalySeries:
    """Covariance-normalized distance of each row to the sample mean.

    The sample covariance C gets a trace-scaled ridge, lam * I with
    lam = eps * trace(C) / d and eps = 1e-6, so near-singular feature sets
    (flattened correlation matrices) stay well-defined.  All rows equal
    score everything 0.  The rows, and then the centered rows Xc, are each
    scaled by the power of two that puts their largest magnitude in
    [0.5, 1): the scaling is exact and the scores scale-free, so neither the
    column means nor tiny or huge spreads under- or overflow the sums.
    With more rows than columns (T > d) the d x d system (C + lam I) is
    solved against the rows.  Otherwise the scores come from the T x T
    Gram matrix G = Xc Xc^T through the Woodbury identity,
    score^2 = (T-1) * diag(A^-1 G) with A = G + lam (T-1) I, at
    O(T^2 d + T^3) instead of O(T d^2 + d^3).
    """
    # row-major whatever the input's layout, which changes the covariance's rounding
    x = np.ascontiguousarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"expected a 2-d matrix, got shape {x.shape}")
    t_rows, dim = x.shape
    if dim == 0:
        raise DataError("feature dimension is zero")
    if t_rows < 2:
        raise DataError("need at least 2 vectors")
    if len(dates) != t_rows:
        raise DataError("dates/vectors length mismatch")
    if (x == x[0]).all():
        # the rounded mean need not equal the rows, which would leave them a spread
        return AnomalySeries(dates=list(dates), scores=np.zeros(t_rows), method_tag=method_tag)
    centered = np.ldexp(x, -np.frexp(max(x.max(), -x.min()))[1])
    centered -= centered.mean(axis=0)
    np.ldexp(centered, -np.frexp(np.abs(centered).max())[1], out=centered)
    if t_rows > dim:
        cov = (centered.T @ centered) / (t_rows - 1)
        trace = float(np.trace(cov))
        ridged = cov + (RIDGE_EPS * trace / dim) * np.eye(dim)
        solved = np.linalg.solve(ridged, centered.T)  # (d, T)
        squared = np.einsum("td,dt->t", centered, solved)
    else:
        gram = centered @ centered.T
        trace = float(np.trace(gram))  # (T-1) trace(C), so the ridge is lam (T-1)
        ridged = gram + (RIDGE_EPS * trace / dim) * np.eye(t_rows)
        squared = (t_rows - 1) * np.linalg.solve(ridged, gram).diagonal()
    return AnomalySeries(dates=list(dates), scores=np.sqrt(squared), method_tag=method_tag)


def _k_distances(x: np.ndarray, kths: list[int]):
    """Every row's distance to its (kth + 1)-th nearest other row, one row
    of the result per entry of the sorted `kths`, and each block's widest
    neighborhoods: its rows' neighbors within the largest of those
    distances, the radius, as `_block_sums` reads them.

    Each block of rows computes its distances to itself and to every later
    row, once.  A row's distances to earlier rows come from what the blocks
    before it left in `kept`: its kths[-1] + 2 nearest earlier rows, each as
    distance + 1j * column (the column is not kept for those on the largest
    of those distances).  Those with its block's give every k-distance,
    and the kept ones within the radius are its earlier neighbors, unless
    the radius is the largest kept distance, which a row not kept may tie:
    then that row's distances to earlier rows are computed again.
    """
    t_rows = len(x)
    top = kths[-1]
    kdists = np.empty((len(kths), t_rows))
    kept = np.full((t_rows, top + 2), np.inf, dtype=complex)
    col_type = np.min_scalar_type(t_rows - 1)
    widest = []
    for lo in range(0, t_rows, LOF_BLOCK_ROWS):
        hi = min(lo + LOF_BLOCK_ROWS, t_rows)
        n = hi - lo
        # direct differences: the gram-expansion shortcut loses precision on
        # near-duplicate rows, which blows up reachability ratios
        tile = squareform(pdist(x[lo:hi]))
        np.fill_diagonal(tile, np.inf)
        later = cdist(x[lo:hi], x[hi:])
        head = np.concatenate([kept[lo:hi].real, tile, later], axis=1)
        # a k-distance is an order statistic, so any selection finds it
        head.partition(top, axis=1)
        if len(kths) > 1:
            head[:, :top].partition(kths[:-1], axis=1)
        kdists[:, lo:hi] = head[:, kths].T
        del head
        radius = kdists[-1, lo:hi]
        found = []
        for dist, first in ((tile, lo), (later, hi)):  # the inf diagonal keeps each row out
            rows, cols = np.divmod(np.flatnonzero(dist <= radius[:, None]), dist.shape[1])
            found.append((rows, cols + first, dist[rows, cols]))
        exact = kept[lo:hi].real.max(axis=1) == radius
        rows, slots = np.nonzero((kept[lo:hi].real <= radius[:, None]) & ~exact[:, None])
        near = kept[lo + rows, slots]
        found.append((rows, near.imag.astype(np.intp), near.real))
        if exact.any():
            again = np.flatnonzero(exact)
            near = cdist(x[lo + again], x[:lo])
            rows, cols = np.divmod(np.flatnonzero(near <= radius[again, None]), lo)
            found.append((again[rows], cols, near[rows, cols]))
        rows, cols, near = (np.concatenate(part) for part in zip(*found))
        del found
        rim = near == radius[rows]
        # row-major, each row's neighbors inside the radius before those on it
        order = np.argsort(2 * rows + rim, kind="stable")
        rows, cols, near, rim = rows[order], cols[order], near[order], rim[order]
        widest.append((
            cols.astype(col_type), near[~rim],
            np.bincount(rows[~rim], minlength=n), np.bincount(rows[rim], minlength=n),
        ))
        del rows, cols, near, rim, order
        if hi == t_rows:
            break
        # hand the distances to later rows on: a partition of the distances alone
        # finds each later row's new largest kept one, which every kept entry at
        # or above it takes; the block's distances below it, with their columns,
        # then take the first of those places.  The column of an entry on a row's
        # largest kept distance is never read: its earlier neighbors are read
        # only when its radius is below that distance, else they are recomputed
        old = kept[hi:]
        most = np.concatenate([old.real, later.T], axis=1)
        most.partition(top + 1, axis=1)
        most = most[:, [top + 1]]
        free = old.real >= most
        np.copyto(old.real, most, where=free)
        rows, cols = np.divmod(np.flatnonzero(later.T < most), n)
        free &= np.cumsum(free, axis=1) <= np.bincount(rows, minlength=t_rows - hi)[:, None]
        old[free] = later[cols, rows] + 1j * (cols + lo)
        del later, rows, cols
    return kdists, widest


def _block_sums(lo, neighbors, radius, kdist, values, block):
    """Neighborhood sizes and sums under each row of `kdist`, for the rows
    from `lo` on, whose widest neighborhoods are `neighbors`: the columns,
    row by row, first of those inside the `radius` and then of those on it,
    the distances of the first, and how many of each every row has.  Row a
    sums values(i, b, dist[a, b]) over its neighbors b: they are put in the
    all-zero `block` meanwhile and each row is summed whole, zeros
    included, which keeps the bits of the dense masked row."""
    cols, inner_dist, inner_per_row, rim_per_row = neighbors
    n, t_rows = block.shape
    per_row = inner_per_row + rim_per_row
    rows = np.repeat(np.arange(n), per_row)
    dist = np.repeat(radius[lo : lo + n], per_row)
    starts = np.cumsum(per_row) - per_row
    dist[np.arange(len(rows)) - starts[rows] < inner_per_row[rows]] = inner_dist
    cols = cols.astype(np.intp)
    pos = rows  # flat row-major positions, so each row's entries are a run
    pos *= t_rows
    pos += cols
    bounds = np.arange(n + 1) * t_rows
    flat = block.reshape(-1)
    counts = np.empty((len(kdist), n), dtype=np.intp)
    sums = np.empty((len(kdist), n))
    whole = False  # the block holds a value at every position of pos
    for i, kd in enumerate(kdist):
        # each row has a neighbor on its radius, so all of them are kept
        # just when every row's k-distance is its radius
        if (kd[lo : lo + n] == radius[lo : lo + n]).all():
            p, c, d = pos, cols, dist
            counts[i] = per_row
        else:
            if whole:
                flat[pos] = 0.0
            keep = dist <= np.repeat(kd[lo : lo + n], per_row)
            p, c, d = pos[keep], cols[keep], dist[keep]
            counts[i] = np.diff(np.searchsorted(p, bounds))
        whole = p is pos
        flat[p] = values(i, c, d)
        sums[i] = block.sum(axis=1)
        if not whole:
            flat[p] = 0.0
    if whole:
        flat[pos] = 0.0
    return counts, sums


def _neighbor_sums(widest, radius, kdist, values):
    """`_block_sums` of every block of rows, as (len(kdist), T) arrays; one
    function call per block frees its temporaries before the next."""
    block = np.zeros((len(widest[0][3]), kdist.shape[1]))
    parts = [
        _block_sums(lo, neighbors, radius, kdist, values, block[: len(neighbors[3])])
        for lo, neighbors in zip(range(0, kdist.shape[1], len(block)), widest)
    ]
    return [np.concatenate(part, axis=1) for part in zip(*parts)]


def lof_scores(
    dates: list[date], vectors: np.ndarray, ks: Sequence[int]
) -> list[AnomalySeries]:
    """Classical local outlier factor for each neighbor count in `ks`.

    The k-neighborhood contains every point at distance <= the k-th
    nearest distance, so it may exceed k under ties.  Local reachability
    densities carry a 1e-10 additive floor, which makes exact duplicate
    clusters score exactly 1.  Returns one series, tagged `lof-k<k>`, per
    entry of `ks`.

    Neither the square distance matrix nor the condensed one is formed.
    One pass computes, LOF_BLOCK_ROWS rows at a time, the distances from
    a block's rows to themselves and to every later row, once per pair,
    finds every k-distance, and keeps the columns and distances of each
    row's widest neighborhood, that of the largest k; every smaller k's
    neighborhood is a subset.  A row's distances to earlier rows come from
    the earlier blocks, which kept its k + 1 nearest earlier rows, for the
    largest k, as (distance, column) values.  Two more passes over the
    blocks sum, for every k, the reachability distances and then the
    densities of each row's neighbors: a block buffer holds them at their
    positions and zeros elsewhere, and each row is summed whole, so every
    score has the bits of the dense reduction over the full matrix.
    Memory is those kept values, 16 bytes each, the widest neighborhoods
    (a neighbor tied at the largest k-distance costs only its column: 2
    bytes up to 65536 rows) and a few block-sized buffers and temporaries.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2:
        raise DataError(f"expected a 2-d matrix, got shape {x.shape}")
    t_rows = x.shape[0]
    if t_rows < 2:
        raise DataError("need at least 2 vectors")
    for k in ks:
        if not 1 <= k < t_rows:
            raise DataError(f"neighbor count k={k} out of range [1, {t_rows - 1}]")
    if len(dates) != t_rows:
        raise DataError("dates/vectors length mismatch")
    if not ks:
        return []

    kths = sorted({k - 1 for k in ks})
    kdists, widest = _k_distances(x, kths)
    unique = list(dict.fromkeys(ks))
    kdist = kdists[[kths.index(k - 1) for k in unique]]

    def reach(i, cols, dist):
        """Reach dist of neighbor b from a: max(kdist[b], dist[a, b])."""
        out = kdist[i][cols]
        return np.maximum(out, dist, out=out)

    counts, reach_sums = _neighbor_sums(widest, kdists[-1], kdist, reach)
    lrd = 1.0 / (reach_sums / counts + LRD_EPS)
    _, lrd_sums = _neighbor_sums(widest, kdists[-1], kdist, lambda i, cols, _: lrd[i][cols])
    lof = lrd_sums / counts / lrd
    return [
        AnomalySeries(list(dates), lof[unique.index(k)].copy(), method_tag=f"lof-k{k}")
        for k in ks
    ]
