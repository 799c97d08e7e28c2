"""Unsupervised anomaly scores over feature-vector series.

Both detectors are transductive: scores are computed in-sample over the
whole series, matching the percentile-over-observed-distribution protocol
used downstream.  LOF computes the pairwise distances of a feature table
once, as the condensed vector of the T (T-1) / 2 pairs, and scores every
configured neighbor count k from it in one pass over blocks of
LOF_BLOCK_ROWS rows that finds every k-distance and two that sum over the
neighborhoods.  It never forms the T x T matrix: beyond the condensed
distances it holds a few (LOF_BLOCK_ROWS, T) buffers and the columns of
each row's widest neighborhood, and its scores have the bits of the dense
computation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date

import numpy as np
from scipy.spatial.distance import pdist

from .errors import DataError

RIDGE_EPS = 1e-6
LRD_EPS = 1e-10  # keeps densities finite around duplicate points
LOF_BLOCK_ROWS = 128  # LOF assembles and sums (128 x T) blocks, never the (T x T) matrix


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


def _square_rows(cond: np.ndarray, low: np.ndarray, lo: int, out: np.ndarray) -> None:
    """Rows lo.. of the square distance matrix, with an inf diagonal, into
    `out`, from the condensed distances `cond`: rows a < b are
    cond[low[a] + b] apart."""
    n, t_rows = out.shape
    rows = np.arange(lo, lo + n)
    # below the diagonal, column j of row r is the pair (j, r); the entries on
    # and above it are garbage here and overwritten next
    np.take(cond, low[: lo + n] + rows[:, None], out=out[:, : lo + n], mode="clip")
    for row, r in zip(out, rows.tolist()):
        row[r + 1 :] = cond[low[r] + r + 1 : low[r] + t_rows]
    np.fill_diagonal(out[:, lo:], np.inf)


def _k_distances(cond: np.ndarray, low: np.ndarray, kths: list[int]):
    """Every row's distance to its (kth + 1)-th nearest other row, one row
    of the result per entry of the sorted `kths`, and each block's widest
    neighborhoods: the columns within the largest of those distances and
    how many each row has."""
    t_rows = len(low)
    kdists = np.empty((len(kths), t_rows))
    block = np.empty((min(LOF_BLOCK_ROWS, t_rows), t_rows))
    part = np.empty_like(block)
    widest = []
    for lo in range(0, t_rows, LOF_BLOCK_ROWS):
        rows = slice(lo, min(lo + LOF_BLOCK_ROWS, t_rows))
        square, head = block[: rows.stop - lo], part[: rows.stop - lo]
        _square_rows(cond, low, lo, square)
        np.copyto(head, square)
        # a k-distance is an order statistic, so any selection finds it
        head.partition(kths[-1], axis=1)
        if len(kths) > 1:
            head[:, : kths[-1]].partition(kths[:-1], axis=1)
        kdists[:, rows] = head[:, kths].T
        mask = square <= head[:, kths[-1], None]  # the inf diagonal keeps each row out
        cols = (np.flatnonzero(mask) % t_rows).astype(np.min_scalar_type(t_rows - 1))
        widest.append((cols, np.count_nonzero(mask, axis=1)))
    return kdists, widest


def _block_sums(cond, low, lo, cols, per_row, kdist, values, block):
    """Neighborhood sizes and sums under each row of `kdist`, for the rows
    from `lo` on, whose widest neighborhoods hold the columns `cols`,
    `per_row[i]` of them in row lo + i.  Row a sums values(i, b, dist[a, b])
    over its neighbors b: they are put in the all-zero `block` meanwhile
    and each row is summed whole, zeros included, which keeps the bits of
    the dense masked row."""
    n, t_rows = block.shape
    rows = np.repeat(np.arange(lo, lo + n), per_row)
    cols = cols.astype(np.intp)
    # in place where possible: under ties a block has up to LOF_BLOCK_ROWS x T entries
    index = low[np.minimum(rows, cols)]
    index += np.maximum(rows, cols)
    dist = cond[index]
    del index
    pos = rows  # flat row-major positions, so each row's entries are a run
    pos -= lo
    pos *= t_rows
    pos += cols
    bounds = np.arange(n + 1) * t_rows
    flat = block.reshape(-1)
    counts = np.empty((len(kdist), n), dtype=np.intp)
    sums = np.empty((len(kdist), n))
    for i, kd in enumerate(kdist):
        keep = dist <= np.repeat(kd[lo : lo + n], per_row)
        p, c, d = (pos, cols, dist) if keep.all() else (pos[keep], cols[keep], dist[keep])
        counts[i] = np.diff(np.searchsorted(p, bounds))
        flat[p] = values(i, c, d)
        sums[i] = block.sum(axis=1)
        flat[p] = 0.0
    return counts, sums


def _neighbor_sums(cond, low, widest, kdist, values):
    """`_block_sums` of every block of rows, as (len(kdist), T) arrays; one
    function call per block frees its temporaries before the next."""
    counts = np.empty(kdist.shape, dtype=np.intp)
    sums = np.empty(kdist.shape)
    block = np.zeros((len(widest[0][1]), kdist.shape[1]))
    lo = 0
    for cols, per_row in widest:
        rows = slice(lo, lo + len(per_row))
        counts[:, rows], sums[:, rows] = _block_sums(
            cond, low, lo, cols, per_row, kdist, values, block[: len(per_row)]
        )
        lo = rows.stop
    return counts, sums


def lof_scores(
    dates: list[date], vectors: np.ndarray, ks: Sequence[int]
) -> list[AnomalySeries]:
    """Classical local outlier factor for each neighbor count in `ks`.

    The k-neighborhood contains every point at distance <= the k-th
    nearest distance, so it may exceed k under ties.  Local reachability
    densities carry a 1e-10 additive floor, which makes exact duplicate
    clusters score exactly 1.  Returns one series, tagged `lof-k<k>`, per
    entry of `ks`.

    The T (T-1) / 2 pairwise distances are computed once, condensed, and
    the square matrix is never formed.  One pass assembles its rows
    LOF_BLOCK_ROWS at a time into a reused buffer, finds every k-distance
    there, and keeps the columns of each row's widest neighborhood, that of
    the largest k; every smaller k's neighborhood is a subset.  Two more
    passes over the blocks sum, for every k, the reachability distances
    and then the densities of each row's neighbors: a block buffer holds
    them at their positions and zeros elsewhere, and each row is summed
    whole, so every score has the bits of the dense reduction over the full
    matrix.  Memory is the condensed distances, the widest neighborhoods'
    columns (at most 2 bytes per pair under ties, up to 65536 rows) and a
    few block-sized buffers and temporaries.
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

    # direct differences: the gram-expansion shortcut loses precision on
    # near-duplicate rows, which blows up reachability ratios
    cond = pdist(x, metric="euclidean")
    a = np.arange(t_rows, dtype=np.int64)
    low = a * (2 * t_rows - a - 3) // 2 - 1  # cond[low[a] + b] is the pair a < b
    kths = sorted({k - 1 for k in ks})
    kdists, widest = _k_distances(cond, low, kths)
    unique = list(dict.fromkeys(ks))
    kdist = kdists[[kths.index(k - 1) for k in unique]]

    def reach(i, cols, dist):
        """Reach dist of neighbor b from a: max(kdist[b], dist[a, b])."""
        out = kdist[i][cols]
        return np.maximum(out, dist, out=out)

    counts, reach_sums = _neighbor_sums(cond, low, widest, kdist, reach)
    lrd = 1.0 / (reach_sums / counts + LRD_EPS)
    _, lrd_sums = _neighbor_sums(cond, low, widest, kdist, lambda i, cols, _: lrd[i][cols])
    lof = lrd_sums / counts / lrd
    return [
        AnomalySeries(list(dates), lof[unique.index(k)].copy(), method_tag=f"lof-k{k}")
        for k in ks
    ]
