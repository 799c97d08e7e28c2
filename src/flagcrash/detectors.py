"""Unsupervised anomaly scores over feature-vector series.

Both detectors are transductive: scores are computed in-sample over the
whole series, matching the percentile-over-observed-distribution protocol
used downstream.  LOF computes the pairwise distances of a feature table
once and scores every configured neighbor count k from them.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import DataError

RIDGE_EPS = 1e-6
LRD_EPS = 1e-10  # keeps densities finite around duplicate points
LOF_BLOCK_ROWS = 128  # LOF reductions hold (128 x T) temporaries, not (T x T)


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


def lof_scores(
    dates: list[date], vectors: np.ndarray, ks: Sequence[int]
) -> list[AnomalySeries]:
    """Classical local outlier factor for each neighbor count in `ks`.

    The k-neighborhood contains every point at distance <= the k-th
    nearest distance, so it may exceed k under ties.  Local reachability
    densities carry a 1e-10 additive floor, which makes exact duplicate
    clusters score exactly 1.  The distance matrix and every k-distance
    are computed once for all of `ks`; the reductions then run over
    blocks of LOF_BLOCK_ROWS rows, each row summed exactly as over the
    whole matrix.  Returns one series, tagged `lof-k<k>`, per entry of
    `ks`.
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
    dist = squareform(pdist(x, metric="euclidean"))
    np.fill_diagonal(dist, np.inf)
    blocks = [slice(lo, lo + LOF_BLOCK_ROWS) for lo in range(0, t_rows, LOF_BLOCK_ROWS)]

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
            # reach[a, b] = reach dist of b from a; the inf diagonal
            # keeps each point out of its own neighborhood
            neighbor_mask = dist[rows] <= kdist[rows, None]
            counts[rows] = neighbor_mask.sum(axis=1)
            reach = np.maximum(kdist[None, :], dist[rows])
            reach_sum = np.where(neighbor_mask, reach, 0.0).sum(axis=1)
            mean_reach[rows] = reach_sum / counts[rows]
        lrd = 1.0 / (mean_reach + LRD_EPS)
        lof = np.empty(t_rows)
        for rows in blocks:
            neighbor_mask = dist[rows] <= kdist[rows, None]
            lrd_sum = np.where(neighbor_mask, lrd[None, :], 0.0).sum(axis=1)
            lof[rows] = lrd_sum / counts[rows] / lrd[rows]
        scores[k] = lof
    return [
        AnomalySeries(list(dates), scores[k].copy(), method_tag=f"lof-k{k}")
        for k in ks
    ]
