"""Unsupervised anomaly scores over feature-vector series.

Both detectors are transductive: scores are computed in-sample over the
whole series, matching the percentile-over-observed-distribution protocol
used downstream.  Mahalanobis holds one centered copy of the table and,
with more rows than columns, solves its d x d system against blocks of
rows, never against all T at once.  LOF scores every configured neighbor
count k in one pass over blocks of LOF_BLOCK_ROWS rows, which finds each
row's neighbor candidates within a rounding bound, from a k-d tree for
tables of at most LOF_TREE_COLUMNS columns and from a Gram product for
wider ones, and every k-distance from exact distances to them alone, with
`cdist`'s bits; and two passes that sum over the neighborhoods.  It holds
no T x T matrix: beyond a few (LOF_BLOCK_ROWS, T) buffers it keeps each
row's widest neighborhood, and its scores have the bits of the dense
computation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from datetime import date
from itertools import groupby

import numpy as np
from scipy.spatial import KDTree
from scipy.spatial.distance import cdist

from .errors import DataError

RIDGE_EPS = 1e-6
LRD_EPS = 1e-10  # keeps densities finite around duplicate points
LOF_BLOCK_ROWS = 128  # LOF computes and sums (128 x T) blocks, never the (T x T) matrix
_EXACT_ROWS = 16  # rows of a block that share one `cdist` call over their candidates
LOF_TREE_COLUMNS = 6  # LOF searches tables up to this wide with a k-d tree, wider ones by Gram
MAHALANOBIS_BLOCK_ROWS = 384  # Mahalanobis solves blocks of its least multiple >= d rows


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
    solved against blocks of rows, each the least multiple of
    MAHALANOBIS_BLOCK_ROWS (3 * 2^7) that holds d rows, and the last
    taking a one-row tail.  So each block starts where OpenBLAS starts a
    group of columns in one solve against all T rows, and every score
    keeps that solve's bits: blocks of d rows changed the bits of their
    last few columns at d = 700 and 1521, and a single right-hand side
    takes another LAPACK path altogether.  Otherwise the scores come
    from the T x T Gram matrix G = Xc Xc^T through the Woodbury identity,
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
    np.ldexp(centered, -np.frexp(max(centered.max(), -centered.min()))[1], out=centered)
    if t_rows > dim:
        ridged = (centered.T @ centered) / (t_rows - 1)  # C, then ridged in place
        trace = float(np.trace(ridged))
        ridged += (RIDGE_EPS * trace / dim) * np.eye(dim)
        squared = np.empty(t_rows)
        step = -(-dim // MAHALANOBIS_BLOCK_ROWS) * MAHALANOBIS_BLOCK_ROWS
        bounds = [*range(0, t_rows - 1, step), t_rows]  # the last block takes a one-row tail
        for lo, hi in zip(bounds, bounds[1:]):
            block = centered[lo:hi]
            # the (d, block) solution is freed before the next block's
            np.einsum("td,dt->t", block, np.linalg.solve(ridged, block.T), out=squared[lo:hi])
    else:
        gram = centered @ centered.T
        trace = float(np.trace(gram))  # (T-1) trace(C), so the ridge is lam (T-1)
        ridged = gram + (RIDGE_EPS * trace / dim) * np.eye(t_rows)
        squared = (t_rows - 1) * np.linalg.solve(ridged, gram).diagonal()
    return AnomalySeries(dates=list(dates), scores=np.sqrt(squared), method_tag=method_tag)


def _candidates(x: np.ndarray, top: int):
    """For each block of LOF_BLOCK_ROWS rows from `lo`, (lo, mask): the
    (block rows, T) mask holds every row's neighbors at its (top + 1)-th
    nearest distance, ties included, as `cdist` computes distances.

    One Gram product gives the block g[a, b] = -2 y_a . y_b + s_b, where
    y = x 2^p, p = 0 unless x's largest magnitude is past 2^+-256 and
    else the power that puts it in [0.5, 1), and s are the computed
    squared norms of y (S the largest): |y_a - y_b|^2 - |y_a|^2 up to
    rounding, as row a's own norm is constant along the row.  With
    u = 2^-53, gamma_m = m u / (1 - m u), n_a = |y_a| and d columns:
    - y_a . y_b errs by at most gamma_d 2 n_a n_b in any order of its sum,
      FMA included, s_b by gamma_d n_b^2 and the addition by u |g|: g by
      gamma_{d+1} (n_a + n_b)^2;
    - `cdist`'s squared distance D^2, in y's units, by
      gamma_{d+4} (n_a + n_b)^2: d differences, squares and sums, a root;
    - so D[a, b]^2 - n_a^2 - g[a, b] is within e_a = 4 (d + 5) u (s_a + S),
      as (n_a + n_b)^2 <= 2 (n_a^2 + n_b^2), plus 4 d eta (1 + 4^p),
      eta = 2^-1074, for underflow in y and in x.
    The top + 1 columns at or below row a's (top + 1)-th smallest g, v_a,
    are at most sqrt(n_a^2 + v_a + e_a) away, so a column b with
    g[a, b] > v_a + 2 e_a is farther than all of them: no neighbor.  The
    mask holds every b with g[a, b] <= v_a + tol_a, where
    tol_a = 16 (d + 8) u (s_a + S) + 16 d eta (1 + 4^p) covers 2 e_a and
    the rounding of v_a + tol_a.  The bounds hold for `cdist`'s sums before
    they overflow to an inf distance, and a row whose radius is inf scores
    inf or nan whatever its neighbors.
    """
    dim = x.shape[1]
    power = -np.frexp(max(x.max(initial=0.0), -x.min(initial=0.0)))[1]
    if abs(power) < 256:
        power = 0  # no square under- or overflows, and x needs no scaled copy
    scaled = np.ldexp(x, power) if power else x
    norms = np.einsum("ij,ij->i", scaled, scaled)
    tol = (dim + 8) * 2.0**-49 * (norms + norms.max())
    tol += dim * (np.ldexp(1.0, -1070) + np.ldexp(1.0, 2 * power - 1070))
    for lo in range(0, len(x), LOF_BLOCK_ROWS):
        hi = min(lo + LOF_BLOCK_ROWS, len(x))
        gram = (-2.0 * scaled[lo:hi]) @ scaled.T
        gram += norms
        gram[np.arange(hi - lo), np.arange(lo, hi)] = np.nan  # partitioned last, never <=
        mask = gram <= (np.partition(gram, top, axis=1)[:, top] + tol[lo:hi])[:, None]
        del gram
        yield lo, mask


def _cdist_tile(x: np.ndarray, own: np.ndarray, cols: np.ndarray):
    """(own, cols, dist): the `cdist` distances of rows `own` to rows
    `cols`, nan where a row meets itself."""
    dist = cdist(x[own], x[cols])
    dist[cols == own[:, None]] = np.nan
    return own, cols, dist


def _gram_tiles(x: np.ndarray, top: int):
    """A `_cdist_tile` for every _EXACT_ROWS rows of each block of
    `_candidates`, over the union of their candidates."""
    for lo, candidate in _candidates(x, top):
        for first in range(0, len(candidate), _EXACT_ROWS):
            own = np.arange(lo + first, lo + min(first + _EXACT_ROWS, len(candidate)))
            cols = np.flatnonzero(candidate[first : first + _EXACT_ROWS].any(axis=0))
            yield _cdist_tile(x, own, cols)


def _tree_candidates(x: np.ndarray, top: int):
    """For each block of LOF_BLOCK_ROWS rows `own`, (own, cols, tied):
    row i of `cols` holds top + 2 other rows, sorted, among them all of
    own[i]'s neighbors at its (top + 1)-th nearest distance, ties
    included, as `cdist` computes distances; unless tied[i], when every
    other row is a candidate.

    A k-d tree gives each row a its top + 3 nearest rows by distances
    fl(sqrt(s)), where s sums the squares of the d rounded column
    differences in some order; `cdist` sums the same squares, as
    fl(p - q) = -fl(q - p), left to right.  With u = 2^-53,
    gamma_m = m u / (1 - m u), eta = 2^-1074 and S the exact sum:
    - either sum is within gamma_d S + d eta of S, in any order, FMA
      included, eta covering the squares that underflow; either root
      errs by at most one ulp, 2u relative;
    - r_a, the (top + 2)-th of those distances, has top + 1 other rows
      with s <= r_a^2 / (1 - 2u)^2, so row a's k-distance as `cdist` finds
      it, and hence every neighbor b, has S_ab, and the tree's s_ab, within
      B_a = r_a^2 (1 + (4 d + 13) u) + 5 d eta;
    - the tree bounds its nodes by sums it updates one level at a time,
      over at most T levels, so its search passes over no row whose s
      lies more than 4 T u relative plus 2 T eta below its current k-th
      nearest.
    R_a = sqrt(r_a^2 (1 + 16 (d + T + 8) u) + 16 (d + T) eta) covers B_a,
    those slips and the rounding of R_a.  A row whose (top + 3)-th
    nearest lies past R_a has every neighbor among its top + 2 nearest
    other rows; any other row is tied at its radius.  The bounds hold for
    sums before they overflow to an inf distance, and a row whose radius
    is inf scores inf or nan whatever its neighbors.
    """
    t_rows, dim = x.shape
    tree = KDTree(x)
    count = min(top + 3, t_rows)  # T = top + 2 rows: every row is tied
    slack = 1.0 + (dim + t_rows + 8) * 2.0**-49
    tiny = (dim + t_rows) * np.ldexp(1.0, -1070)
    for lo in range(0, t_rows, LOF_BLOCK_ROWS):
        own = np.arange(lo, min(lo + LOF_BLOCK_ROWS, t_rows))
        near, idx = tree.query(x[own], k=count)
        r = near[:, top + 1]
        tied = near[:, -1] <= np.sqrt(r * r * slack + tiny)
        # each row's nearest other rows: the row itself, if found, goes last
        others = np.argsort(idx == own[:, None], axis=1, kind="stable")[:, : top + 2]
        yield own, np.sort(np.take_along_axis(idx, others, axis=1), axis=1), tied


def _pair_distances(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """`cdist(x, x)[rows, cols]`, with `rows` and `cols` broadcast, and its
    bits: the squared column differences of each pair, added left to
    right as `cdist` adds them."""
    diff = x[rows, 0] - x[cols, 0]
    total = diff * diff
    for j in range(1, x.shape[1]):
        np.subtract(x[rows, j], x[cols, j], out=diff)
        diff *= diff
        total += diff
    return np.sqrt(total, out=total)


def _tree_tiles(x: np.ndarray, top: int):
    """(own, cols, dist) for each block of `_tree_candidates`, or for each
    _EXACT_ROWS rows of a block that has a tied row: the distances of
    rows `own` to their candidates `cols` from `_pair_distances`, or a
    `_cdist_tile` over every row when one of them is tied."""
    for own, cols, tied in _tree_candidates(x, top):
        step = _EXACT_ROWS if tied.any() else len(own)
        for first in range(0, len(own), step):
            rows = slice(first, first + step)
            if tied[rows].any():
                yield _cdist_tile(x, own[rows], np.arange(len(x)))
            else:
                yield own[rows], cols[rows], _pair_distances(x, own[rows, None], cols[rows])


def _k_distances(x: np.ndarray, kths: list[int]):
    """Every row's distance to its (kth + 1)-th nearest other row, one row
    of the result per entry of the sorted `kths`, and each block's widest
    neighborhoods: its rows' neighbors within the largest of those
    distances, the radius, as `_block_sums` reads them.

    The tiles of `_tree_tiles`, for tables of at most LOF_TREE_COLUMNS
    columns, or else of `_gram_tiles` give rows their distances to their
    candidates (nan at a row's own column): as those hold each row's
    neighbors, every k-distance is an order statistic of them.
    """
    kdists, widest = np.empty((len(kths), len(x))), []
    col_type = np.min_scalar_type(len(x) - 1)
    tiles = (_tree_tiles if x.shape[1] <= LOF_TREE_COLUMNS else _gram_tiles)(x, kths[-1])
    for _, block in groupby(tiles, key=lambda tile: tile[0][0] // LOF_BLOCK_ROWS):
        found = []
        for own, cols, dist in block:
            kdists[:, own] = np.partition(dist, kths, axis=1)[:, kths].T
            radius = kdists[-1, own][:, None]
            inner, rim = dist < radius, dist == radius
            # row by row, the neighbors inside the radius, then those on it
            rows, on_row = np.nonzero(np.concatenate([inner, rim], axis=1))
            twice = np.concatenate([cols, cols], axis=-1)
            found.append((
                (twice[on_row] if twice.ndim == 1 else twice[rows, on_row]).astype(col_type),
                dist[inner], inner.sum(axis=1), rim.sum(axis=1),
            ))
        widest.append(tuple(np.concatenate(part) for part in zip(*found)))
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

    No square distance matrix is formed.  One pass, LOF_BLOCK_ROWS rows
    at a time, takes each row's neighbor candidates for the largest k from
    a k-d tree on tables of at most LOF_TREE_COLUMNS columns and from a
    Gram product on wider ones, computes its exact distances to them with
    `cdist`'s bits, finds every k-distance, and keeps the columns and
    distances of its widest neighborhood, that of the largest k; every
    smaller k's neighborhood is a subset.  Two more passes over the
    blocks sum, for every k, the reachability distances and then the
    densities of each row's neighbors: a block buffer holds them at their
    positions and zeros elsewhere, and each row is summed whole, so every
    score has the bits of the dense reduction over the full matrix.
    Memory is the widest neighborhoods (a neighbor tied at the largest
    k-distance costs only its column: 2 bytes up to 65536 rows) and a few
    block-sized buffers and temporaries.
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
    if not np.isfinite(x).all():
        raise DataError("LOF needs finite feature values")
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
