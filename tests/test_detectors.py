import hashlib
from datetime import date, timedelta
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from flagcrash import detectors
from flagcrash.corrnet import correlation_series
from flagcrash.detectors import (
    _EXACT_ROWS, LOF_BLOCK_ROWS, LOF_TREE_COLUMNS, MAHALANOBIS_BLOCK_ROWS, RIDGE_EPS,
    _candidates, _k_distances, _pair_distances, _tree_candidates, lof_scores,
    mahalanobis_scores,
)
from flagcrash.errors import DataError
from flagcrash.ingest import log_returns
from flagcrash.ph import tda_features
from flagcrash.synth import Episode, make_synthetic

from oracles import (
    brute_force_lof, reference_lof, reference_lof_blocks, reference_mahalanobis,
    run_at_blas_threads, traced_peak,
)


def dates_for(n):
    return [date(2019, 1, 1) + timedelta(days=i) for i in range(n)]


def whitened_sample(rng, t, d):
    """Data whose sample covariance (ddof=1) is exactly the identity."""
    z = rng.normal(size=(t, d))
    z -= z.mean(axis=0)
    cov = (z.T @ z) / (t - 1)
    return z @ np.linalg.inv(np.linalg.cholesky(cov)).T


class TestMahalanobis:
    def test_point_at_mean_scores_zero(self):
        x = np.array([[1.0, 1.0], [3.0, 3.0], [2.0, 2.0]])  # row 2 is the mean
        s = mahalanobis_scores(dates_for(3), x)
        assert s.scores[2] == pytest.approx(0.0, abs=1e-12)

    def test_identity_covariance_equals_euclidean(self):
        rng = np.random.default_rng(21)
        x = whitened_sample(rng, 50, 4)
        s = mahalanobis_scores(dates_for(50), x)
        euclid = np.linalg.norm(x - x.mean(axis=0), axis=1)
        np.testing.assert_allclose(s.scores, euclid, rtol=1e-6, atol=1e-9)

    def test_1d_outlier_has_largest_score(self):
        x = np.array([[0.0], [0.0], [0.0], [0.0], [10.0]])
        s = mahalanobis_scores(dates_for(5), x)
        assert np.argmax(s.scores) == 4
        assert s.scores[4] > s.scores[:4].max()

    def test_all_identical_rows_score_zero(self):
        x = np.ones((6, 3))
        s = mahalanobis_scores(dates_for(6), x)
        assert not s.scores.any()

    def test_zero_dimension_rejected(self):
        with pytest.raises(DataError):
            mahalanobis_scores(dates_for(3), np.zeros((3, 0)))

    @pytest.mark.parametrize("seed", range(5))
    def test_invariance_under_orthogonal_map_and_translation(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(40, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        shifted = x @ q.T + rng.normal(size=5)
        a = mahalanobis_scores(dates_for(40), x).scores
        b = mahalanobis_scores(dates_for(40), shifted).scores
        np.testing.assert_allclose(a, b, rtol=1e-8, atol=1e-10)

    def test_ordering_matches_direct_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            t, d = int(rng.integers(5, 30)), int(rng.integers(1, 5))
            x = rng.normal(size=(t, d))
            s = mahalanobis_scores(dates_for(t), x).scores
            mean = x.mean(axis=0)
            cov = np.cov(x, rowvar=False, ddof=1).reshape(d, d)
            ridged = cov + 1e-6 * (np.trace(cov) / d) * np.eye(d)
            inv = np.linalg.inv(ridged)
            direct = np.array(
                [np.sqrt((r - mean) @ inv @ (r - mean)) for r in x]
            )
            np.testing.assert_allclose(s, direct, rtol=1e-9, atol=1e-12)
            assert list(np.argsort(s)) == list(np.argsort(direct))


def exact_mahalanobis(x: np.ndarray) -> np.ndarray:
    """sqrt(x^T (C + lam I)^-1 x) per centered row, with C, lam and the
    solve in exact rational arithmetic; only the square root rounds."""
    t, d = x.shape
    rows = [[Fraction(v) for v in r] for r in x]
    mean = [sum(col) / t for col in zip(*rows)]
    xc = [[v - m for v, m in zip(r, mean)] for r in rows]
    cov = [[sum(r[i] * r[j] for r in xc) / (t - 1) for j in range(d)] for i in range(d)]
    lam = Fraction(RIDGE_EPS) * sum(cov[i][i] for i in range(d)) / d
    # Gauss-Jordan on [C + lam I | Xc^T]
    aug = [cov[i][:] + [r[i] for r in xc] for i in range(d)]
    for i in range(d):
        aug[i][i] += lam
    for col in range(d):
        pivot = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return np.sqrt([float(sum(xc[k][i] * aug[i][d + k] for i in range(d))) for k in range(t)])


def correlation_table(rng, t, n):
    """Flattened correlation matrices of t sliding windows over n series,
    as `pca --dim raw` scores them (the diagonal columns are constant)."""
    returns = rng.normal(size=(t + 24, n))
    return np.stack([np.corrcoef(returns[i:i + 25], rowvar=False).ravel() for i in range(t)])


class TestMahalanobisPaths:
    """More rows than columns: the d x d solve, bitwise the reference.
    Otherwise: the T x T Gram system, the reference to rounding."""

    @pytest.mark.parametrize("seed", range(12))
    def test_more_rows_than_columns_is_the_reference(self, seed):
        rng = np.random.default_rng(700 + seed)
        t = int(rng.integers(3, 150))
        x = rng.normal(size=(t, int(rng.integers(1, t)))) * 10.0 ** int(rng.integers(-6, 7))
        if seed % 3 == 0:
            x[:, ::2] = np.round(x[:, ::2])  # repeated values, constant columns
            x[:, 0] = 1.0
        s = mahalanobis_scores(dates_for(t), x).scores
        assert np.array_equal(s, reference_mahalanobis(x))

    def test_correlation_table_is_the_reference(self):
        x = correlation_table(np.random.default_rng(9), 400, 12)
        s = mahalanobis_scores(dates_for(400), x).scores
        assert np.array_equal(s, reference_mahalanobis(x))

    @pytest.mark.parametrize("d", [1, 2, 144])
    @pytest.mark.parametrize("extra", [-1, 0, 1, MAHALANOBIS_BLOCK_ROWS + 1])
    def test_row_blocks_are_the_reference(self, d, extra):
        # one solve per block of 384 rows; 2 blocks + 1 leaves a one-row
        # tail, which the last block takes
        t = MAHALANOBIS_BLOCK_ROWS + extra
        x = np.random.default_rng(t + d).normal(size=(t, d))
        s = mahalanobis_scores(dates_for(t), x).scores
        assert np.array_equal(s, reference_mahalanobis(x))

    def test_wide_row_blocks_are_the_reference_at_one_thread(self):
        # d = 801 solves blocks of 1152 rows; blocks of 801 rows changed the
        # bits of their last columns.  More threads split a solve this large
        # differently for each width, so the check runs at one
        code = (
            "import numpy as np, test_detectors as t\n"
            "x = np.random.default_rng(801).normal(size=(2305, 801))\n"
            "s = t.mahalanobis_scores(t.dates_for(2305), x).scores\n"
            "print(np.array_equal(s, t.reference_mahalanobis(x)))\n"
        )
        assert run_at_blas_threads(code) == "True\n"

    def test_row_blocks_hold_no_full_solution(self):
        # one solve against all T rows held a (d, T) solution next to the
        # centered copy: twice the table
        x = np.random.default_rng(8).normal(size=(4000, 150))
        dates = dates_for(4000)
        assert traced_peak(lambda: mahalanobis_scores(dates, x)) < 1.5 * x.nbytes

    @pytest.mark.parametrize("t,d", [(2, 5), (2, 2), (30, 30), (12, 40), (50, 1521)])
    def test_gram_path_matches_the_reference(self, t, d):
        rng = np.random.default_rng(t * d)
        x = correlation_table(rng, t, 39) if d == 1521 else rng.normal(size=(t, d))
        s = mahalanobis_scores(dates_for(t), x).scores
        np.testing.assert_allclose(s, reference_mahalanobis(x), rtol=1e-8)

    def test_gram_path_with_duplicate_rows(self):
        rng = np.random.default_rng(12)
        base = rng.normal(size=(8, 30))
        x = base[[0, 1, 1, 2, 3, 3, 3, 4, 5, 6, 7, 0]]
        s = mahalanobis_scores(dates_for(12), x).scores
        np.testing.assert_allclose(s, reference_mahalanobis(x), rtol=1e-8)
        np.testing.assert_allclose(s[[2, 5, 6, 11]], s[[1, 4, 4, 0]], rtol=1e-8)

    @pytest.mark.parametrize("shape", [(3, 4), (7, 4), (3, 10), (6, 6)])
    @pytest.mark.parametrize("value", [0.1, 1.0, -3e-200, 7e250])
    def test_equal_rows_score_zero(self, shape, value):
        # for 0.1 the rounded column mean differs from 0.1, so the rows keep
        # a spread of one ulp that the normalisation would blow up
        s = mahalanobis_scores(dates_for(shape[0]), np.full(shape, value)).scores
        assert not s.any()

    def test_tiny_table_against_exact_arithmetic(self):
        x = np.random.default_rng(5).normal(size=(6, 12))
        s = mahalanobis_scores(dates_for(6), x).scores
        np.testing.assert_allclose(s, exact_mahalanobis(x), rtol=1e-7)

    @pytest.mark.parametrize("t,d", [(40, 6), (6, 40)])
    @pytest.mark.parametrize("power", [-900, -560, 560, 900])
    def test_power_of_two_scaling_is_exact(self, t, d, power):
        x = np.random.default_rng(t).normal(size=(t, d))
        scaled = np.ldexp(x, power)
        a = mahalanobis_scores(dates_for(t), x).scores
        assert np.array_equal(mahalanobis_scores(dates_for(t), scaled).scores, a)

    def test_rows_near_the_float64_limit(self):
        # the column mean of these rows overflows unless they are scaled first
        x = np.array([[1e308, 0.0], [1e308, 1.0], [0.0, 2.0], [0.0, 0.0]])
        s = mahalanobis_scores(dates_for(4), x).scores
        np.testing.assert_allclose(s, exact_mahalanobis(x), rtol=1e-12)

    @pytest.mark.parametrize("t,d", [(5, 3), (3, 5)])
    @pytest.mark.parametrize("factor", [1e-160, 1e-300, 1e200])
    def test_extreme_spread_scores_like_unit_spread(self, t, d, factor):
        # the covariance of such rows under- or overflows without the scaling
        x = np.random.default_rng(d).integers(-3, 4, size=(t, d)).astype(float)
        s = mahalanobis_scores(dates_for(t), x * factor).scores
        np.testing.assert_allclose(s, mahalanobis_scores(dates_for(t), x).scores, rtol=1e-8)


class TestLof:
    def test_uniform_grid_interior_scores_near_one(self):
        xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        s = lof_scores(dates_for(100), pts, [5])[0].scores
        interior = [
            i
            for i, (px, py) in enumerate(pts)
            if 2 <= px <= 7 and 2 <= py <= 7
        ]
        assert (s[interior] >= 0.9).all() and (s[interior] <= 1.1).all()

    def test_far_outlier_scores_high(self):
        xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        pts = np.vstack([pts, [[50.0, 50.0]]])  # 10x the grid spacing away
        s = lof_scores(dates_for(101), pts, [5])[0].scores
        assert s[-1] > 1.5
        assert s[-1] == s.max()

    def test_all_identical_points_score_one(self):
        pts = np.ones((8, 3))
        s = lof_scores(dates_for(8), pts, [3])[0].scores
        np.testing.assert_allclose(s, 1.0)

    def test_k_out_of_range(self):
        pts = np.zeros((5, 2))
        with pytest.raises(DataError):
            lof_scores(dates_for(5), pts, [0])
        with pytest.raises(DataError):
            lof_scores(dates_for(5), pts, [2, 5])
        with pytest.raises(DataError):
            lof_scores(dates_for(1), np.zeros((1, 2)), [1])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_reference(self, seed):
        rng = np.random.default_rng(300 + seed)
        t = int(rng.integers(8, 40))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(t - 1, 8) + 1))
        pts = rng.normal(size=(t, d))
        mine = lof_scores(dates_for(t), pts, [k])[0].scores
        ref = brute_force_lof(pts, k=k)
        np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-9)
        # pairs separated by more than the value tolerance must rank the same
        da = mine[:, None] - mine[None, :]
        db = ref[:, None] - ref[None, :]
        conflict = ((da > 1e-9) & (db < -1e-9)) | ((da < -1e-9) & (db > 1e-9))
        assert not conflict.any()

    def test_tied_distances_expand_neighborhood(self):
        # four corners of a square plus center: each corner's 1-neighborhood
        # under k=2 holds both adjacent corners and the center ties break in
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mine = lof_scores(dates_for(4), pts, [2])[0].scores
        ref = brute_force_lof(pts, k=2)
        np.testing.assert_allclose(mine, ref, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_invariance_translation_and_uniform_scaling(self, seed):
        rng = np.random.default_rng(400 + seed)
        pts = rng.normal(size=(30, 3))
        base = lof_scores(dates_for(30), pts, [4])[0].scores
        moved = lof_scores(dates_for(30), pts * 3.7 + 11.0, [4])[0].scores
        np.testing.assert_allclose(base, moved, rtol=1e-9)

    def test_no_k_gives_no_series(self):
        assert lof_scores(dates_for(5), np.zeros((5, 2)), []) == []


def pearson_windows(t: int) -> np.ndarray:
    """The Pearson windows of a 12-ticker `synth` panel: t windows of 25
    returns, each thresholded."""
    table, _ = make_synthetic(12, t + 25, [Episode(t // 3, 20, 0.8)], seed=1)
    return correlation_series(log_returns(table), 25, "pearson").weights


def pearson_raw_table(w: np.ndarray) -> np.ndarray:
    """The `pca_raw` table of windows `w`: each mirrored and flattened."""
    return (w + w.transpose(0, 2, 1)).reshape(len(w), -1)


def lof_cases():
    """Tables below, at and not a multiple of the block size, of two and
    three rows, and one row past a block (a one-row last block), plus exact
    ties and duplicate rows, and the width of a 12-ticker flattened
    correlation matrix; monotone columns, whose rows' nearest neighbors
    all come before them or all after them; ties at the k-distance across
    a block boundary; and a panel-scale Pearson table of 13 blocks, also
    shuffled.  The rest push the candidates' rounding bound: a large offset,
    where the Gram product cancels most bits of the distances, tiny and
    huge spreads, rows near 1e300, pairs of rows one ulp apart and a
    drifting table as wide as a 39-ticker correlation matrix.  Last, the
    (l1_h0, l1_h1) persistence norms of the Pearson table's windows, whose
    nearest rows lie far apart in time (a median of 443 rows to the 20
    nearest, against 6 in the Pearson table), and tables on either side
    of the k-d tree's column cut."""
    rng = np.random.default_rng(500)
    b = LOF_BLOCK_ROWS
    cases = {f"normal-T{t}": rng.normal(size=(t, 3)) for t in (2, 3, b // 2, b, b + 1, 2 * b + 37)}
    # 16 lattice points repeated: duplicate rows and many tied distances
    cases["lattice"] = rng.integers(0, 4, size=(2 * b + 37, 2)).astype(float)
    # one column of long runs of exact duplicates, as a norm that often stays put
    runs = rng.integers(1, 60, size=12)
    cases["runs"] = np.repeat(rng.normal(size=len(runs)), runs)[:, None]
    cases["all-equal"] = np.full((b + 9, 2), 0.25)
    cases["wide"] = rng.normal(size=(b + 5, 144))
    # gaps that double: every row's nearest rows are the ones just before it
    cases["ascending"] = 2.0 ** np.arange(2 * b + 37)[:, None]
    cases["descending"] = cases["ascending"][::-1].copy()
    # every later row is as far from each row of the first block, so its
    # k-distance ties across the boundary with every one of them
    cases["boundary-tie"] = np.r_[np.zeros(b), 1.0 + 2.0 * np.arange(b + 1)][:, None]
    windows = pearson_windows(12 * b + 1)
    cases["pearson-raw"] = pearson_raw_table(windows)
    cases["pearson-raw-shuffled"] = rng.permutation(cases["pearson-raw"])
    cases["offset-1e6"] = 1e6 + rng.normal(size=(b + 40, 3))
    # 1e-160: cdist's squares of the differences are subnormal, so its distances
    # round coarsely; 1e-310: they all underflow to 0, and every row is a candidate
    for spread in (1e-310, 1e-160, 1e-150, 1e150):
        cases[f"spread-{spread:g}"] = spread * rng.normal(size=(b + 40, 3))
    # scaled, these rows' unit differences underflow to nothing in the Gram product
    cases["near-1e300"] = np.c_[np.full(b + 40, 1e300), rng.normal(size=(b + 40, 2))]
    twins = rng.normal(size=(b // 2 + 20, 4))
    cases["ulp-pairs"] = rng.permutation(np.r_[twins, np.nextafter(twins, np.inf)])
    cases["drift-1521"] = np.cumsum(rng.normal(size=(b + 40, 1521)), axis=0) * 0.01
    cases["tda-norms"] = tda_features(windows)[:, [0, 2]]
    for d in (LOF_TREE_COLUMNS, LOF_TREE_COLUMNS + 1):
        cases[f"normal-d{d}"] = rng.normal(size=(2 * b + 37, d))
    return cases


LOF_CASES = lof_cases()
TREE_CASES = sorted(n for n, x in LOF_CASES.items() if x.shape[1] <= LOF_TREE_COLUMNS)


def assert_tree_candidates_hold_every_neighbor(x):
    """`_tree_candidates` of x for k = 1, 5, 20 and T - 1 cover the rows in
    blocks, and each untied row's columns hold its neighbors, not itself."""
    t = len(x)
    dense = cdist(x, x)
    np.fill_diagonal(dense, np.inf)
    for k in sorted({min(k, t - 1) for k in (1, 5, 20, t - 1)}):
        kdist = np.partition(dense, k - 1, axis=1)[:, k - 1]
        neighbors = dense <= kdist[:, None]
        blocks = list(_tree_candidates(x, k - 1))
        assert np.array_equal(np.concatenate([own for own, _, _ in blocks]), np.arange(t))
        for own, cols, tied in blocks:
            # a tied row takes every other row; the others take their columns
            rows = np.flatnonzero(~tied)
            mask = np.zeros((len(rows), t), dtype=bool)
            mask[np.arange(len(rows))[:, None], cols[rows]] = True
            assert len(own) <= LOF_BLOCK_ROWS and cols.shape == (len(own), k + 1)
            assert not (neighbors[own[rows]] & ~mask).any()
            assert not mask[np.arange(len(rows)), own[rows]].any()


class TestLofAgainstReference:
    @pytest.mark.parametrize("name", sorted(LOF_CASES))
    def test_every_k_bitwise_equal(self, name):
        x = LOF_CASES[name]
        t = len(x)
        ks = [min(k, t - 1) for k in (1, 5, t // 2, 5, t - 1)]
        series = lof_scores(dates_for(t), x, ks)
        assert [s.method_tag for s in series] == [f"lof-k{k}" for k in ks]
        for k, s in zip(ks, series):
            assert np.array_equal(s.scores, reference_lof(x, k))

    @pytest.mark.parametrize("ks", [[10, 20], [20, 10, 20], [1], [5, 3, 30], ["T-1"]])
    @pytest.mark.parametrize("name", sorted(LOF_CASES))
    def test_several_k_equal_the_blocked_reference(self, name, ks):
        x = LOF_CASES[name]
        t = len(x)
        ks = [t - 1 if k == "T-1" else min(k, t - 1) for k in ks]
        series = lof_scores(dates_for(t), x, ks)
        for s, ref in zip(series, reference_lof_blocks(x, ks, LOF_BLOCK_ROWS), strict=True):
            assert np.array_equal(s.scores, ref)

    @pytest.mark.parametrize("name", sorted(LOF_CASES))
    def test_sub_block_cdist_equals_the_square(self, name):
        # the distances LOF computes: each _EXACT_ROWS rows against a subset of
        # the columns, the union of their candidates
        x = LOF_CASES[name]
        square = cdist(x, x)
        assert np.array_equal(square, squareform(pdist(x)))
        rng = np.random.default_rng(len(x))
        for first in range(0, len(x), _EXACT_ROWS):
            own = np.arange(first, min(first + _EXACT_ROWS, len(x)))
            cols = np.flatnonzero(rng.random(len(x)) < rng.choice([0.01, 0.2, 1.0]))
            assert np.array_equal(cdist(x[own], x[cols]), square[np.ix_(own, cols)])

    @pytest.mark.parametrize("name", sorted(LOF_CASES))
    def test_candidates_hold_every_neighbor(self, name):
        x = LOF_CASES[name]
        t = len(x)
        dense = cdist(x, x)
        np.fill_diagonal(dense, np.inf)
        for k in sorted({min(k, t - 1) for k in (1, 5, 20, t - 1)}):
            kdist = np.partition(dense, k - 1, axis=1)[:, k - 1]
            neighbors = dense <= kdist[:, None]
            blocks = list(_candidates(x, k - 1))
            assert [lo for lo, _ in blocks] == list(range(0, t, LOF_BLOCK_ROWS))
            for lo, mask in blocks:
                rows = np.arange(len(mask))
                assert mask.shape == (min(LOF_BLOCK_ROWS, t - lo), t)
                assert not (neighbors[lo : lo + len(mask)] & ~mask).any()
                assert not mask[rows, lo + rows].any()

    @pytest.mark.parametrize("name", ["normal-T293", "wide", "pearson-raw-shuffled"])
    def test_candidates_are_few_without_ties(self, name):
        # the rounding bound is tight: a row has its k nearest rows as candidates
        # and hardly any more
        x = LOF_CASES[name]
        for k in (1, 5, 20):
            for _, mask in _candidates(x, k - 1):
                assert mask.sum(axis=1).max() <= k + 2

    @pytest.mark.parametrize("ks", [[1, 5, 20], ["T-1"]])
    @pytest.mark.parametrize("name", TREE_CASES)
    def test_tree_and_gram_searches_give_the_same_neighborhoods(self, name, ks, monkeypatch):
        x = LOF_CASES[name]
        t = len(x)
        kths = sorted({(t - 1 if k == "T-1" else min(k, t - 1)) - 1 for k in ks})
        kdists, widest = _k_distances(x, kths)
        monkeypatch.setattr(detectors, "LOF_TREE_COLUMNS", 0)
        gram_kdists, gram_widest = _k_distances(x, kths)
        assert np.array_equal(kdists, gram_kdists)
        assert len(widest) == len(gram_widest)
        for block, gram_block in zip(widest, gram_widest):
            for part, gram_part in zip(block, gram_block, strict=True):
                assert part.dtype == gram_part.dtype and np.array_equal(part, gram_part)

    @pytest.mark.parametrize("name", sorted(LOF_CASES))
    def test_tree_candidates_hold_every_neighbor(self, name):
        assert_tree_candidates_hold_every_neighbor(LOF_CASES[name])

    @pytest.mark.parametrize("name", TREE_CASES)
    def test_tree_candidates_hold_every_neighbor_when_the_tree_rounds_otherwise(
        self, name, monkeypatch
    ):
        # scipy's tree sums these few squares as cdist does; one that summed
        # them in another order would move its distances by about an ulp,
        # which the candidates' bound must absorb
        class OffByAnUlp:
            def __init__(self, x):
                self.x, self.rng = x, np.random.default_rng(len(x))

            def query(self, rows, k):
                dist = cdist(rows, self.x)
                away = np.where(self.rng.random(dist.shape) < 0.5, -np.inf, np.inf)
                dist = np.maximum(np.nextafter(dist, away), 0.0)
                nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
                return np.take_along_axis(dist, nearest, axis=1), nearest

        monkeypatch.setattr(detectors, "KDTree", OffByAnUlp)
        assert_tree_candidates_hold_every_neighbor(LOF_CASES[name])

    @pytest.mark.parametrize(
        "name",
        ["normal-T293", f"normal-d{LOF_TREE_COLUMNS}", "tda-norms", "ascending", "descending"],
    )
    def test_tree_finds_no_tie_without_one(self, name):
        # no row is tied at its radius, so each has k + 1 candidates, however
        # far apart in time its neighbors lie or its row norms spread
        x = LOF_CASES[name]
        for k in (1, 5, 20, 30):
            assert not any(tied.any() for _, _, tied in _tree_candidates(x, k - 1))

    @pytest.mark.parametrize("name", sorted(LOF_CASES))
    def test_pair_distances_equal_cdist(self, name):
        x = LOF_CASES[name]
        square = cdist(x, x)
        rng = np.random.default_rng(len(x))
        rows, cols = rng.integers(0, len(x), size=(2, 4000))
        assert np.array_equal(_pair_distances(x, rows, cols), square[rows, cols])
        # each of some rows against a row of columns, as the tree's tiles ask
        rows, cols = rng.integers(0, len(x), size=(2, 16, 21))
        got = _pair_distances(x, rows[:, :1], cols)
        assert np.array_equal(got, square[rows[:, :1], cols])


def test_scores_do_not_depend_on_blas_threads():
    # the Gram candidate search runs through threaded dgemm; the thread count
    # must not reach the scores, whose distances come from cdist or from the
    # pair kernel, and the k-d tree search uses no BLAS at all
    code = (
        "import hashlib, test_detectors as t\n"
        "for name in ('pearson-raw', 'wide', 'tda-norms'):\n"
        "    x = t.LOF_CASES[name]\n"
        "    series = t.lof_scores(t.dates_for(len(x)), x, [1, 5, 20])\n"
        "    print(hashlib.sha256(b''.join(s.scores.tobytes() for s in series)).hexdigest())\n"
    )
    outputs = [run_at_blas_threads(code, threads) for threads in (1, 2)]
    digests = []
    for name in ("pearson-raw", "wide", "tda-norms"):
        x = LOF_CASES[name]
        series = lof_scores(dates_for(len(x)), x, [1, 5, 20])
        digests.append(hashlib.sha256(b"".join(s.scores.tobytes() for s in series)).hexdigest())
    assert outputs == ["".join(d + "\n" for d in digests)] * 2


class TestLofMemory:
    """LOF holds block-sized buffers and each row's nearest distances and
    neighbors, neither a (T, T) float matrix nor the T (T-1) / 2 condensed
    distances (half of one); the dense computation peaked at 1.50 of one,
    the condensed one at 0.78."""

    T = 2000
    MATRIX = T * T * 8

    def test_random_table_peaks_below_one_square_matrix(self):
        x = np.random.default_rng(3).normal(size=(self.T, 2))
        dates = dates_for(self.T)
        assert traced_peak(lambda: lof_scores(dates, x, range(5, 31))) < self.MATRIX

    def test_random_table_peaks_below_the_condensed_distances(self):
        x = np.random.default_rng(3).normal(size=(self.T, 2))
        dates = dates_for(self.T)
        assert traced_peak(lambda: lof_scores(dates, x, range(5, 31))) < 0.4 * self.MATRIX

    def test_peak_grows_about_linearly_in_rows(self):
        # O(T^2) memory would quadruple the peak from T to 2T rows
        peaks = []
        for t in (self.T, 2 * self.T):
            x = np.random.default_rng(3).normal(size=(t, 2))
            dates = dates_for(t)
            peaks.append(traced_peak(lambda: lof_scores(dates, x, range(5, 31))))
        assert peaks[1] < 2.5 * peaks[0]

    def test_sorted_table_peaks_like_a_shuffled_one(self):
        # a row's candidates and neighborhood do not depend on the order of the rows
        x = np.arange(4000.0)[:, None]
        shuffled = np.random.default_rng(3).permutation(x)
        dates = dates_for(4000)
        peaks = [traced_peak(lambda: lof_scores(dates, t, range(5, 31))) for t in (x, shuffled)]
        assert peaks[0] <= 1.1 * peaks[1]

    def test_all_equal_table_peaks_at_most_a_quarter_more(self):
        # every other row is every row's neighbor: each row keeps T - 1 columns
        x = np.ones((self.T, 2))
        dates = dates_for(self.T)
        assert traced_peak(lambda: lof_scores(dates, x, range(5, 31))) <= 1.25 * self.MATRIX
