from datetime import date, timedelta

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from flagcrash.detectors import LOF_BLOCK_ROWS, lof_scores, mahalanobis_scores
from flagcrash.errors import DataError

from oracles import brute_force_lof, reference_lof


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


def lof_cases():
    """Tables below, at and not a multiple of the reduction block size,
    plus exact ties and duplicate rows, and the width of a 12-ticker
    flattened correlation matrix."""
    rng = np.random.default_rng(500)
    b = LOF_BLOCK_ROWS
    cases = {f"normal-T{t}": rng.normal(size=(t, 3)) for t in (b // 2, b, 2 * b + 37)}
    # 16 lattice points repeated: duplicate rows and many tied distances
    cases["lattice"] = rng.integers(0, 4, size=(2 * b + 37, 2)).astype(float)
    cases["wide"] = rng.normal(size=(b + 5, 144))
    return cases


LOF_CASES = lof_cases()


class TestLofAgainstReference:
    @pytest.mark.parametrize("name", sorted(LOF_CASES))
    def test_every_k_bitwise_equal(self, name):
        x = LOF_CASES[name]
        t = len(x)
        ks = [1, 5, t // 2, 5, t - 1]
        series = lof_scores(dates_for(t), x, ks)
        assert [s.method_tag for s in series] == [f"lof-k{k}" for k in ks]
        for k, s in zip(ks, series):
            assert np.array_equal(s.scores, reference_lof(x, k))

    @pytest.mark.parametrize("name", sorted(LOF_CASES))
    def test_pdist_equals_cdist(self, name):
        x = LOF_CASES[name]
        assert np.array_equal(squareform(pdist(x)), cdist(x, x))
