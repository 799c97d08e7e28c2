from datetime import date, timedelta

import numpy as np
import pytest

from flagcrash import corrnet
from flagcrash.corrnet import (
    CcmParams,
    WeightedDigraph,
    WindowSpec,
    ccm_corr,
    correlation_series,
    graph_series,
    matrix_from_digraph,
    pearson_corr,
    window_specs,
)
from flagcrash.errors import DataError
from flagcrash.ingest import ReturnMatrix
from flagcrash.pipeline import stage_pca


def as_returns(arr) -> ReturnMatrix:
    arr = np.asarray(arr, dtype=float)
    dates = [date(2020, 1, 1) + timedelta(days=i) for i in range(arr.shape[0])]
    return ReturnMatrix(
        dates=dates, tickers=[f"t{j}" for j in range(arr.shape[1])], returns=arr
    )


@pytest.fixture
def series_of_matrix(monkeypatch):
    """The one-window series `correlation_series` makes of a window whose
    correlation matrix is `values`."""

    def make(values, kind="ccm"):
        values = np.asarray(values, dtype=float)
        name = "pearson_corr" if kind == "pearson" else "ccm_corr"
        monkeypatch.setattr(corrnet, name, lambda returns, spec, **params: values.copy())
        return correlation_series(as_returns(np.zeros((3, len(values)))), width=3, kind=kind)

    return make


class TestPearson:
    def test_identical_slices_correlate_one(self):
        z = np.array([1.0, -2.0, 0.5, 3.0])
        c = pearson_corr(as_returns(np.stack([z, z], axis=1)), WindowSpec(0, 4))
        assert c[0, 1] == pytest.approx(1.0)
        assert c[0, 0] == 0.0

    def test_negated_slice_correlates_minus_one(self):
        z = np.array([1.0, -2.0, 0.5, 3.0])
        c = pearson_corr(as_returns(np.stack([z, -z], axis=1)), WindowSpec(0, 4))
        assert c[0, 1] == pytest.approx(-1.0)

    def test_hand_computed_point_eight(self):
        # x=[1,2,3,4], y=[1,2,4,3]: cov-sum 4, var-sums 5 and 5 -> r = 4/5
        x = [1.0, 2.0, 3.0, 4.0]
        y = [1.0, 2.0, 4.0, 3.0]
        c = pearson_corr(as_returns(np.stack([x, y], axis=1)), WindowSpec(0, 4))
        assert c[0, 1] == pytest.approx(0.8, abs=1e-12)

    def test_zero_variance_slice_scores_zero(self):
        block = np.stack([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0]], axis=1)
        c = pearson_corr(as_returns(block), WindowSpec(0, 4))
        assert c[0, 1] == 0.0 and c[1, 0] == 0.0

    def test_window_out_of_range(self):
        with pytest.raises(DataError, match="out of range"):
            pearson_corr(as_returns(np.zeros((10, 2))), WindowSpec(5, 10))

    def test_symmetric_and_bounded_on_random_input(self):
        rng = np.random.default_rng(11)
        c = pearson_corr(as_returns(rng.normal(size=(30, 6))), WindowSpec(2, 25))
        assert np.allclose(c, c.T)
        assert (np.abs(c) <= 1.0).all()

    def test_invariance_shift_and_positive_rescale(self):
        rng = np.random.default_rng(5)
        block = rng.normal(size=(25, 4))
        base = pearson_corr(as_returns(block), WindowSpec(0, 25))
        shifted = block.copy()
        shifted[:, 2] += 7.5
        shifted[:, 1] *= 3.25
        out = pearson_corr(as_returns(shifted), WindowSpec(0, 25))
        np.testing.assert_allclose(out, base, atol=1e-12)


class TestCcm:
    def test_identical_periodic_series_skill_exactly_one(self):
        # Recurring shadow points hit the zero-distance collapse: the
        # cross-map reproduces the series exactly.
        base = np.array([0.3, 1.1, -0.7, 0.2] * 7)[:25]
        c = ccm_corr(as_returns(np.stack([base, base], axis=1)), WindowSpec(0, 25))
        assert c[0, 1] == pytest.approx(1.0, abs=1e-6)
        assert c[1, 0] == pytest.approx(1.0, abs=1e-6)
        assert c[0, 0] == 0.0

    def test_white_noise_skill_small(self):
        # Oracle: the implementation itself over 1000 fixed seeds, W=25.
        # Frozen quantiles from that run: p99 = 0.6465, median = 0.135.
        skills = []
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            block = rng.normal(size=(25, 2))
            v = ccm_corr(as_returns(block), WindowSpec(0, 25))
            skills.extend([abs(v[0, 1]), abs(v[1, 0])])
        skills = np.array(skills)
        assert np.percentile(skills, 99) < 0.66
        assert np.median(skills) < 0.2

    def test_coupled_logistic_maps_recover_direction(self):
        # y evolves autonomously and drives x, so x's shadow manifold
        # encodes y (high skill x->y) but not conversely.
        def coupled(n, beta, seed=3, burn=300):
            rng = np.random.default_rng(seed)
            x, y = rng.uniform(0.2, 0.8, size=2)
            xs, ys = [], []
            for t in range(n + burn):
                x, y = x * (3.8 - 3.8 * x - beta * y), y * (3.72 - 3.72 * y)
                if t >= burn:
                    xs.append(x)
                    ys.append(y)
            return np.stack([xs, ys], axis=1)

        block = coupled(300, beta=0.2)
        v = ccm_corr(as_returns(block), WindowSpec(0, 300))
        assert v[0, 1] > 0.6
        assert v[0, 1] > v[1, 0] + 0.3

    def test_invariance_under_constant_shift(self):
        rng = np.random.default_rng(42)
        block = rng.normal(size=(25, 3))
        base = ccm_corr(as_returns(block), WindowSpec(0, 25))
        shifted = block.copy()
        shifted[:, 1] += 5.0
        out = ccm_corr(as_returns(shifted), WindowSpec(0, 25))
        np.testing.assert_allclose(out, base, atol=1e-12)

    def test_window_too_short_for_embedding(self):
        with pytest.raises(DataError, match="embedding"):
            ccm_corr(as_returns(np.zeros((10, 2))), WindowSpec(0, 4), CcmParams(4, 2))


class TestThreshold:
    def test_all_negative_zeroed(self, series_of_matrix):
        out = series_of_matrix([[0.0, -0.5], [-0.5, 0.0]]).weights[0]
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_nonnegative_unchanged(self, series_of_matrix):
        vals = np.array([[0.0, 0.7], [0.2, 0.0]])
        assert np.array_equal(series_of_matrix(vals).weights[0], vals)

    def test_mixed(self, series_of_matrix):
        out = series_of_matrix([[0.0, 0.7], [-0.2, 0.0]]).weights[0]
        assert np.array_equal(out, [[0.0, 0.7], [0.0, 0.0]])
        # every entry that is not an edge is +0.0, negative zero and NaN included
        out = series_of_matrix([[-0.0, float("nan")], [-0.0, 0.0]]).weights[0]
        assert np.array_equal(out, np.zeros((2, 2))) and not np.signbit(out).any()

    def test_idempotent(self, series_of_matrix):
        rng = np.random.default_rng(0)
        once = series_of_matrix(rng.uniform(-1, 1, size=(5, 5)))
        twice = series_of_matrix(once.weights[0])
        assert np.array_equal(once.weights, twice.weights)
        assert once.kind == twice.kind and once.dates == twice.dates


class TestToDigraph:
    def test_zero_matrix_no_edges(self, series_of_matrix):
        (g,) = graph_series(series_of_matrix(np.zeros((4, 4))))
        assert g.n_vertices == 4 and len(g.edges) == 0

    def test_ccm_keeps_both_directions(self, series_of_matrix):
        (g,) = graph_series(series_of_matrix([[0.0, 0.3], [0.6, 0.0]], kind="ccm"))
        assert g.edges.tolist() == [(0, 1, 0.3), (1, 0, 0.6)]

    def test_pearson_canonical_single_edge(self, series_of_matrix):
        series = series_of_matrix([[0.0, 0.9], [0.9, 0.0]], kind="pearson")
        assert np.array_equal(series.weights[0], [[0.0, 0.9], [0.0, 0.0]])
        (g,) = graph_series(series)
        assert g.edges.tolist() == [(0, 1, 0.9)]

    def test_unthresholded_rejected(self):
        g = WeightedDigraph(2, [(0, 1, -0.1)], date(2020, 1, 3))
        with pytest.raises(DataError, match="2020-01-03: non-finite or non-positive"):
            matrix_from_digraph([g])

    def test_edge_count_bounds(self, series_of_matrix):
        rng = np.random.default_rng(1)
        vals = rng.uniform(0, 1, size=(6, 6))
        np.fill_diagonal(vals, 0.0)
        assert len(graph_series(series_of_matrix(vals, "ccm"))[0].edges) <= 30
        sym = (vals + vals.T) / 2
        np.fill_diagonal(sym, 0.0)
        assert len(graph_series(series_of_matrix(sym, "pearson"))[0].edges) <= 15

    def test_matrix_roundtrip_both_kinds(self, series_of_matrix, tmp_path):
        rng = np.random.default_rng(9)
        vals = rng.uniform(0, 1, size=(5, 5))
        np.fill_diagonal(vals, 0.0)
        sym = np.triu(vals, 1) + np.triu(vals, 1).T
        for kind, matrix in (("ccm", vals), ("pearson", sym)):
            series = series_of_matrix(matrix, kind)
            graphs = graph_series(series)
            # edges in row-major (source, target) order, the archive's order
            assert [(s, t) for s, t, _ in graphs[0].edges.tolist()] == sorted(
                zip(*np.nonzero(series.weights[0]))
            )
            np.testing.assert_array_equal(matrix_from_digraph(graphs), series.weights)
            # PCA sees the full matrix: a Pearson window is mirrored
            _, _, flat = stage_pca(series, "raw", tmp_path / "pca.csv")
            np.testing.assert_array_equal(flat[0], matrix.reshape(-1))


class TestSeries:
    def test_window_specs_cover_all_offsets(self):
        specs = window_specs(30, 25)
        assert len(specs) == 6
        assert specs[0].start_index == 0 and specs[-1].start_index == 5

    def test_correlation_series_dates_and_threshold(self):
        rng = np.random.default_rng(2)
        returns = as_returns(rng.normal(size=(30, 3)))
        series = correlation_series(returns, width=25, kind="pearson")
        assert len(series) == 6 and series.weights.shape == (6, 3, 3)
        assert series.dates[0] == returns.dates[24]
        assert series.dates[-1] == returns.dates[29]
        assert series.kind == "pearson" and series.tickers == returns.tickers
        assert (series.weights >= 0.0).all()
        # one canonical edge s -> t, s < t, per correlated pair
        assert not np.tril(series.weights).any()
        assert np.tril(correlation_series(returns, width=25, kind="ccm").weights, -1).any()

    def test_parallel_map_matches_serial(self):
        rng = np.random.default_rng(3)
        returns = as_returns(rng.normal(size=(32, 3)))
        serial = correlation_series(returns, width=25, kind="pearson", jobs=1)
        parallel = correlation_series(returns, width=25, kind="pearson", jobs=2)
        assert serial.dates == parallel.dates
        np.testing.assert_array_equal(serial.weights, parallel.weights)
