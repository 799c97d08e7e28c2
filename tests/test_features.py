import numpy as np
import pytest

from flagcrash.errors import DataError
from flagcrash.features import fit_pca, project_matrix


def reconstruct(model, projected):
    return projected @ model.components + model.mean


class TestFitPca:
    def test_two_points_component_parallel_to_difference(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 0.0, 3.0])
        model = fit_pca(np.stack([a, b]), 1)
        direction = (a - b) / np.linalg.norm(a - b)
        dot = float(model.components[0] @ direction)
        assert abs(abs(dot) - 1.0) < 1e-12
        peak = np.argmax(np.abs(model.components[0]))
        assert model.components[0][peak] > 0

    def test_planar_data_exact_rank_two(self):
        rng = np.random.default_rng(10)
        basis = rng.normal(size=(2, 6))
        coords = rng.normal(size=(40, 2))
        data = coords @ basis + rng.normal(size=6)
        model = fit_pca(data, 2)
        rebuilt = reconstruct(model, project_matrix(model, data))
        assert np.max(np.abs(rebuilt - data)) < 1e-10

    def test_full_rank_explains_total_variance(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(30, 5))
        model = fit_pca(data, 5)
        total = np.var(data, axis=0, ddof=1).sum()
        assert float(model.explained_variance.sum()) == pytest.approx(total, rel=1e-10)

    def test_components_orthonormal_variance_sorted(self):
        rng = np.random.default_rng(12)
        model = fit_pca(rng.normal(size=(50, 8)) * [1, 2, 3, 4, 5, 6, 7, 8], 4)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-8
        assert (np.diff(model.explained_variance) <= 1e-12).all()

    def test_d_out_of_range(self):
        data = np.zeros((5, 3))
        with pytest.raises(DataError):
            fit_pca(data, 0)
        with pytest.raises(DataError):
            fit_pca(data, 4)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(13)
        data = rng.normal(size=(25, 6))
        model_a = fit_pca(data, 3)
        model_b = fit_pca(data[rng.permutation(25)], 3)
        np.testing.assert_allclose(model_a.components, model_b.components, atol=1e-9)
        np.testing.assert_allclose(
            model_a.explained_variance, model_b.explained_variance, rtol=1e-9
        )

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(40, 7), (7, 40)], ids=["tall", "wide"])
    def test_numpy_svd_bits_and_input_untouched(self, order, shape):
        # the SVD overwrites a centered copy, never the caller's matrix
        data = np.asarray(np.random.default_rng(15).normal(size=shape), order=order)
        before = data.tobytes()
        d = min(shape)
        model = fit_pca(data, d)
        assert data.tobytes() == before
        _, s, vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
        flip = vt[np.arange(d), np.abs(vt).argmax(axis=1)] < 0
        vt[flip] *= -1.0
        assert model.components.tobytes() == vt.tobytes()
        assert model.explained_variance.tobytes() == (s**2 / (shape[0] - 1)).tobytes()


class TestProject:
    def fitted(self, seed=14, t=30, dim=6, d=6):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(t, dim))
        return data, fit_pca(data, d)

    def test_mean_projects_to_zero(self):
        data, model = self.fitted()
        out = project_matrix(model, model.mean[None, :])
        assert out.shape == (1, 6)
        assert np.max(np.abs(out)) < 1e-12

    def test_unit_along_component_k(self):
        data, model = self.fitted(d=4)
        out = project_matrix(model, model.mean + model.components)
        np.testing.assert_allclose(out, np.eye(4), atol=1e-10)

    def test_full_rank_reconstruction(self):
        data, model = self.fitted(d=6)
        v = data[7:8]
        rebuilt = reconstruct(model, project_matrix(model, v))
        assert np.max(np.abs(rebuilt - v)) < 1e-10

    def test_dimension_mismatch(self):
        _, model = self.fitted()
        with pytest.raises(DataError, match="6-dimensional model"):
            project_matrix(model, np.zeros((1, 3)))

    def test_training_projections_centered_with_diagonal_covariance(self):
        rng = np.random.default_rng(15)
        data = rng.normal(size=(60, 7)) * np.arange(1, 8)
        model = fit_pca(data, 4)
        proj = project_matrix(model, data)
        assert np.max(np.abs(proj.mean(axis=0))) < 1e-10
        cov = np.cov(proj, rowvar=False, ddof=1)
        np.testing.assert_allclose(
            np.diag(cov), model.explained_variance, rtol=1e-8
        )
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-8

    def test_reconstruction_error_nonincreasing_in_d(self):
        rng = np.random.default_rng(16)
        data = rng.normal(size=(40, 8)) * np.arange(1, 9)
        errors = []
        for d in range(1, 9):
            model = fit_pca(data, d)
            rebuilt = reconstruct(model, project_matrix(model, data))
            errors.append(float(np.sum((rebuilt - data) ** 2)))
        assert all(a >= b - 1e-9 for a, b in zip(errors, errors[1:]))
