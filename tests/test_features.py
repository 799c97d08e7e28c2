import json

import numpy as np
import pytest

from flagcrash.errors import DataError
from flagcrash.features import fit_pca, project_matrix
from oracles import run_at_blas_threads, traced_peak


def mirrored_pearson(rng, t=300, n=12):
    """Flattened Pearson windows mirrored as `stage_pca` mirrors them: each
    column appears twice and the diagonal's are zero, so the rank is
    n (n - 1) / 2 of n^2 columns."""
    returns = rng.normal(size=(t + 24, n))
    w = np.stack([np.corrcoef(returns[i:i + 25], rowvar=False) for i in range(t)])
    w[:, np.tri(n, dtype=bool)] = 0.0
    return (w + w.transpose(0, 2, 1)).reshape(t, -1)


# gesdd QR-factors tables of T >= D * 11 // 6 rows first (293 for D = 160);
# fit_pca does that QR itself, except at scales where gesdd would rescale
SVD_CASES = {
    "tall": lambda rng: rng.normal(size=(40, 7)),
    "wide": lambda rng: rng.normal(size=(7, 40)),
    "qr-threshold": lambda rng: rng.normal(size=(293, 160)),
    "below-qr-threshold": lambda rng: rng.normal(size=(292, 160)),
    "mirrored-pearson": mirrored_pearson,
    "one-column": lambda rng: rng.normal(size=(50, 1)),
    "tall-1e-150": lambda rng: rng.normal(size=(400, 30)) * 1e-150,
    "tall-1e150": lambda rng: rng.normal(size=(400, 30)) * 1e150,
}


def svd_bits(case: str, order: str) -> dict:
    """Whether fit_pca leaves the case's table untouched, and gives the
    components and variances of numpy's `svd`, bit for bit."""
    data = np.asarray(SVD_CASES[case](np.random.default_rng(15)), order=order)
    before = data.tobytes()
    d = min(data.shape)
    model = fit_pca(data, d)
    _, s, vt = np.linalg.svd(data - data.mean(axis=0), full_matrices=False)
    flip = vt[np.arange(d), np.abs(vt).argmax(axis=1)] < 0
    vt[flip] *= -1.0
    return {
        "input": data.tobytes() == before,
        "components": model.components.tobytes() == vt.tobytes(),
        "variance": model.explained_variance.tobytes() == (s**2 / (len(data) - 1)).tobytes(),
    }


@pytest.fixture(scope="module")
def one_thread_svd_bits():
    """`svd_bits` of every case and order, in a process of one BLAS thread:
    at two, numpy's `svd` and scipy's `gesdd`, which fit_pca calls, round
    160-column tables differently, with or without the QR route."""
    code = (
        "import json, test_features as t\n"
        "print(json.dumps({f'{c}-{o}': t.svd_bits(c, o) for c in t.SVD_CASES for o in 'CF'}))\n"
    )
    return json.loads(run_at_blas_threads(code))


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
    @pytest.mark.parametrize("case", list(SVD_CASES))
    def test_numpy_svd_bits_and_input_untouched(self, one_thread_svd_bits, order, case):
        # the QR and the SVD overwrite a centered copy, never the caller's matrix
        expected = {"input": True, "components": True, "variance": True}
        assert one_thread_svd_bits[f"{case}-{order}"] == expected

    def test_tall_table_holds_one_copy(self):
        # gesdd alone on a tall table holds the centered copy and its T x D U
        data = np.random.default_rng(16).normal(size=(4000, 150))
        assert traced_peak(lambda: fit_pca(data, 10)) < 1.3 * data.nbytes


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
