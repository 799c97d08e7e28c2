"""PCA dimensionality reduction of flattened correlation matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import svd

from .errors import DataError


@dataclass
class PcaModel:
    """Top principal components of a centered data matrix.

    `components` rows are orthonormal; `explained_variance` is the
    per-component variance (squared singular values over T-1),
    nonincreasing.
    """

    mean: np.ndarray  # (D,)
    components: np.ndarray  # (d, D)
    explained_variance: np.ndarray  # (d,)

    def top(self, d: int) -> PcaModel:
        """The model of the first d components."""
        return PcaModel(self.mean, self.components[:d], self.explained_variance[:d])


def fit_pca(data: np.ndarray, d: int) -> PcaModel:
    """SVD of the centered data matrix; deterministic sign convention.

    Each component's largest-magnitude entry is made positive, so fitted
    models are reproducible across runs and platforms.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise DataError(f"fit_pca expects a 2-d matrix, got shape {data.shape}")
    t_rows, dim = data.shape
    if t_rows < 2:
        raise DataError(f"fit_pca needs at least 2 rows, got {t_rows}")
    if not 1 <= d <= min(t_rows, dim):
        raise DataError(
            f"target dimension {d} out of range [1, {min(t_rows, dim)}]"
        )
    mean = data.mean(axis=0)
    # gesdd, numpy's SVD driver too, works in this Fortran-ordered copy
    centered = np.subtract(data, mean, out=np.empty(data.shape, order="F"))
    _, s, vt = svd(centered, full_matrices=False, overwrite_a=True, check_finite=False)
    components = vt[:d].copy()
    for row in components:
        peak = np.argmax(np.abs(row))
        if row[peak] < 0:
            row *= -1.0
    explained = (s[:d] ** 2) / (t_rows - 1)
    return PcaModel(mean=mean, components=components, explained_variance=explained)


def project_matrix(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """components @ (row - mean) for every row of `data`."""
    if data.shape[1] != model.mean.shape[0]:
        raise DataError(
            f"cannot project {data.shape[1]}-dimensional rows with a "
            f"{model.mean.shape[0]}-dimensional model"
        )
    return (data - model.mean) @ model.components.T

