"""PCA dimensionality reduction of flattened correlation matrices.

`fit_pca` runs LAPACK's `gesdd`, which numpy's `svd` calls too, and
keeps the bits numpy's `svd` gives.  On a table tall in `gesdd`'s own
sense, T >= 11 D / 6 rows (LAPACK's MNTHR), `gesdd` first QR-factors it
and takes the SVD of the D x D R (Chan, ACM TOMS 8(1), 1982).  `fit_pca`
does that QR itself, in place in its centered copy, and hands `gesdd`
only R, in the Fortran order `gesdd` works in: the same operations,
without the T x D U and the product Q U that `gesdd` would form and the
fit would throw away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, svd

from .errors import DataError

# sqrt(tiny) / eps: gesdd rescales a matrix whose largest magnitude lies
# below it or above its inverse
_GESDD_SAFE = np.sqrt(np.finfo(np.float64).tiny) / np.finfo(np.float64).eps


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


def fit_pca(data: np.ndarray, d: int) -> PcaModel:
    """SVD of the centered data matrix; deterministic sign convention.

    Each component's largest-magnitude entry is made positive, so fitted
    models are reproducible across runs and platforms.  The fit holds one
    T x D copy of the data; on a tall table (see the module docstring) it
    also forms no T x D U.
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
    # gesdd, or the QR before it, works in this Fortran-ordered copy
    centered = np.subtract(data, mean, out=np.empty(data.shape, order="F"))
    if _qr_first(centered):
        # qr's R is C-ordered, which gesdd would copy: take R in Fortran order
        # from the top rows of the raw factor instead
        raw = qr(centered, mode="raw", overwrite_a=True, check_finite=False)[0][0]
        centered = raw[:dim].copy(order="F")
        del raw
        centered[np.tri(dim, k=-1, dtype=bool)] = 0.0
    _, s, vt = svd(centered, full_matrices=False, overwrite_a=True, check_finite=False)
    components = vt[:d].copy()
    for row in components:
        peak = np.argmax(np.abs(row))
        if row[peak] < 0:
            row *= -1.0
    explained = (s[:d] ** 2) / (t_rows - 1)
    return PcaModel(mean=mean, components=components, explained_variance=explained)


def _qr_first(centered: np.ndarray) -> bool:
    """Whether `gesdd` would QR-factor `centered` (T x D) and take the SVD
    of R, rescaling neither: T >= D * 11 // 6, and the largest magnitude m
    lies in [2 S sqrt(D), 1 / (2 S sqrt(T))] with S = _GESDD_SAFE.  R's
    largest magnitude lies in [m / sqrt(D), m sqrt(T)], as each column of
    R has the norm of the column it factors, so R needs no rescaling
    either: the QR route then has `gesdd`'s bits."""
    t_rows, dim = centered.shape
    if t_rows < dim * 11 // 6:
        return False
    peak = max(centered.max(), -centered.min())  # no temporary
    return 2 * _GESDD_SAFE * np.sqrt(dim) <= peak <= 1 / (2 * _GESDD_SAFE * np.sqrt(t_rows))


def project_matrix(model: PcaModel, data: np.ndarray) -> np.ndarray:
    """components @ (row - mean) for every row of `data`."""
    if data.shape[1] != model.mean.shape[0]:
        raise DataError(
            f"cannot project {data.shape[1]}-dimensional rows with a "
            f"{model.mean.shape[0]}-dimensional model"
        )
    return (data - model.mean) @ model.components.T

