"""Linear nuisance-covariate adjustment.

The adjusted statistic is the plain statistic applied to ordinary
least-squares residuals of the phenotype on the covariates (intercept
always included).  Its exact conditional null law keeps the same shape as
the unadjusted one; only the small Gram matrix gains the covariate
projector and the noise degree count shrinks by the number of covariate
columns.

The covariate basis is orthonormalized once per phenotype; per-SNP work is
inner products against that basis.  ``column_features`` gives the dense
feature matrix of one column, of any genotype kind, from the two feature
scales of ``b``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .nulldist import min_samples
from .premetric import GenotypeColumn, check_b, feature_scales

RANK_TOL = 1e-10
# a response whose residual sum of squares is at most this share of its
# centred sum of squares is (up to round-off) inside the covariate span
MIN_RSS_SHARE = 1e-12


def full_rank_svd(z: np.ndarray) -> tuple:
    """Thin SVD ``(u, s, vt)`` of a covariate matrix of full column rank,
    so ``u`` is a basis of its span; a singular value at or below
    ``RANK_TOL`` of the largest counts as zero and raises."""
    u, s, vt = np.linalg.svd(z, full_matrices=False)
    if not s.size or np.sum(s > RANK_TOL * s[0]) < z.shape[1]:
        raise ValueError("collinear covariates: covariate matrix is rank deficient")
    return u, s, vt


def degenerate_response(y: np.ndarray, rss: float) -> bool:
    """Whether the response ``y`` on the samples used carries no signal
    the statistic can standardize: it is constant there, or its residual
    sum of squares ``rss`` after the covariates (the intercept at least)
    is at most ``MIN_RSS_SHARE`` of its centred sum of squares."""
    yc = y - y.mean()
    return y.min() == y.max() or not rss > MIN_RSS_SHARE * float(yc @ yc)


@dataclass(frozen=True)
class CovariateMatrix:
    """Named covariate columns with a mandatory leading intercept.

    Full column rank is checked at construction (:func:`full_rank_svd`).
    ``svd`` holds the thin decomposition ``(u, s, vt)`` made for that
    check; every later use of the design reads it instead of decomposing
    again.
    """

    matrix: np.ndarray
    names: tuple
    svd: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        z = np.asarray(self.matrix, dtype=np.float64)
        if z.ndim != 2 or z.shape[0] < 1:
            raise ValueError("covariate matrix must be 2-d")
        if not np.all(np.isfinite(z)):
            raise ValueError("covariates contain non-finite values")
        names = tuple(self.names)
        if len(names) != z.shape[1]:
            raise ValueError("one name per covariate column required")
        if not np.all(z[:, 0] == 1.0):
            raise ValueError("first covariate column must be the intercept (all ones)")
        object.__setattr__(self, "svd", full_rank_svd(z))
        object.__setattr__(self, "matrix", z)
        object.__setattr__(self, "names", names)

    @classmethod
    def build(cls, columns: dict, n: int | None = None) -> "CovariateMatrix":
        """Assemble from named columns, prepending an intercept if no
        constant column is present (with a warning)."""
        names = list(columns.keys())
        cols = [np.asarray(columns[k], dtype=np.float64) for k in names]
        if n is None:
            n = cols[0].shape[0] if cols else 0
        idx = next((i for i, c in enumerate(cols)
                    if c.size and np.all(c == c[0]) and c[0] != 0.0), None)
        if idx is None:
            warnings.warn("no constant covariate column found; prepending an intercept")
            names = ["intercept"] + names
            cols = [np.ones(n)] + cols
        else:
            # move the constant column first and rescale it to ones
            const = cols.pop(idx)
            cname = names.pop(idx)
            cols = [const / const[0]] + cols
            names = [cname] + names
        return cls(matrix=np.column_stack(cols), names=tuple(names))

    @classmethod
    def intercept_only(cls, n: int) -> "CovariateMatrix":
        return cls(matrix=np.ones((n, 1)), names=("intercept",))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def q(self) -> int:
        """Number of non-intercept covariates."""
        return self.matrix.shape[1] - 1

    def orthonormal_basis(self) -> np.ndarray:
        """Orthonormal basis of the column space: the full-rank
        constructor makes it ``u`` itself."""
        return self.svd[0]


@dataclass(frozen=True)
class ResidualizedPhenotype:
    """OLS residuals of the phenotype on the covariates."""

    residuals: np.ndarray
    gamma_hat: np.ndarray
    sigma2_eps_hat: float


def residualize(y: np.ndarray, z: CovariateMatrix) -> ResidualizedPhenotype:
    """Project the phenotype off the covariate column space.

    Uses an orthogonal (SVD-based) decomposition rather than the normal
    equations; the fitted coefficients are recovered through the
    pseudoinverse.
    """
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    if z.n != n:
        raise ValueError("covariate rows must align with the phenotype")
    if n < min_samples(z.q + 1, 2):
        raise ValueError(f"need n > q + 3 samples for residualization, got {n}")
    u, s, vt = z.svd
    coeffs_basis = u.T @ y
    gamma = vt.T @ (coeffs_basis / s)
    resid = y - u @ coeffs_basis
    centered = resid - resid.mean()
    sigma2 = float(centered @ centered) / n
    return ResidualizedPhenotype(residuals=resid, gamma_hat=gamma, sigma2_eps_hat=sigma2)


def column_features(b: float, geno: GenotypeColumn) -> np.ndarray:
    """Feature matrix of a complete-case column, its two unscaled features
    weighted by ``feature_scales(b)``: x - 1 and [x = 1] of hard calls,
    x and |x - 1| of dosages, and each allele's dosage pair times
    1/sqrt(2) for allele counts.  Squared feature distances are twice the
    premetric distance."""
    if not geno.present_mask().all():
        raise ValueError("expected a complete-case column; filter first")
    sqb, sqh = feature_scales(check_b(b))
    x = geno.values
    if geno.kind == "hard":
        return np.column_stack([sqb * (x - 1.0), sqh * (x == 1.0)])
    pairs = np.stack([sqb * x, sqh * np.abs(x - 1.0)], axis=-1)
    if geno.kind == "dosage":
        return pairs
    return (1.0 / np.sqrt(2.0)) * pairs.reshape(x.shape[0], -1)
