"""Distance-covariance statistic between one SNP and a quantitative trait.

``dcov_fast`` is the O(n) feature form the scan computes, valid for hard
calls and dosages: the squared norm of the centred feature / centred
response cross sums, divided by n^2.  ``Sample`` is the complete-case
pair it reads.  The paper's two other forms (the double-centring
definition and the kernel (HSIC) form) and the population value for a
three-class mean model are verification oracles; they live with the
tests, in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjust import column_features
from .premetric import GenotypeColumn

NEG_ROUNDOFF_TOL = 1e-14


@dataclass(frozen=True)
class Sample:
    """Complete-case pair of one genotype column and the phenotype."""

    genotypes: GenotypeColumn
    phenotype: np.ndarray
    n: int

    @classmethod
    def from_column(cls, column: GenotypeColumn, phenotype: np.ndarray) -> "Sample":
        y = np.asarray(phenotype, dtype=np.float64)
        if y.shape[0] != column.n_total:
            raise ValueError(
                f"genotype column has {column.n_total} samples but phenotype has {y.shape[0]}"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("phenotype contains non-finite values")
        mask = column.present_mask()
        vals = column.values[mask]
        y = y[mask]
        n = int(mask.sum())
        if n < 4:
            raise ValueError(f"need at least 4 complete cases, got {n}")
        col = GenotypeColumn(
            snp_id=column.snp_id,
            chrom=column.chrom,
            pos=column.pos,
            values=vals,
            m=column.m,
            kind=column.kind,
        )
        return cls(genotypes=col, phenotype=y, n=n)

    @classmethod
    def from_arrays(cls, x, y, kind: str = "hard", snp_id: str = "snp") -> "Sample":
        col = GenotypeColumn(snp_id=snp_id, chrom=".", pos=0, values=np.asarray(x), kind=kind)
        return cls.from_column(col, np.asarray(y, dtype=np.float64))


def _clamp_nonneg(v: float) -> float:
    if v < 0.0:
        if v < -NEG_ROUNDOFF_TOL:
            return v
        return 0.0
    return v


def dcov_fast(b: float, sample: Sample) -> float:
    """Feature-form statistic: squared norm of the centered feature /
    centered response cross sums, divided by n^2."""
    u = column_features(b, sample.genotypes)
    y = sample.phenotype
    n = sample.n
    yc = y - y.mean()
    uc = u - u.mean(axis=0)
    v = uc.T @ yc
    return _clamp_nonneg(float(v @ v) / n**2)


def standardized_statistic(b: float, sample: Sample) -> tuple:
    """Return (k, sigma2_hat) with k = n * dcov / sigma2_hat.

    ``sigma2_hat`` uses the 1/n convention; the exact null law absorbs the
    choice.  Raises on a constant phenotype.
    """
    y = sample.phenotype
    n = sample.n
    yc = y - y.mean()
    sigma2 = float(yc @ yc) / n
    if sigma2 <= 0.0:
        raise ValueError("degenerate response: zero phenotype variance")
    v2 = dcov_fast(b, sample)
    return (n * v2 / sigma2, sigma2)
