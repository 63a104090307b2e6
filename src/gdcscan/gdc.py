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

from dataclasses import dataclass, replace

import numpy as np

from .adjust import column_features, degenerate_response
from .nulldist import min_samples
from .premetric import GenotypeColumn


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
        n = int(mask.sum())
        need = min_samples(1, column.n_features)
        if n < need:
            raise ValueError(f"need at least {need} complete cases, got {n}")
        return cls(genotypes=replace(column, values=column.values[mask]), phenotype=y[mask], n=n)

    @classmethod
    def from_arrays(cls, x, y, kind: str = "hard", snp_id: str = "snp") -> "Sample":
        col = GenotypeColumn(snp_id=snp_id, chrom=".", pos=0, values=np.asarray(x), kind=kind)
        return cls.from_column(col, np.asarray(y, dtype=np.float64))


def dcov_fast(b: float, sample: Sample) -> float:
    """Feature-form statistic: squared norm of the centered feature /
    centered response cross sums, divided by n^2."""
    u = column_features(b, sample.genotypes)
    y = sample.phenotype
    n = sample.n
    yc = y - y.mean()
    uc = u - u.mean(axis=0)
    v = uc.T @ yc
    return float(v @ v) / n**2


def standardized_statistic(b: float, sample: Sample) -> tuple:
    """Return (k, sigma2_hat) with k = n * dcov / sigma2_hat.

    ``sigma2_hat`` uses the 1/n convention; the exact null law absorbs the
    choice.  Raises on a degenerate (constant) phenotype.
    """
    y = sample.phenotype
    n = sample.n
    yc = y - y.mean()
    rss = float(yc @ yc)
    if degenerate_response(y, rss):
        raise ValueError("degenerate response: constant phenotype")
    sigma2 = rss / n
    v2 = dcov_fast(b, sample)
    return (n * v2 / sigma2, sigma2)
