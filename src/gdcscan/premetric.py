"""Genotype geometry: the one-parameter premetric family on {0, 1, 2}.

The family fixes both heterozygous-homozygous distances at 1 and leaves the
distance between the two homozygous states as a free parameter ``b``.  The
square root of the premetric satisfies the triangle inequality exactly when
``0 <= b <= 4``, which is the condition for a well-defined distance
covariance; ``check_b`` is the one test of that range.  The statistic and
its null spectra see the geometry only through a Euclidean feature
embedding with two weights, ``feature_scales``; ``adjust.column_features``
builds a column's features from them.  ``GenotypeColumn`` holds one SNP,
and ``check_genotypes`` is the one test of which hard-call, dosage and
allele-count values are valid.  The distances and kernels themselves are
verification oracles and live with the tests, in ``tests/oracles.py``.

All objects here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MISSING_HARD_CALL = np.int8(-1)


def check_b(b) -> float:
    """``b`` as a float; raises unless it lies in [0, 4], where the square
    root of the premetric is a metric (negative type)."""
    v = float(b)
    if not 0.0 <= v <= 4.0:
        raise ValueError(f"b must lie in [0, 4], got {b!r}")
    return v


def feature_scales(b: float) -> tuple:
    """The weights sqrt(b/2) and sqrt((4-b)/2) of the two unscaled
    features: x - 1 and [x = 1] of hard calls, x and |x - 1| of dosages."""
    return math.sqrt(b / 2.0), math.sqrt((4.0 - b) / 2.0)


def check_genotypes(values, kind: str, snp_ids, where: str = "") -> np.ndarray:
    """Check and convert genotype values of one kind: "hard" calls become
    int8 -1 (missing), 0, 1 or 2; "dosage" values become float64 in
    [0, 2], NaN marking missing.

    ``values`` is one SNP's array (an allele-count matrix is checked as
    dosages), named by the string ``snp_ids``, or an (n_snps, n_samples)
    array with one ID per row.  Hard calls are checked before the int8
    cast, so 258 or 1.5 cannot wrap or truncate into a valid call.  The
    error names the first bad value's SNP, after ``where`` (a file name)
    when one is given.
    """
    v = np.asarray(values)
    if kind == "hard":
        rule, dtype = "hard calls must be 0/1/2 or -1", np.int8
        in_range = np.issubdtype(v.dtype, np.integer) and (
            not v.size or (v.min() >= -1 and v.max() <= 2))
        bad = None if in_range else ~np.isin(v, (-1, 0, 1, 2))
    elif kind == "dosage":
        rule, dtype = "dosage out of [0, 2]", np.float64
        v = v.astype(np.float64, copy=False)
        bad = ~((v >= 0.0) & (v <= 2.0)) & ~np.isnan(v)
    else:
        raise ValueError(f"unknown genotype kind {kind!r}")
    if bad is not None and bad.any():
        pos = tuple(np.argwhere(bad)[0])
        snp = snp_ids if isinstance(snp_ids, str) else snp_ids[pos[0]]
        head = f"{where}: " if where else ""
        raise ValueError(f"{head}{snp}: {rule}, got {v[pos].item()!r}")
    return v.astype(dtype, copy=False)


@dataclass(frozen=True)
class GenotypeColumn:
    """One SNP's worth of genotype observations.

    ``values`` is one of:
      - int8 hard calls in {0, 1, 2} with -1 marking missing,
      - float64 dosages in [0, 2] with NaN marking missing,
      - float64 (n, m) allele-count matrix, each count in [0, 2] and rows
        summing to 2, a row with a NaN marking missing.

    Missing entries are excluded per SNP (complete case) before any
    frequency or statistic computation.
    """

    snp_id: str
    chrom: str
    pos: int
    values: np.ndarray
    m: int = 2
    kind: str = field(default="hard")

    def __post_init__(self):
        if self.kind == "allele_counts":
            v = check_genotypes(self.values, "dosage", self.snp_id)
            if v.ndim != 2 or v.shape[1] != self.m:
                raise ValueError(f"{self.snp_id}: allele-count matrix must be (n, m)")
            rowsum = v.sum(axis=1)
            present = ~np.isnan(rowsum)
            if np.any(np.abs(rowsum[present] - 2.0) > 1e-9):
                raise ValueError(f"{self.snp_id}: allele counts must sum to 2")
        else:
            v = check_genotypes(self.values, self.kind, self.snp_id)
        object.__setattr__(self, "values", v)

    @property
    def n_total(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        """Width of the column's feature matrix: two features per allele
        of an allele-count column, two otherwise."""
        return 2 * self.m if self.kind == "allele_counts" else 2

    def present_mask(self) -> np.ndarray:
        if self.kind == "hard":
            return self.values != MISSING_HARD_CALL
        if self.kind == "dosage":
            return ~np.isnan(self.values)
        return ~np.isnan(self.values.sum(axis=1))

    def frequencies(self) -> np.ndarray:
        """Genotype class frequencies over non-missing hard calls."""
        if self.kind != "hard":
            raise ValueError("class frequencies are defined for hard calls only")
        used = self.values[self.values != MISSING_HARD_CALL]
        if used.size == 0:
            raise ValueError(f"{self.snp_id}: no non-missing genotypes")
        counts = np.bincount(used, minlength=3).astype(np.float64)
        return counts / counts.sum()

    def maf(self) -> float:
        """Minor allele frequency over non-missing entries: the smaller
        allele sum over 2n (for allele counts, 2n less the largest allele
        sum), so that a column and its allele flip give the same value."""
        mask = self.present_mask()
        if not mask.any():
            raise ValueError(f"{self.snp_id}: no non-missing genotypes")
        alleles = 2.0 * int(mask.sum())
        if self.kind == "allele_counts":
            return float(alleles - self.values[mask].sum(axis=0).max()) / alleles
        dose = float(self.values[mask].astype(np.float64).sum())
        return min(dose, alleles - dose) / alleles
