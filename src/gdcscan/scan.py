"""Per-SNP scan pipeline with two-stage p-value screening.

For every SNP the pipeline (1) applies the per-SNP complete-case filter,
(2) computes the standardized statistic (covariate-adjusted when a design
is supplied), (3) computes the two-eigenvalue null spectrum, (4) computes
the cheap lower/upper p-value bounds, and (5) evaluates the exact p-value
only when the bounds leave the interesting window (lower bound below the
screen threshold, upper bound above the floor).  Above the configured
sample-size switch the asymptotic tail replaces the exact law.

SNPs take a vectorized block path: one producer per row kind turns the
kernel sweep's per-SNP sums into the statistic's cross sums and the 2x2
spectral matrix.  A hard-call block makes one sweep, of class counts and
the per-class sums of the residuals and the covariate basis; its rows
with missing calls make one more, over those rows only, whose sums give
each row's complete-case projection exactly (see
:func:`_missing_hard_terms`).  Complete dosage rows use their feature
moments.  One screening tail turns the terms into records: it makes the
screening decision for the whole block at once, as masks over the
bounds; only in-window rows are evaluated, one SNP at a time, and the
other records are built straight from the block's columns.  A per-SNP
path, which redoes the covariate projection on the complete-case
subsample and then goes through the same tail as a one-row block, is
left for dosage rows with missing entries, multiallelic columns, and the
missing-call rows the block algebra cannot settle (too few samples, a
near-singular complete-case design, a phenotype in its span); it gives
those rows their error codes.  The kernel module is the scan context's
``kernels`` field, passed to :func:`run_scan` or read from
``backend.kernels`` when the scan starts; it also decodes packed
sources.
Each row of the results file is one ``%.17g`` template.  Output order
always equals input order, and every per-SNP sum is reduced row by row,
so the output bytes do not depend on the worker count, the block size or
the kernel module.
"""

from __future__ import annotations

import logging
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .adjust import CovariateMatrix, column_features, residualize
from . import backend
from .io import Block, VariantInfo
from .nulldist import (
    METHOD_ASYMPTOTIC,
    METHOD_DEGENERATE,
    NullSpectrum,
    NumericsError,
    asymptotic_tail,
    eig2x2,
    exact_pvalue_with_method,
    hardcall_terms,
    pvalue_bounds,
    pvalue_bounds_batch,
    spectrum_from_features,
)
from .premetric import GenotypeColumn

log = logging.getLogger("gdcscan")

# rows with missing calls whose complete-case covariate Gram matrix Q_S'Q_S
# has an eigenvalue ratio below this, or whose complete-case residual sum
# of squares is not above _MIN_RSS_SHARE of the residuals' own, take the
# per-SNP path
_MIN_GRAM_RATIO = 1e-6
_MIN_RSS_SHARE = 1e-12

METHOD_SCREEN_HIGH = "screened_out_high"
METHOD_SCREEN_LOW = "screened_out_low"
# methods of the rows the block tail settles without evaluation
_SCREENED = (METHOD_DEGENERATE, METHOD_SCREEN_HIGH, METHOD_SCREEN_LOW)

OUTPUT_COLUMNS = (
    "snp_id",
    "chrom",
    "pos",
    "maf",
    "n_used",
    "b",
    "stat",
    "lambda1",
    "lambda2",
    "p_lower",
    "p_upper",
    "p_value",
    "method",
    "neg_log10_p",
)


@dataclass
class ScanConfig:
    """Scan settings; ``screen_threshold`` is the exact-evaluation cutoff
    and ``screen_floor`` the don't-bother floor for extreme p-values."""

    b: float = 3.0
    screen_threshold: float = 1e-3
    screen_floor: float = 1e-32
    asymptotic_switch: int = 30000
    genome_wide_alpha: float = 5e-8
    threads: int = 1
    no_screen: bool = False
    block_size: int = 1024

    def __post_init__(self):
        if not (0.0 <= self.b <= 4.0):
            raise ValueError("b must lie in [0, 4]")
        if not (0.0 < self.screen_floor < self.screen_threshold < 1.0):
            raise ValueError("need 0 < screen_floor < screen_threshold < 1")
        if self.threads < 1 or self.block_size < 1:
            raise ValueError("threads and block_size must be positive")


@dataclass
class ScanRecord:
    snp_id: str
    chrom: str
    pos: int
    maf: float
    n_used: int
    b: float
    stat: float
    lambda1: float
    lambda2: float
    p_lower: float
    p_upper: float
    p_value: float | None
    method: str

    @property
    def neg_log10_p(self) -> float | None:
        if self.p_value is None:
            return None
        if self.p_value <= 0.0:
            return math.inf
        return -math.log10(self.p_value)


@dataclass
class ScanContext:
    """Shared per-phenotype state: residuals, their scale, the orthonormal
    covariate basis, the degree count they remove, the kernel module that
    runs the block sweeps and the weight columns it sums.

    ``weights`` is ``[resid | qbasis]`` (``resid`` alone without
    covariates), the columns of every hard-call block's sweep.
    ``miss_weights`` is ``[r^2, Q*r, upper triangle of Q Q^T]`` with ``r``
    the residuals and ``Q`` the basis (the column ``1/sqrt(n)`` without
    covariates), summed over the rows with missing calls.  ``gram_floor``
    is the smallest eigenvalue ratio of a row's ``Q'Q`` that the block
    algebra accepts.
    """

    y: np.ndarray
    covariates: CovariateMatrix | None
    qbasis: np.ndarray | None
    resid: np.ndarray
    rss: float
    df_sub: int
    n: int
    kernels: object
    weights: np.ndarray
    miss_weights: np.ndarray
    gram_floor: float


def prepare_context(phenotype, covariates: CovariateMatrix | None = None,
                    kernels=None) -> ScanContext:
    """``kernels`` defaults to ``backend.kernels``, read at call time."""
    y = np.asarray(phenotype, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("phenotype must be a vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("phenotype contains non-finite values")
    n = y.shape[0]
    if covariates is None:
        resid = y - y.mean()
        qbasis = None
        df_sub = 1
        q = np.full((n, 1), 1.0 / math.sqrt(n))
        weights = resid[:, None]
        gram_floor = _MIN_GRAM_RATIO
    else:
        if covariates.n != n:
            raise ValueError("covariate rows must align with the phenotype")
        rp = residualize(y, covariates)
        resid = rp.residuals
        qbasis = q = covariates.orthonormal_basis()
        df_sub = qbasis.shape[1]
        weights = np.column_stack([resid, qbasis])
        # Z = Q S V' makes cond(Z_S) <= sqrt(cond(Q_S'Q_S)) * cond(Z), so
        # above this floor every complete-case design passes the per-SNP
        # path's rank test (singular values above 1e-10 of the largest)
        # with a factor 10 to spare
        sv = np.linalg.svd(covariates.matrix, compute_uv=False)
        gram_floor = max(_MIN_GRAM_RATIO, (1e-9 * sv[0] / sv[-1]) ** 2)
    rss = float(resid @ resid)
    if rss <= 0.0:
        raise ValueError("degenerate response: zero phenotype variance")
    iu, ju = np.triu_indices(q.shape[1])
    miss_weights = np.column_stack([resid * resid, q * resid[:, None], q[:, iu] * q[:, ju]])
    return ScanContext(
        y=y, covariates=covariates, qbasis=qbasis, resid=resid, rss=rss,
        df_sub=df_sub, n=n, kernels=backend.kernels if kernels is None else kernels,
        weights=weights, miss_weights=miss_weights, gram_floor=gram_floor,
    )


# ---------------------------------------------------------------------------
# vectorized block engine
# ---------------------------------------------------------------------------


def _evaluated_record(cfg: ScanConfig, variant: VariantInfo, maf: float,
                      n_used: int, df_sub: int, stat: float, lam1: float,
                      lam2: float, p_lo: float, p_hi: float) -> ScanRecord:
    """Record of an in-window SNP: its exact p-value, or the asymptotic
    tail above the sample-size switch."""
    try:
        if n_used > cfg.asymptotic_switch:
            p_value, method = asymptotic_tail(lam1, lam2, stat), METHOD_ASYMPTOTIC
        else:
            spec = NullSpectrum(lambdas=(lam1, lam2), n=n_used, df_sub=df_sub)
            p_value, method = exact_pvalue_with_method(spec, stat)
    except NumericsError as exc:
        log.warning("%s: error:numerics: %s", variant.snp_id, exc)
        p_value, method = None, "error:numerics"
    return ScanRecord(
        snp_id=variant.snp_id, chrom=variant.chrom, pos=variant.pos,
        maf=maf, n_used=n_used, b=cfg.b, stat=stat, lambda1=lam1, lambda2=lam2,
        p_lower=p_lo, p_upper=p_hi, p_value=p_value, method=method,
    )


def _error_record(cfg, variant, n_used, code, exc=None) -> ScanRecord:
    """A record with the fixed error code ``error:{code}``; the message of
    ``exc``, when given, goes to the ``gdcscan`` log."""
    if exc is not None:
        log.warning("%s: error:%s: %s", variant.snp_id, code, exc)
    return ScanRecord(
        snp_id=variant.snp_id, chrom=variant.chrom, pos=variant.pos,
        maf=math.nan, n_used=n_used, b=cfg.b, stat=math.nan,
        lambda1=math.nan, lambda2=math.nan, p_lower=math.nan, p_upper=math.nan,
        p_value=None, method=f"error:{code}",
    )


def _scales(b: float) -> tuple:
    """Weights sqrt(b/2) and sqrt((4-b)/2) of the two unscaled features."""
    return math.sqrt(b / 2.0), math.sqrt((4.0 - b) / 2.0)


def _row_basis_dots(f: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(n_snps, k) products of feature rows with each covariate basis
    column, reduced row by row (a matrix product's summation order
    depends on the block's shape)."""
    return np.stack(
        [(f * basis[:, j]).sum(axis=1) for j in range(basis.shape[1])], axis=1
    )


def _maf(counts: np.ndarray, n_used) -> np.ndarray:
    q = (counts[:, 1] + 2.0 * counts[:, 2]) / (2.0 * n_used)
    return np.minimum(q, 1.0 - q)


def _feature_basis_sums(b: float, counts: np.ndarray, qsums: np.ndarray) -> tuple:
    """(utu00, utu11, a0, a1) of hard-call rows: the diagonal of U'U for
    the scaled features U, and the rows of U'Q from the per-class sums
    ``qsums`` (n_snps, 3, k) of the covariate basis Q (U's columns are
    orthogonal class contrasts, so U'U is diagonal)."""
    sqb, sqh = _scales(b)
    utu00 = (b / 2.0) * (counts[:, 0] + counts[:, 2])
    utu11 = ((4.0 - b) / 2.0) * counts[:, 1]
    return utu00, utu11, sqb * (qsums[:, 2] - qsums[:, 0]), sqh * qsums[:, 1]


def _hard_terms(cfg: ScanConfig, ctx: ScanContext, counts: np.ndarray,
                sums: np.ndarray) -> tuple:
    """(maf, c1, c2, k00, k11, k01) of complete hard-call rows from the
    sweep of ``ctx.weights``: class counts and per-class sums of the
    residuals and the covariate basis.  c1/c2 are the residual cross sums
    of the unscaled features, k the 2x2 spectral matrix."""
    b, n = cfg.b, ctx.n
    maf = _maf(counts, n)
    ysums = sums[:, :, 0]
    if ctx.qbasis is None:
        return (maf,) + hardcall_terms(b, counts, ysums, n)
    utu00, utu11, a0, a1 = _feature_basis_sums(b, counts, sums[:, :, 1:])
    k00 = (utu00 - (a0 * a0).sum(axis=1)) / n
    k11 = (utu11 - (a1 * a1).sum(axis=1)) / n
    k01 = (-(a0 * a1).sum(axis=1)) / n
    return maf, ysums[:, 2] - ysums[:, 0], ysums[:, 1], k00, k11, k01


def _missing_hard_terms(cfg: ScanConfig, ctx: ScanContext, g: np.ndarray,
                        counts: np.ndarray, sums: np.ndarray) -> tuple:
    """Complete-case terms of hard-call rows with missing calls.

    On a row's present samples S the complete-case residual is
    ``r_S - Q_S beta`` with ``G = Q_S'Q_S``, ``h = Q_S'r_S`` and
    ``beta = G^-1 h``, because the full-sample residual ``r`` differs
    from the phenotype by a vector of the covariate span.  So one more
    sweep, of ``ctx.miss_weights`` over these rows, gives everything:
    ``rss = r_S'r_S - h'beta``, the residual's class sums
    ``R_c - Q_c beta`` and ``n_used * K = diag(U'U) - A G^-1 A'`` with
    ``A = U'Q_S``.  Every reduction runs row by row.

    Returns ``(ok, n_used, rss, terms)``: a mask of the rows settled here
    and, for those rows, their sample counts, residual sums of squares and
    (maf, c1, c2, k00, k11, k01).  The other rows are left to the per-SNP
    path: too few samples, a near-singular G, a phenotype (almost) in the
    covariate span of S, or non-finite terms.
    """
    b = cfg.b
    n_used = counts.sum(axis=1)
    ok = n_used >= max(4, ctx.df_sub + 3)
    k = ctx.df_sub  # the width of the covariate basis Q
    rows = np.nonzero(ok)[0]
    s = ctx.kernels.hardcall_stats(g[rows], ctx.miss_weights)[1]
    tot = s[:, 0] + s[:, 1] + s[:, 2]
    srr, h = tot[:, 0], tot[:, 1 : 1 + k]
    iu, ju = np.triu_indices(k)
    gram = np.empty((rows.size, k, k))
    gram[:, iu, ju] = tot[:, 1 + k :]
    gram[:, ju, iu] = tot[:, 1 + k :]
    eig = np.linalg.eigvalsh(gram)
    well = eig[:, 0] >= ctx.gram_floor * eig[:, -1]
    ok[rows[~well]] = False
    rows, srr, h, gram = rows[well], srr[well], h[well], gram[well]
    counts, sums, n_used = counts[rows], sums[rows], n_used[rows]
    if ctx.qbasis is None:
        qsums = counts[:, :, None] / math.sqrt(ctx.n)
    else:
        qsums = sums[:, :, 1:]
    utu00, utu11, a0, a1 = _feature_basis_sums(b, counts, qsums)
    x = np.linalg.solve(gram, np.stack([h, a0, a1], axis=2))
    beta = x[:, :, 0]
    rss = srr - (h * beta).sum(axis=1)
    e = sums[:, :, 0] - (qsums * beta[:, None, :]).sum(axis=2)
    terms = (
        _maf(counts, n_used), e[:, 2] - e[:, 0], e[:, 1],
        (utu00 - (a0 * x[:, :, 1]).sum(axis=1)) / n_used,
        (utu11 - (a1 * x[:, :, 2]).sum(axis=1)) / n_used,
        (-(a0 * x[:, :, 2]).sum(axis=1)) / n_used,
    )
    good = (rss > _MIN_RSS_SHARE * srr) & np.isfinite(rss)
    for t in terms[1:]:
        good &= np.isfinite(t)
    ok[rows[~good]] = False
    return ok, n_used[good], rss[good], tuple(t[good] for t in terms)


def _dosage_terms(cfg: ScanConfig, ctx: ScanContext, x: np.ndarray,
                  s: np.ndarray) -> tuple:
    """(maf, c1, c2, k00, k11, k01) of complete dosage rows from their
    feature moments ``s``: [nmiss, s1, s2, s11, s22, s12, s1y, s2y]."""
    b, n = cfg.b, ctx.n
    s1, s2 = s[:, 1], s[:, 2]
    s11, s22, s12 = s[:, 3], s[:, 4], s[:, 5]
    if ctx.qbasis is None:
        g11 = s11 - s1 * s1 / n
        g22 = s22 - s2 * s2 / n
        g12 = s12 - s1 * s2 / n
    else:
        fq1 = _row_basis_dots(x, ctx.qbasis)
        fq2 = _row_basis_dots(np.abs(x - 1.0), ctx.qbasis)
        g11 = s11 - (fq1 * fq1).sum(axis=1)
        g22 = s22 - (fq2 * fq2).sum(axis=1)
        g12 = s12 - (fq1 * fq2).sum(axis=1)
    sqb, sqh = _scales(b)
    q = s1 / (2.0 * n)
    return (
        np.minimum(q, 1.0 - q), s[:, 6], s[:, 7],
        (b / 2.0) * g11 / n, ((4.0 - b) / 2.0) * g22 / n, sqb * sqh * g12 / n,
    )


def _records(cfg: ScanConfig, df_sub: int, variants, n_used, rss, maf, c1,
             c2, k00, k11, k01) -> list:
    """Records from the producers' per-SNP terms; ``n_used`` and ``rss``
    (the residual sum of squares) are scalars or one entry per row."""
    sqb, sqh = _scales(cfg.b)
    v1 = sqb * c1
    v2 = sqh * c2
    stat = (v1 * v1 + v2 * v2) / rss
    lam1, lam2 = eig2x2(k00, k11, k01)
    p_lo, p_hi = pvalue_bounds_batch(lam1, lam2, stat, n_used, df_sub)
    return _screened_records(cfg, n_used, df_sub, variants, maf, stat,
                             lam1, lam2, p_lo, p_hi)


def _screened_records(cfg: ScanConfig, n_used, df_sub: int, variants,
                      maf, stat, lam1, lam2, p_lo, p_hi) -> list:
    """Apply the screening decision to rows that share a covariate degree
    count, and evaluate the in-window rows.  ``n_used`` is one sample
    count for all rows or one per row.

    The decision is made once for all rows, as masks: degenerate
    (``lambda1 <= 0``; the statistic is identically zero there and any
    residual value is round-off), then high (``p_lower`` at or above the
    screen threshold), then low (``p_upper`` at or below the floor, which
    becomes the p-value).  A NaN compares false, so a NaN bound decides
    nothing and its row is evaluated.  Only in-window rows are evaluated,
    one SNP at a time; the others are built straight from the columns.
    """
    degen = lam1 <= 0.0
    live = ~degen
    # each row's index into _SCREENED, or 3 for an in-window row; nested
    # np.where, not np.select, which costs 20 us on the per-SNP path's
    # one-row calls
    if cfg.no_screen:
        code = np.where(degen, 0, 3)
    else:
        low = np.where(p_hi <= cfg.screen_floor, 2, 3)
        code = np.where(degen, 0, np.where(p_lo >= cfg.screen_threshold, 1, low))
    b = cfg.b
    columns = zip(
        variants, code.tolist(), np.broadcast_to(n_used, code.shape).tolist(), maf.tolist(),
        np.where(live, stat, 0.0).tolist(), np.where(live, lam1, 0.0).tolist(),
        np.where(live, lam2, 0.0).tolist(), np.where(live, p_lo, 1.0).tolist(),
        np.where(live, p_hi, 1.0).tolist(),
    )
    # positional fields: keywords cost twice the time of this loop
    return [
        _evaluated_record(cfg, var, m, nu, df_sub, s, l1, l2, lo, hi)
        if c == 3 else
        ScanRecord(var.snp_id, var.chrom, var.pos, m, nu, b, s, l1, l2,
                   lo, hi, None if c == 1 else hi, _SCREENED[c])
        for var, c, nu, m, s, l1, l2, lo, hi in columns
    ]


def _test_single_column(cfg: ScanConfig, ctx: ScanContext,
                        column: GenotypeColumn) -> ScanRecord:
    """Per-SNP path: dosage columns with missing entries, the multiallelic
    entry point, and the hard-call rows with missing calls that the block
    algebra leaves alone (see :func:`_missing_hard_terms`).  Redoes the
    covariate projection on the complete-case subsample, so the
    conditional null law stays exact, and gives each row's error code."""
    variant = VariantInfo(column.snp_id, column.chrom, column.pos)
    mask = column.present_mask()
    n_used = int(mask.sum())
    min_n = max(4, ctx.df_sub + 3)
    if n_used < min_n:
        return _error_record(cfg, variant, n_used, "too_few_samples")
    values = column.values[mask]
    sub = GenotypeColumn(
        snp_id=column.snp_id, chrom=column.chrom, pos=column.pos,
        values=values, m=column.m, kind=column.kind,
    )
    try:
        if ctx.covariates is None:
            resid = ctx.y[mask] - ctx.y[mask].mean()
            zmat = None
            df_sub = 1
        else:
            try:
                # the constructor's only check a row subset can fail is rank
                zsub = CovariateMatrix(
                    matrix=ctx.covariates.matrix[mask], names=ctx.covariates.names
                )
            except ValueError as exc:
                return _error_record(cfg, variant, n_used, "collinear_covariates", exc)
            rp = residualize(ctx.y[mask], zsub)
            resid = rp.residuals
            zmat = zsub.matrix
            df_sub = zsub.matrix.shape[1]
        rss = float(resid @ resid)
        if rss <= 0.0:
            return _error_record(cfg, variant, n_used, "degenerate_response")
        u = column_features(cfg.b, sub)
        spec = spectrum_from_features(u, projector_basis=zmat)
        v = u.T @ resid
        stat = float(v @ v) / rss
    except ValueError as exc:
        return _error_record(cfg, variant, n_used, "invalid_column", exc)
    lam = spec.lambdas
    lam1 = lam[0] if lam else 0.0
    lam2 = lam[1] if len(lam) > 1 else 0.0
    if len(spec.nonzero) > 2:
        return _multi_eigen_record(cfg, variant, sub, spec, stat, n_used)
    p_lo, p_hi = pvalue_bounds(spec, stat)
    row = (np.array([v]) for v in (sub.maf(), stat, lam1, lam2, p_lo, p_hi))
    return _screened_records(cfg, n_used, df_sub, [variant], *row)[0]


def _multi_eigen_record(cfg, variant, sub, spec, stat, n_used) -> ScanRecord:
    """Multiallelic record: exact tail by inversion of the holdout law."""
    try:
        p, method = exact_pvalue_with_method(spec, stat)
    except NumericsError as exc:
        return _error_record(cfg, variant, n_used, "numerics", exc)
    lam = spec.lambdas
    return ScanRecord(
        snp_id=variant.snp_id, chrom=variant.chrom, pos=variant.pos,
        maf=sub.maf(), n_used=n_used, b=cfg.b, stat=stat,
        lambda1=lam[0], lambda2=lam[1] if len(lam) > 1 else 0.0,
        p_lower=p, p_upper=p, p_value=p, method=method,
    )


def process_block(cfg: ScanConfig, ctx: ScanContext, block: Block) -> list:
    """Records for one block, input order preserved.

    Hard calls, and dosage rows whose present entries are all 0/1/2 (as
    int8 calls), go through the columnar engine from one sweep of class
    counts and class sums; their rows with missing calls get their
    complete-case terms from one more sweep over those rows.  Complete
    dosage rows go through it from their feature moments.  Dosage rows
    with a missing entry, and the hard-call rows the missing-call algebra
    cannot settle, take the per-SNP path.
    """
    x = block.values
    if block.kind == "hard":
        hard, soft, g = np.arange(len(x)), np.arange(0), x
    elif block.kind == "dosage":
        present = ~np.isnan(x)
        is_int = np.all(~present | (x == 0.0) | (x == 1.0) | (x == 2.0), axis=1)
        hard, soft = np.nonzero(is_int)[0], np.nonzero(~is_int)[0]
        g = np.where(present[hard], x[hard], -1.0).astype(np.int8)
    else:
        raise ValueError(f"blocks must be hard or dosage, got {block.kind!r}")
    records: list = [None] * len(block.variants)

    def emit(rows, n_used, rss, terms):
        recs = _records(cfg, ctx.df_sub, [block.variants[i] for i in rows],
                        n_used, rss, *terms)
        for i, rec in zip(rows, recs):
            records[i] = rec

    partial = []
    if hard.size:
        counts, sums = ctx.kernels.hardcall_stats(g, ctx.weights)
        clean = counts.sum(axis=1) == g.shape[1]
        if clean.any():
            emit(hard[clean], ctx.n, ctx.rss, _hard_terms(cfg, ctx, counts[clean], sums[clean]))
        if not clean.all():
            gm = g[~clean]
            ok, n_used, rss, terms = _missing_hard_terms(cfg, ctx, gm, counts[~clean], sums[~clean])
            miss = hard[~clean]
            if ok.any():
                emit(miss[ok], n_used, rss, terms)
            partial.append((miss[~ok], gm[~ok], "hard"))
    if soft.size:
        xs = x[soft]
        s = ctx.kernels.dosage_stats(xs, ctx.resid)
        clean = s[:, 0] == 0
        if clean.any():
            emit(soft[clean], ctx.n, ctx.rss, _dosage_terms(cfg, ctx, xs[clean], s[clean]))
        partial.append((soft[~clean], xs[~clean], "dosage"))
    for rows, values, kind in partial:
        for i, v in zip(rows, values):
            var = block.variants[i]
            col = GenotypeColumn(
                snp_id=var.snp_id, chrom=var.chrom, pos=var.pos, values=v, kind=kind,
            )
            records[i] = _test_single_column(cfg, ctx, col)
    return records


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _blocks_from_columns(columns: Iterable[GenotypeColumn], block_size: int) -> Iterator[Block]:
    pending: list[GenotypeColumn] = []
    kind = None
    start = 0

    def flush():
        nonlocal pending, start
        if not pending:
            return None
        vals = np.vstack([c.values for c in pending])
        blk = Block(
            variants=[VariantInfo(c.snp_id, c.chrom, c.pos) for c in pending],
            values=vals, kind=kind, start=start,
        )
        start += len(pending)
        pending = []
        return blk

    for col in columns:
        if col.kind == "allele_counts":
            raise ValueError("allele-count columns go through run_multiallelic")
        if kind is not None and (col.kind != kind or len(pending) >= block_size):
            blk = flush()
            if blk is not None:
                yield blk
        kind = col.kind
        pending.append(col)
    blk = flush()
    if blk is not None:
        yield blk


def _bounded_map(fn, items: Iterator, workers: int) -> Iterator:
    """Ordered parallel map with a bounded number of in-flight tasks."""
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        queue = deque()
        for item in items:
            queue.append(pool.submit(fn, item))
            if len(queue) >= 2 * workers:
                yield queue.popleft().result()
        while queue:
            yield queue.popleft().result()


def run_scan(config: ScanConfig, genotypes, phenotype,
             covariates: CovariateMatrix | None = None,
             kernels=None) -> Iterator[ScanRecord]:
    """Stream scan records for every SNP in input order.

    ``genotypes`` is a source with ``iter_blocks`` (packed, dosage or
    in-memory) or any iterable of GenotypeColumn objects.  ``kernels`` is
    the kernel module of the block sweeps (``backend.get_backend(name)``);
    None takes ``backend.kernels`` as it is when the scan starts.
    """
    ctx = prepare_context(phenotype, covariates, kernels)
    if hasattr(genotypes, "iter_blocks"):
        if getattr(genotypes, "n_samples", ctx.n) != ctx.n:
            raise ValueError(
                f"genotype source has {genotypes.n_samples} samples but the "
                f"phenotype has {ctx.n}"
            )
        blocks = genotypes.iter_blocks(config.block_size, kernels=ctx.kernels)
    else:
        blocks = _blocks_from_columns(genotypes, config.block_size)

    def work(block: Block) -> list:
        return process_block(config, ctx, block)

    for recs in _bounded_map(work, blocks, config.threads):
        yield from recs


def run_multiallelic(config: ScanConfig, genotype: GenotypeColumn, phenotype,
                     covariates: CovariateMatrix | None = None) -> ScanRecord:
    """Test one multiallelic SNP from its allele-count column.

    With two alleles the column reduces to the biallelic scan on the
    second-allele count and goes through exactly that code path.
    """
    if genotype.kind != "allele_counts":
        raise ValueError("run_multiallelic expects an allele-count column")
    if genotype.m < 2:
        raise ValueError("need at least two alleles")
    if genotype.m == 2:
        col = GenotypeColumn(
            snp_id=genotype.snp_id, chrom=genotype.chrom, pos=genotype.pos,
            values=genotype.values[:, 1], kind="dosage",
        )
        records = list(run_scan(config, iter([col]), phenotype, covariates))
        return records[0]
    ctx = prepare_context(phenotype, covariates)
    return _test_single_column(config, ctx, genotype)


# ---------------------------------------------------------------------------
# result persistence
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, float):
        if math.isnan(v):
            return "NA"
        return format(v, ".17g")
    return str(v)


# %.17g prints a float as format(v, ".17g") does, except NaN as "nan"
_ROW = "%s\t%s\t%s\t%.17g\t%s" + "\t%.17g" * 6 + "\t%s\t%s\t%s"


def record_row(rec: ScanRecord) -> str:
    """One TSV line: floats as ``%.17g``, NaN and missing values as NA,
    ``p_upper`` clamped to 1."""
    head = (
        rec.snp_id, rec.chrom, rec.pos, rec.maf, rec.n_used, rec.b, rec.stat,
        rec.lambda1, rec.lambda2, rec.p_lower, min(rec.p_upper, 1.0),
    )
    p = rec.p_value
    if p is None:
        row = _ROW % (*head, "NA", rec.method, "NA")
    else:
        row = _ROW % (*head, "%.17g" % p, rec.method, "%.17g" % rec.neg_log10_p)
    if "nan" in row:
        # a NaN field, or "nan" inside an id, chrom or method: field by field
        row = "\t".join(map(_fmt, (*head, p, rec.method, rec.neg_log10_p)))
    return row


def write_results(records: Iterable[ScanRecord], path: str) -> None:
    """Write the output TSV atomically; a failed write leaves no partial
    file behind."""
    tmp = path + ".partial"
    try:
        with open(tmp, "w") as fh:
            fh.write("\t".join(OUTPUT_COLUMNS) + "\n")
            for rec in records:
                fh.write(record_row(rec) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_results(path: str) -> list:
    """Parse a results TSV back into ScanRecord objects."""
    out = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != OUTPUT_COLUMNS:
            raise ValueError(f"{path}: unexpected result columns {header}")
        for line in fh:
            f = line.rstrip("\n").split("\t")
            if len(f) != len(OUTPUT_COLUMNS):
                raise ValueError(f"{path}: ragged result row")

            def num(s):
                return math.nan if s == "NA" else float(s)

            out.append(
                ScanRecord(
                    snp_id=f[0], chrom=f[1], pos=int(f[2]), maf=num(f[3]),
                    n_used=int(f[4]), b=num(f[5]), stat=num(f[6]),
                    lambda1=num(f[7]), lambda2=num(f[8]), p_lower=num(f[9]),
                    p_upper=num(f[10]),
                    p_value=None if f[11] == "NA" else float(f[11]),
                    method=f[12],
                )
            )
    return out
