"""Per-SNP scan pipeline with two-stage p-value screening.

For every SNP the pipeline (1) applies the per-SNP complete-case filter,
(2) computes the standardized statistic (covariate-adjusted when a design
is supplied), (3) computes the two-eigenvalue null spectrum, (4) computes
the cheap lower/upper p-value bounds, and (5) evaluates the exact p-value
only when the bounds leave the interesting window (lower bound below the
screen threshold, upper bound above the floor).

Genotypes arrive as blocks: :func:`run_scan` reads a block source of
``gdcscan.io``, and :func:`run_multiallelic` makes a one-row dosage block
of a two-allele column.  Each block gives one :class:`BlockResult`, of
per-row columns, which reaches the results file with no per-SNP object.

SNPs take a vectorized block path.  A hard-call block makes one kernel
sweep, of class counts and the per-class sums of the residuals and the
covariate basis; dosage rows make one of their feature moments.  Both
become sums of the scaled features over each row's present samples, and
one complete-case projection, :func:`_projected_terms`, turns those into
the statistic's cross sums and the 2x2 spectral matrix.  A row with
missing entries takes the projection's terms over its present samples as
the scan's totals less their sums over its few missing samples, read
from the block, so every block makes one kernel sweep.  One screening
tail, :func:`_records`, writes every row's statistic and eigenvalues
into the block's columns: it makes the screening decision for all its
rows at once, as masks over the bounds; only in-window rows are
evaluated, one SNP at a time.  A per-SNP path, which redoes the covariate projection on the
complete-case subsample and then goes through the same tail as a one-row
block, is left for columns of more than two alleles and the rows the
projection refuses (too few samples, a near-singular complete-case
design, a phenotype in its span); it gives those rows their error codes.
The kernel module is the scan context's ``kernels`` field, passed to
:func:`run_scan` or read from ``backend.kernels`` when the scan starts;
it also decodes packed sources.
:func:`record_row` formats a block into one string, every row through
one ``%`` template made from the block's columns.  Output order
always equals input order, and every per-SNP sum belongs to its own row,
so the output bytes do not depend on the worker count, the block size or
the kernel module.  The hard-call class sums are exact sums on the
kernels' fixed-point grid, so their bits depend on no summation order,
BLAS, CPU or thread count; the rest of the arithmetic (the scan's totals,
the covariate SVD, :func:`_missing_sums`, the spectra and the tail
integral) still takes its last bits from the machine and the NumPy and
SciPy wheels, so the bytes are promised on one machine with one set of
wheels.
"""

from __future__ import annotations

import itertools
import logging
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from .adjust import (MIN_RSS_SHARE, CovariateMatrix, column_features, degenerate_response,
                     residualize)
from . import backend
from .io import DEFAULT_BLOCK_SIZE, Block, write_lines
from .nulldist import (
    METHOD_DEGENERATE,
    NullSpectrum,
    NumericsError,
    _ROUTES,
    _projected_spectrum,
    eig2x2,
    exact_pvalue_with_method,
    hardcall_terms,
    min_samples,
    pvalue_bounds,  # noqa: F401 - not called here; perfbench/layers.py wraps it by name
    pvalue_bounds_batch,
)
from .premetric import GenotypeColumn, check_b, feature_scales

log = logging.getLogger("gdcscan")

# rows with missing entries whose complete-case covariate Gram matrix Q_S'Q_S
# has an eigenvalue ratio below this, or whose complete-case residual sum
# of squares is not above MIN_RSS_SHARE of the residuals' own, take the
# per-SNP path
_MIN_GRAM_RATIO = 1e-6
# with covariates, so do those whose complete-case residual sum of squares
# is not above this many times MIN_RSS_SHARE of the centred sum of squares
# of y_S (without covariates the two sums are one): the margin covers the
# block algebra's round-off, so that only the per-SNP path's
# degenerate_response decides whether such a row is refused
_RESPONSE_MARGIN = 1e3

# every method a row can have, by its int8 code in a block result: the
# three the screening tail settles without evaluation (degenerate first),
# the other exact routes, then the error codes
METHODS = (METHOD_DEGENERATE, "screened_out_high", "screened_out_low", *_ROUTES[1:], *(
    f"error:{code}" for code in ("too_few_samples", "collinear_covariates",
                                 "degenerate_response", "invalid_column", "numerics")))
_CODE = {method: np.int8(c) for c, method in enumerate(METHODS)}

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
    threads: int = 1
    no_screen: bool = False
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self):
        check_b(self.b)
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
        return None if self.p_value is None else _neg_log10(self.p_value)


@dataclass(eq=False)
class BlockResult:
    """The results of one block as columns, one row per variant in input
    order: ``variants``, each row's ``[snp_id, chrom, pos]`` as the block
    gives it, float64 ``maf``, ``stat``, ``lambda1``, ``lambda2``,
    ``p_lower``, ``p_upper`` (unclamped) and ``p_value`` (NaN where a row
    has none), int64 ``n_used``, and ``method``, each row's int8 code into
    :data:`METHODS`.  ``b`` is the scan's, the same for every row."""

    variants: list
    b: float
    n_used: np.ndarray
    maf: np.ndarray
    stat: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    p_lower: np.ndarray
    p_upper: np.ndarray
    p_value: np.ndarray
    method: np.ndarray

    @classmethod
    def blank(cls, b: float, variants: list) -> BlockResult:
        """Rows to be filled: NaN floats, as an error row keeps them."""
        m = len(variants)
        return cls(variants, b, np.zeros(m, dtype=np.int64),
                   *(np.full(m, math.nan) for _ in range(7)), np.zeros(m, dtype=np.int8))

    def records(self) -> list:
        """The rows as :class:`ScanRecord` objects; a NaN p-value is None."""
        floats = (self.maf, self.stat, self.lambda1, self.lambda2, self.p_lower, self.p_upper)
        return [
            ScanRecord(*v, maf, nu, self.b, stat, l1, l2, lo, hi,
                       None if math.isnan(p) else p, METHODS[c])
            for v, nu, maf, stat, l1, l2, lo, hi, p, c in zip(
                self.variants, self.n_used.tolist(), *(f.tolist() for f in floats),
                self.p_value.tolist(), self.method.tolist())
        ]


@dataclass
class ScanContext:
    """Shared per-phenotype state: the phenotype and its covariates, the
    residual sum of squares, the degree count the covariates remove, the
    kernel module that runs the block sweeps and the weight columns it sums.

    ``weights`` is ``[r | Q]``, the residuals and the orthonormal covariate
    basis (``r`` alone without covariates), the columns of every block's
    sweep, hard calls and dosages alike; :meth:`grid` is their hard-call
    form.  ``basis`` is Q (the column
    ``1/sqrt(n)`` without covariates) and ``yc``, with covariates, the
    centred phenotype (None without them).  ``totals`` holds the sums over
    all n samples of the complete-case projection's terms: ``[r'r, Q'r,
    upper triangle of Q'Q]`` and, with covariates, ``[sum yc, yc'yc]``; a
    row with missing entries takes them less the sums over its missing
    samples.  ``gram_floor`` is the smallest eigenvalue ratio of a row's
    ``Q'Q`` that the block algebra accepts.
    """

    y: np.ndarray
    covariates: CovariateMatrix | None
    rss: float
    df_sub: int
    n: int
    kernels: object
    weights: np.ndarray
    basis: np.ndarray
    yc: np.ndarray | None
    totals: np.ndarray
    gram_floor: float
    _grid: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _grid_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                       repr=False, compare=False)

    def grid(self) -> tuple:
        """``kernels.hardcall_grid(weights)``, made when the first hard-call
        block is swept, so a scan that sweeps none makes none, and then
        only read by every block and worker thread."""
        with self._grid_lock:
            if self._grid is None:
                self._grid = self.kernels.hardcall_grid(self.weights)
        return self._grid


def prepare_context(phenotype, covariates: CovariateMatrix | None = None,
                    kernels=None) -> ScanContext:
    """``kernels`` defaults to ``backend.kernels``, read at call time."""
    y = np.asarray(phenotype, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("phenotype must be a vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("phenotype contains non-finite values")
    n = y.shape[0]
    # complete rows use all n samples, and the block engine takes them as given
    df_sub = 1 if covariates is None else covariates.matrix.shape[1]
    if n < min_samples(df_sub, 2):
        raise ValueError(f"too few samples: need at least {min_samples(df_sub, 2)}, got {n}")
    if covariates is None:
        resid = y - y.mean()
        q = np.full((n, 1), 1.0 / math.sqrt(n))
        weights = resid[:, None]
        gram_floor = _MIN_GRAM_RATIO
        yc = None  # r is yc, so r'r and Q'r hold its sums
        ysums = []
    else:
        resid = residualize(y, covariates).residuals  # checks that the rows align
        q = covariates.orthonormal_basis()
        weights = np.column_stack([resid, q])
        # Z = Q S V' makes cond(Z_S) <= sqrt(cond(Q_S'Q_S)) * cond(Z), so
        # above this floor every complete-case design passes the per-SNP
        # path's rank test (singular values above 1e-10 of the largest)
        # with a factor 10 to spare
        sv = covariates.svd[1]
        gram_floor = max(_MIN_GRAM_RATIO, (1e-9 * sv[0] / sv[-1]) ** 2)
        yc = y - y.mean()
        ysums = [yc.sum(), yc @ yc]
    rss = float(resid @ resid)
    if degenerate_response(y, rss):
        raise ValueError("degenerate response: the phenotype is constant or "
                         "inside the covariate span")
    iu, ju = np.triu_indices(q.shape[1])
    totals = np.concatenate([[rss], q.T @ resid, (q.T @ q)[iu, ju], ysums])
    return ScanContext(
        y=y, covariates=covariates, rss=rss,
        df_sub=df_sub, n=n, kernels=backend.kernels if kernels is None else kernels,
        weights=weights, basis=q, yc=yc, totals=totals, gram_floor=gram_floor,
    )


# ---------------------------------------------------------------------------
# vectorized block engine
# ---------------------------------------------------------------------------


def _evaluated_record(out: BlockResult, i: int, spec: NullSpectrum, stat: float) -> None:
    """Writes the exact p-value and method of the in-window row ``i`` of
    ``out``; an ``error:numerics`` row keeps its other fields.  A spectrum
    of more than two nonzero eigenvalues has no bounds: its p-value stands
    for them."""
    try:
        p_value, method = exact_pvalue_with_method(spec, stat)
    except NumericsError as exc:
        log.warning("%s: error:numerics: %s", out.variants[i][0], exc)
        p_value, method = math.nan, "error:numerics"
    out.p_value[i], out.method[i] = p_value, _CODE[method]
    if len(spec.nonzero) > 2:
        out.p_lower[i] = out.p_upper[i] = p_value


def _error_record(out: BlockResult, i: int, n_used: int, code: str, exc=None) -> BlockResult:
    """Writes the fixed error code ``error:{code}`` into row ``i`` of
    ``out``, whose other fields stay NaN; the message of ``exc``, when
    given, goes to the ``gdcscan`` log."""
    if exc is not None:
        log.warning("%s: error:%s: %s", out.variants[i][0], code, exc)
    out.n_used[i], out.method[i] = n_used, _CODE[f"error:{code}"]
    return out


def _maf(dose: np.ndarray, n_used) -> np.ndarray:
    """Minor allele frequency from the allele sum over present entries:
    the smaller allele sum over 2 n_used, so that a row and its allele
    flip 2 - x give the same value."""
    alleles = 2.0 * n_used
    return np.minimum(dose, alleles - dose) / alleles


def _hard_sums(b: float, counts: np.ndarray, rsums: np.ndarray,
               qsums: np.ndarray) -> tuple:
    """(utu, ur, uq) of hard-call rows from class counts and the per-class
    sums of r (m, 3) and Q (m, 3, k).  U's columns sqrt(b/2) (x - 1) and
    sqrt((4-b)/2) [x = 1] are orthogonal class contrasts."""
    sqb, sqh = feature_scales(b)
    utu = np.stack([(b / 2.0) * (counts[:, 0] + counts[:, 2]),
                    ((4.0 - b) / 2.0) * counts[:, 1], np.zeros(len(counts))], axis=1)
    ur = np.stack([sqb * (rsums[:, 2] - rsums[:, 0]), sqh * rsums[:, 1]], axis=1)
    uq = np.stack([sqb * (qsums[:, 2] - qsums[:, 0]), sqh * qsums[:, 1]], axis=1)
    return utu, ur, uq


def _dosage_sums(b: float, ctx: ScanContext, s: np.ndarray, fsums: np.ndarray) -> tuple:
    """(utu, ur, uq) of dosage rows from one ``dosage_stats`` sweep: the
    moments ``s`` = [nmiss, s1, s2, s11, s22, s12] and the sums ``fsums``
    (m, 2, k) of the two features against ``ctx.weights``, whose column 0
    gives U'r and the others U'Q (without covariates U'Q is (s1, s2) /
    sqrt(n), as for :func:`_hard_sums`).  U's columns are sqrt(b/2) x and
    sqrt((4-b)/2) |x - 1|, zero where x is missing."""
    sqb, sqh = feature_scales(b)
    utu = np.stack([(b / 2.0) * s[:, 3], ((4.0 - b) / 2.0) * s[:, 4], sqb * sqh * s[:, 5]], axis=1)
    fq = s[:, 1:3, None] / math.sqrt(ctx.n) if ctx.covariates is None else fsums[:, :, 1:]
    scale = np.array([sqb, sqh])
    return utu, scale * fsums[:, :, 0], scale[:, None] * fq


def _projected_terms(ctx: ScanContext, n_used: np.ndarray, utu: np.ndarray,
                     ur: np.ndarray, uq: np.ndarray, miss=None, at=None) -> tuple:
    """Complete-case terms of block rows from sums of the scaled features
    U over each row's present samples S: ``utu`` (m, 3) holds (U'U)_00,
    (U'U)_11 and (U'U)_01, ``ur`` (m, 2) is U'r and ``uq`` (m, 2, k) U'Q,
    with r the residuals and Q the orthonormal covariate basis (the column
    1/sqrt(n) without covariates).

    On S the complete-case residual is ``r_S - Q_S beta`` with
    ``G = Q_S'Q_S``, ``h = Q_S'r_S`` and ``beta = G^-1 h``, because ``r``
    differs from the phenotype by a vector of the covariate span.  So
    ``rss = r_S'r_S - h'beta``, the cross sums are ``U'r - U'Q beta`` and
    ``n_used * K = U'U - A G^-1 A'`` with ``A = U'Q``.  A complete row
    (``miss`` None) has G = I, h = 0 and rss = ``ctx.rss``: no solve.
    Rows with missing entries pass their block rows in ``miss``, hard
    calls (-1 where missing) or dosages (NaN where missing), and their
    row of it in ``at``.  Q is orthonormal over all n samples, so their
    r_S'r_S, h, G and, with covariates, the centred sum of squares of y_S
    (without them it is ``rss`` itself) are ``ctx.totals`` less the sums
    over each row's missing samples M, such as ``G = Q'Q - Q_M'Q_M``.
    Every reduction runs row by row.

    Returns ``(rows, n_used, rss, terms)``: the indices of the rows
    settled here and their sample counts, residual sums of squares and
    (v1, v2, k00, k11, k01), the scaled cross sums and the 2x2 spectral
    matrix.  The per-SNP path takes the other rows: too few samples, a
    near-singular G, a phenotype (almost) in the covariate span of S or
    (within ``_RESPONSE_MARGIN``) degenerate on S, or non-finite terms.
    """
    rows = np.arange(len(n_used))
    if miss is None:
        srr = rss = ctx.rss
        css = 0.0  # prepare_context refused a degenerate y on all n samples
        ga = uq  # the rows of G^-1 A'
    else:
        k = ctx.df_sub  # the width of the covariate basis Q
        rows = rows[n_used >= min_samples(k, 2)]
        tot = ctx.totals - _missing_sums(ctx, miss, at[rows])
        iu, ju = np.triu_indices(k)
        gram = np.empty((rows.size, k, k))
        gram[:, iu, ju] = gram[:, ju, iu] = tot[:, 1 + k : 1 + k + iu.size]
        eig = np.linalg.eigvalsh(gram)
        well = eig[:, 0] >= ctx.gram_floor * eig[:, -1]
        rows, srr, h, gram = rows[well], tot[well, 0], tot[well, 1 : 1 + k], gram[well]
        ysums = tot[well, 1 + k + iu.size :]
        n_used, utu, ur, uq = n_used[rows], utu[rows], ur[rows], uq[rows]
        sol = np.linalg.solve(gram, np.concatenate([h[:, :, None], uq.transpose(0, 2, 1)], axis=2))
        beta, ga = sol[:, :, 0], sol[:, :, 1:].transpose(0, 2, 1)
        rss = srr - (h * beta).sum(axis=1)
        ur = ur - (uq * beta[:, None, :]).sum(axis=2)
        css = ysums[:, 1] - ysums[:, 0] ** 2 / n_used if ctx.covariates is not None else 0.0
    a0, a1 = uq[:, 0], uq[:, 1]
    terms = (
        ur[:, 0], ur[:, 1],
        (utu[:, 0] - (a0 * ga[:, 0]).sum(axis=1)) / n_used,
        (utu[:, 1] - (a1 * ga[:, 1]).sum(axis=1)) / n_used,
        (utu[:, 2] - (a0 * ga[:, 1]).sum(axis=1)) / n_used,
    )
    good = ((rss > MIN_RSS_SHARE * srr) & (rss > _RESPONSE_MARGIN * MIN_RSS_SHARE * css)
            & np.isfinite(rss) & np.isfinite(terms).all(axis=0))
    rss = np.broadcast_to(rss, good.shape)
    return rows[good], n_used[good], rss[good], tuple(t[good] for t in terms)


# calls per row chunk of the sums over missing samples
_MISS_CHUNK_CALLS = 1 << 17


def _missing_sums(ctx: ScanContext, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The sums of the terms of ``ctx.totals`` over the missing samples M
    of each row ``x[rows]``: ``[r_M'r_M, Q_M'r_M, upper triangle of
    Q_M'Q_M]`` and, with covariates, ``[sum yc_M, yc_M'yc_M]``.  The rows
    are copied in chunks of about ``_MISS_CHUNK_CALLS`` calls, so no copy
    of a block outlives its chunk.  Each term is summed by ``np.bincount``
    over the chunk's missing entries in row-major order, so every row adds
    its own terms in sample order, starting from 0.0, and the chunks move
    no bit.  The other scratch holds one value per missing entry and term
    or basis column."""
    k = ctx.df_sub
    iu, ju = np.triu_indices(k)
    sums = np.empty((rows.size, ctx.totals.size))
    step = max(1, _MISS_CHUNK_CALLS // max(x.shape[1], 1))
    for i in range(0, rows.size, step):
        chunk = x[rows[i : i + step]]
        # the flat index is 8x faster than np.nonzero of the 2-D mask
        row, m = np.divmod(np.flatnonzero(
            np.isnan(chunk) if chunk.dtype.kind == "f" else chunk < 0), x.shape[1])
        r, q = ctx.weights[m, 0], ctx.basis[m]
        yc = [] if ctx.yc is None else [ctx.yc[m]]
        terms = itertools.chain(
            [r * r], (q[:, a] * r for a in range(k)),
            (q[:, a] * q[:, b] for a, b in zip(iu, ju)), yc, (t * t for t in yc))
        for j, t in enumerate(terms):
            sums[i : i + len(chunk), j] = np.bincount(row, weights=t, minlength=len(chunk))
    return sums


def _records(cfg: ScanConfig, df_sub: int, out: BlockResult, rows: np.ndarray, n_used, maf,
             stat, lams, mono) -> None:
    """Writes the rows ``rows`` of ``out``, which share a covariate degree
    count, from each row's statistic, its eigenvalues ``lams`` (rows,
    slots >= 2), descending, and ``mono``, whether it has one value on all
    its present samples.  ``n_used`` is one sample count for all rows or
    one per row.

    A monomorphic row has a statistic of zero and a spectrum of round-off,
    so its lambda1 is set to 0.  The screening decision is made once for
    all rows, as masks over the bounds: degenerate (``lambda1 <= 0``; the
    statistic is identically zero there and any residual value is
    round-off), then high (``p_lower`` at or above the screen threshold),
    then low (``p_upper`` at or below the floor, which becomes the
    p-value).  A NaN compares false, so a NaN bound decides nothing and
    its row is evaluated, as is a row of more than two nonzero
    eigenvalues, which the bounds do not cover.  The columns are written
    with array operations; only in-window rows are evaluated, one SNP at a
    time.
    """
    lam1, lam2 = np.where(mono, 0.0, lams[:, 0]), lams[:, 1]
    p_lo, p_hi = pvalue_bounds_batch(lam1, lam2, stat, n_used, df_sub)
    degen = lam1 <= 0.0
    live = ~degen
    # each row's method code (degenerate, high or low), or -1 for an
    # in-window row; nested np.where, not np.select, which costs 20 us on
    # the per-SNP path's one-row calls
    if cfg.no_screen:
        code = np.where(degen, 0, -1)
    else:
        low = np.where(p_hi <= cfg.screen_floor, 2, -1)
        code = np.where(degen, 0, np.where(p_lo >= cfg.screen_threshold, 1, low))
    if lams.shape[1] > 2:
        code = np.where(live & (lams[:, 2] > 0.0), -1, code)
    p_hi = np.where(live, p_hi, 1.0)
    out.n_used[rows] = n_used
    out.maf[rows] = maf
    out.stat[rows] = np.where(live, stat, 0.0)
    out.lambda1[rows] = np.where(live, lam1, 0.0)
    out.lambda2[rows] = np.where(live, lam2, 0.0)
    out.p_lower[rows] = np.where(live, p_lo, 1.0)
    out.p_upper[rows] = p_hi
    out.p_value[rows] = np.where(code == 1, math.nan, p_hi)
    out.method[rows] = code
    nus = np.broadcast_to(n_used, code.shape)
    for j in np.flatnonzero(code < 0).tolist():
        spec = NullSpectrum(lams[j].tolist(), int(nus[j]), df_sub)
        _evaluated_record(out, int(rows[j]), spec, float(stat[j]))


def _test_single_column(cfg: ScanConfig, ctx: ScanContext, column: GenotypeColumn,
                        out: BlockResult | None = None, i: int = 0) -> BlockResult:
    """Per-SNP path: the multiallelic entry point and the block rows that
    :func:`_projected_terms` refuses.  Redoes the covariate projection on
    the complete-case subsample, so the conditional null law stays exact,
    and gives each row's error code; the other rows go through
    :func:`_records` as one-row blocks.  Writes row ``i`` of ``out`` and
    returns ``out``, by default a new one-row result."""
    if out is None:
        out = BlockResult.blank(cfg.b, [[column.snp_id, column.chrom, column.pos]])
    mask = column.present_mask()
    n_used = int(mask.sum())
    if n_used < min_samples(ctx.df_sub, column.n_features):
        return _error_record(out, i, n_used, "too_few_samples")
    values, y = column.values[mask], ctx.y[mask]
    sub = replace(column, values=values)
    try:
        if ctx.covariates is None:
            resid, basis = y - y.mean(), None
        else:
            try:
                # the constructor's only check a row subset can fail is rank
                zsub = CovariateMatrix(
                    matrix=ctx.covariates.matrix[mask], names=ctx.covariates.names
                )
            except ValueError as exc:
                return _error_record(out, i, n_used, "collinear_covariates", exc)
            resid = residualize(y, zsub).residuals
            basis = zsub.orthonormal_basis()
        rss = float(resid @ resid)
        if degenerate_response(y, rss):
            return _error_record(out, i, n_used, "degenerate_response")
        u = column_features(cfg.b, sub)
        spec = _projected_spectrum(u, basis)
        v = u.T @ resid
        stat = float(v @ v) / rss
    except ValueError as exc:
        return _error_record(out, i, n_used, "invalid_column", exc)
    mono = np.all(values == values[0])
    row = (np.array([v]) for v in (sub.maf(), stat, spec.lambdas, mono))
    _records(cfg, ctx.df_sub, out, np.array([i]), n_used, *row)
    return out


def process_block(cfg: ScanConfig, ctx: ScanContext, block: Block) -> BlockResult:
    """The results of one block, input order preserved.

    Hard calls, and dosage rows whose present entries are all 0/1/2 (as
    int8 calls), take one kernel sweep of class counts and the class sums
    of ``ctx.weights``; the other dosage rows one sweep of feature moments
    and the feature sums of the same columns.  Both become the feature
    sums of :func:`_projected_terms`, which settles complete rows at once
    and rows with missing entries from their missing samples' sums.
    Complete hard-call rows without covariates take the paper's
    closed-form frequency matrix, in the same (v1, v2, k00, k11, k01)
    shape.  Every row's terms go through :func:`_records`; the rows the
    projection refuses take the per-SNP path.
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
    result = BlockResult.blank(cfg.b, block.variants)
    refused = []

    def emit(rows, n_used, rss, maf, mono, v1, v2, *k):
        stat = (v1 * v1 + v2 * v2) / rss
        lams = np.stack(eig2x2(*k), axis=1)
        _records(cfg, ctx.df_sub, result, rows, n_used, maf, stat, lams, mono)

    def settle(sel, rows, values, kind, sums, complete=True):
        """Results of the rows ``rows[sel]`` that the projection settles;
        ``sums`` is (n_used, allele sum, monomorphic, utu, ur, uq) per row.
        The other rows are queued for the per-SNP path."""
        idx = np.nonzero(sel)[0]
        if not idx.size:
            return
        n_used, dose, mono, *feats = (t[idx] for t in sums)
        done, n_used, rss, terms = _projected_terms(
            ctx, n_used, *feats, miss=None if complete else values, at=idx)
        if done.size:
            emit(rows[idx[done]], n_used, rss, _maf(dose[done], n_used), mono[done], *terms)
        refused.extend((rows[j], values[j], kind) for j in np.setdiff1d(idx, idx[done]))

    if hard.size:
        counts, csums = ctx.kernels.hardcall_stats(g, ctx.grid())
        n_used = counts.sum(axis=1)
        dose = counts[:, 1] + 2.0 * counts[:, 2]
        mono = (counts == n_used[:, None]).any(axis=1)
        clean = n_used == g.shape[1]
        qsums = (counts[:, :, None] / math.sqrt(ctx.n) if ctx.covariates is None
                 else csums[:, :, 1:])
        sums = (n_used, dose, mono) + _hard_sums(cfg.b, counts, csums[:, :, 0], qsums)
        if ctx.covariates is not None:
            settle(clean, hard, g, "hard", sums)
        elif clean.any():
            # the paper's closed-form frequency matrix: its spectrum keeps
            # more digits than the projection's U'U - A A', which cancels
            emit(hard[clean], ctx.n, ctx.rss, _maf(dose[clean], ctx.n), mono[clean],
                 *hardcall_terms(cfg.b, counts[clean], csums[clean, :, 0], ctx.n))
        settle(~clean, hard, g, "hard", sums, complete=False)
    if soft.size:
        xs = x[soft]
        s, fsums = ctx.kernels.dosage_stats(xs, ctx.weights)
        mono = np.fmin.reduce(xs, axis=1) == np.fmax.reduce(xs, axis=1)
        sums = (xs.shape[1] - s[:, 0].astype(np.int64), s[:, 1], mono) + _dosage_sums(
            cfg.b, ctx, s, fsums)
        clean = s[:, 0] == 0
        settle(clean, soft, xs, "dosage", sums)
        settle(~clean, soft, xs, "dosage", sums, complete=False)
    for i, v, kind in refused:
        col = GenotypeColumn(*block.variants[i], values=v, kind=kind)
        _test_single_column(cfg, ctx, col, result, i)
    return result


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _bounded_map(fn, items: Iterator, workers: int) -> Iterator:
    """Ordered parallel map with a bounded number of in-flight tasks.  One
    worker holds no item or result once it has handed it on, so the next
    item is read after the previous one is gone."""
    if workers <= 1:
        yield from map(fn, items)
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
             kernels=None) -> Iterator[BlockResult]:
    """The stream of block results, one per block of the source, in input
    order; ``BlockResult.records()`` gives a block's rows as
    :class:`ScanRecord` objects, and :func:`write_results` writes the
    stream.

    ``genotypes`` is a block source of ``gdcscan.io`` (``PackedSource``,
    ``DosageSource``, ``ArraySource`` or a ``SubsetSource`` of one): it
    has ``n_samples`` and ``iter_blocks``.  ``kernels`` is the kernel
    module of the block sweeps (``backend.get_backend(name)``); None takes
    ``backend.kernels`` as it is when the scan starts.  The phenotype,
    the covariates and the sample count are checked by this call, before
    any block is read, so an input the scan refuses raises here; the
    returned iterator reads the blocks.  With one thread the scan holds
    one block at a time, released before the next block is read.
    """
    ctx = prepare_context(phenotype, covariates, kernels)
    if genotypes.n_samples != ctx.n:
        raise ValueError(
            f"genotype source has {genotypes.n_samples} samples but the "
            f"phenotype has {ctx.n}"
        )
    blocks = genotypes.iter_blocks(config.block_size, kernels=ctx.kernels)

    def work(block: Block) -> BlockResult:
        return process_block(config, ctx, block)

    return _bounded_map(work, blocks, config.threads)


def run_multiallelic(config: ScanConfig, genotype: GenotypeColumn, phenotype,
                     covariates: CovariateMatrix | None = None) -> ScanRecord:
    """Test one multiallelic SNP from its allele-count column.

    With two alleles the column reduces to the biallelic scan on the
    second-allele count and goes through exactly that code path: a
    one-row dosage block.
    """
    if genotype.kind != "allele_counts":
        raise ValueError("run_multiallelic expects an allele-count column")
    if genotype.m < 2:
        raise ValueError("need at least two alleles")
    ctx = prepare_context(phenotype, covariates)
    if genotype.m > 2:
        return _test_single_column(config, ctx, genotype).records()[0]
    col = GenotypeColumn(
        snp_id=genotype.snp_id, chrom=genotype.chrom, pos=genotype.pos,
        values=genotype.values[:, 1], kind="dosage",
    )
    block = Block(
        variants=[[col.snp_id, col.chrom, col.pos]],
        values=col.values[None, :], kind="dosage",
    )
    return process_block(config, ctx, block).records()[0]


# ---------------------------------------------------------------------------
# result persistence
# ---------------------------------------------------------------------------


def _neg_log10(p: float) -> float:
    """-log10 p, inf for p <= 0; 0.0 - log10(1) is +0.0, where -log10(1)
    would print as -0.  Always ``math.log10``, never ``np.log10``, whose
    SIMD rounding can differ."""
    return math.inf if p <= 0.0 else 0.0 - math.log10(p)


_METHOD_NAMES = np.array(METHODS, dtype=object)


def _float_column(values: np.ndarray) -> tuple:
    """A float column's template field and its arguments: the floats
    under ``%.17g`` when none is NaN, else each value's ``%.17g`` or NA
    under ``%s``."""
    found = ~np.isnan(values)
    if found.all():
        return "%.17g", values.tolist()
    fields = ["NA"] * len(values)
    for i, v in zip(np.flatnonzero(found).tolist(), values[found].tolist()):
        fields[i] = "%.17g" % v
    return "%s", fields


def record_row(result: BlockResult) -> str:
    """The TSV lines of a block, newline-separated, every row through one
    ``%`` template made from the block's columns: floats as ``%.17g``,
    NaN as NA, ``p_upper`` clamped to 1 and ``b`` built in."""
    p = result.p_value
    found = ~np.isnan(p)
    neg = np.full(len(p), math.nan)
    neg[found] = [_neg_log10(v) for v in p[found].tolist()]
    maf, stat, l1, l2, lo, hi, pv, ng = map(_float_column, (
        result.maf, result.stat, result.lambda1, result.lambda2, result.p_lower,
        np.minimum(result.p_upper, 1.0), p, neg))
    template = "\t".join(("%s\t%s\t%s", maf[0], "%s", "%.17g" % result.b, stat[0], l1[0],
                          l2[0], lo[0], hi[0], pv[0], "%s", ng[0]))
    # the snp_id, chrom and pos columns, then the others
    return "\n".join([template % row for row in zip(
        *zip(*result.variants), maf[1], result.n_used.tolist(), stat[1], l1[1], l2[1],
        lo[1], hi[1], pv[1], _METHOD_NAMES[result.method].tolist(), ng[1])])


def write_results(results: Iterable[BlockResult], path: str) -> None:
    """Write the output TSV atomically, one :func:`record_row` string per
    block; a failed write leaves no partial file behind."""
    # map, unlike a generator, holds no block once its string is made
    write_lines(path, itertools.chain(["\t".join(OUTPUT_COLUMNS)], map(record_row, results)))
