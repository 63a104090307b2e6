"""Pure-NumPy implementations of the per-SNP sweep kernels.

These mirror the C kernels' API exactly and are selected at import when
the C library is not built (or when forced via ``GDCSCAN_BACKEND=python``).
Every statistic is reduced row by row, never by a block-shaped matrix
product, so a SNP's statistics do not depend on how many SNPs share its
block.  Every sum adds each row's terms in sample order, the order of the
C loops, so both backends give the same bits.  Both sweeps sum (n, k)
weight columns over cache-sized row chunks.  A hard-call chunk is binned
sample-major, 4*row + call + 1 over the chunk's transpose, and reduced by
``np.bincount`` passes: consecutive adds go to different rows' bins,
while each bin still takes its row's weights in sample order.  A dosage
chunk is reduced by the last column of a per-row ``np.cumsum``.
"""

from __future__ import annotations

import numpy as np

IS_COMPILED = False


# entries per row chunk: a chunk's bins, weights and temporaries stay in
# cache (of 2**14..2**18, 2**16 timed best or near it for both sweeps on
# 1024 x 2000 blocks with k = 1, 4 and 10)
_CHUNK_CALLS = 1 << 16


# (256,) uint32 table: the entry of a byte value holds, in memory order, the
# int8 calls of its four bit pairs, so decoding is one gather per byte
_DECODE_LUT = (
    np.array([0, -1, 1, 2], dtype=np.int8)[(np.arange(256)[:, None] >> (2 * np.arange(4))) & 3]
    .view(np.uint32)
    .ravel()
)


def decode_packed(raw: np.ndarray, n: int) -> np.ndarray:
    """Unpack 2-bit genotype codes into int8 calls.

    ``raw`` is (n_snps, ceil(n/4)) uint8; bit pairs are little-endian
    within each byte.  Code map: 00 -> 0, 01 -> missing (-1), 10 -> 1,
    11 -> 2.  Row chunks are gathered into one chunk of scratch and
    copied, without their pad calls, into the (n_snps, n) result: a
    whole-block gather copies every uint8 index to intp, and takes longer.
    """
    raw = np.ascontiguousarray(raw, dtype=np.uint8)
    count, width = raw.shape
    if n < 0 or width * 4 < n:
        raise ValueError("packed rows too short for the declared sample count")
    out = np.empty((count, n), dtype=np.int8)
    rows = max(1, min(count, _CHUNK_CALLS // max(width * 4, 1)))
    scratch = np.empty((rows, width), dtype=np.uint32)
    for start in range(0, count, rows):
        h = min(rows, count - start)
        # every uint8 index is in range; "clip" writes out unbuffered
        np.take(_DECODE_LUT, raw[start : start + h], out=scratch[:h], mode="clip")
        out[start : start + h] = scratch[:h].view(np.int8)[:, :n]
    return out


def hardcall_stats(g: np.ndarray, w: np.ndarray):
    """Per-SNP sufficient statistics for a hard-call block: one sweep.

    Parameters
    ----------
    g:
        (n_snps, n) int8 calls, -1 for missing.
    w:
        (n, k) float64 weights, one column per summed quantity (the
        scan's residuals and covariate basis).

    Returns
    -------
    counts : (n_snps, 3) int64 class counts over non-missing entries.
    sums : (n_snps, 3, k) float64 per-class sums of every column of w.

    Each row chunk of height h is binned sample-major: the (n, h) bins
    ``4*row + call + 1`` of the chunk's transpose, so adjacent entries
    belong to h different rows and no add waits on the one before it.
    Bin ``4*row`` takes the missing calls and, as in C, any call outside
    0..2, and is dropped.  One unweighted ``np.bincount`` of the bins
    gives the counts, and one weighted by ``np.repeat(w[:, j], h)`` per
    column gives the sums.  A bin still receives its row's weights in
    sample order, starting from 0.0, so the bits do not depend on the
    layout or the chunk height and equal C's.
    """
    g = np.ascontiguousarray(g, dtype=np.int8)
    w = np.asarray(w, dtype=np.float64)
    if g.ndim != 2 or w.ndim != 2 or w.shape[0] != g.shape[1]:
        raise ValueError("weights must be (n, k) with n the block width")
    n_snps, n = g.shape
    k = w.shape[1]
    if g.size and (g.min() < -1 or g.max() > 2):
        # an invalid call would land in another class's or row's bin; as
        # in C, it is skipped like a missing one
        g = np.where((g >= 0) & (g <= 2), g, np.int8(-1))
    rows = max(1, min(n_snps, _CHUNK_CALLS // max(n, 1)))
    offsets = 4 * np.arange(rows, dtype=np.intp) + 1
    buf = np.empty(rows * n, dtype=np.intp)
    weights = [np.repeat(w[:, j], rows) for j in range(k)]
    counts = np.empty((n_snps, 4), dtype=np.int64)
    sums = np.empty((n_snps, 4, k), dtype=np.float64)
    for start in range(0, n_snps, rows):
        h = min(rows, n_snps - start)
        if h < rows:  # the last, shorter chunk
            weights = [np.repeat(w[:, j], h) for j in range(k)]
        bins = buf[: h * n]
        np.add(g[start : start + h].T, offsets[:h], out=bins.reshape(n, h))
        counts[start : start + h] = np.bincount(bins, minlength=4 * h).reshape(h, 4)
        for j in range(k):
            sums[start : start + h, :, j] = np.bincount(
                bins, weights=weights[j], minlength=4 * h
            ).reshape(h, 4)
    return counts[:, 1:], sums[:, 1:]


def dosage_stats(x: np.ndarray, w: np.ndarray):
    """Per-SNP sufficient statistics for a dosage block ``x`` (n_snps, n),
    NaN for missing, and the weights ``w`` of :func:`hardcall_stats`.

    Returns ``moments`` (n_snps, 6) [nmiss, s1, s2, s11, s22, s12] and
    ``sums`` (n_snps, 2, k) of the features f1 = x and f2 = |x - 1|
    against every column of w, over present entries, added in sample
    order.  Each row's sums are its own ``np.cumsum``, whatever its chunk.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.ndim != 2 or w.ndim != 2 or w.shape[0] != x.shape[1]:
        raise ValueError("weights must be (n, k) with n the block width")
    n_snps, n = x.shape
    moments = np.empty((n_snps, 6), dtype=np.float64)
    sums = np.empty((n_snps, 2, w.shape[1]), dtype=np.float64)
    rows = max(1, min(n_snps, _CHUNK_CALLS // max(n, 1)))
    for start in range(0, n_snps, rows):
        c = slice(start, start + rows)
        miss = np.isnan(x[c])
        f1 = np.where(miss, 0.0, x[c])
        f2 = np.where(miss, 0.0, np.abs(f1 - 1.0))
        for j, t in enumerate((miss, f1, f2, f1 * f1, f2 * f2, f1 * f2)):
            moments[c, j] = _row_sums(t)
        for j in range(w.shape[1]):
            sums[c, 0, j] = _row_sums(f1 * w[:, j])
            sums[c, 1, j] = _row_sums(f2 * w[:, j])
    return moments, sums


def _row_sums(t: np.ndarray) -> np.ndarray:
    """Sequential row sums (NumPy's ``sum`` is pairwise)."""
    return np.cumsum(t, axis=1)[:, -1]
