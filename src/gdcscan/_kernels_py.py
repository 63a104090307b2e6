"""Pure-NumPy implementations of the per-SNP sweep kernels.

These mirror the C kernels' API exactly and are selected at import when
the C library is not built (or when forced via ``GDCSCAN_BACKEND=python``).
Both sweeps sum (n, k) weight columns over cache-sized row chunks, and
every statistic belongs to its own row, so a SNP's statistics do not
depend on how many SNPs share its block.

The hard-call class sums are exact: :func:`fixed_point_grid` puts each
weight column on a fixed-point grid of int64 words, both backends sum the
words exactly, and :func:`grid_sums_to_float`, the one conversion, rounds
each sum once.  So their bits depend on no summation order, BLAS, CPU or
thread count, and equal C's.  A scan makes its grid once, by
:func:`hardcall_grid`, which here also cuts the words into narrow limbs;
the twin sums a chunk's class indicators against them with float32 matrix
products whose every product and partial sum is an integer below 2**24.  The
dosage sums add each row's terms in sample order, the order of the C
loop, by the last column of a per-row ``np.cumsum``, so both backends
give the same bits there too.
"""

from __future__ import annotations

import numpy as np

IS_COMPILED = False


# entries per row chunk: a chunk's class indicators or features and its
# temporaries stay in cache (of 2**14..2**18, 2**16 timed best or near it
# for both sweeps on 1024 x 2000 blocks with k = 1 and 4)
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


# the fixed-point grid of the hard-call sums: a weight w of a column with
# shift s is the integer round(w * 2**(s + _LO_BITS)), held as the words
# hi * 2**_LO_BITS + lo with 0 <= lo < 2**_LO_BITS
_LO_BITS = 26
# samples per float32 product of the twin's hard-call sweep; with more, its
# limbs would be narrower
_SEGMENT = 1 << 14


def fixed_point_grid(w: np.ndarray):
    """The weights ``w`` (n, k) on the hard-call sweep's fixed-point grid.

    Returns ``words`` (n, k, 2) int64, each weight's [hi, lo], and
    ``shift`` (k,), each column's s.  The shift puts a column's largest
    |w| just below 2**(62 - ceil(log2 n)) in hi units, so no sum of n hi
    words reaches 2**62 and the grid keeps at least 88 - ceil(log2 n) bits
    of that largest weight.  A sum of words is exact in int64 in any order;
    :func:`grid_sums_to_float` turns it into a float.  Weights that are not
    (n, k), or not finite, raise ValueError.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or not np.isfinite(w).all():
        raise ValueError("weights must be (n, k) and finite")
    n = w.shape[0]
    top = np.abs(w).max(axis=0, initial=0.0)
    shift = 62 - max(n - 1, 0).bit_length() - np.frexp(top)[1]
    x = np.ldexp(w, shift)  # exact; |x| < 2**(62 - ceil(log2 n))
    hi = np.floor(x)
    # x - hi is exact, and so is its scaling: one rounding per weight
    lo = np.rint(np.ldexp(np.subtract(x, hi, out=x), _LO_BITS, out=x), out=x)
    carry = lo == 2.0**_LO_BITS
    hi[carry] += 1.0
    lo[carry] = 0.0
    words = np.empty(w.shape + (2,), dtype=np.int64)
    words[..., 0], words[..., 1] = hi, lo
    return words, shift


def grid_sums_to_float(sums: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Float sums of (..., k, 2) int64 [sum of hi, sum of lo] word sums of
    columns with shifts ``shift`` (k,), the one conversion of both
    backends: float(hi) * 2**-s + float(lo) * 2**-(s + 26), after the low
    26 bits of hi have moved into lo.  Both terms are then exact (for n
    below 2**26), so the addition is the only rounding and each float is
    the correctly rounded sum of the grid's values."""
    rest = sums[..., 0] & ((1 << _LO_BITS) - 1)
    return (np.ldexp((sums[..., 0] - rest).astype(np.float64), -shift)
            + np.ldexp(((rest << _LO_BITS) + sums[..., 1]).astype(np.float64),
                       -(shift + _LO_BITS)))


def _limb_matrix(words: np.ndarray, segment: int):
    """(n, 1 + k * limbs) float32: a column of ones, then each weight
    column's hi and lo words cut into limbs of 24 - ceil(log2 segment)
    bits, low limb first; the top hi limb keeps hi's sign.  Over a segment
    of ``segment`` samples every limb column sums to at most 2**24 in magnitude,
    so a float32 product of class indicators and limbs is exact.  Also
    returns the (limbs, 2) int64 weights that turn limb sums into [hi, lo]
    sums."""
    n, k, _ = words.shape
    bits = 24 - max(segment - 1, 0).bit_length()
    n_hi = -(-(62 - max(n - 1, 0).bit_length()) // bits)
    n_lo = -(-_LO_BITS // bits)
    word = np.repeat([0, 1], [n_hi, n_lo])
    shifts = bits * np.concatenate([np.arange(n_hi), np.arange(n_lo)])
    masks = np.full(n_hi + n_lo, (1 << bits) - 1)
    masks[n_hi - 1] = -1
    limbs = np.empty((n, 1 + k * (n_hi + n_lo)), dtype=np.float32)
    limbs[:, 0] = 1.0
    view = limbs[:, 1:].reshape(n, k, n_hi + n_lo)
    for m in range(k):  # one column at a time: (n, limbs) scratch
        part = words[:, m, word]
        part >>= shifts
        part &= masks
        view[:, m] = part
    scale = np.zeros((n_hi + n_lo, 2), dtype=np.int64)
    scale[np.arange(n_hi + n_lo), word] = 1 << shifts
    return limbs, scale


def hardcall_grid(w: np.ndarray) -> tuple:
    """The scan's grid ``(shift, limbs, scale, totals, segment)`` of its weights
    ``w`` (n, k), read by every block and thread: the :func:`fixed_point_grid`
    shifts, the :func:`_limb_matrix` limbs and limb weights for products of
    ``segment`` samples, and the (1 + 2k,) int64 [n, each column's word totals]."""
    words, shift = fixed_point_grid(w)
    segment = max(1, min(len(words), _SEGMENT))
    limbs, scale = _limb_matrix(words, segment)
    return shift, limbs, scale, np.concatenate([[len(words)], words.sum(axis=0).ravel()]), segment


def hardcall_stats(g: np.ndarray, grid: tuple):
    """Per-SNP sufficient statistics of a hard-call block ``g`` (n_snps, n)
    of int8 calls, -1 for missing, in one sweep of the scan's ``grid`` of
    :func:`hardcall_grid`: (n_snps, 3) int64 class counts over
    non-missing entries and (n_snps, 3, k) float64 per-class sums of every
    weight column, exact sums on the fixed-point grid, so their bits
    depend on no summation order and equal C's.

    Each row chunk's class indicators (1.0 where a call is in the class)
    multiply the grid's limbs in one float32 ``np.matmul`` per segment of
    samples; every product and partial sum is an integer below 2**24, so
    the result is exact on any BLAS, and the limb sums are recombined in
    int64.  A call outside 0..2, missing or invalid, is in no class.  A
    chunk with no such call takes only the class-1 and class-2
    indicators: class 0 is the grid's totals less those two.
    """
    g = np.ascontiguousarray(g, dtype=np.int8)
    shift, limbs, scale, totals, segment = grid
    if g.ndim != 2 or g.shape[1] != len(limbs):
        raise ValueError("calls must be (n_snps, n) with n the grid's sample count")
    n_snps, n = g.shape
    k = len(shift)
    rows = max(1, min(n_snps, _CHUNK_CALLS // max(n, 1)))
    ind = np.empty((3 * rows, n), dtype=np.float32)
    out = np.empty((n_snps, 3, 1 + 2 * k), dtype=np.int64)
    for start in range(0, n_snps, rows):
        h = min(rows, n_snps - start)
        chunk = g[start : start + h]
        # as uint8 a missing or invalid call is above 2
        classes = (1, 2) if chunk.view(np.uint8).max(initial=0) <= 2 else (0, 1, 2)
        for i, v in enumerate(classes):
            np.equal(chunk, v, out=ind[i * h : (i + 1) * h])
        part = ind[: len(classes) * h]
        acc = np.matmul(part[:, :segment], limbs[:segment]).astype(np.int64)
        for s in range(segment, n, segment):
            acc += np.matmul(part[:, s : s + segment], limbs[s : s + segment]).astype(np.int64)
        acc = acc.reshape(len(classes), h, -1)
        sums = out[start : start + h].transpose(1, 0, 2)
        sums[classes, :, 0] = acc[:, :, 0]
        sums[classes, :, 1:] = (acc[:, :, 1:].reshape(len(classes), h, k, -1) @ scale).reshape(
            len(classes), h, 2 * k)
        if len(classes) == 2:
            sums[0] = totals - sums[1] - sums[2]
    sums = grid_sums_to_float(out[:, :, 1:].reshape(n_snps, 3, k, 2), shift)
    return out[:, :, 0].copy(), sums


def dosage_stats(x: np.ndarray, w: np.ndarray):
    """Per-SNP sufficient statistics for a dosage block ``x`` (n_snps, n),
    NaN for missing, and the scan's weights ``w`` (n, k).

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
