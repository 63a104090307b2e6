/* Per-SNP sweep kernels in plain C, called through ctypes by _kernels.py.
 *
 * No Python or NumPy API: every array is a C-contiguous buffer whose
 * dtype and shape the binding checks before the call.  Both sweeps sum
 * (n, k) weight columns.  The hard-call sweep sums them as int64 words on
 * a fixed-point grid, so its sums are exact and their bits depend on no
 * order.  The dosage sweep adds a row's float terms in sample order, as
 * the NumPy twin in _kernels_py.py does, so both give the same bits (build
 * without floating-point contraction).
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

/* raw (n_snps, nbytes) 2-bit codes -> out (n_snps, n) int8 calls, where
 * nbytes * 4 >= n.  Bit pairs are little-endian within a byte; codes
 * 00, 01, 10, 11 are the calls 0, -1 (missing), 1, 2. */
void decode_packed(const uint8_t *raw, int64_t n_snps, int64_t nbytes,
                   int64_t n, int8_t *out)
{
    static const int8_t code_call[4] = {0, -1, 1, 2};
    int8_t lut[256][4];
    for (int b = 0; b < 256; b++)
        for (int k = 0; k < 4; k++)
            lut[b][k] = code_call[(b >> (2 * k)) & 3];
    int64_t full = n / 4;
    for (int64_t i = 0; i < n_snps; i++) {
        const uint8_t *r = raw + i * nbytes;
        int8_t *o = out + i * n;
        for (int64_t j = 0; j < full; j++)
            memcpy(o + 4 * j, lut[r[j]], 4);
        if (n > 4 * full)
            memcpy(o + 4 * full, lut[r[full]], (size_t)(n - 4 * full));
    }
}

/* Adds one call v with the 2k words x to a row's class counts c and its
 * (3, k, 2) word sums s; a call outside 0..2 is skipped. */
static void add_call(int v, const int64_t *x, int64_t k2, int64_t *c, int64_t *s)
{
    if (v < 0 || v > 2)
        return;
    c[v]++;
    for (int64_t m = 0; m < k2; m++)
        s[v * k2 + m] += x[m];
}

/* g (n_snps, n) int8 calls, words (n, k, 2) int64 [hi, lo] words of k
 * weight columns on the fixed-point grid of _kernels_py.fixed_point_grid
 * -> counts (n_snps, 3) of the calls 0/1/2 and sums (n_snps, 3, k, 2) of
 * every column's hi and lo words over each class.  Any other call value
 * (-1 for missing, or an invalid one) is skipped, so no input reaches
 * outside the buffers.  The grid keeps every sum of hi words below 2**62
 * and of lo words below n * 2**26 in magnitude, so each sum is exact and
 * the same whatever the order of its adds.  Rows are swept two at a time,
 * so the adds of one row need not wait on those of the other. */
void hardcall_sweep(const int8_t *g, int64_t n_snps, int64_t n, const int64_t *words,
                    int64_t k, int64_t *restrict counts, int64_t *restrict sums)
{
    int64_t k2 = 2 * k;
    memset(counts, 0, (size_t)(n_snps * 3) * sizeof *counts);
    memset(sums, 0, (size_t)(n_snps * 3 * k2) * sizeof *sums);
    for (int64_t i = 0; i < n_snps; i += 2) {
        const int8_t *a = g + i * n, *b = a + n;
        int64_t *ca = counts + 3 * i, *sa = sums + 3 * k2 * i;
        if (i + 1 < n_snps) {
            for (int64_t j = 0; j < n; j++) {
                add_call(a[j], words + j * k2, k2, ca, sa);
                add_call(b[j], words + j * k2, k2, ca + 3, sa + 3 * k2);
            }
        } else {
            for (int64_t j = 0; j < n; j++)
                add_call(a[j], words + j * k2, k2, ca, sa);
        }
    }
}

/* x (n_snps, n) dosages, NaN for missing, w (n, k) weights -> moments
 * (n_snps, 6) [nmiss, s1, s2, s11, s22, s12] and sums (n_snps, 2, k) of
 * the features f1 = x, f2 = |x - 1| against every weight column.  A
 * missing entry adds zero features, and every sum starts at -0.0, the
 * additive identity, so it equals the twin's np.cumsum bit for bit. */
void dosage_sweep(const double *x, int64_t n_snps, int64_t n, const double *w,
                  int64_t k, double *restrict moments, double *restrict sums)
{
    for (int64_t i = 0; i < n_snps; i++) {
        const double *row = x + i * n;
        double t[6] = {0.0, -0.0, -0.0, -0.0, -0.0, -0.0};
        double *s = sums + 2 * k * i;
        for (int64_t m = 0; m < 2 * k; m++)
            s[m] = -0.0;
        for (int64_t j = 0; j < n; j++) {
            int miss = isnan(row[j]);
            double f1 = miss ? 0.0 : row[j];
            double f2 = miss ? 0.0 : fabs(f1 - 1.0);
            t[0] += miss;
            t[1] += f1;
            t[2] += f2;
            t[3] += f1 * f1;
            t[4] += f2 * f2;
            t[5] += f1 * f2;
            for (int64_t m = 0; m < k; m++) {
                s[m] += f1 * w[j * k + m];
                s[k + m] += f2 * w[j * k + m];
            }
        }
        memcpy(moments + 6 * i, t, sizeof t);
    }
}
