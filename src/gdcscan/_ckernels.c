/* Per-SNP sweep kernels in plain C, called through ctypes by _kernels.py.
 *
 * No Python or NumPy API: every array is a C-contiguous buffer whose
 * dtype and shape the binding checks before the call.  Both sweeps sum
 * (n, k) weight columns.  Each sum adds a row's terms in sample order, as
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

/* g (n_snps, n) int8 calls, w (n, k) weights -> counts (n_snps, 3) of the
 * calls 0/1/2 and sums (n_snps, 3, k) of every weight column over each
 * class.  Any other call value (-1 for missing, or an invalid one) is
 * skipped, so no input reaches outside the buffers. */
void hardcall_sweep(const int8_t *g, int64_t n_snps, int64_t n, const double *w,
                    int64_t k, int64_t *restrict counts, double *restrict sums)
{
    memset(counts, 0, (size_t)(n_snps * 3) * sizeof *counts);
    memset(sums, 0, (size_t)(n_snps * 3 * k) * sizeof *sums);
    for (int64_t i = 0; i < n_snps; i++) {
        const int8_t *row = g + i * n;
        int64_t *c = counts + 3 * i;
        double *s = sums + 3 * k * i;
        for (int64_t j = 0; j < n; j++) {
            int v = row[j];
            if (v < 0 || v > 2)
                continue;
            c[v]++;
            for (int64_t m = 0; m < k; m++)
                s[v * k + m] += w[j * k + m];
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
