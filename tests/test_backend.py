"""Compiled kernels against the NumPy twins, and backend selection."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gdcscan import _kernels_py, backend
from gdcscan.backend import get_backend

try:
    from gdcscan import _kernels as _compiled
except ImportError:
    _compiled = None

needs_compiled = pytest.mark.skipif(
    _compiled is None, reason="compiled extension not built"
)


def _random_block(rng, n_snps=64, n=257, missing=True):
    g = rng.integers(0, 3, size=(n_snps, n)).astype(np.int8)
    if missing:
        mask = rng.random((n_snps, n)) < 0.03
        g[mask] = -1
    return g


@needs_compiled
def test_decode_packed_agreement():
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, size=(40, 13)).astype(np.uint8)
    for n in (49, 50, 51, 52):
        a = _compiled.decode_packed(raw, n)
        b = _kernels_py.decode_packed(raw, n)
        np.testing.assert_array_equal(a, b)


@needs_compiled
def test_hardcall_stats_agreement():
    rng = np.random.default_rng(1)
    g = _random_block(rng)
    y = rng.standard_normal(g.shape[1])
    # both backends add each row's responses in sample order: same bits
    for a, b in zip(_compiled.hardcall_stats(g, y), _kernels_py.hardcall_stats(g, y)):
        np.testing.assert_array_equal(a, b)


@needs_compiled
def test_dosage_stats_agreement():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 2, size=(32, 311))
    x[rng.random(x.shape) < 0.02] = np.nan
    y = rng.standard_normal(311)
    a = _compiled.dosage_stats(x, y)
    b = _kernels_py.dosage_stats(x, y)
    np.testing.assert_array_equal(a, b)


def test_hardcall_stats_reference():
    """NumPy kernel against a direct per-class loop."""
    rng = np.random.default_rng(3)
    g = _random_block(rng, n_snps=8, n=40)
    y = rng.standard_normal(40)
    counts, ysums, ymiss, yymiss = _kernels_py.hardcall_stats(g, y)
    for i in range(8):
        for j in range(3):
            sel = g[i] == j
            assert counts[i, j] == sel.sum()
            assert ysums[i, j] == pytest.approx(y[sel].sum(), abs=1e-12)
        miss = g[i] == -1
        assert ymiss[i] == pytest.approx(y[miss].sum(), abs=1e-12)
        assert yymiss[i] == pytest.approx((y[miss] ** 2).sum(), abs=1e-12)


def test_dosage_stats_reference():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 2, size=(5, 30))
    x[0, 3] = np.nan
    y = rng.standard_normal(30)
    s = _kernels_py.dosage_stats(x, y)
    for i in range(5):
        ok = ~np.isnan(x[i])
        f1 = x[i][ok]
        f2 = np.abs(f1 - 1.0)
        np.testing.assert_allclose(
            s[i],
            [
                (~ok).sum(), f1.sum(), f2.sum(), (f1 * f1).sum(),
                (f2 * f2).sum(), (f1 * f2).sum(), f1 @ y[ok], f2 @ y[ok],
                y[~ok].sum(),
            ],
            rtol=1e-12, atol=1e-12,
        )


@pytest.mark.parametrize("height", [1, 2, 7, 64])
def test_numpy_kernels_independent_of_block_height(height, monkeypatch):
    """A row's statistics are the same bits whether it is reduced alone or
    inside a block of any height."""
    rng = np.random.default_rng(6)
    n = 1031
    # 5-row bincount chunks, so blocks also straddle chunk boundaries
    monkeypatch.setattr(_kernels_py, "_CHUNK_CALLS", 5 * n)
    g = _random_block(rng, n_snps=64, n=n)
    x = rng.uniform(0, 2, size=(64, n))
    x[rng.random(x.shape) < 0.02] = np.nan
    y = rng.standard_normal(n)
    w = rng.standard_normal((n, 3))
    hard_rows = [_kernels_py.hardcall_stats(g[i : i + 1], y) for i in range(64)]
    dosage_rows = [_kernels_py.dosage_stats(x[i : i + 1], y) for i in range(64)]
    class_rows = [_kernels_py.class_sums(g[i : i + 1], w) for i in range(64)]
    for start in range(0, 64, height):
        stop = start + height
        for k, part in enumerate(_kernels_py.hardcall_stats(g[start:stop], y)):
            np.testing.assert_array_equal(
                part, np.concatenate([r[k] for r in hard_rows[start:stop]])
            )
        np.testing.assert_array_equal(
            _kernels_py.dosage_stats(x[start:stop], y),
            np.concatenate(dosage_rows[start:stop]),
        )
        np.testing.assert_array_equal(
            _kernels_py.class_sums(g[start:stop], w),
            np.concatenate(class_rows[start:stop]),
        )


def test_class_sums_match_hardcall_stats():
    """Each column's class sums are the hard-call kernel's response sums
    for that column, bit for bit, on every available backend."""
    rng = np.random.default_rng(7)
    g = _random_block(rng)
    w = rng.standard_normal((g.shape[1], 3))
    sums = _kernels_py.class_sums(g, w)
    assert sums.shape == (g.shape[0], 3, 3)
    for kernels in (_kernels_py, _compiled):
        if kernels is None:
            continue
        for j in range(3):
            np.testing.assert_array_equal(sums[:, :, j], kernels.hardcall_stats(g, w[:, j])[1])


def test_get_backend_selection():
    assert get_backend("python") is _kernels_py
    if _compiled is not None:
        assert get_backend("auto").IS_COMPILED
        assert get_backend("compiled") is _compiled
    with pytest.raises(ValueError):
        get_backend("gpu")


class _CountingKernels:
    """The NumPy kernels, recording the height of every hard-call block."""

    def __init__(self):
        self.heights = []

    def __getattr__(self, name):
        return getattr(_kernels_py, name)

    def hardcall_stats(self, g, y):
        self.heights.append(g.shape[0])
        return _kernels_py.hardcall_stats(g, y)


def test_scans_with_different_kernels_run_side_by_side():
    """Two concurrent scans, each on its own kernel module: the same bytes,
    every block through the module passed in, the default left alone."""
    from gdcscan.adjust import CovariateMatrix
    from gdcscan.io import ArraySource
    from gdcscan.scan import ScanConfig, record_row, run_scan

    rng = np.random.default_rng(11)
    g = rng.integers(0, 3, size=(90, 250)).astype(np.int8)
    y = rng.standard_normal(250)
    cov = CovariateMatrix.build({
        "intercept": np.ones(250), "age": rng.standard_normal(250),
        "sex": rng.integers(0, 2, 250).astype(float),
    })
    src = ArraySource(g, kind="hard")
    cfg = ScanConfig(b=3.0, block_size=16)
    counting = _CountingKernels()
    default = backend.kernels

    def scan(kernels):
        return [record_row(r) for r in run_scan(cfg, src, y, cov, kernels=kernels)]

    with ThreadPoolExecutor(max_workers=2) as pool:
        plain = pool.submit(scan, _kernels_py)
        counted = pool.submit(scan, counting)
        plain, counted = plain.result(timeout=120), counted.result(timeout=120)
    assert len(plain) == 90
    assert plain == counted
    assert counting.heights == [16] * 5 + [10]
    assert backend.kernels is default


@needs_compiled
def test_scan_results_match_across_backends():
    """Same hard-call panel, both kernel backends: byte-identical records."""
    from gdcscan.io import ArraySource
    from gdcscan.scan import ScanConfig, record_row, run_scan

    rng = np.random.default_rng(5)
    g = rng.integers(0, 3, size=(200, 300)).astype(np.int8)
    y = rng.standard_normal(300)
    src = ArraySource(g, kind="hard")
    cfg = ScanConfig(b=3.0)
    rec_c = list(run_scan(cfg, src, y, kernels=_compiled))
    rec_p = list(run_scan(cfg, src, y, kernels=_kernels_py))
    assert len(rec_c) == len(rec_p) == 200
    for a, b in zip(rec_c, rec_p):
        assert record_row(a) == record_row(b)


@needs_compiled
def test_dosage_scan_results_match_across_backends():
    """Same non-integer dosage panel, both kernel backends: byte-identical
    records, with and without covariates."""
    from gdcscan.adjust import CovariateMatrix
    from gdcscan.io import ArraySource
    from gdcscan.scan import ScanConfig, record_row, run_scan

    rng = np.random.default_rng(6)
    x = rng.uniform(0, 2, size=(120, 300))
    x[rng.random(x.shape) < 0.002] = np.nan
    y = rng.standard_normal(300)
    cov = CovariateMatrix.build(
        {"intercept": np.ones(300), "age": rng.standard_normal(300)}
    )
    src = ArraySource(x, kind="dosage")
    cfg = ScanConfig(b=2.5)
    rec_c = [list(run_scan(cfg, src, y, c, kernels=_compiled)) for c in (None, cov)]
    rec_p = [list(run_scan(cfg, src, y, c, kernels=_kernels_py)) for c in (None, cov)]
    for rc, rp in zip(rec_c, rec_p):
        assert len(rc) == len(rp) == 120
        for a, b in zip(rc, rp):
            assert record_row(a) == record_row(b)
