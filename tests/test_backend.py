"""C kernels against the NumPy twins, and backend selection.

The C kernels are compiled from the package's ``_ckernels.c`` with the
system C compiler into a temporary directory, next to a copy of the
binding module, which loads the library from its own directory just as it
does inside the package after ``python setup.py build_ext --inplace``.
"""

import importlib.util
import shutil
import subprocess
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import gdcscan
from gdcscan import _kernels_py, backend
from gdcscan.backend import get_backend

try:
    from gdcscan import _kernels as _installed
except ImportError:
    _installed = None

PACKAGE = Path(gdcscan.__file__).parent
CC = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
# setup.py's compile flags, plus those that make a shared library
CFLAGS = ["-O3", "-ffp-contract=off", "-shared", "-fPIC"]


def _load_binding(directory: Path):
    """Execute a copy of the binding module placed in ``directory``."""
    shutil.copy(PACKAGE / "_kernels.py", directory)
    spec = importlib.util.spec_from_file_location(
        f"ckernels_{directory.name}", directory / "_kernels.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def ckernels(tmp_path_factory):
    """The C kernel module, built from the package's current C source."""
    if CC is None:
        pytest.skip("no C compiler on PATH")
    directory = tmp_path_factory.mktemp("ckernels")
    subprocess.run(
        [CC, *CFLAGS, str(PACKAGE / "_ckernels.c"), "-o", str(directory / "_ckernels.so")],
        check=True,
    )
    return _load_binding(directory)


def _random_block(rng, n_snps=64, n=257, missing=True):
    g = rng.integers(0, 3, size=(n_snps, n)).astype(np.int8)
    if missing:
        mask = rng.random((n_snps, n)) < 0.03
        g[mask] = -1
    return g


def test_decode_packed_agreement(ckernels):
    rng = np.random.default_rng(0)
    raw = rng.integers(0, 256, size=(40, 13)).astype(np.uint8)
    for n in (0, 1, 49, 50, 51, 52):
        a = ckernels.decode_packed(raw, n)
        b = _kernels_py.decode_packed(raw, n)
        np.testing.assert_array_equal(a, b)


def test_hardcall_stats_agreement(ckernels):
    rng = np.random.default_rng(1)
    g = _random_block(rng)
    y = rng.standard_normal(g.shape[1])
    a, b = ckernels.hardcall_stats(g, y), _kernels_py.hardcall_stats(g, y)
    assert len(a) == len(b) == 2
    # both backends add each row's responses in sample order: same bits
    for part_a, part_b in zip(a, b):
        assert part_a.dtype == part_b.dtype
        np.testing.assert_array_equal(part_a, part_b)


def test_dosage_stats_agreement(ckernels):
    rng = np.random.default_rng(2)
    for n in (308, 309, 310, 311):
        x = rng.uniform(0, 2, size=(32, n))
        x[rng.random(x.shape) < 0.02] = np.nan
        x[0] = 1.0  # f2 is zero on the whole row
        y = rng.standard_normal(n)
        a = ckernels.dosage_stats(x, y)
        b = _kernels_py.dosage_stats(x, y)
        assert a.shape == b.shape == (32, 8)
        np.testing.assert_array_equal(a, b)


def test_c_kernels_stay_in_bounds_on_invalid_calls(ckernels):
    """Calls outside -1..2 reach the C sweep unchecked: they are skipped,
    never counted or written outside the output buffers."""
    rng = np.random.default_rng(8)
    g = _random_block(rng, n_snps=6, n=50)
    for i, bad in enumerate((3, -2, 127, -128)):
        g[i, rng.integers(0, 50, size=3)] = bad
    g[-1, -1] = 3  # the last call of the block's last row
    y = rng.standard_normal(50)
    w = rng.standard_normal((50, 2))
    counts, ysums = ckernels.hardcall_stats(g, y)
    assert ((counts >= 0) & (counts <= 50)).all()
    for i in range(6):
        valid = (g[i] >= 0) & (g[i] <= 2)
        assert counts[i].sum() == valid.sum()
        for j in range(3):
            assert ysums[i, j] == pytest.approx(y[g[i] == j].sum(), abs=1e-12)
    np.testing.assert_array_equal(counts, _kernels_py.hardcall_stats(g, y)[0])
    np.testing.assert_array_equal(ckernels.class_sums(g, w)[:, :, 1],
                                  ckernels.hardcall_stats(g, w[:, 1])[1])


def test_c_binding_rejects_wrong_shapes(ckernels):
    g = np.zeros((3, 10), dtype=np.int8)
    with pytest.raises(ValueError):
        ckernels.decode_packed(np.zeros((2, 3), dtype=np.uint8), 13)
    with pytest.raises(ValueError):
        ckernels.decode_packed(np.zeros(3, dtype=np.uint8), 12)
    with pytest.raises(ValueError):
        ckernels.hardcall_stats(g, np.zeros(9))
    with pytest.raises(ValueError):
        ckernels.hardcall_stats(g[0], np.zeros(10))
    with pytest.raises(ValueError):
        ckernels.class_sums(g, np.zeros((11, 2)))
    with pytest.raises(ValueError):
        ckernels.class_sums(g, np.zeros(10))
    with pytest.raises(ValueError):
        ckernels.dosage_stats(np.zeros((3, 10)), np.zeros((10, 1)))


def test_c_binding_without_library_raises_import_error(tmp_path):
    """A binding with no library beside it fails to import, which is what
    sends ``get_backend("auto")`` to the NumPy twin."""
    with pytest.raises(ImportError):
        _load_binding(tmp_path)


def test_hardcall_stats_reference():
    """NumPy kernel against a direct per-class loop."""
    rng = np.random.default_rng(3)
    g = _random_block(rng, n_snps=8, n=40)
    y = rng.standard_normal(40)
    counts, ysums = _kernels_py.hardcall_stats(g, y)
    for i in range(8):
        for j in range(3):
            sel = g[i] == j
            assert counts[i, j] == sel.sum()
            assert ysums[i, j] == pytest.approx(y[sel].sum(), abs=1e-12)


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


def test_class_sums_match_hardcall_stats(request):
    """Each column's class sums are the hard-call kernel's response sums
    for that column, bit for bit, on both backends (the C one when a
    compiler is on PATH), for widths of every residue mod 4."""
    modules = [_kernels_py] + ([request.getfixturevalue("ckernels")] if CC else [])
    rng = np.random.default_rng(7)
    for n in (256, 257, 258, 259):
        g = _random_block(rng, n=n)
        w = rng.standard_normal((n, 3))
        sums = _kernels_py.class_sums(g, w)
        assert sums.shape == (g.shape[0], 3, 3)
        for kernels in modules:
            np.testing.assert_array_equal(kernels.class_sums(g, w), sums)
            for j in range(3):
                np.testing.assert_array_equal(
                    sums[:, :, j], kernels.hardcall_stats(g, w[:, j])[1]
                )


def test_get_backend_selection():
    assert get_backend("python") is _kernels_py
    if _installed is not None:
        assert get_backend("auto").IS_COMPILED
        assert get_backend("compiled") is _installed
    else:
        assert get_backend("auto") is _kernels_py
        with pytest.raises(ImportError):
            get_backend("compiled")
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


def test_scan_results_match_across_backends(ckernels):
    """Same hard-call panel, both kernel backends: byte-identical records,
    with and without covariates."""
    from gdcscan.adjust import CovariateMatrix
    from gdcscan.io import ArraySource
    from gdcscan.scan import ScanConfig, record_row, run_scan

    rng = np.random.default_rng(5)
    g = rng.integers(0, 3, size=(200, 300)).astype(np.int8)
    y = rng.standard_normal(300)
    cov = CovariateMatrix.build(
        {"intercept": np.ones(300), "age": rng.standard_normal(300)}
    )
    src = ArraySource(g, kind="hard")
    cfg = ScanConfig(b=3.0)
    for c in (None, cov):
        rec_c = list(run_scan(cfg, src, y, c, kernels=ckernels))
        rec_p = list(run_scan(cfg, src, y, c, kernels=_kernels_py))
        assert len(rec_c) == len(rec_p) == 200
        for a, b in zip(rec_c, rec_p):
            assert record_row(a) == record_row(b)


def test_dosage_scan_results_match_across_backends(ckernels):
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
    rec_c = [list(run_scan(cfg, src, y, c, kernels=ckernels)) for c in (None, cov)]
    rec_p = [list(run_scan(cfg, src, y, c, kernels=_kernels_py)) for c in (None, cov)]
    for rc, rp in zip(rec_c, rec_p):
        assert len(rc) == len(rp) == 120
        for a, b in zip(rc, rp):
            assert record_row(a) == record_row(b)
