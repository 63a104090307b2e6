"""C kernels against the NumPy twins, and backend selection.

The C kernels are compiled from the package's ``_ckernels.c`` with the
system C compiler into a temporary directory, next to a copy of the
binding module, which loads the library from its own directory just as it
does inside the package after ``python setup.py build_ext --inplace``.
``$CFLAGS`` and ``$LDFLAGS`` from the environment go on the compile line
before the module's own flags, as ``setup.py`` orders them, so a sanitized
build can be checked here too and no flag from the environment undoes
``-ffp-contract=off``.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import gdcscan
from gdcscan import _kernels_py, backend
from gdcscan.backend import get_backend
from test_scan import _dosages_of, _missing_call_panel
from tsv_oracle import scan_records

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
    extra = os.environ.get("CFLAGS", "").split() + os.environ.get("LDFLAGS", "").split()
    subprocess.run(
        [CC, *extra, *CFLAGS, str(PACKAGE / "_ckernels.c"), "-o",
         str(directory / "_ckernels.so")],
        check=True,
    )
    return _load_binding(directory)


def _rows(results) -> list:
    """The TSV lines the program writes for a scan's block results."""
    from gdcscan.scan import record_row

    return "\n".join(map(record_row, results)).split("\n")


def _hardcall(kernels, g, w):
    """The hard-call sweep of ``kernels`` over the weights ``w`` on the
    grid it makes of them, as a scan makes it once."""
    return kernels.hardcall_stats(g, kernels.hardcall_grid(w))


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
    w = rng.standard_normal((g.shape[1], 4))
    a, b = _hardcall(ckernels, g, w), _hardcall(_kernels_py, g, w)
    assert len(a) == len(b) == 2
    assert a[1].shape == (g.shape[0], 3, 4)
    # both backends sum the weights exactly on one grid: same bits
    for part_a, part_b in zip(a, b):
        assert part_a.dtype == part_b.dtype
        np.testing.assert_array_equal(part_a, part_b)


def test_dosage_stats_agreement(ckernels):
    rng = np.random.default_rng(2)
    for n, k in ((308, 1), (309, 2), (310, 4), (311, 4)):
        x = rng.uniform(0, 2, size=(32, n))
        x[rng.random(x.shape) < 0.02] = np.nan
        x[0] = 1.0  # f2 is zero on the whole row
        x[1] = 0.0  # f1 is zero on the whole row
        w = rng.standard_normal((n, k))
        a = ckernels.dosage_stats(x, w)
        b = _kernels_py.dosage_stats(x, w)
        assert len(a) == len(b) == 2
        assert a[0].shape == b[0].shape == (32, 6)
        assert a[1].shape == b[1].shape == (32, 2, k)
        # both backends add each row's terms in sample order: same bits,
        # signed zeros included
        for part_a, part_b in zip(a, b):
            np.testing.assert_array_equal(part_a, part_b)
            np.testing.assert_array_equal(np.signbit(part_a), np.signbit(part_b))


def test_c_kernels_stay_in_bounds_on_invalid_calls(ckernels):
    """Calls outside -1..2 reach the C sweep unchecked: they are skipped,
    never counted or written outside the output buffers."""
    rng = np.random.default_rng(8)
    g = _random_block(rng, n_snps=6, n=50)
    for i, bad in enumerate((3, -2, 127, -128)):
        g[i, rng.integers(0, 50, size=3)] = bad
    g[-1, -1] = 3  # the last call of the block's last row
    w = rng.standard_normal((50, 2))
    y = w[:, 0]
    counts, sums = _hardcall(ckernels, g, w)
    assert ((counts >= 0) & (counts <= 50)).all()
    for i in range(6):
        valid = (g[i] >= 0) & (g[i] <= 2)
        assert counts[i].sum() == valid.sum()
        for j in range(3):
            assert sums[i, j, 0] == pytest.approx(y[g[i] == j].sum(), abs=1e-12)
    twin_counts, twin_sums = _hardcall(_kernels_py, g, w)
    np.testing.assert_array_equal(counts, twin_counts)
    np.testing.assert_array_equal(sums, twin_sums)
    np.testing.assert_array_equal(sums[:, :, 1], _hardcall(ckernels, g, w[:, 1:])[1][:, :, 0])


def test_twin_skips_invalid_calls():
    """A call outside -1..2 (4, 5, -2, -128, ...) is in no class of the
    twin, as in C: its counts and sums are those of the block with every
    invalid call made missing."""
    g = np.array([[4, 0, -2, 1, 5, 127, 3, -1]], dtype=np.int8)
    w = 10.0 ** np.arange(8)[:, None]
    counts, sums = _hardcall(_kernels_py, g, w)
    np.testing.assert_array_equal(counts, [[1, 1, 0]])
    np.testing.assert_array_equal(sums[:, :, 0], [[10.0, 1000.0, 0.0]])
    rng = np.random.default_rng(9)
    g = _random_block(rng, n_snps=40, n=300)
    bad = rng.random(g.shape) < 0.05
    g[bad] = rng.choice(np.array([3, 4, 5, 6, -2, -3, -4, 127, -128], dtype=np.int8),
                        size=int(bad.sum()))
    w = rng.standard_normal((300, 3))
    counts, sums = _hardcall(_kernels_py, g, w)
    clean = np.where((g >= 0) & (g <= 2), g, np.int8(-1))
    ref_counts, ref_sums = _hardcall(_kernels_py, clean, w)
    np.testing.assert_array_equal(counts, ref_counts)
    np.testing.assert_array_equal(sums, ref_sums)
    for i in range(len(g)):
        for j in range(3):
            assert counts[i, j] == (g[i] == j).sum()
            np.testing.assert_allclose(sums[i, j], w[g[i] == j].sum(axis=0), atol=1e-12)


def test_c_binding_rejects_wrong_shapes(ckernels):
    """Each module refuses weights that are not (n, k) when it makes the
    grid, and a block whose width is not the grid's sample count, or that
    is not 2-D, when it sweeps; a grid of the right width sweeps."""
    g = np.zeros((3, 10), dtype=np.int8)
    with pytest.raises(ValueError):
        ckernels.decode_packed(np.zeros((2, 3), dtype=np.uint8), 13)
    with pytest.raises(ValueError):
        ckernels.decode_packed(np.zeros(3, dtype=np.uint8), 12)
    for kernels in (ckernels, _kernels_py):
        with pytest.raises(ValueError, match="grid"):
            kernels.hardcall_stats(g, kernels.hardcall_grid(np.zeros((9, 1))))
        with pytest.raises(ValueError):
            kernels.hardcall_stats(g[0], kernels.hardcall_grid(np.zeros((10, 1))))
        with pytest.raises(ValueError, match="grid"):
            kernels.hardcall_stats(g, kernels.hardcall_grid(np.zeros((11, 2))))
        for bad in (np.zeros(10), np.zeros((10, 1, 1))):
            with pytest.raises(ValueError, match=r"weights must be \(n, k\)"):
                kernels.hardcall_grid(bad)
        assert _hardcall(kernels, g, np.ones((10, 2)))[1].shape == (3, 3, 2)
        x = np.zeros((3, 10))
        with pytest.raises(ValueError):
            kernels.dosage_stats(x, np.zeros(10))
        with pytest.raises(ValueError):
            kernels.dosage_stats(x, np.zeros((9, 1)))
        with pytest.raises(ValueError):
            kernels.dosage_stats(x, np.zeros((11, 2)))
        with pytest.raises(ValueError):
            kernels.dosage_stats(x[0], np.zeros((10, 1)))
    # the C loop indexes k columns of words: a grid whose words and shifts
    # disagree is refused before it runs
    words, shift = ckernels.hardcall_grid(np.ones((10, 2)))
    for grid in ((words, shift[:1]), (words[:, :1], shift), (words[..., :1], shift)):
        with pytest.raises(ValueError, match="grid must be"):
            ckernels.hardcall_stats(g, grid)


def test_c_binding_without_library_raises_import_error(tmp_path):
    """A binding with no library beside it fails to import, which is what
    sends ``get_backend("auto")`` to the NumPy twin."""
    with pytest.raises(ImportError):
        _load_binding(tmp_path)


def _assert_same_bits(a, b):
    """Equal values, dtypes and shapes, and equal bytes: zero signs too."""
    np.testing.assert_array_equal(a, b, strict=True)
    assert a.tobytes() == b.tobytes()


def _exact_hardcall_stats(g, w):
    """The hard-call contract written out: each class sum of a row is the
    Python-int sum of its calls' hi words and of their lo words on the
    shared fixed-point grid, turned into floats by the shared rule; calls
    outside 0..2 are skipped."""
    words, shift = _kernels_py.fixed_point_grid(w)
    counts = np.zeros((g.shape[0], 3), dtype=np.int64)
    sums = np.zeros((g.shape[0], 3, w.shape[1], 2), dtype=np.int64)
    for i, row in enumerate(g.tolist()):
        total = [[[0, 0] for _ in range(w.shape[1])] for _ in range(3)]
        for s, v in enumerate(row):
            if 0 <= v <= 2:
                counts[i, v] += 1
                for m, (hi, lo) in enumerate(words[s].tolist()):
                    total[v][m][0] += hi
                    total[v][m][1] += lo
        sums[i] = total
    return counts, _kernels_py.grid_sums_to_float(sums, shift)


@pytest.mark.parametrize("segment", [None, 16], ids=["one-product", "16-sample-products"])
def test_hardcall_stats_reference(request, monkeypatch, segment):
    """Both kernels against the exact sums of the grid's words, bit for
    bit, on blocks with missing and invalid calls, for widths of every
    residue mod 4 and k = 1, 3 and 10 weight columns (the C one when a
    compiler is on PATH); the twin also with its float32 products cut at
    16 samples, so every width takes several and a short last one."""
    modules = [_kernels_py] + ([request.getfixturevalue("ckernels")] if CC else [])
    if segment is not None:
        monkeypatch.setattr(_kernels_py, "_SEGMENT", segment)
    rng = np.random.default_rng(3)
    for k in (1, 3, 10):
        for n in (37, 38, 39, 40):
            g = _random_block(rng, n_snps=8, n=n)
            g[5, ::7], g[6, 1::5], g[7, 2::3] = 3, -2, 127
            w = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-3, 4, size=k)
            want_counts, want_sums = _exact_hardcall_stats(g, w)
            for kernels in modules:
                counts, sums = _hardcall(kernels, g, w)
                _assert_same_bits(counts, want_counts)
                _assert_same_bits(sums, want_sums)
            if k == 1:  # the twin's chunks that need no class-0 indicators
                clean = np.where((g >= 0) & (g <= 2), g, np.int8(0))
                _assert_same_bits(_hardcall(_kernels_py, clean, w)[1],
                                  _exact_hardcall_stats(clean, w)[1])


@pytest.mark.parametrize("n", [1, 3, 2048, 2049])
def test_hardcall_sweep_at_extreme_weights(request, n):
    """Columns of weights near 1e-200 and 1e200, and columns of one
    weight repeated, whose hi words sum to the largest magnitudes the grid
    allows when every call is in one class: both modules (the C one when
    a compiler is on PATH) give the exact sums of the grid's words, bit
    for bit.  A C build with ``-fsanitize=undefined`` would abort on a
    signed overflow of those sums."""
    modules = [_kernels_py] + ([request.getfixturevalue("ckernels")] if CC else [])
    rng = np.random.default_rng(n)
    w = np.column_stack([rng.standard_t(3, size=(n, 2)) * [1e-200, 1e200],
                         np.full(n, -1e200), np.full(n, 3e-200)])
    g = _random_block(rng, n_snps=5, n=n)
    g[0], g[1], g[2] = 0, 1, 2
    want_counts, want_sums = _exact_hardcall_stats(g, w)
    for kernels in modules:
        counts, sums = _hardcall(kernels, g, w)
        _assert_same_bits(counts, want_counts)
        _assert_same_bits(sums, want_sums)
    np.testing.assert_allclose(want_sums[0, 0, 2:], [-1e200 * n, 3e-200 * n], rtol=1e-15)


def test_fixed_point_grid_words():
    """Each weight is round(w * 2**(s + 26)) as hi * 2**26 + lo with
    0 <= lo < 2**26; a column's largest |w| lies in [2**(61 - L), 2**(62 -
    L)) hi units, L = ceil(log2 n), so n hi words sum below 2**62; an
    all-zero column gets zero words; a weight that is not finite is
    refused."""
    from fractions import Fraction

    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 300, 2048, 2049):
        w = rng.standard_t(3, size=(n, 3)) * np.array([1e-200, 1.0, 1e200])
        w[0, 1] = -np.abs(w[:, 1]).max()  # the largest |w| is a negative one
        words, shift = _kernels_py.fixed_point_grid(w)
        assert words.shape == (n, 3, 2) and words.dtype == np.int64
        hi, lo = words[..., 0], words[..., 1]
        assert ((lo >= 0) & (lo < 2**26)).all()
        bound = 2 ** (62 - (n - 1).bit_length())
        assert (np.abs(hi).max(axis=0) <= bound).all()
        assert (np.abs(w).max(axis=0) * 2.0 ** shift.astype(float) >= bound / 2).all()
        for (i, j) in ((0, 0), (n - 1, 1), (n // 2, 2)):
            exact = Fraction(w[i, j]) * Fraction(2) ** (int(shift[j]) + 26)
            assert int(hi[i, j]) * 2**26 + int(lo[i, j]) == round(exact)
    words, shift = _kernels_py.fixed_point_grid(np.zeros((5, 1)))
    assert not words.any()
    for bad in (np.nan, np.inf, -np.inf):
        w = np.ones((4, 2))
        w[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            _kernels_py.fixed_point_grid(w)
        for kernels in (_kernels_py, _installed):
            if kernels is not None:
                with pytest.raises(ValueError, match="finite"):
                    kernels.hardcall_grid(w)


@pytest.mark.parametrize("n", [300, 2000, 20_000])
def test_hardcall_sums_at_least_as_close_to_fsum_as_a_sequential_loop(n):
    """Against ``math.fsum`` of each class's weights, the grid's sums are
    no further off than sums added one at a time in sample order, in the
    largest and the median absolute error, for normal and t(3) weights and
    k = 1 and 3."""
    import math

    rng = np.random.default_rng(n)
    for law in ("normal", "t3"):
        for k in (1, 3):
            g = _random_block(rng, n_snps=6, n=n)
            w = rng.standard_normal((n, k)) if law == "normal" else rng.standard_t(3, (n, k))
            sums = _hardcall(_kernels_py, g, w)[1]
            new, old = [], []
            for i in range(len(g)):
                for v in range(3):
                    for m in range(k):
                        terms = w[g[i] == v, m]
                        exact = math.fsum(terms)
                        sequential = np.cumsum(terms)[-1] if terms.size else 0.0
                        new.append(abs(sums[i, v, m] - exact))
                        old.append(abs(sequential - exact))
            assert max(new) <= max(old), (law, k)
            assert np.median(new) <= np.median(old), (law, k)


def test_twin_sums_do_not_depend_on_the_blas(tmp_path):
    """The twin's hard-call sums are the same bytes with OpenBLAS on one
    thread or two, and with its kernels forced to Haswell, Sandybridge or
    Prescott ones, each in a fresh interpreter: its float32 products are
    exact, so no BLAS choice can move a bit."""
    import hashlib
    import os
    import sys

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pytest.skip("this NumPy does not report its BLAS build")
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        pytest.skip(f"NumPy's BLAS is {blas.get('name')!r}, not a DYNAMIC_ARCH OpenBLAS, "
                    "so OPENBLAS_CORETYPE picks no other kernels")
    code = (
        "import hashlib, numpy as np\n"
        "from gdcscan import _kernels_py as k\n"
        "rng = np.random.default_rng(5)\n"
        "h = hashlib.sha256()\n"
        "for rows, n, cols in ((256, 2000, 4), (24, 17000, 3), (40, 301, 1)):\n"
        "    g = rng.integers(0, 3, size=(rows, n)).astype(np.int8)\n"
        "    g[::3, ::97] = -1\n"
        "    grid = k.hardcall_grid(rng.standard_t(3, size=(n, cols)))\n"
        "    for part in k.hardcall_stats(g, grid):\n"
        "        h.update(part.tobytes())\n"
        "print(h.hexdigest())\n"
    )
    digests = {}
    for threads in ("1", "2"):
        for core in (None, "Haswell", "Sandybridge", "Prescott"):
            env = {key: value for key, value in os.environ.items()
                   if key not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")}
            env["OPENBLAS_NUM_THREADS"] = threads
            if core is not None:
                env["OPENBLAS_CORETYPE"] = core
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                              env.get("PYTHONPATH")]))
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=300, cwd=tmp_path)
            assert done.returncode == 0, done.stderr
            digests[threads, core] = done.stdout.strip()
    assert len(set(digests.values())) == 1, digests
    assert hashlib.sha256().hexdigest() not in digests.values()


def test_dosage_stats_reference():
    """NumPy kernel against direct sums over each row's present entries."""
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 2, size=(5, 30))
    x[0, 3] = np.nan
    x[2, ::4] = np.nan
    w = rng.standard_normal((30, 3))
    moments, sums = _kernels_py.dosage_stats(x, w)
    for i in range(5):
        ok = ~np.isnan(x[i])
        f1 = x[i][ok]
        f2 = np.abs(f1 - 1.0)
        np.testing.assert_allclose(
            moments[i],
            [(~ok).sum(), f1.sum(), f2.sum(), (f1 * f1).sum(), (f2 * f2).sum(), (f1 * f2).sum()],
            rtol=1e-12, atol=1e-12,
        )
        np.testing.assert_allclose(sums[i], [f1 @ w[ok], f2 @ w[ok]], rtol=1e-12, atol=1e-12)


def test_numpy_dosage_stats_memory_is_bounded_per_chunk():
    """The twin's dosage sweep allocates per row chunk, not per block: on a
    1024 x 4000 block (33 MB) with four weight columns its traced
    allocations peak below 16 MB."""
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 2, size=(1024, 4000))
    x[rng.random(x.shape) < 0.005] = np.nan
    w = rng.standard_normal((4000, 4))
    tracemalloc.start()
    try:
        _kernels_py.dosage_stats(x, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_numpy_hardcall_stats_memory_is_bounded_per_chunk():
    """The twin's hard-call sweep allocates per row chunk, not per block:
    on a 1024 x 4000 block (4 MB of calls) with ten weight columns, the
    grid and the sweep together peak below 8 MB of traced allocations,
    which one block-sized bool (4 MB) or intp (33 MB) temporary would
    exceed."""
    rng = np.random.default_rng(9)
    g = _random_block(rng, n_snps=1024, n=4000)
    w = rng.standard_normal((4000, 10))
    tracemalloc.start()
    try:
        _hardcall(_kernels_py, g, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_numpy_decode_holds_one_block_when_n_is_not_a_multiple_of_4():
    """The twin decodes row chunks straight into the (rows, n) result: on
    a 1024 x 2001 block (2 MB of calls) its traced allocations peak below
    1.25 blocks, which a gather of the padded rows and a copy of them
    without the pad (2 blocks) exceeds."""
    rng = np.random.default_rng(2)
    raw = rng.integers(0, 256, size=(1024, 501), dtype=np.uint8)
    tracemalloc.start()
    try:
        calls = _kernels_py.decode_packed(raw, 2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls.shape == (1024, 2001) and calls.flags.c_contiguous
    assert peak < 1.25 * calls.nbytes


@pytest.mark.parametrize("height", [1, 2, 7, 64])
def test_numpy_kernels_independent_of_block_height(height, monkeypatch):
    """A row's statistics are the same bits whether it is reduced alone or
    inside a block of any height, in row chunks of 1, 5 or 7 rows (so
    blocks straddle chunk boundaries, and 7 does not divide 64) or of the
    whole block."""
    rng = np.random.default_rng(6)
    n = 1031
    g = _random_block(rng, n_snps=64, n=n)
    x = rng.uniform(0, 2, size=(64, n))
    x[rng.random(x.shape) < 0.02] = np.nan
    w = rng.standard_normal((n, 3))
    grid = _kernels_py.hardcall_grid(w)
    hard_rows = [_kernels_py.hardcall_stats(g[i : i + 1], grid) for i in range(64)]
    dosage_rows = [_kernels_py.dosage_stats(x[i : i + 1], w) for i in range(64)]
    for chunk_rows in (1, 5, 7, 64):
        monkeypatch.setattr(_kernels_py, "_CHUNK_CALLS", chunk_rows * n)
        for start in range(0, 64, height):
            stop = start + height
            for rows, kernel, block, weights in (
                (hard_rows, _kernels_py.hardcall_stats, g, grid),
                (dosage_rows, _kernels_py.dosage_stats, x, w),
            ):
                for k, part in enumerate(kernel(block[start:stop], weights)):
                    _assert_same_bits(part, np.concatenate([r[k] for r in rows[start:stop]]))


def test_hardcall_stats_columns_match_one_column_sweeps(request):
    """Column ``j`` of a k-column sweep is the one-column sweep of that
    column, bit for bit, on both backends (the C one when a compiler is
    on PATH), for widths of every residue mod 4."""
    modules = [_kernels_py] + ([request.getfixturevalue("ckernels")] if CC else [])
    rng = np.random.default_rng(7)
    for n in (256, 257, 258, 259):
        g = _random_block(rng, n=n)
        w = rng.standard_normal((n, 3))
        counts, sums = _hardcall(_kernels_py, g, w)
        assert sums.shape == (g.shape[0], 3, 3)
        for kernels in modules:
            got = _hardcall(kernels, g, w)
            np.testing.assert_array_equal(got[0], counts)
            np.testing.assert_array_equal(got[1], sums)
            for j in range(3):
                one = _hardcall(kernels, g, w[:, j : j + 1])
                np.testing.assert_array_equal(one[0], counts)
                np.testing.assert_array_equal(sums[:, :, j], one[1][:, :, 0])


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


def test_unknown_backend_variable_logs_one_line_and_falls_back_to_auto():
    env = dict(os.environ, GDCSCAN_BACKEND="bogus")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from gdcscan import backend; print(backend.BACKEND_NAME)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == "ignoring unknown GDCSCAN_BACKEND='bogus'; using auto\n"
    assert proc.stdout == ("compiled" if get_backend("auto").IS_COMPILED else "python") + "\n"


class _CountingKernels:
    """The NumPy kernels, recording the height of every hard-call block,
    every hard-call grid made and swept, and the number of packed
    decodes."""

    def __init__(self):
        self.heights, self.made, self.swept = [], [], []
        self.decodes = 0

    def __getattr__(self, name):
        return getattr(_kernels_py, name)

    def hardcall_grid(self, w):
        self.made.append(_kernels_py.hardcall_grid(w))
        return self.made[-1]

    def hardcall_stats(self, g, grid):
        self.heights.append(g.shape[0])
        self.swept.append(grid)
        return _kernels_py.hardcall_stats(g, grid)

    def decode_packed(self, raw, n):
        self.decodes += 1
        return _kernels_py.decode_packed(raw, n)


def test_scans_with_different_kernels_run_side_by_side():
    """Two concurrent scans, each on its own kernel module: the same bytes,
    every block through the module passed in, the default left alone."""
    from gdcscan.adjust import CovariateMatrix
    from gdcscan.io import ArraySource
    from gdcscan.scan import ScanConfig, run_scan

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
        return _rows(run_scan(cfg, src, y, cov, kernels=kernels))

    with ThreadPoolExecutor(max_workers=2) as pool:
        plain = pool.submit(scan, _kernels_py)
        counted = pool.submit(scan, counting)
        plain, counted = plain.result(timeout=120), counted.result(timeout=120)
    assert len(plain) == 90
    assert plain == counted
    assert counting.heights == [16] * 5 + [10]
    assert backend.kernels is default


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_scan_makes_one_grid_that_every_block_sweeps(threads, monkeypatch):
    """A scan of six blocks, with covariates and missing calls, on one,
    two or four worker threads under a short switch interval, makes its
    hard-call grid once and passes that same object to every block's
    sweep, which leaves it as it was.  The twin's grid puts the weights
    on the fixed-point grid and cuts them into limbs once; its sweeps do
    neither.  The rows are the same bytes as those of a scan on the plain
    module."""
    import sys

    from gdcscan.io import ArraySource
    from gdcscan.scan import ScanConfig, prepare_context, run_scan

    g, y, cov = _missing_call_panel(n_snps=90)
    cfg = ScanConfig(b=3.0, block_size=16, threads=threads)
    plain = _rows(run_scan(cfg, ArraySource(g), y, cov, kernels=_kernels_py))
    made = []
    for name in ("fixed_point_grid", "_limb_matrix"):
        real = getattr(_kernels_py, name)
        monkeypatch.setattr(_kernels_py, name,
                            lambda *args, real=real, name=name: made.append(name) or real(*args))
    counting = _CountingKernels()
    results = run_scan(cfg, ArraySource(g), y, cov, kernels=counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert _rows(results) == plain
    finally:
        sys.setswitchinterval(interval)
    assert made == ["fixed_point_grid", "_limb_matrix"]
    assert sorted(counting.heights) == [10] + [16] * 5
    (grid,) = counting.made
    assert all(swept is grid for swept in counting.swept)
    fresh = _kernels_py.hardcall_grid(prepare_context(y, cov, _kernels_py).weights)
    for part, was in zip(grid, fresh):
        _assert_same_bits(np.asarray(part), np.asarray(was))


def test_scans_that_sweep_no_hard_calls_make_no_grid(monkeypatch):
    """A scan of non-integer dosages, whose rows all take the dosage sweep,
    and a column of three alleles, which takes the per-SNP path, never ask
    the kernels for a hard-call grid; a column of two alleles, whose
    integer counts take the hard-call sweep, asks once."""
    from gdcscan.io import ArraySource
    from gdcscan.premetric import GenotypeColumn
    from gdcscan.scan import ScanConfig, run_multiallelic, run_scan

    g, y, cov = _missing_call_panel(n_snps=40)
    x = np.where(g < 0, np.nan, 0.9 * g + 0.05)
    counting = _CountingKernels()
    cfg = ScanConfig(b=3.0, block_size=16)
    assert len(_rows(run_scan(cfg, ArraySource(x, kind="dosage"), y, cov,
                              kernels=counting))) == 40
    monkeypatch.setattr(backend, "kernels", counting)
    alleles = np.random.default_rng(4).choice(3, size=(len(y), 2), p=[0.6, 0.3, 0.1])
    for m in (3, 2):
        counts = np.stack([(alleles % m == a).sum(axis=1) for a in range(m)], axis=1)
        run_multiallelic(cfg, GenotypeColumn("rs1", "1", 1, counts, m=m,
                                             kind="allele_counts"), y, cov)
        assert len(counting.made) == (m == 2)


def test_scan_results_match_across_backends(ckernels):
    """Same hard-call panel, both kernel backends: byte-identical records,
    with and without covariates."""
    from gdcscan.adjust import CovariateMatrix
    from gdcscan.io import ArraySource
    from gdcscan.scan import ScanConfig, run_scan

    rng = np.random.default_rng(5)
    g = rng.integers(0, 3, size=(200, 300)).astype(np.int8)
    y = rng.standard_normal(300)
    cov = CovariateMatrix.build(
        {"intercept": np.ones(300), "age": rng.standard_normal(300)}
    )
    src = ArraySource(g, kind="hard")
    cfg = ScanConfig(b=3.0)
    for c in (None, cov):
        rows_c = _rows(run_scan(cfg, src, y, c, kernels=ckernels))
        rows_p = _rows(run_scan(cfg, src, y, c, kernels=_kernels_py))
        assert len(rows_c) == len(rows_p) == 200
        assert rows_c == rows_p


def test_dosage_scan_results_match_across_backends(ckernels):
    """Same non-integer dosage panel, both kernel backends: byte-identical
    records, with and without covariates."""
    from gdcscan.adjust import CovariateMatrix
    from gdcscan.io import ArraySource
    from gdcscan.scan import ScanConfig, run_scan

    rng = np.random.default_rng(6)
    x = rng.uniform(0, 2, size=(120, 300))
    x[rng.random(x.shape) < 0.002] = np.nan
    y = rng.standard_normal(300)
    cov = CovariateMatrix.build(
        {"intercept": np.ones(300), "age": rng.standard_normal(300)}
    )
    src = ArraySource(x, kind="dosage")
    cfg = ScanConfig(b=2.5)
    rows_c = [_rows(run_scan(cfg, src, y, c, kernels=ckernels)) for c in (None, cov)]
    rows_p = [_rows(run_scan(cfg, src, y, c, kernels=_kernels_py)) for c in (None, cov)]
    for rc, rp in zip(rows_c, rows_p):
        assert len(rc) == len(rp) == 120
        assert rc == rp


def test_packed_scan_decodes_through_passed_kernels(tmp_path, monkeypatch):
    """Every decode of a packed scan goes to the kernel module passed to
    ``run_scan``, none to ``backend.kernels``; subset views forward it."""
    from gdcscan.io import ArraySource, PackedSource, SubsetSource, write_packed
    from gdcscan.scan import ScanConfig, run_scan

    g, y, cov = _missing_call_panel(n_snps=90)
    path = str(tmp_path / "panel.geno")
    write_packed(path, g, [(f"rs{i}", "1", i) for i in range(90)],
                 [f"s{i}" for i in range(g.shape[1])])
    default, passed = _CountingKernels(), _CountingKernels()
    monkeypatch.setattr(backend, "kernels", default)
    cfg = ScanConfig(b=3.0, block_size=16)
    packed = _rows(run_scan(cfg, PackedSource(path), y, cov, kernels=passed))
    assert (passed.decodes, default.decodes) == (6, 0)
    half = np.arange(0, g.shape[1], 2)
    list(run_scan(cfg, SubsetSource(PackedSource(path), half), y[half], kernels=passed))
    assert (passed.decodes, default.decodes) == (12, 0)
    arrays = _rows(run_scan(cfg, ArraySource(g), y, cov, kernels=passed))
    assert [row.split("\t", 3)[3] for row in packed] == [row.split("\t", 3)[3] for row in arrays]


def test_missing_call_scan_matches_across_backends(ckernels, tmp_path):
    """A covariate panel with random missing calls, and dosages missing the
    same entries: the C library and the NumPy twin write byte-identical
    TSVs."""
    from gdcscan.io import ArraySource
    from gdcscan.scan import ScanConfig, run_scan, write_results

    g, y, cov = _missing_call_panel()
    for src in (ArraySource(g, kind="hard"), ArraySource(_dosages_of(g), kind="dosage")):
        blobs = []
        for kernels in (ckernels, _kernels_py):
            path = tmp_path / f"{kernels.IS_COMPILED}.tsv"
            write_results(run_scan(ScanConfig(b=2.5), src, y, cov, kernels=kernels), str(path))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


@pytest.mark.parametrize("compiled", [False, True], ids=["twin", "C"])
def test_missing_rows_with_a_degenerate_response_take_the_per_snp_code(compiled, request):
    """A row whose complete cases carry a response the covariates explain
    to round-off, while the full sample does not, is refused as
    ``degenerate_response`` by ``run_scan`` exactly as by the per-SNP
    path, for hard calls (-1) and for dosages (NaN, integer-valued or
    not), on either kernel module."""
    from gdcscan.adjust import CovariateMatrix
    from gdcscan.io import ArraySource
    from gdcscan.premetric import GenotypeColumn
    from gdcscan.scan import ScanConfig, _test_single_column, prepare_context, run_scan
    from gdcscan.simbench import draw_genotypes

    if compiled and CC is None:
        pytest.skip("no C compiler on PATH")
    kernels = request.getfixturevalue("ckernels") if compiled else _kernels_py
    rng = np.random.default_rng(5)
    n = 80
    age = rng.normal(50.0, 10.0, n)
    cov = CovariateMatrix.build({"intercept": np.ones(n), "age": age})
    g = draw_genotypes(rng, n, 0.3, 2)
    g[0, 40:] = -1
    y = age + np.where(np.arange(n) < 40, rng.normal(0.0, 1e-7, n), rng.normal(0.0, 0.3, n))
    cfg = ScanConfig(b=3.0)
    ctx = prepare_context(y, cov)
    hard_dosages = np.where(g < 0, np.nan, g.astype(float))
    for values, kind in ((g, "hard"), (hard_dosages, "dosage"), (_dosages_of(g), "dosage")):
        recs = scan_records(run_scan(cfg, ArraySource(values, kind=kind), y, cov, kernels=kernels))
        col = GenotypeColumn("snp0", ".", 0, values[0], kind=kind)
        ref = _test_single_column(cfg, ctx, col).records()[0]
        assert ref.method == recs[0].method == "error:degenerate_response", kind
        assert not recs[1].method.startswith("error:")


@pytest.mark.parametrize("compiled", [False, True], ids=["twin", "C"])
def test_missing_call_rows_with_many_covariates_take_little_scratch(compiled, request):
    """A one-thread scan of one 512-SNP block of 20 000 samples, with 12
    covariates besides the intercept and 0.2% of every row's calls
    missing, peaks below 25 MB of traced allocations on either kernel
    module.  The sums over each row's missing samples take scratch in
    proportion to those samples; summing the covariate terms over the
    present samples of every row, as one more sweep, would not."""
    from gdcscan.adjust import CovariateMatrix
    from gdcscan.io import ArraySource
    from gdcscan.scan import ScanConfig, run_scan

    if compiled and CC is None:
        pytest.skip("no C compiler on PATH")
    kernels = request.getfixturevalue("ckernels") if compiled else _kernels_py
    n, n_snps = 20_000, 512
    rng = np.random.default_rng(23)
    g = rng.integers(0, 3, size=(n_snps, n), dtype=np.int8)
    g[np.arange(n_snps)[:, None], rng.integers(0, n, size=(n_snps, n // 500))] = -1
    cov = CovariateMatrix.build(
        {"intercept": np.ones(n), **{f"pc{j}": rng.standard_normal(n) for j in range(12)}})
    y = rng.standard_normal(n)
    source = ArraySource(g, kind="hard")
    tracemalloc.start()
    try:
        results = list(run_scan(ScanConfig(block_size=n_snps), source, y, cov, kernels=kernels))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    recs = scan_records(results)
    assert len(recs) == n_snps and all(r.n_used < n for r in recs)
    assert not any(r.method.startswith("error:") for r in recs)
    assert peak < 25e6, peak / 1e6
