"""The plain-C sweep kernels of ``_ckernels.c``, bound through ctypes.

Same functions, signatures and bits as the NumPy twin ``_kernels_py``:
the packed decode and two sweeps of any number of weight columns: class
counts and per-class sums of hard calls, and feature moments and feature
sums of dosages.  The hard-call sums are the twin's exact sums: this
module puts the weights on the twin's fixed-point grid
(``fixed_point_grid``), the C loop adds their int64 words, and the twin's
``grid_sums_to_float`` turns the word sums into floats.
The library is built next to this module by ``python setup.py build_ext
--inplace``; importing raises ImportError when it is missing, so the
backend falls back to the twin.  Inputs are converted as the twin
converts them, and their shapes are checked here, so the C loops only
ever see buffers of the sizes they index.  ctypes releases the GIL for
the length of every call.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

# absolute, so that a copy of this module loads beside a library built elsewhere
from gdcscan._kernels_py import fixed_point_grid, grid_sums_to_float

IS_COMPILED = True

try:
    _lib = np.ctypeslib.load_library("_ckernels", os.path.dirname(os.path.abspath(__file__)))
except OSError as exc:
    raise ImportError(f"C kernels not built ({exc}); see setup.py") from exc


def _arr(dtype, ndim):
    return np.ctypeslib.ndpointer(dtype=dtype, ndim=ndim, flags="C_CONTIGUOUS")


_i64 = ctypes.c_int64
_lib.decode_packed.argtypes = [_arr(np.uint8, 2), _i64, _i64, _i64, _arr(np.int8, 2)]
_lib.hardcall_sweep.argtypes = [
    _arr(np.int8, 2), _i64, _i64, _arr(np.int64, 3), _i64,
    _arr(np.int64, 2), _arr(np.int64, 4),
]
_lib.dosage_sweep.argtypes = [
    _arr(np.float64, 2), _i64, _i64, _arr(np.float64, 2), _i64,
    _arr(np.float64, 2), _arr(np.float64, 3),
]
for _f in (_lib.decode_packed, _lib.hardcall_sweep, _lib.dosage_sweep):
    _f.restype = None


def _block(a, dtype, what: str) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    if a.ndim != 2:
        raise ValueError(f"{what} must be 2-D, got shape {a.shape}")
    return a


def _weights(w, n: int) -> np.ndarray:
    w = np.ascontiguousarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != n:
        raise ValueError("weights must be (n, k) with n the block width")
    return w


def decode_packed(raw: np.ndarray, n: int) -> np.ndarray:
    """Unpack 2-bit genotype codes into int8 calls; see the NumPy twin."""
    raw = _block(raw, np.uint8, "packed rows")
    n = int(n)
    if n < 0 or raw.shape[1] * 4 < n:
        raise ValueError("packed rows too short for the declared sample count")
    out = np.empty((raw.shape[0], n), dtype=np.int8)
    _lib.decode_packed(raw, raw.shape[0], raw.shape[1], n, out)
    return out


def hardcall_stats(g: np.ndarray, w: np.ndarray):
    """(counts (n_snps, 3) int64, sums (n_snps, 3, k) float64) of a
    hard-call block and every column of the weights ``w`` (n, k), in one
    sweep of their words on the fixed-point grid; see the NumPy twin."""
    g = _block(g, np.int8, "hard calls")
    n_snps, n = g.shape
    w = _weights(w, n)
    words, shift = fixed_point_grid(w)
    counts = np.empty((n_snps, 3), dtype=np.int64)
    sums = np.empty((n_snps, 3, w.shape[1], 2), dtype=np.int64)
    _lib.hardcall_sweep(g, n_snps, n, words, w.shape[1], counts, sums)
    return counts, grid_sums_to_float(sums, shift)


def dosage_stats(x: np.ndarray, w: np.ndarray):
    """(moments (n_snps, 6), sums (n_snps, 2, k)) float64 of a dosage block
    and every column of the weights ``w`` (n, k), in one sweep; see the twin."""
    x = _block(x, np.float64, "dosages")
    n_snps, n = x.shape
    w = _weights(w, n)
    moments = np.empty((n_snps, 6), dtype=np.float64)
    sums = np.empty((n_snps, 2, w.shape[1]), dtype=np.float64)
    _lib.dosage_sweep(x, n_snps, n, w, w.shape[1], moments, sums)
    return moments, sums
