"""Kernel backend selection.

The scan's inner loops live in a small plain-C library, ``_ckernels.c``,
bound through ctypes by ``_kernels``, with a pure-NumPy twin,
``_kernels_py``; both give the same bits.  The library is optional: it is
built in place by ``python setup.py build_ext --inplace``.  ``kernels`` is
the default module, chosen once at import: the C one when its library is
built, unless the ``GDCSCAN_BACKEND`` environment variable (``auto`` /
``compiled`` / ``python``) says otherwise.  A scan takes its kernel module
as an argument instead (``run_scan(..., kernels=get_backend("python"))``);
when none is given it reads ``kernels`` as the scan starts.  Nothing swaps
``kernels`` at run time, so scans with different modules can run side by
side.
"""

from __future__ import annotations

import logging
import os

from . import _kernels_py


def get_backend(name: str = "auto"):
    """Return the kernel module for ``name``.

    ``compiled`` raises ImportError when the C library is not built; ``auto``
    silently falls back to the NumPy implementation.
    """
    if name == "python":
        return _kernels_py
    if name in ("auto", "compiled"):
        try:
            from . import _kernels  # noqa: PLC0415

            return _kernels
        except ImportError:
            if name == "compiled":
                raise
            return _kernels_py
    raise ValueError(f"unknown backend {name!r} (expected auto/compiled/python)")


_requested = os.environ.get("GDCSCAN_BACKEND", "auto")
if _requested not in ("auto", "compiled", "python"):
    logging.getLogger("gdcscan").warning(
        "ignoring unknown GDCSCAN_BACKEND=%r; using auto", _requested)
    _requested = "auto"

kernels = get_backend(_requested)

BACKEND_NAME = "compiled" if kernels.IS_COMPILED else "python"
