"""What importing the package loads, checked in fresh interpreters.

The test session itself has imported ``scipy.integrate`` and
``scipy.stats`` long before these tests run, so each check starts its own
``python -c`` process with only ``src`` on the path.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

HEAVY_SCIPY = ("scipy.stats", "scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["gdcscan", "gdcscan.cli"])
def test_import_loads_no_heavy_scipy(module):
    out = _run(
        f"import sys, {module}\n"
        f"for m in sorted(sys.modules):\n"
        f"    if m.startswith({HEAVY_SCIPY!r}):\n"
        f"        print(m)\n"
    )
    assert out == ""


def test_quadrature_imports_on_first_use():
    out = _run(
        "import sys\n"
        "from gdcscan.nulldist import weighted_chisq_tail\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "print(repr(weighted_chisq_tail([0.5, 0.2, -0.1])))\n"
        "assert 'scipy.integrate' in sys.modules\n"
    )
    assert float(out) == 0.8735999781365797
