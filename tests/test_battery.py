"""The output battery's promise: within one run, every scan cell gives the
same bytes for block sizes 1, 7 and 1024, for 1 and 2 threads, and on the
C kernels as on the NumPy twin where a C compiler is on PATH (the C library
is built from the package's source, as in ``test_backend``); every
simulation cell gives the same bytes whether the bounds decide the
replications they can or the exact p-value decides them all."""

import numpy as np
import pytest

import battery
from gdcscan import simbench
from gdcscan.backend import get_backend
from test_backend import CC, ckernels  # noqa: F401  (the fixture)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return battery.write_inputs(tmp_path_factory.mktemp("battery"))


@pytest.fixture(scope="module")
def runs(request):
    """(block size, threads, kernels) of each scan of a cell; the first is
    the reference.  Threads share out blocks, so the two-thread run takes
    small ones (1024 holds the whole panel); it runs on the C kernels
    where they can be built, so that one more scan covers them too."""
    twin = get_backend("python")
    last = request.getfixturevalue("ckernels") if CC else twin
    return [(1024, 1, twin), (1, 1, twin), (7, 2, last)]


@pytest.mark.parametrize("cell", battery.CELLS, ids=battery.cell_name)
def test_cell_bytes_do_not_depend_on_blocks_threads_or_kernels(cell, inputs, runs, tmp_path):
    base, *others = battery.cell_digests(cell, inputs, tmp_path / "out.tsv", runs)
    for run, digest in zip(runs[1:], others):
        assert digest == base, run


@pytest.mark.parametrize("cell", battery.SIM_CELLS, ids=battery.sim_cell_name)
def test_simulation_cell_bytes_do_not_depend_on_the_bounds(cell, tmp_path, monkeypatch):
    base = battery.sim_cell_digest(cell, tmp_path / "table.tsv")
    # NaN bounds decide nothing: every replication takes the exact p-value
    monkeypatch.setattr(simbench, "_f_bounds",
                        lambda l1, *args: (np.full(l1.shape, np.nan),) * 2)
    assert battery.sim_cell_digest(cell, tmp_path / "table.tsv") == base
