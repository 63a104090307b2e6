"""The output battery: 48 scans of one 400-sample x 300-SNP panel and
4 simulation tables.

    PYTHONPATH=src python tests/battery.py [--threads N] [--workdir DIR]

writes the panel from fixed seeds and prints one line per cell, its name
and the SHA-256 of its results TSV or table. The scan cells cross packed
calls and a dosage TSV (every 7th SNP integer-valued), complete and 1%
missing entries, no covariates and ``--covar age,sex``, b = 0, 3 and 4,
and screened and ``--no-screen`` scans. The simulation cells are
``gdcscan simulate`` null and power tables (b = 0, 2, 3 and 4 with the
competitors) at alpha 0.05 and 1e-6. ``GDCSCAN_BACKEND`` picks the kernel
module, as for the ``gdcscan`` command. Two source trees give the same
bytes when the outputs of this script, run with each tree's ``src`` on
``PYTHONPATH``, are identical.

Each cell is scanned as ``gdcscan scan`` scans it: its command line goes
through the CLI's parser and input reading, and the records through
``write_results``. :func:`cell_digests` can also set the block size,
which has no command-line option, and the kernel module.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import os
import pathlib
import tempfile

import numpy as np

from gdcscan import cli
from gdcscan.io import write_dosage_tsv, write_packed
from gdcscan.scan import run_scan, write_results

N_SAMPLES, N_SNPS = 400, 300
CELLS = list(itertools.product(
    ("packed", "dosage-tsv"), (0.0, 0.01), ("", "age,sex"), (0.0, 3.0, 4.0), (False, True),
))

SIM_CELLS = list(itertools.product(("null", "power"), (0.05, 1e-6)))


def cell_name(cell) -> str:
    fmt, missing, covar, b, no_screen = cell
    return "-".join([fmt, f"miss{missing:g}", covar.replace(",", "+") or "nocov",
                     f"b{b:g}", "noscreen" if no_screen else "screen"])


def write_inputs(directory) -> pathlib.Path:
    """Write the battery's genotype files and phenotype table into
    ``directory`` and return it."""
    d = pathlib.Path(directory)
    rng = np.random.default_rng(2024)
    maf = rng.uniform(0.02, 0.5, N_SNPS)
    g = rng.binomial(2, maf[:, None], size=(N_SNPS, N_SAMPLES)).astype(np.int8)
    dosage = np.clip(g + rng.uniform(-0.4, 0.4, g.shape), 0.0, 2.0)
    dosage[::7] = g[::7]
    age = rng.integers(20, 70, N_SAMPLES)
    sex = rng.integers(0, 2, N_SAMPLES)
    y = (0.03 * age + 0.5 * sex + rng.standard_normal(N_SAMPLES)
         + 0.6 * (g[::25] - 2 * maf[::25, None]).sum(axis=0))
    missing = rng.random(g.shape) < 0.01
    samples = [f"s{j}" for j in range(N_SAMPLES)]
    snps = [f"rs{i}" for i in range(N_SNPS)]
    variants = [(snp, "1", 1000 + 10 * i) for i, snp in enumerate(snps)]
    for tag, mask in (("0", np.zeros_like(missing)), ("0.01", missing)):
        write_packed(str(d / f"miss{tag}.geno"), np.where(mask, -1, g), variants, samples)
        write_dosage_tsv(str(d / f"miss{tag}.dosage.tsv"), np.where(mask, np.nan, dosage).T,
                         snps, samples)
    (d / "pheno.tsv").write_text("sample_id\ttrait\tage\tsex\n" + "".join(
        f"{s}\t{v!r}\t{a}\t{x}\n" for s, v, a, x in zip(samples, y.tolist(), age, sex)))
    return d


def cell_argv(cell, inputs) -> list:
    """The ``gdcscan scan`` arguments of one cell, without ``--out``."""
    fmt, missing, covar, b, no_screen = cell
    suffix = ".geno" if fmt == "packed" else ".dosage.tsv"
    argv = ["scan", "--geno", str(pathlib.Path(inputs) / f"miss{missing:g}{suffix}"),
            "--geno-format", fmt, "--pheno", str(pathlib.Path(inputs) / "pheno.tsv"),
            "--pheno-col", "trait", "--b", f"{b:g}"]
    if covar:
        argv += ["--covar", covar]
    if no_screen:
        argv.append("--no-screen")
    return argv


def cell_digests(cell, inputs, out, runs=((None, 1, None),)) -> list:
    """SHA-256 of the results TSV of one cell, written to ``out``, for
    each run in ``runs``: (block size, None for the default; threads;
    kernel module, None for ``backend.kernels``).  The inputs are read
    once for all runs."""
    args = cli.build_parser().parse_args(cell_argv(cell, inputs) + ["--out", str(out)])
    config, source, y, covariates = cli._scan_inputs(args)
    digests = []
    for block_size, threads, kernels in runs:
        run = dataclasses.replace(config, block_size=block_size or config.block_size,
                                  threads=threads)
        write_results(run_scan(run, source, y, covariates, kernels=kernels), str(out))
        digests.append(hashlib.sha256(pathlib.Path(out).read_bytes()).hexdigest())
    return digests


def sim_cell_name(cell) -> str:
    mode, alpha = cell
    return f"simulate-{mode}-alpha{alpha:g}"


def sim_cell_argv(cell) -> list:
    """The ``gdcscan simulate`` arguments of one cell, without ``--out``."""
    mode, alpha = cell
    argv = ["simulate", "--mode", mode, "--n", "200", "--maf", "0.1,0.3", "--b", "0,2,3,4",
            "--alpha", f"{alpha:g}", "--replications", "2000", "--seed", "7"]
    if mode == "power":
        argv += ["--beta", "3", "--h-grid", "0,0.5,1"]
    return argv


def sim_cell_digest(cell, out) -> str:
    """SHA-256 of the table of one simulation cell, written to ``out``."""
    assert cli.main(sim_cell_argv(cell) + ["--out", str(out)]) == 0
    return hashlib.sha256(pathlib.Path(out).read_bytes()).hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--workdir", default=None,
                        help="directory for the inputs and outputs (default: a temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(args.workdir or tmp)
        os.makedirs(work, exist_ok=True)
        inputs = write_inputs(work)
        for cell in CELLS:
            (digest,) = cell_digests(cell, inputs, work / "out.tsv", [(None, args.threads, None)])
            print(f"{cell_name(cell)}\t{digest}")
        for cell in SIM_CELLS:
            print(f"{sim_cell_name(cell)}\t{sim_cell_digest(cell, work / 'table.tsv')}")


if __name__ == "__main__":
    main()
