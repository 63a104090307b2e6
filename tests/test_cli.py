"""End-to-end command-line runs on small synthetic inputs."""

import pathlib
import warnings

import numpy as np
import pytest

from gdcscan.cli import main
from gdcscan.io import write_packed, write_dosage_tsv
from gdcscan.simbench import draw_genotypes
from tsv_oracle import read_results


@pytest.fixture
def panel(tmp_path):
    rng = np.random.default_rng(7)
    n, n_snps = 150, 40
    g = draw_genotypes(rng, n, 0.3, n_snps)
    geno = str(tmp_path / "panel.geno")
    write_packed(
        geno, g, [(f"rs{i}", "1", i * 10) for i in range(n_snps)],
        [f"ind{j}" for j in range(n)],
    )
    y = rng.standard_normal(n) + 2.5 * (g[4] == 2)
    pheno = str(tmp_path / "pheno.tsv")
    with open(pheno, "w") as fh:
        fh.write("sample_id\ttrait\tage\tsex\n")
        for j in range(n):
            fh.write(
                f"ind{j}\t{y[j]:.10g}\t{rng.integers(20, 60)}\t{rng.integers(0, 2)}\n"
            )
    return geno, pheno, g, y, tmp_path


def test_scan_command_packed(panel):
    geno, pheno, g, y, tmp_path = panel
    out = str(tmp_path / "res.tsv")
    rc = main([
        "scan", "--geno", geno, "--pheno", pheno, "--pheno-col", "trait",
        "--b", "2.5", "--out", out,
    ])
    assert rc == 0
    recs = read_results(out)
    assert len(recs) == 40
    assert recs[4].p_value is not None and recs[4].p_value < 0.05


def test_scan_command_with_covariates(panel):
    geno, pheno, g, y, tmp_path = panel
    out = str(tmp_path / "res_cov.tsv")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([
            "scan", "--geno", geno, "--pheno", pheno, "--pheno-col", "trait",
            "--covar", "age,sex", "--out", out, "--no-screen", "--threads", "2",
        ])
    assert rc == 0
    # --covar always adds the intercept; the CLI does not warn about it
    assert not [w for w in caught if issubclass(w.category, UserWarning)]
    recs = read_results(out)
    assert all(r.p_value is not None for r in recs)


def test_scan_command_dosage(panel):
    geno, pheno, g, y, tmp_path = panel
    dos = str(tmp_path / "panel.dosage.tsv")
    write_dosage_tsv(
        dos, g.T.astype(float), [f"rs{i}" for i in range(g.shape[0])],
        [f"ind{j}" for j in range(g.shape[1])],
    )
    out = str(tmp_path / "res_dos.tsv")
    rc = main([
        "scan", "--geno", dos, "--geno-format", "dosage-tsv",
        "--pheno", pheno, "--pheno-col", "trait", "--out", out,
    ])
    assert rc == 0
    assert len(read_results(out)) == 40


def test_scan_command_allow_missing_samples(panel):
    geno, pheno, g, y, tmp_path = panel
    pruned = str(tmp_path / "pheno_pruned.tsv")
    with open(pheno) as src, open(pruned, "w") as dst:
        for i, line in enumerate(src):
            if i != 3:  # drop one sample
                dst.write(line)
    out = str(tmp_path / "res_pruned.tsv")
    with pytest.raises(ValueError, match="sample mismatch"):
        main([
            "scan", "--geno", geno, "--pheno", pruned, "--pheno-col", "trait",
            "--out", out,
        ])
    rc = main([
        "scan", "--geno", geno, "--pheno", pruned, "--pheno-col", "trait",
        "--out", out, "--allow-missing-samples",
    ])
    assert rc == 0
    assert read_results(out)[0].n_used == 149


def test_scan_command_unknown_column(panel):
    geno, pheno, g, y, tmp_path = panel
    with pytest.raises(SystemExit):
        main([
            "scan", "--geno", geno, "--pheno", pheno, "--pheno-col", "nope",
            "--out", str(tmp_path / "x.tsv"),
        ])


def test_simulate_command(tmp_path):
    out = str(tmp_path / "sim.tsv")
    rc = main([
        "simulate", "--mode", "null", "--n", "80", "--maf", "0.3",
        "--b", "2,3", "--replications", "200", "--seed", "5", "--out", out,
        "--no-competitors",
    ])
    assert rc == 0
    lines = pathlib.Path(out).read_text().splitlines()
    assert len(lines) == 3  # header + 2 methods
