import hashlib
import os
import warnings

import numpy as np
import pytest

import checks
import workloads
from checks import CheckFailed
from gdcscan import cli

N = 300


@pytest.fixture(scope="module", params=[[], ["age", "sex"]], ids=["plain", "covariates"])
def scanned(request, tmp_path_factory):
    """A small scan with a few strong SNPs, so some rows carry exact p-values."""
    rng = np.random.default_rng(5)
    calls = rng.integers(0, 3, size=(60, N)).astype(np.int8)
    calls[5, :10] = -1  # one SNP on the per-SNP fallback path
    y = rng.standard_normal(N)
    for j, effect in ((3, 0.3), (5, 0.3), (9, 0.25), (20, 0.35)):
        y += effect * calls[j].clip(0)
    columns = {"y": y, "age": rng.normal(50, 10, N), "sex": (rng.random(N) < 0.5) * 1.0}
    directory = str(tmp_path_factory.mktemp("scan") / "inputs")
    workloads.write_panel(directory, calls, columns)
    out = os.path.join(directory, "out.tsv")
    argv = ["scan", "--geno", os.path.join(directory, "panel.geno"), "--pheno",
            os.path.join(directory, "pheno.tsv"), "--pheno-col", "y", "--out", out]
    if request.param:
        argv += ["--covar", ",".join(request.param)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the CLI warns that it adds an intercept
        assert cli.main(argv) == 0
    return directory, out, request.param


def _ids():
    return [f"rs{j + 1}" for j in range(60)]


def _rewrite(path, tmp_path, edit):
    header, rows = checks.read_tsv(path)
    edit(rows)
    doctored = str(tmp_path / "doctored.tsv")
    with open(doctored, "w") as fh:
        fh.write("\n".join("\t".join(r) for r in [header] + rows) + "\n")
    return doctored


def _exact_row(rows):
    return next(i for i, r in enumerate(rows) if r[checks.COL["method"]] in checks.EXACT_METHODS)


def _reference(directory, out, covariates):
    return checks.check_reference(
        out, os.path.join(directory, "panel.geno"),
        checks.read_columns(os.path.join(directory, "pheno.tsv")), covariates, N, 0,
    )


def test_untouched_output_passes(scanned):
    directory, out, covariates = scanned
    rows = checks.check_scan_output(out, _ids(), N)
    assert rows["fallback"] == 1
    assert _reference(directory, out, covariates) >= 1


def test_swapped_rows_fail_order(scanned, tmp_path):
    _, out, _ = scanned

    def swap(rows):
        rows[1], rows[2] = rows[2], rows[1]

    with pytest.raises(CheckFailed) as err:
        checks.check_scan_output(_rewrite(out, tmp_path, swap), _ids(), N)
    assert err.value.check == "order"


def test_broken_sandwich_fails(scanned, tmp_path):
    _, out, _ = scanned

    def lift(rows):
        r = rows[_exact_row(rows)]
        r[checks.COL["p_value"]] = repr(float(r[checks.COL["p_upper"]]) * 1.5 + 1e-12)

    with pytest.raises(CheckFailed) as err:
        checks.check_scan_output(_rewrite(out, tmp_path, lift), _ids(), N)
    assert err.value.check == "sandwich"


def test_changed_digest_fails(scanned, tmp_path):
    _, out, _ = scanned

    def touch(rows):
        rows[0][checks.COL["maf"]] += "1"

    digests = [hashlib.sha256(open(p, "rb").read()).hexdigest() for p in (out, _rewrite(out, tmp_path, touch))]
    checks.check_digests(digests[:1] * 3)
    with pytest.raises(CheckFailed) as err:
        checks.check_digests(digests)
    assert err.value.check == "digest"


def test_wrong_pvalue_fails_reference(scanned, tmp_path):
    directory, out, covariates = scanned

    def nudge(rows):
        for r in rows:
            if r[checks.COL["method"]] in checks.EXACT_METHODS:
                r[checks.COL["p_value"]] = repr(float(r[checks.COL["p_value"]]) * (1 + 1e-6))

    with pytest.raises(CheckFailed) as err:
        _reference(directory, _rewrite(out, tmp_path, nudge), covariates)
    assert err.value.check == "reference"


SIM = {"maf": [0.1, 0.4], "b": [0.0, 4.0], "alpha": 0.05, "replications": 10000}


def _sim_table(tmp_path, estimate):
    path = str(tmp_path / "sim.tsv")
    with open(path, "w") as fh:
        fh.write("mode\tmethod\tmaf\testimate\n")
        for maf in SIM["maf"]:
            for m in ("0.0", "4.0", "additive_F", "anova_F"):
                fh.write(f"null\t{m}\t{maf!r}\t{estimate(m, maf)!r}\n")
    return path


def test_simulation_check_passes_and_catches_doctored_cells(tmp_path):
    checks.check_simulation(_sim_table(tmp_path, lambda m, maf: 0.0503), SIM)
    with pytest.raises(CheckFailed) as err:
        checks.check_simulation(_sim_table(tmp_path, lambda m, maf: 0.08 if m == "0.0" else 0.05), SIM)
    assert err.value.check == "type1_band"
    with pytest.raises(CheckFailed) as err:
        checks.check_simulation(_sim_table(tmp_path, lambda m, maf: 0.0506 if m == "4.0" else 0.05), SIM)
    assert err.value.check == "b4_additive"
