"""End-to-end command-line runs on small synthetic inputs."""

import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import gdcscan
from gdcscan import cli
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


def test_scan_command_allow_missing_samples(panel, capsys):
    geno, pheno, g, y, tmp_path = panel
    pruned = str(tmp_path / "pheno_pruned.tsv")
    with open(pheno) as src, open(pruned, "w") as dst:
        for i, line in enumerate(src):
            if i != 3:  # drop one sample
                dst.write(line)
    out = str(tmp_path / "res_pruned.tsv")
    with pytest.raises(SystemExit) as exit_info:
        main([
            "scan", "--geno", geno, "--pheno", pruned, "--pheno-col", "trait",
            "--out", out,
        ])
    assert exit_info.value.code == 2
    assert "sample mismatch" in capsys.readouterr().err
    rc = main([
        "scan", "--geno", geno, "--pheno", pruned, "--pheno-col", "trait",
        "--out", out, "--allow-missing-samples",
    ])
    assert rc == 0
    assert read_results(out)[0].n_used == 149


def test_scan_command_unknown_column(panel):
    geno, pheno, g, y, tmp_path = panel
    with pytest.raises(SystemExit) as exit_info:
        main([
            "scan", "--geno", geno, "--pheno", pheno, "--pheno-col", "nope",
            "--out", str(tmp_path / "x.tsv"),
        ])
    assert exit_info.value.code == 2


def _bad_dosage_file(tmp_path):
    path = str(tmp_path / "bad.dosage.tsv")
    with open(path, "w") as fh:
        fh.write("sample_id\trs0\n" + "".join(f"ind{j}\t{j % 3}\n" for j in range(149)))
        fh.write("ind149\t3.0\n")
    return path


def _unparsable_field(path, lineno, column, value):
    """A copy of the table at ``path`` whose field in ``column`` on line
    ``lineno`` reads ``value``."""
    lines = pathlib.Path(path).read_text().split("\n")
    fields = lines[lineno - 1].split("\t")
    fields[lines[0].split("\t").index(column)] = value
    lines[lineno - 1] = "\t".join(fields)
    copy = pathlib.Path(path).with_name("unparsable-" + pathlib.Path(path).name)
    copy.write_text("\n".join(lines))
    return str(copy)


def _dosage_file(tmp_path):
    path = str(tmp_path / "dosage.tsv")
    with open(path, "w") as fh:
        fh.write("sample_id\trs0\trs1\n" + "".join(
            f"ind{j}\t{j % 3}\t{(j + 1) % 3}\n" for j in range(150)))
    return path


def _bad_position(geno, pos):
    sidecar = pathlib.Path(geno + ".variants.tsv")
    sidecar.write_text(sidecar.read_text().replace("rs2\t1\t20\n", f"rs2\t1\t{pos}\n"))
    return geno


def _empty_snp_id(geno):
    sidecar = pathlib.Path(geno + ".variants.tsv")
    sidecar.write_text(sidecar.read_text().replace("rs2\t1\t", "\t1\t"))
    return geno


def _padded_sample_id(geno):
    samples = pathlib.Path(geno + ".samples.txt")
    samples.write_text(samples.read_text().replace("\nind1\n", "\n ind1\n"))
    return geno


def _trait_of_age(pheno, trait):
    """A copy of the phenotype table at ``pheno`` whose trait column is
    ``trait(age)``."""
    lines = pathlib.Path(pheno).read_text().splitlines(keepends=True)
    rows = [line.split("\t") for line in lines[1:]]
    copy = pathlib.Path(pheno).with_name("trait-of-age.tsv")
    copy.write_text(lines[0] + "".join(
        f"{sid}\t{trait(float(age))!r}\t{age}\t{sex}" for sid, _, age, sex in rows))
    return str(copy)


_SCAN = ["scan", "--pheno-col", "trait"]
_SIM = ["simulate", "--mode", "null", "--n", "40", "--replications", "20", "--b", "3"]
_INPUT_ERRORS = {
    "missing geno file": (lambda t, geno, pheno: _SCAN + [
        "--geno", str(t / "none.geno"), "--pheno", pheno], "none.geno"),
    "sample mismatch": (lambda t, geno, pheno: _SCAN + [
        "--geno", geno, "--pheno", str(t / "pruned.tsv")], "sample mismatch"),
    "unknown covariate": (lambda t, geno, pheno: _SCAN + [
        "--geno", geno, "--pheno", pheno, "--covar", "age,height"],
        "covariate column 'height'"),
    "dosage out of range": (lambda t, geno, pheno: _SCAN + [
        "--geno", _bad_dosage_file(t), "--geno-format", "dosage-tsv", "--pheno", pheno],
        r"bad.dosage.tsv: rs0: dosage out of \[0, 2\], got 3.0"),
    "unparsable phenotype field": (lambda t, geno, pheno: _SCAN + [
        "--geno", geno, "--pheno", _unparsable_field(pheno, 4, "age", "4o"),
        "--covar", "age"],
        r"unparsable-pheno\.tsv:4: column age: could not convert string to float: '4o'$"),
    "unparsable dosage field": (lambda t, geno, pheno: _SCAN + [
        "--geno", _unparsable_field(_dosage_file(t), 7, "rs1", "1..5"),
        "--geno-format", "dosage-tsv", "--pheno", pheno],
        r"unparsable-dosage\.tsv:7: column rs1: could not convert string to float: '1\.\.5'$"),
    "infinite phenotype field": (lambda t, geno, pheno: _SCAN + [
        "--geno", geno, "--pheno", _unparsable_field(pheno, 5, "trait", "inf")],
        r"unparsable-pheno\.tsv:5: column trait: not NA or a finite number: 'inf'$"),
    "NaN phenotype field": (lambda t, geno, pheno: _SCAN + [
        "--geno", geno, "--pheno", _unparsable_field(pheno, 6, "trait", "nan")],
        r"unparsable-pheno\.tsv:6: column trait: not NA or a finite number: 'nan'$"),
    "NaN dosage field": (lambda t, geno, pheno: _SCAN + [
        "--geno", _unparsable_field(_dosage_file(t), 8, "rs0", "NaN"),
        "--geno-format", "dosage-tsv", "--pheno", pheno],
        r"unparsable-dosage\.tsv:8: column rs0: not NA or a finite number: 'NaN'$"),
    "digit group in a covariate field": (lambda t, geno, pheno: _SCAN + [
        "--geno", geno, "--pheno", _unparsable_field(pheno, 4, "age", "4_0"),
        "--covar", "age"],
        r"unparsable-pheno\.tsv:4: column age: not NA or a finite number: '4_0'$"),
    "padded covariate field": (lambda t, geno, pheno: _SCAN + [
        "--geno", geno, "--pheno", _unparsable_field(pheno, 4, "age", " 40"),
        "--covar", "age"],
        r"unparsable-pheno\.tsv:4: column age: not NA or a finite number: ' 40'$"),
    "bad sidecar position": (lambda t, geno, pheno: _SCAN + [
        "--geno", _bad_position(geno, "x20"), "--pheno", pheno],
        r"panel\.geno\.variants\.tsv:3: position 'x20' is not an integer"),
    "digit group in a sidecar position": (lambda t, geno, pheno: _SCAN + [
        "--geno", _bad_position(geno, "2_0"), "--pheno", pheno],
        r"panel\.geno\.variants\.tsv:3: position '2_0' is not an integer"),
    "padded sidecar position": (lambda t, geno, pheno: _SCAN + [
        "--geno", _bad_position(geno, " 20 "), "--pheno", pheno],
        r"panel\.geno\.variants\.tsv:3: position ' 20 ' is not an integer"),
    "empty SNP ID in the sidecar": (lambda t, geno, pheno: _SCAN + [
        "--geno", _empty_snp_id(geno), "--pheno", pheno],
        r"panel\.geno\.variants\.tsv:3: expected snp_id<TAB>chrom<TAB>pos$"),
    "padded ID in the samples file": (lambda t, geno, pheno: _SCAN + [
        "--geno", _padded_sample_id(geno), "--pheno", pheno],
        r"panel\.geno\.samples\.txt:2: sample ID ' ind1' is empty or padded$"),
    "constant phenotype": (lambda t, geno, pheno: _SCAN + [
        "--geno", geno, "--pheno", _trait_of_age(pheno, lambda age: 0.1)],
        "degenerate response"),
    "phenotype inside the covariate span": (lambda t, geno, pheno: _SCAN + [
        "--geno", geno, "--pheno", _trait_of_age(pheno, lambda age: 0.1 * age + 0.3),
        "--covar", "age"], "degenerate response"),
    "b out of range": (lambda t, geno, pheno: _SCAN + [
        "--geno", geno, "--pheno", pheno, "--b", "5"], "b must lie in"),
    "zero noise": (lambda t, geno, pheno: _SIM + ["--noise-sd", "0"], "noise_sd"),
    "MAF above 0.5": (lambda t, geno, pheno: _SIM + ["--maf", "0.1,0.7"],
                      r"MAF must lie in \(0, 0.5\], got 0.7"),
    "no MAF": (lambda t, geno, pheno: _SIM + ["--maf", ""], "at least one MAF"),
    "no b": (lambda t, geno, pheno: _SIM[:-2] + ["--b", ""], "one b value"),
    "unparsable MAF": (lambda t, geno, pheno: _SIM + ["--maf", "0.1,x"], "'x'"),
    "no h in power mode": (lambda t, geno, pheno: [
        "simulate", "--mode", "power", "--n", "40", "--replications", "20", "--b", "3",
        "--h-grid", ""], "at least one h value"),
    "repeated b": (lambda t, geno, pheno: _SIM[:-2] + ["--b", "2,3,3.0"],
                   "b = 3 is given more than once"),
    "NaN h in power mode": (lambda t, geno, pheno: [
        "simulate", "--mode", "power", "--n", "40", "--replications", "20", "--b", "3",
        "--h-grid", "0.5,nan"], "h must be finite, got nan"),
    "infinite h in power mode": (lambda t, geno, pheno: [
        "simulate", "--mode", "power", "--n", "40", "--replications", "20", "--b", "3",
        "--h-grid", "inf"], "h must be finite, got inf"),
}


@pytest.mark.parametrize("case", sorted(_INPUT_ERRORS))
def test_input_errors_exit_2_with_one_line(panel, capsys, case):
    """Every input error of either subcommand ends the same way: exit code
    2, one error line on stderr, no output file and no partial file."""
    geno, pheno, g, y, tmp_path = panel
    with open(pheno) as src, open(tmp_path / "pruned.tsv", "w") as dst:
        dst.writelines(line for i, line in enumerate(src) if i != 3)
    build_argv, message = _INPUT_ERRORS[case]
    argv = build_argv(tmp_path, geno, pheno)
    out = tmp_path / "out.tsv"
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(out)])
    assert exit_info.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"gdcscan {argv[0]}: error: ")
    assert re.search(message, lines[0]), lines[0]
    assert not out.exists() and not (tmp_path / "out.tsv.partial").exists()


def test_panel_changed_during_scan_exits_2_with_one_line(panel, capsys, monkeypatch):
    """A packed file that changes after it was opened fails when its blocks
    are read, inside the results write, and ends as an input error does."""
    geno, pheno, g, y, tmp_path = panel
    opened = cli.open_genotypes

    def open_then_append(path, fmt):
        source = opened(path, fmt)
        with open(path, "ab") as fh:
            fh.write(b"13 more bytes")
        return source

    monkeypatch.setattr(cli, "open_genotypes", open_then_append)
    out = tmp_path / "out.tsv"
    with pytest.raises(SystemExit) as exit_info:
        main(["scan", "--geno", geno, "--pheno", pheno, "--pheno-col", "trait",
              "--out", str(out)])
    assert exit_info.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("gdcscan scan: error: ")
    assert lines[0].endswith("changed since it was opened"), lines[0]
    assert not out.exists() and not (tmp_path / "out.tsv.partial").exists()


def test_input_error_in_a_fresh_process_prints_no_traceback(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(pathlib.Path(gdcscan.__file__).parents[1]), env.get("PYTHONPATH", "")])
    out = tmp_path / "x.tsv"
    proc = subprocess.run(
        [sys.executable, "-m", "gdcscan.cli", "simulate", "--mode", "null",
         "--noise-sd", "0", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "gdcscan simulate: error: noise_sd must be positive and finite, and beta finite"]
    assert not out.exists()


def test_packed_scan_memory_does_not_grow_with_snp_count(tmp_path):
    """A packed scan keeps no per-SNP table: the traced peak of ``main``
    at 20 480 SNPs exceeds the one at 2 048 SNPs by at most 6 bytes per
    extra SNP (n = 64).  Both counts are whole 1 024-row blocks, so a
    cost per row of a block in flight reads the same at both.  Even one
    8-byte sidecar offset per SNP does not fit, nor does one
    ``[snp_id, chrom, pos]`` row per SNP (about 175 bytes)."""
    rng = np.random.default_rng(3)
    n = 64
    ids = [f"ind{j}" for j in range(n)]
    pheno = tmp_path / "pheno.tsv"
    pheno.write_text("sample_id\ttrait\n" + "".join(
        f"{sid}\t{v!r}\n" for sid, v in zip(ids, rng.standard_normal(n).tolist())))

    def peak(n_snps):
        geno = str(tmp_path / f"p{n_snps}.geno")
        write_packed(geno, rng.integers(0, 3, size=(n_snps, n)),
                     [(f"rs{i}", "1", 1000 + i) for i in range(n_snps)], ids)
        tracemalloc.start()
        try:
            main(["scan", "--geno", geno, "--pheno", str(pheno), "--pheno-col", "trait",
                  "--out", str(tmp_path / "out.tsv")])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2048)  # first calls fill caches of their own
    small, large = peak(2048), peak(20_480)
    assert large - small <= 6 * 18_432, (small, large)


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
