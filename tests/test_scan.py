"""Scan pipeline: screening, determinism, degenerate cases, persistence."""

import dataclasses
import logging
import math
import os

import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gdcscan.adjust import CovariateMatrix, column_features, residualize
from gdcscan.gdc import Sample, standardized_statistic
from gdcscan.io import (
    PACKED_MAGIC,
    PACKED_MODE_SNP_MAJOR,
    ArraySource,
    Block,
    PackedSource,
    samples_path,
    variants_path,
)
from gdcscan import scan as scan_module
from gdcscan.nulldist import (
    NullSpectrum, NumericsError, exact_pvalue, exact_pvalues_batch, spectrum_from_features,
)
from gdcscan.premetric import GenotypeColumn
from gdcscan.scan import (
    ScanConfig,
    ScanRecord,
    record_row,
    run_multiallelic,
    run_scan,
    write_results,
)
from gdcscan.simbench import draw_genotypes
from tsv_oracle import block_result, read_results, record_row as oracle_row, scan_records


@pytest.fixture
def small_panel():
    rng = np.random.default_rng(100)
    g = draw_genotypes(rng, 400, 0.3, 60)
    y = rng.standard_normal(400)
    y += 1.5 * (g[11] == 2)  # one planted signal
    return g, y


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(b=4.5)
    with pytest.raises(ValueError):
        ScanConfig(screen_threshold=1e-40)  # threshold below floor
    with pytest.raises(ValueError):
        ScanConfig(threads=0)
    ScanConfig()


def test_scan_matches_direct_library_computation(small_panel):
    g, y = small_panel
    cfg = ScanConfig(b=2.5, no_screen=True)
    recs = scan_records(run_scan(cfg, ArraySource(g, kind="hard"), y))
    rng = np.random.default_rng(0)
    for i in rng.choice(len(recs), 8, replace=False):
        s = Sample.from_arrays(g[i], y)
        k, _ = standardized_statistic(2.5, s)
        assert recs[i].stat == pytest.approx(k, rel=1e-12)
        u = column_features(2.5, GenotypeColumn("x", ".", 0, g[i]))
        spec = spectrum_from_features(u)
        assert recs[i].p_value == pytest.approx(
            exact_pvalue(spec, recs[i].stat), rel=1e-10
        )


def test_screening_consistency(small_panel):
    """Screened and exhaustive scans agree on every SNP the screen lets
    through, and screened-out SNPs really are above the threshold."""
    g, y = small_panel
    src = ArraySource(g, kind="hard")
    fast = scan_records(run_scan(ScanConfig(b=3.0), src, y))
    full = scan_records(run_scan(ScanConfig(b=3.0, no_screen=True), src, y))
    m_thresh = ScanConfig().screen_threshold
    for a, b in zip(fast, full):
        assert a.p_lower == b.p_lower
        if a.method == "screened_out_high":
            assert b.p_value >= m_thresh or b.p_value >= a.p_lower
            assert a.p_value is None
        else:
            assert a.p_value == b.p_value
            assert a.method == b.method
    # the planted SNP must be evaluated exactly and be significant
    assert fast[11].method == "exact_appell"
    assert fast[11].p_value < 1e-4


def test_no_snp_below_threshold_screened_out(small_panel):
    g, y = small_panel
    src = ArraySource(g, kind="hard")
    full = scan_records(run_scan(ScanConfig(b=3.0, no_screen=True), src, y))
    fast = scan_records(run_scan(ScanConfig(b=3.0), src, y))
    for a, b in zip(fast, full):
        if b.p_value is not None and b.p_value < 1e-3:
            assert a.method not in ("screened_out_high",)
            assert a.p_value == b.p_value


def test_thread_and_block_determinism(small_panel, tmp_path):
    g, y = small_panel
    src = ArraySource(g, kind="hard")
    paths = []
    for i, (threads, block) in enumerate([(1, 1024), (4, 7), (3, 16)]):
        cfg = ScanConfig(b=3.0, threads=threads, block_size=block)
        path = str(tmp_path / f"out{i}.tsv")
        write_results(run_scan(cfg, src, y), path)
        paths.append(path)
    blobs = [pathlib.Path(p).read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


@pytest.mark.parametrize("kind", ["dosage", "hard_cov", "dosage_cov"])
def test_thread_and_block_determinism_dosage_and_covariates(small_panel, tmp_path, kind):
    """Non-integer dosage and covariate-adjusted scans give the same bytes
    for any thread count and block size, including one SNP per block."""
    g, y = small_panel
    n = y.size
    rng = np.random.default_rng(8)
    if kind.startswith("dosage"):
        x = np.clip(g + rng.uniform(-0.3, 0.3, size=g.shape), 0.0, 2.0)
        x[3, rng.choice(n, 5, replace=False)] = np.nan  # per-SNP fallback row
        src = ArraySource(x, kind="dosage")
    else:
        src = ArraySource(g, kind="hard")
    z = None
    if kind.endswith("_cov"):
        z = CovariateMatrix(
            matrix=np.column_stack([np.ones(n), rng.normal(size=n), rng.integers(0, 2, n)]),
            names=("intercept", "age", "sex"),
        )
    blobs = []
    for i, (threads, block) in enumerate([(1, 1024), (4, 7), (3, 16), (1, 1)]):
        cfg = ScanConfig(b=3.0, threads=threads, block_size=block)
        path = tmp_path / f"out{i}.tsv"
        write_results(run_scan(cfg, src, y, z), str(path))
        blobs.append(path.read_bytes())
    assert all(blob == blobs[0] for blob in blobs[1:])


def test_monomorphic_snp(small_panel):
    g, y = small_panel
    g = g.copy()
    g[5] = 2
    recs = scan_records(run_scan(ScanConfig(), ArraySource(g, kind="hard"), y))
    r = recs[5]
    assert r.stat == 0.0
    assert r.p_value == 1.0
    assert r.method == "degenerate spectrum"


@pytest.mark.parametrize("with_covariates", [False, True])
def test_monomorphic_rows_on_present_samples_are_degenerate(with_covariates):
    """A row with one value on all its present samples, hard calls or
    dosages, complete or with missing entries, is a degenerate spectrum
    with stat 0 and p = 1, on the block path and the per-SNP path, and
    its TSV line ends in 0, not -0."""
    rng = np.random.default_rng(8)
    n = 200
    g = draw_genotypes(rng, n, 0.3, 8)
    g[0], g[1], g[2] = 0, 0, 2
    g[1, rng.choice(n, 7, replace=False)] = -1
    g[2, :5] = -1
    x = np.clip(g + rng.uniform(-0.3, 0.3, size=g.shape), 0.0, 2.0)
    x[g < 0] = np.nan
    x[0], x[1] = 0.37, np.where(np.isnan(x[1]), np.nan, 0.37)
    x[2] = np.where(np.isnan(x[2]), np.nan, 2.0)
    y = rng.standard_normal(n)
    cov = None
    if with_covariates:
        cov = CovariateMatrix.build({"intercept": np.ones(n), "age": rng.normal(50.0, 10.0, n)})
    cfg = ScanConfig(b=3.0)
    ctx = scan_module.prepare_context(y, cov)
    for values, kind in ((g, "hard"), (x, "dosage")):
        recs = scan_records(run_scan(cfg, ArraySource(values, kind=kind), y, cov))
        for i in range(3):
            col = GenotypeColumn(f"snp{i}", ".", i, values[i], kind=kind)
            for rec in (recs[i], scan_module._test_single_column(cfg, ctx, col).records()[0]):
                assert rec.method == "degenerate spectrum", (kind, i)
                assert (rec.stat, rec.lambda1, rec.lambda2) == (0.0, 0.0, 0.0)
                assert (rec.p_lower, rec.p_upper, rec.p_value) == (1.0, 1.0, 1.0)
                assert rec.n_used == int(np.sum(col.present_mask()))
                assert record_row(block_result([rec])).endswith("\t1\tdegenerate spectrum\t0")
        assert all(r.method != "degenerate spectrum" for r in recs[3:])


@pytest.mark.parametrize("kind", ["hard", "dosage"])
def test_allele_flip_prints_the_same_maf(kind):
    """A row and its allele flip 2 - x print the same ``maf``, on the
    block path and on the per-SNP path, complete or with missing entries:
    the smaller allele sum over twice the present samples.  An allele dose
    of 600 on 700 samples and its flip's 800 both print 600 / 1400."""
    rng = np.random.default_rng(61)
    n, m = 700, 24
    g = np.vstack([np.repeat([2, 1, 0], [200, 200, 300]), rng.binomial(2, 0.5, (m - 1, n))])
    # quarter steps keep every allele sum, and its flip's, exact; the
    # first row keeps its calls
    x = g if kind == "hard" else np.clip(g + 0.25 * rng.integers(-1, 2, g.shape) * (
        np.arange(m) > 0)[:, None], 0.0, 2.0)
    x = np.vstack([x, 2 - x]).astype(np.int8 if kind == "hard" else np.float64)
    drop = np.tile(rng.random((m, n)) < np.linspace(0.0, 0.3, m)[:, None], (2, 1))
    x[drop] = -1 if kind == "hard" else np.nan
    y = rng.standard_normal(n)
    cfg = ScanConfig(b=3.0)
    ctx = scan_module.prepare_context(y)
    block = scan_module.process_block(
        cfg, ctx, Block(variants=[[f"rs{i}", "1", i] for i in range(2 * m)], values=x, kind=kind))
    per_snp = [scan_module._test_single_column(
        cfg, ctx, GenotypeColumn(f"rs{i}", "1", i, x[i], kind=kind)).records()[0].maf
        for i in range(2 * m)]
    for mafs in ([r.maf for r in block.records()], per_snp):
        assert mafs[0] == 600 / 1400
        assert mafs[:m] == mafs[m:]


def test_too_few_samples_error_record():
    rng = np.random.default_rng(5)
    g = rng.integers(0, 3, size=(2, 10)).astype(np.int8)
    g[1, :8] = -1  # only 2 usable samples
    y = rng.standard_normal(10)
    recs = scan_records(run_scan(ScanConfig(), ArraySource(g, kind="hard"), y))
    assert recs[1].method == "error:too_few_samples"
    assert recs[1].p_value is None
    assert recs[0].method != recs[1].method  # scan continued


def test_three_allele_sample_minimum_counts_every_feature_slot():
    """A three-allele column has six feature slots, so without covariates
    it needs n - 1 - 6 >= 1, eight complete cases: six and seven are too
    few samples, not an invalid column, and eight are evaluated."""
    rng = np.random.default_rng(11)
    n = 12
    y = rng.standard_normal(n)
    alleles = np.array([[2, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1], [0, 2, 0], [0, 0, 2]])
    counts = alleles[np.arange(n) % 6].astype(np.float64)
    for n_used, method in ((6, "error:too_few_samples"), (7, "error:too_few_samples"),
                           (8, None)):
        col_counts = counts.copy()
        col_counts[n_used:] = np.nan
        col = GenotypeColumn("rs3", "1", 3, col_counts, m=3, kind="allele_counts")
        rec = run_multiallelic(ScanConfig(b=3.0, no_screen=True), col, y)
        assert rec.n_used == n_used
        if method is None:
            assert not rec.method.startswith("error:") and 0.0 < rec.p_value <= 1.0
        else:
            assert rec.method == method


def test_phenotype_is_refused_when_the_scan_is_called():
    """A constant phenotype, one inside the covariate span up to
    round-off, or one of fewer samples than any row needs, is refused by
    the call to ``run_scan``, before any block is read; a noisy phenotype
    is not."""
    rng = np.random.default_rng(19)
    n = 60
    age = rng.integers(20, 60, n).astype(np.float64)
    cov = CovariateMatrix.build({"intercept": np.ones(n), "age": age})
    g = draw_genotypes(rng, n, 0.3, 4)
    cases = [(np.full(n, 0.1), None, "degenerate response"),
             (np.full(n, 0.1), cov, "degenerate response"),
             (0.1 * age + 0.3, cov, "degenerate response"),
             (rng.standard_normal(3), None, "too few samples: need at least 4, got 3")]
    for y, covariates, message in cases:
        with pytest.raises(ValueError, match=message):
            run_scan(ScanConfig(), ArraySource(g[:, : len(y)]), y, covariates)
    y = 0.1 * age + 0.3 + 1e-3 * rng.standard_normal(n)
    assert len(scan_records(run_scan(ScanConfig(), ArraySource(g), y, cov))) == 4


def test_missing_entries_slow_path_matches_library():
    rng = np.random.default_rng(6)
    g = draw_genotypes(rng, 200, 0.25, 4)
    g[2, rng.choice(200, 30, replace=False)] = -1
    y = rng.standard_normal(200)
    recs = scan_records(run_scan(ScanConfig(b=2.0, no_screen=True),
                         ArraySource(g, kind="hard"), y))
    mask = g[2] >= 0
    s = Sample.from_arrays(g[2][mask], y[mask])
    k, _ = standardized_statistic(2.0, s)
    assert recs[2].n_used == int(mask.sum())
    assert recs[2].stat == pytest.approx(k, rel=1e-12)
    u = column_features(2.0, GenotypeColumn("x", ".", 0, g[2][mask]))
    spec = spectrum_from_features(u)
    assert recs[2].p_value == pytest.approx(exact_pvalue(spec, k), rel=1e-10)


def test_covariate_scan_matches_direct(small_panel):
    g, y = small_panel
    n = y.size
    rng = np.random.default_rng(7)
    z = CovariateMatrix(
        matrix=np.column_stack([np.ones(n), rng.normal(size=n), rng.normal(size=n)]),
        names=("intercept", "z1", "z2"),
    )
    recs = scan_records(run_scan(ScanConfig(b=2.0, no_screen=True),
                         ArraySource(g, kind="hard"), y, z))
    rp = residualize(y, z)
    for i in (0, 11, 30):
        col = GenotypeColumn("x", ".", 0, g[i])
        u = column_features(2.0, col)
        v = u.T @ rp.residuals
        k = float(v @ v) / float(rp.residuals @ rp.residuals)
        assert recs[i].stat == pytest.approx(k, rel=1e-10)
        spec = spectrum_from_features(u, projector_basis=z.matrix)
        assert recs[i].p_value == pytest.approx(exact_pvalue(spec, k), rel=1e-9)
        assert spec.df_sub == 3


def test_dosage_integer_routing_bitwise(small_panel):
    g, y = small_panel
    hard = scan_records(run_scan(ScanConfig(b=3.0), ArraySource(g, kind="hard"), y))
    dosage = scan_records(
        run_scan(ScanConfig(b=3.0), ArraySource(g.astype(np.float64), kind="dosage"), y)
    )
    for a, b in zip(hard, dosage):
        assert a.stat == b.stat
        assert a.lambda1 == b.lambda1 and a.lambda2 == b.lambda2
        assert a.p_value == b.p_value and a.method == b.method


def test_true_dosage_scan_matches_library():
    rng = np.random.default_rng(8)
    n = 300
    x = np.clip(rng.normal(0.8, 0.5, size=(3, n)), 0, 2)
    y = rng.standard_normal(n)
    recs = scan_records(run_scan(ScanConfig(b=2.5, no_screen=True),
                         ArraySource(x, kind="dosage"), y))
    for i in range(3):
        s = Sample.from_arrays(x[i], y, kind="dosage")
        k, _ = standardized_statistic(2.5, s)
        assert recs[i].stat == pytest.approx(k, rel=1e-10)
        col = GenotypeColumn("x", ".", 0, x[i], kind="dosage")
        spec = spectrum_from_features(column_features(2.5, col))
        assert recs[i].p_value == pytest.approx(exact_pvalue(spec, k), rel=1e-9)


def test_dosage_scan_with_covariates_matches_library():
    rng = np.random.default_rng(21)
    n = 250
    x = np.clip(rng.normal(1.0, 0.4, size=(4, n)), 0, 2)
    x[1, 5] = np.nan  # one column through the slow path
    y = rng.standard_normal(n)
    z = CovariateMatrix(
        matrix=np.column_stack([np.ones(n), rng.normal(size=(n, 2))]),
        names=("intercept", "z1", "z2"),
    )
    recs = scan_records(run_scan(ScanConfig(b=2.2, no_screen=True),
                         ArraySource(x, kind="dosage"), y, z))
    for i in range(4):
        mask = ~np.isnan(x[i])
        zsub = CovariateMatrix(matrix=z.matrix[mask], names=z.names)
        rp = residualize(y[mask], zsub)
        col = GenotypeColumn("x", ".", 0, x[i][mask], kind="dosage")
        u = column_features(2.2, col)
        v = u.T @ rp.residuals
        k = float(v @ v) / float(rp.residuals @ rp.residuals)
        assert recs[i].stat == pytest.approx(k, rel=1e-10)
        spec = spectrum_from_features(u, projector_basis=zsub.matrix)
        assert recs[i].p_value == pytest.approx(exact_pvalue(spec, k), rel=1e-9)
        assert recs[i].n_used == int(mask.sum())


def test_exact_law_at_large_n():
    """At n = 40 000 every evaluated row takes the exact law: no row is
    asymptotic, p_lower <= p_value <= min(p_upper, 1), and the b = 4 and
    b = 0 rows equal the slope F-test on the dose and on the heterozygote
    indicator to 1e-10, screened and not."""
    rng = np.random.default_rng(4000)
    n, m = 40_000, 30
    g = np.stack([draw_genotypes(rng, n, q, 1)[0] for q in rng.uniform(0.1, 0.5, m)])
    y = rng.standard_normal(n)
    # weak additive and heterozygous effects, from none to p ~ 1e-8
    for i, beta in enumerate(np.linspace(0.0, 0.05, m)):
        y += beta * (g[i] if i % 2 else (g[i] == 1))
    evaluated = ("exact_appell", "weighted_chisq_inversion", "classical_F", "underflow")
    src = ArraySource(g, kind="hard")
    for no_screen in (False, True):
        for b in (0.0, 2.0, 3.0, 4.0):
            recs = scan_records(run_scan(ScanConfig(b=b, no_screen=no_screen), src, y))
            assert not any(r.method == "asymptotic" for r in recs)
            rows = [(i, r) for i, r in enumerate(recs) if r.method in evaluated]
            assert len(rows) == m if no_screen else 0 < len(rows) < m
            for i, r in rows:
                assert r.p_lower <= r.p_value <= min(r.p_upper, 1.0), r
                if b in (0.0, 4.0):
                    x = g[i] if b == 4.0 else (g[i] == 1)
                    ref = stats.linregress(x.astype(float), y).pvalue
                    assert r.method == "classical_F"
                    assert abs(r.p_value - ref) <= 1e-10, (r, ref)


def test_multiallelic_m2_byte_identical(small_panel):
    g, y = small_panel
    x = g[0]
    counts = np.column_stack([2 - x, x]).astype(np.float64)
    col = GenotypeColumn("rs0", "1", 5, counts, m=2, kind="allele_counts")
    rec_multi = run_multiallelic(ScanConfig(b=2.5), col, y)
    rec_bi = scan_records(run_scan(ScanConfig(b=2.5), ArraySource(x[None, :], kind="hard"), y))[0]
    assert rec_multi.stat == rec_bi.stat
    assert rec_multi.lambda1 == rec_bi.lambda1
    assert rec_multi.lambda2 == rec_bi.lambda2
    assert rec_multi.p_value == rec_bi.p_value
    assert rec_multi.method == rec_bi.method


def test_multiallelic_absent_allele_reduces_to_biallelic(small_panel):
    g, y = small_panel
    x = g[1]
    counts = np.zeros((x.size, 3))
    counts[:, 0] = 2 - x
    counts[:, 1] = x  # third allele never observed
    col = GenotypeColumn("rs1", "1", 6, counts, m=3, kind="allele_counts")
    rec3 = run_multiallelic(ScanConfig(b=2.0, no_screen=True), col, y)
    rec2 = scan_records(
        run_scan(ScanConfig(b=2.0, no_screen=True), ArraySource(x[None, :], kind="hard"), y)
    )[0]
    assert rec3.stat == pytest.approx(rec2.stat, rel=1e-12)
    assert rec3.p_value == pytest.approx(rec2.p_value, rel=1e-8)


def test_multiallelic_three_alleles_matches_conditional_mc():
    rng = np.random.default_rng(9)
    n = 80
    alleles = rng.choice(3, size=(n, 2), p=[0.5, 0.3, 0.2])
    counts = np.zeros((n, 3))
    for j in range(3):
        counts[:, j] = (alleles == j).sum(axis=1)
    y = rng.standard_normal(n)
    col = GenotypeColumn("rs", "1", 1, counts, m=3, kind="allele_counts")
    cfg = ScanConfig(b=2.0)
    rec = run_multiallelic(cfg, col, y)
    assert rec.method == "weighted_chisq_inversion"
    # no bounds cover more than two eigenvalues: the p-value stands for them
    assert rec.p_lower == rec.p_upper == rec.p_value
    # with m alleles there are at most (m+1 choose 2) - 1 nonzero eigenvalues
    u = column_features(2.0, col)
    spec3 = spectrum_from_features(u)
    assert len(spec3.nonzero) <= 5
    # conditional null Monte Carlo on the fixed genotype configuration
    uc = u - u.mean(axis=0)
    reps = 200_000
    ys = rng.standard_normal((reps, n))
    yc = ys - ys.mean(axis=1, keepdims=True)
    v = yc @ uc
    ks = (v**2).sum(axis=1) / (yc**2).sum(axis=1)
    emp = float((ks >= rec.stat).mean())
    se = math.sqrt(max(emp * (1 - emp), 1e-9) / reps)
    assert rec.p_value == pytest.approx(emp, abs=4 * se)


def test_write_results_fields(tmp_path, small_panel):
    g, y = small_panel
    results = list(run_scan(ScanConfig(b=3.0), ArraySource(g[:6], kind="hard"), y))
    recs = scan_records(results)
    path = str(tmp_path / "res.tsv")
    write_results(results, path)
    lines = pathlib.Path(path).read_text().splitlines()
    header = lines[0].split("\t")
    assert header == [
        "snp_id", "chrom", "pos", "maf", "n_used", "b", "stat", "lambda1",
        "lambda2", "p_lower", "p_upper", "p_value", "method", "neg_log10_p",
    ]
    back = read_results(path)
    for a, b in zip(recs, back):
        assert a.stat == b.stat  # 17 significant digits round-trip
        assert a.lambda1 == b.lambda1
        assert (a.p_value is None) == (b.p_value is None)
        if a.p_value is not None:
            assert a.p_value == b.p_value
    screened = [r for r in back if r.method == "screened_out_high"]
    assert screened, "expected at least one screened-out record"
    for r in screened:
        assert r.p_value is None
        assert not math.isnan(r.p_lower)


def test_write_results_empty(tmp_path):
    path = str(tmp_path / "empty.tsv")
    write_results([], path)
    lines = pathlib.Path(path).read_text().splitlines()
    assert len(lines) == 1


def test_write_results_removes_partial_on_error(tmp_path):
    path = str(tmp_path / "fail.tsv")

    def boom():
        yield block_result([ScanRecord("a", "1", 1, 0.1, 10, 3.0, 0.0, 0.1, 0.0, 1.0, 1.0, 1.0,
                                       "degenerate spectrum")])
        raise RuntimeError("stream died")

    with pytest.raises(RuntimeError):
        write_results(boom(), path)
    assert not os.path.exists(path)
    assert not os.path.exists(path + ".partial")


def test_record_row_clamps_upper():
    rec = ScanRecord("a", "1", 1, 0.1, 10, 3.0, 0.0, 0.1, 0.0, 0.9, 4.7, None, "screened_out_high")
    fields = record_row(block_result([rec])).split("\t")
    assert float(fields[10]) == 1.0  # reported p_upper clamped
    assert fields[11] == "NA"
    assert fields[13] == "NA"


def test_source_sample_mismatch(small_panel):
    g, y = small_panel
    with pytest.raises(ValueError, match="samples"):
        list(run_scan(ScanConfig(), ArraySource(g, kind="hard"), y[:-5]))


def test_collinear_complete_case_design_error_code(caplog):
    rng = np.random.default_rng(11)
    n = 120
    g = draw_genotypes(rng, n, 0.3, 3)
    sex = (np.arange(n) % 2).astype(float)
    z = CovariateMatrix(matrix=np.column_stack([np.ones(n), sex]), names=("intercept", "sex"))
    g[1, sex == 1] = -1  # the complete cases all have sex 0
    y = rng.standard_normal(n)
    with caplog.at_level(logging.WARNING, logger="gdcscan"):
        recs = scan_records(run_scan(ScanConfig(), ArraySource(g, kind="hard"), y, z))
    assert recs[1].method == "error:collinear_covariates"
    assert recs[1].p_value is None
    assert not recs[0].method.startswith("error:")
    assert not recs[2].method.startswith("error:")
    assert "snp1" in caplog.text and "rank deficient" in caplog.text


def test_numerics_error_code(small_panel, monkeypatch, caplog):
    g, y = small_panel

    def failing(spec, k):
        raise NumericsError("quadrature failed on purpose")

    monkeypatch.setattr(scan_module, "exact_pvalue_with_method", failing)
    with caplog.at_level(logging.WARNING, logger="gdcscan"):
        recs = scan_records(
            run_scan(ScanConfig(no_screen=True), ArraySource(g[:3], kind="hard"), y))
        alleles = np.random.default_rng(3).choice(3, size=(y.size, 2), p=[0.5, 0.3, 0.2])
        counts = np.stack([(alleles == j).sum(axis=1) for j in range(3)], axis=1)
        multi = run_multiallelic(
            ScanConfig(), GenotypeColumn("rs3", "1", 1, counts, m=3, kind="allele_counts"), y,
        )
    assert [r.method for r in recs] == ["error:numerics"] * 3
    assert multi.method == "error:numerics"
    # the row keeps its maf, statistic and eigenvalues on every path
    for rec in recs + [multi]:
        assert rec.p_value is None
        assert all(math.isfinite(v) for v in (rec.stat, rec.lambda1, rec.maf))
    assert math.isnan(multi.p_lower) and math.isnan(multi.p_upper)
    assert "snp0" in caplog.text and "rs3" in caplog.text
    assert "quadrature failed on purpose" in caplog.text


def test_bound_sandwich_on_adjusted_spectra():
    """p_lower <= p_value <= min(p_upper, 1) on every exactly evaluated
    row of covariate-adjusted hard-call and dosage scans, complete columns
    and columns with missing entries alike."""
    rng = np.random.default_rng(404)
    n, m = 400, 300
    age = rng.uniform(20.0, 70.0, n)
    sex = rng.integers(0, 2, n).astype(float)
    z = CovariateMatrix(
        matrix=np.column_stack([np.ones(n), age, sex]), names=("intercept", "age", "sex")
    )
    maf = rng.uniform(0.03, 0.5, m)
    g = np.stack([draw_genotypes(rng, n, q, 1)[0] for q in maf])
    y = 0.02 * age + 0.5 * sex + rng.standard_normal(n)
    for c in range(0, m, 60):
        # a causal SNP and 40 copies with 2-90% of calls redrawn, so the
        # associations run from none to far below the screening window
        y = y + 2.0 * (g[c] == 1) + 1.0 * (g[c] == 2)
        for j, frac in zip(range(c + 1, c + 41), np.linspace(0.02, 0.9, 40)):
            g[j] = np.where(rng.random(n) < frac, g[j], g[c])
    x = np.clip(g + rng.normal(0.0, 0.15, g.shape), 0.0, 2.0)
    x[::3] = g[::3]  # integer dosage rows take the hard-call path
    for i in range(0, m, 4):  # a quarter of the SNPs miss 3% of their entries
        drop = rng.random(n) < 0.03
        g[i, drop] = -1
        x[i, drop] = np.nan
    exact = ("exact_appell", "weighted_chisq_inversion", "classical_F")
    cfg = ScanConfig(b=2.5, no_screen=True)
    rows = 0
    for src in (ArraySource(g, kind="hard"), ArraySource(x, kind="dosage")):
        for rec in scan_records(run_scan(cfg, src, y, z)):
            assert rec.method in exact
            assert rec.p_lower <= rec.p_value <= min(rec.p_upper, 1.0), rec
            rows += 1
    assert rows == 2 * m


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["hard", "dosage"]),
    n=st.integers(30, 200),
    n_snps=st.integers(1, 8),
    b=st.floats(0.0, 4.0),
    n_covariates=st.sampled_from([0, 2, 12]),
    no_screen=st.booleans(),
    missing=st.floats(0.0, 0.9),
    degenerate=st.booleans(),
)
def test_block_engine_matches_per_snp_path(seed, kind, n, n_snps, b, n_covariates,
                                           no_screen, missing, degenerate):
    """Every SNP the block engine settles, complete rows and rows with
    0-90% missing entries, hard calls and dosages alike, gets the record
    of the per-SNP path: the same method, sample count and MAF, stat and
    spectrum to rel 1e-9, p-values to rel 1e-8.  The designs have 0, 2
    or 12 covariates besides the intercept, on scales 10^-2 to 10^2 with
    offsets up to 50, and MAF goes down to 0.01.  With ``degenerate`` the
    phenotype lies in the covariate span (or is constant) on the present
    samples of the first SNP, which misses the other half, and not on all
    samples."""
    rng = np.random.default_rng(seed)
    maf = rng.uniform(0.01, 0.5, size=(n_snps, 1))
    g = (rng.random((n_snps, n)) < maf).astype(np.int8) + (rng.random((n_snps, n)) < maf)
    g[:, :3] = [0, 1, 2]  # every class present: no degenerate spectrum
    drop = rng.random((n_snps, n)) < missing
    if degenerate:
        drop[0] = np.arange(n) >= n // 2
    drop[:, :3] = False
    if kind == "hard":
        values = g.astype(np.int8)
        values[drop] = -1
    else:
        values = np.clip(g + rng.uniform(-0.4, 0.4, size=g.shape), 0.0, 2.0)
    y = rng.standard_normal(n) + 0.5 * values[0]
    if kind == "dosage":
        values[drop] = np.nan
    columns = {"intercept": np.ones(n)}
    for j in range(n_covariates):
        scale, offset = 10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(-50.0, 50.0)
        columns[f"c{j}"] = offset + scale * rng.standard_normal(n)
    cov = CovariateMatrix.build(columns) if n_covariates else None
    if degenerate:
        z = np.column_stack(list(columns.values()))
        fit = z @ rng.standard_normal(z.shape[1])
        y[~drop[0]] = fit[~drop[0]] + 1e-8 * fit[~drop[0]].std() * rng.standard_normal(
            np.count_nonzero(~drop[0]))
        if cov is None:
            y[~drop[0]] = 1.0
    cfg = ScanConfig(b=b, no_screen=no_screen)
    ctx = scan_module.prepare_context(y, cov)
    variants = [[f"rs{i}", "1", i] for i in range(n_snps)]
    block = scan_module.process_block(
        cfg, ctx, Block(variants=variants, values=values, kind=kind)
    )
    for i, rec in enumerate(block.records()):
        col = GenotypeColumn(snp_id=f"rs{i}", chrom="1", pos=i, values=values[i], kind=kind)
        ref = scan_module._test_single_column(cfg, ctx, col).records()[0]
        assert (rec.method, rec.n_used) == (ref.method, ref.n_used)
        if degenerate and i == 0 and rec.n_used >= scan_module.min_samples(ctx.df_sub, 2):
            assert rec.method in ("error:degenerate_response", "error:collinear_covariates")
        if kind == "hard":
            assert rec.maf == ref.maf or math.isnan(rec.maf) and math.isnan(ref.maf)
        else:  # a sequential sum of dosages against a pairwise mean
            assert rec.maf == pytest.approx(ref.maf, rel=1e-12, nan_ok=True)
        for field in ("stat", "lambda1", "lambda2"):
            assert getattr(rec, field) == pytest.approx(
                getattr(ref, field), rel=1e-9, abs=1e-12, nan_ok=True
            ), field
        if rec.p_value is not None and ref.p_value is not None:
            assert rec.p_value == pytest.approx(ref.p_value, rel=1e-8)


def _oracle_panel(kind, missing):
    """A 12-SNP panel whose scans give every kind of row: screened either
    way, exact and classical, a monomorphic SNP, an underflow, too few
    samples, and (with ``missing``) per-SNP fallback rows."""
    rng = np.random.default_rng(21)
    n = 150
    g = rng.integers(0, 3, size=(12, n)).astype(np.int8)
    g[1] = 1  # monomorphic
    y = rng.standard_normal(n)
    # a phenotype that is almost exactly SNP 2: its exact p-value underflows
    signal = (g[2] - g[2].mean()) + 1e-6 * rng.standard_normal(n)
    y = 6.0 * (g[3] - g[3].mean()) + 0.3 * (g[4] - g[4].mean()) + y
    x = g.astype(np.float64)
    if kind == "dosage":
        x[6:] = np.clip(x[6:] + rng.normal(0.0, 0.2, size=x[6:].shape), 0.0, 2.0)
    x[5, : n - 3] = np.nan  # too few samples
    if missing:
        x[7:9, rng.choice(n, 10, replace=False)] = np.nan
    if kind == "hard":
        x = np.where(np.isnan(x), -1, x).astype(np.int8)
    return x, signal, y


@pytest.mark.parametrize("kind", ["hard", "dosage"])
@pytest.mark.parametrize("missing", [False, True])
def test_results_tsv_matches_oracle(tmp_path, kind, missing):
    """write_results prints every row of the block results as the
    field-by-field reference formatter does, line for line, and the
    file reads back as ``BlockResult.records()`` with ``p_upper``
    clamped.  Scans give most row kinds; one hand-made block adds every
    error code, the inversion route, a clamped ``p_upper``, "nan" inside
    an id or chrom, inf, -0.0 and 5e-324, on screened-out-high rows and
    on the others."""
    x, signal, y = _oracle_panel(kind, missing)
    n = y.shape[0]
    rng = np.random.default_rng(3)
    covariates = CovariateMatrix(
        matrix=np.column_stack([np.ones(n), rng.normal(50.0, 10.0, n), rng.random(n) < 0.5]),
        names=("intercept", "age", "sex"),
    )
    results = []
    for b in (0.0, 3.0, 4.0):
        for no_screen in (False, True):
            for cov in (None, covariates):
                cfg = ScanConfig(b=b, no_screen=no_screen)
                for pheno in (y, signal):
                    results += run_scan(cfg, ArraySource(x, kind=kind), pheno, cov)
    nan, high = math.nan, "screened_out_high"
    results.append(block_result([
        ScanRecord("clamped", "1", 7, 0.25, 150, 3.0, 2.5, 0.7, 0.3, 0.2, 4.7, 0.5, "exact_appell"),
        ScanRecord("nan_id", "nanchrom", 8, 0.25, 150, 3.0, -0.0, 5e-324, 0.0, 0.0, 1.0, 1.0,
                   "weighted_chisq_inversion"),
        ScanRecord("rs_inf", "1", 9, 0.25, 150, 3.0, math.inf, 1.0, 0.0, 0.5, 4.7, None, high),
        ScanRecord("rs_nan", "nan", 10, 0.25, 150, 3.0, -0.0, 5e-324, 0.0, 0.5, 1.0, None, high),
        ScanRecord("rs_nan_bound", "1", 11, 0.25, 150, 3.0, 0.1, 0.6, 0.2, 0.5, nan, None, high),
        ScanRecord("rs_numerics", "1", 12, 0.25, 150, 3.0, 0.1, 0.6, 0.2, 1e-5, 0.01, None,
                   "error:numerics"),
        *(ScanRecord(f"rs_{code}", "1", 13, nan, 9, 3.0, nan, nan, nan, nan, nan, None,
                     f"error:{code}")
          for code in ("too_few_samples", "collinear_covariates", "degenerate_response",
                       "invalid_column", "numerics")),
    ]))
    records = scan_records(results)
    assert {r.method for r in records} == set(scan_module.METHODS)
    assert any(r.p_value == 0.0 and r.neg_log10_p == math.inf for r in records)
    assert any(r.p_upper > 1.0 for r in records)

    path = tmp_path / "res.tsv"
    write_results(results, str(path))
    lines = path.read_text().split("\n")
    assert lines[0] == "\t".join(scan_module.OUTPUT_COLUMNS)
    assert lines[-1] == ""
    assert lines[1:-1] == [oracle_row(r) for r in records]

    def fields(rec):
        return tuple("NA" if isinstance(v, float) and math.isnan(v) else v
                     for v in dataclasses.astuple(rec))

    back = read_results(str(path))
    assert [fields(r) for r in back] == [
        fields(dataclasses.replace(r, p_upper=min(r.p_upper, 1.0))) for r in records]


_ODD_FLOAT = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e-310, 1.0]))
_NAME = st.one_of(st.sampled_from(["nan", "NA", "%s", "%.17g", "inf", "rs1"]),
                  st.text(st.characters(exclude_characters="\n"), max_size=4))
_ROW = st.tuples(
    _NAME, _NAME, st.integers(0, 2**40), _ODD_FLOAT, st.integers(0, 10**6),
    *[_ODD_FLOAT] * 5,
    st.one_of(st.sampled_from([0.0, math.nan]), st.floats(0.0, 1.0, exclude_min=True)),
    st.integers(0, len(scan_module.METHODS) - 1),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=12), b=st.floats(0.0, 4.0))
def test_record_row_matches_oracle_on_any_block(rows, b):
    """record_row picks each column's template field from the whole
    block; any mix of NaN, +-inf, -0.0, subnormal and plain values in any
    column, p-values of 0, NaN or in (0, 1], every method, and ids and
    chroms such as "nan", "NA" or "%s" give the reference formatter's
    rows."""
    records = [
        ScanRecord(snp_id, chrom, pos, maf, n_used, b, stat, l1, l2, lo, hi,
                   None if math.isnan(p) else p, scan_module.METHODS[code])
        for snp_id, chrom, pos, maf, n_used, stat, l1, l2, lo, hi, p, code in rows
    ]
    assert record_row(block_result(records, b)).split("\n") == [oracle_row(r) for r in records]


def test_block_tail_screening_boundaries(monkeypatch):
    """The screening tail decides every boundary case per row from the
    bounds it is given (here injected), and only in-window rows are
    evaluated."""
    thr, floor = ScanConfig().screen_threshold, ScanConfig().screen_floor
    nan = math.nan
    rows = [  # (lambda1, p_lower, p_upper, screened method or None)
        (0.6, thr, 1.0, "screened_out_high"),  # p_lower at the threshold
        (0.6, 1e-40, floor, "screened_out_low"),  # p_upper at the floor
        (0.6, nan, nan, None),  # NaN bounds decide nothing
        (0.0, 0.5, 0.9, "degenerate spectrum"),
        (-1e-18, nan, nan, "degenerate spectrum"),
        (0.6, 1e-5, 0.01, None),
        (0.6, math.nextafter(thr, 0.0), 1.0, None),
        (0.6, nan, floor / 2, "screened_out_low"),
        (0.6, 0.2, nan, "screened_out_high"),
        (0.6, 0.5, floor / 2, "screened_out_high"),  # high before low
    ]
    m = len(rows)
    lam1 = np.array([r[0] for r in rows])
    p_lo = np.array([r[1] for r in rows])
    p_hi = np.array([r[2] for r in rows])
    lam2 = np.full(m, 0.2)
    stat = np.linspace(0.01, 0.05, m)
    maf = np.linspace(0.1, 0.4, m)
    n, df_sub = 200, 1
    variants = [[f"rs{i}", "1", i] for i in range(m)]
    evaluated = []
    exact = scan_module.exact_pvalue_with_method

    def counting_exact(spec, k):
        evaluated.append(k)
        return exact(spec, k)

    monkeypatch.setattr(scan_module, "exact_pvalue_with_method", counting_exact)
    monkeypatch.setattr(scan_module, "pvalue_bounds_batch", lambda *args: (p_lo, p_hi))
    lams, mono = np.column_stack([lam1, lam2]), np.zeros(m, dtype=bool)
    for cfg in (ScanConfig(), ScanConfig(no_screen=True)):
        evaluated.clear()
        out = scan_module.BlockResult.blank(cfg.b, variants)
        scan_module._records(cfg, df_sub, out, np.arange(m), n, maf, stat, lams, mono)
        recs = out.records()
        in_window = 0
        for i, (rec, (_, lo, hi, meth)) in enumerate(zip(recs, rows)):
            if cfg.no_screen and meth != "degenerate spectrum":
                meth = None
            assert (rec.snp_id, rec.maf, rec.n_used, rec.b) == (
                f"rs{i}", maf[i], n, cfg.b)
            if meth == "degenerate spectrum":
                assert rec == ScanRecord(
                    f"rs{i}", "1", i, maf[i], n, cfg.b, 0.0, 0.0, 0.0,
                    1.0, 1.0, 1.0, meth)
                continue
            assert (rec.stat, rec.lambda1, rec.lambda2) == (stat[i], 0.6, 0.2)
            np.testing.assert_array_equal([rec.p_lower, rec.p_upper], [lo, hi])
            if meth is None:
                in_window += 1
                assert rec.method not in scan_module.METHODS[:3]
                assert (rec.p_value, rec.method) == exact(
                    NullSpectrum(lambdas=(0.6, 0.2), n=n, df_sub=df_sub), stat[i])
            else:
                assert rec.method == meth
                assert rec.p_value == (hi if meth == "screened_out_low" else None)
        assert len(evaluated) == in_window


def test_closed_form_spectrum_of_complete_hard_calls_is_accurate():
    """Complete hard-call rows without covariates keep the paper's closed
    form of K in the class frequencies for its accuracy: at b = 3 its
    lambda1 is within 3e-13 (relative) of a 50-digit evaluation of the
    same closed form on MAF 0.0005-0.5, where the projection's
    U'U - A A' reaches 6e-13.  lambda2 is compared as an absolute error
    over lambda1, since eig2x2 snaps a lambda2 below 1e-12 lambda1 to 0."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(2000)
    n, b = 2000, 3
    g = np.stack([draw_genotypes(rng, n, q, 1)[0] for q in np.geomspace(0.0005, 0.5, 600)])
    mono = (g == g[:, :1]).all(axis=1)
    g[mono, 0] = (g[mono, 0] + 1) % 3
    recs = scan_records(
        run_scan(ScanConfig(b=b), ArraySource(g, kind="hard"), rng.standard_normal(n)))
    for rec, row in zip(recs, g):
        p0, p1, p2 = (mp.mpf(int((row == j).sum())) / n for j in range(3))
        k00 = mp.mpf(b) / 2 * (p0 + p2 - (p0 - p2) ** 2)
        k11 = mp.mpf(4 - b) / 2 * (p1 - p1 * p1)
        k01 = mp.sqrt(b * (4 - b)) / 2 * p1 * (p0 - p2)
        disc = mp.sqrt((k00 - k11) ** 2 + 4 * k01 ** 2)
        lam1, lam2 = (k00 + k11 + disc) / 2, (k00 + k11 - disc) / 2
        assert abs(rec.lambda1 - lam1) <= 3e-13 * lam1
        assert abs(rec.lambda2 - lam2) <= 1e-14 * lam1


def _missing_call_panel(seed=31, n_snps=150, n=240):
    """Hard calls with 0-10% missing calls per SNP, a phenotype and an
    age + sex covariate matrix (also scanned by ``test_backend``)."""
    rng = np.random.default_rng(seed)
    g = draw_genotypes(rng, n, 0.3, n_snps)
    g[rng.random((n_snps, n)) < rng.uniform(0.0, 0.1, size=(n_snps, 1))] = -1
    sex = rng.integers(0, 2, n).astype(float)
    y = rng.standard_normal(n) + 0.4 * sex + 0.8 * (g[0] == 2)
    cov = CovariateMatrix.build(
        {"intercept": np.ones(n), "age": rng.normal(50.0, 10.0, n), "sex": sex}
    )
    return g, y, cov


def _dosages_of(g, seed=32):
    """Non-integer dosages around the calls ``g``, NaN where a call is
    missing."""
    noise = np.random.default_rng(seed).uniform(-0.3, 0.3, size=g.shape)
    return np.where(g < 0, np.nan, np.clip(g + noise, 0.0, 2.0))


@pytest.mark.parametrize("cfg", [
    ScanConfig(b=3.0, screen_threshold=0.2), ScanConfig(b=3.0, no_screen=True),
])
def test_in_window_pvalues_equal_the_batched_router(cfg):
    """The scan evaluates its in-window rows one SNP at a time, screened
    or not; each p-value equals, bit for bit, the batched router's on the
    row's (lambda1, lambda2, stat, n_used, df_sub)."""
    g, y, cov = _missing_call_panel()
    recs = scan_records(run_scan(cfg, ArraySource(g, kind="hard"), y, cov))
    rows = [r for r in recs if r.method not in scan_module.METHODS[:3]]
    assert len(rows) >= 30 and sum(r.n_used < len(y) for r in rows) >= 20
    lam1, lam2, stat, n_used = (
        np.array([getattr(r, f) for r in rows]) for f in ("lambda1", "lambda2", "stat", "n_used")
    )
    batch = exact_pvalues_batch(lam1, lam2, stat, n_used, cov.matrix.shape[1])
    scalar = np.array([r.p_value for r in rows])
    np.testing.assert_array_equal(scalar.view(np.int64), batch.view(np.int64))


def test_missing_calls_byte_identical_across_blocks_and_threads(tmp_path, monkeypatch):
    """A covariate scan with random missing calls, or dosages missing the
    same entries, writes one TSV for block sizes 1, 7 and 1024 and 1 or 3
    threads, and the block engine settles every one of its rows with
    missing entries."""
    g, y, cov = _missing_call_panel()
    single = scan_module._test_single_column
    routed = []

    def counting_single(cfg, ctx, column, *row):
        routed.append(column.snp_id)
        return single(cfg, ctx, column, *row)

    monkeypatch.setattr(scan_module, "_test_single_column", counting_single)
    for src in (ArraySource(g, kind="hard"), ArraySource(_dosages_of(g), kind="dosage")):
        blobs = []
        for block in (1, 7, 1024):
            for threads in (1, 3):
                cfg = ScanConfig(b=3.0, threads=threads, block_size=block)
                path = tmp_path / f"out_{block}_{threads}.tsv"
                write_results(run_scan(cfg, src, y, cov), str(path))
                blobs.append(path.read_bytes())
        assert all(blob == blobs[0] for blob in blobs[1:])
        assert routed == []
        recs = read_results(str(tmp_path / "out_1024_1.tsv"))
        assert sum(r.n_used < y.size for r in recs) > 100


def test_missing_sample_sums_move_no_bit_across_chunks(tmp_path, monkeypatch):
    """The sums over each row's missing samples are taken in row chunks
    of about ``_MISS_CHUNK_CALLS`` calls; chunks of one row, of seven rows
    and of the whole block give the same bits, of the sums and of the
    scan's TSV.  Hard calls and dosages missing the same entries give the
    same sums, and a row without missing entries sums to zero."""
    g, y, cov = _missing_call_panel()
    g[1, g[1] < 0] = 0
    ctx = scan_module.prepare_context(y, cov)
    rows = np.arange(g.shape[0])
    outputs = []
    for calls in (1, 7 * g.shape[1], g.size):
        monkeypatch.setattr(scan_module, "_MISS_CHUNK_CALLS", calls)
        sums = [scan_module._missing_sums(ctx, x, rows) for x in (g, _dosages_of(g))]
        assert sums[0].tobytes() == sums[1].tobytes()
        assert not sums[0][1].any() and np.count_nonzero(sums[0].any(axis=1)) > 100
        out = [sums[0].tobytes()]
        for src in (ArraySource(g, kind="hard"), ArraySource(_dosages_of(g), kind="dosage")):
            path = tmp_path / "out.tsv"
            write_results(run_scan(ScanConfig(b=3.0), src, y, cov), str(path))
            out.append(path.read_bytes())
        outputs.append(out)
    assert outputs[1:] == [outputs[0]] * 2


def test_single_thread_scan_holds_one_block(tmp_path):
    """A one-thread packed scan holds one block at a time: its packed
    bytes while they are decoded, then its calls, plus scratch of a fixed
    size.  On 512-SNP blocks of 20 000 samples (10 MB of calls), a quarter
    of the calls missing, traced allocations peak below 1.25 blocks plus
    3 MB.  Holding the previous block while the next one is read, or
    copying a block's rows with missing calls, would exceed 2 blocks."""
    n, block_size, n_snps = 20_000, 512, 1536
    rng = np.random.default_rng(12)
    path = str(tmp_path / "wide.geno")
    with open(path, "wb") as fh:
        fh.write(PACKED_MAGIC + PACKED_MODE_SNP_MAJOR)
        for _ in range(n_snps):
            fh.write(rng.integers(0, 256, size=n // 4, dtype=np.uint8).tobytes())
    with open(variants_path(path), "w") as fh:
        fh.writelines(f"rs{i}\t1\t{i}\n" for i in range(n_snps))
    with open(samples_path(path), "w") as fh:
        fh.writelines(f"s{j}\n" for j in range(n))
    source = PackedSource(path)
    y = rng.standard_normal(n)
    tracemalloc.start()
    try:
        results = run_scan(ScanConfig(block_size=block_size), source, y)
        rows = sum(len(result.variants) for result in results)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == n_snps
    assert peak < 1.25 * block_size * n + 3e6


def test_routed_missing_call_rows_keep_per_snp_error_codes(caplog):
    """Missing-call rows the block algebra cannot settle get exactly the
    per-SNP path's record: too few samples, complete cases of one sex
    (collinear covariates), a phenotype constant on a row's complete
    cases, with and without covariates (degenerate response), and a
    badly scaled but full-rank design whose complete cases fail the rank
    test although their share of the orthonormal basis is well
    conditioned."""
    rng = np.random.default_rng(17)
    n = 80
    sex = (np.arange(n) % 2).astype(float)
    cov = CovariateMatrix.build(
        {"intercept": np.ones(n), "age": rng.normal(50.0, 10.0, n), "sex": sex}
    )
    # singular value ratio 1.7e-10 on all samples, 5e-11 on row 3's
    scaled = CovariateMatrix.build(
        {"intercept": np.ones(n), "dose": 5e4 + (np.arange(n) < 20)}
    )
    g = draw_genotypes(rng, n, 0.3, 5)
    g[0, 5:] = -1  # five samples left, below df_sub + 3 = 6
    g[1, sex == 1] = -1  # the complete cases all have sex 0
    g[2, : n // 2] = -1  # complete cases where y is constant
    g[3, 1:20] = -1  # one of the 20 samples that move the dose left
    y = rng.standard_normal(n)
    y[n // 2 :] = 2.0
    cases = [
        (cov, 0, "error:too_few_samples"),
        (cov, 1, "error:collinear_covariates"),
        (None, 2, "error:degenerate_response"),
        (cov, 2, "error:degenerate_response"),
        (scaled, 3, "error:collinear_covariates"),
    ]
    cfg = ScanConfig(b=3.0)
    x = _dosages_of(g)
    for covariates, row, method in cases:
        ctx = scan_module.prepare_context(y, covariates)
        for values, kind in ((g, "hard"), (x, "dosage")):
            with caplog.at_level(logging.WARNING, logger="gdcscan"):
                recs = scan_records(run_scan(cfg, ArraySource(values, kind=kind), y, covariates))
            col = GenotypeColumn(f"snp{row}", ".", row, values[row], kind=kind)
            ref = scan_module._test_single_column(cfg, ctx, col).records()[0]
            assert ref.method == method
            assert oracle_row(recs[row]) == oracle_row(ref)
            assert not recs[4].method.startswith("error:")
