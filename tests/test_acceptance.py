"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (collected again in the terminal
summary).  Budgets are enforced where the criterion states one.
"""

import math
import time

import numpy as np
from scipy import stats

from gdcscan.adjust import CovariateMatrix, column_features
from gdcscan.gdc import Sample, dcov_fast
from gdcscan.io import ArraySource
from gdcscan.nulldist import (
    exact_pvalue,
    exact_pvalues_batch,
    genF_sf,
    pvalue_bounds,
    spectrum_from_features,
    spectrum_unadjusted,
    weighted_chisq_tail,
)
from gdcscan.premetric import GenotypeColumn
from gdcscan.scan import ScanConfig, record_row, run_multiallelic, run_scan
from gdcscan.simbench import SimScenario, draw_genotypes, hwe_probs

from oracles import canonical_feature_table, dcov_kernel_form, dcov_oracle
from tsv_oracle import block_result, scan_records

RESULTS = []

KS_CRIT_1PCT = 1.63  # / sqrt(reps): asymptotic 1% Kolmogorov-Smirnov point


def _report(idx, name, passed, detail=""):
    line = f"ACCEPTANCE {idx:02d} {'PASS' if passed else 'FAIL'}  {name}: {detail}"
    RESULTS.append(line)
    print(line)
    assert passed, line


def _hwe_calls(rng, n, maf, size=1):
    return draw_genotypes(rng, n, maf, size)


def _fixed_design(seed=1234, n=300, maf=0.3):
    rng = np.random.default_rng(seed)
    x = draw_genotypes(rng, n, maf, 1)[0]
    # ensure all three classes are present
    x[:3] = [0, 1, 2]
    return x


def _null_pvalues_fixed_x(x, b, reps, seed):
    """Exact p-values for Gaussian responses on a fixed genotype column."""
    n = x.size
    rng = np.random.default_rng(seed)
    u = canonical_feature_table(b)[:, x.astype(np.intp)].T
    uc = u - u.mean(axis=0)
    spec = spectrum_from_features(u)
    out = np.empty(reps)
    done = 0
    while done < reps:
        m = min(50_000, reps - done)
        y = rng.standard_normal((m, n))
        yc = y - y.mean(axis=1, keepdims=True)
        v = yc @ uc
        ks = (v**2).sum(axis=1) / (yc**2).sum(axis=1)
        out[done : done + m] = exact_pvalues_batch(
            np.full(m, spec.lambdas[0]), np.full(m, spec.lambdas[1]), ks, n, 1
        )
        done += m
    return out


def test_criterion_01_three_form_equivalence():
    """Oracle, fast and kernel forms agree to 1e-12 relative across 500
    randomized instances; runtime under 10 s."""
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    b_grid = np.arange(0.0, 4.01, 0.5)
    worst = 0.0
    all_close = True
    for i in range(500):
        n = int(rng.integers(4, 201))
        maf = rng.uniform(0.05, 0.5)
        x = _hwe_calls(rng, n, maf)[0]
        y = rng.standard_normal(n)
        s = Sample.from_arrays(x, y)
        b = float(b_grid[i % b_grid.size])
        ref = dcov_oracle(b, s)
        for form in (dcov_fast, dcov_kernel_form):
            val = form(b, s)
            # 1e-12 relative, with an absolute cushion for statistics that
            # are pure round-off themselves
            all_close &= bool(np.isclose(val, ref, rtol=1e-12, atol=1e-15))
            if abs(ref) > 1e-3:
                worst = max(worst, abs(val - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    _report(
        1, "three-form equivalence",
        all_close and worst <= 1e-12 and elapsed < 10.0,
        f"max rel gap {worst:.2e}, all within 1e-12 rel / 1e-15 abs, "
        f"{elapsed:.1f}s over 500 instances",
    )


def test_criterion_02_classical_reductions():
    """Endpoint tests equal the classical regression F-tests to 1e-10."""
    rng = np.random.default_rng(43)
    worst4 = worst0 = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(12, 150))
        x = _hwe_calls(rng, n, rng.uniform(0.15, 0.5))[0]
        het = (x == 1).astype(float)
        if len(np.unique(x)) < 2 or het.std() == 0:
            continue
        y = rng.standard_normal(n)
        s = Sample.from_arrays(x, y)
        freqs = np.bincount(x, minlength=3) / n
        from gdcscan.gdc import standardized_statistic

        k4, _ = standardized_statistic(4.0, s)
        p4 = exact_pvalue(spectrum_unadjusted(4.0, freqs, n), k4)
        ref4 = float(stats.linregress(x.astype(float), y).pvalue)
        worst4 = max(worst4, abs(p4 - ref4))

        k0, _ = standardized_statistic(0.0, s)
        p0 = exact_pvalue(spectrum_unadjusted(0.0, freqs, n), k0)
        ref0 = float(stats.linregress(het, y).pvalue)
        worst0 = max(worst0, abs(p0 - ref0))
        done += 1
    _report(
        2, "classical F reductions",
        worst4 <= 1e-10 and worst0 <= 1e-10,
        f"max |gap| additive {worst4:.1e}, heterozygous {worst0:.1e}",
    )


def test_criterion_03_exact_null_calibration():
    """Fixed design, 1e4 Gaussian null draws per b in {1,2,3}: p-values
    uniform (KS below the 1% point) and size at 0.05 within [0.044, 0.056]."""
    t0 = time.perf_counter()
    x = _fixed_design()
    reps = 10_000
    crit = KS_CRIT_1PCT / math.sqrt(reps)
    details = []
    ok = True
    for b in (1.0, 2.0, 3.0):
        ps = _null_pvalues_fixed_x(x, b, reps, seed=int(100 + b))
        ks = float(stats.kstest(ps, "uniform").statistic)
        rate = float((ps <= 0.05).mean())
        ok &= ks < crit and 0.044 <= rate <= 0.056
        details.append(f"b={b:g}: KS={ks:.4f}, size={rate:.4f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    _report(3, "exact-null calibration", ok,
            "; ".join(details) + f" (crit {crit:.4f}), {elapsed:.0f}s")


def test_criterion_04_deep_tail_calibration():
    """1e6 null simulations with redrawn genotypes: the rejection rate at
    alpha = 1e-3 sits inside the 99% binomial interval."""
    t0 = time.perf_counter()
    from gdcscan.simbench import simulate_null

    scenario = SimScenario(
        n=300, maf=(0.3,), b_values=(3.0,), alpha=1e-3,
        replications=1_000_000, seed=77, competitors=False,
    )
    rows = [r for r in simulate_null(scenario) if r["method"] == "3.0"]
    rate = rows[0]["estimate"]
    se = math.sqrt(1e-3 * (1 - 1e-3) / 1_000_000)
    lo, hi = 1e-3 - 2.5758 * se, 1e-3 + 2.5758 * se
    elapsed = time.perf_counter() - t0
    _report(
        4, "deep-tail calibration",
        lo <= rate <= hi and elapsed < 1800.0,
        f"rate {rate:.6f} in [{lo:.6f}, {hi:.6f}], {elapsed:.0f}s",
    )


def test_criterion_05_bound_sandwich():
    """p* <= p <= p** with zero violations over 1e4 randomized pairs
    spanning both branches."""
    rng = np.random.default_rng(45)
    viol = 0
    branches = {"upper": 0, "lower": 0}
    done = 0
    while done < 10_000:
        n = int(rng.integers(20, 2000))
        b = rng.uniform(0.05, 4.0)
        maf = rng.uniform(0.05, 0.5)
        spec = spectrum_unadjusted(b, hwe_probs(maf), n)
        if spec.lambdas[0] <= 0:
            continue
        kmax = 0.9 * spec.lambdas[0] * n
        k = min(rng.uniform(0.0, kmax) if done % 3 else rng.uniform(0.0, 30.0), kmax)
        lo, hi = pvalue_bounds(spec, k)
        p = exact_pvalue(spec, k)
        branch = "upper" if spec.lambdas[1] - k / n > 0 else "lower"
        branches[branch] += 1
        if not (lo <= p <= hi):
            viol += 1
        done += 1
    _report(
        5, "bound sandwich",
        viol == 0 and min(branches.values()) > 500,
        f"0 violations required, got {viol}; branch counts {branches}",
    )


def test_criterion_06_genF_cross_validation():
    """Closed-form generalized-F tail against the characteristic-function
    inversion (1e-9 absolute, 200-point grid) and a 1e7-draw Monte Carlo
    (within 4 standard errors at 20 points)."""
    rng = np.random.default_rng(46)
    worst = 0.0
    for _ in range(200):
        a2 = rng.uniform(0.02, 1.2)
        a1 = a2 + rng.uniform(0.0, 2.0)
        nu = int(rng.integers(3, 1000))
        x = rng.uniform(0.0, 20.0)
        direct = genF_sf(a1, a2, nu, x)
        inv = weighted_chisq_tail(
            np.array([a1 / 2.0, a2 / 2.0, -x / nu]), dfs=np.array([1.0, 1.0, float(nu)]),
        )
        worst = max(worst, abs(direct - inv))
    grid_ok = worst <= 1e-9

    mc_ok = True
    mc_worst = 0.0
    n_draws = 10_000_000
    for nu in (5, 20, 47, 200):
        q1 = rng.standard_normal(n_draws) ** 2
        q2 = rng.standard_normal(n_draws) ** 2
        s = rng.chisquare(nu, n_draws)
        for a1, a2, x in [
            (0.7, 0.2, 1.0), (0.7, 0.2, 3.1), (1.5, 1.0, 2.0),
            (0.9, 0.05, 0.5), (2.0, 0.4, 6.0),
        ]:
            w = (a1 / 2.0 * q1 + a2 / 2.0 * q2) / (s / nu)
            emp = float((w >= x).mean())
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / n_draws)
            gap = abs(genF_sf(a1, a2, nu, x) - emp)
            mc_ok &= gap <= 4 * se
            mc_worst = max(mc_worst, gap / se if se > 0 else 0.0)
    _report(
        6, "generalized-F cross-validation",
        grid_ok and mc_ok,
        f"max |genF - inversion| {worst:.1e}; max MC gap {mc_worst:.2f} SE",
    )


def test_criterion_07_adjusted_exactness():
    """Fixed (X, Z) with q = 3 covariates: adjusted p-values uniform under
    Y = gamma'Z + noise (KS below the 1% point over 1e4 draws)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(47)
    n, q, reps = 300, 3, 10_000
    x = _fixed_design(seed=4747, n=n)
    z = CovariateMatrix(
        matrix=np.column_stack([np.ones(n), rng.normal(size=(n, q))]),
        names=("intercept", "z1", "z2", "z3"),
    )
    qb = z.orthonormal_basis()
    u = column_features(2.0, GenotypeColumn("snp", "1", 1, x))
    spec = spectrum_from_features(u, projector_basis=z.matrix)
    gamma = np.array([0.5, 1.0, -2.0, 0.7])
    y = z.matrix @ gamma + rng.standard_normal((reps, n))
    resid = y - (y @ qb) @ qb.T
    v = resid @ u
    ks_stats = (v**2).sum(axis=1) / (resid**2).sum(axis=1)
    ps = exact_pvalues_batch(
        np.full(reps, spec.lambdas[0]), np.full(reps, spec.lambdas[1]),
        ks_stats, n, spec.df_sub,
    )
    ks = float(stats.kstest(ps, "uniform").statistic)
    crit = KS_CRIT_1PCT / math.sqrt(reps)
    elapsed = time.perf_counter() - t0
    _report(
        7, "covariate-adjusted exactness",
        ks < crit and elapsed < 600.0,
        f"KS {ks:.4f} < {crit:.4f}, {elapsed:.0f}s",
    )


def test_criterion_08_screening_equivalence():
    """Screened vs exact-everywhere scans: identical p-values on every SNP
    with p below the screen threshold, and at least a 5x speedup."""
    rng = np.random.default_rng(48)
    n, n_snps = 1000, 10_000
    g = draw_genotypes(rng, n, 0.3, n_snps)
    y = rng.standard_normal(n)
    src = ArraySource(g, kind="hard")

    t0 = time.perf_counter()
    fast = list(run_scan(ScanConfig(b=3.0), src, y))
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    naive = list(run_scan(ScanConfig(b=3.0, no_screen=True), src, y))
    t_naive = time.perf_counter() - t0

    fast, naive = scan_records(fast), scan_records(naive)
    m_thresh = ScanConfig().screen_threshold
    mismatches = 0
    below = 0
    for a, b in zip(fast, naive):
        if b.p_value is not None and b.p_value < m_thresh:
            below += 1
            if a.p_value is None or abs(a.p_value - b.p_value) > 1e-12 * b.p_value:
                mismatches += 1
    ratio = t_naive / t_fast
    _report(
        8, "screening equivalence",
        mismatches == 0 and ratio >= 5.0,
        f"{below} sub-threshold SNPs all matched ({mismatches} mismatches); "
        f"naive/fast = {ratio:.1f}x ({t_naive:.2f}s / {t_fast:.2f}s)",
    )


def test_criterion_09_throughput():
    """100k null SNPs at n = 2000 on 4 worker threads.  Soft target 120 s;
    only a 2x overshoot rejects."""
    rng = np.random.default_rng(49)
    n, n_snps = 2000, 100_000
    chunks = []
    for _ in range(10):
        chunks.append(draw_genotypes(rng, n, 0.3, n_snps // 10))
    g = np.vstack(chunks)
    y = rng.standard_normal(n)
    src = ArraySource(g, kind="hard")
    t0 = time.perf_counter()
    count = sum(len(result.variants) for result in run_scan(ScanConfig(b=3.0, threads=4), src, y))
    elapsed = time.perf_counter() - t0
    note = "" if elapsed < 120.0 else " (over soft target; investigate)"
    _report(
        9, "throughput",
        count == n_snps and elapsed < 240.0,
        f"{n_snps} SNPs x n={n} in {elapsed:.0f}s on 4 threads{note}",
    )


def _power_cell(n, maf, h, beta, b_values, reps, alpha, seed):
    """Per-replication rejection indicators for each b (shared draws)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    from gdcscan.simbench import _chunk_stats, _gdc_stats

    rejs = {b: np.empty(reps, dtype=bool) for b in b_values}
    done = 0
    while done < reps:
        m = min(20_000, reps - done)
        g = draw_genotypes(rng, n, maf, m)
        y = rng.normal(0.0, 5.0, size=(m, n))
        y += beta * (h * (g == 1) + (g == 2))
        st = _chunk_stats(g, y)
        for b in b_values:
            k, lam1, lam2 = _gdc_stats(st, b)
            ps = exact_pvalues_batch(lam1, lam2, k, n, 1)
            rejs[b][done : done + m] = ps <= alpha
        done += m
    return rejs


def test_criterion_10_power_structure():
    """Desk-scale power-shape checks: integrated power peaks at b = 3,
    the dominant/recessive average peaks at b = 2, and the balanced-MAF
    recessive cell reproduces the quoted 0.239 / 0.229 ordering."""
    t0 = time.perf_counter()
    n, reps, alpha = 300, 5000, 0.05
    b_values = (2.0, 3.0, 4.0)
    h_grid = np.round(np.arange(0.0, 1.01, 0.1), 10)
    power = {b: [] for b in b_values}
    for i, h in enumerate(h_grid):
        rejs = _power_cell(n, 0.3, float(h), 1.0, b_values, reps, alpha,
                           seed=1000 + i)
        for b in b_values:
            power[b].append(float(rejs[b].mean()))
    integrated = {b: float(np.trapezoid(power[b], h_grid)) for b in b_values}
    best_integrated = max(integrated, key=integrated.get)
    edge_mean = {b: (power[b][0] + power[b][-1]) / 2.0 for b in b_values}
    best_edges = max(edge_mean, key=edge_mean.get)

    rejs = _power_cell(n, 0.5, 0.0, 1.0, (3.0, 4.0), reps, alpha, seed=2024)
    p3 = float(rejs[3.0].mean())
    p4 = float(rejs[4.0].mean())
    diff = rejs[3.0].astype(float) - rejs[4.0].astype(float)
    se_diff = float(diff.std(ddof=1) / math.sqrt(reps))
    separated = p3 - p4 > 1.96 * se_diff
    near_quoted = abs(p3 - 0.239) <= 0.03 and abs(p4 - 0.229) <= 0.03
    elapsed = time.perf_counter() - t0
    _report(
        10, "power structure",
        best_integrated == 3.0 and best_edges == 2.0 and separated
        and near_quoted and elapsed < 3600.0,
        f"integrated {dict((k, round(v, 3)) for k, v in integrated.items())} "
        f"(best b={best_integrated:g}); edge mean best b={best_edges:g}; "
        f"recessive cell {p3:.3f} vs {p4:.3f} (diff {p3 - p4:.3f} "
        f"+/- {1.96 * se_diff:.3f}); {elapsed:.0f}s",
    )


def test_criterion_11_dosage_multiallelic_reductions():
    """Integer dosages match hard calls bit for bit through the scan, and
    the two-allele count path is byte-identical to the biallelic scan."""
    rng = np.random.default_rng(51)
    n, n_snps = 500, 200
    g = draw_genotypes(rng, n, 0.25, n_snps)
    y = rng.standard_normal(n)
    cfg = ScanConfig(b=2.5)
    hard = scan_records(run_scan(cfg, ArraySource(g, kind="hard"), y))
    dosage = scan_records(run_scan(cfg, ArraySource(g.astype(np.float64), kind="dosage"), y))
    bitwise = all(
        a.stat == b.stat and a.lambda1 == b.lambda1 and a.lambda2 == b.lambda2
        and a.p_value == b.p_value and a.p_lower == b.p_lower
        and a.p_upper == b.p_upper and a.method == b.method
        for a, b in zip(hard, dosage)
    )

    x = g[0]
    counts = np.column_stack([2.0 - x, x.astype(np.float64)])
    col = GenotypeColumn("snp0", ".", 0, counts, m=2, kind="allele_counts")
    rec_multi = run_multiallelic(cfg, col, y)
    rec_bi = hard[0]
    byte_identical = (record_row(block_result([rec_multi], cfg.b))
                      == record_row(block_result([rec_bi], cfg.b)))

    # the dosage Gram spectrum at integer values equals the closed-form
    # frequency spectrum
    spec_gap = 0.0
    for i in range(0, 50, 7):
        freqs = np.bincount(g[i], minlength=3) / n
        closed = spectrum_unadjusted(2.5, freqs, n)
        colx = GenotypeColumn("s", ".", 0, g[i].astype(np.float64), kind="dosage")
        gram = spectrum_from_features(column_features(2.5, colx))
        spec_gap = max(
            spec_gap,
            max(abs(a - b) for a, b in zip(closed.lambdas, gram.lambdas)),
        )
    _report(
        11, "dosage/multiallelic reductions",
        bitwise and byte_identical and spec_gap < 1e-12,
        f"bitwise dosage match {bitwise}; m=2 byte-identical {byte_identical}; "
        f"max spectrum gap {spec_gap:.1e}",
    )
