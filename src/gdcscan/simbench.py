"""Simulation harness: null calibration, power curves and throughput.

Phenotypes follow the three-class mean model
``y = h * beta * 1{x=1} + beta * 1{x=2} + noise`` with Gaussian noise,
genotypes are drawn under Hardy-Weinberg proportions from the MAF, and
the heterozygous effect ``h`` is either fixed on a grid or drawn from the
law under which a given ``b`` is locally most powerful (symmetric Beta for
b in (2,4), a gamma-ratio construction for b in (0,2)).

Everything runs on counter-based seed sequences, so tables are bit
reproducible for any worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import backend
from .gdc import Sample
from .io import ArraySource
from .nulldist import eig2x2, exact_pvalues_batch, spectrum_matrix
from .scan import ScanConfig, run_scan

DEFAULT_H_GRID = tuple(np.round(np.arange(0.0, 1.01, 0.1), 10))
CHUNK_ROWS = 20_000


@dataclass
class SimScenario:
    """One simulation cell grid: sample size, MAFs, b values, effects."""

    n: int = 300
    maf: tuple = (0.1, 0.2, 0.3, 0.4, 0.5)
    b_values: tuple = (2.0, 3.0)
    h_grid: tuple = DEFAULT_H_GRID
    beta: float = 1.0
    noise_sd: float = 5.0
    alpha: float = 0.05
    replications: int = 10_000
    seed: int = 0
    competitors: bool = True

    def __post_init__(self):
        if self.n < 4 or self.replications < 1:
            raise ValueError("need n >= 4 and at least one replication")
        for b in self.b_values:
            if not (0.0 <= b <= 4.0):
                raise ValueError("b values must lie in [0, 4]")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")


def hwe_probs(maf: float) -> np.ndarray:
    """Hardy-Weinberg genotype probabilities for minor allele frequency q."""
    q = float(maf)
    if not (0.0 < q <= 0.5):
        raise ValueError("MAF must lie in (0, 0.5]")
    return np.array([(1.0 - q) ** 2, 2.0 * q * (1.0 - q), q * q])


def draw_genotypes(rng: np.random.Generator, n: int, maf: float, size: int) -> np.ndarray:
    """(size, n) int8 hard calls under Hardy-Weinberg proportions."""
    p = hwe_probs(maf)
    u = rng.random((size, n))
    g = (u > p[0]).astype(np.int8) + (u > p[0] + p[1]).astype(np.int8)
    return g


def draw_heterozygous_effect(b: float, regime: str | None = None,
                             rng: np.random.Generator | None = None, size=None):
    """Draw the heterozygous effect from the law matched to ``b``.

    ``regime`` is "beta" for b in (2, 4) (symmetric Beta((b-2)/(4-b))) or
    "gamma_ratio" for b in (0, 2) (h = G1 / (G1 - G2) with G_i gamma with
    shape (2-b)/b); inferred from b when omitted.
    """
    if rng is None:
        rng = np.random.default_rng()
    if regime is None:
        if 2.0 < b < 4.0:
            regime = "beta"
        elif 0.0 < b < 2.0:
            regime = "gamma_ratio"
        else:
            raise ValueError("no random-effect law is defined at b in {0, 2, 4}")
    if regime == "beta":
        if not (2.0 < b < 4.0):
            raise ValueError("the beta regime needs b in (2, 4)")
        shape = (b - 2.0) / (4.0 - b)
        return rng.beta(shape, shape, size=size)
    if regime == "gamma_ratio":
        if not (0.0 < b < 2.0):
            raise ValueError("the gamma-ratio regime needs b in (0, 2)")
        shape = (2.0 - b) / b
        g1 = rng.gamma(shape, 1.0, size=size)
        g2 = rng.gamma(shape, 1.0, size=size)
        return g1 / (g1 - g2)
    raise ValueError(f"unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# vectorized replication engine
# ---------------------------------------------------------------------------


def _replication_stats(g: np.ndarray, y: np.ndarray, b: float):
    """Per-replication standardized statistic and spectrum.

    ``g`` and ``y`` are (reps, n); every replication has its own genotype
    draw and response.
    """
    reps, n = g.shape
    a = g.astype(np.float64)
    aa = a * a
    ca = a.sum(axis=1)
    caa = aa.sum(axis=1)
    n1 = 2.0 * ca - caa
    n2 = (caa - ca) / 2.0
    n0 = n - n1 - n2
    ybar = y.mean(axis=1)
    yc = y - ybar[:, None]
    rss = (yc * yc).sum(axis=1)
    sa = (a * yc).sum(axis=1)
    saa = (aa * yc).sum(axis=1)
    s1 = 2.0 * sa - saa
    s2 = (saa - sa) / 2.0
    s0 = -s1 - s2  # centered response sums to zero
    sqb = np.sqrt(b / 2.0)
    sqh = np.sqrt((4.0 - b) / 2.0)
    v1 = sqb * (s2 - s0)
    v2 = sqh * s1
    k = (v1 * v1 + v2 * v2) / rss
    km = spectrum_matrix(b, np.stack([n0 / n, n1 / n, n2 / n], axis=-1))
    lam1, lam2 = eig2x2(km[:, 0, 0], km[:, 1, 1], km[:, 0, 1])
    return k, lam1, lam2, (n0.astype(np.int64), n1.astype(np.int64), n2.astype(np.int64))


def _additive_pvalues(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Classical F-test of the regression slope, rowwise."""
    reps, n = g.shape
    x = g.astype(np.float64)
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    sxx = (xc * xc).sum(axis=1)
    syy = (yc * yc).sum(axis=1)
    sxy = (xc * yc).sum(axis=1)
    out = np.ones(reps)
    ok = (sxx > 0) & (syy > 0)
    r2 = np.zeros(reps)
    r2[ok] = sxy[ok] ** 2 / (sxx[ok] * syy[ok])
    r2 = np.clip(r2, 0.0, 1.0)
    f = (n - 2) * r2 / np.maximum(1.0 - r2, 1e-300)
    out[ok] = special.fdtrc(1, n - 2, f[ok])
    return out


def _anova_pvalues(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """One-way F-test treating the genotype as categorical, rowwise.

    Classes absent from a replication drop out, so two-class draws reduce
    to the two-group comparison.
    """
    reps, n = g.shape
    out = np.ones(reps)
    sums = np.zeros((reps, 3))
    counts = np.zeros((reps, 3))
    for j in range(3):
        mask = g == j
        counts[:, j] = mask.sum(axis=1)
        sums[:, j] = (y * mask).sum(axis=1)
    ybar = y.mean(axis=1)
    yc = y - ybar[:, None]
    sstot = (yc * yc).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    ssb = (counts * (means - ybar[:, None]) ** 2).sum(axis=1)
    ssw = np.maximum(sstot - ssb, 0.0)
    classes = (counts > 0).sum(axis=1)
    df1 = classes - 1
    df2 = n - classes
    ok = (df1 > 0) & (df2 > 0) & (ssw > 0)
    f = np.zeros(reps)
    f[ok] = (ssb[ok] / df1[ok]) / (ssw[ok] / df2[ok])
    out[ok] = special.fdtrc(df1[ok], df2[ok], f[ok])
    return out


def competitor_tests(sample: Sample) -> dict:
    """Additive-regression and ANOVA F-test p-values for one sample."""
    g = sample.genotypes.values.astype(np.int8)[None, :]
    y = sample.phenotype[None, :]
    return {
        "additive_F": float(_additive_pvalues(g, y)[0]),
        "anova_F": float(_anova_pvalues(g, y)[0]),
    }


def _rejection_cell(scenario, maf, h, beta, methods, seed_seq) -> dict:
    """Empirical rejection rates for one (maf, h, beta) cell, all methods
    sharing the same replicated data."""
    n = scenario.n
    total = scenario.replications
    hits = {m: 0 for m in methods}
    chunk_seeds = seed_seq.spawn((total + CHUNK_ROWS - 1) // CHUNK_ROWS)
    done = 0
    for child in chunk_seeds:
        reps = min(CHUNK_ROWS, total - done)
        rng = np.random.default_rng(child)
        g = draw_genotypes(rng, n, maf, reps)
        y = rng.normal(0.0, scenario.noise_sd, size=(reps, n))
        if beta != 0.0:
            y += beta * (h * (g == 1) + (g == 2))
        for m in methods:
            if m == "additive_F":
                p = _additive_pvalues(g, y)
            elif m == "anova_F":
                p = _anova_pvalues(g, y)
            else:
                k, lam1, lam2, _ = _replication_stats(g, y, float(m))
                p = exact_pvalues_batch(lam1, lam2, k, n, 1)
            hits[m] += int((p <= scenario.alpha).sum())
        done += reps
    return {m: hits[m] / total for m in methods}


def _ci(rate: float, reps: int, z: float = 1.959963984540054) -> tuple:
    half = z * np.sqrt(max(rate * (1.0 - rate), 0.0) / reps)
    return (max(rate - half, 0.0), min(rate + half, 1.0))


def simulate_null(scenario: SimScenario) -> list:
    """Empirical type-I error per (b, MAF) cell, competitors included.

    Returns table rows as dicts with estimate and a 95% binomial CI.
    """
    methods = [str(b) for b in scenario.b_values]
    if scenario.competitors:
        methods += ["additive_F", "anova_F"]
    root = np.random.SeedSequence(scenario.seed)
    rows = []
    for i, maf in enumerate(scenario.maf):
        rates = _rejection_cell(
            scenario, maf, h=0.0, beta=0.0, methods=methods,
            seed_seq=root.spawn(len(scenario.maf))[i],
        )
        for m in methods:
            lo, hi = _ci(rates[m], scenario.replications)
            rows.append(
                {
                    "mode": "null", "method": m, "maf": maf, "h": "NA",
                    "beta": 0.0, "alpha": scenario.alpha, "n": scenario.n,
                    "replications": scenario.replications,
                    "estimate": rates[m], "ci_low": lo, "ci_high": hi,
                }
            )
    return rows


def simulate_power(scenario: SimScenario) -> list:
    """Empirical power per method over the heterozygous-effect grid."""
    methods = [str(b) for b in scenario.b_values]
    if scenario.competitors:
        methods += ["additive_F", "anova_F"]
    root = np.random.SeedSequence(scenario.seed)
    cells = [(maf, h) for maf in scenario.maf for h in scenario.h_grid]
    seeds = root.spawn(len(cells))
    rows = []
    for (maf, h), seed_seq in zip(cells, seeds):
        rates = _rejection_cell(
            scenario, maf, h=h, beta=scenario.beta, methods=methods,
            seed_seq=seed_seq,
        )
        for m in methods:
            lo, hi = _ci(rates[m], scenario.replications)
            rows.append(
                {
                    "mode": "power", "method": m, "maf": maf, "h": h,
                    "beta": scenario.beta, "alpha": scenario.alpha,
                    "n": scenario.n, "replications": scenario.replications,
                    "estimate": rates[m], "ci_low": lo, "ci_high": hi,
                }
            )
    return rows


def write_table(rows: list, path: str) -> None:
    if not rows:
        with open(path, "w") as fh:
            fh.write("")
        return
    cols = list(rows[0].keys())
    with open(path, "w") as fh:
        fh.write("\t".join(cols) + "\n")
        for row in rows:
            fh.write(
                "\t".join(
                    format(v, ".17g") if isinstance(v, float) else str(v)
                    for v in (row[c] for c in cols)
                )
                + "\n"
            )


# ---------------------------------------------------------------------------
# throughput benchmark
# ---------------------------------------------------------------------------


def _null_panel(rng: np.random.Generator, n_snps: int, n: int, maf: float = 0.3):
    g = draw_genotypes(rng, n, maf, n_snps)
    y = rng.standard_normal(n)
    return ArraySource(g, kind="hard"), y


def bench_throughput(n: int = 1000, n_snps: int = 10_000, b: float = 3.0,
                     threads: int = 1, seed: int = 0, maf: float = 0.3,
                     modes=("fast", "naive"), backends=("current",)) -> list:
    """Wall-clock comparison of the screened scan against the
    exact-everywhere scan, optionally per kernel backend.

    Returns timing rows; the fast/naive ratio is reported on the naive
    rows.
    """
    rng = np.random.default_rng(seed)
    source, y = _null_panel(rng, n_snps, n, maf)
    rows = []
    for backend_name in backends:
        if backend_name == "current":
            kernels = backend.kernels
        else:
            kernels = backend.get_backend(backend_name)
        chosen = "compiled" if kernels.IS_COMPILED else "python"
        fast_time = None
        for mode in modes:
            cfg = ScanConfig(b=b, threads=threads, no_screen=(mode == "naive"))
            t0 = time.perf_counter()
            count = sum(1 for _ in run_scan(cfg, source, y, kernels=kernels))
            elapsed = time.perf_counter() - t0
            if mode == "fast":
                fast_time = elapsed
            row = {
                "mode": mode, "backend": chosen, "n": n, "n_snps": n_snps,
                "b": b, "threads": threads, "seconds": elapsed,
                "snps_per_sec": count / elapsed if elapsed > 0 else float("inf"),
                "naive_over_fast": (
                    elapsed / fast_time
                    if mode == "naive" and fast_time else "NA"
                ),
            }
            rows.append(row)
    return rows
