"""Simulation harness: null calibration and power curves.

Phenotypes follow the three-class mean model
``y = h * beta * 1{x=1} + beta * 1{x=2} + noise`` with Gaussian noise,
genotypes are drawn under Hardy-Weinberg proportions from the MAF, and
the heterozygous effect ``h`` is fixed on a grid.
:func:`draw_heterozygous_effect` draws ``h`` from the law under which a
given ``b`` is locally most powerful, as a library call; no simulation
here uses it.

A replication enters every method only through its sufficient
statistics: class counts (n0, n1, n2), centred class sums of the response
(s0, s1, s2) and the residual sum of squares.  Under the Gaussian model
those have a closed law, so each chunk of replications draws them
directly (:func:`_draw_chunk_stats`) and never draws a sample: the counts
are Multinomial(n, Hardy-Weinberg probabilities); given the counts, the
class totals T_c are independent N(n_c mu_c, n_c noise_sd^2); the
within-class sum of squares is independent of them and is noise_sd^2
times a chi-square with n minus the number of non-empty classes degrees
of freedom (Cochran's theorem).  Then s_c = T_c - n_c mean(y) and the
residual sum of squares is the within-class one plus sum_c s_c^2 / n_c.
A replication costs one multinomial, three normals and one chi-square
whatever n is, and memory does not grow with n.

Every method of a cell comes from those arrays: the b tests through the
hard-call producer the scan uses (:func:`gdcscan.nulldist.hardcall_terms`),
the additive F-test from sxy = s1 + 2 s2 and the allele-count variance,
and the ANOVA F-test from sum_j s_j^2 / n_j.  A cell needs only whether
each p-value is at most alpha, so a b test takes that decision from the
scan's screening bounds p* <= p <= p** wherever they settle it by a
margin wider than the exact path's error: the lower bound's F terms
(:func:`gdcscan.nulldist._f_lower`) first, p**
(:func:`gdcscan.nulldist._f_upper`) only where they leave doubt.  It
evaluates :func:`gdcscan.nulldist.exact_pvalues_batch` only on the
replications both leave open: the decisions, and so the tables, are those
of the exact p-values.  :func:`_chunk_stats` reduces observed calls and
responses to the same statistics, for :func:`competitor_tests`.

Each chunk of ``CHUNK_ROWS`` replications draws from its own child seed,
on counter-based seed sequences, so tables are bit reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .gdc import Sample
from .io import write_lines
from .nulldist import _f_lower, _f_upper, eig2x2, exact_pvalues_batch, hardcall_terms, min_samples
from .premetric import check_b

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
        if self.n < min_samples(1, 2) or self.replications < 1:
            raise ValueError(f"need n >= {min_samples(1, 2)} and at least one replication")
        if not self.maf or not self.b_values:
            raise ValueError("need at least one MAF and one b value")
        for maf in self.maf:
            hwe_probs(maf)  # raises on a MAF outside (0, 0.5]
        b_values = [check_b(b) for b in self.b_values]
        for h in self.h_grid:
            if not np.isfinite(h):
                raise ValueError(f"h must be finite, got {h!r}")
        # a repeated value would run its cell, or add its rejections, twice
        for name, values in (("maf", list(self.maf)), ("b", b_values), ("h", list(self.h_grid))):
            for v in values:
                if values.count(v) > 1:
                    raise ValueError(f"{name} = {v:g} is given more than once")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not (0.0 < self.noise_sd < np.inf) or not np.isfinite(self.beta):
            raise ValueError("noise_sd must be positive and finite, and beta finite")


def hwe_probs(maf: float) -> np.ndarray:
    """Hardy-Weinberg genotype probabilities for minor allele frequency q."""
    q = float(maf)
    if not (0.0 < q <= 0.5):
        raise ValueError(f"MAF must lie in (0, 0.5], got {maf!r}")
    return np.array([(1.0 - q) ** 2, 2.0 * q * (1.0 - q), q * q])


def draw_genotypes(rng: np.random.Generator, n: int, maf: float, size: int) -> np.ndarray:
    """(size, n) int8 hard calls under Hardy-Weinberg proportions: the
    class of each of (size, n) uniforms."""
    p = hwe_probs(maf)
    u = rng.random((size, n))
    g = (u > p[0]).astype(np.int8)
    g += u > p[0] + p[1]
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


class _ChunkStats(NamedTuple):
    """Sufficient statistics of a chunk of replications, one row each:
    class counts (n0, n1, n2) and centred class sums (s0, s1, s2) of the
    response, both (reps, 3), its residual sum of squares and the sample
    size.  Every method of a cell is a function of these."""

    counts: np.ndarray
    sums: np.ndarray
    rss: np.ndarray
    n: int


def _chunk_stats(g: np.ndarray, y: np.ndarray) -> _ChunkStats:
    """One pass over (reps, n) hard calls and responses: a bincount over
    ``row * 3 + g``, unweighted and weighted by the centred response.
    ``y`` is centred and then squared in place."""
    reps, n = g.shape
    y -= y.mean(axis=1)[:, None]
    bins = (g + np.arange(0, 3 * reps, 3)[:, None]).ravel()
    counts = np.bincount(bins, minlength=3 * reps).reshape(reps, 3).astype(np.float64)
    sums = np.bincount(bins, weights=y.ravel(), minlength=3 * reps).reshape(reps, 3)
    return _ChunkStats(counts, sums, np.multiply(y, y, out=y).sum(axis=1), n)


def _gdc_stats(st: _ChunkStats, b: float) -> tuple:
    """Per-replication standardized statistic and spectrum (stat, lam1,
    lam2) at ``b``.  As in the scan, a zero spectrum (a monomorphic draw,
    or no heterozygote at b = 0) has statistic zero: any nonzero class sum
    there is round-off of the centred response's zero total."""
    v1, v2, k00, k11, k01 = hardcall_terms(b, st.counts, st.sums, st.n)
    lam1, lam2 = eig2x2(k00, k11, k01)
    return np.where(lam1 > 0.0, (v1 * v1 + v2 * v2) / st.rss, 0.0), lam1, lam2


def _additive_pvalues(st: _ChunkStats) -> np.ndarray:
    """Classical F-test of the regression slope on the allele count."""
    n1, n2, n = st.counts[:, 1], st.counts[:, 2], st.n
    sxx = n1 + 4.0 * n2 - (n1 + 2.0 * n2) ** 2 / n
    sxy = st.sums[:, 1] + 2.0 * st.sums[:, 2]
    out = np.ones(sxx.shape)
    ok = (sxx > 0) & (st.rss > 0)
    r2 = np.clip(sxy[ok] ** 2 / (sxx[ok] * st.rss[ok]), 0.0, 1.0)
    out[ok] = special.fdtrc(1, n - 2, (n - 2) * r2 / np.maximum(1.0 - r2, 1e-300))
    return out


def _anova_pvalues(st: _ChunkStats) -> np.ndarray:
    """One-way F-test treating the genotype as categorical.

    Classes absent from a replication drop out, so two-class draws reduce
    to the two-group comparison.
    """
    ssb = (st.sums * st.sums / np.maximum(st.counts, 1.0)).sum(axis=1)
    ssw = np.maximum(st.rss - ssb, 0.0)
    classes = (st.counts > 0).sum(axis=1)
    df1 = classes - 1
    df2 = st.n - classes
    out = np.ones(ssb.shape)
    ok = (df1 > 0) & (df2 > 0) & (ssw > 0)
    f = (ssb[ok] / df1[ok]) / (ssw[ok] / df2[ok])
    out[ok] = special.fdtrc(df1[ok], df2[ok], f)
    return out


# the classical competitors' p-values per replication, by method name
_F_PVALUES = {"additive_F": _additive_pvalues, "anova_F": _anova_pvalues}


# margins of a decision by the bounds: wider than the error of the exact
# p-value it stands for (the angular tail's 1e-12 relative target, the
# inversion fallback's 1e-10 absolute one)
_BOUND_REL, _BOUND_ABS = 1e-6, 1e-9


def _rejected(st: _ChunkStats, method: str, alpha: float) -> np.ndarray:
    """Whether each replication's p-value of one method is at most ``alpha``.

    A b method decides a replication with lam1 >= lam2 > k/n by the
    paper's bounds p* <= p <= p** where they leave no doubt: not rejected
    when the F lower bound max(t2, t3) is at least alpha (1 + 1e-6) + 1e-9,
    rejected when p** is at most alpha (1 - 1e-6) - 1e-9.  The margins
    exceed the exact path's own error, so every decision equals
    ``exact_pvalues_batch(...) <= alpha``; only the other replications
    are evaluated exactly."""
    if method in _F_PVALUES:
        return _F_PVALUES[method](st) <= alpha
    stat, lam1, lam2 = _gdc_stats(st, float(method))
    n = st.n
    i = ((lam1 > 0.0) & (lam2 - stat / n > 0.0)).nonzero()[0]
    accept = _f_lower(lam1[i], lam2[i], stat[i], n, 1) >= alpha * (1.0 + _BOUND_REL) + _BOUND_ABS
    j = i[~accept]  # p** is computed only where the lower bound leaves doubt
    reject = _f_upper(lam1[j], lam2[j], stat[j], n, 1) <= alpha * (1.0 - _BOUND_REL) - _BOUND_ABS
    out = np.zeros(stat.shape, dtype=bool)
    out[j] = reject
    todo = np.ones(stat.shape, dtype=bool)
    todo[i[accept]] = False
    todo[j[reject]] = False
    rest = todo.nonzero()[0]
    out[rest] = exact_pvalues_batch(lam1[rest], lam2[rest], stat[rest], n, 1) <= alpha
    return out


def competitor_tests(sample: Sample) -> dict:
    """Additive-regression and ANOVA F-test p-values for one sample."""
    st = _chunk_stats(sample.genotypes.values.astype(np.int8)[None, :],
                      sample.phenotype[None, :].astype(np.float64))
    return {m: float(pvalues(st)[0]) for m, pvalues in _F_PVALUES.items()}


def _stats_from_totals(counts: np.ndarray, totals: np.ndarray, within: np.ndarray,
                       n: int) -> _ChunkStats:
    """The statistics of replications given by their (reps, 3) class
    counts and class totals of the response and their within-class sums
    of squares: s_c = T_c - n_c mean(y) and rss = within + sum_c s_c^2 /
    n_c, an empty class adding nothing."""
    sums = totals - counts * (totals.sum(axis=1) / n)[:, None]
    return _ChunkStats(counts, sums, within + (sums * sums / np.maximum(counts, 1.0)).sum(axis=1), n)


def _draw_chunk_stats(rng: np.random.Generator, n: int, probs: np.ndarray, levels: np.ndarray,
                      noise_sd: float, reps: int) -> _ChunkStats:
    """The statistics of ``reps`` replications of n samples with class
    probabilities ``probs``, class means ``levels`` and N(0, noise_sd^2)
    noise, drawn from their joint law: counts, then the class totals
    n_c mu_c + noise_sd sqrt(n_c) Z_c, then the within-class sum of squares
    noise_sd^2 chi2(n - non-empty classes).  An empty class has a zero
    total, so its centred sum is exactly zero."""
    counts = rng.multinomial(n, probs, size=reps).astype(np.float64)
    totals = rng.standard_normal((reps, 3))
    totals *= np.sqrt(counts)
    totals *= noise_sd
    totals += counts * levels
    within = rng.chisquare(n - np.count_nonzero(counts, axis=1))
    within *= noise_sd * noise_sd
    return _stats_from_totals(counts, totals, within, n)


def _rejection_cell(scenario, maf, h, beta, methods, seed_seq) -> dict:
    """Empirical rejection rates for one (maf, h, beta) cell, all methods
    deciding on the same drawn statistics, one evaluation per chunk."""
    n, total = scenario.n, scenario.replications
    probs = hwe_probs(maf)
    # class means beta * (h * [x = 1] + [x = 2]) of the classes x = 0, 1, 2
    levels = beta * (h * np.array([0.0, 1.0, 0.0]) + np.array([0.0, 0.0, 1.0]))
    hits = dict.fromkeys(methods, 0)
    chunk_seeds = seed_seq.spawn((total + CHUNK_ROWS - 1) // CHUNK_ROWS)
    for i, child in enumerate(chunk_seeds):
        reps = min(CHUNK_ROWS, total - i * CHUNK_ROWS)
        st = _draw_chunk_stats(np.random.default_rng(child), n, probs, levels,
                               scenario.noise_sd, reps)
        for m in methods:
            hits[m] += int(_rejected(st, m, scenario.alpha).sum())
    return {m: hits[m] / total for m in methods}


def _ci(rate: float, reps: int, z: float = 1.959963984540054) -> tuple:
    half = z * np.sqrt(max(rate * (1.0 - rate), 0.0) / reps)
    return (max(rate - half, 0.0), min(rate + half, 1.0))


def _simulate(scenario: SimScenario, mode: str) -> list:
    """Table rows of one mode: a null cell per MAF (no effect, ``h``
    printed as NA) or a power cell per (MAF, h), each with its own child
    seed, all methods sharing the cell's replicated data.  Rows carry the
    rejection rate and a 95% binomial CI."""
    methods = [str(b) for b in scenario.b_values]
    if scenario.competitors:
        methods += ["additive_F", "anova_F"]
    null = mode == "null"
    h_grid = (0.0,) if null else scenario.h_grid
    beta = 0.0 if null else scenario.beta
    cells = [(maf, h) for maf in scenario.maf for h in h_grid]
    seeds = np.random.SeedSequence(scenario.seed).spawn(len(cells))
    rows = []
    for (maf, h), seed_seq in zip(cells, seeds):
        rates = _rejection_cell(
            scenario, maf, h=h, beta=beta, methods=methods, seed_seq=seed_seq,
        )
        for m in methods:
            lo, hi = _ci(rates[m], scenario.replications)
            rows.append(
                {
                    "mode": mode, "method": m, "maf": maf, "h": "NA" if null else h,
                    "beta": beta, "alpha": scenario.alpha, "n": scenario.n,
                    "replications": scenario.replications,
                    "estimate": rates[m], "ci_low": lo, "ci_high": hi,
                }
            )
    return rows


def simulate_null(scenario: SimScenario) -> list:
    """Empirical type-I error per (b, MAF) cell, competitors included."""
    return _simulate(scenario, "null")


def simulate_power(scenario: SimScenario) -> list:
    """Empirical power per method over the heterozygous-effect grid."""
    return _simulate(scenario, "power")


def write_table(rows: list, path: str) -> None:
    """Write the table atomically (empty when there are no rows); a failed
    write leaves no partial file behind."""
    cols = list(rows[0].keys()) if rows else []
    lines = (
        "\t".join(
            format(v, ".17g") if isinstance(v, float) else str(v)
            for v in (row[c] for c in cols)
        )
        for row in rows
    )
    write_lines(path, itertools.chain(["\t".join(cols)] if cols else [], lines))
