"""Correctness checks on the program's outputs, run after timing.

Each check raises :class:`CheckFailed` naming itself. The reference
recomputation uses the program's public per-SNP path (residualize on the
complete cases, ``column_features``, ``spectrum_from_features``,
``exact_pvalue``), not the block engine the scan runs.
"""

from __future__ import annotations

import math

import numpy as np

from gdcscan.adjust import CovariateMatrix, column_features, residualize
from gdcscan.nulldist import (
    METHOD_CLASSICAL_F,
    METHOD_EXACT,
    METHOD_INVERSION,
    METHOD_UNDERFLOW,
    exact_pvalue,
    spectrum_from_features,
)
from gdcscan.premetric import GenotypeColumn
from gdcscan.scan import OUTPUT_COLUMNS

from workloads import read_packed_rows

# Methods whose p_value column is an exact evaluation, not a bound.
EXACT_METHODS = (METHOD_EXACT, METHOD_INVERSION, METHOD_CLASSICAL_F, METHOD_UNDERFLOW)
REFERENCE_ROWS = 50
REFERENCE_RTOL = 1e-9
# Half-width of the type-I band in binomial standard errors. The check
# looks at every (b, MAF) cell of every run; at 5 SE a correct test
# leaves the band about once in 1.7 million cells.
BAND_Z = 5.0
B4_ADDITIVE_MAX_GAP = 2

COL = {name: i for i, name in enumerate(OUTPUT_COLUMNS)}


class CheckFailed(Exception):
    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check


def read_tsv(path: str):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines[0].split("\t"), [line.split("\t") for line in lines[1:]]


def check_scan_output(path: str, snp_ids: list, n: int) -> dict:
    """Header, one row per input SNP in input order, and the bound
    sandwich; returns the row counts the per-layer metrics use."""
    header, rows = read_tsv(path)
    if tuple(header) != OUTPUT_COLUMNS:
        raise CheckFailed("header", f"got {header}")
    got = [r[COL["snp_id"]] for r in rows]
    if got != snp_ids:
        first = next((i for i, (a, b) in enumerate(zip(got, snp_ids)) if a != b), min(len(got), len(snp_ids)))
        raise CheckFailed("order", f"{len(got)} rows for {len(snp_ids)} SNPs; first mismatch at row {first}")
    for r in rows:
        if r[COL["method"]] not in EXACT_METHODS:
            continue
        lo, p, hi = (float(r[COL[c]]) for c in ("p_lower", "p_value", "p_upper"))
        if not lo <= p <= min(hi, 1.0):
            raise CheckFailed("sandwich", f"{r[0]}: p_lower {lo!r} p_value {p!r} p_upper {hi!r}")
    methods = [r[COL["method"]] for r in rows]
    return {
        "failed": sum(m.startswith("error:") for m in methods),
        "inversion": sum(m == METHOD_INVERSION for m in methods),
        "numerics_errors": sum(m.startswith("error:numerics") for m in methods),
        "fallback": sum(int(r[COL["n_used"]]) < n for r in rows),
    }


def check_digests(digests: list, what: str = "digest") -> None:
    if len(set(digests)) > 1:
        raise CheckFailed(what, f"outputs differ: {sorted(set(digests))}")


def read_columns(pheno_path: str) -> dict:
    header, rows = read_tsv(pheno_path)
    return {name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header) if name != "sample_id"}


def reference_row(calls: np.ndarray, y: np.ndarray, covariates, b: float):
    """(stat, p) of one SNP by the public per-SNP path on its complete cases."""
    mask = calls >= 0
    column = GenotypeColumn(snp_id="ref", chrom="1", pos=0, values=calls[mask], kind="hard")
    if covariates is None:
        resid = y[mask] - y[mask].mean()
        basis = None
    else:
        names = ("intercept",) + tuple(covariates)
        z = CovariateMatrix(
            matrix=np.column_stack([np.ones(int(mask.sum()))] + [c[mask] for c in covariates.values()]),
            names=names,
        )
        resid = residualize(y[mask], z).residuals
        basis = z.matrix
    u = column_features(b, column)
    v = u.T @ resid
    stat = float(v @ v) / float(resid @ resid)
    return stat, exact_pvalue(spectrum_from_features(u, projector_basis=basis), stat)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def check_reference(path: str, geno_path: str, columns: dict, covariate_names: list,
                    n: int, seed: int) -> int:
    """Recompute stat and p_value for a seeded sample of rows carrying an
    exact p-value; returns how many rows were compared."""
    _, rows = read_tsv(path)
    eligible = [i for i, r in enumerate(rows) if r[COL["method"]] in EXACT_METHODS]
    rng = np.random.default_rng(seed)
    picked = sorted(rng.choice(eligible, size=min(REFERENCE_ROWS, len(eligible)), replace=False)) if eligible else []
    calls = read_packed_rows(geno_path, n, picked)
    covariates = {c: columns[c] for c in covariate_names} or None
    for k, i in enumerate(picked):
        r = rows[i]
        stat, p = reference_row(calls[k], columns["y"], covariates, float(r[COL["b"]]))
        got_stat, got_p = float(r[COL["stat"]]), float(r[COL["p_value"]])
        if not (_close(stat, got_stat) and _close(p, got_p)):
            raise CheckFailed(
                "reference", f"{r[0]}: stat {got_stat!r} vs {stat!r}, p {got_p!r} vs {p!r}"
            )
    return len(picked)


def check_simulation(path: str, sim: dict) -> None:
    """Every b-method's type-I estimate lies in its binomial band around
    alpha, and b = 4 matches the additive F-test to within two rejections."""
    header, rows = read_tsv(path)
    col = {name: i for i, name in enumerate(header)}
    reps, alpha = sim["replications"], sim["alpha"]
    half = BAND_Z * math.sqrt(alpha * (1.0 - alpha) / reps)
    estimate = {(r[col["method"]], float(r[col["maf"]])): float(r[col["estimate"]]) for r in rows}
    expected = {(str(float(b)), maf) for b in sim["b"] for maf in sim["maf"]}
    expected |= {(m, maf) for m in ("additive_F", "anova_F") for maf in sim["maf"]}
    if set(estimate) != expected:
        raise CheckFailed("sim_cells", f"cells {sorted(estimate)}")
    for maf in sim["maf"]:
        for b in sim["b"]:
            est = estimate[(str(float(b)), maf)]
            if abs(est - alpha) > half:
                raise CheckFailed("type1_band", f"b={b} maf={maf}: {est} outside {alpha} +- {half:.4g}")
        gap = abs(round(estimate[("4.0", maf)] * reps) - round(estimate[("additive_F", maf)] * reps))
        if gap > B4_ADDITIVE_MAX_GAP:
            raise CheckFailed("b4_additive", f"maf={maf}: {gap} rejections apart")
