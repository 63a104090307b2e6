"""Command-line interface: scan, simulate."""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from .adjust import CovariateMatrix
from .io import SubsetSource, align_samples, open_genotypes, read_phenotype_table
from .scan import ScanConfig, run_scan, write_results
from .simbench import SimScenario, simulate_null, simulate_power, write_table


def _parse_floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v != "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdcscan",
        description="Single-SNP association scan with a tunable genotype "
        "distance covariance and exact finite-sample p-values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="scan a genotype panel against one phenotype")
    p_scan.add_argument("--geno", required=True, help="genotype file path")
    p_scan.add_argument(
        "--geno-format", choices=("packed", "dosage-tsv"), default="packed"
    )
    p_scan.add_argument("--pheno", required=True, help="phenotype/covariate TSV")
    p_scan.add_argument("--pheno-col", required=True, help="phenotype column name")
    p_scan.add_argument(
        "--covar", default=None,
        help="comma-separated covariate column names (intercept always added)",
    )
    p_scan.add_argument("--b", type=float, default=3.0)
    p_scan.add_argument("--out", required=True)
    p_scan.add_argument("--screen-M", type=float, default=1e-3, dest="screen_threshold")
    p_scan.add_argument("--screen-m", type=float, default=1e-32, dest="screen_floor")
    p_scan.add_argument("--threads", type=int, default=1)
    p_scan.add_argument("--no-screen", action="store_true")
    p_scan.add_argument("--allow-missing-samples", action="store_true")

    p_sim = sub.add_parser("simulate", help="type-I error and power tables")
    p_sim.add_argument("--mode", choices=("null", "power"), required=True)
    p_sim.add_argument("--n", type=int, default=300)
    p_sim.add_argument("--maf", default="0.1,0.2,0.3,0.4,0.5")
    p_sim.add_argument("--b", default="2,3")
    p_sim.add_argument("--h-grid", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
    p_sim.add_argument("--beta", type=float, default=1.0)
    p_sim.add_argument("--noise-sd", type=float, default=5.0)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--replications", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--no-competitors", action="store_true")
    p_sim.add_argument("--out", required=True)

    return parser


def _scan_inputs(args) -> tuple:
    """The scan's config, genotype source, phenotype and covariates."""
    source = open_genotypes(args.geno, args.geno_format)
    ids, table = read_phenotype_table(args.pheno)
    if args.pheno_col not in table:
        raise ValueError(f"phenotype column {args.pheno_col!r} not in {sorted(table)}")
    covar_names = [c for c in (args.covar or "").split(",") if c]
    for c in covar_names:
        if c not in table:
            raise ValueError(f"covariate column {c!r} not in {sorted(table)}")
    geno_idx, table_idx = align_samples(
        source.sample_ids, ids, allow_missing=args.allow_missing_samples
    )
    y = table[args.pheno_col][table_idx]
    covar_cols = {c: table[c][table_idx] for c in covar_names}
    finite = np.isfinite(y)
    for col in covar_cols.values():
        finite &= np.isfinite(col)
    if not finite.all():
        dropped = int((~finite).sum())
        print(
            f"dropping {dropped} samples with missing phenotype/covariates",
            file=sys.stderr,
        )
        geno_idx = geno_idx[finite]
        y = y[finite]
        covar_cols = {c: v[finite] for c, v in covar_cols.items()}
    covariates = None
    if covar_cols:
        # --covar always adds the intercept, so the library's notice that it
        # prepended one reports the normal case
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message="no constant covariate column", category=UserWarning
            )
            covariates = CovariateMatrix.build(covar_cols, n=y.shape[0])
    if geno_idx.size != source.n_samples or not np.array_equal(
        geno_idx, np.arange(source.n_samples)
    ):
        source = SubsetSource(source, geno_idx)
    cfg = ScanConfig(
        b=args.b,
        screen_threshold=args.screen_threshold,
        screen_floor=args.screen_floor,
        threads=args.threads,
        no_screen=args.no_screen,
    )
    return cfg, source, y, covariates


def _simulate_inputs(args) -> SimScenario:
    h_grid = _parse_floats(args.h_grid)
    if args.mode == "power" and not h_grid:
        raise ValueError("power mode needs at least one h value")
    return SimScenario(
        n=args.n,
        maf=_parse_floats(args.maf),
        b_values=_parse_floats(args.b),
        h_grid=h_grid,
        beta=args.beta,
        noise_sd=args.noise_sd,
        alpha=args.alpha,
        replications=args.replications,
        seed=args.seed,
        competitors=not args.no_competitors,
    )


def main(argv=None) -> int:
    """Run one subcommand.  An input that cannot be read, checked or built,
    or a genotype file that changes while the scan reads it, ends the run
    with no output written, one ``error:`` line on stderr and exit code 2,
    as argparse ends a bad command line."""
    parser = build_parser()
    args = parser.parse_args(argv)
    build = _scan_inputs if args.command == "scan" else _simulate_inputs
    try:
        inputs = build(args)
        # the blocks are read while the results are written
        if args.command == "scan":
            write_results(run_scan(*inputs), args.out)
        elif args.mode == "null":
            write_table(simulate_null(inputs), args.out)
        else:
            write_table(simulate_power(inputs), args.out)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
