"""Which program functions the traced run wraps, and the per-layer
metrics derived from the spans they record.

Each public name is replaced where its caller looks it up (``gdcscan.cli``
for the CLI's calls, ``gdcscan.scan`` for the block engine's, and so on),
and ``gdcscan.backend.kernels`` is swapped for a timing proxy. The
program's files are not changed.
"""

from __future__ import annotations

# The CLI's default --screen-M, which every scan workload uses.
SCREEN_THRESHOLD = 1e-3

# (name, unit, better): the per-layer metrics of a traced run.
PER_LAYER = [
    ("proc.import_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("io.open_s", "s", "lower"),
    ("io.pheno_s", "s", "lower"),
    ("io.decode_s", "s", "lower"),
    ("io.decode_mb_per_s", "MB/s", "higher"),
    ("kernels.decode_s", "s", "lower"),
    ("kernels.hardcall_s", "s", "lower"),
    ("kernels.hardcall_calls", "count", "lower"),
    ("kernels.hardcall_mb", "MB", "lower"),
    ("adjust.build_s", "s", "lower"),
    ("adjust.residualize_s", "s", "lower"),
    ("adjust.residualize_calls", "count", "lower"),
    ("nulldist.bounds_s", "s", "lower"),
    ("nulldist.bounds_snps", "count", "lower"),
    ("nulldist.exact_s", "s", "lower"),
    ("nulldist.exact_calls", "count", "lower"),
    ("nulldist.exact_share", "frac", "lower"),
    ("nulldist.exact_hit_frac", "frac", "higher"),
    ("nulldist.inversion_rows", "count", "lower"),
    ("nulldist.numerics_errors", "count", "lower"),
    ("nulldist.exact_batch_s", "s", "lower"),
    ("scan.block_s", "s", "lower"),
    ("scan.blocks", "count", "lower"),
    ("scan.block_self_s", "s", "lower"),
    ("scan.fallback_snps", "count", "lower"),
    ("scan.format_s", "s", "lower"),
    ("scan.write_self_s", "s", "lower"),
    ("scan.pool_busy_frac", "frac", "higher"),
    ("simbench.draw_s", "s", "lower"),
    ("simbench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


class KernelProxy:
    """Stands in for the ``backend.kernels`` module, timing its sweeps."""

    def __init__(self, module, tracer):
        self._module = module
        self.decode_packed = tracer.wrap("kernels.decode_packed", module.decode_packed)
        self.hardcall_stats = tracer.wrap(
            "kernels.hardcall_stats", module.hardcall_stats,
            lambda args, kwargs, result: ("kernels.hardcall_bytes", args[0].nbytes),
        )
        self.dosage_stats = tracer.wrap("kernels.dosage_stats", module.dosage_stats)

    def __getattr__(self, name):
        return getattr(self._module, name)


def instrument(tracer) -> None:
    """Wrap the program's layer boundaries in spans (traced runs only)."""
    from gdcscan import adjust, backend, cli, io, scan, simbench

    def patch(module, attr, name, measure=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), measure))

    patch(cli, "open_genotypes", "io.open_genotypes")
    patch(cli, "read_phenotype_table", "io.read_phenotype_table")
    patch(cli, "align_samples", "io.align_samples")
    patch(cli, "write_results", "scan.write_results")
    patch(cli, "simulate_null", "simbench.simulate_null")
    patch(cli, "write_table", "simbench.write_table")
    patch(scan, "process_block", "scan.process_block")
    patch(scan, "record_row", "scan.record_row")
    patch(scan, "residualize", "adjust.residualize")
    patch(scan, "pvalue_bounds_batch", "nulldist.pvalue_bounds_batch",
          lambda args, kwargs, result: ("nulldist.bounds_snps", len(args[0])))
    patch(scan, "pvalue_bounds", "nulldist.pvalue_bounds",
          lambda args, kwargs, result: ("nulldist.bounds_snps", 1))
    patch(scan, "exact_pvalue_with_method", "nulldist.exact_pvalue_with_method",
          lambda args, kwargs, result: ("nulldist.exact_hits", result[0] < SCREEN_THRESHOLD))
    patch(simbench, "draw_genotypes", "simbench.draw_genotypes")
    patch(simbench, "exact_pvalues_batch", "nulldist.exact_pvalues_batch")
    adjust.CovariateMatrix.build = staticmethod(
        tracer.wrap("adjust.CovariateMatrix.build", adjust.CovariateMatrix.build)
    )
    backend.kernels = KernelProxy(backend.kernels, tracer)

    run_scan = cli.run_scan
    cli.run_scan = lambda *args, **kwargs: tracer.iterate(
        "scan.run_scan.next", run_scan(*args, **kwargs)
    )
    iter_blocks = io.PackedSource.iter_blocks

    def traced_iter_blocks(source, *args, **kwargs):
        width = (source.n_samples + 3) // 4
        return tracer.iterate(
            "io.iter_blocks.next", iter_blocks(source, *args, **kwargs),
            lambda block: ("io.packed_bytes", len(block.variants) * width),
        )

    io.PackedSource.iter_blocks = traced_iter_blocks


def derive(summary: dict, counters: dict, rows: dict, tests: int, threads: int) -> dict:
    """Per-layer values of one traced run.

    ``summary`` is :func:`spans.summarize` of its spans, ``rows`` the
    counts read from its output (``inversion``, ``numerics_errors``,
    ``fallback``).
    """

    def total(name):
        return summary.get(name, {}).get("total", 0.0)

    def own(name):
        return summary.get(name, {}).get("self", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    exact_calls = calls("nulldist.exact_pvalue_with_method")
    scan_next = summary.get("scan.run_scan.next")
    scan_wall = scan_next["last"] - scan_next["first"] if scan_next else 0.0
    return {
        "proc.import_s": total("proc.import"),
        "cli.self_s": own("cli.main"),
        "io.open_s": total("io.open_genotypes"),
        "io.pheno_s": total("io.read_phenotype_table") + total("io.align_samples"),
        "io.decode_s": total("io.iter_blocks.next"),
        "io.decode_mb_per_s": ratio(counters.get("io.packed_bytes", 0.0) / 1e6,
                                    total("io.iter_blocks.next")),
        "kernels.decode_s": total("kernels.decode_packed"),
        "kernels.hardcall_s": total("kernels.hardcall_stats"),
        "kernels.hardcall_calls": calls("kernels.hardcall_stats"),
        "kernels.hardcall_mb": counters.get("kernels.hardcall_bytes", 0.0) / 1e6,
        "adjust.build_s": total("adjust.CovariateMatrix.build"),
        "adjust.residualize_s": total("adjust.residualize"),
        "adjust.residualize_calls": calls("adjust.residualize"),
        "nulldist.bounds_s": total("nulldist.pvalue_bounds_batch") + total("nulldist.pvalue_bounds"),
        "nulldist.bounds_snps": counters.get("nulldist.bounds_snps", 0.0),
        "nulldist.exact_s": total("nulldist.exact_pvalue_with_method"),
        "nulldist.exact_calls": exact_calls,
        "nulldist.exact_share": ratio(exact_calls, tests),
        "nulldist.exact_hit_frac": ratio(counters.get("nulldist.exact_hits", 0.0), exact_calls),
        "nulldist.inversion_rows": rows.get("inversion", 0),
        "nulldist.numerics_errors": rows.get("numerics_errors", 0),
        "nulldist.exact_batch_s": total("nulldist.exact_pvalues_batch"),
        "scan.block_s": total("scan.process_block"),
        "scan.blocks": calls("scan.process_block"),
        "scan.block_self_s": own("scan.process_block"),
        "scan.fallback_snps": rows.get("fallback", 0),
        "scan.format_s": total("scan.record_row"),
        "scan.write_self_s": own("scan.write_results"),
        "scan.pool_busy_frac": ratio(total("scan.process_block"), threads * scan_wall),
        "simbench.draw_s": total("simbench.draw_genotypes"),
        "simbench.self_s": own("simbench.simulate_null"),
    }
