"""Field-by-field TSV row formatter: the reference that
``gdcscan.scan.record_row`` must match byte for byte.

Each float goes through ``format(v, ".17g")``, NaN and None print as NA,
everything else through ``str``, and ``p_upper`` is clamped to 1.
:func:`read_results` parses a results TSV back into records,
:func:`scan_records` flattens ``run_scan``'s block results into records
and :func:`block_result` makes a block result of hand-made records.
"""

import math

import numpy as np

from gdcscan.scan import METHODS, OUTPUT_COLUMNS, BlockResult, ScanRecord


def scan_records(results) -> list:
    """The records of a stream of block results, in order."""
    return [rec for result in results for rec in result.records()]


def block_result(records, b=3.0) -> BlockResult:
    """The block result whose rows are ``records``, which share ``b``;
    a None p-value becomes NaN."""
    assert all(rec.b == b for rec in records)

    def column(field, dtype=np.float64):
        return np.array([getattr(rec, field) for rec in records], dtype=dtype)

    return BlockResult(
        variants=[[rec.snp_id, rec.chrom, rec.pos] for rec in records], b=b,
        n_used=column("n_used", np.int64), maf=column("maf"), stat=column("stat"),
        lambda1=column("lambda1"), lambda2=column("lambda2"), p_lower=column("p_lower"),
        p_upper=column("p_upper"),
        p_value=np.array([math.nan if rec.p_value is None else rec.p_value for rec in records]),
        method=np.array([METHODS.index(rec.method) for rec in records], dtype=np.int8),
    )


def _fmt(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, float):
        if math.isnan(v):
            return "NA"
        return format(v, ".17g")
    return str(v)


def record_row(rec) -> str:
    fields = (
        rec.snp_id, rec.chrom, rec.pos, _fmt(rec.maf), rec.n_used, _fmt(rec.b),
        _fmt(rec.stat), _fmt(rec.lambda1), _fmt(rec.lambda2),
        _fmt(rec.p_lower), _fmt(min(rec.p_upper, 1.0) if not math.isnan(rec.p_upper) else rec.p_upper),
        _fmt(rec.p_value), rec.method, _fmt(rec.neg_log10_p),
    )
    return "\t".join(str(f) for f in fields)


def read_results(path: str) -> list:
    """Parse a results TSV back into ScanRecord objects."""
    out = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if tuple(header) != OUTPUT_COLUMNS:
            raise ValueError(f"{path}: unexpected result columns {header}")
        for line in fh:
            f = line.rstrip("\n").split("\t")
            if len(f) != len(OUTPUT_COLUMNS):
                raise ValueError(f"{path}: ragged result row")

            def num(s):
                return math.nan if s == "NA" else float(s)

            out.append(
                ScanRecord(
                    snp_id=f[0], chrom=f[1], pos=int(f[2]), maf=num(f[3]),
                    n_used=int(f[4]), b=num(f[5]), stat=num(f[6]),
                    lambda1=num(f[7]), lambda2=num(f[8]), p_lower=num(f[9]),
                    p_upper=num(f[10]),
                    p_value=None if f[11] == "NA" else float(f[11]),
                    method=f[12],
                )
            )
    return out
