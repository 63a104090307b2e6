"""Field-by-field TSV row formatter: the reference that
``gdcscan.scan.record_row`` must match byte for byte.

Each float goes through ``format(v, ".17g")``, NaN and None print as NA,
everything else through ``str``, and ``p_upper`` is clamped to 1.
:func:`read_results` parses a results TSV back into records.
"""

import math

from gdcscan.scan import OUTPUT_COLUMNS, ScanRecord


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
