"""Field-by-field TSV row formatter: the reference that
``gdcscan.scan.record_row`` must match byte for byte.

Each float goes through ``format(v, ".17g")``, NaN and None print as NA,
everything else through ``str``, and ``p_upper`` is clamped to 1.
"""

import math


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
