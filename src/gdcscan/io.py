"""Genotype, phenotype and covariate file codecs.

Two genotype formats are supported:

- **packed**: SNP-major 2-bit file. Header is the magic bytes 0x6C 0x1B
  followed by the mode byte 0x01; each SNP then occupies ceil(n/4) bytes,
  two bits per sample, little-endian within each byte (00 = homozygous
  first allele, 01 = missing, 10 = heterozygous, 11 = homozygous second
  allele).  Sidecar files sit next to the payload: ``<path>.variants.tsv``
  (snp_id, chrom, pos per line, same order) and ``<path>.samples.txt``
  (one sample ID per line).  Reading is streamed: each block reads its
  rows of the payload and its lines of the variant sidecar, so a scan
  holds one block and an 8-byte offset per SNP, whatever the SNP count.

- **dosage-tsv**: header ``sample_id<TAB>snp1<TAB>...``, one row per
  sample, dosages in [0, 2] or ``NA``.  Sample-major on disk, so the file
  is materialized once and served column-wise.

Phenotype/covariate tables are TSV with a ``sample_id`` column plus named
numeric columns, joined to the genotype samples by ID.
"""

from __future__ import annotations

import locale
import os
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import backend
from .premetric import check_genotypes

PACKED_MAGIC = b"\x6c\x1b"
PACKED_MODE_SNP_MAJOR = b"\x01"
DEFAULT_BLOCK_SIZE = 1024
# what open() decodes text files with
_ENCODING = locale.getpreferredencoding(False)


@dataclass
class VariantInfo:
    snp_id: str
    chrom: str
    pos: int


@dataclass
class Block:
    """A contiguous run of SNP columns with shared representation."""

    variants: list
    values: np.ndarray  # (n_snps, n_samples); int8 for "hard", float64 for "dosage"
    kind: str


def variants_path(geno_path: str) -> str:
    return geno_path + ".variants.tsv"


def samples_path(geno_path: str) -> str:
    return geno_path + ".samples.txt"


# ---------------------------------------------------------------------------
# packed 2-bit codec
# ---------------------------------------------------------------------------


def encode_packed(calls: np.ndarray, snp_ids=None) -> np.ndarray:
    """Pack calls (-1/0/1/2) into 2-bit codes, SNP-major; an error names
    the SNP by ``snp_ids``, or by its row."""
    calls = np.asarray(calls)
    if calls.ndim != 2:
        raise ValueError("calls must be (n_snps, n_samples)")
    calls = check_genotypes(
        calls, "hard", snp_ids or [f"row {i}" for i in range(len(calls))])
    codes = np.empty(calls.shape, dtype=np.uint8)
    codes[calls == 0] = 0b00
    codes[calls == -1] = 0b01
    codes[calls == 1] = 0b10
    codes[calls == 2] = 0b11
    n_snps, n = calls.shape
    nbytes = (n + 3) // 4
    padded = np.zeros((n_snps, nbytes * 4), dtype=np.uint8)
    padded[:, :n] = codes
    quads = padded.reshape(n_snps, nbytes, 4)
    shifts = np.array([0, 2, 4, 6], dtype=np.uint8)
    return (quads << shifts).sum(axis=2).astype(np.uint8)


def write_packed(path: str, calls: np.ndarray, variants, sample_ids) -> None:
    """Write the packed payload and its two sidecar files.  ``variants``
    holds a ``VariantInfo`` or an (snp_id, chrom, pos) tuple per row."""
    calls = np.asarray(calls)
    n_snps, n = calls.shape
    if len(variants) != n_snps:
        raise ValueError("one variant record per SNP row required")
    if len(sample_ids) != n:
        raise ValueError("one sample ID per column required")
    variants = [v if isinstance(v, VariantInfo) else VariantInfo(*v) for v in variants]
    payload = encode_packed(calls, [v.snp_id for v in variants])
    with open(path, "wb") as fh:
        fh.write(PACKED_MAGIC + PACKED_MODE_SNP_MAJOR)
        fh.write(payload.tobytes())
    with open(variants_path(path), "w") as fh:
        for v in variants:
            fh.write(f"{v.snp_id}\t{v.chrom}\t{v.pos}\n")
    with open(samples_path(path), "w") as fh:
        for sid in sample_ids:
            fh.write(f"{sid}\n")


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write ``lines``, each followed by a newline, through
    ``path + ".partial"`` and ``os.replace``: a failed write leaves neither
    file behind."""
    tmp = path + ".partial"
    try:
        with open(tmp, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _check_variant(fields: list) -> None:
    """Refuse a sidecar line's fields unless they are snp_id, chrom and
    an integer position."""
    if len(fields) != 3:
        raise ValueError("expected snp_id<TAB>chrom<TAB>pos")
    try:
        int(fields[2])
    except ValueError:
        raise ValueError(f"position {fields[2]!r} is not an integer") from None


def _index_variants(path: str) -> tuple:
    """Check a variant sidecar in one pass and index it.

    Every line that is not blank must hold snp_id, chrom and an integer
    position, tab-separated; an error names ``<path>:<line>``.  Returns
    the byte offset of each such line, then the file's length, as an
    int64 ``array`` (8 bytes per SNP), and the file's (size, mtime) stamp.
    """
    starts = array("q")
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode(_ENCODING).rstrip("\n").removesuffix("\r")
                if line:  # not a blank line
                    _check_variant(line.split("\t"))
                    starts.append(offset)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            offset += len(raw)
        stamp = _stamp(fh)
    starts.append(offset)
    return starts, stamp


def _stamp(fh) -> tuple:
    stat = os.fstat(fh.fileno())
    return stat.st_size, stat.st_mtime_ns


class _BlockSource:
    """A genotype source served in blocks of consecutive SNPs.

    A source sets ``kind`` and ``n_snps``; for the SNPs ``start:stop`` it
    reads their ``VariantInfo`` list in ``_variants`` and their rows in
    ``_read``.  An in-memory source holds all of them: a ``variants`` list
    and an (n_snps, n_samples) ``_matrix``.  A streamed source reads both
    per block, so one block is all it holds of the panel.
    """

    def iter_blocks(self, block_size: int = DEFAULT_BLOCK_SIZE,
                    kernels=None) -> Iterator[Block]:
        """Blocks of ``block_size`` SNPs in order; ``kernels`` is the kernel
        module that decodes packed rows (None: ``backend.kernels``)."""
        kernels = backend.kernels if kernels is None else kernels
        for start in range(0, self.n_snps, block_size):
            stop = min(start + block_size, self.n_snps)
            yield Block(variants=self._variants(start, stop),
                        values=self._read(start, stop, kernels), kind=self.kind)

    def _variants(self, start: int, stop: int) -> list:
        return self.variants[start:stop]

    def _read(self, start: int, stop: int, kernels) -> np.ndarray:
        return np.ascontiguousarray(self._matrix[start:stop])


class PackedSource(_BlockSource):
    """Streaming reader for the packed 2-bit format.

    Opening checks the header, the payload size and every line of the
    variant sidecar (lines end in LF or CRLF; blank lines are skipped),
    and keeps only the byte offset of each SNP's line.  Each block then
    reads its SNPs' rows of the payload and their lines of the sidecar,
    so a scan holds one block of calls whatever the SNP count.  A payload
    cut short is an error naming it, and so is a sidecar whose size or
    mtime changed since opening or whose block no longer starts and ends
    on the line boundaries found then.  An edit that keeps all of these
    (a same-size rewrite that keeps the mtime) is read as it now stands.
    """

    kind = "hard"

    def __init__(self, path: str):
        self.path = path
        with open(samples_path(path)) as fh:
            self.sample_ids = [line.strip() for line in fh if line.strip()]
        self.n_samples = len(self.sample_ids)
        self._bytes_per_snp = (self.n_samples + 3) // 4
        payload = os.path.getsize(path) - 3
        if payload < 0:
            raise ValueError(f"{path}: truncated header")
        if self._bytes_per_snp and payload % self._bytes_per_snp != 0:
            raise ValueError(
                f"{path}: payload size {payload} is not a multiple of "
                f"{self._bytes_per_snp} bytes per SNP"
            )
        self.n_snps = payload // self._bytes_per_snp if self._bytes_per_snp else 0
        with open(path, "rb") as fh:
            head = fh.read(3)
        if head[:2] != PACKED_MAGIC:
            raise ValueError(f"{path}: bad magic bytes {head[:2]!r}")
        if head[2:3] != PACKED_MODE_SNP_MAJOR:
            raise ValueError(f"{path}: unsupported mode byte {head[2:3]!r}")
        self._line_starts, self._sidecar_stamp = _index_variants(variants_path(path))
        if self.n_snps != len(self._line_starts) - 1:
            raise ValueError(
                f"{path}: payload holds {self.n_snps} SNPs but the variant "
                f"sidecar lists {len(self._line_starts) - 1}"
            )

    def _variants(self, start: int, stop: int) -> list:
        path = variants_path(self.path)
        lo, hi = self._line_starts[start], self._line_starts[stop]
        # from the byte before the block on, which must end a line
        at = max(lo - 1, 0)
        with open(path, "rb") as fh:
            stamp = _stamp(fh)
            fh.seek(at)
            raw = fh.read(hi - at)
        out = []
        if (stamp == self._sidecar_stamp and len(raw) == hi - at
                and (lo == 0 or raw.startswith(b"\n"))
                and (hi == stamp[0] or raw.endswith(b"\n"))):
            # lines checked at open: int() takes a position's "\r" as blank,
            # and the split skips the "\n" before the block
            try:
                out = [VariantInfo(snp_id, chrom, int(pos)) for snp_id, chrom, pos in
                       (line.split("\t") for line in raw.decode(_ENCODING).split("\n")
                        if line and line != "\r")]
            except ValueError:
                out = []
        if len(out) != stop - start:
            raise ValueError(f"{path}: changed since it was opened")
        return out

    def _read(self, start: int, stop: int, kernels) -> np.ndarray:
        count, width = stop - start, self._bytes_per_snp
        with open(self.path, "rb") as fh:
            fh.seek(3 + start * width)
            raw = fh.read(count * width)
        if len(raw) != count * width:
            raise ValueError(f"{self.path}: truncated payload")
        mat = np.frombuffer(raw, dtype=np.uint8).reshape(count, width)
        return kernels.decode_packed(mat, self.n_samples)


# ---------------------------------------------------------------------------
# dosage TSV codec
# ---------------------------------------------------------------------------


def write_dosage_tsv(path: str, dosages: np.ndarray, snp_ids, sample_ids) -> None:
    """Write a sample-major dosage table (rows = samples)."""
    dosages = np.asarray(dosages, dtype=np.float64)
    n, n_snps = dosages.shape
    if len(sample_ids) != n or len(snp_ids) != n_snps:
        raise ValueError("dosage matrix must be (n_samples, n_snps)")
    with open(path, "w") as fh:
        fh.write("sample_id\t" + "\t".join(snp_ids) + "\n")
        for i, sid in enumerate(sample_ids):
            row = "\t".join(
                "NA" if np.isnan(v) else format(v, ".17g") for v in dosages[i]
            )
            fh.write(f"{sid}\t{row}\n")


class DosageSource(_BlockSource):
    """Reader for the sample-major dosage TSV.

    The whole panel is held in memory.  Each sample row becomes a float64
    array as it is read and the rows are stacked at the end, so parsing
    peaks at about twice the final (samples x SNPs) matrix.
    """

    kind = "dosage"

    def __init__(self, path: str):
        self.path = path
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if not header or header[0] != "sample_id":
                raise ValueError(f"{path}: first header field must be 'sample_id'")
            self.snp_ids = header[1:]
            sample_ids = []
            rows = []
            for lineno, line in enumerate(fh, 2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != len(header):
                    raise ValueError(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}"
                    )
                sample_ids.append(parts[0])
                rows.append(np.array(
                    [np.nan if p == "NA" else float(p) for p in parts[1:]],
                    dtype=np.float64,
                ))
        self.sample_ids = sample_ids
        self.n_samples = len(sample_ids)
        self.n_snps = len(self.snp_ids)
        matrix = np.vstack(rows) if rows else np.empty((0, self.n_snps))
        del rows  # a second copy of the matrix
        # SNP-major view of the sample-major matrix; blocks copy their rows
        self._matrix = check_genotypes(matrix.T, "dosage", self.snp_ids, path)
        self.variants = [VariantInfo(s, ".", 0) for s in self.snp_ids]


class ArraySource(_BlockSource):
    """In-memory genotype source (simulation and benchmark panels)."""

    def __init__(self, values: np.ndarray, kind: str = "hard", snp_ids=None,
                 sample_ids=None):
        values = np.asarray(values)
        self.n_snps, self.n_samples = values.shape
        self.snp_ids = snp_ids or [f"snp{i}" for i in range(self.n_snps)]
        self._matrix = check_genotypes(values, kind, self.snp_ids)
        self.kind = kind
        self.sample_ids = sample_ids or [f"s{i}" for i in range(self.n_samples)]
        self.variants = [VariantInfo(s, ".", i) for i, s in enumerate(self.snp_ids)]


class SubsetSource:
    """View of another source restricted to a fixed sample index set."""

    def __init__(self, source, sample_index: np.ndarray):
        self._source = source
        self._idx = np.asarray(sample_index, dtype=np.intp)
        self.kind = source.kind
        self.n_samples = int(self._idx.size)
        self.n_snps = source.n_snps
        self.sample_ids = [source.sample_ids[i] for i in self._idx]

    def iter_blocks(self, block_size: int = DEFAULT_BLOCK_SIZE,
                    kernels=None) -> Iterator[Block]:
        # map holds no block of the source once it has handed on its subset
        return map(self._subset, self._source.iter_blocks(block_size, kernels=kernels))

    def _subset(self, block: Block) -> Block:
        return Block(variants=block.variants,
                     values=np.ascontiguousarray(block.values[:, self._idx]),
                     kind=block.kind)


def open_genotypes(path: str, fmt: str):
    """Open a genotype file in the named format ('packed' or 'dosage-tsv')."""
    if fmt == "packed":
        return PackedSource(path)
    if fmt == "dosage-tsv":
        return DosageSource(path)
    raise ValueError(f"unknown genotype format {fmt!r}")


# ---------------------------------------------------------------------------
# phenotype / covariate tables
# ---------------------------------------------------------------------------


def read_phenotype_table(path: str):
    """Read a TSV with a sample_id column and named numeric columns.

    Returns (sample_ids, {name: float64 array}).
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if "sample_id" not in header:
            raise ValueError(f"{path}: header must contain a sample_id column")
        dup = _first_duplicate(header)
        if dup is not None:
            raise ValueError(f"{path}: duplicated column {dup!r} in the header")
        id_idx = header.index("sample_id")
        names = [h for i, h in enumerate(header) if i != id_idx]
        ids = []
        cols = {name: [] for name in names}
        for lineno, line in enumerate(fh, 2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}"
                )
            ids.append(parts[id_idx])
            j = 0
            for i, val in enumerate(parts):
                if i == id_idx:
                    continue
                cols[names[j]].append(np.nan if val == "NA" else float(val))
                j += 1
    return ids, {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()}


def _first_duplicate(names):
    """The first name that occurs a second time, or None."""
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def align_samples(geno_ids, table_ids, allow_missing: bool = False) -> tuple:
    """Match genotype samples to table rows by ID.

    Returns (geno_index, table_index) arrays.  A duplicated ID on either
    side is an error naming it.  Without ``allow_missing`` any unmatched
    ID on either side is an error naming both counts.
    """
    for side, ids in (("genotype", geno_ids), ("phenotype table", table_ids)):
        dup = _first_duplicate(ids)
        if dup is not None:
            raise ValueError(f"duplicated sample ID {dup!r} in the {side} samples")
    table_pos = {sid: i for i, sid in enumerate(table_ids)}
    geno_idx, table_idx = [], []
    for i, sid in enumerate(geno_ids):
        j = table_pos.get(sid)
        if j is not None:
            geno_idx.append(i)
            table_idx.append(j)
    if not allow_missing and (
        len(geno_idx) != len(geno_ids) or len(geno_idx) != len(table_ids)
    ):
        raise ValueError(
            f"sample mismatch: {len(geno_ids)} genotype samples vs "
            f"{len(table_ids)} table rows, {len(geno_idx)} matched "
            "(pass --allow-missing-samples to scan the intersection)"
        )
    if len(geno_idx) == 0:
        raise ValueError("no overlapping sample IDs between genotypes and table")
    return np.asarray(geno_idx, dtype=np.intp), np.asarray(table_idx, dtype=np.intp)
