"""Genotype, phenotype and covariate file codecs.

Two genotype formats are supported:

- **packed**: SNP-major 2-bit file. Header is the magic bytes 0x6C 0x1B
  followed by the mode byte 0x01; each SNP then occupies ceil(n/4) bytes,
  two bits per sample, little-endian within each byte (00 = homozygous
  first allele, 01 = missing, 10 = heterozygous, 11 = homozygous second
  allele).  Sidecar files sit next to the payload: ``<path>.variants.tsv``
  (snp_id, chrom, pos per line, same order) and ``<path>.samples.txt``
  (one sample ID per line).  Reading is streamed: a pass over the blocks
  reads the payload and the variant sidecar forward, so a scan holds one
  block, whatever the SNP count.

- **dosage-tsv**: header ``sample_id<TAB>snp1<TAB>...``, one row per
  sample, dosages in [0, 2] or ``NA``.  Sample-major on disk, so the file
  is materialized once and served column-wise.

Phenotype/covariate tables are TSV with a ``sample_id`` column plus named
numeric columns, joined to the genotype samples by ID.

Every reader and both writers hold sample and SNP IDs to one rule,
:func:`_check_id`; the writers apply it before they open any file, so
they write no panel that reads back with its samples or SNPs shifted.
"""

from __future__ import annotations

import locale
import math
import os
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
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
class Block:
    """A contiguous run of SNP columns with shared representation;
    ``variants`` holds each SNP's ``[snp_id, chrom, pos]``."""

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
    holds each row's (snp_id, chrom, pos); calls and IDs are checked first."""
    calls = np.asarray(calls)
    n_snps, n = calls.shape
    if len(variants) != n_snps:
        raise ValueError("one variant record per SNP row required")
    if len(sample_ids) != n:
        raise ValueError("one sample ID per column required")
    ids = [_check_id("SNP", str(v[0]), variants_path(path), i) for i, v in enumerate(variants, 1)]
    sample_ids = [_check_id("sample", str(sid), samples_path(path), i)
                  for i, sid in enumerate(sample_ids, 1)]
    payload = encode_packed(calls, ids)
    with open(path, "wb") as fh:
        fh.write(PACKED_MAGIC + PACKED_MODE_SNP_MAJOR)
        fh.write(payload.tobytes())
    with open(variants_path(path), "w") as fh:
        for snp_id, chrom, pos in variants:
            fh.write(f"{snp_id}\t{chrom}\t{pos}\n")
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
            # writelines drops each line before it asks for the next
            fh.writelines(map("{}\n".format, lines))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _variant_rows(fh, path: str, crc: list) -> Iterator[list]:
    """The [snp_id, chrom, pos] of each line of the variant sidecar ``fh``,
    opened in binary, that is not blank, read forward ``DEFAULT_BLOCK_SIZE``
    lines at a time.  ``crc[0]`` holds the running CRC-32 of the lines read
    so far, which runs ahead of the rows yielded.  A line that is not an
    :func:`_check_id` SNP ID, a nonempty chrom and an integer position, tab-separated
    and ending in LF or CRLF, is an error naming ``<path>:<line>``; a
    position with digit groups or padding is no integer."""
    first = 1
    while lines := list(islice(fh, DEFAULT_BLOCK_SIZE)):
        raw = b"".join(lines)
        crc[0] = zlib.crc32(raw, crc[0])
        try:
            text = raw.decode(_ENCODING)
        except UnicodeDecodeError as exc:
            newlines = raw.count(b"\n", 0, exc.start)
            raise ValueError(f"{path}:{first + newlines}: {exc}") from None
        for lineno, line in enumerate(text.split("\n"), first):
            line = line.removesuffix("\r")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3 or not fields[1]:
                raise ValueError(f"{path}:{lineno}: expected snp_id<TAB>chrom<TAB>pos")
            _check_id("SNP", fields[0], path, lineno)
            pos = fields[2]
            try:
                # int() also reads digit groups such as 1_0 and strips padding
                if "_" in pos or pos != pos.strip():
                    raise ValueError
                fields[2] = int(pos)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: position {pos!r} is not an integer") from None
            yield fields
        first += len(lines)


def _stamp(fh) -> tuple:
    stat = os.fstat(fh.fileno())
    return stat.st_size, stat.st_mtime_ns


class _BlockSource:
    """A genotype source served in blocks of consecutive SNPs.

    A source sets ``kind`` and ``n_snps``.  Each pass over the blocks
    enters ``_open(kernels)``, a context giving ``read(start, stop)``: the
    ``[snp_id, chrom, pos]`` rows and the genotype rows of SNPs
    ``start:stop``, asked for in order.  An in-memory source slices its
    ``variants`` list and its (n_snps, n_samples) ``_matrix``; a streamed
    one reads forward through files that belong to the pass.
    """

    def iter_blocks(self, block_size: int = DEFAULT_BLOCK_SIZE,
                    kernels=None) -> Iterator[Block]:
        """Blocks of ``block_size`` SNPs in order; ``kernels`` is the kernel
        module that decodes packed rows (None: ``backend.kernels``)."""
        kernels = backend.kernels if kernels is None else kernels
        with self._open(kernels) as read:
            for start in range(0, self.n_snps, block_size):
                yield Block(*read(start, min(start + block_size, self.n_snps)),
                            kind=self.kind)

    @contextmanager
    def _open(self, kernels):
        yield lambda start, stop: (self.variants[start:stop],
                                   np.ascontiguousarray(self._matrix[start:stop]))


class PackedSource(_BlockSource):
    """Streaming reader for the packed 2-bit format.

    Opening checks the header, the payload size and every sidecar line in
    one pass, and keeps the (size, mtime) stamps of both files and the
    sidecar's CRC-32.  Each pass over the blocks reads both forward through
    handles of its own, closed when it ends or is dropped.  Each block
    checks both stamps, and the last also the CRC-32 of the whole sidecar:
    a file that fails is an error naming it as changed since it was opened.
    """

    kind = "hard"

    def __init__(self, path: str):
        self.path = path
        ids = samples_path(path)
        with open(ids) as fh:
            self.sample_ids = [_check_id("sample", line.rstrip("\n"), ids, lineno)
                               for lineno, line in enumerate(fh, 1) if line != "\n"]
        self.n_samples = len(self.sample_ids)
        self._bytes_per_snp = (self.n_samples + 3) // 4
        with open(path, "rb") as fh:
            head = fh.read(3)
            self._stamp = _stamp(fh)
        payload = self._stamp[0] - 3
        if payload < 0:
            raise ValueError(f"{path}: truncated header")
        if self._bytes_per_snp and payload % self._bytes_per_snp != 0:
            raise ValueError(
                f"{path}: payload size {payload} is not a multiple of "
                f"{self._bytes_per_snp} bytes per SNP"
            )
        self.n_snps = payload // self._bytes_per_snp if self._bytes_per_snp else 0
        if head[:2] != PACKED_MAGIC:
            raise ValueError(f"{path}: bad magic bytes {head[:2]!r}")
        if head[2:3] != PACKED_MODE_SNP_MAJOR:
            raise ValueError(f"{path}: unsupported mode byte {head[2:3]!r}")
        sidecar, crc = variants_path(path), [0]
        with open(sidecar, "rb") as fh:
            count = sum(1 for _ in _variant_rows(fh, sidecar, crc))
            self._sidecar_stamp = _stamp(fh)
        self._sidecar_crc = crc[0]
        if self.n_snps != count:
            raise ValueError(
                f"{path}: payload holds {self.n_snps} SNPs but the variant "
                f"sidecar lists {count}"
            )

    @contextmanager
    def _open(self, kernels):
        sidecar = variants_path(self.path)
        width = self._bytes_per_snp
        with open(self.path, "rb") as payload, open(sidecar, "rb") as lines:
            payload.seek(3)
            crc = [0]
            rows = _variant_rows(lines, sidecar, crc)

            def read(start: int, stop: int) -> tuple:
                count, last = stop - start, stop == self.n_snps
                raw = payload.read(count * width)
                if _stamp(payload) != self._stamp or len(raw) != count * width:
                    raise ValueError(f"{self.path}: changed since it was opened")
                try:
                    if _stamp(lines) != self._sidecar_stamp:
                        raise ValueError("its size or mtime changed")
                    out = list(islice(rows, count))
                    if last:  # the rest holds blank lines at most: a row breaks the count
                        out += rows
                    if len(out) != count or last and crc[0] != self._sidecar_crc:
                        raise ValueError("its lines or CRC-32 changed")
                except ValueError as exc:
                    raise ValueError(f"{sidecar}: changed since it was opened") from exc
                mat = np.frombuffer(raw, dtype=np.uint8).reshape(count, width)
                return out, kernels.decode_packed(mat, self.n_samples)

            yield read


# ---------------------------------------------------------------------------
# dosage TSV codec
# ---------------------------------------------------------------------------


def write_dosage_tsv(path: str, dosages: np.ndarray, snp_ids, sample_ids) -> None:
    """Write a sample-major dosage table (rows = samples).  Dosages and
    IDs are checked as :class:`DosageSource` reads them, before the file
    is opened, so a table it would refuse writes no file."""
    dosages = np.asarray(dosages, dtype=np.float64)
    n, n_snps = dosages.shape
    if len(sample_ids) != n or len(snp_ids) != n_snps:
        raise ValueError("dosage matrix must be (n_samples, n_snps)")
    snp_ids = [_check_id("SNP", s, path, 1) for s in snp_ids]
    sample_ids = [_check_id("sample", str(sid), path, i)
                  for i, sid in enumerate(sample_ids, 2)]
    check_genotypes(dosages.T, "dosage", snp_ids)
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
            self.snp_ids = [_check_id("SNP", s, path, 1) for s in header[1:]]
            sample_ids, rows = [], []
            for sample_id, values in _table_rows(fh, header, 0, path):
                sample_ids.append(sample_id)
                rows.append(np.array(values, dtype=np.float64))
        self.sample_ids = sample_ids
        self.n_samples = len(sample_ids)
        self.n_snps = len(self.snp_ids)
        matrix = np.vstack(rows) if rows else np.empty((0, self.n_snps))
        del rows  # a second copy of the matrix
        # SNP-major view of the sample-major matrix; blocks copy their rows
        self._matrix = check_genotypes(matrix.T, "dosage", self.snp_ids, path)
        self.variants = [[s, ".", 0] for s in self.snp_ids]


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
        self.variants = [[s, ".", i] for i, s in enumerate(self.snp_ids)]


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
        ids, cols = [], {name: [] for name in names}
        for sample_id, values in _table_rows(fh, header, id_idx, path):
            ids.append(sample_id)
            for name, value in zip(names, values):
                cols[name].append(value)
    return ids, {k: np.asarray(v, dtype=np.float64) for k, v in cols.items()}


def _check_id(kind: str, field: str, path: str, lineno: int) -> str:
    """``field`` as a ``kind`` ("sample" or "SNP") ID, one rule for every
    reader and both writers: an ID that is empty, padded with whitespace or
    not printable (a tab or a line break among them) is an error naming
    ``<path>:<line>``, since it would match one side's IDs only or split
    into other fields or lines."""
    if not field or field != field.strip() or not field.isprintable():
        raise ValueError(
            f"{path}:{lineno}: {kind} ID {field!r} is empty, padded or not printable")
    return field


def _table_rows(fh, header: list, id_col: int, path: str) -> Iterator[tuple]:
    """The sample ID and the other fields as floats, NA as NaN, of each
    line after the header of a TSV table that is not blank.  A line whose
    field count is not the header's, a sample ID :func:`_check_id`
    refuses, or a field other than NA that is no finite number, holds
    ``_`` or is padded with whitespace, is an error naming
    ``<path>:<line>``, and for a field its column."""
    names = header[:id_col] + header[id_col + 1:]
    for lineno, line in enumerate(fh, 2):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(header):
            raise ValueError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}")
        sample_id, values = _check_id("sample", fields.pop(id_col), path, lineno), []
        for name, field in zip(names, fields):
            try:
                value = np.nan if field == "NA" else float(field)
                # float() also reads inf, nan and digit groups such as 1_0,
                # and strips padding
                if "_" in field or field != field.strip() or not (
                        math.isfinite(value) or field == "NA"):
                    raise ValueError(f"not NA or a finite number: {field!r}")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: column {name}: {exc}") from None
            values.append(value)
        yield sample_id, values


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
