"""Codecs: packed 2-bit genotypes, dosage TSV, phenotype tables."""

import math
import os
import pathlib
import re

import numpy as np
import pytest

from gdcscan import GenotypeColumn, Sample, backend, get_backend
from gdcscan import io as io_module
from gdcscan import scan as scan_module
from gdcscan.io import (
    ArraySource,
    DosageSource,
    PackedSource,
    SubsetSource,
    align_samples,
    encode_packed,
    read_phenotype_table,
    write_dosage_tsv,
    write_packed,
)
from gdcscan.scan import ScanConfig, run_scan


def _write_panel(tmp_path, calls, name="panel.geno"):
    path = str(tmp_path / name)
    n_snps, n = calls.shape
    variants = [(f"rs{i}", "1", 1000 + i) for i in range(n_snps)]
    samples = [f"ind{j}" for j in range(n)]
    write_packed(path, calls, variants, samples)
    return path


def test_packed_bit_layout():
    """One byte holds four samples, little-endian 2-bit codes:
    00 -> 0, 01 -> missing, 10 -> het, 11 -> hom second."""
    byte = 0b11_10_01_00  # samples 0..3 from the low bits up
    calls = backend.kernels.decode_packed(
        np.array([[byte]], dtype=np.uint8), 4
    )
    np.testing.assert_array_equal(calls[0], [0, -1, 1, 2])


def _decode_by_bits(raw, n):
    """Reference decode: shift and mask each sample's bit pair."""
    code_to_call = {0b00: 0, 0b01: -1, 0b10: 1, 0b11: 2}
    out = np.empty((raw.shape[0], n), dtype=np.int8)
    for r in range(raw.shape[0]):
        for j in range(n):
            out[r, j] = code_to_call[(int(raw[r, j // 4]) >> (2 * (j % 4))) & 0b11]
    return out


@pytest.mark.parametrize("n", [1021, 1022, 1023, 1024])
def test_decode_packed_matches_bit_reference(n):
    """Every byte value, every n mod 4 (the pad bits of the last byte carry
    garbage), and one- and zero-row blocks, on the backend in use."""
    rng = np.random.default_rng(n)
    width = (n + 3) // 4
    every_byte = np.arange(256, dtype=np.uint8)[None, :]
    raw = np.vstack([every_byte, rng.integers(0, 256, size=(3, width), dtype=np.uint8)])
    raw[1:, -1] |= 0b11000000  # garbage in the pad bits
    for block in (raw, raw[:1], raw[1:2], raw[:0]):
        calls = backend.kernels.decode_packed(block, n)
        assert calls.dtype == np.int8 and calls.shape == (block.shape[0], n)
        np.testing.assert_array_equal(calls, _decode_by_bits(block, n))


def test_packed_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for n in (5, 6, 7, 8, 13):
        calls = rng.integers(-1, 3, size=(9, n)).astype(np.int8)
        path = _write_panel(tmp_path, calls, name=f"p{n}.geno")
        src = PackedSource(path)
        assert src.n_samples == n
        assert src.n_snps == 9
        got = np.vstack([b.values for b in src.iter_blocks(4)])
        np.testing.assert_array_equal(got, calls)


def test_packed_encode_shape():
    enc = encode_packed(np.array([[0, 1, 2, -1, 2]], dtype=np.int8))
    assert enc.shape == (1, 2)
    with pytest.raises(ValueError, match="row 1: hard calls must be 0/1/2 or -1, got 3"):
        encode_packed(np.array([[0, 1], [2, 3]]))


def test_packed_bad_magic(tmp_path):
    path = str(tmp_path / "bad.geno")
    with open(path, "wb") as fh:
        fh.write(b"\x00\x00\x01" + b"\x00" * 4)
    with open(str(tmp_path / "bad.geno.variants.tsv"), "w") as fh:
        fh.write("rs0\t1\t1\n")
    with open(str(tmp_path / "bad.geno.samples.txt"), "w") as fh:
        fh.write("a\nb\n")
    with pytest.raises(ValueError, match="magic"):
        PackedSource(path)


def test_packed_bad_mode(tmp_path):
    calls = np.zeros((1, 4), dtype=np.int8)
    path = _write_panel(tmp_path, calls)
    raw = pathlib.Path(path).read_bytes()
    with open(path, "wb") as fh:
        fh.write(raw[:2] + b"\x02" + raw[3:])
    with pytest.raises(ValueError, match="mode"):
        PackedSource(path)


def test_packed_variant_count_mismatch(tmp_path):
    calls = np.zeros((2, 4), dtype=np.int8)
    path = _write_panel(tmp_path, calls)
    with open(path + ".variants.tsv", "a") as fh:
        fh.write("rs_extra\t1\t5\n")
    with pytest.raises(ValueError, match="variant"):
        PackedSource(path)


def _rewrite_sidecar(path, edit):
    """Replace the variant sidecar of ``path`` by ``edit`` of its text."""
    sidecar = pathlib.Path(path + ".variants.tsv")
    sidecar.write_bytes(edit(sidecar.read_bytes()))
    return str(sidecar)


def test_sidecar_bad_position_names_file_and_line(tmp_path):
    path = _write_panel(tmp_path, np.zeros((4, 6), dtype=np.int8))
    sidecar = _rewrite_sidecar(path, lambda text: text.replace(b"\t1002\n", b"\tx12\n"))
    with pytest.raises(ValueError) as err:
        PackedSource(path)
    assert str(err.value) == f"{sidecar}:3: position 'x12' is not an integer"
    _rewrite_sidecar(path, lambda text: text.replace(b"rs1\t1\t", b"rs1\t"))
    with pytest.raises(ValueError, match=r"variants\.tsv:2: expected snp_id<TAB>chrom<TAB>pos"):
        PackedSource(path)


@pytest.mark.parametrize("row", [("", "", 5), ("", "1", 5), ("rs0", "", 5)],
                         ids=["both", "snp_id", "chrom"])
def test_sidecar_refuses_an_empty_snp_id_or_chrom(tmp_path, row):
    """A sidecar row with no SNP ID or no chromosome would give a results
    row that nothing can join back: it is refused at open, naming its
    line, as every pass would refuse it."""
    path = str(tmp_path / "p.geno")
    write_packed(path, np.zeros((2, 4), dtype=np.int8), [row, ("rs1", "1", 6)], list("abcd"))
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}\.variants\.tsv:1: expected"):
        list(PackedSource(path).iter_blocks())


@pytest.mark.parametrize("sample_id, field", [(" a", " a"), ("a ", "a "), ("\ta", ""),
                                              (" ", " ")])
def test_samples_file_and_tables_share_one_sample_id_rule(tmp_path, sample_id, field):
    """An empty or padded sample ID is refused, naming its file and line,
    in the packed samples file (``sample_id``) and in the phenotype and
    dosage tables (``field``, with no tab, which would split the row)
    alike, so no ID is matched on one side only; blank lines are skipped
    in both."""
    path = _write_panel(tmp_path, np.zeros((2, 3), dtype=np.int8))
    samples = pathlib.Path(path + ".samples.txt")
    samples.write_text(f"\nind0\n{sample_id}\nind2\n")
    message = rf":3: sample ID {re.escape(repr(sample_id))} is empty or padded$"
    with pytest.raises(ValueError, match=rf"^{re.escape(str(samples))}{message}"):
        PackedSource(path)
    samples.write_text("\nind0\nind1\n\nind2\n")
    assert PackedSource(path).sample_ids == ["ind0", "ind1", "ind2"]
    message = rf":4: sample ID {re.escape(repr(field))} is empty or padded$"
    pheno = tmp_path / "pheno.tsv"
    for text in (f"sample_id\ty\nind0\t1.5\n\n{field}\t2.5\n",
                 f"y\tsample_id\n1.5\tind0\n\n2.5\t{field}\n"):
        pheno.write_text(text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(pheno))}{message}"):
            read_phenotype_table(str(pheno))
    dosage = tmp_path / "d.tsv"
    dosage.write_text(f"sample_id\tsnp1\nind0\t1.0\n\n{field}\t0.5\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(dosage))}{message}"):
        DosageSource(str(dosage))


def test_sidecar_blank_lines_and_crlf_give_the_same_blocks(tmp_path):
    rng = np.random.default_rng(5)
    n_snps = 7
    calls = rng.integers(-1, 3, size=(n_snps, 9)).astype(np.int8)
    plain = PackedSource(_write_panel(tmp_path, calls, name="lf.geno"))
    path = _write_panel(tmp_path, calls, name="crlf.geno")
    _rewrite_sidecar(path, lambda text: b"\r\n\n" + text.replace(
        b"\n", b"\r\n").replace(b"rs3", b"\n\r\nrs3") + b"\r\n\n")
    crlf = PackedSource(path)
    for size in (1, 3, n_snps + 5):
        for a, b in zip(plain.iter_blocks(size), crlf.iter_blocks(size), strict=True):
            assert a.variants == b.variants and np.array_equal(a.values, b.values)
    assert [v[0] for b in crlf.iter_blocks(3) for v in b.variants] == [
        f"rs{i}" for i in range(n_snps)]


def test_sidecar_non_ascii_ids_and_signed_positions(tmp_path):
    """Non-ASCII IDs and signed or zero positions pass the check at open
    and are read back by each block."""
    variants = [["rs0\u00e9", "1", -5], ["rs1", "X", 0], ["rs2", "1", 7]]
    path = str(tmp_path / "p.geno")
    write_packed(path, np.zeros((3, 4), dtype=np.int8), variants, list("abcd"))
    _rewrite_sidecar(path, lambda text: text.replace(b"\t7\n", b"\t+7\n"))
    for size in (1, 2, 3):
        assert [v for b in PackedSource(path).iter_blocks(size) for v in b.variants] == variants


def test_sidecar_rows_around_a_run_of_blank_lines_longer_than_a_chunk(tmp_path):
    """The sidecar is read 1 024 lines at a time: rows on both sides of
    1 500 blank lines, at block sizes on both sides of a chunk, give the
    blocks of an in-memory source of the same calls, the count at open
    holds, and a bad line after the run is named by its own line."""
    rng = np.random.default_rng(11)
    n_snps, before, blank = 2100, 1000, 1500
    calls = rng.integers(-1, 3, size=(n_snps, 6)).astype(np.int8)
    reference = ArraySource(calls)
    path = str(tmp_path / "gaps.geno")
    write_packed(path, calls, reference.variants, reference.sample_ids)
    lines = pathlib.Path(path + ".variants.tsv").read_bytes().splitlines(keepends=True)
    _rewrite_sidecar(path, lambda text: b"".join(
        lines[:before] + [b"\n", b"\r\n"] * (blank // 2) + lines[before:]))
    source = PackedSource(path)
    assert source.n_snps == n_snps
    for size in (1, 1023, 1024, 1025, 5000):
        got, want = source.iter_blocks(size), reference.iter_blocks(size)
        for a, b in zip(got, want, strict=True):
            assert a.variants == b.variants and np.array_equal(a.values, b.values)
    sidecar = _rewrite_sidecar(path, lambda text: text.replace(b"\t2099\n", b"\t2o99\n"))
    with pytest.raises(ValueError, match=rf"^{re.escape(sidecar)}:{n_snps + blank}: position"):
        PackedSource(path)


@pytest.mark.parametrize("edit", [
    lambda text: text[: len(text) // 2],  # cut short
    lambda text: text.replace(b"rs2\t1\t1002\n", b""),  # one line removed
    lambda text: text.replace(b"\t1001\n", b"\t10x1\n"),  # same size, bad position
    lambda text: text.replace(b"rs1\t1\t", b"rs1\t1\t\t"),  # a field added
], ids=["cut", "line removed", "bad position", "field added"])
def test_sidecar_changed_after_open(tmp_path, edit):
    """The offsets taken at open cannot see a sidecar that changes later;
    the block read must fail naming it, not yield a short or shifted list
    of variants."""
    path = _write_panel(tmp_path, np.zeros((6, 5), dtype=np.int8))
    source = PackedSource(path)
    sidecar = _rewrite_sidecar(path, edit)
    for size in (2, 6):
        with pytest.raises(ValueError, match=rf"^{re.escape(sidecar)}: changed since"):
            next(source.iter_blocks(size))


def test_sidecar_shifted_at_the_same_size_and_mtime(tmp_path):
    """A rewrite that keeps the sidecar's size and mtime but moves a line
    boundary is refused where a block starts or ends on it, not read as
    rs1 at 10011 and s2 at 1002."""
    path = _write_panel(tmp_path, np.zeros((6, 5), dtype=np.int8))
    source = PackedSource(path)
    stat = os.stat(path + ".variants.tsv")
    sidecar = _rewrite_sidecar(path, lambda text: text.replace(
        b"\t1001\nrs2\t", b"\t10011\ns2\t"))
    os.utime(sidecar, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(sidecar).st_size == stat.st_size
    for size in (1, 2):
        with pytest.raises(ValueError, match=rf"^{re.escape(sidecar)}: changed since"):
            list(source.iter_blocks(size))


def test_dosage_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    # values with at most 6 decimals survive the 17-digit format bit-exactly
    dosages = np.round(rng.uniform(0, 2, size=(7, 5)), 6)
    dosages[2, 3] = np.nan
    path = str(tmp_path / "d.tsv")
    write_dosage_tsv(path, dosages, [f"s{i}" for i in range(5)],
                     [f"ind{j}" for j in range(7)])
    src = DosageSource(path)
    got = np.vstack([b.values for b in src.iter_blocks(2)]).T
    np.testing.assert_array_equal(np.isnan(got), np.isnan(dosages))
    mask = ~np.isnan(dosages)
    assert np.all(got[mask] == dosages[mask])


def test_dosage_source_matrix_equals_written(tmp_path):
    """Full-precision values, integer values and scattered NAs parse back
    into exactly the written (samples x SNPs) matrix."""
    rng = np.random.default_rng(2)
    dosages = rng.uniform(0, 2, size=(40, 30))
    dosages[:, 4] = rng.integers(0, 3, size=40)
    dosages[rng.random(dosages.shape) < 0.05] = np.nan
    dosages[7] = np.nan  # a sample with no calls at all
    path = str(tmp_path / "d.tsv")
    write_dosage_tsv(path, dosages, [f"s{i}" for i in range(30)],
                     [f"ind{j}" for j in range(40)])
    src = DosageSource(path)
    got = np.vstack([b.values for b in src.iter_blocks(7)]).T
    assert got.dtype == np.float64
    assert np.array_equal(got, dosages, equal_nan=True)


def test_dosage_out_of_range(tmp_path):
    path = str(tmp_path / "d.tsv")
    with open(path, "w") as fh:
        fh.write("sample_id\tsnp1\nind0\t2.4\n")
    with pytest.raises(ValueError, match="out of"):
        DosageSource(path)


def test_dosage_ragged_row(tmp_path):
    path = str(tmp_path / "d.tsv")
    with open(path, "w") as fh:
        fh.write("sample_id\tsnp1\tsnp2\nind0\t1.0\n")
    with pytest.raises(ValueError, match="expected 3 fields"):
        DosageSource(path)


def test_dosage_header_requires_sample_id(tmp_path):
    path = str(tmp_path / "d.tsv")
    with open(path, "w") as fh:
        fh.write("id\tsnp1\nind0\t1.0\n")
    with pytest.raises(ValueError, match="sample_id"):
        DosageSource(path)


def test_phenotype_table_round_trip(tmp_path):
    path = str(tmp_path / "pheno.tsv")
    with open(path, "w") as fh:
        fh.write("sample_id\theight\tage\n")
        fh.write("a\t1.75\t30\n")
        fh.write("b\tNA\t41\n")
    ids, cols = read_phenotype_table(path)
    assert ids == ["a", "b"]
    assert cols["height"][0] == 1.75
    assert np.isnan(cols["height"][1])
    assert cols["age"][1] == 41.0


@pytest.mark.parametrize(
    "field", ["inf", "-Infinity", "nan", "NaN", "1_0", "0.2_5", " 1.5", "2 "])
def test_tables_refuse_fields_float_reads_but_that_are_no_finite_number(tmp_path, field):
    """NA is the only missing mark: a non-finite field, or one with digit
    groups or padding, in a phenotype or a dosage table is an error naming
    its line and column, not a missing value or a silent number."""
    pheno = str(tmp_path / "pheno.tsv")
    with open(pheno, "w") as fh:
        fh.write(f"sample_id\theight\tage\na\t1.75\t30\nb\tNA\t{field}\n")
    message = rf"^{re.escape(pheno)}:3: column age: not NA or a finite number: '{re.escape(field)}'$"
    with pytest.raises(ValueError, match=message):
        read_phenotype_table(pheno)
    dosage = str(tmp_path / "d.tsv")
    with open(dosage, "w") as fh:
        fh.write(f"sample_id\tsnp1\tsnp2\nind0\t1.0\tNA\nind1\t{field}\t0.5\n")
    message = rf"^{re.escape(dosage)}:3: column snp1: not NA or a finite number: '{re.escape(field)}'$"
    with pytest.raises(ValueError, match=message):
        DosageSource(dosage)


@pytest.mark.parametrize(
    "header", ["sample_id\ty\ty", "y\tsample_id\tsample_id"], ids=["trait", "sample_id"]
)
def test_phenotype_table_rejects_duplicated_columns(tmp_path, header):
    """Two columns of one name would be merged into one 2n-long column."""
    path = str(tmp_path / "pheno.tsv")
    dup = header.split("\t")[-1]
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(3):
            fh.write(f"{i}\t{i}\t{i}\n")
    with pytest.raises(ValueError, match=f"duplicated column '{dup}'"):
        read_phenotype_table(path)


@pytest.mark.parametrize("allow_missing", [False, True])
def test_align_samples_rejects_duplicated_ids(allow_missing):
    """A repeated ID on either side would reuse one phenotype and drop
    another without a word."""
    with pytest.raises(ValueError, match="'a' in the genotype samples"):
        align_samples(["a", "a"], ["a", "b"], allow_missing=allow_missing)
    with pytest.raises(ValueError, match="'b' in the phenotype table samples"):
        align_samples(["a", "b"], ["b", "a", "b"], allow_missing=allow_missing)


def test_align_samples_strict_and_permissive():
    with pytest.raises(ValueError, match="3 genotype samples vs 2 table rows"):
        align_samples(["a", "b", "c"], ["a", "b"])
    gi, ti = align_samples(["a", "b", "c"], ["c", "a"], allow_missing=True)
    np.testing.assert_array_equal(gi, [0, 2])
    np.testing.assert_array_equal(ti, [1, 0])
    with pytest.raises(ValueError, match="no overlapping"):
        align_samples(["a"], ["b"], allow_missing=True)


def test_subset_source():
    calls = np.arange(12, dtype=np.int8).reshape(3, 4) % 3
    src = ArraySource(calls, kind="hard")
    sub = SubsetSource(src, np.array([2, 0]))
    got = np.vstack([b.values for b in sub.iter_blocks()])
    np.testing.assert_array_equal(got, calls[:, [2, 0]])
    assert sub.sample_ids == ["s2", "s0"]


_VALUE_TABLE = (
    [pytest.param("hard", v, True, id=f"hard-ok-{v}") for v in (-1, 0, 1, 2)]
    + [pytest.param("hard", v, False, id=str(v)) for v in (3, -2, 257, 258, 1.5, np.nan)]
    + [pytest.param("dosage", v, True, id=f"dosage-ok-{v}")
       for v in (np.nan, 0.0, -0.0, 2.0)]
    + [pytest.param("dosage", v, False, id=f"dosage-{v}")
       for v in (-0.5, 2.0000001, 3.0, np.inf, -np.inf)]
)


@pytest.mark.parametrize("kind, value, accepted", _VALUE_TABLE)
def test_array_source_rejects_bad_hard_calls(tmp_path, kind, value, accepted):
    """One verdict per genotype value, whichever way it comes in, and a
    writer refuses a value before it makes a file.  A hard call outside
    -1/0/1/2 would index past the kernels' class counts (3), or wrap (258)
    or truncate (1.5) in the int8 cast; a dosage outside [0, 2] would give
    a silent p-value, and an infinite one would abort the scan inside a
    block."""
    values = np.zeros((3, 5))
    values[1, 4] = value
    if kind == "hard" and float(value).is_integer():
        values = values.astype(np.int64)
    y = np.arange(5.0)
    builders = {
        "ArraySource": lambda: next(ArraySource(values, kind=kind).iter_blocks()).values[1],
        "GenotypeColumn": lambda: GenotypeColumn("snp1", ".", 0, values[1], kind=kind).values,
        "Sample.from_arrays": lambda: Sample.from_arrays(
            values[1], y, kind=kind, snp_id="snp1").genotypes.values,
    }
    snp_ids, sample_ids = [f"snp{i}" for i in range(3)], [f"ind{j}" for j in range(5)]
    if kind == "dosage":
        path = str(tmp_path / "d.tsv")
        with open(path, "w") as fh:  # by hand, since the writer refuses what the reader does
            fh.write("\t".join(["sample_id"] + snp_ids) + "\n" + "".join(
                "\t".join([sid] + ["NA" if math.isnan(v) else repr(v) for v in row]) + "\n"
                for sid, row in zip(sample_ids, values.T.tolist())))
        builders["DosageSource"] = lambda: next(DosageSource(path).iter_blocks()).values[1]

        def written():
            write_dosage_tsv(out, values.T, snp_ids, sample_ids)
            return next(DosageSource(out).iter_blocks()).values[1]

        out = str(tmp_path / "w.tsv")
        builders["write_dosage_tsv"] = written
    else:
        def written():
            write_packed(out, values, [(sid, "1", 0) for sid in snp_ids], sample_ids)
            return next(PackedSource(out).iter_blocks()).values[1]

        out = str(tmp_path / "p.geno")
        builders["write_packed"] = written
    rule = "hard calls must be 0/1/2 or -1" if kind == "hard" else r"dosage out of \[0, 2\]"
    for name, build in builders.items():
        if not accepted:
            # the table reader refuses an infinite field before the value check
            refusal = ("not NA or a finite number: '-?inf'"
                       if name == "DosageSource" and np.isinf(value) else rule)
            with pytest.raises(ValueError, match=rf"snp1: {refusal}") as err:
                build()
            assert name != "DosageSource" or str(err.value).startswith(path)
            assert not name.startswith("write_") or not os.path.exists(out)
            continue
        got = build()
        assert got.dtype == (np.int8 if kind == "hard" else np.float64), name
        if name != "Sample.from_arrays":  # which drops the missing entry
            assert np.array_equal(got[-1], value, equal_nan=True), name


def test_unknown_genotype_kind_rejected_at_construction():
    values = np.zeros((2, 5), dtype=np.int8)
    for build in (
        lambda: ArraySource(values, kind="probability"),
        lambda: GenotypeColumn("snp0", ".", 0, values[0], kind="probability"),
        lambda: Sample.from_arrays(values[0], np.arange(5.0), kind="probability"),
    ):
        with pytest.raises(ValueError, match="unknown genotype kind 'probability'"):
            build()


class _CountingKernels:
    """The python kernels, counting the packed rows they decode."""

    def __init__(self):
        self.rows = 0

    def decode_packed(self, raw, n):
        self.rows += raw.shape[0]
        return get_backend("python").decode_packed(raw, n)


def test_every_source_gives_the_same_rows_for_any_block_size(tmp_path):
    rng = np.random.default_rng(4)
    n_snps, n = 11, 9
    calls = rng.integers(-1, 3, size=(n_snps, n)).astype(np.int8)
    dosages = np.where(calls < 0, np.nan, calls + rng.uniform(-0.4, 0.4, calls.shape))
    dosages = np.clip(dosages, 0.0, 2.0)
    packed = _write_panel(tmp_path, calls)
    dosage_path = str(tmp_path / "d.tsv")
    write_dosage_tsv(dosage_path, dosages.T, [f"rs{i}" for i in range(n_snps)],
                     [f"ind{j}" for j in range(n)])
    keep = np.array([8, 0, 3])
    written = [[f"rs{i}", "1", 1000 + i] for i in range(n_snps)]
    in_memory = [[f"snp{i}", ".", i] for i in range(n_snps)]
    from_tsv = [[f"rs{i}", ".", 0] for i in range(n_snps)]
    sources = [  # (source, its rows, its variants, whether the kernels decode them)
        (PackedSource(packed), calls, written, True),
        (ArraySource(calls), calls, in_memory, False),
        (ArraySource(dosages, kind="dosage"), dosages, in_memory, False),
        (DosageSource(dosage_path), dosages, from_tsv, False),
        (SubsetSource(PackedSource(packed), keep), calls[:, keep], written, True),
        (SubsetSource(DosageSource(dosage_path), keep), dosages[:, keep], from_tsv, False),
    ]
    for source, expected, variants, decoded in sources:
        for size in (1, 3, n_snps, n_snps + 5):
            kernels = _CountingKernels()
            blocks = list(source.iter_blocks(size, kernels=kernels))
            assert [len(b.variants) for b in blocks] == [
                min(size, n_snps - start) for start in range(0, n_snps, size)]
            assert [v for b in blocks for v in b.variants] == variants
            for b in blocks:
                assert b.kind == source.kind and b.values.flags.c_contiguous
                assert b.values.dtype == (np.int8 if source.kind == "hard" else np.float64)
            got = np.vstack([b.values for b in blocks])
            assert np.array_equal(got, expected, equal_nan=True)
            assert kernels.rows == (n_snps if decoded else 0)


def test_packed_payload_cut_short_after_open(tmp_path):
    """The size check at open cannot see a file that shrinks later; the
    block read must not decode the short read."""
    path = _write_panel(tmp_path, np.zeros((4, 6), dtype=np.int8))
    source = PackedSource(path)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 1)
    blocks = source.iter_blocks(3)
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: changed since"):
        next(blocks)


def test_packed_payload_rewritten_at_the_same_size_after_open(tmp_path):
    """A payload rewritten after open keeps its size, so only its stamp
    can tell: the next block, and a new pass, must be refused rather than
    decode the new calls next to sidecar lines they no longer match."""
    path = _write_panel(tmp_path, np.zeros((4, 8), dtype=np.int8))
    old = os.stat(path).st_mtime - 10
    os.utime(path, (old, old))  # a panel written a while ago
    source = PackedSource(path)
    blocks = source.iter_blocks(2)
    assert not next(blocks).values.any()
    size = os.path.getsize(path)
    write_packed(path, np.full((4, 8), 2, dtype=np.int8),
                 [(f"rs{i}", "1", 1000 + i) for i in range(4)], [f"ind{j}" for j in range(8)])
    assert os.path.getsize(path) == size
    for blocks in (blocks, source.iter_blocks(2)):
        with pytest.raises(ValueError, match=rf"^{re.escape(path)}: changed since"):
            next(blocks)


def test_packed_passes_interleaved_are_independent(tmp_path):
    """Each pass reads its own handles: two passes over one source, their
    blocks asked for in turn, give the blocks of two separate passes."""
    rng = np.random.default_rng(9)
    n_snps = 10
    source = PackedSource(_write_panel(
        tmp_path, rng.integers(-1, 3, size=(n_snps, 7)).astype(np.int8)))
    alone = [list(source.iter_blocks(size)) for size in (1, 3)]
    fine, coarse = source.iter_blocks(1), source.iter_blocks(3)
    together = ([], [])
    for step in range(n_snps):
        together[0].append(next(fine))
        if step % 3 == 0:
            together[1].append(next(coarse))
    assert next(fine, None) is None and next(coarse, None) is None
    for got, want in zip(together, alone, strict=True):
        assert [b.variants for b in got] == [b.variants for b in want]
        assert all(np.array_equal(a.values, b.values) for a, b in zip(got, want, strict=True))


def _spy_on_open(monkeypatch):
    """Record every file that ``gdcscan.io`` opens from here on."""
    opened = []

    def spy(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(io_module, "open", spy, raising=False)
    return opened


def test_packed_pass_dropped_early_closes_its_files(tmp_path, monkeypatch):
    path = _write_panel(tmp_path, np.zeros((6, 5), dtype=np.int8))
    source = PackedSource(path)
    opened = _spy_on_open(monkeypatch)
    blocks = source.iter_blocks(2)
    next(blocks)
    assert [fh.name for fh in opened] == [path, path + ".variants.tsv"]
    assert not any(fh.closed for fh in opened)
    del blocks
    assert all(fh.closed for fh in opened)


def test_packed_pass_ended_by_a_threaded_scan_error_closes_its_files(tmp_path, monkeypatch):
    """A worker's error ends a two-thread scan; by the time it reaches the
    caller, the pass has closed both of its files."""
    rng = np.random.default_rng(4)
    path = _write_panel(tmp_path, rng.integers(0, 3, size=(12, 30)).astype(np.int8))
    source = PackedSource(path)
    opened = _spy_on_open(monkeypatch)
    process_block = scan_module.process_block

    def fail_on_the_second_block(cfg, ctx, block):
        if block.variants[0][0] == "rs3":
            raise RuntimeError("worker failed")
        return process_block(cfg, ctx, block)

    monkeypatch.setattr(scan_module, "process_block", fail_on_the_second_block)
    scan = run_scan(ScanConfig(threads=2, block_size=3), source, rng.standard_normal(30))
    with pytest.raises(RuntimeError, match="worker failed"):
        list(scan)
    assert len(opened) == 2 and all(fh.closed for fh in opened)
