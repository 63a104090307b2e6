import json
import os

import numpy as np
import pytest

import workloads
from gdcscan.io import PackedSource, encode_packed as program_encode

@pytest.fixture
def small_panels(monkeypatch):
    monkeypatch.setattr(workloads, "PANELS", {
        "null": dict(workloads.PANELS["null"], n=101, snps=300),
        "locus": dict(workloads.PANELS["locus"], n=150, snps=400, ld_block_snps=20),
    })


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


@pytest.mark.parametrize("panel", ["null", "locus"])
def test_generator_is_deterministic_per_seed(small_panels, tmp_path, panel):
    a = _files(workloads.panel_inputs(panel, 7, root=str(tmp_path / "a")))
    b = _files(workloads.panel_inputs(panel, 7, root=str(tmp_path / "b")))
    c = _files(workloads.panel_inputs(panel, 8, root=str(tmp_path / "c")))
    assert a == b
    assert a["panel.geno"] != c["panel.geno"]
    assert a["pheno.tsv"] != c["pheno.tsv"]


def test_cache_reuses_inputs_until_the_spec_changes(small_panels, tmp_path):
    d = workloads.panel_inputs("null", 3, root=str(tmp_path))
    stamp = os.path.getmtime(os.path.join(d, "panel.geno"))
    assert workloads.panel_inputs("null", 3, root=str(tmp_path)) == d
    assert os.path.getmtime(os.path.join(d, "panel.geno")) == stamp
    with open(os.path.join(d, "done")) as fh:
        assert json.load(fh)["seed"] == 3
    workloads.PANELS["null"] = dict(workloads.PANELS["null"], snps=301)
    workloads.panel_inputs("null", 3, root=str(tmp_path))
    assert os.path.getsize(os.path.join(d, "panel.geno")) == 3 + 301 * 26


def test_locus_panel_has_missing_calls_and_covariates(small_panels, tmp_path):
    d = workloads.panel_inputs("locus", 1, root=str(tmp_path))
    calls = workloads.read_packed_rows(os.path.join(d, "panel.geno"), 150, range(400))
    assert 0 < (calls < 0).any(axis=1).sum() < 400
    with open(os.path.join(d, "pheno.tsv")) as fh:
        assert fh.readline().split() == ["sample_id", "y", "age", "sex"]


def test_packed_codec_matches_the_program():
    rng = np.random.default_rng(0)
    calls = rng.integers(-1, 3, size=(9, 13)).astype(np.int8)
    assert workloads.encode_packed(calls) == program_encode(calls).tobytes()


def test_read_packed_rows_round_trips(small_panels, tmp_path):
    d = workloads.panel_inputs("null", 2, root=str(tmp_path))
    geno = os.path.join(d, "panel.geno")
    block = next(PackedSource(geno).iter_blocks(300))
    assert np.array_equal(workloads.read_packed_rows(geno, 101, [0, 17, 299]), block.values[[0, 17, 299]])
