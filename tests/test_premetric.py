"""Genotype geometry: distances, kernels, feature maps, extensions."""

import numpy as np
import pytest

from gdcscan.adjust import column_features
from gdcscan.gdc import Sample, dcov_fast
from gdcscan.premetric import GenotypeColumn, check_b, feature_scales
from gdcscan.scan import ScanConfig
from gdcscan.simbench import SimScenario

from oracles import (
    canonical_feature_table,
    distance,
    dosage_distance,
    induced_kernel,
    kernel,
    multiallelic_distance,
    pairwise_sq_dist,
    regime_feature_map,
)

B_GRID = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
STATES = [0, 1, 2]


def _dosage_features(b, x):
    """column_features of a dosage column holding the values ``x``."""
    col = GenotypeColumn("d", ".", 0, np.atleast_1d(np.asarray(x, dtype=np.float64)),
                         kind="dosage")
    return column_features(b, col)


def test_distance_values():
    assert distance(check_b(1.0), 0, 2) == 1.0  # discrete metric
    assert distance(check_b(2.0), 0, 2) == 2.0  # absolute distance
    assert distance(check_b(3.3), 1, 1) == 0.0
    b = check_b(2.7)
    assert distance(b, 0, 1) == distance(b, 1, 2) == 1.0
    assert distance(b, 2, 0) == 2.7


def test_b_validation():
    for bad in (-0.1, 4.2, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            check_b(bad)
    assert check_b(0.0) == 0.0
    assert check_b(4) == 4.0


def test_distance_state_validation():
    b = check_b(1.0)
    with pytest.raises(ValueError):
        distance(b, 3, 0)
    with pytest.raises(ValueError):
        kernel(b, 0, -1)


def test_kernel_values():
    assert kernel(check_b(2.0), 0, 2) == 0.0
    assert kernel(check_b(4.0), 0, 2) == -2.0
    for b in B_GRID:
        assert kernel(b, 1, 1) == 0.0
        assert kernel(b, 0, 1) == kernel(b, 1, 2) == 0.0
        assert kernel(b, 0, 0) == kernel(b, 2, 2) == 1.0
        assert kernel(b, 0, 2) == pytest.approx(2.0 - b)
        assert kernel(b, 2, 0) == kernel(b, 0, 2)


def test_canonical_feature_map_values():
    fm = canonical_feature_table(2.0)
    np.testing.assert_allclose(fm[0], [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(fm[1], [0.0, 1.0, 0.0])
    # endpoints collapse one feature each
    fm4 = canonical_feature_table(4.0)
    np.testing.assert_allclose(fm4[1], 0.0)
    np.testing.assert_allclose(fm4[0], np.sqrt(2.0) * np.array([-1, 0, 1]))
    fm0 = canonical_feature_table(0.0)
    np.testing.assert_allclose(fm0[0], 0.0)
    np.testing.assert_allclose(fm0[1], [0.0, np.sqrt(2.0), 0.0])


def test_regime_feature_map_values():
    fm3 = regime_feature_map(3.0)
    np.testing.assert_allclose(fm3[2], [0.0, 1.0, 2.0])
    # both regimes coincide at b = 2: third feature vanishes
    up = regime_feature_map(2.0)
    np.testing.assert_allclose(up[2], 0.0)
    fm0 = regime_feature_map(0.0)
    np.testing.assert_allclose(fm0[0], 0.0)
    np.testing.assert_allclose(fm0[1], 0.0)
    np.testing.assert_allclose(fm0[2], [0.0, np.sqrt(2.0), 0.0])


@pytest.mark.parametrize("b", B_GRID)
def test_feature_distance_consistency(b):
    """Squared feature distances equal twice the premetric, for both maps."""
    for fm in (canonical_feature_table(b), regime_feature_map(b)):
        for x in STATES:
            for y in STATES:
                assert pairwise_sq_dist(fm, x, y) == pytest.approx(
                    2.0 * distance(b, x, y), abs=1e-12
                )


@pytest.mark.parametrize("b", B_GRID)
def test_translated_canonical_map_reproduces_induced_kernel(b):
    """Shifting the heterozygote feature turns the canonical map into an
    exact factorization of the induced kernel at base point 1."""
    fm = canonical_feature_table(b)
    fm[1] -= np.sqrt((4.0 - b) / 2.0)
    for x in STATES:
        for y in STATES:
            gram = float(fm[:, x] @ fm[:, y])
            assert gram == pytest.approx(induced_kernel(b, x, y), abs=1e-12)


@pytest.mark.parametrize("b", B_GRID)
def test_coding_swap_invariance(b):
    swap = {0: 2, 1: 1, 2: 0}
    for x in STATES:
        for y in STATES:
            assert distance(b, x, y) == distance(b, swap[x], swap[y])


def test_dosage_features_values():
    assert tuple(_dosage_features(2.0, 1.0)[0]) == pytest.approx((1.0, 0.0))
    f1, f2 = _dosage_features(3.7, 1.0)[0]
    assert f2 == 0.0
    f1, f2 = _dosage_features(3.0, 0.5)[0]
    assert f1 == pytest.approx(np.sqrt(1.5) * 0.5)
    assert f2 == pytest.approx(np.sqrt(0.5) * 0.5)


def test_dosage_features_domain():
    """A dosage outside [0, 2] never reaches the features: the column
    refuses it when it is built."""
    for bad in (-0.01, 2.5):
        with pytest.raises(ValueError, match="rs1: dosage out of"):
            GenotypeColumn("rs1", "1", 1, np.array([1.0, bad]), kind="dosage")


@pytest.mark.parametrize("b", B_GRID)
def test_dosage_distance_matches_feature_oracle(b):
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = rng.uniform(0, 2, size=2)
        (f1x, f2x), (f1y, f2y) = _dosage_features(b, [x, y])
        oracle = (f1x - f1y) ** 2 + (f2x - f2y) ** 2
        assert dosage_distance(b, x, y) == pytest.approx(oracle / 2.0, abs=1e-12)


def test_dosage_distance_values():
    b = check_b(3.0)
    assert dosage_distance(b, 2.0, 0.0) == pytest.approx(3.0)
    assert dosage_distance(b, 1.3, 1.3) == 0.0
    # frozen from the feature oracle: opposite sides of 1, terms (3/4)*1 + 0
    assert dosage_distance(b, 1.5, 0.5) == pytest.approx(0.75)


@pytest.mark.parametrize("b", B_GRID)
def test_dosage_distance_restricts_to_hard_distance(b):
    for x in STATES:
        for y in STATES:
            assert dosage_distance(b, float(x), float(y)) == distance(b, x, y)


def test_multiallelic_distance():
    b = check_b(2.2)
    assert multiallelic_distance(b, [2, 0], [0, 2]) == pytest.approx(2.2)
    assert multiallelic_distance(b, [1, 1, 0], [1, 1, 0]) == 0.0
    assert multiallelic_distance(b, [1, 1, 0], [1, 0, 1]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        multiallelic_distance(b, [1, 1], [1, 1, 0])
    with pytest.raises(ValueError):
        multiallelic_distance(b, [1, 0.5], [1, 1])


@pytest.mark.parametrize("b", B_GRID)
def test_multiallelic_reduces_to_biallelic(b):
    for x in STATES:
        for y in STATES:
            d = multiallelic_distance(b, [2 - x, x], [2 - y, y])
            assert d == pytest.approx(distance(b, x, y), abs=1e-12)


@pytest.mark.parametrize("b", B_GRID)
def test_multiallelic_features_match_distance(b):
    rng = np.random.default_rng(int(b * 10) + 1)
    # random diploid count vectors over 3 alleles
    picks = rng.integers(0, 3, size=(30, 2))
    counts = np.zeros((30, 3))
    for i, (a, c) in enumerate(picks):
        counts[i, a] += 1
        counts[i, c] += 1
    col = GenotypeColumn("rs1", "1", 1, counts, m=3, kind="allele_counts")
    feats = column_features(b, col)
    for i in range(0, 30, 5):
        for j in range(0, 30, 7):
            d = multiallelic_distance(b, counts[i], counts[j])
            gap = feats[i] - feats[j]
            assert float(gap @ gap) == pytest.approx(2.0 * d, abs=1e-12)


def test_genotype_column_hard():
    col = GenotypeColumn("rs1", "1", 100, np.array([0, 1, 2, -1, 1], dtype=np.int8))
    np.testing.assert_array_equal(col.present_mask(), [1, 1, 1, 0, 1])
    np.testing.assert_allclose(col.frequencies(), [0.25, 0.5, 0.25])
    assert col.frequencies().sum() == 1.0
    assert col.maf() == pytest.approx(0.5)
    with pytest.raises(ValueError):
        GenotypeColumn("rs2", "1", 1, np.array([0, 3], dtype=np.int8))


def test_genotype_column_dosage():
    col = GenotypeColumn(
        "rs1", "1", 100, np.array([0.5, np.nan, 2.0]), kind="dosage"
    )
    assert col.present_mask().sum() == 2
    assert col.maf() == pytest.approx(min(1.25 / 2, 1 - 1.25 / 2))
    with pytest.raises(ValueError):
        GenotypeColumn("rs2", "1", 1, np.array([2.4]), kind="dosage")


def test_genotype_column_allele_counts():
    """Rows sum to 2 and every count lies in [0, 2], checked as a dosage
    when the column is built, so a row such as (3, -1) fails there, naming
    its SNP, whatever the number of alleles; a row with a NaN is missing."""
    vals = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    col = GenotypeColumn("rs1", "1", 1, vals, m=3, kind="allele_counts")
    assert col.n_total == 2
    with pytest.raises(ValueError):
        GenotypeColumn("rs2", "1", 1, np.array([[1.0, 0.5, 0.0]]), m=3,
                       kind="allele_counts")
    for m, bad in ((2, [3.0, -1.0]), (3, [3.0, -1.0, 0.0]), (3, [2.5, 0.0, -0.5])):
        vals = np.array([[2.0] + [0.0] * (m - 1), bad])
        with pytest.raises(ValueError, match="rs9: dosage out of"):
            GenotypeColumn("rs9", "1", 1, vals, m=m, kind="allele_counts")
    col = GenotypeColumn("rs9", "1", 1, np.array([[np.nan, 1.0], [1.0, 1.0]]),
                         kind="allele_counts")
    np.testing.assert_array_equal(col.present_mask(), [False, True])


@pytest.mark.parametrize("b", [-0.5, 4.5, float("nan"), float("inf")])
def test_every_b_check_is_the_premetric_one(b):
    col = GenotypeColumn("rs1", "1", 1, np.array([0, 1, 2, 1], dtype=np.int8))
    sample = Sample.from_column(col, np.array([0.3, -1.2, 0.8, 0.1]))
    for build in (check_b, lambda b: ScanConfig(b=b), lambda b: SimScenario(b_values=(3.0, b)),
                  lambda b: column_features(b, col), lambda b: dcov_fast(b, sample)):
        with pytest.raises(ValueError, match=r"b must lie in \[0, 4\], got"):
            build(b)


def _same_bits(got, want):
    """Equal shapes and equal bits, so the sign of a zero counts too."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), np.asarray(want).view(np.uint64))


@pytest.mark.parametrize("b", [0.0, 1.0, 1.3, 2.0, 3.0, 3.7, 4.0])
def test_feature_maps_use_the_feature_scales(b):
    """``column_features`` of every kind equals, bit for bit, the canonical
    table of hard calls and the dosage and allele-count formulas written
    out from the feature scales."""
    sqb, sqh = feature_scales(b)
    x = np.array([0, 1, 2, 2, 1, 0, 1], dtype=np.int8)
    hard = column_features(b, GenotypeColumn("h", "1", 1, x))
    _same_bits(hard, canonical_feature_table(b)[:, x.astype(np.intp)].T)
    d = np.array([0.0, 0.25, 1.0, 1.5, 2.0, 0.7])
    dos = column_features(b, GenotypeColumn("d", "1", 1, d, kind="dosage"))
    _same_bits(dos, np.column_stack([sqb * d, sqh * np.abs(d - 1.0)]))
    c = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.5, 1.5], [0.0, 0.0, 2.0]])
    counts = column_features(b, GenotypeColumn("a", "1", 1, c, m=3, kind="allele_counts"))
    s = 1.0 / np.sqrt(2.0)
    want = np.column_stack([f for j in range(3)
                            for f in (s * (sqb * c[:, j]), s * (sqh * np.abs(c[:, j] - 1.0)))])
    _same_bits(counts, want)
    if b == 0.0:  # the vanished homozygote contrast keeps -0.0 at x = 0
        assert (hard[:, 0] == 0.0).all() and np.signbit(hard[x == 0, 0]).all()
