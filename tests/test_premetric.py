"""Genotype geometry: distances, kernels, feature maps, extensions."""

import numpy as np
import pytest

from gdcscan.premetric import FeatureMap, GenotypeColumn, Premetric, feature_scales
from gdcscan.scan import ScanConfig
from gdcscan.simbench import SimScenario

from oracles import (
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


def test_distance_values():
    assert distance(Premetric(1.0).b, 0, 2) == 1.0  # discrete metric
    assert distance(Premetric(2.0).b, 0, 2) == 2.0  # absolute distance
    assert distance(Premetric(3.3).b, 1, 1) == 0.0
    pm = Premetric(2.7)
    assert distance(pm.b, 0, 1) == distance(pm.b, 1, 2) == 1.0
    assert distance(pm.b, 2, 0) == 2.7


def test_b_validation():
    for bad in (-0.1, 4.2, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            Premetric(bad)
    Premetric(0.0)
    Premetric(4.0)


def test_distance_state_validation():
    pm = Premetric(1.0)
    with pytest.raises(ValueError):
        distance(pm.b, 3, 0)
    with pytest.raises(ValueError):
        kernel(pm.b, 0, -1)


def test_kernel_values():
    assert kernel(Premetric(2.0).b, 0, 2) == 0.0
    assert kernel(Premetric(4.0).b, 0, 2) == -2.0
    for b in B_GRID:
        pm = Premetric(b)
        assert kernel(pm.b, 1, 1) == 0.0
        assert kernel(pm.b, 0, 1) == kernel(pm.b, 1, 2) == 0.0
        assert kernel(pm.b, 0, 0) == kernel(pm.b, 2, 2) == 1.0
        assert kernel(pm.b, 0, 2) == pytest.approx(2.0 - b)
        assert kernel(pm.b, 2, 0) == kernel(pm.b, 0, 2)


def test_canonical_feature_map_values():
    fm = Premetric(2.0).canonical_feature_map()
    np.testing.assert_allclose(fm.matrix[0], [-1.0, 0.0, 1.0])
    np.testing.assert_allclose(fm.matrix[1], [0.0, 1.0, 0.0])
    # endpoints collapse one feature each
    fm4 = Premetric(4.0).canonical_feature_map()
    np.testing.assert_allclose(fm4.matrix[1], 0.0)
    np.testing.assert_allclose(fm4.matrix[0], np.sqrt(2.0) * np.array([-1, 0, 1]))
    fm0 = Premetric(0.0).canonical_feature_map()
    np.testing.assert_allclose(fm0.matrix[0], 0.0)
    np.testing.assert_allclose(fm0.matrix[1], [0.0, np.sqrt(2.0), 0.0])


def test_regime_feature_map_values():
    fm3 = regime_feature_map(Premetric(3.0).b)
    np.testing.assert_allclose(fm3.matrix[2], [0.0, 1.0, 2.0])
    # both regimes coincide at b = 2: third feature vanishes
    up = regime_feature_map(Premetric(2.0).b)
    np.testing.assert_allclose(up.matrix[2], 0.0)
    fm0 = regime_feature_map(Premetric(0.0).b)
    np.testing.assert_allclose(fm0.matrix[0], 0.0)
    np.testing.assert_allclose(fm0.matrix[1], 0.0)
    np.testing.assert_allclose(fm0.matrix[2], [0.0, np.sqrt(2.0), 0.0])


@pytest.mark.parametrize("b", B_GRID)
def test_feature_distance_consistency(b):
    """Squared feature distances equal twice the premetric, for both maps."""
    pm = Premetric(b)
    for fm in (pm.canonical_feature_map(), regime_feature_map(pm.b)):
        for x in STATES:
            for y in STATES:
                assert pairwise_sq_dist(fm, x, y) == pytest.approx(
                    2.0 * distance(pm.b, x, y), abs=1e-12
                )


@pytest.mark.parametrize("b", B_GRID)
def test_translated_canonical_map_reproduces_induced_kernel(b):
    """Shifting the heterozygote feature turns the canonical map into an
    exact factorization of the induced kernel at base point 1."""
    pm = Premetric(b)
    fm = pm.canonical_feature_map().matrix.copy()
    fm[1] -= np.sqrt((4.0 - b) / 2.0)
    for x in STATES:
        for y in STATES:
            gram = float(fm[:, x] @ fm[:, y])
            assert gram == pytest.approx(induced_kernel(pm.b, x, y), abs=1e-12)


@pytest.mark.parametrize("b", B_GRID)
def test_coding_swap_invariance(b):
    pm = Premetric(b)
    swap = {0: 2, 1: 1, 2: 0}
    for x in STATES:
        for y in STATES:
            assert distance(pm.b, x, y) == distance(pm.b, swap[x], swap[y])


def test_dosage_features_values():
    assert Premetric(2.0).dosage_features(1.0) == pytest.approx((1.0, 0.0))
    f1, f2 = Premetric(3.7).dosage_features(1.0)
    assert f2 == 0.0
    f1, f2 = Premetric(3.0).dosage_features(0.5)
    assert f1 == pytest.approx(np.sqrt(1.5) * 0.5)
    assert f2 == pytest.approx(np.sqrt(0.5) * 0.5)


def test_dosage_features_domain():
    pm = Premetric(1.0)
    with pytest.raises(ValueError):
        pm.dosage_features(-0.01)
    with pytest.raises(ValueError):
        pm.dosage_features(2.5)


@pytest.mark.parametrize("b", B_GRID)
def test_dosage_distance_matches_feature_oracle(b):
    pm = Premetric(b)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = rng.uniform(0, 2, size=2)
        f1x, f2x = pm.dosage_features(x)
        f1y, f2y = pm.dosage_features(y)
        oracle = (f1x - f1y) ** 2 + (f2x - f2y) ** 2
        assert dosage_distance(pm.b, x, y) == pytest.approx(oracle / 2.0, abs=1e-12)


def test_dosage_distance_values():
    pm = Premetric(3.0)
    assert dosage_distance(pm.b, 2.0, 0.0) == pytest.approx(3.0)
    assert dosage_distance(pm.b, 1.3, 1.3) == 0.0
    # frozen from the feature oracle: opposite sides of 1, terms (3/4)*1 + 0
    assert dosage_distance(pm.b, 1.5, 0.5) == pytest.approx(0.75)


@pytest.mark.parametrize("b", B_GRID)
def test_dosage_distance_restricts_to_hard_distance(b):
    pm = Premetric(b)
    for x in STATES:
        for y in STATES:
            assert dosage_distance(pm.b, float(x), float(y)) == distance(pm.b, x, y)


def test_multiallelic_distance():
    pm = Premetric(2.2)
    assert multiallelic_distance(pm.b, [2, 0], [0, 2]) == pytest.approx(2.2)
    assert multiallelic_distance(pm.b, [1, 1, 0], [1, 1, 0]) == 0.0
    assert multiallelic_distance(pm.b, [1, 1, 0], [1, 0, 1]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        multiallelic_distance(pm.b, [1, 1], [1, 1, 0])
    with pytest.raises(ValueError):
        multiallelic_distance(pm.b, [1, 0.5], [1, 1])


@pytest.mark.parametrize("b", B_GRID)
def test_multiallelic_reduces_to_biallelic(b):
    pm = Premetric(b)
    for x in STATES:
        for y in STATES:
            d = multiallelic_distance(pm.b, [2 - x, x], [2 - y, y])
            assert d == pytest.approx(distance(pm.b, x, y), abs=1e-12)


@pytest.mark.parametrize("b", B_GRID)
def test_multiallelic_features_match_distance(b):
    pm = Premetric(b)
    rng = np.random.default_rng(int(b * 10) + 1)
    # random diploid count vectors over 3 alleles
    picks = rng.integers(0, 3, size=(30, 2))
    counts = np.zeros((30, 3))
    for i, (a, c) in enumerate(picks):
        counts[i, a] += 1
        counts[i, c] += 1
    feats = pm.multiallelic_features(counts)
    for i in range(0, 30, 5):
        for j in range(0, 30, 7):
            d = multiallelic_distance(pm.b, counts[i], counts[j])
            gap = feats[i] - feats[j]
            assert float(gap @ gap) == pytest.approx(2.0 * d, abs=1e-12)


def test_feature_map_validation():
    with pytest.raises(ValueError):
        FeatureMap(np.zeros((2, 4)))


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
    vals = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    col = GenotypeColumn("rs1", "1", 1, vals, m=3, kind="allele_counts")
    assert col.n_total == 2
    with pytest.raises(ValueError):
        GenotypeColumn("rs2", "1", 1, np.array([[1.0, 0.5, 0.0]]), m=3,
                       kind="allele_counts")


@pytest.mark.parametrize("b", [-0.5, 4.5, float("nan"), float("inf")])
def test_every_b_check_is_the_premetric_one(b):
    for build in (Premetric, lambda b: ScanConfig(b=b), lambda b: SimScenario(b_values=(3.0, b))):
        with pytest.raises(ValueError, match=r"b must lie in \[0, 4\], got"):
            build(b)


@pytest.mark.parametrize("b", [0.0, 1.3, 3.0, 4.0])
def test_feature_maps_use_the_feature_scales(b):
    sqb, sqh = feature_scales(b)
    fm = Premetric(b).canonical_feature_map().matrix
    assert fm[0, 2] == sqb and fm[1, 1] == sqh
    assert Premetric(b).dosage_features(0.5) == (sqb * 0.5, sqh * 0.5)
