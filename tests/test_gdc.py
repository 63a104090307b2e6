"""Statistic forms: reference, fast, kernel; population-level checks."""

import numpy as np
import pytest

from gdcscan.gdc import Sample, dcov_fast, standardized_statistic
from gdcscan.premetric import GenotypeColumn

from oracles import PopulationModel, dcov_kernel_form, dcov_oracle, population_dcov

B_GRID = [0.0, 0.5, 1.0, 2.0, 3.0, 4.0]


def _random_sample(rng, n=None):
    n = n or int(rng.integers(4, 51))
    maf = rng.uniform(0.05, 0.5)
    p = np.array([(1 - maf) ** 2, 2 * maf * (1 - maf), maf**2])
    x = rng.choice(3, size=n, p=p)
    y = rng.normal(size=n)
    return Sample.from_arrays(x, y)


def test_frozen_small_example():
    # direct double-centering evaluation of this instance gives exactly 1/4
    s = Sample.from_arrays([0, 1, 2, 1], [1.0, 2.0, 3.0, 2.0])
    for f in (dcov_oracle, dcov_fast, dcov_kernel_form):
        assert f(2.0, s) == pytest.approx(0.25, rel=1e-14)


def test_constant_response_and_genotype():
    s = Sample.from_arrays([0, 1, 2, 1], [3.0, 3.0, 3.0, 3.0])
    assert dcov_oracle(1.5, s) == 0.0
    assert dcov_fast(1.5, s) == 0.0
    assert dcov_kernel_form(1.5, s) == 0.0
    s2 = Sample.from_arrays([1, 1, 1, 1], [0.0, 1.0, 2.0, 3.0])
    assert dcov_fast(2.5, s2) == 0.0
    assert dcov_oracle(2.5, s2) == pytest.approx(0.0, abs=1e-15)


def test_three_form_equivalence_randomized():
    rng = np.random.default_rng(11)
    for b in B_GRID:
        for _ in range(40):
            s = _random_sample(rng)
            ref = dcov_oracle(b, s)
            fast = dcov_fast(b, s)
            kern = dcov_kernel_form(b, s)
            # 1e-12 relative with a small absolute cushion for statistics
            # that are themselves pure round-off
            assert np.isclose(fast, ref, rtol=1e-12, atol=1e-13)
            assert np.isclose(kern, ref, rtol=1e-12, atol=1e-13)


def test_b4_is_squared_covariance():
    rng = np.random.default_rng(5)
    for _ in range(25):
        s = _random_sample(rng)
        x = s.genotypes.values.astype(float)
        y = s.phenotype
        cov = ((x - x.mean()) * (y - y.mean())).mean()
        assert dcov_fast(4.0, s) == pytest.approx(2.0 * cov**2, rel=1e-12)


def test_nonnegativity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        s = _random_sample(rng)
        b = rng.uniform(0, 4)
        assert dcov_fast(b, s) >= 0.0
        assert dcov_oracle(b, s) >= -1e-14


def test_coding_swap_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        s = _random_sample(rng)
        swapped = Sample.from_arrays(2 - s.genotypes.values, s.phenotype)
        for b in (0.5, 2.0, 3.5):
            assert dcov_fast(b, swapped) == pytest.approx(
                dcov_fast(b, s), rel=1e-12, abs=1e-15
            )


def test_standardized_statistic_affine_invariance():
    rng = np.random.default_rng(29)
    s = _random_sample(rng, n=40)
    k0, _ = standardized_statistic(2.5, s)
    s2 = Sample.from_arrays(s.genotypes.values, -3.2 * s.phenotype + 7.0)
    k1, _ = standardized_statistic(2.5, s2)
    assert k1 == pytest.approx(k0, rel=1e-12)


def test_standardized_statistic_constant_genotype():
    s = Sample.from_arrays([1, 1, 1, 1, 1], [0.4, 1.0, -2.0, 0.3, 0.9])
    k, sigma2 = standardized_statistic(3.0, s)
    assert k == 0.0
    assert sigma2 > 0


def test_degenerate_response_error():
    s = Sample.from_arrays([0, 1, 2, 1], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="degenerate response"):
        standardized_statistic(2.0, s)


def test_constant_phenotype_with_round_off_spread_is_degenerate():
    """Six copies of 0.1 centre to a sum of squares of 1.2e-33, not 0:
    the phenotype is still constant, and refused as such."""
    y = np.full(6, 0.1)
    assert float((y - y.mean()) @ (y - y.mean())) > 0.0
    with pytest.raises(ValueError, match="degenerate response"):
        standardized_statistic(3.0, Sample.from_arrays([0, 1, 2, 1, 0, 2], y))


def test_sample_minimum_counts_the_feature_slots_of_allele_counts():
    """A three-allele column has six feature slots, so a sample needs
    eight complete cases, where a biallelic column needs four."""
    counts = np.array([[2, 0, 0], [1, 1, 0], [0, 1, 1], [1, 0, 1]] * 2, dtype=float)
    col = GenotypeColumn("rs1", "1", 1, counts, m=3, kind="allele_counts")
    y = np.arange(8.0)
    assert Sample.from_column(col, y).n == 8
    counts[7] = np.nan
    col = GenotypeColumn("rs1", "1", 1, counts, m=3, kind="allele_counts")
    with pytest.raises(ValueError, match="need at least 8 complete cases, got 7"):
        Sample.from_column(col, y)
    assert Sample.from_arrays([0, 1, 2, 1], [0.3, 1.0, 2.0, 0.5]).n == 4


def test_sigma2_uses_one_over_n():
    s = Sample.from_arrays([0, 1, 2, 1], [1.0, 2.0, 3.0, 6.0])
    _, sigma2 = standardized_statistic(2.0, s)
    y = np.array([1.0, 2.0, 3.0, 6.0])
    assert sigma2 == pytest.approx(((y - y.mean()) ** 2).mean())


def test_sample_validation():
    with pytest.raises(ValueError, match="at least 4"):
        Sample.from_arrays([0, 1, 2], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="non-finite"):
        Sample.from_arrays([0, 1, 2, 1], [1.0, np.nan, 0.0, 2.0])
    with pytest.raises(ValueError, match="phenotype has"):
        Sample.from_arrays([0, 1, 2, 1], [1.0, 2.0])


def test_sample_complete_case():
    s = Sample.from_arrays(
        np.array([0, 1, 2, -1, 1], dtype=np.int8), [1.0, 2.0, 3.0, 4.0, 5.0]
    )
    assert s.n == 4
    np.testing.assert_array_equal(s.genotypes.values, [0, 1, 2, 1])
    np.testing.assert_allclose(s.phenotype, [1.0, 2.0, 3.0, 5.0])


def test_oracle_cap():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 3, size=2100)
    y = rng.normal(size=2100)
    s = Sample.from_arrays(x, y)
    with pytest.raises(ValueError, match="capped"):
        dcov_oracle(2.0, s)


def test_population_zero_when_means_equal():
    m = PopulationModel(p=(0.3, 0.5, 0.2), mu=(1.0, 1.0, 1.0))
    for b in B_GRID:
        assert population_dcov(b, m) == 0.0


def test_population_boundary_blindness():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = rng.dirichlet([3, 3, 3])
        # means differ, mean of the heterozygote equals the overall mean
        m0 = PopulationModel(p=tuple(p), mu=(p[2], 0.0, -p[0]))
        assert population_dcov(0.0, m0) == pytest.approx(0.0, abs=1e-15)
        # means differ, the signed homozygote contrast vanishes
        m4 = PopulationModel(
            p=tuple(p), mu=(p[1] * p[2], -2 * p[0] * p[2], p[0] * p[1])
        )
        assert population_dcov(4.0, m4) == pytest.approx(0.0, abs=1e-15)


def test_population_detection_inside_open_interval():
    rng = np.random.default_rng(37)
    for _ in range(200):
        p = rng.dirichlet([2, 2, 2])
        if p.min() < 1e-3:
            continue
        mu = rng.normal(size=3)
        if np.ptp(mu) < 1e-6:
            continue
        b = rng.uniform(0.05, 3.95)
        assert population_dcov(b, PopulationModel(p=tuple(p), mu=tuple(mu))) > 0.0


def test_population_matches_empirical():
    rng = np.random.default_rng(41)
    p = (0.3, 0.45, 0.25)
    mu = (0.2, -0.1, 0.5)
    model = PopulationModel(p=p, mu=mu)
    n = 200_000
    x = rng.choice(3, size=n, p=p)
    y = np.asarray(mu)[x] + rng.normal(scale=0.5, size=n)
    s = Sample.from_arrays(x, y)
    b = 2.7
    assert dcov_fast(b, s) == pytest.approx(population_dcov(b, model), rel=0.05)
