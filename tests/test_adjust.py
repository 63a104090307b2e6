"""Covariate residualization, adjusted statistics and spectra."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gdcscan.adjust import CovariateMatrix, column_features, residualize
from gdcscan.gdc import Sample, dcov_fast
from gdcscan.nulldist import (
    exact_pvalue,
    pvalue_bounds,
    spectrum_from_features,
    spectrum_unadjusted,
)
from gdcscan.premetric import GenotypeColumn

from oracles import (
    JointMoments,
    adjusted_asymptotic_spectrum,
    adjusted_spectrum,
    adjusted_statistic,
    canonical_feature_table,
    population_feature_moments,
)


def _hwe(maf):
    return np.array([(1 - maf) ** 2, 2 * maf * (1 - maf), maf**2])


def _design(rng, n, q=3):
    cols = {f"z{i}": rng.normal(size=n) for i in range(q)}
    cols["intercept"] = np.ones(n)
    return CovariateMatrix.build(cols, n=n)


def _column(rng, n, maf=0.3, b_label="x"):
    x = rng.choice(3, size=n, p=_hwe(maf)).astype(np.int8)
    return GenotypeColumn("snp", "1", 1, x)


def test_covariate_matrix_requires_intercept_first():
    with pytest.raises(ValueError, match="intercept"):
        CovariateMatrix(matrix=np.random.default_rng(0).normal(size=(10, 2)),
                        names=("a", "b"))


def test_covariate_matrix_build_prepends_intercept():
    rng = np.random.default_rng(1)
    with pytest.warns(UserWarning, match="prepending an intercept"):
        z = CovariateMatrix.build({"age": rng.normal(size=20)})
    assert z.names[0] == "intercept"
    assert np.all(z.matrix[:, 0] == 1.0)
    assert z.q == 1


def test_covariate_matrix_detects_collinearity():
    rng = np.random.default_rng(2)
    a = rng.normal(size=30)
    with pytest.raises(ValueError, match="collinear"):
        CovariateMatrix(
            matrix=np.column_stack([np.ones(30), a, 2.0 * a]),
            names=("intercept", "a", "a2"),
        )


def test_residualize_intercept_only():
    rng = np.random.default_rng(3)
    y = rng.normal(size=25)
    z = CovariateMatrix.intercept_only(25)
    rp = residualize(y, z)
    np.testing.assert_allclose(rp.residuals, y - y.mean(), atol=1e-14)
    assert rp.sigma2_eps_hat == pytest.approx(((y - y.mean()) ** 2).mean())


def test_residualize_matches_normal_equations():
    rng = np.random.default_rng(4)
    n, q = 50, 3
    z = _design(rng, n, q)
    y = rng.normal(size=n)
    rp = residualize(y, z)
    zm = z.matrix
    gamma_ref = np.linalg.solve(zm.T @ zm, zm.T @ y)
    np.testing.assert_allclose(rp.gamma_hat, gamma_ref, atol=1e-10)
    np.testing.assert_allclose(rp.residuals, y - zm @ gamma_ref, atol=1e-10)


def test_residualize_invariants():
    rng = np.random.default_rng(5)
    n = 60
    z = _design(rng, n, 2)
    y = rng.normal(size=n)
    rp = residualize(y, z)
    # orthogonality to every covariate column and zero mean
    for j in range(z.matrix.shape[1]):
        assert abs(rp.residuals @ z.matrix[:, j]) < 1e-8 * np.abs(y).sum()
    assert abs(rp.residuals.mean()) < 1e-12
    # projection idempotence
    rp2 = residualize(rp.residuals, z)
    np.testing.assert_allclose(rp2.residuals, rp.residuals, atol=1e-12)


def test_residualize_exact_linear_response():
    rng = np.random.default_rng(6)
    n = 40
    z = _design(rng, n, 2)
    y = z.matrix @ np.array([1.0, -2.0, 0.5])
    rp = residualize(y, z)
    assert np.abs(rp.residuals).max() < 1e-10
    assert rp.sigma2_eps_hat == pytest.approx(0.0, abs=1e-20)


def test_residualize_needs_enough_samples():
    z = CovariateMatrix(matrix=np.ones((5, 1)), names=("intercept",))
    # q = 0 here, so n > 3 suffices; shrink to n = 3 via a fresh design
    z3 = CovariateMatrix(matrix=np.ones((3, 1)), names=("intercept",))
    with pytest.raises(ValueError, match="n > q \\+ 3"):
        residualize(np.zeros(3), z3)
    residualize(np.arange(5.0), z)


def test_adjusted_statistic_intercept_only_equals_unadjusted():
    rng = np.random.default_rng(7)
    n = 80
    col = _column(rng, n)
    y = rng.normal(size=n)
    rp = residualize(y, CovariateMatrix.intercept_only(n))
    adj = adjusted_statistic(2.5, col, rp)
    plain = dcov_fast(2.5, Sample.from_column(col, y))
    assert adj == pytest.approx(plain, rel=1e-14)


def test_adjusted_statistic_orthogonal_covariate_invariance():
    rng = np.random.default_rng(8)
    n = 100
    col = _column(rng, n)
    y = rng.normal(size=n)
    u = column_features(2.0, col)
    basis = np.column_stack([np.ones(n), u - u.mean(axis=0), y - y.mean()])
    qb, _ = np.linalg.qr(basis)
    raw = rng.normal(size=n)
    ortho = raw - qb @ (qb.T @ raw)
    z = CovariateMatrix(
        matrix=np.column_stack([np.ones(n), ortho]), names=("intercept", "w")
    )
    adj = adjusted_statistic(2.0, col, residualize(y, z))
    plain = dcov_fast(2.0, Sample.from_column(col, y))
    assert adj == pytest.approx(plain, rel=1e-12)


def test_adjusted_spectrum_intercept_only():
    rng = np.random.default_rng(9)
    n = 120
    col = _column(rng, n)
    spec = adjusted_spectrum(2.5, col, CovariateMatrix.intercept_only(n))
    freqs = np.bincount(col.values, minlength=3) / n
    ref = spectrum_unadjusted(2.5, freqs, n)
    assert spec.lambdas == pytest.approx(ref.lambdas, abs=1e-12)
    assert spec.df_sub == 1


def test_adjusted_spectrum_fully_explained_features():
    """Covariates spanning both feature directions kill the spectrum; the
    p-value degenerates to 1."""
    rng = np.random.default_rng(10)
    n = 90
    col = _column(rng, n)
    x = col.values.astype(float)
    z = CovariateMatrix(
        matrix=np.column_stack([np.ones(n), (x == 1).astype(float), x - 1.0]),
        names=("intercept", "het", "count"),
    )
    spec = adjusted_spectrum(3.0, col, z)
    assert spec.lambdas == pytest.approx((0.0, 0.0), abs=1e-14)
    assert exact_pvalue(spec, 0.0) == 1.0


def test_adjusted_spectrum_dense_oracle():
    rng = np.random.default_rng(11)
    n = 70
    col = _column(rng, n)
    z = _design(rng, n, 3)
    spec = adjusted_spectrum(1.7, col, z)
    u = column_features(1.7, col)
    q, _ = np.linalg.qr(z.matrix)
    pu = u - q @ (q.T @ u)
    ref = np.linalg.eigvalsh(pu.T @ pu / n)[::-1]
    assert spec.lambdas == pytest.approx(tuple(ref), abs=1e-12)
    assert spec.df_sub == 4


def test_spectrum_dominance():
    """Projection onto a larger nuisance space can only shrink the
    eigenvalues."""
    rng = np.random.default_rng(12)
    n = 150
    col = _column(rng, n)
    z = _design(rng, n, 3)
    adj = adjusted_spectrum(2.2, col, z)
    freqs = np.bincount(col.values, minlength=3) / n
    plain = spectrum_unadjusted(2.2, freqs, n)
    for a, u in zip(adj.lambdas, plain.lambdas):
        assert a <= u + 1e-12


def test_adjusted_asymptotic_intercept_only_b4():
    p = (0.25, 0.5, 0.25)
    moments = JointMoments(
        e_phi_phi=population_feature_moments(4.0, p),
        e_phi_z=np.array([[0.0], [0.0]]),  # E[phi] = 0 at these frequencies
        e_zz=np.array([[1.0]]),
    )
    spec = adjusted_asymptotic_spectrum(4.0, moments, n=100)
    assert spec.lambdas[0] == pytest.approx(1.0, abs=1e-14)
    assert spec.lambdas[1] == pytest.approx(0.0, abs=1e-14)


def test_adjusted_asymptotic_independent_covariate_matches_unadjusted():
    rng = np.random.default_rng(13)
    p = _hwe(0.3)
    b = 2.4
    e_phi_phi = population_feature_moments(b, p)
    fm = canonical_feature_table(b)
    e_phi = (fm * p).sum(axis=1)
    # Z = (1, W) with W independent of X, E[W]=0.3, E[W^2]=1.3
    e_phi_z = np.column_stack([e_phi, 0.3 * e_phi])
    e_zz = np.array([[1.0, 0.3], [0.3, 1.3]])
    spec = adjusted_asymptotic_spectrum(b, JointMoments(e_phi_phi, e_phi_z, e_zz),
                                        n=100)
    # population analogue of plain centering: covariance of the features
    cov = e_phi_phi - np.outer(e_phi, e_phi)
    ref = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert spec.lambdas == pytest.approx(tuple(ref), abs=1e-12)


def test_adjusted_asymptotic_lln_consistency():
    """Empirical adjusted spectra converge to the population one."""
    rng = np.random.default_rng(14)
    n = 100_000
    b = 2.0
    p = _hwe(0.25)
    x = rng.choice(3, size=n, p=p)
    w = rng.normal(0.5, 1.0, size=n)
    col = GenotypeColumn("snp", "1", 1, x.astype(np.int8))
    z = CovariateMatrix(
        matrix=np.column_stack([np.ones(n), w]), names=("intercept", "w")
    )
    emp = adjusted_spectrum(b, col, z)
    fm = canonical_feature_table(b)
    e_phi = (fm * p).sum(axis=1)
    e_phi_z = np.column_stack([e_phi, 0.5 * e_phi])
    e_zz = np.array([[1.0, 0.5], [0.5, 1.25]])
    pop = adjusted_asymptotic_spectrum(
        b, JointMoments(population_feature_moments(b, p), e_phi_z, e_zz), n=100
    )
    assert emp.lambdas == pytest.approx(pop.lambdas, abs=1e-2)


def test_adjusted_asymptotic_singular_moments():
    moments = JointMoments(
        e_phi_phi=np.eye(2), e_phi_z=np.zeros((2, 2)), e_zz=np.ones((2, 2))
    )
    with pytest.raises(ValueError, match="singular"):
        adjusted_asymptotic_spectrum(2.0, moments)


def test_adjusted_null_calibration_small():
    """Quick uniformity check of adjusted p-values on a fixed design."""
    rng = np.random.default_rng(15)
    n, q, reps = 120, 2, 4000
    col = _column(rng, n)
    z = _design(rng, n, q)
    qb = z.orthonormal_basis()
    u = column_features(2.0, col)
    spec = spectrum_from_features(u, projector_basis=z.matrix)
    gamma = rng.normal(size=q + 1)
    y = z.matrix @ gamma + rng.standard_normal((reps, n))
    resid = y - (y @ qb) @ qb.T
    v = resid @ u
    rss = (resid**2).sum(axis=1)
    ks = (v**2).sum(axis=1) / rss
    from gdcscan.nulldist import exact_pvalues_batch

    ps = exact_pvalues_batch(
        np.full(reps, spec.lambdas[0]), np.full(reps, spec.lambdas[1]),
        ks, n, spec.df_sub,
    )
    from scipy import stats as st

    ks_stat = st.kstest(ps, "uniform").statistic
    assert ks_stat < 1.63 / np.sqrt(reps) * 1.5


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(20, 400),
    q=st.integers(1, 4),
    kind=st.sampled_from(["hard", "dosage"]),
    b=st.floats(0.0, 4.0),
    frac=st.floats(0.0, 0.9),
)
def test_adjusted_bound_sandwich(seed, n, q, kind, b, frac):
    """p* <= p <= p** with no tolerance on covariate-adjusted spectra, as
    acceptance criterion 05 checks it on unadjusted ones: 1-4 covariates,
    hard calls or dosages, any b, statistics up to 0.9 n lambda1."""
    rng = np.random.default_rng(seed)
    z = _design(rng, n, q)
    x = rng.choice(3, size=n, p=_hwe(rng.uniform(0.05, 0.5)))
    x[:3] = [0, 1, 2]
    if kind == "hard":
        col = GenotypeColumn("snp", "1", 1, x.astype(np.int8))
    else:
        dose = np.clip(x + rng.uniform(-0.4, 0.4, size=n), 0.0, 2.0)
        col = GenotypeColumn("snp", "1", 1, dose, kind="dosage")
    spec = spectrum_from_features(column_features(b, col), projector_basis=z.matrix)
    assume(spec.lambdas[0] > 0.0)
    k = frac * spec.lambdas[0] * n
    lo, hi = pvalue_bounds(spec, k)
    p = exact_pvalue(spec, k)
    assert lo <= p <= hi, (lo, p, hi)
