"""Null spectra, the Appell/generalized-F machinery, bounds, inversion."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from gdcscan import nulldist as nd
from gdcscan.gdc import Sample
from gdcscan.nulldist import (
    NullSpectrum,
    NumericsError,
    angular_tail,
    asymptotic_pvalue,
    eig2x2,
    exact_pvalue,
    exact_pvalue_with_method,
    exact_pvalues_batch,
    genF_cdf,
    genF_sf,
    pvalue_bounds,
    pvalue_bounds_batch,
    snap_eigenvalues,
    spectrum_from_features,
    spectrum_matrix,
    spectrum_unadjusted,
    weighted_chisq_tail,
)
from appell_oracle import appell_f1
from oracles import canonical_feature_table


def _features(b, x):
    return canonical_feature_table(b)[:, np.asarray(x)].T


def _hwe(maf):
    return np.array([(1 - maf) ** 2, 2 * maf * (1 - maf), maf**2])


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def test_spectrum_endpoint_cases():
    spec4 = spectrum_unadjusted(4.0, (0.25, 0.5, 0.25), 100)
    assert spec4.lambdas == pytest.approx((1.0, 0.0))
    spec0 = spectrum_unadjusted(0.0, (0.25, 0.5, 0.25), 100)
    assert spec0.lambdas == pytest.approx((0.5, 0.0))


def test_spectrum_balanced_b2():
    spec = spectrum_unadjusted(2.0, (0.25, 0.5, 0.25), 100)
    assert spec.lambdas == pytest.approx((0.5, 0.25))


def test_spectrum_matches_gram_oracle():
    """Closed-form frequency spectrum equals the eigenvalues of the
    centered feature Gram computed from a sample with those exact counts."""
    rng = np.random.default_rng(3)
    for b in (0.5, 1.0, 2.0, 2.5, 3.7):
        counts = (12, 23, 9)
        x = np.repeat([0, 1, 2], counts)
        rng.shuffle(x)
        n = x.size
        spec = spectrum_unadjusted(b, np.asarray(counts) / n, n)
        gram_spec = spectrum_from_features(_features(b, x))
        assert spec.lambdas == pytest.approx(gram_spec.lambdas, abs=1e-12)
        # trace / determinant identities against the closed-form matrix
        k = spectrum_matrix(b, np.asarray(counts) / n)
        assert sum(spec.lambdas) == pytest.approx(np.trace(k), abs=1e-14)
        assert spec.lambdas[0] * spec.lambdas[1] == pytest.approx(
            np.linalg.det(k), abs=1e-14
        )


def test_spectrum_from_features_dense_oracle():
    rng = np.random.default_rng(11)
    u = rng.normal(size=(6, 2))
    spec = spectrum_from_features(u)
    uc = u - u.mean(axis=0)
    ref = np.linalg.eigvalsh(uc.T @ uc / 6)[::-1]
    assert spec.lambdas == pytest.approx(tuple(ref), abs=1e-12)
    assert spec.df_sub == 1


def test_spectrum_from_features_with_projector():
    rng = np.random.default_rng(13)
    n = 40
    u = rng.normal(size=(n, 2))
    z = np.column_stack([np.ones(n), rng.normal(size=n)])
    spec = spectrum_from_features(u, projector_basis=z)
    q, _ = np.linalg.qr(z)
    pu = u - q @ (q.T @ u)
    ref = np.linalg.eigvalsh(pu.T @ pu / n)[::-1]
    assert spec.lambdas == pytest.approx(tuple(ref), abs=1e-12)
    assert spec.df_sub == 2
    # intercept-only projector equals plain centering
    only1 = spectrum_from_features(u, projector_basis=np.ones((n, 1)))
    plain = spectrum_from_features(u)
    assert only1.lambdas == pytest.approx(plain.lambdas, abs=1e-14)


def test_spectrum_orthogonal_covariate_no_change():
    rng = np.random.default_rng(17)
    n = 60
    x = rng.integers(0, 3, n)
    u = _features(2.5, x)
    uc = u - u.mean(axis=0)
    # build a covariate orthogonal to both centered feature columns
    raw = rng.normal(size=n)
    basis = np.column_stack([np.ones(n), uc])
    q, _ = np.linalg.qr(basis)
    ortho = raw - q @ (q.T @ raw)
    z = np.column_stack([np.ones(n), ortho])
    adjusted = spectrum_from_features(u, projector_basis=z)
    plain = spectrum_from_features(u)
    assert adjusted.lambdas == pytest.approx(plain.lambdas, abs=1e-12)
    assert adjusted.df_sub == 2


def test_spectrum_rank_deficient_projector():
    n = 30
    z = np.column_stack([np.ones(n), np.ones(n)])
    with pytest.raises(ValueError, match="collinear"):
        spectrum_from_features(np.random.default_rng(0).normal(size=(n, 2)), z)


def test_snap_eigenvalues():
    lam = snap_eigenvalues([1.0, 1e-15, -1e-18])
    assert lam == (1.0, 0.0, 0.0)
    assert snap_eigenvalues([0.0, 0.0]) == (0.0, 0.0)


def test_null_spectrum_validation():
    with pytest.raises(ValueError):
        NullSpectrum(lambdas=(0.1, 0.5), n=100)  # not descending
    with pytest.raises(ValueError):
        NullSpectrum(lambdas=(0.5, 0.1), n=3)
    with pytest.raises(ValueError):
        NullSpectrum(lambdas=(0.5, 0.1), n=4, df_sub=2)  # no noise df left


# ---------------------------------------------------------------------------
# Appell F1
# ---------------------------------------------------------------------------


def test_appell_trivial_reductions():
    assert appell_f1(3.1, 0.5, 1.0, 2.0, 0.0, 0.0) == 1.0
    assert appell_f1(2.5, 0.5, 1.0, 2.0, 0.0, 0.6) == pytest.approx(
        float(special.hyp2f1(2.5, 1.0, 2.0, 0.6)), rel=1e-13
    )
    assert appell_f1(2.5, 0.5, 1.0, 2.0, 0.3, 0.0) == pytest.approx(
        float(special.hyp2f1(2.5, 0.5, 2.0, 0.3)), rel=1e-13
    )


def test_appell_frozen_value():
    # frozen from the two-dimensional simplex-integral oracle (and mpmath)
    assert appell_f1(2.5, 0.5, 1.0, 2.0, 0.3, 0.6) == pytest.approx(
        4.0496703643304789, rel=1e-12
    )


def test_appell_against_simplex_integral_oracle():
    """Independent evaluation through the two-variable simplex integral,
    valid for c > b1 + b2."""
    a, b1, b2, c, x, y = 1.8, 0.4, 0.9, 2.5, 0.45, 0.7
    pref = special.gamma(c) / (
        special.gamma(b1) * special.gamma(b2) * special.gamma(c - b1 - b2)
    )

    def f(v, u):
        return (
            u ** (b1 - 1.0)
            * v ** (b2 - 1.0)
            * (1.0 - u - v) ** (c - b1 - b2 - 1.0)
            * (1.0 - u * x - v * y) ** (-a)
        )

    val, _ = integrate.dblquad(f, 0, 1, 0, lambda u: 1 - u, epsabs=1e-12)
    assert appell_f1(a, b1, b2, c, x, y) == pytest.approx(pref * val, rel=1e-8)


def test_appell_against_mpmath_grid():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    cases = [
        (2.5, 0.5, 1.0, 2.0, 0.3, 0.6),
        (25.5, 0.5, 1.0, 2.0, 0.2, 0.9),
        (5.0, 0.5, 1.0, 2.0, 0.85, 0.9),
        (12.0, 0.5, 1.0, 2.0, 0.7, 0.75),
        (2.5, 1.5, 0.7, 3.0, -0.4, 0.8),
        (1.2, 0.3, 0.6, 1.5, 0.5, -0.6),
        (4.0, 0.5, 1.0, 2.0, 0.05, 0.1),
    ]
    for a, b1, b2, c, x, y in cases:
        ref = float(mp.appellf1(a, b1, b2, c, x, y))
        assert appell_f1(a, b1, b2, c, x, y) == pytest.approx(ref, rel=1e-11)


def test_appell_domain_errors():
    with pytest.raises(ValueError):
        appell_f1(2.0, 0.5, 1.0, -1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        appell_f1(2.0, 0.5, 1.0, 2.0, 1.1, 0.1)


@pytest.mark.parametrize("r", [0.3, 0.6, 0.9])
def test_appell_series_refuses_cancellation(r):
    """F1(1/2; -nu/2, nu/2; 1; z, zr) at nu = 47, z = 0.714: the series
    rows peak at 1e7 to 1e14 times the sum, and the value they give is off
    mpmath's by 9e-9, 3e-5 and 1.4e-2 relative at these r."""
    with pytest.raises(NumericsError, match="cancels"):
        appell_f1(0.5, -23.5, 23.5, 1.0, 0.714, 0.714 * r)


# ---------------------------------------------------------------------------
# generalized F
# ---------------------------------------------------------------------------


def test_genf_equal_weights_collapse():
    """Equal weights reduce to a scaled classical F(2, nu)."""
    for alpha, nu in ((0.7, 10), (1.3, 47), (0.2, 297)):
        for x in (0.05, 0.8, 3.0, 12.0):
            assert genF_cdf(alpha, alpha, nu, x) == pytest.approx(
                float(stats.f.cdf(x / alpha, 2, nu)), rel=1e-12, abs=1e-15
            )


def test_genf_frozen_value():
    # frozen from a 30-digit evaluation of the Appell closed form
    assert genF_cdf(0.7, 0.2, 47, 3.1) == pytest.approx(
        0.99440950814532232, rel=1e-13
    )


def test_genf_zero_and_monotone():
    assert genF_cdf(0.9, 0.3, 20, 0.0) == 0.0
    xs = np.linspace(0.0, 40.0, 60)
    vals = [genF_cdf(0.9, 0.3, 20, float(x)) for x in xs]
    assert all(b2 >= b1 - 1e-15 for b1, b2 in zip(vals, vals[1:]))
    assert vals[0] == 0.0
    assert vals[-1] > 0.999
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_genf_domain_errors():
    with pytest.raises(ValueError):
        genF_cdf(0.2, 0.7, 10, 1.0)  # alpha1 < alpha2
    with pytest.raises(ValueError):
        genF_cdf(0.7, 0.2, 10, -1.0)


def test_genf_matches_inversion():
    """Cross-validation of the closed form against the characteristic
    function inversion of the defining quadratic form."""
    rng = np.random.default_rng(19)
    for _ in range(25):
        a2 = rng.uniform(0.05, 1.0)
        a1 = a2 + rng.uniform(0.0, 1.5)
        nu = int(rng.integers(5, 400))
        x = rng.uniform(0.01, 15.0)
        direct = genF_sf(a1, a2, nu, x)
        inv = weighted_chisq_tail(
            np.array([a1 / 2, a2 / 2, -x / nu]), dfs=np.array([1.0, 1.0, float(nu)]),
        )
        assert direct == pytest.approx(inv, abs=1e-9)


def test_genf_matches_appell_closed_form():
    """The angular integral equals the Appell F1 closed form of the
    survival function, r^(nu/2) (1-z)^(-1/2)
    F1(1/2; 1, nu/2; 1; z/(z-1), -z(1-r)/(1-z)) with z = 1 - alpha2/alpha1
    and r = nu alpha1 / (nu alpha1 + 2x), evaluated by the series oracle."""
    rng = np.random.default_rng(29)
    for _ in range(40):
        a1 = rng.uniform(0.1, 2.0)
        a2 = a1 * rng.uniform(0.55, 1.0)
        nu = float(rng.integers(3, 400))
        x = rng.uniform(0.01, 30.0)
        z = 1.0 - a2 / a1
        r = nu * a1 / (nu * a1 + 2.0 * x)
        f1 = appell_f1(0.5, 1.0, nu / 2.0, 1.0, z / (z - 1.0), -z * (1.0 - r) / (1.0 - z))
        closed = r ** (nu / 2.0) * (1.0 - z) ** -0.5 * f1
        assert genF_sf(a1, a2, nu, x) == pytest.approx(closed, rel=1e-10)


def test_genf_batch_matches_scalar():
    rng = np.random.default_rng(23)
    a2 = rng.uniform(0.05, 1.0, size=50)
    a1 = a2 + rng.uniform(0.0, 1.5, size=50)
    nu = rng.integers(5, 2000, size=50).astype(float)
    x = rng.uniform(0.0, 30.0, size=50)
    batch = angular_tail(a1 / 2.0, a2 / 2.0, x, nu)
    for i in range(50):
        assert batch[i] == pytest.approx(
            genF_sf(a1[i], a2[i], nu[i], x[i]), rel=1e-10, abs=1e-300
        )


def test_chisq2_batch_matches_scalar():
    rng = np.random.default_rng(29)
    w2 = rng.uniform(0.05, 1.0, size=40)
    w1 = w2 + rng.uniform(0.0, 2.0, size=40)
    t = rng.uniform(0.0, 60.0, size=40)
    batch = angular_tail(w1, w2, t, math.inf)
    for i in range(40):
        assert batch[i] == pytest.approx(
            angular_tail(w1[i], w2[i], t[i], math.inf), rel=1e-10, abs=1e-300
        )


def test_tail_batches_independent_of_batch_members():
    """An entry's value does not depend on which other entries share its
    batch, also when some of them need a higher quadrature order."""
    rng = np.random.default_rng(31)
    m = 200
    w1 = 10.0 ** rng.uniform(-3.0, 1.0, m)
    w2 = w1 * 10.0 ** rng.uniform(-2.0, 0.0, m)
    t = 10.0 ** rng.uniform(-3.0, 2.0, m)
    nu = rng.uniform(3.0, 3000.0, m)
    # holdout entries: a negative second weight cuts the angular range
    w2_neg = -w1 * 10.0 ** rng.uniform(-2.0, 0.5, m)
    # both signs of the second weight, finite and infinite nu, in one batch
    w2_mixed = np.where(rng.random(m) < 0.5, w2, w2_neg)
    nu_mixed = np.where(rng.random(m) < 0.5, math.inf, nu)
    chisq = angular_tail(w1, w2, t, math.inf)
    genf = angular_tail(w1 / 2.0, w2 / 2.0, t, nu)
    hold = angular_tail(w1, w2_neg, t, nu)
    hold_chisq = angular_tail(w1, w2_neg, t, math.inf)
    mixed = angular_tail(w1, w2_mixed, t, nu_mixed)
    for i in range(m):
        one = slice(i, i + 1)
        assert angular_tail(w1[one], w2[one], t[one], math.inf)[0] == chisq[i]
        assert angular_tail(w1[one] / 2.0, w2[one] / 2.0, t[one], nu[one])[0] == genf[i]
        assert angular_tail(w1[one], w2_neg[one], t[one], nu[one])[0] == hold[i]
        assert angular_tail(w1[one], w2_neg[one], t[one], math.inf)[0] == hold_chisq[i]
        assert angular_tail(w1[one], w2_mixed[one], t[one], nu_mixed[one])[0] == mixed[i]


def test_adaptive_fallback_keeps_integration_warnings_inside(monkeypatch):
    """A holdout chi-square entry whose quadrature orders disagree goes to
    the adaptive fallback; SciPy's roundoff warning stays inside it (no
    global filter is touched), and the value is unchanged."""
    calls = []
    quad = nd._quad
    monkeypatch.setattr(nd, "_quad", lambda *a, **k: calls.append(k) or quad(*a, **k))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = angular_tail(7.16e-6, -8.52e-3, 17.09, math.inf)
    assert calls
    assert p == 0.0


# ---------------------------------------------------------------------------
# weighted chi-square inversion
# ---------------------------------------------------------------------------


def test_inversion_one_sign_and_equal_weights():
    """One weight, or all weights equal (zero weights dropped), takes the
    shortcut: the form is nonnegative for a positive weight and
    nonpositive for a negative one.  Unequal weights of one sign go
    through the inversion and land on the same 1 or 0."""
    assert weighted_chisq_tail([2.0]) == 1.0
    assert weighted_chisq_tail([-2.0]) == 0.0
    assert weighted_chisq_tail([1.0, 1.0], dfs=[1.0, 3.0]) == 1.0
    assert weighted_chisq_tail([-0.5, 0.0, -0.5]) == 0.0
    assert weighted_chisq_tail([0.6, 0.3, 0.1]) == pytest.approx(1.0, abs=1e-9)
    assert weighted_chisq_tail([-0.6, -0.3], dfs=[1.0, 40.0]) == pytest.approx(0.0, abs=1e-9)


def test_inversion_requires_nonzero_weight():
    with pytest.raises(ValueError):
        weighted_chisq_tail([0.0, 0.0])


def test_inversion_mixed_weights_frozen_mc():
    # 1e7-draw Monte Carlo gave 0.81101 with standard error 1.2e-4
    p = weighted_chisq_tail([0.6, 0.3, -0.1, -0.1])
    assert p == pytest.approx(0.8110129, abs=5e-4)


def test_inversion_matches_mc_small():
    rng = np.random.default_rng(31)
    w = np.array([0.5, -0.2, 0.1, -0.15])
    n = 2_000_000
    draws = sum(wr * rng.standard_normal(n) ** 2 for wr in w)
    mc = float((draws >= 0.0).mean())
    se = math.sqrt(mc * (1 - mc) / n)
    assert weighted_chisq_tail(w) == pytest.approx(mc, abs=4 * se)


def test_holdout_tail_two_matches_inversion():
    rng = np.random.default_rng(37)
    for _ in range(20):
        w1 = rng.uniform(0.1, 1.0)
        w2 = rng.uniform(-0.3, 0.3)
        kn = rng.uniform(0.001, 0.2)
        nu = int(rng.integers(10, 500))
        a = angular_tail(w1, w2, kn * nu, nu)
        i = weighted_chisq_tail(np.array([w1, w2, -kn]), dfs=np.array([1.0, 1.0, float(nu)]))
        assert a == pytest.approx(i, abs=2e-9)


def test_holdout_tail_two_no_noise_term():
    # kn = 0 with a negative second weight: closed angular fraction
    w1, w2 = 0.7, -0.2
    expected = (2.0 / math.pi) * math.atan(math.sqrt(w1 / -w2))
    assert angular_tail(w1, w2, 0.0, 50) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# exact p-values
# ---------------------------------------------------------------------------


def test_exact_pvalue_at_zero_statistic():
    spec = spectrum_unadjusted(2.0, _hwe(0.3), 200)
    assert exact_pvalue(spec, 0.0) == 1.0


def test_exact_pvalue_monotone_in_k():
    spec = spectrum_unadjusted(2.5, _hwe(0.25), 150)
    ks = np.linspace(0.0, 40.0, 80)
    ps = [exact_pvalue(spec, float(k)) for k in ks]
    assert all(p2 <= p1 + 1e-12 for p1, p2 in zip(ps, ps[1:]))


def test_exact_pvalue_b4_equals_regression_f_test():
    """Endpoint reduction: the p-value is the classical two-sided simple
    linear regression F/t-test p-value."""
    rng = np.random.default_rng(41)
    for _ in range(30):
        n = int(rng.integers(10, 120))
        x = rng.choice(3, size=n, p=_hwe(0.3))
        if len(np.unique(x)) < 2:
            continue
        y = rng.normal(size=n)
        s = Sample.from_arrays(x, y)
        from gdcscan.gdc import standardized_statistic

        k, _ = standardized_statistic(4.0, s)
        spec = spectrum_unadjusted(4.0, np.bincount(x, minlength=3) / n, n)
        p = exact_pvalue(spec, k)
        ref = float(stats.linregress(x.astype(float), y).pvalue)
        assert p == pytest.approx(ref, abs=1e-10)


def test_exact_pvalue_b0_equals_het_indicator_f_test():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(10, 120))
        x = rng.choice(3, size=n, p=_hwe(0.4))
        het = (x == 1).astype(float)
        if het.std() == 0:
            continue
        y = rng.normal(size=n)
        s = Sample.from_arrays(x, y)
        from gdcscan.gdc import standardized_statistic

        k, _ = standardized_statistic(0.0, s)
        spec = spectrum_unadjusted(0.0, np.bincount(x, minlength=3) / n, n)
        p = exact_pvalue(spec, k)
        ref = float(stats.linregress(het, y).pvalue)
        assert p == pytest.approx(ref, abs=1e-10)


def test_exact_pvalue_degenerate_spectrum():
    spec = NullSpectrum(lambdas=(0.0, 0.0), n=50)
    p, method = exact_pvalue_with_method(spec, 0.0)
    assert p == 1.0 and method == "degenerate spectrum"
    p2, _ = exact_pvalue_with_method(spec, 1.0)
    assert p2 == 0.0


def test_exact_pvalue_hard_regime_routes_to_inversion():
    spec = NullSpectrum(lambdas=(0.6, 0.01), n=300)
    k = 7.0  # second eigenvalue below k/n
    assert spec.lambdas[1] - k / spec.n <= 0
    p, method = exact_pvalue_with_method(spec, k)
    assert method == "weighted_chisq_inversion"
    # independent Monte Carlo of the holdout law
    rng = np.random.default_rng(47)
    n = 300
    draws = (
        (0.6 - k / n) * rng.standard_normal(4_000_000) ** 2
        + (0.01 - k / n) * rng.standard_normal(4_000_000) ** 2
        - (k / n) * rng.chisquare(n - 3, 4_000_000)
    )
    mc = float((draws >= 0).mean())
    se = math.sqrt(p * (1 - p) / 4_000_000)
    assert p == pytest.approx(mc, abs=4 * se + 1e-9)


@pytest.mark.parametrize("lambdas, n, df_sub, k", [
    ((0.6, 0.01), 300, 1, 0.5), ((0.5, 0.3), 100, 1, 3.0), ((0.4, 0.02), 60, 3, 0.3),
    ((0.6, 0.01), 300, 1, 7.0)], ids=["appell", "appell_small_p", "covariates", "holdout"])
def test_failed_angular_integral_falls_back_to_inversion(monkeypatch, lambdas, n, df_sub, k):
    """A two-eigenvalue entry whose angular integral fails (NaN) is
    evaluated by characteristic-function inversion instead, and reports
    that route, with the same p-value up to the inversion's accuracy."""
    spec = NullSpectrum(lambdas=lambdas, n=n, df_sub=df_sub)
    p, _ = exact_pvalue_with_method(spec, k)
    monkeypatch.setattr(nd, "_tail", lambda w1, *rest: np.full(w1.shape, np.nan))
    p_inv, method = exact_pvalue_with_method(spec, k)
    assert method == "weighted_chisq_inversion"
    assert p_inv == pytest.approx(p, abs=1e-10)


def test_exact_pvalue_multi_eigenvalue_route():
    spec = NullSpectrum(lambdas=(0.5, 0.3, 0.2, 0.1), n=100)
    p, method = exact_pvalue_with_method(spec, 2.0)
    assert method == "weighted_chisq_inversion"
    assert 0.0 < p < 1.0


def test_exact_pvalue_null_calibration_mc():
    """End-to-end check of the conditional null law on a fixed design."""
    rng = np.random.default_rng(53)
    n, b = 80, 2.2
    x = rng.choice(3, size=n, p=_hwe(0.3))
    u = _features(b, x)
    uc = u - u.mean(axis=0)
    spec = spectrum_from_features(u)
    reps = 300_000
    y = rng.standard_normal((reps, n))
    yc = y - y.mean(axis=1, keepdims=True)
    v = yc @ uc
    ks = (v**2).sum(axis=1) / (yc**2).sum(axis=1)
    for q in (0.9, 0.99):
        kq = float(np.quantile(ks, q))
        emp = float((ks >= kq).mean())
        se = math.sqrt(emp * (1 - emp) / reps)
        assert exact_pvalue(spec, kq) == pytest.approx(emp, abs=4 * se)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_sandwich_randomized():
    rng = np.random.default_rng(59)
    checked = 0
    for _ in range(800):
        n = int(rng.integers(20, 1500))
        spec = spectrum_unadjusted(
            rng.uniform(0.05, 4.0), _hwe(rng.uniform(0.05, 0.5)), n
        )
        if spec.lambdas[0] <= 0:
            continue
        k = rng.uniform(0.0, 0.9 * spec.lambdas[0] * n)
        lo, hi = pvalue_bounds(spec, k)
        p = exact_pvalue(spec, k)
        assert lo <= p <= hi
        checked += 1
    assert checked > 700


def test_bounds_zero_statistic():
    spec = spectrum_unadjusted(2.0, _hwe(0.3), 100)
    lo, hi = pvalue_bounds(spec, 0.0)
    assert lo == 1.0
    assert hi >= 1.0


def test_bounds_rank_one_branch():
    spec = spectrum_unadjusted(4.0, _hwe(0.3), 100)
    assert spec.lambdas[1] == 0.0
    lo, hi = pvalue_bounds(spec, 5.0)
    assert 0.0 < lo <= hi <= 1.0
    # the two tails are the (nu+1)- and nu-denominator classical F tails
    nu = 100 - 3
    l1 = spec.lambdas[0]
    assert lo == pytest.approx(
        float(stats.f.sf(5.0 * (nu + 1) / (l1 * 100 - 5.0), 1, nu + 1))
    )
    assert hi == pytest.approx(float(stats.f.sf(5.0 * nu / (l1 * 100 - 5.0), 1, nu)))


def test_single_eigenvalue_exact_equals_lower_bound():
    """With lam2 = 0 the exact law is the classical F(1, n - df_sub - 1)
    tail, the very tail p* takes: the two agree bit for bit, and both are
    0 once k >= lam1 n, where the statistic cannot be reached."""
    for n in (5, 8, 40, 333, 5000):
        for df_sub in (1, 2, 3):
            if n < df_sub + 3:
                continue
            for l1 in (0.037, 0.5, 1.9):
                spec = NullSpectrum(lambdas=(l1, 0.0), n=n, df_sub=df_sub)
                for frac in (0.0, 1e-6, 0.01, 0.2, 0.5, 0.9, 0.999, 1.0, 1.0 + 1e-12, 3.0):
                    k = l1 * n * frac
                    p, method = exact_pvalue_with_method(spec, k)
                    lo = pvalue_bounds(spec, k)[0]
                    assert np.float64(p).tobytes() == np.float64(lo).tobytes(), (n, df_sub, l1, k)
                    if frac >= 1.0:
                        assert p == lo == 0.0
                    elif method != "underflow":
                        assert method == "classical_F"


def test_nan_statistic_is_refused():
    """A NaN statistic, argument or variance gets no p-value: every entry's
    range check fails on NaN instead of letting it through as the most
    significant value."""
    spec = spectrum_unadjusted(2.0, _hwe(0.3), 200)
    for entry in (exact_pvalue, exact_pvalue_with_method, pvalue_bounds):
        with pytest.raises(ValueError, match="nonnegative"):
            entry(spec, math.nan)
    for entry in (genF_sf, genF_cdf):
        with pytest.raises(ValueError):
            entry(0.7, 0.2, 10, math.nan)
        with pytest.raises(ValueError):
            entry(0.7, 0.2, math.nan, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        asymptotic_pvalue(2.0, _hwe(0.3), 1.0, 1000, math.nan)
    with pytest.raises(ValueError, match="sigma2"):
        asymptotic_pvalue(2.0, _hwe(0.3), math.nan, 1000, 5.0)
    # the batch entries give NaN to an entry with a NaN argument, on every
    # route, and leave the finite entries' bits alone
    nan = math.nan
    finite = ([0.5, 0.5, 0.0], [0.0, 0.2, 0.0], [0.05, 0.05, 0.0], [100.0] * 3, [1.0] * 3)
    for slot in range(5):
        args = [np.array(v + [v[1]]) for v in finite]
        args[slot][-1] = nan
        p = exact_pvalues_batch(*args)
        bounds = pvalue_bounds_batch(*args)
        for got, want in ((p, exact_pvalues_batch(*finite)),
                          *zip(bounds, pvalue_bounds_batch(*finite))):
            assert np.isnan(got[-1]), slot
            assert got[:-1].tobytes() == want.tobytes(), slot
    for entry in (exact_pvalues_batch, pvalue_bounds_batch):
        out = np.array(entry([0.5, 0.5], [0.0, 0.2], [nan, nan], 100))
        assert np.isnan(out).all(), entry
        out = np.array(entry([0.5, 0.5], [0.0, 0.2], [1.0, 1.0], nan))
        assert np.isnan(out).all(), entry


def test_bounds_batch_matches_scalar():
    rng = np.random.default_rng(61)
    specs, ks = [], []
    for _ in range(60):
        n = int(rng.integers(20, 800))
        spec = spectrum_unadjusted(
            rng.uniform(0.1, 3.9), _hwe(rng.uniform(0.05, 0.5)), n
        )
        specs.append(spec)
        ks.append(rng.uniform(0.0, 0.8 * max(spec.lambdas[0], 0.01) * n))
    lo_b, hi_b = pvalue_bounds_batch(
        np.array([s.lambdas[0] for s in specs]),
        np.array([s.lambdas[1] for s in specs]),
        np.array(ks),
        np.array([s.n for s in specs]),
        1,
    )
    for i, (spec, k) in enumerate(zip(specs, ks)):
        lo, hi = pvalue_bounds(spec, k)
        assert lo_b[i] == pytest.approx(lo, rel=1e-10, abs=1e-300)
        assert hi_b[i] == pytest.approx(hi, rel=1e-10, abs=1e-300)


def test_exact_batch_matches_scalar():
    rng = np.random.default_rng(67)
    lam1, lam2, ks, ns = [], [], [], []
    for _ in range(50):
        n = int(rng.integers(20, 600))
        spec = spectrum_unadjusted(
            rng.uniform(0.1, 3.9), _hwe(rng.uniform(0.05, 0.5)), n
        )
        lam1.append(spec.lambdas[0])
        lam2.append(spec.lambdas[1])
        ns.append(n)
        ks.append(rng.uniform(0.0, 0.7 * max(spec.lambdas[0], 0.01) * n))
    batch = exact_pvalues_batch(
        np.array(lam1), np.array(lam2), np.array(ks), np.array(ns), 1
    )
    for i in range(50):
        spec = NullSpectrum(lambdas=(lam1[i], lam2[i]), n=ns[i])
        assert batch[i] == pytest.approx(
            exact_pvalue(spec, ks[i]), rel=1e-9, abs=1e-300
        )


def test_scalar_and_batch_routes_agree_bitwise():
    """The scalar p-value and bounds are one-entry calls of the batch
    router: the same bits on every route (generalized F, holdout,
    classical F, degenerate, underflow), whatever the batch holds."""
    rng = np.random.default_rng(71)
    m = 240
    n = rng.integers(20, 3000, m)
    df_sub = rng.integers(1, 4, m)
    lam1 = rng.uniform(0.05, 1.0, m)
    lam2 = lam1 * rng.uniform(0.0, 1.0, m)
    kind = rng.integers(0, 4, m)
    lam2[kind == 1] = 0.0
    lam1[kind == 2] = 0.0
    lam2[kind == 2] = 0.0
    k = np.maximum(lam1, 0.01) * n * rng.uniform(0.0, 1.0, m)
    k[::17] = 0.0
    batch = exact_pvalues_batch(lam1, lam2, k, n, df_sub)
    lo_b, hi_b = pvalue_bounds_batch(lam1, lam2, k, n, df_sub)
    methods = set()
    for i in range(m):
        spec = NullSpectrum(lambdas=(lam1[i], lam2[i]), n=int(n[i]), df_sub=int(df_sub[i]))
        p, method = exact_pvalue_with_method(spec, float(k[i]))
        methods.add(method)
        assert p == batch[i]
        assert pvalue_bounds(spec, float(k[i])) == (lo_b[i], hi_b[i])
    assert methods == {
        "exact_appell", "weighted_chisq_inversion", "classical_F",
        "degenerate spectrum", "underflow",
    }


def _top_order(monkeypatch, lam1, lam2, k, n, df_sub):
    """The highest Gauss-Legendre order each entry's one-entry router call
    evaluates (0 when it evaluates none)."""
    grid, seen, top = nd._gl_nodes, [], []

    def spy(orders):
        seen.extend(orders)
        return grid(orders)

    with monkeypatch.context() as patch:
        patch.setattr(nd, "_gl_nodes", spy)
        for row in zip(lam1, lam2, k, n, df_sub):
            seen.clear()
            exact_pvalues_batch(*row)
            top.append(max(seen, default=0))
    return np.array(top)


def _same_bits(a, b):
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_route_batches_equal_their_entries_in_a_mixed_batch(monkeypatch):
    """A batch whose entries all take one route (every entry two-eigenvalue,
    live, uncut, converging at order 128; all holdout entries, whose
    angular range is cut; all single-eigenvalue, degenerate or underflow
    entries; entries that need order 256 or 512) gives the bits those
    entries get inside a mixed batch, for the p-values and the bounds."""
    rng = np.random.default_rng(73)
    m = 900
    n = rng.integers(8, 3000, m).astype(float)
    df_sub = rng.integers(1, 5, m).astype(float)
    lam1 = 10.0 ** rng.uniform(-3.0, 0.3, m)
    lam2 = lam1 * 10.0 ** rng.uniform(-6.0, 0.0, m)
    kind = rng.integers(0, 6, m)
    lam2[kind == 1] = 0.0
    lam1[kind == 2] = lam2[kind == 2] = 0.0
    k = lam1 * n * 10.0 ** rng.uniform(-4.0, 0.2, m)
    k[kind == 2] = rng.choice([0.0, 1.0], (kind == 2).sum())
    k[kind == 3] = lam2[kind == 3] * n[kind == 3] * rng.uniform(0.5, 1.5, (kind == 3).sum())
    _, code = nd._route_two(lam1, lam2, k, n, df_sub)
    top = _top_order(monkeypatch, lam1, lam2, k, n, df_sub)
    exact = code == nd._EXACT
    groups = {
        "exact at 128": exact & (top == 128),
        "exact at 256 or 512": exact & (top > 128),
        "holdout": code == nd._INVERSION,
        "classical F": code == nd._CLASSICAL_F,
        "degenerate": code == nd._DEGENERATE,
        "underflow": code == nd._UNDERFLOW,
    }
    assert (top == 512).any()
    p = exact_pvalues_batch(lam1, lam2, k, n, df_sub)
    lo, hi = pvalue_bounds_batch(lam1, lam2, k, n, df_sub)
    for name, sel in groups.items():
        assert sel.sum() >= 10, name
        args = (lam1[sel], lam2[sel], k[sel], n[sel], df_sub[sel])
        _same_bits(exact_pvalues_batch(*args), p[sel])
        lo_g, hi_g = pvalue_bounds_batch(*args)
        _same_bits(lo_g, lo[sel])
        _same_bits(hi_g, hi[sel])


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def test_asymptotic_zero_statistic():
    assert asymptotic_pvalue(2.0, _hwe(0.3), 1.0, 1000, 0.0) == 1.0


def test_asymptotic_b4_matches_chi2_slope_test():
    freqs = _hwe(0.25)
    k = spectrum_matrix(4.0, freqs)
    lam = eig2x2(k[0, 0], k[1, 1], k[0, 1])
    assert lam[1] == pytest.approx(0.0, abs=1e-15)
    stat = 3.7
    expected = float(stats.chi2.sf(stat / lam[0], 1))
    assert asymptotic_pvalue(4.0, freqs, 1.0, 5000, stat) == pytest.approx(
        expected, rel=1e-12
    )


def test_asymptotic_converges_to_exact():
    """The asymptotic tail approaches the exact law as n grows."""
    freqs = _hwe(0.3)
    b = 2.0
    gaps = []
    for n in (500, 5000, 50000):
        spec = spectrum_unadjusted(b, freqs, n)
        worst = 0.0
        for k in np.linspace(1.0, 25.0, 12):
            p_exact = exact_pvalue(spec, float(k))
            p_asy = asymptotic_pvalue(b, freqs, 1.0, n, float(k))
            worst = max(worst, abs(p_asy - p_exact) / max(p_exact, 1e-300))
        gaps.append(worst)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-2
