"""Verification oracles: the statistic's other forms and the geometry
they are built from.

The paper defines the statistic three ways: the double-centring
definition, the feature form and the kernel (HSIC) form. The scan
computes only the feature form (``gdcscan.gdc.dcov_fast``); the tests
prove the identities against the other two, against the premetric's
distances, kernels and canonical feature table, and against population
forms for the three-class mean model. Every function of the premetric takes its parameter ``b``
first. The simulation draws each replication's sufficient statistics from
their law; :func:`per_sample_stats` draws the samples themselves and
reduces them, the generator that law is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gdcscan.adjust import ResidualizedPhenotype, column_features
from gdcscan.gdc import Sample, dcov_fast
from gdcscan.nulldist import NullSpectrum, snap_eigenvalues, spectrum_from_features
from gdcscan.premetric import GenotypeColumn, check_b, feature_scales
from gdcscan.simbench import _chunk_stats, _ChunkStats, draw_genotypes

ORACLE_N_CAP = 2000
NEG_ROUNDOFF_TOL = 1e-14


def _clamp_nonneg(v: float) -> float:
    """A statistic summed from terms of both signs, with a negative
    round-off of at most ``NEG_ROUNDOFF_TOL`` set to zero."""
    if v < 0.0:
        if v < -NEG_ROUNDOFF_TOL:
            return v
        return 0.0
    return v


# ---------------------------------------------------------------------------
# genotype geometry
# ---------------------------------------------------------------------------


def distance(b: float, x: int, y: int) -> float:
    """Distance between two hard calls: 0 on the diagonal, 1 for het-hom
    pairs, b between the homozygotes."""
    if x not in (0, 1, 2) or y not in (0, 1, 2):
        raise ValueError("genotype states must be in {0, 1, 2}")
    if x == y:
        return 0.0
    if abs(x - y) == 1:
        return 1.0
    return b


def distance_matrix(b: float) -> np.ndarray:
    """3x3 matrix of pairwise state distances."""
    return np.array([[0.0, 1.0, b], [1.0, 0.0, 1.0], [b, 1.0, 0.0]])


def kernel(b: float, x: int, y: int) -> float:
    """Kernel associated with the premetric.

    Values: k(0,0) = k(2,2) = 1; k(0,2) = 2 - b; zero whenever either
    argument is the heterozygous state.
    """
    if x not in (0, 1, 2) or y not in (0, 1, 2):
        raise ValueError("genotype states must be in {0, 1, 2}")
    if x == 1 or y == 1:
        return 0.0
    if x == y:
        return 1.0
    return 2.0 - b


def induced_kernel(b: float, x: int, y: int, base_point: int = 1) -> float:
    """Kernel induced by the premetric at ``base_point``:
    d(x, x0) + d(y, x0) - d(x, y).

    This is the Gram form reproduced exactly by the translated canonical
    feature map; it is the kernel under which the quadratic form in the
    centered response equals the distance-covariance statistic.
    """
    return distance(b, x, base_point) + distance(b, y, base_point) - distance(b, x, y)


def canonical_feature_table(b: float) -> np.ndarray:
    """The canonical map of hard calls as a 2 x 3 table, one column per
    state 0, 1, 2: a signed homozygote contrast and a heterozygote
    indicator, scaled so squared feature distances equal 2 d(x, y)."""
    sqb, sqh = feature_scales(check_b(b))
    return np.array([[-sqb, 0.0, sqb], [0.0, sqh, 0.0]])


def pairwise_sq_dist(fm: np.ndarray, x: int, y: int) -> float:
    """Squared Euclidean distance between the feature columns of two
    states in a feature table ``fm`` (one row per feature, one column per
    state)."""
    d = fm[:, x] - fm[:, y]
    return float(d @ d)


def regime_feature_map(b: float) -> np.ndarray:
    """Three-feature table, one column per state, whose rows correspond
    to dominant, recessive and additive (resp. purely heterozygous)
    patterns.

    For b in [2, 4] the third feature is the additive ramp; for b in
    [0, 2] it is the heterozygote indicator.  Both regimes coincide at
    b = 2.
    """
    if b >= 2.0:
        phi1 = np.sqrt(4.0 - b) * np.array([0.0, 0.0, 1.0])
        phi2 = np.sqrt(4.0 - b) * np.array([0.0, 1.0, 1.0])
        phi3 = 2.0 * np.sqrt(b - 2.0) * np.array([0.0, 0.5, 1.0])
    else:
        phi1 = np.sqrt(b) * np.array([0.0, 0.0, 1.0])
        phi2 = np.sqrt(b) * np.array([0.0, 1.0, 1.0])
        phi3 = np.sqrt(2.0 - b) * np.array([0.0, 1.0, 0.0])
    return np.vstack([phi1, phi2, phi3])


def dosage_distance(b: float, x: float, y: float) -> float:
    """Distance between dosages induced by the interpolated features.

    (x - y)^2 when x and y lie on the same side of 1 (x >= 1 counts as
    the upper side), else (b/4)(x - y)^2 + ((4-b)/4)(x + y - 2)^2.
    """
    if not (0.0 <= x <= 2.0 and 0.0 <= y <= 2.0):
        raise ValueError("dosage values must lie in [0, 2]")
    same_side = (x >= 1.0) == (y >= 1.0)
    if same_side:
        return (x - y) ** 2
    return (b / 4.0) * (x - y) ** 2 + ((4.0 - b) / 4.0) * (x + y - 2.0) ** 2


def multiallelic_distance(b: float, x, y) -> float:
    """Distance between allele-count vectors: half the coordinate-wise
    sum of dosage distances.  Coordinates must sum to 2 (diploid)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("allele-count vectors must be 1-d with equal length")
    for v in (x, y):
        if abs(float(v.sum()) - 2.0) > 1e-9:
            raise ValueError("allele-count coordinates must sum to 2")
    return 0.5 * sum(dosage_distance(b, float(a), float(c)) for a, c in zip(x, y))


# ---------------------------------------------------------------------------
# the statistic's reference and kernel forms, and its population value
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PopulationModel:
    """Genotype class probabilities and conditional response means."""

    p: tuple
    mu: tuple

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.shape != (3,) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("p must be 3 nonnegative probabilities summing to 1")
        mu = np.asarray(self.mu, dtype=np.float64)
        if mu.shape != (3,):
            raise ValueError("mu must have 3 entries")
        object.__setattr__(self, "p", tuple(p))
        object.__setattr__(self, "mu", tuple(mu))

    @property
    def mu_y(self) -> float:
        return float(np.dot(self.p, self.mu))


def dcov_oracle(b: float, sample: Sample) -> float:
    """Reference double-centering evaluation, O(n^2)."""
    b = check_b(b)
    if sample.genotypes.kind != "hard":
        raise ValueError("the oracle path is defined for hard calls")
    n = sample.n
    if n > ORACLE_N_CAP:
        raise ValueError(f"oracle path capped at n <= {ORACLE_N_CAP}")
    x = sample.genotypes.values.astype(np.intp)
    y = sample.phenotype
    dx = distance_matrix(b)[np.ix_(x, x)]
    dy = 0.5 * np.subtract.outer(y, y) ** 2
    h = np.eye(n) - np.full((n, n), 1.0 / n)
    dxt = h @ dx @ h
    dyt = h @ dy @ h
    return _clamp_nonneg(float((dxt * dyt).sum()) / n**2)


def dcov_kernel_form(b: float, sample: Sample) -> float:
    """Kernel (HSIC) form: quadratic form of the centered response under
    the induced-kernel Gram, scaled by 1/(2 n^2).

    The Gram uses twice the induced kernel d(x,1) + d(y,1) - d(x,y); with
    that convention the kernel form coincides exactly with the
    double-centering definition.
    """
    b = check_b(b)
    if sample.genotypes.kind != "hard":
        raise ValueError("the kernel form is defined for hard calls")
    n = sample.n
    x = sample.genotypes.values.astype(np.intp)
    y = sample.phenotype
    yc = y - y.mean()
    states = np.array([0, 1, 2])
    kmat = np.array(
        [[2.0 * induced_kernel(b, int(a), int(c)) for c in states] for a in states]
    )
    gram = kmat[np.ix_(x, x)]
    return _clamp_nonneg(float(yc @ gram @ yc) / (2.0 * n**2))


def population_dcov(b: float, model: PopulationModel) -> float:
    """Population distance covariance for a three-class mean model."""
    check_b(b)
    p0, p1, p2 = model.p
    m0, m1, m2 = model.mu
    my = model.mu_y
    hom = -p0 * (m0 - my) + p2 * (m2 - my)
    het = p1 * (m1 - my)
    return (b / 2.0) * hom**2 + ((4.0 - b) / 2.0) * het**2


# ---------------------------------------------------------------------------
# covariate-adjusted statistic and spectra
# ---------------------------------------------------------------------------


def adjusted_statistic(b: float, geno: GenotypeColumn, resid: ResidualizedPhenotype) -> float:
    """Adjusted distance covariance: the plain statistic on the residuals."""
    sample = Sample.from_column(geno, resid.residuals)
    if sample.n != geno.n_total:
        raise ValueError(
            "adjusted_statistic expects a complete-case column; filter jointly "
            "with the covariates first"
        )
    return dcov_fast(b, sample)


def adjusted_spectrum(b: float, geno: GenotypeColumn, z) -> NullSpectrum:
    """Null spectrum of the adjusted statistic for a fixed design ``z``
    (a ``CovariateMatrix``)."""
    u = column_features(b, geno)
    return spectrum_from_features(u, projector_basis=z.matrix)


@dataclass(frozen=True)
class JointMoments:
    """Population moments for the large-sample adjusted spectrum.

    ``e_phi_phi`` is E[Phi Phi'], ``e_phi_z`` is E[Phi Z'], ``e_zz`` is
    E[Z Z'] with Z including the intercept coordinate.
    """

    e_phi_phi: np.ndarray
    e_phi_z: np.ndarray
    e_zz: np.ndarray


def adjusted_asymptotic_spectrum(b: float, moments: JointMoments, n: int = 4,
                                 df_sub: int | None = None) -> NullSpectrum:
    """Population analogue of :func:`adjusted_spectrum`.

    The eigenvalues come from E[Phi Phi'] minus the cross-moment correction
    through (E[Z Z'])^{-1}.
    """
    check_b(b)
    a = np.asarray(moments.e_phi_phi, dtype=np.float64)
    cz = np.asarray(moments.e_phi_z, dtype=np.float64)
    zz = np.asarray(moments.e_zz, dtype=np.float64)
    if zz.ndim != 2 or zz.shape[0] != zz.shape[1]:
        raise ValueError("E[Z Z'] must be square")
    sign, logdet = np.linalg.slogdet(zz)
    if sign <= 0 or not np.isfinite(logdet):
        raise ValueError("singular covariate moment matrix")
    k = a - cz @ np.linalg.solve(zz, cz.T)
    lam = snap_eigenvalues(np.linalg.eigvalsh(k))
    if df_sub is None:
        df_sub = zz.shape[0]
    return NullSpectrum(lambdas=lam, n=n, df_sub=df_sub)


def population_feature_moments(b: float, p) -> np.ndarray:
    """E[Phi Phi'] for the canonical features under class probabilities p."""
    fm = canonical_feature_table(b)
    p = np.asarray(p, dtype=np.float64)
    return (fm * p) @ fm.T


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def per_sample_stats(rng: np.random.Generator, n: int, maf: float, reps: int, h: float = 0.0,
                     beta: float = 0.0, noise_sd: float = 1.0) -> _ChunkStats:
    """Sufficient statistics of ``reps`` replications drawn sample by
    sample: Hardy-Weinberg calls, responses N(0, noise_sd^2) plus the
    effect ``beta * (h * [x = 1] + [x = 2])``, reduced in one pass."""
    g = draw_genotypes(rng, n, maf, reps)
    y = rng.normal(0.0, noise_sd, size=g.shape)
    if beta != 0.0:
        y += beta * (h * (g == 1) + (g == 2))
    return _chunk_stats(g, y)
