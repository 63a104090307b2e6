"""Null distributions and p-values for the standardized statistic.

Under the null, the standardized statistic k = n * dcov / sigma2_hat has a
conditional (given the genotypes) law determined by at most two eigenvalues
of a small Gram matrix.  The exact tail is the survival function of a
generalized F-distribution whose CDF has a closed form in terms of the
Appell F1 hypergeometric series.  One function, :func:`angular_tail`,
evaluates every two-weight tail the module needs through the Euler-type
integral of that closed form over the angle of (Q1, Q2), carried in log
space so that tails far below double-precision underflow of the raw
prefactor remain accurate: the generalized F law, its chi-square limit
(the screening bound and the asymptotic p-value) and the holdout law whose
second weight is negative.

One batched router, behind :func:`exact_pvalues_batch` and
:func:`exact_pvalue_with_method`, picks the evaluation route of a
two-eigenvalue spectrum (degenerate, classical F, generalized F, holdout,
underflow); the scalar entry points are one-entry calls of the batch ones,
so both give the same bits.  A one-entry call costs no more bookkeeping
than its one-entry batch: the router and the tail work on flat arrays, a
route or mask that covers every entry takes the whole arrays (no index
arrays, gathers or scatters), nu = inf is classified once per call, and
Gauss-Legendre orders 64 and 128, which every entry needs, are summed in
one pass over one node grid.  Also provided: cheap lower/upper p-value
bounds, used for the scan's two-stage screening and, through their F-tail
terms (:func:`_f_lower`, :func:`_f_upper`), for the simulation's
rejection decisions; one F(1, nu) tail, :func:`_f1_tail`, for the
classical F route and every F(1, .) term of the bounds; and a characteristic-function inversion of the
holdout form P(sum_r w_r chi2_{h_r} >= 0) (the fallback, and the
multiallelic path with more than two eigenvalues).

The only SciPy module imported with this one is ``scipy.special`` (the F
and chi-square tails).  ``scipy.integrate``, which brings
``scipy.optimize``, ``scipy.linalg`` and ``scipy.sparse`` along, is
imported on first use by :func:`_quad`: only when an angular integral
misses its Gauss-Legendre target or the inversion runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .premetric import feature_scales

EIGEN_SNAP_REL = 1e-12
PVALUE_FLOOR = 1e-300

METHOD_EXACT = "exact_appell"
METHOD_INVERSION = "weighted_chisq_inversion"
METHOD_CLASSICAL_F = "classical_F"
METHOD_DEGENERATE = "degenerate spectrum"
METHOD_UNDERFLOW = "underflow"


class NumericsError(RuntimeError):
    """Raised when a quadrature or series fails its accuracy target.

    Carries the best-effort value and an error bound so callers can fall
    back or report.
    """

    def __init__(self, message, partial=None, error_bound=None):
        super().__init__(message)
        self.partial = partial
        self.error_bound = error_bound


def _quad(f, a, b, **kwargs):
    """``scipy.integrate.quad``, imported on first use (see the module
    docstring)."""
    from scipy import integrate

    return integrate.quad(f, a, b, **kwargs)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def min_samples(df_sub: int, slots: int) -> int:
    """The fewest samples the exact law accepts: at least 4, and at least
    one pure-noise degree left, n - df_sub - slots >= 1, with ``df_sub``
    the projected-out directions and ``slots`` the feature columns (the
    eigenvalue slots)."""
    return max(4, df_sub + slots + 1)


@dataclass(frozen=True)
class NullSpectrum:
    """Eigenvalues defining the conditional null law of the statistic.

    ``df_sub`` is the number of projected-out directions (1 for plain mean
    centering, q+1 with an intercept and q covariates).  The pure-noise
    degree count in the exact law is n - df_sub - (number of retained
    eigenvalue slots).
    """

    lambdas: tuple
    n: int
    df_sub: int = 1

    def __post_init__(self):
        lam = tuple(float(v) for v in self.lambdas)
        if any(v < 0 for v in lam) or list(lam) != sorted(lam, reverse=True):
            raise ValueError("eigenvalues must be nonnegative and sorted descending")
        need = min_samples(self.df_sub, len(lam))
        if self.df_sub < 1 or self.n < need:
            raise ValueError(f"need df_sub >= 1 and n >= {need}, got {self.df_sub} and {self.n}")
        object.__setattr__(self, "lambdas", lam)

    @property
    def nonzero(self) -> tuple:
        return tuple(v for v in self.lambdas if v > 0.0)


def snap_eigenvalues(values) -> tuple:
    """Sort descending, clamp round-off negatives, and snap entries below
    1e-12 of the leading eigenvalue to exactly zero."""
    lam = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    lam = np.where(lam > 0.0, lam, 0.0)
    if lam.size and lam[0] > 0.0:
        lam = np.where(lam < EIGEN_SNAP_REL * lam[0], 0.0, lam)
    return tuple(float(v) for v in lam)


def spectrum_matrix(b: float, freqs) -> np.ndarray:
    """Closed-form 2x2 spectral matrix from genotype class frequencies;
    ``freqs`` shaped (..., 3) gives matrices shaped (..., 2, 2)."""
    p = np.asarray(freqs, dtype=np.float64)
    p0, p1, p2 = p[..., 0], p[..., 1], p[..., 2]
    k00 = (b / 2.0) * (p0 + p2 - (p0 - p2) ** 2)
    k11 = ((4.0 - b) / 2.0) * (p1 - p1 * p1)
    k01 = math.sqrt(b * (4.0 - b)) / 2.0 * p1 * (p0 - p2)
    return np.stack([np.stack([k00, k01], -1), np.stack([k01, k11], -1)], -2)


def hardcall_terms(b: float, counts: np.ndarray, ysums: np.ndarray, n: int) -> tuple:
    """(v1, v2, k00, k11, k01) of complete hard-call rows without
    covariates, from class counts and centred per-class response sums,
    both shaped (rows, 3): v1/v2 are the response cross sums of the scaled
    features sqrt(b/2) (x - 1) and sqrt((4-b)/2) [x = 1], k the paper's
    closed-form 2x2 spectral matrix."""
    sqb, sqh = feature_scales(b)
    k = spectrum_matrix(b, counts / float(n))
    return (sqb * (ysums[:, 2] - ysums[:, 0]), sqh * ysums[:, 1],
            k[:, 0, 0], k[:, 1, 1], k[:, 0, 1])


def eig2x2(k00, k11, k01) -> tuple:
    """Closed-form eigenvalues (lam1, lam2) of the symmetric 2x2 matrices
    [[k00, k01], [k01, k11]], elementwise, snapped like
    :func:`snap_eigenvalues`: lam1 >= lam2 >= 0, with a lam2 below
    ``EIGEN_SNAP_REL * lam1`` set to zero."""
    tr = k00 + k11
    disc = np.sqrt(np.maximum((k00 - k11) ** 2 + 4.0 * k01 * k01, 0.0))
    lam1 = np.maximum((tr + disc) / 2.0, 0.0)
    lam2 = np.clip((tr - disc) / 2.0, 0.0, lam1)
    return lam1, np.where(lam2 < EIGEN_SNAP_REL * lam1, 0.0, lam2)


def spectrum_unadjusted(b: float, freqs, n: int) -> NullSpectrum:
    """Two-eigenvalue null spectrum for plain mean centering, from the
    closed-form frequency matrix."""
    p = np.asarray(freqs, dtype=np.float64)
    if p.shape != (3,) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("frequencies must be 3 nonnegative values summing to 1")
    k = spectrum_matrix(b, p)
    lam = tuple(float(v) for v in eig2x2(k[0, 0], k[1, 1], k[0, 1]))
    return NullSpectrum(lambdas=lam, n=int(n), df_sub=1)


def spectrum_from_features(
    u: np.ndarray,
    projector_basis: np.ndarray | None = None,
) -> NullSpectrum:
    """Eigenvalues of (1/n) U' (I - H) U for a feature matrix U.

    ``projector_basis`` is the covariate matrix (including intercept); when
    absent, H is the projector onto constants.  df_sub equals the number of
    covariate columns.
    """
    if projector_basis is None:
        return _projected_spectrum(u, None)
    from .adjust import full_rank_svd  # adjust imports this module

    z = np.asarray(projector_basis, dtype=np.float64)
    return _projected_spectrum(u, full_rank_svd(z[:, None] if z.ndim == 1 else z)[0])


def _projected_spectrum(u, q) -> NullSpectrum:
    """:func:`spectrum_from_features` with H = Q Q' for an orthonormal
    basis ``q`` of the covariate space, or the projector onto constants
    when ``q`` is None."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or not np.all(np.isfinite(u)):
        raise ValueError("feature matrix must be finite and 2-d")
    n = u.shape[0]
    if q is None:
        pu = u - u.mean(axis=0)
        df_sub = 1
    else:
        pu = u - q @ (q.T @ u)
        df_sub = q.shape[1]
    k = pu.T @ pu / n
    lam = snap_eigenvalues(np.linalg.eigvalsh(k))
    return NullSpectrum(lambdas=lam, n=n, df_sub=df_sub)


# ---------------------------------------------------------------------------
# the angular tail integral and the generalized F law
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _gl_nodes(orders: tuple) -> tuple:
    """Gauss-Legendre nodes and weights of each order in ``orders`` mapped
    to [0, pi/2], with the squared cosines and sines of the nodes, each
    concatenated over the orders, and the slice that holds each order."""
    grids, edges = [], [0]
    half = np.pi / 4.0
    for order in orders:
        x, w = np.polynomial.legendre.leggauss(order)
        theta = half * (x + 1.0)
        grids.append((theta, half * w, np.cos(theta) ** 2, np.sin(theta) ** 2))
        edges.append(edges[-1] + order)
    theta, wts, cos2, sin2 = (np.concatenate(v) for v in zip(*grids))
    return theta, wts, cos2, sin2, [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _agree(prev, cur):
    """Whether each quadrature sum agrees with the one at half its order."""
    return np.abs(cur - prev) <= 1e-12 * np.maximum(np.abs(cur), 1e-300)


def _gl_order_doubling(estimate) -> tuple:
    """Per-entry Gauss-Legendre order doubling.

    ``estimate(orders, sel)`` returns, for each order in ``orders``, the
    quadrature sums of the entries ``sel`` selects.  Each entry keeps the
    first estimate that agrees with the one at half its order.  Every
    entry needs orders 64 and 128, so both come from one pass; only
    entries still open are evaluated at the next order, so an entry's
    value does not depend on the other entries of the batch.  Returns the
    sums and the indices of entries that did not converge by order 512
    (their sums are left at 1.0 for the caller's scalar fallback).
    """
    prev, cur = estimate((64, 128), slice(None))
    ok = _agree(prev, cur)
    if ok.all():
        return cur, ()
    sums = np.where(ok, cur, 1.0)
    sel = (~ok).nonzero()[0]
    prev = cur[sel]
    for order in (256, 512):
        (cur,) = estimate((order,), sel)
        ok = _agree(prev, cur)
        sums[sel[ok]] = cur[ok]
        sel, prev = sel[~ok], cur[~ok]
        if not sel.size:
            break
    return sums, sel


def _select(mask):
    """What picks the true entries of the 1-d ``mask``: the whole array
    when every entry is true, else their indices (empty when none is)."""
    return slice(None) if mask.all() else mask.nonzero()[0]


def _inf_nu(nu) -> tuple:
    """Classify nu = inf once per call for :func:`_log_kernel`: (nu, chi)
    with chi True or False when every entry or none has nu = inf, else the
    mask, with nu = 1 in place of inf."""
    chi = np.isinf(nu)
    if not chi.any():
        return nu, False
    if chi.all():
        return nu, True
    return np.where(chi, 1.0, nu), chi


def _log_kernel(c, s, nu, chi):
    """log (1 + s / (nu c))^(-nu/2), and its nu = inf limit -s / (2c)
    where ``chi`` (from :func:`_inf_nu`) marks nu = inf."""
    if chi is False:
        return -(nu / 2.0) * np.log1p(s / (nu * c))
    if chi is True:
        return -s / (2.0 * c)
    return np.where(chi, -s / (2.0 * c), -(nu / 2.0) * np.log1p(s / (nu * c)))


# entries per pass of :func:`_tail`, so that the (entries x 192 nodes)
# float64 temporaries of a pass, 192 KiB each, stay in a core's L2 cache:
# on a Xeon with 2 MiB of L2 per core, batches of 1024 and 5000 screening
# bounds took 0.6x the time of one pass over all their entries
_TAIL_CHUNK = 128
_LOG_2_OVER_PI = np.log(2.0 / np.pi)
_LOG_FLOOR = np.log(PVALUE_FLOOR)


def angular_tail(w1, w2, s, nu):
    """P(w1 Q1^2 + w2 Q2^2 >= s chi2_nu / nu), elementwise, for independent
    standard normals Q1, Q2, weights w1 >= w2 (w2 of either sign), s >= 0
    and nu >= 1; nu = inf drops the chi-square denominator.

    Conditioning on the angle of (Q1, Q2) gives the Euler-type integral of
    the Appell-F1 closed form,

        (2/pi) int_0^theta* (1 + s / (nu c(theta)))^(-nu/2) dtheta,
        c(theta) = w1 cos^2 theta + w2 sin^2 theta,

    with theta* = pi/2 when w2 >= 0 and theta* = atan(sqrt(w1 / -w2)), where
    c changes sign, when w2 < 0.  The integrand peaks at theta = 0 and is
    carried in log space relative to that peak.  Entries are integrated by
    per-entry Gauss-Legendre order doubling on one shared node grid (nodes
    scaled per entry only where theta* < pi/2); an entry that does not
    converge goes to adaptive quadrature and is NaN if that misses its
    accuracy target too.  Values below 1e-300 are returned as 0.
    """
    w1, w2, s, nu = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (w1, w2, s, nu))
    )
    shape = w1.shape
    return _tail(*(v.ravel() for v in (w1, w2, s, nu))).reshape(shape)[()]


def _tail(w1, w2, s, nu):
    """:func:`angular_tail` on 1-d float64 arrays of one length."""
    if w1.size > _TAIL_CHUNK:
        return np.concatenate([
            _tail(*(v[lo:lo + _TAIL_CHUNK] for v in (w1, w2, s, nu)))
            for lo in range(0, w1.size, _TAIL_CHUNK)
        ])
    pos = w1 > 0.0
    cut = (w2 < 0.0) & pos
    live = _select((s > 0.0) & pos)
    theta_star = scale = None  # theta* and theta* / (pi/2); None while no entry is cut
    if cut.any():
        theta_star = np.full(w1.shape, np.pi / 2.0)
        i = _select(cut)
        theta_star[i] = np.arctan(np.sqrt(w1[i] / -w2[i]))
        scale = theta_star / (np.pi / 2.0)
    if isinstance(live, slice):
        out = None
    else:
        # s = 0: the chance that the angular combination is nonnegative
        out = np.where(w2 >= 0.0, 1.0, 0.0 if scale is None else scale * cut)
        out[s > 0.0] = 0.0
        if not live.size:
            return out
    a, b, ss = (v[live] for v in (w1, w2, s))
    vv, chi = _inf_nu(nu[live])
    part = None
    if scale is not None:
        theta_star, scale = theta_star[live], scale[live]
        part = scale < 1.0
        if not part.any():
            part = None
    lmax = _log_kernel(a, ss, vv, chi)

    def node_sums(i, cos2, sin2, wts, slices):
        c = a[i, None] * cos2 + b[i, None] * sin2
        kchi = chi if isinstance(chi, bool) else chi[i, None]
        f = np.exp(_log_kernel(c, ss[i, None], vv[i, None], kchi) - lmax[i, None]) * wts
        return [f[:, o].sum(axis=1) for o in slices]

    def estimate(orders, sel):
        theta, wts, cos2, sin2, slices = _gl_nodes(orders)
        if part is None:
            return node_sums(sel, cos2, sin2, wts, slices)
        idx = np.arange(a.size)[sel]
        full = ~part[idx]
        sums = [np.empty(idx.size) for _ in orders]
        if full.any():
            for acc, v in zip(sums, node_sums(idx[full], cos2, sin2, wts, slices)):
                acc[full] = v
        if not full.all():
            i = idx[~full]
            t = scale[i, None] * theta  # the nodes mapped to [0, theta*]
            for acc, v in zip(sums, node_sums(i, np.cos(t) ** 2, np.sin(t) ** 2, wts, slices)):
                acc[~full] = scale[i] * v
        return sums

    sums, pending = _gl_order_doubling(estimate)
    for i in pending:
        ci = chi if isinstance(chi, bool) else bool(chi[i])

        def f(theta, i=i, ci=ci):
            c = a[i] * math.cos(theta) ** 2 + b[i] * math.sin(theta) ** 2
            return math.exp(_log_kernel(c, ss[i], vv[i], ci) - lmax[i]) if c > 0.0 else 0.0

        top = np.pi / 2.0 if theta_star is None else theta_star[i]
        # full_output returns SciPy's IntegrationWarning message instead of
        # warning (a warnings filter is global state, and scans run
        # threaded); the error check below decides
        val, err = _quad(f, 0.0, top, epsabs=1e-300, epsrel=1e-13, limit=300, full_output=1)[:2]
        sums[i] = val if val > 0.0 and err <= 1e-9 * val else np.nan
    log_p = _LOG_2_OVER_PI + lmax + np.log(np.maximum(sums, 1e-320))
    vals = np.where(log_p < _LOG_FLOOR, 0.0, np.exp(np.maximum(log_p, -745.0)))
    vals = np.minimum(vals, 1.0)
    if out is None:
        return vals
    out[live] = vals
    return out


def genF_sf(alpha1: float, alpha2: float, nu: float, x: float) -> float:
    """Survival function of the generalized F law
    ((alpha1/2) Q1^2 + (alpha2/2) Q2^2) / ((1/nu) chi2_nu).

    Evaluates the Appell-F1 closed form of the CDF through its Euler
    integral (:func:`angular_tail`), so extreme tails stay accurate.
    """
    if not (alpha1 >= alpha2 > 0.0) or not nu >= 1 or not x >= 0.0:
        raise ValueError("need alpha1 >= alpha2 > 0, nu >= 1, x >= 0")
    p = float(angular_tail(alpha1 / 2.0, alpha2 / 2.0, x, nu))
    if math.isnan(p):
        raise NumericsError("generalized F quadrature failed")
    return p


def genF_cdf(alpha1: float, alpha2: float, nu: float, x: float) -> float:
    """CDF companion of :func:`genF_sf`; monotone in x with limits 0, 1."""
    return 1.0 - genF_sf(alpha1, alpha2, nu, x)


# ---------------------------------------------------------------------------
# weighted chi-square tail (characteristic-function inversion)
# ---------------------------------------------------------------------------


def weighted_chisq_tail(weights, dfs=None, eps: float = 1e-10):
    """P(sum_r w_r chi2_{h_r} >= 0), the tail of the holdout form, by
    numerical inversion of the characteristic function.  Mixed-sign
    weights allowed; with one weight, or all weights equal, the tail is 1
    for a positive weight and 0 for a negative one.

    Target absolute accuracy ``eps``; raises :class:`NumericsError` with the
    best-effort value when the quadrature cannot certify it.
    """
    w = np.asarray(weights, dtype=np.float64)
    h = np.ones_like(w) if dfs is None else np.asarray(dfs, dtype=np.float64)
    if w.shape != h.shape or w.ndim != 1:
        raise ValueError("weights and dfs must be 1-d arrays of equal length")
    keep = w != 0.0
    w, h = w[keep], h[keep]
    if w.size == 0:
        raise ValueError("at least one nonzero weight is required")
    if w.size == 1 or np.all(w == w[0]):
        return 1.0 if w[0] > 0.0 else 0.0

    def integrand(u):
        if u == 0.0:
            return 0.5 * np.sum(h * w)
        log_mag = -math.log(u) - 0.25 * float(np.sum(h * np.log1p((w * u) ** 2)))
        if log_mag < -745.0:
            return 0.0
        return math.sin(0.5 * np.sum(h * np.arctan(w * u))) * math.exp(log_mag)

    k_total = float(h.sum())
    log_prod = 0.5 * float(np.sum(h * np.log(np.abs(w))))

    def log_tail_bound(u):
        # |integrand| <= 1 / (u rho(u)) and rho(u) >= prod |w u|^{h/2}
        return (
            math.log(2.0 / (math.pi * k_total))
            - log_prod
            - 0.5 * k_total * math.log(u)
        )

    # integrate piecewise; segment widths grow geometrically but are capped
    # so that no segment holds more than ~30 oscillations of the phase
    scale = 1.0 / max(float(np.max(np.abs(w))), 1e-12)
    sum_hw = float(np.sum(h * np.abs(w)))
    min_w = float(np.min(np.abs(w)))
    total = err_acc = lo = 0.0
    for _ in range(3000):
        rate = 0.5 * sum_hw / (1.0 + (min_w * lo) ** 2)
        width = min(3.0 * max(lo, scale), 60.0 * math.pi / max(rate, 1e-12))
        hi = lo + max(width, scale * 1e-3)
        val, seg_err = _quad(
            integrand, lo, hi, epsabs=eps / 50.0, epsrel=1e-12, limit=500
        )
        total += val
        err_acc += seg_err
        if log_tail_bound(hi) < math.log(eps / 2.0):
            break
        lo = hi
    else:
        raise NumericsError(
            "characteristic-function inversion did not reach its truncation point",
            partial=0.5 + total / math.pi,
            error_bound=err_acc + math.exp(min(log_tail_bound(lo), 700.0)),
        )
    p = 0.5 + total / math.pi
    p = min(max(p, 0.0), 1.0)
    if err_acc > 4.0 * eps:
        raise NumericsError(
            "characteristic-function inversion missed its accuracy target",
            partial=p,
            error_bound=err_acc + eps / 2.0,
        )
    return p


def _tail_tn_inversion(nonzero, k, n, noise_df):
    """Tail of the holdout form: sum_i (l_i - k/n) Q_i^2 - (k/n) chi2_noise >= 0."""
    weights = [li - k / n for li in nonzero] + [-k / n]
    dfs = [1.0] * len(nonzero) + [float(noise_df)]
    return weighted_chisq_tail(np.array(weights), dfs=np.array(dfs))


# ---------------------------------------------------------------------------
# exact p-values, bounds, asymptotics
# ---------------------------------------------------------------------------


def _f1_tail(nu, k, denom):
    """P(F(1, nu) >= k nu / denom) over the broadcast of the arguments, 0
    where ``denom <= 0``: the classical F law of a single-eigenvalue
    spectrum, and the F(1, .) terms of the bounds."""
    nu, k, denom = np.broadcast_arrays(nu, k, denom)
    out = np.zeros(denom.shape)
    ok = denom > 0.0
    out[ok] = special.fdtrc(1.0, nu[ok], k[ok] * nu[ok] / denom[ok])
    return out


# evaluation routes of a spectrum with at most two nonzero eigenvalues, by
# the method code :func:`_route_two` returns
_ROUTES = (
    METHOD_DEGENERATE, METHOD_CLASSICAL_F, METHOD_EXACT, METHOD_INVERSION, METHOD_UNDERFLOW,
)
_DEGENERATE, _CLASSICAL_F, _EXACT, _INVERSION, _UNDERFLOW = range(len(_ROUTES))


def _route_two(lam1, lam2, k, n, df_sub) -> tuple:
    """Exact p-values and method codes (indices into ``_ROUTES``) over 1-d
    float64 arrays of one length of spectra lam1 >= lam2 >= 0.

    Routes: a zero spectrum is degenerate; a single nonzero eigenvalue
    gives the classical F reduction; with two, the holdout weights
    w_i = lam_i - k/n give the generalized F law when w2 > 0 and the
    holdout law otherwise, both by :func:`angular_tail`, and an entry whose
    angular integral fails goes to characteristic-function inversion.
    Outside the degenerate route, p-values below 1e-300 are reported as 0
    with the underflow route.
    """
    degenerate = lam1 <= 0.0
    two = ~degenerate & (lam2 > 0.0)
    if two.all():
        p, code = _two_eigen(lam1, lam2, k, n, df_sub)
    else:
        p = np.zeros(lam1.shape)
        code = np.full(lam1.shape, _DEGENERATE, dtype=np.int8)
        p[degenerate & (k <= 0.0)] = 1.0
        single = (~degenerate & (lam2 <= 0.0)).nonzero()[0]
        if single.size:
            nn, kk = n[single], k[single]
            p[single] = _f1_tail(nn - df_sub[single] - 1.0, kk, lam1[single] * nn - kk)
            code[single] = _CLASSICAL_F
        i = two.nonzero()[0]
        if i.size:
            p[i], code[i] = _two_eigen(*(v[i] for v in (lam1, lam2, k, n, df_sub)))
    under = p < PVALUE_FLOOR
    if under.any():
        under &= ~degenerate
        p[under] = 0.0
        code[under] = _UNDERFLOW
    return p, code


def _two_eigen(l1, l2, k, n, df_sub) -> tuple:
    """The two-eigenvalue routes of :func:`_route_two`: generalized F or
    holdout law by :func:`angular_tail`, inversion where it fails."""
    nu = n - df_sub - 2.0
    h = k / n
    w2 = l2 - h
    p = _tail(l1 - h, w2, k * nu / n, nu)
    code = np.where(w2 > 0.0, np.int8(_EXACT), np.int8(_INVERSION))
    for i in np.isnan(p).nonzero()[0]:
        p[i] = _tail_tn_inversion([l1[i], l2[i]], k[i], n[i], nu[i])
        code[i] = _INVERSION
    return p, code


def exact_pvalue(spec: NullSpectrum, k: float) -> float:
    """Exact conditional-null p-value of the standardized statistic."""
    return exact_pvalue_with_method(spec, k)[0]


def exact_pvalue_with_method(spec: NullSpectrum, k: float) -> tuple:
    """Exact p-value plus the evaluation route that produced it.

    Spectra with at most two nonzero eigenvalues take the routes of
    :func:`_route_two` as a one-entry batch, so the value equals
    :func:`exact_pvalues_batch`'s bit for bit; more eigenvalues go to
    inversion of the holdout law.
    """
    if not k >= 0.0:
        raise ValueError("the standardized statistic must be a nonnegative number")
    nonzero = spec.nonzero
    if len(nonzero) > 2:
        p = _tail_tn_inversion(nonzero, k, spec.n, spec.n - spec.df_sub - len(nonzero))
        return (p, METHOD_INVERSION) if p >= PVALUE_FLOOR else (0.0, METHOD_UNDERFLOW)
    lam = nonzero + (0.0, 0.0)
    entry = np.array([lam[0], lam[1], k, spec.n, spec.df_sub], dtype=np.float64)
    p, code = _route_two(*entry[:, None])
    return float(p[0]), _ROUTES[code[0]]


def _flat(*arrays) -> tuple:
    """The arrays broadcast against each other, as float64 and raveled,
    the broadcast shape, and whether any of them is NaN at each entry."""
    args = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in arrays))
    flat = [v.ravel() for v in args]
    nan = np.isnan(flat[0])
    for v in flat[1:]:
        nan |= np.isnan(v)
    return flat, args[0].shape, nan


def exact_pvalues_batch(lam1, lam2, k, n, df_sub=1) -> np.ndarray:
    """Vectorized exact p-values over arrays of two-eigenvalue spectra
    (the routes of :func:`exact_pvalue_with_method`), shaped like their
    broadcast; NaN where any argument is NaN."""
    args, shape, nan = _flat(lam1, lam2, k, n, df_sub)
    if not nan.any():
        return _route_two(*args)[0].reshape(shape)
    p = np.full(nan.shape, math.nan)
    p[~nan] = _route_two(*(v[~nan] for v in args))[0]
    return p.reshape(shape)


def _floor_prob(x):
    """Uniform reporting floor: probabilities below 1e-300 become 0."""
    return np.where(x < PVALUE_FLOOR, 0.0, x)


def pvalue_bounds(spec: NullSpectrum, k: float) -> tuple:
    """Computable lower/upper bounds (p*, p**) on the exact p-value: a
    one-entry :func:`pvalue_bounds_batch`.

    The upper bound may exceed 1 and is returned unclamped.
    """
    if not k >= 0.0:
        raise ValueError("the standardized statistic must be a nonnegative number")
    lam = spec.lambdas + (0.0,)
    p_star, p_star2 = pvalue_bounds_batch(lam[0], lam[1], k, spec.n, spec.df_sub)
    return float(p_star), float(p_star2)


def _f_lower(l1, l2, k, n, df_sub):
    """max(t2, t3), the F(1, nu) and F(2, nu) lower bounds on spectra with
    lam1 >= lam2 > k/n; the F(1, .) tail by :func:`_f1_tail`."""
    nu = n - df_sub - 2.0
    t2 = _f1_tail(nu, k, l1 * n - k)
    t3 = special.fdtrc(2.0, nu, k * nu / np.sqrt((l1 * n - k) * (l2 * n - k)))
    return np.fmax(t2, t3)


def _f_upper(l1, l2, k, n, df_sub):
    """p**, the upper bound on spectra with lam1 >= lam2 > k/n: five times
    a F(1, nu + 1) tail by :func:`_f1_tail`, unfloored."""
    nu = n - df_sub - 2.0
    return 5.0 * _f1_tail(nu + 1, k, (l1 + l2) * n - 2.0 * k)


def pvalue_bounds_batch(lam1, lam2, k, n, df_sub=1) -> tuple:
    """Vectorized (p*, p**) over arrays of spectra and statistics, shaped
    like their broadcast.

    p* is the largest of three lower bounds; one whose quadrature fails
    is left out.  Both bounds are NaN where any argument is NaN.
    """
    (lam1, lam2, k, n, df_sub), shape, nan = _flat(lam1, lam2, k, n, df_sub)
    nu = n - df_sub - 2.0
    ok = ~nan
    p_star = np.where(ok, 0.0, math.nan)
    p_star2 = p_star.copy()

    degenerate = ok & (lam1 <= 0.0)
    if degenerate.any():
        p_deg = np.where(k <= 0.0, 1.0, 0.0)
        p_star[degenerate] = p_deg[degenerate]
        p_star2[degenerate] = p_deg[degenerate]

    live = ok & (lam1 > 0.0)
    upper = live & (lam2 - k / n > 0.0)
    if upper.any():
        i = _select(upper)
        l1, l2, kk, nn, dd, vv = (v[i] for v in (lam1, lam2, k, n, df_sub, nu))
        t = kk * vv / nn
        t1 = _tail(l1 - kk / nn, l2 - kk / nn, t, np.full(t.shape, np.inf))
        p_star[i] = np.fmax(t1, _f_lower(l1, l2, kk, nn, dd))
        p_star2[i] = _f_upper(l1, l2, kk, nn, dd)

    lower = live & ~upper
    if lower.any():
        i = _select(lower)
        l1, kk, nn, vv = (v[i] for v in (lam1, k, n, nu))
        denom = l1 * nn - kk
        p_star[i] = _f1_tail(vv + 1, kk, denom)
        p_star2[i] = _f1_tail(vv, kk, denom)
    return _floor_prob(p_star).reshape(shape), _floor_prob(p_star2).reshape(shape)


def asymptotic_pvalue(b: float, freqs, sigma2: float, n: int, stat: float) -> float:
    """Large-sample tail: P(lam1 Q1^2 + lam2 Q2^2 >= stat / sigma2), the
    law of the standardized statistic for the two population eigenvalues
    lam1 >= lam2 >= 0 computed from plug-in frequencies: a chi-square tail
    when lam2 = 0, else :func:`angular_tail` with nu = inf.

    ``stat`` is n times the distance covariance (unstandardized).
    """
    if n < min_samples(1, 2):
        raise ValueError(f"need n >= {min_samples(1, 2)}")
    if not sigma2 > 0.0:
        raise ValueError("sigma2 must be positive")
    if math.isnan(stat):
        raise ValueError("the statistic must not be NaN")
    t = stat / sigma2
    if t <= 0.0:
        return 1.0
    k = spectrum_matrix(b, freqs)
    lam1, lam2 = (float(v) for v in eig2x2(k[0, 0], k[1, 1], k[0, 1]))
    if lam1 <= 0.0:
        return 0.0
    if lam2 <= 0.0:
        return float(special.chdtrc(1.0, t / lam1))
    p = float(angular_tail(lam1, lam2, t, np.inf))
    if math.isnan(p):
        raise NumericsError("two-weight chi-square quadrature failed")
    return p
