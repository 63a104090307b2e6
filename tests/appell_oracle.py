"""Appell F1 hypergeometric function: the closed-form oracle for the
generalized F law.

The package evaluates the generalized F tail through its one-dimensional
angular integral (``gdcscan.nulldist.angular_tail``); the tests check it
against the Appell F1 closed form computed here by independent means.
"""

from scipy import integrate, special

from gdcscan.nulldist import NumericsError


CANCELLATION_LIMIT = 1e3


def _appell_series(a, b1, b2, c, x, y, rtol=1e-14, max_rows=600):
    """Row-collapsed double series: sum over m of the x-row, each row being
    a Gauss 2F1 in y.  Good when |x| is not too close to 1.

    Raises :class:`NumericsError` when the largest row exceeds
    ``CANCELLATION_LIMIT`` times the sum: the rows then cancel, and the
    rounding of the large rows swamps the result.
    """
    total = 0.0
    peak = 0.0
    coef = 1.0  # (b1)_m x^m / m!
    ratio = 1.0  # (a)_m / (c)_m
    small_streak = 0
    for m in range(max_rows):
        inner = special.hyp2f1(a + m, b2, c + m, y)
        term = coef * ratio * inner
        total += term
        peak = max(peak, abs(term))
        if abs(term) <= rtol * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                if peak > CANCELLATION_LIMIT * abs(total):
                    raise NumericsError("Appell F1 series cancels", partial=total)
                return total
        else:
            small_streak = 0
        coef *= (b1 + m) * x / (m + 1.0)
        ratio *= (a + m) / (c + m)
    raise NumericsError(
        "Appell F1 series did not converge", partial=total, error_bound=abs(term)
    )


def _appell_euler_second(a, b1, b2, c, x, y):
    """Euler-type single integral over the second argument's parameter slot
    (requires c > b2 > 0) with a Gauss 2F1 inner evaluation."""
    if not (c > b2 > 0.0):
        raise NumericsError("Euler path needs c > b2 > 0")

    def f(t):
        base = t ** (b2 - 1.0) if b2 != 1.0 else 1.0
        if c - b2 != 1.0:
            base *= (1.0 - t) ** (c - b2 - 1.0)
        w = 1.0 - t * y
        z = (1.0 - t) * x / w
        return base * w ** (-a) * special.hyp2f1(a, b1, c - b2, z)

    val, err = integrate.quad(f, 0.0, 1.0, epsabs=1e-300, epsrel=1e-13, limit=400)
    if abs(val) > 0 and err / abs(val) > 1e-9:
        raise NumericsError("Euler integral inaccurate", partial=val, error_bound=err)
    return val / special.beta(b2, c - b2)


def appell_f1(a: float, b1: float, b2: float, c: float, x: float, y: float) -> float:
    """Appell F1 two-variable hypergeometric function.

    Series domain |x| < 1, |y| < 1.  Uses the double series (collapsed to
    rows of Gauss 2F1) for moderate arguments and an Euler-type single
    integral otherwise.  Relative accuracy target 1e-12.

    Verified domain in the generalized F survival form
    F1(1/2; 1, nu/2; 1; z/(z-1), -z(1-r)/(1-z)): nu < 400, where the tests
    match it against the package's angular integral.  Where its rows cancel
    the series raises :class:`NumericsError` rather than return a value
    lost to rounding, as for F1(1/2; -nu/2, nu/2; 1; z, zr) with nu of a
    few dozen and z near 0.7.
    """
    if c <= 0.0 and float(c).is_integer():
        raise ValueError("c must not be a nonpositive integer")
    if abs(x) >= 1.0 or abs(y) >= 1.0:
        raise ValueError("arguments must satisfy |x| < 1 and |y| < 1")
    if x == 0.0 and y == 0.0:
        return 1.0
    if x == 0.0:
        return float(special.hyp2f1(a, b2, c, y))
    if y == 0.0:
        return float(special.hyp2f1(a, b1, c, x))
    if max(abs(x), abs(y)) <= 0.65:
        return float(_appell_series(a, b1, b2, c, x, y))
    # prefer integrating over the slot whose argument is larger
    if abs(y) >= abs(x) and c > b2 > 0.0:
        return float(_appell_euler_second(a, b1, b2, c, x, y))
    if c > b1 > 0.0:
        return float(_appell_euler_second(a, b2, b1, c, y, x))
    if c > b2 > 0.0:
        return float(_appell_euler_second(a, b1, b2, c, x, y))
    return float(_appell_series(a, b1, b2, c, x, y, max_rows=4000))
