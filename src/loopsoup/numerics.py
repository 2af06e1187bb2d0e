"""Shared numerical substrate: special functions, series, quadrature, distances.

Everything here is a pure function of its inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as _sci_special


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot reach the requested tolerance."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for adaptive quadrature.

    tol: absolute tolerance on the integral value.
    limit: maximum number of subinterval subdivisions.
    """

    tol: float = 1e-10
    limit: int = 200


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def require_finite(**values: float) -> None:
    """ValueError naming the first of `values` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def log_gamma(x):
    """log |Gamma(x)| for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("log_gamma requires positive arguments")
    out = _sci_special.gammaln(x)
    return float(out) if out.ndim == 0 else out


def log_beta(a: float, b: float) -> float:
    """log Beta(a, b) via log-gamma, for a, b > 0."""
    if a <= 0 or b <= 0:
        raise ValueError("log_beta requires positive arguments")
    return float(_sci_special.gammaln(a) + _sci_special.gammaln(b)
                 - _sci_special.gammaln(a + b))


def beta(a: float, b: float) -> float:
    """Beta(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0."""
    return math.exp(log_beta(a, b))


_POLYLOG_MAX_TERMS = 10_000_000
_ZETA_EXPANSION_TERMS = 40


def polylog(alpha: float, s: float, *, tol: float = 1e-14) -> float:
    """Polylogarithm sum_{k>=1} s^k / k^alpha for |s| < 1.

    For s >= 1/2 it uses the expansion about s = 1, valid for |mu| < 2 pi,
    Li_a(e^mu) = Gamma(1-a) (-mu)^(a-1) + sum_j zeta(a-j) mu^j / j!, whose two
    poles at a positive integer a = k cancel into mu^(k-1)/(k-1)! (H_(k-1) -
    log(-mu)); here |mu| <= log 2, so 40 terms leave a remainder far below
    double precision.  Otherwise terms are summed until the geometric tail bound
    |s|^(K+1) / ((K+1)^alpha (1-|s|)) drops below tol; a ValueError is
    raised up front when that needs more than 10^7 terms.
    """
    require_finite(alpha=alpha)
    if not abs(s) < 1.0:
        raise ValueError("polylog requires |s| < 1")
    if s == 0.0:
        return 0.0
    if s >= 0.5:
        mu = math.log(s)
        j = np.arange(_ZETA_EXPANSION_TERMS)
        mu_pow = np.cumprod(np.concatenate(([1.0], mu / j[1:])))  # mu^j / j!
        coef, head = _sci_special.zeta(alpha - j), 0.0
        if alpha >= 1.0 and float(alpha).is_integer():
            # the log term at j = k - 1; H_(k-1) = digamma(k) + Euler's gamma
            coef[j == alpha - 1.0] = _sci_special.digamma(alpha) + np.euler_gamma - math.log(-mu)
        else:
            head = _sci_special.gamma(1.0 - alpha) * (-mu) ** (alpha - 1.0)
        return float(head + np.sum(coef * mu_pow))
    a = abs(s)
    cap = _POLYLOG_MAX_TERMS
    if (cap + 1) * math.log(a) - alpha * math.log(cap + 1) - math.log1p(-a) >= math.log(tol):
        raise ValueError(f"polylog series at alpha={alpha}, s={s} needs more than "
                         f"{cap} terms")
    total = 0.0
    term_base = s
    for k in range(1, cap + 1):
        total += term_base / k ** alpha
        # tail bound: sum_{j>k} |s|^j / j^alpha <= |s|^(k+1)/((k+1)^alpha (1-|s|))
        if a ** (k + 1) / ((k + 1) ** alpha * (1.0 - a)) < tol:
            break
        term_base *= s
    return total


def riemann_zeta(alpha: float) -> float:
    """zeta(alpha) for alpha > 1."""
    if not alpha > 1.0:
        raise ValueError("riemann_zeta requires alpha > 1")
    return float(_sci_special.zeta(alpha))


# ---------------------------------------------------------------------------
# stable log-hyperbolic helpers (used by all the closed-form probability work)
# ---------------------------------------------------------------------------

def log_sinh(z: float) -> float:
    """log(sinh z) for z > 0, stable for large z; -inf at z = 0."""
    if z < 0:
        raise ValueError("log_sinh requires z >= 0")
    if z == 0.0:
        return -math.inf
    if z < 20.0:
        return math.log(math.sinh(z))
    return z - math.log(2.0) + math.log1p(-math.exp(-2.0 * z))


def log_cosh(z: float) -> float:
    """log(cosh z), stable for large |z|."""
    z = abs(z)
    if z < 20.0:
        return math.log(math.cosh(z))
    return z - math.log(2.0) + math.log1p(math.exp(-2.0 * z))


def log_sinh_ratio(num: float, den: float, r: float) -> float:
    """log(sinh(num*r) / sinh(den*r)), with the r -> 0 limit log(num/den).

    The series branch engages once den*r < 1e-6 where
    sinh(num*r)/sinh(den*r) = (num/den)(1 + (num^2-den^2) r^2/6 + O(r^4)).
    """
    if num <= 0 or den <= 0:
        raise ValueError("coefficients must be positive")
    if max(num, den) * r < 1e-6:
        return math.log(num / den) + (num * num - den * den) * r * r / 6.0
    return log_sinh(num * r) - log_sinh(den * r)


def log_cosh_diff(big: float, small: float) -> float:
    """log(cosh(big) - cosh(small)) for big >= small >= 0; -inf when equal."""
    if big < small:
        raise ValueError("log_cosh_diff requires big >= small")
    return (math.log(2.0) + log_sinh((big + small) / 2.0)
            + log_sinh((big - small) / 2.0))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None,
              *, points=None) -> tuple[float, float]:
    """Adaptive quadrature of f over (a, b); returns (value, error_estimate).

    Semi-infinite domains (b = inf) are mapped through x = t/(1-t) onto (a', 1).
    Integrable endpoint singularities are handled by the underlying QAGS
    extrapolation.  Raises QuadratureError if the error estimate exceeds the
    requested tolerance.
    """
    # imported here so that `import loopsoup` does not load scipy.integrate
    from scipy import integrate as _sci_integrate

    spec = spec or QuadratureSpec()
    with warnings.catch_warnings():
        # roundoff chatter from QAGS at tight tolerances; we gate on the
        # returned error estimate ourselves below
        warnings.simplefilter("ignore", _sci_integrate.IntegrationWarning)
        if math.isinf(b):
            if math.isinf(a):
                raise ValueError("doubly infinite domains are not supported")

            def g(t):
                x = t / (1.0 - t)
                return f(a + x) / (1.0 - t) ** 2

            val, err = _sci_integrate.quad(g, 0.0, 1.0, epsabs=spec.tol,
                                           epsrel=spec.tol, limit=spec.limit)
        else:
            kw = {}
            if points is not None:
                kw["points"] = points
            val, err = _sci_integrate.quad(f, a, b, epsabs=spec.tol,
                                           epsrel=spec.tol, limit=spec.limit, **kw)
    if not math.isfinite(val) or err > max(spec.tol, 1e-8 * abs(val)) * 100:
        raise QuadratureError(
            f"quadrature did not converge: value={val}, err={err}")
    return val, err


# ---------------------------------------------------------------------------
# statistical distances and tests
# ---------------------------------------------------------------------------

def ks_distance(sample, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of a sample against a cdf."""
    xs = np.sort(np.asarray(sample, dtype=float))
    m = xs.size
    if m == 0:
        raise ValueError("empty sample")
    fx = np.asarray([cdf(x) for x in xs], dtype=float)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - fx), np.max(fx - (grid - 1.0 / m))))


def ks_distance_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical(n: int, m: int | None = None, level: float = 0.01) -> float:
    """Asymptotic KS critical value at the given significance level.

    For the two-sample statistic pass both sizes.  Intended for the sample
    sizes used here (10^4 .. 10^5) where the asymptotic formula is accurate.
    """
    coeff = math.sqrt(-0.5 * math.log(level / 2.0))
    if m is None:
        return coeff / math.sqrt(n)
    return coeff * math.sqrt((n + m) / (n * m))


def chi_square_pvalue(observed, expected) -> tuple[float, float]:
    """Pearson chi-square statistic and p-value for observed vs expected counts.

    Expected counts are rescaled to the observed total, so `expected` may be
    given as probabilities; degrees of freedom are len(observed) - 1.
    """
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if obs.shape != exp.shape:
        raise ValueError("shape mismatch")
    exp = exp * (obs.sum() / exp.sum())
    if np.any(exp <= 0):
        raise ValueError("expected counts must be positive")
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = obs.size - 1
    return stat, float(_sci_special.chdtrc(dof, stat))


def chi_square_two_sample(counts_a, counts_b) -> tuple[float, float]:
    """Chi-square homogeneity test for two binned samples."""
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    keep = (a + b) > 0
    a, b = a[keep], b[keep]
    na, nb = a.sum(), b.sum()
    pooled = (a + b) / (na + nb)
    stat = float(np.sum((a - na * pooled) ** 2 / (na * pooled))
                 + np.sum((b - nb * pooled) ** 2 / (nb * pooled)))
    dof = a.size - 1
    return stat, float(_sci_special.chdtrc(dof, stat))


def hausdorff(set_a, set_b) -> float:
    """Exact Hausdorff distance between finite nonempty subsets of the line.

    Both sets are sorted, and for each point of one set the nearest point of
    the other is found by bisection: it is one of the two neighbours of its
    insertion index.  The result is the same float as the max-min over all
    pairs of points.  ValueError if either set is empty.
    """
    a = np.sort(np.asarray(set_a, dtype=float))
    b = np.sort(np.asarray(set_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("hausdorff requires nonempty sets")

    def directed(src, dst):
        idx = np.searchsorted(dst, src)
        # idx lies in 0..dst.size, so each neighbour needs one clamp only
        left = dst[np.maximum(idx - 1, 0)]
        right = dst[np.minimum(idx, dst.size - 1)]
        nearest = np.minimum(np.abs(src - left), np.abs(src - right))
        return float(nearest.max())

    return max(directed(a, b), directed(b, a))
