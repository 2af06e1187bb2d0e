"""Shared numerical substrate: special functions, series, stable log-hyperbolic
helpers, the distances the experiments report, and the exact-law verdicts
(`LawCheck`) that judge a sample against its exact law.

Everything here is a pure function of its inputs.  Quadrature, the one-sample
KS statistic and its critical value, and the chi-square tests serve only as
test references, so they live in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def require_finite(**values: float) -> None:
    """ValueError naming the first of `values` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def require_alpha(alpha: float) -> None:
    """ValueError unless the soup intensity alpha is finite and nonnegative."""
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")


def log_gamma(x):
    """log |Gamma(x)| for x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("log_gamma requires positive arguments")
    # scipy.special is imported where used, so `import loopsoup` does not load it
    from scipy.special import gammaln

    out = gammaln(x)
    return float(out) if out.ndim == 0 else out


def log_beta(a: float, b: float) -> float:
    """log Beta(a, b) via log-gamma, for a, b > 0."""
    if a <= 0 or b <= 0:
        raise ValueError("log_beta requires positive arguments")
    from scipy.special import gammaln

    return float(gammaln(a) + gammaln(b) - gammaln(a + b))


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
        from scipy.special import digamma, gamma, zeta

        coef, head = zeta(alpha - j), 0.0
        if alpha >= 1.0 and float(alpha).is_integer():
            # the log term at j = k - 1; H_(k-1) = digamma(k) + Euler's gamma
            coef[j == alpha - 1.0] = digamma(alpha) + np.euler_gamma - math.log(-mu)
        else:
            head = gamma(1.0 - alpha) * (-mu) ** (alpha - 1.0)
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
    from scipy.special import zeta

    return float(zeta(alpha))


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
# statistical distances and exact-law verdicts
# ---------------------------------------------------------------------------

def ks_distance_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


# one exact law's verdict: the worst |z| of its cells, its p-value and whether
# that p-value clears 1e-3
LawCheck = namedtuple("LawCheck", "law worst_z p ok")


def _bonferroni(law: str, z, p, tests: int | None = None) -> LawCheck:
    """The law's p-value is k times the smallest of its cells' two-sided
    p-values, k the number of tests that share the 1e-3 (by default its own
    cells); by Bonferroni it is below 1e-3 at most 1e-3 of the time, however
    the tests correlate."""
    p = min(1.0, (tests or len(p)) * float(np.min(p)))
    return LawCheck(law, float(np.max(np.abs(z))), p, p >= 1e-3)


def z_check(law: str, z, tests: int | None = None) -> LawCheck:
    """`_bonferroni` over statistics z that are standard normal under the
    law, each with the two-sided p-value 2 Phi(-|z|)."""
    from scipy.special import ndtr

    z = np.atleast_1d(z)
    return _bonferroni(law, z, 2.0 * ndtr(-np.abs(z)), tests)


def cell_check(law: str, hits, probs, reps: int, pool: bool = False,
               tests: int | None = None) -> LawCheck:
    """`_bonferroni` over cells, each a count of hits in `reps` replicates
    against its exact binomial law, p = 2 min(P[X <= hits], P[X >= hits]),
    so the false-alarm rate holds at every count.  With pool, the cells of a
    partition expected fewer than 20 times merge into one.  z is the normal
    approximation (hits / reps - prob) / se, inf on a missed sure cell."""
    from scipy.special import bdtr, bdtrc

    hits, probs = np.asarray(hits), np.clip(np.asarray(probs, dtype=float), 0.0, 1.0)
    if pool and (rare := reps * probs < 20.0).any():
        hits = np.append(hits[~rare], hits[rare].sum())
        probs = np.append(probs[~rare], probs[rare].sum())
    se = np.sqrt(probs * (1.0 - probs) / reps)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0.0, (hits / reps - probs) / se,
                     np.where(hits == probs * reps, 0.0, np.inf))
    return _bonferroni(law, z, 2.0 * np.minimum(bdtr(hits, reps, probs),
                                                bdtrc(hits - 1, reps, probs)), tests)


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
