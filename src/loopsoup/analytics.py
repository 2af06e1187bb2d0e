"""Closed-form loop-measure masses and cluster probability formulas.

Finite-n masses reduce to log-determinants of tridiagonal or circulant
restrictions of the walk generator, evaluated in the log domain so that large
n*r never overflows; the mass inside any vertex subset is a sum of arc masses.
The r -> 0 degenerate cases go through series limits.  The closed edges of
the unconditioned soup are a cyclic renewal of the renewal law's own jump
pmf, so the joint law of vertex 1's cluster extents is a product of that pmf
and the hitting probabilities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circle import CircleModel
from .numerics import (
    exp_or_inf,
    log_beta,
    log_cosh,
    log_cosh_diff,
    log_gap,
    log_sinh,
    log_sinh_ratio,
    require_alpha,
    require_finite,
)
from .scaling import RenewalLaw


@dataclass(frozen=True)
class DetSpec:
    """Tridiagonal band (diagonal a, superdiagonal b, subdiagonal c), size n."""

    a: float
    b: float
    c: float
    n: int

    def roots(self) -> tuple[complex, complex]:
        """Roots of x^2 - a x + b c = 0, possibly complex or coincident."""
        disc = cmath.sqrt(self.a * self.a - 4.0 * self.b * self.c)
        return (self.a + disc) / 2.0, (self.a - disc) / 2.0

    @property
    def degenerate(self) -> bool:
        x1, x2 = self.roots()
        return abs(x1 - x2) <= 1e-6 * max(1.0, abs(x1), abs(x2))


def toeplitz_det(spec: DetSpec) -> float:
    """Determinant of the n x n tridiagonal Toeplitz matrix.

    Equals (x1^(n+1) - x2^(n+1)) / (x1 - x2) for the roots of
    x^2 - a x + bc = 0; near-coincident roots use the divided-difference sum
    sum_i x1^i x2^(n-i), which reduces to (n+1) x^n at equality.
    """
    if spec.n < 1:
        raise ValueError("toeplitz_det requires n >= 1")
    x1, x2 = spec.roots()
    if spec.degenerate:
        val = sum(x1 ** i * x2 ** (spec.n - i) for i in range(spec.n + 1))
        return float(val.real)
    val = (x1 ** (spec.n + 1) - x2 ** (spec.n + 1)) / (x1 - x2)
    return float(val.real)


def circulant_det(spec: DetSpec) -> float:
    """Determinant of the n x n circulant band matrix (corners b and c swapped).

    Equals x1^n + x2^n + (-1)^(n+1) (b^n + c^n); only valid for n >= 3.
    """
    if spec.n < 3:
        raise ValueError("circulant_det requires n >= 3")
    x1, x2 = spec.roots()
    val = x1 ** spec.n + x2 ** spec.n
    val += (-1.0) ** (spec.n + 1) * (complex(spec.b) ** spec.n + complex(spec.c) ** spec.n)
    return float(val.real)


# ---------------------------------------------------------------------------
# log-determinants of generator restrictions (internal, log domain)
# ---------------------------------------------------------------------------

def _log_s(model: CircleModel) -> float:
    return 0.5 * math.log(model.p * (1.0 - model.p))


def _log_det_arc(model: CircleModel, k: int) -> float:
    """log det(-L restricted to a k-vertex arc) = k log s + log(sinh((k+1)r)/sinh r)."""
    if k == 0:
        return 0.0
    if model.r == 0.0:
        return k * _log_s(model) + math.log(k + 1.0)
    return k * _log_s(model) + log_sinh_ratio(k + 1.0, 1.0, model.r)


def _half_log_drift(model: CircleModel) -> float:
    """|log(p/(1-p))| / 2, the drift scale entering the circulant determinant."""
    return abs(math.log(model.p / (1.0 - model.p))) / 2.0


def _log_det_circle(model: CircleModel) -> float:
    """log det(-L on the full circle) = n log s + log 2 + log(cosh nr - cosh nd)."""
    n = model.n
    big, small = n * model.r, n * _half_log_drift(model)
    if model.c == 0.0 or big <= small:
        # singular at c = 0, where constants are harmonic; r equals the half
        # log-drift there only up to rounding, so big <= small alone misses it
        return -math.inf
    return n * _log_s(model) + math.log(2.0) + log_cosh_diff(big, small)


def _arc_mass(model: CircleModel, k: int) -> float:
    """Mass of the non-trivial loops inside a k-vertex arc."""
    return k * math.log(1.0 + model.c) - _log_det_arc(model, k)


def _circle_mass(model: CircleModel) -> float:
    """Mass of the non-trivial loops on the full circle; +inf at c = 0."""
    return model.n * math.log(1.0 + model.c) - _log_det_circle(model)


def mass_inside(model: CircleModel, subset) -> float:
    """Total loop mass of non-trivial loops visiting only vertices in `subset`.

    The restricted generator is block-diagonal over the maximal cyclic runs
    of the subset, so the mass is the sum of their closed-form arc masses;
    the full circle uses the circulant determinant.  Returns +inf when the
    restricted generator is singular (infinite mass, only for the full circle
    at c = 0).
    """
    verts = np.sort(np.fromiter(subset, dtype=np.int64))
    verts = verts[np.diff(verts, prepend=verts[:1] - 1) > 0]  # drop repeats
    if verts.size and not 1 <= verts[0] <= verts[-1] <= model.n:
        raise ValueError("subset must consist of vertices 1..n")
    if verts.size == model.n:
        return _circle_mass(model)
    cuts = np.flatnonzero(np.diff(verts) > 1) + 1
    runs = np.diff(np.concatenate(([0], cuts, [verts.size]))).tolist()
    if len(runs) > 1 and verts[0] == 1 and verts[-1] == model.n:
        runs[0] += runs.pop()  # the run through vertex n continues at vertex 1
    return sum((_arc_mass(model, k) for k in runs if k > 1), 0.0)


def mass_avoiding_edges(model: CircleModel, edges) -> float:
    """Mass of non-trivial loops traversing none of the given directed edges.

    Edges are (tail, head) pairs of adjacent vertices; the corresponding
    generator entries are zeroed and the restriction identity applies to the
    modified generator.
    """
    n = model.n
    L = model.generator()
    for (u, v) in edges:
        if not (1 <= u <= n and 1 <= v <= n) or (v - u) % n not in (1, n - 1):
            raise ValueError(f"({u},{v}) is not a directed edge of the {n}-circle")
        L[u - 1, v - 1] = 0.0
    sign, log_det = np.linalg.slogdet(-L)
    if sign <= 0:
        return math.inf
    return -log_det + n * math.log(1.0 + model.c)


def _log_coth(z: float) -> float:
    """log coth z = log1p(2 / expm1(2z)) for z > 0, with every digit at large z,
    where log cosh z - log sinh z would cancel two numbers near z; written
    with e^-2z so that no exponential overflows."""
    return math.log1p(2.0 * math.exp(-2.0 * z) / -math.expm1(-2.0 * z))


def mass_through_vertex1(model: CircleModel) -> float:
    """Mass of non-trivial loops visiting vertex 1.

    Closed form log(coth r) + log sinh(nr) - log(cosh nr - cosh(n d)) with
    d the half log-drift; +inf at c = 0.
    """
    n, r = model.n, model.r
    if r == 0.0:
        return math.inf
    big, small = n * r, n * _half_log_drift(model)
    if model.c == 0.0 or big <= small:
        return math.inf
    if big - small < 1.0:
        return _log_coth(r) + log_sinh(big) - log_cosh_diff(big, small)
    # e^big / 2 factored out of sinh(big) and cosh(big) - cosh(small), so two
    # logs near big do not cancel; the second log1p's argument is above -0.61
    e = math.exp(-2.0 * big)
    return (_log_coth(r) + math.log1p(-e)
            - math.log1p(e - math.exp(small - big) - math.exp(-small - big)))


def mass_liftable(model: CircleModel) -> float:
    """Mass of the liftable loops (through vertex 1, zero winding, consistent lift).

    Closed form log(coth r) + log tanh(nr), from the line-walk restriction
    determinants of the lift.
    """
    n, r = model.n, model.r
    if r == 0.0:
        return math.inf
    return _log_coth(r) - _log_coth(n * r)


def mass_liftable_inside(model: CircleModel, m, M):
    """Mass of the liftable loops whose lift through 0 stays inside [-m, M].

    Equals log(2 cosh r sinh((m+1)r) sinh((M+1)r) / (sinh r sinh((m+M+2)r))),
    the line-walk mass of loops through 0 inside [-m, M]; written with expm1,
    where the exponentials cancel exactly, so no digits are lost at large
    n*r.  Elementwise over arrays m, M >= 0; requires r > 0.
    """
    def log_sinh_part(k):  # log sinh(k r) - k r + log 2 = log(1 - e^(-2kr))
        # past 2kr = log 2, 1 - e^(-2kr) is near 1 and log1p keeps the digits of its log
        x, log_2 = 2.0 * model.r * k, math.log(2.0)
        return np.where(x > log_2, np.log1p(-np.exp(-np.maximum(x, log_2))),
                        np.log(-np.expm1(-x)))

    m, M = np.asarray(m), np.asarray(M)
    return (np.log1p(math.exp(-2.0 * model.r)) - log_sinh_part(1)
            + log_sinh_part(m + 1) + log_sinh_part(M + 1) - log_sinh_part(m + M + 2))


def mass_winding_or_covering(model: CircleModel) -> float:
    """Mass of loops through vertex 1 that wind or sweep a full circuit."""
    return mass_through_vertex1(model) - mass_liftable(model)


# ---------------------------------------------------------------------------
# probability formulas
# ---------------------------------------------------------------------------

def _clip_unit(x: float) -> float:
    """Clamp log-domain roundoff (order 1e-13) back into [0, 1]."""
    return min(max(x, 0.0), 1.0)


def prob_no_winding_or_covering(model: CircleModel) -> float:
    """P[soup contains no winding and no circuit-sweeping loop].

    Equals (cosh(nr) / (cosh(nr) - cosh(n d)))^(-alpha); 1 at alpha = 0 (an
    empty soup), else 0 at c = 0.
    """
    if model.alpha == 0.0:
        return 1.0
    n, r = model.n, model.r
    big, small = n * r, n * _half_log_drift(model)
    if model.c == 0.0 or big <= small:
        return 0.0
    return _clip_unit(math.exp(model.alpha * (log_cosh_diff(big, small) - log_cosh(big))))


def prob_no_winding_or_covering_limit(kappa: float, epsilon: float, alpha: float) -> float:
    """Scaling limit ((cosh sqrt(k) - cosh sqrt(k-2e)) / cosh sqrt(k))^alpha, 1 at alpha = 0."""
    require_finite(kappa=kappa, epsilon=epsilon, alpha=alpha)
    require_alpha(alpha)
    _require_limit_domain(kappa, epsilon)
    if alpha == 0.0:  # 0 * log 0 at epsilon = 0 would give nan
        return 1.0
    s = math.sqrt(kappa)
    s2 = math.sqrt(kappa - 2.0 * epsilon)
    return _clip_unit(math.exp(alpha * (log_cosh_diff(s, s2) - log_cosh(s))))


def _require_limit_domain(kappa: float, epsilon: float) -> None:
    if not kappa > 0.0:
        raise ValueError("limit formulas require kappa > 0")
    if not 0.0 <= epsilon <= kappa / 2.0:
        raise ValueError("epsilon must lie in [0, kappa/2]")


def covered_extent_cdf(model: CircleModel, m, M):
    """P[interval swept by the liftable loops fits inside [-m, M]].

    The liftable loops jointly cover a lift interval containing 0; this is
    the probability it stays within [-m, M], for 0 <= m, M <= n-1.
    Elementwise over arrays m, M; a float for scalar m, M.
    """
    n, a = model.n, model.alpha
    m, M = np.asarray(m), np.asarray(M)
    if not np.all((0 <= m) & (m <= n - 1) & (0 <= M) & (M <= n - 1)):
        raise ValueError("extents must lie in [0, n-1]")
    if model.r == 0.0:
        F = (2.0 * (m + 1.0) * (M + 1.0) / (n * (m + M + 2.0))) ** a
    else:  # exp(-alpha * mass of the liftable loops leaving [-m, M]), clamped to 1
        log_val = mass_liftable_inside(model, m, M) - mass_liftable_inside(model, n - 1, n - 1)
        F = np.minimum(np.exp(a * log_val), 1.0)
    return F if F.ndim else float(F)


def covered_extent_cdf_limit(kappa: float, alpha: float, a: float, b: float) -> float:
    """Limit law of the scaled swept interval: P[A <= a, B <= b]; 1 at alpha = 0."""
    require_finite(kappa=kappa, alpha=alpha, a=a, b=b)
    require_alpha(alpha)
    if not kappa > 0.0:
        raise ValueError("limit formulas require kappa > 0")
    if not (a >= 0 and b >= 0):
        raise ValueError("extents must be nonnegative")
    s = math.sqrt(kappa)
    # a * s can underflow to 0 for subnormal a; log_sinh(0) = -inf would then
    # give -inf - (-inf) = nan below, so treat it as the a = 0 boundary
    if alpha == 0.0 or a * s == 0.0 or b * s == 0.0:
        return float(alpha == 0.0)
    log_val = (math.log(2.0) + log_cosh(s) - log_sinh(s)
               + log_sinh(a * s) + log_sinh(b * s) - log_sinh((a + b) * s))
    return _clip_unit(math.exp(alpha * log_val))


def covered_extent_limit_density(kappa: float, alpha: float, a: float, b: float) -> float:
    """Joint density of the scaled swept-interval extents (A, B); 0 at
    alpha = 0, where the soup is empty and (A, B) = (0, 0)."""
    require_finite(kappa=kappa, alpha=alpha, a=a, b=b)
    require_alpha(alpha)
    if not kappa > 0.0:
        raise ValueError("limit formulas require kappa > 0")
    if a <= 0.0 or b <= 0.0 or alpha == 0.0:
        return 0.0
    s = math.sqrt(kappa)
    # k a (a+1) (2 coth s)^a (sinh(sa) sinh(sb))^a / sinh(s(a+b))^(a+2), where
    # log sinh(sy) = log s + sy + log_gap(s, y) and the log s terms cancel
    return exp_or_inf(math.log(alpha * (alpha + 1.0)), -2.0 * s * (a + b),
                      alpha * math.log1p(math.exp(-2.0 * s)), -alpha * log_gap(s, 1.0),
                      alpha * log_gap(s, a), alpha * log_gap(s, b),
                      -(alpha + 2.0) * log_gap(s, a + b))


def through1_extent_cdf(model: CircleModel, m: int, M: int) -> float:
    """P[>= 2 clusters, left extent <= m, right extent <= M | no avoiding loop].

    Extents are graph distances from vertex 1 to the ends of its cluster,
    which under the conditioning is formed by the loops through vertex 1.
    At least 2 clusters means at least 2 closed edges, so the extents sum to
    at most n - 2, and m + M <= n - 2 is required.  The one-closed-edge soups,
    whose cluster of n vertices has extents summing to n - 1, are not in the
    event.
    """
    if m < 0 or M < 0 or m + M > model.n - 2:
        raise ValueError("need m, M >= 0 and m + M <= n - 2")
    return prob_no_winding_or_covering(model) * covered_extent_cdf(model, m, M)


def through1_extent_cdf_limit(kappa: float, epsilon: float, alpha: float,
                              a: float, b: float) -> float:
    """Scaling limit of through1_extent_cdf at scaled extents (a, b), a+b <= 1."""
    require_finite(kappa=kappa, epsilon=epsilon, alpha=alpha, a=a, b=b)
    _require_limit_domain(kappa, epsilon)
    if not (a >= 0 and b >= 0 and a + b <= 1.0):
        raise ValueError("need a, b >= 0 and a + b <= 1")
    return (prob_no_winding_or_covering_limit(kappa, epsilon, alpha)
            * covered_extent_cdf_limit(kappa, alpha, a, b))


def prob_split_given_no_avoiding(model: CircleModel) -> float:
    """P[>= 2 clusters | no loop avoids vertex 1], that is at least 2 closed
    edges: a single closed edge leaves one cluster.

    The sum over the anti-diagonal m + M = n - 2 of F(m, M) - F(m - 1, M),
    F = covered_extent_cdf taken elementwise and F(-1, M) = 0.
    """
    m, M = np.arange(model.n - 1), np.arange(model.n - 2, -1, -1)
    # F(m - 1, M) is taken for m >= 1 only: its log at m - 1 = -1 would be -inf
    lower = np.concatenate(([0.0], covered_extent_cdf(model, m[1:] - 1, M[1:])))
    return _clip_unit(prob_no_winding_or_covering(model)
                      * float(np.sum(covered_extent_cdf(model, m, M) - lower)))


def origin_extent_pmf(model: CircleModel) -> np.ndarray:
    """P[origin_left = l, origin_right = x] over the unconditioned soups with
    a closed edge, an n x n array; its total is P[a closed edge].

    The closed edges are a cyclic renewal of the jump pmf w of
    `RenewalLaw.build(alpha, r, n)`: a nonempty closed set with cyclic gaps
    k_1 .. k_m has probability Pi_n w(k_1) ... w(k_m), where
    Pi_n = (2 e^(-nr) (cosh nr - cosh nd))^alpha, d the half log-drift, is
    the no-winding probability times (1 + e^(-2nr))^alpha.  Vertex 1's gap
    is l + x + 1, and the others sum over the renewal paths across the other
    n - l - x - 1 edges to C(n - l - x - 1), so
        pmf[l, x] = Pi_n w(l + x + 1) C(n - l - x - 1)   for l + x <= n - 1.
    """
    n = model.n
    law = RenewalLaw.build(model.alpha, model.r, n)
    pi = prob_no_winding_or_covering(model) * (1.0 + math.exp(-2.0 * n * model.r)) ** model.alpha
    by_sum = np.zeros(2 * n - 1)  # the pmf by l + x, 0 past n - 1
    by_sum[:n] = pi * law.w[1:] * law.C[n - 1::-1]
    k = np.arange(n)
    return by_sum[k[:, None] + k]


def prob_split_given_no_avoiding_limit(kappa: float, epsilon: float,
                                       alpha: float) -> float:
    """Scaling limit of P[>= 2 clusters | no loop avoids vertex 1].

    With s = sqrt(k), s2 = sqrt(k-2e), the swept-extent law over a + b <= 1 is
    2^a a s (cosh s - cosh s2)^a / sinh(s)^(2a+1) times the integral over (0, 1)
    of sinh(st)^(a-1) sinh(s(1-t))^(a+1) dt, which u = (1-e^(-2st)) / (1-e^(-2s))
    makes Euler's integral of 2F1(a, a+1; 2a+2; 1-e^(-2s)).  Its quadratic
    transformation gives the law, which tends to 1 as k -> inf, as
        a B(a, a+2) ((1-e^(-(s+s2))) (1-e^(-(s-s2))))^a (2/(1+e^-s))^(2a)
        * 2F1(a, -1/2; a+3/2; tanh(s/2)^2),
    whose terms stay bounded: accurate to 1e-12 up to alpha = 100, beyond which
    alpha is rejected.  At alpha = 0 the soup is empty and the law is 1.
    """
    require_finite(kappa=kappa, epsilon=epsilon, alpha=alpha)
    _require_limit_domain(kappa, epsilon)
    if not 0.0 <= alpha <= 100.0:
        raise ValueError("alpha must lie in [0, 100]")
    s = math.sqrt(kappa)
    s2 = math.sqrt(kappa - 2.0 * epsilon)
    if alpha == 0.0 or s2 == s:  # else epsilon is 0 to rounding, so is the no-winding factor
        return float(alpha == 0.0)
    from scipy.special import hyp2f1

    log_pref = (alpha * (math.log(-math.expm1(-(s + s2))) + math.log(-math.expm1(s2 - s))
                         + 2.0 * (math.log(2.0) - math.log1p(math.exp(-s))))
                + math.log(alpha) + log_beta(alpha, alpha + 2.0))
    # c - a - b must come out exactly 2 in floating point: one ulp off, hyp2f1
    # past z = 0.9 lost 0.5% at alpha = 63.76
    c = alpha + 1.5
    return _clip_unit(math.exp(log_pref) * float(hyp2f1(c - 1.5, -0.5, c, math.tanh(s / 2.0) ** 2)))


def prob_not_single_partition_limit(kappa: float, epsilon: float, alpha: float) -> float:
    """Limit of P[the soup leaves at least one closed edge].

    2^a sinh(sqrt(k)(1-a)) (cosh sqrt(k) - cosh sqrt(k-2e))^a / sinh sqrt(k)
    for 0 < alpha < 1; 1 at alpha = 0 (an empty soup) and 0 for alpha >= 1.
    """
    require_finite(kappa=kappa, epsilon=epsilon, alpha=alpha)
    _require_limit_domain(kappa, epsilon)
    require_alpha(alpha)
    if alpha == 0.0 or alpha >= 1.0:
        return float(alpha == 0.0)
    s = math.sqrt(kappa)
    s2 = math.sqrt(kappa - 2.0 * epsilon)
    log_val = (alpha * math.log(2.0) + log_sinh(s * (1.0 - alpha))
               + alpha * log_cosh_diff(s, s2) - log_sinh(s))
    return _clip_unit(math.exp(log_val))


def cluster_extent_limit_density(kappa: float, alpha: float, x: float, y: float) -> float:
    """Limit density of the scaled extents (G, D) of the cluster of vertex 1,
    conditioned on the partition being nontrivial.

    Normalized so the integral over {x, y > 0, x + y < 1} is 1; zero outside.
    Depends on the extents only through x + y.
    """
    require_finite(kappa=kappa, alpha=alpha, x=x, y=y)
    if not kappa > 0.0:
        raise ValueError("limit formulas require kappa > 0")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    rest = math.fsum((1.0, -x, -y))  # 1 - x - y rounded once, as x + y < 1 is judged
    if x <= 0.0 or y <= 0.0 or rest <= 0.0:
        return 0.0
    s = math.sqrt(kappa)
    z = x + y
    # (sin(a pi) / pi) (1 - a) k sinh(s) / (sinh(s(1-a)) sinh(s rest)^a
    # sinh(sz)^(2-a)), through log_gap as in `covered_extent_limit_density`
    return exp_or_inf(math.log(math.sin(alpha * math.pi) / math.pi * (1.0 - alpha)),
                      -2.0 * (1.0 - alpha) * s * z, log_gap(s, 1.0), -log_gap(s, 1.0 - alpha),
                      -alpha * log_gap(s, rest), -(2.0 - alpha) * log_gap(s, z))
