"""Closed-form loop-measure masses and cluster probability formulas.

All finite-n quantities reduce to log-determinants of tridiagonal or circulant
restrictions of the walk generator, evaluated in the log domain so that large
n*r never overflows; the mass inside any vertex subset is a sum of arc masses.
The r -> 0 degenerate cases go through series limits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circle import CircleModel
from .numerics import (
    QuadratureSpec,
    integrate,
    log_cosh,
    log_cosh_diff,
    log_sinh,
    log_sinh_ratio,
    require_finite,
)


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


def mass_inside(model: CircleModel, subset) -> float:
    """Total loop mass of non-trivial loops visiting only vertices in `subset`.

    The restricted generator is block-diagonal over the maximal cyclic runs
    of the subset, so the mass is the sum of their closed-form arc masses;
    the full circle uses the circulant determinant.  Returns +inf when the
    restricted generator is singular (infinite mass, only for the full circle
    at c = 0).
    """
    verts = sorted(set(int(v) for v in subset))
    if any(not 1 <= v <= model.n for v in verts):
        raise ValueError("subset must consist of vertices 1..n")
    if len(verts) == model.n:
        return model.n * math.log(1.0 + model.c) - _log_det_circle(model)
    idx = np.asarray(verts, dtype=int)
    cuts = np.flatnonzero(np.diff(idx) > 1) + 1
    runs = np.diff(np.concatenate(([0], cuts, [idx.size]))).tolist()
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
    return _log_coth(r) + log_sinh(big) - log_cosh_diff(big, small)


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
    def log_sinh_part(k):  # log sinh(k r) - k r + log 2
        return np.log(-np.expm1(-2.0 * model.r * k))

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

    Equals (cosh(nr) / (cosh(nr) - cosh(n d)))^(-alpha); 0 at c = 0.
    """
    n, r = model.n, model.r
    big, small = n * r, n * _half_log_drift(model)
    if model.c == 0.0 or big <= small:
        return 0.0
    return _clip_unit(math.exp(model.alpha * (log_cosh_diff(big, small) - log_cosh(big))))


def prob_no_winding_or_covering_limit(kappa: float, epsilon: float, alpha: float) -> float:
    """Scaling limit ((cosh sqrt(k) - cosh sqrt(k-2e)) / cosh sqrt(k))^alpha."""
    require_finite(kappa=kappa, epsilon=epsilon, alpha=alpha)
    _require_limit_domain(kappa, epsilon)
    s = math.sqrt(kappa)
    s2 = math.sqrt(kappa - 2.0 * epsilon)
    return _clip_unit(math.exp(alpha * (log_cosh_diff(s, s2) - log_cosh(s))))


def _require_limit_domain(kappa: float, epsilon: float) -> None:
    if not kappa > 0.0:
        raise ValueError("limit formulas require kappa > 0")
    if not 0.0 <= epsilon <= kappa / 2.0:
        raise ValueError("epsilon must lie in [0, kappa/2]")


def covered_extent_cdf(model: CircleModel, m: int, M: int) -> float:
    """P[interval swept by the liftable loops fits inside [-m, M]].

    The liftable loops jointly cover a lift interval containing 0; this is
    the probability it stays within [-m, M], for 0 <= m, M <= n-1.
    """
    n, r = model.n, model.r
    if not (0 <= m <= n - 1 and 0 <= M <= n - 1):
        raise ValueError("extents must lie in [0, n-1]")
    a = model.alpha
    if r == 0.0:
        return (2.0 * (m + 1.0) * (M + 1.0) / (n * (m + M + 2.0))) ** a
    # exp(-alpha * mass of the liftable loops leaving [-m, M])
    log_val = mass_liftable_inside(model, m, M) - mass_liftable_inside(model, n - 1, n - 1)
    return _clip_unit(math.exp(a * float(log_val)))


def covered_extent_cdf_limit(kappa: float, alpha: float, a: float, b: float) -> float:
    """Limit law of the scaled swept interval: P[A <= a, B <= b]."""
    require_finite(kappa=kappa, alpha=alpha, a=a, b=b)
    if not kappa > 0.0:
        raise ValueError("limit formulas require kappa > 0")
    if not (a >= 0 and b >= 0):
        raise ValueError("extents must be nonnegative")
    s = math.sqrt(kappa)
    # a * s can underflow to 0 for subnormal a; log_sinh(0) = -inf would then
    # give -inf - (-inf) = nan below, so treat it as the a = 0 boundary
    if a * s == 0.0 or b * s == 0.0:
        return 0.0
    log_val = (math.log(2.0) + log_cosh(s) - log_sinh(s)
               + log_sinh(a * s) + log_sinh(b * s) - log_sinh((a + b) * s))
    return _clip_unit(math.exp(alpha * log_val))


def _log_sinh_scaled(s: float, x: float) -> float:
    """log sinh(s x) for s, x > 0; below s x = 1e-8 it is log s + log x, which
    stays finite where s x underflows."""
    return math.log(s) + math.log(x) if s * x < 1e-8 else log_sinh(s * x)


def _exp_or_inf(log_val: float) -> float:
    """exp(log_val), or inf once that passes the float range."""
    try:
        return math.exp(log_val)
    except OverflowError:
        return math.inf


def covered_extent_limit_density(kappa: float, alpha: float, a: float, b: float) -> float:
    """Joint density of the scaled swept-interval extents (A, B)."""
    require_finite(kappa=kappa, alpha=alpha, a=a, b=b)
    if not kappa > 0.0:
        raise ValueError("limit formulas require kappa > 0")
    if a <= 0.0 or b <= 0.0:
        return 0.0
    s = math.sqrt(kappa)
    log_val = (math.log(kappa * alpha * (alpha + 1.0))
               + alpha * (math.log(2.0) + log_cosh(s) - log_sinh(s))
               + alpha * (_log_sinh_scaled(s, a) + _log_sinh_scaled(s, b))
               - (alpha + 2.0) * _log_sinh_scaled(s, a + b))
    return _exp_or_inf(log_val)


def through1_extent_cdf(model: CircleModel, m: int, M: int) -> float:
    """P[>= 2 clusters, left extent <= m, right extent <= M | no avoiding loop].

    Extents are graph distances from vertex 1 to the ends of its cluster,
    which under the conditioning is formed by the loops through vertex 1.
    Requires m + M <= n - 2.
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
    """P[>= 2 clusters | no loop avoids vertex 1].

    Summed from the joint extent cdf along the anti-diagonal m + M = n - 2.
    """
    n = model.n
    pnw = prob_no_winding_or_covering(model)
    total = 0.0
    for m in range(0, n - 1):
        M = n - 2 - m
        upper = covered_extent_cdf(model, m, M)
        lower = covered_extent_cdf(model, m - 1, M) if m >= 1 else 0.0
        total += upper - lower
    return _clip_unit(pnw * total)


def prob_split_given_no_avoiding_limit(kappa: float, epsilon: float,
                                       alpha: float) -> float:
    """Scaling limit of P[>= 2 clusters | no loop avoids vertex 1].

    Equals 2^a * a*sqrt(k) * (cosh sqrt(k) - cosh sqrt(k-2e))^a / sinh(sqrt(k))^(2a+1)
    times the integral over (0, 1) of sinh(sqrt(k) t)^(a-1) sinh(sqrt(k)(1-t))^(a+1) dt.
    """
    require_finite(kappa=kappa, epsilon=epsilon, alpha=alpha)
    _require_limit_domain(kappa, epsilon)
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    s = math.sqrt(kappa)
    s2 = math.sqrt(kappa - 2.0 * epsilon)

    # u = t^beta, beta = min(alpha, 1), takes the t^(alpha-1) singularity at
    # t = 0 out of the integrand: dt = t^(1-beta) du / beta.
    beta = min(alpha, 1.0)
    log_pref = (alpha * math.log(2.0) + math.log(alpha * s / beta)
                + alpha * log_cosh_diff(s, s2) - (2.0 * alpha + 1.0) * log_sinh(s))

    def log_integrand(u):
        t = u ** (1.0 / beta)
        if s * t == 0.0:  # underflow (alpha < 1): sinh(s t)^(alpha-1) t^(1-alpha) -> s^(alpha-1)
            head = (alpha - 1.0) * math.log(s)
        else:
            head = (alpha - 1.0) * log_sinh(s * t) + (1.0 - beta) * math.log(t)
        return head + (alpha + 1.0) * log_sinh(s * (1.0 - t))

    # Scaled by its value where the mass sits (t ~ 1/2 for small kappa,
    # ~ 1/sqrt(kappa) for large), so the integral stays of order one against
    # the absolute tolerance and no sinh leaves the log domain.
    log_scale = log_integrand((2.0 + s) ** -beta)
    val, _ = integrate(lambda u: math.exp(log_integrand(u) - log_scale), 0.0, 1.0,
                       QuadratureSpec(tol=1e-12), points=[0.0])
    return _clip_unit(math.exp(log_pref + log_scale) * val)


def prob_not_single_partition_limit(kappa: float, epsilon: float, alpha: float) -> float:
    """Limit of P[the soup leaves at least one closed edge].

    2^a sinh(sqrt(k)(1-a)) (cosh sqrt(k) - cosh sqrt(k-2e))^a / sinh sqrt(k)
    for 0 < alpha < 1; identically 0 for alpha >= 1 (single cluster a.s.).
    """
    require_finite(kappa=kappa, epsilon=epsilon, alpha=alpha)
    _require_limit_domain(kappa, epsilon)
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if alpha >= 1.0:
        return 0.0
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
    if x <= 0.0 or y <= 0.0 or x + y >= 1.0:
        return 0.0
    s = math.sqrt(kappa)
    z = x + y
    log_val = (math.log(math.sin(alpha * math.pi) / math.pi)
               + math.log((1.0 - alpha) * kappa) + log_sinh(s)
               - log_sinh(s * (1.0 - alpha))
               - alpha * _log_sinh_scaled(s, 1.0 - z)
               - (2.0 - alpha) * _log_sinh_scaled(s, z))
    return _exp_or_inf(log_val)
