"""Independent brute-force oracles for the loop-measure closed forms.

Masses are recomputed from first principles: explicit enumeration of all
nearest-neighbour pointed loops up to a cutoff length (pure combinatorics,
no determinants), extended beyond the cutoff by trace power series of the
one-step matrix.  The tail beyond the final cutoff K is geometrically bounded
by  size * rho^(K+1) / ((K+1)(1-rho))  with rho = 1/(1+c) an upper bound on
the spectral radius, so K is chosen to push it below 1e-12.  The mass
battery `mass_checks` runs every closed-form mass against these oracles, the
subordinator battery `subordinator_checks` every subordinator closed form
against quadrature, `limit_identity_checks` two identities of the limit
laws, and the limit battery `limit_checks` every limit law against its
finite-n law.

The module also keeps the limit laws and the unnormalized extent density that
serve only as references in the tests, the limit densities in 80-digit
decimal arithmetic (`decimal_limit_densities`), the dense-determinant masses and
nested-quadrature cell table that the closed forms replaced, the
lift-extent mixture that the origin-extent closed form replaced, and the
adaptive quadrature, one-sample KS and chi-square helpers the tests check
against.

It ends with the exact-law batteries: `exact_law_checks` runs the exact laws
against any soup engine's ensembles, `object_ensemble` turns one draw of the
loop-object sampler into such ensembles, and `conditioned_path_checks` runs
the exact laws of conditioned renewal paths, on one cached draw
(`conditioned_draw`) where several tests read the same paths.  Each law is
judged by the package's own verdicts (`loopsoup.numerics.LawCheck`), which
the cluster-scaling runner uses too.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from decimal import Context, Decimal, getcontext, localcontext
from functools import lru_cache, partial
from itertools import product

import numpy as np
from scipy.fft import next_fast_len
from scipy.integrate import IntegrationWarning, quad
from scipy.linalg import solve_banded
from scipy.special import chdtrc

from loopsoup.analytics import (
    cluster_extent_limit_density, covered_extent_cdf, covered_extent_cdf_limit,
    mass_avoiding_edges, mass_inside, mass_liftable, mass_through_vertex1,
    mass_winding_or_covering, origin_extent_pmf, prob_no_winding_or_covering,
    prob_no_winding_or_covering_limit, prob_not_single_partition_limit,
    prob_split_given_no_avoiding, prob_split_given_no_avoiding_limit, through1_extent_cdf,
    through1_extent_cdf_limit,
)
from loopsoup.circle import CircleModel, Loop, LoopType, build_model, classify_loop
from loopsoup.experiments import _simplex_cell_probs, asymmetric_schedule
from loopsoup.numerics import (
    LawCheck, _bonferroni, cell_check, log_cosh, log_sinh, z_check,
)
from loopsoup.sampler import (
    CONDITIONS, SoupEnsemble, SoupSample, extract_clusters, philox_rng, sample_soup,
)
from loopsoup.scaling import (
    ConditionedBridgeLaw, RenewalLaw, SubordinatorLaw, bridge_crossing_joint_density,
    escape_probability, hitting_coefficients, sample_conditioned_renewals,
)


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


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None,
              *, points=None) -> tuple[float, float]:
    """Adaptive quadrature of f over (a, b); returns (value, error_estimate).

    Semi-infinite domains (b = inf) are mapped through x = t/(1-t) onto (a', 1).
    Integrable endpoint singularities are handled by the underlying QAGS
    extrapolation.  Raises QuadratureError if the error estimate exceeds the
    requested tolerance.
    """
    spec = spec or QuadratureSpec()
    with warnings.catch_warnings():
        # roundoff chatter from QAGS at tight tolerances; we gate on the
        # returned error estimate ourselves below
        warnings.simplefilter("ignore", IntegrationWarning)
        if math.isinf(b):
            if math.isinf(a):
                raise ValueError("doubly infinite domains are not supported")

            def g(t):
                x = t / (1.0 - t)
                return f(a + x) / (1.0 - t) ** 2

            val, err = quad(g, 0.0, 1.0, epsabs=spec.tol, epsrel=spec.tol,
                            limit=spec.limit)
        else:
            kw = {}
            if points is not None:
                kw["points"] = points
            val, err = quad(f, a, b, epsabs=spec.tol, epsrel=spec.tol,
                            limit=spec.limit, **kw)
    if not math.isfinite(val) or err > max(spec.tol, 1e-8 * abs(val)) * 100:
        raise QuadratureError(
            f"quadrature did not converge: value={val}, err={err}")
    return val, err


def ks_distance(sample, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of a sample against a cdf."""
    xs = np.sort(np.asarray(sample, dtype=float))
    m = xs.size
    if m == 0:
        raise ValueError("empty sample")
    fx = np.asarray([cdf(x) for x in xs], dtype=float)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - fx), np.max(fx - (grid - 1.0 / m))))


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
    return stat, float(chdtrc(obs.size - 1, stat))


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
    return stat, float(chdtrc(dof, stat))


def enumerate_pointed_loops(n: int, max_len: int):
    """All pointed loops (vertex tuples, 1-based) of length 2..max_len."""
    for start in range(1, n + 1):
        for k in range(2, max_len + 1):
            for steps in product((1, -1), repeat=k - 1):
                verts = [start]
                for s in steps:
                    verts.append((verts[-1] - 1 + s) % n + 1)
                if (verts[0] - verts[-1]) % n in (1, n - 1):
                    yield tuple(verts)


def pointed_mass(model: CircleModel, verts: tuple[int, ...]) -> float:
    k = len(verts)
    ups = 0
    for i in range(k):
        if (verts[(i + 1) % k] - verts[i]) % model.n == 1:
            ups += 1
    return model.step_cw ** ups * model.step_ccw ** (k - ups) / k


def _edge_bit(u: int, v: int, n: int) -> int:
    """Bit u-1 for the step u -> u+1, bit n+u-1 for the step u -> u-1."""
    return 1 << (u - 1 if v == u % n + 1 else n + u - 1)


@lru_cache(maxsize=None)
def _loops(n: int, max_len: int) -> tuple[list, np.ndarray]:
    """Every pointed loop of length 2..max_len on the n-cycle, and a record
    array of the columns that do not depend on p and c, one row per loop: its
    vertex-set mask (bit v-1), its directed-edge mask (`_edge_bit`), the value
    of its `LoopType`, its length and its count of cw steps.  `classify_loop`
    reads only n of the model; it runs once per rotation class, whose every
    rotation then reads the kind it gave."""
    model, kinds, loops, rows = build_model(n, 0.5, 1.0, 1.0), {}, [], []
    for verts in enumerate_pointed_loops(n, max_len):
        if verts not in kinds:
            kind = classify_loop(model, Loop.from_pointed(verts, n)).value
            kinds.update((verts[i:] + verts[:i], kind) for i in range(len(verts)))
        steps = list(zip(verts, verts[1:] + verts[:1]))
        loops.append(verts)
        rows.append((math.nan, sum(1 << (v - 1) for v in set(verts)),
                     sum({_edge_bit(u, v, n) for u, v in steps}), kinds[verts], len(verts),
                     sum((v - u) % n == 1 for u, v in steps)))
    return loops, np.array(rows, dtype=[("mass", float), ("vertices", np.int64),
                                        ("edges", np.int64), ("kind", np.int64),
                                        ("length", np.int64), ("cw", np.int64)])


def loop_table(model: CircleModel, max_len: int) -> np.ndarray:
    """`_loops`' record array for the model's n with the column "mass" filled
    in: step_cw^cw step_ccw^(length - cw) / length, checked against
    `pointed_mass` on every loop to relative 1e-15.  The enumeration runs
    once per (n, max_len), whatever the model."""
    loops, table = _loops(model.n, max_len)
    table = table.copy()
    cw, length = table["cw"], table["length"]
    table["mass"] = model.step_cw ** cw * model.step_ccw ** (length - cw) / length
    np.testing.assert_allclose(table["mass"], [pointed_mass(model, v) for v in loops],
                               rtol=1e-15, atol=0.0)
    return table


# ---------------------------------------------------------------------------
# trace power series (independent of any determinant identity)
# ---------------------------------------------------------------------------

def trace_series(Q: np.ndarray, k_from: int, k_to: int) -> float:
    """sum_{k=k_from..k_to} Tr(Q^k) / k by repeated multiplication."""
    power = np.linalg.matrix_power(Q, k_from)
    total = np.trace(power) / k_from
    for k in range(k_from + 1, k_to + 1):
        power = power @ Q
        total += np.trace(power) / k
    return float(total)


def geometric_tail_bound(size: int, rho: float, K: int) -> float:
    """Bound on sum_{k>K} Tr(Q^k)/k when the spectral radius is below rho."""
    return size * rho ** (K + 1) / ((K + 1) * (1.0 - rho))


def circle_jump_matrix(model: CircleModel, subset=None) -> np.ndarray:
    Q = model.jump_matrix()
    if subset is None:
        return Q
    idx = np.asarray(sorted(set(subset)), dtype=int) - 1
    return Q[np.ix_(idx, idx)]


def line_segment_matrix(lo: int, hi: int, step_weight: float) -> np.ndarray:
    """Symmetric nearest-neighbour one-step matrix on the integers lo..hi."""
    size = hi - lo + 1
    M = np.zeros((size, size))
    for i in range(size - 1):
        M[i, i + 1] = step_weight
        M[i + 1, i] = step_weight
    return M


def series_mass_inside(model: CircleModel, subset, K: int) -> float:
    """Trace-series mass of loops inside subset, lengths 2..K."""
    Q = circle_jump_matrix(model, subset)
    return trace_series(Q, 2, K)


def dense_mass_inside(model: CircleModel, subset) -> float:
    """Mass of loops inside subset from the dense LU log-determinant of the
    restricted generator; +inf when it is singular."""
    idx = np.asarray(sorted(set(subset)), dtype=int) - 1
    if idx.size <= 1:
        return 0.0
    sign, log_det = np.linalg.slogdet(-model.generator()[np.ix_(idx, idx)])
    if sign <= 0:
        return math.inf
    return idx.size * math.log1p(model.c) - log_det


def series_mass_through_vertex1(model: CircleModel, K: int) -> float:
    full = trace_series(circle_jump_matrix(model), 2, K)
    rest = trace_series(circle_jump_matrix(model, range(2, model.n + 1)), 2, K)
    return full - rest


def series_mass_liftable(model: CircleModel, K: int) -> float:
    """Trace-series mass of the liftable class via its unwrapped line walk.

    A zero-winding loop takes equally many steps each way, so its weight is
    (sqrt(p(1-p))/(1+c))^length, matching the symmetric line walk of the
    unwrapping; liftable mass = (line loops through 0 inside [1-n, n-1]).
    """
    n = model.n
    q = math.sqrt(model.p * (1.0 - model.p)) / (1.0 + model.c)
    full = trace_series(line_segment_matrix(1 - n, n - 1, q), 2, K)
    left = trace_series(line_segment_matrix(1 - n, -1, q), 2, K)
    right = trace_series(line_segment_matrix(1, n - 1, q), 2, K)
    return full - left - right


def series_mass_avoiding_edges(model: CircleModel, edges, K: int) -> float:
    Q = model.jump_matrix()
    for (u, v) in edges:
        Q[u - 1, v - 1] = 0.0
    return trace_series(Q, 2, K)


# ---------------------------------------------------------------------------
# the mass battery
# ---------------------------------------------------------------------------

# one closed-form mass law against one oracle: the worst gap over its cases,
# the bound that gap must stay below and whether it does
MassCheck = namedtuple("MassCheck", "law gap bound ok")


def _mass_check(law: str, closed, oracle, bound: float, relative: bool = False) -> MassCheck:
    """Worst |closed - oracle| over the cases; with relative, divided by
    max(|oracle|, 0.01), so gap < bound is pytest.approx(rel=bound,
    abs=bound / 100) with a strict inequality."""
    closed, oracle = np.asarray(closed, dtype=float), np.asarray(oracle, dtype=float)
    gaps = np.abs(closed - oracle)
    if relative:
        gaps /= np.maximum(np.abs(oracle), 1e-2)
    gap = float(gaps.max())
    return MassCheck(law, gap, bound, gap < bound)


@lru_cache(maxsize=None)
def mass_checks(model: CircleModel, max_len: int | None = None) -> dict[str, MassCheck]:
    """Every closed-form mass of `analytics` against its oracles, by law name.

    The cases: `mass_inside` on every vertex subset for n <= 5, otherwise on
    the full circle, {2..n}, the wrap-around arc {n, 1, 2} and the arc
    {4..n-2}; `mass_avoiding_edges` on every directed edge and every
    undirected edge.  Against the trace series to K = 140 (160 for n > 5),
    every law has bound 1e-10: "inside", "avoiding edges", "through 1",
    "liftable" and "winding or covering" (through 1 minus liftable).
    "inside vs dense" is relative 1e-12 against `dense_mass_inside`.  The
    closed forms' own identities have bound 1e-12: "decomposition", the mass
    inside {2..n} (the loops avoiding 1) + liftable + winding or covering =
    total, and "inclusion-exclusion", through 1 = total - mass inside {2..n}.

    With max_len, "inside", "avoiding edges", "through 1" and the three loop
    classes run against masked sums over `loop_table(model, max_len)`, with
    bound max(the series tail past max_len, 1e-12), the tail from
    `geometric_tail_bound` at rho = 1/(1+c); and "enumeration vs series to
    max_len" checks the enumeration against the series cut at the same
    length, to 1e-12.  Every check passes when its gap is below its bound.
    Cached: `test_mass_laws` and criterion 1 read the same run."""
    n = model.n
    full, rest = list(range(1, n + 1)), list(range(2, n + 1))
    if n <= 5:
        subsets = [[v for v in full if mask >> (v - 1) & 1] for mask in range(1 << n)]
    else:
        subsets = [full, rest, [n, 1, 2], list(range(4, n - 1))]
    edge_sets = ([[(u, u % n + 1)] for u in full] + [[(u % n + 1, u)] for u in full]
                 + [[(u, u % n + 1), (u % n + 1, u)] for u in full])
    K = 140 if n <= 5 else 160
    inside = [mass_inside(model, s) for s in subsets]
    avoiding = [mass_avoiding_edges(model, e) for e in edge_sets]
    through1, liftable = mass_through_vertex1(model), mass_liftable(model)
    winding = mass_winding_or_covering(model)
    total, no1 = mass_inside(model, full), mass_inside(model, rest)
    series_through1, series_liftable = (series_mass_through_vertex1(model, K),
                                        series_mass_liftable(model, K))
    checks = [
        _mass_check("inside vs series", inside,
                    [series_mass_inside(model, s, K) for s in subsets], 1e-10),
        _mass_check("inside vs dense", inside, [dense_mass_inside(model, s) for s in subsets],
                    1e-12, relative=True),
        _mass_check("avoiding edges vs series", avoiding,
                    [series_mass_avoiding_edges(model, e, K) for e in edge_sets], 1e-10),
        _mass_check("through 1 vs series", through1, series_through1, 1e-10),
        _mass_check("liftable vs series", liftable, series_liftable, 1e-10),
        _mass_check("winding or covering vs series", winding,
                    series_through1 - series_liftable, 1e-10),
        _mass_check("decomposition", no1 + liftable + winding, total, 1e-12),
        _mass_check("inclusion-exclusion", through1, total - no1, 1e-12),
    ]
    if max_len is not None:
        table = loop_table(model, max_len)

        def enum(keep) -> float:
            return float(table["mass"][keep].sum())

        enum_inside = [enum(table["vertices"] & ~sum(1 << (v - 1) for v in s) == 0)
                       for s in subsets]
        enum_avoiding = [enum(table["edges"] & sum(_edge_bit(u, v, n) for u, v in e) == 0)
                         for e in edge_sets]
        by_kind = {kind: enum(table["kind"] == kind.value) for kind in LoopType}
        bound = max(geometric_tail_bound(n, 1.0 / (1.0 + model.c), max_len), 1e-12)
        checks += [
            _mass_check("enumeration vs series to max_len", enum_inside + enum_avoiding,
                        [series_mass_inside(model, s, max_len) for s in subsets]
                        + [series_mass_avoiding_edges(model, e, max_len) for e in edge_sets],
                        1e-12),
            _mass_check("inside vs enumeration", inside, enum_inside, bound),
            _mass_check("avoiding edges vs enumeration", avoiding, enum_avoiding, bound),
            _mass_check("through 1 vs enumeration", through1, enum(table["vertices"] & 1 == 1),
                        bound),
            _mass_check("avoiding class vs enumeration", no1, by_kind[LoopType.AVOIDING], bound),
            _mass_check("liftable class vs enumeration", liftable, by_kind[LoopType.LIFTABLE],
                        bound),
            _mass_check("winding or covering class vs enumeration", winding,
                        by_kind[LoopType.WINDING] + by_kind[LoopType.NON_LIFTABLE], bound),
        ]
    return {check.law: check for check in checks}


# (kappa, alpha, lambda) of the transform checks, the last near the kappa -> 0
# limit, and (kappa, alpha, t) of the Levy-density checks
SUBORDINATOR_POINTS = [(1.0, 0.5, 2.0), (0.25, 0.3, 1.5), (1e-14, 0.5, 2.0)]
LEVY_DENSITY_POINTS = [(1.0, 0.5, 0.7), (0.25, 0.3, 1.1), (1e-14, 0.5, 0.8),
                       (1.0, 0.5, 0.8), (0.25, 0.3, 0.8)]


@lru_cache(maxsize=None)
def subordinator_checks() -> dict[str, MassCheck]:
    """Every closed form of `SubordinatorLaw` against quadrature or a
    difference quotient, by name, under absolute bounds.  At each point
    k-a-l of SUBORDINATOR_POINTS, "potential transform k-a-l": Phi(lambda)
    times the transform of u is 1, and "levy tail transform k-a-l": lambda
    times the transform of the Levy tail is Phi(lambda); at each k-a-t of
    LEVY_DENSITY_POINTS, "levy density k-a-t": the central difference of
    minus the tail is the Levy density (1e-8 each).  At kappa = 1,
    alpha = 0.3, level a = 0.5: "hitting normalization", the hitting density
    integrates to 1 (1e-6), and "hitting integral form", at x = 0.7, 0.9,
    1.1, 1.4 it equals the integral of u(x - z) against the Levy density over
    z in (x - a, x) (1e-8).  Cached: the unit tests and criterion 5 read the
    same run."""
    spec, checks = QuadratureSpec(tol=1e-12, limit=400), []
    for kappa, alpha, lam in SUBORDINATOR_POINTS:
        law = SubordinatorLaw(kappa=kappa, alpha=alpha)
        phi = law.laplace_exponent(lam)
        checks.append(_mass_check(f"potential transform {kappa}-{alpha}-{lam}", phi * integrate(
            lambda x: math.exp(-lam * x) * law.potential_density(x), 0.0, math.inf, spec)[0],
            1.0, 1e-8))
        checks.append(_mass_check(f"levy tail transform {kappa}-{alpha}-{lam}", lam * integrate(
            lambda x: math.exp(-lam * x) * law.levy_tail(x), 0.0, math.inf, spec)[0], phi, 1e-8))
    for kappa, alpha, t in LEVY_DENSITY_POINTS:
        law = SubordinatorLaw(kappa=kappa, alpha=alpha)
        checks.append(_mass_check(f"levy density {kappa}-{alpha}-{t}",
                                  -(law.levy_tail(t + 1e-5) - law.levy_tail(t - 1e-5)) / 2e-5,
                                  law.levy_density(t), 1e-8))
    law, a, xs = SubordinatorLaw(kappa=1.0, alpha=0.3), 0.5, (0.7, 0.9, 1.1, 1.4)
    norm = (integrate(lambda x: law.hitting_density(a, x), a, a + 2.0,
                      QuadratureSpec(tol=1e-10), points=[a])[0]
            + integrate(lambda x: law.hitting_density(a, x), a + 2.0, math.inf,
                        QuadratureSpec(tol=1e-12))[0])
    integral_form = [integrate(lambda z: law.potential_density(x - z) * law.levy_density(z),
                               x - a, x, QuadratureSpec(tol=1e-12), points=[x - a, x])[0]
                     for x in xs]
    checks += [_mass_check("hitting normalization", norm, 1.0, 1e-6),
               _mass_check("hitting integral form", integral_form,
                           [law.hitting_density(a, x) for x in xs], 1e-8)]
    return {check.law: check for check in checks}


# (kappa, alpha) of the extent-density normalization checks
EXTENT_DENSITY_POINTS = [(1.0, 0.5), (4.0, 0.3), (0.25, 0.7)]


@lru_cache(maxsize=None)
def limit_identity_checks() -> dict[str, MassCheck]:
    """Two identities of the limit laws, by name, under absolute bounds.  At
    each k-a of EXTENT_DENSITY_POINTS, "extent density normalization k-a":
    the integral of z times `cluster_extent_limit_density(k, a, z/2, z/2)`
    over (0, 1) is 1 (1e-6); "escape probability": `escape_probability(2)`
    is 6/pi^2 (1e-10).  Cached: the unit tests and criterion 8 read the same
    run."""
    spec = QuadratureSpec(tol=1e-10)
    checks = [_mass_check(f"extent density normalization {kappa}-{alpha}", integrate(
        lambda z: z * cluster_extent_limit_density(kappa, alpha, z / 2, z / 2), 0.0, 1.0,
        spec, points=[0.0, 1.0])[0], 1.0, 1e-6) for kappa, alpha in EXTENT_DENSITY_POINTS]
    checks.append(_mass_check("escape probability", escape_probability(2.0),
                              6.0 / math.pi ** 2, 1e-10))
    return {check.law: check for check in checks}


def return_probability(model: CircleModel, base0: int) -> float:
    """P[the killed walk from the base returns to it before leaving the arc].

    base0 = 0 means the full circle (return to vertex 1 with any winding);
    otherwise the walk lives on the arc {base0 .. n-1} (0-based).  Solved as
    a tridiagonal linear system for the hit-the-base-first probabilities.
    """
    n = model.n
    cw, ccw = model.step_cw, model.step_ccw
    if base0 == 0:
        size = n - 1  # unknowns at vertices 1..n-1 (0-based)
        rhs = np.zeros(size)
        rhs[0] = ccw   # from vertex 1, counter-clockwise into vertex 0
        rhs[-1] = cw   # from vertex n-1, clockwise into vertex 0
    else:
        size = n - 1 - base0  # unknowns at base0+1 .. n-1
        if size == 0:
            return 0.0
        rhs = np.zeros(size)
        rhs[0] = ccw
    ab = np.zeros((3, size))
    ab[1, :] = 1.0
    ab[0, 1:] = -cw    # superdiagonal of (I - Q)
    ab[2, :-1] = -ccw  # subdiagonal
    f = solve_banded((1, 1), ab, rhs)
    if base0 == 0:
        return cw * f[0] + ccw * f[-1]
    return cw * f[0]


# ---------------------------------------------------------------------------
# closed-edge configuration law by inclusion-exclusion
# ---------------------------------------------------------------------------

def edge_config_probabilities(model: CircleModel) -> np.ndarray:
    """Exact probability of every closed-edge set, indexed by its bit mask
    (bit e - 1 for the edge from e to e + 1).

    P[edges of T all closed] = exp(-alpha (total - mass avoiding T)); the
    probability of an exact set follows by Moebius inversion over supersets,
    taken one edge at a time.
    """
    n = model.n
    total = mass_avoiding_edges(model, [])
    probs = np.empty(1 << n)
    for mask in range(1 << n):
        edges = [(e, e % n + 1) for e in range(1, n + 1) if mask >> (e - 1) & 1]
        probs[mask] = math.exp(-model.alpha * (
            total - mass_avoiding_edges(model, edges + [(v, u) for u, v in edges])))
    for bit in range(n):
        for mask in range(1 << n):
            if not mask >> bit & 1:
                probs[mask] -= probs[mask | 1 << bit]
    return probs


def origin_extent_pmf_by_lift_mixture(model: CircleModel) -> np.ndarray:
    """`origin_extent_pmf` as the lift extents' pmf mixed over the first and
    last points of the avoiding-1 renewal path: the finite-n twin of the
    crossing-mixture identity.

    With N = n - 1, the avoiding-1 closed edges are the renewal path 0..N of
    `RenewalLaw.build(alpha, r, N)`.  A winding or covering loop opens every
    edge; else the closed edges are the path's points in [R, N - L], (L, R)
    the liftable loops' extents.  F(R, x) = sum_{i<R} C(i) w(x-i), x >= R,
    (F(0, x) = [x = 0]) weighs x as the first point at or after R, and by
    reflection F(L, l) weighs N - l as the last at or before N - L, so with
    q(L, R) the lift extents' pmf the law is
        P[no winding or covering] C(N - l - x) (F^T q F)[l, x] / C(N)
    for l + x <= N.  As sum_{i<x} C(i) w(x-i) = C(x), A F = S - S * w along
    rows, S = C times A's row cumsums: one FFT convolution per row.
    """
    N = model.n - 1
    law = RenewalLaw.build(model.alpha, model.r, N)
    size, k = next_fast_len(2 * N + 1, real=True), np.arange(N + 1)
    w = np.fft.rfft(law.w, size)

    def times_F(A):
        S = law.C * np.cumsum(A, axis=1)
        return S - np.fft.irfft(np.fft.rfft(S, size, axis=1) * w, size, axis=1)[:, :N + 1]

    q = np.diff(np.diff(covered_extent_cdf(model, k[:, None], k), axis=0, prepend=0.0),
                axis=1, prepend=0.0)
    rest = N - k[:, None] - k  # C[rest] wraps where rest < 0, and is zeroed there
    pmf = law.C[rest] * (rest >= 0) * times_F(times_F(q).T).T
    return pmf * (prob_no_winding_or_covering(model) / law.C[N])


# ---------------------------------------------------------------------------
# renewal jump law by the direct recursion
# ---------------------------------------------------------------------------

def renewal_jumps_by_recursion(C: np.ndarray) -> np.ndarray:
    """w(0..N) from C(0..N) by w(m) = C(m) - sum_{0<j<m} w(j) C(m-j), O(N^2).

    einsum keeps the N dot products off BLAS, whose threads spin on calls
    this small.
    """
    C = np.asarray(C, dtype=float)
    w = np.zeros(C.size)
    for m in range(1, C.size):
        w[m] = C[m] - np.einsum("i,i->", w[1:m], C[m - 1:0:-1])
    return w


# ---------------------------------------------------------------------------
# limit laws used only as references in the tests
# ---------------------------------------------------------------------------

def prob_split_given_no_cover_limit(kappa: float, alpha: float) -> float:
    """Limit of P[>= 2 clusters | no winding or circuit-sweeping loop].

    Equals (2 cosh sqrt(k))^alpha sinh(sqrt(k)(1-alpha)) / sinh sqrt(k).
    """
    if kappa <= 0.0:
        raise ValueError("limit formulas require kappa > 0")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    s = math.sqrt(kappa)
    return min(1.0, math.exp(alpha * (math.log(2.0) + log_cosh(s))
                             + log_sinh(s * (1.0 - alpha)) - log_sinh(s)))


def cluster_extent_limit_density_unnormalized(kappa: float, alpha: float,
                                              x: float, y: float) -> float:
    """Unnormalized extent density whose total mass is
    (2 cosh sqrt(k))^alpha sinh(sqrt(k)(1-alpha)) / sinh(sqrt(k))."""
    if x <= 0.0 or y <= 0.0 or x + y >= 1.0:
        return 0.0
    s = math.sqrt(kappa)
    z = x + y
    log_val = (math.log(math.sin(alpha * math.pi) / math.pi)
               + alpha * math.log(2.0) + math.log((1.0 - alpha) * kappa)
               + alpha * log_cosh(s)
               - alpha * log_sinh(s * (1.0 - z))
               - (2.0 - alpha) * log_sinh(s * z))
    return math.exp(log_val)


_DECIMAL = Context(prec=80, Emax=10 ** 8, Emin=-10 ** 8)
_DECIMAL_PI = Decimal("3.14159265358979323846264338327950288419716939937510"
                      "582097494459230781640628620899862803482534211706798")


def _decimal_series(z: Decimal, sign: int) -> Decimal:
    """sum_k sign^k z^(2k+1) / (2k+1)!, sin for sign -1 and sinh for +1, to
    the context's precision; the series for sinh cancels nothing."""
    total, term, k = z, z, 1
    while abs(term) > abs(total).scaleb(-getcontext().prec - 2):
        term *= sign * z * z / ((2 * k) * (2 * k + 1))
        total, k = total + term, k + 1
    return total


def decimal_limit_densities(kappa: float, alpha: float) -> dict:
    """The seven limit densities of the package in 80-digit decimal
    arithmetic, by name, each a function of its float arguments, written
    with q(y) = sinh(sqrt(k) y) / sqrt(k) (y at kappa = 0), whose powers of
    sqrt(k) cancel in every one.  sin and sinh below 1 come from their
    series, and differences such as x - a are taken exactly, so the values
    hold 70 or more digits for any arguments of a double."""
    with localcontext(_DECIMAL):
        s, al = Decimal(kappa).sqrt(), Decimal(alpha)
        p = _decimal_series(al * _DECIMAL_PI, -1) / _DECIMAL_PI
        cosh_s = (s.exp() + (-s).exp()) / 2

    def q(y):
        z = s * y
        if z == 0:
            return y
        return (_decimal_series(z, 1) if z < 1 else (z.exp() - (-z).exp()) / 2) / s

    def exact(fn):
        """fn over the Decimal values of its float arguments, as a float."""
        def run(*args):
            with localcontext(_DECIMAL):
                return float(fn(*map(Decimal, args)))
        return run

    one = Decimal(1)
    return {
        "potential_density": exact(lambda x: ((s * x).exp() / q(x)) ** al),
        "levy_density": exact(lambda t: (1 - al) * p * (2 * s * (al - 1) * t).exp()
                              * ((s * t).exp() / q(t)) ** (2 - al)),
        "levy_tail": exact(lambda t: p * ((s * t).exp() * q(t)) ** (al - 1)),
        "hitting_density": exact(lambda a, x: p * (al * s * x).exp()
                                 * (q(a) / q(x - a)) ** (1 - al) / q(x)),
        "bridge_crossing_joint_density": exact(
            lambda a, b, x, y: p * p * (q(one) / q(1 - x - y)) ** al / (q(x) * q(y))
            * (q(a) * q(b) / (q(x - a) * q(y - b))) ** (1 - al)),
        "covered_extent_limit_density": exact(
            lambda a, b: al * (al + 1) * (2 * cosh_s / q(one)) ** al
            * (q(a) * q(b)) ** al / q(a + b) ** (al + 2)),
        "cluster_extent_limit_density": exact(
            lambda x, y: p * (1 - al) * q(one) / q(1 - al)
            / (q(1 - x - y) ** al * q(x + y) ** (2 - al))),
    }


def simplex_cell_probs_nested(kappa: float, alpha: float, bins: int) -> np.ndarray:
    """The extent limit density integrated over each cell of a bins x bins grid.

    The density is f(x + y), so each cell is a 1-D integral of f(z) times the
    length of the anti-diagonal x + y = z inside the cell, taken cell by cell.
    """
    edges = np.linspace(0.0, 1.0, bins + 1)
    probs = np.zeros((bins, bins))
    for i in range(bins):
        for j in range(bins):
            a1, a2 = edges[i], edges[i + 1]
            b1, b2 = edges[j], edges[j + 1]
            z_lo, z_hi = a1 + b1, min(a2 + b2, 1.0)
            if z_hi <= z_lo:
                continue

            def integrand(z):
                width = min(a2, z - b1) - max(a1, z - b2)
                density = cluster_extent_limit_density(kappa, alpha, z / 2.0, z / 2.0)
                return density * max(width, 0.0)

            breaks = [t for t in (a1 + b2, a2 + b1) if z_lo < t < z_hi]
            probs[i, j], _ = integrate(integrand, z_lo, z_hi,
                                       QuadratureSpec(tol=1e-9, limit=300),
                                       points=breaks or None)
    return probs


# ---------------------------------------------------------------------------
# the limit battery
# ---------------------------------------------------------------------------

# one limit law, computed by the library's `law`: `gap(n)` is its finite-n
# closed form minus the limit on the row's cells; see `limit_checks`
LimitRow = namedtuple("LimitRow", "name law gap ladder order residual folds")
LimitCheck = namedtuple("LimitCheck", "law slope residual ok failed")
LADDER, ORDER_MARGIN = (400, 800, 1600, 3200, 6400), 0.1


def _cells(finite, limit, cells):
    """gap(n) = finite(n, *cell) - limit(*cell), one entry per cell."""
    return lambda n: np.array([finite(n, *cell) - limit(*cell) for cell in cells])


def _model(n: int, epsilon: float, alpha: float) -> CircleModel:
    """The runners' model at n for kappa = 1 (eps = 1/2 is the symmetric one)."""
    return asymmetric_schedule(1.0, epsilon, [n])[0].model(alpha)


@lru_cache(maxsize=None)
def _origin_pmf(n: int, alpha: float) -> np.ndarray:
    """`origin_extent_pmf` of the symmetric runners' model, cached per (n, alpha)."""
    return origin_extent_pmf(_model(n, 0.5, alpha))


def _split_extent_cdf(n: int, alpha: float, a: float, b: float) -> float:
    """P[origin_left <= a n, origin_right <= b n | a closed edge], at the
    lattice points (floor(an), floor(bn))."""
    pmf = _origin_pmf(n, alpha)
    return pmf[:int(a * n) + 1, :int(b * n) + 1].sum() / pmf.sum()


def overshoot_gaps(alpha: float, n: int) -> np.ndarray:
    """X, the first point above L = n/2 of the renewal set from 0 of
    RenewalLaw.build(alpha, 1/n, 6n), scaled by 1/n, against the first
    passage over 1/2 of `SubordinatorLaw(1, alpha)`, whose law has no atom:
    [KS distance, atom P[X = L+1], cdf gaps at x = 0.6, 0.75, 1, 1.5, 2.5].
    They fall as n^-min(alpha, 1-alpha), n^-alpha and n^-(1-alpha) in turn.
    P[X > y] = sum_{i <= L} C(i) P[jump > y - i] is one FFT convolution.  The
    KS distance takes every lattice point up to 6n from both sides, and the
    two laws' tails at 6n, which bound it beyond."""
    law = RenewalLaw.build(alpha, 1.0 / n, 6 * n)
    level, size = n // 2, next_fast_len(7 * n, real=True)
    tail = np.fft.irfft(np.fft.rfft(law.C[:level + 1], size)
                        * np.fft.rfft(1.0 - np.cumsum(law.w), size), size)
    cdf = 1.0 - tail[level + 1:6 * n + 1]
    limit = SubordinatorLaw(1.0, alpha).hitting_cdf_grid(0.5, np.arange(level + 1, 6 * n + 1) / n)
    ks = max(np.max(np.abs(cdf - limit)), np.max(np.abs(np.append(0.0, cdf[:-1]) - limit)),
             1.0 - cdf[-1], 1.0 - limit[-1])
    at = (np.array([0.6, 0.75, 1.0, 1.5, 2.5]) * n).astype(int) - level - 1
    return np.concatenate(([ks, cdf[0]], cdf[at] - limit[at]))


CROSSING_CELLS = [(0.2, 0.1, 0.35, 0.3), (0.3, 0.15, 0.5, 0.2), (0.1, 0.1, 0.3, 0.4)]


def crossing_gaps(alpha: float, n: int) -> np.ndarray:
    """The crossing pmf of the bridge's renewal law at resolution n, times
    n^2, against `bridge_crossing_joint_density` at kappa = 1, one entry per
    cell (a, b, x, y) of CROSSING_CELLS.

    F(R, x) = sum_{i<R} C(i) w(x-i) weighs x n as the path's first point at
    or past R = a n, and by reflection F(b n, y n) weighs n - y n as its last
    point at or before n - b n; the path between them has weight C(n - xn - yn),
    so the pmf is F(an, xn) F(bn, yn) C(n - xn - yn) / C(n)."""
    law = ConditionedBridgeLaw(SubordinatorLaw(1.0, alpha)).renewal_approximation(n)

    def F(R, x):
        return law.C[:R] @ law.w[x:x - R:-1]

    gaps = []
    for cell in CROSSING_CELLS:
        a, b, x, y = (round(v * n) for v in cell)
        pmf = F(a, x) * F(b, y) * law.C[n - x - y] / law.C[n]
        gaps.append(n * n * pmf - bridge_crossing_joint_density(1.0, alpha, *cell))
    return np.array(gaps)


LIMIT_BATTERY = [
    LimitRow("no winding", prob_no_winding_or_covering_limit, _cells(
        lambda n, eps: prob_no_winding_or_covering(_model(n, eps, 0.5)),
        lambda eps: prob_no_winding_or_covering_limit(1.0, eps, 0.5), [(0.5,), (0.25,)]),
        LADDER, 2.0, 2e-13, ((10_000, 1e-6),)),
    LimitRow("split", prob_split_given_no_avoiding_limit, _cells(
        lambda n, alpha: prob_split_given_no_avoiding(_model(n, 0.5, alpha)),
        lambda alpha: prob_split_given_no_avoiding_limit(1.0, 0.5, alpha),
        [(0.3,), (0.5,), (0.8,)]), LADDER, 1.0, 6e-9, ((1600, 2e-3),)),
    # here and below, the extents at the runners' lattice points (floor(an), floor(bn))
    LimitRow("through-1 extent", through1_extent_cdf_limit, _cells(
        lambda n, a, b: through1_extent_cdf(_model(n, 0.4, 0.5), int(a * n), int(b * n)),
        lambda a, b: through1_extent_cdf_limit(1.0, 0.4, 0.5, a, b), [(0.3, 0.4), (0.4, 0.4)]),
        LADDER, 1.0, 6e-8, tuple((n, 0.6 / n) for n in (200, 400, 2000))),
    LimitRow("covered extent", covered_extent_cdf_limit, _cells(
        lambda n, alpha, a, b: covered_extent_cdf(_model(n, 0.4, alpha), int(a * n), int(b * n)),
        lambda alpha, a, b: covered_extent_cdf_limit(1.0, alpha, a, b),
        [(alpha, *ab) for alpha in (0.3, 0.5, 0.8)
         for ab in ((0.1, 0.1), (0.3, 0.4), (0.2, 0.5), (0.7, 0.9))]), LADDER, 1.0, 6e-7, ()),
    LimitRow("potential density", SubordinatorLaw.potential_density, _cells(
        lambda n, alpha, t: n**alpha * hitting_coefficients(alpha, 1.0 / n, n)[int(t * n)],
        lambda alpha, t: SubordinatorLaw(1.0, alpha).potential_density(t),
        list(product((0.3, 0.5, 0.8), (0.1, 0.25, 0.5, 0.9)))), LADDER, 1.0, 5e-5, ()),
    LimitRow("overshoot, alpha = 0.5", SubordinatorLaw.hitting_cdf_grid,
             partial(overshoot_gaps, 0.5), (100, 1000, 10_000), 0.5, 5e-4, ((10_000, 0.02),)),
    LimitRow("overshoot, alpha = 0.3", SubordinatorLaw.hitting_cdf_grid,
             lambda n: overshoot_gaps(0.3, n)[:2], (100, 1000, 10_000), 0.3, 4e-4, ()),
    # the unconditioned law at order 1 - alpha: P[a closed edge], and the cdf of
    # the scaled origin extents given one at (1/4, 1/4) and (1/2, 1/4)
    *(row for alpha, split_bound, extent_bound in ((0.3, 1e-5, 3e-4), (0.5, 6e-5, 6e-5))
      for row in (
        LimitRow(f"unconditioned split, alpha = {alpha}", prob_not_single_partition_limit,
                 _cells(lambda n, alpha: _origin_pmf(n, alpha).sum(),
                        lambda alpha: prob_not_single_partition_limit(1.0, 0.5, alpha),
                        [(alpha,)]), (200, 400, 800, 1600), 1.0 - alpha, split_bound, ()),
        LimitRow(f"origin extent, alpha = {alpha}", cluster_extent_limit_density,
                 _cells(_split_extent_cdf, lambda alpha, a, b: _simplex_cell_probs(
                     1.0, alpha, 4)[:round(4 * a), :round(4 * b)].sum(),
                        [(alpha, 0.25, 0.25), (alpha, 0.5, 0.25)]),
                 (200, 400, 800, 1600), 1.0 - alpha, extent_bound, ()))),
    # the crossing law of the bridge's renewal law, also at order 1 - alpha;
    # below 6400 the residual is 4e-3, too loose to catch a 1% defect
    *(LimitRow(f"bridge crossing, alpha = {alpha}", bridge_crossing_joint_density,
               partial(crossing_gaps, alpha), (6400, 12800, 25600, 51200, 102400),
               1.0 - alpha, 4e-4, ()) for alpha in (0.3, 0.5)),
]


@lru_cache(maxsize=None)
def limit_checks(row: LimitRow) -> LimitCheck:
    """The row's gaps on its ladder, checked at every cell: "order", the slope
    log(gap(n') / gap(n)) / log(q) between the top two rungs n' < n = q n'
    within ORDER_MARGIN of the order p; "Richardson", the one-step
    extrapolation's residual (q^p gap(n) - gap(n')) / (q^p - 1) below the
    row's bound; "decreasing", |gap| falling at every rung; and at each
    (n, bound) of the folds, |gap(n)| < bound.  The slope reported is the one
    farthest from p, the residual the largest.  Cached: `test_limit_laws` and
    criterion 8 read the same run."""
    gaps = np.array([row.gap(n) for n in row.ladder])
    q = row.ladder[-1] / row.ladder[-2]
    slopes = np.log(np.abs(gaps[-2] / gaps[-1])) / math.log(q)
    slope = float(slopes[np.argmax(np.abs(slopes - row.order))])
    residual = float(np.max(np.abs(q**row.order * gaps[-1] - gaps[-2]) / (q**row.order - 1.0)))
    failed = [check for check, ok in [
        ("order", abs(slope - row.order) < ORDER_MARGIN), ("Richardson", residual < row.residual),
        ("decreasing", np.all(np.abs(gaps[1:]) < np.abs(gaps[:-1]))),
        *((f"gap at n = {n}", np.max(np.abs(row.gap(n))) < bound) for n, bound in row.folds)]
        if not ok]
    return LimitCheck(row.name, slope, residual, not failed, failed)


def report_digest(report: dict) -> str:
    """sha256 of the report.json bytes `experiments._write_outputs` writes."""
    return hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode()).hexdigest()


def ensemble_records_oracle(ensemble) -> list[dict]:
    """Per-replicate records built as dicts one replicate at a time, the
    reference for the columnar `experiments.replicate_lines`."""
    out = []
    if ensemble.closed_edges is not None:
        ends = np.cumsum(ensemble.closed_edge_count)
    for i in range(ensemble.replicates):
        through_defined = (ensemble.avoiding_count[i] == 0
                           and ensemble.closed_edge_count[i] >= 1)
        rec = {
            "replicate": i,
            "loops": int(ensemble.loop_count[i]),
            "clusters": max(int(ensemble.closed_edge_count[i]), 1),
            "closed_edges": int(ensemble.closed_edge_count[i]),
            "origin_left": int(ensemble.origin_left[i]),
            "origin_right": int(ensemble.origin_right[i]),
            "through_left": int(ensemble.origin_left[i]) if through_defined else None,
            "through_right": int(ensemble.origin_right[i]) if through_defined else None,
            "lift_left": int(ensemble.lift_left[i]),
            "lift_right": int(ensemble.lift_right[i]),
        }
        if ensemble.closed_edges is not None:
            edges = ensemble.closed_edges[ends[i] - ensemble.closed_edge_count[i]:ends[i]]
            rec["closed_left_endpoints"] = [int(e) + 1 for e in edges]
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# the exact-law battery
# ---------------------------------------------------------------------------

_KEEPS = {"unconditioned": lambda kind: True,
          "through-1-only": lambda kind: kind is not LoopType.AVOIDING,
          "avoiding-1-only": lambda kind: kind is LoopType.AVOIDING}


@lru_cache(maxsize=None)
def object_ensemble(model: CircleModel, seed: int, reps: int) -> dict[str, SoupEnsemble]:
    """`reps` loop-object soups drawn in turn off philox_rng(seed), reduced by
    `extract_clusters` to a `SoupEnsemble` per condition, and cached.  The
    conditioned ensembles keep the loops through vertex 1, or those avoiding
    it, of the same soups: by Poisson restriction, exact conditioned draws."""
    rng, stats = philox_rng(seed), {}
    rows = {condition: [] for condition in CONDITIONS}
    for _ in range(reps):
        loops = sample_soup(model, rng).loops
        kinds = [classify_loop(model, loop) for loop in loops]
        for condition, keep in _KEEPS.items():
            soup = tuple(loop for loop, kind in zip(loops, kinds) if keep(kind))
            if soup not in stats:  # most kept soups are empty or repeat
                stats[soup] = extract_clusters(model, SoupSample(loops=soup, seed=None))
            rows[condition].append(([kind for kind in kinds if keep(kind)], stats[soup]))
    out = {}
    for condition, pairs in rows.items():
        flat = np.array([e - 1 for _, st in pairs for e in st.closed_left_endpoints], np.int64)
        columns = np.array([(
            len(kept), kept.count(LoopType.AVOIDING),
            kept.count(LoopType.WINDING) + kept.count(LoopType.NON_LIFTABLE),
            len(st.closed_left_endpoints),
            -1 if st.origin_left is None else st.origin_left,
            -1 if st.origin_right is None else st.origin_right,
            st.lift_left, st.lift_right) for kept, st in pairs], dtype=np.int64)
        out[condition] = SoupEnsemble(model.to_dict(), condition, reps, seed, *columns.T,
                                      np.bincount(flat, minlength=model.n), flat)
    return out


def closed_edge_count_pmf(law: RenewalLaw, n: int) -> np.ndarray:
    """P[K = k], k = 0..n, K the number of renewal points from 0 to n-1 of
    `law` conditioned to hit n-1: P[K = j+1] = w^{*j}(n-1) / C(n-1), j jumps
    of w landing on n-1.  Under avoiding-1-only, K is the closed-edge count."""
    pmf, power = np.zeros(n + 1), np.eye(1, n)[0]  # power = w^{*0}, a unit mass at 0
    for j in range(1, n):
        power = np.convolve(power, law.w)[:n]
        pmf[j + 1] = power[n - 1] / law.C[n - 1]
    return pmf


def _laws(ens: SoupEnsemble, model: CircleModel, through1_grid):
    n, alpha, reps = model.n, model.alpha, ens.replicates
    if ens.condition == "unconditioned":
        if n <= 7:
            owner = np.repeat(np.arange(reps), ens.closed_edge_count)
            masks = np.bincount(owner, weights=1 << ens.closed_edges, minlength=reps)
            yield cell_check("configuration", np.bincount(masks.astype(int), minlength=1 << n),
                             edge_config_probabilities(model), reps, pool=True)
        total = mass_inside(model, range(1, n + 1))
        yield cell_check("edge closure", ens.closed_edge_totals, [math.exp(-alpha * (
            total - mass_avoiding_edges(model, [(e, e % n + 1), (e % n + 1, e)])))
            for e in range(1, n + 1)], reps)
        lam, count = alpha * total, ens.loop_count
        z = np.array([(count.mean() - lam) / math.sqrt(lam / reps),
                      (count.var() - lam) / math.sqrt((lam + 2.0 * lam * lam) / reps)])
        yield z_check("loop count", z)
        through1 = ens.loop_count - ens.avoiding_count
        yield cell_check("no loop through 1", [np.sum(through1 == 0)],
                         [math.exp(-alpha * mass_through_vertex1(model))], reps)
        yield cell_check("no liftable loop", [np.sum(through1 == ens.winding_or_cover_count)],
                         [math.exp(-alpha * mass_liftable(model))], reps)
        pmf, split = origin_extent_pmf(model), ens.closed_edge_count >= 1
        yield cell_check("split", [np.sum(split)], [pmf.sum()], reps)
        cells = np.where(split, ens.origin_left * n + ens.origin_right, n * n)
        yield cell_check("origin extents", np.bincount(cells, minlength=n * n + 1),
                         np.append(pmf.ravel(), 1.0 - pmf.sum()), reps, pool=True)
    if ens.condition != "avoiding-1-only":
        yield cell_check("no winding loop", [np.sum(ens.winding_or_cover_count == 0)],
                         [prob_no_winding_or_covering(model)], reps)
    if ens.condition == "through-1-only":
        inner, outer = (np.unique(np.linspace(0, top, 5).astype(int)) for top in (n - 2, n - 1))
        grid = through1_grid or [(m, M) for m, M in product(inner, inner) if m + M <= n - 2]
        split = ens.closed_edge_count >= 1
        yield cell_check("through-1 extent", [
            np.sum(split & (ens.origin_left <= m) & (ens.origin_right <= M)) for m, M in grid],
            [through1_extent_cdf(model, m, M) for m, M in grid], reps)
        grid = list(product(outer, outer))
        yield cell_check("covered extent", [
            np.sum((ens.lift_left <= m) & (ens.lift_right <= M)) for m, M in grid],
            covered_extent_cdf(model, *np.array(grid).T), reps)
    if ens.condition == "avoiding-1-only":
        law = RenewalLaw.build(alpha, model.r, n - 1)
        yield cell_check("one-point", ens.closed_edge_totals, law.C * law.C[::-1] / law.C[-1],
                         reps)
        starts = np.cumsum(ens.closed_edge_count) - ens.closed_edge_count
        jumps = np.bincount(ens.closed_edges[starts + 1], minlength=n)
        yield cell_check("first jump", np.cumsum(jumps[1:n - 1]),
                         np.cumsum(law.conditioned_jump_pmf(0, n - 1))[:-1], reps)
        yield cell_check("closed-edge count", np.bincount(ens.closed_edge_count, minlength=n + 1),
                         closed_edge_count_pmf(law, n), reps, pool=True)


def exact_law_checks(ensemble: SoupEnsemble, model: CircleModel,
                     through1_grid=None) -> dict[str, LawCheck]:
    """Every exact law defined at the ensemble's condition and n, checked
    against it, by name.  The ensemble must hold its closed edges.

    Unconditioned: "configuration" (n <= 7), the closed-edge set, one cell
    per set, against `edge_config_probabilities`; "edge closure", edge e
    closed with probability exp(-alpha (total mass - mass avoiding e));
    "loop count", Poisson of mean lam = alpha * total mass, by the sample
    mean (variance lam / R) and variance (variance (lam + 2 lam^2) / R);
    "no loop through 1" and "no liftable loop", exp(-alpha * their mass);
    "split", a closed edge, with probability the total of
    `origin_extent_pmf`, and "origin extents", one cell per pair
    (origin_left, origin_right) and one for no closed edge, against it.
    Unconditioned or through-1-only: "no winding loop",
    `prob_no_winding_or_covering`.  Through-1-only: "through-1 extent",
    `through1_extent_cdf` on `through1_grid` (by default five points from 0
    to n-2 each way, m + M <= n-2); "covered extent", `covered_extent_cdf` of
    the liftable loops' lifts on five points from 0 to n-1 each way.
    Avoiding-1-only, where the closed edges are the renewal points from 0 to
    n-1: "one-point", edge k closed with probability C(k) C(n-1-k) / C(n-1);
    "first jump", the cdf of the first closed edge after 0 against
    `RenewalLaw.conditioned_jump_pmf(0, n-1)`; "closed-edge count",
    P[K = j+1] = w^{*j}(n-1) / C(n-1), j jumps of w landing on n-1.

    Each law passes when its Bonferroni p-value (`cell_check`) is at least
    1e-3, so it raises a false alarm at most 1e-3 of the time; the loop
    count's p-values are normal tails."""
    return {check.law: check for check in _laws(ensemble, model, through1_grid)}


def conditioned_path_checks(law: RenewalLaw, level: int, paths, states) -> dict[str, LawCheck]:
    """Exact laws of renewal paths conditioned to hit N = `level` > 12, each
    path an increasing integer array from 0 to N, checked against them, by
    name.  A path's probability prod w(gaps) / C(N) does not change when its
    gaps are reversed, so time reversal shows in every law:

    "first jump" and "last jump", each against w(j) C(N-j) / C(N), and
    "second jump", the jump after a unit first jump, against
    w(j) C(N-1-j) / C(N-1), each by a chi-square over the single cells
    j = 1..12 and 8 cells of about equal mass over the rest (z is the worst
    Pearson residual); "visits", the share of paths visiting s and N-s for
    every s in `states`, against C(s) C(N-s) / C(N), by exact binomial
    tails; "point count", the mean number of points against
    sum_s C(s) C(N-s) / C(N), s = 0..N, by a z-test with the sample variance.

    The 1e-3 is split by Bonferroni over all tests, one per distinct state
    among s and N-s and four more, so the whole battery raises a false alarm
    at most 1e-3 of the time; with 24 states each test needs p >= 3.6e-5,
    about |z| < 4.1."""
    reps = len(paths)
    at = np.unique(np.append(states, level - np.asarray(states)))
    tests = at.size + 4
    one_point = law.C[:level + 1] * law.C[level::-1] / law.C[level]

    def jump_check(law_name, jumps, pmf):
        tail = np.cumsum(pmf[12:])
        starts = np.unique(np.append(np.arange(13), 13 + tail.searchsorted(
            tail[-1] * np.arange(1, 8) / 8.0)))
        starts = starts[starts < pmf.size]
        exp = len(jumps) * np.add.reduceat(pmf, starts)
        obs = np.add.reduceat(np.bincount(jumps, minlength=pmf.size + 1)[1:], starts)
        return _bonferroni(law_name, (obs - exp) / np.sqrt(exp),
                           [chi_square_pvalue(obs, exp)[1]], tests)

    pmf = law.conditioned_jump_pmf(0, level)
    checks = [jump_check("first jump", [path[1] for path in paths], pmf),
              jump_check("second jump", [path[2] - 1 for path in paths if path[1] == 1],
                         law.conditioned_jump_pmf(1, level)),
              jump_check("last jump", [level - path[-2] for path in paths], pmf),
              cell_check("visits", np.bincount(np.concatenate(paths), minlength=level + 1)[at],
                         one_point[at], reps, tests=tests)]
    sizes = np.array([path.size for path in paths])
    checks.append(z_check("point count", (sizes.mean() - one_point.sum())
                          / math.sqrt(sizes.var(ddof=1) / reps), tests))
    return {check.law: check for check in checks}


@lru_cache(maxsize=None)
def conditioned_draw() -> tuple[list, dict[str, LawCheck]]:
    """One draw of 1e5 paths conditioned to hit 100, from
    RenewalLaw.build(0.5, 0.02, 100) off default_rng(404), with its
    `conditioned_path_checks` at the states 1, 2, 3, 5, 10, 20, 30, 40 (and
    100 minus each); cached, so that criterion 4 and the sampler's jump-law
    tests read one draw."""
    law = RenewalLaw.build(0.5, 0.02, 100)
    paths = sample_conditioned_renewals(law, 100, 100_000, np.random.default_rng(404))
    return paths, conditioned_path_checks(law, 100, paths, (1, 2, 3, 5, 10, 20, 30, 40))
