import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopsoup.analytics import (
    DetSpec,
    circulant_det,
    cluster_extent_limit_density,
    covered_extent_cdf,
    covered_extent_cdf_limit,
    covered_extent_limit_density,
    mass_avoiding_edges,
    mass_inside,
    mass_liftable,
    mass_liftable_inside,
    mass_through_vertex1,
    mass_winding_or_covering,
    prob_no_winding_or_covering,
    prob_no_winding_or_covering_limit,
    prob_not_single_partition_limit,
    prob_split_given_no_avoiding,
    prob_split_given_no_avoiding_limit,
    through1_extent_cdf,
    through1_extent_cdf_limit,
    toeplitz_det,
)
from loopsoup.circle import LoopType, build_model, derived_killing, equivalent_symmetric_model
from loopsoup.numerics import QuadratureSpec, integrate, polylog
from loopsoup.scaling import (
    SubordinatorLaw,
    bridge_crossing_joint_density,
    escape_probability,
    halfline_gap_pgf,
    hitting_coefficients,
)

import oracles


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def test_toeplitz_known_values():
    assert toeplitz_det(DetSpec(3, 1, 1, 1)) == pytest.approx(3.0)
    assert toeplitz_det(DetSpec(3, 1, 1, 2)) == pytest.approx(8.0)
    # coincident-root branch: det [[2,1,0],[1,2,1],[0,1,2]] = 4
    spec = DetSpec(2, 1, 1, 3)
    assert spec.degenerate
    assert toeplitz_det(spec) == pytest.approx(4.0)


def test_circulant_known_values():
    assert circulant_det(DetSpec(2, 1, 1, 3)) == pytest.approx(4.0)
    x1 = (3 + math.sqrt(5)) / 2
    x2 = (3 - math.sqrt(5)) / 2
    assert circulant_det(DetSpec(3, 1, 1, 3)) == pytest.approx(x1 ** 3 + x2 ** 3 + 2.0)
    with pytest.raises(ValueError):
        circulant_det(DetSpec(3, 1, 1, 2))


def _dense_toeplitz(a, b, c, n):
    M = np.zeros((n, n))
    for i in range(n):
        M[i, i] = a
        if i + 1 < n:
            M[i, i + 1] = b
            M[i + 1, i] = c
    return M


def _dense_circulant(a, b, c, n):
    M = _dense_toeplitz(a, b, c, n)
    M[0, n - 1] = c
    M[n - 1, 0] = b
    return M


def test_determinants_match_dense_lu():
    rng = np.random.default_rng(11)
    for n in range(3, 9):
        for _ in range(20):
            a, b, c = rng.uniform(-2.0, 2.0, size=3)
            spec = DetSpec(a, b, c, n)
            lu_t = np.linalg.det(_dense_toeplitz(a, b, c, n))
            lu_c = np.linalg.det(_dense_circulant(a, b, c, n))
            scale_t = max(abs(lu_t), 1e-6)
            scale_c = max(abs(lu_c), 1e-6)
            assert abs(toeplitz_det(spec) - lu_t) / scale_t < 1e-10
            assert abs(circulant_det(spec) - lu_c) / scale_c < 1e-10


# ---------------------------------------------------------------------------
# masses vs the enumeration + trace-series oracle
# ---------------------------------------------------------------------------

MODEL = build_model(4, 0.5, 0.5, 1.0)
K_SERIES = 140  # tail below 1e-12: 4 * (2/3)^141 / (141 * 1/3) ~ 2e-27


def test_mass_inside_trivial_cases():
    assert mass_inside(MODEL, []) == 0.0
    assert mass_inside(MODEL, [3]) == 0.0
    full = mass_inside(MODEL, [1, 2, 3, 4])
    for subset in ([1, 2], [2, 3, 4], [1, 4]):
        assert mass_inside(MODEL, subset) < full


def test_mass_inside_matches_enumeration():
    for subset in ([2, 3], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4], [1, 3], [1, 2, 4]):
        enum = oracles.enum_mass_inside(MODEL, subset, 14)
        series = oracles.series_mass_inside(MODEL, subset, K_SERIES)
        short = oracles.series_mass_inside(MODEL, subset, 14)
        assert short == pytest.approx(enum, abs=1e-12)  # enumeration == trace series
        assert mass_inside(MODEL, subset) == pytest.approx(series, abs=1e-10)


def test_mass_inside_series_matches_closed_form_on_arcs():
    model = build_model(9, 0.62, 0.6, 1.0)
    for subset in ([4, 5, 6, 7], [9, 1, 2], list(range(1, 10))):
        series = oracles.series_mass_inside(model, subset, 160)
        assert mass_inside(model, subset) == pytest.approx(series, abs=1e-10)


@settings(deadline=None, max_examples=300)
@given(n=st.integers(3, 40), p=st.one_of(st.just(0.5), st.floats(0.05, 0.95)),
       c=st.one_of(st.just(0.0), st.floats(1e-6, 2.0)),
       keep=st.lists(st.booleans(), min_size=40, max_size=40))
@example(n=9, p=0.5, c=0.0, keep=[True, True, False, True, False, False, True, True, True] + [False] * 31)
@example(n=12, p=0.8, c=0.0, keep=[True, False] * 5 + [True, True] + [False] * 28)
def test_mass_inside_arc_sum_matches_dense_determinant(n, p, c, keep):
    """Any proper subset: the sum of its cyclic-run arc masses equals the
    dense LU log-determinant mass, wrap-around runs and c = 0 included."""
    subset = [v for v in range(1, n + 1) if keep[v - 1]]
    assume(len(subset) < n)
    model = build_model(n, p, c, 1.0)
    assert mass_inside(model, subset) == pytest.approx(
        oracles.dense_mass_inside(model, subset), rel=1e-12, abs=1e-14)


def test_mass_avoiding_edges_matches_enumeration():
    edges = [(1, 2), (2, 1)]
    enum = oracles.enum_mass_avoiding_edges(MODEL, edges, 14)
    short = oracles.series_mass_avoiding_edges(MODEL, edges, 14)
    series = oracles.series_mass_avoiding_edges(MODEL, edges, K_SERIES)
    assert short == pytest.approx(enum, abs=1e-12)
    assert mass_avoiding_edges(MODEL, edges) == pytest.approx(series, abs=1e-10)


def test_mass_avoiding_edges_limits():
    assert mass_avoiding_edges(MODEL, []) == pytest.approx(
        mass_inside(MODEL, [1, 2, 3, 4]), rel=1e-12)
    all_edges = [(u, u % 4 + 1) for u in range(1, 5)] + [(u % 4 + 1, u) for u in range(1, 5)]
    assert mass_avoiding_edges(MODEL, all_edges) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        mass_avoiding_edges(MODEL, [(1, 3)])


def test_mass_avoiding_single_orientation():
    # removing one orientation only: still positive, between the two extremes
    one = mass_avoiding_edges(MODEL, [(1, 2)])
    both = mass_avoiding_edges(MODEL, [(1, 2), (2, 1)])
    total = mass_inside(MODEL, [1, 2, 3, 4])
    assert both < one < total
    series = oracles.series_mass_avoiding_edges(MODEL, [(1, 2)], K_SERIES)
    assert one == pytest.approx(series, abs=1e-10)


def test_mass_through_vertex1_identities():
    # inclusion-exclusion against mass_inside
    diff = mass_inside(MODEL, [1, 2, 3, 4]) - mass_inside(MODEL, [2, 3, 4])
    assert mass_through_vertex1(MODEL) == pytest.approx(diff, abs=1e-12)
    series = oracles.series_mass_through_vertex1(MODEL, K_SERIES)
    assert mass_through_vertex1(MODEL) == pytest.approx(series, abs=1e-10)


def test_mass_through_vertex1_asymmetric():
    model = build_model(6, 0.58, 0.45, 1.0)
    diff = mass_inside(model, range(1, 7)) - mass_inside(model, range(2, 7))
    assert mass_through_vertex1(model) == pytest.approx(diff, abs=1e-12)


def test_mass_liftable_matches_series():
    series = oracles.series_mass_liftable(MODEL, K_SERIES)
    assert mass_liftable(MODEL) == pytest.approx(series, abs=1e-10)


def test_type_mass_decomposition():
    """Masses of the four loop classes add to the total, and each matches its
    closed form (enumeration to length 14, trace-series continuation)."""
    by_type = oracles.enum_mass_by_type(MODEL, 14)
    total_enum = sum(by_type.values())
    assert total_enum == pytest.approx(oracles.series_mass_inside(MODEL, range(1, 5), 14),
                                       abs=1e-12)
    avoiding = mass_inside(MODEL, [2, 3, 4])
    liftable = mass_liftable(MODEL)
    windcover = mass_winding_or_covering(MODEL)
    total = mass_inside(MODEL, [1, 2, 3, 4])
    # closed-form decomposition is exact
    assert avoiding + liftable + windcover == pytest.approx(total, abs=1e-12)
    # each category agrees with enumeration up to the documented truncation tail
    tail = oracles.geometric_tail_bound(4, 1.0 / 1.5, 14)
    assert abs(by_type[LoopType.AVOIDING] - avoiding) <= tail
    assert abs(by_type[LoopType.LIFTABLE] - liftable) <= tail
    assert abs(by_type[LoopType.WINDING] + by_type[LoopType.NON_LIFTABLE]
               - windcover) <= tail


def test_doob_invariance_on_arcs():
    """Replacing (p, c) by the symmetric parameters with the same kappa leaves
    every arc mass unchanged."""
    model = build_model(8, 0.63, 0.2, 1.0)
    sym = equivalent_symmetric_model(model)
    for size in range(2, 8):
        for start in (1, 3, 6):
            arc = [(start + i - 1) % 8 + 1 for i in range(size)]
            assert mass_inside(model, arc) == pytest.approx(
                mass_inside(sym, arc), rel=1e-12)


def test_kappa_zero_masses_are_infinite():
    m0 = build_model(8, 0.5, 0.0, 1.0)
    assert mass_inside(m0, range(1, 9)) == math.inf
    assert mass_through_vertex1(m0) == math.inf
    # arcs stay finite at kappa = 0
    assert math.isfinite(mass_inside(m0, [1, 2, 3]))
    assert mass_inside(m0, [1, 2, 3]) == pytest.approx(
        oracles.series_mass_inside(m0, [1, 2, 3], 600), abs=1e-8)


def test_circle_masses_are_infinite_at_c_zero_with_drift():
    """At c = 0 the constants are harmonic on the circle for any drift, so the
    total and through-1 masses are infinite, although kappa > 0 and r equals
    the half log-drift only up to rounding."""
    for p in np.linspace(0.01, 0.99, 99):
        model = build_model(10, float(p), 0.0, 1.0)
        assert mass_inside(model, range(1, 11)) == math.inf
        assert mass_through_vertex1(model) == math.inf
        assert prob_no_winding_or_covering(model) == 0.0
        assert math.isfinite(mass_inside(model, range(2, 11)))


# ---------------------------------------------------------------------------
# probability formulas
# ---------------------------------------------------------------------------

def test_prob_no_winding_identities():
    model = build_model(6, 0.55, 0.4, 0.8)
    direct = prob_no_winding_or_covering(model)
    assert direct == pytest.approx(
        math.exp(-model.alpha * mass_winding_or_covering(model)), rel=1e-12)
    assert 0.0 < direct < 1.0
    # p = 1/2 kills the drift term
    sym = build_model(6, 0.5, 0.4, 0.8)
    expect = (math.cosh(6 * sym.r) / (math.cosh(6 * sym.r) - 1.0)) ** -sym.alpha
    assert prob_no_winding_or_covering(sym) == pytest.approx(expect, rel=1e-12)


def test_prob_no_winding_limit_edge_cases():
    kappa, alpha = 1.3, 0.6
    val = prob_no_winding_or_covering_limit(kappa, kappa / 2.0, alpha)
    s = math.sqrt(kappa)
    assert val == pytest.approx(((math.cosh(s) - 1.0) / math.cosh(s)) ** alpha, rel=1e-12)
    with pytest.raises(ValueError):
        prob_no_winding_or_covering_limit(kappa, 0.8 * kappa, alpha)


@pytest.mark.parametrize("schedule", ["symmetric", "asymmetric"])
def test_prob_no_winding_finite_n_converges(schedule):
    kappa, alpha = 1.0, 0.5
    epsilon = kappa / 2.0 if schedule == "symmetric" else 0.25
    limit = prob_no_winding_or_covering_limit(kappa, epsilon, alpha)
    gaps = []
    for n in (100, 1000, 10_000):
        if schedule == "symmetric":
            p, c = 0.5, kappa / (2.0 * n * n)
        else:
            p, c = 0.5 - math.sqrt(kappa - 2 * epsilon) / (2.0 * n), epsilon / (n * n)
        model = build_model(n, p, c, alpha)
        gaps.append(abs(prob_no_winding_or_covering(model) - limit))
    assert gaps[2] < gaps[0]
    assert gaps[2] < 1e-6


def test_mass_liftable_keeps_its_digits_at_large_r():
    """log coth r - log coth(nr) at r = 4.13, where a difference of log cosh
    and log sinh, two numbers near r, lost 2e-11 relative."""
    model = build_model(60, 0.5, 30.0, 1.0)
    with localcontext() as ctx:
        ctx.prec = 40
        r = Decimal(model.r)

        def log_coth(z):
            return ((2 * z).exp() + 1).ln() - ((2 * z).exp() - 1).ln()

        exact = float(log_coth(r) - log_coth(60 * r))
    assert mass_liftable(model) == pytest.approx(exact, rel=1e-15, abs=0.0)
    # the lift form carries about 1e-13 of its own here, from the log of
    # -expm1(-2r) near 1
    assert mass_liftable(model) == pytest.approx(
        float(mass_liftable_inside(model, 59, 59)), rel=2e-13, abs=0.0)


def test_covered_extent_cdf_boundary():
    model = build_model(12, 0.5, 0.3, 0.7)
    # the swept interval always fits inside [-(n-1), n-1]
    assert covered_extent_cdf(model, 11, 11) == pytest.approx(1.0, rel=1e-12)
    # m = M = 0 event is exactly "no liftable loop"
    assert covered_extent_cdf(model, 0, 0) == pytest.approx(
        math.exp(-model.alpha * mass_liftable(model)), rel=1e-12)


def test_through1_extent_cdf_properties():
    model = build_model(10, 0.5, 0.25, 0.6)
    values = [[through1_extent_cdf(model, m, M) for M in range(0, 5)]
              for m in range(0, 5)]
    for row in values:
        assert all(0.0 <= v <= 1.0 for v in row)
        assert all(b >= a - 1e-15 for a, b in zip(row, row[1:]))  # monotone in M
    for col in zip(*values):
        assert all(b >= a - 1e-15 for a, b in zip(col, col[1:]))  # monotone in m
    with pytest.raises(ValueError):
        through1_extent_cdf(model, 5, 4)  # m + M > n - 2


@settings(deadline=None, max_examples=60)
@given(n=st.integers(3, 500), p=st.floats(0.05, 0.95), c=st.floats(1e-6, 2.0),
       alpha=st.floats(0.05, 2.0))
def test_extent_cdfs_are_monotone_probabilities(n, p, c, alpha):
    model = build_model(n, p, c, alpha)
    grid = np.unique(np.linspace(0, n - 1, 9).astype(int))
    cov = np.array([[covered_extent_cdf(model, m, M) for M in grid] for m in grid])
    assert np.all((cov >= 0.0) & (cov <= 1.0))
    # nondecreasing up to a few ulps of rounding where the cdf saturates
    assert np.all(np.diff(cov, axis=0) >= -1e-15) and np.all(np.diff(cov, axis=1) >= -1e-15)
    assert covered_extent_cdf(model, n - 1, n - 1) == pytest.approx(1.0, rel=1e-12)
    for m in grid:
        for M in grid[grid <= n - 2 - m]:
            assert 0.0 <= through1_extent_cdf(model, int(m), int(M)) <= 1.0


def _assert_probabilities(formulas):
    """Each formula gives a value in [0, 1] or raises ValueError, nothing else."""
    for name, formula in formulas:
        try:
            value = formula()
        except ValueError:
            continue
        assert 0.0 <= value <= 1.0, (name, value)


@settings(deadline=None, max_examples=60)
@given(n=st.integers(3, 300), p=st.floats(0.01, 0.99), c=st.floats(0.0, 10.0),
       alpha=st.floats(0.0, 3.0), u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_finite_n_probabilities_lie_in_unit_interval(n, p, c, alpha, u, v):
    model = build_model(n, p, c, alpha)
    m = int(u * (n - 2))
    big_m = int(v * (n - 2 - m))
    _assert_probabilities([
        ("prob_no_winding_or_covering", lambda: prob_no_winding_or_covering(model)),
        ("through1_extent_cdf", lambda: through1_extent_cdf(model, m, big_m)),
        ("prob_split_given_no_avoiding", lambda: prob_split_given_no_avoiding(model)),
    ])


@settings(deadline=None, max_examples=200)
@given(log_kappa=st.floats(-4.0, 7.0), eps_frac=st.floats(0.0, 0.5),
       alpha=st.floats(0.01, 3.0), a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
# kappa = 1e7 and 1e5 came out above 1; kappa >= 1e6 overflowed math.sinh;
# alpha = 0.01 at kappa = 3.8e4 failed to converge
@example(log_kappa=7.0, eps_frac=0.1, alpha=0.5, a=0.3, b=0.4)
@example(log_kappa=5.0, eps_frac=0.25, alpha=0.5, a=0.3, b=0.4)
@example(log_kappa=6.0, eps_frac=0.25, alpha=0.5, a=0.3, b=0.4)
@example(log_kappa=4.5773, eps_frac=0.25, alpha=0.01, a=0.3, b=0.4)
# a * sqrt(kappa) underflowed to 0 and the extent cdf came out nan
@example(log_kappa=-2.0, eps_frac=0.0, alpha=1.0, a=5e-324, b=5e-324)
def test_limit_probabilities_lie_in_unit_interval(log_kappa, eps_frac, alpha, a, b):
    kappa = 10.0 ** log_kappa
    epsilon = eps_frac * kappa
    b = min(b, 1.0 - a)
    _assert_probabilities([
        ("prob_no_winding_or_covering_limit",
         lambda: prob_no_winding_or_covering_limit(kappa, epsilon, alpha)),
        ("prob_not_single_partition_limit",
         lambda: prob_not_single_partition_limit(kappa, epsilon, alpha)),
        ("through1_extent_cdf_limit",
         lambda: through1_extent_cdf_limit(kappa, epsilon, alpha, a, b)),
        ("covered_extent_cdf_limit", lambda: covered_extent_cdf_limit(kappa, alpha, a, b)),
        ("prob_split_given_no_avoiding_limit",
         lambda: prob_split_given_no_avoiding_limit(kappa, epsilon, alpha)),
        ("prob_split_given_no_cover_limit",
         lambda: oracles.prob_split_given_no_cover_limit(kappa, alpha)),
    ])


@settings(deadline=None, max_examples=200)
@given(log_kappa=st.floats(-4.0, 7.0), alpha=st.floats(0.01, 0.99),
       a=st.floats(0.0, 1.0), b=st.floats(0.0, 1.0))
# a * sqrt(kappa) underflowed to 0 and the density came out nan
@example(log_kappa=-2.0, alpha=0.99, a=5e-324, b=5e-324)
# log sinh(1e-300) raised the density past the float range: OverflowError
@example(log_kappa=0.0, alpha=0.5, a=1e-300, b=1e-300)
def test_extent_limit_densities_are_never_nan(log_kappa, alpha, a, b):
    """Both extent densities are nonnegative numbers, +inf where tiny extents
    take them past the float range, and never nan or an exception."""
    kappa = 10.0 ** log_kappa
    for value in (covered_extent_limit_density(kappa, alpha, a, b),
                  cluster_extent_limit_density(kappa, alpha, a, min(b, 1.0 - a))):
        assert value >= 0.0


def test_extent_limit_densities_at_subnormal_extents():
    # the density diverges like eps^(alpha-2) as a = b = eps -> 0
    assert covered_extent_limit_density(0.01, 1.0, 5e-324, 5e-324) == math.inf
    assert covered_extent_limit_density(1.0, 0.5, 1e-300, 1e-300) == math.inf
    assert cluster_extent_limit_density(1.0, 0.5, 1e-300, 1e-300) == math.inf


def test_through1_extent_cdf_zero_extents():
    # m = M = 0: the loops through 1 stay put, i.e. only the (1,2)... no loop
    # survives except ones covering vertex 1 alone -- the formula reduces to
    # the sinh(r)^2 / sinh(2r) expression
    model = build_model(9, 0.5, 0.35, 0.8)
    r, a = model.r, model.alpha
    expect = (prob_no_winding_or_covering(model)
              * (2 * math.cosh(9 * r) / math.sinh(9 * r)
                 * math.sinh(r) ** 2 / math.sinh(2 * r)) ** a)
    assert through1_extent_cdf(model, 0, 0) == pytest.approx(expect, rel=1e-12)


def test_through1_extent_limit_consistency():
    kappa, epsilon, alpha = 1.0, 0.4, 0.5
    # finite-n cdf converges to the limit cdf
    a, b = 0.3, 0.4
    limit = through1_extent_cdf_limit(kappa, epsilon, alpha, a, b)
    for n in (200, 2000):
        p = 0.5 - math.sqrt(kappa - 2 * epsilon) / (2.0 * n)
        model = build_model(n, p, epsilon / (n * n), alpha)
        finite = through1_extent_cdf(model, round(a * n), round(b * n))
        gap = abs(finite - limit)
    assert gap < 5e-3


def test_covered_extent_limit_density_integrates_to_cdf():
    kappa, alpha = 1.0, 0.5

    def density(a, b):
        return covered_extent_limit_density(kappa, alpha, a, b)

    a0, b0 = 0.5, 0.7
    inner, _ = integrate(lambda aa: integrate(lambda bb: density(aa, bb),
                                              0.0, b0, QuadratureSpec(tol=1e-10))[0],
                         0.0, a0, QuadratureSpec(tol=1e-9))
    assert inner == pytest.approx(covered_extent_cdf_limit(kappa, alpha, a0, b0),
                                  abs=1e-7)


def test_prob_split_given_no_avoiding_matches_anti_diagonal_sum():
    model = build_model(30, 0.5, 0.002, 0.5)
    total = prob_split_given_no_avoiding(model)
    # direct summation of the joint pmf over the whole admissible triangle
    acc = 0.0
    for m in range(0, 29):
        for M in range(0, 29 - m):
            pmm = (through1_extent_cdf(model, m, M)
                   - (through1_extent_cdf(model, m - 1, M) if m else 0.0)
                   - (through1_extent_cdf(model, m, M - 1) if M else 0.0)
                   + (through1_extent_cdf(model, m - 1, M - 1) if m and M else 0.0))
            acc += pmm
    assert total == pytest.approx(acc, abs=1e-10)


def test_prob_split_given_no_avoiding_converges_to_limit():
    kappa, epsilon, alpha = 1.0, 0.5, 0.5
    limit = prob_split_given_no_avoiding_limit(kappa, epsilon, alpha)
    vals = []
    for n in (100, 400, 1600):
        model = build_model(n, 0.5, kappa / (2.0 * n * n), alpha)
        vals.append(prob_split_given_no_avoiding(model))
    assert abs(vals[-1] - limit) < 2e-3
    assert abs(vals[-1] - limit) < abs(vals[0] - limit)


def test_prob_split_limit_equals_extent_density_integral():
    """The split probability limit factorizes as (no-winding limit) times the
    swept-extent density integrated over the a + b <= 1 simplex."""
    kappa, epsilon, alpha = 1.2, 0.35, 0.45
    limit = prob_split_given_no_avoiding_limit(kappa, epsilon, alpha)

    def inner(z):
        val, _ = integrate(lambda a: covered_extent_limit_density(kappa, alpha, a, z - a),
                           0.0, z, QuadratureSpec(tol=1e-10), points=[0.0, z])
        return val

    simplex_mass, _ = integrate(inner, 0.0, 1.0, QuadratureSpec(tol=1e-8))
    expect = prob_no_winding_or_covering_limit(kappa, epsilon, alpha) * simplex_mass
    assert limit == pytest.approx(expect, abs=1e-6)


def test_prob_not_single_partition_limit():
    # golden value computed by an independent script before the build
    val = prob_not_single_partition_limit(1.0, 0.5, 0.5)
    assert val == pytest.approx(0.46211715726000985, rel=1e-12)
    # alpha -> 1 shrinks to 0; alpha >= 1 is exactly 0
    assert prob_not_single_partition_limit(1.0, 0.5, 0.999) < 5e-3
    assert prob_not_single_partition_limit(1.0, 0.5, 1.2) == 0.0
    # factorization through the conditional split probability
    kappa, epsilon, alpha = 0.8, 0.3, 0.4
    assert prob_not_single_partition_limit(kappa, epsilon, alpha) == pytest.approx(
        prob_no_winding_or_covering_limit(kappa, epsilon, alpha)
        * oracles.prob_split_given_no_cover_limit(kappa, alpha), rel=1e-12)


def test_cluster_extent_density_normalization():
    for kappa, alpha in ((1.0, 0.5), (4.0, 0.3), (0.25, 0.7)):
        val, _ = integrate(lambda z: z * cluster_extent_limit_density(kappa, alpha, z / 2, z / 2),
                           0.0, 1.0, QuadratureSpec(tol=1e-10), points=[0.0, 1.0])
        assert val == pytest.approx(1.0, abs=1e-6)


def test_cluster_extent_density_depends_on_sum_only():
    kappa, alpha = 1.0, 0.5
    a = cluster_extent_limit_density(kappa, alpha, 0.1, 0.4)
    b = cluster_extent_limit_density(kappa, alpha, 0.25, 0.25)
    assert a == pytest.approx(b, rel=1e-13)
    assert cluster_extent_limit_density(kappa, alpha, 0.6, 0.5) == 0.0
    assert cluster_extent_limit_density(kappa, alpha, -0.1, 0.2) == 0.0


def test_unnormalized_extent_density_total_mass():
    kappa, alpha = 1.0, 0.4
    val, _ = integrate(
        lambda z: z * oracles.cluster_extent_limit_density_unnormalized(kappa, alpha, z / 2, z / 2),
        0.0, 1.0, QuadratureSpec(tol=1e-10), points=[0.0, 1.0])
    assert val == pytest.approx(oracles.prob_split_given_no_cover_limit(kappa, alpha), abs=1e-8)


def test_probabilities_stay_in_unit_interval_on_random_models():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(3, 40))
        p = rng.uniform(0.2, 0.8)
        c = rng.uniform(0.001, 1.0)
        alpha = rng.uniform(0.1, 2.0)
        model = build_model(n, p, c, alpha)
        assert 0.0 <= prob_no_winding_or_covering(model) <= 1.0
        m = int(rng.integers(0, n - 1))
        M = int(rng.integers(0, n - 1 - m))
        assert 0.0 <= through1_extent_cdf(model, m, M) <= 1.0
        assert 0.0 <= prob_split_given_no_avoiding(model) <= 1.0


def test_large_n_no_overflow():
    # n r around 3000: everything must stay finite through the log domain
    n = 30_000
    model = build_model(n, 0.5, 0.005, 0.5)
    assert model.r * n > 2000
    assert math.isfinite(mass_through_vertex1(model))
    assert math.isfinite(mass_liftable(model))
    assert 0.0 <= prob_no_winding_or_covering(model) <= 1.0
    assert 0.0 <= covered_extent_cdf(model, n // 3, n // 2) <= 1.0


# every limit law of the library with finite arguments at which it is defined
_LIMIT_LAWS = {
    "prob_no_winding_or_covering_limit": (
        prob_no_winding_or_covering_limit, dict(kappa=1.0, epsilon=0.3, alpha=0.5)),
    "prob_not_single_partition_limit": (
        prob_not_single_partition_limit, dict(kappa=1.0, epsilon=0.3, alpha=0.5)),
    "prob_split_given_no_avoiding_limit": (
        prob_split_given_no_avoiding_limit, dict(kappa=1.0, epsilon=0.3, alpha=0.5)),
    "through1_extent_cdf_limit": (
        through1_extent_cdf_limit, dict(kappa=1.0, epsilon=0.3, alpha=0.5, a=0.2, b=0.3)),
    "covered_extent_cdf_limit": (
        covered_extent_cdf_limit, dict(kappa=1.0, alpha=0.5, a=0.2, b=0.3)),
    "covered_extent_limit_density": (
        covered_extent_limit_density, dict(kappa=1.0, alpha=0.5, a=0.2, b=0.3)),
    "cluster_extent_limit_density": (
        cluster_extent_limit_density, dict(kappa=1.0, alpha=0.5, x=0.2, y=0.3)),
    "SubordinatorLaw.potential_density": (
        lambda kappa, alpha, x: SubordinatorLaw(kappa, alpha).potential_density(x),
        dict(kappa=1.0, alpha=0.5, x=0.4)),
    "SubordinatorLaw.levy_density": (
        lambda kappa, alpha, t: SubordinatorLaw(kappa, alpha).levy_density(t),
        dict(kappa=1.0, alpha=0.5, t=0.5)),
    "SubordinatorLaw.levy_tail": (
        lambda kappa, alpha, t: SubordinatorLaw(kappa, alpha).levy_tail(t),
        dict(kappa=1.0, alpha=0.5, t=0.5)),
    "SubordinatorLaw.laplace_exponent": (
        lambda kappa, alpha, lam: SubordinatorLaw(kappa, alpha).laplace_exponent(lam),
        dict(kappa=1.0, alpha=0.5, lam=1.0)),
    "SubordinatorLaw.hitting_density": (
        lambda kappa, alpha, a, x: SubordinatorLaw(kappa, alpha).hitting_density(a, x),
        dict(kappa=1.0, alpha=0.5, a=0.3, x=0.5)),
    "bridge_crossing_joint_density": (
        bridge_crossing_joint_density,
        dict(kappa=1.0, alpha=0.5, a=0.2, b=0.3, x=0.3, y=0.35)),
    "halfline_gap_pgf": (halfline_gap_pgf, dict(alpha=0.5, s=0.5)),
    "escape_probability": (escape_probability, dict(alpha=2.0)),
    "hitting_coefficients": (
        lambda alpha, r: hitting_coefficients(alpha, r, 5)[5], dict(alpha=0.5, r=0.01)),
    "polylog": (polylog, dict(alpha=0.5, s=0.5)),
}


@pytest.mark.parametrize("law, param", [(law, param) for law, (_, args) in _LIMIT_LAWS.items()
                                        for param in args])
def test_limit_laws_reject_non_finite_parameters(law, param):
    """A NaN or infinite argument raises ValueError instead of yielding NaN."""
    fn, args = _LIMIT_LAWS[law]
    assert math.isfinite(fn(**args))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            fn(**{**args, param: bad})
