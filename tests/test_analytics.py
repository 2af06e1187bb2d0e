import inspect
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from loopsoup import analytics
from loopsoup.analytics import (
    DetSpec,
    _circle_mass,
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
from loopsoup.circle import build_model, equivalent_symmetric_model
from loopsoup.numerics import log_cosh_diff, log_sinh, polylog
from loopsoup.scaling import (
    SubordinatorLaw,
    bridge_crossing_joint_density,
    escape_probability,
    halfline_gap_pgf,
    hitting_coefficients,
)

import oracles
from oracles import QuadratureSpec, integrate


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


# ---------------------------------------------------------------------------
# masses vs their oracles, limit laws vs their finite-n closed forms
# ---------------------------------------------------------------------------

MODEL = build_model(4, 0.5, 0.5, 1.0)

# (n, p, c, alpha) and the enumeration length, None for the series and dense
# laws alone; see `oracles.mass_checks`
MASS_BATTERY = [
    ((4, 0.5, 0.5, 1.0), 14),
    ((4, 0.5, 0.8, 1.0), 14),  # criterion 1's model
    ((4, 0.6, 0.8, 1.0), 14),
    ((9, 0.62, 0.6, 1.0), None),
    ((6, 0.58, 0.45, 1.0), None),
]


# the laws of `oracles.mass_checks`, and the ones it adds with an enumeration
MASS_LAWS = ("inside vs series", "inside vs dense", "avoiding edges vs series",
             "through 1 vs series", "liftable vs series", "winding or covering vs series",
             "decomposition", "inclusion-exclusion")
ENUMERATED_MASS_LAWS = ("enumeration vs series to max_len", "inside vs enumeration",
                        "avoiding edges vs enumeration", "through 1 vs enumeration",
                        "avoiding class vs enumeration", "liftable class vs enumeration",
                        "winding or covering class vs enumeration")


@pytest.mark.parametrize("params, max_len, law", [
    pytest.param(params, max_len, law, id=f"{params}-{law}")
    for params, max_len in MASS_BATTERY
    for law in MASS_LAWS + (ENUMERATED_MASS_LAWS if max_len else ())])
def test_mass_laws(params, max_len, law):
    """One closed-form mass against one brute-force oracle: the enumeration,
    the trace series or the dense log-determinant.  Each row's battery runs
    once; the law list must name every law it returns."""
    checks = oracles.mass_checks(build_model(*params), max_len)
    assert sorted(checks) == sorted(MASS_LAWS + (ENUMERATED_MASS_LAWS if max_len else ()))
    assert checks[law].ok, checks[law]


@pytest.mark.parametrize("row", oracles.LIMIT_BATTERY, ids=lambda row: row.name)
def test_limit_laws(row):
    """One limit law against its finite-n closed form on a ladder of n, by
    its order and Richardson residual (`oracles.limit_checks`)."""
    check = oracles.limit_checks(row)
    assert check.ok, check


def test_every_limit_law_has_a_battery_row():
    """Each `analytics.*_limit` function is the law of a battery row, so a
    new limit law cannot land untested; so is the bridge's crossing law,
    through which the loop soup on the circle predicts the extent limit."""
    laws = {name for name in dir(analytics) if name.endswith("_limit")
            and inspect.isfunction(getattr(analytics, name))}
    rows = {row.law for row in oracles.LIMIT_BATTERY}
    assert sorted(laws - {law.__name__ for law in rows}) == []
    assert bridge_crossing_joint_density in rows


def test_mass_inside_trivial_cases():
    assert mass_inside(MODEL, []) == 0.0
    assert mass_inside(MODEL, [3]) == 0.0
    full = mass_inside(MODEL, [1, 2, 3, 4])
    for subset in ([1, 2], [2, 3, 4], [1, 4]):
        assert mass_inside(MODEL, subset) < full


def test_mass_inside_takes_any_iterable_of_vertices():
    """Order, repeats and container type do not change the mass; a vertex
    outside 1..n raises wherever it sits."""
    model = build_model(9, 0.62, 0.6, 1.0)
    for subset in ([9, 1, 2], [4, 5, 6, 7], list(range(1, 10)), [1, 3, 5]):
        mass = mass_inside(model, subset)
        for form in (subset[::-1], subset + subset[:2], set(subset), np.array(subset)):
            assert mass_inside(model, form) == mass
    for subset in ([0, 1, 2], [3, 10], [5, -1, 5], [2, 9, 11, 4]):
        with pytest.raises(ValueError, match="vertices 1..n"):
            mass_inside(model, subset)


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


def test_mass_avoiding_edges_limits():
    assert mass_avoiding_edges(MODEL, []) == pytest.approx(
        mass_inside(MODEL, [1, 2, 3, 4]), rel=1e-12)
    all_edges = [(u, u % 4 + 1) for u in range(1, 5)] + [(u % 4 + 1, u) for u in range(1, 5)]
    assert mass_avoiding_edges(MODEL, all_edges) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        mass_avoiding_edges(MODEL, [(1, 3)])


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
    assert mass_liftable(model) == pytest.approx(
        float(mass_liftable_inside(model, 59, 59)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("m, M", [(59, 59), (3, 10), (0, 59)])
def test_mass_liftable_inside_keeps_its_digits_at_large_r(m, M):
    """At n = 60, c = 30 (2r = 8.3) the log of -expm1(-2r), a number near 1,
    lost 1e-13 relative against the 40-digit form
    log(2 cosh r sinh((m+1)r) sinh((M+1)r) / (sinh r sinh((m+M+2)r)))."""
    model = build_model(60, 0.5, 30.0, 1.0)
    with localcontext() as ctx:
        ctx.prec = 40
        r = Decimal(model.r)

        def sinh(z):
            return (z.exp() - (-z).exp()) / 2

        exact = float((((r.exp() + (-r).exp()) * sinh((m + 1) * r) * sinh((M + 1) * r))
                       / (sinh(r) * sinh((m + M + 2) * r))).ln())
    assert float(mass_liftable_inside(model, m, M)) == pytest.approx(exact, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("p", [0.5, 0.45, 0.9])
def test_mass_through_vertex1_keeps_its_digits_at_large_nr(p):
    """At n = 60, c = 30 (n r = 248) the through-1 mass is log coth r plus a
    term below e^-180; log sinh(nr) - log(cosh nr - cosh nd), two numbers
    near n r, lost 3e-11 relative."""
    model = build_model(60, p, 30.0, 1.0)
    with localcontext() as ctx:
        ctx.prec = 40
        r, q = Decimal(model.r), Decimal(p)
        big, small = 60 * r, 30 * abs((q / (1 - q)).ln())

        def log_coth(z):
            return ((2 * z).exp() + 1).ln() - ((2 * z).exp() - 1).ln()

        exact = float(log_coth(r) + (big.exp() - (-big).exp()).ln()
                      - (big.exp() + (-big).exp() - small.exp() - (-small).exp()).ln())
    assert mass_through_vertex1(model) == pytest.approx(exact, rel=1e-15, abs=0.0)


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
    """The anti-diagonal pass equals the no-winding probability times the
    joint extent pmf, the double differences of `covered_extent_cdf`, summed
    over the whole triangle m + M <= n - 2, on eight models up to n = 1000."""
    for n, p, c, alpha in [(30, 0.5, 0.002, 0.5), (3, 0.5, 0.3, 0.5), (10, 0.5, 0.002, 0.5),
                           (30, 0.7, 0.2, 0.8), (41, 0.35, 0.05, 1.7), (12, 0.5, 0.0, 0.7),
                           (300, 0.6, 0.01, 2.5), (1000, 0.5, 1e-6, 0.3)]:
        model = build_model(n, p, c, alpha)
        k = np.arange(n - 1)
        pmf = np.diff(np.diff(covered_extent_cdf(model, k[:, None], k), axis=0, prepend=0.0),
                      axis=1, prepend=0.0)
        total = prob_no_winding_or_covering(model) * pmf[k[:, None] + k <= n - 2].sum()
        assert prob_split_given_no_avoiding(model) == pytest.approx(
            total, rel=1e-13, abs=1e-15), (n, p, c, alpha)


@pytest.mark.parametrize("n, p, c, alpha", [(3, 0.5, 0.3, 0.5), (10, 0.5, 0.002, 0.5),
                                            (30, 0.7, 0.2, 0.8), (41, 0.35, 0.05, 1.7),
                                            (12, 0.5, 0.0, 0.7), (300, 0.6, 0.01, 2.5),
                                            (1000, 0.5, 1e-6, 0.3)])
def test_prob_split_given_no_avoiding_matches_scalar_loop(n, p, c, alpha):
    """The numpy pass equals 2(n-1) scalar calls of the joint extent cdf
    along the anti-diagonal m + M = n - 2."""
    model = build_model(n, p, c, alpha)
    total = sum(covered_extent_cdf(model, m, n - 2 - m)
                - (covered_extent_cdf(model, m - 1, n - 2 - m) if m else 0.0)
                for m in range(n - 1))
    assert prob_split_given_no_avoiding(model) == pytest.approx(
        prob_no_winding_or_covering(model) * total, rel=1e-13, abs=1e-15)


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



@pytest.mark.parametrize("kappa", [1e8, 1e10])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_prob_split_limit_tends_to_one_at_large_kappa(kappa, alpha):
    """Far from both killings the split law is 1 up to e^(-(s - s2)); a
    quadrature in t returned 1.6e-17 at kappa = 1e8 and 3e-186 at 1e10."""
    assert prob_split_given_no_avoiding_limit(kappa, 0.3 * kappa, alpha) == pytest.approx(
        1.0, abs=1e-9)


def test_prob_split_limit_rejects_alpha_beyond_its_accuracy():
    assert 0.0 < prob_split_given_no_avoiding_limit(100.0, 30.0, 100.0) < 1.0
    with pytest.raises(ValueError, match="alpha"):
        prob_split_given_no_avoiding_limit(100.0, 30.0, 100.5)

@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 1.0, 2.15, 3.0, 30.0, 63.76, 100.0])
def test_prob_split_limit_matches_quadrature(alpha):
    """The 2F1 closed form against quadrature of the integral in t it reduces.
    scipy's hyp2f1 needs its c - a - b to come out an exact integer: one ulp
    off, it returned inf near z = 1 at alpha = 0.3, 0.7 and 2.15 for
    2F1(a, a+1; 2a+2; z), and lost 0.5% at alpha = 63.76 for the transformed
    2F1(a, -1/2; a+3/2; z).  The untransformed 2F1 lost 1e-5 by alpha = 25."""
    for kappa in (1e-4, 0.1, 1.0, 10.0, 60.0):
        epsilon = 0.3 * kappa
        s, s2 = math.sqrt(kappa), math.sqrt(kappa - 2.0 * epsilon)

        def log_integrand(t):
            return (alpha - 1.0) * log_sinh(s * t) + (alpha + 1.0) * log_sinh(s * (1.0 - t))

        # scaled by its value near the peak, so the relative tolerance binds
        log_scale = log_integrand(1.0 / (2.0 + s))
        val, _ = integrate(lambda t: math.exp(log_integrand(t) - log_scale), 0.0, 1.0,
                           QuadratureSpec(tol=1e-13), points=[0.0])
        expect = 2.0 ** alpha * alpha * s * val * math.exp(
            alpha * log_cosh_diff(s, s2) + log_scale - (2.0 * alpha + 1.0) * log_sinh(s))
        assert prob_split_given_no_avoiding_limit(kappa, epsilon, alpha) == pytest.approx(
            expect, rel=1e-9)


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
    """`oracles.limit_identity_checks`, which criterion 8 reads too."""
    checks = oracles.limit_identity_checks()
    for kappa, alpha in oracles.EXTENT_DENSITY_POINTS:
        check = checks[f"extent density normalization {kappa}-{alpha}"]
        assert check.ok, check


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


# an alpha outside each law's domain: -1, or where a law once failed with
# "math domain error"
_ALPHA_OUTSIDE = {"bridge_crossing_joint_density": 1.5, "covered_extent_limit_density": -0.5}


@pytest.mark.parametrize("law, param", [(law, param) for law, (_, args) in _LIMIT_LAWS.items()
                                        for param in args])
def test_limit_laws_reject_non_finite_parameters(law, param):
    """A NaN or infinite argument raises ValueError instead of yielding NaN,
    and so does an alpha outside the law's domain, naming alpha."""
    fn, args = _LIMIT_LAWS[law]
    assert math.isfinite(fn(**args))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            fn(**{**args, param: bad})
    if param == "alpha":
        with pytest.raises(ValueError, match="alpha"):
            fn(**{**args, "alpha": _ALPHA_OUTSIDE.get(law, -1.0)})


@pytest.mark.parametrize("law", ["prob_no_winding_or_covering_limit",
                                 "prob_not_single_partition_limit",
                                 "prob_split_given_no_avoiding_limit",
                                 "through1_extent_cdf_limit", "covered_extent_cdf_limit"])
def test_limit_laws_at_alpha_zero(law):
    """At alpha = 0 the soup is empty: no loop winds or sweeps, and every
    edge is closed, so each law is 1, also at epsilon = 0, where 0 * log 0
    gave nan, and at zero extents."""
    fn, args = _LIMIT_LAWS[law]
    for epsilon, extent in ((0.3, 0.2), (0.0, 0.2), (0.0, 0.0)):
        at = {"alpha": 0.0, "epsilon": epsilon, "a": extent, "b": extent}
        assert fn(**{**args, **{key: v for key, v in at.items() if key in args}}) == 1.0


@pytest.mark.parametrize("n, p, c", [(8, 0.5, 0.3), (30, 0.7, 0.2), (9, 0.4, 0.0),
                                     (60, 0.5, 30.0)])
def test_circle_mass_is_the_full_circle_mass_inside(n, p, c):
    """The closed form equals mass_inside over vertices 1..n exactly, and at
    n = 1e12 it is finite without building the vertex array."""
    model = build_model(n, p, c, 0.7)
    assert _circle_mass(model) == mass_inside(model, range(1, n + 1))
    assert math.isfinite(_circle_mass(build_model(10 ** 12, p, c + 0.1, 0.7)))


@pytest.mark.parametrize("c", [0.0, 0.3])
def test_finite_n_laws_at_alpha_zero(c):
    """At alpha = 0 the soup is empty, so no loop winds or sweeps and every
    edge is closed, also at c = 0, where the no-winding probability read 0:
    the split probability is 1 and the origin extents sit at (0, 0)."""
    model = build_model(8, 0.5, c, 0.0)
    assert analytics.prob_no_winding_or_covering(model) == 1.0
    assert analytics.prob_split_given_no_avoiding(model) == 1.0
    pmf = analytics.origin_extent_pmf(model)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
    assert pmf[0, 0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [7, 50, 200, 1600])
@pytest.mark.parametrize("epsilon", [0.5, 0.25], ids=["symmetric", "drifted"])
def test_origin_extent_pmf_is_the_lift_extent_mixture(n, epsilon):
    """The closed form Pi_n w(l+x+1) C(n-l-x-1) equals the lift extents' pmf
    mixed over the first and last points of the avoiding-1 renewal path, the
    finite-n twin of the crossing-mixture identity, to 1e-14 at every n."""
    model = oracles._model(n, epsilon, 0.5)
    np.testing.assert_allclose(analytics.origin_extent_pmf(model),
                               oracles.origin_extent_pmf_by_lift_mixture(model),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("params", [
    (200, 0.3, 1.0, 0.5),        # strong drift and killing
    (60, 0.5, 50.0, 2.0),        # n r = 235
    (1000, 0.5, 5e-15, 0.5),     # the kappa = 1 schedule's killing at n = 1e7
    (300, 0.5, 1e-17, 0.7),      # below where the old kappa cancelled to 0
    (100, 0.001, 1e-3, 1.5),     # p near 0
    (8, 0.5, 0.0, 0.0),          # alpha = 0 at c = 0
    (40, 0.6, 0.1, 0.0),         # alpha = 0 at c > 0
])
def test_origin_extent_pmf_in_edge_regimes(params):
    """The closed form stays finite and nonnegative, and within 1e-13 of the
    lift-extent mixture, at large n r, c -> 0, p near 0 and alpha = 0."""
    model = build_model(*params)
    pmf = analytics.origin_extent_pmf(model)
    assert np.all(np.isfinite(pmf)) and pmf.min() >= 0.0
    np.testing.assert_allclose(pmf, oracles.origin_extent_pmf_by_lift_mixture(model),
                               rtol=0, atol=1e-13)
