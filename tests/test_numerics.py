import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

import loopsoup
from loopsoup.numerics import (
    QuadratureSpec,
    beta,
    chi_square_pvalue,
    chi_square_two_sample,
    hausdorff,
    integrate,
    ks_critical,
    ks_distance,
    ks_distance_two_sample,
    log_cosh_diff,
    log_sinh,
    log_sinh_ratio,
    polylog,
    riemann_zeta,
)


def test_beta_basic_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)


def test_beta_reflection_identity():
    # Beta(x, y) * Beta(x+y, 1-y) = pi / (x sin(pi y))
    x, y = 1.3, 0.4
    lhs = beta(x, y) * beta(x + y, 1.0 - y)
    assert lhs == pytest.approx(math.pi / (x * math.sin(math.pi * y)), rel=1e-10)


def test_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta(-1.0, 2.0)
    with pytest.raises(ValueError):
        beta(1.0, 0.0)


def test_beta_accuracy_across_range():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b = rng.uniform(0.01, 50.0, size=2)
        direct = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        assert beta(a, b) == pytest.approx(direct, rel=1e-12)


def test_polylog_log_series():
    for s in (0.1, 0.5, 0.9, -0.7, 0.9999999):
        assert polylog(1.0, s) == pytest.approx(-math.log(1.0 - s), rel=1e-12, abs=1e-12)


def test_polylog_matches_long_partial_sum():
    s, alpha = 0.5, 0.5
    brute = sum(s ** k / k ** alpha for k in range(1, 1_000_001))
    assert polylog(alpha, s) == pytest.approx(brute, rel=1e-12)


def test_polylog_expansion_near_one_matches_series():
    k = np.arange(1, 200_001, dtype=float)
    for alpha in (0.3, 0.5, 0.75, 1.5, 2.5, 1.0, 2.0, 3.0, 4.0):
        for s in (0.5, 0.9, 0.99, 0.999):
            series = float(np.sum(np.exp(k * math.log(s) - alpha * np.log(k))))
            assert polylog(alpha, s) == pytest.approx(series, rel=1e-13), (alpha, s)


def test_polylog_domain():
    with pytest.raises(ValueError):
        polylog(0.5, 1.0)
    with pytest.raises(ValueError):
        polylog(1.0, -0.9999999)  # the series would need over 10^7 terms


def test_zeta_values():
    assert riemann_zeta(2.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-12)
    for a in (1.1, 1.5, 2.0, 3.7, 10.0):
        assert riemann_zeta(a) == pytest.approx(float(scipy_zeta(a)), rel=1e-10)
    with pytest.raises(ValueError):
        riemann_zeta(1.0)


def test_log_sinh_stability():
    assert log_sinh(1e-3) == pytest.approx(math.log(math.sinh(1e-3)), rel=1e-12)
    assert log_sinh(800.0) == pytest.approx(800.0 - math.log(2.0), rel=1e-12)
    assert log_sinh(0.0) == -math.inf


def test_log_sinh_ratio_series_branch():
    # below the switch the series limit num/den is used
    assert log_sinh_ratio(3.0, 7.0, 1e-9) == pytest.approx(math.log(3.0 / 7.0), abs=1e-12)
    assert log_sinh_ratio(3.0, 7.0, 0.1) == pytest.approx(
        math.log(math.sinh(0.3) / math.sinh(0.7)), rel=1e-12)


def test_log_cosh_diff():
    for big, small in ((2.0, 1.0), (40.0, 39.0), (500.0, 0.0)):
        direct = log_cosh_diff(big, small)
        expect = math.log(2.0) + log_sinh((big + small) / 2) + log_sinh((big - small) / 2)
        assert direct == expect
    assert log_cosh_diff(1.0, 1.0) == -math.inf
    with pytest.raises(ValueError):
        log_cosh_diff(1.0, 2.0)


def test_integrate_polynomial():
    val, err = integrate(lambda x: x * x, 0.0, 1.0)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_integrate_semi_infinite():
    val, _ = integrate(lambda x: math.exp(-x), 0.0, math.inf)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_integrate_endpoint_singularity():
    val, _ = integrate(lambda x: x ** -0.5, 0.0, 1.0, QuadratureSpec(tol=1e-10))
    assert val == pytest.approx(2.0, abs=1e-8)


def test_ks_distance_uniform():
    rng = np.random.default_rng(3)
    sample = rng.random(2000)
    d = ks_distance(sample, lambda x: min(max(x, 0.0), 1.0))
    assert d < ks_critical(2000, level=0.01)
    # a shifted cdf must be detected
    d_bad = ks_distance(sample, lambda x: min(max(x - 0.2, 0.0), 1.0))
    assert d_bad > 0.15


def test_ks_two_sample_consistency():
    rng = np.random.default_rng(4)
    a, b = rng.random(3000), rng.random(3000)
    assert ks_distance_two_sample(a, b) < ks_critical(3000, 3000, level=0.01)


def test_chi_square_pvalue_uniform_counts():
    rng = np.random.default_rng(5)
    counts = np.bincount(rng.integers(0, 10, size=10000), minlength=10)
    stat, p = chi_square_pvalue(counts, np.full(10, 0.1))
    assert p > 0.001


def test_chi_square_tails_match_closed_forms():
    """Two degrees of freedom have tail exp(-x/2), one has erfc(sqrt(x/2))."""
    stat, p = chi_square_pvalue([30, 50, 20], [1, 1, 1])
    assert p == pytest.approx(math.exp(-stat / 2.0), rel=1e-12)
    stat, p = chi_square_two_sample([40, 60], [55, 45])
    assert p == pytest.approx(math.erfc(math.sqrt(stat / 2.0)), rel=1e-12)


def test_import_leaves_scipy_stats_unloaded():
    """`import loopsoup` loads neither scipy.stats, about a third of its
    start-up time, nor scipy.integrate: the chi-square tails come from
    scipy.special, and `integrate` imports quad when first called."""
    src = str(Path(loopsoup.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, loopsoup; "
            "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_hausdorff_examples():
    assert hausdorff([0.0, 1.0], [0.0, 1.0]) == 0.0
    assert hausdorff([0.0], [1.0]) == 1.0
    # hand computation: 0.5 sits at distance 0.5 from both points of {0, 1}
    assert hausdorff([0.0, 0.5, 1.0], [0.0, 1.0]) == pytest.approx(0.5)
    assert hausdorff([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 0.5, 1.0]) == pytest.approx(0.25)


# small integers make duplicates and points shared by both sets common
_POINTS = st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-10.0, 10.0)),
                   min_size=1, max_size=12)


@settings(deadline=None)
@given(a=_POINTS, b=_POINTS)
@example(a=[2.0], b=[-1.0])
@example(a=[1.0, 1.0, 0.0], b=[0.0, 1.0, 1.0, 1.0])
@example(a=[3.0, -2.0, 0.5], b=[0.5])
def test_hausdorff_equals_brute_force(a, b):
    """The bisection scan gives the same float as the max-min over all pairs,
    for unsorted input, duplicates, shared points and singletons."""
    dist = np.abs(np.subtract.outer(a, b))
    assert hausdorff(a, b) == max(dist.min(axis=1).max(), dist.min(axis=0).max())


@pytest.mark.parametrize("a, b", [([], [1.0]), ([1.0], []), ([], [])])
def test_hausdorff_rejects_empty_sets(a, b):
    with pytest.raises(ValueError, match="nonempty"):
        hausdorff(a, b)


def test_hausdorff_metric_properties():
    rng = np.random.default_rng(6)
    for _ in range(25):
        a = rng.random(rng.integers(1, 8))
        b = rng.random(rng.integers(1, 8))
        c = rng.random(rng.integers(1, 8))
        dab, dba = hausdorff(a, b), hausdorff(b, a)
        assert dab == dba >= 0.0
        assert hausdorff(a, a) == 0.0
        assert hausdorff(a, c) <= dab + hausdorff(b, c) + 1e-12
