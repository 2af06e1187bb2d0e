import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from oracles import (
    LEVY_DENSITY_POINTS,
    QuadratureSpec,
    SUBORDINATOR_POINTS,
    chi_square_pvalue,
    closed_edge_count_pmf,
    conditioned_draw,
    conditioned_path_checks,
    integrate,
    renewal_jumps_by_recursion,
    subordinator_checks,
)
from loopsoup.experiments import asymmetric_schedule, symmetric_schedule
from loopsoup.scaling import (
    ConditionedBridgeLaw,
    RenewalLaw,
    SubordinatorLaw,
    _hitting_coefficient,
    _next_fast_len,
    bridge_crossing_joint_density,
    escape_probability,
    halfline_gap_pgf,
    hitting_coefficients,
    invert_renewal,
    point_count_moments,
    sample_conditioned_renewal,
    sample_conditioned_renewals,
)


# ---------------------------------------------------------------------------
# hitting coefficients and renewal inversion
# ---------------------------------------------------------------------------

def test_hitting_coefficients_basics():
    C = hitting_coefficients(0.5, 0.0, 10)
    assert C[0] == 1.0
    assert C[3] == pytest.approx(0.5)  # (1/4)^0.5
    C2 = hitting_coefficients(0.7, 0.05, 50)
    assert C2[0] == pytest.approx(1.0)
    assert np.all(np.diff(C2) < 0.0)  # strictly decreasing
    # closed form spot check
    r, a, m = 0.05, 0.7, 7
    expect = ((1 - math.exp(-2 * r)) / (1 - math.exp(-2 * (m + 1) * r))) ** a
    assert C2[m] == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("alpha, r", [(0.5, 0.0), (0.7, 0.05), (1.3, 1e-5), (0.0, 0.2)])
def test_hitting_coefficient_of_one_m_matches_the_table(alpha, r):
    """C(m) of a scalar m is the table's entry, bit for bit, and
    m = 1e15 gives a finite value without building a table."""
    C = hitting_coefficients(alpha, r, 3000)
    for m in (0, 1, 2, 17, *range(999, 3001, 7)):
        assert _hitting_coefficient(alpha, r, float(m)) == C[m]
    assert 0.0 < _hitting_coefficient(alpha, r, 1e15) <= 1.0


def test_next_fast_len_matches_scipy():
    """The FFT length of every n up to 2^17, and of spot lengths up to 1e7,
    is scipy's real-transform choice, so `invert_renewal` keeps its sizes."""
    spots = [10**5 + 1, 3 * 10**5 + 7, 10**6 + 1, 2**21 + 3, 9_999_991, 10**7 + 1]
    for n in [*range(1, 2**17 + 1), *spots]:
        assert _next_fast_len(n) == next_fast_len(n, real=True), n


def test_invert_renewal_base_cases():
    C = hitting_coefficients(0.6, 0.02, 10)
    w = invert_renewal(C)
    assert w[1] == pytest.approx(C[1])
    assert w[2] == pytest.approx(C[2] - C[1] ** 2)
    assert np.all(w >= 0.0)
    assert w[1:].sum() <= 1.0 + 1e-12


def test_invert_renewal_round_trip():
    # forward convolution reconstructs C to 1e-10 at (alpha, r, N) = (0.4, 0.01, 2000)
    C = hitting_coefficients(0.4, 0.01, 2000)
    w = invert_renewal(C)
    for m in (1, 17, 399, 1234, 2000):
        recon = float(np.dot(w[1:m + 1], C[:m][::-1]))
        assert recon == pytest.approx(C[m], abs=1e-10)


@settings(deadline=None)
@given(alpha=st.floats(0.0, 2.0, exclude_min=True),
       r=st.one_of(st.just(0.0), st.floats(0.0, 0.05)),
       N=st.integers(1, 3000))
@example(alpha=2.0, r=0.0, N=3000)  # defective: mass 1/zeta(2) escapes
@example(alpha=0.5, r=0.01, N=1024)
@example(alpha=0.5, r=0.01, N=1025)
def test_invert_renewal_matches_recursion(alpha, r, N):
    C = hitting_coefficients(alpha, r, N)
    assert np.max(np.abs(invert_renewal(C) - renewal_jumps_by_recursion(C))) <= 1e-13


@pytest.mark.parametrize("N", [100_000, 1_000_000])
def test_invert_renewal_a_posteriori_bound(N):
    """w is within 1e-14 of the true jump law w* at N = 1e5 and 1e6.

    With res = (delta - w) * C - delta mod z^(N+1) and (delta - w*) * C = delta,
    w* - w = res * (delta - w*), so ||w - w*||_inf <= ||delta - w*||_1 ||res||_inf
    <= 2 ||res||_inf.  res comes from one real FFT of length > 2N, which
    rounds at about 1e-16 (3.3e-16 at 1e5 and 2.2e-16 at 1e6, about all of
    the residual).
    """
    C = hitting_coefficients(0.5, 1e-5, N)
    delta_minus_w = -invert_renewal(C)
    delta_minus_w[0] = 1.0
    size = next_fast_len(2 * N + 1, real=True)
    res = np.fft.irfft(np.fft.rfft(delta_minus_w, size) * np.fft.rfft(C, size), size)[:N + 1]
    res[0] -= 1.0
    assert 2.0 * np.max(np.abs(res)) <= 1e-14


def test_invert_renewal_rejects_bad_sequence():
    with pytest.raises(ValueError):
        invert_renewal(np.array([2.0, 1.0]))
    # w(2) = C(2) - C(1)^2 = 0.1 - 0.81 < 0: not a renewal sequence
    with pytest.raises(ValueError):
        invert_renewal(np.array([1.0, 0.9, 0.1]))


@pytest.mark.parametrize("schedule", [symmetric_schedule(1.0, range(3, 51)),
                                      asymmetric_schedule(1.0, 0.25, range(3, 51))],
                         ids=["symmetric", "drifted"])
def test_point_count_moments_match_the_count_pmf(schedule):
    """At every n <= 50 of the cluster-scaling runner's two schedules, the
    closed-form mean and variance of the point count equal those of the
    exact-law battery's closed-edge count pmf, to relative 1e-12."""
    for entry in schedule:
        model = entry.model(0.5)
        pmf = closed_edge_count_pmf(RenewalLaw.build(0.5, model.r, entry.n - 1), entry.n)
        k = np.arange(entry.n + 1)
        mean = pmf @ k
        got = point_count_moments(0.5, model.r, entry.n - 1)
        assert got == pytest.approx((mean, pmf @ k ** 2 - mean ** 2), rel=1e-12, abs=0), entry


@pytest.mark.parametrize("N", [99, 399, 1599])
def test_point_count_variance_stays_positive_where_the_count_is_nearly_sure(N):
    """Past r of about 14 every edge is closed to rounding, and the variance,
    which cancels terms of order mean^2, came out -2.5e-11 at (0.5, 17, 99)
    and exactly 0 at (0.5, 19, 399); it is floored at eps mean^2."""
    for r in np.arange(1.0, 30.0):
        mean, var = point_count_moments(0.5, r, N)
        assert var >= np.finfo(float).eps * mean * mean > 0.0, r


def test_generating_function_cross_check():
    """(1 - pgf(s))^(-1) summed from C agrees with the inverted jumps at s = 0.5."""
    law = RenewalLaw.build(0.5, 0.01, 4000)
    s = 0.5
    powers = s ** np.arange(law.horizon + 1)
    lhs = float(np.dot(law.C, powers))
    pgf = float(np.dot(law.w, powers))
    assert lhs == pytest.approx(1.0 / (1.0 - pgf), abs=1e-9)


def test_kappa0_gap_pgf_matches_polylog():
    """At r = 0 the inverted jump law has generating function 1 - s/Li_a(s)."""
    alpha = 0.5
    law = RenewalLaw.build(alpha, 0.0, 4000)
    for s in (0.3, 0.5, 0.7):
        pgf = float(np.dot(law.w, s ** np.arange(law.horizon + 1)))
        assert pgf == pytest.approx(halfline_gap_pgf(alpha, s), abs=1e-9)


def test_halfline_gap_pgf_small_s():
    # Li_a(s) = s + O(s^2) so the pgf vanishes linearly at 0
    alpha = 0.7
    for s in (1e-4, 1e-5):
        val = halfline_gap_pgf(alpha, s)
        assert val == pytest.approx(s / 2 ** alpha, rel=0.01)
    with pytest.raises(ValueError):
        halfline_gap_pgf(0.5, 1.0)


def test_escape_probability():
    assert escape_probability(2.0) == pytest.approx(6.0 / math.pi ** 2, abs=1e-10)
    with pytest.raises(ValueError):
        escape_probability(0.9)
    # defective total jump mass at r=0, alpha>1 approaches 1 - 1/zeta(alpha)
    law = RenewalLaw.build(2.0, 0.0, 10_000)
    assert law.w.sum() == pytest.approx(1.0 - escape_probability(2.0), abs=1e-4)


# ---------------------------------------------------------------------------
# conditioned renewal sampling
# ---------------------------------------------------------------------------

def test_conditioned_jump_pmf_sums_to_one():
    law = RenewalLaw.build(0.5, 0.02, 300)
    for state in (0, 10, 150, 298):
        pmf = law.conditioned_jump_pmf(state, 299)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
    # one step before the target the jump is forced
    pmf = law.conditioned_jump_pmf(298, 299)
    assert pmf[0] == pytest.approx(1.0)


def test_conditioned_sampler_hits_target_exactly():
    law = RenewalLaw.build(0.5, 0.02, 100)
    paths = sample_conditioned_renewals(law, 97, 200, np.random.default_rng(42))
    assert len(paths) == 200
    for path in paths:
        assert path[0] == 0 and path[-1] == 97
        assert np.all(np.diff(path) >= 1)
    assert sample_conditioned_renewals(law, 97, 0, np.random.default_rng(42)) == []
    # one level per path, 0 and the horizon included
    levels = np.random.default_rng(1).integers(0, 101, 300)
    levels[:2] = 0, 100
    paths = sample_conditioned_renewals(law, levels, 300, np.random.default_rng(43))
    for path, level in zip(paths, levels, strict=True):
        assert path[0] == 0 and path[-1] == level
        assert np.all(np.diff(path) >= 1)


def test_conditioned_sampler_first_jump_law_per_level():
    """In a batch mixing two levels, each level's first jumps follow
    w(j) C(level-j) / C(level) (chi-square over single jumps 1..10 and the rest)."""
    law = RenewalLaw.build(0.5, 0.02, 100)
    levels = np.tile([12, 100], 20_000)
    paths = sample_conditioned_renewals(law, levels, levels.size, np.random.default_rng(9))
    firsts = np.array([path[1] for path in paths])
    for level in (12, 100):
        counts = np.bincount(firsts[levels == level], minlength=level + 1)[1:]
        pmf = law.conditioned_jump_pmf(0, level)
        obs = np.append(counts[:10], counts[10:].sum())
        exp = np.append(pmf[:10], pmf[10:].sum())
        assert chi_square_pvalue(obs, exp)[1] > 1e-3, level


def test_conditioned_sampler_rejects_bad_levels():
    law = RenewalLaw.build(0.5, 0.02, 100)
    rng = np.random.default_rng(0)
    for levels in (101, -1, np.array([5, 101]), np.array([5, -1])):
        with pytest.raises(ValueError, match="0..horizon"):
            sample_conditioned_renewals(law, levels, 2 if np.ndim(levels) else 1, rng)
    with pytest.raises(ValueError, match="shape"):
        sample_conditioned_renewals(law, np.array([5, 6, 7]), 2, rng)
    with pytest.raises(ValueError, match="n_paths"):
        sample_conditioned_renewals(law, np.array([5, 6]), -1, rng)


def test_conditioned_sampler_first_jump_law():
    """First jumps follow w(j) C(n-j) / C(n), on criterion 4's cached draw."""
    assert conditioned_draw()[1]["first jump"].ok


def test_conditioned_sampler_second_jump_law():
    """Given a first jump of 1, the second jump follows w(j) C(n-1-j) / C(n-1),
    on criterion 4's cached draw."""
    assert conditioned_draw()[1]["second jump"].ok


def _path_pmf(law: RenewalLaw, level: int) -> np.ndarray:
    """Probability prod w(gaps) / C(level) of every path to `level`, indexed
    by the bit mask of its inner points (bit s-1 set when s is visited)."""
    pmf = np.empty(2 ** max(level - 1, 0))
    for mask in range(pmf.size):
        pts = [0] + [s for s in range(1, level) if mask >> (s - 1) & 1] + [level] * (level > 0)
        pmf[mask] = math.prod(law.w[b - a] for a, b in zip(pts, pts[1:])) / law.C[level]
    return pmf


def _assert_path_law(law: RenewalLaw, level: int, paths) -> None:
    """Chi-square of sampled path frequencies against the enumerated law,
    cells expected below 5 merged into one."""
    assert all(path[0] == 0 and path[-1] == level for path in paths)
    pmf = _path_pmf(law, level)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
    masks = [int(np.sum(1 << (path[1:-1] - 1))) for path in paths]
    counts = np.bincount(masks, minlength=pmf.size)
    if pmf.size == 1:  # levels 0 and 1 have one path each
        assert counts[0] == len(paths)
        return
    small = pmf * len(paths) < 5.0
    obs = np.append(counts[~small], counts[small].sum())
    exp = np.append(pmf[~small], pmf[small].sum())
    if not small.any():
        obs, exp = obs[:-1], exp[:-1]
    assert chi_square_pvalue(obs, exp)[1] > 1e-3, (law.alpha, law.r, level)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1.5])
@pytest.mark.parametrize("r", [0.0, 0.1])
def test_conditioned_sampler_whole_path_law(alpha, r):
    """Every one of the 512 paths to level 10 appears with probability
    prod w(gaps) / C(10): pins the unit runs and the envelope draws together."""
    law = RenewalLaw.build(alpha, r, 10)
    seed = 1000 + round(100 * alpha) + round(10 * r)
    paths = sample_conditioned_renewals(law, 10, 40_000, np.random.default_rng(seed))
    _assert_path_law(law, 10, paths)


def test_conditioned_sampler_mixed_levels_at_large_nr():
    """One batch of the kappa = 400 bridge law at resolution 2000 with levels
    0, 1, 2, 9 and 2000: whole-path laws at the small levels, and
    `conditioned_path_checks` at 2000 (n r = 20)."""
    n = 2000
    law = ConditionedBridgeLaw(SubordinatorLaw(kappa=400.0, alpha=0.5)).renewal_approximation(n)
    levels = np.tile([0, 1, 2, 9, n], 20_000)
    paths = sample_conditioned_renewals(law, levels, levels.size, np.random.default_rng(4000))
    for level in (0, 1, 2, 9):
        _assert_path_law(law, level, [p for p, lv in zip(paths, levels) if lv == level])
    long = [p for p, lv in zip(paths, levels) if lv == n]
    checks = conditioned_path_checks(law, n, long, (1, 2, 3, 5, 10, 50, 200, 1000))
    assert all(c.ok for c in checks.values()), checks


def test_conditioned_sampler_deterministic_for_seed():
    law = RenewalLaw.build(0.5, 0.05, 200)
    a = sample_conditioned_renewal(law, 200, np.random.default_rng(5))
    b = sample_conditioned_renewal(law, 200, np.random.default_rng(5))
    assert np.array_equal(a, b)
    many_a = sample_conditioned_renewals(law, 200, 50, np.random.default_rng(5))
    many_b = sample_conditioned_renewals(law, 200, 50, np.random.default_rng(5))
    assert all(np.array_equal(x, y) for x, y in zip(many_a, many_b, strict=True))
    # a constant level array draws the same paths as the scalar level
    many_c = sample_conditioned_renewals(law, np.full(50, 200), 50, np.random.default_rng(5))
    assert all(np.array_equal(x, y) for x, y in zip(many_a, many_c, strict=True))


# sha256 of the paths and of the generator's next uniform over the grid in
# the test below, recorded from the sampler as it stood when each round was
# cut to one rejection try per live path; any change to which uniforms are
# drawn, or how many, shows (the law's floats come from numpy's FFT, so
# another numpy may move them too)
STREAM_DIGESTS = {
    (0.3, 0.0): "7c124334d8ed087a3ae7e9e8e0cfbc1460aed030d6598124ec1dbd55cdf53774",
    (0.3, 1e-3): "8ae8672c1e4e936af70bc3c4ebc8982a934c69c66269d09d3979e0a66e54fe96",
    (0.5, 0.0): "066790cf4eb54a9124ad3e34854c0f27e1ff6029cdb00072f91ca8e75ee8f01e",
    (0.5, 1e-3): "3294c07e54b71677184a636d53a04aaa839265e4da4603bd769ee14c6b1ee3e7",
    (0.8, 0.0): "833cd2ba558b3ba77145d299b312698d35e249612a7168928c880dabc095cb84",
    (0.8, 1e-3): "0a5bbe3bd4bbd0565eb814eebd0ff8fcddd76e496089211c7045c8a8274f4204",
}


@pytest.mark.parametrize("alpha, r", STREAM_DIGESTS)
def test_conditioned_sampler_stream_is_pinned(alpha, r):
    """Paths and the generator state after each call are bit-identical to the
    recorded ones, for one level and for per-path levels from 0 to the horizon."""
    horizon = 400
    law = RenewalLaw.build(alpha, r, horizon)
    digest = hashlib.sha256()
    for n_paths in (1, 7, 300):
        levels = np.arange(n_paths) * 97 % (horizon + 1)
        levels[-1] = horizon
        for n in (horizon, levels):
            rng = np.random.default_rng(n_paths)
            for path in sample_conditioned_renewals(law, n, n_paths, rng):
                digest.update(np.int64(path.size).tobytes())
                digest.update(path.astype(np.int64).tobytes())
            digest.update(np.float64(rng.random()).tobytes())
    assert digest.hexdigest() == STREAM_DIGESTS[alpha, r]


# ---------------------------------------------------------------------------
# subordinator identities
# ---------------------------------------------------------------------------

# each test reads its check from the battery criterion 5 reads whole,
# `oracles.subordinator_checks`, so every quadrature runs once per session
def _assert_subordinator_check(name):
    check = subordinator_checks()[name]
    assert check.ok, check


@pytest.mark.parametrize("kappa,alpha,lam", SUBORDINATOR_POINTS)
def test_laplace_exponent_inverts_potential_transform(kappa, alpha, lam):
    _assert_subordinator_check(f"potential transform {kappa}-{alpha}-{lam}")


@pytest.mark.parametrize("kappa,alpha,lam", SUBORDINATOR_POINTS)
def test_laplace_exponent_from_levy_tail(kappa, alpha, lam):
    _assert_subordinator_check(f"levy tail transform {kappa}-{alpha}-{lam}")


@pytest.mark.parametrize("kappa,alpha,t0", LEVY_DENSITY_POINTS)
def test_levy_density_is_minus_tail_derivative(kappa, alpha, t0):
    _assert_subordinator_check(f"levy density {kappa}-{alpha}-{t0}")


@pytest.mark.parametrize("law", ["hitting normalization", "hitting integral form"])
def test_subordinator_laws(law):
    _assert_subordinator_check(law)


def test_potential_density_zero_drift():
    law = SubordinatorLaw(kappa=1.0, alpha=0.5)
    assert law.potential_density(1e-12) > 1e5  # u(0+) = infinity
    with pytest.raises(ValueError):
        law.potential_density(0.0)


def test_laplace_exponent_vanishes_at_zero():
    law = SubordinatorLaw(kappa=1.0, alpha=0.5)
    assert law.laplace_exponent(1e-8) < 1e-3
    with pytest.raises(ValueError):
        law.laplace_exponent(0.0)


@pytest.mark.parametrize("kappa", [0.0, 1.0, 25.0])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("a", [0.01, 0.5])
def test_hitting_cdf_grid_matches_density_tail(kappa, alpha, a):
    """The incomplete-beta hitting cdf on a 0.002 mesh from a to a + 6 is 1 minus
    the quadrature of the density's tail, at x - a = 0.01, 0.3 and 3.  The
    tail avoids the (x - a)^(alpha - 1) pole: at alpha = 0.1, 2.5% of the
    mass lies within 1e-16 a of a, out of reach of quadrature from a.  A
    trapezoid sum in (x - a)^alpha was off by up to 0.057 here."""
    law = SubordinatorLaw(kappa=kappa, alpha=alpha)
    xs = np.linspace(a, a + 6.0, 3001)
    grid = law.hitting_cdf_grid(a, xs)
    for i in (5, 150, 1500):  # x - a = 0.01, 0.3, 3 on the 0.002 mesh
        tail, _ = integrate(lambda t: law.hitting_density(a, t), xs[i], math.inf,
                            QuadratureSpec(tol=1e-13))
        assert grid[i] == pytest.approx(1.0 - tail, abs=1e-10)


@pytest.mark.parametrize("kappa", [0.0, 1.0])
def test_hitting_cdf_grid_domain(kappa):
    """The hitting cdf and density are 0 at and below the level, and a level
    that is not positive is rejected, as `hitting_density` rejects it."""
    law = SubordinatorLaw(kappa=kappa, alpha=0.5)
    grid = law.hitting_cdf_grid(0.5, np.array([0.0, 0.3, 0.4, 0.5, 0.6]))
    assert np.array_equal(grid[:4], np.zeros(4))
    assert law.hitting_density(0.5, 0.3) == law.hitting_density(0.5, 0.5) == 0.0
    assert 0.0 < grid[4] < 1.0
    for a in (0.0, -0.5):
        with pytest.raises(ValueError, match="level must be positive"):
            law.hitting_cdf_grid(a, np.array([0.3, 0.5]))


# ---------------------------------------------------------------------------
# bridge
# ---------------------------------------------------------------------------

def test_bridge_weight_identity():
    bridge = ConditionedBridgeLaw(SubordinatorLaw(kappa=1.0, alpha=0.5))
    assert bridge.bridge_weight(0.3, 0.3) == 1.0
    u = bridge.base.potential_density
    assert bridge.bridge_weight(0.2, 0.6) == pytest.approx(u(0.4) / u(0.8), rel=1e-12)
    with pytest.raises(ValueError):
        bridge.bridge_weight(0.2, 1.0)


def test_bridge_paths_terminate_at_one():
    bridge = ConditionedBridgeLaw(SubordinatorLaw(kappa=1.0, alpha=0.5))
    rng = np.random.default_rng(9)
    n_approx = 3000
    law = bridge.renewal_approximation(n_approx)
    for pts in bridge.sample_bridge_paths(n_approx, 25, rng, law=law):
        assert pts[0] == 0.0
        assert pts[-1] == 1.0
        assert np.all(np.diff(pts) > 0.0)


def test_bridge_paths_reject_a_law_of_another_resolution():
    """A law built at resolution 1000 has killing 1/1000 per step: passed at
    500 it drew bridges of the wrong law, and at 2000 it failed in the sampler."""
    bridge = ConditionedBridgeLaw(SubordinatorLaw(kappa=1.0, alpha=0.5))
    law = bridge.renewal_approximation(1000)
    for n_approx in (500, 2000):
        with pytest.raises(ValueError, match=f"law has horizon 1000, but n_approx is {n_approx}"):
            bridge.sample_bridge_paths(n_approx, 5, np.random.default_rng(1), law=law)


def test_bridge_time_reversal_symmetry():
    """Bridge paths at resolution 2000 follow the exact conditioned-path laws,
    whose first and last jumps share one law because a path's probability does
    not change when its gaps are reversed."""
    bridge = ConditionedBridgeLaw(SubordinatorLaw(kappa=1.0, alpha=0.5))
    rng = np.random.default_rng(13)
    n_approx = 2000
    law = bridge.renewal_approximation(n_approx)
    paths = [np.rint(pts * n_approx).astype(np.int64)
             for pts in bridge.sample_bridge_paths(n_approx, 3000, rng, law=law)]
    checks = conditioned_path_checks(law, n_approx, paths, (1, 2, 3, 5, 10, 30, 100, 300))
    assert all(check.ok for check in checks.values()), checks


# ---------------------------------------------------------------------------
# bridge crossing joint density
# ---------------------------------------------------------------------------

def test_crossing_joint_positivity_and_support():
    kappa, alpha, a, b = 1.0, 0.4, 0.3, 0.2
    assert bridge_crossing_joint_density(kappa, alpha, a, b, 0.45, 0.3) > 0.0
    assert bridge_crossing_joint_density(kappa, alpha, a, b, 0.2, 0.3) == 0.0
    assert bridge_crossing_joint_density(kappa, alpha, a, b, 0.45, 0.1) == 0.0
    assert bridge_crossing_joint_density(kappa, alpha, a, b, 0.9, 0.2) == 0.0


def test_crossing_joint_marginal_matches_weighted_hitting():
    """Integrating out the second coordinate recovers the h-transform-weighted
    hitting density of the underlying subordinator."""
    kappa, alpha, a, b = 1.0, 0.4, 0.3, 0.2
    law = SubordinatorLaw(kappa=kappa, alpha=alpha)
    u = law.potential_density
    for x in (0.45, 0.6, 0.75):
        marg, _ = integrate(lambda y: bridge_crossing_joint_density(kappa, alpha, a, b, x, y),
                            b, 1.0 - x, QuadratureSpec(tol=1e-11),
                            points=[b, 1.0 - x])
        expect = law.hitting_density(a, x) * u(1.0 - x) / u(1.0)
        assert marg == pytest.approx(expect, abs=1e-8)

