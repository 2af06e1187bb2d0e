import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup.analytics import (
    covered_extent_cdf,
    mass_avoiding_edges,
    mass_inside,
    mass_liftable,
    mass_through_vertex1,
    prob_no_winding_or_covering,
)
from loopsoup.circle import Loop, LoopType, build_model, classify_loop
from loopsoup.numerics import chi_square_two_sample
from loopsoup.sampler import (
    ClusterStats,
    SoupSample,
    _soup_tables,
    conditional_experiment,
    extract_clusters,
    philox_rng,
    sample_soup,
)

import oracles

MODEL = build_model(6, 0.55, 0.5, 0.8)


# ---------------------------------------------------------------------------
# construction tables
# ---------------------------------------------------------------------------

def test_min_vertex_masses_match_return_probabilities():
    """The Poisson intensities of the closed-form tables agree with
    -log(1 - return probability) of the excursion walk at every base."""
    for model in (MODEL, build_model(9, 0.5, 0.2, 1.0), build_model(4, 0.7, 0.9, 0.3)):
        tables = _soup_tables(model)
        for base0, m in zip(tables.bases, tables.masses):
            rho = oracles.return_probability(model, int(base0))
            assert m == pytest.approx(-math.log1p(-rho), rel=1e-10)


@settings(deadline=None, max_examples=60)
@given(n=st.integers(3, 500), p=st.floats(0.05, 0.95), c=st.floats(1e-6, 2.0))
def test_reach_mass_table_matches_arc_mass_differences(n, p, c):
    """D(k) starts at 0, never decreases, and is the mass of the loops inside
    a (k+1)-vertex arc that visit its left end."""
    model = build_model(n, p, c, 1.0)
    reach = _soup_tables(model).reach_mass
    assert reach[0] == 0.0
    assert np.all(np.diff(reach) >= 0.0)
    arcs = np.array([mass_inside(model, range(1, k + 1)) for k in range(1, n)])
    np.testing.assert_allclose(reach[1:], np.diff(arcs), rtol=1e-10)


def test_sampling_requires_killing():
    m0 = build_model(6, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        sample_soup(m0, 1)
    with pytest.raises(ValueError):
        conditional_experiment(m0, 1, "unconditioned", 10)


def test_zero_intensity_soup_is_empty():
    model = build_model(6, 0.55, 0.5, 0.0)
    assert sample_soup(model, 3).loops == ()
    ens = conditional_experiment(model, 3, "unconditioned", 50)
    assert np.all(ens.loop_count == 0)
    assert np.all(ens.closed_edge_count == 6)


def test_sample_soup_deterministic():
    a = sample_soup(MODEL, 1234)
    b = sample_soup(MODEL, 1234)
    assert a == b
    c = sample_soup(MODEL, 1235)
    assert a != c  # overwhelmingly likely


def test_philox_rng_rejects_out_of_range_seeds():
    for seed in (-1, 2 ** 64, 2 ** 64 + 5):
        with pytest.raises(ValueError):
            philox_rng(seed)
    top = philox_rng(2 ** 64 - 1).random(4)
    assert not np.array_equal(top, philox_rng(0).random(4))


def test_conditional_experiment_deterministic():
    e1 = conditional_experiment(MODEL, 99, "unconditioned", 300, keep_closed_edges=True)
    e2 = conditional_experiment(MODEL, 99, "unconditioned", 300, keep_closed_edges=True)
    assert np.array_equal(e1.closed_edge_count, e2.closed_edge_count)
    assert all(np.array_equal(x, y) for x, y in zip(e1.closed_edges, e2.closed_edges))


def test_sampled_loops_are_valid_and_respect_condition():
    rng = philox_rng(5)
    for _ in range(60):
        sample = sample_soup(MODEL, rng)
        for loop in sample.loops:
            # validity is enforced by Loop construction; check the base rule:
            # every loop visits its minimal vertex and stays on the circle
            assert 1 <= min(loop.vertices) <= MODEL.n
            assert len(loop.vertices) >= 2


# ---------------------------------------------------------------------------
# cluster extraction on hand-built soups
# ---------------------------------------------------------------------------

def _soup_of(*vertex_lists, n):
    return SoupSample(loops=tuple(Loop.from_pointed(v, n) for v in vertex_lists),
                      seed=None)


def test_extract_empty_soup():
    model = build_model(5, 0.5, 0.5, 1.0)
    stats = extract_clusters(model, _soup_of(n=5))
    assert stats.open_edges == ()
    assert stats.cluster_count == 5
    assert stats.closed_left_endpoints == (1, 2, 3, 4, 5)
    assert stats.partition == ((2,), (3,), (4,), (5,), (1,))
    assert stats.origin_left == 0 and stats.origin_right == 0
    assert stats.through_left == 0 and stats.through_right == 0
    assert stats.lift_left == 0 and stats.lift_right == 0


def test_extract_single_winding_loop():
    model = build_model(5, 0.5, 0.5, 1.0)
    stats = extract_clusters(model, _soup_of((1, 2, 3, 4, 5), n=5))
    assert stats.cluster_count == 1
    assert stats.closed_left_endpoints == ()
    assert stats.origin_left is None and stats.origin_right is None
    assert len(stats.partition) == 1 and len(stats.partition[0]) == 5


def test_extract_two_cycle_at_origin():
    model = build_model(5, 0.5, 0.5, 1.0)
    stats = extract_clusters(model, _soup_of((1, 2), n=5))
    assert stats.open_edges == (1,)
    assert stats.cluster_count == 4
    assert stats.origin_left == 0 and stats.origin_right == 1
    assert stats.through_left == 0 and stats.through_right == 1
    assert stats.lift_left == 0 and stats.lift_right == 1
    assert set(stats.partition) == {(2,), (3,), (4,), (5, 1)} or \
        any(set(block) == {1, 2} for block in stats.partition)


def test_extract_one_closed_edge_counts_as_split():
    # loops covering all edges but one: single arc, one cluster, split sample
    model = build_model(4, 0.5, 0.5, 1.0)
    stats = extract_clusters(model, _soup_of((1, 2), (2, 3), (3, 4), n=4))
    assert stats.closed_left_endpoints == (4,)
    assert stats.cluster_count == 1
    assert len(stats.partition) == 1 and len(stats.partition[0]) == 4
    assert stats.origin_left == 0 and stats.origin_right == 3


def test_extract_through_extents_need_no_avoiding_loops():
    model = build_model(6, 0.5, 0.5, 1.0)
    stats = extract_clusters(model, _soup_of((1, 2), (4, 5), n=6))
    assert stats.origin_left == 0 and stats.origin_right == 1
    assert stats.through_left is None  # an avoiding loop is present
    mixed = extract_clusters(model, _soup_of((1, 2), (1, 6), n=6))
    assert mixed.through_left == 1 and mixed.through_right == 1


def test_extract_lift_extents():
    model = build_model(6, 0.5, 0.5, 1.0)
    # lift of (1,2,3,2) spans [0, 2]; lift of (1, 6) spans [-1, 0]
    stats = extract_clusters(model, _soup_of((1, 2, 3, 2), (1, 6), n=6))
    assert stats.lift_left == 1 and stats.lift_right == 2


def test_cluster_count_equals_closed_edges_when_any():
    rng = philox_rng(17)
    for _ in range(200):
        sample = sample_soup(MODEL, rng)
        stats = extract_clusters(MODEL, sample)
        k_e = len(stats.closed_left_endpoints)
        assert stats.cluster_count == (k_e if k_e else 1)
        assert len(stats.partition) == stats.cluster_count
        assert sorted(v for block in stats.partition for v in block) == list(range(1, 7))
        if stats.origin_left is not None:
            assert stats.origin_left + stats.origin_right <= MODEL.n - 1


# ---------------------------------------------------------------------------
# distributional correctness, object sampler
# ---------------------------------------------------------------------------

def test_loop_count_distribution():
    """Total loop count is Poisson with mean alpha * total mass."""
    reps = 4000
    rng = philox_rng(2024)
    counts = np.array([len(sample_soup(MODEL, rng).loops) for _ in range(reps)])
    lam = MODEL.alpha * mass_inside(MODEL, range(1, MODEL.n + 1))
    assert counts.mean() == pytest.approx(lam, abs=4 * math.sqrt(lam / reps))
    assert counts.var() == pytest.approx(lam, rel=0.15)


def test_no_loop_through_vertex1_probability():
    reps = 4000
    rng = philox_rng(31)
    hits = 0
    for _ in range(reps):
        sample = sample_soup(MODEL, rng)
        if not any(1 in loop.vertices for loop in sample.loops):
            hits += 1
    p = math.exp(-MODEL.alpha * mass_through_vertex1(MODEL))
    se = math.sqrt(p * (1 - p) / reps)
    assert hits / reps == pytest.approx(p, abs=3.5 * se)


def test_no_winding_or_covering_probability():
    reps = 4000
    rng = philox_rng(37)
    hits = 0
    for _ in range(reps):
        sample = sample_soup(MODEL, rng)
        kinds = [classify_loop(MODEL, loop) for loop in sample.loops]
        if not any(k in (LoopType.WINDING, LoopType.NON_LIFTABLE) for k in kinds):
            hits += 1
    p = prob_no_winding_or_covering(MODEL)
    se = math.sqrt(p * (1 - p) / reps)
    assert hits / reps == pytest.approx(p, abs=3.5 * se)


def test_no_liftable_probability():
    reps = 4000
    rng = philox_rng(41)
    hits = 0
    for _ in range(reps):
        if not any(classify_loop(MODEL, loop) is LoopType.LIFTABLE
                   for loop in sample_soup(MODEL, rng).loops):
            hits += 1
    p = math.exp(-MODEL.alpha * mass_liftable(MODEL))
    se = math.sqrt(p * (1 - p) / reps)
    assert hits / reps == pytest.approx(p, abs=3.5 * se)


def test_type_counts_independent():
    """Counts of avoiding and liftable loops are uncorrelated (independent
    Poisson restrictions)."""
    reps = 6000
    rng = philox_rng(43)
    a_counts, l_counts = [], []
    for _ in range(reps):
        kinds = [classify_loop(MODEL, loop) for loop in sample_soup(MODEL, rng).loops]
        a_counts.append(sum(k is LoopType.AVOIDING for k in kinds))
        l_counts.append(sum(k is LoopType.LIFTABLE for k in kinds))
    corr = np.corrcoef(a_counts, l_counts)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(reps)


def test_edge_closure_probability_object_sampler():
    reps = 4000
    rng = philox_rng(47)
    closed_counts = np.zeros(MODEL.n)
    for _ in range(reps):
        stats = extract_clusters(MODEL, sample_soup(MODEL, rng))
        for e in stats.closed_left_endpoints:
            closed_counts[e - 1] += 1
    total = mass_inside(MODEL, range(1, MODEL.n + 1))
    for e in range(1, MODEL.n + 1):
        u, v = e, e % MODEL.n + 1
        p = math.exp(-MODEL.alpha * (total - mass_avoiding_edges(MODEL, [(u, v), (v, u)])))
        se = math.sqrt(p * (1 - p) / reps)
        assert closed_counts[e - 1] / reps == pytest.approx(p, abs=4 * se)


# ---------------------------------------------------------------------------
# conditioning and the block engine
# ---------------------------------------------------------------------------

def test_conditions_restrict_bases():
    ens_thru = conditional_experiment(MODEL, 7, "through-1-only", 400)
    assert np.all(ens_thru.avoiding_count == 0)
    ens_avoid = conditional_experiment(MODEL, 7, "avoiding-1-only", 400)
    assert np.all(ens_avoid.winding_or_cover_count == 0)
    assert np.all(ens_avoid.lift_left == 0) and np.all(ens_avoid.lift_right == 0)
    # edges at vertex 1 never open under the avoiding condition
    assert np.all(ens_avoid.origin_left == 0)
    assert np.all(ens_avoid.origin_right == 0)
    with pytest.raises(ValueError):
        conditional_experiment(MODEL, 7, "no-such-condition", 10)


def test_block_engine_matches_object_sampler_distribution():
    """The vectorized engine and the loop-object sampler draw from the same
    law: chi-square homogeneity on the closed-edge count distribution."""
    reps = 3000
    rng = philox_rng(53)
    counts_obj = np.zeros(MODEL.n + 1)
    for _ in range(reps):
        stats = extract_clusters(MODEL, sample_soup(MODEL, rng))
        counts_obj[len(stats.closed_left_endpoints)] += 1
    ens = conditional_experiment(MODEL, 54, "unconditioned", reps)
    counts_eng = np.bincount(ens.closed_edge_count, minlength=MODEL.n + 1)
    _, p = chi_square_two_sample(counts_obj, counts_eng)
    assert p > 1e-3


def test_block_engine_matches_object_sampler_extents():
    reps = 3000
    rng = philox_rng(59)
    lefts = []
    for _ in range(reps):
        stats = extract_clusters(MODEL, sample_soup(MODEL, rng))
        lefts.append(-1 if stats.origin_left is None else stats.origin_left)
    ens = conditional_experiment(MODEL, 60, "unconditioned", reps)
    bins = np.arange(-1, MODEL.n + 1)
    c1, _ = np.histogram(lefts, bins=bins)
    c2, _ = np.histogram(ens.origin_left, bins=bins)
    _, p = chi_square_two_sample(c1, c2)
    assert p > 1e-3


def _joint_counts(a_obj, b_obj, a_eng, b_eng):
    """Paired contingency counts of two samples of (a, b) pairs; cells seen
    fewer than 20 times in both samples together share one bin."""
    obj = np.stack([a_obj, b_obj], axis=1)
    eng = np.stack([a_eng, b_eng], axis=1)
    cells, inverse = np.unique(np.concatenate([obj, eng]), axis=0, return_inverse=True)
    inverse = inverse.ravel()
    c_obj = np.bincount(inverse[:len(obj)], minlength=len(cells))
    c_eng = np.bincount(inverse[len(obj):], minlength=len(cells))
    rare = c_obj + c_eng < 20
    return (np.append(c_obj[~rare], c_obj[rare].sum()),
            np.append(c_eng[~rare], c_eng[rare].sum()))


def test_block_engine_matches_object_sampler_joint_laws():
    """Chi-square homogeneity of the engine and the loop-object sampler on
    (liftable count, lift_right) and on (avoiding count, closed-edge count):
    counts and extents must be drawn jointly, not just with the right
    marginals."""
    reps = 4000
    rng = philox_rng(67)
    obj = np.zeros((reps, 4), dtype=np.int64)
    for i in range(reps):
        sample = sample_soup(MODEL, rng)
        stats = extract_clusters(MODEL, sample)
        kinds = [classify_loop(MODEL, loop) for loop in sample.loops]
        obj[i] = (kinds.count(LoopType.LIFTABLE), stats.lift_right,
                  kinds.count(LoopType.AVOIDING), len(stats.closed_left_endpoints))
    ens = conditional_experiment(MODEL, 68, "unconditioned", reps)
    liftable = ens.loop_count - ens.avoiding_count - ens.winding_or_cover_count
    for a_eng, b_eng, cols in ((liftable, ens.lift_right, (0, 1)),
                               (ens.avoiding_count, ens.closed_edge_count, (2, 3))):
        c1, c2 = _joint_counts(obj[:, cols[0]], obj[:, cols[1]], a_eng, b_eng)
        _, p = chi_square_two_sample(c1, c2)
        assert p > 1e-3, cols


def test_engine_split_fraction_matches_analytic_small_n():
    """P[some edge closed] has an inclusion-exclusion closed form at n = 4."""
    model = build_model(4, 0.5, 0.8, 0.6)
    config_probs = oracles.edge_config_probabilities(model, mass_avoiding_edges)
    p_some_closed = 1.0 - config_probs[frozenset()]
    ens = conditional_experiment(model, 71, "unconditioned", 40_000)
    se = math.sqrt(p_some_closed * (1 - p_some_closed) / 40_000)
    assert ens.split_fraction == pytest.approx(p_some_closed, abs=4 * se)


def test_lift_extent_law_matches_covered_extent_cdf():
    """Empirical P[swept lift interval within [-m, M]] against the closed form
    (3 standard errors on a grid)."""
    model = build_model(20, 0.5, 0.02, 0.7)
    reps = 20_000
    ens = conditional_experiment(model, 83, "through-1-only", reps)
    for (m, M) in [(0, 0), (1, 2), (3, 3), (5, 8), (10, 10)]:
        p = covered_extent_cdf(model, m, M)
        emp = float(np.mean((ens.lift_left <= m) & (ens.lift_right <= M)))
        se = math.sqrt(p * (1 - p) / reps)
        assert emp == pytest.approx(p, abs=3.5 * se), (m, M)


def test_conditioned_soup_first_jump_ks_n200():
    """First closed-edge gap of the conditioned soup at n=200 against the
    conditioned renewal sampler: two-sample KS below the 1% critical value."""
    from loopsoup.numerics import ks_critical, ks_distance_two_sample
    from loopsoup.scaling import RenewalLaw, sample_conditioned_renewals

    n, reps = 200, 10_000
    model = build_model(n, 0.5, 1.0 / (2 * n * n), 0.5)
    ens = conditional_experiment(model, 61, "avoiding-1-only", reps,
                                 keep_closed_edges=True)
    soup_firsts = np.array([closed[1] for closed in ens.closed_edges])
    law = RenewalLaw.build(0.5, model.r, n - 1)
    rng = np.random.default_rng(62)
    renewal_firsts = np.array([path[1] for path in
                               sample_conditioned_renewals(law, n - 1, reps, rng)])
    d = ks_distance_two_sample(soup_firsts, renewal_firsts)
    assert d < ks_critical(reps, reps, level=0.01)


def test_single_partition_fraction_increases_with_alpha():
    n = 8
    fractions = []
    for alpha in (0.3, 0.8, 1.5):
        model = build_model(n, 0.5, 0.05, alpha)
        ens = conditional_experiment(model, 63, "unconditioned", 4000)
        fractions.append(1.0 - ens.split_fraction)
    assert fractions[0] < fractions[1] < fractions[2]


def test_segment_conditioning_never_opens_boundary_edges():
    """Under avoiding-1-only the two edges at vertex 1 stay closed in every
    replicate, even at tiny killing where excursions wander far (regression:
    escaped walkers must never re-enter their arc)."""
    n = 100
    model = build_model(n, 0.5, 1.0 / (2 * n * n), 0.5)
    ens = conditional_experiment(model, 3, "avoiding-1-only", 500,
                                 keep_closed_edges=True)
    assert ens.split_fraction == 1.0
    for closed in ens.closed_edges:
        assert 0 in closed and n - 1 in closed
    assert np.all(ens.closed_edge_count >= 2)


def test_workers_do_not_change_results():
    e1 = conditional_experiment(MODEL, 11, "unconditioned", 2500, block_size=512)
    e2 = conditional_experiment(MODEL, 11, "unconditioned", 2500, block_size=512,
                                workers=2)
    assert np.array_equal(e1.closed_edge_count, e2.closed_edge_count)
    assert np.array_equal(e1.origin_left, e2.origin_left)
