import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsoup import sampler
from loopsoup.analytics import mass_inside, mass_liftable, mass_liftable_inside, origin_extent_pmf
from loopsoup.circle import Loop, build_model
from loopsoup.numerics import cell_check, z_check
from loopsoup.sampler import (
    CONDITIONS, SoupSample, _soup_tables, conditional_experiment, extract_clusters, philox_rng,
    sample_soup,
)
from loopsoup.scaling import RenewalLaw

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
        for base0, m in enumerate(tables.masses):
            rho = oracles.return_probability(model, int(base0))
            assert m == pytest.approx(-math.log1p(-rho), rel=1e-10)


@settings(deadline=None, max_examples=60)
@given(n=st.integers(3, 500), p=st.floats(0.05, 0.95), c=st.floats(1e-6, 2.0))
def test_reach_mass_table_matches_arc_mass_differences(n, p, c):
    """D(k) starts at 0, never decreases over the whole table D(0..2n-2), and
    for k <= n-2 is the mass of the loops inside a (k+1)-vertex arc that visit
    its left end."""
    model = build_model(n, p, c, 1.0)
    reach = _soup_tables(model).reach_mass
    assert reach.size == 2 * n - 1
    assert reach[0] == 0.0
    assert np.all(np.diff(reach) >= 0.0)
    arcs = np.array([mass_inside(model, range(1, k + 1)) for k in range(1, n)])
    np.testing.assert_allclose(reach[1:n - 1], np.diff(arcs), rtol=1e-10)


@pytest.mark.parametrize("n, p, c", [(12, 0.55, 0.4), (50, 0.3, 0.01), (400, 0.5, 1e-5),
                                     (2000, 0.5, 2.0), (2000, 0.9, 1e-6)])
def test_lift_tables_match_liftable_mass_differences(n, p, c):
    """The liftable loops whose lift through 0 stays in [-a, b] and reaches b
    have mass M(a, b) - M(a, b-1) = D(a+b) - D(b-1) (D(-1) = 0) at every
    a, b in 0..n-1, and the right-end table W sums that over a = n-1 up to
    the closed-form liftable mass, also at large n*r."""
    model = build_model(n, p, c, 1.0)
    tables = _soup_tables(model)
    D, a = tables.reach_mass, np.arange(n)
    for b in range(n):  # one b at a time: the full n x n grid would take 300 MB
        below = mass_liftable_inside(model, a, b - 1) if b else 0.0
        gap = D[a + b] - D[max(b - 1, 0)] - (mass_liftable_inside(model, a, b) - below)
        assert np.max(np.abs(gap)) < 1e-13, b
    W = tables.lift_right_mass
    assert W.size == n and np.all(np.diff(W) >= 0.0)
    assert W[-1] == pytest.approx(mass_liftable(model), rel=1e-12)
    assert W[-1] == pytest.approx(tables.liftable_mass, rel=1e-12)


@pytest.mark.parametrize("n, c", [(2000, 2.0), (60, 30.0)])
def test_lift_extents_stay_on_the_circle(n, c):
    """Where D saturates in floating point the left-end target can round onto
    an end of its range; both lift columns still lie in 0..n-1."""
    ens = conditional_experiment(build_model(n, 0.5, c, 1.0), 5, "through-1-only", 100_000)
    for column in (ens.lift_left, ens.lift_right):
        assert column.min() >= 0 and column.max() <= n - 1


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
    assert np.array_equal(e1.closed_edges, e2.closed_edges)


@pytest.mark.parametrize("condition", CONDITIONS)
def test_closed_edge_column_invariants(condition):
    """The flat closed-edge column, over more than one block: kept or not it
    leaves every other field alone, each replicate's slice rises strictly from
    origin_right to n - 1 - origin_left, and it sums to the per-edge totals."""
    n, reps = 8, 2500
    model = build_model(n, 0.5, 0.3, 0.7)
    kept = conditional_experiment(model, 17, condition, reps, keep_closed_edges=True)
    bare = conditional_experiment(model, 17, condition, reps)
    assert bare.closed_edges is None
    for f in dataclasses.fields(kept):
        if f.name != "closed_edges":
            assert np.array_equal(getattr(kept, f.name), getattr(bare, f.name)), f.name
    count, flat = kept.closed_edge_count, kept.closed_edges
    assert flat.size == count.sum()
    owner = np.repeat(np.arange(reps), count)
    same = owner[1:] == owner[:-1]
    assert np.all(np.diff(flat)[same] > 0)
    ends = np.cumsum(count)
    some = count >= 1
    assert np.array_equal(flat[(ends - count)[some]], kept.origin_right[some])
    assert np.array_equal(flat[ends[some] - 1], n - 1 - kept.origin_left[some])
    assert np.array_equal(np.bincount(flat, minlength=n), kept.closed_edge_totals)


_COLUMNS = ("loop_count", "avoiding_count", "winding_or_cover_count", "closed_edge_count",
            "origin_left", "origin_right", "lift_left", "lift_right")


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("n", [12, 601])
def test_chunked_engine_is_prefix_stable(n, condition):
    """Blocks are drawn on their own streams and reduced in chunks, so the
    first k blocks of a run spanning more than three chunks are a k-block
    run, column by column and in the closed edges, whether the k blocks end
    inside a chunk or on its boundary."""
    B = 1024  # the block size below n = 4096
    chunk = max(1, sampler._CHUNK_CELLS // (B * n)) * B
    reps = max(3 * chunk, 4 * B) + 500
    model = build_model(n, 0.5, 0.3 / n, 0.7)
    full = conditional_experiment(model, 23, condition, reps, keep_closed_edges=True)
    for k in (1, 3, 4):
        part = conditional_experiment(model, 23, condition, k * B, keep_closed_edges=True)
        for name in _COLUMNS:
            assert np.array_equal(getattr(part, name), getattr(full, name)[:k * B]), (k, name)
        edges = int(part.closed_edge_count.sum())
        assert np.array_equal(part.closed_edges, full.closed_edges[:edges]), k


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
# the exact-law battery, on the range-law engine and the loop-object sampler
# ---------------------------------------------------------------------------

# name: draw(model, seed, condition, replicates) -> SoupEnsemble with its closed edges
ENGINES = {
    "range-law": lambda model, seed, condition, reps: conditional_experiment(
        model, seed, condition, reps, keep_closed_edges=True),
    "object": lambda model, seed, condition, reps: oracles.object_ensemble(
        model, seed, reps)[condition],
}

# (n, p, c, alpha), seed, conditions, replicates by engine; an engine runs on the
# rows giving it replicates.  At n = 100 and 200 the killing is 1/(2n^2), so the
# one-point law's sure cells check that escaped walkers never re-enter their arc.
KEEPING_1 = ("unconditioned", "through-1-only")
BATTERY = [
    ((6, 0.55, 0.5, 0.8), 2024, CONDITIONS, {"range-law": 20_000, "object": 6000}),
    ((7, 0.65, 0.2, 0.5), 701, KEEPING_1, {"range-law": 200_000, "object": 2000}),
    ((5, 0.6, 0.5, 1.3), 501, KEEPING_1, {"range-law": 200_000, "object": 2000}),
    ((6, 0.55, 0.3, 0.7), 601, KEEPING_1, {"range-law": 200_000, "object": 2000}),
    ((12, 0.5, 0.1, 0.5), 11, ("avoiding-1-only",), {"range-law": 200_000}),
    ((30, 0.7, 0.2, 0.8), 11, ("avoiding-1-only",), {"range-law": 200_000}),
    ((9, 0.4, 0.3, 1.3), 11, ("avoiding-1-only",), {"range-law": 200_000}),
    ((100, 0.5, 1.0 / 20_000, 0.5), 3, ("avoiding-1-only",), {"range-law": 5000}),
    ((200, 0.5, 1.0 / 80_000, 0.5), 61, ("avoiding-1-only",), {"range-law": 10_000}),
    ((20, 0.5, 0.02, 0.7), 83, ("through-1-only",), {"range-law": 30_000}),
    # the single-partition runner's first model
    ((50, 0.5, 1.0 / 5000, 0.5), 5, ("unconditioned",), {"range-law": 20_000}),
]


@pytest.mark.parametrize("params", [params for params, *_ in BATTERY if params[0] <= 7])
def test_origin_extent_pmf_sums_the_configuration_law(params):
    """`origin_extent_pmf` is the inclusion-exclusion configuration law summed
    by first closed edge x and last closed edge y, at origin_left = n - 1 - y
    and origin_right = x."""
    model = build_model(*params)
    n = model.n
    expect = np.zeros((n, n))
    for mask, prob in enumerate(oracles.edge_config_probabilities(model)[1:], start=1):
        expect[n - mask.bit_length(), (mask & -mask).bit_length() - 1] += prob
    np.testing.assert_allclose(origin_extent_pmf(model), expect, rtol=0, atol=1e-14)


@pytest.mark.parametrize("params", [params for params, *_ in BATTERY if params[0] <= 7]
                         + [(8, 0.3, 0.4, 1.6)])
def test_closed_edges_are_a_cyclic_renewal(params):
    """Every nonempty closed-edge set, with cyclic gaps k_1 .. k_m, has
    probability Pi_n w(k_1) ... w(k_m): w the jump pmf of
    `RenewalLaw.build(alpha, r, n)`, Pi_n = (2 e^(-nr) (cosh nr - cosh nd))^alpha
    and d the half log-drift.  This is the inclusion-exclusion configuration
    law to 1e-14, set by set, and the identity `origin_extent_pmf` sums."""
    model = build_model(*params)
    n, r = model.n, model.r
    d = abs(math.log(model.p / (1.0 - model.p))) / 2.0
    pi = (2.0 * math.exp(-n * r) * (math.cosh(n * r) - math.cosh(n * d))) ** model.alpha
    w = RenewalLaw.build(model.alpha, r, n).w
    expect = [pi * np.prod(w[np.diff(closed + [closed[0] + n])])
              for closed in ([e for e in range(n) if mask >> e & 1] for mask in range(1, 1 << n))]
    np.testing.assert_allclose(oracles.edge_config_probabilities(model)[1:], expect,
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("engine, params, seed, condition, reps", [
    pytest.param(engine, params, seed, condition, reps[engine],
                 id=f"{engine}-{params}-{condition}")
    for params, seed, conditions, reps in BATTERY
    for engine in ENGINES if engine in reps
    for condition in conditions])
def test_exact_laws(engine, params, seed, condition, reps):
    """Every exact law defined at the condition and n holds for the engine's
    draw (`oracles.exact_law_checks`; each law's false-alarm rate is 1e-3)."""
    model = build_model(*params)
    checks = oracles.exact_law_checks(ENGINES[engine](model, seed, condition, reps), model)
    assert checks and all(check.ok for check in checks.values()), checks


def test_object_sampler_winding_sign_law():
    """Reflection through vertex 1 maps a loop of winding w to one of winding
    -w and scales its mass by rho^w, rho = (p/(1-p))^n, so a loop of |w| = 1
    in the soup winds clockwise (w = +1) with probability rho/(1+rho): 0.88
    here, and 0.12 if the walk's two step directions were swapped."""
    model = build_model(5, 0.6, 0.2, 1.0)
    rng = philox_rng(5)
    once = [loop.winding for _ in range(4000) for loop in sample_soup(model, rng).loops
            if abs(loop.winding) == 1]
    rho = (model.p / (1.0 - model.p)) ** model.n
    check = cell_check("winding sign", [once.count(1)], [rho / (1.0 + rho)], len(once))
    assert check.ok, check


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


# two-sample checks of the engine against the object sampler where no exact law
# is at hand, on MODEL's battery draws
def _model_draws():
    """MODEL's unconditioned draws of its battery row: (object sampler, range-law)."""
    _, seed, _, reps = BATTERY[0]
    return [ENGINES[e](MODEL, seed, "unconditioned", reps[e]) for e in ("object", "range-law")]


def _liftable(ens):
    return ens.loop_count - ens.avoiding_count - ens.winding_or_cover_count


def test_type_counts_independent():
    """Counts of avoiding and liftable loops are uncorrelated (independent
    Poisson restrictions): corr sqrt(R) is about standard normal."""
    obj, _ = _model_draws()
    corr = np.corrcoef(obj.avoiding_count, _liftable(obj))[0, 1]
    assert z_check("type counts", corr * math.sqrt(obj.replicates)).ok


@pytest.mark.parametrize("columns", [
    lambda ens: (ens.closed_edge_count,),
    lambda ens: (ens.origin_left,),
    lambda ens: (_liftable(ens), ens.lift_right),
    lambda ens: (ens.avoiding_count, ens.closed_edge_count),
], ids=["closed-edge-count", "origin-left", "liftable-and-lift-right",
        "avoiding-and-closed-edge-count"])
def test_block_engine_matches_object_sampler(columns):
    """Chi-square homogeneity, p > 1e-3, of the engine and the loop-object
    sampler on the closed-edge count, origin_left and two joint laws (counts
    and extents must be drawn jointly, not just with the right marginals);
    cells seen fewer than 20 times in both draws together share one bin."""
    draws = [np.stack(columns(ens), axis=1) for ens in _model_draws()]
    cells, inverse = np.unique(np.concatenate(draws), axis=0, return_inverse=True)
    counts = [np.bincount(part, minlength=len(cells))
              for part in np.split(inverse.ravel(), [len(draws[0])])]
    rare = counts[0] + counts[1] < 20
    _, p = oracles.chi_square_two_sample(*(np.append(c[~rare], c[rare].sum()) for c in counts))
    assert p > 1e-3


def test_single_partition_fraction_increases_with_alpha():
    n = 8
    fractions = []
    for alpha in (0.3, 0.8, 1.5):
        model = build_model(n, 0.5, 0.05, alpha)
        ens = conditional_experiment(model, 63, "unconditioned", 4000)
        fractions.append(1.0 - ens.split_fraction)
    assert fractions[0] < fractions[1] < fractions[2]
