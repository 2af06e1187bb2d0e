"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here; seeds are fixed so the suite is deterministic.  Every Monte Carlo
sample of an exact law is gated by the `loopsoup.numerics.LawCheck` verdicts of its
laws: a law fails when its Bonferroni-corrected exact p-value is below 1e-3,
so on a correct program each law raises a false alarm at most 1e-3 of the
time (the path-law battery at most 1e-3 in all).
"""

import math
import time

import numpy as np
import pytest

import oracles
from loopsoup.analytics import DetSpec, circulant_det, toeplitz_det
from loopsoup.circle import build_model
from loopsoup.experiments import (
    default_cluster_scaling_config,
    default_single_partition_config,
    run_cluster_scaling,
    run_single_partition_convergence,
)
from loopsoup.numerics import ks_distance_two_sample
from loopsoup.sampler import conditional_experiment
from loopsoup.scaling import (
    ConditionedBridgeLaw,
    RenewalLaw,
    SubordinatorLaw,
    hitting_coefficients,
    invert_renewal,
    sample_conditioned_renewals,
)


def _verdict(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} -- {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _law_summary(checks) -> str:
    """Every law's p-value and worst |z|, for a criterion line."""
    return ", ".join(f"{c.law} p {c.p:.3g} (|z| {c.worst_z:.2f})" for c in checks.values())


# ---------------------------------------------------------------------------
# 1. brute-force oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_brute_force_oracle():
    """`oracles.mass_checks` on this model with loops enumerated to length 14:
    every closed-form mass against enumeration (bound: the series tail past
    14, ~8.9e-5), the trace series to K = 140 (1e-10) and dense LU (relative
    1e-12), and the class decomposition (1e-12)."""
    t0 = time.time()
    checks = oracles.mass_checks(build_model(4, 0.5, 0.8, 1.0), 14)
    worst = max(check.gap for law, check in checks.items() if law.endswith("vs series"))
    tail_enum = checks["inside vs enumeration"].bound
    elapsed = time.time() - t0
    ok = all(check.ok for check in checks.values()) and elapsed < 60.0
    _verdict(1, "brute-force oracle equivalence",
             ok, f"max closed-vs-series gap {worst:.2e}, decomposition gap "
                 f"{checks['decomposition'].gap:.2e}, enum tail bound {tail_enum:.2e}, "
                 f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. sampler exactness on the full edge-configuration distribution
# ---------------------------------------------------------------------------

def test_criterion_2_sampler_exactness():
    t0 = time.time()
    model = build_model(4, 0.5, 0.8, 0.6)
    reps = 1_000_000
    ens = conditional_experiment(model, 20240701, "unconditioned", reps,
                                 keep_closed_edges=True)
    checks = oracles.exact_law_checks(ens, model)
    elapsed = time.time() - t0
    ok = all(c.ok for c in checks.values()) and elapsed < 300.0
    _verdict(2, "sampler exactness (16 edge configurations, 1e6 replicates)",
             ok, f"{_law_summary(checks)}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 3. determinant identities
# ---------------------------------------------------------------------------

def test_criterion_3_determinant_identities():
    rng = np.random.default_rng(303)
    worst = 0.0
    for n in range(3, 9):
        for _ in range(20):
            a, b, c = rng.uniform(-2.0, 2.0, size=3)
            spec = DetSpec(a, b, c, n)
            T = np.zeros((n, n))
            for i in range(n):
                T[i, i] = a
                if i + 1 < n:
                    T[i, i + 1] = b
                    T[i + 1, i] = c
            S = T.copy()
            S[0, n - 1] = c
            S[n - 1, 0] = b
            lu_t, lu_c = np.linalg.det(T), np.linalg.det(S)
            worst = max(worst,
                        abs(toeplitz_det(spec) - lu_t) / max(abs(lu_t), 1e-6),
                        abs(circulant_det(spec) - lu_c) / max(abs(lu_c), 1e-6))
    degenerate = toeplitz_det(DetSpec(2, 1, 1, 3))
    ok = worst < 1e-10 and degenerate == pytest.approx(4.0, abs=1e-12)
    _verdict(3, "Toeplitz/circulant determinants vs dense LU",
             ok, f"worst relative error {worst:.2e}, degenerate 3x3 value {degenerate}")


# ---------------------------------------------------------------------------
# 4. renewal inversion round trip and conditioned sampler law
# ---------------------------------------------------------------------------

def test_criterion_4_renewal_inversion_and_sampler():
    C = hitting_coefficients(0.4, 0.01, 2000)
    w = invert_renewal(C)
    worst = max(abs(float(np.dot(w[1:m + 1], C[:m][::-1])) - C[m])
                for m in range(1, 2001))
    round_trip_ok = worst < 1e-10

    # 1e5 paths to 100 from RenewalLaw.build(0.5, 0.02, 100), seed 404
    sampled, checks = oracles.conditioned_draw()
    terminated = all(path[-1] == 100 for path in sampled)
    ok = round_trip_ok and terminated and all(c.ok for c in checks.values())
    _verdict(4, "renewal C->w->C round trip and conditioned sampler",
             ok, f"round-trip error {worst:.2e}, all {len(sampled)} paths hit 100: "
                 f"{terminated}, {_law_summary(checks)}")


# ---------------------------------------------------------------------------
# 5. subordinator identity suite
# ---------------------------------------------------------------------------

def test_criterion_5_subordinator_identities():
    """`oracles.subordinator_checks`, the battery the unit tests read: the
    Laplace exponent against the transforms of the potential density and the
    Levy tail and the Levy density against the tail's derivative (each 1e-8),
    the hitting density's normalization (1e-6) and its integral form (1e-8)."""
    checks = oracles.subordinator_checks()
    worst = max(checks.values(), key=lambda check: check.gap / check.bound)
    _verdict(5, "subordinator identity suite",
             all(check.ok for check in checks.values()),
             f"{len(checks)} checks, nearest its bound: {worst.law} gap "
             f"{worst.gap:.2e} (< {worst.bound:g})")


# ---------------------------------------------------------------------------
# 6. conditioned-model equivalence (soup vs conditioned renewal)
# ---------------------------------------------------------------------------

def test_criterion_6_conditioned_model_equivalence():
    t0 = time.time()
    kappa, alpha, n, reps = 1.0, 0.5, 100, 10_000
    model = build_model(n, 0.5, kappa / (2.0 * n * n), alpha)
    ens = conditional_experiment(model, 606, "avoiding-1-only", reps,
                                 keep_closed_edges=True)
    soup = oracles.exact_law_checks(ens, model)

    # the closed-edge left points on the cut circle form the renewal process
    # conditioned to hit n-1, with rate r^(n) from the model parameters: the
    # soup's laws above and the renewal paths' laws are the same exact laws
    law = RenewalLaw.build(alpha, model.r, n - 1)
    paths = sample_conditioned_renewals(law, n - 1, 40_000, np.random.default_rng(607))
    renewal = oracles.conditioned_path_checks(law, n - 1, paths, (1, 2, 3, 5, 10, 20, 30, 40))
    elapsed = time.time() - t0
    ok = all(c.ok for c in [*soup.values(), *renewal.values()]) and elapsed < 600.0
    _verdict(6, "conditioned soup and conditioned renewal, each on the exact laws",
             ok, f"soup: {_law_summary(soup)}; renewal: {_law_summary(renewal)}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. loops-through-1 laws at n = 50
# ---------------------------------------------------------------------------

def test_criterion_7_through1_laws():
    kappa, epsilon, alpha, n, reps = 1.0, 0.375, 0.5, 50, 20_000
    p = 0.5 - math.sqrt(kappa - 2.0 * epsilon) / (2.0 * n)
    model = build_model(n, p, epsilon / (n * n), alpha)
    ens = conditional_experiment(model, 707, "through-1-only", reps)

    grid = [(m, M) for m in (2, 5, 9, 14, 20) for M in (2, 5, 9, 14, 20)]
    checks = oracles.exact_law_checks(ens, model, through1_grid=grid)
    ok = all(c.ok for c in checks.values())
    _verdict(7, "through-1 extent cdf (5x5 grid), covered extent, no-winding probability",
             ok, _law_summary(checks))


# ---------------------------------------------------------------------------
# 8. limit-theorem convergence
# ---------------------------------------------------------------------------

def test_criterion_8_limit_theorem():
    """The single-partition runner at its default config: the split
    probability at n = 50, 100, 200 and the origin extents at n = 200 fit the
    exact finite-n law (each a `LawCheck`), whose split probability at 200 is
    within 0.02 of the limit; plus the limit battery and
    `oracles.limit_identity_checks`, the battery its unit tests read: the
    extent density's normalization (1e-6) and the escape probability at
    alpha = 2 (1e-10)."""
    t0 = time.time()
    config = default_single_partition_config()
    report = run_single_partition_convergence(config)
    final = report["per_n"][-1]

    identities = oracles.limit_identity_checks()
    density = identities["extent density normalization 1.0-0.5"]
    escape = identities["escape probability"]
    limits = [oracles.limit_checks(row) for row in oracles.LIMIT_BATTERY]
    ok = (report["passed"] and all(c.ok for c in identities.values())
          and all(c.ok for c in limits))
    _verdict(8, "limit-theorem convergence at n=200 (alpha=0.5, kappa=1, eps=0.5) "
                "and the limit battery",
             ok, f"split law p = {report['split_law_p']:.3g}, origin extent law p = "
                 f"{report['origin_extent_law_p']:.3g}, exact split gap {final['exact_gap']:.4f} "
                 f"(< 0.02; Monte Carlo {final['gap']:.4f}, report only), exact extent TV to "
                 f"the limit {report['origin_extent_exact_tv']:.4f} (report only), density "
                 f"integral gap {density.gap:.1e}, escape gap {escape.gap:.1e}, "
                 + "".join(f"{c.law}: slope {c.slope:.4f}, residual {c.residual:.1e}; "
                           for c in limits) + f"{time.time() - t0:.0f}s")
    assert oracles.report_digest(report) == (
        "66c29fcd6a7b97f0c9000dd26a275ce8d52bcc5572948679c2a694cb21e2b287")


# ---------------------------------------------------------------------------
# 9. bridge properties
# ---------------------------------------------------------------------------

def test_criterion_9_bridge_properties():
    t0 = time.time()
    bridge = ConditionedBridgeLaw(SubordinatorLaw(kappa=1.0, alpha=0.5))
    n_approx = 100_000
    law = bridge.renewal_approximation(n_approx)
    rng = np.random.default_rng(909)

    ends_at_one = True
    fwd, bwd, paths = [], [], []
    n_paths, chunk = 10_000, 1000  # chunks bound the sampler's working memory
    for _ in range(n_paths // chunk):
        for pts in bridge.sample_bridge_paths(n_approx, chunk, rng, law=law):
            ends_at_one &= pts[-1] == 1.0
            paths.append(np.rint(pts * n_approx).astype(np.int64))
            # report only: the mid-quantile of the visited set, forwards and on
            # the reflected reversal
            fwd.append(pts[len(pts) // 2])
            rev = np.sort(1.0 - pts)
            bwd.append(rev[len(rev) // 2])
    ks = ks_distance_two_sample(fwd, bwd)
    # time reversal and the whole path law, at a stated false-alarm rate of 1e-3
    checks = oracles.conditioned_path_checks(
        law, n_approx, paths, (1, 2, 3, 5, 10, 30, 100, 300, 1000, 3000, 10_000, 30_000))

    scaling = run_cluster_scaling(default_cluster_scaling_config())
    ok = ends_at_one and all(c.ok for c in checks.values()) and scaling["passed"]
    _verdict(9, "bridge termination, exact path laws, cluster-scaling verdict",
             ok, f"all paths end at 1: {ends_at_one}, {_law_summary(checks)}, "
                 f"mid-point reversal KS = {ks:.4f} (report only), "
                 f"count mean p {scaling['k_scaled_law_p']:.3g}, exact k/n^(1-a) spread = "
                 f"{scaling['k_scaled_exact_spread']:.4f} (exact means "
                 f"{[round(r['k_scaled_exact_mean'], 3) for r in scaling['per_n']]}), "
                 f"through-1 extent p {scaling['through1_extent_law_p']:.3g}, exact gap "
                 f"to the limit {scaling['through1_extent_exact_max_gap']:.5f}, "
                 f"{time.time() - t0:.0f}s")
    assert oracles.report_digest(scaling) == (
        "171b0e153e95b0beca02a9e4b89954d3d31437c576dd19f2b22d0a876a73f1b7")
