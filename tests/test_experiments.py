import ast
import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from loopsoup import experiments
from loopsoup.analytics import mass_avoiding_edges, mass_inside
from loopsoup.circle import derived_killing
from loopsoup.experiments import (
    DEFAULT_THRESHOLDS,
    ExperimentConfig,
    ScheduleEntry,
    _simplex_cell_probs,
    asymmetric_schedule,
    default_cluster_scaling_config,
    default_edge_audit_config,
    default_single_partition_config,
    ensemble_records,
    replicate_lines,
    run_cluster_scaling,
    run_edge_probability_audit,
    sample_limit_extents,
    symmetric_schedule,
)
from loopsoup.sampler import CONDITIONS, SoupEnsemble, conditional_experiment
from loopsoup.circle import build_model

import oracles


def test_symmetric_schedule_hits_targets():
    kappa = 1.0
    for entry in symmetric_schedule(kappa, (50, 100, 400)):
        kap_n, _ = derived_killing(entry.p, entry.c)
        assert entry.n ** 2 * kap_n == pytest.approx(kappa, rel=1e-10)
        assert entry.n ** 2 * entry.c == pytest.approx(kappa / 2.0, rel=1e-12)


def test_asymmetric_schedule_hits_targets():
    kappa, epsilon = 1.0, 0.25
    for entry in asymmetric_schedule(kappa, epsilon, (100, 400)):
        kap_n, _ = derived_killing(entry.p, entry.c)
        assert entry.n ** 2 * kap_n == pytest.approx(kappa, rel=2e-2)
        assert entry.n ** 2 * entry.c == pytest.approx(epsilon, rel=1e-12)


def test_config_json_round_trip():
    cfg = default_cluster_scaling_config()
    again = ExperimentConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.to_json() == cfg.to_json()


def test_config_omitted_thresholds_take_defaults():
    d = default_edge_audit_config().to_dict()
    d["thresholds"] = {"gap_allowance": 0.05}
    assert ExperimentConfig.from_dict(d).thresholds == {**DEFAULT_THRESHOLDS,
                                                        "gap_allowance": 0.05}
    del d["thresholds"]
    assert ExperimentConfig.from_dict(d).thresholds == DEFAULT_THRESHOLDS


def test_config_values_match_field_annotations():
    """An int stands for a float and null for an optional field; a bool is no
    int, and a string or a fractional number is no number of either kind."""
    d = default_single_partition_config().to_dict()
    d.update(alpha=1, kappa=1, out_dir=None, comparison_n=None)
    d["schedule"][0].update(p=1, c=0)
    d["thresholds"]["z_max"] = 4
    cfg = ExperimentConfig.from_dict(d)
    assert cfg.alpha == 1 and cfg.schedule[0].p == 1 and cfg.thresholds["z_max"] == 4
    for key, value in (("replicates", "100"), ("alpha", "0.7"), ("seed", 1.5),
                       ("replicates", True), ("alpha", False), ("kappa", "1"),
                       ("out_dir", 3), ("bridge_paths", None), ("name", 1)):
        bad = {**d, key: value}
        with pytest.raises(ValueError, match=f"'{key}' must be"):
            ExperimentConfig.from_dict(bad)


def test_config_validate_rejects_target_miss():
    cfg = default_single_partition_config()
    cfg.schedule = [ScheduleEntry(n=100, p=0.5, c=0.3)]  # way off kappa = 1
    with pytest.raises(ValueError):
        cfg.validate()


def test_edge_audit_small(tmp_path):
    cfg = default_edge_audit_config(out_dir=str(tmp_path / "audit"))
    cfg.replicates = 4000
    report = run_edge_probability_audit(cfg)
    assert report["passed"]
    assert len(report["edges"]) == 12
    # alpha = 0: every edge closed in every replicate
    cfg0 = default_edge_audit_config()
    cfg0.alpha = 0.0
    cfg0.replicates = 500
    report0 = run_edge_probability_audit(cfg0)
    assert all(r["mc"] == 1.0 and r["analytic"] == 1.0 for r in report0["edges"])
    # artifacts written
    out = tmp_path / "audit"
    assert (out / "config.json").exists()
    assert (out / "report.json").exists()
    assert (out / "summary.csv").exists()
    assert (out / "replicates.jsonl").exists()
    with open(out / "report.json") as fh:
        assert json.load(fh)["passed"] is True


def test_edge_audit_default_scale():
    """Full default audit: per-edge closure probabilities at 1e5 replicates
    all within the 4-sigma gate."""
    cfg = default_edge_audit_config()
    report = run_edge_probability_audit(cfg)
    assert report["passed"]
    assert max(abs(r["z"]) for r in report["edges"]) <= 4.0
    assert oracles.report_digest(report) == (
        "e526d8799715256e337c15487091fda0cc1cf39ca7c41f66dc153cc33439f8a7")


def test_edge_audit_reference_matches_dense_edge_masses():
    """Every row's closure probability equals the one computed from the dense
    mass of the loops avoiding that undirected edge, on the default model and
    on a drifted one."""
    drifted = default_edge_audit_config()
    drifted.schedule = [ScheduleEntry(n=9, p=0.71, c=0.05)]
    drifted.alpha = 1.3
    for cfg in (default_edge_audit_config(), drifted):
        cfg.replicates = 200
        model = cfg.schedule[0].model(cfg.alpha)
        total = mass_inside(model, range(1, model.n + 1))
        for row in run_edge_probability_audit(cfg)["edges"]:
            u, v = row["edge"], row["edge"] % model.n + 1
            avoid = mass_avoiding_edges(model, [(u, v), (v, u)])
            assert row["analytic"] == pytest.approx(
                math.exp(-cfg.alpha * (total - avoid)), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kappa, alpha", [(1.0, 0.5), (0.01, 0.2), (4.0, 0.05), (25.0, 0.9),
                                          (1e-6, 0.5), (1e4, 0.5)])
def test_simplex_cells_match_nested_quadrature(kappa, alpha):
    """The second-difference cell table agrees with cell-by-cell quadrature,
    has no negative cell and sums to 1."""
    probs = _simplex_cell_probs(kappa, alpha, 6)
    assert probs.shape == (6, 6)
    assert probs.min() >= -1e-15
    assert probs.sum() == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(probs, oracles.simplex_cell_probs_nested(kappa, alpha, 6),
                               rtol=0, atol=1e-8)


def test_report_reproducible():
    cfg = default_edge_audit_config()
    cfg.replicates = 2000
    r1 = run_edge_probability_audit(cfg)
    r2 = run_edge_probability_audit(cfg)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_report_schema_round_trips_through_json():
    cfg = default_edge_audit_config()
    cfg.replicates = 1000
    report = run_edge_probability_audit(cfg)
    again = json.loads(json.dumps(report))
    assert again["passed"] == report["passed"]
    assert ExperimentConfig.from_dict(again["config"]) == cfg


def test_cluster_scaling_passes_at_the_benchmark_sizes():
    """At the benchmark's sizes (the default schedule, 50 and 100 replicates,
    50 bridge paths) the runner's exact-law verdicts hold on seeds 1-5 and its
    exact distances to the limit are within the default thresholds whatever
    the seed, so it passes; its report keeps every key that the benchmark's
    cluster-scaling workload records as notes."""
    workloads = ast.parse((Path(__file__).parents[1] / "perfbench" / "workloads.py").read_text())
    workload = next(node for node in workloads.body
                    if isinstance(node, ast.ClassDef) and node.name == "ClusterScaling")
    keys = next(ast.literal_eval(node.value) for node in ast.walk(workload)
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "keys")
    for seed in range(1, 6):
        cfg = dataclasses.replace(default_cluster_scaling_config(), replicates=50,
                                  comparison_replicates=100, bridge_paths=50, seed=seed)
        report = run_cluster_scaling(cfg)
        assert report["passed"], (seed, {k: v for k, v in report.items() if k != "config"})
        assert set(keys) <= set(report)


def test_cluster_scaling_reaches_a_verdict_where_every_edge_is_closed():
    """At kappa = 3e13 every edge is closed to rounding and the exact count
    variance cancelled to a negative number, so the count z-test ended in
    "math domain error"; with the variance floored the count law holds
    (p = 1) and the run fails only because the scaled means n^alpha spread."""
    config = dataclasses.replace(default_cluster_scaling_config(), kappa=3e13, epsilon=1.5e13,
                                 schedule=symmetric_schedule(3e13, (100, 400, 1600)))
    report = run_cluster_scaling(config)
    assert report["k_scaled_law_p"] == 1.0
    assert not report["k_scaled_stable"] and not report["passed"]


def test_ensemble_records_fields():
    model = build_model(8, 0.5, 0.3, 0.7)
    ens = conditional_experiment(model, 4, "unconditioned", 50, keep_closed_edges=True)
    recs = ensemble_records(ens)
    assert len(recs) == 50
    for rec in recs[:5]:
        for key in ("replicate", "loops", "clusters", "closed_edges",
                    "origin_left", "origin_right", "lift_left", "lift_right",
                    "closed_left_endpoints"):
            assert key in rec


def _profiles(ens) -> np.ndarray:
    """Each replicate's profile, one row each: every field of its line but the
    replicate index and the kept edges."""
    through = (ens.avoiding_count == 0) & (ens.closed_edge_count >= 1)
    return np.stack((ens.closed_edge_count, ens.lift_left, ens.lift_right, ens.loop_count,
                     ens.origin_left, ens.origin_right, through), axis=1)


def _check_lines_against_oracle(n, c, replicates, repeats, condition, keep):
    """The ensemble's lines are byte-identical to json.dumps of the dict
    records; `repeats` says whether at most half of each block's profiles
    are distinct, so each profile is formatted once and its rows stamped
    into it, or more than half, so the block is formatted in one pass."""
    model = build_model(n, 0.5, c, 0.7)
    ens = conditional_experiment(model, 5, condition, replicates, keep_closed_edges=keep)
    block = experiments._LINE_BLOCK
    starts = range(0, replicates, block)
    profiles = _profiles(ens)
    blocks_of = [profiles[lo:lo + block] for lo in starts]
    assert len(starts) >= 3  # the last block is partial
    assert all((2 * len(np.unique(rows, axis=0)) <= len(rows)) == repeats
               for rows in blocks_of)
    if repeats:
        # the first block mixes the row templates: null and non-null through
        # extents and, but for avoiding-1-only, rows without a closed edge
        through = profiles[:block, 6].astype(bool)
        assert through.any() and not through.all()
        if condition != "avoiding-1-only":
            assert np.any(ens.closed_edge_count[:block] == 0)
        # and the first block boundary cuts through rows sharing a profile
        assert set(map(tuple, blocks_of[0].tolist())) & set(map(tuple, blocks_of[1].tolist()))
    expect = oracles.ensemble_records_oracle(ens)
    blocks = list(replicate_lines(ens))
    assert len(blocks) == len(starts)
    lines = b"".join(blocks).splitlines(keepends=True)
    assert len(lines) == len(expect) == replicates
    for line, rec in zip(lines, expect):
        assert line == (json.dumps(rec, sort_keys=True) + "\n").encode()
    assert ensemble_records(ens) == expect


@pytest.mark.parametrize("keep", [False, True], ids=["no-closed-edges", "closed-edges"])
@pytest.mark.parametrize("condition", CONDITIONS)
def test_replicate_lines_match_dict_oracle(condition, keep):
    """Each templated line is byte-identical to json.dumps of the dict
    record where profiles repeat: n = 8."""
    _check_lines_against_oracle(8, 0.3, 5000, True, condition, keep)


@pytest.mark.parametrize("keep", [False, True], ids=["no-closed-edges", "closed-edges"])
@pytest.mark.parametrize("condition", CONDITIONS)
def test_distinct_replicate_lines_match_dict_oracle(condition, keep):
    """The same where nearly every profile is distinct: n = 200, kappa = 1."""
    _check_lines_against_oracle(200, 1.0 / (2 * 200 ** 2), 2500, False, condition, keep)


def test_replicate_lines_past_a_packed_profile_key():
    """Profiles whose fields span more than an int64 key can pack are
    formatted in one pass, also where every profile repeats: here each of
    one block's profiles is on two rows."""
    rng = np.random.default_rng(0)
    half = experiments._LINE_BLOCK // 2
    closed = rng.integers(0, 4, half)
    wide = [rng.integers(0, 2 ** 20, half) for _ in range(3)]
    columns = [np.tile(col, 2) for col in (closed, *wide, rng.integers(0, 2, half))]
    closed, lift_left, lift_right, loops, avoiding = columns[0], *columns[1:]
    edges = np.concatenate([rng.choice(16, k, replace=False) for k in closed])
    ens = SoupEnsemble(model={}, condition="unconditioned", replicates=2 * half, seed=0,
                       loop_count=loops, avoiding_count=avoiding, winding_or_cover_count=loops,
                       closed_edge_count=closed, origin_left=np.where(closed > 0, loops, -1),
                       origin_right=np.where(closed > 0, lift_left, -1), lift_left=lift_left,
                       lift_right=lift_right, closed_edge_totals=np.zeros(16, dtype=np.int64),
                       closed_edges=edges)
    assert experiments._profile_ids(_profiles(ens).T) is None
    assert ensemble_records(ens) == oracles.ensemble_records_oracle(ens)


def test_edge_audit_replicate_lines_are_pinned(tmp_path):
    """The default edge audit's replicates.jsonl (1e5 lines) is byte-identical
    to the file recorded when each line was its own `%` call."""
    run_edge_probability_audit(default_edge_audit_config(out_dir=str(tmp_path)))
    digest = hashlib.sha256((tmp_path / "replicates.jsonl").read_bytes()).hexdigest()
    assert digest == "997eb8134fdb99a2c315b3ddf4cb33215d3236f1e069216fc9d3b867c7378ca7"



@pytest.mark.parametrize("kappa, alpha", [(1.0, 0.5), (1.0, 0.9), (25.0, 0.1), (0.01, 0.3),
                                          (0.01, 0.95), (100.0, 0.7)])
def test_sample_limit_extents_matches_cell_law(kappa, alpha):
    """2e5 draws binned on the 6 x 6 grid against the closed-form cell law,
    over the cells of positive probability.  At alpha = 0.9 and 0.95 much of
    the mass lies within an ulp of g + d = 1 (2.2% at kappa = 1, 15.7% at
    kappa = 0.01); a sampler that drops those draws fails here."""
    gd = sample_limit_extents(kappa, alpha, 200_000, np.random.default_rng(5))
    probs = _simplex_cell_probs(kappa, alpha, 6)
    counts, _, _ = np.histogram2d(gd[:, 0], gd[:, 1], bins=np.linspace(0.0, 1.0, 7))
    positive = probs > 0.0
    assert counts[positive].sum() == gd.shape[0]
    _, pval = oracles.chi_square_pvalue(counts[positive], probs[positive])
    assert pval > 1e-6


@pytest.mark.parametrize("kappa, alpha", [(0.0, 0.5), (-1.0, 0.5), (math.nan, 0.5),
                                          (math.inf, 0.5), (1.0, 0.0), (1.0, 1.0),
                                          (1.0, 1.2), (1.0, math.nan)])
def test_sample_limit_extents_rejects_out_of_domain_parameters(kappa, alpha):
    with pytest.raises(ValueError, match="needs finite kappa > 0 and 0 < alpha < 1"):
        sample_limit_extents(kappa, alpha, 10, np.random.default_rng(0))


@pytest.mark.parametrize("kappa, alpha", [(6e5, 0.5), (6e5, 0.9), (1e12, 0.5), (1e12, 0.9),
                                          (1e12, 0.99), (1e12, 0.999)])
def test_sample_limit_extents_matches_density_at_large_kappa(kappa, alpha):
    """2,000 draws of sqrt(kappa) (g + d) against the cdf that quadrature
    gives from the extent-sum density w sinh(w)^(alpha-2) sinh(s-w)^(-alpha),
    s = sqrt(kappa), taken in the log domain.  Past kappa = 710^2 sinh(s(1-z))
    overflows where the law's mass lies (s z near 1.5).  At alpha = 0.99 and
    0.999, 0.7% and 84% of the law lies where t = e^(-s) sinh(s(1-z)) / sinh(sz)
    is below the smallest float: a draw of t that underflows there sends
    those draws to z = 1."""
    s = math.sqrt(kappa)
    gd = sample_limit_extents(kappa, alpha, 2000, np.random.default_rng(12))
    w = np.sort(s * gd.sum(axis=1))

    def density(x):
        # shifted by alpha * s so that it is of order one near the mode
        return math.exp(math.log(x) + (alpha - 2.0) * oracles.log_sinh(x)
                        - alpha * oracles.log_sinh(s - x) + alpha * (s - math.log(2.0)))

    edges = np.concatenate(([0.0], w, [s]))
    pieces = [oracles.integrate(density, lo, hi)[0] for lo, hi in zip(edges[:-1], edges[1:])]
    cdf = dict(zip(w, np.cumsum(pieces)[:-1] / sum(pieces)))
    assert oracles.ks_distance(w, cdf.__getitem__) < oracles.ks_critical(2000, level=1e-3)


def test_sample_limit_extents_statistics():
    rng = np.random.default_rng(8)
    gd = sample_limit_extents(1.0, 0.5, 50_000, rng)
    assert np.all(gd > 0.0)
    assert np.all(gd.sum(axis=1) < 1.0)
    # known first moment of each coordinate (computed by quadrature)
    assert gd[:, 0].mean() == pytest.approx(0.24007780262811607, abs=0.003)
    assert gd[:, 1].mean() == pytest.approx(0.24007780262811607, abs=0.003)
