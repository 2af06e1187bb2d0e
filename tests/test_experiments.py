import json
import math
import os

import numpy as np
import pytest

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
    run_edge_probability_audit,
    sample_limit_extents,
    symmetric_schedule,
)
from loopsoup.sampler import conditional_experiment
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


@pytest.mark.parametrize("kappa, alpha", [(1.0, 0.5), (0.01, 0.2), (4.0, 0.05), (25.0, 0.9)])
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


def test_sample_limit_extents_statistics():
    rng = np.random.default_rng(8)
    gd = sample_limit_extents(1.0, 0.5, 50_000, rng)
    assert np.all(gd > 0.0)
    assert np.all(gd.sum(axis=1) < 1.0)
    # known first moment of each coordinate (computed by quadrature)
    assert gd[:, 0].mean() == pytest.approx(0.24007780262811607, abs=0.003)
    assert gd[:, 1].mean() == pytest.approx(0.24007780262811607, abs=0.003)
