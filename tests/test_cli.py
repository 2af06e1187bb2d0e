import csv
import json
import math

import pytest

from loopsoup.analytics import mass_through_vertex1, prob_not_single_partition_limit
from loopsoup.circle import build_model
from loopsoup.cli import main
from loopsoup.experiments import default_edge_audit_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analytic_subcommand(capsys):
    code, out = run_cli(capsys, "analytic", "--formula", "mass-through-vertex1",
                        "--n", "8", "--p", "0.5", "--c", "0.3", "--alpha", "1.0")
    assert code == 0
    rec = json.loads(out)
    assert rec["formula"] == "mass-through-vertex1"
    model = build_model(8, 0.5, 0.3, 1.0)
    assert rec["value"] == pytest.approx(mass_through_vertex1(model), rel=1e-12)
    assert rec["params"]["n"] == 8


def test_law_subcommand(capsys):
    code, out = run_cli(capsys, "law", "--formula", "prob-not-single-partition-limit",
                        "--kappa", "1.0", "--epsilon", "0.5", "--alpha", "0.5")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(
        prob_not_single_partition_limit(1.0, 0.5, 0.5), rel=1e-12)


def test_law_escape_probability(capsys):
    code, out = run_cli(capsys, "law", "--formula", "escape-probability",
                        "--alpha", "2.0")
    assert json.loads(out)["value"] == pytest.approx(6.0 / math.pi ** 2, abs=1e-10)


def test_law_halfline_gap_pgf_near_one(capsys):
    code, out = run_cli(capsys, "law", "--formula", "halfline-gap-pgf",
                        "--alpha", "0.5", "--s", "0.9999999")
    assert code == 0
    assert 0.0 < json.loads(out)["value"] < 1.0


def test_sample_subcommand(tmp_path, capsys):
    out_path = tmp_path / "reps.jsonl"
    summary = tmp_path / "summary.csv"
    code, _ = run_cli(capsys, "sample", "--n", "8", "--p", "0.5", "--c", "0.4",
                      "--alpha", "0.8", "--replicates", "40", "--seed", "3",
                      "--out", str(out_path), "--summary", str(summary))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 40
    rec = json.loads(lines[0])
    assert set(rec) >= {"replicate", "loops", "clusters", "closed_edges",
                        "closed_left_endpoints"}
    with open(summary) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["statistic", "mean"]


def test_bridge_subcommand(tmp_path, capsys):
    out_path = tmp_path / "paths.csv"
    code, _ = run_cli(capsys, "bridge", "--kappa", "1.0", "--alpha", "0.5",
                      "--resolution", "500", "--paths", "5", "--seed", "1",
                      "--out", str(out_path))
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5
    for row in rows:
        pts = [float(x) for x in row]
        assert pts[0] == 0.0 and pts[-1] == 1.0
        assert all(b > a for a, b in zip(pts, pts[1:]))


def test_experiment_subcommand(tmp_path, capsys):
    cfg = default_edge_audit_config()
    cfg.replicates = 2000
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    code, out = run_cli(capsys, "experiment", "--config", str(cfg_path),
                        "--out", str(tmp_path / "run"))
    assert code == 0
    assert json.loads(out)["passed"] is True
    assert (tmp_path / "run" / "report.json").exists()


@pytest.mark.parametrize("argv, message", [
    (("bridge", "--kappa", "1", "--alpha", "0.5", "--resolution", "0"), "--resolution"),
    (("bridge", "--kappa", "1", "--alpha", "1.5"), "alpha"),
    (("bridge", "--kappa", "1", "--alpha", "0.5", "--paths", "-3"), "--paths"),
    (("bridge", "--kappa", "1", "--alpha", "0.5", "--seed", "-1"), "--seed"),
    (("analytic", "--formula", "through1-extent-cdf", "--n", "8", "--p", "0.5",
      "--c", "0.3", "--alpha", "1.0"), "--m --M"),
    (("law", "--formula", "levy-tail", "--kappa", "1", "--alpha", "0.5"), "--t"),
    (("sample", "--n", "8", "--p", "0.5", "--c", "0.4", "--alpha", "0.8",
      "--replicates", "4", "--seed", str(2 ** 64)), "seed"),
    (("sample", "--n", "8", "--p", "0.5", "--c", "0.4", "--alpha", "0.8",
      "--replicates", "0"), "replicates"),
    (("sample", "--n", "8", "--p", "0.5", "--c", "0.4", "--alpha", "0.8",
      "--replicates", "-3"), "replicates"),
    (("law", "--formula", "hitting-coefficient", "--alpha", "0.5", "--r", "0.01",
      "--m", "2.7"), "--m"),
    (("law", "--formula", "hitting-coefficient", "--alpha", "0.5", "--r", "0.01",
      "--m", "0"), "--m"),
])
def test_bad_input_exits_with_one_line_message(tmp_path, capsys, argv, message):
    out_path = tmp_path / "out.csv"
    argv = argv + ("--out", str(out_path)) if argv[0] == "bridge" else argv
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and message in captured.err
    assert not out_path.exists()
