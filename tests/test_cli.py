import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loopsoup.analytics import (
    mass_inside,
    mass_through_vertex1,
    prob_not_single_partition_limit,
)
from loopsoup.circle import build_model
from loopsoup import cli
from loopsoup.cli import LAW_FORMULAS, main
from loopsoup.experiments import (
    ScheduleEntry,
    default_cluster_scaling_config,
    default_edge_audit_config,
    default_single_partition_config,
)
from loopsoup.sampler import CONDITIONS
from loopsoup.scaling import (
    ConditionedBridgeLaw, RenewalLaw, SubordinatorLaw, hitting_coefficients,
)


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
    # alpha = 0: the soup is empty, so no loop winds or sweeps, also at c = 0
    code, out = run_cli(capsys, "analytic", "--formula", "prob-no-winding-or-covering",
                        "--n", "8", "--p", "0.5", "--c", "0", "--alpha", "0")
    assert code == 0 and json.loads(out)["value"] == 1.0


def test_law_subcommand(capsys):
    code, out = run_cli(capsys, "law", "--formula", "prob-not-single-partition-limit",
                        "--kappa", "1.0", "--epsilon", "0.5", "--alpha", "0.5")
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == pytest.approx(
        prob_not_single_partition_limit(1.0, 0.5, 0.5), rel=1e-12)
    # alpha = 0: the soup is empty, so every edge is closed
    code, out = run_cli(capsys, "law", "--formula", "prob-not-single-partition-limit",
                        "--kappa", "1.0", "--epsilon", "0.5", "--alpha", "0")
    assert code == 0 and json.loads(out)["value"] == 1.0


def test_law_density_past_the_float_range_prints_infinity(capsys):
    """log sinh(1e-300) takes the extent density past the float range: the
    value is +inf, not an OverflowError traceback."""
    code, out = run_cli(capsys, "law", "--formula", "cluster-extent-limit-density",
                        "--kappa", "1", "--alpha", "0.5", "--x", "1e-300", "--y", "1e-300")
    assert code == 0
    assert json.loads(out)["value"] == math.inf


def test_closed_forms_of_one_value_build_no_table(capsys):
    """hitting-coefficient is the table's entry, mass-total the full-circle
    mass_inside; at m = 1e15 and n = 1e12 both answer at once, finite."""
    code, out = run_cli(capsys, "law", "--formula", "hitting-coefficient",
                        "--alpha", "0.7", "--r", "0.05", "--m", "2000")
    assert code == 0
    assert json.loads(out)["value"] == hitting_coefficients(0.7, 0.05, 2000)[2000]
    code, out = run_cli(capsys, "analytic", "--formula", "mass-total",
                        "--n", "8", "--p", "0.5", "--c", "0.3", "--alpha", "1.0")
    assert code == 0
    model = build_model(8, 0.5, 0.3, 1.0)
    assert json.loads(out)["value"] == mass_inside(model, range(1, 9))
    for argv in (("law", "--formula", "hitting-coefficient", "--alpha", "0.5",
                  "--r", "0.01", "--m", "1e15"),
                 ("analytic", "--formula", "mass-total", "--n", str(10 ** 12),
                  "--p", "0.5", "--c", "0.3", "--alpha", "1.0")):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert math.isfinite(json.loads(out)["value"])


def test_law_escape_probability(capsys):
    code, out = run_cli(capsys, "law", "--formula", "escape-probability",
                        "--alpha", "2.0")
    assert json.loads(out)["value"] == pytest.approx(6.0 / math.pi ** 2, abs=1e-10)


def test_law_halfline_gap_pgf_near_one(capsys):
    for alpha in ("0.5", "1"):
        code, out = run_cli(capsys, "law", "--formula", "halfline-gap-pgf",
                            "--alpha", alpha, "--s", "0.9999999")
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


@pytest.mark.parametrize("condition", CONDITIONS)
def test_sample_stdout_matches_out_file(tmp_path, capsys, condition):
    argv = ["sample", "--n", "8", "--p", "0.5", "--c", "0.3", "--alpha", "0.7",
            "--replicates", "300", "--seed", "5", "--condition", condition]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    out_path = tmp_path / "reps.jsonl"
    code, printed = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0 and printed == ""
    assert out.encode() == out_path.read_bytes()
    assert len(out.splitlines()) == 300


def test_bridge_stdout_matches_out_file(tmp_path, capsys):
    argv = ["bridge", "--kappa", "1.0", "--alpha", "0.5", "--resolution", "2000",
            "--paths", "30", "--seed", "4"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    out_path = tmp_path / "paths.csv"
    code, printed = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 0 and printed == ""
    assert out.encode() == out_path.read_bytes()
    assert out.count("\r\n") == 30


def _unreached(*args, **kwargs):
    raise AssertionError("the command did its work before opening its outputs")


@pytest.mark.parametrize("flag", ["--out", "--summary"])
def test_sample_unwritable_output_fails_before_sampling(tmp_path, capsys, monkeypatch, flag):
    monkeypatch.setattr(cli, "conditional_experiment", _unreached)
    bad = tmp_path / "missing" / "x"
    code = main(["sample", "--n", "8", "--p", "0.5", "--c", "0.4", "--alpha", "0.8",
                 flag, str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and str(bad) in captured.err


@pytest.mark.parametrize("kept, flag, value, message", [
    ("--out", "--replicates", "0", "replicates must be at least 1, got 0"),
    ("--out", "--seed", "-1", "seed must lie in [0, 2^64), got -1"),
    ("--summary", "--c", "0", "sampling requires c > 0"),
    ("--out", "--summary", "{tmp}/missing/x.csv", "missing/x.csv"),
    ("--summary", "--out", "{tmp}/missing/x.jsonl", "missing/x.jsonl"),
], ids=["replicates-0", "seed-minus-1", "c-0", "summary-unwritable", "out-unwritable"])
def test_sample_rejected_call_keeps_existing_output(tmp_path, capsys, kept, flag, value, message):
    """A rejected `sample` call leaves the bytes of an existing output file alone."""
    existing = tmp_path / "existing"
    existing.write_bytes(b"old\r\nbytes")
    args = {"--n": "8", "--p": "0.5", "--c": "0.4", "--alpha": "0.8", kept: str(existing),
            flag: value.format(tmp=tmp_path)}
    assert main(["sample", *(arg for pair in args.items() for arg in pair)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    assert existing.read_bytes() == b"old\r\nbytes"


def test_bridge_unwritable_output_fails_before_the_law_is_built(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ConditionedBridgeLaw, "renewal_approximation", _unreached)
    bad = tmp_path / "missing" / "x.csv"
    code = main(["bridge", "--kappa", "1", "--alpha", "0.5", "--out", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and str(bad) in captured.err


@pytest.mark.parametrize("text", ["Unable to allocate 22.4 GiB for an array", ""],
                         ids=["message", "bare"])
def test_memory_error_exits_with_one_line_message(capsys, monkeypatch, text):
    """A failed allocation ends like any bad input (a real one is not made
    here: a large enough request may be killed by the system, not raised)."""
    def exhausted(*args):
        raise MemoryError(text)

    monkeypatch.setattr(RenewalLaw, "build", staticmethod(exhausted))
    code = main(["bridge", "--kappa", "1", "--alpha", "0.5", "--resolution", "3000000000",
                 "--paths", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"loopsoup bridge: error: {text or 'MemoryError'}\n"


def test_bridge_failed_law_keeps_existing_output(tmp_path, capsys, monkeypatch):
    """A `bridge` call whose renewal law cannot be built leaves the bytes of an
    existing output file alone."""
    def exhausted(*args):
        raise MemoryError("Unable to allocate 22.4 GiB for an array")

    monkeypatch.setattr(RenewalLaw, "build", staticmethod(exhausted))
    existing = tmp_path / "existing.csv"
    existing.write_bytes(b"0,0.5,1\r\n")
    code = main(["bridge", "--kappa", "1", "--alpha", "0.5", "--resolution", "3000000000",
                 "--paths", "1", "--out", str(existing)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Unable to allocate" in captured.err
    assert existing.read_bytes() == b"0,0.5,1\r\n"


@pytest.mark.parametrize("c", ["1e-300", "1e-20"])
def test_sample_runs_as_the_killing_vanishes(capsys, c):
    """kappa = 2c stays positive at p = 1/2 however small c is."""
    code, out = run_cli(capsys, "sample", "--n", "8", "--p", "0.5", "--c", c,
                        "--alpha", "0.5", "--replicates", "20")
    assert code == 0 and len(out.splitlines()) == 20


def test_mass_total_grows_as_the_killing_vanishes(capsys):
    values = []
    for c in ("1e-12", "1e-20"):
        code, out = run_cli(capsys, "analytic", "--formula", "mass-total", "--n", "100",
                            "--p", "0.5", "--c", c, "--alpha", "0.5")
        assert code == 0
        values.append(json.loads(out)["value"])
    assert math.isfinite(values[1]) and values[1] > values[0]


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


def test_bridge_csv_bytes_match_numpy_scalar_formatting(tmp_path, capsys):
    """Rows formatted from Python floats are byte-identical to rows formatted
    from the numpy scalars of the same seeded paths."""
    out_path = tmp_path / "paths.csv"
    code, _ = run_cli(capsys, "bridge", "--kappa", "1.0", "--alpha", "0.5",
                      "--resolution", "3000", "--paths", "20", "--seed", "3",
                      "--out", str(out_path))
    assert code == 0
    bridge = ConditionedBridgeLaw(SubordinatorLaw(kappa=1.0, alpha=0.5))
    expect = io.StringIO(newline="")
    writer = csv.writer(expect)
    for pts in bridge.sample_bridge_paths(3000, 20, np.random.default_rng(3)):
        writer.writerow([f"{p:.8g}" for p in pts])
    assert out_path.read_bytes() == expect.getvalue().encode()


def test_bridge_csv_bytes_are_pinned(tmp_path, capsys):
    """1001 paths, past the 1000-path chunk boundary, byte-identical to the
    CSV recorded when each sampler round was cut to one rejection try per
    live path."""
    out_path = tmp_path / "paths.csv"
    code, _ = run_cli(capsys, "bridge", "--kappa", "1", "--alpha", "0.5",
                      "--resolution", "2000", "--paths", "1001", "--out", str(out_path))
    assert code == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "00a731b93ef551e8f1d0e8e39601c696e10a2a9239526db89efbf58ea511a221")


def test_sample_jsonl_bytes_are_pinned(tmp_path, capsys):
    """9000 replicates with kept edges, over many blocks of lines and past two
    4096-replicate boundaries, byte-identical to the JSONL recorded when each
    line was its own `%` call; about 1% of these soups have no closed edge and
    about 10% have through extents."""
    out_path = tmp_path / "reps.jsonl"
    code, _ = run_cli(capsys, "sample", "--n", "12", "--p", "0.55", "--c", "0.1",
                      "--alpha", "0.7", "--replicates", "9000", "--seed", "3",
                      "--out", str(out_path))
    assert code == 0
    data = out_path.read_bytes()
    assert b'"closed_left_endpoints": []' in data and b'"through_left": null' in data
    assert hashlib.sha256(data).hexdigest() == (
        "22df938d48c7486e3779c394928851651f5715a42aa4bea1953dd1fbebe0cc61")


_SAMPLE_PIN = ["sample", "--n", "12", "--p", "0.55", "--c", "0.1", "--alpha", "0.7",
               "--replicates", "9000", "--seed", "3"]


def test_sample_prints_pinned_bytes_to_text_stdout():
    """Without --out, `sample` prints the pinned JSONL bytes to a real
    stdout, whose byte buffer takes them after any text printed first, and
    to a StringIO under contextlib.redirect_stdout, which has no buffer."""
    pinned = "22df938d48c7486e3779c394928851651f5715a42aa4bea1953dd1fbebe0cc61"
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys; from loopsoup.cli import main; print('x'); sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, *_SAMPLE_PIN],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, check=True)
    assert proc.stdout[:2] == b"x\n"
    assert hashlib.sha256(proc.stdout[2:]).hexdigest() == pinned
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(_SAMPLE_PIN) == 0
    assert hashlib.sha256(text.getvalue().encode()).hexdigest() == pinned


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{analytic,law,sample,bridge,experiment}" in capsys.readouterr().out


def test_law_has_no_option_that_no_formula_takes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["law", "--formula", "escape-probability", "--alpha", "2", "--M", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --M 5" in capsys.readouterr().err


def test_experiment_without_config_prints_its_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: loopsoup experiment [-h] --config CONFIG")
    assert "the following arguments are required: --config" in err


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
    (("experiment", "--config", "{tmp}/missing.json"), "No such file or directory"),
    (("sample", "--n", "8", "--p", "0.5", "--c", "0.4", "--alpha", "0.8",
      "--replicates", "4", "--out", "{tmp}/no_such_dir/reps.jsonl"),
     "No such file or directory"),
    (("bridge", "--kappa", "1", "--alpha", "0.5", "--seed", str(2 ** 64)), "--seed"),
    (("bridge", "--kappa", "nan", "--alpha", "0.5"), "kappa must be finite"),
    (("law", "--formula", "hitting-coefficient", "--alpha", "0.5", "--r", "nan",
      "--m", "3"), "r must be finite"),
    (("law", "--formula", "escape-probability", "--alpha", "nan"), "--alpha must be finite"),
    (("law", "--formula", "cluster-extent-limit-density", "--kappa", "nan",
      "--alpha", "0.5", "--x", "0.2", "--y", "0.3"), "--kappa must be finite"),
    (("law", "--formula", "hitting-coefficient", "--alpha", "nan", "--r", "0.01",
      "--m", "3"), "--alpha must be finite"),
    (("law", "--formula", "levy-tail", "--kappa", "1", "--alpha", "0.5", "--t", "inf"),
     "--t must be finite"),
    (("law", "--formula", "hitting-coefficient", "--alpha", "-1", "--r", "0.01",
      "--m", "3"), "alpha must be finite and nonnegative"),
    (("analytic", "--formula", "mass-total", "--n", "8", "--p", "0.5", "--c", "nan",
      "--alpha", "1.0"), "c must be finite"),
    (("analytic", "--formula", "mass-total", "--n", "8", "--p", "0.5", "--c", "0.3",
      "--alpha", "inf"), "alpha must be finite"),
    (("sample", "--n", "8", "--p", "0.5", "--c", "0.4", "--alpha", "nan",
      "--replicates", "4"), "alpha must be finite"),
    (("analytic", "--formula", "prob-no-winding-or-covering", "--n", "8", "--p", "0.5",
      "--c", "1e308", "--alpha", "1.0"), "kappa overflows at c = 1e+308, p = 0.5"),
    (("analytic", "--formula", "mass-total", "--n", "8", "--p", "1e-300", "--c", "1e200",
      "--alpha", "1.0"), "kappa overflows at c = 1e+200, p = 1e-300"),
    (("sample", "--n", "8", "--p", "0.5", "--c", "1e308", "--alpha", "1.0",
      "--replicates", "4"), "kappa overflows at c = 1e+308, p = 0.5"),
    (("experiment", "--config", "{tmp}/cluster-scaling.json", "--seed", str(2 ** 64 - 3)),
     f"seed must lie in [0, 2^64 - 3) for cluster-scaling, got {2 ** 64 - 3}"),
    (("experiment", "--config", "{tmp}/cluster-scaling-top-seed.json"),
     f"got {2 ** 64 - 1}"),
    (("experiment", "--config", "{tmp}/edge-audit.json", "--seed", str(2 ** 64)),
     f"seed must lie in [0, 2^64) for edge-audit, got {2 ** 64}"),
    (("experiment", "--config", "{tmp}/edge-audit.json", "--seed", "-1"), "got -1"),
    (("experiment", "--config", "{tmp}/bridge-resolution-0.json"),
     "bridge_resolution must be at least 1, got 0"),
    (("experiment", "--config", "{tmp}/bridge-paths-0.json"),
     "bridge_paths must be at least 2, got 0"),
    (("experiment", "--config", "{tmp}/bridge-paths-1.json"),
     "bridge_paths must be at least 2, got 1"),
    (("experiment", "--config", "{tmp}/comparison-n-0.json"),
     "comparison_n must be null or one of the schedule sizes [100, 400, 1600], got 0"),
    (("experiment", "--config", "{tmp}/comparison-replicates-0.json"),
     "comparison_replicates must be at least 1, got 0"),
    (("experiment", "--config", "{tmp}/z-max-nan.json"),
     "threshold 'z_max' must be finite, got nan"),
    (("experiment", "--config", "{tmp}/one-comparison-replicate.json", "--seed", "3"),
     "no split soup among the 1 comparison replicates at n=400"),
    (("experiment", "--config", "{tmp}/single-partition-no-targets.json"),
     "kappa must be set for single-partition, got null"),
    (("experiment", "--config", "{tmp}/cluster-scaling-no-kappa.json"),
     "kappa must be set for cluster-scaling, got null"),
    (("experiment", "--config", "{tmp}/cluster-scaling-no-epsilon.json"),
     "epsilon must be set for cluster-scaling, got null"),
    (("experiment", "--config", "{tmp}/cluster-scaling-alpha-1.2.json"),
     "needs finite kappa > 0 and 0 < alpha < 1, got kappa=1.0, alpha=1.2"),
    (("experiment", "--config", "{tmp}/cluster-scaling-kappa-0.json"),
     "needs finite kappa > 0 and 0 < alpha < 1, got kappa=0.0, alpha=0.5"),
    (("experiment", "--config", "{tmp}/cluster-scaling-kappa-inf.json"),
     "needs finite kappa > 0 and 0 < alpha < 1, got kappa=inf, alpha=0.5"),
    (("law", "--formula", "escape-probability", "--alpha", "2", "--x", "0.3"),
     "formula escape-probability does not take --x"),
    (("analytic", "--formula", "mass-total", "--n", "8", "--p", "0.5", "--c", "0.3",
      "--alpha", "1.0", "--m", "3"), "formula mass-total does not take --m"),
])
def test_bad_input_exits_with_one_line_message(tmp_path, capsys, argv, message):
    audit, scaling = default_edge_audit_config(), default_cluster_scaling_config()
    partition = default_single_partition_config()
    for name, config in (
            ("edge-audit", audit), ("cluster-scaling", scaling),
            ("cluster-scaling-top-seed", dataclasses.replace(scaling, seed=2 ** 64 - 1)),
            ("bridge-resolution-0", dataclasses.replace(scaling, bridge_resolution=0)),
            ("bridge-paths-0", dataclasses.replace(scaling, bridge_paths=0)),
            ("bridge-paths-1", dataclasses.replace(scaling, bridge_paths=1)),
            ("comparison-n-0", dataclasses.replace(scaling, comparison_n=0)),
            ("comparison-replicates-0", dataclasses.replace(scaling, comparison_replicates=0)),
            ("z-max-nan", dataclasses.replace(
                audit, thresholds={**audit.thresholds, "z_max": math.nan})),
            ("one-comparison-replicate", dataclasses.replace(scaling, comparison_replicates=1)),
            ("single-partition-no-targets",
             dataclasses.replace(partition, kappa=None, epsilon=None)),
            ("cluster-scaling-no-kappa", dataclasses.replace(scaling, kappa=None)),
            ("cluster-scaling-no-epsilon", dataclasses.replace(scaling, epsilon=None)),
            ("cluster-scaling-alpha-1.2", dataclasses.replace(scaling, alpha=1.2)),
            # every schedule entry meets an infinite target: |x - inf| > rel * inf is false
            ("cluster-scaling-kappa-inf", dataclasses.replace(scaling, kappa=math.inf)),
            # c = 0 at p = 1/2, so the schedule's kappa_n is 0 and meets the target
            ("cluster-scaling-kappa-0", dataclasses.replace(
                scaling, kappa=0.0, epsilon=0.0,
                schedule=[ScheduleEntry(n=n, p=0.5, c=0.0) for n in (100, 400, 1600)]))):
        (tmp_path / f"{name}.json").write_text(config.to_json())
    argv = tuple(arg.format(tmp=tmp_path) for arg in argv)
    out_path = tmp_path / "out.csv"
    argv = argv + ("--out", str(out_path)) if argv[0] == "bridge" else argv
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and message in captured.err
    assert not out_path.exists()


_FINITE_VALUES = {"kappa": "1", "epsilon": "0.3", "alpha": "0.5", "a": "0.2", "b": "0.3",
                  "x": "0.4", "y": "0.3", "t": "0.5", "lam": "1", "s": "0.5", "r": "0.01",
                  "m": "3", "M": "2"}


@pytest.mark.parametrize("formula", sorted(LAW_FORMULAS))
def test_law_rejects_non_finite_parameters(capsys, formula):
    """Every required parameter of every limit law must be finite."""
    needed = LAW_FORMULAS[formula][1]
    for name in needed:
        for bad in ("nan", "inf", "-inf"):
            argv = ["law", "--formula", formula]
            argv += [f"--{q}={bad if q == name else _FINITE_VALUES[q]}" for q in needed]
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == "", argv
            assert captured.err.strip() == (
                f"loopsoup law: error: --{name} must be finite, got {float(bad)}")


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(name="no-such-audit"), "no-such-audit"),
    (lambda d: d.update(colour="red"), "colour"),
    (lambda d: d["schedule"][0].update(q=0.5), "'q'"),
    (lambda d: d.update(schedule=[]), "schedule"),
    (lambda d: d["thresholds"].update(z_limit=4.0), "z_limit"),
    (lambda d: d.pop("alpha"), "alpha"),
    (lambda d: d.update(schedule={"n": 12}), "schedule"),
    (lambda d: d.update(thresholds=[4.0]), "thresholds"),
    (lambda d: d.update(replicates="100"), "'replicates' must be int"),
    (lambda d: d.update(alpha="0.7"), "'alpha' must be float"),
    (lambda d: d.update(seed=1.5), "'seed' must be int"),
    (lambda d: d.update(replicates=True), "'replicates' must be int"),
    (lambda d: d["schedule"][0].update(n=12.0), "'n' must be int"),
    (lambda d: d["thresholds"].update(z_max="4"), "'z_max' must be float"),
], ids=["unknown-name", "unknown-field", "unknown-schedule-field", "empty-schedule",
        "unknown-threshold", "missing-field", "schedule-not-list", "thresholds-not-object",
        "replicates-string", "alpha-string", "seed-float", "replicates-bool",
        "schedule-n-float", "threshold-string"])
def test_bad_experiment_config_exits_with_one_line_message(tmp_path, capsys, edit, message):
    config = default_edge_audit_config(out_dir=str(tmp_path / "run")).to_dict()
    edit(config)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["experiment", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1 and message in captured.err
    assert not (tmp_path / "run").exists()
