"""The benchmark's workloads: generated inputs, CLI arguments and output checks.

Each workload turns a seed into the argv of one `loopsoup` CLI call, with any
config file written into the run's work directory, and checks that call's
outputs against closed forms afterwards, outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy import stats

from loopsoup import analytics, experiments, scaling
from loopsoup.circle import build_model

# Chance that one check fails on a correct program.  A driver session makes
# about 1e4 checks, so a false alarm anywhere in it stays near 1e-3.
FALSE_ALARM = 1e-7
Z_BOUND = float(stats.norm.isf(FALSE_ALARM / 2.0))


def binomial_ok(count: int, trials: int, prob: float) -> bool:
    """Two-sided exact binomial test of `count` successes at level FALSE_ALARM."""
    tail = min(stats.binom.cdf(count, trials, prob), stats.binom.sf(count - 1, trials, prob))
    return bool(2.0 * tail >= FALSE_ALARM)


def _write_config(config, workdir: str, rep: int) -> list[str]:
    path = os.path.join(workdir, f"config-{rep}.json")
    with open(path, "w") as fh:
        fh.write(config.to_json())
    return ["experiment", "--config", path]


class Workload:
    name: str
    items: int  # soup replicates, or bridge paths, per CLI call

    def notes(self, workdir: str, rep: int) -> dict:
        """Output values recorded with the run but not counted as checks."""
        return {}


class EdgeAudit(Workload):
    """`loopsoup experiment` on the default edge audit: small circle, many replicates."""

    name = "edge-audit"

    def __init__(self, tiny: bool):
        self.replicates = 500 if tiny else 10_000
        self.items = self.replicates

    def make_input(self, workdir: str, rep: int, seed: int) -> list[str]:
        config = experiments.default_edge_audit_config(
            out_dir=os.path.join(workdir, f"out-{rep}"))
        config.replicates = self.replicates
        config.seed = seed
        config.thresholds["z_max"] = Z_BOUND
        return _write_config(config, workdir, rep)

    def check(self, workdir: str, rep: int, rc) -> list[tuple[str, bool]]:
        out = os.path.join(workdir, f"out-{rep}")
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        z_max = report["config"]["thresholds"]["z_max"]
        checks = [(f"edge {row['edge']} |z| <= z_max", abs(row["z"]) <= z_max)
                  for row in report["edges"]]
        with open(os.path.join(out, "replicates.jsonl")) as fh:
            lines = sum(1 for _ in fh)
        checks.append(("replicates.jsonl has one line per replicate",
                       lines == report["config"]["replicates"]))
        return checks


class ClusterScaling(Workload):
    """`loopsoup experiment` on the cluster-scaling config at reduced sample sizes."""

    name = "cluster-scaling"

    def __init__(self, tiny: bool):
        self.tiny = tiny
        if tiny:
            self.sizes = dict(replicates=40, comparison_replicates=60, bridge_paths=20)
        else:
            self.sizes = dict(replicates=50, comparison_replicates=100, bridge_paths=50)
        # every soup replicate: one ensemble per schedule entry plus two at comparison_n
        self.items = 3 * self.sizes["replicates"] + 2 * self.sizes["comparison_replicates"]

    def make_input(self, workdir: str, rep: int, seed: int) -> list[str]:
        config = experiments.default_cluster_scaling_config(
            out_dir=os.path.join(workdir, f"out-{rep}"))
        if self.tiny:
            config.schedule = experiments.symmetric_schedule(config.kappa, (25, 50, 100))
            config.comparison_n = 50
            config.bridge_resolution = 200
        for key, value in self.sizes.items():
            setattr(config, key, value)
        config.seed = seed
        return _write_config(config, workdir, rep)

    def _report(self, workdir: str, rep: int) -> dict:
        with open(os.path.join(workdir, f"out-{rep}", "report.json")) as fh:
            return json.load(fh)

    def check(self, workdir: str, rep: int, rc) -> list[tuple[str, bool]]:
        report = self._report(workdir, rep)
        config = report["config"]
        n = report["comparison_n"]
        entry = next(e for e in config["schedule"] if e["n"] == n)
        model = build_model(n, entry["p"], entry["c"], config["alpha"])
        trials = config["comparison_replicates"]
        checks = []
        for row in report["through1_extent_grid"]:
            # the runner counts origin extents <= a*n, i.e. <= floor(a*n)
            m, big_m = math.floor(row["a"] * n), math.floor(row["b"] * n)
            prob = analytics.through1_extent_cdf(model, m, big_m)
            count = round(row["mc"] * trials)
            checks.append((f"through-1 cdf at (m, M) = ({m}, {big_m})",
                           binomial_ok(count, trials, prob)))
        return checks

    def notes(self, workdir: str, rep: int) -> dict:
        """The report's limit-law gates, not expected to pass at these reduced sizes."""
        report = self._report(workdir, rep)
        keys = ("k_scaled_spread", "k_scaled_stable", "through1_extent_max_gap",
                "through1_extent_ok", "ks_leftmost", "ks_cluster_count",
                "mean_hausdorff", "mean_hausdorff_reference", "passed")
        return {key: report[key] for key in keys}


class Bridge(Workload):
    """`loopsoup bridge` at the criterion-9 resolution: one renewal law, many paths."""

    name = "bridge"
    kappa, alpha = 1.0, 0.5

    def __init__(self, tiny: bool):
        self.resolution = 2000 if tiny else 100_000
        self.paths = 20 if tiny else 100
        self.items = self.paths
        self._first_jump_pmf = None

    def make_input(self, workdir: str, rep: int, seed: int) -> list[str]:
        return ["bridge", "--kappa", repr(self.kappa), "--alpha", repr(self.alpha),
                "--resolution", str(self.resolution), "--paths", str(self.paths),
                "--seed", str(seed), "--out", os.path.join(workdir, f"paths-{rep}.csv")]

    def first_jump_pmf(self) -> np.ndarray:
        """P[first jump = j] for j = 1..resolution under the law the CLI samples from."""
        if self._first_jump_pmf is None:
            bridge = scaling.ConditionedBridgeLaw(
                scaling.SubordinatorLaw(kappa=self.kappa, alpha=self.alpha))
            law = bridge.renewal_approximation(self.resolution)
            self._first_jump_pmf = law.conditioned_jump_pmf(0, self.resolution)
        return self._first_jump_pmf

    def check(self, workdir: str, rep: int, rc) -> list[tuple[str, bool]]:
        n = self.resolution
        with open(os.path.join(workdir, f"paths-{rep}.csv"), newline="") as fh:
            rows = [np.array(row, dtype=float) for row in csv.reader(fh)]
        checks = [("exit code 0", rc == 0), ("one row per path", len(rows) == self.paths)]
        checks += [(f"path {i} runs from 0 strictly up to 1",
                    bool(row[0] == 0.0 and row[-1] == 1.0 and np.all(np.diff(row) > 0)))
                   for i, row in enumerate(rows)]
        # rows hold k/n to 8 significant digits, so k is recovered exactly for n < 1e7
        first = np.array([round(row[1] * n) for row in rows if row.size > 1])
        pmf = self.first_jump_pmf()
        cdf = np.cumsum(pmf) / pmf.sum()
        # a jump of 1 holds most of the mass (C(1) is about 2^-alpha), so it gets
        # its own bin; longer jumps are split at quantiles 0.2..0.8 of the rest
        levels = cdf[0] + (1.0 - cdf[0]) * np.array([0.2, 0.4, 0.6, 0.8])
        cuts = np.searchsorted(cdf, levels) + 1
        bounds = np.unique(np.concatenate([[1, 2], cuts, [n + 1]]))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            prob = float(pmf[lo - 1:hi - 1].sum() / pmf.sum())
            count = int(np.sum((first >= lo) & (first < hi)))
            checks.append((f"first jump in [{lo}, {hi})",
                           binomial_ok(count, first.size, prob)))
        return checks


WORKLOADS = {w.name: w for w in (EdgeAudit, ClusterScaling, Bridge)}
