"""Config-driven experiment runner: Monte Carlo audits of the closed-form
probabilities and of the scaling limits, with machine-readable reports.

Every report embeds the full config and seed; re-running a config reproduces
the numbers exactly.  Pass/fail thresholds live in the config, not in code.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, asdict, dataclass, field, fields
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import analytics
from .circle import CircleModel, build_model, derived_killing
from .numerics import (
    QuadratureSpec,
    chi_square_pvalue,
    hausdorff,
    integrate,
    ks_distance_two_sample,
    require_finite,
)
from .sampler import SoupEnsemble, conditional_experiment
from .scaling import ConditionedBridgeLaw, SubordinatorLaw, sample_conditioned_renewals


@dataclass(frozen=True)
class ScheduleEntry:
    n: int
    p: float
    c: float

    def model(self, alpha: float) -> CircleModel:
        return build_model(self.n, self.p, self.c, alpha)


def symmetric_schedule(kappa: float, ns) -> list[ScheduleEntry]:
    """p = 1/2, c = kappa/(2 n^2): hits the kappa target with epsilon = kappa/2."""
    return [ScheduleEntry(n=n, p=0.5, c=kappa / (2.0 * n * n)) for n in ns]


def asymmetric_schedule(kappa: float, epsilon: float, ns) -> list[ScheduleEntry]:
    """Drifted walk p = 1/2 - sqrt(kappa-2 eps)/(2n), c = eps/n^2 (eps < kappa/2)."""
    drift = math.sqrt(kappa - 2.0 * epsilon)
    return [ScheduleEntry(n=n, p=0.5 - drift / (2.0 * n), c=epsilon / (n * n))
            for n in ns]


DEFAULT_THRESHOLDS = {
    "z_max": 4.0,                # edge-audit z-score gate
    "gap_allowance": 0.02,       # discretization allowance for limit gaps
    "chi2_min_p": 1e-3,          # chi-square acceptance for histograms
    "stability": 0.10,           # relative spread gate for scaled cluster counts
    "jk_gap": 0.03,              # pointwise gate for the through-1 extent cdf
    "drift_rel": 0.05,           # schedule-vs-target relative drift bound
    "min_cell_prob": 0.005,      # simplex cells below this merge into the rest
}


def _check_fields(what: str, d, cls) -> None:
    """ValueError naming the first unknown, missing or mistyped field of a
    dataclass's dict.

    A value must match the field's annotation: bool is not an int, and an int
    stands for a float.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object")
    names = {f.name: f for f in fields(cls)}
    for key in d:
        if key not in names:
            raise ValueError(f"unknown {what} field {key!r}")
    for name, f in names.items():
        if name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{what} is missing field {name!r}")
    hints = get_type_hints(cls)
    for key, value in d.items():
        _check_type(f"{what} field {key!r}", value, hints[key])


def _check_type(what: str, value, hint) -> None:
    allowed = get_args(hint) if get_origin(hint) is UnionType else (hint,)
    types = tuple(get_origin(t) or t for t in allowed)
    if float in types:
        types += (int,)
    if isinstance(value, bool) and bool not in types or not isinstance(value, types):
        names = " or ".join("null" if t is NoneType else t.__name__ for t in allowed)
        raise ValueError(f"{what} must be {names}, got {json.dumps(value, default=repr)}")


@dataclass
class ExperimentConfig:
    """Declarative experiment description; JSON(de)serializable."""

    name: str
    alpha: float
    schedule: list[ScheduleEntry]
    replicates: int
    seed: int
    kappa: float | None = None    # target of n^2 kappa_n, when a limit is compared
    epsilon: float | None = None  # target of n^2 c_n
    out_dir: str | None = None
    bridge_resolution: int = 2000  # grid steps per unit circle, shared by all mixture paths
    bridge_paths: int = 1000
    comparison_n: int | None = None       # schedule entry used for law comparisons
    comparison_replicates: int = 3000
    histogram_replicates: int = 2000      # power-calibrated histogram subsample
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))

    def validate(self, seed_offset: int = 0, targets: tuple[str, ...] = ()) -> None:
        """Check the seed leaves room for the runner's streams, seed up to
        seed + seed_offset, that the limit targets the runner compares with
        are set, that sizes and thresholds are in range, and that the schedule
        drifts toward the declared limit targets."""
        if not 0 <= self.seed < 2 ** 64 - seed_offset:
            bound = f"2^64 - {seed_offset}" if seed_offset else "2^64"
            raise ValueError(f"seed must lie in [0, {bound}) for {self.name}, "
                             f"got {self.seed}")
        for name in targets:
            if getattr(self, name) is None:
                raise ValueError(f"{name} must be set for {self.name}, got null")
        # bridge_paths >= 2: the Hausdorff reference compares two halves of the mixture
        for name, least in (("bridge_resolution", 1), ("bridge_paths", 2),
                            ("comparison_replicates", 1), ("histogram_replicates", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")
        sizes = [entry.n for entry in self.schedule]
        if self.comparison_n not in [None, *sizes]:
            raise ValueError(f"comparison_n must be null or one of the schedule sizes "
                             f"{sizes}, got {self.comparison_n}")
        require_finite(**{f"threshold {key!r}": v for key, v in self.thresholds.items()})
        if self.kappa is None:
            return
        rel = self.thresholds.get("drift_rel", 0.05)
        for entry in self.schedule:
            kap_n, _ = derived_killing(entry.p, entry.c)
            if abs(entry.n ** 2 * kap_n - self.kappa) > rel * max(self.kappa, 1e-12):
                raise ValueError(f"schedule entry n={entry.n} misses kappa target")
            if self.epsilon is not None:
                if abs(entry.n ** 2 * entry.c - self.epsilon) > rel * max(self.epsilon, 1e-12):
                    raise ValueError(f"schedule entry n={entry.n} misses epsilon target")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schedule"] = [asdict(e) for e in self.schedule]
        return d

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Config from a parsed JSON object; ValueError names the first bad field.

        Omitted optional fields and omitted thresholds take their defaults.
        """
        _check_fields("config", d, ExperimentConfig)
        d = dict(d)
        if d["name"] not in RUNNERS:
            raise ValueError(f"unknown experiment name {d['name']!r}, "
                             f"expected one of {', '.join(sorted(RUNNERS))}")
        if not isinstance(d["schedule"], list) or not d["schedule"]:
            raise ValueError("schedule must be a list with at least one entry")
        for e in d["schedule"]:
            _check_fields("schedule entry", e, ScheduleEntry)
        d["schedule"] = [ScheduleEntry(**e) for e in d["schedule"]]
        thresholds = d.get("thresholds", {})
        if not isinstance(thresholds, dict):
            raise ValueError("thresholds must be a JSON object")
        for key, value in thresholds.items():
            if key not in DEFAULT_THRESHOLDS:
                raise ValueError(f"unknown threshold {key!r}")
            _check_type(f"threshold {key!r}", value, float)
        d["thresholds"] = {**DEFAULT_THRESHOLDS, **thresholds}
        return ExperimentConfig(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(json.loads(text))


def default_edge_audit_config(out_dir=None) -> ExperimentConfig:
    return ExperimentConfig(
        name="edge-audit", alpha=0.7,
        schedule=[ScheduleEntry(n=12, p=0.55, c=0.4)],
        replicates=100_000, seed=20240801, out_dir=out_dir)


def default_single_partition_config(out_dir=None) -> ExperimentConfig:
    kappa, epsilon = 1.0, 0.5
    return ExperimentConfig(
        name="single-partition", alpha=0.5, kappa=kappa, epsilon=epsilon,
        schedule=symmetric_schedule(kappa, (50, 100, 200)),
        replicates=20_000, seed=20240802, out_dir=out_dir)


def default_cluster_scaling_config(out_dir=None) -> ExperimentConfig:
    kappa = 1.0
    return ExperimentConfig(
        name="cluster-scaling", alpha=0.5, kappa=kappa, epsilon=kappa / 2.0,
        schedule=symmetric_schedule(kappa, (100, 400, 1600)),
        replicates=2000, seed=20240803, out_dir=out_dir,
        bridge_resolution=2000, bridge_paths=1000,
        comparison_n=400, comparison_replicates=3000)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """Recursively convert numpy scalars/arrays to builtin types."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _write_outputs(config: ExperimentConfig, report: dict, rows: list[dict],
                   lines: Iterable[str] | None) -> None:
    """Write config.json, report.json, summary.csv from `rows` and, when
    `lines` is given, replicates.jsonl from those lines (see replicate_lines)."""
    if config.out_dir is None:
        return
    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, "config.json"), "w") as fh:
        fh.write(config.to_json())
    with open(os.path.join(config.out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    if rows:
        with open(os.path.join(config.out_dir, "summary.csv"), "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    if lines is not None:
        with open(os.path.join(config.out_dir, "replicates.jsonl"), "w") as fh:
            fh.writelines(lines)


_LINE_CHUNK = 4096  # replicates formatted per batch of columns


def replicate_lines(ensemble: SoupEnsemble) -> Iterator[str]:
    """One JSON line per replicate, keys sorted, made lazily from the ensemble's columns.

    Each chunk of replicates is turned into Python lists by `tolist()` and
    every line is one `%` template over a row of them, so the bytes equal
    `json.dumps(record, sort_keys=True) + "\n"` without building the record.
    Extent fields are -1 / null when their defining event does not hold
    (origin extents need a closed edge; through extents additionally need a
    replicate free of loops avoiding vertex 1).  `closed_left_endpoints`
    (1-based) is present when the ensemble kept its closed edges.
    """
    keep = ensemble.closed_edges is not None
    ends = np.concatenate(([0], np.cumsum(ensemble.closed_edge_count))) if keep else None
    template = ('{"closed_edges": %d, '
                + ('"closed_left_endpoints": %s, ' if keep else '')
                + '"clusters": %d, "lift_left": %d, "lift_right": %d, "loops": %d, '
                  '"origin_left": %d, "origin_right": %d, "replicate": %d, '
                  '"through_left": %s, "through_right": %s}\n')
    for lo in range(0, ensemble.replicates, _LINE_CHUNK):
        part = slice(lo, lo + _LINE_CHUNK)
        closed = ensemble.closed_edge_count[part]
        through = (ensemble.avoiding_count[part] == 0) & (closed >= 1)
        left, right = ensemble.origin_left[part], ensemble.origin_right[part]
        # %s prints a list of ints as its JSON array and the string null as null
        cols = [closed.tolist()]
        if keep:
            bounds = (ends[lo:lo + closed.size + 1] - ends[lo]).tolist()
            flat = (ensemble.closed_edges[ends[lo]:ends[lo + closed.size]] + 1).tolist()
            cols.append([flat[a:b] for a, b in zip(bounds, bounds[1:])])
        cols += [np.maximum(closed, 1).tolist(),
                 ensemble.lift_left[part].tolist(), ensemble.lift_right[part].tolist(),
                 ensemble.loop_count[part].tolist(), left.tolist(), right.tolist(),
                 range(lo, lo + closed.size),
                 np.where(through, left.astype(object), "null").tolist(),
                 np.where(through, right.astype(object), "null").tolist()]
        yield from map(template.__mod__, zip(*cols))


def ensemble_records(ensemble: SoupEnsemble) -> list[dict]:
    """Per-replicate records as dicts: `replicate_lines` parsed back.

    The line format is defined once, in `replicate_lines`; this is for
    callers that want the records in memory rather than on disk.
    """
    return [json.loads(line) for line in replicate_lines(ensemble)]


# ---------------------------------------------------------------------------
# experiment 1: per-edge closure probabilities
# ---------------------------------------------------------------------------

def run_edge_probability_audit(config: ExperimentConfig) -> dict:
    """MC vs closed-form closure probability for every edge, gated at z_max."""
    config.validate()
    entry = config.schedule[0]
    model = entry.model(config.alpha)
    ens = conditional_experiment(model, config.seed, "unconditioned", config.replicates)
    # the loops avoiding one undirected edge are the loops of the n-vertex arc
    # that edge cuts the circle into, so by rotation every edge has one value
    total = analytics.mass_inside(model, range(1, model.n + 1))
    p_closed = math.exp(-config.alpha * (total - analytics._arc_mass(model, model.n)))
    se = math.sqrt(max(p_closed * (1 - p_closed), 1e-30) / config.replicates)
    rows = []
    for e in range(model.n):
        p_hat = ens.closed_edge_totals[e] / config.replicates
        z = (p_hat - p_closed) / se
        rows.append({"edge": e + 1, "analytic": p_closed, "mc": p_hat,
                     "z": z, "pass": abs(z) <= config.thresholds["z_max"]})
    report = _jsonable({
        "experiment": config.name,
        "config": config.to_dict(),
        "edges": rows,
        "passed": all(row["pass"] for row in rows),
    })
    _write_outputs(config, report, report["edges"], replicate_lines(ens))
    return report


# ---------------------------------------------------------------------------
# experiment 2: single-partition probability and extent histogram
# ---------------------------------------------------------------------------

def _simplex_cell_probs(kappa: float, alpha: float, bins: int) -> np.ndarray:
    """Integral of the extent limit density over each cell of a bins x bins grid.

    The density is f(x + y), so with H(z) = int_z^1 (t - z) f(t) dt, H'' = f
    and the cell [a1, a2] x [b1, b2] is the second difference
    H(a2+b2) - H(a1+b2) - H(a2+b1) + H(a1+b1).  H(0) = 1 is the density's
    normalisation and H vanishes from z = 1 on.
    """
    def f(t):
        return analytics.cluster_extent_limit_density(kappa, alpha, t / 2.0, t / 2.0)

    H = np.zeros(2 * bins + 1)  # H(k / bins)
    H[0] = 1.0
    for k in range(1, bins):
        z = k / bins
        H[k], _ = integrate(lambda t: (t - z) * f(t), z, 1.0,
                            QuadratureSpec(tol=1e-12, limit=300))
    # cell (i, j) has a1 + b1 = (i+j)/bins and a1 + b2 = a2 + b1 = (i+j+1)/bins
    cell = np.arange(bins)
    return np.diff(H, 2)[np.add.outer(cell, cell)]


def extent_histogram_pvalue(ensemble: SoupEnsemble, kappa: float, alpha: float,
                            max_replicates: int, bins: int = 6,
                            min_cell_prob: float = 0.005) -> tuple[float, float]:
    """Chi-square p-value of the scaled extent histogram against the limit density.

    Cells with tiny expected probability are merged into a single rest bucket.
    The test uses the leading `max_replicates` (>= 1) replicates only: the
    extent law converges without a proven rate, so the histogram test is run
    at a declared power below which lattice bias stays within noise.
    """
    n = int(ensemble.model["n"])
    split = ensemble.closed_edge_count[:max_replicates] >= 1
    gx = ensemble.origin_left[:max_replicates][split] / n
    gy = ensemble.origin_right[:max_replicates][split] / n
    probs = _simplex_cell_probs(kappa, alpha, bins)
    # extents lie in [0, (n-1)/n], inside the grid
    counts, _, _ = np.histogram2d(gx, gy, bins=np.linspace(0.0, 1.0, bins + 1))

    keep = probs >= min_cell_prob
    obs = list(counts[keep])
    exp = list(probs[keep])
    rest_p = probs[~keep].sum()
    rest_c = counts[~keep].sum()
    if rest_p > 0:
        obs.append(rest_c)
        exp.append(rest_p)
    return chi_square_pvalue(obs, exp)


def run_single_partition_convergence(config: ExperimentConfig) -> dict:
    """MC split probability per n against the limit law, plus the extent histogram."""
    config.validate(targets=("kappa", "epsilon"))
    if not 0.0 < config.alpha < 1.0:
        raise ValueError("needs 0 < alpha < 1")
    limit = analytics.prob_not_single_partition_limit(config.kappa, config.epsilon,
                                                      config.alpha)
    rows = []
    for entry in config.schedule:
        model = entry.model(config.alpha)
        ens = conditional_experiment(model, config.seed, "unconditioned", config.replicates)
        frac = ens.split_fraction
        se = math.sqrt(max(frac * (1 - frac), 1e-30) / config.replicates)
        rows.append({"n": entry.n, "mc_split": frac, "limit": limit,
                     "gap": abs(frac - limit), "se": se})

    allowance = config.thresholds["gap_allowance"]
    final = rows[-1]
    gap_ok = final["gap"] < allowance + 3.0 * final["se"]
    # the histogram is of the last schedule entry's ensemble
    stat, pval = extent_histogram_pvalue(ens, config.kappa, config.alpha,
                                         config.histogram_replicates,
                                         min_cell_prob=config.thresholds["min_cell_prob"])
    chi_ok = pval > config.thresholds["chi2_min_p"]
    report = _jsonable({
        "experiment": config.name,
        "config": config.to_dict(),
        "per_n": rows,
        "limit": limit,
        "final_gap_ok": bool(gap_ok),
        "extent_chi2_stat": stat,
        "extent_chi2_p": pval,
        "extent_chi2_ok": bool(chi_ok),
        "passed": bool(gap_ok and chi_ok),
    })
    _write_outputs(config, report, report["per_n"], replicate_lines(ens))
    return report


# ---------------------------------------------------------------------------
# experiment 3: cluster scaling, Hausdorff comparison with the bridge
# ---------------------------------------------------------------------------

def sample_limit_extents(kappa: float, alpha: float, count: int, rng) -> np.ndarray:
    """(G, D) pairs from the extent limit density, by exact rejection.

    The density depends on g + d only; the sum z has density proportional to
    z sinh(s z)^(alpha-2) sinh(s(1-z))^(-alpha), whose ratio against a
    Beta(alpha, 1-alpha) proposal is bounded and smooth, so a constant
    envelope gives exact samples.  Given z, g is uniform on (0, z).
    """
    s = math.sqrt(kappa)

    def log_ratio(z):
        # log of target/proposal = (2-alpha) log(z/sinh(sz)) + alpha log((1-z)/sinh(s(1-z)))
        return ((2.0 - alpha) * (np.log(z) - np.log(np.sinh(s * z)))
                + alpha * (np.log(1.0 - z) - np.log(np.sinh(s * (1.0 - z)))))

    grid = np.linspace(1e-9, 1.0 - 1e-9, 20_001)
    log_env = float(np.max(log_ratio(grid))) + 1e-9
    out = np.empty(0)
    while out.size < count:
        need = count - out.size
        z = rng.beta(alpha, 1.0 - alpha, size=2 * need + 64)
        z = z[(z > 0.0) & (z < 1.0)]
        accept = np.log(rng.random(z.size)) < log_ratio(z) - log_env
        out = np.concatenate([out, z[accept]])
    z = out[:count]
    g = rng.random(count) * z
    return np.column_stack([g, z - g])


def run_cluster_scaling(config: ExperimentConfig) -> dict:
    """Scaled cluster-count stability plus law comparisons against the bridge.

    Three parts: (1) mean of (closed edges)/n^(1-alpha) across the schedule
    under the no-loops-through-1 conditioning, gated on relative spread;
    (2) at the comparison n, the scaled closed-endpoint sets of split
    unconditioned soups against extent-mixed bridge ranges (KS on the leftmost
    point and on the scaled cluster count, matched-quantile mean Hausdorff),
    where given limit extents (g, d) a path is one shared renewal law on the
    circle's grid conditioned to hit the far end of the arc 1 - g - d;
    (3) the through-1-only extent cdf against its scaling limit on a grid.
    """
    # parts 2 and 3 sample from seed + 1 .. seed + 3; part 3 compares with epsilon
    config.validate(seed_offset=3, targets=("kappa", "epsilon"))
    alpha, kappa = config.alpha, config.kappa
    comparison_n = config.schedule[-1].n if config.comparison_n is None else config.comparison_n

    # part 1: scaled cluster-count stability (conditioned = cut at vertex 1)
    rows = []
    for entry in config.schedule:
        ens = conditional_experiment(entry.model(alpha), config.seed,
                                     "avoiding-1-only", config.replicates)
        k_scaled = ens.closed_edge_count / entry.n ** (1.0 - alpha)
        rows.append({"n": entry.n,
                     "k_scaled_mean": float(np.mean(k_scaled)),
                     "k_scaled_se": float(np.std(k_scaled) / math.sqrt(len(k_scaled)))})
    means = np.array([r["k_scaled_mean"] for r in rows])
    spread = float((means.max() - means.min()) / means.mean())
    stable = spread <= config.thresholds["stability"]

    # part 2: split unconditioned soups vs the extent-mixed bridge
    model_c = next(e for e in config.schedule if e.n == comparison_n).model(alpha)
    ens_u = conditional_experiment(model_c, config.seed + 1, "unconditioned",
                                   config.comparison_replicates, keep_closed_edges=True)
    split = ens_u.closed_edge_count >= 1
    if not split.any():
        raise ValueError(f"no split soup among the {config.comparison_replicates} "
                         f"comparison replicates at n={comparison_n}")
    # only split replicates hold closed edges, and the leftmost is origin_right
    counts = ens_u.closed_edge_count[split]
    soup_sets = np.split(ens_u.closed_edges / comparison_n, np.cumsum(counts)[:-1])
    soup_left = ens_u.origin_right[split] / comparison_n
    soup_k = counts / comparison_n ** (1.0 - alpha)

    rng = np.random.default_rng(config.seed + 2)
    extents = sample_limit_extents(kappa, alpha, config.bridge_paths, rng)
    res = config.bridge_resolution
    law = ConditionedBridgeLaw(SubordinatorLaw(kappa, alpha)).renewal_approximation(res)
    lengths = 1.0 - extents.sum(axis=1)
    levels = np.maximum(np.rint(lengths * res).astype(np.int64), 1)
    paths = sample_conditioned_renewals(law, levels, len(levels), rng)
    mix_sets = [g + length * pts / level
                for g, length, pts, level in zip(extents[:, 0], lengths, paths, levels)]
    mix_left = extents[:, 0]
    mix_k = [(pts.size - 1) / res ** (1.0 - alpha) for pts in paths]
    ks_left = ks_distance_two_sample(soup_left, mix_left)
    ks_k = ks_distance_two_sample(soup_k, mix_k)

    def matched_hausdorff(sets_a, sets_b):
        """Mean Hausdorff distance of the sets at 101 matched leftmost-point
        quantiles; a pair of indices met more than once is measured once."""
        a, b = (sorted(sets, key=lambda s: s[0]) for sets in (sets_a, sets_b))
        pairs = [(int(q * (len(a) - 1)), int(q * (len(b) - 1)))
                 for q in np.linspace(0.0, 1.0, 101)]
        dist = {(i, j): hausdorff(a[i], b[j]) for i, j in set(pairs)}
        return float(np.mean([dist[pair] for pair in pairs]))

    hd = matched_hausdorff(soup_sets, mix_sets)
    # reference scale: the same statistic between two halves of the mixture
    hd_ref = matched_hausdorff(mix_sets[0::2], mix_sets[1::2])

    # part 3: through-1-only scaled extent cdf against the limit formula
    ens_t = conditional_experiment(model_c, config.seed + 3, "through-1-only",
                                   config.comparison_replicates)
    grid = [(0.1, 0.1), (0.1, 0.3), (0.3, 0.1), (0.2, 0.2), (0.3, 0.3),
            (0.2, 0.5), (0.5, 0.2), (0.4, 0.4)]
    jk_rows, jk_gap = [], 0.0
    for a, b in grid:
        emp = float(np.mean((ens_t.closed_edge_count >= 1)
                            & (ens_t.origin_left <= a * comparison_n)
                            & (ens_t.origin_right <= b * comparison_n)))
        lim = analytics.through1_extent_cdf_limit(kappa, config.epsilon, alpha, a, b)
        jk_rows.append({"a": a, "b": b, "mc": emp, "limit": lim,
                        "gap": abs(emp - lim)})
        jk_gap = max(jk_gap, abs(emp - lim))
    jk_ok = jk_gap < config.thresholds["jk_gap"]

    report = _jsonable({
        "experiment": config.name,
        "config": config.to_dict(),
        "per_n": rows,
        "k_scaled_spread": spread,
        "k_scaled_stable": bool(stable),
        "comparison_n": comparison_n,
        "ks_leftmost": ks_left,
        "ks_cluster_count": ks_k,
        "mean_hausdorff": hd,
        "mean_hausdorff_reference": hd_ref,
        "through1_extent_grid": jk_rows,
        "through1_extent_max_gap": jk_gap,
        "through1_extent_ok": bool(jk_ok),
        "passed": bool(stable and jk_ok),
    })
    _write_outputs(config, report, report["per_n"], None)
    return report


RUNNERS = {
    "edge-audit": run_edge_probability_audit,
    "single-partition": run_single_partition_convergence,
    "cluster-scaling": run_cluster_scaling,
}
