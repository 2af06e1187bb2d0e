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
from functools import cache
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import analytics
from .circle import CircleModel, build_model, derived_killing
from .numerics import (
    cell_check,
    hausdorff,
    ks_distance_two_sample,
    require_finite,
    z_check,
)
from .sampler import SoupEnsemble, conditional_experiment
from .scaling import (ConditionedBridgeLaw, SubordinatorLaw, point_count_moments,
                      sample_conditioned_renewals)


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
    "gap_allowance": 0.02,       # bound on the exact split probability's gap to its limit
    "stability": 0.10,           # relative spread bound on the exact scaled cluster-count means
    "jk_gap": 0.03,              # bound on the exact through-1 extent cdf's gap to its limit
    "drift_rel": 0.05,           # schedule-vs-target relative drift bound
}

_field_hints = cache(get_type_hints)  # a dataclass's annotations, resolved once


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
    hints = _field_hints(cls)
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
                            ("comparison_replicates", 1)):
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
        return asdict(self)

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
                   blocks: Iterable[bytes] | None) -> None:
    """Write config.json, report.json, summary.csv from `rows` and, when
    `blocks` is given, replicates.jsonl from those blocks of lines (see
    replicate_lines)."""
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
    if blocks is not None:
        with open(os.path.join(config.out_dir, "replicates.jsonl"), "wb") as fh:
            fh.writelines(blocks)


_LINE_BLOCK = 1024  # replicates per block of lines


def _row_template(closed: int | None, through: bool) -> bytes:
    """`%` template of one profile's JSON line: `closed` kept edges (None
    when the ensemble keeps none), through extents null or not, and `%%d` in
    place of the replicate index and of each kept edge, left for the rows."""
    edges = b"" if closed is None else (
        b'"closed_left_endpoints": [' + b", ".join([b"%%d"] * closed) + b"], ")
    extent = b"%d" if through else b"null"
    return (b'{"closed_edges": %d, ' + edges + b'"clusters": %d, "lift_left": %d, '
            b'"lift_right": %d, "loops": %d, "origin_left": %d, "origin_right": %d, '
            b'"replicate": %%d, "through_left": ' + extent
            + b', "through_right": ' + extent + b"}\n")


def _profile_ids(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ids of the distinct columns of an int array, numbered in sorted order,
    with the index of one column per id.  One sort of a packed int64 key of
    the rows' spans finds them; where that key would pass int64,
    `np.unique(axis=1)` does, about 15 times slower."""
    low = columns.min(axis=1)
    span = (columns.max(axis=1) - low + 1).tolist()
    if math.prod(span) >= 2 ** 63:
        _, first, ids = np.unique(columns, axis=1, return_index=True, return_inverse=True)
        return ids, first
    place = np.cumprod([1, *span[:0:-1]])[::-1]  # mixed radix, the first row most significant
    key = place @ (columns - low[:, None])
    order = key.argsort()
    new = np.concatenate(([True], key[order[1:]] != key[order[:-1]]))
    ids = np.empty_like(order)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


def replicate_lines(ensemble: SoupEnsemble) -> Iterator[bytes]:
    """JSON lines of the replicates as bytes, keys sorted, made lazily from
    the ensemble's columns, a block of whole lines at a time.

    A line's profile is every field but the replicate index and the kept
    edges.  Each block takes two `%` calls: the first formats each of its
    distinct profiles once (see `_profile_ids`), with the replicate and
    kept-edge slots written `%%d`, and the second stamps each row's index and
    edges into its profile's line.  So every line is
    `json.dumps(record, sort_keys=True) + "\n"` without building the record.
    Extent fields are -1 / null when their defining event does not hold
    (origin extents need a closed edge; through extents additionally need a
    replicate free of loops avoiding vertex 1).  `closed_left_endpoints`
    (1-based) is present when the ensemble kept its closed edges.
    """
    keep = ensemble.closed_edges is not None
    count = ensemble.closed_edge_count
    # the template of profile key 2k + through, k the kept-edge count (0
    # without kept edges)
    ks = np.flatnonzero(np.bincount(count)).tolist() if keep else [0]
    template = {2 * k + through: _row_template(k if keep else None, through)
                for k in ks for through in (False, True)}
    edges_before = 0
    for lo in range(0, ensemble.replicates, _LINE_BLOCK):
        part = slice(lo, lo + _LINE_BLOCK)
        closed = count[part]
        through = (ensemble.avoiding_count[part] == 0) & (closed >= 1)
        columns = np.stack((closed, ensemble.lift_left[part], ensemble.lift_right[part],
                            ensemble.loop_count[part], ensemble.origin_left[part],
                            ensemble.origin_right[part], through))
        ids, first = _profile_ids(columns)
        stamps = np.arange(lo, lo + closed.size)
        if keep:
            edges = ensemble.closed_edges[edges_before:edges_before + int(closed.sum())] + 1
            edges_before += edges.size
            # a row's stamps are its kept edges, then its index
            stamps = np.insert(edges, np.cumsum(closed), stamps)
        # each distinct profile's fields, its through extents only where shown
        closed, lift_left, lift_right, loops, left, right, through = columns[:, first]
        fields = np.stack((closed, np.maximum(closed, 1), lift_left, lift_right, loops,
                           left, right, left, right), axis=1)
        shown = np.ones(fields.shape, dtype=bool)
        shown[:, 7:] = through[:, None] == 1
        key = through + 2 * closed if keep else through
        lines = (b"".join(map(template.__getitem__, key.tolist()))
                 % tuple(fields[shown].tolist())).splitlines(keepends=True)
        yield b"".join(map(lines.__getitem__, ids.tolist())) % tuple(stamps.tolist())


def ensemble_records(ensemble: SoupEnsemble) -> list[dict]:
    """Per-replicate records as dicts: `replicate_lines` parsed back.

    The line format is defined once, in `replicate_lines`; this is for
    callers that want the records in memory rather than on disk.
    """
    return [json.loads(line) for block in replicate_lines(ensemble)
            for line in block.splitlines()]


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
# experiment 2: single-partition probability and origin extents
# ---------------------------------------------------------------------------

def _simplex_cell_probs(kappa: float, alpha: float, bins: int) -> np.ndarray:
    """Integral of the extent limit density over each cell of a bins x bins grid.

    The density is f(x + y), so with H(z) = int_z^1 (t - z) f(t) dt, H'' = f
    and the cell [a1, a2] x [b1, b2] is the second difference
    H(a2+b2) - H(a1+b2) - H(a2+b1) + H(a1+b1).  With s = sqrt(kappa), the
    tail int_z^1 f is a multiple of (sinh(s(1-z)) / sinh(sz))^(1-alpha), whose
    integral in u = e^(-+sz) sinh(s(1-z)) / sinh s is incomplete-beta:
    H(z) = (I_{u+}(1-alpha, alpha) - q I_{u-}(1-alpha, alpha)) / (1 - q) with
    q = e^(-2s(1-alpha)), so H(0) = 1 (the normalisation) and H(z >= 1) = 0.
    """
    from scipy.special import betainc

    s = math.sqrt(kappa)
    z = np.minimum(np.arange(2 * bins + 1) / bins, 1.0)
    u_minus = np.expm1(-2.0 * s * (1.0 - z)) / math.expm1(-2.0 * s)
    u_plus = np.exp(-2.0 * s * z) * u_minus
    q = math.exp(-2.0 * s * (1.0 - alpha))
    H = ((betainc(1.0 - alpha, alpha, u_plus) - q * betainc(1.0 - alpha, alpha, u_minus))
         / -math.expm1(-2.0 * s * (1.0 - alpha)))
    # cell (i, j) has a1 + b1 = (i+j)/bins and a1 + b2 = a2 + b1 = (i+j+1)/bins
    cell = np.arange(bins)
    return np.diff(H, 2)[np.add.outer(cell, cell)]


def run_single_partition_convergence(config: ExperimentConfig) -> dict:
    """Split soups per n, and the origin extents at the last n, against the
    exact finite-n law `analytics.origin_extent_pmf`, each a `LawCheck`
    (false alarm at most 1e-3): "split", one Bonferroni budget over the
    schedule, and "origin extents", every replicate in one of the 6 x 6 bins
    of (origin_left, origin_right) / n or in one cell for no closed edge.
    Passes when both hold and the exact split probability at the last n is
    within `gap_allowance` of the limit.  Report only: the Monte Carlo gaps
    to the limit, and the total-variation distance of the exact binned
    extents of split soups from the limit's cells (`_simplex_cell_probs`).
    """
    config.validate(targets=("kappa", "epsilon"))
    if not 0.0 < config.alpha < 1.0:
        raise ValueError("needs 0 < alpha < 1")
    limit = analytics.prob_not_single_partition_limit(config.kappa, config.epsilon,
                                                      config.alpha)
    rows, hits = [], []
    for entry in config.schedule:
        model = entry.model(config.alpha)
        pmf = analytics.origin_extent_pmf(model)
        ens = conditional_experiment(model, config.seed, "unconditioned", config.replicates)
        split = ens.closed_edge_count >= 1
        hits.append(int(split.sum()))
        rows.append({"n": entry.n, "mc_split": ens.split_fraction, "exact_split": pmf.sum(),
                     "limit": limit, "gap": abs(ens.split_fraction - limit),
                     "exact_gap": abs(pmf.sum() - limit)})
    split_law = cell_check("split", hits, [r["exact_split"] for r in rows], config.replicates)
    bins = 6  # the last entry's extents in bins of l * bins // n; cell bins^2 is unsplit
    bin_of = np.arange(model.n) * bins // model.n
    cell = np.add.outer(bins * bin_of, bin_of)
    counts = np.bincount(np.where(split, cell[ens.origin_left, ens.origin_right], bins * bins),
                         minlength=bins * bins + 1)
    binned = np.bincount(cell.ravel(), weights=pmf.ravel(), minlength=bins * bins)
    extent_law = cell_check("origin extents", counts, np.append(binned, 1.0 - pmf.sum()),
                            config.replicates, pool=True)
    tv = 0.5 * float(np.abs(binned / pmf.sum()
                            - _simplex_cell_probs(config.kappa, config.alpha, bins).ravel()).sum())
    gap_ok = rows[-1]["exact_gap"] < config.thresholds["gap_allowance"]
    report = _jsonable({
        "experiment": config.name,
        "config": config.to_dict(),
        "per_n": rows,
        "limit": limit,
        "split_law_p": split_law.p,
        "origin_extent_law_p": extent_law.p,
        "origin_extent_exact_tv": tv,
        "final_gap_ok": bool(gap_ok),
        "passed": bool(split_law.ok and extent_law.ok and gap_ok),
    })
    _write_outputs(config, report, report["per_n"], replicate_lines(ens))
    return report


# ---------------------------------------------------------------------------
# experiment 3: cluster scaling, Hausdorff comparison with the bridge
# ---------------------------------------------------------------------------

def _require_extent_domain(kappa: float, alpha: float) -> None:
    if not (0.0 < kappa < math.inf and 0.0 < alpha < 1.0):
        raise ValueError("the cluster-extent limit law needs finite kappa > 0 and "
                         f"0 < alpha < 1, got kappa={kappa}, alpha={alpha}")


def sample_limit_extents(kappa: float, alpha: float, count: int, rng) -> np.ndarray:
    """(G, D) pairs from the extent limit density, drawn exactly with no rejection.

    The density is f(g + d), f(z) proportional to sinh(sz)^(alpha-2)
    sinh(s(1-z))^(-alpha), s = sqrt(kappa), so Z = G + D has density z f(z)
    and G given Z is uniform on (0, Z).  With eps = e^(-2s), the change of
    variables t = e^(-s) sinh(s(1-z)) / sinh(sz) turns f(z) dz into t^(-alpha) dt
    and 2s z into log((t+1) / (t+eps)), the integral of dy / (t+y) over (eps, 1).
    So Z's law in t is the t-marginal of t^(-alpha) / (t+y) on (0, inf) x (eps, 1),
    under which Y has density proportional to y^(-alpha) (drawn by inversion) and
    T/Y given Y is beta-prime(1-alpha, alpha), a ratio of gamma draws.  T is drawn
    in logs: for alpha near 1, Y and a Gamma(1-alpha) draw, taken as
    Gamma(2-alpha) V^(1/(1-alpha)) with V uniform, underflow.
    """
    _require_extent_domain(kappa, alpha)
    s, a = math.sqrt(kappa), 1.0 - alpha
    log_t = np.log1p(rng.random(count) * math.expm1(-2.0 * s * a)) / a  # log Y
    log_t += np.log(rng.standard_gamma(a + 1.0, count)) + np.log1p(-rng.random(count)) / a
    with np.errstate(divide="ignore"):  # a gamma draw of small shape alpha can be 0: z = 0
        log_t -= np.log(rng.standard_gamma(alpha, count))
    # 2s z = log1p((1-eps) / (t+eps)), exact in relative terms near z = 0
    log_u = math.log(-math.expm1(-2.0 * s)) - np.logaddexp(log_t, -2.0 * s)
    z = np.minimum(np.logaddexp(0.0, log_u) / (2.0 * s), 1.0)  # 2s z rounds past 2s near 1
    g = rng.random(count) * z
    return np.column_stack([g, z - g])


def run_cluster_scaling(config: ExperimentConfig) -> dict:
    """Scaled cluster counts and through-1 extents against their exact
    finite-n laws and the scaling limit, plus law comparisons with the bridge.

    Parts 1 and 3 each pass when the sample fits its exact law (a `LawCheck`,
    false alarm at most 1e-3) and that law's distance to the limit is within
    its threshold.  (1) Under the no-loops-through-1 conditioning the closed
    edges are the renewal points from 0 to n-1: a z-test of each schedule
    entry's mean closed-edge count against `point_count_moments`, one
    Bonferroni budget over the schedule, and the relative spread of the exact
    means over n^(1-alpha) at most `stability` (`k_scaled_stable`).  (2) Report
    only: at the comparison n, the scaled closed-endpoint sets of split
    unconditioned soups against extent-mixed bridge ranges (KS on the leftmost
    point and on the scaled cluster count, matched-quantile mean Hausdorff),
    where given limit extents (g, d) a path is one shared renewal law on the
    circle's grid conditioned to hit the far end of the arc 1 - g - d.  (3)
    Through-1-only extents at most (floor(an), floor(bn)) on a grid, counted
    against `through1_extent_cdf` by exact binomial tails, and that cdf's
    largest gap to `through1_extent_cdf_limit` below `jk_gap`
    (`through1_extent_ok`).  The Monte Carlo spread and gap to the limit are
    report only.
    """
    # parts 2 and 3 sample from seed + 1 .. seed + 3; part 3 compares with epsilon
    config.validate(seed_offset=3, targets=("kappa", "epsilon"))
    alpha, kappa = config.alpha, config.kappa
    _require_extent_domain(kappa, alpha)  # before part 1, so bad parameters cost nothing
    comparison_n = config.schedule[-1].n if config.comparison_n is None else config.comparison_n
    models = [entry.model(alpha) for entry in config.schedule]
    model_c = next(model for model in models if model.n == comparison_n)
    # the exact laws and their distances to the limit, before any sampling
    moments = [point_count_moments(alpha, model.r, model.n - 1) for model in models]
    grid = [(0.1, 0.1), (0.1, 0.3), (0.3, 0.1), (0.2, 0.2), (0.3, 0.3),
            (0.2, 0.5), (0.5, 0.2), (0.4, 0.4)]
    # integer extents are at most a*n exactly when at most floor(a*n)
    cells = [(math.floor(a * comparison_n), math.floor(b * comparison_n)) for a, b in grid]
    cdf = [analytics.through1_extent_cdf(model_c, m, big_m) for m, big_m in cells]
    limit = [analytics.through1_extent_cdf_limit(kappa, config.epsilon, alpha, a, b)
             for a, b in grid]

    # part 1: scaled cluster counts (conditioned = cut at vertex 1)
    rows = []
    for model, (mean, var) in zip(models, moments):
        ens = conditional_experiment(model, config.seed, "avoiding-1-only", config.replicates)
        scale = model.n ** (1.0 - alpha)
        k_scaled = ens.closed_edge_count / scale
        rows.append({"n": model.n,
                     "k_scaled_mean": float(np.mean(k_scaled)),
                     "k_scaled_se": float(np.std(k_scaled) / math.sqrt(len(k_scaled))),
                     "k_scaled_exact_mean": mean / scale,
                     "z": (float(np.mean(ens.closed_edge_count)) - mean)
                          / math.sqrt(var / config.replicates)})
    count_law = z_check("closed-edge count mean", [r["z"] for r in rows])
    spread, exact_spread = (float(np.ptp(means) / np.mean(means)) for means in (
        [r["k_scaled_mean"] for r in rows], [r["k_scaled_exact_mean"] for r in rows]))
    stable = count_law.ok and exact_spread <= config.thresholds["stability"]

    # part 2: split unconditioned soups vs the extent-mixed bridge
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

    # part 3: through-1-only extent cdf against its exact law and the limit
    ens_t = conditional_experiment(model_c, config.seed + 3, "through-1-only",
                                   config.comparison_replicates)
    split = ens_t.closed_edge_count >= 1
    hits = [int(np.sum(split & (ens_t.origin_left <= m) & (ens_t.origin_right <= big_m)))
            for m, big_m in cells]
    extent_law = cell_check("through-1 extent", hits, cdf, config.comparison_replicates)
    jk_rows = [{"a": a, "b": b, "mc": hit / config.comparison_replicates, "exact": exact,
                "limit": lim, "gap": abs(hit / config.comparison_replicates - lim)}
               for (a, b), hit, exact, lim in zip(grid, hits, cdf, limit)]
    exact_gap = max(abs(exact - lim) for exact, lim in zip(cdf, limit))
    jk_ok = extent_law.ok and exact_gap < config.thresholds["jk_gap"]

    report = _jsonable({
        "experiment": config.name,
        "config": config.to_dict(),
        "per_n": rows,
        "k_scaled_spread": spread,
        "k_scaled_exact_spread": exact_spread,
        "k_scaled_law_p": count_law.p,
        "k_scaled_stable": bool(stable),
        "comparison_n": comparison_n,
        "ks_leftmost": ks_left,
        "ks_cluster_count": ks_k,
        "mean_hausdorff": hd,
        "mean_hausdorff_reference": hd_ref,
        "through1_extent_grid": jk_rows,
        "through1_extent_max_gap": max(row["gap"] for row in jk_rows),
        "through1_extent_exact_max_gap": exact_gap,
        "through1_extent_law_p": extent_law.p,
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
