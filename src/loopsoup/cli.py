"""Command-line interface.

Subcommands: analytic (finite-n closed forms), law (limit-law evaluations),
sample (soup replicates to JSONL + summary CSV), bridge (conditioned-path
ranges to CSV), experiment (config-driven audits; exit code 0 only if all
enabled audits pass).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import analytics, experiments, scaling
from .circle import build_model
from .sampler import CONDITIONS, conditional_experiment


def _hitting_coefficient(alpha: float, r: float, m: float) -> float:
    if not (float(m).is_integer() and m >= 1):
        raise ValueError(f"--m must be an integer >= 1, got {m:g}")
    return float(scaling.hitting_coefficients(alpha, r, int(m))[int(m)])


def _model_formula(fn, *param_names):
    def call(args):
        model = build_model(args.n, args.p, args.c, args.alpha)
        extra = [getattr(args, name) for name in param_names]
        return fn(model, *extra)
    return call


ANALYTIC_FORMULAS = {
    "mass-through-vertex1": (_model_formula(analytics.mass_through_vertex1), ()),
    "mass-liftable": (_model_formula(analytics.mass_liftable), ()),
    "mass-total": (
        _model_formula(lambda m: analytics.mass_inside(m, range(1, m.n + 1))), ()),
    "prob-no-winding-or-covering": (
        _model_formula(analytics.prob_no_winding_or_covering), ()),
    "through1-extent-cdf": (
        _model_formula(analytics.through1_extent_cdf, "m", "M"), ("m", "M")),
    "covered-extent-cdf": (
        _model_formula(analytics.covered_extent_cdf, "m", "M"), ("m", "M")),
    "prob-split-given-no-avoiding": (
        _model_formula(analytics.prob_split_given_no_avoiding), ()),
}

LAW_FORMULAS = {
    "prob-no-winding-or-covering-limit": (
        lambda a: analytics.prob_no_winding_or_covering_limit(a.kappa, a.epsilon, a.alpha),
        ("kappa", "epsilon", "alpha")),
    "prob-not-single-partition-limit": (
        lambda a: analytics.prob_not_single_partition_limit(a.kappa, a.epsilon, a.alpha),
        ("kappa", "epsilon", "alpha")),
    "through1-extent-cdf-limit": (
        lambda a: analytics.through1_extent_cdf_limit(a.kappa, a.epsilon, a.alpha, a.a, a.b),
        ("kappa", "epsilon", "alpha", "a", "b")),
    "cluster-extent-limit-density": (
        lambda a: analytics.cluster_extent_limit_density(a.kappa, a.alpha, a.x, a.y),
        ("kappa", "alpha", "x", "y")),
    "potential-density": (
        lambda a: scaling.SubordinatorLaw(a.kappa, a.alpha).potential_density(a.x),
        ("kappa", "alpha", "x")),
    "levy-density": (
        lambda a: scaling.SubordinatorLaw(a.kappa, a.alpha).levy_density(a.t),
        ("kappa", "alpha", "t")),
    "levy-tail": (
        lambda a: scaling.SubordinatorLaw(a.kappa, a.alpha).levy_tail(a.t),
        ("kappa", "alpha", "t")),
    "laplace-exponent": (
        lambda a: scaling.SubordinatorLaw(a.kappa, a.alpha).laplace_exponent(a.lam),
        ("kappa", "alpha", "lam")),
    "hitting-density": (
        lambda a: scaling.SubordinatorLaw(a.kappa, a.alpha).hitting_density(a.a, a.x),
        ("kappa", "alpha", "a", "x")),
    "bridge-crossing-joint-density": (
        lambda a: scaling.bridge_crossing_joint_density(a.kappa, a.alpha, a.a, a.b, a.x, a.y),
        ("kappa", "alpha", "a", "b", "x", "y")),
    "halfline-gap-pgf": (
        lambda a: scaling.halfline_gap_pgf(a.alpha, a.s), ("alpha", "s")),
    "escape-probability": (
        lambda a: scaling.escape_probability(a.alpha), ("alpha",)),
    "hitting-coefficient": (
        lambda a: _hitting_coefficient(a.alpha, a.r, a.m), ("alpha", "r", "m")),
}

_BRIDGE_CHUNK = 1000

_PARAM_NAMES = ("kappa", "epsilon", "alpha", "a", "b", "x", "y", "t", "lam",
                "s", "r", "m", "M")


def _add_model_args(parser):
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--p", type=float, required=True)
    parser.add_argument("--c", type=float, required=True)
    parser.add_argument("--alpha", type=float, required=True)


def _emit(formula: str, args, value: float) -> None:
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "formula", "func") and v is not None}
    print(json.dumps({"formula": formula, "params": params, "value": value},
                     sort_keys=True))


def _evaluate(formulas, args) -> int:
    fn, needed = formulas[args.formula]
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        raise ValueError(f"formula {args.formula} needs {' '.join(missing)}")
    for name in needed:
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"--{name} must be finite, got {getattr(args, name)}")
    _emit(args.formula, args, fn(args))
    return 0


def _cmd_analytic(args) -> int:
    return _evaluate(ANALYTIC_FORMULAS, args)


def _cmd_law(args) -> int:
    return _evaluate(LAW_FORMULAS, args)


def _cmd_sample(args) -> int:
    model = build_model(args.n, args.p, args.c, args.alpha)
    ens = conditional_experiment(model, args.seed, args.condition,
                                 args.replicates, keep_closed_edges=True)
    records = experiments.ensemble_records(ens)
    if args.out:
        with open(args.out, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    else:
        for rec in records:
            print(json.dumps(rec, sort_keys=True))
    if args.summary:
        with open(args.summary, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["statistic", "mean"])
            for name, arr in (("loops", ens.loop_count),
                              ("clusters", np.maximum(ens.closed_edge_count, 1)),
                              ("closed_edges", ens.closed_edge_count),
                              ("split_fraction", ens.closed_edge_count >= 1)):
                writer.writerow([name, float(np.mean(arr))])
    return 0


def _cmd_bridge(args) -> int:
    if args.resolution < 1:
        raise ValueError("--resolution must be at least 1")
    if args.paths < 0:
        raise ValueError("--paths must be nonnegative")
    if not 0 <= args.seed < 2 ** 64:
        raise ValueError(f"--seed must lie in [0, 2^64), got {args.seed}")
    bridge = scaling.ConditionedBridgeLaw(
        scaling.SubordinatorLaw(kappa=args.kappa, alpha=args.alpha))
    law = bridge.renewal_approximation(args.resolution)
    rng = np.random.default_rng(args.seed)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out)
    # paths are drawn in chunks so memory stays bounded for any --paths
    for start in range(0, args.paths, _BRIDGE_CHUNK):
        count = min(_BRIDGE_CHUNK, args.paths - start)
        for pts in bridge.sample_bridge_paths(args.resolution, count, rng, law=law):
            writer.writerow([f"{p:.8g}" for p in pts.tolist()])
    if args.out:
        out.close()
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config) as fh:
        config = experiments.ExperimentConfig.from_json(fh.read())
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    runner = experiments.RUNNERS[config.name]
    report = runner(config)
    print(json.dumps({k: v for k, v in report.items() if k != "config"},
                     indent=2, sort_keys=True, default=str))
    return 0 if report["passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="loopsoup",
                                     description="Loop-soup simulation and "
                                                 "verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analytic = sub.add_parser("analytic", help="finite-n closed forms")
    p_analytic.add_argument("--formula", choices=sorted(ANALYTIC_FORMULAS), required=True)
    _add_model_args(p_analytic)
    p_analytic.add_argument("--m", type=int, default=None)
    p_analytic.add_argument("--M", type=int, default=None)
    p_analytic.set_defaults(func=_cmd_analytic)

    p_law = sub.add_parser("law", help="limit-law formulas")
    p_law.add_argument("--formula", choices=sorted(LAW_FORMULAS), required=True)
    for name in _PARAM_NAMES:
        p_law.add_argument(f"--{name}", type=float, default=None)
    p_law.set_defaults(func=_cmd_law)

    p_sample = sub.add_parser("sample", help="soup replicates")
    _add_model_args(p_sample)
    p_sample.add_argument("--replicates", type=int, default=1000)
    p_sample.add_argument("--condition", choices=CONDITIONS, default="unconditioned")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", type=str, default=None, help="JSONL path")
    p_sample.add_argument("--summary", type=str, default=None, help="CSV path")
    p_sample.set_defaults(func=_cmd_sample)

    p_bridge = sub.add_parser("bridge", help="conditioned-path ranges")
    p_bridge.add_argument("--kappa", type=float, required=True)
    p_bridge.add_argument("--alpha", type=float, required=True)
    p_bridge.add_argument("--resolution", type=int, default=10000)
    p_bridge.add_argument("--paths", type=int, default=100)
    p_bridge.add_argument("--seed", type=int, default=0)
    p_bridge.add_argument("--out", type=str, default=None)
    p_bridge.set_defaults(func=_cmd_bridge)

    p_exp = sub.add_parser("experiment", help="config-driven audits")
    p_exp.add_argument("--config", type=str, required=True)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--out", type=str, default=None)
    p_exp.set_defaults(func=_cmd_experiment)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"loopsoup {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
