"""Command-line interface.

Subcommands: analytic (finite-n closed forms), law (limit-law evaluations),
sample (soup replicates to JSONL + summary CSV), bridge (conditioned-path
ranges to CSV), experiment (config-driven audits; exit code 0 only if all
enabled audits pass).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys

import numpy as np

from . import analytics, experiments, scaling
from .circle import build_model
from .sampler import CONDITIONS, check_experiment_args, conditional_experiment


def _integer_m(m: float) -> float:
    if not (float(m).is_integer() and m >= 1):
        raise ValueError(f"--m must be an integer >= 1, got {m:g}")
    return m


# formula name: (function, the parameters it takes after the model, by option name)
ANALYTIC_FORMULAS = {
    "mass-through-vertex1": (analytics.mass_through_vertex1, ()),
    "mass-liftable": (analytics.mass_liftable, ()),
    "mass-total": (analytics._circle_mass, ()),
    "prob-no-winding-or-covering": (analytics.prob_no_winding_or_covering, ()),
    "through1-extent-cdf": (analytics.through1_extent_cdf, ("m", "M")),
    "covered-extent-cdf": (analytics.covered_extent_cdf, ("m", "M")),
    "prob-split-given-no-avoiding": (analytics.prob_split_given_no_avoiding, ()),
}

# formula name: (function, its parameters by option name)
LAW_FORMULAS = {
    "prob-no-winding-or-covering-limit": (
        analytics.prob_no_winding_or_covering_limit, ("kappa", "epsilon", "alpha")),
    "prob-not-single-partition-limit": (
        analytics.prob_not_single_partition_limit, ("kappa", "epsilon", "alpha")),
    "through1-extent-cdf-limit": (
        analytics.through1_extent_cdf_limit, ("kappa", "epsilon", "alpha", "a", "b")),
    "cluster-extent-limit-density": (
        analytics.cluster_extent_limit_density, ("kappa", "alpha", "x", "y")),
    "potential-density": (
        lambda kappa, alpha, x: scaling.SubordinatorLaw(kappa, alpha).potential_density(x),
        ("kappa", "alpha", "x")),
    "levy-density": (
        lambda kappa, alpha, t: scaling.SubordinatorLaw(kappa, alpha).levy_density(t),
        ("kappa", "alpha", "t")),
    "levy-tail": (
        lambda kappa, alpha, t: scaling.SubordinatorLaw(kappa, alpha).levy_tail(t),
        ("kappa", "alpha", "t")),
    "laplace-exponent": (
        lambda kappa, alpha, lam: scaling.SubordinatorLaw(kappa, alpha).laplace_exponent(lam),
        ("kappa", "alpha", "lam")),
    "hitting-density": (
        lambda kappa, alpha, a, x: scaling.SubordinatorLaw(kappa, alpha).hitting_density(a, x),
        ("kappa", "alpha", "a", "x")),
    "bridge-crossing-joint-density": (
        scaling.bridge_crossing_joint_density, ("kappa", "alpha", "a", "b", "x", "y")),
    "halfline-gap-pgf": (scaling.halfline_gap_pgf, ("alpha", "s")),
    "escape-probability": (scaling.escape_probability, ("alpha",)),
    "hitting-coefficient": (
        lambda alpha, r, m: float(scaling._hitting_coefficient(alpha, r, _integer_m(m))),
        ("alpha", "r", "m")),
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


def _evaluate(formulas, args, *leading) -> int:
    """Check the formula's parameters, then print fn(*leading, *parameters)."""
    fn, needed = formulas[args.formula]
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        raise ValueError(f"formula {args.formula} needs {' '.join(missing)}")
    for name in needed:
        if not math.isfinite(getattr(args, name)):
            raise ValueError(f"--{name} must be finite, got {getattr(args, name)}")
    _emit(args.formula, args, fn(*leading, *(getattr(args, name) for name in needed)))
    return 0


def _cmd_analytic(args) -> int:
    return _evaluate(ANALYTIC_FORMULAS, args, build_model(args.n, args.p, args.c, args.alpha))


def _cmd_law(args) -> int:
    return _evaluate(LAW_FORMULAS, args)


def _probe(*paths) -> None:
    """Open each given path for appending, which empties none, so that an
    unwritable one fails before any work is done or any output truncated."""
    for path in paths:
        if path:
            open(path, "a").close()


def _output(path, default, mode="w", newline=None):
    """Context giving `path` opened in `mode` for writing, which truncates
    it, or `default` if no path is given.

    `sample` and `bridge` `_probe` their outputs first and open them only
    once the checks and the law that can fail are behind them, so a rejected
    call leaves an existing file as it was.
    """
    return open(path, mode, newline=newline) if path else contextlib.nullcontext(default)


def _write_bytes(out, blocks) -> None:
    """Write byte blocks to a binary file, or to a text stream: to its byte
    buffer once its text is flushed, or decoded where it has none (as a
    StringIO under contextlib.redirect_stdout)."""
    if isinstance(out, io.TextIOBase):
        if hasattr(out, "buffer"):
            out.flush()
            out = out.buffer
        else:
            blocks = (block.decode() for block in blocks)
    out.writelines(blocks)


def _cmd_sample(args) -> int:
    model = build_model(args.n, args.p, args.c, args.alpha)
    # the engine's own checks, made before any output is touched
    check_experiment_args(model, args.seed, args.condition, args.replicates)
    # both paths are probed before either is truncated: an unwritable one
    # leaves the other as it was
    _probe(args.out, args.summary)
    with (_output(args.out, sys.stdout, "wb") as out,
          _output(args.summary, None, newline="") as summary):
        ens = conditional_experiment(model, args.seed, args.condition,
                                     args.replicates, keep_closed_edges=True)
        _write_bytes(out, experiments.replicate_lines(ens))
        if summary is not None:
            writer = csv.writer(summary)
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
    _probe(args.out)
    # the law is built before the output is truncated: a failed build keeps it
    law = bridge.renewal_approximation(args.resolution)
    with _output(args.out, sys.stdout, newline="") as out:
        rng = np.random.default_rng(args.seed)
        # paths are drawn in chunks so memory stays bounded for any --paths; a row
        # is one template, the bytes csv.writer gives for the same formatted fields
        for start in range(0, args.paths, _BRIDGE_CHUNK):
            count = min(_BRIDGE_CHUNK, args.paths - start)
            paths = bridge.sample_bridge_paths(args.resolution, count, rng, law=law)
            out.writelines(("%.8g," * (pts.size - 1) + "%.8g\r\n") % tuple(pts.tolist())
                           for pts in paths)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = argparse.ArgumentParser(prog="loopsoup",
                                     description="Loop-soup simulation and "
                                                 "verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    # only the parser of the subcommand argv names is built; --help and a bad
    # name see all five
    names = ("analytic", "law", "sample", "bridge", "experiment")
    wanted = argv[:1] if argv[:1] and argv[0] in names else names

    if "analytic" in wanted:
        p_analytic = sub.add_parser("analytic", help="finite-n closed forms")
        p_analytic.add_argument("--formula", choices=sorted(ANALYTIC_FORMULAS), required=True)
        _add_model_args(p_analytic)
        p_analytic.add_argument("--m", type=int, default=None)
        p_analytic.add_argument("--M", type=int, default=None)
        p_analytic.set_defaults(func=_cmd_analytic)

    if "law" in wanted:
        p_law = sub.add_parser("law", help="limit-law formulas")
        p_law.add_argument("--formula", choices=sorted(LAW_FORMULAS), required=True)
        for name in _PARAM_NAMES:
            p_law.add_argument(f"--{name}", type=float, default=None)
        p_law.set_defaults(func=_cmd_law)

    if "sample" in wanted:
        p_sample = sub.add_parser("sample", help="soup replicates")
        _add_model_args(p_sample)
        p_sample.add_argument("--replicates", type=int, default=1000)
        p_sample.add_argument("--condition", choices=CONDITIONS, default="unconditioned")
        p_sample.add_argument("--seed", type=int, default=0)
        p_sample.add_argument("--out", type=str, default=None, help="JSONL path")
        p_sample.add_argument("--summary", type=str, default=None, help="CSV path")
        p_sample.set_defaults(func=_cmd_sample)

    if "bridge" in wanted:
        p_bridge = sub.add_parser("bridge", help="conditioned-path ranges")
        p_bridge.add_argument("--kappa", type=float, required=True)
        p_bridge.add_argument("--alpha", type=float, required=True)
        p_bridge.add_argument("--resolution", type=int, default=10000)
        p_bridge.add_argument("--paths", type=int, default=100)
        p_bridge.add_argument("--seed", type=int, default=0)
        p_bridge.add_argument("--out", type=str, default=None)
        p_bridge.set_defaults(func=_cmd_bridge)

    if "experiment" in wanted:
        p_exp = sub.add_parser("experiment", help="config-driven audits")
        p_exp.add_argument("--config", type=str, required=True)
        p_exp.add_argument("--seed", type=int, default=None)
        p_exp.add_argument("--out", type=str, default=None)
        p_exp.set_defaults(func=_cmd_experiment)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"loopsoup {args.command}: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
