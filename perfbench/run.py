#!/usr/bin/env python3
"""loopsoup benchmark: seeded workloads through the public CLI, called in-process.

    python3 perfbench/run.py --workload edge-audit --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `edge-audit` and `cluster-scaling` run
`loopsoup experiment` on a generated config, `bridge` runs `loopsoup bridge`.
A run repeats the CLI call on fresh seeded inputs until --seconds is used up,
then checks every call's outputs against closed forms, outside the timed part.

--trace 0 reports the end-to-end metrics: setup_s (median of three child
processes that import the package and write the first input), wall_s (median
time of one CLI call), items_per_s (soup replicates, or bridge paths, per
second of wall_s) and peak_rss_mb.  --trace 1 alternates untraced and traced
calls on the same inputs and reports per-layer metrics from spans recorded
around the package's public names (tracing.py); the spans are written to
.bench_work/traces/.  --tiny shrinks every workload so a run takes seconds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Check failures and raised errors both count
as failed; failed / attempted is the run's failed_frac.
"""

import os

# One BLAS thread, set before numpy loads: OpenBLAS threads spinning on small
# dot products slow renewal inversion by 20x or more next to another process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("edge-audit", "cluster-scaling", "bridge")
SETUP_PROBES = 3
MAX_REPS = 200


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the harness test")
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import loopsoup from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import loopsoup
    from loopsoup import cli

    if Path(loopsoup.__file__).resolve().parent != SRC / "loopsoup":
        raise ImportError(f"loopsoup imported from {loopsoup.__file__}, not {SRC}")
    return cli


def sub_seeds(seed: int):
    """Input seed of each repetition, all derived from the run's --seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2 ** 32)


def set_up(args):
    """Everything before the first workload call: imports and the first input."""
    cli = import_package()
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.tiny)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    seeds = sub_seeds(args.seed)
    first_argv = workload.make_input(workdir, 0, next(seeds))
    return cli, tracing, workload, workdir, seeds, first_argv


def probe_setup_s(args) -> list[float]:
    """Set-up time of fresh processes: from spawn to the end of set_up()."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe", repr(t0)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def clear_caches(package_modules):
    """Empty the package's memo caches, so every call pays what a fresh CLI process pays."""
    for module in package_modules:
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def call_cli(cli, argv, tracer=None, targets=None, run=0):
    """One timed `loopsoup` call; returns (wall seconds, exit code or exception, stdout)."""
    clear_caches([m for name, m in sys.modules.items() if name.startswith("loopsoup")])
    out = io.StringIO()
    main = cli.main
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                rc = main(argv)
            else:
                with tracer.installed(targets, run):
                    rc = tracer.wrap("cli.main", main)(argv)
    except (Exception, SystemExit) as exc:  # counted as a failed operation
        rc = exc
    wall = time.perf_counter() - t0
    if isinstance(rc, BaseException):
        traceback.print_exception(rc, file=sys.stderr)
    return wall, rc, out.getvalue()


def provenance(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "loopsoup").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": args.seed,
        "argv": sys.argv,
    }


def layer_metrics(by_name, by_layer, traced_walls, walls, spans):
    """Per-layer metrics, per traced call, from the span summary.

    Shares divide by the mean traced wall time, as the span totals are means
    over the traced calls; the tracing overhead is the median over input pairs.
    """
    runs = len(traced_walls)
    wall_traced = sum(traced_walls) / runs

    def per_call(name, key):
        return by_name.get(name, {}).get(key, 0) / runs

    m = {}
    ce = "sampler.conditional_experiment"
    for key, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s")):
        m[f"{ce}.{key}"] = (per_call(ce, key), unit)
    m["sampler.loops"] = (per_call(ce, "count"), "count")
    busy = per_call(ce, "busy_s")
    m["sampler.loops_per_s"] = (m["sampler.loops"][0] / busy if busy else 0.0, "1/s")
    m["analytics.mass_inside.calls"] = (per_call("analytics.mass_inside", "calls"), "count")
    for name in ("analytics.mass_inside", "analytics.mass_avoiding_edges",
                 "analytics.through1_extent_cdf_limit"):
        m[f"{name}.busy_s"] = (per_call(name, "busy_s"), "s")
    inv, path = "scaling.invert_renewal", "scaling.sample_conditioned_renewal"
    m[f"{inv}.calls"] = (per_call(inv, "calls"), "count")
    m[f"{inv}.busy_s"] = (per_call(inv, "busy_s"), "s")
    m[f"{inv}.terms"] = (per_call(inv, "count"), "count")
    m[f"{path}.calls"] = (per_call(path, "calls"), "count")
    m[f"{path}.busy_s"] = (per_call(path, "busy_s"), "s")
    m["scaling.jumps"] = (per_call(path, "count"), "count")
    busy = per_call(path, "busy_s")
    m["scaling.jumps_per_s"] = (m["scaling.jumps"][0] / busy if busy else 0.0, "1/s")
    for name in ("numerics.hausdorff", "numerics.ks_distance_two_sample",
                 "experiments.ensemble_records"):
        m[f"{name}.busy_s"] = (per_call(name, "busy_s"), "s")
    m["experiments.self_s"] = (by_layer["experiments"]["self_s"] / runs, "s")
    m["cli.main.self_s"] = (per_call("cli.main", "self_s"), "s")
    m["sampler.self_share"] = (by_layer["sampler"]["self_s"] / runs / wall_traced, "fraction")
    m[f"{inv}.share"] = (m[f"{inv}.busy_s"][0] / wall_traced, "fraction")
    m[f"{path}.share"] = (m[f"{path}.busy_s"][0] / wall_traced, "fraction")
    self_total = sum(row["self_s"] for row in by_layer.values()) / runs
    m["trace.attributed_share"] = (self_total / wall_traced, "fraction")
    m["trace.wall_s"] = (statistics.median(traced_walls), "s")
    m["trace.overhead_s"] = (statistics.median(t - u for t, u in zip(traced_walls, walls)), "s")
    m["trace.spans"] = (len(spans) / runs, "count")
    return m


def print_layer_table(by_name, by_layer, traced_walls):
    runs = len(traced_walls)
    wall = sum(traced_walls) / runs
    print(f"per traced call ({runs} calls, mean traced wall {wall:.4f} s):")
    print(f"  {'span or layer':44s} {'calls':>10s} {'busy_s':>10s} {'self_s':>10s} {'self%':>6s}")
    for name in sorted(by_name):
        row = by_name[name]
        print(f"  {name:44s} {row['calls'] / runs:10.1f} {row['busy_s'] / runs:10.4f} "
              f"{row['self_s'] / runs:10.4f} {100 * row['self_s'] / runs / wall:6.1f}")
    for layer, row in by_layer.items():
        print(f"  {'[' + layer + ']':44s} {row['calls'] / runs:10.1f} "
              f"{row['busy_s'] / runs:10.4f} {row['self_s'] / runs:10.4f} "
              f"{100 * row['self_s'] / runs / wall:6.1f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loopsoup" / "cli.py").is_file():
        print(f"error: no loopsoup sources under {SRC}", file=sys.stderr)
        return 2

    cli, tracing, workload, workdir, seeds, argv0 = set_up(args)
    if args.setup_probe is not None:
        print(time.monotonic() - args.setup_probe)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0
    try:
        return measure(args, cli, tracing, workload, workdir, seeds, argv0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, cli, tracing, workload, workdir, seeds, argv0) -> int:
    prov = provenance(args)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    setup_times = [] if args.trace else probe_setup_s(args)

    tracer = tracing.Tracer() if args.trace else None
    targets = tracing.loopsoup_targets() if args.trace else None
    walls, traced_walls, outcomes, rep_times = [], [], [], []
    deadline = time.monotonic() + args.seconds
    rep = 0
    while rep < MAX_REPS and (rep == 0 or time.monotonic()
                              + statistics.median(rep_times) <= deadline):
        t_rep = time.monotonic()
        argv = argv0 if rep == 0 else workload.make_input(workdir, rep, next(seeds))
        # with tracing, the same input runs untraced and traced, in alternating order
        order = ((False, True) if rep % 2 == 0 else (True, False)) if args.trace else (False,)
        for traced in order:
            if traced:
                wall_t, rc_t, _ = call_cli(cli, argv, tracer, targets, rep)
            else:
                wall, rc, stdout = call_cli(cli, argv)
        walls.append(wall)
        if args.trace:
            traced_walls.append(wall_t)
            rc = rc if isinstance(rc, BaseException) else rc_t
        outcomes.append(rc)
        if rep == 0:
            out_dir = Path(workdir) / "out-0"
            cli_bytes = len(stdout.encode()) + sum(
                Path(a).stat().st_size for a in argv if a.endswith(".csv"))
            experiments_bytes = dir_bytes(out_dir) if out_dir.is_dir() else 0
        rep_times.append(time.monotonic() - t_rep)
        traced_note = f" traced {wall_t:.4f}" if args.trace else ""
        print(f"rep {rep}: wall_s {wall:.4f}{traced_note} rc {rc!r}", flush=True)
        rep += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = failed = 0
    for i, rc in enumerate(outcomes):
        if isinstance(rc, BaseException):
            attempted, failed = attempted + 1, failed + 1
            continue
        try:
            checks = workload.check(workdir, i, rc)
            notes = workload.notes(workdir, i)
        except Exception:  # an unreadable output is a failed check
            traceback.print_exc()
            attempted, failed = attempted + 1, failed + 1
            continue
        bad = [label for label, ok in checks if not ok]
        attempted += len(checks)
        failed += len(bad)
        if bad or notes:
            print(f"rep {i} checks: {len(checks) - len(bad)}/{len(checks)} passed"
                  + (f", failed: {bad}" if bad else "")
                  + (f", recorded gates: {json.dumps(notes, sort_keys=True)}" if notes else ""))
    attempted = max(attempted, 1)

    wall_s = statistics.median(walls)
    print(f"{workload.name}: {len(walls)} calls, wall_s median {wall_s:.4f} "
          f"min {min(walls):.4f} max {max(walls):.4f}; {workload.items} "
          f"{'paths' if workload.name == 'bridge' else 'soup replicates'} per call; "
          f"checks {attempted - failed}/{attempted} passed, failed_frac {failed / attempted:.4g}")
    if args.trace:
        by_name, by_layer = tracing.summarize(tracer.spans)
        print_layer_table(by_name, by_layer, traced_walls)
        metrics = layer_metrics(by_name, by_layer, traced_walls, walls, tracer.spans)
        metrics["experiments.output_bytes"] = (experiments_bytes, "B")
        metrics["cli.output_bytes"] = (cli_bytes, "B")
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{workload.name}-seed{args.seed}.jsonl"
        tracer.write(trace_file, {"provenance": prov, "workload": workload.name,
                                  "untraced_wall_s": walls, "traced_wall_s": traced_walls})
        print(f"spans written to {trace_file}")
    else:
        setup_s = statistics.median(setup_times)
        print(f"setup_s probes: {', '.join(f'{t:.4f}' for t in setup_times)}")
        rate_name = "paths_per_s" if workload.name == "bridge" else "replicates_per_s"
        print(f"{rate_name} {workload.items / wall_s:.6g} 1/s")
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "items_per_s": (workload.items / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
