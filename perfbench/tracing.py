"""In-memory span tracer that wraps public loopsoup names from outside the package.

A span is recorded around each call of a wrapped name: its name, start, end,
parent span and the id of the benchmark call it belongs to.  The name's first
dotted part is the layer (the loopsoup module that does the work).  Spans stay
in memory until the run ends; nothing in the package is edited.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("cli", "experiments", "sampler", "analytics", "scaling", "numerics")

# span record fields
NAME, START, END, PARENT, RUN, COUNT = range(6)


def _loops(args, ensemble):
    return int(ensemble.loop_count.sum())


def _terms(args, w):
    return len(w) - 1


def _jumps(args, path):
    return len(path) - 1


def loopsoup_targets():
    """(owner, key, span name, counter) for every name the workloads' callers look up.

    A caller that did `from .x import f` looks `f` up in its own module, so the
    wrapper goes there; `experiments.RUNNERS` is read by the CLI at call time.
    """
    from loopsoup import analytics, experiments, sampler, scaling

    targets = [(experiments.RUNNERS, key, f"experiments.{fn.__name__}", None)
               for key, fn in experiments.RUNNERS.items()]
    targets += [
        (experiments, "conditional_experiment", "sampler.conditional_experiment", _loops),
        (experiments, "ensemble_records", "experiments.ensemble_records", None),
        (experiments, "hausdorff", "numerics.hausdorff", None),
        (experiments, "ks_distance_two_sample", "numerics.ks_distance_two_sample", None),
        (sampler, "mass_inside", "analytics.mass_inside", None),
        (analytics, "mass_inside", "analytics.mass_inside", None),
        (analytics, "mass_avoiding_edges", "analytics.mass_avoiding_edges", None),
        (analytics, "through1_extent_cdf_limit", "analytics.through1_extent_cdf_limit", None),
        (scaling, "invert_renewal", "scaling.invert_renewal", _terms),
        (scaling, "sample_conditioned_renewal", "scaling.sample_conditioned_renewal", _jumps),
    ]
    return targets


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Collects spans as lists [name, start, end, parent index, run id, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._run = -1

    def wrap(self, name, fn, count=None):
        """`fn` with a span around each call; `count(args, result)` fills the span's count."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._run, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets, run: int):
        """Swap the wrappers in for one benchmark call, restoring the originals after."""
        saved = []
        try:
            for owner, key, name, count in targets:
                original = _get(owner, key)
                saved.append((owner, key, original))
                _set(owner, key, self.wrap(name, original, count))
            self._run = run
            yield
        finally:
            for owner, key, original in reversed(saved):
                _set(owner, key, original)
            self._run = -1

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": rec[NAME], "start": rec[START],
                                     "end": rec[END], "parent": rec[PARENT],
                                     "run": rec[RUN], "count": rec[COUNT]}) + "\n")


def summarize(spans) -> tuple[dict, dict]:
    """Totals per span name and per layer: calls, busy, self time and counts.

    Busy time counts a span only when no ancestor has the same name (or, for
    layers, the same layer), so nested calls are not counted twice.  Self time
    is a span's duration minus that of its direct children.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    by_name: dict[str, dict] = {}
    by_layer = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for i, rec in enumerate(spans):
        name = rec[NAME]
        layer = name.split(".")[0]
        dur = rec[END] - rec[START]
        outer_name = outer_layer = True
        p = rec[PARENT]
        while p >= 0:
            outer_name &= spans[p][NAME] != name
            outer_layer &= spans[p][NAME].split(".")[0] != layer
            p = spans[p][PARENT]
        row = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0})
        row["calls"] += 1
        row["busy_s"] += dur if outer_name else 0.0
        row["self_s"] += dur - child_time[i]
        row["count"] += rec[COUNT]
        lrow = by_layer[layer]
        lrow["calls"] += 1
        lrow["busy_s"] += dur if outer_layer else 0.0
        lrow["self_s"] += dur - child_time[i]
    return by_name, by_layer
