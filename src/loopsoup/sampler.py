"""Exact Poisson sampling of the loop soup, cluster extraction, and the
vectorized replicate engine used by the Monte Carlo experiments.

Sampling scheme: the soup is decomposed by minimal visited vertex.  For each
base vertex x the sub-soup of loops whose minimal vertex is x is Poisson with
mean alpha * (mass inside {x..n} minus mass inside {x+1..n}); a loop from it
is built from a log-series number of independent excursions of the killed
walk from x back to x inside the allowed arc (the full circle when x = 1),
sampled stepwise with rejection of killed or escaping paths, then
concatenated cyclically.  Exactness follows from the restriction property of
the loop measure and is checked against the closed-form edge probabilities by
the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import solve_banded

from .analytics import mass_inside
from .circle import CircleModel, Loop, LoopType, classify_loop, lift_loop

_MASK64 = (1 << 64) - 1

CONDITIONS = ("unconditioned", "through-1-only", "avoiding-1-only")


def philox_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based splittable generator: distinct streams are independent.

    The seed fills the low 64 bits of the Philox key, so it must lie in
    [0, 2^64); a seed outside that range would alias one inside it.
    """
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed}")
    key = seed | (int(stream) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def replicate_rng(seed: int, replicate: int) -> np.random.Generator:
    """Deterministically derived stream for one replicate."""
    return philox_rng(seed, stream=replicate + 1)


# ---------------------------------------------------------------------------
# per-model tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SoupTables:
    bases: np.ndarray        # 0-based minimal vertices with positive mass
    masses: np.ndarray       # loop mass of each min-vertex sub-soup
    return_prob: np.ndarray  # excursion return probability at each base
    step_cw: float
    move_total: float        # step_cw + step_ccw


def _return_probability(model: CircleModel, base0: int) -> float:
    """P[the killed walk from the base returns to it before leaving the arc].

    base0 = 0 means the full circle (return to vertex 1 with any winding);
    otherwise the walk lives on the arc {base0 .. n-1} (0-based).  Solved as
    a tridiagonal linear system for the hit-the-base-first probabilities.
    """
    n = model.n
    cw, ccw = model.step_cw, model.step_ccw
    if base0 == 0:
        size = n - 1  # unknowns at vertices 1..n-1 (0-based)
        rhs = np.zeros(size)
        rhs[0] = ccw   # from vertex 1, counter-clockwise into vertex 0
        rhs[-1] = cw   # from vertex n-1, clockwise into vertex 0
    else:
        size = n - 1 - base0  # unknowns at base0+1 .. n-1
        if size == 0:
            return 0.0
        rhs = np.zeros(size)
        rhs[0] = ccw
    ab = np.zeros((3, size))
    ab[1, :] = 1.0
    ab[0, 1:] = -cw    # superdiagonal of (I - Q)
    ab[2, :-1] = -ccw  # subdiagonal
    f = solve_banded((1, 1), ab, rhs)
    if base0 == 0:
        return cw * f[0] + ccw * f[-1]
    return cw * f[0]


@lru_cache(maxsize=32)
def _soup_tables(model: CircleModel) -> _SoupTables:
    n = model.n
    bases, masses, rhos = [], [], []
    for base0 in range(n - 1):
        inner = mass_inside(model, range(base0 + 1, n + 1))
        outer = mass_inside(model, range(base0 + 2, n + 1))
        m = inner - outer
        if m <= 0.0:
            continue
        rho = _return_probability(model, base0)
        bases.append(base0)
        masses.append(m)
        rhos.append(rho)
    return _SoupTables(bases=np.asarray(bases, dtype=np.int64),
                       masses=np.asarray(masses),
                       return_prob=np.asarray(rhos),
                       step_cw=model.step_cw,
                       move_total=model.step_cw + model.step_ccw)


def _bases_for_condition(tables: _SoupTables, condition: str) -> np.ndarray:
    """Indices into the base tables kept by the conditioning.

    Conditioning on a Poisson soup restricts to the complementary independent
    sub-soup, so no rejection is involved: "through-1-only" keeps only the
    loops through vertex 1 (conditions away all avoiding loops) and
    "avoiding-1-only" keeps only loops avoiding vertex 1.
    """
    if condition not in CONDITIONS:
        raise ValueError(f"condition must be one of {CONDITIONS}")
    if condition == "unconditioned":
        return np.arange(tables.bases.size)
    if condition == "through-1-only":
        return np.flatnonzero(tables.bases == 0)
    return np.flatnonzero(tables.bases > 0)


# ---------------------------------------------------------------------------
# single-soup sampling (loop objects)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SoupSample:
    """A realized loop soup: multiset of loops plus the seed that produced it."""

    loops: tuple[Loop, ...]
    seed: int | None


class _UniformBuffer:
    """Chunked uniforms off one generator, preserving the draw order."""

    __slots__ = ("rng", "buf", "i")

    def __init__(self, rng):
        self.rng = rng
        self.buf = rng.random(256)
        self.i = 0

    def next(self) -> float:
        if self.i == self.buf.size:
            self.buf = self.rng.random(256)
            self.i = 0
        u = self.buf[self.i]
        self.i += 1
        return u


def _walk_excursion(ubuf: _UniformBuffer, base0: int, n: int,
                    cw: float, total: float):
    """One attempted excursion from the base; None when killed or escaping.

    Returns the visited positions: unwrapped integers from 0 for the circle
    walk (base0 = 0), 0-based arc labels otherwise.
    """
    circle = base0 == 0
    pos = 0 if circle else base0
    path = [pos]
    while True:
        u = ubuf.next()
        if u < cw:
            pos += 1
        elif u < total:
            pos -= 1
        else:
            return None
        path.append(pos)
        if circle:
            if pos % n == 0:
                return path
        else:
            if pos == base0:
                return path
            if pos < base0 or pos >= n:
                return None


def _sample_loop_at(rng, ubuf: _UniformBuffer, model: CircleModel,
                    tables: _SoupTables, idx: int) -> Loop:
    base0 = int(tables.bases[idx])
    rho = tables.return_prob[idx]
    j = int(rng.logseries(rho))
    vertices: list[int] = []
    n = model.n
    offset = 0
    for _ in range(j):
        while True:
            path = _walk_excursion(ubuf, base0, n, tables.step_cw, tables.move_total)
            if path is not None:
                break
        if base0 == 0:
            vertices.extend(((z + offset) % n) + 1 for z in path[:-1])
            offset += path[-1]
        else:
            vertices.extend(v + 1 for v in path[:-1])
    return Loop.from_pointed(vertices, n)


def sample_soup(model: CircleModel, seed) -> SoupSample:
    """Exact draw of the Poisson loop soup; seed is an int or a Generator."""
    if model.c <= 0.0:
        raise ValueError("sampling requires c > 0 (finite total loop mass)")
    if isinstance(seed, np.random.Generator):
        rng, seed_record = seed, None
    else:
        rng, seed_record = philox_rng(seed), int(seed)
    tables = _soup_tables(model)
    ubuf = _UniformBuffer(rng)
    loops: list[Loop] = []
    counts = rng.poisson(model.alpha * tables.masses)
    for idx, count in enumerate(counts):
        for _ in range(count):
            loops.append(_sample_loop_at(rng, ubuf, model, tables, idx))
    return SoupSample(loops=tuple(loops), seed=seed_record)


# ---------------------------------------------------------------------------
# cluster extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterStats:
    """Open-edge set, cluster partition, and the extent statistics.

    Edges are named by their 1-based left endpoint: edge i joins i and
    i+1 (edge n joins n and 1).  Clusters are the arcs cut out by the closed
    edges; a sample with exactly one closed edge counts as split (its single
    arc covers every vertex but the partition is treated as nontrivial).
    Extents are graph distances from vertex 1 to its cluster's ends;
    through-1 extents are populated only when the sample contains no loop
    avoiding vertex 1, lift extents only from consistently liftable loops.
    """

    open_edges: tuple[int, ...]
    partition: tuple[tuple[int, ...], ...]
    cluster_count: int
    closed_left_endpoints: tuple[int, ...]
    origin_left: int | None
    origin_right: int | None
    through_left: int | None
    through_right: int | None
    lift_left: int
    lift_right: int


def _loop_edges(loop: Loop, n: int) -> set[int]:
    """0-based ids of the undirected edges traversed by the loop."""
    edges = set()
    verts = loop.vertices
    k = len(verts)
    for i in range(k):
        u, v = verts[i] - 1, verts[(i + 1) % k] - 1
        edges.add(u if (v - u) % n == 1 else v)
        if len(edges) == n:
            break
    return edges


def extract_clusters(model: CircleModel, sample: SoupSample) -> ClusterStats:
    """Open edges, the cut partition, and all extent statistics of a sample."""
    n = model.n
    open_mask = np.zeros(n, dtype=bool)
    kinds = []
    for loop in sample.loops:
        kinds.append(classify_loop(model, loop))
        for e in _loop_edges(loop, n):
            open_mask[e] = True
    closed = np.flatnonzero(~open_mask)
    k_e = closed.size

    if k_e == 0:
        partition = (tuple(range(1, n + 1)),)
    else:
        partition = []
        for i in range(k_e):
            start = (closed[i] + 1) % n
            stop = closed[(i + 1) % k_e]
            size = (stop - start) % n + 1
            partition.append(tuple((start + j) % n + 1 for j in range(size)))
        partition = tuple(partition)

    origin_left = origin_right = None
    if k_e:
        origin_right = int(closed[0])
        origin_left = int(n - 1 - closed[-1])

    has_avoiding = any(k is LoopType.AVOIDING for k in kinds)
    through_left = through_right = None
    if not has_avoiding and k_e:
        through_left, through_right = origin_left, origin_right

    lift_left = lift_right = 0
    for loop, kind in zip(sample.loops, kinds):
        if kind is LoopType.LIFTABLE:
            lifted = lift_loop(loop, n)
            lift_left = max(lift_left, -min(lifted.vertices))
            lift_right = max(lift_right, max(lifted.vertices))

    return ClusterStats(
        open_edges=tuple(int(e) + 1 for e in np.flatnonzero(open_mask)),
        partition=partition,
        cluster_count=int(k_e) if k_e else 1,
        closed_left_endpoints=tuple(int(e) + 1 for e in closed),
        origin_left=origin_left, origin_right=origin_right,
        through_left=through_left, through_right=through_right,
        lift_left=int(lift_left), lift_right=int(lift_right),
    )


# ---------------------------------------------------------------------------
# vectorized replicate engine
# ---------------------------------------------------------------------------

@dataclass
class SoupEnsemble:
    """Per-replicate summary statistics of many independent soup draws."""

    model: dict
    condition: str
    replicates: int
    seed: int
    loop_count: np.ndarray
    avoiding_count: np.ndarray
    winding_or_cover_count: np.ndarray
    closed_edge_count: np.ndarray
    cluster_count: np.ndarray
    origin_left: np.ndarray    # -1 when no closed edge exists
    origin_right: np.ndarray
    lift_left: np.ndarray
    lift_right: np.ndarray
    closed_edge_totals: np.ndarray  # per-edge count of replicates with it closed
    closed_edges: list | None  # per-replicate 0-based closed edge ids

    @property
    def split_fraction(self) -> float:
        """Fraction of replicates whose partition is nontrivial."""
        return float(np.mean(self.closed_edge_count >= 1))


def _run_cohort(gen, pos, lo, is_circle, n: int, cw: float, total: float):
    """Advance excursion walkers to completion.

    pos: current positions (unwrapped for circle walkers); lo: arc base
    (ignored for circle walkers).  Returns (success, zmin, zmax, final_pos)
    for every walker; zmin/zmax cover the visited prefix up to completion.
    """
    W = pos.size
    ids = np.arange(W)
    zmin = pos.copy()
    zmax = pos.copy()
    success = np.zeros(W, dtype=bool)
    out_min, out_max, out_pos = pos.copy(), pos.copy(), pos.copy()
    window = 256

    while ids.size:
        if ids.size >= 2048:
            u = gen.random(ids.size)
            dead = u >= total
            pos += np.where(u < cw, 1, -1)
            np.minimum(zmin, pos, out=zmin)
            np.maximum(zmax, pos, out=zmax)
            succ = np.where(is_circle, pos % n == 0, pos == lo)
            escape = ~is_circle & ((pos < lo) | (pos >= n))
            done = dead | succ | escape
            ok = succ & ~dead
            if np.any(done):
                success[ids[done]] = ok[done]
                sel = done & ok
                out_min[ids[sel]] = zmin[sel]
                out_max[ids[sel]] = zmax[sel]
                out_pos[ids[sel]] = pos[sel]
                keep = ~done
                ids, pos, lo, is_circle = ids[keep], pos[keep], lo[keep], is_circle[keep]
                zmin, zmax = zmin[keep], zmax[keep]
        else:
            # straggler phase: advance a whole window of steps per call
            W2 = ids.size
            u = gen.random((W2, window))
            dead = u >= total
            moves = np.where(u < cw, 1, -1)
            cum = pos[:, None] + np.cumsum(moves, axis=1)
            succ_m = np.where(is_circle[:, None], cum % n == 0, cum == lo[:, None])
            esc_m = ~is_circle[:, None] & ((cum < lo[:, None]) | (cum >= n))
            stop_m = succ_m | esc_m
            first_dead = np.where(dead.any(axis=1), dead.argmax(axis=1), window)
            first_stop = np.where(stop_m.any(axis=1), stop_m.argmax(axis=1), window)
            run_min = np.minimum.accumulate(cum, axis=1)
            run_max = np.maximum.accumulate(cum, axis=1)
            rows = np.arange(W2)

            # a stop (success or escape) strictly before death commits there;
            # walkers with neither event in the window keep going
            stopped = first_stop < first_dead
            e = np.minimum(first_stop, window - 1)
            ok = stopped & succ_m[rows, e]
            died = (first_dead <= first_stop) & (first_dead < window)
            done = stopped | died
            if np.any(ok):
                success[ids[ok]] = True
                out_min[ids[ok]] = np.minimum(zmin[ok], run_min[rows[ok], e[ok]])
                out_max[ids[ok]] = np.maximum(zmax[ok], run_max[rows[ok], e[ok]])
                out_pos[ids[ok]] = cum[rows[ok], e[ok]]
            keep = ~done
            pos = cum[:, -1][keep]
            zmin = np.minimum(zmin, run_min[:, -1])[keep]
            zmax = np.maximum(zmax, run_max[:, -1])[keep]
            ids, lo, is_circle = ids[keep], lo[keep], is_circle[keep]

    return success, out_min, out_max, out_pos


def _run_block(model: CircleModel, tables: _SoupTables, base_sel: np.ndarray,
               seed: int, block_index: int, block_reps: int,
               keep_closed: bool):
    """Simulate one block of replicates; returns per-replicate stat arrays."""
    n = model.n
    gen = philox_rng(seed, stream=block_index + 1)
    bases = tables.bases[base_sel]
    lam = model.alpha * tables.masses[base_sel]
    rho = tables.return_prob[base_sel]
    B = block_reps

    counts = gen.poisson(lam, size=(B, bases.size)) if bases.size else np.zeros((B, 0), np.int64)
    flat = counts.ravel()
    cells = np.repeat(np.arange(flat.size), flat)
    loop_rep = cells // max(bases.size, 1)
    loop_base_idx = cells % max(bases.size, 1)
    n_loops = cells.size

    loop_base = bases[loop_base_idx] if n_loops else np.zeros(0, np.int64)
    demand = gen.logseries(rho[loop_base_idx]).astype(np.int64) if n_loops else np.zeros(0, np.int64)

    is_circle_loop = loop_base == 0
    start = np.where(is_circle_loop, 0, loop_base)
    loop_zmin = start.copy()
    loop_zmax = start.copy()
    loop_wind = np.zeros(n_loops, dtype=bool)

    pending = demand.copy()
    while pending.sum():
        owner = np.repeat(np.arange(n_loops), pending)
        pos0 = np.where(is_circle_loop[owner], 0, loop_base[owner]).astype(np.int64)
        succ, zmin, zmax, fpos = _run_cohort(
            gen, pos0, loop_base[owner].astype(np.int64),
            is_circle_loop[owner], n, tables.step_cw, tables.move_total)
        got = owner[succ]
        np.minimum.at(loop_zmin, got, zmin[succ])
        np.maximum.at(loop_zmax, got, zmax[succ])
        # only circle excursions can wind: they return at a multiple of n
        wound = (fpos[succ] != 0) & is_circle_loop[got]
        np.logical_or.at(loop_wind, got, wound)
        pending -= np.bincount(got, minlength=n_loops)

    # windings make the lift span at least n, so they always cover everything
    covers_all = loop_wind | (loop_zmax - loop_zmin >= n)

    open_mask = np.zeros((B, n), dtype=bool)
    for i in range(n_loops):
        rep = loop_rep[i]
        if covers_all[i]:
            open_mask[rep, :] = True
        else:
            a, b = int(loop_zmin[i]), int(loop_zmax[i])
            if a >= 0:
                open_mask[rep, a:b] = True
            else:
                open_mask[rep, a % n:] = True
                open_mask[rep, :b] = True

    loop_count = np.bincount(loop_rep, minlength=B)
    avoiding = np.bincount(loop_rep[loop_base > 0], minlength=B)
    windcover = np.bincount(loop_rep[loop_wind], minlength=B)

    closed_totals = (~open_mask).sum(axis=0).astype(np.int64)
    closed_edge_count = np.zeros(B, dtype=np.int64)
    origin_left = np.full(B, -1, dtype=np.int64)
    origin_right = np.full(B, -1, dtype=np.int64)
    closed_lists = [] if keep_closed else None
    for rep in range(B):
        closed = np.flatnonzero(~open_mask[rep])
        closed_edge_count[rep] = closed.size
        if closed.size:
            origin_right[rep] = closed[0]
            origin_left[rep] = n - 1 - closed[-1]
        if keep_closed:
            closed_lists.append(closed)

    lift_left = np.zeros(B, dtype=np.int64)
    lift_right = np.zeros(B, dtype=np.int64)
    liftable = is_circle_loop & ~loop_wind
    for i in np.flatnonzero(liftable):
        rep = loop_rep[i]
        lift_left[rep] = max(lift_left[rep], -int(loop_zmin[i]))
        lift_right[rep] = max(lift_right[rep], int(loop_zmax[i]))

    return (loop_count, avoiding, windcover, closed_edge_count,
            origin_left, origin_right, lift_left, lift_right, closed_lists,
            closed_totals)


def conditional_experiment(model: CircleModel, seed: int, condition: str,
                           replicates: int, *, keep_closed_edges: bool = False,
                           block_size: int = 1024, workers: int = 1) -> SoupEnsemble:
    """Summary statistics of many independent (possibly conditioned) soups.

    Replicates are processed in fixed blocks; block b draws from the Philox
    stream keyed (seed, b+1), so results are reproducible for a given seed
    and independent of the worker count.
    """
    if model.c <= 0.0:
        raise ValueError("sampling requires c > 0")
    tables = _soup_tables(model)
    base_sel = _bases_for_condition(tables, condition)

    blocks = [(b, min(block_size, replicates - b * block_size))
              for b in range((replicates + block_size - 1) // block_size)]
    args = [(model, tables, base_sel, seed, b, size, keep_closed_edges)
            for b, size in blocks]

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_block_star, args))
    else:
        results = [_run_block(*a) for a in args]

    def cat(pos):
        return np.concatenate([r[pos] for r in results]) if results else np.zeros(0, np.int64)

    closed_lists = None
    if keep_closed_edges:
        closed_lists = [arr for r in results for arr in r[8]]

    cc = cat(3)
    return SoupEnsemble(
        model=model.to_dict(), condition=condition, replicates=replicates,
        seed=int(seed),
        loop_count=cat(0), avoiding_count=cat(1), winding_or_cover_count=cat(2),
        closed_edge_count=cc, cluster_count=np.maximum(cc, 1),
        origin_left=cat(4), origin_right=cat(5),
        lift_left=cat(6), lift_right=cat(7),
        closed_edge_totals=np.sum([r[9] for r in results], axis=0),
        closed_edges=closed_lists,
    )


def _run_block_star(args):
    return _run_block(*args)
