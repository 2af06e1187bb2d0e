"""Exact Poisson sampling of the loop soup, cluster extraction, and the
closed-form replicate engine used by the Monte Carlo experiments.

The soup is decomposed by minimal visited vertex.  By the restriction
property of the loop measure, the loops whose minimal vertex is x form an
independent Poisson sub-soup with mean alpha * (mass inside {x..n} minus
mass inside {x+1..n}).

`sample_soup` builds every loop as an object: a log-series number of
independent excursions of the killed walk from x back to x inside the
allowed arc (the full circle when x = 1), sampled stepwise with rejection of
killed or escaping paths, then concatenated cyclically.  It is the
independent oracle of the replicate engine.

`conditional_experiment` builds no loop.  The cluster statistics depend on a
loop only through its range and whether it winds, and the restriction
property gives the law of each in closed form:

* a loop with minimal vertex x >= 2 stays within x..x+k with probability
  D(k) / D(n-x), where D(k) = -log(1 - g(k)) is the mass of the loops based
  at the left end of a (k+1)-vertex arc and g(k) the excursion return
  probability there; the farthest reach of j such loops has cdf
  (D(k) / D(n-x))^j;
* the loops through vertex 1 are a Poisson number of winding or
  circuit-sweeping loops, each of which opens every edge, and an independent
  Poisson number of liftable loops; the mass of those whose lift through 0
  stays inside [-a, b] and reaches b is D(a+b) - D(b-1) (D(-1) = 0), so each
  lift's right end is drawn from the partial sums of that mass at a = n-1,
  then its left end from D itself.

Exactness is checked against the closed-form edge probabilities and against
`sample_soup` by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytics import mass_inside, mass_liftable_inside
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


def check_experiment_args(model: CircleModel, seed: int, condition: str,
                          replicates: int) -> None:
    """The argument checks of `conditional_experiment`, which callers can
    make before any other work."""
    if model.c <= 0.0:
        raise ValueError("sampling requires c > 0")
    if condition not in CONDITIONS:
        raise ValueError(f"condition must be one of {CONDITIONS}")
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    philox_rng(seed)  # raises on a seed outside [0, 2^64)


# ---------------------------------------------------------------------------
# per-model tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SoupTables:
    masses: np.ndarray       # loop mass of the sub-soup at each 0-based minimal vertex 0..n-2
    return_prob: np.ndarray  # excursion return probability at each base
    reach_mass: np.ndarray   # D(0..2n-2), see the module docstring
    lift_right_mass: np.ndarray  # W(b): liftable loops whose lift ends at or below b
    winding_mass: float      # loops through vertex 1 that wind or sweep a circuit
    liftable_mass: float


@lru_cache(maxsize=32)
def _soup_tables(model: CircleModel) -> _SoupTables:
    n, r = model.n, model.r
    # D(k) = log(2 cosh r sinh((k+1)r) / sinh((k+2)r)) rises by
    # -log(1 - sinh(r)^2 / sinh((k+1)r)^2) > 0 at each k, so the cumulative
    # sum is nondecreasing in floating point too, as searchsorted needs
    k = np.arange(1, 2 * n - 1)
    ratio = np.exp(-r * k) * math.expm1(-2.0 * r) / np.expm1(-2.0 * r * (k + 1))
    reach_mass = np.concatenate(([0.0], np.cumsum(-np.log1p(-ratio * ratio))))
    # W(b) = sum over b' <= b of D(n-1+b') - D(b'-1), with D(-1) = 0;
    # liftable_mass keeps the closed-form total, free of the cumsum's drift
    reaching = reach_mass[n - 1:] - np.concatenate(([0.0], reach_mass[:n - 1]))
    through = mass_inside(model, range(1, n + 1)) - mass_inside(model, range(2, n + 1))
    liftable = float(mass_liftable_inside(model, n - 1, n - 1))
    masses = np.concatenate(([through], reach_mass[n - 2:0:-1]))
    return _SoupTables(masses=masses,
                       return_prob=-np.expm1(-masses),
                       reach_mass=reach_mass,
                       lift_right_mass=np.cumsum(reaching),
                       winding_mass=max(through - liftable, 0.0),
                       liftable_mass=liftable)


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
                    tables: _SoupTables, base0: int) -> Loop:
    rho = tables.return_prob[base0]
    j = int(rng.logseries(rho))
    vertices: list[int] = []
    n, cw = model.n, model.step_cw
    total = cw + model.step_ccw
    offset = 0
    for _ in range(j):
        while True:
            path = _walk_excursion(ubuf, base0, n, cw, total)
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
    for base0, count in enumerate(counts):
        for _ in range(count):
            loops.append(_sample_loop_at(rng, ubuf, model, tables, base0))
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
    """Per-replicate summary statistics of many independent soup draws, as columns.

    `closed_edges` (None unless drawn with keep_closed_edges) is one flat int
    column of 0-based closed-edge ids, replicate by replicate, ascending within
    each: replicate i's edges are the slice ending at cumsum(closed_edge_count)[i].
    """

    model: dict
    condition: str
    replicates: int
    seed: int
    loop_count: np.ndarray
    avoiding_count: np.ndarray
    winding_or_cover_count: np.ndarray
    closed_edge_count: np.ndarray  # the cluster count is max(closed_edge_count, 1)
    origin_left: np.ndarray    # -1 when no closed edge exists
    origin_right: np.ndarray
    lift_left: np.ndarray
    lift_right: np.ndarray
    closed_edge_totals: np.ndarray  # per-edge count of replicates with it closed
    closed_edges: np.ndarray | None = None

    @property
    def split_fraction(self) -> float:
        """Fraction of replicates whose partition is nontrivial."""
        return float(np.mean(self.closed_edge_count >= 1))


def _run_block(model: CircleModel, tables: _SoupTables, condition: str,
               seed: int, block_index: int, block_reps: int,
               keep_closed: bool):
    """Simulate one block of replicates: its columns by `SoupEnsemble` field
    name, and the per-edge closed totals.

    Draw order on the block's stream: avoiding counts, avoiding reaches,
    winding counts, liftable counts, one right-end uniform per liftable loop,
    one left-end uniform per liftable loop.  "through-1-only" skips the first
    two and "avoiding-1-only" the last four.
    """
    n, B = model.n, block_reps
    gen = philox_rng(seed, stream=block_index + 1)
    edges = np.arange(n)
    open_mask = np.zeros((B, n), dtype=bool)
    zeros = np.zeros(B, dtype=np.int64)
    avoiding = winding = liftable = lift_left = lift_right = zeros

    if condition != "through-1-only":
        # loops with minimal vertex x = 1..n-2 reach x + K with K <= n-1-x;
        # edge e is open iff some base x <= e reaches beyond e
        x, mass = np.arange(1, n - 1), tables.masses[1:]  # mass = D(n-1-x)
        counts = gen.poisson(model.alpha * mass, size=(B, x.size))
        rep, col = np.nonzero(counts)
        u = 1.0 - gen.random(col.size)
        reach = np.broadcast_to(edges, (B, n)).copy()
        reach[rep, x[col]] += np.searchsorted(tables.reach_mass,
                                              mass[col] * u ** (1.0 / counts[rep, col]))
        open_mask |= np.maximum.accumulate(reach, axis=1, out=reach) > edges
        avoiding = counts.sum(axis=1)

    if condition != "avoiding-1-only":
        winding = gen.poisson(model.alpha * tables.winding_mass, B)
        liftable = gen.poisson(model.alpha * tables.liftable_mass, B)
        # each lift's right end b is the smallest with W(b) >= u W(n-1), its
        # left end a the smallest with D(a+b) >= D(b-1) + v (D(n-1+b) - D(b-1))
        # (D(-1) = D(0) = 0), clipped to 0..n-1 where roundoff or a saturated D
        # puts the target at an end; a row's extents are its lifts' maxima
        D, W = tables.reach_mass, tables.lift_right_mass
        u, v = 1.0 - gen.random((2, liftable.sum()))
        right = np.searchsorted(W, u * W[-1])
        lo, hi = D[np.maximum(right - 1, 0)], D[right + n - 1]
        left = np.clip(np.searchsorted(D, lo + v * (hi - lo)) - right, 0, n - 1)
        owner = np.repeat(np.arange(B), liftable)
        lift_left, lift_right = zeros.copy(), zeros.copy()
        np.maximum.at(lift_left, owner, left)
        np.maximum.at(lift_right, owner, right)
        open_mask |= (edges < lift_right[:, None]) | (edges >= n - lift_left[:, None])
        open_mask[winding > 0] = True

    closed = ~open_mask
    closed_edge_count = closed.sum(axis=1)
    some = closed_edge_count > 0
    columns = dict(loop_count=avoiding + winding + liftable, avoiding_count=avoiding,
                   winding_or_cover_count=winding, closed_edge_count=closed_edge_count,
                   origin_left=np.where(some, closed[:, ::-1].argmax(axis=1), -1),
                   origin_right=np.where(some, closed.argmax(axis=1), -1),
                   lift_left=lift_left, lift_right=lift_right)
    if keep_closed:
        columns["closed_edges"] = np.nonzero(closed)[1]
    return columns, closed.sum(axis=0)


def conditional_experiment(model: CircleModel, seed: int, condition: str,
                           replicates: int, *, keep_closed_edges: bool = False) -> SoupEnsemble:
    """Summary statistics of many independent (possibly conditioned) soups.

    Conditioning keeps only the loops through vertex 1 ("through-1-only") or
    only the loops avoiding it ("avoiding-1-only"): on a Poisson soup that is
    the complementary independent sub-soup, so no rejection is involved.
    Replicates are processed in fixed blocks; block b draws from the Philox
    stream keyed (seed, b+1), so results are reproducible for a given seed.
    Blocks return columns by `SoupEnsemble` field name, concatenated here; the
    closed edges are one flat column, held only with keep_closed_edges.
    """
    check_experiment_args(model, seed, condition, replicates)
    tables = _soup_tables(model)
    # a block holds several B x n arrays, so B * n is capped at 2^22 cells
    B = min(1024, max(1, 2 ** 22 // model.n))
    blocks = [_run_block(model, tables, condition, seed, b,
                         min(B, replicates - b * B), keep_closed_edges)
              for b in range((replicates + B - 1) // B)]
    columns = {name: np.concatenate([cols[name] for cols, _ in blocks])
               for name in blocks[0][0]}
    return SoupEnsemble(
        model=model.to_dict(), condition=condition, replicates=replicates,
        seed=int(seed), closed_edge_totals=np.sum([totals for _, totals in blocks], axis=0),
        **columns)
