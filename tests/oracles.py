"""Independent brute-force oracles for the loop-measure closed forms.

Masses are recomputed from first principles: explicit enumeration of all
nearest-neighbour pointed loops up to a cutoff length (pure combinatorics,
no determinants), extended beyond the cutoff by trace power series of the
one-step matrix.  The tail beyond the final cutoff K is geometrically bounded
by  size * rho^(K+1) / ((K+1)(1-rho))  with rho = 1/(1+c) an upper bound on
the spectral radius, so K is chosen to push it below 1e-12.

The module also keeps the limit laws and the renewal overshoot sampler that
serve only as references in the tests, and the dense-determinant masses and
nested-quadrature cell table that the closed forms replaced.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
from scipy.linalg import solve_banded

from loopsoup.analytics import cluster_extent_limit_density
from loopsoup.circle import CircleModel, Loop, LoopType, classify_loop
from loopsoup.numerics import QuadratureSpec, integrate, log_cosh, log_sinh
from loopsoup.scaling import RenewalLaw


def enumerate_pointed_loops(n: int, max_len: int, allowed=None):
    """All pointed loops (vertex tuples, 1-based) of length 2..max_len.

    `allowed` restricts the visited vertex set (defaults to everything).
    """
    allowed = set(range(1, n + 1)) if allowed is None else set(allowed)
    for start in sorted(allowed):
        for k in range(2, max_len + 1):
            for steps in product((1, -1), repeat=k - 1):
                verts = [start]
                ok = True
                for s in steps:
                    nxt = (verts[-1] - 1 + s) % n + 1
                    if nxt not in allowed:
                        ok = False
                        break
                    verts.append(nxt)
                if not ok:
                    continue
                d = (verts[0] - verts[-1]) % n
                if d in (1, n - 1):
                    yield tuple(verts)


def pointed_mass(model: CircleModel, verts: tuple[int, ...]) -> float:
    k = len(verts)
    ups = 0
    for i in range(k):
        if (verts[(i + 1) % k] - verts[i]) % model.n == 1:
            ups += 1
    return model.step_cw ** ups * model.step_ccw ** (k - ups) / k


def enum_mass_inside(model: CircleModel, subset, max_len: int) -> float:
    """Sum of pointed masses of loops inside `subset`, lengths <= max_len."""
    return sum(pointed_mass(model, v)
               for v in enumerate_pointed_loops(model.n, max_len, subset))


def enum_mass_avoiding_edges(model: CircleModel, edges, max_len: int) -> float:
    banned = {tuple(e) for e in edges}
    total = 0.0
    for verts in enumerate_pointed_loops(model.n, max_len):
        k = len(verts)
        if any((verts[i], verts[(i + 1) % k]) in banned for i in range(k)):
            continue
        total += pointed_mass(model, verts)
    return total


def enum_mass_by_type(model: CircleModel, max_len: int) -> dict[LoopType, float]:
    """Mass of each loop class category from explicit enumeration.

    Classes are deduplicated via the canonical rotation so each class is
    classified once; its mass is the sum of its pointed representatives.
    """
    class_mass: dict[tuple, float] = {}
    for verts in enumerate_pointed_loops(model.n, max_len):
        loop = Loop.from_pointed(verts, model.n)
        class_mass[loop.vertices] = class_mass.get(loop.vertices, 0.0) + pointed_mass(model, verts)
    out = {t: 0.0 for t in LoopType}
    for canonical, mass in class_mass.items():
        loop = Loop.from_pointed(canonical, model.n)
        out[classify_loop(model, loop)] += mass
    return out


# ---------------------------------------------------------------------------
# trace power series (independent of any determinant identity)
# ---------------------------------------------------------------------------

def trace_series(Q: np.ndarray, k_from: int, k_to: int) -> float:
    """sum_{k=k_from..k_to} Tr(Q^k) / k by repeated multiplication."""
    power = np.linalg.matrix_power(Q, k_from)
    total = np.trace(power) / k_from
    for k in range(k_from + 1, k_to + 1):
        power = power @ Q
        total += np.trace(power) / k
    return float(total)


def geometric_tail_bound(size: int, rho: float, K: int) -> float:
    """Bound on sum_{k>K} Tr(Q^k)/k when the spectral radius is below rho."""
    return size * rho ** (K + 1) / ((K + 1) * (1.0 - rho))


def circle_jump_matrix(model: CircleModel, subset=None) -> np.ndarray:
    Q = model.jump_matrix()
    if subset is None:
        return Q
    idx = np.asarray(sorted(set(subset)), dtype=int) - 1
    return Q[np.ix_(idx, idx)]


def line_segment_matrix(lo: int, hi: int, step_weight: float) -> np.ndarray:
    """Symmetric nearest-neighbour one-step matrix on the integers lo..hi."""
    size = hi - lo + 1
    M = np.zeros((size, size))
    for i in range(size - 1):
        M[i, i + 1] = step_weight
        M[i + 1, i] = step_weight
    return M


def series_mass_inside(model: CircleModel, subset, K: int) -> float:
    """Trace-series mass of loops inside subset, lengths 2..K."""
    Q = circle_jump_matrix(model, subset)
    return trace_series(Q, 2, K)


def dense_mass_inside(model: CircleModel, subset) -> float:
    """Mass of loops inside subset from the dense LU log-determinant of the
    restricted generator; +inf when it is singular."""
    idx = np.asarray(sorted(set(subset)), dtype=int) - 1
    if idx.size <= 1:
        return 0.0
    sign, log_det = np.linalg.slogdet(-model.generator()[np.ix_(idx, idx)])
    if sign <= 0:
        return math.inf
    return idx.size * math.log1p(model.c) - log_det


def series_mass_through_vertex1(model: CircleModel, K: int) -> float:
    full = trace_series(circle_jump_matrix(model), 2, K)
    rest = trace_series(circle_jump_matrix(model, range(2, model.n + 1)), 2, K)
    return full - rest


def series_mass_liftable(model: CircleModel, K: int) -> float:
    """Trace-series mass of the liftable class via its unwrapped line walk.

    A zero-winding loop takes equally many steps each way, so its weight is
    (sqrt(p(1-p))/(1+c))^length, matching the symmetric line walk of the
    unwrapping; liftable mass = (line loops through 0 inside [1-n, n-1]).
    """
    n = model.n
    q = math.sqrt(model.p * (1.0 - model.p)) / (1.0 + model.c)
    full = trace_series(line_segment_matrix(1 - n, n - 1, q), 2, K)
    left = trace_series(line_segment_matrix(1 - n, -1, q), 2, K)
    right = trace_series(line_segment_matrix(1, n - 1, q), 2, K)
    return full - left - right


def series_mass_avoiding_edges(model: CircleModel, edges, K: int) -> float:
    Q = model.jump_matrix()
    for (u, v) in edges:
        Q[u - 1, v - 1] = 0.0
    return trace_series(Q, 2, K)


def return_probability(model: CircleModel, base0: int) -> float:
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


# ---------------------------------------------------------------------------
# closed-edge configuration law by inclusion-exclusion
# ---------------------------------------------------------------------------

def edge_config_probabilities(model: CircleModel, mass_avoiding_fn) -> dict:
    """Exact probability of every closed-edge configuration.

    P[edges of T all closed] = exp(-alpha (total - mass avoiding T)); the
    probability of an exact configuration follows by Moebius inversion over
    supersets.  Edges are named by 1-based left endpoints.
    """
    from itertools import combinations

    n = model.n
    all_edges = list(range(1, n + 1))
    total = mass_avoiding_fn(model, [])
    superset_prob = {}
    for k in range(n + 1):
        for T in combinations(all_edges, k):
            directed = []
            for e in T:
                u, v = e, e % n + 1
                directed += [(u, v), (v, u)]
            superset_prob[frozenset(T)] = math.exp(
                -model.alpha * (total - mass_avoiding_fn(model, directed)))
    exact = {}
    for C in superset_prob:
        rest = [e for e in all_edges if e not in C]
        p = 0.0
        for k in range(len(rest) + 1):
            for extra in combinations(rest, k):
                p += (-1.0) ** k * superset_prob[C | frozenset(extra)]
        exact[C] = p
    return exact


# ---------------------------------------------------------------------------
# renewal jump law by the direct recursion
# ---------------------------------------------------------------------------

def renewal_jumps_by_recursion(C: np.ndarray) -> np.ndarray:
    """w(0..N) from C(0..N) by w(m) = C(m) - sum_{0<j<m} w(j) C(m-j), O(N^2).

    einsum keeps the N dot products off BLAS, whose threads spin on calls
    this small.
    """
    C = np.asarray(C, dtype=float)
    w = np.zeros(C.size)
    for m in range(1, C.size):
        w[m] = C[m] - np.einsum("i,i->", w[1:m], C[m - 1:0:-1])
    return w


# ---------------------------------------------------------------------------
# limit laws and renewal overshoots used only as references in the tests
# ---------------------------------------------------------------------------

def prob_split_given_no_cover_limit(kappa: float, alpha: float) -> float:
    """Limit of P[>= 2 clusters | no winding or circuit-sweeping loop].

    Equals (2 cosh sqrt(k))^alpha sinh(sqrt(k)(1-alpha)) / sinh sqrt(k).
    """
    if kappa <= 0.0:
        raise ValueError("limit formulas require kappa > 0")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    s = math.sqrt(kappa)
    return min(1.0, math.exp(alpha * (math.log(2.0) + log_cosh(s))
                             + log_sinh(s * (1.0 - alpha)) - log_sinh(s)))


def cluster_extent_limit_density_unnormalized(kappa: float, alpha: float,
                                              x: float, y: float) -> float:
    """Unnormalized extent density whose total mass is
    (2 cosh sqrt(k))^alpha sinh(sqrt(k)(1-alpha)) / sinh(sqrt(k))."""
    if x <= 0.0 or y <= 0.0 or x + y >= 1.0:
        return 0.0
    s = math.sqrt(kappa)
    z = x + y
    log_val = (math.log(math.sin(alpha * math.pi) / math.pi)
               + alpha * math.log(2.0) + math.log((1.0 - alpha) * kappa)
               + alpha * log_cosh(s)
               - alpha * log_sinh(s * (1.0 - z))
               - (2.0 - alpha) * log_sinh(s * z))
    return math.exp(log_val)


def simplex_cell_probs_nested(kappa: float, alpha: float, bins: int) -> np.ndarray:
    """The extent limit density integrated over each cell of a bins x bins grid.

    The density is f(x + y), so each cell is a 1-D integral of f(z) times the
    length of the anti-diagonal x + y = z inside the cell, taken cell by cell.
    """
    edges = np.linspace(0.0, 1.0, bins + 1)
    probs = np.zeros((bins, bins))
    for i in range(bins):
        for j in range(bins):
            a1, a2 = edges[i], edges[i + 1]
            b1, b2 = edges[j], edges[j + 1]
            z_lo, z_hi = a1 + b1, min(a2 + b2, 1.0)
            if z_hi <= z_lo:
                continue

            def integrand(z):
                width = min(a2, z - b1) - max(a1, z - b2)
                density = cluster_extent_limit_density(kappa, alpha, z / 2.0, z / 2.0)
                return density * max(width, 0.0)

            breaks = [t for t in (a1 + b2, a2 + b1) if z_lo < t < z_hi]
            probs[i, j], _ = integrate(integrand, z_lo, z_hi,
                                       QuadratureSpec(tol=1e-9, limit=300),
                                       points=breaks or None)
    return probs


def sample_renewal_overshoot(law: RenewalLaw, level: int, n_paths: int, rng) -> np.ndarray:
    """First renewal points strictly above `level` for unconditioned paths.

    Vectorized over paths; jumps are drawn by inverse cdf of w.  Requires a
    non-defective w (r > 0).
    """
    rng = np.random.default_rng(rng)
    cum = np.cumsum(law.w)
    if cum[-1] < 1.0 - 1e-4:
        raise ValueError("defective jump law: overshoot may never happen")
    pos = np.zeros(n_paths, dtype=np.int64)
    active = np.arange(n_paths)
    while active.size:
        jumps = np.searchsorted(cum, rng.random(active.size) * cum[-1], side="left")
        pos[active] += jumps
        active = active[pos[active] <= level]
    return pos
