"""Discrete renewal law of the closed edges, its conditioning to hit a level,
the limiting subordinator, and the h-transform bridge conditioned to
terminate at 1.

The renewal hitting probabilities are
    C(m) = ((1 - e^{-2r}) / (1 - e^{-2(m+1)r}))^alpha,    C(0) = 1,
with the r = 0 limit C(m) = (m+1)^{-alpha}.  The jump pmf w solves the
renewal equation C(m) = sum_j w(j) C(m-j) and may be defective (mass
escaping to infinity); conditioning on hitting a level renormalizes it.

`invert_renewal` recovers w as W = 1 - 1/C, the power-series reciprocal
taken by Newton iteration with FFTs in O(N log N).  Conditioned paths are
drawn in batches: `sample_conditioned_renewals` advances all paths in
lockstep to their own levels and is the only path sampler;
`sample_conditioned_renewal` is its one-path call.  A run of unit jumps is
drawn in closed form, by one `searchsorted`, and a longer jump by rejection
from a dyadic envelope of O(log n) classes, one try per live path per round:
rejection tries are i.i.d. whenever they are drawn, so a path costs rounds in
proportion to its tries at jumps longer than 1, whatever its level.  The
envelope is built each round as one class-major table with a column per live
path: a class is picked by a count down each column and its bounds are read
by flat gathers, so a round costs a fixed number of numpy calls however many
paths are live.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    exp_or_inf, log_gamma, log_gap, polylog, require_alpha, require_finite, riemann_zeta,
)


def _hitting_coefficient(alpha: float, r: float, m, out=None):
    """C(m) for m >= 0, a float for scalar m and elementwise over an array;
    `out` may be m itself, so a table of N+1 values is one array."""
    require_alpha(alpha)
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"r must be finite and nonnegative, got {r}")
    # an array even for scalar m: numpy's scalar math rounds some powers differently
    C = np.add(m, 1.0, out=np.empty(np.shape(m)) if out is None else out)
    if r > 0.0:
        C *= -2.0 * r
        np.divide(np.expm1(-2.0 * r), np.expm1(C, out=C), out=C)
    C **= alpha if r > 0.0 else -alpha
    return C if C.ndim else float(C)


def hitting_coefficients(alpha: float, r: float, N: int) -> np.ndarray:
    """C(0..N): probability that the renewal set contains m, given it contains 0."""
    if N < 1:
        raise ValueError("N must be at least 1")
    m = np.arange(N + 1.0)
    return _hitting_coefficient(alpha, r, m, out=m)


def point_count_moments(alpha: float, r: float, N: int) -> tuple[float, float]:
    """Mean and variance of the number of renewal points in 0..N, both ends
    included, for the renewal set conditioned to hit N.

    Points j <= k are both in the set with probability
    C(j) C(k-j) C(N-k) / C(N), so the mean is sum_k C(k) C(N-k) / C(N) and the
    second moment is 2 (C*C*C)(N) / C(N) - mean, the diagonal j = k counted
    once.  The triple convolution at N is one real FFT of length > 2N, past
    which its wrapped terms cannot reach N.  The variance cancels terms of
    order mean^2, so it is floored at their roundoff, eps mean^2.
    """
    C = hitting_coefficients(alpha, r, N)
    size = _next_fast_len(2 * N + 1)
    triple = np.fft.irfft(np.fft.rfft(C, size) ** 3, size)[N]
    mean = float(C @ C[::-1]) / C[N]
    return mean, max(2.0 * triple / C[N] - mean - mean * mean, np.finfo(float).eps * mean * mean)


def _fast_lengths(limit: int) -> list[int]:
    """Every 2^a 3^b 5^c <= limit, sorted: the lengths numpy's real FFTs
    take fastest."""
    out, p5 = [], 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            out += (p35 << a for a in range((limit // p35).bit_length()))
            p35 *= 3
        p5 *= 5
    return sorted(out)


_FAST_LENGTHS = _fast_lengths(2 ** 40)  # far past any array that fits in memory


def _next_fast_len(n: int) -> int:
    """Least 5-smooth length >= n, as scipy.fft.next_fast_len(n, real=True)."""
    return _FAST_LENGTHS[bisect_left(_FAST_LENGTHS, n)]


def invert_renewal(C: np.ndarray) -> np.ndarray:
    """Jump pmf w(1..N) from hitting probabilities: W = 1 - 1/C as power series.

    The reciprocal g = 1/C mod z^(N+1) comes from Newton doubling
    g <- g (2 - C g) with real FFTs, O(N log N) in all (Brent & Kung 1978).
    w[0] is 0 by convention.  Raises if any w(m) < -1e-12, which signals an
    inconsistent C sequence.
    """
    C = np.asarray(C, dtype=float)
    if abs(C[0] - 1.0) > 1e-12:
        raise ValueError("C(0) must equal 1")
    if C[0] != 1.0:
        C = C.copy()
        C[0] = 1.0
    precisions = [C.size]
    while precisions[-1] > 1:
        precisions.append((precisions[-1] + 1) // 2)
    g = np.ones(C.size)  # g[:h] holds 1/C mod z^h
    # transforms reuse three buffers sized for the last step, but numpy's FFTs
    # still allocate scratch and cache a plan per length despite out=: at
    # N = 1e6 the high-water rises by about six arrays of N floats beyond C
    top = _next_fast_len(C.size)
    buf = np.empty(top)
    g_spec, spec = np.empty((2, top // 2 + 1), dtype=complex)
    for k, h in zip(reversed(precisions[:-1]), reversed(precisions[1:])):
        # a cyclic length of k or more suffices: C[:k] g[:h] has degree
        # < k + h - 1, so the wrapped terms land below h, where C g is 1
        size = _next_fast_len(k)
        x, gs, s = buf[:size], g_spec[:size // 2 + 1], spec[:size // 2 + 1]
        x[:h], x[h:] = g[:h], 0.0
        np.fft.rfft(x, out=gs)
        x[:k], x[k:] = C[:k], 0.0
        np.fft.rfft(x, out=s)
        s *= gs
        np.fft.irfft(s, size, out=x)
        # C g = 1 + z^h err (mod z^k); g (2 - C g) appends the terms -g err
        x[:k - h], x[k - h:] = x[h:k], 0.0
        np.fft.rfft(x, out=s)
        s *= gs
        np.fft.irfft(s, size, out=x)
        np.negative(x[:k - h], out=g[h:k])
    w = np.negative(g, out=g)
    w[0] = 0.0
    if w.min() < -1e-12:
        raise ValueError(f"negative jump mass {w.min():.3e}: inconsistent C")
    np.clip(w, 0.0, None, out=w)
    return w


@dataclass(frozen=True)
class RenewalLaw:
    """Renewal jump law with precomputed hitting probabilities up to a horizon."""

    alpha: float
    r: float
    horizon: int
    C: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)

    @staticmethod
    def build(alpha: float, r: float, horizon: int) -> "RenewalLaw":
        C = hitting_coefficients(alpha, r, horizon)
        w = invert_renewal(C)
        return RenewalLaw(alpha=alpha, r=r, horizon=horizon, C=C, w=w)

    def conditioned_jump_pmf(self, state: int, n: int) -> np.ndarray:
        """pmf over jumps 1..n-state for the process conditioned to hit n."""
        gap = n - state
        probs = self.w[1:gap + 1] * self.C[gap - 1::-1]
        return probs / self.C[gap]


def sample_conditioned_renewals(law: RenewalLaw, n, n_paths: int, rng) -> list[np.ndarray]:
    """`n_paths` independent increasing renewal paths 0 = s_0 < ... < s_k = n
    conditioned to hit n, one level for all or an int array of one per path.

    From a remaining gap G the next jump is j with probability
    w(j) C(G-j) / C(G).  All paths advance in lockstep, each alternating a
    run of unit jumps and one longer jump:

    * the run length L has P(L >= l) = w(1)^l C(G-l) / C(G), a product of
      per-step chances w(1) C(g-1) / C(g) <= 1, so one uniform and one
      `searchsorted` on their cumulative logs give where it stops;
    * the jump j >= 2 from the gap g where the run stopped, if g > 0, is
      drawn by rejection from a dyadic envelope (Devroye 1986, ch. II): the
      remaining gap m = g - j falls in a class {0} or [2^k, 2^(k+1)), C is
      nonincreasing, so C(lower end) times the class's w-mass bounds the
      class; a class is picked by these bounds, j within it in proportion to
      w, and j is kept with probability C(m) / C(lower end), at least
      2^-alpha.

    The first runs are drawn before the rounds; a round gives every live
    path one try, a rejected path keeps its gap for the next round, and an
    accepted jump is followed at once by its run.  The points are kept as
    (owner, lowest gap, count) records of runs of consecutive gaps and
    turned into positions level - gap at the end.
    """
    if n_paths < 0:
        raise ValueError("n_paths must be nonnegative")
    levels = np.asarray(n, dtype=np.int64)
    if levels.ndim and levels.shape != (n_paths,):
        raise ValueError(f"levels must have shape ({n_paths},), got {levels.shape}")
    if np.any((levels < 0) | (levels > law.horizon)):
        raise ValueError("levels must lie in 0..horizon")
    top = int(levels.max(initial=0))
    if np.min(law.C[:top + 1]) <= 0.0:
        raise ValueError("C must be positive up to the highest level")
    if n_paths == 0:
        return []
    rng = np.random.default_rng(rng)
    levels = np.broadcast_to(levels, (n_paths,))
    C, w = law.C[:top + 1], law.w[:top + 1]
    # run[g] = -log P(g unit jumps from gap g); each step is clipped at 0 and
    # the step from gap 1 is exactly 0 (that jump is forced), so the cumulative
    # sum is nondecreasing in floating point too, as searchsorted needs
    run = np.zeros(top + 1)
    steps = np.multiply(law.w[1], C[1:-1], out=run[2:])
    np.log(np.divide(C[2:], steps, out=steps), out=steps)
    np.cumsum(np.maximum(run, 0.0, out=run), out=run)
    # down[j] = -sum_{i >= j} w(i), j = 0..top+1, rises by w(j) at each j:
    # tail sums keep the small masses of long jumps, which a cumulative sum
    # near 1 would round away
    down = np.zeros(top + 2)
    np.negative(np.cumsum(w[::-1], out=down[top::-1]), out=down[top::-1])
    # envelope class c holds the remaining gaps [edges[c], edges[c+1]), under
    # C(edges[c])
    edges = np.concatenate(([0], 2 ** np.arange(max(top - 2, 0).bit_length() + 1)))
    height = C[edges[:-1]]
    lift, weight, above = (1 - edges)[:, None], height[:, None], down[1:]
    paths = np.arange(n_paths)
    # the run goes on while the uniform stays below its chance, so from gap G
    # it stops at the lowest gap g with run[g] >= run[G] + log(uniform); a
    # record holds the gaps from a landing down to where the run after it stops
    stop = run.searchsorted(run[levels] + np.log(rng.random(n_paths)))
    owners, lows, counts = [paths], [stop], [levels - stop + 1]
    live = stop > 0
    active, gap = paths[live], stop[live]
    while active.size:
        # one envelope per round for the live paths' jumps j >= 2, class-major:
        # in column i, class c spans the jumps b[c+1, i] .. b[c, i]-1, none
        # where they meet; cum is nondecreasing down each column, so the class
        # is how many entries above the last are <= u cum[-1], at most the last
        cols = gap.size
        b = np.maximum(gap + lift, 2)
        tail = down[b]
        width = tail[:-1] - tail[1:]
        cum = (width * weight).cumsum(axis=0)
        u = rng.random((4, cols))
        c = (cum[:-1] <= u[0] * cum[-1]).sum(axis=0)
        at = c * cols + paths[:cols]
        # tail >= down[0], so the count of down[1:] at or below the point is j
        j = above.searchsorted(tail.ravel()[at + cols] + u[1] * width.ravel()[at], side="right")
        # a jump outside its class comes only from rounding, and is rejected;
        # a rejected path keeps its gap and tries again in the next round
        rest = gap - j
        hit = (j < b.ravel()[at]) & (u[2] * height[c] < C.take(rest, mode="clip"))
        rest = rest[hit]
        gap[hit] = stop = run.searchsorted(run[rest] + np.log(u[3, hit]))
        owners.append(active[hit])
        lows.append(stop)
        counts.append(rest - stop + 1)
        live = gap > 0
        active, gap = active[live], gap[live]
    # each list is dropped once merged, to keep the peak memory low; one
    # in-place sort of owner * (top + 1) + position orders the points by path
    count = np.concatenate(counts)
    del counts
    key = np.repeat(np.concatenate(owners), count)
    del owners
    bounds = np.cumsum(np.bincount(key, minlength=n_paths))[:-1]
    # the record of lowest gap b and count k holds the gaps b, b+1, ..., b+k-1
    points = levels[key]
    points -= np.repeat(np.concatenate(lows) - np.cumsum(count) + count, count)
    del lows
    points -= np.arange(points.size)
    key *= top + 1
    key += points
    del points
    key.sort()
    return np.split(np.remainder(key, top + 1, out=key), bounds)


def sample_conditioned_renewal(law: RenewalLaw, n: int, rng) -> np.ndarray:
    """One increasing renewal path 0 = s_0 < ... < s_k = n conditioned to hit n."""
    return sample_conditioned_renewals(law, n, 1, rng)[0]


# ---------------------------------------------------------------------------
# limiting subordinator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubordinatorLaw:
    """Increasing pure-jump process with potential density
    u(x) = (2 sqrt(k) / (1 - e^{-2 sqrt(k) x}))^alpha (x^{-alpha} at k = 0).
    Each density is one `exp_or_inf` of log terms in `log_gap`, from kappa = 0 up."""

    kappa: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and nonnegative, got {self.kappa}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")

    @property
    def _s(self) -> float:
        return math.sqrt(self.kappa)

    def potential_density(self, x: float) -> float:
        """u(x) for x > 0; diverges like x^{-alpha} at 0 (zero drift)."""
        require_finite(x=x)
        if not x > 0.0:
            raise ValueError("x must be positive")
        return exp_or_inf(-self.alpha * log_gap(self._s, x))

    def levy_density(self, t: float) -> float:
        """Density of the jump intensity measure at t > 0."""
        require_finite(t=t)
        if not t > 0.0:
            raise ValueError("t must be positive")
        a, s = self.alpha, self._s
        # (1 - a) (sin(a pi) / pi) e^{2s(a-1)t} (2s / (1 - e^{-2st}))^{2-a}
        return exp_or_inf(math.log((1.0 - a) * math.sin(a * math.pi) / math.pi),
                          2.0 * s * (a - 1.0) * t, -(2.0 - a) * log_gap(s, t))

    def levy_tail(self, t: float) -> float:
        """Mass of jumps exceeding t > 0."""
        require_finite(t=t)
        if not t > 0.0:
            raise ValueError("t must be positive")
        a, s = self.alpha, self._s
        # (sin(a pi) / pi) (expm1(2st) / (2s))^{a-1}
        return exp_or_inf(math.log(math.sin(a * math.pi) / math.pi),
                          (a - 1.0) * 2.0 * s * t, (a - 1.0) * log_gap(s, t))

    def laplace_exponent(self, lam: float) -> float:
        """Phi(lambda) = (2 sqrt(k))^{1-alpha} / Beta(lambda/(2 sqrt(k)), 1-alpha).

        The kappa -> 0 regime uses the asymptotic Beta expansion, giving the
        stable limit lambda^{1-alpha} / Gamma(1-alpha).
        """
        require_finite(lam=lam)
        if not lam > 0.0:
            raise ValueError("lambda must be positive")
        a, s = self.alpha, self._s
        b = 1.0 - a
        if s == 0.0 or lam / (2.0 * s) > 1e6:
            # Gamma(x+b)/Gamma(x) = x^b (1 + b(b-1)/(2x) + b(b-1)(b-2)(3b-1)/(24x^2) + ...)
            # avoids the cancellation of two huge log-gammas; error O(x^-3)
            corr = 1.0
            if s > 0.0:
                x = lam / (2.0 * s)
                corr += (b * (b - 1.0) / (2.0 * x)
                         + b * (b - 1.0) * (b - 2.0) * (3.0 * b - 1.0) / (24.0 * x * x))
            return lam ** b * corr * math.exp(-log_gamma(b))
        x = lam / (2.0 * s)
        log_beta_val = log_gamma(x) + log_gamma(b) - log_gamma(x + b)
        return (2.0 * s) ** b * math.exp(-log_beta_val)

    def hitting_density(self, a: float, x: float) -> float:
        """Density at x of the position when first exceeding level a (0 < a < x).

        No atom sits at a itself; the closed form is
        (sqrt(k)/pi) sin(alpha pi) e^{alpha sqrt(k) x} sinh(sqrt(k) a)^{1-alpha}
          / (sinh(sqrt(k) x) sinh(sqrt(k)(x-a))^{1-alpha}).
        """
        require_finite(a=a, x=x)
        if not a > 0.0:
            raise ValueError("level must be positive")
        if x <= a:
            return 0.0
        al, s = self.alpha, self._s
        return exp_or_inf(math.log(math.sin(al * math.pi) / math.pi),
                          -2.0 * (1.0 - al) * s * (x - a), -log_gap(s, x),
                          (1.0 - al) * log_gap(s, a), -(1.0 - al) * log_gap(s, x - a))

    def hitting_cdf_grid(self, a: float, xs: np.ndarray) -> np.ndarray:
        """Cumulative hitting law P[position when first exceeding a <= x], 0 at x <= a.

        u = e^{sa} sinh(s(x-a)) / sinh(sx), s = sqrt(kappa), rising from 0 at
        x = a to 1, takes the hitting density to the Beta(alpha, 1-alpha)
        density, so the law is I_u(alpha, 1-alpha), with u = (x-a)/x at
        kappa = 0.  Past u = 1/2 it is 1 - I_v(1-alpha, alpha), where
        v = e^{-s(x-a)} sinh(sa) / sinh(sx) is formed directly, not as 1 - u.
        """
        require_finite(a=a)
        if not a > 0.0:
            raise ValueError("level must be positive")
        from scipy.special import betainc

        al, s = self.alpha, self._s
        # x <= a is taken to x = a, where u = 0 and so the cdf is 0
        xs = np.maximum(xs, a)
        if s == 0.0:
            u, v = (xs - a) / xs, a / xs
        else:
            den = np.expm1(-2.0 * s * xs)
            u = np.expm1(-2.0 * s * (xs - a)) / den
            v = np.exp(-2.0 * s * (xs - a)) * math.expm1(-2.0 * s * a) / den
        return np.where(u <= 0.5, betainc(al, 1.0 - al, u), 1.0 - betainc(1.0 - al, al, v))


@dataclass(frozen=True)
class ConditionedBridgeLaw:
    """Subordinator h-transformed to have left limit 1 at its lifetime.

    Semigroup weight u(1-y)/u(1-x); realized for sampling as the discrete
    renewal path conditioned to hit an internal resolution, rescaled to [0, 1].
    The killing per step is sqrt(kappa)/resolution, so the same law conditioned
    to hit level L * resolution is the bridge over an interval of length L.
    """

    base: SubordinatorLaw

    def bridge_weight(self, x: float, y: float) -> float:
        """h-transform weight u(1-y)/u(1-x) for 0 <= x <= y < 1."""
        if not 0.0 <= x <= y:
            raise ValueError("need 0 <= x <= y")
        if y >= 1.0:
            raise ValueError("the bridge lives strictly below 1")
        if x == y:
            return 1.0
        return self.base.potential_density(1.0 - y) / self.base.potential_density(1.0 - x)

    def renewal_approximation(self, n_approx: int) -> RenewalLaw:
        """Discrete renewal law at resolution n_approx matching this bridge."""
        r = math.sqrt(self.base.kappa) / n_approx
        return RenewalLaw.build(self.base.alpha, r, n_approx)

    def sample_bridge_paths(self, n_approx: int, n_paths: int, rng,
                            law: RenewalLaw | None = None) -> list[np.ndarray]:
        """`n_paths` path ranges drawn in lockstep from the renewal law at `n_approx`."""
        if law is None:
            law = self.renewal_approximation(n_approx)
        elif law.horizon != n_approx:
            raise ValueError(f"law has horizon {law.horizon}, but n_approx is {n_approx}")
        return [path / float(n_approx)
                for path in sample_conditioned_renewals(law, n_approx, n_paths, rng)]


def bridge_crossing_joint_density(kappa: float, alpha: float, a: float, b: float,
                                  x: float, y: float) -> float:
    """Joint density, under the bridge law, of (position when first exceeding a,
    1 - position just before first exceeding 1-b), at (x, y).

    Supported on the chain 0 < a < x < 1-y < 1-b < 1; zero elsewhere.
    """
    require_finite(kappa=kappa, alpha=alpha, a=a, b=b, x=x, y=y)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not (0.0 < a and 0.0 < b and a + b < 1.0):
        raise ValueError("need a, b > 0 with a + b < 1")
    # the chain a < x < 1 - y < 1 - b, judged on 1 - x - y rounded once: 1 - y
    # and 1 - b both round to 1 for tiny b < y
    rest = math.fsum((1.0, -x, -y))
    if not (a < x and b < y and rest > 0.0):
        return 0.0
    s = math.sqrt(kappa)
    if s == 0.0:
        raise ValueError("requires kappa > 0")
    c = 1.0 - alpha
    return exp_or_inf(2.0 * math.log(math.sin(alpha * math.pi) / math.pi),
                      -2.0 * c * s * (x - a + y - b), alpha * log_gap(s, 1.0),
                      -alpha * log_gap(s, rest), -log_gap(s, x), -log_gap(s, y),
                      c * log_gap(s, a), c * log_gap(s, b), -c * log_gap(s, x - a),
                      -c * log_gap(s, y - b))


# ---------------------------------------------------------------------------
# half-line facts at kappa = 0
# ---------------------------------------------------------------------------

def halfline_gap_pgf(alpha: float, s: float) -> float:
    """Generating function of the first closed-edge gap on the unkilled half-line.

    Equals 1 - s / Li_alpha(s) for 0 < s < 1.
    """
    require_alpha(alpha)
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    return 1.0 - s / polylog(alpha, s)


def escape_probability(alpha: float) -> float:
    """P[the first gap is infinite] = 1 / zeta(alpha), for alpha > 1."""
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"escape requires finite alpha > 1, got {alpha}")
    return 1.0 / riemann_zeta(alpha)
