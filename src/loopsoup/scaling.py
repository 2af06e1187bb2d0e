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
`sample_conditioned_renewal` is its one-path call.  Each round draws a run
of unit jumps in closed form, by one `searchsorted`, and one longer jump by
rejection from a dyadic envelope of O(log n) classes, built once per round
for all live paths, so a path costs rounds in proportion to its jumps longer
than 1, whatever its level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len

from .numerics import (
    QuadratureSpec,
    integrate,
    log_gamma,
    log_sinh,
    polylog,
    require_finite,
    riemann_zeta,
)


def hitting_coefficients(alpha: float, r: float, N: int) -> np.ndarray:
    """C(0..N): probability that the renewal set contains m, given it contains 0."""
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"r must be finite and nonnegative, got {r}")
    if N < 1:
        raise ValueError("N must be at least 1")
    m = np.arange(N + 1, dtype=float)
    if r == 0.0:
        return (m + 1.0) ** (-alpha)
    return (np.expm1(-2.0 * r) / np.expm1(-2.0 * (m + 1.0) * r)) ** alpha


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
    # transforms reuse three buffers sized for the last step, so the peak
    # memory stays near four arrays of N+1 floats
    top = next_fast_len(C.size, real=True)
    buf = np.empty(top)
    g_spec, spec = np.empty((2, top // 2 + 1), dtype=complex)
    for k, h in zip(reversed(precisions[:-1]), reversed(precisions[1:])):
        # a cyclic length of k or more suffices: C[:k] g[:h] has degree
        # < k + h - 1, so the wrapped terms land below h, where C g is 1
        size = next_fast_len(k, real=True)
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
    w(j) C(G-j) / C(G).  All paths advance in lockstep, and each round draws
    for every unfinished path a run of unit jumps and then one longer jump:

    * the run length L has P(L >= l) = w(1)^l C(G-l) / C(G), a product of
      per-step chances w(1) C(g-1) / C(g) <= 1, so one uniform and one
      `searchsorted` on their cumulative logs give where it stops;
    * the jump j >= 2 from the gap g where the run stopped, if g > 0, is
      drawn by rejection from a dyadic envelope (Devroye 1986, ch. II): the
      remaining gap m = g - j falls in a class {0} or [2^k, 2^(k+1)), C is
      nonincreasing, so C(lower end) times the class's w-mass bounds the
      class; a class is picked by these bounds, j within it in proportion to
      w, and j is kept with probability C(m) / C(lower end), at least
      2^-alpha.  The envelope rows of all live paths are built once per
      round; rejected paths draw again against their rows until every path
      has its jump.

    The points are kept as (owner, lowest gap, count) records of runs of
    consecutive gaps and turned into positions level - gap at the end.
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
    steps = np.zeros(top + 1)
    steps[2:] = np.maximum(np.log(C[2:] / (law.w[1] * C[1:-1])), 0.0)
    run = np.cumsum(steps)
    # down[j] = -sum_{i >= j} w(i), j = 0..top+1, rises by w(j) at each j:
    # tail sums keep the small masses of long jumps, which a cumulative sum
    # near 1 would round away
    down = np.append(-np.cumsum(w[::-1])[::-1], 0.0)
    # envelope class c holds the remaining gaps [edges[c], edges[c+1]), under
    # C(edges[c])
    edges = np.concatenate(([0], 2 ** np.arange(max(top - 2, 0).bit_length() + 1)))
    height = C[edges[:-1]]
    active, gap = np.arange(n_paths), levels.copy()
    owners, lows, counts = [active], [gap], [np.ones(n_paths, dtype=np.int64)]
    while active.size:
        # the run goes on while the uniform stays below its chance, so it
        # stops at the lowest gap g with run[g] >= run[G] + log(uniform)
        stop = np.searchsorted(run, run[gap] + np.log(rng.random(gap.size)))
        owners.append(active)
        lows.append(stop)
        counts.append(gap - stop)
        live = stop > 0
        active, gap = active[live], stop[live]
        # one envelope per round: class c spans the jumps b[c+1] .. b[c]-1,
        # none where they meet, and rejected paths redraw against their rows
        b = np.maximum(gap[:, None] + 1 - edges, 2)
        tail = down[b]
        cum = np.cumsum((tail[:, :-1] - tail[:, 1:]) * height, axis=1)
        jump = np.zeros_like(gap)
        todo = np.arange(gap.size)
        while todo.size:
            row = cum[todo]
            u = rng.random((3, todo.size))
            c = np.minimum((row <= (u[0] * row[:, -1])[:, None]).sum(axis=1), height.size - 1)
            low, high = tail[todo, c + 1], tail[todo, c]
            j = np.searchsorted(down, low + u[1] * (high - low), side="right") - 1
            # a jump outside its class comes only from rounding, and is rejected
            keep = (j < b[todo, c]) & (u[2] * height[c] < np.take(C, gap[todo] - j, mode="clip"))
            jump[todo[keep]] = j[keep]
            todo = todo[~keep]
        gap -= jump
        owners.append(active)
        lows.append(gap)
        counts.append(np.ones(gap.size, dtype=np.int64))
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

_SERIES_SWITCH = 1e-6  # use kappa -> 0 expansions when sqrt(kappa)*scale < this


@dataclass(frozen=True)
class SubordinatorLaw:
    """Increasing pure-jump process with potential density
    u(x) = (2 sqrt(k) / (1 - e^{-2 sqrt(k) x}))^alpha (x^{-alpha} at k = 0)."""

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
        s = self._s
        if s * x < _SERIES_SWITCH:
            # (2s/(1-e^{-2sx}))^a = x^{-a} (1 + sx + O((sx)^2))^a
            return x ** -self.alpha * math.exp(self.alpha * s * x)
        return (2.0 * s / -math.expm1(-2.0 * s * x)) ** self.alpha

    def levy_density(self, t: float) -> float:
        """Density of the jump intensity measure at t > 0."""
        require_finite(t=t)
        if not t > 0.0:
            raise ValueError("t must be positive")
        a, s = self.alpha, self._s
        pref = (1.0 - a) * math.sin(a * math.pi) / math.pi
        if s * t < _SERIES_SWITCH:
            # e^{2s(a-1)t} (2s/(1-e^{-2st}))^{2-a} = t^{a-2} e^{a s t} (1 + O((st)^2))
            return pref * t ** (a - 2.0) * math.exp(a * s * t)
        return pref * math.exp(2.0 * s * (a - 1.0) * t) * (2.0 * s / -math.expm1(-2.0 * s * t)) ** (2.0 - a)

    def levy_tail(self, t: float) -> float:
        """Mass of jumps exceeding t > 0."""
        require_finite(t=t)
        if not t > 0.0:
            raise ValueError("t must be positive")
        a, s = self.alpha, self._s
        pref = math.sin(a * math.pi) / math.pi
        if s * t < _SERIES_SWITCH:
            ratio = t * math.exp(s * t)  # expm1(2st)/(2s) to first order
        elif 2.0 * s * t > 700.0:
            return pref * math.exp((a - 1.0) * 2.0 * s * t) * (2.0 * s) ** (1.0 - a)
        else:
            ratio = math.expm1(2.0 * s * t) / (2.0 * s)
        return pref * ratio ** (a - 1.0)

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
        pref = math.sin(al * math.pi) / math.pi
        if s * x < _SERIES_SWITCH:
            return pref * a ** (1.0 - al) / (x * (x - a) ** (1.0 - al))
        log_val = (math.log(s) + al * s * x + (1.0 - al) * log_sinh(s * a)
                   - log_sinh(s * x) - (1.0 - al) * log_sinh(s * (x - a)))
        return pref * math.exp(log_val)

    def hitting_cdf_grid(self, a: float, xs: np.ndarray) -> np.ndarray:
        """Cumulative hitting law on an increasing grid starting at a.

        The density has an (x - a)^(alpha - 1) singularity at the level, so the
        integration runs in the variable t = (x - a)^alpha where the
        transformed integrand is bounded; trapezoid sums are then accurate.
        """
        al = self.alpha
        ts = (xs - a) ** al
        # keep x - a above float resolution of a so the t -> 0 limit evaluates
        t_floor = (1e-12 * max(a, 1.0)) ** al

        def transformed(t):
            # the integrand tends to a positive constant as t -> 0
            t = max(t, t_floor)
            x = a + t ** (1.0 / al)
            return self.hitting_density(a, x) * t ** (1.0 / al - 1.0) / al

        vals = np.array([transformed(t) for t in ts])
        cdf = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2.0 * np.diff(ts))])
        return np.minimum(cdf, 1.0)


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
        """`n_paths` sampled path ranges, drawn in lockstep from one renewal law."""
        if law is None:
            law = self.renewal_approximation(n_approx)
        return [path / float(n_approx)
                for path in sample_conditioned_renewals(law, n_approx, n_paths, rng)]


def bridge_crossing_joint_density(kappa: float, alpha: float, a: float, b: float,
                                  x: float, y: float) -> float:
    """Joint density, under the bridge law, of (position when first exceeding a,
    1 - position just before first exceeding 1-b), at (x, y).

    Supported on the chain 0 < a < x < 1-y < 1-b < 1; zero elsewhere.
    """
    require_finite(kappa=kappa, alpha=alpha, a=a, b=b, x=x, y=y)
    if not (0.0 < a and 0.0 < b and a + b < 1.0):
        raise ValueError("need a, b > 0 with a + b < 1")
    if not (a < x < 1.0 - y < 1.0 - b):
        return 0.0
    s = math.sqrt(kappa)
    if s == 0.0:
        raise ValueError("requires kappa > 0")
    sin_a = math.sin(alpha * math.pi)
    log_val = (math.log(kappa) - 2.0 * math.log(math.pi) + 2.0 * math.log(sin_a)
               + alpha * log_sinh(s)
               - alpha * log_sinh(s * (1.0 - x - y))
               - log_sinh(s * x) - log_sinh(s * y)
               + (1.0 - alpha) * (log_sinh(s * a) + log_sinh(s * b)
                                  - log_sinh(s * (x - a)) - log_sinh(s * (y - b))))
    return math.exp(log_val)


# ---------------------------------------------------------------------------
# half-line facts at kappa = 0
# ---------------------------------------------------------------------------

def halfline_gap_pgf(alpha: float, s: float) -> float:
    """Generating function of the first closed-edge gap on the unkilled half-line.

    Equals 1 - s / Li_alpha(s) for 0 < s < 1.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    return 1.0 - s / polylog(alpha, s)


def escape_probability(alpha: float) -> float:
    """P[the first gap is infinite] = 1 / zeta(alpha), for alpha > 1."""
    if not 1.0 < alpha < math.inf:
        raise ValueError(f"escape requires finite alpha > 1, got {alpha}")
    return 1.0 / riemann_zeta(alpha)
