"""Discrete-circle walk model and its loops.

Vertices are labelled 1..n as on a clock face; vertex 1 plays the role of the
marked base point throughout.  A pointed loop is a cyclic nearest-neighbour
vertex sequence with a distinguished start; a loop is its rotation class.
Loops that visit vertex 1 without net winding can be unwrapped ("lifted") to
loops on the integer line through the covering map z -> (z mod n) + 1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class InvalidLoopError(ValueError):
    """A vertex sequence that is not a nearest-neighbour cycle on the graph."""


class LoopType(Enum):
    """Partition of non-trivial loops relative to vertex 1."""

    AVOIDING = 1      # never visits vertex 1
    WINDING = 2       # visits vertex 1 and has nonzero net winding
    LIFTABLE = 3      # visits vertex 1, zero winding, unwraps consistently
    NON_LIFTABLE = 4  # visits vertex 1, zero winding, sweeps a full circuit


@dataclass(frozen=True)
class CircleModel:
    """Killed nearest-neighbour walk on the n-circle plus soup intensity.

    p is the clockwise step weight, c > 0 the killing surcharge: each step
    goes clockwise with probability p/(1+c), counter-clockwise with
    (1-p)/(1+c), and dies otherwise.  kappa and r are the derived killing
    parameters; r = 0 exactly when kappa = 0 (the unkilled symmetric case,
    accepted for analytics but not for sampling).
    """

    n: int
    p: float
    c: float
    alpha: float
    kappa: float
    r: float

    @property
    def step_cw(self) -> float:
        return self.p / (1.0 + self.c)

    @property
    def step_ccw(self) -> float:
        return (1.0 - self.p) / (1.0 + self.c)

    def generator(self) -> np.ndarray:
        """The n x n generator matrix L (row x: rates out of vertex x)."""
        n = self.n
        L = np.zeros((n, n))
        for i in range(n):
            L[i, i] = -(1.0 + self.c)
            L[i, (i + 1) % n] = self.p
            L[i, (i - 1) % n] = 1.0 - self.p
        return L

    def jump_matrix(self) -> np.ndarray:
        """One-step sub-probability matrix Q with Q[x, x+-1] = step weights."""
        n = self.n
        Q = np.zeros((n, n))
        for i in range(n):
            Q[i, (i + 1) % n] = self.step_cw
            Q[i, (i - 1) % n] = self.step_ccw
        return Q

    def to_dict(self) -> dict:
        return {"n": self.n, "p": self.p, "c": self.c, "alpha": self.alpha,
                "kappa": self.kappa, "r": self.r}

    @staticmethod
    def from_dict(record: dict) -> "CircleModel":
        return build_model(int(record["n"]), float(record["p"]),
                           float(record["c"]), float(record["alpha"]))


def derived_killing(p: float, c: float) -> tuple[float, float]:
    """(kappa, r) for step weight p and killing surcharge c."""
    s = math.sqrt(p * (1.0 - p))
    kappa = (1.0 + c - 2.0 * s) / s
    if kappa <= 0.0:
        kappa = 0.0
        r = 0.0
    else:
        r = math.log(1.0 + kappa / 2.0 + math.sqrt(kappa + kappa * kappa / 4.0))
    return kappa, r


def build_model(n: int, p: float, c: float, alpha: float) -> CircleModel:
    """Validate parameters and construct a CircleModel.

    n >= 3 is required (the circulant determinant identity needs it); c = 0
    is accepted and yields kappa = r = 0, where the total loop mass on the
    circle is infinite and only limit formulas remain meaningful.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0, 1)")
    if not (math.isfinite(c) and c >= 0.0):
        raise ValueError(f"c must be finite and nonnegative, got {c}")
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise ValueError(f"alpha must be finite and nonnegative, got {alpha}")
    kappa, r = derived_killing(p, c)
    return CircleModel(n=n, p=p, c=c, alpha=alpha, kappa=kappa, r=r)


# ---------------------------------------------------------------------------
# pointed loops and loop classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointedLoop:
    """A cyclic vertex sequence with a distinguished starting vertex.

    Circle loops use labels 1..n; line loops (lifts) use arbitrary integers.
    The closing step from the last vertex back to the first is implicit.
    """

    vertices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))
        if len(self.vertices) < 2:
            raise InvalidLoopError("a non-trivial loop needs at least 2 steps")


def _circle_steps(vertices: tuple[int, ...], n: int) -> list[int]:
    """Signed steps (+1 clockwise / -1 counter) including the closing step."""
    k = len(vertices)
    steps = []
    for i in range(k):
        u, v = vertices[i], vertices[(i + 1) % k]
        if not (1 <= u <= n):
            raise InvalidLoopError(f"vertex {u} outside 1..{n}")
        d = (v - u) % n
        if d == 1:
            steps.append(1)
        elif d == n - 1:
            steps.append(-1)
        else:
            raise InvalidLoopError(f"vertices {u},{v} are not adjacent on the {n}-circle")
    return steps


def _line_steps(vertices: tuple[int, ...]) -> list[int]:
    k = len(vertices)
    steps = []
    for i in range(k):
        d = vertices[(i + 1) % k] - vertices[i]
        if d not in (1, -1):
            raise InvalidLoopError(f"vertices {vertices[i]},{vertices[(i + 1) % k]} "
                                   "are not adjacent on the line")
        steps.append(d)
    return steps


def _canonical_rotation(vertices: tuple[int, ...]) -> tuple[int, ...]:
    k = len(vertices)
    return min(tuple(vertices[i:] + vertices[:i]) for i in range(k))


def _rotation_period(vertices: tuple[int, ...]) -> int:
    k = len(vertices)
    for d in range(1, k + 1):
        if k % d == 0 and vertices == vertices[d:] + vertices[:d]:
            return d
    return k


@dataclass(frozen=True)
class Loop:
    """Rotation class of a pointed loop.

    vertices holds the canonical (lexicographically minimal) rotation.
    period is the number of distinct pointed representatives; winding is the
    net number of signed circuits (always 0 for line loops, where n is None).
    """

    vertices: tuple[int, ...]
    period: int
    winding: int
    n: int | None

    @property
    def length(self) -> int:
        return len(self.vertices)

    @staticmethod
    def from_pointed(loop, n: int) -> "Loop":
        vertices = loop.vertices if isinstance(loop, PointedLoop) else tuple(loop)
        pointed = PointedLoop(vertices)
        steps = _circle_steps(pointed.vertices, n)
        canonical = _canonical_rotation(pointed.vertices)
        return Loop(vertices=canonical, period=_rotation_period(canonical),
                    winding=sum(steps) // n, n=n)

    @staticmethod
    def from_line_pointed(loop) -> "Loop":
        vertices = loop.vertices if isinstance(loop, PointedLoop) else tuple(loop)
        pointed = PointedLoop(vertices)
        _line_steps(pointed.vertices)
        canonical = _canonical_rotation(pointed.vertices)
        return Loop(vertices=canonical, period=_rotation_period(canonical),
                    winding=0, n=None)

    def to_json(self) -> str:
        return json.dumps(list(self.vertices))

    @staticmethod
    def from_json(text: str, n: int | None) -> "Loop":
        vertices = json.loads(text)
        if n is None:
            return Loop.from_line_pointed(vertices)
        return Loop.from_pointed(vertices, n)


# ---------------------------------------------------------------------------
# loop measures
# ---------------------------------------------------------------------------

def pointed_loop_mass(model: CircleModel, loop) -> float:
    """Mass (1/k) * product of step weights of one pointed representative."""
    vertices = loop.vertices if isinstance(loop, (PointedLoop, Loop)) else tuple(loop)
    steps = _circle_steps(tuple(vertices), model.n)
    k = len(steps)
    ups = steps.count(1)
    return (model.step_cw ** ups) * (model.step_ccw ** (k - ups)) / k


def loop_mass(model: CircleModel, loop: Loop) -> float:
    """Mass of a loop class: pointed mass times the number of rotations."""
    if not isinstance(loop, Loop):
        loop = Loop.from_pointed(loop, model.n)
    return loop.period * pointed_loop_mass(model, loop)


def line_loop_mass(kappa: float, loop: Loop, *, period: bool = True) -> float:
    """Mass of a loop class on the integer line with killing parameter kappa.

    Every step carries weight 1/(2 + kappa); this is the walk the lifts of
    zero-winding loops through vertex 1 live under.
    """
    vertices = loop.vertices if isinstance(loop, Loop) else tuple(loop)
    steps = _line_steps(tuple(vertices))
    k = len(steps)
    mass = (1.0 / (2.0 + kappa)) ** k / k
    if period:
        per = loop.period if isinstance(loop, Loop) else _rotation_period(tuple(vertices))
        mass *= per
    return mass


def rotation_number(loop, n: int) -> int:
    """Net number of signed circuits of a pointed loop around the n-circle."""
    vertices = loop.vertices if isinstance(loop, (PointedLoop, Loop)) else tuple(loop)
    steps = _circle_steps(tuple(vertices), n)
    total = sum(steps)
    assert total % n == 0
    return total // n


def lift_loop(loop: Loop, n: int) -> Loop | None:
    """Unwrap a zero-winding loop through vertex 1 to a loop on the line.

    Returns None when the unwrapping is inconsistent (the loop contains a
    full circuit 1,2,...,n,1 or its reversal between visits of vertex 1, so
    different starting visits unwrap to different line loops).  Raises on
    loops that avoid vertex 1 or have nonzero winding.
    """
    if not isinstance(loop, Loop):
        loop = Loop.from_pointed(loop, n)
    if 1 not in loop.vertices:
        raise ValueError("lift requires a loop through vertex 1")
    if loop.winding != 0:
        raise ValueError("lift requires zero winding")
    vertices = loop.vertices
    k = len(vertices)
    start = vertices.index(1)
    based = vertices[start:] + vertices[:start]
    steps = _circle_steps(based, n)
    z = 0
    lifted = [0]
    for i in range(k - 1):
        z += steps[i]
        if based[i + 1] == 1 and z != 0:
            return None
        lifted.append(z)
    # closing step returns to 0 because winding is zero
    lifted_loop = Loop.from_line_pointed(lifted)
    assert min(lifted_loop.vertices) >= 1 - n and max(lifted_loop.vertices) <= n - 1
    return lifted_loop


def classify_loop(model: CircleModel, loop: Loop) -> LoopType:
    """Assign the loop to exactly one of the four classes relative to vertex 1."""
    if not isinstance(loop, Loop):
        loop = Loop.from_pointed(loop, model.n)
    if 1 not in loop.vertices:
        return LoopType.AVOIDING
    if loop.winding != 0:
        return LoopType.WINDING
    return LoopType.LIFTABLE if lift_loop(loop, model.n) is not None else LoopType.NON_LIFTABLE


def equivalent_symmetric_model(model: CircleModel) -> CircleModel:
    """The symmetric-parameter model (p=1/2, c=kappa/2) with the same kappa.

    Arc-restricted loop masses agree with the original model's because the
    two generators differ by a harmonic reweighting along any arc.
    """
    return build_model(model.n, 0.5, model.kappa / 2.0, model.alpha)
