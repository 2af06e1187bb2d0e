import math
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

from loopsoup.circle import (
    CircleModel,
    InvalidLoopError,
    Loop,
    LoopType,
    PointedLoop,
    build_model,
    classify_loop,
    derived_killing,
    equivalent_symmetric_model,
    lift_loop,
    line_loop_mass,
    loop_mass,
    pointed_loop_mass,
    rotation_number,
)

from oracles import enumerate_pointed_loops, pointed_mass


def test_build_model_unkilled_symmetric():
    m = build_model(10, 0.5, 0.0, 1.0)
    assert m.kappa == 0.0 and m.r == 0.0


def test_build_model_small_killing():
    m = build_model(10, 0.5, 0.02, 1.0)
    assert m.kappa == pytest.approx(0.04, rel=1e-12)


def test_build_model_asymmetric():
    # evaluated independently before the build: (1.1 - 2 sqrt(0.24)) / sqrt(0.24)
    m = build_model(5, 0.6, 0.1, 1.0)
    assert m.kappa == pytest.approx(0.24536559755124687, rel=1e-13)
    # 2 cosh r = (1+c)/sqrt(p(1-p)) ties r back to the quadratic roots
    assert 2.0 * math.cosh(m.r) == pytest.approx((1 + m.c) / math.sqrt(m.p * (1 - m.p)),
                                                 rel=1e-13)


def _killing_reference(p: float, c: float) -> tuple[float, float]:
    """kappa = (1 + c - 2s) / s and r = arccosh(1 + kappa/2), the defining
    forms, in 800-digit decimal arithmetic, which outlasts their cancellation."""
    with localcontext(Context(prec=800)):
        p, c = Decimal(p), Decimal(c)
        s = (p * (1 - p)).sqrt()
        kappa = (1 + c - 2 * s) / s
        r = (1 + kappa / 2 + (kappa + kappa * kappa / 4).sqrt()).ln()
        return float(kappa), float(r)


@pytest.mark.parametrize("p", [1e-3, 0.1, 0.3, 0.5, 0.7, 0.999])
def test_derived_killing_keeps_precision_as_c_vanishes(p):
    for c in (5e-324, 1e-300, 1e-20, 5e-15, 1e-12, 1e-6, 1.0, 1e6):
        kappa, r = derived_killing(p, c)
        ref_kappa, ref_r = _killing_reference(p, c)
        assert kappa == pytest.approx(ref_kappa, rel=1e-14, abs=0.0), c
        assert r == pytest.approx(ref_r, rel=1e-14, abs=0.0), c


def test_build_model_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_model(2, 0.5, 0.1, 1.0)
    with pytest.raises(ValueError):
        build_model(5, 0.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        build_model(5, 1.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        build_model(5, 0.5, -0.01, 1.0)


def test_generator_row_structure():
    m = build_model(6, 0.3, 0.2, 1.0)
    L = m.generator()
    Q = m.jump_matrix()
    assert np.allclose(np.diag(L), -(1 + m.c))
    for i in range(6):
        assert 0.0 < Q[i, (i + 1) % 6] == pytest.approx(m.step_cw)
        assert 0.0 < Q[i, (i - 1) % 6] == pytest.approx(m.step_ccw)
        # the surviving step mass per row is 1/(1+c), strictly below 1 for c > 0
        assert Q[i].sum() == pytest.approx(1 / (1 + m.c))
        assert Q[i].sum() < 1.0


def test_model_serialization_roundtrip():
    m = build_model(7, 0.45, 0.3, 0.8)
    assert CircleModel.from_dict(m.to_dict()) == m


def test_pointed_loop_mass_two_cycle():
    m = build_model(5, 0.5, 0.0, 1.0)
    assert pointed_loop_mass(m, (1, 2)) == pytest.approx(1.0 / 8.0)
    # rotations carry equal mass
    assert pointed_loop_mass(m, (1, 2)) == pointed_loop_mass(m, (2, 1))


def test_pointed_loop_mass_full_clockwise():
    n = 6
    m = build_model(n, 0.6, 0.1, 1.0)
    verts = tuple(range(1, n + 1))
    assert pointed_loop_mass(m, verts) == pytest.approx((0.6 / 1.1) ** n / n)


def test_pointed_loop_mass_rejects_non_adjacent():
    m = build_model(6, 0.5, 0.1, 1.0)
    with pytest.raises(InvalidLoopError):
        pointed_loop_mass(m, (1, 3))
    with pytest.raises(InvalidLoopError):
        PointedLoop((1,))


def test_loop_mass_period_weighting():
    m = build_model(5, 0.5, 0.0, 1.0)
    two_cycle = Loop.from_pointed((1, 2), 5)
    assert two_cycle.period == 2
    assert loop_mass(m, two_cycle) == pytest.approx(2.0 / 8.0)

    double = Loop.from_pointed((1, 2, 1, 2), 5)
    assert double.period == 2
    assert loop_mass(m, double) == pytest.approx(2.0 * (0.5 ** 4) / 4.0)


def test_loop_mass_equals_sum_of_pointed_representatives():
    m = build_model(4, 0.55, 0.5, 1.0)
    seen = {}
    for verts in enumerate_pointed_loops(4, 8):
        loop = Loop.from_pointed(verts, 4)
        seen.setdefault(loop.vertices, []).append(verts)
    for canonical, reps in seen.items():
        loop = Loop.from_pointed(canonical, 4)
        total = sum(pointed_mass(m, v) for v in set(reps))
        assert loop_mass(m, loop) == pytest.approx(total, rel=1e-12)


def test_canonical_invariant_under_rotation():
    verts = (3, 4, 5, 4, 3, 2)
    loops = {Loop.from_pointed(verts[i:] + verts[:i], 7).vertices for i in range(len(verts))}
    assert len(loops) == 1


def test_rotation_number_examples():
    assert rotation_number((1, 2), 5) == 0
    assert rotation_number(tuple(range(1, 8)), 7) == 1
    assert rotation_number((1, 7, 6, 5, 4, 3, 2), 7) == -1
    # a double wind
    n = 4
    twice = tuple((i % n) + 1 for i in range(2 * n))
    assert rotation_number(twice, n) == 2


def test_rotation_number_invariant_under_base_rotation():
    verts = (1, 2, 3, 4, 1, 2)  # n = 4: winds once
    for i in range(len(verts)):
        assert rotation_number(verts[i:] + verts[:i], 4) == 1


def test_lift_simple_two_cycle():
    lifted = lift_loop(Loop.from_pointed((1, 2), 5), 5)
    assert lifted is not None
    assert lifted.vertices == (0, 1)


def test_lift_rejects_winding_and_avoiding():
    with pytest.raises(ValueError):
        lift_loop(Loop.from_pointed(tuple(range(1, 6)), 5), 5)
    with pytest.raises(ValueError):
        lift_loop(Loop.from_pointed((2, 3), 5), 5)


def test_lift_inconsistent_full_sweep():
    # 1,2,...,n,1 then back: zero winding but contains a full circuit
    n = 4
    verts = (1, 2, 3, 4, 1, 4, 3, 2)
    loop = Loop.from_pointed(verts, n)
    assert loop.winding == 0
    assert lift_loop(loop, n) is None
    m = build_model(n, 0.5, 0.5, 1.0)
    assert classify_loop(m, loop) is LoopType.NON_LIFTABLE


def test_classification_examples():
    m = build_model(5, 0.5, 0.5, 1.0)
    assert classify_loop(m, Loop.from_pointed((2, 3), 5)) is LoopType.AVOIDING
    assert classify_loop(m, Loop.from_pointed(tuple(range(1, 6)), 5)) is LoopType.WINDING
    assert classify_loop(m, Loop.from_pointed((1, 2), 5)) is LoopType.LIFTABLE


def test_classification_is_a_partition():
    m = build_model(4, 0.5, 0.5, 1.0)
    for verts in enumerate_pointed_loops(4, 9):
        loop = Loop.from_pointed(verts, 4)
        kind = classify_loop(m, loop)
        visits_one = 1 in loop.vertices
        assert (kind is LoopType.AVOIDING) == (not visits_one)
        if kind in (LoopType.WINDING, LoopType.NON_LIFTABLE):
            # these loops sweep every vertex
            assert set(loop.vertices) == {1, 2, 3, 4}


def test_lift_mass_consistency():
    """Mass of each liftable class equals its lift's mass under the symmetric
    line walk with killing kappa (checked exhaustively at n=4, length <= 12)."""
    n = 4
    m = build_model(n, 0.55, 0.5, 1.0)
    seen = set()
    for verts in enumerate_pointed_loops(n, 12):
        loop = Loop.from_pointed(verts, n)
        if loop.vertices in seen:
            continue
        seen.add(loop.vertices)
        if classify_loop(m, loop) is LoopType.LIFTABLE:
            lifted = lift_loop(loop, n)
            assert lifted.period == loop.period
            assert line_loop_mass(m.kappa, lifted) == pytest.approx(
                loop_mass(m, loop), rel=1e-12)


def test_loop_json_roundtrip():
    loop = Loop.from_pointed((2, 3, 4, 3), 6)
    again = Loop.from_json(loop.to_json(), 6)
    assert again == loop


def test_equivalent_symmetric_model_preserves_kappa():
    m = build_model(9, 0.62, 0.15, 1.1)
    sym = equivalent_symmetric_model(m)
    assert sym.p == 0.5
    assert sym.kappa == pytest.approx(m.kappa, rel=1e-12)
    assert sym.r == pytest.approx(m.r, rel=1e-12)
