import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from afel.errors import PreconditionError
from afel.geometry import (
    SupportDiff,
    convex_hull,
    minkowski_sum,
    scale_translate,
    segment,
)
from afel.mixed_volume import (
    mixed_volume,
    mixed_volume_diff,
    mixed_volume_interpolated,
    mixed_volume_via_measure,
    volume,
)

from conftest import random_body

# the package re-exports the function mixed_volume under the module's name
mv_module = sys.modules["afel.mixed_volume"]


def test_volume_examples(unit_cube, tetra):
    assert volume(unit_cube) == 1
    assert volume(tetra) == Fraction(1, 6)


def test_volume_random_tetrahedron_determinant():
    rng = random.Random(42)
    for _ in range(10):
        pts = [tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 3))
                     for _ in range(3)) for _ in range(4)]
        t = convex_hull(pts)
        if t.dim < 3:
            continue
        a, b, c, d = pts
        det = 0
        rows = [tuple(x - y for x, y in zip(p, a)) for p in (b, c, d)]
        det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
               - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
               + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
        assert volume(t) == abs(det) / 6


def test_volume_lower_dimensional_is_zero():
    flat = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert volume(flat) == 0


def test_known_values(unit_cube, axis_segments):
    e1, e2, e3 = axis_segments
    assert mixed_volume([unit_cube] * 3) == 1
    assert mixed_volume([e1, e2, e3]) == Fraction(1, 6)
    assert mixed_volume([unit_cube, unit_cube, e1]) == Fraction(1, 3)


def test_wrong_count_rejected(unit_cube):
    with pytest.raises(PreconditionError):
        mixed_volume([unit_cube, unit_cube])


def test_routes_agree_on_examples(unit_cube, axis_segments):
    e1, e2, e3 = axis_segments
    for tup in ([unit_cube] * 3, [e1, e2, e3], [unit_cube, unit_cube, e1]):
        v = mixed_volume(tup)
        assert mixed_volume_interpolated(tup) == v
        assert mixed_volume_via_measure(tup) == v


def test_cross_route_agreement_random():
    rng = random.Random(2024)
    for n, trials in ((2, 10), (3, 10)):
        for _ in range(trials):
            bodies = [random_body(rng, n) for _ in range(n)]
            v = mixed_volume(bodies)
            assert v >= 0
            assert mixed_volume_interpolated(bodies) == v
            assert mixed_volume_via_measure(bodies) == v


def test_symmetry():
    rng = random.Random(5)
    bodies = [random_body(rng, 3) for _ in range(3)]
    v = mixed_volume(bodies)
    for perm in itertools.permutations(bodies):
        assert mixed_volume(list(perm)) == v


def test_multilinearity():
    rng = random.Random(9)
    k, kp, l, c = (random_body(rng, 3) for _ in range(4))
    a, b = Fraction(2, 3), Fraction(3, 4)
    combo = minkowski_sum(scale_translate(k, a, (0, 0, 0)),
                          scale_translate(kp, b, (0, 0, 0)))
    lhs = mixed_volume([combo, l, c])
    rhs = a * mixed_volume([k, l, c]) + b * mixed_volume([kp, l, c])
    assert lhs == rhs


def test_translation_invariance():
    rng = random.Random(31)
    bodies = [random_body(rng, 3) for _ in range(3)]
    v = mixed_volume(bodies)
    moved = [scale_translate(bodies[0], 1, (3, -2, Fraction(1, 2)))] + bodies[1:]
    assert mixed_volume(moved) == v


def test_diff_examples(unit_cube):
    zero = SupportDiff(unit_cube, unit_cube)
    assert mixed_volume_diff([zero, unit_cube, unit_cube]) == 0
    shift = SupportDiff(scale_translate(unit_cube, 1, (1, 2, 3)), unit_cube)
    assert mixed_volume_diff([shift, unit_cube, unit_cube]) == 0
    big = scale_translate(unit_cube, 2, (0, 0, 0))
    f = SupportDiff(unit_cube, big)
    assert mixed_volume_diff([f, f, unit_cube]) == 1


@pytest.mark.parametrize("n, count", [(2, 3), (3, 8), (4, 20)])
def test_interpolation_plan_extracts_mixed_coefficient(n, count):
    # checked with plain int/Fraction sums: sum_j w_j * prod_i a_ji^alpha_i
    # is 1 for alpha = (1, ..., 1) and 0 for every other degree-n exponent
    plan = mv_module._interpolation_plan(n)
    assert len(plan) == count
    for a, w in plan:
        assert len(a) == n and all(isinstance(x, int) and 1 <= x <= n + 1 for x in a)
        assert isinstance(w, Fraction) and w != 0
    for alpha in itertools.product(range(n + 1), repeat=n):
        if sum(alpha) != n:
            continue
        s = sum(w * math.prod(x ** e for x, e in zip(a, alpha)) for a, w in plan)
        assert s == (1 if alpha == (1,) * n else 0), alpha
