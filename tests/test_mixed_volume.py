import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from afel.area_measure import mixed_area_measure
from afel.errors import PreconditionError
from afel.generators import gen_quad_tuple_4d, gen_zonotope
from afel.geometry import (
    Direction,
    SupportDiff,
    convex_hull,
    minkowski_sum,
    minkowski_sum_tagged,
    scale_translate,
    segment,
    singleton,
)
from afel.mixed_volume import (
    mixed_volume,
    mixed_volume_diff,
    mixed_volume_interpolated,
    mixed_volume_via_measure,
    volume,
)

from conftest import block_in_afel, leibniz_det, patch_in_afel, random_body

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


def _flat_tuples():
    """Tuples whose sum is flat, and tuples with a point among the bodies."""
    rng = random.Random(77)
    out = [[segment((0, 0), (1, 2)), segment((-1, -2), (2, 4))]]
    for n in (3, 4):
        for _ in range(3):
            out.append([convex_hull([v + (0,) for v in random_body(rng, n - 1).vertices])
                        for _ in range(n)])
    for n in (2, 3, 4):
        for _ in range(2):
            bodies = [random_body(rng, n, full_dim=True) for _ in range(n - 1)]
            bodies.insert(rng.randrange(n), singleton((1,) * n))
            out.append(bodies)
    out.append([segment((0, 0, 0), (1, 2, 3)), segment((1, 1, 1), (3, 5, 7)),
                segment((0, 0, 0), (1, 0, 0))])
    return out


def test_cross_route_agreement_random():
    # random tuples, then flat tuples and tuples with a point, whose mixed
    # volume is 0
    rng = random.Random(2024)
    cases = [([random_body(rng, n) for _ in range(n)], None) for n in (2, 3) for _ in range(10)]
    cases += [(bodies, 0) for bodies in _flat_tuples()]
    for bodies, known in cases:
        v = mixed_volume(bodies)
        assert v >= 0 if known is None else v == known
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


@pytest.mark.parametrize("n, count", [(2, 4), (3, 8), (4, 16)])
def test_difference_nodes_extract_mixed_coefficient(n, count):
    # checked with plain int sums: sum_a sign * prod_i a_i^alpha_i is 1 for
    # alpha = (1, ..., 1) and 0 for every other degree-n exponent
    nodes = mv_module._difference_nodes(n)
    assert len(nodes) == count
    assert len({a for a, _ in nodes}) == count
    for a, sign in nodes:
        assert len(a) == n and all(isinstance(x, int) and x in (1, 2) for x in a)
        assert sign in (1, -1)
    for alpha in itertools.product(range(n + 1), repeat=n):
        if sum(alpha) != n:
            continue
        s = sum(sign * math.prod(x ** e for x, e in zip(a, alpha)) for a, sign in nodes)
        assert s == (1 if alpha == (1,) * n else 0), alpha



def block_volume_routes(monkeypatch):
    """Block inclusion-exclusion, interpolation and `volume` for the measure
    route."""
    block_in_afel(monkeypatch, "the measure route",
                  (mixed_volume, mixed_volume_interpolated, volume))


def test_measure_route_never_calls_the_volume_routes(monkeypatch):
    # the 3D tuples of acceptance criterion 1, and three 4D tuples
    rng = random.Random(101)
    tuples = [[random_body(rng, 3, max_points=5) for _ in range(3)] for _ in range(50)]
    tuples += [gen_quad_tuple_4d(seed) for seed in range(3)]
    values = [mixed_volume(t) for t in tuples]
    block_volume_routes(monkeypatch)
    with pytest.raises(RuntimeError):
        mv_module.mixed_volume(tuples[0])
    for bodies, v in zip(tuples, values):
        assert mixed_volume_via_measure(bodies) == v


def test_flat_4d_measure_is_3d_mixed_volume_at_both_normals(monkeypatch):
    # bodies in x4 = 0: all the area sits at +-e4, with the 3D mixed volume
    # of the bodies with x4 dropped
    rng = random.Random(7)
    lows = [[random_body(rng, 3, full_dim=True) for _ in range(3)] for _ in range(3)]
    values = [mixed_volume(low) for low in lows]
    block_volume_routes(monkeypatch)
    for low, v in zip(lows, values):
        flat = [convex_hull([p + (0,) for p in b.vertices]) for b in low]
        m = mixed_area_measure(flat)
        assert m.atoms == {Direction((0, 0, 0, 1)): v, Direction((0, 0, 0, -1)): v}


def test_interpolation_route_reads_no_other_route(monkeypatch):
    # the 3D tuples of acceptance criterion 1, three 4D tuples and 2D pairs:
    # one tagged hull per tuple, of 1*K_1 + ... + n*K_n, and nothing of
    # inclusion-exclusion, the measure route or `volume`
    rng = random.Random(101)
    tuples = [[random_body(rng, 3, max_points=5) for _ in range(3)] for _ in range(50)]
    tuples += [gen_quad_tuple_4d(seed) for seed in range(3)]
    tuples += [[random_body(rng, 2, max_points=7, span=4) for _ in range(2)]
               for _ in range(10)]
    values = [mixed_volume(t) for t in tuples]
    block_in_afel(monkeypatch, "the interpolation route",
                  (volume, mixed_volume, minkowski_sum, mixed_volume_via_measure,
                   mixed_area_measure))
    with pytest.raises(RuntimeError):
        mv_module.volume(tuples[0][0])
    sums = []

    def spy(bodies):
        sums.append(list(bodies))
        return minkowski_sum_tagged(bodies)

    monkeypatch.setattr(mv_module, "minkowski_sum_tagged", spy)
    for bodies, v in zip(tuples, values):
        sums.clear()
        assert mixed_volume_interpolated(bodies) == v
        assert len(sums) == 1
        (scaled,) = sums
        assert len(scaled) == len(bodies)
        for a, (ab, b) in enumerate(zip(scaled, bodies), start=1):
            assert ab.vertices == tuple(tuple(a * c for c in x) for x in b.vertices)


def _box(sides):
    return convex_hull(list(itertools.product(*((0, s) for s in sides))))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pulling_triangulation_against_volume(n):
    # random hulls, zonotopes and boxes, whose facets hold many coplanar
    # vertices: the simplices fill the body and none is degenerate
    rng = random.Random(1500 + n)
    bodies = [random_body(rng, n, max_points=4 + 2 * n, full_dim=True) for _ in range(6)]
    bodies += [gen_zonotope(n, n + k, seed) for k, seed in ((0, 1), (1, 2), (2, 3))]
    bodies += [_box(range(1, n + 1)), _box((Fraction(1, 2),) + (3,) * (n - 1))]
    for p in bodies:
        simplices = mv_module._pulling_triangulation(p)
        assert all(len(s) == n + 1 and len(set(s)) == n + 1 for s in simplices)
        dets = [leibniz_det([[a - b for a, b in zip(p.vertices[i], p.vertices[s[0]])]
                             for i in s[1:]]) for s in simplices]
        assert all(d != 0 for d in dets)
        assert Fraction(sum(abs(d) for d in dets), math.factorial(n)) == volume(p)


def test_pulling_triangulation_fans_facet_cycles_without_a_hull(monkeypatch):
    # a 3-polytope's facets are fanned over their stored cycles with no
    # hull; an R^4 body hulls each facet that misses vertex 0 once, in R^3
    rng = random.Random(1504)
    solids = [random_body(rng, 3, max_points=10, full_dim=True) for _ in range(6)]
    solids += [gen_zonotope(3, 5, 4), _box((1, 2, 3))]
    tope4 = [random_body(rng, 4, max_points=9, full_dim=True) for _ in range(2)]
    tope4 += [gen_zonotope(4, 5, 5), _box((1, 2, 3, 4))]
    hulls = []

    def spy(points):
        hulls.append(points)
        return convex_hull(points)

    patch_in_afel(monkeypatch, {convex_hull: spy})
    for p in solids:
        assert mv_module._pulling_triangulation(p)
    assert hulls == []
    for p in tope4:
        hulls.clear()
        mv_module._pulling_triangulation(p)
        assert len(hulls) == sum(0 not in f.vertex_ids for f in p.facets)
