import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afel.errors import PreconditionError
from afel.geometry import (
    Direction,
    contains_point,
    convex_hull,
    dist_sq_point,
    diameter_sq,
    dim_pspan,
    hausdorff_distance_sq,
    is_summand,
    minkowski_difference,
    minkowski_sum,
    scale_translate,
    segment,
    singleton,
    support_set,
    support_value,
)

from conftest import random_body


def test_hull_of_own_vertices():
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert len(sq.vertices) == 4 and sq.dim == 2


def test_hull_drops_interior_point():
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    sq2 = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1), (Fraction(1, 2), Fraction(1, 2))])
    assert sq == sq2


def test_hull_collinear():
    seg = convex_hull([(0, 0), (1, 0), (2, 0)])
    assert seg.dim == 1 and seg.vertices == ((0, 0), (2, 0))


def test_hull_dimension_mismatch():
    with pytest.raises(PreconditionError):
        convex_hull([(0, 0), (1, 0, 0)])


def test_support_value_examples(sym_cube, tetra):
    assert support_value(sym_cube, Direction.of((1, 1, 1))) == 3
    assert support_value(segment((0, 0, 0), (1, 0, 0)), Direction.of((-2, 0, 0))) == 0
    tri = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert support_value(tri, Direction.of((1, 2, 0))) == 2


def test_support_set_examples(unit_cube):
    top = support_set(unit_cube, Direction.of((0, 0, 1)))
    assert top.dim == 2 and all(v[2] == 1 for v in top.vertices)
    corner = support_set(unit_cube, Direction.of((1, 1, 1)))
    assert corner.vertices == ((1, 1, 1),)
    seg = segment((0, 0, 0), (0, 0, 1))
    assert support_set(seg, Direction.of((1, 0, 0))) == seg


def test_minkowski_sum_examples():
    sq = minkowski_sum(segment((0, 0), (1, 0)), segment((0, 0), (0, 1)))
    assert sq == convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    tri = convex_hull([(0, 0), (1, 0), (0, 1)])
    neg = convex_hull([(0, 0), (-1, 0), (0, -1)])
    assert len(minkowski_sum(tri, neg).vertices) == 6


def test_scale_translate(unit_cube):
    assert scale_translate(unit_cube, 1, (0, 0, 0)) == unit_cube
    assert scale_translate(unit_cube, 0, (5, 6, 7)) == singleton((5, 6, 7))
    shifted = scale_translate(unit_cube, Fraction(1, 2), (1, 0, 0))
    assert support_value(shifted, Direction.of((1, 0, 0))) == Fraction(3, 2)
    with pytest.raises(PreconditionError):
        scale_translate(unit_cube, -1, (0, 0, 0))


def test_dim_pspan(axis_segments):
    e1, e2, e3 = axis_segments
    assert dim_pspan([e1]) == 1
    assert dim_pspan([e1, e1]) == 1
    assert dim_pspan([e1, e2, e3]) == 3


def test_diameter(unit_cube, tetra):
    assert diameter_sq(singleton((4, 4, 4))) == 0
    assert diameter_sq(unit_cube) == 3
    tri = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    assert diameter_sq(tri) == 2


def test_hausdorff(unit_cube):
    assert hausdorff_distance_sq(unit_cube, unit_cube) == 0
    assert hausdorff_distance_sq(singleton((0, 0)), singleton((1, 0))) == 1
    small = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    big = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    assert hausdorff_distance_sq(small, big) == 2


def test_minkowski_difference_examples(unit_cube, tetra):
    shifted = minkowski_difference(unit_cube, singleton((1, 2, 3)))
    assert shifted == scale_translate(unit_cube, 1, (-1, -2, -3))
    big = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2)])
    small = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    m = minkowski_difference(big, small)
    assert m == small and minkowski_sum(m, small) == big
    assert minkowski_difference(tetra, segment((0, 0, 0), (Fraction(1, 5), 0, 0))) is None


def test_is_summand_examples(unit_cube, tetra):
    assert is_summand(unit_cube, unit_cube)
    sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert is_summand(scale_translate(sq, Fraction(1, 2), (0, 0)), sq)
    rng = random.Random(3)
    for _ in range(5):
        d = tuple(rng.randrange(-2, 3) for _ in range(3))
        if not any(d):
            continue
        assert not is_summand(segment((0, 0, 0), d), tetra)


# ---------------------------------------------------------------- invariants

coord = st.integers(min_value=-4, max_value=4)
point3 = st.tuples(coord, coord, coord)


@given(st.lists(point3, min_size=1, max_size=6), st.lists(point3, min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_support_additivity(ps, qs):
    p = convex_hull(ps)
    q = convex_hull(qs)
    s = minkowski_sum(p, q)
    rng = random.Random(11)
    for _ in range(100):
        z = tuple(rng.randrange(-5, 6) for _ in range(3))
        if not any(z):
            continue
        d = Direction.of(z)
        assert support_value(s, d) == support_value(p, d) + support_value(q, d)


@given(st.lists(point3, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_hull_idempotent(ps):
    p = convex_hull(ps)
    assert convex_hull(p.vertices) == p


def test_dim_pspan_monotone():
    rng = random.Random(7)
    for _ in range(20):
        bodies = [random_body(rng, 3) for _ in range(3)]
        d2 = dim_pspan(bodies[:2])
        d3 = dim_pspan(bodies)
        assert d2 <= d3
        assert dim_pspan([bodies[0]]) == dim_pspan([minkowski_sum(bodies[0], singleton((1, 1, 1)))])


def test_summand_scaling():
    rng = random.Random(13)
    for trial in range(6):
        z = minkowski_sum(segment((0, 0, 0), (1, 0, 0)), segment((0, 0, 0), (0, 1, 1)))
        p = minkowski_sum(z, random_body(rng, 3, max_points=4))
        assert is_summand(z, p)
        for lam in (0, Fraction(1, 3), Fraction(1, 2), 1):
            assert is_summand(scale_translate(z, lam, (0, 0, 0)), p)


def test_independent_segment_summands_combine():
    # two independent segment summands imply their sum is a summand
    rng = random.Random(17)
    for trial in range(8):
        d1 = (1, 0, 0)
        d2 = (0, 1, rng.randrange(0, 3))
        simplex = random_body(rng, 3, max_points=4)
        p = minkowski_sum(minkowski_sum(segment((0, 0, 0), d1), segment((0, 0, 0), d2)), simplex)
        assert is_summand(segment((0, 0, 0), d1), p)
        assert is_summand(segment((0, 0, 0), d2), p)
        both = minkowski_sum(segment((0, 0, 0), d1), segment((0, 0, 0), d2))
        assert is_summand(both, p)


def test_hausdorff_zero_iff_equal():
    rng = random.Random(23)
    for _ in range(10):
        p = random_body(rng, 2, max_points=5)
        q = random_body(rng, 2, max_points=5)
        assert (hausdorff_distance_sq(p, q) == 0) == (p == q)


def _erosion_2d_oracle(p, q):
    # brute-force halfspace-pair vertex enumeration, independent of the
    # candidate-difference implementation
    cons = [(f.normal.z, f.offset - support_value(q, f.normal)) for f in p.facets]
    pts = []
    for (z1, b1), (z2, b2) in itertools.combinations(cons, 2):
        det = z1[0] * z2[1] - z1[1] * z2[0]
        if det == 0:
            continue
        x = Fraction(b1 * z2[1] - b2 * z1[1], det)
        y = Fraction(z1[0] * b2 - z2[0] * b1, det)
        if all(z[0] * x + z[1] * y <= b for z, b in cons):
            pts.append((x, y))
    return convex_hull(pts) if pts else None


def test_minkowski_difference_against_erosion_oracle():
    rng = random.Random(31337)
    checked = 0
    while checked < 60:
        p = convex_hull([tuple(rng.randrange(-4, 5) for _ in range(2))
                         for _ in range(rng.randrange(3, 7))])
        q = convex_hull([tuple(rng.randrange(-2, 3) for _ in range(2))
                         for _ in range(rng.randrange(2, 5))])
        if p.dim < 2:
            continue
        m = minkowski_difference(p, q)
        oracle = _erosion_2d_oracle(p, q)
        oracle_ok = oracle is not None and minkowski_sum(oracle, q) == p
        assert (m is not None) == oracle_ok
        if m is not None:
            assert m == oracle
        checked += 1


def test_summand_of_constructed_sum():
    for seed in range(15):
        rng = random.Random(seed)
        a = convex_hull([tuple(rng.randrange(-2, 3) for _ in range(3)) for _ in range(4)])
        b = convex_hull([tuple(rng.randrange(-2, 3) for _ in range(3)) for _ in range(4)])
        s = minkowski_sum(a, b)
        assert is_summand(a, s) and is_summand(b, s)
        m = minkowski_difference(s, a)
        assert m is not None and minkowski_sum(m, a) == s


def test_hull_ignores_boundary_subdivision_points():
    cube_pts = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    extra = [(1, 0, 0), (0, 1, 0), (2, 2, 1), (1, 2, 2), (0, 0, 1),
             (1, 1, 0), (1, 1, 2), (2, 1, 1)]
    h = convex_hull(cube_pts + extra)
    assert len(h.vertices) == 8 and len(h.facets) == 6 and len(h.edges) == 12


# ------------------------------------------------- brute-force hull oracle
# Independent of the hull code: facets come from every affinely independent
# d-subset whose hyperplane has all points on one side, with the normal from
# integer cofactor determinants written here.


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def _normal(pts):
    """Integer normal of the hyperplane through d points in R^d (zero when
    they are affinely dependent): cofactors of the difference rows."""
    rows = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    d = len(pts[0])
    return tuple((-1) ** k * _det([r[:k] + r[k + 1:] for r in rows]) for k in range(d))


def _independent(vecs):
    d = len(vecs[0])
    return any(_det([[v[c] for c in cols] for v in vecs])
               for cols in itertools.combinations(range(d), len(vecs)))


def _brute_force_hull(pts):
    """(vertex set, set of (primitive outward normal, offset)) of a
    full-dimensional integer point set."""
    d = len(pts[0])
    facets = set()
    for sub in itertools.combinations(pts, d):
        z = _normal(sub)
        if not any(z):
            continue
        g = 0
        for c in z:
            g = math.gcd(g, c)
        z = tuple(c // g for c in z)
        h = sum(a * b for a, b in zip(z, sub[0]))
        side = [sum(a * b for a, b in zip(z, p)) - h for p in pts]
        if all(s <= 0 for s in side):
            facets.add((z, h))
        elif all(s >= 0 for s in side):
            facets.add((tuple(-c for c in z), -h))
    verts = set()
    for p in pts:
        # a vertex is cut out by d facets with independent normals
        basis = []
        for z, h in facets:
            if sum(a * b for a, b in zip(z, p)) == h and _independent(basis + [z]):
                basis.append(z)
        if len(basis) == d:
            verts.add(p)
    return verts, facets


def _point_sets(d):
    coord_d = st.integers(min_value=-3, max_value=3)
    return st.lists(st.tuples(*[coord_d] * d), min_size=d + 1, max_size=12, unique=True)


@pytest.mark.parametrize("d", [2, 3, 4])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_hull_matches_brute_force(d, data):
    pts = data.draw(_point_sets(d))
    assume(any(_det([[a - b for a, b in zip(p, sub[0])] for p in sub[1:]])
               for sub in itertools.combinations(pts, d + 1)))
    verts, facets = _brute_force_hull(pts)
    p = convex_hull(pts)
    assert p.dim == d
    assert set(p.vertices) == verts
    assert {(f.normal.z, f.offset) for f in p.facets} == facets
    for f in p.facets:
        on = {v for v in verts if sum(a * b for a, b in zip(f.normal.z, v)) == f.offset}
        assert {p.vertices[i] for i in f.vertex_ids} == on
    if d == 3:
        assert len(p.vertices) - len(p.edges) + len(p.facets) == 2


# ------------------------------------------- bodies of dimension below n

F = Fraction
# triangle in the plane z = x + y of R^3; a square with sides (0,1,1,0) and
# (0,1,-1,0) at (1,0,0,3) in R^4; each point is
# (label, point, contained, squared distance)
LOWER_DIM_CASES = [
    ([(0, 0, 0), (2, 0, 2), (0, 2, 2)], [
        ("inside", (F(1, 2), F(1, 2), 1), True, 0),
        ("edge", (1, 0, 1), True, 0),
        ("hull-outside", (2, 2, 4), False, 6),  # nearest (1, 1, 2)
        ("off-hull", (F(3, 2), F(3, 2), 0), False, 3),  # nearest (1/2, 1/2, 1)
        ("off-hull-outside", (3, 3, 3), False, 9),  # nearest (1, 1, 2)
    ]),
    ([(1, 0, 0, 3), (1, 1, 1, 3), (1, 1, -1, 3), (1, 2, 0, 3)], [
        ("inside", (1, 1, 0, 3), True, 0),
        ("edge", (1, F(1, 2), F(1, 2), 3), True, 0),
        ("hull-outside", (1, F(5, 2), F(3, 2), 3), False, 2),  # nearest (1, 3/2, 1/2, 3)
        ("off-hull", (3, 1, 0, 2), False, 5),  # nearest (1, 1, 0, 3)
        ("off-hull-outside", (1, F(5, 2), F(3, 2), 4), False, 3),
    ]),
]


@pytest.mark.parametrize("verts,cases", LOWER_DIM_CASES, ids=["triangle-R3", "square-R4"])
def test_lower_dimensional_containment_and_distance(verts, cases):
    p = convex_hull(verts)
    assert p.dim == 2 and p.dim < p.n
    for label, x, inside, dist in cases:
        assert contains_point(p, x) is inside, label
        assert dist_sq_point(p, x) == dist, label
