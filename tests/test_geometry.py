import collections
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afel.area_measure import ball_polytope
from afel.errors import PreconditionError
from afel.geometry import (
    Direction,
    _edge_directions,
    _hull_of_image,
    contains_point,
    convex_hull,
    diameter_sq,
    dist_sq_point,
    dim_pspan,
    face_vertices,
    hausdorff_distance_sq,
    is_summand,
    minkowski_difference,
    minkowski_sum,
    minkowski_sum_tagged,
    scale_translate,
    segment,
    singleton,
    support_set,
    support_value,
)
from afel.hull import _chain_2d as chain_2d, hull_structure
from afel.linalg import dot, integerize, matrank, primitive, vadd, vsub

from conftest import patch_in_afel, random_body


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


def test_hausdorff_hulls_each_flat_chart_once(monkeypatch, unit_cube):
    """A Hausdorff distance hulls a flat body's chart once, not once per
    vertex of the other body on its plane, and keeps the values of the
    per-point distances."""
    tri = convex_hull([(0, 0, 0), (3, 0, 0), (0, 3, 0)])
    square = convex_hull([(0, 0, 1), (2, 0, 1), (0, 2, 1), (2, 2, 1)])
    pairs = [(tri, unit_cube), (unit_cube, tri), (tri, square), (tri, tri), (unit_cube, unit_cube)]
    expected = [max(dist_sq_point(b, v) for a, b in ((p, q), (q, p)) for v in a.vertices)
                for p, q in pairs]
    hulls = []
    patch_in_afel(monkeypatch, {convex_hull: lambda pts: hulls.append(1) or convex_hull(pts)})
    for (p, q), d in zip(pairs, expected):
        hulls.clear()
        assert hausdorff_distance_sq(p, q) == d
        assert len(hulls) == (p.dim < 3) + (q.dim < 3)
    assert expected == [4, 4, 2, 0, 0]


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
    checked = compared = 0
    while checked < 60:
        p = convex_hull([tuple(rng.randrange(-4, 5) for _ in range(2))
                         for _ in range(rng.randrange(3, 7))])
        q = convex_hull([tuple(rng.randrange(-2, 3) for _ in range(2))
                         for _ in range(rng.randrange(2, 5))])
        if p.dim < 2:
            continue
        if checked % 2:
            p = minkowski_sum(p, q)  # a case with a difference
        m = minkowski_difference(p, q)
        oracle = _erosion_2d_oracle(p, q)
        oracle_ok = oracle is not None and minkowski_sum(oracle, q) == p
        assert (m is not None) == oracle_ok
        if m is not None:
            assert m == oracle
            compared += 1
        checked += 1
    assert compared >= 30


# injective rational linear maps R^2 -> R^n, written out as (a, b): x -> x0*a + x1*b
PLANE_MAPS = [
    ((1, Fraction(1, 2), 2), (0, 3, -1)),
    ((1, 0, 2, Fraction(-1, 3)), (Fraction(1, 2), 1, 0, 1)),
]


def _apply(mp, x, offset):
    a, b = mp
    return tuple(o + x[0] * ai + x[1] * bi for o, ai, bi in zip(offset, a, b))


@pytest.mark.parametrize("mp", PLANE_MAPS, ids=["R3", "R4"])
def test_minkowski_difference_of_embedded_polygons_against_erosion_oracle(mp):
    """The 2D oracle cases carried into a plane of R^3 or R^4: P -> L(P) + c
    and Q -> L(Q) + s, with s inside or off the plane, so the difference is
    L(M) + c - s exactly when M is the 2D difference; a Q off P's direction
    space has none.  Every other P is built as a sum with Q."""
    n = len(mp[0])
    c = tuple(Fraction(k + 1, 2) for k in range(n))
    shifts = [tuple([0] * n), _apply(mp, (2, -1), [0] * n), tuple(range(1, n + 1))]
    tilt = tuple(Fraction(1, 7) if k == n - 1 else 0 for k in range(n))
    rng = random.Random(31337)
    checked = 0
    while checked < 40:
        p = convex_hull([tuple(rng.randrange(-4, 5) for _ in range(2))
                         for _ in range(rng.randrange(3, 7))])
        q = convex_hull([tuple(rng.randrange(-2, 3) for _ in range(2))
                         for _ in range(rng.randrange(2, 5))])
        if p.dim < 2:
            continue
        if checked % 2:
            p = minkowski_sum(p, q)  # a case with a difference
        oracle = _erosion_2d_oracle(p, q)
        oracle_ok = oracle is not None and minkowski_sum(oracle, q) == p
        s = shifts[checked % len(shifts)]
        p_up = convex_hull([_apply(mp, v, c) for v in p.vertices])
        q_up = convex_hull([_apply(mp, w, s) for w in q.vertices])
        m = minkowski_difference(p_up, q_up)
        if oracle_ok:
            offset = tuple(ci - si for ci, si in zip(c, s))
            assert m == convex_hull([_apply(mp, x, offset) for x in oracle.vertices])
        else:
            assert m is None
        assert is_summand(q_up, p_up) is oracle_ok
        if q.dim > 0:
            tilted = convex_hull([_apply(mp, w, s) for w in q.vertices] + [tilt])
            assert tilted.dim > q.dim and minkowski_difference(p_up, tilted) is None
        checked += 1


def _axpy(t, d, x):
    return tuple(t * di + xi for di, xi in zip(d, x))


@pytest.mark.parametrize("n", [3, 4])
def test_minkowski_difference_of_segments_and_points(n):
    """P = [a, a + d]: Q = [c, c + t*d] is a summand exactly when |t| <= 1,
    with difference [a - c', a - c' + (1 - |t|)*d] for c' the end of Q that
    comes first along d; points shift."""
    a = tuple(range(1, n + 1))
    d = tuple(Fraction(k, 2) - 1 for k in range(n))
    c = tuple(Fraction(1, 3) * (-1) ** k for k in range(n))
    p = segment(a, _axpy(1, d, a))
    for t in (Fraction(2), Fraction(-3, 2), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 3)):
        q = segment(c, _axpy(t, d, c))
        first = c if t > 0 else _axpy(t, d, c)
        m = minkowski_difference(p, q)
        if abs(t) > 1:
            assert m is None and not is_summand(q, p), t
        else:
            lo = tuple(x - y for x, y in zip(a, first))
            assert m == convex_hull([lo, _axpy(1 - abs(t), d, lo)]), t
    off = tuple(1 if k == 0 else 0 for k in range(n))  # not parallel to d
    assert minkowski_difference(p, segment(c, _axpy(1, off, c))) is None
    # points: a point Q translates, a point P has only point summands
    pt = singleton(c)
    moved = tuple(x - y for x, y in zip(a, c))
    assert minkowski_difference(p, pt) == segment(moved, _axpy(1, d, moved))
    assert minkowski_difference(singleton(a), pt) == singleton(moved)
    assert minkowski_difference(singleton(a), p) is None
    plane = convex_hull([a, _axpy(1, d, a), _axpy(1, off, a)])
    assert minkowski_difference(plane, pt) == convex_hull(
        [tuple(x - y for x, y in zip(v, c)) for v in plane.vertices])


def test_summand_of_constructed_sum():
    for seed in range(15):
        rng = random.Random(seed)
        a = convex_hull([tuple(rng.randrange(-2, 3) for _ in range(3)) for _ in range(4)])
        b = convex_hull([tuple(rng.randrange(-2, 3) for _ in range(3)) for _ in range(4)])
        s = minkowski_sum(a, b)
        assert is_summand(a, s) and is_summand(b, s)
        m = minkowski_difference(s, a)
        assert m is not None and minkowski_sum(m, a) == s


# ------------------------------------------- seeded summand corpus, R^3 and R^4


def _feasibility_oracle(p, q):
    """The Minkowski difference by the P×Q feasibility scan: the hull of the
    vertex differences x = v - w with x + Q inside P (every x + w' a point
    of P), kept only when it sums back to P.  Independent of the vertex
    pairing in `minkowski_difference`."""
    feasible = set()
    for v in p.vertices:
        for w in q.vertices:
            x = tuple(a - b for a, b in zip(v, w))
            if all(contains_point(p, tuple(a + b for a, b in zip(x, u))) for u in q.vertices):
                feasible.add(x)
    if not feasible:
        return None
    m = convex_hull(feasible)
    return m if minkowski_sum(m, q) == p else None


def _tight_normal_sum(p, i):
    """The sum of the normals of the facets of a full-dimensional P through
    its vertex i, a direction interior to the normal cone there."""
    z = [0] * p.n
    for f in p.facets:
        if i in f.vertex_ids:
            z = [a + b for a, b in zip(z, f.normal.z)]
    return z


def _ambiguous_pairing(p, q):
    """Whether some vertex v of a full-dimensional P has two maximizers over
    Q of <., z>, z the sum of the normals of P's facets through v."""
    for i in range(len(p.vertices)):
        z = _tight_normal_sum(p, i)
        heights = [sum(a * b for a, b in zip(w, z)) for w in q.vertices]
        if heights.count(max(heights)) > 1:
            return True
    return False


def _random_rationals(rng, n, k):
    return [tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(n))
            for _ in range(k)]


def _off_direction(rng, p, n, normal=None, tries=None):
    """A nonzero integer vector parallel to no difference of P's vertices,
    so no edge of a summand of P can point along it; orthogonal to
    `normal` when one is given.  None when `tries` draws find none."""
    diffs = [tuple(a - b for a, b in zip(v, w)) for v, w in itertools.combinations(p.vertices, 2)]
    for _ in itertools.count() if tries is None else range(tries):
        if normal is None:
            s = [rng.randrange(-3, 4) for _ in range(n)]
        else:
            # the pairwise rotations z_j e_i - z_i e_j span the orthogonal complement of z
            s = [0] * n
            for i, j in itertools.combinations(range(n), 2):
                c = rng.randrange(-2, 3)
                s[i] += c * normal[j]
                s[j] -= c * normal[i]
        s = tuple(s)
        if any(s) and all(matrank([s, d]) == 2 for d in diffs):
            return s
    return None


def _non_summands(rng, p, q, kinds):
    """Q changed so that it is no summand of P: plus a segment off P's
    vertex-difference directions and orthogonal to the tight-normal sum at
    one of P's vertices (so two vertices of Q maximize it), with a vertex
    added off those directions, or scaled by 2 (same normal fan, too
    large)."""
    n = p.n
    out = []
    for kind in kinds:
        if kind == "segment":
            s = None
            while s is None:
                z = _tight_normal_sum(p, rng.randrange(len(p.vertices)))
                s = _off_direction(rng, p, n, z, tries=20)
            out.append((kind, minkowski_sum(q, segment([0] * n, s))))
        elif kind == "vertex":
            w = q.vertices[rng.randrange(len(q.vertices))]
            s = _off_direction(rng, p, n)
            out.append((kind, convex_hull(list(q.vertices) + [tuple(a + b for a, b in zip(w, s))])))
        else:
            out.append((kind, scale_translate(q, 2, _random_rationals(rng, n, 1)[0])))
    return out


_KINDS = ("segment", "vertex", "scaled")


def _summand_corpus(seed):
    """(label, P, Q) pairs: for each random rational M and Q, P = M + Q is
    tried against Q and M (summands) and against two changed copies of Q;
    flat P: polygons M + Q in a plane of R^3, and segments in R^4."""
    rng = random.Random(seed)
    cases = []
    for n, bases, m_pts, q_pts in ((3, 8, 5, 4), (4, 4, 5, 3)):
        for b in range(bases):
            while True:
                m = convex_hull(_random_rationals(rng, n, m_pts))
                q = convex_hull(_random_rationals(rng, n, q_pts))
                if m.dim == n and q.dim > 0:
                    break
            p = minkowski_sum(m, q)
            cases += [(f"R{n}", p, q), (f"R{n}", p, m)]
            kinds = (_KINDS[b % 3], _KINDS[(b + 1) % 3])
            cases += [(f"R{n} {kind}", p, q2) for kind, q2 in _non_summands(rng, p, q, kinds)]

    def up(body, shift):
        return convex_hull([_apply(PLANE_MAPS[0], v, shift) for v in body.vertices])

    for b in range(6):
        while True:
            m2 = convex_hull(_random_rationals(rng, 2, 4))
            q2 = convex_hull(_random_rationals(rng, 2, 3))
            if m2.dim == 2 and q2.dim > 0:
                break
        p2 = minkowski_sum(m2, q2)
        c, s = _random_rationals(rng, 3, 2)
        p = up(p2, c)
        cases += [("polygon-R3", p, up(q2, s)), ("polygon-R3", p, up(m2, s))]
        kinds = (_KINDS[b % 3], _KINDS[(b + 1) % 3])
        cases += [(f"polygon-R3 {kind}", p, up(q3, s))
                  for kind, q3 in _non_summands(rng, p2, q2, kinds)]
    for b in range(3):
        start, d = _random_rationals(rng, 4, 2)
        if not any(d):
            d = (1, 0, 0, 0)
        p = segment(start, _axpy(1, d, start))
        c = _random_rationals(rng, 4, 1)[0]
        t = Fraction(rng.randrange(1, 6), 6)
        cases += [("segment-R4", p, segment(c, _axpy(t, d, c))),
                  ("segment-R4", p, singleton(c)),
                  ("segment-R4", p, segment(c, _axpy(1 + t, d, c))),
                  ("segment-R4", p, segment(c, _axpy(t, _off_direction(rng, p, 4), c)))]
    return cases


def test_minkowski_difference_on_seeded_summand_corpus():
    """Every pair agrees with the feasibility oracle, in value and in
    existence.  The exact counts pin the corpus: a third or more of it are
    summands, and among the full-dimensional non-summands some have a
    unique vertex pairing, so only the containment check rejects them."""
    counts = collections.Counter()
    for label, p, q in _summand_corpus(2024):
        m = minkowski_difference(p, q)
        assert m == _feasibility_oracle(p, q), label
        flat = p.dim < p.n
        if m is not None:
            assert flat or not _ambiguous_pairing(p, q), label
            kind = "summand"
        elif flat:
            kind = "none"
        else:
            kind = "ambiguous" if _ambiguous_pairing(p, q) else "contained"
        counts["flat" if flat else "full", kind] += 1
    assert counts == {("full", "summand"): 24, ("full", "ambiguous"): 8,
                      ("full", "contained"): 16, ("flat", "summand"): 18,
                      ("flat", "none"): 18}
    assert 3 * (counts["full", "summand"] + counts["flat", "summand"]) >= sum(counts.values())



def test_minkowski_difference_hulls_only_the_difference(monkeypatch):
    """For a full-dimensional P: no Minkowski sum, one hull when the
    difference exists and none when it does not.  That hull is made on the
    paired integer images, so `convex_hull` is not called at all; every hull
    goes through `_hull_of_image`."""
    cases = [(p, q) for _, p, q in _summand_corpus(2024) if p.dim == p.n]
    calls = collections.Counter()

    def spy(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr("afel.geometry.convex_hull", spy("convex_hull", convex_hull))
    monkeypatch.setattr("afel.geometry._hull_of_image", spy("hull", _hull_of_image))
    monkeypatch.setattr("afel.geometry.minkowski_sum", spy("minkowski_sum", minkowski_sum))
    for p, q in cases:
        calls.clear()
        m = minkowski_difference(p, q)
        assert calls == ({"hull": 1} if m is not None else {})


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


def _turn(a, b, c, normal=None):
    """Orientation of the turn a -> b -> c: the plane's cross product, or in
    R^3 the cross product's component along the normal."""
    u = [y - x for x, y in zip(a, b)]
    v = [y - x for x, y in zip(b, c)]
    if normal is None:
        return u[0] * v[1] - u[1] * v[0]
    w = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
    return sum(x * y for x, y in zip(w, normal))


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
    on_sets = []
    for f in p.facets:
        on = {v for v in verts if sum(a * b for a, b in zip(f.normal.z, v)) == f.offset}
        assert {p.vertices[i] for i in f.vertex_ids} == on
        on_sets.append({p.vertices.index(v) for v in on})
    # the id conventions: sorted pairs and a cycle from 0 in R^2, cycles from
    # their smallest id in R^3, sorted ids in R^4; every cycle counter-clockwise
    if d == 2:
        assert all(a < b for a, b in (f.vertex_ids for f in p.facets))
        assert p.cycle[0] == 0 and sorted(p.cycle) == list(range(len(p.vertices)))
        cyc = [p.vertices[i] for i in p.cycle]
        assert all(_turn(cyc[k - 2], cyc[k - 1], cyc[k]) > 0 for k in range(len(cyc)))
    elif d == 3:
        for f in p.facets:
            c = [p.vertices[i] for i in f.vertex_ids]
            assert f.vertex_ids[0] == min(f.vertex_ids)
            assert all(_turn(c[k - 2], c[k - 1], c[k], f.normal.z) > 0 for k in range(len(c)))
        # an edge is a pair of facets sharing exactly two vertices
        edges = sorted((tuple(sorted(on_sets[i] & on_sets[j])), (i, j))
                       for i, j in itertools.combinations(range(len(p.facets)), 2)
                       if len(on_sets[i] & on_sets[j]) == 2)
        assert [(e.vertex_ids, e.facet_ids) for e in p.edges] == edges
        assert len(p.vertices) - len(p.edges) + len(p.facets) == 2
    else:
        assert all(list(f.vertex_ids) == sorted(f.vertex_ids) for f in p.facets)


# ------------------------------------------------- 3D hulls of many points
# `test_hull_matches_brute_force` draws at most 12 points; these inputs have
# hundreds, most of them on facet planes or inside the hull.


def test_hull_of_integer_box_points():
    # every integer point of a 7 x 7 x 4 box: the face and edge points lie on
    # facet planes but are no vertices
    sides = (7, 7, 4)
    pts = list(itertools.product(*(range(s + 1) for s in sides)))
    p = convex_hull(pts)
    corners = set(itertools.product(*((0, s) for s in sides)))
    assert set(p.vertices) == corners
    face_interior = {q for q in pts if sum(0 < c < s for c, s in zip(q, sides)) == 2}
    assert len(face_interior) == 2 * (6 * 6 + 6 * 3 + 6 * 3)
    assert not face_interior & set(p.vertices)
    expected = set()
    for k, s in enumerate(sides):
        e = tuple(int(j == k) for j in range(3))
        expected |= {(e, s), (tuple(-c for c in e), 0)}
    assert {(f.normal.z, f.offset) for f in p.facets} == expected
    assert len(p.edges) == 12


def test_hull_of_cube_plus_ball_vertex_sums():
    cube = convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    ball = ball_polytope(50)
    pts = {tuple(a + b for a, b in zip(v, w)) for v in cube.vertices for w in ball.vertices}
    p = convex_hull(pts)
    assert p.dim == 3
    for f in p.facets:
        heights = [sum(a * b for a, b in zip(f.normal.z, q)) for q in pts]
        assert max(heights) == f.offset
        assert all(sum(a * b for a, b in zip(f.normal.z, p.vertices[i])) == f.offset
                   for i in f.vertex_ids)
    assert len(p.vertices) - len(p.edges) + len(p.facets) == 2


def test_hull_of_coplanar_points_and_apex():
    # 289 points on the plane x + 2y + 4z = 0 and one just off its middle
    pts = [(-2 * y - 4 * z, y, z) for y in range(-8, 9) for z in range(-8, 9)]
    pts.append((1, 0, 0))
    assert len(convex_hull(pts).vertices) == 5


# ---------------------------------------------- one hull pass per body


def test_one_hull_structure_call_per_convex_hull(monkeypatch):
    calls = []

    def hull_spy(points, d):
        calls.append(d)
        return hull_structure(points, d)

    def convex_hull_spy(points):
        calls.append("convex_hull")
        return convex_hull(points)

    def chain_spy(points):
        calls.append("chain")
        return chain_2d(points)

    monkeypatch.setattr("afel.hull.hull_structure", hull_spy)
    monkeypatch.setattr("afel.hull._chain_2d", chain_spy)
    monkeypatch.setattr("afel.geometry.convex_hull", convex_hull_spy)
    third, half = Fraction(1, 3), Fraction(1, 2)
    cube3 = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    cube4 = list(itertools.product((0, 2), repeat=4))
    cases = [
        # a cube with points on its edges and faces
        ("body-R3", cube3 + [(1, 0, 0), (1, 1, 0), (2, 1, 1)], 3, 8, [3] + ["chain"] * 6),
        # a 4-cube with points on its 3-faces, whose facets are wrapped in R^3
        ("body-R4", cube4 + [(1, 1, 1, 0), (2, 1, 0, 1)], 4, 16, [4] + ["chain"] * 48),
        # a hexagon in the plane x + y + z = 1, with its center and a point
        # on an edge: the monotone chain alone, no edge facets
        ("polygon-R3", [(a, b, 1 - a - b) for a, b in
                        [(2 * third, third), (third, 2 * third), (0, 2 * third), (0, third),
                         (third, 0), (2 * third, 0), (third, third), (half, half)]], 2, 6,
         ["chain"]),
        # a 3-cube in the hyperplane w = x + 2y - z, with its center
        ("flat-R4", [(x, y, z, x + 2 * y - z) for x, y, z in cube3 + [(1, 1, 1)]], 3, 8,
         [3] + ["chain"] * 6),
    ]
    for label, pts, dim, nverts, inner in cases:
        calls.clear()
        p = convex_hull_spy(pts)
        assert (p.dim, len(p.vertices)) == (dim, nverts), label
        assert calls == ["convex_hull"] + inner, label


def _flat_corpus(seed, count):
    """Seeded flat point sets: affinely spanning integer points of
    [-3, 3]^k, half the time with the midpoint of two of them added, under an
    injective rational affine map into R^n, for (n, k) = (3, 2), (4, 2) and
    (4, 3)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, k = rng.choice([(3, 2), (4, 2), (4, 3)])
        amap = [[Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3])) for _ in range(k)]
                for _ in range(n)]
        if not _independent([tuple(row[j] for row in amap) for j in range(k)]):
            continue
        base = {tuple(rng.randint(-3, 3) for _ in range(k))
                for _ in range(rng.randint(k + 1, 10))}
        b0 = min(base)
        if not any(_det([[a - c for a, c in zip(q, b0)] for q in sub])
                   for sub in itertools.combinations([q for q in base if q != b0], k)):
            continue
        if rng.random() < 0.5:  # a midpoint of two of the points, often on an edge
            a, c = rng.sample(sorted(base), 2)
            if all((x + y) % 2 == 0 for x, y in zip(a, c)):
                base.add(tuple((x + y) // 2 for x, y in zip(a, c)))
        shift = [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 5])) for _ in range(n)]
        pts = [tuple(sum(row[j] * q[j] for j in range(k)) + s for row, s in zip(amap, shift))
               for q in sorted(base)]
        out.append((n, k, pts))
    return out


def _chart(pts, k):
    """The points' image in the first k coordinates (in lexicographic order
    of the index sets) where it is full-dimensional, scaled to integers."""
    n = len(pts[0])
    for cols in itertools.combinations(range(n), k):
        img = [tuple(p[c] for c in cols) for p in pts]
        diffs = [tuple(a - b for a, b in zip(q, img[0])) for q in img[1:]]
        if any(_det(list(sub)) for sub in itertools.combinations(diffs, k)):
            den = math.lcm(*(Fraction(x).denominator for q in img for x in q))
            return [tuple(int(x * den) for x in q) for q in img]
    raise AssertionError("no chart")


def test_flat_hulls_against_brute_force_of_chart_image():
    counts = collections.Counter()
    for n, k, pts in _flat_corpus(2202, 600):
        img = _chart(pts, k)
        chart_of = dict(zip(pts, img))
        verts, facets = _brute_force_hull(img)
        p = convex_hull(pts)
        assert (p.n, p.dim, p.facets, p.edges) == (n, k, None, None)
        assert {chart_of[v] for v in p.vertices} == verts
        assert list(p.vertices) == sorted(p.vertices)
        counts[(n, k)] += 1
        counts["non-integer"] += any(Fraction(x).denominator != 1 for q in pts for x in q)
        counts["boundary non-vertex"] += any(
            q not in verts and any(sum(a * b for a, b in zip(z, q)) == h for z, h in facets)
            for q in img)
        counts["interior"] += any(
            all(sum(a * b for a, b in zip(z, q)) < h for z, h in facets) for q in img)
        if k == 3:
            assert p.cycle is None
            continue
        counts["triangle" if len(verts) == 3 else "polygon"] += 1
        # the cycle visits every vertex once, from id 0, along the hull's edges,
        # counter-clockwise in the chart
        assert p.cycle[0] == 0 and sorted(p.cycle) == list(range(len(p.vertices)))
        assert len(p.cycle) == len(facets)
        cyc = [chart_of[p.vertices[i]] for i in p.cycle]
        assert all(_turn(cyc[i - 2], cyc[i - 1], cyc[i]) > 0 for i in range(len(cyc)))
        for a, b in zip(p.cycle, p.cycle[1:] + p.cycle[:1]):
            ya, yb = chart_of[p.vertices[a]], chart_of[p.vertices[b]]
            assert any(sum(x * y for x, y in zip(z, ya)) == h == sum(x * y for x, y in zip(z, yb))
                       for z, h in facets)
    assert dict(counts) == {(3, 2): 177, (4, 2): 227, (4, 3): 196, "triangle": 77,
                            "polygon": 327, "boundary non-vertex": 187, "interior": 335,
                            "non-integer": 590}


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
    # the segment from (1, 0, 0) to (1, 2, 2) in R^3
    ([(1, 0, 0), (1, 2, 2)], [
        ("inside", (1, 1, 1), True, 0),
        ("end", (1, 2, 2), True, 0),
        ("line-outside", (1, 3, 3), False, 2),  # nearest (1, 2, 2)
        ("off-line", (2, 1, 1), False, 1),  # nearest (1, 1, 1)
        ("off-line-outside", (1, 4, 2), False, 4),  # nearest (1, 2, 2)
        ("off-line-before", (1, -1, F(-1, 2)), False, F(5, 4)),  # nearest (1, 0, 0)
    ]),
    # the point (1, 2, 3, 4) in R^4
    ([(1, 2, 3, 4)], [
        ("same", (1, 2, 3, 4), True, 0),
        ("off", (1, 2, 3, 5), False, 1),
        ("origin", (0, 0, 0, 0), False, 30),
    ]),
]


@pytest.mark.parametrize("verts,cases", LOWER_DIM_CASES,
                         ids=["triangle-R3", "square-R4", "segment-R3", "point-R4"])
def test_lower_dimensional_containment_and_distance(verts, cases):
    p = convex_hull(verts)
    assert p.dim < p.n
    for label, x, inside, dist in cases:
        assert contains_point(p, x) is inside, label
        assert dist_sq_point(p, x) == dist, label


# ------------------------------------------------------ tagged Minkowski sums


def _rational_points(d, min_size, max_size):
    c = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))
    return st.lists(st.tuples(*[c] * d), min_size=min_size, max_size=max_size)


def _point_lists(d):
    """Point lists of a general body, a segment or a flat body (last
    coordinate constant), with integer and non-integer rational coordinates."""
    general = _rational_points(d, 1, 4 if d < 4 else 3)
    seg = _rational_points(d, 2, 2)
    flat = st.tuples(_rational_points(d - 1, 1, 4), st.integers(-3, 3)).map(
        lambda t: [p + (Fraction(t[1]),) for p in t[0]])
    return st.one_of(general, seg, flat)


def _ip(a, b):
    return sum(x * y for x, y in zip(a, b))


@pytest.mark.parametrize("d", [2, 3, 4])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_tagged_sum_matches_brute_force(d, data):
    point_lists = data.draw(st.lists(_point_lists(d), min_size=2, max_size=3))
    bodies = [convex_hull(pts) for pts in point_lists]
    for pts, body in zip(point_lists, bodies):
        assert all(contains_point(body, x) for x in pts)
    total, tags = minkowski_sum_tagged(bodies)
    assert total == functools.reduce(minkowski_sum, bodies)
    assert len(tags) == len(total.vertices)
    for v, tag in zip(total.vertices, tags):
        # the one tuple of summand vertices adding up to v, found by brute force
        sums_to_v = [ids for ids in itertools.product(*[range(len(b.vertices)) for b in bodies])
                     if tuple(map(sum, zip(*[b.vertices[i] for b, i in zip(bodies, ids)]))) == v]
        assert sums_to_v == [tag]
    if total.dim < d:
        return
    for f in total.facets:
        z = f.normal
        h = [max(_ip(x, z.z) for x in b.vertices) for b in bodies]
        assert support_value(total, z) == f.offset == sum(h)
        for i, b in enumerate(bodies):
            tagged = {b.vertices[tags[v][i]] for v in f.vertex_ids}
            assert tagged == set(support_set(b, z).vertices)
            assert tagged == {x for x in b.vertices if _ip(x, z.z) == h[i]}



# ---------------------------------------------------------------------------
# the integer image: reference rational scans


def _scan_support_value(p, z):
    """h_P(z) by a rational scan of P's vertices."""
    return max(dot(v, z.z) for v in p.vertices)


def _scan_face(p, z):
    """The vertices of F(P, z) by a rational scan, in P's vertex order."""
    h = _scan_support_value(p, z)
    return [v for v in p.vertices if dot(v, z.z) == h]


def _scan_image(p):
    """P's vertices times the lcm of their coordinates' denominators."""
    den = math.lcm(*(Fraction(x).denominator for v in p.vertices for x in v))
    return [tuple(int(x * den) for x in v) for v in p.vertices], den


def _image_corpus(seed):
    """(label, body) pairs: full-dimensional bodies in R^2 to R^4 with small
    rational coordinates, in R^3 with coordinates and denominators beyond
    2^64, flat bodies in R^3 and R^4 (`_flat_corpus`), and segments and
    points in R^2 to R^4."""
    rng = random.Random(seed)
    out = []
    for n in (2, 3, 4):
        for _ in range(6):
            out.append(("small", convex_hull(_random_rationals(rng, n, rng.randrange(n + 1, 9)))))
    for _ in range(4):
        pts = [tuple(Fraction(rng.randrange(-2 ** 80, 2 ** 80), rng.randrange(2 ** 64, 2 ** 66))
                     for _ in range(3)) for _ in range(8)]
        out.append(("large", convex_hull(pts)))
    out += [("flat", convex_hull(pts)) for _, _, pts in _flat_corpus(seed, 12)]
    for n in (2, 3, 4):
        a, b = _random_rationals(rng, n, 2)
        out += [("segment", segment(a, b)), ("point", singleton(a))]
    return out


def test_image_readers_against_rational_scans():
    """`VPolytope.image`, `face_vertices`, `support_value` and `support_set`
    agree exactly with the rational vertex scans, over every nonzero
    direction in {-1, 0, 1}^n and every facet normal."""
    tied = collections.Counter()
    bodies = _image_corpus(2601)
    assert {label for label, _ in bodies} == {"small", "large", "flat", "segment", "point"}
    assert {(p.n, p.dim) for label, p in bodies if label == "flat"} == {(3, 2), (4, 2), (4, 3)}
    large = [p for label, p in bodies if label == "large"]
    assert all(p.image[1] > 2 ** 64 and max(abs(x) for v in p.image[0] for x in v) > 2 ** 64
               for p in large)
    for label, p in bodies:
        assert p.image == _scan_image(p) and p.image is p.image, label
        dirs = {Direction(primitive(s)) for s in itertools.product((-1, 0, 1), repeat=p.n) if any(s)}
        dirs |= {f.normal for f in p.facets or ()}
        for z in sorted(dirs, key=lambda d: d.z):
            h, face = _scan_support_value(p, z), _scan_face(p, z)
            value = support_value(p, z)
            assert value == h and isinstance(value, int) == (Fraction(h).denominator == 1)
            assert face_vertices(p, z) == face
            assert support_set(p, z) == convex_hull(face)
            tied[label] += len(face) > 1
    # faces with more than one vertex, per kind of body
    assert tied == {"small": 176, "large": 38, "flat": 36, "segment": 8, "point": 0}


def test_scaled_body_builds_its_own_image():
    """scale_translate makes a new body, whose image is read from its own
    vertices, not carried over from the source body's."""
    rng = random.Random(2602)
    for label, p in _image_corpus(2601):
        assert p.image == _scan_image(p)  # built on the source first
        a = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        (x,) = _random_rationals(rng, p.n, 1)
        q = scale_translate(p, a, x)
        assert q.image == _scan_image(q), label
        for z in (Direction((1,) + (0,) * (p.n - 1)), Direction((-1,) * p.n)):
            assert support_value(q, z) == a * support_value(p, z) + dot(x, z.z), label


# ---------------------------------------------------------------------------
# Minkowski sums on integer images: the rational paths as reference


def _fields(p):
    """Every field of a body, as a repr, so int and Fraction differ."""
    return repr((p.n, p.dim, p.vertices, p.facets, p.edges, p.cycle))


def _rational_sum(p, q):
    """P + Q as the hull of the pairwise sums of the rational vertices."""
    return convex_hull([vadd(v, w) for v in p.vertices for w in q.vertices])


def _rational_fold(bodies):
    """The tagged sum folded on rational candidates: each step hulls the sums
    of the partial sum's vertices and the next body's, keyed by the sums."""
    order = sorted(range(len(bodies)), key=lambda i: len(bodies[i].vertices))
    acc = bodies[order[0]]
    tags = [(j,) for j in range(len(acc.vertices))]
    for i in order[1:]:
        cand = {}
        for v, t in zip(acc.vertices, tags):
            for j, w in enumerate(bodies[i].vertices):
                p = vadd(v, w)
                cand[p] = None if p in cand else t + (j,)
        acc = convex_hull(cand)
        tags = [cand[v] for v in acc.vertices]
        assert None not in tags
    slot = {body: k for k, body in enumerate(order)}
    return acc, tuple(tuple(t[slot[b]] for b in range(len(bodies))) for t in tags)


def _rational_edge_directions(p):
    """`_edge_directions` on differences of the rational vertices."""
    if p.dim == 1:
        pairs = [(0, 1)]
    elif p.dim == 2:
        pairs = [(p.cycle[i - 1], p.cycle[i]) for i in range(len(p.cycle))]
    else:
        pairs = [e.vertex_ids for e in p.edges]
    dirs = set()
    for i, j in pairs:
        d = primitive(vsub(p.vertices[j], p.vertices[i]))
        dirs.add(d if next(c for c in d if c) > 0 else tuple(-c for c in d))
    return [Direction(d) for d in sorted(dirs)]


def _random_points(rng, n, k, dens):
    """k random points in R^n with coordinates c / d, d drawn from dens."""
    return [tuple(Fraction(rng.randrange(-6, 7), rng.choice(dens)) for _ in range(n))
            for _ in range(k)]


def _sum_corpus(seed):
    """(label, body) pairs per ambient dimension: full-dimensional bodies
    over different denominators, bodies with coordinates and denominators
    beyond 2^64, flat bodies (`_flat_corpus`), segments and points."""
    rng = random.Random(seed)
    out = {2: [], 3: [], 4: []}
    for n, bodies in out.items():
        for dens in ((1,), (2,), (3, 9), (2, 5)) if n < 4 else ((2,), (3, 9), (1, 5)):
            bodies.append(("small", convex_hull(_random_points(rng, n, rng.randrange(n + 1, 7), dens))))
        for _ in range(2 if n < 4 else 1):
            pts = [tuple(Fraction(rng.randrange(-2 ** 80, 2 ** 80), rng.randrange(2 ** 64, 2 ** 66))
                         for _ in range(n)) for _ in range(5)]
            bodies.append(("large", convex_hull(pts)))
        for dens in ((1,), (4,)):
            bodies.append(("segment", segment(*_random_points(rng, n, 2, dens))))
        bodies.append(("point", singleton(_random_points(rng, n, 1, (3,))[0])))
    flats = collections.defaultdict(list)
    for n, k, pts in _flat_corpus(seed, 24):
        flats[n, k].append(pts)
    for (n, k), point_lists in sorted(flats.items()):
        out[n] += [("flat", convex_hull(pts)) for pts in point_lists[:2 if n == 3 else 1]]
    return out


def test_sums_on_images_match_the_rational_paths():
    """`minkowski_sum`, `minkowski_sum_tagged` and the hull of
    `minkowski_difference` equal the rational paths in every field and tag;
    `_edge_directions` equals the scan of rational vertex differences."""
    corpus = _sum_corpus(2701)
    assert {(b.n, b.dim) for bodies in corpus.values() for label, b in bodies
            if label == "flat"} == {(3, 2), (4, 2), (4, 3)}
    assert all(b.image[1] > 2 ** 64 for bodies in corpus.values() for label, b in bodies
               if label == "large")
    rng = random.Random(2702)
    counts = collections.Counter()
    for n, bodies in corpus.items():
        pairs = list(itertools.combinations_with_replacement(bodies, 2))
        trios = [rng.sample(bodies, 3) for _ in range(6 if n < 4 else 3)]
        for (la, p), (lb, q) in pairs:
            s = minkowski_sum(p, q)
            assert _fields(s) == _fields(_rational_sum(p, q)), (la, lb)
            m = minkowski_difference(s, q)
            assert _fields(m) == _fields(convex_hull(p.vertices)), (la, lb)
            counts["pair", n, s.dim] += 1
            counts["denominators differ"] += p.image[1] != q.image[1]
        for trio in [[p, q] for (_, p), (_, q) in pairs[::4]] + [[b for _, b in t] for t in trios]:
            total, tags = minkowski_sum_tagged(trio)
            ref, ref_tags = _rational_fold(trio)
            assert _fields(total) == _fields(ref) and tags == ref_tags
            counts["fold", len(trio)] += 1
        for x in [b for _, b in bodies] + [minkowski_sum(p, q) for (_, p), (_, q) in pairs]:
            if 0 < x.dim and (x.dim < 3 or x.n == 3):
                assert _edge_directions(x) == _rational_edge_directions(x)
                counts["edge directions"] += 1
    # sums by ambient dimension and dimension, folds by summand count
    assert counts == {
        ("pair", 2, 0): 1, ("pair", 2, 1): 6, ("pair", 2, 2): 38,
        ("pair", 3, 0): 1, ("pair", 3, 1): 4, ("pair", 3, 2): 5, ("pair", 3, 3): 56,
        ("pair", 4, 0): 1, ("pair", 4, 1): 4, ("pair", 4, 2): 3, ("pair", 4, 3): 4,
        ("pair", 4, 4): 33, "denominators differ": 122,
        ("fold", 2): 41, ("fold", 3): 15, "edge directions": 137}


def test_sums_make_no_rational_hull(monkeypatch):
    """On rational summands, `minkowski_sum` and `minkowski_sum_tagged` call
    no `convex_hull`, and integerize only summands' vertex lists (each
    summand's image, once)."""
    rng = random.Random(2703)
    cases = []
    for n in (2, 3, 4):
        p, q, r = (convex_hull(_random_points(rng, n, n + 2, dens)) for dens in ((2,), (3,), (1, 5)))
        cases.append((n, p, q, r))
    hulls, lists = [], []

    def hull_spy(points):
        hulls.append(points)
        return convex_hull(points)

    def integerize_spy(points):
        lists.append(points)
        return integerize(points)

    monkeypatch.setattr("afel.geometry.convex_hull", hull_spy)
    monkeypatch.setattr("afel.geometry.integerize", integerize_spy)
    for n, p, q, r in cases:
        assert minkowski_sum(p, q).dim == n
        assert minkowski_sum_tagged([p, q, r])[0].dim == n
    assert hulls == []
    summands = [b.vertices for _, p, q, r in cases for b in (p, q, r)]
    assert len(lists) == len(summands)
    assert all(any(x is v for v in summands) for x in lists)
