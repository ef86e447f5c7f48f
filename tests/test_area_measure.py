import collections
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from afel.area_measure import (
    ArcSupport,
    AtomicMeasure,
    ball_measure_numeric,
    ball_polytope,
    ball_support_arcs,
    mixed_area_diff,
    mixed_area_measure,
    significant_atoms,
)
from afel.area_measure import _arc, _face_weight, _gauss_overlay, _in_arc
from afel.errors import PreconditionError, TheoryViolationError
from afel.generators import gen_zonotope
from afel.geometry import (
    Direction,
    SupportDiff,
    convex_hull,
    face_ids,
    minkowski_sum,
    minkowski_sum_tagged,
    scale_translate,
    segment,
    singleton,
    support_set,
)
from afel.linalg import cross3, dot, matrank, primitive, vadd, vsub
from afel.mixed_volume import mixed_volume

from conftest import block_in_afel, patch_in_afel, random_body, truncated_cube


def test_cube_surface_measure(unit_cube):
    m = mixed_area_measure([unit_cube, unit_cube])
    expect = {Direction.of(z): 1 for z in
              [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]}
    assert m.atoms == expect


def test_cube_segment_measure(unit_cube):
    e3 = segment((0, 0, 0), (0, 0, 1))
    m = mixed_area_measure([unit_cube, e3])
    expect = {Direction.of(z): Fraction(1, 2) for z in
              [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]}
    assert m.atoms == expect


def test_point_gives_zero_measure(unit_cube):
    assert mixed_area_measure([unit_cube, singleton((3, 1, 4))]).is_zero()


def test_integral_identity_random():
    rng = random.Random(55)
    for n in (2, 3):
        for _ in range(8):
            bodies = [random_body(rng, n) for _ in range(n - 1)]
            m = mixed_area_measure(bodies)
            probe = random_body(rng, n)
            lhs = Fraction(m.integrate_support(probe), n)
            assert lhs == mixed_volume(bodies + [probe])


def test_symmetry_and_multilinearity():
    rng = random.Random(56)
    a, b, c = (random_body(rng, 3) for _ in range(3))
    assert mixed_area_measure([a, b]) == mixed_area_measure([b, a])
    lam = Fraction(2, 5)
    scaled = scale_translate(a, lam, (0, 0, 0))
    lhs = mixed_area_measure([scaled, b])
    rhs = mixed_area_measure([a, b]).scaled(lam)
    assert lhs == rhs


def test_diff_measure_examples(unit_cube):
    f0 = SupportDiff(unit_cube, unit_cube)
    assert mixed_area_diff([f0, unit_cube]).is_zero()
    moved = scale_translate(unit_cube, 1, (2, 3, 4))
    assert mixed_area_diff([SupportDiff(moved, unit_cube), unit_cube]).is_zero()
    doubled = scale_translate(unit_cube, 2, (0, 0, 0))
    lhs = mixed_area_diff([SupportDiff(doubled, unit_cube), unit_cube])
    assert lhs == mixed_area_measure([unit_cube, unit_cube])


def test_total_measure_is_surface_area():
    # boxes: atom masses sum to the surface area
    rng = random.Random(57)
    for _ in range(5):
        a, b, c = (rng.randrange(1, 5) for _ in range(3))
        box = convex_hull([(x, y, z) for x in (0, a) for y in (0, b) for z in (0, c)])
        m = mixed_area_measure([box, box])
        area = 2 * (a * b + b * c + a * c)
        assert abs(m.total_mass_float() - area) < 1e-9


def test_ball_support_arcs_cube(sym_cube):
    arcs = ball_support_arcs(sym_cube)
    assert len(arcs.arcs) == 12
    # union = the three coordinate great circles: each arc spans two axes
    for z1, z2 in arcs.arcs:
        assert sorted(map(abs, z1.z)).count(0) == 2
        assert sorted(map(abs, z2.z)).count(0) == 2
    assert arcs.contains(Direction.of((1, 1, 0)))
    assert arcs.contains(Direction.of((0, -3, 4)))
    assert not arcs.contains(Direction.of((1, 1, 1)))


def test_arc_contains_by_sign_pattern():
    """u = a*z1 + b*z2 is on the arc pos{z1, z2} exactly when a, b >= 0; a
    direction off the arc's plane never is."""
    z1, z2 = (2, -1, 3), (1, 4, 0)
    arcs = ArcSupport(((Direction.of(z1), Direction.of(z2)),))
    off = (12, -3, -9)  # z1 x z2
    for a, b in itertools.product((-3, -1, 0, 1, 2), repeat=2):
        if (a, b) == (0, 0):
            continue
        u = tuple(a * x + b * y for x, y in zip(z1, z2))
        assert arcs.contains(Direction.of(u)) is (a >= 0 and b >= 0), (a, b)
        for k in (-1, 1):
            tilted = tuple(x + k * o for x, o in zip(u, off))
            assert not arcs.contains(Direction.of(tilted)), (a, b, k)
    assert not arcs.contains(Direction.of(off))
    parallel = ArcSupport(((Direction.of(z1), Direction.of(tuple(2 * x for x in z1))),))
    with pytest.raises(TheoryViolationError):
        parallel.contains(Direction.of(z1))


def test_atomic_measure_keeps_its_own_atoms():
    """The measure copies the dict it is given: the caller's dict keeps its
    zero weights, and writing to it later leaves the measure unchanged."""
    e1, e2 = Direction.of((1, 0)), Direction.of((0, 1))
    given = {e1: Fraction(1), e2: Fraction(0)}
    m = AtomicMeasure(given)
    assert m.atoms == {e1: 1} and given == {e1: 1, e2: 0}
    given[e2] = Fraction(5)
    assert m.atoms == {e1: 1}
    assert m.plus(m.scaled(-1)).is_zero() and m.scaled(0).is_zero()


def test_ball_support_arcs_tetra(tetra):
    arcs = ball_support_arcs(tetra)
    assert len(arcs.arcs) == 6


def test_ball_support_requires_full_dim():
    flat = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(PreconditionError):
        ball_support_arcs(flat)


def test_ball_measure_numeric_on_arcs(sym_cube):
    m = ball_measure_numeric([sym_cube], 200)
    arcs = ball_support_arcs(sym_cube)
    total = m.total_mass_float()
    on = sum(mass for z, mass in significant_atoms(m) if arcs.contains(z))
    assert on / total >= 0.99
    # inscribed approximation: total below the smooth-ball value 6*pi
    assert total <= 6 * math.pi


def test_ball_measure_point_entry():
    assert ball_measure_numeric([singleton((0, 0, 0))], 50).is_zero()


def test_ball_measure_refines(sym_cube):
    # support coverage improves with resolution: max angular gap shrinks
    def max_gap(m):
        best = 0.0
        for axis in range(3):
            angs = sorted(
                math.atan2(z.z[(axis + 2) % 3], z.z[(axis + 1) % 3])
                for z, _ in m.atoms.items() if z.z[axis] == 0)
            if len(angs) < 2:
                return math.tau
            gaps = [b - a for a, b in zip(angs, angs[1:])]
            gaps.append(angs[0] + math.tau - angs[-1])
            best = max(best, max(gaps))
        return best

    coarse = ball_measure_numeric([sym_cube], 60)
    fine = ball_measure_numeric([sym_cube], 240)
    assert max_gap(fine) <= max_gap(coarse)


def test_ball_measure_numeric_4d():
    tess = convex_hull([(x, y, z, w) for x in (0, 1) for y in (0, 1)
                        for z in (0, 1) for w in (0, 1)])
    m = ball_measure_numeric([tess, tess], 30)
    assert not m.is_zero()
    probe = convex_hull([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                         (0, 0, 1, 0), (0, 0, 0, 1)])
    # the measure integrates support functions to exact mixed volumes
    from afel.area_measure import ball_polytope
    from afel.mixed_volume import mixed_volume
    b = ball_polytope(30, 4)
    lhs = Fraction(m.integrate_support(probe), 4)
    assert lhs == mixed_volume([b, tess, tess, probe])


def test_ball_polytope_is_built_once_per_size(monkeypatch):
    am = sys.modules["afel.area_measure"]
    hulls = []
    real = am.convex_hull
    monkeypatch.setattr(am, "convex_hull", lambda pts: hulls.append(1) or real(pts))
    ball_polytope.cache_clear()
    first = ball_polytope(40)
    assert hulls
    hulls.clear()
    assert ball_polytope(40) is first
    assert not hulls
    ball_polytope.cache_clear()
    assert ball_polytope(40) == first
    assert len(first.facets) >= 40


# ------------------------------------------ the Gauss-map overlay in R^3


def _sum_hull_measure(k, c):
    """S(K, C, .) from the hull of all vertex sums: faces by `support_set`,
    each weight the 2D mixed volume (inclusion-exclusion) of the two faces
    projected by dropping the first coordinate j with z_j != 0, over |z_j|."""
    total = convex_hull([vadd(v, w) for v in k.vertices for w in c.vertices])
    atoms = {}
    for f in total.facets:
        z = f.normal
        j = next(i for i, x in enumerate(z.z) if x)
        faces = [convex_hull([v[:j] + v[j + 1:] for v in support_set(b, z).vertices])
                 for b in (k, c)]
        w = Fraction(mixed_volume(faces), abs(z.z[j]))
        if w:
            atoms[z] = w
    return atoms


def _cone_coords(u, a, b):
    """(alpha, beta) with u = alpha*a + beta*b, for u in span(a, b), by
    Cramer's rule on two coordinates."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = a[i] * b[j] - a[j] * b[i]
        if det:
            return (Fraction(u[i] * b[j] - u[j] * b[i], det),
                    Fraction(a[i] * u[j] - a[j] * u[i], det))
    raise AssertionError("dependent arc ends")


def _edge_arcs(p):
    return [(p.facets[e.facet_ids[0]].normal.z, p.facets[e.facet_ids[1]].normal.z)
            for e in p.edges]


def _features(k, c):
    """What makes a pair hard for the overlay, found by brute force."""
    found = set()
    normals = {f.normal for f in k.facets}
    if normals & {f.normal for f in c.facets}:
        found.add("shared normal")
    dirs = [{Direction.of(vsub(p.vertices[j], p.vertices[i])) for i, j in
             (e.vertex_ids for e in p.edges)} for p in (k, c)]
    if dirs[0] & (dirs[1] | {-d for d in dirs[1]}):
        found.add("parallel edges")
    for a1, a2 in _edge_arcs(k):
        for b1, b2 in _edge_arcs(c):
            x = cross3(cross3(a1, a2), cross3(b1, b2))
            if not any(x):
                continue
            for u in (x, tuple(-t for t in x)):
                ca, cb = _cone_coords(u, a1, a2), _cone_coords(u, b1, b2)
                if min(ca + cb) < 0:
                    continue
                found.add("crossing at an arc end" if 0 in ca + cb else "interior crossing")
    coords = [x for p in (k, c) for v in p.vertices for x in v]
    if any(Fraction(x).denominator > 10 ** 6 for x in coords):
        found.add("large denominator")
    if any(abs(x) > 2 ** 64 for x in coords):
        found.add("beyond 2^64")
    return found


def _overlay_cases():
    """Seeded full-dimensional pairs in R^3, each as (family, K, C)."""
    rng = random.Random(1818)
    cube = convex_hull(itertools.product((-1, 1), repeat=3))
    cases = [("random", random_body(rng, 3, 7, full_dim=True),
              random_body(rng, 3, 7, full_dim=True)) for _ in range(12)]
    for d in (Fraction(1, 4), Fraction(1, 2), Fraction(5, 16)):
        cases += [("truncated cube", cube, truncated_cube(d)),
                  ("truncated cube", truncated_cube(d), cube)]
    for seed in range(4):
        z = gen_zonotope(3, 3, seed)
        b = random_body(rng, 3, full_dim=True)
        cases += [("zonotope sum", z, minkowski_sum(z, b)),
                  ("zonotope sum", minkowski_sum(z, b), b)]
    for _ in range(3):
        k = random_body(rng, 3, 7, full_dim=True)
        x = tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(3))
        cases += [("homothetic", k, k), ("homothetic", k, scale_translate(k, 2, x))]
    for _ in range(3):
        dens = [rng.randrange(10 ** 9, 10 ** 10) for _ in range(3)]
        pts = [tuple(Fraction(rng.randrange(-4 * q, 4 * q), q) for q in dens) for _ in range(7)]
        cases.append(("rational", convex_hull(pts), random_body(rng, 3, full_dim=True)))
    for _ in range(3):
        big = convex_hull([tuple(rng.randrange(-2 ** 70, 2 ** 70) for _ in range(3))
                           for _ in range(7)])
        far = scale_translate(random_body(rng, 3, full_dim=True), 2 ** 66 + 1, (2 ** 65, -3, 7))
        cases.append(("huge", big, far))
    cases.append(("ball", ball_polytope(50), cube))
    return cases


def test_overlay_matches_the_sum_hull():
    """The overlay's measure equals, exactly, the one read off the hull of
    all vertex sums; every family and every hard feature is reached."""
    families, features = {}, {}
    for family, k, c in _overlay_cases():
        assert k.dim == c.dim == 3
        m = mixed_area_measure([k, c])
        assert m.atoms == _sum_hull_measure(k, c), family
        assert mixed_area_measure([c, k]) == m
        families[family] = families.get(family, 0) + 1
        for feature in _features(k, c):
            features[feature] = features.get(feature, 0) + 1
    assert families == {"random": 12, "truncated cube": 6, "zonotope sum": 8,
                        "homothetic": 6, "rational": 3, "huge": 3, "ball": 1}
    # zonotope sums refine their summand's fan, so their arcs cross only at
    # arc ends; the ball(50) meets the cube's arcs at its facet normals
    assert features == {"shared normal": 21, "parallel edges": 27, "interior crossing": 18,
                        "crossing at an arc end": 27, "large denominator": 3,
                        "beyond 2^64": 3}


def test_overlay_integrates_to_mixed_volume():
    """int h_M dS(K, C, .) = 3 V(K, C, M) by inclusion-exclusion, for
    random probes M, flat or not."""
    rng = random.Random(1819)
    for family, k, c in _overlay_cases():
        if family == "ball":
            continue
        probe = random_body(rng, 3)
        assert mixed_area_measure([k, c]).integrate_support(probe) == 3 * mixed_volume([k, c, probe])


def test_overlay_hulls_no_sum(monkeypatch, sym_cube):
    """A full-dimensional pair in R^3 forms no Minkowski sum and hulls
    nothing: each weight is an integer edge sum on the faces' image rows."""
    rng = random.Random(1820)
    pairs = [(sym_cube, truncated_cube()), (ball_polytope(50), sym_cube)]
    pairs += [(random_body(rng, 3, 7, full_dim=True), random_body(rng, 3, 7, full_dim=True))
              for _ in range(4)]
    expected = [mixed_area_measure(p) for p in pairs]
    hulls, sums = [], []

    def hull_spy(points):
        points = list(points)
        hulls.append(len(points[0]))
        return convex_hull(points)

    def sum_spy(bodies):
        sums.append([b.n for b in bodies])
        return minkowski_sum_tagged(bodies)

    patch_in_afel(monkeypatch, {convex_hull: hull_spy, minkowski_sum_tagged: sum_spy})
    block_in_afel(monkeypatch, "the overlay", (minkowski_sum,))
    for p, m in zip(pairs, expected):
        assert mixed_area_measure(p) == m
    assert hulls == [] and sums == []


# ------------------------------------------ integer facet weights


def _facet_width_measure(p):
    """S(P, .) in R^2 as a dict in insertion order, from P's facets: an
    atom at each facet normal z, weighing the facet's width along the coordinate kept when dropping z's largest
    component j, over |z_j|; a segment v_0 v_1 has its atoms at the normal
    (-d_1, d_0) of d = v_1 - v_0 and then at its negative."""
    if p.dim == 2:
        items = [(f.normal, [p.vertices[i] for i in f.vertex_ids]) for f in p.facets]
    elif p.dim == 1:
        d = vsub(p.vertices[1], p.vertices[0])
        z = Direction.of((-d[1], d[0]))
        items = [(z, p.vertices), (-z, p.vertices)]
    else:
        items = []
    atoms = {}
    for z, verts in items:
        j = max(range(2), key=lambda k: abs(z.z[k]))
        coords = [v[1 - j] for v in verts]
        atoms[z] = Fraction(max(coords) - min(coords), abs(z.z[j]))
    return atoms


def _recursive_face_weight(faces, z):
    """w(z) by the recursion on rational vertex lists: hull the faces
    projected along z's largest component j, then (1/(n-1)) times the
    integral of the last one's support function against the others'
    measure, over |z_j|; in R^3 that measure is `_facet_width_measure`."""
    if any(len(f) == 1 for f in faces):
        return Fraction(0)
    n = z.n
    j = max(range(n), key=lambda k: abs(z.z[k]))
    proj = [convex_hull([v[:j] + v[j + 1:] for v in f]) for f in faces]
    measure = (AtomicMeasure(_facet_width_measure(proj[0])) if n == 3
               else mixed_area_measure(proj[:-1]))
    return Fraction(measure.integrate_support(proj[-1]), (n - 1) * abs(z.z[j]))


def _plane_face(rng, z, basis, kind, den, big):
    """The vertices of a point, segment or polygon in a hyperplane <x, z> = c:
    a rational base point plus combinations of the basis of z's orthogonal
    complement, with coefficients over den."""
    span = 2 ** 70 if big else 6
    base = tuple(Fraction(rng.randrange(-span, span + 1), rng.choice((1, den))) for _ in z.z)
    count = {"point": 1, "segment": 2, "polygon": rng.randrange(3, 8)}[kind]
    while True:
        pts = set()
        for _ in range(count):
            cs = [Fraction(rng.randrange(-5 * den, 5 * den + 1), den) for _ in basis]
            pts.add(tuple(b + sum(c * u[i] for c, u in zip(cs, basis)) for i, b in enumerate(base)))
        face = convex_hull(pts)
        if {"point": 0, "segment": 1}.get(kind, 2) <= face.dim:
            return face


def _complement_basis(rng, z, k):
    """k integer vectors orthogonal to z: a*|z|^2 - <a, z>*z for random a."""
    out = []
    while len(out) < k:
        a = tuple(rng.randrange(-3, 4) for _ in z.z)
        u = tuple(x * z.norm_sq() - dot(a, z.z) * y for x, y in zip(a, z.z))
        if any(u) and len(out) + 1 == matrank(out + [u]):
            out.append(u)
    return out


def _weight_cases():
    """Seeded pairs of R^3 faces in parallel planes, each as (features, z, F_1, F_2)."""
    rng = random.Random(2901)
    kinds = ["point", "segment", "polygon"]
    cases = []
    for _ in range(720):
        z = _random_direction(rng, 3)
        basis = _complement_basis(rng, z, 2)
        k1, k2 = rng.choice(kinds), rng.choice(kinds)
        dens = [rng.choice((1, 1, 3, 10 ** 9 + 7)) for _ in range(2)]
        big = rng.random() < 0.1
        f1, f2 = (_plane_face(rng, z, basis, k, d, big) for k, d in zip((k1, k2), dens))
        features = {f"{k1} x {k2}", f"drop {max(range(3), key=lambda k: abs(z.z[k]))}"}
        if k1 == k2 == "segment" and rng.random() < 0.4:
            # a parallel copy of the first segment, moved and rescaled
            d = vsub(f1.vertices[1], f1.vertices[0])
            t = Fraction(rng.randrange(1, 9), rng.randrange(1, 4))
            f2 = segment(f2.vertices[0], vadd(f2.vertices[0], tuple(t * x for x in d)))
            features.add("parallel segments")
        if f1.image[1] != f2.image[1]:
            features.add("different denominators")
        if any(abs(x) > 2 ** 64 for f in (f1, f2) for v in f.image[0] for x in v):
            features.add("beyond 2^64")
        cases.append((features, z, f1, f2))
    return cases


def _random_direction(rng, n):
    while True:
        z = tuple(rng.randrange(-4, 5) for _ in range(n))
        if any(z):
            return Direction.of(z)


def test_face_weight_matches_the_recursion():
    """The integer edge sum equals, by repr, the recursion
    (projected hulls, the planar measure, `integrate_support`), on a seeded
    corpus of face pairs in R^3 with exact feature counts, and on triples
    of faces in R^4 out to the recursion's integer R^3 weights."""
    features = collections.Counter()
    for tags, z, f1, f2 in _weight_cases():
        got = _face_weight([f1.image, f2.image], z)
        assert repr(got) == repr(_recursive_face_weight([f1.vertices, f2.vertices], z)), tags
        features.update(tags)
        features["zero weight"] += got == 0
    # a point face or parallel segments give 0
    assert features == {
        "point x point": 75, "point x segment": 73, "point x polygon": 76,
        "segment x point": 76, "segment x segment": 92, "segment x polygon": 86,
        "polygon x point": 79, "polygon x segment": 74, "polygon x polygon": 89,
        "parallel segments": 38, "drop 0": 317, "drop 1": 229, "drop 2": 174,
        "different denominators": 446, "beyond 2^64": 81, "zero weight": 418}
    rng = random.Random(2902)
    dims = collections.Counter()
    for _ in range(60):
        z = _random_direction(rng, 4)
        basis = _complement_basis(rng, z, 3)
        faces = [_plane_face(rng, z, basis, rng.choice(["point"] + ["segment"] * 3 + ["polygon"] * 6),
                             rng.choice((1, 2, 5)), False) for _ in range(3)]
        got = _face_weight([f.image for f in faces], z)
        assert repr(got) == repr(_recursive_face_weight([f.vertices for f in faces], z))
        dims.update({f"a {f.dim}-face" for f in faces})
        dims["zero weight"] += got == 0
    # triples with a face of each dimension; exactly those with a point weigh 0
    assert dims == {"a 0-face": 19, "a 1-face": 40, "a 2-face": 19, "a 3-face": 46,
                    "zero weight": 19}


def test_planar_measure_matches_the_facet_widths():
    """In R^2, `mixed_area_measure` gives the atoms of
    `_facet_width_measure`, insertion order included, on seeded polygons,
    segments and points with exact counts."""
    rng = random.Random(2903)
    kinds = collections.Counter()
    for _ in range(300):
        den = rng.choice((1, 1, 4, 10 ** 9 + 7))
        span = 2 ** 70 if rng.random() < 0.1 else 9
        count = rng.choice((1, 2, 2, 3, 4, 6, 9))
        p = convex_hull([tuple(Fraction(rng.randrange(-span, span + 1), den) for _ in range(2))
                         for _ in range(count)])
        got = list(mixed_area_measure([p]).atoms.items())
        assert repr(got) == repr(list(_facet_width_measure(p).items()))
        kinds[("point", "segment", "polygon")[p.dim]] += 1
        kinds["beyond 2^64"] += any(abs(x) > 2 ** 64 for v in p.image[0] for x in v)
    assert kinds == {"point": 42, "segment": 81, "polygon": 177, "beyond 2^64": 39}


# ------------------------------------------ the overlay's straddle filter


def _sign(x):
    return (x > 0) - (x < 0)


def _rows(b, ids):
    return [b.image[0][v] for v in ids], b.image[1]


def _overlay_all_pairs(k, c, pairs):
    """S(K, C, .) with the exact crossing test on every pair of edge arcs,
    as the overlay ran before its straddle filter.  Tallies each pair in
    pairs by the signs of its K-arc's ends against the C-arc's plane."""
    bodies = (k, c)
    atoms = {}
    for i, b in enumerate(bodies):
        for f in b.facets:
            z = f.normal
            if z in atoms:
                continue
            other = face_ids(bodies[1 - i], z)
            if len(other) == 1:
                continue
            faces = [_rows(b, f.vertex_ids), _rows(bodies[1 - i], other)]
            atoms[z] = _face_weight(faces if i == 0 else faces[::-1], z)
    arcs_k, arcs_c = ([(_arc(*(b.facets[x].normal.z for x in e.facet_ids)), e) for e in b.edges]
                      for b in bodies)
    for arc_e, e in arcs_k:
        for arc_f, f in arcs_c:
            s1, s2 = (_sign(dot(arc_f[0], k.facets[x].normal.z)) for x in e.facet_ids)
            pairs[{-1: "straddling", 1: "one side"}.get(s1 * s2) if s1 * s2
                  else "both ends on the circle" if s1 == s2 == 0 else "one end on the circle"] += 1
            x = cross3(arc_e[0], arc_f[0])
            if not any(x):
                continue
            if not _in_arc(x, arc_e, strict=True):
                x = (-x[0], -x[1], -x[2])
                if not _in_arc(x, arc_e, strict=True):
                    continue
            if _in_arc(x, arc_f, strict=True):
                z = Direction(primitive(x))
                pairs["crossing"] += 1
                atoms[z] = _face_weight([_rows(k, e.vertex_ids), _rows(c, f.vertex_ids)], z)
    return AtomicMeasure(atoms)


def _vertex_body(rng, count):
    """A random integer 3-polytope with exactly count vertices."""
    while True:
        p = convex_hull([tuple(rng.randrange(-6, 7) for _ in range(3)) for _ in range(3 * count)])
        if len(p.vertices) == count:
            return p


def test_straddle_filter_keeps_every_crossing(monkeypatch):
    """The overlay's atoms equal, insertion order included, those of the
    loop over every arc pair, and the overlay makes one crossing test
    (one `cross3` beyond its arcs' own) for each straddling pair only."""
    cube = convex_hull(itertools.product((-1, 1), repeat=3))
    body14 = _vertex_body(random.Random(2904), 14)
    ball = ball_polytope(200)
    cases = [(k, c) for _, k, c in _overlay_cases()]
    cases += [(ball, cube), (cube, ball), (ball, body14), (body14, ball),
              (cube, truncated_cube()),  # truncated cube normals on the cube's circles
              (cube, scale_translate(cube, 3, (1, 0, 2)))]  # arcs on shared circles
    am = sys.modules["afel.area_measure"]
    real, calls = am.cross3, []
    monkeypatch.setattr(am, "cross3", lambda a, b: calls.append(1) or real(a, b))
    pairs, tallies = collections.Counter(), []
    for k, c in cases:
        seen = collections.Counter()
        expected = list(_overlay_all_pairs(k, c, seen).atoms.items())
        calls.clear()
        assert list(_gauss_overlay(k, c).atoms.items()) == expected
        assert len(calls) == 3 * (len(k.edges) + len(c.edges)) + seen["straddling"]
        pairs += seen
        tallies.append(seen)
    assert len(body14.vertices) == 14 and len(ball.edges) == 484
    end_on_circle, one_circle = tallies[-2:]
    assert end_on_circle["one end on the circle"] == 288 and one_circle["both ends on the circle"] == 48
    # 8196 of the 57312 pairs are tested, and 325 of those cross
    assert pairs == {"straddling": 8196, "one side": 40901, "one end on the circle": 6336,
                     "both ends on the circle": 1879, "crossing": 325}
