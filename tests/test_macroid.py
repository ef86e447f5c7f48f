import collections
import itertools
import random
import sys
from fractions import Fraction

import pytest

from afel.errors import TheoryViolationError
from afel.generators import gen_admissible_sequence, gen_mixed_body, gen_zonotope
from afel.geometry import (
    Direction,
    _edge_directions,
    convex_hull,
    is_summand,
    minkowski_sum,
    minkowski_sum_many,
    scale_translate,
    segment,
    singleton,
    translate,
)
from afel.linalg import cross3, dot, integerize, primitive, vscale
from afel.macroid import (
    _coplanar_triple,
    admissibility_check,
    ktope_vertex_growth,
    load_admissible_fixture,
    partial_sum_census,
    segment_summand_max,
    zonotope_kernel,
)

from conftest import random_body


def test_segment_summand_max_examples(unit_cube, tetra):
    assert segment_summand_max(unit_cube, Direction.of((1, 0, 0))) == 1
    assert segment_summand_max(tetra, Direction.of((1, 0, 0))) == 0
    assert segment_summand_max(tetra, Direction.of((1, -1, 0))) == 0
    p = minkowski_sum(tetra, segment((0, 0, 0), (2, 0, 0)))
    assert segment_summand_max(p, Direction.of((1, 0, 0))) == 2


def test_segment_summand_added_direction(tetra):
    d = (5, 3, 1)  # not an edge direction of the tetrahedron
    p = minkowski_sum(tetra, segment((0, 0, 0), d))
    assert segment_summand_max(p, Direction.of(d)) == 1
    assert segment_summand_max(p, Direction.of((1, 1, 1))) == 0


def test_segment_summand_monotone_pattern_exhaustive(unit_cube):
    # pass prefix, fail suffix over the full candidate set of a small body
    p = minkowski_sum(unit_cube, segment((0, 0, 0), (1, 0, 0)))
    d = Direction.of((1, 0, 0))
    candidates = sorted({Fraction(0)} | {
        abs(Fraction(v[0] - w[0]))
        for v in p.vertices for w in p.vertices})
    pattern = [is_summand(segment((0, 0, 0), (t, 0, 0)), p) for t in candidates]
    assert pattern == sorted(pattern, reverse=True)
    best = max(t for t, ok in zip(candidates, pattern) if ok)
    assert best == segment_summand_max(p, d) == 2


def test_segment_summand_max_against_is_summand():
    # oracle: lam*d is a summand and the next vertex-difference length
    # above lam is not; bodies include flat ones and rational vertices
    rng = random.Random(2024)
    bodies = [minkowski_sum_many(load_admissible_fixture()[:2]),
              singleton((1, -2, 3))]
    for s in range(4):
        bodies.append(minkowski_sum(gen_zonotope(3, 3, s), random_body(rng, 3)))
        bodies.append(gen_zonotope(3, 2, s))
    bodies += [gen_mixed_body(s) for s in range(6)]
    assert {p.dim for p in bodies} == {0, 1, 2, 3}
    for p in bodies:
        edges = _edge_directions(p)
        dirs = list(edges)
        while len(dirs) < len(edges) + 2:
            z = tuple(rng.randrange(-3, 4) for _ in range(3))
            if any(z) and Direction.of(z) not in dirs:
                dirs.append(Direction.of(z))
        for d in dirs:
            lam = segment_summand_max(p, d)
            assert is_summand(segment((0, 0, 0), vscale(lam, d.z)), p)
            dd = sum(c * c for c in d.z)
            above = [t for v in p.vertices for w in p.vertices
                     if (t := abs(Fraction(sum((a - b) * c for a, b, c in
                                               zip(v, w, d.z)), dd))) > lam]
            if above:
                assert not is_summand(
                    segment((0, 0, 0), vscale(min(above), d.z)), p)



def test_segment_summand_max_scales_with_rational_similarity():
    """lam(k*P + x, d) = k*lam(P, d) for rational k > 0 and x, on
    full-dimensional and flat bodies with fractional coordinates, so the
    integer chords divide by the common denominator exactly once."""
    rng = random.Random(4711)
    third = Fraction(1, 3)
    full = [scale_translate(minkowski_sum(gen_zonotope(3, 3, s), random_body(rng, 3)),
                            Fraction(2, 7), (third, 0, Fraction(-5, 4))) for s in range(2)]
    # a centrally symmetric hexagon in the plane spanned by u and v, and a segment
    u, v = (Fraction(3, 2), third, 0), (Fraction(1, 2), 2, 1)
    hexagon = [tuple(a * ui + b * vi for ui, vi in zip(u, v))
               for a, b in ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1))]
    flat = [convex_hull(hexagon), segment((Fraction(1, 2), 0, third), (Fraction(-3, 4), 1, 2))]
    assert [p.dim for p in full + flat] == [3, 3, 2, 1]
    positive = set()
    for p in full + flat:
        dirs = _edge_directions(p) + [Direction.of((1, 2, -1))]
        for k, x in ((Fraction(5, 3), (Fraction(-1, 2), 4, third)), (7, (0, Fraction(2, 9), 1))):
            moved = scale_translate(p, k, x)
            for d in dirs:
                lam = segment_summand_max(p, d)
                assert segment_summand_max(moved, d) == k * lam
                if lam:
                    positive.add(p.dim)
    assert positive == {1, 2, 3}


def test_zonotope_kernel_examples(unit_cube, tetra):
    zk = zonotope_kernel(unit_cube)
    assert zk == convex_hull([(Fraction(x, 2), Fraction(y, 2), Fraction(z, 2))
                              for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    assert zonotope_kernel(tetra) == singleton((0, 0, 0))
    p = minkowski_sum(tetra, segment((0, 0, 0), (1, 0, 0)))
    assert zonotope_kernel(p) == segment((Fraction(-1, 2), 0, 0),
                                         (Fraction(1, 2), 0, 0))
    p = minkowski_sum(tetra, segment((0, 0, 0), (5, 3, 1)))
    zk = zonotope_kernel(p)
    assert zk == segment((Fraction(-5, 2), Fraction(-3, 2), Fraction(-1, 2)),
                         (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)))


def test_kernel_idempotent_on_zonotopes():
    for seed in range(4):
        for segs in (2, 3, 5):
            z = gen_zonotope(3, segs, seed)
            moved = translate(z, (3, -1, 2))
            zk = zonotope_kernel(moved)
            # recovered kernel is the centered copy of the zonotope
            c = [Fraction(a + b, 2) for a, b in zip(
                min(moved.vertices), max(moved.vertices))]
            recentered = translate(moved, [-x for x in c])
            assert zk == recentered


def test_kernel_maximality_downscaling():
    rng = random.Random(64)
    for seed in range(6):
        z = gen_zonotope(3, 3, seed)
        simplex = random_body(rng, 3, max_points=4)
        p = minkowski_sum(z, simplex)
        zk = zonotope_kernel(p)
        for lam in (Fraction(1, 3), Fraction(1, 2), 1):
            assert is_summand(scale_translate(zk, lam, (0, 0, 0)), p)


def _zonotope_plus_body_sums():
    # Z + B with Z of 3 generators and B of at most 4 vertices
    rng = random.Random(64)
    return [minkowski_sum(gen_zonotope(3, 3, seed), random_body(rng, 3, max_points=4))
            for seed in range(3)]


def test_zonotope_kernel_makes_one_summand_check(monkeypatch, unit_cube, tetra):
    checks = []

    def spy(q, p):
        checks.append(len(q.vertices))
        return is_summand(q, p)

    monkeypatch.setattr("afel.macroid.is_summand", spy)
    dims = []
    for p in [unit_cube, tetra] + _zonotope_plus_body_sums():
        checks.clear()
        zk = zonotope_kernel(p)
        assert checks == ([] if zk.dim == 0 else [len(zk.vertices)])
        dims.append(zk.dim)
    assert dims == [3, 0, 3, 3, 3]


def test_one_integer_image_per_body(monkeypatch):
    """zonotope_kernel on Z + B integerizes each body's vertex list once:
    P's once in all, not once per edge direction, and no point list twice."""
    p = _zonotope_plus_body_sums()[0]
    lists = []

    def spy(points):
        lists.append(points)  # kept alive, so ids stay distinct
        return integerize(points)

    for name, mod in list(sys.modules.items()):
        if (name == "afel" or name.startswith("afel.")) and vars(mod).get("integerize") is integerize:
            monkeypatch.setattr(mod, "integerize", spy)
    zk = zonotope_kernel(p)
    assert zk.dim == 3 and len(_edge_directions(p)) > 1
    assert sum(points is p.vertices for points in lists) == 1
    assert max(collections.Counter(map(id, lists)).values()) == 1


def test_zonotope_kernel_refuses_an_oversized_segment(monkeypatch, unit_cube):
    # doubling one segment makes it longer than the shortest chord of P in
    # its direction; the one check on the assembled zonotope must catch it
    for p in [unit_cube] + _zonotope_plus_body_sums():
        doubled = []

        def mutant(q, d):
            lam = segment_summand_max(q, d)
            if lam and not doubled:
                doubled.append(d)
                return 2 * lam
            return lam

        monkeypatch.setattr("afel.macroid.segment_summand_max", mutant)
        with pytest.raises(TheoryViolationError):
            zonotope_kernel(p)
        assert doubled


def test_admissibility_cross_support(tetra):
    # q has no edge direction in common with the tetrahedron, but its edge
    # from (0, 0, 0) to (1, -2, 1) is F(q, z) for the facet normal z = (1, 1, 1)
    big = scale_translate(tetra, 4, (0, 0, 0))
    q = convex_hull([(0, 0, 0), (1, -2, 1), (-1, -1, -2), (-2, 1, -1)])
    rep = admissibility_check([big, q])
    assert (rep.all_facets_triangles, rep.all_full_dimensional, rep.edge_directions_distinct,
            rep.cross_support_trivial, rep.triples_span) == (True, True, True, False, True)
    assert rep.witness == ("cross-support", (0, 1, (1, 1, 1)))
    # and the tetrahedron's edge from (4, 0, 0) to (0, 4, 0) is F for q's
    # facet normal (1, 1, -1)
    assert admissibility_check([q, big]).witness == ("cross-support", (0, 1, (1, 1, -1)))
    # a segment in the plane of the facet is a non-trivial support set too;
    # one off it is not
    for seg, trivial in ((segment((0, 0, 0), (1, -1, 0)), False),
                         (segment((0, 0, 0), (1, 2, 3)), True)):
        assert admissibility_check([big, seg]).cross_support_trivial is trivial


def test_admissibility_negative_controls(unit_cube, tetra):
    rep = admissibility_check([tetra, translate(tetra, (4, 0, 0))])
    assert not rep.passes and rep.witness is not None
    rep = admissibility_check([unit_cube])
    assert not rep.passes  # square facets
    rep = admissibility_check([tetra])
    assert rep.passes


def test_admissible_fixture_passes():
    seq = load_admissible_fixture()
    assert [len(p.vertices) for p in seq] == [4, 5, 6, 7]
    rep = admissibility_check(seq)
    assert rep.passes
    assert rep.diam_sum_enclosure[0] <= rep.diam_sum_enclosure[1]


def test_generated_sequences_pass():
    for seed in (1, 2):
        seq = gen_admissible_sequence(3, seed)
        assert admissibility_check(seq).passes


def test_census_on_fixture():
    seq = load_admissible_fixture()
    for upto in (1, 2, 3):
        cen = partial_sum_census(seq, upto)
        assert cen.other == 0
        assert cen.admissible_prefix
        # triangles trace back to single bodies, parallelograms to pairs
        for prov in cen.provenance:
            if prov.kind == "triangle":
                assert len(prov.sources) == 1
            else:
                assert len(prov.sources) == 2
        expected_triangles = sum(2 * len(p.vertices) - 4 for p in seq[:upto])
        assert cen.triangles == expected_triangles


def test_census_negative_control(tetra):
    bad = [tetra, translate(tetra, (5, 1, 2))]
    cen = partial_sum_census(bad, 2)
    assert not cen.admissible_prefix
    assert cen.other > 0  # facets made of two triangle sources


def test_census_single_body(tetra):
    cen = partial_sum_census([tetra], 1)
    assert cen.triangles == 4 and cen.parallelograms == 0 and cen.other == 0
    assert all(p.sources == (0,) for p in cen.provenance)


def test_kernel_trivial_on_partial_sums():
    seq = load_admissible_fixture()
    k2 = minkowski_sum_many(seq[:2])
    assert zonotope_kernel(k2) == singleton((0, 0, 0))


def test_growth_report():
    seq = load_admissible_fixture()
    rep = ktope_vertex_growth(seq, 4)
    assert [r.vertex_count for r in rep.rows] == [4, 5, 6, 7]
    assert all(r.scaled_summand_ok for r in rep.rows)
    assert rep.max_required_k == 7
    assert rep.admissible_prefix
    # negative control: a box in place of the sequence gives a bounded report
    box = convex_hull([(x, y, z) for x in (0, 2) for y in (0, 1) for z in (0, 1)])
    rep = ktope_vertex_growth([box], 1)
    assert not rep.admissible_prefix
    assert rep.max_required_k == 8


def _product_triple_scan(dirs_per_body):
    """The spanning-triples scan with one cross product per direction triple,
    in `itertools.product` order."""
    for a, b, c in itertools.combinations(range(len(dirs_per_body)), 3):
        for da, db, dc in itertools.product(dirs_per_body[a], dirs_per_body[b],
                                            dirs_per_body[c]):
            if dot(cross3(da.z, db.z), dc.z) == 0:
                return (a, b, c, da.z, db.z, dc.z)
    return None


def test_coplanar_triple_matches_the_product_scan():
    """`_coplanar_triple` finds the same first witness as the product scan,
    on random direction lists and on the edge directions of sequences whose
    `admissibility_check` reports it."""
    rng = random.Random(2704)
    found = collections.Counter()
    for _ in range(300):
        dirs = [[Direction(primitive(v)) for v in
                 sorted({tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(rng.randint(1, 4))}
                  - {(0, 0, 0)})]
                for _ in range(rng.randint(3, 5))]
        hit = _coplanar_triple(dirs)
        assert hit == _product_triple_scan(dirs)
        found["none" if hit is None else "first bodies" if hit[:3] == (0, 1, 2) else "later"] += 1
    assert found == {"none": 47, "first bodies": 194, "later": 59}
    # the fixture, a generated sequence and random tetrahedra
    seqs = [load_admissible_fixture(), gen_admissible_sequence(3, 1)]
    tetrahedra = []
    while len(tetrahedra) < 3 * 38:
        p = convex_hull([tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(4)])
        if p.dim == 3:
            tetrahedra.append(p)
    seqs += [tetrahedra[i:i + 3] for i in range(0, len(tetrahedra), 3)]
    witnesses = collections.Counter()
    for seq in seqs:
        dirs = [_edge_directions(p) for p in seq]
        hit = _product_triple_scan(dirs)
        rep = admissibility_check(seq)
        assert _coplanar_triple(dirs) == hit and rep.triples_span == (hit is None)
        kind = rep.witness[0] if rep.witness else None
        if kind == "triple":
            assert rep.witness == ("triple", hit)
        witnesses[kind] += 1
    assert witnesses == {None: 6, "cross-support": 13, "edge-direction": 9, "triple": 12}
