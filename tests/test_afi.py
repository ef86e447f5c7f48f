import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from afel.afi import (
    _arc_constraints,
    _homothety_constraint,
    _linearity_constraint,
    afi_check,
    degenerate_branch,
    equality_by_measure,
    equality_by_support,
    gafi_check,
    is_homothetic,
    linearity_equivalence,
    linearity_on_arcs,
)
from afel.area_measure import ball_support_arcs, mixed_area_diff
from afel.errors import PreconditionError, TheoryViolationError
from afel.generators import gen_body, gen_mixed_body
from afel.geometry import (
    Direction,
    SupportDiff,
    convex_hull,
    hausdorff_distance_sq,
    minkowski_sum,
    scale_translate,
    segment,
    singleton,
    support_value,
)
from afel.linalg import dot, solve_linear, vadd, vscale
from afel.mixed_volume import mixed_volume, mixed_volume_diff, mixed_volume_interpolated, volume

from conftest import block_in_afel, patch_in_afel, random_body, truncated_cube

# the package re-exports the function mixed_volume under the module's name
mv_module = sys.modules["afel.mixed_volume"]


def test_equal_bodies_give_equality(sym_cube):
    rep = afi_check(sym_cube, sym_cube, [sym_cube])
    assert rep.discriminant == 0 and rep.equality and rep.branch == "positive"


def test_homothets_give_equality(sym_cube):
    rng = random.Random(1)
    for a in (Fraction(1, 3), 1, Fraction(7, 2)):
        x = tuple(Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(3))
        l = scale_translate(sym_cube, a, x)
        rep = afi_check(sym_cube, l, [sym_cube])
        assert rep.discriminant == 0
        # documented normalization: witness maps L back onto K
        am = equality_by_measure(sym_cube, l, [sym_cube])
        assert am == 1 / a
        ws = equality_by_support(sym_cube, l, sym_cube)
        assert ws == (1 / a, tuple(-c / a for c in x))


def test_truncated_cube_equality(sym_cube):
    l = truncated_cube()
    rep = afi_check(sym_cube, l, [sym_cube])
    assert rep.v_kl > 0
    assert rep.discriminant == 0 and rep.equality
    assert hausdorff_distance_sq(sym_cube, l) > 0
    assert equality_by_measure(sym_cube, l, [sym_cube]) == 1
    assert equality_by_support(sym_cube, l, sym_cube) == (1, (0, 0, 0))
    assert not is_homothetic(sym_cube, l)[0]


def test_unequal_bodies(sym_cube):
    octa = convex_hull([(2, 0, 0), (-2, 0, 0), (0, 2, 0),
                        (0, -2, 0), (0, 0, 2), (0, 0, -2)])
    rep = afi_check(sym_cube, octa, [sym_cube])
    assert rep.discriminant > 0 and not rep.equality
    assert equality_by_measure(sym_cube, octa, [sym_cube]) is None
    assert equality_by_support(sym_cube, octa, sym_cube) is None


def test_afi_nonnegative_random():
    rng = random.Random(99)
    for _ in range(20):
        k = random_body(rng, 3)
        l = random_body(rng, 3)
        c = random_body(rng, 3, full_dim=True)
        rep = afi_check(k, l, [c])
        assert rep.discriminant >= 0


def test_routes_agree_random():
    rng = random.Random(123)
    for _ in range(12):
        k = random_body(rng, 3, full_dim=True)
        l = random_body(rng, 3, full_dim=True)
        c = random_body(rng, 3, full_dim=True)
        a = equality_by_measure(k, l, [c])
        w = equality_by_support(k, l, c)
        assert (a is None) == (w is None)
        if w is not None:
            assert w[0] == a


def test_gafi_examples(sym_cube):
    octa = convex_hull([(2, 0, 0), (-2, 0, 0), (0, 2, 0),
                        (0, -2, 0), (0, 0, 2), (0, 0, -2)])
    assert gafi_check(sym_cube, sym_cube, octa, [sym_cube]) == 0
    # K2 = {0} reduces to the plain discriminant
    rep = afi_check(sym_cube, octa, [sym_cube])
    gap = gafi_check(sym_cube, singleton((0, 0, 0)), octa, [sym_cube])
    assert gap == rep.discriminant
    big = scale_translate(sym_cube, 3, (1, 1, 0))
    assert gafi_check(big, sym_cube, sym_cube, [sym_cube]) >= 0


def test_gafi_nonnegative_random():
    rng = random.Random(321)
    for _ in range(10):
        k1, k2, l = (random_body(rng, 3) for _ in range(3))
        c = random_body(rng, 3, full_dim=True)
        assert gafi_check(k1, k2, l, [c]) >= 0


def test_gafi_check_hulls_each_distinct_sum_once(monkeypatch):
    # its 7 expanded tuples over {K1, K2, L, C} share one table: the pair
    # sums K1+K2, K1+L, K1+C, K2+L, K2+C, L+C and the triple sums K1+L+C,
    # K2+L+C, 2K1+C, K1+K2+C, 2K2+C, 2L+C; 2K1, 2K2 and 2L are scaled
    rng = random.Random(321)
    quads = [tuple(random_body(rng, 3) for _ in range(3)) + (random_body(rng, 3, full_dim=True),)
             for _ in range(5)]
    expected = []
    for k1, k2, l, c in quads:
        f = SupportDiff(k1, k2)
        expected.append(mixed_volume_diff([f, l, c]) ** 2
                        - mixed_volume_diff([f, f, c]) * mixed_volume([l, l, c]))
    sums = []

    def spy(p, q):
        sums.append((p, q))
        return minkowski_sum(p, q)

    patch_in_afel(monkeypatch, {minkowski_sum: spy})
    for (k1, k2, l, c), gap in zip(quads, expected):
        sums.clear()
        assert gafi_check(k1, k2, l, [c]) == gap
        assert len(sums) == 12
        assert all(q in (k1, k2, l, c) for _, q in sums)


def test_witness_validity_on_arc_sample(sym_cube):
    l = truncated_cube()
    a, x = equality_by_support(sym_cube, l, sym_cube)
    assert a > 0
    arcs = ball_support_arcs(sym_cube)
    rng = random.Random(7)
    count = 0
    while count < 100:
        z1, z2 = arcs.arcs[rng.randrange(len(arcs.arcs))]
        s, t = rng.randrange(0, 10), rng.randrange(0, 10)
        if s == t == 0:
            continue
        u = Direction.of(vadd(vscale(s, z1.z), vscale(t, z2.z)))
        lhs = support_value(sym_cube, u)
        rhs = a * support_value(l, u) + Fraction(dot(x, u.z))
        assert lhs == rhs
        count += 1


def test_linearity_equivalence_examples(sym_cube):
    x0 = (3, -2, Fraction(1, 2))
    f = SupportDiff(singleton(x0), singleton((0, 0, 0)))
    rep = linearity_equivalence(f, sym_cube)
    assert rep.measure_vanishes and rep.linear_on_support and rep.agree
    assert rep.witness_x == x0
    moved = scale_translate(sym_cube, 1, (1, 2, 3))
    rep = linearity_equivalence(SupportDiff(sym_cube, moved), sym_cube)
    assert rep.measure_vanishes and rep.agree
    rep = linearity_equivalence(SupportDiff(sym_cube, truncated_cube()), sym_cube)
    assert rep.measure_vanishes and rep.linear_on_support and rep.agree


def test_linearity_equivalence_random():
    rng = random.Random(31415)
    for _ in range(10):
        p = random_body(rng, 3)
        q = random_body(rng, 3)
        c = random_body(rng, 3, full_dim=True)
        assert linearity_equivalence(SupportDiff(p, q), c).agree


def test_extremal_decomposition_property(sym_cube):
    # f with vanishing measure against the body of a two-atom generating
    # measure vanishes against every element of its positive hull
    from afel.polyoid import BodyMeasure, body_of_measure, mpos_sample

    f = SupportDiff(sym_cube, truncated_cube())
    q1 = convex_hull([(x, y, z) for x in (-2, 2) for y in (-2, 2) for z in (0, 2)])
    q2 = segment((0, 0, -2), (0, 0, 0))
    mu = BodyMeasure.of([(Fraction(1, 2), q1), (Fraction(1, 2), q2)])
    assert body_of_measure(mu) == sym_cube
    assert mixed_area_diff([f, sym_cube]).is_zero()
    for coeffs in ((0, 0), (1, 0), (0, 1), (1, 1), (Fraction(2, 3), Fraction(5, 7))):
        q = mpos_sample(mu, coeffs)
        assert mixed_area_diff([f, q]).is_zero()


def test_degenerate_branch():
    s1 = segment((0, 0, 0), (1, 0, 0))
    s2 = segment((5, 1, 0), (7, 1, 0))
    sq = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    assert mixed_volume([s1, s2, sq]) == 0
    rep = degenerate_branch(s1, s2, [sq])
    assert rep.discriminant == 0 and rep.homothetic
    p1, p2 = singleton((1, 2, 3)), singleton((4, 5, 6))
    rep = degenerate_branch(p1, p2, [sq])
    assert rep.homothetic
    cube = convex_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    with pytest.raises(PreconditionError):
        degenerate_branch(cube, cube, [cube])


def test_degenerate_branch_refuses_before_any_witness(monkeypatch, sym_cube):
    # a positive equality triple: afi_check solves for the support witness,
    # degenerate_branch refuses from the three values alone
    witnesses = []

    def spy(*args):
        witnesses.append(args)
        return equality_by_support(*args)

    patch_in_afel(monkeypatch, {equality_by_support: spy})
    with pytest.raises(PreconditionError, match="degenerate branch requires V\\(K,L,C\\) = 0"):
        degenerate_branch(sym_cube, sym_cube, [sym_cube])
    assert not witnesses
    assert afi_check(sym_cube, sym_cube, [sym_cube]).witness is not None
    assert len(witnesses) == 1
    # a negative discriminant is reported before the branch is checked
    monkeypatch.setattr(sys.modules["afel.afi"], "_inclusion_exclusion",
                        lambda tuples: [Fraction(1), Fraction(2), Fraction(3)])
    for entry in (afi_check, degenerate_branch):
        with pytest.raises(TheoryViolationError, match="negative Alexandrov-Fenchel"):
            entry(sym_cube, sym_cube, [sym_cube])


def _random_box(rng):
    dims = [rng.randrange(1, 4) for _ in range(3)]
    return convex_hull([(x, y, z) for x in (0, dims[0]) for y in (0, dims[1])
                        for z in (0, dims[2])])


def _truncate_box(rng, box):
    pts = []
    xs = sorted({v[0] for v in box.vertices})
    ys = sorted({v[1] for v in box.vertices})
    zs = sorted({v[2] for v in box.vertices})
    step = min(xs[1] - xs[0], ys[1] - ys[0], zs[1] - zs[0])
    for cx in (xs[0], xs[1]):
        for cy in (ys[0], ys[1]):
            for cz in (zs[0], zs[1]):
                dx = Fraction(rng.randrange(1, 4), 16) * step
                dy = Fraction(rng.randrange(1, 4), 16) * step
                dz = Fraction(rng.randrange(1, 4), 16) * step
                sx = 1 if cx == xs[0] else -1
                sy = 1 if cy == ys[0] else -1
                sz = 1 if cz == zs[0] else -1
                pts += [(cx + sx * dx, cy, cz), (cx, cy + sy * dy, cz),
                        (cx, cy, cz + sz * dz)]
    return convex_hull(pts)


def test_routes_agree_on_nontrivial_equality_family():
    # scaled, translated corner-truncations of boxes against box tuples:
    # genuine equality cases that are not homothetic to K
    rng = random.Random(2718)
    for trial in range(8):
        k = _random_box(rng)
        a = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
        x = tuple(Fraction(rng.randrange(-4, 5), 2) for _ in range(3))
        l = scale_translate(_truncate_box(rng, k), a, x)
        c = _random_box(rng)
        rep = afi_check(k, l, [c])
        assert rep.discriminant == 0
        am = equality_by_measure(k, l, [c])
        ws = equality_by_support(k, l, c)
        assert am == ws[0] == 1 / a


def test_flat_bodies_equality_both_routes():
    # planar bodies still have positive squared terms against a cube tuple
    cube = convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1)
                        for z in (-1, 1)])
    sq = convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)])
    l = scale_translate(sq, Fraction(3, 2), (1, -1, 0))
    rep = afi_check(sq, l, [cube])
    assert rep.discriminant == 0
    assert equality_by_measure(sq, l, [cube]) == Fraction(2, 3)
    ws = equality_by_support(sq, l, cube)
    assert ws == (Fraction(2, 3), (Fraction(-2, 3), Fraction(2, 3), 0))
    rect = convex_hull([(0, 0, 0), (4, 0, 0), (0, 1, 0), (4, 1, 0)])
    rep = afi_check(sq, rect, [cube])
    assert rep.discriminant > 0
    assert equality_by_measure(sq, rect, [cube]) is None
    assert equality_by_support(sq, rect, cube) is None


# ---------------------------------------------------------------------------
# each mixed volume once, in one place


def _sym_cube():
    return convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])


def _equality_triples():
    """(K, L, C) in R^3 with full-dimensional C: homothets, truncated cubes,
    random bodies, flat pairs and a point L (the measure route's precondition)."""
    cube = _sym_cube()
    sq = convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)])
    rect = convex_hull([(0, 0, 0), (4, 0, 0), (0, 1, 0), (4, 1, 0)])
    triples = [(cube, scale_translate(cube, Fraction(7, 2), (1, Fraction(-1, 3), 2)), cube),
               (sq, scale_translate(sq, Fraction(3, 2), (1, -1, 0)), cube),
               (sq, rect, cube), (cube, singleton((1, 2, 3)), cube), (cube, cube, cube)]
    triples += [(cube, truncated_cube(Fraction(d, 64)), cube) for d in (4, 16, 28)]
    rng = random.Random(1717)
    triples += [tuple(random_body(rng, 3, full_dim=True) for _ in range(3)) for _ in range(6)]
    return triples


def _outcome(route, *args):
    """The route's result, or the message of the PreconditionError it raises."""
    try:
        return route(*args)
    except PreconditionError as e:
        return str(e)


def test_equality_routes_call_no_volume_route(monkeypatch):
    # beforehand: a = V(K,L,C)/V(L,L,C) by inclusion-exclusion where the
    # discriminant vanishes, and the support route's witness, which must
    # agree with it; then both routes run with inclusion-exclusion,
    # interpolation and `volume` raising
    triples = _equality_triples()
    expected = []
    for k, l, c in triples:
        rep = afi_check(k, l, [c])
        if rep.v_ll == 0:
            a = "V(L,L,C) = 0: the degenerate branch applies"
        else:
            a = Fraction(rep.v_kl, rep.v_ll) if rep.equality else None
        witness = _outcome(equality_by_support, k, l, c)
        if isinstance(a, str):
            assert witness == "V(K,L,C) > 0 required for the positive branch"
        else:
            assert witness is None if a is None else witness[0] == a
        expected.append((a, witness))
    assert sum(isinstance(a, Fraction) for a, _ in expected) >= 6
    assert sum(a is None for a, _ in expected) >= 3
    block_in_afel(monkeypatch, "an equality route",
                  (mixed_volume, mv_module._inclusion_exclusion, mixed_volume_interpolated,
                   volume))
    with pytest.raises(RuntimeError):
        afi_check(*triples[0][:2], [triples[0][2]])
    for (k, l, c), (a, witness) in zip(triples, expected):
        assert _outcome(equality_by_measure, k, l, [c]) == a
        assert _outcome(equality_by_support, k, l, c) == witness


def test_afi_values_match_the_interpolation_route():
    # the shared table's three values against the independent route, on the
    # criterion-3 triples, truncated cubes, and flat or point-holding triples
    rng = random.Random(103)
    triples = [tuple(random_body(rng, 3) for _ in range(3)) for _ in range(25)]
    cube = _sym_cube()
    triples += [(cube, truncated_cube(Fraction(d, 64)), cube) for d in (4, 16, 28)]
    sq = convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0)])
    s1, s2 = segment((0, 0, 0), (1, 0, 0)), segment((5, 1, 0), (7, 1, 0))
    triples += [(s1, s2, sq), (sq, sq, sq), (singleton((1, 2, 3)), cube, cube),
                (cube, cube, singleton((0, 0, 0))), (sq, s1, cube), (s1, cube, s2)]
    flat = sum(min(b.dim for b in t) < 3 for t in triples)
    assert flat >= 10
    for k, l, c in triples:
        rep = afi_check(k, l, [c])
        assert rep.v_kl == mixed_volume_interpolated([k, l, c])
        assert rep.v_kk == mixed_volume_interpolated([k, k, c])
        assert rep.v_ll == mixed_volume_interpolated([l, l, c])
        assert rep.discriminant == rep.v_kl ** 2 - rep.v_kk * rep.v_ll


def test_afi_check_hulls_each_distinct_sum_once(monkeypatch):
    # K+L, K+C, L+C, K+L+C, 2K+C and 2L+C: 2K and 2L are scaled, not hulled
    rng = random.Random(1718)
    triples = [tuple(random_body(rng, 3, full_dim=True) for _ in range(3)) for _ in range(8)]
    cube = _sym_cube()
    triples += [(cube, truncated_cube(), cube), (cube, cube, cube)]
    sums = []

    def spy(p, q):
        sums.append((p, q))
        return minkowski_sum(p, q)

    patch_in_afel(monkeypatch, {minkowski_sum: spy})
    for k, l, c in triples:
        sums.clear()
        afi_check(k, l, [c])
        assert len(sums) <= 6
        assert all(q in (k, l, c) for _, q in sums)


def test_support_route_precondition_is_positivity():
    # gen_mixed_body pairs (half of them L a translate of K, so that parallel
    # segments occur) against a full-dimensional C: the route refuses
    # exactly the triples whose mixed volume vanishes
    outcomes = {True: 0, False: 0}
    for seed in range(40):
        k = gen_mixed_body(seed)
        l = gen_mixed_body(1000 + seed) if seed % 2 else scale_translate(k, 1, (1, 2, -1))
        c = gen_body(3, 2000 + seed, points=5)
        positive = mixed_volume([k, l, c]) > 0
        outcomes[positive] += 1
        if positive:
            equality_by_support(k, l, c)
        else:
            with pytest.raises(PreconditionError, match="V\\(K,L,C\\) > 0"):
                equality_by_support(k, l, c)
    assert min(outcomes.values()) >= 5, outcomes


# ---------------------------------------------------------------------------
# the arc witness is one exact solve with an empty nullspace


def _arc_corpus():
    """Seeded (K, L, C) triples for the support route and (plus, minus, C)
    triples for arc linearity: flat, segment and full-dimensional bodies
    against full-dimensional C."""
    cube = _sym_cube()
    equality = _equality_triples()
    for seed in range(24):
        k = gen_mixed_body(seed)
        l = gen_mixed_body(1000 + seed) if seed % 2 else scale_translate(k, 1, (1, 2, -1))
        equality.append((k, l, gen_body(3, 2000 + seed, points=5)))
    equality += [(segment((0, 0, 0), (2, 1, 0)), cube, cube),
                 (cube, segment((0, 0, 0), (0, 0, 1)), cube)]
    rng = random.Random(2020)
    linearity = []
    for _ in range(4):
        box = _random_box(rng)
        linearity.append((box, _truncate_box(rng, box), box))
    linearity += [(random_body(rng, 3), random_body(rng, 3), random_body(rng, 3, full_dim=True))
                  for _ in range(6)]
    linearity += [(segment((0, 0, 0), (1, 1, 1)), cube, cube),
                  (cube, scale_translate(cube, 1, (1, 2, 3)), cube)]
    return equality, linearity


def test_arc_solves_have_empty_nullspace(monkeypatch):
    # every consistent arc system of the corpus has exactly one solution,
    # each decision makes one solve, and both verdicts agree with the
    # measure side of the vanishing criterion
    equality, linearity = _arc_corpus()
    nullities = []

    def spy(rows, rhs):
        sol = solve_linear(rows, rhs)
        nullities.append(None if sol is None else len(sol[1]))
        return sol

    monkeypatch.setattr(sys.modules["afel.afi"], "solve_linear", spy)
    counts = Counter()
    for k, l, c in equality:
        counts["flat"] += min(k.dim, l.dim) < 3
        counts["segment"] += min(k.dim, l.dim) == 1
        try:
            w = equality_by_support(k, l, c)
        except PreconditionError:
            counts["refused"] += 1
            continue
        counts[f"equality {w is not None}"] += 1
        try:
            a = equality_by_measure(k, l, [c])
        except PreconditionError:
            continue
        assert (w is None and a is None) or w[0] == a
    for p, m, c in linearity:
        counts["flat"] += min(p.dim, m.dim) < 3
        counts["segment"] += min(p.dim, m.dim) == 1
        f = SupportDiff(p, m)
        x = linearity_on_arcs(f, c)
        counts[f"linear {x is not None}"] += 1
        assert (x is not None) == mixed_area_diff([f, c]).is_zero()
    assert counts == {"flat": 27, "segment": 13, "refused": 5, "equality True": 14,
                      "equality False": 21, "linear True": 5, "linear False": 7}
    # one solve per decision: the 19 witnesses had no free unknown
    assert Counter(nullities) == {0: 19, None: 28}


def _with_free_direction(rows, rhs):
    """The true solution, plus a made-up nullspace vector."""
    x0, _ = solve_linear(rows, rhs)
    return x0, [tuple(Fraction(int(i == 0)) for i in range(len(x0)))]


def _off_by_one(rows, rhs):
    """A solution with no nullspace that misses every row with a nonzero
    first coefficient."""
    x0, _ = solve_linear(rows, rhs)
    return (x0[0] + 1,) + x0[1:], []


def test_arc_solution_refuses_free_unknowns_and_wrong_solutions(monkeypatch, sym_cube):
    f = SupportDiff(sym_cube, truncated_cube())
    afi_module = sys.modules["afel.afi"]
    for fake, message in ((_with_free_direction, "leave 1 free unknowns"),
                          (_off_by_one, "fails a sub-arc constraint")):
        monkeypatch.setattr(afi_module, "solve_linear", fake)
        with pytest.raises(TheoryViolationError, match=message):
            equality_by_support(sym_cube, truncated_cube(), sym_cube)
        with pytest.raises(TheoryViolationError, match=message):
            linearity_on_arcs(f, sym_cube)


def test_support_route_refuses_nonpositive_factor(monkeypatch, sym_cube):
    # patched above the re-verification, which a made-up a <= 0 from
    # solve_linear would fail first
    for a in (Fraction(-1), Fraction(0)):
        monkeypatch.setattr(sys.modules["afel.afi"], "_arc_solution",
                            lambda *args, a=a: (a, 0, 0, 0))
        with pytest.raises(TheoryViolationError, match=f"homothety factor {a} is not positive"):
            equality_by_support(sym_cube, truncated_cube(), sym_cube)


# ---------------------------------------------------------------------------
# the arc rows against the upper-envelope reference


def _envelope(body, z1, z2):
    """Maximizing vertex of <., (1-t) z1 + t z2> as t runs through [0, 1]:
    list of (lo, hi, vertex) pieces with rational breakpoints."""
    pairs = {}
    for v in body.vertices:
        pairs[(dot(v, z1.z), dot(v, z2.z))] = v
    items = sorted(pairs.items())
    # at t = 0 the maximizer has max a; ties resolved toward larger b
    (cur_a, cur_b), cur_v = items[-1]
    pieces = []
    lo = Fraction(0)
    while True:
        nxt = None
        for (a, b), v in items:
            if b <= cur_b:
                continue
            # crossing of the two support lines
            t = Fraction(cur_a - a, (cur_a - a) + (b - cur_b))
            if t <= lo or t >= 1:
                continue
            if nxt is None or t < nxt[0] or (t == nxt[0] and b > nxt[1]):
                nxt = (t, b, a, v)
        if nxt is None:
            pieces.append((lo, Fraction(1), cur_v))
            return pieces
        t, b, a, v = nxt
        pieces.append((lo, t, cur_v))
        lo = t
        cur_a, cur_b, cur_v = a, b, v


def _piece_rows(plus, minus, c, constraint):
    """The reference arc system: each nondegenerate piece of the common
    refinement of the two envelopes, with maximizers v_plus and v_minus,
    gives constraint(z, <v_plus, z>, <v_minus, z>) at both arc ends z."""
    keys = {}
    for z1, z2 in ball_support_arcs(c).arcs:
        ep, em = _envelope(plus, z1, z2), _envelope(minus, z1, z2)
        cuts = sorted({t for lo, hi, _ in ep + em for t in (lo, hi)})
        for lo, hi in zip(cuts, cuts[1:]):
            vp = next(v for a, b, v in ep if a <= lo and hi <= b)
            vm = next(v for a, b, v in em if a <= lo and hi <= b)
            keys.update(dict.fromkeys(constraint(z.z, dot(vp, z.z), dot(vm, z.z))
                                      for z in (z1, z2)))
    return [row for row, _ in keys], [b for _, b in keys]


def test_arc_rows_match_the_envelope_reference(sym_cube):
    # rows at the arc ends and the edge-orthogonal directions have the
    # solution set of the envelope pieces' rows, so one exact solve gives
    # the same result on both
    triples = _equality_triples() + [(sym_cube, truncated_cube(), sym_cube)]
    rng = random.Random(2020)
    for _ in range(4):
        box = _random_box(rng)
        triples.append((box, _truncate_box(rng, box), box))
    outcomes = Counter()
    for k, l, c in triples:
        for kind, constraint in (("homothety", _homothety_constraint),
                                 ("linearity", _linearity_constraint)):
            sol = solve_linear(*_arc_constraints(k, l, c, constraint))
            assert sol == solve_linear(*_piece_rows(k, l, c, constraint))
            outcomes[kind, None if sol is None else len(sol[1])] += 1
    # every outcome is None or one solution with an empty nullspace
    assert outcomes == {("homothety", 0): 11, ("homothety", None): 8,
                        ("linearity", 0): 9, ("linearity", None): 10}
