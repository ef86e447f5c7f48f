import math
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv

from afel.errors import PreconditionError
from afel.geometry import convex_hull, segment, singleton
from afel.macroid import admissibility_check, load_admissible_fixture
from afel.numerics import (
    mean_width_3d,
    sphere_surface_area,
    steiner_point_3d,
    unit_ball_volume,
)
from afel.polyoid import BodyMeasure, diam_sum_check, steiner_normalize

from conftest import SUBPROCESS_ENV, random_body


def test_mean_width_examples(unit_cube):
    assert mean_width_3d(singleton((3, 2, 1))).value == 0
    seg = segment((0, 0, 0), (0, 0, 5))
    w = mean_width_3d(seg)
    assert abs(w.value - 2.5) <= w.abs_err + 1e-12
    w = mean_width_3d(unit_cube)
    assert abs(w.value - 1.5) <= w.abs_err + 1e-12
    assert w.abs_err <= 1e-12 * abs(w.value)


def test_mean_width_polygon():
    tri = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    w = mean_width_3d(tri)
    assert abs(w.value - (2 + math.sqrt(2)) / 4) < 1e-12


def test_mean_width_wrong_dimension():
    with pytest.raises(PreconditionError):
        mean_width_3d(convex_hull([(0, 0), (1, 0), (0, 1)]))


def test_steiner_examples(unit_cube):
    s = steiner_point_3d(singleton((4, -1, 2)))
    assert [c.value for c in s] == [4, -1, 2]
    s = steiner_point_3d(unit_cube)
    assert all(abs(c.value - 0.5) <= c.abs_err + 1e-12 for c in s)
    reg = convex_hull([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
    s = steiner_point_3d(reg)
    assert all(abs(c.value) <= c.abs_err + 1e-12 for c in s)


def test_steiner_in_relative_interior():
    rng = random.Random(3)
    for _ in range(6):
        p = random_body(rng, 3, full_dim=True)
        s = [c.value for c in steiner_point_3d(p)]
        for f in p.facets:
            val = sum(a * b for a, b in zip(s, f.normal.z))
            assert val < float(f.offset) + 1e-9


def test_constants():
    for n in (2, 3, 4):
        k = unit_ball_volume(n)
        o = sphere_surface_area(n)
        assert abs(o.value - n * k.value) <= n * k.abs_err + o.abs_err + 1e-12
    assert abs(unit_ball_volume(3).value - 4 * math.pi / 3) < 1e-12
    assert abs(sphere_surface_area(2).value - float(2 * mpmath.pi)) < 1e-12


def test_interval_precision_is_scoped(unit_cube, tetra):
    # importing afel leaves mpmath's process-wide interval precision alone
    r = subprocess.run([sys.executable, "-c",
                        "from mpmath import iv; p = iv.prec; import afel; print(p, iv.prec)"],
                       capture_output=True, text=True, check=True,
                       env=SUBPROCESS_ENV)
    before, after = r.stdout.split()
    assert before == after
    # every entry point that reports intervals computes at its own precision,
    # whatever the caller's, and leaves the caller's as it was
    mu = BodyMeasure.of([(Fraction(1, 3), unit_cube), (Fraction(2, 3), tetra)])
    seq = load_admissible_fixture()
    calls = [
        lambda: [unit_ball_volume(n) for n in (2, 3, 4)],
        lambda: [sphere_surface_area(n) for n in (2, 3, 4)],
        lambda: mean_width_3d(tetra),
        lambda: steiner_point_3d(tetra),
        lambda: admissibility_check(seq).diam_sum_enclosure,
        lambda: diam_sum_check([unit_cube, tetra]),
        lambda: steiner_normalize(mu),
    ]
    saved = iv.prec
    outs = []
    try:
        for prec in (20, 53, 300):
            iv.prec = prec
            outs.append([f() for f in calls])
            assert iv.prec == prec
    finally:
        iv.prec = saved
    assert outs[0] == outs[1] == outs[2]


def _polygon_steiner(vertices):
    """Steiner point of a convex polygon in R^3 from its vertices in cyclic
    order: each vertex weighted by its exterior angle pi - theta over 2 pi,
    theta the interior angle from math.acos."""
    k = len(vertices)
    out = [0.0, 0.0, 0.0]
    for t, v in enumerate(vertices):
        a = [float(p - q) for p, q in zip(vertices[t - 1], v)]
        b = [float(p - q) for p, q in zip(vertices[(t + 1) % k], v)]
        theta = math.acos(sum(x * y for x, y in zip(a, b)) / (math.hypot(*a) * math.hypot(*b)))
        out = [o + float(c) * (math.pi - theta) / (2 * math.pi) for o, c in zip(out, v)]
    return out


def _close(values, expected, tol=1e-12):
    return all(abs(c.value - e) <= c.abs_err + tol for c, e in zip(values, expected))


def test_steiner_flat_polygons():
    # a triangle in the plane x + y/2 + z/3 = 1, and a rectangle with
    # tilted sides u = (1, 1, 0) and w = (-1, 1, 2), whose Steiner point is
    # its center
    tri = [(1, 0, 0), (0, 2, 0), (0, 0, 3)]
    p = convex_hull(tri)
    assert p.dim == 2
    s = steiner_point_3d(p)
    assert _close(s, _polygon_steiner(tri))
    assert not _close(s, [sum(c) / 3 for c in zip(*tri)], 1e-3)  # not the centroid
    a, u, w = (Fraction(1, 3), 2, -1), (1, 1, 0), (-1, 1, 2)
    rect = convex_hull([tuple(x + i * y + j * z for x, y, z in zip(a, u, w))
                        for i in (0, 1) for j in (0, 1)])
    assert rect.dim == 2 and len(rect.vertices) == 4
    assert _close(steiner_point_3d(rect), [x + (y + z) / 2 for x, y, z in zip(a, u, w)])


def test_steiner_normalize_polygon_atom():
    # a triangle atom and a segment atom: each is recentered at its Steiner
    # point and scaled to mean width 1 (a polygon's is a quarter of its
    # perimeter, a segment's half its length), weights by relative width
    tri = [(0, 0, 0), (3, 0, 0), (0, 4, 0)]
    mu = BodyMeasure.of([(Fraction(1, 3), convex_hull(tri)),
                         (Fraction(2, 3), segment((1, 1, 1), (1, 1, 3)))])
    out = steiner_normalize(mu)
    (w_tri, body), (w_seg, _) = out.atoms
    width, seg_width = 12 / 4, 2 / 2
    share = width / 3 / (width / 3 + seg_width * 2 / 3)
    assert abs(w_tri.value - share) <= w_tri.abs_err + 1e-12
    assert abs(w_seg.value + w_tri.value - 1) <= 1e-9
    centre = _polygon_steiner(tri)
    expected = sorted(tuple((c - s) / width for c, s in zip(v, centre)) for v in tri)
    got = sorted(body.vertices)
    assert all(abs(x - y) <= body.abs_err + 1e-12
               for p, q in zip(got, expected) for x, y in zip(p, q))
