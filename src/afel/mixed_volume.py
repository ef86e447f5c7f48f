"""Exact mixed volumes via three mutually independent routes.

The inclusion-exclusion expansion is the reference implementation; the n-th
mixed difference of the volume polynomial (the interpolation route) and the
area-measure integral exist as independent oracles and must agree with it to
the last bit.

The three routes share no volume code.  Inclusion-exclusion takes `volume`
(divergence over hull facets) of its subset sums, from one table of sums
for all the tuples of a call (`_inclusion_exclusion`).  Interpolation sums
simplex determinants over one pulling triangulation.  The measure route's
facet weights are measure integrals one dimension lower.

Interpolation hulls one combination that inclusion-exclusion never forms,
1*K_1 + 2*K_2 + ... + n*K_n, tagged by summand vertices
(`minkowski_sum_tagged`), and reads no subset sum of the other route.  Every
all-positive combination sum_i a_i K_i has the same normal fan, since
F(sum_i a_i K_i, z) = sum_i a_i F(K_i, z) (Schneider, Convex Bodies, 2nd ed.
2014, section 1.7): the same faces, with the vertex tagged t at
sum_i a_i v_{i,t_i}.  A pulling triangulation reads only the faces and the
vertex order, so the one triangulation of that hull triangulates the sum at
each of the 2^n nodes of the mixed difference, all of which are kept.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .area_measure import mixed_area_measure
from .errors import PreconditionError
from .geometry import (
    DiffArg,
    VPolytope,
    convex_hull,
    expand_support_diffs,
    minkowski_sum,
    minkowski_sum_tagged,
    scale_translate,
)
from .hull import divergence_volume
from .linalg import cross3, cross4, dot, vsub


def volume(p: VPolytope) -> Fraction:
    """Exact n-volume; 0 for lower-dimensional bodies.

    Divergence theorem per facet: (1/n) * sum of offset * vol(projection) /
    |z_drop|; the facet projection volumes are computed once at hull
    construction and cached on the facets.  In R^2 a facet is an edge and
    its stored projected volume that edge's projected length.
    """
    if p.dim < p.n:
        return Fraction(0)
    return divergence_volume(((f.offset, f.proj_volume, f.normal.z[f.drop])
                              for f in p.facets), p.n)


def _check_tuple(bodies: Sequence[VPolytope]) -> int:
    if not bodies:
        raise PreconditionError("empty body tuple")
    n = bodies[0].n
    if any(b.n != n for b in bodies):
        raise PreconditionError("ambient dimension mismatch")
    if len(bodies) != n:
        raise PreconditionError(f"mixed volume in R^{n} needs exactly {n} bodies")
    return n


def mixed_volume(bodies: Sequence[VPolytope]) -> Fraction:
    """Alternating sum of volumes of Minkowski sub-sums (reference route)."""
    return _inclusion_exclusion([bodies])[0]


def _inclusion_exclusion(tuples: Sequence[Sequence[VPolytope]]) -> list[Fraction]:
    """`mixed_volume` of each tuple over one table of subset sums and their
    volumes, keyed by the sorted indices of the summands among the distinct
    bodies: each distinct sum is hulled once, and m copies of one body are
    the scaled body m*K, not a hull."""
    bodies = list({id(b): b for t in tuples for b in t}.values())
    index = {id(b): i for i, b in enumerate(bodies)}
    table = {(i,): (b, volume(b)) for i, b in enumerate(bodies)}
    values = []
    for t in tuples:
        n = _check_tuple(t)
        total = Fraction(0)
        for k in range(1, n + 1):
            for key in itertools.combinations(sorted(index[id(b)] for b in t), k):
                if key not in table:
                    s = (scale_translate(bodies[key[0]], k, (0,) * n) if key[0] == key[-1]
                         else minkowski_sum(table[key[:-1]][0], bodies[key[-1]]))
                    table[key] = s, volume(s)
                total += (-1) ** (n + k) * table[key][1]
        values.append(Fraction(total, math.factorial(n)))
    return values


def _difference_nodes(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Nodes a in {1, 2}^n with signs (-1)^#{i : a_i = 1}: the n-fold mixed
    difference with step 1 at (1, ..., 1).

    vol(sum_i x_i K_i) is a form of degree n in x whose x_1*...*x_n
    coefficient is n! * V(K_1, ..., K_n).  The difference sends that
    monomial to 1 and every other degree-n monomial, which misses some
    variable, to 0; so sum_a sign * vol(sum_i a_i K_i) = n! * V.
    """
    return [(a, (-1) ** a.count(1)) for a in itertools.product((1, 2), repeat=n)]


def _pulling_triangulation(p: VPolytope) -> list[tuple[int, ...]]:
    """Simplices, as tuples of vertex ids, of the pulling triangulation of a
    full-dimensional polytope: the cone from vertex 0 over the triangulated
    facets that miss it.  A polygon's edge is its own simplex; a polygon
    facet is fanned from the first vertex of its stored cycle, its smallest
    id; an R^4 facet is triangulated the same way in the hull of its
    vertices projected by dropping coordinate `f.drop`.  Only the face
    lattice and the vertex order are read."""
    simplices = []
    for f in p.facets:
        ids = f.vertex_ids
        if 0 in ids:
            continue
        if p.n < 4:  # the edge itself, or the polygon fanned from ids[0]
            simplices += [(0, ids[0]) + ids[i:i + p.n - 1] for i in range(1, len(ids) + 2 - p.n)]
        else:
            d = f.drop
            proj = {p.vertices[i][:d] + p.vertices[i][d + 1:]: i for i in ids}
            face = convex_hull(proj)
            simplices += [(0,) + tuple(proj[face.vertices[k]] for k in s)
                          for s in _pulling_triangulation(face)]
    return simplices


def _simplex_det(pts, s: tuple[int, ...]):
    """det(p_1 - p_0, ..., p_n - p_0) for the points of simplex s."""
    p0 = pts[s[0]]
    u = [vsub(pts[i], p0) for i in s[1:]]
    if len(u) == 2:
        return u[0][0] * u[1][1] - u[0][1] * u[1][0]
    if len(u) == 3:
        return dot(u[0], cross3(u[1], u[2]))
    return dot(u[0], cross4(u[1], u[2], u[3]))


def mixed_volume_interpolated(bodies: Sequence[VPolytope]) -> Fraction:
    """Coefficient extraction from the volume polynomial of Minkowski
    combinations: the n-th mixed difference of vol(sum_i a_i K_i) over the
    2^n nodes a in {1, 2}^n.

    One tagged hull, of 1*K_1 + ... + n*K_n, and its pulling triangulation
    serve every node (module docstring): node a moves the vertex tagged t to
    sum_i a_i v_{i,t_i} and sums |det| over the simplices, in integers: the
    bodies' images (`VPolytope.image`) over one common denominator."""
    n = _check_tuple(bodies)
    total, tags = minkowski_sum_tagged(
        [scale_translate(b, i + 1, (0,) * n) for i, b in enumerate(bodies)])
    if total.dim < n:
        return Fraction(0)  # every node's sum is flat
    simplices = _pulling_triangulation(total)
    den = math.lcm(*(b.image[1] for b in bodies))
    coords = [[tuple(x * (den // b.image[1]) for x in v) for v in b.image[0]] for b in bodies]
    acc = 0
    for a, sign in _difference_nodes(n):
        pts = [tuple(sum(a[i] * coords[i][t[i]][c] for i in range(n)) for c in range(n))
               for t in tags]
        acc += sign * sum(abs(_simplex_det(pts, s)) for s in simplices)
    return Fraction(acc, math.factorial(n) ** 2 * den ** n)


def mixed_volume_via_measure(bodies: Sequence[VPolytope]) -> Fraction:
    """Integral of the last support function against the mixed area measure
    of the first n-1 bodies."""
    n = _check_tuple(bodies)
    return Fraction(mixed_area_measure(bodies[:-1]).integrate_support(bodies[-1]), n)


def _diff_terms(args: Sequence[DiffArg]) -> list[tuple[int, list[VPolytope]]]:
    """The (sign, bodies) terms of `expand_support_diffs`, for n arguments
    in R^n."""
    if not args:
        raise PreconditionError("empty argument tuple")
    n = args[0].n
    if len(args) != n:
        raise PreconditionError(f"needs exactly {n} arguments")
    return list(expand_support_diffs(args))


def mixed_volume_diff(args: Sequence[DiffArg]) -> Fraction:
    """Multilinear extension of the mixed volume to differences of support
    functions, expanded over the plus/minus parts."""
    signs, tuples = zip(*_diff_terms(args))
    return sum((s * v for s, v in zip(signs, _inclusion_exclusion(tuples))), Fraction(0))
