"""Exact rational polytope kernel.

All geometric data lives in vertex representation over Fractions.  Polytopes
are immutable: the affine dimension, facet structure (full-dimensional bodies
only) and edge adjacency (3D bodies) are computed once at construction.
Sphere directions are primitive integer vectors, so equality questions about
normals reduce to integer comparisons.

Ambient dimensions 2, 3 and 4 are supported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from math import gcd as _gcd

from . import hull as _hull
from .errors import PreconditionError, TheoryViolationError
from .linalg import (
    dot,
    matrank,
    norm_sq,
    num,
    pivot_columns,
    primitive,
    solve_linear,
    vadd,
    vscale,
    vsub,
)

Vec = tuple  # tuple of exact numbers (int or Fraction)


def as_vec(coords: Sequence) -> Vec:
    return tuple(num(c) for c in coords)


@dataclass(frozen=True)
class Direction:
    """A primitive integer vector standing for the unit direction z/|z|."""

    z: tuple[int, ...]

    @staticmethod
    def of(coords: Sequence) -> "Direction":
        return Direction(primitive(coords))

    def __neg__(self) -> "Direction":
        return Direction(tuple(-c for c in self.z))

    def norm_sq(self) -> int:
        return sum(c * c for c in self.z)

    @property
    def n(self) -> int:
        return len(self.z)


@dataclass(frozen=True)
class Facet:
    normal: Direction
    offset: object  # exact number: max over vertices of <v, normal.z>
    vertex_ids: tuple[int, ...]  # CCW cycle seen from outside when n == 3
    drop: int  # coordinate dropped by the facet projection
    proj_volume: object  # exact (n-1)-volume of the projected facet


@dataclass(frozen=True)
class Edge:
    vertex_ids: tuple[int, int]
    facet_ids: tuple[int, int]


class VPolytope:
    """Polytope given by its irredundant vertex list (lexicographically
    sorted).  `facets` is populated exactly when dim == n; `edges` when the
    body is a full-dimensional 3-polytope; `cycle` whenever dim == 2 (the
    boundary order of the polygon, possibly embedded in higher dimension).
    """

    __slots__ = ("n", "dim", "vertices", "facets", "edges", "cycle")

    def __init__(self, n, dim, vertices, facets=None, edges=None, cycle=None):
        self.n = n
        self.dim = dim
        self.vertices = vertices
        self.facets = facets
        self.edges = edges
        self.cycle = cycle

    def __eq__(self, other):
        return (isinstance(other, VPolytope) and self.n == other.n
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.n, self.vertices))

    def __repr__(self):
        return f"VPolytope(n={self.n}, dim={self.dim}, vertices={len(self.vertices)})"

    def is_singleton(self) -> bool:
        return self.dim == 0

    def facet_normals(self) -> list[Direction]:
        if self.facets is None:
            raise PreconditionError("facet cache requires a full-dimensional body")
        return [f.normal for f in self.facets]


def _integerize(points: list[Vec]) -> tuple[list[tuple[int, ...]], int]:
    """Common-denominator integer copies of the points, plus the scale."""
    den = 1
    for p in points:
        for c in p:
            if not isinstance(c, int):
                den = den * c.denominator // _gcd(den, c.denominator)
    if den == 1:
        return [tuple(p) for p in points], 1
    return [tuple(int(c * den) for c in p) for p in points], den


def convex_hull(points: Iterable[Sequence]) -> VPolytope:
    """Hull of a nonempty point set; lower-dimensional inputs are fine.

    Vertices of the result are lexicographically sorted; the facet cache is
    populated when the hull is full-dimensional, the edge cache for 3D bodies
    and the boundary cycle for polygons.
    """
    pts = [as_vec(p) for p in points]
    if not pts:
        raise PreconditionError("empty point list")
    n = len(pts[0])
    if not 2 <= n <= 4:
        raise PreconditionError(f"ambient dimension {n} outside 2..4")
    if any(len(p) != n for p in pts):
        raise PreconditionError("dimension mismatch among input points")
    pts = sorted(set(pts))
    p0 = pts[0]
    diffs = [vsub(p, p0) for p in pts[1:]]
    dim = matrank(diffs)
    if dim == 0:
        return VPolytope(n, 0, (p0,))
    if dim == 1:
        scored = sorted(pts)
        return VPolytope(n, 1, (scored[0], scored[-1]))
    if dim < n:
        cols = pivot_columns(diffs)
        reduced = [tuple(p[c] for c in cols) for p in pts]
        sub = convex_hull(reduced)
        vert_set = set(sub.vertices)
        keep = [i for i, rp in enumerate(reduced) if rp in vert_set]
        verts = tuple(pts[i] for i in keep)
        cycle = None
        if dim == 2:
            remap = {old: new for new, old in enumerate(keep)}
            cycle = tuple(remap[reduced.index(sub.vertices[k])] for k in sub.cycle)
            k = cycle.index(min(cycle))
            cycle = cycle[k:] + cycle[:k]
        return VPolytope(n, dim, verts, cycle=cycle)
    ints, den = _integerize(pts)
    h = _hull.hull_structure(ints, n)
    keep = list(h.vertex_ids)
    remap = {old: new for new, old in enumerate(keep)}
    verts = tuple(pts[i] for i in keep)
    facets = []
    for f in h.facets:
        ids = tuple(remap[i] for i in f.points)
        if n == 3:
            k = ids.index(min(ids))
            ids = ids[k:] + ids[:k]
        else:
            ids = tuple(sorted(ids))
        zdir = Direction(f.normal)
        offset = num(Fraction(f.offset, den))
        pvol = num(f.proj_volume / den ** (n - 1)) if den != 1 else num(f.proj_volume)
        facets.append(Facet(zdir, offset, ids, f.drop, pvol))
    edges = None
    if n == 3:
        edges = tuple(
            Edge(tuple(sorted(remap[i] for i in r.points)), tuple(sorted(r.facets)))
            for r in sorted(h.ridges, key=lambda r: tuple(sorted(remap[i] for i in r.points)))
        )
    cycle = None
    if n == 2:
        cycle = tuple(remap[i] for i in h.cycle)
        k = cycle.index(min(cycle))
        cycle = cycle[k:] + cycle[:k]
    return VPolytope(n, n, verts, tuple(facets), edges, cycle)


def singleton(x: Sequence) -> VPolytope:
    v = as_vec(x)
    return VPolytope(len(v), 0, (v,))


def segment(a: Sequence, b: Sequence) -> VPolytope:
    return convex_hull([a, b])


def support_value(p: VPolytope, z: Direction) -> Fraction:
    """h_P(z): the exact maximum of <v, z> over vertices (unnormalized)."""
    if z.n != p.n:
        raise PreconditionError("direction dimension mismatch")
    return max(dot(v, z.z) for v in p.vertices)


def support_set(p: VPolytope, z: Direction) -> VPolytope:
    """F(P, z): the face of P where the support value is attained."""
    h = support_value(p, z)
    attaining = [v for v in p.vertices if dot(v, z.z) == h]
    return convex_hull(attaining)


def minkowski_sum(p: VPolytope, q: VPolytope) -> VPolytope:
    if p.n != q.n:
        raise PreconditionError("ambient dimension mismatch")
    return convex_hull([vadd(v, w) for v in p.vertices for w in q.vertices])


def minkowski_sum_many(bodies: Sequence[VPolytope]) -> VPolytope:
    if not bodies:
        raise PreconditionError("empty Minkowski sum")
    # fold smallest-first: intermediate hulls stay small
    order = sorted(bodies, key=lambda b: len(b.vertices))
    acc = order[0]
    for b in order[1:]:
        acc = minkowski_sum(acc, b)
    return acc


def scale_translate(p: VPolytope, a, x: Sequence) -> VPolytope:
    """a*P + x for rational a >= 0; a == 0 collapses to the singleton {x}."""
    a = num(a)
    xv = as_vec(x)
    if len(xv) != p.n:
        raise PreconditionError("translation dimension mismatch")
    if a < 0:
        raise PreconditionError("negative scale factor")
    if a == 0:
        return singleton(xv)
    verts = tuple(vadd(vscale(a, v), xv) for v in p.vertices)
    facets = None
    if p.facets is not None:
        facets = tuple(
            Facet(f.normal, a * f.offset + dot(xv, f.normal.z), f.vertex_ids,
                  f.drop, a ** (p.n - 1) * f.proj_volume)
            for f in p.facets
        )
    return VPolytope(p.n, p.dim, verts, facets, p.edges, p.cycle)


def translate(p: VPolytope, x: Sequence) -> VPolytope:
    return scale_translate(p, 1, x)


def dim_pspan(bodies: Sequence[VPolytope]) -> int:
    """dim pspan of the Minkowski sum of the bodies, without forming it."""
    if not bodies:
        raise PreconditionError("empty body list")
    n = bodies[0].n
    if any(b.n != n for b in bodies):
        raise PreconditionError("ambient dimension mismatch")
    diffs = []
    for b in bodies:
        v0 = b.vertices[0]
        diffs.extend(vsub(v, v0) for v in b.vertices[1:])
    return matrank(diffs) if diffs else 0


def diameter_sq(p: VPolytope) -> Fraction:
    if p.dim == 0:
        return Fraction(0)
    return max(norm_sq(vsub(v, w))
               for v, w in itertools.combinations(p.vertices, 2))


def contains_point(p: VPolytope, x: Sequence) -> bool:
    xv = as_vec(x)
    if p.dim == p.n:
        return all(dot(xv, f.normal.z) <= f.offset for f in p.facets)
    if p.dim == 0:
        return xv == p.vertices[0]
    # lower-dimensional: x must sit in the affine hull, then reduce
    v0 = p.vertices[0]
    diffs = [vsub(v, v0) for v in p.vertices[1:]]
    rows = [tuple(d[i] for d in diffs) for i in range(p.n)]
    sol = solve_linear(rows, vsub(xv, v0))
    if sol is None:
        return False
    if p.dim == 1:
        a, b = p.vertices[0], p.vertices[-1]
        d = vsub(b, a)
        t = dot(vsub(xv, a), d)
        return 0 <= t <= norm_sq(d) and vscale(t, d) == vscale(norm_sq(d), vsub(xv, a))
    cols = pivot_columns(diffs)
    red = convex_hull([tuple(v[c] for c in cols) for v in p.vertices])
    return contains_point(red, tuple(xv[c] for c in cols))


def dist_sq_point(p: VPolytope, x: Sequence) -> Fraction:
    """Exact squared Euclidean distance from a point to the polytope.

    Enumerates affinely independent vertex subsets; a candidate projection is
    certified globally optimal by the KKT condition <x - y, w - y> <= 0 for
    every vertex w, which convexity makes sufficient.
    """
    xv = as_vec(x)
    verts = p.vertices
    if contains_point(p, xv):
        return Fraction(0)
    for size in range(1, min(p.dim + 2, len(verts) + 1)):
        for sub in itertools.combinations(verts, size):
            y = _project_affine(xv, sub)
            if y is None:
                continue
            d = vsub(xv, y)
            if all(dot(d, vsub(w, y)) <= 0 for w in verts):
                return norm_sq(d)
    raise TheoryViolationError("projection enumeration failed")  # unreachable


def _project_affine(x: Vec, sub: tuple[Vec, ...]) -> Optional[Vec]:
    """Project x onto aff(sub); None when sub is affinely dependent or the
    projection leaves conv(sub)."""
    p0 = sub[0]
    if len(sub) == 1:
        return p0
    d = [vsub(s, p0) for s in sub[1:]]
    if matrank(d) < len(d):
        return None
    k = len(d)
    gram = [tuple(dot(d[i], d[j]) for j in range(k)) for i in range(k)]
    rhs = [dot(d[i], vsub(x, p0)) for i in range(k)]
    sol = solve_linear(gram, rhs)
    t, _ = sol
    if any(ti < 0 for ti in t) or sum(t) > 1:
        return None
    y = p0
    for ti, di in zip(t, d):
        y = vadd(y, vscale(ti, di))
    return y


def hausdorff_distance_sq(p: VPolytope, q: VPolytope) -> Fraction:
    """Squared Hausdorff distance, exact.

    d(., Q) is convex, so its maximum over P is attained at a vertex of P;
    each vertex-to-body distance is an exact rational.
    """
    if p.n != q.n:
        raise PreconditionError("ambient dimension mismatch")
    best = Fraction(0)
    for v in p.vertices:
        best = max(best, dist_sq_point(q, v))
    for w in q.vertices:
        best = max(best, dist_sq_point(p, w))
    return best


@dataclass(frozen=True)
class SupportDiff:
    """A difference of support functions f = h_plus - h_minus."""

    plus: VPolytope
    minus: VPolytope

    def __post_init__(self):
        if self.plus.n != self.minus.n:
            raise PreconditionError("ambient dimension mismatch")

    @property
    def n(self) -> int:
        return self.plus.n

    def value(self, z: Direction) -> Fraction:
        return support_value(self.plus, z) - support_value(self.minus, z)


DiffArg = Union[VPolytope, SupportDiff]


def expand_support_diffs(args: Sequence[DiffArg]) -> Iterator[tuple[int, list[VPolytope]]]:
    """Terms (sign, bodies) of the multilinear expansion of a tuple of bodies
    and support differences over the plus/minus parts of each difference."""
    choices = [((1, a.plus), (-1, a.minus)) if isinstance(a, SupportDiff) else ((1, a),)
               for a in args]
    for combo in itertools.product(*choices):
        sign = 1
        bodies = []
        for s, body in combo:
            sign *= s
            bodies.append(body)
        yield sign, bodies


# ---------------------------------------------------------------------------
# Minkowski difference and summands


def _subspace_chart(p: VPolytope):
    """Injective linear projection of pspan(P) onto pivot coordinates and its
    exact inverse, as (project, unproject) callables."""
    v0 = p.vertices[0]
    diffs = [vsub(v, v0) for v in p.vertices[1:]]
    cols = pivot_columns(diffs)
    basis: list[Vec] = []
    for d in diffs:
        if matrank(basis + [d]) > len(basis):
            basis.append(d)
    proj_basis = [tuple(b[c] for c in cols) for b in basis]

    def project(x: Vec) -> Vec:
        return tuple(x[c] for c in cols)

    def unproject(c: Vec) -> Vec:
        rows = [tuple(pb[i] for pb in proj_basis) for i in range(len(cols))]
        sol = solve_linear(rows, c)
        if sol is None:
            raise TheoryViolationError("point outside the chart's subspace")
        t, _ = sol
        out = tuple(Fraction(0) for _ in range(p.n))
        for ti, b in zip(t, basis):
            out = vadd(out, vscale(ti, b))
        return out

    return project, unproject


def minkowski_difference(p: VPolytope, q: VPolytope) -> Optional[VPolytope]:
    """P minus Q in the Minkowski sense: the body M with M + Q = P, or None.

    The erosion {x : x + Q being contained in P} equals the hull of the
    feasible vertex differences v_P - v_Q; the exact reconstruction check
    M + Q = P decides existence, since the difference is defined exactly by
    that equality.
    """
    if p.n != q.n:
        raise PreconditionError("ambient dimension mismatch")
    if p.dim == 0:
        if q.dim != 0:
            return None
        return singleton(vsub(p.vertices[0], q.vertices[0]))
    # necessary: direction space of Q inside that of P
    pv0, qv0 = p.vertices[0], q.vertices[0]
    pdiffs = [vsub(v, pv0) for v in p.vertices[1:]]
    qdiffs = [vsub(w, qv0) for w in q.vertices[1:]]
    if qdiffs and matrank(pdiffs + qdiffs) > matrank(pdiffs):
        return None
    if p.dim == p.n:
        m = _mdiff_fulldim(p, q)
    elif p.dim == 1:
        m = _mdiff_segments(p, q)
    else:
        project, unproject = _subspace_chart(p)
        pr = convex_hull([project(vsub(v, pv0)) for v in p.vertices])
        qr = convex_hull([project(vsub(w, qv0)) for w in q.vertices])
        mr = _mdiff_fulldim(pr, qr) if pr.dim == pr.n else None
        if mr is None:
            return None
        shift = vsub(pv0, qv0)
        m = convex_hull([vadd(unproject(c), shift) for c in mr.vertices])
    return m


def _mdiff_segments(p: VPolytope, q: VPolytope) -> Optional[VPolytope]:
    a, b = p.vertices[0], p.vertices[-1]
    d = vsub(b, a)
    if q.dim == 0:
        return convex_hull([vsub(a, q.vertices[0]), vsub(b, q.vertices[0])])
    c, e = q.vertices[0], q.vertices[-1]
    qd = vsub(e, c)
    # qd = t*d with 0 <= t <= 1 required
    nd = norm_sq(d)
    t = Fraction(dot(qd, d), nd)
    if vscale(t, d) != qd or t < 0 or t > 1:
        return None
    lo = vsub(a, c)
    hi = vadd(lo, vscale(1 - t, d))
    return convex_hull([lo, hi])


def _mdiff_fulldim(p: VPolytope, q: VPolytope) -> Optional[VPolytope]:
    constraints = [(f.normal.z, f.offset - support_value(q, f.normal)) for f in p.facets]
    feasible = set()
    for v in p.vertices:
        for w in q.vertices:
            x = vsub(v, w)
            if all(dot(x, z) <= b for z, b in constraints):
                feasible.add(x)
    if not feasible:
        return None
    m = convex_hull(sorted(feasible))
    if minkowski_sum(m, q) == p:
        return m
    return None


def is_summand(q: VPolytope, p: VPolytope) -> bool:
    """Whether Q is a Minkowski summand of P."""
    return minkowski_difference(p, q) is not None
