"""Exact rational polytope kernel.

A polytope is stored in vertex representation over Fractions.  Polytopes
are immutable: the affine dimension, facet structure (full-dimensional bodies
only) and edge adjacency (3D bodies) are computed once at construction.
Sphere directions are primitive integer vectors, so equality questions about
normals reduce to integer comparisons.  A flat (lower-dimensional) body is
handled in its pivot-coordinate chart: the coordinates on which projecting
its affine hull is injective, where its image is full-dimensional and is cut
out by facet inequalities (`_facet_chart`); hulls, point membership and
Minkowski differences of flat bodies all go through that chart.

Every hull is computed on integer points over one positive denominator
(`_hull_of_image`), and only its vertices, offsets and projected volumes are
made rational.  `convex_hull` integerizes its input once; Minkowski sums and
differences form their candidate points on the summands' integer images
(`VPolytope.image`, built once per body), so no candidate is a Fraction.
Faces F(P, z) and support values h_P(z) are read on the image too
(`face_ids`, `face_vertices`, `support_value`).

Ambient dimensions 2, 3 and 4 are supported.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

from . import hull as _hull
from .errors import PreconditionError, TheoryViolationError
from .linalg import (
    dot,
    integerize,
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
    sorted).  `facets` is populated exactly when dim == n, in the hull's
    order: a facet's `vertex_ids` are a sorted pair in R^2, a cycle from its
    smallest id, counter-clockwise seen from outside, in R^3, and sorted in
    R^4.  `edges` is populated when the body is a full-dimensional
    3-polytope: the sides of the facet cycles, sorted by vertex pair, each
    with its two facets in increasing order.  `cycle` is populated whenever
    dim == 2: the counter-clockwise boundary order of the polygon (in its
    pivot-coordinate chart when embedded in higher dimension), from vertex 0.
    `image` is the vertices' integer image, built on first use.
    """

    __slots__ = ("n", "dim", "vertices", "facets", "edges", "cycle", "_image")

    def __init__(self, n, dim, vertices, facets=None, edges=None, cycle=None):
        self.n = n
        self.dim = dim
        self.vertices = vertices
        self.facets = facets
        self.edges = edges
        self.cycle = cycle
        self._image = None

    @property
    def image(self) -> tuple[list[tuple[int, ...]], int]:
        """(ints, den): the vertices times den, their coordinates' lcm denominator."""
        if self._image is None:
            self._image = integerize(self.vertices)
        return self._image

    def __eq__(self, other):
        return (isinstance(other, VPolytope) and self.n == other.n
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.n, self.vertices))

    def __repr__(self):
        return f"VPolytope(n={self.n}, dim={self.dim}, vertices={len(self.vertices)})"


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
    return _hull_of_image(*integerize(sorted(set(pts))))[0]


def _hull_of_image(ints: list[tuple[int, ...]], den: int) -> tuple[VPolytope, list[int]]:
    """The hull of the points ints / den, and the ids of its vertices in ints.

    ints are sorted, distinct integer tuples and den > 0.  Order, rank and
    every sign test of the hull are invariant under the common scale den,
    and normals are primitive, so only the kept vertices, the offsets and
    the projected volumes are divided by den.

    A polygon's cycle already starts at id 0: the chain starts at the
    lexicographic minimum ints[0], and the pivot chart keeps lexicographic
    order, because a coordinate outside the pivot columns is affine in the
    earlier pivot coordinates.  An R^3 body's edges are the sides of its
    facet cycles.
    """
    n = len(ints[0])
    p0 = ints[0]
    cols = pivot_columns([vsub(p, p0) for p in ints[1:]])
    dim = len(cols)
    if dim == 0:
        keep = [0]
    elif dim == 1:
        keep = [0, len(ints) - 1]
    else:
        # a flat input is hulled in its pivot-coordinate chart: its image there
        # is full-dimensional, and the chart is injective, so ids carry over
        chart = ints if dim == n else [tuple(p[c] for c in cols) for p in ints]
        if dim == 2 < n:
            # a flat polygon keeps no facets, so it needs only the boundary cycle
            cyc = _hull._chain_2d(chart)
            keep = sorted(cyc)
        else:
            h = _hull.hull_structure(chart, dim)
            keep, cyc = list(h.vertex_ids), h.cycle
    verts = tuple(tuple(_over(x, den) for x in ints[i]) for i in keep)
    remap = {old: new for new, old in enumerate(keep)}
    cycle = tuple(remap[i] for i in cyc) if dim == 2 else None
    if dim < n:
        return VPolytope(n, dim, verts, cycle=cycle), keep
    facets = []
    for f in h.facets:
        ids = tuple(remap[i] for i in f.points)
        ids = _from_min(ids) if n == 3 else tuple(sorted(ids))
        pvol = num(f.proj_volume / den ** (n - 1)) if den != 1 else num(f.proj_volume)
        facets.append(Facet(Direction(f.normal), _over(f.offset, den), ids, f.drop, pvol))
    edges = None
    if n == 3:
        # each edge is a side of exactly two facet cycles
        sides: dict[tuple[int, int], list[int]] = {}
        for fid, f in enumerate(facets):
            ids = f.vertex_ids
            for a, b in zip(ids, ids[1:] + ids[:1]):
                sides.setdefault((min(a, b), max(a, b)), []).append(fid)
        edges = tuple(Edge(k, tuple(sides[k])) for k in sorted(sides))
    return VPolytope(n, n, verts, tuple(facets), edges, cycle), keep


def _over(x: int, den: int):
    """x / den as a canonical exact number (`num`)."""
    return x if den == 1 else num(Fraction(x, den))


def _scaled(ints: list[tuple[int, ...]], k: int) -> list[tuple[int, ...]]:
    """An integer image times k: the same points over a k times larger denominator."""
    return ints if k == 1 else [tuple(x * k for x in v) for v in ints]


def _from_min(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """The cyclic sequence rotated to start at its smallest id."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


def singleton(x: Sequence) -> VPolytope:
    v = as_vec(x)
    return VPolytope(len(v), 0, (v,))


def segment(a: Sequence, b: Sequence) -> VPolytope:
    return convex_hull([a, b])


def _heights(p: VPolytope, z: Direction) -> list[int]:
    """<v, z> over P's image, in P's vertex order."""
    if z.n != p.n:
        raise PreconditionError("direction dimension mismatch")
    return [dot(v, z.z) for v in p.image[0]]


def face_ids(p: VPolytope, z: Direction) -> list[int]:
    """The ids of F(P, z)'s vertices, in P's vertex order, found on P's image."""
    hs = _heights(p, z)
    top = max(hs)
    return [i for i, h in enumerate(hs) if h == top]


def face_vertices(p: VPolytope, z: Direction) -> list[Vec]:
    """The vertices of F(P, z), in P's vertex order (`face_ids`)."""
    return [p.vertices[i] for i in face_ids(p, z)]


def support_value(p: VPolytope, z: Direction) -> Fraction:
    """h_P(z) = max <v, z> over P's vertices, exact (unnormalized): the top
    height on P's image over its denominator."""
    return _over(max(_heights(p, z)), p.image[1])


def support_set(p: VPolytope, z: Direction) -> VPolytope:
    """F(P, z): the face of P where the support value is attained."""
    return convex_hull(face_vertices(p, z))


def minkowski_sum(p: VPolytope, q: VPolytope) -> VPolytope:
    """P + Q: the two-body fold of `minkowski_sum_tagged`, which hulls the
    pairwise sums of P's and Q's images over lcm(den_P, den_Q)."""
    return minkowski_sum_tagged((p, q))[0]


def minkowski_sum_many(bodies: Sequence[VPolytope]) -> VPolytope:
    return minkowski_sum_tagged(bodies)[0]


def minkowski_sum_tagged(
        bodies: Sequence[VPolytope]) -> tuple[VPolytope, tuple[tuple[int, ...], ...]]:
    """The Minkowski sum of the bodies, plus one tag per vertex: the
    indices (i_1, ..., i_k) of the summand vertices, in the order of
    `bodies`, whose sum that vertex is.

    A vertex of a sum has exactly one decomposition, so the face of the sum
    in a direction z is the sum of the faces of the summands,
    F(K+L, z) = F(K, z) + F(L, z), and body j's face is the hull of the
    j-th tags of the vertices on it.

    The fold runs on integer images: each step adds the next summand's image
    to the partial sum's kept integer vertices, over the lcm of their
    denominators, and hulls those candidates (`_hull_of_image`).
    """
    if not bodies:
        raise PreconditionError("empty Minkowski sum")
    if any(b.n != bodies[0].n for b in bodies):
        raise PreconditionError("ambient dimension mismatch")
    # fold smallest-first: intermediate hulls stay small
    order = sorted(range(len(bodies)), key=lambda i: len(bodies[i].vertices))
    acc = bodies[order[0]]
    tags = [(j,) for j in range(len(acc.vertices))]
    rows, den = acc.image
    for i in order[1:]:
        iw, dw = bodies[i].image
        step = lcm(den, dw)
        iw = _scaled(iw, step // dw)
        cand: dict[tuple[int, ...], Optional[tuple[int, ...]]] = {}
        for v, t in zip(_scaled(rows, step // den), tags):
            for j, w in enumerate(iw):
                p = vadd(v, w)
                cand[p] = None if p in cand else t + (j,)  # None: two decompositions
        ints = sorted(cand)
        acc, keep = _hull_of_image(ints, step)
        rows, den = [ints[k] for k in keep], step
        tags = [cand[v] for v in rows]
        if None in tags:
            raise TheoryViolationError("a vertex of a Minkowski sum has two decompositions")
    slot = {body: k for k, body in enumerate(order)}
    return acc, tuple(tuple(t[slot[body]] for body in range(len(bodies))) for t in tags)


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


def _directions(p: VPolytope) -> list[Vec]:
    """Vertex differences v - v_0, spanning the direction space of aff(P)."""
    v0 = p.vertices[0]
    return [vsub(v, v0) for v in p.vertices[1:]]


def _edge_directions(p: VPolytope) -> list[Direction]:
    """Primitive edge directions with a canonical sign (first nonzero > 0)."""
    dirs: set[tuple[int, ...]] = set()
    if p.dim == 1:
        pairs = [(0, 1)]
    elif p.dim == 2:
        cyc = p.cycle
        pairs = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
    elif p.dim == 3:
        pairs = [e.vertex_ids for e in p.edges]
    else:
        return []
    ints = p.image[0]
    for i, j in pairs:
        d = primitive(vsub(ints[j], ints[i]))
        lead = next(c for c in d if c != 0)
        if lead < 0:
            d = tuple(-c for c in d)
        dirs.add(d)
    return [Direction(d) for d in sorted(dirs)]


def dim_pspan(bodies: Sequence[VPolytope]) -> int:
    """dim pspan of the Minkowski sum of the bodies, without forming it."""
    if not bodies:
        raise PreconditionError("empty body list")
    n = bodies[0].n
    if any(b.n != n for b in bodies):
        raise PreconditionError("ambient dimension mismatch")
    diffs = [d for b in bodies for d in _directions(b)]
    return matrank(diffs) if diffs else 0


def diameter_sq(p: VPolytope) -> Fraction:
    if p.dim == 0:
        return Fraction(0)
    return max(norm_sq(vsub(v, w))
               for v, w in itertools.combinations(p.vertices, 2))


def _facet_chart(p: VPolytope) -> tuple[Sequence[int], list[tuple[Vec, object]]]:
    """P's pivot columns and the inequalities <y, z> <= b cutting out P's
    image in them.

    Keeping the pivot columns (the chart `convex_hull` uses for flat inputs)
    is injective on aff(P), and P's image there is full-dimensional: a
    full-dimensional P keeps all columns and its own facets, a flat polytope
    gets the facets of its projected hull, a segment two bounds and a point
    none.
    """
    if p.dim == p.n:
        return range(p.n), [(f.normal.z, f.offset) for f in p.facets]
    cols = pivot_columns(_directions(p))
    img = [tuple(v[c] for c in cols) for v in p.vertices]
    if p.dim == 0:
        return cols, []
    if p.dim == 1:
        (lo,), (hi,) = sorted(img)
        return cols, [((1,), hi), ((-1,), -lo)]
    return cols, [(f.normal.z, f.offset) for f in convex_hull(img).facets]


def contains_point(p: VPolytope, x: Sequence) -> bool:
    """Whether x lies in P: on aff(P), a rank test needed only when P is
    flat, and inside P's inequalities in its pivot-coordinate chart."""
    xv = as_vec(x)
    return _on_aff(p, xv) and _in_chart(_facet_chart(p), xv)


def _on_aff(p: VPolytope, xv: Vec) -> bool:
    """Whether x lies on aff(P): always when P is full-dimensional."""
    return p.dim == p.n or matrank(_directions(p) + [vsub(xv, p.vertices[0])]) == p.dim


def _in_chart(chart, xv: Vec) -> bool:
    """Whether x meets the inequalities of a `_facet_chart`, in its columns."""
    cols, ineqs = chart
    y = tuple(xv[c] for c in cols)
    return all(dot(y, z) <= b for z, b in ineqs)


def dist_sq_point(p: VPolytope, x: Sequence) -> Fraction:
    """Exact squared Euclidean distance from a point to the polytope."""
    return _dist_sq_point(p, _facet_chart(p), as_vec(x))


def _dist_sq_point(p: VPolytope, chart, xv: Vec) -> Fraction:
    """`dist_sq_point` with P's `_facet_chart` given, so that a caller reading
    many points against one flat body hulls its chart once.

    Enumerates affinely independent vertex subsets; a candidate projection is
    certified globally optimal by the KKT condition <x - y, w - y> <= 0 for
    every vertex w, which convexity makes sufficient.
    """
    verts = p.vertices
    if _on_aff(p, xv) and _in_chart(chart, xv):
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
    for body, other in ((q, p), (p, q)):
        chart = _facet_chart(body)  # once per body: a flat body's chart is a hull
        for v in other.vertices:
            best = max(best, _dist_sq_point(body, chart, v))
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


def minkowski_difference(p: VPolytope, q: VPolytope) -> Optional[VPolytope]:
    """P minus Q in the Minkowski sense: the body M with M + Q = P, or None.

    Decided by pairing vertices in P's pivot-coordinate chart
    (`_facet_chart`), on P's and Q's images over one denominator, with P's
    maximal heights as offsets: every inequality is tight at a vertex of P.
    A flat P first needs dir Q inside dir P, a rank test that a
    full-dimensional P always passes; the chart is then injective on
    everything involved.

    If P = M + Q, P's normal fan refines Q's (Schneider, Convex Bodies,
    2nd ed. 2014, §1.7 and §3.1-3.2): for a vertex v of P, the sum z of the
    inequality normals tight at v is interior to N(P, v), so F(Q, z) is a
    single vertex w_v.  Two maximizers of <., z> over Q mean no M.
    Otherwise M = hull(v - w_v) exactly when, for every inequality
    <y, z_i> <= b_i of P's image, max_v <v - w_v, z_i> + h_Q(z_i) <= b_i:
    that puts M + Q inside P, and every v = (v - w_v) + w_v lies in M + Q.
    Only that M is hulled, from the paired differences of the images.
    """
    if p.n != q.n:
        raise PreconditionError("ambient dimension mismatch")
    if p.dim < p.n and q.dim > 0 and matrank(_directions(p) + _directions(q)) > p.dim:
        return None
    cols, ineqs = _facet_chart(p)
    den = lcm(p.image[1], q.image[1])
    fp, fq = (_scaled(vs, den // d) for vs, d in (p.image, q.image))
    ip, iq = ([tuple(v[c] for c in cols) for v in vs] for vs in (fp, fq))
    # heights of P's and Q's vertices along each inequality normal
    hp = [[dot(v, z) for v in ip] for z, _ in ineqs]
    hq = [[dot(w, z) for w in iq] for z, _ in ineqs]
    offsets = [max(h) for h in hp]
    pick = []
    for i in range(len(ip)):
        tight = [k for k, b in enumerate(offsets) if hp[k][i] == b]
        score = [sum(hq[k][j] for k in tight) for j in range(len(q.vertices))]
        top = max(score)
        if score.count(top) > 1:
            return None
        pick.append(score.index(top))
    for hpk, hqk, b in zip(hp, hq, offsets):
        if max(h - hqk[j] for h, j in zip(hpk, pick)) + max(hqk) > b:
            return None
    return _hull_of_image(sorted({vsub(v, fq[j]) for v, j in zip(fp, pick)}), den)[0]


def is_summand(q: VPolytope, p: VPolytope) -> bool:
    """Whether Q is a Minkowski summand of P."""
    return minkowski_difference(p, q) is not None
