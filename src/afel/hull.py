"""Exact convex hull with facet structure, dimensions 2 through 4.

Input is a deduplicated list of integer coordinate tuples that affinely span
R^d.  A planar set gets Andrew's monotone chain.  In R^3 and R^4 the
algorithm is gift wrapping: facets are discovered by rotating a supporting
hyperplane around ridges, with every predicate an exact integer sign
computation, so coplanar and collinear configurations need no special
casing.  Each facet is materialized as the full set of input points on its
supporting hyperplane and projected along its normal's largest coordinate:
a 3D facet's vertex cycle and area come from the monotone chain of that
projection, a 4D facet's vertices and volume from wrapping it in R^3.

The facet list is the only output.  Ridges only drive and close the wrap:
a 3D ridge is a side of a facet's vertex cycle, a 4D ridge is the vertex
cycle of a 2-face (a facet of the facet's R^3 wrap).  Each is pending until
the facet across it is found, and nothing is recorded about it.

Outputs are combinatorial: indices into the input point list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import TheoryViolationError
from .linalg import cross3, cross4, dot, primitive, vsub


@dataclass(frozen=True)
class RawFacet:
    normal: tuple[int, ...]  # primitive outward integer normal
    offset: int  # max over points of <p, normal>
    points: tuple[int, ...]  # extreme points on the facet; CCW cycle for d=3
    drop: int  # coordinate dropped for the facet projection
    proj_volume: Fraction  # (d-1)-volume of the projected facet


@dataclass(frozen=True)
class HullResult:
    vertex_ids: tuple[int, ...]  # sorted
    facets: tuple[RawFacet, ...]  # in wrap order; the edges (i, j) in cycle order for d=2
    cycle: Optional[tuple[int, ...]] = None  # d=2 only: CCW vertex cycle


def hull_structure(points: list[tuple[int, ...]], d: int) -> HullResult:
    if d == 2:
        return _hull_2d(points)
    if d in (3, 4):
        return _wrap(points, d)
    raise ValueError(f"unsupported hull dimension {d}")


def _chain_2d(points) -> tuple[int, ...]:
    """CCW cycle of the extreme points of a planar point set (Andrew's
    monotone chain), starting at the lexicographically smallest point."""
    order = sorted(range(len(points)), key=lambda i: points[i])

    def chain(ids):
        out: list[int] = []
        for i in ids:
            while len(out) >= 2:
                a, b = points[out[-2]], points[out[-1]]
                c = points[i]
                turn = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
                if turn <= 0:  # drop right turns and collinear middles
                    out.pop()
                else:
                    break
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(reversed(order))
    return tuple(lower[:-1] + upper[:-1])


def _hull_2d(points) -> HullResult:
    cycle = _chain_2d(points)
    facets = []
    for k in range(len(cycle)):
        i, j = cycle[k], cycle[(k + 1) % len(cycle)]
        e = vsub(points[j], points[i])
        n = primitive((e[1], -e[0]))
        drop = 0 if abs(n[0]) >= abs(n[1]) else 1
        plen = Fraction(abs(e[1] if drop == 0 else e[0]))
        facets.append(RawFacet(n, dot(points[i], n), (i, j), drop, plen))
    return HullResult(tuple(sorted(cycle)), tuple(facets), cycle)


def _perp_vector(z, basis, d) -> tuple[int, ...]:
    """Nonzero integer vector orthogonal to z and every basis vector."""
    if not basis:
        i = next(k for k in range(d) if z[k] != 0)
        j = (i + 1) % d
        w = [0] * d
        w[j], w[i] = z[i], -z[j]
        return tuple(w)
    if d == 3:
        return cross3(z, basis[0])
    if len(basis) == 1:
        for k in range(4):
            e = tuple(1 if t == k else 0 for t in range(4))
            w = cross4(z, basis[0], e)
            if any(w):
                return w
        raise TheoryViolationError("no perpendicular found")
    return cross4(z, basis[0], basis[1])


def _initial_facet(points, d) -> tuple[tuple[int, ...], int]:
    """Pivot a supporting hyperplane around a lex-min vertex until it holds
    d affinely independent points."""
    i0 = min(range(len(points)), key=lambda i: points[i])
    p0 = points[i0]
    z: tuple[int, ...] = tuple([-1] + [0] * (d - 1))
    basis: list[tuple[int, ...]] = []  # diffs of on-plane points, aff. independent
    while len(basis) < d - 1:
        w = _perp_vector(z, basis, d)
        a = []
        b = []
        for p in points:
            v = vsub(p, p0)
            a.append(dot(v, z))
            b.append(dot(v, w))
        if not any(x > 0 for x in b):
            w = tuple(-x for x in w)
            b = [-x for x in b]
        if not any(x > 0 for x in b):
            raise TheoryViolationError("input not full-dimensional")
        # rotate z toward w until the first point is hit
        best = None
        for i, (ai, bi) in enumerate(zip(a, b)):
            if bi <= 0:
                continue
            if best is None or ai * b[best] > a[best] * bi:  # -ai/bi < -a*/b*
                best = i
        num, den = -a[best], b[best]
        z = primitive(tuple(den * zi + num * wi for zi, wi in zip(z, w)))
        basis.append(vsub(points[best], p0))
        # recompute offsets relative to the (possibly rotated) plane
        h = dot(p0, z)
        if any(dot(p, z) > h for p in points):
            raise TheoryViolationError("pivoted hyperplane does not support the points")
    return z, dot(p0, z)


def divergence_volume(facets, d: int) -> Fraction:
    """Divergence theorem over (offset, projected volume, normal[drop])
    facet triples: (1/d) * sum of offset * proj_volume / |normal[drop]|."""
    total = Fraction(0)
    for offset, proj_volume, z_drop in facets:
        total += Fraction(offset * proj_volume, abs(z_drop))
    return Fraction(total, d)


def _shoelace(verts) -> Fraction:
    s = 0
    for k in range(len(verts)):
        x0, y0 = verts[k]
        x1, y1 = verts[(k + 1) % len(verts)]
        s += x0 * y1 - x1 * y0
    return Fraction(abs(s), 2)


def _facet_substructure(points, onplane, normal, d):
    """Vertices (extreme points), ridges, dropped coordinate and projected
    volume of the facet spanned by the points in `onplane`.  The facet is
    projected by dropping the normal's largest coordinate; a 3D facet's
    cycle and area come from the monotone chain of the projection, its
    ridges are the cycle's sides.  A 4D facet's vertices and volume come
    from wrapping it in R^3, its ridges are the vertex cycles of that
    wrap's facets: the chain drops collinear middles, so the first three
    points of a ridge span it."""
    j = max(range(d), key=lambda k: abs(normal[k]))
    proj = [tuple(points[i][k] for k in range(d) if k != j) for i in onplane]
    if d == 3:
        cycle = _chain_2d(proj)
        pvol = _shoelace([proj[k] for k in cycle])
        pts = tuple(onplane[k] for k in cycle)
        ridges = [(pts[t], pts[(t + 1) % len(pts)]) for t in range(len(pts))]
        # keep facet cycle consistently oriented CCW as seen from outside
        e0 = vsub(points[pts[1]], points[pts[0]])
        e1 = vsub(points[pts[2]], points[pts[1]])
        if dot(cross3(e0, e1), normal) < 0:
            pts = tuple(reversed(pts))
    else:
        sub = _wrap(proj, 3)
        pvol = divergence_volume(((f.offset, f.proj_volume, f.normal[f.drop])
                                  for f in sub.facets), 3)
        pts = tuple(sorted(onplane[k] for k in sub.vertex_ids))
        ridges = [tuple(onplane[k] for k in f.points) for f in sub.facets]
    return pts, ridges, j, pvol


def _wrap(points, d) -> HullResult:
    n_pts = len(points)
    facet_key: dict[tuple, int] = {}
    facets: list[RawFacet] = []
    onplane_flags: list[list[bool]] = []
    pending: dict[frozenset, tuple[int, tuple[int, ...]]] = {}

    def add_facet(normal, offset) -> int:
        key = (normal, offset)
        if key in facet_key:
            return facet_key[key]
        flags = []
        onplane = []
        for i in range(n_pts):
            s = dot(points[i], normal)
            if s > offset:
                raise TheoryViolationError("point beyond a facet hyperplane")
            on = s == offset
            flags.append(on)
            if on:
                onplane.append(i)
        pts, ridges, drop, pvol = _facet_substructure(points, onplane, normal, d)
        fid = len(facets)
        facet_key[key] = fid
        facets.append(RawFacet(normal, offset, pts, drop, pvol))
        onplane_flags.append(flags)
        for rs in ridges:
            rkey = frozenset(rs)
            if rkey in pending:
                del pending[rkey]
            else:
                pending[rkey] = (fid, rs)
        return fid

    z0, h0 = _initial_facet(points, d)
    add_facet(z0, h0)

    while pending:
        rkey, (fid, rpts) = next(iter(pending.items()))
        facet = facets[fid]
        r0 = points[rpts[0]]
        u1 = vsub(points[rpts[1]], r0)
        u2 = vsub(points[rpts[2]], r0) if d == 4 else None

        def plane_normal(v):
            return cross3(u1, v) if d == 3 else cross4(u1, u2, v)

        q_in = None
        for i in facet.points:
            v = vsub(points[i], r0)
            nv = plane_normal(v)
            if any(nv):
                q_in = v
                break
        if q_in is None:
            raise TheoryViolationError("facet has no point off its ridge")

        flags = onplane_flags[fid]
        best_n = None
        rb = 0
        for c in range(n_pts):
            if flags[c]:
                continue
            if best_n is None:
                nc = plane_normal(vsub(points[c], r0))
                if not any(nc):
                    raise TheoryViolationError("candidate point on the ridge's affine span")
                if dot(q_in, nc) > 0:
                    nc = tuple(-x for x in nc)
                best_n = nc
                rb = dot(r0, best_n)
                continue
            if dot(points[c], best_n) > rb:
                nc = plane_normal(vsub(points[c], r0))
                if dot(q_in, nc) > 0:
                    nc = tuple(-x for x in nc)
                best_n = nc
                rb = dot(r0, best_n)
        if best_n is None:
            raise TheoryViolationError("ridge with no opposite facet: input degenerate")
        z_new = primitive(best_n)
        add_facet(z_new, dot(r0, z_new))
        if rkey in pending:
            raise TheoryViolationError("wrap failed to close ridge")

    verts = sorted({i for f in facets for i in f.points})
    return HullResult(tuple(verts), tuple(facets))
