"""Mixed area measures of polytope tuples and the support of S(B^3, C, .).

For polytopes the mixed area measure is atomic.  Atoms are stored with
rationalized weights: the measure of the unit direction z/|z| is w(z)*|z|,
so that integrals of support functions against the measure stay rational.

The weight at a direction z is the (n-1)-dim mixed volume of the summand
faces F(K_i, z) (`_face_weight`; Schneider, Convex Bodies, 2nd ed. 2014,
§5.1), read on integer rows of the bodies' images (`VPolytope.image`), so
no mixed-volume route or `volume` is called.  In R^3 it is the planar
measure integral one dimension lower, as one integer sum over the sides of
one projected face's cycle (`_mixed_area_2d`), with no hull of the other
face; in R^4 the projected faces are hulled and integrated against their
R^3 measure.  The planar measure S(P, .) in R^2 reads the same sides
(`_side_normals`).  When some F(K_i, z) is a single vertex the weight is
exactly 0, because a mixed volume with a point argument vanishes (it is
translation invariant and homogeneous in each argument), so that direction
is skipped.

The atoms and their faces in R^3 and R^4 are found on one of two paths.

- Two full-dimensional bodies in R^3: the overlay of their Gauss maps
  (Fogel and Halperin, Computer-Aided Design 39, 2007), restricted to what
  the measure reads, with no Minkowski sum and no hull (`_gauss_overlay`).
  An atom sits only where F(K, z) + F(C, z) is 2-dimensional: at a facet
  normal of K or of C, where the faces are that facet and the other body's
  face; or where an edge arc of K's Gauss map crosses one of C's in both
  relative interiors, where the faces are the two edges.  Arcs on one great
  circle meet only at facet normals.  A pair of arcs is tested only when
  the ends of K's arc lie strictly on opposite sides of the plane of C's,
  which every crossing needs.
- Every other tuple (a flat body, a segment or a point in R^3, and every
  tuple in R^4): the facets of the sum K_1 + ... + K_{n-1}, whose
  summand faces are read off its vertex tags (`minkowski_sum_tagged`):
  F(K_1 + ... + K_{n-1}, z) is the sum of the F(K_i, z), so body i's face
  is the hull of the i-th tags of the facet's vertices, and no body is
  scanned again.  For a flat tuple every body is its own face in both
  normals of the hyperplane.  The overlay needs both Gauss maps to be
  full-dimensional: a flat body's Gauss map is not cut into facet normals
  and edge arcs, and in R^4 the Gauss maps of the three summands are
  overlaid in the 3-sphere, which this module does not do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod, sqrt
from typing import Iterable, Sequence

from .errors import PreconditionError, TheoryViolationError
from .geometry import (
    DiffArg,
    Direction,
    VPolytope,
    Vec,
    convex_hull,
    expand_support_diffs,
    face_ids,
    minkowski_sum_tagged,
    support_value,
)
from .hull import _chain_2d
from .linalg import cross3, cross4, dot, pivot_columns, primitive, vsub


@dataclass(frozen=True)
class AtomicMeasure:
    """Signed measure on the sphere with finitely many atoms at Directions.

    atoms maps z to w(z); the true measure of {z/|z|} is w(z)*|z|.  Zero
    weights are never stored, so measure equality is map equality.
    """

    atoms: dict[Direction, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        # a filtered copy: later writes to the caller's dict cannot reach it
        object.__setattr__(self, "atoms", {z: w for z, w in self.atoms.items() if w != 0})

    def __eq__(self, other):
        return isinstance(other, AtomicMeasure) and self.atoms == other.atoms

    def is_zero(self) -> bool:
        return not self.atoms

    def scaled(self, c) -> "AtomicMeasure":
        c = Fraction(c)
        return AtomicMeasure({z: c * w for z, w in self.atoms.items()})

    def plus(self, other: "AtomicMeasure") -> "AtomicMeasure":
        out = dict(self.atoms)
        for z, w in other.atoms.items():
            out[z] = out.get(z, Fraction(0)) + w
        return AtomicMeasure(out)

    def integrate_support(self, body: VPolytope) -> Fraction:
        """Integral of h_body against the measure, exact."""
        return sum((support_value(body, z) * w for z, w in self.atoms.items()),
                   Fraction(0))

    def total_mass_float(self) -> float:
        return sum(float(w) * sqrt(z.norm_sq()) for z, w in self.atoms.items())


Rows = Sequence[tuple[int, ...]]


def _face_weight(faces: Sequence[tuple[Rows, int]], z: Direction) -> Fraction:
    """Rationalized weight w(z) = v(F_1,...,F_{n-1}) / |z| of the summand
    faces F_i = F(K_i, z), each given as (rows, den): its vertices times den,
    as integer rows of its body's image.

    The mixed volume is taken in the coordinate projection that drops the
    largest normal component j, which scales (n-1)-volumes by |z_j| / |z|,
    and it is multilinear, so each face keeps its own denominator.  In R^3 it
    is the integer edge sum of `_mixed_area_2d`; in R^4 it is the measure
    integral (1/3) * int h_{F_3} dS(F_1, F_2, .) of the projected faces'
    hulls in R^3.
    """
    if any(len(rows) == 1 for rows, _ in faces):
        return Fraction(0)  # a point argument: the mixed volume is 0
    n = z.n
    j = max(range(n), key=lambda k: abs(z.z[k]))
    proj = [[v[:j] + v[j + 1:] for v in rows] for rows, _ in faces]
    scale = (n - 1) * abs(z.z[j]) * prod(den for _, den in faces)
    if n == 3:
        return Fraction(_mixed_area_2d(*proj), scale)
    hulls = [convex_hull(f) for f in proj]
    return Fraction(mixed_area_measure(hulls[:-1]).integrate_support(hulls[-1]), scale)


def _mixed_area_2d(p: Rows, q: Rows) -> int:
    """2 V(P, Q) for planar integer point sets: int h_Q dS(P, .), the sum of
    h_Q(m_e) over the sides e of P's counter-clockwise cycle (`_chain_2d`),
    with m_e the side's outer normal as long as the side (gcd(e) times the
    primitive one).  A segment's cycle has two sides, one each way, and no
    hull of Q is needed."""
    return sum(max(x * a + y * b for x, y in q) for a, b in _side_normals(p, _chain_2d(p)))


def _side_normals(rows: Rows, cycle: Sequence[int]) -> list[tuple[int, int]]:
    """The outer normals (e_y, -e_x) of the sides e of a counter-clockwise
    planar cycle through the rows, each as long as its side."""
    pts = [rows[i] for i in cycle]
    return [(b[1] - a[1], a[0] - b[0]) for a, b in zip(pts, pts[1:] + pts[:1])]


def _planar_measure(p: VPolytope) -> AtomicMeasure:
    """S(P, .) in R^2: an atom at each side's primitive outer normal z,
    weighing the side's length over |z|, the gcd of its `_side_normals` row
    over the image's denominator.  A polygon's sides follow
    `VPolytope.cycle`; a segment's two sides start from its vertex 1."""
    if p.dim == 0:
        return AtomicMeasure({})
    ints, den = p.image
    return AtomicMeasure({Direction(primitive(m)): Fraction(gcd(*m), den)
                          for m in _side_normals(ints, p.cycle if p.dim == 2 else (1, 0))})


def mixed_area_measure(bodies: Sequence[VPolytope]) -> AtomicMeasure:
    """S(K_1,...,K_{n-1},.) as an atomic measure on facet normals of the sum.

    Uniqueness contract: integrating any h_K against the result and dividing
    by n reproduces the mixed volume V(K_1,...,K_{n-1},K).
    """
    if not bodies:
        raise PreconditionError("empty body tuple")
    n = bodies[0].n
    if any(b.n != n for b in bodies):
        raise PreconditionError("ambient dimension mismatch")
    if len(bodies) != n - 1:
        raise PreconditionError(f"mixed area measure in R^{n} needs {n - 1} bodies")
    if n == 2:
        return _planar_measure(bodies[0])
    if n == 3 and all(b.dim == 3 for b in bodies):
        return _gauss_overlay(*bodies)
    total, tags = minkowski_sum_tagged(bodies)
    atoms: dict[Direction, Fraction] = {}
    if total.dim == n:
        for f in total.facets:
            faces = [_face(b, {tags[v][i] for v in f.vertex_ids}) for i, b in enumerate(bodies)]
            w = _face_weight(faces, f.normal)
            if w != 0:
                atoms[f.normal] = w
    elif total.dim == n - 1:
        # flat tuple: all the area sits on the two normals of its hyperplane,
        # and each body is its own face in both
        normal = _hyperplane_normal(total)
        faces = [b.image for b in bodies]
        for z in (Direction(normal), Direction(tuple(-c for c in normal))):
            w = _face_weight(faces, z)
            if w != 0:
                atoms[z] = w
    return AtomicMeasure(atoms)


def _gauss_overlay(k: VPolytope, c: VPolytope) -> AtomicMeasure:
    """S(K, C, .) for two full-dimensional 3-polytopes from the facet normals
    and edge arcs of their Gauss maps (module docstring).  Faces are rows of
    the bodies' images: the other body's face at a facet normal is read by
    `face_ids`.

    An edge arc e = pos{z_1, z_2} of K is tested against an arc f of C only
    when <N_f, z_1> and <N_f, z_2> have strictly opposite signs, N_f the
    normal of f's plane.  That filter drops no crossing: a crossing x, on f's
    circle and x = a*z_1 + b*z_2 with a, b > 0, has
    a*<N_f, z_1> + b*<N_f, z_2> = <N_f, x> = 0, so the two signs are
    strictly opposite, or both 0, when the arcs lie on one great circle and
    meet only at facet normals.
    """
    bodies = (k, c)
    atoms: dict[Direction, Fraction] = {}
    for i, b in enumerate(bodies):
        other = bodies[1 - i]
        for f in b.facets:
            z = f.normal
            if z in atoms:
                continue  # a facet normal of both bodies
            ids = face_ids(other, z)
            if len(ids) == 1:
                continue
            facet, face = _face(b, f.vertex_ids), _face(other, ids)
            atoms[z] = _face_weight([facet, face] if i == 0 else [face, facet], z)
    arcs_k, arcs_c = ([(_arc(z1.z, z2.z), _face(b, e.vertex_ids))
                       for (z1, z2), e in zip(ball_support_arcs(b).arcs, b.edges)]
                      for b in bodies)
    normals = [f.normal.z for f in k.facets]
    # sides[f][i]: the side of arc f's plane that K's facet normal i lies on
    sides = [[_sign(dot(arc_f[0], u)) for u in normals] for arc_f, _ in arcs_c]
    for (arc_e, edge_e), e in zip(arcs_k, k.edges):
        ea, eb = e.facet_ids  # the facets whose normals end arc e
        for (arc_f, edge_f), side in zip(arcs_c, sides):
            if side[ea] * side[eb] >= 0:
                continue  # arc e does not cross f's circle inside (docstring)
            x = cross3(arc_e[0], arc_f[0])
            if not _in_arc(x, arc_e, strict=True):
                x = (-x[0], -x[1], -x[2])
                if not _in_arc(x, arc_e, strict=True):
                    continue
            # at an arc end the face is a facet, counted above
            if _in_arc(x, arc_f, strict=True):
                z = Direction(primitive(x))
                atoms[z] = _face_weight([edge_e, edge_f], z)
    return AtomicMeasure(atoms)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _face(b: VPolytope, ids: Iterable[int]) -> tuple[Rows, int]:
    """The face of b through the vertex ids, as (rows, den) of b's image."""
    ints, den = b.image
    return [ints[v] for v in ids], den


def _hyperplane_normal(flat: VPolytope) -> tuple[int, ...]:
    """Primitive normal of the hyperplane of an (n-1)-dimensional body: the
    generalized cross product of n-1 independent vertex differences (the
    pivot columns of the transposed differences pick them)."""
    v0 = flat.vertices[0]
    diffs = [vsub(v, v0) for v in flat.vertices[1:]]
    basis = [diffs[i] for i in pivot_columns(list(zip(*diffs)))]
    return primitive(cross3(*basis) if flat.n == 3 else cross4(*basis))


def mixed_area_diff(args: Sequence[DiffArg]) -> AtomicMeasure:
    """Signed atomic measure from the multilinear expansion over plus/minus
    parts of any SupportDiff arguments."""
    if not args:
        raise PreconditionError("empty argument tuple")
    n = args[0].n
    if len(args) != n - 1:
        raise PreconditionError(f"needs exactly {n - 1} arguments")
    out = AtomicMeasure({})
    for sign, tup in expand_support_diffs(args):
        out = out.plus(mixed_area_measure(tup).scaled(sign))
    return out


@dataclass(frozen=True)
class ArcSupport:
    """Finite union of closed geodesic arcs, each the unit-sphere trace of the
    2D cone spanned by two independent integer directions."""

    arcs: tuple[tuple[Direction, Direction], ...]

    def contains(self, u: Direction) -> bool:
        """Exact membership: u in pos{z1, z2} for some arc."""
        for z1, z2 in self.arcs:
            arc = _arc(z1.z, z2.z)
            if dot(u.z, arc[0]) == 0 and _in_arc(u.z, arc):
                return True
        return False


def _arc(z1: Vec, z2: Vec) -> tuple[Vec, Vec, Vec]:
    """The geodesic arc pos{z1, z2} of two independent integer directions,
    as (N, z2 x N, N x z1) with N = z1 x z2, its plane's normal."""
    normal = cross3(z1, z2)
    if not any(normal):
        raise TheoryViolationError("arc ends are not independent")
    return normal, cross3(z2, normal), cross3(normal, z1)


def _in_arc(u: Vec, arc: tuple[Vec, Vec, Vec], strict: bool = False) -> bool:
    """u in pos{z1, z2}, for an integer u in the arc's plane; strict: in its
    relative interior, not at an end.  With u = a*z1 + b*z2,
    <u, z2 x N> = a*|N|^2 and <u, N x z1> = b*|N|^2."""
    a, b = dot(u, arc[1]), dot(u, arc[2])
    return a > 0 and b > 0 if strict else a >= 0 and b >= 0


def ball_support_arcs(c: VPolytope) -> ArcSupport:
    """supp S(B^3, C, .) for a full-dimensional 3-polytope C: one closed arc
    per edge of C, spanned by the two adjacent facet normals."""
    if c.n != 3:
        raise PreconditionError("ball support arcs require ambient dimension 3")
    if c.dim != 3:
        raise PreconditionError("C must be full-dimensional (supercritical)")
    arcs = []
    for e in c.edges:
        fa, fb = e.facet_ids
        arcs.append((c.facets[fa].normal, c.facets[fb].normal))
    return ArcSupport(tuple(arcs))


def rational_sphere_points(side: int, n: int = 3) -> list[tuple]:
    """Rational points on the unit (n-1)-sphere from stereographic parameters
    on two charts covering both hemispheres."""
    params = [Fraction(2 * i - (side - 1), side - 1) for i in range(side)]
    pts = set()
    for ss in itertools.product(params, repeat=n - 1):
        r2 = sum(s * s for s in ss)
        den = 1 + r2
        head = tuple(2 * s / den for s in ss)
        pts.add(head + ((1 - r2) / den,))
        pts.add(head + ((r2 - 1) / den,))
    return sorted(pts)


@lru_cache
def ball_polytope(m: int, n: int = 3) -> VPolytope:
    """Inscribed rational approximation of the unit ball with >= m facets.

    Built once per (m, n) in a process: a `VPolytope` is never mutated, so
    every caller may share the one body."""
    if n not in (3, 4):
        raise PreconditionError("rational ball approximation supports n in {3, 4}")
    side = max(3, isqrt(max(m, 4) // 4) + 1)
    while True:
        b = convex_hull(rational_sphere_points(side, n))
        if b.facets is not None and len(b.facets) >= m:
            return b
        side += 2


def ball_measure_numeric(c_tuple: Sequence[VPolytope], m: int) -> AtomicMeasure:
    """Numeric support oracle: S(B_m, C_1, ..., C_{n-2}, .) for a rational
    inscribed ball approximation with at least m facets.  Documented for
    convergence studies only; the exact n = 3 path is ball_support_arcs."""
    if not c_tuple:
        raise PreconditionError("empty tuple")
    n = c_tuple[0].n
    if n not in (3, 4):
        raise PreconditionError("numeric ball measure supports n in {3, 4}")
    if len(c_tuple) != n - 2:
        raise PreconditionError(f"needs {n - 2} bodies in R^{n}")
    b = ball_polytope(m, n)
    return mixed_area_measure([b] + list(c_tuple))


def significant_atoms(measure: AtomicMeasure, tau: float = 1e-9) -> list[tuple[Direction, float]]:
    """Atoms whose true mass w*|z| exceeds the threshold, as floats."""
    out = []
    for z, w in measure.atoms.items():
        mass = float(w) * sqrt(z.norm_sq())
        if mass > tau:
            out.append((z, mass))
    return out
