"""Mixed area measures of polytope tuples and the support of S(B^3, C, .).

For polytopes the mixed area measure is atomic.  Atoms are stored with
rationalized weights: the measure of the unit direction z/|z| is w(z)*|z|,
so that integrals of support functions against the measure stay rational.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, sqrt
from typing import Sequence

from .errors import PreconditionError, TheoryViolationError
from .geometry import (
    DiffArg,
    Direction,
    VPolytope,
    convex_hull,
    expand_support_diffs,
    minkowski_sum_many,
    support_set,
    support_value,
)
from .linalg import primitive, solve_linear, vsub


@dataclass(frozen=True)
class AtomicMeasure:
    """Signed measure on the sphere with finitely many atoms at Directions.

    atoms maps z to w(z); the true measure of {z/|z|} is w(z)*|z|.  Zero
    weights are never stored, so measure equality is map equality.
    """

    atoms: dict[Direction, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        for z, w in list(self.atoms.items()):
            if w == 0:
                del self.atoms[z]

    def __eq__(self, other):
        return isinstance(other, AtomicMeasure) and self.atoms == other.atoms

    def is_zero(self) -> bool:
        return not self.atoms

    def scaled(self, c) -> "AtomicMeasure":
        c = Fraction(c)
        return AtomicMeasure({z: c * w for z, w in self.atoms.items() if c * w != 0})

    def plus(self, other: "AtomicMeasure") -> "AtomicMeasure":
        out = dict(self.atoms)
        for z, w in other.atoms.items():
            nw = out.get(z, Fraction(0)) + w
            if nw == 0:
                out.pop(z, None)
            else:
                out[z] = nw
        return AtomicMeasure(out)

    def integrate_support(self, body: VPolytope) -> Fraction:
        """Integral of h_body against the measure, exact."""
        return sum((support_value(body, z) * w for z, w in self.atoms.items()),
                   Fraction(0))

    def total_mass_float(self) -> float:
        return sum(float(w) * sqrt(z.norm_sq()) for z, w in self.atoms.items())


def _projected_body(body: VPolytope, drop: int) -> VPolytope:
    pts = [tuple(v[c] for c in range(body.n) if c != drop) for v in body.vertices]
    return convex_hull(pts)


def _face_weight(bodies: Sequence[VPolytope], z: Direction) -> Fraction:
    """Rationalized weight w(z) = v(F(K_1,z),...,F(K_{n-1},z)) / |z|, computed
    in the coordinate projection that drops the largest normal component."""
    n = z.n
    j = max(range(n), key=lambda k: abs(z.z[k]))
    faces = [support_set(k, z) for k in bodies]
    if n == 2:
        f = faces[0]
        coords = [v[1 - j] for v in f.vertices]
        return Fraction(max(coords) - min(coords), abs(z.z[j]))
    from .mixed_volume import mixed_volume

    proj = [_projected_body(f, j) for f in faces]
    return Fraction(mixed_volume(proj), abs(z.z[j]))


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
    total = minkowski_sum_many(list(bodies))
    atoms: dict[Direction, Fraction] = {}
    if total.dim == n:
        for f in total.facets:
            w = _face_weight(bodies, f.normal)
            if w != 0:
                atoms[f.normal] = w
    elif total.dim == n - 1:
        # flat tuple: all the area sits on the two normals of its hyperplane
        v0 = total.vertices[0]
        diffs = [vsub(v, v0) for v in total.vertices[1:]]
        normal = _hyperplane_normal(diffs)
        for z in (Direction(normal), Direction(tuple(-c for c in normal))):
            w = _face_weight(bodies, z)
            if w != 0:
                atoms[z] = w
    return AtomicMeasure(atoms)


def _hyperplane_normal(diffs) -> tuple[int, ...]:
    sol = solve_linear([tuple(r) for r in diffs], [0] * len(diffs))
    if sol is None or len(sol[1]) != 1:
        raise TheoryViolationError("expected a one-dimensional normal space")
    return primitive(sol[1][0])


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
            rows = [(Fraction(z1.z[i]), Fraction(z2.z[i])) for i in range(u.n)]
            sol = solve_linear(rows, u.z)
            if sol is None:
                continue
            (a, b), null = sol
            if null:
                raise TheoryViolationError("arc ends are not independent")
            if a >= 0 and b >= 0:
                return True
        return False


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


def ball_polytope(m: int, n: int = 3) -> VPolytope:
    """Inscribed rational approximation of the unit ball with >= m facets."""
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
