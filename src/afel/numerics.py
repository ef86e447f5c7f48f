"""Certified floating-point quantities: mean width, Steiner point, constants.

Everything here is computed with mpmath interval arithmetic at 150 bits and
reported as a float together with a conservative absolute error bound.  The
exact kernel never consumes these values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath import iv

from .errors import PreconditionError, TheoryViolationError
from .geometry import VPolytope
from .linalg import cross3, dot, norm_sq, vsub

iv.prec = 150


@dataclass(frozen=True)
class FloatWithError:
    value: float
    abs_err: float


def iv_frac(q) -> "iv.mpf":
    f = Fraction(q)
    return iv.mpf(f.numerator) / iv.mpf(f.denominator)


def iv_sqrt_frac(q) -> "iv.mpf":
    f = Fraction(q)
    if f < 0:
        raise PreconditionError("negative radicand")
    return iv.sqrt(iv_frac(f))


def to_float_err(x) -> FloatWithError:
    mid = float(mpmath.mpf(x.mid))
    err = float(mpmath.mpf(x.delta)) + abs(mid) * 1e-15 + 5e-324
    return FloatWithError(mid, err)


def unit_ball_volume(n: int) -> FloatWithError:
    """kappa_n for n = 2, 3, 4."""
    if n == 2:
        return to_float_err(iv.pi)
    if n == 3:
        return to_float_err(4 * iv.pi / 3)
    if n == 4:
        return to_float_err(iv.pi ** 2 / 2)
    raise PreconditionError(f"no constant for dimension {n}")


def sphere_surface_area(n: int) -> FloatWithError:
    """omega_n = n * kappa_n."""
    if n == 2:
        return to_float_err(2 * iv.pi)
    if n == 3:
        return to_float_err(4 * iv.pi)
    if n == 4:
        return to_float_err(2 * iv.pi ** 2)
    raise PreconditionError(f"no constant for dimension {n}")


def _angle_between(z1: Sequence[int], z2: Sequence[int]) -> "iv.mpf":
    """Certified angle between two nonzero integer vectors in R^3."""
    c = dot(z1, z2)
    s2 = norm_sq(cross3(z1, z2))
    return iv.atan2(iv_sqrt_frac(s2), iv_frac(c))


def mean_width_3d_iv(p: VPolytope) -> "iv.mpf":
    if p.n != 3:
        raise PreconditionError("mean width implemented for ambient dimension 3")
    if p.dim == 0:
        return iv.mpf(0)
    if p.dim == 1:
        return iv_sqrt_frac(norm_sq(vsub(p.vertices[-1], p.vertices[0]))) / 2
    if p.dim == 2:
        cyc = p.cycle
        per = iv.mpf(0)
        for k in range(len(cyc)):
            a = p.vertices[cyc[k]]
            b = p.vertices[cyc[(k + 1) % len(cyc)]]
            per += iv_sqrt_frac(norm_sq(vsub(b, a)))
        return per / 4
    total = iv.mpf(0)
    for e in p.edges:
        i, j = e.vertex_ids
        fa, fb = e.facet_ids
        length = iv_sqrt_frac(norm_sq(vsub(p.vertices[j], p.vertices[i])))
        angle = _angle_between(p.facets[fa].normal.z, p.facets[fb].normal.z)
        total += length * angle
    return total / (4 * iv.pi)


def mean_width_3d(p: VPolytope) -> FloatWithError:
    """Mean width of a polytope in R^3.

    For the full-dimensional case this is the edge sum (1/4pi) * sum of
    length(e) * exterior angle(e); the normalization is pinned by the segment
    case w = L/2.  Polygons reduce to perimeter/4, segments to half their
    length.
    """
    return to_float_err(mean_width_3d_iv(p))


def _unit_iv(z: Sequence[int]) -> tuple:
    nrm = iv_sqrt_frac(norm_sq(z))
    return tuple(iv.mpf(c) / nrm for c in z)


def _solid_angle_triangle(a, b, c) -> "iv.mpf":
    """Van Oosterom-Strackee for unit interval vectors."""
    det = (a[0] * (b[1] * c[2] - b[2] * c[1])
           - a[1] * (b[0] * c[2] - b[2] * c[0])
           + a[2] * (b[0] * c[1] - b[1] * c[0]))
    den = 1 + (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) \
        + (b[0] * c[0] + b[1] * c[1] + b[2] * c[2]) \
        + (a[0] * c[0] + a[1] * c[1] + a[2] * c[2])
    return 2 * iv.atan2(abs(det), den)


def _facet_cycle_at_vertex(p: VPolytope, vid: int) -> list[int]:
    """Facets incident to a vertex in cyclic order around it."""
    link: dict[int, list[int]] = {}
    for e in p.edges:
        if vid in e.vertex_ids:
            fa, fb = e.facet_ids
            link.setdefault(fa, []).append(fb)
            link.setdefault(fb, []).append(fa)
    start = min(link)
    cycle = [start, min(link[start])]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = next(f for f in link[cur] if f != prev)
        if nxt == start:
            break
        cycle.append(nxt)
    return cycle


def steiner_point_3d_iv(p: VPolytope) -> tuple:
    if p.n != 3:
        raise PreconditionError("Steiner point implemented for ambient dimension 3")
    if p.dim == 0:
        return tuple(iv_frac(c) for c in p.vertices[0])
    if p.dim == 1:
        mid = [Fraction(a + b, 2) for a, b in zip(p.vertices[0], p.vertices[-1])]
        return tuple(iv_frac(c) for c in mid)
    if p.dim == 2:
        return _steiner_polygon(p)
    coords = [iv.mpf(0), iv.mpf(0), iv.mpf(0)]
    omega_total = iv.mpf(0)
    for vid, v in enumerate(p.vertices):
        normals = [_unit_iv(p.facets[f].normal.z)
                   for f in _facet_cycle_at_vertex(p, vid)]
        omega = iv.mpf(0)
        for t in range(1, len(normals) - 1):
            omega += _solid_angle_triangle(normals[0], normals[t], normals[t + 1])
        omega_total += omega
        for k in range(3):
            coords[k] += iv_frac(v[k]) * omega
    # the normal cones tile the sphere
    full = 4 * iv.pi
    if not (omega_total.a <= full.b and full.a <= omega_total.b):
        raise TheoryViolationError("vertex normal cones do not tile the sphere")
    return tuple(c / (4 * iv.pi) for c in coords)


def steiner_point_3d(p: VPolytope) -> tuple[FloatWithError, ...]:
    """Steiner point of a polytope in R^3: vertices weighted by the
    normalized solid angles of their normal cones."""
    return tuple(to_float_err(c) for c in steiner_point_3d_iv(p))


def _steiner_polygon(p: VPolytope):
    cyc = p.cycle
    k = len(cyc)
    coords = [iv.mpf(0), iv.mpf(0), iv.mpf(0)]
    for t in range(k):
        u = p.vertices[cyc[(t - 1) % k]]
        v = p.vertices[cyc[t]]
        w = p.vertices[cyc[(t + 1) % k]]
        e1 = vsub(v, u)
        e2 = vsub(w, v)
        turn = iv.atan2(iv_sqrt_frac(norm_sq(cross3(e1, e2))), iv_frac(dot(e1, e2)))
        for c in range(3):
            coords[c] += iv_frac(v[c]) * turn
    return tuple(c / (2 * iv.pi) for c in coords)
