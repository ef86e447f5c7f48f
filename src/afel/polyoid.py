"""Discrete generating measures and the bodies they generate.

A BodyMeasure is a finitely supported probability measure on polytopes; its
body is the weighted Minkowski sum, whose support function is the exact
weighted average of the atom support functions.  Only discrete measures are
represented: they carry all the executable content; limit objects of
measure sequences are not represented.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from mpmath import iv

from .errors import PreconditionError, TheoryViolationError
from .geometry import (
    Direction,
    VPolytope,
    dim_pspan,
    minkowski_sum_many,
    scale_translate,
    singleton,
    support_set,
    support_value,
)
from .linalg import num
from .numerics import (
    FloatWithError,
    interval_precision,
    iv_frac,
    iv_sqrt_frac,
    mean_width_3d_iv,
    steiner_point_3d_iv,
    to_float_err,
)
from . import geometry


@dataclass(frozen=True)
class BodyMeasure:
    """Finitely supported probability measure on polytopes."""

    atoms: tuple[tuple[Fraction, VPolytope], ...]

    def __post_init__(self):
        if not self.atoms:
            raise PreconditionError("a body measure needs at least one atom")
        if any(q <= 0 for q, _ in self.atoms):
            raise PreconditionError("atom weights must be positive")
        if sum(q for q, _ in self.atoms) != 1:
            raise PreconditionError("atom weights must sum to one")
        n = self.atoms[0][1].n
        if any(p.n != n for _, p in self.atoms):
            raise PreconditionError("ambient dimension mismatch among atoms")

    @property
    def n(self) -> int:
        return self.atoms[0][1].n

    @staticmethod
    def of(pairs: Sequence[tuple]) -> "BodyMeasure":
        return BodyMeasure(tuple((num(q), p) for q, p in pairs))


def body_of_measure(mu: BodyMeasure) -> VPolytope:
    """The body K with h_K = sum of q_i h_{P_i}: the exact weighted sum."""
    zero = (0,) * mu.n
    return minkowski_sum_many([scale_translate(p, q, zero) for q, p in mu.atoms])


def verify_generating(mu: BodyMeasure, k: VPolytope,
                      samples: Sequence[Direction]) -> bool:
    """True iff the support identity holds on every sample direction and the
    generated body equals K as a polytope."""
    for z in samples:
        lhs = support_value(k, z)
        rhs = sum(q * support_value(p, z) for q, p in mu.atoms)
        if lhs != rhs:
            return False
    return body_of_measure(mu) == k


def is_k_tope(p: VPolytope, k: int) -> bool:
    if k < 1:
        raise PreconditionError("k must be positive")
    return len(p.vertices) <= k


def mpos_sample(mu: BodyMeasure, coefficients: Sequence) -> VPolytope:
    """Nonnegative Minkowski combination of the atoms; the empty combination
    is the origin."""
    if len(coefficients) != len(mu.atoms):
        raise PreconditionError("one coefficient per atom required")
    coeffs = [num(c) for c in coefficients]
    if any(c < 0 for c in coeffs):
        raise PreconditionError("coefficients must be nonnegative")
    zero = (0,) * mu.n
    parts = [scale_translate(p, c, zero)
             for c, (_, p) in zip(coeffs, mu.atoms) if c > 0]
    if not parts:
        return singleton(zero)
    return minkowski_sum_many(parts)


def pspan_containment(mu: BodyMeasure, coefficients: Sequence) -> bool:
    """pspan of any positive-hull sample is contained in pspan of the body."""
    q = mpos_sample(mu, coefficients)
    k = body_of_measure(mu)
    return dim_pspan([k]) == dim_pspan([k, q])


@dataclass(frozen=True)
class DiamSumReport:
    lhs: tuple[float, float]  # certified enclosure of the diameter sum
    rhs: tuple[float, float]  # certified enclosure of sqrt(pi) n diam(sum)
    holds: bool


@interval_precision()
def diam_sum_check(bodies: Sequence[VPolytope]) -> DiamSumReport:
    """Certified check of: sum of diameters <= sqrt(pi) * n * diam(sum)."""
    if not bodies:
        raise PreconditionError("empty body list")
    n = bodies[0].n
    diams = [geometry.diameter_sq(b) for b in bodies]
    lhs = iv.mpf(0)
    for dsq in diams:
        lhs += iv_sqrt_frac(dsq)
    total = minkowski_sum_many(list(bodies))
    rhs = iv.sqrt(iv.pi) * n * iv_sqrt_frac(geometry.diameter_sq(total))
    both_zero = all(dsq == 0 for dsq in diams)
    holds = both_zero or lhs.b <= rhs.a
    return DiamSumReport((float(lhs.a), float(lhs.b)),
                         (float(rhs.a), float(rhs.b)), bool(holds))


def support_pushforward(mu: BodyMeasure, z: Direction) -> BodyMeasure:
    """Image measure under P -> F(P, z); generates the support set of the
    generated body (verified exactly)."""
    pushed = BodyMeasure(tuple((q, support_set(p, z)) for q, p in mu.atoms))
    if body_of_measure(pushed) != support_set(body_of_measure(mu), z):
        raise TheoryViolationError("pushforward body differs from support set")
    return pushed


@dataclass(frozen=True)
class ApproxBody:
    """Float-vertex body produced by the Steiner normalization; excluded from
    all exact pipelines by construction."""

    vertices: tuple[tuple[float, ...], ...]
    abs_err: float


@dataclass(frozen=True)
class ApproxMeasure:
    approximate = True

    atoms: tuple[tuple[FloatWithError, ApproxBody], ...]


@interval_precision()
def steiner_normalize(mu: BodyMeasure) -> ApproxMeasure:
    """Recenter every atom at its Steiner point and rescale to unit mean
    width, reweighting by relative mean width (floats with error bounds)."""
    if mu.n != 3:
        raise PreconditionError("normalization implemented for ambient dimension 3")
    widths = []
    for _, p in mu.atoms:
        if p.dim < 1:
            raise PreconditionError("zero-mean-width atom cannot be normalized")
        widths.append(mean_width_3d_iv(p))
    wk = iv.mpf(0)
    for (q, _), w in zip(mu.atoms, widths):
        wk += iv_frac(q) * w
    atoms = []
    for (q, p), w in zip(mu.atoms, widths):
        weight = to_float_err(iv_frac(q) * w / wk)
        s = steiner_point_3d_iv(p)
        verts = []
        err = 0.0
        for v in p.vertices:
            coords = []
            for c, sc in zip(v, s):
                ivc = (iv_frac(c) - sc) / w
                fe = to_float_err(ivc)
                coords.append(fe.value)
                err = max(err, fe.abs_err)
            verts.append(tuple(coords))
        atoms.append((weight, ApproxBody(tuple(verts), err)))
    total = sum(w.value for w, _ in atoms)
    if not abs(total - 1.0) <= 1e-9:
        raise TheoryViolationError(f"normalized weights sum to {total}, not 1")
    return ApproxMeasure(tuple(atoms))


def hexagon_fixture() -> dict:
    """Non-uniqueness fixture: one hexagon with four distinct generating
    measures over segments, parallelograms and triangles, plus a variant
    whose second triangle is shifted by half a unit so that it generates the
    translated hexagon instead."""
    i1 = geometry.segment((0, 0), (1, 0))
    i2 = geometry.segment((0, 0), (0, 1))
    i3 = geometry.segment((0, 0), (1, 1))
    half = Fraction(1, 2)
    body = minkowski_sum_many([
        scale_translate(i1, half, (0, 0)),
        scale_translate(i2, half, (0, 0)),
        scale_translate(i3, half, (0, 0)),
    ])
    t1 = geometry.convex_hull([(0, 0), (1, 0), (1, 1)])
    t2 = geometry.convex_hull([(0, 0), (0, 1), (1, 1)])
    t2_shifted = geometry.convex_hull([(1, 0), (1, 1), (2, 1)])
    mu1 = BodyMeasure.of([(half, minkowski_sum_many([i2, i3])), (half, i1)])
    mu2 = BodyMeasure.of([(half, minkowski_sum_many([i1, i2])), (half, i3)])
    mu3 = BodyMeasure.of([(half, t1), (half, t2)])
    mu4 = BodyMeasure.of([
        (Fraction(1, 3), scale_translate(i1, Fraction(3, 2), (0, 0))),
        (Fraction(1, 3), scale_translate(i2, Fraction(3, 2), (0, 0))),
        (Fraction(1, 3), scale_translate(i3, Fraction(3, 2), (0, 0))),
    ])
    mu3_shifted = BodyMeasure.of([(half, t1), (half, t2_shifted)])
    return {
        "body": body,
        "measures": [mu1, mu2, mu3, mu4],
        "shifted_measure": mu3_shifted,
        "shift": (half, 0),
    }
