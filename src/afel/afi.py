"""Alexandrov-Fenchel inequality checks and the equality-case decision.

Two independent decision routes are implemented for the positive branch:
the measure route compares mixed area measures exactly, the support route
solves for a homothety witness (a, x) on the arc support of S(B^3, C, .).
Their verdicts must agree; the redundancy is deliberate cross-validation.

The equality routes share no mixed-volume code: the measure route reads
V(L,L,C) and V(K,L,C) off its own measures, the support route decides
V(K,L,C) > 0 as semicriticality by rank tests (Schneider, Convex Bodies,
2nd ed. 2014, Thm 5.1.8).  The discriminant stays on inclusion-exclusion,
one table of subset sums, so it checks the measure route independently.

The support route reads h_K and h_L only at the arc ends and at the
directions on an arc orthogonal to an edge e of K or L, +-(N x e) for N
the normal of the arc's plane: between those directions both support
functions are linear along the arc (`_arc_constraints`).  The witness is
unique: the arc ends span R^3, and semicriticality keeps L from being a
point, so one exact solve finds it (`_arc_solution`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .area_measure import _arc, _in_arc, ball_support_arcs, mixed_area_diff, mixed_area_measure
from .criticality import classify
from .errors import PreconditionError, TheoryViolationError
from .geometry import (Direction, SupportDiff, VPolytope, _edge_directions, scale_translate,
                       support_value)
from .linalg import cross3, dot, primitive, solve_linear, vsub
from .mixed_volume import _check_tuple, _diff_terms, _inclusion_exclusion


@dataclass(frozen=True)
class AFIReport:
    v_kl: Fraction
    v_kk: Fraction
    v_ll: Fraction
    discriminant: Fraction
    equality: bool
    branch: str  # "degenerate" when v_kl = 0, else "positive"
    witness: Optional[tuple[Fraction, tuple]]  # (a, x) when the support route applies


def _afi_values(k: VPolytope, l: VPolytope,
                c: list[VPolytope]) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """V(K,L,C), V(K,K,C), V(L,L,C) from one inclusion-exclusion table, and
    the discriminant, which must not be negative."""
    v_kl, v_kk, v_ll = _inclusion_exclusion([[k, l] + c, [k, k] + c, [l, l] + c])
    disc = v_kl * v_kl - v_kk * v_ll
    if disc < 0:
        raise TheoryViolationError(
            f"negative Alexandrov-Fenchel discriminant {disc}")
    return v_kl, v_kk, v_ll, disc


def afi_check(k: VPolytope, l: VPolytope, c_tuple: Sequence[VPolytope]) -> AFIReport:
    """Exact discriminant V(K,L,C)^2 - V(K,K,C) V(L,L,C) with equality flag."""
    c = list(c_tuple)
    v_kl, v_kk, v_ll, disc = _afi_values(k, l, c)
    equality = disc == 0
    branch = "degenerate" if v_kl == 0 else "positive"
    witness = None
    if (equality and branch == "positive" and k.n == 3 and len(c) == 1
            and c[0].dim == 3 and v_ll > 0):
        witness = equality_by_support(k, l, c[0])
    return AFIReport(v_kl, v_kk, v_ll, disc, equality, branch, witness)


def gafi_check(k1: VPolytope, k2: VPolytope, l: VPolytope,
               c_tuple: Sequence[VPolytope]) -> Fraction:
    """LHS - RHS of the generalized inequality for f = h_K1 - h_K2;
    nonnegative for convex bodies.  V(f,L,C), V(f,f,C) and V(L,L,C) come
    from one inclusion-exclusion table over their expanded tuples."""
    c = list(c_tuple)
    f = SupportDiff(k1, k2)
    groups = [_diff_terms([f, l] + c), _diff_terms([f, f] + c), [(1, [l, l] + c)]]
    values = iter(_inclusion_exclusion([t for g in groups for _, t in g]))
    v_fl, v_ff, v_ll = (sum((s * next(values) for s, _ in g), Fraction(0)) for g in groups)
    gap = v_fl ** 2 - v_ff * v_ll
    if gap < 0:
        raise TheoryViolationError(f"negative GAFI gap {gap}")
    return gap


def equality_by_measure(k: VPolytope, l: VPolytope,
                        c_tuple: Sequence[VPolytope]) -> Optional[Fraction]:
    """Measure route: equality holds iff S(K,C,.) = a S(L,C,.) with
    a = V(K,L,C)/V(L,L,C), the ratio of the integrals of h_L against the two
    measures (so any such factor is a); returns a on success."""
    c = list(c_tuple)
    _check_tuple([l, l] + c)
    s_l = mixed_area_measure([l] + c)
    v = s_l.integrate_support(l)
    if v == 0:
        raise PreconditionError("V(L,L,C) = 0: the degenerate branch applies")
    _check_tuple([k, l] + c)
    s_k = mixed_area_measure([k] + c)
    a = Fraction(s_k.integrate_support(l), v)
    if s_k == s_l.scaled(a):
        return a
    return None


# ---------------------------------------------------------------------------
# support route: rows at the directions where a support function may break


def _arc_constraints(plus: VPolytope, minus: VPolytope, c: VPolytope, constraint):
    """Stacked exact constraints on the arc support of S(B^3, C, .): one
    constraint(z, h_plus(z), h_minus(z)) -> (row, rhs) per direction z where
    h_plus or h_minus can break along an arc, once over all arcs: its ends
    and each +-(N x e) in it, N the arc's plane normal and e an edge
    direction of plus or minus (at a break, F(P, z) has an edge e of P
    orthogonal to z and not parallel to N)."""
    edges = [d.z for d in _edge_directions(plus) + _edge_directions(minus)]
    dirs = {}  # a dict keeps each direction once, in the order found
    for z1, z2 in ball_support_arcs(c).arcs:
        dirs[z1] = dirs[z2] = None
        arc = _arc(z1.z, z2.z)
        for e in edges:
            u = cross3(arc[0], e)
            if not any(u):
                continue  # e is parallel to N: its face projects to a point
            if not _in_arc(u, arc):
                u = (-u[0], -u[1], -u[2])
                if not _in_arc(u, arc):
                    continue
            dirs[Direction(primitive(u))] = None
    pairs = [constraint(z.z, support_value(plus, z), support_value(minus, z)) for z in dirs]
    return [row for row, _ in pairs], [b for _, b in pairs]


def _homothety_constraint(z: tuple[int, ...], hk: Fraction, hl: Fraction):
    """h_K(z) = a h_L(z) + <x, z>, unknowns (a, x1, x2, x3)."""
    return (hl,) + z, hk


def _linearity_constraint(z: tuple[int, ...], hp: Fraction, hm: Fraction):
    """f(z) = <x, z> for f = h_plus - h_minus, unknowns (x1, x2, x3)."""
    return z, hp - hm


def _arc_solution(plus: VPolytope, minus: VPolytope, c: VPolytope,
                  constraint) -> Optional[tuple]:
    """The one solution of the stacked arc constraints (`_arc_constraints`),
    or None when they are inconsistent.  It is unique where the routes apply:
    C's facet normals are arc ends and span R^3, so the x-columns have rank
    3; a free homothety factor would make h_L linear on the arc support, so
    S(L,C,.) = 0 by the vanishing criterion (which `afel linearity` checks),
    V(L,C,C) = 0 and L a point, which semicriticality of (K,L,C) rules out.
    a <= 0 cannot occur either: V(K,C,C) = a V(L,C,C), both sides positive."""
    rows, rhs = _arc_constraints(plus, minus, c, constraint)
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    x, basis = sol
    if basis:
        raise TheoryViolationError(f"arc constraints leave {len(basis)} free unknowns")
    # exact re-verification on every sub-arc constraint
    if any(dot(row, x) != b for row, b in zip(rows, rhs)):
        raise TheoryViolationError("arc witness fails a sub-arc constraint")
    return x


def equality_by_support(k: VPolytope, l: VPolytope,
                        c: VPolytope) -> Optional[tuple[Fraction, tuple]]:
    """Support route: solve for a > 0 and x with h_K = h_{aL+x} on the arcs,
    read at the arc ends and the edge-orthogonal directions on them."""
    if k.n != 3 or l.n != 3 or c.n != 3:
        raise PreconditionError("support route requires ambient dimension 3")
    if c.dim != 3:
        raise PreconditionError("C must be full-dimensional (supercritical)")
    if not classify([k, l, c]).at_least("semicritical"):
        raise PreconditionError("V(K,L,C) > 0 required for the positive branch")
    sol = _arc_solution(k, l, c, _homothety_constraint)
    if sol is None:
        return None
    a, x = sol[0], sol[1:]
    if a <= 0:
        raise TheoryViolationError(f"homothety factor {a} is not positive")
    return a, x


def linearity_on_arcs(f: SupportDiff, c: VPolytope) -> Optional[tuple]:
    """Whether f is linear on the arc support of C; returns the witness x."""
    if f.n != 3 or c.n != 3:
        raise PreconditionError("arc linearity requires ambient dimension 3")
    if c.dim != 3:
        raise PreconditionError("C must be full-dimensional (supercritical)")
    return _arc_solution(f.plus, f.minus, c, _linearity_constraint)


@dataclass(frozen=True)
class LinearityReport:
    measure_vanishes: bool
    linear_on_support: bool
    witness_x: Optional[tuple]
    agree: bool


def linearity_equivalence(f: SupportDiff, c: VPolytope) -> LinearityReport:
    """Evaluate both sides of the vanishing criterion independently:
    S_{f,(C)} = 0 versus linearity of f on the arc support."""
    x = linearity_on_arcs(f, c)  # its preconditions first: the measure costs more
    measure_zero = mixed_area_diff([f, c]).is_zero()
    linear = x is not None
    return LinearityReport(measure_zero, linear, x, measure_zero == linear)


# ---------------------------------------------------------------------------
# degenerate branch


def is_homothetic(k: VPolytope, l: VPolytope) -> tuple[bool, Optional[tuple]]:
    """Exact homothety decision; singletons are homothetic to every body.

    Returns (verdict, (a, x) witness in the form K = a L + x when one with
    a > 0 exists)."""
    if k.dim == 0 or l.dim == 0:
        if k.dim == 0 and l.dim == 0:
            return True, (Fraction(1), vsub(k.vertices[0], l.vertices[0]))
        return True, None
    z = Direction(primitive(vsub(l.vertices[-1], l.vertices[0])))
    wl = support_value(l, z) + support_value(l, -z)
    wk = support_value(k, z) + support_value(k, -z)
    if wk == 0:
        return False, None
    a = Fraction(wk, wl)
    x = vsub(k.vertices[0], tuple(a * c for c in l.vertices[0]))
    if scale_translate(l, a, x) == k:
        return True, (a, x)
    return False, None


@dataclass(frozen=True)
class DegenerateReport:
    discriminant: Fraction
    homothetic: bool
    witness: Optional[tuple]


def degenerate_branch(k: VPolytope, l: VPolytope,
                      c_tuple: Sequence[VPolytope]) -> DegenerateReport:
    """Branch (a): V(K,L,C) = 0 forces equality in the inequality and
    homothety of K and L (for supercritical C)."""
    v_kl, _, _, disc = _afi_values(k, l, list(c_tuple))
    if v_kl != 0:
        raise PreconditionError("degenerate branch requires V(K,L,C) = 0")
    hom, witness = is_homothetic(k, l)
    return DegenerateReport(disc, hom, witness)
