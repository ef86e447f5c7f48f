"""Alexandrov-Fenchel inequality checks and the equality-case decision.

Two independent decision routes are implemented for the positive branch:
the measure route compares mixed area measures exactly, the support route
solves for a homothety witness (a, x) on the arc support of S(B^3, C, .).
Their verdicts must agree; the redundancy is deliberate cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .area_measure import ball_support_arcs, mixed_area_diff, mixed_area_measure
from .errors import PreconditionError, TheoryViolationError
from .geometry import Direction, SupportDiff, VPolytope, scale_translate
from .linalg import dot, min_norm_solution, primitive, solve_linear, vsub
from .mixed_volume import mixed_volume, mixed_volume_diff


@dataclass(frozen=True)
class AFIReport:
    v_kl: Fraction
    v_kk: Fraction
    v_ll: Fraction
    discriminant: Fraction
    equality: bool
    branch: str  # "degenerate" when v_kl = 0, else "positive"
    witness: Optional[tuple[Fraction, tuple]]  # (a, x) when the support route applies


def afi_check(k: VPolytope, l: VPolytope, c_tuple: Sequence[VPolytope]) -> AFIReport:
    """Exact discriminant V(K,L,C)^2 - V(K,K,C) V(L,L,C) with equality flag."""
    c = list(c_tuple)
    v_kl = mixed_volume([k, l] + c)
    v_kk = mixed_volume([k, k] + c)
    v_ll = mixed_volume([l, l] + c)
    disc = v_kl * v_kl - v_kk * v_ll
    if disc < 0:
        raise TheoryViolationError(
            f"negative Alexandrov-Fenchel discriminant {disc}")
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
    nonnegative for convex bodies."""
    c = list(c_tuple)
    f = SupportDiff(k1, k2)
    lhs = mixed_volume_diff([f, l] + c) ** 2
    rhs = mixed_volume_diff([f, f] + c) * mixed_volume([l, l] + c)
    gap = lhs - rhs
    if gap < 0:
        raise TheoryViolationError(f"negative GAFI gap {gap}")
    return gap


def equality_by_measure(k: VPolytope, l: VPolytope,
                        c_tuple: Sequence[VPolytope]) -> Optional[Fraction]:
    """Measure route: equality holds iff S(K,C,.) = a S(L,C,.) with
    a = V(K,L,C)/V(L,L,C); returns a on success."""
    c = list(c_tuple)
    v_ll = mixed_volume([l, l] + c)
    if v_ll == 0:
        raise PreconditionError("V(L,L,C) = 0: the degenerate branch applies")
    a = Fraction(mixed_volume([k, l] + c), v_ll)
    s_k = mixed_area_measure([k] + c)
    s_l = mixed_area_measure([l] + c)
    if s_k == s_l.scaled(a):
        return a
    return None


# ---------------------------------------------------------------------------
# support route: upper envelopes along arcs


def _envelope(body: VPolytope, z1: Direction, z2: Direction):
    """Maximizing vertex of <., (1-t) z1 + t z2> as t runs through [0, 1]:
    list of (lo, hi, vertex) pieces with rational breakpoints."""
    pairs = {}
    for v in body.vertices:
        pairs[(dot(v, z1.z), dot(v, z2.z))] = v
    items = sorted(pairs.items())
    # at t = 0 the maximizer has max a; ties resolved toward larger b
    (cur_a, cur_b), cur_v = items[-1]
    pieces = []
    lo = Fraction(0)
    while True:
        nxt = None
        for (a, b), v in items:
            if b <= cur_b:
                continue
            # crossing of the two support lines
            t = Fraction(cur_a - a, (cur_a - a) + (b - cur_b))
            if t <= lo or t >= 1:
                continue
            if nxt is None or t < nxt[0] or (t == nxt[0] and b > nxt[1]):
                nxt = (t, b, a, v)
        if nxt is None:
            pieces.append((lo, Fraction(1), cur_v))
            return pieces
        t, b, a, v = nxt
        pieces.append((lo, t, cur_v))
        lo = t
        cur_a, cur_b, cur_v = a, b, v


def _merged_pieces(k: VPolytope, l: VPolytope, z1: Direction, z2: Direction):
    """Common refinement of the two envelopes: (lo, hi, v_K, v_L) pieces."""
    ek = _envelope(k, z1, z2)
    el = _envelope(l, z1, z2)
    cuts = sorted({c for lo, hi, _ in ek + el for c in (lo, hi)})
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        vk = next(v for a, b, v in ek if a <= lo and hi <= b)
        vl = next(v for a, b, v in el if a <= lo and hi <= b)
        out.append((lo, hi, vk, vl))
    return out


def _arc_constraints(plus: VPolytope, minus: VPolytope, c: VPolytope, constraint):
    """Stacked exact constraints on the arc support of S(B^3, C, .): each
    nondegenerate piece of the merged envelopes of plus and minus contributes
    constraint(z, v_plus, v_minus) -> (row, rhs) at both arc ends z, once."""
    rows = []
    rhs = []
    seen = set()
    for z1, z2 in ball_support_arcs(c).arcs:
        for lo, hi, vp, vm in _merged_pieces(plus, minus, z1, z2):
            if lo == hi:
                continue
            for z in (z1, z2):
                key = constraint(z, vp, vm)
                if key not in seen:
                    seen.add(key)
                    rows.append(key[0])
                    rhs.append(key[1])
    return rows, rhs


def _homothety_constraint(z: Direction, vk, vl):
    """h_K(z) = a h_L(z) + <x, z>, unknowns (a, x1, x2, x3)."""
    row = (Fraction(dot(vl, z.z)),) + tuple(Fraction(c) for c in z.z)
    return row, Fraction(dot(vk, z.z))


def _linearity_constraint(z: Direction, vp, vm):
    """f(z) = <x, z> for f = h_plus - h_minus, unknowns (x1, x2, x3)."""
    return tuple(Fraction(c) for c in z.z), Fraction(dot(vp, z.z) - dot(vm, z.z))


def equality_by_support(k: VPolytope, l: VPolytope,
                        c: VPolytope) -> Optional[tuple[Fraction, tuple]]:
    """Support route: solve for a > 0 and x with h_K = h_{aL+x} on the arcs;
    sub-arc breakpoints come from the normal fans of K and L."""
    if k.n != 3 or l.n != 3 or c.n != 3:
        raise PreconditionError("support route requires ambient dimension 3")
    if c.dim != 3:
        raise PreconditionError("C must be full-dimensional (supercritical)")
    if mixed_volume([k, l, c]) <= 0:
        raise PreconditionError("V(K,L,C) > 0 required for the positive branch")
    rows, rhs = _arc_constraints(k, l, c, _homothety_constraint)
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    x0, basis = sol
    best = min_norm_solution(rows, rhs, norm_coords=(1, 2, 3))
    if best[0] <= 0 and any(b[0] != 0 for b in basis):
        # minimal-|x| pick landed at a <= 0 but a varies: pin a = 1 instead
        best = min_norm_solution(list(rows) + [(1, 0, 0, 0)],
                                 list(rhs) + [Fraction(1)], norm_coords=(1, 2, 3))
        if best is None:
            return None
    a, x = best[0], best[1:]
    if a <= 0:
        return None
    # exact re-verification on every sub-arc constraint
    vec = (a,) + tuple(x)
    if any(dot(row, vec) != b for row, b in zip(rows, rhs)):
        raise TheoryViolationError("homothety witness fails a sub-arc constraint")
    return a, tuple(x)


def linearity_on_arcs(f: SupportDiff, c: VPolytope) -> Optional[tuple]:
    """Whether f is linear on the arc support of C; returns the witness x."""
    if f.n != 3 or c.n != 3:
        raise PreconditionError("arc linearity requires ambient dimension 3")
    if c.dim != 3:
        raise PreconditionError("C must be full-dimensional (supercritical)")
    rows, rhs = _arc_constraints(f.plus, f.minus, c, _linearity_constraint)
    return min_norm_solution(rows, rhs)


@dataclass(frozen=True)
class LinearityReport:
    measure_vanishes: bool
    linear_on_support: bool
    witness_x: Optional[tuple]
    agree: bool


def linearity_equivalence(f: SupportDiff, c: VPolytope) -> LinearityReport:
    """Evaluate both sides of the vanishing criterion independently:
    S_{f,(C)} = 0 versus linearity of f on the arc support."""
    measure_zero = mixed_area_diff([f, c]).is_zero()
    x = linearity_on_arcs(f, c)
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
    wl = max(dot(v, z.z) for v in l.vertices) - min(dot(v, z.z) for v in l.vertices)
    wk = max(dot(v, z.z) for v in k.vertices) - min(dot(v, z.z) for v in k.vertices)
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
    c = list(c_tuple)
    v_kl = mixed_volume([k, l] + c)
    if v_kl != 0:
        raise PreconditionError("degenerate branch requires V(K,L,C) = 0")
    v_kk = mixed_volume([k, k] + c)
    v_ll = mixed_volume([l, l] + c)
    disc = -v_kk * v_ll
    if disc != 0:
        raise TheoryViolationError(
            "V(K,L,C) = 0 but V(K,K,C) V(L,L,C) != 0 contradicts the inequality")
    hom, witness = is_homothetic(k, l)
    return DegenerateReport(disc, hom, witness)
