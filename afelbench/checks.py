"""Checks on the program's outputs, made apart from the program.

Each function compares an output with a value computed here from the
generated inputs alone (a closed formula), or tests a property the method
must have.  None compares with a stored copy of earlier output.  They take
and return plain values (Fractions, int tuples, dicts parsed from the CLI's
JSON), so selftest.py can plant wrong values into them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def det(rows) -> Fraction:
    """Exact determinant by elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    out = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        out *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return out


# ----------------------------------------------------------- mixed volumes


def zonotope_mixed_volume(gens_per_body) -> Fraction:
    """V(Z_1, ..., Z_n) for zonotopes Z_i = x_i + sum of [0, g]: multilinear
    in the segments, and n! V(segments) = |det|."""
    n = len(gens_per_body)
    total = sum(abs(det(choice)) for choice in itertools.product(*gens_per_body))
    return Fraction(total, math.factorial(n))


def box_mixed_volume(sides) -> Fraction:
    """V(B_1, B_2, B_3) for axis boxes with side lengths sides[i][j]: the
    permanent of the side matrix over 3!."""
    perm = sum(math.prod(sides[i][s[i]] for i in range(3))
               for s in itertools.permutations(range(3)))
    return Fraction(perm, 6)


def af_inequality(v_klm, v_kkm, v_llm) -> bool:
    """V(K,L,M)^2 >= V(K,K,M) V(L,L,M)."""
    return v_klm * v_klm >= v_kkm * v_llm


def centroid_zero(atoms) -> bool:
    """Minkowski's relation: sum of w(z) * z vanishes for every mixed area
    measure (atoms as (integer direction, rational weight) pairs)."""
    atoms = list(atoms)
    if not atoms:
        return True
    n = len(atoms[0][0])
    return all(sum(w * z[i] for z, w in atoms) == 0 for i in range(n))


def all_weights_positive(atoms) -> bool:
    return all(w > 0 for _, w in atoms)


def mass_near_coordinate_circles(atoms, radius: float = 0.15) -> float:
    """Share of the mass w(z)|z| within the angle radius of a coordinate
    great circle (some coordinate of z/|z| within sin(radius) of 0)."""
    total = near = 0.0
    for z, w in atoms:
        norm = math.sqrt(sum(c * c for c in z))
        mass = float(w) * norm
        total += mass
        if min(abs(math.asin(c / norm)) for c in z) <= radius:
            near += mass
    return near / total


# ------------------------------------------------------------ AF decisions


def discriminant_consistent(rep: dict) -> bool:
    """An afi-check report: discriminant = v_kl^2 - v_kk v_ll >= 0 and the
    equality flag says whether it is 0."""
    v_kl, v_kk, v_ll = (Fraction(rep[k]) for k in ("v_kl", "v_kk", "v_ll"))
    disc = Fraction(rep["discriminant"])
    return (disc == v_kl * v_kl - v_kk * v_ll and disc >= 0
            and rep["equality"] == (disc == 0))


def homothety_witness(s: Fraction, x) -> tuple[Fraction, tuple]:
    """For L = s K + x: h_K = (1/s) h_L + <-x/s, .>."""
    return Fraction(1) / s, tuple(-Fraction(c) / s for c in x)


def witness_of(rep: dict):
    w = rep["witness"]
    if w is None:
        return None
    return Fraction(w["a"]), tuple(Fraction(c) for c in w["x"])


def truncated_cube_report_ok(rep: dict) -> bool:
    """Cube K = C = [-1, 1]^3 against any corner-truncated cube L: truncation
    keeps h_L = 1 on the six face normals of C, so V(K, L, C) =
    (1/3) * sum over faces of h_L * area = 8 exactly, the discriminant is 0,
    and the support route's witness is (1, 0)."""
    return (discriminant_consistent(rep) and Fraction(rep["v_kl"]) == 8
            and rep["equality"] and rep["branch"] == "positive"
            and witness_of(rep) == (1, (0, 0, 0)))


# ----------------------------------------------------------------- macroid


def census_ok(census, facet_total: int) -> bool:
    """Partial-sum census of an admissible prefix: triangles with one source,
    parallelograms with two, nothing else, and as many triangles as the
    prefix bodies have facets together."""
    kinds_ok = all((p.kind == "triangle" and len(p.sources) == 1)
                   or (p.kind == "parallelogram" and len(p.sources) == 2)
                   for p in census.provenance)
    return (kinds_ok and census.other == 0 and census.triangles == facet_total
            and census.triangles + census.parallelograms == len(census.provenance))


def simplicial_facets(vertex_count: int) -> int:
    """Facet count of a simplicial 3-polytope (Euler: F = 2V - 4)."""
    return 2 * vertex_count - 4


def origin_symmetric(vertices) -> bool:
    vs = set(vertices)
    return all(tuple(-c for c in v) in vs for v in vs)


def support(vertices, u) -> Fraction:
    return max(sum(a * b for a, b in zip(v, u)) for v in vertices)


def centered_zonotope_support(gens, u) -> Fraction:
    """h of sum over g of [-g/2, g/2] at u."""
    return sum(Fraction(abs(sum(a * b for a, b in zip(g, u))), 2) for g in gens)


def kernel_contains_zonotope(vertices, gens, directions) -> bool:
    """The kernel is the largest centered zonotope summand of Z + B, so it
    contains the centered Z: its support is at least Z's on every u."""
    return (origin_symmetric(vertices)
            and all(support(vertices, u) >= centered_zonotope_support(gens, u)
                    for u in directions))
