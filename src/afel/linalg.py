"""Exact rational linear algebra on tuples of Fractions.

Vectors are plain tuples (of Fraction or int), matrices are lists of such
tuples.  Everything here is exact; no floats enter or leave.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import TheoryViolationError

Vec = tuple  # tuple of Fraction (or int where noted)


def vadd(a: Vec, b: Vec) -> Vec:
    n = len(a)
    if n == 3:
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2])
    if n == 2:
        return (a[0] + b[0], a[1] + b[1])
    if n == 4:
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    n = len(a)
    if n == 3:
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2])
    if n == 2:
        return (a[0] - b[0], a[1] - b[1])
    if n == 4:
        return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec):
    n = len(a)
    if n == 3:
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    if n == 2:
        return a[0] * b[0] + a[1] * b[1]
    if n == 4:
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]
    s = 0
    for x, y in zip(a, b):
        s += x * y
    return s


def norm_sq(a: Vec):
    return dot(a, a)


def cross3(a: Vec, b: Vec) -> Vec:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def cross4(a: Vec, b: Vec, c: Vec) -> Vec:
    """Vector orthogonal to a, b, c in R^4 (cofactor expansion)."""

    def det3(r0, r1, r2):
        return (
            r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
        )

    m = [a, b, c]
    out = []
    sign = 1
    for i in range(4):
        cols = [j for j in range(4) if j != i]
        sub = [[row[j] for j in cols] for row in m]
        out.append(sign * det3(sub[0], sub[1], sub[2]))
        sign = -sign
    return tuple(out)


def num(x):
    """Canonical exact number: int when integral, Fraction otherwise."""
    if isinstance(x, int):
        return x
    f = Fraction(x)
    return f.numerator if f.denominator == 1 else f


def primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, preserving sign."""
    if all(isinstance(x, int) for x in v):
        ints = list(v)
    else:
        fracs = [Fraction(x) for x in v]
        den = 1
        for x in fracs:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def pivot_columns(rows: Sequence[Vec]) -> list[int]:
    """Pivot columns of exact Gaussian elimination: a maximal set of
    coordinates on which projecting span(rows) is injective."""
    m = [list(map(Fraction, r)) for r in rows if any(r)]
    if not m:
        return []
    ncols = len(m[0])
    pivots: list[int] = []
    rank = 0
    col = 0
    while rank < len(m) and col < ncols:
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        for i in range(rank + 1, len(m)):
            if m[i][col] != 0:
                f = m[i][col] / pv
                for j in range(col, ncols):
                    m[i][j] -= f * m[rank][j]
        pivots.append(col)
        rank += 1
        col += 1
    return pivots


def matrank(rows: Sequence[Vec]) -> int:
    """Rank via exact Gaussian elimination."""
    return len(pivot_columns(rows))


def solve_linear(rows: Sequence[Vec], rhs: Sequence) -> Optional[tuple[Vec, list[Vec]]]:
    """Solve rows @ x = rhs exactly.

    Returns (particular solution, nullspace basis) or None if inconsistent.
    """
    if not rows:
        raise ValueError("no equations")
    ncols = len(rows[0])
    m = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(rows, rhs)]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(m)):
        if m[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = m[r][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -m[r][fc]
        basis.append(tuple(v))
    return tuple(x), basis


def min_norm_solution(rows: Sequence[Vec], rhs: Sequence,
                      norm_coords: Optional[Sequence[int]] = None) -> Optional[Vec]:
    """Exact solution of rows @ x = rhs minimizing sum of squares over
    norm_coords (all coordinates when None).  Leftover free directions that do
    not affect the minimized coordinates are set to zero.
    """
    sol = solve_linear(rows, rhs)
    if sol is None:
        return None
    x0, basis = sol
    if not basis:
        return x0
    ncols = len(x0)
    coords = list(range(ncols)) if norm_coords is None else list(norm_coords)
    # minimize |P(x0 + B t)|^2 -> (PB)^T (PB) t = -(PB)^T P x0
    pb = [[b[c] for b in basis] for c in coords]  # len(coords) x len(basis)
    px0 = [x0[c] for c in coords]
    k = len(basis)
    normal = [[sum(pb[r][i] * pb[r][j] for r in range(len(coords))) for j in range(k)]
              for i in range(k)]
    rhs2 = [-sum(pb[r][i] * px0[r] for r in range(len(coords))) for i in range(k)]
    inner = solve_linear([tuple(r) for r in normal], rhs2)
    if inner is None:
        raise TheoryViolationError("inconsistent normal equations")
    t0, _ = inner
    x = list(x0)
    for bi, ti in zip(basis, t0):
        for c in range(ncols):
            x[c] += ti * bi[c]
    return tuple(x)
