"""Exact rational linear algebra on tuples of Fractions.

Vectors are plain tuples (of Fraction or int), matrices are lists of such
tuples.  Everything here is exact; no floats enter or leave.  Elimination
is fraction-free on integer rows (`eliminate`); `Fraction`s appear only in
the output of `solve_linear`, one division per entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

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
    """Vector orthogonal to a, b, c in R^4: the cofactors of the first row
    of det(x; a; b; c), each expanded along a over the 2x2 minors of b, c."""
    m01 = b[0] * c[1] - b[1] * c[0]
    m02 = b[0] * c[2] - b[2] * c[0]
    m03 = b[0] * c[3] - b[3] * c[0]
    m12 = b[1] * c[2] - b[2] * c[1]
    m13 = b[1] * c[3] - b[3] * c[1]
    m23 = b[2] * c[3] - b[3] * c[2]
    return (a[1] * m23 - a[2] * m13 + a[3] * m12,
            -(a[0] * m23 - a[2] * m03 + a[3] * m02),
            a[0] * m13 - a[1] * m03 + a[3] * m01,
            -(a[0] * m12 - a[1] * m02 + a[2] * m01))


def num(x):
    """Canonical exact number: int when integral, Fraction otherwise."""
    if isinstance(x, int):
        return x
    f = x if type(x) is Fraction else Fraction(x)
    return f.numerator if f.denominator == 1 else f


def integerize(points: Sequence[Vec]) -> tuple[list[tuple[int, ...]], int]:
    """Integer copies of rational points scaled by their common denominator,
    plus that denominator."""
    den = 1
    for p in points:
        for x in p:
            if type(x) is not int:
                den = lcm(den, x.denominator)
    if den == 1:
        return [tuple(x.numerator for x in p) for p in points], 1
    return [tuple(x.numerator * (den // x.denominator) for x in p) for p in points], den


def primitive(v: Sequence) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, preserving sign."""
    (ints,), _ = integerize((v,))
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def eliminate(row: Sequence[int], piv: Sequence[int], col: int) -> list[int]:
    """Clear column col of an integer row with a pivot row, fraction-free:
    p*row - c*piv, divided by its content."""
    c, p = row[col], piv[col]
    row = [p * x - c * y for x, y in zip(row, piv)]
    g = gcd(*row)
    if g > 1:
        row = [x // g for x in row]
    return row


def _echelon(rows: Sequence[Vec]) -> list[tuple[int, Sequence[int]]]:
    """Integer echelon rows of span(rows) as (pivot column, row) pairs, in
    column order.  Each row, scaled to integers by its common denominator,
    is cleared at the pivots found so far, in the order found (a pivot row
    is zero at every earlier pivot); a nonzero rest leads a new pivot."""
    pivots: list[tuple[int, Sequence[int]]] = []
    for r in rows:
        (row,), _ = integerize((r,))
        for col, piv in pivots:
            if row[col]:
                row = eliminate(row, piv, col)
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is not None:
            pivots.append((lead, row))
            if len(pivots) == len(row):
                break
    pivots.sort(key=lambda lp: lp[0])
    return pivots


def pivot_columns(rows: Sequence[Vec]) -> list[int]:
    """Pivot columns of exact Gaussian elimination: a maximal set of
    coordinates on which projecting span(rows) is injective."""
    return [col for col, _ in _echelon(rows)]


def matrank(rows: Sequence[Vec]) -> int:
    """Rank via exact Gaussian elimination."""
    return len(pivot_columns(rows))


def solve_linear(rows: Sequence[Vec], rhs: Sequence) -> Optional[tuple[Vec, list[Vec]]]:
    """Solve rows @ x = rhs exactly.

    Returns (particular solution, nullspace basis) or None if inconsistent.
    Both come from the reduced row echelon form: free variables are 0, and
    the basis vector of a free column is 1 there and 0 at the other free
    columns.
    """
    if not rows:
        raise ValueError("no equations")
    ncols = len(rows[0])
    ech = _echelon([tuple(r) + (v,) for r, v in zip(rows, rhs)])
    if ech and ech[-1][0] == ncols:
        return None
    # clear upward, last pivot first: each pivot row is then zero at every
    # other pivot column
    for k in range(len(ech) - 1, 0, -1):
        col, piv = ech[k]
        for i in range(k):
            lead, row = ech[i]
            if row[col]:
                ech[i] = (lead, eliminate(row, piv, col))
    free = sorted(set(range(ncols)) - {col for col, _ in ech})
    x = [Fraction(0)] * ncols
    basis = [[Fraction(int(c == fc)) for c in range(ncols)] for fc in free]
    for col, row in ech:
        x[col] = Fraction(row[ncols], row[col])
        for fc, v in zip(free, basis):
            v[col] = Fraction(-row[fc], row[col])
    return tuple(x), [tuple(v) for v in basis]

