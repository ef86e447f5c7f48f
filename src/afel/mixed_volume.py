"""Exact mixed volumes via three mutually independent routes.

The inclusion-exclusion expansion is the reference implementation; polynomial
interpolation and the area-measure integral exist as independent oracles and
must agree with it to the last bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError, TheoryViolationError
from .geometry import (
    DiffArg,
    VPolytope,
    expand_support_diffs,
    minkowski_sum,
    scale_translate,
    support_value,
)
from .hull import _shoelace, divergence_volume
from .linalg import solve_linear


def volume(p: VPolytope) -> Fraction:
    """Exact n-volume; 0 for lower-dimensional bodies.

    Divergence theorem per facet: (1/n) * sum of offset * vol(projection) /
    |z_drop|; the facet projection volumes are computed once at hull
    construction and cached on the facets.
    """
    if p.dim < p.n:
        return Fraction(0)
    if p.n == 2:
        return _shoelace([p.vertices[i] for i in p.cycle])
    return divergence_volume(((f.offset, f.proj_volume, f.normal.z[f.drop])
                              for f in p.facets), p.n)


def _check_tuple(bodies: Sequence[VPolytope]) -> int:
    if not bodies:
        raise PreconditionError("empty body tuple")
    n = bodies[0].n
    if any(b.n != n for b in bodies):
        raise PreconditionError("ambient dimension mismatch")
    if len(bodies) != n:
        raise PreconditionError(f"mixed volume in R^{n} needs exactly {n} bodies")
    return n


def mixed_volume(bodies: Sequence[VPolytope]) -> Fraction:
    """Alternating sum of volumes of Minkowski sub-sums (reference route)."""
    n = _check_tuple(bodies)
    sums: dict[frozenset, VPolytope] = {}
    total = Fraction(0)
    for k in range(1, n + 1):
        sign = (-1) ** (n + k)
        for subset in itertools.combinations(range(n), k):
            key = frozenset(subset)
            if k == 1:
                sums[key] = bodies[subset[0]]
            else:
                prev = frozenset(subset[:-1])
                sums[key] = minkowski_sum(sums[prev], bodies[subset[-1]])
            total += sign * volume(sums[key])
    return Fraction(total, math.factorial(n))


def _multiset_exponents(n: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(n), n):
        alpha = [0] * n
        for i in combo:
            alpha[i] += 1
        out.append(tuple(alpha))
    return out


@functools.lru_cache(maxsize=None)
def _interpolation_plan(n: int) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Nodes a and weights w with sum_j w_j * vol(sum_i a_ji K_i) equal to
    n! * V(K_1, ..., K_n) for every body tuple; zero-weight nodes dropped.

    Nodes are the first full-rank set of the lex-ordered grid {1..n+1}^n
    under greedy selection of the monomial rows (fraction-free elimination
    with gcd normalisation); the weights are the row of the inverse that
    extracts the a_1*...*a_n coefficient.
    """
    exps = _multiset_exponents(n)
    m = len(exps)
    nodes: list[tuple[int, ...]] = []
    rows: list[list[int]] = []
    reduced: list[tuple[int, list[int]]] = []  # (lead column, primitive row)
    for a in itertools.product(range(1, n + 2), repeat=n):
        row = [math.prod(ai ** e for ai, e in zip(a, alpha)) for alpha in exps]
        work = row
        for lead, piv in reduced:
            c = work[lead]
            if c:
                p = piv[lead]
                work = [p * x - c * y for x, y in zip(work, piv)]
                g = math.gcd(*work)
                if g > 1:
                    work = [x // g for x in work]
        if any(work):
            lead = next(i for i, x in enumerate(work) if x)
            reduced.append((lead, work))
            nodes.append(a)
            rows.append(row)
            if len(rows) == m:
                break
    if len(rows) != m:
        raise TheoryViolationError(f"interpolation grid in R^{n} failed to reach full rank")
    target = [0] * m
    target[exps.index((1,) * n)] = 1
    sol = solve_linear(list(zip(*rows)), target)
    if sol is None or sol[1]:
        raise TheoryViolationError(f"interpolation system in R^{n} is singular")
    return tuple((a, w) for a, w in zip(nodes, sol[0]) if w)


def mixed_volume_interpolated(bodies: Sequence[VPolytope]) -> Fraction:
    """Coefficient extraction from the volume polynomial of Minkowski
    combinations: a fixed weighted sum of volumes at integer nodes."""
    n = _check_tuple(bodies)
    # fold smallest body first, as minkowski_sum_many does; the first n-1
    # scaled bodies of a node are a prefix that later nodes often share
    order = sorted(range(n), key=lambda i: len(bodies[i].vertices))
    origin = (0,) * n
    prefixes: dict[tuple[tuple[int, int], ...], VPolytope] = {}
    total = Fraction(0)
    for a, w in _interpolation_plan(n):
        key: tuple[tuple[int, int], ...] = ()
        acc = None
        for k, i in enumerate(order):
            key += ((i, a[i]),)
            nxt = prefixes.get(key)
            if nxt is None:
                scaled = scale_translate(bodies[i], a[i], origin)
                nxt = scaled if acc is None else minkowski_sum(acc, scaled)
                if k < n - 1:
                    prefixes[key] = nxt
            acc = nxt
        total += w * volume(acc)
    return Fraction(total, math.factorial(n))


def mixed_volume_via_measure(bodies: Sequence[VPolytope]) -> Fraction:
    """Integral of the last support function against the mixed area measure
    of the first n-1 bodies."""
    from .area_measure import mixed_area_measure

    n = _check_tuple(bodies)
    measure = mixed_area_measure(bodies[:-1])
    last = bodies[-1]
    total = Fraction(0)
    for z, w in measure.atoms.items():
        total += support_value(last, z) * w
    return Fraction(total, n)


def mixed_volume_diff(args: Sequence[DiffArg]) -> Fraction:
    """Multilinear extension of the mixed volume to differences of support
    functions, expanded over the plus/minus parts."""
    if not args:
        raise PreconditionError("empty argument tuple")
    n = args[0].n
    if len(args) != n:
        raise PreconditionError(f"needs exactly {n} arguments")
    total = Fraction(0)
    for sign, tup in expand_support_diffs(args):
        total += sign * mixed_volume(tup)
    return total
