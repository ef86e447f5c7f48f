"""Exact mixed volumes via three mutually independent routes.

The inclusion-exclusion expansion is the reference implementation; the n-th
mixed difference of the volume polynomial (the interpolation route) and the
area-measure integral exist as independent oracles and must agree with it to
the last bit.

Inclusion-exclusion and interpolation share `volume`; the measure route shares
neither, as its facet weights are measure integrals one dimension lower.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .area_measure import mixed_area_measure
from .errors import PreconditionError
from .geometry import (
    DiffArg,
    VPolytope,
    expand_support_diffs,
    minkowski_sum,
    scale_translate,
)
from .hull import _shoelace, divergence_volume


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


def _difference_nodes(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Nodes a in {1, 2}^n with signs (-1)^#{i : a_i = 1}: the n-fold mixed
    difference with step 1 at (1, ..., 1).

    vol(sum_i x_i K_i) is a form of degree n in x whose x_1*...*x_n
    coefficient is n! * V(K_1, ..., K_n).  The difference sends that
    monomial to 1 and every other degree-n monomial, which misses some
    variable, to 0; so sum_a sign * vol(sum_i a_i K_i) = n! * V.
    """
    return [(a, (-1) ** a.count(1)) for a in itertools.product((1, 2), repeat=n)]


def mixed_volume_interpolated(bodies: Sequence[VPolytope]) -> Fraction:
    """Coefficient extraction from the volume polynomial of Minkowski
    combinations: the n-th mixed difference of vol(sum_i a_i K_i) over the
    2^n nodes a in {1, 2}^n.

    The route forms its own scaled sums and never reads another route's; the
    one body it shares with inclusion-exclusion is the full sum at
    a = (1, ..., 1)."""
    n = _check_tuple(bodies)
    # fold smallest body first, as minkowski_sum_many does; the first n-1
    # scaled bodies of a node are a prefix that later nodes often share
    order = sorted(range(n), key=lambda i: len(bodies[i].vertices))
    origin = (0,) * n
    prefixes: dict[tuple[tuple[int, int], ...], VPolytope] = {}
    total = Fraction(0)
    for a, sign in _difference_nodes(n):
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
        total += sign * volume(acc)
    return Fraction(total, math.factorial(n))


def mixed_volume_via_measure(bodies: Sequence[VPolytope]) -> Fraction:
    """Integral of the last support function against the mixed area measure
    of the first n-1 bodies."""
    n = _check_tuple(bodies)
    return Fraction(mixed_area_measure(bodies[:-1]).integrate_support(bodies[-1]), n)


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
