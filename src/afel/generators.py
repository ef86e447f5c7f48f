"""Deterministic random instances: bodies, tuples, zonotopes, admissible
sequences.  Every generator is a pure function of its seed."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import PreconditionError
from .geometry import VPolytope, convex_hull, minkowski_sum_many, segment
from .linalg import primitive
from .macroid import admissibility_check

_BASES = [
    [(0, 0, 0), (12, 0, 0), (0, 12, 0), (0, 0, 12)],
    [(12, 0, 0), (0, 12, 0), (-8, -8, 0), (2, 2, 10), (3, 1, -9)],
    [(12, 0, 0), (-12, 0, 0), (0, 12, 0), (0, -12, 0), (0, 0, 12), (0, 0, -12)],
    [(12, 0, 0), (4, 11, 0), (-9, 8, 0), (-10, -6, 0), (5, -11, 0),
     (0, 1, 11), (1, 0, -12)],
]
_ADMISSIBLE_ATTEMPTS = 200  # perturbation draws before gen_admissible_sequence gives up


def gen_ktope(n: int, k: int, seed: int, span: int = 4) -> VPolytope:
    """Hull of k random integer points (so at most k vertices)."""
    if span < 0:
        raise PreconditionError(f"span {span} is negative")
    rng = random.Random(("ktope", n, k, seed, span).__repr__())
    pts = [tuple(rng.randrange(-span, span + 1) for _ in range(n))
           for _ in range(k)]
    return convex_hull(pts)


def gen_body(n: int, seed: int, points: int = 8, span: int = 3) -> VPolytope:
    """Random full-dimensional polytope: resamples until the hull spans R^n."""
    if span < 1 or points <= n:
        raise PreconditionError(
            f"{points} points in [-{span}, {span}]^{n} never span R^{n}: "
            "needs span >= 1 and more points than the dimension")
    rng = random.Random(("body", n, seed, points, span).__repr__())
    while True:
        pts = [tuple(rng.randrange(-span, span + 1) for _ in range(n))
               for _ in range(points)]
        p = convex_hull(pts)
        if p.dim == n:
            return p


def gen_zonotope(n: int, segments: int, seed: int, span: int = 3) -> VPolytope:
    """Minkowski sum of random segments with pairwise independent directions."""
    # a vector with a coordinate +-1 is primitive, so the exact count is
    # needed only beyond that many directions
    if n < 1 or span < 1 or (
            segments > ((2 * span + 1) ** n - (2 * span - 1) ** n) // 2
            and segments > primitive_direction_count(n, span)):
        raise PreconditionError(
            f"[-{span}, {span}]^{n} holds fewer than {segments} segment directions")
    rng = random.Random(("zonotope", n, segments, seed, span).__repr__())
    segs = []
    dirs = set()
    while len(segs) < segments:
        d = tuple(rng.randrange(-span, span + 1) for _ in range(n))
        if not any(d):
            continue
        key = primitive(d)
        key = tuple(-c for c in key) if next(c for c in key if c) < 0 else key
        if key in dirs:
            continue
        dirs.add(key)
        segs.append(segment((0,) * n, d))
    return minkowski_sum_many(segs)


def primitive_direction_count(n: int, span: int) -> int:
    """Primitive integer vectors in [-span, span]^n up to sign, counted
    without sampling.  Every nonzero vector is its gcd g times a primitive
    one, so P(s) = (2s+1)^n - 1 - sum_{g >= 2} P(floor(s/g)); the floors of
    s/g take O(sqrt s) values, each visited once."""
    memo: dict[int, int] = {}

    def prim(s: int) -> int:
        if s not in memo:
            total = (2 * s + 1) ** n - 1
            g = 2
            while g <= s:
                q = s // g
                last = s // q
                total -= (last - g + 1) * prim(q)
                g = last + 1
            memo[s] = total
        return memo[s]

    return prim(span) // 2


def gen_mixed_body(seed: int) -> VPolytope:
    """Segment, axis square or full-dimensional body in R^3, for criticality
    and positivity mixes."""
    rng = random.Random(("mixed", seed).__repr__())
    kind = rng.randrange(3)
    if kind == 0:
        d = (0, 0, 0)
        while not any(d):
            d = tuple(rng.randrange(-3, 4) for _ in range(3))
        base = tuple(rng.randrange(-2, 3) for _ in range(3))
        return segment(base, tuple(b + c for b, c in zip(base, d)))
    if kind == 1:
        axes = rng.sample(range(3), 2)
        base = [rng.randrange(-2, 3) for _ in range(3)]
        pts = []
        for da in (0, rng.randrange(1, 3)):
            for db in (0, rng.randrange(1, 3)):
                q = list(base)
                q[axes[0]] += da
                q[axes[1]] += db
                pts.append(tuple(q))
        return convex_hull(pts)
    return gen_body(3, seed * 31 + 7, points=rng.randrange(4, 9))


def gen_quad_tuple_4d(seed: int) -> list[VPolytope]:
    """Bounded-complexity 4-tuple in R^4 (vertex budgets 2, 2, 2, 4)."""
    rng = random.Random(("quad4", seed).__repr__())
    counts = [2, 2, 2, 4]
    rng.shuffle(counts)
    out = []
    for k in counts:
        pts = [tuple(rng.randrange(-2, 3) for _ in range(4)) for _ in range(k)]
        out.append(convex_hull(pts))
    return out


def gen_admissible_sequence(m: int, seed: int) -> list[VPolytope]:
    """Perturbed simplicial polytopes with 4, 5, 6, 7, ... vertices passing
    the admissibility check exactly; rational perturbations stand in for the
    generic rotations (rotations would leave the rational field)."""
    if m < 1:
        raise PreconditionError("sequence length must be positive")
    if m > len(_BASES):
        raise PreconditionError(f"at most {len(_BASES)} sequence elements supported")
    rng = random.Random(("admissible", m, seed).__repr__())
    for _ in range(_ADMISSIBLE_ATTEMPTS):
        seq = []
        ok = True
        for i in range(m):
            base = _BASES[i]
            pts = [tuple(c + Fraction(rng.randrange(-8, 9), 32) for c in v)
                   for v in base]
            p = convex_hull(pts)
            if len(p.vertices) != len(base) or p.dim != 3:
                ok = False
                break
            seq.append(p)
        if ok and admissibility_check(seq).passes:
            return seq
    raise PreconditionError("failed to generate an admissible sequence")
