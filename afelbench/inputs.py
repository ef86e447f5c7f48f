"""Seeded inputs for the benchmark workloads, made without the program.

Everything here is plain Python over ints and Fractions: the program under
test only ever sees the point lists (and the JSON documents written from
them).  Bodies are random subsets of the integer points on a sphere, so every
chosen point is a vertex and each body's vertex count is fixed by the
workload, not by the seed.  That keeps the work in a pass nearly the same
from seed to seed while the coordinates change.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache


def rng_for(workload: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"afelbench:{workload}:{seed}")


@lru_cache(maxsize=None)
def sphere_points(n: int, r2: int) -> tuple[tuple[int, ...], ...]:
    """All integer points with squared norm r2 in R^n."""
    r = int(r2 ** 0.5) + 1
    return tuple(p for p in itertools.product(range(-r, r + 1), repeat=n)
                 if sum(c * c for c in p) == r2)


def affine_rank(points) -> int:
    """Dimension of the affine hull, by exact elimination."""
    p0 = points[0]
    rows = [[Fraction(a - b) for a, b in zip(p, p0)] for p in points[1:]]
    rank = 0
    for col in range(len(p0)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def sphere_body(rng: random.Random, n: int, k: int, r2: int, shift: int = 2):
    """k points on the sphere of squared radius r2, translated by a random
    integer vector; affinely spanning min(k - 1, n) dimensions."""
    pool = sphere_points(n, r2)
    while True:
        pts = rng.sample(pool, k)
        if affine_rank(pts) == min(k - 1, n):
            t = tuple(rng.randrange(-shift, shift + 1) for _ in range(n))
            return [tuple(a + b for a, b in zip(p, t)) for p in pts]


def generators(rng: random.Random, n: int, m: int, span: int = 3):
    """m integer vectors, pairwise non-parallel."""
    out: list[tuple[int, ...]] = []
    while len(out) < m:
        g = tuple(rng.randrange(-span, span + 1) for _ in range(n))
        if any(g) and all(affine_rank([(0,) * n, g, h]) == 2 for h in out):
            out.append(g)
    return out


def signed_permutation(rng: random.Random, n: int):
    """A random symmetry of the cube [-1, 1]^n, as a map on integer vectors."""
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return lambda v: tuple(signs[i] * v[perm[i]] for i in range(n))


def zonotope_points(gens, base):
    """Every subset sum of the generators, shifted by base: the zonotope
    base + sum of [0, g] is their hull."""
    pts = []
    for mask in itertools.product((0, 1), repeat=len(gens)):
        pts.append(tuple(b + sum(s * g[i] for s, g in zip(mask, gens))
                         for i, b in enumerate(base)))
    return pts


def box_points(lo, sides):
    return [tuple(l + s * e for l, s, e in zip(lo, sides, corner))
            for corner in itertools.product((0, 1), repeat=len(sides))]


def sym_cube_points():
    return list(itertools.product((-1, 1), repeat=3))


def truncated_cube_points(depth: Fraction):
    """The cube [-1, 1]^3 with every corner cut at the given depth."""
    pts = []
    for sx, sy, sz in itertools.product((-1, 1), repeat=3):
        pts.append((sx * (1 - depth), sy, sz))
        pts.append((sx, sy * (1 - depth), sz))
        pts.append((sx, sy, sz * (1 - depth)))
    return pts


def truncated_box_points(rng: random.Random, lo, sides):
    """Box with every corner cut by a generic plane through points on its
    three edges, at most 3/16 of the shortest side from the corner."""
    step = min(sides)
    pts = []
    for corner in itertools.product((0, 1), repeat=3):
        c = [l + s * e for l, s, e in zip(lo, sides, corner)]
        for axis in range(3):
            q = list(c)
            cut = Fraction(rng.randrange(1, 4), 16) * step
            q[axis] += cut if corner[axis] == 0 else -cut
            pts.append(tuple(q))
    return pts


def rational_vector(rng: random.Random, n: int, span: int = 8, den: int = 4):
    return tuple(Fraction(rng.randrange(-span, span + 1), rng.randrange(1, den + 1))
                 for _ in range(n))
