import itertools
import math
import os
import random
import sys
from fractions import Fraction

import pytest

import afel
from afel.geometry import convex_hull, segment

# subprocesses run the afel this suite imported, never another installed copy
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (os.path.dirname(os.path.dirname(afel.__file__)),
                os.environ.get("PYTHONPATH")) if p)}


@pytest.fixture
def unit_cube():
    return convex_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])


@pytest.fixture
def sym_cube():
    return convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])


@pytest.fixture
def tetra():
    return convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture
def axis_segments():
    return [
        segment((0, 0, 0), (1, 0, 0)),
        segment((0, 0, 0), (0, 1, 0)),
        segment((0, 0, 0), (0, 0, 1)),
    ]


def truncated_cube(depth=Fraction(1, 4)):
    """Symmetric cube with all eight corners cut at the given depth."""
    pts = []
    for sx in (-1, 1):
        for sy in (-1, 1):
            for sz in (-1, 1):
                pts.append((sx * (1 - depth), sy, sz))
                pts.append((sx, sy * (1 - depth), sz))
                pts.append((sx, sy, sz * (1 - depth)))
    return convex_hull(pts)


def random_body(rng: random.Random, n: int, max_points: int = 6, span: int = 3,
                full_dim: bool = False):
    while True:
        pts = [tuple(rng.randrange(-span, span + 1) for _ in range(n))
               for _ in range(rng.randrange(2, max_points + 1))]
        p = convex_hull(pts)
        if not full_dim or p.dim == n:
            return p


def leibniz_det(m):
    """Determinant of a square matrix of exact numbers, by the Leibniz formula."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(m)), 2))
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(len(m)))
    return total


def patch_in_afel(monkeypatch, replacements):
    """Replace each function (a key) by its stand-in (the value) wherever an
    afel module binds it."""
    by_id = {id(f): g for f, g in replacements.items()}
    for name, module in list(sys.modules.items()):
        if name == "afel" or name.startswith("afel."):
            for attr, val in list(vars(module).items()):
                if id(val) in by_id:
                    monkeypatch.setattr(module, attr, by_id[id(val)])


def block_in_afel(monkeypatch, route, funcs):
    """Make each function raise wherever an afel module binds it, so that
    any call from `route` fails."""
    def blocker(name):
        def raiser(*args, **kwargs):
            raise RuntimeError(f"{route} called {name}")
        return raiser

    patch_in_afel(monkeypatch, {f: blocker(f.__name__) for f in funcs})
