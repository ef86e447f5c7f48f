"""The four workloads: their instance sets, operations and checks.

An operation is one call of a public afel entry point on one instance.
`build` turns a seed into a Spec: the operations of one pass, in order, and
the checks on their outputs.  Inputs are generated by inputs.py; the program
only turns the generated point lists into bodies (part of set-up).  A check
covers one or more operations and fails all of them when it does not hold.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import import_module
from typing import Callable, Optional

import checks as ck
import inputs as gen

# the package re-exports functions under some module names (afel.mixed_volume)
area_measure, cli, geometry, macroid, mixed_volume = (
    import_module(f"afel.{m}") for m in
    ("area_measure", "cli", "geometry", "macroid", "mixed_volume"))

WORKLOADS = ("mv-routes", "afi-cli", "macroid-kernel", "ball-oracle")
ROUTES = ("mixed_volume", "mixed_volume_interpolated", "mixed_volume_via_measure")


@dataclass
class Op:
    module: object  # an afel module: the entry point is looked up at call time
    func: str
    args: tuple
    out_path: Optional[str] = None  # CLI ops: the report file

    def __call__(self):
        return getattr(self.module, self.func)(*self.args)


@dataclass
class Spec:
    ops: list[Op] = field(default_factory=list)
    checks: list[tuple[tuple[int, ...], Callable]] = field(default_factory=list)

    def add(self, op: Op) -> int:
        self.ops.append(op)
        return len(self.ops) - 1

    def check(self, ids, fn: Callable) -> None:
        """fn receives the outputs of ops `ids`, in order, and returns a bool."""
        self.checks.append((tuple(ids), fn))


def hull(points):
    return geometry.convex_hull(points)


# ---------------------------------------------------------------- mv-routes


def _tuple_ops(spec: Spec, bodies, expected: Optional[Fraction] = None) -> list[int]:
    """The three mixed-volume routes on one tuple, which must agree and equal
    the closed-form value when there is one, and the mixed area measure the
    third route integrates, which must satisfy Minkowski's relation."""
    ids = [spec.add(Op(mixed_volume, fn, (bodies,))) for fn in ROUTES]
    spec.check(ids, lambda vs: vs[0] == vs[1] == vs[2])
    if expected is not None:
        for i in ids:
            spec.check([i], lambda vs, e=expected: vs[0] == e)
    i = spec.add(Op(area_measure, "mixed_area_measure", (bodies[:-1],)))
    spec.check([i], lambda vs: ck.centroid_zero(atoms(vs[0])))
    return ids


def atoms(measure) -> list:
    return [(z.z, w) for z, w in measure.atoms.items()]


def mv_routes(seed: int, smoke: bool) -> Spec:
    rng = gen.rng_for("mv-routes", seed)
    spec = Spec()
    n2, n_af, n4, nz3, nz4, nbox = (1, 1, 0, 1, 1, 1) if smoke else (8, 4, 1, 3, 1, 2)
    for _ in range(n2):
        _tuple_ops(spec, [hull(gen.sphere_body(rng, 2, k, 65)) for k in (5, 4)])
    for _ in range(n_af):
        # K, L full-dimensional, M a triangle; (K,L,M), (K,K,M), (L,L,M)
        k, l, m = (hull(gen.sphere_body(rng, 3, c, 50)) for c in (5, 4, 3))
        klm = _tuple_ops(spec, [k, l, m])
        kkm = _tuple_ops(spec, [k, k, m])
        llm = _tuple_ops(spec, [l, l, m])
        spec.check(klm + kkm + llm,
                   lambda vs: ck.af_inequality(vs[0], vs[3], vs[6]))
    for _ in range(n4):
        tetra = hull(gen.sphere_body(rng, 4, 4, 6, shift=1))
        segs = [hull(gen.sphere_body(rng, 4, 2, 6, shift=1)) for _ in range(3)]
        _tuple_ops(spec, [tetra] + segs)
    for n, count, gens_per_body in ((3, nz3, (2, 2, 2)), (4, nz4, (2, 1, 1, 1))):
        for _ in range(count):
            gens = [gen.generators(rng, n, m) for m in gens_per_body]
            bodies = [hull(gen.zonotope_points(g, gen.rational_vector(rng, n, 2, 2)))
                      for g in gens]
            _tuple_ops(spec, bodies, ck.zonotope_mixed_volume(gens))
    for _ in range(nbox):
        sides = [[rng.randrange(1, 5) for _ in range(3)] for _ in range(3)]
        bodies = [hull(gen.box_points([rng.randrange(-2, 3) for _ in range(3)], s))
                  for s in sides]
        _tuple_ops(spec, bodies, ck.box_mixed_volume(sides))
    return spec


# ------------------------------------------------------------------ afi-cli


class CliFiles:
    """Writes the generated bodies as CLI input documents into a work dir."""

    def __init__(self, work: str):
        self.work = work
        self.count = 0

    def body(self, points) -> str:
        path = os.path.join(self.work, f"in{self.count}.json")
        self.count += 1
        doc = {"dim": len(points[0]),
               "vertices": [[str(Fraction(c)) for c in p] for p in points]}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def op(self, spec: Spec, argv: list[str]) -> int:
        out = os.path.join(self.work, f"out{len(spec.ops)}.json")
        return spec.add(Op(cli, "main", (argv + ["--out", out],), out))


def report(out) -> Optional[dict]:
    """The parsed report of a CLI op, or None when the command failed."""
    code, data = out
    return json.loads(data) if code == 0 else None


def reported(pred: Callable[[dict], bool]) -> Callable:
    """A check on one CLI op: it exited 0 and its report satisfies pred."""
    def check(outs):
        r = report(outs[0])
        return r is not None and pred(r)
    return check


def afi_cli(seed: int, smoke: bool, work: str) -> Spec:
    rng = gen.rng_for("afi-cli", seed)
    spec = Spec()
    files = CliFiles(work)
    n_afi, n_hom, n_cube, n_box, n_rand = (1, 1, 1, 1, 1) if smoke else (8, 4, 3, 3, 3)

    def body3(k):
        return gen.sphere_body(rng, 3, k, 26)

    def eq_ops(k, l, c):
        return [files.op(spec, ["equality", "--route", route, "--k", k, "--l", l,
                                "--c", c]) for route in ("measure", "support")]

    def routes_agree(outs):
        m, s = (report(o) for o in outs)
        return m is not None and s is not None and m["equality"] == s["equality"]

    for _ in range(n_afi):
        k, l, c = (files.body(body3(v)) for v in (5, 5, 4))
        i = files.op(spec, ["afi-check", "--k", k, "--l", l, "--c", c])
        spec.check([i], reported(ck.discriminant_consistent))
    for _ in range(n_hom):
        pts = body3(6)
        s = rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), Fraction(2),
                        Fraction(5, 2)))
        x = gen.rational_vector(rng, 3)
        k = files.body(pts)
        l = files.body([tuple(s * c + t for c, t in zip(p, x)) for p in pts])
        ids = eq_ops(k, l, files.body(body3(4)))
        a, wx = ck.homothety_witness(s, x)
        spec.check(ids, routes_agree)
        spec.check(ids[:1], reported(lambda r, a=a: r["equality"] and Fraction(r["a"]) == a))
        spec.check(ids[1:], reported(lambda r, w=(a, wx): ck.witness_of(r) == w))
    cube = files.body(gen.sym_cube_points())
    for _ in range(n_cube):
        depth = Fraction(rng.randrange(1, 64), 64)
        l = files.body(gen.truncated_cube_points(depth))
        i = files.op(spec, ["afi-check", "--k", cube, "--l", l, "--c", cube])
        spec.check([i], reported(ck.truncated_cube_report_ok))
        ids = eq_ops(cube, l, cube)
        spec.check(ids, routes_agree)
        spec.check(ids[:1], reported(lambda r: r["equality"] and Fraction(r["a"]) == 1))
        spec.check(ids[1:], reported(lambda r: ck.witness_of(r) == (1, (0, 0, 0))))
    for _ in range(n_box):
        lo = [-rng.randrange(1, 4) for _ in range(3)]
        sides = [rng.randrange(2, 6) for _ in range(3)]
        plus = files.body(gen.box_points(lo, sides))
        minus = files.body(gen.truncated_box_points(rng, lo, sides))
        c = files.body(gen.box_points([-rng.randrange(1, 4) for _ in range(3)],
                                      [rng.randrange(2, 6) for _ in range(3)]))
        i = files.op(spec, ["linearity", "--plus", plus, "--minus", minus, "--c", c])
        # f = h_box - h_truncated vanishes on the coordinate circles, which
        # carry S(B, C, .) for a box C: linear with witness 0
        spec.check([i], reported(lambda r: r["agree"] and r["measure_vanishes"]
                                 and r["linear_on_support"]
                                 and all(Fraction(c) == 0 for c in r["witness_x"])))
    for _ in range(n_rand):
        k, l, c = (files.body(body3(v)) for v in (5, 4, 4))
        i = files.op(spec, ["linearity", "--plus", k, "--minus", l, "--c", c])
        spec.check([i], reported(lambda r: r["agree"]))
        spec.check(eq_ops(k, l, c), routes_agree)
    return spec


# ----------------------------------------------------------- macroid-kernel


def macroid_kernel(seed: int, smoke: bool) -> Spec:
    rng = gen.rng_for("macroid-kernel", seed)
    spec = Spec()
    seq = macroid.load_admissible_fixture()
    # 8 fixture ops and 7 kernels of like cost: the median and 90th
    # percentile of a pass's 15 latencies fall inside a group, not between
    top, n_zb = (2, 1) if smoke else (4, 7)
    i = spec.add(Op(macroid, "admissibility_check", (seq,)))
    spec.check([i], lambda outs: outs[0].passes)
    facets = [ck.simplicial_facets(v) for v in fixture_vertex_counts()]
    for m in range(2, top + 1):
        i = spec.add(Op(macroid, "partial_sum_census", (seq, m)))
        spec.check([i], lambda outs, f=sum(facets[:m]): ck.census_ok(outs[0], f))
    origin = ((0, 0, 0),)
    for m in range(1, top + 1):
        partial = geometry.minkowski_sum_many(seq[:m])
        i = spec.add(Op(macroid, "zonotope_kernel", (partial,)))
        spec.check([i], lambda outs: outs[0].vertices == origin)
    dirs = []
    while len(dirs) < 24:
        d = tuple(rng.randrange(-5, 6) for _ in range(3))
        if any(d):
            dirs.append(d)
    # the seed moves each Z + B by a symmetry of the cube and a translation;
    # the shapes come from one fixed stream, so kernel costs, which vary a lot
    # from shape to shape, are the same for every seed
    shapes = gen.rng_for("macroid-kernel-shapes", 0)
    for _ in range(n_zb):
        g = gen.signed_permutation(rng, 3)
        gens = [g(v) for v in gen.generators(shapes, 3, 3)]
        zpts = gen.zonotope_points(gens, tuple(rng.randrange(-3, 4) for _ in range(3)))
        bpts = [g(v) for v in gen.sphere_body(shapes, 3, 4, 11)]
        p = hull([tuple(a + b for a, b in zip(z, q)) for z in zpts for q in bpts])
        i = spec.add(Op(macroid, "zonotope_kernel", (p,)))
        spec.check([i], lambda outs, g=gens: ck.kernel_contains_zonotope(
            outs[0].vertices, g, dirs))
    return spec


def fixture_vertex_counts() -> list[int]:
    """Vertex counts read straight from the shipped fixture documents (each
    listed point is a vertex of its simplicial body)."""
    from importlib import resources

    root = resources.files("afel.fixtures")
    return [len(json.loads(root.joinpath(f"admissible_seq_{i}.json").read_text())
                ["vertices"]) for i in range(1, 5)]


# -------------------------------------------------------------- ball-oracle


def ball_oracle(seed: int, smoke: bool) -> Spec:
    rng = gen.rng_for("ball-oracle", seed)
    spec = Spec()
    m3, m4 = (50, 8) if smoke else (200, 20)

    def measure_ok(outs):
        a = atoms(outs[0])
        return ck.centroid_zero(a) and ck.all_weights_positive(a)

    # costs are apart (pair in R^4 < cube < body), so the median latency is
    # the cube's, which no seed changes, and the 90th percentile the body's
    cube = hull(gen.sym_cube_points())
    i = spec.add(Op(area_measure, "ball_measure_numeric", ([cube], m3)))
    spec.check([i], measure_ok)
    spec.check([i], lambda outs: ck.mass_near_coordinate_circles(atoms(outs[0])) >= 0.99)
    body = hull(gen.sphere_body(rng, 3, 14, 50))
    spec.check([spec.add(Op(area_measure, "ball_measure_numeric", ([body], m3)))],
               measure_ok)
    pair = [hull(gen.sphere_body(rng, 4, 3, 6, shift=1)) for _ in range(2)]
    spec.check([spec.add(Op(area_measure, "ball_measure_numeric", (pair, m4)))],
               measure_ok)
    return spec


def build(workload: str, seed: int, smoke: bool, work: str) -> Spec:
    if workload == "mv-routes":
        return mv_routes(seed, smoke)
    if workload == "afi-cli":
        return afi_cli(seed, smoke, work)
    if workload == "macroid-kernel":
        return macroid_kernel(seed, smoke)
    if workload == "ball-oracle":
        return ball_oracle(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")
