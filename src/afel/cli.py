"""Batch command-line front end.

Exit codes: 0 success, 1 malformed input (with location diagnostics; also
command-line usage errors, out-of-range arguments and `gen` parameters that
admit no instance), 2 precondition violation, 3 theory violation (a library
bug, never an expected outcome), 4 internal error (any other exception, also
a library bug; one line on stderr, no traceback).  Reports are
deterministic: identical inputs, seed and version give byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from . import afi, area_measure, criticality, generators, jsonio, macroid, polyoid
from .errors import PreconditionError, TheoryViolationError
from .geometry import Direction, SupportDiff
from .jsonio import JsonFormatError, frac_to_str
from .mixed_volume import (
    mixed_volume,
    mixed_volume_interpolated,
    mixed_volume_via_measure,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_THEORY = 3
EXIT_INTERNAL = 4


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise JsonFormatError(path, "file not found") from None
    except json.JSONDecodeError as e:
        raise JsonFormatError(f"{path}:{e.lineno}:{e.colno}", e.msg) from None
    except (OSError, ValueError, RecursionError) as e:
        # unreadable, not UTF-8, an integer past Python's digit limit, or
        # nested past the recursion limit
        raise JsonFormatError(path, str(e)) from None


def _load_body(path: str):
    return jsonio.polytope_from_json(_load_json(path), path)


def _load_measure(path: str):
    return jsonio.measure_from_json(_load_json(path), path)


def _emit(obj, args) -> None:
    with jsonio.unlimited_int_digits():
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            # a missing directory, a directory, no permission, a full disk
            raise JsonFormatError(args.out, f"cannot write report: {e.strerror or e}") from None
    else:
        sys.stdout.write(text)


def _sample_directions(n: int, count: int, seed: int) -> list[Direction]:
    rng = Random(("dirs", n, count, seed).__repr__())
    out = []
    while len(out) < count:
        z = tuple(rng.randrange(-5, 6) for _ in range(n))
        if any(z):
            out.append(Direction.of(z))
    return out


# ---------------------------------------------------------------------- cmds


def cmd_mixed_volume(args) -> dict:
    bodies = [_load_body(p) for p in args.bodies]
    fn, name = {
        "ie": (mixed_volume, "inclusion_exclusion"),
        "interp": (mixed_volume_interpolated, "interpolation"),
        "measure": (mixed_volume_via_measure, "facet_integral"),
    }[args.method]
    return {"value": frac_to_str(fn(bodies)), "method": name}


def cmd_area_measure(args) -> dict:
    bodies = [_load_body(p) for p in args.bodies]
    return jsonio.atomic_measure_to_json(area_measure.mixed_area_measure(bodies))


def cmd_ball_support(args) -> dict:
    return jsonio.arcs_to_json(area_measure.ball_support_arcs(_load_body(args.body)))


def cmd_criticality(args) -> dict:
    rep = criticality.classify([_load_body(p) for p in args.bodies])
    return {
        "class": rep.classification,
        "witness": list(rep.witness) if rep.witness is not None else None,
        "per_subset": [{"subset": list(s), "dim": d} for s, d in rep.per_subset],
    }


def _witness_json(w):
    if w is None:
        return None
    a, x = w
    return {"a": frac_to_str(a), "x": [frac_to_str(c) for c in x]}


def cmd_afi_check(args) -> dict:
    rep = afi.afi_check(_load_body(args.k), _load_body(args.l),
                        [_load_body(p) for p in args.c])
    return {
        "v_kl": frac_to_str(rep.v_kl),
        "v_kk": frac_to_str(rep.v_kk),
        "v_ll": frac_to_str(rep.v_ll),
        "discriminant": frac_to_str(rep.discriminant),
        "equality": rep.equality,
        "branch": rep.branch,
        "witness": _witness_json(rep.witness),
    }


def cmd_equality(args) -> dict:
    k = _load_body(args.k)
    l = _load_body(args.l)
    cs = [_load_body(p) for p in args.c]
    if args.route == "measure":
        a = afi.equality_by_measure(k, l, cs)
        return {"route": "measure", "equality": a is not None,
                "a": frac_to_str(a) if a is not None else None}
    if len(cs) != 1:
        raise PreconditionError("support route takes exactly one C body")
    w = afi.equality_by_support(k, l, cs[0])
    return {"route": "support", "equality": w is not None,
            "witness": _witness_json(w)}


def cmd_linearity(args) -> dict:
    f = SupportDiff(_load_body(args.plus), _load_body(args.minus))
    rep = afi.linearity_equivalence(f, _load_body(args.c))
    return {
        "measure_vanishes": rep.measure_vanishes,
        "linear_on_support": rep.linear_on_support,
        "witness_x": [frac_to_str(c) for c in rep.witness_x]
        if rep.witness_x is not None else None,
        "agree": rep.agree,
    }


def cmd_polyoid(args) -> dict:
    mu = _load_measure(args.measure)
    if args.action == "body":
        return jsonio.polytope_to_json(polyoid.body_of_measure(mu))
    if args.action == "verify":
        if args.body is None:
            raise JsonFormatError("--body", "required for polyoid verify")
        if args.samples < 1:
            raise JsonFormatError("--samples", "must be at least 1")
        body = _load_body(args.body)
        dirs = _sample_directions(mu.n, args.samples, args.seed)
        return {"verified": polyoid.verify_generating(mu, body, dirs)}
    if args.action == "pushforward":
        if args.z is None:
            raise JsonFormatError("--z", "required for polyoid pushforward")
        if len(args.z) != mu.n:
            raise JsonFormatError("--z", f"needs {mu.n} coordinates, got {len(args.z)}")
        if not any(args.z):
            raise JsonFormatError("--z", "zero vector has no direction")
        z = Direction.of(args.z)
        return jsonio.measure_to_json(polyoid.support_pushforward(mu, z))
    return jsonio.approx_measure_to_json(polyoid.steiner_normalize(mu))


def cmd_kernel(args) -> dict:
    return jsonio.polytope_to_json(macroid.zonotope_kernel(_load_body(args.body)))


def cmd_admissible(args) -> dict:
    rep = macroid.admissibility_check([_load_body(p) for p in args.seq])
    return {
        "passes": rep.passes,
        "all_facets_triangles": rep.all_facets_triangles,
        "all_full_dimensional": rep.all_full_dimensional,
        "edge_directions_distinct": rep.edge_directions_distinct,
        "cross_support_trivial": rep.cross_support_trivial,
        "triples_span": rep.triples_span,
        "diam_sum_enclosure": list(rep.diam_sum_enclosure),
        "witness": repr(rep.witness) if rep.witness is not None else None,
        "note": "conditions certified on the finite prefix only",
    }


def cmd_census(args) -> dict:
    if not 1 <= args.upto <= len(args.seq):
        raise JsonFormatError("--upto", f"must be between 1 and {len(args.seq)}")
    cen = macroid.partial_sum_census([_load_body(p) for p in args.seq], args.upto)
    return {
        "triangles": cen.triangles,
        "parallelograms": cen.parallelograms,
        "other": cen.other,
        "admissible_prefix": cen.admissible_prefix,
        "provenance": [
            {"normal": list(p.normal), "kind": p.kind, "sources": list(p.sources)}
            for p in cen.provenance
        ],
    }


def _gen_one(kind: str, seed: int, args):
    if kind == "ktope":
        return [generators.gen_ktope(args.dim, args.k, seed, args.span)]
    if kind == "body":
        return [generators.gen_body(args.dim, seed, args.points, args.span)]
    if kind == "zonotope":
        return [generators.gen_zonotope(args.dim, args.segments, seed, args.span)]
    if kind == "mixed":
        return [generators.gen_mixed_body(seed)]
    if kind == "quad4":
        return generators.gen_quad_tuple_4d(seed)
    return generators.gen_admissible_sequence(args.m, seed)


def cmd_gen(args) -> dict:
    if args.count < 1:
        raise JsonFormatError("--count", "must be at least 1")
    out = []
    for seed in range(args.seed, args.seed + args.count):
        try:
            bodies = _gen_one(args.kind, seed, args)
        except PreconditionError as e:
            # every generator input is a command-line argument
            raise JsonFormatError(f"gen --kind {args.kind}", str(e)) from None
        out.append({"seed": seed,
                    "bodies": [jsonio.polytope_to_json(b) for b in bodies]})
    return {"instances": out} if args.count > 1 else out[0]


# ------------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input: exit 1, not argparse's 2 (the
    precondition code).  Subcommand parsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="afel",
        description="Exact mixed volumes, mixed area measures and "
                    "Alexandrov-Fenchel equality cases for polytopes.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_out(p):
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("mixed-volume", help="exact mixed volume of n bodies")
    p.add_argument("--bodies", nargs="+", required=True)
    p.add_argument("--method", choices=["ie", "interp", "measure"], default="ie")
    add_out(p)
    p.set_defaults(fn=cmd_mixed_volume)

    p = sub.add_parser("area-measure", help="atomic mixed area measure of n-1 bodies")
    p.add_argument("--bodies", nargs="+", required=True)
    add_out(p)
    p.set_defaults(fn=cmd_area_measure)

    p = sub.add_parser("ball-support", help="arc support of S(B^3, C, .)")
    p.add_argument("--body", required=True)
    add_out(p)
    p.set_defaults(fn=cmd_ball_support)

    p = sub.add_parser("criticality", help="criticality class of a body tuple")
    p.add_argument("--bodies", nargs="+", required=True)
    add_out(p)
    p.set_defaults(fn=cmd_criticality)

    p = sub.add_parser("afi-check", help="Alexandrov-Fenchel discriminant report")
    p.add_argument("--k", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--c", nargs="*", default=[])
    add_out(p)
    p.set_defaults(fn=cmd_afi_check)

    p = sub.add_parser("equality", help="equality-case decision")
    p.add_argument("--route", choices=["measure", "support"], required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--l", required=True)
    p.add_argument("--c", nargs="*", default=[])
    add_out(p)
    p.set_defaults(fn=cmd_equality)

    p = sub.add_parser("linearity", help="vanishing measure vs linearity on arcs")
    p.add_argument("--plus", required=True, help="body for the positive part of f")
    p.add_argument("--minus", required=True, help="body for the negative part of f")
    p.add_argument("--c", required=True)
    add_out(p)
    p.set_defaults(fn=cmd_linearity)

    p = sub.add_parser("polyoid", help="generating-measure operations")
    p.add_argument("action", choices=["body", "verify", "pushforward", "normalize"])
    p.add_argument("--measure", required=True)
    p.add_argument("--body")
    p.add_argument("--z", nargs="+", type=int)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)
    p.set_defaults(fn=cmd_polyoid)

    p = sub.add_parser("kernel", help="maximal centered zonotope summand")
    p.add_argument("--body", required=True)
    add_out(p)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("admissible", help="admissibility report for a sequence")
    p.add_argument("--seq", nargs="+", required=True)
    add_out(p)
    p.set_defaults(fn=cmd_admissible)

    p = sub.add_parser("census", help="facet census of a partial sum")
    p.add_argument("--seq", nargs="+", required=True)
    p.add_argument("--upto", type=int, required=True)
    add_out(p)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("gen", help="deterministic random instances")
    p.add_argument("--kind", required=True,
                   choices=["ktope", "body", "zonotope", "mixed", "quad4",
                            "admissible-seq"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--span", type=int, default=3)
    p.add_argument("--segments", type=int, default=5)
    p.add_argument("--m", type=int, default=4)
    add_out(p)
    p.set_defaults(fn=cmd_gen)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.fn(args), args)
    except JsonFormatError as e:
        sys.stderr.write(f"input error: {e}\n")
        return EXIT_BAD_INPUT
    except PreconditionError as e:
        sys.stderr.write(f"precondition violated: {e}\n")
        return EXIT_PRECONDITION
    except TheoryViolationError as e:
        sys.stderr.write(f"theory violation (library bug): {e}\n")
        return EXIT_THEORY
    except Exception as e:
        sys.stderr.write(f"internal error (library bug): {type(e).__name__}: {e}\n")
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
