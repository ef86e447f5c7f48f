"""JSON wire formats.

Rationals travel as strings "p/q" (or "p") so no float ever enters or leaves
an exact pipeline; floats appear only in explicitly approximate fields, always
next to their error bounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .area_measure import ArcSupport, AtomicMeasure
from .errors import AfelError
from .geometry import VPolytope, convex_hull
from .linalg import num
from .numerics import FloatWithError
from .polyoid import ApproxMeasure, BodyMeasure


class JsonFormatError(AfelError):
    """Malformed input document; carries a JSON-path-like location."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def frac_to_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_frac(s, path: str):
    if isinstance(s, bool):  # bool is an int subclass: true would read as 1
        raise JsonFormatError(path, "expected rational string, got bool")
    if isinstance(s, int):
        return s
    if not isinstance(s, str):
        raise JsonFormatError(path, f"expected rational string, got {type(s).__name__}")
    try:
        return num(Fraction(s))
    except (ValueError, ZeroDivisionError) as e:
        raise JsonFormatError(path, f"bad rational {s!r}: {e}") from None


def polytope_to_json(p: VPolytope) -> dict:
    return {
        "dim": p.n,
        "vertices": [[frac_to_str(c) for c in v] for v in p.vertices],
    }


def polytope_from_json(obj: Any, path: str = "$") -> VPolytope:
    if not isinstance(obj, dict):
        raise JsonFormatError(path, "expected an object")
    if "dim" not in obj or "vertices" not in obj:
        raise JsonFormatError(path, 'expected keys "dim" and "vertices"')
    n = obj["dim"]
    if not isinstance(n, int) or not 2 <= n <= 4:
        raise JsonFormatError(f"{path}.dim", "ambient dimension must be 2, 3 or 4")
    verts = obj["vertices"]
    if not isinstance(verts, list) or not verts:
        raise JsonFormatError(f"{path}.vertices", "expected a nonempty list")
    pts = []
    for i, row in enumerate(verts):
        if not isinstance(row, list) or len(row) != n:
            raise JsonFormatError(f"{path}.vertices[{i}]",
                                  f"expected a list of {n} rationals")
        pts.append(tuple(parse_frac(c, f"{path}.vertices[{i}][{j}]")
                         for j, c in enumerate(row)))
    return convex_hull(pts)


def measure_to_json(mu: BodyMeasure) -> dict:
    return {"atoms": [{"weight": frac_to_str(q), "polytope": polytope_to_json(p)}
                      for q, p in mu.atoms]}


def measure_from_json(obj: Any, path: str = "$") -> BodyMeasure:
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise JsonFormatError(path, 'expected an object with key "atoms"')
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise JsonFormatError(f"{path}.atoms", "expected a nonempty list")
    out = []
    for i, a in enumerate(atoms):
        if not isinstance(a, dict) or "weight" not in a or "polytope" not in a:
            raise JsonFormatError(f"{path}.atoms[{i}]",
                                  'expected keys "weight" and "polytope"')
        q = parse_frac(a["weight"], f"{path}.atoms[{i}].weight")
        p = polytope_from_json(a["polytope"], f"{path}.atoms[{i}].polytope")
        out.append((q, p))
    return BodyMeasure.of(out)


def atomic_measure_to_json(m: AtomicMeasure) -> dict:
    atoms = sorted(m.atoms.items(), key=lambda kv: kv[0].z)
    return {"atoms": [{"z": list(z.z), "w": frac_to_str(w)} for z, w in atoms]}


def arcs_to_json(arcs: ArcSupport) -> dict:
    return {"arcs": [{"z1": list(z1.z), "z2": list(z2.z)}
                     for z1, z2 in arcs.arcs]}


def float_err_to_json(fe: FloatWithError) -> dict:
    return {"value": fe.value, "abs_err": fe.abs_err}


def approx_measure_to_json(am: ApproxMeasure) -> dict:
    return {
        "approximate": True,
        "atoms": [
            {
                "weight": float_err_to_json(w),
                "vertices": [list(v) for v in body.vertices],
                "vertex_abs_err": body.abs_err,
            }
            for w, body in am.atoms
        ],
    }
