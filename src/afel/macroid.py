"""Zonotope kernels, admissible sequences of simplicial polytopes, and the
face census of their partial Minkowski sums.

All statements certified here are about finite prefixes; no claim about the
limit body is ever asserted by code.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional, Sequence

from mpmath import iv

from . import jsonio
from .errors import PreconditionError, TheoryViolationError
from .geometry import (
    Direction,
    VPolytope,
    _edge_directions,
    convex_hull,
    diameter_sq,
    face_vertices,
    is_summand,
    minkowski_sum_many,
    minkowski_sum_tagged,
    segment,
    singleton,
)
from .linalg import cross3, dot, vscale
from .numerics import interval_precision, iv_sqrt_frac


def _extent_along(ints, vids: Sequence[int], d: tuple[int, ...], den: int) -> Fraction:
    vals = [dot(ints[i], d) for i in vids]
    return Fraction(max(vals) - min(vals), dot(d, d) * den)


def _facet_bound(ints, f, d: tuple[int, ...], den: int) -> Fraction:
    """The shorter of the two chords of P parallel to d at the ends of a
    facet whose normal is orthogonal to d: the facet's extreme sets in the
    in-plane direction perpendicular to d, measured in units of d.  Exact,
    not an upper bound: these are faces of P over shadow vertices."""
    u = cross3(f.normal.z, d)
    vals = [(dot(ints[i], u), i) for i in f.vertex_ids]
    top = max(v for v, _ in vals)
    bot = min(v for v, _ in vals)
    hi_ids = [i for v, i in vals if v == top]
    lo_ids = [i for v, i in vals if v == bot]
    return min(_extent_along(ints, hi_ids, d, den), _extent_along(ints, lo_ids, d, den))


def segment_summand_max(p: VPolytope, d: Direction) -> Fraction:
    """Largest lam >= 0 such that lam*[0, d] is a summand of P.

    A segment S parallel to d is a summand of P iff no chord of P parallel
    to d is shorter than S, for then P = (P ∩ (P - S)) + S (Schneider,
    Convex Bodies, 2nd ed. 2014, §3.1-3.2).  Chord length is concave on the
    shadow of P along d, so the shortest chord lies over a shadow vertex,
    where it is the face of P there: a vertex, or an edge parallel to d.

    - Full-dimensional P: the faces over shadow vertices are the extreme
      sets across d of the facets parallel to d (`_facet_bound`).  With no
      such facet P has no edge parallel to d, and lam = 0.
    - Flat P (no facets): group the vertices by their projection along d,
      hull the projections and take the shortest group over a hull vertex.

    Chords are measured on P's image (`VPolytope.image`, built once per
    body) and divided by its denominator once, in the returned Fraction.
    """
    if p.n != 3:
        raise PreconditionError("segment summands implemented for ambient dimension 3")
    dz = d.z
    ints, den = p.image
    if p.dim == 3:
        return min((_facet_bound(ints, f, dz, den) for f in p.facets
                    if dot(f.normal.z, dz) == 0), default=Fraction(0))
    groups: dict[tuple, list[int]] = {}
    for i, v in enumerate(ints):
        groups.setdefault(cross3(v, dz), []).append(i)
    shadow = convex_hull(list(groups))
    return min(_extent_along(ints, groups[k], dz, den) for k in shadow.vertices)


def zonotope_kernel(p: VPolytope) -> VPolytope:
    """The inclusion-maximal origin-centered zonotope summand: assembled from
    per-edge-direction maximal segment summands and verified as a summand."""
    if p.n != 3:
        raise PreconditionError("zonotope kernel implemented for ambient dimension 3")
    segments = []
    for d in _edge_directions(p):
        lam = segment_summand_max(p, d)
        if lam:
            half = vscale(lam / 2, d.z)
            segments.append(segment(tuple(-c for c in half), half))
    if not segments:
        return singleton((0, 0, 0))
    zono = minkowski_sum_many(segments)
    # independent segment summands sum to a summand; when P = M + Z, every
    # partial sum of Z's segments is a summand too, so one check covers all
    if not is_summand(zono, p):
        raise TheoryViolationError("assembled zonotope kernel is not a summand")
    return zono


@dataclass(frozen=True)
class AdmissibilityReport:
    all_facets_triangles: bool
    all_full_dimensional: bool
    edge_directions_distinct: bool
    cross_support_trivial: bool
    triples_span: bool
    diam_sum_enclosure: tuple[float, float]  # finite-prefix boundedness data
    witness: Optional[tuple]

    @property
    def passes(self) -> bool:
        return (self.all_facets_triangles and self.all_full_dimensional
                and self.edge_directions_distinct and self.cross_support_trivial
                and self.triples_span)


def admissibility_check(seq: Sequence[VPolytope]) -> AdmissibilityReport:
    """Exact checks of the genericity conditions on a finite prefix: triangle
    facets, full dimension, globally distinct edge directions, trivial
    cross support sets, and spanning edge triples across distinct bodies."""
    if not seq:
        raise PreconditionError("empty sequence")
    if any(p.n != 3 for p in seq):
        raise PreconditionError("sequence must live in ambient dimension 3")
    witness = None
    full = all(p.dim == 3 for p in seq)
    if not full:
        witness = witness or ("dimension", next(i for i, p in enumerate(seq) if p.dim != 3))
    triangles = True
    for i, p in enumerate(seq):
        if p.dim == 3 and any(len(f.vertex_ids) != 3 for f in p.facets):
            triangles = False
            witness = witness or ("facet", i)
            break
    dirs_per_body = [_edge_directions(p) for p in seq]
    distinct = True
    seen: dict[Direction, int] = {}
    for i, dirs in enumerate(dirs_per_body):
        for dd in dirs:
            if dd in seen and seen[dd] != i:
                distinct = False
                witness = witness or ("edge-direction", (seen[dd], i, dd.z))
                break
            seen[dd] = i
        if not distinct:
            break
    # within one body: parallel edges collapse in _edge_directions, detect via count
    for i, p in enumerate(seq):
        if p.dim == 3 and len(dirs_per_body[i]) != len(p.edges):
            distinct = False
            witness = witness or ("repeated-edge-direction", i)
            break
    cross = True
    for i, p in enumerate(seq):
        if p.dim != 3 or not cross:
            continue
        for j, q in enumerate(seq):
            if i == j:
                continue
            for f in p.facets:
                if len(face_vertices(q, f.normal)) > 1:
                    cross = False
                    witness = witness or ("cross-support", (i, j, f.normal.z))
                    break
            if not cross:
                break
    triple = _coplanar_triple(dirs_per_body)
    triples = triple is None
    if not triples:
        witness = witness or ("triple", triple)
    with interval_precision():
        total = iv.mpf(0)
        for p in seq:
            total += iv_sqrt_frac(diameter_sq(p))
        diam_sum = (float(total.a), float(total.b))
    return AdmissibilityReport(triangles, full, distinct, cross, triples,
                               diam_sum, witness)


def _coplanar_triple(dirs_per_body: Sequence[Sequence[Direction]]) -> Optional[tuple]:
    """The first (a, b, c, z_a, z_b, z_c) with a < b < c and edge directions
    z_a, z_b, z_c of bodies a, b, c in one plane, scanning body triples and
    then direction triples in product order; None when every such triple
    spans R^3.  Each z_a x z_b is formed once and dotted with every z_c."""
    for a, b, c in itertools.combinations(range(len(dirs_per_body)), 3):
        for da in dirs_per_body[a]:
            for db in dirs_per_body[b]:
                w = cross3(da.z, db.z)
                for dc in dirs_per_body[c]:
                    if dot(w, dc.z) == 0:
                        return (a, b, c, da.z, db.z, dc.z)
    return None


@dataclass(frozen=True)
class FacetProvenance:
    normal: tuple[int, ...]
    kind: str  # "triangle" | "parallelogram" | "other"
    sources: tuple[int, ...]


@dataclass(frozen=True)
class FaceCensus:
    triangles: int
    parallelograms: int
    other: int
    provenance: tuple[FacetProvenance, ...]
    admissible_prefix: bool


def partial_sum_census(seq: Sequence[VPolytope], upto: int) -> FaceCensus:
    """Classify every facet of the partial sum by the dimension profile of
    the per-body support sets, read off the sum's vertex tags: one facet
    source gives a triangle, a pair of edge sources a parallelogram, anything
    else is counted as other.

    On an admissible prefix any "other" facet is impossible, so it raises;
    non-admissible prefixes get the census back as a diagnostic.
    """
    if not 1 <= upto <= len(seq):
        raise PreconditionError("prefix length out of range")
    prefix = list(seq[:upto])
    adm = admissibility_check(prefix)
    total, tags = minkowski_sum_tagged(prefix)
    if total.dim != 3:
        raise PreconditionError("partial sum is not full-dimensional")
    tri = par = other = 0
    prov = []
    for f in total.facets:
        profile = []
        for i in range(len(prefix)):
            # F(p, z) in R^3 from its vertex count: 1 vertex, 2 an edge,
            # 3 or more a polygon
            count = len({tags[v][i] for v in f.vertex_ids})
            if count > 1:
                profile.append((i, min(count - 1, 2)))
        dims = sorted(d for _, d in profile)
        if dims == [2] and len(f.vertex_ids) == 3:
            tri += 1
            prov.append(FacetProvenance(f.normal.z, "triangle",
                                        (profile[0][0],)))
        elif dims == [1, 1] and len(f.vertex_ids) == 4:
            par += 1
            prov.append(FacetProvenance(f.normal.z, "parallelogram",
                                        tuple(i for i, _ in profile)))
        else:
            other += 1
            prov.append(FacetProvenance(f.normal.z, "other",
                                        tuple(i for i, _ in profile)))
    if other and adm.passes:
        raise TheoryViolationError(
            "admissible prefix produced a facet that is neither a triangle "
            "nor a parallelogram")
    return FaceCensus(tri, par, other, tuple(prov), adm.passes)


@dataclass(frozen=True)
class GrowthRow:
    index: int
    vertex_count: int
    min_atoms_k: int  # any generating atom covering this body needs >= k vertices
    scaled_summand_ok: bool


@dataclass(frozen=True)
class GrowthReport:
    rows: tuple[GrowthRow, ...]
    admissible_prefix: bool
    max_required_k: int


def load_admissible_fixture() -> list[VPolytope]:
    """The shipped 4-term admissible sequence (vertex counts 4, 5, 6, 7)."""
    out = []
    for i in range(1, 5):
        ref = resources.files("afel.fixtures").joinpath(f"admissible_seq_{i}.json")
        out.append(jsonio.polytope_from_json(json.loads(ref.read_text())))
    return out


def ktope_vertex_growth(seq: Sequence[VPolytope], upto: int) -> GrowthReport:
    """Desk-scale evidence trail: per prefix element, its vertex count (the
    lower bound on the vertex count of any atom covering its facet normals)
    and the exact confirmation that it is a summand of the partial sum."""
    if not 1 <= upto <= len(seq):
        raise PreconditionError("prefix length out of range")
    prefix = list(seq[:upto])
    adm = admissibility_check(prefix)
    total = minkowski_sum_many(prefix)
    rows = []
    for i, p in enumerate(prefix):
        rows.append(GrowthRow(i, len(p.vertices), len(p.vertices),
                              is_summand(p, total)))
    return GrowthReport(tuple(rows), adm.passes,
                        max(r.min_atoms_k for r in rows))
