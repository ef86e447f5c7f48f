"""Zonotope kernels, admissible sequences of simplicial polytopes, and the
face census of their partial Minkowski sums.

All statements certified here are about finite prefixes; no claim about the
limit body is ever asserted by code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import iv

from .errors import PreconditionError, TheoryViolationError
from .geometry import (
    Direction,
    VPolytope,
    diameter_sq,
    is_summand,
    minkowski_sum_many,
    segment,
    singleton,
    support_set,
)
from .linalg import dot, matrank, primitive, vscale, vsub
from .numerics import iv_sqrt_frac


def _edge_directions(p: VPolytope) -> list[Direction]:
    """Primitive edge directions with a canonical sign (first nonzero > 0)."""
    dirs: set[tuple[int, ...]] = set()
    if p.dim == 1:
        pairs = [(0, 1)]
    elif p.dim == 2:
        cyc = p.cycle
        pairs = [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
    elif p.dim == 3:
        pairs = [e.vertex_ids for e in p.edges]
    else:
        return []
    for i, j in pairs:
        d = primitive(vsub(p.vertices[j], p.vertices[i]))
        lead = next(c for c in d if c != 0)
        if lead < 0:
            d = tuple(-c for c in d)
        dirs.add(d)
    return [Direction(d) for d in sorted(dirs)]


def _extent_along(p: VPolytope, vids: Sequence[int], d: tuple[int, ...]) -> Fraction:
    vals = [dot(p.vertices[i], d) for i in vids]
    return Fraction(max(vals) - min(vals), dot(d, d))


def _facet_bound(p: VPolytope, f, d: tuple[int, ...]) -> Fraction:
    """Upper bound for the segment summand coefficient from one facet whose
    normal is orthogonal to d: both extreme support sets of the facet in the
    in-plane direction perpendicular to d must contain a d-segment of the
    candidate length."""
    from .linalg import cross3

    u = cross3(f.normal.z, d)
    vals = [(dot(p.vertices[i], u), i) for i in f.vertex_ids]
    top = max(v for v, _ in vals)
    bot = min(v for v, _ in vals)
    hi_ids = [i for v, i in vals if v == top]
    lo_ids = [i for v, i in vals if v == bot]
    return min(_extent_along(p, hi_ids, d), _extent_along(p, lo_ids, d))


def segment_summand_max(p: VPolytope, d: Direction) -> Fraction:
    """Largest lam >= 0 such that lam*[0, d] is a summand of P.

    Candidates are the nonnegative vertex-difference projections; monotone
    pass/fail over them justifies a binary search, with one neighbor check
    and an exhaustive fallback should the local pattern disagree.
    """
    if p.n != 3:
        raise PreconditionError("segment summands implemented for ambient dimension 3")
    dz = d.z
    dd = dot(dz, dz)
    bound = None
    if p.dim == 3:
        perp_bounds = [_facet_bound(p, f, dz) for f in p.facets
                       if dot(f.normal.z, dz) == 0]
        # a positive segment summand forces an edge (hence a perpendicular
        # facet pair) in direction d
        if not perp_bounds:
            return Fraction(0)
        bound = min(perp_bounds)
        if bound == 0:
            return Fraction(0)
    candidates = {Fraction(0)}
    for v, w in itertools.combinations(p.vertices, 2):
        t = abs(Fraction(dot(vsub(v, w), dz), dd))
        if bound is None or t <= bound:
            candidates.add(t)
    lam = sorted(candidates)

    def passes(t: Fraction) -> bool:
        if t == 0:
            return True
        return is_summand(segment((0, 0, 0), vscale(t, dz)), p)

    lo, hi = 0, len(lam) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if passes(lam[mid]):
            lo = mid
        else:
            hi = mid - 1
    best = lam[lo]
    consistent = passes(best) and (lo + 1 >= len(lam) or not passes(lam[lo + 1]))
    if not consistent:
        best = max(t for t in lam if passes(t))
    return best


def zonotope_kernel(p: VPolytope) -> VPolytope:
    """The inclusion-maximal origin-centered zonotope summand: assembled from
    per-edge-direction maximal segment summands and verified as a summand."""
    if p.n != 3:
        raise PreconditionError("zonotope kernel implemented for ambient dimension 3")
    origin = singleton((0, 0, 0))
    if p.dim == 0:
        return origin
    acc = None
    for d in _edge_directions(p):
        lam = segment_summand_max(p, d)
        if lam == 0:
            continue
        half = vscale(lam / 2, d.z)
        seg = segment(tuple(-c for c in half), half)
        acc = seg if acc is None else minkowski_sum_many([acc, seg])
        # independent segment summands combine to a summand at every step
        if not is_summand(acc, p):
            raise TheoryViolationError(
                "partial zonotope assembly stopped being a summand")
    return origin if acc is None else acc


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
    dirs_per_body = [_edge_directions(p) if p.dim >= 1 else [] for p in seq]
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
                if support_set(q, f.normal).dim != 0:
                    cross = False
                    witness = witness or ("cross-support", (i, j, f.normal.z))
                    break
            if not cross:
                break
    triples = True
    for a, b, c in itertools.combinations(range(len(seq)), 3):
        for da, db, dc in itertools.product(dirs_per_body[a], dirs_per_body[b],
                                            dirs_per_body[c]):
            if matrank([da.z, db.z, dc.z]) != 3:
                triples = False
                witness = witness or ("triple", (a, b, c, da.z, db.z, dc.z))
                break
        if not triples:
            break
    total = iv.mpf(0)
    for p in seq:
        total += iv_sqrt_frac(diameter_sq(p))
    return AdmissibilityReport(triangles, full, distinct, cross, triples,
                               (float(total.a), float(total.b)), witness)


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
    the per-body support sets: one facet source gives a triangle, a pair of
    edge sources a parallelogram, anything else is counted as other.

    On an admissible prefix any "other" facet is impossible, so it raises;
    non-admissible prefixes get the census back as a diagnostic.
    """
    if not 1 <= upto <= len(seq):
        raise PreconditionError("prefix length out of range")
    prefix = list(seq[:upto])
    adm = admissibility_check(prefix)
    total = minkowski_sum_many(prefix)
    if total.dim != 3:
        raise PreconditionError("partial sum is not full-dimensional")
    tri = par = other = 0
    prov = []
    for f in total.facets:
        profile = []
        for i, p in enumerate(prefix):
            dim = support_set(p, f.normal).dim
            if dim > 0:
                profile.append((i, dim))
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
    import json
    from importlib import resources

    from . import jsonio

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
