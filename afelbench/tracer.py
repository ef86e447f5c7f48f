"""Per-layer tracing from outside the program.

Each traced function is replaced, in every afel module namespace that binds
it, by a wrapper that records a span (function, parent span, start, end).
`from .geometry import minkowski_sum` copies the name into the importing
module, so replacing it only where it is defined would miss those calls.
Spans stay in memory and are written out when the pass ends; self time is a
span's duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import sys
import time

# (module, function) pairs, named as in the per-layer metrics
TARGETS = (
    ("hull", "hull_structure"),
    ("geometry", "convex_hull"),
    ("geometry", "minkowski_sum"),
    ("geometry", "minkowski_sum_many"),
    ("geometry", "support_set"),
    ("geometry", "is_summand"),
    ("linalg", "matrank"),
    ("linalg", "solve_linear"),
    ("mixed_volume", "volume"),
    ("mixed_volume", "mixed_volume"),
    ("mixed_volume", "mixed_volume_interpolated"),
    ("mixed_volume", "mixed_volume_via_measure"),
    ("area_measure", "mixed_area_measure"),
    ("area_measure", "ball_polytope"),
    ("afi", "afi_check"),
    ("afi", "equality_by_measure"),
    ("afi", "equality_by_support"),
    ("afi", "linearity_equivalence"),
    ("macroid", "admissibility_check"),
    ("macroid", "partial_sum_census"),
    ("macroid", "zonotope_kernel"),
    ("macroid", "segment_summand_max"),
    ("jsonio", "polytope_from_json"),
    ("cli", "main"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)
HULL, MSUM, MSUM_MANY = (NAMES.index(n) for n in
                         ("hull.hull_structure", "geometry.minkowski_sum",
                          "geometry.minkowski_sum_many"))
INTERP, SSM, SUMMAND = (NAMES.index(n) for n in
                        ("mixed_volume.mixed_volume_interpolated",
                         "macroid.segment_summand_max", "geometry.is_summand"))


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, float, float]] = []
        self.calls = [0] * len(NAMES)
        self.self_s = [0.0] * len(NAMES)
        self.active = [0] * len(NAMES)
        self.hull_points_in = self.hull_vertices_out = 0
        self.sum_pairs: set = set()
        self.sum_repeats = 0
        self.sums_in_interp = 0
        self.ssm_zero = 0
        self.summand_true = 0
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "afel" or name.startswith("afel.")]
        for fid, (mod, fn) in enumerate(TARGETS):
            orig = getattr(sys.modules[f"afel.{mod}"], fn)
            wrapper = self._wrap(fid, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in self._patched:
            setattr(m, attr, orig)
        self._patched.clear()

    def _wrap(self, fid: int, fn):
        stack, child_time, spans = self._stack, self._child_time, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            child_time.append(0.0)
            self.active[fid] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.active[fid] -= 1
                stack.pop()
                dur = t1 - t0
                self.self_s[fid] += dur - child_time.pop()
                if child_time:
                    child_time[-1] += dur
                self.calls[fid] += 1
                spans[idx] = (fid, parent, t0, t1)
            self._count(fid, args, out)
            return out

        return traced

    def _count(self, fid: int, args, out) -> None:
        if fid == HULL and not self.active[HULL]:
            self.hull_points_in += len(args[0])
            self.hull_vertices_out += len(out.vertex_ids)
        elif fid == MSUM:
            key = (args[0].n, args[0].vertices, args[1].vertices)
            if key in self.sum_pairs:
                self.sum_repeats += 1
            else:
                self.sum_pairs.add(key)
        elif fid == MSUM_MANY and self.active[INTERP]:
            self.sums_in_interp += 1
        elif fid == SSM and out == 0:
            self.ssm_zero += 1
        elif fid == SUMMAND and out:
            self.summand_true += 1

    def metrics(self) -> dict[str, float]:
        def ratio(a, b):
            return a / b if b else 0.0

        out: dict[str, float] = {}
        for fid, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[fid]
            out[f"{name}.self_s"] = self.self_s[fid]
        out["hull.hull_structure.kept_ratio"] = ratio(
            self.hull_vertices_out, self.hull_points_in)
        out["geometry.minkowski_sum.repeat_ratio"] = ratio(
            self.sum_repeats, self.calls[MSUM])
        out["mixed_volume.mixed_volume_interpolated.sums_per_call"] = ratio(
            self.sums_in_interp, self.calls[INTERP])
        out["macroid.segment_summand_max.zero_ratio"] = ratio(
            self.ssm_zero, self.calls[SSM])
        out["geometry.is_summand.true_ratio"] = ratio(
            self.summand_true, self.calls[SUMMAND])
        return out

    def write_spans(self, path, origin: float) -> None:
        """One line per span: name, parent span index, start and end in
        nanoseconds after origin."""
        with open(path, "w") as fh:
            fh.write("span\tname\tparent\tstart_ns\tend_ns\n")
            for i, (fid, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i}\t{NAMES[fid]}\t{parent}\t"
                         f"{round((t0 - origin) * 1e9)}\t{round((t1 - origin) * 1e9)}\n")


def fraction_profile(stats) -> dict[str, float]:
    """Calls into fractions.py and their share of all self time, from a
    pstats.Stats of a profiled pass."""
    calls = 0
    frac_tt = total_tt = 0.0
    for (filename, _, _), (_, nc, tt, _, _) in stats.stats.items():
        total_tt += tt
        if filename.endswith("fractions.py"):
            calls += nc
            frac_tt += tt
    return {"fractions.calls": calls,
            "fractions.self_share": frac_tt / total_tt if total_tt else 0.0}
