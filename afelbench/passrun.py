"""One pass over a workload's instance set, in a fresh interpreter.

Started by run.py, one pass at a time.  Prints one JSON line: the monotonic
time at which the inputs were ready (run.py measures set-up from its own
clock reading before the start), the pass's wall time, each operation's
latency, which operations failed and why, a digest of each output, and the
interpreter's peak resident set.  Modes: `plain` (nothing installed),
`trace` (span wrappers, per-layer counts) and `profile` (cProfile, for the
share of time in Fraction arithmetic).
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import hashlib
import json
import os
import pstats
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import afel  # noqa: E402
import afel.cli  # noqa: E402,F401  (imports every module the CLI uses)

if Path(afel.__file__).resolve().parent != ROOT / "src" / "afel":
    sys.exit(f"afel imported from {afel.__file__}, not from this checkout's src/")

import tracer  # noqa: E402
import workloads  # noqa: E402


def canon(x):
    """A representation of an output that is the same for equal outputs and
    does not depend on object identity."""
    if isinstance(x, afel.AtomicMeasure):
        return sorted((z.z, w) for z, w in x.atoms.items())
    if isinstance(x, afel.VPolytope):
        return (x.n, x.dim, x.vertices)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(canon(getattr(x, f.name))
                                           for f in dataclasses.fields(x))
    if isinstance(x, (tuple, list)):
        return tuple(canon(v) for v in x)
    return x


def digest(x) -> str:
    return hashlib.sha256(repr(canon(x)).encode()).hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "trace", "profile"), default="plain")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", help="trace mode: write the spans here")
    args = ap.parse_args()

    work = ROOT / ".afelbench" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = workloads.build(args.workload, args.seed, args.smoke, str(work))
        ready = time.monotonic()
        result = run_pass(spec, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


def run_pass(spec, args) -> dict:
    spans = profiler = None
    if args.mode == "trace":
        spans = tracer.Tracer()
        spans.install()
    elif args.mode == "profile":
        profiler = cProfile.Profile()
        profiler.enable()
    outputs, latency, errors = [], [], {}
    clock = time.perf_counter
    start = clock()
    for i, op in enumerate(spec.ops):
        t0 = clock()
        try:
            out = op()
        except (Exception, SystemExit):
            out = None
            errors[i] = traceback.format_exc(limit=-3)
        latency.append(clock() - t0)
        if op.out_path is not None and i not in errors:
            # CLI ops: the exit code and the bytes of the report
            data = b""
            if out == 0:
                with open(op.out_path, "rb") as fh:
                    data = fh.read()
            else:
                errors[i] = f"{' '.join(op.args[0])}: exit code {out}"
            out = (out, data)
        outputs.append(out)
    pass_s = clock() - start
    layers = {}
    if profiler is not None:
        profiler.disable()
        layers = tracer.fraction_profile(pstats.Stats(profiler))
    elif spans is not None:
        spans.uninstall()
        layers = spans.metrics()
        if args.spans:
            spans.write_spans(args.spans, start)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    wrong = set()
    for ids, fn in spec.checks:
        if any(i in errors for i in ids):
            continue
        try:
            holds = fn([outputs[i] for i in ids])
        except Exception:
            holds = False
        if not holds:
            wrong.update(ids)
    for i in sorted(wrong):
        errors.setdefault(i, f"check failed on op {i}: {spec.ops[i].func}")
    return {
        "pass_s": pass_s,
        "latency_s": latency,
        "errors": {str(i): e for i, e in errors.items()},
        "wrong": sorted(wrong),
        "digests": [digest(o) for o in outputs],
        "peak_rss_mib": peak_kib / 1024,
        "layers": layers,
    }


if __name__ == "__main__":
    sys.exit(main())
