"""Benchmark of afel's exact kernel: four seeded workloads, every output checked.

    python3 afelbench/run.py --workload mv-routes --seed 1 --seconds 20 --trace 0

Each pass over a workload's instance set runs in a fresh interpreter
(passrun.py), started one at a time, so nothing the program caches carries
from one pass to the next.  With --trace 0 the run makes passes until
--seconds are used (at least three) and reports the end-to-end metrics; with
--trace 1 it makes one plain, one traced and one profiled pass and reports
the per-layer metrics.  The last line of stdout is the result as JSON.
`--workload all` runs every workload in turn; `--smoke` uses a tiny
instance set and one pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mv-routes", "afi-cli", "macroid-kernel", "ball-oracle")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def run_pass(workload: str, seed: int, mode: str, smoke: bool,
             spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if smoke:
        cmd.append("--smoke")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0", AFEL_THREADS="1")
    env.pop("PYTHONPATH", None)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass ran over {PASS_TIMEOUT_S}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready"] - start
    return res


def tally(passes: list[dict]) -> tuple[int, int, bool]:
    """Attempted and failed operations over the passes, and whether every
    operation that completed gave a correct output.  An output whose digest
    differs from the first pass's fails too: reports must be the same in
    every pass."""
    first = passes[0]["digests"]
    attempted = failed = 0
    correct = True
    for p in passes:
        errors = {int(i) for i in p["errors"]}
        for i, d in enumerate(p["digests"]):
            attempted += 1
            if i in errors:
                failed += 1
            elif d != first[i]:
                failed += 1
                correct = False
        if p["wrong"]:
            correct = False
    return attempted, failed, correct


def measure(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    begin = time.monotonic()
    passes = [run_pass(workload, seed, "plain", smoke)]
    while not smoke:
        used = time.monotonic() - begin
        typical = used / len(passes)
        if len(passes) >= MIN_PASSES and used + typical > seconds:
            break
        passes.append(run_pass(workload, seed, "plain", smoke))
    latency_ms = [t * 1e3 for p in passes for t in p["latency_s"]]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "op_ms_p50": statistics.median(latency_ms),
        # fewer than 100 operations a run (ball-oracle) make this the
        # slowest instance's typical latency rather than a tail
        "op_ms_p90": (statistics.quantiles(latency_ms, n=10, method="inclusive")[8]
                      if len(latency_ms) > 1 else latency_ms[0]),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    return result(passes, values, "end_to_end")


def trace(workload: str, seed: int, smoke: bool) -> dict:
    out_dir = ROOT / ".afelbench" / "trace"
    out_dir.mkdir(parents=True, exist_ok=True)
    plain = run_pass(workload, seed, "plain", smoke)
    traced = run_pass(workload, seed, "trace", smoke,
                      spans=out_dir / f"{workload}-seed{seed}.tsv")
    profiled = run_pass(workload, seed, "profile", smoke)
    values = {**traced["layers"], **profiled["layers"],
              "trace.overhead_s": traced["pass_s"] - plain["pass_s"]}
    return result([plain, traced, profiled], values, "per_layer")


def result(passes: list[dict], values: dict, kind: str) -> dict:
    """The result object, with each metric's unit as BENCHMARK.json lists it
    under `kind`; a listed metric that was not measured is an error."""
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    if set(units) != set(values):
        raise BenchError(f"{kind} metrics measured {sorted(values)} differ "
                         f"from BENCHMARK.json's {sorted(units)}")
    attempted, failed, correct = tally(passes)
    for p in passes:
        for i, err in p["errors"].items():
            sys.stderr.write(f"op {i}: {err}\n")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny instance sets, one pass each")
    args = ap.parse_args()
    if not (ROOT / "src" / "afel" / "__init__.py").is_file():
        sys.stderr.write(f"no afel sources under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = trace(name, args.seed, args.smoke)
            else:
                results[name] = measure(name, args.seed, args.seconds, args.smoke)
    except BenchError as e:
        sys.stderr.write(f"{e}\n")
        return 1
    for name, res in results.items():
        line = "  ".join(f"{k}={m['value']:.6g}{m['unit']}"
                         for k, m in res["metrics"].items())
        print(f"{name}: attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}  {line}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    out = ROOT / ".afelbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(final, indent=1) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
