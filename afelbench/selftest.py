"""Self-tests of the benchmark: its checks reject planted wrong values, and
every workload runs to its end on a tiny instance set.

    python3 afelbench/selftest.py

Exits 0 when every test passes.  Each check of each workload is first shown
to hold on the program's real outputs (smoke instance sets), then fed the
same outputs with one of them replaced by a planted wrong value: a number
off by 1/6 or set to 0, a measure with one atom dropped or with mass added
off the coordinate circles, a body moved off the origin, a CLI report with a flipped witness sign, a flipped verdict, a
changed value or a failed exit code.  A check that accepts every planted
value is reported as blind.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import afel  # noqa: E402
import afel.cli  # noqa: E402,F401

import checks as ck  # noqa: E402
import workloads  # noqa: E402


def planted(out):
    """Wrong values of the same type as the output."""
    if isinstance(out, bool) or out is None:
        return [not out]
    if isinstance(out, (int, Fraction)):
        return [out + Fraction(1, 6), Fraction(0)]
    if isinstance(out, afel.AtomicMeasure):
        first = sorted(out.atoms, key=lambda z: z.z)[0]
        diagonal = afel.Direction((1,) * first.n)
        heavy = sum(out.atoms.values())
        return [afel.AtomicMeasure({z: w for z, w in out.atoms.items() if z != first}),
                out.plus(afel.AtomicMeasure({diagonal: heavy, -diagonal: heavy}))]
    if isinstance(out, afel.VPolytope):
        return [afel.translate(out, (1,) + (0,) * (out.n - 1))]
    if isinstance(out, afel.AdmissibilityReport):
        return [dataclasses.replace(out, triples_span=False)]
    if isinstance(out, afel.FaceCensus):
        wrong_kind = dataclasses.replace(out.provenance[0], kind="other")
        return [dataclasses.replace(out, triangles=out.triangles - 1),
                dataclasses.replace(out, provenance=(wrong_kind,) + out.provenance[1:])]
    if isinstance(out, tuple):  # CLI op: (exit code, report bytes)
        code, data = out
        return [(1, b"")] + [(code, json.dumps(r).encode())
                             for r in planted_reports(json.loads(data))]
    raise TypeError(f"no planted value for {type(out).__name__}")


def planted_reports(rep: dict) -> list[dict]:
    out = []
    for key, val in rep.items():
        if isinstance(val, bool):
            out.append({**rep, key: not val})
        elif key in ("v_kl", "v_kk", "v_ll", "discriminant", "a") and val is not None:
            out.append({**rep, key: str(Fraction(val) + Fraction(1, 6))})
        elif key == "witness" and val is not None:
            flipped = [str(-Fraction(c) - 1) for c in val["x"]]
            out.append({**rep, key: {"a": str(-Fraction(val["a"])), "x": val["x"]}})
            out.append({**rep, key: {"a": val["a"], "x": flipped}})
        elif key == "witness_x" and val is not None:
            out.append({**rep, key: [str(-Fraction(c) + 1) for c in val]})
    return out


def test_workload_checks(name: str) -> list[str]:
    work = HERE.parent / ".afelbench" / "work" / f"selftest-{name}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = workloads.build(name, 1, True, str(work))
        outputs = []
        for op in spec.ops:
            out = op()
            if op.out_path is not None:
                out = (out, Path(op.out_path).read_bytes() if out == 0 else b"")
            outputs.append(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = []
    for n, (ids, fn) in enumerate(spec.checks):
        outs = [outputs[i] for i in ids]
        label = f"{name} check {n} ({spec.ops[ids[0]].func})"
        if not fn(outs):
            problems.append(f"{label}: fails on the program's own outputs")
            continue
        if not any(rejects(fn, outs, j, wrong)
                   for j in range(len(outs)) for wrong in planted(outs[j])):
            problems.append(f"{label}: accepts every planted wrong value")
    print(f"{name}: {len(spec.checks)} checks, {len(problems)} problems")
    return problems


def rejects(fn, outs, j, wrong) -> bool:
    try:
        return not fn(outs[:j] + [wrong] + outs[j + 1:])
    except Exception:
        return True  # the runner counts a check that raises as failed


def test_formulas() -> list[str]:
    """The closed forms the checks compare with, on hand-computed cases."""
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cases = {
        "unit segments give 1/6": ck.zonotope_mixed_volume([[g] for g in e]) == Fraction(1, 6),
        "unit cube gives 1": ck.zonotope_mixed_volume([e, e, e]) == 1,
        "box permanent": ck.box_mixed_volume([[1, 1, 1]] * 3) == 1,
        "box off by 1/6 rejected": ck.box_mixed_volume([[1, 2, 3]] * 3) != 6 + Fraction(1, 6),
        "AF holds": ck.af_inequality(Fraction(2), Fraction(1), Fraction(4)),
        "AF violation rejected": not ck.af_inequality(Fraction(1), Fraction(1), Fraction(4)),
        "cube measure balanced": ck.centroid_zero(
            [((1, 0, 0), 4), ((-1, 0, 0), 4), ((0, 1, 0), 4), ((0, -1, 0), 4)]),
        "dropped atom rejected": not ck.centroid_zero(
            [((1, 0, 0), 4), ((-1, 0, 0), 4), ((0, 1, 0), 4)]),
        "flipped witness rejected": ck.homothety_witness(Fraction(2), (1, -2, 0))
        != (Fraction(1, 2), (Fraction(1, 2), 1, 0)),
        "homothety witness": ck.homothety_witness(Fraction(2), (1, -2, 0))
        == (Fraction(1, 2), (Fraction(-1, 2), 1, 0)),
        "asymmetric kernel rejected": not ck.origin_symmetric([(0, 0, 0), (1, 0, 0)]),
        "kernel below zonotope rejected": not ck.kernel_contains_zonotope(
            [(-1, 0, 0), (1, 0, 0)], [(4, 0, 0)], [(1, 0, 0)]),
    }
    return [name for name, ok in cases.items() if not ok]


def test_smoke() -> list[str]:
    """Every workload end to end through run.py, plain and traced."""
    problems = []
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
             "--trace", trace], capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            problems.append(f"smoke --trace {trace} exited {proc.returncode}: "
                            f"{proc.stderr[-2000:]}")
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            problems.append(f"smoke --trace {trace}: {res['failed']} of "
                            f"{res['attempted']} operations failed")
        print(f"smoke --trace {trace}: {res['attempted']} operations, "
              f"{res['failed']} failed")
    return problems


def main() -> int:
    problems = [f"formula: {p}" for p in test_formulas()]
    for name in workloads.WORKLOADS:
        problems += test_workload_checks(name)
    problems += test_smoke()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
