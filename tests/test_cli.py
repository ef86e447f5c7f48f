import json
import subprocess
import sys

import pytest

from afel import jsonio
from afel.geometry import convex_hull, segment

from conftest import truncated_cube


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "afel.cli"] + args,
                          capture_output=True, text=True, **kw)


@pytest.fixture
def files(tmp_path):
    def dump(name, p):
        path = tmp_path / name
        path.write_text(json.dumps(jsonio.polytope_to_json(p)))
        return str(path)

    cube = convex_hull([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    out = {
        "cube": dump("cube.json", cube),
        "trunc": dump("trunc.json", truncated_cube()),
        "e1": dump("e1.json", segment((0, 0, 0), (1, 0, 0))),
        "e2": dump("e2.json", segment((0, 0, 0), (0, 1, 0))),
        "e3": dump("e3.json", segment((0, 0, 0), (0, 0, 1))),
        "dir": str(tmp_path),
    }
    return out


def test_mixed_volume_cli(files):
    r = run_cli(["mixed-volume", "--bodies", files["e1"], files["e2"], files["e3"]])
    assert r.returncode == 0
    assert json.loads(r.stdout)["value"] == "1/6"
    for method in ("interp", "measure"):
        r2 = run_cli(["mixed-volume", "--method", method,
                      "--bodies", files["e1"], files["e2"], files["e3"]])
        assert json.loads(r2.stdout)["value"] == "1/6"


def test_criticality_cli(files):
    r = run_cli(["criticality", "--bodies", files["e1"]])
    assert r.returncode == 0
    assert json.loads(r.stdout)["class"] == "semicritical"


def test_afi_cli_truncated_cube(files):
    r = run_cli(["afi-check", "--k", files["cube"], "--l", files["trunc"],
                 "--c", files["cube"]])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["equality"] is True
    assert rep["witness"] == {"a": "1", "x": ["0", "0", "0"]}


def test_equality_routes_cli(files):
    for route in ("measure", "support"):
        r = run_cli(["equality", "--route", route, "--k", files["cube"],
                     "--l", files["trunc"], "--c", files["cube"]])
        assert r.returncode == 0
        assert json.loads(r.stdout)["equality"] is True


def test_ball_support_cli(files):
    r = run_cli(["ball-support", "--body", files["cube"]])
    arcs = json.loads(r.stdout)["arcs"]
    assert len(arcs) == 12


def test_exit_codes(files, tmp_path):
    r = run_cli(["mixed-volume", "--bodies", files["e1"]])
    assert r.returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 3, "vertices": [[')
    r = run_cli(["kernel", "--body", str(bad)])
    assert r.returncode == 1
    assert "bad.json" in r.stderr
    schema = tmp_path / "schema.json"
    schema.write_text('{"dim": 5, "vertices": [["0"]]}')
    r = run_cli(["area-measure", "--bodies", str(schema)])
    assert r.returncode == 1
    assert ".dim" in r.stderr


def test_reports_byte_identical(files):
    a = run_cli(["gen", "--kind", "body", "--seed", "7", "--dim", "3"])
    b = run_cli(["gen", "--kind", "body", "--seed", "7", "--dim", "3"])
    assert a.stdout == b.stdout and a.returncode == 0
    c = run_cli(["gen", "--kind", "body", "--seed", "7", "--dim", "3", "--count", "3"])
    d = run_cli(["gen", "--kind", "body", "--seed", "7", "--dim", "3", "--count", "3"])
    assert c.stdout == d.stdout


def test_round_trip(files):
    r = run_cli(["gen", "--kind", "zonotope", "--seed", "3", "--segments", "4"])
    body = json.loads(r.stdout)["bodies"][0]
    p = jsonio.polytope_from_json(body)
    assert jsonio.polytope_to_json(p) == body


def test_gen_admissible_cli():
    r = run_cli(["gen", "--kind", "admissible-seq", "--seed", "1", "--m", "3"])
    assert r.returncode == 0
    bodies = [jsonio.polytope_from_json(b) for b in json.loads(r.stdout)["bodies"]]
    from afel.macroid import admissibility_check

    assert admissibility_check(bodies).passes


def test_gen_deterministic_ktope():
    a = run_cli(["gen", "--kind", "ktope", "--seed", "7", "--k", "5"])
    b = run_cli(["gen", "--kind", "ktope", "--seed", "7", "--k", "5"])
    assert a.stdout == b.stdout


def test_census_cli_fixture():
    from importlib import resources

    paths = [str(resources.files("afel.fixtures").joinpath(f"admissible_seq_{i}.json"))
             for i in range(1, 5)]
    r = run_cli(["census", "--seq"] + paths + ["--upto", "2"])
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["other"] == 0
    r = run_cli(["admissible", "--seq"] + paths)
    assert json.loads(r.stdout)["passes"] is True


def test_polyoid_cli(tmp_path):
    mu = {"atoms": [
        {"weight": "1/2", "polytope": {"dim": 2, "vertices": [["0", "0"], ["2", "0"]]}},
        {"weight": "1/2", "polytope": {"dim": 2, "vertices": [["0", "0"], ["0", "2"]]}},
    ]}
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(mu))
    r = run_cli(["polyoid", "body", "--measure", str(path)])
    assert r.returncode == 0
    body = json.loads(r.stdout)
    assert body["vertices"] == [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]
    bpath = tmp_path / "body.json"
    bpath.write_text(json.dumps(body))
    r = run_cli(["polyoid", "verify", "--measure", str(path), "--body", str(bpath)])
    assert json.loads(r.stdout)["verified"] is True
    r = run_cli(["polyoid", "pushforward", "--measure", str(path), "--z", "1", "0"])
    assert r.returncode == 0


def _polyoid_measure(tmp_path):
    mu = {"atoms": [
        {"weight": "1", "polytope": {"dim": 2, "vertices": [["0", "0"], ["1", "0"]]}},
    ]}
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(mu))
    return str(path)


@pytest.mark.parametrize("args", [
    ["verify"],
    ["verify", "--body", "{body}", "--samples", "-1"],
    ["pushforward"],
    ["pushforward", "--z", "0", "0"],
], ids=["verify-no-body", "verify-negative-samples", "pushforward-no-z",
        "pushforward-zero-z"])
def test_polyoid_cli_bad_arguments(tmp_path, args):
    # the body the one-segment measure generates, so only the count is wrong
    body = tmp_path / "body.json"
    body.write_text(json.dumps({"dim": 2, "vertices": [["0", "0"], ["1", "0"]]}))
    args = [str(body) if a == "{body}" else a for a in args]
    r = run_cli(["polyoid", args[0], "--measure", _polyoid_measure(tmp_path)] + args[1:])
    assert r.returncode == 1
    assert r.stderr.startswith("input error:")
    assert "Traceback" not in r.stderr


def test_gen_count_zero_rejected():
    r = run_cli(["gen", "--kind", "body", "--seed", "7", "--count", "0"])
    assert r.returncode == 1
    assert r.stderr.startswith("input error:")
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_boolean_coordinate_rejected(tmp_path):
    body = {"dim": 3, "vertices": [[True, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]}
    path = tmp_path / "b.json"
    path.write_text(json.dumps(body))
    r = run_cli(["mixed-volume", "--bodies", str(path), str(path), str(path)])
    assert r.returncode == 1
    assert "vertices[0][0]" in r.stderr
    assert "Traceback" not in r.stderr
    assert r.stdout == ""


def test_measure_json_round_trip():
    from fractions import Fraction

    from afel.polyoid import BodyMeasure

    mu = BodyMeasure.of([
        (Fraction(1, 3), convex_hull([(0, 0), (1, 0), (0, 1)])),
        (Fraction(2, 3), segment((0, 0), (2, 2))),
    ])
    doc = jsonio.measure_to_json(mu)
    back = jsonio.measure_from_json(doc)
    assert back == mu
    assert jsonio.measure_to_json(back) == doc


def test_atomic_measure_json_shape():
    from afel.area_measure import mixed_area_measure

    cube = convex_hull([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    doc = jsonio.atomic_measure_to_json(mixed_area_measure([cube, cube]))
    assert {"z": [-1, 0, 0], "w": "1"} in doc["atoms"]
    assert len(doc["atoms"]) == 6


def test_census_theory_violation_exit_code(tmp_path):
    # a non-admissible prefix with mixed facet sources must exit 3
    tetra = convex_hull([(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)])
    from afel.geometry import translate

    moved = translate(tetra, (9, 1, 2))
    p1 = tmp_path / "p1.json"
    p2 = tmp_path / "p2.json"
    p1.write_text(json.dumps(jsonio.polytope_to_json(tetra)))
    p2.write_text(json.dumps(jsonio.polytope_to_json(moved)))
    r = run_cli(["census", "--seq", str(p1), str(p2), "--upto", "2"])
    assert r.returncode == 3
