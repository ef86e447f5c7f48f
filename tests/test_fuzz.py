"""Malformed body and measure documents fed to every document-reading
subcommand of the CLI in process: every one must end in exit 1 (malformed
input) or 2 (precondition), never in an exception.  Each generated document
carries at least one break that the readers must reject.  Small and
out-of-range integer arguments of `gen`, `census --upto`, `polyoid verify
--samples` and `polyoid pushforward --z` must end in a report (exit 0) or an
input error (exit 1)."""

import contextlib
import io
import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from afel.cli import main

BASE_POINTS = [["0", "0", "0"], ["2", "0", "0"], ["0", "3/2", "0"], ["0", "0", "1"]]

# rational strings, valid or not: zero denominators, huge denominators (past
# Python's digit limit too), exponents, stray text
rational_text = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.integers(-99, 99), st.integers(-3, 99)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.integers(1, 6000).map(lambda k: "1/" + "7" * k),
    st.integers(-10**12, 10**12).map(lambda k: f"1e{k}"),
    st.text(max_size=6),
)
scalar = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), rational_text)
garbage = st.recursive(
    scalar,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


def _unparsable(text: str) -> bool:
    if "e" in text.lower():  # exponents are drawn on their own below
        return False
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return True
    return False


# coordinates every reader must reject
bad_coord = st.one_of(
    st.none(), st.booleans(), st.floats(),
    st.lists(garbage, max_size=2), st.dictionaries(st.text(max_size=4), garbage, max_size=2),
    st.integers(-99, 99).map(lambda p: f"{p}/0"),
    st.integers(4301, 6000).map(lambda k: "1/" + "7" * k),
    st.tuples(st.integers(10**4, 10**12), st.sampled_from(["", "-", "+"])).map(
        lambda t: f"1e{t[1]}{t[0]}"),
    st.text(max_size=6).filter(_unparsable),
)
not_a_list = garbage.filter(lambda x: not isinstance(x, list))
# valid but costly coordinates, ridden along with a break elsewhere
big_coord = st.one_of(st.integers(1, 4000).map(lambda k: "1/" + "3" * k),
                      st.integers(-4000, 4000).map(lambda k: f"1e{k}"),
                      st.integers(-10**300, 10**300))


@st.composite
def body_docs(draw):
    rows = [list(r) for r in BASE_POINTS]
    doc = {"dim": 3, "vertices": rows}
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 2))
        rows[i][j] = draw(big_coord)
    kind = draw(st.sampled_from(["document", "key", "dim", "vertices", "ragged", "coord"]))
    if kind == "document":  # garbage dicts have keys of <= 4 characters
        return draw(garbage)
    if kind == "key":
        del doc[draw(st.sampled_from(["dim", "vertices"]))]
    elif kind == "dim":
        doc["dim"] = draw(garbage.filter(lambda x: not (type(x) is int and x == 3)))
    elif kind == "vertices":
        doc["vertices"] = draw(st.one_of(st.just([]), not_a_list))
    elif kind == "ragged":
        row = rows[draw(st.integers(0, 3))]
        if draw(st.booleans()):
            row.append(draw(garbage))
        else:
            row.pop()
    else:
        rows[draw(st.integers(0, 3))][draw(st.integers(0, 2))] = draw(bad_coord)
    return doc


GOOD_BODY = {"dim": 3, "vertices": BASE_POINTS}
GOOD_MEASURE = {"atoms": [{"weight": "1/2", "polytope": GOOD_BODY},
                          {"weight": "1/2", "polytope": GOOD_BODY}]}


@st.composite
def measure_docs(draw):
    atoms = list(GOOD_MEASURE["atoms"])
    doc = {"atoms": atoms}
    kind = draw(st.sampled_from(["document", "atoms", "atom", "weight", "polytope"]))
    if kind == "document":
        return draw(garbage)
    if kind == "atoms":
        doc["atoms"] = draw(st.one_of(st.just([]), not_a_list))
    elif kind == "atom":
        atoms[draw(st.integers(0, 1))] = draw(garbage)
    elif kind == "weight":  # malformed, or well formed but not a probability
        weight = st.one_of(bad_coord, st.sampled_from(["0", "-1/2", "1", "3/4"]))
        atoms[0] = {"weight": draw(weight), "polytope": GOOD_BODY}
    else:
        atoms[draw(st.integers(0, 1))] = {"weight": "1/2", "polytope": draw(body_docs())}
    return doc


def _raw(doc_strategy):
    """A document as file bytes: dumped JSON, or bytes that are not JSON, not
    UTF-8, nested past the recursion limit or holding an over-long integer."""
    return st.one_of(
        doc_strategy.map(lambda d: json.dumps(d).encode()),
        st.binary(max_size=20),
        st.integers(1, 10**5).map(lambda k: b"[" * k + b"]" * k),
        st.integers(4301, 6000).map(lambda k: b'{"dim": ' + b"9" * k + b"}"),
    )


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # usage errors leave through the parser
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _measure_path(good_body_path):
    """The well-formed measure document written beside the good body."""
    return str(Path(good_body_path).with_name("measure.json"))


COMMANDS = {
    "mixed-volume": (body_docs(), lambda bad, good: ["mixed-volume", "--bodies", good, bad, good]),
    "area-measure": (body_docs(), lambda bad, good: ["area-measure", "--bodies", good, bad]),
    "kernel": (body_docs(), lambda bad, good: ["kernel", "--body", bad]),
    "polyoid-body": (measure_docs(), lambda bad, good: ["polyoid", "body", "--measure", bad]),
    "afi-check": (body_docs(), lambda bad, good: ["afi-check", "--k", good, "--l", good,
                                                  "--c", bad]),
    "equality-measure": (body_docs(), lambda bad, good: ["equality", "--route", "measure",
                                                         "--k", good, "--l", bad, "--c", good]),
    "equality-support": (body_docs(), lambda bad, good: ["equality", "--route", "support",
                                                         "--k", bad, "--l", good, "--c", good]),
    "linearity-plus": (body_docs(), lambda bad, good: ["linearity", "--plus", bad,
                                                       "--minus", good, "--c", good]),
    "linearity-minus": (body_docs(), lambda bad, good: ["linearity", "--plus", good,
                                                        "--minus", bad, "--c", good]),
    "linearity-c": (body_docs(), lambda bad, good: ["linearity", "--plus", good,
                                                    "--minus", good, "--c", bad]),
    "ball-support": (body_docs(), lambda bad, good: ["ball-support", "--body", bad]),
    "criticality": (body_docs(), lambda bad, good: ["criticality", "--bodies", good, bad, good]),
    "admissible": (body_docs(), lambda bad, good: ["admissible", "--seq", good, bad]),
    "census": (body_docs(), lambda bad, good: ["census", "--seq", good, bad, "--upto", "1"]),
    "polyoid-verify": (body_docs(), lambda bad, good: ["polyoid", "verify", "--measure",
                                                       _measure_path(good), "--body", bad]),
    "polyoid-pushforward": (measure_docs(), lambda bad, good: ["polyoid", "pushforward",
                                                               "--measure", bad,
                                                               "--z", "1", "0", "0"]),
    "polyoid-normalize": (measure_docs(), lambda bad, good: ["polyoid", "normalize",
                                                             "--measure", bad]),
}


@pytest.mark.parametrize("cmd", sorted(COMMANDS))
@given(data=st.data())
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_malformed_documents_exit_1_or_2(cmd, data, tmp_path):
    docs, argv = COMMANDS[cmd]
    good = tmp_path / "good.json"
    good.write_text(json.dumps(GOOD_BODY))
    (tmp_path / "measure.json").write_text(json.dumps(GOOD_MEASURE))
    bad = tmp_path / "bad.json"
    bad.write_bytes(data.draw(_raw(docs)))
    code, out, err = _run(argv(str(bad), str(good)))
    assert code in (1, 2), err
    assert out == ""
    assert err.startswith("input error:" if code == 1 else "precondition violated:")


GEN_KINDS = ["ktope", "body", "zonotope", "mixed", "quad4", "admissible-seq"]
GEN_INTS = ["--seed", "--dim", "--k", "--points", "--span", "--segments", "--m", "--count"]


@given(kind=st.sampled_from(GEN_KINDS),
       values=st.lists(st.integers(-2, 8), min_size=len(GEN_INTS), max_size=len(GEN_INTS)))
@settings(max_examples=150, deadline=None)
def test_gen_integer_arguments_exit_0_or_1(kind, values):
    argv = ["gen", "--kind", kind]
    for flag, value in zip(GEN_INTS, values):
        argv += [flag, str(value)]
    code, out, err = _run(argv)
    assert code in (0, 1), err
    if code == 0:
        assert isinstance(json.loads(out), dict) and err == ""
    else:
        assert out == "" and err.startswith("input error:")


FIXTURES = [str(resources.files("afel.fixtures").joinpath(f"admissible_seq_{i}.json"))
            for i in range(1, 5)]


def _report_or_input_error(argv, ok):
    """Exit 0 with a JSON report when ok, else exit 1 with nothing on stdout."""
    code, out, err = _run(argv)
    if ok:
        assert code == 0, err
        assert isinstance(json.loads(out), dict) and err == ""
    else:
        assert code == 1 and out == ""
        assert err.startswith(("input error:", "usage:")), err


@given(seq=st.lists(st.sampled_from(FIXTURES), min_size=1, max_size=4),
       upto=st.integers(-2, 6))
@settings(max_examples=60, deadline=None)
def test_census_upto_exit_0_or_1(seq, upto):
    # distinct fixture bodies in any order form an admissible sequence; a
    # repeated body makes it non-admissible, and its census is still a report
    _report_or_input_error(["census", "--seq", *seq, "--upto", str(upto)],
                           1 <= upto <= len(seq))


@given(samples=st.integers(-2, 8), seed=st.integers())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_polyoid_verify_samples_exit_0_or_1(samples, seed, tmp_path):
    (tmp_path / "good.json").write_text(json.dumps(GOOD_BODY))
    (tmp_path / "measure.json").write_text(json.dumps(GOOD_MEASURE))
    _report_or_input_error(["polyoid", "verify", "--measure", str(tmp_path / "measure.json"),
                            "--body", str(tmp_path / "good.json"), "--samples", str(samples),
                            "--seed", str(seed)], samples >= 1)


@given(z=st.lists(st.integers(-3, 3), max_size=5))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_polyoid_pushforward_z_exit_0_or_1(z, tmp_path):
    (tmp_path / "measure.json").write_text(json.dumps(GOOD_MEASURE))
    _report_or_input_error(["polyoid", "pushforward", "--measure", str(tmp_path / "measure.json"),
                            "--z", *map(str, z)], len(z) == 3 and any(z))
