"""Exact elimination against oracles written from the definitions: rank as
the largest nonvanishing minor (Leibniz determinants), pivot columns as the
columns where the rank of the column prefix rises, and solutions checked by
substitution and by the shape of the reduced row echelon form.  The R^4
cross product is checked against Leibniz cofactors."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from afel.linalg import cross4, matrank, pivot_columns, solve_linear

from conftest import leibniz_det

ENTRY = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)),
    st.integers(-10**20, 10**20),
)


@st.composite
def matrices(draw):
    """Up to 6x6 matrices whose rows are random, zero, copies of an earlier
    row or rational combinations of two earlier rows, in shuffled order."""
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 6))
    rows = [tuple(draw(st.lists(ENTRY, min_size=ncols, max_size=ncols)))]
    for _ in range(nrows - 1):
        kind = draw(st.sampled_from(["random", "random", "zero", "copy", "combination"]))
        if kind == "random":
            rows.append(tuple(draw(st.lists(ENTRY, min_size=ncols, max_size=ncols))))
        elif kind == "zero":
            rows.append((0,) * ncols)
        elif kind == "copy":
            rows.append(draw(st.sampled_from(rows)))
        else:
            r, s = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(ENTRY), draw(ENTRY)
            rows.append(tuple(a * x + b * y for x, y in zip(r, s)))
    return draw(st.permutations(rows))


def minor_rank(rows):
    """The largest k with a nonzero k x k minor."""
    if not rows or not rows[0]:
        return 0
    for k in range(min(len(rows), len(rows[0])), 0, -1):
        for ri in itertools.combinations(range(len(rows)), k):
            for ci in itertools.combinations(range(len(rows[0])), k):
                if leibniz_det([[rows[i][j] for j in ci] for i in ri]):
                    return k
    return 0


def prefix_pivots(rows):
    ranks = [minor_rank([r[:j] for r in rows]) for j in range(len(rows[0]) + 1)]
    return [j for j in range(len(rows[0])) if ranks[j + 1] > ranks[j]]


def apply(rows, x):
    return [sum(a * b for a, b in zip(r, x)) for r in rows]


@given(rows=matrices())
@settings(max_examples=150, deadline=None)
def test_rank_and_pivots_match_minors(rows):
    pivots = prefix_pivots(rows)
    assert pivot_columns(rows) == pivots
    assert matrank(rows) == len(pivots) == minor_rank(rows)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_solve_linear_matches_rank_conditions(data):
    rows = data.draw(matrices())
    ncols = len(rows[0])
    if data.draw(st.booleans()):
        # consistent by construction
        rhs = apply(rows, data.draw(st.lists(ENTRY, min_size=ncols, max_size=ncols)))
    else:
        rhs = data.draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
    sol = solve_linear(rows, rhs)
    augmented = [r + (v,) for r, v in zip(rows, rhs)]
    if minor_rank(augmented) > minor_rank(rows):
        assert sol is None
        return
    assert sol is not None
    x, basis = sol
    free = [j for j in range(ncols) if j not in prefix_pivots(rows)]
    assert apply(rows, x) == list(rhs)
    assert all(x[j] == 0 for j in free)
    assert len(basis) == len(free)
    for fc, v in zip(free, basis):
        assert apply(rows, v) == [0] * len(rows)
        assert [v[j] for j in free] == [int(j == fc) for j in free]


@given(rows=st.lists(st.tuples(ENTRY, ENTRY, ENTRY, ENTRY), min_size=3, max_size=3))
@settings(max_examples=300, deadline=None)
def test_cross4_is_the_first_row_of_cofactors(rows):
    # entry i is the (0, i) cofactor of the 4x4 matrix with rows (x, a, b, c),
    # of the same type (int, or Fraction when a Fraction enters it)
    got = cross4(*rows)
    assert len(got) == 4
    for i, g in enumerate(got):
        want = (-1) ** i * leibniz_det([[r[j] for j in range(4) if j != i] for r in rows])
        assert g == want and type(g) is type(want)
