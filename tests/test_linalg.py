from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    determinant_3x3,
    fraction_echelon,
    oracle_det,
    oracle_nullspace,
    oracle_rank,
    random_unimodular,
)
from weaklg.linalg import axis_generator, det, first_dependent_mod, nullspace, rank


def test_axis_generator_examples() -> None:
    # rows (e, 1): x^2 + 1/x^4 and x + 1/x^2 reach the origin in three
    # terms, x + y + z + 1/(x*y*z) in four, x alone never
    assert axis_generator(((2, 1), (-4, 1))) == 3
    assert axis_generator(((1, 1), (-2, 1))) == 3
    assert axis_generator(((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (-1, -1, -1, 1))) == 4
    assert axis_generator(((1, 1),)) == 0
    assert axis_generator(()) == 0
    assert axis_generator(((0, 0, 1), (1, 2, 1))) == 1


@given(st.integers(min_value=0, max_value=2**32))
def test_axis_generator_keeps_the_row_span_and_the_axis(seed: int) -> None:
    # a unimodular change of the rows keeps their span, and one of the
    # columns but the last keeps the axis (0, ..., 0, i) pointwise
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    rows = [[rng.randint(-3, 3) for _ in range(n)] + [rng.randint(-2, 2)] for _ in range(n + 1)]
    u, v = random_unimodular(rng, n + 1), random_unimodular(rng, n) if n > 1 else ((1,),)
    mixed = [[sum(u[i][k] * rows[k][j] for k in range(n + 1)) for j in range(n + 1)] for i in range(n + 1)]
    moved = [[sum(v[j][k] * row[k] for k in range(n)) for j in range(n)] + [row[-1]] for row in mixed]
    assert axis_generator(moved) == axis_generator(rows)


def test_det_examples() -> None:
    assert det(((2, 0), (0, 3))) == 6
    assert det(((0, 1), (1, 0))) == -1
    assert det(((1, 2), (2, 4))) == 0
    assert det(()) == 1
    with pytest.raises(ValueError):
        det(((1, 2),))


@given(st.integers(min_value=0, max_value=2**32))
def test_det_matches_cofactor_expansion(seed: int) -> None:
    m = random_unimodular(random.Random(seed), ops=8)
    assert det(m) == determinant_3x3(m)


@st.composite
def integer_matrices(draw) -> list[list[int]]:
    """Matrices up to 6 x 6 with small entries; about half are built from
    fewer independent rows than they have, so singular and rank-deficient
    ones are common."""
    nrows = draw(st.integers(min_value=1, max_value=6))
    ncols = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-4, max_value=4)
    if draw(st.booleans()):
        return draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=nrows))
    rows = []
    for _ in range(nrows):
        weights = draw(st.lists(entry, min_size=len(base), max_size=len(base)))
        rows.append([sum(w * row[c] for w, row in zip(weights, base)) for c in range(ncols)])
    return rows


@settings(max_examples=300)
@given(integer_matrices())
def test_det_rank_nullspace_match_fraction_elimination(m: list[list[int]]) -> None:
    ncols = len(m[0])
    assert rank(m) == oracle_rank(m)
    if len(m) == ncols:
        assert det(m) == oracle_det(m)
    pivots = fraction_echelon(m)[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = nullspace(m, ncols)
    expected = oracle_nullspace(m, ncols)
    assert len(basis) == len(expected) == len(free)
    for vec, ref, f in zip(basis, expected, free):
        # an integer multiple of the vector with 1 in its own free column
        assert all(isinstance(c, int) for c in vec) and vec[f] != 0
        assert [Fraction(c, vec[f]) for c in vec] == ref
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m)


@settings(max_examples=300)
@given(integer_matrices())
def test_first_dependent_mod_a_large_prime_is_the_rational_one(m: list[list[int]]) -> None:
    # every minor of these matrices is far below 2^61 - 1, so their ranks
    # mod the prime and over Q agree
    columns = [list(col) for col in zip(*m)]
    expected = next((k for k in range(len(columns)) if oracle_rank(columns[: k + 1]) <= k), None)
    assert first_dependent_mod(columns, (1 << 61) - 1) == expected
    assert first_dependent_mod(iter(columns), (1 << 61) - 1) == expected


def test_first_dependent_mod_a_small_prime_sees_more_dependence() -> None:
    # det [[1, 1], [1, 4]] = 3: independent over Q and mod 5, dependent mod 3
    columns = [[1, 1], [1, 4]]
    assert first_dependent_mod(columns, 5) is None
    assert first_dependent_mod(columns, 3) == 1
    # a column of multiples of the prime is zero mod it
    assert first_dependent_mod([[7, -14]], 7) == 0
    assert first_dependent_mod([], 7) is None
