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
from weaklg.linalg import det, nullspace, rank


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
