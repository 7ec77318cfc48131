from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import find_minimal_annihilator_oracle
from weaklg import annihilator
from weaklg.annihilator import (
    MAX_SWEEP_WORK,
    DifferentialOperator,
    apply_operator,
    check_sweep_budget,
    find_annihilator,
    find_minimal_annihilator,
)
from weaklg.corpus import get_entry
from weaklg.expr import parse, to_laurent, variables
from weaklg.laurent import LaurentPolynomial
from weaklg.series import IntegerSeries, constant_term_series

SIMPLEX = LaurentPolynomial(
    3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1}
)

GEOMETRIC = IntegerSeries(tuple(1 for _ in range(10)))


def op(coeffs: dict[tuple[int, int], int | Fraction]) -> DifferentialOperator:
    return DifferentialOperator({k: Fraction(v) for k, v in coeffs.items()})


def test_operator_validation() -> None:
    with pytest.raises(ValueError):
        DifferentialOperator({})
    with pytest.raises(ValueError):
        DifferentialOperator({(-1, 0): Fraction(1)})
    with pytest.raises(ValueError):
        DifferentialOperator({(0, 0): Fraction(0)})


def test_apply_euler_operator_scales_by_exponent() -> None:
    d = op({(0, 1): 1})
    assert apply_operator(d, IntegerSeries((7, 5, 3))) == (0, 5, 6)


def test_apply_multiplication_by_t_shifts() -> None:
    t = op({(1, 0): 1})
    assert apply_operator(t, IntegerSeries((5, 5, 5))) == (0, 5, 5)


def test_apply_composite_term_shifts_then_scales() -> None:
    # t*D acts as (t*D s)_n = (n-1) * a_{n-1}
    td = op({(1, 1): 1})
    assert apply_operator(td, IntegerSeries((4, 9, 2))) == (0, 0, 9)


def test_apply_operator_with_fractional_coefficients_follows_the_formula() -> None:
    # sum_(l,j) c_(l,j) s_(i-l) (i-l)^j in Fractions, 0^0 = 1, with i < l dropped
    lop = op({(0, 0): Fraction(-2, 3), (0, 2): Fraction(1, 4), (1, 0): Fraction(-5, 2), (3, 1): Fraction(7, 6)})
    s = IntegerSeries((3, 4, -9, 16, 25, -1))
    expected = tuple(
        sum((c * s[i - l] * (i - l) ** j for (l, j), c in lop.coeffs.items() if i >= l), Fraction(0))
        for i in range(len(s))
    )
    got = apply_operator(lop, s)
    assert got == expected
    assert all(type(v) is Fraction for v in got)


def test_find_annihilator_refuses_a_basis_vector_that_fails_its_equations(monkeypatch: pytest.MonkeyPatch) -> None:
    # the identity operator does not kill the geometric series
    monkeypatch.setattr(annihilator, "nullspace", lambda rows, ncols: [[1] + [0] * (ncols - 1)])
    with pytest.raises(ArithmeticError):
        find_annihilator(GEOMETRIC, 1, 1)


def test_geometric_series_annihilator_is_unique_and_exact() -> None:
    ops = find_annihilator(GEOMETRIC, 1, 1)
    assert len(ops) == 1
    found = ops[0]
    assert found == op({(0, 1): 1, (1, 1): -1, (1, 0): -1})  # (1-t)D - t
    assert found.pretty() == "D - t*D - t"
    assert set(apply_operator(found, GEOMETRIC)) == {0}


def test_constant_series_killed_by_euler_operator() -> None:
    ones = IntegerSeries((3, 0, 0, 0, 0))
    ops = find_annihilator(ones, 1, 0)
    assert any(o == op({(0, 1): 1}) for o in ops)


def test_canonical_scaling_leading_coefficient_is_one() -> None:
    for found in find_annihilator(GEOMETRIC, 2, 2):
        first = min(found.coeffs)
        assert found.coeffs[first] == 1


def test_nullspace_dimension_is_monotone_in_the_ansatz() -> None:
    small = len(find_annihilator(GEOMETRIC, 1, 1))
    wider = len(find_annihilator(GEOMETRIC, 1, 2))
    taller = len(find_annihilator(GEOMETRIC, 2, 1))
    assert small <= wider
    assert small <= taller


def test_no_annihilator_when_ansatz_too_small() -> None:
    s = constant_term_series(SIMPLEX, 20)
    assert find_annihilator(s, 1, 1) == []
    assert find_minimal_annihilator(s, 2, 2) is None


def test_quartic_simplex_operator_found_and_validated_on_held_out_terms() -> None:
    s = constant_term_series(SIMPLEX, 60)
    truncated = IntegerSeries(s.coeffs[:51])
    ops = find_annihilator(truncated, 3, 4)
    assert len(ops) == 1
    found = ops[0]
    expected = op(
        {(0, 3): 1, (4, 3): -256, (4, 2): -1536, (4, 1): -2816, (4, 0): -1536}
    )
    assert found == expected
    assert found.pretty() == (
        "D^3 - 256*t^4*D^3 - 1536*t^4*D^2 - 2816*t^4*D - 1536*t^4"
    )
    # held-out coefficients t^51..t^60 were never seen by the solver
    assert set(apply_operator(found, s)) == {0}


def test_minimal_sweep_reports_smallest_bidegree() -> None:
    s = constant_term_series(SIMPLEX, 40)
    res = find_minimal_annihilator(s, 4, 6)
    assert res is not None
    order, degree, ops = res
    assert (order, degree) == (3, 4)
    assert len(ops) == 1


def test_find_annihilator_validates_parameters() -> None:
    with pytest.raises(ValueError):
        find_annihilator(GEOMETRIC, -1, 1)
    with pytest.raises(ValueError):
        find_annihilator(GEOMETRIC, 1, -1)
    # order zero is legal: no pure t-power combination kills the series
    assert find_annihilator(GEOMETRIC, 0, 1) == []
    # an underdetermined system honestly reports a fat nullspace
    assert len(find_annihilator(IntegerSeries((1, 1)), 3, 3)) == 14


def test_operator_json_round_trip_layout() -> None:
    found = find_annihilator(GEOMETRIC, 1, 1)[0]
    d = found.to_json_dict()
    assert d["order"] == 1 and d["degree"] == 1
    assert [0, 1, "1"] in d["coeffs"]


# The sweep against the exhaustive one.  Corpus entries whose series to t^30
# is cheap; ROADMAP item 2's controls (an order-4 operator, and P1 x P1 x P1)
# and two polynomials with no operator in the sweep, at T = 36.
CHEAP_ENTRIES = (8, 9, 13, 14, 15, 16, 17)
CONTROLS = (
    "x+y+z+1/(x*y)+1/(y*z)+x*z/y+2*y",
    "x+y+z+1/x+1/y+1/z",
    "x+2*y+3*z+1/(x*y)+5/(y*z)+x*z/y+7*y/x",
    "2*x+y^2/z+3*z+1/(x*y)+x/(y*z)+5/x",
)


def control_series(text: str, terms: int) -> IntegerSeries:
    e = parse(text)
    return constant_term_series(to_laurent(e, variables(e)), terms)


def counted_sweep(s: IntegerSeries, monkeypatch: pytest.MonkeyPatch, **kwargs):
    """find_minimal_annihilator's result and the cells it solved exactly."""
    solved = []

    def solve(series, order, degree):
        solved.append((order, degree))
        return find_annihilator(series, order, degree)

    with monkeypatch.context() as patch:
        patch.setattr(annihilator, "find_annihilator", solve)
        return find_minimal_annihilator(s, **kwargs), solved


@pytest.mark.parametrize("entry_id", CHEAP_ENTRIES)
def test_sweep_matches_the_exhaustive_sweep_on_the_corpus(entry_id: int, monkeypatch: pytest.MonkeyPatch) -> None:
    s = constant_term_series(get_entry(entry_id).laurent(), 30)
    found, solved = counted_sweep(s, monkeypatch)
    assert found == find_minimal_annihilator_oracle(s)
    # the screen leaves the cell of the operator, solved exactly once
    assert found is not None and solved == [found[:2]]


@pytest.mark.parametrize("text", CONTROLS)
def test_sweep_matches_the_exhaustive_sweep_on_the_controls(text: str, monkeypatch: pytest.MonkeyPatch) -> None:
    s = control_series(text, 36)
    found, solved = counted_sweep(s, monkeypatch)
    assert found == find_minimal_annihilator_oracle(s)
    if found is None:
        assert solved == []


@st.composite
def small_polys(draw) -> LaurentPolynomial:
    n = draw(st.integers(1, 2))
    exps = st.tuples(*(st.integers(-2, 2) for _ in range(n)))
    return LaurentPolynomial(n, draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=4)))


@settings(deadline=None, max_examples=60)
@given(small_polys(), st.integers(min_value=4, max_value=16), st.integers(0, 4), st.integers(0, 6))
def test_sweep_matches_the_exhaustive_sweep_on_small_polynomials(f, terms, max_order, max_degree) -> None:
    s = constant_term_series(f, terms)
    assert find_minimal_annihilator(s, max_order, max_degree) == find_minimal_annihilator_oracle(s, max_order, max_degree)


@pytest.mark.parametrize("prime", [2, 3])
def test_sweep_falls_through_spurious_deficiency_mod_a_tiny_prime(prime: int, monkeypatch: pytest.MonkeyPatch) -> None:
    # mod 2 or 3 many columns are dependent that are not over Q: their
    # cells are solved exactly, found empty, and the sweep moves on
    monkeypatch.setattr(annihilator, "SCREEN_PRIME", prime)
    empty_solves = 0
    for s in (constant_term_series(get_entry(15).laurent(), 30), control_series(CONTROLS[2], 36), GEOMETRIC):
        found, solved = counted_sweep(s, monkeypatch)
        assert found == find_minimal_annihilator_oracle(s)
        empty_solves += len(solved) - (found is not None)
    assert empty_solves > 0


def test_sweep_is_budgeted_before_it_starts() -> None:
    # x + y + 1/(x*y) to t^800 took about 9 s before the budget
    s = control_series("x+y+1/(x*y)", 60)
    assert check_sweep_budget(60, max(s.coeffs).bit_length()) <= MAX_SWEEP_WORK
    start = time.perf_counter()
    with pytest.raises(ValueError, match="the limit MAX_SWEEP_WORK"):
        check_sweep_budget(800, 1300)
    with pytest.raises(ValueError, match="the limit MAX_SWEEP_WORK"):
        find_minimal_annihilator(IntegerSeries((1,) + (2**1300,) * 800))
    assert time.perf_counter() - start < 0.5
    # the bound grows with every dimension of the sweep
    base = check_sweep_budget(30, 100)
    assert base < check_sweep_budget(31, 100)
    assert base < check_sweep_budget(30, 101 + 63)
    assert base < check_sweep_budget(30, 100, 5, 6) and base < check_sweep_budget(30, 100, 4, 7)


def test_sweep_charges_each_solve_past_the_first(monkeypatch: pytest.MonkeyPatch) -> None:
    # mod 2 the first candidates of entry 15 are spurious, so the sweep
    # needs more solves than the bound taken before it covers
    s = constant_term_series(get_entry(15).laurent(), 30)
    monkeypatch.setattr(annihilator, "SCREEN_PRIME", 2)
    assert len(counted_sweep(s, monkeypatch)[1]) > 1
    monkeypatch.setattr(annihilator, "MAX_SWEEP_WORK", check_sweep_budget(30, max(s.coeffs).bit_length()))
    with pytest.raises(ValueError, match="the limit MAX_SWEEP_WORK"):
        find_minimal_annihilator(s)
    monkeypatch.setattr(annihilator, "SCREEN_PRIME", (1 << 61) - 1)
    assert find_minimal_annihilator(s) == find_minimal_annihilator_oracle(s)
