from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from support import _annihilator_columns, find_annihilator_dense, find_minimal_annihilator_oracle, pretty_oracle
from weaklg import annihilator, operators
from weaklg.annihilator import (
    MAX_DEGREE,
    MAX_ORDER,
    MAX_SWEEP_WORK,
    check_solve_budget,
    check_sweep_budget,
    determined,
    determining_terms,
    find_annihilator,
    find_minimal_annihilator,
    grading,
    tightest_class,
)
from weaklg.corpus import get_entry
from weaklg.expr import parse, to_laurent, variables
from weaklg.laurent import LaurentPolynomial
from weaklg.operators import DifferentialOperator, apply_operator
from weaklg.series import IntegerSeries, coefficient_bits, constant_term_series

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


@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
    st.dictionaries(
        # t-degrees up to 15 run past truncations up to t^11
        st.tuples(st.integers(0, 15), st.integers(0, 4)),
        st.one_of(st.integers(-9, 9), st.fractions(min_value=-50, max_value=50, max_denominator=60)),
        min_size=1,
        max_size=8,
    ),
)
def test_apply_operator_matches_the_formula(coeffs: list[int], terms: dict[tuple[int, int], int | Fraction]) -> None:
    assume(any(terms.values()))
    s = IntegerSeries(tuple(coeffs))
    expected = [
        sum((c * s[i - l] * (i - l) ** j for (l, j), c in terms.items() if i >= l), Fraction(0))
        for i in range(len(s))
    ]
    assert apply_operator(DifferentialOperator(terms), s) == tuple(expected)
    # the integer re-check of find_annihilator: integer coefficients give integers
    raw = operators._apply_integral(terms, s)
    assert raw == expected
    assert all(type(v) is int for v in raw) or not all(type(c) is int for c in terms.values())


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 12), st.integers(0, 5)),
        st.one_of(st.sampled_from([1, -1]), st.fractions(min_value=-50, max_value=50, max_denominator=60)),
        max_size=8,
    ),
    st.sampled_from([None, 1, -1, 5, Fraction(-7, 3)]),
)
def test_pretty_matches_the_signed_sum_oracle(coeffs: dict[tuple[int, int], Fraction], constant: Fraction | None) -> None:
    if constant is not None:
        coeffs[(0, 0)] = constant
    assume(any(coeffs.values()))
    lop = op(coeffs)
    assert lop.pretty() == pretty_oracle(lop)


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
# is cheap; ROADMAP item 2's controls (graded by 3, and P1 x P1 x P1) and two
# polynomials with no operator in the sweep, at T = 36.
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
    # at most one solve per order, orders rising and bounds never rising;
    # the orders after the answer's are solved only below its degree
    orders, bounds = [m for m, _ in solved], [r for _, r in solved]
    assert orders == sorted(set(orders)) and bounds == sorted(bounds, reverse=True)
    assert found is not None and max(m for m, r in solved if r >= found[1]) == found[0]


@pytest.mark.parametrize("text", CONTROLS)
def test_sweep_matches_the_exhaustive_sweep_on_the_controls(text: str, monkeypatch: pytest.MonkeyPatch) -> None:
    s = control_series(text, 36)
    found, solved = counted_sweep(s, monkeypatch)
    assert found == find_minimal_annihilator_oracle(s)
    if found is None:
        # the first control's (4, 6) has 15 unknowns in class 0 mod 3 for its 13 rows
        top = 5 if text == CONTROLS[0] else 6
        assert solved == [(m, 6) for m in range(4)] + [(4, top)]


@st.composite
def small_polys(draw) -> LaurentPolynomial:
    n = draw(st.integers(1, 2))
    exps = st.tuples(*(st.integers(-2, 2) for _ in range(n)))
    return LaurentPolynomial(n, draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=4)))


def assert_every_cell_is_the_dense_solve(s: IntegerSeries, max_order: int = 4, max_degree: int = 6) -> None:
    for m in range(max_order + 1):
        for r in range(max_degree + 1):
            assert find_annihilator(s, m, r) == find_annihilator_dense(s, m, r), (m, r)


@settings(deadline=None, max_examples=60)
@given(
    small_polys(), st.integers(min_value=4, max_value=16), st.integers(0, 4), st.integers(0, 6), st.integers(1, 4)
)
def test_sweep_matches_the_exhaustive_sweep_on_small_polynomials(f, terms, max_order, max_degree, g) -> None:
    # the series stretched onto the multiples of g, so graded by g or more
    s = constant_term_series(f, terms)
    s = IntegerSeries(tuple(0 if i % g else s[i // g] for i in range(len(s))))
    assert find_minimal_annihilator(s, max_order, max_degree) == find_minimal_annihilator_oracle(s, max_order, max_degree)
    assert_every_cell_is_the_dense_solve(s, max_order, max_degree)


@pytest.mark.parametrize("source", [*range(2, 18), *CONTROLS])
def test_find_annihilator_is_the_dense_solve_on_every_cell(source: int | str) -> None:
    # the corpus at T = 30, graded by its Fano index (1 to 4), and the controls at T = 36
    if isinstance(source, int):
        assert_every_cell_is_the_dense_solve(constant_term_series(get_entry(source).laurent(), 30))
    else:
        assert_every_cell_is_the_dense_solve(control_series(source, 36))


def test_grading_and_the_tightest_class() -> None:
    s = constant_term_series(get_entry(17).laurent(), 20)
    assert grading(s) == 4 and grading(IntegerSeries((3, 0, 0))) == grading(GEOMETRIC) == 1
    # (2, 5) at t^20: class 1 holds t and t^5 times D^0..D^2 against rows 1, 5, ..., 17
    assert tightest_class(s, 2, 5) == (1, 5, 6)
    assert tightest_class(constant_term_series(get_entry(17).laurent(), 30), 3, 4) == (0, 8, 8)
    # one class: T + 1 equations for all (order + 1)(degree + 1) unknowns
    assert tightest_class(GEOMETRIC, 2, 3) == (0, 10, 12)


def test_the_rule_is_read_off_the_closed_form_without_a_matrix(monkeypatch: pytest.MonkeyPatch) -> None:
    def refuse(*args):
        raise AssertionError("a block was built")

    s = constant_term_series(get_entry(17).laurent(), 20)
    with monkeypatch.context() as patch:
        patch.setattr(annihilator, "_blocks", refuse)
        assert tightest_class(s, 2, 5) == (1, 5, 6)
        # class 1 of (2, 5) needs the rows 1, 5, ..., 21; class 0 of (3, 4) the rows 0, 4, ..., 28
        assert determining_terms(s, 2, 5) == 21 and determining_terms(s, 3, 4) == 28
        assert not determined(s, 2, 5) and determined(s, 2, 4) and determined(s, 3, 3)
        # class 0 of (4, 6) holds t^0 and t^4 times D^0..D^4 against the rows 0, 4, ..., 36
        assert determining_terms(s, 4, 6) == 38
    # an unchecked sweep's order-2 operator at (2, 5) is wrong, and (3, 4) needs t^28
    assert find_minimal_annihilator(s) is None


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 40), st.integers(1, 4), st.integers(0, 4), st.integers(0, 6))
def test_the_closed_form_is_the_shape_of_the_blocks(terms: int, g: int, order: int, degree: int) -> None:
    def series(top: int) -> IntegerSeries:
        return IntegerSeries(tuple(int(i % g == 0) for i in range(top + 1)))

    def shapes(s: IntegerSeries) -> list[tuple[int, int, int]]:
        return [(c, len(columns[0]), len(unknowns)) for c, (unknowns, columns) in annihilator._blocks(s, order, degree).items()]

    s = series(terms)
    assert annihilator._class_sizes(terms, grading(s), order, degree) == shapes(s)
    # below t^g no coefficient past t^0 shows, so every column of a power of D is zero
    counted = all(e >= u for _, e, u in shapes(s))
    assert determined(s, order, degree) == (counted and (order == 0 or terms >= g))
    # graded by g from t^g on, each truncation is determined exactly from determining_terms on
    if terms >= g:
        least = determining_terms(s, order, degree)
        for top in range(g, 60):
            assert all(e >= u for _, e, u in shapes(series(top))) == (top >= least), top


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 8), st.integers(0, 60))
def test_the_box_needs_the_most_terms_and_a_divisor_of_the_grading_no_more(g: int, terms: int) -> None:
    # a series graded by g, through t^terms or through t^g if that is later
    s = IntegerSeries(tuple(int(i % g == 0) for i in range(max(terms, g) + 1)))
    box = determining_terms(s, MAX_ORDER, MAX_DEGREE)
    assert all(determining_terms(s, m, r) <= box for m in range(MAX_ORDER + 1) for r in range(MAX_DEGREE + 1))
    assert determined(s, MAX_ORDER, MAX_DEGREE) == (s.order >= box)
    # a longer truncation can only lower the grading to a divisor, which never raises the box's value
    for divisor in (d for d in range(1, g) if g % d == 0):
        finer = IntegerSeries(tuple(int(i % divisor == 0) for i in range(len(s))))
        assert grading(finer) == divisor and determining_terms(finer, MAX_ORDER, MAX_DEGREE) <= box


def test_a_truncation_with_nothing_past_t0_determines_no_cell_past_order_zero() -> None:
    # entry 17 (Fano index 4) through t^3 reads 1, 0, 0, 0: graded by 1 for want of
    # a nonzero index, so the count passes, but every column t^l D^j, j >= 1, is zero
    s = constant_term_series(get_entry(17).laurent(), 3)
    assert s.coeffs == (1, 0, 0, 0) and grading(s) == 1 and tightest_class(s, 1, 0) == (0, 4, 2)
    assert find_annihilator(s, 1, 0) == [op({(0, 1): 1})]
    assert determining_terms(s, 1, 0) is None and not determined(s, 1, 0)
    assert determining_terms(s, 0, 3) == 3 and determined(s, 0, 3)
    assert find_minimal_annihilator(s) is None
    # through t^4 the first nonzero coefficient past t^0 is seen, and (1, 0) needs no more
    assert determining_terms(constant_term_series(get_entry(17).laurent(), 4), 1, 0) == 4


@settings(deadline=None, max_examples=200)
@given(st.lists(st.sampled_from([0, 0, 0, 1, -2, 7]), min_size=1, max_size=14))
def test_no_cell_the_rule_accepts_has_a_zero_column(coeffs: list[int]) -> None:
    # any series, also one with s_0 = 0; a zero column is an operator whatever s is
    s = IntegerSeries(tuple(coeffs))
    for m in range(MAX_ORDER + 1):
        for r in range(MAX_DEGREE + 1):
            counted = all(e >= u for _, e, u in annihilator._class_sizes(s.order, grading(s), m, r))
            nonzero = all(any(column) for column in _annihilator_columns(s, m, r))
            assert determined(s, m, r) == (counted and nonzero), (m, r)


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 4), st.integers(0, 40), st.integers(0, 2**32))
def test_the_sweep_finds_no_operator_for_a_random_series(g: int, terms: int, seed: int) -> None:
    # a nonzero coefficient of up to 64 bits at every multiple of g through t^T;
    # for T < g the series is a constant, which D kills, and the sweep takes no cell that says so
    rng = random.Random(seed)
    coeffs = (rng.choice((-1, 1)) * rng.randrange(1, 2**64) if i % g == 0 else 0 for i in range(terms + 1))
    assert find_minimal_annihilator(IntegerSeries(tuple(coeffs))) is None


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


def test_sweep_budget_admits_the_corpus_at_forty_terms_and_entry_one_at_thirty_six() -> None:
    # lg pfop's bits, from |phi(i)| <= norm^i, so no series is computed
    def budget(entry_id: int, terms: int) -> int:
        return check_sweep_budget(terms, coefficient_bits(get_entry(entry_id).laurent(), terms))

    assert all(budget(k, 40) <= MAX_SWEEP_WORK for k in range(2, 18))
    assert budget(1, 36) <= MAX_SWEEP_WORK
    # entry 1 at t^40 is past the series budget as well
    with pytest.raises(ValueError, match="the limit MAX_SWEEP_WORK"):
        budget(1, 40)


def test_one_cell_is_charged_its_own_solve_only() -> None:
    # lg pfop --order 4 --degree 6 runs one solve, not the sweep of orders 0..4
    assert check_solve_budget(30, 100, 4, 6) == annihilator._solve_work(30, 100, 4, 6)
    assert check_solve_budget(30, 100, 4, 6) < check_sweep_budget(30, 100, 4, 6)
    # entry 1 at t^40, with lg pfop's bits: 1.7e8 for the cell, 3.0e8 for the sweep
    bits = coefficient_bits(get_entry(1).laurent(), 40)
    assert check_solve_budget(40, bits, 4, 6) <= MAX_SWEEP_WORK
    with pytest.raises(ValueError, match="the limit MAX_SWEEP_WORK"):
        check_sweep_budget(40, bits, 4, 6)
    with pytest.raises(ValueError, match="the limit MAX_SWEEP_WORK"):
        check_solve_budget(30, 100, 40, 40)
    # two negative bounds are refused before their work is summed
    start = time.perf_counter()
    for order, degree in ((-1, 6), (4, -1), (-10**6, -10**6)):
        with pytest.raises(ValueError, match="must be >= 0"):
            check_solve_budget(10**7, 100, order, degree)
    assert time.perf_counter() - start < 0.5
