from __future__ import annotations

import itertools
import math
import operator
import unittest.mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from support import constant_term_series_naive, term_power
from weaklg.corpus import get_entry, load_corpus
from weaklg.expr import parse, to_laurent
from weaklg import series
from weaklg.laurent import LaurentPolynomial, _times
from weaklg.linalg import axis_generator
from weaklg.series import (
    COEFFICIENT_WORK,
    MAX_SERIES_WORK,
    ORBIT_MIN_SAVING,
    STEP_WORK,
    IntegerSeries,
    _decoded_digits,
    _orbit_runs,
    _reach,
    _symmetric_blocks,
    _work_bound,
    ci_period_closed_form,
    compare_series,
    constant_term_series,
    normalize_shift,
    shifted_series,
)

SIMPLEX = LaurentPolynomial(
    3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1}
)


def table_poly(text: str) -> LaurentPolynomial:
    return to_laurent(parse(text), ("x", "y", "z"))


def small_polys() -> st.SearchStrategy[LaurentPolynomial]:
    exps = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    return st.dictionaries(exps, st.integers(-4, 4), min_size=1, max_size=5).map(
        lambda d: LaurentPolynomial(2, d)
    )


def test_integer_series_validation() -> None:
    s = IntegerSeries((1, 0, 2))
    assert s.coeffs == (1, 0, 2)
    with pytest.raises(ValueError):
        IntegerSeries(())
    with pytest.raises(ValueError):
        IntegerSeries((1, 0.5))  # type: ignore[arg-type]


def test_central_binomial_series() -> None:
    f = LaurentPolynomial(1, {(1,): 1, (-1,): 1})
    s = constant_term_series(f, 10)
    expected = tuple(math.comb(i, i // 2) if i % 2 == 0 else 0 for i in range(11))
    assert s.coeffs == expected


def test_quartic_simplex_series_matches_factorial_formula() -> None:
    s = constant_term_series(SIMPLEX, 12)
    for i in range(13):
        if i % 4:
            assert s.coeffs[i] == 0
        else:
            e = i // 4
            assert s.coeffs[i] == math.factorial(4 * e) // math.factorial(e) ** 4
    assert s.coeffs[:9] == (1, 0, 0, 0, 24, 0, 0, 0, 2520)


def test_published_series_for_index_one_degree_fourteen_entry() -> None:
    f = table_poly("(x+y+z+1)^2/x + (x+y+z+1)*(y+z+1)*(z+1)^2/(x*y*z)")
    s = constant_term_series(f, 6)
    assert s.coeffs == (1, 4, 48, 760, 13840, 273504, 5703096)


def test_zero_polynomial_has_trivial_series() -> None:
    assert constant_term_series(LaurentPolynomial(2, {}), 4).coeffs == (1, 0, 0, 0, 0)


def test_terms_must_be_positive() -> None:
    with pytest.raises(ValueError):
        constant_term_series(SIMPLEX, 0)
    with pytest.raises(ValueError):
        constant_term_series(SIMPLEX, -1)


@settings(deadline=None, max_examples=40)
@given(small_polys(), st.integers(min_value=1, max_value=6))
def test_pruned_agrees_with_naive(f: LaurentPolynomial, terms: int) -> None:
    assert constant_term_series(f, terms).coeffs == constant_term_series_naive(f, terms)


@st.composite
def skewed_polys(draw: st.DrawFn) -> LaurentPolynomial:
    # One wide coordinate with independent reach down and up (0..9 each),
    # the others within +-1: a packed key that carried between digits would
    # change the series.
    n = draw(st.integers(1, 4))
    wide = draw(st.integers(0, n - 1))
    down, up = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    exps = st.tuples(*(st.integers(-down, up) if c == wide else st.integers(-1, 1) for c in range(n)))
    terms = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=6))
    return LaurentPolynomial(n, terms)


@settings(deadline=None, max_examples=150)
@given(skewed_polys(), st.integers(min_value=1, max_value=8))
def test_packed_keys_agree_with_naive_on_skewed_supports(f: LaurentPolynomial, terms: int) -> None:
    assert constant_term_series(f, terms).coeffs == constant_term_series_naive(f, terms)


@st.composite
def lopsided_polys(draw: st.DrawFn) -> LaurentPolynomial:
    # Each coordinate reaches up to 8 one way and at most 1 (often 0) the
    # other: the reflection -e of a kept monomial then reaches further than
    # any product does, so offsets that only covered products would let its
    # key borrow from the next digit.
    n = draw(st.integers(1, 4))
    ranges = []
    for _ in range(n):
        far, near = draw(st.integers(0, 8)), draw(st.integers(0, 1))
        ranges.append((-near, far) if draw(st.booleans()) else (-far, near))
    exps = st.tuples(*(st.integers(lo, hi) for lo, hi in ranges))
    terms = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=7))
    return LaurentPolynomial(n, terms)


@settings(deadline=None, max_examples=200)
@given(lopsided_polys(), st.integers(min_value=1, max_value=9))
def test_reflected_keys_agree_with_naive_on_lopsided_supports(f: LaurentPolynomial, terms: int) -> None:
    assert constant_term_series(f, terms).coeffs == constant_term_series_naive(f, terms)


def block_orbit(e: tuple[int, ...], blocks: list[list[int]]) -> set[tuple[int, ...]]:
    """Every exponent vector that permuting e within the blocks gives."""
    out = set()
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        image = list(e)
        for b, p in zip(blocks, perms):
            for src, dst in zip(b, p):
                image[dst] = e[src]
        out.add(tuple(image))
    return out


@st.composite
def block_symmetric_polys(draw: st.DrawFn) -> tuple[LaurentPolynomial, list[list[int]]]:
    # 1-5 variables cut into random blocks; each drawn term is spread over
    # its orbit with one coefficient, so every swap within a block fixes f
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    blocks = [[c for c in range(n) if labels[c] == b] for b in sorted(set(labels))]
    reach = 2 if n <= 3 else 1
    seeds = draw(st.dictionaries(
        st.tuples(*(st.integers(-reach, reach) for _ in range(n))), st.integers(-3, 3).filter(bool),
        min_size=1, max_size=6,
    ))
    terms: dict[tuple[int, ...], int] = {}
    for e, cf in seeds.items():
        if e not in terms:
            terms.update(dict.fromkeys(block_orbit(e, blocks), cf))
    return LaurentPolynomial(n, terms), blocks


def reach(f: LaurentPolynomial) -> list[tuple[int, int]]:
    return list(zip(*_reach(f)))


def saving(f: LaurentPolynomial, blocks: list[list[int]]) -> int:
    return len(f) * (math.prod(math.factorial(len(b)) for b in blocks) - 1)


def short_terms(f: LaurentPolynomial) -> st.SearchStrategy[int]:
    # the oracle forms |f^(T-1)| * |f| products for its last power, and
    # |f^(T-1)| is at most the box of exponents (T-1) steps reach: keep the
    # products near 10^5.  At T <= 2 the kernel seldom looks for G (one
    # power step usually costs less than the search)
    m = max(abs(x) for e in f.terms for x in e)
    most = 1
    while most < 7 and min(len(f) ** most, (2 * most * m + 1) ** f.nvars) * len(f) <= 10**5:
        most += 1
    return st.integers(min(3, most), most)


@settings(deadline=None, max_examples=500)
@given(st.data())
def test_orbit_sums_agree_with_naive_on_block_symmetric_supports(data: st.DataObject) -> None:
    f, blocks = data.draw(block_symmetric_polys())
    terms = data.draw(short_terms(f))
    # the search finds these blocks or coarser ones
    found = _symmetric_blocks(f)
    assert all(any(set(b) <= set(c) for c in found) for b in blocks)
    work = _work_bound(f, terms)
    half = (terms + 1) // 2
    compressed = bool(_orbit_runs(f, half, work, reach(f))[1])
    searched = f.nvars * (f.nvars - 1) * len(f) <= work
    assert compressed == (searched and saving(f, found) * half >= 6 * ORBIT_MIN_SAVING)
    event(f"orbit sums: {compressed}")
    assert constant_term_series(f, terms).coeffs == constant_term_series_naive(f, terms)


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_forced_orbit_sums_agree_with_naive_on_block_symmetric_supports(data: st.DataObject) -> None:
    # at the short truncations the oracle affords, the rule seldom picks
    # orbit sums; with ORBIT_MIN_SAVING = 0 every nontrivial G is used
    f, _ = data.draw(block_symmetric_polys())
    terms = data.draw(short_terms(f))
    with unittest.mock.patch.object(series, "ORBIT_MIN_SAVING", 0):
        compressed = bool(_orbit_runs(f, (terms + 1) // 2, _work_bound(f, terms), reach(f))[1])
        event(f"orbit sums: {compressed}")
        assert constant_term_series(f, terms).coeffs == constant_term_series_naive(f, terms)


def graded_truncation(f: LaurentPolynomial, terms: int) -> int:
    """d * floor(T/d), the last index at most T that f's grading d admits
    (0 when d = 0): constant_term_series runs its power steps to that.  It
    takes d = 1 when the grading's |f| * (n+1)^2 steps pass its work bound."""
    d = axis_generator([(*e, 1) for e in f.terms]) if len(f) * (f.nvars + 1) ** 2 <= _work_bound(f, terms) else 1
    return d * (terms // d) if d else 0


def cutting_steps(f: LaurentPolynomial, terms: int) -> list[int]:
    """The power steps of constant_term_series(f, terms) that can drop a key."""
    s_plus, s_minus = _reach(f)
    return [a for a in range(1, (terms + 1) // 2 + 1) if _decoded_digits(s_plus, s_minus, a, terms - a)]


@st.composite
def mixed_reach_polys(draw: st.DrawFn) -> LaurentPolynomial:
    # 2-4 variables cut into random blocks.  A block reaches r both ways,
    # so its digits cannot leave the box before the middle step, or far one
    # way and 1 the other, so they can from an early step on.  Each drawn
    # term is spread over its orbit with one coefficient, so every swap
    # within a block fixes f.
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    blocks = [[c for c in range(n) if labels[c] == b] for b in sorted(set(labels))]
    ranges = [(0, 0)] * n
    for b in blocks:
        if draw(st.booleans()):
            r = draw(st.integers(1, 2))
            reach_b = (-r, r)
        else:
            far = draw(st.integers(2, 3))
            reach_b = (-1, far) if draw(st.booleans()) else (-far, 1)
        for c in b:
            ranges[c] = reach_b
    coeffs = st.integers(-3, 3).filter(bool)
    # each block's reach is attained by a term on its first coordinate
    seeds = {tuple(x if c == b[0] else 0 for c in range(n)): draw(coeffs)
             for b in blocks for x in ranges[b[0]]}
    seeds.update(draw(st.dictionaries(st.tuples(*(st.integers(lo, hi) for lo, hi in ranges)), coeffs, max_size=4)))
    terms: dict[tuple[int, ...], int] = {}
    for e, cf in seeds.items():
        if e not in terms:
            terms.update(dict.fromkeys(block_orbit(e, blocks), cf))
    return LaurentPolynomial(n, terms)


@pytest.mark.parametrize("orbit_min_saving", [0, MAX_SERIES_WORK])
@settings(deadline=None, max_examples=150)
@given(st.data())
def test_steps_that_cut_and_steps_that_cannot_agree_with_naive(orbit_min_saving: int, data: st.DataObject) -> None:
    # forced orbit sums (every nontrivial G used) and the plain kernel, on
    # truncations where some power steps can cut and others cannot
    f = data.draw(mixed_reach_polys())
    terms = data.draw(short_terms(f))
    cut = cutting_steps(f, terms)
    assume(0 < len(cut) < (terms + 1) // 2)
    with unittest.mock.patch.object(series, "ORBIT_MIN_SAVING", orbit_min_saving):
        event(f"orbit sums: {bool(_orbit_runs(f, (terms + 1) // 2, _work_bound(f, terms), reach(f))[1])}")
        assert constant_term_series(f, terms).coeffs == constant_term_series_naive(f, terms)


@settings(deadline=None, max_examples=100)
@given(lopsided_polys(), st.integers(min_value=1, max_value=7))
def test_a_step_cuts_no_coordinate_it_does_not_decode(f: LaurentPolynomial, terms: int) -> None:
    # every monomial of the full power f^a lies in f^a's box on each
    # coordinate past the digits step a decodes
    s_plus, s_minus = _reach(f)
    for a in range(1, (terms + 1) // 2 + 1):
        rem = terms - a
        decoded = _decoded_digits(s_plus, s_minus, a, rem)
        for e in term_power(dict(f.terms), a, f.nvars):
            assert all(-rem * s_plus[c] <= e[c] <= rem * s_minus[c] for c in range(decoded, f.nvars))


@settings(deadline=None, max_examples=100)
@given(st.one_of(mixed_reach_polys(), lopsided_polys()), st.integers(min_value=1, max_value=7))
def test_plain_kernel_keeps_each_power_exactly_in_its_box(f: LaurentPolynomial, terms: int) -> None:
    # a step that decoded too few digits would keep monomials outside the
    # box, which no sum needs: the series stays right, the work does not.
    # The kernel runs to the last index its grading d can make nonzero,
    # d * floor(T/d), and prunes for that truncation.
    kept = []

    def times(g, steps):
        kept.append(len(g))
        return _times(g, steps)

    with unittest.mock.patch.object(series, "_times", times), \
            unittest.mock.patch.object(series, "ORBIT_MIN_SAVING", MAX_SERIES_WORK):
        constant_term_series(f, terms)
    s_plus, s_minus = _reach(f)
    top = graded_truncation(f, terms)
    boxed = [
        sum(all(-(top - a) * sp <= x <= (top - a) * sm for x, sp, sm in zip(e, s_plus, s_minus))
            for e in term_power(dict(f.terms), a, f.nvars))
        for a in range((top + 1) // 2)
    ]
    assert kept == boxed


@pytest.mark.parametrize("terms, cut", [
    (40, {15: [], 16: [], 17: []}),
    (12, {**dict.fromkeys([4, 5, 8, 9, 10, 14, 15, 16, 17], []), 1: [3, 4, 5, 6], 11: [3, 4, 5, 6],
          **dict.fromkeys([2, 6, 7, 12], [4, 5, 6]), 3: [5, 6], 13: [5, 6]}),
])
def test_steps_that_can_cut_on_the_corpus(terms: int, cut: dict[int, list[int]]) -> None:
    # pfop runs entries 15-17 at T = 40, and verify every entry (less its
    # constant term) at T = 12: a step with a*s_minus[c] <= (T-a)*s_plus[c]
    # and a*s_plus[c] <= (T-a)*s_minus[c] on every c decodes no key
    for entry_id, steps in cut.items():
        f = get_entry(entry_id).laurent()
        assert cutting_steps(f - f.constant_term(), terms) == steps, entry_id


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_swap_that_fixes_only_the_support_is_not_used(data: st.DataObject) -> None:
    f, blocks = data.draw(block_symmetric_polys())
    terms = dict(f.terms)
    # a term that some swap within a block moves gets a new coefficient
    moved = [e for e in terms for b in blocks for i, j in itertools.combinations(b, 2) if e[i] != e[j]]
    assume(moved)
    e = data.draw(st.sampled_from(moved))
    terms[e] += data.draw(st.sampled_from([-1, 1]))
    assume(terms[e])
    g = LaurentPolynomial(f.nvars, terms)
    found = _symmetric_blocks(g)
    for b in found:
        for i, j in itertools.combinations(b, 2):
            swapped = {tuple(x[j] if c == i else x[i] if c == j else x[c] for c in range(g.nvars)): cf
                       for x, cf in terms.items()}
            assert swapped == terms
    t = data.draw(short_terms(g))
    event(f"orbit sums: {bool(_orbit_runs(g, (t + 1) // 2, _work_bound(g, t), reach(g))[1])}")
    assert constant_term_series(g, t).coeffs == constant_term_series_naive(g, t)


def test_detected_groups_of_the_corpus() -> None:
    s3, yz, xy, trivial = [[0, 1, 2]], [[0], [1, 2]], [[0, 1], [2]], [[0], [1], [2]]
    expected = {1: s3, 2: s3, 4: s3, 5: s3, 8: s3, 9: s3, 15: s3, 17: s3, 3: yz, 16: yz,
                10: xy, 12: xy, 13: xy, 14: xy, 6: trivial, 7: trivial, 11: trivial}
    for entry in load_corpus():
        f = entry.laurent()
        f = f - f.constant_term()
        assert _symmetric_blocks(f) == expected[entry.id], entry.id


@pytest.mark.parametrize("terms, chosen", [
    (11, {1, 2, 4, 5, 8, 9}),
    (12, {1, 2, 4, 5, 8, 9}),
    (20, {1, 2, 4, 5, 8, 9}),
    (30, {1, 2, 3, 4, 5, 8, 9, 15}),
    (40, {1, 2, 3, 4, 5, 8, 9, 15}),
    (42, {1, 2, 3, 4, 5, 8, 9, 15, 17}),
])
def test_orbit_rule_on_the_corpus_depends_on_the_truncation(terms: int, chosen: set[int]) -> None:
    # |f| * (|G| - 1) * ceil(T/2) >= 6 * ORBIT_MIN_SAVING: at T = 11, 12 the
    # S3 entries of 15 terms or more; from T = 30 also entries 3 (saving
    # 29) and 15 (saving 35), from 21 steps on entry 17 (saving 20), never
    # entry 16 (saving 5).  f is the polynomial less its constant term, as
    # verify runs it; entries 15-17 have none, as pfop runs them.
    half = (terms + 1) // 2
    for entry in load_corpus():
        f = entry.laurent()
        f = f - f.constant_term()
        assert bool(_orbit_runs(f, half, MAX_SERIES_WORK, reach(f))[1]) == (entry.id in chosen), entry.id


def test_group_search_on_cyclic_and_fully_symmetric_supports() -> None:
    n = 6
    unit = [tuple(int(c == k) for c in range(n)) for k in range(n)]
    # x1*x2^2 + x2*x3^2 + ... + x6*x1^2: every coordinate has the same
    # reach, but only the cyclic shifts fix f, and no swap does
    cyclic = LaurentPolynomial(n, {tuple(u + 2 * v for u, v in zip(unit[k], unit[(k + 1) % n])): 1 for k in range(n)})
    assert _symmetric_blocks(cyclic) == [[c] for c in range(n)]
    assert constant_term_series(cyclic, 6).coeffs == constant_term_series_naive(cyclic, 6)
    # x1 + ... + x6 + 1/(x1*...*x6): S6, searched only when its n(n-1)|f|
    # lookups are within the kernel's work bound
    f = LaurentPolynomial(n, {**dict.fromkeys(unit, 1), (-1,) * n: 1})
    assert _symmetric_blocks(f) == [list(range(n))]
    assert _orbit_runs(f, 7, n * (n - 1) * len(f), reach(f)) == (list(range(n)), [(0, n)])
    assert _orbit_runs(f, 7, n * (n - 1) * len(f) - 1, reach(f)) == (list(range(n)), [])
    assert constant_term_series(f, 14).coeffs == constant_term_series_naive(f, 14)


def test_orbit_sums_on_interleaved_blocks_of_two_and_three() -> None:
    # (x1+x3+1/x1+1/x3)(x2+x4+x5+1/x2+1/x4+1/x5) + 2/(x1*...*x5): G = S2 x S3
    # of order 12, whose blocks the kernel numbers consecutively
    pair = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    triple = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    terms = {(p[0], t[0], p[1], t[1], t[2]): 1 for p in pair for t in triple}
    terms[(-1, -1, -1, -1, -1)] = 2
    f = LaurentPolynomial(5, terms)
    assert _symmetric_blocks(f) == [[0, 2], [1, 3, 4]]
    assert _orbit_runs(f, 3, MAX_SERIES_WORK, reach(f)) == ([0, 2, 1, 3, 4], [(0, 2), (2, 5)])
    assert constant_term_series(f, 5).coeffs == constant_term_series_naive(f, 5)


@st.composite
def graded_polys(draw: st.DrawFn, symmetric: bool) -> tuple[LaurentPolynomial, int]:
    """(f, d) with <w, e> = 1 (mod d) on f's support for some w, d in
    {2, 3, 4}: i terms of f sum to the origin only if d | i.  With
    `symmetric`, w is constant on random blocks and each drawn term is
    spread over its orbit, so every swap within a block fixes f."""
    d = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(1, 3))
    if symmetric:
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        blocks = [[c for c in range(n) if labels[c] == b] for b in sorted(set(labels))]
    else:
        blocks = [[c] for c in range(n)]
    w = [0] * n
    for i, b in enumerate(blocks):
        weight = 1 if i == 0 else draw(st.integers(0, d - 1))
        for c in b:
            w[c] = weight
    seeds = draw(st.dictionaries(st.tuples(*(st.integers(-1, 1) for _ in range(n))), st.integers(-3, 3).filter(bool),
                                 min_size=1, max_size=5))
    terms: dict[tuple[int, ...], int] = {}
    for e, cf in seeds.items():
        # w = 1 on the first block's first coordinate: move e onto the coset
        e = list(e)
        e[blocks[0][0]] += (1 - sum(map(operator.mul, w, e))) % d
        if tuple(e) not in terms:
            terms.update(dict.fromkeys(block_orbit(tuple(e), blocks), cf))
    return LaurentPolynomial(n, terms), d


@pytest.mark.parametrize("symmetric", [False, True])
@settings(deadline=None, max_examples=150)
@given(st.data())
def test_supports_on_an_affine_sublattice_agree_with_naive(symmetric: bool, data: st.DataObject) -> None:
    f, d = data.draw(graded_polys(symmetric))
    grading = axis_generator([(*e, 1) for e in f.terms])
    assert grading % d == 0
    terms = data.draw(short_terms(f))
    # a truncation that d divides and one it does not
    for t in {terms, terms - 1 if terms % d == 0 else d * (terms // d)} - {0}:
        event(f"d divides T: {t % d == 0}")
        naive = constant_term_series_naive(f, t)
        assert constant_term_series(f, t).coeffs == naive
        with unittest.mock.patch.object(series, "ORBIT_MIN_SAVING", 0):
            assert constant_term_series(f, t).coeffs == naive


@settings(deadline=None, max_examples=150)
@given(st.one_of(small_polys(), lopsided_polys(), graded_polys(False).map(lambda fd: fd[0])),
       st.integers(min_value=1, max_value=8))
def test_every_nonzero_coefficient_index_is_a_multiple_of_the_grading(f: LaurentPolynomial, terms: int) -> None:
    assume(len(f) ** min(terms, 4) <= 10**4)
    grading = axis_generator([(*e, 1) for e in f.terms])
    event(f"grading {grading}")
    naive = constant_term_series_naive(f, terms)
    assert all(not c for i, c in enumerate(naive) if i and (not grading or i % grading))


def test_grading_of_the_corpus_is_the_fano_index() -> None:
    for entry in load_corpus():
        f = entry.laurent()
        f = f - f.constant_term()
        assert axis_generator([(*e, 1) for e in f.terms]) == entry.fano_index, entry.id


@pytest.mark.parametrize("terms", [1, 2, 3, 4])
def test_shortest_series_on_odd_and_even_truncations(terms: int) -> None:
    f = LaurentPolynomial(2, {(5, 0): 1, (-1, 1): 2, (0, -1): -1, (0, 0): 3, (-1, 0): 1})
    assert constant_term_series(f, terms).coeffs == constant_term_series_naive(f, terms)


def test_every_corpus_polynomial_matches_naive_expansion() -> None:
    for entry in load_corpus():
        for f in (entry.laurent(), *entry.alternate_laurents()):
            assert constant_term_series(f, 8).coeffs == constant_term_series_naive(f, 8), entry.id


@settings(deadline=None, max_examples=60)
@given(lopsided_polys(), st.integers(min_value=1, max_value=7))
def test_work_bound_covers_the_pruned_powers(f: LaurentPolynomial, terms: int) -> None:
    # sum over a < ceil(T/2) of |f^a restricted to its pruning box| * |f|
    n = f.nvars
    s_plus = [max(0, *(e[c] for e in f.terms)) for c in range(n)]
    s_minus = [max(0, *(-e[c] for e in f.terms)) for c in range(n)]
    work = 0
    for a in range((terms + 1) // 2):
        rem = terms - a
        kept = [
            e for e in term_power(dict(f.terms), a, n)
            if all(-rem * sp <= x <= rem * sm for x, sp, sm in zip(e, s_plus, s_minus))
        ]
        work += len(kept) * len(f.terms)
    assert work <= _work_bound(f, terms)


def counted_work(f: LaurentPolynomial, terms: int) -> int:
    """The work constant_term_series(f, terms) does, in _work_bound's units:
    each step's products and n decodes per distinct key it forms, times the
    words of the step's largest key, plus the step and coefficient charges."""
    formed = []

    def times(g, steps):
        out = _times(g, steps)
        formed.append((len(g) * len(steps), len(out), max(map(abs, out), default=0)))
        return out

    with unittest.mock.patch.object(series, "_times", times):
        constant_term_series(f, terms)
    work = (terms + 1) // 2 * STEP_WORK + (terms + 1) * COEFFICIENT_WORK
    for products, keys, top in formed:
        work += max(1, -(-top.bit_length() // 64)) * (products + f.nvars * keys)
    return work


@settings(deadline=None, max_examples=100)
@given(lopsided_polys(), st.integers(min_value=1, max_value=9))
def test_work_bound_covers_every_product_and_decode(f: LaurentPolynomial, terms: int) -> None:
    assert counted_work(f, terms) <= _work_bound(f, terms)


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_work_bound_covers_every_product_and_decode_of_orbit_sums(data: st.DataObject) -> None:
    f, _ = data.draw(block_symmetric_polys())
    terms = data.draw(short_terms(f))
    with unittest.mock.patch.object(series, "ORBIT_MIN_SAVING", 0):
        event(f"orbit sums: {bool(_orbit_runs(f, (terms + 1) // 2, _work_bound(f, terms), reach(f))[1])}")
        assert counted_work(f, terms) <= _work_bound(f, terms)


def test_work_budget_admits_the_corpus_at_thirty_terms_and_entry_one_at_thirty_six() -> None:
    for entry in load_corpus():
        for f in (entry.laurent(), *entry.alternate_laurents()):
            assert _work_bound(f - f.constant_term(), 30) <= MAX_SERIES_WORK, entry.id
    f = get_entry(1).laurent()
    assert _work_bound(f - f.constant_term(), 36) <= MAX_SERIES_WORK
    assert _work_bound(f - f.constant_term(), 60) > MAX_SERIES_WORK
    for entry_id in (15, 16, 17):
        assert _work_bound(get_entry(entry_id).laurent(), 40) <= MAX_SERIES_WORK, entry_id


def test_work_bound_counts_steps_and_coefficients_of_every_polynomial() -> None:
    zero, x = LaurentPolynomial(1, {}), LaurentPolynomial(1, {(1,): 1})
    for f in (zero, x):
        # ceil(T/2) steps and T+1 coefficients, at their cost in term products
        assert _work_bound(f, 9) >= 5 * STEP_WORK + 10 * COEFFICIENT_WORK
        assert _work_bound(f, 10**6) <= MAX_SERIES_WORK
        assert constant_term_series(f, 3).coeffs == (1, 0, 0, 0)
        with pytest.raises(ValueError, match="MAX_SERIES_WORK"):
            constant_term_series(f, 2 * 10**8)


def test_coordinate_with_zero_step_both_ways() -> None:
    # the last two coordinates never move, so their digits have width 1
    f = LaurentPolynomial(3, {(1, 0, 0): 1, (-1, 0, 0): 1})
    g = LaurentPolynomial(3, {(2, 0, 0): 1, (-1, 0, 0): 1, (0, 0, 0): -1})
    one_variable = LaurentPolynomial(1, {(1,): 1, (-1,): 1})
    assert constant_term_series(f, 10).coeffs == constant_term_series_naive(f, 10)
    assert constant_term_series(f, 10).coeffs == constant_term_series(one_variable, 10).coeffs
    assert constant_term_series(g, 9).coeffs == constant_term_series_naive(g, 9)


def test_single_monomial() -> None:
    assert constant_term_series(LaurentPolynomial(2, {(3, -2): 7}), 5).coeffs == (1, 0, 0, 0, 0, 0)
    assert constant_term_series(LaurentPolynomial(2, {(0, 0): -3}), 5).coeffs == tuple((-3) ** i for i in range(6))


def test_signed_coefficients_and_cancellation() -> None:
    # (x - 1/x)^(2k) has constant term (-1)^k C(2k, k)
    f = LaurentPolynomial(1, {(1,): 1, (-1,): -1})
    expected = tuple((-1) ** (i // 2) * math.comb(i, i // 2) if i % 2 == 0 else 0 for i in range(13))
    assert constant_term_series(f, 12).coeffs == expected
    # 2 + 1/x - 2x: the t^2 coefficient 2*2 + 2*(1*(-2)) cancels to zero
    # inside the step, and the origin has to come back in the next one
    g = LaurentPolynomial(1, {(0,): 2, (-1,): 1, (1,): -2})
    s = constant_term_series(g, 10)
    assert s.coeffs[2] == 0
    assert s.coeffs == constant_term_series_naive(g, 10)


def test_five_variable_cross() -> None:
    # sum_j (x_j + 1/x_j): phi(i) = sum over even n_1+...+n_5 = i of the
    # multinomial coefficient times prod_j C(n_j, n_j/2), which is
    # i! / prod_j ((n_j/2)!)^2
    n = 5
    f = LaurentPolynomial(n, {tuple(s if c == j else 0 for c in range(n)): 1 for j in range(n) for s in (1, -1)})
    terms = 8

    def expected(i: int) -> int:
        return sum(
            math.factorial(i) // math.prod(math.factorial(p // 2) ** 2 for p in parts)
            for parts in itertools.product(range(0, i + 1, 2), repeat=n)
            if sum(parts) == i
        )

    assert constant_term_series(f, terms).coeffs == tuple(expected(i) for i in range(terms + 1))
    assert constant_term_series(f, 6).coeffs == constant_term_series_naive(f, 6)


def test_closed_form_small_cases() -> None:
    assert ci_period_closed_form(3, (), 8).coeffs[:9] == (1, 0, 0, 0, 24, 0, 0, 0, 2520)
    assert ci_period_closed_form(4, (3,), 4).coeffs == (1, 0, 12, 0, 540)
    assert ci_period_closed_form(4, (4,), 2).coeffs == (1, 24, 2520)


def test_closed_form_factorial_identity() -> None:
    # ambient P^6, degrees (2,2,2): no leftover factor, so every index e
    # carries a_e = e! * (2e)!^3 / (e!)^7 = (2e)!^3 / (e!)^6
    s = ci_period_closed_form(6, (2, 2, 2), 4)
    for e in range(5):
        assert s.coeffs[e] == math.factorial(2 * e) ** 3 // math.factorial(e) ** 6
    assert s.coeffs[:4] == (1, 8, 216, 8000)
    # ambient P^4, one cubic: leftover factor of weight 2, step 2,
    # a_{2e} = (2e)! (3e)! / (e!)^5
    t = ci_period_closed_form(4, (3,), 8)
    for e in range(5):
        expected = math.factorial(2 * e) * math.factorial(3 * e) // math.factorial(e) ** 5
        assert t.coeffs[2 * e] == expected
    assert all(c == 0 for i, c in enumerate(t.coeffs) if i % 2)


def test_closed_form_validates_input() -> None:
    with pytest.raises(ValueError):
        ci_period_closed_form(3, (1,), 4)
    with pytest.raises(ValueError):
        ci_period_closed_form(4, (5,), 4)  # violates the anticanonical bound
    with pytest.raises(ValueError):
        ci_period_closed_form(0, (), 4)
    with pytest.raises(ValueError, match="terms must be >= 1"):
        ci_period_closed_form(4, (2,), 0)


def test_compare_series_match_and_prefix() -> None:
    a = IntegerSeries((1, 4, 48, 760))
    b = IntegerSeries((1, 4, 48, 760, 13840))
    r = compare_series(a, b, upto=3)
    assert r.matched and bool(r) and r.upto == 3 and r.first_mismatch is None
    assert r.to_json_dict()["matched"] is True


def test_compare_series_reports_first_mismatch() -> None:
    a = IntegerSeries((1, 4, 48, 760))
    b = IntegerSeries((1, 4, 49, 760))
    r = compare_series(a, b, upto=3)
    assert not r.matched and not bool(r)
    assert r.first_mismatch == 2
    assert (r.left, r.right) == (48, 49)
    d = r.to_json_dict()
    assert d["first_mismatch"] == 2 and d["left"] == "48"


def test_compare_series_requires_enough_terms() -> None:
    a = IntegerSeries((1, 2))
    with pytest.raises(ValueError):
        compare_series(a, a, upto=5)
    with pytest.raises(ValueError, match="upto must be >= 0"):
        compare_series(a, a, upto=-1)


def test_shift_moves_between_conventions() -> None:
    # adding a constant c to the polynomial transforms the series by
    # phi'(n) = sum_k C(n,k) c^(n-k) phi(k); check against direct expansion
    f = table_poly("(x+y+z+1)^2/x + (x+y+z+1)*(y+z+1)*(z+1)^2/(x*y*z)")
    raw = constant_term_series(f, 6)
    c = raw.coeffs[1]
    assert c == 4
    centered = constant_term_series(f - LaurentPolynomial(3, {(0, 0, 0): c}), 6)
    assert shifted_series(centered, c) == raw
    assert normalize_shift(raw) == centered
    assert centered.coeffs == (1, 0, 32, 312, 5520, 91680, 1651640)


@given(
    st.tuples(st.just(1), st.integers(0, 9), st.integers(-9, 9), st.integers(-9, 9)),
    st.integers(min_value=-5, max_value=5),
)
def test_shift_round_trip(coeffs: tuple[int, ...], alpha: int) -> None:
    s = IntegerSeries(coeffs)
    assert normalize_shift(shifted_series(normalize_shift(s), alpha)) == normalize_shift(s)


def test_normalize_requires_unit_leading_coefficient() -> None:
    with pytest.raises(ValueError):
        normalize_shift(IntegerSeries((0, 1)))
    with pytest.raises(ValueError):
        normalize_shift(IntegerSeries((2, 4)))
    assert normalize_shift(IntegerSeries((1,))) == IntegerSeries((1,))  # no t^1 coefficient to remove
