"""End-to-end acceptance checks for the package's headline behaviors.

Each test prints exactly one PASS/FAIL line so a scan of the output shows
the status of every criterion.  Fixtures are cross-validated against
independent oracles (multinomial counts, binomial coefficients, brute-force
expansion) before the library result is trusted.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from support import constant_term_series_naive, determinant_3x3, random_unimodular
from weaklg.annihilator import find_annihilator
from weaklg.constructors import (
    eliminate,
    grassmannian_hyperplane_system,
    hori_vafa_ci,
)
from weaklg.corpus import get_entry, load_corpus
from weaklg.expr import parse, random_equal, substitute
from weaklg.laurent import LaurentPolynomial
from weaklg.operators import DifferentialOperator, apply_operator
from weaklg.polytopes import (
    dual_polytope,
    ehrhart_counts,
    newton_polytope,
    semiweak_check,
)
from weaklg.series import (
    IntegerSeries,
    ci_period_closed_form,
    constant_term_series,
)

PUBLISHED_V14 = (1, 4, 48, 760, 13840, 273504, 5703096)

CI_ROWS = {
    2: (4, (4,)),
    3: (5, (2, 3)),
    4: (6, (2, 2, 2)),
    13: (4, (3,)),
    14: (5, (2, 2)),
    16: (4, (2,)),
    17: (3, ()),
}


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_published_series_reproduction() -> None:
    start = time.monotonic()
    s = constant_term_series(get_entry(7).laurent(), 6)
    elapsed = time.monotonic() - start
    ok = s.coeffs == PUBLISHED_V14 and elapsed < 5.0
    report(1, ok, f"index-1 degree-14 series {s.coeffs} in {elapsed:.2f}s")


def test_criterion_2_complete_intersection_closed_form() -> None:
    start = time.monotonic()
    checked = []
    for row_id, entry in ((i, get_entry(i)) for i in sorted(CI_ROWS)):
        assert entry.ci is not None
        ambient, degrees = entry.ci.ambient_dim, entry.ci.degrees
        assert (ambient, degrees) == CI_ROWS[row_id]
        step = ambient - sum(degrees) + 1
        # oracle: brute-force expansion of the generator at e <= 2
        brute = constant_term_series_naive(hori_vafa_ci(ambient, degrees), 2 * step)
        closed = ci_period_closed_form(ambient, degrees, 12)
        assert brute == closed.coeffs[: 2 * step + 1], f"row {row_id} oracle"
        table = constant_term_series(entry.laurent(), 12)
        checked.append(table == closed)
    elapsed = time.monotonic() - start
    ok = all(checked) and len(checked) == 7 and elapsed < 60.0
    report(2, ok, f"7 closed-form rows equal table series to t^12 in {elapsed:.1f}s")


def test_criterion_3_generator_fidelity() -> None:
    cases = [(5, (2, 3), 3), (4, (3,), 13), (3, (), 17)]
    ok = True
    for ambient, degrees, row_id in cases:
        generated = constant_term_series(hori_vafa_ci(ambient, degrees), 12)
        table = constant_term_series(get_entry(row_id).laurent(), 12)
        ok = ok and generated == table
    report(3, ok, "generator series match table rows 3, 13, 17 to t^12")


def test_criterion_4_two_models_of_the_same_threefold() -> None:
    entry = get_entry(11)
    main = constant_term_series(entry.laurent(), 12)
    alt = constant_term_series(entry.alternate_laurents()[0], 12)
    # oracle for t^2: pick x^2, y^2, z^2, 1, 1, 1 from six factors
    oracle = math.factorial(6) // math.factorial(3)
    ok = main == alt and main.coeffs[2] == 120 and oracle == 120
    report(4, ok, f"both index-2 degree-8 models give t^2 = {main.coeffs[2]}")


def test_criterion_5_ladder_elimination_replay() -> None:
    start = time.monotonic()
    model = grassmannian_hyperplane_system(2, 6, 5)
    res = eliminate(model, [(0, "X11"), (4, "X42"), (1, "X21"), (2, "X31"), (3, "X41")])
    lhs = substitute(
        res.expression,
        {"X12": parse("x+y+z+1"), "X22": parse("y+z+1"), "X32": parse("z+1")},
    )
    rhs = parse("5 + " + get_entry(7).polynomial)
    verdict = random_equal(lhs, rhs, trials=20, seed=0)
    again = random_equal(lhs, rhs, trials=20, seed=0)
    elapsed = time.monotonic() - start
    ok = verdict.equal and verdict == again and elapsed < 1.0
    report(5, ok, f"elimination replay identity confirmed in {elapsed:.2f}s")


def test_criterion_6_dual_volume_checks() -> None:
    r17 = semiweak_check(get_entry(17).laurent(), 64)
    r15 = semiweak_check(get_entry(15).laurent(), 40)
    ok = (
        r17.ok and r17.dual_volume == 64
        and r15.ok and r15.dual_volume == 40
    )
    report(6, ok, f"dual volumes {r17.dual_volume}, {r15.dual_volume}")


def test_criterion_7_lattice_point_counts_of_the_dual() -> None:
    dual = dual_polytope(newton_polytope(get_entry(17).laurent()))
    result = ehrhart_counts(dual, 3)
    # the dual is a translate of the 4k-dilated standard simplex
    oracle = tuple(math.comb(4 * k + 3, 3) for k in range(4))
    ok = (
        result.counts == oracle
        and result.counts[1] == 35
        and result.polynomial[-1] == Fraction(64, 6)
    )
    report(7, ok, f"dual dilation counts {result.counts}, leading {result.polynomial[-1]}")


def test_criterion_8_annihilating_operators() -> None:
    geometric = IntegerSeries(tuple(1 for _ in range(10)))
    found = find_annihilator(geometric, 1, 1)
    expected = DifferentialOperator(
        {(0, 1): Fraction(1), (1, 1): Fraction(-1), (1, 0): Fraction(-1)}
    )
    geo_ok = found == [expected]

    s = constant_term_series(get_entry(17).laurent(), 60)
    ops = find_annihilator(IntegerSeries(s.coeffs[:51]), 3, 4)
    held_out_ok = bool(ops) and set(apply_operator(ops[0], s)) == {0}
    ok = geo_ok and held_out_ok
    report(8, ok, "geometric operator exact; degree-64 operator kills t^51..t^60")


def test_criterion_9_property_suites() -> None:
    start = time.monotonic()
    entries = load_corpus()

    invariance_ok = True
    rng = random.Random(20260817)
    sample = [entries[i - 1] for i in (13, 14, 15, 16, 17)]
    for entry in sample:
        f = entry.laurent()
        base = constant_term_series(f, 8)
        for _ in range(10):
            m = random_unimodular(rng)
            assert abs(determinant_3x3(m)) == 1
            invariance_ok = invariance_ok and (
                constant_term_series(f.substitute_monomial(m), 8) == base
            )

    duality_ok = True
    for entry in entries:
        p = newton_polytope(entry.laurent())
        duality_ok = duality_ok and dual_polytope(dual_polytope(p)).vertices == p.vertices

    pruning_ok = True
    for entry in entries:
        f = entry.laurent()
        pruning_ok = pruning_ok and (
            constant_term_series(f, 5).coeffs == constant_term_series_naive(f, 5)
        )

    elapsed = time.monotonic() - start
    ok = invariance_ok and duality_ok and pruning_ok and elapsed < 300.0
    report(
        9,
        ok,
        f"50 unimodular replays, 17 dual-of-dual, 17 pruning checks in {elapsed:.1f}s",
    )
