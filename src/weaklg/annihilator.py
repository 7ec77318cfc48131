"""Annihilating differential operators for integer series.

The operators L = sum c_{l,j} t^l D^j, D = t d/dt, and their action on a
series are those of `operators`.  Finding an annihilator up to given order
and t-degree is exact linear algebra over the rationals; the matrix is
integral, so its nullspace comes from the fraction-free elimination in
`linalg`.  The sweep over the (order, degree) cells up to (MAX_ORDER,
MAX_DEGREE) solves each order once, at its largest degree still of use, and
reads every smaller cell of that order off a prefix of the basis.

A graded series splits the matrix.  Let g be the grading of s, the gcd of
the indices of its nonzero coefficients.  The entry s_(i-l) (i-l)^j is 0
unless g divides i - l, so the matrix is block-diagonal up to the order of
its rows and columns, with one block per class c mod g: the rows i = c mod g
and the columns (l, j) with l = c mod g.  Its nullspace is the direct sum of
the blocks' nullspaces, and a column depends on the columns before it
exactly when it depends on the earlier columns of its own class.  So each
block is solved on its own, at about 1/g^2 of the arithmetic of the whole
matrix, with the same answers.  For a corpus entry g is the Fano index.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from .linalg import nullspace
from .operators import DifferentialOperator, _apply_integral, euler_powers
from .series import IntegerSeries

MAX_ORDER = 4
MAX_DEGREE = 6
# The sweep's work in word products: one exact solve per order (see
# check_sweep_budget).  On a 2-vCPU Linux host with Python 3.11.7 a word
# product took 11-24 ns of find_annihilator on random series (T = 40-300,
# 100-800 bits), so this is a few seconds.  From the norm bound on their
# coefficients it admits entries 2-17 at T = 40 (entry 11 needs the most,
# 1.91e8) and entry 1 at T = 36 (1.98e8); entry 1 at T = 40 needs 2.97e8,
# and the series budget refuses it there too.
MAX_SWEEP_WORK = 2 * 10**8


def _strip_content(row: Sequence[int]) -> Sequence[int]:
    g = gcd(*row)
    return row if g == 1 else [v // g for v in row]


def find_annihilator(
    s: IntegerSeries,
    order: int,
    degree: int,
) -> list[DifferentialOperator]:
    """All operators with D-order <= order and t-degree <= degree that kill
    the coefficients of s through its truncation order.

    Returns a basis of the solution space, each element scaled so its first
    nonzero coefficient in (l, j)-lexicographic order is 1.  An empty list
    means no such operator exists at these bounds.  Every returned operator
    is re-checked against the series before being handed back, with the
    integer coefficients the nullspace gives it, before they are scaled.

    Each class's block is solved by `linalg.nullspace`, whose basis has a
    vector per free column; that column is the vector's last nonzero entry.
    The vectors of all blocks are merged in the order of their free columns,
    as a solve of the whole matrix orders them.
    """
    if order < 0 or degree < 0:
        raise ValueError("order and degree must be >= 0")
    basis = []
    for unknowns, columns in _blocks(s, order, degree).values():
        # content stripping is applied to the input rows only: stripping
        # mid-elimination would break Bareiss's exact divisions
        rows = [_strip_content(row) for row in zip(*columns) if any(row)]
        for vec in nullspace(rows, len(unknowns)):
            basis.append({unknowns[k]: v for k, v in enumerate(vec) if v != 0})
    ops = []
    for coeffs in sorted(basis, key=max):
        if any(_apply_integral(coeffs, s)):
            raise ArithmeticError("solver returned an operator that fails its own equations")
        ops.append(DifferentialOperator(coeffs).scaled_canonical())
    return ops


def tightest_class(s: IntegerSeries, order: int, degree: int) -> tuple[int, int, int]:
    """(class, equations, unknowns) of least slack, then class, of find_annihilator(s, order, degree)."""
    return min(_class_sizes(s.order, grading(s), order, degree), key=lambda cell: (cell[1] - cell[2], cell[0]))


def determining_terms(s: IntegerSeries, order: int, degree: int) -> int | None:
    """The least truncation order T at which each class c mod g, g the grading of s, has as
    many equations as its u unknowns, the rows c, c + g, ..., c + (u - 1) g, and no column
    t^l D^j, which reads s_k for k <= T - l, k >= 1 if j >= 1, is zero: degree + p <= T, p
    the least such k with s_k != 0, None if s shows none.  Unknowns only grow with order and
    degree, p is fixed once seen, and a longer truncation only lowers g to a divisor, which
    for g <= 8 never raises the value at (MAX_ORDER, MAX_DEGREE): there the sweep skips no cell."""
    g, p = grading(s), next((k for k in range(min(order, 1), len(s)) if s[k]), None)
    sizes = _class_sizes(s.order, g, order, degree)
    return None if p is None else max(degree + p, *(c + (unknowns - 1) * g for c, _, unknowns in sizes))


def determined(s: IntegerSeries, order: int, degree: int) -> bool:
    """Whether each class of the cell has as many equations as unknowns or more (Kauers, Guessing
    Handbook, RISC 09-07) and no column is zero: else its nullspace is nonzero whatever s holds past t^T."""
    terms = determining_terms(s, order, degree)
    return terms is not None and terms <= s.order


def undetermined_note(s: IntegerSeries, order: int, degree: int, cells: str) -> str | None:
    """What settles `cells`, of which (order, degree) needs the most terms; None if they are determined."""
    terms = determining_terms(s, order, degree)
    if terms is None:
        return "the truncation shows no coefficient past t^0"
    return f"--terms {terms} determines {cells}" if terms > s.order else None


def slack_line(s: IntegerSeries, order: int, degree: int) -> str:
    """lg pfop's line on a cell: the truncation, the tightest class and, for
    an undetermined cell, what would determine it."""
    c, equations, unknowns = tightest_class(s, order, degree)
    note = undetermined_note(s, order, degree, "the cell")
    return (
        f"truncation t^{s.order}, tightest class {c} mod {grading(s)}:"
        f" {equations} equations for {unknowns} unknowns, slack {equations - unknowns}"
    ) + (f"; not solved, {note}" if note else "")


def grading(s: IntegerSeries) -> int:
    """The gcd of the indices of the nonzero coefficients of s; 1 when no
    index but 0 has one."""
    return gcd(*(i for i, c in enumerate(s.coeffs) if c)) or 1


def find_minimal_annihilator(
    s: IntegerSeries,
    max_order: int = MAX_ORDER,
    max_degree: int = MAX_DEGREE,
) -> tuple[int, int, list[DifferentialOperator]] | None:
    """Sweep the cells up to (max_order, max_degree), (MAX_ORDER, MAX_DEGREE) by default, by
    increasing order + degree, then order, and return the first with a nonempty annihilator basis.

    Each order m is solved once, exactly, at a degree bound r.  The basis of
    find_annihilator comes sorted by free column, and a vector's free column
    (l, j) is its last nonzero unknown in l-major order, so its degree is l.
    The columns of a cell (m, r' <= r) are a prefix of those of (m, r), and
    its free columns are those of (m, r) in that prefix, so the basis of
    (m, r') is the leading run of operators of degree <= r', and the least
    degree of order m is the degree of the first operator.  The bound starts
    at max_degree, capped at the largest `determined` degree; once an order
    has an operator, the orders after it need a cell m + r below the best
    one (ties go to the smaller order), and the sweep stops when the bound
    falls below 0.  So the result is the exhaustive sweep's over `determined` cells.

    check_sweep_budget bounds the sweep's work before it starts.
    """
    bits = max((abs(c) for c in s.coeffs), default=0).bit_length()
    check_sweep_budget(s.order, bits, max_order, max_degree)
    found = None
    for m in range(max_order + 1):
        bound = max_degree if found is None else found[0] + found[1] - m - 1
        while bound >= 0 and not determined(s, m, bound):
            bound -= 1
        if bound < 0:
            break
        ops = find_annihilator(s, m, bound)
        if ops:
            r = ops[0].degree
            found = m, r, [op for op in ops if op.degree == r]
    return found


def _blocks(s: IntegerSeries, order: int, degree: int) -> dict[int, tuple[list[tuple[int, int]], list[list[int]]]]:
    """find_annihilator's matrix as its blocks: for each class c mod g, g
    the grading of s, with an unknown, its unknowns (l, j), l = c mod g, in
    order, and their columns on its rows i = c, c + g, ... through the
    truncation (as many as _class_sizes counts): s_(i-l) (i-l)^j, 0 for
    i < l.  On the other rows the columns are 0."""
    g = grading(s)
    powers = euler_powers(s, order, g)
    blocks = {}
    for c, rows, _ in _class_sizes(s.order, g, order, degree):
        unknowns = [(l, j) for l in range(c, degree + 1, g) for j in range(order + 1)]
        blocks[c] = unknowns, [([0] * (l // g) + powers[j])[:rows] for l, j in unknowns]
    return blocks


def _class_sizes(terms: int, g: int, order: int, degree: int) -> list[tuple[int, int, int]]:
    """(class, rows, columns) of each of _blocks' blocks for a series through
    t^terms graded by g, without building them."""
    return [(c, len(range(c, terms + 1, g)), (order + 1) * len(range(c, degree + 1, g)))
            for c in range(min(g, degree + 1))]


def check_sweep_budget(terms: int, bits: int, max_order: int = MAX_ORDER, max_degree: int = MAX_DEGREE) -> int:
    """Raise ValueError if find_minimal_annihilator(s, max_order,
    max_degree), s a series through t^terms whose coefficients have at most
    `bits` bits, may need more than MAX_SWEEP_WORK word products.  Return
    that bound otherwise.

    The sweep solves each order m at most once, at a degree bound of at most
    max_degree, so it spends at most the sum over m of the work of
    find_annihilator(s, m, max_degree).  Each solve is charged as an
    elimination of the whole matrix: for a series graded by g it works on g
    blocks of about 1/g of the rows and columns, so the bound is loose by up
    to g^2.  Negative bounds are refused as find_annihilator refuses them.
    """
    return _charged(terms, bits, range(max_order + 1), max_degree)


def check_solve_budget(terms: int, bits: int, order: int, degree: int) -> int:
    """check_sweep_budget for the one solve find_annihilator(s, order,
    degree): its work alone is charged."""
    return _charged(terms, bits, range(order, order + 1), degree)


def _charged(terms: int, bits: int, orders: range, degree: int) -> int:
    # refused before any work is summed: (order + 1)(degree + 1) of two
    # negative bounds is large; an empty range is a negative max_order
    if degree < 0 or min(orders, default=-1) < 0:
        raise ValueError("order and degree must be >= 0")
    work = sum(_solve_work(terms, bits, m, degree) for m in orders)
    if work > MAX_SWEEP_WORK:
        raise ValueError(
            f"the operator search to t^{terms} may need more than {MAX_SWEEP_WORK} word products"
            " (the limit MAX_SWEEP_WORK)"
        )
    return work


def _solve_work(terms: int, bits: int, order: int, degree: int) -> int:
    """Word products of find_annihilator(s, order, degree), s a series
    through t^terms whose coefficients have at most `bits` bits.

    The matrix has R = terms + 1 rows and k = (order + 1)(degree + 1)
    columns of entries s_i i^j of at most b = bits + order * bitlen(terms)
    bits.  Bareiss step q updates (R - q)(k - q + 1) entries, each from
    products of q x q minors of at most about q*b bits, w_q = q*b // 64 + 1
    words: sum_q (R - q)(k - q + 1) w_q^2 (schoolbook products, which
    Python's big-int products only beat)."""
    rows, k = terms + 1, (order + 1) * (degree + 1)
    b = bits + order * terms.bit_length()
    return sum((rows - q) * (k - q + 1) * (q * b // 64 + 1) ** 2 for q in range(1, min(rows, k) + 1))
