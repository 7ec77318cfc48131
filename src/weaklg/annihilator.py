"""Annihilating differential operators for integer series.

Operators are polynomials in t and the Euler operator D = t d/dt:
L = sum c_{l,j} t^l D^j.  Acting on a series s, the t^i coefficient of L s
is sum_{l,j} c_{l,j} s_{i-l} (i-l)^j, with terms for i < l dropped and the
convention 0^0 = 1.  Finding an annihilator up to given order and t-degree
is exact linear algebra over the rationals; the matrix is integral, so its
nullspace comes from the fraction-free elimination in `linalg`.  The sweep
over (order, degree) cells solves exactly only the cells that a rank
computation modulo SCREEN_PRIME cannot rule out.

A graded series splits the matrix.  Let g be the grading of s, the gcd of
the indices of its nonzero coefficients.  The entry s_(i-l) (i-l)^j is 0
unless g divides i - l, so the matrix is block-diagonal up to the order of
its rows and columns, with one block per class c mod g: the rows i = c mod g
and the columns (l, j) with l = c mod g.  Its nullspace is the direct sum of
the blocks' nullspaces, and a column depends on the columns before it
exactly when it depends on the earlier columns of its own class.  So each
block is solved, and screened, on its own, at about 1/g^2 of the arithmetic
of the whole matrix, with the same answers.  For a corpus entry g is the
Fano index.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

from ._frozen import frozen
from .linalg import first_dependent_mod, nullspace
from .series import IntegerSeries

# The prime of the sweep's screen (2^61 - 1).  Any prime gives the sweep's
# result; a small one rules out fewer cells.
SCREEN_PRIME = (1 << 61) - 1

# The sweep's work in word products: its screen and its exact solves (see
# check_sweep_budget).  On a 2-vCPU Linux host with Python 3.11.7 a word
# product took 11-24 ns of find_annihilator on random series (T = 40-300,
# 100-800 bits), so this is a few seconds.  From the norm bound on their
# coefficients it admits every corpus entry at T = 40; entry 1 needs the
# most, 1.7e8, and the series budget refuses it there.
MAX_SWEEP_WORK = 2 * 10**8


@frozen
class DifferentialOperator:
    """Operator sum c_{l,j} t^l D^j with exact rational coefficients.

    coeffs maps (l, j) to nonzero Fractions.  order is the largest D-power,
    degree the largest t-power appearing.
    """

    coeffs: Mapping[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        clean = {}
        for (l, j), c in self.coeffs.items():
            if l < 0 or j < 0:
                raise ValueError(f"negative index in coefficient position ({l}, {j})")
            c = Fraction(c)
            if c != 0:
                clean[(l, j)] = c
        if not clean:
            raise ValueError("operator must have at least one nonzero coefficient")
        object.__setattr__(self, "coeffs", clean)

    @property
    def order(self) -> int:
        return max(j for _, j in self.coeffs)

    @property
    def degree(self) -> int:
        return max(l for l, _ in self.coeffs)

    def scaled_canonical(self) -> "DifferentialOperator":
        """Divide through so the first nonzero coefficient in (l, j)-lexicographic
        order becomes 1."""
        lead = self.coeffs[min(self.coeffs)]
        return DifferentialOperator({k: c / lead for k, c in self.coeffs.items()})

    def pretty(self) -> str:
        """Readable form, higher D-powers first."""
        pieces = []
        for (l, j) in sorted(self.coeffs, key=lambda k: (-k[1], k[0])):
            c = self.coeffs[(l, j)]
            factors = []
            if abs(c) != 1 or (l == 0 and j == 0):
                factors.append(str(abs(c)))
            if l:
                factors.append("t" if l == 1 else f"t^{l}")
            if j:
                factors.append("D" if j == 1 else f"D^{j}")
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "degree": self.degree,
            "coeffs": [[l, j, str(c)] for (l, j), c in sorted(self.coeffs.items())],
        }


def apply_operator(op: DifferentialOperator, s: IntegerSeries) -> tuple[Fraction, ...]:
    """Coefficients of L s through the truncation order of s."""
    # d L has integer coefficients for d the lcm of the denominators
    d = lcm(*(c.denominator for c in op.coeffs.values()))
    scaled = {lj: c.numerator * (d // c.denominator) for lj, c in op.coeffs.items()}
    return tuple(Fraction(v, d) for v in _apply_integral(scaled, s))


def _apply_integral(coeffs: Mapping[tuple[int, int], int], s: IntegerSeries) -> list[int]:
    """Coefficients of L s through the truncation order of s, for an L with
    integer coefficients c_(l,j): sum_(l,j) c_(l,j) s_(i-l) (i-l)^j, terms
    with i < l dropped."""
    out = [0] * len(s)
    for (l, j), c in coeffs.items():
        for k in range(len(s) - l):
            out[k + l] += c * s[k] * k**j
    return out


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
    """The class of find_annihilator(s, order, degree) with the least slack,
    its equations (the block's rows) minus its unknowns (the block's
    columns), as (class, equations, unknowns); the least class among ties.

    A block with fewer equations than unknowns has a nonzero nullspace
    whatever the coefficients of s are, so an operator found at a negative
    slack is not determined by the truncation.
    """
    return min(
        ((c, len(columns[0]), len(unknowns)) for c, (unknowns, columns) in _blocks(s, order, degree).items()),
        key=lambda cell: (cell[1] - cell[2], cell[0]),
    )


def grading(s: IntegerSeries) -> int:
    """The gcd of the indices of the nonzero coefficients of s; 1 when no
    index but 0 has one."""
    return gcd(*(i for i, c in enumerate(s.coeffs) if c)) or 1


def find_minimal_annihilator(
    s: IntegerSeries,
    max_order: int = 4,
    max_degree: int = 6,
) -> tuple[int, int, list[DifferentialOperator]] | None:
    """Sweep (order, degree) cells by increasing order + degree, then order,
    and return the first cell with a nonempty annihilator basis.

    Screen.  Cell (m, r) has an operator exactly when the columns (l, j),
    l <= r and j <= m, of find_annihilator's matrix (a row per coefficient) are
    dependent over the rationals.  For each m the columns are added one
    degree r at a time and eliminated modulo SCREEN_PRIME, which gives the
    least r at which they become dependent mod p.  The elimination keeps one
    reduced basis per class mod the grading g of s, and reduces a column,
    on its class's rows only, by the kept columns of its class: the other
    classes' columns are 0 on those rows, so the first dependent column is
    the one a single elimination of the whole matrix finds.  Before it the
    columns are independent mod p, so by `linalg.first_dependent_mod` they
    are independent over the rationals: no operator, proven without an
    exact solve.  The columns of (m, r) are among those of (m', r') for m <= m'
    and r <= r', so a cell past its order's least r stays a candidate, and
    the least r of order m bounds that of order m + 1.  Only the candidate
    cells are solved exactly, by find_annihilator, in the sweep's order.  A
    candidate that is dependent mod p but not over the rationals has an
    empty basis and the sweep moves on, so the result is the exhaustive
    sweep's, whatever the prime.

    Budget.  check_sweep_budget bounds the screen and one exact solve before
    the screen starts; a further solve is charged against what that leaves
    of MAX_SWEEP_WORK before it starts.
    """
    terms = s.order
    bits = max((abs(c) for c in s.coeffs), default=0).bit_length()
    spare = MAX_SWEEP_WORK - check_sweep_budget(terms, bits, max_order, max_degree)
    first = []  # per order, the least degree dependent mod p (max_degree + 1: none)
    bound = max_degree
    for m in range(max_order + 1):
        found = first_dependent_mod(_class_columns(s, m, bound), SCREEN_PRIME)
        first.append(bound + 1 if found is None else found // (m + 1))
        bound = min(bound, first[-1])
    cells = sorted(
        ((m, r) for m in range(max_order + 1) for r in range(first[m], max_degree + 1)),
        key=lambda mr: (mr[0] + mr[1], mr[0]),
    )
    for i, (m, r) in enumerate(cells):
        if i:  # the cells before were dependent mod p only
            spare -= _solve_work(terms, bits, m, r)
            if spare < 0:
                raise _past_budget(terms)
        ops = find_annihilator(s, m, r)
        if ops:
            return m, r, ops
    return None


def _class_columns(s: IntegerSeries, order: int, degree: int) -> Iterator[tuple[int, list[int]]]:
    """find_annihilator's columns (l, j), j <= order, for l = 0..degree in
    turn, each as its class c = l mod g, g the grading of s, and its entries
    on the rows i = c, c + g, ... through the truncation: s_(i-l) (i-l)^j,
    0 for i < l.  On the other rows the column is 0."""
    g = grading(s)
    ks = range(0, len(s), g)
    powers = [list(s.coeffs[::g])]  # s_k k^j for k = 0, g, 2g, ..., j = 0..order
    for _ in range(order):
        powers.append([c * k for k, c in zip(ks, powers[-1])])
    for l in range(degree + 1):
        c = l % g
        rows = len(range(c, len(s), g))
        for row in powers:
            yield c, ([0] * (l // g) + row)[:rows]


def _blocks(s: IntegerSeries, order: int, degree: int) -> dict[int, tuple[list[tuple[int, int]], list[list[int]]]]:
    """find_annihilator's matrix as its blocks: for each class with an
    unknown, its unknowns (l, j) in order and their columns on its rows."""
    blocks: dict[int, tuple[list[tuple[int, int]], list[list[int]]]] = {}
    unknowns = ((l, j) for l in range(degree + 1) for j in range(order + 1))
    for lj, (c, column) in zip(unknowns, _class_columns(s, order, degree)):
        block = blocks.setdefault(c, ([], []))
        block[0].append(lj)
        block[1].append(column)
    return blocks


def check_sweep_budget(terms: int, bits: int, max_order: int = 4, max_degree: int = 6) -> int:
    """Raise ValueError if find_minimal_annihilator(s, max_order,
    max_degree), s a series through t^terms whose coefficients have at most
    `bits` bits, may need more than MAX_SWEEP_WORK word products for its
    screen and its first exact solve.  Return that bound otherwise.

    The screen reduces each order's K = (m + 1)(max_degree + 1) columns of
    R = terms + 1 residues, each by at most min(K, R) kept columns: at most
    K min(K, R) R one-word products.  The costliest cell to solve exactly
    is (max_order, max_degree), which has the most columns and the largest
    entries, so the bound covers find_annihilator(s, max_order, max_degree)
    alone as well.  Both are charged as eliminations of the whole matrix:
    for a series graded by g the screen and the solve work on g blocks of
    about R/g rows and K/g columns, so the bound is loose by up to g^2.  The
    sweep solves a second cell only after a candidate that is dependent mod
    p but not over the rationals, and charges it then.  Negative bounds are
    refused as find_annihilator refuses them.
    """
    if max_order < 0 or max_degree < 0:
        raise ValueError("order and degree must be >= 0")
    rows = terms + 1
    work = _solve_work(terms, bits, max_order, max_degree)
    for m in range(max_order + 1):
        k = (m + 1) * (max_degree + 1)
        work += k * min(k, rows) * rows
    if work > MAX_SWEEP_WORK:
        raise _past_budget(terms)
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


def _past_budget(terms: int) -> ValueError:
    return ValueError(
        f"the operator search to t^{terms} may need more than {MAX_SWEEP_WORK} word products"
        " (the limit MAX_SWEEP_WORK)"
    )
