"""Annihilating differential operators for integer series.

Operators are polynomials in t and the Euler operator D = t d/dt:
L = sum c_{l,j} t^l D^j.  Acting on a series s, the t^i coefficient of L s
is sum_{l,j} c_{l,j} s_{i-l} (i-l)^j, with terms for i < l dropped and the
convention 0^0 = 1.  Finding an annihilator up to given order and t-degree
is exact linear algebra over the rationals; the matrix is integral, so its
nullspace comes from the fraction-free elimination in `linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .linalg import nullspace
from .series import IntegerSeries


@dataclass(frozen=True)
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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DifferentialOperator):
            return NotImplemented
        return dict(self.coeffs) == dict(other.coeffs)

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
    out = []
    for i in range(len(s)):
        total = Fraction(0)
        for (l, j), c in op.coeffs.items():
            if i - l < 0:
                continue
            total += c * s[i - l] * (i - l) ** j
        out.append(total)
    return tuple(out)


def _strip_content(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        g = gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return [v // g for v in row]
    return row


def find_annihilator(
    s: IntegerSeries,
    order: int,
    degree: int,
    terms: int | None = None,
) -> list[DifferentialOperator]:
    """All operators with D-order <= order and t-degree <= degree that kill
    the coefficients of s through t^terms.

    Returns a basis of the solution space, each element scaled so its first
    nonzero coefficient in (l, j)-lexicographic order is 1.  An empty list
    means no such operator exists at these bounds.  Every returned operator
    is re-checked against the series before being handed back.
    """
    if order < 0 or degree < 0:
        raise ValueError("order and degree must be >= 0")
    if terms is None:
        terms = s.order
    if terms > s.order:
        raise ValueError(f"terms={terms} exceeds the series truncation {s.order}")
    cols = [(l, j) for l in range(degree + 1) for j in range(order + 1)]
    rows = []
    for i in range(terms + 1):
        row = []
        for l, j in cols:
            if i - l < 0:
                row.append(0)
            else:
                row.append(s[i - l] * (i - l) ** j)
        rows.append(row)
    # content stripping is applied to the input rows only: stripping
    # mid-elimination would break Bareiss's exact divisions
    basis = nullspace([_strip_content(row) for row in rows if any(row)], len(cols))
    ops = []
    for vec in basis:
        coeffs = {cols[k]: v for k, v in enumerate(vec) if v != 0}
        op = DifferentialOperator(coeffs).scaled_canonical()
        check = apply_operator(op, s)
        if any(check[i] != 0 for i in range(terms + 1)):
            raise ArithmeticError("solver returned an operator that fails its own equations")
        ops.append(op)
    return ops


def find_minimal_annihilator(
    s: IntegerSeries,
    max_order: int = 4,
    max_degree: int = 6,
    terms: int | None = None,
) -> tuple[int, int, list[DifferentialOperator]] | None:
    """Sweep (order, degree) cells by increasing order + degree, then order,
    and return the first cell with a nonempty annihilator basis."""
    cells = sorted(
        ((m, r) for m in range(max_order + 1) for r in range(max_degree + 1)),
        key=lambda mr: (mr[0] + mr[1], mr[0]),
    )
    for m, r in cells:
        ops = find_annihilator(s, m, r, terms)
        if ops:
            return m, r, ops
    return None
