"""Differential operators in t and the Euler operator D = t d/dt.

L = sum c_{l,j} t^l D^j acts on a series s by (L s)_i = sum_{l,j} c_{l,j}
s_{i-l} (i-l)^j, terms with i < l dropped, 0^0 = 1.  `euler_powers` builds
the table s_k k^j of D^j s that `apply_operator` and the annihilator's
matrix both read, so that action is written once.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from ._frozen import frozen
from .laurent import _signed_sum
from .series import IntegerSeries


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
        return _signed_sum(sorted(self.coeffs.items(), key=lambda kc: (-kc[0][1], kc[0][0])), ("t", "D"))

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "degree": self.degree,
            "coeffs": [[l, j, str(c)] for (l, j), c in sorted(self.coeffs.items())],
        }


def euler_powers(s: IntegerSeries, order: int, step: int) -> list[list[int]]:
    """D^j s for j = 0..order on the indices k = 0, step, 2 step, ... of s
    through its truncation: row j holds s_k k^j, with 0^0 = 1."""
    ks = range(0, len(s), step)
    powers = [list(s.coeffs[::step])]
    for _ in range(order):
        powers.append([c * k for k, c in zip(ks, powers[-1])])
    return powers


def apply_operator(op: DifferentialOperator, s: IntegerSeries) -> tuple[Fraction, ...]:
    """Coefficients of L s through the truncation order of s."""
    return tuple(Fraction(v) for v in _apply_integral(op.coeffs, s))


def _apply_integral(coeffs: Mapping[tuple[int, int], int | Fraction], s: IntegerSeries) -> list[int | Fraction]:
    """Coefficients of L s through the truncation order of s, for an L with
    integer or rational coefficients c_(l,j): sum_(l,j) c_(l,j) s_(i-l)
    (i-l)^j, terms with i < l dropped."""
    powers = euler_powers(s, max(j for _, j in coeffs), 1)
    out = [0] * len(s)
    for (l, j), c in coeffs.items():
        for i, v in zip(range(l, len(s)), powers[j]):  # empty for l > T, where a slice wraps
            out[i] += c * v
    return out
