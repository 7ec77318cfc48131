"""Independent oracles for the benchmark's output checks.

Nothing here imports weaklg: every expected value comes from a closed form,
a binomial sum, or plain exact arithmetic written out below, so a defect in
the library cannot hide by agreeing with itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

# Anticanonical degree (-K)^3 of each rank-1 Fano threefold, by corpus id.
DEGREES = {
    1: 2, 2: 4, 3: 6, 4: 8, 5: 10, 6: 12, 7: 14, 8: 16, 9: 18, 10: 22,
    11: 8, 12: 16, 13: 24, 14: 32, 15: 40, 16: 54, 17: 64,
}


def recentre(coeffs: list[int]) -> list[int]:
    """Series of f - phi(1) from the series of f: phi_{f+a}(i) = sum_k C(i,k) a^(i-k) phi_f(k)."""
    a = -coeffs[1]
    return [sum(comb(i, k) * a ** (i - k) * coeffs[k] for k in range(i + 1)) for i in range(len(coeffs))]


def factorial_ratio(step: int, top: tuple[int, ...], bottom: tuple[int, ...], terms: int) -> list[int]:
    """a_{step*e} = prod (t*e)! / prod (b*e)!, zero off the multiples of step."""
    out = [0] * (terms + 1)
    out[0] = 1
    e = 1
    while step * e <= terms:
        num = prod(factorial(t * e) for t in top)
        den = prod(factorial(b * e) for b in bottom)
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError(f"factorial ratio is not an integer at e={e}")
        out[step * e] = q
        e += 1
    return out


def ci_series(ambient: int, degrees: tuple[int, ...], terms: int) -> list[int]:
    """Raw period of a complete intersection of the given degrees in P^ambient."""
    index = ambient + 1 - sum(degrees)
    return factorial_ratio(index, (index, *degrees), (1,) * (ambient + 1), terms)


def weighted_series(weights: tuple[int, ...], degree: int, terms: int) -> list[int]:
    """Raw period of a degree-d hypersurface in P(w): a_{se} = (se)!(de)!/prod (w_i e)!, s = sum w - d."""
    index = sum(weights) - degree
    return factorial_ratio(index, (index, degree), weights, terms)


def _binomial_sum(term, step: int, terms: int) -> list[int]:
    out = [0] * (terms + 1)
    for n in range(terms // step + 1):
        out[step * n] = sum(term(n, k) for k in range(n + 1))
    return out


def _v10(n: int, k: int) -> int:
    return comb(2 * n, n) * comb(n, k) ** 2 * comb(n + k, k)


def _apery(n: int, k: int) -> int:
    return comb(n, k) ** 2 * comb(n + k, k) ** 2


def _v14(n: int, k: int) -> int:
    return comb(n, k) ** 2 * comb(n + k, k) * comb(2 * k, n)


def _v16(n: int, k: int) -> int:
    return comb(n, k) ** 2 * comb(2 * k, n) ** 2


# Per corpus id: (oracle name, function of T giving the raw series of the
# corpus polynomial, before re-centring to phi(1) = 0).  Entries 9 and 10
# have no independent oracle; they are checked against the corpus reference
# series only, as a regression guard.
SERIES_ORACLES = {
    1: ("weighted P(1,1,1,1,3)[6]", lambda t: weighted_series((1, 1, 1, 1, 3), 6, t)),
    2: ("ci P4[4]", lambda t: ci_series(4, (4,), t)),
    3: ("ci P5[2,3]", lambda t: ci_series(5, (2, 3), t)),
    4: ("ci P6[2,2,2]", lambda t: ci_series(6, (2, 2, 2), t)),
    5: ("binomial V10", lambda t: _binomial_sum(_v10, 1, t)),
    6: ("binomial Apery V12", lambda t: _binomial_sum(_apery, 1, t)),
    7: ("binomial V14", lambda t: _binomial_sum(_v14, 1, t)),
    8: ("binomial V16", lambda t: _binomial_sum(_v16, 1, t)),
    11: ("weighted P(1,1,1,2,3)[6]", lambda t: weighted_series((1, 1, 1, 2, 3), 6, t)),
    12: ("weighted P(1,1,1,1,2)[4]", lambda t: weighted_series((1, 1, 1, 1, 2), 4, t)),
    13: ("ci P4[3]", lambda t: ci_series(4, (3,), t)),
    14: ("ci P5[2,2]", lambda t: ci_series(5, (2, 2), t)),
    15: ("binomial V5", lambda t: _binomial_sum(_v10, 2, t)),
    16: ("ci P4[2]", lambda t: ci_series(4, (2,), t)),
    17: ("ci P3", lambda t: ci_series(3, (), t)),
}


def operator_residual(coeffs: list[tuple[int, int, Fraction]], series: list[int]) -> list[Fraction]:
    """t^i coefficients of (sum c t^l D^j) applied to a series, D = t d/dt, 0^0 = 1."""
    return [
        sum((c * series[i - l] * (i - l) ** j for l, j, c in coeffs if l <= i), Fraction(0))
        for i in range(len(series))
    ]


def interpolate_at(values: list[int], x: int) -> Fraction:
    """Value at x of the polynomial of degree < len(values) through (i, values[i])."""
    total = Fraction(0)
    for j, v in enumerate(values):
        term = Fraction(v)
        for i in range(len(values)):
            if i != j:
                term *= Fraction(x - i, j - i)
        total += term
    return total


def leading_coefficient(values: list[int]) -> Fraction:
    """Leading (degree len-1) coefficient of the interpolating polynomial: the
    (len-1)-th finite difference over (len-1)!."""
    diffs = list(values)
    for _ in range(len(values) - 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return Fraction(diffs[0], factorial(len(values) - 1))
