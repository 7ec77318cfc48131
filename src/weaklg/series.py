"""Constant-term series of Laurent polynomials and closed-form references.

The constant-term series of f is sum_i phi_f(i) t^i where phi_f(i) is the
coefficient of the zero monomial in f^i.  These integers are the fingerprint
a candidate Landau-Ginzburg model is checked against, so they are computed
exactly and with a pruning strategy that provably loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Sequence

from .laurent import LaurentPolynomial


@dataclass(frozen=True)
class IntegerSeries:
    """Truncated integer power series a_0, ..., a_T."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("a series needs at least the t^0 coefficient")
        if not all(isinstance(c, int) for c in self.coeffs):
            raise ValueError("series coefficients must be integers")

    @property
    def order(self) -> int:
        """Truncation order T."""
        return len(self.coeffs) - 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i]

    def __len__(self) -> int:
        return len(self.coeffs)

    def to_json(self) -> list[str]:
        # Decimal strings: the integers overflow doubles long before T=20.
        return [str(c) for c in self.coeffs]


@dataclass(frozen=True)
class MatchReport:
    """Outcome of comparing two series up to an order."""

    matched: bool
    upto: int
    first_mismatch: int | None = None
    left: int | None = None
    right: int | None = None

    def __bool__(self) -> bool:
        return self.matched

    def to_json_dict(self) -> dict:
        out: dict = {"matched": self.matched, "upto": self.upto}
        if not self.matched:
            out["first_mismatch"] = self.first_mismatch
            out["left"] = str(self.left)
            out["right"] = str(self.right)
        return out


def constant_term_series(f: LaurentPolynomial, terms: int = 20) -> IntegerSeries:
    """phi_f(0..terms), maintaining f^i incrementally with lossless pruning.

    Pruning.  Per coordinate c let s_plus[c] / s_minus[c] be the largest
    positive / negative step available in the support of f.  After the i-th
    product a monomial with exponent e can still reach the origin within the
    remaining terms - i factors only if -e[c] <= (terms-i)*s_plus[c] and
    e[c] <= (terms-i)*s_minus[c] for every c; anything else is dropped.
    Dropped monomials cannot contribute to phi(j) for any j <= terms, so the
    reported coefficients equal the ones from full expansion.

    Packing.  Each monomial is keyed by one int, so multiplying two
    monomials is one integer addition.  Write T = terms, sp = s_plus[c],
    sm = s_minus[c].  Every monomial of g = f^(i-1) survived the previous
    prune (for i = 1, g is the constant 1), so its e[c] lies in
    [-(T-i+1)*sp, (T-i+1)*sm]; a term of f moves e[c] by a step d[c] in
    [-sm, sp], and T-i+1 <= T, so every product has e[c] + d[c] in
    [-(T*sp+sm), T*sm+sp].  With the offset O[c] = T*sp + sm and the width
    W[c] = (T+1)*(sp+sm) + 1, the digit e[c] + d[c] + O[c] of every product
    therefore lies in [0, W[c]).  g is keyed by sum_c (e[c] + O[c]) * R[c]
    with radix R[c] = prod_{j<c} W[j], and f by sum_c d[c] * R[c] (which
    may be negative), so the key of a product, the sum of the two keys, is
    sum_c (e[c] + d[c] + O[c]) * R[c]: a mixed-radix numeral whose digits
    all lie in [0, W[c]).  No digit carries into the next, the key
    determines e + d uniquely, and divmod by W[0], W[1], ... recovers it.
    The origin is keyed sum_c O[c] * R[c].

    The box is tested when a key is first inserted in a step, on its
    decoded digits; a coefficient that cancels to zero keeps its (boxed)
    key until the step ends, and zero coefficients are dropped then.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    support = list(f.terms.items())
    if not support:
        return IntegerSeries(tuple([1] + [0] * terms))
    n = f.nvars
    s_plus = [max(0, max(e[c] for e, _ in support)) for c in range(n)]
    s_minus = [max(0, -min(e[c] for e, _ in support)) for c in range(n)]
    offsets = [terms * sp + sm for sp, sm in zip(s_plus, s_minus)]
    widths = [(terms + 1) * (sp + sm) + 1 for sp, sm in zip(s_plus, s_minus)]
    radices = []
    radix = 1
    for w in widths:
        radices.append(radix)
        radix *= w
    steps = [(sum(a * r for a, r in zip(e, radices)), cf) for e, cf in support]
    origin = sum(o * r for o, r in zip(offsets, radices))
    out = [1]
    g = {origin: 1}
    for i in range(1, terms + 1):
        rem = terms - i
        # (width, lowest digit, highest digit) per coordinate after this step
        box = [(w, o - rem * sp, o + rem * sm) for w, o, sp, sm in zip(widths, offsets, s_plus, s_minus)]
        nxt: dict[int, int] = {}
        get = nxt.get
        for kg, cg in g.items():
            for kf, cf in steps:
                key = kg + kf
                old = get(key)
                if old is not None:
                    nxt[key] = old + cg * cf
                else:
                    rest = key
                    for w, lo, hi in box:
                        rest, digit = divmod(rest, w)
                        if digit < lo or digit > hi:
                            break
                    else:
                        nxt[key] = cg * cf
        for key in [key for key, c in nxt.items() if not c]:
            del nxt[key]
        g = nxt
        out.append(g.get(origin, 0))
    return IntegerSeries(tuple(out))


def ci_period_closed_form(ambient_dim: int, degrees: Sequence[int], terms: int = 20) -> IntegerSeries:
    """Period series of a Fano complete intersection of the given multidegree
    in projective space P^N, N = ambient_dim.

    With k_0 = N - sum(degrees) the only nonzero coefficients sit at
    t-exponents d = (k_0 + 1) e and equal

        a_d = ((k_0 + 1) e)! * prod_j (k_j e)! / (e!)^(N + 1).

    This normalization is pinned by brute-force expansion of the mirror
    polynomials (see the test suite): the t-grading runs in steps of the
    Fano index k_0 + 1, and for k_0 = 0 the coefficient a_1 equals the
    constant term of the mirror itself.
    """
    degs = tuple(int(k) for k in degrees)
    if any(k < 2 for k in degs):
        raise ValueError("all degrees must be >= 2")
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    if sum(degs) > ambient_dim:
        raise ValueError("sum of degrees must be <= ambient dimension (Fano condition)")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    k0 = ambient_dim - sum(degs)
    step = k0 + 1
    coeffs = [0] * (terms + 1)
    coeffs[0] = 1
    e = 1
    while step * e <= terms:
        num = factorial(step * e)
        for k in degs:
            num *= factorial(k * e)
        den = factorial(e) ** (ambient_dim + 1)
        q, r = divmod(num, den)
        if r != 0:
            raise ArithmeticError("closed form produced a non-integer coefficient")
        coeffs[step * e] = q
        e += 1
    return IntegerSeries(tuple(coeffs))


def compare_series(left: IntegerSeries, right: IntegerSeries, upto: int) -> MatchReport:
    """Exact comparison through t^upto, reporting the first mismatch if any."""
    if upto < 0:
        raise ValueError("upto must be >= 0")
    if upto > left.order or upto > right.order:
        raise ValueError(
            f"comparison order {upto} exceeds a series truncation "
            f"({left.order} and {right.order} available)"
        )
    for i in range(upto + 1):
        if left[i] != right[i]:
            return MatchReport(False, upto, first_mismatch=i, left=left[i], right=right[i])
    return MatchReport(True, upto)


def shifted_series(s: IntegerSeries, alpha: int) -> IntegerSeries:
    """Series of f + alpha computed from the series of f alone.

    (f + alpha)^i expands binomially, and taking constant terms is linear:
    phi_{f+alpha}(i) = sum_k C(i,k) alpha^(i-k) phi_f(k).
    """
    out = []
    for i in range(len(s)):
        total = 0
        for k in range(i + 1):
            total += comb(i, k) * alpha ** (i - k) * s[k]
        out.append(total)
    return IntegerSeries(tuple(out))


def normalize_shift(s: IntegerSeries) -> IntegerSeries:
    """Re-center a constant-term series so its t^1 coefficient vanishes.

    phi_f(1) is the constant term of f, so the series of f minus its constant
    term is recovered without knowing f itself.  Two polynomials differing by
    an additive constant normalize to the same series.
    """
    if s[0] != 1:
        raise ValueError("a constant-term series starts with 1")
    if len(s) < 2:
        return s
    return shifted_series(s, -s[1])
