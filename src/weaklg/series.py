"""Constant-term series of Laurent polynomials and closed-form references.

The constant-term series of f is sum_i phi_f(i) t^i where phi_f(i) is the
coefficient of the zero monomial in f^i.  These integers are the fingerprint
a candidate Landau-Ginzburg model is checked against, so they are computed
exactly and with a pruning strategy that provably loses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod
from typing import Sequence

from .laurent import LaurentPolynomial

# The kernel forms sum_a |f^a| * |f| term products, one dict update each.
# Entry 1 of the corpus at T = 36 (83 terms after its shift) is bounded by
# 5.9e7 of them and forms 3.6e7.
MAX_SERIES_WORK = 10**8

# The work of a power step and of an output coefficient, in term products.
# On a 2-vCPU Linux host with Python 3.11.7 a term product took 0.28-0.39 us
# (entries 1 and 2 at T = 24 and 30), a power step of f = x 6.4 us beyond its
# one product, and a coefficient of `lg series --poly 0` 1.3-1.5 us from
# the kernel to the printed text or JSON.
STEP_WORK = 20
COEFFICIENT_WORK = 4


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
    """phi_f(0..terms) from the powers f^a, a <= ceil(terms/2), with lossless
    pruning.

    Meet in the middle.  Write T = terms and H = ceil(T/2).  For any split
    i = a + b, phi_f(i) = [f^a f^b]_0 = sum_e [f^a]_e [f^b]_(-e).  So as soon
    as f^a is built (a = 1..H),

        phi(2a-1) = sum_e [f^a]_e [f^(a-1)]_(-e),
        phi(2a)   = sum_e [f^a]_e [f^a]_(-e)      (when 2a <= T),

    and only f^(a-1) and f^a are alive at any time.

    Pruning.  Per coordinate c let s_plus[c] / s_minus[c] be the largest
    positive / negative step available in the support of f.  After the a-th
    product a monomial with exponent e can still reach the origin within the
    remaining T - a factors only if -e[c] <= (T-a)*s_plus[c] and
    e[c] <= (T-a)*s_minus[c] for every c; anything else is dropped.  A
    dropped monomial of f^(a-1) times a term of f lands outside the next
    box, so the kept part of f^a is exactly f^a restricted to its box.  No
    sum above loses a term: if [f^a]_e [f^b]_(-e) != 0 with a + b <= T,
    then -e is a sum of b terms of f, so -b*s_minus[c] <= -e[c] <=
    b*s_plus[c], and b <= T - a puts e in f^a's box; symmetrically, e is a
    sum of a terms and a <= T - b puts -e in f^b's box.

    Packing.  Each monomial is keyed by one int, so multiplying two
    monomials is one integer addition and reflecting one is one integer
    subtraction.  With the symmetric offset O[c] = H * max(s_plus[c],
    s_minus[c]) and the width W[c] = 2*O[c] + 1, a monomial e with
    |e[c]| <= O[c] for every c is keyed by sum_c (e[c] + O[c]) * R[c], with
    radix R[c] = prod_(j<c) W[j]: a mixed-radix numeral whose digits all lie
    in [0, W[c]), so the key determines e and divmod by W[0], W[1], ...
    recovers it.  The origin is keyed sum_c O[c] * R[c].  Every monomial
    the loop keys is of this kind:
      - a product of a kept monomial e of f^(a-1) and a term d of f is a sum
        of a <= H terms of f, so -a*s_minus[c] <= e[c] + d[c] <=
        a*s_plus[c]; its key is the sum of e's key and sum_c d[c] * R[c]
        (which may be negative), with no digit carrying into the next;
      - the reflection -e of a kept monomial e of f^a or f^(a-1) is minus
        a sum of at most H terms of f, so |e[c]| <= O[c] as well, and since
        the offsets are symmetric, its key is 2*origin - key(e).
    (Offsets that only cover products, H*s_minus[c] below and H*s_plus[c]
    above, leave the reflection of a kept monomial outside the digit range
    on a lopsided support, where its key borrows from the next digit.)

    The box is tested when a key is first inserted in a step, on its
    decoded digits; a coefficient that cancels to zero keeps its (boxed)
    key until the step ends, and zero coefficients are dropped then.

    Budget.  The work, in term products, is bounded before any is done, for
    every f including 0: the H power steps at STEP_WORK each, the T+1
    coefficients at COEFFICIENT_WORK each, and the products,
    sum_(a<H) |f^a| * |f|, where |f^a| is at most the number
    C(a+|f|-1, |f|-1) of multisets of a terms, and at most the number of
    lattice points in f^a's box that lie within a steps of the origin on
    every coordinate.  Past MAX_SERIES_WORK a ValueError names the limit.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if _work_bound(f, terms) > MAX_SERIES_WORK:
        raise ValueError(
            f"the series to t^{terms} may need more than {MAX_SERIES_WORK} term products"
            f" (the limit MAX_SERIES_WORK), counting each power step as {STEP_WORK}"
            f" and each coefficient as {COEFFICIENT_WORK}"
        )
    support = list(f.terms.items())
    if not support:
        return IntegerSeries(tuple([1] + [0] * terms))
    s_plus, s_minus = _reach(f)
    half = (terms + 1) // 2
    offsets = [half * max(sp, sm) for sp, sm in zip(s_plus, s_minus)]
    widths = [2 * o + 1 for o in offsets]
    radices = []
    radix = 1
    for w in widths:
        radices.append(radix)
        radix *= w
    steps = [(sum(a * r for a, r in zip(e, radices)), cf) for e, cf in support]
    origin = sum(o * r for o, r in zip(offsets, radices))
    mirror = 2 * origin
    out = [1] + [0] * terms
    g = {origin: 1}
    for a in range(1, half + 1):
        rem = terms - a
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
        # g = f^(a-1), the smaller power, drives the odd sum
        out[2 * a - 1] = sum(cg * get(mirror - kg, 0) for kg, cg in g.items())
        if 2 * a <= terms:
            out[2 * a] = sum(c * get(mirror - key, 0) for key, c in nxt.items())
        g = nxt
    return IntegerSeries(tuple(out))


def _reach(f: LaurentPolynomial) -> tuple[list[int], list[int]]:
    """s_plus and s_minus of a nonzero f: per coordinate, the largest
    positive and the largest negative step in its support (0 if none)."""
    exps = list(f.terms)
    s_plus = [max(0, max(e[c] for e in exps)) for c in range(f.nvars)]
    s_minus = [max(0, -min(e[c] for e in exps)) for c in range(f.nvars)]
    return s_plus, s_minus


def _work_bound(f: LaurentPolynomial, terms: int) -> int:
    """An upper bound on the work of constant_term_series(f, terms) in term
    products, its power steps and coefficients counted at STEP_WORK and
    COEFFICIENT_WORK, or a number past MAX_SERIES_WORK once the bound
    passes it."""
    m = len(f)
    half = (terms + 1) // 2
    # every power step adds at least |f| products to its own work
    work = half * (STEP_WORK + m) + (terms + 1) * COEFFICIENT_WORK
    if not m:
        return work
    s_plus, s_minus = _reach(f)
    for a in range(half):
        if work > MAX_SERIES_WORK:
            break
        rem = terms - a
        points = prod(min(a * sp, rem * sm) + min(a * sm, rem * sp) + 1 for sp, sm in zip(s_plus, s_minus))
        work += m * (min(points, comb(a + m - 1, m - 1)) - 1)
    return work


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
