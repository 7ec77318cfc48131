"""Constant-term series of Laurent polynomials and closed-form references.

The constant-term series of f is sum_i phi_f(i) t^i where phi_f(i) is the
coefficient of the zero monomial in f^i.  These integers are the fingerprint
a candidate Landau-Ginzburg model is checked against, so they are computed
exactly and with a pruning strategy that provably loses nothing.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import comb, factorial, prod
from operator import eq

from ._frozen import frozen
from .constructors import _check_ci_data
from .expr import past_digit_limit
from .laurent import LaurentPolynomial, _mixed_radix, _times
from .linalg import axis_generator

# The plain kernel forms sum_a |f^a| * |f| term products, one dict update
# each.  Entry 1 of the corpus at T = 36 (83 terms after its shift) is
# bounded by 7.5e7 of them and forms 3.6e7.  The bound holds for the orbit
# kernel as well: it forms a subset of those products, and folds or reflects
# only keys that a product formed.
MAX_SERIES_WORK = 10**8

# The kernel keeps one key per orbit of the coordinate swaps that fix f when
# |f| * (|G| - 1) * H >= 6 * ORBIT_MIN_SAVING, where |f| * (|G| - 1) is the
# term products a full orbit of G saves in a step and H = ceil(T*/2) is the
# number of power steps.  Folding each key a step forms into its orbit's
# costs more than a small orbit saves, and both the share of keys in full
# orbits and the steps that pay for the fixed costs grow with T.  At T = 11
# and 12 (H = 6) the rule is |f| * (|G| - 1) >= 70, above 400 / 6, so that
# entry 17 at T = 40 (a saving of 20 in each of 20 steps), which runs faster
# plain, stays plain.  Plain kernel time over forced orbit-sum time, for
# every corpus entry with a nontrivial G (f less its constant term), on a
# 2-vCPU Linux host with Python 3.11.7 (best of 6 to 9 in alternating runs;
# * where the rule takes orbit sums; - not measured):
#
#   entry  |f|  |G|  saving  T=12   T=20   T=30   T=40
#      1    83    6    415   3.19*  4.74*    -      -
#      2    34    6    170   2.53*  3.84*  4.57*    -
#      3    29    2     29   1.09   1.42   1.54*    -
#      4    26    6    130   1.99*  3.01*  3.89*  4.43*
#      5    22    6    110   2.07*  2.90*  3.94*  4.36*
#      8    19    6     95   1.70*  2.75*  3.76*  3.98*
#      9    15    6     75   1.54*  2.51*  3.52*  3.73*
#     10    13    2     13   0.67   0.92   1.17   1.29
#     12    16    2     16   0.70   0.95   1.24   1.28
#     13    11    2     11   0.58   0.78   0.97   1.18
#     14    10    2     10   0.48   0.65   0.91   1.03
#     15     7    6     35   0.67   1.09   1.59*  2.09*
#     16     5    2      5   0.34   0.37   0.46   0.61
#     17     4    6     20   0.44   0.53   0.70   0.92
ORBIT_MIN_SAVING = 70

# The work of a power step and of an output coefficient, in term products.
# On a 2-vCPU Linux host with Python 3.11.7 a term product took 0.28-0.39 us
# (entries 1 and 2 at T = 24 and 30), a power step of f = x 6.4 us beyond its
# one product, and a coefficient of `lg series --poly 0` 1.3-1.5 us from
# the kernel to the printed text or JSON.
STEP_WORK = 20
COEFFICIENT_WORK = 4


@frozen
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


@frozen
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
    pruning, one key per orbit of the coordinate swaps that fix f.

    Meet in the middle.  Write T = terms and H = ceil(T/2).  For any split
    i = a + b, phi_f(i) = [f^a f^b]_0 = sum_e [f^a]_e [f^b]_(-e).  So as soon
    as f^a is built (a = 1..H),

        phi(2a-1) = sum_e [f^a]_e [f^(a-1)]_(-e),
        phi(2a)   = sum_e [f^a]_e [f^a]_(-e)      (when 2a <= T),

    and only f^(a-1) and f^a are alive at any time.

    Grading.  Let d >= 0 generate the i with (0, i) an integer combination
    of the vectors (e, 1), e in f's support (linalg.axis_generator).  If
    phi_f(i) != 0, some i terms of f sum to the origin and their (e, 1) to
    (0, i), so d | i; if d = 0, phi_f(i) = 0 for every i >= 1.  The kernel
    runs to T* = d * floor(T/d) in place of T, so H = ceil(T*/2), and forms
    no sum for an i that d does not divide.  For a corpus polynomial less
    its constant term, d is the Fano index.

    Orbit sums.  Coordinates i and j are in one block when swapping them
    fixes f, coefficients included.  This is an equivalence, transitive since
    (i k) = (i j)(j k)(i j), and G, the product of the symmetric groups of
    the blocks, fixes f and so every f^a.  With the orbit sum
    F_e = |orbit(e)| * [f^a]_e kept at one canonical e per orbit,
      - a step needs no weights: for s in G, x^(s e) f = s(x^e f) has the
        same sum over every orbit as x^e f, so the orbit sum F'_v of
        f^(a+1) is the sum over u in orbit(v) of h_u, where
        h = sum_(canonical e) F_e x^e f;
      - the sums above read phi(2a) = sum_(canonical e) F_e F'_(canon(-e)) /
        |orbit(e)|, since -e has an orbit of the same size, and each division
        is exact because F'_(canon(-e)) is a multiple of that size; likewise
        phi(2a-1).
    An orbit of |G| keys costs |f| products where the plain kernel forms
    |f| * |G|, but every key a step forms is then folded into its orbit's.
    So G is used only when |f| * (|G| - 1) * H, the products full orbits
    save over the H power steps, is at least 6 * ORBIT_MIN_SAVING, and only
    when the search for G, at most n(n-1)|f| lookups for n variables, fits
    in the work bound below; else G is trivial, every key is canonical, and
    the kernel is the plain one.

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
    sum of a terms and a <= T - b puts -e in f^b's box.  A swap of two
    coordinates of a block fixes s_plus and s_minus, so the box is a union
    of orbits and pruning keeps or drops whole orbits.  Step a can cut only
    coordinates c with a*s_minus[c] > (T-a)*s_plus[c] or a*s_plus[c] >
    (T-a)*s_minus[c]: a key it forms is a sum of a terms of f, so
    -a*s_minus[c] <= e[c] <= a*s_plus[c], inside the box on every other c.

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
        the offsets are symmetric, its key is 2*origin - key(e);
      - within a block s_plus, s_minus, the offsets and the widths are all
        equal, so permuting a key's digits within each block (to sort them,
        which names the orbit's canonical key) keeps every digit in its
        range [0, W[c]); the blocks' coordinates are numbered consecutively,
        so each block is a run of digits.  Reflection takes a digit d to
        W[c] - 1 - d, which turns a sorted run around, so canon(-e) is the
        reflected key with each run reversed.
    (Offsets that only cover products, H*s_minus[c] below and H*s_plus[c]
    above, leave the reflection of a kept monomial outside the digit range
    on a lopsided support, where its key borrows from the next digit.)

    A step sums its products by key first.  Then each distinct key is
    decoded up to the digit of the last coordinate the step can cut, and
    dropped if one of those digits lies outside the box; a step that can cut
    nothing decodes no key.  A kept key is folded into its orbit's key (a
    key met before is looked up, not decoded again), and zero coefficients,
    cancelled inside the step, are dropped.

    Budget.  The work, in term products, is bounded before any is done, for
    every f including 0: the H power steps at STEP_WORK each, the T+1
    coefficients at COEFFICIENT_WORK each, and the products,
    sum_(a<H) |f^a| * |f|, where |f^a| is at most the number
    C(a+|f|-1, |f|-1) of multisets of a terms, and at most the number of
    lattice points in f^a's box that lie within a steps of the origin on
    every coordinate; products and decodes count by the keys' size (see
    _work_bound).  Past MAX_SERIES_WORK a ValueError names the limit, as
    one does when a coefficient may have more digits than Python prints.
    """
    work = check_series_budget(f, terms)
    out = [1] + [0] * terms
    # d = 1 skips nothing, where the grading's |f| * (n+1)^2 row steps pass the work bound
    d = axis_generator([(*e, 1) for e in f.terms]) if len(f) * (f.nvars + 1) ** 2 <= work else 1
    top = d * (terms // d) if d else 0
    if not top:
        return IntegerSeries(tuple(out))
    s_plus, s_minus = _reach(f)
    half = (top + 1) // 2
    order, runs = _orbit_runs(f, half, work)
    s_plus, s_minus = [s_plus[c] for c in order], [s_minus[c] for c in order]
    offsets = [half * max(sp, sm) for sp, sm in zip(s_plus, s_minus)]
    widths = [2 * o + 1 for o in offsets]
    pack = _mixed_radix(widths)
    steps = [(pack([e[c] for c in order]), cf) for e, cf in f.terms.items()]
    origin = pack(offsets)
    mirror = 2 * origin

    orbit_of: dict[int, int] = {}  # a key's canonical key
    twins = {origin: (origin, 1)}  # canonical key: (that of -e, |orbit(e)|)
    sizes: dict[tuple[bool, ...], int] = {}  # |orbit(e)| by which neighbouring digits tie

    def canonical(key: int) -> int:
        # the key with its digits sorted within each run; the first time a
        # canonical key is met, its twin is recorded too
        digits = []
        for w in widths:
            key, digit = divmod(key, w)
            digits.append(digit)
        for lo, hi in runs:
            digits[lo:hi] = sorted(digits[lo:hi])
        k = pack(digits)
        if k not in twins:
            # the ties within a sorted run give its digits' multiplicities
            ties = tuple(map(eq, digits, digits[1:]))
            if ties not in sizes:
                sorted_runs = [digits[lo:hi] for lo, hi in runs]
                sizes[ties] = prod(factorial(len(r)) // prod(factorial(r.count(x)) for x in set(r)) for r in sorted_runs)
            for lo, hi in runs:
                digits[lo:hi] = digits[lo:hi][::-1]
            # 2*O[c] - d[c] = W[c] - 1 - d[c] sorts each reversed run again
            twins[k] = (mirror - pack(digits), sizes[ties])
        return k

    def dot(left: dict[int, int], right: dict[int, int]) -> int:
        get = right.get
        if runs:
            return sum(c * (get(kt, 0) // n) for key, c in left.items() for kt, n in (twins[key],))
        return sum(c * get(mirror - key, 0) for key, c in left.items())

    g = {origin: 1}
    for a in range(1, half + 1):
        rem = top - a
        # (width, lowest digit, highest digit) after this step of each
        # coordinate through the last one whose digit can leave the box
        cut = _decoded_digits(s_plus, s_minus, a, rem)
        box = [(w, o - rem * sp, o + rem * sm) for w, o, sp, sm in zip(widths[:cut], offsets, s_plus, s_minus)]
        nxt = _times(g, steps)
        if box:
            formed, nxt = nxt, {}
            for key, c in formed.items():
                rest = key
                for w, lo, hi in box:
                    rest, digit = divmod(rest, w)
                    if digit < lo or digit > hi:
                        break
                else:
                    nxt[key] = c
        if runs:
            formed, nxt = nxt, {}
            get = nxt.get
            for key, c in formed.items():
                k = orbit_of.get(key)
                if k is None:
                    k = orbit_of[key] = canonical(key)
                nxt[k] = get(k, 0) + c
        for key in [key for key, c in nxt.items() if not c]:
            del nxt[key]
        # g = f^(a-1), the smaller power, drives the odd sum
        for i, left in ((2 * a - 1, g), (2 * a, nxt)):
            if i <= top and not i % d:
                out[i] = dot(left, nxt)
        g = nxt
    return IntegerSeries(tuple(out))


def coefficient_bits(f: LaurentPolynomial, terms: int) -> int:
    """A bound on the bits of constant_term_series(f, terms)'s coefficients,
    before it is computed: phi(0) = 1, |phi(i)| <= norm^i < 2^(i * bitlen(norm^64) / 64)."""
    return max(1, -(-terms * (sum(map(abs, f.terms.values())) ** 64).bit_length() // 64))


def check_series_budget(f: LaurentPolynomial, terms: int) -> int:
    """Raise ValueError if constant_term_series(f, terms) would be refused:
    terms < 1, work past MAX_SERIES_WORK, or coefficients that may have more
    digits than Python prints (|phi(i)| <= norm^i, norm the sum of |f|'s
    coefficients).  Return the bound on its work otherwise."""
    if terms < 1:
        raise ValueError("terms must be >= 1")
    work = _work_bound(f, terms)
    if work > MAX_SERIES_WORK:
        raise ValueError(
            f"the series to t^{terms} may need more than {MAX_SERIES_WORK} term products"
            f" (the limit MAX_SERIES_WORK), counting each power step as {STEP_WORK},"
            f" each coefficient as {COEFFICIENT_WORK}, and each product and key decode by its key's size"
        )
    limit = past_digit_limit(sum(map(abs, f.terms.values())), terms)
    if limit:
        raise ValueError(
            f"the series to t^{terms} may have coefficients of more than {limit} digits"
            f" (the limit sys.get_int_max_str_digits() on printing an integer)"
        )
    return work


def _orbit_runs(f: LaurentPolynomial, half: int, work: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The coordinates of a nonzero f in the kernel's order, the blocks of G
    one after another, and each block of two or more as a run (first,
    last + 1) of positions in that order.  G is trivial, with no runs, when
    |f| * (|G| - 1) * half < 6 * ORBIT_MIN_SAVING over the kernel's `half`
    power steps, and when the search for G could look up more than `work`,
    the bound on the kernel's work, allows."""
    n = f.nvars
    blocks = [[c] for c in range(n)]
    if n * (n - 1) * len(f) <= work:
        symmetric = _symmetric_blocks(f)
        if len(f) * (prod(factorial(len(b)) for b in symmetric) - 1) * half >= 6 * ORBIT_MIN_SAVING:
            blocks = symmetric
    order = [c for b in blocks for c in b]
    runs = []
    first = 0
    for b in blocks:
        if len(b) > 1:
            runs.append((first, first + len(b)))
        first += len(b)
    return order, runs


def _symmetric_blocks(f: LaurentPolynomial) -> list[list[int]]:
    """The classes of coordinates i, j whose swap fixes f, coefficients
    included, in order of their first coordinate.

    Each coordinate is compared with the first coordinate of every block so
    far, which is enough since the relation is transitive.  A comparison
    looks up the swapped image of each term that moves either coordinate
    (the swap fixes the others) by its packed key, one addition away from
    the term's: at most n(n-1)/2 * 2|f| lookups in all."""
    terms = f.terms
    base = 2 * max((abs(x) for e in terms for x in e), default=0) + 1
    pack = _mixed_radix([base] * f.nvars)
    radices = [base**c for c in range(f.nvars)]
    keyed = {pack(e): cf for e, cf in terms.items()}
    moved: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(f.nvars)]
    for key, (e, cf) in zip(keyed, terms.items()):
        for c, x in enumerate(e):
            if x:
                moved[c].append((key, e, cf))

    def swap_fixes(i: int, j: int) -> bool:
        shift = radices[i] - radices[j]
        return all(keyed.get(key + (e[j] - e[i]) * shift) == cf for key, e, cf in moved[i] + moved[j])

    blocks: list[list[int]] = []
    for c in range(f.nvars):
        for block in blocks:
            if swap_fixes(block[0], c):
                block.append(c)
                break
        else:
            blocks.append([c])
    return blocks


def _reach(f: LaurentPolynomial) -> tuple[list[int], list[int]]:
    """s_plus and s_minus of a nonzero f: per coordinate, the largest
    positive and the largest negative step in its support (0 if none)."""
    zero = (0,) * f.nvars
    return list(map(max, *f.terms, zero)), [-c for c in map(min, *f.terms, zero)]


def _decoded_digits(s_plus: Sequence[int], s_minus: Sequence[int], a: int, rem: int) -> int:
    """How many leading digits power step a, with rem = T - a factors left,
    decodes of each key it forms: through the last coordinate c with
    a*s_minus[c] > rem*s_plus[c] or a*s_plus[c] > rem*s_minus[c], the only
    ones whose digit can leave the box; 0 when the step can cut nothing."""
    return max((c + 1 for c, (sp, sm) in enumerate(zip(s_plus, s_minus)) if a * sm > rem * sp or a * sp > rem * sm),
               default=0)


def _work_bound(f: LaurentPolynomial, terms: int) -> int:
    """An upper bound on the work of constant_term_series(f, terms) in term
    products, its power steps and coefficients counted at STEP_WORK and
    COEFFICIENT_WORK, or a number past MAX_SERIES_WORK once the bound
    passes it.

    Keys below prod(W[c]) fill `size` 64-bit words.  A product adds and
    looks up such keys, and counts `size`; each distinct key a step forms
    counts n * size, one decode of its n digits by divmods of at most
    `size` words.  Step a forms at most the multisets of a terms of f, and
    the lattice points of a times f's reach.

    The decode charge is kept whole, although a step that can cut only some
    coordinates decodes fewer digits and one that can cut none decodes no
    key: it stays an upper bound, and it is what refuses an f in thousands
    of variables, whose keys fill many words while its few terms form few
    products.  So this bound and MAX_SERIES_WORK are those of a kernel that
    decodes every digit of every key."""
    m, n = len(f), f.nvars
    half = (terms + 1) // 2
    work = half * STEP_WORK + (terms + 1) * COEFFICIENT_WORK
    if not m:
        return work
    reach = list(zip(*_reach(f)))
    size = -(-prod(2 * half * max(r) + 1 for r in reach).bit_length() // 64)
    # every power step forms at least |f| products
    work += half * m * size
    kept = 1  # a bound on the keys of f^(a-1) in its box
    for a in range(1, half + 1):
        if work > MAX_SERIES_WORK:
            break
        rem = terms - a
        multisets = comb(a + m - 1, m - 1)
        formed = min(multisets, kept * m, prod(a * (sp + sm) + 1 for sp, sm in reach))
        work += size * (m * (kept - 1) + n * formed)
        # f^a's box: lattice points within a steps of the origin
        kept = min(multisets, prod(min(a * sp, rem * sm) + min(a * sm, rem * sp) + 1 for sp, sm in reach))
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
    degs = _check_ci_data(ambient_dim, degrees)
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
