"""Exact sparse Laurent polynomial arithmetic in n variables.

A Laurent polynomial is stored as a sparse map from exponent vectors
(length-n tuples of signed integers) to nonzero arbitrary-precision integer
coefficients; the zero polynomial is the empty map.  Period coefficients
grow like (4i)!/(i!)^4, so everything here is exact integer arithmetic and
no floating point appears anywhere in this package.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from types import MappingProxyType

from .linalg import det

ExponentVector = tuple[int, ...]


def _mixed_radix(widths: Sequence[int]) -> Callable[[Sequence[int]], int]:
    """The packing of exponent vectors into ints for digit widths W: e is
    keyed sum_c e[c] * R[c] with radix R[c] = prod_(i<c) W[i].

    Keys add as the vectors do.  Two vectors that differ by less than W[c]
    in every coordinate c get different keys: in a nonzero difference d
    the highest nonzero digit d[t] outweighs the rest, since
    sum_(c<t) (W[c] - 1) * R[c] = R[t] - 1.  So a vector whose digits lie
    in [0, W[c]) is recovered from its key by divmod by W[0], W[1], ...
    """
    radices = []
    radix = 1
    for w in widths:
        radices.append(radix)
        radix *= w
    return lambda e: sum(map(mul, e, radices))


def _times(g: Mapping[int, int], steps: Sequence[tuple[int, int]]) -> dict[int, int]:
    """The product of two polynomials on packed keys, g and the (key,
    coefficient) pairs `steps`: every key kg + kf with the sum of its
    products cg * cf, zero sums kept.  Each cg is multiplied once per
    distinct cf, and not by a cf of 1."""
    groups: dict[int, list[int]] = {}
    for kf, cf in steps:
        groups.setdefault(cf, []).append(kf)
    out: dict[int, int] = {}
    get = out.get
    for cf, keys in groups.items():
        scaled = g.items() if cf == 1 else [(kg, cg * cf) for kg, cg in g.items()]
        for kf in keys:
            for kg, c in scaled:
                k = kg + kf
                out[k] = get(k, 0) + c
    return out


def _signed_sum(terms: Iterable[tuple[Sequence[int], int | Fraction]], names: Sequence[str]) -> str:
    """Sum c * prod_i names[i]^e[i] over the (e, c) of terms in order ("0" for none): a factor is name^e,
    or name if e == 1; +-1 shows only on a constant term; "-" leads a negative first term; " + "/" - " join."""
    pieces: list[str] = []
    for exps, coeff in terms:
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e]
        if coeff < 0:
            coeff, sign = -coeff, ("- " if pieces else "-")
        else:
            sign = "+ " if pieces else ""
        if coeff != 1 or not factors:
            factors.insert(0, str(coeff))
        pieces.append(sign + "*".join(factors))
    return " ".join(pieces) or "0"


class LaurentPolynomial:
    """Sparse Laurent polynomial with integer coefficients.

    The canonical printed form lists terms in descending lexicographic
    exponent order and renders monomials in the same grammar the expression
    parser accepts, e.g. ``x^2*y^-1 + 2*y``.
    """

    __slots__ = ("_nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[ExponentVector, int] | Iterable[tuple[ExponentVector, int]]):
        if nvars < 1:
            raise ValueError("nvars must be a positive integer")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[ExponentVector, int] = {}
        for exps, coeff in items:
            key = tuple(exps)
            if len(key) != nvars:
                raise ValueError(f"exponent vector {key} has length {len(key)}, expected {nvars}")
            if not all(isinstance(e, int) for e in key):
                raise ValueError(f"exponent vector {key} has non-integer entries")
            if not isinstance(coeff, int):
                raise ValueError(f"coefficient {coeff!r} is not an integer")
            if coeff == 0:
                continue
            if key in clean:
                raise ValueError(f"duplicate exponent vector {key}")
            clean[key] = coeff
        object.__setattr__(self, "_nvars", nvars)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError("LaurentPolynomial is immutable")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__: __setattr__ refuses
        return LaurentPolynomial, (self._nvars, self._terms)

    @classmethod
    def _raw(cls, nvars: int, terms: dict[ExponentVector, int]) -> "LaurentPolynomial":
        # Internal fast path: terms must already be clean (no zeros, right arity).
        self = object.__new__(cls)
        object.__setattr__(self, "_nvars", nvars)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    @classmethod
    def one(cls, nvars: int) -> "LaurentPolynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "LaurentPolynomial":
        if value == 0:
            return cls(nvars, {})
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "LaurentPolynomial":
        """The generator x_index, 0-based."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        return cls._raw(nvars, {(0,) * index + (1,) + (0,) * (nvars - index - 1): 1})

    @classmethod
    def monomial(cls, nvars: int, exponents: Sequence[int], coefficient: int = 1) -> "LaurentPolynomial":
        return cls(nvars, {tuple(exponents): coefficient})

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def terms(self) -> Mapping[ExponentVector, int]:
        return MappingProxyType(self._terms)

    def support(self) -> tuple[ExponentVector, ...]:
        return tuple(sorted(self._terms))

    def coefficient(self, exponents: Sequence[int]) -> int:
        return self._terms.get(tuple(exponents), 0)

    def constant_term(self) -> int:
        return self._terms.get((0,) * self._nvars, 0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == LaurentPolynomial.constant(self._nvars, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._nvars == other._nvars and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self._nvars, frozenset(self._terms.items()))))
        return self._hash

    def _coerce(self, other: object) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            if other._nvars != self._nvars:
                raise ValueError(f"variable count mismatch: {self._nvars} vs {other._nvars}")
            return other
        if isinstance(other, int):
            return LaurentPolynomial.constant(self._nvars, other)
        raise TypeError(f"cannot combine LaurentPolynomial with {type(other).__name__}")

    def __add__(self, other: object) -> "LaurentPolynomial":
        g = self._coerce(other)
        out = dict(self._terms)
        for exps, coeff in g._terms.items():
            new = out.get(exps, 0) + coeff
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
        return LaurentPolynomial._raw(self._nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._raw(self._nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: object) -> "LaurentPolynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: object) -> "LaurentPolynomial":
        return self._coerce(other) + (-self)

    def __mul__(self, other: object) -> "LaurentPolynomial":
        g = self._coerce(other)
        if not self._terms or not g._terms:
            return LaurentPolynomial._raw(self._nvars, {})
        out: dict[ExponentVector, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in g._terms.items():
                key = tuple(map(add, e1, e2))
                new = out.get(key, 0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    del out[key]
        return LaurentPolynomial._raw(self._nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPolynomial":
        """f**k for k >= 0 by k - 1 multiplications by f on packed keys;
        f**0 == 1, and a one-term base c*x^e gives c^k * x^(k*e) directly.

        Multiplying f^j by f for j = 1..k-1 forms sum_j |f^j| * |f| term
        products, fewer than squaring forms when f is sparse (Fateman, "On
        the computation of powers of sparse polynomials", 1974).

        Packing.  Per coordinate c let lo[c] and hi[c] be the least and the
        greatest exponent in f's support, low[c] = k*lo[c] and the width
        W[c] = k*(hi[c] - lo[c]) + 1.  A term e of f is keyed by the
        mixed-radix numeral sum_c (e[c] - lo[c]) * R[c], R[c] = prod_(i<c)
        W[i].  A monomial E of f^j, j <= k, is a sum of j terms of f, so
        E[c] - j*lo[c] lies in [0, j*(hi[c] - lo[c])], inside [0, W[c]):
        the sum of the keys of those j terms, sum_c (E[c] - j*lo[c]) *
        R[c], is a numeral whose digits are all in range, so it determines
        E and no digit carries into the next.  Multiplying two monomials is
        then one integer addition, and each key of f^k is decoded once at
        the end by divmod by W[0], W[1], ..., adding low[c].
        """
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            raise ValueError("negative powers of a general Laurent polynomial are not defined")
        n = self._nvars
        if exponent == 0:
            return LaurentPolynomial.one(n)
        if len(self._terms) < 2:
            return LaurentPolynomial._raw(
                n, {tuple(map(mul, e, repeat(exponent))): c**exponent for e, c in self._terms.items()}
            )
        exps = list(self._terms)
        lo = [min(e[c] for e in exps) for c in range(n)]
        widths = [exponent * (max(e[c] for e in exps) - m) + 1 for c, m in enumerate(lo)]
        pack = _mixed_radix(widths)
        steps = [(pack([a - m for a, m in zip(e, lo)]), cf) for e, cf in self._terms.items()]
        g = dict(steps)
        for _ in range(exponent - 1):
            g = {k: c for k, c in _times(g, steps).items() if c}
        low = [exponent * m for m in lo]
        out: dict[ExponentVector, int] = {}
        for k, c in g.items():
            e = []
            for w, m in zip(widths, low):
                k, digit = divmod(k, w)
                e.append(digit + m)
            out[tuple(e)] = c
        return LaurentPolynomial._raw(n, out)

    def substitute_monomial(self, matrix: Sequence[Sequence[int]]) -> "LaurentPolynomial":
        """Monomial change of variables sending exponent e to M @ e.

        M must be an n x n integer matrix with |det M| = 1, so the map is a
        bijection of the lattice and the constant-term series is preserved.
        """
        n = self._nvars
        m = [tuple(row) for row in matrix]
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError(f"matrix must be {n}x{n}")
        if abs(det(m)) != 1:
            raise ValueError("matrix is not unimodular (|det| != 1)")
        out: dict[ExponentVector, int] = {}
        for exps, coeff in self._terms.items():
            key = tuple(sum(row[j] * exps[j] for j in range(n)) for row in m)
            out[key] = coeff
        return LaurentPolynomial._raw(n, out)

    def default_names(self) -> tuple[str, ...]:
        if self._nvars <= 3:
            return ("x", "y", "z")[: self._nvars]
        return tuple(f"x{i + 1}" for i in range(self._nvars))

    def render(self, names: Sequence[str] | None = None) -> str:
        """Canonical text form, parseable by the expression grammar."""
        if names is None:
            names = self.default_names()
        if self._terms and len(names) != self._nvars:
            raise ValueError(f"need {self._nvars} variable names, got {len(names)}")
        return _signed_sum(sorted(self._terms.items(), reverse=True), names)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self._nvars}, {self.render()!r})"
