"""Exact sparse Laurent polynomial arithmetic in n variables.

A Laurent polynomial is stored as a sparse map from exponent vectors
(length-n tuples of signed integers) to nonzero arbitrary-precision integer
coefficients; the zero polynomial is the empty map.  Period coefficients
grow like (4i)!/(i!)^4, so everything here is exact integer arithmetic and
no floating point appears anywhere in this package.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .linalg import det

ExponentVector = tuple[int, ...]

# Witness bases making Miller-Rabin deterministic for all n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=128)
def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test with fixed witness bases.

    Cached, because every random_equal and evaluate_mod call asks again
    about the same modulus; bounded, because a caller may try many."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPolynomial is immutable")

    @classmethod
    def _raw(cls, nvars: int, terms: dict[ExponentVector, int]) -> "LaurentPolynomial":
        # Internal fast path: terms must already be clean (no zeros, right arity).
        self = object.__new__(cls)
        object.__setattr__(self, "_nvars", nvars)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls(nvars, {})

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
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

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
                key = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(key, 0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    del out[key]
        return LaurentPolynomial._raw(self._nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPolynomial":
        """f**d for d >= 0 by repeated squaring; f**0 == 1."""
        if not isinstance(exponent, int):
            raise TypeError("exponent must be an integer")
        if exponent < 0:
            raise ValueError("negative powers of a general Laurent polynomial are not defined")
        result = LaurentPolynomial.one(self._nvars)
        base = self
        d = exponent
        while d:
            if d & 1:
                result = result * base
            d >>= 1
            if d:
                base = base * base
        return result

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

    def evaluate_mod(self, point: Sequence[int], p: int) -> int:
        """Evaluate at a point with all coordinates invertible mod prime p."""
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        n = self._nvars
        if len(point) != n:
            raise ValueError(f"point has {len(point)} coordinates, expected {n}")
        coords = [x % p for x in point]
        if any(x == 0 for x in coords):
            raise ValueError("point has a coordinate divisible by p")
        total = 0
        for exps, coeff in self._terms.items():
            value = coeff % p
            for x, e in zip(coords, exps):
                if e:
                    value = value * pow(x, e, p) % p
            total = (total + value) % p
        return total

    def default_names(self) -> tuple[str, ...]:
        if self._nvars <= 3:
            return ("x", "y", "z")[: self._nvars]
        return tuple(f"x{i + 1}" for i in range(self._nvars))

    def render(self, names: Sequence[str] | None = None) -> str:
        """Canonical text form, parseable by the expression grammar."""
        if not self._terms:
            return "0"
        if names is None:
            names = self.default_names()
        if len(names) != self._nvars:
            raise ValueError(f"need {self._nvars} variable names, got {len(names)}")
        pieces: list[str] = []
        for exps in sorted(self._terms, reverse=True):
            coeff = self._terms[exps]
            factors = [f"{names[i]}^{e}" if e != 1 else names[i] for i, e in enumerate(exps) if e != 0]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                if coeff > 0:
                    pieces.append(body)
                elif factors and mag == 1 and "^" in factors[0]:
                    # a bare leading "-" would bind to the first factor's
                    # base, turning -y^4 into (-y)^4 when reparsed
                    pieces.append("-1*" + body)
                else:
                    pieces.append("-" + body)
            else:
                pieces.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(pieces)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self._nvars}, {self.render()!r})"
