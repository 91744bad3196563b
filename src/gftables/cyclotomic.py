"""Exact ring arithmetic: Z[zeta_p], Z[eta], Z[gamma], and integer polynomials in q.

Every quantity in this package is exact. Character sums live in the ring of
cyclotomic integers Z[zeta_p] (CycInt). A canonical-matrix entry is a sum of
the counts of three classes of character values, so it lies in the quadratic
subring Z[eta] = Z[(1 + g)/2], g the quadratic Gauss sum of F_p (QuadInt):
a pair of integers, and a rational integer wherever the nonsquares of F_p are
squares of GF(q) or there are none. The sign blocks of the symmetric family
live in Z + Z*gamma for the quadratic Gauss sum gamma of GF(q), with
gamma^2 = eps*q (QuadraticGamma). Symbolic recursion runs use dense integer
polynomials in an indeterminate q.

CycInt stores coefficients on the power basis {1, zeta, ..., zeta^(p-2)}; the
relation 1 + zeta + ... + zeta^(p-1) = 0 eliminates the top power, so equality
is plain coefficient comparison. It remains for the values that are not
entries: Gauss sums, characters, and the fiber sums of the diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, Sequence

Rational = Fraction


class IncompatibleRingError(ValueError):
    """Mixed operands from different cyclotomic orders."""


def square_and_multiply(base, n: int, one):
    """base**n for n >= 0 in any ring; one is its unit. Callers own the rule
    for negative exponents."""
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


class CycInt:
    """An element of Z[zeta_p] for a prime p, in canonical reduced form."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[int]):
        if len(coeffs) != p - 1:
            raise ValueError(f"need {p - 1} coefficients for p={p}, got {len(coeffs)}")
        self.p = p
        self.coeffs = tuple(int(c) for c in coeffs)

    @classmethod
    def _of(cls, p: int, coeffs: tuple[int, ...]) -> CycInt:
        """From a ready tuple of p - 1 plain ints, without __init__'s checks and conversion."""
        out = object.__new__(cls)
        out.p, out.coeffs = p, coeffs
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def integer(cls, p: int, n: int) -> CycInt:
        return cls._of(p, (int(n),) + (0,) * (p - 2))

    @classmethod
    def zero(cls, p: int) -> CycInt:
        return cls.integer(p, 0)

    @classmethod
    def one(cls, p: int) -> CycInt:
        return cls.integer(p, 1)

    @classmethod
    def root(cls, p: int, k: int) -> CycInt:
        """zeta_p^k."""
        vec = [0] * p
        vec[k % p] = 1
        return cls.reduce(p, vec)

    @classmethod
    def reduce(cls, p: int, vec: Sequence[int]) -> CycInt:
        """Canonicalize a length-p coefficient vector over {1, ..., zeta^(p-1)}.

        Substitutes zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)), one
        subtraction pass.
        """
        if len(vec) != p:
            raise ValueError("reduce expects a length-p vector")
        top = vec[p - 1]
        return cls._of(p, tuple([c - top for c in vec[: p - 1]]))

    # -- ring operations ---------------------------------------------------

    def _check(self, other: CycInt) -> None:
        if self.p != other.p:
            raise IncompatibleRingError("incompatible cyclotomic order")

    def __add__(self, other: CycInt | int) -> CycInt:
        if isinstance(other, int):
            other = CycInt.integer(self.p, other)
        self._check(other)
        return CycInt._of(self.p, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    __radd__ = __add__

    def __sub__(self, other: CycInt | int) -> CycInt:
        if isinstance(other, int):
            other = CycInt.integer(self.p, other)
        self._check(other)
        return CycInt._of(self.p, tuple([a - b for a, b in zip(self.coeffs, other.coeffs)]))

    def __rsub__(self, other: int) -> CycInt:
        return CycInt.integer(self.p, other) - self

    def __neg__(self) -> CycInt:
        return CycInt._of(self.p, tuple([-a for a in self.coeffs]))

    def __mul__(self, other: CycInt | int) -> CycInt:
        if isinstance(other, int):
            return CycInt._of(self.p, tuple([a * other for a in self.coeffs]))
        self._check(other)
        p = self.p
        prod = [0] * p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                prod[(i + j) % p] += a * b
        return CycInt.reduce(p, prod)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> CycInt:
        if n < 0:
            raise ValueError("negative powers are not defined in Z[zeta_p]")
        return square_and_multiply(self, n, CycInt.one(self.p))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self == CycInt.integer(self.p, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __bool__(self) -> bool:
        return any(self.coeffs)

    # -- structure maps ----------------------------------------------------

    def conjugate(self) -> CycInt:
        """Complex conjugation, zeta -> zeta^(p-1)."""
        p = self.p
        vec = [0] * p
        for k, c in enumerate(self.coeffs):
            vec[(-k) % p] += c
        return CycInt.reduce(p, vec)

    def is_rational_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_int(self) -> int:
        """The value as a plain integer; only constants qualify."""
        if not self.is_rational_integer():
            raise ValueError("not a rational integer")
        return self.coeffs[0]

    def exact_div(self, n: int) -> CycInt:
        if any(c % n for c in self.coeffs):
            raise ValueError(f"coefficients not divisible by {n}")
        return CycInt._of(self.p, tuple([c // n for c in self.coeffs]))

    def to_obj(self) -> int | dict:
        """JSON-friendly form: plain int when rational, else p + coefficients."""
        if self.is_rational_integer():
            return self.coeffs[0]
        return {"p": self.p, "coeffs": list(self.coeffs)}

    def __repr__(self) -> str:
        if self.is_rational_integer():
            return f"CycInt({self.p}, {self.coeffs[0]})"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            base = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
            terms.append(f"{c}*{base}" if k else f"{c}")
        return f"CycInt(p={self.p}, {' + '.join(terms) or '0'})"


@lru_cache(maxsize=None)
def _squares(p: int) -> tuple[int, ...]:
    """[t is a nonzero square mod p] for t = 0..p-1; at p = 2 only t = 1."""
    out = [0] * p
    for t in range(1, p):
        out[t * t % p] = 1
    return tuple(out)


class QuadInt:
    """a + b*eta in Z[eta] = Z[(1 + g)/2], the integers of the quadratic subfield of Q(zeta_p).

    eta = sum over the nonzero squares t of F_p of zeta^t = (-1 + g)/2, a
    Gaussian period, with g the quadratic Gauss sum of F_p, g^2 = p* = +-p and
    p* = 1 mod 4 (Ireland & Rosen, ch. 6). So eta^2 = -eta - (1 - p*)/4, and
    conj(eta) is eta when -1 is a square mod p (conj(g) = eps_p g) and
    -1 - eta when not. A rational integer has b = 0, and b is always 0 at
    p = 2. to_cyc and to_obj give what CycInt gives for the same number.
    """

    __slots__ = ("p", "a", "b")

    def __init__(self, p: int, a: int, b: int = 0):
        self.p, self.a, self.b = p, a, b

    def _pair(self, other: QuadInt | int) -> tuple[int, int]:
        if isinstance(other, int):
            return other, 0
        if self.p != other.p:
            raise IncompatibleRingError("incompatible cyclotomic order")
        return other.a, other.b

    def __add__(self, other: QuadInt | int) -> QuadInt:
        if type(other) is QuadInt and other.p == self.p:  # the common case, without _pair's checks
            return QuadInt(self.p, self.a + other.a, self.b + other.b)
        a, b = self._pair(other)
        return QuadInt(self.p, self.a + a, self.b + b)

    __radd__ = __add__

    def __sub__(self, other: QuadInt | int) -> QuadInt:
        if type(other) is QuadInt and other.p == self.p:
            return QuadInt(self.p, self.a - other.a, self.b - other.b)
        a, b = self._pair(other)
        return QuadInt(self.p, self.a - a, self.b - b)

    def __neg__(self) -> QuadInt:
        return QuadInt(self.p, -self.a, -self.b)

    def __mul__(self, other: QuadInt | int) -> QuadInt:
        a, b = self._pair(other)
        if not (b and self.b):
            return QuadInt(self.p, self.a * a, self.a * b + self.b * a)
        bb = self.b * b  # times eta^2 = -eta - (1 - p*)/4
        return QuadInt(self.p, self.a * a - bb * ((1 - epsilon_of(self.p) * self.p) // 4), self.a * b + self.b * a - bb)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.b == 0 and self.a == other
        if not isinstance(other, QuadInt):
            return NotImplemented
        return self.p == other.p and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.p, self.a, self.b))

    def conjugate(self) -> QuadInt:
        if self.p % 4 == 3:  # conj(eta) = -1 - eta
            return QuadInt(self.p, self.a - self.b, -self.b)
        return self

    def is_rational_integer(self) -> bool:
        return self.b == 0

    def as_int(self) -> int:
        """The value as a plain integer; only rational integers qualify."""
        if self.b:
            raise ValueError("not a rational integer")
        return self.a

    def exact_div(self, n: int) -> QuadInt:
        if self.a % n or self.b % n:
            raise ValueError(f"coefficients not divisible by {n}")
        return QuadInt(self.p, self.a // n, self.b // n)

    def to_cyc(self) -> CycInt:
        """The same number on the power basis of Z[zeta_p]: zeta^(p-1) in eta is -(1 + ... + zeta^(p-2))."""
        sq = _squares(self.p)
        top = self.b * sq[-1]
        coeffs = [self.b * s - top for s in sq[:-1]]
        coeffs[0] += self.a
        return CycInt._of(self.p, tuple(coeffs))

    @classmethod
    def from_cyc(cls, x: CycInt) -> QuadInt:
        """x as a + b*eta; ValueError if x is outside Z[eta]. The power-basis coefficients of x, with 0 at zeta^(p-1),
        are a + b [t square] + k at t = 0 and b [t square] + k at t > 0, for one k."""
        v, sq = x.coeffs + (0,), _squares(x.p)
        if x.p == 2:
            return cls(2, v[0])
        k = v[sq.index(0, 1)]  # at the first nonsquare
        b = v[1] - k
        if any(c != b * s + k for c, s in zip(v[1:], sq[1:])):
            raise ValueError("not in quadratic subring")
        return cls(x.p, v[0] - k, b)

    def to_obj(self) -> int | dict:
        """As CycInt.to_obj: a plain int when rational, else p and the power-basis coefficients."""
        return self.a if self.b == 0 else self.to_cyc().to_obj()

    def __repr__(self) -> str:
        return f"QuadInt({self.p}, {self.a})" if self.b == 0 else f"QuadInt({self.p}, {self.a} + {self.b}*eta)"


def epsilon_of(q: int) -> int:
    """+1 when q = 1 mod 4, -1 when q = 3 mod 4."""
    if q % 2 == 0:
        raise ValueError("quadratic character requires odd characteristic")
    return 1 if q % 4 == 1 else -1


@dataclass(frozen=True)
class QuadraticGamma:
    """a + b*gamma in the quadratic subring Z + Z*gamma, gamma^2 = eps*q."""

    a: int
    b: int
    q: int

    @property
    def eps(self) -> int:
        return epsilon_of(self.q)

    def __add__(self, other: QuadraticGamma | int) -> QuadraticGamma:
        if isinstance(other, int):
            return QuadraticGamma(self.a + other, self.b, self.q)
        if self.q != other.q:
            raise IncompatibleRingError("mixed field orders in Z[gamma]")
        return QuadraticGamma(self.a + other.a, self.b + other.b, self.q)

    __radd__ = __add__

    def __neg__(self) -> QuadraticGamma:
        return QuadraticGamma(-self.a, -self.b, self.q)

    def __sub__(self, other: QuadraticGamma | int) -> QuadraticGamma:
        return self + (-other)

    def __mul__(self, other: QuadraticGamma | int) -> QuadraticGamma:
        if isinstance(other, int):
            return QuadraticGamma(self.a * other, self.b * other, self.q)
        if self.q != other.q:
            raise IncompatibleRingError("mixed field orders in Z[gamma]")
        a = self.a * other.a + self.b * other.b * self.eps * self.q
        b = self.a * other.b + self.b * other.a
        return QuadraticGamma(a, b, self.q)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadraticGamma:
        if n < 0:
            raise ValueError("negative powers are not defined in Z[gamma]")
        return square_and_multiply(self, n, QuadraticGamma(1, 0, self.q))

    def conjugate(self) -> QuadraticGamma:
        # conj(gamma) = eps*gamma, from gamma*conj(gamma) = q and gamma^2 = eps*q.
        return QuadraticGamma(self.a, self.b * self.eps, self.q)

    def is_rational_integer(self) -> bool:
        return self.b == 0

    def as_int(self) -> int:
        if self.b != 0:
            raise ValueError("not a rational integer")
        return self.a

    def to_obj(self) -> dict:
        return {"a": self.a, "b": self.b}


def decompose_gamma(x: CycInt, gamma: CycInt, q: int) -> QuadraticGamma:
    """Write x = a + b*gamma with integer a, b, or fail.

    b is forced by any basis coordinate k >= 1 where gamma is nonzero (the
    constant 1 only touches coordinate 0); the candidate is then verified
    coordinate by coordinate.
    """
    if x.p != gamma.p:
        raise IncompatibleRingError("incompatible cyclotomic order")
    pivot = next((k for k in range(1, gamma.p - 1) if gamma.coeffs[k] != 0), None)
    if pivot is None:
        raise ValueError("gamma is rational; quadratic subring is degenerate")
    b = Fraction(x.coeffs[pivot], gamma.coeffs[pivot])
    if b.denominator != 1:
        raise ValueError("not in quadratic subring")
    b_int = int(b)
    a_int = x.coeffs[0] - b_int * gamma.coeffs[0]
    if gamma * b_int + a_int != x:
        raise ValueError("not in quadratic subring")
    return QuadraticGamma(a_int, b_int, q)


def _trim(cs: list[int]) -> tuple[int, ...]:
    """The coefficients without their trailing zeros."""
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class PolyQ:
    """Dense integer polynomial in q; zero is the empty coefficient tuple."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = _trim([int(c) for c in coeffs])

    @classmethod
    def _of(cls, coeffs: tuple[int, ...]) -> PolyQ:
        """From a tuple of plain ints whose last entry is nonzero (or an empty one), without __init__'s conversion
        and trimming."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def const(cls, n: int) -> PolyQ:
        return cls((n,))

    @classmethod
    def monomial(cls, coeff: int, power: int) -> PolyQ:
        """coeff * q^power."""
        if power < 0:
            raise ValueError("negative powers are outside Z[q]")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def shift(self, k: int) -> PolyQ:
        """q^k times self, for k >= 0."""
        return PolyQ._of((0,) * k + self.coeffs) if self.coeffs else self

    @staticmethod
    def _coerce(x: PolyQ | int) -> PolyQ:
        return x if isinstance(x, PolyQ) else PolyQ.const(x)

    def __add__(self, other: PolyQ | int) -> PolyQ:
        pairs = zip_longest(self.coeffs, self._coerce(other).coeffs, fillvalue=0)
        return PolyQ._of(_trim([x + y for x, y in pairs]))

    __radd__ = __add__

    def __neg__(self) -> PolyQ:
        return PolyQ._of(tuple([-c for c in self.coeffs]))

    def __sub__(self, other: PolyQ | int) -> PolyQ:
        pairs = zip_longest(self.coeffs, self._coerce(other).coeffs, fillvalue=0)
        return PolyQ._of(_trim([x - y for x, y in pairs]))

    def __rsub__(self, other: int) -> PolyQ:
        return PolyQ.const(other) - self

    def __mul__(self, other: PolyQ | int) -> PolyQ:
        other = self._coerce(other)
        if self.is_zero() or other.is_zero():
            return PolyQ()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyQ._of(tuple(out))  # Z is a domain: the leading coefficient is the product of two nonzero ones

    __rmul__ = __mul__

    def __pow__(self, n: int) -> PolyQ:
        if n < 0:
            raise ValueError("negative powers are outside Z[q]")
        return square_and_multiply(self, n, PolyQ.const(1))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.coeffs == PolyQ.const(other).coeffs
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def exact_div(self, other: PolyQ) -> PolyQ:
        """Exact division in Q[q]; the quotient must land back in Z[q]."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        den = other.coeffs
        out = [Fraction(0)] * max(len(rem) - len(den) + 1, 0)
        for i in range(len(out) - 1, -1, -1):
            c = rem[i + len(den) - 1] / den[-1]
            out[i] = c
            if c:
                for j, d in enumerate(den):
                    rem[i + j] -= c * d
        if any(rem):
            raise ValueError("inexact polynomial division")
        if any(c.denominator != 1 for c in out):
            raise ValueError("quotient is not an integer polynomial")
        return PolyQ(int(c) for c in out)

    def eval_at(self, q: int | Fraction) -> int | Fraction:
        """Horner evaluation, exact."""
        acc: int | Fraction = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def to_obj(self) -> dict:
        return {"coeffs": list(self.coeffs)}

    def __repr__(self) -> str:
        if self.is_zero():
            return "PolyQ('0')"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = "" if (abs(c) == 1 and k > 0) else str(abs(c))
            var = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
            sep = "*" if mag and var else ""
            term = f"{mag}{sep}{var}" or str(abs(c))
            terms.append(("-" if c < 0 else ("+" if terms else "")) + term)
        return f"PolyQ('{' '.join(terms)}')"


POLY_Q = PolyQ.monomial(1, 1)
