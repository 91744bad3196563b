"""Arithmetic in GF(q) with q = p^e, plus characters and Gauss sums.

A field element is a length-e coefficient vector over F_p, reduced modulo a
fixed monic irreducible of degree e. The additive character used throughout is
theta(x) = zeta_p^Tr(c*x) for a nonzero twist c; the trace makes theta
non-trivial for every extension degree.

Element enumeration order is base-p counting on the coefficient vector
(coefficient of x^0 is the fastest digit). The distinguished non-square delta
is the first non-square in that order, so it is reproducible from (p, e)
alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import CycInt, epsilon_of, square_and_multiply

MAX_FIELD_ORDER = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """GF(p^e) with a fixed irreducible modulus."""

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = modulus
        self._delta: FieldElem | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, e={self.e}, modulus={list(self.modulus)})"

    # -- elements ------------------------------------------------------

    def elem(self, coeffs) -> FieldElem:
        return FieldElem(self, tuple(c % self.p for c in coeffs))

    def zero(self) -> FieldElem:
        return FieldElem(self, (0,) * self.e)

    def one(self) -> FieldElem:
        return FieldElem(self, (1,) + (0,) * (self.e - 1))

    def from_int(self, n: int) -> FieldElem:
        """The image of the rational integer n (constant polynomial)."""
        return self.elem((n,) + (0,) * (self.e - 1))

    def element_at(self, index: int) -> FieldElem:
        """Element number `index` in base-p counting order."""
        coeffs = []
        for _ in range(self.e):
            coeffs.append(index % self.p)
            index //= self.p
        return FieldElem(self, tuple(coeffs))

    def index_of(self, x: FieldElem) -> int:
        idx = 0
        for c in reversed(x.coeffs):
            idx = idx * self.p + c
        return idx

    def elements(self):
        for i in range(self.q):
            yield self.element_at(i)

    def delta(self) -> FieldElem:
        """The first non-square in enumeration order (odd q only)."""
        if self.q % 2 == 0:
            raise ValueError("quadratic character requires odd characteristic")
        if self._delta is None:
            for x in self.elements():
                if not x.is_zero() and sgn(x) == -1:
                    self._delta = x
                    break
            else:  # pragma: no cover - every odd field has non-squares
                raise RuntimeError("no non-square found")
        return self._delta

    def to_obj(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}


@dataclass(frozen=True)
class FieldElem:
    field: FieldSpec
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: FieldElem) -> FieldElem:
        p = self.field.p
        return FieldElem(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: FieldElem) -> FieldElem:
        p = self.field.p
        return FieldElem(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> FieldElem:
        p = self.field.p
        return FieldElem(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: FieldElem) -> FieldElem:
        f = self.field
        if f.e == 1:
            return FieldElem(f, ((self.coeffs[0] * other.coeffs[0]) % f.p,))
        prod = [0] * (2 * f.e - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] += a * b
        return FieldElem(f, _poly_mod(prod, f.modulus, f.p, f.e))

    def __pow__(self, n: int) -> FieldElem:
        f = self.field
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("inverse of zero")
            n = n % (f.q - 1)  # x^(q-1) = 1 on nonzero elements
        return square_and_multiply(self, n, f.one())

    def inverse(self) -> FieldElem:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.q - 2)

    def __repr__(self) -> str:
        return f"FieldElem{self.coeffs}"


def _poly_mod(prod: list[int], modulus: tuple[int, ...], p: int, e: int) -> tuple[int, ...]:
    # modulus is monic of degree e; reduce top coefficients downward.
    for i in range(len(prod) - 1, e - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(e + 1):
                prod[i - e + j] -= c * modulus[j]
        prod[i] = 0
    return tuple(c % p for c in prod[:e])


def _is_irreducible(candidate: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    e = len(candidate) - 1
    for d in range(1, e // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            if _poly_divides(divisor, candidate, p):
                return False
    return True


def _poly_divides(divisor: tuple[int, ...], poly: tuple[int, ...], p: int) -> bool:
    rem = list(poly)
    d = len(divisor) - 1
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i] % p
        if c:
            for j in range(d + 1):
                rem[i - d + j] = (rem[i - d + j] - c * divisor[j]) % p
    return not any(c % p for c in rem)


@lru_cache(maxsize=None)
def make_field(p: int, e: int = 1) -> FieldSpec:
    """GF(p^e) with a deterministic modulus.

    For e > 1 the modulus is the first monic irreducible of degree e in
    base-p counting order on the non-leading coefficients.
    """
    if not is_prime(p):
        raise ValueError("not a prime")
    if e < 1:
        raise ValueError("extension degree must be >= 1")
    if p**e > MAX_FIELD_ORDER:
        raise ValueError("field too large")
    if e == 1:
        return FieldSpec(p, 1, (0, 1))
    for k in range(p**e):
        tail = []
        kk = k
        for _ in range(e):
            tail.append(kk % p)
            kk //= p
        candidate = tuple(tail) + (1,)
        if _is_irreducible(candidate, p):
            return FieldSpec(p, e, candidate)
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def trace(x: FieldElem) -> int:
    """Tr(x) = sum of x^(p^i), an element of F_p returned as an int."""
    f = x.field
    acc = x
    frob = x
    for _ in range(f.e - 1):
        frob = frob**f.p
        acc = acc + frob
    if any(acc.coeffs[1:]):  # trace always lands in the prime field
        raise AssertionError("trace left the prime field")
    return acc.coeffs[0]


@dataclass(frozen=True)
class CharSpec:
    """Additive character theta(x) = zeta_p^Tr(twist * x), twist != 0."""

    field: FieldSpec
    twist: FieldElem

    def __post_init__(self):
        if self.twist.is_zero():
            raise ValueError("character twist must be nonzero")

    def exponent(self, x: FieldElem) -> int:
        return trace(self.twist * x)

    def value(self, x: FieldElem) -> CycInt:
        return CycInt.root(self.field.p, self.exponent(x))


def default_char(field: FieldSpec) -> CharSpec:
    return CharSpec(field, field.one())


def sgn(x: FieldElem) -> int:
    """Quadratic character with the convention sgn(0) = +1."""
    q = x.field.q
    if q % 2 == 0:
        raise ValueError("quadratic character requires odd characteristic")
    if x.is_zero():
        return 1
    y = x ** ((q - 1) // 2)
    return 1 if y == x.field.one() else -1


def nonsquare_delta(field: FieldSpec) -> FieldElem:
    return field.delta()


def epsilon(q: int) -> int:
    """+1 iff q = 1 mod 4; equals sgn(-1)."""
    return epsilon_of(q)


def gauss_sum(char: CharSpec) -> CycInt:
    """gamma = sum over nonzero a of sgn(a) * conj(theta(a))."""
    f = char.field
    if f.q % 2 == 0:
        raise ValueError("quadratic character requires odd characteristic")
    p = f.p
    vec = [0] * p
    for x in f.elements():
        if x.is_zero():
            continue
        vec[(-char.exponent(x)) % p] += sgn(x)
    return CycInt.reduce(p, vec)
