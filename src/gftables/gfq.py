"""Arithmetic in GF(q) with q = p^e on integer codes, plus characters and Gauss sums.

An element of GF(q) is its code: the integer whose base-p digits, lowest
first, are its coefficients over F_p modulo a fixed monic irreducible of
degree e. So element number i in base-p counting order is the code i, and 0
and 1 are the zero and the one. The additive character is theta(x) =
zeta_p^Tr(c*x) for a nonzero twist c; the trace makes theta non-trivial for
every extension degree. The non-square delta is the first non-square code.

arith(field), one per FieldSpec (two moduli of one q are two fields), holds
the arithmetic. add, sub, neg, mul, inv, sgn and trace take and return Python
ints. For the numpy kernels, vadd, vsub, vneg and vmul take arrays, vreduce
takes their results to codes, and inv_table, sgn_table (sgn(0) = +1) and
trace_table(c) are read-only arrays over all codes.
- F_p: the scalars work mod p with no table. The array ops return unreduced
  ints, so a chain of products is reduced once, by vreduce.
- GF(p^e), e > 1: add, sub and neg work digitwise mod p, on ints and arrays
  alike. mul, inv and sgn read the log and antilog tables of a primitive
  element g (Lidl & Niederreiter, *Finite Fields*, ch. 9), as lists for the
  scalars. Every result is a code, and vreduce is the identity.
The log tables of size q are built on first use from the powers of g by
doubling; finding g and the doubling are the only polynomial products
(_mulmod). No table is q x q or built at import or by make_field. Callers
vreduce a computed array before they compare it with zero.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cyclotomic import CycInt, epsilon_of

MAX_FIELD_ORDER = 1 << 20
_BLOCK = 1 << 19  # powers per step of the table doubling, which bounds its temporaries


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^e) with a fixed irreducible modulus; its elements are the codes 0..q-1."""

    p: int
    e: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.e

    def element_at(self, index: int) -> int:
        """Element number `index` in base-p counting order, which is the code `index`."""
        return index

    def digits(self, x: int) -> list[int]:
        """The base-p digits of code x, lowest first: its coefficients over F_p."""
        return [x // self.p**i % self.p for i in range(self.e)]

    def delta(self) -> int:
        """The first non-square code (odd q only); half of the nonzero codes are non-squares."""
        return next(x for x in range(1, self.q) if arith(self).sgn(x) < 0)

    def to_obj(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}


def _poly_mod(prod: list[int], modulus: tuple[int, ...], p: int, e: int) -> tuple[int, ...]:
    # modulus is monic of degree e; reduce top coefficients downward.
    for i in range(len(prod) - 1, e - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(e + 1):
                prod[i - e + j] -= c * modulus[j]
        prod[i] = 0
    return tuple(c % p for c in prod[:e])


def _mulmod(field: FieldSpec, a: int, b: int) -> int:
    """The code of a b, from the product of their polynomials modulo the modulus.

    Only the table builder calls it: the search for g and the doubling in Arith._log_exp.
    """
    prod = [0] * (2 * field.e - 1)
    for (i, x), (j, y) in itertools.product(enumerate(field.digits(a)), enumerate(field.digits(b))):
        prod[i + j] += x * y
    return sum(c * field.p**i for i, c in enumerate(_poly_mod(prod, field.modulus, field.p, field.e)))


def _powmod(field: FieldSpec, a: int, n: int) -> int:
    out = 1
    for bit in bin(n)[2:]:  # square and multiply, top bit first
        out = _mulmod(field, out, out)
        if bit == "1":
            out = _mulmod(field, out, a)
    return out


def _is_irreducible(candidate: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2: no remainder may be zero."""
    divisors = (tail + (1,) for d in range(1, (len(candidate) - 1) // 2 + 1) for tail in itertools.product(range(p), repeat=d))
    return all(any(_poly_mod(list(candidate), divisor, p, len(divisor) - 1)) for divisor in divisors)


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
        candidate = tuple(k // p**i % p for i in range(e)) + (1,)
        if _is_irreducible(candidate, p):
            return FieldSpec(p, e, candidate)
    raise RuntimeError("no irreducible polynomial found")  # pragma: no cover


def field_for(q: int) -> FieldSpec:
    """GF(q); the one parser of field orders, for the command line and the verification grid."""
    if q > MAX_FIELD_ORDER:
        raise ValueError("field too large")
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    e = 1
    while p is not None and p**e < q:
        e += 1
    if p is None or p**e != q:
        raise ValueError(f"q={q} is not a prime power")
    return make_field(p, e)


def _frozen(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False  # shared by every caller through the memo
    return table


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _mod(x, p: int):
    """x mod p for an int or an array; numpy floor-divides by a scalar far faster than np.remainder runs."""
    return x - x // p * p


def _outer_sum(tables: list[np.ndarray], p: int) -> np.ndarray:
    """t[i] = sum over k of tables[k][digit k of i] mod p, digit 0 fastest; every table entry is below p.

    In the narrowest unsigned type that holds 2 (p - 1): numpy divides narrow ints many times faster than int64.
    """
    dtype = np.min_scalar_type(2 * p - 2)
    t = np.zeros(1, dtype=dtype)
    for tab in tables:
        t = _mod(np.add.outer(tab.astype(dtype), t).ravel(), p)
    return t


class Arith:
    """GF(p^e) arithmetic on codes for e > 1; PrimeArith overrides it for F_p (module docstring)."""

    def __init__(self, field: FieldSpec):
        self.field, self.p, self.q = field, field.p, field.q
        self._weights = [self.p**i for i in range(field.e)]  # place value of each base-p digit

    def _digitwise(self, op, a, b):
        out = 0
        for w in self._weights:  # digit i of a code x is x // w mod p; higher digits vanish mod p
            out = out + _mod(op(a // w, b // w), self.p) * w
        return out

    def add(self, a, b):
        return self._digitwise(operator.add, a, b)

    def sub(self, a, b):
        return self._digitwise(operator.sub, a, b)

    def neg(self, a):
        return self._digitwise(operator.sub, 0, a)

    vadd, vsub, vneg = add, sub, neg  # the digitwise ops take arrays as they take ints

    def mul(self, a, b):
        log, exp = self._lists
        return exp[(log[a] + log[b]) % (self.q - 1)] if a and b else 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        log, exp = self._lists
        return exp[-log[a] % (self.q - 1)]

    def sgn(self, a):
        """The quadratic character of code a, with sgn(0) = +1 (odd q only)."""
        return int(self.sgn_table[a])

    def trace(self, a):
        """Tr(a) = a + a^p + ... + a^(p^(e-1)), a code below p."""
        if not a:
            return 0
        log, exp = self._lists
        t = 0
        for w in self._weights:  # a^(p^i) = g^(p^i log a)
            t = self.add(t, exp[log[a] * w % (self.q - 1)])
        return t

    def vmul(self, a, b):
        log = self._log_exp[0]
        return self._mul_exp[log[a] + log[b]]

    def vreduce(self, x):
        return x

    @cached_property
    def _log_exp(self) -> tuple[np.ndarray, np.ndarray]:
        """log[x] and exp[k] = g^k (k < q - 1) for the first primitive g in counting order.

        log[0] = 2 (q - 1): even, and beyond every sum of two logs of nonzero codes.
        """
        f, p, q = self.field, self.p, self.q
        factors = _prime_factors(q - 1)
        g = next(x for x in range(1, q) if all(_powmod(f, x, (q - 1) // r) != 1 for r in factors))
        weights = np.array(self._weights, dtype=np.int64)
        exp = np.ones(q - 1, dtype=np.int64)
        gn, n, block = g, 1, max(1, _BLOCK // f.e)
        while n < q - 1:  # exp[n:2n] = exp[:n] * g^n, by the matrix of x -> x g^n on the digits
            A = np.array([f.digits(_mulmod(f, gn, w)) for w in self._weights], dtype=np.int64)
            m = min(n, q - 1 - n)
            for s in range(0, m, block):
                x = exp[s : min(s + block, m)]
                exp[n + s : n + s + len(x)] = _mod(_mod(x[:, None] // weights, p) @ A, p) @ weights
            gn, n = _mulmod(f, gn, gn), 2 * n
        log = np.empty(q, dtype=np.int32)
        log[0] = 2 * (q - 1)
        log[exp] = np.arange(q - 1)
        return _frozen(log), _frozen(exp.astype(np.int32))

    @cached_property
    def _lists(self) -> tuple[list[int], list[int]]:
        """The log and exp tables as lists, for the scalar ops."""
        log, exp = self._log_exp
        return log.tolist(), exp.tolist()

    @cached_property
    def _mul_exp(self) -> np.ndarray:
        """exp twice, then zeros: the product of codes a and b is _mul_exp[log a + log b]."""
        exp = self._log_exp[1]
        return _frozen(np.concatenate([exp, exp, np.zeros(2 * self.q - 1, dtype=exp.dtype)]))

    @cached_property
    def inv_table(self) -> np.ndarray:
        """1 / x for every code x, with inv_table[0] = 0."""
        log, exp = self._log_exp
        inv = np.zeros(self.q, dtype=np.int32)
        inv[1:] = exp[(self.q - 1 - log[1:]) % (self.q - 1)]
        return _frozen(inv)

    @cached_property
    def sgn_table(self) -> np.ndarray:
        """The quadratic character of every code: +1 on squares (and 0), -1 elsewhere."""
        if self.q % 2 == 0:
            raise ValueError("quadratic character requires odd characteristic")
        return _frozen(1 - 2 * (self._log_exp[0] & 1).astype(np.int8))  # log[0] is even

    @lru_cache(maxsize=None)  # every orbit_counts call asks again for the same few c
    def trace_table(self, c: int) -> np.ndarray:
        """Tr(c x) in F_p for every code x, from the traces of c times the basis x^i; read-only int64, so callers may sum many."""
        digit = np.arange(self.p, dtype=np.int64)
        tables = [_mod(digit * self.trace(self.mul(c, w)), self.p) for w in self._weights]
        return _frozen(_outer_sum(tables, self.p).astype(np.int64))


class PrimeArith(Arith):
    """F_p on codes 0..p-1: scalar ops mod p; array ops with delayed reduction, so only vreduce takes a value mod p."""

    # the bare operators, not methods: numpy may then reuse a temporary operand's buffer
    vadd, vsub, vneg, vmul = map(staticmethod, (operator.add, operator.sub, operator.neg, operator.mul))

    def vreduce(self, x):
        return _mod(x, self.p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def sgn(self, a):
        if self.p == 2:
            raise ValueError("quadratic character requires odd characteristic")
        return -1 if pow(a, (self.p - 1) // 2, self.p) == self.p - 1 else 1  # Euler's criterion

    def trace(self, a):
        return a


@lru_cache(maxsize=None)
def arith(field: FieldSpec) -> Arith:
    """The shared arithmetic object of a field."""
    return (PrimeArith if field.e == 1 else Arith)(field)


@dataclass(frozen=True)
class CharSpec:
    """Additive character theta(x) = zeta_p^Tr(twist * x), for a nonzero code twist."""

    field: FieldSpec
    twist: int

    def __post_init__(self):
        if not 1 <= self.twist < self.field.q:
            raise ValueError("twist must index a nonzero field element")

    def exponent(self, x: int) -> int:
        F = arith(self.field)
        return F.trace(F.mul(self.twist, x))

    def value(self, x: int) -> CycInt:
        return CycInt.root(self.field.p, self.exponent(x))


def default_char(field: FieldSpec) -> CharSpec:
    return CharSpec(field, 1)


def nonsquare_delta(field: FieldSpec) -> int:
    return field.delta()


def epsilon(q: int) -> int:
    """+1 iff q = 1 mod 4; equals sgn(-1)."""
    return epsilon_of(q)


def gauss_sum(char: CharSpec) -> CycInt:
    """gamma = sum over nonzero a of sgn(a) * conj(theta(a))."""
    f, F = char.field, arith(char.field)
    vec = [0] * f.p
    for x in range(1, f.q):
        vec[-char.exponent(x) % f.p] += F.sgn(x)
    return CycInt.reduce(f.p, vec)
