"""Exact evaluation of Pochhammer symbols, Gaussian binomials, and the two
Krawtchouk families.

All arguments and results are rational; nothing here touches floats. The
Krawtchouk polynomial is the terminating 2F1 sum

    K_y(x; p, N) = sum_k (-y)_k (-x)_k / ((-N)_k k! p^k),

and the affine q-Krawtchouk polynomial is the terminating 3phi2 sum

    K_y(x; a, N; q) = sum_k (q^-y;q)_k (q^-x;q)_k q^k
                              / ((q^-N;q)_k (a;q)_k (q;q)_k).

The Gaussian binomial [N x]_q is evaluated through its integer polynomial in
q, so the same code path gives binom(N, x) at q = 1.

Every closed form with t != 1 is one column of the bilinear-forms scheme
(Delsarte, JCTA 25, 1978): an orbit-size weight times an affine
q-Krawtchouk value,

    C_y(x; A, N, t) = (A; 1/t)_x [N x]_t K_y(x; 1/A, N; t),

which is 0 for x > N (`q_krawtchouk_column`). Each caller multiplies it by
its own prefactor, a sign and a power of q for the families. The parameters:

- mat n x m (`pascal.closed_form_phi`): A = q^m, N = n, t = q, at
  (y, x) = (s, r), times (-1)^x q^C(x,2).
- alt n (`pascal.alt_column`): A = q^(n-1+n%2), N = floor(n/2), t = q^2,
  at the half-ranks (y, x) = (s/2, r/2), times (-1)^x q^(x(x-1)).
- the Pascal solution with t != 1 (`pascal.closed_tables`): A = (d/b) t^n,
  N = n, times sigma a^(n-x) (-b)^x c^(y-n) t^C(x,2).
- the sign blocks psi1..psi4 of sym n (`symmetric`): the alt column at size
  n - c for c = 1, 0, 2, 1, at y = floor((s-c)/2) and x = floor(r/2) for
  psi1, psi2 or floor((r-1)/2) for psi3, psi4. That is N = cap =
  floor((n-c)/2), t = q^2, and A = q^(2 cap + (-1)^n) for psi1 and psi4,
  A = q^(2 cap - (-1)^n) for psi2 and psi3.

The vec family is the t = 1 limit: (q-1)^x binom(n, x) K_y(x; (q-1)/q, n).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .cyclotomic import PolyQ

RationalLike = int | Fraction


def pochhammer(a: RationalLike, k: int) -> Fraction:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if k < 0:
        raise ValueError("negative length")
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def q_pochhammer(a: RationalLike, q: RationalLike, k: int) -> Fraction:
    """(a; q)_k = (1-a)(1-aq)...(1-aq^(k-1)), with (a; q)_0 = 1."""
    if k < 0:
        raise ValueError("negative length")
    out = Fraction(1)
    term = Fraction(a)
    for _ in range(k):
        out *= 1 - term
        term *= q
    return out


@lru_cache(maxsize=None)
def gauss_binom_poly(n: int, x: int) -> PolyQ:
    """[n x]_q as an integer polynomial, via the q-Pascal recursion."""
    if x < 0 or x > n:
        raise ValueError("out of range")
    if x == 0 or x == n:
        return PolyQ.const(1)
    return gauss_binom_poly(n - 1, x - 1) + PolyQ.monomial(1, x) * gauss_binom_poly(n - 1, x)


def gauss_binom(n: int, x: int, q: RationalLike) -> Fraction:
    """The Gaussian binomial [n x]_q; equals binom(n, x) at q = 1."""
    return Fraction(gauss_binom_poly(n, x).eval_at(Fraction(q)))


def krawtchouk(y: int, x: int, p: RationalLike, N: int) -> Fraction:
    """K_y(x; p, N), exact; x may be any integer."""
    if not 0 <= y <= N:
        raise ValueError("out of range")
    p = Fraction(p)
    if p == 0:
        raise ValueError("parameter p must be nonzero")
    total = Fraction(0)
    term = Fraction(1)  # running product of the k-th summand
    for k in range(y + 1):
        total += term
        if k == y:
            break
        # extend (-y)_k (-x)_k / ((-N)_k (k+1)! p^(k+1)) by one factor
        term *= Fraction((-y + k) * (-x + k), (-N + k) * (k + 1)) / p
        if term == 0:
            break  # a vanished factor kills every later summand
    return total


def affine_q_krawtchouk(y: int, x: int, a: RationalLike, N: int, q: RationalLike) -> Fraction:
    """Affine q-Krawtchouk value, exact.

    The sum is truncated at min(x, y) because (q^-x; q)_k vanishes for
    k > x, which keeps x > y legal without touching vanishing denominators.
    """
    if not 0 <= y <= N:
        raise ValueError("out of range")
    a = Fraction(a)
    q = Fraction(q)
    if q == 0:
        raise ValueError("parameter q must be nonzero")
    kmax = min(x, y) if x >= 0 else y
    total = Fraction(0)
    term = Fraction(1)
    qinv = 1 / q
    for k in range(kmax + 1):
        total += term
        if k == kmax:
            break
        num = (1 - qinv**y * q**k) * (1 - qinv**x * q**k) * q
        den = (1 - qinv**N * q**k) * (1 - a * q**k) * (1 - q ** (k + 1))
        if den == 0:
            raise ValueError("parameter pole")
        term *= num / den
    return total


def q_krawtchouk_column(y: int, x: int, A: RationalLike, N: int, t: RationalLike) -> Fraction:
    """(A; 1/t)_x [N x]_t K_y(x; 1/A, N; t), exact; 0 when x > N."""
    if x > N:
        return Fraction(0)
    return _column_weight(x, A, N, t) * affine_q_krawtchouk(y, x, 1 / Fraction(A), N, t)


@lru_cache(maxsize=None)
def _column_weight(x: int, A: RationalLike, N: int, t: RationalLike) -> Fraction:
    """(A; 1/t)_x [N x]_t, the factor of q_krawtchouk_column that does not depend on y: once per column."""
    return q_pochhammer(A, 1 / Fraction(t), x) * gauss_binom(N, x, t)


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k)
