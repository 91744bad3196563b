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

which is 0 for x > N (`q_krawtchouk_column`). Its callers read it at
A = (d/b) t^N of the Pascal pair (`pascal`), times their own prefactor.

Evaluation. The `*_nd` functions carry each value as an integer pair
(numerator, denominator), and each public function builds one `Fraction`
from its pair. With p = a/b and q = u/v, every factor of a term
ratio is an integer over an integer, so a sum with term ratios r_k/d_k is
evaluated backwards, Horner fashion:

    1 + r_0/d_0 (1 + r_1/d_1 (1 + ...)) = n_0 / D_0,
    n_k = d_k D_(k+1) + r_k n_(k+1),  D_k = d_k D_(k+1),

with no gcd until the end. The powers of u and v are running products.
The `pascal` identity checks read the pairs and compare integers after
clearing denominators. The former route, one `Fraction` per operation, is
kept in `tests/helpers.py` as the independent reference the tests compare
against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .cyclotomic import PolyQ

RationalLike = int | Fraction
Pair = tuple[int, int]  # (numerator, denominator), the denominator nonzero and of either sign


def as_pair(r: RationalLike) -> Pair:
    """r as (numerator, denominator), without building a Fraction for an int or a Fraction."""
    if not isinstance(r, (int, Fraction)):
        r = Fraction(r)
    return r.numerator, r.denominator


def pochhammer(a: RationalLike, k: int) -> Fraction:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1."""
    if k < 0:
        raise ValueError("negative length")
    out = Fraction(1)
    for i in range(k):
        out *= a + i
    return out


def q_pochhammer_nd(a: Pair, q: Pair, k: int) -> Pair:
    """(a; q)_k as a pair: with a = al/be and q = u/v, factor i is (be v^i - al u^i) / (be v^i)."""
    if k < 0:
        raise ValueError("negative length")
    (al, be), (u, v) = a, q
    num = den = 1
    ui = vi = 1
    for _ in range(k):
        num *= be * vi - al * ui
        den *= be * vi
        ui, vi = ui * u, vi * v
    return num, den


def q_pochhammer(a: RationalLike, q: RationalLike, k: int) -> Fraction:
    """(a; q)_k = (1-a)(1-aq)...(1-aq^(k-1)), with (a; q)_0 = 1."""
    return Fraction(*q_pochhammer_nd(as_pair(a), as_pair(q), k))


@lru_cache(maxsize=None)
def gauss_binom_poly(n: int, x: int) -> PolyQ:
    """[n x]_q as an integer polynomial, via the q-Pascal recursion."""
    if x < 0 or x > n:
        raise ValueError("out of range")
    if x == 0 or x == n:
        return PolyQ._of((1,))
    return gauss_binom_poly(n - 1, x - 1) + gauss_binom_poly(n - 1, x).shift(x)


def gauss_binom_nd(n: int, x: int, q: Pair) -> Pair:
    """[n x]_q as a pair: sum_j c_j u^j v^(d-j) over v^d for q = u/v, by homogeneous Horner."""
    u, v = q
    num, vj = 0, 1
    for c in reversed(gauss_binom_poly(n, x).coeffs):
        num, vj = num * u + c * vj, vj * v
    return num, vj // v


def gauss_binom(n: int, x: int, q: RationalLike) -> Fraction:
    """The Gaussian binomial [n x]_q; equals binom(n, x) at q = 1."""
    return Fraction(*gauss_binom_nd(n, x, as_pair(q)))


def krawtchouk_nd(y: int, x: int, p: Pair, N: int) -> Pair:
    """K_y(x; p, N) as a pair. With p = a/b the term ratio is (k-y)(k-x) b / ((k-N)(k+1) a); the sum stops at
    k = min(x, y) for x >= 0, where (-x)_k vanishes."""
    if not 0 <= y <= N:
        raise ValueError("out of range")
    a, b = p
    if a == 0:
        raise ValueError("parameter p must be nonzero")
    num = den = 1
    for k in range((min(x, y) if x >= 0 else y) - 1, -1, -1):
        dk = (k - N) * (k + 1) * a
        num, den = dk * den + (k - y) * (k - x) * b * num, dk * den
    return num, den


def krawtchouk(y: int, x: int, p: RationalLike, N: int) -> Fraction:
    """K_y(x; p, N), exact; x may be any integer."""
    return Fraction(*krawtchouk_nd(y, x, as_pair(p), N))


def affine_q_krawtchouk_nd(y: int, x: int, a: Pair, N: int, q: Pair) -> Pair:
    """The affine q-Krawtchouk value as a pair.

    With a = al/be and q = u/v, and k < kmax <= y <= N, the term ratio
    (1 - q^(k-y)) (1 - q^(k-x)) q / ((1 - q^(k-N)) (1 - a q^k) (1 - q^(k+1))) is

        (u^(y-k) - v^(y-k)) X_n be u^(N-y+1) v^(2k)
        / ((u^(N-k) - v^(N-k)) (be v^k - al u^k) (v^(k+1) - u^(k+1)) X_d),

    where X_n / X_d = 1 - q^(k-x) is (u^(x-k) - v^(x-k)) / u^(x-k) for x >= 0
    and (v^(k-x) - u^(k-x)) / v^(k-x) for x < 0. The sum is truncated at
    kmax = min(x, y) because (q^-x; q)_k vanishes for k > x, which keeps
    x > y legal without touching vanishing denominators.
    """
    if not 0 <= y <= N:
        raise ValueError("out of range")
    (al, be), (u, v) = a, q
    if u == 0:
        raise ValueError("parameter q must be nonzero")
    kmax = min(x, y) if x >= 0 else y
    pu, pv = [1], [1]  # u^k, v^k for k <= kmax
    for _ in range(kmax):
        pu.append(pu[-1] * u)
        pv.append(pv[-1] * v)
    # the powers whose exponent grows as k falls, at k = kmax
    uy, vy, uN, vN = u ** (y - kmax), v ** (y - kmax), u ** (N - kmax), v ** (N - kmax)
    ux, vx = (u ** (x - kmax), v ** (x - kmax)) if x >= 0 else (u**-x, v**-x)
    lead = be * u ** (N - y + 1)
    num = den = 1
    for k in range(kmax - 1, -1, -1):
        uy, vy, uN, vN = uy * u, vy * v, uN * u, vN * v
        if x >= 0:
            ux, vx = ux * u, vx * v
            xn, xd = ux - vx, ux
        else:
            xd = vx * pv[k]
            xn = xd - ux * pu[k]
        dk = (uN - vN) * (be * pv[k] - al * pu[k]) * (pv[k + 1] - pu[k + 1]) * xd
        if dk == 0:
            raise ValueError("parameter pole")
        num, den = dk * den + (uy - vy) * xn * lead * pv[k] * pv[k] * num, dk * den
    return num, den


def affine_q_krawtchouk(y: int, x: int, a: RationalLike, N: int, q: RationalLike) -> Fraction:
    """Affine q-Krawtchouk value K_y(x; a, N; q), exact; x > y is legal (see `affine_q_krawtchouk_nd`)."""
    return Fraction(*affine_q_krawtchouk_nd(y, x, as_pair(a), N, as_pair(q)))


def q_krawtchouk_column_nd(y: int, x: int, A: Pair, N: int, t: Pair) -> Pair:
    """(A; 1/t)_x [N x]_t K_y(x; 1/A, N; t) as a pair; (0, 1) when x > N."""
    if x > N:
        return 0, 1
    if t[0] == 0:
        raise ZeroDivisionError("t must be nonzero")
    wn, wd = _column_weight(x, A, N, t)
    if A[0] == 0:
        raise ZeroDivisionError("A must be nonzero")
    kn, kd = affine_q_krawtchouk_nd(y, x, (A[1], A[0]), N, t)
    return wn * kn, wd * kd


def q_krawtchouk_column(y: int, x: int, A: RationalLike, N: int, t: RationalLike) -> Fraction:
    """(A; 1/t)_x [N x]_t K_y(x; 1/A, N; t), exact; 0 when x > N."""
    return Fraction(*q_krawtchouk_column_nd(y, x, as_pair(A), N, as_pair(t)))


@lru_cache(maxsize=None)
def _column_weight(x: int, A: Pair, N: int, t: Pair) -> Pair:
    """(A; 1/t)_x [N x]_t, the factor of the column that does not depend on y: once per column.

    At integer A and t both factors have integer numerators, and the only
    denominator is t^C(x,2)."""
    pn, pd = q_pochhammer_nd(A, (t[1], t[0]), x)
    gn, gd = gauss_binom_nd(N, x, t)
    return pn * gn, pd * gd


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return comb(n, k)
