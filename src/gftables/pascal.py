"""Two-term Pascal-type recursions and their Krawtchouk solutions.

A family of triangular tables f_N(y, x), 0 <= y, x <= N, is pinned down by a
backward recursion

    f_N(y+1, x) = a t^x f_{N-1}(y, x) - b t^(x-1) f_{N-1}(y, x-1)

together with a forward recursion

    f_N(y+1, x) - c f_N(y, x) = -d t^(2N-y-1) f_{N-1}(y, x-1),

all coefficients nonzero, with out-of-range entries read as zero. Setting
y = 0 in both gives the bottom-row recursion

    c O_N(x) = a t^x O_{N-1}(x) + (d t^(2N-1) - b t^(x-1)) O_{N-1}(x-1),

and the pair has a unique solution once sigma = f_0(0, 0) is fixed: binomial
columns when t = 1 and b = d, Krawtchouk times the bottom row when t = 1 and
b != d, and affine q-Krawtchouk times the bottom row when t != 1.

The canonical-matrix families are instances of the pair with
a = b = c = sigma = 1, t = q^tau and d = q^delta, read at size N
(`FAMILY_PASCAL`):

    family   tau   delta                  N            case   labels
    vec      0     1                      n            2      0, 1, .., n
    mat      1     m - n                  n            3      0, 1, .., n
    alt      2     +1 odd n, -1 even n    floor(n/2)   3      0, 2, .., halved

`family_table` runs the pair in Z[q], so the q -> 1 limits come straight
out of the coefficients; `closed_form_phi` evaluates the solution at a
concrete q as `closed_tables` does. The case comes from the family, not from
the values, so q = 1 stays on the family's formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm

from .cyclotomic import POLY_Q, PolyQ
from .qseries import (
    Pair,
    affine_q_krawtchouk_nd,
    as_pair,
    gauss_binom_nd,
    krawtchouk_nd,
    q_krawtchouk_column_nd,
    q_pochhammer,
    q_pochhammer_nd,
)

Table = dict[tuple[int, int], Fraction]


@dataclass(frozen=True)
class PascalParams:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    t: Fraction
    sigma: Fraction
    n_max: int

    def __post_init__(self):
        if 0 in (self.a, self.b, self.c, self.d, self.t):
            raise ValueError("recursion coefficients must be nonzero")

    @property
    def case(self) -> int:
        if self.t == 1:
            return 1 if self.b == self.d else 2
        return 3


def recursion_tables(p: PascalParams) -> list[Table]:
    """f_0 .. f_{n_max}: bottom rows from the y = 0 recursion, the rest from
    the backward recursion."""
    tables: list[Table] = [{(0, 0): Fraction(p.sigma)}]
    for n in range(1, p.n_max + 1):
        prev = tables[-1]
        cur: Table = {}
        for x in range(n + 1):
            v = p.a * Fraction(p.t) ** x * prev.get((0, x), Fraction(0))
            if x >= 1:
                v += (p.d * Fraction(p.t) ** (2 * n - 1) - p.b * Fraction(p.t) ** (x - 1)) * prev.get(
                    (0, x - 1), Fraction(0)
                )
            cur[(0, x)] = v / p.c
        for y in range(n):
            for x in range(n + 1):
                v = p.a * Fraction(p.t) ** x * prev.get((y, x), Fraction(0))
                if x >= 1:
                    v -= p.b * Fraction(p.t) ** (x - 1) * prev.get((y, x - 1), Fraction(0))
                cur[(y + 1, x)] = v
        tables.append(cur)
    return tables


def _pow(p: Pair, e: int) -> Pair:
    """p^e as a pair; a negative power is a power of the swapped pair, so no float enters."""
    return (p[0] ** e, p[1] ** e) if e >= 0 else (p[1] ** -e, p[0] ** -e)


def _prod(*pairs: Pair) -> Pair:
    num = den = 1
    for n, d in pairs:
        num, den = num * n, den * d
    return num, den


def _solution_nd(case: int, N: int, a: Pair, b: Pair, c: Pair, d: Pair, t: Pair, sigma: Pair):
    """f_N of the pair as a function (y, x) -> integer pair, for 0 <= y, x <= N:

        case 1:  sigma a^(N-x) c^(y-N) (-b)^x binom(y, x)
        case 2:  sigma a^(N-x) c^(y-N) (d-b)^x binom(N, x) K_y(x; 1 - b/d, N)
        case 3:  sigma a^(N-x) c^(y-N) (-b)^x t^C(x,2) C_y(x; (d/b) t^N, N, t)

    with C_y the column of `qseries.q_krawtchouk_column`. Every factor but
    the last is built here, once per table.
    """
    (bn, bd), (dn, dd) = b, d
    base = (-bn, bd)
    if case == 1:
        col, weight = lambda y, x: (comb(y, x), 1), lambda x: (1, 1)
    elif case == 2:
        p = (dn * bd - bn * dd, dn * bd)
        base, weight = (p[0], dd * bd), lambda x: (comb(N, x), 1)
        col = lambda y, x: krawtchouk_nd(y, x, p, N)
    else:
        A, weight = _prod((dn * bd, dd * bn), _pow(t, N)), lambda x: _pow(t, comb(x, 2))
        col = lambda y, x: q_krawtchouk_column_nd(y, x, A, N, t)
    rows = [_prod(sigma, _pow(c, y - N)) for y in range(N + 1)]
    cols = [_prod(_pow(a, N - x), _pow(base, x), weight(x)) for x in range(N + 1)]
    return lambda y, x: _prod(rows[y], cols[x], col(y, x))


def closed_tables(p: PascalParams) -> list[Table]:
    """The unique simultaneous solution, by parameter case."""
    pairs = [as_pair(v) for v in (p.a, p.b, p.c, p.d, p.t, p.sigma)]
    out: list[Table] = []
    for n in range(p.n_max + 1):
        f = _solution_nd(p.case, n, *pairs)
        out.append({(y, x): Fraction(*f(y, x)) for y in range(n + 1) for x in range(n + 1)})
    return out


def bpr_fpr_solve(p: PascalParams) -> list[Table]:
    """Recursion-built tables, asserted equal to the closed solution."""
    rec = recursion_tables(p)
    clo = closed_tables(p)
    if rec != clo:
        raise AssertionError(f"recursion and closed solution disagree (case {p.case})")
    return rec


# ---------------------------------------------------------------------------
# the canonical-matrix families


# (tau, delta, N) of each family at (n, m); the module docstring has the table
FAMILY_PASCAL = {
    "vec": lambda n, m: (0, 1, n),
    "mat": lambda n, m: (1, m - n, n),
    "alt": lambda n, m: (2, 1 if n % 2 else -1, n // 2),
}


def _labels(family: str, n: int) -> range:
    return range(0, n + 1, 2) if family == "alt" else range(n + 1)


@dataclass(frozen=True)
class FamilyTable:
    """Canonical matrix of one family with entries in Z[q].

    row_values are the actual label values: weights or ranks, even ranks for
    the alternating family. entries[i][j] is the value at (row_values[i],
    row_values[j]).
    """

    family: str
    n: int
    m: int | None
    row_values: tuple[int, ...]
    entries: tuple[tuple[PolyQ, ...], ...]

    def at_q_int(self, q: int) -> list[list[int]]:
        return [[int(e.eval_at(q)) for e in row] for row in self.entries]


def _chain_step(prev: list[list[tuple[int, PolyQ]]], size: int, tau: int, o_hi: int) -> list[list[tuple[int, PolyQ]]]:
    """One size step of the pair in Z[q], at a = b = c = 1 and t = q^tau:

    bottom row:  O(x) = q^(tau x) O'(x) + (q^o_hi - q^(tau (x-1))) O'(x-1)
    other rows:  f(y+1, x) = q^(tau x) f'(y, x) - q^(tau (x-1)) f'(y, x-1)

    where primes refer to the previous table and o_hi = delta + tau (2k-1)
    at size k. An entry is a pair (z, f) that stands for q^z f: two entries
    are added or subtracted at the smaller of their powers, so the leading
    zeros of the common power q^z are never written out (family_table shifts
    each entry once, at the end).
    """
    zero = (0, PolyQ())

    def prev_at(y: int, x: int) -> tuple[int, PolyQ]:
        if 0 <= y < len(prev) and 0 <= x < len(prev):
            return prev[y][x]
        return zero

    def combine(a: tuple[int, PolyQ], b: tuple[int, PolyQ], sign: int) -> tuple[int, PolyQ]:
        """q^za fa + sign q^zb fb as a pair, from one sum of the two polynomials at the smaller power."""
        (za, fa), (zb, fb) = a, b
        if fb.is_zero():
            return a
        if fa.is_zero():
            return zb, fb if sign > 0 else -fb
        z = min(za, zb)
        fa, fb = fa.shift(za - z), fb.shift(zb - z)
        return z, fa + fb if sign > 0 else fa - fb

    def step(y: int, x: int) -> tuple[int, PolyQ]:
        """q^(tau x) f'(y, x) - q^(tau (x-1)) f'(y, x-1)."""
        (za, fa), (zb, fb) = prev_at(y, x), prev_at(y, x - 1)
        return combine((za + tau * x, fa), (zb + tau * (x - 1), fb), -1)

    bottom = []
    for x in range(size):
        z, f = prev_at(0, x - 1)
        bottom.append(combine(step(0, x), (z + o_hi, f), 1))
    return [bottom] + [[step(y, x) for x in range(size)] for y in range(size - 1)]


def check_n(n: int) -> None:
    """The one check of a size n, for the tables here, the spaces, the sign blocks and the CLI."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")


def family_table(family: str, n: int, m: int | None = None) -> FamilyTable:
    """Symbolic canonical matrix via the size recursions.

    Row 0 of each size comes from the bottom-row recursion, rows y >= 1 from
    the backward recursion; no division ever occurs, so the result being in
    Z[q] is by construction.
    """
    if family in ("sym", "symscaled"):
        raise ValueError(
            "symmetric families have no integer-polynomial recursion; "
            "their entries involve the Gauss sum"
        )
    if family not in FAMILY_PASCAL:
        raise ValueError(f"unknown family {family!r}")
    if family == "mat" and (m is None or m < n):
        raise ValueError("rectangular tables need n <= m")
    check_n(n)
    tau, delta, N = FAMILY_PASCAL[family](n, m)
    grid = [[(0, PolyQ.const(1))]]
    for k in range(1, N + 1):
        grid = _chain_step(grid, k + 1, tau, delta + tau * (2 * k - 1))
    entries = tuple(tuple(f.shift(z) for z, f in row) for row in grid)
    return FamilyTable(family, n, m if family == "mat" else None, tuple(_labels(family, n)), entries)


def alt_column(q: int | Fraction, size: int, y: int, x: int) -> Fraction:
    """The alternating family's column at half-ranks (y, x): C_y(x; A, N, t) at A = q^(delta + tau N), t = q^tau."""
    tau, delta, N = FAMILY_PASCAL["alt"](size, None)
    qp = as_pair(q)
    return Fraction(*q_krawtchouk_column_nd(y, x, _pow(qp, delta + tau * N), N, _pow(qp, tau)))


def _family_phi(family: str, n: int, m: int | None, q: int | Fraction):
    """closed_form_phi at one (family, n, m, q), as a function of (s, r)."""
    qp = as_pair(q)
    if family not in FAMILY_PASCAL:
        raise ValueError(f"no closed form for family {family!r}")
    if family == "mat" and (m is None or m < n):
        raise ValueError("out of range")
    check_n(n)
    tau, delta, N = FAMILY_PASCAL[family](n, m)
    one = (1, 1)
    f = _solution_nd(3 if tau else 2, N, one, one, one, _pow(qp, delta), _pow(qp, tau), one)

    def phi(s: int, r: int) -> Fraction:
        if family == "alt":
            if s % 2 or r % 2:
                raise ValueError("alternating labels are even")
            s, r = s // 2, r // 2
        if not (0 <= s <= N and 0 <= r <= N):
            raise ValueError("out of range")
        return Fraction(*f(s, r))

    return phi


def closed_form_phi(family: str, n: int, m: int | None, s: int, r: int, q: int | Fraction) -> Fraction:
    """Orbit size times the matching (q-)Krawtchouk value; row s = 0 holds the orbit sizes.

    Each is an integer pair until the one `Fraction` it returns."""
    return _family_phi(family, n, m, q)(s, r)


def closed_form_table(family: str, n: int, m: int | None, q: int | Fraction) -> list[list[Fraction]]:
    phi, values = _family_phi(family, n, m, q), _labels(family, n)
    return [[phi(s, r) for r in values] for s in values]


# ---------------------------------------------------------------------------
# q -> 1 limits


def alternating_binomial_matrix(size: int) -> list[list[int]]:
    return [[(-1) ** r * comb(s, r) for r in range(size)] for s in range(size)]


def q1_limit(family: str, n: int, m: int | None = None) -> list[list[int]]:
    """The symbolic table at q = 1; callers assert the binomial pattern."""
    tab = family_table(family, n, m)
    return [[int(e.eval_at(1)) for e in row] for row in tab.entries]


def q1_pattern_holds(family: str, n: int, m: int | None = None) -> bool:
    got = q1_limit(family, n, m)
    return got == alternating_binomial_matrix(len(got))


def involution_squares_to_identity(size: int) -> bool:
    mm = alternating_binomial_matrix(size)
    for i in range(size):
        for j in range(size):
            acc = sum(mm[i][k] * mm[k][j] for k in range(size))
            if acc != (1 if i == j else 0):
                return False
    return True


# ---------------------------------------------------------------------------
# generating functions


def _t_mul(a: list, b: list, zero) -> list:
    """Product of two polynomials in t, as coefficient lists over the ring of zero."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _t_pow(base: list[PolyQ], e: int) -> list[PolyQ]:
    out = [PolyQ.const(1)]
    for _ in range(e):
        out = _t_mul(out, base, PolyQ())
    return out


def genfun_vec_symbolic(n: int, s: int) -> bool:
    """Row generating function: sum_r f(s, r) t^r = (1-t)^s (1+(q-1)t)^(n-s),
    as an identity in Z[q][t]."""
    tab = family_table("vec", n)
    lhs = list(tab.entries[s])
    rhs = _t_mul(_t_pow([PolyQ.const(1), PolyQ.const(-1)], s), _t_pow([PolyQ.const(1), POLY_Q - 1], n - s), PolyQ())
    rhs += [PolyQ()] * (len(lhs) - len(rhs))
    return lhs == rhs[: len(lhs)] and all(e.is_zero() for e in rhs[len(lhs) :])


def _common(pairs: list[Pair]) -> tuple[list[int], int]:
    """Integer pairs as numerators over one common denominator."""
    den = lcm(*(d for _, d in pairs))
    return [n * (den // d) for n, d in pairs], den


def _same(lhs: list[Pair], rhs: list[int], den: int) -> bool:
    """The coefficient list lhs equals rhs / den."""
    return len(lhs) == len(rhs) and all(n * den == r * d for (n, d), r in zip(lhs, rhs))


def _weights(N: int, a: Pair, q: Pair) -> list[Pair]:
    """(a; q)_x [N x]_q for x = 0..N."""
    out = []
    for x in range(N + 1):
        (pn, pd), (gn, gd) = q_pochhammer_nd(a, q, x), gauss_binom_nd(N, x, q)
        out.append((pn * gn, pd * gd))
    return out


def genfun_mat_concrete(n: int, m: int, q: int, s: int) -> bool:
    """Row generating function of the rectangular family at a concrete q:
    sum_r f(s, r) t^r = (t; q)_s sum_u q^(su) f'(0, u) t^u, with f' the (n-s) x (m-s) table."""
    phi, sizes = _family_phi("mat", n, m, q), _family_phi("mat", n - s, m - s, q)
    qn, qd = qp = as_pair(q)
    prefix = [1]  # (t; q)_s as a polynomial in t, over qd^C(s,2)
    for i in range(s):
        prefix = _t_mul(prefix, [qd**i, -(qn**i)], 0)
    tail, den = _common([_prod(as_pair(sizes(0, u)), _pow(qp, s * u)) for u in range(n - s + 1)])
    return _same([as_pair(phi(s, r)) for r in range(n + 1)], _t_mul(prefix, tail, 0), qd ** comb(s, 2) * den)


def genfun_krawtchouk(N: int, p: Fraction) -> bool:
    """sum_y C(N,y) K_y(x) T^y = (1 - (1-p)/p T)^x (1+T)^(N-x) for each x."""
    a, b = pp = as_pair(p)
    for x in range(N + 1):
        lhs = []
        for y in range(N + 1):
            kn, kd = krawtchouk_nd(y, x, pp, N)
            lhs.append((comb(N, y) * kn, kd))
        rhs = [1]  # over a^x: 1 - (1-p)/p T = (a + (a-b) T) / a
        for _ in range(x):
            rhs = _t_mul(rhs, [a, a - b], 0)
        for _ in range(N - x):
            rhs = _t_mul(rhs, [1, 1], 0)
        if not _same(lhs, rhs, a**x):
            return False
    return True


def genfun_affine_krawtchouk(N: int, a: Fraction, q: Fraction) -> bool:
    """sum_y (a;q)_y [N y] K_y(x) T^y = (aT;q)_x sum_u (q^x a;q)_u [N-x u] T^u."""
    ap, qp = as_pair(a), as_pair(q)
    (al, be), (u, v) = ap, qp
    weights = _weights(N, ap, qp)
    for x in range(N + 1):
        lhs = []
        for y, (wn, wd) in enumerate(weights):
            kn, kd = affine_q_krawtchouk_nd(y, x, ap, N, qp)
            lhs.append((wn * kn, wd * kd))
        pref = [1]  # (aT; q)_x, over be^x v^C(x,2)
        for i in range(x):
            pref = _t_mul(pref, [be * v**i, -al * u**i], 0)
        tail, den = _common(_weights(N - x, (al * u**x, be * v**x), qp))
        if not _same(lhs, _t_mul(pref, tail, 0), be**x * v ** comb(x, 2) * den):
            return False
    return True


def _orthogonal(K: list[list[Pair]], weight: list[Pair], norm) -> bool:
    """sum over x of weight[x] K[y][x] K[y2][x] is norm(y) when y == y2, else 0, for every y and y2.

    Every value is an integer pair. Each row of K and the weights go over one
    denominator, so each sum is an integer compared with the norm's pair
    cross-multiplied. The sum is symmetric in y and y2, so y2 > y suffices off the diagonal.
    """
    wn, wd = _common(weight)
    rows = [_common(row) for row in K]
    for y, (ky, dy) in enumerate(rows):
        nn, nd = norm(y)
        if sum(w * a * a for w, a in zip(wn, ky)) * nd != nn * wd * dy * dy:
            return False
        for ky2, _ in rows[y + 1 :]:
            if sum(w * a * b for w, a, b in zip(wn, ky, ky2)):
                return False
    return True


def krawtchouk_orthogonality(N: int, p: Fraction) -> bool:
    a, b = pp = as_pair(p)
    K = [[krawtchouk_nd(y, x, pp, N) for x in range(N + 1)] for y in range(N + 1)]
    weight = [(a**x * (b - a) ** (N - x) * comb(N, x), b**N) for x in range(N + 1)]
    return _orthogonal(K, weight, lambda y: ((b - a) ** y, comb(N, y) * a**y))


def affine_orthogonality(N: int, a: Fraction, q: Fraction) -> bool:
    ap, qp = as_pair(a), as_pair(q)
    al, be = ap
    K = [[affine_q_krawtchouk_nd(y, x, ap, N, qp) for x in range(N + 1)] for y in range(N + 1)]
    weights = _weights(N, ap, qp)
    weight = [(al ** (N - x) * wn, be ** (N - x) * wd) for x, (wn, wd) in enumerate(weights)]
    return _orthogonal(K, weight, lambda y: (al**y * weights[y][1], be**y * weights[y][0]))


# ---------------------------------------------------------------------------
# multi-orthogonality in closed form


def multi_orthogonality_closed(
    family: str, n: int, m: int | None, q: int, parts: tuple[int, ...], r: int
) -> tuple[Fraction, Fraction]:
    """Closed forms of both sides of the k-fold relation; requires sum <= r."""
    if sum(parts) > r:
        raise ValueError("the closed count needs sum of the parts <= r")
    if family not in ("vec", "mat"):
        raise ValueError("closed multi-orthogonality exists for vec and mat only")
    qf = Fraction(q)
    phi = _family_phi(family, n, m, qf)
    lhs = Fraction(0)
    for s in range(n + 1):
        # row 0 of the table holds the orbit sizes, the weights of the sum
        term = phi(0, s) * phi(s, r)
        for ri in parts:
            term *= phi(s, ri)
        lhs += term
    if sum(parts) < r:
        return lhs, Fraction(0)
    if family == "vec":
        count = Fraction(factorial(n), factorial(n - r))
        for ri in parts:
            count /= factorial(ri)
        rhs = count * (qf - 1) ** r * qf**n
    else:
        cross = sum(parts[i] * parts[j] for i in range(len(parts)) for j in range(i + 1, len(parts)))
        rhs = (
            Fraction(-1) ** r
            * qf ** (n * m + comb(r, 2) + cross)
            * q_pochhammer(qf**m, 1 / qf, r)
            * q_pochhammer(qf**n, 1 / qf, r)
        )
        for ri in parts:
            rhs /= q_pochhammer(qf, qf, ri)
    return lhs, rhs
