"""Shared test helpers."""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from gftables import bulk
from gftables.cyclotomic import CycInt, QuadraticGamma, decompose_gamma, square_and_multiply
from gftables.gfq import CharSpec, FieldSpec, default_char, gauss_sum
from gftables.pascal import PascalParams, Table
from gftables.spaces import OrbitLabel, SymScaled, make_space
from gftables.symmetric import _aggregate, _by_rank
from gftables.transform import DEFAULT_BUDGET, CanonicalMatrix, brute_force_phi

F = Fraction


def draw_params(rng: random.Random, case: int, n_max: int = 4) -> PascalParams:
    """A random nonzero coefficient set landing in the requested solver case.

    Case 3 draws are rejected while the affine parameter b/d t^-N sits on a
    pole of the terminating series.
    """
    while True:
        vals = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(5)]
        a, b, c, d, t = vals
        if 0 in (a, b, c, d):
            continue
        if case == 1:
            t, d = F(1), b
        elif case == 2:
            t = F(1)
            if b == d:
                continue
        else:
            if t in (0, 1, -1):
                continue
            if any((b / d) * t ** (j - n_max) == 1 for j in range(2 * n_max + 1)):
                continue
        sigma = F(rng.randint(-3, 3), rng.randint(1, 3))
        if sigma == 0:
            continue
        return PascalParams(a, b, c, d, t, sigma, n_max)


@dataclass(frozen=True)
class FieldElem:
    """An element of GF(p^e) as its coefficients over F_p, lowest first, with polynomial arithmetic modulo the field's modulus.

    The independent reference of the library's arithmetic on codes: it reads no table and no code but its own.
    """

    field: FieldSpec
    coeffs: tuple[int, ...]

    @classmethod
    def of(cls, field: FieldSpec, code: int) -> "FieldElem":
        """Element number `code` in base-p counting order."""
        coeffs = []
        for _ in range(field.e):
            coeffs.append(code % field.p)
            code //= field.p
        return cls(field, tuple(coeffs))

    @property
    def code(self) -> int:
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * self.field.p + c
        return idx

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other):
        return FieldElem(self.field, tuple((a + b) % self.field.p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return FieldElem(self.field, tuple((a - b) % self.field.p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return FieldElem(self.field, tuple(-a % self.field.p for a in self.coeffs))

    def __mul__(self, other):
        f = self.field
        prod = [0] * (2 * f.e - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        for i in range(len(prod) - 1, f.e - 1, -1):  # x^e = -(modulus below x^e), from the top down
            c, prod[i] = prod[i], 0
            for j in range(f.e):
                prod[i - f.e + j] -= c * f.modulus[j]
        return FieldElem(f, tuple(c % f.p for c in prod[: f.e]))

    def __pow__(self, n: int):
        return square_and_multiply(self, n, FieldElem.of(self.field, 1))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.q - 2)

    def trace(self) -> int:
        """Tr(x) = sum of x^(p^i), an element of F_p returned as an int."""
        acc, frob = self, self
        for _ in range(self.field.e - 1):
            frob = frob**self.field.p
            acc = acc + frob
        assert not any(acc.coeffs[1:]), "trace left the prime field"
        return acc.coeffs[0]

    def sgn(self) -> int:
        """The quadratic character, with sgn(0) = +1."""
        return 1 if self.is_zero() or self ** ((self.field.q - 1) // 2) == FieldElem.of(self.field, 1) else -1


def power(F, x: int, n: int) -> int:
    """x^n by n scalar products of the arithmetic F."""
    out = 1
    for _ in range(n):
        out = F.mul(out, x)
    return out


def fiber_elements(d, b):
    """Every upper element of the diagram d over b, in counting order on the fiber positions."""
    field = d.upper.field
    base = [0] * d.upper.dim
    for k, pos in enumerate(d.embed):
        base[pos] = b[k]
    for idx in range(field.q ** len(d.fiber_positions)):
        a, rest = base[:], idx
        for pos in d.fiber_positions:
            a[pos] = rest % field.q
            rest //= field.q
        yield tuple(a)


def _conj_zeta(d, char, a) -> int:
    return (-char.exponent(d.upper.pair(d.e, a))) % d.upper.field.p


def pushforward_reference(d, char):
    """transform.pushforward_matrix element by element: classify each fiber element."""
    p = d.upper.field.p
    upper_index = {lbl: i for i, lbl in enumerate(d.upper.labels())}
    out = []
    for w in d.lower.labels():
        vecs = [[0] * p for _ in upper_index]
        for a in fiber_elements(d, d.lower.representative(w)):
            vecs[upper_index[d.upper.classify(a)]][_conj_zeta(d, char, a)] += 1
        out.append([CycInt.reduce(p, v) for v in vecs])
    return out


def sym_fiber_sums_reference(d, char, reps):
    """The chi and sgn fiber sums over each representative of reps, element by element, by rank_and_sign."""
    p = d.upper.field.p
    out = {}
    for key, rep in reps.items():
        sums = {}
        for a in fiber_elements(d, rep):
            rank, sign = d.upper.rank_and_sign(a)
            t = _conj_zeta(d, char, a)
            sums.setdefault(("chi", rank), [0] * p)[t] += 1
            if rank:
                sums.setdefault(("sgn", rank), [0] * p)[t] += sign
        for fk, vec in sums.items():
            out.setdefault(fk, {})[key] = CycInt.reduce(p, vec)
    for fk in out:
        for key in reps:
            out[fk].setdefault(key, CycInt.zero(p))
    return out


def fold_reference(space, coefvecs):
    """bulk.orbit_counts by one bincount over (label, t) per functional alone, on the whole space at once."""
    F = bulk.arith(space.field)
    digits = bulk._digits(0, space.size, space.dim, F.q)
    labels = bulk.row_labels(space, digits).astype(np.int64)
    nlab = len(space.labels())
    hists = []
    for coef in coefvecs:
        t = np.zeros(space.size, dtype=np.int64)
        for k, c in enumerate(coef):
            t = (t + F.trace_table(c)[digits[:, k]]) % F.p
        hists.append(np.bincount(labels * F.p + t, minlength=nlab * F.p).reshape(nlab, F.p))
    return hists, hists[0].sum(axis=1)


def scalar_classes_of(field):
    """(S, N): the t of F_p^* that are squares of GF(q), by the field's own quadratic character, and the others."""
    F = bulk.arith(field)
    square = [field.q % 2 == 0 or F.sgn(t) > 0 for t in range(1, field.p)]
    return [t for t, sq in enumerate(square, 1) if sq], [t for t, sq in enumerate(square, 1) if not sq]


def class_counts(field, hists) -> list[list[list[int]]]:
    """Per-t histograms, one (labels, p) array or nested list per functional, as bulk.orbit_counts gives them: the
    columns t = 0, t = 1 and the first t of N, or a zero column where N is empty. Asserts first that each histogram is
    constant on S and on N (scalar_classes_of), which is what lets orbit_counts keep only these three."""
    S, N = scalar_classes_of(field)
    out = []
    for h in hists:
        h = np.asarray(h)
        for cls in (S, N):
            assert (h[:, cls] == h[:, cls[:1]]).all(), "a histogram is not constant on a class of F_p^*"
        out.append(np.stack([h[:, 0], h[:, S[0]], h[:, N[0]] if N else np.zeros_like(h[:, 0])], axis=1).tolist())
    return out


# ---------------------------------------------------------------------------
# The Fraction route of qseries and pascal, one Fraction per operation: the
# independent reference for the integer-pair evaluation in the library.


@lru_cache(maxsize=None)
def gauss_binom(n: int, x: int, q: Fraction) -> Fraction:
    """[n x]_q by the q-Pascal recursion evaluated at q; binom(n, x) at q = 1."""
    if x < 0 or x > n:
        raise ValueError("out of range")
    if x == 0 or x == n:
        return Fraction(1)
    return gauss_binom(n - 1, x - 1, q) + q**x * gauss_binom(n - 1, x, q)


def q_pochhammer(a, q, k: int) -> Fraction:
    """(a; q)_k = (1-a)(1-aq)...(1-aq^(k-1)), with (a; q)_0 = 1."""
    if k < 0:
        raise ValueError("negative length")
    out = Fraction(1)
    term = Fraction(a)
    for _ in range(k):
        out *= 1 - term
        term *= q
    return out


def krawtchouk(y: int, x: int, p, N: int) -> Fraction:
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


def affine_q_krawtchouk(y: int, x: int, a, N: int, q) -> Fraction:
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


def q_krawtchouk_column(y: int, x: int, A, N: int, t) -> Fraction:
    """(A; 1/t)_x [N x]_t K_y(x; 1/A, N; t), exact; 0 when x > N."""
    if x > N:
        return Fraction(0)
    return _column_weight(x, A, N, t) * affine_q_krawtchouk(y, x, 1 / Fraction(A), N, t)


def _column_weight(x: int, A, N: int, t) -> Fraction:
    """(A; 1/t)_x [N x]_t, the factor of q_krawtchouk_column that does not depend on y."""
    return q_pochhammer(A, 1 / Fraction(t), x) * gauss_binom(N, x, Fraction(t))


def _orthogonal(K: list[list[Fraction]], weight: list[Fraction], norm) -> bool:
    """sum over x of weight[x] K[y][x] K[y2][x] is norm(y) when y == y2, else 0, for every y and y2."""
    for y, Ky in enumerate(K):
        for y2, Ky2 in enumerate(K):
            acc = sum(w * a * b for w, a, b in zip(weight, Ky, Ky2))
            if acc != (norm(y) if y == y2 else Fraction(0)):
                return False
    return True


# ---------------------------------------------------------------------------
# Identity checks that only the tests run: the forward and bottom-row
# recursions of the Pascal pair, and two relations of the sym sign blocks.


def forward_recursion_holds(p: PascalParams, tables: list[Table]) -> bool:
    for n in range(1, p.n_max + 1):
        for y in range(n):
            for x in range(n + 1):
                lhs = tables[n][(y + 1, x)] - p.c * tables[n][(y, x)]
                rhs = -p.d * Fraction(p.t) ** (2 * n - y - 1) * tables[n - 1].get((y, x - 1), Fraction(0))
                if lhs != rhs:
                    return False
    return True


def bottom_row_recursion_holds(p: PascalParams, tables: list[Table]) -> bool:
    for n in range(1, p.n_max + 1):
        for x in range(n + 1):
            lhs = p.c * tables[n][(0, x)]
            rhs = p.a * Fraction(p.t) ** x * tables[n - 1].get((0, x), Fraction(0))
            if x >= 1:
                rhs += (p.d * Fraction(p.t) ** (2 * n - 1) - p.b * Fraction(p.t) ** (x - 1)) * tables[
                    n - 1
                ].get((0, x - 1), Fraction(0))
            if lhs != rhs:
                return False
    return True


def forward_only_expansion(p: PascalParams, tables: list[Table]) -> bool:
    """Rebuild every entry from the bottom rows alone.

    Iterating the forward recursion downward gives

        f_N(y, x) = sum_i c^(y-i) (-d)^i t^(-C(i,2) + 2Ni - yi) [y i]_t
                    O_{N-i}(x - i),

    which must agree with the tables entry for entry.
    """
    for n in range(p.n_max + 1):
        for y in range(n + 1):
            for x in range(n + 1):
                acc = Fraction(0)
                for i in range(min(y, x) + 1):
                    exp = -(i * (i - 1) // 2) + 2 * n * i - y * i
                    acc += (
                        Fraction(p.c) ** (y - i)
                        * Fraction(-p.d) ** i
                        * Fraction(p.t) ** exp
                        * gauss_binom(y, i, p.t)
                        * tables[n - i].get((0, x - i), Fraction(0))
                    )
                if acc != tables[n][(y, x)]:
                    return False
    return True


def scaled_matrix_from_canonical(phi: CanonicalMatrix) -> list[list[QuadraticGamma]]:
    """Base change of the scaled-action canonical matrix onto rank aggregates.

    Must reproduce scaled_restriction of the full sign blocks entry for
    entry.
    """
    space = phi.space
    if not isinstance(space, SymScaled):
        raise ValueError("expected a scaled symmetric canonical matrix")
    n = space.n
    ranks = _by_rank(phi.labels)
    basis = [[(i, 1) for i, _ in ranks[r]] for r in range(n + 1)] + [ranks[r] for r in range(2, n + 1, 2)]
    zero, gamma, q = CycInt.zero(space.field.p), gauss_sum(phi.char), space.field.q
    entries = [[e.to_cyc() for e in row] for row in phi.entries]  # in Z[zeta_p], apart from the library's route
    return [[decompose_gamma(_aggregate(entries, rows, cols, zero), gamma, q) for cols in basis] for rows in basis]


def twist_swaps_odd_sign_rows(n: int, field, budget: int = DEFAULT_BUDGET) -> bool:
    """Replacing the character twist by the non-square delta permutes the
    sign-labeled rows: odd-rank row signs swap, even rows stay."""
    base = brute_force_phi(make_space("sym", field, n), default_char(field), budget)
    twisted = brute_force_phi(
        make_space("sym", field, n), CharSpec(field, field.delta()), budget
    )

    def swapped(mu: OrbitLabel) -> OrbitLabel:
        if mu.sign is not None and mu.r % 2:
            return OrbitLabel(mu.r, -mu.sign)
        return mu

    for mu in base.labels:
        for lam in base.labels:
            if twisted.entry(mu, lam) != base.entry(swapped(mu), lam):
                return False
    return True
