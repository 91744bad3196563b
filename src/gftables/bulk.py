"""Vectorized enumeration over every field GF(q), q = p^e.

An element of GF(q) is coded by its index in gfq's base-p counting order
(`element_at`/`index_of`), so the base-q digits of an element's index in a
space are the codes of its coordinates. Brute-force character sums only need,
per element, its orbit label and the value of a handful of F_p linear
functionals (one per table row). Both are computed here in numpy batches and
folded into integer histograms indexed by (label, functional value); the
exact cyclotomic sums are then assembled from the histograms. Everything is
integer arithmetic, so the results are bit-identical to an element-by-element
enumeration.

The kernels reach the field only through its arithmetic object, arith(field),
one per FieldSpec (two moduli of one q are two fields):
- F_p keeps delayed reduction: add, sub, neg and mul return unreduced ints,
  and reduce takes them mod p, so a chain of products is reduced once.
- GF(p^e), e > 1: add, sub and neg work digitwise mod p, and mul gathers
  from log and antilog tables of a primitive element g (Lidl & Niederreiter,
  *Finite Fields*, ch. 9). Every result is a code, and reduce is the identity.
Both read inv and sgn (the parity of the log, sgn(0) = +1) from the log
tables of size q, which are built on first use from the powers of g by
doubling. No table is q x q, and a space without arithmetic (vec) builds none.
Callers reduce a computed value before they compare it with zero.

orbit_counts walks the space in chunks of q^k consecutive elements: k is the
largest exponent with q^k <= CHUNK, capped at dim and at least 1 when dim >= 1.
The low k digits of a chunk run through all of GF(q)^k, so they are peeled once
per call; the dim - k high digits are fixed in a chunk. A functional sends
coordinate k with coefficient c_k through the table T_c[x] = Tr(c_k x) in F_p,
which is F_p-linear in the base-p digits of x. It splits as t = t_lo + t_hi:
outer sums of the T tables over the low digits (one vector) and over the high
digits (one value per chunk), both built once per call. A chunk folds by one
bincount over (label, t_lo), rolled by its t_hi along the values.

A matrix is labelled in three steps: one reduction step on row 0 leaves a
matrix of the (n-1) space; its digits give its index in counting order; its
label is read from the table of the (n-1) space at that index.
- mat: row 0 clears its first nonzero column from rows 1..n-1, so rank A is
  [row 0 != 0] + the rank of those rows.
- alt, n >= 6: with b = row 0 and b_j its first nonzero entry, the block on
  {0, j} is a hyperbolic plane (Artin, *Geometric Algebra*, ch. III). Its
  Schur complement S_kl = T_kl - (b_k T_jl - b_l T_jk) / b_j, an (n-1) skew
  matrix with zero row and column j, has half-rank one less. For n <= 5
  principal Pfaffians are faster.
- sym, A = [[a, b^T], [b, T]] (Lam, *Introduction to Quadratic Forms over
  Fields*, ch. I): a != 0 makes A congruent to diag(a, T - b b^T / a);
  a = b = 0 leaves the label of T; if a = 0 and b_j is the first b_j != 0,
  adding c times row and column j into row and column 0 makes the pivot
  c (2 b_j + c a_jj), nonzero for c = 1, or for c = -1 when a_jj = -2 b_j.
  The code is 2 rank + (sign < 0).
One memoized builder, _codes, makes each read-only int8 (n-1) table on first
use, with the same kernel, so the tables recurse down to n = 0 or the Pfaffians.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property, lru_cache

import numpy as np

from .gfq import FieldSpec, trace
from .spaces import AltMat, MatRect, Space, SymGL, SymScaled, VecWreath

CHUNK = 1 << 19


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


def _outer_sum(tables: list[np.ndarray], p: int) -> np.ndarray:
    """t[i] = sum over k of tables[k][digit k of i] mod p, digit 0 fastest."""
    t = np.zeros(1, dtype=np.int64)
    for tab in tables:
        t = _mod(np.add.outer(tab, t).ravel(), p)
    return t


class Arith:
    """GF(p^e) arithmetic on element codes for e > 1; PrimeArith overrides it for F_p."""

    def __init__(self, field: FieldSpec):
        self.field, self.p, self.q = field, field.p, field.q
        self._weights = [self.p**i for i in range(field.e)]  # place value of each base-p digit

    def _digitwise(self, op, a, b):
        out = 0
        for w in self._weights:  # digit i of a code x is x // w mod p; higher digits vanish mod p
            out = out + _mod(op(a // w, b // w), self.p) * w
        return out

    def add(self, a, b):
        return self._digitwise(np.add, a, b)

    def sub(self, a, b):
        return self._digitwise(np.subtract, a, b)

    def neg(self, a):
        return self._digitwise(np.subtract, 0, a)

    def mul(self, a, b):
        log = self._log_exp[0]
        return self._mul_exp[log[a] + log[b]]

    def reduce(self, x):
        return x

    @cached_property
    def _log_exp(self) -> tuple[np.ndarray, np.ndarray]:
        """log[x] and exp[k] = g^k (k < q - 1) for the first primitive g in counting order.

        log[0] = 2 (q - 1): even, and beyond every sum of two logs of nonzero codes.
        """
        f, p, q = self.field, self.p, self.q
        factors = _prime_factors(q - 1)
        g = next(x for x in map(f.element_at, range(1, q)) if all(x ** ((q - 1) // r) != f.one() for r in factors))
        weights = np.array(self._weights, dtype=np.int64)
        exp = np.ones(q - 1, dtype=np.int64)
        gn, n, block = g, 1, max(1, CHUNK // f.e)
        while n < q - 1:  # exp[n:2n] = exp[:n] * g^n, by the matrix of x -> x g^n on the digits
            A = np.array([(gn * f.element_at(w)).coeffs for w in self._weights], dtype=np.int64)
            m = min(n, q - 1 - n)
            for s in range(0, m, block):
                x = exp[s : min(s + block, m)]
                exp[n + s : n + s + len(x)] = _mod(_mod(x[:, None] // weights, p) @ A, p) @ weights
            gn, n = gn * gn, 2 * n
        log = np.empty(q, dtype=np.int32)
        log[0] = 2 * (q - 1)
        log[exp] = np.arange(q - 1)
        return _frozen(log), _frozen(exp.astype(np.int32))

    @cached_property
    def _mul_exp(self) -> np.ndarray:
        """exp twice, then zeros: the product of codes a and b is _mul_exp[log a + log b]."""
        exp = self._log_exp[1]
        return _frozen(np.concatenate([exp, exp, np.zeros(2 * self.q - 1, dtype=exp.dtype)]))

    @cached_property
    def inv(self) -> np.ndarray:
        """1 / x for every code x, with inv[0] = 0."""
        log, exp = self._log_exp
        inv = np.zeros(self.q, dtype=np.int32)
        inv[1:] = exp[(self.q - 1 - log[1:]) % (self.q - 1)]
        return _frozen(inv)

    @cached_property
    def sgn(self) -> np.ndarray:
        """The quadratic character of every code: +1 on squares (and 0), -1 elsewhere."""
        if self.q % 2 == 0:
            raise ValueError("quadratic character requires odd characteristic")
        return _frozen(1 - 2 * (self._log_exp[0] & 1).astype(np.int8))  # log[0] is even

    def trace_table(self, c: int) -> np.ndarray:
        """Tr(c x) in F_p for every code x, from the traces of c times the basis x^i."""
        f, cx = self.field, self.field.element_at(c)
        return _outer_sum([np.arange(self.p, dtype=np.int64) * trace(cx * f.element_at(w)) for w in self._weights], self.p)


class PrimeArith(Arith):
    """F_p on codes 0..p-1 with delayed reduction: only reduce takes a value mod p."""

    # the bare operators, not methods: numpy may then reuse a temporary operand's buffer
    add, sub, neg, mul = map(staticmethod, (operator.add, operator.sub, operator.neg, operator.mul))

    def reduce(self, x):
        return _mod(x, self.p)


@lru_cache(maxsize=None)
def arith(field: FieldSpec) -> Arith:
    """The shared arithmetic object of a field."""
    return (PrimeArith if field.e == 1 else Arith)(field)


def _digits(start: int, stop: int, dim: int, q: int) -> np.ndarray:
    """(B, dim) base-q digits of start..stop-1, one contiguous column each.

    int32, not narrower: the callers' products of digits must not wrap.
    """
    idx = np.arange(start, stop, dtype=np.int32 if stop <= 2**31 else np.int64)
    out = np.empty((dim, stop - start), dtype=np.int32)
    for k in range(dim):
        nxt = idx // q
        out[k] = idx - nxt * q  # not np.divmod: see _mod
        idx = nxt
    return out.T


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p; numpy floor-divides by a scalar far faster than np.remainder runs."""
    return x - x // p * p


def _index(cols, F: Arith) -> np.ndarray:
    """Counting-order index of the element whose k-th coordinate reduces to cols[k]."""
    idx = 0
    for c in reversed(cols):  # Horner, most significant digit first
        idx = idx * F.q + F.reduce(c)
    return idx


@lru_cache(maxsize=None)
def _codes(kernel, dim: int, *args) -> np.ndarray:
    """kernel(digits, *args) on the dim-digit space over the field of F = args[-1], in counting order."""
    q = args[-1].q
    size = q**dim
    codes = np.concatenate([kernel(_digits(s, min(s + CHUNK, size), dim, q), *args) for s in range(0, size, CHUNK)])
    codes.flags.writeable = False
    return codes


def batch_rank(digits: np.ndarray, n: int, m: int, F: Arith) -> np.ndarray:
    """Ranks of n x m matrices from their row-major digits (module docstring)."""
    if n == 0:
        return np.zeros(len(digits), dtype=np.int8)
    r0, rows = digits[:, :m], np.arange(len(digits))
    nz = r0 != 0
    j = nz.argmax(axis=1)
    s = F.inv[r0[rows, j]]  # zero where row 0 is zero
    f = {i: F.reduce(F.mul(digits[rows, i * m + j], s)) for i in range(1, n)}  # R_i[j] / r0[j]
    cols = [F.sub(digits[:, i * m + k], F.mul(f[i], r0[:, k])) for i in range(1, n) for k in range(m)]
    return _codes(batch_rank, (n - 1) * m, n - 1, m, F)[_index(cols, F)] + nz.any(axis=1)


def batch_sym_rank_sign(digits: np.ndarray, n: int, F: Arith) -> np.ndarray:
    """Codes 2 rank + (sign < 0) of symmetric n x n matrices under congruence.

    digits holds the upper-triangular row-major coordinates, so row 0 is the
    first n columns and the trailing block T is in the (n-1) counting order.
    """
    if n == 0:
        return np.zeros(len(digits), dtype=np.int8)
    a, b, T = digits[:, 0].copy(), digits[:, 1:n].copy(), digits[:, n:]
    iu, ju = np.triu_indices(n - 1)
    pos = np.zeros((n - 1, n - 1), dtype=np.intp)  # column of T holding (i, j)
    pos[iu, ju] = pos[ju, iu] = np.arange(len(iu))
    rep = np.flatnonzero((a == 0) & b.any(axis=1))
    if rep.size:
        a[rep], b[rep] = _sym_pivot(b[rep], T[rep], pos, F)
    u = F.reduce(F.mul(b, F.inv[a][:, None]))  # b / a; zero where no pivot, then C = T
    idx = _index([F.sub(T[:, k], F.mul(u[:, iu[k]], b[:, ju[k]])) for k in range(len(iu))], F)  # C's index
    codes = _codes(batch_sym_rank_sign, len(iu), n - 1, F)[idx]
    return (codes + 2 * (a != 0)).astype(np.int8) ^ (F.sgn[a] < 0)


def _sym_pivot(b: np.ndarray, T: np.ndarray, pos: np.ndarray, F: Arith) -> tuple[np.ndarray, np.ndarray]:
    """New (a, b) of rows with a = 0 and b != 0, after c times row and column j went into row and column 0.

    A function of its own, so that its temporaries are freed before the caller's main step allocates.
    """
    r = np.arange(len(b))
    j = (b != 0).argmax(axis=1)
    bj, ajj, tj = b[r, j], T[r, pos[j, j]], T[r[:, None], pos[j]]  # tj: row j of T
    two_bj = F.add(bj, bj)
    minus = F.reduce(F.add(two_bj, ajj)) == 0  # c = -1 where a_jj = -2 b_j
    a = F.reduce(np.where(minus, F.sub(ajj, two_bj), F.add(ajj, two_bj)))
    return a, F.reduce(np.where(minus[:, None], F.sub(b, tj), F.add(b, tj)))


def _build_matrices(digits: np.ndarray, j: np.ndarray, n: int, F: Arith) -> np.ndarray:
    """(n, B) rows w[l] = T_jl of skew matrices, pivot j per matrix, from their row-major upper digits."""
    iu, ju = np.triu_indices(n, 1)  # the digit order (0, 1), (0, 2), ..., (n-2, n-1)
    pos = np.zeros((n, n), dtype=np.intp)  # digit position of T_il and of T_li
    pos[iu, ju] = pos[ju, iu] = np.arange(len(iu))
    w = np.zeros((n, len(digits)), dtype=np.int32)
    for jj in range(1, n):
        at = j == jj
        for l in range(n):
            if l != jj:  # T_jj = 0
                np.copyto(w[l], digits[:, pos[jj, l]], where=at)
    np.copyto(w, F.neg(w), where=np.arange(n)[:, None] < j)  # T_jl = -T_lj below the diagonal
    return w


def _alt_labels_pfaffian(digits: np.ndarray, n: int, F: Arith) -> np.ndarray:
    """Half-rank of skew matrices with n <= 5 from principal Pfaffians.

    The rank of a skew matrix is the size of its largest nonsingular principal
    submatrix; a 4x4 principal minor is the square of the Pfaffian
    a_ij a_kl - a_ik a_jl + a_il a_jk, and with n <= 5 the rank is at most 4.
    """
    nonzero = (digits != 0).any(axis=1).astype(np.int8)
    if n < 4:
        return nonzero
    pos = {pair: k for k, pair in enumerate(itertools.combinations(range(n), 2))}
    col = lambda i, j: digits[:, pos[(i, j)]]
    rank4 = np.zeros(len(digits), dtype=bool)
    for i, j, k, l in itertools.combinations(range(n), 4):
        # over F_p the sum stays int32: |pf| < 3 (p-1)^2 < 2^31 for p < 26755; a larger p has |A| >= p^6 > 10^26
        pf = F.reduce(F.add(F.sub(F.mul(col(i, j), col(k, l)), F.mul(col(i, k), col(j, l))), F.mul(col(i, l), col(j, k))))
        rank4 |= pf != 0
    return nonzero + rank4


def _alt_step(digits: np.ndarray, n: int, F: Arith) -> np.ndarray:
    """Half-ranks of skew n x n matrices by one hyperbolic-plane step (module docstring)."""
    b, rows = digits[:, : n - 1], np.arange(len(digits))
    nz = b != 0
    j = nz.argmax(axis=1) + 1
    u = F.reduce(F.mul(b, F.inv[b[rows, j - 1]][:, None]))  # b / b_j; zero where b = 0
    w = _build_matrices(digits, j, n, F)  # w[l] = T_jl
    pairs = itertools.combinations(range(1, n), 2)
    cols = [
        F.add(F.sub(digits[:, n - 1 + t], F.mul(u[:, k - 1], w[l])), F.mul(u[:, l - 1], w[k]))
        for t, (k, l) in enumerate(pairs)
    ]
    return _codes(_alt_half_rank, (n - 1) * (n - 2) // 2, n - 1, F)[_index(cols, F)] + nz.any(axis=1)


def _alt_half_rank(digits: np.ndarray, n: int, F: Arith) -> np.ndarray:
    return (_alt_labels_pfaffian if n <= 5 else _alt_step)(digits, n, F)


def _label_indices(space: Space, digits: np.ndarray) -> np.ndarray:
    F = arith(space.field)
    if isinstance(space, VecWreath):
        return (digits != 0).sum(axis=1)
    if isinstance(space, MatRect):
        return batch_rank(digits, space.n, space.m, F)
    if isinstance(space, AltMat):
        return _alt_half_rank(digits, space.n, F)
    if isinstance(space, (SymGL, SymScaled)):
        lut = np.zeros(2 * space.n + 2, dtype=np.int64)  # label code -> label index
        for i, lbl in enumerate(space.labels()):
            for neg in (0, 1) if lbl.sign is None else (int(lbl.sign < 0),):
                lut[2 * lbl.r + neg] = i
        return lut[batch_sym_rank_sign(digits, space.n, F)]
    raise TypeError(f"no bulk classifier for {type(space).__name__}")


def orbit_counts(space: Space, coefvecs: list[list[int]]) -> tuple[list[np.ndarray], np.ndarray]:
    """Histogram pass over the whole space, in chunks of q^k consecutive elements.

    coefvecs[r][k] is the code of the coefficient c of free coordinate k in
    the r-th functional a -> sum_k Tr(c a_k), with at least one functional.
    Returns one (n_labels, p) count array per functional plus the orbit sizes.
    """
    F = arith(space.field)
    p, q, dim = F.p, F.q, space.dim
    nlab = len(space.labels())
    k = min(dim, 1)  # k >= 1 whenever dim >= 1, also for q > CHUNK
    while k < dim and q ** (k + 1) <= CHUNK:
        k += 1
    block = q**k
    buf = np.empty((dim, block), dtype=np.int32)  # one digit row per coordinate
    buf[:k] = _digits(0, block, k, q).T  # low digits: all of GF(q)^k, the same in every chunk
    digits = buf.T
    digits.flags.writeable = False  # the kernels must not write into rows later chunks reuse
    t_lo, t_hi = [], []  # t over the low digits (kept all call, so narrow), and over the high digits per chunk
    for coef in coefvecs:
        tabs = [F.trace_table(c) for c in coef]
        t_lo.append(_outer_sum(tabs[:k], p).astype(np.int16 if p < 2**15 else np.int32))
        t_hi.append(_outer_sum(tabs[k:], p).tolist())
    hists = [np.zeros((nlab, p), dtype=np.int64) for _ in coefvecs]
    for chunk in range(space.size // block):
        high = [chunk // q**i % q for i in range(dim - k)]  # digits k..dim-1, fixed in this chunk
        buf[k:] = np.array(high, dtype=np.int32)[:, None]
        base = _label_indices(space, digits).astype(np.intp) * p
        for r in range(len(coefvecs)):
            h = np.bincount(base + t_lo[r], minlength=nlab * p).reshape(nlab, p)
            hists[r] += np.roll(h, t_hi[r][chunk], axis=1)  # t = t_lo + t_hi
    return hists, hists[0].sum(axis=1)  # every histogram counts each element once
