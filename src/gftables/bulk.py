"""Vectorized enumeration for prime fields.

Brute-force character sums only need, per element, its orbit label and the
value of a handful of F_p linear functionals (one per table row). Both are
computed here in numpy batches and folded into integer histograms indexed by
(label, functional value); the exact cyclotomic sums are then assembled from
the histograms. Everything is integer arithmetic, so the results are
bit-identical to the element-by-element path. Every prime field comes
through here; extension fields take the pure path in transform.py.

orbit_counts walks the space in chunks of p^k consecutive elements: k is the
largest exponent with p^k <= CHUNK, capped at dim and at least 1 when dim >= 1.
The low k digits of a chunk run through all of F_p^k, so they are peeled once
per call; the dim - k high digits are fixed in a chunk. A functional splits as
t = t_lo + t_hi, one vector per call plus one scalar per chunk, so a chunk
folds by one bincount over (label, t_lo), rolled by t_hi along the values.

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
from functools import lru_cache

import numpy as np

from .spaces import AltMat, MatRect, Space, SymGL, SymScaled, VecWreath

CHUNK = 1 << 19


@lru_cache(maxsize=None)
def _inverse_table(p: int) -> np.ndarray:
    inv = np.zeros(p, dtype=np.int32)
    for x in range(1, p):
        inv[x] = pow(x, -1, p)
    inv.flags.writeable = False  # shared by every caller through the memo
    return inv


@lru_cache(maxsize=None)
def _legendre_table(p: int) -> np.ndarray:
    # sgn on F_p with sgn(0) = +1
    tab = np.ones(p, dtype=np.int64)
    for x in range(1, p):
        tab[x] = 1 if pow(x, (p - 1) // 2, p) == 1 else -1
    tab.flags.writeable = False
    return tab


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


def _index(cols, p: int) -> np.ndarray:
    """Counting-order index of the element whose k-th digits are cols[k] mod p."""
    idx = 0
    for c in reversed(cols):  # Horner, most significant digit first
        idx = idx * p + _mod(c, p)
    return idx


@lru_cache(maxsize=None)
def _codes(kernel, dim: int, *args) -> np.ndarray:
    """kernel(digits, *args) on the dim-digit space over F_p, p = args[-1], in counting order."""
    p = args[-1]
    size = p**dim
    codes = np.concatenate([kernel(_digits(s, min(s + CHUNK, size), dim, p), *args) for s in range(0, size, CHUNK)])
    codes.flags.writeable = False
    return codes


def batch_rank(digits: np.ndarray, n: int, m: int, p: int) -> np.ndarray:
    """Ranks of n x m matrices from their row-major digits (module docstring)."""
    if n == 0:
        return np.zeros(len(digits), dtype=np.int8)
    r0, rows = digits[:, :m], np.arange(len(digits))
    nz = r0 != 0
    j = nz.argmax(axis=1)
    s = _inverse_table(p)[r0[rows, j]]  # zero where row 0 is zero
    f = {i: _mod(digits[rows, i * m + j] * s, p) for i in range(1, n)}  # R_i[j] / r0[j]
    cols = [digits[:, i * m + k] - f[i] * r0[:, k] for i in range(1, n) for k in range(m)]
    return _codes(batch_rank, (n - 1) * m, n - 1, m, p)[_index(cols, p)] + nz.any(axis=1)


def batch_sym_rank_sign(digits: np.ndarray, n: int, p: int) -> np.ndarray:
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
        br, tr, r = b[rep], T[rep], np.arange(rep.size)
        j = (br != 0).argmax(axis=1)
        bj, ajj = br[r, j], tr[r, pos[j, j]]
        c = np.where((2 * bj + ajj) % p == 0, -1, 1)
        a[rep] = (2 * c * bj + ajj) % p
        b[rep] = (br + c[:, None] * tr[r[:, None], pos[j]]) % p
    u = _mod(b * _inverse_table(p)[a][:, None], p)  # b / a; zero where no pivot, then C = T
    idx = _index([T[:, k] - u[:, iu[k]] * b[:, ju[k]] for k in range(len(iu))], p)  # C's index
    codes = _codes(batch_sym_rank_sign, len(iu), n - 1, p)[idx]
    return (codes + 2 * (a != 0)).astype(np.int8) ^ (_legendre_table(p)[a] < 0)


def _build_matrices(digits: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
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
    return np.negative(w, out=w, where=np.arange(n)[:, None] < j)  # T_jl = -T_lj below the diagonal


def _alt_labels_pfaffian(digits: np.ndarray, n: int, p: int) -> np.ndarray:
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
        # int32: |pf| < 3 (p-1)^2 < 2^31 for p < 26755; a larger p has |A| >= p^6 > 10^26
        pf = _mod(col(i, j) * col(k, l) - col(i, k) * col(j, l) + col(i, l) * col(j, k), p)
        rank4 |= pf != 0
    return nonzero + rank4


def _alt_step(digits: np.ndarray, n: int, p: int) -> np.ndarray:
    """Half-ranks of skew n x n matrices by one hyperbolic-plane step (module docstring)."""
    b, rows = digits[:, : n - 1], np.arange(len(digits))
    nz = b != 0
    j = nz.argmax(axis=1) + 1
    u = _mod(b * _inverse_table(p)[b[rows, j - 1]][:, None], p)  # b / b_j; zero where b = 0
    w = _build_matrices(digits, j, n)  # w[l] = T_jl
    pairs = itertools.combinations(range(1, n), 2)
    cols = [digits[:, n - 1 + t] - u[:, k - 1] * w[l] + u[:, l - 1] * w[k] for t, (k, l) in enumerate(pairs)]
    return _codes(_alt_half_rank, (n - 1) * (n - 2) // 2, n - 1, p)[_index(cols, p)] + nz.any(axis=1)


def _alt_half_rank(digits: np.ndarray, n: int, p: int) -> np.ndarray:
    return (_alt_labels_pfaffian if n <= 5 else _alt_step)(digits, n, p)


def _label_indices(space: Space, digits: np.ndarray) -> np.ndarray:
    p = space.field.p
    if isinstance(space, VecWreath):
        return (digits != 0).sum(axis=1)
    if isinstance(space, MatRect):
        return batch_rank(digits, space.n, space.m, p)
    if isinstance(space, AltMat):
        return _alt_half_rank(digits, space.n, p)
    if isinstance(space, (SymGL, SymScaled)):
        lut = np.zeros(2 * space.n + 2, dtype=np.int64)  # label code -> label index
        for i, lbl in enumerate(space.labels()):
            for neg in (0, 1) if lbl.sign is None else (int(lbl.sign < 0),):
                lut[2 * lbl.r + neg] = i
        return lut[batch_sym_rank_sign(digits, space.n, p)]
    raise TypeError(f"no bulk classifier for {type(space).__name__}")


def orbit_counts(space: Space, coefvecs: list[list[int]]) -> tuple[list[np.ndarray], np.ndarray]:
    """Histogram pass over the whole space, in chunks of p^k consecutive elements.

    coefvecs[r][k] is the F_p coefficient of free coordinate k in the r-th
    linear functional, with at least one functional. Returns one (n_labels, p)
    count array per functional plus the orbit sizes.
    """
    if space.field.e != 1:
        raise ValueError("bulk path requires a prime field")
    p, dim = space.field.p, space.dim
    nlab = len(space.labels())
    k = min(dim, 1)  # k >= 1 whenever dim >= 1, also for p > CHUNK
    while k < dim and p ** (k + 1) <= CHUNK:
        k += 1
    block = p**k
    buf = np.empty((dim, block), dtype=np.int32)  # one digit row per coordinate
    buf[:k] = _digits(0, block, k, p).T  # low digits: all of F_p^k, the same in every chunk
    digits = buf.T
    digits.flags.writeable = False  # the kernels must not write into rows later chunks reuse
    t_lo = []  # t over the low digits, built one digit at a time in counting order
    for coef in coefvecs:
        t = np.zeros(1, dtype=np.int64)
        for c in coef[:k]:
            t = _mod(np.add.outer(np.arange(p, dtype=np.int64) * c, t).ravel(), p)
        t_lo.append(t.astype(np.int16 if p < 2**15 else np.int32))  # narrow: t_lo is kept all call
    hists = [np.zeros((nlab, p), dtype=np.int64) for _ in coefvecs]
    for chunk in range(space.size // block):
        high = [chunk // p**i % p for i in range(dim - k)]  # digits k..dim-1, fixed in this chunk
        buf[k:] = np.array(high, dtype=np.int32)[:, None]
        base = _label_indices(space, digits).astype(np.intp) * p
        for r, coef in enumerate(coefvecs):
            t_hi = sum(c * d for c, d in zip(coef[k:], high)) % p
            h = np.bincount(base + t_lo[r], minlength=nlab * p).reshape(nlab, p)
            hists[r] += np.roll(h, t_hi, axis=1)  # t = t_lo + t_hi
    return hists, hists[0].sum(axis=1)  # every histogram counts each element once
