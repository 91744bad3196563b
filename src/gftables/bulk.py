"""Vectorized enumeration for prime fields.

Brute-force character sums only need, per element, its orbit label and the
value of a handful of F_p linear functionals (one per table row). Both are
computed here in numpy batches and folded into integer histograms indexed by
(label, functional value); the exact cyclotomic sums are then assembled from
the histograms. Everything is integer arithmetic, so the results are
bit-identical to the element-by-element path.

Symmetric matrices are labelled by one congruence step on row and column 0
(congruence diagonalization, Lam, *Introduction to Quadratic Forms over
Fields*, ch. I). Write A = [[a, b^T], [b, T]]:
- a != 0: A is congruent to diag(a, C), C = T - b b^T / a, so rank A is
  1 + rank C and sgn A is sgn(a) sgn(C);
- a = 0, b = 0: A has the label of T;
- a = 0, b != 0: with j the first index of b_j != 0, adding c times row and
  column j into row and column 0 makes the pivot c (2 b_j + c a_jj), nonzero
  for c = 1, or for c = -1 when a_jj = -2 b_j (p is odd); then case one.
The label of C or T is read from the memoized table of the (n-1) space,
which is built by the same step. A label is coded as 2 rank + (sign < 0).

Only fields with e = 1 come through here; extension fields take the pure
Python path in transform.py (their spaces are all small).
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
        np.divmod(idx, q, out=(idx, out[k]))
    return out.T


def batch_rank(mats: np.ndarray, p: int, inv: np.ndarray) -> np.ndarray:
    """Ranks of a (B, n, m) batch over F_p by masked Gaussian elimination.

    All matrices advance through the pivot columns in lockstep; matrices with
    no pivot candidate in a column get a zero elimination factor, which makes
    the update a no-op for them. This runs on whole arrays in place, no
    per-matrix fancy indexing on the cubic data.
    """
    M = mats
    B, nrows, ncols = M.shape
    rank = np.zeros(B, dtype=np.int64)
    row = np.zeros(B, dtype=np.int64)
    ridx = np.arange(nrows)
    barange = np.arange(B)
    for col in range(ncols):
        cand = (M[:, :, col] != 0) & (ridx[None, :] >= row[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        r0 = np.where(has, row, 0)
        r1 = np.where(has, cand.argmax(axis=1), 0)
        needswap = has & (r0 != r1)
        if needswap.any():
            bs = barange[needswap]
            s0, s1 = r0[needswap], r1[needswap]
            tmp = M[bs, s0, :].copy()
            M[bs, s0, :] = M[bs, s1, :]
            M[bs, s1, :] = tmp
        pivrow = M[barange, r0, :]  # gathered copy, (B, ncols)
        fscale = inv[pivrow[:, col]] * has  # zero where inactive
        f = (M[:, :, col] * fscale[:, None]) % p
        f[ridx[None, :] <= r0[:, None]] = 0
        M -= f[:, :, None] * pivrow[:, None, :]
        M %= p
        row += has
        rank += has
    return rank


@lru_cache(maxsize=None)
def _sym_codes(n: int, p: int) -> np.ndarray:
    """Label code of every symmetric n x n matrix over F_p, in counting order."""
    dim = n * (n + 1) // 2
    size = p**dim
    codes = np.concatenate(
        [batch_sym_rank_sign(_digits(s, min(s + CHUNK, size), dim, p), n, p) for s in range(0, size, CHUNK)]
    )
    codes.flags.writeable = False
    return codes


def batch_sym_rank_sign(digits: np.ndarray, n: int, p: int) -> np.ndarray:
    """Codes 2 rank + (sign < 0) of symmetric n x n matrices under congruence.

    digits holds the upper-triangular row-major coordinates, so row 0 is the
    first n columns and the trailing block T is already in the counting
    order of the (n-1) space. One congruence step (see the module docstring)
    leaves a pivot a and a block C whose code comes from the (n-1) table.
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
    u = b * _inverse_table(p)[a][:, None] % p  # b / a; zero where no pivot, then C = T
    idx = np.zeros(len(a), dtype=np.int64)  # index of C in the (n-1) space
    for k, w in enumerate(p ** np.arange(len(iu), dtype=np.int64)):
        idx += (T[:, k] - u[:, iu[k]] * b[:, ju[k]]) % p * w
    codes = _sym_codes(n - 1, p)[idx]
    return (codes + 2 * (a != 0)).astype(np.int8) ^ (_legendre_table(p)[a] < 0)


def _build_matrices(space: Space, digits: np.ndarray) -> np.ndarray:
    B = digits.shape[0]
    if isinstance(space, MatRect):
        return digits.reshape(B, space.n, space.m).copy()
    n = space.n
    M = np.zeros((B, n, n), dtype=np.int32)
    for k, (i, j) in enumerate(space.coords):  # skew: i < j
        M[:, i, j] = digits[:, k]
        M[:, j, i] = (-digits[:, k]) % space.field.p
    return M


def _alt_labels_pfaffian(space: AltMat, digits: np.ndarray, p: int) -> np.ndarray:
    """Half-rank of skew matrices with n <= 5 from principal Pfaffians.

    The rank of a skew matrix is the size of its largest nonsingular
    principal submatrix, and the 4x4 principal minors are squares of
    Pfaffians a_ij a_kl - a_ik a_jl + a_il a_jk. With n <= 5 the rank is
    at most 4, so a few vector products replace Gaussian elimination.
    """
    n = space.n
    pos = {pair: k for k, pair in enumerate(space.coords)}
    nonzero = (digits != 0).any(axis=1)
    if n < 4:
        return nonzero.astype(np.int64)
    col = lambda i, j: digits[:, pos[(i, j)]].astype(np.int64)
    rank4 = np.zeros(len(digits), dtype=bool)
    for i, j, k, l in itertools.combinations(range(n), 4):
        pf = (col(i, j) * col(k, l) - col(i, k) * col(j, l) + col(i, l) * col(j, k)) % p
        rank4 |= pf != 0
    return np.where(rank4, 2, nonzero.astype(np.int64))


def _label_indices(space: Space, digits: np.ndarray) -> np.ndarray:
    p = space.field.p
    if isinstance(space, VecWreath):
        return (digits != 0).sum(axis=1)
    if isinstance(space, AltMat) and space.n <= 5:
        return _alt_labels_pfaffian(space, digits, p)
    if isinstance(space, (MatRect, AltMat)):
        ranks = batch_rank(_build_matrices(space, digits), p, _inverse_table(p))
        return ranks // 2 if isinstance(space, AltMat) else ranks
    if isinstance(space, (SymGL, SymScaled)):
        lut = np.zeros(2 * space.n + 2, dtype=np.int64)  # label code -> label index
        for i, lbl in enumerate(space.labels()):
            for neg in (0, 1) if lbl.sign is None else (int(lbl.sign < 0),):
                lut[2 * lbl.r + neg] = i
        return lut[batch_sym_rank_sign(digits, space.n, p)]
    raise TypeError(f"no bulk classifier for {type(space).__name__}")


def orbit_counts(space: Space, coefvecs: list[list[int]]) -> tuple[list[np.ndarray], np.ndarray]:
    """Histogram pass over the whole space.

    coefvecs[r][k] is the F_p coefficient of free coordinate k in the r-th
    linear functional. Returns one (n_labels, p) count array per functional
    plus the orbit sizes.
    """
    if space.field.e != 1:
        raise ValueError("bulk path requires a prime field")
    p = space.field.p
    nlab = len(space.labels())
    hists = [np.zeros(nlab * p, dtype=np.int64) for _ in coefvecs]
    sizes = np.zeros(nlab, dtype=np.int64)
    for start in range(0, space.size, CHUNK):
        stop = min(start + CHUNK, space.size)
        digits = _digits(start, stop, space.dim, p)
        lab = _label_indices(space, digits)
        sizes += np.bincount(lab, minlength=nlab)
        base = lab * p
        for r, coef in enumerate(coefvecs):
            t = np.zeros(stop - start, dtype=np.int64)
            for k, c in enumerate(coef):
                if c:
                    t += digits[:, k] * c
            hists[r] += np.bincount(base + t % p, minlength=nlab * p)
    return [h.reshape(nlab, p) for h in hists], sizes
