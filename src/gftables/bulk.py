"""Vectorized enumeration over every field GF(q), q = p^e.

An element of GF(q) is its integer code (gfq), so the base-q digits of an
element's index in a space are the codes of its coordinates. Brute-force
character sums only need, per element, its orbit label and the value of a few
F_p linear functionals (one per table row). Both are computed here in numpy
batches and folded into integer histograms indexed by (label, functional
value). orbit_counts returns them reduced to three classes of values, 0 and
the two classes S and N of F_p^* on which each is constant, from which
transform builds each exact entry in its own ring. All of it is integer
arithmetic, so the results are bit-identical to an element-by-element
enumeration.

The kernels reach the field only through the array ops of its arithmetic
object, gfq.arith(field): vadd, vsub, vneg, vmul and vreduce (delayed
reduction over F_p, log and antilog tables for e > 1), and the tables
inv_table, sgn_table and trace_table.

One walker, _chunks, serves orbit_counts and, through _walk, the memoized
(n-1) tables of _codes. It takes a space in chunks of q^k consecutive elements.
_walk labels every chunk, so its k is _low_width: the largest exponent with
q^k <= CHUNK, capped at dim and at least 1 when dim >= 1. orbit_counts takes k
from _plan (below). The low k digits run through all of GF(q)^k in every chunk
and the dim - k high digits are fixed in a chunk, so each labeller is split in two:
- a per-call part (the *_split functions) runs once on the low digits: the
  row-0 step below and every (n-1) coordinate that reads only low digits. It
  keeps read-only int32/int8 state;
- a per-chunk tail (_label_indices) adds the high digits s_t, which _chunks
  writes into row 0 alone: for the row-0 steps, one table per chunk read at
  each row's per-call code, then one take reads the label.
A functional sends coordinate k with
coefficient c_k through T_c[x] = Tr(c_k x) in F_p, which is F_p-linear in
the base-p digits of x, so t = t_lo + t_hi: t_lo reads the low digits, and
t_hi, an outer sum of the T tables over the high digits, is one value per
chunk. t_lo is a vector over
F_p: its entry at base-p digit i of low coordinate k is Tr(c_k w_i), w_i the
element coded p^i. Functionals often share few such vectors (the sym n=4
functionals read only three low digits), so they are grouped greedily, each
group with an F_p basis of its vectors of rank rho and nbins p^rho <= TABLE = 2^16
(or one functional). Per call a group keys each low element by the t_lo of
its basis, sum_j p^j t_lo(basis_j), and maps each key to the t_lo of every
member, sum_j lambda_j digit_j. Per chunk a group runs one bincount over
(label, key); each member sums its (nbins, p^rho) counts by that map into
(nbins, p) and adds them rolled by its t_hi.

orbit_counts labels one chunk per class of scalar multiples. A scalar lambda
of F_p^* sends chunk s (s its high digits) onto chunk lambda s, for the low
digits run through all of GF(q)^k. It keeps the rank, the half-rank and the
count of nonzero coordinates; on a sym label code 2 rank + (sign < 0) it acts
as pi_lambda, which flips the sign of an odd rank where lambda is a nonsquare
of GF(q) (Lam, ch. I), and the symscaled lut merges what it flips. A functional
is F_p-linear, t(lambda a) = lambda t(a), so chunk lambda s holds chunk s's
histogram H at (pi_lambda L, t / lambda). The walk visits chunk 0 and, of each
class {lambda s}, the chunk whose code sum_i q^i s_i has top base-p digit 1,
a code in [p^i, 2 p^i): 1 + (q^h - 1) / (p - 1) chunks for h = dim - k, and all
of them at p = 2. _scalar_fold spreads the sum H of the visited nonzero chunks
over their classes once per call. The lambda that are squares of GF(q) form a
subgroup S of F_p^*, and the others its coset N or nothing (e even), so at
t != 0 the sum over lambda reads only the sums of H over t S and over t N,
and it is constant on S and on N. So is chunk 0's histogram, for chunk 0 is
closed under scalars: the call returns its three classes, t = 0, t in S and
t in N, and nothing of p entries leaves it.

So one orbit_counts call touches q^k rows in the split and q^k in each of the
V(k) = 1 + (q^h - 1) / (p - 1) labelled chunks, (2 - 1/(p-1)) q^k + q^dim/(p-1)
rows in all, which grows with k: at h = 1 the fold labels 2 of q chunks, and
the split costs as much as one of them. _plan takes the smallest k with
q^k >= MIN_ROWS, below which the per-chunk Python and bincount calls cost more
than the rows; and k >= K0 where q^K0 <= CHUNK, so the row-0 step of every
family stays per call (the G table, the pivot classes, the _sym_reduction
memo); at most _low_width, so CHUNK stays the one memory cap. vec n=9 q=5 then
splits 5^7 rows and labels 7 chunks, against 5^8 rows and 2 chunks at
_low_width. A smaller CHUNK would not do it, for it caps every k: at
CHUNK = 2^17, alt n=4 q=25 would label 3,907 chunks of 25^3 rows, not 157
of 25^4.

A matrix is labelled by one row-0 step: it reads row 0, the first K0 digits,
and leaves a matrix S of the (n-1) space, whose index in counting order reads
the label from the (n-1) table, shifted by the step's class. The rest of the
matrix, the digits after K0, enters the step linearly, with coefficients from
u = b / b_j alone, b the part of row 0 the step pivots on and b_j its first
nonzero entry. An entry of S reads only digits at or before its own position,
so a low entry reads only low digits. Per call, _row0_split computes the low
entries of S and, per row, a code z q^h + sum_i q^i L_i over the h high
entries: z is the class of u, a column of a table U, and L_i the low part of
high entry i. Per chunk, a table of |U| q^h entries adds at that code the
step of each class on the high digits alone. Where row 0 reaches a high digit
(k < K0), each chunk runs the step on its own rows. No row is repaired.
- mat: row 0 (r0) clears its first nonzero column j from rows 1..n-1, so
  rank A is [r0 != 0] + the rank of those rows: new row i is R_i - R_i[j] u,
  u = r0 / r0[j]. U holds the zero vector and the vectors of GF(q)^m with
  first nonzero entry 1 (_classes). Where q^(2m) <= CHUNK (so row 0 is low,
  k >= m) one memoized table per (m, field) holds every row step instead:
  G[R q^m + r] is the code of R - (R[j] / r[j]) r (R where r = 0), and with T
  the (n-1) table the label is [T, T+1][[r0 != 0] |T| + sum_{i>=1}
  q^((i-1)m) G[R_i q^m + r0]]. Per call: the G index of each row from its
  low digits, and the sum over the rows with no high digit; per chunk, a row
  with a high digit adds one offset to its G index.
- alt, n >= 6: with b = row 0, the block on {0, j} is a hyperbolic plane
  (Artin, *Geometric Algebra*, ch. III). The rest is T on the hyperplane
  b^perp: S = P T P^T with P = I - u e_j^T, that is S_cd = T_cd - u_c T_jd +
  u_d T_jc, an (n-1) skew matrix with zero row and column j and half-rank
  one less. U is as for mat, over GF(q)^(n-1).
- alt, n <= 5: the rank is that of the largest nonsingular principal
  submatrix, at most 4, and a 4x4 principal minor is the square of the
  Pfaffian a_ij a_kl - a_ik a_jl + a_il a_jk. It is multilinear: per chunk it
  is P + sum x_i s_i over its terms with a high digit s_i. Each row codes
  (P, x_i) per call, and a table per chunk says which codes are nonzero.
- sym, A = [[a, b^T], [b, T]] (Lam, *Introduction to Quadratic Forms over
  Fields*, ch. I), with T' the block of T below its row 0, in the (n-2)
  counting order. The step reads the row-0 code x, K0 = 2n - 1 digits: row 0
  of A and of T. a != 0 makes A congruent to diag(a, T - b b^T / a); a = b = 0
  leaves T; if a = 0 and b_0 or T_00 != 0, adding c times row and column 1
  into row and column 0 makes the pivot c (2 b_0 + c T_00), nonzero for
  c = 1, or for c = -1 when T_00 = -2 b_0. Then entry e = (l, m) of T'
  becomes T'_e - P_e, P_e = u_l b_m and u = b / a: class 0, shifted by -P_e.
  The other rows, a = b_0 = T_00 = 0 and b != 0 (the hyp rows, 0.8 % of sym
  n=4 q=5), split off the hyperbolic plane on {0, j + 1}, j >= 1 the first
  index with b_j != 0: rank 2, and the sign of -1. The rest is P T P^T with
  P = I - u e_j^T and u = b / b_j, the symmetric form of the alt step, in the
  class of u' = (u_1..u_{n-2}) (_classes), never 0. The label code 2 rank +
  (sign < 0) is read from [C, C+2, (C+2)^1, (C+4)^[sgn(-1) < 0]] by class, C
  the (n-1) table. Where q^(2n-1) <= CHUNK, _sym_reduction memoizes at every
  x the class times |C| plus T-row-0's share of the index, the codes of -P_e
  and the hyp class; elsewhere the step runs on the rows themselves.
Where the step runs on the rows of each chunk, it reads every row's high
digits, from a copy of the digits made once per call.

A split returns per-call labels, the rows that vary and a tail. In each chunk
a row has its per-call label plus the chunk's shift, except the rows the tail
lists, (rows, their labels, shift); _scatter makes one int8 array of a chunk
from these for _walk (and so _codes), row_labels and the batch_* wrappers. The
row-0 steps report every row as varying and list every row. The Pfaffian split
finds the rows that vary by comparisons of its per-call codes. A Pfaffian whose
terms with a high digit all have a low factor x_i is affine in the high
digits, so it is constant iff every x_i is 0, that is iff its code is below q,
and then it equals P; a term with two high digits makes it vary. The Pfaffian
bit of a row is fixed if a Pfaffian with no high term or a constant one is
nonzero (it is 1), or if every Pfaffian with a high term is constant (it is
the per-call bit). min(count, 1) is 1 in every chunk once a low digit is
nonzero, so for alt the shift is 0, and a varying row has bit 0 per call.
vec (no Pfaffians, cap = dim) never reaches its cap: every row has the low
count of nonzero coordinates plus the chunk's count of nonzero high digits,
which is the shift, and no row varies.

Most varying rows of a chunk have a nonzero Pfaffian, and so a nonzero entry
and label cap + 1, which is their per-call label. So a chunk lists only the
candidates: the varying rows at which every leading Pfaffian is 0. Per call,
the leading Pfaffians with a high term, in order, as many as keep the product
of their code ranges q^(1 + number of low factors) within TABLE, give each
varying row one joint code. Per chunk, the outer AND of each one's table
"0 at this code" gives the joint codes of the candidates, and the other
Pfaffians are read at the candidates alone: on average 1,303 of the 63,245
varying rows of a chunk of alt n=5 q=5.

orbit_counts folds the rows that do not vary once per call: one (label, key)
histogram per group, which each member sums by its map into (nbins, p), and
each chunk adds that rolled by its t_hi and moved up the label axis by its
shift. So vec, with no varying rows, runs no bincount and no member fold per
chunk. The rows a chunk lists run one bincount over (label, key) per group.
Where they are only some of the varying rows, the others count at their
per-call label plus the shift, by complement: the key histogram of every
varying row, kept per call, minus the listed rows' keys.

row_labels runs a split at k = dim on a given code array: every digit is low,
so the rows are one chunk. coset_counts labels an affine coset,
a fixed code vector plus the span of some coordinates, that way and folds it
into one histogram; the commutative diagrams take their fibers from it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial

import numpy as np

from .gfq import Arith, _frozen, _mod, _outer_sum, arith
from .spaces import AltMat, MatRect, Space, SymGL, SymScaled, VecWreath

CHUNK = 1 << 19
MIN_ROWS = 1 << 16
TABLE = 1 << 16  # the largest table a chunk builds: a group's (label, key) counts, the leading Pfaffians' joint codes


def _digits(start: int, stop: int, dim: int, q: int, out: np.ndarray | None = None) -> np.ndarray:
    """(B, dim) base-q digits of start..stop-1, one contiguous column each, written into out, a (dim, B) array, if given.

    int32, not narrower: the callers' products of digits must not wrap.
    """
    out = np.empty((dim, stop - start), dtype=np.int32) if out is None else out
    if start == 0 and stop == q**dim:  # every digit string: digit k runs through 0..q-1, each held for q^k codes
        m = next((i for i in range(dim) if q**i >= 64), dim)  # digits below m repeat with period B = q^m: fill one, copy it
        B = q**m
        for k in range(dim):
            (out[k] if k >= m else out[k, :B]).reshape(-1, q, q**k)[:] = np.arange(q, dtype=np.int32)[:, None]
        if m < dim:  # from a copy: numpy would expand a source that overlaps out to the full shape first
            out[:m, B:].reshape(m, -1, B)[:] = out[:m, None, :B].copy()  # a view: runs of B, not of q^k
        return out.T
    idx = np.arange(start, stop, dtype=np.int32 if stop <= 2**31 else np.int64)
    for k in range(dim):
        nxt = idx // q
        out[k] = idx - nxt * q  # not np.divmod: see _mod
        idx = nxt
    return out.T


def _low_width(dim: int, q: int) -> int:
    """The k of _walk's chunks, and the cap of _plan's: the largest k <= dim with q^k <= CHUNK, and at least 1 when
    dim >= 1 (also for q > CHUNK). Only _walk uses it as it is: it labels every chunk and has no scalar fold."""
    return max(min(dim, 1), next((k for k in range(dim, 0, -1) if q**k <= CHUNK), 0))


def _plan(dim: int, q: int, K0: int) -> int:
    """The k of orbit_counts for a space of dim digits whose row-0 step reads K0 digits: the smallest k with
    q^k >= MIN_ROWS, and k >= K0 where q^K0 <= CHUNK, at most _low_width (module docstring). The rows a call
    touches, q^k (1 + V(k)) = (2 - 1/(p-1)) q^k + q^dim / (p-1), grow with k."""
    return min(_low_width(dim, q), max(K0 if q**K0 <= CHUNK else 0, next(k for k in itertools.count(1) if q**k >= MIN_ROWS)))


def _chunks(split, dim: int, *args, k=None, visit=None):
    """(per-call labels, varying rows, an iterator of (listed rows, their labels, shift) per chunk).

    The space has dim digits over the field of args[-1]. split(digits, k, *args)
    runs once; a row has its per-call label plus the chunk's shift in every
    chunk, unless the chunk lists it (module docstring). k is the number of low digits, by
    default _low_width; visit holds the codes sum_i q^i s_i of the chunks to
    label, s their high digits; by default every chunk, in order.
    """
    q = args[-1].q
    if dim == 0:  # one element, the zero matrix, with label 0 in every family
        return _frozen(np.zeros(1, dtype=np.int8)), _frozen(np.zeros(1, dtype=bool)), iter([(slice(0), np.zeros(0, dtype=np.int8), 0)])
    k = _low_width(dim, q) if k is None else k
    buf = np.zeros((dim, q**k), dtype=np.int32)  # one digit row per coordinate; a chunk sets the high digits of row 0
    _digits(0, q**k, k, q, out=buf[:k])  # low digits: all of GF(q)^k, the same in every chunk
    digits = buf.T
    digits.flags.writeable = False  # the kernels must not write into rows later chunks reuse
    labels, varies, tail = split(digits, k, *args)

    def chunks():
        for chunk in range(q ** (dim - k)) if visit is None else visit:
            buf[k:, 0] = [chunk // q**i % q for i in range(dim - k)]  # the tails read the high digits there alone
            yield _label_indices(tail, digits)

    return labels, varies, chunks()


def _scatter(labels: np.ndarray, chunk) -> np.ndarray:
    """The int8 labels of every row of a chunk: the per-call labels plus its shift, and the tail's at the rows it lists."""
    rows, lab, shift = chunk
    out = labels + shift
    out[rows] = lab
    return out


def _walk(split, dim: int, *args):
    """The labels of the dim-digit space over the field of args[-1], one int8 array per chunk (_chunks)."""
    labels, _, chunks = _chunks(split, dim, *args)
    for chunk in chunks:
        yield _scatter(labels, chunk)


def _label_indices(tail, digits: np.ndarray):
    """(listed rows, their labels, shift) of one chunk, by the tail that a split returned; the high digits are digits[0, k:]."""
    return tail(digits)


def _labels(split, digits: np.ndarray, *args) -> np.ndarray:
    """The label codes of every row of digits by one pass of split at k = dim: every digit is low, so the rows are one chunk."""
    labels, _, tail = split(digits, digits.shape[1], *args)
    return _scatter(labels, _label_indices(tail, digits))


@lru_cache(maxsize=None)
def _codes(split, dim: int, *args) -> np.ndarray:
    """The read-only labels that split gives the dim-digit space over the field of args[-1], in counting order."""
    return _frozen(np.concatenate(list(_walk(split, dim, *args))))


def _code(digits: np.ndarray, q: int) -> np.ndarray:
    """The int32 code sum_c q^c digits[:, c] of each row."""
    out = np.zeros(len(digits), dtype=np.int32)
    for c in reversed(range(digits.shape[1])):
        out *= q
        out += digits[:, c]
    return out


def _normalize(b: np.ndarray, F: Arith) -> tuple[np.ndarray, np.ndarray]:
    """(b / b_j, j) for each column b of the array b, b_j its first nonzero entry; a zero column stays zero, with j = 0."""
    j = np.zeros(b.shape[1], dtype=np.intp)
    for c in reversed(range(len(b))):  # a pass per entry: faster than argmax on few entries
        np.copyto(j, c, where=b[c] != 0)
    return F.vreduce(F.vmul(b, F.inv_table[b[j, np.arange(b.shape[1])]])), j


@lru_cache(maxsize=None)
def _classes(d: int, F: Arith) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, J, cls), read-only: the columns of U are the vectors of GF(q)^d that are zero or have first nonzero entry 1,
    zero first, J holds their pivots j, and cls[x] is the column of U at b / b_j for the vector b coded x."""
    u, j = _normalize(_digits(0, F.q**d, d, F.q).T, F)
    _, first, cls = np.unique(_code(u.T, F.q), return_index=True, return_inverse=True)
    return _frozen(np.ascontiguousarray(u[:, first])), _frozen(j[first]), _frozen(cls.astype(np.int32))


def _rest(digits: np.ndarray, K0: int, k: int, apply, u: np.ndarray, j: np.ndarray, w: np.ndarray, q: int):
    """(sum of w_e S_e over the low entries e, sum_i q^i S_i over the high ones) per row of digits, S = apply(R, u, j),
    R the rest of each row, its digits K0.., in a column with the high ones (digits k..) zero. In blocks of 2^14 rows:
    the heap then reuses the temporaries, which at full size it would map and fault in again each time."""
    lo, hi = np.zeros((2, len(digits)), dtype=np.int32)
    for s in range(0, len(digits), 1 << 14):
        b = slice(s, s + (1 << 14))
        R = np.zeros((len(w), len(lo[b])), dtype=np.int32)
        R[: k - K0] = digits[b, K0:k].T
        S = apply(R, u[:, b], j[b]) if len(R) else R  # alt n=2 and mat n=1 have no rest
        lo[b] = sum(w[e] * S[e] for e in range(k - K0))
        hi[b] = q ** np.arange(len(w) - k + K0, dtype=np.int32) @ S[k - K0 :]
    return lo, hi


def _row0_split(digits, k: int, F: Arith, K0: int, w: np.ndarray, table: np.ndarray, index, classes, apply):
    """The split of a row-0 step whose rest, the digits K0.. of a row, enters linearly (module docstring).

    index(digits, k) gives each row's index in table without its high terms, and its code z q^h + sum_i q^i L_i. The
    columns of U for (U, J, cls) = classes are the u of each class z, J their pivots j; apply(R, u, j) runs the step on
    the rest R (_rest), and w is the weight of each rest entry in the index.
    """
    q, dim = F.q, digits.shape[1]
    fixed = tuple(map(_frozen, index(digits, k))) if K0 <= k < dim else None  # else each chunk runs the step on its rows
    full = np.array(digits.T) if fixed is None and k < dim else None  # there, a writable copy that takes every row's high digits

    def tail(digits: np.ndarray) -> tuple[slice, np.ndarray, int]:
        if fixed is None:  # row 0 has a high digit, or no entry has
            if full is not None:
                full[k:] = digits[0, k:, None]
                digits = full.T
            return slice(None), np.take(table, index(digits, dim)[0]), 0
        s = np.zeros((len(w), 1), dtype=np.int32)
        s[k - K0 :, 0] = digits[0, k:]
        U, J, _ = classes
        Y = apply(np.broadcast_to(s, (len(w), len(J))), U, J)[k - K0 :]  # the high terms of each class
        lut = np.zeros((len(J), 1), dtype=np.int32)  # lut[z q^h + sum_i q^i L_i] = sum_i w vreduce(L_i + Y_iz)
        for i, wi in enumerate(w[k - K0 :]):
            lut = (wi * F.vreduce(F.vadd(np.arange(q, dtype=np.int32), Y[i, :, None]))[:, :, None] + lut[:, None, :]).reshape(len(J), -1)
        at = np.take(lut, fixed[1])  # take: faster than [] on narrow indices
        return slice(None), np.take(table, np.add(at, fixed[0], out=at)), 0

    return np.broadcast_to(np.int8(0), len(digits)), np.broadcast_to(True, len(digits)), tail  # read-only, no memory


def _pivot_split(digits, k: int, F: Arith, K0: int, T: np.ndarray, apply):
    """The split of a step on row 0, the first K0 digits b: the rest, in the order of the (n-1) table T, becomes
    S = apply(rest, u, j), u = b / b_j, and the label is [T, T+1][[b != 0] |T| + the index of S] (module docstring)."""
    q, dim = F.q, digits.shape[1]
    w = _frozen(q ** np.arange(dim - K0, dtype=np.int32))
    classes = _classes(K0, F) if K0 <= k < dim else None

    def index(digits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        b = digits[:, :K0]
        if classes is None:  # every digit is known: the step on these rows
            z, (u, j) = 0, _normalize(b.T, F)
        else:  # the class of each row, read at the code of b
            U, J, cls = classes
            z = np.take(cls, _code(b, q))
            u, j = np.take(U, z, axis=1), np.take(J, z)  # take: faster than []
        lo, hi = _rest(digits, K0, k, apply, u, j, w, q)
        return b.any(axis=1) * np.int32(len(T)) + lo, z * q ** (dim - k) + hi

    return _row0_split(digits, k, F, K0, w, _frozen(np.concatenate([T, T + 1])), index, classes, apply)


def _positions(n: int, diagonal: bool) -> np.ndarray:
    """(n, n) digit position of entry (i, j) and of (j, i) in row-major upper-triangular order."""
    iu, ju = np.triu_indices(n, 0 if diagonal else 1)
    pos = np.zeros((n, n), dtype=np.intp)
    pos[iu, ju] = pos[ju, iu] = np.arange(len(iu))
    return pos


@lru_cache(maxsize=None)
def _mat_reduction(m: int, F: Arith) -> np.ndarray:
    """G[R q^m + r], the code of R - (R[j] / r[j]) r for every two rows R and r of GF(q)^m, j the first nonzero entry of r.

    Where r = 0 the code is that of R.
    """
    D = _digits(0, F.q**m, m, F.q)  # D[x, c]: entry c of the row coded x
    u, j = _normalize(D.T, F)  # u[:, r] = r / r[j], 0 where r = 0
    f, G = D[:, j], 0  # f[R, r] = R[j]
    for c in reversed(range(m)):
        G = G * F.q + F.vreduce(F.vsub(D[:, c, None], F.vmul(f, u[c])))
    return _frozen(G.ravel())


def _mat_split(digits, k: int, n: int, m: int, F: Arith):
    """Per-call row-0 step of the ranks of n x m matrices (module docstring); returns the per-chunk tail."""
    q, qm = F.q, F.q**m
    T = _codes(_mat_split, (n - 1) * m, n - 1, m, F)
    if q ** (2 * m) > CHUNK:  # no table G: the pivot step
        return _pivot_split(digits, k, F, m, T, partial(_mat_apply, F=F))
    r0, G, table = _code(digits[:, : min(m, k)], q), _mat_reduction(m, F) if n > 1 else None, _frozen(np.concatenate([T, T + 1]))
    idx = (r0 != 0).astype(np.int32 if 2 * len(T) < 2**31 else np.int64) * len(T)
    high = []  # (G index of the low digits of row i, the weight of row i in T, the high digits of row i)
    for i in range(1, n):
        at = _code(digits[:, i * m : min((i + 1) * m, k)], q) * qm + r0  # the code of row i from its low digits, a prefix
        if (i + 1) * m <= k:
            idx += q ** ((i - 1) * m) * np.take(G, at)  # take: faster than [] on narrow indices
        else:
            high.append((_frozen(at), q ** ((i - 1) * m), [(i * m + c, qm * q**c) for c in range(m) if i * m + c >= k]))
    idx = _frozen(idx)

    def tail(digits: np.ndarray) -> tuple[slice, np.ndarray, int]:
        lab = idx
        for at, w, cols in high:  # the high digits add one offset to the row's G index
            lab = lab + w * np.take(G, at + sum(v * int(digits[0, t]) for t, v in cols))
        return slice(None), np.take(table, lab), 0

    return np.broadcast_to(np.int8(0), idx.shape), np.broadcast_to(True, idx.shape), tail  # read-only, no memory


def _mat_apply(R: np.ndarray, u: np.ndarray, j: np.ndarray, F: Arith) -> np.ndarray:
    """R_i - R_i[j] u for each row R_i of the (n-1) x m matrices in the columns of R, and the vectors u in the columns of
    the (m, B) array u, each zero or with first nonzero entry u_j = 1."""
    (m, B), R = u.shape, R.reshape(-1, *u.shape)
    f = np.take(R.reshape(len(R), m * B), j * B + np.arange(B), axis=1)  # (n-1, B): R_i[j]
    return F.vreduce(F.vsub(R, F.vmul(f[:, None, :], u))).reshape(-1, B)


def batch_rank(digits: np.ndarray, n: int, m: int, F: Arith) -> np.ndarray:
    """Ranks of n x m matrices from their row-major digits (module docstring)."""
    return _labels(_mat_split, digits, n, m, F)


def _sym_row0(D: np.ndarray, n: int, F: Arith):
    """The row-0 step of symmetric n x n matrices at rows D of their first 2n - 1 digits, row 0 and row 0 of T (module docstring).

    Returns base, the class times |C| plus T-row-0's share of the (n-1) index; neg[e], the code of -P_e at each entry
    e of T' (P_e = u_l b_m), int8 where every code fits, for the _sym_reduction memo holds it; and hyp, the class of
    u' = (u_1..u_{n-2}) where the step reads T' (a = b_0 = T_00 = 0, b != 0), else 0.
    """
    a, b, t0 = D[:, 0].copy(), D[:, 1:n].copy(), D[:, n:]  # t0 = row 0 of T
    hyp = np.zeros(len(D), dtype=np.int32)
    if n == 1:  # no b and no T
        return (a != 0) + (F.sgn_table[a] < 0).astype(np.int32), np.zeros((0, len(D)), np.int32), hyp
    z = np.flatnonzero(a == 0)
    add = z[(b[z, 0] != 0) | (t0[z, 0] != 0)]  # c times row and column 1 into row and column 0
    two = F.vadd(b[add, 0], b[add, 0])
    c = np.where(F.vreduce(F.vadd(two, t0[add, 0])) == 0, F.neg(1), 1)  # c = -1 where T_00 = -2 b_0
    a[add] = F.vreduce(F.vadd(t0[add, 0], F.vmul(c, two)))  # c (2 b_0 + c T_00)
    b[add] = F.vreduce(F.vadd(b[add], F.vmul(c[:, None], t0[add])))
    u = F.vreduce(F.vmul(b, F.inv_table[a][:, None]))  # b / a; zero where a = 0
    S0 = F.vreduce(F.vsub(t0, F.vmul(u[:, :1], b)))  # t0_d - u_0 b_d
    h = z[(a[z] == 0) & b[z].any(axis=1)]  # now b_0 = 0: the hyperbolic plane on {0, j + 1}, j >= 1 the first b_j != 0
    uh, j = _normalize(b[h].T, F)
    u[h] = uh.T  # b / b_j
    S0[h] = F.vreduce(F.vsub(t0[h], F.vmul(u[h], t0[h, j][:, None])))  # t0_d - u_d t0_j, 0 at d = j
    if h.size:
        hyp[h] = np.take(_classes(n - 2, F)[2], _code(u[h, 1:], F.q))
    cls = (a != 0) + (F.sgn_table[a] < 0).astype(np.int32)
    cls[h] = 3
    iu, ju = np.triu_indices(n - 2)
    neg = np.ascontiguousarray(F.vreduce(F.vneg(F.vmul(u[:, 1 + iu], b[:, 1 + ju]))).T, dtype=np.int8 if F.q <= 128 else np.int32)
    base = cls * F.q ** (n * (n - 1) // 2) + sum(F.q**d * S0[:, d] for d in range(n - 1))  # not @: numpy has no fast int matmul
    return base.astype(np.int32), neg, hyp


@lru_cache(maxsize=None)
def _sym_reduction(n: int, F: Arith):
    """_sym_row0 at every code of the first 2n - 1 digits, read-only.

    In blocks of 2^14 codes: the temporaries of one pass over all q^(2n-1) codes would take 100 bytes a code.
    """
    X = F.q ** (2 * n - 1)
    parts = [_sym_row0(_digits(s, min(s + (1 << 14), X), 2 * n - 1, F.q), n, F) for s in range(0, X, 1 << 14)]
    return tuple(_frozen(np.concatenate(t, axis=-1)) for t in zip(*parts))


def _schur(R: np.ndarray, u: np.ndarray, j: np.ndarray, F: Arith, skew: bool = False) -> np.ndarray:
    """P R P^T, P = I - u e_j^T, for the symmetric d x d matrices in the columns of R, in row-major upper-triangular order
    (with skew: alternating ones, without the diagonal), and the columns of u, vectors that are zero or have first nonzero
    entry u_j = 1 (j = 0 for u = 0).

    S_cd = R_cd - u_c (R_jd - u_d R_jj) - u_d R_cj: linear in R, zero on row and column j, and R where u = 0.
    """
    (d, B), cols = u.shape, np.arange(u.shape[1])
    iu, ju = np.triu_indices(d, int(skew))
    Rj = _build_matrices(R, j, d, F) if skew else R[_positions(d, True)[j].T, cols]  # row j of each matrix
    v = Rj if skew else F.vreduce(F.vsub(Rj, F.vmul(u, Rj[j, cols])))  # R_jd - u_d R_jj; R_jj = 0 if skew
    return F.vreduce((F.vadd if skew else F.vsub)(F.vsub(R, F.vmul(u[iu], v[ju])), F.vmul(u[ju], Rj[iu])))  # R_cj = -R_jc if skew


def _sym_split(digits, k: int, n: int, F: Arith):
    """Per-call row-0 step of the codes of symmetric n x n matrices (module docstring); returns the per-chunk tail."""
    q, dim, K0, E = F.q, digits.shape[1], 2 * n - 1, (n - 1) * (n - 2) // 2  # the row-0 code has K0 digits, T' has E
    C = _codes(_sym_split, n * (n - 1) // 2, n - 1, F)
    table = _frozen(np.concatenate([C, C + 2, (C + 2) ^ 1, (C + 4) ^ int(F.sgn(F.neg(1)) < 0)]))  # by class
    w = _frozen(q ** (n - 1 + np.arange(E, dtype=np.int32)))  # the weight of each entry of T' in the (n-1) index
    classes = _classes(n - 2, F) if E else None  # class 0 is the identity, and u' has first nonzero entry 1
    apply = partial(_schur, F=F)

    def index(digits: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        if q**K0 <= CHUNK:  # the memoized step, read at each row's row-0 code x
            base, neg, hyp = _sym_reduction(n, F)
            at = partial(np.take, indices=_code(digits[:, :K0], q))
        else:  # the step on these rows
            base, neg, hyp = _sym_row0(digits[:, :K0], n, F)
            at = lambda t: t  # noqa: E731
        base = idx = at(base)
        for e in range(k - K0):
            idx = idx + w[e] * F.vreduce(F.vadd(digits[:, K0 + e], at(neg[e])))
        code, hyp = at((q ** np.arange(dim - k) @ neg[k - K0 :]).astype(np.int32)), at(hyp)
        rows = np.flatnonzero(hyp)
        if rows.size:  # T' enters through P T' P^T
            z = hyp[rows]
            lo, hi = _rest(digits[rows], K0, k, apply, classes[0][:, z], classes[1][z], w, q)
            idx[rows] = base[rows] + lo
            code[rows] = z * q ** (dim - k) + hi
        return idx, code

    return _row0_split(digits, k, F, K0, w, table, index, classes, apply)


def batch_sym_rank_sign(digits: np.ndarray, n: int, F: Arith) -> np.ndarray:
    """Codes 2 rank + (sign < 0) of symmetric n x n matrices under congruence.

    digits holds the upper-triangular row-major coordinates, so row 0 is the
    first n columns and the trailing block T is in the (n-1) counting order.
    """
    return _labels(_sym_split, digits, n, F)


def _build_matrices(R: np.ndarray, j: np.ndarray, n: int, F: Arith) -> np.ndarray:
    """(n, B) rows w[l] = T_jl of the skew n x n matrices T in the columns of R, in row-major upper order, pivot j per matrix."""
    cols = np.arange(R.shape[1])
    w = R[_positions(n, False)[j].T, cols]
    w = np.where(np.arange(n)[:, None] < j, F.vneg(w), w)  # T_jl = -T_lj below the diagonal
    w[j, cols] = 0  # T_jj = 0
    return w


def _pfaffian_split(digits, k: int, n: int, cap: int, F: Arith):
    """The split of min(nonzero coordinates, cap) + [a principal Pfaffian is nonzero].

    These are the half-ranks of skew n x n matrices for n <= 5 and cap = 1 (module
    docstring), and the vec labels for n = 0 and cap = dim. A row varies unless its
    label is its per-call label plus the chunk's shift in every chunk; a chunk lists
    the varying rows at which every leading Pfaffian is 0, and the others have a
    nonzero Pfaffian, so label cap + 1 (module docstring).
    """
    pos = {pair: c for c, pair in enumerate(itertools.combinations(range(n), 2))}
    rank4, fixed, high = np.zeros(len(digits), dtype=bool), np.ones(len(digits), dtype=bool), []
    for i, j, kk, l in itertools.combinations(range(n), 4):
        # over F_p a sum stays int32: |pf| < 3 (p-1)^2 < 2^31 for p < 26755; a larger p has |A| >= p^6 > 10^26
        pf, terms = np.zeros(len(digits), dtype=np.int32), []
        for sign, x, y in ((1, (i, j), (kk, l)), (-1, (i, kk), (j, l)), (1, (i, l), (j, kk))):
            c, d = sorted((pos[x], pos[y]))
            if d < k:
                pf = (F.vadd if sign > 0 else F.vsub)(pf, F.vmul(digits[:, c], digits[:, d]))
            else:
                terms.append((sign, c, d))
        low = [c for _, c, _ in terms if c < k]  # code = P + sum q^(i+1) x_i over the low factors x_i
        code = F.vreduce(pf) + sum(F.q ** (i + 1) * digits[:, c] for i, c in enumerate(low))
        if not terms:
            rank4 |= code != 0
            continue
        if len(low) < len(terms):  # a term with two high digits: the Pfaffian is never constant
            fixed[:] = False
        else:  # affine in the high digits: constant, and equal to P, iff every low factor is 0
            const = code < F.q
            fixed &= const
            rank4 |= const & (code != 0)
        codes = F.q ** (1 + len(low))
        high.append((code.astype(np.int8 if codes <= 128 else np.int32), codes, terms))
    nonzero = (digits[:, :k] != 0).sum(axis=1, dtype=np.int8)
    grows = cap >= digits.shape[1]  # the count never reaches cap: it grows by the chunk's nonzero high digits
    varies = ~((rank4 | fixed) & (grows | (nonzero >= cap)))
    labels = np.minimum(nonzero, cap) + rank4
    labels[varies] = cap + 1  # a varying row that a chunk does not list has a nonzero Pfaffian, so a nonzero entry
    rows = _frozen(np.flatnonzero(varies).astype(np.int32))
    nonzero, joint, size, lead = _frozen(nonzero[rows]), np.zeros(len(rows), dtype=np.int32), 1, 0
    for code, codes, _ in high:  # the leading Pfaffians: one joint code per varying row over a table of <= TABLE codes
        if size * codes > TABLE:
            break
        joint += np.int32(size) * code[rows]
        size, lead = size * codes, lead + 1
    rest = [(_frozen(code[rows]), terms) for code, _, terms in high[lead:]]
    lead, joint = [terms for _, _, terms in high[:lead]], _frozen(joint)

    def zero(terms, digits: np.ndarray) -> np.ndarray:
        """Whether the Pfaffian is 0 at every code, one base-q digit per low factor."""
        pf = np.arange(F.q, dtype=np.int32)
        for sign, c, d in terms:
            x = np.arange(F.q, dtype=np.int32)[:, None] if c < k else digits[0, c]
            pf = (F.vadd if sign > 0 else F.vsub)(pf, F.vmul(x, digits[0, d])).ravel()
        return F.vreduce(pf) == 0

    def tail(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        ok = np.ones(1, dtype=bool)  # every leading Pfaffian is 0, at each joint code
        for terms in lead:
            ok = np.logical_and.outer(zero(terms, digits), ok).ravel()
        cand = np.flatnonzero(np.take(ok, joint))
        r4 = np.zeros(len(cand), dtype=bool)
        for code, terms in rest:  # the other Pfaffians at the candidates alone
            r4 |= ~np.take(zero(terms, digits), np.take(code, cand))
        shift = int(np.count_nonzero(digits[0, k:]))  # int: an np.int64 would widen the int8 labels
        return np.take(rows, cand), np.minimum(np.take(nonzero, cand) + shift, cap) + r4, shift if grows else 0

    return _frozen(labels), _frozen(varies), tail


def _alt_labels_pfaffian(digits: np.ndarray, n: int, F: Arith) -> np.ndarray:
    """Half-rank of skew matrices with n <= 5 from principal Pfaffians (_pfaffian_split)."""
    return _labels(_pfaffian_split, digits, n, 1, F)


def _step_split(digits, k: int, n: int, F: Arith):
    """Per-call hyperbolic-plane step of the half-ranks of skew n x n matrices (module docstring); returns the tail."""
    return _pivot_split(digits, k, F, n - 1, _codes(_alt_split, (n - 1) * (n - 2) // 2, n - 1, F), partial(_schur, F=F, skew=True))


def _alt_split(digits, k: int, n: int, F: Arith):
    return _pfaffian_split(digits, k, n, 1, F) if n <= 5 else _step_split(digits, k, n, F)


def _labeller(space: Space):
    """(split, its args, the label index of each label code, K0): K0 digits of row 0 feed the row-0 step, 0 without one."""
    F, nlab, n = arith(space.field), len(space.labels()), space.n
    if isinstance(space, VecWreath):
        return _pfaffian_split, (0, space.dim, F), np.arange(nlab), 0  # no Pfaffians: the count of nonzero coordinates
    if isinstance(space, MatRect):
        return _mat_split, (n, space.m, F), np.arange(nlab), space.m  # the G table and the pivot classes read row 0
    if isinstance(space, AltMat):
        return _alt_split, (n, F), np.arange(nlab), n - 1 if n > 5 else 0  # the Pfaffian split has no row-0 step
    if isinstance(space, (SymGL, SymScaled)):
        lut = np.zeros(2 * n + 2, dtype=np.intp)  # code 2 rank + (sign < 0) -> label index
        for i, lbl in enumerate(space.labels()):
            for neg in (0, 1) if lbl.sign is None else (int(lbl.sign < 0),):
                lut[2 * lbl.r + neg] = i
        return _sym_split, (n, F), lut, 2 * n - 1  # the _sym_reduction memo reads row 0 of A and of T
    raise TypeError(f"no bulk classifier for {type(space).__name__}")


def row_labels(space: Space, digits: np.ndarray) -> np.ndarray:
    """The label index of each row of a (B, dim) int32 code array, by _labels, the path of batch_rank."""
    split, args, lut, _ = _labeller(space)
    digits = _frozen(digits.view())  # read-only as in _walk, for the kernels only read; the caller's array stays writeable
    if not (space.dim and len(digits)):  # the zero space has label 0; the tails read row 0
        return np.zeros(len(digits), dtype=np.intp)
    return lut[_labels(split, digits, *args)]


def placed_labels(space: Space, positions: tuple[int, ...], shift: list[int], codes) -> np.ndarray:
    """The label index of each row of a (B, len(positions)) code array, set at those coordinates (zero elsewhere) plus shift."""
    F = arith(space.field)
    rows = np.zeros((len(codes), space.dim), dtype=np.int32)
    rows[:, list(positions)] = np.asarray(codes, dtype=np.int32).reshape(len(codes), len(positions))
    return row_labels(space, F.vreduce(F.vadd(rows, np.asarray(shift, dtype=np.int32))))


def coset_counts(space: Space, base: list[int], free: tuple[int, ...], coefvec: list[int]) -> np.ndarray:
    """(labels, p) histogram over (label index, t) of the coset base + span of the free coordinates.

    base holds the codes of the fixed coordinates (its free entries are ignored)
    and t = sum over k of Tr(coefvec[k] a_k).
    """
    F = arith(space.field)
    size = F.q ** len(free)
    digits = np.repeat(np.asarray([base], dtype=np.int32), size, axis=0)
    digits[:, list(free)] = _digits(0, size, len(free), F.q)
    t = _mod(sum(F.trace_table(c)[digits[:, k]] for k, c in enumerate(coefvec)), F.p)
    nbins = len(space.labels())
    return np.bincount(row_labels(space, digits).astype(np.intp) * F.p + t, minlength=nbins * F.p).reshape(nbins, F.p)


def _fold_groups(low: list[list[int]], nbins: int, p: int) -> list[tuple[list[int], list[tuple[int, list[int]]]]]:
    """Greedy groups of the functionals by their vectors low[r] of t_lo coefficients (module docstring).

    A group is (basis, members): t_lo of member (r, lam) is sum_j lam[j] t_lo(basis[j]) mod p.
    A group keeps nbins p^len(basis) <= TABLE, or holds one functional.
    """
    groups = []  # (basis, echelon rows (pivot, row, its coefficients in basis), members)
    for r, v in enumerate(low):
        for fresh in (not groups, True):
            if fresh:
                groups.append(([], [], []))
            basis, echelon, members = groups[-1]
            lam, rest = [0] * len(basis), v  # v = sum_j lam[j] low[basis[j]] + rest
            for piv, row, comb in echelon:  # each row is zero at the pivots before its own
                f = rest[piv]
                rest = [(a - f * b) % p for a, b in zip(rest, row)]
                lam = [(a + f * b) % p for a, b in itertools.zip_longest(lam, comb, fillvalue=0)]
            piv = next((i for i, a in enumerate(rest) if a), None)
            if piv is not None:
                if members and nbins * p ** (len(basis) + 1) > TABLE:
                    continue  # a new group
                s = pow(rest[piv], -1, p)
                echelon.append((piv, [a * s % p for a in rest], [-a * s % p for a in lam] + [s]))
                lam = [0] * len(basis) + [1]
                basis.append(r)
            members.append((r, lam))
            break
    return [(basis, [(r, lam + [0] * (len(basis) - len(lam))) for r, lam in members]) for basis, _, members in groups]


def _fold_keys(tabs, k: int, p: int, basis: list[int], members: list[tuple[int, list[int]]]):
    """(p^rho, the key of each low element, (r, order, nvals) per member) of one group, rho = len(basis) (module docstring).

    Sorted by order, the keys fall into nvals equal runs, one per value of the member's t_lo.
    """
    key = np.zeros(1, dtype=np.min_scalar_type(p ** len(basis) - 1))
    for j, b in enumerate(basis):
        key = key + p**j * _outer_sum(tabs[b][:k], p).astype(key.dtype)
    digits = _digits(0, p ** len(basis), len(basis), p)  # base-p digit j of a key is t_lo(basis[j])
    folds = []
    for r, lam in members:  # a nonzero map takes each value on p^(rho-1) keys, a zero map only 0
        t_lo = _mod(digits @ np.asarray(lam, dtype=np.int64), p)
        folds.append((r, np.argsort(t_lo, kind="stable"), p if any(lam) else 1))
    return p ** len(basis), _frozen(key), folds


def scalar_classes(field) -> tuple[int, int]:
    """(|S|, |N|) for S = F_p^* cap (GF(q)^*)^2 and N = F_p^* minus S: N is empty at p = 2 and at even e, where every
    element of F_p is a square of GF(p^2), a subfield of GF(q), and at odd e S and N are the squares and the nonsquares
    mod p."""
    p = field.p
    return ((p - 1) // 2,) * 2 if p > 2 and field.e % 2 else (p - 1, 0)


def _scalar_fold(H: np.ndarray, flip: np.ndarray, square: np.ndarray) -> np.ndarray:
    """sum over lambda in F_p^* of H[r, pi_lambda L, t / lambda] at t = 0, at t in S and at t in N, an (nfun, nbins, 3)
    array, for (nfun, nbins, p) histograms H over (functional r, label code L, t).

    pi_lambda is flip where square[lambda - 1] is False and the identity elsewhere. At t != 0 the sum reads only the
    sums of H over the squares S and over the rest N (module docstring); the last column is meaningless where N is empty.
    """
    nonzero = H[..., 1:]
    s = nonzero @ square.astype(np.int64)  # no copy of H, as a mask would make
    n = nonzero.sum(axis=2) - s
    zero = np.count_nonzero(square) * H[..., 0] + np.count_nonzero(~square) * H[:, flip, 0]
    return np.stack([zero, s + n[:, flip], n + s[:, flip]], axis=2)


def orbit_counts(space: Space, coefvecs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Histogram pass over the whole space, in chunks of q^k consecutive elements.

    coefvecs[r][k] is the code of the coefficient c of free coordinate k in
    the r-th functional a -> sum_k Tr(c a_k), with at least one functional.
    Every histogram H(L, t) is constant at t != 0 on S = F_p^* cap (GF(q)^*)^2
    and on N = F_p^* minus S (scalar_classes), for the scalars of S fix every
    label. So it returns an (n_functionals, n_labels, 3) count array of H
    at t = 0, at one t in S and at one t in N (a zero column where N is
    empty), plus the orbit sizes H(L, 0) + |S| H(L, S) + |N| H(L, N).
    Each visited chunk runs one bincount over (label, key) of the rows it lists
    per group of functionals, the key coding an F_p basis of the group's t_lo,
    and one chunk per class of scalar multiples stands for its class (module
    docstring).
    """
    F = arith(space.field)
    p, q, dim = F.p, F.q, space.dim
    split, args, lut, K0 = _labeller(space)
    nbins, k = len(lut), _plan(dim, q, K0)
    tabs = [[F.trace_table(c) for c in coef] for coef in coefvecs]
    t_hi = [_outer_sum(tab[k:], p).tolist() for tab in tabs]  # t over the high digits, one value per chunk
    low = [[int(tab[w]) for tab in tb[:k] for w in F._weights] for tb in tabs]  # Tr(c_k w_i) at low digit (k, i)
    groups = [_fold_keys(tabs, k, p, *group) for group in _fold_groups(low, nbins, p)]
    # chunk 0, then one chunk per class {lambda s}: the codes whose top base-p digit is 1
    visit = [0, *itertools.chain(*(range(p**i, 2 * p**i) for i in range((dim - k) * space.field.e)))]
    labels, varies, chunks = _chunks(split, dim, *args, k=k, visit=visit)
    nvar, left = np.count_nonzero(varies), int(labels[varies.argmax()])  # the per-call label of every varying row
    for g, (nkeys, key, folds) in enumerate(groups):  # per call: the rows that do not vary, folded by each member
        key = np.broadcast_to(key, varies.shape)  # one key for all when the basis is empty
        h = np.bincount(labels[~varies].astype(np.intp) * nkeys + key[~varies], minlength=nbins * nkeys).reshape(nbins, nkeys)
        fixed = [h[:, order].reshape(nbins, nvals, -1).sum(axis=2) for _, order, nvals in folds]
        # each key is the t_lo of an F_p basis, independent over all of GF(q)^k, so q^k / nkeys low elements take it
        groups[g] = nkeys, key, len(key) // nkeys - h.sum(axis=0) if nvar else None, fixed, folds
    codes = np.arange(nbins)  # a nonsquare lambda flips the sign of an odd sym rank and fixes every other label
    flip, square = (codes ^ (codes >> 1 & 1), F.sgn_table[1:p] > 0) if split is _sym_split else (codes, np.ones(p - 1, dtype=bool))
    # t = 0, t = 1 in S, and for N the first t outside S where the fold splits F_p^*, else t = 1: no label tells them apart
    reps = [0, 1, 1 + int(np.argmin(square))]
    first = np.zeros((len(coefvecs), nbins, 3), dtype=np.int64)  # chunk 0, closed under scalars, at the t of reps
    scaled = np.zeros((len(coefvecs), nbins, p), dtype=np.int64)  # the visited chunks other than chunk 0, by t
    buf = np.empty(nvar, dtype=np.intp)  # after the split, whose own peak it would otherwise raise
    for chunk, (rows, lab, shift) in zip(visit, chunks):
        for nkeys, key, var_h, fixed, folds in groups:
            if nvar:  # the listed rows by (label, key); a varying row left out has label left + shift
                at, b = key[rows], buf[: len(lab)]
                np.multiply(lab, nkeys, out=b, dtype=np.intp)  # in intp: int8 labels times nkeys would wrap
                h = np.bincount(np.add(b, at, out=b), minlength=nbins * nkeys).reshape(nbins, nkeys)
                if len(lab) < nvar:
                    h[left + shift] += var_h - np.bincount(at, minlength=nkeys)
            for (r, order, nvals), f in zip(folds, fixed):
                if chunk:  # t = t_lo + t_hi
                    into, cols, take = scaled[r], (np.arange(nvals) + t_hi[r][chunk]) % p, slice(None)
                else:  # t_hi = 0: t_lo at the t of reps, or at 0 alone for a zero map
                    take = reps if nvals > 1 else [0]
                    into, cols = first[r], slice(len(take))
                if nvar:
                    into[:, cols] += h[:, order].reshape(nbins, nvals, -1).sum(axis=2)[:, take]
                if nvar < len(varies):  # the other rows, folded once: their labels move up by the chunk's shift
                    into[shift:, cols] += f[: nbins - shift, take]
    to_label = (np.arange(len(space.labels()))[:, None] == lut).astype(np.int64)  # sums the codes of each label
    counts = to_label @ (first + _scalar_fold(scaled, flip, square))
    nS, nN = scalar_classes(space.field)
    if not nN:
        counts[..., 2] = 0
    return counts, counts[0] @ np.array([1, nS, nN])  # every histogram counts each element once
