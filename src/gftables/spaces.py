"""The four example orbit spaces and their classification invariants.

Each space is a finite vector space over GF(q) together with a linear group
action; what the rest of the package needs from the action is only the orbit
invariant (weight, rank, even rank, or rank with a quadratic sign), the label
set, canonical representatives, and closed-form orbit sizes where they exist.

Elements are flat tuples of field element codes (gfq), one per free
coordinate:

    vec  : the n vector entries
    mat  : all n*m entries, row major
    alt  : strict upper triangle, row major (lower triangle is forced)
    sym  : upper triangle including the diagonal, row major

Enumeration is base-q counting on the free coordinates (coordinate 0 is the
fastest digit), so streams, representatives, and exports are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import POLY_Q, PolyQ
from .gfq import FieldSpec, arith
from .pascal import check_n
from .qseries import binomial, gauss_binom_poly


class BudgetError(ValueError):
    """An enumeration would exceed the configured element budget."""


def check_budget(space: Space, budget: int) -> None:
    """The one budget check of an enumeration of the whole space."""
    if space.size > budget:
        raise BudgetError(f"|A| = {space.size} exceeds the budget {budget}")


@dataclass(frozen=True)
class OrbitLabel:
    """Orbit parameter: a weight or rank r, optionally with a sign.

    Sign +1 sorts before -1 inside one rank, which fixes row and column
    order of every exported table.
    """

    r: int
    sign: int | None = None

    def __str__(self) -> str:
        if self.sign is None:
            return str(self.r)
        return f"{self.r}{'+' if self.sign > 0 else '-'}"

    def __lt__(self, other: "OrbitLabel") -> bool:
        return (self.r, self.sign == -1) < (other.r, other.sign == -1)

    @classmethod
    def parse(cls, text: str) -> "OrbitLabel":
        if text.endswith("+"):
            return cls(int(text[:-1]), 1)
        if text.endswith("-"):
            return cls(int(text[:-1]), -1)
        return cls(int(text))


Elem = tuple[int, ...]
Matrix = list[list[int]]


def matrix_rank(rows: Matrix, field: FieldSpec) -> int:
    """Row rank over GF(q) by Gaussian elimination to row echelon form."""
    if not rows:
        return 0
    F = arith(field)
    mul, sub = F.mul, F.sub
    work = [list(r) for r in rows]
    rank = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top, inv = work[rank], F.inv(work[rank][col])
        for i in range(rank + 1, len(work)):
            if work[i][col]:
                f = mul(work[i][col], inv)
                work[i] = [sub(x, mul(f, y)) for x, y in zip(work[i], top)]
        rank += 1
        if rank == len(work):
            break
    return rank


def symmetric_sign(rows: Matrix, field: FieldSpec) -> tuple[int, int]:
    """(rank, sign) of a symmetric matrix by congruence diagonalization.

    Symmetric row/column operations preserve the congruence class. When a
    pivot diagonal entry is zero but some off-diagonal entry a_ij is not,
    adding row/column j into i creates the diagonal entry 2*a_ij, nonzero
    because the characteristic is odd. The sign is the quadratic character
    of the product of the nonzero diagonal entries; the zero matrix gets
    +1 by the sgn(0) = +1 convention.
    """
    F = arith(field)
    mul, sub = F.mul, F.sub
    n = len(rows)
    m = [list(r) for r in rows]
    rank = 0
    disc = 1
    for k in range(n):
        pivot = next((j for j in range(k, n) if m[j][j]), None)
        if pivot is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if m[i][j]), None)
            if off is None:
                break  # trailing block is zero
            i, j = off
            for c in range(n):
                m[i][c] = F.add(m[i][c], m[j][c])
            for r in range(n):
                m[r][i] = F.add(m[r][i], m[r][j])
            pivot = i
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            for r in range(n):
                m[r][k], m[r][pivot] = m[r][pivot], m[r][k]
        d = m[k][k]
        inv = F.inv(d)
        for i in range(k + 1, n):
            f = mul(m[i][k], inv)
            if f:
                m[i] = [sub(x, mul(f, y)) for x, y in zip(m[i], m[k])]
        for j in range(k + 1, n):
            f = mul(m[k][j], inv)
            if f:
                for r in range(n):
                    m[r][j] = sub(m[r][j], mul(f, m[r][k]))
        disc = mul(disc, d)
        rank += 1
    return rank, F.sgn(disc)


class Space:
    """Base class: a vector space over GF(q) with an orbit classification."""

    family: str

    def __init__(self, field: FieldSpec):
        self.field = field
        self.arith = arith(field)

    def _key(self):
        return (self.family, self.field, getattr(self, "n", None), getattr(self, "m", None))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Space):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # subclasses fill these in
    coords: tuple  # free coordinate positions
    pair_weights: tuple[int, ...]  # <a|b> = sum w_k a_k b_k

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def size(self) -> int:
        return self.field.q**self.dim

    def zero(self) -> Elem:
        return (0,) * self.dim

    def add(self, a: Elem, b: Elem) -> Elem:
        return tuple(map(self.arith.add, a, b))

    def pair(self, a: Elem, b: Elem) -> int:
        """The bilinear form trace(a^T b), restricted to this space."""
        if len(a) != self.dim or len(b) != self.dim:
            raise ValueError("shape mismatch")
        F, acc = self.arith, 0
        for w, x, y in zip(self.pair_weights, a, b):
            t = F.mul(x, y)
            acc = F.add(acc, F.add(t, t) if w == 2 else t)
        return acc

    def element_at(self, index: int) -> Elem:
        """Element number `index` in base-q counting order, coordinate 0 fastest."""
        q = self.field.q
        return tuple(index // q**k % q for k in range(self.dim))

    def elements(self, budget: int | None = None):
        if budget is not None:
            check_budget(self, budget)
        for i in range(self.size):
            yield self.element_at(i)

    # -- orbit interface -------------------------------------------------

    def labels(self) -> tuple[OrbitLabel, ...]:
        raise NotImplementedError

    def classify(self, elem: Elem) -> OrbitLabel:
        raise NotImplementedError

    def representative(self, label: OrbitLabel) -> Elem:
        raise NotImplementedError

    def orbit_size_poly(self, label: OrbitLabel) -> PolyQ:
        raise ValueError(
            "no closed form for symmetric orbit sizes; "
            "use brute counts or the sign-block first row"
        )

    def as_matrix(self, elem: Elem) -> Matrix:
        raise NotImplementedError

    def _check_label(self, label: OrbitLabel) -> None:
        if label not in self.labels():
            raise ValueError(f"label {label} is not legal for {self.describe()}")

    def describe(self) -> str:
        shape = f"n={self.n}" + (f", m={self.m}" if self.family == "mat" else "")
        return f"{self.family}({shape}, q={self.field.q})"

    def to_obj(self) -> dict:
        return {"family": self.family, "n": self.n, "q": self.field.q} | ({"m": self.m} if self.family == "mat" else {})


class VecWreath(Space):
    """GF(q)^n under coordinate scaling and permutation; orbits by weight."""

    family = "vec"

    def __init__(self, n: int, field: FieldSpec):
        super().__init__(field)
        self.n = n
        self.coords = tuple(range(n))
        self.pair_weights = (1,) * n

    def labels(self):
        return tuple(OrbitLabel(r) for r in range(self.n + 1))

    def classify(self, elem):
        return OrbitLabel(sum(1 for x in elem if x))

    def representative(self, label):
        self._check_label(label)
        return tuple(1 if i < label.r else 0 for i in range(self.n))

    def orbit_size_poly(self, label):
        self._check_label(label)
        return (POLY_Q - 1) ** label.r * binomial(self.n, label.r)

    def as_matrix(self, elem):
        return [list(elem)]


class _MatrixSpace(Space):
    """Shared plumbing for the matrix-shaped spaces."""

    nrows: int
    ncols: int

    def as_matrix(self, elem) -> Matrix:
        m = [[0] * self.ncols for _ in range(self.nrows)]
        for x, pos in zip(elem, self.coords):
            i, j = pos
            m[i][j] = x
            if self.family == "alt" and i != j:
                m[j][i] = self.arith.neg(x)
            elif self.family in ("sym", "symscaled") and i != j:
                m[j][i] = x
        return m

    def from_matrix(self, m: Matrix) -> Elem:
        return tuple(m[i][j] for i, j in self.coords)


class MatRect(_MatrixSpace):
    """n x m matrices (n <= m) under GL_n x GL_m; orbits by rank."""

    family = "mat"

    def __init__(self, n: int, m: int, field: FieldSpec):
        if n > m:
            raise ValueError("rectangular spaces require n <= m")
        super().__init__(field)
        self.n, self.m = n, m
        self.nrows, self.ncols = n, m
        self.coords = tuple((i, j) for i in range(n) for j in range(m))
        self.pair_weights = (1,) * (n * m)

    def labels(self):
        return tuple(OrbitLabel(r) for r in range(self.n + 1))

    def classify(self, elem):
        return OrbitLabel(matrix_rank(self.as_matrix(elem), self.field))

    def representative(self, label):
        self._check_label(label)
        return tuple(1 if (i == j and i < label.r) else 0 for i, j in self.coords)

    def orbit_size_poly(self, label):
        self._check_label(label)
        r = label.r
        out = PolyQ.monomial((-1) ** r, r * (r - 1) // 2) * gauss_binom_poly(self.n, r)
        for i in range(r):
            out = out * (1 - PolyQ.monomial(1, self.m - i))
        return out


class AltMat(_MatrixSpace):
    """Alternating n x n matrices under congruence; orbits by (even) rank."""

    family = "alt"

    def __init__(self, n: int, field: FieldSpec):
        if field.q % 2 == 0:
            raise ValueError("alternating spaces require odd q")
        super().__init__(field)
        self.n = n
        self.nrows = self.ncols = n
        self.coords = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        self.pair_weights = (2,) * len(self.coords)

    def labels(self):
        return tuple(OrbitLabel(r) for r in range(0, self.n + 1, 2))

    def classify(self, elem):
        r = matrix_rank(self.as_matrix(elem), self.field)
        if r % 2:
            raise AssertionError("alternating matrix with odd rank")
        return OrbitLabel(r)

    def representative(self, label):
        self._check_label(label)
        blocks = {(2 * i, 2 * i + 1) for i in range(label.r // 2)}
        return tuple(1 if pos in blocks else 0 for pos in self.coords)

    def orbit_size_poly(self, label):
        self._check_label(label)
        x = label.r // 2
        num = PolyQ.monomial((-1) ** x, x * (x - 1))
        for i in range(2 * x):
            num = num * (1 - PolyQ.monomial(1, self.n - i))
        den = PolyQ.const(1)
        for i in range(1, x + 1):
            den = den * (1 - PolyQ.monomial(1, 2 * i))
        return num.exact_div(den)


class _SymBase(_MatrixSpace):
    """The symmetric spaces; only the labels of odd ranks differ between the two."""

    def __init__(self, n: int, field: FieldSpec):
        if field.q % 2 == 0:
            raise ValueError("symmetric spaces require odd q")
        super().__init__(field)
        self.n = n
        self.nrows = self.ncols = n
        self.coords = tuple((i, j) for i in range(n) for j in range(i, n))
        self.pair_weights = tuple(1 if i == j else 2 for i, j in self.coords)

    def labels(self):
        out = [OrbitLabel(0)]
        for r in range(1, self.n + 1):
            if r % 2 and self.family == "symscaled":
                out.append(OrbitLabel(r))
            else:
                out += [OrbitLabel(r, 1), OrbitLabel(r, -1)]
        return tuple(out)

    def rank_and_sign(self, elem) -> tuple[int, int]:
        return symmetric_sign(self.as_matrix(elem), self.field)

    def classify(self, elem):
        r, s = self.rank_and_sign(elem)
        if r == 0:
            return OrbitLabel(0)
        return OrbitLabel(r) if r % 2 and self.family == "symscaled" else OrbitLabel(r, s)

    def representative(self, label):
        """diag(1, ..., 1, 0, ...) of rank r, with delta for its last 1 when the sign is -1."""
        self._check_label(label)
        vals = {(i, i): 1 for i in range(label.r)}
        if label.sign == -1:
            vals[(label.r - 1, label.r - 1)] = self.field.delta()
        return tuple(vals.get(pos, 0) for pos in self.coords)


class SymGL(_SymBase):
    """Symmetric n x n matrices under congruence; orbits by rank and sign."""

    family = "sym"


class SymScaled(_SymBase):
    """Symmetric matrices under scaling and congruence; odd-rank signs merge."""

    family = "symscaled"


def make_space(family: str, field: FieldSpec, n: int, m: int | None = None) -> Space:
    if family == "mat" and m is None:
        raise ValueError("mat spaces need both n and m")
    if family not in ("vec", "mat", "alt", "sym", "symscaled"):
        raise ValueError(f"unknown family {family!r}")
    check_n(n)
    if family == "mat":
        return MatRect(n, m, field)
    return {"vec": VecWreath, "alt": AltMat, "sym": SymGL, "symscaled": SymScaled}[family](n, field)
