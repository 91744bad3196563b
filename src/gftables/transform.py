"""Group-invariant Fourier machinery on the orbit spaces.

The canonical matrix of a pair is

    Phi(mu, lambda) = sum over a in O(lambda) of conj(theta_b(a)),

with b any representative of O(mu) and theta_b(a) = theta(<b|a>). Because the
actions are adjoint-free, rows (character orbits) and columns (orbits) share
one label set; the code asserts the consequences it relies on (trivial row =
orbit sizes, all-ones zero column) instead of assuming them.

bulk.orbit_counts gives, for each row, the count of each orbit at the
character values t = 0, t in S and t in N, the two classes of F_p^* on which
every whole-space histogram is constant. So each entry lies in
Z[eta] = Z[(1 + g)/2], g the quadratic Gauss sum of F_p, and is a QuadInt: a
rational integer everywhere but on sym at odd degree, where N is not empty.
The fibers of a diagram are affine cosets, and bulk.coset_counts gives the
same three counts for each of them, so every push (pushforward_matrix) lies
in Z[eta] too. Every check on canonical matrices (orthogonality, symmetry,
zonal values, the inverse transforms, multi-orthogonality and the diagram
identities) works in that ring, and _cyc_from_hist builds every entry.

Brute force is the oracle of the whole package: everything downstream
(recursions, closed forms, sign-block identities) is checked against the
matrices produced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from . import bulk
from .cyclotomic import QuadInt
from .gfq import CharSpec, default_char
from .reporting import Report
from .spaces import BudgetError, Elem, OrbitLabel, Space, check_budget

DEFAULT_BUDGET = 10**7


# ---------------------------------------------------------------------------
# histogram layer


def _pair_coefvec(space: Space, char: CharSpec, rep: Elem) -> list[int]:
    """Per-coordinate coefficient codes of a |-> twist * <rep|a>."""
    F = space.arith
    out = []
    for w, x in zip(space.pair_weights, rep):
        v = F.mul(char.twist, x)
        out.append(F.add(v, v) if w == 2 else v)
    return out


def _counts_pure(space: Space, char: CharSpec, reps: list[Elem], budget: int):
    """The element-by-element reference of the bulk histograms, by classify and scalar arithmetic.

    No enumeration path calls it; the tests check orbit_counts against it.
    """
    add, mul, trace, p = space.arith.add, space.arith.mul, space.arith.trace, space.field.p
    nlab = len(space.labels())
    index = {lbl: i for i, lbl in enumerate(space.labels())}
    coefs = [_pair_coefvec(space, char, rep) for rep in reps]
    hists = [[[0] * p for _ in range(nlab)] for _ in reps]
    sizes = [0] * nlab
    for a in space.elements(budget):
        li = index[space.classify(a)]
        sizes[li] += 1
        for r, coef in enumerate(coefs):
            acc = 0
            for cv, av in zip(coef, a):
                acc = add(acc, mul(cv, av))
            hists[r][li][trace(acc)] += 1
    return hists, sizes


def _counts_bulk(space: Space, char: CharSpec, reps: list[Elem], budget: int):
    check_budget(space, budget)
    hists, sizes = bulk.orbit_counts(space, [_pair_coefvec(space, char, rep) for rep in reps])
    return [h.tolist() for h in hists], sizes.tolist()


@lru_cache(maxsize=64)
def _orbit_counts_cached(space: Space, char: CharSpec, budget: int):
    reps = [space.representative(lbl) for lbl in space.labels()]
    return _counts_bulk(space, char, reps, budget)


def _cyc_from_hist(field, counts: list[list[int]]) -> tuple[QuadInt, ...]:
    """sum over t of H(t) zeta^t for each class count row (H(0), H on S, H on N), of a whole space or of a fiber.

    Where N is empty this is H(0) - H(S), as the sum of zeta^t over F_p^* is
    -1. Otherwise S and N are the squares and the nonsquares mod p, whose sums
    are eta and -1 - eta.
    """
    p = field.p
    if not bulk.scalar_classes(field)[1]:
        return tuple(QuadInt(p, h0 - hs) for h0, hs, _ in counts)
    return tuple(QuadInt(p, h0 - hn, hs - hn) for h0, hs, hn in counts)


# ---------------------------------------------------------------------------
# canonical matrices


@dataclass(frozen=True)
class CanonicalMatrix:
    space: Space
    char: CharSpec
    labels: tuple[OrbitLabel, ...]
    entries: tuple[tuple[QuadInt, ...], ...]  # rows: character orbits, cols: orbits
    orbit_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = [e.as_int() for e in self.entries[0]]
        if tuple(sizes) != self.orbit_sizes:
            raise AssertionError("trivial-character row does not match orbit sizes")
        if any(self.entries[i][0] != 1 for i in range(len(self.labels))):
            raise AssertionError("zero-orbit column is not all ones")

    @classmethod
    def from_integers(cls, space: Space, char: CharSpec, grid) -> CanonicalMatrix:
        """A recursion or closed-form table of integers (or integral fractions),
        checked against the space's closed-form orbit sizes."""
        if any(v.denominator != 1 for row in grid for v in row):
            raise AssertionError("table has non-integer entries")
        p, q = space.field.p, space.field.q
        entries = tuple(tuple(QuadInt(p, int(v)) for v in row) for row in grid)
        sizes = tuple(int(space.orbit_size_poly(lbl).eval_at(q)) for lbl in space.labels())
        return cls(space, char, space.labels(), entries, sizes)

    @property
    def nlabels(self) -> int:
        return len(self.labels)

    def index(self, label: OrbitLabel) -> int:
        return self.labels.index(label)

    def entry(self, mu: OrbitLabel, lam: OrbitLabel) -> QuadInt:
        return self.entries[self.index(mu)][self.index(lam)]

    def size_of(self, label: OrbitLabel) -> int:
        return self.orbit_sizes[self.index(label)]

    def total_size(self) -> int:
        return self.space.size

    def integer_entries(self) -> list[list[int]]:
        """All entries as plain integers; fails on genuinely irrational values."""
        return [[e.as_int() for e in row] for row in self.entries]

    def check_symmetry(self) -> bool:
        """size-normalized symmetry: Phi(mu,lam)/|lam| == Phi(lam,mu)/|mu|, at j > i: (j, i) is the same equality."""
        n = self.nlabels
        for i in range(n):
            for j in range(i + 1, n):
                lhs = self.entries[i][j] * self.orbit_sizes[i]
                rhs = self.entries[j][i] * self.orbit_sizes[j]
                if lhs != rhs:
                    return False
        return True

    def check_row_orthogonality(self) -> bool:
        """sum_mu |P(mu)| Phi(mu,a) conj(Phi(mu,b)) == delta_ab |O(a)| |A| at b >= a, the conjugate of the sum at (b, a)."""
        n = self.nlabels
        total = self.total_size()
        zero = QuadInt(self.space.field.p, 0)
        scaled = [[e * size for e in row] for row, size in zip(self.entries, self.orbit_sizes)]
        conj = [[e.conjugate() for e in row] for row in self.entries]
        for a in range(n):
            for b in range(a, n):
                acc = sum((scaled[mu][a] * conj[mu][b] for mu in range(n)), zero)
                if acc != (self.orbit_sizes[a] * total if a == b else 0):
                    return False
        return True


def brute_force_phi(space: Space, char: CharSpec | None = None, budget: int = DEFAULT_BUDGET) -> CanonicalMatrix:
    """The canonical matrix by direct character sums over every element."""
    char = char or default_char(space.field)
    hists, sizes = _orbit_counts_cached(space, char, budget)
    entries = tuple(tuple(e.conjugate() for e in _cyc_from_hist(space.field, hist)) for hist in hists)
    return CanonicalMatrix(space, char, space.labels(), entries, tuple(sizes))


def brute_phi_bar(space: Space, char: CharSpec | None = None, budget: int = DEFAULT_BUDGET):
    """Matrix of |A| times the inverse transform: sum over xi in P of xi(rep)."""
    char = char or default_char(space.field)
    hists, _sizes = _orbit_counts_cached(space, char, budget)
    # row lambda, column mu: sum over b in O(mu) of theta(<b|rep(lambda)>)
    return [list(_cyc_from_hist(space.field, hist)) for hist in hists]


def orbit_sizes_brute(space: Space, budget: int = DEFAULT_BUDGET) -> dict[OrbitLabel, int]:
    char = default_char(space.field)
    _hists, sizes = _orbit_counts_cached(space, char, budget)
    return dict(zip(space.labels(), sizes))


# ---------------------------------------------------------------------------
# transforms of invariant functions


@dataclass(frozen=True)
class InvariantFunction:
    """An invariant function, stored by its values on the ordered labels."""

    space: Space
    values: tuple[QuadInt, ...]

    @classmethod
    def from_ints(cls, space: Space, values) -> InvariantFunction:
        p = space.field.p
        return cls(space, tuple(QuadInt(p, v) for v in values))

    @classmethod
    def indicator(cls, space: Space, label: OrbitLabel) -> InvariantFunction:
        return cls.from_ints(space, [1 if lbl == label else 0 for lbl in space.labels()])


def forward_transform(phi: CanonicalMatrix, func: InvariantFunction) -> InvariantFunction:
    if func.space != phi.space:
        raise ValueError("function and matrix live on different spaces")
    vals = []
    for i in range(phi.nlabels):
        acc = QuadInt(phi.space.field.p, 0)
        for j, v in enumerate(func.values):
            acc = acc + phi.entries[i][j] * v
        vals.append(acc)
    return InvariantFunction(phi.space, tuple(vals))


def inverse_transform(phi: CanonicalMatrix, func: InvariantFunction) -> InvariantFunction:
    """Exact inverse; intermediate rationals must cancel to integers."""
    if func.space != phi.space:
        raise ValueError("function and matrix live on different spaces")
    zero, total = QuadInt(phi.space.field.p, 0), phi.total_size()
    vals = []
    for o in range(phi.nlabels):
        # sum over mu of conj(Phi(mu, o)) f(mu) |P(mu)| / (|O(o)| |A|), over one denominator
        acc = sum((phi.entries[mu][o].conjugate() * v * phi.orbit_sizes[mu] for mu, v in enumerate(func.values)), zero)
        try:
            vals.append(acc.exact_div(phi.orbit_sizes[o] * total))
        except ValueError:
            raise AssertionError("inverse transform produced a non-integral value") from None
    return InvariantFunction(phi.space, tuple(vals))


@dataclass(frozen=True)
class HalfPowerFunction:
    """Values carrying a shared factor q^(half_exp/2), kept symbolic.

    The involution normalization 1/sqrt(|A|) = q^(-dim/2) may be irrational;
    two applications always land back on integer ground, so the radical never
    needs a numeric value.
    """

    space: Space
    values: tuple[Fraction, ...]
    half_exp: int

    def normalized(self) -> tuple[Fraction, ...]:
        if self.half_exp % 2:
            raise ValueError("an odd half power of q remains")
        scale = Fraction(self.space.field.q) ** (self.half_exp // 2)
        return tuple(v * scale for v in self.values)


def hat_involution(phi: CanonicalMatrix, func: InvariantFunction | HalfPowerFunction) -> HalfPowerFunction:
    """phi_hat(mu) = (1/sqrt|A|) sum_lambda Phi(mu,lambda) phi(lambda)."""
    try:
        entries = phi.integer_entries()
    except ValueError:
        raise ValueError("involution requires a real canonical matrix") from None
    if isinstance(func, HalfPowerFunction):
        vals, half = func.values, func.half_exp
    else:
        vals = tuple(Fraction(v.as_int()) for v in func.values)
        half = 0
    out = tuple(sum((Fraction(entries[i][j]) * vals[j] for j in range(phi.nlabels)), Fraction(0)) for i in range(phi.nlabels))
    return HalfPowerFunction(phi.space, out, half - phi.space.dim)


# ---------------------------------------------------------------------------
# zonal spherical values


@dataclass(frozen=True)
class RatCyc:
    """An integer of Z[eta] divided by a positive integer, in lowest terms."""

    num: QuadInt
    den: int

    @classmethod
    def make(cls, num: QuadInt, den: int) -> RatCyc:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(den, num.a, num.b)
        return cls(num.exact_div(g), den // g)


def zonal_table(phi: CanonicalMatrix) -> list[list[RatCyc]]:
    """omega_P(O) = conj(Phi(P,O)) / |O|."""
    return [
        [RatCyc.make(phi.entries[i][j].conjugate(), phi.orbit_sizes[j]) for j in range(phi.nlabels)]
        for i in range(phi.nlabels)
    ]


def zonal_table_direct(space: Space, char: CharSpec | None = None, budget: int = DEFAULT_BUDGET) -> list[list[RatCyc]]:
    """omega_P evaluated from its definition, (1/|P|) sum_{xi in P} xi."""
    char = char or default_char(space.field)
    bar = brute_phi_bar(space, char, budget)
    sizes = orbit_sizes_brute(space, budget)
    labels = space.labels()
    return [
        [RatCyc.make(bar[o][p_], sizes[labels[p_]]) for o in range(len(labels))]
        for p_ in range(len(labels))
    ]


# ---------------------------------------------------------------------------
# multi-orthogonality


def multi_orthogonality_check(
    phi: CanonicalMatrix,
    parts: tuple[OrbitLabel, ...],
    target: OrbitLabel,
    budget: int = DEFAULT_BUDGET,
) -> tuple[QuadInt, int]:
    """Both sides of the k-fold orthogonality relation, independently.

    Left: sum_mu |P(mu)| Phi(mu,l_1) ... Phi(mu,l_k) conj(Phi(mu,l)).
    Right: the number of tuples (a_1, ..., a_k) in O(l_1) x ... x O(l_k)
    with a_1 + ... + a_k in O(l), counted by brute enumeration (to be
    multiplied by |A| by the caller): the orbits are read from the labels of
    the whole space, and the sums of all tuples are labelled in one pass.
    """
    if len(parts) < 1:
        raise ValueError("need at least one factor")
    space = phi.space
    lhs = QuadInt(space.field.p, 0)
    for mu in range(phi.nlabels):
        term = QuadInt(space.field.p, phi.orbit_sizes[mu])
        for lbl in parts:
            term = term * phi.entry(phi.labels[mu], lbl)
        term = term * phi.entry(phi.labels[mu], target).conjugate()
        lhs = lhs + term
    check_budget(space, budget)
    F, index = space.arith, space.labels().index
    digits = bulk._digits(0, space.size, space.dim, space.field.q)
    label_of = bulk.row_labels(space, digits)
    orbits = [digits[label_of == index(lbl)] for lbl in parts]
    work = 1
    for orbit in orbits:
        work *= len(orbit)
    if work > budget:
        raise BudgetError(f"{work} tuples exceed the budget {budget}")
    total = orbits[0]
    for orbit in orbits[1:]:
        total = F.vreduce(F.vadd(orbit[:, None, :], total[None, :, :])).reshape(-1, space.dim)
    count = int((bulk.row_labels(space, total) == index(target)).sum())
    return lhs, count


# ---------------------------------------------------------------------------
# commutative diagrams


@dataclass(frozen=True)
class Diagram:
    """A projection pi between two spaces plus an intersection character.

    pi drops the free coordinates of the upper space that are not listed in
    `embed`; embed[k] is the upper coordinate carrying lower coordinate k, so
    the adjoint of pi is zero-padding. The intersection character is theta_e.
    The fiber over b is the affine coset lift(b) + span(fiber positions). Its
    counts by upper label at t = 0, at t in S and at t in N come from one pass
    of the bulk labeller over the coset (bulk.coset_counts), never element by
    element. They are exact: for lambda in S, the group's scalar lambda (nu I,
    nu^2 = lambda, on alt, sym and symscaled) maps the fiber over b onto the
    fiber over lambda b and t to lambda t, and diag(lambda, ..., lambda, 1)
    (diag(nu, ..., nu, 1, ...) on those three) maps it back with t fixed. So
    each histogram over t is constant on the cosets S and N of S in F_p^*.
    The orbit-compatibility check labels lift(b) + e for every lower element
    b, so it is exact at every size.
    """

    upper: Space
    lower: Space
    embed: tuple[int, ...]
    e: Elem

    def lift(self, b: Elem) -> list[int]:
        """The zero-padded upper element over b."""
        out = [0] * self.upper.dim
        for k, pos in enumerate(self.embed):
            out[pos] = b[k]
        return out

    @property
    def fiber_positions(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.upper.dim) if k not in set(self.embed))

    def fiber_counts(self, char: CharSpec, b: Elem):
        """Counts of the fiber over b by upper label at t = Tr(twist <e|a>) = 0, at one t in S and at one t in N."""
        return bulk.coset_counts(self.upper, self.lift(b), self.fiber_positions, _pair_coefvec(self.upper, char, self.e))

    def zeta_nontrivial_on_kernel(self, char: CharSpec) -> bool:
        return bool(self.fiber_counts(char, self.lower.zero())[:, 1:].any())

    def _lifted_labels(self, lower):
        """Upper label index of lift(b) + e for each lower element b: the rows of a (B, lower dim) code array, or a list."""
        return bulk.placed_labels(self.upper, self.embed, list(self.e), lower)

    def label_map(self) -> dict[OrbitLabel, OrbitLabel]:
        """The induced map on orbit labels, from the label of lift(rep) + e."""
        lows = self.lower.labels()
        lifted = self._lifted_labels([self.lower.representative(lbl) for lbl in lows])
        return {lbl: self.upper.labels()[i] for lbl, i in zip(lows, lifted.tolist())}

    def validate_label_map(self) -> bool:
        """The orbit-compatibility condition behind the diagram, checked exactly.

        The label of lift(b) + e must be constant on lower orbits. It is
        computed for every lower element b, bulk.CHUNK rows at a time, and
        compared with the label map at the orbit of b.
        """
        low = self.lower
        want = self._lifted_labels([low.representative(lbl) for lbl in low.labels()])  # the label map, by lower label index
        for s in range(0, low.size, bulk.CHUNK):
            digits = bulk._digits(s, min(s + bulk.CHUNK, low.size), low.dim, low.field.q)
            if not (self._lifted_labels(digits) == want[bulk.row_labels(low, digits)]).all():
                return False
        return True


def standard_diagram(upper: Space, lower: Space) -> Diagram:
    """The coordinate-drop diagram between two sizes of one family.

    The intersection element e is the unit in the dropped corner: the last
    coordinate (vec), the (n,m) corner entry (mat), or the trailing 2x2
    block (alt and the scaled symmetric chain, which drop two rows).
    """
    if upper.family != lower.family or upper.field != lower.field:
        raise ValueError("diagram endpoints must share family and field")
    upper_index = {pos: k for k, pos in enumerate(upper.coords)}
    embed = tuple(upper_index[pos] for pos in lower.coords)
    fam, n = upper.family, getattr(upper, "n")
    if fam == "vec":
        if lower.n != n - 1:
            raise ValueError("vec diagrams drop one coordinate")
        e_pos = n - 1
    elif fam == "mat":
        if (lower.n, lower.m) != (n - 1, upper.m - 1):
            raise ValueError("mat diagrams drop one row and one column")
        e_pos = upper_index[(n - 1, upper.m - 1)]
    elif fam == "alt":
        if lower.n != n - 2:
            raise ValueError("alt diagrams drop two rows and columns")
        e_pos = upper_index[(n - 2, n - 1)]
    elif fam == "sym":
        if lower.n != n - 1:
            raise ValueError("sym diagrams drop one row and column")
        e_pos = upper_index[(n - 1, n - 1)]
    elif fam == "symscaled":
        if lower.n != n - 2:
            raise ValueError("scaled symmetric diagrams drop two rows and columns")
        e_pos = upper_index[(n - 2, n - 1)]
    else:
        raise ValueError(f"unknown family {fam!r}")
    e = tuple(1 if k == e_pos else 0 for k in range(upper.dim))
    return Diagram(upper, lower, embed, e)


def pushforward_matrix(d: Diagram, char: CharSpec | None = None) -> list[list[QuadInt]]:
    """E(omega, lambda): fiber sums of conj(zeta) against orbit indicators, in Z[eta] as the fiber counts are."""
    char = char or default_char(d.upper.field)
    return [
        [e.conjugate() for e in _cyc_from_hist(d.upper.field, d.fiber_counts(char, d.lower.representative(w)).tolist())]
        for w in d.lower.labels()
    ]


def diagram_check(
    d: Diagram,
    phi_upper: CanonicalMatrix,
    phi_lower: CanonicalMatrix,
    char: CharSpec | None = None,
) -> Report:
    """All identities the diagram implies between the two canonical matrices."""
    char = char or default_char(d.upper.field)
    rep = Report()
    where = f"{d.upper.describe()} -> {d.lower.describe()}"
    rep.add("diagram/orbit-compatibility", where, d.validate_label_map())
    E = pushforward_matrix(d, char)
    lm = d.label_map()
    up_labels, low_labels = phi_upper.labels, phi_lower.labels
    up, low, zero = phi_upper.entries, phi_lower.entries, QuadInt(d.upper.field.p, 0)

    ok = True
    for wi, w in enumerate(low_labels):
        ui = up_labels.index(lm[w])
        for lj in range(len(up_labels)):
            acc = sum((E[gi][lj] * low[wi][gi] for gi in range(len(low_labels))), zero)
            if acc != up[ui][lj]:
                ok = False
                rep.add("diagram/pushforward-factors", f"{where} at ({w},{up_labels[lj]})", False)
    rep.add("diagram/pushforward-factors", where, ok)

    ratio = d.upper.size // d.lower.size
    ok = True
    preimages = {mu: [w for w in low_labels if lm[w] == mu] for mu in up_labels}
    for gi, g in enumerate(low_labels):
        for mi, mu in enumerate(up_labels):
            acc = sum((E[gi][lj].conjugate() * up[lj][mi] for lj in range(len(up_labels))), zero)
            pre = preimages[mu]
            if len(pre) == 0:
                want = zero
            elif len(pre) == 1:
                want = low[gi][low_labels.index(pre[0])] * ratio
            else:
                rep.skip("diagram/inverse-factors", f"{where} at ({g},{mu})", "multiple preimages")
                continue
            if acc != want:
                ok = False
                rep.add("diagram/inverse-factors", f"{where} at ({g},{mu})", False)
    rep.add("diagram/inverse-factors", where, ok)

    if d.zeta_nontrivial_on_kernel(char):
        rep.add("diagram/kernel-row-sums", where, all(sum(row, zero) == 0 for row in E))
    return rep
