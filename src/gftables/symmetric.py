"""Sign-block analysis of the symmetric-matrix transforms.

On symmetric matrices the convenient bases are not the orbit indicators but
their rank aggregates: chi_r (indicator of rank r) together with the signed
indicator sgnchi_r (value +-1 on the two sign orbits of rank r). On these
bases the transform becomes a 2x2 block matrix

    Psi = [ psi1  psi2 ]      rows/cols: chi_s block, sgnchi_s block,
          [ psi3  psi4 ]

whose entries live in Z + Z*gamma for the quadratic Gauss sum gamma. The
blocks have closed forms in affine q-Krawtchouk polynomials: each block is a
sign and a power of q times the alternating family's column
(`pascal.alt_column`) at size n - 1, n, n - 2 or n - 1, whose parameters
the `pascal` module docstring gives. The brute
sign-labeled canonical matrix is the oracle every formula here is checked
against.

The base change onto rank aggregates is one rule, `_aggregate`: a row of
rank s averages the grid over the sign orbits of s and a column of rank r
sums over those of r, each orbit weighted by its sign (+1 when it has none)
for sgnchi and by 1 for chi. `scaled_canonical_from_blocks` and both the
push and the pull-back checks of `sym_diagram_matrices` read it, and
`_grid_to_blocks` (behind `psi_brute` and the inverse-transform check of
`relation_suite`) takes the same mean on the two integer coordinates of each
entry a + b eta of Z[eta] (cyclotomic.QuadInt), whose eta part is the gamma
part; `phi_from_psi` inverts it. The push reads the diagram's
`pushforward_matrix` at the sym sign points of every lower rank.

Block index ranges: psi1 on 0<=s,r<=n, psi2 on 0<=s<=n and 1<=r<=n, psi3 on
1<=s<=n and 0<=r<=n, psi4 on 1<=s,r<=n.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .cyclotomic import CycInt, QuadInt, QuadraticGamma, epsilon_of
from .cyclotomic import decompose_gamma  # noqa: F401  unused here: benchmarks/tracer.py times symmetric.decompose_gamma
from .gfq import CharSpec, gauss_sum
from .pascal import alt_column
from .reporting import Report
from .spaces import OrbitLabel, make_space
from .transform import (
    DEFAULT_BUDGET,
    CanonicalMatrix,
    brute_force_phi,
    brute_phi_bar,
    pushforward_matrix,
    standard_diagram,
)

Block = dict[tuple[int, int], QuadraticGamma]


@dataclass(frozen=True)
class PsiBlocks:
    n: int
    q: int
    char: CharSpec
    psi1: tuple[tuple[QuadraticGamma, ...], ...]  # (n+1) x (n+1)
    psi2: tuple[tuple[QuadraticGamma, ...], ...]  # (n+1) x n, columns r = 1..n
    psi3: tuple[tuple[QuadraticGamma, ...], ...]  # n x (n+1), rows s = 1..n
    psi4: tuple[tuple[QuadraticGamma, ...], ...]  # n x n

    @property
    def eps(self) -> int:
        return epsilon_of(self.q)

    def b1(self, s: int, r: int) -> QuadraticGamma:
        return self.psi1[s][r]

    def b2(self, s: int, r: int) -> QuadraticGamma:
        return self.psi2[s][r - 1]

    def b3(self, s: int, r: int) -> QuadraticGamma:
        return self.psi3[s - 1][r]

    def b4(self, s: int, r: int) -> QuadraticGamma:
        return self.psi4[s - 1][r - 1]

    def same_blocks(self, other: "PsiBlocks") -> bool:
        """The same as ==, under the name the benchmark workloads call."""
        return self == other


def _by_rank(labels) -> dict[int, list[tuple[int, int]]]:
    """Each rank -> the (index, sign) pairs of its labels, in label order; a label without a sign counts as +1."""
    out: dict[int, list[tuple[int, int]]] = {}
    for i, lbl in enumerate(labels):
        out.setdefault(lbl.r, []).append((i, lbl.sign or 1))
    return out


def _aggregate(grid, rows, cols, zero):
    """(1/len(rows)) * the sum of a * b * grid[i][j] over (i, a) in rows and (j, b) in cols.

    Rows average over the sign orbits of a rank and columns sum over them.
    Pairs with sign 1 read chi, pairs with the label signs read sgnchi. Over
    Z[eta] or Z[zeta_p] the mean must be exact; over Fraction it is a plain quotient.
    """
    total = sum((grid[i][j] * (a * b) for i, a in rows for j, b in cols), zero)
    return total / len(rows) if isinstance(total, Fraction) else total.exact_div(len(rows))


@lru_cache(maxsize=None)
def _gamma(char: CharSpec) -> QuadInt:
    """The quadratic Gauss sum of GF(q) in Z[eta]: c (1 + 2 eta) = c g at odd degree, a rational integer at even."""
    return QuadInt.from_cyc(gauss_sum(char))


def _grid_to_blocks(labels, grid, char: CharSpec) -> list[tuple[tuple[QuadraticGamma, ...], ...]]:
    """A sign-labeled grid of QuadInts (rows and columns in label order) -> the four blocks over Z + Z*gamma.

    Each block entry is _aggregate's mean, taken on the two integer
    coordinates of x = a + b eta. At odd degree gamma has a nonzero eta
    coordinate, so x = a' + b' gamma has b' = b / gamma.b, which must be an
    integer, and a' = a - b' gamma.a.
    """
    ranks = _by_rank(labels)
    n = max(ranks)
    chi = [[(i, 1) for i, _ in ranks[r]] for r in range(n + 1)]
    sgn = [ranks[r] for r in range(1, n + 1)]
    gamma, q = _gamma(char), char.field.q

    def entry(rows, cols) -> QuadraticGamma:
        a = b = 0
        for i, s in rows:
            for j, t in cols:
                x = grid[i][j]
                a += x.a * (s * t)
                b += x.b * (s * t)
        if a % len(rows) or b % len(rows):
            raise ValueError(f"coefficients not divisible by {len(rows)}")
        g, rest = divmod(b // len(rows), gamma.b)
        if rest:
            raise ValueError("not in quadratic subring")
        return QuadraticGamma(a // len(rows) - g * gamma.a, g, q)

    bases = ((chi, chi), (chi, sgn), (sgn, chi), (sgn, sgn))
    return [tuple(tuple(entry(rows, cols) for cols in cbasis) for rows in rbasis) for rbasis, cbasis in bases]


def psi_brute(
    n: int, char: CharSpec, budget: int = DEFAULT_BUDGET
) -> tuple[PsiBlocks, CanonicalMatrix]:
    """Blocks recovered from the brute sign-labeled canonical matrix.

    Every combined entry, a QuadInt, must decompose exactly over Z + Z*gamma;
    failure here means either a bug or a value outside the quadratic subring. The
    field degree must be odd: over even-degree extensions the Gauss sum is
    a rational integer and the (1, gamma) decomposition is ill-posed (the
    closed formulas in psi_closed still hold there as identities).
    """
    if char.field.e % 2 == 0:
        raise ValueError("sign-block recovery needs an odd-degree field")
    phi = brute_force_phi(make_space("sym", char.field, n), char, budget)
    return PsiBlocks(n, char.field.q, char, *_grid_to_blocks(phi.labels, phi.entries, char)), phi


def phi_from_psi(blocks: PsiBlocks) -> CanonicalMatrix:
    """Back to the sign-labeled canonical matrix (the inverse base change)."""
    char = blocks.char
    space = make_space("sym", char.field, blocks.n)
    gamma = _gamma(char)
    labels = space.labels()

    def val(x: QuadraticGamma) -> QuadInt:
        return gamma * x.b + x.a

    def entry(mu: OrbitLabel, lam: OrbitLabel) -> QuadInt:
        s, alpha = mu.r, mu.sign or 1
        r, beta = lam.r, lam.sign or 1
        if r == 0:
            return val(blocks.b1(s, 0)) + (val(blocks.b3(s, 0)) * alpha if s else 0)
        combo = val(blocks.b1(s, r)) + val(blocks.b2(s, r)) * beta
        if s:
            combo = combo + val(blocks.b3(s, r)) * alpha + val(blocks.b4(s, r)) * (alpha * beta)
        # the halves only close up in Z[eta], not in Z + Z*gamma
        try:
            return combo.exact_div(2)
        except ValueError:
            raise AssertionError("sign-block combination is not integral") from None

    entries = tuple(tuple(entry(mu, lam) for lam in labels) for mu in labels)
    sizes = tuple(entries[0][j].as_int() for j in range(len(labels)))
    return CanonicalMatrix(space, char, labels, entries, sizes)


# ---------------------------------------------------------------------------
# closed forms


def _assert_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise AssertionError("closed form produced a non-integer")
    return int(x)


def psi1_closed(n: int, q: int, s: int, r: int) -> int:
    """psi1 for s >= 1; psi1_row0_closed gives the s = 0 row."""
    x = r // 2
    return _assert_int((-1) ** (r + x) * q ** (x * (x + 1)) * alt_column(q, n - 1, (s - 1) // 2, x))


def psi1_row0_closed(n: int, q: int, r: int) -> int:
    """psi1 at s = 0: the number of symmetric matrices of rank r."""
    x = r // 2
    col = alt_column(q, n, 0, x) if r % 2 == 0 else (q**n - 1) * alt_column(q, n - 1, 0, x)
    return _assert_int((-1) ** x * q ** (x * (x + 1)) * col)


def psi2_closed(n: int, q: int, s: int, r: int) -> int:
    """psi2 for even r >= 2; odd columns vanish."""
    x = r // 2
    return _assert_int((-epsilon_of(q)) ** x * q ** (x * x) * alt_column(q, n, s // 2, x))


def psi3_closed(n: int, q: int, s: int, r: int) -> int:
    """psi3 for even s >= 2 and r >= 1; odd rows and the r = 0 column vanish."""
    y, x = (s - 2) // 2, (r - 1) // 2
    pre = (-1) ** (r + x + 1) * epsilon_of(q) ** (y + 1) * q ** (n + x * x + x - y - 1)
    return _assert_int(pre * alt_column(q, n - 2, y, x))


def psi4_closed_gamma_part(n: int, q: int, s: int, r: int) -> int:
    """psi4 at odd (s, r) equals gamma times this integer."""
    y, x = (s - 1) // 2, (r - 1) // 2
    pre = (-1) ** x * epsilon_of(q) ** (x + y) * q ** (n + x * x - y - 1)
    return _assert_int(pre * alt_column(q, n - 1, y, x))


def psi_closed(n: int, char: CharSpec) -> PsiBlocks:
    """All four blocks from the closed forms and the structural zeros."""
    q = char.field.q

    def qg(a: int, b: int = 0) -> QuadraticGamma:
        return QuadraticGamma(a, b, q)

    b1 = [
        [qg(psi1_row0_closed(n, q, r)) if s == 0 else qg(psi1_closed(n, q, s, r)) for r in range(n + 1)]
        for s in range(n + 1)
    ]
    b2 = [
        [qg(0) if r % 2 else qg(psi2_closed(n, q, s, r)) for r in range(1, n + 1)]
        for s in range(n + 1)
    ]
    b3 = [
        [qg(0) if (s % 2 or r == 0) else qg(psi3_closed(n, q, s, r)) for r in range(n + 1)]
        for s in range(1, n + 1)
    ]
    b4 = [
        [qg(0, psi4_closed_gamma_part(n, q, s, r)) if (s % 2 and r % 2) else qg(0) for r in range(1, n + 1)]
        for s in range(1, n + 1)
    ]
    pack = lambda rows: tuple(tuple(r) for r in rows)
    return PsiBlocks(n, q, char, pack(b1), pack(b2), pack(b3), pack(b4))


# ---------------------------------------------------------------------------
# the two diagram block matrices


def sym_diagram_matrices(n: int, char: CharSpec, which: int) -> Report:
    """Brute block matrices of both diagram legs against their stated forms.

    which = 1 is the one-step chain on the full bases; which = 2 is the
    two-step chain of the scaled action on the bases without odd signed
    functions. Each leg states its label map, and the four blocks of its push
    and pull-back matrices keyed (row signed, column signed) as in Psi; a
    block is checked at every lower rank u and upper rank r where its signed
    rows and columns exist.
    """
    rep = Report()
    q = char.field.q
    eps = epsilon_of(q)
    gamma = gauss_sum(char)
    zero = CycInt.zero(char.field.p)
    where = f"sym n={n} q={q} diagram {which}"
    lower_n = n - which
    family = "sym" if which == 1 else "symscaled"
    upper, lower = make_space(family, char.field, n), make_space(family, char.field, lower_n)
    d = standard_diagram(upper, lower)
    lm = d.label_map()
    # the push at both sign points of every lower rank, also where scaling merges them
    sym_lower = make_space("sym", char.field, lower_n)
    E = pushforward_matrix(replace(d, lower=sym_lower), char)
    points = _by_rank(sym_lower.labels())
    if which == 2 and any(E[i] != E[j] for (i, _), (j, _) in map(points.get, range(1, lower_n + 1, 2))):
        raise AssertionError("scaled pushforward not constant on a merged orbit")
    if which == 1:
        leg, signed = "one-step", lambda k: k >= 1
        target = lambda lbl: OrbitLabel(lbl.r + 1, lbl.sign or 1)
        push = {
            (0, 0): lambda u, r: {u: 1, u + 1: -1}.get(r, 0) if u == 0 else 0,
            (1, 0): lambda u, r: {u: gamma**u, u + 1: -(gamma**u)}.get(r, 0),
            (0, 1): lambda u, r: {u: gamma**u, u + 1: gamma ** (u + 1)}.get(r, 0),
            (1, 1): lambda u, r: 0,
        }
        pull = {
            (0, 0): lambda v, s: {v + 1: 1}.get(s, 0),
            (1, 0): lambda v, s: 0,
            (0, 1): lambda v, s: {(0, 1): 1}.get((v, s), 0),
            (1, 1): lambda v, s: {v + 1: 1}.get(s, 0),
        }
    else:
        leg, signed = "two-step", lambda k: k >= 2 and k % 2 == 0
        target = lambda lbl: OrbitLabel(lbl.r + 2, None if lbl.r % 2 else (lbl.sign or 1) * eps)
        push = {
            (0, 0): lambda u, r: {u: q**u, u + 1: q**u * (q - 1), u + 2: -(q ** (u + 1))}.get(r, 0),
            (1, 0): lambda u, r: 0,
            (0, 1): lambda u, r: {(0, 2): -eps * q}.get((u, r), 0),
            (1, 1): lambda u, r: {u: q**u, u + 2: -eps * q ** (u + 1)}.get(r, 0),
        }
        pull = {
            (0, 0): lambda v, s: {v + 2: 1}.get(s, 0),
            (1, 0): lambda v, s: 0,
            (0, 1): lambda v, s: {(0, 2): eps}.get((v, s), 0),
            (1, 1): lambda v, s: {v + 2: eps}.get(s, 0),
        }

    def holds(forms, value) -> bool:
        return all(
            value(rs, cs, u, r) == want(u, r)
            for (rs, cs), want in forms.items()
            for u in range(lower_n + 1)
            for r in range(n + 1)
            if (signed(u) or not rs) and (signed(r) or not cs)
        )

    lows, ups = _by_rank(lower.labels()), _by_rank(upper.labels())
    basis = lambda pairs, sgn: pairs if sgn else [(i, 1) for i, _ in pairs]
    pushed = lambda rs, cs, u, r: _aggregate(E, basis(points[u], rs), basis(ups[r], cs), zero)
    for cs, kind in enumerate(("chi", "sgn")):
        forms = {key: want for key, want in push.items() if key[1] == cs}
        rep.add(f"sym-diagram/{leg}-push-{kind}", where, holds(forms, pushed))
    rep.add(f"sym-diagram/{leg}-label-map", where, lm == {lbl: target(lbl) for lbl in lower.labels()})

    # pull-back blocks from the label map, exact over Fraction so that a wrong map fails and does not raise
    hits = [[int(lm[a] == b) for b in upper.labels()] for a in lower.labels()]
    pulled = lambda rs, cs, v, s: _aggregate(hits, basis(lows[v], rs), basis(ups[s], cs), Fraction(0))
    rep.add(f"sym-diagram/{leg}-pullback", where, holds(pull, pulled))
    return rep


# ---------------------------------------------------------------------------
# the relation suite


def _qg(blocks: PsiBlocks | None, which: int, s: int, r: int, q: int) -> QuadraticGamma:
    """Guarded block accessor with the boundary conventions.

    Out-of-range entries are zero except the r = 0 convention for psi2
    (reads 1) which the one-step relations rely on.
    """
    zero = QuadraticGamma(0, 0, q)
    if blocks is None:
        return zero
    n = blocks.n
    if which == 2 and r == 0:
        return QuadraticGamma(1, 0, q)
    if which == 4 and r == 0:
        return zero
    if not (0 <= s <= n and 0 <= r <= n):
        return zero
    if which == 1:
        return blocks.b1(s, r)
    if which == 2:
        return blocks.b2(s, r)
    if which == 3:
        return zero if s == 0 else blocks.b3(s, r)
    return zero if (s == 0 or r == 0) else blocks.b4(s, r)


def relation_suite(n: int, char: CharSpec, budget: int = DEFAULT_BUDGET) -> Report:
    """Every cross-size and structural identity of the sign blocks at size n.

    Needs blocks at sizes n-1, n-2 (when they exist) and, for the rank-one
    ladder of the first-row identity, at n+2; neighbor sizes above the
    budget are reported as skipped.
    """
    rep = Report()
    q = char.field.q
    eps = epsilon_of(q)
    where = f"sym n={n} q={q}"

    def blocks_at(size: int, limit: int) -> PsiBlocks | None:
        if size < 0:
            return None
        if char.field.q ** (size * (size + 1) // 2) > limit:
            return None
        return psi_brute(size, char, limit)[0]

    cur, phi = psi_brute(n, char, budget)
    prev = blocks_at(n - 1, budget)
    prev2 = blocks_at(n - 2, budget)
    gamma = QuadraticGamma(0, 1, q)
    gbar = gamma.conjugate()
    qn = q**n

    def g(which: int, blk: PsiBlocks | None, s: int, r: int) -> QuadraticGamma:
        return _qg(blk, which, s, r, q)

    # structural zeros on brute data
    ok = all(cur.b2(s, r) == QuadraticGamma(0, 0, q) for s in range(n + 1) for r in range(1, n + 1) if r % 2)
    rep.add("sym/zero-signed-column-odd", where, ok)
    ok = all(cur.b3(s, r) == QuadraticGamma(0, 0, q) for s in range(1, n + 1) for r in range(n + 1) if s % 2)
    rep.add("sym/zero-signed-row-odd", where, ok)
    ok = all(
        cur.b4(s, r) == QuadraticGamma(0, 0, q)
        for s in range(1, n + 1)
        for r in range(1, n + 1)
        if not (s % 2 and r % 2)
    )
    rep.add("sym/zero-doubly-signed-off-odd", where, ok)
    ok = all(cur.b4(s, r).a == 0 for s in range(1, n + 1, 2) for r in range(1, n + 1, 2))
    ok &= all(cur.b1(s, r).b == 0 for s in range(n + 1) for r in range(n + 1))
    ok &= all(cur.b2(s, r).b == 0 for s in range(n + 1) for r in range(1, n + 1))
    ok &= all(cur.b3(s, r).b == 0 for s in range(1, n + 1) for r in range(n + 1))
    rep.add("sym/gamma-only-in-doubly-signed", where, ok)
    ok = all(cur.b1(s, 0) == QuadraticGamma(1, 0, q) for s in range(n + 1)) and all(
        cur.b3(s, 0) == QuadraticGamma(0, 0, q) for s in range(1, n + 1)
    )
    rep.add("sym/zero-column-normalization", where, ok)

    # neighbor relations inside one size
    ok = all(cur.b1(s, r) == cur.b1(s + 1, r) for s in range(1, n, 2) for r in range(n + 1))
    rep.add("sym/unsigned-row-pairing", where, ok)
    ok = all(
        cur.b1(s, r) == -g(1, cur, s, r + 1) for s in range(1, n + 1) for r in range(0, n + 1, 2)
    )
    rep.add("sym/unsigned-column-flip", where, ok)
    ok = all(cur.b2(s, r) == cur.b2(s + 1, r) for s in range(0, n, 2) for r in range(1, n + 1))
    rep.add("sym/signed-column-row-pairing", where, ok)
    ok = all(
        cur.b3(s, r) == -g(3, cur, s, r + 1)
        for s in range(1, n + 1)
        for r in range(1, n + 1, 2)
    )
    rep.add("sym/signed-row-column-flip", where, ok)

    # sign symmetries of the canonical matrix
    oks = []
    for s in range(1, n + 1):
        for r in range(1, n + 1):
            pp = phi.entry(OrbitLabel(s, 1), OrbitLabel(r, 1))
            pm = phi.entry(OrbitLabel(s, 1), OrbitLabel(r, -1))
            mp = phi.entry(OrbitLabel(s, -1), OrbitLabel(r, 1))
            mm = phi.entry(OrbitLabel(s, -1), OrbitLabel(r, -1))
            if s % 2 and r % 2:
                oks.append(pp == mm and pm == mp)
            elif s % 2:
                oks.append(pp == mp and pm == mm)
            elif r % 2:
                oks.append(pp == pm and mp == mm)
    for r in range(1, n + 1, 2):
        oks.append(phi.entry(OrbitLabel(0), OrbitLabel(r, 1)) == phi.entry(OrbitLabel(0), OrbitLabel(r, -1)))
    rep.add("sym/scaling-sign-symmetry", where, all(oks))

    # the odd signed functions transform among themselves
    ok = all(cur.b2(s, r) == QuadraticGamma(0, 0, q) for r in range(1, n + 1, 2) for s in range(n + 1)) and all(
        cur.b4(s, r) == QuadraticGamma(0, 0, q) for r in range(1, n + 1, 2) for s in range(2, n + 1, 2)
    )
    rep.add("sym/odd-signed-support", where, ok)

    if n >= 1:
        okA = okB = okC = okD = True
        for r in range(1, n + 1):
            for v in range(0, n):
                okA &= cur.b1(v + 1, r) == gamma**r * g(2, prev, v, r) - gamma ** (r - 1) * g(2, prev, v, r - 1)
            for v in range(1, n):
                okB &= cur.b3(v + 1, r) == gamma**r * g(4, prev, v, r) - gamma ** (r - 1) * g(4, prev, v, r - 1)
            okC &= cur.b2(1, r) + cur.b4(1, r) == gamma**r * (g(1, prev, 0, r) + g(1, prev, 0, r - 1))
            for v in range(1, n):
                okC &= cur.b2(v + 1, r) == gamma**r * (g(1, prev, v, r) + g(1, prev, v, r - 1))
                okD &= cur.b4(v + 1, r) == gamma**r * (g(3, prev, v, r) + g(3, prev, v, r - 1))
        rep.add("sym/one-step-forward-unsigned", where, okA)
        rep.add("sym/one-step-forward-signed", where, okB)
        rep.add("sym/one-step-forward-mixed", where, okC and okD)

        okA = okB = okC = okD = True
        for s in range(1, n + 1):
            for u in range(1, n):
                okA &= gbar ** (u + 1) * cur.b3(u + 1, s) + gbar**u * g(3, cur, u, s) == qn * g(1, prev, u, s - 1)
            for u in range(0, n):
                lhs = gbar**u * (cur.b1(u + 1, s) - cur.b1(u, s))
                rhs = -qn * (g(1, prev, 0, s - 1) if u == 0 else g(3, prev, u, s - 1))
                okB &= lhs == rhs
            okC &= cur.b2(1, s) - cur.b2(0, s) - gbar * cur.b4(1, s) == -qn * g(2, prev, 0, s - 1)
            for u in range(1, n):
                okC &= gbar ** (u + 1) * cur.b4(u + 1, s) + gbar**u * g(4, cur, u, s) == qn * g(2, prev, u, s - 1)
                okD &= gbar**u * (cur.b2(u + 1, s) - cur.b2(u, s)) == -qn * g(4, prev, u, s - 1)
        rep.add("sym/one-step-inverse-signed", where, okA)
        rep.add("sym/one-step-inverse-unsigned", where, okB)
        rep.add("sym/one-step-inverse-mixed", where, okC and okD)

    if n >= 2:
        q2n1 = q ** (2 * n - 1)
        okA = okB = okC = True
        for r in range(0, n + 1):
            rhs = (
                -g(1, prev2, 0, r - 2) * q ** max(r - 1, 0)
                + g(1, prev2, 0, r - 1) * (q ** max(r - 1, 0) * (q - 1))
                + g(1, prev2, 0, r) * q**r
            )
            okA &= cur.b1(2, r) + eps * cur.b3(2, r) == rhs
            for v in range(1, n - 1):
                rhs = (
                    -g(1, prev2, v, r - 2) * q ** max(r - 1, 0)
                    + g(1, prev2, v, r - 1) * (q ** max(r - 1, 0) * (q - 1))
                    + g(1, prev2, v, r) * q**r
                )
                okA &= cur.b1(v + 2, r) == rhs
            for v in range(2, n - 1, 2):
                rhs = (
                    -g(3, prev2, v, r - 2) * q ** max(r - 1, 0)
                    + g(3, prev2, v, r - 1) * (q ** max(r - 1, 0) * (q - 1))
                    + g(3, prev2, v, r) * q**r
                )
                okB &= eps * cur.b3(v + 2, r) == rhs
        for r in range(2, n + 1, 2):
            for v in range(0, n - 1):
                okC &= cur.b2(v + 2, r) == -eps * q ** (r - 1) * g(2, prev2, v, r - 2) + q**r * g(2, prev2, v, r)
        rep.add("sym/two-step-forward-unsigned", where, okA)
        rep.add("sym/two-step-forward-signed", where, okB)
        rep.add("sym/two-step-forward-mixed", where, okC)

        okA = okB = okC = True
        for s in range(0, n + 1):
            okA &= cur.b1(0, s) - cur.b1(2, s) - eps * q * cur.b3(2, s) == q2n1 * g(1, prev2, 0, s - 2)
            for u in range(1, n - 1):
                lhs = q**u * cur.b1(u, s) + q**u * (q - 1) * cur.b1(u + 1, s) - q ** (u + 1) * cur.b1(u + 2, s)
                okA &= lhs == q2n1 * g(1, prev2, u, s - 2)
            for u in range(2, n - 1, 2):
                lhs = q**u * cur.b3(u, s) - eps * q ** (u + 1) * cur.b3(u + 2, s)
                okB &= lhs == q2n1 * g(3, prev2, u, s - 2)
        for s in range(2, n + 1, 2):
            for u in range(0, n - 1):
                lhs = q**u * cur.b2(u, s) + q**u * (q - 1) * cur.b2(u + 1, s) - q ** (u + 1) * cur.b2(u + 2, s)
                okC &= lhs == eps * q2n1 * g(2, prev2, u, s - 2)
        rep.add("sym/two-step-inverse-unsigned", where, okA)
        rep.add("sym/two-step-inverse-signed", where, okB)
        rep.add("sym/two-step-inverse-mixed", where, okC)

        ok = True
        for r in range(0, n + 1, 2):
            ok &= cur.b1(0, r) == q**r * g(1, prev2, 0, r) + (q ** (2 * n - 1) - q**r) * g(1, prev2, 0, r - 2)
        rep.add("sym/first-row-two-step", where, ok)

    # first-row ladder against the signed block two sizes up:
    # b1(0,r) + b1(0,r+1) = eps * q^-(r+1) * b3_{n+2}(2, r+1), even r
    up2_dim = (n + 2) * (n + 3) // 2
    if char.field.q**up2_dim <= budget:
        up2, _ = psi_brute(n + 2, char, budget)
        ok = all(
            (cur.b1(0, r) + cur.b1(0, r + 1)) * (q ** (r + 1)) == eps * up2.b3(2, r + 1)
            for r in range(0, n, 2)
        )
        rep.add("sym/first-row-ladder", where, ok)
    else:
        rep.skip("sym/first-row-ladder", where, f"size n+2={n + 2} exceeds the budget")

    # conjugated matrix of the inverse transform equals the conjugated blocks
    sym_space = make_space("sym", char.field, n)
    bar_blocks = _grid_to_blocks(sym_space.labels(), brute_phi_bar(sym_space, char, budget), char)
    conj_blocks = [
        tuple(tuple(e.conjugate() for e in row) for row in b)
        for b in (cur.psi1, cur.psi2, cur.psi3, cur.psi4)
    ]
    rep.add("sym/inverse-is-conjugate", where, bar_blocks == conj_blocks)

    # orbit sizes from the first rows
    sizes_ok = True
    for r in range(1, n + 1):
        plus = phi.size_of(OrbitLabel(r, 1))
        minus = phi.size_of(OrbitLabel(r, -1))
        s1, s2 = cur.b1(0, r), cur.b2(0, r)
        sizes_ok &= (s1.a + s2.a) % 2 == 0 and (s1.a + s2.a) // 2 == plus
        sizes_ok &= (s1.a - s2.a) // 2 == minus
    rep.add("sym/orbit-sizes-from-first-rows", where, sizes_ok)

    # round trip through the inverse base change
    rt = phi_from_psi(cur)
    rep.add("sym/base-change-round-trip", where, rt.entries == phi.entries)

    # brute against closed forms
    rep.add("sym/closed-forms-match-brute", where, cur == psi_closed(n, char))
    return rep


# ---------------------------------------------------------------------------
# the scaled restriction


def scaled_restriction(blocks: PsiBlocks) -> tuple[list[str], list[list[QuadraticGamma]]]:
    """The block matrix with the odd signed rows and columns removed.

    Basis order: chi_0 .. chi_n, then sgnchi_r for even r >= 2. This is the
    transform matrix of the scaled action on its own invariant functions.
    """
    n = blocks.n
    names = [f"chi{r}" for r in range(n + 1)] + [f"sgnchi{r}" for r in range(2, n + 1, 2)]
    evens = list(range(2, n + 1, 2))
    size = len(names)
    out = [[QuadraticGamma(0, 0, blocks.q) for _ in range(size)] for _ in range(size)]
    for si, s in enumerate(range(n + 1)):
        for ri, r in enumerate(range(n + 1)):
            out[si][ri] = blocks.b1(s, r)
        for rj, r in enumerate(evens):
            out[si][n + 1 + rj] = blocks.b2(s, r)
    for sj, s in enumerate(evens):
        for ri, r in enumerate(range(n + 1)):
            out[n + 1 + sj][ri] = blocks.b3(s, r)
        for rj, r in enumerate(evens):
            out[n + 1 + sj][n + 1 + rj] = blocks.b4(s, r)
    return names, out


def scaled_canonical_from_blocks(blocks: PsiBlocks) -> CanonicalMatrix:
    """Canonical matrix of the scaled action, rebuilt from the sign blocks.

    This is phi_from_psi aggregated onto the scaled labels: each merged odd
    rank sums its two sign columns and averages its two sign rows. The two
    rows agree, because psi3 vanishes on odd rows and psi4 off odd x odd.
    """
    full = phi_from_psi(blocks)
    space = make_space("symscaled", blocks.char.field, blocks.n)
    labels = space.labels()
    ranks = _by_rank(full.labels)
    covers = [[(i, 1) for i, sign in ranks[lbl.r] if lbl.sign in (None, sign)] for lbl in labels]
    zero = QuadInt(blocks.char.field.p, 0)
    entries = tuple(tuple(_aggregate(full.entries, rows, cols, zero) for cols in covers) for rows in covers)
    sizes = tuple(e.as_int() for e in entries[0])
    return CanonicalMatrix(space, blocks.char, labels, entries, sizes)
