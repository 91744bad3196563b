"""The verification suites behind `gftables verify`.

Each suite re-checks one family of identities over a fixed desk-scale grid
and reports one line per identity instance. Everything is exact: a check
either holds on the nose or fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycInt
from .gfq import arith, default_char, epsilon, field_for, gauss_sum
from .pascal import (
    affine_orthogonality,
    closed_form_table,
    family_table,
    genfun_affine_krawtchouk,
    genfun_krawtchouk,
    genfun_mat_concrete,
    genfun_vec_symbolic,
    involution_squares_to_identity,
    krawtchouk_orthogonality,
    multi_orthogonality_closed,
    q1_pattern_holds,
)
from .reporting import Report
from .spaces import OrbitLabel, make_space
from .symmetric import psi_brute, psi_closed, relation_suite, sym_diagram_matrices
from .transform import (
    DEFAULT_BUDGET,
    brute_force_phi,
    diagram_check,
    multi_orthogonality_check,
    pushforward_matrix,
    standard_diagram,
    zonal_table,
    zonal_table_direct,
)

VEC_GRID = [(n, None, q) for n in (1, 2, 3) for q in (2, 3, 4, 5, 9)]
MAT_GRID = [(n, m, q) for n in (1, 2) for m in range(1, 4) if n <= m for q in (2, 3, 4, 5)]
ALT_GRID = [(n, None, q) for n in (2, 3, 4, 5) for q in (3, 5)]
SYM_GRID = [(n, None, q) for n in (1, 2, 3) for q in (3, 5)]


@dataclass(frozen=True)
class GridFilter:
    """Optional narrowing of the default verification grids.

    A check names the family, n, m and q it runs on, where it has them. A
    filter on a parameter the check does not name lets it pass, except that a
    check on a space without an m (every family but mat) fails a filter on m.
    """

    qs: frozenset[int] | None = None
    family: str | None = None
    n: int | None = None
    m: int | None = None

    def allows(self, family=None, n=None, m=None, q=None) -> bool:
        if self.qs is not None and q is not None and q not in self.qs:
            return False
        if self.family is not None and family is not None and family != self.family:
            return False
        if self.n is not None and n is not None and n != self.n:
            return False
        if self.m is not None and (m is not None or family is not None) and m != self.m:
            return False
        return True


EVERYTHING = GridFilter()


def suite_gauss(budget: int = DEFAULT_BUDGET, flt: GridFilter = EVERYTHING) -> Report:
    rep = Report()
    for q in (3, 5, 7, 9, 11, 13):
        if not flt.allows(q=q):
            continue
        f = field_for(q)
        F, ch = arith(f), default_char(f)
        g = gauss_sum(ch)
        rep.add("gauss/square-is-eps-q", f"q={q}", g * g == epsilon(q) * q)
        rep.add("gauss/norm-is-q", f"q={q}", g * g.conjugate() == q)
        vec = [0] * f.p
        for x in range(f.q):
            vec[(-ch.exponent(F.mul(x, x))) % f.p] += 1
        rep.add("gauss/square-sum", f"q={q}", CycInt.reduce(f.p, vec) == g)
        rep.add("gauss/eps-is-sign-of-minus-one", f"q={q}", epsilon(q) == F.sgn(F.neg(1)))
    return rep


def _grid_matrices(budget: int, flt: GridFilter = EVERYTHING):
    for family, grid in (("vec", VEC_GRID), ("mat", MAT_GRID), ("alt", ALT_GRID), ("sym", SYM_GRID)):
        for n, m, q in grid:
            if not flt.allows(family=family, n=n, m=m, q=q):
                continue
            f = field_for(q)
            if family in ("alt", "sym") and q % 2 == 0:
                continue
            space = make_space(family, f, n, m)
            if space.size > budget:
                yield family, n, m, q, None
                continue
            yield family, n, m, q, brute_force_phi(space, None, budget)


def suite_orthogonality(budget: int = DEFAULT_BUDGET, flt: GridFilter = EVERYTHING) -> Report:
    rep = Report()
    for family, n, m, q, phi in _grid_matrices(budget, flt):
        where = f"{family} n={n}" + (f" m={m}" if m else "") + f" q={q}"
        if phi is None:
            rep.skip("transform/row-orthogonality", where, "over budget")
            continue
        rep.add("transform/row-orthogonality", where, phi.check_row_orthogonality())
        rep.add("transform/size-symmetry", where, phi.check_symmetry())
        rep.add(
            "transform/zonal-values",
            where,
            zonal_table(phi) == zonal_table_direct(phi.space, phi.char, budget),
        )
    return rep


def suite_multi(budget: int = DEFAULT_BUDGET, flt: GridFilter = EVERYTHING) -> Report:
    rep = Report()
    f3 = field_for(3)
    cases = [
        ("vec", make_space("vec", f3, 2), [((1,), 1), ((2,), 2), ((1,), 2), ((1, 1), 2), ((1, 1), 1)]),
        ("mat", make_space("mat", f3, 2, 2), [((1,), 1), ((2,), 2), ((1,), 2), ((1, 1), 2), ((1, 1), 1)]),
    ]
    for family, space, pairs in cases:
        if not flt.allows(family=family, n=space.n, m=getattr(space, "m", None), q=3):
            continue
        phi = brute_force_phi(space, None, budget)
        for parts, target in pairs:
            lhs, count = multi_orthogonality_check(
                phi, tuple(OrbitLabel(r) for r in parts), OrbitLabel(target), budget
            )
            where = f"{family} q=3 parts={parts} target={target}"
            rep.add("multi/brute-count", where, lhs == count * space.size)
            if sum(parts) <= target:
                mm = getattr(space, "m", None)
                clhs, crhs = multi_orthogonality_closed(family, space.n, mm, 3, parts, target)
                rep.add("multi/closed-count", where, clhs == crhs)
                rep.add("multi/closed-matches-brute", where, clhs == Fraction(count * space.size))
    return rep


def suite_genfun(budget: int = DEFAULT_BUDGET, flt: GridFilter = EVERYTHING) -> Report:
    rep = Report()
    for n in (1, 2, 3, 4):
        for s in range(n + 1):
            rep.add("genfun/vec-row", f"n={n} s={s}", genfun_vec_symbolic(n, s))
    for s in range(3):
        rep.add("genfun/mat-row", f"n=2 m=2 q=3 s={s}", genfun_mat_concrete(2, 2, 3, s))
    for N in (2, 3, 4, 5):
        for p in (Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)):
            rep.add("genfun/krawtchouk", f"N={N} p={p}", genfun_krawtchouk(N, p))
    for N, a, q in [(3, Fraction(1, 27), Fraction(3)), (4, Fraction(1, 16), Fraction(2)), (2, Fraction(1, 9), Fraction(3))]:
        rep.add("genfun/affine-krawtchouk", f"N={N} a={a} q={q}", genfun_affine_krawtchouk(N, a, q))
    for N in range(1, 7):
        for p in (Fraction(1, 3), Fraction(2, 3), Fraction(3, 4)):
            rep.add("orthogonality/krawtchouk", f"N={N} p={p}", krawtchouk_orthogonality(N, p))
    for N in (2, 3, 4):
        for q in (2, 3):
            for m in (N, N + 1, N + 2):
                rep.add(
                    "orthogonality/affine-krawtchouk",
                    f"N={N} q={q} m={m}",
                    affine_orthogonality(N, Fraction(1, q**m), Fraction(q)),
                )
    return rep


_E_PATTERNS = {
    "vec": lambda q, u, r: 1 if r == u else (-1 if r == u + 1 else 0),
    "mat": lambda q, u, r: q**u if r == u else (-(q**u) if r == u + 1 else 0),
    "alt": lambda q, u, r: q**u if r == u else (-(q**u) if r == u + 2 else 0),
}


def suite_diagrams(budget: int = DEFAULT_BUDGET, flt: GridFilter = EVERYTHING) -> Report:
    rep = Report()
    f3 = field_for(3)
    chains = [
        ("vec", [(3, None), (2, None), (1, None)]),
        ("mat", [(2, 3), (1, 2)]),
        ("alt", [(4, None), (2, None)]),
        ("sym", [(3, None), (2, None)]),
        ("symscaled", [(3, None), (1, None)]),
    ]
    for family, sizes in chains:
        for (nu, mu_), (nl, ml) in zip(sizes, sizes[1:]):
            if not flt.allows(family=family, n=nu, m=mu_, q=3):  # a diagram check names its upper space
                continue
            upper = make_space(family, f3, nu, mu_)
            lower = make_space(family, f3, nl, ml)
            d = standard_diagram(upper, lower)
            rep.extend(diagram_check(d, brute_force_phi(upper, None, budget), brute_force_phi(lower, None, budget)))
            if family in _E_PATTERNS:
                E = pushforward_matrix(d)
                pat = _E_PATTERNS[family]
                ok = all(
                    E[i][j] == pat(3, lower.labels()[i].r, upper.labels()[j].r)
                    for i in range(len(lower.labels()))
                    for j in range(len(upper.labels()))
                )
                rep.add("diagram/push-matrix-pattern", f"{family} {nu}->{nl} q=3", ok)
    if flt.allows(family="sym", n=3, q=3):
        for which in (1, 2):
            rep.extend(sym_diagram_matrices(3, default_char(f3), which))
    return rep


def suite_sym_relations(budget: int = DEFAULT_BUDGET, flt: GridFilter = EVERYTHING) -> Report:
    rep = Report()
    for n, _, q in SYM_GRID:
        if not flt.allows(family="sym", n=n, q=q):
            continue
        ch = default_char(field_for(q))
        rep.extend(relation_suite(n, ch, budget))
    return rep


def suite_limits(budget: int = DEFAULT_BUDGET, flt: GridFilter = EVERYTHING) -> Report:
    rep = Report()
    for family, grids in (("vec", [(n, None) for n in (1, 2, 3)]), ("mat", [(n, m) for n in (1, 2) for m in (2, 3, 4) if n <= m]), ("alt", [(n, None) for n in (2, 3, 4, 5)])):
        for n, m in grids:
            if not flt.allows(family=family, n=n, m=m):
                continue
            where = f"{family} n={n}" + (f" m={m}" if m else "")
            rep.add("limits/alternating-binomial-pattern", where, q1_pattern_holds(family, n, m))
    for size in range(1, 7):
        rep.add("limits/involution", f"size={size}", involution_squares_to_identity(size))
    return rep


def suite_oracle(budget: int = DEFAULT_BUDGET, flt: GridFilter = EVERYTHING) -> Report:
    """Brute, recursion, and closed-form tables agree entry for entry."""
    rep = Report()
    for family, n, m, q, phi in _grid_matrices(budget, flt):
        if family == "sym":
            continue
        where = f"{family} n={n}" + (f" m={m}" if m else "") + f" q={q}"
        if phi is None:
            rep.skip("oracle/three-way", where, "over budget")
            continue
        brute = phi.integer_entries()
        rec = family_table(family, n, m).at_q_int(q)
        clo = closed_form_table(family, n, m, q)
        ok = brute == rec and [[Fraction(v) for v in row] for row in brute] == clo
        rep.add("oracle/three-way", where, ok)
    for n, _, q in SYM_GRID:
        if not flt.allows(family="sym", n=n, q=q):
            continue
        ch = default_char(field_for(q))
        blocks, _phi = psi_brute(n, ch, budget)
        rep.add("oracle/sign-blocks", f"sym n={n} q={q}", blocks == psi_closed(n, ch))
    return rep


SUITES = {
    "gauss": suite_gauss,
    "orthogonality": suite_orthogonality,
    "multi": suite_multi,
    "genfun": suite_genfun,
    "diagrams": suite_diagrams,
    "sym-relations": suite_sym_relations,
    "limits": suite_limits,
    "oracle": suite_oracle,
}


def run_suite(name: str, budget: int = DEFAULT_BUDGET, flt: GridFilter = EVERYTHING) -> Report:
    if name == "all":
        rep = Report()
        for key in SUITES:
            rep.extend(SUITES[key](budget, flt))
        return rep
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join([*SUITES, 'all'])}")
    return SUITES[name](budget, flt)
