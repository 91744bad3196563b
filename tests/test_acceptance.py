"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
(or `-v` for one pytest line per criterion). All equalities are exact; the
only tolerances are the stated runtime budgets.
"""

import random
import time
from fractions import Fraction

from gftables.cyclotomic import CycInt, QuadraticGamma
from gftables.gfq import default_char, epsilon, field_for, gauss_sum
from gftables.pascal import (
    bpr_fpr_solve,
    closed_form_table,
    family_table,
    genfun_mat_concrete,
    genfun_vec_symbolic,
    involution_squares_to_identity,
    multi_orthogonality_closed,
    q1_pattern_holds,
    recursion_tables,
)
from gftables.spaces import OrbitLabel, make_space
from gftables.symmetric import psi_brute, psi_closed, sym_diagram_matrices
from gftables.transform import (
    InvariantFunction,
    brute_force_phi,
    diagram_check,
    forward_transform,
    hat_involution,
    inverse_transform,
    multi_orthogonality_check,
    pushforward_matrix,
    standard_diagram,
    zonal_table,
    zonal_table_direct,
)

from helpers import bottom_row_recursion_holds, draw_params, forward_only_expansion, forward_recursion_holds


VEC_GRID = [(n, None, q) for n in (1, 2, 3) for q in (2, 3, 4, 5, 9)]
MAT_GRID = [(n, m, q) for n in (1, 2) for m in (1, 2, 3) if n <= m for q in (2, 3, 5)]
ALT_GRID = [(n, None, q) for n in (2, 3, 4, 5) for q in (3, 5)]
SYM_GRID = [(n, q) for n in (1, 2, 3) for q in (3, 5, 7)]


def _stamp(num: int, label: str, t0: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion {num}: {label} [{elapsed:.2f}s]")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_01_golden_tables():
    t0 = time.perf_counter()
    for q in (2, 3, 4, 5, 9):
        phi = brute_force_phi(make_space("vec", field_for(q), 1))
        assert phi.integer_entries() == [[1, q - 1], [1, -1]]
    for q in (2, 3, 5):
        for m in (1, 2, 3):
            phi = brute_force_phi(make_space("mat", field_for(q), 1, m))
            assert phi.integer_entries() == [[1, q**m - 1], [1, -1]]
    _stamp(1, "golden 2x2 tables", t0, limit=1.0)


def test_criterion_02_oracle_triangle():
    t0 = time.perf_counter()
    checked = 0
    for fam, grid in (("vec", VEC_GRID), ("mat", MAT_GRID), ("alt", ALT_GRID)):
        for n, m, q in grid:
            if fam == "alt" and q % 2 == 0:
                continue
            brute = brute_force_phi(make_space(fam, field_for(q), n, m)).integer_entries()
            assert family_table(fam, n, m).at_q_int(q) == brute, (fam, n, m, q)
            closed = closed_form_table(fam, n, m, q)
            assert [[Fraction(v) for v in row] for row in brute] == closed, (fam, n, m, q)
            checked += 1
    _stamp(2, f"oracle triangle on {checked} tables", t0, limit=120.0)


def test_criterion_03_sign_block_suite():
    t0 = time.perf_counter()
    for n, q in SYM_GRID:
        ch = default_char(field_for(q))
        blocks, phi = psi_brute(n, ch)
        assert blocks == psi_closed(n, ch), (n, q)
        zero = QuadraticGamma(0, 0, q)
        for s in range(n + 1):
            for r in range(1, n + 1):
                if r % 2:
                    assert blocks.b2(s, r) == zero
        for s in range(1, n + 1):
            if s % 2:
                assert all(blocks.b3(s, r) == zero for r in range(n + 1))
            for r in range(1, n + 1):
                if not (s % 2 and r % 2):
                    assert blocks.b4(s, r) == zero
        # neighbor relations on brute data
        for s in range(1, n, 2):
            for r in range(n + 1):
                assert blocks.b1(s, r) == blocks.b1(s + 1, r)
        for s in range(1, n + 1):
            for r in range(0, n + 1, 2):
                nxt = blocks.b1(s, r + 1) if r + 1 <= n else zero
                assert blocks.b1(s, r) == -1 * nxt
        for s in range(0, n, 2):
            for r in range(1, n + 1):
                assert blocks.b2(s, r) == blocks.b2(s + 1, r)
        for s in range(1, n + 1):
            for r in range(1, n + 1, 2):
                nxt = blocks.b3(s, r + 1) if r + 1 <= n else zero
                if s % 2 == 0:
                    assert blocks.b3(s, r) == -1 * nxt
        # sign symmetries of the canonical matrix
        for s in range(1, n + 1):
            for r in range(1, n + 1):
                pp = phi.entry(OrbitLabel(s, 1), OrbitLabel(r, 1))
                pm = phi.entry(OrbitLabel(s, 1), OrbitLabel(r, -1))
                mp = phi.entry(OrbitLabel(s, -1), OrbitLabel(r, 1))
                mm = phi.entry(OrbitLabel(s, -1), OrbitLabel(r, -1))
                if s % 2 and r % 2:
                    assert pp == mm and pm == mp
                elif s % 2:
                    assert pp == mp and pm == mm
                elif r % 2:
                    assert pp == pm and mp == mm
        for r in range(1, n + 1, 2):
            assert phi.entry(OrbitLabel(0), OrbitLabel(r, 1)) == phi.entry(OrbitLabel(0), OrbitLabel(r, -1))
    _stamp(3, "sign blocks brute == closed plus structure", t0, limit=180.0)


def test_criterion_04_gauss_sums():
    t0 = time.perf_counter()
    for q in (3, 5, 7, 9, 11, 13):
        g = gauss_sum(default_char(field_for(q)))
        assert g * g == epsilon(q) * q
        assert g * g.conjugate() == q
    _stamp(4, "gauss sum square and norm", t0, limit=1.0)


def test_criterion_05_orthogonality():
    t0 = time.perf_counter()
    matrices = []
    for fam, grid in (("vec", VEC_GRID), ("mat", MAT_GRID), ("alt", ALT_GRID)):
        for n, m, q in grid:
            if fam == "alt" and q % 2 == 0:
                continue
            matrices.append(brute_force_phi(make_space(fam, field_for(q), n, m)))
    for n, q in SYM_GRID:
        matrices.append(psi_brute(n, default_char(field_for(q)))[1])
    for phi in matrices:
        assert phi.check_row_orthogonality(), phi.space.describe()

    for fam, n, m in (("vec", 2, None), ("mat", 2, 2)):
        sp = make_space(fam, field_for(3), n, m)
        phi = brute_force_phi(sp)
        for parts, target in [((1,), 1), ((2,), 1), ((1, 1), 2), ((1, 1), 1), ((1, 2), 2)]:
            lhs, count = multi_orthogonality_check(
                phi, tuple(OrbitLabel(r) for r in parts), OrbitLabel(target)
            )
            assert lhs == count * sp.size, (fam, parts, target)
            if sum(parts) <= target:
                clhs, crhs = multi_orthogonality_closed(fam, n, m, 3, parts, target)
                assert clhs == crhs
                assert clhs == Fraction(count * sp.size)
    _stamp(5, "row and multi orthogonality", t0)


def test_criterion_06_diagrams():
    t0 = time.perf_counter()
    f3 = field_for(3)
    chains = [
        ("vec", [(3, None), (2, None), (1, None)]),
        ("mat", [(2, 3), (1, 2)]),
        ("alt", [(4, None), (2, None)]),
        ("sym", [(3, None), (2, None)]),
        ("symscaled", [(3, None), (1, None)]),
    ]
    patterns = {
        "vec": lambda q, u, r: {u: 1, u + 1: -1}.get(r, 0),
        "mat": lambda q, u, r: {u: q**u, u + 1: -(q**u)}.get(r, 0),
        "alt": lambda q, u, r: {u: q**u, u + 2: -(q**u)}.get(r, 0),
    }
    ch = default_char(f3)
    for fam, sizes in chains:
        for (nu, mu_), (nl, ml) in zip(sizes, sizes[1:]):
            up, low = make_space(fam, f3, nu, mu_), make_space(fam, f3, nl, ml)
            d = standard_diagram(up, low)
            rep = diagram_check(d, brute_force_phi(up), brute_force_phi(low))
            assert rep.ok, (fam, "\n".join(rep.lines()))
            if d.zeta_nontrivial_on_kernel(ch):
                for row in pushforward_matrix(d, ch):
                    total = CycInt.zero(3)
                    for e in row:
                        total = total + e
                    assert total == 0
            if fam in patterns:
                E = pushforward_matrix(d, ch)
                for i, w in enumerate(low.labels()):
                    for j, lam in enumerate(up.labels()):
                        assert E[i][j] == patterns[fam](3, w.r, lam.r)
    # block-matrix patterns of the two symmetric chains
    assert sym_diagram_matrices(3, ch, 1).ok
    assert sym_diagram_matrices(3, ch, 2).ok
    _stamp(6, "commutative diagrams and push matrices", t0)


def test_criterion_07_generic_solver():
    t0 = time.perf_counter()
    for case in (1, 2, 3):
        rng = random.Random(5000 + case)
        for _ in range(20):
            params = draw_params(rng, case)
            tables = bpr_fpr_solve(params)
            assert forward_recursion_holds(params, tables)
            assert bottom_row_recursion_holds(params, tables)
        params = draw_params(rng, case, n_max=3)
        assert forward_only_expansion(params, recursion_tables(params))
    _stamp(7, "two-recursion solver, all three cases", t0)


def test_criterion_08_symbolic_and_limits():
    t0 = time.perf_counter()
    grids = [("vec", [(n, None) for n in (1, 2, 3)]), ("mat", [(1, 2), (2, 2), (2, 3)]), ("alt", [(n, None) for n in (2, 3, 4, 5)])]
    for fam, sizes in grids:
        for n, m in sizes:
            tab = family_table(fam, n, m)  # construction stays inside Z[q]
            assert all(isinstance(c, int) for row in tab.entries for e in row for c in e.coeffs)
            assert q1_pattern_holds(fam, n, m), (fam, n, m)
    for size in range(1, 7):
        assert involution_squares_to_identity(size)
    for n in (1, 2, 3, 4):
        for s in range(n + 1):
            assert genfun_vec_symbolic(n, s)
    for s in range(3):
        assert genfun_mat_concrete(2, 2, 3, s)
    _stamp(8, "integer polynomial tables, q -> 1 limits, generating functions", t0)


def test_criterion_09_transform_laws():
    t0 = time.perf_counter()
    rng = random.Random(99)
    for fam, n, m, q in (("vec", 3, None, 3), ("mat", 2, 2, 3), ("alt", 4, None, 3)):
        sp = make_space(fam, field_for(q), n, m)
        phi = brute_force_phi(sp)
        func = InvariantFunction.from_ints(sp, [rng.randint(-9, 9) for _ in sp.labels()])
        assert inverse_transform(phi, forward_transform(phi, func)).values == func.values
        vals = [rng.randint(-9, 9) for _ in sp.labels()]
        func = InvariantFunction.from_ints(sp, vals)
        assert hat_involution(phi, hat_involution(phi, func)).normalized() == tuple(
            Fraction(v) for v in vals
        )
    for fam, n, m, q in (
        ("vec", 3, None, 3),
        ("mat", 2, 2, 3),
        ("alt", 4, None, 3),
        ("sym", 2, None, 3),
        ("sym", 3, None, 5),
        ("symscaled", 3, None, 3),
    ):
        sp = make_space(fam, field_for(q), n, m)
        phi = brute_force_phi(sp)
        assert phi.check_symmetry(), sp.describe()
        assert zonal_table(phi) == zonal_table_direct(sp), sp.describe()
    _stamp(9, "transform laws, involution, zonal values", t0)


def test_criterion_10_counting_lemma():
    t0 = time.perf_counter()
    for q in (2, 3):
        f = field_for(q)
        for n in (1, 2):
            for m in range(n, 3):
                sp = make_space("mat", f, n, m)
                for l in range(n + 1):
                    for k in range(n - l + 1):
                        a = sp.representative(OrbitLabel(l))
                        count = sum(
                            1
                            for b in sp.elements()
                            if sp.classify(b).r == k and sp.classify(sp.add(a, b)).r == l + k
                        )
                        if n - l == 0:
                            small = 1 if k == 0 else 0
                        else:
                            small = (
                                make_space("mat", f, n - l, m - l)
                                .orbit_size_poly(OrbitLabel(k))
                                .eval_at(q)
                            )
                        assert count == q ** (2 * k * l) * small
    _stamp(10, "rank-shift counting lemma", t0)
