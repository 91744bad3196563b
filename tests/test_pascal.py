import random
from fractions import Fraction

import pytest

from gftables import pascal
from gftables.cyclotomic import POLY_Q, PolyQ
from gftables.gfq import field_for, make_field
from gftables.pascal import (
    PascalParams,
    alternating_binomial_matrix,
    bpr_fpr_solve,
    closed_form_phi,
    closed_form_table,
    closed_tables,
    family_table,
    genfun_affine_krawtchouk,
    genfun_krawtchouk,
    genfun_mat_concrete,
    genfun_vec_symbolic,
    involution_squares_to_identity,
    krawtchouk_orthogonality,
    affine_orthogonality,
    multi_orthogonality_closed,
    q1_limit,
    q1_pattern_holds,
    recursion_tables,
)
from gftables.spaces import make_space
from gftables.transform import brute_force_phi

from helpers import bottom_row_recursion_holds, draw_params, forward_only_expansion, forward_recursion_holds

F = Fraction


class TestGenericSolver:
    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_recursion_matches_closed_form(self, case):
        rng = random.Random(1000 + case)
        for _ in range(20):
            p = draw_params(rng, case)
            tables = bpr_fpr_solve(p)  # raises on disagreement
            assert forward_recursion_holds(p, tables)
            assert bottom_row_recursion_holds(p, tables)

    @pytest.mark.parametrize("case", [1, 2, 3])
    def test_forward_only_expansion(self, case):
        rng = random.Random(77 + case)
        for _ in range(8):
            p = draw_params(rng, case, n_max=3)
            tables = recursion_tables(p)
            assert forward_only_expansion(p, tables)

    def test_case_detection(self):
        assert PascalParams(F(1), F(2), F(1), F(2), F(1), F(1), 3).case == 1
        assert PascalParams(F(1), F(1), F(1), F(3), F(1), F(1), 3).case == 2
        assert PascalParams(F(1), F(1), F(1), F(3), F(2), F(1), 3).case == 3

    def test_nonzero_coefficients_required(self):
        with pytest.raises(ValueError):
            PascalParams(F(0), F(1), F(1), F(1), F(1), F(1), 3)

    def test_binomial_case_shape(self):
        p = PascalParams(F(1), F(1), F(1), F(1), F(1), F(1), 4)
        tables = closed_tables(p)
        for n in range(5):
            for y in range(n + 1):
                for x in range(n + 1):
                    want = F((-1) ** x) * F(__import__("math").comb(y, x)) if x <= y else F(0)
                    assert tables[n][(y, x)] == want


class TestFamilyTables:
    def test_known_symbolic_entries(self):
        t2 = family_table("vec", 2)
        assert t2.entries[1][1] == POLY_Q - 2
        assert t2.entries[1][1].eval_at(3) == 1
        assert t2.entries[0][2] == (POLY_Q - 1) ** 2
        assert t2.entries[2][2] == PolyQ.const(1)

    @pytest.mark.parametrize(
        "fam,n,m,qs",
        [
            ("vec", 1, None, (2, 3, 4, 5, 9)),
            ("vec", 2, None, (2, 3, 4, 5, 9)),
            ("vec", 3, None, (2, 3, 4, 5, 9)),
            ("mat", 1, 1, (2, 3, 5)),
            ("mat", 1, 3, (2, 3, 5)),
            ("mat", 2, 2, (2, 3, 5)),
            ("mat", 2, 3, (2, 3, 5)),
            ("alt", 2, None, (3, 5)),
            ("alt", 3, None, (3, 5)),
            ("alt", 4, None, (3, 5)),
            ("alt", 5, None, (3, 5)),
        ],
    )
    def test_oracle_triangle(self, fam, n, m, qs):
        tab = family_table(fam, n, m)
        for q in qs:
            if fam == "alt" and q % 2 == 0:
                continue
            brute = brute_force_phi(make_space(fam, field_for(q), n, m)).integer_entries()
            assert tab.at_q_int(q) == brute
            closed = closed_form_table(fam, n, m, q)
            assert [[F(v) for v in row] for row in brute] == closed

    @pytest.mark.parametrize("fam", ["vec", "mat", "alt"])
    def test_closed_row_zero_is_the_orbit_sizes(self, fam):
        for q in (3, 5, 9):
            field = field_for(q)
            for n in range(1 if fam == "mat" else 0, 9):
                for m in range(n, n + 3) if fam == "mat" else (None,):
                    space = make_space(fam, field, n, m)
                    sizes = [space.orbit_size_poly(lbl).eval_at(q) for lbl in space.labels()]
                    assert closed_form_table(fam, n, m, q)[0] == sizes

    @pytest.mark.parametrize(
        "fam,n,m",
        [("vec", n, None) for n in range(7)]
        + [("mat", n, m) for n in range(5) for m in range(n, 7)]
        + [("alt", n, None) for n in range(10)],
    )
    def test_families_are_instances_of_the_pair(self, fam, n, m):
        # a = b = c = sigma = 1, t = q^tau, d = q^delta at size N; the numeric
        # recursion is independent of both the symbolic one and the closed forms
        tau, delta, N = {"vec": (0, 1, n), "mat": (1, (m or 0) - n, n), "alt": (2, 1 if n % 2 else -1, n // 2)}[fam]
        tab = family_table(fam, n, m)
        for q in (F(2), F(3), F(4), F(5), F(7), F(3, 2), F(-2, 5)):
            p = PascalParams(F(1), F(1), F(1), q**delta, q**tau, F(1), N)
            want = {(y, x): e.eval_at(q) for y, row in enumerate(tab.entries) for x, e in enumerate(row)}
            assert recursion_tables(p)[N] == closed_tables(p)[N] == want
            closed = closed_form_table(fam, n, m, q)
            assert {(y, x): v for y, row in enumerate(closed) for x, v in enumerate(row)} == want

    def test_sym_has_no_symbolic_table(self):
        with pytest.raises(ValueError, match="Gauss sum"):
            family_table("sym", 2)

    @pytest.mark.parametrize("fam,n,m", [("vec", -1, None), ("alt", -1, None), ("mat", -2, -1)])
    def test_negative_n_is_rejected(self, fam, n, m):
        message = f"n must be >= 0, got {n}"  # the CLI's message
        for call in (lambda: family_table(fam, n, m), lambda: closed_form_table(fam, n, m, 3), lambda: closed_form_phi(fam, n, m, 0, 0, 3)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                call()
        with pytest.raises(ValueError, match="Invalid literal"):  # the q check comes first
            closed_form_table(fam, n, m, "x")

    def test_closed_form_range_checks(self):
        with pytest.raises(ValueError):
            closed_form_phi("vec", 2, None, 3, 0, 3)
        with pytest.raises(ValueError, match="even"):
            closed_form_phi("alt", 4, None, 1, 2, 3)


class TestLimits:
    @pytest.mark.parametrize("fam,n,m", [("vec", 3, None), ("mat", 2, 3, ), ("alt", 4, None), ("alt", 5, None)])
    def test_alternating_binomial_pattern(self, fam, n, m):
        assert q1_pattern_holds(fam, n, m)

    def test_limit_matrix_values(self):
        got = q1_limit("vec", 3)
        assert got == alternating_binomial_matrix(4)
        assert got[3] == [-1, 3, -3, 1][::-1] or got[3] == [(-1) ** r * __import__("math").comb(3, r) for r in range(4)]

    @pytest.mark.parametrize("size", range(1, 7))
    def test_involution(self, size):
        assert involution_squares_to_identity(size)


class TestGeneratingFunctions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_vec_rows_symbolic(self, n):
        for s in range(n + 1):
            assert genfun_vec_symbolic(n, s)

    def test_mat_rows_concrete(self):
        for s in range(3):
            assert genfun_mat_concrete(2, 2, 3, s)

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_krawtchouk_generating_function(self, N):
        for p in (F(1, 3), F(2, 3), F(3, 4)):
            assert genfun_krawtchouk(N, p)

    @pytest.mark.parametrize("N,q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)])
    def test_affine_generating_function(self, N, q):
        assert genfun_affine_krawtchouk(N, F(1, q**(N + 1)), F(q))

    @pytest.mark.parametrize("N", range(1, 7))
    def test_krawtchouk_orthogonality(self, N):
        for p in (F(1, 3), F(2, 3), F(3, 4)):
            assert krawtchouk_orthogonality(N, p)

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("q", [2, 3])
    def test_affine_orthogonality(self, N, q):
        for m in (N, N + 1, N + 2):
            assert affine_orthogonality(N, F(1, q**m), F(q))


class TestIdentityChecksCanFail:
    """One Krawtchouk value moved by 1/10^9 fails every identity that reads it: clearing denominators left no
    check that holds whatever the values."""

    CHECKS = {
        "krawtchouk_orthogonality": ("krawtchouk_nd", lambda: krawtchouk_orthogonality(4, F(2, 3))),
        "genfun_krawtchouk": ("krawtchouk_nd", lambda: genfun_krawtchouk(4, F(2, 3))),
        "affine_orthogonality": ("affine_q_krawtchouk_nd", lambda: affine_orthogonality(3, F(1, 27), F(3))),
        "genfun_affine_krawtchouk": ("affine_q_krawtchouk_nd", lambda: genfun_affine_krawtchouk(3, F(1, 27), F(3))),
    }

    @pytest.mark.parametrize("check", sorted(CHECKS))
    @pytest.mark.parametrize("target", [(2, 2), (1, 3)], ids=["diagonal", "off-diagonal"])
    def test_a_shifted_value_fails(self, monkeypatch, check, target):
        helper, run = self.CHECKS[check]
        assert run()
        real = getattr(pascal, helper)

        def shifted(y, x, *args):
            num, den = real(y, x, *args)
            return (num * 10**9 + den, den * 10**9) if (y, x) == target else (num, den)

        monkeypatch.setattr(pascal, helper, shifted)
        assert run() is False


class TestMultiOrthogonalityClosed:
    def test_weighted_vector_example(self):
        lhs, rhs = multi_orthogonality_closed("vec", 2, None, 3, (1, 1), 2)
        assert lhs == rhs == 72

    def test_reduces_to_row_orthogonality(self):
        for r in (0, 1, 2):
            lhs, rhs = multi_orthogonality_closed("vec", 2, None, 3, (r,), r)
            brute = brute_force_phi(make_space("vec", make_field(3), 2))
            assert lhs == rhs == brute.orbit_sizes[r] * 9

    def test_strictly_smaller_sum_gives_zero(self):
        lhs, rhs = multi_orthogonality_closed("vec", 3, None, 3, (1,), 2)
        assert lhs == rhs == 0
        lhs, rhs = multi_orthogonality_closed("mat", 2, 3, 3, (1,), 2)
        assert lhs == rhs == 0

    def test_rectangular_cases(self):
        for parts, r in [((1,), 1), ((2,), 2), ((1, 1), 2)]:
            lhs, rhs = multi_orthogonality_closed("mat", 2, 2, 3, parts, r)
            assert lhs == rhs

    def test_rejects_oversized_parts(self):
        with pytest.raises(ValueError):
            multi_orthogonality_closed("vec", 2, None, 3, (1, 1), 1)
