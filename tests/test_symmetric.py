import pytest

from gftables import cyclotomic, pascal, symmetric
from gftables.cyclotomic import QuadraticGamma
from gftables.gfq import CharSpec, default_char, make_field
from gftables.spaces import OrbitLabel, make_space
from gftables.symmetric import (
    phi_from_psi,
    psi_brute,
    psi_closed,
    relation_suite,
    scaled_canonical_from_blocks,
    scaled_restriction,
    sym_diagram_matrices,
)
from gftables.transform import Diagram, brute_force_phi

from helpers import scaled_matrix_from_canonical, twist_swaps_odd_sign_rows

F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)
CH3, CH5, CH7 = default_char(F3), default_char(F5), default_char(F7)


class TestBruteBlocks:
    def test_first_column_normalization(self):
        blocks, _ = psi_brute(3, CH3)
        assert all(blocks.b1(s, 0) == QuadraticGamma(1, 0, 3) for s in range(4))
        assert all(blocks.b3(s, 0) == QuadraticGamma(0, 0, 3) for s in range(1, 4))

    def test_known_entries(self):
        blocks2, _ = psi_brute(2, CH3)
        assert blocks2.b3(2, 1) == QuadraticGamma(-3, 0, 3)  # eps * q
        blocks1, _ = psi_brute(1, CH3)
        assert blocks1.b4(1, 1) == QuadraticGamma(0, 1, 3)  # the Gauss sum itself

    def test_structural_zeros(self):
        blocks, _ = psi_brute(3, CH5)
        zero = QuadraticGamma(0, 0, 5)
        for s in range(4):
            for r in range(1, 4):
                if r % 2:
                    assert blocks.b2(s, r) == zero
        for s in range(1, 4):
            if s % 2:
                assert all(blocks.b3(s, r) == zero for r in range(4))
            for r in range(1, 4):
                if not (s % 2 and r % 2):
                    assert blocks.b4(s, r) == zero
                else:
                    assert blocks.b4(s, r).a == 0  # purely a gamma multiple

    def test_neighbor_relations_on_brute_data(self):
        blocks, _ = psi_brute(3, CH3)
        for r in range(4):
            assert blocks.b1(1, r) == blocks.b1(2, r)
        for s in range(1, 4):
            for r in (0, 2):
                rhs = blocks.b1(s, r + 1) if r + 1 <= 3 else QuadraticGamma(0, 0, 3)
                assert blocks.b1(s, r) == -1 * rhs

    def test_sign_symmetries(self):
        _, phi = psi_brute(2, CH5)
        assert phi.entry(OrbitLabel(1, 1), OrbitLabel(1, 1)) == phi.entry(OrbitLabel(1, -1), OrbitLabel(1, -1))
        assert phi.entry(OrbitLabel(1, 1), OrbitLabel(2, 1)) == phi.entry(OrbitLabel(1, -1), OrbitLabel(2, 1))
        assert phi.entry(OrbitLabel(2, 1), OrbitLabel(1, 1)) == phi.entry(OrbitLabel(2, 1), OrbitLabel(1, -1))
        assert phi.entry(OrbitLabel(0), OrbitLabel(1, 1)) == phi.entry(OrbitLabel(0), OrbitLabel(1, -1))


class TestClosedForms:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_brute_equals_closed(self, n, q):
        ch = default_char(make_field(q))
        blocks, _ = psi_brute(n, ch)
        assert blocks == psi_closed(n, ch)

    def test_brute_equals_closed_size_four(self):
        # within budget at q = 3 only
        blocks, _ = psi_brute(4, CH3)
        assert blocks == psi_closed(4, CH3)

    @pytest.mark.parametrize("q", [3, 5])
    def test_closed_forms_pass_integer_pairs(self, monkeypatch, q):
        # size 0, read by psi1 at n = 1 and psi3 at n = 2, has A = q^-1
        seen = []
        real = pascal.q_krawtchouk_column_nd

        def spy(y, x, A, N, t):
            seen.append((*A, *t))
            return real(y, x, A, N, t)

        monkeypatch.setattr(pascal, "q_krawtchouk_column_nd", spy)
        for n in range(1, 5):
            psi_closed(n, default_char(make_field(q)))
        assert seen and all(type(v) is int for args in seen for v in args)

    @pytest.mark.parametrize("n,q", [(2, 3), (3, 5), (2, 27)])
    def test_brute_blocks_need_no_decomposition_in_zeta(self, monkeypatch, n, q):
        """psi_brute reads each block off the eta coordinates of its QuadInt entries, never through decompose_gamma."""
        def refuse(*args):
            raise AssertionError("decompose_gamma called")

        for owner in (symmetric, cyclotomic):
            monkeypatch.setattr(owner, "decompose_gamma", refuse)
        ch = default_char(make_field(3, 3) if q == 27 else make_field(q))
        assert psi_brute(n, ch)[0] == psi_closed(n, ch)

    def test_even_degree_fields_rejected_for_recovery(self):
        # over GF(9) the Gauss sum is the rational integer 3, so block
        # recovery from brute values has no unique (a, b) solution
        from gftables.gfq import gauss_sum

        f9 = make_field(3, 2)
        ch9 = default_char(f9)
        assert gauss_sum(ch9).as_int() == 3
        with pytest.raises(ValueError, match="odd-degree"):
            psi_brute(2, ch9)

    def test_closed_forms_still_valid_over_even_degree(self):
        # the closed formulas are identities in q and reproduce the brute
        # canonical matrices even where recovery is ill-posed
        f9 = make_field(3, 2)
        ch9 = default_char(f9)
        for n in (1, 2):
            closed = psi_closed(n, ch9)
            assert phi_from_psi(closed).entries == brute_force_phi(make_space("sym", f9, n), ch9).entries
            assert (
                scaled_canonical_from_blocks(closed).entries
                == brute_force_phi(make_space("symscaled", f9, n), ch9).entries
            )

    def test_base_change_round_trip(self):
        for n, ch in [(1, CH3), (2, CH3), (2, CH5), (3, CH3)]:
            blocks, phi = psi_brute(n, ch)
            assert phi_from_psi(blocks).entries == phi.entries

    def test_orbit_sizes_from_first_rows(self):
        blocks, phi = psi_brute(2, CH3)
        for r in (1, 2):
            total = blocks.b1(0, r).a
            signed = blocks.b2(0, r).a
            assert (total + signed) // 2 == phi.size_of(OrbitLabel(r, 1))
            assert (total - signed) // 2 == phi.size_of(OrbitLabel(r, -1))


class TestRelationSuite:
    @pytest.mark.parametrize("n,q", [(1, 3), (2, 3), (1, 5), (2, 5), (3, 3), (1, 7)])
    def test_all_relations_hold(self, n, q):
        ch = default_char(make_field(q))
        rep = relation_suite(n, ch, budget=10**5)
        assert rep.ok, "\n".join(l for l in rep.lines() if "FAIL" in l)
        ladder = [c.skipped for c in rep.checks if c.ident == "sym/first-row-ladder"]
        assert ladder == [(n, q) in {(2, 5), (3, 3), (1, 7)}]  # size n + 2 over the budget

    def test_ladder_skipped_over_budget(self):
        rep = relation_suite(3, CH3, budget=10**3)
        lines = [c for c in rep.checks if c.ident == "sym/first-row-ladder"]
        assert lines and lines[0].skipped

    def test_ladder_runs_within_budget(self):
        rep = relation_suite(1, CH5, budget=10**6)
        lines = [c for c in rep.checks if c.ident == "sym/first-row-ladder"]
        assert lines and not lines[0].skipped and lines[0].ok


class TestDiagramBlocks:
    @pytest.mark.parametrize("n,q,which", [(2, 3, 1), (3, 3, 1), (2, 5, 1), (2, 3, 2), (3, 3, 2), (3, 5, 2), (4, 3, 2)])
    def test_patterns(self, n, q, which):
        ch = default_char(make_field(q))
        rep = sym_diagram_matrices(n, ch, which)
        assert rep.ok, "\n".join(rep.lines())

    @pytest.mark.parametrize("which,kind,r", [(1, "chi", 1), (1, "sgn", 1), (2, "chi", 2), (2, "sgn", 2)])
    def test_a_wrong_push_fails_its_own_check(self, monkeypatch, which, kind, r):
        push = symmetric.pushforward_matrix

        def bumped(d, char):
            E = push(d, char)
            plus, minus = (d.upper.labels().index(OrbitLabel(r, sign)) for sign in (1, -1))
            # lower rank 0 has one sign point, so the push reads row 0 unaveraged; +1 on both sign columns
            # moves chi_r alone, +1 and -1 moves sgnchi_r alone
            E[0][plus] += 1
            E[0][minus] += 1 if kind == "chi" else -1
            return E

        monkeypatch.setattr(symmetric, "pushforward_matrix", bumped)
        leg = ("one-step", "two-step")[which - 1]
        assert [c.ident for c in sym_diagram_matrices(3, CH3, which).failures] == [f"sym-diagram/{leg}-push-{kind}"]

    def test_a_split_merged_orbit_raises(self, monkeypatch):
        push = symmetric.pushforward_matrix

        def split(d, char):
            E = push(d, char)
            E[d.lower.labels().index(OrbitLabel(1, -1))][0] += 1  # the two sign points of lower rank 1 now differ
            return E

        monkeypatch.setattr(symmetric, "pushforward_matrix", split)
        with pytest.raises(AssertionError, match="scaled pushforward not constant on a merged orbit"):
            sym_diagram_matrices(3, CH3, 2)

    @pytest.mark.parametrize("n,which", [(3, 1), (4, 2)])
    def test_a_wrong_label_map_fails_the_map_and_pullback_checks(self, monkeypatch, n, which):
        label_map = Diagram.label_map

        def swapped(self):
            lm = label_map(self)
            lm[OrbitLabel(2, 1)], lm[OrbitLabel(2, -1)] = lm[OrbitLabel(2, -1)], lm[OrbitLabel(2, 1)]
            return lm

        monkeypatch.setattr(Diagram, "label_map", swapped)
        leg = ("one-step", "two-step")[which - 1]
        failed = [c.ident for c in sym_diagram_matrices(n, CH3, which).failures]
        assert failed == [f"sym-diagram/{leg}-label-map", f"sym-diagram/{leg}-pullback"]


class TestScaledAction:
    def test_smallest_case_matches_spec_table(self):
        blocks, _ = psi_brute(1, CH3)
        names, mat = scaled_restriction(blocks)
        assert names == ["chi0", "chi1"]
        assert [[e.a for e in row] for row in mat] == [[1, 2], [1, -1]]

    @pytest.mark.parametrize("n,q", [(1, 3), (2, 3), (3, 3), (2, 5)])
    def test_restriction_equals_scaled_base_change(self, n, q):
        ch = default_char(make_field(q))
        blocks, _ = psi_brute(n, ch)
        _, restricted = scaled_restriction(blocks)
        phi_scaled = brute_force_phi(make_space("symscaled", make_field(q), n), ch)
        assert restricted == scaled_matrix_from_canonical(phi_scaled)

    @pytest.mark.parametrize("n,q", [(1, 3), (2, 3), (3, 5)])
    def test_scaled_canonical_from_closed_blocks(self, n, q):
        ch = default_char(make_field(q))
        built = scaled_canonical_from_blocks(psi_closed(n, ch))
        brute = brute_force_phi(make_space("symscaled", make_field(q), n), ch)
        assert built.entries == brute.entries

    def test_label_set(self):
        phi = brute_force_phi(make_space("symscaled", F3, 2))
        assert [str(l) for l in phi.labels] == ["0", "1", "2+", "2-"]


class TestTwistDependence:
    @pytest.mark.parametrize("n,q", [(1, 3), (2, 3), (1, 5), (2, 5)])
    def test_nonsquare_twist_swaps_odd_sign_rows(self, n, q):
        assert twist_swaps_odd_sign_rows(n, make_field(q))

    def test_square_twist_preserves_rows(self):
        # a square twist relabels within the same sign classes
        f = make_field(5)
        base = brute_force_phi(make_space("sym", f, 2), default_char(f))
        sq = brute_force_phi(make_space("sym", f, 2), CharSpec(f, 4))
        assert sq.entries == base.entries
