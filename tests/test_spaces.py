import random

import pytest

from gftables.gfq import arith, default_char, make_field
from gftables.pascal import closed_form_table, family_table
from gftables.spaces import (
    BudgetError,
    OrbitLabel,
    make_space,
    matrix_rank,
    symmetric_sign,
)
from gftables.symmetric import psi_brute, psi_closed
from helpers import random_mate

F3 = make_field(3)
F5 = make_field(5)


def orbit_sizes(space, budget=10**6):
    out = {}
    for a in space.elements(budget):
        lbl = space.classify(a)
        out[lbl] = out.get(lbl, 0) + 1
    return out


class TestLabels:
    def test_label_ordering_and_text(self):
        assert [str(l) for l in make_space("vec", F3, 2).labels()] == ["0", "1", "2"]
        assert [str(l) for l in make_space("alt", F3, 5).labels()] == ["0", "2", "4"]
        assert [str(l) for l in make_space("sym", F3, 2).labels()] == ["0", "1+", "1-", "2+", "2-"]
        assert [str(l) for l in make_space("symscaled", F3, 2).labels()] == ["0", "1", "2+", "2-"]

    def test_label_parse_round_trip(self):
        for text in ("0", "3", "2+", "5-"):
            assert str(OrbitLabel.parse(text)) == text

    def test_rectangular_requires_n_le_m(self):
        with pytest.raises(ValueError, match="n <= m"):
            make_space("mat", F3, 2, 1)

    def test_odd_q_requirement(self):
        f2 = make_field(2)
        for fam in ("alt", "sym", "symscaled"):
            with pytest.raises(ValueError, match="odd"):
                make_space(fam, f2, 2)


class TestClassification:
    def test_vec_weight(self):
        v = make_space("vec", F3, 3)
        elem = (1, 0, 2)
        assert v.classify(elem) == OrbitLabel(2)

    def test_rank_basics(self):
        m = make_space("mat", F3, 2, 2)
        assert m.classify(m.zero()) == OrbitLabel(0)
        anti = m.from_matrix([[0, 1], [1, 0]])
        assert m.classify(anti) == OrbitLabel(2)

    def test_alt_rank_is_even(self):
        a = make_space("alt", F3, 4)
        for elem in a.elements():
            assert a.classify(elem).r % 2 == 0

    def test_stream_sizes(self):
        assert len(list(make_space("vec", F3, 1).elements())) == 3
        assert len(list(make_space("alt", F3, 2).elements())) == 3
        assert len(list(make_space("sym", F3, 2).elements())) == 27

    def test_partition_of_whole_space(self):
        for fam, n, m, f in [
            ("vec", 3, None, F3),
            ("mat", 2, 3, F3),
            ("alt", 4, None, F3),
            ("sym", 2, None, F5),
            ("symscaled", 2, None, F3),
        ]:
            sp = make_space(fam, f, n, m)
            sizes = orbit_sizes(sp)
            assert sum(sizes.values()) == sp.size
            assert set(sizes) == set(sp.labels())

    @pytest.mark.parametrize(
        "fam,n,m",
        [("vec", 3, None), ("mat", 2, 3), ("alt", 4, None), ("sym", 2, None), ("symscaled", 3, None)],
    )
    def test_classify_constant_on_orbits(self, fam, n, m):
        sp = make_space(fam, F3, n, m)
        rng = random.Random(11)
        for _ in range(200):
            a = sp.element_at(rng.randrange(sp.size))
            assert sp.classify(random_mate(sp, a, rng)) == sp.classify(a)

    def test_representative_round_trip(self):
        for fam, n, m, f in [
            ("vec", 3, None, F3),
            ("mat", 2, 3, F5),
            ("alt", 5, None, F3),
            ("sym", 3, None, F3),
            ("symscaled", 3, None, F5),
        ]:
            sp = make_space(fam, f, n, m)
            for lbl in sp.labels():
                assert sp.classify(sp.representative(lbl)) == lbl

    def test_illegal_label_rejected(self):
        sp = make_space("alt", F3, 4)
        with pytest.raises(ValueError):
            sp.representative(OrbitLabel(3))


class TestOrbitSizes:
    @pytest.mark.parametrize(
        "fam,n,m,f",
        [
            ("vec", 2, None, F3),
            ("vec", 3, None, F5),
            ("mat", 1, 2, F3),
            ("mat", 2, 2, F3),
            ("mat", 2, 3, F3),
            ("alt", 4, None, F3),
            ("alt", 4, None, F5),
            ("alt", 5, None, F3),
        ],
    )
    def test_closed_sizes_match_enumeration(self, fam, n, m, f):
        sp = make_space(fam, f, n, m)
        sizes = orbit_sizes(sp)
        for lbl in sp.labels():
            assert sp.orbit_size_poly(lbl).eval_at(f.q) == sizes[lbl]

    def test_vec_size_formula(self):
        sp = make_space("vec", F3, 2)
        assert sp.orbit_size_poly(OrbitLabel(1)).eval_at(3) == 2 * (3 - 1)

    def test_sym_has_no_closed_size(self):
        sp = make_space("sym", F3, 2)
        with pytest.raises(ValueError, match="no closed form"):
            sp.orbit_size_poly(OrbitLabel(1, 1))


class TestPairing:
    def test_symmetry_and_nondegeneracy(self):
        rng = random.Random(5)
        for fam, n, m in [("vec", 3, None), ("mat", 2, 2, ), ("alt", 4, None), ("sym", 2, None)]:
            sp = make_space(fam, F3, n, m)
            for _ in range(40):
                a = sp.element_at(rng.randrange(sp.size))
                b = sp.element_at(rng.randrange(sp.size))
                assert sp.pair(a, b) == sp.pair(b, a)
            for a in sp.elements():
                if a == sp.zero():
                    continue
                assert any(sp.pair(a, b) != 0 for b in sp.elements())
                break  # one nonzero element suffices as a smoke check

    def test_zero_pairs_to_zero(self):
        sp = make_space("mat", F3, 2, 2)
        a = sp.element_at(37)
        assert sp.pair(a, sp.zero()) == 0


class TestSymmetricSign:
    def test_diag_with_nonsquare(self):
        sp = make_space("sym", F3, 2)
        dd = sp.from_matrix([[1, 0], [0, F3.delta()]])
        assert sp.rank_and_sign(dd) == (2, -1)

    def test_antidiagonal_has_sign_eps(self):
        for f, eps in [(F3, -1), (F5, 1), (make_field(7), -1)]:
            sp = make_space("sym", f, 2)
            anti = sp.from_matrix([[0, 1], [1, 0]])
            assert sp.rank_and_sign(anti) == (2, eps)

    def test_scaling_by_delta_flips_odd_ranks(self):
        sp = make_space("sym", F3, 3)
        delta = F3.delta()
        rng = random.Random(3)
        for _ in range(120):
            a = sp.element_at(rng.randrange(sp.size))
            r, s = sp.rank_and_sign(a)
            scaled = tuple(arith(F3).mul(delta, x) for x in a)
            r2, s2 = sp.rank_and_sign(scaled)
            assert r2 == r
            assert s2 == (s if r % 2 == 0 else -s)

    def test_block_multiplicativity(self):
        rng = random.Random(9)
        s1 = make_space("sym", F3, 1)
        s2 = make_space("sym", F3, 2)
        s3 = make_space("sym", F3, 3)
        for _ in range(60):
            a = s1.as_matrix(s1.element_at(rng.randrange(s1.size)))
            b = s2.as_matrix(s2.element_at(rng.randrange(s2.size)))
            block = [
                [a[0][0], 0, 0],
                [0, b[0][0], b[0][1]],
                [0, b[1][0], b[1][1]],
            ]
            _, sa = symmetric_sign(a, F3)
            _, sb = symmetric_sign(b, F3)
            _, sab = symmetric_sign(block, F3)
            assert sab == sa * sb

    def test_congruence_invariance(self):
        sp = make_space("sym", F5, 2)
        rng = random.Random(17)
        for _ in range(80):
            a = sp.element_at(rng.randrange(sp.size))
            assert sp.rank_and_sign(random_mate(sp, a, rng)) == sp.rank_and_sign(a)

    def test_zero_matrix_sign_is_plus(self):
        sp = make_space("sym", F3, 2)
        assert sp.rank_and_sign(sp.zero()) == (0, 1)


class TestCountingLemma:
    @pytest.mark.parametrize("q", [2, 3])
    def test_rank_shift_counts(self, q):
        # fix a of rank l; the number of b with rank b = k and
        # rank(a+b) = l+k equals q^(2kl) times the (n-l, m-l) orbit size
        f = make_field(q)
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
                            small = make_space("mat", f, n - l, m - l).orbit_size_poly(
                                OrbitLabel(k)
                            ).eval_at(q)
                        assert count == q ** (2 * k * l) * small


class TestEnumeration:
    def test_budget_enforced(self):
        sp = make_space("mat", F5, 2, 3)
        with pytest.raises(BudgetError):
            list(sp.elements(budget=100))

    def test_deterministic_order(self):
        sp = make_space("vec", F3, 2)
        first = [sp.element_at(i) for i in range(9)]
        assert list(sp.elements()) == first
        # coordinate 0 is the fastest digit
        assert first[1][0] == 1 and first[1][1] == 0

    def test_rank_helper(self):
        rows = [[1, 2], [0, 1]]
        assert matrix_rank(rows, F3) == 2
        rows = [[1, 2], [2, 4 % 3]]
        assert matrix_rank(rows, F3) == 1  # the second row is twice the first


def test_negative_n_gets_the_one_message_everywhere():
    calls = [lambda fam=fam: make_space(fam, F3, -1, 1 if fam == "mat" else None) for fam in ("vec", "mat", "alt", "sym", "symscaled")]
    calls += [
        lambda: psi_brute(-1, default_char(F3)),
        lambda: psi_closed(-1, default_char(F3)),
        lambda: family_table("vec", -1),
        lambda: closed_form_table("vec", -1, None, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
            call()
