import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftables import bulk, gfq, transform
from gftables.cyclotomic import CycInt
from gftables.gfq import (
    CharSpec,
    FieldSpec,
    arith,
    default_char,
    epsilon,
    field_for,
    gauss_sum,
    make_field,
    nonsquare_delta,
)
from gftables.verify import run_suite
from helpers import FieldElem, power

FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]


class TestConstruction:
    def test_small_fields(self):
        assert make_field(3).q == 3
        f9 = make_field(3, 2)
        assert f9.modulus == (1, 0, 1)  # x^2 + 1, no root mod 3
        assert make_field(2, 2).modulus == (1, 1, 1)

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError, match="not a prime"):
            make_field(4, 1)

    def test_rejects_huge(self):
        with pytest.raises(ValueError, match="too large"):
            make_field(2, 40)

    def test_field_orders(self):
        assert field_for(9) == make_field(3, 2) and field_for(13) == make_field(13)
        for q, message in ((6, "q=6 is not a prime power"), (1, "q=1 is not a prime power"), (1 << 21, "field too large")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                field_for(q)

    def test_enumeration_is_a_bijection(self):
        f = make_field(3, 2)
        seen = {tuple(f.digits(x)) for x in range(f.q)}
        assert seen == set(itertools.product(range(3), repeat=2))


class TestArithmetic:
    @settings(max_examples=80, deadline=None)
    @given(pe=st.sampled_from(FIELDS), data=st.data())
    def test_field_axioms(self, pe, data):
        f = make_field(*pe)
        F = arith(f)
        pick = st.integers(0, f.q - 1)
        x, y, z = (f.element_at(data.draw(pick)) for _ in range(3))
        assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))
        assert F.add(x, F.add(y, z)) == F.add(F.add(x, y), z)
        assert F.add(x, F.neg(x)) == 0
        if x:
            assert F.mul(x, F.inv(x)) == 1
        # Frobenius is a ring endomorphism
        assert power(F, F.add(x, y), f.p) == F.add(power(F, x, f.p), power(F, y, f.p))
        assert power(F, F.mul(x, y), f.p) == F.mul(power(F, x, f.p), power(F, y, f.p))

    @pytest.mark.parametrize("pe", FIELDS)
    def test_trace_linear_and_surjective(self, pe):
        f = make_field(*pe)
        F = arith(f)
        values = set()
        for x in range(f.q):
            for y in range(f.q):
                assert F.trace(F.add(x, y)) == (F.trace(x) + F.trace(y)) % f.p
            values.add(F.trace(x))
        assert values == set(range(f.p))

    def test_trace_examples(self):
        f3, f9 = make_field(3), make_field(3, 2)
        assert arith(f3).trace(2) == 2
        assert arith(f9).trace(f9.element_at(3)) == 0  # the class of x: x + x^3 = 0
        assert arith(f9).trace(0) == 0


class TestQuadraticCharacter:
    def test_sgn_values(self):
        F7 = arith(make_field(7))
        assert F7.sgn(1) == 1
        assert F7.sgn(3) == -1
        assert F7.sgn(0) == 1

    def test_sgn_needs_odd_q(self):
        with pytest.raises(ValueError, match="odd characteristic"):
            arith(make_field(2)).sgn(1)

    @pytest.mark.parametrize("pe", [(3, 1), (5, 1), (7, 1), (3, 2)])
    def test_sgn_multiplicative(self, pe):
        F = arith(make_field(*pe))
        nonzero = range(1, F.q)
        for x in nonzero:
            for y in nonzero:
                assert F.sgn(F.mul(x, y)) == F.sgn(x) * F.sgn(y)

    def test_delta(self):
        assert tuple(make_field(3).digits(nonsquare_delta(make_field(3)))) == (2,)
        assert tuple(make_field(5).digits(nonsquare_delta(make_field(5)))) == (2,)
        d9 = nonsquare_delta(make_field(3, 2))
        assert arith(make_field(3, 2)).sgn(d9) == -1

    def test_epsilon(self):
        assert epsilon(5) == 1 and epsilon(7) == -1 and epsilon(9) == 1
        for q, pe in [(3, (3, 1)), (5, (5, 1)), (7, (7, 1)), (9, (3, 2)), (11, (11, 1))]:
            F = arith(make_field(*pe))
            assert epsilon(q) == F.sgn(F.neg(1))
        with pytest.raises(ValueError):
            epsilon(4)


class TestCharactersAndGaussSums:
    def test_character_values(self):
        f3 = make_field(3)
        ch = default_char(f3)
        assert ch.value(0) == 1
        assert ch.value(1) == CycInt.root(3, 1)

    def test_zero_twist_rejected(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            CharSpec(f, 0)

    @pytest.mark.parametrize("pe,twist", [((3, 1), 0), ((3, 1), 3), ((3, 2), 9), ((3, 2), -1), ((5, 1), 7)])
    def test_twist_outside_the_nonzero_codes_rejected(self, pe, twist):
        with pytest.raises(ValueError, match="^twist must index a nonzero field element$"):
            CharSpec(make_field(*pe), twist)

    @pytest.mark.parametrize("pe", FIELDS)
    def test_character_orthogonality(self, pe):
        f = make_field(*pe)
        ch = default_char(f)
        total = CycInt.zero(f.p)
        for x in range(f.q):
            total = total + ch.value(x)
        assert total == 0

    @pytest.mark.parametrize("q,pe", [(3, (3, 1)), (5, (5, 1)), (7, (7, 1)), (9, (3, 2)), (11, (11, 1)), (13, (13, 1))])
    def test_gauss_sum_identities(self, q, pe):
        ch = default_char(make_field(*pe))
        g = gauss_sum(ch)
        assert g * g == epsilon(q) * q
        assert g * g.conjugate() == q

    def test_gauss_sum_value_small(self):
        g = gauss_sum(default_char(make_field(3)))
        assert g == CycInt.root(3, 2) - CycInt.root(3, 1)

    def test_square_character_sum_is_gauss_sum(self):
        # the full sum of the conjugate character over squares
        for pe in [(3, 1), (5, 1), (7, 1), (3, 2)]:
            f = make_field(*pe)
            F, ch = arith(f), default_char(f)
            vec = [0] * f.p
            for x in range(f.q):
                vec[(-ch.exponent(F.mul(x, x))) % f.p] += 1
            assert CycInt.reduce(f.p, vec) == gauss_sum(ch)


class TestCodedArithmetic:
    """arith on element codes, the numpy ops and the scalar ops, against the polynomial FieldElem of tests/helpers.py."""

    @staticmethod
    def check_tables(f):
        F, q = bulk.arith(f), f.q
        elems = [FieldElem.of(f, i) for i in range(q)]
        a, b = (x.ravel() for x in np.meshgrid(np.arange(q, dtype=np.int32), np.arange(q, dtype=np.int32)))
        pairs = [(elems[i], elems[j]) for i, j in zip(a.tolist(), b.tolist())]
        assert F.vreduce(F.vadd(a, b)).tolist() == [(x + y).code for x, y in pairs]
        assert F.vreduce(F.vsub(a, b)).tolist() == [(x - y).code for x, y in pairs]
        assert F.vreduce(F.vmul(a, b)).tolist() == [(x * y).code for x, y in pairs]
        codes = np.arange(q, dtype=np.int32)
        assert F.vreduce(F.vneg(codes)).tolist() == [(-x).code for x in elems]
        assert F.inv_table.tolist() == [0] + [x.inverse().code for x in elems[1:]]
        if q % 2:
            assert F.sgn_table.tolist() == [x.sgn() for x in elems]
        for c in range(q):
            assert F.trace_table(c).tolist() == [(elems[c] * x).trace() for x in elems]
        # the scalar ops on Python ints, on every pair and element
        for op, ref in ((F.add, FieldElem.__add__), (F.sub, FieldElem.__sub__), (F.mul, FieldElem.__mul__)):
            got = [op(i, j) for i, j in zip(a.tolist(), b.tolist())]
            assert all(type(v) is int for v in got)
            assert got == [ref(x, y).code for x, y in pairs]
        assert [F.neg(x) for x in range(q)] == [(-x).code for x in elems]
        assert [F.inv(x) for x in range(1, q)] == [x.inverse().code for x in elems[1:]]
        assert [F.trace(x) for x in range(q)] == [x.trace() for x in elems]
        if q % 2:
            assert [F.sgn(x) for x in range(q)] == [x.sgn() for x in elems]
        with pytest.raises(ZeroDivisionError):
            F.inv(0)

    @pytest.mark.parametrize("pe", [(3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
    def test_every_pair_and_element(self, pe):
        self.check_tables(make_field(*pe))

    def test_sgn_needs_odd_q(self):
        with pytest.raises(ValueError, match="odd characteristic"):
            bulk.arith(make_field(2, 2)).sgn_table
        with pytest.raises(ValueError, match="odd characteristic"):
            bulk.arith(make_field(2, 2)).sgn(1)

    def test_second_modulus_gets_its_own_tables(self):
        f9, g9 = make_field(3, 2), FieldSpec(3, 2, (2, 1, 1))  # x^2 + 1 and x^2 + x + 2, both irreducible
        assert f9.modulus != g9.modulus
        assert bulk.arith(g9) is bulk.arith(FieldSpec(3, 2, (2, 1, 1)))
        assert bulk.arith(g9) is not bulk.arith(f9)
        x = np.array([3], dtype=np.int32)  # the class of x in both
        assert bulk.arith(f9).vmul(x, x).tolist() == [2]  # x^2 = -1
        assert bulk.arith(g9).vmul(x, x).tolist() == [7]  # x^2 = -x - 2 = 2x + 1
        self.check_tables(g9)


def test_suites_need_no_polynomial_product_once_the_tables_exist(monkeypatch):
    """After the log tables are built, verify gauss and verify diagrams run on them alone."""

    def refuse(*args):
        raise AssertionError("polynomial product after the tables were built")

    for q in (2, 3, 4, 5, 7, 9, 11, 13):  # every field of the verification grid
        arith(field_for(q))._log_exp
    transform._orbit_counts_cached.cache_clear()  # enumerate again, not from the memo
    bulk._codes.cache_clear()
    monkeypatch.setattr(gfq, "_mulmod", refuse)
    with pytest.raises(AssertionError):
        gfq._powmod(field_for(9), 3, 2)
    for name, checks in (("gauss", 24), ("diagrams", 36)):
        rep = run_suite(name)
        assert rep.ok and len(rep.checks) == checks, "\n".join(rep.lines())
