import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftables import bulk
from gftables.cyclotomic import CycInt
from gftables.gfq import (
    CharSpec,
    FieldSpec,
    default_char,
    epsilon,
    gauss_sum,
    make_field,
    nonsquare_delta,
    sgn,
    trace,
)

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

    def test_enumeration_is_a_bijection(self):
        f = make_field(3, 2)
        seen = {f.index_of(x) for x in f.elements()}
        assert seen == set(range(9))


class TestArithmetic:
    @settings(max_examples=80, deadline=None)
    @given(pe=st.sampled_from(FIELDS), data=st.data())
    def test_field_axioms(self, pe, data):
        f = make_field(*pe)
        pick = st.integers(0, f.q - 1)
        x, y, z = (f.element_at(data.draw(pick)) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (y + z) == (x + y) + z
        assert x + (-x) == f.zero()
        if not x.is_zero():
            assert x * x.inverse() == f.one()
        # Frobenius is a ring endomorphism
        assert (x + y) ** f.p == x**f.p + y**f.p
        assert (x * y) ** f.p == x**f.p * y**f.p

    @pytest.mark.parametrize("pe", FIELDS)
    def test_trace_linear_and_surjective(self, pe):
        f = make_field(*pe)
        values = set()
        for x in f.elements():
            for y in f.elements():
                assert trace(x + y) == (trace(x) + trace(y)) % f.p
            values.add(trace(x))
        assert values == set(range(f.p))

    def test_trace_examples(self):
        f3, f9 = make_field(3), make_field(3, 2)
        assert trace(f3.from_int(2)) == 2
        assert trace(f9.element_at(3)) == 0  # the class of x: x + x^3 = 0
        assert trace(f9.zero()) == 0


class TestQuadraticCharacter:
    def test_sgn_values(self):
        f7 = make_field(7)
        assert sgn(f7.one()) == 1
        assert sgn(f7.from_int(3)) == -1
        assert sgn(f7.zero()) == 1

    def test_sgn_needs_odd_q(self):
        with pytest.raises(ValueError, match="odd characteristic"):
            sgn(make_field(2).one())

    @pytest.mark.parametrize("pe", [(3, 1), (5, 1), (7, 1), (3, 2)])
    def test_sgn_multiplicative(self, pe):
        f = make_field(*pe)
        nonzero = [x for x in f.elements() if not x.is_zero()]
        for x in nonzero:
            for y in nonzero:
                assert sgn(x * y) == sgn(x) * sgn(y)

    def test_delta(self):
        assert nonsquare_delta(make_field(3)).coeffs == (2,)
        assert nonsquare_delta(make_field(5)).coeffs == (2,)
        d9 = nonsquare_delta(make_field(3, 2))
        assert sgn(d9) == -1

    def test_epsilon(self):
        assert epsilon(5) == 1 and epsilon(7) == -1 and epsilon(9) == 1
        for q, pe in [(3, (3, 1)), (5, (5, 1)), (7, (7, 1)), (9, (3, 2)), (11, (11, 1))]:
            assert epsilon(q) == sgn(-make_field(*pe).one())
        with pytest.raises(ValueError):
            epsilon(4)


class TestCharactersAndGaussSums:
    def test_character_values(self):
        f3 = make_field(3)
        ch = default_char(f3)
        assert ch.value(f3.zero()) == 1
        assert ch.value(f3.one()) == CycInt.root(3, 1)

    def test_zero_twist_rejected(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            CharSpec(f, f.zero())

    @pytest.mark.parametrize("pe", FIELDS)
    def test_character_orthogonality(self, pe):
        f = make_field(*pe)
        ch = default_char(f)
        total = CycInt.zero(f.p)
        for x in f.elements():
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
            ch = default_char(f)
            vec = [0] * f.p
            for x in f.elements():
                vec[(-ch.exponent(x * x)) % f.p] += 1
            assert CycInt.reduce(f.p, vec) == gauss_sum(ch)


class TestCodedArithmetic:
    """bulk.arith on element codes against FieldElem polynomial arithmetic."""

    @staticmethod
    def check_tables(f):
        F, q = bulk.arith(f), f.q
        elems = list(f.elements())
        a, b = (x.ravel() for x in np.meshgrid(np.arange(q, dtype=np.int32), np.arange(q, dtype=np.int32)))
        pairs = [(elems[i], elems[j]) for i, j in zip(a.tolist(), b.tolist())]
        assert F.reduce(F.add(a, b)).tolist() == [f.index_of(x + y) for x, y in pairs]
        assert F.reduce(F.sub(a, b)).tolist() == [f.index_of(x - y) for x, y in pairs]
        assert F.reduce(F.mul(a, b)).tolist() == [f.index_of(x * y) for x, y in pairs]
        codes = np.arange(q, dtype=np.int32)
        assert F.reduce(F.neg(codes)).tolist() == [f.index_of(-x) for x in elems]
        assert F.inv.tolist() == [0] + [f.index_of(x.inverse()) for x in elems[1:]]
        if q % 2:
            assert F.sgn.tolist() == [sgn(x) for x in elems]
        for c in range(q):
            assert F.trace_table(c).tolist() == [trace(elems[c] * x) for x in elems]

    @pytest.mark.parametrize("pe", [(3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
    def test_every_pair_and_element(self, pe):
        self.check_tables(make_field(*pe))

    def test_sgn_needs_odd_q(self):
        with pytest.raises(ValueError, match="odd characteristic"):
            bulk.arith(make_field(2, 2)).sgn

    def test_second_modulus_gets_its_own_tables(self):
        f9, g9 = make_field(3, 2), FieldSpec(3, 2, (2, 1, 1))  # x^2 + 1 and x^2 + x + 2, both irreducible
        assert f9.modulus != g9.modulus
        assert bulk.arith(g9) is bulk.arith(FieldSpec(3, 2, (2, 1, 1)))
        assert bulk.arith(g9) is not bulk.arith(f9)
        x = np.array([3], dtype=np.int32)  # the class of x in both
        assert bulk.arith(f9).mul(x, x).tolist() == [2]  # x^2 = -1
        assert bulk.arith(g9).mul(x, x).tolist() == [7]  # x^2 = -x - 2 = 2x + 1
        self.check_tables(g9)
