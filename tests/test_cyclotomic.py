import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gftables.cyclotomic import (
    CycInt,
    IncompatibleRingError,
    PolyQ,
    QuadraticGamma,
    decompose_gamma,
)
from gftables.gfq import default_char, gauss_sum, make_field

PRIMES = [2, 3, 5, 7]


def cyc(p, *coeffs):
    return CycInt(p, coeffs)


class TestCycInt:
    def test_root_products(self):
        z1, z2 = CycInt.root(3, 1), CycInt.root(3, 2)
        assert z1 * z2 == 1
        assert (z2 - z1) * (z2 - z1) == -3
        assert CycInt.root(5, 2) * 0 == 0

    def test_all_roots_sum_to_zero(self):
        for p in PRIMES:
            total = CycInt.zero(p)
            for k in range(p):
                total = total + CycInt.root(p, k)
            assert total == 0
            assert CycInt.root(p, 1) ** p == 1

    def test_conjugation(self):
        assert CycInt.root(3, 1).conjugate() == CycInt.root(3, 2)
        assert CycInt.integer(5, 5).conjugate() == 5
        x = cyc(5, 1, -2, 3, 0)
        assert x.conjugate().conjugate() == x

    def test_as_int(self):
        assert CycInt.reduce(3, [1, 1, 1]) == 0
        assert CycInt.integer(7, 7).as_int() == 7
        with pytest.raises(ValueError, match="not a rational integer"):
            (CycInt.root(3, 2) - CycInt.root(3, 1)).as_int()

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_fast_constructors_match_init(self, p):
        cases = [
            (CycInt.integer(p, 4), [4] + [0] * (p - 2)),
            (CycInt.integer(p, np.int64(-3)), [-3] + [0] * (p - 2)),
            (CycInt.reduce(p, list(range(p))), [k - (p - 1) for k in range(p - 1)]),
            (CycInt.reduce(p, [5] + [0] * (p - 1)), [5] + [0] * (p - 2)),
            (CycInt.root(p, 1) + CycInt.root(p, 1) * 2 - CycInt.one(p), None),
        ]
        for got, coeffs in cases:
            want = CycInt(p, got.coeffs if coeffs is None else coeffs)
            assert all(type(c) is int for c in got.coeffs)
            assert got == want and hash(got) == hash(want)

    def test_mismatched_order(self):
        with pytest.raises(IncompatibleRingError):
            CycInt.root(3, 1) * CycInt.root(5, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        p=st.sampled_from(PRIMES),
        data=st.data(),
    )
    def test_ring_axioms(self, p, data):
        vec = st.lists(st.integers(-9, 9), min_size=p - 1, max_size=p - 1)
        x, y, z = (CycInt(p, data.draw(vec)) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert x + y == y + x
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


class TestQuadraticGamma:
    def test_square_closes(self):
        g = QuadraticGamma(0, 1, 3)
        assert g * g == QuadraticGamma(-3, 0, 3)
        g5 = QuadraticGamma(0, 1, 5)
        assert g5 * g5 == QuadraticGamma(5, 0, 5)

    def test_decompose_gauss_sum(self):
        ch = default_char(make_field(3))
        g = gauss_sum(ch)
        assert decompose_gamma(g, g, 3) == QuadraticGamma(0, 1, 3)
        assert decompose_gamma(g * g, g, 3) == QuadraticGamma(-3, 0, 3)

    def test_decompose_rejects_outsiders(self):
        ch = default_char(make_field(5))
        g = gauss_sum(ch)
        with pytest.raises(ValueError, match="quadratic"):
            decompose_gamma(CycInt.root(5, 1) + 1, g, 5)

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
    def test_embedding_respects_multiplication(self, q):
        p, e = (3, 2) if q == 9 else (q, 1)
        g = gauss_sum(default_char(make_field(p, e)))
        rng = random.Random(q)
        for _ in range(25):
            a = QuadraticGamma(rng.randint(-9, 9), rng.randint(-9, 9), q)
            b = QuadraticGamma(rng.randint(-9, 9), rng.randint(-9, 9), q)
            assert (a * b).to_cyc(g) == a.to_cyc(g) * b.to_cyc(g)

    def test_conjugate_matches_cyclotomic(self):
        for q in (3, 5, 7):
            g = gauss_sum(default_char(make_field(q)))
            x = QuadraticGamma(2, -3, q)
            assert x.conjugate().to_cyc(g) == x.to_cyc(g).conjugate()


class TestPolyQ:
    def test_eval_examples(self):
        assert (PolyQ.monomial(1, 2) - 1).eval_at(1) == 0
        assert ((PolyQ.monomial(1, 1) - 1) ** 2).eval_at(3) == 4

    def test_canonical_form(self):
        assert PolyQ((1, 2, 0, 0)).coeffs == (1, 2)
        assert PolyQ(()).is_zero() and PolyQ((0, 0)).is_zero()

    def test_exact_division(self):
        num = (PolyQ.monomial(1, 1) - 1) * (PolyQ.monomial(1, 3) + 7)
        assert num.exact_div(PolyQ.monomial(1, 1) - 1) == PolyQ.monomial(1, 3) + 7
        with pytest.raises(ValueError):
            (PolyQ.monomial(1, 2) + 1).exact_div(PolyQ.monomial(1, 1) - 1)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(st.integers(-6, 6), max_size=5),
        b=st.lists(st.integers(-6, 6), max_size=5),
        num=st.integers(-20, 20),
        den=st.integers(1, 9),
    )
    def test_arithmetic_commutes_with_evaluation(self, a, b, num, den):
        x = Fraction(num, den)
        pa, pb = PolyQ(a), PolyQ(b)
        assert (pa + pb).eval_at(x) == pa.eval_at(x) + pb.eval_at(x)
        assert (pa * pb).eval_at(x) == pa.eval_at(x) * pb.eval_at(x)
        assert (pa - pb).eval_at(x) == pa.eval_at(x) - pb.eval_at(x)
