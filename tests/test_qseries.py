import math
from fractions import Fraction

import pytest

import helpers as ref
from gftables import qseries
from gftables.pascal import _orthogonal
from gftables.qseries import (
    affine_q_krawtchouk,
    gauss_binom,
    gauss_binom_poly,
    krawtchouk,
    pochhammer,
    q_krawtchouk_column,
    q_pochhammer,
)

F = Fraction


class TestPochhammer:
    def test_values(self):
        assert pochhammer(F(7, 3), 0) == 1
        assert pochhammer(-2, 2) == 2
        assert pochhammer(-2, 3) == 0

    def test_negative_length(self):
        with pytest.raises(ValueError, match="negative length"):
            pochhammer(1, -1)
        with pytest.raises(ValueError, match="negative length"):
            q_pochhammer(1, 2, -1)

    def test_q_values(self):
        assert q_pochhammer(F(1, 2), 3, 0) == 1
        assert q_pochhammer(3, 3, 2) == (1 - 3) * (1 - 9)
        assert q_pochhammer(1, 5, 3) == 0


class TestGaussBinomial:
    def test_edges(self):
        for n in range(6):
            assert gauss_binom(n, 0, F(3)) == 1
            assert gauss_binom(n, n, F(5)) == 1

    def test_expansion(self):
        assert gauss_binom_poly(2, 1).coeffs == (1, 1)  # 1 + q
        assert gauss_binom_poly(4, 2).eval_at(1) == 6

    def test_q1_is_binomial(self):
        from math import comb

        for n in range(7):
            for x in range(n + 1):
                assert gauss_binom(n, x, 1) == comb(n, x)

    def test_ratio_form(self):
        # agrees with the quotient of q-shifted factorials away from q = 1
        for q in (F(2), F(3), F(5, 2)):
            for n in range(5):
                for x in range(n + 1):
                    want = q_pochhammer(q**n, 1 / q, x) / q_pochhammer(q, q, x)
                    assert gauss_binom(n, x, q) == want

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            gauss_binom(3, 4, F(2))
        with pytest.raises(ValueError, match="out of range"):
            gauss_binom(3, -1, F(2))


class TestKrawtchouk:
    def test_edge_values(self):
        assert krawtchouk(0, 3, F(1, 3), 5) == 1
        assert krawtchouk(4, 0, F(1, 3), 5) == 1

    def test_two_term_value(self):
        N, p = 6, F(2, 3)
        assert krawtchouk(1, 1, p, N) == 1 - 1 / (N * p)

    def test_polynomial_degree_in_x(self):
        # finite differences: order y+1 vanishes, order y does not
        N, p = 6, F(1, 3)
        for y in range(N + 1):
            vals = [krawtchouk(y, x, p, N) for x in range(y + 2)]
            for order in range(y + 1):
                vals = [b - a for a, b in zip(vals, vals[1:])]
                if order == y - 1:
                    assert any(vals)
            assert all(v == 0 for v in vals)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            krawtchouk(7, 0, F(1, 2), 6)


class TestAffineQKrawtchouk:
    def test_edge_values(self):
        assert affine_q_krawtchouk(0, 2, F(1, 9), 3, F(3)) == 1
        assert affine_q_krawtchouk(2, 0, F(1, 9), 3, F(3)) == 1

    def test_forced_value(self):
        for q in (2, 3, 5):
            for m in (1, 2, 3):
                got = affine_q_krawtchouk(1, 1, F(1, q**m), 1, F(q))
                assert got == F(-1, q**m - 1)

    def test_large_x_truncates(self):
        # x beyond y is legal: the series stops at min(x, y)
        v = affine_q_krawtchouk(1, 5, F(1, 27), 3, F(3))
        assert v.denominator > 0

    def test_pole_detected(self):
        with pytest.raises(ValueError, match="pole"):
            affine_q_krawtchouk(3, 3, F(1, 9), 4, F(3))  # a = q^-2 vanishes at k = 2

    def test_polynomial_degree_in_q_to_minus_x(self):
        # interpolate through y+2 nodes z = q^-x; the top divided
        # difference must vanish
        q, N, m = F(3), 4, 5
        a = q**-m
        for y in range(N + 1):
            xs = list(range(y + 2))
            nodes = [q**-x for x in xs]
            vals = [affine_q_krawtchouk(y, x, a, N, q) for x in xs]
            # Newton divided differences
            dd = list(vals)
            for order in range(1, len(xs)):
                dd = [
                    (dd[i + 1] - dd[i]) / (nodes[i + order] - nodes[i])
                    for i in range(len(dd) - 1)
                ]
                if order == y and y > 0:
                    assert any(dd)
            assert all(v == 0 for v in dd)


class TestKrawtchoukColumn:
    def test_zero_past_N(self):
        for N in range(4):
            for y in range(N + 1):
                for x in range(N + 1, N + 3):
                    assert q_krawtchouk_column(y, x, F(25), N, F(25)) == 0
                    assert q_krawtchouk_column(y, x, F(2, 3), N, F(5, 7)) == 0


def _outcome(fn, *args):
    """A value with its type, or the ValueError or ZeroDivisionError raised and its message."""
    try:
        v = fn(*args)
    except (ValueError, ZeroDivisionError) as err:
        return type(err), str(err)
    return type(v), v


def _same_outcomes(name, calls):
    """Each call of qseries.<name> and of the Fraction reference in helpers gives the same outcome."""
    new, old = getattr(qseries, name), getattr(ref, name)
    errors = 0
    for args in calls:
        got, want = _outcome(new, *args), _outcome(old, *args)
        if want[0] is ZeroDivisionError:
            assert got[0] is ZeroDivisionError, (name, args, got)  # the message is Fraction's own
        else:
            assert got == want, (name, args, got, want)
        errors += want[0] is not Fraction
    return errors


P_GRID = [F(1, 3), F(2, 3), F(3, 4), F(5, 2), F(-2, 7)]
Q_GRID = [2, 3, 25, F(3, 2), F(2, 5), -2]
A_GRID = [F(1, 27), F(2, 9), F(-5, 7), F(7, 4), 3]


class TestAgainstFractionReference:
    """The integer-pair route of qseries against the former Fraction route, kept in tests/helpers.py.

    Each grid covers x < 0, x > N and x > y; y out of range; and parameters
    whose numerator exceeds 1, so the errors are compared as well as the values."""

    def test_krawtchouk(self):
        calls = [(y, x, p, N) for p in P_GRID + [0] for N in range(7) for y in range(-1, N + 2) for x in range(-3, N + 3)]
        assert _same_outcomes("krawtchouk", calls) > 0

    @pytest.mark.parametrize("q", Q_GRID, ids=str)
    def test_affine_q_krawtchouk(self, q):
        calls = [(y, x, a, N, q) for a in A_GRID for N in range(6) for y in range(-1, N + 2) for x in range(-3, N + 3)]
        calls += [(1, 1, F(1, 2), 2, 0), (3, 3, F(1, 9), 4, 3)]  # q = 0, and a pole at k = 2
        assert _same_outcomes("affine_q_krawtchouk", calls) > 0

    @pytest.mark.parametrize("t", Q_GRID, ids=str)
    def test_q_krawtchouk_column(self, t):
        A_vals = [25, 125, F(2, 3), F(9, 4), -3, t, F(t) ** 3, 0]
        calls = [(y, x, A, N, t) for A in A_vals for N in range(5) for y in range(-1, N + 2) for x in range(-2, N + 3)]
        calls += [(0, 1, 5, 2, 0), (1, 2, 5, 2, 0)]
        assert _same_outcomes("q_krawtchouk_column", calls) > 0

    @pytest.mark.parametrize("q", Q_GRID + [1, 0], ids=str)
    def test_q_pochhammer_and_gauss_binom(self, q):
        _same_outcomes("q_pochhammer", [(a, q, k) for a in A_GRID + [0, 1] for k in range(-1, 6)])
        _same_outcomes("gauss_binom", [(n, x, q) for n in range(7) for x in range(-1, n + 2)])

    def test_orthogonal_agrees_on_true_and_false_inputs(self):
        def pair(v):
            return v.numerator, v.denominator

        N, p = 4, F(2, 3)
        K = [[ref.krawtchouk(y, x, p, N) for x in range(N + 1)] for y in range(N + 1)]
        weight = [p**x * (1 - p) ** (N - x) * math.comb(N, x) for x in range(N + 1)]

        def norm(y):
            return (1 - p) ** y / (math.comb(N, y) * p**y)

        for at, d in ((None, 0), ((1, 1), F(1, 10**9)), ((0, 3), F(1, 10**9)), ((2, 4), F(-1, 7))):
            Ks = [[v + (d if (y, x) == at else 0) for x, v in enumerate(row)] for y, row in enumerate(K)]
            want = ref._orthogonal(Ks, weight, norm)
            assert want is (at is None)
            assert _orthogonal([[pair(v) for v in row] for row in Ks], [pair(w) for w in weight], lambda y: pair(norm(y))) is want
