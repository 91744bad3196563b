import random
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gftables import bulk, transform
from gftables.cyclotomic import CycInt, QuadInt
from gftables.gfq import CharSpec, default_char, field_for, make_field
from gftables.pascal import closed_form_table
from gftables.spaces import BudgetError, OrbitLabel, Space, make_space, matrix_rank, symmetric_sign
from gftables.symmetric import _aggregate, _by_rank, phi_from_psi, psi_brute, psi_closed, scaled_canonical_from_blocks
from gftables.transform import (
    Diagram,
    InvariantFunction,
    _counts_bulk,
    _counts_pure,
    _pair_coefvec,
    brute_force_phi,
    brute_phi_bar,
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
from gftables.verify import run_suite
from helpers import (
    class_counts,
    fold_reference,
    label_map_compatible_reference,
    pushforward_reference,
    scalar_classes_of,
    sym_fiber_sums_reference,
)

F3 = make_field(3)
F5 = make_field(5)


class TestGoldenTables:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
    def test_single_coordinate(self, q):
        phi = brute_force_phi(make_space("vec", field_for(q), 1))
        assert phi.integer_entries() == [[1, q - 1], [1, -1]]

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_single_row_matrices(self, q, m):
        phi = brute_force_phi(make_space("mat", field_for(q), 1, m))
        assert phi.integer_entries() == [[1, q**m - 1], [1, -1]]

    def test_trivial_row_and_zero_column(self):
        phi = brute_force_phi(make_space("alt", F3, 4))
        assert list(phi.entries[0]) == [QuadInt(3, s) for s in phi.orbit_sizes]
        assert all(row[0] == 1 for row in phi.entries)

    def test_zero_dimensional_spaces(self):
        for fam, m in [("vec", None), ("mat", 2), ("alt", None), ("sym", None), ("symscaled", None)]:
            phi = brute_force_phi(make_space(fam, F3, 0, m))
            assert phi.integer_entries() == [[1]]


class TestMatrixInvariants:
    @pytest.mark.parametrize(
        "fam,n,m,q",
        [
            ("vec", 2, None, 3),
            ("vec", 3, None, 4),
            ("mat", 2, 2, 3),
            ("alt", 4, None, 3),
            ("sym", 2, None, 3),
            ("sym", 2, None, 5),
            ("symscaled", 2, None, 3),
        ],
    )
    def test_symmetry_and_orthogonality(self, fam, n, m, q):
        phi = brute_force_phi(make_space(fam, field_for(q), n, m))
        assert phi.check_symmetry()
        assert phi.check_row_orthogonality()

    @pytest.mark.parametrize("fam,n,integral", [("vec", 2, True), ("sym", 1, False)])
    def test_orthogonality_fails_on_one_moved_entry(self, fam, n, integral):
        phi = brute_force_phi(make_space(fam, F3, n))
        if not integral:
            with pytest.raises(ValueError):
                phi.integer_entries()  # zeta-valued entries
        entries = [list(row) for row in phi.entries]
        entries[-1][-1] += 1  # outside row 0 and column 0, which CanonicalMatrix checks on its own
        assert phi.check_row_orthogonality()
        assert not replace(phi, entries=tuple(map(tuple, entries))).check_row_orthogonality()
        entries = [list(row) for row in phi.entries]
        entries[1][2] += 1
        assert phi.check_symmetry()
        assert not replace(phi, entries=tuple(map(tuple, entries))).check_symmetry()

    def test_inverse_matrix_is_conjugate(self):
        # with one shared label set the inverse-transform matrix is the
        # entry-wise conjugate
        for fam, n in [("vec", 2), ("sym", 2)]:
            sp = make_space(fam, F3, n)
            phi = brute_force_phi(sp)
            bar = brute_phi_bar(sp)
            for i in range(phi.nlabels):
                for j in range(phi.nlabels):
                    assert bar[i][j] == phi.entries[i][j].conjugate()


def _count_cycints(monkeypatch) -> list:
    """A list that grows by one for each CycInt built from now on (by __init__ or by _of, which every constructor calls)."""
    made, of, init = [], CycInt.__dict__["_of"].__func__, CycInt.__init__
    monkeypatch.setattr(CycInt, "_of", classmethod(lambda cls, *a: made.append(a[0]) or of(cls, *a)))
    monkeypatch.setattr(CycInt, "__init__", lambda self, *a: made.append(a[0]) or init(self, *a))
    return made


@pytest.mark.parametrize("fam,n,m,q", [("vec", 3, None, 5), ("vec", 1, None, 65537), ("mat", 2, 2, 7), ("mat", 2, 3, 4), ("alt", 4, None, 9), ("sym", 2, None, 5)])
def test_brute_force_phi_and_its_checks_build_no_cycint(monkeypatch, fam, n, m, q):
    """Entries come from the class counts as QuadInts, and the checks on them stay in Z[eta]."""
    sp = make_space(fam, field_for(q), n, m)
    transform._orbit_counts_cached.cache_clear()  # the pass over the space too
    made = _count_cycints(monkeypatch)
    phi = brute_force_phi(sp)
    assert phi.check_row_orthogonality() and phi.check_symmetry()
    assert zonal_table(phi) == zonal_table_direct(sp, phi.char)
    assert made == []
    assert QuadInt(5, 0, 1).to_cyc() and made == [5]  # the spy sees a CycInt when one is built


class TestMovedClassCount:
    """One element moved between the classes S and N of one histogram: the checks and the sign blocks notice."""

    @pytest.fixture
    def moved(self, monkeypatch):
        real = bulk.orbit_counts

        def moving(space, coefvecs):
            hists, sizes = real(space, coefvecs)
            hists[1][1, 1] -= 1  # row 1, orbit 1: outside row 0 and column 0, which CanonicalMatrix checks on its own
            hists[1][1, 2] += 1
            return hists, sizes

        transform._orbit_counts_cached.cache_clear()
        monkeypatch.setattr(bulk, "orbit_counts", moving)
        yield
        transform._orbit_counts_cached.cache_clear()

    @pytest.mark.parametrize("fam,n,q", [("vec", 2, 5), ("mat", 1, 7), ("sym", 1, 3), ("sym", 2, 27)])
    def test_orthogonality_fails(self, moved, fam, n, q):
        sp = make_space(fam, field_for(q), n, 2 if fam == "mat" else None)
        assert bulk.scalar_classes(sp.field)[1] > 0  # N is not empty
        assert not brute_force_phi(sp).check_row_orthogonality()

    @pytest.mark.parametrize("n,q", [(1, 3), (2, 5), (2, 27)])
    def test_sign_blocks_fail(self, moved, n, q):
        with pytest.raises(ValueError):
            psi_brute(n, default_char(field_for(q)))


class TestTransforms:
    def test_forward_on_indicators(self):
        sp = make_space("vec", F3, 2)
        phi = brute_force_phi(sp)
        ind = InvariantFunction.indicator(sp, OrbitLabel(0))
        out = forward_transform(phi, ind)
        assert all(v == 1 for v in out.values)
        ind1 = InvariantFunction.indicator(sp, OrbitLabel(1))
        out1 = forward_transform(phi, ind1)
        assert list(out1.values) == [row[1] for row in phi.entries]

    def test_forward_linearity(self):
        sp = make_space("mat", F3, 2, 2)
        phi = brute_force_phi(sp)
        rng = random.Random(8)
        for _ in range(10):
            f = InvariantFunction.from_ints(sp, [rng.randint(-5, 5) for _ in sp.labels()])
            g = InvariantFunction.from_ints(sp, [rng.randint(-5, 5) for _ in sp.labels()])
            both = InvariantFunction(sp, tuple(a + b for a, b in zip(f.values, g.values)))
            lhs = forward_transform(phi, both).values
            rhs = tuple(
                a + b
                for a, b in zip(forward_transform(phi, f).values, forward_transform(phi, g).values)
            )
            assert lhs == rhs

    def test_round_trip(self):
        rng = random.Random(23)
        for fam, n, m, q in [("vec", 2, None, 3), ("mat", 1, 2, 5), ("alt", 4, None, 3), ("sym", 2, None, 3)]:
            sp = make_space(fam, field_for(q), n, m)
            phi = brute_force_phi(sp)
            func = InvariantFunction.from_ints(sp, [rng.randint(-9, 9) for _ in sp.labels()])
            image = forward_transform(phi, func)
            assert inverse_transform(phi, image).values == func.values
            # and in the other order, on a function known to be a transform
            assert forward_transform(phi, inverse_transform(phi, image)).values == image.values

    def test_inverse_of_constant_is_zero_indicator(self):
        sp = make_space("vec", F3, 2)
        phi = brute_force_phi(sp)
        ones = InvariantFunction.from_ints(sp, [1] * len(sp.labels()))
        out = inverse_transform(phi, ones)
        assert out.values == InvariantFunction.indicator(sp, OrbitLabel(0)).values


class TestHatInvolution:
    @pytest.mark.parametrize("fam,n,q", [("vec", 2, 3), ("vec", 3, 3), ("mat", 2, 3), ("alt", 3, 3), ("alt", 4, 5)])
    def test_double_application_is_identity(self, fam, n, q):
        m = 3 if fam == "mat" else None
        sp = make_space(fam, field_for(q), n, m)
        phi = brute_force_phi(sp)
        rng = random.Random(n * q)
        vals = [rng.randint(-9, 9) for _ in sp.labels()]
        func = InvariantFunction.from_ints(sp, vals)
        twice = hat_involution(phi, hat_involution(phi, func))
        assert twice.normalized() == tuple(Fraction(v) for v in vals)

    def test_zero_maps_to_zero(self):
        sp = make_space("vec", F3, 2)
        phi = brute_force_phi(sp)
        func = InvariantFunction.from_ints(sp, [0, 0, 0])
        assert all(v == 0 for v in hat_involution(phi, func).values)

    def test_rejects_gauss_sum_entries(self):
        sp = make_space("sym", F3, 2)
        phi = brute_force_phi(sp)
        func = InvariantFunction.from_ints(sp, [1] * len(sp.labels()))
        with pytest.raises(ValueError, match="real canonical matrix"):
            hat_involution(phi, func)

    def test_odd_dimension_keeps_half_power(self):
        sp = make_space("alt", F3, 3)  # dimension 3
        phi = brute_force_phi(sp)
        func = InvariantFunction.from_ints(sp, [2, -1])
        once = hat_involution(phi, func)
        with pytest.raises(ValueError, match="odd half power"):
            once.normalized()


class TestZonal:
    @pytest.mark.parametrize("fam,n,m,q", [("vec", 1, None, 3), ("vec", 2, None, 3), ("mat", 2, 2, 3), ("alt", 4, None, 3), ("sym", 2, None, 3)])
    def test_table_matches_direct_evaluation(self, fam, n, m, q):
        sp = make_space(fam, field_for(q), n, m)
        phi = brute_force_phi(sp)
        assert zonal_table(phi) == zonal_table_direct(sp)

    def test_normalizations(self):
        phi = brute_force_phi(make_space("vec", F3, 2))
        zt = zonal_table(phi)
        assert all(cell.num == 1 and cell.den == 1 for cell in [row[0] for row in zt])
        assert all(cell.num == 1 and cell.den == 1 for cell in zt[0])

    def test_example_value(self):
        phi = brute_force_phi(make_space("vec", F3, 1))
        cell = zonal_table(phi)[1][1]
        assert (cell.num.as_int(), cell.den) == (-1, 2)


class TestMultiOrthogonality:
    def test_single_factor_reduces_to_row_orthogonality(self):
        sp = make_space("vec", F3, 2)
        phi = brute_force_phi(sp)
        lhs, count = multi_orthogonality_check(phi, (OrbitLabel(1),), OrbitLabel(1))
        assert lhs == phi.size_of(OrbitLabel(1)) * sp.size
        assert count == phi.size_of(OrbitLabel(1))
        lhs, count = multi_orthogonality_check(phi, (OrbitLabel(1),), OrbitLabel(2))
        assert lhs == 0 and count == 0

    def test_two_factor_count(self):
        sp = make_space("vec", F3, 2)
        phi = brute_force_phi(sp)
        lhs, count = multi_orthogonality_check(phi, (OrbitLabel(1), OrbitLabel(1)), OrbitLabel(2))
        assert count == 8
        assert lhs == count * sp.size

    @pytest.mark.parametrize("parts,target", [((1,), 1), ((1, 1), 2), ((1, 1), 1), ((1, 2), 2)])
    def test_matches_identity_on_rectangles(self, parts, target):
        sp = make_space("mat", F3, 2, 2)
        phi = brute_force_phi(sp)
        lhs, count = multi_orthogonality_check(
            phi, tuple(OrbitLabel(r) for r in parts), OrbitLabel(target)
        )
        assert lhs == count * sp.size


class TestDiagrams:
    def test_vec_chain(self):
        spaces = [make_space("vec", F3, n) for n in (3, 2, 1)]
        mats = [brute_force_phi(sp) for sp in spaces]
        for up, low, pu, pl in zip(spaces, spaces[1:], mats, mats[1:]):
            d = standard_diagram(up, low)
            rep = diagram_check(d, pu, pl)
            assert rep.ok, "\n".join(rep.lines())
            lm = d.label_map()
            assert all(lm[l].r == l.r + 1 for l in low.labels())

    def test_push_matrix_patterns(self):
        cases = [
            ("vec", 2, None, 1, None, lambda q, u, r: {u: 1, u + 1: -1}.get(r, 0)),
            ("mat", 2, 3, 1, 2, lambda q, u, r: {u: q**u, u + 1: -(q**u)}.get(r, 0)),
            ("alt", 4, None, 2, None, lambda q, u, r: {u: q**u, u + 2: -(q**u)}.get(r, 0)),
        ]
        for fam, nu, mu, nl, ml, pat in cases:
            up, low = make_space(fam, F3, nu, mu), make_space(fam, F3, nl, ml)
            E = pushforward_matrix(standard_diagram(up, low))
            for i, w in enumerate(low.labels()):
                for j, lam in enumerate(up.labels()):
                    assert E[i][j] == pat(3, w.r, lam.r), (fam, w, lam)

    def test_kernel_row_sums_vanish(self):
        up, low = make_space("mat", F3, 2, 3), make_space("mat", F3, 1, 2)
        d = standard_diagram(up, low)
        ch = default_char(F3)
        assert d.zeta_nontrivial_on_kernel(ch)
        E = pushforward_matrix(d, ch)
        for row in E:
            total = CycInt.zero(3)
            for e in row:
                total = total + e
            assert total == 0

    def test_alt_and_sym_chains(self):
        for fam, nu, nl in [("alt", 4, 2), ("sym", 3, 2), ("symscaled", 3, 1)]:
            up, low = make_space(fam, F3, nu), make_space(fam, F3, nl)
            d = standard_diagram(up, low)
            rep = diagram_check(d, brute_force_phi(up), brute_force_phi(low))
            assert rep.ok, (fam, "\n".join(rep.lines()))

    @pytest.mark.parametrize(
        "fam,nu,mu,nl,ml",
        [("vec", 3, None, 2, None), ("mat", 2, 3, 1, 2), ("alt", 4, None, 2, None), ("sym", 3, None, 2, None), ("symscaled", 3, None, 1, None)],
    )
    def test_all_chains_at_q5(self, fam, nu, mu, nl, ml):
        up, low = make_space(fam, F5, nu, mu), make_space(fam, F5, nl, ml)
        rep = diagram_check(standard_diagram(up, low), brute_force_phi(up), brute_force_phi(low))
        assert rep.ok, (fam, "\n".join(rep.lines()))

    def test_scaled_label_map_uses_eps(self):
        d = standard_diagram(make_space("symscaled", F3, 3), make_space("symscaled", F3, 1))
        lm = d.label_map()
        assert lm[OrbitLabel(0)] == OrbitLabel(2, -1)  # eps = -1 at q = 3
        assert lm[OrbitLabel(1)] == OrbitLabel(3)
        d5 = standard_diagram(make_space("symscaled", F5, 3), make_space("symscaled", F5, 1))
        assert d5.label_map()[OrbitLabel(0)] == OrbitLabel(2, 1)  # eps = +1 at q = 5

    def test_orbit_compatibility_validation(self):
        d = standard_diagram(make_space("alt", F3, 4), make_space("alt", F3, 2))
        assert d.validate_label_map()

    def test_incompatible_intersection_element_caught(self):
        from gftables.transform import Diagram

        up, low = make_space("vec", F3, 2), make_space("vec", F3, 1)
        # unit in an embedded coordinate: lift(b) + e is not constant on orbits
        bad = Diagram(up, low, embed=(0,), e=(1, 0))
        assert not bad.validate_label_map()


DIAGRAM_CHAINS = [
    ("vec", 3, None, 2, None),
    ("vec", 2, None, 1, None),
    ("mat", 2, 3, 1, 2),
    ("alt", 4, None, 2, None),
    ("sym", 3, None, 2, None),
    ("symscaled", 3, None, 1, None),
]


class TestFiberHistograms:
    """The coset histograms of the diagrams against the element-by-element fiber walk."""

    @pytest.mark.parametrize(
        "fam,nu,mu,nl,ml,q,twist",
        [(*chain, q, twist) for chain in DIAGRAM_CHAINS for q, twist in [(3, 1), (3, 2), (5, 1)]] + [("sym", 3, None, 2, None, 9, 1)],
    )
    def test_pushforward_matrix(self, fam, nu, mu, nl, ml, q, twist):
        up, low = make_space(fam, field_for(q), nu, mu), make_space(fam, field_for(q), nl, ml)
        d = standard_diagram(up, low)
        ch = CharSpec(up.field, up.field.element_at(twist))
        assert pushforward_matrix(d, ch) == pushforward_reference(d, ch)

    @pytest.mark.parametrize("q,twist", [(3, 1), (3, 2), (5, 1), (9, 1)])
    def test_pushforward_matrix_at_sym_sign_points(self, q, twist):
        """The two-step push at both sign points of each lower rank, where sym_diagram_matrices reads it.

        The one-step leg's lower space is sym already, so test_pushforward_matrix covers that leg.
        """
        F = field_for(q)
        d = replace(standard_diagram(make_space("symscaled", F, 3), make_space("symscaled", F, 1)), lower=make_space("sym", F, 1))
        ch = CharSpec(F, F.element_at(twist))
        assert pushforward_matrix(d, ch) == pushforward_reference(d, ch)

    @pytest.mark.parametrize(
        "fam,nu,nl,corner,q,twist",
        [(fam, nu, nl, corner, q, twist) for fam, nu, nl, corner in [("sym", 3, 2, 1), ("symscaled", 3, 1, 2)] for q, twist in [(3, 1), (3, 2), (5, 1)]]
        + [("sym", 3, 2, 1, 9, 1)],
    )
    def test_sym_rank_sign_values(self, fam, nu, nl, corner, q, twist):
        """The rank-and-sign sums of the push at each sym sign point, as sym_diagram_matrices aggregates them.

        corner is the rank step of the leg. The sgn sums are read at the upper
        ranks whose labels carry a sign, where the diagram check reads them.
        """
        F = field_for(q)
        ch = CharSpec(F, F.element_at(twist))
        sym_lower = make_space("sym", F, nl)
        d = replace(standard_diagram(make_space(fam, F, nu), make_space(fam, F, nl)), lower=sym_lower)
        assert nu - nl == corner
        E = pushforward_matrix(d, ch)
        zero = CycInt.zero(F.p)
        ups = _by_rank(d.upper.labels())
        signed = {r for r, pairs in ups.items() if r and all(d.upper.labels()[i].sign is not None for i, _ in pairs)}
        vals = {}
        for w, lbl in enumerate(sym_lower.labels()):
            for r, pairs in ups.items():
                vals.setdefault(("chi", r), {})[lbl] = _aggregate(E, [(w, 1)], [(j, 1) for j, _ in pairs], zero)
                if r in signed:
                    vals.setdefault(("sgn", r), {})[lbl] = _aggregate(E, [(w, 1)], pairs, zero)
        want = sym_fiber_sums_reference(d, ch, {lbl: sym_lower.representative(lbl) for lbl in sym_lower.labels()})
        assert vals == {key: sums for key, sums in want.items() if key[0] == "chi" or key[1] in signed}

    @pytest.mark.parametrize("fam,nu,mu,nl,ml,q", [("mat", 3, 3, 2, 2, 13), ("vec", 8, None, 7, None, 7)])
    def test_label_map_checked_on_every_lower_element_in_blocks(self, monkeypatch, fam, nu, mu, nl, ml, q):
        """Lower spaces of 13^4 = 28,561 and 7^7 = 823,543 (two CHUNK blocks) elements, labelled in bulk alone."""

        def refuse(*args):
            raise AssertionError("element-by-element rank in the orbit-compatibility check")

        monkeypatch.setattr("gftables.spaces.matrix_rank", refuse)
        d = standard_diagram(make_space(fam, field_for(q), nu, mu), make_space(fam, field_for(q), nl, ml))
        assert fam == "mat" or bulk.CHUNK < d.lower.size <= 2 * bulk.CHUNK
        assert d.validate_label_map()
        e = tuple(1 if k == d.embed[0] else 0 for k in range(d.upper.dim))  # in an embedded coordinate
        assert not replace(d, e=e).validate_label_map()

    @pytest.mark.parametrize("fam,nu,mu,nl,ml", DIAGRAM_CHAINS)
    def test_label_map_check_against_element_by_element_reference(self, fam, nu, mu, nl, ml):
        """The standard e and a unit at each upper coordinate, over F_3: the bulk pass agrees with scalar classify."""
        d = standard_diagram(make_space(fam, F3, nu, mu), make_space(fam, F3, nl, ml))
        units = [tuple(int(j == k) for j in range(d.upper.dim)) for k in range(d.upper.dim)]
        verdicts = [replace(d, e=e).validate_label_map() for e in [d.e, *units]]
        assert verdicts == [label_map_compatible_reference(replace(d, e=e)) for e in [d.e, *units]]
        assert verdicts[0] and not all(verdicts)

    def test_suites_never_classify_element_by_element(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("element-by-element classification on a verify path")

        classes = [Space]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for cls in classes:
            monkeypatch.setattr(cls, "classify", refuse)
            monkeypatch.setattr(cls, "rank_and_sign", refuse, raising=False)
        with pytest.raises(AssertionError):
            make_space("sym", F3, 2).classify(make_space("sym", F3, 2).zero())
        for name, checks in (("diagrams", 36), ("multi", 26)):
            rep = run_suite(name)
            assert rep.ok and len(rep.checks) == checks, "\n".join(rep.lines())


class TestBulkAgainstPure:
    @pytest.mark.parametrize(
        "fam,n,m,q",
        [
            ("vec", 3, None, 5),
            ("mat", 2, 3, 3),
            ("mat", 1, 2, 131),  # p > 127: int8 labels are widened before lab * p
            ("alt", 5, None, 3),
            ("alt", 4, None, 5),
            ("sym", 3, None, 3),
            ("symscaled", 3, None, 5),
        ],
    )
    def test_identical_histograms(self, fam, n, m, q):
        sp = make_space(fam, field_for(q), n, m)
        ch = default_char(sp.field)
        reps = [sp.representative(l) for l in sp.labels()]
        pure = _counts_pure(sp, ch, reps, 10**7)
        bulk = _counts_bulk(sp, ch, reps, 10**7)
        assert class_counts(sp.field, pure[0]) == bulk[0]
        assert list(pure[1]) == list(bulk[1])

    def test_twisted_character(self):
        sp = make_space("sym", F5, 2)
        ch = CharSpec(F5, 2)
        reps = [sp.representative(l) for l in sp.labels()]
        pure = _counts_pure(sp, ch, reps, 10**7)
        bulk = _counts_bulk(sp, ch, reps, 10**7)
        assert class_counts(sp.field, pure[0]) == bulk[0]

    def test_twisted_character_large_prime(self):
        # (p-1)^2 >= 2^31: the fold needs int64
        fld = make_field(46349)
        sp = make_space("vec", fld, 1)
        ch = CharSpec(fld, 46348)
        reps = [sp.representative(l) for l in sp.labels()]
        pure = _counts_pure(sp, ch, reps, 10**7)
        bulk = _counts_bulk(sp, ch, reps, 10**7)
        assert class_counts(sp.field, pure[0]) == bulk[0]

    @pytest.mark.parametrize("twist", ["1", "p"])  # twist index p is the class of x, outside F_p
    @pytest.mark.parametrize(
        "fam,n,m,q",
        [
            ("vec", 3, None, 9),
            ("vec", 2, None, 8),
            ("mat", 2, 2, 4),
            ("mat", 1, 3, 9),
            ("mat", 2, 2, 8),
            ("alt", 3, None, 9),
            ("sym", 2, None, 9),
            ("symscaled", 2, None, 9),
            ("sym", 1, None, 25),
            ("sym", 1, None, 27),
        ],
    )
    def test_extension_fields(self, fam, n, m, q, twist):
        sp = make_space(fam, field_for(q), n, m)
        ch = CharSpec(sp.field, sp.field.element_at(sp.field.p if twist == "p" else 1))
        reps = [sp.representative(l) for l in sp.labels()]
        pure = _counts_pure(sp, ch, reps, 10**7)
        bulk = _counts_bulk(sp, ch, reps, 10**7)
        assert class_counts(sp.field, pure[0]) == bulk[0]
        assert list(pure[1]) == list(bulk[1])

    @pytest.mark.parametrize("twist", ["1", "p"])
    @pytest.mark.parametrize("fam,n,q", [("alt", 4, 9), ("sym", 2, 25), ("symscaled", 3, 9)])
    def test_extension_fields_against_closed_forms(self, fam, n, q, twist):
        # too large for the element-by-element reference; the closed forms are independent of enumeration
        fld = field_for(q)
        ch = CharSpec(fld, fld.element_at(fld.p if twist == "p" else 1))
        phi = brute_force_phi(make_space(fam, fld, n), ch)
        if fam == "alt":
            assert [[Fraction(v) for v in row] for row in phi.integer_entries()] == closed_form_table(fam, n, None, q)
        else:
            blocks = psi_closed(n, ch)
            want = phi_from_psi(blocks) if fam == "sym" else scaled_canonical_from_blocks(blocks)
            assert phi.entries == want.entries

    def test_extension_space_over_budget(self):
        sp = make_space("mat", field_for(9), 2, 2)
        ch = default_char(sp.field)
        with pytest.raises(BudgetError) as pure:
            _counts_pure(sp, ch, [], 1000)
        with pytest.raises(BudgetError, match=re.escape(str(pure.value))):
            brute_force_phi(sp, ch, 1000)
        assert str(pure.value) == "|A| = 6561 exceeds the budget 1000"

    def test_prime_above_chunk(self, monkeypatch):
        # p > CHUNK: the space is one chunk of p elements, not p chunks of one
        label_indices, chunks = bulk._label_indices, []
        monkeypatch.setattr(bulk, "_label_indices", lambda tail, digits: chunks.append(len(digits)) or label_indices(tail, digits))
        sp = make_space("vec", make_field(524309), 1)
        phi = brute_force_phi(sp)
        assert chunks == [524309] and 524309 > bulk.CHUNK
        assert [[Fraction(v) for v in row] for row in phi.integer_entries()] == closed_form_table("vec", 1, None, 524309)


def _row0_repair(m, F):
    """c of the a = 0, b != 0 congruence step on row 0 of m, or None if it has no such step."""
    if m[0][0] != 0:
        return None
    j = next((j for j in range(1, len(m)) if m[0][j] != 0), None)
    if j is None:
        return None
    return -1 if F.add(F.add(m[0][j], m[0][j]), m[j][j]) == 0 else 1


class TestSymKernelAgainstReference:
    @pytest.mark.parametrize(
        "fam,n,q",
        [("sym", 1, 3), ("sym", 2, 3), ("sym", 3, 3), ("sym", 1, 5), ("sym", 2, 5), ("sym", 3, 5), ("sym", 4, 3), ("symscaled", 3, 5)],
    )
    def test_every_element(self, fam, n, q):
        sp = make_space(fam, field_for(q), n)
        codes = bulk.batch_sym_rank_sign(bulk._digits(0, sp.size, sp.dim, q), n, bulk.arith(sp.field)).tolist()
        repairs = set()
        for code, elem in zip(codes, sp.elements()):
            m = sp.as_matrix(elem)
            assert (code // 2, -1 if code % 2 else 1) == symmetric_sign(m, sp.field), m
            repairs.add(_row0_repair(m, sp.arith))
        # the a = 0, b != 0 step ran with both c = 1 and c = -1 (a_jj = -2 b_j)
        assert repairs == ({None} if n == 1 else {None, 1, -1})


def _label_codes(space, digits):
    """The label code of each row of digits (2 rank + (sign < 0) for sym, else the label index), by bulk._labels as batch_rank reads it."""
    split, args, *_ = bulk._labeller(space)
    return bulk._labels(split, digits, *args)


@pytest.mark.parametrize("n,m,q", [(1, 4, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3), (2, 3, 5), (1, 3, 4), (2, 2, 4), (2, 2, 8), (2, 2, 9)])
def test_mat_kernel_against_reference(n, m, q):
    sp = make_space("mat", field_for(q), n, m)
    ranks = bulk.batch_rank(bulk._digits(0, sp.size, sp.dim, q), n, m, bulk.arith(sp.field)).tolist()
    assert ranks == [matrix_rank(sp.as_matrix(elem), sp.field) for elem in sp.elements()]


@pytest.mark.parametrize("n,m,q", [(3, 3, 5), (2, 3, 4), (2, 5, 5)])
def test_mat_row_labels_of_random_rows(n, m, q):
    sp = make_space("mat", field_for(q), n, m)
    rng = np.random.default_rng(17)
    digits = rng.integers(0, q, size=(2000, sp.dim), dtype=np.int32)
    digits[:200, :m] = 0  # row 0 zero: no step
    digits[:20] = 0  # the zero matrix
    digits[200:400, : rng.integers(1, m)] = 0  # a later pivot column
    ranks = _label_codes(sp, digits).tolist()
    assert bulk.row_labels(sp, digits).tolist() == ranks  # a mat label index is its rank
    assert digits.flags.writeable  # row_labels freezes a view, not the caller's array
    assert ranks == [matrix_rank(sp.as_matrix(tuple(row)), sp.field) for row in digits.tolist()]
    assert set(ranks) == set(range(n + 1))


def test_alt_row_labels_of_random_rows():
    sp = make_space("alt", F3, 6)
    rng = np.random.default_rng(23)
    digits = rng.integers(0, 3, size=(2000, sp.dim), dtype=np.int32)
    digits[:200, :5] = 0  # row 0 zero: no step
    digits[200:400, : rng.integers(1, 5)] = 0  # a later pivot j
    digits[400:600, 5:] = 0  # T = 0: half-rank 1
    digits[:20] = 0  # the zero matrix
    half = _label_codes(sp, digits).tolist()
    assert half == [matrix_rank(sp.as_matrix(tuple(row)), sp.field) // 2 for row in digits.tolist()]
    assert set(half) == {0, 1, 2, 3}


@pytest.mark.parametrize("fam,n,q", [("sym", 4, 5), ("symscaled", 4, 7), ("sym", 4, 9), ("sym", 5, 3)])
def test_sym_row_labels_of_random_rows(fam, n, q):
    sp = make_space(fam, field_for(q), n)
    F = bulk.arith(sp.field)
    rng = np.random.default_rng(19)
    digits = rng.integers(0, q, size=(2000, sp.dim), dtype=np.int32)
    digits[:400, 0] = 0  # a = 0, b != 0: the pivot from row and column 1 ...
    digits[200:400, n] = F.vreduce(F.vneg(F.vadd(digits[200:400, 1], digits[200:400, 1])))  # ... with c = -1, T_00 = -2 b_0
    digits[400:800, [0, 1, n]] = 0  # a = b_0 = T_00 = 0: the hyperbolic plane on {0, j + 1}, j >= 1 ...
    digits[600:800, 2] = 0  # ... and j >= 2
    digits[800:900, 3:] = 0  # rank at most 2
    digits[900:1000, 1:] = 0  # rank at most 1
    digits[:20] = 0  # the zero matrix
    codes = _label_codes(sp, digits).tolist()
    want = [symmetric_sign(sp.as_matrix(tuple(row)), sp.field) for row in digits.tolist()]
    assert codes == [2 * r + (s < 0) for r, s in want]
    assert set(codes) == set(range(2 * n + 2)) - {1}  # every rank with both signs
    assert bulk.batch_sym_rank_sign(digits[:0], n, F).shape == (0,)  # no rows


@pytest.mark.parametrize(
    "n,q", [(n, q) for q in (3, 5, 7, 9, 11, 13, 25, 27) for n in range(1, 6) if q ** (2 * n - 1) <= bulk.CHUNK]
)
def test_sym_reduction_is_the_row0_step_at_every_code(n, q):
    """The broadcast memo equals the row-0 step run on every row-0 code, values and dtypes: the a != 0 codes, and the
    add, hyp and zero rows at a = 0."""
    F, X = bulk.arith(field_for(q)), q ** (2 * n - 1)
    got = bulk._sym_reduction(n, F)
    want = bulk._sym_row0(bulk._digits(0, X, 2 * n - 1, q), n, F)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
    assert not any(g.flags.writeable for g in got)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 11])
def test_digits_of_a_full_range(q):
    def reference(start, stop, d):  # digit i of x is x // q^i mod q
        return np.arange(start, stop, dtype=np.int64)[:, None] // q ** np.arange(d, dtype=np.int64) % q

    for d in range(7):
        got = bulk._digits(0, q**d, d, q)
        assert got.dtype == np.int32 and np.array_equal(got, reference(0, q**d, d))
    start, stop = q + 1, q**3 - 1  # not a full range: the division path
    assert np.array_equal(bulk._digits(start, stop, 3, q), reference(start, stop, 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("q", [3, 5])
def test_alt_step_against_reference(n, q):
    sp = make_space("alt", field_for(q), n)
    F = bulk.arith(sp.field)
    pivots = set()
    for start in range(0, sp.size, bulk.CHUNK):
        digits = bulk._digits(start, min(start + bulk.CHUNK, sp.size), sp.dim, q)
        half = bulk._labels(bulk._step_split, digits, n, F)  # the step itself, below its n >= 6 dispatch
        assert np.array_equal(half, bulk._alt_labels_pfaffian(digits, n, F))
        row0 = digits[:, : n - 1]
        pivots.update(np.unique((row0 != 0).argmax(axis=1)[row0.any(axis=1)] + 1).tolist())
    assert pivots == set(range(1, n))  # every pivot position j occurs
    if q == 3 and n <= 4:  # small enough for the pure reference too
        digits = bulk._digits(0, sp.size, sp.dim, q)
        assert bulk._labels(bulk._step_split, digits, n, F).tolist() == [matrix_rank(sp.as_matrix(e), sp.field) // 2 for e in sp.elements()]


# the hyperbolic step (alt n >= 6) below its dispatch, against the Pfaffians, at k low digits: inside row 0 (k < n - 1), with
# row j of T high for the later pivots j, and with only the last entries high
@pytest.mark.parametrize("n,q,ks", [(4, 3, (1, 2, 3, 4, 5)), (4, 5, (2, 3, 5)), (4, 9, (2, 4, 5)), (5, 3, (3, 5, 7, 9)), (5, 5, (7, 9))])
def test_hyperbolic_step_in_chunks(monkeypatch, n, q, ks):
    F, dim = bulk.arith(field_for(q)), n * (n - 1) // 2
    want = bulk._codes(bulk._alt_split, dim, n, F).tolist()  # the Pfaffian split, at the default CHUNK
    for k in ks:
        monkeypatch.setattr(bulk, "CHUNK", q**k)
        bulk._codes.cache_clear()  # the (n-1) tables in chunks too
        assert np.concatenate(list(bulk._walk(bulk._step_split, dim, n, F))).tolist() == want, k


def _chunk_params():
    cases = [(fam, n, m, 5, f"{fam}-{n}-{m}") for fam, n, m in [("vec", 6, None), ("mat", 2, 3), ("alt", 4, None), ("sym", 3, None), ("symscaled", 3, None)]]
    cases += [(fam, n, m, 9, f"{fam}-{n}-{m}-q9") for fam, n, m in [("vec", 3, None), ("mat", 2, 2), ("alt", 3, None), ("sym", 2, None), ("symscaled", 2, None)]]
    for fam, n, m, q, case in cases:
        for chunk in (3, 7, 1000, bulk.CHUNK):
            yield pytest.param(fam, n, m, q, chunk, id=f"{case}-{chunk}")
    # the low/high boundary inside row 0, inside T, past dim (one chunk)
    for fam, n, m, q, dim in [("sym", 4, None, 3, 10), ("mat", 3, 3, 3, 9), ("alt", 5, None, 3, 10), ("sym", 3, None, 9, 6)]:
        for chunk in (q * q, 729, q**dim):
            yield pytest.param(fam, n, m, q, chunk, id=f"{fam}-{n}-{m}-q{q}-{chunk}")
    # the sym step with k low digits: inside T's row 0 (k < 2n - 1), and inside or at the start of a row j >= 1 of T;
    # q = 1 and 3 mod 4 (the sign of -1 differs), and an extension field
    for fam, n, q, ks in [("sym", 3, 5, (4, 5)), ("sym", 4, 3, (5, 7, 8, 9)), ("symscaled", 3, 7, (4, 5)), ("sym", 3, 9, (4, 5))]:
        for k in ks:
            yield pytest.param(fam, n, None, q, q**k, id=f"{fam}-{n}-None-q{q}-{q**k}")
    # the mat table G over several chunks: row 2 all high, then partly low; and the pivot step where q^(2m) > CHUNK, with
    # the pivot column or row 1 high (2x3 q=5, 2x4 q=3) or row 0 high (1x3 q=5)
    for n, m, q, chunk in [
        (3, 3, 3, 2187), (3, 3, 4, 4**6), (3, 3, 4, 4**7), (3, 4, 3, 3**8), (3, 4, 3, 3**10),
        (2, 3, 5, 5**5), (2, 4, 3, 3**5), (2, 4, 3, 3**6), (1, 3, 5, 5**2),
    ]:
        yield pytest.param("mat", n, m, q, chunk, id=f"mat-{n}-{m}-q{q}-{chunk}")
    # alt n=5 q=5 in one chunk against the default CHUNK, where its rows that do not vary are folded once per call
    yield pytest.param("alt", 5, None, 5, 5**10, id="alt-5-None-q5-one-chunk")


def _tail_state(tail):
    """The per-call state a split handed to its per-chunk tail, by name."""
    return dict(zip(tail.__code__.co_freevars, (cell.cell_contents for cell in tail.__closure__)))


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


@pytest.mark.parametrize("fam,n,m,q,chunk", _chunk_params())
def test_chunk_size_does_not_change_orbit_counts(monkeypatch, fam, n, m, q, chunk):
    sp = make_space(fam, field_for(q), n, m)
    coefvecs = [[(r * k + 1) % q for k in range(sp.dim)] for r in range(3)]
    hists, sizes = bulk.orbit_counts(sp, coefvecs)
    split, args, *_ = bulk._labeller(sp)
    labels = np.concatenate(list(bulk._walk(split, sp.dim, *args)))
    monkeypatch.setattr(bulk, "CHUNK", chunk)
    bulk._codes.cache_clear()  # rebuild the (n-1) tables in chunks too
    full_kernel, full = bulk._labels, []
    monkeypatch.setattr(bulk, "_labels", lambda step, *rest: full.append(step) or full_kernel(step, *rest))
    hists2, sizes2 = bulk.orbit_counts(sp, coefvecs)
    assert sizes2.tolist() == sizes.tolist()
    assert [h.tolist() for h in hists2] == [h.tolist() for h in hists]
    assert np.array_equal(np.concatenate(list(bulk._walk(split, sp.dim, *args))), labels)  # a histogram can hide swapped labels
    assert not full  # no chunk runs the full kernel


def test_kernels_get_read_only_digits(monkeypatch):
    label_indices, writeable, state = bulk._label_indices, [], []

    def recording(tail, digits):
        writeable.append(digits.flags.writeable)
        state.extend(a.flags.writeable for a in _arrays(list(_tail_state(tail).values())))
        return label_indices(tail, digits)

    monkeypatch.setattr(bulk, "_label_indices", recording)
    for fam, n, m in [("vec", 4, None), ("mat", 2, 2), ("alt", 4, None), ("sym", 3, None)]:
        sp = make_space(fam, F5, n, m)
        bulk.orbit_counts(sp, [[1] * sp.dim])
        split, args, *_ = bulk._labeller(sp)
        state.extend(a.flags.writeable for a in bulk._chunks(split, sp.dim, *args)[:2])  # per-call labels, varying rows
    monkeypatch.setattr(bulk, "CHUNK", 125)  # the hyperbolic step (alt n >= 6) on alt n = 4, in chunks
    assert np.concatenate(list(bulk._walk(bulk._step_split, 6, 4, bulk.arith(F5)))).tolist() == bulk._codes(bulk._alt_split, 6, 4, bulk.arith(F5)).tolist()
    assert writeable and not any(writeable)
    assert state and not any(state)  # the per-call state the tails read is read-only too


# the low/high boundary at k digits; alt n=4 has the terms (0, 5), (1, 4), (2, 3) and alt n=5 the term (6, 7) of
# the Pfaffian on {1, 2, 3, 4} by digit position: k = 2 (n=4) and k = 6 (n=5) put both factors of a term high
@pytest.mark.parametrize(
    "fam,n,q,chunk",
    [("alt", 4, 3, 9), ("alt", 4, 3, 27), ("alt", 4, 3, 81), ("alt", 4, 5, 25), ("alt", 4, 5, 125), ("alt", 4, 9, 729), ("alt", 4, 9, 6561)]
    + [("alt", 5, 3, 729), ("alt", 5, 3, 2187), ("alt", 5, 3, 6561), ("alt", 5, 5, 5**6), ("alt", 5, 5, None)]
    + [("vec", 4, 5, 25), ("vec", 3, 9, 81), ("vec", 9, 5, None)],
)
def test_rows_that_do_not_vary(monkeypatch, fam, n, q, chunk):
    """Each chunk's labels against the whole kernel on its digits. A chunk lists some varying rows with their labels,
    every other varying row has label cap + 1, and a row that does not vary keeps its per-call label plus the shift."""
    if chunk is not None:
        monkeypatch.setattr(bulk, "CHUNK", chunk)
    sp = make_space(fam, field_for(q), n)
    split, args, *_ = bulk._labeller(sp)
    F, k, cap = bulk.arith(sp.field), bulk._low_width(sp.dim, q), 1 if fam == "alt" else sp.dim
    labels, varies, chunks = bulk._chunks(split, sp.dim, *args)
    for c, ((rows, lab, shift), got) in enumerate(zip(chunks, bulk._walk(split, sp.dim, *args), strict=True)):
        digits = bulk._digits(c * q**k, (c + 1) * q**k, sp.dim, q)
        want = bulk._alt_labels_pfaffian(digits, n, F) if fam == "alt" else np.count_nonzero(digits, axis=1)
        assert np.array_equal(got, want)
        assert shift == (np.count_nonzero(digits[0, k:]) if fam == "vec" else 0)  # vec: the chunk's nonzero high digits
        assert varies[rows].all() and np.array_equal(want[rows], lab)  # the listed rows are varying rows
        left = varies.copy()
        left[rows] = False
        assert (want[left] == cap + 1).all()  # a varying row the chunk leaves out has a nonzero Pfaffian
        assert np.array_equal(want[~varies], labels[~varies] + shift)
    assert c == q ** (sp.dim - k) - 1
    if fam == "vec":
        assert not varies.any()
    if (fam, n, q, chunk) == ("alt", 5, 5, None):  # the default CHUNK leaves most rows of alt n=5 q=5 to the per-call fold
        assert 0 < varies.sum() < len(varies) / 4


def test_few_rows_listed_per_chunk(monkeypatch):
    """alt n=5 q=5 at the default CHUNK: orbit_counts' 32 labelled chunks list on average at most 1/16 of the varying
    rows (about 1,300 of 63,245); the others have a nonzero leading Pfaffian."""
    sp = make_space("alt", F5, 5)
    label_indices, listed = bulk._label_indices, []

    def counting(tail, digits):
        out = label_indices(tail, digits)
        listed.append(len(out[-2]))  # the labels the chunk lists
        return out

    monkeypatch.setattr(bulk, "_label_indices", counting)
    bulk.orbit_counts(sp, _pair_coefvecs(sp))
    split, args, *_ = bulk._labeller(sp)
    nvar = np.count_nonzero(bulk._chunks(split, sp.dim, *args, k=_plan(sp))[1])
    assert len(listed) == 32 and 0 < sum(listed) <= len(listed) * nvar / 16


@pytest.mark.parametrize("fam,n,m,q", [("vec", 4, None, 5), ("mat", 2, 3, 5), ("alt", 5, None, 3), ("alt", 6, None, 3), ("sym", 3, None, 5), ("symscaled", 3, None, 5), ("vec", 0, None, 5)])
def test_walk_yields_int8_labels(fam, n, m, q):
    sp = make_space(fam, field_for(q), n, m)
    split, args, *_ = bulk._labeller(sp)
    assert next(bulk._walk(split, sp.dim, *args)).dtype == np.int8


def _pair_coefvecs(sp, twist=1):
    ch = CharSpec(sp.field, sp.field.element_at(twist))
    return [_pair_coefvec(sp, ch, sp.representative(l)) for l in sp.labels()]


def _assert_fold(monkeypatch, sp, coefvecs, chunk):
    if chunk is not None:
        monkeypatch.setattr(bulk, "CHUNK", chunk)
    hists, sizes = bulk.orbit_counts(sp, coefvecs)
    want, want_sizes = fold_reference(sp, coefvecs)
    assert sizes.tolist() == want_sizes.tolist()
    assert [h.tolist() for h in hists] == class_counts(sp.field, want)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
@pytest.mark.parametrize("fam,n,m", [("vec", 3, None), ("mat", 2, 2), ("alt", 4, None), ("sym", 3, None), ("symscaled", 3, None)])
def test_labels_under_scalars(fam, n, m, q):
    """lambda a, lambda in F_p^*, has the label code of a, but a nonsquare lambda of GF(q) flips the sign of an odd sym rank."""
    sp = make_space(fam, field_for(q), n, m)
    F = bulk.arith(sp.field)
    digits = bulk._digits(0, sp.size, sp.dim, q)
    codes = _label_codes(sp, digits)
    moved = 0
    for lam in range(1, sp.field.p):
        want = codes ^ (codes >> 1 & 1) if fam.startswith("sym") and F.sgn(lam) < 0 else codes
        assert np.array_equal(_label_codes(sp, F.vreduce(F.vmul(lam, digits))), want)
        moved += not np.array_equal(want, codes)
    assert bool(moved) == (fam.startswith("sym") and q != 9)  # every lambda of F_3 is a square in GF(9)


# old k = _low_width -> new k; the last five keep their k
PLAN_WIDTHS = [
    ("vec", 9, None, 5, 8, 7), ("mat", 3, 3, 5, 8, 7), ("alt", 5, None, 5, 8, 7), ("sym", 4, None, 5, 8, 7),
    ("vec", 10, None, 5, 8, 7), ("mat", 3, 3, 4, 9, 8), ("symscaled", 3, None, 11, 5, 5), ("alt", 4, None, 25, 4, 4),
    ("mat", 3, 3, 8, 6, 6), ("sym", 5, None, 3, 11, 11), ("mat", 4, 4, 3, 11, 11), ("alt", 6, None, 3, 11, 11),
]


def _plan(sp):
    return bulk._plan(sp.dim, sp.field.q, bulk._labeller(sp)[3])


@pytest.mark.parametrize(
    "fam,n,m,q,chunk",
    [
        ("sym", 3, None, 5, 125), ("alt", 4, None, 9, 729), ("symscaled", 3, None, 7, 7**4), ("sym", 2, None, 27, 27),
        ("mat", 2, 3, 4, 4**4), ("vec", 5, None, 2, 8), ("vec", 4, None, 5, 25), ("vec", 2, None, 1031, None),
        ("vec", 9, None, 5, None),
    ],
)
def test_one_chunk_per_class_of_scalar_multiples(monkeypatch, fam, n, m, q, chunk):
    """orbit_counts labels chunk 0 and one chunk per class {lambda s : lambda in F_p^*} of nonzero high digits s."""
    sp = make_space(fam, field_for(q), n, m)
    coefvecs = _pair_coefvecs(sp)
    if chunk is not None:
        monkeypatch.setattr(bulk, "CHUNK", chunk)
    bulk.orbit_counts(sp, coefvecs)  # builds the (n-1) tables, whose walks label every chunk
    label_indices, calls = bulk._label_indices, []
    monkeypatch.setattr(bulk, "_label_indices", lambda *a: calls.append(1) or label_indices(*a))
    hists, sizes = bulk.orbit_counts(sp, coefvecs)
    high, p = sp.dim - _plan(sp), sp.field.p
    assert high > 0 and len(calls) == (q**high if p == 2 else 1 + (q**high - 1) // (p - 1))
    if (fam, n, q, chunk) == ("vec", 9, 5, None):  # k = 7 at the default CHUNK: 1 + 24/4 chunks, not 1 + 4/4 at k = 8
        assert len(calls) == 7
    want, want_sizes = fold_reference(sp, coefvecs)
    assert sizes.tolist() == want_sizes.tolist()
    assert [h.tolist() for h in hists] == class_counts(sp.field, want)


@pytest.mark.parametrize("fam,n,q,bound_mb", [("symscaled", 3, 11, 8.0), ("vec", 1, 524309, 25.0)])
def test_orbit_counts_peak_memory(fam, n, q, bound_mb):
    """The traced peak of one orbit_counts call: the low digits are freed once the split returns, and a one-chunk space
    folds its rows at the t of reps alone (symscaled n=3 q=11: one split of 11^5 rows; vec n=1 q=524309: one chunk)."""
    sp = make_space(fam, field_for(q), n)
    coefvecs = _pair_coefvecs(sp)
    bulk.orbit_counts(sp, coefvecs)  # the field's tables and trace tables, kept for good
    for memo in (bulk._sym_reduction, bulk._codes, bulk._classes):  # so no earlier test decides what this call builds
        memo.cache_clear()
    tracemalloc.start()
    try:
        bulk.orbit_counts(sp, coefvecs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6, peak


@pytest.mark.parametrize("fam,n,m,q,old,new", PLAN_WIDTHS)
def test_plan_widths(fam, n, m, q, old, new):
    sp = make_space(fam, field_for(q), n, m)
    assert (bulk._low_width(sp.dim, q), _plan(sp)) == (old, new)


@pytest.mark.parametrize("min_rows", [1, None])
def test_plan_keeps_row0_low(monkeypatch, min_rows):
    """The plan's k reaches K0, the digits of the row-0 step, wherever q^K0 <= CHUNK, and never passes _low_width."""
    if min_rows is not None:
        monkeypatch.setattr(bulk, "MIN_ROWS", min_rows)
    seen = set()
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 25, 27):
        odd = [(fam, n, None) for fam in ("alt", "sym", "symscaled") for n in range(1, 9)] if q % 2 else []  # odd q only
        for fam, n, m in [("vec", 7, None), *(("mat", n, m) for n in (1, 2, 3, 4) for m in range(n, 7)), *odd]:
            sp = make_space(fam, field_for(q), n, m)
            K0 = bulk._labeller(sp)[3]
            k = _plan(sp)
            assert k <= bulk._low_width(sp.dim, q)
            if q**K0 <= bulk.CHUNK:
                assert k >= K0, (fam, n, m, q)
                seen.add(fam)
    assert seen == {"vec", "mat", "alt", "sym", "symscaled"}


@pytest.mark.parametrize(
    "fam,n,m,q",
    [("vec", 6, None, 5), ("mat", 2, 3, 5), ("mat", 3, 3, 4), ("alt", 5, None, 3), ("sym", 3, None, 5), ("symscaled", 3, None, 5), ("alt", 4, None, 9)]
    + [("alt", 4, None, 7)],
)
def test_orbit_counts_at_every_width_the_plan_admits(monkeypatch, fam, n, m, q):
    """MIN_ROWS = q^k forces the plan to each k from K0 (or 1) to _low_width; orbit_counts is the same at every one."""
    sp = make_space(fam, field_for(q), n, m)
    coefvecs = _pair_coefvecs(sp)
    want, want_sizes = fold_reference(sp, coefvecs)
    K0, top = bulk._labeller(sp)[3], bulk._low_width(sp.dim, q)
    ks = range(max(K0, 1), top + 1)
    for k in ks:
        monkeypatch.setattr(bulk, "MIN_ROWS", q**k)
        assert _plan(sp) == k
        hists, sizes = bulk.orbit_counts(sp, coefvecs)
        assert sizes.tolist() == want_sizes.tolist()
        assert [h.tolist() for h in hists] == class_counts(sp.field, want), k
    assert len(ks) >= 2


def _class_params(limit: int):
    """Every family at q in {2, 3, 4, 5, 7, 8, 9, 25, 27} (alt, sym and symscaled at odd q; sym at e = 1, 2 and 3), at
    its largest n with at most limit elements (mat: n x n, or 1 x 2), with twist 1 and the first nonsquare (2 at even
    q > 2): the nonsquare moves sym's histograms between S and N."""
    for q in (2, 3, 4, 5, 7, 8, 9, 25, 27):
        fld = field_for(q)
        twists = dict.fromkeys((1, fld.delta() if q % 2 else min(2, q - 1)))
        for fam in ("vec", "mat", "alt", "sym", "symscaled") if q % 2 else ("vec", "mat"):
            if fam == "mat":
                n, m = next(((n, n) for n in (3, 2) if q ** (n * n) <= limit), (1, 2))
            else:
                n, m = max(n for n in range(1, 9) if q ** make_space(fam, fld, n).dim <= limit), None
            for twist in twists:
                yield pytest.param(fam, n, m, q, twist, id=f"{fam}-{n}-{m}-q{q}-t{twist}")


@pytest.mark.parametrize("fam,n,m,q,twist", _class_params(20000))
def test_fold_reference_is_constant_on_the_classes_and_orbit_counts_keeps_them(fam, n, m, q, twist):
    """The per-t histograms of the whole space are constant on S and on N, and orbit_counts returns them at
    t = 0, S and N; orbit_counts' sizes are H(0) + |S| H(S) + |N| H(N)."""
    sp = make_space(fam, field_for(q), n, m)
    coefvecs = _pair_coefvecs(sp, twist)
    want, want_sizes = fold_reference(sp, coefvecs)
    hists, sizes = bulk.orbit_counts(sp, coefvecs)
    assert [h.tolist() for h in hists] == class_counts(sp.field, want)  # class_counts asserts the constancy
    assert sizes.tolist() == want_sizes.tolist()
    S, N = scalar_classes_of(sp.field)
    assert bulk.scalar_classes(sp.field) == (len(S), len(N))
    if fam == "sym" and q in (3, 5, 7, 27) and sp.dim > 1:  # odd e: N is not empty, and it matters for sym
        assert any(h[:, 1].tolist() != h[:, 2].tolist() for h in hists)


@pytest.mark.parametrize("fam,n,m,q,twist", _class_params(600))
def test_element_by_element_reference_is_constant_on_the_classes(fam, n, m, q, twist):
    sp = make_space(fam, field_for(q), n, m)
    ch = CharSpec(sp.field, twist)
    reps = [sp.representative(l) for l in sp.labels()]
    hists, sizes = _counts_pure(sp, ch, reps, 10**7)
    assert (class_counts(sp.field, hists), list(sizes)) == _counts_bulk(sp, ch, reps, 10**7)


class TestFold:
    """orbit_counts against one bincount per functional alone, at the default CHUNK and a small one."""

    @pytest.mark.parametrize("chunk", [None, 25])
    def test_dependent_functionals(self, monkeypatch, chunk):
        sp = make_space("sym", F5, 3)
        u, v = [1, 2, 0, 3, 4, 1], [0, 4, 4, 1, 0, 2]
        coefvecs = [[0] * 6, u, u, [2 * x % 5 for x in u], v, [(x + y) % 5 for x, y in zip(u, v)], [0] * 6, [4 * x % 5 for x in v]]
        _assert_fold(monkeypatch, sp, coefvecs, chunk)

    @pytest.mark.parametrize("chunk", [None, 27])
    def test_verify_sym_functionals(self, monkeypatch, chunk):
        sp = make_space("sym", F3, 4)
        _assert_fold(monkeypatch, sp, _pair_coefvecs(sp), chunk)

    @pytest.mark.parametrize("chunk", [None, 5**6])
    def test_rank_forces_several_groups(self, monkeypatch, chunk):
        sp = make_space("vec", F5, 7)  # 8 labels: 8 * 5^6 > 2^16, so six independent low vectors need two groups
        rng = random.Random(13)
        coefvecs = [[rng.randrange(5) for _ in range(7)] for _ in range(9)]
        fold_groups, groups = bulk._fold_groups, []
        monkeypatch.setattr(bulk, "_fold_groups", lambda *a: groups.extend(fold_groups(*a)) or list(groups))
        _assert_fold(monkeypatch, sp, coefvecs, chunk)
        assert len(groups) > 1 and sorted(r for _, members in groups for r, _ in members) == list(range(9))

    @pytest.mark.parametrize("chunk", [None, 30])
    @pytest.mark.parametrize("twist", ["1", "2", "p"])
    @pytest.mark.parametrize(
        "fam,n,m,q", [("sym", 2, None, 9), ("mat", 1, 2, 25), ("vec", 2, None, 27), ("alt", 3, None, 9), ("sym", 2, None, 27), ("symscaled", 2, None, 27)]
    )
    def test_extension_fields(self, monkeypatch, fam, n, m, q, twist, chunk):
        sp = make_space(fam, field_for(q), n, m)
        rng = random.Random(q)
        coefvecs = _pair_coefvecs(sp, sp.field.p if twist == "p" else int(twist))
        coefvecs += [[rng.randrange(q) for _ in range(sp.dim)] for _ in range(3)]
        _assert_fold(monkeypatch, sp, coefvecs, chunk)

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_prime_above_bincount_cap(self, monkeypatch, chunk):
        sp = make_space("vec", make_field(65537), 1)  # 2 labels: nbins p > 2^16, one functional per group
        _assert_fold(monkeypatch, sp, [[0], [1], [3], [65536], [3]], chunk)
