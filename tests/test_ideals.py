"""Polynomials, Groebner bases, saturation, and toric ideals of point configurations."""

from fractions import Fraction
from math import gcd
import random

import pytest
from conftest import lattice_binomial, saturate, tuple_hilbert_function, within
from hypothesis import given, settings, strategies as st

from toric_kernel import ideals as il
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl
from toric_kernel.ideals import GREVLEX, LEX, SparsePolynomial, elimination_block


def poly(nvars, *terms):
    return SparsePolynomial(nvars, [(tuple(e), Fraction(c)) for e, c in terms])


def fmt(basis):
    return [il.format_polynomial(g) for g in basis]


def s_polynomial(f, g, order):
    """S-polynomial: both leading terms lifted to their lcm and cancelled."""
    lf, cf = f.leading(order)
    lg, cg = g.leading(order)
    T = tuple(map(max, lf, lg))
    mf = il.monomial(f.nvars, tuple(a - b for a, b in zip(T, lf)), 1 / cf)
    mg = il.monomial(g.nvars, tuple(a - b for a, b in zip(T, lg)), 1 / cg)
    return mf * f - mg * g


# Point configurations used throughout (columns are the points).
CLAUDIA2 = [[1, -1, 0], [0, 2, 1]]            # {(1,0), (-1,2), (0,1)}
C2INC3 = [[1, 0, 1], [0, 1, 1]]               # {(1,0), (0,1), (1,1)}
KUSH = [[0, 2, 3], [1, 1, 1]]                 # homogenized {0, 2, 3}
PENTAGON_HOM = [[0, 1, 0, 2, 1],
                [0, 0, 1, 1, 2],
                [1, 1, 1, 1, 1]]
CHIARA1 = [[2, 2, 1, 0, 0, 1, 1],
           [1, 0, 0, 1, 2, 2, 1],
           [0, 1, 2, 2, 1, 0, 1]]


class TestMonomialOrders:
    def test_lex_ignores_degree(self):
        k = LEX.key
        assert k((1, 0)) > k((0, 5))

    def test_grevlex_degree_first(self):
        k = GREVLEX.key
        assert k((0, 2)) > k((1, 0))

    def test_grevlex_tie_break(self):
        # among equal degrees, smaller exponent on the last variable wins
        k = GREVLEX.key
        assert k((2, 1, 0)) > k((1, 1, 1)) > k((0, 2, 1))
        assert k((3, 0, 0)) > k((1, 1, 1))

    def test_elimination_block_dominates(self):
        k = elimination_block(1).key
        assert k((1, 0, 0)) > k((0, 7, 9))
        # within the t-free part it is graded
        assert k((0, 0, 2)) > k((0, 1, 0))

    def test_sorted_terms_descending(self):
        f = poly(2, ((0, 2), 1), ((1, 0), 1), ((0, 0), 5))
        exps = sorted(f.terms, key=GREVLEX.key, reverse=True)
        assert exps == [(0, 2), (1, 0), (0, 0)]

    def test_equality(self):
        assert LEX == il.MonomialOrder("lex")
        assert GREVLEX != LEX
        assert elimination_block(2) == elimination_block(2)
        assert elimination_block(1) != elimination_block(2)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(GREVLEX)

    @given(st.integers(0, 2),
           st.tuples(*[st.integers(0, 6)] * 4),
           st.tuples(*[st.integers(0, 6)] * 4),
           st.tuples(*[st.integers(0, 6)] * 4))
    @settings(max_examples=150, deadline=None)
    def test_multiplicative(self, which, a, b, c):
        order = [LEX, GREVLEX, elimination_block(2)][which]
        k = order.key
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        if k(a) < k(b):
            assert k(ac) < k(bc)
        elif k(a) == k(b):
            assert a == b


class TestSparsePolynomial:
    def test_drops_zero_coefficients(self):
        f = poly(2, ((1, 0), 1), ((0, 1), 0))
        assert f.terms == {(1, 0): 1}

    def test_accumulates_repeated_monomials(self):
        f = SparsePolynomial(2, [((1, 0), 1), ((1, 0), 2)])
        assert f.terms == {(1, 0): 3}

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            poly(2, ((1, 0, 0), 1))

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            poly(2, ((-1, 0), 1))

    def test_product(self):
        x = il.monomial(2, (1, 0))
        y = il.monomial(2, (0, 1))
        assert (x + y) * (x - y) == x * x - y * y

    def test_scalar_and_subtraction(self):
        f = poly(2, ((1, 1), 2), ((0, 0), -3))
        assert f - f == il.constant(2, 0)
        assert (Fraction(1, 2) * f).terms[(1, 1)] == 1
        assert (f * 0).is_zero

    def test_leading_depends_on_order(self):
        f = poly(2, ((1, 0), 1), ((0, 2), 1))
        assert f.leading(LEX)[0] == (1, 0)
        assert f.leading(GREVLEX)[0] == (0, 2)

    def test_leading_of_zero(self):
        with pytest.raises(ValueError):
            il.constant(2, 0).leading(GREVLEX)

    def test_evaluate(self):
        f = poly(2, ((2, 0), 1), ((0, 1), -1))
        assert f.evaluate([Fraction(1, 2), Fraction(1, 4)]) == 0

    def test_degree_and_homogeneity(self):
        f = poly(3, ((1, 1, 0), 1), ((0, 0, 2), -1))
        assert f.is_homogeneous()
        assert not (f + il.constant(3, 1)).is_homogeneous()


class TestLaurentPolynomial:
    def test_negative_exponents(self):
        f = il.LaurentPolynomial(2, [((-1, 2), Fraction(1)), ((0, 0), Fraction(1))])
        assert f.support() == [(-1, 2), (0, 0)]

    def test_evaluate_inverts(self):
        f = il.LaurentPolynomial(1, [((-2,), Fraction(3))])
        assert f.evaluate([Fraction(2)]) == Fraction(3, 4)

    def test_ring_ops(self):
        t = il.LaurentPolynomial(1, [((1,), Fraction(1))])
        tinv = il.LaurentPolynomial(1, [((-1,), Fraction(1))])
        one = il.LaurentPolynomial(1, [((0,), Fraction(1))])
        assert t * tinv == one
        assert (t + tinv) - t == tinv


class TestTwoPolynomialClasses:
    """SparsePolynomial and LaurentPolynomial share one implementation,
    but stay two classes that never mix."""

    def test_never_equal_across_classes(self):
        s = SparsePolynomial(1, {(1,): 1})
        t = il.LaurentPolynomial(1, {(1,): 1})
        assert s != t and t != s
        assert s == SparsePolynomial(1, {(1,): 1})
        assert t == il.LaurentPolynomial(1, {(1,): 1})

    def test_product_across_classes_is_a_type_error(self):
        s = SparsePolynomial(1, {(1,): 1})
        t = il.LaurentPolynomial(1, {(1,): 1})
        with pytest.raises(TypeError):
            s * t
        with pytest.raises(TypeError):
            t * s

    def test_arithmetic_keeps_the_class(self):
        s = SparsePolynomial(1, {(1,): 1})
        t = il.LaurentPolynomial(1, {(-1,): 1})
        for f in (s, t):
            for g in (f + f, f - f, f * f, 2 * f, f * Fraction(1, 2)):
                assert type(g) is type(f)

    def test_reprs(self):
        assert repr(poly(2, ((2, 0), 1), ((0, 1), -1))) == \
            "SparsePolynomial(2, 'x1^2 - x2')"
        assert repr(il.LaurentPolynomial(1, {(-1,): 2, (0,): 1})) == \
            "LaurentPolynomial(1, [((-1,), Fraction(2, 1)), ((0,), Fraction(1, 1))])"

    def test_names_the_tracer_leaves_unwrapped_exist(self):
        import importlib.util
        from pathlib import Path
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for name in tracing.EXCLUDED:
            layer, _, attr = name.partition(".")
            obj = tracing.LAYERS[layer]
            for part in attr.split("."):
                obj = getattr(obj, part)


class TestNormalForm:
    def test_member_reduces_to_zero(self):
        f = poly(1, ((2,), 1), ((0,), -1))
        g = poly(1, ((1,), 1), ((0,), -1))
        assert il.normal_form(f, [g], GREVLEX).is_zero

    def test_empty_basis(self):
        f = poly(2, ((1, 1), 1))
        assert il.normal_form(f, [], GREVLEX) == f

    def test_fully_reduced(self):
        # no term of the remainder is divisible by any leading monomial
        f = poly(2, ((3, 1), 1), ((1, 2), 1), ((0, 0), 1))
        basis = [poly(2, ((2, 0), 1), ((0, 1), -1))]
        r = il.normal_form(f, basis, GREVLEX)
        lead = basis[0].leading(GREVLEX)[0]
        for e in r.terms:
            assert not all(a <= b for a, b in zip(lead, e))

    def test_difference_is_member(self):
        f = poly(2, ((2, 2), 1), ((1, 0), 3))
        basis = il.buchberger([poly(2, ((1, 1), 1), ((0, 0), -1))], GREVLEX)
        r = il.normal_form(f, basis, GREVLEX)
        assert il.normal_form(f - r, basis, GREVLEX).is_zero


def assert_reduced(basis, order):
    """Check the defining properties of a reduced Groebner basis."""
    keys = []
    for i, g in enumerate(basis):
        le, lc = g.leading(order)
        keys.append(order.key(le))
        assert lc == 1
        for j, h in enumerate(basis):
            if i == j:
                continue
            lh = h.leading(order)[0]
            for e in g.terms:
                assert not all(a <= b for a, b in zip(lh, e))
    assert keys == sorted(keys)


class TestBuchberger:
    def test_single_generator(self):
        g = poly(1, ((1,), 2), ((0,), -2))
        assert il.buchberger([g], GREVLEX) == [poly(1, ((1,), 1), ((0,), -1))]

    def test_rejects_zero_generator(self):
        with pytest.raises(ValueError):
            il.buchberger([il.constant(2, 0)], GREVLEX)

    def test_monomial_curve(self):
        gens = [poly(3, ((1, 0, 1), 1), ((0, 2, 0), -1)),
                poly(3, ((1, 1, 0), 1), ((0, 0, 1), -1))]
        basis = il.buchberger(gens, GREVLEX)
        assert_reduced(basis, GREVLEX)
        # x1^2 - x2 vanishes on the curve (t, t^2, t^3) but only its
        # x3-multiple lies in the ideal generated by the two binomials;
        # the polynomial itself appears after saturating
        probe = poly(3, ((2, 0, 0), 1), ((0, 1, 0), -1))
        assert not il.membership(probe, basis)
        assert il.membership(probe * il.monomial(3, (0, 0, 1)), basis)
        assert il.membership(probe, saturate(gens, [2]))

    def test_all_s_pairs_reduce(self):
        gens = [poly(3, ((2, 0, 0), 1), ((0, 1, 1), -1)),
                poly(3, ((1, 1, 0), 1), ((0, 0, 2), -1)),
                poly(3, ((0, 3, 0), 1), ((1, 0, 2), -1))]
        basis = il.buchberger(gens, GREVLEX)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j], GREVLEX)
                assert il.normal_form(s, basis, GREVLEX).is_zero

    def test_generators_stay_members(self):
        gens = [poly(2, ((3, 0), 1), ((0, 2), -1), ((1, 0), 1)),
                poly(2, ((1, 1), 1), ((0, 0), -2))]
        basis = il.buchberger(gens, GREVLEX)
        for g in gens:
            assert il.membership(g, basis)
        assert il.same_ideal(gens, basis)

    def test_order_of_input_irrelevant(self):
        small = [poly(3, ((1, 0, 1), 1), ((0, 2, 0), -1)),
                 poly(3, ((1, 1, 0), 1), ((0, 0, 1), -1)),
                 poly(3, ((2, 0, 0), 1), ((0, 1, 0), -1))]
        # exponents past the 4-bit divisibility mask cap; the basis is the
        # one computed before masks existed
        past_cap = [poly(3, ((5, 1, 0), 1), ((0, 0, 2), -1), ((1, 0, 0), 1)),
                    poly(3, ((0, 6, 0), 1), ((2, 0, 1), -1)),
                    poly(3, ((1, 0, 5), 1), ((0, 2, 0), -2))]
        assert fmt(il.buchberger(past_cap, GREVLEX)) == [
            "x1*x3^5 - 2*x2^2", "x2^6 - x1^2*x3", "x1^5*x2 - x3^2 + x1",
            "x1^4*x2^3 - 1/2*x3^7 + x2^2", "x1^7*x3 - x2^5*x3^2 + x1*x2^5",
            "x2^3*x3^6 - x1*x2^3*x3^4 - 2*x1^6",
            "x1^2*x2^3*x3^4 + 2*x1^7 - 2*x2^5*x3",
            "x1^10 - x1^3*x2^5*x3 + 1/2*x2^2*x3^6 - 1/2*x1*x2^2*x3^4",
            "x3^11 + 4*x1^9 - 4*x1^2*x2^5*x3 - 2*x2^2*x3^4"]
        for gens in (small, past_cap):
            expected = il.buchberger(gens, GREVLEX)
            rng = random.Random(7)
            for _ in range(6):
                shuffled = gens[:]
                rng.shuffle(shuffled)
                assert il.buchberger(shuffled, GREVLEX) == expected

    def test_elimination(self):
        # intersect <t*x - 1, x^2 - y> with the t-free subring
        order = elimination_block(1)
        gens = [poly(3, ((1, 1, 0), 1), ((0, 0, 0), -1)),
                poly(3, ((0, 2, 0), 1), ((0, 0, 1), -1))]
        basis = il.buchberger(gens, order)
        tfree = [g for g in basis if g.leading(order)[0][0] == 0]
        assert tfree == [poly(3, ((0, 2, 0), 1), ((0, 0, 1), -1))]

    def test_lex_solves_triangular_system(self):
        gens = [poly(2, ((1, 0), 1), ((0, 1), 1), ((0, 0), -3)),
                poly(2, ((1, 0), 1), ((0, 1), -1), ((0, 0), -1))]
        basis = il.buchberger(gens, LEX)
        assert basis == [poly(2, ((0, 1), 1), ((0, 0), -1)),
                         poly(2, ((1, 0), 1), ((0, 0), -2))]


class TestMembership:
    def test_zero_always_member(self):
        assert il.membership(il.constant(2, 0), [poly(2, ((1, 0), 1))])

    def test_nonmember(self):
        assert not il.membership(il.monomial(3, (1, 0, 0)),
                                 [poly(3, ((1, 1, 0), 1), ((0, 0, 1), -1))])

    def test_product_of_generators(self):
        f = poly(2, ((2, 0), 1), ((0, 1), -1))
        g = poly(2, ((1, 1), 1), ((0, 0), -5))
        assert il.membership(f * g, [f, g])


class TestSameIdeal:
    def test_scaling_and_permutation(self):
        f = poly(2, ((2, 0), 1), ((0, 1), -1))
        g = poly(2, ((1, 1), 1), ((0, 0), -1))
        assert il.same_ideal([f, g], [3 * g, Fraction(-1, 2) * f])

    def test_distinct_ideals(self):
        f = poly(2, ((1, 0), 1))
        g = poly(2, ((0, 1), 1))
        assert not il.same_ideal([f], [g])

    def test_redundant_generator(self):
        f = poly(2, ((1, 0), 1), ((0, 0), -1))
        assert il.same_ideal([f], [f, f * f])


class TestSaturate:
    def test_strips_variable_factor(self):
        # <x1*(x2 - 1)> : x1^inf = <x2 - 1>
        g = poly(2, ((1, 1), 1), ((1, 0), -1))
        assert fmt(saturate([g], [0])) == ["x2 - 1"]

    def test_already_saturated(self):
        g = poly(3, ((1, 1, 0), 1), ((0, 0, 1), -1))
        assert il.same_ideal(saturate([g], [0, 1, 2]), [g])

    def test_empty_variable_set(self):
        g = poly(2, ((1, 0), 2), ((0, 1), -2))
        assert saturate([g], []) == il.buchberger([g], GREVLEX)

    def test_variable_out_of_range(self):
        g = poly(2, ((1, 0), 1))
        with pytest.raises(ValueError):
            saturate([g], [2])

    def test_lattice_basis_saturates_to_toric(self):
        A = [[1, 2, 3]]
        gens = [lattice_binomial(3, v)
                for v in zl.columns(zl.kernel_basis(A))]
        sat = saturate(gens, range(3))
        assert sat == il.toric_ideal(A)


class TestLatticeBinomial:
    def test_split_by_sign(self):
        f = lattice_binomial(3, [2, -1, 0])
        assert f == poly(3, ((2, 0, 0), 1), ((0, 1, 0), -1))

    def test_zero_vector(self):
        assert lattice_binomial(2, [0, 0]).is_zero


class TestToricIdeal:
    def test_hilbert_basis_of_dual_quadric_cone(self):
        assert fmt(il.toric_ideal(CLAUDIA2)) == ["x1*x2 - x3^2"]

    def test_plane_conic_chart(self):
        assert fmt(il.toric_ideal(C2INC3)) == ["x1*x2 - x3"]

    def test_monomial_curve_0_2_3(self):
        basis = il.toric_ideal(KUSH)
        assert fmt(basis) == ["x2^3 - x1*x3^2"]
        assert il.membership(poly(3, ((1, 0, 2), 1), ((0, 3, 0), -1)), basis)

    def test_affine_monomial_curve_1_2_3(self):
        assert fmt(il.toric_ideal([[1, 2, 3]])) == \
            ["x2^2 - x1*x3", "x1*x2 - x3", "x1^2 - x2"]

    def test_pentagon_generators(self):
        assert fmt(il.toric_ideal(PENTAGON_HOM)) == [
            "x3*x4 - x2*x5",
            "x2*x3^2 - x1^2*x5",
            "x2^2*x3 - x1^2*x4",
            "x1^2*x4^2 - x2^3*x5",
        ]

    def test_seven_point_configuration(self):
        basis = il.toric_ideal(CHIARA1)
        assert len(basis) == 9
        for g in basis:
            assert len(g.terms) == 2

    def test_injective_configuration(self):
        assert il.toric_ideal([[1, 0], [0, 1]]) == []

    def test_zero_column_uses_unit(self):
        # a zero column forces the auxiliary-variable elimination path
        assert fmt(il.toric_ideal([[0, 1], [0, 1]])) == ["x1 - 1"]

    def test_nonpointed_configuration(self):
        assert fmt(il.toric_ideal([[1, -1]])) == ["x1*x2 - 1"]

    def test_configuration_with_a_large_smith_kernel_within_budget(self):
        # the Smith column transform gives this kernel entries up to 114,
        # and Buchberger then ran for about 40 s
        A = [[2, 3, 1, 1, 2, 2, 1], [3, 2, 1, 2, 3, 0, 0], [0, 1, 3, 3, 2, 3, 3]]
        with within(1):
            basis = il.toric_ideal(A)
        assert len(basis) == 22

    @given(st.integers(1, 2).flatmap(
        lambda d: st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d),
                           min_size=1, max_size=4)))
    @settings(max_examples=40, deadline=None)
    def test_binomials_with_kernel_differences(self, cols):
        A = zl.from_columns(cols, rows=len(cols[0]))
        basis = il.toric_ideal(A)
        for g in basis:
            assert len(g.terms) == 2
            (e1, c1), (e2, c2) = sorted(g.terms.items())
            assert {c1, c2} == {1, -1}
            # terms share no variable
            assert all(a == 0 or b == 0 for a, b in zip(e1, e2))
            diff = zl.vsub(list(e1), list(e2))
            assert zl.mat_vec(A, diff) == [0] * len(A)
            # binomial vanishes on the all-ones point of the torus
            assert g.evaluate([Fraction(1)] * len(cols)) == 0

    @given(st.lists(st.lists(st.integers(1, 4), min_size=2, max_size=2),
                    min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_single_saturation(self, cols):
        A = zl.from_columns(cols, rows=2)
        gens = [lattice_binomial(len(cols), v)
                for v in zl.columns(zl.kernel_basis(A))]
        if not gens:
            assert il.toric_ideal(A) == []
        else:
            assert il.toric_ideal(A) == saturate(gens, range(len(cols)))


class TestHomogeneousConfig:
    def test_homogenized_pentagon(self):
        assert il.is_homogeneous_config(PENTAGON_HOM) == ([0, 0, 1], 1)

    def test_affine_curve(self):
        assert il.is_homogeneous_config([[1, 1, 1], [0, 1, 2]]) == ([1, 0], 1)

    def test_inhomogeneous(self):
        assert il.is_homogeneous_config([[0, 1]]) is None

    def test_least_witness(self):
        # u = (0, 1) reaches c = 1; the particular solution (1/2, 0) gave c = 2
        assert il.is_homogeneous_config([[2], [1]]) == ([0, 1], 1)

    def test_scaled_witness(self):
        u, c = il.is_homogeneous_config([[2, 4], [1, 3]])
        assert gcd(gcd(*u), c) == 1
        for col in zl.columns([[2, 4], [1, 3]]):
            assert zl.dot(u, col) == c

    @given(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_witness_matches_generators(self, cols):
        A = zl.from_columns(cols, rows=2)
        res = il.is_homogeneous_config(A)
        basis = il.toric_ideal(A)
        if res is not None:
            u, c = res
            assert c >= 1
            assert all(zl.dot(u, col) == c for col in cols)
            for g in basis:
                assert g.is_homogeneous()


class TestHilbertFunction:
    def test_monomial_curve_values(self):
        assert [il.hilbert_function([[0, 2, 3]], d) for d in range(5)] == \
            [1, 3, 6, 9, 12]

    def test_degree_zero(self):
        assert il.hilbert_function(CHIARA1, 0) == 1

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            il.hilbert_function(KUSH, -1)

    def test_pentagon_matches_dilation_counts(self):
        # with all six lattice points of the pentagon (five vertices plus
        # the interior point) the configuration is normal, so degree-d
        # products fill the d-th dilation exactly
        A = [[0, 1, 0, 2, 1, 1], [0, 0, 1, 1, 2, 1]]
        ehr = pt.ehrhart(pt.hull(zl.columns(A)))
        for d in (2, 3, 4):
            assert il.hilbert_function(A, d) == ehr.evaluate(d)

    def test_vertex_configuration_lags_dilations(self):
        # the five vertices alone miss the interior point, and the gap shows
        # up in degree 2: 14 products versus 16 lattice points of 2P
        A = [[0, 1, 0, 2, 1], [0, 0, 1, 1, 2]]
        assert il.hilbert_function(A, 2) == 14
        P2 = pt.dilate(pt.hull(zl.columns(A)), 2)
        assert len(pt.lattice_points(P2)) == 16

    @given(st.lists(st.lists(st.integers(0, 3), min_size=2, max_size=2),
                    min_size=1, max_size=4), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_dilation(self, cols, d):
        A = zl.from_columns(cols, rows=2)
        P = pt.dilate(pt.hull(cols), d)
        assert il.hilbert_function(A, d) <= len(pt.lattice_points(P))


    @pytest.mark.parametrize("seed", range(40))
    def test_mixed_radix_sumset_matches_tuple_sumset(self, seed):
        # entries of both signs, repeated columns, zero rows and columns
        rng = random.Random(seed)
        n, s = rng.randint(1, 4), rng.randint(0, 6)
        A = [[rng.randint(-4, 4) * (r % 3 != 2) for _ in range(s)] for r in range(n)]
        if s > 1 and seed % 2:
            for row in A:
                row[-1] = row[0]
        degrees = rng.sample(range(7), 4)
        assert il.hilbert_function_values(A, degrees) == \
            [tuple_hilbert_function(A, d) for d in degrees]
        d = degrees[0]
        assert il.hilbert_function(A, d) == tuple_hilbert_function(A, d)

    def test_values_keep_the_request_order(self):
        assert il.hilbert_function_values([[0, 2, 3]], [4, 0, 2, 4]) == [12, 1, 6, 12]
        assert il.hilbert_function_values([[0, 2, 3]], []) == []

    def test_negative_degree_among_values(self):
        with pytest.raises(ValueError):
            il.hilbert_function_values(KUSH, [2, -1])

    def test_thirty_degrees_of_a_four_by_seven_configuration(self):
        # homogeneous: the first row is all ones; the tuple sumset took
        # minutes for these 31 degrees, rebuilt once per degree
        rng = random.Random(4)
        A = [[1] * 7] + [[rng.randint(0, 6) for _ in range(7)] for _ in range(3)]
        with within(10):
            values = il.hilbert_function_values(A, range(31))
        assert values[:4] == [tuple_hilbert_function(A, d) for d in range(4)]
        assert values[0] == 1 and values[1] == 7
        assert all(a < b for a, b in zip(values, values[1:]))


class TestChartConfig:
    def test_shifts_to_origin(self):
        B = il.chart_config(KUSH, 0)
        assert zl.columns(B)[0] == [0, 0]
        assert zl.columns(B) == [[0, 0], [2, 0], [3, 0]]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            il.chart_config(KUSH, 3)

    def test_dehomogenizes_projective_curve(self):
        # the chart at the first point of the homogenized configuration cuts
        # out the affine curve: x1 becomes a unit and the binomial loses it
        basis = il.toric_ideal(il.chart_config(KUSH, 0))
        assert il.same_ideal(basis, [
            poly(3, ((1, 0, 0), 1), ((0, 0, 0), -1)),
            poly(3, ((0, 3, 0), 1), ((0, 0, 2), -1)),
        ])


class TestFormatPolynomial:
    def test_zero(self):
        assert il.format_polynomial(il.constant(3, 0)) == "0"

    def test_constant(self):
        assert il.format_polynomial(il.constant(2, Fraction(-5, 3))) == "-5/3"

    def test_unit_coefficients_omitted(self):
        f = poly(4, ((2, 0, 0, 1), 1), ((0, 1, 0, 0), -1))
        assert il.format_polynomial(f) == "x1^2*x4 - x2"

    def test_fractional_coefficient(self):
        f = poly(2, ((1, 0), Fraction(1, 2)), ((0, 0), 7))
        assert il.format_polynomial(f) == "1/2*x1 + 7"

    def test_leading_minus(self):
        f = poly(2, ((1, 0), -1), ((0, 0), 1))
        assert il.format_polynomial(f) == "-x1 + 1"

    def test_respects_order(self):
        f = poly(2, ((1, 0), 1), ((0, 2), 1))
        assert il.format_polynomial(f, LEX) == "x1 + x2^2"
        assert il.format_polynomial(f, GREVLEX) == "x2^2 + x1"
