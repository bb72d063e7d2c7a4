"""Tests for the total coordinate ring data: irrelevant ideal,
primitive collections, class group grading, and the homogenization
correspondence between Laurent polynomials and graded polynomials."""

from fractions import Fraction
from itertools import combinations

import pytest
from conftest import spy_hnf
from hypothesis import given, settings
from hypothesis import strategies as st

import toric_kernel.cox as cx
import toric_kernel.divisors as dv
import toric_kernel.fans as fn
import toric_kernel.ideals as il
import toric_kernel.zlattice as zl

P2 = fn.fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]], 2)
P1P1 = fn.fan([[1, 0], [0, 1], [-1, 0], [0, -1]],
              [[0, 1], [1, 2], [2, 3], [0, 3]], 2)
HIRZ2 = fn.fan([[1, 0], [0, 1], [-1, 2], [0, -1]],
               [[0, 1], [1, 2], [2, 3], [0, 3]], 2)
WEIGHTED121 = fn.fan([[1, 0], [0, 1], [-1, -2]], [[0, 1], [1, 2], [0, 2]], 2)
TILTED = fn.fan([[1, 2], [1, 0], [-3, -2], [0, 1]],
                [[0, 1], [1, 2], [2, 3], [0, 3]], 2)
PYRAMID = fn.fan([[0, 0, 1], [1, 0, -1], [0, 1, -1], [-1, 0, -1], [0, -1, -1]],
                 [[1, 2, 3, 4], [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 1, 4]], 3)
WEDGE = fn.fan([[-1, -2], [1, 0]], [[0, 1]], 2)

ALL_FANS = [P2, P1P1, HIRZ2, WEIGHTED121, TILTED, PYRAMID]

fmt = il.format_polynomial


def mono_support(g):
    exps = next(iter(g.terms))
    return {i for i, e in enumerate(exps) if e}


def laurent(nvars, *terms):
    return il.LaurentPolynomial(nvars, {tuple(e): Fraction(c)
                                        for *e, c in terms})


class TestIrrelevantIdeal:
    def test_projective_plane_in_cone_order(self):
        assert [fmt(g) for g in cx.irrelevant_ideal(P2)] == ["x3", "x1", "x2"]

    def test_product_of_lines(self):
        gens = {fmt(g) for g in cx.irrelevant_ideal(P1P1)}
        assert gens == {"x1*x2", "x1*x4", "x2*x3", "x3*x4"}

    def test_pyramid_fan(self):
        gens = [fmt(g) for g in cx.irrelevant_ideal(PYRAMID)]
        assert gens == ["x1", "x4*x5", "x2*x5", "x2*x3", "x3*x4"]

    @pytest.mark.parametrize("F", ALL_FANS)
    def test_variable_divides_iff_ray_outside_cone(self, F):
        gens = cx.irrelevant_ideal(F)
        seen = set()
        for I in F.maximal_cones:
            expected = set(range(len(F.rays))) - set(I)
            assert any(mono_support(g) == expected for g in gens)
            seen.add(frozenset(expected))
        assert len(gens) == len(seen)

    @pytest.mark.parametrize("F", ALL_FANS)
    def test_generators_are_squarefree_monic(self, F):
        for g in cx.irrelevant_ideal(F):
            assert len(g.terms) == 1
            (exps, coeff), = g.terms.items()
            assert coeff == 1
            assert set(exps) <= {0, 1}


class TestPrimitiveCollections:
    def test_projective_plane(self):
        assert cx.primitive_collections(P2) == [(0, 1, 2)]

    def test_product_of_lines(self):
        assert cx.primitive_collections(P1P1) == [(0, 2), (1, 3)]

    def test_hirzebruch(self):
        assert cx.primitive_collections(HIRZ2) == [(0, 2), (1, 3)]

    def test_pyramid_fan(self):
        assert cx.primitive_collections(PYRAMID) == [(0, 1, 3), (0, 2, 4)]

    @pytest.mark.parametrize("F", ALL_FANS)
    def test_minimality(self, F):
        cone_sets = [set(I) for I in F.maximal_cones]
        for c in cx.primitive_collections(F):
            assert not any(set(c) <= cs for cs in cone_sets)
            for sub in combinations(c, len(c) - 1):
                assert any(set(sub) <= cs for cs in cone_sets)

    @pytest.mark.parametrize("F", ALL_FANS)
    def test_vanishing_locus_is_union_of_collection_strata(self, F):
        """A coordinate subspace kills every irrelevant generator exactly
        when its zero set contains a primitive collection."""
        supports = [mono_support(g) for g in cx.irrelevant_ideal(F)]
        collections = cx.primitive_collections(F)
        k = len(F.rays)
        for size in range(k + 1):
            for zeros in combinations(range(k), size):
                s = set(zeros)
                kills_all = all(s & sup for sup in supports)
                covered = any(set(c) <= s for c in collections)
                assert kills_all == covered


class TestGrading:
    def test_projective_plane_weights_are_units(self):
        data = cx.cox_data(P2)
        assert data.group == zl.AbelianGroupPresentation(1)
        assert [w.coords for w in data.g_weights] == [[1], [1], [1]]

    def test_weighted_plane_weights(self):
        data = cx.cox_data(WEIGHTED121)
        assert data.group == zl.AbelianGroupPresentation(1)
        assert [w.coords for w in data.g_weights] == [[1], [2], [1]]

    def test_degree_matches_total_degree_on_plane(self):
        assert cx.degree(P2, [2, 0, 0]) == cx.degree(P2, [0, 0, 2])
        assert cx.degree(P2, [1, 1, 0]) == cx.degree(P2, [0, 0, 2])
        assert cx.degree(P2, [1, 0, 0]) != cx.degree(P2, [0, 0, 2])

    @pytest.mark.parametrize("F", ALL_FANS)
    def test_principal_exponents_have_zero_degree(self, F):
        n = F.ambient_dim
        for j in range(n):
            a = [F.rays[i][j] for i in range(len(F.rays))]
            assert cx.degree(F, a).is_zero

    def test_weights_are_degrees_of_variables(self):
        for F in (P2, HIRZ2, PYRAMID):
            data = cx.cox_data(F)
            k = len(F.rays)
            for i in range(k):
                e = [int(j == i) for j in range(k)]
                assert data.degree(e) == data.g_weights[i]

    def test_hirzebruch_ray_class_relations(self):
        assert cx.degree(HIRZ2, [1, 0, 0, 0]) == cx.degree(HIRZ2, [0, 0, 1, 0])
        assert cx.degree(HIRZ2, [0, 0, 0, 1]) == cx.degree(HIRZ2, [0, 1, 2, 0])

    @given(st.lists(st.integers(-8, 8), min_size=3, max_size=3))
    def test_plane_grading_kernel_is_total_degree(self, a):
        assert cx.degree(P2, a).is_zero == (sum(a) == 0)

    @given(st.lists(st.integers(-8, 8), min_size=4, max_size=4))
    def test_hirzebruch_grading_kernel(self, a):
        reference = (a[0] - 2 * a[1] + a[2], a[1] + a[3])
        assert cx.degree(HIRZ2, a).is_zero == (reference == (0, 0))

    def test_torus_factor_rejected(self):
        half = fn.fan([[1, 0]], [[0]], 2)
        with pytest.raises(ValueError, match="torus factor"):
            cx.cox_data(half)


class TestGradedPiece:
    def test_plane_conics(self):
        D = 2 * dv.ray_divisor(P2, 2)
        _, class_of = dv.class_group(P2)
        piece = cx.graded_piece(class_of(D), D)
        assert sorted(fmt(g) for g in piece) == [
            "x1*x2", "x1*x3", "x1^2", "x2*x3", "x2^2", "x3^2"]

    def test_hirzebruch_piece(self):
        D = dv.ray_divisor(HIRZ2, 2) + dv.ray_divisor(HIRZ2, 3)
        _, class_of = dv.class_group(HIRZ2)
        piece = cx.graded_piece(class_of(D), D)
        assert sorted(fmt(g) for g in piece) == [
            "x1*x2*x3^2", "x1*x4", "x1^2*x2*x3",
            "x1^3*x2", "x2*x3^3", "x3*x4"]

    def test_zero_class_is_constants(self):
        D = dv.divisor(P2, [0, 0, 0])
        _, class_of = dv.class_group(P2)
        assert [fmt(g) for g in cx.graded_piece(class_of(D), D)] == ["1"]

    def test_every_monomial_has_the_requested_class(self):
        data = cx.cox_data(HIRZ2)
        D = dv.divisor(HIRZ2, [1, 0, 2, 1])
        _, class_of = dv.class_group(HIRZ2)
        alpha = class_of(D)
        piece = cx.graded_piece(alpha, D)
        assert piece
        for g in piece:
            (exps, _), = g.terms.items()
            assert data.degree(list(exps)) == alpha

    def test_class_mismatch_rejected(self):
        D = 2 * dv.ray_divisor(P2, 2)
        _, class_of = dv.class_group(P2)
        with pytest.raises(ValueError, match="class"):
            cx.graded_piece(class_of(D), dv.ray_divisor(P2, 0))

    def test_unbounded_piece_rejected(self):
        D = dv.divisor(WEDGE, [0, 0])
        _, class_of = dv.class_group(WEDGE)
        with pytest.raises(ValueError, match="unbounded"):
            cx.graded_piece(class_of(D), D)


class TestHomogenize:
    def test_hirzebruch_curve(self):
        D = dv.ray_divisor(HIRZ2, 2) + dv.ray_divisor(HIRZ2, 3)
        fhat = laurent(2, (0, 0, 1), (1, 0, 1), (0, 1, 1),
                       (1, 1, 1), (2, 1, 1), (3, 1, 1))
        f = cx.homogenize(fhat, D)
        assert fmt(f) == ("x1^3*x2 + x1^2*x2*x3 + x1*x2*x3^2 "
                          "+ x2*x3^3 + x1*x4 + x3*x4")

    def test_plane_conic_keeps_coefficients(self):
        D = 2 * dv.ray_divisor(P2, 2)
        fhat = laurent(2, (0, 0, 1), (1, 0, 2), (0, 1, 3),
                       (1, 1, 4), (2, 0, 5), (0, 2, 6))
        f = cx.homogenize(fhat, D)
        assert f == il.SparsePolynomial(3, {
            (0, 0, 2): 1, (1, 0, 1): 2, (0, 1, 1): 3,
            (1, 1, 0): 4, (2, 0, 0): 5, (0, 2, 0): 6})

    def test_constant_with_zero_divisor(self):
        D = dv.divisor(P2, [0, 0, 0])
        assert fmt(cx.homogenize(laurent(2, (0, 0, 1)), D)) == "1"

    def test_exponent_outside_polyhedron_rejected(self):
        D = 2 * dv.ray_divisor(P2, 2)
        with pytest.raises(ValueError, match="outside the section"):
            cx.homogenize(laurent(2, (5, 0, 1)), D)

    def test_dimension_mismatch_rejected(self):
        D = 2 * dv.ray_divisor(P2, 2)
        with pytest.raises(ValueError, match="dimension"):
            cx.homogenize(laurent(3, (0, 0, 0, 1)), D)


class TestDehomogenize:
    CONIC = il.SparsePolynomial(3, {
        (0, 0, 2): 1, (1, 0, 1): 2, (0, 1, 1): 3,
        (1, 1, 0): 4, (2, 0, 0): 5, (0, 2, 0): 6})

    def test_standard_chart(self):
        D = 2 * dv.ray_divisor(P2, 2)
        fhat = cx.dehomogenize(self.CONIC, D, 0)
        assert fhat == laurent(2, (0, 0, 1), (1, 0, 2), (0, 1, 3),
                               (1, 1, 4), (2, 0, 5), (0, 2, 6))

    def test_chart_with_negative_exponents(self):
        """The chart at the cone spanned by the second and third rays
        lives in the semigroup generated by (-1, 0) and (-1, 1)."""
        D = 2 * dv.ray_divisor(P2, 2)
        fhat = cx.dehomogenize(self.CONIC, D, 1)
        assert fhat == laurent(2, (-2, 0, 1), (-1, 0, 2), (-2, 1, 3),
                               (-1, 1, 4), (0, 0, 5), (-2, 2, 6))

    def test_vertex_monomial_restricts_to_one(self):
        D = 2 * dv.ray_divisor(P2, 2)
        square = il.SparsePolynomial(3, {(2, 0, 0): 1})
        assert fmt(cx.dehomogenize(square, D, 1)) == "1"

    def test_degree_mismatch_rejected(self):
        D = 2 * dv.ray_divisor(P2, 2)
        line = il.SparsePolynomial(3, {(1, 0, 0): 1})
        with pytest.raises(ValueError, match="degree of the divisor"):
            cx.dehomogenize(line, D, 0)

    def test_non_principal_chart_rejected(self):
        D = dv.ray_divisor(TILTED, 2)
        assert not dv.is_cartier(D)
        one = il.SparsePolynomial(4, {(0, 0, 1, 0): 1})
        with pytest.raises(ValueError, match="locally principal"):
            cx.dehomogenize(one, D, 1)

    def test_cone_index_out_of_range(self):
        D = 2 * dv.ray_divisor(P2, 2)
        with pytest.raises(IndexError):
            cx.dehomogenize(self.CONIC, D, 3)

    @pytest.mark.parametrize("t", [3, 4, 6])
    def test_hnf_count_does_not_grow_with_the_terms(self, monkeypatch, t):
        # one HNF for the chart's character, one shared by all the terms
        calls = spy_hnf(monkeypatch)
        f = il.SparsePolynomial(3, dict.fromkeys(list(self.CONIC.terms)[:t], 1))
        assert len(cx.dehomogenize(f, 2 * dv.ray_divisor(P2, 2), 0).terms) == t
        assert len(calls) == 2

    def test_fan_without_rays(self):
        D = dv.divisor(fn.fan([], [[]], 2), [])
        assert cx.dehomogenize(il.constant(0, 3), D, 0) == il.LaurentPolynomial(
            2, {(0, 0): Fraction(3)})


class TestRoundtrip:
    @staticmethod
    def vertex_character(D, index):
        F = D.fan
        I = F.maximal_cones[index]
        U = [list(F.rays[i]) for i in I]
        return zl.solve_integer(U, [-D.coeffs[i] for i in I])

    @settings(deadline=None)
    @given(st.integers(0, 2),
           st.dictionaries(
               st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]),
               st.integers(-5, 5).filter(bool), max_size=6))
    def test_plane_charts(self, index, coeffs):
        D = 2 * dv.ray_divisor(P2, 2)
        fhat = il.LaurentPolynomial(2, coeffs)
        back = cx.dehomogenize(cx.homogenize(fhat, D), D, index)
        v = self.vertex_character(D, index)
        shift = il.LaurentPolynomial(2, {tuple(-x for x in v): 1})
        assert back == shift * fhat

    @settings(deadline=None)
    @given(st.integers(0, 3),
           st.dictionaries(
               st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (3, 1)]),
               st.integers(-5, 5).filter(bool), max_size=6))
    def test_hirzebruch_charts(self, index, coeffs):
        D = dv.ray_divisor(HIRZ2, 2) + dv.ray_divisor(HIRZ2, 3)
        fhat = il.LaurentPolynomial(2, coeffs)
        back = cx.dehomogenize(cx.homogenize(fhat, D), D, index)
        v = self.vertex_character(D, index)
        shift = il.LaurentPolynomial(2, {tuple(-x for x in v): 1})
        assert back == shift * fhat
