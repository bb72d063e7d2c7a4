"""Tests for lattice polytopes.

Oracle notes are inline: areas come from the shoelace formula, Ehrhart
coefficients of the permutohedra from the forest-counting description of
zonotope Ehrhart polynomials, and small lattice-point sets were counted
by hand.
"""

from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from toric_kernel import zlattice as zl
from toric_kernel.polytopes import (
    LatticePolytope,
    dilate,
    ehrhart,
    face_in_direction,
    hull,
    is_normal,
    is_smooth,
    is_very_ample,
    lattice_points,
    minkowski_sum,
    mixed_volume,
    normalized_volume,
    project_full,
    volume,
)

PENTAGON = [[0, 0], [1, 0], [0, 1], [2, 1], [1, 2]]
TRIANGLE66 = [[6, -6], [0, 6], [-6, 0]]


def simplex(n):
    pts = [[0] * n]
    for i in range(n):
        e = [0] * n
        e[i] = 1
        pts.append(e)
    return hull(pts)


def permutohedron(n):
    return hull([list(p) for p in permutations(range(1, n + 1))])


class TestHull:
    def test_pentagon_vertices_and_facets(self):
        P = hull(PENTAGON)
        assert P.vertices == [[0, 0], [0, 1], [1, 0], [1, 2], [2, 1]]
        assert len(P.facets) == 5
        assert P.equations == []
        assert P.dim == 2 and P.is_full_dim

    def test_interior_and_duplicate_points_dropped(self):
        P = hull([[0, 0], [2, 0], [1, 0], [0, 2], [0, 0], [1, 1]])
        assert P.vertices == [[0, 0], [0, 2], [2, 0]]

    def test_triangle_facet_normals(self):
        # inward normals of conv((6,-6),(0,6),(-6,0)), each at offset 6
        P = hull(TRIANGLE66)
        assert set(map(tuple, (u for u, _ in P.facets))) == {
            (-2, -1), (1, 2), (1, -1)}
        assert all(a == 6 for _, a in P.facets)

    def test_single_point(self):
        P = hull([[3, -1]])
        assert P.vertices == [[3, -1]]
        assert P.facets == []
        assert zl.rank([u for u, _ in P.equations]) == 2
        assert P.contains([3, -1]) and not P.contains([3, 0])

    def test_segment_off_axis(self):
        P = hull([[0, 0], [2, 4]])
        assert P.dim == 1
        assert len(P.facets) == 2 and len(P.equations) == 1
        assert P.contains([1, 2])
        assert not P.contains([1, 1])
        assert not P.contains([-1, -2])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            hull([])

    def test_permutohedron_hexagon(self):
        P = permutohedron(3)
        assert len(P.vertices) == 6
        assert P.dim == 2
        assert len(P.facets) == 6
        assert len(P.equations) == 1
        assert P.contains([2, 2, 2])
        assert not P.contains([1, 1, 4])  # on the span, outside the hexagon
        for u, a in P.facets:
            tight = [v for v in P.vertices if zl.dot(u, v) + a == 0]
            assert len(tight) == 2


class TestLatticePoints:
    def test_pentagon(self):
        pts = lattice_points(hull(PENTAGON))
        assert pts == [[0, 0], [0, 1], [1, 0], [1, 1], [1, 2], [2, 1]]

    def test_hexagon_has_center(self):
        pts = lattice_points(permutohedron(3))
        assert len(pts) == 7
        assert [2, 2, 2] in pts

    def test_permutohedron_4(self):
        assert len(lattice_points(permutohedron(4))) == 38

    def test_segment(self):
        assert lattice_points(hull([[0, 0], [2, 4]])) == [[0, 0], [1, 2], [2, 4]]

    def test_roundtrip_with_hull(self):
        for pts in (PENTAGON, TRIANGLE66, [[0, 0], [2, 4]]):
            P = hull(pts)
            assert hull(lattice_points(P)) == P


class TestVolume:
    def test_pentagon(self):
        assert volume(hull(PENTAGON)) == Fraction(5, 2)

    def test_simplex_and_square(self):
        assert volume(simplex(2)) == Fraction(1, 2)
        square = hull([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert volume(square) == 1
        assert normalized_volume(square) == 2

    def test_lower_dimensional_is_zero(self):
        assert volume(hull([[0, 0], [2, 4]])) == 0
        assert normalized_volume(hull([[0, 0], [2, 4]])) == 2

    def test_point(self):
        assert volume(hull([[5, 5]])) == 0
        assert normalized_volume(hull([[5, 5]])) == 1

    def test_unimodular_simplices(self):
        for n in range(1, 5):
            assert normalized_volume(simplex(n)) == 1

    def test_pentagon_normalized(self):
        assert normalized_volume(hull(PENTAGON)) == 5


class TestDilateMinkowski:
    def test_dilate_zero_and_one(self):
        P = hull(PENTAGON)
        assert dilate(P, 0) == hull([[0, 0]])
        assert dilate(P, 1) == P
        with pytest.raises(ValueError):
            dilate(P, -1)

    def test_dilate_matches_hull_of_scaled(self):
        P = hull(PENTAGON)
        assert dilate(P, 3) == hull([zl.vscale(3, v) for v in PENTAGON])

    def test_pentagon_is_triangle_plus_square(self):
        tri = simplex(2)
        square = hull([[0, 0], [1, 0], [0, 1], [1, 1]])
        S = minkowski_sum(tri, square)
        assert S.vertices == [[0, 0], [0, 2], [1, 2], [2, 0], [2, 1]]

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            minkowski_sum(simplex(2), simplex(3))


class TestMixedVolume:
    def test_two_triangles(self):
        # P1 = conv((0,0),(1,0),(0,1),(3,1)), P2 = conv((0,0),(2,1),(0,1))
        P1 = hull([[0, 0], [1, 0], [0, 1], [3, 1]])
        P2 = hull([[0, 0], [2, 1], [0, 1]])
        assert volume(P1) == 2
        assert volume(P2) == 1
        assert volume(minkowski_sum(P1, P2)) == 6
        assert mixed_volume([P1, P2]) == 3

    def test_dilated_simplices(self):
        D = dilate(simplex(2), 2)
        assert mixed_volume([D, D]) == 4
        assert mixed_volume([simplex(2), simplex(2)]) == 1

    def test_equal_arguments_give_scaled_volume(self):
        P = hull(PENTAGON)
        assert mixed_volume([P, P]) == 2 * volume(P)

    def test_count_must_match_dimension(self):
        with pytest.raises(ValueError):
            mixed_volume([simplex(2)])

    def test_segments(self):
        h = hull([[0, 0], [1, 0]])
        v = hull([[0, 0], [0, 1]])
        assert mixed_volume([h, v]) == 1
        assert mixed_volume([h, h]) == 0


class TestEhrhart:
    def test_pentagon(self):
        E = ehrhart(hull(PENTAGON))
        assert E == zl.RationalPolynomial([1, Fraction(5, 2), Fraction(5, 2)])

    def test_unit_square(self):
        E = ehrhart(hull([[0, 0], [1, 0], [0, 1], [1, 1]]))
        assert E == zl.RationalPolynomial([1, 2, 1])

    def test_hexagon(self):
        E = ehrhart(permutohedron(3))
        assert E == zl.RationalPolynomial([1, 3, 3])

    def test_permutohedron_4(self):
        E = ehrhart(permutohedron(4))
        assert E == zl.RationalPolynomial([1, 6, 15, 16])

    def test_point_and_segment(self):
        assert ehrhart(hull([[7, 7]])) == zl.RationalPolynomial([1])
        assert ehrhart(hull([[0, 0], [2, 4]])) == zl.RationalPolynomial([1, 2])

    def test_out_of_sample_counts(self):
        for pts in (PENTAGON, [list(p) for p in permutations((1, 2, 3))]):
            P = hull(pts)
            E = ehrhart(P)
            Q, _ = project_full(P)
            for k in (Q.dim + 1, Q.dim + 2):
                assert E.evaluate(k) == len(lattice_points(dilate(Q, k)))

    def test_structure(self):
        for pts in (PENTAGON, TRIANGLE66):
            E = ehrhart(hull(pts))
            Q, _ = project_full(hull(pts))
            assert E.evaluate(0) == 1
            assert E.coeffs[-1] == volume(Q)


class TestProjectFull:
    def test_identity_on_full_dim(self):
        P = hull(PENTAGON)
        Q, (x0, L) = project_full(P)
        assert Q == P
        assert x0 == [0, 0] and L == zl.identity(2)

    def test_segment(self):
        P = hull([[0, 0], [2, 4]])
        Q, (x0, L) = project_full(P)
        assert Q.ambient_dim == 1 and Q.is_full_dim
        assert len(lattice_points(Q)) == len(lattice_points(P))
        lifted = sorted(zl.vadd(x0, zl.mat_vec(L, y)) for y in lattice_points(Q))
        assert lifted == lattice_points(P)

    def test_hexagon_counts_preserved(self):
        P = permutohedron(3)
        Q, (x0, L) = project_full(P)
        assert Q.ambient_dim == 2
        lifted = sorted(zl.vadd(x0, zl.mat_vec(L, y)) for y in lattice_points(Q))
        assert lifted == lattice_points(P)


class TestFaceInDirection:
    def test_pentagon_edge_and_vertex(self):
        P = hull(PENTAGON)
        F = face_in_direction(P, [1, 0])
        assert F.vertices == [[0, 0], [0, 1]]
        V = face_in_direction(P, [1, 1])
        assert V.vertices == [[0, 0]]

    def test_zero_direction_returns_whole_polytope(self):
        P = hull(PENTAGON)
        assert face_in_direction(P, [0, 0]) == P


class TestPredicates:
    def test_square_and_simplex(self):
        square = hull([[0, 0], [1, 0], [0, 1], [1, 1]])
        for P in (square, simplex(2), simplex(3)):
            assert is_normal(P)
            assert is_very_ample(P)
            assert is_smooth(P)

    def test_nonnormal_simplex(self):
        # empty simplex of normalized volume 2: (1,1,1) lies in 2T but is
        # not a sum of two of the four lattice points of T
        T = hull([[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1]])
        assert lattice_points(T) == sorted(T.vertices)
        assert not is_normal(T)
        assert not is_very_ample(T)
        assert not is_smooth(T)

    def test_right_triangle_not_smooth(self):
        P = hull([[0, 0], [1, 0], [0, 2]])
        assert not is_smooth(P)
        assert is_normal(P)  # every lattice polygon is normal

    def test_triangle66_not_smooth(self):
        assert not is_smooth(hull(TRIANGLE66))

    def test_permutohedron_4_smooth_and_normal(self):
        P = permutohedron(4)
        assert is_smooth(P)
        assert is_normal(P)
        assert is_very_ample(P)

    def test_low_dimensional(self):
        assert is_normal(hull([[0, 0], [2, 4]]))
        assert is_smooth(hull([[0, 0], [2, 4]]))
        assert is_normal(hull([[9]]))


class TestNewton:
    def test_newton_polytope(self):
        # supp(x^2 y + x y^2 + 1)
        P = hull([[2, 1], [1, 2], [0, 0]])
        assert P.vertices == [[0, 0], [1, 2], [2, 1]]


coord = st.integers(min_value=-3, max_value=3)
point2 = st.lists(coord, min_size=2, max_size=2)
polygon_points = st.lists(point2, min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(polygon_points)
def test_hull_lattice_point_roundtrip(pts):
    P = hull(pts)
    assert hull(lattice_points(P)) == P
    for p in pts:
        assert P.contains(p)


@settings(max_examples=25, deadline=None)
@given(polygon_points)
def test_ehrhart_predicts_next_dilate(pts):
    P = hull(pts)
    Q, _ = project_full(P)
    E = ehrhart(P)
    k = Q.dim + 1
    assert E.evaluate(k) == len(lattice_points(dilate(Q, k)))


@settings(max_examples=20, deadline=None)
@given(polygon_points, polygon_points, polygon_points)
def test_mixed_volume_symmetry_and_multilinearity(a, b, c):
    P, Q, R = hull(a), hull(b), hull(c)
    assert mixed_volume([P, Q]) == mixed_volume([Q, P])
    assert (mixed_volume([minkowski_sum(P, Q), R])
            == mixed_volume([P, R]) + mixed_volume([Q, R]))


@settings(max_examples=25, deadline=None)
@given(polygon_points)
def test_dilate_consistency(pts):
    P = hull(pts)
    D = dilate(P, 2)
    doubled = {tuple(zl.vscale(2, p)) for p in lattice_points(P)}
    assert doubled <= {tuple(p) for p in lattice_points(D)}
    assert volume(D) == 4 * volume(P)
