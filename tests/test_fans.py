"""Tests for fans and toric morphism combinatorics."""

import random

import pytest
from conftest import rebuilt_all_cones

from toric_kernel import cones as cn
from toric_kernel import zlattice as zl
from toric_kernel.polytopes import dilate, hull
from toric_kernel.fans import (
    Fan,
    chart_transition,
    cone_containing_relint,
    fan,
    has_torus_factor,
    image_cone,
    is_compatible,
    is_complete,
    is_refinement,
    is_simplicial,
    is_smooth,
    normal_fan,
    orbit_table,
    product_fan,
    star_quotient_fan,
    star_subdivision,
)


def fan_p2():
    return fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [0, 2], [1, 2]], 2)


def fan_p1():
    return fan([[1], [-1]], [[0], [1]], 1)


def fan_p1p1():
    return fan([[1, 0], [-1, 0], [0, 1], [0, -1]],
               [[0, 2], [0, 3], [1, 2], [1, 3]], 2)


def fan_quadrant():
    return fan([[1, 0], [0, 1]], [[0, 1]], 2)


def fan_blowup():
    return fan([[1, 0], [0, 1], [1, 1]], [[0, 2], [1, 2]], 2)


def fan_chiaramara():
    return fan([[1, 2], [1, 0], [-3, -2], [0, 1]],
               [[0, 1], [1, 2], [2, 3], [0, 3]], 2)


def fan_hirzebruch2():
    return fan([[1, 0], [0, 1], [-1, 2], [0, -1]],
               [[0, 1], [1, 2], [2, 3], [0, 3]], 2)


class TestConstruction:
    def test_p2_valid(self):
        F = fan_p2()
        assert F.ambient_dim == 2
        assert len(F.rays) == 3
        assert len(F.faces()) == 7

    def test_rays_primitivized_and_deduplicated(self):
        F = fan([[2, 0], [0, 3], [-1, -1], [1, 0]],
                [[0, 1], [0, 2], [1, 2], [3, 1]], 2)
        assert F.rays == [[1, 0], [0, 1], [-1, -1]]
        assert len(F.maximal_cones) == 3

    def test_overlapping_cones_rejected(self):
        with pytest.raises(ValueError, match="maximal cones 1 and 2"):
            fan([[1, 0], [1, 2], [1, 1], [0, 1]], [[0, 1], [2, 3]], 2)

    def test_zero_cone_fan(self):
        F = fan([], [[]], 2)
        assert F.maximal_cones == [()]
        assert not is_complete(F)
        assert has_torus_factor(F)

    def test_nested_cones_rejected(self):
        with pytest.raises(ValueError, match="nested"):
            fan([[1, 0], [0, 1]], [[0, 1], [0]], 2)

    def test_non_pointed_rejected(self):
        with pytest.raises(ValueError, match="pointed"):
            fan([[1, 0], [-1, 0]], [[0, 1]], 2)

    def test_non_extremal_generator_rejected(self):
        with pytest.raises(ValueError, match="non-extremal"):
            fan([[1, 0], [0, 1], [1, 1]], [[0, 1, 2]], 2)

    def test_unused_ray_rejected(self):
        # rays 2 and 3 are unused; the message names the lowest
        with pytest.raises(ValueError) as err:
            fan([[1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 3]], 2)
        assert str(err.value) == "ray 2 is not used by any maximal cone"

    def test_bad_index(self):
        with pytest.raises(ValueError, match="out of range"):
            fan([[1, 0]], [[0, 5]], 2)

    def test_cone_of(self):
        F = fan_p2()
        c = F.cone_of((0, 1))
        assert c.contains([1, 1])
        with pytest.raises(ValueError):
            F.cone_of((0, 1, 2))
        with pytest.raises(ValueError, match="do not name a cone"):
            F.cone_of((0, 3))  # ray 3 is out of range
        with pytest.raises(ValueError, match="do not name a cone"):
            F.cone_of((0, -1))  # so is ray -1, not the last ray
        with pytest.raises(ValueError, match="do not name a cone"):
            F.cone_of((1, 1))


class TestNormalFan:
    def test_simplex_gives_p2(self):
        assert normal_fan(hull([[0, 0], [1, 0], [0, 1]])) == fan_p2()

    def test_square_gives_p1p1(self):
        square = hull([[0, 0], [1, 0], [0, 1], [1, 1]])
        assert normal_fan(square) == fan_p1p1()

    def test_pentagon(self):
        P = hull([[0, 0], [1, 0], [0, 1], [2, 1], [1, 2]])
        F = normal_fan(P)
        assert len(F.maximal_cones) == 5
        assert is_complete(F)
        assert all(c.dim == 2 for c in (F.max_cone(i) for i in range(5)))

    def test_chiaramara_polygon(self):
        P = hull([[0, 15], [0, 1], [2, 0], [10, 0]])
        F = normal_fan(P)
        assert sorted(map(tuple, F.rays)) == [(-3, -2), (0, 1), (1, 0), (1, 2)]
        assert F == fan_chiaramara()

    def test_lower_dimensional_rejected(self):
        with pytest.raises(ValueError):
            normal_fan(hull([[0, 0], [2, 4]]))

    def test_dilation_translation_invariance(self):
        P = hull([[0, 0], [1, 0], [0, 1], [2, 1], [1, 2]])
        F = normal_fan(P)
        for k in (1, 2, 3):
            assert normal_fan(dilate(P, k)) == F
        for shift in ([3, -1], [-2, 5]):
            moved = hull([zl.vadd(v, shift) for v in P.vertices])
            assert normal_fan(moved) == F


class TestPredicates:
    def test_p1p1(self):
        F = fan_p1p1()
        assert is_smooth(F) and is_simplicial(F) and is_complete(F)

    def test_blowup(self):
        F = fan_blowup()
        assert is_smooth(F)
        assert not is_complete(F)

    def test_chiaramara(self):
        F = fan_chiaramara()
        assert is_complete(F)
        assert is_simplicial(F)
        assert not is_smooth(F)
        smooth_charts = [F.max_cone(i).is_smooth for i in range(4)]
        assert smooth_charts.count(True) == 1

    def test_hirzebruch_smooth(self):
        assert is_smooth(fan_hirzebruch2())
        assert is_complete(fan_hirzebruch2())

    def test_torus_factor(self):
        assert has_torus_factor(fan([[1, 0]], [[0]], 2))
        assert not has_torus_factor(fan_p2())
        assert not has_torus_factor(fan_chiaramara())


class TestStarSubdivision:
    def test_quadrant_to_blowup(self):
        assert star_subdivision(fan_quadrant(), 0) == fan_blowup()

    def test_octant(self):
        F = fan([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]], 3)
        S = star_subdivision(F, 0)
        assert len(S.maximal_cones) == 3
        assert [1, 1, 1] in S.rays
        assert all(S.max_cone(i).contains([1, 1, 1]) for i in range(3))
        assert is_refinement(S, F)
        assert is_smooth(S)

    def test_p2_blowup_stays_complete(self):
        S = star_subdivision(fan_p2(), 0)
        assert len(S.maximal_cones) == 4
        assert is_complete(S) and is_smooth(S)
        assert is_refinement(S, fan_p2())

    def test_rejects_singular_cone(self):
        F = fan([[1, 0], [1, 2]], [[0, 1]], 2)
        with pytest.raises(ValueError):
            star_subdivision(F, 0)

    def test_rejects_low_dimensional_cone(self):
        F = fan([[1, 0]], [[0]], 2)
        with pytest.raises(ValueError):
            star_subdivision(F, 0)

    @pytest.mark.parametrize("index", [-1, 4, 7])
    def test_cone_index_out_of_range(self, index):
        # -1 used to subdivide the last cone and keep it in the fan
        with pytest.raises(zl.IndexOutOfRangeError, match="maximal cone index"):
            star_subdivision(fan_p1p1(), index)

    def test_rejects_the_zero_cone(self):
        with pytest.raises(ValueError, match="positive dimension"):
            star_subdivision(fan([], [[]], 0), 0)


class TestProduct:
    def test_p1_times_p1(self):
        assert product_fan(fan_p1(), fan_p1()) == fan_p1p1()

    def test_torus_factor_product(self):
        F = product_fan(fan_p2(), fan([], [[]], 1))
        assert F.ambient_dim == 3
        assert has_torus_factor(F)
        assert len(F.maximal_cones) == 3

    def test_prism_normal_fan_is_product(self):
        tri = hull([[0, 0], [1, 0], [0, 1]])
        prism = hull([list(v) + [z] for v in tri.vertices for z in (0, 1)])
        seg = hull([[0], [1]])
        assert normal_fan(prism) == product_fan(normal_fan(tri), normal_fan(seg))


class TestRelintLocation:
    def test_p1p1_cases(self):
        F = fan_p1p1()
        quadrant = cone_containing_relint(F, [2, 3])
        assert {tuple(F.rays[i]) for i in quadrant} == {(1, 0), (0, 1)}
        assert cone_containing_relint(F, [0, 0]) == ()
        on_ray = cone_containing_relint(F, [5, 0])
        assert [F.rays[i] for i in on_ray] == [[1, 0]]

    def test_outside_support(self):
        assert cone_containing_relint(fan_blowup(), [-1, 5]) is None
        assert cone_containing_relint(fan_blowup(), [3, 1]) is not None

    def test_partition_on_complete_fans(self):
        rng = random.Random(7)
        for F in (fan_p2(), fan_chiaramara()):
            cones = rebuilt_all_cones(F)
            for _ in range(100):
                u = [rng.randint(-9, 9), rng.randint(-9, 9)]
                hits = [I for I, c in cones.items() if c.contains_in_relint(u)]
                assert len(hits) == 1
                assert cone_containing_relint(F, u) == hits[0]


class TestStarQuotient:
    def test_blowup_exceptional_ray(self):
        B = fan_blowup()
        V, pi = star_quotient_fan(B, (2,))
        assert V.ambient_dim == 1
        assert is_complete(V)
        assert zl.mat_vec(pi, [1, 1]) == [0]

    def test_p2_ray(self):
        V, pi = star_quotient_fan(fan_p2(), (0,))
        assert V.ambient_dim == 1
        assert is_complete(V)
        assert zl.mat_vec(pi, [1, 0]) == [0]

    def test_zero_cone_returns_same_fan(self):
        F = fan_p2()
        V, pi = star_quotient_fan(F, ())
        assert V == F
        assert pi == zl.identity(2)

    def test_full_dimensional_cone(self):
        V, _ = star_quotient_fan(fan_p2(), (0, 1))
        assert V.ambient_dim == 0
        assert V.maximal_cones == [()]

    def test_not_a_cone(self):
        with pytest.raises(ValueError):
            star_quotient_fan(fan_p2(), (0, 1, 2))


class TestOrbits:
    def test_p1p1_has_nine(self):
        table = orbit_table(fan_p1p1())
        assert len(table) == 9
        dims = sorted(entry[1] for entry in table)
        assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 2]

    def test_p2_has_seven(self):
        assert len(orbit_table(fan_p2())) == 7

    def test_torus_fan(self):
        table = orbit_table(fan([], [[]], 2))
        assert table == [((), 2, [()])]

    def test_closure_is_reversed_face_order(self):
        table = orbit_table(fan_p2())
        by_cone = {I: closure for I, _, closure in table}
        assert by_cone[()] == sorted(by_cone, key=lambda J: (len(J), J))
        assert by_cone[(0,)] == [(0,), (0, 1), (0, 2)]
        assert by_cone[(0, 1)] == [(0, 1)]


class TestCompatibility:
    def test_hirzebruch_projection(self):
        H = fan_hirzebruch2()
        P1 = fan_p1()
        assert is_compatible([[1, 0]], H, P1)
        assert not is_compatible([[0, 1]], H, P1)

    def test_identity_on_refinement(self):
        assert is_compatible(zl.identity(2), fan_blowup(), fan_quadrant())
        assert not is_compatible(zl.identity(2), fan_quadrant(), fan_blowup())

    def test_image_cones_exist_when_compatible(self):
        H = fan_hirzebruch2()
        P1 = fan_p1()
        for I in H.maximal_cones:
            assert image_cone([[1, 0]], P1, H.cone_of(I)) is not None

    def test_image_cone_values(self):
        H = fan_hirzebruch2()
        P1 = fan_p1()
        quadrant = H.cone_of((0, 1))
        ixs = image_cone([[1, 0]], P1, quadrant)
        assert [P1.rays[i] for i in ixs] == [[1]]
        left = H.cone_of((1, 2))
        ixs = image_cone([[1, 0]], P1, left)
        assert [P1.rays[i] for i in ixs] == [[-1]]
        vertical = H.cone_of((1,))
        assert image_cone([[1, 0]], P1, vertical) == ()

    def test_image_cone_absent(self):
        H = fan_hirzebruch2()
        yellow = H.cone_of((2, 3))
        assert image_cone([[0, 1]], fan_p1(), yellow) is None

    def test_shape_check(self):
        with pytest.raises(ValueError):
            is_compatible([[1, 0, 0]], fan_hirzebruch2(), fan_p1())

    def test_map_into_the_zero_lattice(self):
        # the 0-row map sends every cone to 0, which is the zero cone
        point = fan([], [()], 0)
        H = fan_hirzebruch2()
        assert is_compatible([], H, point)
        for I in H.maximal_cones:
            assert image_cone([], point, H.cone_of(I)) == ()



class TestRefinement:
    def test_basic(self):
        assert is_refinement(fan_blowup(), fan_quadrant())
        assert not is_refinement(fan_quadrant(), fan_blowup())
        assert is_refinement(fan_p2(), fan_p2())

    def test_different_supports(self):
        assert not is_refinement(fan([], [[]], 2), fan_quadrant())
        assert not is_refinement(fan_blowup(), fan_p2())

    def test_incomparable_complete_fans(self):
        assert not is_refinement(fan_p2(), fan_p1p1())
        assert not is_refinement(fan_p1p1(), fan_p2())

    def test_subdivision_refines(self):
        F = fan_chiaramara()
        S = star_subdivision(F, 3)  # the smooth chart
        assert is_refinement(S, F)


class TestChartTransition:
    def test_quadric_cone_charts(self):
        # the two singular quadric charts glue by (x,y,z) -> (1/x, y/x^2, z/x^2)
        F = fan_chiaramara()
        m, rows = chart_transition(F, 0, 1)
        assert m == [0, 1]
        assert cn.dual_semigroup_generators(F.max_cone(0)) == [[0, 1], [1, 0], [2, -1]]
        assert cn.dual_semigroup_generators(F.max_cone(1)) == [[0, -1], [1, -2], [2, -3]]
        assert rows == [[0, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 2]]

    def test_p2_charts(self):
        # from the chart of Cone(e1,e2) to the chart of Cone(e1,-e1-e2):
        # v1 -> t2^-1 and v2 -> t1 t2^-1
        F = fan_p2()
        m, rows = chart_transition(F, 0, 1)
        assert m == [0, 1]
        assert cn.dual_semigroup_generators(F.max_cone(0)) == [[0, 1], [1, 0]]
        assert rows == [[0, 0, 1], [0, 1, 1]]

    def test_identity(self):
        F = fan_chiaramara()
        m, rows = chart_transition(F, 2, 2)
        assert m == [0, 0]
        k = len(rows)
        assert rows == [[int(i == j) for j in range(k)] + [0] for i in range(k)]

    def test_rows_are_exponent_identities(self):
        # chi^h must equal the product of chart generators and chi^-m
        # with the reported exponents, as an identity of characters
        F = fan_chiaramara()
        for i in range(4):
            for j in range(4):
                m, rows = chart_transition(F, i, j)
                g1 = cn.dual_semigroup_generators(F.max_cone(i))
                g2 = cn.dual_semigroup_generators(F.max_cone(j))
                for h, row in zip(g2, rows):
                    acc = zl.vscale(-row[-1], m)
                    for c, g in zip(row[:-1], g1):
                        acc = zl.vadd(acc, zl.vscale(c, g))
                    assert acc == h

    @pytest.mark.parametrize("index1, index2", [(0, -1), (0, 4), (-1, 0), (5, 0)])
    def test_cone_index_out_of_range(self, index1, index2):
        with pytest.raises(zl.IndexOutOfRangeError, match="maximal cone index"):
            chart_transition(fan_chiaramara(), index1, index2)

    def test_chart_with_torus_factor(self):
        F = fan([[1, 0]], [[0]], 2)
        m, rows = chart_transition(F, 0, 0)
        assert m == [0, 0]
        gens = cn.dual_semigroup_generators(F.max_cone(0))
        assert sorted(map(tuple, gens)) == [(0, -1), (0, 1), (1, 0)]
        for g, row in zip(gens, rows):
            assert row[-1] == 0

    def test_dual_semigroup_data_is_built_once_per_transition(self, monkeypatch):
        # one Hilbert basis each for dual(s2), the rows' decompositions
        # over dual(s1) and separating_character's search, however many
        # rows there are
        F = normal_fan(hull([[0, 0, 0], [2, 0, 0], [0, 3, 0], [0, 0, 2],
                             [1, 1, 1], [2, 3, 2]]))
        calls = []
        hilbert_basis = cn.hilbert_basis

        def spy(C):
            calls.append(C)
            return hilbert_basis(C)

        monkeypatch.setattr(cn, "hilbert_basis", spy)
        m, rows = chart_transition(F, 0, 1)
        assert len(rows) == 9
        assert len(calls) <= 3

    def test_rows_match_one_decomposition_per_row(self):
        rng = random.Random(20261018)
        fans = 0
        while fans < 12:
            d = rng.randint(2, 3)
            P = hull([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d + 3)])
            if not P.is_full_dim:
                continue
            F = normal_fan(P)
            k = len(F.maximal_cones)
            for _ in range(3):
                i, j = rng.randrange(k), rng.randrange(k)
                assert chart_transition(F, i, j) == chart_transition_per_row(F, i, j)
            fans += 1


def chart_transition_per_row(F, index1, index2):
    """chart_transition as it was before the rows shared the first
    cone's dual semigroup data: one dual_semigroup_decompose per row."""
    s1 = F.max_cone(index1)
    s2 = F.max_cone(index2)
    m = cn.separating_character(s1, s2)
    rows = []
    for h in cn.dual_semigroup_generators(s2):
        c = 0
        for g in s1.generators:
            mg = zl.dot(m, g)
            hg = zl.dot(h, g)
            if mg > 0 and hg < 0:
                c = max(c, (-hg + mg - 1) // mg)
        coeffs = cn.dual_semigroup_decompose(s1, zl.vadd(h, zl.vscale(c, m)))
        if coeffs is None:
            raise AssertionError("transition monomial escaped the source chart")
        rows.append(list(coeffs) + [c])
    return m, rows
