"""Divisors on fans: classes, Cartier data, sections, polytope duality."""

import random
import warnings
from math import gcd, inf, lcm

import pytest
from conftest import pivot_snf, snf_kernel, spy_hnf, within
from hypothesis import given, settings, strategies as st

from toric_kernel import cones as cn
from toric_kernel import divisors as dv
from toric_kernel import fans as fn
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl


P2 = fn.fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]], 2)
P1P1 = fn.fan([[1, 0], [0, 1], [-1, 0], [0, -1]],
              [[0, 1], [1, 2], [2, 3], [0, 3]], 2)
HIRZ2 = fn.fan([[1, 0], [0, 1], [-1, 2], [0, -1]],
               [[0, 1], [1, 2], [2, 3], [0, 3]], 2)
DIAMOND = fn.fan([[1, 1], [-1, 1], [-1, -1], [1, -1]],
                 [[0, 1], [1, 2], [2, 3], [0, 3]], 2)
# complete simplicial surface fan whose third ray needs a multiple of 6
TILTED = fn.fan([[1, 2], [1, 0], [-3, -2], [0, 1]],
                 [[0, 1], [1, 2], [2, 3], [0, 3]], 2)
WEDGE = fn.fan([[-1, -2], [1, 0]], [[0, 1]], 2)
WEDGE_RAYS = fn.fan([[-1, -2], [1, 0]], [[0], [1]], 2)
P3 = fn.fan([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
            [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], 3)
SMOOTH_FANS = [P2, P1P1, HIRZ2]
ALL_FANS = SMOOTH_FANS + [DIAMOND, TILTED, WEDGE, WEDGE_RAYS]


def D(F, *coeffs):
    return dv.divisor(F, list(coeffs))


class TestDivisorArithmetic:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            dv.divisor(P2, [1, 2])

    def test_ring_ops(self):
        a = D(P2, 1, 2, 3)
        b = D(P2, 0, -1, 1)
        assert (a + b).coeffs == [1, 1, 4]
        assert (a - b).coeffs == [1, 3, 2]
        assert (2 * a).coeffs == [2, 4, 6]
        assert (-a).coeffs == [-1, -2, -3]

    def test_mixed_fans_rejected(self):
        with pytest.raises(ValueError):
            D(P2, 1, 0, 0) + dv.divisor(P1P1, [1, 0, 0, 0])

    def test_ray_divisor(self):
        assert dv.ray_divisor(P1P1, 3).coeffs == [0, 0, 0, 1]
        with pytest.raises(IndexError):
            dv.ray_divisor(P1P1, 4)


class TestPrincipalDivisor:
    def test_zero_character(self):
        assert dv.principal_divisor(P2, [0, 0]).coeffs == [0, 0, 0]

    def test_projective_plane(self):
        d1_minus_d3 = dv.ray_divisor(P2, 0) - dv.ray_divisor(P2, 2)
        assert dv.principal_divisor(P2, [1, 0]) == d1_minus_d3

    def test_hirzebruch_second_coordinate(self):
        assert dv.principal_divisor(HIRZ2, [0, 1]).coeffs == [0, 1, 2, -1]

    def test_length_checked(self):
        with pytest.raises(ValueError):
            dv.principal_divisor(P2, [1, 0, 0])


class TestClassGroup:
    def test_projective_plane(self):
        pres, class_of = dv.class_group(P2)
        assert pres == zl.AbelianGroupPresentation(1)
        d1, d2, d3 = (class_of(dv.ray_divisor(P2, i)) for i in range(3))
        assert d1 == d2 == d3 and not d1.is_zero
        total = class_of(D(P2, 1, 1, 1))
        assert total.coords == [3 * c for c in d3.coords]

    def test_product_of_lines(self):
        pres, class_of = dv.class_group(P1P1)
        assert pres == zl.AbelianGroupPresentation(2)
        cls = [class_of(dv.ray_divisor(P1P1, i)) for i in range(4)]
        assert cls[0] == cls[2] and cls[1] == cls[3]
        assert cls[0] != cls[1]

    def test_diamond_has_torsion(self):
        pres, _ = dv.class_group(DIAMOND)
        assert pres == zl.AbelianGroupPresentation(2, (2,))

    def test_quarter_fan(self):
        pres, _ = dv.class_group(TILTED)
        assert pres == zl.AbelianGroupPresentation(2)

    def test_wedge_torsion_only(self):
        for F in (WEDGE, WEDGE_RAYS):
            pres, class_of = dv.class_group(F)
            assert pres == zl.AbelianGroupPresentation(0, (2,))
            assert class_of(dv.ray_divisor(F, 0)).coords == [1]

    def test_foreign_divisor_rejected(self):
        _, class_of = dv.class_group(P2)
        with pytest.raises(ValueError):
            class_of(dv.divisor(P1P1, [1, 0, 0, 0]))

    def test_torus_factor_warns(self):
        half = fn.fan([[1, 0]], [[0]], 2)
        with pytest.warns(UserWarning):
            dv.class_group(half)

    def test_principal_classes_vanish(self):
        rng = random.Random(3)
        for F in ALL_FANS:
            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                _, class_of = dv.class_group(F)
            for _ in range(50):
                m = [rng.randrange(-9, 10) for _ in range(F.ambient_dim)]
                assert class_of(dv.principal_divisor(F, m)).is_zero


def check_cartier_data(F, coeffs, data):
    for I, m in zip(F.maximal_cones, data.characters):
        for i in I:
            assert zl.dot(F.rays[i], m) == -coeffs[i]
    for a in range(len(F.maximal_cones)):
        for b in range(a + 1, len(F.maximal_cones)):
            tau = cn.intersect(F.max_cone(a), F.max_cone(b))
            diff = zl.vsub(data.characters[a], data.characters[b])
            for g in tau.generators:
                assert zl.dot(g, diff) == 0


class TestCartier:
    def test_zero_divisor(self):
        data = dv.is_cartier(D(P2, 0, 0, 0))
        assert data and data.characters == [[0, 0]] * 3

    def test_quarter_fan_third_ray(self):
        res = dv.is_cartier(dv.ray_divisor(TILTED, 2))
        assert not res
        assert res.cone_index == 1

    def test_sixth_multiple_is_cartier(self):
        d3 = dv.ray_divisor(TILTED, 2)
        data = dv.is_cartier(6 * d3)
        assert data
        check_cartier_data(TILTED, (6 * d3).coeffs, data)

    def test_smooth_fans_all_cartier(self):
        rng = random.Random(11)
        for F in SMOOTH_FANS:
            for _ in range(50):
                coeffs = [rng.randrange(-9, 10) for _ in F.rays]
                data = dv.is_cartier(dv.divisor(F, coeffs))
                assert data
                check_cartier_data(F, coeffs, data)

    def test_principal_always_cartier(self):
        data = dv.is_cartier(dv.principal_divisor(TILTED, [3, -2]))
        assert data
        # the same character works on every cone
        assert data.characters == [[-3, 2]] * 4


class TestFanWithoutRays:
    """The torus: one maximal cone with no rays, whose local system still
    has the n unknowns of a character."""
    TORUS = fn.fan([], [[]], 2)

    def test_cartier_with_the_zero_character(self):
        data = dv.is_cartier(dv.divisor(self.TORUS, []))
        assert data and data.characters == [[0, 0]]

    def test_minimal_multiple_is_one(self):
        assert dv.minimal_cartier_multiple(dv.divisor(self.TORUS, [])) == 1

    def test_linearly_equivalent_to_itself(self):
        d = dv.divisor(self.TORUS, [])
        assert dv.linearly_equivalent(d, d) == [0, 0]


class TestMinimalCartierMultiple:
    def test_quarter_fan(self):
        assert dv.minimal_cartier_multiple(dv.ray_divisor(TILTED, 2)) == 6

    def test_cartier_gives_one(self):
        assert dv.minimal_cartier_multiple(D(P2, 0, 0, 0)) == 1
        assert dv.minimal_cartier_multiple(
            dv.principal_divisor(TILTED, [1, 4])) == 1

    def test_diamond(self):
        d12 = dv.ray_divisor(DIAMOND, 0) + dv.ray_divisor(DIAMOND, 1)
        assert dv.minimal_cartier_multiple(d12) == 2

    def test_divides_every_working_multiple(self):
        d3 = dv.ray_divisor(TILTED, 2)
        mult = dv.minimal_cartier_multiple(d3)
        for ell in range(1, 13):
            works = bool(dv.is_cartier(ell * d3))
            assert works == (ell % mult == 0)

    def test_infinite_for_nonsimplicial(self):
        pyramid = fn.fan([[1, 1, 1], [-1, 1, 1], [-1, -1, 1], [1, -1, 1]],
                         [[0, 1, 2, 3]], 3)
        assert dv.minimal_cartier_multiple(dv.ray_divisor(pyramid, 0)) == inf
        assert not dv.is_cartier(dv.ray_divisor(pyramid, 0))


def old_minimal_cartier_multiple(D):
    """The Smith-diagonal walk that minimal_cartier_multiple replaced,
    kept verbatim as a differential oracle."""
    F = D.fan
    total = 1
    for I in F.maximal_cones:
        U = [list(F.rays[i]) for i in I]
        b = [-D.coeffs[i] for i in I]
        S, P, _ = pivot_snf(U)
        c = zl.mat_vec(P, b)
        rows, cols = zl.shape(U)
        for i in range(rows):
            d = S[i][i] if i < cols else 0
            if d == 0:
                if c[i] != 0:
                    return inf
            elif c[i] != 0:
                total = lcm(total, d // gcd(d, c[i]))
    return total


class TestMinimalCartierMultipleAgainstSmithWalk:
    def test_matches_old_walk_on_random_normal_fans(self):
        rng = random.Random(20261111)
        found = []
        for _ in range(60):
            n = rng.choice([2, 3, 3])
            F = random_normal_fan(rng, n, rng.randint(n + 1, 7), 6 - n)
            for _ in range(5):
                d = dv.divisor(F, [rng.randint(-4, 4) for _ in F.rays])
                expected = old_minimal_cartier_multiple(d)
                assert dv.minimal_cartier_multiple(d) == expected, (F.rays, d.coeffs)
                found.append(expected)
        # the draw reaches all three outcomes, not just Cartier divisors
        assert sum(1 for m in found if m == inf) >= 30
        assert sum(1 for m in found if m != inf and m > 1) >= 30
        assert 1 in found


class TestPicardGroup:
    @pytest.mark.parametrize("F", [P2, P3])
    def test_one_hnf_for_the_ray_columns(self, monkeypatch, F):
        # one for the kernel of the Cartier system and one for its basis;
        # the n solves of the ray columns run on that basis, which is a
        # column HNF already
        calls = spy_hnf(monkeypatch)
        dv.picard_group(F)
        assert len(calls) == 2

    def test_affine_wedge_trivial(self):
        assert dv.picard_group(WEDGE) == zl.AbelianGroupPresentation(0)

    def test_wedge_without_top_cone(self):
        assert dv.picard_group(WEDGE_RAYS) == zl.AbelianGroupPresentation(0, (2,))

    def test_smooth_matches_class_group(self):
        for F in SMOOTH_FANS:
            assert dv.picard_group(F) == dv.class_group(F)[0]

    def test_diamond_torsion_free(self):
        # Cl has a Z/2 factor but no Cartier divisor reaches it
        assert dv.picard_group(DIAMOND) == zl.AbelianGroupPresentation(2)

    def test_quarter_fan(self):
        assert dv.picard_group(TILTED) == zl.AbelianGroupPresentation(2)


def old_picard_group(F):
    """The per-cone cokernel construction that picard_group replaced,
    kept verbatim as a differential oracle."""
    dv._warn_torus_factor(F)
    k = len(F.rays)
    constraints = []          # (row vector in Z^k, invariant factor or None)
    for I in F.maximal_cones:
        U = [list(F.rays[i]) for i in I]
        pres, proj = zl.cokernel(U)
        for r, row in enumerate(proj):
            full = [0] * k
            for pos, i in enumerate(I):
                full[i] = row[pos]
            if r < pres.free_rank:
                constraints.append((full, None))
            else:
                constraints.append((full, pres.invariant_factors[r - pres.free_rank]))
    if constraints:
        naux = sum(1 for _, d in constraints if d is not None)
        W, t = [], 0
        for vec, d in constraints:
            row = vec + [0] * naux
            if d is not None:
                row[k + t] = -d
                t += 1
            W.append(row)
        K = snf_kernel(W)
        gens = [K[i] for i in range(k)]
    else:
        gens = zl.identity(k)
    H, _ = zl.hnf(gens)
    basis_cols = [c for c in zl.columns(H) if any(c)]
    if not basis_cols:
        return zl.AbelianGroupPresentation(0)
    B = zl.from_columns(basis_cols, rows=k)
    coords = []
    for c in zl.columns(dv._ray_matrix(F)):
        x = zl.solve_integer(B, c)
        assert x is not None, "principal divisors must be Cartier"
        coords.append(x)
    X = zl.from_columns(coords, rows=len(basis_cols))
    return zl.cokernel(X)[0]


def random_normal_fan(rng, n, npoints, box):
    while True:
        P = pt.hull([[rng.randint(-box, box) for _ in range(n)]
                     for _ in range(npoints)])
        if P.is_full_dim:
            return fn.normal_fan(P)


def fan_of(F, cones):
    """The fan of some cones of F, given as ray-index tuples."""
    used = sorted({i for I in cones for i in I})
    pos = {i: j for j, i in enumerate(used)}
    return fn.fan([F.rays[i] for i in used],
                  [[pos[i] for i in I] for I in cones], F.ambient_dim)


def random_subfan(rng, F):
    m = len(F.maximal_cones)
    keep = sorted(rng.sample(range(m), rng.randint(1, m - 1)))
    return fan_of(F, [F.maximal_cones[j] for j in keep])


def random_skeleton(rng, F):
    """A fan of some random cones of dimension at most 2 of F."""
    faces = [I for I, d in F.faces().items() if 1 <= d <= 2]
    chosen = rng.sample(faces, rng.randint(1, min(6, len(faces))))
    return fan_of(F, [I for I in chosen
                      if not any(set(I) < set(J) for J in chosen)])


def random_star_subdivision(rng, F, steps):
    for _ in range(steps):
        smooth = [j for j, c in enumerate(F._max_objs)
                  if c.dim == F.ambient_dim and c.is_smooth]
        if not smooth:
            break
        F = fn.star_subdivision(F, rng.choice(smooth))
    return F


def picard_oracle_fans():
    """At least 200 seeded fans: normal fans of polygons and 3-polytopes,
    subfans with maximal cones dropped, star subdivisions of smooth and
    of normal fans, the torsion fans of this module, fans of low
    dimensional cones (where Pic has torsion) and polygon fans placed in
    Z^3 (with a torus factor)."""
    rng = random.Random(20261107)
    fans = [WEDGE_RAYS, DIAMOND, TILTED]
    for _ in range(50):
        fans.append(random_normal_fan(rng, 2, rng.randint(3, 7), 4))
    for _ in range(40):
        fans.append(random_normal_fan(rng, 3, rng.randint(4, 7), 2))
    for _ in range(40):
        n = rng.choice([2, 3])
        F = random_normal_fan(rng, n, rng.randint(n + 1, 6), 6 - n)
        fans.append(random_subfan(rng, F))
    for _ in range(40):
        F = rng.choice([P2, P1P1, HIRZ2, P3, rng.choice(fans[3:93])])
        fans.append(random_star_subdivision(rng, F, rng.randint(1, 3)))
    for _ in range(30):
        F = random_star_subdivision(rng, rng.choice([P2, P1P1, HIRZ2, P3]), 2)
        fans.append(random_subfan(rng, F))
    for _ in range(30):
        fans.append(random_skeleton(rng, random_normal_fan(rng, 3, 6, 3)))
    for _ in range(10):
        F = random_normal_fan(rng, 2, rng.randint(3, 6), 3)
        fans.append(fn.fan([list(r) + [0] for r in F.rays], F.maximal_cones, 3))
    return fans


class TestPicardGroupAgainstCokernelChain:
    def test_matches_old_construction(self):
        fans = picard_oracle_fans()
        assert len(fans) >= 200
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for F in fans:
                assert dv.picard_group(F) == old_picard_group(F), (F.rays, F.maximal_cones)

    def test_thirty_ray_normal_fan_within_budget(self):
        rng = random.Random(20)
        P = pt.hull([[rng.randint(-6, 6) for _ in range(3)] for _ in range(25)])
        F = fn.normal_fan(P)
        assert (len(F.rays), len(F.maximal_cones)) == (30, 19)
        with within(1):
            pic = dv.picard_group(F)
        # old_picard_group gives the same group after about ten minutes
        assert pic == zl.AbelianGroupPresentation(1)


class TestDivisorPolyhedron:
    def test_twice_third_ray_on_plane(self):
        poly = dv.divisor_polyhedron(2 * dv.ray_divisor(P2, 2))
        assert poly.facets == [([1, 0], 0), ([0, 1], 0), ([-1, -1], 2)]
        assert poly.bounded
        assert poly.lattice_points == [[0, 0], [0, 1], [0, 2],
                                       [1, 0], [1, 1], [2, 0]]

    def test_fractional_vertices(self):
        d12 = dv.ray_divisor(DIAMOND, 0) + dv.ray_divisor(DIAMOND, 1)
        poly = dv.divisor_polyhedron(d12)
        assert poly.bounded
        assert poly.lattice_points == [[0, -1], [0, 0]]

    def test_zero_divisor_on_complete_fan(self):
        poly = dv.divisor_polyhedron(D(P1P1, 0, 0, 0, 0))
        assert poly.bounded and poly.lattice_points == [[0, 0]]

    def test_unbounded_on_affine_fan(self):
        poly = dv.divisor_polyhedron(D(WEDGE, 0, 0))
        assert not poly.bounded
        assert poly.lattice_points is None

    def test_empty_polyhedron(self):
        poly = dv.divisor_polyhedron(-1 * dv.ray_divisor(P2, 0))
        assert poly.bounded
        assert poly.lattice_points == []

    def test_keeps_redundant_inequalities(self):
        # every ray contributes an inequality, even a redundant one
        big = D(P2, 5, 0, 0)
        assert len(dv.divisor_polyhedron(big).facets) == 3


class TestGlobalSections:
    def test_plane_conics(self):
        secs = dv.global_sections(2 * dv.ray_divisor(P2, 2))
        assert secs == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [2, 0]]

    def test_translated_twin(self):
        secs = dv.global_sections(2 * dv.ray_divisor(P2, 0))
        assert len(secs) == 6
        assert sorted(zl.vadd(s, [2, 0]) for s in secs) == \
            dv.global_sections(2 * dv.ray_divisor(P2, 2))

    def test_zero_divisor(self):
        assert dv.global_sections(D(P2, 0, 0, 0)) == [[0, 0]]

    def test_unbounded_raises(self):
        with pytest.raises(ValueError):
            dv.global_sections(D(WEDGE, 1, 1))

    @given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
           st.lists(st.integers(-4, 4), min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_count_invariant_under_linear_equivalence(self, coeffs, m):
        d = dv.divisor(P1P1, coeffs)
        shifted = d + dv.principal_divisor(P1P1, m)
        assert len(dv.global_sections(d)) == len(dv.global_sections(shifted))


class TestPolytopeDivisor:
    def test_double_standard_triangle(self):
        tri = pt.hull([[0, 0], [2, 0], [0, 2]])
        assert dv.polytope_divisor(tri, P2) == 2 * dv.ray_divisor(P2, 2)

    def test_hirzebruch_triangle(self):
        tri = pt.hull([[0, 0], [2, 1], [0, 1]])
        assert dv.polytope_divisor(tri, HIRZ2) == dv.ray_divisor(HIRZ2, 3)

    def test_hirzebruch_trapezoid(self):
        trap = pt.hull([[0, 0], [1, 0], [0, 1], [1, 1], [2, 1], [3, 1]])
        expected = dv.ray_divisor(HIRZ2, 2) + dv.ray_divisor(HIRZ2, 3)
        assert dv.polytope_divisor(trap, HIRZ2) == expected

    def test_rectangle_on_product_fan(self):
        rect = pt.hull([[0, 0], [2, 0], [0, 7], [2, 7]])
        assert dv.polytope_divisor(rect, P1P1).coeffs == [0, 0, 2, 7]

    def test_segment_summand(self):
        seg = pt.hull([[0, 0], [1, 0]])
        assert dv.polytope_divisor(seg, P1P1).coeffs == [0, 0, 1, 0]

    def test_refinement_violation_names_ray(self):
        tri = pt.hull([[0, 0], [2, 0], [0, 2]])
        with pytest.raises(ValueError, match="ray 4"):
            dv.polytope_divisor(tri, HIRZ2)

    def test_dimension_mismatch(self):
        seg = pt.hull([[0], [1]])
        with pytest.raises(ValueError):
            dv.polytope_divisor(seg, P2)


class TestRoundTrips:
    def pentagon(self):
        return pt.hull([[0, 0], [1, 0], [0, 1], [2, 1], [1, 2]])

    def test_polytope_to_divisor_to_polytope(self):
        for P in (self.pentagon(),
                  pt.hull([[1, 0], [-1, 0], [0, 1], [0, -1]]),
                  pt.hull([[0, 0], [2, 0], [0, 2]])):
            F = fn.normal_fan(P)
            poly = dv.divisor_polyhedron(dv.polytope_divisor(P, F))
            assert poly.bounded
            assert poly.lattice_points == sorted(pt.lattice_points(P))
            assert pt.hull(poly.lattice_points) == P

    def test_divisor_to_polytope_to_divisor(self):
        P = self.pentagon()
        F = fn.normal_fan(P)
        d = dv.polytope_divisor(P, F)
        back = dv.polytope_divisor(pt.hull(dv.global_sections(d)), F)
        assert back == d


class TestLinearEquivalence:
    def test_self(self):
        d = D(P2, 4, -1, 2)
        assert dv.linearly_equivalent(d, d) == [0, 0]

    def test_plane_coordinate_divisors(self):
        m = dv.linearly_equivalent(dv.ray_divisor(P2, 0), dv.ray_divisor(P2, 2))
        assert m == [1, 0]

    def test_independent_rulings(self):
        assert dv.linearly_equivalent(dv.ray_divisor(P1P1, 0),
                                      dv.ray_divisor(P1P1, 1)) is None

    def test_mixed_fans_rejected(self):
        with pytest.raises(ValueError):
            dv.linearly_equivalent(D(P2, 1, 0, 0), dv.divisor(P1P1, [1, 0, 0, 0]))

    @given(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
           st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_witness_is_exact(self, ca, cb):
        a, b = dv.divisor(P2, ca), dv.divisor(P2, cb)
        m = dv.linearly_equivalent(a, b)
        _, class_of = dv.class_group(P2)
        if m is None:
            assert class_of(a) != class_of(b)
        else:
            assert dv.principal_divisor(P2, m) == a - b
            assert class_of(a) == class_of(b)
