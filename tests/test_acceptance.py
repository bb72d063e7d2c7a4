"""Acceptance suite: headline end-to-end results with wall-clock budgets.

Every test asserts an exact result and measures its own running time
against an explicit budget, so a correctness regression and a
performance regression both fail loudly. The randomized sections at the
bottom use fixed seeds and double as the stand-in for full-scale checks
that cannot be reproduced exactly (wall-clock timing figures and
floating-point homotopy solution sets are out of scope by design; see
TestScopeOfTheSuite).
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import cache
from itertools import permutations

import pytest

import toric_kernel.cones as cn
import toric_kernel.counting as ct
import toric_kernel.cox as cx
import toric_kernel.divisors as dv
import toric_kernel.fans as fn
import toric_kernel.ideals as il
import toric_kernel.polytopes as pt
import toric_kernel.zlattice as zl


@contextmanager
def within(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def binomial(nvars, plus, minus):
    return il.SparsePolynomial(nvars, {tuple(plus): Fraction(1),
                                       tuple(minus): Fraction(-1)})


def laurent(nvars, *terms):
    return il.LaurentPolynomial(nvars, {tuple(e): Fraction(c)
                                        for *e, c in terms})


def mutually_generate(first, second):
    """Two generating sets span the same ideal (mutual membership)."""
    return (all(il.membership(g, second) for g in first)
            and all(il.membership(g, first) for g in second))


PENTAGON = [[0, 0], [1, 0], [0, 1], [2, 1], [1, 2]]

P2 = fn.fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]], 2)
P1P1 = fn.fan([[1, 0], [0, 1], [-1, 0], [0, -1]],
              [[0, 1], [1, 2], [2, 3], [0, 3]], 2)
HIRZ2 = fn.fan([[1, 0], [0, 1], [-1, 2], [0, -1]],
               [[0, 1], [1, 2], [2, 3], [0, 3]], 2)
DIAMOND = fn.fan([[1, 1], [-1, 1], [-1, -1], [1, -1]],
                 [[0, 1], [1, 2], [2, 3], [0, 3]], 2)
TILTED = fn.fan([[1, 2], [1, 0], [-3, -2], [0, 1]],
                [[0, 1], [1, 2], [2, 3], [0, 3]], 2)
WEDGE = fn.fan([[-1, -2], [1, 0]], [[0, 1]], 2)
WEDGE_RAYS = fn.fan([[-1, -2], [1, 0]], [[0], [1]], 2)


class TestDualConeSemigroup:
    def test_hilbert_basis_and_its_binomial_ideal(self):
        with within(1):
            sigma = cn.cone([[0, 1], [1, 2], [2, 1]], 2)
            basis = cn.hilbert_basis(sigma.dual())
            assert set(map(tuple, basis.vectors)) == {(1, 0), (-1, 2),
                                                      (0, 1)}
            A = [[1, -1, 0], [0, 2, 1]]
            computed = il.toric_ideal(A)
            expected = [binomial(3, (1, 1, 0), (0, 0, 2))]
            assert mutually_generate(computed, expected)


class TestToricIdeals:
    def test_seven_point_configuration_has_nine_binomials(self):
        with within(10):
            A = [[2, 2, 1, 0, 0, 1, 1],
                 [1, 0, 0, 1, 2, 2, 1],
                 [0, 1, 2, 2, 1, 0, 1]]
            basis = il.toric_ideal(A)
            assert len(basis) == 9
            assert all(len(g.terms) == 2 for g in basis)

    def test_homogenized_pentagon_ideal_has_four_known_generators(self):
        with within(10):
            A = [[1, 1, 1, 1, 1],
                 [0, 1, 0, 2, 1],
                 [0, 0, 1, 1, 2]]
            computed = il.toric_ideal(A)
            expected = [
                binomial(5, (0, 0, 1, 1, 0), (0, 1, 0, 0, 1)),
                binomial(5, (0, 1, 2, 0, 0), (2, 0, 0, 0, 1)),
                binomial(5, (0, 2, 1, 0, 0), (2, 0, 0, 1, 0)),
                binomial(5, (2, 0, 0, 2, 0), (0, 3, 0, 0, 1)),
            ]
            assert mutually_generate(computed, expected)


@cache
def permutohedral_data():
    sigma = cn.cone([[1, 2, 3], [2, 1, 3], [1, 3, 2],
                     [3, 1, 2], [2, 3, 1], [3, 2, 1]], 3)
    vectors = sorted(cn.hilbert_basis(sigma.dual()).vectors)
    A = [[v[i] for v in vectors] for i in range(3)]
    return vectors, il.toric_ideal(A)


class TestPermutohedralCone:
    def test_dual_hilbert_basis_has_fifteen_elements(self):
        with within(60):
            vectors, basis = permutohedral_data()
            assert len(vectors) == 15
            for g in basis:
                (e1, c1), (e2, c2) = sorted(g.terms.items())
                assert {c1, c2} == {Fraction(1), Fraction(-1)}
                diff = [a - b for a, b in zip(e1, e2)]
                for i in range(3):
                    assert sum(vectors[j][i] * diff[j]
                               for j in range(15)) == 0

    @pytest.mark.xfail(strict=True, reason=(
        "a 77-element generating set exists but is neither minimal nor "
        "reduced: the reduced basis has 128 elements and minimal "
        "generation needs 75, so no canonical basis has 77"))
    def test_reduced_basis_has_seventy_seven_binomials(self):
        _, basis = permutohedral_data()
        assert len(basis) == 77


class TestEhrhartPolynomials:
    def test_pentagon(self):
        with within(5):
            E = pt.ehrhart(pt.hull(PENTAGON))
            assert E.coeffs == (1, Fraction(5, 2), Fraction(5, 2))

    @pytest.mark.parametrize("n,expected", [
        (3, (1, 3, 3)),
        (4, (1, 6, 15, 16)),
        (5, (1, 10, 45, 110, 125)),
    ])
    def test_permutohedra(self, n, expected):
        with within(60):
            points = [list(p) for p in permutations(range(1, n + 1))]
            P, _ = pt.project_full(pt.hull(points))
            E = pt.ehrhart(P)
            assert E.coeffs == tuple(Fraction(c) for c in expected)


class TestClassAndPicardGroups:
    def presentation(self, F):
        return dv.class_group(F)[0]

    def test_projective_plane(self):
        with within(1):
            G = self.presentation(P2)
            assert (G.free_rank, G.invariant_factors) == (1, ())

    def test_product_of_lines(self):
        with within(1):
            G = self.presentation(P1P1)
            assert (G.free_rank, G.invariant_factors) == (2, ())

    def test_diamond_fan_has_torsion(self):
        with within(1):
            G = self.presentation(DIAMOND)
            assert (G.free_rank, G.invariant_factors) == (2, (2,))

    def test_wedge_cone_fan(self):
        with within(1):
            G = self.presentation(WEDGE)
            assert (G.free_rank, G.invariant_factors) == (0, (2,))
            P = dv.picard_group(WEDGE)
            assert (P.free_rank, P.invariant_factors) == (0, ())

    def test_wedge_ray_subfan_has_torsion_picard_group(self):
        with within(1):
            P = dv.picard_group(WEDGE_RAYS)
            assert (P.free_rank, P.invariant_factors) == (0, (2,))


class TestCartierDivisors:
    def test_non_cartier_ray_divisor_with_multiple_six(self):
        with within(5):
            D = dv.ray_divisor(TILTED, 2)
            assert not dv.is_cartier(D)
            assert dv.minimal_cartier_multiple(D) == 6
            assert dv.is_cartier(dv.divisor(TILTED,
                                            [6 * c for c in D.coeffs]))

    def test_every_divisor_on_a_smooth_fan_is_cartier(self):
        with within(5):
            rng = random.Random(601)
            for _ in range(50):
                coeffs = [rng.randint(-9, 9) for _ in P1P1.rays]
                assert dv.is_cartier(dv.divisor(P1P1, coeffs))


class TestRootCounts:
    def test_kushnirenko_degrees(self):
        with within(5):
            twice_triangle = [[0, 1, 2, 0, 1, 0], [0, 0, 0, 1, 1, 2]]
            assert ct.kushnirenko_count(twice_triangle)[0] == 4
            unit_square = [[0, 1, 0, 1], [0, 0, 1, 1]]
            assert ct.kushnirenko_count(unit_square)[0] == 2
            pentagon = [[0, 1, 0, 2, 1], [0, 0, 1, 1, 2]]
            assert ct.kushnirenko_count(pentagon)[0] == 5

    def test_index_two_support_reports_all_three_numbers(self):
        with within(5):
            A = [[1, 0, 2, 1], [0, 1, 1, 2]]
            degree, volume, index = ct.kushnirenko_count(A)
            assert (degree, volume, index) == (2, 4, 2)

    def test_mixed_count_with_exact_boundary_solutions(self):
        with within(5):
            f1 = laurent(2, (0, 0, 1), (1, 0, 1), (0, 1, 1),
                         (1, 1, 1), (2, 1, 1), (3, 1, 1))
            f2 = laurent(2, (0, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1))
            report = ct.bkk_count([f1, f2])
            assert report.bkk == 3
            assert report.bezout == 12
            # The three roots on the compactification, written in
            # homogeneous coordinates indexed by the rays they scale.
            by_ray = [
                {(1, 0): -1, (0, 1): -1, (-1, 2): 1, (0, -1): 1},
                {(1, 0): 0, (0, 1): -1, (-1, 2): 1, (0, -1): 1},
                {(1, 0): 1, (0, 1): -1, (-1, 2): 0, (0, -1): 1},
            ]
            for values in by_ray:
                z = [values[tuple(ray)] for ray in report.fan.rays]
                for g in report.homogenized:
                    total = Fraction(0)
                    for exp, coeff in g.terms.items():
                        term = coeff
                        for zi, ei in zip(z, exp):
                            term *= Fraction(zi) ** ei
                        total += term
                    assert total == 0


class TestCoxConstructions:
    def exponent_sets(self, gens):
        return {next(iter(g.terms)) for g in gens}

    def test_irrelevant_ideal_generators(self):
        with within(5):
            assert self.exponent_sets(cx.irrelevant_ideal(P2)) == {
                (1, 0, 0), (0, 1, 0), (0, 0, 1)}
            assert self.exponent_sets(cx.irrelevant_ideal(P1P1)) == {
                (0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0), (0, 1, 1, 0)}

    def test_homogenization_on_the_hirzebruch_surface(self):
        with within(5):
            fhat = laurent(2, (0, 0, 1), (1, 0, 1), (0, 1, 1),
                           (1, 1, 1), (2, 1, 1), (3, 1, 1))
            D = dv.divisor(HIRZ2, [0, 0, 1, 1])
            f = cx.homogenize(fhat, D)
            assert f.terms == {
                (0, 0, 1, 1): 1, (1, 0, 0, 1): 1, (0, 1, 3, 0): 1,
                (1, 1, 2, 0): 1, (2, 1, 1, 0): 1, (3, 1, 0, 0): 1}

    @pytest.mark.parametrize("F,reference", [
        (P2, [[1, 1, 1]]),
        (HIRZ2, [[1, -2, 1, 0], [0, 1, 0, 1]]),
    ])
    def test_grading_matches_reference_up_to_unimodular_change(
            self, F, reference):
        # Two gradings by a free group agree up to a unimodular change
        # of coordinates exactly when their kernels coincide; both
        # kernels are saturated of the same rank, so mutual inclusion
        # reduces to each grading killing the other's kernel.
        with within(5):
            weights = cx.cox_data(F).g_weights
            mine = [[w.coords[r] for w in weights]
                    for r in range(len(weights[0].coords))]
            for W, V in ((mine, reference), (reference, mine)):
                kernel = zl.kernel_basis(W)
                product = zl.mat_mul(V, kernel)
                assert all(all(x == 0 for x in row) for row in product)


def hull_2d(points):
    """Monotone-chain convex hull, counterclockwise."""
    def turn(o, a, b):
        return ((a[0] - o[0]) * (b[1] - o[1])
                - (a[1] - o[1]) * (b[0] - o[0]))
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for chain, seq in ((lower, pts), (upper, reversed(pts))):
        for p in seq:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return lower[:-1] + upper[:-1]


def brute_force_lattice_points(vertices):
    """Box scan with an edge-sign containment test, independent of the
    package's facet machinery."""
    boundary = hull_2d(vertices)
    xs = [p[0] for p in vertices]
    ys = [p[1] for p in vertices]
    found = []
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            inside = True
            for i, a in enumerate(boundary):
                b = boundary[(i + 1) % len(boundary)]
                cross = ((b[0] - a[0]) * (y - a[1])
                         - (b[1] - a[1]) * (x - a[0]))
                if cross < 0:
                    inside = False
                    break
            if inside:
                found.append((x, y))
    return sorted(found)


def random_polygon(rng, spread=5):
    while True:
        points = [(rng.randint(-spread, spread), rng.randint(-spread, spread))
                  for _ in range(rng.randint(3, 7))]
        P = pt.hull(points)
        if P.dim == 2:
            return P


class TestRandomizedProperties:
    def test_cone_biduality(self):
        with within(120):
            rng = random.Random(901)
            accepted = 0
            while accepted < 100:
                dim = rng.randint(1, 4)
                gens = [[rng.randint(-4, 4) for _ in range(dim)]
                        for _ in range(rng.randint(1, dim + 2))]
                if all(not any(g) for g in gens):
                    continue
                sigma = cn.cone(gens, dim)
                if not sigma.is_pointed:
                    continue
                accepted += 1
                assert (set(map(tuple, sigma.dual().dual().rays()))
                        == set(map(tuple, sigma.rays())))

    def test_ehrhart_predicts_out_of_sample_dilates(self):
        with within(120):
            rng = random.Random(902)
            for _ in range(20):
                P = random_polygon(rng, spread=4)
                E = pt.ehrhart(P)
                for k in (3, 4):
                    counted = len(pt.lattice_points(pt.dilate(P, k)))
                    assert E.evaluate(k) == counted

    def test_lattice_points_against_brute_force(self):
        with within(120):
            rng = random.Random(903)
            for _ in range(20):
                P = random_polygon(rng)
                expected = brute_force_lattice_points(P.vertices)
                assert [tuple(p) for p in pt.lattice_points(P)] == expected

    def test_mixed_volume_symmetry_and_multilinearity(self):
        with within(120):
            rng = random.Random(904)
            for _ in range(20):
                P = random_polygon(rng, spread=3)
                Q = random_polygon(rng, spread=3)
                R = random_polygon(rng, spread=3)
                assert pt.mixed_volume([P, Q]) == pt.mixed_volume([Q, P])
                assert (pt.mixed_volume([pt.minkowski_sum(P, R), Q])
                        == pt.mixed_volume([P, Q])
                        + pt.mixed_volume([R, Q]))
                assert pt.mixed_volume([P, P]) == pt.normalized_volume(P)

    def test_polytope_divisor_polyhedron_round_trip(self):
        with within(120):
            rng = random.Random(905)
            for _ in range(10):
                P = random_polygon(rng)
                F = fn.normal_fan(P)
                D = dv.polytope_divisor(P, F)
                body = dv.divisor_polyhedron(D)
                assert body.bounded
                assert ([tuple(p) for p in body.lattice_points]
                        == [tuple(p) for p in pt.lattice_points(P)])

    def test_fan_validation_rejects_invalid_inputs(self):
        with within(120):
            invalid = [
                ([[1, 0], [0, 1]], [[0, 1], [0]]),
                ([[1, 0], [0, 1], [1, 1], [-1, 1]], [[0, 1], [2, 3]]),
                ([[1, 0], [-1, 0], [0, 1]], [[0, 1, 2]]),
                ([[1, 0], [0, 1], [0, -1]], [[0, 1]]),
                ([[1, 0], [1, 1], [1, 2]], [[0, 1, 2]]),
            ]
            for rays, cones in invalid:
                with pytest.raises(ValueError):
                    fn.fan(rays, cones, 2)


class TestScopeOfTheSuite:
    def test_unreproducible_claims_are_delegated_to_property_checks(self):
        # Wall-clock timing figures and floating-point homotopy solution
        # sets cannot be reproduced by exact arithmetic; the randomized
        # suites above are the acceptance stand-in for those areas.
        delegated = [
            TestRandomizedProperties.test_cone_biduality,
            TestRandomizedProperties.test_ehrhart_predicts_out_of_sample_dilates,
            TestRandomizedProperties.test_lattice_points_against_brute_force,
            TestRandomizedProperties.test_mixed_volume_symmetry_and_multilinearity,
            TestRandomizedProperties.test_polytope_divisor_polyhedron_round_trip,
            TestRandomizedProperties.test_fan_validation_rejects_invalid_inputs,
        ]
        assert all(callable(check) for check in delegated)
