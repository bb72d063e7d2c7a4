"""Ehrhart polynomials from counting sweeps and reciprocity, tested against
the listing ``ehrhart`` kept in conftest as ``listing_ehrhart``, and the
cliffs the listing had, under time budgets."""

import itertools
import random

import pytest
from conftest import listing_ehrhart, within

from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl


def box(sides):
    """The box [0, s_0] x ... x [0, s_{n-1}]; a side 0 makes it flat."""
    return [list(p) for p in itertools.product(*[(0, s) for s in sides])]


def unimodular_map(rng, n):
    """A random n x n integer matrix of determinant +-1."""
    U = zl.identity(n)
    for _ in range(2 * (n - 1)):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    return U


def hollow(rng, n):
    """A polytope in Z^n with no interior lattice point in its own span:
    a unimodular simplex or a segment of lattice length 1, moved by a
    unimodular map and a shift."""
    d = rng.randint(1, n)
    if rng.random() < 0.5:
        pts = [[0] * n] + [[int(i == j) for j in range(n)] for i in range(d)]
    else:
        pts = [[0] * n, [int(j == 0) for j in range(n)]]
    U = unimodular_map(rng, n)
    x0 = [rng.randint(-5, 5) for _ in range(n)]
    return [zl.vadd(x0, zl.mat_vec(U, p)) for p in pts]


def seeded_point_sets(seed, count):
    """Point sets of dimension 0..5, in turn: random points of a small
    box; the same mapped into a larger ambient space by a random integer
    matrix and shift, so that the polytope is not full-dimensional; boxes,
    whose facet normals mostly end in 0 and whose zero sides make them
    flat; and hollow polytopes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = len(out) % 6
        kind = len(out) // 6 % 4
        if kind == 2:
            side = 3 if d < 4 else 1
            out.append(box([rng.randint(0, side) for _ in range(max(d, 1))]))
            continue
        if kind == 3:
            out.append(hollow(rng, max(d, 1)))
            continue
        side = {0: 0, 1: 5, 2: 4, 3: 2, 4: 1, 5: 1}[d]
        pts = [[rng.randint(0, side) for _ in range(d)]
               for _ in range(rng.randint(d + 1, d + 3))]
        if kind == 1 or d == 0:
            n = d + rng.randint(1, 2)
            A = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(n)]
            x0 = [rng.randint(-2, 2) for _ in range(n)]
            pts = [zl.vadd(x0, zl.mat_vec(A, p)) for p in pts]
        out.append(pts)
    return out


CASES = [pt.hull(pts) for pts in seeded_point_sets(20261019, 336)]


def test_the_cases_cover_every_dimension_flatness_and_hollowness():
    assert {P.dim for P in CASES} == set(range(6))
    assert 3 * sum(not P.is_full_dim for P in CASES) >= len(CASES)
    # facets whose normal ends in 0 do not bound the last coordinate
    assert sum(P.dim >= 2 and any(u[-1] == 0 for u, _ in pt.project_full(P)[0].facets)
               for P in CASES) >= 100
    # L(-1) = +-#int(P): 0 for P without interior lattice points
    assert sum(P.dim >= 1 and listing_ehrhart(P).evaluate(-1) == 0
               for P in CASES) >= 40


@pytest.mark.parametrize("i", range(len(CASES)))
def test_counting_matches_listing(i):
    P = CASES[i]
    assert pt.ehrhart(P) == listing_ehrhart(P), P


@pytest.mark.parametrize("sides", [[1, 1], [2, 3], [3, 2, 2], [1, 4, 1, 2], [2, 0, 3]])
def test_boxes_are_products_of_segments(sides):
    # the polynomial of a box is prod (s_i k + 1); all but its last two
    # facet normals end in 0
    coeffs = [1]
    for s in sides:
        coeffs = [a + s * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    assert pt.ehrhart(pt.hull(box(sides))) == zl.RationalPolynomial(coeffs)


def test_reciprocity_counts_the_interior():
    P = pt.hull(box([2, 3, 4]))
    E = pt.ehrhart(P)
    for k in (1, 2):
        interior = (2 * k - 1) * (3 * k - 1) * (4 * k - 1)
        assert E.evaluate(-k) == -interior


def test_cube_of_side_six_in_five_dimensions():
    with within(2):
        E = pt.ehrhart(pt.hull(box([6] * 5)))
    assert E.coeffs == (1, 30, 360, 2160, 6480, 7776)


@pytest.mark.parametrize("sides, coeffs", [
    ([2] * 6, (1, 12, 60, 160, 240, 192, 64)),
    ([10] * 4, (1, 40, 600, 4000, 10000)),
])
def test_cubes_under_half_a_second(sides, coeffs):
    with within(0.5):
        E = pt.ehrhart(pt.hull(box(sides)))
    assert E.coeffs == coeffs


def test_eight_wide_random_polytopes():
    rng = random.Random(0)
    polys = [pt.hull([[rng.randint(-60, 60) for _ in range(3)] for _ in range(6)])
             for _ in range(8)]
    with within(5):
        polys = [(P, pt.ehrhart(P)) for P in polys]
    for P, E in polys:
        assert E.degree == 3 and E.coeffs[3] == pt.volume(P)
