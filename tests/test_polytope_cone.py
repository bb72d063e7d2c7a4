"""A LatticePolytope keeps the homogenized cone its hull built: the
dimension, membership, dilates, lattice points, Ehrhart polynomials and
the normality test read that cone, tested against the rank, dot-product
and rebuilt-cone code kept in conftest as oracles."""

import random
from itertools import product

from conftest import (gens_ehrhart, gens_hull_lattice_points, gens_lattice_points,
                      rank_hull, rebuilt_cone_is_normal, scaled_dilate)

from toric_kernel import cones as cn
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl

# side of the coordinate box per ambient dimension
BOX = {0: 0, 1: 6, 2: 5, 3: 3, 4: 2, 5: 1}


def seeded_point_sets(seed, count):
    """Lists of points in Z^n, n = 0..5. About a third span a lower
    affine dimension d: points of a box in Z^d mapped by a random integer
    matrix and shift. Each list repeats some of its points and comes in
    shuffled order. Draws whose box grown by one has more than 20,000
    points are skipped, to keep the membership sweep small."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = len(out) % 6
        d = rng.randint(0, n - 1) if n and rng.random() < 0.35 else n
        side = BOX[d] if d == n else 2
        pts = [[rng.randint(0, side) for _ in range(d)]
               for _ in range(rng.randint(d + 1, d + 4))]
        if d < n:
            A = [[rng.randint(-1, 1) for _ in range(d)] for _ in range(n)]
            x0 = [rng.randint(-2, 2) for _ in range(n)]
            pts = [zl.vadd(x0, zl.mat_vec(A, p)) for p in pts]
        pts += [list(rng.choice(pts)) for _ in range(rng.randint(0, 2))]
        rng.shuffle(pts)
        if len(grown_box(pts)) <= 20000:
            out.append(pts)
    return out


def grown_box(pts):
    """Every integer point of the bounding box of pts grown by one."""
    n = len(pts[0])
    return [list(x) for x in product(*(range(min(p[i] for p in pts) - 1,
                                             max(p[i] for p in pts) + 2)
                                       for i in range(n)))]


CASES = seeded_point_sets(20261019, 240)


def test_the_sets_cover_every_dimension_and_flatness():
    kinds = {(len(pts[0]), rank_hull(pts).dim == len(pts[0])) for pts in CASES}
    assert kinds >= {(n, True) for n in range(6)} | {(n, False) for n in range(1, 6)}
    flat = sum(rank_hull(pts).dim < len(pts[0]) for pts in CASES)
    assert len(CASES) // 4 <= flat <= len(CASES) // 2
    assert sum(len({tuple(p) for p in pts}) < len(pts) for pts in CASES) >= len(CASES) // 2


def test_hull_reads_the_old_data_off_its_cone():
    for pts in CASES:
        P, old = pt.hull(pts), rank_hull(pts)
        assert P.vertices == old.vertices, pts
        assert P.facets == old.facets, pts
        assert P.equations == old.equations, pts
        assert P.dim == old.dim, pts
        assert P.ambient_dim == old.ambient_dim, pts


def test_contains_matches_the_dot_products():
    for pts in CASES:
        P, old = pt.hull(pts), rank_hull(pts)
        for x in grown_box(pts):
            assert P.contains(x) == old.contains(x), (pts, x)


def test_dilate_matches_the_scaled_h_representation():
    for pts in CASES:
        P, old = pt.hull(pts), rank_hull(pts)
        for k in range(4):
            D, old_D = pt.dilate(P, k), scaled_dilate(old, k)
            assert D.vertices == old_D.vertices, (pts, k)
            assert D.dim == old_D.dim, (pts, k)
            expected = gens_hull_lattice_points([v + [1] for v in old_D.vertices])
            assert pt.lattice_points(D) == expected, (pts, k)


def test_counts_match_the_rebuilt_projections():
    rng = random.Random(7)
    for pts in CASES:
        P = pt.hull(pts)
        assert pt.lattice_points(P) == gens_lattice_points(P), pts
        assert pt.ehrhart(P) == gens_ehrhart(P), pts
        gens = [p + [rng.randint(1, 2)] for p in pts]
        assert pt.hull_lattice_points(gens) == gens_hull_lattice_points(gens), gens


def test_is_normal_matches_a_rebuilt_cone():
    verdicts = set()
    for pts in CASES:
        P = pt.hull(pts)
        verdict = pt.is_normal(P)
        assert verdict == rebuilt_cone_is_normal(P), pts
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_point_order_does_not_change_the_h_representation():
    # the equations are the HNF basis of their lattice and each facet
    # normal is reduced modulo it, so both are unique
    rng = random.Random(11)
    for pts in CASES:
        P = pt.hull(pts)
        shuffled = list(pts)
        rng.shuffle(shuffled)
        for other in (pts[::-1], shuffled):
            Q = pt.hull(other)
            assert (Q.vertices, Q.facets, Q.equations) == \
                (P.vertices, P.facets, P.equations), (pts, other)


def test_point_order_does_not_change_vertices_or_membership():
    pts = [[0, -4, -2, -4], [-2, 0, -4, 0], [1, 8, 6, 4]]
    P, R = pt.hull(pts), pt.hull(pts[::-1])
    assert P.vertices == R.vertices == sorted(pts)
    assert P.dim == R.dim == 2
    for Q in (P, R):
        assert Q.facets == [([0, 2, -1, -2], -2), ([1, 2, -1, -2], -2),
                            ([2, 1, -1, -1], 0)]
        assert Q.equations == [([0, 6, -2, -7], -8), ([4, 1, -2, 0], 0)]
    for x in grown_box(pts):
        assert P.contains(x) == R.contains(x), x


def printed_dual(gens, n):
    """The generators ``cone dual`` prints for the cone over gens."""
    D = cn.cone(gens, n).dual()
    return sorted(D.rays() if D.is_pointed else D.generators)


def test_generator_order_does_not_change_the_printed_dual():
    # cones in Z^1..Z^5 on 1..n + 2 generators, about half of them
    # lower-dimensional, so that their duals have a lineality
    rng = random.Random(5)
    for k in range(300):
        n = k % 5 + 1
        r = n if rng.random() < 0.5 else rng.randint(1, n)
        basis = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        gens = [[sum(rng.randint(-2, 2) * b[i] for b in basis) for i in range(n)]
                for _ in range(rng.randint(1, n + 2))]
        shuffled = list(gens)
        rng.shuffle(shuffled)
        expected = printed_dual(gens, n)
        assert printed_dual(gens[::-1], n) == expected, gens
        assert printed_dual(shuffled, n) == expected, gens
