"""One lattice-point enumerator: differential tests against the box scans.

``polytopes.hull_lattice_points`` fixes one coordinate at a time between
bounds read off the facets and equations of the projection onto the
coordinates fixed so far. ``polytopes.lattice_points`` and
``divisors.divisor_polyhedron`` both go through it. The oracles below are
the box scans it replaced, copied verbatim: the scan over the bounding
box of a polytope in its span lattice, and the ``Fraction`` scan over the
bounding box of the vertices of an H-representation, found by solving
every n-subset of the inequalities.
"""

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor

from conftest import gauss_jordan_solve, span_lattice_basis, within
from hypothesis import assume, given, seed, settings, strategies as st

from toric_kernel import cones as cn
from toric_kernel import divisors as dv
from toric_kernel import fans as fn
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl


def old_lattice_points(P):
    """Box scan in the saturated lattice of the affine span (without the
    cache)."""
    n = P.ambient_dim
    x0 = P.vertices[0]
    if P.dim == 0:
        return [list(x0)]
    if P.is_full_dim:
        ys = P.vertices
        trans = [(list(u), a) for u, a in P.facets]
        base = None
    else:
        L = span_lattice_basis([zl.vsub(v, x0) for v in P.vertices], n)
        ys = [zl.solve_integer(L, zl.vsub(v, x0)) for v in P.vertices]
        trans = []
        for u, a in P.facets:
            ut = zl.mat_vec(zl.transpose(L), u)
            trans.append((ut, a + zl.dot(u, x0)))
        base = (x0, L)
    d = len(ys[0])
    lo = [min(y[i] for y in ys) for i in range(d)]
    hi = [max(y[i] for y in ys) for i in range(d)]
    found = []
    for y in product(*[range(lo[i], hi[i] + 1) for i in range(d)]):
        if all(sum(u[i] * y[i] for i in range(d)) + a >= 0 for u, a in trans):
            found.append(list(y))
    if base is None:
        pts = sorted(found)
    else:
        x0, L = base
        pts = sorted(zl.vadd(x0, zl.mat_vec(L, y)) for y in found)
    return [list(p) for p in pts]


def old_h_lattice_points(facets, n):
    """Lattice points of a bounded {<u,m> + a >= 0 for all (u,a)} set."""
    feasible = lambda x: all(
        sum(Fraction(u[i]) * x[i] for i in range(n)) + a >= 0 for u, a in facets)
    vertices = []
    for combo in combinations(facets, n):
        M = [list(u) for u, _ in combo]
        if zl.det(M) == 0:
            continue
        x = gauss_jordan_solve(M, [-a for _, a in combo])
        if x is not None and feasible(x):
            vertices.append(x)
    if not vertices:
        return []
    box = []
    for i in range(n):
        vals = [v[i] for v in vertices]
        box.append(range(ceil(min(vals)), floor(max(vals)) + 1))
    points = []
    for p in product(*box):
        if feasible([Fraction(c) for c in p]):
            points.append(list(p))
    return sorted(points)


def homogenized_vertices(facets, n):
    """The vertices (w, t) of a bounded H-representation, as
    ``divisor_polyhedron`` computes them."""
    cons = [list(u) + [a] for u, a in facets] + [[0] * n + [1]]
    return cn.halfspace_generators(cons, n + 1)[1]


def h_lattice_points(facets, n):
    return pt.hull_lattice_points(homogenized_vertices(facets, n))


def box_size(gens):
    """Lattice points in the bounding box of the hull of the w / t."""
    if not gens:
        return 0
    size = 1
    for i in range(len(gens[0]) - 1):
        vals = [Fraction(g[i], g[-1]) for g in gens]
        size *= max(0, floor(max(vals)) - ceil(min(vals)) + 1)
    return size


def points(n, lo, hi, count):
    return st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                    min_size=count[0], max_size=count[1])


@st.composite
def full_dimensional(draw):
    n = draw(st.integers(1, 5))
    spread = 4 if n <= 3 else 2 if n == 4 else 1
    P = pt.hull(draw(points(n, -spread, spread, (n + 1, n + 4))))
    assume(P.is_full_dim)
    return P


@st.composite
def lower_dimensional(draw):
    n = draw(st.integers(3, 4))
    k = draw(st.integers(1, n - 1))
    ys = draw(points(k, -3, 3, (1, k + 3)))
    A = draw(points(k, -2, 2, (n, n)))
    x0 = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    return pt.hull([zl.vadd(x0, zl.mat_vec(A, y)) for y in ys])


@st.composite
def bounded_systems(draw):
    """(facets, n): random inequalities plus minus their sum, so the
    normals span R^n positively once they have rank n; some systems get
    an equation as a pair of opposite inequalities."""
    n = draw(st.integers(1, 3))
    normal = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    us = draw(st.lists(normal, min_size=n, max_size=n + 2))
    last = [-sum(col) for col in zip(*us)]
    if any(last):
        us.append(last)
    assume(zl.rank(us) == n)
    facets = [(u, draw(st.integers(-4, 6))) for u in us]
    if draw(st.booleans()):
        u = draw(normal)
        a = draw(st.integers(-4, 4))
        facets += [(u, a), ([-x for x in u], -a)]
    assume(box_size(homogenized_vertices(facets, n)) <= 4000)
    return facets, n


class TestPolytopes:
    @seed(20261101)
    @settings(max_examples=150, deadline=None)
    @given(full_dimensional())
    def test_full_dimensional(self, P):
        assert pt.lattice_points(P) == old_lattice_points(P)

    @seed(20261102)
    @settings(max_examples=120, deadline=None)
    @given(lower_dimensional())
    def test_lower_dimensional(self, P):
        assert P.dim < P.ambient_dim
        assert pt.lattice_points(P) == old_lattice_points(P)

    @seed(20261103)
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: points(n, -2, 2, (1, n + 3))))
    def test_dilates(self, pts):
        P = pt.hull(pts)
        for k in range(5):
            Q = pt.dilate(P, k)
            assert pt.lattice_points(Q) == old_lattice_points(Q)

    def test_rational_generators(self):
        # conv{(1/2, 0), (5/2, 0), (1/2, 3/2)}: a triangle with no
        # lattice vertex
        gens = [[1, 0, 2], [5, 0, 2], [1, 3, 2]]
        assert pt.hull_lattice_points(gens) == [[1, 0], [1, 1], [2, 0]]

    def test_no_generators(self):
        assert pt.hull_lattice_points([]) == []


class TestHRepresentations:
    @seed(20261104)
    @settings(max_examples=200, deadline=None)
    @given(bounded_systems())
    def test_random_bounded_systems(self, system):
        facets, n = system
        assert h_lattice_points(facets, n) == old_h_lattice_points(facets, n)

    def check(self, facets, expected):
        n = len(facets[0][0])
        assert old_h_lattice_points(facets, n) == expected
        assert h_lattice_points(facets, n) == expected

    def test_empty(self):
        self.check([([1, 0], -3), ([-1, 0], 2), ([0, 1], 0), ([0, -1], 1)], [])

    def test_single_non_integral_point(self):
        # (1/2, 1/3)
        self.check([([2, 0], -1), ([-2, 0], 1), ([0, 3], -1), ([0, -3], 1)], [])

    def test_single_integral_point_cut_by_diagonals(self):
        self.check([([1, 1], -3), ([-1, -1], 3), ([1, -1], 1), ([-1, 1], -1)],
                   [[1, 2]])

    def test_segment_with_rational_ends(self):
        # x = y, -1/2 <= x <= 7/3
        self.check([([1, -1], 0), ([-1, 1], 0), ([2, 0], 1), ([-3, 0], 7)],
                   [[0, 0], [1, 1], [2, 2]])

    def test_plane_section_of_a_cube_in_z3(self):
        cube = []
        for i in range(3):
            e = [int(j == i) for j in range(3)]
            cube += [(e, 0), ([-x for x in e], 2)]
        plane = [([1, 1, 1], -3), ([-1, -1, -1], 3)]
        expected = sorted(p for p in product(range(3), repeat=3) if sum(p) == 3)
        self.check(cube + plane, [list(p) for p in expected])


class TestDivisorPolyhedra:
    @seed(20261105)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3).flatmap(lambda n: st.tuples(
        points(n, -2, 2, (n + 1, n + 3)),
        st.lists(st.integers(-2, 4), min_size=12, max_size=12))))
    def test_normal_fans_with_random_coefficients(self, data):
        pts, coeffs = data
        P = pt.hull(pts)
        assume(P.is_full_dim)
        F = fn.normal_fan(P)
        D = dv.divisor(F, coeffs[:len(F.rays)])
        facets = [(list(u), a) for u, a in zip(F.rays, D.coeffs)]
        assert dv.global_sections(D) == old_h_lattice_points(facets, F.ambient_dim)


# A thin 4-simplex: its bounding box has 31^4 points and the polytope
# 34. A scan over the box took seconds.
THIN = pt.hull([[0, 0, 0, 0], [30, 30, 30, 30],
                [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])


def test_thin_simplex_is_not_scanned_box_by_box():
    P = pt.hull(THIN.vertices)
    with within(0.5):
        found = pt.lattice_points(P)
    # the 31 points of the long edge and the three unit vertices
    diagonal = [[t] * 4 for t in range(31)]
    assert found == sorted(diagonal + [[0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


def test_thin_divisor_polyhedron_is_not_scanned_box_by_box():
    F = fn.normal_fan(THIN)
    D = dv.polytope_divisor(THIN, F)
    with within(0.5):
        sections = dv.global_sections(D)
    assert sections == pt.lattice_points(THIN)
    assert len(sections) == 34
