"""One pulling triangulation for volume and the Hilbert basis.

``cones.pulling_triangulation`` reads the facets of each face off
vertex-facet (or ray-facet) incidence bitmasks. ``polytopes.volume``, on
the cone over the polytope, and the full-dimensional branch of
``cones.hilbert_basis`` both use it; the Hilbert basis then reduces its
candidates in grade order. The oracles below are the code these
replaced, copied verbatim: the triangulation that calls ``hull`` on every
face, and the Hilbert basis over all C(R, d) ray subsets with the
all-pairs reduction.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from unittest import mock

import pytest
from conftest import span_lattice_basis, within
from hypothesis import assume, given, seed, settings, strategies as st

from toric_kernel import cones as cn
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl


def old_triangulate(P):
    """Pulling triangulation from the lexicographically smallest vertex;
    returns lists of dim+1 affinely independent vertices."""
    if P.dim == 0:
        return [[list(P.vertices[0])]]
    v0 = P.vertices[0]
    out = []
    for u, a in P.facets:
        if zl.dot(u, v0) + a == 0:
            continue
        fverts = [v for v in P.vertices if zl.dot(u, v) + a == 0]
        for s in old_triangulate(pt.hull(fverts)):
            out.append([list(v0)] + s)
    return out


def old_volume(P):
    n = P.ambient_dim
    if P.dim < n:
        return Fraction(0)
    total = Fraction(0)
    for s in old_triangulate(P):
        M = [zl.vsub(v, s[0]) for v in s[1:]]
        total += Fraction(abs(zl.det(M)), factorial(n))
    return total


def old_hilbert_basis(sigma):
    if not sigma.is_pointed:
        raise ValueError("Hilbert basis requires a pointed cone")
    n = sigma.ambient_dim
    d = sigma.dim
    if d == 0:
        return cn.HilbertBasis([])
    R = sigma.rays()
    if d < n:
        B = span_lattice_basis(sigma.generators, n)
        R_proj = [zl.solve_integer(B, r) for r in R]
        inner = old_hilbert_basis(cn.cone(R_proj, d))
        return cn.HilbertBasis([zl.mat_vec(B, v) for v in inner.vectors])
    candidates = {tuple(r) for r in R}
    for S in combinations(R, d):
        M = zl.from_columns([list(v) for v in S], rows=d)
        if zl.det(M) == 0:
            continue
        candidates |= cn._parallelepiped_points(M, d)
    cand = sorted(candidates)
    normals = sigma.facet_normals
    kept = []
    for c in cand:
        reducible = False
        for a in cand:
            if a == c:
                continue
            diff = zl.vsub(list(c), list(a))
            if any(diff) and all(zl.dot(m, diff) >= 0 for m in normals):
                reducible = True
                break
        if not reducible:
            kept.append(list(c))
    return cn.HilbertBasis(kept)


@st.composite
def full_polytopes(draw, dims=(2, 5)):
    """Hulls of n + 1 to n + 5 random points in [-2, 2]^n, n in dims;
    only full-dimensional ones are kept."""
    n = draw(st.integers(*dims))
    rng = draw(st.randoms(use_true_random=False))
    pts = [[rng.randint(-2, 2) for _ in range(n)]
           for _ in range(rng.randint(n + 1, n + 5))]
    P = pt.hull(pts)
    assume(P.is_full_dim)
    return P


@st.composite
def pointed_cones(draw, full_dim):
    """Pointed cones in Z^2 to Z^4 on 1 to n + 2 generators with entries
    in [-3, 3]; the lower-dimensional ones lie in the span of r < n
    random vectors, their generators integer combinations of those."""
    n = draw(st.integers(2, 4))
    rng = draw(st.randoms(use_true_random=False))
    k = rng.randint(n, n + 2) if full_dim else rng.randint(1, n + 1)
    if full_dim:
        gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
    else:
        basis = [[rng.randint(-2, 2) for _ in range(n)]
                 for _ in range(rng.randint(1, n - 1))]
        gens = [[sum(rng.randint(-2, 2) * b[i] for b in basis) for i in range(n)]
                for _ in range(k)]
    sigma = cn.cone(gens, n)
    assume(sigma.is_pointed and sigma.is_full_dim == full_dim)
    return sigma


class TestPullingTriangulation:
    @seed(20261018)
    @settings(max_examples=150, deadline=None)
    @given(full_polytopes())
    def test_same_simplices_as_hull_per_face(self, P):
        assert pt.volume(P) == old_volume(P)

    def test_square_pulls_its_smallest_vertex(self):
        # vertices 0..3 of the unit square; facets as incidence masks
        masks = [0b0011, 0b0101, 0b1010, 0b1100]
        assert sorted(cn.pulling_triangulation(masks, 0b1111, 3)) == [[0, 1, 3], [0, 2, 3]]

    def test_simplices_of_a_face_stay_in_it(self):
        P = pt.hull([list(p) for p in permutations((1, 2, 3))]
                    + [[0, 0, 0]])
        V = P.vertices
        masks = [sum(1 << i for i, v in enumerate(V) if zl.dot(u, v) + a == 0)
                 for u, a in P.facets]
        for m in masks:
            for s in cn.pulling_triangulation(masks, m, P.dim):
                assert all(m >> i & 1 for i in s)
                assert s[0] == (m & -m).bit_length() - 1


class TestGradedHilbertBasis:
    @seed(424242)
    @settings(max_examples=120, deadline=None)
    @given(pointed_cones(full_dim=True))
    def test_full_dimensional_matches_all_subsets(self, sigma):
        assert cn.hilbert_basis(sigma).vectors == old_hilbert_basis(sigma).vectors

    @seed(31337)
    @settings(max_examples=80, deadline=None)
    @given(pointed_cones(full_dim=False))
    def test_lower_dimensional_matches_all_subsets(self, sigma):
        assert cn.hilbert_basis(sigma).vectors == old_hilbert_basis(sigma).vectors

    def test_candidates_meet_only_lower_grades(self):
        """Each candidate is compared only with kept elements of a
        strictly lower grade: an equal grade can never reduce it."""
        compared = []
        real = cn._reducible

        class Values(list):
            def __init__(self, values, grade):
                super().__init__(values)
                self.grade = grade

            def __iter__(self):
                compared.append((self.grade, grade))
                return super().__iter__()

        def spy(g, v, kept):
            nonlocal grade
            grade = g
            return real(g, v, [(h, Values(w, h)) for h, w in kept])

        grade = None
        sigma = cn.cone([[1, 0, 0], [0, 1, 0], [1, 1, 3], [2, -1, 5]], 3)
        with mock.patch.object(cn, "_reducible", spy):
            found = cn.hilbert_basis(sigma).vectors
        assert found == old_hilbert_basis(sigma).vectors
        assert compared and all(h < g for h, g in compared)


# The cone over the 24 permutations of (1, 2, 3, 4): the C(24, 4) subset
# loop visited 9,780 simplices and took about 9-12 s.
PERMUTATION_CONE = cn.cone([list(p) for p in permutations((1, 2, 3, 4))], 4)

# |det| 47; the Hilbert basis of its dual took 10-13 s on the subset loop,
# and separating_character computes it for every full-dimensional c1
C1 = cn.cone([[3, -3, -2], [-3, 2, -3], [-2, -1, 2]], 3)


class TestBudgets:
    def test_permutation_cone_hilbert_basis(self):
        with within(1):
            basis = cn.hilbert_basis(PERMUTATION_CONE)
        assert len(basis) == 79

    def test_dual_hilbert_basis_of_a_determinant_47_cone(self):
        dual = C1.dual()
        with within(1):
            basis = cn.hilbert_basis(dual)
        assert len(basis) == 28

    def test_separating_character_across_a_facet(self):
        # c2 shares the facet on the first two rays and lies across it
        c2 = cn.cone([[3, -3, -2], [-3, 2, -3], [2, 1, -2]], 3)
        with within(1):
            m = cn.separating_character(C1, c2)
        assert cn._separates(m, C1, c2)
        assert m in cn.hilbert_basis(C1.dual()).vectors

    def test_separating_character_of_cones_without_a_common_face(self):
        c2 = cn.cone([[-2, -1, 2], [-3, -1, -2], [-3, 2, -3]], 3)
        with within(1), pytest.raises(ValueError, match="common face"):
            cn.separating_character(C1, c2)
