"""Cones: duality, faces, predicates, Hilbert bases, separation."""

import random
from itertools import combinations, permutations

import pytest
from conftest import recursive_semigroup_member, within
from hypothesis import given, settings, strategies as st

from toric_kernel import cones as cn
from toric_kernel import zlattice as zl


def C(*gens):
    return cn.cone([list(g) for g in gens], len(gens[0]) if gens else 2)


class TestConstruction:
    def test_facets_of_claudia_cone(self):
        sigma = C((0, 1), (1, 2), (2, 1))
        # x1 >= 0 and -x1 + 2 x2 >= 0
        assert sorted(map(tuple, sigma.facet_normals)) == [(-1, 2), (1, 0)]

    def test_zero_cone(self):
        z = cn.cone([], 2)
        assert z.dim == 0
        assert z.is_pointed
        assert z.contains([0, 0]) and not z.contains([1, 0])

    def test_orthant_self_dual(self):
        o = C((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert o.dual() == o

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cn.cone([[1, 0, 0]], 2)


class TestDual:
    def test_paper_pair(self):
        sigma = C((0, 1), (2, 1))
        assert sigma.dual() == C((1, 0), (-1, 2))

    def test_halfplane(self):
        h = C((1, 0), (-1, 0), (0, 1))
        assert not h.is_pointed
        d = h.dual()
        assert d == C((0, 1))

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                              st.integers(-5, 5)),
                    min_size=1, max_size=5))
    @settings(max_examples=80, deadline=None)
    def test_biduality(self, gens):
        gens = [list(g) for g in gens if any(g)]
        sigma = cn.cone(gens, 3)
        assert sigma.dual().dual() == sigma

    def test_pointed_iff_dual_full_dim(self):
        for gens in [[(1, 0), (0, 1)], [(1, 0), (-1, 0)], [(1, 1)],
                     [(1, 0), (-1, 2), (0, -1)]]:
            sigma = C(*gens)
            assert sigma.is_pointed == sigma.dual().is_full_dim


class TestFaces:
    def test_character_face(self):
        sigma = C((0, 1), (1, 2), (2, 1))
        tau = sigma.face_from_character([-1, 2])
        assert tau == C((2, 1))

    def test_zero_character(self):
        sigma = C((0, 1), (2, 1))
        assert sigma.face_from_character([0, 0]) == sigma

    def test_invalid_character(self):
        sigma = C((0, 1), (2, 1))
        with pytest.raises(ValueError):
            sigma.face_from_character([-1, 0])

    def test_orthant_count(self):
        o = C((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert len(o.faces()) == 8

    def test_face_lattice_brute_force(self):
        # subsets of rays that arise as tight sets of a supporting character
        test_cones = [
            C((0, 1), (1, 2), (2, 1)),
            C((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)),
            C((1, 0), (1, 2)),
        ]
        for sigma in test_cones:
            rays = sigma.rays()
            normals = sigma.facet_normals
            found = set()
            from itertools import combinations
            for r in range(len(rays) + 1):
                for S in combinations(range(len(rays)), r):
                    m = [0] * sigma.ambient_dim
                    for nm in normals:
                        if all(zl.dot(nm, rays[i]) == 0 for i in S):
                            m = zl.vadd(m, nm)
                    tight = tuple(i for i in range(len(rays))
                                  if zl.dot(m, rays[i]) == 0)
                    if tight == S:
                        found.add(S)
            assert len(sigma.faces()) == len(found)


def old_faces(sigma):
    """The loop over all subsets of facet normals that Cone.faces
    replaced, kept verbatim as a differential oracle."""
    n = sigma.ambient_dim
    normals = sigma.facet_normals
    seen = {}
    for r in range(len(normals) + 1):
        for S in combinations(range(len(normals)), r):
            tight = [g for g in sigma.generators
                     if all(zl.dot(normals[i], g) == 0 for i in S)]
            key = frozenset(tuple(g) for g in tight)
            if key not in seen:
                seen[key] = cn.cone(tight, n)
    out = list(seen.values())
    out.sort(key=lambda c: (c.dim, sorted(tuple(g) for g in c.generators)))
    return out


class TestFacesAgainstSubsetLoop:
    def test_same_faces_in_the_same_order(self):
        # pointed, non-pointed, lower-dimensional and zero cones in Z^1-Z^4
        rng = random.Random(20261112)
        for _ in range(400):
            n = rng.randint(1, 4)
            gens = [[rng.randint(-2, 2) for _ in range(n)]
                    for _ in range(rng.randint(0, n + 2))]
            sigma = cn.cone(gens, n)
            new, old = sigma.faces(), old_faces(sigma)
            assert [f.generators for f in new] == [f.generators for f in old], gens
            assert [(f.dual_lineality, f.dual_rays) for f in new] == \
                [(f.dual_lineality, f.dual_rays) for f in old]

    def test_permutation_cone_within_budget(self):
        # 24 generators, 14 facets and 76 faces; the subset loop took
        # about 4 s here
        sigma = cn.cone([list(p) + [1] for p in permutations([1, 2, 3, 4])], 5)
        with within(0.5):
            faces = sigma.faces()
        assert len(faces) == 76


class TestPredicates:
    def test_paper_cone(self):
        sigma = C((0, 1), (2, 1))
        assert sigma.is_pointed
        assert sigma.is_simplicial
        assert not sigma.is_smooth

    def test_orthant_smooth(self):
        assert C((1, 0), (0, 1)).is_smooth

    def test_four_ray_cone(self):
        sigma = C((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1))
        assert len(sigma.rays()) == 4
        assert not sigma.is_simplicial

    def test_redundant_generator_dropped(self):
        sigma = C((0, 1), (1, 2), (2, 1))
        assert sorted(map(tuple, sigma.rays())) == [(0, 1), (2, 1)]

    def test_ray_primitivized(self):
        sigma = cn.cone([[0, 2], [0, 3]], 2)
        assert sigma.rays() == [[0, 1]]

    def test_rays_of_nonpointed(self):
        with pytest.raises(ValueError):
            C((1, 0), (-1, 0)).rays()


class TestHilbert:
    def test_claudia2(self):
        sigma = C((1, 0), (-1, 2))
        hb = cn.hilbert_basis(sigma)
        assert sorted(map(tuple, hb.vectors)) == [(-1, 2), (0, 1), (1, 0)]

    def test_smooth_cone_rays_only(self):
        sigma = C((1, 0), (0, 1))
        assert sorted(map(tuple, cn.hilbert_basis(sigma).vectors)) == [(0, 1), (1, 0)]

    def test_non_full_dim(self):
        sigma = C((1, 1, 2))
        assert cn.hilbert_basis(sigma).vectors == [[1, 1, 2]]

    def test_irreducibility_and_generation(self):
        sigma = C((1, 0), (1, 4))
        hb = cn.hilbert_basis(sigma)
        vecs = [tuple(v) for v in hb.vectors]
        # no element is a sum of two nonzero basis elements
        sums = {tuple(zl.vadd(list(a), list(b))) for a in vecs for b in vecs}
        assert not (set(vecs) & sums)
        # generation spot check on a small patch of the cone
        for x in range(5):
            for y in range(5):
                inside = all(zl.dot(m, [x, y]) >= 0 for m in sigma.facet_normals)
                if inside:
                    assert cn.semigroup_member(hb.vectors, [x, y]) is not None

    def test_smooth_dual_count_matches_dim(self):
        for gens in [[(1, 0), (0, 1)], [(1, 0), (1, 1)],
                     [(1, 0, 0), (0, 1, 0), (0, 0, 1)]]:
            sigma = C(*gens)
            if sigma.is_smooth and sigma.is_full_dim:
                assert len(cn.hilbert_basis(sigma.dual())) == sigma.dim

    def test_nonpointed_rejected(self):
        with pytest.raises(ValueError):
            cn.hilbert_basis(C((1, 0), (-1, 0)))


class TestSemigroupMember:
    def test_zero_target(self):
        assert cn.semigroup_member([[2], [3]], [0]) == [0, 0]

    def test_gap(self):
        assert cn.semigroup_member([[2], [3]], [1]) is None

    def test_seven(self):
        assert cn.semigroup_member([[2], [3]], [7]) == [2, 1]

    def test_vector_case(self):
        got = cn.semigroup_member([[1, 0], [0, 1], [1, 1]], [3, 2])
        assert got is not None
        total = [0, 0]
        for c, g in zip(got, [[1, 0], [0, 1], [1, 1]]):
            total = zl.vadd(total, zl.vscale(c, g))
        assert total == [3, 2]

    def test_same_coefficients_as_the_recursive_search(self):
        # the stack walks the same order, bound down to 0 with the first
        # hit kept, so every answer is the oracle's exact vector
        rng = random.Random(20261019)
        outcomes = {"found": 0, "none": 0, "raised": 0}
        for _ in range(300):
            n = rng.randint(1, 3)
            gens = [[rng.randint(-2, 3) for _ in range(n)]
                    for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.2:
                gens.insert(rng.randrange(len(gens) + 1), [0] * n)
            targets = [[rng.randint(-2, 6) for _ in range(n)]]
            coeffs = [rng.randint(0, 3) for _ in gens]
            targets.append([sum(c * g[j] for c, g in zip(coeffs, gens))
                            for j in range(n)])
            for t in targets:
                try:
                    want = recursive_semigroup_member(gens, t)
                except ValueError:
                    with pytest.raises(ValueError, match="non-pointed"):
                        cn.semigroup_member(gens, t)
                    outcomes["raised"] += 1
                    continue
                assert cn.semigroup_member(gens, t) == want, (gens, t)
                outcomes["none" if want is None else "found"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_depth_past_the_recursion_limit(self):
        # only the last of 1,200 generators reaches the target, so the
        # search holds one frame per generator
        gens = [[1, k] for k in range(1200)]
        with within(2):
            got = cn.semigroup_member(gens, [1, 1199])
        assert got == [0] * 1199 + [1]


class TestDualSemigroupDecompose:
    def test_every_lineality_rank_takes_one_path(self):
        # pointed cones of every dimension 0..n in Z^1..Z^3, so the dual
        # lineality runs from rank n (the zero cone) to 0: the answer
        # writes an integer target over dual_semigroup_generators with
        # nonnegative coefficients exactly when it lies in the dual cone
        rng = random.Random(20261020)
        ranks = set()
        for _ in range(150):
            n = rng.randint(1, 3)
            d = rng.randint(0, n)
            basis = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(d)]
            gens = [[sum(rng.randint(0, 2) * b[i] for b in basis) for i in range(n)]
                    for _ in range(rng.randint(1, n + 1))]
            sigma = cn.cone(gens, n)
            if not sigma.is_pointed:
                continue
            ranks.add((n, len(sigma.dual_lineality)))
            G = cn.dual_semigroup_generators(sigma)
            for _ in range(4):
                t = [rng.randint(-4, 4) for _ in range(n)]
                coeffs = cn.dual_semigroup_decompose(sigma, t)
                if coeffs is None:
                    assert not sigma.dual().contains(t), (gens, t)
                    continue
                assert len(coeffs) == len(G) and min(coeffs, default=0) >= 0
                total = [0] * n
                for c, g in zip(coeffs, G):
                    total = zl.vadd(total, zl.vscale(c, g))
                assert total == t, (gens, t)
        assert ranks >= {(n, ell) for n in range(1, 4) for ell in range(n + 1)}


class TestDistinguished:
    def test_full_dim_all_zero(self):
        dp = cn.distinguished_point(C((1, 0), (0, 1)))
        assert set(dp.values) == {0}
        assert C((1, 0), (0, 1)).is_full_dim

    def test_zero_cone_identity(self):
        dp = cn.distinguished_point(cn.cone([], 2))
        assert set(dp.values) == {1}
        assert not cn.cone([], 2).is_full_dim

    def test_single_ray(self):
        dp = cn.distinguished_point(C((1, 0)))
        for m, v in zip(dp.generator_set, dp.values):
            assert v == (1 if m[0] == 0 else 0)


class TestSeparation:
    def test_equal_cones(self):
        sigma = C((1, 0), (0, 1))
        assert cn.separating_character(sigma, sigma) == [0, 0]

    def test_blowup_pair(self):
        s1 = C((1, 0), (1, 1))
        s2 = C((0, 1), (1, 1))
        m = cn.separating_character(s1, s2)
        assert m in ([1, -1], [-1, 1])
        tau = cn.intersect(s1, s2)
        assert tau == C((1, 1))
        assert s1.face_from_character(m) == tau

    def test_sharing_ray(self):
        # two maximal cones of the plane fan sharing the ray (1, 0)
        s1 = C((1, 0), (0, 1))
        s2 = C((1, 0), (0, -1))
        m = cn.separating_character(s1, s2)
        assert all(zl.dot(m, g) >= 0 for g in s1.generators)
        assert all(zl.dot(m, g) <= 0 for g in s2.generators)
        tau = cn.intersect(s1, s2)
        assert s1.face_from_character(m) == tau

    def test_not_a_common_face(self):
        s1 = C((1, 0), (1, 2))
        s2 = C((1, 1), (0, 1))
        with pytest.raises(ValueError):
            cn.separating_character(s1, s2)
