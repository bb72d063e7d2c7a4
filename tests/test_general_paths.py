"""Face, volume and predicate queries on the data a cone already keeps.

``fans.is_complete`` and ``fans.is_refinement`` count each ridge's maximal
cones on one Counter of facet masks read off the zero sets
(``fans._ridges``), ``cones.is_face_of`` checks the smallest face
it cuts out without building a cone, both volumes share one determinant
total, and ``is_normal``, ``is_very_ample`` and ``is_smooth`` work on
the polytope's own cones instead of its full-dimensional projection.
The oracles in conftest.py are those queries as they ran before; they
are compared here on seeded fans, cones and embedded polytopes. The
last tests pin the edge cases of branches that were folded into the
general path: the rank of empty matrices and the toric ideal of a
configuration with no kernel.
"""

import random

import pytest
from conftest import (all_cones_is_complete, faces_is_refinement,
                      fraction_normalized_volume, fraction_volume,
                      normal_fan_38_rays, projected_is_normal,
                      projected_is_smooth, projected_is_very_ample,
                      rebuilt_is_face_of)

from toric_kernel import cones as cn
from toric_kernel import fans as fn
from toric_kernel import ideals as il
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl


def random_polytope(rng, n, lo=0, hi=3, count=None):
    """A polytope in Z^n; for n >= 1 full-dimensional, retrying draws."""
    while True:
        P = pt.hull([[rng.randint(lo, hi) for _ in range(n)]
                     for _ in range(count or rng.randint(n + 1, n + 4))])
        if P.is_full_dim:
            return P


def subfan(F, picks):
    """The fan on the maximal cones of F at the given positions, built
    and validated by fn.fan on the rays those cones use."""
    cones = [F.maximal_cones[k] for k in picks]
    used = sorted({i for I in cones for i in I})
    return fn.fan([F.rays[i] for i in used],
                  [[used.index(i) for i in I] for I in cones], F.ambient_dim)


def smooth_full_index(F):
    n = F.ambient_dim
    return next((k for k, c in enumerate(F._max_objs)
                 if c.dim == n and c.is_smooth), None)


def seeded_fans(seed):
    """Fans of every construction: normal fans of 2- and 3-polytopes and
    of a Minkowski sum, star subdivisions (one of them less a cone),
    products, star quotients, incomplete fans from subsets of maximal
    cones, the fans of the zero cone in Z^2 and Z^0 and 1-dimensional
    fans. Each entry is (fan, fans it may be compared with for
    refinement). The seed "38 rays" gives the 38-ray normal fan and that
    fan without its last maximal cone instead."""
    if seed == "38 rays":
        family = list(normal_fan_38_rays())
        return [(X, family) for X in family]
    rng = random.Random(seed)
    out = []
    for n in (2, 3):
        P = random_polytope(rng, n)
        Q = random_polytope(rng, n, hi=2)
        F = fn.normal_fan(P)
        G = fn.normal_fan(Q)
        S = fn.normal_fan(pt.minkowski_sum(P, Q))
        family = [F, G, S]
        k = smooth_full_index(F)
        if k is not None:
            T = fn.star_subdivision(F, k)
            # without one of its new cones, T leaves a gap inside cone k of F
            family += [T, fn._trusted_fan(T.rays, T.maximal_cones[:-1], n)]
        k = smooth_full_index(S)
        if k is not None:
            family.append(fn.star_subdivision(S, k))
        m = len(F.maximal_cones)
        picks = sorted(rng.sample(range(m), rng.randint(1, m - 1)))
        family.append(subfan(F, picks))
        family.append(subfan(F, picks[:1]))
        out.extend((X, family) for X in family)
        for tau in rng.sample(sorted(F.faces()), 3):
            Fq, _ = fn.star_quotient_fan(F, tau)
            out.append((Fq, [Fq]))
    P1 = fn.normal_fan(random_polytope(rng, 1, hi=4))
    P2 = fn.normal_fan(random_polytope(rng, 2, hi=2))
    prod = fn.product_fan(P1, P2)
    family = [prod, fn.product_fan(P2, P1), fn.normal_fan(pt.hull([[0] * 3] + [
        [int(i == j) for j in range(3)] for i in range(3)]))]
    k = smooth_full_index(prod)
    if k is not None:
        family.append(fn.star_subdivision(prod, k))
    family.append(subfan(prod, [0, len(prod.maximal_cones) - 1]))
    out.extend((X, family) for X in family)
    zero = fn.fan([], [[]], 2)
    out.append((zero, [zero, fn.normal_fan(pt.hull([[0, 0], [1, 0], [0, 1]]))]))
    line = fn.fan([[1], [-1]], [[0], [1]], 1)
    ray = fn.fan([[1]], [[0]], 1)
    point = fn.fan([], [[]], 0)
    out.extend([(line, [line, ray]), (ray, [line, ray]), (point, [point])])
    return out


class TestFansAgainstAllCones:
    @pytest.mark.parametrize("seed", [*range(6), "38 rays"])
    def test_is_complete(self, seed):
        for F, _ in seeded_fans(seed):
            assert fn.is_complete(F) == all_cones_is_complete(F)

    @pytest.mark.parametrize("seed", [*range(6), "38 rays"])
    def test_is_refinement(self, seed):
        for F, family in seeded_fans(seed):
            for G in family:
                assert fn.is_refinement(F, G) == faces_is_refinement(F, G)

    def test_the_seeded_fans_give_both_answers(self):
        complete, refines = set(), set()
        for seed in range(6):
            for F, family in seeded_fans(seed):
                complete.add(fn.is_complete(F))
                refines.update(fn.is_refinement(F, G) for G in family if G is not F)
        assert complete == refines == {True, False}


def random_cone(rng, n):
    """A cone in Z^n on random generators, pointed or not, or a
    lower-dimensional one on combinations of fewer vectors."""
    gens = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, n + 3))]
    if rng.random() < 0.3 and n > 1:
        basis = gens[:rng.randint(1, n - 1)]
        gens = [[sum(rng.randint(0, 2) * b[i] for b in basis) for i in range(n)]
                for _ in range(rng.randint(1, n + 2))]
    return cn.cone(gens, n)


class TestIsFaceOf:
    @pytest.mark.parametrize("seed", range(4))
    def test_against_the_rebuilt_cone(self, seed):
        rng = random.Random(seed)
        answers, pointed = set(), set()
        for n in range(1, 5):
            for _ in range(15):
                sigma = random_cone(rng, n)
                pointed.add(sigma.is_pointed)
                candidates = sigma.faces()
                gens = sigma.generators
                # non-faces: subsets of the generators, other cones, and
                # cones that stick out of sigma
                for _ in range(4):
                    sub = [g for g in gens if rng.random() < 0.5]
                    candidates.append(cn.cone(sub, n))
                candidates.append(random_cone(rng, n))
                candidates.append(cn.cone(gens + [[rng.randint(-2, 2) for _ in range(n)]], n))
                for tau in candidates:
                    got = cn.is_face_of(tau, sigma)
                    assert got == rebuilt_is_face_of(tau, sigma)
                    answers.add(got)
        assert answers == pointed == {True, False}


def embedded_polytope(rng, d, n):
    """A polytope of dimension at most d in Z^n: a random polytope in
    Z^d sent by a random integer n x d map of rank d plus an offset."""
    while True:
        L = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
        if zl.rank(L) == d:
            break
    x0 = [rng.randint(-5, 5) for _ in range(n)]
    pts = [[rng.randint(0, 2) for _ in range(d)] for _ in range(rng.randint(1, d + 3))]
    return pt.hull([zl.vadd(x0, zl.mat_vec(L, p)) for p in pts])


def seeded_polytopes(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        d = rng.choice([0, 1, 1, 2, 2, 2, 3, 3, 3, 3])
        out.append(embedded_polytope(rng, d, d + rng.randint(0, 2)))
    return out


class TestPolytopesAgainstProjection:
    @pytest.mark.parametrize("seed", range(5))
    def test_predicates_and_volumes(self, seed):
        for P in seeded_polytopes(seed, 60):
            assert pt.is_normal(P) == projected_is_normal(P)
            assert pt.is_very_ample(P) == projected_is_very_ample(P)
            assert pt.is_smooth(P) == projected_is_smooth(P)
            nv = pt.normalized_volume(P)
            assert type(nv) is int and nv == fraction_normalized_volume(P)
            assert pt.volume(P) == fraction_volume(P)

    def test_the_seeded_polytopes_cover_every_case(self):
        polys = [P for seed in range(5) for P in seeded_polytopes(seed, 60)]
        assert len(polys) >= 250
        dims = {(P.dim, P.is_full_dim) for P in polys}
        assert {(0, False), (1, False), (2, False), (3, False), (2, True)} <= dims
        assert {pt.is_normal(P) for P in polys} == {True, False}
        assert {pt.is_very_ample(P) for P in polys} == {True, False}
        assert {pt.is_smooth(P) for P in polys} == {True, False}

    def test_tilted_reeve_tetrahedron(self):
        # conv(0, e1, e2, (1, 1, 3)) sent into Z^4 by a rank-3 map plus an offset
        P = pt.hull([[5, -2, 7, 1], [6, -2, 7, 2], [5, -1, 7, 2], [6, -1, 10, 6]])
        assert P.dim == 3 and not P.is_full_dim
        assert not pt.is_normal(P) and not pt.is_very_ample(P)
        assert pt.normalized_volume(P) == 3 and pt.volume(P) == 0


class TestNoConeIsBuilt:
    def test_face_and_fan_queries(self, monkeypatch):
        rng = random.Random(3)
        F = fn.normal_fan(random_polytope(rng, 3))
        while smooth_full_index(F) is None:
            F = fn.normal_fan(random_polytope(rng, 3))
        S = fn.star_subdivision(F, smooth_full_index(F))
        sigma = F.max_cone(0)
        taus = sigma.faces()
        built = []
        real = cn.cone

        def spy(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cn, "cone", spy)
        assert fn.is_complete(F) and fn.is_complete(S)
        assert fn.is_refinement(S, F) and fn.is_refinement(F, F)
        assert all(cn.is_face_of(tau, sigma) for tau in taus)
        assert built == []


class TestFoldedBranches:
    @pytest.mark.parametrize("M", [[], [[]], [[], []]])
    def test_rank_of_empty_matrices(self, M):
        assert zl.rank(M) == 0

    def test_rank_of_a_ragged_matrix_raises(self):
        with pytest.raises(ValueError):
            zl.rank([[1, 2], [3]])

    @pytest.mark.parametrize("A", [
        [[1, 1, 1], [0, 1, 2], [0, 0, 1]],      # homogeneous: a row of ones
        [[1, 0], [0, 1]],
        [[2, 0, 1], [0, 3, 1], [1, 1, 0]],      # no row of ones in its row span
        [[1], [-2]],
    ])
    @pytest.mark.parametrize("graded", [True, False])
    def test_toric_ideal_without_a_kernel(self, A, graded, monkeypatch):
        # independent columns span a pointed cone and none is zero, so A
        # is graded; the ungraded path is reached by hiding the grading
        assert zl.kernel_basis(A) == [[] for _ in A[0]]
        assert il._positive_grading(A) is not None
        if not graded:
            monkeypatch.setattr(il, "_positive_grading", lambda A: None)
        assert il.toric_ideal(A) == []
