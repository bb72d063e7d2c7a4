"""One incidence per cone: the zero sets of the double description.

A Cone keeps, for each dual ray, the bitmask of its generators tight on
that ray, and reads pointedness, its rays, its faces, relative-interior
membership and ``is_face_of`` off those masks, and a Fan reads its faces
(``Fan.faces``, ``Fan.cone_of``) off the masks of its maximal cones. The
oracles in conftest.py are the dot-product incidences these replaced;
they are compared here on seeded cones in Z^0 to Z^4 and seeded fans.
"""

import random

import pytest
from conftest import (containment_all_cones, normal_faces, normal_is_face_of,
                      normal_rays, paired_contains_in_relint, rank_is_pointed)

from toric_kernel import cones as cn
from toric_kernel import fans as fn
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl


def vec(rng, n, lo=-3, hi=3):
    return [rng.randint(lo, hi) for _ in range(n)]


def random_cone(rng, n):
    """A cone in Z^n of one of five kinds: zero, random generators,
    lower-dimensional, non-pointed, or with redundant generators."""
    kind = rng.choice(["zero", "random", "lower", "non-pointed", "redundant"])
    if kind == "zero" or n == 0:
        return cn.cone([[0] * n] * rng.randint(0, 2), n)
    gens = [vec(rng, n) for _ in range(rng.randint(1, n + 3))]
    if kind == "lower":
        basis = [vec(rng, n) for _ in range(rng.randint(1, max(1, n - 1)))]
        gens = [[sum(c * b[i] for c, b in zip(vec(rng, len(basis), -2, 2), basis))
                 for i in range(n)] for _ in range(rng.randint(1, n + 2))]
    elif kind == "non-pointed":
        gens.append([-x for x in rng.choice(gens)])
    elif kind == "redundant":
        gens += [zl.vadd(a, b) for a, b in zip(gens, gens[1:])]
        gens.append([2 * x for x in gens[0]])
    return cn.cone(gens, n)


def seeded_cones(seed, count):
    rng = random.Random(seed)
    return [random_cone(rng, n) for n in range(5) for _ in range(count)]


def test_the_seeded_cones_have_every_kind():
    cones = seeded_cones(0, 60)
    assert any(not c.generators for c in cones)
    assert any(c.generators and c.dim < c.ambient_dim for c in cones)
    assert any(not rank_is_pointed(c) for c in cones)
    assert any(rank_is_pointed(c) and len(normal_rays(c)) < len(c.generators)
               for c in cones)


class TestConeAgainstDotProducts:
    @pytest.mark.parametrize("seed", range(4))
    def test_is_pointed_and_rays(self, seed):
        for sigma in seeded_cones(seed, 60):
            assert sigma.is_pointed == rank_is_pointed(sigma)
            if sigma.is_pointed:
                assert sigma.rays() == normal_rays(sigma)
            else:
                with pytest.raises(ValueError):
                    sigma.rays()

    @pytest.mark.parametrize("seed", range(4))
    def test_faces(self, seed):
        for sigma in seeded_cones(100 + seed, 25):
            new, old = sigma.faces(), normal_faces(sigma)
            assert [f.generators for f in new] == [f.generators for f in old]
            assert [(f.dual_lineality, f.dual_rays) for f in new] == \
                [(f.dual_lineality, f.dual_rays) for f in old]

    @pytest.mark.parametrize("seed", range(4))
    def test_contains_in_relint(self, seed):
        rng = random.Random(200 + seed)
        for sigma in seeded_cones(200 + seed, 40):
            n = sigma.ambient_dim
            points = [[0] * n, vec(rng, n)] + [list(g) for g in sigma.generators]
            for _ in range(4):
                points.append([sum(x) for x in zip([0] * n, *(
                    g for g in sigma.generators if rng.random() < 0.6))])
            for v in points:
                assert sigma.contains_in_relint(v) == paired_contains_in_relint(sigma, v)

    @pytest.mark.parametrize("seed", range(4))
    def test_is_face_of(self, seed):
        rng = random.Random(300 + seed)
        for sigma in seeded_cones(300 + seed, 20):
            n = sigma.ambient_dim
            taus = normal_faces(sigma) + [random_cone(rng, n) for _ in range(3)]
            taus.append(cn.cone([g for g in sigma.generators if rng.random() < 0.5], n))
            for tau in taus:
                assert cn.is_face_of(tau, sigma) == normal_is_face_of(tau, sigma)


def full_polytope(rng, n):
    while True:
        P = pt.hull([vec(rng, n, 0, 2) for _ in range(rng.randint(n + 1, n + 4))])
        if P.is_full_dim:
            return P


def seeded_fans(seed):
    """Normal fans of random polytopes in dimensions 1 to 3, their star
    subdivisions at smooth maximal cones, and products."""
    rng = random.Random(seed)
    fans = []
    for n in (1, 2, 2, 3):
        F = fn.normal_fan(full_polytope(rng, n))
        fans.append(F)
        smooth = [k for k, c in enumerate(F._max_objs) if c.is_smooth]
        if smooth:
            S = fn.star_subdivision(F, rng.choice(smooth))
            fans.append(S)
            smooth = [k for k, c in enumerate(S._max_objs) if c.is_smooth]
            if smooth:
                fans.append(fn.star_subdivision(S, rng.choice(smooth)))
    fans.append(fn.product_fan(fans[0], fans[1]))
    fans.append(fn.product_fan(fans[1], fans[0]))
    return fans


@pytest.mark.parametrize("seed", range(4))
def test_all_cones_against_containment(seed):
    for F in seeded_fans(seed):
        new, old = F.faces(), containment_all_cones(F)
        assert sorted(new) == sorted(old)
        for ixs, d in new.items():
            assert d == old[ixs].dim
            c = F.cone_of(ixs)
            assert c.generators == old[ixs].generators
            assert (c.dual_lineality, c.dual_rays) == \
                (old[ixs].dual_lineality, old[ixs].dual_rays)


def repeated_constraints(rng, n):
    """Random constraints of rank n, with repeats and scaled copies."""
    while True:
        cons = [vec(rng, n) for _ in range(rng.randint(n, n + 4))]
        cons = [u for u in cons if any(u)]
        for u in list(cons):
            r = rng.random()
            if r < 0.3:
                cons.append(list(u))
            elif r < 0.6:
                cons.append([rng.randint(2, 3) * x for x in u])
        rng.shuffle(cons)
        if cons and zl.rank(cons) == n:
            return cons


@pytest.mark.parametrize("seed", range(4))
def test_double_description_finds_each_ray_once(seed):
    rng = random.Random(400 + seed)
    for _ in range(120):
        n = rng.randint(1, 4)
        cons = repeated_constraints(rng, n)
        pairs = cn._dual_rays_with_zero_sets(cons, n)
        rays = [tuple(r) for r, _ in pairs]
        assert len(set(rays)) == len(rays)
        for r, Z in pairs:
            assert Z == sum(1 << i for i, u in enumerate(cons) if zl.dot(u, r) == 0)


@pytest.mark.parametrize("seed", range(4))
def test_halfspace_zero_sets_on_both_branches(seed):
    rng = random.Random(500 + seed)
    for _ in range(100):
        n = rng.randint(1, 4)
        cons = [vec(rng, n) for _ in range(rng.randint(1, n + 3))]
        cons += [[2 * x for x in u] for u in cons if rng.random() < 0.3]
        lin, rays, zero_sets = cn.halfspace_generators(cons, n)
        nonzero = [u for u in cons if any(u)]
        assert rays == sorted(rays)
        assert len({tuple(r) for r in rays}) == len(rays)
        assert zero_sets == [sum(1 << i for i, u in enumerate(nonzero)
                                 if zl.dot(u, r) == 0) for r in rays]
