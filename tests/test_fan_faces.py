"""Fan lookups off one smallest-face cut.

A Fan names its faces by ray-index tuples read off the face masks of its
maximal cones, and answers every smallest-cone lookup (the cone whose
relative interior holds a point, the cone an image lands in, whether ray
indices name a cone) with ``Cone.smallest_face`` on the first maximal cone
that holds the vectors. The oracles in conftest.py build one Cone per face
instead; they are compared here on seeded fans: normal fans in Z^1 to Z^3,
star subdivisions, products, star quotients, subfans and skeletons.
"""

import random
from unittest import mock

import pytest
from conftest import (any_cone_is_compatible, intersected_image_cone,
                      normal_fan_38_rays, rebuilt_all_cones, rebuilt_orbit_table,
                      scanned_cone_containing_relint)

from toric_kernel import cones as cn
from toric_kernel import fans as fn
from toric_kernel import polytopes as pt


def full_polytope(rng, n):
    while True:
        P = pt.hull([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n + 3)])
        if P.is_full_dim:
            return P


def subfan(F, cones):
    """The fan of some cones of F, none inside another, through fans.fan."""
    used = sorted({i for I in cones for i in I})
    return fn.fan([F.rays[i] for i in used], [[used.index(i) for i in I] for I in cones],
                  F.ambient_dim)


def seeded_fans(seed):
    """Pairs (fan, family): the fans of one family share an ambient lattice
    and include a complete one, so the identity maps between them are
    compatible some of the time."""
    rng = random.Random(seed)
    out = []
    for n in (1, 2, 3, 3):
        F = fn.normal_fan(full_polytope(rng, n))
        family = [F]
        smooth = [k for k, c in enumerate(F._max_objs) if c.is_smooth]
        if smooth and n > 1:
            family.append(fn.star_subdivision(F, rng.choice(smooth)))
        m = len(F.maximal_cones)
        family.append(subfan(F, rng.sample(F.maximal_cones, rng.randint(1, m - 1))))
        faces = [I for I, d in F.faces().items() if 1 <= d <= 2]
        chosen = rng.sample(faces, rng.randint(1, min(5, len(faces))))
        family.append(subfan(F, [I for I in chosen
                                 if not any(set(I) < set(J) for J in chosen)]))
        out.extend((X, family) for X in family)
        for tau in rng.sample(sorted(F.faces()), 2):
            Fq, _ = fn.star_quotient_fan(F, tau)
            out.append((Fq, [Fq]))
    P1 = fn.normal_fan(full_polytope(rng, 1))
    P2 = fn.normal_fan(full_polytope(rng, 2))
    products = [fn.product_fan(P1, P2), fn.product_fan(P2, P1)]
    out.extend((X, products) for X in products)
    return out


def points(rng, F, count):
    """Random points of the ambient lattice, and positive combinations of
    the rays of random faces, which lie in their relative interiors."""
    n = F.ambient_dim
    pts = [[0] * n] + [[rng.randint(-4, 4) for _ in range(n)] for _ in range(count)]
    for I in rng.sample(sorted(F.faces()), min(count, len(F.faces()))):
        u = [0] * n
        for i in I:
            u = [a + rng.randint(1, 3) * b for a, b in zip(u, F.rays[i])]
        pts.append(u)
    return pts


def index_tuples(rng, F, count):
    """Faces, random tuples of ray indices, repeats and an index past the end."""
    k = len(F.rays)
    out = sorted(F.faces())
    for _ in range(count):
        out.append(tuple(rng.randrange(k) for _ in range(rng.randint(1, 3))) if k else ())
    return out + [(k,), (0, 0)]


@pytest.mark.parametrize("seed", [*range(4), "38 rays"])
def test_faces_and_orbits_against_rebuilt_cones(seed):
    fans = normal_fan_38_rays() if seed == "38 rays" else [F for F, _ in seeded_fans(seed)]
    for F in fans:
        old = rebuilt_all_cones(F)
        new = F.faces()
        assert sorted(new) == sorted(old)
        assert all(new[I] == c.dim for I, c in old.items())
        assert fn.orbit_table(F) == rebuilt_orbit_table(F)


@pytest.mark.parametrize("seed", range(4))
def test_cone_containing_relint_against_scan(seed):
    rng = random.Random(100 + seed)
    for F, _ in seeded_fans(seed):
        for u in points(rng, F, 6):
            assert fn.cone_containing_relint(F, u) == scanned_cone_containing_relint(F, u)


@pytest.mark.parametrize("seed", range(4))
def test_cone_of_and_star_quotient_name_the_same_cones(seed):
    rng = random.Random(200 + seed)
    for F, _ in seeded_fans(seed):
        old = rebuilt_all_cones(F)
        for ixs in index_tuples(rng, F, 6):
            if tuple(sorted(ixs)) in old:
                c = F.cone_of(ixs)
                assert c.generators == old[tuple(sorted(ixs))].generators
                assert c.dual_rays == old[tuple(sorted(ixs))].dual_rays
                fn.star_quotient_fan(F, ixs)
            else:
                with pytest.raises(ValueError, match="do not name a cone"):
                    F.cone_of(ixs)
                with pytest.raises(ValueError, match="do not name a cone"):
                    fn.star_quotient_fan(F, ixs)


def maps(rng, F1, family):
    """(matrix, target) pairs: the identity into each fan of the family,
    and random maps into the family's first fan and into a fan of a
    smaller lattice."""
    n = F1.ambient_dim
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    out = [(eye, F2) for F2 in family]
    for F2 in (family[0], fn.normal_fan(full_polytope(rng, max(1, n - 1)))):
        m = F2.ambient_dim
        out.append(([[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)], F2))
    return out


@pytest.mark.parametrize("seed", range(4))
def test_image_cone_and_compatibility_against_intersection(seed):
    rng = random.Random(300 + seed)
    for F1, family in seeded_fans(seed):
        for A, F2 in maps(rng, F1, family):
            assert fn.is_compatible(A, F1, F2) == any_cone_is_compatible(A, F1, F2)
            for I in F1.faces():
                sigma = F1.cone_of(I)
                assert fn.image_cone(A, F2, sigma) == intersected_image_cone(A, F2, sigma)


def test_lookups_build_no_cone():
    """The lookups read the maximal cones a fan already holds: no double
    description runs, not even for a tau that is not a cone."""
    F = fn.normal_fan(pt.hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                               [2, 2, 1], [1, 2, 2]]))
    S = fn.star_subdivision(F, next(k for k, c in enumerate(F._max_objs) if c.is_smooth))
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    sigma = S.cone_of(S.maximal_cones[0])
    not_a_cone = next((a, b) for a in range(len(F.rays)) for b in range(a)
                      if (b, a) not in F.faces())
    with mock.patch.object(cn, "cone", wraps=cn.cone) as cone, \
            mock.patch.object(cn, "halfspace_generators",
                              wraps=cn.halfspace_generators) as dd:
        fn.orbit_table(F)
        fn.cone_containing_relint(F, [1, 2, 3])
        fn.cone_containing_relint(F, [0, 0, 0])
        assert fn.image_cone(eye, F, sigma) is not None
        assert fn.is_compatible(eye, S, F)
        with pytest.raises(ValueError, match="do not name a cone"):
            fn.star_quotient_fan(F, not_a_cone)
    assert cone.call_count == 0
    assert dd.call_count == 0


def test_star_quotient_builds_each_image_cone_once():
    """The normal fan of the hull of 40 points in [-6,6]^3 (38 rays): its
    star quotient at ray 0 has 3 maximal cones, and each image cone is one
    double description, kept on its rays rather than built again."""
    F, _ = normal_fan_38_rays()
    assert len(F.rays) == 38
    with mock.patch.object(cn, "cone", wraps=cn.cone) as cone:
        G, _ = fn.star_quotient_fan(F, (0,))
    assert len(G.maximal_cones) == 3
    assert cone.call_count == 3
    checked = fn.fan(G.rays, G.maximal_cones, G.ambient_dim)
    assert G.maximal_cones == checked.maximal_cones
    for a, b in zip(G._max_objs, checked._max_objs, strict=True):
        assert (a.generators, a.dual_rays, a.zero_sets) == (b.generators, b.dual_rays, b.zero_sets)
