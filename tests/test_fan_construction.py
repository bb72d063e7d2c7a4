"""Fans built by construction, without the pairwise validation.

``normal_fan``, ``star_subdivision``, ``product_fan`` and
``star_quotient_fan`` build fans that are fans by a theorem, so they go
through ``fans._trusted_fan``, which checks nothing. The oracle is the
same construction with ``_trusted_fan`` replaced by the validating
``fans.fan``: it must raise nothing and give the same rays, maximal
cones, generators and dual rays.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from conftest import normal_fan_38_rays
from hypothesis import assume, given, seed, settings, strategies as st

from toric_kernel import cones as cn
from toric_kernel import counting as ct
from toric_kernel import fans as fn
from toric_kernel import ideals as il
from toric_kernel import polytopes as pt


def validated(make, *args):
    """make(*args) with every fan it builds passed through fans.fan."""
    with mock.patch.object(fn, "_trusted_fan", fn.fan):
        return make(*args)


def assert_same_fan(F, G):
    assert F.ambient_dim == G.ambient_dim
    assert F.rays == G.rays
    assert F.maximal_cones == G.maximal_cones
    for a, b in zip(F._max_objs, G._max_objs, strict=True):
        assert a.generators == b.generators
        assert a.dual_rays == b.dual_rays
        assert a.dual_lineality == b.dual_lineality
        assert a.zero_sets == b.zero_sets


def assert_matches_validated(make, *args):
    built = make(*args)
    checked = validated(make, *args)
    if isinstance(built, tuple):  # star_quotient_fan: (fan, projection)
        assert built[1] == checked[1]
        built, checked = built[0], checked[0]
    assert_same_fan(built, checked)
    return built


@st.composite
def polytopes(draw, dims=(2, 4)):
    """Hull of a few random points in Z^n, full-dimensional. Half of
    them contain 0 and the unit vectors and lie in the positive orthant,
    so the vertex 0 has a smooth normal cone to subdivide."""
    n = draw(st.integers(*dims))
    rng = draw(st.randoms(use_true_random=False))
    if rng.random() < 0.5:
        pts = [[0] * n] + [[int(i == j) for j in range(n)] for i in range(n)]
        pts += [[rng.randint(0, 2) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    else:
        pts = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n + rng.randint(1, 3))]
    P = pt.hull(pts)
    assume(P.is_full_dim)
    return P


def smooth_indices(F):
    return [k for k, c in enumerate(F._max_objs) if c.is_full_dim and c.is_smooth]


class TestAgainstValidation:
    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(polytopes())
    def test_normal_fan(self, P):
        assert_matches_validated(fn.normal_fan, P)

    @seed(3303)
    @settings(max_examples=200, deadline=None)
    @given(polytopes(), st.randoms(use_true_random=False))
    def test_star_subdivision_twice(self, P, rng):
        """At every smooth full-dimensional cone, then again, in one of
        the results, at every cone through the new ray (all smooth)."""
        F = fn.normal_fan(P)
        firsts = [assert_matches_validated(fn.star_subdivision, F, k)
                  for k in smooth_indices(F)]
        if firsts:
            S = rng.choice(firsts)
            star = len(S.rays) - 1
            for k, I in enumerate(S.maximal_cones):
                if star in I:
                    assert_matches_validated(fn.star_subdivision, S, k)

    @seed(515)
    @settings(max_examples=200, deadline=None)
    @given(polytopes(dims=(2, 3)), polytopes(dims=(1, 2)))
    def test_product_fan(self, P, Q):
        assert_matches_validated(fn.product_fan, fn.normal_fan(P), fn.normal_fan(Q))

    @seed(9090)
    @settings(max_examples=200, deadline=None)
    @given(polytopes(dims=(2, 3)))
    def test_star_quotient_fan_at_every_cone(self, P):
        F = fn.normal_fan(P)
        for tau in F.faces():
            assert_matches_validated(fn.star_quotient_fan, F, tau)

    def test_star_subdivision_on_the_line_keeps_the_fan(self):
        F = fn.fan([[1], [-1]], [[0], [1]], 1)
        assert_same_fan(fn.star_subdivision(F, 0), fn.fan([[1], [-1]], [[1], [0]], 1))


def random_system(rng, n, terms, top):
    fs = []
    for _ in range(n):
        support = set()
        while len(support) < terms:
            support.add(tuple(rng.randint(0, top) for _ in range(n)))
        fs.append(il.LaurentPolynomial(
            n, {m: Fraction(rng.randint(1, 9)) for m in sorted(support)}))
    return fs


class TestNoPairValidation:
    def spy(self):
        return mock.patch.object(cn, "meet_in_common_face",
                                 wraps=cn.meet_in_common_face)

    def test_normal_fan_and_star_subdivision(self):
        P = pt.hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 2, 1], [1, 2, 2]])
        with self.spy() as m:
            F = fn.normal_fan(P)
            S = fn.star_subdivision(F, smooth_indices(F)[0])
            fn.product_fan(S, fn.normal_fan(pt.hull([[0], [1]])))
            fn.star_quotient_fan(S, S.maximal_cones[0][:1])
        assert m.call_count == 0
        # fan() still validates pairs: the first cone, enlarged by a ray
        # of the third, overlaps the third
        cones = [list(I) for I in F.maximal_cones]
        assert cones[0] == [2, 3, 5] and 4 in cones[2]
        with pytest.raises(ValueError) as err:
            fn.fan(F.rays, [cones[0] + [4]] + cones[1:], 3)
        assert str(err.value) == "maximal cones 1 and 3 do not intersect in a common face"

    def test_sign_masks_settle_most_pairs(self):
        """fan() on the 38-ray normal fan of 40 points in [-6,6]^3
        (random.Random(8)) sends at most 10 of its 210 pairs of maximal
        cones to the double description."""
        F, _ = normal_fan_38_rays()
        assert (len(F.rays), len(F.maximal_cones)) == (38, 21)
        with self.spy() as m:
            G = fn.fan(F.rays, F.maximal_cones, 3)
        assert m.call_count <= 10
        assert_same_fan(F, G)

    def test_bkk_count(self):
        system = random_system(random.Random(1), 3, 7, 3)
        with self.spy() as m:
            report = ct.bkk_count(system)
        assert m.call_count == 0
        assert report.bkk == validated(ct.bkk_count, system).bkk
