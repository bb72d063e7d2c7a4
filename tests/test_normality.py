"""Normality and very ampleness from Hilbert bases, tested against the
sumset and semigroup-search predicates kept in conftest as oracles."""

import random
from itertools import product

import pytest
from conftest import search_is_very_ample, sumset_is_normal, within

from toric_kernel import zlattice as zl
from toric_kernel.polytopes import hull, is_normal, is_very_ample, lattice_points


def seeded_polytopes(seed, count):
    """Hulls of random points in a small box, of dimension 1 to 4; about
    a third are mapped by a random integer matrix into an ambient space
    one or two dimensions larger, so they are not full-dimensional and
    their span lattice need not be a coordinate one."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 4)
        box = {1: 6, 2: 5, 3: 4, 4: 2}[d]
        pts = [[rng.randint(0, box) for _ in range(d)]
               for _ in range(rng.randint(d + 1, d + 4))]
        if rng.random() < 0.3:
            n = d + rng.randint(1, 2)
            A = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
            x0 = [rng.randint(-3, 3) for _ in range(n)]
            pts = [zl.vadd(x0, zl.mat_vec(A, p)) for p in pts]
        P = hull(pts)
        if P.dim == d:
            out.append(P)
    return out


def cube(side, d):
    return hull([list(p) for p in product((0, side), repeat=d)])


def test_verdicts_match_the_oracles():
    verdicts = {}
    for P in seeded_polytopes(20261019, 200):
        normal, ample = is_normal(P), is_very_ample(P)
        assert normal == sumset_is_normal(P), P
        assert ample == search_is_very_ample(P), P
        key = (P.dim >= 3, P.is_full_dim)
        verdicts.setdefault(key, set()).add((normal, ample))
    # normal implies very ample, so random draws give two of the three
    # combinations; the third is pinned below
    for key in [(True, True), (True, False)]:
        assert verdicts[key] == {(True, True), (False, False)}, key
    assert verdicts[(False, True)] == {(True, True)}
    assert verdicts[(False, False)] == {(True, True)}


def test_very_ample_but_not_normal():
    # a Cayley polytope: the one kind of input on which swapping the two
    # criteria changes a verdict
    P = hull([[0, 0, 0], [0, 1, 0], [1, 3, 0], [2, 4, 0], [3, 3, 1],
              [3, 4, 0], [3, 4, 1], [4, 0, 1], [4, 2, 1]])
    assert len(lattice_points(P)) == 12
    assert not sumset_is_normal(P) and search_is_very_ample(P)
    assert not is_normal(P)
    assert is_very_ample(P)


@pytest.mark.parametrize("side, d", [(3, 4), (2, 5), (10, 3)])
def test_normal_cubes_within_budget(side, d):
    with within(2):
        assert is_normal(cube(side, d))


@pytest.mark.parametrize("side, d", [(10, 3), (6, 4)])
def test_very_ample_cubes_within_budget(side, d):
    # over 1,000 lattice points each
    with within(1):
        assert is_very_ample(cube(side, d))


def test_thin_simplex_normal_within_budget():
    # the Hilbert basis of the cone over conv(0, e1, e2, (1, 1, r)) has
    # about r elements, so this cost grows with the normalized volume r
    # and not with the 4 lattice points
    T = hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 10000]])
    with within(2):
        assert not is_normal(T)


def test_thin_simplex_not_very_ample_within_budget():
    # the tangent cone at 0 has about 10,000 Hilbert basis elements; the
    # answer comes at the first one that leaves the simplex, before the rest
    # of that basis is reduced (about 17 s when the whole basis came first)
    T = hull([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 10000]])
    with within(1):
        assert not is_very_ample(T)
