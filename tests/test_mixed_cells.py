"""Mixed volume from the mixed cells of a lifted Cayley polytope, and
extreme rays from zero sets.

``polytopes.mixed_volume`` sums |det| over the mixed cells of the fine
mixed subdivision that a generic integer lifting induces, read off the
lower facets of the lifted Cayley polytope. ``cones.Cone.rays`` keeps a
generator unless another generator's zero set over the facet normals
contains its own. The oracles below are the code these replaced, copied
verbatim: inclusion-exclusion over Minkowski sums of subsets, and the
rank of the facet normals tight on each generator.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import within

from toric_kernel import cones as cn
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl
from toric_kernel.polytopes import minkowski_sum, volume


def _mixed_volume_by_inclusion_exclusion(polys) -> int:
    """MV(P_1, ..., P_n) by inclusion-exclusion over Minkowski sums of
    subsets; the polytope count must match the ambient dimension."""
    polys = list(polys)
    if not polys:
        raise ValueError("mixed volume needs at least one polytope")
    n = polys[0].ambient_dim
    if any(Q.ambient_dim != n for Q in polys):
        raise ValueError("ambient dimensions differ")
    if len(polys) != n:
        raise ValueError(f"need exactly {n} polytopes in dimension {n}")
    total = Fraction(0)
    for k in range(1, n + 1):
        sign = (-1) ** (n - k)
        for S in combinations(range(n), k):
            acc = polys[S[0]]
            for i in S[1:]:
                acc = minkowski_sum(acc, polys[i])
            total += sign * volume(acc)
    if total.denominator != 1:
        raise AssertionError("mixed volume must be integral")
    return int(total)


def _rays_by_rank(sigma):
    """Primitive generators of the 1-dimensional faces, in the order
    the corresponding generators were given."""
    if not sigma.is_pointed:
        raise ValueError("rays of a non-pointed cone are undefined")
    n = sigma.ambient_dim
    found = []
    for g in sigma.generators:
        tight = [m for m in sigma.facet_normals if zl.dot(m, g) == 0]
        if zl.rank(tight) == n - 1 and g not in found:
            found.append(g)
    return found


# -- mixed volume ----------------------------------------------------------

def _random_points(rng, n):
    r = rng.random()
    if r < 0.15:
        k = 1
    elif r < 0.35:
        k = 2
    else:
        k = rng.randint(3, min(n + 3, 6))
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]


def _random_polytopes(rng, n):
    """n polytopes in Z^n with coordinates in -3..3: random point sets,
    segments and single points, some of them repeated."""
    polys = []
    for _ in range(n):
        if polys and rng.random() < 0.2:
            polys.append(rng.choice(polys))
        else:
            polys.append(pt.hull(_random_points(rng, n)))
    return polys


def _flat_polytopes(rng, n):
    """n polytopes in parallel hyperplanes <u, x> = c_i, so their
    Minkowski sum is not full-dimensional."""
    u = [rng.randint(-2, 2) for _ in range(n - 1)] + [1]
    polys = []
    for _ in range(n):
        c = rng.randint(-2, 2)
        pts = []
        for p in _random_points(rng, n):
            p[-1] = c - zl.dot(u[:-1], p[:-1])
            pts.append(p)
        polys.append(pt.hull(pts))
    return polys


# dimension -> number of seeded cases; dim 4 is where the oracle is slow
CASES = {1: 50, 2: 130, 3: 100, 4: 30}


@pytest.mark.parametrize("n", sorted(CASES))
def test_mixed_volume_matches_inclusion_exclusion(n):
    for seed in range(CASES[n]):
        rng = random.Random(1000 * n + seed)
        polys = _random_polytopes(rng, n)
        assert pt.mixed_volume(polys) == _mixed_volume_by_inclusion_exclusion(polys), (n, seed)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lower_dimensional_sums_give_zero(n):
    for seed in range(10):
        polys = _flat_polytopes(random.Random(seed), n)
        assert pt.mixed_volume(polys) == 0
        assert _mixed_volume_by_inclusion_exclusion(polys) == 0


def test_a_point_summand_gives_zero_on_a_full_dimensional_sum():
    square = pt.hull([[0, 0], [2, 0], [0, 2], [2, 2]])
    point = pt.hull([[1, 1]])
    assert pt.mixed_volume([square, point]) == 0
    assert pt.mixed_volume([square, square]) == 8


def _counting(liftings, drawn):
    def wrapped(m):
        for omega in liftings(m):
            drawn.append(omega)
            yield omega
    return wrapped


def _constant_first(real):
    def liftings(m):
        yield [0] * m
        yield from real(m)
    return liftings


PENTAGON_AND_TRIANGLE = [pt.hull([[0, 0], [2, 0], [3, 1], [1, 3], [0, 2]]),
                         pt.hull([[0, 0], [1, 0], [0, 1]])]


class TestLiftings:
    def test_a_non_generic_lifting_is_retried(self, monkeypatch):
        # a constant lifting puts all 8 Cayley points on one lower facet
        drawn = []
        monkeypatch.setattr(pt, "_liftings",
                            _counting(_constant_first(pt._liftings), drawn))
        polys = PENTAGON_AND_TRIANGLE
        assert pt.mixed_volume(polys) == _mixed_volume_by_inclusion_exclusion(polys)
        assert len(drawn) >= 2

    def test_the_global_random_state_changes_nothing(self, monkeypatch):
        real = pt._liftings
        polys = _random_polytopes(random.Random(5), 3)
        expected = _mixed_volume_by_inclusion_exclusion(polys)
        state = random.getstate()
        try:
            for first in (real, _constant_first(real)):
                outcomes = set()
                for s in (0, 1, 2024):
                    drawn = []
                    monkeypatch.setattr(pt, "_liftings", _counting(first, drawn))
                    random.seed(s)
                    outcomes.add((pt.mixed_volume(polys), len(drawn)))
                (mv, draws), = outcomes
                assert mv == expected and draws >= 1
        finally:
            random.setstate(state)


class TestBudgets:
    @staticmethod
    def draws():
        rng = random.Random(1)
        dim4 = [pt.hull([[rng.randint(0, 3) for _ in range(4)] for _ in range(7)])
                for _ in range(4)]
        dim5 = [pt.hull([[rng.randint(0, 2) for _ in range(5)] for _ in range(6)])
                for _ in range(5)]
        return dim4, dim5

    def test_dim_4(self):
        polys, _ = self.draws()
        with within(1.0):
            assert pt.mixed_volume(polys) == 727

    def test_dim_5(self):
        _, polys = self.draws()
        with within(3.0):
            assert pt.mixed_volume(polys) == 676


# -- extreme rays --------------------------------------------------------

def _random_cones(rng, n):
    """Full-dimensional, lower-dimensional and non-pointed cones, with
    non-extreme and repeated generators among the input."""
    k = rng.randint(1, n)
    B = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
    gens = []
    for _ in range(rng.randint(1, 7)):
        g = zl.mat_vec(B, [rng.randint(-3, 3) for _ in range(k)])
        gens.append(g)
        if rng.random() < 0.2:
            gens.append(zl.vscale(2, g))
    if len(gens) > 1 and rng.random() < 0.3:
        gens.append(zl.vadd(gens[0], gens[1]))
    return cn.cone(gens, n)


def _homogenized_hull(rng, n):
    pts = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 9))]
    pts.append(list(pts[0]))
    return cn.cone([p + [1] for p in pts], n + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rays_match_the_rank_test(n):
    pointed = 0
    for seed in range(60):
        rng = random.Random(100 * n + seed)
        for sigma in (_random_cones(rng, n), _homogenized_hull(rng, n)):
            if not sigma.is_pointed:
                with pytest.raises(ValueError):
                    sigma.rays()
                continue
            pointed += 1
            assert sigma.rays() == _rays_by_rank(sigma), (n, seed, sigma)
    assert pointed >= 60
