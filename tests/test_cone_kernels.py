"""The cone kernels against the per-ray code they replaced.

The double description finds the rays that block a pair from one bitset
of rays per constraint, and the vector kernels run their products in
``map``. Each must return exactly what the oracle in conftest returns,
in the same order. The parallelepiped walk has its oracles in
test_solve_many.py.
"""

import random
from functools import reduce
from math import gcd

import pytest
from conftest import scan_dual_rays_with_zero_sets

from toric_kernel import cones as cn
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl


def full_rank(cons, n):
    return len(cn._independent_rows(cons, n)) == n


def assert_same_rays(cons, n, indep=None):
    got = cn._dual_rays_with_zero_sets(cons, n, indep)
    assert got == scan_dual_rays_with_zero_sets(cons, n, indep), (cons, n)
    return got


def random_systems(rng, dims, count, extra):
    """Seeded full-rank constraint sets, zero rows dropped."""
    out = []
    while len(out) < count:
        n = rng.choice(dims)
        cons = [[rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(n, n + extra))]
        cons = [u for u in cons if any(u)]
        if full_rank(cons, n):
            out.append((cons, n))
    return out


class TestAdjacencyBitsets:
    def test_random_systems(self):
        rng = random.Random(20261020)
        for cons, n in random_systems(rng, (3, 4, 5, 6), 300, 7):
            assert_same_rays(cons, n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_and_two_dimensions(self, n):
        # n - 2 <= 0, so a pair may share no constraint at all: then every
        # other current ray blocks it
        rng = random.Random(20261021 + n)
        for cons, _ in random_systems(rng, (n,), 300, 5):
            assert_same_rays(cons, n)

    def test_pair_with_no_common_constraint_is_adjacent(self):
        # (1, 0) is tight on row 1 only, (0, 1) on row 0 only, and row 2
        # separates them: their common set is empty, yet they are adjacent
        got = assert_same_rays([[1, 0], [0, 1], [1, -1]], 2)
        assert got == [([1, 0], 0b010), ([1, 1], 0b100)]

    @pytest.mark.parametrize("n, cons", [
        # repeated and parallel constraints
        (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [2, 0, 0], [0, 3, 0]]),
        # u and -u: the cone lies in a hyperplane
        (3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]),
        # the cone is {0}
        (3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]),
        # the square [0, 2]^2 at height 1 with every lattice point: each
        # ray of the dual is tight on three constraints
        (3, [[x, y, 1] for x in range(3) for y in range(3)]),
        # the cube [0, 1]^3 at height 1, whose dual has non-simple rays
        (4, [[x, y, z, 1] for x in range(2) for y in range(2) for z in range(2)]),
        # the octahedron at height 1, with its center
        (4, [[0, 0, 0, 1], [1, 0, 0, 1], [-1, 0, 0, 1], [0, 1, 0, 1],
             [0, -1, 0, 1], [0, 0, 1, 1], [0, 0, -1, 1]]),
    ])
    def test_degenerate_systems(self, n, cons):
        assert_same_rays(cons, n)

    def test_random_degenerate_systems(self):
        # lattice points of a small box at height 1: many coplanar rows,
        # so the rays carry large zero sets and pairs share many rows
        rng = random.Random(20261022)
        for _ in range(120):
            n = rng.randint(3, 5)
            box = [[rng.randint(0, 2) for _ in range(n - 1)] + [1]
                   for _ in range(rng.randint(n, 3 * n))]
            cons = list({tuple(u): u for u in box}.values())
            if full_rank(cons, n):
                assert_same_rays(cons, n)

    def test_lifted_cayley_systems(self, monkeypatch):
        # every double description mixed_volume runs, the lifted Cayley
        # cones of its lower hulls among them
        calls = []
        dd = cn._dual_rays_with_zero_sets

        def spy(cons, n, indep=None):
            calls.append(([list(u) for u in cons], n,
                          None if indep is None else list(indep)))
            return dd(cons, n, indep)

        monkeypatch.setattr(cn, "_dual_rays_with_zero_sets", spy)
        rng = random.Random(20261023)
        for dim in (2, 2, 3, 3, 4):
            polys = [pt.hull([[rng.randint(0, 2) for _ in range(dim)]
                              for _ in range(dim + 2)]) for _ in range(dim)]
            pt.mixed_volume(polys)
        monkeypatch.undo()
        # the lifted systems start with the upward direction (0, ..., 0, 1, 0)
        lifted = [n for cons, n, _ in calls if cons[0] == [0] * (n - 2) + [1, 0]]
        assert len(lifted) >= 5 and max(lifted) == 9
        for cons, n, indep in calls:
            assert_same_rays(cons, n, indep)


def loop_dot(u, v):
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(a * b for a, b in zip(u, v))


class TestVectorKernels:
    def test_same_values_as_the_loops(self):
        rng = random.Random(20261024)
        for _ in range(300):
            rows, cols = rng.randint(1, 5), rng.randint(0, 5)
            A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            v = [rng.randint(-9, 9) for _ in range(cols)]
            assert zl.mat_vec(A, v) == [loop_dot(row, v) for row in A]
            assert zl.dot(A[0], v) == loop_dot(A[0], v)
            assert zl.vgcd(v) == reduce(gcd, v, 0)
        assert zl.mat_vec([], []) == []

    def test_vgcd_signs_and_zeros(self):
        assert zl.vgcd([]) == 0
        assert zl.vgcd([0, 0]) == 0
        assert zl.vgcd([0, -6, 4]) == 2
        assert zl.primitive([0, -6, 4]) == [0, -3, 2]

    @pytest.mark.parametrize("u, v", [([1, 2], [1, 2, 3]), ([1, 2, 3], [1, 2]),
                                      ([], [1]), ([1], [])])
    def test_dot_rejects_a_length_mismatch(self, u, v):
        with pytest.raises(ValueError):
            zl.dot(u, v)

    @pytest.mark.parametrize("A, v", [([[1, 2], [3, 4]], [1]), ([[1, 2], [3, 4]], [1, 2, 3]),
                                      ([], [1])])
    def test_mat_vec_rejects_a_length_mismatch(self, A, v):
        with pytest.raises(ValueError):
            zl.mat_vec(A, v)

    @pytest.mark.parametrize("A, v", [([[1, 2], [3]], [1, 2]), ([[1], [2, 3]], [1])])
    def test_mat_vec_rejects_a_ragged_matrix(self, A, v):
        with pytest.raises(ValueError, match="ragged"):
            zl.mat_vec(A, v)
