"""Factor once, solve many: differential tests against per-vector oracles.

The cone and polytope kernels factor each matrix once (an adjugate, an
HNF-based solver, a row echelon form) and reuse it for every right-hand
side. The oracles below are the per-right-hand-side code they replaced,
kept here verbatim in substance: one ``gauss_jordan_solve`` per point, per
seed ray, per unit vector and per span test.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import floor, gcd, lcm

import pytest
from conftest import (adjugate_parallelepiped_points, dedupe, gauss_jordan_solve,
                      pivot_snf)
from hypothesis import given, seed, settings, strategies as st

from toric_kernel import cones as cn
from toric_kernel import zlattice as zl


def square_matrices(lo=-6, hi=6, sizes=(1, 4)):
    return st.integers(*sizes).flatmap(
        lambda n: st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                           min_size=n, max_size=n))


def unit(n, j):
    return [int(i == j) for i in range(n)]


def old_parallelepiped_points(S, d):
    H, _ = zl.hnf(S)
    bounds = [H[i][i] for i in range(d)]
    points = set()
    idx = [0] * d

    def rec(i):
        if i == d:
            a = list(idx)
            t = gauss_jordan_solve(S, a)
            shift = [floor(f) for f in t]
            x = zl.vsub(a, zl.mat_vec(S, shift))
            if any(x):
                points.add(tuple(x))
            return
        for v in range(bounds[i]):
            idx[i] = v
            rec(i + 1)

    rec(0)
    return points


def old_seed_rays(cons, n):
    """The simplicial seed of the double description: the first n
    independent constraints (one rank test each) and one rational solve
    per seed ray."""
    indep = []
    for i, u in enumerate(cons):
        if zl.rank([cons[j] for j in indep] + [u]) > len(indep):
            indep.append(i)
        if len(indep) == n:
            break
    U = [cons[i] for i in indep]
    rays = []
    for j in range(n):
        t = gauss_jordan_solve(U, unit(n, j))
        den = 1
        for f in t:
            den = den * f.denominator // gcd(den, f.denominator)
        rays.append((zl.primitive([int(f * den) for f in t]),
                     frozenset(indep) - {indep[j]}))
    return indep, rays


def old_pointed_dual_rays(cons, n):
    """The double description with the old seeding; the insertion loop is
    the one in ``cones._dual_rays_with_zero_sets``."""
    indep, rays = old_seed_rays(cons, n)
    for k, u in enumerate(cons):
        if k in indep:
            continue
        plus, zero, minus = [], [], []
        for vec, Z in rays:
            s = zl.dot(u, vec)
            if s > 0:
                plus.append((vec, Z, s))
            elif s < 0:
                minus.append((vec, Z, s))
            else:
                zero.append((vec, Z | {k}))
        new = [(v, Z) for v, Z, _ in plus] + zero
        for pvec, pZ, ps in plus:
            for mvec, mZ, ms in minus:
                T = pZ & mZ
                if any(Z3 >= T and v3 is not pvec and v3 is not mvec
                       for v3, Z3 in rays):
                    continue
                w = zl.vadd(zl.vscale(ps, mvec), zl.vscale(-ms, pvec))
                new.append((zl.primitive(w), T | {k}))
        rays = new
    return sorted(dedupe([v for v, _ in rays]))


def old_unimodular_inverse(P):
    n, _ = zl.shape(P)
    return zl.from_columns([old_solve_integer(P, unit(n, j)) for j in range(n)],
                           rows=n)


def old_solve_integer(M, b):
    """One HNF per right-hand side."""
    rows, cols = zl.shape(M)
    H, U = zl.hnf(M)
    pivot_of_row = {i: j for i, j in zl.hnf_pivots(H)}
    y = [0] * cols
    for i in range(rows):
        s = b[i] - sum(H[i][j] * y[j] for j in range(cols))
        j = pivot_of_row.get(i)
        if j is None:
            if s != 0:
                return None
        else:
            if s % H[i][j]:
                return None
            y[j] = s // H[i][j]
    return zl.mat_vec(U, y)


def hnf_rank(M):
    H, _ = zl.hnf(M)
    return len(zl.hnf_pivots(H))


class TestAdjugate:
    @seed(20261017)
    @settings(max_examples=150, deadline=None)
    @given(square_matrices())
    def test_adjugate_inverts_up_to_det(self, M):
        n = len(M)
        d = zl.det(M)
        if d == 0:
            return
        adj, det = zl.adjugate(M)
        assert det == d
        dI = [[d * x for x in row] for row in zl.identity(n)]
        assert zl.mat_mul(M, adj) == dI
        assert zl.mat_mul(adj, M) == dI
        for j, col in enumerate(zl.columns(adj)):
            t = gauss_jordan_solve(M, unit(n, j))
            assert [Fraction(x, d) for x in col] == t

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            zl.adjugate([[1, 2], [2, 4]])

    def test_empty_matrix(self):
        assert zl.adjugate([]) == ([], 1)


class TestParallelepipedPoints:
    @seed(20261018)
    @settings(max_examples=120, deadline=None)
    @given(square_matrices(-4, 4, (1, 3)))
    def test_matches_per_point_rational_solve(self, S):
        d = len(S)
        if zl.det(S) == 0:
            return
        assert cn._parallelepiped_points(S, d) == old_parallelepiped_points(S, d)

    @pytest.mark.parametrize("S", [
        [[0, 1], [3, 0]],                       # det < 0
        [[2, 1], [1, 1]], [[1, 2], [1, 1]],     # |det| = 1: no points
        [[1]], [[5]], [[-4]],                   # d = 1
        [[2, 1, 0], [0, 3, 1], [1, 0, 4]],      # an HNF with entries off its diagonal
        [[-3, 1, 2, 0], [1, 4, 0, -2], [0, 1, 5, 1], [2, 0, 1, 3]],
    ])
    def test_walk_matches_the_enumerations(self, S):
        d = len(S)
        points = cn._parallelepiped_points(S, d)
        assert points == old_parallelepiped_points(S, d)
        assert points == adjugate_parallelepiped_points(S, d)
        assert len(points) == abs(zl.det(S)) - 1

    def test_walk_on_seeded_matrices(self):
        rng = random.Random(20261025)
        seen = set()
        for _ in range(400):
            d = rng.randint(1, 4)
            S = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
            det = zl.det(S)
            if not 0 < abs(det) <= 600:
                continue
            H, _ = zl.hnf(S)
            seen.add("det < 0" if det < 0 else "det > 0")
            seen.add("|det| = 1" if abs(det) == 1 else "|det| > 1")
            seen.add(f"d = {d}")
            if any(H[i][j] for i in range(d) for j in range(i)):
                seen.add("off-diagonal HNF")
            expected = adjugate_parallelepiped_points(S, d)
            assert cn._parallelepiped_points(S, d) == expected, S
            if abs(det) <= 60:
                assert expected == old_parallelepiped_points(S, d), S
        assert seen >= {"det < 0", "det > 0", "|det| = 1", "|det| > 1", "d = 1",
                        "d = 4", "off-diagonal HNF"}


class TestPointedDualRays:
    @seed(20261019)
    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 4).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=n, max_size=n + 3))))
    def test_matches_old_seeding(self, data):
        n, cons = data
        cons = [u for u in cons if any(u)]
        if hnf_rank(cons) < n:
            return
        assert cn.halfspace_generators(cons, n)[1] == old_pointed_dual_rays(cons, n)

    def test_seed_selection_skips_dependent_constraints(self):
        cons = [[1, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]]
        assert old_seed_rays(cons, 3)[0] == [0, 2, 4]
        assert cn.halfspace_generators(cons, 3)[1] == old_pointed_dual_rays(cons, 3)


class TestUnimodularInverse:
    @seed(20261020)
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                    min_size=1, max_size=4))
    def test_inverts_smith_transforms(self, M):
        _, P, Q = zl.snf(M)
        for T in (P, Q):
            # the column HNF of a unimodular T is I, so its U is T^-1
            inv = zl.hnf(T)[1]
            assert zl.mat_mul(T, inv) == zl.identity(len(T))
            assert inv == old_unimodular_inverse(T)


class TestIntegerSolver:
    @seed(20261021)
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda r: st.integers(1, 4).flatmap(
            lambda c: st.tuples(
                st.lists(st.lists(st.integers(-6, 6), min_size=c, max_size=c),
                         min_size=r, max_size=r),
                st.lists(st.lists(st.integers(-8, 8), min_size=r, max_size=r),
                         min_size=1, max_size=8)))))
    def test_a_batch_agrees_with_the_old_solver(self, data):
        M, batch = data
        for b in batch:
            x = zl.solve_integer(M, b)
            assert x == old_solve_integer(M, b)
            if x is not None:
                assert zl.mat_vec(M, x) == b

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            zl.solve_integer([[1, 0], [0, 1]], [1, 2, 3])


class TestRowEchelon:
    @seed(20261022)
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                     min_size=1, max_size=5),
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                     min_size=1, max_size=5))))
    def test_rank_and_span_match_hnf_and_rational_solve(self, data):
        vectors, probes = data
        n = len(vectors[0])
        assert zl.rank(vectors) == hnf_rank(vectors)
        echelon = zl.RowEchelon(vectors)
        basis = zl.from_columns(vectors, rows=n)
        for u in probes + [list(vectors[0])]:
            in_span = gauss_jordan_solve(basis, u) is not None
            assert (not any(echelon.residue(u))) == in_span

    def test_add_reports_independence(self):
        echelon = zl.RowEchelon()
        picks = [echelon.add(u) for u in
                 ([1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 3, 4], [0, 0, 5])]
        assert picks == [True, False, True, False, True]
        assert len(echelon) == 3


def test_hilbert_basis_of_simplicial_cones_unchanged():
    """End to end: the Hilbert basis over all maximal subcones of a small
    cone, with the old per-point parallelepiped enumeration as oracle."""
    sigma = cn.cone([[1, 0, 0], [0, 1, 0], [1, 1, 3], [2, -1, 5]], 3)
    R = sigma.rays()
    cands = {tuple(r) for r in R}
    for S in combinations(R, 3):
        M = zl.from_columns([list(v) for v in S], rows=3)
        if zl.det(M):
            cands |= old_parallelepiped_points(M, 3)
    normals = sigma.facet_normals
    kept = sorted(list(c) for c in cands
                  if not any(a != c and any(zl.vsub(list(c), list(a)))
                             and all(zl.dot(m, zl.vsub(list(c), list(a))) >= 0
                                     for m in normals) for a in cands))
    assert cn.hilbert_basis(sigma).vectors == kept


def class_order(M, b):
    """Order of the class of b in Z^r / (column lattice of M), or None when
    it is infinite, read off ``pivot_snf``: with S = P M Q and c = P b,
    every coordinate of c past the rank is 0 for a finite order, which is
    then the lcm of d / gcd(d, c_i) over the invariant factors d."""
    rows, cols = zl.shape(M)
    S, P, _ = pivot_snf(M)
    c = zl.mat_vec(P, b)
    diag = [S[i][i] for i in range(min(rows, cols))]
    rank = sum(1 for d in diag if d)
    if any(c[rank:]):
        return None
    return lcm(1, *(d // gcd(d, x) for d, x in zip(diag[:rank], c)))


def seeded_systems(count, seed_):
    """Seeded (M, b) pairs, r x c with r in 1..5 and c in 0..5. A row that
    is an integer combination of two earlier rows makes the system rank
    deficient; b is random, or M x for an integer x divided by the gcd of
    its entries, which lies in the span and often needs a denominator."""
    rng = random.Random(seed_)
    for _ in range(count):
        r, c = rng.randint(1, 5), rng.randint(0, 5)
        M = []
        for _ in range(r):
            if M and rng.random() < 0.3:
                u, v = rng.choice(M), rng.choice(M)
                k = rng.randint(-2, 2)
                M.append([k * x + y for x, y in zip(u, v)])
            else:
                M.append([rng.randint(-6, 6) for _ in range(c)])
        if rng.random() < 0.5:
            b = [rng.randint(-9, 9) for _ in range(r)]
        else:
            b = zl.mat_vec(M, [rng.randint(-9, 9) for _ in range(c)])
            g = zl.vgcd(b)
            b = [v // g for v in b] if g else b
        yield M, b


class TestLeastDenominator:
    def test_matches_gauss_jordan_and_the_class_order(self):
        consistent, fractional = 0, 0
        for M, b in seeded_systems(2400, 20261019):
            cols = zl.shape(M)[1]
            sol = zl._hnf_solver(*zl.hnf(M))(b)
            assert (sol is None) == (gauss_jordan_solve(M, b) is None)
            assert (sol is None) == (class_order(M, b) is None)
            x = zl.solve_rational(M, b)
            if sol is None:
                assert x is None
                continue
            v, den = sol
            consistent += 1
            fractional += den > 1
            assert len(v) == cols
            assert zl.mat_vec(M, v) == [den * t for t in b]
            assert den == class_order(M, b)
            assert x == [Fraction(t, den) for t in v]
            assert zl.solve_integer(M, b) == (v if den == 1 else None)
        assert consistent >= 1000 and fractional >= 200

    def test_covers_the_edge_shapes(self):
        shapes = {(len(M), len(M[0])) for M, _ in seeded_systems(2400, 20261019)}
        assert {(r, 0) for r in range(1, 6)} <= shapes
        assert {(1, c) for c in range(6)} <= shapes

    def test_least_denominator_over_a_particular_solution(self):
        # 2 x + y = 1 has the integer solution (0, 1); Gauss-Jordan gives (1/2, 0)
        assert gauss_jordan_solve([[2, 1]], [1]) == [Fraction(1, 2), 0]
        assert zl.solve_rational([[2, 1]], [1]) == [0, 1]

    def test_systems_in_no_unknowns(self):
        assert zl.solve_rational([[], []], [0, 0]) == []
        assert zl.solve_rational([[], []], [0, 1]) is None
        assert zl.solve_rational([], []) == []
