"""Factor once, solve many: differential tests against per-vector oracles.

The cone and polytope kernels factor each matrix once (an adjugate, an
HNF-based solver, a row echelon form) and reuse it for every right-hand
side. The oracles below are the per-right-hand-side code they replaced,
kept here verbatim in substance: one ``solve_rational`` per point, per
seed ray, per unit vector and per span test.
"""

from fractions import Fraction
from itertools import combinations
from math import floor, gcd

import pytest
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
            t = zl.solve_rational(S, a)
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
        t = zl.solve_rational(U, unit(n, j))
        den = 1
        for f in t:
            den = den * f.denominator // gcd(den, f.denominator)
        rays.append((zl.primitive([int(f * den) for f in t]),
                     frozenset(indep) - {indep[j]}))
    return indep, rays


def old_pointed_dual_rays(cons, n):
    """The double description with the old seeding; the insertion loop is
    the one in ``cones._pointed_dual_rays``."""
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
    return sorted(cn._dedupe([v for v, _ in rays]))


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
            t = zl.solve_rational(M, unit(n, j))
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
        assert cn._pointed_dual_rays(cons, n) == old_pointed_dual_rays(cons, n)

    def test_seed_selection_skips_dependent_constraints(self):
        cons = [[1, 0, 0], [2, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]]
        assert old_seed_rays(cons, 3)[0] == [0, 2, 4]
        assert cn._pointed_dual_rays(cons, 3) == old_pointed_dual_rays(cons, 3)


class TestUnimodularInverse:
    @seed(20261020)
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                    min_size=1, max_size=4))
    def test_inverts_smith_transforms(self, M):
        _, P, Q = zl.snf(M)
        for T in (P, Q):
            inv = cn._unimodular_inverse(T)
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
    def test_one_factorization_serves_a_batch(self, data):
        M, batch = data
        solve = zl.integer_solver(M)
        for b in batch:
            x = solve(b)
            assert x == zl.solve_integer(M, b) == old_solve_integer(M, b)
            if x is not None:
                assert zl.mat_vec(M, x) == b

    def test_dimension_mismatch(self):
        solve = zl.integer_solver([[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="dimension"):
            solve([1, 2, 3])


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
            in_span = zl.solve_rational(basis, u) is not None
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
