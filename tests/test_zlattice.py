"""Integer linear algebra: normal forms, kernels, cokernels, solving."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (lagrange_interpolate, old_lattice_index, pivot_snf,
                      quotient_map, snf_index_in_saturation, snf_kernel,
                      span_lattice_basis, spy_hnf, within)
from hypothesis import example, given, seed, settings, strategies as st

from toric_kernel import zlattice as zl


def is_unimodular(U):
    return abs(zl.det(U)) == 1


def is_lower_echelon(H):
    rows, cols = zl.shape(H)
    pivots = zl.hnf_pivots(H)
    pivot_rows = [i for i, _ in pivots]
    assert pivot_rows == sorted(pivot_rows) and len(set(pivot_rows)) == len(pivot_rows)
    for k, (i, j) in enumerate(pivots):
        if H[i][j] <= 0:
            return False
        # other entries of the pivot row reduced into [0, pivot)
        for jj in range(cols):
            if jj != j and not (0 <= H[i][jj] < H[i][j]):
                return False
    # zero columns trail
    nonzero = [j for j in range(cols) if any(H[i][j] for i in range(rows))]
    return nonzero == list(range(len(nonzero)))


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r, max_size=r)))


class TestHnf:
    def test_identity_fixed(self):
        H, U = zl.hnf(zl.identity(2))
        assert H == zl.identity(2)
        assert U == zl.identity(2)

    def test_small_example(self):
        M = [[2, 4], [0, 3]]
        H, U = zl.hnf(M)
        assert zl.mat_mul(M, U) == H
        assert is_unimodular(U)
        assert [H[i][j] for i, j in zl.hnf_pivots(H)] == [2, 3]

    def test_p2_transpose_rank(self):
        Ft = [[1, 0], [0, 1], [-1, -1]]
        H, U = zl.hnf(Ft)
        assert zl.mat_mul(Ft, U) == H
        assert len(zl.hnf_pivots(H)) == 2

    @given(small_matrices)
    @settings(max_examples=150)
    def test_hnf_properties(self, M):
        H, U = zl.hnf(M)
        assert zl.mat_mul(M, U) == H
        assert is_unimodular(U)
        assert is_lower_echelon(H)


class TestSnf:
    def test_zero(self):
        S, P, Q = zl.snf([[0, 0], [0, 0]])
        assert S == [[0, 0], [0, 0]]

    def test_two_by_two(self):
        M = [[-1, -2], [1, 0]]
        S, P, Q = zl.snf(M)
        assert zl.mat_mul(zl.mat_mul(P, M), Q) == S
        assert [S[0][0], S[1][1]] == [1, 2]

    def test_diamond_fan(self):
        Ft = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
        S, P, Q = zl.snf(Ft)
        diag = [S[i][i] for i in range(2)]
        assert diag == [1, 2]
        pres, _ = zl.cokernel(Ft)
        assert pres == zl.AbelianGroupPresentation(2, (2,))

    @given(small_matrices)
    @settings(max_examples=150)
    def test_snf_properties(self, M):
        S, P, Q = zl.snf(M)
        assert zl.mat_mul(zl.mat_mul(P, M), Q) == S
        assert abs(zl.det(P)) == 1
        assert abs(zl.det(Q)) == 1
        rows, cols = zl.shape(M)
        diag = [S[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert S[i][j] == 0
        nonzero = [d for d in diag if d]
        assert diag[:len(nonzero)] == nonzero  # zeros trail
        assert all(d > 0 for d in nonzero)
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))



def seeded_matrices():
    """Rectangular, zero and rank-deficient matrices from a fixed seed,
    and the degenerate shapes 0x0, 3x0 and 1x3."""
    rng = random.Random(20261019)
    out = [[], [[], [], []], [[0, 4, -6]], [[0, 0, 0], [0, 0, 0]]]
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        bound = rng.choice([1, 3, 40])
        M = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        out.append(M)
        # rank-deficient: a row that is a combination of two others
        if rows >= 3:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            out.append(M[:-1] + [[a * x + b * y for x, y in zip(M[0], M[1])]])
    return out


class TestSnfAgainstPivotEngine:
    @pytest.mark.parametrize("M", seeded_matrices())
    def test_same_diagonal_and_unimodular_transforms(self, M):
        S, P, Q = zl.snf(M)
        assert S == pivot_snf(M)[0]
        assert zl.mat_mul(zl.mat_mul(P, M), Q) == S
        assert abs(zl.det(P)) == 1
        assert abs(zl.det(Q)) == 1

    @pytest.mark.parametrize("d, expected", [((2, 3), [1, 6]),
                                             ((6, 10, 15), [1, 30, 30])])
    def test_divisibility_repair_terminates(self, d, expected):
        # a round that ran the column HNF before the row HNF would undo
        # each repair and never stop on these
        M = [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]
        with within(5):
            S = zl.snf(M)[0]
        assert [S[i][i] for i in range(len(d))] == expected

    def test_random_40x40_within_budget(self):
        rng = random.Random(0)
        M = [[rng.randint(-50, 50) for _ in range(40)] for _ in range(40)]
        with within(0.5):
            S, P, Q = zl.snf(M)
        assert zl.mat_mul(zl.mat_mul(P, M), Q) == S
        assert max(abs(x).bit_length() for T in (P, Q) for row in T for x in row) < 2000

class TestKernel:
    def test_row_config(self):
        K = zl.kernel_basis([[1, 2, 3]])
        rows, cols = zl.shape(K)
        assert (rows, cols) == (3, 2)
        # (1, -2, 1) must lie in the kernel lattice
        assert zl.solve_integer(K, [1, -2, 1]) is not None

    def test_invertible(self):
        K = zl.kernel_basis([[2, 1], [1, 1]])
        assert zl.shape(K) == (2, 0)

    @given(small_matrices)
    @settings(max_examples=100)
    def test_kernel_saturated(self, M):
        K = zl.kernel_basis(M)
        rows, cols = zl.shape(M)
        for col in zl.columns(K):
            assert zl.mat_vec(M, col) == [0] * rows
        # saturation: brute-force small integer kernel vectors must lie
        # in the column lattice of K
        if cols <= 3:
            from itertools import product
            for v in product(range(-3, 4), repeat=cols):
                if any(v) and zl.mat_vec(M, list(v)) == [0] * rows:
                    assert zl.solve_integer(K, list(v)) is not None

    @given(small_matrices)
    @settings(max_examples=100)
    def test_same_lattice_as_the_smith_kernel(self, M):
        K, S = zl.kernel_basis(M), snf_kernel(M)
        assert zl.shape(K) == zl.shape(S)
        for col in zl.columns(S):
            assert zl.solve_integer(K, col) is not None
        for col in zl.columns(K):
            assert zl.solve_integer(S, col) is not None

    def test_hnf_kernel_stays_small(self):
        # the Smith column transform of this matrix has entries up to 114
        A = [[2, 3, 1, 1, 2, 2, 1], [3, 2, 1, 2, 3, 0, 0], [0, 1, 3, 3, 2, 3, 3]]
        K = zl.kernel_basis(A)
        assert zl.shape(K) == (7, 4)
        assert max(abs(x) for row in K for x in row) <= 20


class TestLatticeSplit:
    @seed(20261113)
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                 max_size=n + 1))))
    @example((3, []))
    @example((3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    @example((2, [[3, 5], [1, 2]]))
    @example((0, []))
    def test_splits_off_the_saturated_span(self, case):
        n, vectors = case
        coords, basis, pi, lift = zl.lattice_split(vectors, n)
        ell = len(coords)
        assert ell == zl.rank(vectors) if vectors else ell == 0
        assert all(len(row) == n for row in coords + pi)
        assert len(basis) == len(lift) == n
        assert all(len(row) == ell for row in basis)
        assert all(len(row) == n - ell for row in lift)
        assert len(pi) == n - ell
        # pi basis = 0, pi lift = I and coords basis = I, by dot products
        # so that the empty shapes at ell = 0 and ell = n need no special
        # case
        B, L = zl.columns(basis), zl.columns(lift)
        assert [[zl.dot(p, b) for b in B] for p in pi] == zl.zeros(n - ell, ell)
        assert [[zl.dot(p, c) for c in L] for p in pi] == zl.identity(n - ell)
        assert [[zl.dot(c, b) for b in B] for c in coords] == zl.identity(ell)
        # together the columns of basis and of lift are a basis of Z^n
        if n:
            assert is_unimodular([b + c for b, c in zip(basis, lift)])
        # basis spans the lattice the kernel-of-the-kernel oracle spans,
        # and coords gives each vector's coordinates in it
        K = span_lattice_basis(vectors, n)
        assert zl.lattice_index(basis, K) == zl.lattice_index(K, basis) == 1
        for v in vectors:
            y = [zl.dot(c, v) for c in coords]
            assert [sum(b[i] * x for b, x in zip(B, y)) for i in range(n)] == v

    @seed(20261114)
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                 min_size=1, max_size=n))))
    def test_same_quotient_as_the_oracle(self, case):
        # pi and the oracle's projection have the same kernel, the span
        n, vectors = case
        _, basis, pi, _ = zl.lattice_split(vectors, n)
        old_pi, _ = quotient_map(span_lattice_basis(vectors, n))
        assert len(pi) == len(old_pi)
        for p in pi:
            assert zl.solve_integer(zl.transpose(old_pi), p) is not None
        for p in old_pi:
            assert zl.solve_integer(zl.transpose(pi), p) is not None


    def test_coords_and_pi_from_one_hnf(self, monkeypatch):
        rng = random.Random(20261026)
        calls = spy_hnf(monkeypatch)
        for _ in range(100):
            n = rng.randint(0, 5)
            vectors = [[rng.randint(-4, 4) for _ in range(n)]
                       for _ in range(rng.randint(0, n + 1))]
            coords, _, pi, _ = zl.lattice_split(vectors, n)
            before = len(calls)
            assert zl.lattice_coords(vectors, n) == (coords, pi)
            assert len(calls) - before == (1 if vectors else 0)


class TestCokernel:
    def test_p2(self):
        Ft = [[1, 0], [0, 1], [-1, -1]]
        pres, proj = zl.cokernel(Ft)
        assert pres == zl.AbelianGroupPresentation(1)

    def test_p1p1(self):
        Ft = [[1, 0], [0, 1], [-1, 0], [0, -1]]
        pres, _ = zl.cokernel(Ft)
        assert pres == zl.AbelianGroupPresentation(2)

    def test_projection_kills_image(self):
        Ft = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
        pres, proj = zl.cokernel(Ft)
        for col in zl.columns(Ft):
            assert zl.cokernel_coords(pres, proj, col) == [0, 0, 0]

    @given(small_matrices)
    @settings(max_examples=60)
    def test_order_invariance(self, M):
        import random
        pres, _ = zl.cokernel(M)
        rng = random.Random(7)
        rows = list(M)
        rng.shuffle(rows)
        shuffled = [list(r) for r in rows]
        cols = list(zl.columns(shuffled))
        rng.shuffle(cols)
        M2 = zl.from_columns(cols, rows=len(shuffled))
        pres2, _ = zl.cokernel(M2)
        assert pres == pres2


class TestSolveInteger:
    def test_identity(self):
        assert zl.solve_integer(zl.identity(3), [4, -1, 7]) == [4, -1, 7]

    def test_vertex_equation(self):
        x = zl.solve_integer([[0, 1], [-1, -1]], [0, -2])
        assert x == [2, 0]

    def test_unsolvable(self):
        assert zl.solve_integer([[2, 0], [0, 2]], [1, 0]) is None

    @given(small_matrices,
           st.lists(st.integers(-10, 10), min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_solution_verifies(self, M, x):
        rows, cols = zl.shape(M)
        x = (x * 4)[:cols]
        b = zl.mat_vec(M, x)
        sol = zl.solve_integer(M, b)
        assert sol is not None
        assert zl.mat_vec(M, sol) == b


class TestLatticeIndex:
    def test_same(self):
        M = [[2, 1], [0, 3]]
        assert zl.lattice_index(M, M) == 1

    def test_twotoone(self):
        A = [[1, 0, 1, 2], [0, 1, 2, 1]]
        prime = zl.affine_lattice_gens(A)
        # affine lattice of A inside Z^2
        assert zl.lattice_index(prime, zl.identity(2)) == 2

    def test_rank_drop(self):
        assert zl.lattice_index([[1], [0]], zl.identity(2)) == math.inf

    def test_outside_raises(self):
        with pytest.raises(ValueError):
            zl.lattice_index([[1], [1]], [[2, 0], [0, 2]])

    def test_two_hnfs(self, monkeypatch):
        # one HNF of Msup, whose leading columns the solves run on as
        # they are, and one of the coordinates; with Msup nonsingular and
        # Msub = Msup X the index is [Z^n : X Z^k], the product of the
        # Smith invariants of X
        rng = random.Random(20261027)
        checked = 0
        while checked < 60:
            n, k = rng.randint(1, 4), rng.randint(1, 5)
            Msup = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if zl.det(Msup) == 0:
                continue
            X = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            S = zl.snf(X)[0]
            diag = [S[i][i] for i in range(min(n, k))]
            expected = math.prod(diag) if len(diag) == n and all(diag) else math.inf
            calls = spy_hnf(monkeypatch)
            assert zl.lattice_index(zl.mat_mul(Msup, X), Msup) == expected
            monkeypatch.undo()
            assert len(calls) == 2
            checked += 1

    def test_matches_old_lattice_index(self):
        # Msub = Msup X lies inside, a random Msub mostly not; a rank-
        # deficient Msup or X gives math.inf whenever Msub is inside
        rng = random.Random(20261019)
        outcomes = {"finite": 0, "inf": 0, "outside": 0}
        for _ in range(300):
            n, m, k = rng.randint(1, 4), rng.randint(0, 5), rng.randint(0, 5)
            Msup = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
            if rng.random() < 0.5:
                X = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m)]
                Msub = zl.mat_mul(Msup, X) if m else [[0] * k for _ in range(n)]
            else:
                Msub = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]
            try:
                expected = old_lattice_index(Msub, Msup)
            except ValueError:
                with pytest.raises(ValueError, match="outside the superlattice"):
                    zl.lattice_index(Msub, Msup)
                outcomes["outside"] += 1
                continue
            assert zl.lattice_index(Msub, Msup) == expected, (Msub, Msup)
            outcomes["inf" if expected == math.inf else "finite"] += 1
        assert min(outcomes.values()) >= 30, outcomes


class TestSaturationIndex:
    @pytest.mark.parametrize("vectors, expected", [
        ([], 1), ([[0, 0]], 1), ([[2], [3]], 1), ([[2, 0], [0, 2]], 4),
        ([[1, 2, 3], [1, 0, 1]], 2), ([[2, 4], [3, 6]], 1), ([[2, 4], [4, 8]], 2)])
    def test_examples(self, vectors, expected):
        # (2) and (3): the first HNF's pivot is 2, the index 1
        assert zl.saturation_index(vectors) == expected

    def test_matches_smith_product(self):
        # empty, zero and dependent lists, and indices past 1
        rng = random.Random(20261022)
        outcomes = {"empty": 0, "zero": 0, "dependent": 0, "index > 1": 0}
        for _ in range(2400):
            n, k = rng.randint(0, 5), rng.randint(0, 7)
            bound = rng.choice([1, 3, 8])
            vectors = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(k)]
            if k >= 3 and rng.random() < 0.3:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                vectors[-1] = [a * x + b * y for x, y in zip(vectors[0], vectors[1])]
            if k and rng.random() < 0.2:
                vectors[rng.randrange(k)] = [0] * n
            if k and rng.random() < 0.3:
                c = rng.choice([2, 3, 6])
                vectors = [[c * x for x in v] for v in vectors]
            expected = snf_index_in_saturation(vectors, n)
            assert zl.saturation_index(vectors) == expected, vectors
            outcomes["empty"] += not k
            outcomes["zero"] += any(not any(v) for v in vectors)
            outcomes["dependent"] += zl.rank(vectors) < k
            outcomes["index > 1"] += expected > 1
        assert min(outcomes.values()) >= 200, outcomes

    def test_many_vectors_within_budget(self):
        # 2,000 even vectors in Z^3: a second HNF that carried its
        # 2,000 x 2,000 transform took about a second here
        rng = random.Random(1)
        vectors = [[2 * rng.randint(-9, 9) for _ in range(3)] for _ in range(2000)]
        with within(0.5):
            assert zl.saturation_index(vectors) == 8


class TestAffineGens:
    def test_single_point(self):
        assert zl.affine_lattice_gens([[1], [2]]) == [[], []]

    def test_segment_config(self):
        A = [[1, 1, 1], [0, 1, 2]]
        G = zl.affine_lattice_gens(A)
        assert G == [[0, 0], [1, 2]]
        H, _ = zl.hnf(G)
        assert len(zl.hnf_pivots(H)) == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            zl.affine_lattice_gens([])


class TestInterpolate:
    def test_quadratic(self):
        p = zl.interpolate([(0, 1), (1, 6), (2, 16)])
        assert p.coeffs == (Fraction(1), Fraction(5, 2), Fraction(5, 2))

    def test_pi3(self):
        p = zl.interpolate([(0, 1), (1, 7), (2, 19)])
        assert p.coeffs == (Fraction(1), Fraction(3), Fraction(3))

    def test_constant(self):
        p = zl.interpolate([(5, Fraction(7, 3))])
        assert p.degree == 0
        assert p.evaluate(100) == Fraction(7, 3)

    def test_duplicate_raises(self):
        with pytest.raises(ValueError):
            zl.interpolate([(1, 1), (1, 2)])

    @pytest.mark.parametrize("x", [Fraction(1, 2), 1.5, Fraction(-7, 3)])
    def test_non_integer_abscissa_raises(self, x):
        # an abscissa is never truncated to an integer
        with pytest.raises(ValueError, match="integers"):
            zl.interpolate([(0, 1), (x, 2)])

    def test_integral_fraction_abscissa(self):
        p = zl.interpolate([(Fraction(4, 2), 3), (0.0, 1)])
        assert p.coeffs == (Fraction(1), Fraction(1))

    def test_matches_lagrange(self):
        # 0 to 9 nodes drawn unsorted from [-12, 12], rational values
        rng = random.Random(20261019)
        unsorted = negative = 0
        for n in range(10):
            for _ in range(25):
                xs = rng.sample(range(-12, 13), n)
                pts = [(x, Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
                       for x in xs]
                assert zl.interpolate(pts) == lagrange_interpolate(pts), pts
                unsorted += xs != sorted(xs)
                negative += min(xs, default=0) < 0
        assert unsorted >= 150 and negative >= 150

    @given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-50, 50)),
                    min_size=1, max_size=6, unique_by=lambda t: t[0]))
    @settings(max_examples=100)
    def test_reproduces_points(self, pts):
        p = zl.interpolate(pts)
        for x, y in pts:
            assert p.evaluate(x) == y


def test_only_zlattice_calls_snf():
    """Every other module reaches the Smith transform through
    zlattice.cokernel, so a new Smith engine has to change zlattice
    alone. Inside zlattice only cokernel calls snf, and it does not keep
    the column transform Q: every kernel, sublattice split and lattice
    index comes from the column HNF."""
    package = Path(zl.__file__).parent
    callers = []
    for path in sorted(package.glob("*.py")):
        if path.name == "zlattice.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "snf"):
                callers.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and any(a.name == "snf" for a in node.names):
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []

    calls, q_names = {}, []
    for fn in ast.walk(ast.parse(Path(zl.__file__).read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "snf"):
                calls[fn.name] = calls.get(fn.name, 0) + 1
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and getattr(node.value.func, "id", None) == "snf"):
                q_names.append(node.targets[0].elts[2].id)
    assert calls == {"cokernel": 1}
    assert q_names == ["_"]
