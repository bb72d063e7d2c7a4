"""Exact linear algebra over the integers.

Matrices are plain lists of rows, each row a list of Python ints. A
matrix with r rows and no columns is ``[[] for _ in range(r)]``; the
0 x 0 matrix is ``[]``. Everything here is exact; no floating point is
used for arithmetic anywhere in the package. The single appearance of
``math.inf`` (in ``lattice_index``) is a sentinel for an infinite-index
answer, never an operand.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

Matrix = list  # list[list[int]], row-major


class IndexOutOfRangeError(ValueError, IndexError):
    """A caller-supplied index (of a ray, a cone or a column) is out of
    range. It is a domain error, a ValueError, and stays an IndexError
    for callers that catch that."""


def shape(M: Matrix) -> tuple[int, int]:
    rows = len(M)
    cols = len(M[0]) if rows else 0
    if any(len(row) != cols for row in M):
        raise ValueError("ragged matrix")
    return rows, cols


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0] * cols for _ in range(rows)]


def copy_matrix(M: Matrix) -> Matrix:
    return [list(row) for row in M]


def transpose(M: Matrix) -> Matrix:
    rows, cols = shape(M)
    return [[M[i][j] for i in range(rows)] for j in range(cols)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    ra, ca = shape(A)
    rb, cb = shape(B)
    if ca != rb:
        raise ValueError(f"cannot multiply {ra}x{ca} by {rb}x{cb}")
    return [[sum(A[i][k] * B[k][j] for k in range(ca)) for j in range(cb)]
            for i in range(ra)]


def mat_vec(A: Matrix, v: list) -> list:
    rows, cols = shape(A)
    if len(v) != cols:
        raise ValueError("dimension mismatch")
    return [sum(A[i][k] * v[k] for k in range(cols)) for i in range(rows)]


def columns(M: Matrix) -> list:
    rows, cols = shape(M)
    return [[M[i][j] for i in range(rows)] for j in range(cols)]


def from_columns(cols_list: list, rows: int | None = None) -> Matrix:
    """Assemble a matrix from a list of column vectors."""
    if not cols_list:
        if rows is None:
            raise ValueError("need explicit row count for an empty column list")
        return [[] for _ in range(rows)]
    n = len(cols_list[0])
    return [[col[i] for col in cols_list] for i in range(n)]


# vector helpers shared across the package

def dot(u: list, v: list) -> int:
    return sum(a * b for a, b in zip(u, v, strict=True))


def vadd(u: list, v: list) -> list:
    return [a + b for a, b in zip(u, v, strict=True)]


def vsub(u: list, v: list) -> list:
    return [a - b for a, b in zip(u, v, strict=True)]


def vscale(c, u: list) -> list:
    return [c * a for a in u]


def vgcd(v: list) -> int:
    g = 0
    for a in v:
        g = gcd(g, a)
    return g


def primitive(v: list) -> list:
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = vgcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return [a // g for a in v]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _swap_col(M, a, b):
    if a != b:
        for row in M:
            row[a], row[b] = row[b], row[a]


def _swap_row(M, a, b):
    if a != b:
        M[a], M[b] = M[b], M[a]


def _add_col(M, dst, src, c):
    """column dst += c * column src"""
    for row in M:
        row[dst] += c * row[src]


def _scale_col(M, j, c):
    for row in M:
        row[j] *= c


def _scale_row(M, i, c):
    M[i] = [c * a for a in M[i]]


def hnf(M: Matrix) -> tuple[Matrix, Matrix]:
    """Column-style Hermite normal form H = M*U with U unimodular.

    H is a lower-triangular column echelon: pivot rows strictly increase
    left to right, pivots are positive, the remaining entries of each
    pivot row are reduced into [0, pivot), and zero columns sit at the
    right end. Pivot selection prefers the entry of smallest absolute
    value, which keeps intermediate entries small.
    """
    rows, cols = shape(M)
    H = copy_matrix(M)
    U = identity(cols)
    col = 0
    for row in range(rows):
        if col == cols:
            break
        # gcd-reduce the working entries of this row until one survives
        while True:
            nz = [j for j in range(col, cols) if H[row][j] != 0]
            if not nz:
                pivot_col = None
                break
            pivot_col = min(nz, key=lambda j: abs(H[row][j]))
            if len(nz) == 1:
                break
            for j in nz:
                if j == pivot_col:
                    continue
                q = H[row][j] // H[row][pivot_col]
                if q:
                    _add_col(H, j, pivot_col, -q)
                    _add_col(U, j, pivot_col, -q)
        if pivot_col is None:
            continue
        _swap_col(H, col, pivot_col)
        _swap_col(U, col, pivot_col)
        if H[row][col] < 0:
            _scale_col(H, col, -1)
            _scale_col(U, col, -1)
        p = H[row][col]
        for j in range(col):
            q = H[row][j] // p
            if q:
                _add_col(H, j, col, -q)
                _add_col(U, j, col, -q)
        col += 1
    return H, U


def hnf_pivots(H: Matrix) -> list:
    """(row, col) positions of the pivots of a column-echelon matrix."""
    rows, cols = shape(H)
    out = []
    for j in range(cols):
        i = next((i for i in range(rows) if H[i][j] != 0), None)
        if i is not None:
            out.append((i, j))
    return out


def _rows_gcd_step(S, P, t, i):
    """Unimodular row transform on rows (t, i) that zeroes S[i][t]."""
    a, b = S[t][t], S[i][t]
    if a != 0 and b % a == 0:
        q = b // a
        S[i] = [x - q * y for x, y in zip(S[i], S[t])]
        P[i] = [x - q * y for x, y in zip(P[i], P[t])]
        return
    g, x, y = _xgcd(a, b)
    u, v = -(b // g), a // g  # det of [[x, y], [u, v]] is +1
    for M in (S, P):
        rt, ri = M[t], M[i]
        M[t] = [x * p + y * q for p, q in zip(rt, ri)]
        M[i] = [u * p + v * q for p, q in zip(rt, ri)]


def _cols_gcd_step(S, Q, t, j):
    """Unimodular column transform on columns (t, j) that zeroes S[t][j]."""
    a, b = S[t][t], S[t][j]
    if a != 0 and b % a == 0:
        q = b // a
        _add_col(S, j, t, -q)
        _add_col(Q, j, t, -q)
        return
    g, x, y = _xgcd(a, b)
    u, v = -(b // g), a // g
    for M in (S, Q):
        for row in M:
            ct, cj = row[t], row[j]
            row[t] = x * ct + y * cj
            row[j] = u * ct + v * cj


def snf(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form S = P*M*Q.

    S is diagonal with nonnegative entries d1 | d2 | ... and P, Q are
    unimodular. Zero invariant factors trail the nonzero ones.
    """
    rows, cols = shape(M)
    S = copy_matrix(M)
    P = identity(rows)
    Q = identity(cols)
    t = 0
    limit = min(rows, cols)
    while t < limit:
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if S[i][j] and (best is None or abs(S[i][j]) < abs(S[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        _swap_row(S, t, best[0])
        _swap_row(P, t, best[0])
        _swap_col(S, t, best[1])
        _swap_col(Q, t, best[1])
        while True:
            for i in range(t + 1, rows):
                if S[i][t]:
                    _rows_gcd_step(S, P, t, i)
            for j in range(t + 1, cols):
                if S[t][j]:
                    _cols_gcd_step(S, Q, t, j)
            # column ops can re-dirty the pivot column; settle both
            if all(S[i][t] == 0 for i in range(t + 1, rows)):
                break
        t += 1
    for i in range(limit):
        if S[i][i] < 0:
            _scale_row(S, i, -1)
            _scale_row(P, i, -1)
    rank = sum(1 for i in range(limit) if S[i][i] != 0)
    # enforce the divisibility chain with the usual 2x2 repair
    changed = True
    while changed:
        changed = False
        for t in range(rank - 1):
            a, b = S[t][t], S[t + 1][t + 1]
            if b % a:
                _add_col(S, t, t + 1, 1)
                _add_col(Q, t, t + 1, 1)
                _rows_gcd_step(S, P, t, t + 1)
                if S[t][t + 1]:
                    _cols_gcd_step(S, Q, t, t + 1)
                if S[t][t] < 0:
                    _scale_row(S, t, -1)
                    _scale_row(P, t, -1)
                if S[t + 1][t + 1] < 0:
                    _scale_row(S, t + 1, -1)
                    _scale_row(P, t + 1, -1)
                changed = True
    return S, P, Q


def snf_diagonal(M: Matrix) -> list:
    S, _, _ = snf(M)
    return [S[i][i] for i in range(min(shape(M)))]


def kernel_basis(M: Matrix) -> Matrix:
    """Basis of the saturated kernel {x integer : M x = 0}, as columns.

    The basis comes from the Smith transform, so the lattice it spans is
    the full intersection of the rational kernel with the integer lattice.
    """
    rows, cols = shape(M)
    S, _, Q = snf(M)
    rank = sum(1 for i in range(min(rows, cols)) if S[i][i] != 0)
    return [[Q[i][j] for j in range(rank, cols)] for i in range(cols)]


class AbelianGroupPresentation:
    """A finitely generated abelian group Z^free_rank + sum Z/d_i.

    invariant_factors is the chain d1 | d2 | ... with every d_i >= 2
    (trivial factors are omitted).
    """

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank, invariant_factors=()):
        factors = tuple(int(d) for d in invariant_factors)
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(d < 2 for d in factors):
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        self.free_rank = int(free_rank)
        self.invariant_factors = factors

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def __eq__(self, other):
        return (isinstance(other, AbelianGroupPresentation)
                and self.free_rank == other.free_rank
                and self.invariant_factors == other.invariant_factors)

    def __hash__(self):
        return hash((self.free_rank, self.invariant_factors))

    def __repr__(self):
        parts = []
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}" if self.free_rank > 1 else "Z")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def cokernel(M: Matrix) -> tuple[AbelianGroupPresentation, Matrix]:
    """Present Z^rows / im(M) and the projection onto canonical coordinates.

    The projection matrix sends an integer vector v to the raw coordinates
    of its class: free coordinates first, then the torsion coordinates in
    invariant-factor order. Torsion coordinates still need reduction mod
    the matching invariant factor; ``cokernel_coords`` does both steps.
    """
    rows, cols = shape(M)
    S, P, _ = snf(M)
    diag = [S[i][i] for i in range(min(rows, cols))]
    rank = sum(1 for d in diag if d)
    torsion = [(i, diag[i]) for i in range(rank) if diag[i] >= 2]
    pres = AbelianGroupPresentation(rows - rank, tuple(d for _, d in torsion))
    proj = [list(P[i]) for i in range(rank, rows)]
    proj += [list(P[i]) for i, _ in torsion]
    return pres, proj


def cokernel_coords(pres: AbelianGroupPresentation, proj: Matrix, v: list) -> list:
    """Canonical coordinates of the class of v in a cokernel presentation."""
    w = mat_vec(proj, v) if proj else []
    k = pres.free_rank
    return w[:k] + [w[k + i] % d for i, d in enumerate(pres.invariant_factors)]


def _hnf_solver(H: Matrix, U: Matrix):
    """b -> x with M x = b over Z, or None, from a column HNF H = M U:
    forward substitution in H gives y, and x = U y."""
    rows, cols = shape(H)
    pivot_of_row = {i: j for i, j in hnf_pivots(H)}

    def solve(b: list):
        if len(b) != rows:
            raise ValueError("dimension mismatch")
        y = [0] * cols
        for i in range(rows):
            s = b[i] - sum(H[i][j] * y[j] for j in range(cols))
            j = pivot_of_row.get(i)
            if j is None:
                if s != 0:
                    return None
            else:
                p = H[i][j]
                if s % p:
                    return None
                y[j] = s // p
        return mat_vec(U, y)

    return solve


def integer_solver(M: Matrix):
    """Factor M once; return a function b -> x solving M x = b over Z.

    The function returns an integer solution, or None when none exists.
    One Hermite normal form of M serves every right-hand side, so a
    batch of solves against one matrix costs one HNF.
    """
    return _hnf_solver(*hnf(M))


def solve_integer(M: Matrix, b: list):
    """An integer solution x of M x = b, or None when none exists."""
    # integer_solver(M)(b), with the HNF taken here so that a trace of
    # this call shows it as a direct child
    return _hnf_solver(*hnf(M))(b)


def lattice_index(Msub: Matrix, Msup: Matrix):
    """Index of the column lattice of Msub inside the one of Msup.

    Returns a positive integer, or math.inf (used purely as a sentinel)
    when the sublattice has strictly smaller rank. Raises ValueError if
    some column of Msub falls outside the superlattice.
    """
    rows_sub, _ = shape(Msub)
    rows_sup, _ = shape(Msup)
    if rows_sub != rows_sup:
        raise ValueError("ambient dimensions differ")
    Hs, _ = hnf(Msup)
    rank_sup = len(hnf_pivots(Hs))
    solve = integer_solver([row[:rank_sup] for row in Hs])
    coords = []
    for col in columns(Msub):
        y = solve(col)
        if y is None:
            raise ValueError("column of Msub lies outside the superlattice")
        coords.append(y)
    C = from_columns(coords, rows=rank_sup)
    Hc, _ = hnf(C)
    pivots = hnf_pivots(Hc)
    if len(pivots) < rank_sup:
        return math.inf
    index = 1
    for i, j in pivots:
        index *= Hc[i][j]
    return index


def affine_lattice_gens(A: Matrix) -> Matrix:
    """Generators m_j - m_1 (j >= 2) of the affine lattice of a point
    configuration given as the columns of A."""
    rows, cols = shape(A)
    if cols == 0:
        raise ValueError("empty configuration")
    return [[A[i][j] - A[i][0] for j in range(1, cols)] for i in range(rows)]


def rank(M: Matrix) -> int:
    rows, cols = shape(M)
    if not rows or not cols:
        return 0
    return len(RowEchelon(M))


def solve_rational(M: Matrix, b: list):
    """Any rational solution of M x = b, or None when inconsistent."""
    rows, cols = shape(M)
    if len(b) != rows:
        raise ValueError("dimension mismatch")
    A = [[Fraction(M[i][j]) for j in range(cols)] + [Fraction(b[i])]
         for i in range(rows)]
    piv_cols = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if A[i][c] != 0), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        pv = A[r][c]
        A[r] = [x / pv for x in A[r]]
        for i in range(rows):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if A[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(piv_cols):
        x[c] = A[i][cols]
    return x


class RowEchelon:
    """Fraction-free row echelon form of a growing set of integer vectors.

    Each stored row is primitive and zero on the pivots of the rows
    stored before it, so one pass over the rows reduces a vector:
    ``residue(v)`` is zero exactly when v lies in the rational span of
    the rows, and ``add(v)`` stores v when it is independent of them.
    """

    __slots__ = ("_rows",)

    def __init__(self, vectors=()):
        self._rows = []
        for v in vectors:
            self.add(v)

    def __len__(self):
        return len(self._rows)

    def residue(self, v: list) -> list:
        v = list(v)
        for p, row in self._rows:
            c = v[p]
            if c:
                a = row[p]
                v = [a * x - c * y for x, y in zip(v, row)]
        return v

    def add(self, v: list) -> bool:
        """Store v if it is independent of the rows; report whether it was."""
        r = self.residue(v)
        p = next((j for j, x in enumerate(r) if x), None)
        if p is None:
            return False
        self._rows.append((p, primitive(r)))
        return True


def span_lattice_basis(vectors: list, n: int) -> Matrix:
    """Columns: a basis of (R-span of the vectors) cap Z^n.

    The resulting lattice is saturated, so integer vectors in the span
    have integer coordinates in this basis.
    """
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return [[] for _ in range(n)]
    K = kernel_basis(rows)        # orthogonal complement lattice
    _, k = shape(K)
    if k == 0:
        return identity(n)
    return kernel_basis(transpose(K))


def det(M: Matrix) -> int:
    """Signed integer determinant (fraction-free Bareiss elimination)."""
    n, m = shape(M)
    if n != m:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    A = copy_matrix(M)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def adjugate(M: Matrix) -> tuple[Matrix, int]:
    """(adj, d) with M adj = adj M = d I and d = det M, for nonsingular M.

    Fraction-free Gauss-Jordan elimination on [M | I] (Bareiss): every
    division is exact, and at the end the left block is d' I and the
    right block X has M X = d' I, with d' = +-det M by the row swaps.
    Raises ValueError when M is singular.
    """
    n, m = shape(M)
    if n != m:
        raise ValueError("adjugate of a non-square matrix")
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    sign = 1
    prev = 1
    for k in range(n):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                raise ValueError("adjugate of a singular matrix")
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        pivot_row = A[k]
        p = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = A[i]
            c = row[k]
            A[i] = [(p * x - c * y) // prev for x, y in zip(row, pivot_row)]
        prev = p
    return [[sign * x for x in row[n:]] for row in A], sign * prev


class RationalPolynomial:
    """Univariate polynomial with exact rational coefficients.

    coeffs[d] is the coefficient of x^d; trailing zeros are trimmed, so
    the leading coefficient is nonzero unless the polynomial is zero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "RationalPolynomial(0)"
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                terms.append(f"{c}")
            elif d == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{d}")
        return "RationalPolynomial(" + " + ".join(terms) + ")"


def interpolate(points) -> RationalPolynomial:
    """The unique polynomial of degree < len(points) through the points.

    Each point is (x, y) with integer x and rational y. Raises ValueError
    on duplicate abscissae.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae")
    n = len(pts)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(pts):
        num = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j == i:
                continue
            # multiply the running numerator by (x - xj)
            num = [0] + num
            for d in range(len(num) - 1):
                num[d] -= xj * num[d + 1]
            denom *= xi - xj
        w = yi / denom
        for d, c in enumerate(num):
            coeffs[d] += w * c
    return RationalPolynomial(coeffs)
