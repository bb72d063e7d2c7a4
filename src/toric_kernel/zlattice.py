"""Exact linear algebra over the integers.

Matrices are plain lists of rows, each row a list of Python ints. A
matrix with r rows and no columns is ``[[] for _ in range(r)]``; the
0 x 0 matrix is ``[]``. Everything here is exact; no floating point is
used for arithmetic anywhere in the package. ``math.inf``, returned by
``lattice_index`` here and by ``divisors.min_cartier_multiple``, and
compared against in ``cli``, is a sentinel for an infinite answer,
never an operand.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd
from operator import mul

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


columns = transpose   # the columns of M are the rows of its transpose


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
    return [sum(map(mul, row, v)) for row in A]


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
    if len(u) != len(v):
        raise ValueError("dimension mismatch")
    return sum(map(mul, u, v))


def vadd(u: list, v: list) -> list:
    return [a + b for a, b in zip(u, v, strict=True)]


def vsub(u: list, v: list) -> list:
    return [a - b for a, b in zip(u, v, strict=True)]


def vscale(c, u: list) -> list:
    return [c * a for a in u]


def vgcd(v: list) -> int:
    return gcd(*v)


def primitive(v: list) -> list:
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = vgcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return [a // g for a in v]


def hnf(M: Matrix) -> tuple[Matrix, Matrix]:
    """Column-style Hermite normal form H = M*U with U unimodular.

    H is a lower-triangular column echelon: pivot rows strictly increase
    left to right, pivots are positive, the remaining entries of each
    pivot row are reduced into [0, pivot), and zero columns sit at the
    right end. Pivot selection prefers the entry of smallest absolute
    value, which keeps intermediate entries small.
    """
    H = copy_matrix(M)
    U = identity(shape(M)[1])
    _column_hnf(H, U)
    return H, U


def _column_hnf(H: Matrix, U: Matrix) -> None:
    """Bring H to the column HNF of ``hnf`` in place, applying every
    column operation to U as well.

    U's rows sit under H's in one stack ``A = H + U`` of the same row
    objects, so each gcd step, swap, sign flip and left reduction is one
    loop over rows. At pivot row ``row`` the rows of H above it are zero
    from column ``col`` on, and every operation there swaps or negates
    such a column or adds a multiple of one to another, which changes
    nothing on those rows; so it runs over ``A[row:]``: the same
    operations in the same order as on all of [H; U], with the same H
    and U.
    """
    rows, cols = shape(H)
    A = H + U
    col = 0
    for row in range(rows):
        if col == cols:
            break
        h = H[row]
        below = A[row:]
        # gcd-reduce the working entries of this row until one survives
        while True:
            nz = [j for j in range(col, cols) if h[j]]
            if not nz:
                break
            p = min(nz, key=lambda j: abs(h[j]))
            if len(nz) == 1:
                break
            hp = h[p]
            for j in nz:
                if j != p:
                    q = h[j] // hp
                    if q:
                        for r in below:
                            r[j] -= q * r[p]
        if not nz:
            continue
        if p != col:
            for r in below:
                r[col], r[p] = r[p], r[col]
        if h[col] < 0:
            for r in below:
                r[col] = -r[col]
        hp = h[col]
        for j in range(col):
            q = h[j] // hp
            if q:
                for r in below:
                    r[j] -= q * r[col]
        col += 1


def hnf_pivots(H: Matrix) -> list:
    """(row, col) positions of the pivots of a column-echelon matrix."""
    rows, cols = shape(H)
    out = []
    for j in range(cols):
        i = next((i for i in range(rows) if H[i][j] != 0), None)
        if i is not None:
            out.append((i, j))
    return out


def snf(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form S = P*M*Q.

    S is diagonal with nonnegative entries d1 | d2 | ... and P, Q are
    unimodular. Zero invariant factors trail the nonzero ones.

    Row and column Hermite forms alternate until S is diagonal
    (Kannan-Bachem; Cohen, section 2.4.4): the row HNF is the column HNF
    of S^T on the stack [S^T; P^T], and the column HNF runs on [S; Q],
    each over the rows at and below its pivot row only. A diagonal pair
    d_t, d_(t+1) off the divisibility chain gets column t+1 added to
    column t in S and Q alike, and the next row HNF takes their gcd.
    """
    rows, cols = shape(M)
    S = copy_matrix(M)
    Pt = identity(rows)
    Q = identity(cols)
    while True:
        # the row HNF comes first, or a repaired column is reduced
        # straight back to the diagonal it came from
        St = transpose(S)
        _column_hnf(St, Pt)
        S = transpose(St) if cols else S   # [] would lose an r x 0 S's r
        _column_hnf(S, Q)
        if any(S[i][j] for i in range(rows) for j in range(cols) if i != j):
            continue
        d = [S[i][i] for i in range(min(rows, cols))]
        t = next((t for t in range(len(d) - 1) if d[t] and d[t + 1] % d[t]), None)
        if t is None:
            return S, transpose(Pt), Q
        for r in S + Q:
            r[t] += r[t + 1]


def snf_diagonal(M: Matrix) -> list:
    S, _, _ = snf(M)
    return [S[i][i] for i in range(min(shape(M)))]


def kernel_basis(M: Matrix) -> Matrix:
    """Basis of the saturated kernel {x integer : M x = 0}, as columns.

    The columns of U past the pivots of the column HNF H = M U: H is
    zero there and U is unimodular, so they span the full intersection
    of the rational kernel with the integer lattice (Cohen, section 2.4).
    """
    H, U = hnf(M)
    rank = len(hnf_pivots(H))
    return [row[rank:] for row in U]


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


def lattice_coords(vectors: list, n: int) -> tuple[Matrix, Matrix]:
    """(coords, pi) of ``lattice_split``, from its first HNF alone."""
    rows = [list(v) for v in vectors]
    H, U = hnf(rows) if rows else ([], identity(n))
    r = len(hnf_pivots(H))
    cols = columns(U)
    return cols[:r], cols[r:]


def lattice_split(vectors: list, n: int) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """(coords, basis, pi, lift) for the saturated span of the vectors in
    Z^n, all from the column HNF M U = [H | 0] of the vectors as the rows
    of M, with r = rank M.

    Split U as [C | P] and U^-T as [B | L] after column r. Then the
    columns of ``basis`` = B are a basis of (R-span of the vectors) cap
    Z^n, since M = H B^T and [B | L] is unimodular; ``coords`` = C^T
    gives the coordinates in it of any integer vector of the span;
    ``pi`` = P^T kills the span and maps Z^n onto Z^(n - r); and the
    columns of ``lift`` = L are a section of pi. When the vectors are a
    basis of a saturated lattice, H is the identity and basis is them.
    """
    coords, pi = lattice_coords(vectors, n)
    r = len(coords)
    # the column HNF of a unimodular U is I, so its transform is U^-1
    Uinv = hnf(from_columns(coords + pi, rows=n))[1]
    return (coords, from_columns(Uinv[:r], rows=n),
            pi, from_columns(Uinv[r:], rows=n))


def cokernel_coords(pres: AbelianGroupPresentation, proj: Matrix, v: list) -> list:
    """Canonical coordinates of the class of v in a cokernel presentation."""
    w = mat_vec(proj, v) if proj else []
    k = pres.free_rank
    return w[:k] + [w[k + i] % d for i, d in enumerate(pres.invariant_factors)]


def _hnf_solver(H: Matrix, U: Matrix):
    """b -> (x, den) with M x = den * b and den >= 1 the least such, or
    None when b is outside the rational span of M's columns, from a
    column HNF H = M U: forward substitution in H gives y = x' / den with
    H y = b, pivot coordinates forced and free ones 0, and x = U x'.
    Since U is unimodular, no rational solution has a smaller common
    denominator (Cohen, section 2.4.3)."""
    rows, cols = shape(H)
    pivot_of_row = {i: j for i, j in hnf_pivots(H)}

    def solve(b: list):
        if len(b) != rows:
            raise ValueError("dimension mismatch")
        y = [0] * cols      # numerators over the common denominator den
        den = 1
        for i in range(rows):
            s = den * b[i] - sum(H[i][j] * y[j] for j in range(cols))
            j = pivot_of_row.get(i)
            if j is None:
                if s != 0:
                    return None
                continue
            g = gcd(s, H[i][j])
            scale = H[i][j] // g
            if scale > 1:
                y = [v * scale for v in y]
                den *= scale
            y[j] = s // g
        return mat_vec(U, y), den

    return solve


def _integral(sol):
    """x of a solve (x, den) when den is 1, else None."""
    return sol[0] if sol is not None and sol[1] == 1 else None


def solve_integer(M: Matrix, b: list):
    """An integer solution x of M x = b, or None when none exists."""
    # the HNF is taken here, not in a helper, so that a trace of this
    # call shows it as a direct child
    return _integral(_hnf_solver(*hnf(M))(b))


def _sublattice_coords(Msub: Matrix, Msup: Matrix):
    """Coordinates of the columns of Msub in the basis of the column
    lattice of Msup formed by the nonzero columns of its column HNF, as
    the columns of a (rank Msup) x (columns of Msub) matrix, or None
    when some column of Msub falls outside that lattice."""
    Hs, _ = hnf(Msup)
    r = len(hnf_pivots(Hs))
    # the leading columns of Hs are already a column HNF
    solve = _hnf_solver([row[:r] for row in Hs], identity(r))
    coords = [_integral(solve(col)) for col in columns(Msub)]
    return None if None in coords else from_columns(coords, rows=r)


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
    C = _sublattice_coords(Msub, Msup)
    if C is None:
        raise ValueError("column of Msub lies outside the superlattice")
    Hc, _ = hnf(C)
    pivots = hnf_pivots(Hc)
    if len(pivots) < len(C):
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
    shape(M)    # a ragged matrix raises
    return len(RowEchelon(M))


def solve_rational(M: Matrix, b: list):
    """A rational solution of M x = b whose common denominator is the
    least of all solutions, or None when inconsistent."""
    sol = _hnf_solver(*hnf(M))(b)
    return None if sol is None else [Fraction(v, sol[1]) for v in sol[0]]


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

    Each point is (x, y) with integer x and rational y. The coefficients
    solve the Vandermonde system of the abscissae, with the values
    scaled to integers, on the HNF solver. Raises ValueError on a
    non-integer or duplicate abscissa.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    if any(x.denominator != 1 for x, _ in pts):
        raise ValueError("abscissae must be integers")
    if len({x for x, _ in pts}) != len(pts):
        raise ValueError("duplicate abscissae")
    den = math.lcm(*(y.denominator for _, y in pts))
    V = [[x.numerator ** d for d in range(len(pts))] for x, _ in pts]
    c = solve_rational(V, [y.numerator * (den // y.denominator) for _, y in pts])
    return RationalPolynomial(v / den for v in c)
