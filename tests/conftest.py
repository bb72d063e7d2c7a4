"""Helpers shared by the test modules."""

import heapq
import math
import operator
import random
import signal
import threading
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd

import pytest

from toric_kernel import cones as cn
from toric_kernel import fans as fn
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl
from toric_kernel._packing import _Overflow, _Packing
from toric_kernel.zlattice import Matrix, copy_matrix, identity, shape
from toric_kernel.ideals import (GREVLEX, MonomialOrder, SparsePolynomial,
                                  _check_nvars, _mono_mul, buchberger,
                                  elimination_block)


class _Expired(BaseException):
    """Raised by ``within``'s alarm handler in whatever frame the alarm
    lands; a BaseException, so that the body's ``except Exception`` does
    not swallow it."""


@contextmanager
def within(seconds):
    """Fail when the body of the with block runs for `seconds` or longer.

    In the main thread of a platform with SIGALRM a process-local timer
    stops the body at the budget, so a body that never ends cannot hang
    the suite; the handler and timer that were set before are restored
    on exit. Elsewhere the time is only checked after the body ends.

    The handler only raises ``_Expired``; the test fails here, from this
    frame, with the interrupted frames left out of the report: a frame
    interrupted between two lines can have no line number, and pytest
    stopped with an INTERNALERROR formatting a failure raised in it.
    """
    armed = (hasattr(signal, "SIGALRM")
             and threading.current_thread() is threading.main_thread())
    if armed:
        def expire(signum, frame):
            raise _Expired

        old_handler = signal.signal(signal.SIGALRM, expire)
        old_delay, old_interval = signal.setitimer(signal.ITIMER_REAL, seconds)
    start = time.monotonic()
    try:
        try:
            yield
        finally:
            if armed:
                try:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                finally:
                    signal.signal(signal.SIGALRM, old_handler)
                    if old_delay:
                        # an outer timer that came due meanwhile fires at once
                        left = old_delay - (time.monotonic() - start)
                        signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6), old_interval)
    except _Expired:
        raise pytest.fail.Exception(f"still running at the budget of {seconds}s") from None
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def spy_hnf(monkeypatch) -> list:
    """Record the argument of every ``zl.hnf`` call for the rest of the test."""
    calls = []
    hnf = zl.hnf

    def spy(M):
        calls.append(M)
        return hnf(M)

    monkeypatch.setattr(zl, "hnf", spy)
    return calls


def snf_kernel(M):
    """Kernel basis read off the Smith column transform: the oracle for
    zl.kernel_basis and the basis the library printed before it read
    every kernel off the column HNF."""
    rows, cols = zl.shape(M)
    S, _, Q = pivot_snf(M)
    rank = sum(1 for i in range(min(rows, cols)) if S[i][i] != 0)
    return [[Q[i][j] for j in range(rank, cols)] for i in range(cols)]


# ---------------------------------------------------------------------------
# the two sublattice routines ``zl.lattice_split`` replaced, the oracles of its
# basis and projection: ``span_lattice_basis`` and ``quotient_map`` as the
# library ran them before, unchanged apart from the ``zl.`` prefixes

def span_lattice_basis(vectors: list, n: int) -> Matrix:
    """Columns: a basis of (R-span of the vectors) cap Z^n, the kernel of
    the kernel of the vectors, both from the column HNF.

    The resulting lattice is saturated, so integer vectors in the span
    have integer coordinates in this basis.
    """
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return [[] for _ in range(n)]
    K = zl.kernel_basis(rows)        # orthogonal complement lattice
    if not K[0]:
        return identity(n)
    return zl.kernel_basis(zl.transpose(K))


def quotient_map(K: Matrix) -> tuple[Matrix, Matrix]:
    """(pi, lift) for the saturated sublattice spanned by the independent
    columns of the n x ell matrix K, from the column HNF K^T U = [H | 0]
    with U unimodular: the rows of pi are the last n - ell columns of U,
    so pi K = 0 and pi maps Z^n onto Z^(n - ell), and the columns of
    lift are the last n - ell rows of U^-1, so pi lift = I.
    """
    n, ell = shape(K)
    U = zl.hnf(zl.transpose(K))[1] if ell else identity(n)
    _, Uinv = zl.hnf(U)        # the column HNF of a unimodular U is I
    return zl.columns(U)[ell:], [col[ell:] for col in zl.columns(Uinv)]


# ---------------------------------------------------------------------------
# the column HNF kernel as the library ran it before it stacked [H; U] and
# restricted each operation to the rows at and below the pivot row: the
# oracle of ``zl._column_hnf`` and of ``zl.snf``'s transforms.
# ``old_column_hnf`` and ``old_snf`` are ``_column_hnf`` and ``snf`` with
# their column helpers, unchanged apart from the names and ``zl.`` prefixes

def _swap_col(M, a, b):
    if a != b:
        for row in M:
            row[a], row[b] = row[b], row[a]


def _add_col(M, dst, src, c):
    """column dst += c * column src"""
    for row in M:
        row[dst] += c * row[src]


def _scale_col(M, j, c):
    for row in M:
        row[j] *= c


def old_column_hnf(H: Matrix, U: Matrix) -> None:
    """Bring H to the column HNF of ``hnf`` in place, applying every
    column operation to U as well."""
    rows, cols = shape(H)
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


def old_snf(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form S = P*M*Q."""
    rows, cols = shape(M)
    S = copy_matrix(M)
    Pt = identity(rows)
    Q = identity(cols)
    while True:
        # the row HNF comes first, or a repaired column is reduced
        # straight back to the diagonal it came from
        St = zl.transpose(S)
        old_column_hnf(St, Pt)
        S = zl.transpose(St) if cols else S   # [] would lose an r x 0 S's r
        old_column_hnf(S, Q)
        if any(S[i][j] for i in range(rows) for j in range(cols) if i != j):
            continue
        d = [S[i][i] for i in range(min(rows, cols))]
        t = next((t for t in range(len(d) - 1) if d[t] and d[t + 1] % d[t]), None)
        if t is None:
            return S, zl.transpose(Pt), Q
        _add_col(S, t, t + 1, 1)
        _add_col(Q, t, t + 1, 1)


# ---------------------------------------------------------------------------
# the pivot-search Smith engine, the oracle of zl.snf: ``pivot_snf`` and its
# helpers are the elimination the library ran before it alternated column
# and row Hermite forms, unchanged apart from the name of ``pivot_snf``

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


def _swap_row(M, a, b):
    if a != b:
        M[a], M[b] = M[b], M[a]


def _scale_row(M, i, c):
    M[i] = [c * a for a in M[i]]


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


def pivot_snf(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
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


# ---------------------------------------------------------------------------
# the Fraction Gauss-Jordan elimination ``zl.solve_rational`` ran before every
# solve went through the column HNF, the oracle of the consistency of a
# system; unchanged apart from its name

def gauss_jordan_solve(M: Matrix, b: list):
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


# ---------------------------------------------------------------------------
# ``zl.interpolate`` and ``zl.lattice_index`` as the library ran them before
# interpolation became one Vandermonde solve and the index read its
# coordinates from the step it shares with ``divisors.picard_group``: the
# oracles of both, unchanged apart from their names and the ``zl.`` prefixes

def lagrange_interpolate(points) -> zl.RationalPolynomial:
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
    return zl.RationalPolynomial(coeffs)


def old_lattice_index(Msub: Matrix, Msup: Matrix):
    """Index of the column lattice of Msub inside the one of Msup.

    Returns a positive integer, or math.inf (used purely as a sentinel)
    when the sublattice has strictly smaller rank. Raises ValueError if
    some column of Msub falls outside the superlattice.
    """
    rows_sub, _ = shape(Msub)
    rows_sup, _ = shape(Msup)
    if rows_sub != rows_sup:
        raise ValueError("ambient dimensions differ")
    Hs, _ = zl.hnf(Msup)
    rank_sup = len(zl.hnf_pivots(Hs))
    # the leading columns of Hs are already a column HNF
    solve = zl._hnf_solver([row[:rank_sup] for row in Hs], identity(rank_sup))
    coords = []
    for col in zl.columns(Msub):
        y = zl._integral(solve(col))
        if y is None:
            raise ValueError("column of Msub lies outside the superlattice")
        coords.append(y)
    C = zl.from_columns(coords, rows=rank_sup)
    Hc, _ = zl.hnf(C)
    pivots = zl.hnf_pivots(Hc)
    if len(pivots) < rank_sup:
        return math.inf
    index = 1
    for i, j in pivots:
        index *= Hc[i][j]
    return index


# ---------------------------------------------------------------------------
# the tuple Buchberger engine, the oracle of the packed one in ideals.py:
# ``tuple_pair_loop`` and ``tuple_binomial_basis`` are the pair loop and the
# binomial engine the library ran before it packed each monomial into one
# int, with their divisibility masks and tuple helpers, unchanged apart from
# their names; the Fraction engine below still runs on ``tuple_pair_loop``

def tuple_divides(a, b):
    return all(map(operator.le, a, b))


def tuple_lcm(a, b):
    return tuple(map(max, a, b))


def scanned_first_divisor(leads, m) -> int:
    """Position of the first lead in list order that divides m, or
    len(leads) when none does: the scan of the basis list that the
    binomial engine's ``_LeadIndex`` replaced, on exponent tuples."""
    return next((k for k, a in enumerate(leads) if tuple_divides(a, m)), len(leads))


MASK_BITS = 4   # bits per variable in a divisibility mask
THERMO = tuple((1 << k) - 1 for k in range(MASK_BITS + 1))


def tuple_mask(exps) -> int:
    """Thermometer code of a monomial, a filter for divisibility tests.

    Each variable owns a field of MASK_BITS bits; bit k of the field is
    set iff the variable's exponent is at least k + 1, capped at the
    field width. So a | b implies ``mask(a) & ~mask(b) == 0``, a and b
    are coprime iff ``mask(a) & mask(b) == 0``, and ``mask(lcm(a, b)) ==
    mask(a) | mask(b)``. Exponents past the cap make the first test pass
    where a does not divide b, so it never replaces the tuple test.
    """
    m = 0
    for e in exps:
        m = (m << MASK_BITS) | (THERMO[e] if e < MASK_BITS else THERMO[-1])
    return m


def tuple_pair_loop(initial, reduce_pair, key) -> list:
    """Buchberger's pair loop, on leading monomials and their masks only.

    The basis elements are numbered 0, 1, ... in the order they arrive.
    ``initial`` lists the (lead, mask) of the starting elements.
    ``reduce_pair(i, j, T)`` reduces the S-pair of elements i and j,
    whose leading monomials have lcm T; when the remainder is nonzero it
    stores it as the next element and returns its (lead, mask), and
    otherwise it returns None. Returns the indices of the elements whose
    leading monomials form the minimal generating set of the leading
    ideal, sorted by key.

    Pairs are processed lowest lcm degree first, ties broken by the lcm
    exponent tuple. Two classical pair-elimination criteria prune the
    queue, applied Gebauer-Moeller style as each element arrives: pairs
    with coprime leading monomials are dropped, and a pair is dropped
    when a third leading monomial divides its lcm and the two side pairs
    survive with smaller lcms (chain criterion).
    """
    lead = []    # leading exponents
    masks = []   # their tuple_mask values
    alive = {}   # (i, j) -> (lcm, its mask), the pair queue membership
    heap = []

    def divides_any(T, out, idx):
        # whether lead[k] divides T for some k in idx; out is ~mask(T)
        for k in idx:
            if not masks[k] & out and tuple_divides(lead[k], T):
                return True
        return False

    def install(le, m):
        new = len(lead)

        # candidate pairs (i, new), all lcms divisible by le, so lcm(lead[k], le)
        # divides lcm(lead[i], le) iff lead[k] does. A candidate goes when a later
        # candidate or an earlier kept one divides its lcm; coprime ones stay
        # provisionally since they still knock out candidates whose lcm they divide
        kept = []
        queued = []
        for i in range(new):
            mi = masks[i]
            if mi & m:
                T = tuple_lcm(lead[i], le)
                out = ~(mi | m)
                if divides_any(T, out, range(i + 1, new)) or divides_any(T, out, kept):
                    continue
                queued.append((i, T, mi | m))
            kept.append(i)

        # prune old pairs whose lcm the new leading monomial divides strictly
        doomed = []
        for (i, j), (T, mT) in alive.items():
            if (mT & m == m and tuple_divides(le, T)
                    and (masks[i] | m != mT or T != tuple_lcm(lead[i], le))
                    and (masks[j] | m != mT or T != tuple_lcm(lead[j], le))):
                doomed.append((i, j))
        for ij in doomed:
            del alive[ij]

        lead.append(le)
        masks.append(m)
        for i, T, mT in queued:
            alive[(i, new)] = (T, mT)
            heapq.heappush(heap, (sum(T), T, i, new))

    for le, m in initial:
        install(le, m)

    while heap:
        _, T, i, j = heapq.heappop(heap)
        if alive.pop((i, j), None) is None:
            continue
        new = reduce_pair(i, j, T)
        if new is not None:
            install(*new)

    # minimal generating set: drop leading monomials divisible by another
    kept = []
    for k in sorted(range(len(lead)), key=lambda k: key(lead[k])):
        if not divides_any(lead[k], ~masks[k], kept):
            kept.append(k)
    return kept


def tuple_binomial_basis(pairs, key) -> list:
    """Reduced Groebner basis of a pure difference binomial ideal.

    ``pairs`` holds exponent tuple pairs (u, v) with u != v, standing
    for the generators x^u - x^v; key is a monomial order's key. Returns
    the reduced basis as (lead, tail) pairs, lead the larger monomial
    under key, sorted by key of the lead: the same basis as
    ``buchberger`` returns for the generators, without coefficients.

    The S-pair of (a_i, b_i) and (a_j, b_j) with lcm T is
    (T - a_i + b_i, T - a_j + b_j). Each side is rewritten to its normal
    form by m -> m - a + b with the first element (a, b) whose lead
    divides m; equal sides mean the S-pair reduces to zero.
    """
    leads, tails, masks = [], [], []

    def normal(m):
        out = ~tuple_mask(m)
        while True:
            for a, b, ma in zip(leads, tails, masks):
                if not ma & out and tuple_divides(a, m):
                    m = tuple(x - y + z for x, y, z in zip(m, a, b))
                    out = ~tuple_mask(m)
                    break
            else:
                return m

    def oriented(u, v):
        return (u, v) if key(u) > key(v) else (v, u)

    def add(lead, tail):
        m = tuple_mask(lead)
        leads.append(lead)
        tails.append(tail)
        masks.append(m)
        return lead, m

    def reduce_pair(i, j, T):
        u = normal(tuple(t - a + b for t, a, b in zip(T, leads[i], tails[i])))
        v = normal(tuple(t - a + b for t, a, b in zip(T, leads[j], tails[j])))
        return None if u == v else add(*oriented(u, v))

    gens = sorted((oriented(u, v) for u, v in pairs), key=lambda p: key(p[0]))
    kept = tuple_pair_loop([add(u, v) for u, v in gens], reduce_pair, key)

    # the minimal leads still form a Groebner basis; a tail and all its
    # rewrites are smaller than their own lead, which never rewrites them
    leads[:] = [leads[k] for k in kept]
    tails[:] = [tails[k] for k in kept]
    masks[:] = [masks[k] for k in kept]
    return [(a, normal(b)) for a, b in zip(leads, tails)]


# ---------------------------------------------------------------------------
# the division of the fraction-free engine before it took its terms from one
# sorted list: ``old_reduce_terms`` is ``ideals._reduce_terms`` as it was when
# each step scanned the whole work dict for its largest term, unchanged apart
# from its name

def old_reduce_terms(terms: dict, lead: list, P: _Packing) -> tuple:
    """(remainder, scale): division of packed integer terms by divisors.

    A term c x^e is reduced by the first divisor, in list order, whose lead
    lm divides it: with g = gcd(c, lc), the rest r of the work becomes
    (lc/g) r - (c/g) x^(e - lm) times the divisor. A positive scale never
    changes which terms cancel, so the remainder over Q is remainder / scale.
    """
    G = P.guard
    work, remainder, scale = dict(terms), {}, 1
    while work:
        e = max(work, key=P.__getitem__)
        if e & G:   # every term that outgrew its field leads once, or cancels
            raise _Overflow
        c = work.pop(e)
        eG = e | G
        for le, lc, gterms in lead:
            if (eG - le) & G == G:
                g = gcd(c, lc)
                a, q = lc // g, c // g
                if a != 1:
                    scale *= a
                    work = {t: x * a for t, x in work.items()}
                    remainder = {t: x * a for t, x in remainder.items()}
                shift = e - le
                for ge, gc in gterms.items():
                    if ge == le:
                        continue
                    t = ge + shift
                    s = work.get(t, 0) - q * gc
                    if s:
                        work[t] = s
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[e] = c
    return remainder, scale


# ---------------------------------------------------------------------------
# the Fraction Groebner engine, the oracle of the integer one in ideals.py:
# ``fraction_reduce_terms`` and ``fraction_buchberger`` are the engine the
# library ran before it moved to primitive integer coefficients, unchanged
# apart from their names

def fraction_reduce_terms(terms: dict, lead: list, key) -> dict:
    """Remainder term dict of division by cached divisors.

    Each divisor is an (lm, mask, lc, term dict) tuple with lm its
    leading monomial, mask ``tuple_mask(lm)`` and lc its leading coefficient.
    A term is reduced by the first divisor, in list order, whose leading
    monomial divides it. Each monomial's order key is computed once.
    """
    work = dict(terms)
    keys = {e: key(e) for e in work}
    remainder = {}
    while work:
        e = max(work, key=keys.__getitem__)
        c = work.pop(e)
        out = ~tuple_mask(e)
        for le, lm, lc, gterms in lead:
            if not lm & out and tuple_divides(le, e):
                q = c / lc
                shift = tuple(x - y for x, y in zip(e, le))
                for ge, gc in gterms.items():
                    if ge == le:
                        continue
                    t = tuple(x + y for x, y in zip(ge, shift))
                    s = work.get(t, 0) - q * gc
                    if s:
                        work[t] = s
                        if t not in keys:
                            keys[t] = key(t)
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[e] = c
    return remainder


def _monic(f: SparsePolynomial, order: MonomialOrder) -> SparsePolynomial:
    _, lc = f.leading(order)
    return f if lc == 1 else f * (Fraction(1) / lc)


def fraction_buchberger(gens, order: MonomialOrder):
    """Reduced Groebner basis of the ideal generated by gens.

    The pair queue and its pruning are ``tuple_pair_loop``'s, so recomputation
    from shuffled generators returns the identical basis. S-polynomials
    are reduced by every element found so far, each leading monomial
    filtered by its mask before the tuple test.
    """
    gens = list(gens)
    if any(g.is_zero for g in gens):
        raise ValueError("generators must be nonzero")
    if not gens:
        return []
    nvars = gens[0].nvars
    _check_nvars(nvars, gens)

    key = order.key
    basis = []   # term dicts, monic
    lead = []    # leading exponents
    cache = []   # divisor tuples for _reduce_terms

    def add(g: SparsePolynomial):
        le, lc = g.leading(order)
        terms = g.terms if lc == 1 else {e: c / lc for e, c in g.terms.items()}
        m = tuple_mask(le)
        basis.append(terms)
        lead.append(le)
        cache.append((le, m, Fraction(1), terms))
        return le, m

    def reduce_pair(i, j, T):
        sterms = {}
        for ge, gc in basis[i].items():
            t = tuple(x + y - z for x, y, z in zip(ge, T, lead[i]))
            sterms[t] = sterms.get(t, 0) + gc
        for ge, gc in basis[j].items():
            t = tuple(x + y - z for x, y, z in zip(ge, T, lead[j]))
            s = sterms.get(t, 0) - gc
            if s:
                sterms[t] = s
            else:
                sterms.pop(t, None)
        r = fraction_reduce_terms(sterms, cache, key)
        return add(SparsePolynomial(nvars, r)) if r else None

    initial = [add(g) for g in sorted(gens, key=lambda g: key(g.leading(order)[0]))]
    kept_idx = tuple_pair_loop(initial, reduce_pair, key)

    # inter-reduce: replace each element by its normal form modulo the rest
    reduced = []
    for pos, k in enumerate(kept_idx):
        others = [cache[m] for m in kept_idx[:pos] + kept_idx[pos + 1:]]
        r = SparsePolynomial(nvars, fraction_reduce_terms(basis[k], others, key))
        reduced.append(_monic(r, order))
    reduced.sort(key=lambda g: key(g.leading(order)[0]))
    return reduced


def fraction_normal_form(f, basis, order):
    """``il.normal_form`` on the Fraction engine: the divisors keep their
    own leading coefficients, so a basis need not be monic."""
    basis = list(basis)
    _check_nvars(f.nvars, basis)
    lead = []
    for g in basis:
        if not g.is_zero:
            le, lc = g.leading(order)
            lead.append((le, tuple_mask(le), lc, g.terms))
    return SparsePolynomial(f.nvars, fraction_reduce_terms(f.terms, lead, order.key))


def fraction_membership(f, gens, order):
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return f.is_zero
    return fraction_normal_form(f, fraction_buchberger(gens, order), order).is_zero


def fraction_same_ideal(gens_a, gens_b, order):
    ga = [g for g in gens_a if not g.is_zero]
    gb = [g for g in gens_b if not g.is_zero]
    if not ga or not gb:
        return not ga and not gb
    basis_a = fraction_buchberger(ga, order)
    basis_b = fraction_buchberger(gb, order)
    return (all(fraction_normal_form(g, basis_b, order).is_zero for g in basis_a)
            and all(fraction_normal_form(g, basis_a, order).is_zero for g in basis_b))


# ---------------------------------------------------------------------------
# saturation by elimination on the generic engine, the oracle of toric_ideal:
# ``ideals.saturate`` and ``ideals.lattice_binomial`` as they were in the
# library, unchanged; no code there called them

def saturate(gens, varset):
    """Generators of the quotient I : (prod of the chosen variables)^infinity.

    varset holds 0-based variable indices. One auxiliary variable t is
    adjoined in front together with t * prod - 1; the t-free part of a
    Groebner basis under the block order eliminating t generates the
    saturation. The output is the reduced graded-reverse-lex basis.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return []
    nvars = gens[0].nvars
    varset = sorted(set(varset))
    if varset and not (0 <= varset[0] and varset[-1] < nvars):
        raise ValueError("variable index out of range")
    if not varset:
        return buchberger(gens, GREVLEX)

    shifted = [SparsePolynomial(nvars + 1, {(0,) + e: c for e, c in g.terms.items()})
               for g in gens]
    prod = [0] * (nvars + 1)
    prod[0] = 1
    for i in varset:
        prod[i + 1] = 1
    trick = SparsePolynomial(nvars + 1, {tuple(prod): Fraction(1),
                                         (0,) * (nvars + 1): Fraction(-1)})
    basis = buchberger(shifted + [trick], elimination_block(1))
    out = []
    for g in basis:
        if g.leading(elimination_block(1))[0][0] == 0:
            assert all(e[0] == 0 for e in g.terms)
            out.append(SparsePolynomial(nvars, {e[1:]: c for e, c in g.terms.items()}))
    return out


def lattice_binomial(nvars: int, vector) -> SparsePolynomial:
    """x^{v+} - x^{v-} for an integer vector v."""
    pos = tuple(max(v, 0) for v in vector)
    neg = tuple(max(-v, 0) for v in vector)
    return SparsePolynomial(nvars, {pos: Fraction(1)}) - \
        SparsePolynomial(nvars, {neg: Fraction(1)})


# ---------------------------------------------------------------------------
# the dot-product incidences, the oracles of the zero sets a Cone keeps from
# its double description: ``dedupe`` and ``pointed_dual_rays`` are the
# helpers cones.py ran before it kept those zero sets, and the functions
# below them are the bodies of ``Cone.is_pointed``, ``Cone.rays``,
# ``Cone.faces``, ``Cone.contains_in_relint``, ``cones.is_face_of`` and
# ``Fan.all_cones`` from then, unchanged apart from their names

def dedupe(vectors):
    seen = []
    for v in vectors:
        if v not in seen:
            seen.append(v)
    return seen


def pointed_dual_rays(cons, n, indep=None):
    """Extreme rays of D = {x : <u, x> >= 0 for u in cons}, sorted.

    Requires the constraint matrix to have rank n, which makes D pointed.
    """
    out = dedupe([v for v, _ in cn._dual_rays_with_zero_sets(cons, n, indep)])
    out.sort()
    return out


def rank_is_pointed(sigma):
    return zl.rank(sigma.facet_normals) == sigma.ambient_dim


def normal_rays(sigma):
    """``Cone.rays`` from the zero sets of the generators over the facet
    normals: g is extreme exactly when no other generator's zero set
    contains g's."""
    if not rank_is_pointed(sigma):
        raise ValueError("rays of a non-pointed cone are undefined")
    zero = [sum(1 << j for j, m in enumerate(sigma.facet_normals)
                if zl.dot(m, g) == 0) for g in sigma.generators]
    return [g for i, g in enumerate(sigma.generators)
            if not any(Z & zero[i] == zero[i]
                       for k, Z in enumerate(zero) if k != i)]


def normal_faces(sigma):
    """``Cone.faces`` from the zero set of each facet normal."""
    n = sigma.ambient_dim
    gens = sigma.generators
    zero = [sum(1 << i for i, g in enumerate(gens) if zl.dot(m, g) == 0)
            for m in sigma.facet_normals]
    full = (1 << len(gens)) - 1
    seen, stack = {full}, [full]
    while stack:
        F = stack.pop()
        for G in {F & Z for Z in zero} - seen:
            seen.add(G)
            stack.append(G)
    out = [cn.cone([g for i, g in enumerate(gens) if F >> i & 1], n)
           for F in seen]
    out.sort(key=lambda c: (c.dim, sorted(tuple(g) for g in c.generators)))
    return out


def paired_contains_in_relint(sigma, v):
    """v in the relative interior: strict on facet rows, tight on the
    span equations (the paired lineality normals)."""
    pairs = {tuple(m) for m in sigma.facet_normals
             if [-x for x in m] in sigma.facet_normals}
    for m in sigma.facet_normals:
        s = zl.dot(m, v)
        if tuple(m) in pairs:
            if s != 0:
                return False
        elif s <= 0:
            return False
    return True


def normal_is_face_of(tau, sigma):
    if not sigma.contains_cone(tau):
        return False
    tight = [m for m in sigma.facet_normals
             if all(zl.dot(m, g) == 0 for g in tau.generators)]
    cut = [g for g in sigma.generators
           if all(zl.dot(m, g) == 0 for m in tight)]
    return cn.cone(cut, sigma.ambient_dim) == tau


def containment_all_cones(F):
    """``Fan.all_cones`` placing each ray of each face by ``contains``."""
    out = {}
    for I, c in zip(F.maximal_cones, F._max_objs):
        for f in normal_faces(c):
            ixs = tuple(i for i in I if f.contains(F.rays[i]))
            out.setdefault(ixs, f)
    return out


# ---------------------------------------------------------------------------
# the sumset and semigroup-search predicates, the oracles of the Hilbert-basis
# criteria in polytopes.py: ``sumset_is_normal``, ``search_is_very_ample`` and
# ``recursive_semigroup_member`` are ``is_normal``, ``is_very_ample`` and
# ``cones.semigroup_member`` as the library ran them before, unchanged apart
# from their names

def sumset_is_normal(P) -> bool:
    """(P cap M) + (kP cap M) = ((k+1)P) cap M for k = 1..dim-1."""
    Q, _ = pt.project_full(P)
    d = Q.dim
    if d <= 1:
        return True
    levels = pt._projection_levels(Q.cone)
    A1 = {tuple(p) for p in pt._level_points(levels, 1)}
    Ak = A1
    for k in range(1, d):
        target = {tuple(p) for p in pt._level_points(levels, k + 1)}
        sums = {tuple(zl.vadd(list(a), list(b))) for a in A1 for b in Ak}
        if sums != target:
            return False
        Ak = target
    return True


def search_is_very_ample(P) -> bool:
    """Every Hilbert basis element of the vertex cone Cone(P cap M - v)
    is a nonnegative integer combination of P cap M - v, per vertex."""
    Q, _ = pt.project_full(P)
    d = Q.dim
    if d == 0:
        return True
    pts = pt.lattice_points(Q)
    for v in Q.vertices:
        S = [zl.vsub(p, v) for p in pts if p != v]
        C = cn.cone(S, d)
        for h in cn.hilbert_basis(C).vectors:
            if recursive_semigroup_member(S, h) is None:
                return False
    return True


def recursive_semigroup_member(gens, target):
    """Nonnegative integer coefficients c with sum c_i g_i = target.

    gens is a list of integer vectors spanning a pointed cone; returns
    None when target is not in the semigroup they generate. The search
    is depth first with coefficient bounds from a strictly positive
    functional on the cone.
    """
    vecs = [list(g) for g in gens]
    n = len(target)
    nonzero = [(i, g) for i, g in enumerate(vecs) if any(g)]
    target = list(target)
    if not nonzero:
        return [0] * len(vecs) if not any(target) else None
    span = cn.cone([g for _, g in nonzero], n)
    if not span.is_pointed:
        raise ValueError("generators span a non-pointed cone; search unbounded")
    w = [0] * n
    for m in span.facet_normals:
        w = zl.vadd(w, m)
    weights = [zl.dot(w, g) for _, g in nonzero]
    if any(x <= 0 for x in weights):
        raise ValueError("generators span a non-pointed cone; search unbounded")
    normals = span.facet_normals

    def feasible(rem):
        return all(zl.dot(m, rem) >= 0 for m in normals)

    if not feasible(target):
        return None
    coeffs = [0] * len(nonzero)

    def rec(i, rem, wrem):
        if i == len(nonzero):
            return not any(rem)
        bound = wrem // weights[i]
        g = nonzero[i][1]
        for c in range(bound, -1, -1):
            nrem = zl.vsub(rem, zl.vscale(c, g))
            if not feasible(nrem):
                continue
            coeffs[i] = c
            if rec(i + 1, nrem, wrem - c * weights[i]):
                return True
        coeffs[i] = 0
        return False

    if not rec(0, target, zl.dot(w, target)):
        return None
    out = [0] * len(vecs)
    for (i, _), c in zip(nonzero, coeffs):
        out[i] = c
    return out


# ---------------------------------------------------------------------------
# the polytope layer before a LatticePolytope kept the cone its hull built,
# the oracles of polytopes.py: ``rank_hull``, ``scaled_dilate``,
# ``gens_projection_levels``, ``gens_hull_lattice_points``,
# ``gens_lattice_points``, ``gens_ehrhart`` and ``rebuilt_cone_is_normal`` are
# ``hull``, ``dilate``, ``_projection_levels``, ``hull_lattice_points``,
# ``lattice_points`` (without its cache), ``ehrhart`` and ``is_normal`` as the
# library ran them before, apart from their names and the small
# ``RankPolytope`` record that stands in for the old ``LatticePolytope``

class RankPolytope:
    """Vertices, facets and equations, with a dimension from a rank and
    membership from dot products."""

    def __init__(self, ambient_dim, vertices, facets, equations):
        self.ambient_dim = ambient_dim
        self.vertices = vertices
        self.facets = facets
        self.equations = equations
        if len(vertices) > 1:
            v0 = vertices[0]
            self.dim = zl.rank([zl.vsub(v, v0) for v in vertices[1:]])
        else:
            self.dim = 0

    def contains(self, x) -> bool:
        return (all(zl.dot(u, x) + a >= 0 for u, a in self.facets)
                and all(zl.dot(u, x) + a == 0 for u, a in self.equations))


def rank_hull(points) -> RankPolytope:
    pts = [list(p) for p in dict.fromkeys(tuple(int(x) for x in p)
                                          for p in points)]
    if not pts:
        raise ValueError("hull of an empty point set")
    n = len(pts[0])
    C = cn.cone([p + [1] for p in pts], n + 1)
    verts = []
    for r in C.rays():
        if r[-1] != 1:
            raise AssertionError("homogenized cone has a ray at height != 1")
        verts.append(r[:-1])
    verts.sort()
    lin_span = zl.RowEchelon(b[:-1] for b in C.dual_lineality)
    facets = []
    for m in C.dual_rays:
        u, a = m[:-1], m[-1]
        if not any(lin_span.residue(u)):
            continue
        facets.append((u, a))
    facets.sort()
    equations = sorted((b[:-1], b[-1]) for b in C.dual_lineality)
    return RankPolytope(n, verts, facets, equations)


def scaled_dilate(P: RankPolytope, k: int) -> RankPolytope:
    if k < 0:
        raise ValueError("dilation factor must be nonnegative")
    if k == 0:
        return rank_hull([[0] * P.ambient_dim])
    if k == 1:
        return P
    verts = [zl.vscale(k, v) for v in P.vertices]
    facets = [(list(u), k * a) for u, a in P.facets]
    eqs = [(list(u), k * a) for u, a in P.equations]
    return RankPolytope(P.ambient_dim, verts, facets, eqs)


def gens_projection_levels(gens):
    """(lower, upper) bound triples of each coordinate, from one cone
    over the truncated generators per coordinate."""
    levels = []
    for i in range(len(gens[0]) - 1):
        C = cn.cone([g[:i + 1] + g[-1:] for g in gens], i + 2)
        lower = [(m[:i], m[-1], m[i]) for m in C.facet_normals if m[i] > 0]
        upper = [(m[:i], m[-1], -m[i]) for m in C.facet_normals if m[i] < 0]
        levels.append((lower, upper))
    return levels


def gens_hull_lattice_points(gens):
    if not gens:
        return []
    return pt._level_points(gens_projection_levels(gens), 1)


def gens_lattice_points(P):
    Q, (x0, L) = pt.project_full(P)
    pts = gens_hull_lattice_points([y + [1] for y in Q.vertices])
    if Q is not P:
        pts = sorted(zl.vadd(x0, zl.mat_vec(L, y)) for y in pts)
    return pts


def gens_ehrhart(P) -> zl.RationalPolynomial:
    Q, _ = pt.project_full(P)
    levels = gens_projection_levels([y + [1] for y in Q.vertices])
    data = []
    for k in range(Q.dim + 1):
        data.append((k, len(pt._level_points(levels, k))))
    return zl.interpolate(data)


def rebuilt_cone_is_normal(P) -> bool:
    Q, _ = pt.project_full(P)
    C = cn.cone([v + [1] for v in Q.vertices], Q.ambient_dim + 1)
    return all(h[-1] == 1 for h in cn.hilbert_basis(C).vectors)


# ---------------------------------------------------------------------------
# the listing and per-degree oracles of the counting code: ``listing_ehrhart``
# and ``tuple_hilbert_function`` are ``polytopes.ehrhart`` and
# ``ideals.hilbert_function`` as the library ran them before, unchanged apart
# from their names

def listing_ehrhart(P: pt.LatticePolytope) -> zl.RationalPolynomial:
    """Lattice-point counting polynomial of P, via exact interpolation
    of the counts of the first dim+1 dilates."""
    Q, _ = pt.project_full(P)
    levels = pt._projection_levels(Q.cone)
    data = []
    for k in range(Q.dim + 1):
        data.append((k, len(pt._level_points(levels, k))))
    return zl.interpolate(data)


def tuple_hilbert_function(A: zl.Matrix, d: int) -> int:
    """Cardinality of the d-fold sumset of the columns of A."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    n, s = zl.shape(A)
    points = {tuple(col) for col in zl.columns(A)}
    current = {(0,) * n}
    for _ in range(d):
        current = {_mono_mul(a, p) for a in current for p in points}
    return len(current)


# ---------------------------------------------------------------------------
# the per-ray cone kernels, the oracles of cones.py: ``scan_dual_rays_with_zero_sets``
# is ``cones._dual_rays_with_zero_sets`` with its adjacency test a scan of every
# current ray, and ``adjugate_parallelepiped_points`` is
# ``cones._parallelepiped_points`` with two matrix-vector products per box
# point, as the library ran them before, unchanged apart from their names

def scan_dual_rays_with_zero_sets(cons, n, indep=None):
    if n == 0:
        return []
    if indep is None:
        indep = cn._independent_rows(cons, n)
    if len(indep) < n:
        raise ValueError("constraint matrix does not have full rank")
    adj, det = zl.adjugate([cons[i] for i in indep])
    sign = 1 if det > 0 else -1
    seed = sum(1 << i for i in indep)
    rays = [(zl.primitive([sign * row[j] for row in adj]),
             seed & ~(1 << indep[j])) for j in range(n)]
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
                zero.append((vec, Z | 1 << k))
        new = [(v, Z) for v, Z, _ in plus] + zero
        for pvec, pZ, ps in plus:
            for mvec, mZ, ms in minus:
                T = pZ & mZ
                if T.bit_count() < n - 2:
                    continue
                blocked = any(Z3 & T == T and v3 is not pvec and v3 is not mvec
                              for v3, Z3 in rays)
                if blocked:
                    continue
                w = zl.vadd(zl.vscale(ps, mvec), zl.vscale(-ms, pvec))
                new.append((zl.primitive(w), T | 1 << k))
        rays = new
    return rays


def adjugate_parallelepiped_points(S, d):
    H, _ = zl.hnf(S)
    adj, det = zl.adjugate(S)
    points = set()
    for a in product(*(range(H[i][i]) for i in range(d))):
        shift = [x // det for x in zl.mat_vec(adj, a)]
        x = zl.vsub(a, zl.mat_vec(S, shift))
        if any(x):
            points.add(tuple(x))
    return points


# ---------------------------------------------------------------------------
# the rebuilt-cone and projected oracles of the face, volume and predicate
# queries: ``all_cones_is_complete``, ``faces_is_refinement`` and
# ``rebuilt_is_face_of`` are ``fans.is_complete``, ``fans.is_refinement`` and
# ``cones.is_face_of`` as the library ran them before they read facets off
# the zero sets, and ``fraction_volume``, ``fraction_normalized_volume``,
# ``projected_is_normal``, ``projected_is_very_ample`` and
# ``projected_is_smooth`` are the polytope queries from before they shared
# one determinant total and read P's own cones, unchanged apart from their
# names

def all_cones_is_complete(F) -> bool:
    """Exact combinatorial completeness test: the fan is pure of top
    dimension and every ridge lies in exactly two maximal cones."""
    n = F.ambient_dim
    if any(c.dim < n for c in F._max_objs):
        return False
    ridges = [f for f in rebuilt_all_cones(F).values() if f.dim == n - 1]
    return all(sum(1 for c in F._max_objs if c.contains_cone(f)) == 2
               for f in ridges)


def faces_is_refinement(Fprime, F) -> bool:
    if Fprime.ambient_dim != F.ambient_dim:
        raise ValueError("ambient dimensions differ")
    for cp in Fprime._max_objs:
        if not any(c.contains_cone(cp) for c in F._max_objs):
            return False
    for c in F._max_objs:
        members = [m for m in Fprime._max_objs
                   if m.dim == c.dim and c.contains_cone(m)]
        if not members:
            return False
        for m in members:
            for f in m.faces():
                if f.dim != m.dim - 1:
                    continue
                x = [0] * F.ambient_dim
                for r in f.rays():
                    x = zl.vadd(x, r)
                expected = 2 if c.contains_in_relint(x) else 1
                if sum(1 for m2 in members if m2.contains_cone(f)) != expected:
                    return False
    return True


def rebuilt_is_face_of(tau, sigma) -> bool:
    if not sigma.contains_cone(tau):
        return False
    cut = reduce(operator.and_, (Z for m, Z in zip(sigma.dual_rays, sigma.zero_sets)
                                 if all(zl.dot(m, g) == 0 for g in tau.generators)),
                 (1 << len(sigma.generators)) - 1)
    gens = [g for i, g in enumerate(sigma.generators) if cut >> i & 1]
    return cn.cone(gens, sigma.ambient_dim) == tau


def fraction_volume(P) -> Fraction:
    n = P.ambient_dim
    if P.dim < n:
        return Fraction(0)
    C = P.cone
    gens = C.generators
    total = sum(abs(zl.det([gens[i] for i in s]))
                for s in cn.pulling_triangulation(C.zero_sets, C._ray_mask(), n + 1))
    return Fraction(total, math.factorial(n))


def fraction_normalized_volume(P) -> int:
    Q, _ = pt.project_full(P)
    if Q.dim == 0:
        return 1
    v = fraction_volume(Q) * math.factorial(Q.dim)
    if v.denominator != 1:
        raise AssertionError("normalized volume of a lattice polytope must be integral")
    return int(v)


def projected_is_normal(P) -> bool:
    Q, _ = pt.project_full(P)
    return all(h[-1] == 1 for h in cn.hilbert_basis(Q.cone).vectors)


def projected_tangent_cones(Q):
    for v in Q.vertices:
        yield v, cn.cone([zl.vsub(w, v) for w in Q.vertices if w != v],
                         Q.ambient_dim)


def projected_is_very_ample(P) -> bool:
    Q, _ = pt.project_full(P)
    return all(Q.contains(zl.vadd(v, h))
               for v, tangent in projected_tangent_cones(Q)
               for h in cn.hilbert_basis(tangent).vectors)


def projected_is_smooth(P) -> bool:
    Q, _ = pt.project_full(P)
    return all(tangent.is_smooth for _, tangent in projected_tangent_cones(Q))


# ---------------------------------------------------------------------------
# the rebuilt-face oracles of the fan lookups: ``rebuilt_all_cones`` is
# ``Fan.all_cones`` (one Cone, one double description, per face of every
# maximal cone, without its cache), and ``scanned_cone_containing_relint``,
# ``intersected_image_cone``, ``rebuilt_orbit_table`` and
# ``any_cone_is_compatible`` are ``fans.cone_containing_relint``,
# ``fans.image_cone``, ``fans.orbit_table`` and ``fans.is_compatible`` as
# the library ran them before every lookup read one smallest-face cut off
# the zero sets, unchanged apart from their names, the fan argument where
# ``all_cones`` had ``self``, and the ``rebuilt_all_cones(F)`` they call

def rebuilt_all_cones(F):
    """Every cone of the fan, as a dict: ray-index tuple -> Cone.
    Generator j of maximal cone I is ray I[j], which names the rays
    of each face mask."""
    out = {}
    for I, c in zip(F.maximal_cones, F._max_objs):
        for Z in c.face_masks():
            ixs = tuple(i for j, i in enumerate(I) if Z >> j & 1)
            if ixs not in out:
                out[ixs] = cn.cone([F.rays[i] for i in ixs], F.ambient_dim)
    return out


def scanned_cone_containing_relint(F, u):
    cones = rebuilt_all_cones(F)
    for ixs in sorted(cones, key=lambda I: (len(I), I)):
        if cones[ixs].contains_in_relint(u):
            return ixs
    return None


def intersected_image_cone(Fmat, F2, sigma1):
    if len(Fmat) != F2.ambient_dim or any(len(row) != sigma1.ambient_dim for row in Fmat):
        raise ValueError("lattice map shape does not match the ambient dimensions")
    cones = rebuilt_all_cones(F2)
    img = [[zl.dot(row, g) for row in Fmat] for g in sigma1.generators]
    candidates = [I for I, c in cones.items() if all(c.contains(v) for v in img)]
    if not candidates:
        return None
    base = set(candidates[0])
    for I in candidates[1:]:
        base &= set(I)
    result = tuple(sorted(base))
    if result not in cones:
        raise AssertionError("containing cones do not intersect in a fan cone")
    return result


def any_cone_is_compatible(Fmat, F1, F2) -> bool:
    if len(Fmat) != F2.ambient_dim or any(len(row) != F1.ambient_dim for row in Fmat):
        raise ValueError("lattice map shape does not match the ambient dimensions")
    for c in F1._max_objs:
        img = [[zl.dot(row, g) for row in Fmat] for g in c.generators]
        if not any(all(c2.contains(v) for v in img) for c2 in F2._max_objs):
            return False
    return True


def rebuilt_orbit_table(F):
    n = F.ambient_dim
    cones = rebuilt_all_cones(F)
    order = sorted(cones, key=lambda I: (cones[I].dim, I))
    table = []
    for I in order:
        closure = sorted((J for J in cones if set(I) <= set(J)),
                         key=lambda J: (cones[J].dim, J))
        table.append((I, n - cones[I].dim, closure))
    return table


def normal_fan_38_rays():
    """The normal fan of the hull of 40 points in [-6,6]^3
    (random.Random(8)): 38 rays and 21 maximal cones, as the console
    script checks it in CI. With it comes the fan of all but its last
    maximal cone, which is incomplete and has ridges that lie in one
    maximal cone only."""
    rng = random.Random(8)
    F = fn.normal_fan(pt.hull([[rng.randint(-6, 6) for _ in range(3)] for _ in range(40)]))
    return F, fn._trusted_fan(F.rays, F.maximal_cones[:-1], 3)
