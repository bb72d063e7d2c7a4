"""Sparse polynomials over the rationals, Groebner bases, toric ideals.

Monomials are plain tuples of integer exponents, one entry per variable:
nonnegative for ordinary polynomials, arbitrary sign for Laurent
polynomials. Coefficients are ``fractions.Fraction`` values; nothing in
this module touches floating point. A monomial order is an object that
turns an exponent tuple into a sort key, so the leading term of a
polynomial is simply ``max(f.terms, key=order.key)``.

Three order kinds are provided: lexicographic, graded reverse
lexicographic, and a block order whose first block (the variables to be
eliminated) dominates. The block order is what drives saturation: the
ideal quotient I : (prod of chosen variables)^infinity is computed by
adjoining one auxiliary variable t together with t * prod - 1 and
discarding every basis element whose leading term still involves t.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm

from . import cones as cn
from . import zlattice as zl

Monomial = tuple  # tuple[int, ...], one exponent per variable


def _grevlex_key(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


class MonomialOrder:
    """A total, multiplicative well-order on monomials, given by a key."""

    __slots__ = ("kind", "block")

    def __init__(self, kind: str, block: int = 0):
        if kind not in ("lex", "grevlex", "elim"):
            raise ValueError(f"unknown monomial order kind {kind!r}")
        if kind == "elim" and block < 1:
            raise ValueError("elimination block must contain at least one variable")
        self.kind = kind
        self.block = block

    def key(self, exps):
        if self.kind == "lex":
            return tuple(exps)
        if self.kind == "grevlex":
            return _grevlex_key(exps)
        k = self.block
        return (_grevlex_key(exps[:k]), _grevlex_key(exps[k:]))

    def sorted_terms(self, f: "SparsePolynomial"):
        """Terms of f as (exponent, coefficient) pairs, largest first."""
        return sorted(f.terms.items(), key=lambda t: self.key(t[0]), reverse=True)

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and self.kind == other.kind and self.block == other.block)

    __hash__ = None

    def __repr__(self):
        if self.kind == "elim":
            return f"MonomialOrder('elim', {self.block})"
        return f"MonomialOrder({self.kind!r})"


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


def elimination_block(k: int) -> MonomialOrder:
    """Block order eliminating the first k variables."""
    return MonomialOrder("elim", k)


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class SparsePolynomial:
    """Polynomial with Fraction coefficients keyed by exponent tuple.

    The term dict never stores a zero coefficient. Instances are treated
    as immutable; arithmetic returns new objects.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError("exponent length does not match variable count")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in a polynomial monomial")
            c = clean.get(exps, 0) + Fraction(coeff)
            if c:
                clean[exps] = c
            else:
                clean.pop(exps, None)
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def leading(self, order: MonomialOrder):
        """(exponent, coefficient) of the largest term under the order."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            val = coeff
            for x, e in zip(point, exps):
                if e:
                    val *= Fraction(x) ** e
            total += val
        return total

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return SparsePolynomial(self.nvars, terms)

    def __neg__(self):
        return SparsePolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SparsePolynomial):
            if self.nvars != other.nvars:
                raise ValueError("variable count mismatch")
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = _mono_mul(e1, e2)
                    s = terms.get(e, 0) + c1 * c2
                    if s:
                        terms[e] = s
                    else:
                        terms.pop(e, None)
            return SparsePolynomial(self.nvars, terms)
        c = Fraction(other)
        return SparsePolynomial(self.nvars, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, SparsePolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return f"SparsePolynomial({self.nvars}, {format_polynomial(self)!r})"


def monomial(nvars: int, exps, coeff=1) -> SparsePolynomial:
    return SparsePolynomial(nvars, {tuple(exps): Fraction(coeff)})


def constant(nvars: int, coeff) -> SparsePolynomial:
    return SparsePolynomial(nvars, {(0,) * nvars: Fraction(coeff)})


class LaurentPolynomial:
    """Finite sum of rational multiples of t^m with m any integer vector."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        items = terms.items() if isinstance(terms, dict) else (terms or ())
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError("exponent length does not match variable count")
            c = clean.get(exps, 0) + Fraction(coeff)
            if c:
                clean[exps] = c
            else:
                clean.pop(exps, None)
        self.terms = clean

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self):
        """Exponent vectors with nonzero coefficient, lexicographically sorted."""
        return sorted(self.terms)

    def evaluate(self, point):
        if len(point) != self.nvars:
            raise ValueError("point length does not match variable count")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            val = coeff
            for x, e in zip(point, exps):
                if e:
                    val *= Fraction(x) ** e
            total += val
        return total

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            if self.nvars != other.nvars:
                raise ValueError("variable count mismatch")
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = _mono_mul(e1, e2)
                    s = terms.get(e, 0) + c1 * c2
                    if s:
                        terms[e] = s
                    else:
                        terms.pop(e, None)
            return LaurentPolynomial(self.nvars, terms)
        c = Fraction(other)
        return LaurentPolynomial(self.nvars, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return LaurentPolynomial(self.nvars, terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __eq__(self, other):
        return (isinstance(other, LaurentPolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return f"LaurentPolynomial({self.nvars}, {sorted(self.terms.items())})"


# ---------------------------------------------------------------------------
# division and Buchberger's algorithm

def _reduce_terms(terms: dict, lead: list, key) -> dict:
    """Remainder term dict of division by cached (lm, lc, term dict) triples."""
    work = dict(terms)
    remainder = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for le, lc, gterms in lead:
            if all(x <= y for x, y in zip(le, e)):
                q = c / lc
                shift = tuple(x - y for x, y in zip(e, le))
                for ge, gc in gterms.items():
                    if ge == le:
                        continue
                    t = tuple(x + y for x, y in zip(ge, shift))
                    s = work.get(t, 0) - q * gc
                    if s:
                        work[t] = s
                    else:
                        work.pop(t, None)
                break
        else:
            remainder[e] = c
    return remainder


def normal_form(f: SparsePolynomial, basis, order: MonomialOrder) -> SparsePolynomial:
    """Remainder of f under multivariate division by the basis.

    No term of the result is divisible by the leading monomial of any
    basis element, which makes the result canonical whenever the basis
    is a Groebner basis.
    """
    lead = []
    for g in basis:
        if not g.is_zero:
            le, lc = g.leading(order)
            lead.append((le, lc, g.terms))
    return SparsePolynomial(f.nvars, _reduce_terms(f.terms, lead, order.key))


def _monic(f: SparsePolynomial, order: MonomialOrder) -> SparsePolynomial:
    _, lc = f.leading(order)
    return f if lc == 1 else f * (Fraction(1) / lc)


def s_polynomial(f: SparsePolynomial, g: SparsePolynomial,
                 order: MonomialOrder) -> SparsePolynomial:
    """S-polynomial: both leading terms lifted to their lcm and cancelled."""
    lf, cf = f.leading(order)
    lg, cg = g.leading(order)
    T = _mono_lcm(lf, lg)
    mf = monomial(f.nvars, tuple(a - b for a, b in zip(T, lf)), 1 / cf)
    mg = monomial(g.nvars, tuple(a - b for a, b in zip(T, lg)), 1 / cg)
    return mf * f - mg * g


def buchberger(gens, order: MonomialOrder):
    """Reduced Groebner basis of the ideal generated by gens.

    Pairs are processed lowest lcm degree first, ties broken by the lcm
    exponent tuple, so recomputation from shuffled generators returns
    the identical basis. Two classical pair-elimination criteria prune
    the queue, applied Gebauer-Moeller style as each element arrives:
    pairs with coprime leading monomials are dropped, and a pair is
    dropped when a third leading monomial divides its lcm and the two
    side pairs survive with smaller lcms (chain criterion).
    """
    gens = list(gens)
    if any(g.is_zero for g in gens):
        raise ValueError("generators must be nonzero")
    if not gens:
        return []
    nvars = gens[0].nvars
    if any(g.nvars != nvars for g in gens):
        raise ValueError("variable count mismatch")

    key = order.key
    basis = []   # term dicts, monic
    lead = []    # leading exponents
    cache = []   # (lm, 1, terms) triples for _reduce_terms
    alive = {}   # (i, j) -> current lcm, the pair queue membership
    heap = []

    def install(g: SparsePolynomial):
        le, lc = g.leading(order)
        terms = g.terms if lc == 1 else {e: c / lc for e, c in g.terms.items()}
        new = len(basis)

        # candidate pairs (i, new): keep coprime ones provisionally since
        # they still knock out candidates whose lcm they divide
        cand = [(i, _mono_lcm(lead[i], le)) for i in range(new)]
        kept = []
        for pos, (i, T) in enumerate(cand):
            coprime = T == _mono_mul(lead[i], le)
            others = (T2 for _, T2 in cand[pos + 1:] + kept)
            if coprime or not any(_mono_divides(T2, T) for T2 in others):
                kept.append((i, T))

        # prune old pairs whose lcm the new leading monomial divides strictly
        for (i, j), T in list(alive.items()):
            if (_mono_divides(le, T)
                    and T != _mono_lcm(lead[i], le)
                    and T != _mono_lcm(lead[j], le)):
                del alive[(i, j)]

        basis.append(terms)
        lead.append(le)
        cache.append((le, Fraction(1), terms))
        for i, T in kept:
            if T != _mono_mul(lead[i], le):
                alive[(i, new)] = T
                heapq.heappush(heap, (sum(T), T, i, new))

    for g in sorted(gens, key=lambda g: key(g.leading(order)[0])):
        install(g)

    while heap:
        _, T, i, j = heapq.heappop(heap)
        if alive.get((i, j)) != T:
            continue
        del alive[(i, j)]
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
        r = _reduce_terms(sterms, cache, key)
        if r:
            install(SparsePolynomial(nvars, r))

    # minimal generating set: drop leading monomials divisible by another
    order_idx = sorted(range(len(basis)), key=lambda k: key(lead[k]))
    kept_idx = []
    for k in order_idx:
        if not any(_mono_divides(lead[m], lead[k]) for m in kept_idx):
            kept_idx.append(k)

    # inter-reduce: replace each element by its normal form modulo the rest
    reduced = []
    for pos, k in enumerate(kept_idx):
        others = [cache[m] for m in kept_idx[:pos] + kept_idx[pos + 1:]]
        r = SparsePolynomial(nvars, _reduce_terms(basis[k], others, key))
        reduced.append(_monic(r, order))
    reduced.sort(key=lambda g: key(g.leading(order)[0]))
    return reduced


def membership(f: SparsePolynomial, gens, order: MonomialOrder = GREVLEX) -> bool:
    """Whether f lies in the ideal generated by gens."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return f.is_zero
    basis = buchberger(gens, order)
    return normal_form(f, basis, order).is_zero


def same_ideal(gens_a, gens_b, order: MonomialOrder = GREVLEX) -> bool:
    """Ideal equality certified by mutual normal-form reduction to zero."""
    ga = [g for g in gens_a if not g.is_zero]
    gb = [g for g in gens_b if not g.is_zero]
    if not ga or not gb:
        return not ga and not gb
    basis_a = buchberger(ga, order)
    basis_b = buchberger(gb, order)
    return (all(normal_form(g, basis_b, order).is_zero for g in basis_a)
            and all(normal_form(g, basis_a, order).is_zero for g in basis_b))


# ---------------------------------------------------------------------------
# saturation and toric ideals

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


class _SaturationOrder:
    """Weighted reverse-lex order making one chosen variable the smallest.

    Internal to the graded fast path of toric_ideal; only .key is used
    by the division and basis routines. The grading weights must make
    the ideal homogeneous for the saturation-by-division step to be
    valid.
    """

    __slots__ = ("weights", "seq")

    def __init__(self, weights, last: int):
        self.weights = tuple(weights)
        self.seq = (last, *(j for j in range(len(weights) - 1, -1, -1) if j != last))

    def key(self, exps):
        w = self.weights
        return (sum(w[j] * e for j, e in enumerate(exps)),
                tuple(-exps[j] for j in self.seq))


def _divide_out(g: SparsePolynomial, i: int) -> SparsePolynomial:
    """Strip the largest power of variable i dividing every term."""
    m = min(e[i] for e in g.terms)
    if m == 0:
        return g
    return SparsePolynomial(
        g.nvars, {e[:i] + (e[i] - m,) + e[i + 1:]: c for e, c in g.terms.items()})


def _positive_grading(A: zl.Matrix):
    """Positive weights making the toric ideal of A homogeneous, if any.

    Weights w_i = <v, a_i> for v strictly positive on every nonzero
    point of the cone spanned by the columns; such a v exists exactly
    when that cone is pointed and no column is zero.
    """
    n, s = zl.shape(A)
    cols = zl.columns(A)
    if any(not any(c) for c in cols):
        return None
    spanned = cn.cone(cols, n)
    if not spanned.is_pointed:
        return None
    # the sum of a generating set of the dual lies in its relative
    # interior, hence pairs strictly positively with the cone's nonzero points
    v = [sum(r[i] for r in spanned.facet_normals) for i in range(n)]
    weights = [zl.dot(v, c) for c in cols]
    assert all(w > 0 for w in weights)
    g = zl.vgcd(weights)
    return [w // g for w in weights] if g > 1 else weights


def toric_ideal(A: zl.Matrix):
    """Reduced graded-reverse-lex basis of the toric ideal of A.

    The columns of A are the exponent vectors of a monomial map; the
    ideal is the vanishing ideal of the closure of its image. Pipeline:
    saturated-kernel basis, one binomial per basis vector, saturation
    with respect to the product of all variables, then the reduced
    basis. Every output element is a binomial.

    When the columns span a pointed cone and none is zero, the ideal
    carries a positive grading and the saturation runs variable by
    variable: one weighted reverse-lex basis per variable followed by
    dividing each element by the variable's largest common power. The
    degenerate cases fall back to the auxiliary-variable elimination
    of ``saturate``, which is slower but fully general.
    """
    n, s = zl.shape(A)
    if s == 0:
        raise ValueError("the configuration must contain at least one point")
    K = zl.kernel_basis(A)
    cols = zl.columns(K)
    if not cols:
        return []
    gens = [lattice_binomial(s, v) for v in cols]
    weights = _positive_grading(A)
    if weights is None:
        return saturate(gens, range(s))
    for i in range(s):
        order = _SaturationOrder(weights, i)
        gens = [_divide_out(g, i) for g in buchberger(gens, order)]
    return buchberger(gens, GREVLEX)


def is_homogeneous_config(A: zl.Matrix):
    """Witness (u, c) with <u, a> = c != 0 for every column a, if one exists."""
    n, s = zl.shape(A)
    if s == 0:
        return [0] * n, 1
    sol = zl.solve_rational(zl.transpose(A), [1] * s)
    if sol is None:
        return None
    denom = lcm(*(f.denominator for f in sol)) if sol else 1
    u = [int(f * denom) for f in sol]
    c = denom
    g = gcd(zl.vgcd(u), c)
    if g > 1:
        u = [x // g for x in u]
        c //= g
    return u, c


def hilbert_function(A: zl.Matrix, d: int) -> int:
    """Cardinality of the d-fold sumset of the columns of A."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    n, s = zl.shape(A)
    points = {tuple(col) for col in zl.columns(A)}
    current = {(0,) * n}
    for _ in range(d):
        current = {_mono_mul(a, p) for a in current for p in points}
    return len(current)


def chart_config(A: zl.Matrix, i: int) -> zl.Matrix:
    """Translate the configuration so that column i sits at the origin."""
    n, s = zl.shape(A)
    if not 0 <= i < s:
        raise zl.IndexOutOfRangeError(f"column index {i} out of range for {s} columns")
    return [[A[r][j] - A[r][i] for j in range(s)] for r in range(n)]


# ---------------------------------------------------------------------------
# text output

def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def format_polynomial(f, order: MonomialOrder = GREVLEX) -> str:
    """Render terms largest-first, exponents as x1^2*x4, coefficients as p/q."""
    if f.is_zero:
        return "0"
    parts = []
    for exps, coeff in sorted(f.terms.items(), key=lambda t: order.key(t[0]),
                              reverse=True):
        factors = [f"x{i + 1}^{e}" if e != 1 else f"x{i + 1}"
                   for i, e in enumerate(exps) if e]
        mono = "*".join(factors)
        mag = abs(coeff)
        if not mono:
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_coeff(mag)}*{mono}"
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f" - {body}" if coeff < 0 else f" + {body}")
    return "".join(parts)
