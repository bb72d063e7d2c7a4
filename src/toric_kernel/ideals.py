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

Two Buchberger engines share one pair routine (``_pair_loop``), which
sees only leading monomials. ``buchberger`` serves every ideal on
primitive integer term dicts, fraction-free (Becker-Weispfenning,
*Groebner Bases*, 10.1); only its output is made monic. Its division
takes the terms largest first from one sorted work list, and
``membership`` divides by the elements with minimal leads, a Groebner
basis that is not inter-reduced. ``_binomial_basis`` serves
``toric_ideal``: there every basis element is a pure difference binomial
x^lead - x^tail, kept as the pair (lead, tail), and reduction rewrites
one monomial at a time, m -> m - lead + tail (Sturmfels, *Groebner Bases
and Convex Polytopes*, ch. 12).

Within an engine call each monomial is one int with a field per
variable and a guard bit atop each field (``_packing._Packing``), so
divisibility, lcm, support and rewriting are a few exact int operations;
exponent tuples remain only in the arguments and the results. The
binomial engine finds the first lead that divides a monomial through a
``_packing._LeadIndex`` of the leads' exponents, not a scan of the leads,
and rewrites each input by the inputs before it, so that an input
already in the ideal of those before it never reaches the pair loop.
"""

from __future__ import annotations

import heapq
from bisect import insort
from fractions import Fraction
from math import gcd, lcm

from . import cones as cn
from . import zlattice as zl
from ._packing import _LeadIndex, _Overflow, _Packing, _packed

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


def _check_nvars(nvars: int, polys):
    """Reject polynomials whose variable count is not nvars.

    Exponent tuples are combined with zip, which would silently
    truncate the longer one.
    """
    if any(g.nvars != nvars for g in polys):
        raise ValueError("variable count mismatch")


class LaurentPolynomial:
    """Finite sum of rational multiples of t^m with m any integer vector.

    Fraction coefficients are keyed by exponent tuple, and the term dict
    never stores a zero coefficient. Instances are treated as immutable;
    arithmetic returns new objects of the operands' class, and objects
    of two different classes are never equal.
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

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        # the constructor sums repeated monomials and drops zero sums
        return type(self)(self.nvars, [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return type(self)(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if type(other) is type(self):
            if self.nvars != other.nvars:
                raise ValueError("variable count mismatch")
            return type(self)(self.nvars, [(_mono_mul(e1, e2), c1 * c2)
                                           for e1, c1 in self.terms.items()
                                           for e2, c2 in other.terms.items()])
        c = Fraction(other)    # a TypeError for a polynomial of the other class
        return type(self)(self.nvars, {e: c * v for e, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.nvars == other.nvars and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return f"LaurentPolynomial({self.nvars}, {sorted(self.terms.items())})"


class SparsePolynomial(LaurentPolynomial):
    """Polynomial: a Laurent polynomial with nonnegative exponents."""

    __slots__ = ()

    def __init__(self, nvars: int, terms=None):
        super().__init__(nvars, terms)
        if any(e < 0 for exps in self.terms for e in exps):
            raise ValueError("negative exponent in a polynomial monomial")

    def leading(self, order: MonomialOrder):
        """(exponent, coefficient) of the largest term under the order."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        e = max(self.terms, key=order.key)
        return e, self.terms[e]

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __repr__(self):
        return f"SparsePolynomial({self.nvars}, {format_polynomial(self)!r})"


def monomial(nvars: int, exps, coeff=1) -> SparsePolynomial:
    return SparsePolynomial(nvars, {tuple(exps): Fraction(coeff)})


def constant(nvars: int, coeff) -> SparsePolynomial:
    return SparsePolynomial(nvars, {(0,) * nvars: Fraction(coeff)})


# ---------------------------------------------------------------------------
# packed monomials, division and Buchberger's algorithm

def _divisor(P: _Packing, f) -> tuple:
    """(lm, lc, h): h the primitive integer multiple of f (a polynomial or
    packed terms) on packed monomials, lm its lead with coefficient lc > 0."""
    if isinstance(f, SparsePolynomial):
        f = {P.pack(e): c for e, c in f.terms.items()}
    den = lcm(*(c.denominator for c in f.values()))
    ints = {e: c.numerator * (den // c.denominator) for e, c in f.items()}
    lm = max(ints, key=P.__getitem__)
    g = gcd(*ints.values()) * (1 if ints[lm] > 0 else -1)
    return lm, ints[lm] // g, {e: c // g for e, c in ints.items()}


def _reduce_terms(terms: dict, lead: list, P: _Packing) -> tuple:
    """(remainder, scale): division of packed integer terms by divisors.

    A term c x^e is reduced by the first divisor, in list order, whose lead
    lm divides it: with g = gcd(c, lc), the rest r of the work becomes
    (lc/g) r - (c/g) x^(e - lm) times the divisor. A positive scale never
    changes which terms cancel, so the remainder over Q is remainder / scale.

    The terms are taken largest first from one list of (key, monomial)
    pairs, sorted once and popped from its end (the division of
    Monagan-Pearce, CASC 2007, with a sorted list for the heap): a term a
    reduction creates is below the one reduced, so it is inserted in
    place; a cancelled term leaves a stale entry, which the pop skips.
    """
    G = P.guard
    coeffs, remainder, scale = dict(terms), {}, 1
    work = sorted((P[e], e) for e in coeffs)
    while work:
        e = work.pop()[1]
        c = coeffs.pop(e, 0)
        if not c:   # cancelled after it was listed
            continue
        if e & G:   # every term that outgrew its field leads once, or cancels
            raise _Overflow
        eG = e | G
        for le, lc, gterms in lead:
            if (eG - le) & G == G:
                g = gcd(c, lc)
                a, q = lc // g, c // g
                if a != 1:
                    scale *= a
                    coeffs = {t: x * a for t, x in coeffs.items()}
                    remainder = {t: x * a for t, x in remainder.items()}
                shift = e - le
                for ge, gc in gterms.items():
                    if ge == le:
                        continue
                    t = ge + shift
                    if t in coeffs:
                        s = coeffs[t] - q * gc
                        if s:
                            coeffs[t] = s
                        else:
                            del coeffs[t]
                    else:
                        coeffs[t] = -q * gc
                        insort(work, (P[t], t))
                break
        else:
            remainder[e] = c
    return remainder, scale


def normal_form(f: SparsePolynomial, basis, order: MonomialOrder) -> SparsePolynomial:
    """Remainder of f under multivariate division by the basis.

    No term of the result is divisible by the leading monomial of any
    basis element, which makes the result canonical whenever the basis
    is a Groebner basis. It is computed on integer multiples, exactly.
    """
    basis = list(basis)
    _check_nvars(f.nvars, basis)
    if f.is_zero:
        return f
    basis = [g for g in basis if not g.is_zero]

    def run(P):
        lm, c, F = _divisor(P, f)
        r, scale = _reduce_terms(F, [_divisor(P, g) for g in basis], P)
        d = f.terms[P.unpack(lm)] / (c * scale)
        return SparsePolynomial(f.nvars, {P.unpack(m): x * d for m, x in r.items()})

    return _packed(run, [e for g in (f, *basis) for e in g.terms], order.key)


def _pair_loop(initial, reduce_pair, P: _Packing) -> list:
    """Buchberger's pair loop, on packed leading monomials only.

    The elements are numbered in the order they arrive; ``initial`` lists
    the leads of the first ones. ``reduce_pair(i, j, T)`` reduces the
    S-pair of elements i and j, whose leads have lcm T, stores a nonzero
    remainder as the next element and returns its lead, else None.
    Returns the indices of the minimal leads, sorted by key.

    Pairs go lowest lcm degree first, ties broken by the lcm's exponent
    tuple, and are pruned Gebauer-Moeller style as each element arrives:
    pairs with coprime leads are dropped, and so is a pair whose lcm a
    third lead divides while both side pairs survive with smaller lcms.
    Divisibility, lcm and coprimality are exact packed-int tests. The
    candidate scan, which stops within a few leads, makes no function call
    per candidate: it writes out the lcm of ``_Packing.lcm`` and the
    divisibility test, a divides T iff ((T | guard) - a) keeps every
    guard bit, over the later leads and then the kept ones.
    """
    G, plcm, shift = P.guard, P.lcm, P.width - 1
    lead, supp = [], []   # packed leading monomials, their supports
    alive, heap = {}, []  # (i, j) -> lcm of each queued pair; the queue itself

    def divides_any(T, leads):
        TG = T | G
        for a in leads:
            if (TG - a) & G == G:
                return True
        return False

    def install(le):
        new = len(lead)
        s = P.support(le)

        # candidate pairs (i, new), all lcms divisible by le, so lcm(lead[k], le)
        # divides lcm(lead[i], le) iff lead[k] does. A candidate goes when a later
        # candidate or an earlier kept one divides its lcm; coprime ones stay
        # provisionally since they still knock out candidates whose lcm they divide
        kept, queued = [], []
        for i in range(new):
            b = lead[i]
            if supp[i] & s:
                g = ((le | G) - b) & G   # lcm(b, le), written out like P.lcm
                TG = b ^ ((b ^ le) & (g - (g >> shift))) | G
                for a in lead[i + 1:]:
                    if (TG - a) & G == G:
                        break
                else:
                    for a in kept:
                        if (TG - a) & G == G:
                            break
                    else:
                        queued.append((i, TG ^ G))
                        kept.append(b)
            else:
                kept.append(b)

        # prune old pairs whose lcm the new leading monomial divides strictly
        for ij in [(i, j) for (i, j), T in alive.items() if P.divides(le, T)
                   and T != plcm(lead[i], le) and T != plcm(lead[j], le)]:
            del alive[ij]

        lead.append(le)
        supp.append(s)
        for i, T in queued:
            alive[(i, new)] = T
            heapq.heappush(heap, (sum(P.fields(T)), T, i, new))

    for le in initial:
        install(le)

    while heap:
        _, T, i, j = heapq.heappop(heap)
        if alive.pop((i, j), None) is None:
            continue
        new = reduce_pair(i, j, T)
        if new is not None:
            install(new)

    # minimal generating set: drop leading monomials divisible by another
    minimal = {}   # lead -> index
    for k in sorted(range(len(lead)), key=lambda k: P[lead[k]]):
        if not divides_any(lead[k], minimal):
            minimal[lead[k]] = k
    return list(minimal.values())


def _minimal_basis(gens, P: _Packing) -> list:
    """A Groebner basis of nonzero generators as ``_divisor`` tuples sorted
    by key: the elements with minimal leads, not inter-reduced. With
    g = gcd(lc_i, lc_j), the S-pair of f_i and f_j is
    (lc_j/g) x^(T - lm_i) f_i - (lc_i/g) x^(T - lm_j) f_j, T the lcm of
    the leading monomials; the pair loop is ``_pair_loop``."""

    def reduce_pair(i, j, T):
        (li, ci, fi), (lj, cj, fj) = cache[i], cache[j]
        g = gcd(ci, cj)
        sterms = {}
        for shift, q, h in ((T - li, cj // g, fi), (T - lj, -ci // g, fj)):
            for ge, gc in h.items():
                sterms[ge + shift] = sterms.get(ge + shift, 0) + q * gc
        r, _ = _reduce_terms({t: c for t, c in sterms.items() if c}, cache, P)
        if not r:
            return None
        cache.append(_divisor(P, r))
        return cache[-1][0]

    cache = sorted((_divisor(P, g) for g in gens), key=lambda d: P[d[0]])
    return [cache[k] for k in _pair_loop([d[0] for d in cache], reduce_pair, P)]


def _groebner(gens, P: _Packing) -> list:
    """Reduced Groebner basis of nonzero generators as ``_divisor`` tuples
    sorted by key: each element of ``_minimal_basis`` reduced by the others.
    The leading monomials, hence the key order, stay."""
    basis = _minimal_basis(gens, P)
    return [_divisor(P, _reduce_terms(h, basis[:k] + basis[k + 1:], P)[0])
            for k, (_, _, h) in enumerate(basis)]


def buchberger(gens, order: MonomialOrder):
    """Reduced Groebner basis of the ideal generated by gens: the basis of
    ``_groebner`` made monic, sorted by the key of the leading monomials."""
    gens = list(gens)
    if any(g.is_zero for g in gens):
        raise ValueError("generators must be nonzero")
    if not gens:
        return []
    nvars = gens[0].nvars
    _check_nvars(nvars, gens)

    return _packed(lambda P: [
        SparsePolynomial(nvars, {P.unpack(e): Fraction(c, lc) for e, c in h.items()})
        for _, lc, h in _groebner(gens, P)], [e for g in gens for e in g.terms], order.key)


def _binomial_basis(pairs, key) -> list:
    """Reduced Groebner basis of a pure difference binomial ideal.

    ``pairs`` lists exponent tuple pairs (u, v), u != v, for the generators
    x^u - x^v; key is a monomial order's key. Returns the reduced basis as
    (lead, tail) pairs sorted by the key of the lead: the basis that
    ``buchberger`` returns for the generators, without coefficients.

    The S-pair of (a_i, b_i) and (a_j, b_j) with lcm T is (T - a_i + b_i,
    T - a_j + b_j); each side is rewritten to normal form by m -> m - a + b,
    packed, with the first (a, b) whose lead divides m, which a
    ``_LeadIndex`` of the leads finds without scanning them. Equal sides
    mean the S-pair reduces to zero. The inputs go the same way before
    the pair loop: smallest lead first, both sides of each are rewritten
    by the inputs accepted before it, and one whose sides meet is dropped.
    The ideal, hence the reduced basis, stays; a pass seeded with the
    whole basis of the previous one starts from a few leads, not all.
    """
    if not pairs:
        return []

    def run(P):
        G = P.guard

        def normal(m):
            while True:
                if m & G:
                    raise _Overflow
                k = index.first(m)
                if k == len(basis):
                    return m
                a, b = basis[k]
                m = m - a + b

        def oriented(u, v):
            return (u, v) if P[u] > P[v] else (v, u)

        def accept(u, v):
            """Store x^u - x^v with both sides in normal form and return
            its lead, or None when the sides meet."""
            u, v = normal(u), normal(v)
            if u == v:
                return None
            basis.append(oriented(u, v))
            index.add(basis[-1][0])
            return basis[-1][0]

        def reduce_pair(i, j, T):
            (a, b), (c, d) = basis[i], basis[j]
            return accept(T - a + b, T - c + d)

        # the packed inputs, smallest lead first, each reduced by those
        # accepted before it; only the survivors reach the pair loop
        basis, index = [], _LeadIndex(P)
        for u, v in sorted((oriented(P.pack(u), P.pack(v)) for u, v in pairs),
                           key=lambda p: P[p[0]]):
            accept(u, v)
        kept = _pair_loop([a for a, _ in basis], reduce_pair, P)

        # the minimal leads still form a Groebner basis; a tail and all its
        # rewrites are smaller than their own lead, which never rewrites them
        basis = [basis[k] for k in kept]
        index = _LeadIndex(P, [a for a, _ in basis])
        return [(P.unpack(a), P.unpack(normal(b))) for a, b in basis]

    return _packed(run, [m for p in pairs for m in p], key)


def membership(f: SparsePolynomial, gens, order: MonomialOrder = GREVLEX) -> bool:
    """Whether f lies in the ideal generated by gens: whether f reduces to
    zero by ``_minimal_basis``. Any Groebner basis, reduced or not, decides
    membership (Becker-Weispfenning, *Groebner Bases*, ch. 5), so the basis
    is not inter-reduced."""
    gens = list(gens)
    _check_nvars(f.nvars, gens)
    gens = [g for g in gens if not g.is_zero]
    if not gens or f.is_zero:
        return f.is_zero

    return _packed(
        lambda P: not _reduce_terms(_divisor(P, f)[2], _minimal_basis(gens, P), P)[0],
        [e for g in (f, *gens) for e in g.terms], order.key)


def same_ideal(gens_a, gens_b, order: MonomialOrder = GREVLEX) -> bool:
    """Ideal equality: the two reduced Groebner bases, which are unique, agree."""
    ga, gb = list(gens_a), list(gens_b)
    both = ga + gb
    if both:
        _check_nvars(both[0].nvars, both)
    ga = [g for g in ga if not g.is_zero]
    gb = [g for g in gb if not g.is_zero]
    if not ga or not gb:
        return not ga and not gb

    return _packed(lambda P: _groebner(ga, P) == _groebner(gb, P),
                   [e for g in ga + gb for e in g.terms], order.key)


# ---------------------------------------------------------------------------
# saturation and toric ideals

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


def _divide_out(pair, i: int):
    """Strip the largest power of variable i dividing both monomials of a binomial."""
    u, v = pair
    m = min(u[i], v[i])
    if m == 0:
        return pair
    return u[:i] + (u[i] - m,) + u[i + 1:], v[:i] + (v[i] - m,) + v[i + 1:]


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


def _support(exps) -> int:
    """Bit mask of the variables with a nonzero exponent."""
    return sum(1 << j for j, e in enumerate(exps) if e)


def _unit_closure(pairs, sat: int) -> int:
    """Grow sat, a bit mask of variables, by the unit rule to a fixpoint.

    For each binomial (a, b) of the pairs: when supp(b) lies in sat,
    supp(a) joins it, and symmetrically. If J, the ideal the pairs
    generate, is saturated with respect to every variable in sat, it is
    so with respect to every variable of the grown mask: once the
    variables of sat are inverted, x^b is a unit modulo J, so x^a = x^b
    is one too, and so is every variable of a; saturating J by a unit
    changes nothing.
    """
    supports = [(_support(a), _support(b)) for a, b in pairs]
    while True:
        grown = sat
        for sa, sb in supports:
            if not sb & ~grown:
                grown |= sa
            if not sa & ~grown:
                grown |= sb
        if grown == sat:
            return sat
        sat = grown


def toric_ideal(A: zl.Matrix):
    """Reduced graded-reverse-lex basis of the toric ideal of A.

    The columns of A are the exponent vectors of a monomial map; the
    ideal is the vanishing ideal of the closure of its image. Pipeline:
    saturated-kernel basis, one binomial per basis vector, saturation
    with respect to the product of all variables, then the reduced
    basis. Every output element is a binomial, and every step runs on
    the binomial engine ``_binomial_basis``; polynomials are built only
    for the returned basis.

    When the columns span a pointed cone and none is zero, the ideal
    carries a positive grading and the saturation runs variable by
    variable: one weighted reverse-lex basis per variable followed by
    dividing each element by the variable's largest common power. A
    variable is skipped once ``_unit_closure`` shows it is a unit modulo
    the ideal with the saturated variables inverted: x^a - x^b in the
    ideal with every variable of b saturated makes every variable of a
    such a unit, and saturating by a unit changes nothing. Without a
    positive grading, the saturation is an elimination: adjoin an
    auxiliary t and t * x_1 * ... * x_s - 1, take one basis under the
    block order that eliminates t, and keep its t-free elements.
    """
    n, s = zl.shape(A)
    if s == 0:
        raise ValueError("the configuration must contain at least one point")
    K = zl.kernel_basis(A)
    cols = zl.columns(K)
    pairs = [(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v)) for v in cols]
    weights = _positive_grading(A)
    if weights is None:
        lifted = [((0,) + u, (0,) + v) for u, v in pairs]
        lifted.append(((1,) * (s + 1), (0,) * (s + 1)))
        basis = _binomial_basis(lifted, elimination_block(1).key)
        return [SparsePolynomial(s, {lead[1:]: 1, tail[1:]: -1})
                for lead, tail in basis if lead[0] == 0]
    sat = 0
    for i in range(s):
        if sat >> i & 1:
            continue
        order = _SaturationOrder(weights, i)
        pairs = [_divide_out(p, i) for p in _binomial_basis(pairs, order.key)]
        sat = _unit_closure(pairs, sat | 1 << i)
    return [SparsePolynomial(s, {lead: 1, tail: -1})
            for lead, tail in _binomial_basis(pairs, GREVLEX.key)]


def is_homogeneous_config(A: zl.Matrix):
    """Witness (u, c) with <u, a> = c != 0 for every column a and c >= 1
    the least such, if one exists."""
    n, s = zl.shape(A)
    if s == 0:
        return [0] * n, 1
    return zl._hnf_solver(*zl.hnf(zl.transpose(A)))([1] * s)


def hilbert_function(A: zl.Matrix, d: int) -> int:
    """Cardinality of the d-fold sumset of the columns of A."""
    return hilbert_function_values(A, [d])[0]


def hilbert_function_values(A: zl.Matrix, degrees) -> list[int]:
    """hilbert_function(A, d) for each d in degrees, from one incremental
    sumset: the (d + 1)-fold one is the d-fold one plus each column.

    Each column a becomes the integer sum_i (a_i - lo_i) B_i, lo_i the
    least entry of row i and B_i the product of the earlier bases
    top * span_j + 1, top the largest degree. The digits of a sum of at
    most top columns stay below their bases, so two such sums of the same
    number of columns are equal exactly when their integers are, and set
    addition is integer addition.
    """
    if any(d < 0 for d in degrees):
        raise ValueError("d must be nonnegative")
    top = max(degrees, default=0)
    code, base = [0] * zl.shape(A)[1], 1
    for row in A:
        lo = min(row, default=0)
        for j, x in enumerate(row):
            code[j] += (x - lo) * base
        base *= top * (max(row, default=0) - lo) + 1
    code = set(code)
    current, sizes = {0}, [1]
    for _ in range(top):
        current = {c + p for c in current for p in code}
        sizes.append(len(current))
    return [sizes[d] for d in degrees]


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
