"""Helpers shared by the test modules."""

import time
from contextlib import contextmanager
from fractions import Fraction

from toric_kernel import zlattice as zl
from toric_kernel.ideals import (MonomialOrder, SparsePolynomial, _check_nvars,
                                  _mask, _mono_divides, _pair_loop)


@contextmanager
def within(seconds):
    """Fail when the body of the with block runs for `seconds` or longer."""
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


def snf_kernel(M):
    """Kernel basis read off the Smith column transform: the oracle for
    zl.kernel_basis and the basis the library printed before it read
    every kernel off the column HNF."""
    rows, cols = zl.shape(M)
    S, _, Q = zl.snf(M)
    rank = sum(1 for i in range(min(rows, cols)) if S[i][i] != 0)
    return [[Q[i][j] for j in range(rank, cols)] for i in range(cols)]


# ---------------------------------------------------------------------------
# the Fraction Groebner engine, the oracle of the integer one in ideals.py:
# ``fraction_reduce_terms`` and ``fraction_buchberger`` are the engine the
# library ran before it moved to primitive integer coefficients, unchanged
# apart from their names

def fraction_reduce_terms(terms: dict, lead: list, key) -> dict:
    """Remainder term dict of division by cached divisors.

    Each divisor is an (lm, mask, lc, term dict) tuple with lm its
    leading monomial, mask ``_mask(lm)`` and lc its leading coefficient.
    A term is reduced by the first divisor, in list order, whose leading
    monomial divides it. Each monomial's order key is computed once.
    """
    work = dict(terms)
    keys = {e: key(e) for e in work}
    remainder = {}
    while work:
        e = max(work, key=keys.__getitem__)
        c = work.pop(e)
        out = ~_mask(e)
        for le, lm, lc, gterms in lead:
            if not lm & out and _mono_divides(le, e):
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

    The pair queue and its pruning are ``_pair_loop``'s, so recomputation
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
        m = _mask(le)
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
    kept_idx = _pair_loop(initial, reduce_pair, key)

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
            lead.append((le, _mask(le), lc, g.terms))
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
