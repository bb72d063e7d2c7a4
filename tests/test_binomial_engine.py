"""The binomial Groebner engine and the divisibility masks.

The graded path of ``toric_ideal`` runs on exponent pairs
(``_binomial_basis``); the generic ``buchberger`` on term dicts is its
oracle. ``generic_toric_ideal`` below is the graded path as it was
before the binomial engine, kept here verbatim in substance: one
``buchberger`` per variable under ``_SaturationOrder``, each element
divided by the variable's largest common power, then GREVLEX.
"""

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from toric_kernel import ideals as il
from toric_kernel import zlattice as zl
from toric_kernel.ideals import GREVLEX, LEX, SparsePolynomial


def divide_out(g, i):
    """Strip the largest power of variable i dividing every term."""
    m = min(e[i] for e in g.terms)
    if m == 0:
        return g
    return SparsePolynomial(
        g.nvars, {e[:i] + (e[i] - m,) + e[i + 1:]: c for e, c in g.terms.items()})


def generic_toric_ideal(A):
    s = len(A[0])
    gens = [il.lattice_binomial(s, v) for v in zl.columns(zl.kernel_basis(A))]
    if not gens:
        return []
    weights = il._positive_grading(A)
    assert weights is not None
    for i in range(s):
        order = il._SaturationOrder(weights, i)
        gens = [divide_out(g, i) for g in il.buchberger(gens, order)]
    return il.buchberger(gens, GREVLEX)


def binomial(lead, tail):
    return SparsePolynomial(len(lead), {lead: 1, tail: -1})


def configurations(rows, cols, lo, hi):
    return st.tuples(st.integers(*rows), st.integers(*cols)).flatmap(
        lambda rc: st.lists(st.lists(st.integers(lo, hi), min_size=rc[0], max_size=rc[0]),
                            min_size=rc[1], max_size=rc[1]))


def exponents(n, hi):
    return st.lists(st.integers(0, hi), min_size=n, max_size=n).map(tuple)


class TestToricIdealAgainstGenericPath:
    @seed(20261101)
    @settings(max_examples=120, deadline=None)
    @given(configurations((2, 3), (4, 7), 0, 3))
    def test_graded_configurations(self, cols):
        assume(all(any(c) for c in cols))
        A = zl.from_columns(cols, rows=len(cols[0]))
        assert il._positive_grading(A) is not None
        assert il.toric_ideal(A) == generic_toric_ideal(A)

    @seed(20261102)
    @settings(max_examples=40, deadline=None)
    @given(configurations((1, 2), (3, 5), -2, 2))
    def test_non_pointed_configurations(self, cols):
        A = zl.from_columns(cols, rows=len(cols[0]))
        assume(il._positive_grading(A) is None)
        gens = [il.lattice_binomial(len(cols), v)
                for v in zl.columns(zl.kernel_basis(A))]
        expected = il.saturate(gens, range(len(cols))) if gens else []
        assert il.toric_ideal(A) == expected


class TestBinomialBasis:
    @seed(20261103)
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(exponents(n, 6), exponents(n, 6)), min_size=1, max_size=4),
        st.lists(st.integers(1, 3), min_size=n, max_size=n),
        st.integers(0, n - 1))))
    def test_matches_buchberger(self, data):
        # exponents up to 6 pass the 4-bit mask test where the tuple test fails
        pairs, weights, last = data
        pairs = [(u, v) for u, v in pairs if u != v]
        assume(pairs)
        gens = [binomial(u, v) for u, v in pairs]
        for order in (GREVLEX, LEX, il._SaturationOrder(weights, last)):
            basis = il._binomial_basis(pairs, order.key)
            assert [binomial(a, b) for a, b in basis] == il.buchberger(gens, order)
            assert all(order.key(a) > order.key(b) for a, b in basis)


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class TestMask:
    @seed(20261104)
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.tuples(exponents(n, 9), exponents(n, 9), exponents(n, 3))))
    def test_three_facts(self, abc):
        # exponents up to 9 run past the 4-bit cap
        a, b, c = abc
        ma, mb = il._mask(a), il._mask(b)
        assert ma & ~il._mask(il._mono_mul(a, c)) == 0
        if divides(a, b):
            assert ma & ~mb == 0
        assert (ma & mb == 0) == coprime(a, b)
        assert il._mask(il._mono_lcm(a, b)) == ma | mb

    def test_exponents_past_the_cap_are_only_filtered(self):
        # the masks of x^5 and x^4 agree, yet x^5 does not divide x^4
        a, b = (5, 0), (4, 0)
        assert il._mask(a) == il._mask(b)
        assert not il._mono_divides(a, b)
        f = SparsePolynomial(2, {(4, 0): 1})
        assert il.normal_form(f, [binomial((5, 0), (0, 1))], GREVLEX) == f
        pairs = [((5, 0), (0, 1)), ((4, 1), (0, 0))]
        basis = il._binomial_basis(pairs, GREVLEX.key)
        assert [binomial(u, v) for u, v in basis] == \
            il.buchberger([binomial(u, v) for u, v in pairs], GREVLEX)
        assert ((4, 1), (0, 0)) in basis


class TestVariableCountMismatch:
    # x1 * x3^5 in three variables against x1 in two: zip would cut the
    # exponent tuples to two entries and call f a member
    F = SparsePolynomial(3, {(1, 0, 5): 1})
    G = SparsePolynomial(2, {(1, 0): 1})

    def test_membership(self):
        with pytest.raises(ValueError, match="variable count mismatch"):
            il.membership(self.F, [self.G])

    def test_membership_with_zero_generator(self):
        with pytest.raises(ValueError, match="variable count mismatch"):
            il.membership(self.F, [il.constant(2, 0)])

    def test_same_ideal(self):
        with pytest.raises(ValueError, match="variable count mismatch"):
            il.same_ideal([self.F], [self.G])

    def test_normal_form(self):
        with pytest.raises(ValueError, match="variable count mismatch"):
            il.normal_form(self.F, [self.G], GREVLEX)

