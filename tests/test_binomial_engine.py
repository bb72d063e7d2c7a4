"""The binomial Groebner engine, packed monomials and the divisibility masks.

``toric_ideal`` runs on exponent pairs (``_binomial_basis``); the
generic ``buchberger`` on term dicts is its oracle. Both engines pack each
monomial into one int (``_Packing``); ``tuple_binomial_basis`` and the
Fraction engine in conftest, which run on exponent tuples, are the
oracles of the packing, and ``scanned_first_divisor`` there is the
oracle of the lead index (``_LeadIndex``). ``generic_toric_ideal``
below is the graded path as it was before the binomial engine, kept here
verbatim in substance: one ``buchberger`` per variable under
``_SaturationOrder``, each element divided by the variable's largest
common power, then GREVLEX. ``all_variable_toric_ideal`` is the graded
path before it skipped the variables ``_unit_closure`` shows to be
units, and ``saturate`` in conftest is the oracle of the non-pointed path.
"""

import random

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from conftest import (fraction_buchberger, fraction_membership, lattice_binomial,
                      saturate, scanned_first_divisor, tuple_binomial_basis,
                      tuple_divides, tuple_lcm, tuple_mask, within)
from toric_kernel import _packing as pk
from toric_kernel import cones as cn
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
    gens = [lattice_binomial(s, v) for v in zl.columns(zl.kernel_basis(A))]
    if not gens:
        return []
    weights = il._positive_grading(A)
    assert weights is not None
    for i in range(s):
        order = il._SaturationOrder(weights, i)
        gens = [divide_out(g, i) for g in il.buchberger(gens, order)]
    return il.buchberger(gens, GREVLEX)


def all_variable_toric_ideal(A):
    """The graded path of ``toric_ideal`` before it skipped variables
    already known to be units: one ``_binomial_basis`` pass for every
    variable, then GREVLEX."""
    n, s = zl.shape(A)
    K = zl.kernel_basis(A)
    cols = zl.columns(K)
    if not cols:
        return []
    weights = il._positive_grading(A)
    assert weights is not None
    pairs = [(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v)) for v in cols]
    for i in range(s):
        order = il._SaturationOrder(weights, i)
        pairs = [il._divide_out(p, i) for p in il._binomial_basis(pairs, order.key)]
    return [SparsePolynomial(s, {lead: 1, tail: -1})
            for lead, tail in il._binomial_basis(pairs, GREVLEX.key)]


def binomial(lead, tail):
    return SparsePolynomial(len(lead), {lead: 1, tail: -1})


def configurations(rows, cols, lo, hi):
    return st.tuples(st.integers(*rows), st.integers(*cols)).flatmap(
        lambda rc: st.lists(st.lists(st.integers(lo, hi), min_size=rc[0], max_size=rc[0]),
                            min_size=rc[1], max_size=rc[1]))


def exponents(n, hi):
    return st.lists(st.integers(0, hi), min_size=n, max_size=n).map(tuple)


def wide_exponents(rng, n):
    """Exponents up to 300, often at the edges of 7 value bits, which fit
    the minimum 8-bit field (127, 128), and of 8 value bits (255, 256)."""
    return tuple(rng.choice((rng.randint(0, 3), rng.choice((127, 128, 255, 256)),
                             rng.randint(0, 300))) for _ in range(n))


def kernel_pairs(A):
    return [(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
            for v in zl.columns(zl.kernel_basis(A))]


def toric_configuration(rng, k, non_graded_size):
    """Kernel entries in the hundreds: a row of ones over distinct heights
    up to 300 for even k, which is graded, else one row of both signs."""
    if k % 2 == 0:
        return [[1] * 4, [0, *rng.sample(range(1, 301), 3)]]
    row = [rng.randint(1, 300) for _ in range(non_graded_size)]
    row[rng.randrange(non_graded_size)] *= -1
    return [row]


def four_orders(weights, last):
    return (GREVLEX, LEX, il.elimination_block(1), il._SaturationOrder(weights, last))


def tuple_toric_ideal(A):
    """``toric_ideal`` with the tuple engine in place of the packed one."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(il, "_binomial_basis", tuple_binomial_basis)
        return il.toric_ideal(A)


class TestToricIdealAgainstGenericPath:
    @seed(20261101)
    @settings(max_examples=120, deadline=None)
    @given(configurations((2, 3), (4, 7), 0, 3))
    def test_graded_configurations(self, cols):
        assume(all(any(c) for c in cols))
        A = zl.from_columns(cols, rows=len(cols[0]))
        assert il._positive_grading(A) is not None
        assert il.toric_ideal(A) == generic_toric_ideal(A)

    @seed(20261105)
    @settings(max_examples=120, deadline=None)
    @given(configurations((2, 3), (4, 9), 0, 3))
    def test_graded_configurations_against_every_variable_pass(self, cols):
        assume(all(any(c) for c in cols))
        A = zl.from_columns(cols, rows=len(cols[0]))
        assert il.toric_ideal(A) == all_variable_toric_ideal(A)

    @seed(20261102)
    @settings(max_examples=120, deadline=None)
    @given(configurations((1, 2), (3, 6), -3, 3))
    def test_non_pointed_configurations(self, cols):
        A = zl.from_columns(cols, rows=len(cols[0]))
        assume(il._positive_grading(A) is None)
        gens = [lattice_binomial(len(cols), v)
                for v in zl.columns(zl.kernel_basis(A))]
        expected = saturate(gens, range(len(cols))) if gens else []
        assert il.toric_ideal(A) == expected


def mask(*variables):
    return sum(1 << j for j in variables)


def permutohedral_configuration():
    sigma = cn.cone([[1, 2, 3], [2, 1, 3], [1, 3, 2],
                     [3, 1, 2], [2, 3, 1], [3, 2, 1]], 3)
    vectors = sorted(cn.hilbert_basis(sigma.dual()).vectors)
    return [[v[i] for v in vectors] for i in range(3)]


class TestUnitClosure:
    # x3^2 - x0*x2, x0*x1 - x2, x4 - x0*x5, x0*x1*x2 - x6^3 in 7 variables
    PAIRS = [((0, 0, 0, 2, 0, 0, 0), (1, 0, 1, 0, 0, 0, 0)),
             ((1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0)),
             ((0, 0, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 1, 0)),
             ((1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 3))]

    def test_support_contained_in_the_units_adds_the_other_side(self):
        # x2 gives x0 and x1 (second pair); then x0*x2 gives x3 (first
        # pair, a second sweep) and x0*x1*x2 gives x6 (fourth, by the
        # lead); x0*x5 only meets the units, so x4 stays out
        assert il._unit_closure(self.PAIRS, mask(2)) == mask(0, 1, 2, 3, 6)

    def test_nothing_grows_from_no_units(self):
        assert il._unit_closure(self.PAIRS, 0) == 0

    def test_a_binomial_with_a_constant_side(self):
        assert il._unit_closure([((0, 1, 1), (0, 0, 0))], 0) == mask(1, 2)

    @seed(20261106)
    @settings(max_examples=25, deadline=None)
    @given(configurations((2, 2), (4, 6), 0, 3))
    def test_saturating_a_unit_changes_nothing(self, cols):
        # after every pass, each variable the closure claims leaves the
        # ideal unchanged under the generic saturation
        assume(all(any(c) for c in cols))
        A = zl.from_columns(cols, rows=len(cols[0]))
        s = len(cols)
        pairs = [(tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v))
                 for v in zl.columns(zl.kernel_basis(A))]
        assume(pairs)
        weights = il._positive_grading(A)
        sat = 0
        for i in range(s):
            order = il._SaturationOrder(weights, i)
            pairs = [il._divide_out(p, i) for p in il._binomial_basis(pairs, order.key)]
            sat = il._unit_closure(pairs, sat | mask(i))
            gens = [binomial(a, b) for a, b in pairs]
            reduced = il.buchberger(gens, GREVLEX)
            for j in range(s):
                if sat >> j & 1:
                    assert saturate(gens, [j]) == reduced


class TestSaturationPasses:
    def count_passes(self, monkeypatch, A):
        calls = []
        binomial_basis = il._binomial_basis

        def spy(pairs, key):
            calls.append(len(pairs))
            return binomial_basis(pairs, key)

        monkeypatch.setattr(il, "_binomial_basis", spy)
        return il.toric_ideal(A), len(calls)

    def test_permutohedral_configuration(self, monkeypatch):
        # 15 variables, of which the unit closure leaves three to saturate;
        # a loop of restarts or a quadratic repacking would miss the budget
        A = permutohedral_configuration()
        with within(1):
            basis, calls = self.count_passes(monkeypatch, A)
        assert len(basis) == 128
        assert calls <= 4

    def test_fuzzed_configuration(self):
        # each pass is seeded with the whole basis of the pass before, most
        # of it redundant; installing every seed in the pair loop takes seconds
        A = [[4, 2, 1, 0, 0, 1, 1], [6, 0, 0, 3, 2, 2, 2], [-2, 1, 2, 2, 1, 0, 1]]
        with within(5):
            assert len(il.toric_ideal(A)) == 31

    def test_redundant_inputs_leave_the_pair_loop(self, monkeypatch):
        # pass 2 is seeded with the 112 binomials of pass 1 divided by x1;
        # those that the seeds before them reduce to zero never reach the
        # pair loop, which starts from the rest
        A = [[1] * 8, [0, 3, 0, 0, 2, 2, 3, 1], [2, 3, 1, 3, 3, 1, 2, 0]]
        passes = []
        binomial_basis, pair_loop = il._binomial_basis, il._pair_loop

        def spy_basis(pairs, key):
            passes.append([len(pairs), None])
            return binomial_basis(pairs, key)

        def spy_loop(initial, reduce_pair, P):
            if passes[-1][1] is None:   # a restart at a wider field repeats it
                passes[-1][1] = len(initial)
            return pair_loop(initial, reduce_pair, P)

        monkeypatch.setattr(il, "_binomial_basis", spy_basis)
        monkeypatch.setattr(il, "_pair_loop", spy_loop)
        assert len(il.toric_ideal(A)) == 18
        assert passes[1][0] == 112
        assert passes[1][1] <= 17

    def test_configuration_with_a_large_smith_kernel(self, monkeypatch):
        # 7 variables, of which the unit closure leaves three to saturate
        A = [[2, 3, 1, 1, 2, 2, 1], [3, 2, 1, 2, 3, 0, 0], [0, 1, 3, 3, 2, 3, 3]]
        basis, calls = self.count_passes(monkeypatch, A)
        assert len(basis) == 22
        assert calls <= 4

    def test_non_pointed_configuration_takes_one_basis(self, monkeypatch):
        basis, calls = self.count_passes(monkeypatch, [[1, -1, 2]])
        assert calls == 1
        assert [il.format_polynomial(g) for g in basis] == \
            ["x2*x3 - x1", "x1*x2 - 1", "x1^2 - x3"]


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

    def test_matches_the_tuple_engine(self):
        # inputs past 127 start wider than 8 bits, and LEX bases grow exponents
        # into the thousands, which restarts a call mid-way
        rng = random.Random(20261107)
        with within(30):
            for _ in range(40):
                n = rng.randint(2, 3)
                pairs = [(wide_exponents(rng, n), wide_exponents(rng, n))
                         for _ in range(rng.randint(1, 3))]
                pairs = [(u, v) for u, v in pairs if u != v]
                weights = [rng.randint(1, 3) for _ in range(n)]
                for order in four_orders(weights, rng.randrange(n)):
                    assert il._binomial_basis(pairs, order.key) == \
                        tuple_binomial_basis(pairs, order.key)

    def test_toric_configurations_match_the_tuple_engine(self):
        rng = random.Random(20261108)
        with within(30):
            for k in range(16):
                A = toric_configuration(rng, k, 4)
                pairs = kernel_pairs(A)
                s = len(A[0])
                for order in four_orders(il._positive_grading(A) or [1] * s, s - 1):
                    assert il._binomial_basis(pairs, order.key) == \
                        tuple_binomial_basis(pairs, order.key)
                # the elimination basis of the path without a grading
                lifted = [((0,) + u, (0,) + v) for u, v in pairs]
                lifted.append(((1,) * (s + 1), (0,) * (s + 1)))
                key = il.elimination_block(1).key
                assert il._binomial_basis(lifted, key) == tuple_binomial_basis(lifted, key)
                assert il.toric_ideal(A) == tuple_toric_ideal(A)

    def test_redundant_inputs_match_the_tuple_engine(self):
        # the divided output of each saturation pass, that output with
        # every pair twice, and with one pair times a monomial: the packed
        # engine drops what those before it reduce, the oracle keeps all
        rng = random.Random(20261114)
        with within(30):
            for k in range(0, 12, 2):
                A = toric_configuration(rng, k, 4)
                weights, s = il._positive_grading(A), len(A[0])
                pairs = kernel_pairs(A)
                for i in range(s):
                    key = il._SaturationOrder(weights, i).key
                    pairs = [il._divide_out(p, i) for p in il._binomial_basis(pairs, key)]
                    u, v = rng.choice(pairs)
                    m = tuple(rng.randint(0, 2) for _ in range(s))
                    for redundant in (pairs, pairs + pairs,
                                      pairs + [(il._mono_mul(u, m), il._mono_mul(v, m))]):
                        for order in four_orders(weights, rng.randrange(s)):
                            assert il._binomial_basis(redundant, order.key) == \
                                tuple_binomial_basis(redundant, order.key)

    def test_lead_exponents_near_a_billion(self):
        # 31-bit fields, and a lead index whose lists hold one entry per
        # distinct lead exponent, not one per exponent value
        pairs = [((10 ** 9, 0), (0, 1)), ((0, 2), (1, 0))]
        with within(2):
            assert il.toric_ideal([[1, 10 ** 9]]) == [binomial((10 ** 9, 0), (0, 1))]
            assert il.toric_ideal([[1, 1, 1], [0, 2, 10 ** 9]]) == \
                [binomial((0, 5 * 10 ** 8, 0), (5 * 10 ** 8 - 1, 0, 1))]
            assert il._binomial_basis(pairs, GREVLEX.key) == \
                tuple_binomial_basis(pairs, GREVLEX.key)


class TestPackedGenericEngine:
    """``buchberger`` and ``membership`` on packed monomials against the
    Fraction engine, which runs on exponent tuples."""

    @staticmethod
    def check(gens, probes, orders):
        for order in orders:
            assert il.buchberger(gens, order) == fraction_buchberger(gens, order)
            for f in probes:
                assert il.membership(f, gens, order) == fraction_membership(f, gens, order)

    def test_random_binomials(self):
        rng = random.Random(20261109)
        with within(30):
            for _ in range(20):
                n = rng.randint(2, 3)
                # three generators in three variables can take seconds
                gens = [SparsePolynomial(n, {wide_exponents(rng, n): 1,
                                             wide_exponents(rng, n): rng.choice((-2, -1, 1, 2))})
                        for _ in range(rng.randint(1, 5 - n))]
                gens = [g for g in gens if not g.is_zero]
                if not gens:
                    continue
                member = il.constant(n, 0)
                for g in gens:
                    member = member + il.monomial(n, wide_exponents(rng, n)) * g
                probes = [member, member + il.monomial(n, wide_exponents(rng, n)),
                          gens[0] + il.constant(n, 1)]
                weights = [rng.randint(1, 3) for _ in range(n)]
                self.check(gens, probes, four_orders(weights, rng.randrange(n)))

    def test_a_laurent_generator_fails_fast(self):
        # packing takes nonnegative exponents only; a negative one would set
        # guard bits at every width, so x1/x2 - 1 must not reach it
        f = il.LaurentPolynomial(2, {(1, -1): 1, (0, 0): -1})
        with within(5), pytest.raises(AttributeError):
            il.buchberger([f], GREVLEX)

    def test_toric_configurations(self):
        rng = random.Random(20261110)
        with within(30):
            for k in range(24):
                A = toric_configuration(rng, k, 3)
                s = len(A[0])
                gens = [lattice_binomial(s, v) for v in zl.columns(zl.kernel_basis(A))]
                # the toric ideal's elements lie in the lattice ideal only
                # when it is already saturated
                probes = il.toric_ideal(A)[:2]
                self.check(gens, probes, four_orders(il._positive_grading(A) or [1] * s, s - 1))


def field_exponents(n, width):
    top = (1 << width - 1) - 1
    return st.lists(st.one_of(st.integers(0, top), st.sampled_from([0, 1, top, top + 1])),
                    min_size=n, max_size=n).map(tuple)


class TestPacking:
    @seed(20261111)
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([8, 9, 16]).flatmap(lambda w: st.tuples(st.just(w), st.integers(1, 6).flatmap(
        lambda n: st.tuples(field_exponents(n, w), field_exponents(n, w), field_exponents(n, w))))))
    def test_primitives_match_the_tuple_operations(self, data):
        # each field holds 0..2^(width-1) - 1 below its guard bit
        width, abc = data
        top = (1 << width - 1) - 1
        P = il._Packing(len(abc[0]), width, GREVLEX.key)
        for e in abc:
            if max(e) > top:
                with pytest.raises(il._Overflow):
                    P.pack(e)
        a, b, c = (tuple(min(x, top) for x in e) for e in abc)
        pa, pb, pc = map(P.pack, (a, b, c))
        assert P.unpack(pa) == a
        assert P[pa] == GREVLEX.key(a)
        assert (pa < pb) == (a < b)
        assert P.divides(pa, pb) == tuple_divides(a, b)
        assert P.unpack(P.lcm(pa, pb)) == tuple_lcm(a, b)
        assert P.support(pa) == P.pack(tuple(min(x, 1) for x in a)) << width - 1
        assert (P.support(pa) & P.support(pb) == 0) == coprime(a, b)
        # the rewrite T - a + c of T = lcm(a, b) sets a guard bit exactly
        # when an exponent outgrows its field
        T = tuple_lcm(a, b)
        r = tuple(t - x + z for t, x, z in zip(T, a, c))
        rewritten = P.lcm(pa, pb) - pa + pc
        assert bool(rewritten & P.guard) == (max(r) > top)
        if max(r) <= top:
            assert rewritten == P.pack(r)


class TestLeadIndex:
    """``_LeadIndex.first`` against the scan of the leads in list order."""

    # exponents of the leads: small ones, and the top of each field (127,
    # 32767 and 2^31 - 1), or just below it
    TOPS = {8: (126, 127), 16: (128, 32767), 32: (32768, (1 << 31) - 1)}

    @staticmethod
    def queries(rng, leads, n, top):
        """Each lead, a lead grown by a little or up to the field's top,
        which passes every lead's exponent, a lead one short in a field,
        which it no longer divides, and random small monomials."""
        out = [(0,) * n, (top,) * n]
        for a in leads:
            j = rng.randrange(n)
            out.append(a)
            out.append(tuple(min(x + rng.randint(0, 3), top) for x in a))
            out.append(a[:j] + (top,) + a[j + 1:])
            if a[j]:
                out.append(a[:j] + (a[j] - 1,) + a[j + 1:])
        out += [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(8)]
        return out

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_first_lead_matches_the_scan(self, width):
        rng = random.Random(20261112 + width)
        top = (1 << width - 1) - 1
        with within(30):
            for _ in range(30):
                n = rng.randint(1, 4)
                leads = [tuple(rng.choice((rng.randint(0, 3), rng.randint(0, 3),
                                           rng.choice(self.TOPS[width])))
                               for _ in range(n)) for _ in range(rng.randint(1, 12))]
                P = pk._Packing(n, width, GREVLEX.key)
                index = pk._LeadIndex(P)
                assert index.first(P.pack(leads[0])) == 0 == index.size
                for k, a in enumerate(leads):
                    index.add(P.pack(a))
                    for q in self.queries(rng, leads[:k + 1], n, top):
                        assert index.first(P.pack(q)) == scanned_first_divisor(leads[:k + 1], q)
                assert index.over == pk._LeadIndex(P, map(P.pack, leads)).over
                assert index.cuts == sorted({e for a in leads for e in a})


class TestWidthGrowth:
    # two binomials whose exponents fit the 8-bit field; their LEX basis
    # reaches exponent 2,525
    PAIRS = [((89, 57), (34, 92)), ((29, 75), (13, 40))]

    @staticmethod
    def spy_widths(monkeypatch):
        widths = []

        class Spy(il._Packing):
            __slots__ = ()

            def __init__(self, nvars, width, key):
                widths.append(width)
                super().__init__(nvars, width, key)

        monkeypatch.setattr(pk, "_Packing", Spy)
        return widths

    def test_a_rewrite_past_the_field_restarts_twice_as_wide(self, monkeypatch):
        widths = self.spy_widths(monkeypatch)
        with within(30):
            basis = il._binomial_basis(self.PAIRS, LEX.key)
        assert widths == [8, 16]
        assert basis == tuple_binomial_basis(self.PAIRS, LEX.key)
        assert max(max(a + b) for a, b in basis) == 2525

    def test_exponents_that_fit_take_one_width(self, monkeypatch):
        # every exponent of these bases, their S-pairs and rewrites stays
        # below 128, so neither engine restarts; a wrong lcm of fields past
        # 63 would, and would still end with the right basis
        pairs = [((61, 85), (35, 18)), ((108, 63), (14, 33))]
        widths = self.spy_widths(monkeypatch)
        with within(30):
            basis = il._binomial_basis(pairs, GREVLEX.key)
            generic = il.buchberger([binomial(u, v) for u, v in pairs], GREVLEX)
        assert widths == [8, 8]
        assert basis == tuple_binomial_basis(pairs, GREVLEX.key)
        assert generic == [binomial(a, b) for a, b in basis]
        assert max(max(a + b) for a, b in basis) == 122

    def test_the_minimum_width_gives_the_oracles(self, monkeypatch):
        rng = random.Random(20)
        configs = [[[1, 1, 1, 1], [0, 1, 150, 301]]]
        configs += [[[1] * 4, [0, *rng.sample(range(1, 301), 3)]] for _ in range(3)]
        configs += [[[rng.choice((-1, 1)) * rng.randint(1, 300) for _ in range(3)]]
                    for _ in range(3)]
        cases = []
        for A in configs:
            gens = [lattice_binomial(len(A[0]), v) for v in zl.columns(zl.kernel_basis(A))]
            toric = tuple_toric_ideal(A)
            cases.append((A, gens, toric, fraction_buchberger(gens, GREVLEX),
                          [fraction_membership(f, gens, GREVLEX) for f in toric[:3]]))
        monkeypatch.setattr(pk, "_field_width", lambda top: 8)
        widths = self.spy_widths(monkeypatch)
        with within(30):
            for A, gens, toric, basis, members in cases:
                assert il.toric_ideal(A) == toric
                assert il.buchberger(gens, GREVLEX) == basis
                assert [il.membership(f, gens, GREVLEX) for f in toric[:3]] == members
        assert max(widths) > 8


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
        ma, mb = tuple_mask(a), tuple_mask(b)
        assert ma & ~tuple_mask(il._mono_mul(a, c)) == 0
        if divides(a, b):
            assert ma & ~mb == 0
        assert (ma & mb == 0) == coprime(a, b)
        assert tuple_mask(tuple_lcm(a, b)) == ma | mb

    def test_exponents_past_the_cap_are_only_filtered(self):
        # the masks of x^5 and x^4 agree, yet x^5 does not divide x^4
        a, b = (5, 0), (4, 0)
        assert tuple_mask(a) == tuple_mask(b)
        assert not tuple_divides(a, b)
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

