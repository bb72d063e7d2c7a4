"""Division from one sorted work list, and membership on the minimal basis.

``_reduce_terms`` takes its terms largest first from a sorted list of
(key, monomial) pairs; ``old_reduce_terms`` in conftest, which scanned the
whole work dict for its largest term at every step, is the oracle: the
(remainder, scale) pairs agree exactly. ``membership`` divides by the
Groebner basis of ``_minimal_basis``, which is not inter-reduced, and the
Fraction engine's ``fraction_membership`` is its oracle.
"""

import bisect
import random
from fractions import Fraction

import pytest
from conftest import fraction_membership, old_reduce_terms, within

from toric_kernel import ideals as il
from toric_kernel.ideals import GREVLEX, LEX, SparsePolynomial, elimination_block

ORDERS = [GREVLEX, LEX, elimination_block(1), elimination_block(2)]


def poly(nvars, *terms):
    return SparsePolynomial(nvars, [(e, Fraction(c)) for e, c in terms])


def random_poly(rng, nvars, nterms, top=2):
    return SparsePolynomial(nvars, [
        (tuple(rng.randint(0, top) for _ in range(nvars)),
         Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.choice((1, 1, 2, 3))))
        for _ in range(nterms)])


def combination(rng, gens, top=1):
    """sum h_i g_i for random h_i: its terms mostly cancel in the division."""
    nvars = gens[0].nvars
    f = SparsePolynomial(nvars)
    for g in gens:
        f = f + random_poly(rng, nvars, 2, top) * g
    return f


def divide(f, divisors, order):
    """(new, old): the (remainder, scale) of both divisions of f, on one packing."""
    def run(P):
        F = il._divisor(P, f)[2]
        lead = [il._divisor(P, g) for g in divisors]
        return il._reduce_terms(F, lead, P), old_reduce_terms(F, lead, P)

    return il._packed(run, [e for g in (f, *divisors) for e in g.terms], order.key)


@pytest.fixture
def relisted(monkeypatch):
    """Count the divisions in which a cancelled term is produced again: it
    is inserted while its stale entry is still in the work list."""
    seen = []

    def insort(work, item):
        if item in work:
            seen.append(item)
        bisect.insort(work, item)

    monkeypatch.setattr(il, "insort", insort)
    return seen


def test_a_cancelled_term_comes_back_and_a_lead_coefficient_rescales(relisted):
    # under LEX, 2 x y - 3 y^2 + x z by (2 x z - y^2, 2 x - 3 y): the first
    # step cancels y^2, the second makes it again and rescales by 2, so
    # f = y (2 x - 3 y) + (1/2)(2 x z - y^2) + (1/2) y^2
    f = poly(3, ((1, 1, 0), 2), ((0, 2, 0), -3), ((1, 0, 1), 1))
    divisors = [poly(3, ((1, 0, 1), 2), ((0, 2, 0), -1)),
                poly(3, ((1, 0, 0), 2), ((0, 1, 0), -3))]
    new, old = divide(f, divisors, LEX)
    assert new == old
    r, scale = new
    assert scale == 2 and list(r.values()) == [1] and len(relisted) == 1
    assert il.normal_form(f, divisors, LEX) == poly(3, ((0, 2, 0), Fraction(1, 2)))


@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_matches_the_scan(order, relisted):
    # divisors of 2 to 4 terms with exponents at most 2, and a dividend of
    # at most 6 random terms plus a small combination of the divisors: under
    # LEX a larger draw can run away (a remainder with thousands of terms)
    rng = random.Random(20261020)
    rescaled = cancelled = 0
    with within(10):
        for _ in range(100):
            nvars = rng.randint(2, 4)
            divisors = [g for g in (random_poly(rng, nvars, rng.randint(2, 4))
                                    for _ in range(rng.randint(1, 3))) if not g.is_zero]
            f = random_poly(rng, nvars, rng.randint(0, 6)) + combination(rng, divisors)
            if f.is_zero:
                continue
            before = len(relisted)
            new, old = divide(f, divisors, order)
            assert new[0] == old[0] and list(new[0]) == list(old[0])
            assert new[1] == old[1]
            rescaled += new[1] != 1
            cancelled += len(relisted) > before
    assert rescaled >= 20 and cancelled >= 3


@pytest.mark.parametrize("order", ORDERS, ids=repr)
def test_matches_the_scan_by_a_groebner_basis(order):
    # the divisions membership makes: by a minimal basis, of members and of
    # members plus a term
    rng = random.Random(7)
    with within(10):
        for _ in range(15):
            nvars = rng.randint(2, 3)
            gens = [g for g in (random_poly(rng, nvars, rng.randint(2, 3))
                                for _ in range(2)) if not g.is_zero]
            f = combination(rng, gens) + random_poly(rng, nvars, rng.randint(0, 1))
            if not gens or f.is_zero:
                continue

            def run(P):
                F = il._divisor(P, f)[2]
                basis = il._minimal_basis(gens, P)
                return il._reduce_terms(F, basis, P), old_reduce_terms(F, basis, P)

            new, old = il._packed(run, [e for g in (f, *gens) for e in g.terms], order.key)
            assert new == old


def bases_differ(gens, order):
    """Whether the minimal basis is not already the reduced one."""
    def run(P):
        return [h for _, _, h in il._minimal_basis(gens, P)] != \
            [h for _, _, h in il._groebner(gens, P)]

    return il._packed(run, [e for g in gens for e in g.terms], order.key)


# x1^2 - x2, (3/2) x1 x2 - (3/2) x3, x2 - x3: the reduced basis is x2 - x3,
# x3^2 - x3, x1 x3 - x3, x1^2 - x3, and the minimal one keeps x1^2 - x2
CI_GENS = [poly(3, ((2, 0, 0), 1), ((0, 1, 0), -1)),
           poly(3, ((1, 1, 0), "3/2"), ((0, 0, 1), "-3/2")),
           poly(3, ((0, 1, 0), 1), ((0, 0, 1), -1))]
CI_MEMBER = poly(3, ((3, 0, 0), "2/3"), ((1, 1, 0), "-2/3"), ((0, 1, 1), 5), ((0, 0, 2), -5))


def test_the_console_script_example():
    assert [il.format_polynomial(g) for g in il.buchberger(CI_GENS, GREVLEX)] == \
        ["x2 - x3", "x3^2 - x3", "x1*x3 - x3", "x1^2 - x3"]
    assert bases_differ(CI_GENS, GREVLEX)
    assert il.membership(CI_MEMBER, CI_GENS)
    assert not il.membership(CI_MEMBER + poly(3, ((1, 0, 0), 1)), CI_GENS)


@pytest.mark.parametrize("order", [GREVLEX, LEX, elimination_block(1)], ids=repr)
def test_membership_against_the_fraction_engine(order):
    rng = random.Random(20261021)
    differ, answers = 0, set()
    with within(10):
        for _ in range(20):
            nvars = rng.randint(2, 3)
            gens = [g for g in (random_poly(rng, nvars, rng.randint(2, 3))
                                for _ in range(rng.randint(2, 3))) if not g.is_zero]
            if not gens:
                continue
            differ += bases_differ(gens, order)
            member = combination(rng, gens)
            assert il.membership(member, gens, order)
            for f in (member, member + random_poly(rng, nvars, 1),
                      random_poly(rng, nvars, 3)):
                answer = il.membership(f, gens, order)
                assert answer == fraction_membership(f, gens, order)
                answers.add(answer)
    assert differ >= 3 and answers == {True, False}


def test_membership_runs_no_inter_reduction(monkeypatch):
    # one division per reduced S-pair and one of f: the inter-reduction of
    # buchberger divides each basis element once more
    calls = {"divisions": 0, "pairs": 0}
    reduce_terms, pair_loop = il._reduce_terms, il._pair_loop

    def counted_reduce_terms(*args):
        calls["divisions"] += 1
        return reduce_terms(*args)

    def counted_pair_loop(initial, reduce_pair, P):
        def counted(i, j, T):
            calls["pairs"] += 1
            return reduce_pair(i, j, T)
        return pair_loop(initial, counted, P)

    def no_groebner(gens, P):
        raise AssertionError("membership inter-reduces")

    monkeypatch.setattr(il, "_reduce_terms", counted_reduce_terms)
    monkeypatch.setattr(il, "_pair_loop", counted_pair_loop)
    basis = il.buchberger(CI_GENS, GREVLEX)
    assert calls["divisions"] == calls["pairs"] + len(basis)

    monkeypatch.setattr(il, "_groebner", no_groebner)
    calls.update(divisions=0, pairs=0)
    assert il.membership(CI_MEMBER, CI_GENS)
    assert calls["pairs"] > 0 and calls["divisions"] == calls["pairs"] + 1
