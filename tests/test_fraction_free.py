"""The fraction-free Groebner engine against the Fraction engine it replaced.

``buchberger``, ``normal_form``, ``membership`` and ``same_ideal`` run on
primitive integer term dicts. ``fraction_buchberger`` and its companions
in conftest are the Fraction engine, kept as the oracle: results agree
exactly, coefficients and the order of the terms included.
"""

from fractions import Fraction
import random

import pytest
from conftest import (fraction_buchberger, fraction_membership,
                      fraction_normal_form, fraction_same_ideal, within)

from toric_kernel import ideals as il
from toric_kernel.ideals import GREVLEX, LEX, SparsePolynomial, elimination_block

ORDERS = [LEX, GREVLEX, elimination_block(1)]
SEEDS = range(12)


def coefficient(rng):
    """A unit, an integer or a fraction, of either sign."""
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(rng.choice((-1, 1)))
    if kind == 1:
        return Fraction(rng.choice((-1, 1)) * rng.randint(2, 20))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.randint(2, 20))


def random_poly(rng, nvars, nterms, top=2):
    # repeated monomials are summed, so some terms cancel on construction
    return SparsePolynomial(nvars, [
        (tuple(rng.randint(0, top) for _ in range(nvars)), coefficient(rng))
        for _ in range(nterms)])


def system(seed):
    """2 or 3 non-monic generators of 2 to 4 terms in 2 or 3 variables."""
    rng = random.Random(seed)
    nvars = rng.randint(2, 3)
    gens = [random_poly(rng, nvars, rng.randint(2, 4)) for _ in range(rng.randint(2, 3))]
    return rng, nvars, [g for g in gens if not g.is_zero]


def combination(rng, gens):
    """sum h_i g_i for random h_i: an ideal member whose terms mostly cancel."""
    nvars = gens[0].nvars
    f = SparsePolynomial(nvars)
    for g in gens:
        f = f + random_poly(rng, nvars, 2, top=1) * g
    return f


def same_terms(a, b):
    return list(a.terms.items()) == list(b.terms.items())


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("seed", SEEDS)
def test_buchberger(seed, order):
    _, _, gens = system(seed)
    basis = il.buchberger(gens, order)
    expected = fraction_buchberger(gens, order)
    assert basis == expected
    assert all(map(same_terms, basis, expected))


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("seed", SEEDS)
def test_normal_form_by_a_basis_that_is_not_groebner(seed, order):
    # the generators themselves: the remainder depends on the divisor order
    rng, nvars, gens = system(seed)
    divisors = gens + [random_poly(rng, nvars, 3), SparsePolynomial(nvars)]
    for _ in range(4):
        f = random_poly(rng, nvars, 6, top=3) + combination(rng, gens)
        rng.shuffle(divisors)
        r = il.normal_form(f, divisors, order)
        expected = fraction_normal_form(f, divisors, order)
        assert r == expected and same_terms(r, expected)
    zero = SparsePolynomial(nvars)
    assert il.normal_form(zero, divisors, order) == zero
    assert il.normal_form(f, [], order) == f


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("seed", SEEDS)
def test_normal_form_by_a_groebner_basis(seed, order):
    rng, nvars, gens = system(seed)
    basis = fraction_buchberger(gens, order)
    scaled = [coefficient(rng) * g for g in basis]
    for _ in range(3):
        f = random_poly(rng, nvars, 5, top=3)
        expected = fraction_normal_form(f, basis, order)
        assert il.normal_form(f, basis, order) == expected
        # a basis with other leading coefficients leaves the same remainder
        assert il.normal_form(f, scaled, order) == expected
        assert il.normal_form(f + combination(rng, gens), basis, order) == expected


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("seed", SEEDS)
def test_membership(seed, order):
    rng, nvars, gens = system(seed)
    member = combination(rng, gens)
    assert il.membership(member, gens, order)
    assert fraction_membership(member, gens, order)
    for _ in range(3):
        f = member + random_poly(rng, nvars, rng.randint(1, 2))
        assert il.membership(f, gens, order) == fraction_membership(f, gens, order)
    assert il.membership(SparsePolynomial(nvars), gens, order)


@pytest.mark.parametrize("order", ORDERS, ids=repr)
@pytest.mark.parametrize("seed", SEEDS)
def test_same_ideal(seed, order):
    rng, nvars, gens = system(seed)
    # with two or more generators, others of the same ideal: scaled, the
    # first one plus a multiple of the last, and a redundant member
    mixed = [coefficient(rng) * g for g in gens]
    mixed[0] = mixed[0] + coefficient(rng) * gens[-1]
    mixed = [g for g in mixed if not g.is_zero] + [combination(rng, gens[:1])]
    others = [gens[0], random_poly(rng, nvars, 3)]
    for a, b in ((gens, mixed), (mixed, gens), (gens, others), (others, gens)):
        assert il.same_ideal(a, b, order) == fraction_same_ideal(a, b, order)
    assert il.same_ideal(gens, mixed, order) or len(gens) == 1


def test_four_variable_system_with_large_coefficients():
    # 43 elements with numerators of up to 530 bits; about 4 s on the
    # Fraction engine
    def poly(*terms):
        return SparsePolynomial(4, [(e, Fraction(c)) for e, c in terms])

    gens = [poly(((2, 2, 1, 0), 4), ((1, 1, 1, 2), "9/20"), ((0, 2, 0, 2), "19/5"),
                 ((1, 1, 0, 1), "-7/2")),
            poly(((2, 1, 2, 2), -5), ((0, 0, 2, 2), "1/13"), ((0, 1, 1, 0), "7/5"),
                 ((0, 0, 0, 2), "3/2")),
            poly(((2, 2, 1, 1), "18/13"), ((2, 0, 2, 2), "-15/7"), ((2, 1, 1, 1), "2/5"),
                 ((0, 2, 0, 1), "9/7"))]
    assert [il.format_polynomial(g) for g in gens] == [
        "4*x1^2*x2^2*x3 + 9/20*x1*x2*x3*x4^2 + 19/5*x2^2*x4^2 - 7/2*x1*x2*x4",
        "-5*x1^2*x2*x3^2*x4^2 + 1/13*x3^2*x4^2 + 7/5*x2*x3 + 3/2*x4^2",
        "18/13*x1^2*x2^2*x3*x4 - 15/7*x1^2*x3^2*x4^2 + 2/5*x1^2*x2*x3*x4 + 9/7*x2^2*x4"]
    with within(2):
        basis = il.buchberger(gens, GREVLEX)
    assert len(basis) == 43
    assert basis == fraction_buchberger(gens, GREVLEX)
