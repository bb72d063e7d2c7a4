"""Total coordinate ring data of a fan.

One variable per ray, graded by the divisor class group. The module
collects the grading, the irrelevant ideal, primitive collections of
rays, and the per-variable weights, and converts Laurent polynomials
on the torus to homogeneous polynomials and back through chart
dehomogenization.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from . import divisors as dv
from . import fans as fn
from . import zlattice as zl
from .ideals import LaurentPolynomial, SparsePolynomial


class CoxData:
    """Grading and quotient data of the coordinate ring of a fan.

    degree maps a length-k exponent vector to its DivisorClass;
    g_weights[i] is the class of the i-th ray divisor, which pins down
    the torus acting in the quotient construction. irrelevant_gens
    follow maximal cone order; primitive_collections are 0-based ray
    index tuples in lexicographic order.
    """

    __slots__ = ("fan", "group", "degree", "irrelevant_gens",
                 "primitive_collections", "g_weights")

    def __init__(self, fan, group, degree, irrelevant_gens,
                 primitive_collections, g_weights):
        self.fan = fan
        self.group = group
        self.degree = degree
        self.irrelevant_gens = irrelevant_gens
        self.primitive_collections = primitive_collections
        self.g_weights = g_weights

    def __repr__(self):
        return (f"CoxData({len(self.fan.rays)} variables, "
                f"class group {self.group})")


def irrelevant_ideal(F) -> list:
    """Squarefree generators x^sigma-hat, one per maximal cone.

    The generator of a cone is the product of the variables whose rays
    lie outside the cone. Duplicates are dropped, keeping cone order.
    """
    k = len(F.rays)
    gens = []
    for I in F.maximal_cones:
        exps = tuple(int(i not in I) for i in range(k))
        g = SparsePolynomial(k, {exps: Fraction(1)})
        if g not in gens:
            gens.append(g)
    return gens


def primitive_collections(F) -> list:
    """Minimal sets of rays that span no cone together.

    A collection is primitive when it is contained in no maximal
    cone's ray set but every proper subset is. Returned as sorted
    tuples of 0-based ray indices, in lexicographic order.
    """
    k = len(F.rays)
    cone_sets = [set(I) for I in F.maximal_cones]
    found = []
    for size in range(2, k + 1):
        for combo in combinations(range(k), size):
            s = set(combo)
            if any(s <= cs for cs in cone_sets):
                continue
            if any(set(c) < s for c in found):
                continue
            found.append(combo)
    return sorted(found)


def degree(F, exponents) -> dv.DivisorClass:
    """Class of the divisor sum a_i D_i for a monomial exponent vector."""
    _, class_of = dv.class_group(F)
    return class_of(dv.divisor(F, exponents))


def cox_data(F) -> CoxData:
    """Assemble the full grading and quotient data of a fan.

    Requires the rays to span the ambient space; otherwise characters
    do not inject into divisors and the grading sequence degenerates.
    """
    if fn.has_torus_factor(F):
        raise ValueError("the fan has a torus factor: rays do not span "
                         "the ambient space")
    group, class_of = dv.class_group(F)

    def deg(exponents):
        return class_of(dv.divisor(F, exponents))

    weights = [class_of(dv.ray_divisor(F, i)) for i in range(len(F.rays))]
    return CoxData(F, group, deg, irrelevant_ideal(F),
                   primitive_collections(F), weights)


def _shift(F, m, coeffs):
    """Exponent vector of x^{F^T m + a}."""
    return zl.vadd([zl.dot(u, m) for u in F.rays], coeffs)


def graded_piece(alpha: dv.DivisorClass, D: dv.TorusInvariantDivisor) -> list:
    """Monomial basis of the graded piece of class alpha, computed from
    a representative divisor D of that class."""
    F = D.fan
    _, class_of = dv.class_group(F)
    if class_of(D) != alpha:
        raise ValueError("the representative divisor does not have the "
                         "requested class")
    k = len(F.rays)
    return [SparsePolynomial(k, {tuple(_shift(F, m, D.coeffs)): Fraction(1)})
            for m in dv.global_sections(D)]


def homogenize(fhat: LaurentPolynomial, D: dv.TorusInvariantDivisor) -> SparsePolynomial:
    """Homogeneous polynomial of class [D] from a Laurent polynomial,
    sending t^m to x^{F^T m + a}.

    Every exponent of fhat must lie in the section polyhedron of D, so
    that the image exponents are nonnegative.
    """
    F = D.fan
    if fhat.nvars != F.ambient_dim:
        raise ValueError("Laurent polynomial and fan dimensions differ")
    terms = {}
    for m, c in fhat.terms.items():
        b = _shift(F, m, D.coeffs)
        if any(e < 0 for e in b):
            raise ValueError(f"exponent {list(m)} lies outside the section "
                             "polyhedron of the divisor")
        terms[tuple(b)] = c
    return SparsePolynomial(len(F.rays), terms)


def dehomogenize(f: SparsePolynomial, D: dv.TorusInvariantDivisor,
                 cone_index: int) -> LaurentPolynomial:
    """Chart restriction of a homogeneous polynomial: divide by the
    vertex monomial x^{F^T v + a} of the chosen maximal cone and pull
    the quotient back to Laurent exponents.

    The cone must carry a local character v (the system
    <u_rho, v> = -a_rho over its rays must be integer-solvable), and
    every term of f must have the class of D; a term with a different
    degree has no Laurent preimage and is reported.
    """
    F = D.fan
    if not 0 <= cone_index < len(F.maximal_cones):
        raise zl.IndexOutOfRangeError("maximal cone index out of range")
    v = zl._integral(dv._local_solve(D, F.maximal_cones[cone_index]))
    if v is None:
        raise ValueError("the divisor is not locally principal on the "
                         "chosen cone")
    solve = dv._character_solver(F, range(len(F.rays)))
    base = _shift(F, v, D.coeffs)
    terms = []
    for b, c in f.terms.items():
        w = zl._integral(solve(zl.vsub(list(b), base)))
        if w is None:
            raise ValueError(f"term with exponents {list(b)} does not have "
                             "the degree of the divisor")
        terms.append((tuple(w), c))
    return LaurentPolynomial(F.ambient_dim, terms)
