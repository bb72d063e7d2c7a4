"""Torus-invariant divisors on a fan.

A Weil divisor here is an integer coefficient vector indexed by the
rays of a fixed fan. The module computes principal divisors of
characters, the class group with canonical class coordinates, Cartier
data with explicit local characters, minimal Cartier multiples, the
Picard group, section polyhedra together with monomial bases of
global sections, and the correspondence between lattice polytopes and
divisors in both directions.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, gcd, inf, lcm

from . import cones as cn
from . import fans as fn
from . import zlattice as zl


class TorusInvariantDivisor:
    """Formal sum of ray divisors, stored as one coefficient per ray."""

    __slots__ = ("fan", "coeffs")

    def __init__(self, fan, coeffs):
        coeffs = [int(a) for a in coeffs]
        if len(coeffs) != len(fan.rays):
            raise ValueError("one coefficient per ray is required")
        self.fan = fan
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, TorusInvariantDivisor) or other.fan != self.fan:
            raise ValueError("divisors live on different fans")

    def __add__(self, other):
        self._check(other)
        return TorusInvariantDivisor(self.fan, zl.vadd(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return TorusInvariantDivisor(self.fan, zl.vsub(self.coeffs, other.coeffs))

    def __neg__(self):
        return TorusInvariantDivisor(self.fan, [-a for a in self.coeffs])

    def __rmul__(self, k):
        return TorusInvariantDivisor(self.fan, zl.vscale(int(k), self.coeffs))

    def __eq__(self, other):
        return (isinstance(other, TorusInvariantDivisor)
                and self.fan == other.fan and self.coeffs == other.coeffs)

    __hash__ = None

    def __repr__(self):
        return f"TorusInvariantDivisor({self.coeffs})"


def divisor(F, coeffs) -> TorusInvariantDivisor:
    return TorusInvariantDivisor(F, coeffs)


def ray_divisor(F, index: int) -> TorusInvariantDivisor:
    """The divisor of a single ray, by 0-based ray index."""
    if not 0 <= index < len(F.rays):
        raise zl.IndexOutOfRangeError("ray index out of range")
    return TorusInvariantDivisor(F, [int(i == index) for i in range(len(F.rays))])


def _ray_matrix(F):
    """Rays as rows: the matrix of the character map m -> (<u_rho, m>)_rho."""
    return [list(u) for u in F.rays]


def principal_divisor(F, m) -> TorusInvariantDivisor:
    """div of the character with exponent m."""
    if len(m) != F.ambient_dim:
        raise ValueError("character length does not match the ambient dimension")
    return TorusInvariantDivisor(F, [zl.dot(u, m) for u in F.rays])


class DivisorClass:
    """Canonical coordinates of a divisor class: free coordinates first,
    then residues modulo the invariant factors."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        self.coords = [int(c) for c in coords]

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __eq__(self, other):
        return isinstance(other, DivisorClass) and self.coords == other.coords

    __hash__ = None

    def __repr__(self):
        return f"DivisorClass({self.coords})"


def _warn_torus_factor(F):
    if fn.has_torus_factor(F):
        warnings.warn("the rays do not span the ambient space, so characters "
                      "do not inject into divisors", stacklevel=3)


def class_group(F):
    """Divisors modulo characters: (presentation, class_of).

    class_of maps a divisor on F to its DivisorClass in canonical
    cokernel coordinates. When the rays fail to span the ambient
    space a warning is emitted; the quotient is still returned.
    """
    _warn_torus_factor(F)
    pres, proj = zl.cokernel(_ray_matrix(F))

    def class_of(D: TorusInvariantDivisor) -> DivisorClass:
        if D.fan != F:
            raise ValueError("divisor lives on a different fan")
        return DivisorClass(zl.cokernel_coords(pres, proj, D.coeffs))

    return pres, class_of


class CartierData:
    """One local character per maximal cone, in fan cone order; the
    character m_sigma satisfies <u_rho, m_sigma> = -a_rho on the
    cone's rays. Truthy."""

    __slots__ = ("characters",)

    def __init__(self, characters):
        self.characters = [list(m) for m in characters]

    def __bool__(self):
        return True

    def __repr__(self):
        return f"CartierData({self.characters})"


class CartierFailure:
    """Falsy witness that a divisor is not Cartier, naming the first
    maximal cone (0-based) whose local system has no integer solution."""

    __slots__ = ("cone_index",)

    def __init__(self, cone_index):
        self.cone_index = cone_index

    def __bool__(self):
        return False

    def __repr__(self):
        return f"CartierFailure(cone_index={self.cone_index})"


def is_cartier(D: TorusInvariantDivisor):
    """CartierData when D is locally principal, else a CartierFailure."""
    F = D.fan
    characters = []
    for k, I in enumerate(F.maximal_cones):
        U = [list(F.rays[i]) for i in I]
        b = [-D.coeffs[i] for i in I]
        m = zl.solve_integer(U, b)
        if m is None:
            return CartierFailure(k)
        characters.append(m)
    return CartierData(characters)


def minimal_cartier_multiple(D: TorusInvariantDivisor):
    """Least l > 0 such that l*D is Cartier, or math.inf when no
    multiple works.

    Per maximal cone, the diagonal of the Smith normal form turns the
    local system <u_rho, m> = -l*a_rho into divisibility conditions on
    l; the cone's minimal multiple is their lcm, and the answer is the
    lcm over all cones. A zero diagonal row with a nonzero right-hand
    side kills every multiple, which can only happen when the cone is
    not simplicial.
    """
    F = D.fan
    total = 1
    for I in F.maximal_cones:
        U = [list(F.rays[i]) for i in I]
        b = [-D.coeffs[i] for i in I]
        S, P, _ = zl.snf(U)
        c = zl.mat_vec(P, b)
        rows, cols = zl.shape(U)
        for i in range(rows):
            d = S[i][i] if i < cols else 0
            if d == 0:
                if c[i] != 0:
                    return inf
            elif c[i] != 0:
                total = lcm(total, d // gcd(d, c[i]))
    return total


def picard_group(F):
    """Cartier divisors modulo characters.

    The lattice of Cartier coefficient vectors is cut out, one maximal
    cone at a time, by requiring the restriction to the cone's rays to
    lie in the image of the character pairing. Torsion conditions get
    an auxiliary unknown each, so the whole system is one integer
    kernel computation; the quotient by principal divisors is then a
    cokernel in a basis of that lattice.
    """
    _warn_torus_factor(F)
    k = len(F.rays)
    constraints = []          # (row vector in Z^k, invariant factor or None)
    for I in F.maximal_cones:
        U = [list(F.rays[i]) for i in I]
        pres, proj = zl.cokernel(U)
        for r, row in enumerate(proj):
            full = [0] * k
            for pos, i in enumerate(I):
                full[i] = row[pos]
            if r < pres.free_rank:
                constraints.append((full, None))
            else:
                constraints.append((full, pres.invariant_factors[r - pres.free_rank]))
    if constraints:
        naux = sum(1 for _, d in constraints if d is not None)
        W, t = [], 0
        for vec, d in constraints:
            row = vec + [0] * naux
            if d is not None:
                row[k + t] = -d
                t += 1
            W.append(row)
        K = zl.kernel_basis(W)
        gens = [K[i] for i in range(k)]
    else:
        gens = zl.identity(k)
    H, _ = zl.hnf(gens)
    basis_cols = [c for c in zl.columns(H) if any(c)]
    if not basis_cols:
        return zl.AbelianGroupPresentation(0)
    B = zl.from_columns(basis_cols, rows=k)
    coords = []
    for c in zl.columns(_ray_matrix(F)):
        x = zl.solve_integer(B, c)
        assert x is not None, "principal divisors must be Cartier"
        coords.append(x)
    X = zl.from_columns(coords, rows=len(basis_cols))
    return zl.cokernel(X)[0]


class DivisorPolyhedron:
    """H-description of the section polyhedron of a divisor.

    facets holds one (normal, offset) pair per ray, meaning
    <normal, m> + offset >= 0; the list is never pruned, so redundant
    inequalities stay. lattice_points is a sorted list when the
    polyhedron is bounded and None otherwise.
    """

    __slots__ = ("facets", "bounded", "lattice_points")

    def __init__(self, facets, bounded, lattice_points):
        self.facets = facets
        self.bounded = bounded
        self.lattice_points = lattice_points

    def __repr__(self):
        state = "bounded" if self.bounded else "unbounded"
        return f"DivisorPolyhedron({len(self.facets)} inequalities, {state})"


def _h_lattice_points(facets, n):
    """Lattice points of a bounded {<u,m> + a >= 0 for all (u,a)} set."""
    feasible = lambda x: all(
        sum(Fraction(u[i]) * x[i] for i in range(n)) + a >= 0 for u, a in facets)
    vertices = []
    for combo in combinations(facets, n):
        M = [list(u) for u, _ in combo]
        if zl.det(M) == 0:
            continue
        x = zl.solve_rational(M, [-a for _, a in combo])
        if x is not None and feasible(x):
            vertices.append(x)
    if not vertices:
        return []
    box = []
    for i in range(n):
        vals = [v[i] for v in vertices]
        box.append(range(ceil(min(vals)), floor(max(vals)) + 1))
    points = []
    for p in product(*box):
        if feasible([Fraction(c) for c in p]):
            points.append(list(p))
    return sorted(points)


def divisor_polyhedron(D: TorusInvariantDivisor) -> DivisorPolyhedron:
    """The polyhedron of characters m with div(chi^m) + D effective."""
    F = D.fan
    facets = [(list(u), a) for u, a in zip(F.rays, D.coeffs)]
    spanned = cn.cone(_ray_matrix(F), F.ambient_dim)
    bounded = spanned.dual().dim == 0
    points = _h_lattice_points(facets, F.ambient_dim) if bounded else None
    return DivisorPolyhedron(facets, bounded, points)


def global_sections(D: TorusInvariantDivisor):
    """Exponents of the character basis of the space of global sections."""
    poly = divisor_polyhedron(D)
    if not poly.bounded:
        raise ValueError("the section polyhedron is unbounded")
    return poly.lattice_points


def polytope_divisor(P, F) -> TorusInvariantDivisor:
    """The divisor whose section polyhedron is P, on a fan refining the
    normal fan of P.

    Coefficients are a_rho = -min <u_rho, v> over the vertices. The
    refinement requirement is checked cone by cone: the rays of each
    maximal cone must admit a common minimizing vertex, otherwise the
    support function of P is not linear there and the first ray that
    breaks the common minimizer is reported (1-based).
    """
    if P.ambient_dim != F.ambient_dim:
        raise ValueError("polytope and fan live in different dimensions")
    minima = [min(zl.dot(u, v) for v in P.vertices) for u in F.rays]
    for I in F.maximal_cones:
        candidates = list(P.vertices)
        for i in I:
            candidates = [v for v in candidates
                          if zl.dot(F.rays[i], v) == minima[i]]
            if not candidates:
                raise ValueError(
                    "the fan does not refine the normal fan of the polytope: "
                    f"ray {i + 1} has no common minimizing vertex in its cone")
    return TorusInvariantDivisor(F, [-m for m in minima])


def linearly_equivalent(D, E):
    """A character m with D - E = div(chi^m), or None when the classes
    differ (or the difference does not lift to a character)."""
    D._check(E)
    return zl.solve_integer(_ray_matrix(D.fan), zl.vsub(D.coeffs, E.coeffs))
