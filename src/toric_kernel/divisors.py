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
from math import inf, lcm

from . import cones as cn
from . import fans as fn
from . import polytopes as pt
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


def _character_solver(F, I):
    """Factor the system <u_rho, m> = b_rho over the rays rho in I once;
    return b -> (m, den) with <u_rho, m> = den * b_rho and den >= 1 the
    least such, or None when no rational m exists. The zero row keeps
    the n unknowns of m when I is empty."""
    solve = zl._hnf_solver(*zl.hnf([list(F.rays[i]) for i in I]
                                   + [[0] * F.ambient_dim]))
    return lambda b: solve(list(b) + [0])


def _local_solve(D, I):
    """The local system <u_rho, m> = -a_rho on the rays of a cone."""
    return _character_solver(D.fan, I)([-D.coeffs[i] for i in I])


def is_cartier(D: TorusInvariantDivisor):
    """CartierData when D is locally principal, else a CartierFailure."""
    characters = []
    for k, I in enumerate(D.fan.maximal_cones):
        m = zl._integral(_local_solve(D, I))
        if m is None:
            return CartierFailure(k)
        characters.append(m)
    return CartierData(characters)


def minimal_cartier_multiple(D: TorusInvariantDivisor):
    """Least l > 0 such that l*D is Cartier, or math.inf when no
    multiple works.

    On a maximal cone, U m = -l*a is solvable over Z exactly when l is a
    multiple of the least common denominator of the rational solutions
    of U m = -a; there are none when -a leaves the rational span of the
    rays (only on a non-simplicial cone), and then no multiple works.
    The answer is the lcm of those denominators over all cones.
    """
    total = 1
    for I in D.fan.maximal_cones:
        sol = _local_solve(D, I)
        if sol is None:
            return inf
        total = lcm(total, sol[1])
    return total


def picard_group(F):
    """Cartier divisors modulo characters.

    A divisor with coefficients a is Cartier when every maximal cone
    sigma has a character m_sigma with a_rho + <m_sigma, u_rho> = 0 on
    its rays. Those equations form one integer system in the unknowns
    (a, m_sigma), and the a-part of its kernel generates the Cartier
    lattice; the quotient by principal divisors is then a cokernel in a
    basis of that lattice.
    """
    _warn_torus_factor(F)
    k, n = len(F.rays), F.ambient_dim
    width = k + n * len(F.maximal_cones)
    W = []
    for s, I in enumerate(F.maximal_cones):
        for i in I:
            row = [0] * width
            row[i] = 1
            row[k + n * s:k + n * (s + 1)] = F.rays[i]
            W.append(row)
    gens = zl.kernel_basis(W)[:k] if W else zl.identity(k)
    X = zl._sublattice_coords(_ray_matrix(F), gens)
    assert X is not None, "principal divisors must be Cartier"
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


def divisor_polyhedron(D: TorusInvariantDivisor) -> DivisorPolyhedron:
    """The polyhedron of characters m with div(chi^m) + D effective."""
    F = D.fan
    n = F.ambient_dim
    facets = [(list(u), a) for u, a in zip(F.rays, D.coeffs)]
    # {(m, t) : <u, m> + a t >= 0, t >= 0} meets t = 0 in the recession
    # cone, so the polyhedron is bounded exactly when that cone is pointed
    # with every ray at t > 0; its rays are then the vertices (w, t),
    # homogenized, and an empty polyhedron has none at all
    cons = [u + [a] for u, a in facets] + [[0] * n + [1]]
    lin, rays, _ = cn.halfspace_generators(cons, n + 1)
    bounded = not lin and all(r[-1] > 0 for r in rays)
    points = pt.hull_lattice_points(rays) if bounded else None
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
    solve = _character_solver(D.fan, range(len(D.fan.rays)))
    return zl._integral(solve(zl.vsub(D.coeffs, E.coeffs)))
