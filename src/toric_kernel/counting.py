"""Root counts for sparse systems of Laurent polynomial equations.

Kushnirenko's count for a single support, the BKK mixed-volume bound
for a square system, and the Bezout product for comparison. The BKK
report also carries the compactification data: the normal fan of the
Minkowski sum of the Newton polytopes, the divisor of each summand,
and the homogenized system. All counts are generic-coefficient upper
bounds; no genericity of a particular coefficient choice is decided.
"""

from __future__ import annotations

from math import prod

from . import cox as cx
from . import divisors as dv
from . import fans as fn
from . import polytopes as pt
from . import zlattice as zl


class CountReport:
    """Counts and compactification data for one square sparse system.

    kushnirenko is the unmixed count (the normalized volume of the
    common Newton polytope) when all supports coincide, else None; it
    equals degree times lattice index when the common support spans a
    proper sublattice. divisors[i] is the divisor of the i-th Newton
    polytope on the normal fan of the Minkowski sum, and homogenized[i]
    the input polynomial rewritten in the fan's ray variables.
    """

    __slots__ = ("kushnirenko", "bkk", "bezout", "lattice_index",
                 "fan", "divisors", "homogenized")

    def __init__(self, kushnirenko, bkk, bezout, lattice_index,
                 fan, divisors, homogenized):
        self.kushnirenko = kushnirenko
        self.bkk = bkk
        self.bezout = bezout
        self.lattice_index = lattice_index
        self.fan = fan
        self.divisors = divisors
        self.homogenized = homogenized

    def __repr__(self):
        return (f"CountReport(bkk={self.bkk}, bezout={self.bezout}, "
                f"kushnirenko={self.kushnirenko})")


def kushnirenko_count(A) -> tuple:
    """(degree, normalized_volume, index) for a support matrix whose
    columns are the exponent vectors.

    normalized_volume is dim! times the volume of the convex hull,
    measured in the saturated lattice of its affine span; index is the
    index of the difference lattice of the support in that saturation;
    degree is the volume remeasured in the difference lattice, i.e.
    normalized_volume divided by index. For generic coefficients the
    toric count of solutions is the normalized volume, while degree is
    the degree of the projective monomial embedding.
    """
    points = zl.columns(A)
    if not points:
        raise ValueError("the support needs at least one point")
    P = pt.hull(points)
    nv = pt.normalized_volume(P)
    diffs = [zl.vsub(p, points[0]) for p in points[1:]]
    index = zl.saturation_index(diffs)
    if nv % index:
        raise AssertionError("normalized volume must be divisible by "
                             "the lattice index")
    return nv // index, nv, index


def bezout_count(degrees) -> int:
    """Product of the degrees; the classical dense root count."""
    ds = [int(d) for d in degrees]
    if any(d <= 0 for d in ds):
        raise ValueError("degrees must be positive")
    return prod(ds)


def _bezout_degree(support) -> int:
    """Total degree after dividing out the common monomial factor, so
    Laurent supports get their minimal polynomial representative."""
    n = len(support[0])
    mins = [min(m[j] for m in support) for j in range(n)]
    return max(sum(m[j] - mins[j] for j in range(n)) for m in support)


def bkk_count(system) -> CountReport:
    """Mixed-volume root count for n Laurent polynomials in n variables.

    The Minkowski sum of the Newton polytopes must be full-dimensional;
    a degenerate system is reported as an error. Each Newton polytope
    is a Minkowski summand of the sum, cut out on the normal fan by its
    ``divisors.polytope_divisor`` E_i, with coefficients -min <u, m>, and
    the system homogenizes term by term to the classes [E_i].
    """
    fs = list(system)
    if not fs:
        raise ValueError("the system needs at least one polynomial")
    n = fs[0].nvars
    if any(f.nvars != n for f in fs):
        raise ValueError("the polynomials live in different tori")
    if len(fs) != n:
        raise ValueError(f"need exactly {n} polynomials in {n} variables")
    supports = [f.support() for f in fs]
    if any(not s for s in supports):
        raise ValueError("a zero polynomial has no Newton polytope")
    newtons = [pt.hull(s) for s in supports]
    total = newtons[0]
    for Q in newtons[1:]:
        total = pt.minkowski_sum(total, Q)
    if not total.is_full_dim:
        raise ValueError("the Minkowski sum of the Newton polytopes is "
                         "lower-dimensional")

    F = fn.normal_fan(total)
    divisors = [dv.polytope_divisor(Q, F) for Q in newtons]
    homogenized = [cx.homogenize(f, E) for f, E in zip(fs, divisors)]

    kushnirenko = None
    if len({frozenset(s) for s in supports}) == 1:
        kushnirenko = pt.normalized_volume(newtons[0])
    index = zl.saturation_index(
        [zl.vsub(list(m), list(s[0])) for s in supports for m in s[1:]])
    return CountReport(kushnirenko, pt.mixed_volume(newtons),
                       bezout_count([_bezout_degree(s) for s in supports]),
                       index, F, divisors, homogenized)
