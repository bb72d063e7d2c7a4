"""Lattice polytopes: hulls, lattice points, volumes, Ehrhart data.

A polytope P keeps ``cone``, the cone over P x {1} that ``hull`` builds
on the distinct input points; its dimension, its membership test and
its lexicographically sorted vertex list are read off that cone. The
minimal H-representation comes from the same cone: facet pairs (u, a)
meaning <u, x> + a >= 0 with u a primitive inward normal, and, for
polytopes that are not full-dimensional, extra equation pairs (u, a)
meaning <u, x> + a = 0 cutting out the affine span.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import factorial
from operator import mul
from random import Random

from . import cones as cn
from . import zlattice as zl


class LatticePolytope:
    """The polytope P whose homogenized cone, cone(P x {1}), is ``cone``.

    The cone's generators are the distinct points given to ``hull`` at
    height 1, in first-seen order; its rays are the vertices and its
    dual rays and dual lineality the facets and equations. The cone over
    a single point has one facet, t >= 0, which is vacuous, so a point
    has no facets, only equations.
    """

    __slots__ = ("cone", "ambient_dim", "vertices", "facets", "equations", "dim")

    def __init__(self, C):
        self.cone = C
        self.ambient_dim = C.ambient_dim - 1
        self.dim = C.dim - 1
        self.vertices = sorted(r[:-1] for r in C.rays())
        # for dim >= 1 the facets of the cone are the cones over those of P
        self.facets = sorted((m[:-1], m[-1]) for m in C.dual_rays) if self.dim > 0 else []
        self.equations = sorted((b[:-1], b[-1]) for b in C.dual_lineality)

    @property
    def is_full_dim(self):
        return self.dim == self.ambient_dim

    def contains(self, x) -> bool:
        return self.cone.contains([*x, 1])

    def __eq__(self, other):
        return (isinstance(other, LatticePolytope)
                and self.ambient_dim == other.ambient_dim
                and self.vertices == other.vertices)

    __hash__ = None

    def __repr__(self):
        vs = ", ".join(str(tuple(v)) for v in self.vertices)
        return f"LatticePolytope[{self.ambient_dim}]({vs})"


def hull(points) -> LatticePolytope:
    """Convex hull of integer points.

    Builds the cone over the points at height 1; ``cn.cone`` drops
    repeated points and keeps the first-seen order. The vertices, facets
    and equations do not depend on that order: for a polytope that is
    not full-dimensional the equations are the HNF basis of their
    lattice, and each facet normal is reduced modulo it.
    """
    gens = [[int(x) for x in p] + [1] for p in points]
    if not gens:
        raise ValueError("hull of an empty point set")
    return LatticePolytope(cn.cone(gens, len(gens[0])))


def dilate(P: LatticePolytope, k: int) -> LatticePolytope:
    if k < 0:
        raise ValueError("dilation factor must be nonnegative")
    return hull([zl.vscale(k, v) for v in P.vertices])


def minkowski_sum(P: LatticePolytope, Q: LatticePolytope) -> LatticePolytope:
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return hull([zl.vadd(p, q) for p in P.vertices for q in Q.vertices])


def hull_lattice_points(gens):
    """Integer points, sorted lexicographically, of the hull of the
    rational points w / t for homogenized generators (w, t), t > 0.

    With x_0..x_{i-1} fixed, x_i runs between floor-division bounds from
    the facets and equations (as opposite pairs) of the projection onto
    x_0..x_i, the hull of the truncated generators. Every prefix extends
    rationally, so the cost is the number of points plus the prefixes
    that dead-end on an integer gap.
    """
    if not gens:
        return []
    return _level_points(_projection_levels(cn.cone(gens, len(gens[0]))), 1)


def _projection_levels(C):
    """(lower, upper) bound triples of each coordinate for
    hull_lattice_points: c x_i + s >= 0 for each lower triple (u, a, c),
    s - c x_i >= 0 for each upper one, where s = <u, x_0..x_{i-1}> + a.

    C is the homogenized cone of the hull, pointed, with its height last.
    Its own facet normals bound the last coordinate; for each earlier
    one, the cone over its rays truncated to x_0..x_i and the height is
    the projection onto those coordinates."""
    n = C.ambient_dim - 1
    rays = C.rays()
    levels = []
    for i in range(n):
        proj = C if i == n - 1 else cn.cone([r[:i + 1] + r[-1:] for r in rays], i + 2)
        lower = [(m[:i], m[-1], m[i]) for m in proj.facet_normals if m[i] > 0]
        upper = [(m[:i], m[-1], -m[i]) for m in proj.facet_normals if m[i] < 0]
        levels.append((lower, upper))
    return levels


def _scaled(levels, k):
    """The levels of k times the hull: the projections of kQ are those of
    Q with every offset a scaled by k."""
    return [([(u, k * a, c) for u, a, c in lower],
             [(u, k * a, c) for u, a, c in upper]) for lower, upper in levels]


def _bounds(level, x):
    """The integer values of the next coordinate after the prefix x, as
    range arguments: from the (lower, upper) triples of its level."""
    lower, upper = level
    return (-min((sum(map(mul, u, x)) + a) // c for u, a, c in lower),
            min((sum(map(mul, u, x)) + a) // c for u, a, c in upper) + 1)


def _prefixes(levels):
    """Every integer prefix x_0..x_{m-1} that the m levels admit, in
    lexicographic order, as one list that is overwritten between yields.

    A loop over one range per coordinate, so its depth is the stack's
    length and not Python's call depth.
    """
    x = [0] * len(levels)
    if not levels:
        yield x
        return
    stack = [iter(range(*_bounds(levels[0], x)))]
    while stack:
        i = len(stack) - 1
        for v in stack[i]:
            x[i] = v
            if i + 1 == len(levels):
                yield x
            else:
                stack.append(iter(range(*_bounds(levels[i + 1], x))))
                break
        else:
            stack.pop()


def _level_points(levels, k):
    """Integer points of k times the hull the levels describe, in
    lexicographic order."""
    return [list(x) for x in _prefixes(_scaled(levels, k))]


def _level_counts(levels, flat, k, interior):
    """(#(kQ cap Z^n), #(int(kQ) cap Z^n)) for Q full-dimensional, n >= 2,
    from one walk over the prefixes x_0..x_{n-3} of kQ; the second count
    is 0 unless ``interior`` asks for it.

    For v = x_{n-2} in its range each facet (u, a, c) of the last level
    has slack s + w v, and x_{n-1} has a closed range from the floor
    divisions of the slacks by c and a strict one, where every facet is
    positive, from the slacks minus 1, since facet values are integers.
    ``flat`` holds the facets (u, a) whose normal ends in 0: they do not
    bound x_{n-1}, so the strict range counts only where
    <u, x> + k a >= 1, which bounds v to a range of its own.
    """
    *head, (lower1, upper1), (lower, upper) = _scaled(levels, k)
    flat = [(u, k * a - 1, u[-1]) for u, a in flat]
    closed = strict = 0
    for x in _prefixes(head):
        lo = [(sum(map(mul, u, x)) + a, u[-1], c) for u, a, c in lower]
        up = [(sum(map(mul, u, x)) + a, u[-1], c) for u, a, c in upper]
        start, stop = _bounds((lower1, upper1), x)
        # v with every flat slack >= 1, as the half-open [fstart, fstop)
        fstart, fstop = start, stop
        for u, a, w in flat:
            s = sum(map(mul, u, x)) + a
            if w > 0:
                fstart = max(fstart, -(s // w))
            elif w < 0:
                fstop = min(fstop, s // -w + 1)
            elif s < 0:
                fstop = fstart
        for v in range(start, stop):
            closed += (min((s + w * v) // c for s, w, c in lo)
                       + min((s + w * v) // c for s, w, c in up) + 1)
            if interior and fstart <= v < fstop:
                strict += max(0, min((s + w * v - 1) // c for s, w, c in lo)
                              + min((s + w * v - 1) // c for s, w, c in up) + 1)
    return closed, strict


def lattice_points(P: LatticePolytope):
    """All integer points of P, sorted lexicographically.

    The projection levels of Q.cone, Q the full-dimensional image of P
    under project_full, enumerate Q's points as hull_lattice_points
    does, so the cost is the number of points plus the prefixes that
    dead-end on an integer gap.
    """
    Q, (x0, L) = project_full(P)
    pts = _level_points(_projection_levels(Q.cone), 1)
    if Q is P:
        return pts
    return sorted(zl.vadd(x0, zl.mat_vec(L, y)) for y in pts)


def _det_total(C) -> int:
    """n! times the volume of P for C = P.cone full-dimensional: the
    simplices of the pulling triangulation of C are cones over simplices
    of P, and |det| of their generators is n! times the simplex volume."""
    return sum(abs(zl.det([C.generators[i] for i in s]))
               for s in cn.pulling_triangulation(C.zero_sets, C._ray_mask(), C.dim))


def volume(P: LatticePolytope) -> Fraction:
    """Exact Euclidean volume; zero when P is not full-dimensional."""
    n = P.ambient_dim
    if P.dim < n:
        return Fraction(0)
    return Fraction(_det_total(P.cone), factorial(n))


def project_full(P: LatticePolytope):
    """Rewrite P in a basis of the saturated lattice of its affine span.

    Returns (Q, (x0, L)): Q is full-dimensional with the same lattice
    point counts, and y -> x0 + L y embeds Q's lattice back into the
    original one. A full-dimensional P comes back unchanged with the
    identity map; a single point becomes the origin in Z^1 (with a zero
    embedding matrix, kept only so the return shape is uniform).
    """
    n = P.ambient_dim
    if P.is_full_dim:
        return P, ([0] * n, zl.identity(n))
    x0 = P.vertices[0]
    if P.dim == 0:
        return hull([[0]]), (list(x0), [[0] for _ in range(n)])
    diffs = [zl.vsub(v, x0) for v in P.vertices]
    coords, L, _, _ = zl.lattice_split(diffs, n)
    return hull([zl.mat_vec(coords, v) for v in diffs]), (list(x0), L)


def normalized_volume(P: LatticePolytope) -> int:
    """dim! times the volume measured in the saturated span lattice."""
    Q, _ = project_full(P)
    return _det_total(Q.cone) if Q.dim else 1


def _liftings(m):
    """The fixed sequence of integer liftings of m points that
    mixed_volume tries: the k-th lifting draws each value from
    [0, 2^(10 + k)) with its own random.Random(k), so the sequence does
    not depend on the global random state and widens on each retry."""
    for k in count():
        rng = Random(k)
        yield [rng.randrange(1 << (10 + k)) for _ in range(m)]


def _lower_cells(points, omega):
    """The lower facets of the Cayley points lifted by omega, each as the
    list of the indices of its points, or None when some lower facet
    holds more than dim + 1 points (omega is not generic).

    The cone over the lifted points (c, omega(c), 1) plus the upward
    direction (0, ..., 0, 1, 0) has as facets the lower facets of the
    lifted polytope, whose normals have a positive lift coordinate, and
    vertical ones; the upward generator removes every upper facet. It
    comes first and the points follow in order of their lift, which
    keeps the double description small.
    """
    d = len(points[0])
    order = sorted(range(len(points)), key=omega.__getitem__)
    gens = [[0] * d + [1, 0]] + [points[j] + [omega[j], 1] for j in order]
    cells = []
    for normal, Z in cn._dual_rays_with_zero_sets(gens, d + 2):
        if normal[d] <= 0:
            continue
        if Z.bit_count() != d + 1:
            return None
        cells.append([j for b, j in enumerate(order, 1) if Z >> b & 1])
    return cells


def mixed_volume(polys) -> int:
    """MV(P_1, ..., P_n) as the total volume of the mixed cells of a fine
    regular mixed subdivision (Huber-Sturmfels; Emiris-Canny).

    The polytope count must match the ambient dimension n. Vertex a of
    P_i becomes the Cayley point (e_i, a) in Z^(2n-1), with e_1 = 0 and
    e_2, ..., e_n the unit vectors of the first n - 1 coordinates. The
    Cayley polytope has dimension dim(P_1 + ... + P_n) + n - 1, so when
    it is not full-dimensional the sum is not either and MV is 0.
    Otherwise an integer lifting from a fixed list (``_liftings``)
    induces a regular subdivision of the Cayley polytope, read off the
    lower hull of the lifted points. The lifting is fine when every
    lower facet holds exactly 2n points, a simplex; if one holds more,
    the next lifting of the list is tried. By the Cayley trick the
    simplices with exactly two points a_i, b_i from each P_i are the
    mixed cells, each contributing |det(b_1 - a_1, ..., b_n - a_n)|.
    Every fine lifting gives the same sum, so the result does not
    depend on which lifting of the list succeeds.
    """
    polys = list(polys)
    if not polys:
        raise ValueError("mixed volume needs at least one polytope")
    n = polys[0].ambient_dim
    if any(Q.ambient_dim != n for Q in polys):
        raise ValueError("ambient dimensions differ")
    if len(polys) != n:
        raise ValueError(f"need exactly {n} polytopes in dimension {n}")
    points, owner = [], []
    for i, Q in enumerate(polys):
        e = [int(j == i - 1) for j in range(n - 1)]
        for v in Q.vertices:
            points.append(e + list(v))
            owner.append(i)
    if zl.rank([c + [1] for c in points]) < 2 * n:
        return 0
    for omega in _liftings(len(points)):
        cells = _lower_cells(points, omega)
        if cells is not None:
            break
    total = 0
    for cell in cells:
        by_owner = [[] for _ in range(n)]
        for j in cell:
            by_owner[owner[j]].append(points[j][n - 1:])
        if all(len(ab) == 2 for ab in by_owner):
            total += abs(zl.det([zl.vsub(b, a) for a, b in by_owner]))
    return total


def ehrhart(P: LatticePolytope) -> zl.RationalPolynomial:
    """Lattice-point counting polynomial L(k) = #(kP cap M) of P, M the
    saturated lattice of P's affine span.

    L has degree d = dim P and L(0) = 1. With Q the full-dimensional
    image from project_full, Ehrhart-Macdonald reciprocity gives
    L(-k) = (-1)^d #(int(kQ) cap M) (Beck-Robins, Computing the
    Continuous Discretely, 2007, Thm. 4.1), so the d + 1 interpolation
    nodes come from the dilates k = 1..ceil(d/2): L(k) from each and
    L(-k) from those with k <= d/2. One walk over the prefixes of kQ, on
    the projection levels of Q.cone, counts kQ and its interior together:
    at the last coordinate it adds the closed range and, where every
    facet is positive, the strict range. The facets whose normal ends in
    0 do not bound that coordinate, so they bound the prefix instead. No
    point list and no further cone is built.
    """
    Q, _ = project_full(P)
    d = Q.dim
    if d == 0:
        return zl.RationalPolynomial([1])
    if d == 1:
        # a segment [a, b] of Z^1: L(k) = 1 + k (b - a)
        (a,), (b,) = Q.vertices
        return zl.RationalPolynomial([1, b - a])
    levels = _projection_levels(Q.cone)
    flat = [(m[:-2], m[-1]) for m in Q.cone.facet_normals if m[-2] == 0]
    data = [(0, 1)]
    for k in range(1, (d + 1) // 2 + 1):
        interior = 2 * k <= d
        closed, strict = _level_counts(levels, flat, k, interior)
        data.append((k, closed))
        if interior:
            data.append((-k, (-1) ** d * strict))
    return zl.interpolate(data)


def face_in_direction(P: LatticePolytope, u) -> LatticePolytope:
    """The face of P minimizing <u, .>."""
    vals = [zl.dot(u, v) for v in P.vertices]
    m = min(vals)
    return hull([v for v, s in zip(P.vertices, vals) if s == m])


def is_normal(P: LatticePolytope) -> bool:
    """Whether (kP cap M) + (lP cap M) = ((k+l)P) cap M for all k, l >= 1,
    M the saturated lattice of P's affine span.

    The lattice points at height k of P.cone, in the saturated lattice of
    its span where ``hilbert_basis`` works, are those of kP, so P is normal
    exactly when every element of that Hilbert basis has height 1 (Cox-
    Little-Schenck, Toric Varieties, 2011, section 2.2; Bruns-Gubeladze,
    Polytopes, Rings, and K-Theory, 2009, ch. 2). The cost follows the
    normalized volume.
    """
    return all(h[-1] == 1 for h in cn.hilbert_basis(P.cone).vectors)


def _tangent_cones(P: LatticePolytope):
    """Pairs (v, cone(P - v)) over the vertices v of P: the tangent cone
    at v is generated by the other vertices minus v."""
    for v in P.vertices:
        yield v, cn.cone([zl.vsub(w, v) for w in P.vertices if w != v],
                         P.ambient_dim)


def is_very_ample(P: LatticePolytope) -> bool:
    """Whether at each vertex v the semigroup generated by P cap M - v is
    saturated, that is, all of cone(P - v) cap M, M the saturated lattice
    of P's affine span.

    A Hilbert basis element h of the tangent cone is irreducible in
    cone(P - v) cap M, which contains P cap M - v, so h is a sum of
    elements of P cap M - v only when it is one of them. P is therefore
    very ample exactly when v + h lies in P for every such h and every
    vertex v (Cox-Little-Schenck, Toric Varieties, 2011, section 2.2;
    Bruns-Gubeladze, Polytopes, Rings, and K-Theory, 2009, ch. 2).
    The elements come one at a time, so the answer False comes at the
    first h with v + h outside P, before the rest of the basis.
    """
    return all(P.contains(zl.vadd(v, h))
               for v, tangent in _tangent_cones(P)
               for h in cn._hilbert_basis_iter(tangent))


def is_smooth(P: LatticePolytope) -> bool:
    """Whether every tangent cone Cone(P - v) is smooth: its rays are a
    basis of the saturated lattice of its span. For P full-dimensional
    these cones are the duals of the normal fan's maximal cones, and a
    full-dimensional cone is smooth iff its dual is."""
    return all(tangent.is_smooth for _, tangent in _tangent_cones(P))
