"""Lattice polytopes: hulls, lattice points, volumes, Ehrhart data.

A polytope is stored by its lexicographically sorted vertex list plus
the minimal H-representation: facet pairs (u, a) meaning <u, x> + a >= 0
with u a primitive inward normal, and, for polytopes that are not
full-dimensional, extra equation pairs (u, a) meaning <u, x> + a = 0
cutting out the affine span.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import factorial

from . import cones as cn
from . import zlattice as zl


class LatticePolytope:

    __slots__ = ("ambient_dim", "vertices", "facets", "equations", "dim",
                 "_points")

    def __init__(self, ambient_dim, vertices, facets, equations):
        self.ambient_dim = ambient_dim
        self.vertices = vertices
        self.facets = facets
        self.equations = equations
        if len(vertices) > 1:
            v0 = vertices[0]
            self.dim = zl.rank([zl.vsub(v, v0) for v in vertices[1:]])
        else:
            self.dim = 0
        self._points = None

    @property
    def is_full_dim(self):
        return self.dim == self.ambient_dim

    def contains(self, x) -> bool:
        return (all(zl.dot(u, x) + a >= 0 for u, a in self.facets)
                and all(zl.dot(u, x) + a == 0 for u, a in self.equations))

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

    Homogenizes to height 1 and reads vertices and facets off the cone
    machinery. Inequalities that are vacuous on the affine span (they
    reduce to a positive constant) are dropped, so a single point has no
    facets, only equations.
    """
    pts = []
    for p in points:
        p = [int(x) for x in p]
        if p not in pts:
            pts.append(p)
    if not pts:
        raise ValueError("hull of an empty point set")
    n = len(pts[0])
    C = cn.cone([p + [1] for p in pts], n + 1)
    verts = []
    for r in C.rays():
        if r[-1] != 1:
            raise AssertionError("homogenized cone has a ray at height != 1")
        verts.append(r[:-1])
    verts.sort()
    lin_span = zl.RowEchelon(b[:-1] for b in C.dual_lineality)
    facets = []
    for m in C.dual_rays:
        u, a = m[:-1], m[-1]
        if not any(lin_span.residue(u)):
            # u = 0 or u in the span of the equation normals: equivalent,
            # modulo the span equations, to a constant inequality
            continue
        facets.append((u, a))
    facets.sort()
    equations = sorted((b[:-1], b[-1]) for b in C.dual_lineality)
    return LatticePolytope(n, verts, facets, equations)


def newton_polytope(exponents) -> LatticePolytope:
    """Convex hull of a set of exponent vectors."""
    return hull(exponents)


def dilate(P: LatticePolytope, k: int) -> LatticePolytope:
    if k < 0:
        raise ValueError("dilation factor must be nonnegative")
    if k == 0:
        return hull([[0] * P.ambient_dim])
    if k == 1:
        return P
    verts = [zl.vscale(k, v) for v in P.vertices]
    facets = [(list(u), k * a) for u, a in P.facets]
    eqs = [(list(u), k * a) for u, a in P.equations]
    return LatticePolytope(P.ambient_dim, verts, facets, eqs)


def minkowski_sum(P: LatticePolytope, Q: LatticePolytope) -> LatticePolytope:
    if P.ambient_dim != Q.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return hull([zl.vadd(p, q) for p in P.vertices for q in Q.vertices])


def lattice_points(P: LatticePolytope):
    """All integer points of P, sorted lexicographically.

    Enumerates a coordinate box in the saturated lattice of the affine
    span and filters by the facet inequalities; cost is proportional to
    the box volume.
    """
    if P._points is not None:
        return [list(p) for p in P._points]
    n = P.ambient_dim
    x0 = P.vertices[0]
    if P.dim == 0:
        P._points = [list(x0)]
        return [list(x0)]
    if P.is_full_dim:
        ys = P.vertices
        trans = [(list(u), a) for u, a in P.facets]
        base = None
    else:
        L = zl.span_lattice_basis([zl.vsub(v, x0) for v in P.vertices], n)
        solve = zl.integer_solver(L)
        ys = [solve(zl.vsub(v, x0)) for v in P.vertices]
        trans = []
        for u, a in P.facets:
            ut = zl.mat_vec(zl.transpose(L), u)
            trans.append((ut, a + zl.dot(u, x0)))
        base = (x0, L)
    d = len(ys[0])
    lo = [min(y[i] for y in ys) for i in range(d)]
    hi = [max(y[i] for y in ys) for i in range(d)]
    found = []
    for y in product(*[range(lo[i], hi[i] + 1) for i in range(d)]):
        if all(sum(u[i] * y[i] for i in range(d)) + a >= 0 for u, a in trans):
            found.append(list(y))
    if base is None:
        pts = sorted(found)
    else:
        x0, L = base
        pts = sorted(zl.vadd(x0, zl.mat_vec(L, y)) for y in found)
    P._points = pts
    return [list(p) for p in pts]


def _triangulate(P: LatticePolytope):
    """Pulling triangulation from the lexicographically smallest vertex;
    returns lists of dim+1 affinely independent vertices."""
    if P.dim == 0:
        return [[list(P.vertices[0])]]
    v0 = P.vertices[0]
    out = []
    for u, a in P.facets:
        if zl.dot(u, v0) + a == 0:
            continue
        fverts = [v for v in P.vertices if zl.dot(u, v) + a == 0]
        for s in _triangulate(hull(fverts)):
            out.append([list(v0)] + s)
    return out


def volume(P: LatticePolytope) -> Fraction:
    """Exact Euclidean volume; zero when P is not full-dimensional."""
    n = P.ambient_dim
    if P.dim < n:
        return Fraction(0)
    total = Fraction(0)
    for s in _triangulate(P):
        M = [zl.vsub(v, s[0]) for v in s[1:]]
        total += Fraction(abs(zl.det(M)), factorial(n))
    return total


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
    L = zl.span_lattice_basis([zl.vsub(v, x0) for v in P.vertices], n)
    solve = zl.integer_solver(L)
    ys = [solve(zl.vsub(v, x0)) for v in P.vertices]
    return hull(ys), (list(x0), L)


def normalized_volume(P: LatticePolytope) -> int:
    """dim! times the volume measured in the saturated span lattice."""
    Q, _ = project_full(P)
    if Q.dim == 0:
        return 1
    v = volume(Q) * factorial(Q.dim)
    if v.denominator != 1:
        raise AssertionError("normalized volume of a lattice polytope must be integral")
    return int(v)


def mixed_volume(polys) -> int:
    """MV(P_1, ..., P_n) by inclusion-exclusion over Minkowski sums of
    subsets; the polytope count must match the ambient dimension."""
    polys = list(polys)
    if not polys:
        raise ValueError("mixed volume needs at least one polytope")
    n = polys[0].ambient_dim
    if any(Q.ambient_dim != n for Q in polys):
        raise ValueError("ambient dimensions differ")
    if len(polys) != n:
        raise ValueError(f"need exactly {n} polytopes in dimension {n}")
    total = Fraction(0)
    for k in range(1, n + 1):
        sign = (-1) ** (n - k)
        for S in combinations(range(n), k):
            acc = polys[S[0]]
            for i in S[1:]:
                acc = minkowski_sum(acc, polys[i])
            total += sign * volume(acc)
    if total.denominator != 1:
        raise AssertionError("mixed volume must be integral")
    return int(total)


def ehrhart(P: LatticePolytope) -> zl.RationalPolynomial:
    """Lattice-point counting polynomial of P, via exact interpolation
    of the counts of the first dim+1 dilates."""
    Q, _ = project_full(P)
    d = Q.dim
    data = []
    for k in range(d + 1):
        data.append((k, len(lattice_points(dilate(Q, k)))))
    return zl.interpolate(data)


def face_in_direction(P: LatticePolytope, u) -> LatticePolytope:
    """The face of P minimizing <u, .>."""
    vals = [zl.dot(u, v) for v in P.vertices]
    m = min(vals)
    return hull([v for v, s in zip(P.vertices, vals) if s == m])


def is_normal(P: LatticePolytope) -> bool:
    """(P cap M) + (kP cap M) = ((k+1)P) cap M for k = 1..dim-1."""
    Q, _ = project_full(P)
    d = Q.dim
    if d <= 1:
        return True
    A1 = {tuple(p) for p in lattice_points(Q)}
    Ak = A1
    for k in range(1, d):
        target = {tuple(p) for p in lattice_points(dilate(Q, k + 1))}
        sums = {tuple(zl.vadd(list(a), list(b))) for a in A1 for b in Ak}
        if sums != target:
            return False
        Ak = target
    return True


def is_very_ample(P: LatticePolytope) -> bool:
    """Every Hilbert basis element of the vertex cone Cone(P cap M - v)
    is a nonnegative integer combination of P cap M - v, per vertex."""
    Q, _ = project_full(P)
    d = Q.dim
    if d == 0:
        return True
    pts = lattice_points(Q)
    for v in Q.vertices:
        S = [zl.vsub(p, v) for p in pts if p != v]
        C = cn.cone(S, d)
        for h in cn.hilbert_basis(C).vectors:
            if cn.semigroup_member(S, h) is None:
                return False
    return True


def is_smooth(P: LatticePolytope) -> bool:
    """Smoothness of the normal fan: every vertex cone Cone(P - v) must
    be smooth (those cones are the duals of the normal fan's maximal
    cones, and a full-dimensional cone is smooth iff its dual is)."""
    Q, _ = project_full(P)
    if Q.dim == 0:
        return True
    for v in Q.vertices:
        tangent = cn.cone([zl.vsub(w, v) for w in Q.vertices if w != v], Q.dim)
        if not tangent.is_smooth:
            return False
    return True
