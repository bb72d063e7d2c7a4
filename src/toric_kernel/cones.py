"""Rational convex polyhedral cones.

A cone is stored with both descriptions: the generators it was built
from (primitivized, deduplicated, input order kept) and a canonical
generating set of its dual, computed eagerly with the double
description method. The dual data doubles as the H-representation:
sigma = {x : <m, x> >= 0 for every m in facet_normals}.
"""

from __future__ import annotations

from itertools import combinations

from . import zlattice as zl


def _dedupe(vectors):
    seen = []
    for v in vectors:
        if v not in seen:
            seen.append(v)
    return seen


def _pointed_dual_rays(cons, n):
    """Extreme rays of D = {x : <u, x> >= 0 for u in cons}.

    Requires the constraint matrix to have rank n, which makes D pointed.
    Incremental double description: seed with a simplicial cone cut out
    by n independent constraints, then insert the rest in input order,
    combining only adjacent ray pairs (no third ray's zero set may
    contain the pair's common zero set).
    """
    if n == 0:
        return []
    echelon = zl.RowEchelon()
    indep = []
    for i, u in enumerate(cons):
        if echelon.add(u):
            indep.append(i)
            if len(indep) == n:
                break
    if len(indep) < n:
        raise ValueError("constraint matrix does not have full rank")
    # column j of U^-1 = adj(U) / det U is the ray tight on all of U's
    # rows but row j
    adj, det = zl.adjugate([cons[i] for i in indep])
    sign = 1 if det > 0 else -1
    rays = [(zl.primitive([sign * row[j] for row in adj]),
             frozenset(indep) - {indep[j]}) for j in range(n)]
    for k, u in enumerate(cons):
        if k in indep:
            continue
        plus, zero, minus = [], [], []
        for vec, Z in rays:
            s = zl.dot(u, vec)
            if s > 0:
                plus.append((vec, Z, s))
            elif s < 0:
                minus.append((vec, Z, s))
            else:
                zero.append((vec, Z | {k}))
        new = [(v, Z) for v, Z, _ in plus] + zero
        for pvec, pZ, ps in plus:
            for mvec, mZ, ms in minus:
                T = pZ & mZ
                blocked = any(Z3 >= T and v3 is not pvec and v3 is not mvec
                              for v3, Z3 in rays)
                if blocked:
                    continue
                w = zl.vadd(zl.vscale(ps, mvec), zl.vscale(-ms, pvec))
                new.append((zl.primitive(w), T | {k}))
        rays = new
    out = _dedupe([v for v, _ in rays])
    out.sort()
    return out


def halfspace_generators(constraints, n):
    """Generators of {x : <u, x> >= 0 for all u in constraints}.

    Returns (lineality_basis, rays): a saturated lattice basis of the
    lineality space and the extreme rays of the pointed part, the rays
    written with zero coordinates along the lineality directions of the
    chosen unimodular splitting.
    """
    cons = [list(u) for u in constraints if any(u)]
    if not cons:
        return zl.columns(zl.identity(n)), []
    K = zl.kernel_basis(cons)
    lin = zl.columns(K)
    ell = len(lin)
    if ell == 0:
        return [], _pointed_dual_rays(cons, n)
    _, P, _ = zl.snf(K)
    pi = [list(P[i]) for i in range(ell, n)]
    solve = zl.integer_solver(zl.transpose(pi))
    reduced = []
    for u in cons:
        c = solve(u)
        if c is None:
            raise ValueError("constraint outside the quotient lattice")
        reduced.append(c)
    rays_q = _pointed_dual_rays(reduced, n - ell)
    Pinv = _unimodular_inverse(P)
    lifted = [zl.primitive(zl.mat_vec(Pinv, [0] * ell + list(r))) for r in rays_q]
    return lin, lifted


def _unimodular_inverse(P):
    # the column HNF of a square unimodular matrix is I, so P U = I
    _, U = zl.hnf(P)
    return U


class Cone:
    """Immutable rational polyhedral cone in Z^ambient_dim."""

    __slots__ = ("ambient_dim", "generators", "dual_lineality", "dual_rays",
                 "facet_normals", "dim", "_rays")

    def __init__(self, ambient_dim, generators, dual_lineality, dual_rays):
        self.ambient_dim = ambient_dim
        self.generators = generators
        self.dual_lineality = dual_lineality
        self.dual_rays = dual_rays
        normals = sorted(dual_rays)
        for b in dual_lineality:
            normals.append(list(b))
            normals.append([-x for x in b])
        self.facet_normals = normals
        self.dim = zl.rank(generators) if generators else 0
        self._rays = None

    # -- membership and comparisons ------------------------------------

    def contains(self, v) -> bool:
        return all(zl.dot(m, v) >= 0 for m in self.facet_normals)

    def contains_cone(self, other) -> bool:
        return all(self.contains(g) for g in other.generators)

    def contains_in_relint(self, v) -> bool:
        """v in the relative interior: strict on facet rows, tight on the
        span equations (the paired lineality normals)."""
        pairs = {tuple(m) for m in self.facet_normals
                 if [-x for x in m] in self.facet_normals}
        for m in self.facet_normals:
            s = zl.dot(m, v)
            if tuple(m) in pairs:
                if s != 0:
                    return False
            elif s <= 0:
                return False
        return True

    def __eq__(self, other):
        return (isinstance(other, Cone)
                and self.ambient_dim == other.ambient_dim
                and self.contains_cone(other)
                and other.contains_cone(self))

    __hash__ = None

    def __repr__(self):
        gens = ", ".join(str(tuple(g)) for g in self.generators)
        return f"Cone[{self.ambient_dim}]({gens})" if gens else f"Cone[{self.ambient_dim}](0)"

    # -- structure -------------------------------------------------------

    @property
    def is_pointed(self) -> bool:
        return zl.rank(self.facet_normals) == self.ambient_dim

    @property
    def is_full_dim(self) -> bool:
        return self.dim == self.ambient_dim

    def rays(self):
        """Primitive generators of the 1-dimensional faces, in the order
        the corresponding generators were given."""
        if not self.is_pointed:
            raise ValueError("rays of a non-pointed cone are undefined")
        if self._rays is None:
            n = self.ambient_dim
            found = []
            for g in self.generators:
                tight = [m for m in self.facet_normals if zl.dot(m, g) == 0]
                if zl.rank(tight) == n - 1 and g not in found:
                    found.append(g)
            self._rays = found
        return [list(r) for r in self._rays]

    @property
    def is_simplicial(self) -> bool:
        if not self.is_pointed:
            return False
        return len(self.rays()) == self.dim

    @property
    def is_smooth(self) -> bool:
        """The rays extend to a Z-basis of the ambient lattice."""
        if not self.is_pointed:
            return False
        R = self.rays()
        if len(R) != self.dim:
            return False
        if not R:
            return True
        diag = zl.snf_diagonal(zl.from_columns(R, rows=self.ambient_dim))
        return all(d == 1 for d in diag)

    def dual(self) -> "Cone":
        gens = [list(m) for m in self.facet_normals]
        return cone(gens, self.ambient_dim)

    # -- faces -------------------------------------------------------------

    def faces(self):
        """The full face lattice, each face as a Cone.

        Every face is the tight set of a subset of facet normals; subsets
        are enumerated and deduplicated by their tight generator sets.
        """
        n = self.ambient_dim
        normals = self.facet_normals
        seen = {}
        for r in range(len(normals) + 1):
            for S in combinations(range(len(normals)), r):
                tight = [g for g in self.generators
                         if all(zl.dot(normals[i], g) == 0 for i in S)]
                key = frozenset(tuple(g) for g in tight)
                if key not in seen:
                    seen[key] = cone(tight, n)
        out = list(seen.values())
        out.sort(key=lambda c: (c.dim, sorted(tuple(g) for g in c.generators)))
        return out

    def face_from_character(self, m):
        """sigma cut by the hyperplane of the character m in dual(sigma)."""
        if len(m) != self.ambient_dim:
            raise ValueError("character has wrong dimension")
        if any(zl.dot(m, g) < 0 for g in self.generators):
            raise ValueError("character is not in the dual cone")
        tight = [g for g in self.generators if zl.dot(m, g) == 0]
        return cone(tight, self.ambient_dim)


def cone(gens, ambient: int) -> Cone:
    """Build the cone generated by the given integer vectors.

    Zero vectors are dropped; the remaining generators are primitivized
    and deduplicated with their order kept. The empty list gives the
    zero cone.
    """
    vecs = []
    for g in gens:
        g = [int(x) for x in g]
        if len(g) != ambient:
            raise ValueError(f"generator {g} does not live in dimension {ambient}")
        if any(g):
            p = zl.primitive(g)
            if p not in vecs:
                vecs.append(p)
    lin, drays = halfspace_generators(vecs, ambient)
    return Cone(ambient, vecs, lin, drays)


def intersect(c1: Cone, c2: Cone) -> Cone:
    """Intersection of two cones in the same ambient lattice."""
    if c1.ambient_dim != c2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = c1.ambient_dim
    lin, rays = halfspace_generators(c1.facet_normals + c2.facet_normals, n)
    gens = list(rays)
    for b in lin:
        gens.append(list(b))
        gens.append([-x for x in b])
    return cone(gens, n)


def is_face_of(tau: Cone, sigma: Cone) -> bool:
    """Whether tau is a face of sigma."""
    if not sigma.contains_cone(tau):
        return False
    tight = [m for m in sigma.facet_normals
             if all(zl.dot(m, g) == 0 for g in tau.generators)]
    cut = [g for g in sigma.generators
           if all(zl.dot(m, g) == 0 for m in tight)]
    return cone(cut, sigma.ambient_dim) == tau


class HilbertBasis:
    """Irreducible generators of the semigroup of a pointed cone."""

    __slots__ = ("elements",)

    def __init__(self, vectors, ambient):
        vecs = sorted(tuple(v) for v in vectors)
        self.elements = zl.from_columns([list(v) for v in vecs], rows=ambient)

    @property
    def vectors(self):
        return zl.columns(self.elements)

    def __len__(self):
        _, c = zl.shape(self.elements)
        return c

    def __repr__(self):
        return f"HilbertBasis({[tuple(v) for v in self.vectors]})"


def _parallelepiped_points(S, d):
    """Nonzero lattice points of {S t : t in [0,1)^d}, S a d x d matrix
    with linearly independent columns."""
    H, _ = zl.hnf(S)
    bounds = [H[i][i] for i in range(d)]
    # S^-1 a = adj a / det, and // floors the exact quotient for either
    # sign of det
    adj, det = zl.adjugate(S)
    points = set()
    idx = [0] * d

    def rec(i):
        if i == d:
            a = list(idx)
            shift = [x // det for x in zl.mat_vec(adj, a)]
            x = zl.vsub(a, zl.mat_vec(S, shift))
            if any(x):
                points.add(tuple(x))
            return
        for v in range(bounds[i]):
            idx[i] = v
            rec(i + 1)

    rec(0)
    return points


def hilbert_basis(sigma: Cone) -> HilbertBasis:
    """The Hilbert basis of sigma cap Z^n for a pointed cone sigma.

    Candidates are the rays plus the fundamental-parallelepiped points of
    every maximal simplicial subcone spanned by rays (a Caratheodory
    cover of sigma). A candidate c is kept exactly when no candidate a
    with a != c leaves c - a a nonzero lattice point of sigma.
    """
    if not sigma.is_pointed:
        raise ValueError("Hilbert basis requires a pointed cone")
    n = sigma.ambient_dim
    d = sigma.dim
    if d == 0:
        return HilbertBasis([], n)
    R = sigma.rays()
    if d < n:
        B = zl.span_lattice_basis(sigma.generators, n)
        solve = zl.integer_solver(B)
        R_proj = [solve(r) for r in R]
        inner = hilbert_basis(cone(R_proj, d))
        return HilbertBasis([zl.mat_vec(B, v) for v in inner.vectors], n)
    candidates = {tuple(r) for r in R}
    for S in combinations(R, d):
        M = zl.from_columns([list(v) for v in S], rows=d)
        if zl.det(M) == 0:
            continue
        candidates |= _parallelepiped_points(M, d)
    cand = sorted(candidates)
    normals = sigma.facet_normals
    kept = []
    for c in cand:
        reducible = False
        for a in cand:
            if a == c:
                continue
            diff = zl.vsub(list(c), list(a))
            if any(diff) and all(zl.dot(m, diff) >= 0 for m in normals):
                reducible = True
                break
        if not reducible:
            kept.append(list(c))
    return HilbertBasis(kept, n)


def semigroup_member(gens, target):
    """Nonnegative integer coefficients c with sum c_i g_i = target.

    gens is a list of integer vectors spanning a pointed cone; returns
    None when target is not in the semigroup they generate. The search
    is depth first with coefficient bounds from a strictly positive
    functional on the cone.
    """
    vecs = [list(g) for g in gens]
    n = len(target)
    nonzero = [(i, g) for i, g in enumerate(vecs) if any(g)]
    target = list(target)
    if not nonzero:
        return [0] * len(vecs) if not any(target) else None
    span = cone([g for _, g in nonzero], n)
    if not span.is_pointed:
        raise ValueError("generators span a non-pointed cone; search unbounded")
    w = [0] * n
    for m in span.facet_normals:
        w = zl.vadd(w, m)
    weights = [zl.dot(w, g) for _, g in nonzero]
    if any(x <= 0 for x in weights):
        raise ValueError("generators span a non-pointed cone; search unbounded")
    normals = span.facet_normals

    def feasible(rem):
        return all(zl.dot(m, rem) >= 0 for m in normals)

    if not feasible(target):
        return None
    coeffs = [0] * len(nonzero)

    def rec(i, rem, wrem):
        if i == len(nonzero):
            return not any(rem)
        bound = wrem // weights[i]
        g = nonzero[i][1]
        for c in range(bound, -1, -1):
            nrem = zl.vsub(rem, zl.vscale(c, g))
            if not feasible(nrem):
                continue
            coeffs[i] = c
            if rec(i + 1, nrem, wrem - c * weights[i]):
                return True
        coeffs[i] = 0
        return False

    if not rec(0, target, zl.dot(w, target)):
        return None
    out = [0] * len(vecs)
    for (i, _), c in zip(nonzero, coeffs):
        out[i] = c
    return out


class DistinguishedPoint:
    """The 0/1 point of an affine chart: 1 exactly on the semigroup
    generators orthogonal to the cone."""

    __slots__ = ("generator_set", "values")

    def __init__(self, generator_set, values):
        self.generator_set = generator_set
        self.values = values

    def __repr__(self):
        pairs = ", ".join(f"{tuple(g)}:{v}"
                          for g, v in zip(self.generator_set, self.values))
        return f"DistinguishedPoint({pairs})"


def _dual_semigroup_data(sigma: Cone):
    """(pairs, lifted, K, pi): plus/minus lattice basis pairs of
    sigma-perp, lifted Hilbert basis elements of the pointed part of the
    dual, the kernel column matrix K, and the quotient projection rows
    (None unless 0 < ell < n)."""
    n = sigma.ambient_dim
    rows = [list(g) for g in sigma.generators] or [[0] * n]
    K = zl.kernel_basis(rows)
    lin = zl.columns(K)
    ell = len(lin)
    pairs = []
    for b in lin:
        pairs.append(list(b))
        pairs.append([-x for x in b])
    if ell == n:
        return pairs, [], K, None
    if ell == 0:
        return pairs, hilbert_basis(sigma.dual()).vectors, K, None
    _, P, _ = zl.snf(K)
    pi = [list(P[i]) for i in range(ell, n)]
    proj_rays = [zl.mat_vec(pi, r) for r in sigma.dual_rays]
    inner = hilbert_basis(cone(proj_rays, n - ell))
    Pinv = _unimodular_inverse(P)
    lifted = [zl.mat_vec(Pinv, [0] * ell + list(h)) for h in inner.vectors]
    return pairs, lifted, K, pi


def dual_semigroup_generators(sigma: Cone):
    """Generators of dual(sigma) cap M: plus/minus a lattice basis of
    sigma-perp together with lifted Hilbert basis elements of the
    pointed part of the dual."""
    pairs, lifted, _, _ = _dual_semigroup_data(sigma)
    return pairs + lifted


def dual_semigroup_decompose(sigma: Cone, target):
    """Nonnegative integer coefficients writing target over
    dual_semigroup_generators(sigma), or None when target is not in the
    dual semigroup. The lineality part is split into the +/- basis
    pairs; the pointed part goes through semigroup_member."""
    pairs, lifted, K, pi = _dual_semigroup_data(sigma)
    if not pairs:
        return semigroup_member(lifted, target)
    if pi is None:
        coeffs = []
        rem = list(target)
    else:
        proj = zl.mat_vec(pi, target)
        inner = [zl.mat_vec(pi, h) for h in lifted]
        found = semigroup_member(inner, proj)
        if found is None:
            return None
        coeffs = list(found)
        rem = list(target)
        for c, h in zip(coeffs, lifted):
            rem = zl.vsub(rem, zl.vscale(c, h))
    b = zl.solve_integer(K, rem)
    if b is None:
        return None
    out = []
    for x in b:
        out.extend((x, 0) if x >= 0 else (0, -x))
    return out + coeffs


def distinguished_point(sigma: Cone) -> DistinguishedPoint:
    """Semigroup generators of dual(sigma) with value 1 exactly on those
    lying in sigma-perp (the distinguished point of the chart)."""
    if not sigma.is_pointed:
        raise ValueError("distinguished point requires a pointed cone")
    gen_set = dual_semigroup_generators(sigma)
    values = [int(all(zl.dot(m, g) == 0 for g in sigma.generators))
              for m in gen_set]
    return DistinguishedPoint(gen_set, values)


def is_fixed_point(sigma: Cone) -> bool:
    return sigma.dim == sigma.ambient_dim


def separating_character(c1: Cone, c2: Cone):
    """A character m with c1 cut by m-perp equal to c1 cap c2 and the
    same on the other side: m in dual(c1), -m in dual(c2).

    Tries the Hilbert basis of dual(c1) first, then a relative-interior
    point of dual(c1) cap -dual(c2). Raises ValueError when the
    intersection is not a common face.
    """
    if c1.ambient_dim != c2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = c1.ambient_dim
    if c1 == c2:
        return [0] * n
    tau = intersect(c1, c2)

    def cuts(m):
        if any(zl.dot(m, g) < 0 for g in c1.generators):
            return False
        if any(zl.dot(m, g) > 0 for g in c2.generators):
            return False
        t1 = cone([g for g in c1.generators if zl.dot(m, g) == 0], n)
        t2 = cone([g for g in c2.generators if zl.dot(m, g) == 0], n)
        return t1 == tau and t2 == tau

    if c1.is_full_dim:
        for h in hilbert_basis(c1.dual()).vectors:
            if cuts(h):
                return h
    constraints = [list(g) for g in c1.generators]
    constraints += [[-x for x in g] for g in c2.generators]
    _, rays = halfspace_generators(constraints, n)
    m = [0] * n
    for r in rays:
        m = zl.vadd(m, r)
    if any(m) and cuts(m):
        return m
    raise ValueError("cones do not intersect in a common face")
