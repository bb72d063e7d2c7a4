"""Rational convex polyhedral cones.

A cone is stored with both descriptions: the generators it was built
from (primitivized, deduplicated, input order kept) and a canonical
generating set of its dual, computed eagerly with the double
description method. The dual data doubles as the H-representation:
sigma = {x : <m, x> >= 0 for every m in facet_normals}. The double
description also gives, for each dual ray, the bitmask of the
generators tight on it; pointedness, the rays, the faces and the
pulling triangulation of the Hilbert basis are read off these masks.
"""

from __future__ import annotations

from functools import reduce
from operator import add, and_, ge, mul, sub

from . import zlattice as zl


def _dual_rays_with_zero_sets(cons, n, indep=None):
    """Pairs (ray, Z): the extreme rays of D = {x : <u, x> >= 0 for u in
    cons}, each once and with the bitmask Z of the constraint indices
    tight on it.

    Requires the constraint matrix to have rank n, which makes D pointed.
    Incremental double description: seed with a simplicial cone cut out
    by n independent constraints (``indep``, found here when not given),
    then insert the rest in input order, combining only adjacent ray
    pairs (no third ray's zero set may contain the pair's common zero
    set). A combination of two rays with positive coefficients is tight
    exactly where both are, so each Z is the exact zero set. Each new
    ray lies in the relative interior of the 2-face of its pair, so no
    ray is found twice (Fukuda-Prodon).
    """
    if indep is None:
        indep = zl.independent_rows(cons)
    if len(indep) < n:
        raise ValueError("constraint matrix does not have full rank")
    # column j of U^-1 = adj(U) / det U is the ray tight on all of U's
    # rows but row j
    adj, det = zl.adjugate([cons[i] for i in indep])
    sign = 1 if det > 0 else -1
    # zero sets are bitmasks over the constraint indices
    seed = sum(1 << i for i in indep)
    rays = [(zl.primitive([sign * row[j] for row in adj]),
             seed & ~(1 << indep[j])) for j in range(n)]
    for k, u in enumerate(cons):
        if k in indep:
            continue
        plus, zero, minus = [], [], []
        for bit, (vec, Z) in enumerate(rays):
            s = sum(map(mul, u, vec))
            if s > 0:
                plus.append((vec, Z, s, 1 << bit))
            elif s < 0:
                minus.append((vec, Z, s, 1 << bit))
            else:
                zero.append((vec, Z | 1 << k))
        new = [(v, Z) for v, Z, _, _ in plus] + zero
        if plus and minus:
            # holding[1 << i]: bitmask of the rays whose zero set holds i
            holding = {}
            for bit, (_, Z) in enumerate(rays):
                while Z:
                    low = Z & -Z
                    holding[low] = holding.get(low, 0) | 1 << bit
                    Z ^= low
            full = (1 << len(rays)) - 1
        for pvec, pZ, ps, pbit in plus:
            for mvec, mZ, ms, mbit in minus:
                T = pZ & mZ
                # adjacent rays of a pointed cone in R^n share n - 2
                # independent tight constraints (Fukuda-Prodon)
                if T.bit_count() < n - 2:
                    continue
                # the pair is adjacent when no third ray's zero set holds T:
                # the rays holding every bit of T are the pair alone
                pair = pbit | mbit
                blockers, rest = full, T
                while rest and blockers != pair:
                    low = rest & -rest
                    blockers &= holding[low]
                    rest ^= low
                if blockers != pair:
                    continue
                w = zl.vadd(zl.vscale(ps, mvec), zl.vscale(-ms, pvec))
                new.append((zl.primitive(w), T | 1 << k))
        rays = new
    return rays


def halfspace_generators(constraints, n):
    """Generators of {x : <u, x> >= 0 for all u in constraints}.

    Returns (lineality_basis, rays, zero_sets): the column HNF basis of
    the lineality lattice, which is unique; the extreme rays of the
    pointed part, sorted, each lifted from the quotient and reduced
    modulo that lattice into [0, pivot) at its HNF pivot rows, which
    makes the rays unique too, whatever the order of the constraints;
    and for each ray the bitmask of the constraints tight on it, numbered
    in input order with the zero constraints left out.
    """
    cons = [list(u) for u in constraints if any(u)]
    indep = zl.independent_rows(cons)
    if len(indep) == n:
        lin, pairs = [], _dual_rays_with_zero_sets(cons, n, indep)
    else:
        # u = B c with c = coords u, so <u, x> = <c, B^T x>, and B^T maps
        # Z^n onto Z^r with kernel the lineality, spanned by pi's rows:
        # a ray's coords^T lift is primitive, with the ray's zero set
        coords, pi = zl.lattice_coords(cons, n)
        quotient = _dual_rays_with_zero_sets([zl.mat_vec(coords, u) for u in cons],
                                             len(coords))
        H = zl.transpose(pi)
        zl._column_hnf(H, [])               # full column rank
        lin, pivots, lift = zl.columns(H), zl.hnf_pivots(H), zl.transpose(coords)
        pairs = []
        for r, Z in quotient:
            x = zl.mat_vec(lift, r)
            for i, j in pivots:
                x = zl.vsub(x, zl.vscale(x[i] // H[i][j], lin[j]))
            pairs.append((x, Z))
    pairs.sort()
    return lin, [r for r, _ in pairs], [Z for _, Z in pairs]


class Cone:
    """Immutable rational polyhedral cone in Z^ambient_dim.

    zero_sets[j] is the bitmask of the generators tight on dual_rays[j].
    """

    __slots__ = ("ambient_dim", "generators", "dual_lineality", "dual_rays",
                 "zero_sets", "facet_normals", "dim", "is_pointed", "_extreme")

    def __init__(self, ambient_dim, generators, dual_lineality, dual_rays, zero_sets):
        self.ambient_dim = ambient_dim
        self.generators = generators
        self.dual_lineality = dual_lineality
        self.dual_rays = dual_rays
        self.zero_sets = zero_sets
        normals = list(dual_rays)
        for b in dual_lineality:
            normals.append(list(b))
            normals.append([-x for x in b])
        self.facet_normals = normals
        # the dual's lineality has rank ambient_dim - rank(generators)
        self.dim = ambient_dim - len(dual_lineality)
        # the sum of the dual rays lies in the relative interior of the
        # dual, and it is positive on every generator exactly when sigma
        # is pointed
        self.is_pointed = reduce(and_, zero_sets, (1 << len(generators)) - 1) == 0
        self._extreme = None

    # -- membership and comparisons ------------------------------------

    def contains(self, v) -> bool:
        return all(zl.dot(m, v) >= 0 for m in self.facet_normals)

    def contains_cone(self, other) -> bool:
        return all(self.contains(g) for g in other.generators)

    def contains_in_relint(self, v) -> bool:
        """v in the relative interior: tight on the dual's lineality,
        whose orthogonal complement is the span, and strict on the dual
        rays."""
        return (all(zl.dot(b, v) == 0 for b in self.dual_lineality)
                and all(zl.dot(m, v) > 0 for m in self.dual_rays))

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
    def is_full_dim(self) -> bool:
        return self.dim == self.ambient_dim

    def _ray_mask(self):
        """Bitmask of the extreme generators of a pointed cone.

        The zero sets of the dual rays are those of sigma's facets, so
        the smallest face containing a generator g_i is spanned by the
        generators in every zero set that contains i (all of them when
        none does). An extreme g_i is the only generator on its line,
        since the generators are distinct and primitive and the cone is
        pointed. So g_i is extreme exactly when that set is {i}.
        """
        if self._extreme is None:
            full = (1 << len(self.generators)) - 1
            self._extreme = sum(
                1 << i for i in range(len(self.generators))
                if reduce(and_, (Z for Z in self.zero_sets if Z >> i & 1), full) == 1 << i)
        return self._extreme

    def rays(self):
        """Primitive generators of the 1-dimensional faces, in the order
        the corresponding generators were given."""
        if not self.is_pointed:
            raise ValueError("rays of a non-pointed cone are undefined")
        mask = self._ray_mask()
        return [list(g) for i, g in enumerate(self.generators) if mask >> i & 1]

    @property
    def is_simplicial(self) -> bool:
        if not self.is_pointed:
            return False
        return len(self.rays()) == self.dim

    @property
    def is_smooth(self) -> bool:
        """The rays extend to a Z-basis of the ambient lattice."""
        return self.is_simplicial and zl.saturation_index(self.rays()) == 1

    def on_generators(self, positions) -> "Cone":
        """This cone on its generators at the given positions, in that
        order, which must take in every extreme one: the dual rays stay,
        and each zero set is read at the new positions."""
        return Cone(self.ambient_dim, [self.generators[k] for k in positions],
                    self.dual_lineality, self.dual_rays,
                    [sum(1 << b for b, k in enumerate(positions) if Z >> k & 1)
                     for Z in self.zero_sets])

    def dual(self) -> "Cone":
        gens = [list(m) for m in self.facet_normals]
        return cone(gens, self.ambient_dim)

    # -- faces -------------------------------------------------------------

    def face_masks(self):
        """The faces as bitmasks of the generators on them.

        Every face is the set of generators tight on some dual rays, so
        these sets are the closure of the full set under intersection
        with the zero sets, and the search visits faces, not subsets of
        the dual rays.
        """
        full = (1 << len(self.generators)) - 1
        seen, stack = {full}, [full]
        while stack:
            F = stack.pop()
            for G in {F & Z for Z in self.zero_sets} - seen:
                seen.add(G)
                stack.append(G)
        return seen

    def faces(self):
        """The full face lattice, each face as a Cone."""
        gens = self.generators
        out = [cone([g for i, g in enumerate(gens) if F >> i & 1], self.ambient_dim)
               for F in self.face_masks()]
        out.sort(key=lambda c: (c.dim, sorted(tuple(g) for g in c.generators)))
        return out

    def smallest_face(self, vectors):
        """Bitmask of the generators on the smallest face holding the
        given vectors of the cone: the AND of the zero sets of the dual
        rays tight on all of them."""
        return reduce(and_, (Z for m, Z in zip(self.dual_rays, self.zero_sets)
                             if all(zl.dot(m, v) == 0 for v in vectors)),
                      (1 << len(self.generators)) - 1)

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
    # dict keys keep the first-seen order
    vecs = {}
    for g in gens:
        g = [int(x) for x in g]
        if len(g) != ambient:
            raise ValueError(f"generator {g} does not live in dimension {ambient}")
        if any(g):
            p = zl.primitive(g)
            vecs.setdefault(tuple(p), p)
    vecs = list(vecs.values())
    return Cone(ambient, vecs, *halfspace_generators(vecs, ambient))


def intersect(c1: Cone, c2: Cone) -> Cone:
    """Intersection of two cones in the same ambient lattice."""
    if c1.ambient_dim != c2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = c1.ambient_dim
    lin, rays, _ = halfspace_generators(c1.facet_normals + c2.facet_normals, n)
    gens = list(rays)
    for b in lin:
        gens.append(list(b))
        gens.append([-x for x in b])
    return cone(gens, n)


def is_face_of(tau: Cone, sigma: Cone) -> bool:
    """Whether tau is a face of sigma: whether it holds the face cut out
    by the dual rays tight on it, the smallest face containing it."""
    if not sigma.contains_cone(tau):
        return False
    cut = sigma.smallest_face(tau.generators)
    return all(tau.contains(g) for i, g in enumerate(sigma.generators) if cut >> i & 1)


class HilbertBasis:
    """Irreducible generators of the semigroup of a pointed cone in
    Z^ambient, as a sorted list of vectors."""

    __slots__ = ("vectors",)

    def __init__(self, vectors):
        self.vectors = sorted(list(v) for v in vectors)

    def __len__(self):
        return len(self.vectors)

    def __repr__(self):
        return f"HilbertBasis({[tuple(v) for v in self.vectors]})"


def _parallelepiped_points(S, d):
    """Nonzero lattice points of {S t : t in [0,1)^d}, S a d x d matrix
    with linearly independent columns.

    The box a in prod [0, h_i) over the diagonal of the column HNF of S
    holds one point of each class of Z^d / S Z^d, and the class of a
    meets the parallelepiped in x = a - S floor(A a / D), for D = |det S|
    and A = D S^-1 = +-adj S. The box is walked in mixed radix, the last
    digit fastest, keeping x and the residues r = A a mod D: a step adds
    1 to one digit and wraps the later ones from h - 1 to 0, which moves
    a, and so r and x, by fixed amounts; each residue that then passes D
    wraps and takes one more column of S off x. Only a = 0 gives x = 0.
    """
    H = zl.copy_matrix(S)
    zl._column_hnf(H, [])
    adj, det = zl.adjugate(S)
    D = abs(det)
    if det < 0:
        adj = [[-x for x in row] for row in adj]
    cols = zl.columns(S)
    digits = [j for j in range(d) if H[j][j] > 1]
    # steps[t]: (move of x, [(i, move of r_i)]) for a carry into digits[t]
    steps = []
    for t, j in enumerate(digits):
        move = [0] * d
        move[j] = 1
        for i in digits[t + 1:]:
            move[i] = 1 - H[i][i]
        q, dr = zip(*(divmod(v, D) for v in zl.mat_vec(adj, move)))
        steps.append((zl.vsub(move, zl.mat_vec(S, q)),
                      [(i, v) for i, v in enumerate(dr) if v]))
    top = [H[j][j] - 1 for j in digits]
    counter = [0] * len(digits)
    r, x = [0] * d, [0] * d
    points = set()
    for _ in range(D - 1):
        t = len(digits) - 1
        while counter[t] == top[t]:
            counter[t] = 0
            t -= 1
        counter[t] += 1
        move, dr = steps[t]
        x = list(map(add, x, move))
        for i, v in dr:
            v += r[i]
            if v >= D:
                v -= D
                x = list(map(sub, x, cols[i]))
            r[i] = v
        points.add(tuple(x))
    return points


def pulling_triangulation(masks, face, k):
    """Pulling triangulation of a face of a polytope or a pointed cone.

    The points (vertices or rays) are numbered, masks[j] is the bitmask
    of the points on facet j, and face is the bitmask of the points of a
    face whose simplices have k points: a polytope face of dimension
    k - 1 or a cone face of dimension k. The lowest point of face is
    pulled, that is, joined to the triangulations of those facets of
    face that miss it; the facets of face are the inclusion-maximal
    proper sets among face & m. Returns lists of k point indices.
    """
    low = face & -face
    top = [low.bit_length() - 1]
    if k == 1:
        return [top]
    cuts = list(dict.fromkeys(face & m for m in masks if face & m != face))
    out = []
    for f in cuts:
        if f & low or any(f != g and f | g == g for g in cuts):
            continue
        out.extend(top + s for s in pulling_triangulation(masks, f, k - 1))
    return out


def _reducible(g, v, kept):
    """Whether some (grade, values) pair of kept, which is in grade
    order, has a grade below g and values at most v everywhere."""
    for h, w in kept:
        if h >= g:
            return False
        if all(map(ge, v, w)):
            return True
    return False


def hilbert_basis(sigma: Cone) -> HilbertBasis:
    """The Hilbert basis of sigma cap Z^n for a pointed cone sigma: all of
    ``_hilbert_basis_iter``."""
    return HilbertBasis(_hilbert_basis_iter(sigma))


def _hilbert_basis_iter(sigma: Cone):
    """The elements of the Hilbert basis of sigma cap Z^n, sigma pointed,
    one at a time, each final when it is yielded.

    Candidates are the rays plus the fundamental-parallelepiped points of
    the simplicial cones of one pulling triangulation of sigma. A
    candidate c is reducible exactly when c - a is a nonzero point of
    sigma for some irreducible a. The grade g, the sum of the facet
    normals, is positive on sigma minus 0, so then g(a) < g(c):
    candidates are reduced in grade order, each against the kept
    elements of lower grade only (Bruns-Ichim, the Normaliz reduction),
    and that is the order they are yielded in. A cone of lower dimension
    d yields those of its image in Z^d, mapped back through the basis B
    of the saturated lattice of its span.
    """
    if not sigma.is_pointed:
        raise ValueError("Hilbert basis requires a pointed cone")
    n = sigma.ambient_dim
    d = sigma.dim
    if d == 0:
        return
    R = sigma.rays()
    if d < n:
        coords, B, _, _ = zl.lattice_split(sigma.generators, n)
        for v in _hilbert_basis_iter(cone([zl.mat_vec(coords, r) for r in R], d)):
            yield zl.mat_vec(B, v)
        return
    normals = sigma.facet_normals
    gens = sigma.generators
    candidates = {tuple(r) for r in R}
    for s in pulling_triangulation(sigma.zero_sets, sigma._ray_mask(), d):
        M = zl.from_columns([gens[i] for i in s], rows=d)
        candidates |= _parallelepiped_points(M, d)
    # c - a lies in sigma exactly when its values on the normals are >= 0
    graded = []
    for c in candidates:
        v = [sum(map(mul, m, c)) for m in normals]
        graded.append((sum(v), v, c))
    graded.sort()
    kept = []
    for g, v, c in graded:
        if not _reducible(g, v, kept):
            kept.append((g, v))
            yield c


def semigroup_member(gens, target):
    """Nonnegative integer coefficients c with sum c_i g_i = target.

    gens is a list of integer vectors spanning a pointed cone; returns
    None when target is not in the semigroup they generate. The search
    is depth first on an explicit stack, one frame per generator, trying
    each coefficient from its bound under a strictly positive functional
    on the cone down to 0; the first hit is returned.
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
    w = reduce(zl.vadd, span.facet_normals)
    weights = [zl.dot(w, g) for _, g in nonzero]
    if not span.contains(target):
        return None

    def choices(i, rem, wrem):
        g, weight = nonzero[i][1], weights[i]
        for c in range(wrem // weight, -1, -1):
            nrem = zl.vsub(rem, zl.vscale(c, g))
            if span.contains(nrem):
                yield c, nrem, wrem - c * weight

    # frames[i] yields the feasible coefficients of generator i given
    # coeffs[:i], and coeffs[i] holds the one being tried
    coeffs, frames = [0], [choices(0, target, zl.dot(w, target))]
    while frames:
        step = next(frames[-1], None)
        if step is None:
            frames.pop()
            coeffs.pop()
            continue
        coeffs[-1], rem, wrem = step
        if len(frames) < len(nonzero):
            coeffs.append(0)
            frames.append(choices(len(frames), rem, wrem))
        elif not any(rem):
            break
    else:
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
    """(pairs, lifted, coords, pi): plus/minus the lattice basis of
    sigma-perp, lifted Hilbert basis elements of the pointed part of the
    dual, and the coordinates in that basis and the quotient projection,
    from one ``zl.lattice_split`` of it. The basis is saturated, so it is
    the split's basis."""
    lin = sigma.dual_lineality
    coords, _, pi, lift = zl.lattice_split(lin, sigma.ambient_dim)
    pairs = []
    for b in lin:
        pairs.append(list(b))
        pairs.append([-x for x in b])
    # row by row, so that a projection onto Z^0 needs no special case
    proj_rays = [[zl.dot(p, r) for p in pi] for r in sigma.dual_rays]
    inner = hilbert_basis(cone(proj_rays, len(pi)))
    return pairs, [zl.mat_vec(lift, h) for h in inner.vectors], coords, pi


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
    return _decompose_over(_dual_semigroup_data(sigma), target)


def _decompose_over(data, target):
    """dual_semigroup_decompose with sigma's _dual_semigroup_data given,
    for callers that decompose many targets over one cone."""
    _, lifted, coords, pi = data
    coeffs = semigroup_member([[zl.dot(p, h) for p in pi] for h in lifted],
                              [zl.dot(p, target) for p in pi])
    if coeffs is None:
        return None
    # coords lift = 0, so coords target gives the lineality part
    out = []
    for x in (zl.dot(c, target) for c in coords):
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


def _separates(m, c1: Cone, c2: Cone) -> bool:
    """Whether m >= 0 on c1, m <= 0 on c2, and c1 and c2 meet m-perp in
    the same face, which is then c1 cap c2.

    The faces c1 cap m-perp and c2 cap m-perp are spanned by the tight
    generators of each cone, so they are equal exactly when every tight
    generator of either cone lies in the other cone.
    """
    if any(zl.dot(m, g) < 0 for g in c1.generators):
        return False
    if any(zl.dot(m, g) > 0 for g in c2.generators):
        return False
    return (all(c2.contains(g) for g in c1.generators if zl.dot(m, g) == 0)
            and all(c1.contains(g) for g in c2.generators if zl.dot(m, g) == 0))


def _relint_separator(c1: Cone, c2: Cone):
    """The sum of the extreme rays of dual(c1) cap -dual(c2), a point of
    its relative interior."""
    n = c1.ambient_dim
    constraints = [list(g) for g in c1.generators]
    constraints += [[-x for x in g] for g in c2.generators]
    _, rays, _ = halfspace_generators(constraints, n)
    m = [0] * n
    for r in rays:
        m = zl.vadd(m, r)
    return m


def meet_in_common_face(c1: Cone, c2: Cone) -> bool:
    """Whether c1 cap c2 is a face of both cones.

    By the separation lemma some m in dual(c1) cap -dual(c2) separates
    the cones exactly when they meet in a common face, and a point of
    the relative interior is tight on the fewest generators, so it is
    the one candidate to test.
    """
    if c1.ambient_dim != c2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    return _separates(_relint_separator(c1, c2), c1, c2)


def separating_character(c1: Cone, c2: Cone):
    """A character m with c1 cut by m-perp equal to c1 cap c2 and the
    same on the other side: m in dual(c1), -m in dual(c2).

    Tries the Hilbert basis of dual(c1) first, then a relative-interior
    point of dual(c1) cap -dual(c2). Raises ValueError when the
    intersection is not a common face; the relative-interior point
    decides that before any Hilbert basis is computed.
    """
    if c1.ambient_dim != c2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if c1 == c2:
        return [0] * c1.ambient_dim
    m = _relint_separator(c1, c2)
    if not _separates(m, c1, c2):
        raise ValueError("cones do not intersect in a common face")
    if c1.is_full_dim:
        for h in hilbert_basis(c1.dual()).vectors:
            if _separates(h, c1, c2):
                return h
    return m
