"""Polyhedral fans, normal fans, subdivisions, orbits, and the
combinatorial side of toric morphisms.

A fan is stored as a list of primitive ray vectors plus maximal cones
given as sorted tuples of 0-based ray indices; internally a cone is
its ray mask, bit i for rays[i]. Faces are derived on demand and never
stored. Lattice maps are plain integer matrices (lists of rows) mapping
the source lattice into the target lattice.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import and_, mul, or_

from . import cones as cn
from . import zlattice as zl


class Fan:
    """A fan, built in one of two ways. fan() takes rays and cones from
    outside, primitivizes and deduplicates them, and checks every
    condition of a fan, pairs of maximal cones included; use it for
    anything a user supplies. The library's own constructions (normal
    fans, star subdivisions, products, star quotients) are fans by a
    theorem and go through _trusted_fan(), which checks nothing. The
    constructor here trusts its arguments."""

    __slots__ = ("ambient_dim", "rays", "maximal_cones", "_max_objs")

    def __init__(self, ambient_dim, rays, maximal_cones, max_objs):
        self.ambient_dim = ambient_dim
        self.rays = rays
        self.maximal_cones = maximal_cones
        self._max_objs = max_objs

    def max_cone(self, index) -> cn.Cone:
        if not 0 <= index < len(self._max_objs):
            raise zl.IndexOutOfRangeError("maximal cone index out of range")
        return self._max_objs[index]

    def faces(self):
        """Every cone of the fan, as a dict: ray-index tuple -> dimension
        (the rank of its rays), read off the face masks of the maximal
        cones with no Cone built."""
        out = {}
        for I, c in zip(self.maximal_cones, self._max_objs):
            for Z in c.face_masks():
                ixs = _ray_indices(I, Z)
                if ixs not in out:
                    out[ixs] = zl.rank([self.rays[i] for i in ixs]) if ixs else 0
        return out

    def cone_of(self, indices) -> cn.Cone:
        ixs = _named_cone(self, indices)
        return cn.cone([self.rays[i] for i in ixs], self.ambient_dim)

    def __eq__(self, other):
        if not isinstance(other, Fan) or self.ambient_dim != other.ambient_dim:
            return False
        if sorted(map(tuple, self.rays)) != sorted(map(tuple, other.rays)):
            return False
        mine = {frozenset(tuple(self.rays[i]) for i in I) for I in self.maximal_cones}
        theirs = {frozenset(tuple(other.rays[i]) for i in I) for I in other.maximal_cones}
        return mine == theirs

    __hash__ = None

    def __repr__(self):
        return (f"Fan[{self.ambient_dim}]({len(self.rays)} rays, "
                f"{len(self.maximal_cones)} maximal cones)")


def fan(rays, maximal_cones, ambient: int) -> Fan:
    """Build and validate a fan.

    Rays are primitivized and deduplicated (indices are remapped when
    that happens). Rejected inputs: zero rays, non-pointed cones, a
    listed generator that is not an extremal ray of its cone, unused
    rays, one maximal cone inside another, and a pair of cones whose
    intersection is not a common face. Pair errors name the
    lexicographically first offending pair, counting from 1.

    Each pair is decided on the sign masks of the two cones over the
    rays (_sign_masks), read once per cone off the facet normals its own
    double description gave. One cone holds the other when the other's
    rays lie in its inside mask. A common face is first tried with one
    sum of facet normals (_meet_certified), which is a proof when it
    succeeds; only the pairs it does not settle run the double
    description of cones.meet_in_common_face, which decides them
    exactly.
    """
    n = ambient
    # dicts keep the rays and the cones in first-seen order
    index, remap = {}, []
    for r in rays:
        r = [int(x) for x in r]
        if len(r) != n:
            raise ValueError("ray length does not match the ambient dimension")
        remap.append(index.setdefault(tuple(zl.primitive(r)), len(index)))
    prim = [list(p) for p in index]
    sets = {}
    for I in maximal_cones:
        J = set()
        for i in I:
            i = int(i)
            if not 0 <= i < len(remap):
                raise ValueError(f"ray index {i} out of range")
            J.add(remap[i])
        sets[tuple(sorted(J))] = None
    if not sets:
        raise ValueError("a fan needs at least one cone")
    sets, objs = list(sets), []
    for k, J in enumerate(sets):
        c = cn.cone([prim[i] for i in J], n)
        if not c.is_pointed:
            raise ValueError(f"maximal cone {k + 1} is not pointed")
        if c._ray_mask() != (1 << len(J)) - 1:
            raise ValueError(f"maximal cone {k + 1} lists a non-extremal generator")
        objs.append(c)
    signs = [_sign_masks(c, J, prim) for J, c in zip(sets, objs)]
    unused = (1 << len(prim)) - 1 & ~reduce(or_, (own for own, _, _ in signs))
    if unused:
        i = (unused & -unused).bit_length()   # the lowest unused ray, counting from 1
        raise ValueError(f"ray {i} is not used by any maximal cone")
    for a in range(len(sets)):
        ra, _, ia = signs[a]
        for b in range(a + 1, len(sets)):
            rb, _, ib = signs[b]
            if not rb & ~ia or not ra & ~ib:
                raise ValueError(
                    f"maximal cone {a + 1} and maximal cone {b + 1} are nested")
            if (not _meet_certified(signs[a], signs[b])
                    and not cn.meet_in_common_face(objs[a], objs[b])):
                raise ValueError(
                    f"maximal cones {a + 1} and {b + 1} do not intersect in a common face")
    return Fan(n, prim, sets, objs)


def _sign_masks(c, J, rays):
    """(own, normals, inside): the sign masks of the cone c on the rays
    with indices J, as ray masks. own has the bits of J; normals has, for each facet normal u of c,
    the pair (N, Z) of the masks of the rays r with u.r <= 0 and with
    u.r = 0; and inside is the mask of the rays in c, those in Z or
    outside N for every u. Python's ints make ~N, and so inside, have
    every bit past the last ray set."""
    normals, inside = [], -1
    for u in c.facet_normals:
        d = [sum(map(mul, u, r)) for r in rays]
        N = sum(1 << i for i, x in enumerate(d) if x <= 0)
        Z = sum(1 << i for i, x in enumerate(d) if not x)
        normals.append((N, Z))
        inside &= Z | ~N
    return _mask(J), normals, inside


def _meet_certified(a, b):
    """Whether the sign masks a and b of two cones c1 and c2 prove that
    they meet in a common face. The normals of c1 that are <= 0 on the
    rays of c2, minus those of c2 that are <= 0 on the rays of c1, sum to
    some m in dual(c1) cap -dual(c2). Each summand is >= 0 on c1 and
    <= 0 on c2, so the rays tight on m are those in every summand's zero
    mask. The answer is True when these tight rays of either cone lie in
    both cones, which is what cones._separates(m, c1, c2) tests. False
    means only that this m does not separate them."""
    (ra, na, ia), (rb, nb, ib) = a, b
    tight = reduce(and_, [Z for N, Z in na if not rb & ~N]
                   + [Z for N, Z in nb if not ra & ~N], -1)
    return not (ra | rb) & tight & ~(ia & ib)


def _trusted_fan(rays, maximal_cones, ambient: int) -> Fan:
    """Fan of distinct primitive rays and maximal cones that the caller
    knows to form a fan, each cone listing exactly its extremal rays.
    Nothing is checked; fan() is the validating constructor."""
    sets = [tuple(sorted(J)) for J in maximal_cones]
    objs = [cn.cone([rays[i] for i in J], ambient) for J in sets]
    return Fan(ambient, rays, sets, objs)


def normal_fan(P) -> Fan:
    """Fan of inward facet normals; maximal cones indexed by vertices.
    Requires a full-dimensional polytope.

    The facet normals of a full-dimensional lattice polytope are
    distinct and primitive, and the normal cone of a vertex has the
    normals of the facets through it as its rays, so the result is a
    complete fan without validation (Cox-Little-Schenck, section 2.3)."""
    if not P.is_full_dim:
        raise ValueError("normal fan requires a full-dimensional polytope")
    rays = [list(u) for u, _ in P.facets]
    maximal = []
    for v in P.vertices:
        maximal.append([i for i, (u, a) in enumerate(P.facets)
                        if zl.dot(u, v) + a == 0])
    return _trusted_fan(rays, maximal, P.ambient_dim)


def is_smooth(F: Fan) -> bool:
    return all(c.is_smooth for c in F._max_objs)


def is_simplicial(F: Fan) -> bool:
    return all(c.is_simplicial for c in F._max_objs)


def _ray_indices(I, Z):
    """Ray indices of the face mask Z of the cone on the rays I: bit j is ray I[j]."""
    return tuple(i for j, i in enumerate(I) if Z >> j & 1)


def _mask(ixs):
    return sum(1 << i for i in ixs)


def _ridges(index_sets, cones):
    """Counter of the cones' facet masks, read off their zero sets. In a
    fan a ridge lies in a cone of one more dimension only as a facet,
    so this counts the cones holding each ridge."""
    return Counter(_mask(_ray_indices(I, Z)) for I, c in zip(index_sets, cones)
                   for Z in c.zero_sets)


def _smallest_cone(F: Fan, vectors):
    """Ray-index tuple of the smallest cone of F holding the vectors, or
    None when no cone does. Any maximal cone sigma that holds them gives
    it: the smallest face of sigma holding them lies in every cone that
    does, as a face of its intersection with sigma."""
    for I, c in zip(F.maximal_cones, F._max_objs):
        if all(map(c.contains, vectors)):
            return _ray_indices(I, c.smallest_face(vectors))
    return None


def _named_cone(F: Fan, indices):
    """The sorted ray indices, when they name a cone of F; else ValueError.
    The message counts the rays from 1, as the fan() messages and the
    command line do."""
    ixs = tuple(sorted(indices))
    in_range = all(0 <= i < len(F.rays) for i in ixs)
    if not in_range or _smallest_cone(F, [F.rays[i] for i in ixs]) != ixs:
        raise ValueError(
            f"ray indices {tuple(i + 1 for i in ixs)} do not name a cone of the fan")
    return ixs


def is_complete(F: Fan) -> bool:
    """Exact combinatorial completeness test: the fan is pure of top
    dimension and every ridge lies in exactly two maximal cones."""
    if any(c.dim < F.ambient_dim for c in F._max_objs):
        return False
    return all(k == 2 for k in _ridges(F.maximal_cones, F._max_objs).values())


def star_subdivision(F: Fan, index: int) -> Fan:
    """Replace the smooth full-dimensional maximal cone at the given
    position by the cones through the sum of its rays.

    The rays of sigma are a lattice basis, so their sum is primitive,
    and for n >= 2 it lies in the interior of sigma and is a new ray;
    for n = 1 it is sigma's own ray and the fan does not change. The
    result is a fan (Cox-Little-Schenck, section 3.3)."""
    sigma = F.max_cone(index)
    n = F.ambient_dim
    if sigma.dim != n or not sigma.is_smooth:
        raise ValueError("star subdivision needs a smooth full-dimensional cone")
    if n == 0:
        raise ValueError("star subdivision needs a cone of positive dimension")
    I = F.maximal_cones[index]
    new_rays = [list(r) for r in F.rays]
    if n == 1:
        star = I[0]
    else:
        u0 = [0] * n
        for i in I:
            u0 = zl.vadd(u0, F.rays[i])
        new_rays.append(u0)
        star = len(F.rays)
    new_max = [J for k, J in enumerate(F.maximal_cones) if k != index]
    for i in I:
        new_max.append([x for x in I if x != i] + [star])
    return _trusted_fan(new_rays, new_max, n)


def product_fan(F1: Fan, F2: Fan) -> Fan:
    """The fan of products sigma1 x sigma2 in the direct sum of the two
    lattices (Cox-Little-Schenck, section 3.1)."""
    n1, n2 = F1.ambient_dim, F2.ambient_dim
    rays = [list(r) + [0] * n2 for r in F1.rays]
    rays += [[0] * n1 + list(s) for s in F2.rays]
    k = len(F1.rays)
    maximal = [list(I) + [k + j for j in J]
               for I in F1.maximal_cones for J in F2.maximal_cones]
    return _trusted_fan(rays, maximal, n1 + n2)


def cone_containing_relint(F: Fan, u):
    """Ray-index tuple of the unique cone whose relative interior
    contains u, the smallest cone holding u, or None when u is outside
    the support."""
    return _smallest_cone(F, [u])


def star_quotient_fan(F: Fan, tau):
    """Fan of the orbit closure: images of the cones containing tau in
    the quotient lattice, together with the projection matrix.

    Distinct maximal cones containing tau have distinct pointed images
    that form a fan (Cox-Little-Schenck, section 3.2), so only the image
    rays are deduplicated. Each image cone is built once and kept on its
    rays, in index order."""
    tau = _named_cone(F, tau)
    n = F.ambient_dim
    if not tau:
        return F, zl.identity(n)
    _, pi = zl.lattice_coords([F.rays[i] for i in tau], n)
    d = n - len(pi)
    if d == n:
        return _trusted_fan([], [()], 0), pi
    t, index, new_max, objs = _mask(tau), {}, [], []
    for I in F.maximal_cones:
        if t & ~_mask(I):
            continue
        img = cn.cone([zl.mat_vec(pi, F.rays[i]) for i in I], n - d)
        extreme, at = img._ray_mask(), {}   # at: ray index -> position among img's generators
        for k, g in enumerate(img.generators):
            if extreme >> k & 1:
                at[index.setdefault(tuple(g), len(index))] = k
        new_max.append(tuple(sorted(at)))
        objs.append(img.on_generators([at[i] for i in new_max[-1]]))
    return Fan(n - d, [list(g) for g in index], new_max, objs), pi


def orbit_table(F: Fan):
    """(ray indices, orbit dimension, closure) for every cone, ordered
    by cone dimension then indices. The closure list names the cones
    whose orbits appear in the closure of this cone's orbit, i.e. the
    cones containing it."""
    dims = F.faces()
    order = sorted(dims, key=lambda I: (dims[I], I))
    masks = [_mask(I) for I in order]
    return [(I, F.ambient_dim - dims[I], [J for J, b in zip(order, masks) if not a & ~b])
            for I, a in zip(order, masks)]


def has_torus_factor(F: Fan) -> bool:
    return zl.rank([list(r) for r in F.rays]) < F.ambient_dim


def is_compatible(Fmat, F1: Fan, F2: Fan) -> bool:
    """Every cone image F(sigma1) must land inside some cone of F2."""
    return all(image_cone(Fmat, F2, c) is not None for c in F1._max_objs)


def image_cone(Fmat, F2: Fan, sigma1: cn.Cone):
    """Ray-index tuple of the minimal cone of F2 containing the image
    of sigma1, or None when no cone contains it."""
    if len(Fmat) != F2.ambient_dim or any(len(row) != sigma1.ambient_dim for row in Fmat):
        raise ValueError("lattice map shape does not match the ambient dimensions")
    # row by row, so that a map into Z^0 (no rows) sends g to []
    return _smallest_cone(F2, [[zl.dot(row, g) for row in Fmat] for g in sigma1.generators])


def is_refinement(Fprime: Fan, F: Fan) -> bool:
    """Does every cone of Fprime sit inside a cone of F, with equal
    supports? Support equality is checked per maximal cone of F by
    ridge-pairing of the Fprime cones tiling it."""
    if Fprime.ambient_dim != F.ambient_dim:
        raise ValueError("ambient dimensions differ")
    holds = [[c.contains_cone(m) for m in Fprime._max_objs] for c in F._max_objs]
    if not all(map(any, zip(*holds))):
        return False
    for c, row in zip(F._max_objs, holds):
        members = [(I, m) for I, m, h in zip(Fprime.maximal_cones, Fprime._max_objs, row)
                   if h and m.dim == c.dim]
        if not members:
            return False
        for R, k in _ridges(*zip(*members)).items():
            x = reduce(zl.vadd, (r for i, r in enumerate(Fprime.rays) if R >> i & 1),
                       [0] * F.ambient_dim)
            if k != (2 if c.contains_in_relint(x) else 1):
                return False
    return True


def chart_transition(F: Fan, index1: int, index2: int):
    """Gluing data between two maximal charts: the separating character
    m and, per dual semigroup generator h of the second cone, the
    exponent row writing chi^h as a Laurent monomial in the first
    chart's generators and chi^(-m) (last column)."""
    s1 = F.max_cone(index1)
    s2 = F.max_cone(index2)
    m = cn.separating_character(s1, s2)
    data1 = cn._dual_semigroup_data(s1)
    rows = []
    for h in cn.dual_semigroup_generators(s2):
        c = 0
        for g in s1.generators:
            mg = zl.dot(m, g)
            hg = zl.dot(h, g)
            if mg > 0 and hg < 0:
                c = max(c, (-hg + mg - 1) // mg)
        coeffs = cn._decompose_over(data1, zl.vadd(h, zl.vscale(c, m)))
        if coeffs is None:
            raise AssertionError("transition monomial escaped the source chart")
        rows.append(list(coeffs) + [c])
    return m, rows
