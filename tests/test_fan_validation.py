"""Fan construction without redundant double descriptions.

``fans.fan`` decides each pair of maximal cones on ray-index sign masks
(``fans._sign_masks``): nesting from the cones' inside masks, and a
common face from a sum of facet normals m in dual(c1) cap -dual(c2)
whose tight rays are read off the zero masks; only the pairs that
certificate does not settle run one double description, at a
relative-interior point of dual(c1) cap -dual(c2)
(``cones.meet_in_common_face``). ``cones.separating_character`` tests
its candidates with the same predicate (``cones._separates``); and
``cones.halfspace_generators`` skips the kernel basis when the
constraints have full rank. The oracles below are the code these
replaced: ``pairwise_fan``, the pair loop of two ``contains_cone`` and
one ``meet_in_common_face`` on every pair; ``intersect`` plus two
``is_face_of`` per pair; and verbatim copies of the cone-equality
``separating_character`` and of the Smith-transform kernel path of
``halfspace_generators``, which the HNF path matches up to a change of
lineality basis.
"""

import random
from unittest import mock

import pytest
from conftest import pivot_snf, pointed_dual_rays, snf_kernel
from hypothesis import assume, given, seed, settings, strategies as st

from toric_kernel import cones as cn
from toric_kernel import fans as fn
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl


def old_meet_in_common_face(c1, c2):
    tau = cn.intersect(c1, c2)
    return cn.is_face_of(tau, c1) and cn.is_face_of(tau, c2)


def old_fan(rays, maximal_cones, ambient):
    """``fans.fan`` with ``intersect`` plus two ``is_face_of`` in place of
    ``meet_in_common_face``. That call is now only the fallback for the
    pairs the sign-mask certificate does not settle, so this is no
    oracle for ``fans.fan``; ``pairwise_fan`` is."""
    with mock.patch.object(cn, "meet_in_common_face", old_meet_in_common_face):
        return fn.fan(rays, maximal_cones, ambient)


def pairwise_fan(rays, maximal_cones, n):
    """``fans.fan`` as it was before the sign masks: the same checks, and
    on every pair of maximal cones two ``contains_cone`` scans and one
    ``meet_in_common_face``."""
    prim, remap = [], []
    for r in rays:
        r = [int(x) for x in r]
        if len(r) != n:
            raise ValueError("ray length does not match the ambient dimension")
        p = zl.primitive(r)
        if p in prim:
            remap.append(prim.index(p))
        else:
            remap.append(len(prim))
            prim.append(p)
    sets = []
    for I in maximal_cones:
        J = set()
        for i in I:
            i = int(i)
            if not 0 <= i < len(remap):
                raise ValueError(f"ray index {i} out of range")
            J.add(remap[i])
        J = tuple(sorted(J))
        if J not in sets:
            sets.append(J)
    if not sets:
        raise ValueError("a fan needs at least one cone")
    objs = []
    for k, J in enumerate(sets):
        c = cn.cone([prim[i] for i in J], n)
        if not c.is_pointed:
            raise ValueError(f"maximal cone {k + 1} is not pointed")
        if {tuple(r) for r in c.rays()} != {tuple(prim[i]) for i in J}:
            raise ValueError(f"maximal cone {k + 1} lists a non-extremal generator")
        objs.append(c)
    used = {i for J in sets for i in J}
    for i in range(len(prim)):
        if i not in used:
            raise ValueError(f"ray {i + 1} is not used by any maximal cone")
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            if objs[a].contains_cone(objs[b]) or objs[b].contains_cone(objs[a]):
                raise ValueError(
                    f"maximal cone {a + 1} and maximal cone {b + 1} are nested")
            if not cn.meet_in_common_face(objs[a], objs[b]):
                raise ValueError(
                    f"maximal cones {a + 1} and {b + 1} do not intersect in a common face")
    return fn.Fan(n, prim, sets, objs)


def old_separating_character(c1, c2):
    if c1.ambient_dim != c2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = c1.ambient_dim
    if c1 == c2:
        return [0] * n
    tau = cn.intersect(c1, c2)

    def cuts(m):
        if any(zl.dot(m, g) < 0 for g in c1.generators):
            return False
        if any(zl.dot(m, g) > 0 for g in c2.generators):
            return False
        t1 = cn.cone([g for g in c1.generators if zl.dot(m, g) == 0], n)
        t2 = cn.cone([g for g in c2.generators if zl.dot(m, g) == 0], n)
        return t1 == tau and t2 == tau

    if c1.is_full_dim:
        for h in cn.hilbert_basis(c1.dual()).vectors:
            if cuts(h):
                return h
    constraints = [list(g) for g in c1.generators]
    constraints += [[-x for x in g] for g in c2.generators]
    rays = cn.halfspace_generators(constraints, n)[1]
    m = [0] * n
    for r in rays:
        m = zl.vadd(m, r)
    if any(m) and cuts(m):
        return m
    raise ValueError("cones do not intersect in a common face")


def old_halfspace_generators(constraints, n):
    cons = [list(u) for u in constraints if any(u)]
    if not cons:
        return zl.columns(zl.identity(n)), []
    K = snf_kernel(cons)
    lin = zl.columns(K)
    ell = len(lin)
    if ell == 0:
        return [], pointed_dual_rays(cons, n)
    _, P, _ = pivot_snf(K)
    pi = [list(P[i]) for i in range(ell, n)]
    reduced = []
    for u in cons:
        c = zl.solve_integer(zl.transpose(pi), u)
        if c is None:
            raise ValueError("constraint outside the quotient lattice")
        reduced.append(c)
    rays_q = pointed_dual_rays(reduced, n - ell)
    Pinv = zl.hnf(P)[1]
    lifted = [zl.primitive(zl.mat_vec(Pinv, [0] * ell + list(r))) for r in rays_q]
    return lin, lifted


def outcome(f, *args):
    """f's result, or the message of the ValueError it raised."""
    try:
        return ("ok", f(*args))
    except ValueError as e:
        return ("error", str(e))


def vectors(n, lo=-3, hi=3):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n).filter(any)


@st.composite
def cone_pairs(draw, dims=(2, 4), box=3):
    """Two cones spanned by random subsets of one pool of n + 3 vectors,
    so that they share generators, facets or nothing; either may be
    lower-dimensional, non-pointed or the zero cone. Half the time the
    second cone also gets a sum of generators of the first, which makes
    them overlap."""
    n = draw(st.integers(*dims))
    rng = draw(st.randoms(use_true_random=False))
    pool = [[rng.randint(-box, box) for _ in range(n)] for _ in range(n + 3)]
    s1, s2 = (rng.sample(pool, rng.randint(0, n + 1)) for _ in range(2))
    if s1 and rng.random() < 0.5:
        s2.append([sum(col) for col in zip(*rng.sample(s1, rng.randint(1, len(s1))))])
    return cn.cone(s1, n), cn.cone(s2, n)


def C(*gens):
    return cn.cone([list(g) for g in gens], len(gens[0]))


# (c1, c2, whether they meet in a common face)
FIXED_PAIRS = [
    (C((1, 0), (0, 1)), C((1, 0), (0, -1)), True),        # share a facet
    (C((1, 0), (1, 2)), C((1, 1), (0, 1)), False),        # overlap
    (C((1, 0), (0, 1)), C((-1, 0), (0, -1)), True),       # meet only at 0
    (C((1, 0)), C((1, -1), (1, 1)), False),               # ray in the interior
    (C((1, -1), (1, 1)), C((1, 0)), False),
    (C((1, 0)), C((1, 0), (0, 1)), True),                 # a face of the other
    (C((1, 0)), C((-1, 0)), True),
    (C((1, 0), (-1, 0)), C((0, 1)), False),               # 0 is no face of a line
    (C((1, 0), (-1, 0)), C((1, 1)), False),
    (C((1, 0, 0), (0, 1, 0)), C((0, 0, 1), (1, 1, -1)), False),
    (C((1, 0, 0), (0, 1, 0), (0, 0, 1)), C((1, 1, 0), (0, 0, -1)), False),
    (C((1, 0, 0), (0, 1, 0), (0, 0, 1)), C((1, 0, 0), (0, 1, 0), (0, 0, -1)), True),
    (C((1, 0, 0), (0, 1, 0), (1, 1, 1)), C((1, 0, 0), (0, 1, 0), (1, 1, -1)), True),
    (C((1, 0, 0), (0, 1, 0), (1, 1, 1)), C((1, 1, 0), (1, 1, -1)), False),
]


class TestPairPredicate:
    @pytest.mark.parametrize("c1, c2, expected", FIXED_PAIRS)
    def test_fixed_pairs(self, c1, c2, expected):
        assert old_meet_in_common_face(c1, c2) == expected
        assert cn.meet_in_common_face(c1, c2) == expected
        assert cn.meet_in_common_face(c2, c1) == expected

    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(cone_pairs())
    def test_matches_intersect_and_is_face_of(self, pair):
        c1, c2 = pair
        assert cn.meet_in_common_face(c1, c2) == old_meet_in_common_face(c1, c2)

    @seed(7)
    @settings(max_examples=120, deadline=None)
    @given(cone_pairs(dims=(2, 3), box=3))
    def test_separating_character_unchanged(self, pair):
        c1, c2 = pair
        assert (outcome(cn.separating_character, c1, c2)
                == outcome(old_separating_character, c1, c2))

    def test_ambient_dimensions_must_agree(self):
        with pytest.raises(ValueError, match="ambient"):
            cn.meet_in_common_face(C((1, 0)), C((1, 0, 0)))


@st.composite
def fan_inputs(draw):
    """Two to five maximal cones of n rays each drawn from a pool of
    n + 3 random vectors. The rays are the pool vectors some cone uses,
    in random order, and so most inputs reach the pairwise checks. A
    quarter of the inputs also list the unused pool vectors, and some
    used vectors are listed a second time as a positive multiple, which
    a cone may name in place of the vector itself."""
    n = draw(st.integers(2, 3))
    rng = draw(st.randoms(use_true_random=False))
    pool = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n + 3)]
    pool = [v for v in pool if any(v)] or [[1] * n]
    cones = [rng.sample(range(len(pool)), min(len(pool), n))
             for _ in range(rng.randint(2, 5))]
    used = sorted({i for I in cones for i in I})
    listed = [(i, 1) for i in (range(len(pool)) if rng.random() < 0.25 else used)]
    listed += [(i, rng.randint(2, 3)) for i in used if rng.random() < 0.3]
    rng.shuffle(listed)
    pos = {}   # pool index -> the positions that list it
    for k, (i, _) in enumerate(listed):
        pos.setdefault(i, []).append(k)
    return ([[s * x for x in pool[i]] for i, s in listed],
            [[rng.choice(pos[i]) for i in I] for I in cones], n)


def fan_outcome(make, rays, maximal, n):
    kind, F = outcome(make, rays, maximal, n)
    if kind == "error":
        return kind, F
    return kind, (F.rays, F.maximal_cones)


def seeded_fans(count):
    """(rays, maximal cones, n) for 2 * count inputs: the normal fans of
    random full-dimensional 2-, 3- and 4-polytopes, each followed by a
    copy in which one ray g of one cone is tilted to 2g + h, h a ray
    outside that cone, so that the cone overlaps a neighbour."""
    for s in range(count):
        rng = random.Random(s)
        n = 2 + s % 3
        while True:
            P = pt.hull([[rng.randint(-3, 3) for _ in range(n)]
                         for _ in range(n + rng.randint(2, 5))])
            if P.is_full_dim:
                break
        F = fn.normal_fan(P)
        rays = F.rays
        yield rays, [list(I) for I in F.maximal_cones], n
        cones = [list(I) for I in F.maximal_cones]
        j = rng.randrange(len(cones))
        g = rng.choice(cones[j])
        h = rng.choice([i for i in range(len(rays)) if i not in cones[j]])
        cones[j] = [i for i in cones[j] if i != g] + [len(rays)]
        yield rays + [zl.vadd(zl.vscale(2, rays[g]), rays[h])], cones, n


SEEDED_FANS = list(seeded_fans(120))


class TestFanValidation:
    @seed(424242)
    @settings(max_examples=300, deadline=None)
    @given(fan_inputs())
    def test_same_verdicts_and_messages(self, args):
        assert fan_outcome(fn.fan, *args) == fan_outcome(pairwise_fan, *args)
        assert fan_outcome(fn.fan, *args) == fan_outcome(old_fan, *args)

    def test_seeded_normal_fans_and_overlaps(self):
        verdicts = []
        for args in SEEDED_FANS:
            got = fan_outcome(fn.fan, *args)
            assert got == fan_outcome(pairwise_fan, *args), args
            verdicts.append(got[0] if got[0] == "ok" else got[1].split()[-1])
        # every normal fan is a fan; the overlaps reach both pair checks
        assert len(verdicts) == 240
        assert verdicts[::2] == ["ok"] * 120
        assert verdicts.count("face") >= 60 and verdicts.count("nested") >= 5

    def test_certificate_is_the_separation_test(self):
        """On every pair of cones of the seeded inputs, _meet_certified
        answers cones._separates(m, c1, c2) for m the sum it describes,
        and then the cones meet in a common face."""
        certified = 0
        for rays, cones, n in SEEDED_FANS:
            rays = [zl.primitive(r) for r in rays]
            objs = [cn.cone([rays[i] for i in I], n) for I in cones]
            signs = [fn._sign_masks(c, I, rays) for I, c in zip(cones, objs)]
            for a in range(len(cones)):
                for b in range(a + 1, len(cones)):
                    (ra, na, _), (rb, nb, _) = signs[a], signs[b]
                    m = [0] * n
                    for u, (N, _) in zip(objs[a].facet_normals, na):
                        if not rb & ~N:
                            m = zl.vadd(m, u)
                    for v, (N, _) in zip(objs[b].facet_normals, nb):
                        if not ra & ~N:
                            m = zl.vsub(m, v)
                    ok = fn._meet_certified(signs[a], signs[b])
                    assert ok == cn._separates(m, objs[a], objs[b])
                    if ok:
                        certified += 1
                        assert cn.meet_in_common_face(objs[a], objs[b])
        assert certified >= 3000

    def test_sign_masks_match_dot_products(self):
        for rays, cones, n in SEEDED_FANS[:40]:
            rays = [zl.primitive(r) for r in rays]
            for I in cones:
                c = cn.cone([rays[i] for i in I], n)
                own, normals, inside = fn._sign_masks(c, I, rays)
                assert own == sum(1 << i for i in set(I))
                bits = range(len(rays))
                assert [([i for i in bits if N >> i & 1], [i for i in bits if Z >> i & 1])
                        for N, Z in normals] == [
                    ([i for i in bits if zl.dot(u, rays[i]) <= 0],
                     [i for i in bits if zl.dot(u, rays[i]) == 0])
                    for u in c.facet_normals]
                assert [i for i in bits if inside >> i & 1] == [
                    i for i in bits if c.contains(rays[i])]

    @pytest.mark.parametrize("rays, maximal, message", [
        ([[1, 0], [1, 2], [1, 1], [0, 1]], [[0, 1], [2, 3]],
         "maximal cones 1 and 2 do not intersect in a common face"),
        ([[1, 0], [0, 1], [-1, 0], [1, 1], [1, -1]], [[0, 1], [1, 2], [3, 4]],
         "maximal cones 1 and 3 do not intersect in a common face"),
        ([[1, 0], [0, 1], [1, 1]], [[0, 1], [2]],
         "maximal cone 1 and maximal cone 2 are nested"),
    ])
    def test_messages_name_the_first_pair(self, rays, maximal, message):
        for make in (fn.fan, pairwise_fan, old_fan):
            with pytest.raises(ValueError) as err:
                make(rays, maximal, 2)
            assert str(err.value) == message


@st.composite
def constraint_sets(draw, full_rank):
    """Rows u in Z^n: random rows for full rank, or integer combinations
    of r < n random vectors for a rank-deficient set."""
    n = draw(st.integers(1, 4))
    if full_rank:
        rows = draw(st.lists(vectors(n), min_size=n, max_size=n + 4))
    else:
        r = draw(st.integers(0, n - 1))
        basis = draw(st.lists(vectors(n), min_size=r, max_size=r))
        coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r),
                               min_size=1, max_size=n + 3))
        rows = [[sum(c * b[i] for c, b in zip(cs, basis)) for i in range(n)]
                for cs in coeffs]
    return rows, n


class TestHalfspaceShortcut:
    @seed(31337)
    @settings(max_examples=200, deadline=None)
    @given(constraint_sets(full_rank=True))
    def test_full_rank_matches_kernel_path(self, args):
        rows, n = args
        assume(zl.rank(rows) == n)
        assert cn.halfspace_generators(rows, n)[:2] == old_halfspace_generators(rows, n)

    @seed(1729)
    @settings(max_examples=200, deadline=None)
    @given(constraint_sets(full_rank=False))
    def test_rank_deficient_matches_kernel_path(self, args):
        rows, n = args
        lin, rays, _ = cn.halfspace_generators(rows, n)
        assert lin  # the kernel path ran
        old_lin, old_rays = old_halfspace_generators(rows, n)
        # the same lineality lattice, in another basis
        L, old_L = zl.from_columns(lin, rows=n), zl.from_columns(old_lin, rows=n)
        assert all(zl.solve_integer(L, b) is not None for b in old_lin)
        assert all(zl.solve_integer(old_L, b) is not None for b in lin)
        # the same rays modulo that lattice, one to one
        matches = [[j for j, s in enumerate(old_rays)
                    if zl.solve_integer(L, zl.vsub(r, s)) is not None]
                   for r in rays]
        assert sorted(matches) == [[j] for j in range(len(old_rays))]
