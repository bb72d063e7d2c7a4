"""Fan construction without redundant double descriptions.

``fans.fan`` decides whether two maximal cones meet in a common face from
one double description, at a relative-interior point of
dual(c1) cap -dual(c2) (``cones.meet_in_common_face``);
``cones.separating_character`` tests its candidates with the same
predicate (``cones._separates``); and ``cones.halfspace_generators``
skips the kernel basis when the constraints have full rank. The oracles
below are the code these replaced: ``intersect`` plus two ``is_face_of``
per pair (also patched into ``fans.fan`` for the old ``fan()``), and
verbatim copies of the cone-equality ``separating_character`` and of the
Smith-transform kernel path of ``halfspace_generators``, which the HNF
path matches up to a change of lineality basis.
"""

from unittest import mock

import pytest
from conftest import pivot_snf, pointed_dual_rays, snf_kernel
from hypothesis import assume, given, seed, settings, strategies as st

from toric_kernel import cones as cn
from toric_kernel import fans as fn
from toric_kernel import zlattice as zl


def old_meet_in_common_face(c1, c2):
    tau = cn.intersect(c1, c2)
    return cn.is_face_of(tau, c1) and cn.is_face_of(tau, c2)


def old_fan(rays, maximal_cones, ambient):
    """``fans.fan`` deciding each pair with ``intersect`` plus two
    ``is_face_of``, as it did before."""
    with mock.patch.object(cn, "meet_in_common_face", old_meet_in_common_face):
        return fn.fan(rays, maximal_cones, ambient)


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
    n + 3 random vectors; the rays are the pool vectors some cone uses,
    so that most inputs reach the pairwise checks."""
    n = draw(st.integers(2, 3))
    rng = draw(st.randoms(use_true_random=False))
    pool = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n + 3)]
    pool = [v for v in pool if any(v)] or [[1] * n]
    cones = [rng.sample(range(len(pool)), min(len(pool), n))
             for _ in range(rng.randint(2, 5))]
    used = sorted({i for I in cones for i in I})
    pos = {i: k for k, i in enumerate(used)}
    return ([pool[i] for i in used],
            [[pos[i] for i in I] for I in cones], n)


def fan_outcome(make, rays, maximal, n):
    kind, F = outcome(make, rays, maximal, n)
    if kind == "error":
        return kind, F
    return kind, (F.rays, F.maximal_cones)


class TestFanValidation:
    @seed(424242)
    @settings(max_examples=300, deadline=None)
    @given(fan_inputs())
    def test_same_verdicts_and_messages(self, args):
        assert fan_outcome(fn.fan, *args) == fan_outcome(old_fan, *args)

    @pytest.mark.parametrize("rays, maximal, message", [
        ([[1, 0], [1, 2], [1, 1], [0, 1]], [[0, 1], [2, 3]],
         "maximal cones 1 and 2 do not intersect in a common face"),
        ([[1, 0], [0, 1], [-1, 0], [1, 1], [1, -1]], [[0, 1], [1, 2], [3, 4]],
         "maximal cones 1 and 3 do not intersect in a common face"),
        ([[1, 0], [0, 1], [1, 1]], [[0, 1], [2]],
         "maximal cone 1 and maximal cone 2 are nested"),
    ])
    def test_messages_name_the_first_pair(self, rays, maximal, message):
        for make in (fn.fan, old_fan):
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
