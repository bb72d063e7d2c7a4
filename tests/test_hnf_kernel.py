"""The stacked, row-restricted column HNF against the kernel it replaced.

``zl._column_hnf`` runs each column operation once on the stack [H; U]
and only over the rows at and below the pivot row. U is not unique for
rank-deficient or non-square inputs, and kernels, cokernel projections
and Cox weights read it, so the transforms must match the old kernel's
(``old_column_hnf`` and ``old_snf`` in conftest) entry for entry, not
only up to a change of basis.
"""

import random

import pytest
from conftest import old_column_hnf, old_snf, within

from toric_kernel import zlattice as zl

BIG = 2 ** 70


def _matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def kernel_cases():
    rng = random.Random(7)
    cases = [("0x0", [])]
    cases += [(f"{r}x0", [[] for _ in range(r)]) for r in (1, 2, 3)]
    cases += [(f"1x{c}", _matrix(rng, 1, c)) for c in range(1, 7)]
    for kind, sizes in (("tall", [(5, 2), (7, 3), (6, 4), (9, 5)]),
                        ("wide", [(2, 5), (3, 7), (4, 6), (5, 9)]),
                        ("square", [(3, 3), (4, 4), (6, 6), (8, 8)])):
        cases += [(f"{kind}-{r}x{c}", _matrix(rng, r, c)) for r, c in sizes]
    for k in range(4):
        r, c = rng.randint(3, 6), rng.randint(2, 6)
        M = _matrix(rng, r, c)
        repeated = M + [list(M[rng.randrange(r)]) for _ in range(2)]
        rng.shuffle(repeated)
        zero_rows = [list(row) for row in M]
        zero_rows.insert(rng.randint(0, r), [0] * c)
        zero_rows.insert(0, [0] * c)
        zero_col = rng.randrange(c)
        zero_cols = [[0 if j == zero_col else x for j, x in enumerate(row)] + [0]
                     for row in M]
        u, v = _matrix(rng, 1, r)[0], _matrix(rng, 1, c)[0]
        rank_one = [[a * b for b in v] for a in u]
        cases += [(f"repeated-rows-{k}", repeated), (f"zero-rows-{k}", zero_rows),
                  (f"zero-cols-{k}", zero_cols), (f"rank-one-{k}", rank_one)]
    for k in range(3):
        n = rng.randint(2, 6)
        lower = [[-rng.randint(1, 9) if i == j else (rng.randint(-9, 9) if j < i else 0)
                  for j in range(n)] for i in range(n)]
        cases += [(f"negative-diagonal-{k}", lower),
                  (f"negated-{k}", [[-abs(x) for x in row]
                                    for row in _matrix(rng, n, n + k)])]
    cases.append(("minus-identity", [[-x for x in row] for row in zl.identity(4)]))
    for k, (r, c) in enumerate([(2, 2), (3, 4), (4, 3), (5, 5)]):
        near = [[rng.choice((-1, 1)) * BIG + rng.randint(-5, 5) for _ in range(c)]
                for _ in range(r)]
        mixed = [[rng.choice((x, rng.choice((-1, 1)) * BIG + x)) for x in row]
                 for row in _matrix(rng, r, c)]
        cases += [(f"near-2^70-{k}", near), (f"mixed-2^70-{k}", mixed)]
    # diagonals off the divisibility chain run snf's column repair
    for d in ((2, 3), (4, 6), (6, 10, 15), (12, 18, 8), (BIG, BIG + 1)):
        cases.append((f"diagonal-{'-'.join(map(str, d))}",
                      [[d[i] if i == j else 0 for j in range(len(d))]
                       for i in range(len(d))]))
    return cases


CASES = kernel_cases()
IDS = [name for name, _ in CASES]
MATRICES = [M for _, M in CASES]


def old_hnf(M):
    H = zl.copy_matrix(M)
    U = zl.identity(zl.shape(M)[1])
    old_column_hnf(H, U)
    return H, U


def test_the_cases_cover_every_family():
    names = " ".join(IDS)
    for family in ("0x0", "3x0", "1x6", "tall", "wide", "repeated-rows", "zero-rows",
                   "zero-cols", "negative-diagonal", "near-2^70", "diagonal-2-3"):
        assert family in names
    # a diagonal input that comes out changed went through snf's repair
    assert old_snf([[2, 0], [0, 3]])[0] == [[1, 0], [0, 6]]


@pytest.mark.parametrize("M", MATRICES, ids=IDS)
def test_hnf_identical(M):
    with within(5):
        assert zl.hnf(M) == old_hnf(M)


@pytest.mark.parametrize("M", MATRICES, ids=IDS)
def test_snf_identical(M):
    with within(5):
        assert zl.snf(M) == old_snf(M)


@pytest.mark.parametrize("M", MATRICES, ids=IDS)
def test_kernel_cokernel_and_split_identical(M, monkeypatch):
    n = zl.shape(M)[1]

    def outputs():
        return (zl.kernel_basis(M), zl.cokernel(M), zl.lattice_split(M, n),
                zl.lattice_split(zl.transpose(M), len(M)))

    with within(5):
        new = outputs()
    monkeypatch.setattr(zl, "_column_hnf", old_column_hnf)
    monkeypatch.setattr(zl, "snf", old_snf)
    assert new == outputs()
