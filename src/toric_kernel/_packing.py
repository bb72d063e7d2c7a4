"""Packed monomials for the Buchberger engines of ``ideals``.

Within an engine call each monomial is one int with a field per variable
and a guard bit atop each field (``_Packing``), so divisibility, lcm,
support and rewriting are a few exact int operations. ``_LeadIndex``
answers "the first lead in list order that divides m" from the leads'
exponents, without a scan.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import reduce
from itertools import repeat
from operator import getitem, or_


class _Overflow(Exception):
    """A packed exponent reached the guard bit of its field."""


def _field_width(top: int) -> int:
    """Starting field width for exponents up to top: their bits and a guard bit, 8 at least."""
    return max(8, top.bit_length() + 1)


class _Packing(dict):
    """Exponent tuples packed into one int, ``width`` bits a variable, and
    the order keys of the packed monomials, each computed once.

    Variable 0 takes the highest field, so packed ints compare like their
    tuples. The top bit of each field is a guard bit, clear in a packed
    monomial (Bachmann-Schoenemann, ISSAC 1998): no field of (m | guard)
    - a borrows from the next, and its guard bit stays set iff a's
    exponent is at most m's. A monomial with a guard bit set raises
    _Overflow: it has outgrown the width.

    ``fields(m)`` reads the exponents of a packed monomial in variable
    order: one ``int.to_bytes`` when the fields are bytes, else a shift
    and a mask per field.
    """

    __slots__ = ("key", "width", "top", "shifts", "guard", "low", "fields")

    def __init__(self, nvars: int, width: int, key):
        super().__init__()
        top = (1 << width - 1) - 1
        shifts = tuple(range((nvars - 1) * width, -1, -width))
        ones = sum(1 << s for s in shifts)
        self.key, self.width, self.top, self.shifts = key, width, top, shifts
        self.guard, self.low = ones << width - 1, ones * top
        self.fields = ((lambda m: m.to_bytes(nvars, "big")) if width == 8 else
                       (lambda m: [m >> s & top for s in shifts]))

    def __missing__(self, m):
        k = self[m] = self.key(self.unpack(m))
        return k

    def pack(self, exps) -> int:
        if max(exps, default=0) > self.top:
            raise _Overflow
        return sum(e << s for e, s in zip(exps, self.shifts))

    def unpack(self, m: int) -> tuple:
        return tuple(self.fields(m))

    def divides(self, a: int, m: int) -> bool:
        return ((m | self.guard) - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        """Field-wise max: a where (a | guard) - b keeps the guard bit."""
        g = ((a | self.guard) - b) & self.guard
        return b ^ ((a ^ b) & (g - (g >> self.width - 1)))

    def support(self, a: int) -> int:
        """The guard bits of the fields where a is nonzero."""
        return (a + self.low) & self.guard


def _packed(run, exps: list, key):
    """run(P) for a _Packing under the order key that holds the input's
    exponent tuples exps; an _Overflow restarts run at twice the width."""
    width = _field_width(max(max(e, default=0) for e in exps))
    while True:
        try:
            return run(_Packing(len(exps[0]), width, key))
        except _Overflow:
            width *= 2


_SUCCESSOR = bytes(range(1, 256)) + b"\0"   # the byte table of x -> x + 1


class _LeadIndex:
    """Packed leads, numbered in the order they are added, and the first
    of them that divides a monomial: the question 4ti2 answers with a
    tree over the leads (Hemmecke-Malkin, *J. Symb. Comput.* 2009).

    ``cuts`` lists the distinct exponents of the leads, ascending, and
    ``over[j][r]`` is the bit mask of the leads whose exponent of variable
    j is at least cuts[r], 0 past the last cut. A lead divides m iff it is
    in none of the masks over[j][r_j], r_j the number of cuts at most m_j,
    so the lowest bit clear in their OR is the first lead that divides m.
    The lists grow with the number of distinct lead exponents, not with
    their size. ``ranks(m)`` reads every r_j at once: one
    ``bytes.translate`` through a table of the ranks of 0..255 when the
    fields are bytes, else a bisection of the cuts per field.
    """

    __slots__ = ("fields", "cuts", "over", "size", "table", "ranks")

    def __init__(self, P: _Packing, leads=()):
        fields, cuts = P.fields, []
        self.fields, self.cuts, self.size = fields, cuts, 0
        self.over = [[0] for _ in P.shifts]
        if P.width == 8:
            table = self.table = bytearray(256)
            self.ranks = lambda m: fields(m).translate(table)
        else:
            self.table = None
            self.ranks = lambda m: map(bisect_right, repeat(cuts), fields(m))
        for a in leads:
            self.add(a)

    def add(self, a: int):
        cuts, exps = self.cuts, self.fields(a)
        for e in exps:
            r = bisect_left(cuts, e)
            if r == len(cuts) or cuts[r] != e:
                cuts.insert(r, e)
                for row in self.over:
                    row.insert(r, row[r])
                if self.table is not None:
                    self.table[e:] = self.table[e:].translate(_SUCCESSOR)
        bit = 1 << self.size
        self.size += 1
        for row, e in zip(self.over, exps):
            for r in range(bisect_right(cuts, e)):
                row[r] |= bit

    def first(self, m: int) -> int:
        """The number of the first lead that divides m, or ``size`` if none does."""
        x = reduce(or_, map(getitem, self.over, self.ranks(m)))
        return ((x + 1) & ~x).bit_length() - 1
