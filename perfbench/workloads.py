"""Case families of the benchmark workloads.

A case is a family name plus a JSON input. ``run_case`` calls the library
on the input and returns what a caller gets back; ``canonical`` turns that
into a JSON value that is unique mathematically (volumes, Ehrhart
coefficients, sorted Hilbert bases, reduced Groebner bases, SNF diagonals,
HNFs, group presentations, sorted lattice points, primitive collections),
so it can be compared with the reference recorded at the seed commit.
Kernel bases and Smith transforms are not unique: for those only the rank
and the defining equation are checked.

Canonical forms read attributes and use plain Python only. They call no
library function, so tracing sees no spans outside the timed call, and
they never format an integer with ``str()``: one 24x24 Smith transform
went past the interpreter's int-to-str digit limit.
"""

import hashlib
import io
import sys
from fractions import Fraction
from pathlib import Path

from toric_kernel import cli
from toric_kernel import cones as cn
from toric_kernel import cox as cx
from toric_kernel import divisors as dv
from toric_kernel import fans as fn
from toric_kernel import ideals as il
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

_SMALL = 1 << 62


def plain(x):
    """JSON value of nested ints, Fractions, bools and sequences.

    Integers past 62 bits travel as hex strings: hex formatting has no
    digit limit, unlike decimal.
    """
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    if isinstance(x, int):
        return x if -_SMALL < x < _SMALL else hex(x)
    if isinstance(x, Fraction):
        return [plain(x.numerator), plain(x.denominator)]
    if isinstance(x, float):
        return "inf" if x == float("inf") else x
    return [plain(v) for v in x]


def _poly(nvars, terms):
    return il.SparsePolynomial(nvars, {tuple(e): Fraction(p, q) for e, (p, q) in terms})


def _poly_key(g):
    return sorted([list(e), plain(c)] for e, c in g.terms.items())


def _group(pres):
    return [pres.free_rank, plain(pres.invariant_factors)]


def _normal_fan(inp):
    return fn.normal_fan(pt.hull(inp["points"]))


def _divisor(inp):
    return dv.divisor(_normal_fan(inp), inp["coeffs"])


def _run_cli(inp):
    argv = inp["command"].split() + [str(FIXTURES / f"{inp['name']}.json")]
    buf, old = io.StringIO(), sys.stdout
    sys.stdout = buf
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def _kernel_check(inp, K):
    M = inp["M"]
    cols = len(K[0]) if K else 0
    annihilates = all(sum(row[i] * K[i][j] for i in range(len(row))) == 0
                      for row in M for j in range(cols))
    return {"rank": cols, "annihilates": annihilates}


def _cli_check(inp, out):
    code, text = out
    return {"code": code, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


# family -> (run(input) -> output, canonical(input, output) -> JSON value)
FAMILIES = {
    # geometry
    "mixed_volume": (lambda i: pt.mixed_volume([pt.hull(p) for p in i["polys"]]),
                     lambda i, o: plain(o)),
    "volume": (lambda i: pt.volume(pt.hull(i["points"])),
               lambda i, o: plain(o)),
    "ehrhart": (lambda i: pt.ehrhart(pt.hull(i["points"])).coeffs,
                lambda i, o: plain(o)),
    "hilbert_basis": (lambda i: cn.hilbert_basis(cn.cone(i["gens"], i["dim"])).vectors,
                      lambda i, o: plain(sorted(map(list, o)))),
    # algebra
    "toric_ideal": (lambda i: il.toric_ideal(i["A"]),
                    lambda i, o: sorted(_poly_key(g) for g in o)),
    "membership": (lambda i: il.membership(_poly(i["nvars"], i["f"]),
                                           [_poly(i["nvars"], g) for g in i["gens"]]),
                   lambda i, o: o),
    "hilbert_function": (lambda i: il.hilbert_function(i["A"], i["d"]),
                         lambda i, o: plain(o)),
    # lattice
    "snf": (lambda i: zl.snf(i["M"])[0],
            lambda i, o: plain([o[k][k] for k in range(min(len(o), len(o[0])))])),
    "hnf": (lambda i: zl.hnf(i["M"])[0],
            lambda i, o: plain(o)),
    "kernel_basis": (lambda i: zl.kernel_basis(i["M"]), _kernel_check),
    "cokernel": (lambda i: zl.cokernel(i["M"])[0],
                 lambda i, o: _group(o)),
    "class_group": (lambda i: dv.class_group(_normal_fan(i))[0],
                    lambda i, o: _group(o)),
    "picard_group": (lambda i: dv.picard_group(_normal_fan(i)),
                     lambda i, o: _group(o)),
    "min_cartier": (lambda i: dv.minimal_cartier_multiple(_divisor(i)),
                    lambda i, o: plain(o)),
    "global_sections": (lambda i: dv.global_sections(_divisor(i)),
                        lambda i, o: plain(sorted(o))),
    "star_subdivision": (lambda i: fn.star_subdivision(_normal_fan(i), i["index"]),
                         lambda i, o: plain(sorted(sorted(o.rays[k] for k in c)
                                                   for c in o.maximal_cones))),
    "cox_data": (lambda i: cx.cox_data(_normal_fan(i)),
                 lambda i, o: {"group": _group(o.group),
                               "primitive": plain(o.primitive_collections),
                               "irrelevant": [_poly_key(g) for g in o.irrelevant_gens]}),
    # cli
    "cli": (_run_cli, _cli_check),
}


def run_case(family, inp):
    return FAMILIES[family][0](inp)


def canonical(family, inp, out):
    return FAMILIES[family][1](inp, out)
