"""Command line front end: JSON requests in, JSON results out.

Usage: toric-kernel [--pretty] <group> <subcommand> [request-file]

The request is read from the file argument, or from standard input
when no file is given. It is a JSON object

    {"schema": 1, "command": "<group> <subcommand>", "payload": {...}}

where "command" is optional but must match the invoked subcommand when
present. The result is a single JSON object on standard output with
the same "schema" tag. Exit codes: 0 on success, 1 when a library
precondition fails (the "error" field carries the message), 2 when the
request violates the schema (the "path" field carries a JSON pointer
to the offending node; it is "" for a request that cannot be read at
all: not UTF-8, not JSON, nested too deeply for the parser, or with a
number literal past the interpreter's digit limit), 3 on an internal
error, a bug (the "error" field names the exception, the traceback goes
to standard error).

Conventions shared by every subcommand:

- integers of any magnitude travel as decimal strings; small schema
  conveniences aside, requests may also use plain JSON numbers;
- rationals travel as "p/q" strings ("p" when the denominator is 1);
- matrices are arrays of integer arrays in row-major order;
- ray, cone and vertex indices are 1-based in requests and responses;
- polytopes are {"points": [[...], ...]} (the convex hull is taken);
- cones are {"generators": [[...], ...]} with optional "ambient" and
  an optional "dual" flag that replaces the cone by its dual first;
- fans are {"rays": [[...], ...], "max_cones": [[1-based], ...]} with
  optional "ambient";
- divisors ride along their fan as {"fan": {...}, "coeffs": [...]};
- polynomials are {"terms": [{"exp": [...], "coeff": "p/q"}, ...]}
  with an optional "nvars" for the zero polynomial; Laurent exponents
  may be negative.

Output key order is alphabetical and every list is either sorted or in
a documented deterministic order, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import inf

from . import cones as cn
from . import counting as ct
from . import cox as cx
from . import divisors as dv
from . import fans as fn
from . import ideals as il
from . import polytopes as pt


class SchemaError(Exception):
    """Request rejected before dispatch; path is a JSON pointer."""

    def __init__(self, message, path):
        super().__init__(message)
        self.path = path


_P = "/payload"

_HANDLERS = {}


def _command(name):
    def register(handler):
        _HANDLERS[name] = handler
        return handler
    return register


# -- request readers -----------------------------------------------------
#
# A reader takes a JSON node and its JSON pointer and raises SchemaError
# at that pointer; field() and read_array() hand each child its own
# pointer, so no caller spells one.

_REQUIRED = object()


def field(node, key, read, *args, path=_P, default=_REQUIRED,
          missing="missing required field"):
    """Field `key` of the object at `path`, read by read(value, pointer,
    *args); when it is absent, `default` if one is given, else a schema
    error at its pointer that says `missing`."""
    if not isinstance(node, dict):
        raise SchemaError("expected a JSON object", path)
    if key in node:
        return read(node[key], f"{path}/{key}", *args)
    if default is _REQUIRED:
        raise SchemaError(f"{missing} '{key}'", f"{path}/{key}")
    return default


def read_array(node, path, read_item, what, *args) -> list:
    """Item i of an array read by read_item(item, path/i, *args); `what`
    names the items in the error when the node is not an array."""
    if not isinstance(node, list):
        raise SchemaError(f"expected an array of {what}", path)
    return [read_item(x, f"{path}/{i}", *args) for i, x in enumerate(node)]


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(s: str):
    """The int an ASCII decimal string spells, else None; int() alone also
    takes underscores, surrounding whitespace and non-ASCII digits."""
    if _DECIMAL.fullmatch(s):
        try:
            return int(s)
        except ValueError:     # past int()'s digit limit
            pass
    return None


def read_int(node, path) -> int:
    if isinstance(node, int) and not isinstance(node, bool):
        return node
    if isinstance(node, str) and (n := _decimal(node)) is not None:
        return n
    raise SchemaError("expected an integer or a decimal string", path)


def read_natural(node, path, what) -> int:
    n = read_int(node, path)
    if n < 0:
        raise SchemaError(f"{what} must be nonnegative", path)
    return n


def read_rational(node, path) -> Fraction:
    if isinstance(node, int) and not isinstance(node, bool):
        return Fraction(node)
    if isinstance(node, str):
        num, slash, den = node.partition("/")
        p, q = _decimal(num), _decimal(den) if slash else 1
        if p is not None and q:
            return Fraction(p, q)
    raise SchemaError("expected a rational 'p/q' string or an integer", path)


def read_bool(node, path) -> bool:
    if not isinstance(node, bool):
        raise SchemaError("expected a boolean", path)
    return node


def read_vector(node, path, length=None, per=None, read_item=read_int) -> list:
    """An array of integers; when `length` is given, one per `per`."""
    v = read_array(node, path, read_item, "integers")
    if length is not None and len(v) != length:
        raise SchemaError(f"expected {length} integers, one per {per}", path)
    return v


def read_matrix(node, path, allow_empty=False) -> list:
    rows = read_array(node, path, read_vector, "integer arrays")
    if not rows and not allow_empty:
        raise SchemaError("expected at least one row", path)
    if len({len(r) for r in rows}) > 1:
        raise SchemaError("rows have unequal lengths", path)
    return rows


def read_index(node, path, count, what) -> int:
    """A 1-based index in 1..count, returned 0-based."""
    k = read_int(node, path)
    if not 1 <= k <= count:
        raise SchemaError(f"{what} index {k} out of range 1..{count}", path)
    return k - 1


def read_ray_indices(node, path, count) -> list:
    return read_array(node, path, read_index, "1-based ray indices", count,
                      "ray")


def _read_ambient(node, path, vectors, what) -> int:
    """An explicit nonnegative 'ambient', else the length of the first
    vector; `what` names the object in the error when there is neither."""
    return field(node, "ambient", read_natural, "ambient dimension", path=path,
                 default=len(vectors[0]) if vectors else _REQUIRED,
                 missing=f"{what} needs an explicit")


def _fan_fields(node, path):
    if not isinstance(node, dict):
        raise SchemaError("expected a fan object with 'rays' and 'max_cones'",
                          path)
    rays = field(node, "rays", read_matrix, True, path=path)
    ambient = _read_ambient(node, path, rays, "a fan without rays")
    cones = field(node, "max_cones", read_array, read_ray_indices,
                  "ray-index arrays", len(rays), path=path)
    return rays, cones, ambient


def read_fan(node, path) -> fn.Fan:
    rays, cones, ambient = _fan_fields(node, path)
    return fn.fan(rays, cones, ambient)


def read_polytope(p, path) -> pt.LatticePolytope:
    return pt.hull(field(p, "points", read_matrix, path=path))


def read_polytopes(node, path) -> list:
    polytopes = read_array(node, path, read_polytope, "polytopes")
    if not polytopes:
        raise SchemaError("expected a nonempty array of polytopes", path)
    return polytopes


def read_cone_payload(p) -> cn.Cone:
    gens = field(p, "generators", read_matrix, True)
    c = cn.cone(gens, _read_ambient(p, _P, gens, "a cone without generators"))
    return c.dual() if field(p, "dual", read_bool, default=False) else c


def read_payload_divisor(p) -> dv.TorusInvariantDivisor:
    F = field(p, "fan", read_fan)
    return dv.divisor(F, field(p, "coeffs", read_vector, len(F.rays), "ray"))


def _read_terms(node, path, read_exponent):
    if not isinstance(node, dict):
        raise SchemaError("expected a polynomial object with 'terms'", path)
    nvars = field(node, "nvars", read_natural, "nvars", path=path, default=None)
    terms = {}

    def read_term(t, tpath):
        # the first exponent fixes nvars when 'nvars' is absent
        nonlocal nvars
        exp = tuple(field(t, "exp", read_vector, nvars, "variable",
                          read_exponent, path=tpath))
        nvars = len(exp)
        coeff = field(t, "coeff", read_rational, path=tpath)
        terms[exp] = terms.get(exp, Fraction(0)) + coeff

    field(node, "terms", read_array, read_term, "terms", path=path)
    if nvars is None:
        raise SchemaError("cannot infer the number of variables; "
                          "give 'nvars'", path)
    return nvars, terms


def read_laurent(node, path) -> il.LaurentPolynomial:
    return il.LaurentPolynomial(*_read_terms(node, path, read_int))


def read_sparse(node, path, nvars=None) -> il.SparsePolynomial:
    """A polynomial with nonnegative exponents, in `nvars` variables (those
    of 'f' in ideal member) when that is given."""
    f = il.SparsePolynomial(*_read_terms(
        node, path, lambda e, q: read_natural(e, q, "exponents")))
    if nvars is not None and f.nvars != nvars:
        raise SchemaError(f"expected a polynomial in {nvars} variables, "
                          "like 'f'", path)
    return f


# -- result writers ------------------------------------------------------

def _digits(n: int) -> str:
    """Decimal digits of n, also past the interpreter's int-to-str digit
    limit: numbers of more than 2,000 bits (602 digits, under the lowest
    limit that can be set) are split by divmod by 10^k, k about half the
    digit count, and the low half is zero-padded to k digits."""
    if n.bit_length() <= 2000:
        return str(n)
    if n < 0:
        return "-" + _digits(-n)
    k = n.bit_length() * 3 // 20
    hi, lo = divmod(n, 10 ** k)
    return _digits(hi) + _digits(lo).zfill(k)


def w_int(x) -> str:
    return _digits(int(x))


def w_rat(q) -> str:
    if q.denominator == 1:
        return _digits(q.numerator)
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


def w_vec(v) -> list:
    return [w_int(x) for x in v]


def w_mat(M) -> list:
    return [w_vec(r) for r in M]


def w_indices(I) -> list:
    return [w_int(i + 1) for i in I]


def w_fan(F) -> dict:
    return {"ambient": w_int(F.ambient_dim),
            "rays": w_mat(F.rays),
            "max_cones": [w_indices(I) for I in F.maximal_cones]}


def w_group(G) -> dict:
    return {"free_rank": w_int(G.free_rank),
            "invariant_factors": w_vec(G.invariant_factors)}


def w_poly(f) -> dict:
    terms = [{"exp": w_vec(e), "coeff": w_rat(c)}
             for e, c in sorted(f.terms.items())]
    return {"polynomial": il.format_polynomial(f), "terms": terms}


def _w_halfspaces(pairs) -> list:
    return [{"normal": w_vec(u), "offset": w_int(a)} for u, a in pairs]


# -- cone ----------------------------------------------------------------

@_command("cone dual")
def _cone_dual(p):
    c = read_cone_payload(p).dual()
    gens = c.rays() if c.is_pointed else c.generators
    return {"generators": w_mat(sorted(gens))}


@_command("cone rays")
def _cone_rays(p):
    return {"rays": w_mat(sorted(read_cone_payload(p).rays()))}


@_command("cone hilbert-basis")
def _cone_hilbert_basis(p):
    basis = cn.hilbert_basis(read_cone_payload(p))
    return {"elements": w_mat(basis.vectors)}


@_command("cone is-smooth")
def _cone_is_smooth(p):
    return {"value": read_cone_payload(p).is_smooth}


@_command("cone is-simplicial")
def _cone_is_simplicial(p):
    return {"value": read_cone_payload(p).is_simplicial}


@_command("cone faces")
def _cone_faces(p):
    faces = read_cone_payload(p).faces()
    return {"faces": [{"dim": w_int(f.dim),
                       "generators": w_mat(sorted(f.generators))}
                      for f in faces]}


# -- polytope ------------------------------------------------------------

@_command("polytope facets")
def _polytope_facets(p):
    P = read_polytope(p, _P)
    return {"vertices": w_mat(P.vertices),
            "inequalities": _w_halfspaces(P.facets),
            "equations": _w_halfspaces(P.equations)}


@_command("polytope lattice-points")
def _polytope_lattice_points(p):
    return {"points": w_mat(pt.lattice_points(read_polytope(p, _P)))}


@_command("polytope volume")
def _polytope_volume(p):
    return {"volume": w_rat(pt.volume(read_polytope(p, _P)))}


@_command("polytope normalized-volume")
def _polytope_normalized_volume(p):
    return {"value": w_int(pt.normalized_volume(read_polytope(p, _P)))}


@_command("polytope ehrhart")
def _polytope_ehrhart(p):
    poly = pt.ehrhart(read_polytope(p, _P))
    return {"coeffs": [w_rat(c) for c in poly.coeffs]}


@_command("polytope minkowski")
def _polytope_minkowski(p):
    total = None
    for Q in field(p, "summands", read_polytopes):
        total = Q if total is None else pt.minkowski_sum(total, Q)
    return {"vertices": w_mat(total.vertices)}


@_command("polytope mixed-volume")
def _polytope_mixed_volume(p):
    polytopes = field(p, "polytopes", read_polytopes)
    return {"value": w_int(pt.mixed_volume(polytopes))}


@_command("polytope is-normal")
def _polytope_is_normal(p):
    return {"value": pt.is_normal(read_polytope(p, _P))}


@_command("polytope is-very-ample")
def _polytope_is_very_ample(p):
    return {"value": pt.is_very_ample(read_polytope(p, _P))}


@_command("polytope project-full")
def _polytope_project_full(p):
    Q, (origin, embedding) = pt.project_full(read_polytope(p, _P))
    return {"vertices": w_mat(Q.vertices),
            "origin": w_vec(origin),
            "embedding": w_mat(embedding)}


# -- fan -----------------------------------------------------------------

@_command("fan validate")
def _fan_validate(p):
    rays, cones, ambient = field(p, "fan", _fan_fields)
    try:
        F = fn.fan(rays, cones, ambient)
    except ValueError as e:
        return {"valid": False, "reason": str(e)}
    return {"valid": True, "fan": w_fan(F)}


@_command("fan normal-fan")
def _fan_normal_fan(p):
    return {"fan": w_fan(fn.normal_fan(read_polytope(p, _P)))}


@_command("fan is-complete")
def _fan_is_complete(p):
    return {"value": fn.is_complete(field(p, "fan", read_fan))}


@_command("fan is-smooth")
def _fan_is_smooth(p):
    return {"value": fn.is_smooth(field(p, "fan", read_fan))}


@_command("fan is-simplicial")
def _fan_is_simplicial(p):
    return {"value": fn.is_simplicial(field(p, "fan", read_fan))}


@_command("fan star-subdivide")
def _fan_star_subdivide(p):
    F = field(p, "fan", read_fan)
    k = field(p, "cone_index", read_index, len(F.maximal_cones),
              "maximal cone")
    return {"fan": w_fan(fn.star_subdivision(F, k))}


@_command("fan product")
def _fan_product(p):
    F1, F2 = field(p, "first", read_fan), field(p, "second", read_fan)
    return {"fan": w_fan(fn.product_fan(F1, F2))}


@_command("fan limit-cone")
def _fan_limit_cone(p):
    F = field(p, "fan", read_fan)
    v = field(p, "point", read_vector, F.ambient_dim, "coordinate")
    I = fn.cone_containing_relint(F, v)
    return {"cone": None if I is None else w_indices(I)}


@_command("fan star-quotient")
def _fan_star_quotient(p):
    F = field(p, "fan", read_fan)
    tau = field(p, "cone", read_ray_indices, len(F.rays))
    G, projection = fn.star_quotient_fan(F, tau)
    return {"fan": w_fan(G), "projection": w_mat(projection)}


@_command("fan orbits")
def _fan_orbits(p):
    table = fn.orbit_table(field(p, "fan", read_fan))
    return {"orbits": [{"cone": w_indices(I),
                        "orbit_dim": w_int(d),
                        "closure": [w_indices(J) for J in closure]}
                       for I, d, closure in table]}


@_command("fan compatible")
def _fan_compatible(p):
    A = field(p, "map", read_matrix, True)
    F1, F2 = field(p, "source", read_fan), field(p, "target", read_fan)
    return {"value": fn.is_compatible(A, F1, F2)}


# -- ideal ---------------------------------------------------------------

@_command("ideal toric")
def _ideal_toric(p):
    A = field(p, "matrix", read_matrix)
    return {"generators": [w_poly(g) for g in il.toric_ideal(A)]}


@_command("ideal member")
def _ideal_member(p):
    f = field(p, "f", read_sparse)
    gens = field(p, "generators", read_array, read_sparse, "polynomials",
                 f.nvars)
    return {"value": il.membership(f, gens)}


@_command("ideal hilbert-function")
def _ideal_hilbert_function(p):
    A = field(p, "matrix", read_matrix)
    degrees = field(p, "degrees", read_array, read_natural, "integers",
                    "degrees")
    return {"values": [w_int(v) for v in il.hilbert_function_values(A, degrees)]}


# -- divisor -------------------------------------------------------------

@_command("divisor class-group")
def _divisor_class_group(p):
    presentation, _ = dv.class_group(field(p, "fan", read_fan))
    return w_group(presentation)


@_command("divisor picard-group")
def _divisor_picard_group(p):
    return w_group(dv.picard_group(field(p, "fan", read_fan)))


@_command("divisor is-cartier")
def _divisor_is_cartier(p):
    witness = dv.is_cartier(read_payload_divisor(p))
    if witness:
        return {"cartier": True, "characters": w_mat(witness.characters)}
    return {"cartier": False, "cone_index": w_int(witness.cone_index + 1)}


@_command("divisor min-cartier-multiple")
def _divisor_min_cartier_multiple(p):
    m = dv.minimal_cartier_multiple(read_payload_divisor(p))
    return {"multiple": None if m == inf else w_int(m)}


@_command("divisor sections")
def _divisor_sections(p):
    return {"points": w_mat(dv.global_sections(read_payload_divisor(p)))}


@_command("divisor from-polytope")
def _divisor_from_polytope(p):
    P = read_polytope(p, _P)
    F = field(p, "fan", read_fan)
    return {"coeffs": w_vec(dv.polytope_divisor(P, F).coeffs)}


@_command("divisor polyhedron")
def _divisor_polyhedron(p):
    poly = dv.divisor_polyhedron(read_payload_divisor(p))
    points = None if poly.lattice_points is None else w_mat(poly.lattice_points)
    return {"inequalities": _w_halfspaces(poly.facets),
            "bounded": poly.bounded,
            "points": points}


@_command("divisor lin-equiv")
def _divisor_lin_equiv(p):
    D = read_payload_divisor(p)
    other = field(p, "other", read_vector, len(D.fan.rays), "ray")
    m = dv.linearly_equivalent(D, dv.divisor(D.fan, other))
    return {"equivalent": m is not None,
            "character": None if m is None else w_vec(m)}


# -- cox -----------------------------------------------------------------

@_command("cox data")
def _cox_data(p):
    data = cx.cox_data(field(p, "fan", read_fan))
    return {"class_group": w_group(data.group),
            "weights": [w_vec(w.coords) for w in data.g_weights],
            "irrelevant": [il.format_polynomial(g)
                           for g in data.irrelevant_gens],
            "primitive_collections": [w_indices(I)
                                      for I in data.primitive_collections]}


@_command("cox irrelevant")
def _cox_irrelevant(p):
    gens = cx.irrelevant_ideal(field(p, "fan", read_fan))
    return {"generators": [il.format_polynomial(g) for g in gens]}


@_command("cox primitive-collections")
def _cox_primitive_collections(p):
    collections = cx.primitive_collections(field(p, "fan", read_fan))
    return {"collections": [w_indices(I) for I in collections]}


@_command("cox degree")
def _cox_degree(p):
    F = field(p, "fan", read_fan)
    exponents = field(p, "exponents", read_vector, len(F.rays), "ray")
    return {"class": w_vec(cx.degree(F, exponents).coords)}


@_command("cox homogenize")
def _cox_homogenize(p):
    D = read_payload_divisor(p)
    f = field(p, "laurent", read_laurent)
    return w_poly(cx.homogenize(f, D))


@_command("cox dehomogenize")
def _cox_dehomogenize(p):
    D = read_payload_divisor(p)
    g = field(p, "polynomial", read_sparse)
    k = field(p, "cone_index", read_index, len(D.fan.maximal_cones),
              "maximal cone")
    return w_poly(cx.dehomogenize(g, D, k))


# -- count ---------------------------------------------------------------

@_command("count kushnirenko")
def _count_kushnirenko(p):
    A = field(p, "matrix", read_matrix)
    degree, volume, index = ct.kushnirenko_count(A)
    return {"degree": w_int(degree),
            "normalized_volume": w_int(volume),
            "index": w_int(index)}


@_command("count bezout")
def _count_bezout(p):
    return {"value": w_int(ct.bezout_count(field(p, "degrees", read_vector)))}


@_command("count bkk")
def _count_bkk(p):
    system = field(p, "system", read_array, read_laurent, "Laurent polynomials")
    report = ct.bkk_count(system)
    unmixed = report.kushnirenko
    return {"bkk": w_int(report.bkk),
            "bezout": w_int(report.bezout),
            "kushnirenko": None if unmixed is None else w_int(unmixed),
            "lattice_index": w_int(report.lattice_index),
            "fan": w_fan(report.fan),
            "divisors": [w_vec(D.coeffs) for D in report.divisors],
            "homogenized": [w_poly(g) for g in report.homogenized]}


# -- driver --------------------------------------------------------------

def _run(words):
    if len(words) < 2:
        raise SchemaError("usage: toric-kernel [--pretty] <group> "
                          "<subcommand> [request-file]", "/command")
    name = f"{words[0]} {words[1]}"
    handler = _HANDLERS.get(name)
    if handler is None:
        raise SchemaError(f"unknown command '{name}'", "/command")
    if len(words) > 3:
        raise SchemaError("too many arguments: expected at most one "
                          "request file", "/command")
    if len(words) == 3:
        try:
            with open(words[2], "rb") as handle:
                data = handle.read()
        except OSError as e:
            raise SchemaError(f"cannot read request file: {e}", "") from None
    else:
        data = sys.stdin.buffer.read()
    try:
        # bytes that are not UTF-8, nesting past the parser's recursion
        # limit and number literals past int()'s digit limit all leave the
        # request unreadable: not a domain error, nor a bug
        request = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise SchemaError(f"request is not valid JSON: {e}", "") from None
    if not isinstance(request, dict):
        raise SchemaError("request must be a JSON object", "")
    version = request.get("schema")
    if isinstance(version, bool) or version not in (1, "1"):
        raise SchemaError("missing or unsupported schema version; expected 1",
                          "/schema")
    command = request.get("command")
    if command is not None and command != name:
        raise SchemaError(f"request names command '{command}' but '{name}' "
                          "was invoked", "/command")
    payload = request.get("payload", {})
    if not isinstance(payload, dict):
        raise SchemaError("payload must be a JSON object", "/payload")
    return handler(payload)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    pretty = "--pretty" in args
    words = [a for a in args if a != "--pretty"]
    try:
        document = _run(words)
        code = 0
    except SchemaError as e:
        document, code = {"error": str(e), "path": e.path}, 2
    except ValueError as e:
        document, code = {"error": str(e)}, 1
    except Exception as e:
        # a library invariant failed or a resource ran out: a bug, not an
        # answer about the request, so stdout still gets one JSON document;
        # traceback is imported here so that only a failing run loads it
        import traceback
        traceback.print_exc()
        document = {"error": f"internal error: {type(e).__name__}: {e}"}
        code = 3
    document["schema"] = 1
    if pretty:
        text = json.dumps(document, sort_keys=True, indent=2)
    else:
        text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
