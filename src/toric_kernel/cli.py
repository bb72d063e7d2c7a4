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
to the offending node).

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

def _get(node, key, path):
    if not isinstance(node, dict):
        raise SchemaError("expected a JSON object", path)
    if key not in node:
        raise SchemaError(f"missing required field '{key}'", f"{path}/{key}")
    return node[key]


def read_int(node, path) -> int:
    if isinstance(node, bool):
        raise SchemaError("expected an integer or a decimal string", path)
    if isinstance(node, int):
        return node
    if isinstance(node, str):
        try:
            return int(node, 10)
        except ValueError:
            pass
    raise SchemaError("expected an integer or a decimal string", path)


def read_rational(node, path) -> Fraction:
    if isinstance(node, int) and not isinstance(node, bool):
        return Fraction(node)
    if isinstance(node, str):
        num, _, den = node.partition("/")
        try:
            if den:
                return Fraction(int(num, 10), int(den, 10))
            return Fraction(int(num, 10))
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError("expected a rational 'p/q' string or an integer", path)


def read_bool(node, path) -> bool:
    if not isinstance(node, bool):
        raise SchemaError("expected a boolean", path)
    return node


def read_vector(node, path) -> list:
    if not isinstance(node, list):
        raise SchemaError("expected an array of integers", path)
    return [read_int(x, f"{path}/{i}") for i, x in enumerate(node)]


def read_matrix(node, path, allow_empty=False) -> list:
    if not isinstance(node, list):
        raise SchemaError("expected an array of integer arrays", path)
    if not node and not allow_empty:
        raise SchemaError("expected at least one row", path)
    rows = [read_vector(r, f"{path}/{i}") for i, r in enumerate(node)]
    if len({len(r) for r in rows}) > 1:
        raise SchemaError("rows have unequal lengths", path)
    return rows


def read_index(node, path, count, what) -> int:
    """A 1-based index in 1..count, returned 0-based."""
    k = read_int(node, path)
    if not 1 <= k <= count:
        raise SchemaError(f"{what} index {k} out of range 1..{count}", path)
    return k - 1


def _fan_fields(node, path):
    if not isinstance(node, dict):
        raise SchemaError("expected a fan object with 'rays' and 'max_cones'",
                          path)
    rays = read_matrix(_get(node, "rays", path), f"{path}/rays",
                       allow_empty=True)
    if "ambient" in node:
        ambient = read_int(node["ambient"], f"{path}/ambient")
        if ambient < 0:
            raise SchemaError("ambient dimension must be nonnegative",
                              f"{path}/ambient")
    elif rays:
        ambient = len(rays[0])
    else:
        raise SchemaError("a fan without rays needs an explicit 'ambient'",
                          f"{path}/ambient")
    cones_node = _get(node, "max_cones", path)
    if not isinstance(cones_node, list):
        raise SchemaError("expected an array of ray-index arrays",
                          f"{path}/max_cones")
    cones = []
    for i, c in enumerate(cones_node):
        if not isinstance(c, list):
            raise SchemaError("expected an array of 1-based ray indices",
                              f"{path}/max_cones/{i}")
        cones.append([read_index(x, f"{path}/max_cones/{i}/{j}",
                                 len(rays), "ray")
                      for j, x in enumerate(c)])
    return rays, cones, ambient


def read_fan(node, path) -> fn.Fan:
    rays, cones, ambient = _fan_fields(node, path)
    return fn.fan(rays, cones, ambient)


def read_payload_fan(p) -> fn.Fan:
    return read_fan(_get(p, "fan", _P), f"{_P}/fan")


def read_polytope(p, path) -> pt.LatticePolytope:
    points = read_matrix(_get(p, "points", path), f"{path}/points")
    return pt.hull(points)


def read_cone_payload(p) -> cn.Cone:
    gens = read_matrix(_get(p, "generators", _P), f"{_P}/generators",
                       allow_empty=True)
    if "ambient" in p:
        ambient = read_int(p["ambient"], f"{_P}/ambient")
        if ambient < 0:
            raise SchemaError("ambient dimension must be nonnegative",
                              f"{_P}/ambient")
    elif gens:
        ambient = len(gens[0])
    else:
        raise SchemaError("a cone without generators needs an explicit "
                          "'ambient'", f"{_P}/ambient")
    c = cn.cone(gens, ambient)
    if "dual" in p and read_bool(p["dual"], f"{_P}/dual"):
        c = c.dual()
    return c


def read_payload_divisor(p) -> dv.TorusInvariantDivisor:
    F = read_payload_fan(p)
    coeffs = read_vector(_get(p, "coeffs", _P), f"{_P}/coeffs")
    if len(coeffs) != len(F.rays):
        raise SchemaError(f"expected {len(F.rays)} coefficients, one per ray",
                          f"{_P}/coeffs")
    return dv.divisor(F, coeffs)


def _read_terms(node, path, nonnegative):
    if not isinstance(node, dict):
        raise SchemaError("expected a polynomial object with 'terms'", path)
    terms_node = _get(node, "terms", path)
    if not isinstance(terms_node, list):
        raise SchemaError("expected an array of terms", f"{path}/terms")
    nvars = None
    if "nvars" in node:
        nvars = read_int(node["nvars"], f"{path}/nvars")
        if nvars < 0:
            raise SchemaError("nvars must be nonnegative", f"{path}/nvars")
    terms = {}
    for i, t in enumerate(terms_node):
        tpath = f"{path}/terms/{i}"
        exp = read_vector(_get(t, "exp", tpath), f"{tpath}/exp")
        if nonnegative:
            for j, e in enumerate(exp):
                if e < 0:
                    raise SchemaError("exponents must be nonnegative",
                                      f"{tpath}/exp/{j}")
        if nvars is None:
            nvars = len(exp)
        elif len(exp) != nvars:
            raise SchemaError("exponent vectors have unequal lengths",
                              f"{tpath}/exp")
        coeff = read_rational(_get(t, "coeff", tpath), f"{tpath}/coeff")
        key = tuple(exp)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    if nvars is None:
        raise SchemaError("cannot infer the number of variables; "
                          "give 'nvars'", path)
    return nvars, terms


def read_laurent(node, path) -> il.LaurentPolynomial:
    nvars, terms = _read_terms(node, path, nonnegative=False)
    return il.LaurentPolynomial(nvars, terms)


def read_sparse(node, path) -> il.SparsePolynomial:
    nvars, terms = _read_terms(node, path, nonnegative=True)
    return il.SparsePolynomial(nvars, terms)


# -- result writers ------------------------------------------------------

def w_int(x) -> str:
    return str(int(x))


def w_rat(q) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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


def _read_polytope_list(p, key):
    node = _get(p, key, _P)
    if not isinstance(node, list) or not node:
        raise SchemaError("expected a nonempty array of polytopes",
                          f"{_P}/{key}")
    return [read_polytope(s, f"{_P}/{key}/{i}") for i, s in enumerate(node)]


@_command("polytope minkowski")
def _polytope_minkowski(p):
    total = None
    for Q in _read_polytope_list(p, "summands"):
        total = Q if total is None else pt.minkowski_sum(total, Q)
    return {"vertices": w_mat(total.vertices)}


@_command("polytope mixed-volume")
def _polytope_mixed_volume(p):
    return {"value": w_int(pt.mixed_volume(_read_polytope_list(p, "polytopes")))}


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
    rays, cones, ambient = _fan_fields(_get(p, "fan", _P), f"{_P}/fan")
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
    return {"value": fn.is_complete(read_payload_fan(p))}


@_command("fan is-smooth")
def _fan_is_smooth(p):
    return {"value": fn.is_smooth(read_payload_fan(p))}


@_command("fan is-simplicial")
def _fan_is_simplicial(p):
    return {"value": fn.is_simplicial(read_payload_fan(p))}


@_command("fan star-subdivide")
def _fan_star_subdivide(p):
    F = read_payload_fan(p)
    k = read_index(_get(p, "cone_index", _P), f"{_P}/cone_index",
                   len(F.maximal_cones), "maximal cone")
    return {"fan": w_fan(fn.star_subdivision(F, k))}


@_command("fan product")
def _fan_product(p):
    F1 = read_fan(_get(p, "first", _P), f"{_P}/first")
    F2 = read_fan(_get(p, "second", _P), f"{_P}/second")
    return {"fan": w_fan(fn.product_fan(F1, F2))}


@_command("fan limit-cone")
def _fan_limit_cone(p):
    F = read_payload_fan(p)
    v = read_vector(_get(p, "point", _P), f"{_P}/point")
    if len(v) != F.ambient_dim:
        raise SchemaError(f"expected a point of length {F.ambient_dim}",
                          f"{_P}/point")
    I = fn.cone_containing_relint(F, v)
    return {"cone": None if I is None else w_indices(I)}


@_command("fan star-quotient")
def _fan_star_quotient(p):
    F = read_payload_fan(p)
    node = _get(p, "cone", _P)
    if not isinstance(node, list):
        raise SchemaError("expected an array of 1-based ray indices",
                          f"{_P}/cone")
    tau = [read_index(x, f"{_P}/cone/{i}", len(F.rays), "ray")
           for i, x in enumerate(node)]
    G, projection = fn.star_quotient_fan(F, tau)
    return {"fan": w_fan(G), "projection": w_mat(projection)}


@_command("fan orbits")
def _fan_orbits(p):
    table = fn.orbit_table(read_payload_fan(p))
    return {"orbits": [{"cone": w_indices(I),
                        "orbit_dim": w_int(d),
                        "closure": [w_indices(J) for J in closure]}
                       for I, d, closure in table]}


@_command("fan compatible")
def _fan_compatible(p):
    A = read_matrix(_get(p, "map", _P), f"{_P}/map", allow_empty=True)
    F1 = read_fan(_get(p, "source", _P), f"{_P}/source")
    F2 = read_fan(_get(p, "target", _P), f"{_P}/target")
    return {"value": fn.is_compatible(A, F1, F2)}


# -- ideal ---------------------------------------------------------------

@_command("ideal toric")
def _ideal_toric(p):
    A = read_matrix(_get(p, "matrix", _P), f"{_P}/matrix")
    return {"generators": [w_poly(g) for g in il.toric_ideal(A)]}


@_command("ideal member")
def _ideal_member(p):
    f = read_sparse(_get(p, "f", _P), f"{_P}/f")
    node = _get(p, "generators", _P)
    if not isinstance(node, list):
        raise SchemaError("expected an array of polynomials",
                          f"{_P}/generators")
    gens = []
    for i, g in enumerate(node):
        gi = read_sparse(g, f"{_P}/generators/{i}")
        if gi.nvars != f.nvars:
            raise SchemaError("generator uses a different number of "
                              "variables than 'f'", f"{_P}/generators/{i}")
        gens.append(gi)
    return {"value": il.membership(f, gens)}


@_command("ideal hilbert-function")
def _ideal_hilbert_function(p):
    A = read_matrix(_get(p, "matrix", _P), f"{_P}/matrix")
    degrees = read_vector(_get(p, "degrees", _P), f"{_P}/degrees")
    for i, d in enumerate(degrees):
        if d < 0:
            raise SchemaError("degrees must be nonnegative",
                              f"{_P}/degrees/{i}")
    return {"values": [w_int(il.hilbert_function(A, d)) for d in degrees]}


# -- divisor -------------------------------------------------------------

@_command("divisor class-group")
def _divisor_class_group(p):
    presentation, _ = dv.class_group(read_payload_fan(p))
    return w_group(presentation)


@_command("divisor picard-group")
def _divisor_picard_group(p):
    return w_group(dv.picard_group(read_payload_fan(p)))


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
    F = read_payload_fan(p)
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
    other = read_vector(_get(p, "other", _P), f"{_P}/other")
    if len(other) != len(D.fan.rays):
        raise SchemaError(f"expected {len(D.fan.rays)} coefficients, "
                          "one per ray", f"{_P}/other")
    m = dv.linearly_equivalent(D, dv.divisor(D.fan, other))
    return {"equivalent": m is not None,
            "character": None if m is None else w_vec(m)}


# -- cox -----------------------------------------------------------------

@_command("cox data")
def _cox_data(p):
    data = cx.cox_data(read_payload_fan(p))
    return {"class_group": w_group(data.group),
            "weights": [w_vec(w.coords) for w in data.g_weights],
            "irrelevant": [il.format_polynomial(g)
                           for g in data.irrelevant_gens],
            "primitive_collections": [w_indices(I)
                                      for I in data.primitive_collections]}


@_command("cox irrelevant")
def _cox_irrelevant(p):
    gens = cx.irrelevant_ideal(read_payload_fan(p))
    return {"generators": [il.format_polynomial(g) for g in gens]}


@_command("cox primitive-collections")
def _cox_primitive_collections(p):
    collections = cx.primitive_collections(read_payload_fan(p))
    return {"collections": [w_indices(I) for I in collections]}


@_command("cox degree")
def _cox_degree(p):
    F = read_payload_fan(p)
    exponents = read_vector(_get(p, "exponents", _P), f"{_P}/exponents")
    if len(exponents) != len(F.rays):
        raise SchemaError(f"expected {len(F.rays)} exponents, one per ray",
                          f"{_P}/exponents")
    return {"class": w_vec(cx.degree(F, exponents).coords)}


@_command("cox homogenize")
def _cox_homogenize(p):
    D = read_payload_divisor(p)
    f = read_laurent(_get(p, "laurent", _P), f"{_P}/laurent")
    return w_poly(cx.homogenize(f, D))


@_command("cox dehomogenize")
def _cox_dehomogenize(p):
    D = read_payload_divisor(p)
    g = read_sparse(_get(p, "polynomial", _P), f"{_P}/polynomial")
    k = read_index(_get(p, "cone_index", _P), f"{_P}/cone_index",
                   len(D.fan.maximal_cones), "maximal cone")
    return w_poly(cx.dehomogenize(g, D, k))


# -- count ---------------------------------------------------------------

@_command("count kushnirenko")
def _count_kushnirenko(p):
    A = read_matrix(_get(p, "matrix", _P), f"{_P}/matrix")
    degree, volume, index = ct.kushnirenko_count(A)
    return {"degree": w_int(degree),
            "normalized_volume": w_int(volume),
            "index": w_int(index)}


@_command("count bezout")
def _count_bezout(p):
    degrees = read_vector(_get(p, "degrees", _P), f"{_P}/degrees")
    return {"value": w_int(ct.bezout_count(degrees))}


@_command("count bkk")
def _count_bkk(p):
    node = _get(p, "system", _P)
    if not isinstance(node, list):
        raise SchemaError("expected an array of Laurent polynomials",
                          f"{_P}/system")
    system = [read_laurent(f, f"{_P}/system/{i}") for i, f in enumerate(node)]
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
            with open(words[2], "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as e:
            raise SchemaError(f"cannot read request file: {e}", "") from None
    else:
        text = sys.stdin.read()
    try:
        request = json.loads(text)
    except json.JSONDecodeError as e:
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
    document["schema"] = 1
    if pretty:
        text = json.dumps(document, sort_keys=True, indent=2)
    else:
        text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
