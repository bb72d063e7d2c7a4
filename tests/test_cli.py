"""End-to-end tests for the toric-kernel command line driver.

The suite covers the request envelope, schema and domain error reporting,
output formatting, round trips through the JSON conventions, and a replay
of the fixtures corpus that must stay byte-identical to the stored
goldens.
"""

import copy
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest
from conftest import within

import toric_kernel.cli as cli
from toric_kernel import cones as cn
from toric_kernel import fans as fn
from toric_kernel import polytopes as pt
from toric_kernel import zlattice as zl

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
REQUEST_FILES = sorted(p for p in FIXTURES.glob("*.json")
                       if not p.name.endswith(".out.json"))

P2 = {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[1, 2], [2, 3], [1, 3]]}
P1P1 = {"rays": [[1, 0], [0, 1], [-1, 0], [0, -1]],
        "max_cones": [[1, 2], [2, 3], [3, 4], [1, 4]]}
HIRZ2 = {"rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
         "max_cones": [[1, 2], [2, 3], [3, 4], [1, 4]]}
WPS121 = {"rays": [[1, 0], [0, 1], [-1, -2]], "max_cones": [[1, 2], [2, 3], [1, 3]]}
WEDGE = {"rays": [[-1, -2], [1, 0]], "max_cones": [[1, 2]]}
PYRAMID = {"rays": [[0, 0, 1], [1, 0, -1], [0, 1, -1], [-1, 0, -1], [0, -1, -1]],
           "max_cones": [[2, 3, 4, 5], [1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 2, 5]]}
P1 = {"rays": [[1], [-1]], "max_cones": [[1], [2]]}

BINOMIAL = {"terms": [{"exp": [1, 1, 0], "coeff": "1"},
                      {"exp": [0, 0, 2], "coeff": "-1"}]}


def byte_stdin(data):
    """A text stream over bytes, as sys.stdin is: the CLI reads its .buffer."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def run(capsys, argv, stdin_text=None):
    """Run the CLI with the given argv, optionally feeding stdin (text or
    bytes)."""
    old = sys.stdin
    if stdin_text is not None:
        sys.stdin = byte_stdin(stdin_text)
    try:
        code = cli.main(argv)
    finally:
        sys.stdin = old
    return code, capsys.readouterr().out


# Requests that cannot be read at all, as bytes: each is a schema error
# with path "", whether it comes from a file or from standard input.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
UNREADABLE = [
    pytest.param(b'{"schema":1,"payload":{"degrees":[2]},"x":"\xff"}',
                 id="not-utf-8"),
    pytest.param(b'{"schema":1,"payload":{"degrees":' + b"[" * 100_000
                 + b"]" * 100_000 + b"}}", id="nested-too-deeply"),
    pytest.param(b'{"schema":1,"payload":{"degrees":['
                 + b"9" * (INT_DIGIT_LIMIT + 700) + b"]}}",
                 id="number-past-the-digit-limit",
                 marks=pytest.mark.skipif(not INT_DIGIT_LIMIT,
                                          reason="no int digit limit")),
]


def call(capsys, command, payload, expect=0):
    request = {"schema": 1, "command": command, "payload": payload}
    code, out = run(capsys, command.split(), json.dumps(request))
    assert code == expect, out
    assert out.endswith("\n")
    doc = json.loads(out)
    assert doc["schema"] == 1
    return doc


def schema_error(capsys, command, payload):
    doc = call(capsys, command, payload, expect=2)
    assert "error" in doc and "path" in doc
    return doc


class TestFixtureReplay:
    def test_corpus_is_complete(self):
        assert len(REQUEST_FILES) == 39

    @pytest.mark.parametrize("request_path", REQUEST_FILES,
                             ids=lambda p: p.stem)
    def test_replay_is_byte_identical(self, request_path, capsys):
        request = json.loads(request_path.read_text(encoding="utf-8"))
        words = request["command"].split()
        code, out = run(capsys, words + [str(request_path)])
        golden = request_path.parent / (request_path.stem + ".out.json")
        assert code == 0, out
        assert out == golden.read_text(encoding="utf-8")


class TestEnvelope:
    def test_no_arguments_prints_usage(self, capsys):
        code, out = run(capsys, [])
        assert code == 2
        doc = json.loads(out)
        assert doc["path"] == "/command"
        assert doc["error"].startswith("usage:")

    def test_single_word_prints_usage(self, capsys):
        code, out = run(capsys, ["cone"])
        assert code == 2
        assert json.loads(out)["path"] == "/command"

    def test_unknown_command(self, capsys):
        code, out = run(capsys, ["cone", "frobnicate"], "{}")
        assert code == 2
        doc = json.loads(out)
        assert doc["path"] == "/command"
        assert "unknown command 'cone frobnicate'" in doc["error"]

    def test_too_many_arguments(self, capsys):
        code, out = run(capsys, ["cone", "dual", "a.json", "b.json"])
        assert code == 2
        assert json.loads(out)["path"] == "/command"

    def test_missing_request_file(self, capsys):
        code, out = run(capsys, ["cone", "dual", "/no/such/file.json"])
        assert code == 2
        doc = json.loads(out)
        assert doc["path"] == ""
        assert "cannot read request file" in doc["error"]

    def test_invalid_json(self, capsys):
        code, out = run(capsys, ["cone", "dual"], "{not json")
        assert code == 2
        doc = json.loads(out)
        assert doc["path"] == ""
        assert "not valid JSON" in doc["error"]

    def test_request_must_be_an_object(self, capsys):
        code, out = run(capsys, ["cone", "dual"], "[1, 2]")
        assert code == 2
        doc = json.loads(out)
        assert doc["path"] == ""
        assert "JSON object" in doc["error"]

    def test_missing_schema_version(self, capsys):
        code, out = run(capsys, ["count", "bezout"],
                        json.dumps({"payload": {"degrees": [2]}}))
        assert code == 2
        assert json.loads(out)["path"] == "/schema"

    def test_unsupported_schema_version(self, capsys):
        code, out = run(capsys, ["count", "bezout"],
                        json.dumps({"schema": 2,
                                    "payload": {"degrees": [2]}}))
        assert code == 2
        assert json.loads(out)["path"] == "/schema"

    def test_boolean_schema_version_rejected(self, capsys):
        code, out = run(capsys, ["count", "bezout"],
                        json.dumps({"schema": True,
                                    "payload": {"degrees": [2]}}))
        assert code == 2
        assert json.loads(out)["path"] == "/schema"

    def test_schema_version_as_string(self, capsys):
        code, out = run(capsys, ["count", "bezout"],
                        json.dumps({"schema": "1",
                                    "payload": {"degrees": [2, 3]}}))
        assert code == 0
        assert json.loads(out)["value"] == "6"

    def test_command_field_mismatch(self, capsys):
        request = {"schema": 1, "command": "cone rays", "payload": {}}
        code, out = run(capsys, ["cone", "dual"], json.dumps(request))
        assert code == 2
        doc = json.loads(out)
        assert doc["path"] == "/command"
        assert "cone rays" in doc["error"] and "cone dual" in doc["error"]

    def test_command_field_optional(self, capsys):
        request = {"schema": 1, "payload": {"degrees": [5]}}
        code, out = run(capsys, ["count", "bezout"], json.dumps(request))
        assert code == 0
        assert json.loads(out)["value"] == "5"

    def test_payload_must_be_an_object(self, capsys):
        request = {"schema": 1, "payload": [1]}
        code, out = run(capsys, ["count", "bezout"], json.dumps(request))
        assert code == 2
        assert json.loads(out)["path"] == "/payload"

    def test_missing_payload_defaults_to_empty(self, capsys):
        code, out = run(capsys, ["count", "bezout"],
                        json.dumps({"schema": 1}))
        assert code == 2
        assert json.loads(out)["path"] == "/payload/degrees"

    def test_unknown_envelope_keys_ignored(self, capsys):
        request = {"schema": 1, "payload": {"degrees": [7]}, "note": "hi"}
        code, out = run(capsys, ["count", "bezout"], json.dumps(request))
        assert code == 0
        assert json.loads(out)["value"] == "7"

    def test_request_file_argument(self, capsys, tmp_path):
        request = {"schema": 1, "command": "count bezout",
                   "payload": {"degrees": [3, 5]}}
        path = tmp_path / "request.json"
        path.write_text(json.dumps(request), encoding="utf-8")
        code, out = run(capsys, ["count", "bezout", str(path)])
        assert code == 0
        assert json.loads(out)["value"] == "15"

    @staticmethod
    def bezout(capsys, tmp_path, source, data):
        """count bezout on request bytes, from a file or from stdin."""
        if source == "stdin":
            return run(capsys, ["count", "bezout"], data)
        path = tmp_path / "request.json"
        path.write_bytes(data)
        return run(capsys, ["count", "bezout", str(path)])

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_utf8_request(self, capsys, tmp_path, source):
        data = json.dumps({"schema": 1, "payload": {"degrees": [3]},
                           "note": "\u00e9\u2202"},
                          ensure_ascii=False).encode("utf-8")
        code, out = self.bezout(capsys, tmp_path, source, data)
        assert code == 0
        assert json.loads(out)["value"] == "3"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("data", UNREADABLE)
    def test_unreadable_request_is_a_schema_error(self, capsys, tmp_path,
                                                  data, source):
        code, out = self.bezout(capsys, tmp_path, source, data)
        assert code == 2, out
        doc = json.loads(out)
        assert doc["path"] == ""
        assert "not valid JSON" in doc["error"]


class TestOutputFormat:
    def test_compact_output_is_sorted_and_separator_free(self, capsys):
        doc = call(capsys, "cone dual",
                   {"generators": [[0, 1], [1, 2], [2, 1]]})
        assert doc["generators"] == [["-1", "2"], ["1", "0"]]
        _, out = run(capsys, ["cone", "dual"],
                     json.dumps({"schema": 1, "payload":
                                 {"generators": [[0, 1], [1, 2], [2, 1]]}}))
        assert ": " not in out and ", " not in out
        assert out.index('"generators"') < out.index('"schema"')

    def test_pretty_flag(self, capsys):
        request = json.dumps({"schema": 1,
                              "payload": {"generators": [[1, 0], [0, 1]]}})
        code, pretty = run(capsys, ["--pretty", "cone", "dual"], request)
        assert code == 0
        assert pretty.startswith("{\n  ")
        code, compact = run(capsys, ["cone", "dual"], request)
        assert json.loads(pretty) == json.loads(compact)

    def test_pretty_flag_position_does_not_matter(self, capsys):
        request = json.dumps({"schema": 1,
                              "payload": {"generators": [[1, 0], [0, 1]]}})
        code, a = run(capsys, ["cone", "dual", "--pretty"], request)
        assert code == 0
        code, b = run(capsys, ["--pretty", "cone", "dual"], request)
        assert a == b

    def test_pretty_applies_to_errors_too(self, capsys):
        code, out = run(capsys, ["--pretty", "cone", "frobnicate"])
        assert code == 2
        assert out.startswith("{\n  ")

    def test_integers_are_decimal_strings(self, capsys):
        doc = call(capsys, "polytope normalized-volume",
                   {"points": [[0, 0], [1, 0], [0, 1]]})
        assert doc["value"] == "1"
        assert isinstance(doc["value"], str)

    def test_integers_past_the_int_to_str_digit_limit(self, capsys):
        # more digits than int() converts to str by default (4,300):
        # N^3/6 for N = 10^1500 is 5*10^4499/3, and 10^4400 a Bezout count
        n = "1" + "0" * 1500
        doc = call(capsys, "polytope volume",
                   {"points": [["0", "0", "0"], [n, "0", "0"],
                               ["0", n, "0"], ["0", "0", n]]})
        assert doc["volume"] == "5" + "0" * 4499 + "/3"
        doc = call(capsys, "count bezout", {"degrees": ["10"] * 4400})
        assert doc["value"] == "1" + "0" * 4400


class TestSchemaErrors:
    def test_boolean_rejected_inside_matrix(self, capsys):
        doc = schema_error(capsys, "cone dual",
                           {"generators": [[1, 0], [0, True]]})
        assert doc["path"] == "/payload/generators/1/1"

    def test_ragged_matrix(self, capsys):
        doc = schema_error(capsys, "cone dual",
                           {"generators": [[1, 0], [0]]})
        assert doc["path"].startswith("/payload/generators")

    def test_malformed_integer_string(self, capsys):
        doc = schema_error(capsys, "cone dual",
                           {"generators": [[1, "x"]]})
        assert doc["path"] == "/payload/generators/0/1"

    def test_malformed_rational_coefficient(self, capsys):
        doc = schema_error(capsys, "ideal member",
                           {"f": {"terms": [{"exp": [1], "coeff": "1/0"}]},
                            "generators": []})
        assert doc["path"] == "/payload/f/terms/0/coeff"

    @pytest.mark.parametrize("text", ["1_0", " 3 ", "3\n", "\u0663", "+", "0x1", "1e3", ""])
    def test_integer_string_is_ascii_decimal(self, capsys, text):
        doc = schema_error(capsys, "cone dual", {"generators": [[1, text]]})
        assert doc["path"] == "/payload/generators/0/1"

    @pytest.mark.parametrize("text", ["1/", "/2", "1/2/3", "1_0/3", " 1/2", "1/ 2",
                                      "\u0661/2", "1/0"])
    def test_rational_string_is_two_ascii_decimals(self, capsys, text):
        doc = schema_error(capsys, "ideal member",
                           {"f": {"terms": [{"exp": [1], "coeff": text}]},
                            "generators": []})
        assert doc["path"] == "/payload/f/terms/0/coeff"

    def test_signed_decimal_strings_accepted(self, capsys):
        doc = call(capsys, "cone dual", {"generators": [["+1", "-0"], ["-0", "007"]]})
        assert doc["generators"] == [["0", "1"], ["1", "0"]]
        doc = call(capsys, "ideal member",
                   {"f": {"terms": [{"exp": [1], "coeff": "-6/+4"}]},
                    "generators": [{"terms": [{"exp": [1], "coeff": "+3"}]}]})
        assert doc["value"] is True

    def test_ray_index_zero_is_out_of_range(self, capsys):
        doc = schema_error(capsys, "fan validate",
                           {"fan": {"rays": [[1, 0], [0, 1]],
                                    "max_cones": [[0, 1]]}})
        assert "out of range 1..2" in doc["error"]

    def test_ray_index_past_the_end(self, capsys):
        doc = schema_error(capsys, "fan validate",
                           {"fan": {"rays": [[1, 0], [0, 1]],
                                    "max_cones": [[1, 3]]}})
        assert "out of range 1..2" in doc["error"]

    def test_cone_index_out_of_range(self, capsys):
        doc = schema_error(capsys, "fan star-subdivide",
                           {"fan": P2, "cone_index": 4})
        assert doc["path"] == "/payload/cone_index"
        assert "out of range 1..3" in doc["error"]

    def test_divisor_coefficient_count_must_match_rays(self, capsys):
        doc = schema_error(capsys, "divisor sections",
                           {"fan": P2, "coeffs": [1, 2]})
        assert doc["path"] == "/payload/coeffs"
        assert doc["error"] == "expected 3 integers, one per ray"

    def test_inconsistent_exponent_lengths(self, capsys):
        doc = schema_error(capsys, "ideal member",
                           {"f": {"terms": [{"exp": [1, 0], "coeff": "1"},
                                            {"exp": [1], "coeff": "1"}]},
                            "generators": []})
        assert doc["path"] == "/payload/f/terms/1/exp"
        assert doc["error"] == "expected 2 integers, one per variable"

    def test_variable_count_cannot_be_inferred(self, capsys):
        doc = schema_error(capsys, "ideal member",
                           {"f": {"terms": []}, "generators": []})
        assert "nvars" in doc["error"]

    def test_explicit_nvars_accepted(self, capsys):
        doc = call(capsys, "ideal member",
                   {"f": {"terms": [], "nvars": 3},
                    "generators": [BINOMIAL]})
        assert doc["value"] is True

    def test_cone_without_generators_or_ambient(self, capsys):
        doc = schema_error(capsys, "cone dual", {"generators": []})
        assert doc["error"] == "a cone without generators needs an explicit 'ambient'"
        assert doc["path"] == "/payload/ambient"

    def test_fan_without_rays_or_ambient(self, capsys):
        doc = schema_error(capsys, "fan validate",
                           {"fan": {"rays": [], "max_cones": []}})
        assert doc["error"] == "a fan without rays needs an explicit 'ambient'"
        assert doc["path"] == "/payload/fan/ambient"

    @pytest.mark.parametrize("command, payload, path", [
        ("cone dual", {"generators": [[1, 0]], "ambient": -1}, "/payload/ambient"),
        ("fan validate", {"fan": {"rays": [[1, 0]], "max_cones": [[1]],
                                  "ambient": "-2"}}, "/payload/fan/ambient"),
    ])
    def test_negative_ambient(self, capsys, command, payload, path):
        doc = schema_error(capsys, command, payload)
        assert doc["error"] == "ambient dimension must be nonnegative"
        assert doc["path"] == path

    def test_negative_exponent_rejected_for_sparse_polynomials(self, capsys):
        doc = schema_error(capsys, "ideal member",
                           {"f": {"terms": [{"exp": [-1], "coeff": "1"}]},
                            "generators": []})
        assert doc["path"] == "/payload/f/terms/0/exp/0"

    def test_negative_hilbert_degree_rejected(self, capsys):
        doc = schema_error(capsys, "ideal hilbert-function",
                           {"matrix": [[0, 1]], "degrees": [-1]})
        assert doc["path"] == "/payload/degrees/0"

    def test_empty_point_configuration_rejected(self, capsys):
        doc = schema_error(capsys, "ideal toric", {"matrix": []})
        assert doc["path"] == "/payload/matrix"

    def test_limit_point_length_checked(self, capsys):
        doc = schema_error(capsys, "fan limit-cone",
                           {"fan": P2, "point": [1, 2, 3]})
        assert doc["path"] == "/payload/point"
        assert doc["error"] == "expected 2 integers, one per coordinate"

    def test_missing_payload_key_names_the_key(self, capsys):
        doc = schema_error(capsys, "polytope volume", {})
        assert doc["path"] == "/payload/points"

    @pytest.mark.parametrize("command, payload, path, error", [
        ("divisor lin-equiv", {"fan": P2, "coeffs": [1, 0, 0], "other": [2]},
         "/payload/other", "expected 3 integers, one per ray"),
        ("count bkk", {"system": [{"terms": [{"exp": [1], "coeff": "1"}],
                                   "nvars": 2}]},
         "/payload/system/0/terms/0/exp",
         "expected 2 integers, one per variable"),
    ])
    def test_vector_lengths(self, capsys, command, payload, path, error):
        doc = schema_error(capsys, command, payload)
        assert (doc["path"], doc["error"]) == (path, error)

    @pytest.mark.parametrize("command, payload, path", [
        ("fan star-quotient", {"fan": P1P1, "cone": 1}, "/payload/cone"),
        ("fan validate", {"fan": {"rays": [[1]], "max_cones": [[1], 1]}},
         "/payload/fan/max_cones/1"),
    ])
    def test_ray_index_lists(self, capsys, command, payload, path):
        doc = schema_error(capsys, command, payload)
        assert doc["path"] == path
        assert doc["error"] == "expected an array of 1-based ray indices"

    def test_generators_use_the_variables_of_f(self, capsys):
        doc = schema_error(capsys, "ideal member",
                           {"f": BINOMIAL,
                            "generators": [BINOMIAL,
                                           {"terms": [], "nvars": 2}]})
        assert doc["path"] == "/payload/generators/1"


def payload_nodes(node, pointer="/payload"):
    """(pointer, node) for a payload and every node below it."""
    yield pointer, node
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from payload_nodes(child, f"{pointer}/{key}")


def replaced(request, pointer, value):
    """A copy of request with the node at a JSON pointer set to value."""
    request = copy.deepcopy(request)
    *keys, last = pointer.split("/")[1:]
    parent = request
    for key in keys:
        parent = parent[int(key) if isinstance(parent, list) else key]
    parent[int(last) if isinstance(parent, list) else last] = value
    return request


class TestEveryPayloadNode:
    """In each fixture request, a payload leaf replaced by {} or an array
    or object replaced by 7 is a schema error at that node's pointer."""

    @pytest.mark.parametrize("request_path", REQUEST_FILES,
                             ids=lambda p: p.stem)
    def test_wrong_kind_is_reported_at_its_pointer(self, request_path,
                                                   capsys):
        request = json.loads(request_path.read_text(encoding="utf-8"))
        words = request["command"].split()
        wrong = []
        for pointer, node in payload_nodes(request["payload"]):
            bad = 7 if isinstance(node, (list, dict)) else {}
            text = json.dumps(replaced(request, pointer, bad))
            code, out = run(capsys, words, text)
            if code != 2 or json.loads(out)["path"] != pointer:
                wrong.append((pointer, code, out))
        assert wrong == []

    def test_node_count(self):
        nodes = [node for p in REQUEST_FILES
                 for _, node in payload_nodes(json.loads(p.read_text())["payload"])]
        containers = sum(isinstance(n, (list, dict)) for n in nodes)
        assert (len(nodes) - containers, containers) == (686, 463)


class TestDomainErrors:
    def test_rays_of_a_non_pointed_cone(self, capsys):
        doc = call(capsys, "cone rays",
                   {"generators": [[1, 0], [-1, 0]]}, expect=1)
        assert "non-pointed" in doc["error"]
        assert "path" not in doc

    def test_unbounded_section_polyhedron(self, capsys):
        doc = call(capsys, "divisor sections",
                   {"fan": WEDGE, "coeffs": [0, 0]}, expect=1)
        assert "unbounded" in doc["error"]

    def test_polytope_divisor_needs_a_refining_fan(self, capsys):
        doc = call(capsys, "divisor from-polytope",
                   {"points": [[0, 0], [1, 0], [0, 1]], "fan": P1P1},
                   expect=1)
        assert "normal fan" in doc["error"]

    def test_domain_index_error_exits_1(self, capsys, monkeypatch):
        def handler(payload):
            raise zl.IndexOutOfRangeError("ray index out of range")
        monkeypatch.setitem(cli._HANDLERS, "cone rays", handler)
        doc = call(capsys, "cone rays", {}, expect=1)
        assert doc["error"] == "ray index out of range"

    def test_internal_index_error_is_not_a_domain_error(self, capsys,
                                                        monkeypatch):
        def handler(payload):
            return [][0]
        monkeypatch.setitem(cli._HANDLERS, "cone rays", handler)
        doc = call(capsys, "cone rays", {}, expect=3)
        assert doc == {"error": "internal error: IndexError: list index out of range",
                       "schema": 1}

    @pytest.mark.parametrize("error", [AssertionError("invariant broken"),
                                       RecursionError("too deep")])
    def test_internal_errors_exit_3(self, capsys, monkeypatch, error):
        def handler(payload):
            raise error
        monkeypatch.setitem(cli._HANDLERS, "polytope volume", handler)
        request = json.dumps({"schema": 1, "payload": {}})
        monkeypatch.setattr(sys, "stdin", byte_stdin(request))
        code = cli.main(["polytope", "volume"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out) == {
            "error": f"internal error: {type(error).__name__}: {error}",
            "schema": 1}
        assert "Traceback" in captured.err

    def test_invalid_fan_is_reported_not_raised(self, capsys):
        doc = call(capsys, "fan validate",
                   {"fan": {"rays": [[1, 0], [-1, 0], [0, 1]],
                            "max_cones": [[1, 2, 3]]}})
        assert doc["valid"] is False
        assert "pointed" in doc["reason"]


class TestRoundTrips:
    def test_fan_canonical_form_is_a_fixed_point(self, capsys):
        first = call(capsys, "fan validate",
                     {"fan": {"rays": [[2, 4], [1, 0], [-3, -2], [0, 2]],
                              "max_cones": [[1, 2], [2, 3], [3, 4], [1, 4]]}})
        assert first["valid"] is True
        again = call(capsys, "fan validate", {"fan": first["fan"]})
        assert again["fan"] == first["fan"]

    def test_facet_vertices_rebuild_the_polytope(self, capsys):
        points = [[0, 0], [1, 0], [0, 1], [2, 1], [1, 2]]
        facets = call(capsys, "polytope facets", {"points": points})
        rebuilt = call(capsys, "polytope facets",
                       {"points": facets["vertices"]})
        assert rebuilt == facets

    def test_cone_biduality_through_the_interface(self, capsys):
        gens = [[0, 1], [1, 2], [2, 1]]
        rays = call(capsys, "cone rays", {"generators": gens})
        dual = call(capsys, "cone dual", {"generators": gens})
        double = call(capsys, "cone dual", {"generators": dual["generators"]})
        assert double["generators"] == rays["rays"]

    def test_string_entries_accepted_on_input(self, capsys):
        doc = call(capsys, "count bezout", {"degrees": ["2", "3", "4"]})
        assert doc["value"] == "24"


class TestConeCommands:
    def test_rays_drop_non_extremal_generators(self, capsys):
        doc = call(capsys, "cone rays",
                   {"generators": [[1, 0], [1, 1], [1, 2]]})
        assert doc["rays"] == [["1", "0"], ["1", "2"]]

    def test_smoothness(self, capsys):
        assert call(capsys, "cone is-smooth",
                    {"generators": [[1, 0], [0, 1]]})["value"] is True
        assert call(capsys, "cone is-smooth",
                    {"generators": [[1, 0], [1, 2]]})["value"] is False

    def test_simpliciality(self, capsys):
        square_cone = [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]
        assert call(capsys, "cone is-simplicial",
                    {"generators": square_cone})["value"] is False
        assert call(capsys, "cone is-simplicial",
                    {"generators": [[1, 0], [1, 2]]})["value"] is True

    def test_face_lattice_of_the_quadrant(self, capsys):
        doc = call(capsys, "cone faces", {"generators": [[1, 0], [0, 1]]})
        dims = [f["dim"] for f in doc["faces"]]
        assert dims == ["0", "1", "1", "2"]
        assert doc["faces"][0]["generators"] == []
        assert doc["faces"][-1]["generators"] == [["0", "1"], ["1", "0"]]

    def test_hilbert_basis_without_dual_flag(self, capsys):
        doc = call(capsys, "cone hilbert-basis",
                   {"generators": [[0, 1], [2, 1]]})
        assert doc["elements"] == [["0", "1"], ["1", "1"], ["2", "1"]]


class TestPolytopeCommands:
    def test_facets_of_the_unit_square(self, capsys):
        doc = call(capsys, "polytope facets",
                   {"points": [[0, 0], [1, 0], [0, 1], [1, 1]]})
        assert len(doc["vertices"]) == 4
        assert len(doc["inequalities"]) == 4
        assert doc["equations"] == []

    def test_lower_dimensional_hull_has_equations(self, capsys):
        doc = call(capsys, "polytope facets",
                   {"points": [[0, 0], [2, 2]]})
        assert len(doc["equations"]) == 1

    def test_volume_and_normalized_volume(self, capsys):
        square = {"points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
        assert call(capsys, "polytope volume", square)["volume"] == "1"
        assert call(capsys, "polytope normalized-volume",
                    square)["value"] == "2"

    def test_minkowski_sum(self, capsys):
        doc = call(capsys, "polytope minkowski",
                   {"summands": [{"points": [[0, 0], [1, 0], [0, 1]]},
                                 {"points": [[0, 0], [1, 0], [0, 1],
                                             [1, 1]]}]})
        assert doc["vertices"] == [["0", "0"], ["0", "2"], ["1", "2"],
                                   ["2", "0"], ["2", "1"]]

    def test_mixed_volume(self, capsys):
        doc = call(capsys, "polytope mixed-volume",
                   {"polytopes": [{"points": [[0, 0], [1, 0], [0, 1]]},
                                  {"points": [[0, 0], [1, 0], [0, 1],
                                              [1, 1]]}]})
        assert doc["value"] == "2"

    def test_normality_and_very_ampleness(self, capsys):
        simplex = {"points": [[0, 0], [2, 0], [0, 2]]}
        assert call(capsys, "polytope is-normal", simplex)["value"] is True
        assert call(capsys, "polytope is-very-ample",
                    simplex)["value"] is True

    def test_very_ample_cube_past_the_recursion_limit(self, capsys):
        # 1,331 lattice points: a search with one recursion level per
        # point raised RecursionError here
        cube = {"points": [[a, b, c] for a in (0, 10) for b in (0, 10)
                           for c in (0, 10)]}
        with within(2):
            doc = call(capsys, "polytope is-very-ample", cube)
        assert doc["value"] is True

    def test_project_full(self, capsys):
        doc = call(capsys, "polytope project-full",
                   {"points": [[0, 0], [0, 3]]})
        assert doc["vertices"] == [["0"], ["3"]]
        assert doc["origin"] == ["0", "0"]
        assert doc["embedding"] == [["0"], ["1"]]


class TestFanCommands:
    def test_completeness(self, capsys):
        assert call(capsys, "fan is-complete",
                    {"fan": P2})["value"] is True
        assert call(capsys, "fan is-complete",
                    {"fan": WEDGE})["value"] is False

    def test_smoothness(self, capsys):
        assert call(capsys, "fan is-smooth", {"fan": P2})["value"] is True
        assert call(capsys, "fan is-smooth",
                    {"fan": WPS121})["value"] is False

    def test_simpliciality(self, capsys):
        assert call(capsys, "fan is-simplicial",
                    {"fan": PYRAMID})["value"] is False
        assert call(capsys, "fan is-simplicial",
                    {"fan": P2})["value"] is True

    def test_product_of_two_lines(self, capsys):
        doc = call(capsys, "fan product", {"first": P1, "second": P1})
        assert doc["fan"]["ambient"] == "2"
        assert sorted(doc["fan"]["rays"]) == [["-1", "0"], ["0", "-1"],
                                              ["0", "1"], ["1", "0"]]
        assert len(doc["fan"]["max_cones"]) == 4

    def test_star_quotient(self, capsys):
        doc = call(capsys, "fan star-quotient", {"fan": P1P1, "cone": [1]})
        assert doc["fan"]["rays"] == [["1"], ["-1"]]
        assert doc["projection"] == [["0", "1"]]

    def test_star_quotient_names_rays_from_one(self, capsys):
        doc = call(capsys, "fan star-quotient", {"fan": P2, "cone": [1, 2, 3]}, expect=1)
        assert doc["error"] == "ray indices (1, 2, 3) do not name a cone of the fan"
        with pytest.raises(ValueError) as err:
            fn.star_quotient_fan(fn.fan(P2["rays"], [[0, 1], [1, 2], [0, 2]], 2), (0, 3))
        assert str(err.value) == "ray indices (1, 4) do not name a cone of the fan"

    def test_map_into_the_zero_lattice_is_compatible(self, capsys):
        doc = call(capsys, "fan compatible",
                   {"map": [], "source": P1,
                    "target": {"rays": [], "max_cones": [[]], "ambient": 0}})
        assert doc["value"] is True


class TestIdealAndDivisorCommands:
    def test_membership(self, capsys):
        inside = call(capsys, "ideal member",
                      {"f": BINOMIAL, "generators": [BINOMIAL]})
        assert inside["value"] is True
        outside = call(capsys, "ideal member",
                       {"f": {"terms": [{"exp": [1, 0, 0], "coeff": "1"}]},
                        "generators": [BINOMIAL]})
        assert outside["value"] is False

    def test_sections_of_twice_the_hyperplane_class(self, capsys):
        doc = call(capsys, "divisor sections",
                   {"fan": P2, "coeffs": [0, 0, 2]})
        assert len(doc["points"]) == 6

    def test_linear_equivalence(self, capsys):
        doc = call(capsys, "divisor lin-equiv",
                   {"fan": P2, "coeffs": [1, 1, 0], "other": [0, 0, 2]})
        assert doc["equivalent"] is True
        assert doc["character"] == ["1", "1"]
        doc = call(capsys, "divisor lin-equiv",
                   {"fan": P2, "coeffs": [1, 0, 0], "other": [0, 0, 2]})
        assert doc["equivalent"] is False
        assert doc["character"] is None

    def test_torus_is_cartier_with_a_character_in_the_plane(self, capsys):
        torus = {"rays": [], "max_cones": [[]], "ambient": 2}
        doc = call(capsys, "divisor is-cartier", {"fan": torus, "coeffs": []})
        assert doc["characters"] == [["0", "0"]]

    def test_multiple_of_a_ray_with_an_integer_character(self, capsys):
        # 2 m1 + m2 = -1 has the integer solution (0, -1)
        doc = call(capsys, "divisor min-cartier-multiple",
                   {"fan": {"rays": [[2, 1]], "max_cones": [[1]]}, "coeffs": [1]})
        assert doc["multiple"] == "1"


class TestCoxCommands:
    def test_irrelevant_ideal_of_the_plane(self, capsys):
        doc = call(capsys, "cox irrelevant", {"fan": P2})
        assert doc["generators"] == ["x3", "x1", "x2"]

    def test_primitive_collections_of_the_plane(self, capsys):
        doc = call(capsys, "cox primitive-collections", {"fan": P2})
        assert doc["collections"] == [["1", "2", "3"]]

    def test_monomial_degree(self, capsys):
        doc = call(capsys, "cox degree",
                   {"fan": HIRZ2, "exponents": [0, 0, 1, 1]})
        assert doc["class"] == ["1", "1"]

    def test_degree_checks_the_exponent_count(self, capsys):
        doc = schema_error(capsys, "cox degree",
                           {"fan": HIRZ2, "exponents": [1, 0]})
        assert doc["path"] == "/payload/exponents"
        assert doc["error"] == "expected 4 integers, one per ray"


def ints(m):
    return [[int(x) for x in row] for row in m]


def dual_is_generated(payload, doc):
    # the generators span the dual cone, and the ones orthogonal to the
    # cone come in +/- pairs that span the saturated lattice sigma-perp
    G = payload["generators"]
    n = len(G[0])
    gens = ints(doc["generators"])
    assert cn.cone(gens, n) == cn.cone(G, n).dual()
    lin = [u for u in gens if not any(zl.dot(u, g) for g in G)]
    assert sorted(lin) == sorted([-x for x in u] for u in lin)
    perp = zl.kernel_basis(G)
    assert zl.lattice_index(zl.from_columns(lin, rows=n), perp) == 1
    assert zl.lattice_index(perp, zl.from_columns(lin, rows=n)) == 1


def facets_cut_out_the_polytope(payload, doc):
    # the equation normals are a basis of the saturated lattice of normals
    # to the affine span; each inequality holds and is tight on a vertex
    V = payload["points"]
    eqs = [(ints([h["normal"]])[0], int(h["offset"])) for h in doc["equations"]]
    ineqs = [(ints([h["normal"]])[0], int(h["offset"])) for h in doc["inequalities"]]
    assert all(zl.dot(a, v) + b == 0 for a, b in eqs for v in V)
    assert all(min(zl.dot(a, v) + b for v in V) == 0 for a, b in ineqs)
    normals = zl.from_columns([a for a, _ in eqs], rows=len(V[0]))
    perp = zl.kernel_basis([zl.vsub(v, V[0]) for v in V[1:]])
    assert zl.lattice_index(normals, perp) == 1


def embedding_gives_back_the_vertices(payload, doc):
    # x0 + L y runs over the vertices, and L has all invariant factors 1,
    # so it is a basis of the saturated lattice of the affine span
    x0, L = [int(x) for x in doc["origin"]], ints(doc["embedding"])
    images = {tuple(zl.vadd(x0, zl.mat_vec(L, y))) for y in ints(doc["vertices"])}
    assert images == {tuple(v) for v in payload["points"]}
    assert zl.snf_diagonal(L) == [1] * zl.shape(L)[1]


def projection_kills_the_cone(payload, doc):
    # pi maps Z^n onto the quotient by the span of tau, and every image
    # ray is the primitive image of a ray of a cone that contains tau
    F = payload["fan"]
    tau = [i - 1 for i in payload["cone"]]
    pi = ints(doc["projection"])
    assert all(zl.mat_vec(pi, F["rays"][i]) == [0] * len(pi) for i in tau)
    assert zl.snf_diagonal(pi) == [1] * len(pi)
    star = [I for I in F["max_cones"] if {i + 1 for i in tau} <= set(I)]
    images = {tuple(zl.primitive(zl.mat_vec(pi, F["rays"][i - 1])))
              for I in star for i in I if i - 1 not in tau}
    assert {tuple(r) for r in ints(doc["fan"]["rays"])} <= images
    assert len(doc["fan"]["max_cones"]) == len(star)


# Outputs that print a lattice basis, read off the column HNF: the
# lineality of a non-pointed dual, the equations of a lower dimensional
# polytope (both the HNF basis of their lattice, with the rays or facets
# reduced modulo it), the embedding of project-full and the projection of
# star-quotient. Any other valid basis would be correct too, so each pin
# comes with a check of what makes it valid, and the pins keep the
# printed bytes from changing unnoticed with the kernel routine.
PRINTED_BASES = [
    pytest.param("cone dual",
                 {"generators": [[-2, 3, -2]]},
                 '{"generators":[["-1","0","1"],["0","-2","-3"],["0","1","1"],["0","2","3"],["1","0","-1"]],"schema":1}',
                 dual_is_generated,
                 id="cone-dual-ray-in-z3"),
    pytest.param("cone dual",
                 {"generators": [[0, 0, 1, -2], [-4, 3, 4, 0]]},
                 '{"generators":[["-1","-4","2","1"],["0","-8","6","3"],["0","3","-2","-1"],["0","4","-3","-2"],["0","8","-6","-3"],["1","4","-2","-1"]],"schema":1}',
                 dual_is_generated,
                 id="cone-dual-plane-cone-in-z4"),
    pytest.param("polytope facets",
                 {"points": [[1, -2, 0], [-1, 2, -3]]},
                 '{"equations":[{"normal":["0","3","4"],"offset":"6"},{"normal":["1","2","2"],"offset":"3"}],"inequalities":[{"normal":["0","1","1"],"offset":"2"},{"normal":["0","2","3"],"offset":"5"}],"schema":1,"vertices":[["-1","2","-3"],["1","-2","0"]]}',
                 facets_cut_out_the_polytope,
                 id="facets-of-a-segment-in-z3"),
    pytest.param("polytope project-full",
                 {"points": [[3, 2, -4], [-3, -2, 2], [-3, 0, -1]]},
                 '{"embedding":[["0","1"],["2","0"],["-3","0"]],"origin":["-3","-2","2"],"schema":1,"vertices":[["0","0"],["1","0"],["2","6"]]}',
                 embedding_gives_back_the_vertices,
                 id="project-full-of-a-triangle-in-z3"),
    pytest.param("fan star-quotient",
                 {"fan": {"rays": [[-8, -5, -4], [-1, 0, -3], [0, -1, 0], [1, 1, 1], [3, 0, 1]], "max_cones": [[2, 4, 5], [1, 2, 3, 5], [3, 4, 5], [1, 3, 4], [1, 2, 4]]}, "cone": [1]},
                 '{"fan":{"ambient":"2","max_cones":[["1","2"],["2","3"],["1","3"]],"rays":[["1","-3"],["0","1"],["-1","1"]]},"projection":[["1","0","-2"],["0","-4","5"]],"schema":1}',
                 projection_kills_the_cone,
                 id="star-quotient-at-a-skew-ray"),
]


@pytest.mark.parametrize("command,payload,expected,check", PRINTED_BASES)
def test_printed_basis_is_pinned(capsys, command, payload, expected, check):
    request = {"schema": 1, "command": command, "payload": payload}
    code, out = run(capsys, command.split(), json.dumps(request))
    assert code == 0, out
    check(payload, json.loads(out))
    assert out == expected + "\n"


def seeded_fan_payload(seed):
    """The normal fan of the hull of random points, as a CLI fan: seed 8
    draws 40 points in [-6,6]^3 (38 rays, 21 maximal cones), the others
    7 points in [-2,2]^3."""
    rng = random.Random(seed)
    k, r = (40, 6) if seed == 8 else (7, 2)
    while True:
        P = pt.hull([[rng.randint(-r, r) for _ in range(3)] for _ in range(k)])
        if P.is_full_dim:
            break
    F = fn.normal_fan(P)
    return {"rays": F.rays, "max_cones": [[i + 1 for i in I] for I in F.maximal_cones]}


# No fixture covers star-quotient, so these pin the SHA-256 of its stdout on
# seeded fans: the zero cone, a ray, a 2-cone and a maximal cone of each,
# ray indices that name no cone (exit 1) and unsorted ones.
STAR_QUOTIENT_PINS = [
    (8, [1], 0, "c62a277887c15160aeb04ee6411b1f36ecb9f7d14724d00cb77180ca8826509a"),
    (1, [], 0, "9dc42fb5ff476d98fd1e6b6a84458623763ec1c50f6cd5f870826cf09a1a23a4"),
    (1, [1], 0, "8969604e9ac07e6ff145849e57b402d57fd3928ae0d361a2e22c3da0d525374d"),
    (1, [7, 8], 0, "7cffea9c373de2e315e9c83a0b40f28ad06a208ffd095087761fe6987b11971c"),
    (1, [2, 1], 0, "7cffea9c373de2e315e9c83a0b40f28ad06a208ffd095087761fe6987b11971c"),
    (1, [3, 4, 7, 8], 0, "7727e9240554f80a8cdedc926c2ca856584f8974bf5d53d113c5b82ff77fdaf1"),
    (1, [1, 4], 1, "aac7c90eb4720d3f11490e64e2a24e5be6a5315129fd584ae8daae6590c1e899"),
    (1, [1, 1], 1, "53beb08515a0e045662157d454a6cfbac4853e67903b3102a8e2d8ce9882a8dc"),
    (2, [], 0, "9743469be6813aaedf408e038f982ab724b42468ecd6601ff7e4fcce5ad8a727"),
    (2, [1], 0, "5030f412cc053b524dd0549dd2bde3348a312123abd4431f2c495333f5558787"),
    (2, [6, 7], 0, "4833f2afb59a4d525849c97b7e28400bf886517e8d543b57946eeeeaf14cd2ad"),
    (2, [1, 6, 7], 0, "7727e9240554f80a8cdedc926c2ca856584f8974bf5d53d113c5b82ff77fdaf1"),
    (2, [1, 3], 1, "37b9f6e2ff0d08b50584e5f8ba92e587f113179f762a4c95b0fb853e5c8952a8"),
    (3, [], 0, "b40f1ff9698df78db893e0910f1f49bd02509b42ab42d9cc388c5b199785ca54"),
    (3, [1], 0, "889e3a50a11f0f227376b13d20025a5f8325898d386a1bc517bbdc237d27db9d"),
    (3, [5, 6], 0, "837639dd8b87762c61e6a265197a187b8aedf9c311142b94851fc7f4629ab821"),
    (3, [3, 5, 6], 0, "7727e9240554f80a8cdedc926c2ca856584f8974bf5d53d113c5b82ff77fdaf1"),
    (3, [1, 4], 1, "aac7c90eb4720d3f11490e64e2a24e5be6a5315129fd584ae8daae6590c1e899"),
]


@pytest.mark.parametrize("seed,cone,code,digest", STAR_QUOTIENT_PINS)
def test_star_quotient_is_pinned(capsys, seed, cone, code, digest):
    request = {"schema": 1, "payload": {"fan": seeded_fan_payload(seed), "cone": cone}}
    got, out = run(capsys, ["fan", "star-quotient"], json.dumps(request))
    assert got == code, out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
