"""End-to-end tests for the toric-kernel command line driver.

The suite covers the request envelope, schema and domain error reporting,
output formatting, round trips through the JSON conventions, and a replay
of the fixtures corpus that must stay byte-identical to the stored
goldens.
"""

import io
import json
import sys
from pathlib import Path

import pytest

import toric_kernel.cli as cli
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


def run(capsys, argv, stdin_text=None):
    """Run the CLI with the given argv, optionally feeding stdin."""
    old = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = cli.main(argv)
    finally:
        sys.stdin = old
    return code, capsys.readouterr().out


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

    def test_inconsistent_exponent_lengths(self, capsys):
        doc = schema_error(capsys, "ideal member",
                           {"f": {"terms": [{"exp": [1, 0], "coeff": "1"},
                                            {"exp": [1], "coeff": "1"}]},
                            "generators": []})
        assert doc["path"].startswith("/payload/f")

    def test_variable_count_cannot_be_inferred(self, capsys):
        doc = schema_error(capsys, "ideal member",
                           {"f": {"terms": []}, "generators": []})
        assert "nvars" in doc["error"]

    def test_explicit_nvars_accepted(self, capsys):
        doc = call(capsys, "ideal member",
                   {"f": {"terms": [], "nvars": 3},
                    "generators": [BINOMIAL]})
        assert doc["value"] is True

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

    def test_missing_payload_key_names_the_key(self, capsys):
        doc = schema_error(capsys, "polytope volume", {})
        assert doc["path"] == "/payload/points"


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
        with pytest.raises(IndexError):
            call(capsys, "cone rays", {})
        assert capsys.readouterr().out == ""

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
