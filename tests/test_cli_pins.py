"""Every CLI command pinned by the SHA-256 of its standard output.

``cli_pins.json`` is a list of entries ``{"command", "request", "exit",
"sha256"}``. Each request goes to ``cli.main`` on standard input, as
``toric-kernel <command>`` would read it, and the exit code and the
SHA-256 of stdout must be the recorded ones. CI sends the same entries
through the installed console script.

The table covers all 47 commands with at least three successful
requests each, plus schema errors (exit 2) and library errors (exit 1)
in every command group. It includes outputs whose order is an internal
choice: cone faces, the rays of star quotients, Cox weights read through
the Smith transform P, and toric ideal bases. Inputs drawn at random are
stored explicitly:
- fans as ray lists. These are normal fans of hulls of 6 to 10 points
  in [-3,3]^3 drawn by ``random.Random(s)``, with 8 to 14 rays;
- the normal fans of the centrally symmetric polygons with 10, 12 and
  14 edges that ``cox primitive-collections`` is checked on.
No request has an output that embeds interpreter text, such as
JSON-decoder messages or ``OSError`` strings, which differ between
Python versions.
"""

import contextlib
import hashlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest
from conftest import within

import toric_kernel.cli as cli

PINS = json.loads((Path(__file__).resolve().parent / "cli_pins.json")
                  .read_text(encoding="utf-8"))


def _ids():
    seen = Counter()
    for entry in PINS:
        command = entry["command"].replace(" ", "-")
        yield f"{command}-{seen[command]}"
        seen[command] += 1


def run_request(command, request):
    """(exit code, stdout) of cli.main on the request sent as stdin."""
    old = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(json.dumps(request).encode("utf-8")),
                                 encoding="utf-8")
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(command.split())
    finally:
        sys.stdin = old
    return code, out.getvalue()


@pytest.fixture(scope="module")
def outcomes():
    with within(20):
        return [run_request(e["command"], e["request"]) for e in PINS]


@pytest.mark.parametrize("i", range(len(PINS)), ids=list(_ids()))
def test_pinned_output(outcomes, i):
    entry = PINS[i]
    code, out = outcomes[i]
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (code, digest) == (entry["exit"], entry["sha256"]), out


def test_every_command_has_three_successful_requests():
    ok = Counter(e["command"] for e in PINS if e["exit"] == 0)
    assert {e["command"] for e in PINS} == set(cli._HANDLERS)
    assert {c: ok[c] for c in cli._HANDLERS if ok[c] < 3} == {}


def test_every_group_has_schema_and_library_errors():
    groups = {c.split()[0] for c in cli._HANDLERS}
    failing = {(e["command"].split()[0], e["exit"]) for e in PINS if e["exit"]}
    assert failing == {(g, code) for g in groups for code in (1, 2)}
