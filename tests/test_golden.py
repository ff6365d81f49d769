"""Behaviour lock: `decide`, `links` and `surface` reproduce committed outputs byte for byte.

The inputs in `tests/golden/*.complex` are the bundled generators' output
plus two crossing cases: `crossing-squares` (two diagonal squares of the
square bipyramid, caught at the crossing vertex) and `crossing-path` (a
stacked sphere with two extra cycles that cross along an edge, so the
verdict comes from a crossing pair of face boundaries and a contracted
path).  To regenerate after an intended change, run each command on each
input and overwrite `<case>.<command>` and `exit_codes.json`.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from outerspatial import cli

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
COMMANDS = ("decide", "links", "surface")

GENERATED = {"tetra": ["tetra"], "bipyramid5": ["bipyramid", "5"],
             "bipyramid-equator6": ["bipyramid-equator", "6"],
             "prism8": ["prism", "8"], "prism40": ["prism", "40"],
             "torus7": ["torus7"], "cone-k23": ["cone-k23"],
             **{f"random{s}": ["random", "--seed", str(s)] for s in range(20)}}


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_every_case_is_locked():
    cases = {p.stem for p in GOLDEN.glob("*.complex")}
    assert cases == set(EXIT_CODES)
    assert set(GENERATED) <= cases


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
@pytest.mark.parametrize("command", COMMANDS)
def test_output_bytes(case, command):
    code, out = _run([command, str(GOLDEN / f"{case}.complex")])
    assert out == (GOLDEN / f"{case}.{command}").read_text()
    assert code == EXIT_CODES[case][command]


@pytest.mark.parametrize("case", sorted(GENERATED))
def test_generated_inputs(case):
    code, out = _run(["generate", *GENERATED[case]])
    assert code == 0
    assert out == (GOLDEN / f"{case}.complex").read_text()


def test_crossing_path_case_comes_from_a_crossing_pair(monkeypatch):
    from outerspatial import decider
    from outerspatial.fileformat import format_verdict, parse_complex
    calls = []
    original = decider._crossing_obstruction

    def spy(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(decider, "_crossing_obstruction", spy)
    complex = parse_complex((GOLDEN / "crossing-path.complex").read_text())
    verdict = decider.decide_outerspatial(complex)
    assert len(calls) == 1
    assert format_verdict(verdict) == (GOLDEN / "crossing-path.decide").read_text()
