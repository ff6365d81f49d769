"""Cold start: only a planarity embedding imports networkx; the package leaves dataclasses and inspect out.

`decide` reaches a planarity test only for a faceless component, or a
skeleton in the triangle fallback outside the theorem's hypothesis, and
that test imports networkx only when Euler's count settles neither case:
a skeleton with more than 3n - 6 edges is refused, and one whose every
component has at most as many edges as vertices is embedded as it comes.
So `decide` settles every golden triangle complex, the prism and
bipyramid cases, the tetrahedron beside an isolated vertex or a faceless
star, and a faceless K5 without networkx, and so does `oracle` on K5.

Each case runs a fresh interpreter with `src/` first on `PYTHONPATH` and
`-X importtime`, whose log on stderr names every module the process
imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from outerspatial.fileformat import parse_complex

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())
TRIANGLE_CASES = sorted(
    p.stem for p in GOLDEN.glob("*.complex")
    if all(len(f) == 3 for f in parse_complex(p.read_text()).faces.values()))


def _run(*args: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "outerspatial" in imported, proc.stderr
    return proc, imported


def _cli(command: str, case: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    return _run("-m", "outerspatial.cli", command, str(GOLDEN / f"{case}.complex"))


def test_package_import_leaves_networkx_out():
    _, imported = _run("-c", "import outerspatial")
    assert "networkx" not in imported
    # Each would add milliseconds to every cold start.
    assert "dataclasses" not in imported
    assert "inspect" not in imported


@pytest.mark.parametrize("case", ["tetra", "prism8", "torus7", "cone-k23"])
@pytest.mark.parametrize("command", ["validate", "surface", "links"])
def test_commands_without_planarity_leave_networkx_out(command, case):
    proc, imported = _cli(command, case)
    assert proc.stdout
    assert "networkx" not in imported


def test_every_golden_triangle_case_is_a_decide_case():
    assert len(TRIANGLE_CASES) >= 13
    assert {"tetra", "torus7", "cone-k23", "bipyramid5"} <= set(TRIANGLE_CASES)


@pytest.mark.parametrize("case", ["prism8", "bipyramid-equator6"] + TRIANGLE_CASES)
def test_decide_without_a_planar_fast_path_leaves_networkx_out(case):
    proc, imported = _cli("decide", case)
    assert proc.returncode == EXIT_CODES[case]["decide"]
    assert proc.stdout == (GOLDEN / f"{case}.decide").read_text()
    assert "networkx" not in imported


# `decide` on the tetrahedron plus `vertex z`, byte for byte as before the
# faceless component stopped needing a planarity test.
TETRA_AND_Z_DECIDE = """\
verdict: outerspatial
certificate:
  rotation:
    a: ab:0 ad:0 ac:0
    b: ab:1 bc:0 bd:0
    c: ac:1 cd:0 bc:1
    d: ad:1 bd:1 cd:1
    z:
  component a b c d:
    outer: ab:0 bc:0 ac:1
    forest:
      abc
        abd
        acd
        bcd
  component z:
    outer: 
    forest:
"""


def test_a_faceless_component_of_low_degree_leaves_networkx_out(tmp_path):
    # At most two half-edges at every vertex leave one rotation system.
    path = tmp_path / "tetra-z.complex"
    path.write_text((GOLDEN / "tetra.complex").read_text() + "vertex z\n")
    proc, imported = _run("-m", "outerspatial.cli", "decide", str(path))
    assert proc.returncode == 0
    assert proc.stdout == TETRA_AND_Z_DECIDE
    assert "networkx" not in imported


def _with(tmp_path, name: str, text: str) -> str:
    path = tmp_path / f"{name}.complex"
    path.write_text(text)
    return str(path)


TETRA_AND_STAR_DECIDE = """\
verdict: outerspatial
certificate:
  rotation:
    a: ab:0 ad:0 ac:0
    b: ab:1 bc:0 bd:0
    c: ac:1 cd:0 bc:1
    d: ad:1 bd:1 cd:1
    s: ss1:0 ss2:0 ss3:0 ss4:0
    s1: ss1:1
    s2: ss2:1
    s3: ss3:1
    s4: ss4:1
  component a b c d:
    outer: ab:0 bc:0 ac:1
    forest:
      abc
        abd
        acd
        bcd
  component s s1 s2 s3 s4:
    outer: ss1:0 ss1:1 ss2:0 ss2:1 ss3:0 ss3:1 ss4:0 ss4:1
    forest:
"""


def test_a_faceless_star_leaves_networkx_out(tmp_path):
    # A tree has one face in every rotation system, so genus 0.
    star = "".join(f"vertex {v}\n" for v in ("s", "s1", "s2", "s3", "s4"))
    star += "".join(f"edge ss{i} s s{i}\n" for i in range(1, 5))
    path = _with(tmp_path, "tetra-star", (GOLDEN / "tetra.complex").read_text() + star)
    proc, imported = _run("-m", "outerspatial.cli", "decide", path)
    assert proc.returncode == 0
    assert proc.stdout == TETRA_AND_STAR_DECIDE
    assert "networkx" not in imported


K5 = "".join(f"vertex {v}\n" for v in "abcde") + "".join(
    f"edge {u}{v} {u} {v}\n" for u, v in zip("aaaabbbccd", "bcdecdedee"))

# The bytes a networkx planarity test gave before Euler's count refused K5.
K5_OUTPUTS = {
    "decide": (2, "verdict: hypothesis-violated\n"
                  "note: a component with no faces has a non-planar skeleton; "
                  "not outerspatial, but no obstruction of the supported kinds exists\n"),
    "oracle": (1, "verdict: not-outerspatial\n"
                  "obstruction: exhaustive-failure\n"
                  "embeddings-tried: 0\n"
                  "detail: component of a has a non-planar skeleton\n"),
}


@pytest.mark.parametrize("command", sorted(K5_OUTPUTS))
def test_a_faceless_k5_is_refused_without_networkx(tmp_path, command):
    proc, imported = _run("-m", "outerspatial.cli", command, _with(tmp_path, "k5", K5))
    assert (proc.returncode, proc.stdout) == K5_OUTPUTS[command]
    assert "networkx" not in imported
