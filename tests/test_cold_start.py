"""Cold start: only a planarity embedding imports networkx; the package leaves dataclasses and inspect out.

Each case runs a fresh interpreter with `src/` first on `PYTHONPATH` and
`-X importtime`, whose log on stderr names every module the process
imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


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


@pytest.mark.parametrize("case", ["prism8", "bipyramid-equator6", "torus7"])
def test_decide_without_a_planar_fast_path_leaves_networkx_out(case):
    proc, imported = _cli("decide", case)
    assert proc.stdout == (GOLDEN / f"{case}.decide").read_text()
    assert "networkx" not in imported


def test_decide_on_tetra_keeps_its_golden_bytes():
    proc, _ = _cli("decide", "tetra")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "tetra.decide").read_text()
