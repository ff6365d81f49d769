"""The benchmark's workloads: seeded instance lists with known verdict kinds.

Sizes come from fixed ladders so that one pass over a list costs about the
same on every seed; the seed picks the structure (insertion points,
subdivisions, star centres, glue vertex) and every label.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

import instances as inst


@dataclass(frozen=True)
class CliFile:
    """A small complex file for the `cli` workload, with its expected outputs."""

    instance: inst.Instance
    surface: str          # the `surface` command's component kind
    non_outerplanar: int  # links the `links` command reports as not outerplanar


CLI_COMMANDS = ("validate", "surface", "links", "decide")

IN_PROCESS = ("stacked", "chordal", "obstruct")
NAMES = IN_PROCESS + ("cli",)


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def instances(workload: str, seed: int) -> list[inst.Instance]:
    """The instance list of an in-process workload."""
    rng = _rng(seed, workload)
    if workload == "stacked":
        return [inst.stacked(rng, v) for v in (60, 80, 100, 130, 160)]
    if workload == "chordal":
        out = [inst.prism(n) for n in (20, 50, 80, 120)]
        out += [inst.star_boundary(rng, v, k)
                for v, k in ((20, 1), (40, 2), (60, 3), (80, 2))]
        return out
    if workload == "obstruct":
        out = [inst.cone(rng, minor, size)
               for minor in ("K4", "K2,3") for size in (5, 9, 11, 13)]
        out += [inst.torus(rng, k) for k in (0, 20, 40)]
        out.append(inst.torus_glued_tetra(rng))
        return out
    raise ValueError(f"{workload} is not an in-process workload")


def cli_files() -> list[CliFile]:
    return [
        CliFile(inst.tetra(), "sphere", 0),
        CliFile(inst.bipyramid_with_equator(6), "not-a-surface", 0),
        CliFile(inst.prism(8), "sphere", 0),
        CliFile(inst.torus7(), "orientable genus 1", 0),
        CliFile(inst.cone_k23(), "not-a-surface", 1),
    ]


def tag(seed: int, workload: str, pass_no: int, index: int) -> str:
    """The id prefix of one operation: seeded letters, then the pass and the case."""
    rng = random.Random(f"perfbench/ids/{workload}/{seed}")
    letters = "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
    return f"{letters}{pass_no}p{index}q"
