"""Complex families shared by the tests, built straight from vertex cycles.

Unlike `outerspatial.generators`, which cold CLI starts import, these build
each complex once, so they reach sizes where the generators' step-by-step
builders would copy the complex thousands of times.  Names are zero-padded,
so sort order follows construction order.
"""

from __future__ import annotations

import itertools
import random
from typing import Mapping, Sequence

from outerspatial.complexes import Face, Graph, TwoComplex


def from_cycles(cycles: Mapping[str, Sequence[str]]) -> TwoComplex:
    """The complex with the given vertex cycles as faces and the pairs they pass as edges."""
    edges: dict[frozenset[str], tuple[str, str]] = {}
    for vs in cycles.values():
        for i, u in enumerate(vs):
            edges.setdefault(frozenset((u, vs[i - 1])), (vs[i - 1], u))
    width = len(str(len(edges)))
    graph = Graph({v for uv in edges.values() for v in uv},
                  {f"e{i:0{width}d}": uv for i, uv in enumerate(edges.values())})
    return TwoComplex(graph, [Face.from_vertices(graph, fid, vs) for fid, vs in cycles.items()])


def tower_cycles(k: int, inner_rings: bool = True) -> dict[str, tuple[str, ...]]:
    """k + 1 triangular rings r0..rk with quads between consecutive rings.

    The end rings cap a stack of k prisms into a sphere; with `inner_rings`
    every other ring is a face too, chordal at each of its vertices, and
    these nest k - 1 deep.
    """
    w = len(str(k))
    ring = [[f"{c}{i:0{w}d}" for c in "abc"] for i in range(k + 1)]
    cycles = {f"r{i:0{w}d}": tuple(r) for i, r in enumerate(ring)
              if inner_rings or i in (0, k)}
    for i in range(k):
        for j in range(3):
            nxt = (j + 1) % 3
            cycles[f"q{i:0{w}d}{j}"] = (ring[i][j], ring[i][nxt], ring[i + 1][nxt], ring[i + 1][j])
    return cycles


def tower(k: int) -> TwoComplex:
    """The outerspatial tower of depth k; see `tower_cycles`."""
    return from_cycles(tower_cycles(k))


def disjoint_tetrahedra(k: int) -> TwoComplex:
    """k disjoint tetrahedron boundaries."""
    w = len(str(k))
    cycles = {}
    for i in range(k):
        for tri in itertools.combinations("abcd", 3):
            cycles[f"f{i:0{w}d}{''.join(tri)}"] = tuple(f"t{i:0{w}d}{c}" for c in tri)
    return from_cycles(cycles)


def stacked_cycles(seed: int, n: int) -> dict[str, tuple[str, ...]]:
    """Triangles of a stacked sphere on n >= 4 vertices: seeded insertions into a tetrahedron."""
    rng = random.Random(seed)
    w = len(str(n))
    name = [f"v{i:0{w}d}" for i in range(n)]
    faces = [tuple(name[i] for i in t) for t in itertools.combinations(range(4), 3)]
    for x in range(4, n):
        u, v, t = faces.pop(rng.randrange(len(faces)))
        faces += [(name[x], u, v), (name[x], v, t), (name[x], t, u)]
    wf = len(str(len(faces)))
    return {f"f{i:0{wf}d}": f for i, f in enumerate(faces)}


def stacked(seed: int, n: int) -> TwoComplex:
    """A stacked sphere on n >= 4 vertices; see `stacked_cycles`."""
    return from_cycles(stacked_cycles(seed, n))


def forest_depth(parent: Mapping[str, str | None]) -> int:
    """The number of nodes on the longest root path of a parent map."""
    depth: dict[str | None, int] = {None: 0}
    for cid in parent:
        chain, at = [], cid
        while at not in depth:
            chain.append(at)
            at = parent[at]
        for c in reversed(chain):
            depth[c] = depth[at] + 1
            at = c
    return max(depth.values())
