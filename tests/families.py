"""Complex families shared by the tests, built straight from vertex cycles.

Unlike `outerspatial.generators`, which cold CLI starts import, these build
each complex once, so they reach sizes where the generators' step-by-step
builders would copy the complex thousands of times.  Names are zero-padded,
so sort order follows construction order.

The `reference_*` functions are the pairwise algorithm that the label walk
of `embedding.nesting_forest` replaced, kept as the tests' ground truth.
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


def reference_sides(traced, cycle_edges):
    """The two sides of a cycle by union-find over the other edges, the side holding orbit 0 first."""
    cyc = frozenset(cycle_edges)
    n = len(traced.orbits)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eid in traced.graph.edges:
        if eid in cyc:
            continue
        a = find(traced.orbit_index_of((eid, 0)))
        b = find(traced.orbit_index_of((eid, 1)))
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    assert len(groups) == 2
    side_a, side_b = sorted((frozenset(s) for s in groups.values()), key=min)
    return side_a, side_b


def reference_cross(sides1, sides2):
    """No side of one cycle lies in a side of the other."""
    (a, a2), (b, b2) = sides1, sides2
    return not (a <= b or a <= b2 or a2 <= b or a2 <= b2)


def reference_containment_forest(interiors):
    """Parent = minimal strict superset; equal interiors chain by id order."""
    parent = {}
    for c in sorted(interiors):
        candidates = [d for d in interiors
                      if d != c and (interiors[c] < interiors[d]
                                     or (interiors[c] == interiors[d] and d < c))]
        if candidates:
            parent[c] = min(candidates, key=lambda d: (len(interiors[d]), d))
        else:
            parent[c] = None
    return parent


def reference_nesting(traced, cycles, outer_faces):
    """The first crossing pair, or the parent map for each outer face."""
    ids = sorted(cycles)
    sides = {cid: reference_sides(traced, cycles[cid]) for cid in ids}
    for ca, cb in itertools.combinations(ids, 2):
        if reference_cross(sides[ca], sides[cb]):
            return (ca, cb)
    out = {}
    for outer in outer_faces:
        interiors = {cid: b if outer in a else a for cid, (a, b) in sides.items()}
        out[outer] = reference_containment_forest(interiors)
    return out
