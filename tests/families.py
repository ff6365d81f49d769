"""Complex families shared by the tests, built straight from vertex cycles.

Unlike `outerspatial.generators`, which cold CLI starts import, these build
each complex once, so they reach sizes where the generators' step-by-step
builders would copy the complex thousands of times.  Names are zero-padded,
so sort order follows construction order.

The `reference_*` functions are the pairwise algorithm that the label walk
of `embedding.nesting_forest` replaced, kept as the tests' ground truth,
and `reference_verify_certificate`, the certificate check that traced with
`trace_faces` before `decider.verify_certificate` got its own walk.
Beside them is the exhaustive ground truth that only tests use:
`enumerate_rotation_systems` lists every rotation system of a graph, the
order in which `oracle` walks the genus-zero ones, and `_search_minor`
finds K4 and K2,3 branch sets over all connected vertex subsets, the
reference for `embedding.find_minor`.
`vertex_sum` is the paper's description of the link at a contracted edge,
the reference for the contraction law, and `path_along` names a path to
contract by its vertices; `random_planar_graph` and
`triangles_of` draw seeded planar graphs with all their triangles, and
`random_pseudoforest` seeded graphs whose every rotation system is plane;
`star_boundary_spheres` parses the benchmark's spheres with star faces.
"""

from __future__ import annotations

import importlib
import itertools
import random
import sys
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from outerspatial import complexes
from outerspatial.complexes import Face, Graph, TwoComplex, _fresh_name
from outerspatial.embedding import _PATTERNS, _bits, trace_faces
from outerspatial.fileformat import parse_complex
from outerspatial.generators import insert_vertex, tetra
from outerspatial.verdicts import MinorWitness, RotationSystem, _normalize_cycle


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


def perfbench_modules(*names: str):
    """Modules of the benchmark directory, which is not a package.

    The `instances` and `workloads` modules unless others are named.
    """
    where = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, where)
    try:
        return tuple(importlib.import_module(name) for name in names or ("instances", "workloads"))
    finally:
        sys.path.remove(where)


def star_boundary_spheres() -> list[TwoComplex]:
    """Stacked spheres with star faces from the benchmark's builder: each star face is a
    chord in the link of every vertex it passes, and every other link is one cycle."""
    instances, = perfbench_modules("instances")
    rng = random.Random(43)
    return [parse_complex(instances.render(instances.star_boundary(rng, n, k), "QX"))
            for n, k in ((20, 1), (40, 2), (60, 3))]


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
        a = find(traced.orbit_of[eid, 0])
        b = find(traced.orbit_of[eid, 1])
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


def reference_verify_certificate(complex, certificate) -> bool:
    """`decider.verify_certificate` as it was: `trace_faces`, then a label walk over its orbits."""
    graph = complex.graph
    rotation = certificate.rotation
    if frozenset(rotation.vertices()) != graph.vertices:
        return False
    comp_of, parts = graph.component_index()
    certs = {c.vertices: c for c in certificate.components}
    if len(certs) != len(parts) or len(certificate.components) != len(parts):
        return False
    comp_faces = [{} for _ in parts]
    for fid, f in complex.faces.items():
        if not f.is_genuine_cycle():
            return False
        comp_faces[comp_of[f.steps[0][0]]][fid] = f.edge_ids
    if len({frozenset(es) for fs in comp_faces for es in fs.values()}) != len(complex.faces):
        return False
    for part, part_faces in zip(parts, comp_faces):
        cert = certs.get(tuple(sorted(part.vertices)))
        if cert is None or cert.parents.keys() != part_faces.keys():
            return False
        try:
            traced = trace_faces(part, rotation)
        except ValueError:
            return False
        if traced.genus != 0:
            return False
        if not traced.orbits:
            if cert.outer_darts != ():
                return False
            continue
        outer = traced.orbit_of.get(cert.outer_darts[0]) if cert.outer_darts else None
        if outer is None or _normalize_cycle(traced.orbits[outer]) != cert.outer_darts:
            return False
        if not _reference_labels_agree(traced, outer, cert.parents, part_faces):
            return False
    return True


def _reference_labels_agree(traced, outer, parent, faces) -> bool:
    """The label walk of `reference_verify_certificate`, from each orbit's least dart."""
    depth = {None: 0}
    for cid in parent:
        path = []
        while cid not in depth:
            if cid not in parent or len(path) > len(parent):
                return False
            path.append(cid)
            cid = parent[cid]
        for c in reversed(path):
            depth[c] = depth[cid] + 1
            cid = c

    through = {}
    for fid, edge_ids in faces.items():
        for eid in edge_ids:
            through.setdefault(eid, []).append(fid)
    orbits, orbit_of = traced.orbits, traced.orbit_of
    label = {outer: None}
    queue = [outer]
    for x in queue:
        for eid, o in orbits[x]:
            y = orbit_of[(eid, 1 - o)]
            if y in label:
                continue
            got = label[x]
            rest = set(through.get(eid, ()))
            while got in rest:
                rest.remove(got)
                got = parent[got]
            for c in sorted(rest, key=depth.__getitem__):
                if parent[c] != got:
                    return False
                got = c
            label[y] = got
            queue.append(y)
    return True


def enumerate_rotation_systems(graph: Graph) -> Iterator[RotationSystem]:
    """Every rotation system of the graph, in canonical order."""
    verts = sorted(graph.vertices)
    choice_lists = []
    for v in verts:
        hs = graph.half_edges_at(v)
        if not hs:
            choice_lists.append([()])
        else:
            choice_lists.append([(hs[0],) + rest
                                 for rest in itertools.permutations(hs[1:])])
    for combo in itertools.product(*choice_lists):
        yield RotationSystem(dict(zip(verts, combo)))


def _search_minor(graph: Graph, target: str) -> MinorWitness | None:
    """First branch sets of the target minor over all connected vertex subsets, or None."""
    k, pattern_edges = _PATTERNS[target]
    verts = sorted(graph.vertices)
    n = len(verts)
    if n < k:
        return None
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    edge_for: dict[tuple[int, int], str] = {}
    for eid, (u, v) in graph.edges.items():
        if u == v:
            continue
        iu, iv = idx[u], idx[v]
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu
        pair = (min(iu, iv), max(iu, iv))
        edge_for.setdefault(pair, eid)

    connected_subsets = _connected_subsets(adj, n)
    nbr_mask = list(adj)

    def subset_nbrs(mask: int) -> int:
        out = 0
        m = mask
        while m:
            b = m & -m
            out |= nbr_mask[b.bit_length() - 1]
            m ^= b
        return out & ~mask

    requires: list[list[int]] = [[] for _ in range(k)]
    for i, j in pattern_edges:
        requires[max(i, j)].append(min(i, j))

    chosen: list[int] = []

    def place(i: int, used: int) -> bool:
        if i == k:
            return True
        for mask in connected_subsets:
            if mask & used:
                continue
            nb = subset_nbrs(mask)
            if any(not (nb & chosen[j]) for j in requires[i]):
                continue
            chosen.append(mask)
            if place(i + 1, used | mask):
                return True
            chosen.pop()
        return False

    if not place(0, 0):
        return None

    branch_sets = [frozenset(verts[b] for b in _bits(mask)) for mask in chosen]
    connecting: dict[tuple[int, int], str] = {}
    for i, j in pattern_edges:
        found = None
        for a in _bits(chosen[i]):
            for b in _bits(chosen[j]):
                pair = (min(a, b), max(a, b))
                if pair in edge_for:
                    found = edge_for[pair]
                    break
            if found:
                break
        connecting[(i, j)] = found
    return MinorWitness(target, branch_sets, connecting)


def _connected_subsets(adj: list[int], n: int) -> list[int]:
    """All nonempty connected vertex subsets as bitmasks, ascending."""
    out = []
    for mask in range(1, 1 << n):
        low = mask & -mask
        reach = low
        while True:
            grow = reach
            m = reach
            while m:
                b = m & -m
                grow |= adj[b.bit_length() - 1] & mask
                m ^= b
            if grow == reach:
                break
            reach = grow
        if reach == mask:
            out.append(mask)
    return out


def vertex_sum(h1: Graph, h2: Graph, v: str, pairing: Mapping[str, str]) -> Graph:
    """Glue two graphs at a shared vertex by pairing its incident edges.

    The result is the disjoint union minus v, with one new edge per pair of
    incident edges identified by the pairing.
    """
    if v not in h1.vertices or v not in h2.vertices:
        raise ValueError(f"{v} must be a vertex of both graphs")
    shared = h1.vertices & h2.vertices
    if shared != {v}:
        raise ValueError(f"graphs must be disjoint apart from {v}; shared: {sorted(shared)}")
    inc1, inc2 = set(h1.incident_edges(v)), set(h2.incident_edges(v))
    if any(h.is_loop(e) for h, es in ((h1, inc1), (h2, inc2)) for e in es):
        raise ValueError("vertex sum is undefined with loops at the summing vertex")
    if set(pairing) != inc1 or set(pairing.values()) != inc2 or len(set(pairing.values())) != len(pairing):
        raise ValueError("pairing must be a bijection between the incident edge sets")

    vertices = (h1.vertices | h2.vertices) - {v}
    edges: dict[str, tuple[str, str]] = {}
    for h, inc in ((h1, inc1), (h2, inc2)):
        for eid, (a, b) in h.edges.items():
            if eid in inc:
                continue
            edges[eid] = (a, b)

    def other(h: Graph, eid: str) -> str:
        a, b = h.endpoints(eid)
        return b if a == v else a

    used = set(edges)
    for e1 in sorted(pairing):
        e2 = pairing[e1]
        nid = _fresh_name(e1 if e1 == e2 else f"{e1}~{e2}", used)
        used.add(nid)
        edges[nid] = (other(h1, e1), other(h2, e2))
    return Graph(vertices, edges)


def path_along(graph: Graph, vertices: Sequence[str]) -> complexes.Path:
    """The path through the vertices, by the least edge joining each consecutive two."""
    edge_ids = []
    for u, v in zip(vertices, vertices[1:]):
        cands = graph.edges_between(u, v)
        if not cands:
            raise ValueError(f"no edge between {u} and {v}")
        edge_ids.append(cands[0])
    return complexes.Path(vertices, edge_ids)


def random_planar_graph(seed: int, max_vertices: int = 8) -> Graph:
    """A seeded random planar graph: a grown triangulation minus random edges."""
    rng = random.Random(seed)
    complex = tetra()
    target = rng.randrange(4, max_vertices + 1)
    while len(complex.graph.vertices) < target:
        triangles = [fid for fid, f in complex.faces.items() if len(f) == 3]
        fid = rng.choice(triangles)
        complex = insert_vertex(complex, fid, f"v{len(complex.graph.vertices)}")
    g = complex.graph
    kept = {e: uv for e, uv in g.edges.items() if rng.random() > 0.25}
    return Graph(g.vertices, kept)


def triangles_of(graph: Graph) -> dict[str, tuple[str, str, str]]:
    """All triangles of a simple graph, keyed deterministically."""
    out = {}
    for i, (u, v, w) in enumerate(
            t for t in itertools.combinations(sorted(graph.vertices), 3)
            if graph.edges_between(t[0], t[1]) and graph.edges_between(t[0], t[2])
            and graph.edges_between(t[1], t[2])):
        out[f"t{i}"] = (u, v, w)
    return out


PSEUDOFOREST_KINDS = ("tree", "loop", "digon", "cycle")


def random_pseudoforest(seed: int, kinds: Sequence[str] = PSEUDOFOREST_KINDS) -> Graph:
    """One to four components, each with at most as many edges as vertices.

    Each component is drawn from `kinds`: a tree grown from a star of
    degree 3, or a loop, a digon or a cycle of length 3 to 6, with one to
    five pendant vertices hung on it one by one, the first at its hub.  So
    every component has a vertex of degree 3 or more.  Edge ids are shuffled, so
    the sorted half-edges at a vertex come in no fixed order of its
    neighbours.
    """
    rng = random.Random(seed)
    vertices: list[str] = []
    ends: list[tuple[str, str]] = []

    def vertex() -> str:
        vertices.append(f"v{len(vertices):02d}")
        return vertices[-1]

    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(kinds)
        hub = vertex()
        if kind == "tree":
            part = [hub] + [vertex() for _ in range(3)]
            ends += [(hub, leaf) for leaf in part[1:]]
        elif kind == "loop":
            part = [hub]
            ends.append((hub, hub))
        else:
            part = [hub] + [vertex() for _ in range(1 if kind == "digon" else rng.randrange(2, 6))]
            ends += zip(part, part[1:] + part[:1])
        for i in range(rng.randrange(1, 6)):
            at = hub if i == 0 else rng.choice(part)
            part.append(vertex())
            ends.append((at, part[-1]) if rng.random() < 0.5 else (part[-1], at))
    names = [f"e{i:02d}" for i in range(len(ends))]
    rng.shuffle(names)
    return Graph(vertices, dict(zip(names, ends)))
