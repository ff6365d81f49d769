"""Seeded benchmark instances, built as plain text without the library.

Every instance is an abstract complex (vertices, edges, faces as vertex
cycles) with the verdict kind known from how it was built.  `render` turns
it into the program's text format under fresh ids, so each timed operation
sees vertex, edge and face ids no earlier one saw: no module-level cache
keyed by labels can answer it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POSITIVE = "outerspatial"
NEGATIVE = "not-outerspatial"


@dataclass(frozen=True)
class Instance:
    name: str
    expect: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    faces: tuple[tuple[str, ...], ...]

    @property
    def labels(self) -> int:
        return len(self.vertices) + len(self.edges) + len(self.faces)


def _build(name: str, expect: str, faces: list[tuple[str, ...]]) -> Instance:
    """An instance whose vertices and edges are those the faces pass."""
    edges: dict[frozenset, tuple[str, str]] = {}
    vertices: dict[str, None] = {}
    for face in faces:
        for i, u in enumerate(face):
            v = face[(i + 1) % len(face)]
            vertices.setdefault(u)
            edges.setdefault(frozenset((u, v)), (u, v))
    return Instance(name, expect, tuple(vertices), tuple(edges.values()), tuple(faces))


def render(inst: Instance, tag: str) -> str:
    """The instance as complex-file text, every id renamed to `<tag><index>`.

    Ids keep their relative sort order, so every rendering of an instance
    costs the program the same work; a tag used once gives ids no earlier
    operation has seen.
    """
    width = len(str(inst.labels))
    labels = iter(f"{tag}{i:0{width}d}" for i in range(inst.labels))
    vname = {v: next(labels) for v in inst.vertices}
    lines = [f"vertex {vname[v]}" for v in inst.vertices]
    for u, v in inst.edges:
        lines.append(f"edge {next(labels)} {vname[u]} {vname[v]}")
    for face in inst.faces:
        lines.append(f"face {next(labels)} " + " ".join(vname[v] for v in face))
    return "\n".join(lines) + "\n"


# -- spheres -------------------------------------------------------------

def _stacked_faces(rng: random.Random, n_vertices: int) -> list[tuple[str, ...]]:
    """Tetrahedron boundary plus seeded vertex insertions into triangles."""
    faces = [("0", "1", "2"), ("0", "1", "3"), ("0", "2", "3"), ("1", "2", "3")]
    for x in range(4, n_vertices):
        u, v, w = faces.pop(rng.randrange(len(faces)))
        new = str(x)
        faces += [(new, u, v), (new, v, w), (new, w, u)]
    return faces


def stacked(rng: random.Random, n_vertices: int) -> Instance:
    return _build(f"stacked-v{n_vertices}", POSITIVE, _stacked_faces(rng, n_vertices))


def prism(n: int) -> Instance:
    top = [f"t{i}" for i in range(n)]
    bot = [f"b{i}" for i in range(n)]
    faces = [tuple(top), tuple(bot)]
    for i in range(n):
        j = (i + 1) % n
        faces.append((top[i], top[j], bot[j], bot[i]))
    return _build(f"prism-{n}", POSITIVE, faces)


def bipyramid_with_equator(n: int) -> Instance:
    eq = [f"q{i}" for i in range(n)]
    faces = []
    for i in range(n):
        u, v = eq[i], eq[(i + 1) % n]
        faces += [("n", u, v), ("s", u, v)]
    faces.append(tuple(eq))
    return _build(f"bipyramid-equator-{n}", POSITIVE, faces)


def tetra() -> Instance:
    return _build("tetra", POSITIVE, _stacked_faces(random.Random(0), 4))


def _neighbour_cycle(faces: list[tuple[str, ...]], v: str) -> tuple[str, ...]:
    """Neighbours of v in cyclic order, read off the triangles at v."""
    adj: dict[str, list[str]] = {}
    for face in faces:
        if v in face:
            a, b = (x for x in face if x != v)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    start = min(adj)
    cycle, prev, at = [start], None, start
    while True:
        nxt = next(w for w in adj[at] if w != prev)
        if nxt == start:
            return tuple(cycle)
        cycle.append(nxt)
        prev, at = at, nxt


def star_boundary(rng: random.Random, n_vertices: int, n_stars: int) -> Instance:
    """Stacked sphere plus the neighbour cycles of `n_stars` vertices as faces.

    A centre has degree >= 4 and so do all its neighbours, so each new face
    is a chord (never a parallel edge) in the link of every vertex it
    passes.  Centres are at distance >= 3 from each other, so no link gets
    two chords.  Like the equator of a bipyramid, each new face is chordal
    at all of its vertices and the complex stays outerspatial.
    """
    for _ in range(100):
        faces = _stacked_faces(rng, n_vertices)
        nbrs: dict[str, set[str]] = {}
        for face in faces:
            for x in face:
                nbrs.setdefault(x, set()).update(y for y in face if y != x)
        ok = sorted((v for v in nbrs
                     if len(nbrs[v]) >= 4 and all(len(nbrs[w]) >= 4 for w in nbrs[v])),
                    key=int)
        rng.shuffle(ok)
        centres: list[str] = []
        for v in ok:
            near = nbrs[v] | {v}
            if all(not (near & (nbrs[c] | {c})) for c in centres):
                centres.append(v)
            if len(centres) == n_stars:
                stars = [_neighbour_cycle(faces, c) for c in centres]
                return _build(f"star-v{n_vertices}x{n_stars}", POSITIVE, faces + stars)
    raise ValueError(f"no {n_stars} far-apart star centres in 100 stacked spheres")


# -- negatives -----------------------------------------------------------

def _subdivided(rng: random.Random, branch_edges: list[tuple[str, str]],
                n_vertices: int) -> list[tuple[str, str]]:
    """Edges of the graph with its edges subdivided up to `n_vertices` vertices.

    The new vertices are spread as evenly as possible; the seed picks which
    edges carry the extra ones, so the search cost varies little by seed.
    """
    branch = {v for e in branch_edges for v in e}
    q, r = divmod(n_vertices - len(branch), len(branch_edges))
    longer = set(rng.sample(range(len(branch_edges)), r))
    extra = [q + (i in longer) for i in range(len(branch_edges))]
    edges = []
    fresh = 0
    for (u, v), k in zip(branch_edges, extra):
        chain = [u]
        for _ in range(k):
            chain.append(f"s{fresh}")
            fresh += 1
        chain.append(v)
        edges += list(zip(chain, chain[1:]))
    return edges


K4 = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
K23 = [("a", "x"), ("a", "y"), ("a", "z"), ("b", "x"), ("b", "y"), ("b", "z")]


def cone(rng: random.Random, minor: str, link_size: int) -> Instance:
    """Cone over a seeded subdivision of K4 or K2,3: the apex link is that graph."""
    graph = _subdivided(rng, K4 if minor == "K4" else K23, link_size)
    return _build(f"cone-{minor.lower().replace(',', '')}-{link_size}", NEGATIVE,
                  [("apex", u, v) for u, v in graph])


def _torus7_faces() -> list[tuple[str, ...]]:
    faces = []
    for i in range(7):
        faces.append((str(i), str((i + 1) % 7), str((i + 3) % 7)))
        faces.append((str(i), str((i + 2) % 7), str((i + 3) % 7)))
    return faces


def torus(rng: random.Random, insertions: int) -> Instance:
    """The 7-vertex torus with seeded vertex insertions into triangles."""
    faces = _torus7_faces()
    for x in range(7, 7 + insertions):
        u, v, w = faces.pop(rng.randrange(len(faces)))
        new = str(x)
        faces += [(new, u, v), (new, v, w), (new, w, u)]
    return _build(f"torus-v{7 + insertions}", NEGATIVE, faces)


def torus_glued_tetra(rng: random.Random) -> Instance:
    """torus7 with a tetrahedron boundary glued at one seeded vertex.

    The glue vertex has a disconnected link, so the hypothesis fails and
    only the aspherical-subcomplex search (18 faces) settles it.
    """
    at = str(rng.randrange(7))
    tet = [(at, "x1", "x2"), (at, "x1", "x3"), (at, "x2", "x3"), ("x1", "x2", "x3")]
    return _build("torus7-glued-tetra", NEGATIVE, _torus7_faces() + tet)


def torus7() -> Instance:
    return _build("torus7", NEGATIVE, _torus7_faces())


def cone_k23() -> Instance:
    return _build("cone-k23", NEGATIVE, [("apex", u, v) for u, v in K23])
