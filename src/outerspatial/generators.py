"""Built-in complexes and seeded random instance generators."""

from __future__ import annotations

import itertools
import random
import string
from typing import Mapping, Sequence

from .complexes import (Corner, Face, Graph, TwoComplex, _fresh_name,
                        complete_bipartite, complete_graph, cone, link_cycles,
                        validate)
from .decider import is_locally_2_connected
from .oracle import rotation_space_size


def tetra() -> TwoComplex:
    """The tetrahedron boundary: K4 with all four triangles."""
    g = complete_graph("abcd")
    faces = [Face.from_vertices(g, "".join(t), t)
             for t in itertools.combinations("abcd", 3)]
    return TwoComplex(g, faces)


def _bipyramid_names(n: int) -> tuple[str, ...]:
    if not 3 <= n <= 13:
        raise ValueError("bipyramid size must be between 3 and 13")
    return tuple(string.ascii_lowercase[:n])


def bipyramid(n: int) -> TwoComplex:
    """Two apexes over an n-gon equator, triangulating a sphere."""
    eq = _bipyramid_names(n)
    vertices = set(eq) | {"n", "s"}
    edges: dict[str, tuple[str, str]] = {}
    for i in range(n):
        u, v = eq[i], eq[(i + 1) % n]
        a, b = sorted((u, v))
        edges[f"{a}{b}"] = (a, b)
    for v in eq:
        edges[f"n{v}"] = ("n", v)
        edges[f"s{v}"] = ("s", v)
    g = Graph(vertices, edges)
    faces = []
    for i in range(n):
        u, v = eq[i], eq[(i + 1) % n]
        faces.append(Face.from_vertices(g, f"n{u}{v}", ("n", u, v)))
        faces.append(Face.from_vertices(g, f"s{u}{v}", ("s", u, v)))
    return TwoComplex(g, faces)


def bipyramid_with_equator(n: int) -> TwoComplex:
    """Bipyramid sphere plus the equator cycle as an extra face."""
    base = bipyramid(n)
    eq = _bipyramid_names(n)
    faces = list(base.faces.values())
    faces.append(Face.from_vertices(base.graph, "eq", eq))
    return TwoComplex(base.graph, faces)


def torus7() -> TwoComplex:
    """The 7-vertex torus triangulation on K7: faces {i,i+1,i+3} and {i,i+2,i+3}."""
    names = [str(i) for i in range(7)]
    edges = {f"e{u}{v}": (u, v)
             for u, v in itertools.combinations(names, 2)}
    g = Graph(names, edges)
    faces = []
    for i in range(7):
        a = [str(i), str((i + 1) % 7), str((i + 3) % 7)]
        b = [str(i), str((i + 2) % 7), str((i + 3) % 7)]
        faces.append(Face.from_vertices(g, f"a{i}", a))
        faces.append(Face.from_vertices(g, f"b{i}", b))
    return TwoComplex(g, faces)


def prism(n: int) -> TwoComplex:
    """Two n-gons joined by squares: a sphere with quadrilateral sides."""
    if n < 3:
        raise ValueError("prism size must be at least 3")
    top = [f"t{i}" for i in range(n)]
    bot = [f"b{i}" for i in range(n)]
    edges: dict[str, tuple[str, str]] = {}
    for ring in (top, bot):
        for i in range(n):
            u, v = ring[i], ring[(i + 1) % n]
            edges[f"{u}{v}"] = (u, v)
    for i in range(n):
        edges[f"t{i}b{i}"] = (top[i], bot[i])
    g = Graph(top + bot, edges)
    faces = [Face.from_vertices(g, "top", top),
             Face.from_vertices(g, "bot", bot)]
    for i in range(n):
        j = (i + 1) % n
        faces.append(Face.from_vertices(g, f"side{i}",
                                        (top[i], top[j], bot[j], bot[i])))
    return TwoComplex(g, faces)


def named_graph(name: str) -> Graph:
    if name == "k4":
        return complete_graph("abcd")
    if name == "k23":
        return complete_bipartite(("u1", "u2"), ("w1", "w2", "w3"))
    raise ValueError(f"unknown graph name {name}")


def cone_over_graph(graph: Graph) -> TwoComplex:
    """The 2-dimensional cone over the faceless complex on a graph."""
    return cone(TwoComplex(graph, []))


def insert_vertex(complex: TwoComplex, face_id: str, new_vertex: str) -> TwoComplex:
    """Split a triangular face into three around a new interior vertex."""
    face = complex.faces[face_id]
    if len(face) != 3 or not face.is_genuine_cycle():
        raise ValueError("vertex insertion needs a triangular face")
    g = complex.graph
    if new_vertex in g.vertices:
        raise ValueError(f"vertex {new_vertex} already exists")
    u, v, w = face.vertices
    edges = dict(g.edges)
    for x in (u, v, w):
        edges[f"{new_vertex}{x}"] = (new_vertex, x)
    new_g = Graph(set(g.vertices) | {new_vertex}, edges)
    faces = [f for fid, f in complex.faces.items() if fid != face_id]
    taken = set(complex.faces)
    for a, b in ((u, v), (v, w), (w, u)):
        fid = _fresh_name(f"{new_vertex}{a}{b}", taken)
        taken.add(fid)
        faces.append(Face.from_vertices(new_g, fid, (new_vertex, a, b)))
    return TwoComplex(new_g, faces)


def all_cycles(graph: Graph, max_len: int) -> list[tuple[str, ...]]:
    """Genuine cycles as canonical vertex tuples (simple graphs only)."""
    found: set[tuple[str, ...]] = set()
    verts = sorted(graph.vertices)

    def extend(path: list[str]) -> None:
        s = path[0]
        at = path[-1]
        for w in sorted(graph.neighbors(at)):
            if w == s and len(path) >= 3:
                canon = _canonical_cycle(path)
                found.add(canon)
            if w <= s or w in path or len(path) >= max_len:
                continue
            path.append(w)
            extend(path)
            path.pop()

    for s in verts:
        extend([s])
    return sorted(found)


def _canonical_cycle(path: Sequence[str]) -> tuple[str, ...]:
    rest = list(path[1:])
    if rest and rest[0] > rest[-1]:
        rest = rest[::-1]
    return (path[0], *rest)


def _corner_conflicts(complex: TwoComplex,
                      rings: Mapping[str, tuple[tuple[str, ...] | None, list[Corner]]],
                      cycle: Sequence[str]) -> bool:
    """Would adding this genuine cycle as a face give some link a parallel edge?

    `rings` is `link_cycles` of the complex, which is simple, so its links
    name their vertices by edge id.
    """
    g = complex.graph
    k = len(cycle)
    for i, v in enumerate(cycle):
        e_in = g.edges_between(cycle[i - 1], v)[0]
        e_out = g.edges_between(v, cycle[(i + 1) % k])[0]
        for _, come, go in rings[v][1]:
            if (come, go) in ((e_in, e_out), (e_out, e_in)):
                return True
    return False


_BASES = ("tetra", "bipyramid3", "bipyramid4", "prism3", "prism4")

# A random complex gets no extra face once it has this many faces, and its
# skeleton has at most this many rotation systems.
RANDOM_MAX_FACES = 12
RANDOM_ROTATION_BUDGET = 60_000


def _base_complex(name: str) -> TwoComplex:
    if name == "tetra":
        return tetra()
    if name.startswith("bipyramid"):
        return bipyramid(int(name[len("bipyramid"):]))
    if name.startswith("prism"):
        return prism(int(name[len("prism"):]))
    raise ValueError(name)


def random_complex(seed: int, max_vertices: int = 8) -> TwoComplex:
    """A seeded random locally 2-connected complex.

    Starts from a small sphere (triangulated or quad-sided), optionally
    inserts vertices into triangles, then adds extra cycle faces while links
    stay simple.  The rotation-space size is kept within
    `RANDOM_ROTATION_BUDGET` so exhaustive embedding enumeration stays
    cheap.  Every base sphere has at least four vertices, so fewer is a
    ValueError.
    """
    if max_vertices < 4:
        raise ValueError(f"a random complex needs at least 4 vertices, not {max_vertices}")
    rng = random.Random(seed)
    for _ in range(64):
        complex = _base_complex(rng.choice(_BASES))
        for _ in range(rng.randrange(3)):
            if len(complex.graph.vertices) >= max_vertices:
                break
            triangles = [fid for fid, f in complex.faces.items() if len(f) == 3]
            if not triangles:
                break
            fid = rng.choice(triangles)
            name = f"v{len(complex.graph.vertices)}"
            cand = insert_vertex(complex, fid, name)
            if rotation_space_size(cand.graph) <= RANDOM_ROTATION_BUDGET:
                complex = cand
        for _ in range(rng.randrange(3)):
            if len(complex.faces) >= RANDOM_MAX_FACES:
                break
            cycles = all_cycles(complex.graph, max_len=min(6, len(complex.graph.vertices)))
            rng.shuffle(cycles)
            rings = link_cycles(complex)
            for cyc in cycles:
                if _corner_conflicts(complex, rings, cyc):
                    continue
                cand_face = Face.from_vertices(complex.graph, f"x{len(complex.faces)}", cyc)
                if any(cand_face.steps == f.steps for f in complex.faces.values()):
                    continue
                complex = TwoComplex(complex.graph, list(complex.faces.values()) + [cand_face])
                break
        if (not validate(complex) and is_locally_2_connected(complex)
                and len(complex.graph.vertices) <= max_vertices
                and rotation_space_size(complex.graph) <= RANDOM_ROTATION_BUDGET):
            return complex
    raise AssertionError("random complex generation failed to converge")
