"""Two-dimensional complexes: graphs with a set of cycles attached as faces.

A complex is a (multi)graph together with faces given by closed boundary
walks.  Valid input complexes have genuine cycles as boundaries (no repeated
vertex, length at least three); degenerate walks are still representable so
that edge contraction stays total.  All values are immutable after
construction and every operation returns a new value.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

# A half-edge is (edge id, end index); end 0/1 refer to the stored endpoint
# pair.  A dart (directed half-edge) uses the same encoding: (e, o) traverses
# e from endpoints[o] to endpoints[1 - o].
HalfEdge = tuple[str, int]
Dart = HalfEdge


class Graph:
    """Undirected multigraph with labelled edges; loops and parallels allowed.

    Edge i in ascending id order has half-edges 2i + o, which sort as (id, o).
    """

    def __init__(self, vertices: Iterable[str], edges: Mapping[str, tuple[str, str]]):
        self._vertices = frozenset(vertices)
        self._edges: dict[str, tuple[str, str]] = {}
        self._edges_view = MappingProxyType(self._edges)
        self._number: dict[str, int] = {}
        incident: dict[str, list[str]] = {v: [] for v in sorted(self._vertices)}
        pairs: dict[tuple[str, str], tuple[str, ...]] = {}
        for i, eid in enumerate(sorted(edges)):
            u, v = edges[eid]
            if u not in incident or v not in incident:
                raise ValueError(f"edge {eid} has undeclared endpoint")
            self._edges[eid] = (u, v)
            self._number[eid] = i
            incident[u].append(eid)
            if v != u:
                incident[v].append(eid)
            ab = (u, v) if u <= v else (v, u)
            pairs[ab] = pairs[ab] + (eid,) if ab in pairs else (eid,)
        self._incident = {v: tuple(es) for v, es in incident.items()}
        self._pairs = pairs
        self._components: tuple[dict[str, int], tuple[Graph, ...]] | None = None

    @property
    def vertices(self) -> frozenset[str]:
        return self._vertices

    @property
    def edges(self) -> Mapping[str, tuple[str, str]]:
        """Edge id -> endpoint pair, in ascending id order; a read-only view."""
        return self._edges_view

    def endpoints(self, eid: str) -> tuple[str, str]:
        return self._edges[eid]

    def is_loop(self, eid: str) -> bool:
        u, v = self._edges[eid]
        return u == v

    def incident_edges(self, v: str) -> tuple[str, ...]:
        """Edge ids at v, sorted; a loop appears once."""
        return self._incident[v]

    def half_edges_at(self, v: str) -> tuple[HalfEdge, ...]:
        """Half-edges at v, sorted; a loop contributes both of its ends."""
        out: list[HalfEdge] = []
        for eid in self._incident[v]:
            u, w = self._edges[eid]
            if u == w:
                out.append((eid, 0))
                out.append((eid, 1))
            else:
                out.append((eid, 0 if u == v else 1))
        return tuple(sorted(out))

    def degree(self, v: str) -> int:
        return len(self.half_edges_at(v))

    def neighbors(self, v: str) -> frozenset[str]:
        out = set()
        for eid in self._incident[v]:
            u, w = self._edges[eid]
            out.add(w if u == v else u)
        out.discard(v)
        return frozenset(out)

    def endpoint_pairs(self) -> Mapping[tuple[str, str], tuple[str, ...]]:
        """Endpoint pair (a, b), a <= b, -> its edge ids, ascending; a loop at a under (a, a).

        Pairs come in order of their least edge id.  Built with the incidences.
        """
        return MappingProxyType(self._pairs)

    def edges_between(self, u: str, v: str) -> tuple[str, ...]:
        """Edge ids joining u and v, sorted; the loops at u when u == v.  Reads the endpoint-pair index."""
        return self._pairs.get((u, v) if u <= v else (v, u), ())

    def loops(self) -> tuple[str, ...]:
        """Loop ids, ascending."""
        return tuple(e for e, (u, v) in self._edges.items() if u == v)

    def parallel_pairs(self) -> tuple[tuple[str, str], ...]:
        """Pairs (a, b), a < b, of distinct edges with the same endpoint set, sorted."""
        return tuple(sorted(pair for group in self.endpoint_pairs().values() if len(group) > 1
                            for pair in itertools.combinations(group, 2)))

    def is_simple(self) -> bool:
        """No loop and no two edges with the same endpoints."""
        return len(self.endpoint_pairs()) == len(self._edges) and not self.loops()

    def component_index(self) -> tuple[dict[str, int], tuple["Graph", ...]]:
        """Vertex -> component id, and the components as graphs, ordered by smallest vertex.

        Built on first call and kept: one search over the incidences and one
        pass bucketing the edges.  A connected graph is its own component.
        """
        if self._components is None:
            comp_of: dict[str, int] = {}
            groups: list[list[str]] = []
            for start in self._incident:  # sorted
                if start in comp_of:
                    continue
                comp_of[start] = len(groups)
                group = [start]
                for v in group:
                    for eid in self._incident[v]:
                        u, w = self._edges[eid]
                        w = u if w == v else w
                        if w not in comp_of:
                            comp_of[w] = len(groups)
                            group.append(w)
                groups.append(group)
            if len(groups) == 1:
                parts: tuple[Graph, ...] = (self,)
            else:
                edges: list[dict[str, tuple[str, str]]] = [{} for _ in groups]
                for eid, uv in self._edges.items():
                    edges[comp_of[uv[0]]][eid] = uv
                parts = tuple(Graph(vs, es) for vs, es in zip(groups, edges))
            self._components = (comp_of, parts)
        return self._components

    def is_connected(self) -> bool:
        return len(self.component_index()[1]) <= 1

    def induced_subgraph(self, vertices: Iterable[str]) -> "Graph":
        vs = frozenset(vertices)
        edges = {e: uv for e, uv in self._edges.items() if uv[0] in vs and uv[1] in vs}
        return Graph(vs, edges)

    def canonical_key(self) -> tuple:
        return (tuple(sorted(self._vertices)), tuple(sorted(self._edges.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"Graph({len(self._vertices)} vertices, {len(self._edges)} edges)"


def complete_graph(names: Sequence[str]) -> Graph:
    edges = {f"{u}{v}": (u, v) for u, v in itertools.combinations(sorted(names), 2)}
    return Graph(names, edges)


def complete_bipartite(left: Sequence[str], right: Sequence[str]) -> Graph:
    edges = {f"{u}{v}": (u, v) for u in left for v in right}
    return Graph(list(left) + list(right), edges)


# Face boundaries are closed walks stored as steps (vertex, edge, orientation):
# step i leaves vertex v_i along e_i, arriving at v_{i+1}; orientation o_i says
# e_i is traversed from its stored endpoint o_i.  Orientations matter only for
# loop edges, where the vertex alone cannot identify the half-edge used.
Step = tuple[str, str, int]


class Face:
    """A face: an id plus a closed boundary walk in canonical form.

    The walk's least rotation or reflection, from `_canonical_walk` or, for
    a genuine cycle, built at once by `from_vertices`; whether the walk is a
    genuine cycle is found there too and kept for `is_genuine_cycle`.
    """

    def __init__(self, face_id: str, steps: Sequence[Step]):
        if not steps:
            raise ValueError(f"face {face_id}: empty boundary")
        self.face_id = face_id
        self.steps, self._genuine = _canonical_walk(tuple(steps))

    @classmethod
    def from_vertices(cls, graph: Graph, face_id: str, vertices: Sequence[str],
                      kind: str = "face") -> "Face":
        """Build from a vertex sequence; edges are inferred and must be unique; errors say `kind`.

        Each pair of consecutive vertices, the closing pair last, is looked
        up in the graph's endpoint-pair index, so the first bad pair in walk
        order is reported.  A genuine cycle is built in canonical form at
        once: from its least vertex along the lesser of its two edges there,
        each edge traversed from the stored endpoint it leaves.  Only a
        degenerate walk goes through `_canonical_walk`.  Each step's vertex
        is the graph's stored endpoint, not the caller's equal string.
        """
        pairs, ends = graph._pairs, graph._edges
        eids = []
        for u, v in zip(vertices, vertices[1:] + vertices[:1]):
            cands = pairs.get((u, v) if u <= v else (v, u), ())
            if len(cands) != 1:
                if not cands:
                    raise ValueError(f"{kind} {face_id}: no edge between {u} and {v}")
                hint = "; list edge ids instead" if kind == "face" else ""  # a cycle has no `facee`
                raise ValueError(f"{kind} {face_id}: ambiguous edge between {u} and {v}{hint}")
            eids.append(cands[0])
        k = len(eids)
        if k < 3 or len(set(vertices)) < k:
            return cls(face_id, [(ends[e][0], e, 0) if ends[e][0] == u else (ends[e][1], e, 1)
                                 for u, e in zip(vertices, eids)])
        # Edge e_j joins v_j and v_(j+1).  From the least vertex v_i the walk
        # runs forward along e_i or backward along e_(i-1); indices may be negative.
        i = vertices.index(min(vertices))
        back = eids[i - 1] < eids[i]
        steps = []
        for j in range(i, i - k, -1) if back else range(i - k, i):
            e = eids[j - back]
            u, w = ends[e]
            steps.append((u, e, 0) if u == vertices[j] else (w, e, 1))
        face = cls.__new__(cls)
        face.face_id, face.steps, face._genuine = face_id, tuple(steps), True
        return face

    @classmethod
    def from_edges(cls, graph: Graph, face_id: str, edge_ids: Sequence[str]) -> "Face":
        """Build from an edge sequence forming a closed walk."""
        k = len(edge_ids)
        if k == 0:
            raise ValueError(f"face {face_id}: empty boundary")
        for eid in edge_ids:
            if eid not in graph.edges:
                raise ValueError(f"face {face_id}: unknown edge {eid}")
        # Choose the start vertex of the first edge so the walk closes up.
        first = edge_ids[0]
        for o0 in (0, 1):
            steps = _walk_from(graph, edge_ids, graph.endpoints(first)[o0])
            if steps is not None:
                return cls(face_id, steps)
        raise ValueError(f"face {face_id}: edges do not form a closed walk")

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(s[0] for s in self.steps)

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(s[1] for s in self.steps)

    @property
    def edge_set(self) -> frozenset[str]:
        return frozenset(self.edge_ids)

    def __len__(self) -> int:
        return len(self.steps)

    def is_genuine_cycle(self) -> bool:
        """No repeated vertex and length at least three; found when the face was built."""
        return self._genuine

    def __eq__(self, other) -> bool:
        return isinstance(other, Face) and (self.face_id, self.steps) == (other.face_id, other.steps)

    def __hash__(self) -> int:
        return hash((self.face_id, self.steps))

    def __repr__(self) -> str:
        return f"Face({self.face_id}: {'-'.join(self.vertices)})"


def _walk_from(graph: Graph, edge_ids: Sequence[str], start: str) -> tuple[Step, ...] | None:
    steps: list[Step] = []
    at = start
    for eid in edge_ids:
        u, v = graph.endpoints(eid)
        if at == u:
            steps.append((at, eid, 0))
            at = v
        elif at == v:
            steps.append((at, eid, 1))
            at = u
        else:
            return None
    return tuple(steps) if at == start else None


def _canonical_walk(steps: tuple[Step, ...]) -> tuple[tuple[Step, ...], bool]:
    """Lexicographically minimal rotation or reflection of the walk, and whether it is a genuine cycle.

    A genuine cycle starts at its least vertex, where steps compare by
    vertex first, and goes along the lesser of the two edges there: the
    forward walk leaves by its first step's edge and the reflected one by
    its last step's.  On a face of a graph these two edges differ, which is
    how `Face.from_vertices` builds a genuine cycle without coming here.
    Only raw step tuples can repeat an id there; the tie takes the lesser of
    the whole forward and reflected walks.  A walk with a repeated vertex
    takes each direction's least rotation.  Faces built from raw steps, by
    `from_edges` and `contract_path` among others, come here.
    """
    vs = [s[0] for s in steps]
    if len(vs) >= 3 and len(set(vs)) == len(vs):
        i = vs.index(min(vs))
        forward = steps[i:] + steps[:i]
        out, back = forward[0][1], forward[-1][1]
        if out != back:
            return (forward if out < back else _reflect(forward)), True
        return min(forward, _reflect(forward)), True
    return min(_least_rotation(steps), _least_rotation(_reflect(steps))), False


def _least_rotation(seq: tuple) -> tuple:
    """The lexicographically least rotation, in linear time and space.

    Starts i and j first differ k steps on, i with the larger step: then
    i, ..., i + k all lose, as the rotation from i + t agrees with the one
    from j + t for k - t steps and then is larger.
    """
    n = len(seq)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    r = min(i, j)
    return seq[r:] + seq[:r]


def _reflect(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    """The walk backwards from its first vertex: v0, v(k-1), ..., v1 along e(k-1), ..., e0."""
    back = steps[::-1]
    return tuple((v, e, 1 - o) for (v, _, _), (_, e, o) in zip(steps[:1] + back[:-1], back))


class TwoComplex:
    """A graph plus a set of faces with closed boundary walks."""

    def __init__(self, graph: Graph, faces: Iterable[Face]):
        self.graph = graph
        self._faces: dict[str, Face] = {}
        self._faces_view = MappingProxyType(self._faces)
        edges = graph.edges
        for f in sorted(faces, key=lambda f: f.face_id):
            if f.face_id in self._faces:
                raise ValueError(f"duplicate face id {f.face_id}")
            # Each step leaves its vertex and ends at the next step's vertex, w.
            w = f.steps[0][0]
            for v, e, o in reversed(f.steps):
                if e not in edges:
                    raise ValueError(f"face {f.face_id}: unknown edge {e}")
                ends = graph.endpoints(e)
                if ends[o] != v:
                    raise ValueError(f"face {f.face_id}: walk not incident at {v}")
                if ends[1 - o] != w:
                    raise ValueError(f"face {f.face_id}: edge {e} does not end at {w}")
                w = v
            self._faces[f.face_id] = f

    @classmethod
    def _regroup(cls, graph: Graph, faces: Iterable[Face]) -> "TwoComplex":
        """The complex on faces sorted by id, without the per-step check; each caller's faces fit:
        `delete_faces`, `face_subcomplex` and `split_components` keep each face's
        edges, with their ends, from a built complex; `parse_complex` and
        `associated_complex` build faces by walking the graph and refuse repeated ids.
        """
        out = cls(graph, ())
        out._faces.update((f.face_id, f) for f in sorted(faces, key=lambda f: f.face_id))
        return out

    @property
    def faces(self) -> Mapping[str, Face]:
        """Face id -> face, in ascending id order; a read-only view."""
        return self._faces_view

    def canonical_key(self) -> tuple:
        return (self.graph.canonical_key(),
                tuple((fid, f.steps) for fid, f in self._faces.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoComplex) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return (f"TwoComplex({len(self.graph.vertices)} vertices, "
                f"{len(self.graph.edges)} edges, {len(self._faces)} faces)")


# A corner of a face at a vertex: (face id, half-edge the walk arrives by, half-edge it
# leaves by).  A half-edge, a link vertex, is named by its edge id, or `e:0` and `e:1`
# for the ends of a loop e.
Corner = tuple[str, str, str]


def link_corners(complex: TwoComplex, vertices: Iterable[str] | None = None) -> dict[str, list[Corner]]:
    """The corners at each of the vertices, every vertex by default, in face order: one pass over the face steps."""
    g = complex.graph
    out: dict[str, list[Corner]] = {v: [] for v in (g.vertices if vertices is None else vertices)}
    loops = set(g.loops())
    for fid, f in complex.faces.items():
        _, e, o = f.steps[-1]
        come = f"{e}:{1 - o}" if e in loops else e
        for w, e, o in f.steps:
            if e in loops:
                go, arrive = f"{e}:{o}", f"{e}:{1 - o}"
            else:
                go = arrive = e
            if w in out:
                out[w].append((fid, come, go))
            come = arrive
    return out


def _link_vertices(graph: Graph, v: str) -> dict[str, int]:
    """The half-edges at v, named as corners name them, in incident edge order, to their numbers."""
    names: dict[str, int] = {}
    for eid in graph.incident_edges(v):
        a, b = graph.endpoints(eid)
        h = 2 * graph._number[eid]
        if a == b:  # A loop gives two link vertices, one per end.
            names[f"{eid}:0"], names[f"{eid}:1"] = h, h + 1
        else:
            names[eid] = h + (a != v)
    return names


def _single_cycle(ring: Mapping[str, list[str]]) -> tuple[str, ...] | None:
    """The ring, vertex -> the far end of each edge end there, as one cycle, or None.

    Two or more vertices, two edge ends at every vertex, and the walk from
    the least vertex towards its lesser neighbour covers every vertex.  That
    leaves no loop: a loop's vertex holds both its ends, so it is a
    component the walk misses.  A doubled edge closes a component of two
    vertices, so it passes only as the digon, n = 2; for n >= 3 the cycle
    is simple.
    """
    if len(ring) < 2 or any(len(nbrs) != 2 for nbrs in ring.values()):
        return None
    start = min(ring)
    cycle = [start]
    prev, at = start, min(ring[start])
    while at != start:
        cycle.append(at)
        a, b = ring[at]
        prev, at = at, (b if a == prev else a)
    return tuple(cycle) if len(cycle) == len(ring) else None


def link_cycles(complex: TwoComplex) -> dict[str, tuple[list[int], tuple[str, int, int]]]:
    """The one-cycle links, digons included, by half-edge numbers, from one pass over the face steps.

    Vertex -> its link's cycle and one corner on it, (face id, half-edge in,
    half-edge out); no corner is named.  Each half-edge is ringed, in a list
    indexed by number, with the half-edges its corners join it to.  In number
    order each vertex is met at its least half-edge; its link is one cycle
    when the walk from there towards the lesser neighbour, `_single_cycle`'s
    on a loop-free link, where names sort as numbers, closes over all the
    vertex's half-edges.
    """
    g = complex.graph
    number = g._number
    n = 2 * len(number)
    ring: list[list[int] | None] = [[] for _ in range(n)]
    face_of: list[str | None] = [None] * n  # the face and arriving half-edge of
    come_of = [0] * n                       # a corner that leaves by each half-edge
    for fid, f in complex.faces.items():
        _, e, o = f.steps[-1]
        come = 2 * number[e] + 1 - o
        for _, e, o in f.steps:
            go = 2 * number[e] + o
            ring[come].append(go)
            ring[go].append(come)
            face_of[go], come_of[go] = fid, come
            come = go ^ 1
    ends = tuple(g.edges.values())
    found: dict[str, tuple[list[int], tuple[str, int, int]] | None] = {}
    for h in range(n):
        nbrs = ring[h]
        if nbrs is None:  # walked
            continue
        v = ends[h >> 1][h & 1]
        if v in found:  # a half-edge of v off the walk from its least one
            found[v] = None
            continue
        cycle, ring[h], found[v] = [h], None, None
        try:
            a, b = nbrs
            prev, at = h, min(a, b)
            while at != h:
                cycle.append(at)
                a, b = ring[at]
                ring[at] = None
                prev, at = at, (b if a == prev else a)
        except ValueError:  # a half-edge with other than two ring entries
            continue
        if len(cycle) > 1:  # not a corner from h back to h
            # A corner joins h and cycle[1]; if it does not leave by h, it leaves by cycle[1].
            c = h if face_of[h] is not None else cycle[1]
            found[v] = (cycle, (face_of[c], come_of[c], c))
    return {v: x for v, x in found.items() if x is not None}


class Violation:
    """A validation diagnostic naming the offending element."""

    def __init__(self, kind: str, element: str, message: str):
        self.kind = kind
        self.element = element
        self.message = message

    def __repr__(self) -> str:
        return f"Violation({self.kind}: {self.message})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Violation)
                and (self.kind, self.element) == (other.kind, other.element))


def validate(complex: TwoComplex) -> list[Violation]:
    """Diagnostics for a candidate input complex; empty iff simple with genuine-cycle faces."""
    out: list[Violation] = []
    g = complex.graph
    for e in g.loops():
        u = g.endpoints(e)[0]
        out.append(Violation("loop", e, f"loop {e} at {u}"))
    for a, b in g.parallel_pairs():
        out.append(Violation("parallel-edge", b, f"edges {a} and {b} are parallel"))
    for fid, f in complex.faces.items():
        if not f.is_genuine_cycle():
            out.append(Violation("non-cycle-face", fid,
                                 f"face {fid} boundary is not a genuine cycle"))
    seen: dict[tuple, str] = {}
    for fid, f in complex.faces.items():
        first = seen.setdefault(f.steps, fid)  # one hash of the boundary per face
        if first != fid:
            out.append(Violation("duplicate-face", fid,
                                 f"faces {first} and {fid} have the same boundary"))
    return out


class LinkGraph:
    """The local structure around a vertex, built from its corners in face order.

    Vertices are the half-edges at the host vertex (named by edge id for
    non-loops, `e:0` and `e:1` for the ends of a loop e) and there is one
    edge per corner, named by its face id, and `fid@k` for the face's k-th
    return to the host: `ends` maps it to the half-edges the face arrives
    and leaves by, and `edge_face` to the face; `number` maps each vertex to
    its half-edge number in the host graph.  All three are read-only views.
    The validated `Graph` on these is built on first read of `graph`.
    """

    def __init__(self, graph: Graph, host: str, corners: Iterable[Corner]):
        self.host = host
        numbers = _link_vertices(graph, host)
        self.vertices = tuple(numbers)
        self.number = MappingProxyType(numbers)
        ends: dict[str, tuple[str, str]] = {}
        edge_face: dict[str, str] = {}
        for fid, come, go in corners:
            le, occ = fid, 0
            while le in ends:
                occ += 1
                le = f"{fid}@{occ}"
            ends[le] = (come, go)
            edge_face[le] = fid
        self.ends = MappingProxyType(ends)
        self.edge_face = MappingProxyType(edge_face)

    @cached_property
    def graph(self) -> Graph:
        return Graph(self.vertices, self.ends)

    def __repr__(self) -> str:
        return f"LinkGraph({self.host}: {len(self.vertices)} vertices, {len(self.ends)} edges)"


def link_graph(complex: TwoComplex, v: str) -> LinkGraph:
    """Link at v via the corner rule: one edge per face corner at v; no `Graph` is built.

    One pass over the face steps keeps v's corners; `link_corners` gives every vertex's.
    """
    g = complex.graph
    if v not in g.vertices:
        raise ValueError(f"unknown vertex {v}")
    return LinkGraph(g, v, link_corners(complex, (v,))[v])


def cone(complex: TwoComplex, apex: str | None = None) -> TwoComplex:
    """Add a top vertex joined to every vertex, plus a triangle per edge."""
    g = complex.graph
    if g.loops():
        raise ValueError("cone is undefined for complexes with loops")
    top = apex if apex is not None else _fresh_name("t", g.vertices)
    if top in g.vertices:
        raise ValueError(f"apex name {top} already in use")
    vertices = set(g.vertices) | {top}
    edges = dict(g.edges)
    used = set(edges)
    spoke: dict[str, str] = {}
    for v in sorted(g.vertices):
        sid = _fresh_name(f"{top}{v}", used)
        used.add(sid)
        spoke[v] = sid
        edges[sid] = (top, v)
    new_graph = Graph(vertices, edges)
    faces = list(complex.faces.values())
    face_ids = set(complex.faces)
    for eid in g.edges:
        u, v = g.endpoints(eid)
        fid = _fresh_name(f"{top}{eid}", face_ids)
        face_ids.add(fid)
        faces.append(Face.from_vertices(new_graph, fid, (top, u, v)))
    return TwoComplex(new_graph, faces)


def _fresh_name(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    for i in itertools.count():
        cand = f"{base}{i}"
        if cand not in taken:
            return cand


class Path:
    """A path in a complex: distinct vertices joined by edges; may be trivial."""

    def __init__(self, vertices: Sequence[str], edge_ids: Sequence[str]):
        if len(edge_ids) != len(vertices) - 1:
            raise ValueError("path needs one fewer edge than vertices")
        if len(set(vertices)) != len(vertices):
            raise ValueError("path vertices must be distinct")
        self.vertices = tuple(vertices)
        self.edge_ids = tuple(edge_ids)

    def is_trivial(self) -> bool:
        return len(self.vertices) == 1

    def check_in(self, graph: Graph) -> None:
        for (u, v), eid in zip(zip(self.vertices, self.vertices[1:]), self.edge_ids):
            if eid not in graph.edges:
                raise ValueError(f"path edge {eid} not in graph")
            if set(graph.endpoints(eid)) != {u, v}:
                raise ValueError(f"path edge {eid} does not join {u} and {v}")
            if graph.is_loop(eid):
                raise ValueError(f"cannot contract loop {eid}")

    def __repr__(self) -> str:
        return f"Path({'-'.join(self.vertices)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Path) and self.vertices == other.vertices \
            and self.edge_ids == other.edge_ids

    def __hash__(self):
        return hash((self.vertices, self.edge_ids))


def contracted_vertex_name(path: Path, taken: Iterable[str] = ()) -> str:
    """Name of the merged vertex after contracting a path."""
    if path.is_trivial():
        return path.vertices[0]
    base = "p" + "".join(path.vertices)
    return _fresh_name(base, set(taken) - set(path.vertices))


def contract_path(complex: TwoComplex, path: Path) -> TwoComplex:
    """Contract all edges of a path, merging its vertices into one.

    Face boundaries are rewritten with the contracted edges elided; results
    may be degenerate walks (repeated vertices or length below three), which
    stay representable so link graphs remain computable.
    """
    g = complex.graph
    path.check_in(g)
    if path.is_trivial():
        if path.vertices[0] not in g.vertices:
            raise ValueError(f"unknown vertex {path.vertices[0]}")
        return complex
    merged = contracted_vertex_name(path, g.vertices)
    gone_vertices = set(path.vertices)
    gone_edges = set(path.edge_ids)

    def rename(v: str) -> str:
        return merged if v in gone_vertices else v

    vertices = {rename(v) for v in g.vertices}
    edges = {}
    for eid, (u, v) in g.edges.items():
        if eid in gone_edges:
            continue
        edges[eid] = (rename(u), rename(v))
    new_graph = Graph(vertices, edges)

    faces = []
    for fid, f in complex.faces.items():
        steps = [(rename(v), e, o) for v, e, o in f.steps if e not in gone_edges]
        if not steps:
            raise ValueError(f"face {fid} would lose its whole boundary")
        faces.append(Face(fid, steps))
    return TwoComplex(new_graph, faces)


def contracted_link(complex: TwoComplex, path: Path) -> LinkGraph:
    """The link at the merged vertex once a path is contracted."""
    merged = contracted_vertex_name(path, complex.graph.vertices)
    return link_graph(contract_path(complex, path), merged)


def delete_faces(complex: TwoComplex, face_ids: Iterable[str]) -> TwoComplex:
    """Delete faces; cells incident only with the removed faces and nothing
    else go with them.

    Boundary cells of a genuine-cycle face are always also incident with
    their own subcells (an edge with its endpoints, a vertex with its edges),
    so in practice the skeleton persists: deleting every face of the
    tetrahedron leaves the bare K4 graph.  Kept faces are not re-checked.
    """
    doomed = set(face_ids)
    unknown = doomed - complex.faces.keys()
    if unknown:
        raise ValueError(f"unknown face ids: {sorted(unknown)}")
    kept_faces = [f for fid, f in complex.faces.items() if fid not in doomed]
    return TwoComplex._regroup(complex.graph, kept_faces)


def face_subcomplex(complex: TwoComplex, face_ids: Iterable[str]) -> TwoComplex:
    """The subcomplex generated by a face subset: those faces, not re-checked, plus their cells."""
    chosen = sorted(set(face_ids))
    faces = [complex.faces[fid] for fid in chosen]
    edges: dict[str, tuple[str, str]] = {}
    vertices: set[str] = set()
    for f in faces:
        for eid in f.edge_ids:
            edges[eid] = complex.graph.endpoints(eid)
        vertices |= set(f.vertices)
    return TwoComplex._regroup(Graph(vertices, edges), faces)


def associated_complex(graph: Graph, cycles: Mapping[str, Sequence[str]] | Iterable[tuple[str, Sequence[str]]]) -> TwoComplex:
    """The complex whose skeleton is the graph and whose faces are the cycles."""
    items = cycles.items() if isinstance(cycles, Mapping) else list(cycles)
    faces: dict[str, Face] = {}
    seen: dict[tuple, str] = {}
    for fid, vs in items:
        f = Face.from_vertices(graph, fid, tuple(vs), kind="cycle")
        if not f.is_genuine_cycle():
            raise ValueError(f"cycle {fid} is not a genuine cycle")
        if f.steps in seen:
            raise ValueError(f"cycles {seen[f.steps]} and {fid} are the same cycle")
        if fid in faces:
            raise ValueError(f"duplicate face id {fid}")
        seen[f.steps] = fid
        faces[fid] = f
    return TwoComplex._regroup(graph, faces.values())


def split_components(complex: TwoComplex) -> list[TwoComplex]:
    """Connected components as complexes, ordered by smallest vertex.

    Faces go to the component of their first vertex, read from the graph's
    component index, and are not re-checked, as a walk stays in its
    component; a connected complex is returned as it is.
    """
    comp_of, parts = complex.graph.component_index()
    if len(parts) == 1:
        return [complex]
    faces: list[list[Face]] = [[] for _ in parts]
    for f in complex.faces.values():
        faces[comp_of[f.steps[0][0]]].append(f)
    return [TwoComplex._regroup(part, fs) for part, fs in zip(parts, faces)]

