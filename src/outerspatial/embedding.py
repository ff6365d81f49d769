"""Rotation systems, face tracing, planarity and outerplanarity, cycle sides.

A rotation system assigns each vertex a cyclic order of its half-edges and
determines a surface via face tracing.  On a genus-zero tracing of a
connected graph every cycle splits the traced faces into exactly two sides,
the components of the dual graph once the cycle's edges are cut (Jordan);
the two faces at an edge of the cycle lie on different sides, so the edges
separating the sides are exactly the cycle's own.  With an outer face o,
the interior int(c) of cycle c is its side avoiding o.

Label walk.  Crossing the dual edge over primal edge e changes membership
in int(c) exactly for the cycles c through e, so a dual path from o ends
inside c exactly when it crosses c's edges an odd number of times.  Give
each face y a label L(y), a node of a forest over the cycles or none, read
as its chain A(y): L(y) and its ancestors.  Call the labelling consistent
on a spanning tree of the dual when L(o) is none and A(y) = A(x) xor C(e)
across each tree edge x-y over e, with C(e) the cycles through e.  Then
A(y) collects the cycles crossed an odd number of times on the tree path
from o, which are exactly the cycles enclosing y.  So if c is an ancestor
of d, every face inside d has d, hence c, on its chain, and int(d) lies in
int(c), strictly since distinct edge sets give distinct interiors.  Two
cycles sharing a face lie on its chain, hence are nested: the family is
laminar.  And an interior strictly containing int(d) is on the chain of a
face inside d but not below d, so it is above d: each parent is the
smallest strict superset.  Conversely, for a laminar family, labelling
each face with its innermost enclosing cycle in the containment forest is
consistent, as the cycles enclosing a face are nested and form its chain.

Both walks follow a spanning tree.  On a tree edge x-y over e the cycles
of C(e) on A(x) are exited, and must be its innermost part; the others
are entered, and must continue the chain downwards.  `nesting_forest`
walks a depth-first tree and builds the forest as it goes: entered cycles
all hold y, so in a laminar family they nest by interior size, which the
parity above counts; two of equal size are never both right, and some
check then fails.  `verify_certificate` walks a breadth-first tree
against a claimed forest and orders the entered cycles by claimed depth.

Crossing pairs.  Two cycles cross when no side of one lies in a side of
the other; this does not depend on o.  For any o the interiors are laminar
exactly when no pair crosses: nested interiors put a side of one cycle in
a side of the other, and disjoint ones put int(c1) in the side of c2 that
is not int(c2).  Conversely, take sides A, A' of c1 and B, B' of c2 with
A <= B: if int(c1) = A it lies in B, which is int(c2) or disjoint from it;
if int(c1) = A' then o is in A <= B, so int(c2) = B' <= A' = int(c1).  So
when the walk fails, `nesting_forest` scans pairs in lexicographic order
of cycle ids for the first crossing one.  Two cycles with the same edge
set have equal interiors; `validate` rejects such duplicate boundaries in
complexes and `nesting_forest` rejects them with ValueError.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .complexes import Graph, HalfEdge

if TYPE_CHECKING:
    import networkx as nx

# A dart traverses an edge away from endpoint o: same encoding as a half-edge.
Dart = tuple[str, int]


class RotationSystem:
    """A cyclic order of half-edges at every vertex of a graph."""

    def __init__(self, rotators: Mapping[str, Sequence[HalfEdge]]):
        self._rot: dict[str, tuple[HalfEdge, ...]] = {}
        for v in sorted(rotators):
            self._rot[v] = _normalize_cycle(tuple(rotators[v]))
        self._succ: dict[str, dict[HalfEdge, HalfEdge]] = {}
        for v, cyc in self._rot.items():
            self._succ[v] = {h: cyc[(i + 1) % len(cyc)] for i, h in enumerate(cyc)}

    def vertices(self) -> tuple[str, ...]:
        return tuple(self._rot)

    def rotator(self, v: str) -> tuple[HalfEdge, ...]:
        return self._rot[v]

    def successor(self, v: str, h: HalfEdge) -> HalfEdge:
        return self._succ[v][h]

    def validate_for(self, graph: Graph) -> None:
        if set(self._rot) != set(graph.vertices):
            raise ValueError("rotation system does not cover the vertex set")
        for v in graph.vertices:
            if tuple(sorted(self._rot[v])) != graph.half_edges_at(v):
                raise ValueError(f"rotator at {v} does not list the half-edges at {v}")

    def canonical_key(self) -> tuple:
        return tuple(self._rot.items())

    def restricted_to(self, vertices: Iterable[str]) -> "RotationSystem":
        return RotationSystem({v: self._rot[v] for v in vertices if v in self._rot})

    def __eq__(self, other) -> bool:
        return isinstance(other, RotationSystem) and self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"RotationSystem({len(self._rot)} rotators)"


def _normalize_cycle(cyc: tuple) -> tuple:
    """Rotate a cyclic sequence to start at its minimal element."""
    if not cyc:
        return cyc
    i = cyc.index(min(cyc))
    return cyc[i:] + cyc[:i]


class TracedFaces:
    """Face-tracing orbits of a rotation system on a connected graph."""

    def __init__(self, graph: Graph, rotation: RotationSystem):
        if not graph.is_connected():
            raise ValueError("face tracing requires a connected graph")
        rotation.validate_for(graph)
        self.graph = graph
        self.rotation = rotation
        self.orbits = _trace_orbits(graph, rotation)
        self._orbit_of: dict[Dart, int] = {}
        for i, orbit in enumerate(self.orbits):
            for d in orbit:
                self._orbit_of[d] = i

    @cached_property
    def genus(self) -> int:
        v = len(self.graph.vertices)
        e = self.graph.edge_count()
        f = len(self.orbits)
        if e == 0:
            return 0
        two_g = 2 - v + e - f
        if two_g < 0 or two_g % 2:
            raise AssertionError(f"inconsistent Euler count: V={v} E={e} F={f}")
        return two_g // 2

    def orbit_index_of(self, dart: Dart) -> int:
        return self._orbit_of[dart]

    @cached_property
    def _dual_darts(self) -> tuple[tuple[tuple[str, int, str], ...], ...]:
        """Per orbit, one (edge id, orbit across that edge, tail vertex) per dart."""
        ends = self.graph.endpoints
        return tuple(tuple((eid, self._orbit_of[(eid, 1 - o)], ends(eid)[o]) for eid, o in orbit)
                     for orbit in self.orbits)

    def __repr__(self) -> str:
        return f"TracedFaces({len(self.orbits)} orbits, genus {self.genus})"


def _trace_orbits(graph: Graph, rotation: RotationSystem) -> tuple[tuple[Dart, ...], ...]:
    darts: list[Dart] = []
    for eid in sorted(graph.edges):
        darts.append((eid, 0))
        darts.append((eid, 1))
    seen: set[Dart] = set()
    orbits: list[tuple[Dart, ...]] = []
    for start in darts:
        if start in seen:
            continue
        orbit = []
        d = start
        while True:
            orbit.append(d)
            seen.add(d)
            eid, o = d
            head = graph.endpoints(eid)[1 - o]
            d = rotation.successor(head, (eid, 1 - o))
            if d == start:
                break
        orbits.append(tuple(orbit))
    return tuple(orbits)


def trace_faces(graph: Graph, rotation: RotationSystem) -> TracedFaces:
    """Trace the face orbits of a rotation system; genus via the Euler count."""
    return TracedFaces(graph, rotation)


class NonPlanarityReport:
    """Evidence of non-planarity: a subdivided Kuratowski subgraph."""

    def __init__(self, component: frozenset[str], subgraph_edges: tuple[tuple[str, str], ...]):
        self.component = component
        self.subgraph_edges = subgraph_edges

    def __repr__(self) -> str:
        return f"NonPlanarityReport({len(self.component)} vertices)"


class PlanarityResult:
    """A genus-zero rotation system, or the first non-planar component.

    A planar result keeps the face tracing of each component, in component
    order, that confirmed genus zero.  The Kuratowski evidence for a
    non-planar component costs one planarity test per edge, so `report`
    builds it on first read only.
    """

    def __init__(self, rotation: RotationSystem | None, nonplanar: Graph | None = None,
                 traced: tuple[TracedFaces, ...] = ()):
        self.rotation = rotation
        self._nonplanar = nonplanar
        self.traced = traced

    @property
    def is_planar(self) -> bool:
        return self.rotation is not None

    @cached_property
    def report(self) -> NonPlanarityReport | None:
        if self._nonplanar is None:
            return None
        import networkx as nx
        _, counter = nx.check_planarity(_to_nx_simple(self._nonplanar), counterexample=True)
        edges = tuple(sorted(tuple(sorted(e)) for e in counter.edges()))
        return NonPlanarityReport(self._nonplanar.vertices, edges)


def test_planar(graph: Graph) -> PlanarityResult:
    """Planarity with an embedding: a rotation system tracing to genus zero.

    Handles disconnected input per component and multigraphs: parallel edges
    are laid next to their partner and loops next to themselves, which keeps
    the genus at zero.  Deterministic for a fixed input.  Components come
    from the graph's component index, in its order.
    """
    rotators: dict[str, tuple[HalfEdge, ...]] = {}
    parts = graph.component_index()[1]
    part_rotators = []
    for sub in parts:
        comp_rot = _planar_rotators_connected(sub)
        if comp_rot is None:
            return PlanarityResult(None, sub)
        part_rotators.append(comp_rot)
        rotators.update(comp_rot)
    rotation = RotationSystem(rotators)
    traced = tuple(trace_faces(sub, rotation if len(parts) == 1 else RotationSystem(rot))
                   for sub, rot in zip(parts, part_rotators))
    if any(t.genus != 0 for t in traced):
        raise AssertionError("planar embedding traced to nonzero genus")
    return PlanarityResult(rotation, traced=traced)


def _to_nx_simple(graph: Graph) -> nx.Graph:
    import networkx as nx
    g = nx.Graph()
    g.add_nodes_from(sorted(graph.vertices))
    g.add_edges_from(graph.endpoints(eid) for eid in sorted(graph.edge_ids())
                     if not graph.is_loop(eid))
    return g


def _planar_rotators_connected(graph: Graph) -> dict[str, tuple[HalfEdge, ...]] | None:
    import networkx as nx
    ok, emb = nx.check_planarity(_to_nx_simple(graph))
    if not ok:
        return None
    order = emb.get_data()
    rotators: dict[str, tuple[HalfEdge, ...]] = {}
    for v in sorted(graph.vertices):
        cyc: list[HalfEdge] = []
        for w in order.get(v, []):
            block = sorted(graph.edges_between(v, w))
            # Parallel edges ride along a single embedded edge; opposite
            # relative order at the two endpoints keeps every digon a face.
            if v > w:
                block = block[::-1]
            for eid in block:
                u0, _ = graph.endpoints(eid)
                cyc.append((eid, 0 if u0 == v else 1))
        for eid in sorted(graph.edges_between(v, v)):
            cyc.extend([(eid, 0), (eid, 1)])
        rotators[v] = tuple(cyc)
    return rotators


def is_2_connected(graph: Graph) -> bool:
    """Connected, at least three vertices, no loops, and no cutvertex."""
    return _is_one_block(graph, _blocks(graph))


def _simple_adjacency(graph: Graph) -> dict[str, dict[str, None]]:
    """Neighbours of the simple underlying graph: loops dropped, parallels merged.

    Vertices come in sorted order and neighbours in the order of their first
    edge id, so whatever is built by walking it is the same in every
    process.  Each neighbour maps to None, which `_reduce` reads as an edge
    of the graph itself.
    """
    adj: dict[str, dict[str, None]] = {v: {} for v in sorted(graph.vertices)}
    for eid in graph.edge_ids():
        u, w = graph.endpoints(eid)
        if u != w:
            adj[u][w] = adj[w][u] = None
    return adj


def _blocks(graph: Graph) -> list[dict[str, dict[str, None]]]:
    """Neighbours in each biconnected component of the simple underlying graph.

    One depth-first pass (Hopcroft and Tarjan, CACM 16, 1973) numbers the
    vertices in discovery order and keeps low[v], the smallest number a
    back edge from the subtree of v reaches.  Every tree and back edge is
    pushed on an edge stack when first walked; when the search returns
    from w to its parent v with low[w] >= number[v], nothing below w
    reaches above v, so the edges pushed since vw form one block.  A bridge
    is a block of two vertices and an isolated vertex lies in no block.
    The search keeps its own stack of neighbour iterators, so its depth is
    not bounded by the interpreter's recursion limit.
    """
    adj = _simple_adjacency(graph)
    number: dict[str, int] = {}
    low: dict[str, int] = {}
    blocks: list[dict[str, dict[str, None]]] = []
    for root in adj:
        if root in number:
            continue
        number[root] = low[root] = len(number)
        edges: list[tuple[str, str]] = []
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for w in nbrs:
                if w not in number:
                    number[w] = low[w] = len(number)
                    edges.append((v, w))
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent and number[w] < number[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], number[w])
            else:
                stack.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= number[parent]:
                    block: dict[str, dict[str, None]] = {}
                    while True:
                        a, b = edge = edges.pop()
                        block.setdefault(a, {})[b] = None
                        block.setdefault(b, {})[a] = None
                        if edge == (parent, v):
                            break
                    blocks.append(block)
    return blocks


def _is_one_block(graph: Graph, blocks: list[dict[str, dict[str, None]]]) -> bool:
    return (len(graph.vertices) >= 3 and not graph.loops()
            and len(blocks) == 1 and len(blocks[0]) == len(graph.vertices))


class MinorWitness:
    """Branch sets realizing a K4 or K2,3 minor."""

    def __init__(self, target: str, branch_sets: Sequence[frozenset[str]],
                 connecting_edges: Mapping[tuple[int, int], str]):
        self.target = target
        self.branch_sets = tuple(branch_sets)
        self.connecting_edges = dict(connecting_edges)

    def __repr__(self) -> str:
        return f"MinorWitness({self.target})"


_PATTERNS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "K4": (4, tuple(itertools.combinations(range(4), 2))),
    "K2,3": (5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
}


def find_minor(graph: Graph, target: str) -> MinorWitness | None:
    """A K4 or K2,3 minor of the simple underlying graph, or None when it has none.

    Both witnesses come from linear reductions; no vertex subset is listed
    (`oracle._search_minor` does that, as ground truth).

    K4.  The series-parallel reduction of `_reduce` keeps a K4 minor and
    K4-minor-freeness alike, and it empties the graph exactly when there is
    no K4 minor (Duffin 1965).  Each suppression links the new edge to the
    two edges it replaces, so an edge of the kernel R that is left stands
    for a path whose interior is suppressed vertices, and these paths are
    internally disjoint.  R has minimum degree 3.  Its edges are tried in
    decreasing order of endpoint degree sum, so a wheel's spokes go before
    its rim, and each edge an earlier deletion made is tried in turn.  A
    trial deletes the edge and re-reduces; when that empties R, the edge
    lies on every K4 subdivision left and the trial is undone from its log.
    Trials stop at four vertices, where minimum degree 3 means K4.  They
    cannot run out first: were every edge of the kernel to fail, each would
    lie on every K4 subdivision of it, so the kernel would be a subdivided
    K4 of minimum degree 3, which is K4.  Its six edges expand to six
    paths, and each path's interior goes to its smaller end.

    K2,3.  A K2,3 minor lies in one block, and a block of at most four
    vertices has none.  On each larger block, degree-2 elimination (see
    `test_outerplanar`) passes, which means no K2,3 minor, or stops in one
    of two ways.
    - A pair {x, y} reaches a third triangle.  Two of its triangles came
      from eliminating vertices v whose edges to x and y stand for paths
      through earlier eliminated vertices, disjoint for different v.  The
      third came from a third such v, or from eliminating x itself next to
      y and some z, which adds a path from x through z to y in the
      2-connected rest.  So three internally disjoint x-y paths of length
      at least 2 exist, and by Menger's theorem three augmenting-path
      searches that give each vertex capacity 1 and ignore the edge xy find
      three.  {x}, {y} and the three interiors are the branch sets.  A
      K4-minor-free block always ends here: its eliminated minor stays
      2-connected and K4-minor-free, so it keeps a vertex of degree 2.
    - No vertex of degree 2 is left: the block has a K4 minor, and the K4
      step above gives a subdivided K4 in it.  If its path pq has an
      interior, {p}, {q}, that interior, and each other corner together
      with the interiors of its paths to p and q are branch sets.  If it is
      a bare K4, the block's fifth vertex lies on an ear: a path outside the
      K4 joining two corners x and y, which 2-connectivity provides; {x},
      {y}, the ear's interior and the other two corners are branch sets.

    Witnesses are canonical: K4 branch sets sorted by their smallest
    vertex; for K2,3 the 2-side first, then the 3-side, each sorted the
    same way; each connecting edge the smallest edge id between its sets.

    Cost: the reductions, eliminations and the three searches are linear.
    Each trial on the kernel R re-reduces in O(|V(R)| + |E(R)|), and there
    are at most 2|E(R)| of them, as every edge made by a kept deletion
    replaces two.  So the worst case is O(|E(R)| * (|V(R)| + |E(R)|)),
    which is linear when R is bounded: every subdivision of a fixed graph.
    """
    if target not in _PATTERNS:
        raise ValueError(f"unsupported minor target {target}")
    if target == "K4":
        paths = _k4_subdivision(_simple_adjacency(graph))
        if paths is None:
            return None
        sets: dict[str, list[str]] = {}
        for (p, q), inner in paths.items():
            sets.setdefault(p, [p]).extend(inner)
            sets.setdefault(q, [q])
        return _witness(graph, target, sets.values())
    for block in _blocks(graph):
        sides = _k23_sides(block)
        if sides is not None:
            return _witness(graph, target, *sides)
    return None


def _witness(graph: Graph, target: str, *sides: Iterable[list[str]]) -> MinorWitness:
    """Branch sets, each side sorted by smallest vertex, with their smallest connecting edges."""
    branch_sets = [frozenset(s) for side in sides for s in sorted(side, key=min)]
    index = {v: i for i, s in enumerate(branch_sets) for v in s}
    pattern_edges = _PATTERNS[target][1]
    connecting: dict[tuple[int, int], str] = {}
    for eid in graph.edge_ids():  # ascending, so the first edge of a pair is its smallest
        i, j = sorted(index.get(v, -1) for v in graph.endpoints(eid))
        if i >= 0:
            connecting.setdefault((i, j), eid)
    return MinorWitness(target, branch_sets, {ij: connecting[ij] for ij in pattern_edges})


def _reduce(adj: dict[str, dict], low: list[str], log: list[tuple]) -> None:
    """Series-parallel reduction from the vertices in `low`, logging each change.

    Deletes vertices of degree <= 1 and suppresses vertices v of degree 2:
    the new edge ab maps to the link (edge va, v, edge vb), unless a and b
    are adjacent already.  Each step keeps a K4 minor and K4-minor-freeness
    alike: a vertex of degree <= 1 lies in no subdivided K4, and a vertex of
    degree 2 can only subdivide one of its edges (K4 minors and
    subdivisions coincide because K4 is cubic).  A simple graph of minimum
    degree 3 has a K4 minor (Dirac 1952), so the graph is K4-minor-free
    exactly when nothing is left.  No degree grows, so a queued vertex stays
    reducible; each vertex goes once and each step touches two neighbours,
    so the work is linear.  Log entries: (v,) a deleted vertex, (a, b,
    link) a deleted edge, (a, b) an added edge.
    """
    while low:
        v = low.pop()
        at = adj.pop(v, None)
        if at is None:
            continue
        for w, link in at.items():
            del adj[w][v]
            log.append((v, w, link))
        log.append((v,))
        if len(at) == 2:
            (a, left), (b, right) = at.items()
            if b not in adj[a]:
                adj[a][b] = adj[b][a] = (left, v, right)
                log.append((a, b))
        low.extend(w for w in at if len(adj[w]) <= 2)


def _undo(adj: dict[str, dict], log: list[tuple]) -> None:
    """Reverse the changes of a `_reduce` log, last first."""
    for entry in reversed(log):
        if len(entry) == 1:
            adj[entry[0]] = {}
        elif len(entry) == 2:
            a, b = entry
            del adj[a][b], adj[b][a]
        else:
            a, b, link = entry
            adj[a][b] = adj[b][a] = link


def _k4_subdivision(adj: dict[str, dict]) -> dict[tuple[str, str], list[str]] | None:
    """A subdivided K4 as the interiors of its six paths, keyed by corner pairs.

    None when the graph has no K4 minor; consumes `adj`.  See `find_minor`.
    """
    _reduce(adj, [v for v, at in adj.items() if len(at) <= 2], [])
    if not adj:
        return None
    trials = sorted(((a, b) for a, at in adj.items() for b in at if a < b),
                    key=lambda ab: (-len(adj[ab[0]]) - len(adj[ab[1]]), ab))
    for a, b in trials:
        if len(adj) == 4:
            break
        if a not in adj or b not in adj[a]:
            continue
        log = [(a, b, adj[a].pop(b))]
        del adj[b][a]
        _reduce(adj, [w for w in (a, b) if len(adj[w]) <= 2], log)
        if adj:
            trials.extend(entry for entry in log if len(entry) == 2)
        else:
            _undo(adj, log)
    if len(adj) != 4:
        raise AssertionError("series-parallel kernel did not shrink to K4")
    return {(a, b): _interior(link) for a, at in adj.items() for b, link in at.items()
            if a < b}


def _interior(link) -> list[str]:
    """The suppressed vertices an edge of `_reduce` stands for."""
    out = []
    stack = [link]
    while stack:
        link = stack.pop()
        if link is not None:
            left, v, right = link
            out.append(v)
            stack += (left, right)
    return out


def _k23_sides(block: dict[str, dict]) -> tuple[list[list[str]], list[list[str]]] | None:
    """The 2-side and the 3-side of a K2,3 minor within one block; see `find_minor`."""
    if len(block) < 5:
        return None
    pair = _eliminate({v: dict(at) for v, at in block.items()}, {})
    if pair is None:
        return None
    if pair:
        x, y = sorted(pair)
        return [[x], [y]], _three_paths(block, x, y)
    paths = _k4_subdivision({v: dict(at) for v, at in block.items()})

    def path(a: str, b: str) -> list[str]:
        return paths[(a, b) if a < b else (b, a)]

    corners = sorted({c for pq in paths for c in pq})
    for (p, q), inner in sorted(paths.items()):
        if inner:
            r, s = (c for c in corners if c not in (p, q))
            return [[p], [q]], [inner, [r, *path(p, r), *path(q, r)],
                                [s, *path(p, s), *path(q, s)]]
    # A bare K4: search from a fifth vertex v next to corner x, avoiding x,
    # up to the first other corner reached.
    x, v = next((c, w) for c in corners for w in block[c] if w not in corners)
    came: dict[str, str | None] = {x: None, v: None}
    queue = [v]
    for u in queue:
        for w in block[u]:
            if w in came:
                continue
            came[w] = u
            if w in corners:
                ear = []
                while u is not None:
                    ear.append(u)
                    u = came[u]
                return [[x], [w]], [ear, *([c] for c in corners if c not in (x, w))]
            queue.append(w)
    raise AssertionError("a 2-connected block with a bare K4 has no ear")


def _three_paths(adj: dict[str, dict], s: str, t: str) -> list[list[str]]:
    """Interiors of three internally disjoint s-t paths that avoid the edge st.

    Every vertex other than s and t gets capacity 1: it splits into an entry
    (v, 0) and an exit (v, 1) joined by one unit arc, and an edge uw gives
    the arcs (u, 1) -> (w, 0) and (w, 1) -> (u, 0).  Each of the three rounds
    is one breadth-first search for an augmenting path from (s, 1) to (t, 0)
    in the residual network, so by Menger's theorem the rounds succeed
    exactly when three such paths exist.
    """
    flow: set[tuple[tuple[str, int], tuple[str, int]]] = set()
    source, sink = (s, 1), (t, 0)
    for _ in range(3):
        came: dict = {source: None}
        queue = [source]
        for node in queue:
            if node == sink:
                break
            v, side = node
            if side:
                moves = [((w, 0), False) for w in adj[v]
                         if w != s and not (v == s and w == t) and (node, (w, 0)) not in flow]
                if ((v, 0), node) in flow:
                    moves.append(((v, 0), True))
            else:
                moves = [] if (node, (v, 1)) in flow else [((v, 1), False)]
                moves += [((u, 1), True) for u in adj[v] if ((u, 1), node) in flow]
            for nxt, back in moves:
                if nxt not in came:
                    came[nxt] = (node, back)
                    queue.append(nxt)
        else:
            raise AssertionError(f"fewer than three disjoint paths join {s} and {t}")
        node = sink
        while node != source:
            prev, back = came[node]
            if back:
                flow.discard((node, prev))
            else:
                flow.add((prev, node))
            node = prev
    paths = []
    for w in adj[s]:
        node = (w, 0)
        if (source, node) not in flow:
            continue
        inner = []
        while node != sink:
            v = node[0]
            inner.append(v)
            node = next((u, 0) for u in adj[v] if ((v, 1), (u, 0)) in flow)
        paths.append(inner)
    return paths


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def verify_minor_witness(graph: Graph, witness: MinorWitness) -> bool:
    """Structural recheck: disjoint connected branch sets, adjacencies realized."""
    k, pattern_edges = _PATTERNS.get(witness.target, (0, ()))
    sets = witness.branch_sets
    if len(sets) != k:
        return False
    allv = set()
    for s in sets:
        if not s or not (s <= graph.vertices):
            return False
        if allv & s:
            return False
        allv |= s
        if not graph.induced_subgraph(s).is_connected():
            return False
    for i, j in pattern_edges:
        eid = witness.connecting_edges.get((i, j))
        if eid is None or not graph.has_edge(eid):
            return False
        u, v = graph.endpoints(eid)
        if not ((u in sets[i] and v in sets[j]) or (u in sets[j] and v in sets[i])):
            return False
    return True


class OuterplanarityResult:
    """Outcome of the outerplanarity test.

    For 2-connected simple outerplanar graphs the unique Hamilton boundary
    cycle and the chord set are reported; otherwise only the verdict, with a
    minor witness on negatives (K4, then K2,3), searched when first read.
    """

    def __init__(self, outerplanar: bool, boundary: tuple[str, ...] | None = None,
                 boundary_edges: frozenset[str] | None = None,
                 chords: frozenset[str] | None = None,
                 nonouterplanar: Graph | None = None):
        self.outerplanar = outerplanar
        self.boundary = boundary
        self.boundary_edges = boundary_edges
        self.chords = chords
        self._nonouterplanar = nonouterplanar

    @cached_property
    def witness(self) -> MinorWitness | None:
        g = self._nonouterplanar
        if g is None:
            return None
        witness = find_minor(g, "K4") or find_minor(g, "K2,3")
        if witness is None:
            raise AssertionError("non-outerplanar graph without K4 or K2,3 minor")
        return witness

    def __repr__(self) -> str:
        return f"OuterplanarityResult({self.outerplanar})"


def test_outerplanar(graph: Graph) -> OuterplanarityResult:
    """Outerplanarity by one block pass and degree-2 elimination, in linear time.

    Loops and parallel edges are ignored for the verdict; boundary and chord
    structure is only reported for simple 2-connected graphs.

    Blocks (biconnected components; Hopcroft and Tarjan, CACM 16, 1973):
    outerplane drawings of the blocks glue at the cut vertices, which lie
    on the outer face of every block holding them, and subgraphs of
    outerplanar graphs are outerplanar; so a graph is outerplanar exactly
    when each of its blocks with three or more vertices is.

    Elimination (Mitchell, IPL 9, 1979; Wiegers 1986) on such a block:
    remove a vertex v of degree 2 with neighbours a and b, add the pair ab
    if missing, and give va, vb and ab one triangle each.  It fails when a
    pair reaches three triangles, or when three or more vertices remain and
    none has degree 2.  A step keeps 2-connectivity and takes a minor
    (contract va): no degree grows, none falls below 2 before the end.

    An outerplanar block passes: on its outer Hamilton cycle C a vertex of
    degree 2 lies between its two neighbours, so each step cuts the ear vab
    off the polygon C and leaves a smaller outerplane one.  The triangles
    tile C with disjoint interiors: a side of C lies in one, any other pair
    in at most two.  And every outerplanar graph has a vertex of degree <= 2.

    A passing block is outerplanar, with chords the pairs counting 2.  Count
    only the triangles of one step and later ones: the graph before that
    step has a Hamilton cycle of pairs counting 1, with non-crossing chords
    counting 2.  It holds at the last triangle; undoing the removal of v,
    ab counted at most 1 (it ends at most 2), so it was a side, and routing
    the cycle a-v-b turns it into a chord.  A failing block is not
    outerplanar: an overfull one by the above, a stuck one because it has a
    minor of minimum degree 3.
    """
    blocks = _blocks(graph)
    hamiltonian = graph.is_simple() and _is_one_block(graph, blocks)
    triangles: dict[frozenset[str], int] = {}
    for nbrs in blocks:
        if len(nbrs) >= 3 and _eliminate(nbrs, triangles) is not None:
            return OuterplanarityResult(False, nonouterplanar=graph)
    if not hamiltonian:
        return OuterplanarityResult(True)
    boundary_edges, chords = set(), set()
    ring: dict[str, list[str]] = {v: [] for v in graph.vertices}
    for eid in graph.edge_ids():
        u, v = graph.endpoints(eid)
        if triangles[frozenset((u, v))] == 2:
            chords.add(eid)
        else:
            boundary_edges.add(eid)
            ring[u].append(v)
            ring[v].append(u)
    # Walk the boundary from the smallest vertex towards its smaller neighbour.
    start = min(graph.vertices)
    cycle = [start]
    prev, at = start, min(ring[start])
    while at != start:
        cycle.append(at)
        a, b = ring[at]
        prev, at = at, (b if a == prev else a)
    return OuterplanarityResult(True, tuple(cycle), frozenset(boundary_edges),
                                frozenset(chords))


def _eliminate(nbrs: dict[str, dict[str, None]],
               triangles: dict[frozenset[str], int]) -> frozenset[str] | None:
    """Degree-2 elimination consuming one block's neighbours.

    None when the block passes, which means it is outerplanar; otherwise
    the pair that reached a third triangle, or the empty set when three or
    more vertices remain and none has degree 2.
    """
    low = sorted(v for v, ws in nbrs.items() if len(ws) == 2)
    while len(nbrs) > 2:
        if not low:
            return frozenset()
        v = low.pop()
        if v not in nbrs:
            continue
        a, b = nbrs.pop(v)
        del nbrs[a][v], nbrs[b][v]
        nbrs[a][b] = nbrs[b][a] = None
        for pair in (frozenset((v, a)), frozenset((v, b)), frozenset((a, b))):
            count = triangles.get(pair, 0) + 1
            if count == 3:
                return pair
            triangles[pair] = count
        low.extend(w for w in (a, b) if len(nbrs[w]) == 2)
    return None


def check_cycle(graph: Graph, cycle_edges: Iterable[str]) -> frozenset[str]:
    """Check edge ids form a genuine cycle of the graph; return its vertices.

    Every vertex must meet two of the edges, and a walk along them from the
    first edge must use all of them before it closes.
    """
    es = sorted(set(cycle_edges))
    if not es:
        raise ValueError("empty cycle")
    at: dict[str, list[str]] = {}
    for eid in es:
        if not graph.has_edge(eid):
            raise ValueError(f"unknown edge {eid}")
        u, v = graph.endpoints(eid)
        if u == v:
            raise ValueError(f"loop {eid} cannot lie on a cycle")
        at.setdefault(u, []).append(eid)
        at.setdefault(v, []).append(eid)
    if any(len(pair) != 2 for pair in at.values()):
        raise ValueError("edge set is not a cycle: wrong degrees")
    start, v = graph.endpoints(es[0])
    eid, walked = es[0], 1
    while v != start:
        a, b = at[v]
        eid = b if a == eid else a
        u, w = graph.endpoints(eid)
        v = w if u == v else u
        walked += 1
    if walked != len(es):
        raise ValueError("edge set is not a cycle: disconnected")
    return frozenset(at)


def cycle_sides(traced: TracedFaces, cycle_edges: Iterable[str]) -> tuple[frozenset[int], frozenset[int]]:
    """Split the traced faces into the two sides of a cycle.

    Removing the dual edges that cross the cycle must leave exactly two
    components of the dual graph; requires genus zero.  The side holding
    orbit 0 comes first.
    """
    side_a, side_b = _side_bits(traced, cycle_edges)
    return _orbit_set(side_a), _orbit_set(side_b)


def _side_bits(traced: TracedFaces, cycle_edges: Iterable[str]) -> tuple[int, int]:
    """The two sides of a cycle as bitsets over orbits, the side holding orbit 0 first.

    Two searches of the dual graph, barred from crossing the cycle, start at
    the faces on either side of one cycle edge and take turns, so the work
    is bounded by the smaller side S.  That exactly two sides remain is then
    checked on S alone: the searches never meet, every cycle edge has exactly
    one face in S, and the closure X of S has Euler characteristic 1.  X is
    a connected proper subcomplex of the sphere, so by Alexander duality its
    complement has 2 - chi(X) components; with the cut edges exactly the
    cycle, these are the components of the other side.
    """
    cyc = frozenset(cycle_edges)
    if traced.genus != 0:
        raise ValueError("cycle sides are defined only on genus-zero tracings")
    check_cycle(traced.graph, cyc)
    dual = traced._dual_darts
    e0 = min(cyc)
    starts = (traced.orbit_index_of((e0, 0)), traced.orbit_index_of((e0, 1)))
    if starts[0] == starts[1]:
        raise AssertionError("cycle leaves the sphere in one piece")
    side_of = {starts[0]: 0, starts[1]: 1}
    stacks = ([starts[0]], [starts[1]])
    done = None
    while done is None:
        for s, stack in enumerate(stacks):
            if not stack:
                done = s
                break
            for eid, y, _ in dual[stack.pop()]:
                if eid in cyc:
                    continue
                t = side_of.get(y)
                if t is None:
                    side_of[y] = s
                    stack.append(y)
                elif t != s:
                    raise AssertionError("cycle leaves the sphere in one piece")
    small = [x for x, s in side_of.items() if s == done]
    small_bits = 0
    for x in small:
        small_bits |= 1 << x
    for eid in cyc:
        ends_inside = ((small_bits >> traced.orbit_index_of((eid, 0))) & 1) + \
            ((small_bits >> traced.orbit_index_of((eid, 1))) & 1)
        if ends_inside != 1:
            raise AssertionError("cycle edges do not all bound the smaller side")
    vertices: set[str] = set()
    edges: set[str] = set()
    for x in small:
        for eid, _, tail in dual[x]:
            edges.add(eid)
            vertices.add(tail)
    if len(vertices) - len(edges) + len(small) != 1:
        raise AssertionError("cycle splits the sphere into more than two sides")
    other_bits = ((1 << len(traced.orbits)) - 1) ^ small_bits
    return (small_bits, other_bits) if small_bits & 1 else (other_bits, small_bits)


def _orbit_set(bits: int) -> frozenset[int]:
    return frozenset(_bits(bits))


def _sides_cross(sides1: tuple[int, int], sides2: tuple[int, int]) -> bool:
    """No side of one cycle lies inside a side of the other."""
    return all(a & ~b for a in sides1 for b in sides2)


def cycles_cross(traced: TracedFaces, c1: Iterable[str], c2: Iterable[str]) -> bool:
    """Whether two cycles cross: no side of one contains a side of the other.

    Independent of any outer-face choice; equal cycles do not cross.
    Nothing in the package calls it; the benchmark's per-layer metric
    `embedding.cycles_cross.calls` still names it.
    """
    return _sides_cross(_side_bits(traced, c1), _side_bits(traced, c2))


class CrossingPair:
    def __init__(self, first: str, second: str):
        self.first = first
        self.second = second

    def __repr__(self) -> str:
        return f"CrossingPair({self.first}, {self.second})"


def nesting_forest(traced: TracedFaces, cycles: Mapping[str, Iterable[str]],
                   outer_face: int = 0) -> dict[str, str | None] | CrossingPair:
    """Containment forest of cycle interiors as a parent map, or the first crossing pair.

    The parent of a cycle is the innermost cycle enclosing it, None for a
    root.  The outer face defaults to the first traced orbit; the interior
    of a cycle is its side away from the outer face.  One label walk over
    the dual builds the forest (see the module docstring); only when it finds
    the interiors not laminar are the pairs scanned, in lexicographic order
    of cycle ids, for the first crossing.  Every cycle must be a cycle of
    the traced graph, and two cycles with the same edge set are rejected.
    """
    ids = sorted(cycles)
    edge_sets = {cid: frozenset(cycles[cid]) for cid in ids}
    first_with: dict[frozenset[str], str] = {}
    for cid in ids:
        other = first_with.setdefault(edge_sets[cid], cid)
        if other != cid:
            raise ValueError(f"cycles {other} and {cid} have the same edge set")
    if not ids:
        return {}
    if traced.genus != 0:
        raise ValueError("cycle sides are defined only on genus-zero tracings")
    for edges in edge_sets.values():
        check_cycle(traced.graph, edges)
    parent = _label_walk(traced, edge_sets, outer_face)
    if parent is not None:
        return parent
    sides = {cid: _side_bits(traced, edge_sets[cid]) for cid in ids}
    for ca, cb in itertools.combinations(ids, 2):
        if _sides_cross(sides[ca], sides[cb]):
            return CrossingPair(ca, cb)
    raise AssertionError("interiors not laminar, yet no pair of cycles crosses")


def _label_walk(traced: TracedFaces, cycles: Mapping[str, frozenset[str]],
                outer: int) -> dict[str, str | None] | None:
    """The parent of every cycle, from labels walked down the dual; None if not laminar.

    A depth-first tree of the dual from the outer face numbers the faces in
    preorder, so each subtree is an interval.  A face is inside c exactly
    when an odd number of c's tree edges lie on its root path, that is,
    when an odd number of their subtree intervals hold it, so one sorted
    pass over those interval ends gives the size of c's interior.  The
    walk then labels the faces in preorder.  Across the tree edge into a
    face it walks up the parent face's chain while the node is a cycle
    through that edge; the other cycles through it must continue the chain
    downwards, innermost last by size.  A cycle through the edge higher up
    the chain cannot, so the walk exits exactly the cycles through the edge
    that hold the parent face, and a passing walk is consistent in the
    sense of the module docstring.  Cost O(F + E + sum of |c| log |c|).
    """
    dual = traced._dual_darts
    up = [-1] * len(dual)
    via = [""] * len(dual)
    first = [-1] * len(dual)
    order: list[int] = []
    stack = [(outer, -1, "")]
    while stack:
        x, p, eid = stack.pop()
        if first[x] >= 0:
            continue
        first[x] = len(order)
        order.append(x)
        up[x], via[x] = p, eid
        stack.extend((y, x, e) for e, y, _ in dual[x] if first[y] < 0)
    size = [1] * len(dual)
    for x in reversed(order[1:]):
        size[up[x]] += size[x]
    below = {via[x]: x for x in order[1:]}

    through: dict[str, dict[str, int]] = {}
    for cid, edges in cycles.items():
        kids = [below[e] for e in edges if e in below]
        ends = sorted([first[x] for x in kids] + [first[x] + size[x] for x in kids])
        inside = sum(ends[i + 1] - ends[i] for i in range(0, len(ends), 2))
        for x in kids:
            through.setdefault(via[x], {})[cid] = inside

    label: list[str | None] = [None] * len(dual)
    parent: dict[str, str | None] = {}
    for x in order[1:]:
        here = label[up[x]]
        rest = dict(through.get(via[x], ()))
        while here in rest:
            del rest[here]
            here = parent[here]
        for _, cid in sorted((-inside, cid) for cid, inside in rest.items()):
            if parent.setdefault(cid, here) != here:
                return None
            here = cid
        label[x] = here
    return dict(sorted(parent.items()))
