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
By the same parity, the interior of c in a depth-first tree is the XOR of
the preorder intervals of the subtrees below c's tree edges; the module
reads every cycle's interior and sides off that tree.

Face-orbit cycles.  A cycle c bounds a face orbit x when x runs exactly
c's edges, each once; x is then one of the two orbits at any edge of c.
Cutting c's edges leaves x alone in the dual, so c's sides are {x} and all
other orbits.  With x = o, int(c) holds every other interior and c is the
root.  Otherwise int(c) = {x} holds no interior, and c's parent is the
innermost other cycle holding x: x's label in a walk over the other
cycles, or else the root.  {x} lies in a side of every other cycle, so
such cycles cross nothing and `nesting_forest` walks only the others,
given the orbit of each such cycle.  An orbit that runs an edge twice
has a bridge on it, and a bridge lies on no cycle, so a genuine cycle is
never taken for such an orbit.

Crossing pairs.  Two cycles cross when no side of one lies in a side of
the other; this does not depend on o.  For any o the interiors are laminar
exactly when no pair crosses: nested interiors put a side of one cycle in
a side of the other, and disjoint ones put int(c1) in the side of c2 that
is not int(c2).  Conversely, take sides A, A' of c1 and B, B' of c2 with
A <= B: if int(c1) = A it lies in B, which is int(c2) or disjoint from it;
if int(c1) = A' then o is in A <= B, so int(c2) = B' <= A' = int(c1).  So
two cycles cross exactly when their interiors meet and neither contains
the other.  Cycles without a common vertex never cross: c1 meets one side
B' of c2 only, so the faces of the other side B meet no edge of c1 and,
being connected across non-c2 edges, lie in one side of c1.  When the walk
fails, `nesting_forest` computes the walked cycles' interiors from its
tree and scans their pairs with a common vertex, in lexicographic order of
cycle ids, for the first crossing one.  Two cycles with the same edge set
have equal interiors; `validate` rejects such duplicate boundaries in
complexes and `split_orbit_cycles` rejects them with ValueError.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Mapping

from .complexes import Dart, Graph, HalfEdge, LinkGraph, TwoComplex, _single_cycle
from .verdicts import ComponentCertificate, MinorWitness, RotationSystem


class TracedFaces:
    """The face orbits of a rotation system on a connected graph: a plain record.

    `trace_faces` traces them, each from its least dart and sorted, so orbit
    0 holds the least dart.  The decider's sphere route hands in, unread,
    its directed remainder faces in face order; the orbit list and the
    dart-to-orbit map `orbit_of` are built on first read.
    """

    def __init__(self, graph: Graph, rotation: RotationSystem,
                 orbits: Iterable[tuple[Dart, ...]]):
        self.graph = graph
        self.rotation = rotation
        self._orbits = orbits

    @cached_property
    def orbits(self) -> tuple[tuple[Dart, ...], ...]:
        return tuple(self._orbits)

    @cached_property
    def orbit_of(self) -> dict[Dart, int]:
        return {d: i for i, orbit in enumerate(self.orbits) for d in orbit}

    @cached_property
    def genus(self) -> int:
        v = len(self.graph.vertices)
        e = len(self.graph.edges)
        f = len(self.orbits)
        if e == 0:
            return 0
        two_g = 2 - v + e - f
        if two_g < 0 or two_g % 2:
            raise AssertionError(f"inconsistent Euler count: V={v} E={e} F={f}")
        return two_g // 2

    def __repr__(self) -> str:
        return f"TracedFaces({len(self.orbits)} orbits, genus {self.genus})"


def _trace_orbits(graph: Graph, rotation: RotationSystem) -> tuple[tuple[Dart, ...], ...]:
    """The orbits of dart (e, o) -> the half-edge after (e, 1 - o) at the head, sorted.

    Each orbit starts at its least dart.  The rotators must list exactly the
    half-edges at the graph's vertices (`validate_for`), so the map is a
    bijection on the darts.
    """
    after: dict[HalfEdge, HalfEdge] = {}
    for v in graph.vertices:
        cyc = rotation.rotator(v)
        for i, h in enumerate(cyc):
            after[cyc[i - 1]] = h
    seen: set[Dart] = set()
    orbits: list[tuple[Dart, ...]] = []
    for eid in graph.edges:
        for start in ((eid, 0), (eid, 1)):
            if start in seen:
                continue
            orbit = []
            d = start
            while True:
                orbit.append(d)
                seen.add(d)
                d = after[d[0], 1 - d[1]]
                if d == start:
                    break
            orbits.append(tuple(orbit))
    return tuple(orbits)


def trace_faces(graph: Graph, rotation: RotationSystem) -> TracedFaces:
    """Trace the face orbits of a rotation system on a connected graph.

    ValueError when the graph is not connected or a rotator does not list
    exactly the half-edges at its vertex.  The builder's tracer: `test_planar`
    and the oracle call it, while `verify_certificate` traces with a walk of
    its own; the genus is read off the Euler count.
    """
    if not graph.is_connected():
        raise ValueError("face tracing requires a connected graph")
    rotation.validate_for(graph)
    return TracedFaces(graph, rotation, _trace_orbits(graph, rotation))


def test_planar(graph: Graph) -> tuple[TracedFaces, ...] | None:
    """Planarity with an embedding: per component, a genus-zero face tracing.

    None when the graph is not planar.  The one place that decides whether
    a planarity test runs, by Euler's V - E + F = 2 - 2g: no simple
    underlying graph on n >= 3 vertices with more than 3n - 6 edges is
    planar, and a component with at most as many edges as vertices has
    F >= 1, so genus 0, in every rotation system; if every component is
    such, the sorted `half_edges_at` rotators serve.  Otherwise one
    networkx planarity test of the simple underlying graph orders the
    neighbours at every vertex.  Multigraphs are handled too: parallel
    edges are laid next to their partner and loops next to themselves,
    which keeps the genus at zero.  Each component of the graph's
    component index, in its order, is traced with the whole rotation
    system.  Deterministic for a fixed input.
    """
    n = len(graph.vertices)
    bound = 3 * n - 6
    if (n >= 3 and len(graph.edges) > bound
            and sum(a != b for a, b in graph.endpoint_pairs()) > bound):
        return None
    parts = graph.component_index()[1]
    rotators = {v: graph.half_edges_at(v) for v in sorted(graph.vertices)}
    if any(len(part.edges) > len(part.vertices) for part in parts):
        import networkx as nx
        simple = nx.Graph()
        simple.add_nodes_from(rotators)
        simple.add_edges_from((u, v) for u, v in graph.endpoint_pairs() if u != v)
        ok, emb = nx.check_planarity(simple)
        if not ok:
            return None
        order = emb.get_data()
        for v in rotators:
            cyc: list[HalfEdge] = []
            for w in order.get(v, []):
                block = graph.edges_between(v, w)
                # Parallel edges ride along a single embedded edge; opposite
                # relative order at the two endpoints keeps every digon a face.
                if v > w:
                    block = block[::-1]
                for eid in block:
                    u0, _ = graph.endpoints(eid)
                    cyc.append((eid, 0 if u0 == v else 1))
            for eid in graph.edges_between(v, v):
                cyc.extend([(eid, 0), (eid, 1)])
            rotators[v] = tuple(cyc)
    rotation = RotationSystem(rotators)
    traced = tuple(trace_faces(part, rotation) for part in parts)
    if any(t.genus != 0 for t in traced):
        raise AssertionError("planar embedding traced to nonzero genus")
    return traced


def is_2_connected(graph: Graph) -> bool:
    """Connected, at least three vertices, no loops, and no cutvertex."""
    return _is_one_block(graph, _blocks(graph))


def _simple_adjacency(graph: Graph) -> dict[str, dict[str, None]]:
    """Neighbours of the simple underlying graph: loops dropped, parallels merged.

    Vertices come in sorted order and neighbours in the order of their least
    joining edge id, the order of the graph's `endpoint_pairs`, so whatever
    is built by walking it is the same in every process.  Each neighbour
    maps to None, which `_reduce` reads as an edge of the graph itself.
    """
    adj: dict[str, dict[str, None]] = {v: {} for v in sorted(graph.vertices)}
    for u, w in graph.endpoint_pairs():
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


_PATTERNS: dict[str, tuple[int, tuple[tuple[int, int], ...]]] = {
    "K4": (4, tuple(itertools.combinations(range(4), 2))),
    "K2,3": (5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
}


def find_minor(graph: Graph, target: str) -> MinorWitness | None:
    """A K4 or K2,3 minor of the simple underlying graph, or None when it has none.

    Both witnesses come from linear reductions; no vertex subset is listed
    (the tests' `families._search_minor` does that, as ground truth).

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
    for eid, uv in graph.edges.items():  # ascending, so the first edge of a pair is its smallest
        i, j = sorted(index.get(v, -1) for v in uv)
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
        x, y = pair
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
        if eid is None or eid not in graph.edges:
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
    `violation` says why the graph is not 2-connected and simple, "not
    simple" before "not 2-connected", and is None when it is both.
    """

    def __init__(self, outerplanar: bool, violation: str | None,
                 boundary: tuple[str, ...] | None = None,
                 boundary_edges: frozenset[str] | None = None,
                 chords: frozenset[str] | None = None,
                 nonouterplanar: Graph | None = None):
        self.outerplanar = outerplanar
        self.violation = violation
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


def test_outerplanar(graph: Graph | LinkGraph) -> OuterplanarityResult:
    """Outerplanarity by one block pass and degree-2 elimination, in linear time.

    Loops and parallel edges are ignored for the verdict; boundary and chord
    structure is only reported for simple 2-connected graphs, which the
    block pass recognises too.

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
    graph = graph.graph if isinstance(graph, LinkGraph) else graph
    blocks = _blocks(graph)
    if not graph.is_simple():
        violation = "not simple"
    elif not _is_one_block(graph, blocks):
        violation = "not 2-connected"
    else:
        violation = None
    triangles: dict[tuple[str, str], int] = {}
    for nbrs in blocks:
        if len(nbrs) >= 3 and _eliminate(nbrs, triangles) is not None:
            return OuterplanarityResult(False, violation, nonouterplanar=graph)
    if violation is not None:
        return OuterplanarityResult(True, violation)
    boundary_edges, chords = set(), set()
    ring = {v: [] for v in graph.vertices}
    for eid, (u, v) in graph.edges.items():
        if triangles[(u, v) if u < v else (v, u)] == 2:
            chords.add(eid)
        else:
            boundary_edges.add(eid)
            ring[u].append(v)
            ring[v].append(u)
    return OuterplanarityResult(True, None, _single_cycle(ring), frozenset(boundary_edges),
                                frozenset(chords))


def _eliminate(nbrs: dict[str, dict[str, None]],
               triangles: dict[tuple[str, str], int]) -> tuple[str, ...] | None:
    """Degree-2 elimination consuming one block's neighbours.

    None when the block passes, which means it is outerplanar; otherwise
    the pair (x, y), x < y, that reached a third triangle, or () when three
    or more vertices remain and none has degree 2.
    """
    low = sorted(v for v, ws in nbrs.items() if len(ws) == 2)
    while len(nbrs) > 2:
        if not low:
            return ()
        v = low.pop()
        if v not in nbrs:
            continue
        a, b = nbrs.pop(v)
        del nbrs[a][v], nbrs[b][v]
        nbrs[a][b] = nbrs[b][a] = None
        for x, y in ((v, a), (v, b), (a, b)):
            pair = (x, y) if x < y else (y, x)
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
        if eid not in graph.edges:
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

    Requires genus zero.  The side holding orbit 0 comes first; the other is
    the cycle's interior in a dual tree rooted at orbit 0.
    """
    cyc = frozenset(cycle_edges)
    check_cycle(traced.graph, cyc)
    tree = _DualTree(traced, 0)
    inside = frozenset(tree.order[p] for p in _bits(_cycle_interior(traced, tree, cyc)))
    return frozenset(range(len(traced.orbits))) - inside, inside


def cycles_cross(traced: TracedFaces, c1: Iterable[str], c2: Iterable[str]) -> bool:
    """Whether two cycles cross: no side of one contains a side of the other.

    Independent of any outer-face choice; equal cycles do not cross.
    Nothing in the package calls it; the benchmark's per-layer metric
    `embedding.cycles_cross.calls` still names it.
    """
    c1, c2 = frozenset(c1), frozenset(c2)
    pair = {"1": c1} if c1 == c2 else {"1": c1, "2": c2}
    return isinstance(nesting_forest(traced, *split_orbit_cycles(traced, pair)), CrossingPair)


class CrossingPair:
    """Two crossing cycles, with the traced orbits inside the first."""

    def __init__(self, first: str, second: str, inside: frozenset[int]):
        self.first = first
        self.second = second
        self.inside = inside

    def __repr__(self) -> str:
        return f"CrossingPair({self.first}, {self.second})"


def split_orbit_cycles(traced: TracedFaces, cycles: Mapping[str, Iterable[str]]
                       ) -> tuple[dict[str, int], dict[str, frozenset[str]]]:
    """`nesting_forest`'s two maps, for callers that do not know which orbit each cycle bounds.

    Rejects two cycles with one edge set and a tracing of nonzero genus.
    """
    ids = sorted(cycles)
    edge_sets = {cid: frozenset(cycles[cid]) for cid in ids}
    first_with: dict[frozenset[str], str] = {}
    for cid in ids:
        other = first_with.setdefault(edge_sets[cid], cid)
        if other != cid:
            raise ValueError(f"cycles {other} and {cid} have the same edge set")
    if ids and traced.genus != 0:
        raise ValueError("cycle sides are defined only on genus-zero tracings")
    orbits, orbit_of = traced.orbits, traced.orbit_of
    own: dict[str, int] = {}
    for cid, edges in edge_sets.items():
        e = next(iter(edges), None)  # any edge serves: such an orbit runs each one
        for x in (orbit_of.get((e, 0)), orbit_of.get((e, 1))):
            if x is not None and len(orbits[x]) == len(edges) and all(d in edges for d, _ in orbits[x]):
                own[cid] = x
                break
    return own, {cid: edges for cid, edges in edge_sets.items() if cid not in own}


def nesting_forest(traced: TracedFaces, own: Mapping[str, int],
                   walked: Mapping[str, frozenset[str]],
                   outer_face: int = 0) -> dict[str, str | None] | CrossingPair:
    """Containment forest of cycle interiors as a parent map, or the first crossing pair.

    The parent of a cycle is the innermost cycle enclosing it, None for a
    root.  `own` maps each cycle that bounds a face orbit to that orbit
    (the sphere route knows it; `split_orbit_cycles` finds it for other
    callers), and `walked` maps every other cycle to its edge set.  The
    interior of a cycle is its side away from the outer face, by default
    the first traced orbit.  Face-orbit cycles are nested without a walk
    (see the module docstring).  One label walk down a dual tree rooted
    at the outer face nests the walked cycles; with none, no tree is
    built and the orbits are not read.  Only when the walk finds their
    interiors not laminar are they computed from that tree and the pairs
    with a common vertex scanned, in lexicographic order of cycle ids,
    for the first two interiors that meet with neither containing the
    other; the pair carries the orbits inside its first cycle.  Cost
    O(|own|), plus O(F + E + sum of |c|) and the walk when any cycle is
    walked.

    Precondition: the cycles are genuine cycles of a genus-zero tracing
    with distinct edge sets.  It is not re-proved here, and the package
    does not export this function: every caller passes the faces of a
    validated complex or of an associated complex, which `validate` or
    `associated_complex` has checked.  Only the crossing scan, which
    reads vertex sets, walks the cycles (`check_cycle`); a passing walk
    still rejects a walked cycle it never crossed, but other edge sets
    that are not cycles may pass unnoticed.
    """
    tree = _DualTree(traced, outer_face) if walked else None
    walk = _label_walk(tree, walked) if walked else ({}, None)
    if walk is not None:
        parent, label = walk
        # A genuine cycle separates two faces, so some dual tree edge
        # crosses it and the walk gives it a parent.
        if len(parent) != len(walked):
            missing = min(set(walked) - set(parent))
            raise ValueError(f"cycle {missing} is not a cycle of the traced graph")
        root = next((cid for cid, x in own.items() if x == outer_face), None)
        forest: dict[str, str | None] = {}
        for cid, x in own.items():
            p = None if label is None else label[x]
            forest[cid] = None if x == outer_face else root if p is None else p
        for cid, p in parent.items():
            forest[cid] = root if p is None else p
        return forest
    vertices = {cid: check_cycle(traced.graph, edges) for cid, edges in walked.items()}
    inside = {cid: _cycle_interior(traced, tree, edges) for cid, edges in walked.items()}
    # Cycles without a common vertex never cross (module docstring).
    at: dict[str, list[str]] = {}
    for cid in walked:
        for v in vertices[cid]:
            at.setdefault(v, []).append(cid)
    for ca in walked:
        a = inside[ca]
        for cb in sorted({cb for v in vertices[ca] for cb in at[v] if cb > ca}):
            b = inside[cb]
            if a & b and a & ~b and b & ~a:
                return CrossingPair(ca, cb, frozenset(tree.order[p] for p in _bits(a)))
    raise AssertionError("interiors not laminar, yet no pair of cycles crosses")


def component_certificate(traced: TracedFaces,
                          comp: TwoComplex) -> ComponentCertificate | CrossingPair:
    """Certificate for one traced component's faces, or the first crossing pair; orbit 0 is outer."""
    cycles = {fid: f.edge_set for fid, f in comp.faces.items()}
    parents = nesting_forest(traced, *split_orbit_cycles(traced, cycles))
    if isinstance(parents, CrossingPair):
        return parents
    outer = traced.orbits[0] if traced.orbits else ()
    return ComponentCertificate(tuple(traced.graph.vertices), outer, parents)


class _DualTree:
    """A depth-first spanning tree of the dual of a traced graph, from a root orbit.

    `order` lists the orbits in preorder and first[x] is the position of x
    in it, so the orbits below x fill the interval [first[x], first[x] +
    size[x]).  Every orbit x but the root is reached from its tree parent
    up[x] across the edge via[x], and `below` maps that edge back to x.
    A tracing of genus other than zero has no such sides: ValueError.
    """

    def __init__(self, traced: TracedFaces, root: int):
        if traced.genus != 0:
            raise ValueError("cycle sides are defined only on genus-zero tracings")
        orbits, orbit_of = traced.orbits, traced.orbit_of
        self.up = up = [-1] * len(orbits)
        self.via = via = [""] * len(orbits)
        self.first = first = [-1] * len(orbits)
        self.order = order = []
        stack = [(root, -1, "")]
        while stack:
            x, p, eid = stack.pop()
            if first[x] >= 0:
                continue
            first[x] = len(order)
            order.append(x)
            up[x], via[x] = p, eid
            for e, o in orbits[x]:
                y = orbit_of[e, 1 - o]
                if first[y] < 0:
                    stack.append((y, x, e))
        self.size = size = [1] * len(orbits)
        for x in reversed(order[1:]):
            size[up[x]] += size[x]
        self.below = {via[x]: x for x in order[1:]}


def _cycle_interior(traced: TracedFaces, tree: _DualTree, edges: Iterable[str]) -> int:
    """The orbits inside a cycle of a genus-zero tracing, as bits at their preorder numbers.

    An orbit is inside exactly when an odd number of the cycle's tree edges
    lie on its path from the root (module docstring), that is, when an odd
    number of their subtree intervals hold it: the interior is the XOR of
    those intervals.  The two orbits at each cycle edge lie on opposite
    sides, which one bit test per edge asserts.
    """
    inside = 0
    for eid in edges:
        x = tree.below.get(eid)
        if x is not None:
            inside ^= ((1 << tree.size[x]) - 1) << tree.first[x]
    first, orbit_of = tree.first, traced.orbit_of
    for eid in edges:
        if not (inside >> first[orbit_of[(eid, 0)]] ^ inside >> first[orbit_of[(eid, 1)]]) & 1:
            raise AssertionError("both faces at a cycle edge lie on one side")
    return inside


def _label_walk(tree: _DualTree, cycles: Mapping[str, frozenset[str]]
                ) -> tuple[dict[str, str | None], list[str | None]] | None:
    """The parent of every cycle and the label of every orbit; None if not laminar.

    A face is inside c exactly when an odd number of c's tree edges lie on
    its root path, that is, when an odd number of their subtree intervals
    hold it, so one sorted pass over those interval ends gives the size of
    c's interior.  The walk then labels the faces in preorder.  Across the
    tree edge into a face it walks up the parent face's chain while the
    node is a cycle through that edge; the other cycles through it must
    continue the chain downwards, innermost last by size.  A cycle through
    the edge higher up the chain cannot, so the walk exits exactly the
    cycles through the edge that hold the parent face, and a passing walk
    is consistent in the sense of the module docstring, and each orbit's
    label, indexed by orbit, is the innermost cycle enclosing it.  Cost
    O(F + E + sum of |c| log |c|) over the cycles it is given.
    """
    order, up, via, first, size = tree.order, tree.up, tree.via, tree.first, tree.size
    below = tree.below
    through: dict[str, dict[str, int]] = {}
    for cid, edges in cycles.items():
        kids = [below[e] for e in edges if e in below]
        ends = sorted([first[x] for x in kids] + [first[x] + size[x] for x in kids])
        inside = sum(ends[1::2]) - sum(ends[::2])
        for x in kids:
            through.setdefault(via[x], {})[cid] = inside

    label: list[str | None] = [None] * len(first)
    parent: dict[str, str | None] = {}
    for x in order[1:]:
        here = label[up[x]]
        # Each tree edge is crossed once, so its map is used up in place.
        rest = through.get(via[x])
        if rest:
            while here in rest:
                del rest[here]
                here = parent[here]
            entered = rest if len(rest) < 2 else \
                [cid for _, cid in sorted((-inside, cid) for cid, inside in rest.items())]
            for cid in entered:
                if parent.setdefault(cid, here) != here:
                    return None
                here = cid
        label[x] = here
    return parent, label
