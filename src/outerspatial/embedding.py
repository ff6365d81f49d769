"""Rotation systems, face tracing, planarity and outerplanarity, cycle sides.

A rotation system assigns each vertex a cyclic order of its half-edges and
determines a surface via face tracing.  On a genus-zero tracing every cycle
splits the traced faces into exactly two sides, which gives a combinatorial
notion of cycle interiors.  Two cycles cross when no side of one is contained
in a side of the other; this is independent of which face is declared outer.

Non-crossing lemma: if no pair of cycles in a family crosses, then for any
choice of outer face the interiors (the sides avoiding the outer face) form a
laminar family.  Proof sketch: with outer face o, interior(c) is the side of
c not containing o.  Given cycles c1, c2 with sides (A, A') and (B, B'),
non-crossing gives a containment, say A <= B.  Whichever sides play the role
of interiors, A <= B forces int(c1) and int(c2) to be nested or disjoint:
if int(c1) = A and int(c2) = B they are nested; if int(c2) = B' then
int(c1) = A is disjoint from B'; if int(c1) = A' then o in A <= B so
int(c2) = B', and A' >= B' follows from A <= B.  This is exercised by tests
over every outer-face choice.

Converse: if for one outer face the interiors are laminar, no pair crosses.
Nested interiors put a side of one cycle inside a side of the other, and
disjoint interiors put int(c1) inside the complement of int(c2), which is
the other side of c2.  So "no pair crosses", "laminar for some outer face"
and "laminar for every outer face" are one property.  `nesting_forest`
tests it with a single laminar sweep and scans pairs only to name the first
crossing; `verify_certificate` tests it by checking the claimed forest.

Equal interiors: the edges separating the two sides of a cycle are exactly
its own edges, so two cycles have equal interiors only when they have the
same edge set, which for genuine cycles is a duplicate boundary.  `validate`
rejects duplicate boundaries in complexes and `nesting_forest` rejects them
with ValueError; the forest check fails on them, as a child equal to its
parent or to a sibling is neither strictly inside nor disjoint.
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
        vs = set(vertices)
        return RotationSystem({v: r for v, r in self._rot.items() if v in vs})

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
        self._side_cache: dict[frozenset[str], tuple[int, int]] = {}

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
    the genus at zero.  Deterministic for a fixed input.
    """
    rotators: dict[str, tuple[HalfEdge, ...]] = {}
    subs = [graph.induced_subgraph(comp) for comp in graph.components()]
    for sub in subs:
        comp_rot = _planar_rotators_connected(sub)
        if comp_rot is None:
            return PlanarityResult(None, sub)
        rotators.update(comp_rot)
    rotation = RotationSystem(rotators)
    traced = tuple(trace_faces(sub, rotation.restricted_to(sub.vertices)) for sub in subs)
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


def _simple_adjacency(graph: Graph) -> dict[str, set[str]]:
    """Neighbour sets of the simple underlying graph: loops dropped, parallels merged."""
    adj: dict[str, set[str]] = {v: set() for v in graph.vertices}
    for eid in graph.edge_ids():
        u, w = graph.endpoints(eid)
        if u != w:
            adj[u].add(w)
            adj[w].add(u)
    return adj


def _blocks(graph: Graph) -> list[dict[str, set[str]]]:
    """Neighbour sets in each biconnected component of the simple underlying graph.

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
    blocks: list[dict[str, set[str]]] = []
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
                    block: dict[str, set[str]] = {}
                    while True:
                        a, b = edge = edges.pop()
                        block.setdefault(a, set()).add(b)
                        block.setdefault(b, set()).add(a)
                        if edge == (parent, v):
                            break
                    blocks.append(block)
    return blocks


def _is_one_block(graph: Graph, blocks: list[dict[str, set[str]]]) -> bool:
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
    """Exact search for a K4 or K2,3 minor via branch-set enumeration.

    A K4 search first runs the linear series-parallel test and returns None
    without enumerating when the graph has no K4 minor.
    """
    if target not in _PATTERNS:
        raise ValueError(f"unsupported minor target {target}")
    if target == "K4" and _reduces_to_nothing(graph):
        return None
    return _search_minor(graph, target)


def _reduces_to_nothing(graph: Graph) -> bool:
    """Series-parallel reduction empties the simple underlying graph.

    The reduction deletes vertices of degree <= 1 and suppresses vertices of
    degree 2, merging the new edge into an existing one between the same
    neighbours.  Each step keeps a K4 minor and K4-minor-freeness alike: a
    vertex of degree <= 1 lies in no subdivided K4, and a vertex of degree 2
    can only subdivide one of its edges (K4 minors and subdivisions coincide
    because K4 is cubic).  A simple graph of minimum degree 3 has a K4 minor
    (Dirac 1952), so the graph is K4-minor-free exactly when nothing is
    left (Duffin 1965).  Every vertex is removed at most once and each step
    touches two neighbours, so the work is linear.
    """
    adj = _simple_adjacency(graph)
    low = [v for v, nbrs in adj.items() if len(nbrs) <= 2]
    while low:
        v = low.pop()
        nbrs = adj.pop(v, None)
        if nbrs is None:
            continue
        for w in nbrs:
            adj[w].discard(v)
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)
        low.extend(w for w in nbrs if len(adj[w]) <= 2)
    return not adj


def _search_minor(graph: Graph, target: str) -> MinorWitness | None:
    k, pattern_edges = _PATTERNS[target]
    verts = sorted(graph.vertices)
    n = len(verts)
    if n < k:
        return None
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    edge_for: dict[tuple[int, int], str] = {}
    for eid in sorted(graph.edges):
        u, v = graph.endpoints(eid)
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


def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


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
        if len(nbrs) >= 3 and not _eliminate(nbrs, triangles):
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


def _eliminate(nbrs: dict[str, set[str]], triangles: dict[frozenset[str], int]) -> bool:
    """Degree-2 elimination consuming one block's neighbour sets; False if not outerplanar."""
    low = sorted(v for v, ws in nbrs.items() if len(ws) == 2)
    while len(nbrs) > 2:
        if not low:
            return False
        v = low.pop()
        if v not in nbrs:
            continue
        a, b = nbrs.pop(v)
        nbrs[a].discard(v)
        nbrs[b].discard(v)
        nbrs[a].add(b)
        nbrs[b].add(a)
        for pair in (frozenset((v, a)), frozenset((v, b)), frozenset((a, b))):
            count = triangles.get(pair, 0) + 1
            if count == 3:
                return False
            triangles[pair] = count
        low.extend(w for w in (a, b) if len(nbrs[w]) == 2)
    return True


def check_cycle(graph: Graph, cycle_edges: Iterable[str]) -> frozenset[str]:
    """Check edge ids form a genuine cycle of the graph; return its vertices."""
    es = sorted(set(cycle_edges))
    if not es:
        raise ValueError("empty cycle")
    deg: dict[str, int] = {}
    for eid in es:
        if not graph.has_edge(eid):
            raise ValueError(f"unknown edge {eid}")
        u, v = graph.endpoints(eid)
        if u == v:
            raise ValueError(f"loop {eid} cannot lie on a cycle")
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        raise ValueError("edge set is not a cycle: wrong degrees")
    sub = Graph(set(deg), {e: graph.endpoints(e) for e in es})
    if not sub.is_connected():
        raise ValueError("edge set is not a cycle: disconnected")
    return frozenset(deg)


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
    cycle, these are the components of the other side.  Cached per tracing.
    """
    cyc = frozenset(cycle_edges)
    cached = traced._side_cache.get(cyc)
    if cached is not None:
        return cached
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
    sides = (small_bits, other_bits) if small_bits & 1 else (other_bits, small_bits)
    traced._side_cache[cyc] = sides
    return sides


def _orbit_set(bits: int) -> frozenset[int]:
    return frozenset(_bits(bits))


def _sides_cross(sides1: tuple[int, int], sides2: tuple[int, int]) -> bool:
    """No side of one cycle lies inside a side of the other."""
    return all(a & ~b for a in sides1 for b in sides2)


def cycles_cross(traced: TracedFaces, c1: Iterable[str], c2: Iterable[str]) -> bool:
    """Whether two cycles cross: no side of one contains a side of the other.

    Independent of any outer-face choice; equal cycles do not cross.
    """
    return _sides_cross(_side_bits(traced, c1), _side_bits(traced, c2))


def _interior_bits(traced: TracedFaces, cycles: Mapping[str, frozenset[str]],
                   outer_face: int) -> dict[str, int]:
    """Each cycle's side away from the outer face, as a bitset over orbits."""
    outer = 1 << outer_face
    out = {}
    for cid, edges in cycles.items():
        side_a, side_b = _side_bits(traced, edges)
        out[cid] = side_b if side_a & outer else side_a
    return out


def _children_index(parent: Mapping[str, str | None]) -> dict[str | None, tuple[str, ...]]:
    """Sorted children of every node of a forest's parent map; roots under None."""
    kids: dict[str | None, list[str]] = {}
    for cid in sorted(parent):
        kids.setdefault(parent[cid], []).append(cid)
    return {p: tuple(cs) for p, cs in kids.items()}


def _is_containment_forest(interiors: Mapping[str, int],
                           parent: Mapping[str, str | None]) -> bool:
    """Whether a parent map is the containment forest of laminar interiors.

    Checks, in one pass, that every child lies strictly inside its parent
    and that siblings, roots included, are pairwise disjoint.  For distinct
    non-empty interiors this holds exactly when the family is laminar and
    every parent is the smallest strict superset of its child: the ancestors
    of a cycle are then exactly the interiors strictly containing it.
    """
    if parent.keys() != interiors.keys():
        return False
    covered: dict[str | None, int] = {}
    for cid, p in parent.items():
        inner = interiors[cid]
        if p is not None:
            outer = interiors.get(p)
            if outer is None or inner & ~outer or inner == outer:
                return False
        taken = covered.get(p, 0)
        if taken & inner:
            return False
        covered[p] = taken | inner
    return True


class NestingForest:
    """Laminar containment forest of cycle interiors on a sphere tracing.

    Interiors are held as bitsets over orbits; `interiors` spells them out.
    """

    def __init__(self, outer_face: int, interior_bits: Mapping[str, int],
                 parent: Mapping[str, str | None]):
        self.outer_face = outer_face
        self.interior_bits = dict(interior_bits)
        self.parent = dict(parent)

    @cached_property
    def interiors(self) -> dict[str, frozenset[int]]:
        return {cid: _orbit_set(bits) for cid, bits in self.interior_bits.items()}

    @cached_property
    def _children(self) -> dict[str | None, tuple[str, ...]]:
        return _children_index(self.parent)

    def roots(self) -> tuple[str, ...]:
        return self._children.get(None, ())

    def children(self, cid: str) -> tuple[str, ...]:
        return self._children.get(cid, ())

    def is_laminar(self) -> bool:
        return _is_containment_forest(self.interior_bits, self.parent)

    def __repr__(self) -> str:
        return f"NestingForest({len(self.interior_bits)} cycles)"


class CrossingPair:
    def __init__(self, first: str, second: str):
        self.first = first
        self.second = second

    def __repr__(self) -> str:
        return f"CrossingPair({self.first}, {self.second})"


def nesting_forest(traced: TracedFaces, cycles: Mapping[str, Iterable[str]],
                   outer_face: int | None = None) -> NestingForest | CrossingPair:
    """Containment forest of cycle interiors, or the first crossing pair.

    The outer face defaults to the first traced orbit; the interior of a
    cycle is its side away from the outer face.  One laminar sweep builds
    the forest; only when it finds the interiors not laminar are the pairs
    scanned, in lexicographic order of cycle ids, for the first crossing.
    Two cycles with the same edge set are rejected.
    """
    ids = sorted(cycles)
    edge_sets = {cid: frozenset(cycles[cid]) for cid in ids}
    first_with: dict[frozenset[str], str] = {}
    for cid in ids:
        other = first_with.setdefault(edge_sets[cid], cid)
        if other != cid:
            raise ValueError(f"cycles {other} and {cid} have the same edge set")
    outer = 0 if outer_face is None else outer_face
    interiors = _interior_bits(traced, edge_sets, outer)
    parent = _laminar_sweep(interiors, len(traced.orbits))
    if parent is not None:
        return NestingForest(outer, interiors, parent)
    sides = {cid: _side_bits(traced, edge_sets[cid]) for cid in ids}
    for ca, cb in itertools.combinations(ids, 2):
        if _sides_cross(sides[ca], sides[cb]):
            return CrossingPair(ca, cb)
    raise AssertionError("interiors not laminar, yet no pair of cycles crosses")


def _laminar_sweep(interiors: Mapping[str, int], orbits: int) -> dict[str, str | None] | None:
    """Parent (smallest strict superset) of every interior, or None if not laminar.

    Visits interiors by decreasing size, then id, and keeps for every orbit
    the innermost interior visited so far that holds it.  A cycle's parent
    is the holder all its orbits share; when they disagree, some earlier
    interior overlaps this one without containing it.  Interiors must be
    distinct.
    """
    holder: list[str | None] = [None] * orbits
    parent: dict[str, str | None] = {}
    for cid in sorted(interiors, key=lambda c: (-interiors[c].bit_count(), c)):
        bits = _bits(interiors[cid])
        first = next(bits)
        shared = holder[first]
        holder[first] = cid
        for i in bits:
            if holder[i] != shared:
                return None
            holder[i] = cid
        parent[cid] = shared
    return dict(sorted(parent.items()))
