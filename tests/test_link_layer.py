"""The link layer: one block pass with degree-2 elimination, links built once.

The reference below is the link layer that `test_outerplanar` and
`is_2_connected` replaced, kept here only: outerplanarity as planarity of
the one-dimensional cone, the Hamilton boundary and chords from the
separating pairs of endpoints, 2-connectivity by deleting each vertex in
turn, and the reason a link is outside the hypothesis as the decider once
asked it, by a second simplicity test and a second block pass.
"""

import random
from collections import Counter
from pathlib import Path

import networkx as nx
import pytest

import families
from outerspatial import complexes, decider, embedding, surface
from outerspatial import generators as gen
from outerspatial.complexes import Face, Graph, TwoComplex, cone, delete_faces, link_graph
from outerspatial.decider import decide_outerspatial, is_locally_2_connected
from outerspatial.embedding import is_2_connected
from outerspatial.embedding import test_outerplanar as check_outerplanar
from outerspatial.embedding import test_planar as check_planar
from outerspatial.fileformat import parse_complex
from outerspatial.surface import classify_component


def reference_is_2_connected(graph):
    if len(graph.vertices) < 3 or graph.loops():
        return False
    if not graph.is_connected():
        return False
    for v in graph.vertices:
        rest = graph.induced_subgraph(graph.vertices - {v})
        if not rest.is_connected():
            return False
    return True


def reference_cone(graph):
    apex = "apex"
    while apex in graph.vertices:
        apex += "x"
    edges = dict(graph.edges)
    used = set(edges)
    for v in sorted(graph.vertices):
        eid = f"{apex}{v}"
        while eid in used:
            eid += "x"
        used.add(eid)
        edges[eid] = (apex, v)
    return Graph(set(graph.vertices) | {apex}, edges)


def reference_boundary_structure(graph):
    """An edge is a chord exactly when its endpoints separate the graph."""
    boundary_edges = set()
    chords = set()
    for eid in sorted(graph.edges):
        u, v = graph.endpoints(eid)
        rest = graph.induced_subgraph(graph.vertices - {u, v})
        if len(rest.vertices) <= 1 or rest.is_connected():
            boundary_edges.add(eid)
        else:
            chords.add(eid)
    succ = {v: [] for v in graph.vertices}
    for eid in boundary_edges:
        u, v = graph.endpoints(eid)
        succ[u].append(v)
        succ[v].append(u)
    assert all(len(ws) == 2 for ws in succ.values())
    start = min(graph.vertices)
    cycle = [start]
    prev, at = None, start
    while True:
        nxt = sorted(w for w in succ[at] if w != prev)[0] if prev is None else \
            (succ[at][0] if succ[at][1] == prev else succ[at][1])
        if nxt == start:
            break
        cycle.append(nxt)
        prev, at = at, nxt
    assert len(cycle) == len(graph.vertices)
    return tuple(cycle), frozenset(boundary_edges), frozenset(chords)


def reference_violation(graph, outerplanar, boundary):
    """Why the graph is not 2-connected and simple, as the decider's link record once said."""
    if boundary is not None:
        return None
    if not graph.is_simple():
        return "not simple"
    if outerplanar or not is_2_connected(graph):
        return "not 2-connected"
    return None


def reference_outerplanar(graph):
    """(verdict, boundary, boundary edges, chords, violation) by the cone-planarity route."""
    if check_planar(reference_cone(graph)) is None:
        verdict, structure = False, (None, None, None)
    elif graph.is_simple() and reference_is_2_connected(graph):
        verdict, structure = True, reference_boundary_structure(graph)
    else:
        verdict, structure = True, (None, None, None)
    return (verdict,) + structure + (reference_violation(graph, verdict, structure[0]),)


def from_pairs(pairs, vertices=()):
    names = set(vertices) | {v for uv in pairs for v in uv}
    return Graph(names, {f"e{i:03d}": uv for i, uv in enumerate(pairs)})


def from_nx(nxg):
    return from_pairs([(f"v{u}", f"v{v}") for u, v in sorted(nxg.edges())],
                      [f"v{v}" for v in nxg.nodes])


def random_outerplanar(rng, n, drop, extra):
    """A polygon triangulated by ear attachment, chords dropped with
    probability `drop`, plus one random non-edge when `extra`."""
    labels = [f"w{i:02d}" for i in rng.sample(range(100), n)]
    sides = [(0, 1), (1, 2), (0, 2)]
    chords = []
    for k in range(3, n):
        a, b = sides.pop(rng.randrange(len(sides)))
        chords.append((a, b))
        sides += [(a, k), (k, b)]
    kept = [uv for uv in chords if rng.random() >= drop]
    pairs = {tuple(sorted(uv)) for uv in sides + kept}
    if extra:
        missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
        if missing:
            pairs.add(rng.choice(missing))
    return from_pairs([(labels[u], labels[v]) for u, v in sorted(pairs)])


def with_parallels_and_loops(graph, rng):
    edges = dict(graph.edges)
    for eid in rng.sample(sorted(edges), min(2, len(edges))):
        edges[f"{eid}p"] = edges[eid]
    v = min(graph.vertices)
    edges["loop"] = (v, v)
    return Graph(graph.vertices, edges)


def atlas_graphs():
    return [from_nx(g) for g in nx.graph_atlas_g() if g.number_of_nodes() <= 7]


def gnp_graphs(count=400, seed=3):
    rng = random.Random(seed)
    return [from_nx(nx.gnp_random_graph(rng.randrange(3, 15), rng.uniform(0.1, 0.5),
                                        seed=rng.randrange(10 ** 9)))
            for _ in range(count)]


def outerplanar_graphs(seed=5):
    rng = random.Random(seed)
    out = []
    for n in list(range(3, 61, 3)) + [60] * 10:
        for drop in (0.0, 0.5):
            for extra in (False, True):
                out.append(random_outerplanar(rng, n, drop, extra))
    return out


def cut_vertex_graphs():
    tri = [("a", "b"), ("b", "c"), ("a", "c")]
    bowtie = tri + [("c", "d"), ("d", "e"), ("c", "e")]
    k4 = [(u, v) for i, u in enumerate("pqrs") for v in "pqrs"[i + 1:]]
    k23 = [(u, v) for u in "xy" for v in "klm"]
    square = [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")]
    return [from_pairs(pairs) for pairs in (
        bowtie,
        bowtie + [("e", "f"), ("f", "g"), ("e", "g")],
        tri + [("c", "d")],
        tri + k4 + [("c", "p")],
        tri + k23 + [("c", "x")],
        square + [("a", "c")] + [("c", "x"), ("x", "y"), ("c", "y")],
        [("a", "b"), ("b", "c"), ("c", "d")],
        [("h", f"s{i}") for i in range(5)],
        k4 + [("s", "t"), ("t", "u"), ("s", "u")],
    )]


def small_and_disconnected_graphs():
    return [
        Graph((), {}),
        Graph("a", {}),
        Graph("a", {"l": ("a", "a")}),
        Graph("ab", {}),
        Graph("ab", {"e": ("a", "b")}),
        Graph("ab", {"e": ("a", "b"), "f": ("a", "b")}),
        Graph("abc", {"e": ("a", "b")}),
        from_pairs([("a", "b"), ("b", "c"), ("a", "c")], "z"),
        from_pairs([("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")]),
        from_pairs([(u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1:]], "xy"),
    ]


def multigraphs():
    rng = random.Random(11)
    base = [from_nx(g) for g in nx.graph_atlas_g()[3:200:7] if g.number_of_edges()]
    base += outerplanar_graphs(seed=13)[:12] + cut_vertex_graphs()
    out = [with_parallels_and_loops(g, rng) for g in base]
    # Parallel edges alone keep a graph 2-connected but not simple.
    out += [Graph(g.vertices, {**g.edges, "par": g.endpoints(min(g.edges))})
            for g in outerplanar_graphs(seed=17)[:12]]
    return out


FAMILIES = {
    "atlas": atlas_graphs,
    "gnp": gnp_graphs,
    "outerplanar": outerplanar_graphs,
    "multigraph": multigraphs,
    "cut-vertex": cut_vertex_graphs,
    "small-and-disconnected": small_and_disconnected_graphs,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_agrees_with_the_reference(family):
    graphs = FAMILIES[family]()
    assert graphs
    for graph in graphs:
        verdict, boundary, boundary_edges, chords, violation = reference_outerplanar(graph)
        got = check_outerplanar(graph)
        assert got.outerplanar == verdict, graph.edges
        assert got.boundary == boundary, graph.edges
        assert got.boundary_edges == boundary_edges, graph.edges
        assert got.chords == chords, graph.edges
        assert got.violation == violation, graph.edges
        assert is_2_connected(graph) == reference_is_2_connected(graph), graph.edges


def test_families_reach_every_outcome():
    outcomes = Counter()
    violations = Counter()
    for make in FAMILIES.values():
        for graph in make():
            got = check_outerplanar(graph)
            outcomes[(got.outerplanar, got.boundary is not None,
                      bool(got.chords), is_2_connected(graph))] += 1
            violations[(got.outerplanar, got.violation)] += 1
    # Non-outerplanar 2-connected and not; outerplanar with and without a
    # boundary, with and without chords.
    for key in ((False, False, False, True), (False, False, False, False),
                (True, True, True, True), (True, True, False, True),
                (True, False, False, True), (True, False, False, False)):
        assert outcomes[key] > 0, key
    # Every reason, and none, on both sides of the verdict.
    for outerplanar in (False, True):
        for violation in (None, "not simple", "not 2-connected"):
            assert violations[(outerplanar, violation)] > 0, (outerplanar, violation)


def test_witness_is_searched_when_read(monkeypatch):
    calls = []
    real = embedding.find_minor
    monkeypatch.setattr(embedding, "find_minor",
                        lambda g, target: calls.append(target) or real(g, target))
    k23 = from_pairs([(u, v) for u in "xy" for v in "klm"])
    result = check_outerplanar(k23)
    assert not result.outerplanar and calls == []
    assert result.witness.target == "K2,3"
    assert result.witness is result.witness
    assert calls == ["K4", "K2,3"]
    assert check_outerplanar(from_pairs([("a", "b"), ("b", "c"), ("a", "c")])).witness is None


def test_locally_2_connected_reads_the_link_table():
    cone_tetra = cone(gen.tetra())  # every link is K4: 2-connected, not outerplanar
    cones = [gen.cone_over_graph(gen.named_graph(name)) for name in ("k4", "k23")]
    for complex in [gen.tetra(), gen.prism(5), gen.torus7(), cone_tetra,
                    delete_faces(gen.tetra(), {"abc"})] + cones:
        expected = all(lg.is_simple() and reference_is_2_connected(lg)
                       for lg in (complexes.link_graph(complex, v).graph
                                  for v in complex.graph.vertices))
        assert is_locally_2_connected(complex) == expected
    assert is_locally_2_connected(cone_tetra)


def test_a_link_gets_at_most_one_block_pass(monkeypatch):
    """The reason a link is outside the hypothesis comes from the outerplanarity pass."""
    cone_tetra = cone(gen.tetra())  # every link is K4: 2-connected, not outerplanar
    cones = [gen.cone_over_graph(gen.named_graph(name)) for name in ("k4", "k23")]
    for complex in [cone_tetra, delete_faces(gen.tetra(), {"abc"})] + cones:
        passes = _count_calls(monkeypatch, "_blocks", [embedding])
        is_locally_2_connected(complex)
        assert 0 < len(passes) <= len(complex.graph.vertices)
        if complex is cone_tetra:
            assert len(passes) == len(complex.graph.vertices)


def _count_calls(monkeypatch, name, modules):
    """Wrap `name` in every namespace binding it; return the list of call args."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def _count_link_graphs(monkeypatch):
    """The host of every link whose validated `Graph` is built, once per build."""
    built = []
    prop = complexes.LinkGraph.graph
    real = prop.func
    monkeypatch.setattr(prop, "func", lambda link: built.append(link.host) or real(link))
    return built


def chorded_vertices(complex):
    """The vertices whose link has a chord, by the block pass on the link `Graph`."""
    return sorted(v for v in complex.graph.vertices
                  if check_outerplanar(link_graph(complex, v).graph).chords)


def test_prism_decides_without_cone_planarity_and_builds_each_chorded_link_once(monkeypatch):
    """Positives settle every one-cycle link in one corner pass, which the self-check
    does not run, and call no `link_graph`: a prism and a stacked sphere build no link
    `Graph`; a star-boundary sphere builds the link `Graph` once at each vertex whose
    link has a chord."""
    for complex in [gen.prism(20), families.stacked(3, 120)] + families.star_boundary_spheres():
        with monkeypatch.context() as mp:
            planar = _count_calls(mp, "test_planar", [embedding, decider])
            passes = _count_calls(mp, "link_cycles", [complexes, decider, surface])
            links = _count_calls(mp, "link_graph", [complexes])
            graphs = _count_link_graphs(mp)
            verdict = decide_outerspatial(complex)
        assert verdict.kind == "outerspatial"
        assert planar == [] and len(passes) == 1 and links == []
        chorded = chorded_vertices(complex)
        assert graphs == chorded
        assert len(chorded) < len(complex.graph.vertices) / 2
    assert chorded


def test_a_cone_over_k4_builds_the_link_graphs_it_reads(monkeypatch):
    """No link of the cone is one cycle: each builds its `Graph` once for the
    block pass, and the self-check builds the apex link's again to verify the
    obstruction."""
    complex = gen.cone_over_graph(gen.named_graph("k4"))
    graphs = _count_link_graphs(monkeypatch)
    verdict = decide_outerspatial(complex)
    assert verdict.kind == "not-outerspatial" and verdict.obstruction.path.vertices == ("t",)
    assert Counter(graphs) == {"t": 2, "a": 1, "b": 1, "c": 1, "d": 1}


def test_the_link_pass_stops_at_the_first_non_outerplanar_link(monkeypatch):
    """The apex A sorts before every base vertex and its link, K4, is not
    outerplanar, so `decide` builds no other link; the self-check reads the
    apex link once more, through `link_graph`, to verify the obstruction."""
    complex = cone(TwoComplex(gen.named_graph("k4"), []), apex="A")
    links = _count_calls(monkeypatch, "link_graph", [complexes])
    graphs = _count_link_graphs(monkeypatch)
    verdict = decide_outerspatial(complex)
    assert verdict.kind == "not-outerspatial" and verdict.obstruction.path.vertices == ("A",)
    assert [v for _, v in links] == ["A"]
    assert graphs == ["A", "A"]


def link_edge_cases():
    """Complexes whose links hold loop ends, a digon, an isolated vertex and a loop."""
    # The link at a is the 4-cycle l:0 y l:1 x on the ends of the loop l;
    # the link at b is the digon on x and y.
    g = Graph("ab", {"l": ("a", "a"), "x": ("a", "b"), "y": ("a", "b")})
    loop_ends = TwoComplex(g, [Face.from_edges(g, "p", ["l", "x", "y"]),
                               Face.from_edges(g, "q", ["l", "y", "x"])])
    # The pendant edge ae is an isolated vertex of the link at a, and the
    # face d, from a to b and back along ab, a loop at ab in the links at a and b.
    tetra = gen.tetra()
    g = Graph(tetra.graph.vertices | {"e"}, {**tetra.graph.edges, "ae": ("a", "e")})
    pendant = TwoComplex(g, list(tetra.faces.values()) + [Face.from_edges(g, "d", ["ab", "ab"])])
    # Two tetrahedra sharing a vertex: the link there is two triangles.
    bowtie = families.from_cycles({**families.stacked_cycles(1, 4),
                                   "g1": ("v0", "w1", "w2"), "g2": ("v0", "w2", "w3"),
                                   "g3": ("v0", "w1", "w3"), "g4": ("w1", "w2", "w3")})
    # Contracting the diagonal path a-x-c of the square face s makes s pass
    # the merged vertex twice: its corners there are the link edges s and s@1.
    g = Graph("abcdx", {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d"),
                        "da": ("d", "a"), "ax": ("a", "x"), "xc": ("x", "c")})
    square = TwoComplex(g, [Face.from_vertices(g, "s", ("a", "b", "c", "d"))])
    revisit = complexes.contract_path(square, complexes.Path(("a", "x", "c"), ("ax", "xc")))
    return [loop_ends, pendant, bowtie, revisit]


def reference_link(complex, v):
    """Vertices, ends and faces of the link at v by the corner rule, from the face steps.

    Step i of a face at v arrives by the far end of step i - 1 and leaves by
    its own edge; its link edge is the face id, or `fid@k` when v is the
    face's k-th return to it.  A loop e's ends are named e:0 and e:1.
    """
    g = complex.graph

    def name(eid, end):
        return f"{eid}:{end}" if g.is_loop(eid) else eid

    ends, edge_face = {}, {}
    for fid, f in complex.faces.items():
        for i, (w, eid, o) in enumerate(f.steps):
            if w != v:
                continue
            k = [s[0] for s in f.steps[:i]].count(v)
            le = fid if k == 0 else f"{fid}@{k}"
            _, pe, po = f.steps[i - 1]
            ends[le] = (name(pe, 1 - po), name(eid, o))
            edge_face[le] = fid
    return {name(*h) for h in g.half_edges_at(v)}, list(ends.items()), edge_face


def pillow():
    """Two faces on the same two parallel edges: the link at each vertex is a digon."""
    g = Graph("ab", {"x": ("a", "b"), "y": ("a", "b")})
    return TwoComplex(g, [Face.from_edges(g, "p", ["x", "y"]), Face.from_edges(g, "q", ["x", "y"])])


def dangling():
    """The tetrahedron with an edge ae on no face: the link at a is a triangle beside
    the isolated vertex ae, so its corners alone ring one cycle."""
    tetra = gen.tetra()
    g = Graph(tetra.graph.vertices | {"e"}, {**tetra.graph.edges, "ae": ("a", "e")})
    return TwoComplex(g, tetra.faces.values())


def spike():
    """A triangle with a pendant edge cd that the face s runs out and back along: the
    link at d is its one half-edge with a loop, which is no cycle."""
    g = Graph("abcd", {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a"), "cd": ("c", "d")})
    return TwoComplex(g, [Face.from_vertices(g, "t", ("a", "b", "c")),
                          Face.from_edges(g, "s", ["cd", "cd"])])


def link_pass_cases():
    """The golden complexes, the link edge cases, a pillow, a dangling edge, a spike, and
    prisms, stacked spheres, star-boundary spheres, tori and cones."""
    instances, = families.perfbench_modules("instances")
    golden = Path(__file__).parent / "golden"
    out = [parse_complex(p.read_text()) for p in sorted(golden.glob("*.complex"))]
    out += link_edge_cases() + [pillow(), dangling(), spike()] + families.star_boundary_spheres()
    out += [families.stacked(11, 150), families.stacked(2, 12), gen.prism(5), gen.prism(30),
            families.tower(6), families.disjoint_tetrahedra(3), gen.torus7(),
            parse_complex(instances.render(instances.torus(random.Random(47), 20), "QX")),
            cone(gen.tetra()), cone(gen.prism(5)), cone(families.stacked(2, 12))]
    out += [gen.cone_over_graph(gen.named_graph(name)) for name in ("k4", "k23")]
    return out


def ring_of(vertices, pairs):
    """Each vertex -> the far end of each edge end there, for edges given by their ends."""
    ring = {u: [] for u in vertices}
    for a, b in pairs:
        ring[a].append(b)
        ring[b].append(a)
    return ring


def half_edge_names(graph):
    """The link vertex that each half-edge number h names, indexed by h: edge h >> 1
    of the graph in id order, or its end `e:0` or `e:1` when that edge is a loop."""
    return [f"{eid}:{end}" if graph.is_loop(eid) else eid
            for eid in sorted(graph.edges) for end in (0, 1)]


def reference_cycle(complex, v):
    """`_single_cycle` on the ring of the link at v, read off the face steps."""
    vertices, ends, _ = reference_link(complex, v)
    return complexes._single_cycle(ring_of(vertices, [ab for _, ab in ends]))


def not_long_cycles(complex):
    """The vertices whose link is not a cycle of three or more, by the reference."""
    return sorted(v for v in complex.graph.vertices
                  if (cycle := reference_cycle(complex, v)) is None or len(cycle) < 3)


def test_link_cycles_answer_as_the_link_graphs():
    """At every vertex `link_cycles` finds, by half-edge numbers, the cycle that
    `_single_cycle` finds on the link's ends, exactly when the link `Graph` is one
    cycle; on three or more link vertices that is `test_outerplanar`'s chordless
    Hamilton boundary, and the corner given with it is a corner of the link."""
    seen = Counter()
    for complex in link_pass_cases():
        cycles = complexes.link_cycles(complex)
        assert cycles.keys() <= complex.graph.vertices
        names = half_edge_names(complex.graph)
        for v in sorted(complex.graph.vertices):
            link = link_graph(complex, v)
            expected = complexes._single_cycle(ring_of(link.vertices, link.ends.values()))
            assert (expected is not None) == reference_link_is_single_cycle(link.graph), (complex, v)
            result = check_outerplanar(link)
            assert (v in cycles) == (expected is not None), (complex, v)
            if expected is None:
                assert result.boundary is None or result.chords, (complex, v)
                seen["not one cycle"] += 1
                continue
            cycle, (fid, come, go) = cycles[v]
            assert tuple(names[h] for h in cycle) == expected, (complex, v)
            assert (fid, (names[come], names[go])) in {(link.edge_face[le], ab)
                                                       for le, ab in link.ends.items()}
            if len(cycle) >= 3:
                assert _outcome(result) == (True, expected, frozenset(link.ends), frozenset(), None)
                seen["cycle"] += 1
            else:
                assert result.violation == "not simple", (complex, v)
                seen["digon"] += 1
    assert seen["cycle"] > 500 and seen["not one cycle"] > 100 and seen["digon"] >= 3, seen


def test_links_from_the_corner_index_answer_as_their_graphs():
    """The link pass answers as `test_outerplanar` on the validated link `Graph`; it
    builds a link, and its `Graph`, exactly for links that are not one cycle, and
    gives a corner on every Hamilton boundary."""
    settled = 0
    for complex in link_pass_cases():
        names = half_edge_names(complex.graph)
        for v, boundary, corner, link, result in decider._links(complex):
            expected = check_outerplanar(link_graph(complex, v).graph)
            if boundary is not None:
                boundary = tuple(names[h] for h in boundary)
                corner = (corner[0], names[corner[1]], names[corner[2]])
            assert boundary == expected.boundary, (complex, v)
            if link is None:
                assert result is None and not expected.chords, (complex, v)
                settled += 1
            else:
                got = (set(link.vertices), list(link.ends.items()), link.edge_face)
                assert got == reference_link(complex, v), (complex, v)
                assert "graph" in vars(link), (complex, v)
                assert boundary is None or expected.chords, (complex, v)
                assert _outcome(result) == _outcome(expected), (complex, v)
            if boundary is None:
                assert corner is None, (complex, v)
                continue
            fid, come, go = corner
            _, ends, edge_face = reference_link(complex, v)
            assert (fid, (come, go)) in {(edge_face[le], ab) for le, ab in ends}, (complex, v)
            i = boundary.index(come)
            assert go in (boundary[i - 1], boundary[(i + 1) % len(boundary)]), (complex, v)
    assert settled > 500


def test_link_edge_cases_reach_each_shape():
    loop_ends, pendant, bowtie, revisit = link_edge_cases()
    assert check_outerplanar(link_graph(loop_ends, "a")).boundary == ("l:0", "x", "l:1", "y")
    assert link_graph(loop_ends, "b").graph.parallel_pairs() == (("p", "q"),)
    assert link_graph(pendant, "a").graph.degree("ae") == 0
    assert link_graph(pendant, "a").graph.loops() == ("d",)
    assert len(link_graph(bowtie, "v0").graph.component_index()[1]) == 2
    assert dict(link_graph(revisit, "paxc").ends) == {"s": ("ab", "da"), "s@1": ("cd", "bc")}


def test_link_maps_are_read_only_views():
    link = link_graph(gen.tetra(), "a")
    for view in (link.ends, link.edge_face):
        with pytest.raises(TypeError):
            view["abc"] = view["abc"]
        with pytest.raises(TypeError):
            del view["abc"]


def test_the_batch_and_the_one_vertex_reader_agree():
    """The link that `LinkGraph` builds from `link_corners` of every vertex, as the
    `links` command and the generators read them, and `link_graph` at one vertex match
    the corner rule: vertices, ends in insertion order, and faces; each link vertex
    maps to the number of its half-edge."""
    for complex in link_pass_cases():
        corners = complexes.link_corners(complex)
        assert corners.keys() == complex.graph.vertices
        names = half_edge_names(complex.graph)
        for v in sorted(complex.graph.vertices):
            batch = complexes.LinkGraph(complex.graph, v, corners[v])
            one = link_graph(complex, v)
            assert batch.vertices == one.vertices, (complex, v)
            for link in (batch, one):
                got = (set(link.vertices), list(link.ends.items()), dict(link.edge_face))
                assert link.host == v and got == reference_link(complex, v), (complex, v)
                assert [names[link.number[x]] for x in link.vertices] == list(link.vertices)


def _state(complex):
    return {name: dict(value) if isinstance(value, dict) else value
            for name, value in vars(complex).items()}


def test_a_complex_keeps_no_state_after_it_is_built():
    """Deciding, reading links and finding chordal faces leave `vars()` of a
    `TwoComplex` as it was built."""
    golden = Path(__file__).parent / "golden"
    cases = [parse_complex(p.read_text()) for p in sorted(golden.glob("*.complex"))]
    for complex in cases + link_edge_cases():
        before = _state(complex)
        for read in (decide_outerspatial, is_locally_2_connected, decider.find_chordal_faces):
            try:
                read(complex)
            except ValueError:  # not validated, or a link outside the hypothesis
                pass
        for v in complex.graph.vertices:
            link_graph(complex, v)
        assert _state(complex) == before, complex


def test_decide_makes_one_corner_pass_per_component(monkeypatch):
    """`decide` rings the links of each decided component in one pass over its face
    steps, and makes a second, named corner pass only when some link is not a cycle
    of three or more, for those vertices alone; the only other walk reads the
    contracted link of the obstruction, here in its verifier."""
    rings = _count_calls(monkeypatch, "link_cycles", [complexes, decider, surface])
    named, contracted, in_link_graph = [], [], []
    real_corners, real_link_graph = complexes.link_corners, complexes.link_graph

    def corners(complex, vertices=None):
        (contracted if in_link_graph else named).append((complex, sorted(vertices)))
        return real_corners(complex, vertices)

    def one_link(complex, v):
        in_link_graph.append(v)
        try:
            return real_link_graph(complex, v)
        finally:
            in_link_graph.pop()

    monkeypatch.setattr(complexes, "link_corners", corners)
    monkeypatch.setattr(decider, "link_corners", corners)
    monkeypatch.setattr(complexes, "link_graph", one_link)
    k4_cone = gen.cone_over_graph(gen.named_graph("k4"))
    expected = {"not-outerspatial": [k4_cone, gen.torus7()],
                "outerspatial": families.star_boundary_spheres()}
    for kind, cases in expected.items():
        for complex in cases:
            rest = not_long_cycles(complex)
            rings.clear()
            named.clear()
            contracted.clear()
            verdict = decide_outerspatial(complex)
            assert verdict.kind == kind
            assert [args[0] for args in rings] == [complex]
            assert named == ([(complex, rest)] if rest else [])
            assert len(contracted) == (complex is k4_cone)
    assert not not_long_cycles(gen.torus7())


def test_the_numbered_ring_pass_matches_the_named_reference():
    """`link_cycles` and the link pass against the corner rule read off the face
    steps: each numbered cycle, named back, is `_single_cycle` on the named ring, and
    each vertex whose link is not a cycle of three or more gets exactly its reference
    corners, in face order, and a built link.  The cases hold loop ends, a pendant
    edge, a bowtie, a revisiting face, digons and a corner from a half-edge back to
    itself."""
    seen = Counter()
    for complex in link_pass_cases():
        g = complex.graph
        cycles = complexes.link_cycles(complex)
        names = half_edge_names(g)
        rest = not_long_cycles(complex)
        corners = complexes.link_corners(complex, rest)
        built = {v for v, *_, link, _ in decider._links(complex) if link is not None}
        assert built == set(rest), complex
        for v in sorted(g.vertices):
            _, ends, edge_face = reference_link(complex, v)
            expected = reference_cycle(complex, v)
            if expected is None:
                assert v not in cycles, (complex, v)
            else:
                assert tuple(names[h] for h in cycles[v][0]) == expected, (complex, v)
            if v in corners:
                assert corners[v] == [(edge_face[le], *ab) for le, ab in ends], (complex, v)
                seen["digon" if expected else "not one cycle"] += 1
            else:
                seen["loop ends" if any(":" in x for x in expected) else "cycle"] += 1
    assert seen["digon"] >= 3 and seen["loop ends"] >= 1 and seen["not one cycle"] > 100, seen
    loop_ends, pendant, bowtie, revisit = link_edge_cases()
    assert len(complexes.link_cycles(loop_ends)["b"][0]) == 2  # a digon at b
    for complex, v in ((pendant, "a"), (bowtie, "v0"), (revisit, "paxc"), (spike(), "d")):
        assert v not in complexes.link_cycles(complex), (complex, v)


def test_positive_decides_build_no_corner_at_a_one_cycle_vertex(monkeypatch):
    """A stacked sphere and a prism, whose links are all cycles, decide without a
    named corner pass, so no `Corner` tuple is built; a star-boundary sphere asks
    `link_corners` only for the vertices whose link has a chord."""
    chorded = [chorded_vertices(c) for c in families.star_boundary_spheres()]
    asked = _count_calls(monkeypatch, "link_corners", [complexes, decider])
    for complex in [families.stacked(3, 120), families.stacked(5, 40), gen.prism(20)]:
        asked.clear()
        assert decide_outerspatial(complex).kind == "outerspatial"
        assert asked == [], complex
    for complex, expected in zip(families.star_boundary_spheres(), chorded):
        asked.clear()
        assert decide_outerspatial(complex).kind == "outerspatial"
        assert [(c, sorted(vs)) for c, vs in asked] == [(complex, expected)], complex


def test_classify_component_is_total():
    opened = delete_faces(gen.tetra(), {"abc"})
    sclass = classify_component(opened)
    assert sclass.kind == "not-a-surface"
    assert not sclass.is_surface and sclass.euler == 1


def _edge_sets(blocks):
    return {frozenset(frozenset((u, w)) for u, ws in block.items() for w in ws)
            for block in blocks}


class TestBlockPass:
    @pytest.mark.parametrize("family", ["atlas", "gnp", "multigraph", "small-and-disconnected"])
    def test_blocks_match_networkx(self, family):
        graphs = FAMILIES[family]()
        assert len(graphs) >= 10
        for graph in graphs:
            simple = nx.Graph()
            simple.add_nodes_from(graph.vertices)
            simple.add_edges_from(graph.endpoints(eid) for eid in graph.edges
                                  if not graph.is_loop(eid))
            expected = {frozenset(frozenset(e) for e in edges)
                        for edges in nx.biconnected_component_edges(simple)}
            assert _edge_sets(embedding._blocks(graph)) == expected, graph.edges

    def test_long_path_and_cycle_need_no_recursion(self):
        n = 50_000
        names = [f"v{i}" for i in range(n)]
        path = Graph(names, {f"e{i}": (names[i], names[i + 1]) for i in range(n - 1)})
        cycle = Graph(names, {f"e{i}": (names[i], names[(i + 1) % n]) for i in range(n)})
        assert not is_2_connected(path)
        assert len(embedding._blocks(path)) == n - 1
        assert is_2_connected(cycle)


def relabelled_cycle(rng, n):
    """The cycle C_n under random vertex names, edge ids and edge directions."""
    names = [f"u{i:03d}" for i in rng.sample(range(1000), n)]
    ids = [f"e{i:03d}" for i in rng.sample(range(1000), n)]
    edges = {}
    for i, eid in enumerate(ids):
        u, v = names[i], names[(i + 1) % n]
        edges[eid] = (u, v) if rng.random() < 0.5 else (v, u)
    return Graph(names, edges)


def near_miss_cycles():
    """Graphs one step from a single simple cycle, each failing one of its conditions."""
    hexagon = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("a", "f")]
    triangle = [("a", "b"), ("b", "c"), ("a", "c")]
    return [
        from_pairs(hexagon + [("a", "d")]),                       # a chord
        from_pairs(triangle + [("x", "y"), ("y", "z"), ("x", "z")]),  # two triangles
        from_pairs(hexagon + [("c", "d")]),                       # a doubled edge
        from_pairs(hexagon + [("c", "c")]),                       # a loop
        from_pairs(triangle + [("x", "y"), ("x", "y")]),          # a digon beside a triangle
        from_pairs([(u, v) for w in "abc" for u, v in (("s", w), (w, "t"))]),  # theta
        from_pairs(hexagon[:-1]),                                 # a path
        from_pairs(triangle + [("c", "p")]),                      # a pendant vertex
        from_pairs([("p", "p"), ("q", "r"), ("q", "r")]),         # a loop beside a digon
    ]


def single_cycle(graph):
    """`complexes._single_cycle` on the ring of a graph's edge ends."""
    return complexes._single_cycle(ring_of(graph.vertices, graph.edges.values()))


def _outcome(result):
    return (result.outerplanar, result.boundary, result.boundary_edges, result.chords,
            result.violation)


class TestSingleCycleShortcut:
    """`test_outerplanar` answers a single simple cycle by the block pass, and
    `_single_cycle` refuses every near miss."""

    def test_cycles_agree_with_the_block_pass_and_the_reference(self):
        rng = random.Random(29)
        cycles = [relabelled_cycle(rng, n) for n in range(3, 301)]
        assert all(single_cycle(g) is not None for g in cycles)
        got = [_outcome(check_outerplanar(g)) for g in cycles]
        for graph, outcome in zip(cycles, got):
            assert outcome[1] == single_cycle(graph), graph.edges
            assert outcome[2] == frozenset(graph.edges) and outcome[3] == frozenset()
        for graph, outcome in zip(cycles[:40] + cycles[-1:], got[:40] + got[-1:]):
            assert outcome == reference_outerplanar(graph), graph.edges

    def test_near_misses_take_the_block_pass(self):
        for graph in near_miss_cycles():
            assert single_cycle(graph) is None, graph.edges
            assert _outcome(check_outerplanar(graph)) == reference_outerplanar(graph), graph.edges


def reference_link_is_single_cycle(graph):
    """The closed-surface link test that `_single_cycle` replaced."""
    if not graph.vertices:
        return False
    return (all(graph.degree(u) == 2 for u in graph.vertices)
            and graph.is_connected() and not graph.loops())


def test_single_cycle_is_the_closed_surface_link_test():
    rng = random.Random(37)
    graphs = [graph for make in FAMILIES.values() for graph in make()]
    graphs += [relabelled_cycle(rng, n) for n in range(2, 12)] + near_miss_cycles()
    for graph in graphs:
        got = single_cycle(graph) is not None
        assert got == reference_link_is_single_cycle(graph), graph.edges
    digon = relabelled_cycle(rng, 2)
    assert single_cycle(digon) == tuple(sorted(digon.vertices))
    assert _outcome(check_outerplanar(digon)) == reference_outerplanar(digon)
