"""Core complex representation and space-minor operations."""

import itertools
import random
import tracemalloc
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import families
from families import path_along, vertex_sum
from outerspatial import embedding
from outerspatial import generators as gen
from outerspatial.complexes import (Face, Graph, Path, TwoComplex,
                                    associated_complex, complete_bipartite,
                                    complete_graph, cone, contract_path,
                                    contracted_link, contracted_vertex_name,
                                    delete_faces, link_graph,
                                    face_subcomplex, split_components, validate)
from outerspatial.fileformat import format_complex, parse_complex


def K4():
    return complete_graph("abcd")


def graphs_match(g1: Graph, g2: Graph) -> bool:
    """Same vertices and the same multiset of edge endpoint pairs (ids ignored)."""
    if g1.vertices != g2.vertices:
        return False
    ends1 = sorted(tuple(sorted(uv)) for uv in g1.edges.values())
    ends2 = sorted(tuple(sorted(uv)) for uv in g2.edges.values())
    return ends1 == ends2


class TestValidate:
    def test_tetra_clean(self, tetra):
        assert validate(tetra) == []

    def test_loop_flagged(self):
        g = Graph(["v"], {"e": ("v", "v")})
        out = validate(TwoComplex(g, []))
        assert [p.kind for p in out] == ["loop"]
        assert "v" in out[0].message

    def test_parallel_flagged(self):
        g = Graph("uv", {"e1": ("u", "v"), "e2": ("u", "v")})
        kinds = [p.kind for p in validate(TwoComplex(g, []))]
        assert kinds == ["parallel-edge"]

    def test_three_parallel_edges_and_a_loop(self):
        g = Graph("uvw", {"p3": ("v", "u"), "p1": ("u", "v"), "p2": ("u", "v"),
                          "w1": ("w", "w"), "x": ("v", "w")})
        assert g.loops() == ("w1",)
        assert g.parallel_pairs() == (("p1", "p2"), ("p1", "p3"), ("p2", "p3"))
        out = validate(TwoComplex(g, []))
        assert [(p.kind, p.element) for p in out] == [
            ("loop", "w1"), ("parallel-edge", "p2"), ("parallel-edge", "p3"),
            ("parallel-edge", "p3")]

    def test_repeated_vertex_walk_is_not_a_cycle(self):
        g = complete_graph("abc")
        face = Face.from_vertices(g, "f", ("a", "b", "a", "c"))
        out = validate(TwoComplex(g, [face]))
        assert [p.kind for p in out] == ["non-cycle-face"]

    def test_short_walk_is_not_a_cycle(self):
        g = Graph("uv", {"e1": ("u", "v"), "e2": ("u", "v")})
        face = Face.from_edges(g, "f", ("e1", "e2"))
        kinds = {p.kind for p in validate(TwoComplex(g, [face]))}
        assert "non-cycle-face" in kinds

    def test_duplicate_face_flagged(self):
        g = complete_graph("abc")
        f1 = Face.from_vertices(g, "f1", ("a", "b", "c"))
        f2 = Face.from_vertices(g, "f2", ("b", "c", "a"))
        out = validate(TwoComplex(g, [f1, f2]))
        assert [p.kind for p in out] == ["duplicate-face"]

    def test_each_duplicate_boundary_names_its_first_face(self):
        g = complete_graph("abcd")
        faces = [Face.from_vertices(g, fid, vs) for fid, vs in (
            ("g2", "abd"), ("f3", "cab"), ("f1", "abc"), ("g1", "dba"), ("f2", "bca"))]
        out = validate(TwoComplex(g, faces))
        assert [(p.kind, p.element, p.message) for p in out] == [
            ("duplicate-face", "f2", "faces f1 and f2 have the same boundary"),
            ("duplicate-face", "f3", "faces f1 and f3 have the same boundary"),
            ("duplicate-face", "g2", "faces g1 and g2 have the same boundary")]

    def test_constructor_refuses_a_face_off_the_graph(self):
        # `validate` has no diagnostic for these: no complex holds them.
        g = Graph("abc", {"x": ("a", "b"), "y": ("b", "c"), "z": ("c", "a")})
        face = Face.from_vertices(g, "f", ("a", "b", "c"))
        with pytest.raises(ValueError, match="face f: unknown edge z"):
            TwoComplex(Graph("abc", {"x": ("a", "b"), "y": ("b", "c")}), [face])
        moved = Graph("abcde", {"x": ("a", "b"), "y": ("b", "c"), "z": ("d", "e")})
        with pytest.raises(ValueError, match="face f: walk not incident at"):
            TwoComplex(moved, [face])

    def test_constructor_refuses_a_face_whose_edge_leaves_its_walk(self):
        # z starts at c, where the walk has it, but ends at d, not back at a.
        g = Graph("abc", {"x": ("a", "b"), "y": ("b", "c"), "z": ("c", "a")})
        face = Face.from_vertices(g, "f", ("a", "b", "c"))
        off = Graph("abcd", {"x": ("a", "b"), "y": ("b", "c"), "z": ("c", "d")})
        with pytest.raises(ValueError, match="face f: edge z does not end at a"):
            TwoComplex(off, [face])

    def test_contraction_keeps_degenerate_walks(self, tetra):
        # Contracting two sides of the triangle abc leaves it a loop at the
        # merged vertex; the faces through one of them become digons.
        out = contract_path(tetra, path_along(tetra.graph, ("a", "b", "c")))
        assert [len(f) for f in out.faces.values()] == [1, 2, 3, 2]
        assert validate(out)


class TestSkeleton:
    def test_tetra_skeleton_is_k4(self, tetra):
        assert tetra.graph == K4()

    def test_cone_over_k4_graph(self):
        coned = gen.cone_over_graph(K4())
        sk = coned.graph
        assert len(sk.vertices) == 5
        assert len(sk.edges) == 10
        apex = next(iter(sk.vertices - K4().vertices))
        assert sk.neighbors(apex) == K4().vertices

    def test_empty_complex(self):
        empty = TwoComplex(Graph([], {}), [])
        assert empty.graph == Graph([], {})


class TestReadOnlyMaps:
    """`Graph.edges` and `TwoComplex.faces` are read-only views in ascending id order."""

    def test_assignment_raises(self, tetra):
        with pytest.raises(TypeError):
            tetra.graph.edges["xy"] = ("a", "b")
        with pytest.raises(TypeError):
            tetra.faces["abc"] = tetra.faces["abd"]

    def test_ascending_id_order_from_unsorted_input(self):
        g = Graph("abc", {"e3": ("c", "a"), "e1": ("a", "b"), "e2": ("b", "c")})
        assert list(g.edges) == ["e1", "e2", "e3"]
        c = TwoComplex(g, [Face.from_vertices(g, fid, ("a", "b", "c")) for fid in "zma"])
        assert list(c.faces) == ["a", "m", "z"]
        assert list(delete_faces(c, ["m"]).faces) == ["a", "z"]

    def test_builders_leave_their_input_unchanged(self, tetra):
        edges, faces = dict(tetra.graph.edges), dict(tetra.faces)
        cone(tetra)
        gen.insert_vertex(tetra, "abc", "x")
        contract_path(tetra, path_along(tetra.graph, ("a", "b")))
        assert tetra.graph.edges == edges and tetra.faces == faces


class TestLinkGraph:
    def test_tetra_link_is_triangle(self, tetra):
        lg = link_graph(tetra, "a")
        assert sorted(lg.graph.vertices) == ["ab", "ac", "ad"]
        ends = sorted(tuple(sorted(uv)) for uv in lg.graph.edges.values())
        assert ends == [("ab", "ac"), ("ab", "ad"), ("ac", "ad")]
        assert lg.edge_face == {"abc": "abc", "abd": "abd", "acd": "acd"}

    def test_cone_apex_link_equals_base_graph(self):
        coned = gen.cone_over_graph(K4())
        apex = next(iter(coned.graph.vertices - K4().vertices))
        lg = link_graph(coned, apex)
        renamed = Graph((v[len(apex):] for v in lg.graph.vertices),
                        {le: (u[len(apex):], w[len(apex):])
                         for le, (u, w) in lg.graph.edges.items()})
        assert graphs_match(renamed, K4())

    def test_bipyramid_equator_link_has_one_chord(self, bipyramid4_equator):
        lg = link_graph(bipyramid4_equator, "a")
        assert sorted(lg.graph.vertices) == ["ab", "ad", "na", "sa"]
        ends = sorted(tuple(sorted(uv)) for uv in lg.graph.edges.values())
        assert ends == [("ab", "ad"), ("ab", "na"), ("ab", "sa"),
                        ("ad", "na"), ("ad", "sa")]
        chord = [le for le, uv in lg.graph.edges.items() if set(uv) == {"ab", "ad"}]
        assert [lg.edge_face[le] for le in chord] == ["eq"]

    def test_unknown_vertex(self, tetra):
        with pytest.raises(ValueError):
            link_graph(tetra, "zz")

    def test_degree_symmetry(self, bipyramid4_equator):
        c = bipyramid4_equator
        for eid, (u, v) in c.graph.edges.items():
            faces = sum(eid in f.edge_ids for f in c.faces.values())
            for w in (u, v):
                lg = link_graph(c, w)
                assert lg.graph.degree(eid) == faces


class TestCone:
    def test_single_edge(self):
        base = TwoComplex(Graph("uv", {"uv": ("u", "v")}), [])
        coned = cone(base)
        assert len(coned.graph.vertices) == 3
        assert len(coned.faces) == 1
        (face,) = coned.faces.values()
        assert set(face.vertices) == {"t", "u", "v"}

    def test_k4_counts(self):
        coned = gen.cone_over_graph(K4())
        assert len(coned.graph.vertices) == 5
        assert len(coned.graph.edges) == 10
        assert len(coned.faces) == 6
        assert all(len(f) == 3 for f in coned.faces.values())

    def test_loop_rejected(self):
        g = Graph(["v"], {"e": ("v", "v")})
        with pytest.raises(ValueError):
            cone(TwoComplex(g, []))

    def test_cone_link_law(self, tetra, bipyramid4):
        # The link at the top is the base 1-skeleton, under the spoke renaming.
        for base in (tetra, bipyramid4, TwoComplex(complete_bipartite("uv", "xyz"), [])):
            coned = cone(base, apex="TOP")
            lg = link_graph(coned, "TOP")
            renamed = Graph((v[3:] for v in lg.graph.vertices),
                            {le: (a[3:], b[3:]) for le, (a, b) in lg.graph.edges.items()})
            assert graphs_match(renamed, base.graph)


class TestContractPath:
    def test_trivial_path_identity(self, tetra):
        assert contract_path(tetra, Path(("a",), ())) == tetra

    def test_tetra_edge_contraction(self, tetra):
        out = contract_path(tetra, path_along(tetra.graph, ("a", "b")))
        assert len(out.graph.vertices) == 3
        merged = contracted_vertex_name(Path(("a", "b"), ("ab",)), tetra.graph.vertices)
        assert merged in out.graph.vertices
        degenerate = [f for f in out.faces.values() if not f.is_genuine_cycle()]
        assert sorted(f.face_id for f in degenerate) == ["abc", "abd"]
        assert all(len(f) == 2 for f in degenerate)

    def test_vertex_sum_law(self, tetra, bipyramid4_equator):
        for c in (tetra, bipyramid4_equator):
            for eid in sorted(c.graph.edges):
                u, v = c.graph.endpoints(eid)
                path = Path((u, v), (eid,))
                merged = contracted_vertex_name(path, c.graph.vertices)
                actual = link_graph(contract_path(c, path), merged)
                assert contracted_link(c, path).graph == actual.graph
                pairing = {fid: fid for fid, f in c.faces.items() if eid in f.edge_ids}
                expected = vertex_sum(link_graph(c, u).graph, link_graph(c, v).graph,
                                      eid, pairing)
                assert graphs_match(actual.graph, expected)

    def test_not_a_path_rejected(self, tetra):
        with pytest.raises(ValueError):
            contract_path(tetra, Path(("a", "b"), ("cd",)))
        with pytest.raises(ValueError):
            contracted_link(tetra, Path(("a", "b"), ("cd",)))

    def test_contracted_link_of_a_trivial_path_is_the_link(self, tetra):
        got = contracted_link(tetra, Path(("a",), ()))
        assert got.host == "a" and got.graph == link_graph(tetra, "a").graph


class TestDeleteFaces:
    def test_delete_all_leaves_bare_graph(self, tetra):
        out = delete_faces(tetra, tetra.faces)
        assert out.graph == tetra.graph
        assert out.faces == {}

    def test_delete_nothing(self, tetra):
        assert delete_faces(tetra, ()) == tetra

    def test_delete_equator_restores_bipyramid(self, bipyramid4_equator, bipyramid4):
        assert delete_faces(bipyramid4_equator, {"eq"}) == bipyramid4

    def test_unknown_face(self, tetra):
        with pytest.raises(ValueError):
            delete_faces(tetra, {"nope"})

    def test_composition(self, bipyramid4_equator):
        c = bipyramid4_equator
        s, t = {"eq", "nab"}, {"scd"}
        assert delete_faces(delete_faces(c, s), t) == delete_faces(c, s | t)


class TestVertexSum:
    def test_two_triangles_make_a_square(self):
        t1 = Graph("vab", {"va": ("v", "a"), "vb": ("v", "b"), "ab": ("a", "b")})
        t2 = Graph("vxy", {"vx": ("v", "x"), "vy": ("v", "y"), "xy": ("x", "y")})
        out = vertex_sum(t1, t2, "v", {"va": "vx", "vb": "vy"})
        assert out.vertices == frozenset("abxy")
        assert len(out.edges) == 4
        assert all(out.degree(w) == 2 for w in out.vertices)
        assert out.is_connected()

    def test_star_sum_is_perfect_matching(self):
        s1 = complete_bipartite(["v"], ["a1", "a2", "a3"])
        s2 = complete_bipartite(["v"], ["b1", "b2", "b3"])
        pairing = {f"va{i}": f"vb{i}" for i in (1, 2, 3)}
        out = vertex_sum(s1, s2, "v", pairing)
        assert len(out.edges) == 3
        assert all(out.degree(w) == 1 for w in out.vertices)

    def test_bad_pairing_rejected(self):
        t1 = Graph("vab", {"va": ("v", "a"), "vb": ("v", "b")})
        t2 = Graph("vxy", {"vx": ("v", "x"), "vy": ("v", "y")})
        with pytest.raises(ValueError):
            vertex_sum(t1, t2, "v", {"va": "vx", "vb": "vx"})
        with pytest.raises(ValueError):
            vertex_sum(t1, t2, "v", {"va": "vx"})


class TestAssociatedComplex:
    def test_k4_triangles_is_tetra(self, tetra):
        cycles = {"".join(t): t for t in (("a", "b", "c"), ("a", "b", "d"),
                                          ("a", "c", "d"), ("b", "c", "d"))}
        assert associated_complex(K4(), cycles) == tetra

    def test_no_cycles(self):
        out = associated_complex(K4(), {})
        assert out.faces == {}

    def test_non_cycle_rejected(self):
        with pytest.raises(ValueError):
            associated_complex(K4(), {"f": ("a", "b")})

    def test_duplicate_cycle_rejected(self):
        with pytest.raises(ValueError):
            associated_complex(K4(), {"f": ("a", "b", "c"), "g": ("b", "c", "a")})
        with pytest.raises(ValueError, match="duplicate face id x"):
            associated_complex(K4(), [("x", "abc"), ("x", "abd")])


class TestFaceFromVertices:
    def test_reports_the_first_missing_edge_in_walk_order(self):
        # b-d and the closing pair c-a have no edge; b-d comes first.
        g = Graph("abcd", {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d")})
        with pytest.raises(ValueError, match="^face f: no edge between b and d$"):
            Face.from_vertices(g, "f", ("a", "b", "d", "c"))

    def test_reports_the_first_ambiguous_pair_in_walk_order(self):
        # c-d and the closing pair a-b each have two edges; c-d comes first.
        g = Graph("abcd", {"p": ("a", "b"), "q": ("b", "a"), "bc": ("b", "c"),
                           "r": ("c", "d"), "s": ("d", "c"), "da": ("d", "a")})
        with pytest.raises(ValueError, match="^cycle f: ambiguous edge between c and d$"):
            Face.from_vertices(g, "f", ("b", "c", "d", "a"), kind="cycle")
        with pytest.raises(ValueError, match="^face f: ambiguous edge between c and d; list"):
            Face.from_vertices(g, "f", ("b", "c", "d", "a"))

    def test_empty_sequence_is_an_empty_boundary(self):
        with pytest.raises(ValueError, match="^face f: empty boundary$"):
            Face.from_vertices(K4(), "f", ())


class TestComponents:
    def test_split(self):
        g = Graph("abcxyz", {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a"),
                             "xy": ("x", "y"), "yz": ("y", "z"), "zx": ("z", "x")})
        c = associated_complex(g, {"f1": ("a", "b", "c"), "f2": ("x", "y", "z")})
        parts = split_components(c)
        assert [sorted(p.graph.vertices) for p in parts] == [["a", "b", "c"], ["x", "y", "z"]]
        assert [list(p.faces) for p in parts] == [["f1"], ["f2"]]

    def test_index_matches_a_per_component_search(self):
        g = Graph("abcdpqxyz", {"ab": ("a", "b"), "bc": ("b", "c"), "xy": ("x", "y"),
                                "yy": ("y", "y"), "zx": ("z", "x"), "zx2": ("x", "z"),
                                "pq": ("q", "p")})
        comp_of, parts = g.component_index()
        assert [sorted(p.vertices) for p in parts] == [["a", "b", "c"], ["d"], ["p", "q"],
                                                       ["x", "y", "z"]]
        assert all(comp_of[v] == i for i, p in enumerate(parts) for v in p.vertices)
        assert [p.canonical_key() for p in parts] == \
            [g.induced_subgraph(p.vertices).canonical_key() for p in parts]
        assert not g.is_connected()
        assert g.component_index() is g.component_index()
        connected = complete_graph("abc")
        assert connected.component_index()[1] == (connected,) and connected.is_connected()
        assert Graph((), {}).component_index()[1] == () and Graph((), {}).is_connected()

    def test_connected_complex_is_its_own_component(self, tetra):
        assert split_components(tetra)[0] is tetra


@st.composite
def _multigraph(draw):
    names = [f"v{i}" for i in range(draw(st.integers(1, 6)))]
    ends = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                         max_size=12))
    return Graph(names, {f"e{i:02d}": uv for i, uv in enumerate(ends)})


@given(_multigraph())
@settings(max_examples=80, deadline=None)
def test_edge_lookup_and_simplicity_match_their_definitions(g):
    for u in sorted(g.vertices) + ["absent"]:
        for v in sorted(g.vertices) + ["absent"]:
            want = sorted(e for e in g.edges
                          if sorted(g.endpoints(e)) == sorted((u, v)))
            assert g.edges_between(u, v) == tuple(want)
    assert g.loops() == tuple(sorted(e for e, (u, v) in g.edges.items() if u == v))
    assert g.parallel_pairs() == tuple(sorted(
        (a, b) for a in g.edges for b in g.edges
        if a < b and set(g.endpoints(a)) == set(g.endpoints(b))))
    assert g.is_simple() == (not g.loops() and not g.parallel_pairs())


@given(_multigraph())
@settings(max_examples=80, deadline=None)
def test_pair_map_and_simple_adjacency_match_their_definitions(g):
    """Witness bytes follow the neighbour order of `_simple_adjacency`, so it is pinned here."""
    def joining(a, b):
        return tuple(sorted(e for e, uv in g.edges.items() if sorted(uv) == sorted((a, b))))

    pairs = g.endpoint_pairs()
    keys = sorted({tuple(sorted(uv)) for uv in g.edges.values()}, key=lambda ab: joining(*ab)[0])
    assert list(pairs.items()) == [(ab, joining(*ab)) for ab in keys]
    with pytest.raises(TypeError):
        pairs[("v0", "v0")] = ()
    adj = embedding._simple_adjacency(g)
    assert list(adj) == sorted(g.vertices)
    for v, at in adj.items():
        near = {w for w in g.vertices if w != v and joining(v, w)}
        assert list(at) == sorted(near, key=lambda w: joining(v, w)[0])
        assert set(at.values()) <= {None}


@st.composite
def _rotated_walk(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    names = [f"v{i}" for i in range(n)]
    g = Graph(names, {f"e{i}": (names[i], names[(i + 1) % n]) for i in range(n)})
    steps = Face.from_vertices(g, "f", names).steps
    rot = draw(st.integers(min_value=0, max_value=n - 1))
    reflect = draw(st.booleans())
    variant = steps[rot:] + steps[:rot]
    if reflect:
        variant = reflected_walk(variant)
    return steps, variant


def reflected_walk(steps):
    """The walk run backwards from its first vertex, from the step definition.

    Step j of the reflection leaves v_(k-j) along e_(k-j-1), which it
    traverses from the other stored endpoint.
    """
    k = len(steps)
    return tuple((steps[(k - j) % k][0], steps[(k - j - 1) % k][1],
                  1 - steps[(k - j - 1) % k][2])
                 for j in range(k))


@given(_rotated_walk())
@settings(max_examples=60, deadline=None)
def test_canonicalization_idempotent_and_rotation_invariant(data):
    canonical, variant = data
    assert Face("f", variant).steps == canonical
    assert Face("f", canonical).steps == canonical


def reference_canonical_walk(steps):
    """The least of all 2k rotations and reflections of a k-step walk, all built at once."""
    reflected = reflected_walk(steps)
    k = len(steps)
    return min([steps[r:] + steps[:r] for r in range(k)]
               + [reflected[r:] + reflected[:r] for r in range(k)])


def random_degenerate_walk(rng):
    """A step tuple over a small alphabet, often a block repeated, so steps repeat."""
    alphabet = [(v, e, o) for v in "ab" for e in "xy" for o in (0, 1)][:rng.randint(1, 8)]
    block = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
    return block * rng.randint(1, 4)


def random_genuine_cycle_walk(rng):
    """Steps on 3 to 8 distinct vertices with random orientations and two edge ids.

    The forward and reflected walks from the least vertex start with the
    same step when the edges there repeat an id and their orientation bits
    differ, about one draw in four.
    """
    vertices = rng.sample("abcdefgh", rng.randint(3, 8))
    return tuple((v, rng.choice("xy"), rng.randint(0, 1)) for v in vertices)


class TestCanonicalWalk:
    def test_agrees_with_every_rotation_and_reflection(self):
        rng = random.Random(17)
        for _ in range(20_000):
            steps = random_degenerate_walk(rng)
            assert Face("f", steps).steps == reference_canonical_walk(steps), steps
        ties = 0
        for _ in range(20_000):
            steps = random_genuine_cycle_walk(rng)
            assert Face("f", steps).steps == reference_canonical_walk(steps), steps
            start = steps.index(min(steps))
            ties += steps[start][1:] == (steps[start - 1][1], 1 - steps[start - 1][2])
        assert ties > 2_000

    def test_long_face_is_built_in_linear_memory(self):
        k = 4000
        steps = [(f"v{i:04d}", f"e{i:04d}", 0) for i in range(k)]
        turned = steps[1234:] + steps[:1234]
        tracemalloc.start()
        try:
            face = Face("f", turned)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert face.steps == tuple(steps)
        assert peak < 16 * 2 ** 20


def is_genuine(steps):
    """No repeated vertex and length at least three, from the steps."""
    return len(steps) >= 3 and len({s[0] for s in steps}) == len(steps)


def raw_walk(graph, vertices):
    """Steps through the vertices in the given order, each pair's one edge found by a scan of all
    edges and traversed from the stored endpoint the walk leaves (end 0 for a loop)."""
    steps = []
    for u, v in zip(vertices, vertices[1:] + vertices[:1]):
        (e,) = [e for e, ab in graph.edges.items() if sorted(ab) == sorted((u, v))]
        steps.append((u, e, 0 if graph.endpoints(e)[0] == u else 1))
    return tuple(steps)


def random_labelled_complete_graph(rng):
    """A complete graph with a loop at every vertex: random vertex names, edge ids and stored
    endpoint order, so every vertex pair has one edge and the ids follow no vertex order."""
    names = rng.sample([f"{c}{d}" for c in "bmxa" for d in "19"], rng.randint(3, 7))
    pairs = list(itertools.combinations(names, 2)) + [(v, v) for v in names]
    ids = rng.sample([f"{c}{i}" for c in "ez" for i in range(40)], len(pairs))
    return Graph(names, {e: (ab if rng.random() < 0.5 else ab[::-1]) for e, ab in zip(ids, pairs)})


class TestCanonicalFaces:
    """Faces from every constructor hold `reference_canonical_walk` of their raw walk and the
    genuine-cycle fact of the set-based predicate."""

    def test_from_vertices_on_every_rotation_and_reflection(self):
        rng = random.Random(29)
        genuine = degenerate = 0
        for _ in range(1_500):
            graph = random_labelled_complete_graph(rng)
            names = sorted(graph.vertices)
            if rng.random() < 0.6:
                cycle = rng.sample(names, rng.randint(3, len(names)))
            else:
                cycle = [rng.choice(names) for _ in range(rng.randint(1, 7))]
            canonical = set()
            for walk in (cycle, cycle[::-1]):
                for r in range(len(walk)):
                    turned = walk[r:] + walk[:r]
                    want = reference_canonical_walk(raw_walk(graph, turned))
                    for vertices in (turned, tuple(turned)):
                        face = Face.from_vertices(graph, "f", vertices)
                        assert face.steps == want, vertices
                        assert face.is_genuine_cycle() == is_genuine(want)
                    canonical.add(want)
            if is_genuine(want):
                # A loop is always taken from end 0, so only a genuine cycle's reversal is its reflection.
                assert len(canonical) == 1
                genuine += 1
            else:
                degenerate += 1
        assert genuine > 800 and degenerate > 400

    def test_from_edges(self):
        rng = random.Random(31)
        for _ in range(3_000):
            graph = random_labelled_complete_graph(rng)
            names = sorted(graph.vertices)
            vertices = [rng.choice(names) for _ in range(rng.randint(1, 6))]
            raw = raw_walk(graph, vertices)
            # from_edges leaves the first edge's stored end 0 first, so start the walk with a
            # step that does; reversed, a walk of all end-1 steps has all end-0 steps.
            if all(o for _, _, o in raw):
                raw = raw_walk(graph, vertices[::-1])
            r = [o for _, _, o in raw].index(0)
            raw = raw[r:] + raw[:r]
            face = Face.from_edges(graph, "f", [e for _, e, _ in raw])
            assert face.steps == reference_canonical_walk(raw), raw
            assert face.is_genuine_cycle() == is_genuine(raw)

    def test_contract_path(self):
        rng = random.Random(37)
        for complex in (gen.tetra(), gen.bipyramid_with_equator(4), gen.prism(4),
                        families.stacked(5, 12), gen.torus7()):
            g = complex.graph
            for _ in range(30):
                path = [rng.choice(sorted(g.vertices))]
                while len(path) < 3 and rng.random() < 0.8:
                    nxt = sorted(g.neighbors(path[-1]) - set(path))
                    if not nxt:
                        break
                    path.append(rng.choice(nxt))
                p = path_along(g, path)
                out = contract_path(complex, p)
                merged = contracted_vertex_name(p, g.vertices)
                for fid, f in complex.faces.items():
                    raw = tuple((merged if v in path else v, e, o) for v, e, o in f.steps
                                if e not in p.edge_ids)
                    assert out.faces[fid].steps == reference_canonical_walk(raw)
                    assert out.faces[fid].is_genuine_cycle() == is_genuine(raw)

    def test_parse_round_trip_at_scale(self):
        sphere = families.stacked(6400, 6400)
        assert parse_complex(format_complex(sphere)) == sphere
        assert all(f.is_genuine_cycle() for f in sphere.faces.values())


def regrouping_inputs():
    """Every golden complex and a few of the shared families, one on several components."""
    golden = sorted((FilePath(__file__).parent / "golden").glob("*.complex"))
    return ([parse_complex(p.read_text()) for p in golden]
            + [families.tower(3), families.disjoint_tetrahedra(3), families.stacked(5, 12),
               families.from_cycles(families.tower_cycles(2, inner_rings=False))])


def test_regrouped_complexes_equal_the_checked_constructor():
    """The operations that skip the per-step check build what `TwoComplex` would."""
    inputs = regrouping_inputs()
    for c in inputs:
        ids = tuple(c.faces)
        half = ids[::2]
        faces = [c.faces[fid] for fid in half]
        sub = face_subcomplex(c, half)
        results = [(delete_faces(c, ids[1::2]), c.graph, faces), (sub, sub.graph, faces),
                   (parse_complex(format_complex(c)), c.graph, c.faces.values())]
        results += [(part, part.graph, [c.faces[fid] for fid in part.faces])
                    for part in split_components(c)]
        if not validate(c):
            cycles = {fid: f.vertices for fid, f in c.faces.items()}
            results.append((associated_complex(c.graph, cycles), c.graph, c.faces.values()))
        for got, graph, want in results:
            assert got.canonical_key() == TwoComplex(graph, want).canonical_key()
    assert any(len(split_components(c)) > 1 for c in inputs)
