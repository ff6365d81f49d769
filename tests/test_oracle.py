"""Exhaustive embedding enumeration and brute-force ground truth."""

import math
import tracemalloc

import pytest

from outerspatial import generators as gen
from outerspatial import oracle
from outerspatial.complexes import (Graph, TwoComplex, associated_complex,
                                    complete_graph, delete_faces)
from outerspatial.decider import (ExhaustiveFailure, NestedCertificate,
                                  verify_certificate)
from outerspatial.embedding import trace_faces
from outerspatial.fileformat import format_certificate
from outerspatial.oracle import (CapExceededError, brute_force_outerspatial,
                                 enumerate_sphere_embeddings,
                                 find_aspherical_subcomplex,
                                 rotation_space_size)
from families import enumerate_rotation_systems
from test_link_layer import _count_calls


class TestEnumeration:
    def test_triangle_has_one_system(self):
        g = complete_graph("abc")
        systems = list(enumerate_sphere_embeddings(g))
        assert len(systems) == 1

    def test_k4_counts(self):
        g = complete_graph("abcd")
        assert rotation_space_size(g) == 16
        allsys = list(enumerate_rotation_systems(g))
        assert len(allsys) == 16
        assert len(set(s.canonical_key() for s in allsys)) == 16
        # The two sphere embeddings of K4 are a chiral pair.
        spheres = list(enumerate_sphere_embeddings(g))
        assert len(spheres) == 2

    def test_k5_has_no_sphere_embedding(self):
        assert list(enumerate_sphere_embeddings(complete_graph("abcde"))) == []

    @pytest.mark.parametrize("builder", [
        lambda: complete_graph("abc"),
        lambda: complete_graph("abcd"),
        lambda: Graph("abc", {"ab": ("a", "b"), "bc": ("b", "c")}),
        lambda: Graph("ab", {"e1": ("a", "b"), "e2": ("a", "b"), "e3": ("a", "b")}),
        lambda: Graph("a", {"l": ("a", "a")}),
    ])
    def test_enumeration_completeness(self, builder):
        g = builder()
        expected = 1
        for v in g.vertices:
            expected *= math.factorial(max(g.degree(v) - 1, 0))
        assert len(list(enumerate_rotation_systems(g))) == expected
        assert rotation_space_size(g) == expected

    def test_cap_enforced(self):
        big = gen.bipyramid(8)
        with pytest.raises(CapExceededError):
            list(enumerate_sphere_embeddings(big.graph))

    def test_disconnected_rejected(self):
        g = Graph("abcd", {"ab": ("a", "b"), "cd": ("c", "d")})
        with pytest.raises(ValueError):
            list(enumerate_sphere_embeddings(g))

    @pytest.mark.parametrize("builder", [
        lambda: Graph("a", {}),
        lambda: Graph("a", {"l": ("a", "a")}),
        lambda: Graph("ab", {"e1": ("a", "b"), "e2": ("a", "b"), "e3": ("a", "b")}),
        lambda: complete_graph("abcd"),
        lambda: gen.prism(3).graph,
        lambda: gen.bipyramid(4).graph,
        lambda: _bouquet(2).graph,
    ])
    def test_sphere_embeddings_are_the_genus_zero_systems_in_order(self, builder):
        g = builder()
        expected = [r.canonical_key() for r in enumerate_rotation_systems(g)
                    if trace_faces(g, r).genus == 0]
        assert expected
        assert [r.canonical_key() for r in enumerate_sphere_embeddings(g)] == expected

    def test_the_first_sphere_embedding_holds_no_vertex_orders(self):
        """The centre of a bouquet of 5 triangles has 9! cyclic orders."""
        g = _bouquet(5).graph
        tracemalloc.start()
        try:
            next(enumerate_sphere_embeddings(g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


def _bouquet(k):
    """k triangles c a_i b_i meeting at their one shared vertex c."""
    edges, cycles = {}, {}
    for i in range(k):
        edges.update({f"ca{i}": ("c", f"a{i}"), f"cb{i}": ("c", f"b{i}"),
                      f"ab{i}": (f"a{i}", f"b{i}")})
        cycles[f"t{i}"] = ("c", f"a{i}", f"b{i}")
    return associated_complex(Graph({v for uv in edges.values() for v in uv}, edges), cycles)


class TestBruteForceNested:
    """The exhaustive search on associated complexes: a graph and its cycles."""

    def test_k4_triangles(self, tetra):
        complex = associated_complex(tetra.graph, {fid: f.vertices
                                                   for fid, f in tetra.faces.items()})
        got = brute_force_outerspatial(complex)
        assert isinstance(got, NestedCertificate)
        assert verify_certificate(complex, got)

    def test_crossing_squares_fail_exhaustively(self, bipyramid4):
        complex = associated_complex(bipyramid4.graph, {
            "c1": ("n", "a", "s", "c"), "c2": ("n", "b", "s", "d")})
        assert complex.faces["c1"].edge_set == {"na", "sa", "nc", "sc"}
        assert complex.faces["c2"].edge_set == {"nb", "sb", "nd", "sd"}
        got = brute_force_outerspatial(complex)
        assert isinstance(got, ExhaustiveFailure)
        assert got.embeddings_tried == 2

    def test_empty_cycles_on_planar_graph(self):
        got = brute_force_outerspatial(associated_complex(complete_graph("abcd"), {}))
        assert isinstance(got, NestedCertificate)
        (comp,) = got.components
        assert comp.parents == {}

    def test_disconnected_components_merge(self, tetra):
        other = gen.prism(3)
        union = TwoComplex(Graph(set(tetra.graph.vertices) | set(other.graph.vertices),
                                 {**tetra.graph.edges, **other.graph.edges}),
                           [*tetra.faces.values(), *other.faces.values()])
        got = brute_force_outerspatial(union)
        assert isinstance(got, NestedCertificate)
        assert len(got.components) == 2
        assert verify_certificate(union, got)


def _k27_with_one_square():
    """K2,7 with the face x m0 y m1: 720 sphere embeddings, and the first nests it."""
    middles = [f"m{i}" for i in range(7)]
    graph = Graph(["x", "y", *middles],
                  {f"{a}{m}": (a, m) for m in middles for a in "xy"})
    return associated_complex(graph, {"f": ("x", "m0", "y", "m1")})


class TestBruteForceOuterspatial:
    def test_search_traces_one_embedding_at_a_time_and_keeps_none(self, monkeypatch):
        k27 = _k27_with_one_square()
        # 720 ** 2 rotation systems; the cyclic order at x fixes the one at y on
        # the sphere, so (7 - 1)! = 720 of them are sphere embeddings.
        assert rotation_space_size(k27.graph) == math.factorial(6) ** 2
        calls = _count_calls(monkeypatch, "trace_faces", [oracle])
        printed = []
        for _ in range(2):
            del calls[:]
            got = brute_force_outerspatial(k27)
            assert isinstance(got, NestedCertificate)
            assert len(calls) == 1
            printed.append(format_certificate(got))
        assert printed[0] == printed[1]

    def test_tetra(self, tetra):
        got = brute_force_outerspatial(tetra)
        assert isinstance(got, NestedCertificate)

    def test_torus7_short_circuits_on_nonplanarity(self, torus7):
        got = brute_force_outerspatial(torus7)
        assert isinstance(got, ExhaustiveFailure)
        assert got.embeddings_tried == 0
        assert "non-planar" in got.detail

    def test_cone_over_k4(self):
        got = brute_force_outerspatial(gen.cone_over_graph(gen.named_graph("k4")))
        assert isinstance(got, ExhaustiveFailure)

    def test_monotone_under_face_deletion(self, random_corpus):
        sample = [c for c in random_corpus[:40]]
        for complex in sample:
            if not isinstance(brute_force_outerspatial(complex), NestedCertificate):
                continue
            for fid in list(complex.faces)[:3]:
                smaller = delete_faces(complex, {fid})
                assert isinstance(brute_force_outerspatial(smaller), NestedCertificate)


class TestAsphericalSearch:
    def test_tetra_has_none(self, tetra):
        assert find_aspherical_subcomplex(tetra) is None

    def test_torus7_full_face_set(self, torus7):
        found = find_aspherical_subcomplex(torus7)
        assert found is not None
        faces, sclass = found
        assert faces == frozenset(torus7.faces)
        assert sclass.euler == 0 and sclass.orientable

    def test_torus_with_extra_triangle_component(self, torus7):
        g = torus7.graph
        from outerspatial.complexes import Face
        merged = Graph(set(g.vertices) | {"x", "y", "z"},
                       {**g.edges, "xy": ("x", "y"), "yz": ("y", "z"),
                        "zx": ("z", "x")})
        faces = [Face(f.face_id, f.steps) for f in torus7.faces.values()]
        faces.append(Face.from_vertices(merged, "extra", ("x", "y", "z")))
        union = TwoComplex(merged, faces)
        found = find_aspherical_subcomplex(union)
        assert found is not None
        faces_found, _ = found
        assert faces_found == frozenset(torus7.faces)

    def test_projective_plane_found(self):
        from test_surface import projective_plane
        found = find_aspherical_subcomplex(projective_plane())
        assert found is not None
        faces, sclass = found
        assert len(faces) == 3 and sclass.euler == 1 and sclass.orientable is False

    def test_face_cap(self, torus7):
        with pytest.raises(CapExceededError):
            find_aspherical_subcomplex(torus7, max_faces=10)
