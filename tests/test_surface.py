"""Closed-surface recognition and classification."""

import pytest

from outerspatial import generators as gen
from outerspatial.complexes import (Face, Graph, Path, TwoComplex, complete_graph,
                                    contract_path, delete_faces)
from outerspatial.surface import euler_characteristic, survey_surfaces, _orient_faces


def projective_plane():
    """K4 with its three quadrilaterals: every link a triangle, Euler 1."""
    g = complete_graph("abcd")
    faces = [Face.from_vertices(g, "q1", ("a", "b", "c", "d")),
             Face.from_vertices(g, "q2", ("a", "b", "d", "c")),
             Face.from_vertices(g, "q3", ("a", "c", "b", "d"))]
    return TwoComplex(g, faces)


class TestIsClosedSurface:
    def test_tetra(self, tetra):
        assert [c.is_surface for _, c in survey_surfaces(tetra)] == [True]

    def test_tetra_minus_face(self, tetra):
        opened = delete_faces(tetra, {"abc"})
        assert [c.is_surface for _, c in survey_surfaces(opened)] == [False]

    def test_torus7(self, torus7):
        assert [c.is_surface for _, c in survey_surfaces(torus7)] == [True]

    def test_every_edge_in_two_faces(self, torus7, tetra):
        for complex in (torus7, tetra, gen.prism(4)):
            for eid in complex.graph.edges:
                assert sum(eid in f.edge_ids for f in complex.faces.values()) == 2


class TestClassify:
    def test_tetra_sphere(self, tetra):
        ((_, sclass),) = survey_surfaces(tetra)
        assert sclass.is_sphere
        assert sclass.euler == 2
        assert sclass.kind == "sphere"

    def test_torus7(self, torus7):
        ((_, sclass),) = survey_surfaces(torus7)
        assert sclass.euler == 0
        assert sclass.orientable
        assert sclass.genus == 1
        assert sclass.kind == "orientable genus 1"

    def test_bipyramids_are_spheres(self):
        for n in range(3, 9):
            ((_, sclass),) = survey_surfaces(gen.bipyramid(n))
            assert sclass.is_sphere and sclass.euler == 2

    def test_projective_plane(self):
        rp2 = projective_plane()
        assert euler_characteristic(rp2) == 1
        ((_, sclass),) = survey_surfaces(rp2)
        assert sclass.euler == 1
        assert sclass.orientable is False
        assert sclass.crosscaps == 1
        assert sclass.kind == "non-orientable crosscaps 1"

    def test_survey_is_total(self, tetra):
        opened = delete_faces(tetra, {"abc"})
        ((_, sclass),) = survey_surfaces(opened)
        assert not sclass.is_surface
        assert sclass.kind == "not-a-surface"

    def test_disconnected_components_classified_separately(self, tetra, torus7):
        both = TwoComplex(
            gen.torus7().graph, [])
        # Disjoint union of the tetrahedron and the torus.
        g1, g2 = tetra.graph, torus7.graph
        from outerspatial.complexes import Graph
        merged = Graph(set(g1.vertices) | set(g2.vertices),
                       {**g1.edges, **g2.edges})
        faces = [Face(f.face_id, f.steps) for f in tetra.faces.values()]
        faces += [Face(f.face_id, f.steps) for f in torus7.faces.values()]
        union = TwoComplex(merged, faces)
        classes = [sclass for _, sclass in survey_surfaces(union)]
        assert sorted(c.euler for c in classes) == [0, 2]


class TestEulerInvariance:
    def test_contraction_preserves_euler_on_quad_surface(self):
        cube = gen.prism(4)
        for eid in sorted(cube.graph.edges):
            u, v = cube.graph.endpoints(eid)
            contracted = contract_path(cube, Path((u, v), (eid,)))
            if any(not f.is_genuine_cycle() for f in contracted.faces.values()):
                continue
            assert euler_characteristic(contracted) == euler_characteristic(cube)
            ((_, sclass),) = survey_surfaces(contracted)
            assert sclass.is_sphere


class TestOrientationSearch:
    @pytest.mark.parametrize("builder", [gen.tetra, gen.torus7, projective_plane])
    def test_start_independence(self, builder):
        # The search starts from the face with the smallest id; renaming
        # the faces lets each of them come first in turn.
        complex = builder()
        outcomes = set()
        for first in complex.faces:
            renamed = [Face(("a" if fid == first else "b") + fid, f.steps)
                       for fid, f in complex.faces.items()]
            relabelled = TwoComplex(complex.graph, renamed)
            assert min(relabelled.faces) == "a" + first
            outcomes.add(_orient_faces(relabelled) is not None)
        assert outcomes == {builder is not projective_plane}

    def test_a_face_walking_an_edge_twice_is_its_own_partner(self):
        # Triangle abc twice is orientable.  A walk with a slit a-d-a runs
        # edge ad there and back, so that face is the partner of its own
        # step on ad and the pair stays orientable.  Beside a third face on
        # ad, the edge holds three steps, so no orientation exists.
        g = Graph("abcdx", {"ab": ("a", "b"), "ac": ("a", "c"), "bc": ("b", "c"),
                            "ad": ("a", "d"), "dx": ("d", "x"), "ax": ("a", "x")})
        f1 = Face.from_edges(g, "f1", ["ab", "bc", "ac"])
        g1 = Face.from_edges(g, "g1", ["ab", "bc", "ac"])
        f2 = Face.from_edges(g, "f2", ["ad", "ad", "ac", "bc", "ab"])
        f3 = Face.from_edges(g, "f3", ["ad", "dx", "ax"])
        assert f2.vertices == ("a", "b", "c", "a", "d")
        assert _orient_faces(TwoComplex(g, [f1, g1])) == {"f1": 0, "g1": 1}
        assert _orient_faces(TwoComplex(g, [f1, f2])) == {"f1": 0, "f2": 1}
        assert _orient_faces(TwoComplex(g, [f1, f2, f3])) is None
        assert _orient_faces(TwoComplex(g, [f2, f3])) is None
