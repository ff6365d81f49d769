"""The decision pipeline: verdicts, certificates, obstructions."""

import itertools
import random
from pathlib import Path as FilePath

import networkx as nx
import pytest

from outerspatial import decider, embedding
from outerspatial import generators as gen
from outerspatial.complexes import (Face, Graph, Path, TwoComplex,
                                    associated_complex, complete_graph,
                                    skeleton)
from outerspatial.decider import (AsphericalSubcomplex,
                                  ExhaustiveFailure, HypothesisViolated,
                                  NonOuterplanarLink, NotOuterspatial,
                                  Outerspatial, check_perfectly_chordal,
                                  decide_nested_plane, decide_outerspatial,
                                  find_chordal_faces, is_locally_2_connected,
                                  verify_certificate, verify_obstruction,
                                  _crossing_obstruction,
                                  _sphere_rotation_from_links,
                                  _within_euler_bound)
from outerspatial.embedding import CrossingPair, RotationSystem, trace_faces
from outerspatial.embedding import test_planar as check_planar
from outerspatial.fileformat import format_verdict
from test_link_layer import _count_calls
from test_sweep import stacked_sphere

GOLDEN = FilePath(__file__).parent / "golden"


def imperfectly_chordal_complex():
    """A K5 complex whose face f14 is a chord at a but not at b.

    Contracting the boundary edge ab leaves a link with a K2,3 minor.
    """
    g = complete_graph("abcde")
    boundaries = {"f1": ("a", "b", "c", "d"),
                  "f7": ("a", "b", "d", "c", "e"),
                  "f14": ("a", "b", "e", "d", "c"),
                  "f16": ("a", "c", "b", "d", "e"),
                  "f23": ("a", "c", "e", "b", "d")}
    return associated_complex(g, boundaries)


def crossing_squares_complex():
    """Square bipyramid plus both diagonal squares; the squares cross."""
    base = gen.bipyramid(4)
    faces = list(base.faces.values())
    faces.append(Face.from_vertices(base.graph, "x1", ("n", "a", "s", "c")))
    faces.append(Face.from_vertices(base.graph, "x2", ("n", "b", "s", "d")))
    return TwoComplex(base.graph, faces)


class TestChordalFaces:
    def test_equator_chordal_at_all_equator_vertices(self, bipyramid4_equator):
        chordal = find_chordal_faces(bipyramid4_equator)
        assert chordal == {"eq": frozenset("abcd")}

    def test_tetra_has_none(self, tetra):
        assert find_chordal_faces(tetra) == {}

    def test_plain_bipyramid_has_none(self, bipyramid4):
        assert find_chordal_faces(bipyramid4) == {}

    def test_equator_perfectly_chordal(self, bipyramid4_equator):
        assert check_perfectly_chordal(bipyramid4_equator, "eq") is True

    def test_non_chordal_face_rejected(self, bipyramid4_equator):
        with pytest.raises(ValueError):
            check_perfectly_chordal(bipyramid4_equator, "nab")

    def test_imperfect_face_yields_k23_defect(self):
        complex = imperfectly_chordal_complex()
        assert is_locally_2_connected(complex)
        chordal = find_chordal_faces(complex)
        assert chordal == {"f14": frozenset({"a", "c"}), "f7": frozenset({"b", "d"})}
        got = check_perfectly_chordal(complex, "f14")
        assert isinstance(got, NonOuterplanarLink)
        assert got.path.vertices == ("a", "b")
        assert got.witness.target == "K2,3"
        assert verify_obstruction(complex, got)


class TestDecideNamedInstances:
    def test_tetra(self, tetra):
        verdict = decide_outerspatial(tetra)
        assert isinstance(verdict, Outerspatial)
        assert verify_certificate(tetra, verdict.certificate)

    def test_bipyramid_with_equator(self, bipyramid4_equator):
        verdict = decide_outerspatial(bipyramid4_equator)
        assert isinstance(verdict, Outerspatial)
        cert = verdict.certificate
        assert verify_certificate(bipyramid4_equator, cert)
        (comp,) = cert.components
        children = comp.children("eq")
        assert len(children) == 4
        apexes = {fid[0] for fid in children}
        assert apexes in ({"n"}, {"s"})

    def test_cone_over_k4(self):
        complex = gen.cone_over_graph(gen.named_graph("k4"))
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, NotOuterspatial)
        ob = verdict.obstruction
        assert isinstance(ob, NonOuterplanarLink)
        assert ob.path.is_trivial()
        assert ob.witness.target == "K4"
        assert verify_obstruction(complex, ob)

    def test_cone_over_k23(self):
        complex = gen.cone_over_graph(gen.named_graph("k23"))
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, NotOuterspatial)
        assert verdict.obstruction.witness.target == "K2,3"
        assert verify_obstruction(complex, verdict.obstruction)

    def test_torus7(self, torus7):
        verdict = decide_outerspatial(torus7)
        assert isinstance(verdict, NotOuterspatial)
        ob = verdict.obstruction
        assert isinstance(ob, AsphericalSubcomplex)
        assert ob.surface.euler == 0 and ob.surface.orientable
        assert len(ob.faces) == 14
        assert verify_obstruction(torus7, ob)

    def test_imperfectly_chordal_verdict(self):
        complex = imperfectly_chordal_complex()
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, NotOuterspatial)
        ob = verdict.obstruction
        assert isinstance(ob, NonOuterplanarLink)
        assert len(ob.path.vertices) == 2
        assert ob.witness.target == "K2,3"

    def test_unvalidated_input_rejected(self):
        g = Graph("uv", {"e1": ("u", "v"), "e2": ("u", "v")})
        with pytest.raises(ValueError):
            decide_outerspatial(TwoComplex(g, []))

    def test_bare_planar_graph_is_outerspatial(self):
        complex = TwoComplex(complete_graph("abcd"), [])
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, Outerspatial)

    def test_bare_nonplanar_graph_is_undecided(self):
        complex = TwoComplex(complete_graph("abcde"), [])
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, HypothesisViolated)
        assert verdict.notes

    def test_crossing_squares_caught_at_the_crossing_vertex(self):
        # The two squares cross at n and s, so those links hold a cycle with
        # two interleaved chords: a K4 minor, a sound trivial-path obstruction.
        verdict = decide_outerspatial(crossing_squares_complex())
        assert isinstance(verdict, NotOuterspatial)
        ob = verdict.obstruction
        assert isinstance(ob, NonOuterplanarLink)
        assert ob.path.is_trivial() and ob.witness.target == "K4"
        assert verify_obstruction(crossing_squares_complex(), ob)

    def test_squares_without_sphere_faces_violate_hypothesis(self, bipyramid4):
        complex = associated_complex(
            skeleton(bipyramid4),
            {"c1": ("n", "a", "s", "c"), "c2": ("n", "b", "s", "d")})
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, HypothesisViolated)
        assert any("2-connected" in v.reason for v in verdict.violations)


class TestFastPathAgreement:
    def test_simplicial_instances(self, tetra, small_corpus):
        instances = [tetra, gen.bipyramid(3), gen.bipyramid(5)]
        instances += [c for _, c in small_corpus
                      if all(len(f) == 3 for f in c.faces.values())][:20]
        for complex in instances:
            fast = decide_outerspatial(complex, fast_path=True)
            slow = decide_outerspatial(complex, fast_path=False)
            assert fast.kind == slow.kind
            if isinstance(fast, Outerspatial):
                assert verify_certificate(complex, fast.certificate)
                assert verify_certificate(complex, slow.certificate)


def torus7_with_insertions(seed, count):
    rng = random.Random(seed)
    complex = gen.torus7()
    for k in range(count):
        complex = gen.insert_vertex(complex, rng.choice(sorted(complex.face_ids())), f"x{k}")
    return complex


def triangle_skeleton(graph):
    """The 2-complex on a graph with every triangle of the graph as a face."""
    faces = [Face.from_vertices(graph, f"t{a}{b}{c}", (a, b, c))
             for a, b, c in itertools.combinations(sorted(graph.vertices), 3)
             if graph.edges_between(a, b) and graph.edges_between(b, c)
             and graph.edges_between(a, c)]
    return TwoComplex(graph, faces)


class TestFastPathTracesOnce:
    def test_stacked_sphere_is_traced_for_the_genus_and_the_self_check(self, monkeypatch):
        complex, _, _ = stacked_sphere(seed=64, vertices=64)
        calls = _count_calls(monkeypatch, "trace_faces", [embedding, decider])
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, Outerspatial)
        assert len(calls) == 2


class TestEulerGate:
    def test_gated_complexes_skip_planarity_and_keep_their_bytes(self, monkeypatch):
        calls = _count_calls(monkeypatch, "check_planarity", [nx])
        torus = gen.torus7()
        assert format_verdict(decide_outerspatial(torus)) == \
            (GOLDEN / "torus7.decide").read_text()
        for complex in (torus7_with_insertions(3, 5), torus7_with_insertions(4, 20),
                        triangle_skeleton(complete_graph("abcdefg"))):
            assert not _within_euler_bound(complex.graph)
            fast = format_verdict(decide_outerspatial(complex))
            assert fast == format_verdict(decide_outerspatial(complex, fast_path=False))
        assert calls == []

    def test_refused_graphs_are_not_planar(self):
        graphs = [Graph([str(v) for v in g.nodes],
                        {f"e{i}": (str(u), str(v)) for i, (u, v) in enumerate(g.edges)})
                  for g in nx.graph_atlas_g()]
        rng = random.Random(21)
        for _ in range(300):
            names = "abcdefghi"[:rng.randrange(3, 10)]
            keep = rng.uniform(0.2, 0.9)
            triangles = [t for t in itertools.combinations(names, 3) if rng.random() < keep]
            edges = {f"{u}{v}": (u, v) for t in triangles
                     for u, v in itertools.combinations(t, 2)}
            graphs.append(Graph(names, edges))
        refused = 0
        for graph in graphs:
            if not _within_euler_bound(graph):
                refused += 1
                assert not check_planar(graph).is_planar, graph.edges
        assert refused > 100

    def test_bound_counts_distinct_pairs(self):
        doubled = Graph("abc", {"ab": ("a", "b"), "ab2": ("a", "b"), "bc": ("b", "c"),
                                "bc2": ("b", "c"), "ca": ("c", "a"), "ca2": ("c", "a"),
                                "l": ("a", "a")})
        assert _within_euler_bound(doubled)
        k5 = complete_graph("abcde")
        assert not _within_euler_bound(k5)
        assert not _within_euler_bound(Graph(k5.vertices, {**k5.edges, "l": ("a", "a")}))
        assert _within_euler_bound(Graph("ab", {"e": ("a", "b"), "f": ("a", "b")}))


class TestDecideNestedPlane:
    def test_k4_triangles(self):
        cycles = {"t1": ("a", "b", "c"), "t2": ("a", "b", "d"),
                  "t3": ("a", "c", "d"), "t4": ("b", "c", "d")}
        verdict = decide_nested_plane(complete_graph("abcd"), cycles)
        assert isinstance(verdict, Outerspatial)

    def test_crossing_squares(self, bipyramid4):
        sk = skeleton(bipyramid4)
        verdict = decide_nested_plane(
            sk, {"c1": ("n", "a", "s", "c"), "c2": ("n", "b", "s", "d")})
        assert isinstance(verdict, NotOuterspatial)
        assert isinstance(verdict.obstruction, ExhaustiveFailure)
        assert verify_obstruction(
            associated_complex(sk, {"c1": ("n", "a", "s", "c"),
                                    "c2": ("n", "b", "s", "d")}),
            verdict.obstruction)

    def test_single_square(self, bipyramid4):
        verdict = decide_nested_plane(skeleton(bipyramid4),
                                      {"c1": ("n", "a", "s", "c")})
        assert isinstance(verdict, Outerspatial)

    def test_random_planar_with_triangles(self):
        g = gen.random_planar_graph(3)
        verdict = decide_nested_plane(g, gen.triangles_of(g))
        assert isinstance(verdict, Outerspatial)

    def test_non_cycle_rejected(self):
        with pytest.raises(ValueError):
            decide_nested_plane(complete_graph("abcd"), {"c": ("a", "b")})

    def test_cap_refusal_keeps_hypothesis_verdict(self, bipyramid4):
        verdict = decide_nested_plane(
            skeleton(bipyramid4),
            {"c1": ("n", "a", "s", "c"), "c2": ("n", "b", "s", "d")}, cap=3)
        assert isinstance(verdict, HypothesisViolated)
        assert any("refused" in note for note in verdict.notes)


class TestVerifyCertificate:
    def test_round_trip(self, tetra):
        verdict = decide_outerspatial(tetra)
        assert verify_certificate(tetra, verdict.certificate)

    def test_transposed_rotator_fails(self, tetra):
        verdict = decide_outerspatial(tetra)
        cert = verdict.certificate
        rotators = {v: cert.rotation.rotator(v) for v in cert.rotation.vertices()}
        first = rotators["a"]
        rotators["a"] = (first[0], first[2], first[1])
        from outerspatial.decider import NestedCertificate
        bad = NestedCertificate(RotationSystem(rotators), cert.components)
        assert not verify_certificate(tetra, bad)

    def test_forest_omitting_a_face_fails(self, tetra):
        verdict = decide_outerspatial(tetra)
        cert = verdict.certificate
        (comp,) = cert.components
        from outerspatial.decider import ComponentCertificate, NestedCertificate
        parents = dict(comp.parents)
        parents.pop(sorted(parents)[0])
        bad = NestedCertificate(
            cert.rotation,
            [ComponentCertificate(comp.vertices, comp.outer_darts, parents)])
        assert not verify_certificate(tetra, bad)

    def test_wrong_outer_face_fails(self, tetra):
        verdict = decide_outerspatial(tetra)
        cert = verdict.certificate
        (comp,) = cert.components
        from outerspatial.decider import ComponentCertificate, NestedCertificate
        bad_outer = tuple(reversed(comp.outer_darts))
        bad = NestedCertificate(
            cert.rotation,
            [ComponentCertificate(comp.vertices, bad_outer, comp.parents)])
        assert not verify_certificate(tetra, bad)


class TestCrossingObstruction:
    def test_derivation_on_crossing_squares(self):
        complex = crossing_squares_complex()
        base = gen.bipyramid(4)
        traced = trace_faces(complex.graph, _sphere_rotation_from_links(base))
        verdict = _crossing_obstruction(complex, complex, traced,
                                        CrossingPair("x1", "x2"))
        assert isinstance(verdict, NotOuterspatial)
        ob = verdict.obstruction
        assert ob.path.is_trivial()
        assert ob.witness.target == "K4"
        assert verify_obstruction(complex, ob)


class TestAsphericalSalvage:
    def test_pendant_vertex_on_torus_still_yields_sound_negative(self, torus7):
        # A pendant edge breaks local 2-connectivity, but the torus face set
        # is still found by the subset search and is sound unconditionally.
        g = torus7.graph
        dangling = Graph(set(g.vertices) | {"p"}, {**g.edges, "p0": ("p", "0")})
        complex = TwoComplex(dangling, list(torus7.faces.values()))
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, NotOuterspatial)
        ob = verdict.obstruction
        assert isinstance(ob, AsphericalSubcomplex)
        assert ob.faces == frozenset(torus7.face_ids())
        assert verify_obstruction(complex, ob)


class TestChordRemovalLeavesCycles:
    def test_bipyramid_equator(self, bipyramid4_equator):
        from outerspatial.complexes import delete_faces, link_graph
        chordal = find_chordal_faces(bipyramid4_equator)
        remainder = delete_faces(bipyramid4_equator, set(chordal))
        for v in sorted(remainder.graph.vertices):
            lg = link_graph(remainder, v).graph
            assert lg.is_connected() and all(lg.degree(u) == 2 for u in lg.vertices)


class TestDisconnected:
    def test_two_spheres(self, tetra):
        other = gen.prism(3)
        merged = Graph(set(tetra.graph.vertices) | set(other.graph.vertices),
                       {**tetra.graph.edges, **other.graph.edges})
        faces = [Face(f.face_id, f.steps) for f in tetra.faces.values()]
        faces += [Face(f.face_id, f.steps) for f in other.faces.values()]
        union = TwoComplex(merged, faces)
        verdict = decide_outerspatial(union)
        assert isinstance(verdict, Outerspatial)
        assert len(verdict.certificate.components) == 2
        assert verify_certificate(union, verdict.certificate)

    def test_sphere_plus_torus(self, tetra, torus7):
        merged = Graph(set(tetra.graph.vertices) | set(torus7.graph.vertices),
                       {**tetra.graph.edges, **torus7.graph.edges})
        faces = [Face(f.face_id, f.steps) for f in tetra.faces.values()]
        faces += [Face(f.face_id, f.steps) for f in torus7.faces.values()]
        union = TwoComplex(merged, faces)
        verdict = decide_outerspatial(union)
        assert isinstance(verdict, NotOuterspatial)
        assert isinstance(verdict.obstruction, AsphericalSubcomplex)
        assert verify_obstruction(union, verdict.obstruction)


class TestObstructionTampering:
    def test_wrong_face_set_fails(self, torus7):
        verdict = decide_outerspatial(torus7)
        ob = verdict.obstruction
        bad = AsphericalSubcomplex(frozenset(list(ob.faces)[:10]), ob.surface)
        assert not verify_obstruction(torus7, bad)

    def test_wrong_path_fails(self):
        complex = gen.cone_over_graph(gen.named_graph("k4"))
        verdict = decide_outerspatial(complex)
        ob = verdict.obstruction
        bad = NonOuterplanarLink(Path(("a",), ()), ob.link, ob.witness)
        assert not verify_obstruction(complex, bad)
