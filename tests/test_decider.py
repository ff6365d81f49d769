"""The decision pipeline: verdicts, certificates, obstructions."""

import itertools
import json
import random
from pathlib import Path as FilePath

import networkx as nx
import pytest

from outerspatial import decider, embedding, oracle, verdicts
from outerspatial import generators as gen
from outerspatial.complexes import (Face, Graph, Path, TwoComplex,
                                    associated_complex, complete_graph,
                                    split_components)
from outerspatial.decider import (AsphericalSubcomplex,
                                  ExhaustiveFailure, HypothesisViolated,
                                  NonOuterplanarLink, NotOuterspatial,
                                  Outerspatial, check_perfectly_chordal,
                                  decide_nested_plane, decide_outerspatial,
                                  find_chordal_faces, is_locally_2_connected,
                                  verify_certificate, verify_obstruction,
                                  _crossing_obstruction)
from outerspatial.embedding import CrossingPair, RotationSystem, trace_faces
from outerspatial.embedding import test_planar as check_planar
from outerspatial.cli import main
from outerspatial.fileformat import format_complex, format_verdict, parse_complex
from outerspatial.surface import SurfaceClass
from outerspatial.verdicts import nested_certificate
import families
from families import from_cycles, random_planar_graph, stacked, triangles_of
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
            bipyramid4.graph,
            {"c1": ("n", "a", "s", "c"), "c2": ("n", "b", "s", "d")})
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, HypothesisViolated)
        assert any("2-connected" in v.reason for v in verdict.violations)


def refuse_triangle_fallback(monkeypatch):
    """Make the decider's planarity test refuse every skeleton, so the triangle fallback fails."""
    monkeypatch.setattr(decider, "test_planar", lambda graph: None)


class TestFastPathAgreement:
    def test_simplicial_instances(self, tetra, small_corpus, monkeypatch):
        instances = [tetra, gen.bipyramid(3), gen.bipyramid(5)]
        instances += [c for _, c in small_corpus
                      if all(len(f) == 3 for f in c.faces.values())][:20]
        with_fallback = [decide_outerspatial(complex) for complex in instances]
        refuse_triangle_fallback(monkeypatch)
        for complex, fast in zip(instances, with_fallback):
            slow = decide_outerspatial(complex)
            assert fast.kind == slow.kind
            if isinstance(fast, Outerspatial):
                assert verify_certificate(complex, fast.certificate)
                assert verify_certificate(complex, slow.certificate)


def torus7_with_insertions(seed, count):
    rng = random.Random(seed)
    complex = gen.torus7()
    for k in range(count):
        complex = gen.insert_vertex(complex, rng.choice(list(complex.faces)), f"x{k}")
    return complex


def triangle_complex(graph):
    """The 2-complex on a graph with every triangle of the graph as a face."""
    faces = [Face.from_vertices(graph, f"t{a}{b}{c}", (a, b, c))
             for a, b, c in itertools.combinations(sorted(graph.vertices), 3)
             if graph.edges_between(a, b) and graph.edges_between(b, c)
             and graph.edges_between(a, c)]
    return TwoComplex(graph, faces)


class TestFastPathTracesOnce:
    def test_a_positive_decide_calls_neither_trace_faces_nor_trace_orbits(self, monkeypatch):
        # The sphere route reads its orbits off the oriented faces, and
        # `verify_certificate` traces the rotation system with its own walk.
        calls = _count_calls(monkeypatch, "trace_faces", [embedding, oracle])
        walks = _count_calls(monkeypatch, "_trace_orbits", [embedding])
        for complex in (stacked_sphere(seed=64, vertices=64)[0], stacked(64, 64)):
            del calls[:], walks[:]
            assert isinstance(decide_outerspatial(complex), Outerspatial)
            assert len(calls) == 0
            assert len(walks) == 0


def _sphere_route_complexes():
    """Positives the sphere route embeds: golden cases, families, and spheres with chordal stars."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    out = [(case, parse_complex((GOLDEN / f"{case}.complex").read_text()))
           for case in sorted(codes) if codes[case]["decide"] == 0]
    out += [("stacked", stacked(7, 90)), ("tower", families.tower(9)),
            ("tetrahedra", families.disjoint_tetrahedra(4)),
            ("prism3", gen.prism(3)), ("prism11", gen.prism(11))]
    instances, workloads = families.perfbench_modules()
    rng = random.Random(18)
    stars = [instances.star_boundary(rng, v, k) for v, k in ((20, 1), (40, 2), (60, 3))]
    out += [(x.name, parse_complex(instances.render(x, "s"))) for x in stars]
    return out


class TestSphereRouteOrbits:
    def test_directed_faces_are_the_orbits_and_certify_as_traced(self, monkeypatch, random_corpus):
        # `_decide_component` hands its tracing the directed remainder faces
        # in face order; as a set of dart cycles they must be the orbits of
        # its rotation system, and each component certificate must be the
        # one `component_certificate` reads off `trace_faces`.
        built = []
        real = decider.TracedFaces

        def record(graph, rotation, orbits):
            orbits = tuple(orbits)
            built.append((graph, rotation, orbits))
            return real(graph, rotation, orbits)

        monkeypatch.setattr(decider, "TracedFaces", record)
        cases = _sphere_route_complexes()
        cases += [(f"random_complex({s})", complex) for s, complex in enumerate(random_corpus[:300])]
        routed = set()
        for name, complex in cases:
            del built[:]
            verdict = decide_outerspatial(complex)
            if not isinstance(verdict, Outerspatial):
                continue
            for graph, rotation, orbits in built:
                traced = trace_faces(graph, rotation).orbits
                assert len(orbits) == len(traced), name
                assert {embedding._normalize_cycle(o) for o in orbits} == set(traced), name
            if built:
                routed.add(name)
            rotation = verdict.certificate.rotation
            certs = {c.vertices: c for c in verdict.certificate.components}
            for comp in split_components(complex):
                got = certs[tuple(sorted(comp.graph.vertices))]
                want = verdicts.component_certificate(trace_faces(comp.graph, rotation), comp)
                assert (got.vertices, got.outer_darts, got.parents) == \
                    (want.vertices, want.outer_darts, want.parents), name
        assert {"stacked", "tower", "tetrahedra", "prism3", "prism11", "prism8",
                "bipyramid-equator6", "star-v20x1", "star-v40x2", "star-v60x3"} <= routed
        assert sum(name.startswith("random") for name in routed) >= 50

    def test_prisms_and_stacked_spheres_nest_without_orbit_detection_or_dual_tree(
            self, monkeypatch):
        # Every face of a prism or a stacked sphere bounds the orbit it was
        # directed as, so nothing is walked, and the tracing's orbit list and
        # dart map are never built; a star-boundary sphere walks its chordal
        # faces down one dual tree per component that has any.
        detections = _count_calls(monkeypatch, "split_orbit_cycles", [embedding, verdicts])
        trees = _count_calls(monkeypatch, "_DualTree", [embedding])
        built = []
        real = decider.TracedFaces

        def record(*args):
            built.append(real(*args))
            return built[-1]

        monkeypatch.setattr(decider, "TracedFaces", record)
        for complex in (gen.prism(5), gen.prism(12), stacked(7, 90), stacked(64, 64)):
            del detections[:], trees[:], built[:]
            assert isinstance(decide_outerspatial(complex), Outerspatial)
            assert (len(detections), len(trees), len(built)) == (0, 0, 1)
            assert not {"orbits", "orbit_of"} & vars(built[0]).keys()
        stars = [(name, complex) for name, complex in _sphere_route_complexes()
                 if name.startswith("star-")]
        assert len(stars) == 3
        for name, complex in stars:
            del detections[:], trees[:]
            assert isinstance(decide_outerspatial(complex), Outerspatial), name
            chordal = [comp for comp in split_components(complex) if find_chordal_faces(comp)]
            assert chordal, name
            assert (len(detections), len(trees)) == (0, len(chordal)), name


def fallback_triangle_complexes():
    """All-triangle complexes outside the hypothesis whose skeleton is planar."""
    tetrahedron = ("abc", "abd", "acd", "bcd")
    glued = str.maketrans("bcd", "xyz")  # a second tetrahedron on a
    return [
        from_cycles({"t": "abc"}),
        from_cycles({"t1": "abc", "t2": "bcd"}),
        from_cycles({"t1": "oab", "t2": "obc", "t3": "ocd", "t4": "oda"}),
        from_cycles({**{f"f{t}": t for t in tetrahedron},
                     **{f"g{t}": t.translate(glued) for t in tetrahedron}}),
    ]


class TestTriangleFallback:
    """The skeleton planarity test runs only after link violations."""

    def test_fallback_decides_triangles_outside_the_hypothesis(self, monkeypatch):
        calls = _count_calls(monkeypatch, "check_planarity", [nx])
        complexes = fallback_triangle_complexes()
        # A lone triangle's skeleton has two half-edges at each vertex, so
        # its one rotation system needs no planarity test.
        for complex, planarity_tests in zip(complexes, (0, 1, 1, 1)):
            del calls[:]
            verdict = decide_outerspatial(complex)
            assert isinstance(verdict, Outerspatial)
            assert verify_certificate(complex, verdict.certificate)
            assert len(calls) == planarity_tests
        refuse_triangle_fallback(monkeypatch)
        for complex in complexes:
            assert isinstance(decide_outerspatial(complex), HypothesisViolated)

    def test_link_route_decides_without_planarity(self, monkeypatch):
        subdivided_k4 = Graph("abcdx", {"ab": ("a", "b"), "ac": ("a", "c"), "ad": ("a", "d"),
                                        "bc": ("b", "c"), "bd": ("b", "d"),
                                        "cx": ("c", "x"), "dx": ("d", "x")})
        calls = _count_calls(monkeypatch, "check_planarity", [nx])
        assert isinstance(decide_outerspatial(stacked(64, 64)), Outerspatial)
        verdict = decide_outerspatial(gen.cone_over_graph(subdivided_k4))
        assert isinstance(verdict, NotOuterspatial)
        assert isinstance(verdict.obstruction, NonOuterplanarLink)
        assert calls == []


def euler_refuses(graph):
    """`test_planar`'s Euler count: n >= 3 vertices and more than 3n - 6 endpoint pairs."""
    n = len(graph.vertices)
    return n >= 3 and sum(a != b for a, b in graph.endpoint_pairs()) > 3 * n - 6


class TestEulerGate:
    """`test_planar` refuses a skeleton by the Euler count without networkx."""

    def test_gated_complexes_skip_planarity_and_keep_their_bytes(self, monkeypatch):
        calls = _count_calls(monkeypatch, "check_planarity", [nx])
        torus = gen.torus7()
        assert format_verdict(decide_outerspatial(torus)) == \
            (GOLDEN / "torus7.decide").read_text()
        gated = (torus7_with_insertions(3, 5), torus7_with_insertions(4, 20),
                 triangle_complex(complete_graph("abcdefg")))
        fast = []
        for complex in gated:
            assert euler_refuses(complex.graph)
            assert check_planar(complex.graph) is None
            fast.append(format_verdict(decide_outerspatial(complex)))
        assert calls == []
        # A decider whose planarity test refuses every skeleton gives the
        # same bytes: the count only saves networkx's test.
        refuse_triangle_fallback(monkeypatch)
        assert [format_verdict(decide_outerspatial(complex)) for complex in gated] == fast

    def test_refused_graphs_are_not_planar(self, monkeypatch):
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
        refused = [graph for graph in graphs if euler_refuses(graph)]
        assert len(refused) > 100
        for graph in refused:
            assert not nx.check_planarity(nx.Graph(list(graph.edges.values())))[0], graph.edges
        calls = _count_calls(monkeypatch, "check_planarity", [nx])
        for graph in refused:
            assert check_planar(graph) is None, graph.edges
        assert calls == []

    def test_bound_counts_distinct_pairs(self, monkeypatch):
        calls = _count_calls(monkeypatch, "check_planarity", [nx])
        doubled = Graph("abc", {"ab": ("a", "b"), "ab2": ("a", "b"), "bc": ("b", "c"),
                                "bc2": ("b", "c"), "ca": ("c", "a"), "ca2": ("c", "a"),
                                "l": ("a", "a")})
        assert check_planar(doubled) is not None
        assert len(calls) == 1
        k5 = complete_graph("abcde")
        assert check_planar(k5) is None
        assert check_planar(Graph(k5.vertices, {**k5.edges, "l": ("a", "a")})) is None
        assert len(calls) == 1
        digon = check_planar(Graph("ab", {"e": ("a", "b"), "f": ("a", "b")}))
        assert [t.genus for t in digon] == [0]
        assert len(calls) == 1


class TestDecideNestedPlane:
    def test_k4_triangles(self):
        cycles = {"t1": ("a", "b", "c"), "t2": ("a", "b", "d"),
                  "t3": ("a", "c", "d"), "t4": ("b", "c", "d")}
        verdict = decide_nested_plane(complete_graph("abcd"), cycles)
        assert isinstance(verdict, Outerspatial)

    def test_crossing_squares(self, bipyramid4):
        sk = bipyramid4.graph
        verdict = decide_nested_plane(
            sk, {"c1": ("n", "a", "s", "c"), "c2": ("n", "b", "s", "d")})
        assert isinstance(verdict, NotOuterspatial)
        assert isinstance(verdict.obstruction, ExhaustiveFailure)
        assert verify_obstruction(
            associated_complex(sk, {"c1": ("n", "a", "s", "c"),
                                    "c2": ("n", "b", "s", "d")}),
            verdict.obstruction)

    def test_single_square(self, bipyramid4):
        verdict = decide_nested_plane(bipyramid4.graph,
                                      {"c1": ("n", "a", "s", "c")})
        assert isinstance(verdict, Outerspatial)

    def test_random_planar_with_triangles(self):
        g = random_planar_graph(3)
        verdict = decide_nested_plane(g, triangles_of(g))
        assert isinstance(verdict, Outerspatial)

    def test_non_cycle_rejected(self):
        with pytest.raises(ValueError):
            decide_nested_plane(complete_graph("abcd"), {"c": ("a", "b")})

    def test_oracle_answer_passes_the_self_check(self, bipyramid4, monkeypatch):
        # One square of the bipyramid violates the hypothesis, so the oracle
        # answers; its certificate must be re-verified like any other.
        monkeypatch.setattr(decider, "verify_certificate", lambda complex, cert: False)
        with pytest.raises(AssertionError, match="certificate failed verification"):
            decide_nested_plane(bipyramid4.graph, {"c1": ("n", "a", "s", "c")})

    def test_oracle_command_answer_passes_the_self_check(self, tetra, tmp_path, monkeypatch):
        path = tmp_path / "tetra"
        path.write_text(format_complex(tetra))
        monkeypatch.setattr(decider, "verify_certificate", lambda complex, cert: False)
        with pytest.raises(AssertionError, match="certificate failed verification"):
            main(["oracle", str(path)])

    def test_cap_refusal_keeps_hypothesis_verdict(self, bipyramid4):
        verdict = decide_nested_plane(
            bipyramid4.graph,
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
        traced = trace_faces(complex.graph, decide_outerspatial(base).certificate.rotation)
        cycles = {fid: f.edge_set for fid, f in complex.faces.items()}
        pair = embedding.nesting_forest(traced, *embedding.split_orbit_cycles(traced, cycles))
        assert isinstance(pair, CrossingPair)
        assert (pair.first, pair.second) == ("x1", "x2")
        verdict = _crossing_obstruction(complex, complex, traced, pair)
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
        assert ob.faces == frozenset(torus7.faces)
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

    def test_empty_face_set_fails(self, tetra):
        # The empty subcomplex is connected, has no link and χ = 0, so only
        # the face count refuses a torus inside an outerspatial complex.
        empty = AsphericalSubcomplex(frozenset(), SurfaceClass(True, 0, True))
        assert not verify_obstruction(tetra, empty)


class TestCertificateAssembly:
    def test_cycles_go_to_their_component(self, tetra):
        other = gen.prism(3)
        union = TwoComplex(
            Graph(set(tetra.graph.vertices) | set(other.graph.vertices),
                  {**tetra.graph.edges, **other.graph.edges}),
            [*tetra.faces.values(), *other.faces.values()])
        comps = split_components(union)
        assert [set(c.faces) for c in comps] == [set(tetra.faces), set(other.faces)]
        assert comps[0].faces["abc"].edge_set == tetra.faces["abc"].edge_set
        parts = decider._plane_parts(union)
        assert [cert.vertices for _, cert in parts] == [tuple(sorted(c.graph.vertices)) for c in comps]
        assert [set(cert.parents) for _, cert in parts] == [set(tetra.faces), set(other.faces)]

    def test_cycle_spanning_two_components_is_refused(self):
        graph = Graph("abcdef", {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a"),
                                 "de": ("d", "e"), "ef": ("e", "f"), "fd": ("f", "d")})
        with pytest.raises(ValueError, match="no edge between b and d"):
            associated_complex(graph, {"x": ("a", "b", "d", "e")})

    def test_nested_certificate_merges_components(self, tetra):
        other = gen.prism(3)
        union = TwoComplex(
            Graph(set(tetra.graph.vertices) | set(other.graph.vertices),
                  {**tetra.graph.edges, **other.graph.edges}),
            [*tetra.faces.values(), *other.faces.values()])
        parts = []
        for part in (tetra, other):
            cert = decide_outerspatial(part).certificate
            (comp,) = cert.components
            parts.append((cert.rotation, comp))
        merged = nested_certificate(reversed(parts))
        assert [c.vertices for c in merged.components] == \
            sorted(c.vertices for _, c in parts)
        assert verify_certificate(union, merged)
