"""Face tracing, planarity, outerplanarity, cycle sides, nesting forests."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import PSEUDOFOREST_KINDS, random_pseudoforest, reference_nesting
from outerspatial import generators as gen
from outerspatial.complexes import Graph, complete_bipartite, complete_graph
from outerspatial.decider import decide_outerspatial
from outerspatial import embedding
from outerspatial.embedding import (CrossingPair, check_cycle,
                                    cycle_sides, cycles_cross, find_minor,
                                    split_orbit_cycles, is_2_connected,
                                    nesting_forest,
                                    trace_faces, verify_minor_witness)
from outerspatial.verdicts import RotationSystem
from test_link_layer import _count_calls

check_planar = embedding.test_planar
check_outerplanar = embedding.test_outerplanar


def K4():
    return complete_graph("abcd")


def C4():
    """The cycle a-b-c-d, its edges named by their sorted ends."""
    return Graph("abcd", {"ab": ("a", "b"), "bc": ("b", "c"), "cd": ("c", "d"), "ad": ("a", "d")})


PLANAR_K4_ROTATORS = {
    "a": (("ab", 0), ("ad", 0), ("ac", 0)),
    "b": (("ab", 1), ("bc", 0), ("bd", 0)),
    "c": (("ac", 1), ("cd", 0), ("bc", 1)),
    "d": (("ad", 1), ("bd", 1), ("cd", 1)),
}


class TestTraceFaces:
    def test_triangle_unique_rotation(self):
        g = complete_graph("abc")
        rot = RotationSystem({v: g.half_edges_at(v) for v in g.vertices})
        traced = trace_faces(g, rot)
        assert len(traced.orbits) == 2
        assert traced.genus == 0

    def test_k4_planar_rotators(self):
        traced = trace_faces(K4(), RotationSystem(PLANAR_K4_ROTATORS))
        assert len(traced.orbits) == 4
        assert traced.genus == 0

    def test_k4_transposed_rotator_has_genus_one(self):
        rotators = dict(PLANAR_K4_ROTATORS)
        rotators["a"] = (("ab", 0), ("ac", 0), ("ad", 0))
        traced = trace_faces(K4(), RotationSystem(rotators))
        assert len(traced.orbits) == 2
        assert traced.genus == 1

    def test_disconnected_rejected(self):
        g = Graph("abcd", {"ab": ("a", "b"), "cd": ("c", "d")})
        rot = RotationSystem({v: g.half_edges_at(v) for v in g.vertices})
        with pytest.raises(ValueError):
            trace_faces(g, rot)

    def test_malformed_rotator_rejected(self):
        g = complete_graph("abc")
        rot = RotationSystem({"a": (("ab", 0),), "b": g.half_edges_at("b"),
                              "c": g.half_edges_at("c")})
        with pytest.raises(ValueError):
            trace_faces(g, rot)

    @pytest.mark.parametrize("at_a", [
        (("ab", 0), ("l", 0)),                        # a loop's second end missing
        (("ab", 0), ("l", 0), ("l", 0)),              # a half-edge twice
        (("ab", 1), ("l", 0), ("l", 1)),              # a half-edge at the other end
        (("ab", 0), ("l", 0), ("l", -1)),             # an end that is neither 0 nor 1
        (("ab", 0), ("l", 0), ("l", 2)),
        (("zz", 0), ("l", 0), ("l", 1)),              # an unknown edge
        (("ab", 0), ("l", 0), ("l", 1), ("ab", 1)),   # one half-edge too many
    ])
    def test_each_wrong_rotator_is_named(self, at_a):
        g = Graph("ab", {"ab": ("a", "b"), "l": ("a", "a")})
        good = RotationSystem({"a": (("ab", 0), ("l", 0), ("l", 1)), "b": (("ab", 1),)})
        assert trace_faces(g, good).genus == 0
        with pytest.raises(ValueError, match="^rotator at a does not list the half-edges at a$"):
            trace_faces(g, RotationSystem({"a": at_a, "b": (("ab", 1),)}))
        with pytest.raises(ValueError, match="^rotation system does not cover the vertex set$"):
            trace_faces(g, RotationSystem({"a": good.rotator("a")}))

    def test_union_keeps_each_systems_rotators(self):
        a = RotationSystem({"a": (("y", 0), ("x", 0)), "b": (("z", 1), ("y", 1))})
        b = RotationSystem({"c": (("x", 1), ("z", 0))})
        merged = RotationSystem.union([(b, ["c"]), (a, ["b", "a"])])
        assert merged.vertices() == ("a", "b", "c")
        assert merged == RotationSystem({v: s.rotator(v) for s in (a, b) for v in s.vertices()})


class TestPlanarity:
    def test_k4_planar(self):
        traced = check_planar(K4())
        assert traced is not None and len(traced) == 1
        assert trace_faces(K4(), traced[0].rotation).genus == 0

    def test_k5_not_planar(self):
        assert check_planar(complete_graph("abcde")) is None

    def test_wheel_planar(self):
        # C4 plus a hub adjacent to every rim vertex.
        rim = C4()
        edges = dict(rim.edges)
        for v in "abcd":
            edges[f"h{v}"] = ("h", v)
        wheel = Graph("abcdh", edges)
        assert check_planar(wheel) is not None

    def test_disconnected_composes(self):
        g = Graph("abcdef", {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a"),
                             "de": ("d", "e"), "ef": ("e", "f"), "fd": ("f", "d")})
        traced = check_planar(g)
        assert traced is not None and len(traced) == 2
        assert traced[0].rotation is traced[1].rotation
        for part in g.component_index()[1]:
            sub = g.induced_subgraph(part.vertices)
            assert trace_faces(sub, traced[0].rotation).genus == 0

    def test_multigraph_theta_and_loop(self):
        theta = Graph("uv", {"e1": ("u", "v"), "e2": ("u", "v"), "e3": ("u", "v")})
        traced = check_planar(theta)
        assert traced is not None
        assert trace_faces(theta, traced[0].rotation).genus == 0
        loopy = Graph("uv", {"e": ("u", "v"), "l": ("u", "u")})
        traced = check_planar(loopy)
        assert traced is not None
        assert trace_faces(loopy, traced[0].rotation).genus == 0

    def test_deterministic(self):
        assert check_planar(K4())[0].rotation == check_planar(K4())[0].rotation

    def test_pseudoforests_are_traced_without_networkx(self, monkeypatch):
        """Every component with E <= V has F >= 1 faces, so genus 0, in any rotation system."""
        calls = _count_calls(monkeypatch, "check_planarity", [nx])
        drawn = [random_pseudoforest(seed, kinds) for seed in range(60)
                 for kinds in [PSEUDOFOREST_KINDS, *([k] for k in PSEUDOFOREST_KINDS)]]
        for g in drawn:
            parts = g.component_index()[1]
            assert all(len(p.edges) <= len(p.vertices) for p in parts)
            assert max(len(g.half_edges_at(v)) for v in g.vertices) >= 3
            traced = check_planar(g)
            assert [t.genus for t in traced] == [0] * len(parts)
            assert traced[0].rotation == RotationSystem(
                {v: g.half_edges_at(v) for v in g.vertices})
        assert calls == []
        assert any(len(g.component_index()[1]) >= 3 for g in drawn)
        assert any(g.loops() for g in drawn) and any(g.parallel_pairs() for g in drawn)
        # One edge more in a component with a cycle leaves E > V there.
        cyclic = [(g, p) for g in drawn for p in g.component_index()[1]
                  if len(p.edges) == len(p.vertices)][:20]
        for g, part in cyclic:
            u, w = sorted(part.vertices)[:2]
            del calls[:]
            assert check_planar(Graph(g.vertices, {**g.edges, "x": (u, w)})) is not None
            assert len(calls) == 1


class TestOuterplanarity:
    def test_square_with_chord(self):
        edges = dict(C4().edges)
        edges["ac"] = ("a", "c")
        g = Graph("abcd", edges)
        result = check_outerplanar(g)
        assert result.outerplanar
        assert result.boundary is not None
        assert set(result.boundary) == set("abcd")
        assert result.chords == frozenset({"ac"})
        assert result.boundary_edges == frozenset({"ab", "bc", "cd", "ad"})

    def test_k4_witness(self):
        result = check_outerplanar(K4())
        assert not result.outerplanar
        assert result.witness.target == "K4"
        assert verify_minor_witness(K4(), result.witness)

    def test_k23_witness(self):
        g = complete_bipartite("uv", "xyz")
        result = check_outerplanar(g)
        assert not result.outerplanar
        assert result.witness.target == "K2,3"
        assert verify_minor_witness(g, result.witness)

    def test_star_outerplanar_without_boundary(self):
        g = complete_bipartite(["c"], ["x", "y", "z"])
        result = check_outerplanar(g)
        assert result.outerplanar
        assert result.boundary is None

    def test_k23_has_no_k4_minor(self):
        assert find_minor(complete_bipartite("uv", "xyz"), "K4") is None


class TestTwoConnected:
    def test_cycle(self):
        assert is_2_connected(C4())

    def test_star_has_cutvertex(self):
        assert not is_2_connected(complete_bipartite(["c"], ["x", "y", "z"]))

    def test_two_triangles_sharing_a_vertex(self):
        g = Graph("vabxy", {"va": ("v", "a"), "vb": ("v", "b"), "ab": ("a", "b"),
                            "vx": ("v", "x"), "vy": ("v", "y"), "xy": ("x", "y")})
        assert not is_2_connected(g)

    def test_small_and_loopy(self):
        assert not is_2_connected(Graph("ab", {"ab": ("a", "b")}))
        g = Graph("abc", {"ab": ("a", "b"), "bc": ("b", "c"), "ca": ("c", "a"),
                          "l": ("a", "a")})
        assert not is_2_connected(g)


def bipyramid_traced(bipyramid4):
    rotation = decide_outerspatial(bipyramid4).certificate.rotation
    return trace_faces(bipyramid4.graph, rotation)


class TestCycleSides:
    def test_equator_splits_four_and_four(self, bipyramid4):
        traced = bipyramid_traced(bipyramid4)
        equator = frozenset({"ab", "bc", "cd", "ad"})
        side_a, side_b = cycle_sides(traced, equator)
        assert len(side_a) == 4 and len(side_b) == 4
        # Each side consists of the four faces at one apex.
        def apexes(side):
            return {fid[0] for i in side
                    for fid in [_orbit_face_id(bipyramid4, traced, i)]}
        assert {frozenset(apexes(side_a)), frozenset(apexes(side_b))} == \
            {frozenset("n"), frozenset("s")}

    def test_face_boundary_isolates_one_face(self, bipyramid4):
        traced = bipyramid_traced(bipyramid4)
        side_a, side_b = cycle_sides(traced, frozenset({"na", "nb", "ab"}))
        assert sorted(map(len, (side_a, side_b))) == [1, 7]

    def test_sides_partition(self, bipyramid4):
        traced = bipyramid_traced(bipyramid4)
        n = len(traced.orbits)
        for cyc in gen.all_cycles(bipyramid4.graph, 4):
            edges = frozenset(
                bipyramid4.graph.edges_between(cyc[i], cyc[(i + 1) % len(cyc)])[0]
                for i in range(len(cyc)))
            side_a, side_b = cycle_sides(traced, edges)
            assert side_a and side_b
            assert side_a | side_b == frozenset(range(n))
            assert not side_a & side_b

    def test_positive_genus_rejected(self):
        rotators = dict(PLANAR_K4_ROTATORS)
        rotators["a"] = (("ab", 0), ("ac", 0), ("ad", 0))
        traced = trace_faces(K4(), RotationSystem(rotators))
        with pytest.raises(ValueError):
            cycle_sides(traced, frozenset({"ab", "bc", "ac"}))

    def test_non_cycle_rejected(self, bipyramid4):
        traced = bipyramid_traced(bipyramid4)
        with pytest.raises(ValueError):
            cycle_sides(traced, frozenset({"ab", "bc"}))


def _orbit_face_id(complex, traced, orbit_index):
    """Identify a traced orbit with the face of the complex having its edges."""
    edges = frozenset(e for e, _ in traced.orbits[orbit_index])
    for fid, f in complex.faces.items():
        if f.edge_set == edges:
            return fid
    raise AssertionError("orbit does not match a face")


class TestCyclesCross:
    def test_disjoint_triangles(self):
        prism = gen.prism(3)
        traced = trace_faces(prism.graph, decide_outerspatial(prism).certificate.rotation)
        top = prism.faces["top"].edge_set
        bot = prism.faces["bot"].edge_set
        assert not cycles_cross(traced, top, bot)

    def test_crossing_squares_on_bipyramid(self, bipyramid4):
        traced = bipyramid_traced(bipyramid4)
        c1 = frozenset({"na", "sa", "nc", "sc"})
        c2 = frozenset({"nb", "sb", "nd", "sd"})
        assert cycles_cross(traced, c1, c2)

    def test_equal_cycles_do_not_cross(self, bipyramid4):
        traced = bipyramid_traced(bipyramid4)
        c = frozenset({"na", "sa", "nc", "sc"})
        assert not cycles_cross(traced, c, c)


class TestNestingForest:
    def test_k4_triangles(self):
        traced = trace_faces(K4(), RotationSystem(PLANAR_K4_ROTATORS))
        cycles = {"abc": frozenset({"ab", "bc", "ac"}),
                  "abd": frozenset({"ab", "bd", "ad"}),
                  "acd": frozenset({"ac", "cd", "ad"}),
                  "bcd": frozenset({"bc", "cd", "bd"})}
        parents = nesting_forest(traced, *split_orbit_cycles(traced, cycles))
        roots = [c for c, p in parents.items() if p is None]
        assert len(roots) == 1
        children = [c for c, p in parents.items() if p == roots[0]]
        assert len(children) == 3
        # No crossing pair, so the interiors are laminar: the children's are disjoint.
        assert parents == reference_nesting(traced, cycles, [0])[0]

    def test_empty(self, bipyramid4):
        traced = bipyramid_traced(bipyramid4)
        assert nesting_forest(traced, *split_orbit_cycles(traced, {})) == {}

    def test_crossing_pair_reported(self, bipyramid4):
        traced = bipyramid_traced(bipyramid4)
        got = nesting_forest(traced, *split_orbit_cycles(traced, {
            "c1": frozenset({"na", "sa", "nc", "sc"}),
            "c2": frozenset({"nb", "sb", "nd", "sd"})}))
        assert isinstance(got, CrossingPair)
        assert (got.first, got.second) == ("c1", "c2")

    def test_edge_set_the_walk_never_crosses_is_rejected(self):
        traced = trace_faces(K4(), RotationSystem(PLANAR_K4_ROTATORS))
        # The edges off the dual tree form a spanning tree of K4, not a cycle.
        off_tree = frozenset(K4().edges) - set(embedding._DualTree(traced, 0).below)
        assert len(off_tree) == 3
        triangle = frozenset({"ab", "bc", "ac"})
        for bad in (off_tree, frozenset({"zz"})):
            with pytest.raises(ValueError, match="^cycle x is not a cycle of the traced graph$"):
                nesting_forest(traced, *split_orbit_cycles(traced, {"t": triangle, "x": bad}))


class TestOuterFaceIndependence:
    def test_noncrossing_families_are_laminar_for_every_outer_face(self, bipyramid4):
        traced = bipyramid_traced(bipyramid4)
        cycles = {fid: f.edge_set for fid, f in bipyramid4.faces.items()}
        cycles["eq"] = frozenset({"ab", "bc", "cd", "ad"})
        outer_faces = range(len(traced.orbits))
        expected = reference_nesting(traced, cycles, outer_faces)
        assert isinstance(expected, dict)
        for outer in outer_faces:
            assert nesting_forest(traced, *split_orbit_cycles(traced, cycles), outer) == expected[outer]


class TestCheckCycle:
    def test_cycles_give_their_vertices(self):
        assert check_cycle(K4(), ["ab", "bc", "ac"]) == frozenset("abc")
        digon = Graph("ab", {"e": ("a", "b"), "f": ("a", "b")})
        assert check_cycle(digon, ["e", "f"]) == frozenset("ab")

    @pytest.mark.parametrize("edges,message", [
        ([], "empty cycle"),
        (["ab", "zz"], "unknown edge zz"),
        (["l"], "loop l cannot lie on a cycle"),
        (["ab", "bc"], "edge set is not a cycle: wrong degrees"),
        (["ab", "bc", "ac", "de", "ef", "df"], "edge set is not a cycle: disconnected"),
    ])
    def test_non_cycles_rejected(self, edges, message):
        graph = Graph("abcdef", {**complete_graph("abc").edges, **complete_graph("def").edges,
                                 "l": ("a", "a")})
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_cycle(graph, edges)


class TestMinorWitnesses:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_graph_witnesses_verify(self, seed):
        rng = random.Random(seed)
        names = [f"v{i}" for i in range(rng.randrange(5, 9))]
        edges = {}
        for u, v in itertools.combinations(names, 2):
            if rng.random() < 0.5:
                edges[f"{u}{v}"] = (u, v)
        g = Graph(names, edges)
        for target in ("K4", "K2,3"):
            witness = find_minor(g, target)
            if witness is not None:
                assert verify_minor_witness(g, witness)

    def test_tampered_witness_fails(self):
        witness = find_minor(K4(), "K4")
        assert witness is not None
        witness.branch_sets = witness.branch_sets[:3] + (frozenset({"zz"}),)
        assert not verify_minor_witness(K4(), witness)


@st.composite
def _graph_and_rotation(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    names = [f"v{i}" for i in range(n)]
    edges = {}
    for i, (u, v) in enumerate(itertools.combinations(names, 2)):
        if draw(st.booleans()):
            edges[f"e{i}"] = (u, v)
    g = Graph(names, edges)
    comp = max((part.vertices for part in g.component_index()[1]), key=len)
    g = g.induced_subgraph(comp)
    rotators = {}
    for v in sorted(g.vertices):
        halves = list(g.half_edges_at(v))
        perm = draw(st.permutations(halves))
        rotators[v] = tuple(perm)
    return g, RotationSystem(rotators)


@given(_graph_and_rotation())
@settings(max_examples=80, deadline=None)
def test_euler_consistency(data):
    g, rot = data
    traced = trace_faces(g, rot)
    assert traced.genus >= 0
