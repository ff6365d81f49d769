"""The obstruction path of `decide`: forced-face surface search and K4 gate.

Each fast piece is checked against the exhaustive search it stands in for:
the surface search against `oracle.find_aspherical_subcomplex`, and the
series-parallel gate against the tests' branch-set enumeration.
"""

import itertools
import random

import networkx as nx
import pytest

from outerspatial import decider, oracle
from outerspatial import generators as gen
from outerspatial.complexes import (Graph, associated_complex,
                                    complete_graph, delete_faces)
from outerspatial.decider import (AsphericalSubcomplex, HypothesisViolated,
                                  NotOuterspatial, decide_outerspatial,
                                  verify_obstruction)
from outerspatial.embedding import find_minor, verify_minor_witness
from outerspatial.oracle import find_aspherical_subcomplex
from outerspatial.surface import SearchBudgetExceeded, search_aspherical_subcomplex
from outerspatial.surface import _closed_face_sets
from families import _search_minor
from test_surface import projective_plane

BUDGET = decider.ASPHERICAL_SEARCH_BUDGET


def from_cycles(cycles):
    """The complex whose faces are the given vertex cycles (edges named u-v)."""
    edges = {}
    for _, cyc in cycles:
        for u, v in zip(cyc, cyc[1:] + cyc[:1]):
            a, b = sorted((u, v))
            edges.setdefault(f"{a}-{b}", (a, b))
    graph = Graph({v for _, cyc in cycles for v in cyc}, edges)
    return associated_complex(graph, dict(cycles))


def tetra_cycles(tag, vertices):
    a, b, c, d = vertices
    return [(f"{tag}{j}", tri) for j, tri in
            enumerate(((a, b, c), (a, b, d), (a, c, d), (b, c, d)))]


def tetra_chain(k, start="p0"):
    """k tetrahedron boundaries, each glued to the next at one vertex."""
    cycles = []
    for i in range(k):
        first = start if i == 0 else f"p{i}"
        cycles += tetra_cycles(f"t{i:02d}", (first, f"x{i}", f"y{i}", f"p{i + 1}"))
    return cycles


def torus_cycles():
    return [(fid, f.vertices) for fid, f in gen.torus7().faces.items()]


def same_as_oracle(complex):
    return (search_aspherical_subcomplex(complex, BUDGET)
            == find_aspherical_subcomplex(complex))


class TestForcedSurfaceSearch:
    def test_small_corpus_and_face_deletions(self, small_corpus):
        cases = [c for _, c in small_corpus]
        cases += [delete_faces(c, {fid}) for c in cases
                  for fid in list(c.faces)[:2]]
        found = 0
        for complex in cases:
            got = search_aspherical_subcomplex(complex, BUDGET)
            assert got == find_aspherical_subcomplex(complex)
            found += got is not None
        assert found > 100

    def test_named_surfaces(self, torus7, tetra):
        for complex in (torus7, projective_plane(), tetra,
                        delete_faces(torus7, {"a0"})):
            assert same_as_oracle(complex)
        faces, sclass = search_aspherical_subcomplex(projective_plane(), BUDGET)
        assert len(faces) == 3 and sclass.euler == 1

    def test_unions(self):
        disjoint = from_cycles(tetra_cycles("s", "abcd") + tetra_cycles("t", "efgh"))
        at_vertex = from_cycles(tetra_cycles("s", "abcd") + tetra_cycles("t", "aefg"))
        with_torus = from_cycles(torus_cycles() + tetra_cycles("t", ("3", "x", "y", "z")))
        # The projective plane's faces sort after the torus's but are fewer.
        plane = [("z1", ("3", "p", "q", "r")), ("z2", ("3", "p", "r", "q")),
                 ("z3", ("3", "q", "p", "r"))]
        torus_and_plane = from_cycles(torus_cycles() + plane)
        for complex in (disjoint, at_vertex, with_torus, torus_and_plane):
            assert same_as_oracle(complex)
        assert search_aspherical_subcomplex(at_vertex, BUDGET) is None
        faces, sclass = search_aspherical_subcomplex(torus_and_plane, BUDGET)
        assert faces == {"z1", "z2", "z3"} and sclass.euler == 1

    def test_node_count_stays_below_two_to_the_faces(self, small_corpus):
        # Every node is a distinct non-empty face set, so 2^F - 1 always suffices.
        for _, complex in small_corpus[::7]:
            search_aspherical_subcomplex(complex, 2 ** len(complex.faces) - 1)

    def test_budget_exhaustion_raises_with_counts(self, torus7):
        with pytest.raises(SearchBudgetExceeded) as info:
            search_aspherical_subcomplex(torus7, 5)
        assert (info.value.nodes, info.value.budget) == (5, 5)


class TestSalvageStep:
    def test_decide_does_not_call_the_oracle(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("oracle called on the decide path")
        monkeypatch.setattr(oracle, "find_aspherical_subcomplex", refuse)
        complex = from_cycles(torus_cycles() + tetra_chain(1, start="0"))
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict.obstruction, AsphericalSubcomplex)

    def test_24_face_tetra_chain_is_searched(self, monkeypatch):
        complex = from_cycles(tetra_chain(6))
        assert len(complex.faces) == 24
        # The chain's skeleton is planar; refuse the triangle fallback so
        # that the salvage search runs.
        monkeypatch.setattr(decider, "test_planar", lambda graph: None)
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, HypothesisViolated)
        assert not any("search" in note for note in verdict.notes)
        # A budget far below 2^24 still suffices: each choice is forced.
        monkeypatch.setattr(decider, "ASPHERICAL_SEARCH_BUDGET", 200)
        assert decide_outerspatial(complex).notes == verdict.notes

    @pytest.mark.parametrize("k", [2, 4])
    def test_torus_glued_to_long_chain_is_obstructed(self, k):
        complex = from_cycles(torus_cycles() + tetra_chain(k, start="0"))
        assert len(complex.faces) > 20
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, NotOuterspatial)
        ob = verdict.obstruction
        assert ob.faces == frozenset(fid for fid, _ in torus_cycles())
        assert ob.surface.euler == 0 and ob.surface.orientable
        assert verify_obstruction(complex, ob)

    def test_budget_exhaustion_note(self, monkeypatch):
        monkeypatch.setattr(decider, "ASPHERICAL_SEARCH_BUDGET", 3)
        complex = from_cycles(torus_cycles() + tetra_chain(1, start="0"))
        verdict = decide_outerspatial(complex)
        assert isinstance(verdict, HypothesisViolated)
        assert verdict.notes[-1] == ("aspherical-subcomplex search stopped after 3 "
                                     "nodes, its budget of 3")


def _atlas_and_random_graphs():
    graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes() <= 7]
    rng = random.Random(9)
    graphs += [nx.gnp_random_graph(9, rng.random(), seed=i) for i in range(300)]
    for g in graphs:
        yield Graph([str(v) for v in g.nodes],
                    {f"e{i}": (str(u), str(v)) for i, (u, v) in enumerate(g.edges)})


class TestK4Gate:
    def test_gate_matches_enumeration(self):
        checked = 0
        for graph in _atlas_and_random_graphs():
            assert (find_minor(graph, "K4") is None) == (_search_minor(graph, "K4") is None)
            checked += 1
        assert checked > 1500

    def test_multigraph_reduces_through_parallels_and_loops(self):
        # A triangle with every edge doubled and a loop has no K4 minor.
        g = Graph("abc", {"ab": ("a", "b"), "ab2": ("a", "b"), "bc": ("b", "c"),
                          "bc2": ("b", "c"), "ca": ("c", "a"), "l": ("a", "a")})
        assert find_minor(g, "K4") is None
        assert find_minor(complete_graph("abcd"), "K4") is not None

    def test_k4_free_graph_skips_enumeration(self):
        k23 = gen.named_graph("k23")
        assert find_minor(k23, "K4") is None
        witness = find_minor(k23, "K2,3")
        assert witness.target == "K2,3" and verify_minor_witness(k23, witness)


def complete_2_skeleton(names):
    """K_n with every triangle as a face."""
    return from_cycles([("".join(t), t) for t in itertools.combinations(names, 3)])


def brute_force_closed_sets(edge_sets):
    """Every edge-connected face subset covering each of its edges exactly twice,
    as sorted index tuples."""
    out = set()
    for size in range(1, len(edge_sets) + 1):
        for subset in itertools.combinations(range(len(edge_sets)), size):
            count = {}
            for f in subset:
                for e in edge_sets[f]:
                    count[e] = count.get(e, 0) + 1
            if any(c != 2 for c in count.values()):
                continue
            reached = {subset[0]}
            grown = True
            while grown:
                grown = False
                for f in subset:
                    if f not in reached and any(edge_sets[f] & edge_sets[g] for g in reached):
                        reached.add(f)
                        grown = True
            if len(reached) == size:
                out.add(subset)
    return out


def edge_sets_of(complex):
    return [f.edge_set for f in complex.faces.values()]


class TestClosedFaceSetListing:
    """`_closed_face_sets` lists exactly the closed edge-connected face sets, with a
    pinned node count: a change of search order moves the budget where it stops."""

    @pytest.mark.parametrize("name, build, sets", [
        ("K5", lambda: complete_2_skeleton("abcde"), 15),
        ("torus7", gen.torus7, 1),
        ("projective plane", projective_plane, 1),
    ])
    def test_listing_matches_brute_force(self, name, build, sets):
        edge_sets = edge_sets_of(build())
        listed = _closed_face_sets(edge_sets, BUDGET)
        assert len(listed) == len(set(listed)) == sets
        assert set(listed) == brute_force_closed_sets(edge_sets)

    @pytest.mark.parametrize("name, build, nodes, sets", [
        ("K5", lambda: complete_2_skeleton("abcde"), 57, 15),
        ("torus7", gen.torus7, 34, 1),
        ("K6", lambda: complete_2_skeleton("abcdef"), 972, 282),
    ])
    def test_smallest_budget_that_finishes(self, name, build, nodes, sets):
        edge_sets = edge_sets_of(build())
        assert len(_closed_face_sets(edge_sets, nodes)) == sets
        with pytest.raises(SearchBudgetExceeded):
            _closed_face_sets(edge_sets, nodes - 1)
