"""Minor witnesses from reductions, checked against the tests' enumerator.

`find_minor` builds K4 witnesses from the series-parallel kernel and K2,3
witnesses from the overfull elimination pair; `families._search_minor` lists
connected vertex subsets and is the ground truth for existence.  A witness
that passes `verify_minor_witness` proves existence on its own, so the
enumerator is asked exactly where `find_minor` answers None.  The
enumerator lives in `tests/` alone, and `tests/test_imports.py` keeps every
`src/` module from importing it, so `decide` never lists vertex subsets.
"""

import random
import time
from pathlib import Path

import networkx as nx
import pytest

import families
from outerspatial import decider
from outerspatial.complexes import Graph, complete_graph
from outerspatial.decider import NonOuterplanarLink, NotOuterspatial, decide_outerspatial
from outerspatial.embedding import find_minor, verify_minor_witness
from outerspatial.embedding import test_outerplanar as check_outerplanar
from outerspatial.fileformat import parse_complex
from outerspatial.generators import cone_over_graph
from test_link_layer import cut_vertex_graphs, from_nx, from_pairs, with_parallels_and_loops

TARGETS = ("K4", "K2,3")
GOLDEN = Path(__file__).parent / "golden"


def atlas_graphs():
    return [from_nx(g) for g in nx.graph_atlas_g() if g.number_of_nodes() <= 7]


def gnp_graphs():
    rng = random.Random(11)
    return [from_nx(nx.gnp_random_graph(rng.randrange(8, 12), rng.uniform(0.1, 0.6),
                                        seed=rng.randrange(10 ** 9)))
            for _ in range(300)]


def multigraphs():
    rng = random.Random(12)
    graphs = [from_nx(nx.gnp_random_graph(rng.randrange(4, 8), rng.uniform(0.3, 0.8),
                                          seed=rng.randrange(10 ** 9)))
              for _ in range(60)]
    return [with_parallels_and_loops(g, rng) for g in graphs if len(g.edges)]


FAMILIES = {"atlas": atlas_graphs, "gnp": gnp_graphs, "multigraph": multigraphs,
            "cut-vertex": cut_vertex_graphs}


def subdivided(branch_edges, n_vertices):
    """The graph with its edges subdivided, evenly, up to `n_vertices` vertices."""
    branch = {v for uv in branch_edges for v in uv}
    q, r = divmod(n_vertices - len(branch), len(branch_edges))
    pairs, fresh = [], 0
    for i, (u, v) in enumerate(branch_edges):
        inner = [f"s{fresh + j}" for j in range(q + (i < r))]
        fresh += len(inner)
        chain = [u, *inner, v]
        pairs += list(zip(chain, chain[1:]))
    return from_pairs(pairs)


def wheel(rim):
    names = [f"r{i}" for i in range(rim)]
    return from_pairs([("h", v) for v in names]
                      + [(names[i], names[(i + 1) % rim]) for i in range(rim)])


K4_EDGES = [(u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1:]]
K23_EDGES = [(u, v) for u in "ab" for v in "xyz"]


class TestAgainstTheOracle:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_existence_matches_enumeration(self, family):
        """Existence equals the enumerator's, and the outerplanarity witness
        is a K4 exactly when a K4 minor exists."""
        found = {target: 0 for target in TARGETS}
        for graph in FAMILIES[family]():
            witnesses = {}
            for target in TARGETS:
                witness = witnesses[target] = find_minor(graph, target)
                if witness is None:
                    assert families._search_minor(graph, target) is None, (target, graph.edges)
                else:
                    assert witness.target == target
                    assert verify_minor_witness(graph, witness), (target, graph.edges)
                    found[target] += 1
            result = check_outerplanar(graph)
            assert result.outerplanar == (witnesses == {"K4": None, "K2,3": None})
            if not result.outerplanar:
                assert verify_minor_witness(graph, result.witness)
                assert (result.witness.target == "K4") == (witnesses["K4"] is not None)
        assert all(found.values()), found


def edges_between(graph, a, b):
    return [eid for eid in graph.edges
            if any(u in a and v in b for u, v in (graph.endpoints(eid),
                                                  graph.endpoints(eid)[::-1]))]


def assert_canonical(graph, witness, two_side):
    sets = witness.branch_sets
    for side in (sets[:two_side], sets[two_side:]):
        assert [min(s) for s in side] == sorted(min(s) for s in side)
    for (i, j), eid in witness.connecting_edges.items():
        assert eid == min(edges_between(graph, sets[i], sets[j]))


class TestCanonicalWitness:
    def test_k4_branch_sets_sorted_with_smallest_edges(self):
        graph = subdivided(K4_EDGES, 10)
        assert_canonical(graph, find_minor(graph, "K4"), 0)

    def test_k23_two_side_first(self):
        graph = subdivided(K23_EDGES, 11)
        witness = find_minor(graph, "K2,3")
        assert witness.branch_sets[:2] == (frozenset("a"), frozenset("b"))
        assert_canonical(graph, witness, 2)

    def test_parallel_edges_give_the_smallest_id(self):
        edges = dict(complete_graph("abcd").edges)
        edges["aa-first"] = ("a", "b")
        witness = find_minor(Graph("abcd", edges), "K4")
        assert witness.connecting_edges[(0, 1)] == "aa-first"

    def test_bare_k4_block_uses_an_ear(self):
        # K5 minus an edge: the kernel is a bare K4 plus a fifth vertex.
        graph = from_pairs([(u, v) for i, u in enumerate("abcde") for v in "abcde"[i + 1:]
                            if (u, v) != ("d", "e")])
        witness = find_minor(graph, "K2,3")
        assert verify_minor_witness(graph, witness)

    def test_k23_in_a_later_block(self):
        k4 = [(u, v) for i, u in enumerate("pqrs") for v in "pqrs"[i + 1:]]
        graph = from_pairs(k4 + [("s", "x")] + [(u, v) for u in "xy" for v in "klm"])
        witness = find_minor(graph, "K2,3")
        assert verify_minor_witness(graph, witness)
        assert set().union(*witness.branch_sets) <= set("xyklm")

    def test_same_witness_whatever_the_edge_order(self):
        graph = subdivided(K4_EDGES, 30)
        renamed = Graph(graph.vertices, {f"z{eid}": uv for eid, uv in
                                         reversed(list(graph.edges.items()))})
        assert find_minor(graph, "K4").branch_sets == find_minor(renamed, "K4").branch_sets


class TestNoEnumerationOnDecide:
    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.complex")), ids=lambda p: p.stem)
    def test_golden_inputs(self, path):
        decide_outerspatial(parse_complex(path.read_text()))

    @pytest.mark.parametrize("edges", [K4_EDGES, K23_EDGES], ids=["K4", "K2,3"])
    @pytest.mark.parametrize("size", [13, 40])
    def test_cones_over_subdivisions(self, edges, size):
        verdict = decide_outerspatial(cone_over_graph(subdivided(edges, size)))
        assert isinstance(verdict.obstruction, NonOuterplanarLink)


class TestScale:
    """Cones whose apex link is large; each decides well inside a second."""

    @pytest.mark.parametrize("size", [100, 1000])
    @pytest.mark.parametrize("edges,target", [(K4_EDGES, "K4"), (K23_EDGES, "K2,3")],
                             ids=["K4", "K2,3"])
    def test_subdivided_links(self, edges, target, size):
        complex = cone_over_graph(subdivided(edges, size))
        start = time.perf_counter()
        verdict = decide_outerspatial(complex)
        elapsed = time.perf_counter() - start
        assert isinstance(verdict, NotOuterspatial)
        assert verdict.obstruction.witness.target == target
        assert elapsed < 5, elapsed

    def test_wheel_link(self):
        complex = cone_over_graph(wheel(1000))
        start = time.perf_counter()
        verdict = decide_outerspatial(complex)
        elapsed = time.perf_counter() - start
        assert verdict.obstruction.witness.target == "K4"
        assert decider.verify_obstruction(complex, verdict.obstruction)
        assert elapsed < 10, elapsed
