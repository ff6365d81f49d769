"""The obstruction verifier's own surface check.

`decider._surface_of` reads a face set's steps once and decides, from the
definitions, whether the subcomplex the faces generate is connected and
which closed surface, if any, it is.  It answers as the builder's route,
`face_subcomplex` then `Graph.is_connected` and `classify_component`, and
`verify_obstruction` reaches its verdict on a surface obstruction without
any of the builder's surface or link code.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import families
from outerspatial import complexes, decider, embedding, oracle, surface, verdicts
from outerspatial import generators as gen
from outerspatial.complexes import Face, Graph, TwoComplex, face_subcomplex
from outerspatial.decider import decide_outerspatial, verify_obstruction
from outerspatial.surface import SurfaceClass, classify_component, _closed_face_sets
from outerspatial.verdicts import AsphericalSubcomplex
from test_decider import torus7_with_insertions
from test_link_layer import link_edge_cases
from test_obstruction_path import from_cycles, tetra_chain, torus_cycles
from test_surface import projective_plane


def klein_bottle(n=3):
    """The n x n grid of squares with its sides glued, one pair with a twist."""
    def name(a, b):
        if b == n:
            a, b = -a, 0
        return f"k{a % n}{b}"
    return families.from_cycles({
        f"q{i}{j}": (name(i, j), name(i + 1, j), name(i + 1, j + 1), name(i, j + 1))
        for i in range(n) for j in range(n)})


def pool():
    """(name, complex) pairs whose face subsets the check is compared on."""
    loop_ends, pendant, bowtie, revisit = link_edge_cases()
    return [
        ("torus7", gen.torus7()),
        ("torus7+3", torus7_with_insertions(5, 3)),
        ("projective plane", projective_plane()),
        ("klein bottle", klein_bottle()),
        ("bowtie", bowtie),
        ("stacked", families.stacked(3, 8)),
        ("two tetrahedra", families.disjoint_tetrahedra(2)),
        ("loop ends", loop_ends),
        ("pendant", pendant),
        ("revisit", revisit),
    ]


POOL = pool()


def closed_sets(complex):
    """Every edge-connected face set covering each of its edges twice, and all faces."""
    fids = list(complex.faces)
    sets = _closed_face_sets([f.edge_set for f in complex.faces.values()], 2 ** 20)
    return [frozenset(fids[i] for i in s) for s in sets] + [frozenset(fids)]


CLOSED = {name: closed_sets(complex) for name, complex in POOL}


def builder_route(complex, face_ids):
    sub = face_subcomplex(complex, face_ids)
    return sub.graph.is_connected(), classify_component(sub)


def test_closed_sets_answer_as_the_builder_and_reach_each_outcome():
    outcomes = set()
    for name, complex in POOL:
        for faces in CLOSED[name]:
            got = decider._surface_of(complex, faces)
            assert got == builder_route(complex, faces), (name, sorted(faces))
            connected, sclass = got
            outcomes.add((connected, sclass.is_surface, sclass.orientable,
                          sclass.is_surface and sclass.euler == 2))
    for outcome in ((True, True, True, True), (True, True, True, False),
                    (True, True, False, False), (True, False, None, False),
                    (False, True, True, False)):
        assert outcome in outcomes, outcome


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_drawn_face_sets_answer_as_the_builder(data):
    """A closed set, or all faces, with up to three faces toggled."""
    name, complex = data.draw(st.sampled_from(POOL))
    base = data.draw(st.sampled_from(CLOSED[name]))
    toggled = data.draw(st.sets(st.sampled_from(sorted(complex.faces)), max_size=3))
    faces = base ^ toggled
    if faces:
        assert decider._surface_of(complex, faces) == builder_route(complex, faces)


def test_a_face_running_an_edge_both_ways_can_be_orientable():
    """One square a b a^-1 b^-1 is the torus, and a b a b^-1 the Klein bottle.

    Each is drawn on two loops at one vertex and, with the sides
    subdivided, on three vertices; the builder's route answers alike.
    """
    loops = Graph("v", {"a": ("v", "v"), "b": ("v", "v")})
    subdivided = Graph("vxy", {"a1": ("v", "x"), "a2": ("x", "v"),
                               "b1": ("v", "y"), "b2": ("y", "v")})
    cases = [
        (TwoComplex(loops, [Face("t", [("v", "a", 0), ("v", "b", 0),
                                       ("v", "a", 1), ("v", "b", 1)])]), True),
        (TwoComplex(loops, [Face("k", [("v", "a", 0), ("v", "b", 0),
                                       ("v", "a", 0), ("v", "b", 1)])]), False),
        (TwoComplex(subdivided, [Face.from_edges(
            subdivided, "t", ["a1", "a2", "b1", "b2", "a2", "a1", "b2", "b1"])]), True),
        (TwoComplex(subdivided, [Face.from_edges(
            subdivided, "k", ["a1", "a2", "b1", "b2", "a1", "a2", "b2", "b1"])]), False),
    ]
    for complex, orientable in cases:
        got = decider._surface_of(complex, set(complex.faces))
        assert got == (True, SurfaceClass(True, 0, orientable))
        assert builder_route(complex, set(complex.faces)) == got


def glued_salvage_case():
    """torus7 glued at a vertex to a tetrahedron: the salvage search finds the torus."""
    return from_cycles(torus_cycles() + tetra_chain(1, start="0"))


def test_the_surface_check_calls_no_builder_code(monkeypatch):
    cases = [gen.torus7(), projective_plane(), glued_salvage_case()]
    obstructions = [decide_outerspatial(complex).obstruction for complex in cases]
    assert all(isinstance(ob, AsphericalSubcomplex) for ob in obstructions)

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier called builder code")

    for name in ("classify_component", "face_subcomplex", "link_graph", "link_cycles",
                 "_single_cycle", "_orient_faces"):
        for module in (complexes, decider, embedding, oracle, surface, verdicts):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for complex, ob in zip(cases, obstructions):
        assert verify_obstruction(complex, ob)
        flipped = SurfaceClass(True, ob.surface.euler, not ob.surface.orientable)
        assert not verify_obstruction(complex, AsphericalSubcomplex(ob.faces, flipped))
