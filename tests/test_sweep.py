"""The label walks of the forest builder and of the verifier against the pairwise algorithm.

The reference is the algorithm the walks replaced, kept in the tests only
(`families.reference_nesting`): a union-find over every non-cycle edge for
the sides of a cycle, a pairwise crossing scan in lexicographic order, and
a quadratic search for each interior's smallest strict superset.
"""

import random

import families
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import reference_nesting, reference_sides
from outerspatial import decider, embedding, verdicts
from outerspatial import generators as gen
from outerspatial.complexes import Face, Graph, TwoComplex, delete_faces
from outerspatial.decider import (ComponentCertificate, NestedCertificate,
                                  Outerspatial, decide_outerspatial,
                                  verify_certificate)
from outerspatial.embedding import (CrossingPair, RotationSystem, cycle_sides,
                                    nesting_forest, split_orbit_cycles,
                                    trace_faces)
from outerspatial.fileformat import (format_certificate, format_verdict,
                                     parse_certificate_report)


def stacked_sphere(seed, vertices):
    """Tetrahedron plus seeded insertions, with every separating triangle as a cycle."""
    rng = random.Random(seed)
    complex = gen.tetra()
    separating = {}
    for k in range(vertices - 4):
        triangles = list(complex.faces)
        fid = rng.choice(triangles)
        separating[f"s{fid}"] = complex.faces[fid].edge_set
        complex = gen.insert_vertex(complex, fid, f"v{k}")
    traced = trace_faces(complex.graph, decide_outerspatial(complex).certificate.rotation)
    cycles = {fid: f.edge_set for fid, f in complex.faces.items()}
    cycles.update(separating)
    return complex, traced, cycles


@given(seed=st.integers(0, 10**6), vertices=st.integers(4, 60))
@settings(max_examples=25, deadline=None)
def test_sweep_matches_reference_for_every_outer_face(seed, vertices):
    _, traced, cycles = stacked_sphere(seed, vertices)
    outer_faces = range(len(traced.orbits))
    expected = reference_nesting(traced, cycles, outer_faces)
    assert isinstance(expected, dict)
    for outer in outer_faces:
        assert nesting_forest(traced, *split_orbit_cycles(traced, cycles), outer) == expected[outer]


@given(seed=st.integers(0, 10**6), vertices=st.integers(4, 60))
@settings(max_examples=25, deadline=None)
def test_sides_match_reference(seed, vertices):
    _, traced, cycles = stacked_sphere(seed, vertices)
    for edges in cycles.values():
        assert cycle_sides(traced, edges) == reference_sides(traced, edges)


def bipyramid_family(seed):
    """The faces of a bipyramid plus random cycles, half the time with crossing squares."""
    rng = random.Random(seed)
    n = rng.randrange(4, 9)
    base = gen.bipyramid(n)
    traced = trace_faces(base.graph, decide_outerspatial(base).certificate.rotation)
    graph = base.graph
    chosen = [f.vertices for f in base.faces.values()]
    chosen += rng.sample(gen.all_cycles(graph, 5), rng.randrange(0, 4))
    if seed % 2:
        chosen += [("n", "a", "s", "c"), ("n", "b", "s", "d")]
    family = {}
    for vs in chosen:
        edges = frozenset(graph.edges_between(vs[i], vs[(i + 1) % len(vs)])[0]
                          for i in range(len(vs)))
        if edges not in family.values():
            family[f"c{rng.randrange(10**6):06d}"] = edges
    return traced, family


@pytest.mark.parametrize("seed", range(60))
def test_first_crossing_pair_matches_reference(seed):
    traced, family = bipyramid_family(seed)
    for edges in family.values():
        assert cycle_sides(traced, edges) == reference_sides(traced, edges)
    _assert_matches_reference(traced, family)  # for every outer face


def face_orbit_cycles(traced):
    """The edge sets of the orbits that run each of their edges once."""
    out = set()
    for orbit in traced.orbits:
        edges = frozenset(e for e, _ in orbit)
        if len(edges) == len(orbit):
            out.add(edges)
    return out


def test_crossing_families_are_found_without_the_pairwise_test(monkeypatch):
    # Each interior is computed once, only after the walk fails, and only
    # for the cycles that bound no face orbit; the scan for the first
    # crossing pair then compares bitsets.
    split = []
    interior = embedding._cycle_interior

    def counted(traced, tree, edges):
        split.append(edges)
        return interior(traced, tree, edges)

    monkeypatch.setattr(embedding, "_cycle_interior", counted)
    kinds = set()
    for seed in range(20):
        traced, family = bipyramid_family(seed)
        faces = face_orbit_cycles(traced)
        assert not faces.isdisjoint(family.values())
        expected = reference_nesting(traced, family, [0])
        split.clear()
        got = nesting_forest(traced, *split_orbit_cycles(traced, family))
        if isinstance(expected, tuple):
            assert (got.first, got.second) == expected
            walked = [edges for edges in family.values() if edges not in faces]
            assert sorted(map(sorted, split)) == sorted(map(sorted, walked))
            assert faces.isdisjoint(split)
        else:
            assert split == []
        kinds.add(type(expected))
    assert kinds == {tuple, dict}


@pytest.mark.parametrize("build", [lambda: gen.prism(6), lambda: gen.bipyramid_with_equator(5),
                                   lambda: families.tower(4)])
def test_the_outer_orbits_own_cycle_is_the_only_root(build):
    complex = build()
    traced = trace_faces(complex.graph, decide_outerspatial(complex).certificate.rotation)
    family = {fid: f.edge_set for fid, f in complex.faces.items()}
    expected = _assert_matches_reference(traced, family)
    orbit_cycle = {frozenset(e for e, _ in orbit): x for x, orbit in enumerate(traced.orbits)}
    own = {orbit_cycle[edges]: cid for cid, edges in family.items() if edges in orbit_cycle}
    assert len(own) == len(traced.orbits)
    for x, cid in own.items():
        assert [c for c, p in expected[x].items() if p is None] == [cid]


def test_two_triangles_joined_by_a_bridge():
    # The outer orbit runs the bridge twice, so it bounds no cycle and both
    # triangles are roots; from inside a triangle, that triangle is the root.
    graph = Graph("abcdef", {"ab": ("a", "b"), "ac": ("a", "c"), "bc": ("b", "c"),
                             "cd": ("c", "d"),
                             "de": ("d", "e"), "df": ("d", "f"), "ef": ("e", "f")})
    (traced,) = embedding.test_planar(graph)
    cycles = {"t1": frozenset({"ab", "ac", "bc"}), "t2": frozenset({"de", "df", "ef"})}
    assert face_orbit_cycles(traced) == set(cycles.values())
    expected = _assert_matches_reference(traced, cycles)
    for x, orbit in enumerate(traced.orbits):
        inner = {cid for cid, edges in cycles.items() if {e for e, _ in orbit} == edges}
        assert expected[x] == {cid: (None if cid in inner or not inner else min(inner))
                               for cid in cycles}


def test_duplicate_edge_sets_are_rejected(bipyramid4):
    traced = trace_faces(bipyramid4.graph, decide_outerspatial(bipyramid4).certificate.rotation)
    square = frozenset({"na", "sa", "nc", "sc"})
    with pytest.raises(ValueError, match="same edge set"):
        split_orbit_cycles(traced, {"p": square, "q": square})


def test_verifier_uses_neither_the_forest_builder_nor_the_sweep(monkeypatch):
    cases = [gen.bipyramid_with_equator(5), families.tower(6), families.disjoint_tetrahedra(3)]
    decided = [decide_outerspatial(complex) for complex in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("verifier reached the forest builder")

    for module, name in ((embedding, "nesting_forest"), (decider, "nesting_forest"),
                         (verdicts, "nesting_forest"),
                         (embedding, "_label_walk"), (embedding, "_cycle_interior"),
                         (embedding, "cycle_sides")):
        monkeypatch.setattr(module, name, refuse)
    for complex, verdict in zip(cases, decided):
        assert verify_certificate(complex, verdict.certificate)


def nested_certificate():
    """A positive verdict on a complex whose forest is three levels deep."""
    complex = gen.bipyramid_with_equator(5)
    verdict = decide_outerspatial(complex)
    (comp,) = verdict.certificate.components
    assert any(p is not None and comp.parents[p] is not None for p in comp.parents.values())
    return complex, verdict.certificate, comp


def _with_parents(cert, comp, parents):
    return NestedCertificate(
        cert.rotation, [ComponentCertificate(comp.vertices, comp.outer_darts, parents)])


def _edges(parents):
    return [(c, p) for c, p in sorted(parents.items()) if p is not None]


def test_parent_swapped_with_child_is_rejected():
    complex, cert, comp = nested_certificate()
    tried = 0
    for child, par in _edges(comp.parents):
        bad = dict(comp.parents)
        bad[child], bad[par] = comp.parents[par], child
        assert not verify_certificate(complex, _with_parents(cert, comp, bad))
        tried += 1
    assert tried


def test_child_promoted_to_root_is_rejected():
    complex, cert, comp = nested_certificate()
    for child, _ in _edges(comp.parents):
        bad = dict(comp.parents)
        bad[child] = None
        assert not verify_certificate(complex, _with_parents(cert, comp, bad))


def test_child_moved_onto_a_sibling_is_rejected():
    complex, cert, comp = nested_certificate()
    tried = 0
    for child, par in _edges(comp.parents):
        for sibling in comp.children(par):
            if sibling == child:
                continue
            bad = dict(comp.parents)
            bad[child] = sibling
            assert not verify_certificate(complex, _with_parents(cert, comp, bad))
            tried += 1
    assert tried


def test_unmutated_certificate_verifies():
    complex, cert, comp = nested_certificate()
    assert verify_certificate(complex, _with_parents(cert, comp, comp.parents))


def test_deep_chain_formats_and_round_trips():
    depth = 3000
    parents = {f"c{i:04d}": (f"c{i - 1:04d}" if i else None) for i in range(depth)}
    cert = NestedCertificate(RotationSystem({}),
                             [ComponentCertificate(("v",), (), parents)])
    lines = format_certificate(cert)
    assert lines[-1] == " " * (6 + 2 * (depth - 1)) + f"c{depth - 1:04d}"
    text = format_verdict(Outerspatial(cert))
    (comp,) = parse_certificate_report(text).components
    assert comp.parents == parents
    assert comp.children("c0000") == ("c0001",)
    assert comp.roots() == ("c0000",)


def test_forest_emission_order_is_depth_first_by_id():
    parents = {"b": None, "a": None, "a2": "a", "a1": "a", "a11": "a1"}
    cert = NestedCertificate(RotationSystem({}),
                             [ComponentCertificate(("v",), (), parents)])
    forest = format_certificate(cert)[-5:]
    assert [line.strip() for line in forest] == ["a", "a1", "a11", "a2", "b"]
    assert [len(line) - len(line.lstrip()) for line in forest] == [6, 8, 10, 8, 6]


def test_crossing_squares_are_the_first_crossing_pair():
    base = gen.bipyramid(4)
    faces = list(base.faces.values())
    faces.append(Face.from_vertices(base.graph, "x1", ("n", "a", "s", "c")))
    faces.append(Face.from_vertices(base.graph, "x2", ("n", "b", "s", "d")))
    complex = TwoComplex(base.graph, faces)
    traced = trace_faces(complex.graph, decide_outerspatial(base).certificate.rotation)
    cycles = {fid: f.edge_set for fid, f in complex.faces.items()}
    expected = reference_nesting(traced, cycles, [0])
    got = nesting_forest(traced, *split_orbit_cycles(traced, cycles))
    assert (got.first, got.second) == expected == ("x1", "x2")


# -- the label walk on families with deep nesting, ties and many components --

def _edge_set(graph, vs):
    return frozenset(graph.edges_between(vs[i], vs[(i + 1) % len(vs)])[0]
                     for i in range(len(vs)))


def tower_family(k):
    """The tower's sphere (caps and quads) traced, with every ring as a cycle."""
    complex = families.tower(k)
    sphere = delete_faces(complex, set(families.tower_cycles(k)) - set(
        families.tower_cycles(k, inner_rings=False)))
    traced = trace_faces(complex.graph, decide_outerspatial(sphere).certificate.rotation)
    return traced, {fid: f.edge_set for fid, f in complex.faces.items()}


def prism_family(seed):
    """A prism's faces, and for small prisms a few random cycles that may cross."""
    rng = random.Random(seed)
    n = rng.randrange(3, 9)
    base = gen.prism(n)
    traced = trace_faces(base.graph, decide_outerspatial(base).certificate.rotation)
    family = {fid: f.edge_set for fid, f in base.faces.items()}
    if n <= 5:
        for vs in rng.sample(gen.all_cycles(base.graph, 6), rng.randrange(0, 4)):
            edges = _edge_set(base.graph, vs)
            if edges not in family.values():
                family[f"c{rng.randrange(10**6):06d}"] = edges
    return traced, family


def star_family(seed):
    """A stacked sphere's triangles plus the neighbour cycles of a few vertices.

    Stars of adjacent centres cross; stars of far-apart ones nest with the
    triangles, like the faces of perfbench's `star_boundary` spheres.
    """
    rng = random.Random(seed)
    complex = families.stacked(seed, rng.randrange(8, 22))
    traced = trace_faces(complex.graph, decide_outerspatial(complex).certificate.rotation)
    family = {fid: f.edge_set for fid, f in complex.faces.items()}
    centres = [v for v in sorted(complex.graph.vertices) if complex.graph.degree(v) >= 4]
    for v in rng.sample(centres, min(len(centres), rng.randrange(1, 4))):
        family[f"s{v}"] = frozenset(
            eid for f in complex.faces.values() if v in f.vertices
            for eid in f.edge_ids if v not in complex.graph.endpoints(eid))
    return traced, family


def _assert_matches_reference(traced, family):
    outer_faces = range(len(traced.orbits)) if len(traced.orbits) <= 60 else [0]
    expected = reference_nesting(traced, family, outer_faces)
    for outer in outer_faces:
        got = nesting_forest(traced, *split_orbit_cycles(traced, family), outer)
        if isinstance(expected, tuple):
            assert isinstance(got, CrossingPair)
            assert (got.first, got.second) == expected
        else:
            assert got == expected[outer]
    return expected


@pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 20])
def test_walk_matches_reference_on_towers(k):
    expected = _assert_matches_reference(*tower_family(k))
    assert families.forest_depth(expected[0]) >= k - 1


@pytest.mark.parametrize("seed", range(30))
def test_walk_matches_reference_on_prisms(seed):
    _assert_matches_reference(*prism_family(seed))


@pytest.mark.parametrize("seed", range(30))
def test_walk_matches_reference_on_star_spheres(seed):
    _assert_matches_reference(*star_family(seed))


def test_reference_families_include_crossings_and_forests():
    kinds = set()
    for seed in range(30):
        for traced, family in (prism_family(seed), star_family(seed)):
            expected = reference_nesting(traced, family, [0])
            kinds.add("crossing" if isinstance(expected, tuple) else "forest")
    assert kinds == {"crossing", "forest"}


# -- the verifier's walk ------------------------------------------------------

def test_parent_map_with_a_cycle_is_rejected():
    complex, cert, comp = nested_certificate()
    child, par = _edges(comp.parents)[0]
    bad = dict(comp.parents)
    bad[par] = child
    assert not verify_certificate(complex, _with_parents(cert, comp, bad))
    loop = dict(comp.parents)
    loop[child] = child
    assert not verify_certificate(complex, _with_parents(cert, comp, loop))


def test_parent_map_with_an_unknown_parent_is_rejected():
    complex, cert, comp = nested_certificate()
    for child in sorted(comp.parents):
        bad = dict(comp.parents)
        bad[child] = "unknown"
        assert not verify_certificate(complex, _with_parents(cert, comp, bad))


def test_parent_map_with_a_missing_face_or_an_extra_id_is_rejected():
    complex, cert, comp = nested_certificate()
    for fid in sorted(comp.parents):
        bad = dict(comp.parents)
        del bad[fid]
        assert not verify_certificate(complex, _with_parents(cert, comp, bad))
    for par in (None, sorted(comp.parents)[0]):
        bad = dict(comp.parents)
        bad["extra"] = par
        assert not verify_certificate(complex, _with_parents(cert, comp, bad))


def test_rotation_with_a_missing_or_an_extra_vertex_is_rejected():
    complex, cert, _ = nested_certificate()
    rotators = {v: cert.rotation.rotator(v) for v in cert.rotation.vertices()}
    missing = dict(rotators)
    del missing[min(missing)]
    for bad in (missing, {**rotators, "extra": ()}):
        forged = NestedCertificate(RotationSystem(bad), cert.components)
        assert not verify_certificate(complex, forged)


def test_wrong_outer_orbit_is_rejected():
    complex, cert, comp = nested_certificate()
    (part,) = complex.graph.component_index()[1]
    traced = trace_faces(part, cert.rotation)
    others = [orbit for orbit in traced.orbits
              if embedding._normalize_cycle(orbit) != comp.outer_darts]
    assert others
    for orbit in others:
        bad = NestedCertificate(cert.rotation, [ComponentCertificate(
            comp.vertices, embedding._normalize_cycle(orbit), comp.parents)])
        assert not verify_certificate(complex, bad)
    for darts in ((("nope", 0),), comp.outer_darts[:-1], comp.outer_darts + comp.outer_darts):
        bad = NestedCertificate(cert.rotation, [ComponentCertificate(
            comp.vertices, darts, comp.parents)])
        assert not verify_certificate(complex, bad)


@pytest.mark.parametrize("build", [lambda: gen.bipyramid_with_equator(5),
                                   lambda: gen.bipyramid_with_equator(8),
                                   lambda: families.tower(5)])
def test_every_single_parent_mutation_is_rejected(build):
    complex = build()
    cert = decide_outerspatial(complex).certificate
    (comp,) = cert.components
    tried = 0
    for child in sorted(comp.parents):
        for par in [None, *sorted(comp.parents)]:
            if par == comp.parents[child]:
                continue
            bad = dict(comp.parents)
            bad[child] = par
            assert not verify_certificate(complex, _with_parents(cert, comp, bad))
            tried += 1
    assert tried == len(comp.parents) ** 2


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_enclosing_face_listed_below_a_face_it_encloses_is_rejected(n):
    # The equator and one of its children are entered across one shared
    # edge, so this forgery passes every label step until the walk leaves
    # the child while the equator is still on the chain below it.
    complex = gen.bipyramid_with_equator(n)
    cert = decide_outerspatial(complex).certificate
    (comp,) = cert.components
    kids = comp.children("eq")
    assert kids
    for top in kids:
        bad = dict(comp.parents)
        bad["eq"], bad[top] = top, comp.parents["eq"]
        for kid in kids:
            if kid != top:
                bad[kid] = comp.parents["eq"]
        assert not verify_certificate(complex, _with_parents(cert, comp, bad))
