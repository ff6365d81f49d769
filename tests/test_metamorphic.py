"""Metamorphic properties of `decide` on complexes of 50 or more vertices.

The oracle cannot reach these sizes, so the verdicts are checked against
each other.  The instances are the benchmark's `stacked`, `chordal` and
`obstruct` cases.  `instances.render` names every id `<tag><index>`, so
rendering instances under distinct tags and joining the texts gives their
disjoint union.  Tags are uppercase: no other text of a verdict report
holds them, so a report can be mapped from one tag to another by
substitution.  A random one-to-one renaming of the ids keeps the verdict
kind but not the bytes: reports list ids in sort order, and a sphere's
sense is read off its faces in that order, so it may come out as the
mirror image.

An obstruction of a complex re-verifies in every complex that contains
it: outerspatiality is closed under deleting faces, and a minor of a
contracted link or a closed surface of faces stays where it was when
faces are added.  The larger complexes here add triangle fins, each on an
edge of the obstructed complex and a new vertex, beside a large positive.
Conversely, deleting faces from a large positive, or contracting a few of
its edges, never gives a not-outerspatial verdict: the result leaves the
hypothesis or is outerspatial.  And inserting a vertex into a triangle
never gives an outerspatial verdict on a negative: the three new triangles
make up the old one, so the old cone lies in the new cone and an embedding
of the new one restricts to one of the old.  Only that direction holds.
"""

import functools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import families
from outerspatial import generators as gen
from outerspatial.complexes import (Face, Path, TwoComplex, contract_path,
                                    contracted_vertex_name, delete_faces, link_cycles, validate)
from outerspatial.decider import (NotOuterspatial, Outerspatial, decide_outerspatial,
                                  verify_certificate, verify_obstruction)
from outerspatial.fileformat import format_verdict, parse_complex

instances, workloads = families.perfbench_modules()
SEED = 3
LARGE = [x for w in ("stacked", "chordal") for x in workloads.instances(w, SEED)
         if len(x.vertices) >= 50]
OBSTRUCT = workloads.instances("obstruct", SEED)
# Every obstruct instance beside a large positive, large positives side by
# side, and the two largest obstructions together.
UNIONS = ([(y, LARGE[i % len(LARGE)]) for i, y in enumerate(OBSTRUCT)]
          + list(zip(LARGE[::2], LARGE[1::2]))
          + [tuple(sorted(OBSTRUCT, key=lambda x: len(x.vertices))[-2:])])
# Every obstruct instance of seeds 1-5 with the large positive it is placed beside.
FINNED = [(seed, x, LARGE[i % len(LARGE)]) for seed in range(1, 6)
          for i, x in enumerate(workloads.instances("obstruct", seed))]


def _name(parts):
    return "+".join(x.name for x in parts)


def _text(parts, tag):
    return "".join(instances.render(x, f"{tag}{chr(ord('A') + i)}") for i, x in enumerate(parts))


def _report(parts, tag):
    return format_verdict(decide_outerspatial(parse_complex(_text(parts, tag))))


def test_every_case_has_fifty_vertices_and_both_verdicts_occur():
    cases = [(x,) for x in LARGE] + UNIONS
    assert all(sum(len(x.vertices) for x in parts) >= 50 for parts in cases)
    expects = {x.expect for parts in UNIONS for x in parts}
    assert expects == {instances.POSITIVE, instances.NEGATIVE}


@pytest.mark.parametrize("parts", [(x,) for x in LARGE] + UNIONS, ids=_name)
def test_another_tag_gives_the_same_bytes(parts):
    assert _report(parts, "QX").replace("QX", "ZJ") == _report(parts, "ZJ")


@pytest.mark.parametrize("parts", UNIONS, ids=_name)
def test_disjoint_union_is_outerspatial_exactly_when_both_parts_are(parts):
    alone = [decide_outerspatial(parse_complex(instances.render(x, "QX"))) for x in parts]
    assert [isinstance(v, Outerspatial) for v in alone] == \
        [x.expect == instances.POSITIVE for x in parts]
    union = _report(parts, "QX")
    assert union.startswith("verdict: outerspatial\n") == all(
        isinstance(v, Outerspatial) for v in alone)


def _renamed(text, rng):
    """The text with its ids mapped one-to-one onto names in a random sort order."""
    ids = sorted(set(re.findall(r"\bQX[A-Z]\d+\b", text)))
    names = dict(zip(ids, (f"R{k:06d}" for k in rng.sample(range(10 ** 6), len(ids)))))
    return re.sub(r"\bQX[A-Z]\d+\b", lambda m: names[m.group()], text)


@pytest.mark.parametrize("parts", [(x,) for x in LARGE] + UNIONS, ids=_name)
def test_random_renaming_keeps_the_verdict_kind(parts):
    text = _text(parts, "QX")
    kind = type(decide_outerspatial(parse_complex(text)))
    rng = random.Random(f"{SEED}:{_name(parts)}")
    for _ in range(2):
        complex = parse_complex(_renamed(text, rng))
        verdict = decide_outerspatial(complex)
        assert type(verdict) is kind
        if isinstance(verdict, Outerspatial):
            assert verify_certificate(complex, verdict.certificate)
        else:
            assert isinstance(verdict, NotOuterspatial)
            assert verify_obstruction(complex, verdict.obstruction)


def _with_fins(text, rng):
    """The complex text plus five triangle fins, each on one of its edges and a new vertex."""
    graph = parse_complex(text).graph
    lines = []
    for i, eid in enumerate(rng.sample(list(graph.edges), 5)):
        u, v = graph.endpoints(eid)
        w = f"FN{i}"
        lines += [f"vertex {w}", f"edge {w}u {u} {w}", f"edge {w}v {v} {w}",
                  f"face {w}f {u} {v} {w}"]
    return text + "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed, part, beside", FINNED,
                         ids=[f"{seed}-{x.name}" for seed, x, _ in FINNED])
def test_an_obstruction_reverifies_in_a_larger_complex(seed, part, beside):
    text = instances.render(part, "QXA")
    verdict = decide_outerspatial(parse_complex(text))
    assert isinstance(verdict, NotOuterspatial)
    larger = parse_complex(_with_fins(text, random.Random(f"{seed}:{part.name}"))
                           + instances.render(beside, "QXB"))
    assert len(larger.graph.vertices) >= 50
    assert verify_obstruction(larger, verdict.obstruction)
    assert isinstance(decide_outerspatial(larger), NotOuterspatial)


@functools.cache
def _positives():
    """The large positives, the outerspatial tower of depth 20 and a stacked sphere on 60 vertices."""
    return (*(parse_complex(instances.render(x, "QX")) for x in LARGE),
            families.tower(20), families.stacked(5, 60))


def test_the_deletion_cases_are_large_positives():
    assert all(x.expect == instances.POSITIVE for x in LARGE)
    assert len(_positives()) == 12
    assert all(len(c.graph.vertices) >= 50 for c in _positives())
    assert all(isinstance(decide_outerspatial(c), Outerspatial) for c in _positives()[-2:])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_deleting_faces_never_gives_not_outerspatial(data):
    """One face, a few, most or all of them deleted from a large positive."""
    complex = data.draw(st.sampled_from(_positives()))
    fids = sorted(complex.faces)
    n = len(fids)
    count = data.draw(st.one_of(st.just(1), st.integers(2, 5),
                                st.integers(n // 2, n - 1), st.just(n)))
    rng = data.draw(st.randoms(use_true_random=False))
    kept = delete_faces(complex, rng.sample(fids, count))
    assert len(kept.faces) == n - count
    verdict = decide_outerspatial(kept)
    assert not isinstance(verdict, NotOuterspatial)
    if isinstance(verdict, Outerspatial):
        assert verify_certificate(kept, verdict.certificate)


@functools.cache
def _contraction_cases():
    """A prism on 60 vertices, the outerspatial tower of depth 20 and a star-boundary sphere on 60."""
    star = instances.star_boundary(random.Random(SEED), 60, 3)
    return gen.prism(30), families.tower(20), parse_complex(instances.render(star, "QX"))


def test_the_contraction_cases_are_large_positives():
    """Contracting a rung of the tower leaves a simple complex in which the merged
    vertex's link is not one cycle, so `decide` builds and tests that link."""
    assert all(len(c.graph.vertices) >= 50 for c in _contraction_cases())
    assert all(isinstance(decide_outerspatial(c), Outerspatial) for c in _contraction_cases())
    tower = _contraction_cases()[1]
    path = families.path_along(tower.graph, ("a00", "a01"))
    contracted = contract_path(tower, path)
    assert validate(contracted) == []
    merged = contracted_vertex_name(path, tower.graph.vertices)
    assert merged not in link_cycles(contracted)
    assert isinstance(decide_outerspatial(contracted), Outerspatial)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_contracting_edges_never_gives_not_outerspatial(data):
    """One edge, or two to four one after another, contracted in a large positive; a
    draw ends where `validate` refuses the result, as it does on every edge of a triangle."""
    complex = data.draw(st.sampled_from(_contraction_cases()))
    count = data.draw(st.one_of(st.just(1), st.integers(2, 4)))
    rng = data.draw(st.randoms(use_true_random=False))
    for _ in range(count):
        eid = rng.choice(sorted(complex.graph.edges))
        complex = contract_path(complex, Path(complex.graph.endpoints(eid), (eid,)))
        if validate(complex):
            return
    verdict = decide_outerspatial(complex)
    assert not isinstance(verdict, NotOuterspatial)
    if isinstance(verdict, Outerspatial):
        assert verify_certificate(complex, verdict.certificate)


def _crossing_sphere(seed, n):
    """A stacked sphere plus the neighbour cycles of two adjacent vertices as faces,
    which cross; as cycles on the sphere they are the late crossing pair of
    `test_sphere_scale`."""
    sphere = families.stacked(seed, n)
    g = sphere.graph

    def star(v):
        ring = {}
        for f in sphere.faces.values():
            if v in f.vertices:
                a, b = (x for x in f.vertices if x != v)
                ring.setdefault(a, []).append(b)
                ring.setdefault(b, []).append(a)
        cycle = [min(ring)]
        while len(cycle) < len(ring):
            cycle.append(next(x for x in ring[cycle[-1]] if x not in cycle[-2:]))
        return cycle

    u = max(sorted(g.vertices), key=g.degree)
    stars = [Face.from_vertices(g, fid, star(v)) for fid, v in (("zz1", u), ("zz2", min(g.neighbors(u))))]
    return TwoComplex(g, [*sphere.faces.values(), *stars])


def _crossing_squares():
    """The square bipyramid with both diagonal squares as faces; the squares cross."""
    base = gen.bipyramid(4)
    squares = [Face.from_vertices(base.graph, fid, vs)
               for fid, vs in (("x1", ("n", "a", "s", "c")), ("x2", ("n", "b", "s", "d")))]
    return TwoComplex(base.graph, [*base.faces.values(), *squares])


NEGATIVES = {
    "torus7": gen.torus7,
    "cone-k4": lambda: gen.cone_over_graph(gen.named_graph("k4")),
    "cone-k23": lambda: gen.cone_over_graph(gen.named_graph("k23")),
    "crossing-stars": lambda: _crossing_sphere(5, 20),
    "crossing-squares": _crossing_squares,
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(NEGATIVES))
def test_inserting_vertices_never_gives_outerspatial(name, seed):
    """240 vertices stacked one by one into random triangles of a negative, with
    a verdict after every 40th: none is outerspatial, and each obstruction
    re-verifies."""
    complex = NEGATIVES[name]()
    rng = random.Random(f"{seed}:{name}")
    kinds = []
    for k in range(240):
        triangles = sorted(fid for fid, f in complex.faces.items() if len(f) == 3)
        complex = gen.insert_vertex(complex, rng.choice(triangles), f"in{k:03d}")
        if k % 40 == 39:
            verdict = decide_outerspatial(complex)
            assert not isinstance(verdict, Outerspatial)
            if isinstance(verdict, NotOuterspatial):
                assert verify_obstruction(complex, verdict.obstruction)
            kinds.append(verdict.kind)
    assert len(complex.graph.vertices) > 240 and "not-outerspatial" in kinds
