"""The certificate verifier's own walk.

`decider.verify_certificate` checks each component's rotators in one pass,
which also maps each half-edge to the next one round its vertex, and
traces each orbit when its label walk first reaches it.  It answers as
`families.reference_verify_certificate`, which traced with `trace_faces`
and walked the orbits a second time, on decided certificates and on
mutants of them, and it reaches its answer while the builder's tracer and
nesting forest are patched to raise.
"""

import json
import random

from outerspatial import complexes, decider, embedding, oracle, surface, verdicts
from outerspatial.decider import Outerspatial, decide_outerspatial, verify_certificate
from outerspatial.fileformat import parse_complex
from outerspatial.verdicts import ComponentCertificate, NestedCertificate, RotationSystem

import families
from test_decider import GOLDEN, _sphere_route_complexes, fallback_triangle_complexes


def _with_component(certificate, i, comp):
    comps = list(certificate.components)
    comps[i] = comp
    return NestedCertificate(certificate.rotation, comps)


def _with_rotators(certificate, changed):
    rotation = certificate.rotation
    rotators = {v: rotation.rotator(v) for v in rotation.vertices()}
    rotators.update(changed)
    return NestedCertificate(RotationSystem(rotators), certificate.components)


def _with_parents(certificate, i, changed):
    comp = certificate.components[i]
    return _with_component(certificate, i, ComponentCertificate(
        comp.vertices, comp.outer_darts, {**comp.parents, **changed}))


def mutants(complex, certificate, rng):
    """(kind, certificate) for each kind of mutant that applies, drawn by `rng`."""
    out = []
    comps = certificate.components
    faced = [i for i, comp in enumerate(comps) if comp.parents]
    if faced:
        i = rng.choice(faced)
        parents = comps[i].parents
        c = rng.choice(sorted(parents))
        others = [p for p in [None, *sorted(parents)] if p not in (c, parents[c])]
        if others:
            out.append(("parent re-pointed", _with_parents(certificate, i, {c: rng.choice(others)})))
        if len(parents) >= 2:
            a, b = rng.sample(sorted(parents), 2)
            out.append(("two parents in a cycle", _with_parents(certificate, i, {a: b, b: a})))
    edged = [i for i, comp in enumerate(comps) if len(comp.outer_darts) >= 2]
    if edged:
        i = rng.choice(edged)
        comp = comps[i]
        rotated = ComponentCertificate(comp.vertices, comp.outer_darts, comp.parents)
        rotated.outer_darts = comp.outer_darts[1:] + comp.outer_darts[:1]  # not normalised back
        out.append(("outer orbit rotated", _with_component(certificate, i, rotated)))
        out.append(("outer orbit reversed", _with_component(certificate, i, ComponentCertificate(
            comp.vertices, comp.outer_darts[::-1], comp.parents))))
    rotation = certificate.rotation
    vertices = sorted(rotation.vertices())
    wide = [v for v in vertices if len(rotation.rotator(v)) >= 3]
    if wide:
        v = rng.choice(wide)
        cyc = list(rotation.rotator(v))
        a, b = rng.sample(range(len(cyc)), 2)
        cyc[a], cyc[b] = cyc[b], cyc[a]
        out.append(("two half-edges swapped", _with_rotators(certificate, {v: cyc})))
    listed = [v for v in vertices if rotation.rotator(v)]
    if listed:
        v = rng.choice(listed)
        cyc = list(rotation.rotator(v))
        k = rng.randrange(len(cyc))
        out.append(("half-edge dropped", _with_rotators(certificate, {v: cyc[:k] + cyc[k + 1:]})))
        out.append(("half-edge repeated", _with_rotators(certificate, {v: cyc[:k + 1] + cyc[k:]})))
    graph = complex.graph
    proper = [e for e, (u, w) in graph.edges.items() if u != w]
    if proper:
        e = rng.choice(proper)
        u, w = graph.endpoints(e)
        at_u, at_w = rotation.rotator(u), list(rotation.rotator(w))
        # (e, 0) listed at w, next to (e, 1), instead of at u.
        k = at_w.index((e, 1)) + 1
        out.append(("half-edge moved to its wrong end", _with_rotators(certificate, {
            u: [h for h in at_u if h != (e, 0)], w: at_w[:k] + [(e, 0)] + at_w[k:]})))
        # Each half-edge of e listed at the other's end.
        swap = {(e, 0): (e, 1), (e, 1): (e, 0)}
        out.append(("half-edges listed at each other's end", _with_rotators(certificate, {
            u: [swap.get(h, h) for h in at_u], w: [swap.get(h, h) for h in at_w]})))
    if comps:
        i = rng.randrange(len(comps))
        out.append(("component certificate dropped",
                    NestedCertificate(rotation, comps[:i] + comps[i + 1:])))
    return out


def _positives(complexes):
    out = []
    for name, complex in complexes:
        verdict = decide_outerspatial(complex)
        if isinstance(verdict, Outerspatial):
            out.append((name, complex, verdict.certificate))
    return out


def test_the_walk_answers_as_the_reference_on_certificates_and_mutants(random_corpus):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    cases = [(case, parse_complex((GOLDEN / f"{case}.complex").read_text()))
             for case in sorted(codes) if codes[case]["decide"] == 0]
    cases += [("tower", families.tower(9)), ("tetrahedra", families.disjoint_tetrahedra(4)),
              ("stacked", families.stacked(7, 90))]
    cases += [(f"random_complex({s})", complex) for s, complex in enumerate(random_corpus[:300])]
    positives = _positives(cases)
    assert len(positives) > 300
    refused = {}
    for k, (name, complex, certificate) in enumerate(positives):
        assert verify_certificate(complex, certificate), name
        assert families.reference_verify_certificate(complex, certificate), name
        for kind, mutant in mutants(complex, certificate, random.Random(k)):
            got = verify_certificate(complex, mutant)
            assert got == families.reference_verify_certificate(complex, mutant), (name, kind)
            refused[kind] = refused.get(kind, 0) + (not got)
    assert len(refused) == 10 and all(refused.values()), refused


def test_the_walk_calls_no_tracer_or_forest_of_the_builder(monkeypatch):
    cases = _sphere_route_complexes()
    cases += [(f"fallback {i}", complex) for i, complex in enumerate(fallback_triangle_complexes())]
    positives = _positives(cases)
    assert len(positives) == len(cases)
    # The reference traces with the builder's tracer, so it answers first.
    expected = [[(kind, mutant, families.reference_verify_certificate(complex, mutant))
                 for kind, mutant in mutants(complex, certificate, random.Random(k))]
                for k, (_, complex, certificate) in enumerate(positives)]

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier called builder code")

    for name in ("trace_faces", "_trace_orbits", "TracedFaces", "nesting_forest",
                 "split_orbit_cycles"):
        for module in (complexes, decider, embedding, oracle, surface, verdicts):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(RotationSystem, "validate_for", refuse)
    for (name, complex, certificate), answers in zip(positives, expected):
        assert verify_certificate(complex, certificate), name
        for kind, mutant, answer in answers:
            assert verify_certificate(complex, mutant) == answer, (name, kind)
