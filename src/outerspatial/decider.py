"""The outerspatial decision pipeline.

Verdicts are sound by construction: positive answers carry a nested sphere
embedding certificate (a genus-zero rotation system plus a laminar forest
over all face boundaries) and negative answers carry an obstruction that
re-verifies structurally — a contracted link with a K4 or K2,3 minor, or a
face subset forming a closed surface with Euler characteristic other than
two.  Hypothesis-violated is reserved for inputs on which neither sound
answer was established.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .complexes import (Graph, LinkGraph, Path, TwoComplex, associated_complex,
                        contract_path, contracted_vertex_name, delete_faces,
                        face_subcomplex, link_graph, skeleton, split_components,
                        validate)
# `nesting_forest` is called from `verdicts` only; the benchmark's tracer
# test still reads it as `decider.nesting_forest`.
from .embedding import (CrossingPair, OuterplanarityResult, PlanarityResult,
                        RotationSystem, TracedFaces, cycle_sides, find_minor,
                        is_2_connected, nesting_forest, test_outerplanar,
                        test_planar, trace_faces, verify_minor_witness,
                        _normalize_cycle)
from .oracle import DEFAULT_CAP, CapExceededError, brute_force_nested
from .surface import (SearchBudgetExceeded, SurfaceClass, classify_component,
                      euler_characteristic, search_aspherical_subcomplex, _orient_faces)
from .verdicts import (AsphericalSubcomplex, ComponentCertificate,
                       ExhaustiveFailure, HypothesisViolated, LinkViolation,
                       NestedCertificate, NonOuterplanarLink, NotOuterspatial,
                       Obstruction, Outerspatial, Verdict, component_certificate)

# Nodes the salvage search may visit; it finishes within this on every input
# of at most 20 faces (see `surface._closed_face_sets`).
ASPHERICAL_SEARCH_BUDGET = 2 ** 20


class LinkInfo:
    def __init__(self, link: LinkGraph, outerplanarity: OuterplanarityResult):
        self.link = link
        self.outerplanarity = outerplanarity

    @property
    def is_2_outerplane(self) -> bool:
        # `test_outerplanar` reports a Hamilton boundary exactly for
        # outerplanar links that are 2-connected and simple.
        return self.outerplanarity.boundary is not None

    def violation(self) -> str | None:
        """Why the link is not a 2-connected simple graph; None when it is."""
        if self.is_2_outerplane:
            return None
        if not self.link.graph.is_simple():
            return "link graph is not simple"
        # A simple outerplanar link without a Hamilton boundary is not 2-connected.
        if self.outerplanarity.outerplanar or not is_2_connected(self.link.graph):
            return "link graph is not 2-connected"
        return None


def _link_structures(complex: TwoComplex) -> dict[str, LinkInfo]:
    """Every link with its outerplanarity: the one per-vertex pass over links."""
    out: dict[str, LinkInfo] = {}
    for v in sorted(complex.graph.vertices):
        lg = link_graph(complex, v)
        out[v] = LinkInfo(lg, test_outerplanar(lg.graph))
    return out


def is_locally_2_connected(complex: TwoComplex) -> bool:
    """Every link graph is a 2-connected simple graph."""
    return all(info.violation() is None for info in _link_structures(complex).values())


def find_chordal_faces(complex: TwoComplex,
                       structures: Mapping[str, LinkInfo] | None = None) -> dict[str, frozenset[str]]:
    """Faces that are chords in some link, with the vertices where they are chords."""
    structures = structures if structures is not None else _link_structures(complex)
    out: dict[str, set[str]] = {}
    for v in sorted(structures):
        info = structures[v]
        if not info.is_2_outerplane:
            raise ValueError(f"link at {v} is not 2-connected simple outerplanar")
        for link_edge in sorted(info.outerplanarity.chords):
            fid = info.link.edge_face[link_edge]
            out.setdefault(fid, set()).add(v)
    return {fid: frozenset(vs) for fid, vs in sorted(out.items())}


def check_perfectly_chordal(complex: TwoComplex, face_id: str,
                            structures: Mapping[str, LinkInfo] | None = None,
                            chordal: Mapping[str, frozenset[str]] | None = None):
    """True when the face is a chord at every endvertex.

    Otherwise walks the boundary to the first edge whose tail has the face as
    a chord and whose head does not; contracting that edge produces a link
    with a K2,3 minor, returned as a NonOuterplanarLink.
    """
    structures = structures if structures is not None else _link_structures(complex)
    chordal = chordal if chordal is not None else find_chordal_faces(complex, structures)
    if face_id not in chordal:
        raise ValueError(f"face {face_id} is not chordal at any vertex")
    face = complex.face(face_id)
    chord_at = chordal[face_id]
    if set(face.vertices) <= chord_at:
        return True
    vs = face.vertices
    k = len(vs)
    for i in range(k):
        u, x = vs[i], vs[(i + 1) % k]
        if u in chord_at and x not in chord_at:
            edge_id = face.steps[i][1]
            path = Path((u, x), (edge_id,))
            contracted = contract_path(complex, path)
            merged = contracted_vertex_name(path, complex.graph.vertices)
            link = link_graph(contracted, merged)
            witness = find_minor(link.graph, "K2,3")
            if witness is None:
                raise AssertionError("imperfectly chordal face without K2,3 in the merged link")
            return NonOuterplanarLink(path, link, witness)
    raise AssertionError("chordal face with no chord-to-nonchord transition")


def _sphere_rotation_from_links(component: TwoComplex,
                                orientation: Mapping[str, int] | None = None) -> RotationSystem:
    """Rotators of a closed sphere component read off its face structure.

    Faces are first directed coherently (possible exactly on orientable
    components), unless a coherent `orientation` is given; consecutive darts
    within directed faces then define the cyclic order at every vertex.
    """
    if orientation is None:
        orientation = _orient_faces(component)
    if orientation is None:
        raise AssertionError("sphere component admits no coherent orientation")
    succ: dict[str, dict] = {v: {} for v in component.graph.vertices}
    g = component.graph
    for fid in sorted(component.face_ids()):
        f = component.face(fid)
        darts = [(e, o) for _, e, o in f.steps]
        if orientation[fid]:
            darts = [(e, 1 - o) for e, o in reversed(darts)]
        k = len(darts)
        for i, (e, o) in enumerate(darts):
            head = g.endpoints(e)[1 - o]
            succ[head][(e, 1 - o)] = darts[(i + 1) % k]
    rotators = {}
    for v in sorted(g.vertices):
        half = g.half_edges_at(v)
        if not half:
            rotators[v] = ()
            continue
        start = half[0]
        cyc = [start]
        cur = succ[v][start]
        while cur != start:
            cyc.append(cur)
            cur = succ[v][cur]
        if len(cyc) != len(half):
            raise AssertionError(f"link at {v} did not close into a single rotator")
        rotators[v] = tuple(cyc)
    return RotationSystem(rotators)


def build_certificate(graph: Graph, cycles: Mapping[str, frozenset[str]],
                      planarity: PlanarityResult) -> NestedCertificate | CrossingPair:
    """Assemble a certificate from the genus-zero tracings of a planar graph.

    `planarity` is `test_planar(graph)`, traced in the order of the graph's
    component index; each cycle goes to the component of its smallest edge.
    """
    comp_of = graph.component_index()[0]
    buckets: list[dict[str, frozenset[str]]] = [{} for _ in planarity.traced]
    for cid, es in cycles.items():
        buckets[comp_of[graph.endpoints(min(es))[0]]][cid] = es
    comps = []
    for traced, comp_cycles in zip(planarity.traced, buckets):
        got = component_certificate(traced, comp_cycles)
        if isinstance(got, CrossingPair):
            return got
        comps.append(got)
    return NestedCertificate(planarity.rotation, comps)


def _within_euler_bound(graph: Graph) -> bool:
    """False when the simple underlying graph has n >= 3 vertices and more than 3n - 6 edges.

    No planar graph does (Euler), so a graph refused here needs no
    planarity test.  The raw edge count settles the common case; distinct
    vertex pairs are counted only above it.
    """
    n = len(graph.vertices)
    bound = 3 * n - 6
    if n < 3 or graph.edge_count() <= bound:
        return True
    pairs = {frozenset(graph.endpoints(eid)) for eid in graph.edge_ids()
             if not graph.is_loop(eid)}
    return len(pairs) <= bound


def decide_outerspatial(complex: TwoComplex, *, fast_path: bool = True) -> Verdict:
    """Decide outerspatiality with a checkable certificate or obstruction.

    Pipeline: triangle fast path; per-vertex link checks (a non-outerplanar
    link is an immediate sound obstruction); perfect chordality of chordal
    faces; deletion of chordal faces must leave spheres, else an aspherical
    subcomplex; finally a nesting forest over all boundaries in the sphere
    embedding read off the remaining faces.

    Components without faces are settled by planarity alone.  When link
    checks fail, a direct aspherical-subcomplex search still runs (sound
    regardless of the hypothesis); only if that finds nothing, or runs out
    of its node budget (stated in a note), is HypothesisViolated returned.
    Every verdict is re-verified before it is handed out.
    """
    problems = validate(complex)
    if problems:
        raise ValueError(f"input complex is not validated: {problems[0].message}")

    faces = complex.faces
    if (fast_path and all(len(f) == 3 for f in faces.values())
            and _within_euler_bound(complex.graph)):
        planarity = test_planar(complex.graph)
        if planarity.is_planar:
            cycles = {fid: f.edge_set for fid, f in faces.items()}
            cert = build_certificate(complex.graph, cycles, planarity)
            if isinstance(cert, CrossingPair):
                raise AssertionError("triangles crossed in a plane embedding")
            verdict = Outerspatial(cert)
            _self_check(complex, verdict)
            return verdict

    violations: list[LinkViolation] = []
    notes: list[str] = []
    certificates: list[ComponentCertificate] = []
    rotation_parts: dict = {}
    decided_all = True

    for comp in split_components(complex):
        if not comp.faces:
            planarity = test_planar(comp.graph)
            if planarity.is_planar:
                cycles: dict[str, frozenset[str]] = {}
                cert = build_certificate(comp.graph, cycles, planarity)
                certificates.extend(cert.components)
                for v in comp.graph.vertices:
                    rotation_parts[v] = planarity.rotation.rotator(v)
            else:
                decided_all = False
                notes.append(
                    "a component with no faces has a non-planar skeleton; "
                    "not outerspatial, but no obstruction of the supported kinds exists")
            continue

        outcome = _decide_component(complex, comp, violations)
        if isinstance(outcome, NotOuterspatial):
            _self_check(complex, outcome)
            return outcome
        if outcome is None:
            decided_all = False
            continue
        comp_rotation, comp_certs = outcome
        certificates.extend(comp_certs)
        for v in comp.graph.vertices:
            rotation_parts[v] = comp_rotation.rotator(v)

    if decided_all and not violations:
        verdict = Outerspatial(NestedCertificate(RotationSystem(rotation_parts), certificates))
        _self_check(complex, verdict)
        return verdict

    # Salvage: an aspherical subcomplex is a sound obstruction regardless of
    # the hypothesis; search for one within the node budget.
    try:
        found = search_aspherical_subcomplex(complex, ASPHERICAL_SEARCH_BUDGET)
    except SearchBudgetExceeded as exc:
        notes.append(f"aspherical-subcomplex search stopped after {exc.nodes} "
                     f"nodes, its budget of {exc.budget}")
        return HypothesisViolated(violations, notes)
    if found is not None:
        face_ids, sclass = found
        verdict = NotOuterspatial(AsphericalSubcomplex(face_ids, sclass))
        _self_check(complex, verdict)
        return verdict
    return HypothesisViolated(violations, notes)


def _decide_component(complex: TwoComplex, comp: TwoComplex,
                      violations: list[LinkViolation]):
    """Steps 1-5 on one component.

    Returns NotOuterspatial, or (rotation, component certificates) on
    success, or None when hypothesis violations block a sound verdict.
    """
    structures = _link_structures(comp)
    blocked = []
    for v in sorted(structures):
        info = structures[v]
        if not info.outerplanarity.outerplanar:
            path = Path((v,), ())
            return NotOuterspatial(
                NonOuterplanarLink(path, info.link, info.outerplanarity.witness))
        reason = info.violation()
        if reason is not None:
            blocked.append(LinkViolation(v, reason))
    if blocked:
        violations.extend(blocked)
        return None

    chordal = find_chordal_faces(comp, structures)
    for fid in sorted(chordal):
        got = check_perfectly_chordal(comp, fid, structures, chordal)
        if isinstance(got, NonOuterplanarLink):
            return NotOuterspatial(got)

    # Every chordal face is a chord at each of its vertices, so deleting them
    # leaves each vertex its Hamilton boundary as link: a closed surface.
    for v, info in structures.items():
        kept = {le for le, fid in info.link.edge_face.items() if fid not in chordal}
        if kept != info.outerplanarity.boundary_edges:
            raise AssertionError("chord-free remainder is not a closed surface")
    remainder = delete_faces(comp, set(chordal))
    orientation = _orient_faces(remainder)
    sclass = SurfaceClass(True, euler_characteristic(remainder), orientation is not None)
    if not sclass.is_sphere:
        return NotOuterspatial(
            AsphericalSubcomplex(frozenset(remainder.face_ids()), sclass))

    rotation = _sphere_rotation_from_links(remainder, orientation)
    traced = trace_faces(comp.graph, rotation)
    if traced.genus != 0 or len(traced.orbits) != len(remainder.faces):
        raise AssertionError("sphere rotators traced inconsistently")

    cycles = {fid: f.edge_set for fid, f in comp.faces.items()}
    got = component_certificate(traced, cycles)
    if isinstance(got, CrossingPair):
        return _crossing_obstruction(complex, comp, traced, got)
    return rotation, [got]


def _crossing_obstruction(complex: TwoComplex, comp: TwoComplex,
                          traced: TracedFaces, pair: CrossingPair) -> NotOuterspatial:
    """Derive the bad path from a crossing pair of face boundaries.

    A minimal subpath of the second boundary runs from one side of the first
    to the other; contracting it (minus its end edges) merges the crossing
    into one vertex whose link holds a cycle with two non-parallel chords,
    hence a K4 minor.
    """
    c1 = comp.face(pair.first)
    c2 = comp.face(pair.second)
    side_a, _ = cycle_sides(traced, c1.edge_set)

    def edge_side(eid: str) -> int | None:
        if eid in c1.edge_set:
            return None
        return 0 if traced.orbit_index_of((eid, 0)) in side_a else 1

    steps = c2.steps
    k = len(steps)
    for i in range(k):
        s_i = edge_side(steps[i][1])
        if s_i is None:
            continue
        j = i + 1
        while j - i < k and edge_side(steps[j % k][1]) is None:
            j += 1
        if j - i >= k:
            break
        if edge_side(steps[j % k][1]) == s_i:
            continue
        inner_vertices = tuple(steps[(i + 1 + t) % k][0] for t in range(j - i))
        inner_edges = tuple(steps[(i + 1 + t) % k][1] for t in range(j - i - 1))
        path = Path(inner_vertices, inner_edges)
        contracted = contract_path(complex, path)
        merged = contracted_vertex_name(path, complex.graph.vertices)
        link = link_graph(contracted, merged)
        witness = find_minor(link.graph, "K4")
        if witness is None:
            raise AssertionError("crossing boundaries without K4 in the merged link")
        return NotOuterspatial(NonOuterplanarLink(path, link, witness))
    raise AssertionError("crossing pair admits no transversal subpath")


def decide_nested_plane(graph: Graph,
                        cycles: Mapping[str, Iterable[str]] | Iterable[tuple[str, Iterable[str]]],
                        *, cap: int | None = None) -> Verdict:
    """Decide existence of a nested plane embedding for a graph and cycle set.

    Reduces to the associated complex; on a hypothesis-violated outcome falls
    back to exhaustive embedding search when the instance is within the cap.
    """
    complex = associated_complex(graph, cycles)
    verdict = decide_outerspatial(complex)
    if not isinstance(verdict, HypothesisViolated):
        return verdict
    cap = DEFAULT_CAP if cap is None else cap
    cycle_sets = {fid: f.edge_set for fid, f in complex.faces.items()}
    try:
        outcome = brute_force_nested(graph, cycle_sets, cap=cap)
    except CapExceededError as exc:
        return HypothesisViolated(verdict.violations,
                                  verdict.notes + (f"oracle fallback refused: {exc}",))
    if isinstance(outcome, NestedCertificate):
        return Outerspatial(outcome)
    return NotOuterspatial(outcome)


def verify_certificate(complex: TwoComplex, certificate: NestedCertificate) -> bool:
    """Independent certificate check: a re-trace and a label walk over each claimed forest.

    Shape: the rotation system lists the half-edges at every vertex; each
    component of the graph has exactly one certificate, re-traces to genus
    zero and has the claimed outer orbit.  Every face is a genuine cycle,
    no two with one edge set.  Each parent map names exactly the faces of
    its component and is a forest: every walk up from a face reaches a
    root without leaving the map or repeating, which gives the depths.

    Walk: breadth first from the outer orbit, labelled none, each newly
    reached orbit y gets a forest node as label from the orbit x it is
    reached from over an edge e.  Let C be the faces whose boundary uses e.
    From x's label, walk up the chain (the label and its ancestors) while
    the node is in C; the rest of C, by depth, must then continue downwards
    from where the walk stopped, and the node reached is y's label.  A
    face of C higher up the chain cannot continue downwards, so the faces
    walked up are exactly those of C on x's chain, its innermost part.

    Soundness: a passing walk makes chain(y) = chain(x) xor C on the edges
    of a spanning tree of the dual, with an empty chain at the outer orbit:
    a consistent labelling in the sense of the `embedding` module
    docstring.  Membership in an interior flips exactly across the
    cycle's own edges, and a genuine cycle on the sphere has exactly two
    sides, so every chain is then exactly the set of boundaries enclosing
    its orbit; hence the boundaries are laminar and each claimed parent is
    the smallest strict superset.  The forest built for a laminar family
    passes, labelled by innermost enclosing boundaries.  The walk shares no
    function with `nesting_forest`.
    """
    graph = complex.graph
    rotation = certificate.rotation
    try:
        rotation.validate_for(graph)
    except ValueError:
        return False
    comp_of, parts = graph.component_index()
    certs = {c.vertices: c for c in certificate.components}
    faces = complex.faces
    if (len(certs) != len(parts) or len(certificate.components) != len(parts)
            or not all(f.is_genuine_cycle() for f in faces.values())
            or len({f.edge_set for f in faces.values()}) != len(faces)):
        return False
    comp_faces: list[dict[str, list[str]]] = [{} for _ in parts]
    for fid, f in faces.items():
        comp_faces[comp_of[f.steps[0][0]]][fid] = f.edge_ids
    for part, part_faces in zip(parts, comp_faces):
        cert = certs.get(tuple(sorted(part.vertices)))
        if cert is None or cert.parents.keys() != part_faces.keys():
            return False
        try:
            traced = trace_faces(part, rotation if len(parts) == 1
                                 else rotation.restricted_to(part.vertices))
        except ValueError:
            return False
        if traced.genus != 0:
            return False
        if not traced.orbits:
            if cert.outer_darts != ():
                return False
            continue
        outer = traced._orbit_of.get(cert.outer_darts[0]) if cert.outer_darts else None
        if outer is None or _normalize_cycle(traced.orbits[outer]) != cert.outer_darts:
            return False
        if not _labels_agree(traced, outer, cert.parents, part_faces):
            return False
    return True


def _labels_agree(traced: TracedFaces, outer: int, parent: Mapping[str, str | None],
                  faces: Mapping[str, Iterable[str]]) -> bool:
    """The label walk of `verify_certificate` over one component's claimed forest."""
    depth: dict[str | None, int] = {None: 0}
    for cid in parent:
        path: list[str] = []
        while cid not in depth:
            if cid not in parent or len(path) > len(parent):
                return False
            path.append(cid)
            cid = parent[cid]
        for c in reversed(path):
            depth[c] = depth[cid] + 1
            cid = c

    through: dict[str, list[str]] = {}
    for fid, edge_ids in faces.items():
        for eid in edge_ids:
            through.setdefault(eid, []).append(fid)
    orbits, orbit_of = traced.orbits, traced._orbit_of
    label: dict[int, str | None] = {outer: None}
    queue = [outer]
    for x in queue:
        for eid, o in orbits[x]:
            y = orbit_of[(eid, 1 - o)]
            if y in label:
                continue
            got = label[x]
            rest = set(through.get(eid, ()))
            while got in rest:
                rest.remove(got)
                got = parent[got]
            for c in sorted(rest, key=depth.__getitem__):
                if parent[c] != got:
                    return False
                got = c
            label[y] = got
            queue.append(y)
    return True


def verify_obstruction(complex: TwoComplex, obstruction: Obstruction,
                       *, cap: int | None = None) -> bool:
    """Independent obstruction check (minor witness, surface, or oracle re-run)."""
    if isinstance(obstruction, NonOuterplanarLink):
        path = obstruction.path
        try:
            path.check_in(complex.graph)
            contracted = contract_path(complex, path)
            merged = contracted_vertex_name(path, complex.graph.vertices)
            link = link_graph(contracted, merged)
        except ValueError:
            return False
        return verify_minor_witness(link.graph, obstruction.witness)
    if isinstance(obstruction, AsphericalSubcomplex):
        if not obstruction.faces <= set(complex.face_ids()):
            return False
        sub = face_subcomplex(complex, obstruction.faces)
        if not sub.graph.is_connected():
            return False
        sclass = classify_component(sub)
        return sclass.is_surface and sclass == obstruction.surface and sclass.euler != 2
    if isinstance(obstruction, ExhaustiveFailure):
        cycles = {fid: f.edge_set for fid, f in complex.faces.items()}
        cap = DEFAULT_CAP if cap is None else cap
        outcome = brute_force_nested(skeleton(complex), cycles, cap=cap)
        return isinstance(outcome, ExhaustiveFailure)
    return False


def _self_check(complex: TwoComplex, verdict: Verdict) -> None:
    """Cheap soundness assertion before handing a verdict out."""
    if isinstance(verdict, Outerspatial):
        if not verify_certificate(complex, verdict.certificate):
            raise AssertionError("constructed certificate failed verification")
    elif isinstance(verdict, NotOuterspatial) and \
            not isinstance(verdict.obstruction, ExhaustiveFailure):
        if not verify_obstruction(complex, verdict.obstruction):
            raise AssertionError("constructed obstruction failed verification")
