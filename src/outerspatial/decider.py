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

from collections import deque
from typing import Iterable, Iterator, Mapping

from .complexes import (Corner, Graph, HalfEdge, LinkGraph, Path, TwoComplex,
                        associated_complex, contracted_link, delete_faces, link_cycles,
                        split_components, validate)
from .embedding import (CrossingPair, Dart, OuterplanarityResult,
                        RotationSystem, TracedFaces, find_minor,
                        nesting_forest, test_outerplanar, test_planar,
                        verify_minor_witness)
from .oracle import DEFAULT_CAP, CapExceededError, brute_force_outerspatial
from .surface import (SearchBudgetExceeded, SurfaceClass, euler_characteristic,
                      search_aspherical_subcomplex, _orient_faces)
from .verdicts import (AsphericalSubcomplex, ComponentCertificate,
                       ExhaustiveFailure, HypothesisViolated, LinkViolation,
                       NestedCertificate, NonOuterplanarLink, NotOuterspatial,
                       Obstruction, Outerspatial, Verdict, component_certificate,
                       nested_certificate)

# Nodes the salvage search may visit; it finishes within this on every input
# of at most 20 faces (see `surface._closed_face_sets`).
ASPHERICAL_SEARCH_BUDGET = 2 ** 20


def _links(complex: TwoComplex) -> Iterator[tuple[str, tuple[str, ...] | None, Corner | None,
                                                   LinkGraph | None, OuterplanarityResult | None]]:
    """Each vertex in sorted order, with its link's Hamilton boundary and one corner on
    it, or None twice when the link is not 2-connected simple outerplanar; then the
    link and its outerplanarity, or None twice when `link_cycles` found it one cycle.

    Only the links that are not one cycle are built, from the pass's corners, and
    tested, so a reader that stops early tests no later link.
    """
    g = complex.graph
    rings = link_cycles(complex)
    for v in sorted(g.vertices):
        cycle, corners = rings[v]
        if cycle is not None and len(cycle) >= 3:
            yield v, cycle, corners[0], None, None
            continue
        link = LinkGraph(g, v, corners)
        result = test_outerplanar(link)
        if result.boundary is None:
            yield v, None, None, link, result
        else:
            le = min(result.boundary_edges)
            yield v, result.boundary, (link.edge_face[le], *link.ends[le]), link, result


def is_locally_2_connected(complex: TwoComplex) -> bool:
    """Every link graph is a 2-connected simple graph."""
    return all(result is None or result.violation is None for *_, result in _links(complex))


def find_chordal_faces(
        complex: TwoComplex,
        structures: Mapping[str, tuple[LinkGraph, OuterplanarityResult]] | None = None
) -> dict[str, frozenset[str]]:
    """Faces that are chords in some link, with the vertices where they are chords.

    `structures` holds the links `_links` builds, the ones that are not one cycle.
    """
    if structures is None:
        structures = {v: (link, result) for v, _, _, link, result in _links(complex)
                      if link is not None}
    out: dict[str, set[str]] = {}
    for v in sorted(structures):
        link, result = structures[v]
        # `test_outerplanar` reports a Hamilton boundary exactly for
        # outerplanar links that are 2-connected and simple.
        if result.boundary is None:
            raise ValueError(f"link at {v} is not 2-connected simple outerplanar")
        for link_edge in sorted(result.chords):
            fid = link.edge_face[link_edge]
            out.setdefault(fid, set()).add(v)
    return {fid: frozenset(vs) for fid, vs in sorted(out.items())}


def check_perfectly_chordal(complex: TwoComplex, face_id: str,
                            chordal: Mapping[str, frozenset[str]] | None = None):
    """True when the face is a chord at every endvertex.

    Otherwise walks the boundary to the first edge whose tail has the face as
    a chord and whose head does not; contracting that edge produces a link
    with a K2,3 minor, returned as a NonOuterplanarLink.
    """
    chordal = chordal if chordal is not None else find_chordal_faces(complex)
    if face_id not in chordal:
        raise ValueError(f"face {face_id} is not chordal at any vertex")
    face = complex.faces[face_id]
    chord_at = chordal[face_id]
    if set(face.vertices) <= chord_at:
        return True
    vs = face.vertices
    k = len(vs)
    for i in range(k):
        u, x = vs[i], vs[(i + 1) % k]
        if u in chord_at and x not in chord_at:
            return _merged_link_obstruction(complex, Path((u, x), (face.steps[i][1],)), "K2,3")
    raise AssertionError("chordal face with no chord-to-nonchord transition")


def _merged_link_obstruction(complex: TwoComplex, path: Path, target: str) -> NonOuterplanarLink:
    """The link at the vertex that contracting the path merges, with its `target` minor."""
    link = contracted_link(complex, path)
    witness = find_minor(link.graph, target)
    if witness is None:
        raise AssertionError(f"no {target} minor in the link of a contracted bad path")
    return NonOuterplanarLink(path, link, witness)


def _plane_parts(complex: TwoComplex) -> list[tuple[RotationSystem, ComponentCertificate]] | None:
    """Per component, a plane embedding's rotation system and certificate; None when not planar.

    `test_planar` traces the skeleton's components in the order that
    `split_components` lists them.  A plane embedding nests every family
    of triangles, so callers pass only all-triangle or faceless complexes.
    """
    tracings = test_planar(complex.graph)
    if tracings is None:
        return None
    parts = []
    for traced, comp in zip(tracings, split_components(complex)):
        got = component_certificate(traced, comp)
        if isinstance(got, CrossingPair):
            raise AssertionError("triangles crossed in a plane embedding")
        parts.append((traced.rotation, got))
    return parts


def decide_outerspatial(complex: TwoComplex) -> Verdict:
    """Decide outerspatiality with a checkable certificate or obstruction.

    Pipeline, per component: link checks in sorted vertex order (the first
    non-outerplanar link is an immediate sound obstruction, and no link
    after it is built); perfect chordality of chordal faces;
    deletion of chordal faces must leave spheres, else an aspherical
    subcomplex; finally a nesting forest over all boundaries in the sphere
    embedding whose rotators are the links' Hamilton boundaries and whose
    face orbits are the remainder's faces as the orientation search
    directed them, so only the self-check traces the rotators.
    Components without faces are settled by planarity alone.

    When link checks fail, two sound routes outside the theorem's
    hypothesis follow: the triangle fallback (a planar skeleton whose faces
    are all triangles is outerspatial), then a direct aspherical-subcomplex
    search.  Only if neither answers, or the search runs out of its node
    budget (stated in a note), is HypothesisViolated returned.  Every
    verdict passes one self-check before it is handed out.
    """
    problems = validate(complex)
    if problems:
        raise ValueError(f"input complex is not validated: {problems[0].message}")
    verdict = _decide(complex)
    _self_check(complex, verdict)
    return verdict


def _decide(complex: TwoComplex) -> Verdict:
    """The verdict of `decide_outerspatial` on a validated complex, unchecked."""
    violations: list[LinkViolation] = []
    notes: list[str] = []
    parts: list[tuple[RotationSystem, ComponentCertificate]] = []
    # A component that blocks a sound verdict leaves a violation or a note.
    for comp in split_components(complex):
        if comp.faces:
            outcome = _decide_component(complex, comp, violations)
            if isinstance(outcome, NotOuterspatial):
                return outcome
            if outcome is not None:
                parts.append(outcome)
            continue
        plane = _plane_parts(comp)
        if plane is None:
            notes.append("a component with no faces has a non-planar skeleton; "
                         "not outerspatial, but no obstruction of the supported kinds exists")
        else:
            parts.extend(plane)
    if not violations and not notes:
        return Outerspatial(nested_certificate(parts))

    # Triangle fallback: a plane embedding of the skeleton nests every family
    # of triangles, so a planar one proves outerspatiality in or out of the
    # hypothesis.  Without link violations the loop stopped only at a
    # non-planar faceless component, and then the skeleton is not planar.
    if violations and all(len(f) == 3 for f in complex.faces.values()):
        plane = _plane_parts(complex)
        if plane is not None:
            return Outerspatial(nested_certificate(plane))

    # Salvage: an aspherical subcomplex is a sound obstruction regardless of
    # the hypothesis; search for one within the node budget.
    try:
        found = search_aspherical_subcomplex(complex, ASPHERICAL_SEARCH_BUDGET)
    except SearchBudgetExceeded as exc:
        found = None
        notes.append(f"aspherical-subcomplex search stopped after {exc.nodes} "
                     f"nodes, its budget of {exc.budget}")
    if found is not None:
        return NotOuterspatial(AsphericalSubcomplex(*found))
    return HypothesisViolated(violations, notes)


def _decide_component(complex: TwoComplex, comp: TwoComplex,
                      violations: list[LinkViolation]):
    """Steps 1-5 on one component.

    Returns NotOuterspatial, or (rotation system, component certificate) on
    success, or None when hypothesis violations block a sound verdict.
    The link pass stops at the first non-outerplanar link in sorted vertex
    order; links outside the hypothesis count only when there is none.
    """
    structures = {}
    boundaries = {}
    blocked = []
    for v, boundary, corner, link, result in _links(comp):
        if result is not None:
            if not result.outerplanar:
                return NotOuterspatial(NonOuterplanarLink(Path((v,), ()), link, result.witness))
            if result.violation is not None:
                blocked.append(LinkViolation(v, f"link graph is {result.violation}"))
            structures[v] = (link, result)
        boundaries[v] = (boundary, corner)
    if blocked:
        violations.extend(blocked)
        return None

    chordal = find_chordal_faces(comp, structures)
    for fid in sorted(chordal):
        got = check_perfectly_chordal(comp, fid, chordal)
        if isinstance(got, NonOuterplanarLink):
            return NotOuterspatial(got)

    # Every chordal face is a chord at each of its vertices, so deleting them
    # leaves each vertex its Hamilton boundary as link: a closed surface.  A
    # one-cycle link has no chord, so no chordal face passes its vertex.
    for link, result in structures.values():
        kept = {le for le, fid in link.edge_face.items() if fid not in chordal}
        if kept != result.boundary_edges:
            raise AssertionError("chord-free remainder is not a closed surface")
    remainder = delete_faces(comp, set(chordal)) if chordal else comp
    orientation = _orient_faces(remainder)
    sclass = SurfaceClass(True, euler_characteristic(remainder), orientation is not None)
    if not sclass.is_sphere:
        return NotOuterspatial(
            AsphericalSubcomplex(frozenset(remainder.faces), sclass))

    # A vertex's link in the remainder is its Hamilton boundary, so that
    # boundary is its rotator; its corner, directed with its face, gives the
    # sense.  Link vertices are edge ids, as a validated complex has no loops.
    # Each corner of a directed face then turns from its in-edge to the next
    # half-edge of the rotator, so the directed faces are the face orbits,
    # and the outer one runs the least dart (least edge, 0): forwards from
    # that edge's first end or backwards from its second.  Only the chordal
    # faces are walked; only the self-check traces the rotators.
    g = comp.graph
    rotators = {}
    for v, (cyc, (fid, come, go)) in boundaries.items():
        if orientation[fid]:
            come, go = go, come
        if cyc[cyc.index(come) - 1] == go:
            cyc = cyc[::-1]
        rotators[v] = [(e, int(g.endpoints(e)[0] != v)) for e in cyc]
    faces = remainder.faces

    def darts(fid: str) -> tuple[Dart, ...]:
        if orientation[fid]:
            return tuple((e, 1 - o) for _, e, o in reversed(faces[fid].steps))
        return tuple((e, o) for _, e, o in faces[fid].steps)

    least = min(g.edges)
    ends = g.endpoints(least)
    outer = next(fid for fid, f in faces.items()
                 if (ends[orientation[fid]], least, orientation[fid]) in f.steps)
    own = {fid: x for x, fid in enumerate(faces)}
    traced = TracedFaces(g, RotationSystem(rotators), map(darts, faces))
    parents = nesting_forest(traced, own, {fid: comp.faces[fid].edge_set for fid in chordal},
                             own[outer])
    if isinstance(parents, CrossingPair):
        return _crossing_obstruction(complex, comp, traced, parents)
    return traced.rotation, ComponentCertificate(tuple(g.vertices), darts(outer), parents)


def _crossing_obstruction(complex: TwoComplex, comp: TwoComplex,
                          traced: TracedFaces, pair: CrossingPair) -> NotOuterspatial:
    """Derive the bad path from a crossing pair of face boundaries.

    A minimal subpath of the second boundary runs from one side of the first
    to the other; contracting it (minus its end edges) merges the crossing
    into one vertex whose link holds a cycle with two non-parallel chords,
    hence a K4 minor.
    """
    c1 = comp.faces[pair.first]
    c2 = comp.faces[pair.second]

    def edge_side(eid: str) -> bool | None:
        if eid in c1.edge_set:
            return None
        return traced.orbit_of[eid, 0] in pair.inside

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
        return NotOuterspatial(
            _merged_link_obstruction(complex, Path(inner_vertices, inner_edges), "K4"))
    raise AssertionError("crossing pair admits no transversal subpath")


def decide_nested_plane(graph: Graph,
                        cycles: Mapping[str, Iterable[str]] | Iterable[tuple[str, Iterable[str]]],
                        *, cap: int = DEFAULT_CAP) -> Verdict:
    """Decide existence of a nested plane embedding for a graph and cycle set.

    Reduces to the associated complex; on a hypothesis-violated outcome falls
    back to exhaustive embedding search when the instance is within the cap.
    """
    return nested_plane_verdict(associated_complex(graph, cycles), cap=cap)


def nested_plane_verdict(complex: TwoComplex, *, cap: int = DEFAULT_CAP) -> Verdict:
    """`decide_nested_plane` on the associated complex of a graph and its cycles."""
    verdict = decide_outerspatial(complex)
    if not isinstance(verdict, HypothesisViolated):
        return verdict
    try:
        return oracle_verdict(complex, cap=cap)
    except CapExceededError as exc:
        return HypothesisViolated(verdict.violations,
                                  verdict.notes + (f"oracle fallback refused: {exc}",))


def oracle_verdict(complex: TwoComplex, *, cap: int = DEFAULT_CAP) -> Verdict:
    """The exhaustive search's verdict on a validated complex, self-checked.

    Raises CapExceededError when the rotation space exceeds the cap.  An
    ExhaustiveFailure is not searched again.
    """
    outcome = brute_force_outerspatial(complex, cap=cap)
    verdict = (Outerspatial(outcome) if isinstance(outcome, NestedCertificate)
               else NotOuterspatial(outcome))
    _self_check(complex, verdict)
    return verdict


def verify_certificate(complex: TwoComplex, certificate: NestedCertificate) -> bool:
    """Independent certificate check: one trace and label walk over each claimed forest.

    Shape: the rotation system has a rotator at exactly the graph's
    vertices, and each component of the graph has exactly one
    certificate.  Every face is a genuine cycle, no two with one edge
    set.  Each parent map names exactly the faces of its component and is
    a forest: a walk down from the roots reaches every face, which lists
    the faces through each edge by depth.  A component's rotators
    list exactly its half-edges, each at its own end and none twice.  The
    claimed outer orbit is the orbit of its first dart, listed from its
    least dart; the walk uses every dart, and V - E + F = 2: genus zero.
    `_walk_component` traces the orbits itself, sharing no tracer with the
    builder.

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
    passes, labelled by innermost enclosing boundaries, whichever spanning
    tree the walk takes, so the dart an orbit is first reached by does not
    matter.  The walk shares no function with `nesting_forest`.
    """
    graph = complex.graph
    rotation = certificate.rotation
    if frozenset(rotation.vertices()) != graph.vertices:
        return False
    comp_of, parts = graph.component_index()
    certs = {c.vertices: c for c in certificate.components}
    if len(certs) != len(parts) or len(certificate.components) != len(parts):
        return False
    comp_faces: list[dict[str, tuple[str, ...]]] = [{} for _ in parts]
    for fid, f in complex.faces.items():
        if not f.is_genuine_cycle():
            return False
        comp_faces[comp_of[f.steps[0][0]]][fid] = f.edge_ids
    if len({frozenset(es) for fs in comp_faces for es in fs.values()}) != len(complex.faces):
        return False
    for part, part_faces in zip(parts, comp_faces):
        cert = certs.get(tuple(sorted(part.vertices)))
        if cert is None or cert.parents.keys() != part_faces.keys():
            return False
        if not _walk_component(part, rotation, cert, part_faces):
            return False
    return True


def _walk_component(part: Graph, rotation: RotationSystem, cert: ComponentCertificate,
                    faces: Mapping[str, tuple[str, ...]]) -> bool:
    """The rotator pass and the label walk of `verify_certificate` on one component.

    A dart (e, o) arrives at its head by the half-edge (e, 1 - o), and the
    next dart of its orbit leaves by the half-edge after that one in the
    head's rotator.  Tracing an orbit takes out of the map the half-edge
    each of its darts arrives by.  For the twin (e, 1 - o) of a dart
    (e, o) that is (e, o) itself, so the twin's orbit is traced once
    (e, o) is gone from the map.
    """
    ends = part.edges
    after: dict[HalfEdge, HalfEdge] = {}
    listed = 0
    for v in part.vertices:
        cyc = rotation.rotator(v)
        listed += len(cyc)
        prev = cyc[-1] if cyc else None
        for h in cyc:
            eid, o = h
            if o not in (0, 1) or ends.get(eid, (None, None))[o] != v:
                return False
            after[prev] = h
            prev = h
    # As many distinct half-edges, each at its own end, as the edges have.
    if listed != 2 * len(ends) or len(after) != listed:
        return False
    if not ends:
        return cert.outer_darts == ()

    # The faces outermost first; a face on a cycle of the parent map, or
    # below a parent outside it, is never reached from the roots.
    parent = cert.parents
    kids: dict[str | None, list[str]] = {}
    for cid, up in parent.items():
        kids.setdefault(up, []).append(cid)
    order: list[str | None] = [None]
    for up in order:
        order.extend(kids.get(up, ()))
    if len(order) != len(parent) + 1:
        return False
    through: dict[str, list[str]] = {}
    for fid in order[1:]:
        for eid in faces[fid]:
            through.setdefault(eid, []).append(fid)

    pop = after.pop

    def orbit(start: Dart, d: Dart) -> list[Dart]:
        """The orbit of `start`, given the dart after it, taken out of the map."""
        darts = [start]
        while d != start:
            darts.append(d)
            d = pop((d[0], 1 - d[1]))
        return darts

    outer = cert.outer_darts
    d = pop((outer[0][0], 1 - outer[0][1]), None) if outer else None
    if d is None:
        return False
    first = orbit(outer[0], d)
    if first != list(outer) or min(first) != first[0]:
        return False
    # Each queued orbit is dropped once walked, so only the frontier is held.
    queue: deque[tuple[list[Dart], str | None]] = deque([(first, None)])
    traced = 1
    while queue:
        darts, at = queue.popleft()
        for dart in darts:
            d = pop(dart, None)
            if d is None:
                continue  # its twin's orbit is traced and labelled
            eid = dart[0]
            got, rest = at, list(through.get(eid, ()))
            while got in rest:
                rest.remove(got)
                got = parent[got]
            for c in rest:
                if parent[c] != got:
                    return False
                got = c
            queue.append((orbit((eid, 1 - dart[1]), d), got))
            traced += 1
    return not after and len(part.vertices) - len(ends) + traced == 2


def verify_obstruction(complex: TwoComplex, obstruction: Obstruction) -> bool:
    """Independent obstruction check (minor witness, surface, or oracle re-run)."""
    if isinstance(obstruction, NonOuterplanarLink):
        try:
            link = contracted_link(complex, obstruction.path)
        except ValueError:
            return False
        return verify_minor_witness(link.graph, obstruction.witness)
    if isinstance(obstruction, AsphericalSubcomplex):
        if not obstruction.faces or not obstruction.faces <= complex.faces.keys():
            return False
        connected, sclass = _surface_of(complex, obstruction.faces)
        return (connected and sclass.is_surface and sclass == obstruction.surface
                and sclass.euler != 2)
    if isinstance(obstruction, ExhaustiveFailure):
        return isinstance(brute_force_outerspatial(complex), ExhaustiveFailure)
    return False


def _surface_of(complex: TwoComplex, face_ids: Iterable[str]) -> tuple[bool, SurfaceClass]:
    """Whether the subcomplex a non-empty face set generates is connected, and its class.

    Read from the definitions, for `verify_obstruction`, in one pass over the
    faces' steps.  A corner joins the half-edge (edge, end) a face arrives by
    to the one it leaves by.  A closed surface has every link one cycle: two
    corner ends on every half-edge, and the half-edges at each vertex one
    ring of at least two.  It is orientable when the faces can be directed
    so each edge runs once each way.  The Euler count is V - E + F.
    """
    faces = [complex.faces[fid] for fid in face_ids]
    ring: dict[tuple[str, int], list[tuple[str, int]]] = {}
    sides: dict[str, list[tuple[int, int]]] = {}
    at: dict[str, list[int]] = {}
    for i, f in enumerate(faces):
        _, e, o = f.steps[-1]
        come = (e, 1 - o)
        for w, e, o in f.steps:
            go = (e, o)
            ring.setdefault(come, []).append(go)
            ring.setdefault(go, []).append(come)
            sides.setdefault(e, []).append((i, o))
            at.setdefault(w, []).append(i)
            come = (e, 1 - o)
    n_vertices = len(at)
    euler = n_vertices - len(sides) + len(faces)
    reached, queue = {0}, [0]
    for i in queue:
        for w, _, _ in faces[i].steps:
            fresh = [j for j in at.pop(w, ()) if j not in reached]
            reached.update(fresh)
            queue += fresh
    connected = len(reached) == len(faces)

    for nbrs in ring.values():
        if len(nbrs) != 2:
            return connected, SurfaceClass(False, euler)
    rings = 0
    while ring:
        start, (h, _) = ring.popitem()
        if h == start:
            return connected, SurfaceClass(False, euler)
        rings += 1
        prev = start
        while h != start:
            a, b = ring.pop(h)
            prev, h = h, (b if a == prev else a)
    # The half-edges at a vertex are its link's vertices: one ring per vertex.
    if rings != n_vertices:
        return connected, SurfaceClass(False, euler)

    # Each edge has two sides now; direct the other face on it to run it the other way.
    flip: dict[int, int] = {}
    for first in range(len(faces)):
        stack = [] if first in flip else [first]
        flip.setdefault(first, 0)
        while stack:
            i = stack.pop()
            for _, e, o in faces[i].steps:
                (j, p), (k, q) = sides[e]
                other, theirs = (k, q) if (j, p) == (i, o) else (j, p)
                need = theirs ^ o ^ flip[i] ^ 1
                if other not in flip:
                    flip[other] = need
                    stack.append(other)
                elif flip[other] != need:
                    return connected, SurfaceClass(True, euler, False)
    return connected, SurfaceClass(True, euler, True)


def _self_check(complex: TwoComplex, verdict: Verdict) -> None:
    """Cheap soundness assertion before handing a verdict out."""
    if isinstance(verdict, Outerspatial):
        if not verify_certificate(complex, verdict.certificate):
            raise AssertionError("constructed certificate failed verification")
    elif isinstance(verdict, NotOuterspatial) and \
            not isinstance(verdict.obstruction, ExhaustiveFailure):
        if not verify_obstruction(complex, verdict.obstruction):
            raise AssertionError("constructed obstruction failed verification")
