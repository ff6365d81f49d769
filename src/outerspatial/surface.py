"""Recognize and classify the closed surfaces among 2-complexes.

A component realizes a closed surface exactly when every link graph is a
single cycle.  Classification is by Euler characteristic plus an orientation
search over the face boundaries: the component is orientable when every face
can be directed so that each edge is traversed once in each direction.

`search_aspherical_subcomplex` finds the closed surfaces other than the
sphere among face subsets by growing edge-connected face sets under the
forced rule "an edge covered once needs exactly one more face", within an
explicit node budget.
"""

from __future__ import annotations

from typing import Sequence

from .complexes import TwoComplex, face_subcomplex, link_cycles, split_components


class SurfaceClass:
    """Classification of one connected component."""

    def __init__(self, is_surface: bool, euler: int,
                 orientable: bool | None = None):
        self.is_surface = is_surface
        self.euler = euler
        self.orientable = orientable

    @property
    def is_sphere(self) -> bool:
        return self.is_surface and self.euler == 2

    @property
    def genus(self) -> int | None:
        if self.is_surface and self.orientable:
            return (2 - self.euler) // 2
        return None

    @property
    def crosscaps(self) -> int | None:
        if self.is_surface and self.orientable is False:
            return 2 - self.euler
        return None

    @property
    def kind(self) -> str:
        if not self.is_surface:
            return "not-a-surface"
        if self.is_sphere:
            return "sphere"
        if self.orientable:
            return f"orientable genus {self.genus}"
        return f"non-orientable crosscaps {self.crosscaps}"

    def __repr__(self) -> str:
        return f"SurfaceClass({self.kind}, euler {self.euler})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, SurfaceClass)
                and (self.is_surface, self.euler, self.orientable)
                == (other.is_surface, other.euler, other.orientable))


def euler_characteristic(complex: TwoComplex) -> int:
    return len(complex.graph.vertices) - len(complex.graph.edges) + len(complex.faces)


def _component_is_closed_surface(component: TwoComplex) -> bool:
    """Every link is one cycle; a digon link, from two faces on two edges, counts."""
    return all(cycle is not None for cycle, _ in link_cycles(component).values())


def _orient_faces(component: TwoComplex) -> dict[str, int] | None:
    """Direct every face boundary so each edge runs once in each direction.

    Returns face id -> 0/1 (keep or reverse the stored walk), or None when no
    consistent orientation exists.  Whether one exists does not depend on
    the face the search starts from.
    """
    faces = component.faces
    # Each edge is run by exactly two face steps on a closed surface.
    edge_faces: dict[str, list[tuple[str, int]]] = {}
    for fid, f in faces.items():
        for _, eid, o in f.steps:
            edge_faces.setdefault(eid, []).append((fid, o))
    orientation: dict[str, int] = {}
    for start in faces:
        if start in orientation:
            continue
        orientation[start] = 0
        stack = [start]
        while stack:
            fid = stack.pop()
            flip = orientation[fid]
            for _, eid, o in faces[fid].steps:
                here = o ^ flip
                # Exactly one other step runs the edge, maybe in this face.
                # With one step or three or more, no orientation runs the
                # edge once in each direction.
                on_edge = edge_faces[eid]
                if len(on_edge) != 2:
                    return None
                a, b = on_edge
                gid, go = b if a[0] == fid and a[1] == o else a
                # The partner must traverse eid in the opposite direction.
                need = (go ^ (1 - here)) & 1
                if gid in orientation:
                    if orientation[gid] != need:
                        return None
                else:
                    orientation[gid] = need
                    stack.append(gid)
    return orientation


def classify_component(component: TwoComplex) -> SurfaceClass:
    """Classify one component; not-a-surface when some link is not a single cycle."""
    chi = euler_characteristic(component)
    if not _component_is_closed_surface(component):
        return SurfaceClass(False, chi)
    orientable = _orient_faces(component) is not None
    if orientable and chi % 2:
        raise AssertionError("orientable surface with odd Euler characteristic")
    return SurfaceClass(True, chi, orientable)


def survey_surfaces(complex: TwoComplex) -> list[tuple[TwoComplex, SurfaceClass]]:
    """Classify every component; a non-surface component gets a not-a-surface class."""
    return [(comp, classify_component(comp)) for comp in split_components(complex)]


class SearchBudgetExceeded(Exception):
    """A bounded search visited as many nodes as its budget allows."""

    def __init__(self, nodes: int, budget: int):
        super().__init__(f"search stopped after {nodes} nodes (budget {budget})")
        self.nodes = nodes
        self.budget = budget


def search_aspherical_subcomplex(complex: TwoComplex, budget: int
                                 ) -> tuple[frozenset[str], SurfaceClass] | None:
    """First face subset inducing a closed surface with Euler characteristic != 2.

    Same answer as the oracle's scan over all subsets: candidates are taken
    by size, then by sorted face ids, and each must cover its edges exactly
    twice, generate a connected subcomplex whose links are single cycles,
    and have Euler characteristic other than two.  Such a subset is
    edge-connected: two parts sharing no edge but meeting at a vertex v
    would split the link at v.  So it suffices to test the edge-connected
    face sets covering every edge zero or two times, which
    `_closed_face_sets` lists as sorted index tuples: sorted by (size,
    tuple), they come in the oracle's `itertools.combinations` order, and
    being edge-connected their subcomplexes are connected without a test.
    Raises SearchBudgetExceeded when that listing needs more than `budget`
    nodes.
    """
    fids = list(complex.faces)
    closed = _closed_face_sets([f.edge_set for f in complex.faces.values()], budget)
    for indices in sorted(closed, key=lambda s: (len(s), s)):
        chosen = [fids[i] for i in indices]
        sclass = classify_component(face_subcomplex(complex, chosen))
        if sclass.is_surface and sclass.euler != 2:
            return frozenset(chosen), sclass
    return None


def _closed_face_sets(edge_sets: Sequence[frozenset[str]], budget: int) -> list[tuple[int, ...]]:
    """Every edge-connected face set covering each of its edges exactly twice.

    Faces are indices into `edge_sets`, and a set comes back as the sorted
    tuple of its indices, so sets compare as their sorted face lists.  For
    each seed face, a depth-first search starts from {seed} and, while the
    set covers some edge once, takes the smallest such edge and branches on
    the face that covers it a second time: a face with a larger index than
    the seed whose edges the set covers at most once each.  Each set thus
    grows by a face on an edge it already holds, so every set listed is
    edge-connected.  (A chosen face other than the seed covers the edge it
    was chosen for twice, so it is never offered again.)  A set covering no
    edge once is closed and reported.

    Completeness: let T be a closed edge-connected set with smallest face s
    and S a proper subset of T containing s.  As T is edge-connected, some
    face of T outside S shares an edge e with S; as T covers e at most twice, S covers e once.
    So S is not closed, and its forced edge e' is covered once by S and
    twice by T, which leaves exactly one face of T to add: the search
    reaches T along a single branch from {s}.

    Bound: every node of the search is a distinct non-empty face set, so
    there are at most 2^F - 1 nodes for F faces.  Sets grown from different
    seeds have different smallest faces.  Below a node whose forced edge is
    e, the branches add different faces f1 and f2 on e; every set below f1
    covers e twice already, so none holds f2, while every set below f2
    does.  A budget of 2^20 nodes therefore finishes on every input with at
    most 20 faces; larger inputs finish too when the forced choices leave
    few branches, as on triangulated surfaces.  When `budget` nodes have
    been visited and another is due, SearchBudgetExceeded is raised.
    """
    edge_index: dict[str, int] = {}
    # Edges are numbered in sorted order so that the search, and with it the
    # point where a budget runs out, does not depend on string hashing.
    faces = [tuple(edge_index.setdefault(e, len(edge_index)) for e in sorted(es))
             for es in edge_sets]
    on_edge: list[list[int]] = [[] for _ in edge_index]
    for f, es in enumerate(faces):
        for e in es:
            on_edge[e].append(f)
    count = [0] * len(edge_index)
    once: set[int] = set()
    chosen: list[int] = []

    def toggle(f: int, step: int) -> None:
        for e in faces[f]:
            c = count[e] + step
            count[e] = c
            if c == 1:
                once.add(e)
            else:
                once.discard(e)

    closed: list[tuple[int, ...]] = []
    nodes = 0
    for seed in range(len(faces)):
        # stack[i] iterates the candidates for the set's face number i; when
        # it runs out, face number i - 1 is taken out again.
        stack = [iter((seed,))]
        while stack:
            f = next(stack[-1], None)
            if f is None:
                stack.pop()
                if chosen:
                    toggle(chosen.pop(), -1)
                continue
            if nodes == budget:
                raise SearchBudgetExceeded(nodes, budget)
            nodes += 1
            toggle(f, 1)
            chosen.append(f)
            if not once:
                closed.append(tuple(sorted(chosen)))
                toggle(chosen.pop(), -1)
                continue
            forced = min(once)
            stack.append(iter([g for g in on_edge[forced]
                               if g > seed and all(count[e] < 2 for e in faces[g])]))
    return closed
