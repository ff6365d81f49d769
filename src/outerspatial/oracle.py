"""Exhaustive ground truth at desk scale.

Enumerates every rotation system of a skeleton (the product of cyclic orders
over all vertices), keeps the genus-zero ones, and tests nestedness of a
cycle family directly against each sphere embedding.  Also searches face
subsets for closed surfaces other than the sphere, and connected vertex
subsets for K4 and K2,3 branch sets (`_search_minor`, the ground truth for
`embedding.find_minor`).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator, Mapping

from .complexes import Graph, TwoComplex, face_subcomplex, skeleton
from .embedding import (_PATTERNS, CrossingPair, MinorWitness, RotationSystem, TracedFaces,
                        _bits, test_planar, trace_faces)
from .surface import SurfaceClass, classify_component
from .verdicts import (ComponentCertificate, ExhaustiveFailure,
                       NestedCertificate, component_certificate)

DEFAULT_CAP = 10_000_000

# Skeletons whose traced sphere embeddings `brute_force_nested` keeps; a
# corpus of random complexes repeats a handful of skeletons many times.
SPHERE_TRACINGS_KEPT = 32


class CapExceededError(Exception):
    def __init__(self, required: int, cap: int, what: str = "rotation systems"):
        super().__init__(f"{required} {what} exceed the cap of {cap}")
        self.required = required
        self.cap = cap


def rotation_space_size(graph: Graph) -> int:
    """Number of rotation systems: the product of (deg(v) - 1)! over vertices."""
    total = 1
    for v in graph.vertices:
        d = graph.degree(v)
        total *= math.factorial(max(d - 1, 0))
    return total


def enumerate_rotation_systems(graph: Graph) -> Iterator[RotationSystem]:
    """Every rotation system of the graph, in canonical order."""
    verts = sorted(graph.vertices)
    choice_lists = []
    for v in verts:
        hs = graph.half_edges_at(v)
        if not hs:
            choice_lists.append([()])
        else:
            choice_lists.append([(hs[0],) + rest
                                 for rest in itertools.permutations(hs[1:])])
    for combo in itertools.product(*choice_lists):
        yield RotationSystem(dict(zip(verts, combo)))


def enumerate_sphere_embeddings(graph: Graph, cap: int = DEFAULT_CAP) -> Iterator[RotationSystem]:
    """Every genus-zero rotation system of a connected graph, canonical order."""
    if not graph.is_connected():
        raise ValueError("embedding enumeration requires a connected graph")
    size = rotation_space_size(graph)
    if size > cap:
        raise CapExceededError(size, cap)
    yield from _genus0_rotations(graph)


def _genus0_rotations(graph: Graph) -> Iterator[RotationSystem]:
    verts = sorted(graph.vertices)
    edge_ids = sorted(graph.edges)
    n_darts = 2 * len(edge_ids)
    dart_of: dict = {}
    half_of: list = [None] * n_darts
    for i, e in enumerate(edge_ids):
        for o in (0, 1):
            dart_of[(e, o)] = 2 * i + o
            half_of[2 * i + o] = (e, o)

    anchors: list[int | None] = []
    choice_lists: list[list[tuple[int, ...]]] = []
    for v in verts:
        hs = [dart_of[h] for h in graph.half_edges_at(v)]
        if not hs:
            anchors.append(None)
            choice_lists.append([()])
        else:
            anchors.append(hs[0])
            choice_lists.append(list(itertools.permutations(hs[1:])))

    v_count = len(verts)
    e_count = len(edge_ids)
    succ = [0] * n_darts
    for combo in itertools.product(*choice_lists):
        for anchor, perm in zip(anchors, combo):
            if anchor is None:
                continue
            prev = anchor
            for h in perm:
                succ[prev] = h
                prev = h
            succ[prev] = anchor
        visited = bytearray(n_darts)
        orbits = 0
        for d in range(n_darts):
            if visited[d]:
                continue
            orbits += 1
            cur = d
            while not visited[cur]:
                visited[cur] = 1
                cur = succ[cur ^ 1]
        if e_count and 2 - v_count + e_count - orbits != 0:
            continue
        rotators = {}
        for v, anchor, perm in zip(verts, anchors, combo):
            if anchor is None:
                rotators[v] = ()
            else:
                rotators[v] = tuple(half_of[i] for i in (anchor,) + perm)
        yield RotationSystem(rotators)


@lru_cache(maxsize=SPHERE_TRACINGS_KEPT)
def _sphere_tracings(graph: Graph) -> tuple[TracedFaces, ...]:
    """Every genus-zero tracing of a connected graph; the caller checks the cap.

    The tracings keep their dual graphs between calls.
    """
    return tuple(trace_faces(graph, rot) for rot in _genus0_rotations(graph))


def brute_force_nested(graph: Graph, cycles: Mapping[str, frozenset[str]],
                       cap: int = DEFAULT_CAP) -> NestedCertificate | ExhaustiveFailure:
    """First sphere embedding nesting all cycles, or proof none exists.

    Components are embedded independently (a disjoint union is nested exactly
    when each part is).  A non-planar component has no genus-zero rotation
    system at all, so it short-circuits to failure without enumeration.
    """
    comps = graph.components()
    comp_graphs = {vs: graph.induced_subgraph(vs) for vs in comps}
    for vs in comps:
        if not test_planar(comp_graphs[vs]).is_planar:
            return ExhaustiveFailure(
                0, f"component of {min(vs)} has a non-planar skeleton")
    size = rotation_space_size(graph)
    if size > cap:
        raise CapExceededError(size, cap)

    comp_cycles: dict[frozenset, dict[str, frozenset[str]]] = {vs: {} for vs in comps}
    for cid in sorted(cycles):
        es = frozenset(cycles[cid])
        cyc_vs = {v for e in es for v in graph.endpoints(e)}
        for vs in comps:
            if cyc_vs <= vs:
                comp_cycles[vs][cid] = es
                break
        else:
            raise ValueError(f"cycle {cid} does not lie in one component")

    rotation_parts: dict = {}
    certs: list[ComponentCertificate] = []
    for vs in comps:
        sub = comp_graphs[vs]
        found = None
        tried = 0
        for traced in _sphere_tracings(sub):
            tried += 1
            got = component_certificate(traced, comp_cycles[vs])
            if not isinstance(got, CrossingPair):
                found = (traced, got)
                break
        if found is None:
            return ExhaustiveFailure(
                tried, f"all {tried} sphere embeddings of the component of "
                       f"{min(vs)} leave a crossing pair")
        traced, cert = found
        certs.append(cert)
        for v in vs:
            rotation_parts[v] = traced.rotation.rotator(v)
    return NestedCertificate(RotationSystem(rotation_parts), certs)


def brute_force_outerspatial(complex: TwoComplex,
                             cap: int = DEFAULT_CAP) -> NestedCertificate | ExhaustiveFailure:
    """Exhaustively test the skeleton plus face boundaries for nestedness."""
    cycles = {fid: f.edge_set for fid, f in complex.faces.items()}
    return brute_force_nested(skeleton(complex), cycles, cap=cap)


def find_aspherical_subcomplex(complex: TwoComplex, max_faces: int = 20
                               ) -> tuple[frozenset[str], SurfaceClass] | None:
    """First face subset inducing a closed surface with Euler characteristic != 2.

    Subsets are scanned by size, then lexicographically by face ids; the
    subset count is capped at 2^max_faces.
    """
    fids = sorted(complex.face_ids())
    if len(fids) > max_faces:
        raise CapExceededError(2 ** len(fids), 2 ** max_faces, "face subsets")
    edge_sets = {fid: complex.face(fid).edge_set for fid in fids}
    for k in range(2, len(fids) + 1):
        for subset in itertools.combinations(fids, k):
            counts: dict[str, int] = {}
            for fid in subset:
                for e in edge_sets[fid]:
                    counts[e] = counts.get(e, 0) + 1
            if any(c != 2 for c in counts.values()):
                continue
            sub = face_subcomplex(complex, subset)
            if not sub.graph.is_connected():
                continue
            sclass = classify_component(sub)
            if sclass.is_surface and sclass.euler != 2:
                return frozenset(subset), sclass
    return None


def _search_minor(graph: Graph, target: str) -> MinorWitness | None:
    """First branch sets of the target minor over all connected vertex subsets, or None."""
    k, pattern_edges = _PATTERNS[target]
    verts = sorted(graph.vertices)
    n = len(verts)
    if n < k:
        return None
    idx = {v: i for i, v in enumerate(verts)}
    adj = [0] * n
    edge_for: dict[tuple[int, int], str] = {}
    for eid in sorted(graph.edges):
        u, v = graph.endpoints(eid)
        if u == v:
            continue
        iu, iv = idx[u], idx[v]
        adj[iu] |= 1 << iv
        adj[iv] |= 1 << iu
        pair = (min(iu, iv), max(iu, iv))
        edge_for.setdefault(pair, eid)

    connected_subsets = _connected_subsets(adj, n)
    nbr_mask = list(adj)

    def subset_nbrs(mask: int) -> int:
        out = 0
        m = mask
        while m:
            b = m & -m
            out |= nbr_mask[b.bit_length() - 1]
            m ^= b
        return out & ~mask

    requires: list[list[int]] = [[] for _ in range(k)]
    for i, j in pattern_edges:
        requires[max(i, j)].append(min(i, j))

    chosen: list[int] = []

    def place(i: int, used: int) -> bool:
        if i == k:
            return True
        for mask in connected_subsets:
            if mask & used:
                continue
            nb = subset_nbrs(mask)
            if any(not (nb & chosen[j]) for j in requires[i]):
                continue
            chosen.append(mask)
            if place(i + 1, used | mask):
                return True
            chosen.pop()
        return False

    if not place(0, 0):
        return None

    branch_sets = [frozenset(verts[b] for b in _bits(mask)) for mask in chosen]
    connecting: dict[tuple[int, int], str] = {}
    for i, j in pattern_edges:
        found = None
        for a in _bits(chosen[i]):
            for b in _bits(chosen[j]):
                pair = (min(a, b), max(a, b))
                if pair in edge_for:
                    found = edge_for[pair]
                    break
            if found:
                break
        connecting[(i, j)] = found
    return MinorWitness(target, branch_sets, connecting)


def _connected_subsets(adj: list[int], n: int) -> list[int]:
    """All nonempty connected vertex subsets as bitmasks, ascending."""
    out = []
    for mask in range(1, 1 << n):
        low = mask & -mask
        reach = low
        while True:
            grow = reach
            m = reach
            while m:
                b = m & -m
                grow |= adj[b.bit_length() - 1] & mask
                m ^= b
            if grow == reach:
                break
            reach = grow
        if reach == mask:
            out.append(mask)
    return out
