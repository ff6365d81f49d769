"""Exhaustive ground truth at desk scale.

Enumerates every rotation system of a skeleton (the product of cyclic orders
over all vertices) and keeps the genus-zero ones.  The exhaustive search
walks each component's sphere embeddings lazily, tracing one at a time,
and stops at the first whose face boundaries nest; nothing is kept between
calls.  Also searches face subsets for closed surfaces other than the
sphere, and connected vertex subsets for K4 and K2,3 branch sets
(`_search_minor`, the ground truth for `embedding.find_minor`).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from .complexes import Graph, TwoComplex, face_subcomplex, split_components
from .embedding import (_PATTERNS, CrossingPair, MinorWitness, RotationSystem,
                        _bits, test_planar, trace_faces)
from .surface import SurfaceClass, classify_component
from .verdicts import (ExhaustiveFailure, NestedCertificate, component_certificate,
                       nested_certificate)

DEFAULT_CAP = 10_000_000


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
    """The genus-zero systems of `enumerate_rotation_systems`, in its order.

    An odometer over one `itertools.permutations` iterator per vertex, the
    last vertex turning fastest: only the successors of the vertices whose
    order advanced are rewritten, and no vertex's orders are held.
    """
    verts = sorted(graph.vertices)
    n_darts = 2 * len(graph.edges)
    dart_of: dict = {}
    half_of: list = [None] * n_darts
    for i, e in enumerate(graph.edges):
        for o in (0, 1):
            dart_of[(e, o)] = 2 * i + o
            half_of[2 * i + o] = (e, o)

    v_count = len(verts)
    e_count = len(graph.edges)
    darts = [[dart_of[h] for h in graph.half_edges_at(v)] for v in verts]
    orders = [itertools.permutations(ds[1:]) for ds in darts]
    current = [next(it) for it in orders]
    succ = [0] * n_darts

    def place(i: int) -> None:
        if darts[i]:
            prev = anchor = darts[i][0]
            for h in current[i]:
                succ[prev] = h
                prev = h
            succ[prev] = anchor

    for i in range(v_count):
        place(i)
    while True:
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
        if not e_count or 2 - v_count + e_count - orbits == 0:
            yield RotationSystem({v: tuple(half_of[h] for h in ds[:1] + list(perm))
                                  for v, ds, perm in zip(verts, darts, current)})
        i = v_count - 1
        while i >= 0:
            nxt = next(orders[i], None)
            if nxt is not None:
                current[i] = nxt
                place(i)
                break
            orders[i] = itertools.permutations(darts[i][1:])
            current[i] = next(orders[i])
            place(i)
            i -= 1
        else:
            return


def brute_force_outerspatial(complex: TwoComplex,
                             cap: int = DEFAULT_CAP) -> NestedCertificate | ExhaustiveFailure:
    """First sphere embedding nesting all face boundaries, or proof none exists.

    Components are embedded independently (a disjoint union is nested exactly
    when each part is).  A non-planar component has no genus-zero rotation
    system at all, so it short-circuits to failure without enumeration.
    Each component's sphere embeddings are traced one at a time, and the
    search stops at the first whose faces nest.
    """
    comps = split_components(complex)
    for comp in comps:
        if test_planar(comp.graph) is None:
            return ExhaustiveFailure(
                0, f"component of {min(comp.graph.vertices)} has a non-planar skeleton")
    size = rotation_space_size(complex.graph)
    if size > cap:
        raise CapExceededError(size, cap)

    found = []
    for comp in comps:
        tried = 0
        for rotation in enumerate_sphere_embeddings(comp.graph, cap):
            tried += 1
            traced = trace_faces(comp.graph, rotation)
            got = component_certificate(traced, comp)
            if not isinstance(got, CrossingPair):
                found.append((rotation, got))
                break
        else:
            return ExhaustiveFailure(
                tried, f"all {tried} sphere embeddings of the component of "
                       f"{min(comp.graph.vertices)} leave a crossing pair")
    return nested_certificate(found)


def find_aspherical_subcomplex(complex: TwoComplex, max_faces: int = 20
                               ) -> tuple[frozenset[str], SurfaceClass] | None:
    """First face subset inducing a closed surface with Euler characteristic != 2.

    Subsets are scanned by size, then lexicographically by face ids; the
    subset count is capped at 2^max_faces.
    """
    fids = list(complex.faces)
    if len(fids) > max_faces:
        raise CapExceededError(2 ** len(fids), 2 ** max_faces, "face subsets")
    edge_sets = {fid: f.edge_set for fid, f in complex.faces.items()}
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
    for eid, (u, v) in graph.edges.items():
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
