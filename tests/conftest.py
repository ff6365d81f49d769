"""Shared fixtures: named instances and the small-complex agreement corpus."""

from __future__ import annotations

import contextlib
import signal

import pytest

from outerspatial import generators as gen
from outerspatial.complexes import (Face, Graph, TwoComplex, complete_graph,
                                    validate)
from outerspatial.decider import is_locally_2_connected


# Each test's wall-clock limit for its set-up and for its body, far above the
# slowest of them (about 18 s), so a loop that never ends fails its test
# instead of running until memory runs out.
TIME_LIMIT_S = 300


class TimeLimitExceeded(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeLimitExceeded in the main thread once `seconds` of wall-clock time pass."""
    def expire(signum, frame):
        raise TimeLimitExceeded(f"ran past its wall-clock limit of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with time_limit(TIME_LIMIT_S):
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with time_limit(TIME_LIMIT_S):
        yield


@pytest.fixture(scope="session")
def tetra():
    return gen.tetra()


@pytest.fixture(scope="session")
def bipyramid4():
    return gen.bipyramid(4)


@pytest.fixture(scope="session")
def bipyramid4_equator():
    return gen.bipyramid_with_equator(4)


@pytest.fixture(scope="session")
def torus7():
    return gen.torus7()


def min_degree3_skeletons():
    """All graphs with <= 5 vertices and minimum degree >= 3, up to isomorphism.

    Links need at least three vertices to be 2-connected, so these are the
    only skeletons of locally 2-connected complexes on at most 5 vertices.
    """
    k4 = complete_graph("abcd")
    k5 = complete_graph("abcde")
    k5_edges = k5.edges
    k5e = dict(k5_edges)
    del k5e["ab"]
    k5ee = dict(k5_edges)
    del k5ee["ab"]
    del k5ee["cd"]
    return [("K4", k4),
            ("K5", k5),
            ("K5-e", Graph("abcde", k5e)),
            ("K5-2e", Graph("abcde", k5ee))]


def _corner_pairs(graph: Graph, cycle: tuple[str, ...]):
    """Per-vertex corner (unordered incident-edge pair) of a vertex cycle."""
    k = len(cycle)
    out = []
    for i in range(k):
        v = cycle[i]
        e_in = graph.edges_between(cycle[(i - 1) % k], v)[0]
        e_out = graph.edges_between(v, cycle[(i + 1) % k])[0]
        out.append((v, frozenset((e_in, e_out))))
    return out


def _is_l2c_fast(graph: Graph, corner_lists) -> bool:
    """Locally 2-connected check from precomputed per-cycle corners."""
    link_edges: dict[str, list[frozenset[str]]] = {v: [] for v in graph.vertices}
    for corners in corner_lists:
        for v, pair in corners:
            if len(pair) < 2:
                return False
            link_edges[v].append(pair)
    for v in graph.vertices:
        pairs = link_edges[v]
        if len(set(pairs)) != len(pairs):
            return False
        verts = set(graph.incident_edges(v))
        if len(verts) < 3:
            return False
        adj = {u: set() for u in verts}
        for pair in pairs:
            a, b = sorted(pair)
            adj[a].add(b)
            adj[b].add(a)

        def connected(nodes) -> bool:
            nodes = set(nodes)
            if not nodes:
                return True
            seen = {min(nodes)}
            stack = [min(nodes)]
            while stack:
                x = stack.pop()
                for y in adj[x] & nodes:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            return seen == nodes

        if not connected(verts):
            return False
        if any(not connected(verts - {u}) for u in verts):
            return False
    return True


def _coverage_subsets(graph: Graph, cycles, max_faces: int):
    """Cycle subsets (index tuples) covering every edge at least twice."""
    edges = sorted(graph.edges)
    eidx = {e: i for i, e in enumerate(edges)}
    cyc_edges = []
    for cyc, edge_set in cycles:
        cyc_edges.append([eidx[e] for e in sorted(edge_set)])
    max_len = max((len(c) for c in cyc_edges), default=0)
    cov = [0] * len(edges)
    chosen: list[int] = []
    out: list[tuple[int, ...]] = []

    def deficiency() -> int:
        return sum(2 - c for c in cov if c < 2)

    def dfs(start: int) -> None:
        d = deficiency()
        if d == 0:
            out.append(tuple(chosen))
        room = max_faces - len(chosen)
        if room == 0 or d > room * max_len:
            return
        for i in range(start, len(cyc_edges)):
            for e in cyc_edges[i]:
                cov[e] += 1
            chosen.append(i)
            dfs(i + 1)
            chosen.pop()
            for e in cyc_edges[i]:
                cov[e] -= 1

    dfs(0)
    return out


def build_small_corpus(max_faces: int = 6):
    """Every locally 2-connected simple complex with <= 5 vertices and
    <= max_faces faces, up to skeleton isomorphism."""
    corpus = []
    for name, graph in min_degree3_skeletons():
        cycles = [(cyc, Face.from_vertices(graph, "c", cyc).edge_set)
                  for cyc in gen.all_cycles(graph, max_len=len(graph.vertices))]
        corners = [_corner_pairs(graph, cyc) for cyc, _ in cycles]
        for subset in _coverage_subsets(graph, cycles, max_faces):
            if not _is_l2c_fast(graph, [corners[i] for i in subset]):
                continue
            faces = [Face.from_vertices(graph, f"f{i}", cycles[i][0]) for i in subset]
            complex = TwoComplex(graph, faces)
            assert not validate(complex)
            assert is_locally_2_connected(complex)
            corpus.append((name, complex))
    return corpus


@pytest.fixture(scope="session")
def small_corpus():
    return build_small_corpus()


@pytest.fixture(scope="session")
def random_corpus():
    """At least 500 seeded random locally 2-connected complexes, <= 8 vertices."""
    out = []
    seed = 0
    while len(out) < 500:
        out.append(gen.random_complex(seed))
        seed += 1
    return out
