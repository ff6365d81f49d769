"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import os
import random
import subprocess
import sys

import networkx as nx
import pytest

from families import _search_minor, random_planar_graph, triangles_of
from outerspatial import generators as gen
from outerspatial import embedding
from outerspatial.complexes import Graph, Path, contract_path, validate
from outerspatial.decider import (AsphericalSubcomplex, NestedCertificate,
                                  NonOuterplanarLink, NotOuterspatial,
                                  Outerspatial, decide_nested_plane,
                                  decide_outerspatial, verify_certificate,
                                  verify_obstruction)
from outerspatial.embedding import is_2_connected, verify_minor_witness
from outerspatial.oracle import brute_force_outerspatial
from outerspatial.surface import survey_surfaces


def report(criterion: int, ok: bool, message: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {message}")
    assert ok, message


@pytest.fixture(scope="session")
def corpus_results(small_corpus, random_corpus):
    """Decide and brute-force every corpus instance once; reused by 2, 3, 5."""
    results = []
    for _, complex in small_corpus:
        results.append((complex, decide_outerspatial(complex),
                        brute_force_outerspatial(complex)))
    for complex in random_corpus:
        results.append((complex, decide_outerspatial(complex),
                        brute_force_outerspatial(complex)))
    return results


def test_criterion_1_named_instances():
    checks = []
    verdict = decide_outerspatial(gen.tetra())
    checks.append(isinstance(verdict, Outerspatial))

    verdict = decide_outerspatial(gen.bipyramid_with_equator(4))
    checks.append(isinstance(verdict, Outerspatial))

    verdict = decide_outerspatial(gen.cone_over_graph(gen.named_graph("k4")))
    checks.append(isinstance(verdict, NotOuterspatial)
                  and isinstance(verdict.obstruction, NonOuterplanarLink)
                  and verdict.obstruction.path.is_trivial()
                  and verdict.obstruction.witness.target == "K4")

    verdict = decide_outerspatial(gen.cone_over_graph(gen.named_graph("k23")))
    checks.append(isinstance(verdict, NotOuterspatial)
                  and isinstance(verdict.obstruction, NonOuterplanarLink)
                  and verdict.obstruction.witness.target == "K2,3")

    verdict = decide_outerspatial(gen.torus7())
    checks.append(isinstance(verdict, NotOuterspatial)
                  and isinstance(verdict.obstruction, AsphericalSubcomplex)
                  and verdict.obstruction.surface.euler == 0
                  and verdict.obstruction.surface.orientable)

    report(1, all(checks),
           f"named instances give the required verdict kinds ({len(checks)} checks)")


def test_criterion_2_oracle_agreement(small_corpus, corpus_results):
    disagreements = 0
    undecided = 0
    for complex, verdict, oracle_outcome in corpus_results:
        if verdict.kind == "hypothesis-violated":
            undecided += 1
            continue
        decide_yes = isinstance(verdict, Outerspatial)
        oracle_yes = isinstance(oracle_outcome, NestedCertificate)
        if decide_yes != oracle_yes:
            disagreements += 1
    ok = disagreements == 0 and undecided == 0 and len(corpus_results) >= 1000
    report(2, ok,
           f"decide agrees with brute force on all {len(corpus_results)} "
           f"locally 2-connected instances ({len(small_corpus)} exhaustive, "
           f"{len(corpus_results) - len(small_corpus)} random); "
           f"{disagreements} disagreements")


def test_criterion_3_soundness(corpus_results):
    cert_total = cert_ok = obs_total = obs_ok = 0
    for complex, verdict, oracle_outcome in corpus_results:
        if isinstance(verdict, Outerspatial):
            cert_total += 1
            cert_ok += verify_certificate(complex, verdict.certificate)
        elif isinstance(verdict, NotOuterspatial):
            obs_total += 1
            obs_ok += verify_obstruction(complex, verdict.obstruction)
        if isinstance(oracle_outcome, NestedCertificate):
            cert_total += 1
            cert_ok += verify_certificate(complex, oracle_outcome)
    ok = cert_ok == cert_total and obs_ok == obs_total
    report(3, ok,
           f"{cert_ok}/{cert_total} certificates and {obs_ok}/{obs_total} "
           f"obstructions re-verify")


def test_criterion_4_triangle_sets_are_nested():
    failures = 0
    count = 220
    for seed in range(count):
        graph = random_planar_graph(seed)
        verdict = decide_nested_plane(graph, triangles_of(graph))
        if not isinstance(verdict, Outerspatial):
            failures += 1
    report(4, failures == 0,
           f"decide_nested_plane accepts the full triangle set of "
           f"{count} random planar graphs")


def test_criterion_5_contraction_preserves_acceptance(corpus_results):
    violations = 0
    contractions = 0
    for complex, verdict, oracle_outcome in corpus_results:
        if not isinstance(verdict, Outerspatial):
            continue
        for eid in sorted(complex.graph.edges):
            u, v = complex.graph.endpoints(eid)
            contracted = contract_path(complex, Path((u, v), (eid,)))
            if validate(contracted):
                continue
            contractions += 1
            if not isinstance(brute_force_outerspatial(contracted), NestedCertificate):
                violations += 1
    ok = violations == 0 and contractions >= 100
    report(5, ok,
           f"{contractions} admissible contractions of accepted instances "
           f"all stay accepted; {violations} violations")


def _graph_from_nx(nxg) -> Graph:
    names = {v: f"v{v}" for v in nxg.nodes}
    edges = {f"e{i}": (names[u], names[v])
             for i, (u, v) in enumerate(sorted(map(tuple, map(sorted, nxg.edges()))))}
    return Graph(sorted(names.values()), edges)


def _hamilton_route_outerplanar(graph: Graph) -> bool:
    """Independent check: a Hamilton cycle with pairwise non-interleaved chords."""
    verts = sorted(graph.vertices)
    n = len(verts)
    start = verts[0]
    hamiltons = []

    def extend(path, used):
        if len(path) == n:
            if graph.edges_between(path[-1], start):
                hamiltons.append(tuple(path))
            return
        for w in sorted(graph.neighbors(path[-1])):
            if w not in used:
                path.append(w)
                used.add(w)
                extend(path, used)
                path.pop()
                used.remove(w)

    extend([start], {start})
    for ham in hamiltons:
        pos = {v: i for i, v in enumerate(ham)}
        chords = []
        for u, v in (graph.endpoints(e) for e in graph.edges):
            a, b = sorted((pos[u], pos[v]))
            if b - a not in (1, n - 1):
                chords.append((a, b))
        ok = True
        for (a, b), (c, d) in itertools.combinations(chords, 2):
            if a < c < b < d or c < a < d < b:
                ok = False
                break
        if ok:
            return True
    return False


def test_criterion_6_outerplanarity_triple_agreement():
    graphs = []
    for nxg in nx.graph_atlas_g()[1:]:
        if nxg.number_of_nodes() <= 7:
            graphs.append(_graph_from_nx(nxg))
    rng = random.Random(42)
    for _ in range(120):
        nxg = nx.gnp_random_graph(8, rng.uniform(0.15, 0.6), seed=rng.randrange(10**9))
        graphs.append(_graph_from_nx(nxg))

    mismatches = 0
    bad_witnesses = 0
    checked_hamilton = 0
    for graph in graphs:
        result = embedding.test_outerplanar(graph)
        minor_free = (_search_minor(graph, "K4") is None
                      and _search_minor(graph, "K2,3") is None)
        if result.outerplanar != minor_free:
            mismatches += 1
        if not result.outerplanar:
            if not verify_minor_witness(graph, result.witness):
                bad_witnesses += 1
        if is_2_connected(graph) and graph.is_simple():
            checked_hamilton += 1
            if _hamilton_route_outerplanar(graph) != result.outerplanar:
                mismatches += 1
    ok = mismatches == 0 and bad_witnesses == 0
    report(6, ok,
           "the block pass with degree-2 elimination, minor-freeness and the "
           "Hamilton route agree on "
           f"{len(graphs)} graphs ({checked_hamilton} 2-connected); "
           f"all witnesses verify")


def test_criterion_7_surface_classifier():
    checks = []
    ((_, sclass),) = survey_surfaces(gen.tetra())
    checks.append(sclass.is_sphere and sclass.euler == 2)
    for n in range(3, 9):
        ((_, sclass),) = survey_surfaces(gen.bipyramid(n))
        checks.append(sclass.is_sphere and sclass.euler == 2)
    ((_, sclass),) = survey_surfaces(gen.torus7())
    checks.append(sclass.euler == 0 and sclass.orientable and sclass.genus == 1)
    report(7, all(checks),
           "tetra and bipyramids n=3..8 classify as spheres (euler 2); "
           "torus7 as orientable genus 1 (euler 0)")


BUNDLED = [
    ("tetra", ("generate", "tetra")),
    ("bipyr4", ("generate", "bipyramid", "4")),
    ("bipyreq4", ("generate", "bipyramid-equator", "4")),
    ("prism3", ("generate", "prism", "3")),
    ("torus7", ("generate", "torus7")),
    ("conek4", ("generate", "cone-k4")),
    ("conek23", ("generate", "cone-k23")),
    ("rand0", ("generate", "random", "--seed", "0")),
    ("rand1", ("generate", "random", "--seed", "1")),
]


def _cli(args, hash_seed: str) -> tuple[int, bytes]:
    # The child finds the package under src/ whether or not the caller set PYTHONPATH.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run([sys.executable, "-m", "outerspatial.cli", *args],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout


def test_criterion_8_determinism(tmp_path):
    # Two fresh processes with different hash seeds must emit identical bytes.
    inputs = {}
    for name, args in BUNDLED:
        code, text = _cli(args, "0")
        assert code == 0
        path = tmp_path / f"{name}.txt"
        path.write_bytes(text)
        inputs[name] = str(path)
    cycles = tmp_path / "cycles.txt"
    cycles.write_text("cycle c1 n a s c\ncycle c2 n b s d\n")

    commands = []
    for name, args in BUNDLED:
        commands.append(args)
        for sub in ("validate", "links", "decide", "surface", "render"):
            commands.append((sub, inputs[name]))
        commands.append(("render", inputs[name], "--format", "svg"))
    for name in ("tetra", "conek4", "conek23", "bipyreq4", "torus7", "prism3"):
        commands.append(("oracle", inputs[name]))
    commands.append(("nested", inputs["bipyr4"], str(cycles)))

    differing = 0
    for args in commands:
        code1, out1 = _cli(args, "0")
        code2, out2 = _cli(args, "1")
        if (code1, out1) != (code2, out2):
            differing += 1
    report(8, differing == 0,
           f"{len(commands)} command runs are byte-identical across processes")
