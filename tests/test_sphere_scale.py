"""The sphere layer at scale: positive decisions never search a cycle's sides
and walk only the cycles that bound no face orbit, and the families that
once hit quadratic cliffs decide, or find their crossing pair, within loose
wall guards.
"""

import gc
import json
import time
from pathlib import Path

import families
import pytest

from outerspatial import embedding
from outerspatial import generators as gen
from outerspatial.decider import Outerspatial, decide_outerspatial, verify_certificate
from outerspatial.embedding import (CrossingPair, split_orbit_cycles, nesting_forest,
                                    trace_faces)
from outerspatial.fileformat import parse_complex

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
WALL_GUARD_S = 5.0


def _perfbench_texts(workload, seed):
    instances, workloads = families.perfbench_modules()
    return [instances.render(x, f"w{i}q") for i, x in enumerate(workloads.instances(workload, seed))]


def _positives():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    out = [(case, parse_complex((GOLDEN / f"{case}.complex").read_text()))
           for case in sorted(codes) if codes[case]["decide"] == 0]
    for workload in ("chordal", "stacked"):
        out += [(f"{workload}{i}", parse_complex(text))
                for i, text in enumerate(_perfbench_texts(workload, 3))]
    out.append(("tower40", families.tower(40)))
    return out


def test_positive_decisions_never_search_sides(monkeypatch):
    cases = _positives()
    assert len(cases) > 20

    def refuse(*args, **kwargs):
        raise AssertionError("a positive decision searched a cycle's sides")

    monkeypatch.setattr(embedding, "_cycle_interior", refuse)
    for name, complex in cases:
        assert isinstance(decide_outerspatial(complex), Outerspatial), name


def test_positive_decisions_walk_only_the_cycles_that_are_not_faces(monkeypatch):
    """Every face of a prism's or a stacked sphere's remainder bounds a face orbit,
    so a positive decide builds no dual tree and runs no label walk; a
    star-boundary sphere walks its star faces only."""
    trees, walks = [], []
    tree, walk = embedding._DualTree, embedding._label_walk
    monkeypatch.setattr(embedding, "_DualTree", lambda *args: trees.append(args) or tree(*args))
    monkeypatch.setattr(embedding, "_label_walk",
                        lambda t, cycles: walks.append(sorted(cycles)) or walk(t, cycles))
    for complex in [gen.prism(20), families.stacked(3, 120)]:
        assert isinstance(decide_outerspatial(complex), Outerspatial)
        assert trees == walks == []
    for complex in families.star_boundary_spheres():
        trees.clear()
        walks.clear()
        assert isinstance(decide_outerspatial(complex), Outerspatial)
        stars = sorted(fid for fid, f in complex.faces.items() if len(f.edge_ids) > 3)
        assert stars and len(trees) == 1 and walks == [stars]


def _timed(fn, *args):
    # Objects left by earlier tests would be rescanned by every collection.
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        got = fn(*args)
        return got, time.perf_counter() - start
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("name,build", [
    ("tower-2000", lambda: families.tower(2000)),
    ("prism-1600", lambda: gen.prism(1600)),
    ("tetrahedra-1600", lambda: families.disjoint_tetrahedra(1600)),
    ("stacked-6400", lambda: families.stacked(6400, 6400)),
])
def test_cliff_families_decide_within_the_wall_guard(name, build):
    complex = build()
    verdict, elapsed = _timed(decide_outerspatial, complex)
    assert isinstance(verdict, Outerspatial)
    assert elapsed < WALL_GUARD_S, f"{name} took {elapsed:.2f} s"
    assert len(verdict.certificate.components) == len(complex.graph.component_index()[1])
    if name.startswith("tower"):
        (comp,) = verdict.certificate.components
        assert families.forest_depth(comp.parents) >= 1000
    assert verify_certificate(complex, verdict.certificate)


def test_late_crossing_pair_is_found_within_the_wall_guard():
    # Stars of two adjacent centres cross, and their ids sort after every
    # triangle's.  Scanning every pair in id order takes 12 s at this size
    # on a shared Xeon; the pairs with a common vertex take 0.24 s.
    sphere = families.stacked(6000, 6000)
    g = sphere.graph
    traced = trace_faces(g, decide_outerspatial(sphere).certificate.rotation)
    cycles = {fid: f.edge_set for fid, f in sphere.faces.items()}

    def star(v):
        return frozenset(e for f in sphere.faces.values() if v in f.vertices
                         for e in f.edge_ids if v not in g.endpoints(e))

    u = max(sorted(g.vertices), key=g.degree)
    cycles["zz1"], cycles["zz2"] = star(u), star(min(g.neighbors(u)))
    got, elapsed = _timed(lambda: nesting_forest(traced, *split_orbit_cycles(traced, cycles)))
    assert isinstance(got, CrossingPair)
    assert (got.first, got.second) == ("zz1", "zz2")
    assert elapsed < WALL_GUARD_S, f"crossing scan took {elapsed:.2f} s"
    # The star of u encloses the triangles at u, or everything else.
    assert len(got.inside) in (g.degree(u), len(traced.orbits) - g.degree(u))
