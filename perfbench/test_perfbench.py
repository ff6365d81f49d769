"""Checks of the benchmark itself: `python3 -m pytest perfbench -q` from the root."""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import instances as inst  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import MIN_OPS, TAIL_PERCENTILE, percentile  # noqa: E402

from outerspatial import decider  # noqa: E402
from outerspatial.complexes import validate  # noqa: E402
from outerspatial.fileformat import format_verdict, parse_complex  # noqa: E402

ID = re.compile(r"^(?:vertex|edge|face) (\w+)", re.M)


def texts(workload: str, seed: int, pass_no: int = 0) -> list[str]:
    return [inst.render(x, wl.tag(seed, workload, pass_no, i))
            for i, x in enumerate(wl.instances(workload, seed))]


@pytest.mark.parametrize("workload", wl.IN_PROCESS)
def test_same_seed_same_bytes_other_seed_other_labels(workload):
    assert texts(workload, 5) == texts(workload, 5)
    ids5 = {t for text in texts(workload, 5) for t in ID.findall(text)}
    ids6 = {t for text in texts(workload, 6) for t in ID.findall(text)}
    assert ids5 and not ids5 & ids6


@pytest.mark.parametrize("workload", wl.IN_PROCESS)
def test_each_pass_gets_fresh_labels(workload):
    first = {t for text in texts(workload, 5, 0) for t in ID.findall(text)}
    second = {t for text in texts(workload, 5, 1) for t in ID.findall(text)}
    assert not first & second


@pytest.mark.parametrize("workload", wl.IN_PROCESS)
def test_instances_are_valid_input(workload):
    for x, text in zip(wl.instances(workload, 3), texts(workload, 3)):
        complex = parse_complex(text)
        assert not validate(complex), x.name
        assert len(complex.graph.vertices) == len(x.vertices)
        assert len(complex.faces) == len(x.faces)


def test_chordal_instances_have_long_faces():
    for x in wl.instances("chordal", 4):
        assert max(len(f) for f in x.faces) >= 4, x.name


def test_small_instances_get_the_kind_they_were_built_with():
    rng = random.Random(0)
    cases = [inst.star_boundary(rng, 20, 1), inst.prism(6), inst.stacked(rng, 12),
             inst.cone(rng, "K4", 6), inst.cone(rng, "K2,3", 7), inst.torus(rng, 3)]
    cases += [f.instance for f in wl.cli_files()]
    for x in cases:
        verdict = decider.decide_outerspatial(parse_complex(inst.render(x, "t")))
        assert verdict.kind == x.expect, x.name


def test_tail_percentile_keeps_ten_samples_beyond():
    ordered = list(range(1, MIN_OPS + 1))
    assert percentile(ordered, 50) == MIN_OPS // 2
    assert len(ordered) - percentile(ordered, TAIL_PERCENTILE) >= 10


def test_nominal_seconds_scale_by_the_reference_time():
    assert speed.reference_s() > 0
    assert speed.nominal(3.0, speed.NOMINAL_S, speed.NOMINAL_S) == pytest.approx(3.0)
    # A host running the reference twice as slow ran the operation twice as slow.
    assert speed.nominal(3.0, 2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S) == pytest.approx(1.5)


def test_tracer_wraps_every_binding_and_self_times_add_up():
    tracer = Tracer()
    tracer.install()
    try:
        assert decider.nesting_forest.__wrapped__ is not None
        text = inst.render(inst.prism(5), "t")
        tracer.active = True
        format_verdict(decider.decide_outerspatial(parse_complex(text)))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert not hasattr(decider.nesting_forest, "__wrapped__")
    names = [tracer.names[n] for n in tracer.name]
    assert "embedding.nesting_forest" in names and "complexes.link_graph" in names
    top = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
    assert sum(tracer.self_times()) == pytest.approx(top)
    cross = tracer.names.index("embedding.cycles_cross")
    assert tracer.counts[cross] > 0 and cross not in tracer.name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stacked",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.NAMES)
